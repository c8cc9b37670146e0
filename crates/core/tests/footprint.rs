//! Soundness of the controller's hook footprint (`LoopEngine::hook_pcs`).
//!
//! Executors skip `on_fetch`/`on_execute` at every pc outside the
//! footprint, and the nest tier runs those pcs in superblocks with no
//! hook call at all, so the footprint must be a superset of where the
//! controller can act. For the tables of every Fig. 2 kernel and corpus
//! program built for uZOLC, ZOLClite and ZOLCfull, and of retargeted
//! `zolc-gen` programs — each time a running program's `zwr`/`zctl`
//! leaves the controller active — this checks every text pc outside the
//! footprint:
//!
//! * `decide` returns a trivial decision and leaves random dynamic
//!   states unchanged;
//! * `on_execute` with a taken-branch event leaves the controller's
//!   state and violations unchanged, at every point of a random walk
//!   through its reachable states.
//!
//! The same table sets check the controller's compiled decisions (its
//! per-footprint-pc site table) against the reference `decide`: at
//! every footprint pc, from the controller's own states and from random
//! active states, the redirect, the rider writes in order, the decision
//! kind and the post-state agree, through `Zolc::decide_at` and through
//! the `on_fetch`/`on_execute` hooks themselves (exit records included).
//! The random table sets write every field of records drawn from each
//! region's whole index space (task 31 = `TASK_NONE` included), also
//! while the controller is active and between its own hook calls, so a
//! site or lookup left stale by any write shows. They include loop
//! counts of `u32::MAX`, where `count + 1` wraps, and fall-through
//! chains that cycle.

use std::sync::Arc;
use zolc_core::{
    decide, DecisionKind, DynState, Zolc, ZolcConfig, ZolcTables, MAX_LOOPS, TASK_NONE,
};
use zolc_gen::{GenConfig, GenRng, ProgramSpec};
use zolc_ir::Target;
use zolc_isa::{ZolcRegion, TEXT_BASE};
use zolc_sim::{
    CompiledProgram, CpuConfig, ExecEvent, FunctionalCpu, LoopEngine, RegWrites, RunError,
};

/// Instructions single-stepped per program: past every initialization
/// sequence and into the in-loop `zwr`s of data-dependent limits.
const STEPS: u64 = 3_000;

/// A random dynamic state of an active controller: any task (or none),
/// small and arbitrary counts, arbitrary index shadows.
fn random_state(rng: &mut GenRng, tasks: usize) -> DynState {
    let mut st = DynState {
        active: true,
        current_task: if rng.chance(1, 8) || tasks == 0 {
            TASK_NONE
        } else {
            rng.below(tasks as u32) as u8
        },
        ..DynState::default()
    };
    for k in 0..MAX_LOOPS {
        st.counts[k] = if rng.chance(1, 4) {
            rng.next_u64() as u32
        } else {
            rng.below(8)
        };
        st.index_cur[k] = rng.next_u64() as u32;
    }
    st
}

/// A random count for a loop record: mostly small, sometimes large,
/// sometimes `u32::MAX`. At that count `count + 1` wraps (the loop
/// iterates and its count wraps to 0), and the compiled decision must
/// wrap the same way.
fn random_count(rng: &mut GenRng) -> u32 {
    if rng.chance(1, 16) {
        u32::MAX
    } else if rng.chance(1, 8) {
        rng.below(u32::MAX - 1)
    } else {
        rng.below(6)
    }
}

/// A random dynamic state of an active controller: any task id, small
/// or large counts.
fn deciding_state(rng: &mut GenRng) -> DynState {
    let mut st = DynState {
        active: true,
        current_task: rng.below(32) as u8,
        ..DynState::default()
    };
    for k in 0..MAX_LOOPS {
        st.counts[k] = random_count(rng);
        st.index_cur[k] = rng.next_u64() as u32;
    }
    st
}

/// Checks the compiled decisions of `z` (active) against `decide` at
/// every footprint pc; branch targets are drawn from a text of `len`
/// instructions. Returns the grants checked (see [`check_iterations`]).
fn differential(z: &Zolc, len: u32, rng: &mut GenRng, ctx: &str) -> usize {
    let fp = z.hook_pcs().expect("the controller names its footprint");
    let mut states = vec![*z.arch_state(), *z.spec_state()];
    states.extend((0..8).map(|_| deciding_state(rng)));
    for st in states {
        for &pc in fp {
            let (mut want_st, mut got_st) = (st, st);
            let want = decide(z.tables(), &mut want_st, pc);
            let got = z.decide_at(&mut got_st, pc);
            assert_eq!(got, want, "{ctx}: decision at {pc:#x} from {st:?}");
            assert_eq!(got_st, want_st, "{ctx}: post-state at {pc:#x} from {st:?}");
        }
    }
    // The hooks, from the controller's own state: the fetch-time
    // decision, and the retire-time replay with an exit record's effect.
    let mut grants = 0;
    for &pc in fp {
        let mut w = z.clone();
        let mut want_st = *w.spec_state();
        let want = decide(w.tables(), &mut want_st, pc);
        let got = w.on_fetch(pc);
        assert_eq!(
            got.redirect, want.redirect,
            "{ctx}: on_fetch redirect at {pc:#x}"
        );
        assert_eq!(
            got.index_writes, want.writes,
            "{ctx}: on_fetch riders at {pc:#x}"
        );
        assert_eq!(*w.spec_state(), want_st, "{ctx}: on_fetch state at {pc:#x}");

        let mut w = z.clone();
        w.on_flush();
        let mut want_st = *w.arch_state();
        decide(w.tables(), &mut want_st, pc);
        if let Some(rec) = w.tables().exit_at(pc).copied() {
            want_st.current_task = rec.target_task;
            for k in ZolcTables::loops_in_mask(rec.clear_mask) {
                want_st.counts[usize::from(k)] = 0;
            }
        }
        let target = TEXT_BASE + 4 * rng.below(len);
        w.on_execute(pc, ExecEvent::Taken { target });
        assert_eq!(
            *w.arch_state(),
            want_st,
            "{ctx}: on_execute state at {pc:#x}"
        );
        grants += check_iterations(z, pc, rng, ctx);
    }
    grants
}

/// Checks what `z` grants at footprint pc `pc`
/// (`LoopEngine::iterations`) against `decide`: from the controller's
/// state, each of the next `n` decisions there is a plain iterate with
/// the granted redirect and rider writes, and `retire_iterations(pc, n)`
/// leaves the state that those `n` decisions — and `n` hook pairs —
/// leave, for `n` of 1, the whole grant (capped) and a random count.
/// Returns the grants checked: 1, or 0 when `z` grants nothing there.
fn check_iterations(z: &Zolc, pc: u32, rng: &mut GenRng, ctx: &str) -> usize {
    let Some(it) = z.iterations(pc) else {
        return 0;
    };
    assert!(it.count >= 1, "{ctx}: empty grant at {pc:#x}");
    let cap = it.count.min(40);
    for n in [1, cap, 1 + rng.below(cap)] {
        let mut st = *z.arch_state();
        for k in 0..n {
            let d = decide(z.tables(), &mut st, pc);
            let mut w = RegWrites::new();
            if let Some(x) = it.index {
                w.push(x.reg, x.first.wrapping_add(x.step.wrapping_mul(k)));
            }
            for (r, v) in it.rider.iter() {
                w.push(r, v);
            }
            assert_eq!(d.redirect, Some(it.target), "{ctx}: iterate {k} at {pc:#x}");
            assert_eq!(d.writes, w, "{ctx}: iterate {k} riders at {pc:#x}");
            assert!(
                matches!(d.kind, DecisionKind::Iterate { chained: 0, .. }),
                "{ctx}: iterate {k} at {pc:#x} is {:?}",
                d.kind
            );
        }
        let mut g = z.clone();
        g.retire_iterations(pc, n);
        assert_eq!(*g.arch_state(), st, "{ctx}: {n} iterates at {pc:#x}");
        assert_eq!(*g.spec_state(), st, "{ctx}: {n} iterates at {pc:#x}");
        let mut h = z.clone();
        for _ in 0..n {
            h.on_fetch(pc);
            h.on_execute(pc, ExecEvent::Plain);
        }
        assert_eq!(h.arch_state(), g.arch_state(), "{ctx}: hooks at {pc:#x}");
        assert_eq!(h.violations(), g.violations(), "{ctx}: hooks at {pc:#x}");
    }
    1
}

/// Checks the footprint of `z` (active) over a text of `len`
/// instructions, and its compiled decisions. Returns the grants checked.
fn check(z: &Zolc, len: u32, rng: &mut GenRng, ctx: &str) -> usize {
    let mut grants = differential(z, len, rng, ctx);
    let fp = z
        .hook_pcs()
        .expect("the controller names its footprint")
        .to_vec();
    assert!(
        fp.windows(2).all(|w| w[0] < w[1]),
        "{ctx}: footprint sorted"
    );
    let outside: Vec<u32> = (0..len)
        .map(|i| TEXT_BASE + 4 * i)
        .filter(|pc| !fp.contains(pc))
        .collect();
    let tasks = z.config().tasks();
    for _ in 0..24 {
        let st = random_state(rng, tasks);
        for &pc in &outside {
            let mut after = st;
            let d = decide(z.tables(), &mut after, pc);
            assert!(d.is_trivial(), "{ctx}: decide acted at {pc:#x}: {d:?}");
            assert_eq!(after, st, "{ctx}: decide changed the state at {pc:#x}");
        }
    }
    // Walk the controller through reachable states by driving its hooks
    // at footprint pcs; at every step, taken branches outside the
    // footprint must change nothing.
    let mut w = z.clone();
    for _ in 0..12 {
        for &pc in &outside {
            let before = (*w.arch_state(), *w.spec_state(), w.violations().len());
            let target = TEXT_BASE + 4 * rng.below(len);
            w.on_execute(pc, ExecEvent::Taken { target });
            let after = (*w.arch_state(), *w.spec_state(), w.violations().len());
            assert_eq!(before, after, "{ctx}: on_execute acted at {pc:#x}");
        }
        if fp.is_empty() {
            break;
        }
        let pc = fp[rng.below(fp.len() as u32) as usize];
        w.on_fetch(pc);
        let event = match rng.below(3) {
            0 => ExecEvent::Plain,
            1 => ExecEvent::NotTaken,
            _ => ExecEvent::Taken {
                target: TEXT_BASE + 4 * rng.below(len),
            },
        };
        w.on_execute(pc, event);
        for &pc in &fp {
            grants += check_iterations(&w, pc, rng, ctx);
        }
    }
    grants
}

/// Single-steps `prog` on the functional tier and checks the footprint
/// after activation and after every later table write or control
/// operation that leaves the controller active. Returns the checks made.
fn check_program(
    prog: &Arc<CompiledProgram>,
    config: ZolcConfig,
    rng: &mut GenRng,
    ctx: &str,
) -> usize {
    let len = prog.text().len() as u32;
    let mut z = Zolc::new(config);
    let mut cpu = FunctionalCpu::session(prog, CpuConfig::default()).unwrap();
    let mut seen = (0, 0);
    let mut checks = 0;
    while cpu.stats().retired < STEPS {
        if !matches!(cpu.run(&mut z, 1), Err(RunError::OutOfFuel { .. })) {
            break;
        }
        let s = cpu.stats();
        if (s.zwr_retired, s.zctl_retired) != seen {
            seen = (s.zwr_retired, s.zctl_retired);
            if z.arch_state().active {
                check(&z, len, rng, ctx);
                checks += 1;
            } else {
                assert_eq!(z.hook_pcs(), Some(&[][..]), "{ctx}: inactive footprint");
            }
        }
    }
    checks
}

/// Every (region, field) the random table sets write.
const FIELDS: [(ZolcRegion, u8); 23] = {
    use zolc_isa::{entry_field as e, exit_field as x, loop_field as l, task_field as t};
    use ZolcRegion::{Entry, Exit, Loop, Task};
    [
        (Loop, l::INIT),
        (Loop, l::STEP),
        (Loop, l::LIMIT),
        (Loop, l::COUNT),
        (Loop, l::INDEX_REG),
        (Loop, l::START),
        (Loop, l::END),
        (Loop, l::FLAGS),
        (Task, t::END),
        (Task, t::LOOP_ID),
        (Task, t::NEXT_ITER),
        (Task, t::NEXT_FALLTHRU),
        (Task, t::CTL),
        (Entry, e::ADDR),
        (Entry, e::TASK),
        (Entry, e::INIT_MASK),
        (Entry, e::REDIRECT),
        (Entry, e::VALID),
        (Exit, x::BRANCH),
        (Exit, x::TASK),
        (Exit, x::CLEAR_MASK),
        (Exit, x::TARGET),
        (Exit, x::VALID),
    ]
};

/// The record indices a `zwr` to `region` can name: 8 loop records, 32
/// of each other kind. Indices past a configuration's capacity are
/// rejected writes.
fn index_space(region: ZolcRegion) -> u32 {
    match region {
        ZolcRegion::Loop => MAX_LOOPS as u32,
        _ => 32,
    }
}

/// The records of `region` a random table set writes every field of
/// before activation, out of the `capacity` the configuration has: every
/// loop, and a few other records drawn from all of them (the top one —
/// on ZOLCfull task 31 = `TASK_NONE` — in every other round).
fn picked_records(rng: &mut GenRng, region: ZolcRegion, capacity: usize) -> Vec<u8> {
    let capacity = capacity as u32;
    if region == ZolcRegion::Loop || capacity == 0 {
        return (0..capacity as u8).collect();
    }
    let n = if region == ZolcRegion::Task { 8 } else { 4 };
    let mut picks: Vec<u8> = (0..n).map(|_| rng.below(capacity) as u8).collect();
    if rng.chance(1, 2) {
        picks.push(capacity as u8 - 1);
    }
    picks.sort_unstable();
    picks.dedup();
    picks
}

/// A random value for `field` of a record of `region`: addresses
/// in (or just past) a text of `len` instructions, valid bits mostly
/// set, small bounds and counts, and fall-through links to any task id,
/// so completion chains can cycle.
fn random_value(rng: &mut GenRng, region: ZolcRegion, field: u8, len: u32) -> u32 {
    use zolc_isa::{entry_field as e, exit_field as x, loop_field as l, task_field as t};
    let addr = TEXT_BASE + 4 * rng.below(len + 2);
    let any = rng.next_u64() as u32;
    match (region, field) {
        (ZolcRegion::Loop, l::START | l::END)
        | (ZolcRegion::Task, t::END)
        | (ZolcRegion::Entry, e::ADDR)
        | (ZolcRegion::Exit, x::BRANCH) => addr,
        (ZolcRegion::Entry, e::REDIRECT) | (ZolcRegion::Exit, x::TARGET) => {
            if rng.chance(1, 4) {
                0
            } else {
                addr
            }
        }
        (ZolcRegion::Task, t::CTL)
        | (ZolcRegion::Entry, e::VALID)
        | (ZolcRegion::Exit, x::VALID) => u32::from(rng.chance(3, 4)),
        (ZolcRegion::Loop, l::LIMIT) => rng.below(5),
        (ZolcRegion::Loop, l::COUNT) => {
            if rng.chance(1, 2) {
                rng.below(4)
            } else {
                random_count(rng)
            }
        }
        (ZolcRegion::Loop, l::STEP) => any >> rng.below(32),
        (ZolcRegion::Task, t::LOOP_ID) => rng.below(8),
        (ZolcRegion::Task, t::NEXT_FALLTHRU) => rng.below(32),
        _ => any,
    }
}

/// Random tables: a few records of each kind, drawn from all the records
/// the configuration has, get every field written before activation,
/// then random fields of those or of any record index (rejected past the
/// configuration's capacity) are written through `zwr` while the
/// controller is active, each write followed by the checks, so a write
/// that leaves the footprint or a site stale shows. The writes before
/// activation are all accepted, so the controller's 64 recorded
/// violations never fill up and hide one.
#[test]
fn footprint_covers_random_table_sets() {
    const LEN: u32 = 32;
    let mut rng = GenRng::new(0xf009);
    let mut grants = 0;
    for round in 0..240 {
        let config = CONFIGS()[round % 3];
        let ctx = format!("random round {round} {config}");
        let mut z = Zolc::new(config);
        let regions = [
            ZolcRegion::Loop,
            ZolcRegion::Task,
            ZolcRegion::Entry,
            ZolcRegion::Exit,
        ];
        let t = z.tables();
        let capacity = [
            t.loops().len(),
            t.tasks().len(),
            t.entries().len(),
            t.exits().len(),
        ];
        let picks: Vec<Vec<u8>> = regions
            .iter()
            .zip(capacity)
            .map(|(&r, c)| picked_records(&mut rng, r, c))
            .collect();
        let picked =
            |region: ZolcRegion| &picks[regions.iter().position(|&r| r == region).unwrap()];
        for &(region, field) in &FIELDS {
            for &index in picked(region) {
                let value = random_value(&mut rng, region, field, LEN);
                z.exec_zwr(region, index, field, value);
            }
        }
        assert!(z.violations().is_empty(), "{ctx}: {:?}", z.violations());
        let tasks = picked(ZolcRegion::Task);
        z.activate(if tasks.is_empty() {
            0
        } else {
            tasks[rng.below(tasks.len() as u32) as usize]
        });
        grants += check(&z, LEN, &mut rng, &ctx);
        for _ in 0..24 {
            // Run one footprint pc through the hooks, so what the
            // controller remembers of its last lookup predates the write.
            let fp = z.hook_pcs().unwrap_or_default().to_vec();
            if !fp.is_empty() {
                let pc = fp[rng.below(fp.len() as u32) as usize];
                z.on_fetch(pc);
                z.on_execute(pc, ExecEvent::Plain);
            }
            let (region, field) = FIELDS[rng.below(FIELDS.len() as u32) as usize];
            let mine = picked(region);
            let index = if !mine.is_empty() && rng.chance(1, 2) {
                mine[rng.below(mine.len() as u32) as usize]
            } else {
                rng.below(index_space(region)) as u8
            };
            let value = random_value(&mut rng, region, field, LEN);
            z.exec_zwr(region, index, field, value);
            grants += check(&z, LEN, &mut rng, &ctx);
        }
    }
    assert!(grants >= 1000, "only {grants} grants checked");
}

const CONFIGS: fn() -> [ZolcConfig; 3] =
    || [ZolcConfig::micro(), ZolcConfig::lite(), ZolcConfig::full()];

#[test]
fn footprint_covers_every_kernel_and_corpus_table_set() {
    let mut rng = GenRng::new(0xf007);
    let mut checks = 0;
    for config in CONFIGS() {
        let target = Target::Zolc(config);
        for k in zolc_kernels::kernels()
            .iter()
            .chain(zolc_kernels::extra_kernels())
        {
            if let Ok(built) = (k.build)(&target) {
                checks += check_program(
                    &built.program,
                    config,
                    &mut rng,
                    &format!("{} {config}", k.name),
                );
            }
        }
        for e in zolc_lang::corpus() {
            let unit = zolc_lang::compile(e.name, e.source).expect("corpus compiles");
            if let Ok(built) = unit.build(&target) {
                checks += check_program(
                    &built.program,
                    config,
                    &mut rng,
                    &format!("{} {config}", e.name),
                );
            }
        }
    }
    assert!(checks >= 60, "only {checks} active table sets checked");
}

#[test]
fn footprint_covers_retargeted_generated_programs() {
    let mut rng = GenRng::new(0xf008);
    let mut checks = 0;
    for seed in 0..40u64 {
        let spec = ProgramSpec::generate(0xf00_0000 + seed, &GenConfig::default());
        let program = spec
            .assemble()
            .expect("generated program assembles")
            .program;
        for config in CONFIGS() {
            let Ok(r) = zolc_cfg::retarget(&program, &config) else {
                continue;
            };
            let prog = CompiledProgram::compile(Arc::clone(&r.program));
            checks += check_program(
                &prog,
                config,
                &mut rng,
                &format!("gen seed {seed} {config}"),
            );
        }
    }
    assert!(checks >= 60, "only {checks} active table sets checked");
}
