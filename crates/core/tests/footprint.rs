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

use std::sync::Arc;
use zolc_core::{decide, DynState, Zolc, ZolcConfig, MAX_LOOPS, TASK_NONE};
use zolc_gen::{GenConfig, GenRng, ProgramSpec};
use zolc_ir::Target;
use zolc_isa::TEXT_BASE;
use zolc_sim::{CompiledProgram, CpuConfig, ExecEvent, FunctionalCpu, LoopEngine, RunError};

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

/// Checks the footprint of `z` (active) over a text of `len`
/// instructions.
fn check(z: &Zolc, len: u32, rng: &mut GenRng, ctx: &str) {
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
    }
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

/// Random tables, written through `zwr` while the controller is active
/// so every address write refreshes the footprint: loop, task, entry
/// and exit records aimed at a small text, with random valid bits.
#[test]
fn footprint_covers_random_table_sets() {
    use zolc_isa::{entry_field, exit_field, loop_field, task_field, ZolcRegion};
    const LEN: u32 = 32;
    let mut rng = GenRng::new(0xf009);
    for round in 0..60 {
        let config = CONFIGS()[round % 3];
        let mut z = Zolc::new(config);
        z.activate(0);
        for _ in 0..16 {
            let addr = TEXT_BASE + 4 * rng.below(LEN + 2);
            let any = rng.next_u64() as u32;
            let bit = u32::from(rng.chance(3, 4));
            let k = rng.below(config.loops() as u32) as u8;
            let writes: [(ZolcRegion, u32, u8, u32); 13] = [
                (ZolcRegion::Loop, 8, loop_field::START, addr),
                (ZolcRegion::Loop, 8, loop_field::END, addr),
                (ZolcRegion::Loop, 8, loop_field::LIMIT, rng.below(5)),
                (ZolcRegion::Loop, 8, loop_field::INDEX_REG, any & 31),
                (ZolcRegion::Task, 32, task_field::END, addr),
                (ZolcRegion::Task, 32, task_field::LOOP_ID, u32::from(k)),
                (ZolcRegion::Task, 32, task_field::NEXT_ITER, any & 31),
                (ZolcRegion::Task, 32, task_field::CTL, bit),
                (ZolcRegion::Entry, 32, entry_field::ADDR, addr),
                (ZolcRegion::Entry, 32, entry_field::VALID, bit),
                (ZolcRegion::Entry, 32, entry_field::INIT_MASK, any & 0xff),
                (ZolcRegion::Exit, 32, exit_field::BRANCH, addr),
                (ZolcRegion::Exit, 32, exit_field::VALID, bit),
            ];
            let (region, n, field, value) = writes[rng.below(13) as usize];
            z.exec_zwr(region, rng.below(n) as u8, field, value);
            if z.arch_state().active {
                check(&z, LEN, &mut rng, &format!("random round {round} {config}"));
            }
        }
    }
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
