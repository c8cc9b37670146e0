//! Nets for running an **active** ZOLC controller on every tier.
//!
//! The executors call the controller's hooks only at its hook footprint
//! (`LoopEngine::hook_pcs`), and the nest tier runs everything between
//! footprint pcs in superblocks. These tests hold that path exact:
//!
//! * fuel sweeps over a hand-lowered ZOLClite kernel and over the loop
//!   shapes the nest tier's granted iterates must get exactly right
//!   (four loops sharing a one-instruction body, uZOLC's loop 0, an
//!   index register read in the body, a faulting load as task end or in
//!   the body, a body branch that leaves the loop early): at every
//!   budget the nest tier stops in the functional tier's exact state,
//!   controller included, and its full runs are granted iterates;
//! * a regression for the rider capacity: a table set whose entry record
//!   and loop-entry rule write all eight indices in one decision;
//! * the active-controller wild differential: retargeted `zolc-gen`
//!   programs with mutated bodies (loads and stores that may fault or be
//!   misaligned, branches, `jr`, in-loop `zwr` to limit fields) run on
//!   all three tiers under fuel, and must agree.

use std::sync::Arc;
use zolc::cfg::retarget;
use zolc::core::{LimitSrc, LoopSpec, TaskSpec, Zolc, ZolcConfig, ZolcImage, TASK_NONE};
use zolc::gen::{GenConfig, GenRng, ProgramSpec};
use zolc::ir::Target;
use zolc::isa::{
    assemble, loop_field, reg, Asm, Instr, Program, Reg, ZolcCtl, ZolcRegion, DATA_BASE, TEXT_BASE,
};
use zolc::kernels::build_vec_mac;
use zolc::sim::{
    run_session, CompiledProgram, CpuConfig, ExecEvent, ExecutorKind, FetchDecision, FunctionalCpu,
    Iterations, LoopEngine, NestCpu, RunError, Stats, MEM_SIZE,
};

/// The controller, granting iterates like `Zolc` itself and counting
/// those the nest tier retires.
struct Granting {
    z: Zolc,
    iterates: u64,
}

impl LoopEngine for Granting {
    fn on_fetch(&mut self, pc: u32) -> FetchDecision {
        self.z.on_fetch(pc)
    }

    fn on_execute(&mut self, pc: u32, event: ExecEvent) {
        self.z.on_execute(pc, event);
    }

    fn exec_zwr(&mut self, region: ZolcRegion, index: u8, field: u8, value: u32) {
        self.z.exec_zwr(region, index, field, value);
    }

    fn exec_zctl(&mut self, op: ZolcCtl) {
        self.z.exec_zctl(op);
    }

    fn on_flush(&mut self) {
        self.z.on_flush();
    }

    fn hook_pcs(&self) -> Option<&[u32]> {
        self.z.hook_pcs()
    }

    fn iterations(&self, pc: u32) -> Option<Iterations> {
        self.z.iterations(pc)
    }

    fn retire_iterations(&mut self, pc: u32, n: u32) {
        self.iterates += u64::from(n);
        self.z.retire_iterations(pc, n);
    }
}

/// Runs `prog` with a `config` controller on the functional and nest
/// tiers under every fuel budget from 1 to one past its retire count and
/// under a budget with room to spare,
/// holding the nest tier to the functional tier's exact state: outcome,
/// pc, registers, memory, statistics, the controller's architectural
/// state and its violations (none). Returns the retire count, whether
/// the unlimited run ended in a data fault, and the iterates it was
/// granted on the nest tier.
fn active_fuel_sweep(
    prog: &Arc<CompiledProgram>,
    config: ZolcConfig,
    ctx: &str,
) -> (u64, bool, u64) {
    let functional = |fuel| {
        let mut z = Zolc::new(config);
        let mut cpu = FunctionalCpu::session(prog, CpuConfig::default()).unwrap();
        let r = cpu.run(&mut z, fuel);
        (r, cpu, z)
    };
    let (end, f, _) = functional(WILD_FUEL);
    let (retired, faulted) = (f.stats().retired, matches!(end, Err(RunError::Mem(_))));
    assert!(
        faulted || end.is_ok(),
        "{ctx}: the run neither halts nor faults: {end:?}"
    );
    let mut granted = 0;
    for fuel in (1..=retired + 1).chain([WILD_FUEL]) {
        let (fr, f, fz) = functional(fuel);
        let mut nz = Granting {
            z: Zolc::new(config),
            iterates: 0,
        };
        let mut n = NestCpu::session(prog, CpuConfig::default()).unwrap();
        let nr = n.run(&mut nz, fuel);
        assert_eq!(fr, nr, "{ctx} fuel {fuel}: outcome");
        if fuel < retired {
            assert_eq!(nr, Err(RunError::OutOfFuel { fuel }), "{ctx} fuel {fuel}");
        }
        assert_eq!(f.pc(), n.pc(), "{ctx} fuel {fuel}: pc");
        assert_eq!(f.regs(), n.regs(), "{ctx} fuel {fuel}: registers");
        assert!(f.mem() == n.mem(), "{ctx} fuel {fuel}: memory");
        assert_eq!(f.stats(), n.stats(), "{ctx} fuel {fuel}: stats");
        assert_eq!(
            fz.arch_state(),
            nz.z.arch_state(),
            "{ctx} fuel {fuel}: controller"
        );
        assert!(
            nz.z.violations().is_empty() && fz.violations().is_empty(),
            "{ctx} fuel {fuel}: {:?}",
            nz.z.violations()
        );
        granted = nz.iterates;
    }
    (retired, faulted, granted)
}

/// The nest tier, run on a hand-lowered ZOLClite kernel under every
/// fuel budget up to its retire count, stops in the functional tier's
/// exact state: outcome, pc, registers, memory, statistics and the
/// controller's architectural state. Its inner loop runs as granted
/// iterates.
#[test]
fn active_nest_fuel_boundary_is_instruction_exact() {
    let config = ZolcConfig::lite();
    let built = build_vec_mac(&Target::Zolc(config)).expect("vec_mac builds");
    let (retired, faulted, granted) = active_fuel_sweep(&built.program, config, "vec_mac");
    assert!(!faulted, "vec_mac faulted instead of halting");
    assert_eq!(retired, 347);
    assert!(granted > 0, "vec_mac: no granted iterates");
}

/// One ZOLClite loop over the hand-written body `body` (its last
/// instruction the task end): index register r5 from `init` by `step`,
/// `trips` iterations; r8 holds 4 on entry, and the label `out` after
/// the loop's `halt` leads to a second `halt`.
fn one_loop(init: i32, step: i32, trips: u32, body: &[Instr], leave: Option<usize>) -> Program {
    let mut a = Asm::new();
    let start = a.new_label();
    let end = a.new_label();
    let out = a.new_label();
    let image = ZolcImage {
        loops: vec![LoopSpec {
            init,
            step,
            limit: LimitSrc::Const(trips),
            index_reg: Some(reg(5)),
            start: start.into(),
            end: end.into(),
        }],
        tasks: vec![TaskSpec {
            end: end.into(),
            loop_id: 0,
            next_iter: 0,
            next_fallthru: TASK_NONE,
        }],
        entries: vec![],
        exits: vec![],
        initial_task: 0,
    };
    a.li(reg(8), 4);
    image.emit_init(&mut a, reg(1));
    a.emit(Instr::Nop);
    a.bind(start).unwrap();
    for (k, &instr) in body.iter().enumerate() {
        if k + 1 == body.len() {
            a.bind(end).unwrap();
        }
        if leave == Some(k) {
            // `beq r3, r8, out`: taken once r3 reaches 4.
            a.branch(
                Instr::Beq {
                    rs: reg(3),
                    rt: reg(8),
                    off: 0,
                },
                out,
            );
        } else {
            a.emit(instr);
        }
    }
    a.emit(Instr::Halt);
    a.bind(out).unwrap();
    a.emit(Instr::Addi {
        rt: reg(9),
        rs: Reg::ZERO,
        imm: 1,
    });
    a.emit(Instr::Halt);
    a.finish().unwrap()
}

/// The loop shapes a granted run of iterates must get exactly right, each
/// swept over every fuel budget: the nest tier runs them as granted
/// iterates and stops where the functional tier does.
#[test]
fn granted_iterates_are_instruction_exact() {
    let mut cases: Vec<(&str, ZolcConfig, Program)> = Vec::new();
    // Four retargeted loops sharing one one-instruction body: the inner
    // loop iterates in closed form, the outer ones finish in chains.
    let deep = assemble(
        "
        li   r1, 2
  l1:   li   r2, 3
  l2:   li   r3, 2
  l3:   li   r4, 5
  l4:   addi r10, r10, 1
        addi r4, r4, -1
        bne  r4, r0, l4
        addi r3, r3, -1
        bne  r3, r0, l3
        addi r2, r2, -1
        bne  r2, r0, l2
        addi r1, r1, -1
        bne  r1, r0, l1
        halt
    ",
    )
    .unwrap();
    let config = ZolcConfig::lite();
    let r = retarget(&deep, &config).expect("the deep nest retargets");
    assert_eq!(r.image.loops.len(), 4, "all four loops in hardware");
    cases.push(("deep nest", config, (*r.program).clone()));
    // uZOLC: loop 0 only, over a straight-line body with a store.
    let flat = assemble(
        "
        lui  r6, 4
        li   r1, 7
  top:  addi r5, r5, 3
        xor  r3, r3, r5
        sw   r3, 0(r6)
        addi r6, r6, 4
        addi r1, r1, -1
        bne  r1, r0, top
        halt
    ",
    )
    .unwrap();
    assert_eq!(DATA_BASE, 4 << 16, "lui r6, 4 points at the data segment");
    let config = ZolcConfig::micro();
    let r = retarget(&flat, &config).expect("the loop retargets onto uZOLC");
    cases.push(("uZOLC loop", config, (*r.program).clone()));
    // Index register r5 read in the body, and as a load address that
    // leaves memory in the fifth iterate: once in the task end, once in
    // the body.
    let past_end = MEM_SIZE as i32 - 16;
    let add = Instr::Add {
        rd: reg(3),
        rs: reg(3),
        rt: reg(5),
    };
    let load = Instr::Lw {
        rt: reg(4),
        rs: reg(5),
        off: 0,
    };
    let lite = ZolcConfig::lite();
    cases.push((
        "index read",
        lite,
        one_loop(3, 7, 9, &[add, add, Instr::Nop], None),
    ));
    cases.push((
        "faulting task end",
        lite,
        one_loop(past_end, 4, 9, &[add, load], None),
    ));
    cases.push((
        "faulting body",
        lite,
        one_loop(past_end, 4, 9, &[load, add], None),
    ));
    // A body branch leaves the loop in its fourth iterate.
    let inc = Instr::Addi {
        rt: reg(3),
        rs: reg(3),
        imm: 1,
    };
    cases.push((
        "early leave",
        lite,
        one_loop(0, 1, 9, &[inc, inc, Instr::Nop, add], Some(1)),
    ));
    // One-instruction bodies beside the index rider: in closed form
    // when the instruction leaves the index alone, per iterate when it
    // reads it.
    cases.push(("index beside", lite, one_loop(0, 3, 9, &[inc], None)));
    cases.push(("index read alone", lite, one_loop(5, -2, 9, &[add], None)));
    for (ctx, config, program) in cases {
        let prog = CompiledProgram::compile(program);
        let (_, faulted, granted) = active_fuel_sweep(&prog, config, ctx);
        assert_eq!(faulted, ctx.starts_with("faulting"), "{ctx}: outcome");
        assert!(granted > 0, "{ctx}: no granted iterates");
    }
}

fn zwr(region: ZolcRegion, index: u8, field: u8, rs: Reg) -> Instr {
    Instr::Zwr {
        region,
        index,
        field,
        rs,
    }
}

/// Eight ZOLCfull loops start right after an entry record that
/// initializes all eight: the entry record (decision step 1) and the
/// loop-entry rule (step 3) both write every index at the entry address.
/// One rider write per loop must survive, on every tier.
#[test]
fn entry_and_loop_entry_writes_fit_the_rider() {
    let mut a = Asm::new();
    let entry = a.new_label();
    let body = a.new_label();
    a.li_addr(reg(1), body);
    a.li_addr(reg(2), entry);
    for k in 0..8u8 {
        a.emit(zwr(ZolcRegion::Loop, k, loop_field::START, reg(1)));
        a.li(reg(3), 8 + i32::from(k));
        a.emit(zwr(ZolcRegion::Loop, k, loop_field::INDEX_REG, reg(3)));
        a.li(reg(3), 100 + i32::from(k));
        a.emit(zwr(ZolcRegion::Loop, k, loop_field::INIT, reg(3)));
    }
    use zolc::isa::entry_field;
    a.emit(zwr(ZolcRegion::Entry, 0, entry_field::ADDR, reg(2)));
    a.li(reg(3), 0xff);
    a.emit(zwr(ZolcRegion::Entry, 0, entry_field::INIT_MASK, reg(3)));
    a.li(reg(3), 1);
    a.emit(zwr(ZolcRegion::Entry, 0, entry_field::VALID, reg(3)));
    a.emit(Instr::Zctl {
        op: ZolcCtl::Activate { task: TASK_NONE },
    });
    a.emit(Instr::Nop);
    a.bind(entry).unwrap();
    a.emit(Instr::Nop);
    a.bind(body).unwrap();
    a.emit(Instr::Add {
        rd: reg(20),
        rs: reg(8),
        rt: reg(15),
    });
    a.emit(Instr::Halt);
    let prog = CompiledProgram::compile(a.finish().unwrap());
    for kind in ExecutorKind::ALL {
        let mut z = Zolc::new(ZolcConfig::full());
        let f = run_session(kind, &prog, &mut z, 10_000).unwrap_or_else(|e| panic!("{kind}: {e}"));
        z.assert_consistent();
        for k in 0..8u8 {
            assert_eq!(f.cpu.regs().read(reg(8 + k)), 100 + u32::from(k), "{kind}");
        }
        assert_eq!(f.cpu.regs().read(reg(20)), 207, "{kind}");
        assert_eq!(f.stats.zolc_index_writes, 8, "{kind}");
    }
}

/// Tables a program can write but no lowering emits must neither
/// overflow nor hang the controller, on any tier: a loop count of
/// `u32::MAX` (`count + 1` wraps, so the loop iterates from count 0)
/// and two one-trip tasks ending at one pc that fall through to each
/// other (a completion chain that never ends; it is cut at twice the
/// task table).
#[test]
fn hostile_tables_neither_overflow_nor_hang() {
    use zolc::core::ZWR_LEAD;
    use zolc::isa::task_field;
    // (case, loop 0's limit, the count written to it, task 1's
    // fall-through, body runs)
    let cases = [
        ("count u32::MAX", 3, -1, i32::from(TASK_NONE), 4),
        ("cyclic chain", 1, 0, 0, 1),
    ];
    for (ctx, limit, count, back, runs) in cases {
        let mut a = Asm::new();
        let body = a.new_label();
        a.li_addr(reg(1), body);
        a.li(reg(2), limit);
        a.li(reg(3), 1);
        for k in 0..2u8 {
            a.emit(zwr(ZolcRegion::Loop, k, loop_field::START, reg(1)));
            a.emit(zwr(ZolcRegion::Loop, k, loop_field::END, reg(1)));
            a.emit(zwr(ZolcRegion::Task, k, task_field::END, reg(1)));
            a.emit(zwr(ZolcRegion::Task, k, task_field::CTL, reg(3)));
        }
        a.emit(zwr(ZolcRegion::Loop, 0, loop_field::LIMIT, reg(2)));
        a.emit(zwr(ZolcRegion::Loop, 1, loop_field::LIMIT, reg(3)));
        a.emit(zwr(ZolcRegion::Task, 0, task_field::NEXT_ITER, Reg::ZERO));
        a.emit(zwr(ZolcRegion::Task, 1, task_field::LOOP_ID, reg(3)));
        a.emit(zwr(ZolcRegion::Task, 1, task_field::NEXT_ITER, reg(3)));
        a.emit(zwr(ZolcRegion::Task, 0, task_field::NEXT_FALLTHRU, reg(3)));
        a.li(reg(4), back);
        a.emit(zwr(ZolcRegion::Task, 1, task_field::NEXT_FALLTHRU, reg(4)));
        a.li(reg(4), count);
        a.emit(zwr(ZolcRegion::Loop, 0, loop_field::COUNT, reg(4)));
        a.emit(Instr::Zctl {
            op: ZolcCtl::Activate { task: 0 },
        });
        // the activation retires before the task end is fetched
        for _ in 0..ZWR_LEAD {
            a.emit(Instr::Nop);
        }
        a.bind(body).unwrap();
        a.emit(Instr::Addi {
            rt: reg(10),
            rs: reg(10),
            imm: 1,
        });
        a.emit(Instr::Halt);
        let prog = CompiledProgram::compile(a.finish().unwrap());
        for kind in ExecutorKind::ALL {
            let mut z = Zolc::new(ZolcConfig::lite());
            let f = run_session(kind, &prog, &mut z, WILD_FUEL)
                .unwrap_or_else(|e| panic!("{ctx} on {kind}: {e}"));
            assert_eq!(f.cpu.regs().read(reg(10)), runs, "{ctx} on {kind}");
            assert!(
                z.violations().is_empty(),
                "{ctx} on {kind}: {:?}",
                z.violations()
            );
        }
    }
}

/// Fuel of one wild run: generated programs retire a few thousand
/// instructions; mutations that loop forever stop here.
const WILD_FUEL: u64 = 20_000;

/// The controller's hook footprint right after a program activates it,
/// found by single-stepping the functional tier (`None` if it never
/// activates).
fn active_footprint(prog: &Arc<CompiledProgram>, config: ZolcConfig) -> Option<(u32, Vec<u32>)> {
    let mut z = Zolc::new(config);
    let mut cpu = FunctionalCpu::session(prog, CpuConfig::default()).unwrap();
    while !z.arch_state().active {
        if cpu.stats().retired >= WILD_FUEL
            || !matches!(cpu.run(&mut z, 1), Err(RunError::OutOfFuel { .. }))
        {
            return None;
        }
    }
    Some((
        cpu.pc(),
        z.hook_pcs()
            .expect("the controller names its footprint")
            .to_vec(),
    ))
}

/// Replaces a few instructions of `program` after `from` (the text
/// length, and with it every table address, stays put) with wild ones:
/// loads and stores through arbitrary bases (often faulting or
/// misaligned), forward and backward branches, `jr`, and `li; zwr` pairs
/// rewriting a loop's limit. Footprint pcs and `zwr`/`zctl` are left
/// alone, and a `zwr` only goes where the next two instructions are
/// neither footprint pcs nor control transfers — the scheduling rule
/// in-loop limit writes obey, so the pipeline's fetch-time decisions
/// never see a stale limit.
fn mutate(program: &Program, from: u32, footprint: &[u32], loops: u8, rng: &mut GenRng) -> Program {
    let mut text = program.text().to_vec();
    let n = text.len() as u32;
    let pc_of = |i: u32| TEXT_BASE + 4 * i;
    let first = (from - TEXT_BASE) / 4;
    if first >= n {
        return program.clone();
    }
    let hooked = |i: u32| footprint.contains(&pc_of(i));
    let fixed = |i: u32, text: &[Instr]| {
        i >= n || hooked(i) || matches!(text[i as usize], Instr::Zwr { .. } | Instr::Zctl { .. })
    };
    let any_reg = |rng: &mut GenRng| reg(rng.below(32) as u8);
    for _ in 0..1 + rng.below(4) {
        let i = first + rng.below(n - first);
        if fixed(i, &text) {
            continue;
        }
        text[i as usize] = match rng.below(6) {
            0 => Instr::Lw {
                rt: reg(2 + rng.below(8) as u8),
                rs: any_reg(rng),
                off: rng.below(64) as i16 - 32,
            },
            1 => Instr::Sw {
                rt: any_reg(rng),
                rs: reg(1 + rng.below(9) as u8),
                off: rng.below(64) as i16 - 32,
            },
            2 => Instr::Sh {
                rt: any_reg(rng),
                rs: any_reg(rng),
                off: rng.below(8) as i16,
            },
            3 => Instr::Bne {
                rs: any_reg(rng),
                rt: Reg::ZERO,
                off: rng.below(16) as i16 - 8,
            },
            4 => Instr::Jr { rs: any_reg(rng) },
            _ => {
                // `li r9, v; zwr loop, k, LIMIT, r9` at i-1, i.
                let quiet =
                    |j: u32, text: &[Instr]| !fixed(j, text) && !text[j as usize].is_control_flow();
                if i == first || fixed(i - 1, &text) || !quiet(i + 1, &text) || !quiet(i + 2, &text)
                {
                    continue;
                }
                text[i as usize - 1] = Instr::Addi {
                    rt: reg(9),
                    rs: Reg::ZERO,
                    imm: rng.below(6) as i16,
                };
                zwr(
                    ZolcRegion::Loop,
                    rng.below(u32::from(loops)) as u8,
                    loop_field::LIMIT,
                    reg(9),
                )
            }
        };
    }
    Program::from_parts(text, program.data().to_vec())
}

/// The controller with its footprint hidden: executors call every hook
/// at every pc, the schedule the footprint optimizes away.
struct EveryPc(Zolc);

impl LoopEngine for EveryPc {
    fn on_fetch(&mut self, pc: u32) -> FetchDecision {
        self.0.on_fetch(pc)
    }

    fn on_execute(&mut self, pc: u32, event: ExecEvent) {
        self.0.on_execute(pc, event);
    }

    fn exec_zwr(&mut self, region: ZolcRegion, index: u8, field: u8, value: u32) {
        self.0.exec_zwr(region, index, field, value);
    }

    fn exec_zctl(&mut self, op: ZolcCtl) {
        self.0.exec_zctl(op);
    }

    fn on_flush(&mut self) {
        self.0.on_flush();
    }
}

/// `stats` with the counters that only the pipeline's timing model
/// produces (or counts speculatively, like fetch-time redirects) zeroed.
fn architectural(stats: Stats) -> Stats {
    Stats {
        cycles: 0,
        load_use_stalls: 0,
        flushes: 0,
        flush_cycles: 0,
        zolc_redirects: 0,
        ..stats
    }
}

/// The active-controller wild differential. Retargeted `zolc-gen`
/// programs with mutated bodies run on all three tiers under fuel.
///
/// * The two functional tiers (same hook schedule) must agree on
///   everything: outcome variant and pc, registers, memory, every
///   `Stats` counter and the controller's violations — and so must a
///   functional run that calls every hook at every pc, which is what
///   makes a footprint that misses a pc where the controller acts fail
///   here rather than on all tiers alike.
/// * The pipeline must agree with them on the outcome variant and pc,
///   and — on runs that halt or hit a data fault — on registers, memory,
///   every architectural counter and the violations. Runs that exhaust
///   their fuel are compared on outcome and registers only: the pipeline
///   has already executed (counted, stored and shown to the controller)
///   the instructions in flight past the retire budget. On a fetch
///   fault the pipeline raises the fault from EX, and the instruction
///   ahead may still be in MEM (the "Stops" contract in
///   `crates/sim/src/pipeline.rs`): it must have retired the functional
///   tier's count or one fewer, with the registers of a functional run
///   given exactly its count as fuel.
#[test]
fn active_controller_wild_differential() {
    let configs = [ZolcConfig::micro(), ZolcConfig::lite(), ZolcConfig::full()];
    let gen = GenConfig::default();
    let (mut runs, mut stopped, mut fetch_faults) = (0, 0, 0);
    for seed in 0..40u64 {
        let spec = ProgramSpec::generate(0x5eed_0000 + seed, &gen);
        let base = spec
            .assemble()
            .expect("generated program assembles")
            .program;
        for config in configs {
            let Ok(r) = retarget(&base, &config) else {
                continue;
            };
            let clean = CompiledProgram::compile(Arc::clone(&r.program));
            let Some((from, footprint)) = active_footprint(&clean, config) else {
                continue;
            };
            let mut rng = GenRng::new(seed ^ 0xa11);
            for variant in 0..3 {
                let program = mutate(&r.program, from, &footprint, config.loops() as u8, &mut rng);
                let prog = CompiledProgram::compile(program);
                let ctx = format!("seed {seed} {config} variant {variant}");
                let mut outs = Vec::new();
                for kind in ExecutorKind::ALL {
                    let mut z = Zolc::new(config);
                    let mut cpu = kind.new_session(&prog, CpuConfig::default()).unwrap();
                    let out = cpu.run(&mut z, WILD_FUEL);
                    outs.push((kind, out, cpu, z));
                }
                let (_, pr, p, pz) = &outs[0];
                let (_, fr, f, fz) = &outs[1];
                let (_, nr, n, nz) = &outs[2];
                runs += 1;
                let mut every = EveryPc(Zolc::new(config));
                let mut r = FunctionalCpu::session(&prog, CpuConfig::default()).unwrap();
                let rr = r.run(&mut every, WILD_FUEL);
                assert_eq!(&rr, fr, "{ctx}: every-pc vs footprint outcome");
                assert_eq!(r.regs(), f.regs(), "{ctx}: every-pc vs footprint registers");
                assert!(r.mem() == f.mem(), "{ctx}: every-pc vs footprint memory");
                assert_eq!(r.stats(), f.stats(), "{ctx}: every-pc vs footprint stats");
                assert_eq!(
                    every.0.arch_state(),
                    fz.arch_state(),
                    "{ctx}: every-pc controller"
                );
                assert_eq!(
                    every.0.violations(),
                    fz.violations(),
                    "{ctx}: every-pc violations"
                );
                assert_eq!(fr, nr, "{ctx}: functional vs nest outcome");
                assert_eq!(f.regs(), n.regs(), "{ctx}: functional vs nest registers");
                assert!(f.mem() == n.mem(), "{ctx}: functional vs nest memory");
                assert_eq!(f.stats(), n.stats(), "{ctx}: functional vs nest stats");
                assert_eq!(
                    fz.violations(),
                    nz.violations(),
                    "{ctx}: functional vs nest violations"
                );
                assert_eq!(
                    pr.as_ref().map(|_| ()),
                    fr.as_ref().map(|_| ()),
                    "{ctx}: pipeline vs functional outcome"
                );
                match fr {
                    Err(RunError::PcOutOfText { .. } | RunError::MisalignedFetch { .. }) => {
                        let retired = p.stats().retired;
                        assert!(
                            retired == f.stats().retired || retired + 1 == f.stats().retired,
                            "{ctx}: pipeline retired {retired}, functional {}",
                            f.stats().retired
                        );
                        let mut again =
                            FunctionalCpu::session(&prog, CpuConfig::default()).unwrap();
                        let _ = again.run(&mut Zolc::new(config), retired);
                        assert_eq!(again.stats().retired, retired, "{ctx}: functional re-run");
                        assert_eq!(
                            p.regs(),
                            again.regs(),
                            "{ctx}: pipeline vs functional registers after {retired} instructions"
                        );
                        fetch_faults += 1;
                        continue;
                    }
                    Err(RunError::OutOfFuel { .. }) => {
                        assert_eq!(
                            p.regs(),
                            f.regs(),
                            "{ctx}: pipeline vs functional registers"
                        );
                        continue;
                    }
                    _ => stopped += 1,
                }
                assert_eq!(
                    p.regs(),
                    f.regs(),
                    "{ctx}: pipeline vs functional registers"
                );
                assert!(p.mem() == f.mem(), "{ctx}: pipeline vs functional memory");
                assert_eq!(
                    architectural(*p.stats()),
                    architectural(*f.stats()),
                    "{ctx}: pipeline vs functional counters"
                );
                assert_eq!(
                    pz.violations(),
                    fz.violations(),
                    "{ctx}: pipeline vs functional violations"
                );
            }
        }
    }
    // The net must actually cover runs that end both ways, and fetch
    // faults.
    eprintln!("{runs} runs: {stopped} halted or hit a data fault, {fetch_faults} fetch faults");
    assert!(runs >= 150, "only {runs} runs");
    assert!(fetch_faults >= 4, "only {fetch_faults} fetch faults");
    assert!(
        stopped * 2 >= runs,
        "only {stopped} of {runs} runs halted or hit a data fault"
    );
}
