//! Nets for running an **active** ZOLC controller on every tier.
//!
//! The executors call the controller's hooks only at its hook footprint
//! (`LoopEngine::hook_pcs`), and the nest tier runs everything between
//! footprint pcs in superblocks. These tests hold that path exact:
//!
//! * a fuel sweep over a hand-lowered ZOLClite kernel: at every budget
//!   the nest tier stops in the functional tier's exact state, controller
//!   included;
//! * a regression for the rider capacity: a table set whose entry record
//!   and loop-entry rule write all eight indices in one decision;
//! * the active-controller wild differential: retargeted `zolc-gen`
//!   programs with mutated bodies (loads and stores that may fault or be
//!   misaligned, branches, `jr`, in-loop `zwr` to limit fields) run on
//!   all three tiers under fuel, and must agree.

use std::sync::Arc;
use zolc::cfg::retarget;
use zolc::core::{Zolc, ZolcConfig, TASK_NONE};
use zolc::gen::{GenConfig, GenRng, ProgramSpec};
use zolc::ir::Target;
use zolc::isa::{loop_field, reg, Asm, Instr, Program, Reg, ZolcCtl, ZolcRegion, TEXT_BASE};
use zolc::kernels::build_vec_mac;
use zolc::sim::{
    run_session, CompiledProgram, CpuConfig, ExecEvent, ExecutorKind, FetchDecision, FunctionalCpu,
    LoopEngine, NestCpu, RunError, Stats,
};

/// The nest tier, run on a hand-lowered ZOLClite kernel under every
/// fuel budget up to its retire count, stops in the functional tier's
/// exact state: outcome, pc, registers, memory, statistics and the
/// controller's architectural state.
#[test]
fn active_nest_fuel_boundary_is_instruction_exact() {
    let config = ZolcConfig::lite();
    let built = build_vec_mac(&Target::Zolc(config)).expect("vec_mac builds");
    let prog = &built.program;
    let functional = |fuel| {
        let mut z = Zolc::new(config);
        let mut cpu = FunctionalCpu::session(prog, CpuConfig::default()).unwrap();
        let r = cpu.run(&mut z, fuel);
        (r, cpu, z)
    };
    let retired = functional(u64::MAX).0.expect("vec_mac halts").retired;
    assert_eq!(retired, 347);
    for fuel in 1..=retired {
        let (fr, f, fz) = functional(fuel);
        let mut nz = Zolc::new(config);
        let mut n = NestCpu::session(prog, CpuConfig::default()).unwrap();
        let nr = n.run(&mut nz, fuel);
        assert_eq!(fr, nr, "fuel {fuel}: outcome");
        if fuel < retired {
            assert_eq!(nr, Err(RunError::OutOfFuel { fuel }));
        }
        assert_eq!(f.pc(), n.pc(), "fuel {fuel}: pc");
        assert_eq!(f.regs(), n.regs(), "fuel {fuel}: registers");
        assert!(f.mem() == n.mem(), "fuel {fuel}: memory");
        assert_eq!(f.stats(), n.stats(), "fuel {fuel}: stats");
        assert_eq!(fz.arch_state(), nz.arch_state(), "fuel {fuel}: controller");
        assert!(
            nz.violations().is_empty(),
            "fuel {fuel}: {:?}",
            nz.violations()
        );
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
///   the instructions in flight past the retire budget. Runs that end in
///   a fetch fault are compared on the outcome only: the pipeline raises
///   it from EX while the instruction ahead is still in MEM.
#[test]
fn active_controller_wild_differential() {
    let configs = [ZolcConfig::micro(), ZolcConfig::lite(), ZolcConfig::full()];
    let gen = GenConfig::default();
    let (mut runs, mut stopped) = (0, 0);
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
    // The net must actually cover runs that end both ways.
    assert!(runs >= 150, "only {runs} runs");
    assert!(
        stopped * 2 >= runs,
        "only {stopped} of {runs} runs halted or hit a data fault"
    );
}
