//! A test-only timing oracle for the cycle-accurate pipeline.
//!
//! On a run that halts, the pipeline's timing is a local function of the
//! retire stream, which the functional tier produces without modelling
//! any pipeline state:
//!
//! ```text
//! cycles = retired + 4 + L + 2·(T + jr + zctl) + (j + jal + D)
//! ```
//!
//! * `4`: the fill of the five-stage pipe;
//! * `L`: load-use pairs — a load whose destination is a source of the
//!   next retired instruction (one interlock bubble);
//! * `T`: taken conditional branches other than `dbnz`, resolved in EX
//!   (two squashed slots); `jr` and `zctl` flush from EX the same way;
//! * `j`, `jal` and taken `dbnz` (`D`) resolve in ID (one bubble);
//! * "taken" means the next retired pc is the branch target, so ZOLC
//!   fetch redirects cost nothing.
//!
//! The pipeline advances latch by latch and never consults this rule,
//! so agreement here is two independent implementations of one timing
//! model agreeing. The rule is checked on the Fig. 2 kernels, the
//! `zolc-lang` corpus and default-shape `zolc-gen` programs, each as a
//! baseline and retargeted onto uZOLC, ZOLClite and ZOLCfull. Besides
//! `cycles`, the terms also pin `load_use_stalls`, `flushes` and
//! `flush_cycles` separately.

use std::sync::Arc;
use zolc::cfg::retarget;
use zolc::core::{Zolc, ZolcConfig};
use zolc::gen::{GenConfig, ProgramSpec};
use zolc::ir::Target;
use zolc::isa::{Instr, Program};
use zolc::kernels::{fig2_targets, kernels};
use zolc::sim::{
    CompiledProgram, Cpu, CpuConfig, FunctionalCpu, LoopEngine, NullEngine, RetireEvent, Stats,
};

const FUEL: u64 = 10_000_000;

/// Default-shape generated programs checked (each on four builds).
const GEN_PROGRAMS: u64 = 320;

/// The timing counters the rule predicts.
#[derive(Debug, PartialEq, Eq)]
struct Timing {
    cycles: u64,
    load_use_stalls: u64,
    flushes: u64,
    flush_cycles: u64,
}

impl From<&Stats> for Timing {
    fn from(s: &Stats) -> Timing {
        Timing {
            cycles: s.cycles,
            load_use_stalls: s.load_use_stalls,
            flushes: s.flushes,
            flush_cycles: s.flush_cycles,
        }
    }
}

/// The rule, applied to a halted run's retire trace.
fn predict(log: &[RetireEvent]) -> Timing {
    let (mut load_use, mut ex_flushes, mut id_flushes) = (0, 0, 0);
    for (k, e) in log.iter().enumerate() {
        let next = log.get(k + 1);
        if e.instr.is_load() {
            if let (Some((dst, _)), Some(n)) = (e.dst, next) {
                if n.instr.srcs().contains(&Some(dst)) {
                    load_use += 1;
                }
            }
        }
        let taken = next.is_some_and(|n| e.instr.branch_target(e.pc) == Some(n.pc));
        match e.instr {
            Instr::Dbnz { .. } => id_flushes += u64::from(taken),
            i if i.is_cond_branch() => ex_flushes += u64::from(taken),
            Instr::Jr { .. } | Instr::Zctl { .. } => ex_flushes += 1,
            Instr::J { .. } | Instr::Jal { .. } => id_flushes += 1,
            _ => {}
        }
    }
    let flush_cycles = 2 * ex_flushes + id_flushes;
    Timing {
        cycles: log.len() as u64 + 4 + load_use + flush_cycles,
        load_use_stalls: load_use,
        flushes: ex_flushes + id_flushes,
        flush_cycles,
    }
}

/// A fresh engine for a build: the controller for ZOLC builds.
fn engine(config: Option<ZolcConfig>) -> Box<dyn LoopEngine> {
    match config {
        Some(c) => Box::new(Zolc::new(c)),
        None => Box::new(NullEngine),
    }
}

/// Runs `prog` on the functional tier (traced) and on the pipeline.
/// Returns `false` when the functional run does not halt (fuel or a
/// fault), where the rule says nothing; otherwise asserts the pipeline
/// halts too, after the same instructions, in the predicted timing.
fn check(ctx: &str, prog: &Arc<CompiledProgram>, config: Option<ZolcConfig>) -> bool {
    let mut f = FunctionalCpu::session(prog, CpuConfig { trace_retire: true }).expect("loads");
    let Ok(fs) = f.run(engine(config).as_mut(), FUEL) else {
        return false;
    };
    let mut p = Cpu::session(prog, CpuConfig::default()).expect("loads");
    let ps = p
        .run(engine(config).as_mut(), FUEL)
        .unwrap_or_else(|e| panic!("{ctx}: functional tier halts, pipeline {e}"));
    assert_eq!(ps.retired, fs.retired, "{ctx}: retired");
    assert_eq!(Timing::from(&ps), predict(f.retire_log()), "{ctx}: timing");
    true
}

fn config_of(target: &Target) -> Option<ZolcConfig> {
    match target {
        Target::Zolc(c) => Some(*c),
        _ => None,
    }
}

/// Checks `base` and its retargets onto the three ZOLC configurations;
/// returns how many of the four builds halted (and so were checked).
fn check_retargets(ctx: &str, base: &Program) -> usize {
    let mut halted = usize::from(check(
        &format!("{ctx}/base"),
        &CompiledProgram::compile(base.clone()),
        None,
    ));
    for (label, config) in [
        ("uZOLC", ZolcConfig::micro()),
        ("ZOLClite", ZolcConfig::lite()),
        ("ZOLCfull", ZolcConfig::full()),
    ] {
        let r = retarget(base, &config).unwrap_or_else(|e| panic!("{ctx}/{label}: {e}"));
        let prog = CompiledProgram::compile(Arc::clone(&r.program));
        halted += usize::from(check(&format!("{ctx}/{label}"), &prog, Some(config)));
    }
    halted
}

#[test]
fn timing_rule_matches_the_pipeline_on_kernels_and_corpus() {
    for k in kernels() {
        for target in fig2_targets() {
            let built = (k.build)(&target).expect("kernel builds");
            let ctx = format!("{}/{target}", k.name);
            assert!(
                check(&ctx, &built.program, config_of(&target)),
                "{ctx} halts"
            );
        }
        let base = (k.build)(&Target::Baseline).expect("kernel builds");
        assert_eq!(check_retargets(k.name, base.program.source()), 4);
    }
    for e in zolc::lang::corpus() {
        let unit = zolc::lang::compile(e.name, e.source).expect("corpus compiles");
        for target in fig2_targets() {
            let built = unit.build(&target).expect("corpus program builds");
            let ctx = format!("lang.{}/{target}", e.name);
            assert!(
                check(&ctx, &built.program, config_of(&target)),
                "{ctx} halts"
            );
        }
    }
}

#[test]
fn timing_rule_matches_the_pipeline_on_generated_programs() {
    let cfg = GenConfig::default();
    let mut halted = 0;
    for seed in 1..=GEN_PROGRAMS {
        let spec = ProgramSpec::generate(seed, &cfg);
        let asm = spec.assemble().expect("generated spec assembles");
        halted += check_retargets(&format!("seed {seed}"), &asm.program);
    }
    // Default-shape programs are counted loops that always terminate.
    assert_eq!(halted as u64, 4 * GEN_PROGRAMS);
}
