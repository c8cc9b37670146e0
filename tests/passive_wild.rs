//! The passive wild-binary differential: hostile texts (arbitrary
//! branches, jumps, `jal`/`jr`, faulting and misaligned accesses, random
//! decoded words; the generator is `tests/common/hostile.rs`) run under
//! fuel with no loop controller on all three executor tiers.
//!
//! * The nest tier must stop in the functional tier's exact state on
//!   every run: outcome, pc, registers, memory and statistics.
//! * The pipeline must give the same outcome. On fuel exhaustion its
//!   registers must match too; on a halt or a data fault, its whole
//!   architectural state (registers, memory, retire-side counters). On
//!   a fetch fault it raises the fault from EX, and the instruction
//!   ahead may still be in MEM (the "Stops" contract in
//!   `crates/sim/src/pipeline.rs`). So it must have retired the
//!   functional tier's count or one fewer, and its registers must be
//!   those of a functional run given exactly its count as fuel.

mod common;

use common::hostile::hostile_text;
use std::sync::Arc;
use zolc::gen::GenRng;
use zolc::isa::Program;
use zolc::sim::{
    CompiledProgram, Cpu, CpuConfig, FunctionalCpu, NestCpu, NullEngine, RunError, Stats,
};

/// Random texts per run (about 2 s in a debug build).
const PROGRAMS: u64 = 6000;

/// Fuel of one run: texts that loop forever stop here.
const FUEL: u64 = 2_000;

/// `stats` with the counters only the pipeline's timing model produces
/// zeroed.
fn architectural(stats: Stats) -> Stats {
    Stats {
        cycles: 0,
        load_use_stalls: 0,
        flushes: 0,
        flush_cycles: 0,
        ..stats
    }
}

/// Checks a fetch fault on the pipeline: it retired the functional
/// tier's count or one fewer, and its registers are those of a
/// functional run given exactly that count as fuel. Returns the lag.
fn fetch_fault_lag(prog: &Arc<CompiledProgram>, p: &Cpu, f: &FunctionalCpu, ctx: &str) -> usize {
    let retired = p.stats().retired;
    assert!(
        retired == f.stats().retired || retired + 1 == f.stats().retired,
        "{ctx}: pipeline retired {retired}, functional {}",
        f.stats().retired
    );
    let mut again = FunctionalCpu::session(prog, CpuConfig::default()).unwrap();
    let _ = again.run(&mut NullEngine, retired);
    assert_eq!(again.stats().retired, retired, "{ctx}: functional re-run");
    assert_eq!(
        p.regs(),
        again.regs(),
        "{ctx}: pipeline vs functional registers after {retired} instructions"
    );
    (f.stats().retired - retired) as usize
}

#[test]
fn passive_wild_differential() {
    // halts, data faults, fetch faults, fuel exhaustion
    let mut ends = [0u32; 4];
    // fetch faults where the pipeline retired as many instructions as
    // the functional tier, and one fewer
    let mut lags = [0u32; 2];
    for seed in 0..PROGRAMS {
        let mut rng = GenRng::new(0x9a55_17e0 ^ seed);
        let text = hostile_text(&mut rng);
        let prog = CompiledProgram::compile(Program::from_parts(text, Vec::new()));
        let ctx = format!("seed {seed}: {:?}", prog.source().text());

        let mut f = FunctionalCpu::session(&prog, CpuConfig::default()).unwrap();
        let fr = f.run(&mut NullEngine, FUEL);
        let mut n = NestCpu::session(&prog, CpuConfig::default()).unwrap();
        let nr = n.run(&mut NullEngine, FUEL);
        assert_eq!(fr, nr, "{ctx}: functional vs nest outcome");
        assert_eq!(f.pc(), n.pc(), "{ctx}: functional vs nest pc");
        assert_eq!(f.regs(), n.regs(), "{ctx}: functional vs nest registers");
        assert!(f.mem() == n.mem(), "{ctx}: functional vs nest memory");
        assert_eq!(f.stats(), n.stats(), "{ctx}: functional vs nest stats");

        let mut p = Cpu::session(&prog, CpuConfig::default()).unwrap();
        let pr = p.run(&mut NullEngine, FUEL);
        assert_eq!(
            pr.as_ref().map(|_| ()),
            fr.as_ref().map(|_| ()),
            "{ctx}: pipeline vs functional outcome"
        );
        match fr {
            Err(RunError::PcOutOfText { .. } | RunError::MisalignedFetch { .. }) => {
                ends[2] += 1;
                lags[fetch_fault_lag(&prog, &p, &f, &ctx)] += 1;
                continue;
            }
            Err(RunError::OutOfFuel { .. }) => {
                ends[3] += 1;
                assert_eq!(
                    p.regs(),
                    f.regs(),
                    "{ctx}: pipeline vs functional registers"
                );
                continue;
            }
            Ok(_) => ends[0] += 1,
            Err(e) => {
                assert!(matches!(e, RunError::Mem(_)), "{ctx}: {e}");
                ends[1] += 1;
            }
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
    }
    eprintln!("halts, data faults, fetch faults, fuel: {ends:?}; fetch-fault lags 0, 1: {lags:?}");
    // The net must cover runs that end each way, and fetch faults with
    // and without the lag.
    let each = PROGRAMS as u32 / 50;
    assert!(
        ends.iter().all(|&k| k >= each),
        "halts, data faults, fetch faults, fuel: {ends:?}"
    );
    assert!(
        lags.iter().all(|&k| k >= each / 4),
        "fetch-fault lags 0, 1: {lags:?}"
    );
}
