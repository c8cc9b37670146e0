use crate::cpu::{CpuConfig, RunError};
use crate::engine::NullEngine;
use crate::nest::tests::{assert_lowers_like_step, assert_matches_functional, nest_session};
use crate::nest::{lower, NOp};
use crate::{CompiledProgram, NestCpu};
use zolc_isa::{assemble, reg, Reg};

#[test]
fn countdown_loop_matches_functional() {
    let p = assemble(
        "
            li   r1, 10
            li   r2, 0
      top:  add  r2, r2, r1
            addi r1, r1, -1
            bne  r1, r0, top
            halt
        ",
    )
    .unwrap();
    assert_matches_functional(&p, 1_000_000);
    let mut cpu = nest_session(&p);
    let stats = cpu.run(&mut NullEngine, 1_000_000).unwrap();
    assert_eq!(cpu.regs().read(reg(2)), (1..=10).sum::<u32>());
    assert_eq!(stats.cycles, 0);
    assert_eq!(stats.retired, 2 + 3 * 10 + 1);
    assert_eq!(stats.taken_branches, 9);
    assert_eq!(stats.branches, 10);
}

#[test]
fn dbnz_jumps_and_calls_take_the_fallback() {
    let p = assemble(
        "
            li   r1, 4
            jal  sub
      top:  addi r2, r2, 1
            dbnz r1, top
            halt
      sub:  addi r5, r0, 9
            jr   r31
        ",
    )
    .unwrap();
    // `dbnz` defers to the step core; `jal` precomputes its link.
    assert!(lower(p.text()[3], 12).is_none());
    assert!(matches!(
        lower(p.text()[1], 4),
        Some(NOp::Jl {
            dst: Reg::RA,
            value: 8,
            target: 20,
        })
    ));
    assert_matches_functional(&p, 1_000_000);
    let mut cpu = nest_session(&p);
    let stats = cpu.run(&mut NullEngine, 1_000_000).unwrap();
    assert_eq!(cpu.regs().read(reg(2)), 4);
    assert_eq!(cpu.regs().read(reg(5)), 9);
    assert_eq!(stats.dbnz_retired, 4);
}

#[test]
fn mid_block_fault_commits_the_prefix() {
    // The store to a misaligned data address faults with the two
    // earlier ALU results already committed and the pc parked on the
    // faulting instruction.
    let p = assemble(
        "
            li   r1, 2
            li   r2, 77
            sw   r2, (r1)
            halt
        ",
    )
    .unwrap();
    assert_matches_functional(&p, 1000);
    let mut n = nest_session(&p);
    assert!(matches!(
        n.run(&mut NullEngine, 1000),
        Err(RunError::Mem(_))
    ));
    assert_eq!(n.regs().read(reg(2)), 77);
    assert_eq!(n.stats().retired, 2);
}

#[test]
fn fuel_boundary_matches_functional_exactly() {
    let p = assemble(
        "
            li   r1, 3
      top:  addi r2, r2, 1
            dbnz r1, top
            halt
        ",
    )
    .unwrap();
    // full run retires 1 + 2*3 + 1 = 8 instructions
    for fuel in 0..=9 {
        assert_matches_functional(&p, fuel);
    }
}

#[test]
fn fetch_faults_match_functional() {
    for src in ["nop\nnop\n", "li r1, 6\njr r1\nhalt"] {
        let p = assemble(src).unwrap();
        assert_matches_functional(&p, 1000);
    }
    let p = assemble("li r1, 6\njr r1\nhalt").unwrap();
    let mut n = nest_session(&p);
    let err = n.run(&mut NullEngine, 1000).unwrap_err();
    assert_eq!(err, RunError::MisalignedFetch { pc: 6 });
}

#[test]
fn trace_retire_falls_back_to_the_step_core() {
    let p = assemble("nop\nnop\nhalt").unwrap();
    assert_lowers_like_step(&p);
    let prog = CompiledProgram::compile(p);
    let mut cpu = NestCpu::session(&prog, CpuConfig { trace_retire: true }).unwrap();
    cpu.run(&mut NullEngine, 100).unwrap();
    let ords: Vec<u64> = cpu.retire_log().iter().map(|e| e.cycle).collect();
    assert_eq!(ords, vec![1, 2, 3]);
    // Traced runs never compile a superblock.
    assert_eq!(prog.nest_cache_stats().misses, 0);
}

#[test]
fn blocks_are_reused_across_iterations() {
    // A long-running loop lowers its body exactly once: the shared
    // cache registers a bounded number of misses and no
    // per-iteration recompilation.
    let p = assemble(
        "
            li   r1, 1000
      top:  addi r2, r2, 3
            addi r1, r1, -1
            bne  r1, r0, top
            halt
        ",
    )
    .unwrap();
    assert_lowers_like_step(&p);
    let prog = CompiledProgram::compile(p);
    let mut n = NestCpu::session(&prog, CpuConfig::default()).unwrap();
    n.run(&mut NullEngine, 1_000_000).unwrap();
    assert_eq!(n.regs().read(reg(2)), 3000);
    let stats = prog.nest_cache_stats();
    assert!(stats.misses >= 1, "the entry region is compiled");
    assert!(stats.misses <= 2, "no per-iteration recompilation");
    assert_eq!(stats.resident as u64, stats.misses, "nothing dropped");
    // A second session over the same program compiles nothing new.
    let mut n2 = NestCpu::session(&prog, CpuConfig::default()).unwrap();
    n2.run(&mut NullEngine, 1_000_000).unwrap();
    assert_eq!(n2.regs().read(reg(2)), 3000);
    assert_eq!(prog.nest_cache_stats().misses, stats.misses);
    assert!(prog.nest_cache_stats().hits > stats.hits, "reused");
}
