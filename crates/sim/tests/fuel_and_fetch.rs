//! Regression tests for the two unified cross-executor semantics:
//!
//! * **Fetch faults** — a non-4-aligned pc is an explicit
//!   [`RunError::MisalignedFetch`] on every executor (never silently
//!   truncated to the containing instruction), distinct from the
//!   out-of-text fault.
//! * **Fuel** — the budget passed to [`Executor::run`] counts retired
//!   instructions identically on every executor, so
//!   [`RunError::OutOfFuel`] fires at exactly the same instruction on
//!   the pipeline, the functional interpreter and the loop-nest
//!   superblock executor.

use zolc_isa::assemble;
use zolc_sim::{run_session, CompiledProgram, ExecutorKind, NullEngine, RunError};

/// `jr` to a misaligned address faults with the misaligned pc reported
/// as-is on every executor tier.
#[test]
fn misaligned_fetch_is_an_explicit_fault_on_all_executors() {
    let p = assemble("li r1, 6\njr r1\nhalt").unwrap();
    let prog = CompiledProgram::compile(p);
    for kind in ExecutorKind::ALL {
        let r = run_session(kind, &prog, &mut NullEngine, 10_000).map(|f| f.stats);
        assert!(
            matches!(r, Err(RunError::MisalignedFetch { pc: 6 })),
            "{kind}: expected MisalignedFetch at 6, got {r:?}"
        );
    }
}

/// A misaligned pc *inside* the text segment must not execute the
/// containing instruction: the target below lands mid-way into the
/// `addi r2` instruction, so r2 must remain untouched.
#[test]
fn misaligned_fetch_does_not_truncate_to_containing_instruction() {
    let p = assemble(
        "
        li   r1, 10
        jr   r1          # lands 2 bytes into the addi below
        addi r2, r2, 99
        halt
    ",
    )
    .unwrap();
    let prog = CompiledProgram::compile(p);
    for kind in ExecutorKind::ALL {
        let mut cpu = kind
            .new_session(&prog, zolc_sim::CpuConfig::default())
            .unwrap();
        let r = cpu.run(&mut NullEngine, 10_000);
        assert!(
            matches!(r, Err(RunError::MisalignedFetch { pc: 10 })),
            "{kind}: got {r:?}"
        );
        assert_eq!(
            cpu.regs().read(zolc_isa::reg(2)),
            0,
            "{kind}: the containing instruction must not execute"
        );
    }
}

/// Aligned-but-outside stays the distinct out-of-text fault.
#[test]
fn out_of_text_fault_stays_distinct() {
    let p = assemble("nop\nnop\n").unwrap();
    let prog = CompiledProgram::compile(p);
    for kind in ExecutorKind::ALL {
        let r = run_session(kind, &prog, &mut NullEngine, 10_000).map(|f| f.stats);
        assert!(
            matches!(r, Err(RunError::PcOutOfText { pc: 8 })),
            "{kind}: expected PcOutOfText at 8, got {r:?}"
        );
    }
}

/// Wrong-path misaligned/overrun fetches remain speculative on the
/// pipeline: the taken branch squashes the fault slot and the program
/// completes (pinning that the explicit fault is retire-gated).
#[test]
fn wrong_path_overrun_still_squashed_on_pipeline() {
    let p = assemble(
        "
        li   r1, 3
        j    body
  done: halt
  body: addi r1, r1, -1
        beq  r1, r0, done
        b    body
    ",
    )
    .unwrap();
    let f = run_session(
        ExecutorKind::CycleAccurate,
        &CompiledProgram::compile(p),
        &mut NullEngine,
        10_000,
    )
    .unwrap();
    assert_eq!(f.cpu.regs().read(zolc_isa::reg(1)), 0);
}

/// The fuel boundary is pinned instruction-exact across all executors:
/// with fuel equal to the program's retire count the run completes; one
/// unit less and every executor reports `OutOfFuel` — and the
/// architectural state at the timeout (registers retired so far) is
/// identical across backends.
#[test]
fn fuel_boundary_is_identical_on_all_executors() {
    // retires: li, then 3 × (addi, dbnz), halt = 1 + 6 + 1 = 8
    let p = assemble(
        "
        li   r1, 3
  top:  addi r2, r2, 1
        dbnz r1, top
        halt
    ",
    )
    .unwrap();
    let prog = CompiledProgram::compile(p);
    let full = run_session(
        ExecutorKind::CycleAccurate,
        &prog,
        &mut NullEngine,
        1_000_000,
    )
    .unwrap()
    .stats
    .retired;
    assert_eq!(full, 8);

    for fuel in 0..=full + 1 {
        let mut snapshots = Vec::new();
        for kind in ExecutorKind::ALL {
            let mut cpu = kind
                .new_session(&prog, zolc_sim::CpuConfig::default())
                .unwrap();
            let r = cpu.run(&mut NullEngine, fuel);
            if fuel >= full {
                let stats = r.unwrap_or_else(|e| panic!("{kind}: fuel {fuel} should finish: {e}"));
                assert_eq!(stats.retired, full, "{kind}");
            } else {
                assert!(
                    matches!(r, Err(RunError::OutOfFuel { fuel: f }) if f == fuel),
                    "{kind}: fuel {fuel} should time out, got {r:?}"
                );
                assert_eq!(
                    cpu.stats().retired,
                    fuel,
                    "{kind}: retired ≠ fuel at timeout"
                );
            }
            snapshots.push(cpu.regs().snapshot());
        }
        assert!(
            snapshots.windows(2).all(|w| w[0] == w[1]),
            "fuel {fuel}: executors disagree on state at the boundary"
        );
    }
}

/// The same instruction-exact boundary on a counted nest: the `bne`
/// latches fuse into counted repeats on the superblock tier, so most
/// fuel values land *mid-superblock* — inside the innermost bulk path —
/// and the tier must still stop at exactly the same instruction, with
/// the same registers and event counters, as every other backend.
#[test]
fn fuel_boundary_is_identical_mid_superblock() {
    let p = assemble(
        "
        li   r5, 0
        li   r1, 3
  oi:   li   r2, 2
  oj:   li   r3, 4
  ok:   addi r5, r5, 1
        addi r3, r3, -1
        bne  r3, r0, ok
        addi r2, r2, -1
        bne  r2, r0, oj
        addi r1, r1, -1
        bne  r1, r0, oi
        halt
    ",
    )
    .unwrap();
    let prog = CompiledProgram::compile(p);
    let full = run_session(
        ExecutorKind::CycleAccurate,
        &prog,
        &mut NullEngine,
        1_000_000,
    )
    .unwrap()
    .stats
    .retired;

    for fuel in 0..=full + 1 {
        let mut snapshots = Vec::new();
        let mut fast_counters = Vec::new();
        for kind in ExecutorKind::ALL {
            let mut cpu = kind
                .new_session(&prog, zolc_sim::CpuConfig::default())
                .unwrap();
            let r = cpu.run(&mut NullEngine, fuel);
            if fuel >= full {
                assert!(r.is_ok(), "{kind}: fuel {fuel} should finish, got {r:?}");
            } else {
                assert!(
                    matches!(r, Err(RunError::OutOfFuel { fuel: f }) if f == fuel),
                    "{kind}: fuel {fuel} should time out, got {r:?}"
                );
            }
            let s = cpu.stats();
            snapshots.push((cpu.regs().snapshot(), s.retired));
            // Event counters are retire-exact only on the strictly
            // in-order tiers: the pipeline resolves branches in EX, so
            // at a timeout it may have counted one still in flight.
            if kind != ExecutorKind::CycleAccurate {
                fast_counters.push((s.branches, s.taken_branches));
            }
        }
        assert!(
            snapshots.windows(2).all(|w| w[0] == w[1]),
            "fuel {fuel}: executors disagree at the boundary: {snapshots:?}"
        );
        assert!(
            fast_counters.windows(2).all(|w| w[0] == w[1]),
            "fuel {fuel}: functional tiers disagree on event counters: {fast_counters:?}"
        );
    }
}

/// Fuel is charged per retired instruction — never per cycle — so the
/// pipeline's stalls and flush bubbles do not consume it.
#[test]
fn pipeline_fuel_ignores_stall_and_flush_cycles() {
    // Heavy on flushes: the taken branch each iteration costs 2 bubble
    // cycles that must not be charged as fuel.
    let p = assemble(
        "
        li   r1, 50
  top:  addi r1, r1, -1
        bne  r1, r0, top
        halt
    ",
    )
    .unwrap();
    let prog = CompiledProgram::compile(p);
    let f = run_session(
        ExecutorKind::CycleAccurate,
        &prog,
        &mut NullEngine,
        1_000_000,
    )
    .unwrap();
    let retired = f.stats.retired;
    assert!(f.stats.cycles > retired, "test needs stall/flush cycles");
    // exactly `retired` fuel suffices even though cycles >> retired
    let exact = run_session(ExecutorKind::CycleAccurate, &prog, &mut NullEngine, retired);
    assert!(exact.is_ok(), "budget of {retired} retired instrs suffices");
}
