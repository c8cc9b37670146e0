//! Differential property test: the cycle-accurate pipeline against the
//! functional interpreter against the loop-nest superblock executor —
//! plus, wherever it claims analyzability, the closed-form
//! `zolc-oracle` summarizer as a further arm that shares *no* code with
//! the executors' semantics core.
//!
//! The three executors share one semantics core (`zolc_sim::exec::step`)
//! but schedule it completely differently — five speculative pipeline
//! stages with forwarding and flushes, a strict one-instruction
//! interpreter, and whole-nest superblocks with fused counted-repeat
//! latches and a step-core fallback. Architecturally those differences
//! must be invisible: for any program, final register file, data memory
//! and retire count must be bit-identical across all three. Checked four
//! ways: random straight-line programs (shared generators with
//! `prop_pipeline`), random `zolc-gen` loop structures round-tripped
//! through `retarget` — whose ZOLC engine is *active*, so the nest tier
//! runs superblocks between the controller's hook pcs — all benchmark
//! kernels on all three Fig. 2 targets plus the ablation extras on
//! `ZOLCfull` (which exercises branches, `dbnz`, jumps and the ZOLC
//! engine integration end to end), and a fuel sweep over a counted nest that must time out at
//! the same instruction on every tier — including mid-superblock.
//!
//! The oracle arm converts the suite from N-version voting into
//! spec-anchored verification: a semantics bug shared by all three
//! executors (they share `zolc_sim::exec::step`) would still disagree
//! with the oracle, whose summaries are derived from the ISA reference
//! alone. Where the oracle refuses, a regression corpus asserts the
//! *reason*, so the analyzable fragment cannot silently shrink.

mod common;

use common::{any_instr, gen_loop};
use proptest::prelude::*;
use std::sync::Arc;
use zolc::cfg::retarget;
use zolc::core::{Zolc, ZolcConfig};
use zolc::ir::Target;
use zolc::isa::{reg, Asm, Instr, Reg, DATA_BASE};
use zolc::kernels::{extra_kernels, fig2_targets, kernels};
use zolc::oracle::{self, Reason};
use zolc::sim::{
    run_session, CompiledProgram, Executor, ExecutorKind, Finished, NullEngine, RunError, Stats,
    MEM_SIZE,
};

const BUDGET: u64 = 50_000_000;

/// The oracle differential arm: where the oracle claims analyzability,
/// its closed-form summary must bit-match the executors' architectural
/// outcome. Returns whether the program was covered. The caller has
/// already established three-way executor equivalence, so one finished
/// run stands for all three.
fn oracle_arm(
    program: &Arc<CompiledProgram>,
    fin: &Finished<Box<dyn Executor>>,
    ctx: &str,
) -> bool {
    let source = program.source();
    let summary = match oracle::summarize(source, fin.cpu.mem().size()) {
        Ok(s) => s,
        Err(_) => return false,
    };
    if summary.retired > BUDGET {
        return false;
    }
    assert_eq!(
        summary.final_regs,
        fin.cpu.regs().snapshot(),
        "{ctx}: oracle registers differ"
    );
    assert_eq!(
        summary.retired, fin.stats.retired,
        "{ctx}: oracle retire count differs"
    );
    assert_eq!(
        summary.branches, fin.stats.branches,
        "{ctx}: oracle branch count differs"
    );
    assert_eq!(
        summary.taken_branches, fin.stats.taken_branches,
        "{ctx}: oracle taken-branch count differs"
    );
    // The summary's touched bytes over the initial image must
    // reconstruct the executor's entire final data window.
    let len = fin.cpu.mem().size() - DATA_BASE as usize;
    let mut expect = vec![0u8; len];
    expect[..source.data().len()].copy_from_slice(source.data());
    for &(addr, byte) in &summary.touched_mem {
        if addr >= DATA_BASE {
            expect[(addr - DATA_BASE) as usize] = byte;
        }
    }
    assert_eq!(
        expect,
        fin.cpu.mem().read_bytes(DATA_BASE, len).unwrap(),
        "{ctx}: oracle data memory differs"
    );
    true
}

/// A finished run and, on ZOLC targets, the controller it ran with.
type Ran = (Finished<Box<dyn Executor>>, Option<Zolc>);

/// Opens a session over `program` on the chosen executor with the
/// engine `target` calls for (a fresh `Zolc` for ZOLC targets, returned
/// after the run; `NullEngine` otherwise).
fn run_on(
    kind: ExecutorKind,
    program: &Arc<CompiledProgram>,
    target: &Target,
) -> Result<Ran, RunError> {
    match target {
        Target::Zolc(cfg) => {
            let mut z = Zolc::new(*cfg);
            let fin = run_session(kind, program, &mut z, BUDGET)?;
            z.assert_consistent();
            Ok((fin, Some(z)))
        }
        _ => Ok((run_session(kind, program, &mut NullEngine, BUDGET)?, None)),
    }
}

/// Asserts bit-identical architectural outcomes across all three
/// executors; returns the pipeline's and the functional interpreter's
/// stats (the nest tier's are additionally held equal to the
/// functional interpreter's in full).
fn assert_equivalent(
    program: &Arc<CompiledProgram>,
    target: &Target,
    context: &str,
) -> (Stats, Stats) {
    let (slow, _) = run_on(ExecutorKind::CycleAccurate, program, target)
        .unwrap_or_else(|e| panic!("{context}: pipeline failed: {e}"));
    let mut functional: Option<(Stats, Option<Zolc>)> = None;
    for kind in [ExecutorKind::Functional, ExecutorKind::Nest] {
        let (fast, zolc) = run_on(kind, program, target)
            .unwrap_or_else(|e| panic!("{context}: {kind} failed: {e}"));
        assert_eq!(
            slow.cpu.regs().snapshot(),
            fast.cpu.regs().snapshot(),
            "{context}: {kind} register file differs"
        );
        let len = slow.cpu.mem().size() - DATA_BASE as usize;
        assert_eq!(
            slow.cpu.mem().read_bytes(DATA_BASE, len).unwrap(),
            fast.cpu.mem().read_bytes(DATA_BASE, len).unwrap(),
            "{context}: {kind} data memory differs"
        );
        assert_eq!(
            slow.stats.retired, fast.stats.retired,
            "{context}: {kind} retire count differs"
        );
        // the two functional tiers must agree on *all* stats (both
        // report zero cycles, so full equality is well-defined) and on
        // the controller they leave behind
        if let Some((prev, prev_zolc)) = &functional {
            assert_eq!(
                *prev, fast.stats,
                "{context}: functional tiers disagree on stats"
            );
            if let (Some(a), Some(b)) = (prev_zolc, &zolc) {
                assert_eq!(
                    a.arch_state(),
                    b.arch_state(),
                    "{context}: functional tiers leave different controller states"
                );
                assert_eq!(
                    a.violations(),
                    b.violations(),
                    "{context}: functional tiers disagree on violations"
                );
            }
        }
        functional = Some((fast.stats, zolc));
    }
    oracle_arm(program, &slow, context);
    (slow.stats, functional.expect("fast tiers ran").0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Pipeline == functional == nest executor on random
    /// straight-line programs: identical registers, memory, retire
    /// counts; cycles only on the pipeline.
    #[test]
    fn executors_agree_on_straightline(instrs in prop::collection::vec(any_instr(), 1..60)) {
        let mut asm = Asm::new();
        asm.li(reg(1), DATA_BASE as i32);
        asm.emit_all(instrs.iter().copied());
        asm.emit(Instr::Halt);
        let program = CompiledProgram::compile(asm.finish().expect("assembles"));
        let (slow, fast) = assert_equivalent(&program, &Target::Baseline, "straightline");
        prop_assert!(slow.cycles >= slow.retired);
        prop_assert_eq!(fast.cycles, 0);
        // Straight-line bodies are inside the oracle's fragment by
        // construction: coverage here must be total, so a fragment
        // regression (not just a wrong summary) fails the suite.
        prop_assert!(
            oracle::summarize(program.source(), MEM_SIZE).is_ok(),
            "straightline program must be analyzable"
        );
    }

    /// The oracle against all three executors on random `zolc-gen`
    /// counted-loop programs (software-loop originals, passive engine):
    /// wherever it claims analyzability, the closed form must bit-match
    /// — registers, data memory, retire/branch counts — with proptest
    /// shrinking the loop structure on mismatch.
    #[test]
    fn oracle_matches_executors_on_generated_loops(
        loops in prop::collection::vec(gen_loop(), 1..3)
    ) {
        let spec = zolc::gen::ProgramSpec::new(loops);
        let program = spec
            .assemble()
            .expect("generated program assembles")
            .program;
        let program = CompiledProgram::compile(program);
        let mut covered = false;
        for kind in ExecutorKind::ALL {
            let fin = run_session(kind, &program, &mut NullEngine, BUDGET)
                .expect("generated program runs");
            covered = oracle_arm(&program, &fin, &format!("gen-loop/{kind}"));
        }
        // `dbnz` latches (and only structural exclusions like them) may
        // refuse; generated programs are small, so a budget refusal
        // would be an analyzer bug, not a fragment boundary.
        if !covered {
            match oracle::summarize(program.source(), MEM_SIZE) {
                Ok(s) => prop_assert!(s.retired > BUDGET),
                Err(e) => prop_assert!(
                    !matches!(e.0, Reason::OutOfBudget { .. }),
                    "budget refusal on a small program: {:?}", e.0
                ),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Auto-retarget equivalence: for random counted-loop programs (down-
    /// counter and `dbnz` latches, constant and register-sourced bounds,
    /// optional nesting, possibly empty bodies), the excised program plus
    /// synthesized overlay retires to the same architectural state as the
    /// original software-loop program — full data memory and every
    /// register except the freed down-counters — on all three executors,
    /// with zero controller-consistency violations. The retargeted run
    /// attaches an *active* `Zolc` engine, so the nest tier splits its
    /// superblocks at the controller's hook footprint and steps the
    /// footprint pcs with the hooks — this property is also that path's
    /// differential coverage over `zolc-gen` programs.
    #[test]
    fn retargeted_programs_match_their_originals(
        loops in prop::collection::vec(gen_loop(), 1..3)
    ) {
        let spec = zolc::gen::ProgramSpec::new(loops);
        let program = spec
            .assemble()
            .expect("generated program assembles")
            .program;
        let r = retarget(&program, &ZolcConfig::lite()).expect("retargets");
        // handledness is predictable from the generated shape (the
        // documented `predicted_unhandled` contract): a branch over a
        // loop (pre_skip) pushes it and its whole subtree to software;
        // a branch to the latch over inner loops (tail_skip) pushes the
        // child subtrees; everything else maps to hardware
        prop_assert_eq!(r.counted.len() + r.unhandled.len(), spec.loop_count());
        prop_assert_eq!(
            r.unhandled.len(),
            spec.predicted_unhandled(),
            "notes: {:?}", r.notes
        );

        let base_prog = CompiledProgram::compile(program);
        let auto_prog = CompiledProgram::compile(Arc::clone(&r.program));
        let mut retired = Vec::new();
        for kind in ExecutorKind::ALL {
            let base = run_session(kind, &base_prog, &mut NullEngine, BUDGET)
                .expect("original runs");
            let mut z = Zolc::new(ZolcConfig::lite());
            let auto = run_session(kind, &auto_prog, &mut z, BUDGET)
                .expect("retargeted runs");
            z.assert_consistent();
            for rg in Reg::all() {
                // freed counters are dead after excision; the scratch
                // register is untouched by the program, so only the init
                // sequence's leftover value lives there (when no init
                // sequence was emitted, nothing is excluded)
                if r.counter_regs.contains(&rg) || (r.init_instructions > 0 && rg == r.scratch) {
                    continue;
                }
                prop_assert_eq!(
                    base.cpu.regs().read(rg),
                    auto.cpu.regs().read(rg),
                    "{}: {} differs", kind, rg
                );
            }
            let len = base.cpu.mem().size() - DATA_BASE as usize;
            prop_assert_eq!(
                base.cpu.mem().read_bytes(DATA_BASE, len).unwrap(),
                auto.cpu.mem().read_bytes(DATA_BASE, len).unwrap(),
                "{}: data memory differs", kind
            );
            retired.push(auto.stats.retired);
        }
        // and all executors agree on the retargeted program itself
        prop_assert!(retired.windows(2).all(|w| w[0] == w[1]), "{:?}", retired);
    }
}

/// Every Fig. 2 kernel on every Fig. 2 target: the full benchmark suite
/// (loop nests, `dbnz` loops, ZOLC redirects and index riders) retires
/// to identical architectural state on all three executors.
#[test]
fn executors_agree_on_all_fig2_kernels() {
    for k in kernels() {
        for target in fig2_targets() {
            let built = (k.build)(&target).unwrap_or_else(|e| panic!("{}: {e}", k.name));
            let ctx = format!("{}/{}", k.name, target);
            let (slow, fast) = assert_equivalent(&built.program, &target, &ctx);
            // architectural event counters must agree too
            assert_eq!(slow.branches, fast.branches, "{ctx}: branches");
            assert_eq!(
                slow.taken_branches, fast.taken_branches,
                "{ctx}: taken branches"
            );
            assert_eq!(slow.dbnz_retired, fast.dbnz_retired, "{ctx}: dbnz");
            assert_eq!(slow.zwr_retired, fast.zwr_retired, "{ctx}: zwr");
            assert_eq!(slow.zctl_retired, fast.zctl_retired, "{ctx}: zctl");
            assert_eq!(
                slow.zolc_index_writes, fast.zolc_index_writes,
                "{ctx}: index writes"
            );
        }
    }
}

/// The multiple-exit and early-exit ablation kernels on the largest
/// configuration (exit records active) agree as well.
#[test]
fn executors_agree_on_ablation_extras() {
    for k in extra_kernels() {
        let target = Target::Zolc(ZolcConfig::full());
        let built = (k.build)(&target).unwrap_or_else(|e| panic!("{}: {e}", k.name));
        assert_equivalent(&built.program, &target, k.name);
    }
}

/// Regression corpus for the oracle's refusal taxonomy: hand-written
/// programs just *outside* the analyzable fragment must refuse with the
/// specific documented [`Reason`] — not merely refuse — while the
/// executors run them fine. If the analyzer grows (or loses) power,
/// these pin exactly where the boundary moved.
#[test]
fn oracle_refusals_carry_the_documented_reason() {
    type ReasonPred = fn(&Reason) -> bool;
    let corpus: &[(&str, &str, ReasonPred)] = &[
        (
            "counter-read escape into a compare",
            r"
                li   r10, 5
                li   r2, 0
        top:    slt  r3, r10, r2
                addi r10, r10, -1
                bne  r10, r0, top
                halt
            ",
            |r| matches!(r, Reason::CounterEscape { .. }),
        ),
        (
            "memory-carried accumulator",
            r"
                li   r1, 0x40000
                li   r10, 5
        top:    lw   r2, 0(r1)
                addi r2, r2, 1
                sw   r2, 0(r1)
                addi r10, r10, -1
                bne  r10, r0, top
                halt
            ",
            |r| matches!(r, Reason::MemoryCarried { .. }),
        ),
        (
            "dbnz latch",
            r"
                li   r10, 3
        top:    nop
                dbnz r10, top
                halt
            ",
            |r| matches!(r, Reason::DbnzLatch { .. }),
        ),
        (
            "loop-variant branch condition",
            r"
                li   r10, 4
                li   r2, 0
        top:    addi r2, r2, 1
                beq  r2, r10, done
                addi r10, r10, -1
                bne  r10, r0, top
        done:   halt
            ",
            |r| matches!(r, Reason::DataDependentBranch { .. }),
        ),
        (
            "loop-variant effective address",
            r"
                li   r1, 0x40000
                li   r10, 4
        top:    sll  r2, r10, 2
                add  r2, r2, r1
                lw   r3, 0(r2)
                addi r10, r10, -1
                bne  r10, r0, top
                halt
            ",
            |r| matches!(r, Reason::VariantAddress { .. }),
        ),
    ];
    for (name, src, expected) in corpus {
        let program = zolc::isa::assemble(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let reason = oracle::summarize(&program, MEM_SIZE).expect_err(name).0;
        assert!(expected(&reason), "{name}: wrong refusal reason {reason:?}");
        // ...while the executors handle the same program without issue,
        // proving refusal marks the fragment boundary, not a failure.
        let program = CompiledProgram::compile(Arc::new(program));
        for kind in ExecutorKind::ALL {
            run_session(kind, &program, &mut NullEngine, BUDGET)
                .unwrap_or_else(|e| panic!("{name}: {kind} failed: {e}"));
        }
    }
}
