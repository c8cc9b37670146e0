//! End-to-end differential gate over the bundled corpus.
//!
//! Every corpus program is compiled, lowered for all three hand targets
//! plus the auto-retarget path, and executed on all three executor tiers;
//! each run is judged bit-exactly against the AST interpreter's
//! reference state, and the tiers must also agree on the retire count.
//! Where `zolc-oracle` claims the baseline binary analyzable, its
//! closed-form summary is held to the executed outcome as a further arm —
//! and coverage itself is pinned per program in the corpus table, so the
//! analyzable fragment cannot silently shrink.

use std::sync::Arc;
use zolc_core::{Zolc, ZolcConfig};
use zolc_ir::Target;
use zolc_isa::DATA_BASE;
use zolc_lang::{compile, corpus, CompiledUnit};
use zolc_sim::{run_session, CompiledProgram, Executor, ExecutorKind, Finished, NullEngine};

const FUEL: u64 = 50_000_000;

fn compile_entry(name: &str, source: &str) -> CompiledUnit {
    compile(name, source).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn corpus_compiles_with_the_recorded_loop_shape() {
    for e in corpus() {
        let unit = compile_entry(e.name, e.source);
        assert_eq!(
            unit.counted_loops(),
            e.counted_loops,
            "{}: counted-loop count drifted from the corpus table",
            e.name
        );
        assert_eq!(
            unit.while_loops(),
            e.while_loops,
            "{}: while-loop count drifted from the corpus table",
            e.name
        );
    }
}

#[test]
fn corpus_is_bit_exact_on_every_target_and_executor() {
    for e in corpus() {
        let unit = compile_entry(e.name, e.source);
        for target in [
            Target::Baseline,
            Target::HwLoop,
            Target::Zolc(ZolcConfig::lite()),
        ] {
            let built = unit
                .build(&target)
                .unwrap_or_else(|err| panic!("{}/{target}: {err}", e.name));
            let mut retired = None;
            for kind in ExecutorKind::ALL {
                let run = built
                    .run(FUEL, kind)
                    .unwrap_or_else(|err| panic!("{}/{target}/{kind}: {err}", e.name));
                assert!(
                    run.is_correct(),
                    "{}/{target}/{kind}: {:?} {:?}",
                    e.name,
                    run.mismatches,
                    run.violations
                );
                if let Some(prev) = retired {
                    assert_eq!(
                        prev, run.stats.retired,
                        "{}/{target}/{kind}: retire count differs between executors",
                        e.name
                    );
                }
                retired = Some(run.stats.retired);
            }
        }
    }
}

#[test]
fn corpus_auto_retargets_with_the_recorded_handled_count() {
    for e in corpus() {
        let unit = compile_entry(e.name, e.source);
        let auto = unit
            .build_auto(ZolcConfig::lite())
            .unwrap_or_else(|err| panic!("{}: {err}", e.name));
        assert_eq!(
            auto.stats.hw_loops, e.handled_loops,
            "{}: hardware-mapped loop count drifted from the corpus table \
             (unhandled: {}, excised: {})",
            e.name, auto.stats.unhandled, auto.stats.excised
        );
        let mut retired = None;
        for kind in ExecutorKind::ALL {
            let run = auto
                .built
                .run(FUEL, kind)
                .unwrap_or_else(|err| panic!("{}/auto/{kind}: {err}", e.name));
            assert!(
                run.is_correct(),
                "{}/auto/{kind}: {:?} {:?}",
                e.name,
                run.mismatches,
                run.violations
            );
            if let Some(prev) = retired {
                assert_eq!(
                    prev, run.stats.retired,
                    "{}/auto/{kind}: retire count differs between executors",
                    e.name
                );
            }
            retired = Some(run.stats.retired);
        }
    }
}

/// Runs the baseline binary raw (no expectation check) so the oracle's
/// summary can be compared to the *whole* architectural outcome, not
/// just the expectation's slice of it.
fn run_baseline_raw(program: &Arc<CompiledProgram>) -> Finished<Box<dyn Executor>> {
    run_session(ExecutorKind::Functional, program, &mut NullEngine, FUEL).expect("baseline runs")
}

#[test]
fn corpus_oracle_coverage_is_pinned_and_summaries_bit_match() {
    for e in corpus() {
        let unit = compile_entry(e.name, e.source);
        let built = unit.build(&Target::Baseline).expect("baseline builds");
        let fin = run_baseline_raw(&built.program);
        let mem_size = fin.cpu.mem().size();
        match zolc_oracle::summarize(built.program.source(), mem_size) {
            Err(refusal) => {
                assert!(
                    !e.oracle_covered,
                    "{}: recorded as oracle-covered but refused: {refusal}",
                    e.name
                );
            }
            Ok(summary) => {
                assert!(
                    e.oracle_covered,
                    "{}: oracle coverage grew — update the corpus table",
                    e.name
                );
                assert_eq!(
                    summary.final_regs,
                    fin.cpu.regs().snapshot(),
                    "{}: oracle registers differ",
                    e.name
                );
                assert_eq!(
                    summary.retired, fin.stats.retired,
                    "{}: oracle retire count differs",
                    e.name
                );
                assert_eq!(
                    summary.branches, fin.stats.branches,
                    "{}: oracle branch count differs",
                    e.name
                );
                // Replaying the touched bytes over the initial image must
                // reconstruct the executor's final data window.
                let len = mem_size - DATA_BASE as usize;
                let source = built.program.source();
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
                    "{}: oracle data memory differs",
                    e.name
                );
            }
        }
    }
}

/// Attaching an active controller: the lite-config Zolc engine must
/// report zero consistency violations over the whole corpus (covered
/// implicitly by `is_correct` above, asserted explicitly here for the
/// auto path on the cycle-accurate tier, where the engine drives real
/// back-to-back branching).
#[test]
fn corpus_auto_runs_keep_the_controller_consistent() {
    for e in corpus() {
        let unit = compile_entry(e.name, e.source);
        let auto = unit.build_auto(ZolcConfig::lite()).expect("retargets");
        let mut z = Zolc::new(ZolcConfig::lite());
        run_session(
            ExecutorKind::CycleAccurate,
            &auto.built.program,
            &mut z,
            FUEL,
        )
        .unwrap_or_else(|err| panic!("{}: {err}", e.name));
        z.assert_consistent();
    }
}
