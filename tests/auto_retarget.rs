//! Regression suite for the automatic retargeting pipeline
//! (`zolc_cfg::retarget`) over the benchmark registry.
//!
//! Every Fig. 2 kernel's baseline binary must map completely (zero
//! unhandled loops, unless explicitly allowlisted below), run bit-exactly
//! against its reference expectation on **both** executors with identical
//! retire counts, match the hand-lowered `Target::Zolc` build on final
//! data memory, lint clean against its image, and actually be *faster*
//! than both software-loop configurations. One `RetargetPlan` reused across the
//! E7 configurations must equal a fresh one-shot `retarget` for each.

use zolc::bench::GeneratedProgram;
use zolc::cfg::{lint_program, retarget, RetargetPlan};
use zolc::core::ZolcConfig;
use zolc::gen::{GenConfig, ProgramSpec};
use zolc::ir::Target;
use zolc::isa::{Program, DATA_BASE};
use zolc::kernels::{
    build_kernel_auto, extra_kernels, kernels, run_kernel, AutoKernel, BuiltKernel, ExecutorKind,
    KernelEntry,
};
use zolc::lang::{compile, corpus};
use zolc::sim::{run_session, Stats};

const BUDGET: u64 = 50_000_000;

/// Kernels allowed to report unhandled loops, with the expected count.
/// The Fig. 2 registry must stay empty here; ablation extras with
/// loop-escaping branches (early exits) are listed explicitly.
const EXPECTED_UNHANDLED: &[(&str, usize)] = &[];

fn auto(entry: &KernelEntry) -> AutoKernel {
    build_kernel_auto(entry, ZolcConfig::lite())
        .unwrap_or_else(|e| panic!("{}: auto build failed: {e}", entry.name))
}

#[test]
fn every_registry_kernel_reports_zero_unhandled_loops() {
    for k in kernels() {
        let a = auto(k);
        let expected = EXPECTED_UNHANDLED
            .iter()
            .find(|(name, _)| *name == k.name)
            .map_or(0, |(_, n)| *n);
        assert_eq!(
            a.stats.unhandled, expected,
            "{}: {} unhandled loops (expected {}); notes: {:?}",
            k.name, a.stats.unhandled, expected, a.built.info.notes
        );
        assert!(a.stats.excised > 0, "{}: nothing excised", k.name);
    }
}

#[test]
fn auto_builds_are_bit_exact_on_both_executors() {
    for k in kernels() {
        let a = auto(k);
        let mut retired: Option<u64> = None;
        for kind in [ExecutorKind::CycleAccurate, ExecutorKind::Functional] {
            let run = a
                .built
                .run(BUDGET, kind)
                .unwrap_or_else(|e| panic!("{}/{kind}: {e}", k.name));
            assert!(
                run.is_correct(),
                "{}/{kind}: {:?} {:?}",
                k.name,
                run.mismatches,
                run.violations
            );
            match retired {
                None => retired = Some(run.stats.retired),
                Some(r) => assert_eq!(r, run.stats.retired, "{}: retire counts", k.name),
            }
        }
    }
}

#[test]
fn auto_builds_match_hand_builds_on_final_memory() {
    for k in kernels() {
        let a = auto(k);
        let hand = (k.build)(&Target::Zolc(ZolcConfig::lite())).unwrap();
        let fast = ExecutorKind::Functional;
        // run_kernel_with checks each against the shared reference
        // expectation (registers + memory regions); on top of that the
        // *entire* data segment must agree between the two builds — the
        // bodies are the same code, so every store must land identically
        let auto_run = {
            let mut z = zolc::core::Zolc::new(ZolcConfig::lite());
            let fin = run_session(fast, &a.built.program, &mut z, BUDGET).unwrap();
            z.assert_consistent();
            fin
        };
        let hand_run = {
            let mut z = zolc::core::Zolc::new(ZolcConfig::lite());
            let fin = run_session(fast, &hand.program, &mut z, BUDGET).unwrap();
            z.assert_consistent();
            fin
        };
        let len = auto_run.cpu.mem().size() - DATA_BASE as usize;
        assert_eq!(
            auto_run.cpu.mem().read_bytes(DATA_BASE, len).unwrap(),
            hand_run.cpu.mem().read_bytes(DATA_BASE, len).unwrap(),
            "{}: auto and hand builds disagree on final data memory",
            k.name
        );
    }
}

#[test]
fn auto_images_verify_structurally() {
    for k in kernels() {
        let a = auto(k);
        let image = a.built.info.image.as_ref().expect("auto image");
        let report = lint_program(a.built.program.source(), Some(image));
        assert!(report.is_clean(), "{}:\n{report}", k.name);
        assert_eq!(image.loops.len(), a.stats.hw_loops);
    }
}

#[test]
fn auto_beats_both_software_loop_configurations() {
    for k in kernels() {
        let cycles = |target: &Target| -> Stats {
            let b = (k.build)(target).unwrap();
            run_kernel(&b, BUDGET).unwrap().stats
        };
        let base = cycles(&Target::Baseline).cycles;
        let hw = cycles(&Target::HwLoop).cycles;
        let auto_run = auto(k)
            .built
            .run(BUDGET, ExecutorKind::CycleAccurate)
            .unwrap();
        assert!(auto_run.is_correct(), "{}", k.name);
        let auto_cycles = auto_run.stats.cycles;
        assert!(
            auto_cycles < hw && hw < base,
            "{}: expected auto < hwloop < baseline, got {auto_cycles} / {hw} / {base}",
            k.name
        );
    }
}

/// The ablation extras use `break_if` early exits whose branches escape
/// their loops; the retargeter must push those (and everything nested
/// inside them) back to software — and the result must still run
/// correctly under the active controller.
#[test]
fn extras_with_early_exits_degrade_gracefully() {
    for k in extra_kernels() {
        let a = auto(k);
        let run = a
            .built
            .run(BUDGET, ExecutorKind::Functional)
            .unwrap_or_else(|e| panic!("{}: {e}", k.name));
        assert!(
            run.is_correct(),
            "{}: {:?} {:?}",
            k.name,
            run.mismatches,
            run.violations
        );
        assert!(
            a.stats.unhandled > 0,
            "{}: early-exit loops unexpectedly hardware-mapped",
            k.name
        );
    }
}

/// [`BuiltKernel::retarget`] drops the init sequence's scratch register
/// from the expectation. No kernel, extra or corpus baseline expectation
/// names that register on any configuration, so for them the rule
/// changes no check.
#[test]
fn retarget_keeps_kernel_and_corpus_expectations() {
    let mut baselines: Vec<BuiltKernel> = kernels()
        .iter()
        .chain(extra_kernels())
        .map(|k| (k.build)(&Target::Baseline).expect("kernel builds"))
        .collect();
    for e in corpus() {
        let unit = compile(e.name, e.source).expect("corpus compiles");
        baselines.push(unit.build(&Target::Baseline).expect("corpus builds"));
    }
    let mut retargeted = 0;
    for base in &baselines {
        for config in [ZolcConfig::micro(), ZolcConfig::lite(), ZolcConfig::full()] {
            let Ok(auto) = base.clone().retarget(config) else {
                continue;
            };
            assert_eq!(
                auto.built.expect, base.expect,
                "{}/{}: retarget changed the expectation",
                base.name, auto.built.target
            );
            retargeted += 1;
        }
    }
    assert_eq!(retargeted, 117, "successful retargets");
}

/// A generated program whose expectation covers every body register:
/// the init sequence's scratch register is one of them, and
/// [`BuiltKernel::retarget`] removes exactly that register.
#[test]
fn retarget_drops_exactly_the_init_scratch_register() {
    let spec = ProgramSpec::generate(0, &GenConfig::default());
    let base = GeneratedProgram::from_spec("gen0", spec).as_built(Target::Baseline);
    let r = retarget(base.program.source(), &ZolcConfig::lite()).expect("retargets");
    assert!(r.init_instructions > 0, "an init sequence is emitted");
    let mut want = base.expect.clone();
    want.regs.retain(|(rg, _)| *rg != r.scratch);
    assert_eq!(
        want.regs.len() + 1,
        base.expect.regs.len(),
        "the baseline expectation names the scratch register {}",
        r.scratch
    );
    let auto = base.retarget(ZolcConfig::lite()).expect("retargets");
    assert_eq!(auto.built.expect, want);
    let run = auto.built.run(BUDGET, ExecutorKind::Functional).unwrap();
    assert!(run.is_correct(), "{:?}", run.mismatches);
}

/// One plan synthesized for each of the four E7 sweep configurations
/// (uZOLC, ZOLClite, ZOLCfull, custom 2L/8T), in forward and then
/// reverse order, must equal a fresh one-shot `retarget` per
/// configuration — whole `Retargeted` values and errors alike. A
/// synthesis step that mutated shared plan state would make a later
/// configuration's result depend on the order.
fn assert_plan_reuse_matches_one_shot(name: &str, program: &Program) -> usize {
    let configs = [
        ZolcConfig::micro(),
        ZolcConfig::lite(),
        ZolcConfig::full(),
        ZolcConfig::custom(2, 8, 0, 0).expect("valid custom point"),
    ];
    let fresh: Vec<_> = configs.iter().map(|c| retarget(program, c)).collect();
    let plan = match RetargetPlan::new(program.clone()) {
        Ok(plan) => plan,
        Err(e) => {
            for r in &fresh {
                assert_eq!(r.as_ref().err(), Some(&e), "{name}: plan error differs");
            }
            return 0;
        }
    };
    for k in (0..configs.len()).chain((0..configs.len()).rev()) {
        assert_eq!(
            plan.retarget(&configs[k]),
            fresh[k],
            "{name}/{}: plan reuse differs from a one-shot retarget",
            configs[k]
        );
    }
    fresh.iter().filter(|r| r.is_ok()).count()
}

#[test]
fn plan_reuse_equals_one_shot_retarget() {
    let mut ok = 0;
    for k in kernels().iter().chain(extra_kernels()) {
        let base = (k.build)(&Target::Baseline).expect("kernel builds");
        ok += assert_plan_reuse_matches_one_shot(k.name, base.program.source());
    }
    for e in corpus() {
        let unit = compile(e.name, e.source).expect("corpus compiles");
        let base = unit.build(&Target::Baseline).expect("corpus builds");
        ok += assert_plan_reuse_matches_one_shot(e.name, base.program.source());
    }
    let deep = GenConfig::new()
        .with_max_top(3)
        .with_max_depth(5)
        .with_max_loops(12);
    for (gen, seeds) in [(GenConfig::default(), 0..200u64), (deep, 0..120)] {
        for seed in seeds {
            let spec = ProgramSpec::generate(seed, &gen);
            let program = spec.assemble().expect("generated specs assemble").program;
            ok += assert_plan_reuse_matches_one_shot(&format!("gen{seed}"), &program);
        }
    }
    assert!(ok > 1000, "only {ok} successful retargets compared");
}
