//! Cross-crate integration: every benchmark on every configuration,
//! cross-checked three ways — reference model (bit-exact results),
//! controller consistency journal, and independent structural
//! verification of the lowered table images by `zolc-cfg`.

use zolc::cfg::{verify_image, Cfg, Dominators, LoopForest};
use zolc::core::ZolcConfig;
use zolc::ir::Target;
use zolc::kernels::{extra_kernels, kernels, run_kernel};

const MAX_CYCLES: u64 = 50_000_000;

#[test]
fn all_kernels_correct_on_all_fig2_targets() {
    for k in kernels() {
        for target in [
            Target::Baseline,
            Target::HwLoop,
            Target::Zolc(ZolcConfig::lite()),
        ] {
            let built = (k.build)(&target).unwrap_or_else(|e| panic!("{}: {e}", k.name));
            let run = run_kernel(&built, MAX_CYCLES).unwrap();
            assert!(
                run.is_correct(),
                "{}/{}: {:?} {:?}",
                k.name,
                target,
                run.mismatches,
                run.violations
            );
        }
    }
}

#[test]
fn all_kernels_correct_on_zolc_full() {
    for k in kernels().iter().chain(extra_kernels()) {
        let built = (k.build)(&Target::Zolc(ZolcConfig::full())).unwrap();
        let run = run_kernel(&built, MAX_CYCLES).unwrap();
        assert!(run.is_correct(), "{}: {:?}", k.name, run.mismatches);
    }
}

/// Every lowered kernel image passes the independent structural verifier.
#[test]
fn lowered_images_verify_structurally() {
    for k in kernels().iter().chain(extra_kernels()) {
        for cfg in [ZolcConfig::lite(), ZolcConfig::full()] {
            let built = (k.build)(&Target::Zolc(cfg)).unwrap();
            let image = built.info.image.as_ref().expect("kernels have loops");
            let findings = verify_image(built.program.source(), image);
            assert!(
                findings.is_empty(),
                "{}/{}: {findings:?}",
                k.name,
                cfg.variant()
            );
        }
    }
}

/// The CFG analysis of the *baseline* binaries rediscovers exactly the
/// loop structure the IR declared (count and maximum depth), and the
/// ZOLC binaries contain no backward conditional branches at all.
#[test]
fn cfg_analysis_matches_ir_structure() {
    // (kernel name, loops, max depth) from the IR definitions
    let expected = [
        ("vec_mac", 1, 1),
        ("vec_max", 1, 1),
        ("fir", 2, 2),
        ("iir_biquad", 2, 2),
        ("matmul", 3, 3),
        ("conv2d", 4, 4),
        ("dct8x8", 6, 3),
        ("crc32", 2, 2),
        ("bubble_sort", 2, 2),
        ("fft16", 3, 3),
        ("me_fs", 4, 4),
        ("me_tss", 4, 4),
    ];
    for (name, loops, depth) in expected {
        let k = kernels().iter().find(|k| k.name == name).unwrap();
        let built = (k.build)(&Target::Baseline).unwrap();
        let cfgraph = Cfg::build(built.program.source());
        let dom = Dominators::compute(&cfgraph);
        let forest = LoopForest::analyze(&cfgraph, &dom);
        assert_eq!(forest.len(), loops, "{name}: loop count");
        assert_eq!(forest.max_depth(), depth, "{name}: nesting depth");
        assert!(
            !forest.has_irreducible(),
            "{name}: unexpected irreducibility"
        );

        // ZOLC form: loop control is gone — no backward branches remain
        // (exit branches of the early-exit kernels are forward).
        let builtz = (k.build)(&Target::Zolc(ZolcConfig::lite())).unwrap();
        let zg = Cfg::build(builtz.program.source());
        let zd = Dominators::compute(&zg);
        let zf = LoopForest::analyze(&zg, &zd);
        assert!(
            zf.is_empty(),
            "{name}: ZOLC code still contains software loops"
        );
    }
}

/// The Figure 2 shape: ZOLC <= XRhrdwil <= XRdefault on every kernel and
/// the aggregate improvements land in the paper's bands.
#[test]
fn figure2_shape_holds() {
    let report = zolc::bench::Fig2Report::collect();
    assert!(report.ordering_holds(), "cycle ordering violated");
    // measured bands (paper: hw avg 11.1 max 27.5; zolc avg 26.2,
    // range 8.4..48.2). Our single-issue substrate inflates both schemes'
    // gains by a common factor; the bands below pin the measured shape so
    // regressions are caught.
    let hw_avg = report.avg_hwloop();
    let zolc_avg = report.avg_zolc();
    assert!(
        (5.0..=25.0).contains(&hw_avg),
        "hwloop average {hw_avg:.1}% out of band"
    );
    assert!(
        (20.0..=45.0).contains(&zolc_avg),
        "zolc average {zolc_avg:.1}% out of band"
    );
    assert!(
        report.max_zolc() <= 60.0 && report.max_zolc() >= 40.0,
        "zolc max {:.1}% out of band",
        report.max_zolc()
    );
    assert!(
        report.min_zolc() >= 5.0,
        "zolc min {:.1}% out of band",
        report.min_zolc()
    );
    // the ZOLC consistently beats branch-decrement by a wide margin
    assert!(zolc_avg > 1.5 * hw_avg);
}

/// The area model reproduces the paper's synthesis table exactly and the
/// timing model reproduces the 170 MHz claim.
#[test]
fn paper_synthesis_numbers_exact() {
    use zolc::bench::paper;
    use zolc::core::area;
    let configs = [ZolcConfig::micro(), ZolcConfig::lite(), ZolcConfig::full()];
    for (k, cfg) in configs.iter().enumerate() {
        assert_eq!(area::storage(cfg).bytes(), paper::STORAGE_BYTES[k]);
        assert_eq!(area::gates(cfg).total(), paper::GATES[k]);
        let t = area::timing(cfg);
        assert!(!t.limits_cycle_time());
        assert!((t.fmax_mhz() - paper::FMAX_MHZ).abs() < 5.0);
    }
}

/// Initialization stays a small, amortized cost (paper section 2 claim).
#[test]
fn init_overhead_is_small() {
    for k in kernels() {
        let built = (k.build)(&Target::Zolc(ZolcConfig::lite())).unwrap();
        let run = run_kernel(&built, MAX_CYCLES).unwrap();
        let share = built.info.init_instructions as f64 / run.stats.cycles as f64;
        assert!(
            share < 0.10,
            "{}: init share {:.1}% too large",
            k.name,
            100.0 * share
        );
    }
}

/// Automatic retargeting (cfg crate) recovers every counted loop from
/// the baseline binaries of single-counter kernels.
#[test]
fn auto_mapper_recovers_counted_loops() {
    use zolc::cfg::retarget;
    // kernels whose every loop uses the plain down-counter pattern
    for name in ["vec_mac", "fir", "matmul", "crc32"] {
        let k = kernels().iter().find(|k| k.name == name).unwrap();
        let built = (k.build)(&Target::Baseline).unwrap();
        let g = Cfg::build(built.program.source());
        let d = Dominators::compute(&g);
        let f = LoopForest::analyze(&g, &d);
        let r = retarget(built.program.source(), &ZolcConfig::lite()).unwrap();
        assert_eq!(
            r.counted.len(),
            f.len(),
            "{name}: retarget missed loops: {:?}",
            r.unhandled
        );
        assert!(r.image.validate(&ZolcConfig::lite()).is_ok());
    }
}
