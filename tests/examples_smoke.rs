//! Smoke tests mirroring the `examples/` programs, so the example code
//! paths cannot silently bit-rot between releases (CI additionally
//! executes `cargo run --example quickstart` end to end).

use zolc::core::{area, Zolc, ZolcConfig};
use zolc::ir::{lower_into, IndexSpec, LoopIr, LoopNode, Node, Target, Trips};
use zolc::isa::{reg, Asm, Instr};
use zolc::kernels::{build_me_fs, build_me_fs_early, build_me_tss, run_kernel, BuildFn};
use zolc::sim::{run_program, NullEngine};

/// The `quickstart` example: one accumulation loop lowered three ways
/// must agree architecturally, and ZOLC must be strictly cheapest.
#[test]
fn quickstart_loop_three_ways() {
    let ir = LoopIr {
        name: "quickstart".into(),
        nodes: vec![Node::Loop(LoopNode {
            trips: Trips::Const(100),
            index: Some(IndexSpec {
                reg: reg(20),
                init: 0,
                step: 1,
            }),
            counter: reg(11),
            body: vec![Node::code([
                Instr::Add {
                    rd: reg(2),
                    rs: reg(2),
                    rt: reg(20),
                },
                Instr::Add {
                    rd: reg(3),
                    rs: reg(3),
                    rt: reg(2),
                },
            ])],
        })],
    };

    let mut results = Vec::new();
    for target in [
        Target::Baseline,
        Target::HwLoop,
        Target::Zolc(ZolcConfig::lite()),
    ] {
        let mut asm = Asm::new();
        lower_into(&mut asm, &ir, &target).expect("lowers");
        asm.emit(Instr::Halt);
        let program = asm.finish().expect("assembles");
        let finished = match target {
            Target::Zolc(cfg) => {
                let mut zolc = Zolc::new(cfg);
                let fin = run_program(&program, &mut zolc, 1_000_000).expect("runs");
                zolc.assert_consistent();
                fin
            }
            _ => run_program(&program, &mut NullEngine, 1_000_000).expect("runs"),
        };
        let regs = finished.cpu.regs().snapshot();
        assert_eq!(regs[2], (0..100).sum::<u32>(), "{target}: r2");
        results.push((regs[2], regs[3], finished.stats.cycles));
    }
    let (r2, r3, baseline_cycles) = results[0];
    let (_, _, hwloop_cycles) = results[1];
    let (z2, z3, zolc_cycles) = results[2];
    assert_eq!((r2, r3), (z2, z3), "lowerings disagree");
    assert!(zolc_cycles < hwloop_cycles && hwloop_cycles < baseline_cycles);
}

/// The `figure2` example: the E1 artifact renders with every Fig. 2
/// kernel present.
#[test]
fn figure2_artifact_renders() {
    let artifact = zolc::bench::e1_fig2();
    for kernel in zolc::kernels::kernels() {
        assert!(
            artifact.contains(kernel.name),
            "Figure 2 artifact is missing kernel {}",
            kernel.name
        );
    }
}

/// The `motion_estimation` example: all three ME kernels stay bit-exact
/// on every processor configuration and ZOLC never loses to baseline.
#[test]
fn motion_estimation_all_configs() {
    let configs: Vec<(&str, Target)> = vec![
        ("XRdefault", Target::Baseline),
        ("XRhrdwil", Target::HwLoop),
        ("ZOLClite", Target::Zolc(ZolcConfig::lite())),
        ("ZOLCfull", Target::Zolc(ZolcConfig::full())),
    ];
    for (kname, build) in [
        ("me_fs", build_me_fs as BuildFn),
        ("me_tss", build_me_tss as BuildFn),
        ("me_fs_early", build_me_fs_early as BuildFn),
    ] {
        let mut baseline = None;
        for (cname, target) in &configs {
            let built = build(target).expect("builds");
            let run = run_kernel(&built, 50_000_000).expect("runs");
            assert!(run.is_correct(), "{kname} on {cname} diverged");
            let base = *baseline.get_or_insert(run.stats.cycles);
            if matches!(target, Target::Zolc(_)) {
                assert!(
                    run.stats.cycles < base,
                    "{kname} on {cname}: ZOLC not faster than baseline"
                );
            }
        }
    }
}

/// The `explore` example: a miniature E7 sweep stays correctness-clean
/// and the single-seed inspection path (`--show`) keeps its invariants
/// — generation, assembly and retargeting of one seed agree on the loop
/// census.
#[test]
fn explore_sweep_and_show_paths() {
    use zolc::bench::{run_sweep, SweepConfig};
    use zolc::cfg::retarget;
    use zolc::gen::ProgramSpec;

    // the sweep path, scaled down
    let mut cfg = SweepConfig::new();
    cfg.programs = 6;
    let report = run_sweep(&cfg);
    assert_eq!(report.cells, cfg.cells());
    assert!(report.points.iter().any(|p| p.hw_loops > 0));

    // the --show path
    let spec = ProgramSpec::generate(17, &cfg.gen);
    let assembled = spec.assemble().expect("assembles");
    assert!(!assembled.program.listing().is_empty());
    let r = retarget(&assembled.program, &ZolcConfig::lite()).expect("retargets");
    assert_eq!(r.counted.len() + r.unhandled.len(), spec.loop_count());
    assert_eq!(r.unhandled.len(), spec.predicted_unhandled());
}

/// The `explore` example's retired executor spellings: `--functional`
/// and `--compiled` were deprecated redirects to `--executor` and have
/// been removed, as has the block-compiled `compiled` tier — they must
/// now be ordinary usage errors (one line, exit 2), not silently
/// accepted legacy spellings.
#[test]
fn explore_removed_aliases_are_usage_errors() {
    use std::process::Command;

    let cases: &[(&[&str], &str)] = &[
        (&["--functional"], "unknown argument"),
        (&["--compiled"], "unknown argument"),
        (&["--executor", "compiled"], "is not one of"),
    ];
    for (alias, message) in cases {
        let out = Command::new(env!("CARGO"))
            .args(["run", "--quiet", "--example", "explore", "--"])
            .args(["--programs", "4"])
            .args(*alias)
            .output()
            .expect("spawns the explore example");
        assert_eq!(
            out.status.code(),
            Some(2),
            "explore {alias:?} should be a usage error: stdout {:?} stderr {:?}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            stderr.lines().count(),
            1,
            "explore {alias:?}: usage errors are one line: {stderr:?}"
        );
        assert!(
            stderr.contains(message),
            "explore {alias:?}: unexpected message {stderr:?}"
        );
    }
}

/// The `explore` example's `--analyze` mode: one seed's dataflow view —
/// per-block facts for the baseline, a lint report for both the
/// baseline and the retargeted form — prints and exits 0 (the mode is
/// an inspection surface, so findings in a *generated* program are
/// reported, not fatal).
#[test]
fn explore_analyze_prints_dataflow_view() {
    use std::process::Command;

    let out = Command::new(env!("CARGO"))
        .args(["run", "--quiet", "--example", "explore", "--"])
        .args(["--analyze", "17"])
        .output()
        .expect("spawns the explore example");
    assert!(
        out.status.success(),
        "explore --analyze 17 failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "baseline dataflow",
        "live-in",
        "baseline lint:",
        "retargeted lint",
    ] {
        assert!(
            stdout.contains(needle),
            "--analyze output is missing {needle:?}: {stdout}"
        );
    }
}

/// The `explore` example's usage errors: a flag the chosen mode would
/// silently ignore, an unknown flag, a seed range past `u64::MAX`,
/// knobs whose programs could exhaust the fuel budget, or an oracle
/// floor that is no percentage must be one line on stderr and exit
/// status 2 — never a silent default, a wrapped seed, a panic or a
/// check that passes everything.
#[test]
fn explore_rejects_ignored_flag_combinations() {
    use std::process::Command;

    const COMBINED: &str = "cannot be combined";
    const SEEDS: &str = "does not fit a u64";
    const MAX_SEED: &str = "18446744073709551615"; // u64::MAX
    const FUEL: &str = "over the fuel budget";
    const FLOOR: &str = "percentage from 0 to 100";
    let cases: &[(&[&str], &str)] = &[
        (&["--show", "17", "--executor", "functional"], COMBINED),
        (&["--show", "17", "--oracle-check"], COMBINED),
        (&["--show", "17", "--analyze", "17"], COMBINED),
        (&["--analyze", "17", "--executor", "functional"], COMBINED),
        (&["--analyze", "17", "--oracle-check"], COMBINED),
        (&["--oracle-check", "--executor", "nest"], COMBINED),
        (&["--out", "nowhere"], "unknown argument `--out`"),
        (&["--seed", MAX_SEED, "--programs", "2"], SEEDS),
        (
            &["--seed", MAX_SEED, "--programs", "2", "--oracle-check"],
            SEEDS,
        ),
        (&["--trips", "1000", "--programs", "20"], FUEL),
        (&["--trips", "4294967295", "--programs", "3"], FUEL),
        (
            &["--oracle-check", "--programs", "3", "--trips", "1000"],
            FUEL,
        ),
        (&["--oracle-check", "--oracle-floor", "nan"], FLOOR),
        (&["--oracle-check", "--oracle-floor", "inf"], FLOOR),
        (&["--oracle-check", "--oracle-floor", "-1"], FLOOR),
        (&["--oracle-check", "--oracle-floor", "100.5"], FLOOR),
    ];
    for &(extra, needle) in cases {
        let out = Command::new(env!("CARGO"))
            .args(["run", "--quiet", "--example", "explore", "--"])
            .args(extra)
            .output()
            .expect("spawns the explore example");
        assert_eq!(
            out.status.code(),
            Some(2),
            "explore {extra:?} should be a usage error: stdout {:?} stderr {:?}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            stderr.lines().count(),
            1,
            "explore {extra:?}: usage errors are one line: {stderr:?}"
        );
        assert!(
            stderr.contains(needle),
            "explore {extra:?}: unexpected message {stderr:?}"
        );
    }
}

/// The `zolcc` example: the corpus-wide CI gate passes, single-program
/// compile+run works on every executor spelling, the `--lint` pass is
/// clean on bundled programs, and usage errors hold the
/// one-line/exit-2 convention.
#[test]
fn zolcc_compiles_runs_and_rejects_usage_errors() {
    use std::process::Command;

    let zolcc = |extra: &[&str]| {
        Command::new(env!("CARGO"))
            .args(["run", "--quiet", "--example", "zolcc", "--"])
            .args(extra)
            .output()
            .expect("spawns the zolcc example")
    };

    // one program, auto-retargeted, architectural executor
    let out = zolcc(&["--corpus", "dot", "--target", "auto", "--executor", "nest"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("verified against the compile-time reference"));
    assert!(stdout.contains("auto-retarget: 1 hardware loops"));

    // emit modes produce their artifacts
    let out = zolcc(&["--corpus", "decay", "--emit", "ir"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("loop x10"));
    let out = zolcc(&["--corpus", "decay", "--emit", "asm"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("halt"));

    // the lint pass: a clean corpus program reports no findings on the
    // hand target and on the auto-retargeted binary (whose table image
    // supplies the hardware back edges the text no longer carries)
    for extra in [
        &["--corpus", "dot", "--lint"] as &[&str],
        &["--corpus", "matmul", "--target", "auto", "--lint"],
    ] {
        let out = zolcc(extra);
        assert!(
            out.status.success(),
            "zolcc {extra:?} found lints: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("clean: no findings"),
            "zolcc {extra:?}: lint summary missing"
        );
    }

    // usage errors: exit 2, one stderr line
    for extra in [
        &["--corpus", "no-such-program"] as &[&str],
        &["--corpus", "dot", "--executor", "warp"],
        &["--corpus", "dot", "--executor", "compiled"],
        &["--corpus", "dot", "--emit", "elf"],
        &["--corpus", "dot", "--target", "mystery"],
        &["--corpus", "dot", "--lint", "--emit", "asm"],
        &[],
    ] {
        let out = zolcc(extra);
        assert_eq!(
            out.status.code(),
            Some(2),
            "zolcc {extra:?} should be a usage error: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stderr).lines().count(),
            1,
            "zolcc {extra:?}: usage errors are one line"
        );
    }

    // compile diagnostics exit 1 with a line/column position
    let bad = std::env::temp_dir().join("zolcc_smoke_bad.zl");
    std::fs::write(&bad, "x = 1;\n").expect("writes the bad program");
    let out = zolcc(&[bad.to_str().expect("utf-8 temp path")]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("line 1, col 1") && stderr.contains("not declared"),
        "diagnostic missing position: {stderr:?}"
    );
    std::fs::remove_file(&bad).ok();
}

/// The `design_space` example: every explored configuration is valid and
/// none limits the processor cycle time.
#[test]
fn design_space_points_stay_uncritical() {
    let mut points = vec![ZolcConfig::micro(), ZolcConfig::lite(), ZolcConfig::full()];
    for loops in [2usize, 4, 6, 8] {
        let tasks = (4 * loops).min(32);
        points.push(ZolcConfig::custom(loops, tasks, 0, 0).expect("valid"));
        points.push(ZolcConfig::custom(loops, tasks, 4, 4).expect("valid"));
    }
    for cfg in &points {
        let storage = area::storage(cfg);
        let gates = area::gates(cfg);
        let timing = area::timing(cfg);
        assert!(storage.bytes() > 0 && gates.total() > 0);
        assert!(
            !timing.limits_cycle_time(),
            "{cfg}: fetch path limits cycle time"
        );
    }
}
