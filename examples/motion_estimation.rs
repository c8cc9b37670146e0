//! Motion estimation — the paper's motivating workload — across every
//! processor configuration, including the multiple-exit early-termination
//! variant that needs ZOLCfull's exit records.
//!
//! Demonstrates the two-executor workflow: a fast *functional* pre-flight
//! validates every (kernel, configuration) cell architecturally, then the
//! *cycle-accurate* pipeline produces the numbers that matter.
//!
//! Run with `cargo run --example motion_estimation`.

use std::time::Instant;
use zolc::core::{area, ZolcConfig};
use zolc::ir::Target;
use zolc::kernels::{
    build_me_fs, build_me_fs_early, build_me_tss, run_kernel, BuildFn, ExecutorKind,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let configs: Vec<(&str, Target)> = vec![
        ("XRdefault", Target::Baseline),
        ("XRhrdwil", Target::HwLoop),
        ("ZOLClite", Target::Zolc(ZolcConfig::lite())),
        ("ZOLCfull", Target::Zolc(ZolcConfig::full())),
    ];
    let kernels: Vec<(&str, BuildFn)> = vec![
        ("me_fs (full search)", build_me_fs as BuildFn),
        ("me_tss (three-step)", build_me_tss as BuildFn),
        ("me_fs_early (early exit)", build_me_fs_early as BuildFn),
    ];

    // Pre-flight: validate every cell on the functional executor (no
    // cycle counts and no pipeline model — the tier for correctness
    // sweeps).
    let start = Instant::now();
    let mut cells = 0;
    for (kname, build) in &kernels {
        for (cname, target) in &configs {
            let built = build(target)?;
            let run = built.run(50_000_000, ExecutorKind::Functional)?;
            assert!(run.is_correct(), "{kname} on {cname} diverged");
            cells += 1;
        }
    }
    println!(
        "functional pre-flight: {cells} cells architecturally correct in {:.1} ms\n",
        start.elapsed().as_secs_f64() * 1e3
    );

    for (kname, build) in &kernels {
        println!("=== {kname} ===");
        let mut baseline = None;
        for (cname, target) in &configs {
            let built = build(target)?;
            let run = run_kernel(&built, 50_000_000)?;
            assert!(run.is_correct(), "{kname} on {cname} diverged");
            let cycles = run.stats.cycles;
            let base = *baseline.get_or_insert(cycles);
            println!(
                "  {cname:<10} {cycles:>8} cycles  ({:.3} relative){}",
                cycles as f64 / base as f64,
                if built.info.notes.is_empty() {
                    String::new()
                } else {
                    format!("  [{}]", built.info.notes.join("; "))
                }
            );
        }
        println!();
    }

    println!("hardware cost of the configurations (paper section 3):");
    for cfg in [ZolcConfig::micro(), ZolcConfig::lite(), ZolcConfig::full()] {
        println!(
            "  {:<9} {:>4} bytes storage, {:>5} equivalent gates, {}",
            cfg.variant().to_string(),
            area::storage(&cfg).bytes(),
            area::gates(&cfg).total(),
            area::timing(&cfg)
        );
    }
    Ok(())
}
