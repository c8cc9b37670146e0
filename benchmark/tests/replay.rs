//! The traced E7 replay must reproduce `run_sweep` exactly.

use zolc_bench::{run_sweep, SweepConfig, SweepPoint};
use zolc_core::ZolcConfig;
use zolc_repo_bench::e7::replay_sweep;
use zolc_repo_bench::trace::Tracer;
use zolc_sim::ExecutorKind;

#[test]
fn traced_replay_reproduces_the_sweep_report() {
    for base in [1, 100, 5_000] {
        let cfg = SweepConfig::new().with_base_seed(base).with_programs(16);
        let want = run_sweep(&cfg);
        for threads in [1, 2] {
            let mut tr = Tracer::on();
            let got = replay_sweep(&cfg, &mut tr, threads, 0);
            assert_eq!(got.failed, 0, "seeds from {base}");
            assert_eq!(got.cells, cfg.cells() as u64);
            assert_eq!(got.report, want, "seeds from {base}, {threads} threads");
            // one cell span per cell, one retarget per auto cell
            assert_eq!(tr.agg("bench.cell").count, cfg.cells() as u64);
            assert_eq!(tr.counter("cfg.retarget_calls"), 16 * 4);
            assert_eq!(tr.agg("sim.run").count, cfg.cells() as u64);
        }
    }
}

#[test]
fn untraced_replay_agrees_on_other_shapes() {
    let cfg = SweepConfig::new()
        .with_programs(10)
        .with_base_seed(321)
        .with_points(vec![SweepPoint::new("ZOLClite", ZolcConfig::lite())])
        .with_executor(ExecutorKind::Functional);
    let got = replay_sweep(&cfg, &mut Tracer::off(), 2, 0);
    assert_eq!(got.report, run_sweep(&cfg));
}
