//! The run sharing of the E7 sweep, checked by running what it skips.
//!
//! A cell of a sweep program takes an earlier cell's statistics instead
//! of running when the retarget plan puts both in one synthesis class
//! (`RetargetPlan::synthesis_key`): a configuration that keeps every
//! loop in software takes the baseline cell's run, and every later
//! member of another class takes its first member's run. That includes
//! task-table configurations of different loop and task counts that
//! hold every handled loop (ZOLClite, ZOLCfull and custom 2L/8T). This
//! measures every E7 cell of seeds 1–400 of the standard shape, of the
//! `--trips 24` shape and of the `--no-dbnz` shape through
//! `measure_program`, and checks that each cell took the run of the
//! first earlier cell of its class, and ran otherwise. Then it builds
//! every cell on its own and runs every cell that took a run, and the
//! cell that made it, on all three executor tiers. The two builds must
//! have the same text, data and expectation, and the two runs must agree
//! on the outcome, the statistics, the registers, the memory, and the
//! controller's violations and architectural state.

use std::sync::Arc;
use zolc_bench::{measure_program, GeneratedProgram, SweepConfig, MAX_FUEL};
use zolc_cfg::{RetargetPlan, SynthesisKey};
use zolc_core::{Zolc, ZolcConfig};
use zolc_gen::{GenConfig, ProgramSpec};
use zolc_ir::Target;
use zolc_kernels::BuiltKernel;
use zolc_sim::{CpuConfig, Executor, ExecutorKind, NullEngine, RunError, Stats};

const SEEDS: std::ops::RangeInclusive<u64> = 1..=400;

/// Everything a finished run shows.
struct Ran {
    outcome: Result<Stats, RunError>,
    session: Box<dyn Executor>,
    /// The controller, for ZOLC targets.
    zolc: Option<Zolc>,
}

fn run(built: &BuiltKernel, kind: ExecutorKind) -> Ran {
    let mut session = kind
        .new_session(&built.program, CpuConfig::default())
        .expect("session opens");
    match built.target {
        Target::Zolc(config) => {
            let mut z = Zolc::new(config);
            let outcome = session.run(&mut z, MAX_FUEL);
            Ran {
                outcome,
                session,
                zolc: Some(z),
            }
        }
        _ => Ran {
            outcome: session.run(&mut NullEngine, MAX_FUEL),
            session,
            zolc: None,
        },
    }
}

/// The violations and architectural state of a run's controller; a run
/// with none shows the state of a controller that never ran.
fn controller(r: &Ran) -> (Vec<String>, zolc_core::DynState) {
    match &r.zolc {
        Some(z) => (z.violations().to_vec(), *z.arch_state()),
        None => (Vec::new(), *Zolc::new(ZolcConfig::lite()).arch_state()),
    }
}

/// Runs both builds on every tier and asserts the runs agree.
fn assert_same_runs(a: &BuiltKernel, b: &BuiltKernel, ctx: &str) {
    for kind in ExecutorKind::ALL {
        let (ra, rb) = (run(a, kind), run(b, kind));
        let ctx = format!("{ctx} on {kind:?}");
        assert_eq!(ra.outcome, rb.outcome, "{ctx}: outcome");
        assert_eq!(ra.session.stats(), rb.session.stats(), "{ctx}: stats");
        assert_eq!(ra.session.regs(), rb.session.regs(), "{ctx}: registers");
        assert!(ra.session.mem() == rb.session.mem(), "{ctx}: memory");
        assert_eq!(controller(&ra), controller(&rb), "{ctx}: controller");
    }
}

#[test]
fn shared_cells_run_alike_on_every_tier() {
    let shapes = [
        ("standard", GenConfig::default()),
        ("trips 24", GenConfig::default().with_max_trips(24)),
        ("no dbnz", GenConfig::default().with_dbnz(false)),
    ];
    for (shape, gen) in shapes {
        let cfg = SweepConfig::new().with_gen(gen);
        // cells sharing the baseline run, a run of their class, and a
        // run of a configuration with other loop or task counts
        let (mut baseline, mut class, mut across) = (0, 0, 0);
        for seed in SEEDS {
            let spec = ProgramSpec::generate(seed, &cfg.gen);
            let g = GeneratedProgram::from_spec(format!("{shape} gen{seed:05}"), spec);
            let measured = measure_program(&cfg, &g);
            let plan = RetargetPlan::new(Arc::clone(g.program.source())).expect("plan builds");
            let mut cells = vec![g.as_built(Target::Baseline)];
            let mut keys = vec![None];
            for p in &cfg.points {
                let auto = g
                    .as_built(Target::Baseline)
                    .retarget(p.config)
                    .expect("retarget succeeds");
                cells.push(auto.built);
                keys.push(Some(plan.synthesis_key(&p.config)));
            }
            // each cell against the cell the sweep took the run from
            for (j, b) in cells.iter().enumerate() {
                let first = match keys[j] {
                    Some(SynthesisKey::Software) => Some(0),
                    key => keys[..j].iter().position(|&k| k == key),
                };
                assert_eq!(
                    measured[j].shared_with, first,
                    "{} {}: the run the sweep took",
                    g.name, b.target
                );
                let Some(i) = first else {
                    continue;
                };
                let a = &cells[i];
                let ctx = format!("{} {} vs {}", g.name, a.target, b.target);
                let (pa, pb) = (a.program.source(), b.program.source());
                assert!(
                    pa.text() == pb.text() && pa.data() == pb.data(),
                    "{ctx}: program"
                );
                assert_eq!(a.expect, b.expect, "{ctx}: expectation");
                match (&a.target, &b.target) {
                    (Target::Zolc(x), Target::Zolc(y))
                        if (x.loops(), x.tasks()) != (y.loops(), y.tasks()) =>
                    {
                        across += 1;
                    }
                    _ => {}
                }
                if i == 0 {
                    baseline += 1;
                } else {
                    class += 1;
                }
                assert_same_runs(a, b, &ctx);
            }
        }
        eprintln!(
            "{shape}: {baseline} cells share the baseline run, {class} a run of their class \
             ({across} across loop or task counts)"
        );
        // the net must reach every sharing rule on every shape
        assert!(
            baseline >= 100 && class >= 100 && across >= 100,
            "{shape}: only {baseline}, {class} and {across} shared cells"
        );
    }
}
