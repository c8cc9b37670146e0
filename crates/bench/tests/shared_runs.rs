//! The run sharing of the E7 sweep, checked by running what it skips.
//!
//! A cell of a sweep program takes an earlier cell's statistics instead
//! of running when both builds have the same text, data and
//! expectation, and see the same controller (`ZolcConfig::seen_by`:
//! none for a text that never touches it, and `ZOLCfull` as `ZOLClite`
//! for a text that writes no entry or exit record). This measures every
//! E7 cell of seeds 1–400 of the standard shape, of the `--trips 24`
//! shape and of the `--no-dbnz` shape through `measure_program`, and
//! checks that each cell took the run of the first earlier cell of its
//! program that agrees with it on that key, and ran otherwise. Then it
//! runs every cell that took a run, and the cell that made it, on all
//! three executor tiers. The two runs must agree on the outcome, the
//! statistics, the registers, the memory, and the controller's
//! violations and architectural state.

use std::sync::Arc;
use zolc_bench::{measure_program, GeneratedProgram, SweepConfig, MAX_FUEL};
use zolc_cfg::RetargetPlan;
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

/// The controller as a run of `built` sees it (the sweep's key).
fn seen(built: &BuiltKernel) -> Option<ZolcConfig> {
    match built.target {
        Target::Zolc(config) => config.seen_by(built.program.source().text()),
        _ => None,
    }
}

/// Whether the sweep lets one of `a` and `b` take the other's run.
fn shared(a: &BuiltKernel, b: &BuiltKernel) -> bool {
    let (pa, pb) = (a.program.source(), b.program.source());
    pa.text() == pb.text() && pa.data() == pb.data() && a.expect == b.expect && seen(a) == seen(b)
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
        // cells sharing a run with no controller, and with one
        let (mut inert, mut active) = (0, 0);
        for seed in SEEDS {
            let spec = ProgramSpec::generate(seed, &cfg.gen);
            let g = GeneratedProgram::from_spec(format!("{shape} gen{seed:05}"), spec);
            let measured = measure_program(&cfg, &g);
            let plan = RetargetPlan::new(Arc::clone(g.program.source())).expect("plan builds");
            let mut cells = vec![g.as_built(Target::Baseline)];
            for p in &cfg.points {
                let auto = g
                    .as_built(Target::Baseline)
                    .retarget_with(&plan, p.config)
                    .expect("retarget succeeds");
                cells.push(auto.built);
            }
            // each cell against the first earlier cell it shares a run
            // with: the one the sweep took the run from
            for (j, b) in cells.iter().enumerate() {
                let first = cells[..j].iter().position(|a| shared(a, b));
                assert_eq!(
                    measured[j].shared_with, first,
                    "{} {}: the run the sweep took",
                    g.name, b.target
                );
                let Some(i) = first else {
                    continue;
                };
                let a = &cells[i];
                if seen(a).is_none() {
                    inert += 1;
                } else {
                    active += 1;
                }
                let ctx = format!("{} {} vs {}", g.name, a.target, b.target);
                assert_same_runs(a, b, &ctx);
            }
        }
        eprintln!("{shape}: {inert} cells share a run with no controller, {active} with one");
        // the net must reach both sharing rules on every shape
        assert!(
            inert >= 100 && active >= 100,
            "{shape}: only {inert} and {active} shared cells"
        );
    }
}
