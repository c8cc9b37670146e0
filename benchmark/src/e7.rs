//! `e7_sweep`: back-to-back standard E7 sweeps through
//! `zolc_bench::run_sweep`, and a traced replay of the same public
//! calls that reproduces its `SweepReport`.

use crate::report::{self, Metric, Outcome};
use crate::trace::Tracer;
use crate::{expectation_holds, panic_message, Args, PINS, SETUPS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};
use zolc_analyze::{solve, Liveness, RegSet};
use zolc_bench::{run_sweep, GeneratedProgram, PointSummary, SweepConfig, SweepReport, MAX_FUEL};
use zolc_cfg::{detect_counted_loops, retarget, Cfg, Dominators, LoopForest};
use zolc_core::{Zolc, ZolcConfig};
use zolc_gen::{Feature, ProgramSpec};
use zolc_isa::{reg, DATA_BASE};
use zolc_kernels::{AutoStats, Expectation};
use zolc_sim::{run_session, CompiledProgram, CpuConfig, ExecutorKind, NullEngine, Stats};

/// Distinct sweeps per round.
pub const SWEEPS: u64 = 10;

/// The standard E7 sweep, unchanged from `SweepConfig::new()` (uZOLC,
/// ZOLClite, ZOLCfull, custom 2L/8T; its 400 programs; default
/// generator knobs; cycle-accurate) except for its generator seeds:
/// sweep `k` of workload seed `seed` takes a disjoint range far from
/// the canary's `1..=400`.
pub fn standard(seed: u64, k: u64) -> SweepConfig {
    let cfg = SweepConfig::new();
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let base = (((z & 0xFFFF_FFFF) + 1) << 20) | (k * cfg.programs as u64);
    cfg.with_base_seed(base)
}

/// The pinned digest of a sweep report.
pub fn digest(r: &SweepReport) -> String {
    format!(
        "{:016x}",
        report::fnv1a(zolc_bench::report_json(r).render().as_bytes())
    )
}

/// The pin recorded for the first sweep of workload seed `seed`, or for
/// the canary (`seed = None`).
fn pinned(seed: Option<u64>) -> Option<String> {
    let key = seed.map_or("canary".to_owned(), |s| format!("seed{s}"));
    report::pin(PINS, &["e7", &key]).map(|f| f[0].to_owned())
}

/// Checks one sweep against its pin; `None` when nothing is pinned.
fn check_pin(seed: Option<u64>, r: &SweepReport) -> Option<bool> {
    pinned(seed).map(|p| p == digest(r))
}

fn sweep_caught(cfg: &SweepConfig) -> Result<SweepReport, String> {
    catch_unwind(AssertUnwindSafe(|| run_sweep(cfg))).map_err(panic_message)
}

fn lite_median(r: &SweepReport) -> f64 {
    r.points
        .iter()
        .find(|p| p.label == "ZOLClite")
        .map_or(0.0, |p| p.savings_quantile(0.5))
}

/// Set-up: the canary sweep (`SweepConfig::new()`, seeds 1..=400)
/// through `run_sweep`, checked against its pin. Returns the seconds
/// it took; counts its cells into `out`.
fn setup(out: &mut Outcome) -> f64 {
    let cfg = SweepConfig::new();
    let t = Instant::now();
    let r = sweep_caught(&cfg);
    let secs = t.elapsed().as_secs_f64();
    out.attempted += cfg.cells() as u64;
    match r {
        Ok(r) if check_pin(None, &r) == Some(true) => {}
        Ok(r) => {
            println!("e7 canary digest {} does not match its pin", digest(&r));
            out.failed += cfg.cells() as u64;
        }
        Err(e) => {
            println!("e7 canary sweep panicked: {e}");
            out.failed += cfg.cells() as u64;
        }
    }
    secs
}

/// Checks sweep `k` of a round: the first round records its report
/// digest (and checks sweep 0 against the seed's pin, when pinned);
/// later rounds must reproduce it.
fn check_sweep(seed: u64, k: u64, r: &SweepReport, first: &mut [Option<String>]) -> bool {
    let d = digest(r);
    if k == 0 && first[0].is_none() && check_pin(Some(seed), r) == Some(false) {
        println!("e7 seed {seed} digest {d} does not match its pin");
        return false;
    }
    let want = first[k as usize].get_or_insert_with(|| d.clone());
    if *want != d {
        println!("e7 sweep {k} digest {d} differs from its first round's {want}");
        return false;
    }
    true
}

/// Runs the workload (see the crate docs for the two modes).
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = vec![setup(&mut out)];
    if args.trace {
        traced(args, &mut out);
        return out;
    }
    let budget = Duration::from_secs_f64(args.seconds);
    let mut first = vec![None; SWEEPS as usize];
    let mut latencies = Vec::new();
    let mut lite = Vec::new();
    let mut busy = Duration::ZERO;
    let mut rounds = 0;
    while busy < budget {
        for k in 0..SWEEPS {
            let cfg = standard(args.seed, k);
            let t = Instant::now();
            let r = sweep_caught(&cfg);
            let dt = t.elapsed();
            busy += dt;
            out.attempted += cfg.cells() as u64;
            let ok = match r {
                Ok(r) => {
                    if rounds == 0 {
                        lite.push(lite_median(&r));
                    }
                    check_sweep(args.seed, k, &r, &mut first)
                }
                Err(e) => {
                    println!("e7 sweep {k} panicked: {e}");
                    false
                }
            };
            if ok {
                latencies.push(dt.as_secs_f64());
            } else {
                out.failed += cfg.cells() as u64;
            }
        }
        rounds += 1;
        while report::setup_due(setups.len(), busy, budget) {
            setups.push(setup(&mut out));
        }
    }
    while setups.len() < SETUPS {
        setups.push(setup(&mut out));
    }
    let cells = SweepConfig::new().cells();
    let sweeps_per_s = latencies.len() as f64 / busy.as_secs_f64();
    println!(
        "e7_sweep: {rounds} rounds of {SWEEPS} sweeps ({cells} cells each), {} threads",
        threads()
    );
    println!(
        "cells_per_s {:.1} 1/s (checked cells over the busy time)",
        cells as f64 * sweeps_per_s
    );
    println!(
        "lite_saving_median_pct {:.3} % (median over the {} sweeps; modelled design, no published reference for the generated space)",
        report::median(&lite),
        lite.len()
    );
    out.metrics = report::end_to_end(sweeps_per_s, &latencies, &setups);
    out
}

fn threads() -> usize {
    thread::available_parallelism().map_or(1, usize::from)
}

/// Rounds of the replay over the run's sweeps: until `budget` is spent,
/// or exactly `rounds` rounds when given. Returns the rounds run and
/// the total replay time.
fn replay_rounds(
    args: &Args,
    budget: Duration,
    rounds: Option<u64>,
    tr: &mut Tracer,
    first: &mut [Option<String>],
    out: &mut Outcome,
) -> (u64, Duration) {
    let threads = threads();
    let mut busy = Duration::ZERO;
    let mut done = 0;
    let mut id = 0;
    while rounds.map_or(busy < budget, |r| done < r) {
        for k in 0..SWEEPS {
            let r = replay_sweep(&standard(args.seed, k), tr, threads, id);
            id += r.cells;
            busy += r.wall;
            out.attempted += r.cells;
            if r.failed > 0 || !check_sweep(args.seed, k, &r.report, first) {
                out.failed += r.cells.max(r.failed);
            }
        }
        done += 1;
    }
    (done, busy)
}

/// The traced run: rounds of the replay with the tracer off for half of
/// the time, then as many rounds with it on.
fn traced(args: &Args, out: &mut Outcome) {
    // the replay must agree with run_sweep on the pinned canary
    let canary = replay_sweep(&SweepConfig::new(), &mut Tracer::off(), threads(), 0);
    out.attempted += canary.cells;
    out.failed += canary.failed;
    if check_pin(None, &canary.report) != Some(true) {
        println!(
            "e7 replayed canary digest {} does not match its pin",
            digest(&canary.report)
        );
        out.failed += canary.cells;
    }

    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let mut first = vec![None; SWEEPS as usize];
    let (rounds, off_wall) = replay_rounds(args, half, None, &mut Tracer::off(), &mut first, out);
    let mut tr = Tracer::on();
    let (_, on_wall) = replay_rounds(args, half, Some(rounds), &mut tr, &mut first, out);
    let cells = rounds * SWEEPS * SweepConfig::new().cells() as u64;
    let threads = threads();
    crate::write_trace("e7_sweep", args.seed, &tr);
    println!(
        "e7_sweep traced: {rounds} rounds of {SWEEPS} sweeps, {cells} cells; spans (self time excludes children):"
    );
    print!("{}", tr.summary());

    let per_cell = |name: &str| tr.agg(name).total_ns as f64 * 1e-9 / cells as f64;
    let calls = tr.counter("cfg.retarget_calls");
    let hw = tr.counter("cfg.hw_loops");
    let unhandled = tr.counter("cfg.unhandled");
    let mut m = Vec::new();
    for (metric, span) in [
        ("gen.generate_s", "gen.generate"),
        ("gen.assemble_s", "gen.assemble"),
        ("bench.reference_s", "bench.reference"),
        ("sim.compile_s", "sim.compile"),
        ("cfg.retarget_s", "cfg.retarget"),
        ("cfg.cfg_build_s", "cfg.cfg_build"),
        ("cfg.dominators_s", "cfg.dominators"),
        ("cfg.loop_forest_s", "cfg.loop_forest"),
        ("cfg.detect_s", "cfg.detect"),
        ("analyze.liveness_s", "analyze.liveness"),
        ("sim.session_open_s", "sim.session_open"),
        ("sim.run_s", "sim.run"),
        ("kernels.check_s", "kernels.check"),
    ] {
        m.push(Metric {
            name: metric,
            value: per_cell(span),
        });
    }
    // counts per cell, and per retarget call for the fields of Retargeted
    for (name, per) in [
        ("cfg.retarget_calls", cells),
        ("sim.retired", cells),
        ("sim.cycles", cells),
        ("cfg.hw_loops", calls),
        ("cfg.unhandled", calls),
        ("cfg.init_instructions", calls),
    ] {
        m.push(Metric {
            name,
            value: tr.counter(name) as f64 / per.max(1) as f64,
        });
    }
    m.push(Metric {
        name: "cfg.handled_ratio",
        value: hw as f64 / (hw + unhandled).max(1) as f64,
    });
    let busy = tr.agg("bench.program").total_ns + tr.agg("bench.cell").total_ns;
    m.push(Metric {
        name: "bench.parallel_efficiency",
        value: busy as f64 * 1e-9 / (threads as f64 * on_wall.as_secs_f64()),
    });
    m.push(Metric {
        name: "trace.overhead_pct",
        value: 100.0 * (on_wall.as_secs_f64() / off_wall.as_secs_f64() - 1.0),
    });
    out.metrics = report::per_layer(m);
}

/// What one replayed sweep produced.
#[derive(Debug)]
pub struct Replay {
    /// The aggregated report (programs or cells that failed are left
    /// out, so a failing replay does not reproduce `run_sweep`).
    pub report: SweepReport,
    /// Cells attempted.
    pub cells: u64,
    /// Cells that failed a check, errored or panicked.
    pub failed: u64,
    /// Wall time of the replay.
    pub wall: Duration,
}

struct CellOut {
    stats: Stats,
    auto: Option<AutoStats>,
}

/// Replays `run_sweep(cfg)` through the same public calls, timing each
/// one in `tr`: per program `ProgramSpec::generate`, `assemble`,
/// `CompiledProgram::compile` and the functional reference run; per
/// cell `retarget` (auto cells, with its CFG / dominators / loop forest
/// / detection / liveness stages replayed alongside when tracing),
/// `new_session`, `Executor::run` and the expectation check. Cell ids
/// start at `id_base`; program `i` shares its id with its baseline cell.
pub fn replay_sweep(cfg: &SweepConfig, tr: &mut Tracer, threads: usize, id_base: u64) -> Replay {
    let start = Instant::now();
    let stride = 1 + cfg.points.len();
    let id_of = |cell: usize| id_base + cell as u64;

    let generated = par_traced(cfg.programs, threads, tr, |i, t| {
        let id = id_of(i * stride);
        let depth = t.depth();
        t.enter("bench.program", id);
        let r = catch_unwind(AssertUnwindSafe(|| generate(cfg, i, id, t))).map_err(panic_message);
        t.unwind_to(depth);
        r.and_then(|g| g).map(Arc::new)
    });

    let cells = cfg.programs * stride;
    let results = par_traced(cells, threads, tr, |k, t| {
        let Ok(g) = &generated[k / stride] else {
            return Err("program failed".to_owned());
        };
        let point = (k % stride).checked_sub(1).map(|j| cfg.points[j].config);
        let id = id_of(k);
        let depth = t.depth();
        t.enter("bench.cell", id);
        let r = catch_unwind(AssertUnwindSafe(|| cell(g, point, cfg.executor, id, t)))
            .map_err(panic_message);
        t.unwind_to(depth);
        r.and_then(|c| c)
    });

    let mut failed = 0u64;
    let mut points: Vec<PointSummary> = cfg
        .points
        .iter()
        .map(|p| PointSummary {
            label: p.label.clone(),
            hw_loops: 0,
            unhandled: 0,
            coverage: Feature::ALL.iter().map(|&f| (f, 0, 0)).collect(),
            savings: Vec::new(),
        })
        .collect();
    let mut programs = 0;
    let mut total_loops = 0;
    let mut counted_cells = 0;
    for (g, chunk) in generated.iter().zip(results.chunks_exact(stride)) {
        let bad = chunk.iter().filter(|c| c.is_err()).count() as u64;
        let Ok(g) = g else {
            failed += stride as u64;
            continue;
        };
        if bad > 0 {
            failed += bad;
            continue;
        }
        let cells: Vec<&CellOut> = chunk
            .iter()
            .map(|c| c.as_ref().expect("checked above"))
            .collect();
        let mut ok = true;
        for (p, m) in cfg.points.iter().zip(&cells[1..]) {
            let auto = m.auto.as_ref().expect("auto cells carry retarget stats");
            let lost = auto.hw_loops + auto.unhandled != g.spec.loop_count();
            let full =
                p.config.loops() >= cfg.gen.max_loops && p.config.tasks() >= cfg.gen.max_loops;
            if lost || (full && auto.unhandled != g.spec.predicted_unhandled()) {
                failed += 1;
                ok = false;
            }
        }
        if !ok {
            continue;
        }
        programs += 1;
        counted_cells += stride;
        total_loops += g.spec.loop_count();
        let base = cells[0];
        for (summary, m) in points.iter_mut().zip(&cells[1..]) {
            let auto = m.auto.as_ref().expect("auto cells carry retarget stats");
            summary.hw_loops += auto.hw_loops;
            summary.unhandled += auto.unhandled;
            for ((depth, shape), start) in g.spec.flatten().iter().zip(&g.loop_starts) {
                let handled = auto.hw_loop_starts.contains(start);
                for f in shape.features(*depth) {
                    let slot = &mut summary.coverage[f as usize];
                    slot.2 += 1;
                    if handled {
                        slot.1 += 1;
                    }
                }
            }
            if cfg.executor == ExecutorKind::CycleAccurate {
                let b = base.stats.cycles as f64;
                summary
                    .savings
                    .push(100.0 * (b - m.stats.cycles as f64) / b);
            }
        }
    }
    for p in &mut points {
        p.savings.sort_by(f64::total_cmp);
    }
    Replay {
        report: SweepReport {
            programs,
            cells: counted_cells,
            total_loops,
            points,
        },
        cells: cells as u64,
        failed,
        wall: start.elapsed(),
    }
}

/// Program `i` of the sweep: generate, assemble, compile, and derive
/// the reference expectation from a functional run with no controller.
fn generate(
    cfg: &SweepConfig,
    i: usize,
    id: u64,
    t: &mut Tracer,
) -> Result<GeneratedProgram, String> {
    let seed = cfg.base_seed + i as u64;
    let name = format!("gen{seed:05}");
    let spec = t.time("gen.generate", id, || ProgramSpec::generate(seed, &cfg.gen));
    let assembled = t
        .time("gen.assemble", id, || spec.assemble())
        .map_err(|e| format!("{name}: spec failed to assemble: {e}"))?;
    let program = t.time("sim.compile", id, || {
        CompiledProgram::compile(assembled.program)
    });
    let expect = t.time("bench.reference", id, || {
        let fin = run_session(
            ExecutorKind::Functional,
            &program,
            &mut NullEngine,
            MAX_FUEL,
        )
        .map_err(|e| format!("{name}: reference run failed: {e}"))?;
        let words = fin
            .cpu
            .mem()
            .read_words(DATA_BASE, 64)
            .map_err(|e| format!("{name}: data window unreadable: {e}"))?;
        let regs = (1..=9)
            .map(|i| (reg(i), fin.cpu.regs().read(reg(i))))
            .collect();
        Ok::<_, String>(Expectation {
            mem_words: vec![(DATA_BASE, words)],
            regs,
        })
    })?;
    Ok(GeneratedProgram {
        name,
        spec,
        program,
        loop_starts: assembled.loop_starts,
        expect,
    })
}

/// One matrix cell: the baseline program as-is (`point = None`) or
/// auto-retargeted onto `point`.
fn cell(
    g: &GeneratedProgram,
    point: Option<ZolcConfig>,
    executor: ExecutorKind,
    id: u64,
    t: &mut Tracer,
) -> Result<CellOut, String> {
    let name = &g.name;
    let Some(config) = point else {
        let (stats, ok) = run_checked(&g.program, &g.expect, &mut NullEngine, executor, id, t)?;
        return if ok {
            Ok(CellOut { stats, auto: None })
        } else {
            Err(format!("{name}/baseline: incorrect run"))
        };
    };
    let r = t
        .time("cfg.retarget", id, || retarget(g.program.source(), &config))
        .map_err(|e| format!("{name} (auto): retarget failed: {e}"))?;
    let stats = AutoStats::from(&r);
    t.count("cfg.retarget_calls", 1);
    t.count("cfg.hw_loops", stats.hw_loops as u64);
    t.count("cfg.unhandled", stats.unhandled as u64);
    t.count("cfg.init_instructions", r.init_instructions as u64);
    if t.is_on() {
        retarget_stages(g, id, t);
    }
    let mut expect = g.expect.clone();
    if r.init_instructions > 0 {
        expect.regs.retain(|(rg, _)| *rg != r.scratch);
    }
    let program = t.time("sim.compile", id, || {
        CompiledProgram::compile(Arc::clone(&r.program))
    });
    let mut z = Zolc::new(config);
    let (run_stats, ok) = run_checked(&program, &expect, &mut z, executor, id, t)?;
    if ok && z.violations().is_empty() {
        Ok(CellOut {
            stats: run_stats,
            auto: Some(stats),
        })
    } else {
        Err(format!("{name} (auto): incorrect run"))
    }
}

/// Replays the analysis stages `retarget` starts with, on the same
/// binary, as a stage split of its time.
fn retarget_stages(g: &GeneratedProgram, id: u64, t: &mut Tracer) {
    let program = g.program.source();
    let cfg = t.time("cfg.cfg_build", id, || Cfg::build(program));
    let dom = t.time("cfg.dominators", id, || Dominators::compute(&cfg));
    let forest = t.time("cfg.loop_forest", id, || LoopForest::analyze(&cfg, &dom));
    let counted = t.time("cfg.detect", id, || {
        detect_counted_loops(program, &cfg, &forest)
    });
    let live = t.time("analyze.liveness", id, || {
        solve(
            &cfg.flow(program),
            &Liveness {
                at_exit: RegSet::EMPTY,
            },
        )
    });
    std::hint::black_box((counted, live));
}

/// Opens a session, runs it to `halt` and checks the expectation,
/// recording the three spans. Returns the statistics and whether the
/// architectural state matched.
fn run_checked(
    program: &Arc<CompiledProgram>,
    expect: &Expectation,
    engine: &mut dyn zolc_sim::LoopEngine,
    executor: ExecutorKind,
    id: u64,
    t: &mut Tracer,
) -> Result<(Stats, bool), String> {
    let t0 = Instant::now();
    let mut cpu = executor
        .new_session(program, CpuConfig::default())
        .map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let stats = cpu.run(engine, MAX_FUEL).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let ok = expectation_holds(cpu.as_ref(), expect);
    let t3 = Instant::now();
    t.record("sim.session_open", id, t0, t1);
    t.record("sim.run", id, t1, t2);
    t.record("kernels.check", id, t2, t3);
    t.count("sim.retired", stats.retired);
    t.count("sim.cycles", stats.cycles);
    Ok((stats, ok))
}

/// `f(0)..f(n-1)` over at most `threads` scoped workers claiming
/// indices from an atomic cursor (the scheme `run_sweep` uses), each
/// with its own forked tracer, merged back into `tr` afterwards.
fn par_traced<T, F>(n: usize, threads: usize, tr: &mut Tracer, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut Tracer) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let forks: Vec<Tracer> = (0..threads).map(|_| tr.fork()).collect();
    let done: Vec<Tracer> = thread::scope(|s| {
        let handles: Vec<_> = forks
            .into_iter()
            .map(|mut t| {
                let (next, slots, f) = (&next, &slots, &f);
                s.spawn(move || {
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= n {
                            break;
                        }
                        let v = f(k, &mut t);
                        *slots[k].lock().expect("result slot poisoned") = Some(v);
                    }
                    t
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("replay worker panicked outside a caught cell")
            })
            .collect()
    });
    for t in done {
        tr.merge(t);
    }
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("every index is claimed once")
        })
        .collect()
}

/// Pin lines for the canary and the first sweep of each given seed.
pub fn record_pins(seeds: &[u64]) -> Vec<String> {
    let mut lines = vec![format!(
        "e7 canary {}",
        digest(&run_sweep(&SweepConfig::new()))
    )];
    for &s in seeds {
        let r = run_sweep(&standard(s, 0));
        lines.push(format!("e7 seed{s} {}", digest(&r)));
    }
    lines
}
