//! E7 — the design-space explorer: generated loop structures swept
//! across controller configurations at scale.
//!
//! The twelve Fig. 2 kernels sample twelve points of the "arbitrarily
//! complex loop structures" space; this module sweeps the space itself.
//! `zolc-gen` samples a family of baseline programs from seeds
//! (parameterized loop depth, imperfection, sibling inner loops, bound
//! sourcing, latch style and loop-crossing branches). [`run_sweep`]
//! hands each seed to one parallel job, which generates the program and
//! derives its reference expectation, then measures
//!
//! * one **baseline** cell (the software-loop program as-is, the cycle
//!   reference), and
//! * one **auto-retarget** cell per controller configuration (the same
//!   binary excised and overlaid from one shared [`RetargetPlan`]),
//!
//! in that order ([`measure_program`]). Every cell — thousands per
//! sweep — is gated on bit-exact equivalence with the program's derived
//! reference expectation *and* on an empty controller-consistency
//! journal before any number is aggregated. Each synthesis class of
//! the plan ([`zolc_cfg::SynthesisKey`]) is synthesized, compiled and
//! run once, and its other cells take that run, which passed the same
//! gate (see [`SweepCell::shared_with`]). On the standard sweep an auto
//! cell whose configuration keeps every loop in software takes the
//! baseline run, and ZOLCfull and custom 2L/8T take ZOLClite's run
//! whenever their capacity holds every handled loop: 986 of 2000
//! cells, and 614 of 1600 syntheses relink. On full-capacity
//! configurations the per-program software-fallback count is
//! additionally held to `zolc_gen`'s documented handledness prediction,
//! so a silent retargeter regression fails the sweep rather than
//! skewing a distribution. Each job folds its program's cells into its
//! share of the retarget coverage per shape feature (which loop shapes
//! reach hardware on which configuration) and of the cycle savings per
//! configuration; the sweep sums the shares in seed order.

use crate::json::Json;
use crate::matrix::{par_map, MAX_FUEL};
use crate::table::render_table;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;
use zolc_cfg::{RetargetPlan, SynthesisKey};
use zolc_core::ZolcConfig;
use zolc_gen::{Feature, GenConfig, ProgramSpec};
use zolc_ir::Target;
use zolc_isa::{reg, DATA_BASE};
use zolc_kernels::{AutoStats, BuiltKernel, Expectation};
use zolc_sim::{run_session, CompiledProgram, ExecutorKind, NullEngine, Stats};

/// A generated baseline program, assembled once and shared by every
/// cell that measures it, together with the reference expectation
/// derived from its own functional execution.
///
/// The derivation runs the program on the functional executor with no
/// loop controller attached and captures the architectural results
/// generated bodies can produce: registers `r1`–`r9` and the 256-byte
/// data window at `DATA_BASE`. Counter and bound registers are excluded
/// by construction (generated bodies cannot touch them), which is
/// exactly the equivalence contract of `zolc_cfg::retarget` — freed
/// down-counters are the one permitted architectural difference.
#[derive(Debug, Clone)]
pub struct GeneratedProgram {
    /// Stable program name (appears in failure messages).
    pub name: String,
    /// The shape the program was assembled from.
    pub spec: ProgramSpec,
    /// The assembled baseline (software-loop) program, predecoded
    /// once; every cell that measures it (and every
    /// daemon job that replays it) opens a session over this one
    /// `Arc`-shared [`CompiledProgram`].
    pub program: Arc<CompiledProgram>,
    /// Body-start address of every loop, in `spec.flatten()` order.
    pub loop_starts: Vec<u32>,
    /// The derived reference expectation every cell is gated on.
    pub expect: Expectation,
}

impl GeneratedProgram {
    /// Assembles `spec` and derives its reference expectation.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails to assemble or the reference run faults
    /// — a generated program that cannot produce its own reference is a
    /// generator bug, fatal by the same convention as any other cell
    /// failure.
    pub fn from_spec(name: impl Into<String>, spec: ProgramSpec) -> GeneratedProgram {
        let name = name.into();
        let assembled = spec
            .assemble()
            .unwrap_or_else(|e| panic!("{name}: spec failed to assemble: {e}"));
        let program = CompiledProgram::compile(assembled.program);
        let fin = run_session(
            ExecutorKind::Functional,
            &program,
            &mut NullEngine,
            MAX_FUEL,
        )
        .unwrap_or_else(|e| panic!("{name}: reference run failed: {e}"));
        let words = fin
            .cpu
            .mem()
            .read_words(DATA_BASE, 64)
            .expect("data window is readable");
        let regs = (1..=9)
            .map(|i| (reg(i), fin.cpu.regs().read(reg(i))))
            .collect();
        GeneratedProgram {
            name,
            spec,
            program,
            loop_starts: assembled.loop_starts,
            expect: Expectation {
                mem_words: vec![(DATA_BASE, words)],
                regs,
            },
        }
    }

    /// Wraps the baseline program as a runnable, expectation-carrying
    /// build for `target` (how [`measure_program`] builds every cell;
    /// auto-retarget cells then call [`BuiltKernel::retarget_with`]).
    pub fn as_built(&self, target: Target) -> BuiltKernel {
        BuiltKernel {
            name: self.name.clone(),
            program: Arc::clone(&self.program),
            target,
            expect: self.expect.clone(),
            info: zolc_ir::LoweredInfo::default(),
        }
    }
}

/// One controller configuration of a sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Display label.
    pub label: String,
    /// The configuration.
    pub config: ZolcConfig,
}

impl SweepPoint {
    /// A labelled controller configuration.
    pub fn new(label: impl Into<String>, config: ZolcConfig) -> SweepPoint {
        SweepPoint {
            label: label.into(),
            config,
        }
    }
}

/// Parameters of one design-space sweep (see [`run_sweep`]).
///
/// Non-exhaustive: construct with [`SweepConfig::new`] and shape it
/// with the `with_*` builders, so sweeps keep deserializing and
/// fingerprinting cleanly when knobs are added.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SweepConfig {
    /// Number of generated programs (seeds `base_seed..base_seed + n`).
    pub programs: usize,
    /// First seed.
    pub base_seed: u64,
    /// The shape-space knobs handed to `zolc_gen`.
    pub gen: GenConfig,
    /// The controller configurations swept per program.
    pub points: Vec<SweepPoint>,
    /// The executor cells run on ([`ExecutorKind::CycleAccurate`] for
    /// savings distributions; [`ExecutorKind::Functional`] or
    /// [`ExecutorKind::Nest`] for a correctness-only sweep that reports
    /// no cycles).
    pub executor: ExecutorKind,
}

impl SweepConfig {
    /// The standard E7 sweep shape: 400 programs from seed 1, the
    /// default generator knobs, the three paper configurations plus one
    /// under-provisioned custom point (2 loops / 8 tasks, where
    /// capacity trimming becomes visible), cycle-accurate.
    pub fn new() -> SweepConfig {
        SweepConfig {
            programs: 400,
            base_seed: 1,
            gen: GenConfig::default(),
            points: vec![
                SweepPoint::new("uZOLC", ZolcConfig::micro()),
                SweepPoint::new("ZOLClite", ZolcConfig::lite()),
                SweepPoint::new("ZOLCfull", ZolcConfig::full()),
                SweepPoint::new(
                    "custom 2L/8T",
                    ZolcConfig::custom(2, 8, 0, 0).expect("valid custom point"),
                ),
            ],
            executor: ExecutorKind::CycleAccurate,
        }
    }

    /// Sets the number of generated programs.
    #[must_use]
    pub fn with_programs(mut self, programs: usize) -> SweepConfig {
        self.programs = programs;
        self
    }

    /// Sets the first seed.
    #[must_use]
    pub fn with_base_seed(mut self, base_seed: u64) -> SweepConfig {
        self.base_seed = base_seed;
        self
    }

    /// Sets the shape-space knobs handed to `zolc_gen`.
    #[must_use]
    pub fn with_gen(mut self, gen: GenConfig) -> SweepConfig {
        self.gen = gen;
        self
    }

    /// Sets the controller configurations swept per program.
    #[must_use]
    pub fn with_points(mut self, points: Vec<SweepPoint>) -> SweepConfig {
        self.points = points;
        self
    }

    /// Sets the executor cells run on.
    #[must_use]
    pub fn with_executor(mut self, executor: ExecutorKind) -> SweepConfig {
        self.executor = executor;
        self
    }

    /// Total cells this sweep measures (one baseline cell plus
    /// one auto-retarget cell per configuration, per program).
    pub fn cells(&self) -> usize {
        self.programs * (1 + self.points.len())
    }

    /// The generator seeds this sweep covers, `base_seed..base_seed +
    /// programs`; `None` when the end of that range does not fit a
    /// `u64`.
    pub fn seeds(&self) -> Option<Range<u64>> {
        let end = self
            .base_seed
            .checked_add(u64::try_from(self.programs).ok()?)?;
        Some(self.base_seed..end)
    }

    /// The first seed whose generated program may retire more than
    /// [`MAX_FUEL`] instructions ([`ProgramSpec::max_retired`]), with
    /// that bound: its reference run could exhaust the fuel budget, so
    /// the sweep must not start. `None` when every seed fits, or when
    /// [`Self::seeds`] is `None`.
    pub fn over_fuel(&self) -> Option<(u64, u64)> {
        self.seeds()?
            .map(|seed| (seed, ProgramSpec::generate(seed, &self.gen).max_retired()))
            .find(|&(_, bound)| bound > MAX_FUEL)
    }
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig::new()
    }
}

/// Per-configuration aggregation of one sweep.
///
/// Equality is exact (including bitwise `f64` comparison of the savings
/// distribution), as is its rendering in [`report_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct PointSummary {
    /// Display label of the configuration.
    pub label: String,
    /// Loops mapped to hardware, summed over all programs.
    pub hw_loops: usize,
    /// Loops left in software, summed over all programs.
    pub unhandled: usize,
    /// Per-feature coverage: `(feature, hardware-mapped, total)` over
    /// every generated loop exhibiting the feature.
    pub coverage: Vec<(Feature, usize, usize)>,
    /// Per-program cycle savings over the software baseline, percent
    /// (ascending; empty for functional-executor sweeps).
    pub savings: Vec<f64>,
}

impl PointSummary {
    /// The `q` quantile (0.0–1.0) of the savings distribution.
    pub fn savings_quantile(&self, q: f64) -> f64 {
        if self.savings.is_empty() {
            return 0.0;
        }
        let idx = (q * (self.savings.len() - 1) as f64).round() as usize;
        self.savings[idx.min(self.savings.len() - 1)]
    }

    /// Mean of the savings distribution.
    pub fn savings_mean(&self) -> f64 {
        if self.savings.is_empty() {
            return 0.0;
        }
        self.savings.iter().sum::<f64>() / self.savings.len() as f64
    }
}

/// The aggregated result of one sweep (render with `Display`, or as
/// JSON with [`report_json`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Programs swept.
    pub programs: usize,
    /// Cells measured (all correctness-gated).
    pub cells: usize,
    /// Total generated loops across all programs.
    pub total_loops: usize,
    /// Per-configuration summaries, in sweep order.
    pub points: Vec<PointSummary>,
}

/// One measured cell of a sweep program (see [`measure_program`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// The run's statistics.
    pub stats: Stats,
    /// Retargeting statistics (`None` on the baseline cell).
    pub auto: Option<AutoStats>,
    /// `None` when this cell ran its own build; otherwise the index of
    /// the earlier cell of its program whose run it took. Cells share
    /// by the plan's [`SynthesisKey`]: a configuration that keeps every
    /// loop in software gets the baseline binary itself, with no
    /// initialization sequence, so it takes the baseline cell's run
    /// (`Some(0)`); every later member of another class takes its first
    /// member's build and run. The task-table configurations that hold
    /// every handled loop form one class whatever their loop and task
    /// counts: the shared text names only loop and task records below
    /// the handled-loop count, which fit every one of them, and writes
    /// no entry or exit record.
    pub shared_with: Option<usize>,
}

/// Measures one generated program's cells on `cfg.executor`: the
/// baseline cell, then one auto-retarget cell per point of `cfg`, all
/// synthesized from one [`RetargetPlan`] of the binary. Each synthesis
/// class ([`RetargetPlan::synthesis_key`]) is synthesized, compiled and
/// run once; its other members take that build and run
/// ([`SweepCell::shared_with`]).
///
/// # Panics
///
/// Panics if a cell fails to build, run, or verify bit-exactly, if a
/// controller reports consistency violations, if the retargeter loses
/// track of a loop, or if a full-capacity configuration's
/// software-fallback count disagrees with `zolc_gen`'s handledness
/// prediction.
pub fn measure_program(cfg: &SweepConfig, g: &GeneratedProgram) -> Vec<SweepCell> {
    let name = &g.name;
    let run = |built: &BuiltKernel| {
        let target = &built.target;
        let run = built
            .run(MAX_FUEL, cfg.executor)
            .unwrap_or_else(|e| panic!("{name}/{target}: run failed: {e}"));
        assert!(
            run.is_correct(),
            "{name}/{target}: incorrect run: {:?} {:?}",
            run.mismatches,
            run.violations
        );
        run.stats
    };
    let plan = RetargetPlan::new(Arc::clone(g.program.source()))
        .unwrap_or_else(|e| panic!("{name} (auto): retarget failed: {e}"));
    let mut cells = Vec::with_capacity(1 + cfg.points.len());
    cells.push(SweepCell {
        stats: run(&g.as_built(Target::Baseline)),
        auto: None,
        shared_with: None,
    });
    // each class met so far: its key, its first member's cell and the
    // notes of its synthesis
    let mut classes: Vec<(SynthesisKey, usize, Vec<String>)> = Vec::new();
    for p in &cfg.points {
        let key = plan.synthesis_key(&p.config);
        let cell = match classes.iter().find(|(k, _, _)| *k == key) {
            Some(&(_, first, _)) => SweepCell {
                shared_with: Some(cells[first].shared_with.unwrap_or(first)),
                ..cells[first].clone()
            },
            None => {
                let a = g
                    .as_built(Target::Baseline)
                    .retarget_with(&plan, p.config)
                    .unwrap_or_else(|e| {
                        let target = Target::Zolc(p.config);
                        panic!("{name}/{target} (auto): retarget failed: {e}")
                    });
                let (stats, shared_with) = match key {
                    SynthesisKey::Software => (cells[0].stats, Some(0)),
                    _ => (run(&a.built), None),
                };
                classes.push((key, cells.len(), a.built.info.notes));
                SweepCell {
                    stats,
                    auto: Some(a.stats),
                    shared_with,
                }
            }
        };
        let auto = cell.auto.as_ref().expect("auto cells carry retarget stats");
        assert_eq!(
            auto.hw_loops + auto.unhandled,
            g.spec.loop_count(),
            "{name}/{}: retargeter lost track of loops",
            p.label
        );
        // On configurations with capacity for the whole generated
        // space, handledness must match the documented prediction — a
        // mismatch is a retargeter (or predictor) regression.
        if p.config.loops() >= cfg.gen.max_loops && p.config.tasks() >= cfg.gen.max_loops {
            let notes = classes.iter().find(|(k, _, _)| *k == key).map(|c| &c.2);
            assert_eq!(
                auto.unhandled,
                g.spec.predicted_unhandled(),
                "{name}/{}: handledness prediction violated (notes: {notes:?})",
                p.label
            );
        }
        cells.push(cell);
    }
    cells
}

/// One program's share of a sweep's summaries.
struct Tally {
    /// The program's generated loops.
    loops: usize,
    /// Loops exhibiting each feature, in [`Feature::ALL`] order.
    with_feature: [usize; Feature::ALL.len()],
    /// One entry per point of the sweep.
    points: Vec<PointTally>,
}

/// One program's share of one point's [`PointSummary`].
struct PointTally {
    hw_loops: usize,
    unhandled: usize,
    /// Hardware-mapped loops exhibiting each feature.
    mapped: [usize; Feature::ALL.len()],
    /// The cycle saving over the baseline (cycle-accurate sweeps only).
    saving: Option<f64>,
}

/// Folds one program's measured cells into its [`Tally`].
fn tally(cfg: &SweepConfig, spec: &ProgramSpec, loop_starts: &[u32], cells: &[SweepCell]) -> Tally {
    // each loop's start and the features it exhibits
    let loops: Vec<(u32, Vec<Feature>)> = spec
        .flatten()
        .into_iter()
        .zip(loop_starts)
        .map(|((depth, shape), &start)| (start, shape.features(depth)))
        .collect();
    let mut with_feature = [0; Feature::ALL.len()];
    for f in loops.iter().flat_map(|(_, fs)| fs) {
        with_feature[*f as usize] += 1;
    }
    let base = cells[0].stats.cycles as f64;
    let points = cells[1..]
        .iter()
        .map(|m| {
            let auto = m
                .auto
                .as_ref()
                .expect("auto-retarget cells carry retarget stats");
            let mut mapped = [0; Feature::ALL.len()];
            for (start, fs) in &loops {
                if auto.hw_loop_starts.contains(start) {
                    for &f in fs {
                        mapped[f as usize] += 1;
                    }
                }
            }
            PointTally {
                hw_loops: auto.hw_loops,
                unhandled: auto.unhandled,
                mapped,
                saving: (cfg.executor == ExecutorKind::CycleAccurate)
                    .then(|| 100.0 * (base - m.stats.cycles as f64) / base),
            }
        })
        .collect();
    Tally {
        loops: spec.loop_count(),
        with_feature,
        points,
    }
}

/// Runs a sweep: one parallel job per seed generates the program,
/// measures its cells ([`measure_program`]) and folds them into the
/// program's share of each configuration's coverage and savings; the
/// shares then sum, in seed order.
///
/// # Panics
///
/// Panics if the seed range overflows ([`SweepConfig::seeds`]), or if
/// any program's cells fail (see [`measure_program`]).
pub fn run_sweep(cfg: &SweepConfig) -> SweepReport {
    let seeds = cfg.seeds().expect("sweep seed range overflows u64");
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let tallies = par_map(cfg.programs, threads, |i| {
        let seed = seeds.start + i as u64;
        let spec = ProgramSpec::generate(seed, &cfg.gen);
        let g = GeneratedProgram::from_spec(format!("gen{seed:05}"), spec);
        let cells = measure_program(cfg, &g);
        tally(cfg, &g.spec, &g.loop_starts, &cells)
    });

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
    let mut total_loops = 0;
    for t in &tallies {
        total_loops += t.loops;
        for (summary, p) in points.iter_mut().zip(&t.points) {
            summary.hw_loops += p.hw_loops;
            summary.unhandled += p.unhandled;
            for ((slot, mapped), total) in summary
                .coverage
                .iter_mut()
                .zip(p.mapped)
                .zip(t.with_feature)
            {
                slot.1 += mapped;
                slot.2 += total;
            }
            summary.savings.extend(p.saving);
        }
    }
    for p in &mut points {
        p.savings.sort_by(f64::total_cmp);
    }
    SweepReport {
        programs: tallies.len(),
        cells: cfg.cells(),
        total_loops,
        points,
    }
}

impl SweepReport {
    /// The coverage table: one row per shape feature, one column per
    /// configuration (`hardware-mapped / loops with feature`).
    pub fn coverage_table(&self) -> String {
        let mut header = vec!["shape feature"];
        let labels: Vec<&str> = self.points.iter().map(|p| p.label.as_str()).collect();
        header.extend(labels.iter().copied());
        let mut rows = Vec::new();
        for (k, &feature) in Feature::ALL.iter().enumerate() {
            let total = self.points.first().map_or(0, |p| p.coverage[k].2);
            if total == 0 {
                continue;
            }
            let mut row = vec![feature.to_string()];
            for p in &self.points {
                let (_, handled, total) = p.coverage[k];
                row.push(format!(
                    "{handled}/{total} ({:.0}%)",
                    100.0 * handled as f64 / total.max(1) as f64
                ));
            }
            rows.push(row);
        }
        render_table(&header, &rows)
    }

    /// The savings table: one row per configuration with the quantiles
    /// of the per-program cycle-savings distribution.
    pub fn savings_table(&self) -> String {
        let mut rows = Vec::new();
        for p in &self.points {
            rows.push(vec![
                p.label.clone(),
                format!("{}", p.hw_loops),
                format!("{}", p.unhandled),
                format!("{:.1}%", p.savings_quantile(0.0)),
                format!("{:.1}%", p.savings_quantile(0.25)),
                format!("{:.1}%", p.savings_quantile(0.5)),
                format!("{:.1}%", p.savings_quantile(0.75)),
                format!("{:.1}%", p.savings_quantile(1.0)),
                format!("{:.1}%", p.savings_mean()),
            ]);
        }
        render_table(
            &[
                "config", "hw loops", "software", "min", "p25", "median", "p75", "max", "mean",
            ],
            &rows,
        )
    }
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} generated programs ({} loops), {} correctness-gated cells\n",
            self.programs, self.total_loops, self.cells
        )?;
        writeln!(
            f,
            "retarget coverage by shape feature (hardware-mapped loops / loops with feature):\n"
        )?;
        f.write_str(&self.coverage_table())?;
        writeln!(
            f,
            "\ncycle savings vs the software baseline, per configuration (one sample per program):\n"
        )?;
        f.write_str(&self.savings_table())
    }
}

/// The canonical JSON rendering of a [`SweepReport`]: the payload
/// `zolcd` caches and serves for sweep jobs. Every count is kept, and
/// every savings value bit for bit (see [`crate::json`]).
pub fn report_json(r: &SweepReport) -> Json {
    Json::Obj(vec![
        ("programs".into(), Json::u64(r.programs as u64)),
        ("cells".into(), Json::u64(r.cells as u64)),
        ("total_loops".into(), Json::u64(r.total_loops as u64)),
        (
            "points".into(),
            Json::Arr(r.points.iter().map(point_json).collect()),
        ),
    ])
}

fn point_json(p: &PointSummary) -> Json {
    Json::Obj(vec![
        ("label".into(), Json::Str(p.label.clone())),
        ("hw_loops".into(), Json::u64(p.hw_loops as u64)),
        ("unhandled".into(), Json::u64(p.unhandled as u64)),
        (
            // stored in Feature::ALL order as [handled, total] pairs
            "coverage".into(),
            Json::Arr(
                p.coverage
                    .iter()
                    .map(|&(_, handled, total)| {
                        Json::Arr(vec![Json::u64(handled as u64), Json::u64(total as u64)])
                    })
                    .collect(),
            ),
        ),
        (
            "savings".into(),
            Json::Arr(p.savings.iter().map(|&s| Json::f64(s)).collect()),
        ),
    ])
}

/// E7 — renders the standard design-space sweep plus the amortization
/// slice (see the module docs; recorded results live in
/// `EXPERIMENTS.md`).
///
/// The standard sweep's short trip counts (≤ 6) deliberately stress the
/// *fixed* cost of retargeting: the one-time table-initialization
/// sequence often outweighs the per-iteration savings, so the median
/// saving is negative. The amortization slice re-runs the same shape
/// space with trip counts up to 24 to show where the controller starts
/// to pay — mirroring E4's claim that initialization is small only
/// relative to real workloads.
pub fn e7_design_space() -> String {
    let cfg = SweepConfig::new();
    let report = run_sweep(&cfg);
    let seeds = cfg.seeds().expect("run_sweep checked the seed range");
    let long = SweepConfig::new()
        .with_programs((cfg.programs / 4).max(25))
        .with_base_seed(cfg.base_seed)
        .with_gen(cfg.gen.clone().with_max_trips(24))
        .with_points(vec![SweepPoint::new("ZOLClite", ZolcConfig::lite())])
        .with_executor(ExecutorKind::CycleAccurate);
    let long_report = run_sweep(&long);
    format!(
        "E7 — design-space exploration: generated loop structures x controller configurations\n\
         (every cell bit-exact against the generated program's own baseline reference, with a\n\
         \u{20}clean controller-consistency journal; seeds {}..{})\n\n{report}\n\
         \namortization slice — same shape space, trip counts up to 24 ({} programs,\n\
         {} cells): longer-running loops amortize the one-time init sequence\n\n{}",
        seeds.start,
        seeds.end,
        long_report.programs,
        long_report.cells,
        long_report.savings_table()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::iter;

    fn small_sweep() -> SweepConfig {
        SweepConfig::new()
            .with_programs(12)
            .with_base_seed(100)
            .with_points(vec![
                SweepPoint::new("ZOLClite", ZolcConfig::lite()),
                SweepPoint::new("uZOLC", ZolcConfig::micro()),
            ])
    }

    /// `max_retired` bounds every reference run, and `over_fuel` refuses
    /// the seeds whose bound is past the fuel budget.
    #[test]
    fn max_retired_bounds_reference_runs_and_gates_the_fuel() {
        let wide = GenConfig::new().with_max_depth(4).with_max_children(3);
        for gen in [GenConfig::default(), wide] {
            for seed in 0..300 {
                let spec = ProgramSpec::generate(seed, &gen);
                let program = CompiledProgram::compile(spec.assemble().unwrap().program);
                let fin = run_session(
                    ExecutorKind::Functional,
                    &program,
                    &mut NullEngine,
                    MAX_FUEL,
                )
                .expect("default-sized programs halt");
                assert!(fin.stats.retired <= spec.max_retired(), "seed {seed}");
            }
        }
        let cfg = SweepConfig::new();
        assert_eq!(cfg.clone().with_programs(200).over_fuel(), None);
        let long = |trips| {
            let gen = GenConfig::new().with_max_trips(trips);
            cfg.clone().with_programs(20).with_gen(gen).over_fuel()
        };
        assert_eq!(long(24), None);
        let (seed, bound) = long(1000).expect("a 1000-trip nest is over the budget");
        assert!(bound > MAX_FUEL && (0..20).contains(&seed));
        assert!(long(u32::MAX).is_some());
        assert_eq!(cfg.with_base_seed(u64::MAX).over_fuel(), None);
    }

    #[test]
    fn small_sweep_is_clean_and_aggregates() {
        let cfg = small_sweep();
        assert_eq!(cfg.seeds(), Some(100..112));
        assert_eq!(
            cfg.clone().with_base_seed(u64::MAX - 12).seeds(),
            Some(u64::MAX - 12..u64::MAX)
        );
        assert_eq!(cfg.clone().with_base_seed(u64::MAX - 11).seeds(), None);
        let report = run_sweep(&cfg);
        assert_eq!(report.programs, 12);
        assert_eq!(report.cells, cfg.cells());
        assert!(report.total_loops >= 12);
        let lite = &report.points[0];
        assert_eq!(lite.hw_loops + lite.unhandled, report.total_loops);
        assert!(lite.hw_loops > 0, "nothing mapped to hardware");
        assert_eq!(lite.savings.len(), 12);
        // capacity pressure: uZOLC can never map more loops than lite
        assert!(report.points[1].hw_loops <= lite.hw_loops);
        let rendered = report.to_string();
        assert!(rendered.contains("shape feature"));
        assert!(rendered.contains("ZOLClite"));
    }

    #[test]
    fn report_json_roundtrip_preserves_counts_and_savings_bits() {
        let report = run_sweep(&small_sweep().with_programs(10));
        assert!(
            report.points.iter().any(|p| !p.savings.is_empty()),
            "test needs savings data"
        );
        let doc = crate::json::parse(&report_json(&report).render()).unwrap();
        let count = |d: &Json, key: &str| d.get(key).and_then(Json::as_u64).unwrap() as usize;
        let arr = |d: &Json, key: &str| d.get(key).and_then(Json::as_arr).unwrap().to_vec();
        assert_eq!(count(&doc, "programs"), report.programs);
        assert_eq!(count(&doc, "cells"), report.cells);
        assert_eq!(count(&doc, "total_loops"), report.total_loops);
        let points = arr(&doc, "points");
        assert_eq!(points.len(), report.points.len());
        for (pdoc, p) in points.iter().zip(&report.points) {
            assert_eq!(pdoc.get("label").and_then(Json::as_str), Some(&*p.label));
            assert_eq!(count(pdoc, "hw_loops"), p.hw_loops);
            assert_eq!(count(pdoc, "unhandled"), p.unhandled);
            let coverage: Vec<(usize, usize)> = arr(pdoc, "coverage")
                .iter()
                .map(|pair| match pair.as_arr() {
                    Some([handled, total]) => (
                        handled.as_u64().unwrap() as usize,
                        total.as_u64().unwrap() as usize,
                    ),
                    other => panic!("bad coverage pair {other:?}"),
                })
                .collect();
            let expected: Vec<(usize, usize)> =
                p.coverage.iter().map(|&(_, h, t)| (h, t)).collect();
            assert_eq!(coverage, expected, "{}", p.label);
            let bits: Vec<u64> = arr(pdoc, "savings")
                .iter()
                .map(|v| v.as_f64().unwrap().to_bits())
                .collect();
            let expected: Vec<u64> = p.savings.iter().map(|s| s.to_bits()).collect();
            assert_eq!(bits, expected, "{}", p.label);
        }
    }

    #[test]
    fn functional_sweep_skips_savings() {
        let cfg = small_sweep()
            .with_programs(4)
            .with_executor(ExecutorKind::Functional);
        let report = run_sweep(&cfg);
        assert!(report.points.iter().all(|p| p.savings.is_empty()));
        assert!(report.points[0].hw_loops > 0);
    }

    /// Program `seed` of `cfg`, named as [`run_sweep`] names it.
    fn generated(cfg: &SweepConfig, seed: u64) -> GeneratedProgram {
        let spec = ProgramSpec::generate(seed, &cfg.gen);
        GeneratedProgram::from_spec(format!("gen{seed:05}"), spec)
    }

    /// The standard sweep synthesizes and runs each synthesis class
    /// once. A ZOLC cell whose configuration keeps every loop in
    /// software takes its program's baseline run, and a later member
    /// of any other class takes its first member's; every other cell
    /// runs.
    #[test]
    fn standard_sweep_runs_each_distinct_build_once() {
        let cfg = SweepConfig::new();
        let labels: Vec<&str> = cfg.points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, ["uZOLC", "ZOLClite", "ZOLCfull", "custom 2L/8T"]);
        let (mut cells, mut ran, mut baseline, mut class, mut syntheses) = (0, 0, 0, 0, 0);
        for seed in cfg.seeds().expect("seeds fit") {
            let g = generated(&cfg, seed);
            let plan = RetargetPlan::new(Arc::clone(g.program.source())).expect("plan builds");
            // the key of every cell, `None` for the baseline
            let keys: Vec<Option<SynthesisKey>> = iter::once(None)
                .chain(
                    cfg.points
                        .iter()
                        .map(|p| Some(plan.synthesis_key(&p.config))),
                )
                .collect();
            // the first member of each class that relinks the text
            syntheses += (1..keys.len())
                .filter(|&k| {
                    keys[k] != Some(SynthesisKey::Software) && !keys[..k].contains(&keys[k])
                })
                .count();
            let measured = measure_program(&cfg, &g);
            for (k, c) in measured.iter().enumerate() {
                cells += 1;
                match c.shared_with {
                    None => ran += 1,
                    Some(0) => {
                        assert_eq!(keys[k], Some(SynthesisKey::Software), "seed {seed}");
                        baseline += 1;
                    }
                    Some(s) => {
                        assert!(s < k && keys[s] == keys[k], "seed {seed}: {k} took {s}");
                        assert_eq!(measured[s].shared_with, None, "seed {seed}");
                        class += 1;
                    }
                }
            }
        }
        assert_eq!(cells, 2000);
        assert_eq!((ran, baseline, class, syntheses), (1014, 429, 557, 614));
    }

    /// Sharing a plan and sharing runs change no result: each cell of a
    /// program equals a one-shot [`BuiltKernel::retarget`] build of its
    /// point, run alone.
    #[test]
    fn cells_equal_one_shot_builds_run_alone() {
        let cfg = SweepConfig::new();
        let run = |built: &BuiltKernel| {
            let r = built.run(MAX_FUEL, cfg.executor).expect("runs");
            assert!(r.is_correct(), "{}/{}", built.name, built.target);
            r.stats
        };
        let mut shared = Vec::new();
        for seed in 1..=6 {
            let g = generated(&cfg, seed);
            let cells = measure_program(&cfg, &g);
            assert_eq!(cells.len(), 1 + cfg.points.len());
            assert_eq!(
                cells[0].stats,
                run(&g.as_built(Target::Baseline)),
                "{}",
                g.name
            );
            assert_eq!(cells[0].auto, None);
            for (p, c) in cfg.points.iter().zip(&cells[1..]) {
                let a = g
                    .as_built(Target::Baseline)
                    .retarget(p.config)
                    .expect("retargets");
                assert_eq!(c.stats, run(&a.built), "{}/{}", g.name, p.label);
                assert_eq!(c.auto.as_ref(), Some(&a.stats), "{}/{}", g.name, p.label);
            }
            shared.extend(cells.iter().filter_map(|c| c.shared_with));
        }
        // the seeds reach both sharing rules
        assert!(shared.contains(&0) && shared.contains(&2), "{shared:?}");
    }

    #[test]
    fn generated_program_reference_is_deterministic() {
        let spec = ProgramSpec::generate(7, &GenConfig::default());
        let a = GeneratedProgram::from_spec("a", spec.clone());
        let b = GeneratedProgram::from_spec("b", spec);
        assert_eq!(a.expect, b.expect);
        assert_eq!(a.program.source(), b.program.source());
        assert_eq!(a.loop_starts, b.loop_starts);
    }
}
