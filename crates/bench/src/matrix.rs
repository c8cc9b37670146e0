//! The program × target measurement matrix behind the experiments, and
//! its batch-parallel runner.
//!
//! [`JobMatrix`] turns an experiment's cells into data: build the cell
//! list up front, then [`JobMatrix::run`] measures every cell on a
//! scoped `std::thread` pool. Cells are independent: each builds its own
//! program, runs it on the cycle-accurate executor and reports its own
//! build statistics. Results come back in cell order, and a failed cell
//! panics the whole run — experiment results are only meaningful when
//! every cell is correct.
//!
//! A cell's program comes from a [`JobSource`]: a registry benchmark
//! kernel (built by its `BuildFn`) or a `zolc-lang` front-end
//! [`CompiledUnit`] (the E8 corpus), measured and correctness-gated
//! identically. The E7 sweep measures its generated programs one
//! program per job instead (`sweep.rs`).

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use std::thread;
use zolc_core::ZolcConfig;
use zolc_ir::{LoweredInfo, Target};
use zolc_kernels::{kernels, BuildError, BuiltKernel, ExecutorKind, KernelEntry};
use zolc_lang::CompiledUnit;
use zolc_sim::Stats;

/// Fuel budget (retired instructions — the one semantic shared by every
/// executor, see [`zolc_sim::Executor::run`]) generous enough for every
/// kernel on every target. Because fuel is architectural, a cell that
/// times out does so at the same instruction no matter which executor
/// measured it.
pub const MAX_FUEL: u64 = 50_000_000;

/// How a cell's program comes to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum BuildMode {
    /// Lower the kernel's IR directly for the cell's target.
    #[default]
    Lower,
    /// Lower for `XRdefault`, then auto-retarget the *binary* onto the
    /// cell's ZOLC configuration (`ZOLCauto`; the target must be
    /// [`Target::Zolc`]).
    AutoRetarget,
}

/// Where a cell's program comes from.
#[derive(Debug, Clone)]
pub enum JobSource {
    /// A registry benchmark kernel, built by its `BuildFn` (and checked
    /// against its hand-written reference model).
    Kernel(KernelEntry),
    /// A `zolc-lang` front-end compilation unit (and its
    /// interpreter-derived reference expectation), shared across the
    /// cells that measure it — the E8 corpus source.
    Corpus(Arc<CompiledUnit>),
}

impl JobSource {
    /// The program name this source reports in [`Measurement::kernel`].
    pub fn name(&self) -> &str {
        match self {
            JobSource::Kernel(e) => e.name,
            JobSource::Corpus(u) => u.name(),
        }
    }

    /// Builds the source's program for `target`: the kernel's
    /// `BuildFn`, or the unit's IR lowering.
    fn build(&self, target: &Target) -> Result<BuiltKernel, BuildError> {
        match self {
            JobSource::Kernel(e) => (e.build)(target),
            JobSource::Corpus(u) => u.build(target),
        }
    }
}

/// One cell of a [`JobMatrix`]: a program to build and measure on a
/// target.
#[derive(Debug, Clone)]
pub struct Job {
    /// The program source (benchmark kernel or corpus unit).
    pub source: JobSource,
    /// The target configuration.
    pub target: Target,
    /// Hand lowering or automatic binary retargeting.
    pub mode: BuildMode,
}

pub use zolc_kernels::AutoStats;

/// One (kernel, target) measurement, correctness-checked.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Kernel name.
    pub kernel: String,
    /// Target configuration.
    pub target: Target,
    /// How the program was built.
    pub mode: BuildMode,
    /// Full pipeline statistics.
    pub stats: Stats,
    /// Lowering byproducts (table image, init length, notes).
    pub info: LoweredInfo,
    /// Retargeting statistics ([`BuildMode::AutoRetarget`] cells only).
    pub auto: Option<AutoStats>,
}

/// Builds and measures one cell: [`BuildMode::Lower`] builds the source
/// for the cell's target, [`BuildMode::AutoRetarget`] builds it for
/// [`Target::Baseline`] and retargets that binary onto the cell's ZOLC
/// configuration ([`BuiltKernel::retarget`]).
fn measure_cell(job: &Job) -> Measurement {
    let Job {
        source,
        target,
        mode,
    } = job;
    let name = source.name();
    let (built, auto) = match mode {
        BuildMode::Lower => (
            source
                .build(target)
                .unwrap_or_else(|e| panic!("{name}/{target}: build failed: {e}")),
            None,
        ),
        BuildMode::AutoRetarget => {
            let Target::Zolc(config) = target else {
                panic!("{name}: auto-retarget cells need a ZOLC target")
            };
            let a = source
                .build(&Target::Baseline)
                .and_then(|base| base.retarget(*config))
                .unwrap_or_else(|e| panic!("{name}/{target} (auto): retarget failed: {e}"));
            (a.built, Some(a.stats))
        }
    };
    let run = built
        .run(MAX_FUEL, ExecutorKind::CycleAccurate)
        .unwrap_or_else(|e| panic!("{name}/{target}: run failed: {e}"));
    assert!(
        run.is_correct(),
        "{name}/{target}: incorrect run: {:?} {:?}",
        run.mismatches,
        run.violations
    );
    Measurement {
        kernel: name.to_owned(),
        target: target.clone(),
        mode: *mode,
        stats: run.stats,
        info: built.info,
        auto,
    }
}

/// A batch of measurement cells, run in parallel.
///
/// # Examples
///
/// ```
/// use zolc_bench::JobMatrix;
/// use zolc_ir::Target;
/// use zolc_kernels::kernels;
///
/// let matrix = JobMatrix::cross(&kernels()[..2], &[Target::Baseline, Target::HwLoop]);
/// let results = matrix.run();
/// assert_eq!(results.len(), 4);
/// // kernel-major order: cells of one kernel are adjacent
/// assert_eq!(results[0].kernel, results[1].kernel);
/// assert!(results.iter().all(|m| m.stats.cycles > 0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct JobMatrix {
    jobs: Vec<Job>,
}

impl JobMatrix {
    /// An empty matrix.
    pub fn new() -> JobMatrix {
        JobMatrix::default()
    }

    /// The full cross product `entries × targets`, kernel-major (all of
    /// one kernel's targets are adjacent).
    pub fn cross(entries: &[KernelEntry], targets: &[Target]) -> JobMatrix {
        let mut m = JobMatrix::new();
        for e in entries {
            for t in targets {
                m.push(*e, t.clone());
            }
        }
        m
    }

    /// The standard Fig. 2 matrix: all twelve kernels on
    /// `XRdefault` / `XRhrdwil` / `ZOLClite` plus the `ZOLCauto` column
    /// (the same binary-retargeted ZOLClite build), kernel-major.
    pub fn fig2() -> JobMatrix {
        let mut m = JobMatrix::new();
        for e in kernels() {
            m.push(*e, Target::Baseline);
            m.push(*e, Target::HwLoop);
            m.push(*e, Target::Zolc(ZolcConfig::lite()));
            m.push_auto(*e, ZolcConfig::lite());
        }
        m
    }

    /// Appends one cell.
    pub fn push(&mut self, entry: KernelEntry, target: Target) -> &mut JobMatrix {
        self.jobs.push(Job {
            source: JobSource::Kernel(entry),
            target,
            mode: BuildMode::Lower,
        });
        self
    }

    /// Appends one `ZOLCauto` cell: the kernel's baseline binary
    /// auto-retargeted onto a ZOLC of configuration `config`.
    pub fn push_auto(&mut self, entry: KernelEntry, config: ZolcConfig) -> &mut JobMatrix {
        self.jobs.push(Job {
            source: JobSource::Kernel(entry),
            target: Target::Zolc(config),
            mode: BuildMode::AutoRetarget,
        });
        self
    }

    /// Appends one front-end corpus cell: [`BuildMode::Lower`] lowers
    /// the unit's IR for `target`, [`BuildMode::AutoRetarget`] builds
    /// its baseline binary and retargets that onto the cell's
    /// [`Target::Zolc`] configuration. Either way the run is gated on
    /// the unit's interpreter-derived reference expectation.
    pub fn push_corpus(
        &mut self,
        unit: Arc<CompiledUnit>,
        target: Target,
        mode: BuildMode,
    ) -> &mut JobMatrix {
        self.jobs.push(Job {
            source: JobSource::Corpus(unit),
            target,
            mode,
        });
        self
    }

    /// The cells, in insertion order (= result order).
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the matrix has no cells.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Runs every cell, spreading them over the machine's available
    /// parallelism. Results are in cell order regardless of completion
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if any cell fails to build, run, or verify against its
    /// reference expectation — experiment results are only meaningful
    /// for correct runs, so a mismatch is fatal by design; worker panics
    /// propagate when the scope joins.
    pub fn run(&self) -> Vec<Measurement> {
        let threads = thread::available_parallelism().map_or(1, usize::from);
        self.run_threads(threads)
    }

    /// Runs every cell on at most `threads` worker threads (`1` runs
    /// inline with no thread overhead); results are in cell order and
    /// do not depend on `threads`.
    ///
    /// # Panics
    ///
    /// Panics if any cell fails to build, run, or verify (see
    /// [`JobMatrix::run`]).
    pub fn run_threads(&self, threads: usize) -> Vec<Measurement> {
        par_map(self.jobs.len(), threads, |k| measure_cell(&self.jobs[k]))
    }
}

/// Runs `f(0)..f(n-1)` across at most `threads` scoped worker threads
/// with work-stealing by atomic cursor — each worker claims the next
/// unstarted index, so long items overlap short ones instead of gating
/// a fixed chunk. Results come back in index order; `threads <= 1` (or
/// `n <= 1`) runs inline with no thread overhead. Worker panics
/// propagate when the scope joins. Shared by [`JobMatrix::run_threads`]
/// and the sweep's per-program jobs.
pub(crate) fn par_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= n {
                    break;
                }
                let v = f(k);
                *slots[k].lock().expect("result slot poisoned") = Some(v);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("slot completed")
        })
        .collect()
}

/// One Fig. 2 row: a kernel's cycles on the compared configurations.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Kernel name.
    pub kernel: String,
    /// Cycles on the unmodified core (`XRdefault`).
    pub baseline: u64,
    /// Cycles with branch-decrement loops (`XRhrdwil`).
    pub hwloop: u64,
    /// Cycles with the ZOLC (`ZOLClite`, as in the paper's figure).
    pub zolc: u64,
    /// Cycles with the ZOLC when the overlay was synthesized from the
    /// baseline *binary* (`ZOLCauto` — our extension of the figure).
    pub zolc_auto: u64,
}

impl Fig2Row {
    /// Cycle reduction of `XRhrdwil` relative to `XRdefault`, percent.
    pub fn hwloop_improvement(&self) -> f64 {
        100.0 * (self.baseline as f64 - self.hwloop as f64) / self.baseline as f64
    }

    /// Cycle reduction of the ZOLC relative to `XRdefault`, percent.
    pub fn zolc_improvement(&self) -> f64 {
        100.0 * (self.baseline as f64 - self.zolc as f64) / self.baseline as f64
    }

    /// Cycle reduction of the auto-retargeted ZOLC build relative to
    /// `XRdefault`, percent.
    pub fn zolc_auto_improvement(&self) -> f64 {
        100.0 * (self.baseline as f64 - self.zolc_auto as f64) / self.baseline as f64
    }

    /// Relative cycles (normalized to `XRdefault` = 1.0) in figure order:
    /// `XRdefault`, `XRhrdwil`, `ZOLClite`, `ZOLCauto`.
    pub fn relative(&self) -> [f64; 4] {
        let b = self.baseline as f64;
        [
            1.0,
            self.hwloop as f64 / b,
            self.zolc as f64 / b,
            self.zolc_auto as f64 / b,
        ]
    }
}

/// The complete Fig. 2 data set with the paper's aggregate statistics.
#[derive(Debug, Clone)]
pub struct Fig2Report {
    /// One row per benchmark, in registry order.
    pub rows: Vec<Fig2Row>,
}

impl Fig2Report {
    /// Measures all twelve benchmarks on the three Fig. 2 configurations
    /// plus the `ZOLCauto` column, batch-parallel over the [`JobMatrix`].
    pub fn collect() -> Fig2Report {
        let results = JobMatrix::fig2().run();
        // kernel-major: four consecutive cells per kernel, target order
        // Baseline / HwLoop / Zolc / ZolcAuto.
        let rows = results
            .chunks_exact(4)
            .map(|cell| Fig2Row {
                kernel: cell[0].kernel.clone(),
                baseline: cell[0].stats.cycles,
                hwloop: cell[1].stats.cycles,
                zolc: cell[2].stats.cycles,
                zolc_auto: cell[3].stats.cycles,
            })
            .collect();
        Fig2Report { rows }
    }

    /// Average `XRhrdwil` improvement (paper: about 11.1%).
    pub fn avg_hwloop(&self) -> f64 {
        self.rows
            .iter()
            .map(Fig2Row::hwloop_improvement)
            .sum::<f64>()
            / self.rows.len() as f64
    }

    /// Maximum `XRhrdwil` improvement (paper: up to 27.5%).
    pub fn max_hwloop(&self) -> f64 {
        self.rows
            .iter()
            .map(Fig2Row::hwloop_improvement)
            .fold(f64::MIN, f64::max)
    }

    /// Average ZOLC improvement (paper: about 26.2%).
    pub fn avg_zolc(&self) -> f64 {
        self.rows.iter().map(Fig2Row::zolc_improvement).sum::<f64>() / self.rows.len() as f64
    }

    /// Maximum ZOLC improvement (paper: up to 48.2%).
    pub fn max_zolc(&self) -> f64 {
        self.rows
            .iter()
            .map(Fig2Row::zolc_improvement)
            .fold(f64::MIN, f64::max)
    }

    /// Minimum ZOLC improvement (paper abstract: 8.4%).
    pub fn min_zolc(&self) -> f64 {
        self.rows
            .iter()
            .map(Fig2Row::zolc_improvement)
            .fold(f64::MAX, f64::min)
    }

    /// The central shape claim of the figure: the ZOLC is at least as fast
    /// as branch-decrement on every benchmark, which is at least as fast
    /// as the software baseline.
    pub fn ordering_holds(&self) -> bool {
        self.rows
            .iter()
            .all(|r| r.zolc <= r.hwloop && r.hwloop <= r.baseline)
    }
}

impl fmt::Display for Fig2Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rows {
            writeln!(
                f,
                "{:<12} base {:>8} hw {:>8} ({:>5.1}%) zolc {:>8} ({:>5.1}%) auto {:>8} ({:>5.1}%)",
                r.kernel,
                r.baseline,
                r.hwloop,
                r.hwloop_improvement(),
                r.zolc,
                r.zolc_improvement(),
                r.zolc_auto,
                r.zolc_auto_improvement()
            )?;
        }
        write!(
            f,
            "hw avg {:.1}% max {:.1}% | zolc avg {:.1}% max {:.1}% min {:.1}%",
            self.avg_hwloop(),
            self.max_hwloop(),
            self.avg_zolc(),
            self.max_zolc(),
            self.min_zolc()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a one-cell matrix and returns its measurement.
    fn one_cell(matrix: &mut JobMatrix) -> Measurement {
        let mut results = matrix.run_threads(1);
        assert_eq!(results.len(), 1);
        results.remove(0)
    }

    #[test]
    fn measure_checks_correctness() {
        let m = one_cell(JobMatrix::new().push(kernels()[0], Target::Baseline));
        assert!(m.stats.cycles > 0);
        assert_eq!(m.kernel, "vec_mac");
    }

    #[test]
    fn fig2_row_math() {
        let r = Fig2Row {
            kernel: "x".into(),
            baseline: 100,
            hwloop: 90,
            zolc: 75,
            zolc_auto: 80,
        };
        assert!((r.hwloop_improvement() - 10.0).abs() < 1e-9);
        assert!((r.zolc_improvement() - 25.0).abs() < 1e-9);
        assert!((r.zolc_auto_improvement() - 20.0).abs() < 1e-9);
        assert_eq!(r.relative(), [1.0, 0.9, 0.75, 0.8]);
    }

    #[test]
    fn auto_cells_measure_correctly() {
        let m = one_cell(JobMatrix::new().push_auto(kernels()[0], ZolcConfig::lite()));
        assert_eq!(m.mode, BuildMode::AutoRetarget);
        assert!(m.stats.cycles > 0);
        assert!(m.info.image.is_some());
        let auto = m.auto.expect("auto cells carry retarget stats");
        assert!(auto.excised > 0);
        assert_eq!(auto.unhandled, 0);
    }

    #[test]
    fn matrix_results_are_in_cell_order_and_thread_invariant() {
        let targets = [Target::Baseline, Target::HwLoop];
        let matrix = JobMatrix::cross(&kernels()[..3], &targets);
        assert_eq!(matrix.len(), 6);
        let parallel = matrix.run_threads(4);
        let serial = matrix.run_threads(1);
        assert_eq!(parallel.len(), serial.len());
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.kernel, s.kernel);
            assert_eq!(p.target, s.target);
            assert_eq!(p.stats, s.stats, "{}/{}", p.kernel, p.target);
        }
        // cell order matches the declared jobs
        for (m, j) in parallel.iter().zip(matrix.jobs()) {
            assert_eq!(m.kernel, j.source.name());
            assert_eq!(m.target, j.target);
        }
    }

    #[test]
    fn corpus_cells_measure_on_both_build_modes() {
        let e = zolc_lang::find_corpus("dot").expect("dot is in the corpus");
        let unit = zolc_lang::compile_arc(e.name, e.source).expect("corpus compiles");
        let mut m = JobMatrix::new();
        m.push_corpus(unit.clone(), Target::Baseline, BuildMode::Lower);
        m.push_corpus(
            unit,
            Target::Zolc(ZolcConfig::lite()),
            BuildMode::AutoRetarget,
        );
        let results = m.run();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].kernel, "dot");
        assert!(results[0].stats.cycles > 0);
        let auto = results[1].auto.as_ref().expect("auto cell carries stats");
        assert_eq!(auto.hw_loops, e.handled_loops);
        assert!(results[1].stats.cycles > 0);
    }

    #[test]
    fn empty_matrix_runs_to_empty() {
        assert!(JobMatrix::new().run().is_empty());
        assert!(JobMatrix::new().is_empty());
    }
}
