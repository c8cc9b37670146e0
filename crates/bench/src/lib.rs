//! # zolc-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§3) plus
//! the ablation studies; see `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured results.
//!
//! | experiment | paper artifact | bench target |
//! |------------|----------------|--------------|
//! | [`e1_fig2`] | Figure 2 (relative cycles, 12 benchmarks) | `benches/fig2_cycles.rs` |
//! | [`e2_area_table`] | §3 storage/gate numbers | `benches/area_table.rs` |
//! | [`e3_timing`] | §3 cycle-time claim (~170 MHz) | `benches/timing_model.rs` |
//! | [`e4_init_overhead`] | §2 initialization-overhead claim | `benches/init_overhead.rs` |
//! | [`e5_ablation`] | §1/§3 config variants + perfect-nest unit \[2\] | `benches/ablation.rs` |
//! | [`e6_auto_retarget`] | §2 automatic task-data generation | `benches/auto_retarget.rs` |
//! | [`e7_design_space`] | title claim at scale: generated loop structures × configurations | `benches/design_space.rs` |
//! | [`e8_frontend`] | §2 end-to-end: the `zolc-lang` corpus through compile/retarget/oracle | `benches/frontend.rs` |
//!
//! Run them all with `cargo bench`.
//!
//! # The batched job API
//!
//! Experiments declare a [`JobMatrix`] — kernel × target cells — and
//! [`JobMatrix::run`] measures all cells on a scoped thread pool,
//! returning correctness-checked [`Measurement`]s in cell order. Cells
//! are independent, so the parallel results are bit-identical to a
//! serial walk. Build custom matrices the same way:
//!
//! ```
//! use zolc_bench::{BuildMode, JobMatrix};
//! use zolc_core::ZolcConfig;
//! use zolc_ir::Target;
//! use zolc_kernels::kernels;
//!
//! // two kernels on the software baseline and auto-retargeted onto ZOLClite
//! let mut matrix = JobMatrix::cross(&kernels()[..2], &[Target::Baseline]);
//! matrix.push_auto(kernels()[0], ZolcConfig::lite());
//! let results = matrix.run();
//! assert_eq!(results[2].mode, BuildMode::AutoRetarget);
//! assert!(results[2].stats.cycles < results[0].stats.cycles);
//! ```
//!
//! # Design-space sweeps
//!
//! [`run_sweep`] measures a [`SweepConfig`]'s whole seed range with one
//! parallel job per program ([`measure_program`]): the job generates the
//! program, measures its baseline cell and one auto-retarget cell per
//! configuration, synthesizing and running each synthesis class once
//! ([`SweepCell::shared_with`]). The standard 400-program sweep takes
//! well under a second, a 10,000-program one about 0.3 s on two cores
//! (`BENCH_sweep.json`). [`report_json`] renders its [`SweepReport`] as
//! JSON (hand-rolled in [`json`]; no crates.io), savings bit for bit:
//! the document `zolcd` serves for sweep jobs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiments;
pub mod json;
mod matrix;
mod oracle_check;
mod sweep;
mod table;

pub use experiments::{
    e1_fig2, e2_area_table, e3_timing, e4_init_overhead, e5_ablation, e6_auto_retarget,
    e8_frontend, paper,
};
pub use matrix::{
    AutoStats, BuildMode, Fig2Report, Fig2Row, Job, JobMatrix, JobSource, Measurement, MAX_FUEL,
};
pub use oracle_check::{run_oracle_check, OracleReport};
pub use sweep::{
    e7_design_space, measure_program, report_json, run_sweep, GeneratedProgram, PointSummary,
    SweepCell, SweepConfig, SweepPoint, SweepReport,
};
pub use table::{render_bars, render_table};

#[cfg(test)]
mod doc_tests {
    /// The crate docs above and the experiment module reference
    /// `DESIGN.md` and `EXPERIMENTS.md`; tier-1 fails if they go missing
    /// (CI additionally checks every markdown reference repo-wide).
    #[test]
    fn referenced_markdown_files_exist() {
        for f in ["DESIGN.md", "EXPERIMENTS.md"] {
            let p = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(f);
            assert!(p.is_file(), "{} is referenced from rustdoc but missing", f);
        }
    }
}
