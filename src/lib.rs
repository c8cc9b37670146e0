//! # zolc — reproduction of the DATE 2005 zero-overhead loop controller
//!
//! This is the umbrella crate of a full reproduction of *Kavvadias &
//! Nikolaidis, "Hardware support for arbitrarily complex loop structures
//! in embedded applications" (DATE 2005)*. It re-exports the workspace
//! crates:
//!
//! * [`mod@isa`] — the XR32 instruction set (with `dbnz` and the ZOLC
//!   coprocessor instructions), assembler and binary encoding;
//! * [`mod@sim`] — a layered simulator (predecode / semantics core /
//!   executors) with two executors behind one trait: the cycle-accurate
//!   5-stage pipeline and a fast functional executor, both with
//!   loop-engine hooks;
//! * [`mod@analyze`] — the static-analysis layer: a worklist dataflow
//!   solver with a lattice library (liveness, constant propagation,
//!   intervals, reachability) whose facts drive [`cfg::retarget`]'s
//!   handledness filters and the binary lint pass, execution-checked
//!   against functional traces;
//! * [`mod@core`] — the ZOLC itself: task selection, loop parameter tables,
//!   index calculation, configurations, area/storage/timing models;
//! * [`mod@ir`] — the structured loop IR and its three lowerings
//!   (`XRdefault`, `XRhrdwil`, ZOLC);
//! * [`mod@cfg`] — control-flow analysis: natural loops, counted-loop
//!   detection, automatic ZOLC mapping and image verification;
//! * [`mod@gen`] — seeded, deterministic generation of loop-structure
//!   families ([`gen::ProgramSpec`]) for property tests and the E7
//!   design-space sweeps;
//! * [`mod@kernels`] — the twelve evaluation benchmarks with bit-exact
//!   reference models;
//! * [`mod@lang`] — a small C-like loop language (`zolcc`) compiling
//!   through [`mod@ir`] to all three targets, with a bundled program
//!   corpus wired into the differential suites;
//! * [`mod@bench`] — the experiment harness regenerating every table and
//!   figure of the paper (run `cargo bench`), built on a batch-parallel
//!   kernel × target [`bench::JobMatrix`] and the per-program E7 sweep
//!   [`bench::run_sweep`];
//! * [`mod@daemon`] — `zolcd`, a persistent retarget/sweep job daemon
//!   with content-addressed result caches (see the `zolcd` and
//!   `zolc-client` examples);
//! * [`mod@oracle`] — a closed-form loop-summarization oracle deriving
//!   final machine states from the ISA spec alone, used as a fifth
//!   independent arm of the differential suites.
//!
//! The repo-level `ARCHITECTURE.md` diagrams how the crates compose and
//! the two code-generation pipelines (hand lowering via [`mod@ir`],
//! automatic binary retargeting via [`cfg::retarget`]).
//!
//! # Examples
//!
//! Run a benchmark on all three of the paper's configurations:
//!
//! ```
//! use zolc::ir::Target;
//! use zolc::core::ZolcConfig;
//! use zolc::kernels::{build_crc32, run_kernel};
//!
//! for target in [
//!     Target::Baseline,
//!     Target::HwLoop,
//!     Target::Zolc(ZolcConfig::lite()),
//! ] {
//!     let built = build_crc32(&target)?;
//!     let run = run_kernel(&built, 10_000_000)?;
//!     assert!(run.is_correct());
//!     println!("{target}: {} cycles", run.stats.cycles);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use zolc_analyze as analyze;
pub use zolc_bench as bench;
pub use zolc_cfg as cfg;
pub use zolc_core as core;
pub use zolc_daemon as daemon;
pub use zolc_gen as gen;
pub use zolc_ir as ir;
pub use zolc_isa as isa;
pub use zolc_kernels as kernels;
pub use zolc_lang as lang;
pub use zolc_oracle as oracle;
pub use zolc_sim as sim;
