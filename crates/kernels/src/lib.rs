//! # zolc-kernels — the benchmark suite of the ZOLC evaluation
//!
//! Twelve kernels in the style of the XiRisc validation suite plus
//! software motion-estimation kernels, matching the description of the
//! paper's §3 benchmark set. Each kernel is written once in the
//! [`zolc_ir`] structured loop IR, lowered for the three Fig. 2 processor
//! configurations (`XRdefault`, `XRhrdwil`, `ZOLClite` — plus any other
//! ZOLC configuration), and validated **bit-exactly** against a Rust
//! reference model before cycle counts are reported.
//!
//! The Fig. 2 set ([`kernels`]):
//!
//! | kernel       | structure                                  |
//! |--------------|--------------------------------------------|
//! | `vec_mac`    | 1 loop, dual-stream multiply-accumulate    |
//! | `vec_max`    | 1 loop + conditional update                |
//! | `fir`        | 2-deep imperfect nest                      |
//! | `iir_biquad` | 2-deep nest, 21-instruction body           |
//! | `matmul`     | 3-deep nest                                |
//! | `conv2d`     | 4-deep imperfect nest                      |
//! | `dct8x8`     | two sequential 3-deep nests (6 loops)      |
//! | `crc32`      | 2-deep, pure-counter inner loop            |
//! | `bubble_sort`| triangular nest (data-dependent bound)     |
//! | `fft16`      | 3-deep, all bounds stage-dependent         |
//! | `me_fs`      | 4-deep motion-estimation full search       |
//! | `me_tss`     | 4-deep three-step search                   |
//!
//! Extra kernels for the ablation experiments ([`extra_kernels`]):
//! `me_fs_early` (multiple-exit loops) and `find_first` (single-loop
//! early exit, runs even on uZOLC).
//!
//! Besides the hand lowerings, every kernel can be built through the
//! **automatic retargeting pipeline** ([`build_kernel_auto`], which calls
//! [`BuiltKernel::retarget`] on the kernel's `XRdefault` build): the
//! baseline binary is excised and overlaid by `zolc_cfg::retarget`,
//! with no IR knowledge, and verified against the same reference
//! expectation.
//!
//! # Examples
//!
//! ```
//! use zolc_kernels::{kernels, run_kernel};
//! use zolc_ir::Target;
//!
//! let entry = &kernels()[0];
//! let built = (entry.build)(&Target::Baseline)?;
//! let run = run_kernel(&built, 10_000_000)?;
//! assert!(run.is_correct());
//! assert!(run.stats.cycles > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod auto;
mod common;
mod filters;
mod linalg;
mod misc;
mod motion;
mod vec;

pub use auto::{build_kernel_auto, AutoKernel, AutoStats};
pub use common::{
    fig2_targets, run_kernel, BuildError, BuiltKernel, Expectation, KernelRun, Xorshift,
};
pub use filters::{build_fir, build_iir_biquad};
pub use linalg::{build_conv2d, build_dct8x8, build_matmul};
pub use misc::{build_bubble_sort, build_crc32, build_fft16};
pub use motion::{build_find_first, build_me_fs, build_me_fs_early, build_me_tss};
pub use vec::{build_vec_mac, build_vec_max};
pub use zolc_sim::ExecutorKind;

use zolc_ir::Target;

/// A kernel builder function: deterministic for a given target.
pub type BuildFn = fn(&Target) -> Result<BuiltKernel, BuildError>;

/// A registry entry describing one benchmark.
#[derive(Debug, Clone, Copy)]
pub struct KernelEntry {
    /// Kernel name (matches `BuiltKernel::name`).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// The builder.
    pub build: BuildFn,
}

/// The twelve benchmarks of the paper's Fig. 2 comparison.
pub fn kernels() -> &'static [KernelEntry] {
    &[
        KernelEntry {
            name: "vec_mac",
            description: "64-element dot product with energy accumulation",
            build: build_vec_mac,
        },
        KernelEntry {
            name: "vec_max",
            description: "80-element maximum search with argument tracking",
            build: build_vec_max,
        },
        KernelEntry {
            name: "fir",
            description: "16-tap FIR filter over 64 samples",
            build: build_fir,
        },
        KernelEntry {
            name: "iir_biquad",
            description: "4-section cascaded biquad IIR over 48 samples (Q14)",
            build: build_iir_biquad,
        },
        KernelEntry {
            name: "matmul",
            description: "8x8x8 integer matrix multiply",
            build: build_matmul,
        },
        KernelEntry {
            name: "conv2d",
            description: "3x3 convolution over a 16x16 image",
            build: build_conv2d,
        },
        KernelEntry {
            name: "dct8x8",
            description: "8x8 two-pass DCT (Q13)",
            build: build_dct8x8,
        },
        KernelEntry {
            name: "crc32",
            description: "bit-serial CRC-32 over 32 bytes",
            build: build_crc32,
        },
        KernelEntry {
            name: "bubble_sort",
            description: "bubble sort of 24 words (triangular nest)",
            build: build_bubble_sort,
        },
        KernelEntry {
            name: "fft16",
            description: "16-point radix-2 FFT (Q14, stage-dependent bounds)",
            build: build_fft16,
        },
        KernelEntry {
            name: "me_fs",
            description: "motion estimation: full search, +-4 window, 8x8 SAD",
            build: build_me_fs,
        },
        KernelEntry {
            name: "me_tss",
            description: "motion estimation: three-step search",
            build: build_me_tss,
        },
    ]
}

/// Additional kernels used by the ablation experiments (multiple-exit
/// loops and uZOLC-compatible early exit).
pub fn extra_kernels() -> &'static [KernelEntry] {
    &[
        KernelEntry {
            name: "me_fs_early",
            description: "full search with early SAD termination (multi-exit)",
            build: build_me_fs_early,
        },
        KernelEntry {
            name: "find_first",
            description: "single-loop early-exit search (uZOLC-compatible)",
            build: build_find_first,
        },
    ]
}

/// Looks up a registry entry by name across the Fig. 2 set and the
/// ablation extras.
pub fn find_kernel(name: &str) -> Option<KernelEntry> {
    kernels()
        .iter()
        .chain(extra_kernels())
        .find(|k| k.name == name)
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_kernel_covers_both_registries() {
        assert_eq!(find_kernel("vec_mac").unwrap().name, "vec_mac");
        assert_eq!(find_kernel("me_fs_early").unwrap().name, "me_fs_early");
        assert!(find_kernel("no_such_kernel").is_none());
    }

    #[test]
    fn registry_has_twelve_fig2_kernels() {
        assert_eq!(kernels().len(), 12);
        let mut names: Vec<&str> = kernels().iter().map(|k| k.name).collect();
        names.dedup();
        assert_eq!(names.len(), 12, "duplicate kernel names");
    }

    #[test]
    fn registry_names_match_built_names() {
        for k in kernels() {
            let b = (k.build)(&Target::Baseline).unwrap();
            assert_eq!(b.name, k.name);
        }
    }

    #[test]
    fn descriptions_are_nonempty() {
        for k in kernels().iter().chain(extra_kernels()) {
            assert!(!k.description.is_empty());
        }
    }
}
