//! # zolc-cfg — control-flow analysis for the ZOLC toolchain
//!
//! The paper assumes programs arrive already mapped onto the controller;
//! this crate is the *analysis* half of that toolchain:
//!
//! * [`Cfg`] — basic blocks and edges from XR32 machine code;
//! * [`Dominators`] — dominator tree (iterative algorithm);
//! * [`LoopForest`] — natural loops, nesting depths, latches and
//!   multiple-entry detection;
//! * [`detect_counted_loops`] — recognition of the software
//!   down-counter and `dbnz` loop patterns;
//! * [`retarget`] — the executable end of the toolchain: excise the
//!   software loop control from a binary, relocate the text, and
//!   synthesize a runnable, self-initializing program/overlay pair
//!   ([`RetargetPlan`] runs the configuration-independent analysis once
//!   and synthesizes per configuration);
//! * [`lint_program`] — dataflow-backed binary diagnostics (unreachable
//!   code, dead stores, discarded `r0` writes, out-of-text branches,
//!   provably non-terminating latches), built on the `zolc-analyze`
//!   solver suite, plus the structural check of a
//!   [`zolc_core::ZolcImage`] against the program text (record
//!   addresses, loop regions, index registers, the task chain and exit
//!   branches).
//!
//! # Examples
//!
//! ```
//! use zolc_cfg::{Cfg, Dominators, LoopForest};
//!
//! let program = zolc_isa::assemble("
//!     li   r1, 5
//! top: addi r1, r1, -1
//!     bne  r1, r0, top
//!     halt
//! ").unwrap();
//! let cfg = Cfg::build(&program);
//! let dom = Dominators::compute(&cfg);
//! let loops = LoopForest::analyze(&cfg, &dom);
//! assert_eq!(loops.len(), 1);
//! assert_eq!(loops.max_depth(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod detect;
mod dom;
mod graph;
mod lint;
mod loops;
mod retarget;

pub use detect::{detect_counted_loops, CountedLoop, RegLimit};
pub use dom::Dominators;
pub use graph::{BasicBlock, Cfg};
pub use lint::{lint_program, Lint, LintKind, LintReport};
pub use loops::{IrreducibleRegion, LoopForest, NaturalLoop};
pub use retarget::{retarget, RetargetError, RetargetPlan, Retargeted, SynthesisKey};

/// Image-checking tests: a lowered image lints clean, and each
/// structural defect of its records is reported through
/// [`lint_program`].
#[cfg(test)]
mod verify {
    mod tests;
}
