//! # zolc-analyze — dataflow and abstract interpretation over XR32 binaries
//!
//! The retargeting flow of the DATE 2005 paper hinges on *proving*
//! properties of binaries statically: which registers the controller may
//! own, which values escape a loop, which code can execute at all. This
//! crate provides the machinery those proofs are built from — a worklist
//! dataflow solver over an explicit flow graph plus a small lattice
//! library — and two concrete analyses on top of it:
//!
//! * [`Liveness`] — backward register liveness ([`RegSet`] facts);
//! * [`ConstProp`] — forward constant propagation ([`Cv`] facts).
//!
//! Block reachability needs no pass of its own: constant propagation
//! prunes no branch, so its unreachable `⊥` (`None`) marks exactly the
//! blocks no path from the entry reaches
//! (`solve(g, &ConstProp).block_in[b].is_none()`).
//!
//! A new pass is an [`Analysis`] implementation: a fact type, a join,
//! and a per-instruction transfer function — the solver does the rest.
//!
//! # Instruction semantics come from the executor core
//!
//! Wherever an abstract transfer function has fully-known operands it
//! evaluates the instruction through [`zolc_sim::exec::step`] — the same
//! pure semantics function every executor tier retires through — so the
//! analyses cannot drift from the machine on concrete arithmetic. Only
//! the genuinely abstract rules (the top-degradations) are this crate's
//! own, and those are differentially tested: the root
//! `prop_analysis_sound` suite replays analyzer facts against
//! functional-executor retire traces on seeded `zolc-gen` programs
//! (dead registers are never read before redefinition, pinned
//! constants match the machine, unreachable blocks never retire an
//! instruction).
//!
//! # The flow graph
//!
//! The solver runs over a [`FlowGraph`] — basic blocks of decoded
//! instructions with explicit successor edges. This crate owns the
//! workspace's one adjacency format, [`Adjacency`], with its one
//! builder. `zolc_cfg::Cfg` (its crate sits *above* this one) stores
//! an `Adjacency` too, and `Cfg::flow` copies it into a graph with the
//! blocks' instructions, so in practice every analysis here runs over
//! a `Cfg`.
//!
//! # Examples
//!
//! Liveness over a two-block program:
//!
//! ```
//! use zolc_analyze::{solve, FlowBlock, FlowGraph, Liveness, RegSet};
//! use zolc_isa::{reg, Instr};
//!
//! // b0: li r2, 7         (addi r2, r0, 7)
//! // b1: add r3, r2, r2 ; halt
//! let g = FlowGraph::new(
//!     0,
//!     &[
//!         FlowBlock {
//!             start: 0,
//!             instrs: &[Instr::Addi { rt: reg(2), rs: reg(0), imm: 7 }],
//!             succs: &[1],
//!         },
//!         FlowBlock {
//!             start: 4,
//!             instrs: &[
//!                 Instr::Add { rd: reg(3), rs: reg(2), rt: reg(2) },
//!                 Instr::Halt,
//!             ],
//!             succs: &[],
//!         },
//!     ],
//! );
//! let live = Liveness { at_exit: RegSet::EMPTY };
//! let sol = solve(&g, &live);
//! assert!(sol.block_in[1].contains(reg(2)), "r2 is read by b1");
//! assert!(!sol.block_in[0].contains(reg(2)), "r2 is defined before use");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod constprop;
mod graph;
mod live;
mod solver;

pub use constprop::{ConstFact, ConstProp, Cv};
pub use graph::{Adjacency, FlowBlock, FlowGraph};
pub use live::{Liveness, RegSet};
pub use solver::{solve, Analysis, Direction, RegFacts, Solution};
