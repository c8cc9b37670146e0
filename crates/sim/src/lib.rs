//! # zolc-sim — layered processor simulation for the ZOLC study
//!
//! The simulator is split into three layers so instruction *semantics*
//! are written once and *timing* is a pluggable concern:
//!
//! 1. **Predecode** ([`TextImage`]) — the text segment is decoded once
//!    into a dense instruction array at program load; no executor
//!    re-decodes on its fetch path.
//! 2. **Semantics** ([`exec::step`]) — a pure function from
//!    `(instruction, pc, operand reader)` to an architectural
//!    [`Effect`]: what the instruction does, never when.
//! 3. **Executors** (the [`Executor`] trait, selected by
//!    [`ExecutorKind`]):
//!    * [`Cpu`] — the cycle-accurate single-issue, in-order, 5-stage
//!      (IF/ID/EX/MEM/WB) pipeline with full forwarding, a one-cycle
//!      load-use interlock, EX-resolved branches (2-cycle taken
//!      penalty), ID-resolved jumps and hardware-loop `dbnz` (1-cycle
//!      penalty). It stands in for the XiRisc soft core of *Kavvadias &
//!      Nikolaidis, DATE 2005* and produces the paper's metric: cycles.
//!    * [`FunctionalCpu`] — the functional executor: identical final
//!      registers, memory and retire counts, no cycle counts, no
//!      engine hook calls on cores without a loop controller and hook
//!      calls only at the controller's footprint otherwise. Use it for
//!      correctness sweeps and differential testing; use the pipeline
//!      whenever cycles are the answer.
//!    * [`NestCpu`] — the loop-nest superblock executor: whole regions
//!      free of engine hooks — counted loop nests included — are
//!      compiled once into trip-parameterized, direct-threaded op
//!      arrays whose canonical counted-loop latches fuse into counted
//!      repeat ops, with a zero-dispatch bulk path for innermost
//!      straight-line bodies. No per-iteration block lookup or
//!      terminator dispatch; bails to the step core on
//!      `zwr`/`zctl`/`dbnz`, the engine's hook-footprint pcs
//!      ([`LoopEngine::hook_pcs`]), faults and the fuel boundary at an
//!      instruction-exact resume point. Same architectural results as
//!      `FunctionalCpu`; the fastest tier — the sweep workhorse.
//!
//! All executors enforce one **fuel semantic**: the budget passed to
//! [`Executor::run`] counts *retired instructions* everywhere, so a
//! timeout ([`RunError::OutOfFuel`]) fires at the same instruction no
//! matter which backend runs the program.
//!
//! Loop controllers attach to any executor through the [`LoopEngine`]
//! trait, which mirrors the paper's Fig. 1 integration points: fetch-time
//! next-PC selection (zero-overhead redirect), retire-time commit, the
//! `zwr`/`zctl` coprocessor instructions and a dedicated index-register
//! write port.
//!
//! # Sessions over shared compiled programs
//!
//! The immutable half of an executor — the predecoded text image and
//! the nest tier's superblock cache — lives in an `Arc`-shareable
//! [`CompiledProgram`]; an executor is a cheap per-run **session**
//! (registers, data memory, pc, statistics) opened over it with
//! [`ExecutorKind::new_session`] or the concrete `session`
//! constructors. Compile once, run any number of concurrent sessions:
//! the sweep harness and the `zolcd` job daemon are built on exactly
//! this split.
//!
//! # Examples
//!
//! ```
//! use zolc_sim::{run_program, run_session, CompiledProgram, ExecutorKind, NullEngine};
//!
//! let program = zolc_isa::assemble("
//!     li   r1, 100
//!     li   r2, 0
//! top: add  r2, r2, r1
//!     addi r1, r1, -1
//!     bne  r1, r0, top
//!     halt
//! ").unwrap();
//! // Cycle-accurate: the paper's metric.
//! let finished = run_program(&program, &mut NullEngine, 1_000_000)?;
//! assert_eq!(finished.cpu.regs().read(zolc_isa::reg(2)), (1..=100).sum::<u32>());
//! // Functional: same architecture, no cycles, no pipeline model — a
//! // fresh session over the shared compiled program.
//! let prog = CompiledProgram::compile(program);
//! let fast = run_session(ExecutorKind::Functional, &prog, &mut NullEngine, 1_000_000)?;
//! assert_eq!(fast.cpu.regs().read(zolc_isa::reg(2)), (1..=100).sum::<u32>());
//! assert_eq!(fast.stats.retired, finished.stats.retired);
//! assert_eq!(fast.stats.cycles, 0);
//! # Ok::<(), zolc_sim::RunError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cpu;
mod engine;
pub mod exec;
mod functional;
mod mem;
mod nest;
/// Superblock-lowering tests: every instruction's [`nest`] lowering is
/// checked against `exec::step`, then run on the nest tier against the
/// functional tier.
#[cfg(test)]
mod blocks {
    mod tests;
}
mod pipeline;
mod program;
mod regfile;
mod stats;

pub use cpu::{
    run_program, run_session, CpuConfig, Executor, ExecutorKind, Finished, RetireEvent, RunError,
    MEM_SIZE,
};
pub use engine::{ExecEvent, FetchDecision, LoopEngine, NullEngine, RegWrites};
pub use exec::{Effect, FetchError, TextImage};
pub use functional::FunctionalCpu;
pub use mem::{MemError, MemErrorKind, Memory};
pub use nest::NestCpu;
pub use pipeline::Cpu;
pub use program::{BlockCacheStats, CompiledProgram};
pub use regfile::RegFile;
pub use stats::Stats;
