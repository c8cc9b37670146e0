//! Shared executor-facing surface: configuration, errors, the
//! [`Executor`] trait and the [`run_program`]/[`run_session`] entry
//! points.
//!
//! The simulator is layered (see the crate docs): the predecode and
//! semantics layers live in [`crate::exec`], and three interchangeable
//! executors implement the [`Executor`] trait on top of them — the
//! cycle-accurate 5-stage [`Cpu`](crate::Cpu), the functional
//! reference [`FunctionalCpu`](crate::FunctionalCpu) and the loop-nest
//! superblock [`NestCpu`](crate::NestCpu). This module holds everything
//! they share.

use crate::engine::LoopEngine;
use crate::mem::{MemError, Memory};
use crate::program::CompiledProgram;
use crate::regfile::RegFile;
use crate::stats::Stats;
use crate::{Cpu, FunctionalCpu};
use zolc_isa::{Instr, Program, Reg, DATA_BASE};

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Memory size in bytes of every session: the text and data segments
/// below [`DATA_BASE`] plus 1 MiB of data memory.
///
/// Every address below it reads zero until the program image or a run
/// writes it, and every access at or beyond it faults with
/// [`MemErrorKind::OutOfBounds`](crate::MemErrorKind::OutOfBounds).
/// Sessions do not pay for zeroing all of it: a dropped session's memory
/// is recycled by the next session on the same thread, with only the
/// pages the run wrote reset (see [`Memory`]).
pub const MEM_SIZE: usize = (DATA_BASE as usize) + (1 << 20);

/// Configuration of the simulated core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuConfig {
    /// Whether to collect a retire-order trace (costs memory).
    pub trace_retire: bool,
}

/// Errors terminating a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunError {
    /// A data access faulted.
    Mem(MemError),
    /// Execution ran off the text segment (a non-speculative fetch fault).
    PcOutOfText {
        /// The faulting fetch address.
        pc: u32,
    },
    /// Execution reached a non-4-aligned pc (a non-speculative fetch
    /// fault). The address is reported as-is — it is never truncated to
    /// the containing instruction.
    MisalignedFetch {
        /// The faulting (misaligned) fetch address.
        pc: u32,
    },
    /// The run fuel — a retired-instruction budget with identical
    /// meaning on every executor (see [`Executor::run`]) — was exhausted
    /// without reaching `halt`.
    OutOfFuel {
        /// The configured fuel budget.
        fuel: u64,
    },
}

impl RunError {
    /// Maps a fetch fault at `pc` to the matching run error (used by
    /// every executor when a fetch is, or becomes, architectural).
    pub(crate) fn from_fetch(e: crate::exec::FetchError, pc: u32) -> RunError {
        match e {
            crate::exec::FetchError::Misaligned => RunError::MisalignedFetch { pc },
            crate::exec::FetchError::OutOfText => RunError::PcOutOfText { pc },
        }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Mem(e) => write!(f, "memory fault: {e}"),
            RunError::PcOutOfText { pc } => write!(f, "execution left the text segment at {pc:#x}"),
            RunError::MisalignedFetch { pc } => {
                write!(f, "instruction fetch at misaligned address {pc:#x}")
            }
            RunError::OutOfFuel { fuel } => {
                write!(f, "fuel budget of {fuel} retired instructions exceeded")
            }
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Mem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MemError> for RunError {
    fn from(e: MemError) -> Self {
        RunError::Mem(e)
    }
}

/// One retired instruction, recorded when tracing is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetireEvent {
    /// Cycle at which the instruction left WB (on the cycle-accurate
    /// executor) or the retire ordinal (on the functional executor,
    /// which has no clock).
    pub cycle: u64,
    /// Its address.
    pub pc: u32,
    /// The instruction.
    pub instr: Instr,
    /// The instruction's own register write, if it performed one
    /// (`None` for stores, branches without a `dbnz` decrement, and
    /// discarded writes to `r0`). ZOLC index-register rider writes are
    /// not the instruction's own and are not recorded here.
    pub dst: Option<(Reg, u32)>,
}

/// A processor core running one session over a compiled program.
///
/// All executors implement this trait so harness code (kernels, the
/// experiment matrix, property tests) can run any of them without caring
/// which; pick one with [`ExecutorKind`] and open a session with
/// [`ExecutorKind::new_session`].
///
/// # Fuel semantics
///
/// The `fuel` passed to [`Executor::run`] is a **retired-instruction
/// budget with one meaning on every executor**: the run fails with
/// [`RunError::OutOfFuel`] the moment it would need to retire more than
/// `fuel` instructions. Because retirement is architectural, the same
/// program exhausts the same fuel at the same instruction on the
/// cycle-accurate, functional and nest executors — a matrix budget
/// times out at one well-defined point regardless of backend. (The
/// cycle-accurate executor additionally caps *cycles* at a large
/// documented multiple of `fuel` purely as a liveness valve against
/// simulator deadlock bugs; real programs retire long before it.)
pub trait Executor {
    /// Which executor implementation this is.
    fn kind(&self) -> ExecutorKind;

    /// Runs until `halt` retires or the fuel (retired-instruction
    /// budget; see the trait docs) is exhausted.
    ///
    /// # Errors
    ///
    /// * [`RunError::OutOfFuel`] if `halt` does not retire within `fuel`
    ///   retired instructions;
    /// * [`RunError::PcOutOfText`] if execution (non-speculatively)
    ///   leaves the text segment;
    /// * [`RunError::MisalignedFetch`] if execution (non-speculatively)
    ///   reaches a non-4-aligned pc;
    /// * [`RunError::Mem`] on a data access fault.
    fn run(&mut self, engine: &mut dyn LoopEngine, fuel: u64) -> Result<Stats, RunError>;

    /// The register file.
    fn regs(&self) -> &RegFile;

    /// Mutable access to the register file (for seeding test inputs).
    fn regs_mut(&mut self) -> &mut RegFile;

    /// The data memory.
    fn mem(&self) -> &Memory;

    /// Mutable access to data memory (for seeding test inputs).
    fn mem_mut(&mut self) -> &mut Memory;

    /// Statistics of the run so far.
    fn stats(&self) -> &Stats;

    /// The retire-order trace (empty unless `trace_retire` was set).
    fn retire_log(&self) -> &[RetireEvent];
}

/// Which executor implementation to run a program on.
///
/// * [`ExecutorKind::CycleAccurate`] — the 5-stage pipeline: exact cycle
///   counts (the paper's metric), slowest to simulate;
/// * [`ExecutorKind::Functional`] — architecture only: identical final
///   registers, memory and retire counts, no cycle counts;
/// * [`ExecutorKind::Nest`] — the loop-nest superblock executor: same
///   architectural results as `Functional` (the three-way
///   `prop_exec_equiv` suite enforces it), with whole regions free of
///   engine hooks (counted loop nests included) compiled once into
///   trip-parameterized, direct-threaded op arrays with the canonical
///   counted-loop latches fused into counted-repeat ops — no
///   per-iteration block lookup or terminator dispatch, and a bulk path
///   for innermost straight-line bodies. The engine's hook footprint
///   ([`LoopEngine::hook_pcs`]) ends superblocks: footprint pcs, plus
///   `zwr`/`zctl`/`dbnz`, run through the step core with the engine's
///   hooks, so an active ZOLC runs in superblocks between its task ends.
///   Faults, traced runs and engines whose footprint is every pc also
///   take the step core. Use it for the largest correctness sweeps and
///   design-space exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum ExecutorKind {
    /// The cycle-accurate 5-stage pipeline ([`Cpu`]).
    #[default]
    CycleAccurate,
    /// The fast functional executor ([`FunctionalCpu`]).
    Functional,
    /// The loop-nest superblock executor ([`NestCpu`](crate::NestCpu)).
    Nest,
}

impl ExecutorKind {
    /// Opens a fresh run session of this kind over a shared compiled
    /// program (see [`CompiledProgram`]): new memory with the text and
    /// data segments written, pc at the start of text, zeroed registers
    /// and statistics. The program — including the nest tier's
    /// superblock cache — is shared; the session is the cheap per-run
    /// half.
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] if a segment does not fit in memory.
    pub fn new_session(
        self,
        prog: &Arc<CompiledProgram>,
        config: CpuConfig,
    ) -> Result<Box<dyn Executor>, MemError> {
        Ok(match self {
            ExecutorKind::CycleAccurate => Box::new(Cpu::session(prog, config)?),
            ExecutorKind::Functional => Box::new(FunctionalCpu::session(prog, config)?),
            ExecutorKind::Nest => Box::new(crate::NestCpu::session(prog, config)?),
        })
    }

    /// All executor kinds, in speed order (slowest first) — the axis the
    /// differential suites iterate over.
    pub const ALL: [ExecutorKind; 3] = [
        ExecutorKind::CycleAccurate,
        ExecutorKind::Functional,
        ExecutorKind::Nest,
    ];
}

impl fmt::Display for ExecutorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExecutorKind::CycleAccurate => "cycle-accurate",
            ExecutorKind::Functional => "functional",
            ExecutorKind::Nest => "nest",
        })
    }
}

/// Parses the [`Display`](fmt::Display) names, plus `pipeline` for
/// [`ExecutorKind::CycleAccurate`].
impl FromStr for ExecutorKind {
    type Err = String;

    fn from_str(s: &str) -> Result<ExecutorKind, String> {
        match s {
            "pipeline" | "cycle-accurate" => Ok(ExecutorKind::CycleAccurate),
            "functional" => Ok(ExecutorKind::Functional),
            "nest" => Ok(ExecutorKind::Nest),
            other => Err(format!("`{other}` is not one of pipeline|functional|nest")),
        }
    }
}

/// Result of a convenience [`run_program`] or [`run_session`] call.
#[derive(Debug)]
pub struct Finished<C = Cpu> {
    /// The statistics of the completed run.
    pub stats: Stats,
    /// The core, for inspecting registers and memory.
    pub cpu: C,
}

/// Loads `program` into a default-configured cycle-accurate core and
/// runs it to `halt`.
///
/// One-shot convenience: it compiles the program privately. When the
/// same program runs more than once — sweeps, differential suites,
/// concurrent jobs — compile once with [`CompiledProgram::compile`] and
/// use [`run_session`] instead.
///
/// # Errors
///
/// Propagates any [`RunError`]; `fuel` bounds retired instructions (the
/// unified fuel semantic of [`Executor::run`]).
pub fn run_program(
    program: &Program,
    engine: &mut dyn LoopEngine,
    fuel: u64,
) -> Result<Finished, RunError> {
    let prog = CompiledProgram::compile(program.clone());
    let mut cpu = Cpu::session(&prog, CpuConfig::default())?;
    let stats = cpu.run(engine, fuel)?;
    Ok(Finished { stats, cpu })
}

/// Opens a default-configured session of the chosen kind over a shared
/// compiled program and runs it to `halt`.
///
/// # Errors
///
/// Propagates any [`RunError`]; `fuel` bounds retired instructions
/// identically on every executor kind (see [`Executor::run`]), so the
/// same program exhausts the same fuel at the same instruction no matter
/// which backend runs it.
pub fn run_session(
    kind: ExecutorKind,
    prog: &Arc<CompiledProgram>,
    engine: &mut dyn LoopEngine,
    fuel: u64,
) -> Result<Finished<Box<dyn Executor>>, RunError> {
    let mut cpu = kind.new_session(prog, CpuConfig::default())?;
    let stats = cpu.run(engine, fuel)?;
    Ok(Finished { stats, cpu })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NullEngine;
    use zolc_isa::{assemble, reg};

    #[test]
    fn run_session_selects_the_executor() {
        // (source, result register, its value, retired instructions)
        let programs = [
            ("li r1, 7\naddi r1, r1, 35\nhalt", 1, 42, 3),
            // A 4-deep counted nest: one superblock on the nest tier,
            // with the innermost body in closed form.
            (
                "
                li   r10, 0
                li   r1, 20
          l1:   li   r2, 20
          l2:   li   r3, 20
          l3:   li   r4, 25
          l4:   addi r10, r10, 1
                addi r4, r4, -1
                bne  r4, r0, l4
                addi r3, r3, -1
                bne  r3, r0, l3
                addi r2, r2, -1
                bne  r2, r0, l2
                addi r1, r1, -1
                bne  r1, r0, l1
                halt
                ",
                10,
                20 * 20 * 20 * 25,
                625_263,
            ),
        ];
        for (src, r, value, retired) in programs {
            let prog = CompiledProgram::compile(assemble(src).unwrap());
            for kind in ExecutorKind::ALL {
                let f = run_session(kind, &prog, &mut NullEngine, 10_000_000).unwrap();
                assert_eq!(f.cpu.kind(), kind);
                assert_eq!(f.cpu.regs().read(reg(r)), value, "{kind}");
                assert_eq!(f.stats.retired, retired, "{kind}");
            }
        }
    }

    #[test]
    fn functional_tiers_report_no_cycles() {
        let p = assemble("nop\nhalt").unwrap();
        let prog = CompiledProgram::compile(p);
        for kind in [ExecutorKind::Functional, ExecutorKind::Nest] {
            let f = run_session(kind, &prog, &mut NullEngine, 100).unwrap();
            assert_eq!(f.stats.cycles, 0);
        }
        let f = run_session(ExecutorKind::CycleAccurate, &prog, &mut NullEngine, 100).unwrap();
        assert!(f.stats.cycles > 0);
    }

    #[test]
    fn executor_kind_labels() {
        assert_eq!(ExecutorKind::CycleAccurate.to_string(), "cycle-accurate");
        assert_eq!(ExecutorKind::Functional.to_string(), "functional");
        assert_eq!(ExecutorKind::Nest.to_string(), "nest");
        assert_eq!(ExecutorKind::default(), ExecutorKind::CycleAccurate);
        assert_eq!(ExecutorKind::ALL.len(), 3);
        for kind in ExecutorKind::ALL {
            assert_eq!(kind.to_string().parse::<ExecutorKind>(), Ok(kind));
        }
        assert_eq!("pipeline".parse(), Ok(ExecutorKind::CycleAccurate));
        assert!("compiled".parse::<ExecutorKind>().is_err());
    }
}
