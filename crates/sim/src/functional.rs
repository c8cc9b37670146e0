//! The fast functional executor: architecture only, no pipeline timing.
//!
//! [`FunctionalCpu`] interprets one instruction per step straight off the
//! predecoded [`TextImage`], using the same semantics core
//! ([`crate::exec::step`]) and the same [`LoopEngine`] integration points
//! as the cycle-accurate pipeline — but with no fetch speculation, no
//! forwarding network, no interlocks and no flush penalties to model.
//! Final registers, memory and retire counts are bit-identical to the
//! pipeline's (the root `prop_exec_equiv` suite enforces this); cycle
//! counts are not produced (`Stats::cycles` stays 0).
//!
//! The architectural machine state plus the per-instruction step core
//! live in the crate-private [`Machine`], which this executor wraps
//! one-to-one and the nest tier ([`crate::NestCpu`]) reuses as its
//! fallback interpreter — one step core, shared by both functional
//! tiers.
//!
//! Use it wherever architectural results are the point and cycles are
//! not: correctness sweeps over many inputs, differential testing,
//! reference runs for new kernels. On passive engines (no controller —
//! see [`LoopEngine::is_passive`]) the hook calls vanish statically.
//!
//! # Engine-driving contract
//!
//! Because nothing is speculative, the executor drives a [`LoopEngine`]
//! with strict per-instruction alternation: `on_fetch(pc)` immediately
//! followed by `on_execute(pc, event)` for the same instruction, with
//! `on_flush` after taken conditional branches (including `dbnz`), `jr`
//! and `zctl`, but not after ID-resolved `j`/`jal` — mirroring the
//! pipeline's flush points. (`on_flush` is idempotent by contract, so
//! the one place the schedules can differ — a `dbnz` the pipeline
//! resolves early in ID without flushing — is harmless.) Engines written
//! against the pipeline's speculative calling pattern observe a legal,
//! wrong-path-free schedule and need no changes.
//!
//! `on_fetch` and `on_execute` are called only at pcs in the engine's
//! hook footprint ([`LoopEngine::hook_pcs`]), read when a run starts and
//! re-read after every `exec_zwr`/`exec_zctl`; each call is checked
//! against the footprint current at that moment, so an `on_execute`
//! follows a table write made by its own instruction. `on_flush` is
//! called at every flush point regardless.

use crate::cpu::{CpuConfig, Executor, ExecutorKind, RetireEvent, RunError, MEM_SIZE};
use crate::engine::{ExecEvent, FetchDecision, HookMap, LoopEngine};
use crate::exec::{step, Effect};
use crate::mem::{MemError, Memory};
use crate::program::CompiledProgram;
use crate::regfile::RegFile;
use crate::stats::Stats;
use std::sync::Arc;
use zolc_isa::{Reg, DATA_BASE, TEXT_BASE};

/// The architectural machine state shared by the functional tiers, with
/// the one-instruction step core both dispatch through.
///
/// `FunctionalCpu` is a thin wrapper running `step_instr` in a loop; the
/// nest executor mutates the same state from its superblocks and falls
/// back to `step_instr` for everything a superblock cannot express.
#[derive(Debug)]
pub(crate) struct Machine {
    pub(crate) config: CpuConfig,
    pub(crate) prog: Arc<CompiledProgram>,
    pub(crate) mem: Memory,
    pub(crate) regs: RegFile,
    pub(crate) pc: u32,
    pub(crate) stats: Stats,
    pub(crate) retire_log: Vec<RetireEvent>,
    /// The active engine's hook footprint over this program's text.
    pub(crate) hooks: HookMap,
}

impl Machine {
    pub(crate) fn new(config: CpuConfig) -> Machine {
        Machine {
            config,
            prog: CompiledProgram::empty(),
            mem: Memory::new(MEM_SIZE),
            regs: RegFile::new(),
            pc: TEXT_BASE,
            stats: Stats::default(),
            retire_log: Vec::new(),
            hooks: HookMap::default(),
        }
    }

    /// A fresh session over a shared compiled program: new memory with
    /// the text and data segments written, pc at the start of text,
    /// zeroed registers and statistics.
    pub(crate) fn session(
        prog: &Arc<CompiledProgram>,
        config: CpuConfig,
    ) -> Result<Machine, MemError> {
        let mut m = Machine::new(config);
        m.attach(Arc::clone(prog))?;
        Ok(m)
    }

    /// Points this machine at `prog` and (re)writes its memory image;
    /// registers and statistics are left untouched so callers can
    /// pre-seed state.
    pub(crate) fn attach(&mut self, prog: Arc<CompiledProgram>) -> Result<(), MemError> {
        self.mem.write_bytes(TEXT_BASE, prog.text_bytes())?;
        self.mem.write_bytes(DATA_BASE, prog.source().data())?;
        self.prog = prog;
        self.pc = TEXT_BASE;
        Ok(())
    }

    /// The per-instruction interpreter loop, monomorphized over engine
    /// passivity: for a passive engine (no controller attached) the
    /// per-instruction hook calls and the `FetchDecision` copy vanish
    /// statically, which is most of the interpreter's overhead on plain
    /// cores. An active engine's hooks run only at its footprint pcs.
    pub(crate) fn run(
        &mut self,
        engine: &mut dyn LoopEngine,
        fuel: u64,
    ) -> Result<Stats, RunError> {
        if engine.is_passive() {
            self.run_loop::<true>(engine, fuel)
        } else {
            self.refresh_hooks(engine);
            self.run_loop::<false>(engine, fuel)
        }
    }

    /// Re-reads `engine`'s hook footprint (see [`HookMap::refresh`]).
    pub(crate) fn refresh_hooks(&mut self, engine: &dyn LoopEngine) {
        self.hooks.refresh(engine, self.prog.text().len());
    }

    fn run_loop<const PASSIVE: bool>(
        &mut self,
        engine: &mut dyn LoopEngine,
        fuel: u64,
    ) -> Result<Stats, RunError> {
        let limit = self.stats.retired.saturating_add(fuel);
        loop {
            if self.stats.retired >= limit {
                return Err(RunError::OutOfFuel { fuel });
            }
            if self.step_instr::<PASSIVE>(engine)? {
                return Ok(self.stats);
            }
        }
    }

    /// Executes one instruction to completion. Returns `true` when `halt`
    /// retires. With `PASSIVE` false the hooks run where the footprint
    /// (which must have been refreshed for this run) says so.
    pub(crate) fn step_instr<const PASSIVE: bool>(
        &mut self,
        engine: &mut dyn LoopEngine,
    ) -> Result<bool, RunError> {
        let pc = self.pc;
        let instr = match self.prog.text().fetch(pc) {
            Ok(i) => i,
            // No speculation: every fetch is architectural, so a bad pc
            // is immediately the fault the pipeline raises when an
            // un-squashed fault slot retires.
            Err(e) => return Err(RunError::from_fetch(e, pc)),
        };
        // The fetch succeeded, so `pc` is an aligned in-text address.
        let ix = (pc.wrapping_sub(TEXT_BASE) / 4) as usize;
        let decision = if PASSIVE || !self.hooks.at(ix) {
            FetchDecision::none()
        } else {
            engine.on_fetch(pc)
        };
        if decision.redirect.is_some() {
            self.stats.zolc_redirects += 1;
        }

        let effect = step(instr, pc, |r| self.regs.read(r));
        // The engine's zero-overhead redirect replaces the fall-through;
        // a taken control transfer in the instruction itself overrides it
        // (the pipeline's flush squashes the redirected fetch).
        let mut next = decision.redirect.unwrap_or(pc.wrapping_add(4));
        let mut event = ExecEvent::Plain;
        let mut flush = false;
        let mut halt = false;
        let mut dst: Option<(Reg, u32)> = None;

        match effect {
            Effect::Nop => {}
            Effect::Halt => halt = true,
            Effect::Write { dst: r, value } => dst = Some((r, value)),
            Effect::Load { dst: r, addr, op } => {
                // The access faults even on a load to `r0`.
                let v = op.read(&self.mem, addr)?;
                dst = Some((r, v));
            }
            Effect::Store { addr, value, op } => op.write(&mut self.mem, addr, value)?,
            Effect::Branch {
                taken,
                target,
                decrement,
            } => {
                if let Some(w) = decrement {
                    dst = Some(w);
                    self.stats.dbnz_retired += 1;
                }
                self.stats.branches += 1;
                if taken {
                    self.stats.taken_branches += 1;
                    event = ExecEvent::Taken { target };
                    next = target;
                    flush = true;
                } else {
                    event = ExecEvent::NotTaken;
                }
            }
            Effect::Jump { target, link } => {
                if let Some(w) = link {
                    dst = Some(w);
                }
                event = ExecEvent::Taken { target };
                next = target;
                // `jr` resolves in the pipeline's EX stage with a flush
                // (and an on_flush callback); `j`/`jal` resolve in ID
                // without one. Mirror that distinction.
                flush = matches!(instr, zolc_isa::Instr::Jr { .. });
            }
            Effect::Zwr {
                region,
                index,
                field,
                value,
            } => {
                engine.exec_zwr(region, index, field, value);
                self.stats.zwr_retired += 1;
                if !PASSIVE {
                    self.refresh_hooks(engine);
                }
            }
            Effect::Zctl { op } => {
                engine.exec_zctl(op);
                self.stats.zctl_retired += 1;
                if !PASSIVE {
                    self.refresh_hooks(engine);
                }
                // Context-synchronizing, like the pipeline's post-zctl
                // flush: execution continues at the next address.
                next = pc.wrapping_add(4);
                flush = true;
            }
        }

        if !PASSIVE && self.hooks.at(ix) {
            engine.on_execute(pc, event);
        }

        // Retire: the instruction's own write, then the index-register
        // rider (the dedicated write port applies after the ALU result).
        if let Some((r, v)) = dst {
            self.regs.write(r, v);
        }
        for (r, v) in decision.index_writes.iter() {
            self.regs.write(r, v);
            self.stats.zolc_index_writes += 1;
        }
        self.stats.retired += 1;
        if self.config.trace_retire {
            self.retire_log.push(RetireEvent {
                cycle: self.stats.retired,
                pc,
                instr,
                dst: dst.filter(|(r, _)| !r.is_zero()),
            });
        }
        if !PASSIVE && flush {
            // Mirror the pipeline's flush points so engines see the same
            // callback sequence (a no-op here: speculative state never
            // diverges from architectural state without speculation).
            engine.on_flush();
        }
        if halt {
            return Ok(true);
        }
        self.pc = next;
        Ok(false)
    }
}

/// The functional (architecture-only) simulated processor.
///
/// # Examples
///
/// ```
/// use zolc_sim::{CompiledProgram, CpuConfig, FunctionalCpu, NullEngine};
/// let program = zolc_isa::assemble("
///     li   r1, 5
///     li   r2, 0
/// top: add  r2, r2, r1
///     addi r1, r1, -1
///     bne  r1, r0, top
///     halt
/// ").unwrap();
/// let prog = CompiledProgram::compile(program);
/// let mut cpu = FunctionalCpu::session(&prog, CpuConfig::default())?;
/// let stats = cpu.run(&mut NullEngine, 10_000).unwrap();
/// assert_eq!(cpu.regs().read(zolc_isa::reg(2)), 5 + 4 + 3 + 2 + 1);
/// assert_eq!(stats.cycles, 0); // no timing model
/// assert!(stats.retired > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct FunctionalCpu {
    m: Machine,
}

impl FunctionalCpu {
    /// Opens a fresh run session over a shared compiled program: text
    /// and data written into new memory, pc at the start of text,
    /// zeroed registers and statistics. Any number of sessions may
    /// share one [`CompiledProgram`] concurrently.
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] if a segment does not fit in memory.
    pub fn session(
        prog: &Arc<CompiledProgram>,
        config: CpuConfig,
    ) -> Result<FunctionalCpu, MemError> {
        Ok(FunctionalCpu {
            m: Machine::session(prog, config)?,
        })
    }

    /// The data memory.
    pub fn mem(&self) -> &Memory {
        &self.m.mem
    }

    /// Mutable access to data memory (for seeding test inputs).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.m.mem
    }

    /// The register file.
    pub fn regs(&self) -> &RegFile {
        &self.m.regs
    }

    /// Mutable access to the register file (for seeding test inputs).
    pub fn regs_mut(&mut self) -> &mut RegFile {
        &mut self.m.regs
    }

    /// Statistics of the run so far (`cycles` is always 0; event counters
    /// match the pipeline's architectural counts).
    pub fn stats(&self) -> &Stats {
        &self.m.stats
    }

    /// The retire-order trace (empty unless `trace_retire` was set); the
    /// `cycle` field holds the retire ordinal.
    pub fn retire_log(&self) -> &[RetireEvent] {
        &self.m.retire_log
    }

    /// The address of the next instruction to execute (after `halt`,
    /// the `halt` itself; after a fault, the faulting instruction or
    /// fetch address).
    pub fn pc(&self) -> u32 {
        self.m.pc
    }

    /// Runs until `halt` retires or `fuel` instructions retire.
    ///
    /// # Errors
    ///
    /// * [`RunError::OutOfFuel`] if `halt` is not reached in budget;
    /// * [`RunError::PcOutOfText`] if execution leaves the text segment;
    /// * [`RunError::MisalignedFetch`] on a non-4-aligned pc;
    /// * [`RunError::Mem`] on a data access fault.
    pub fn run(&mut self, engine: &mut dyn LoopEngine, fuel: u64) -> Result<Stats, RunError> {
        self.m.run(engine, fuel)
    }
}

impl Executor for FunctionalCpu {
    fn kind(&self) -> ExecutorKind {
        ExecutorKind::Functional
    }

    fn run(&mut self, engine: &mut dyn LoopEngine, fuel: u64) -> Result<Stats, RunError> {
        FunctionalCpu::run(self, engine, fuel)
    }

    fn regs(&self) -> &RegFile {
        FunctionalCpu::regs(self)
    }

    fn regs_mut(&mut self) -> &mut RegFile {
        FunctionalCpu::regs_mut(self)
    }

    fn mem(&self) -> &Memory {
        FunctionalCpu::mem(self)
    }

    fn mem_mut(&mut self) -> &mut Memory {
        FunctionalCpu::mem_mut(self)
    }

    fn stats(&self) -> &Stats {
        FunctionalCpu::stats(self)
    }

    fn retire_log(&self) -> &[RetireEvent] {
        FunctionalCpu::retire_log(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NullEngine;
    use zolc_isa::{assemble, reg};

    fn session(src: &str) -> FunctionalCpu {
        let p = assemble(src).expect("assembles");
        FunctionalCpu::session(&CompiledProgram::compile(p), CpuConfig::default()).unwrap()
    }

    fn run_functional(src: &str) -> (FunctionalCpu, Stats) {
        let mut cpu = session(src);
        let stats = cpu.run(&mut NullEngine, 1_000_000).expect("runs");
        (cpu, stats)
    }

    #[test]
    fn countdown_loop_architectural_results() {
        let (cpu, stats) = run_functional(
            "
            li   r1, 10
            li   r2, 0
      top:  add  r2, r2, r1
            addi r1, r1, -1
            bne  r1, r0, top
            halt
        ",
        );
        assert_eq!(cpu.regs().read(reg(2)), (1..=10).sum::<u32>());
        assert_eq!(stats.cycles, 0);
        assert_eq!(stats.retired, 2 + 3 * 10 + 1);
        assert_eq!(stats.taken_branches, 9);
        assert_eq!(stats.branches, 10);
    }

    #[test]
    fn dbnz_and_jumps() {
        let (cpu, stats) = run_functional(
            "
            li   r1, 4
            jal  sub
      top:  addi r2, r2, 1
            dbnz r1, top
            halt
      sub:  addi r5, r0, 9
            jr   r31
        ",
        );
        assert_eq!(cpu.regs().read(reg(2)), 4);
        assert_eq!(cpu.regs().read(reg(5)), 9);
        assert_eq!(stats.dbnz_retired, 4);
        assert_eq!(stats.flushes, 0);
    }

    #[test]
    fn memory_faults_propagate() {
        let mut cpu = session("li r1, 2\nlw r2, (r1)\nhalt");
        let r = cpu.run(&mut NullEngine, 1000);
        assert!(matches!(r, Err(RunError::Mem(_))));
    }

    #[test]
    fn running_off_text_is_an_error() {
        let mut cpu = session("nop\nnop\n");
        let r = cpu.run(&mut NullEngine, 1000);
        assert!(matches!(r, Err(RunError::PcOutOfText { .. })));
    }

    #[test]
    fn instruction_budget_detected() {
        let mut cpu = session("top: j top\nhalt");
        let r = cpu.run(&mut NullEngine, 100);
        assert!(matches!(r, Err(RunError::OutOfFuel { .. })));
    }

    #[test]
    fn retire_log_uses_ordinals() {
        let p = assemble("nop\nnop\nhalt").unwrap();
        let mut cpu = FunctionalCpu::session(
            &CompiledProgram::compile(p),
            CpuConfig { trace_retire: true },
        )
        .unwrap();
        cpu.run(&mut NullEngine, 100).unwrap();
        let ords: Vec<u64> = cpu.retire_log().iter().map(|e| e.cycle).collect();
        assert_eq!(ords, vec![1, 2, 3]);
    }
}
