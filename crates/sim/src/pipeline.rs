//! The cycle-accurate 5-stage in-order pipeline executor.
//!
//! Stage structure (classic embedded RISC, as on the XiRisc core the paper
//! extends):
//!
//! ```text
//! IF -> ID -> EX -> MEM -> WB
//! ```
//!
//! * Full forwarding: a result produced in EX or MEM is available to the
//!   immediately following instruction's EX. Loads impose a one-cycle
//!   load-use interlock.
//! * Conditional branches and `jr` resolve in EX under predict-not-taken:
//!   a taken branch kills the two younger pipeline slots (**2-cycle
//!   penalty**). `j`/`jal` resolve in ID (**1-cycle penalty**). `dbnz` —
//!   the XRhrdwil hardware-loop primitive — also resolves in ID via the
//!   loop counter's dedicated zero-detect (**1-cycle taken penalty**),
//!   falling back to EX resolution when the counter value is not yet
//!   available.
//! * A [`LoopEngine`] observes fetches and retirements. Its fetch-time
//!   redirects cost **zero cycles** — this is precisely the mechanism that
//!   makes the ZOLC a *zero-overhead* loop controller. Engine state
//!   advanced for wrong-path fetches is rolled back via
//!   [`LoopEngine::on_flush`]. `on_fetch`/`on_execute` are called only at
//!   pcs in the engine's hook footprint ([`LoopEngine::hook_pcs`], read
//!   when a run starts and re-read after each `zwr`/`zctl` executes);
//!   `on_flush` is called on every flush.
//! * `zctl` is context-synchronizing: executing it flushes the two younger
//!   slots so mode changes are visible to the very next fetch.
//! * The index-register writes an engine attaches at fetch (its *rider*,
//!   up to eight writes) do not travel in the latches. They sit in a
//!   four-entry ring on the core, one entry per latch, and each latch
//!   carries a one-byte ring index (or "none"). Entries are handed out
//!   round-robin, and only to fetches that get a rider. When a fetch
//!   takes an entry, at most three older instructions are in flight,
//!   so the entry it reuses is no longer named by any latch. A squashed
//!   fetch's entry is simply never read. Most instructions carry no
//!   rider (none ever does on a build without a loop controller), so
//!   the latches stay small: 16 bytes for IF/ID and ID/EX, 36 for
//!   EX/MEM and 28 for MEM/WB, against 68 for one rider.
//!
//! The retire point for control purposes is EX: an instruction that enters
//! EX can no longer be squashed (only EX itself raises flushes, in program
//! order).
//!
//! Instruction *semantics* are not implemented here: EX calls
//! [`crate::exec::step`] with the forwarding network as its operand
//! reader and then schedules the returned [`Effect`] across the
//! EX/MEM/WB stages. The timing model — hazards, flushes, penalties —
//! is this module's entire subject matter.

use crate::cpu::{CpuConfig, Executor, ExecutorKind, RetireEvent, RunError, MEM_SIZE};
use crate::engine::{ExecEvent, HookMap, LoopEngine, RegWrites};
use crate::exec::{step, Effect, FetchError, LoadOp, StoreOp};
use crate::mem::{MemError, Memory};
use crate::program::CompiledProgram;
use crate::regfile::RegFile;
use crate::stats::Stats;
use std::sync::Arc;
use zolc_isa::{Instr, Reg, DATA_BASE, TEXT_BASE};

/// Ring index meaning "no rider". It lies outside the ring, so looking
/// it up finds nothing.
const NO_RIDER: u8 = u8::MAX;

/// The index-register writes of the instructions in flight, which the
/// latches name by a one-byte index (see the module docs).
#[derive(Debug, Default)]
struct RiderRing {
    /// One entry per pipeline latch.
    entries: [RegWrites; 4],
    /// The entry the next rider-bearing fetch takes.
    next: u8,
}

impl RiderRing {
    /// Stores `writes` for a fetch and returns its index, reusing the
    /// entry of the rider-bearing fetch four back (free by then; see
    /// the module docs).
    fn push(&mut self, writes: RegWrites) -> u8 {
        let ix = self.next;
        self.entries[usize::from(ix)] = writes;
        self.next = (ix + 1) % self.entries.len() as u8;
        ix
    }

    /// The writes at index `ix` (`None` for [`NO_RIDER`]).
    fn get(&self, ix: u8) -> Option<&RegWrites> {
        self.entries.get(usize::from(ix))
    }

    /// The value the writes at `ix` give `r`, if they write it.
    fn value_for(&self, ix: u8, r: Reg) -> Option<u32> {
        self.get(ix).and_then(|w| w.value_for(r))
    }
}

/// Payload of the IF/ID and ID/EX latches.
#[derive(Debug, Clone, Copy)]
struct Slot {
    pc: u32,
    instr: Instr,
    /// Ring index of the index-register writes the loop engine attached
    /// at fetch, or [`NO_RIDER`].
    rider: u8,
    /// Fetch fault marker (misaligned or out-of-text): raises the
    /// matching error if it reaches EX un-squashed.
    fault: Option<FetchError>,
    /// `dbnz` outcome already resolved in ID (the hardware-loop unit's
    /// dedicated zero-detect); `None` = resolve in EX like other branches.
    dbnz_taken: Option<bool>,
}

/// The memory access scheduled for the MEM stage.
#[derive(Debug, Clone, Copy)]
enum MemAccess {
    Load(LoadOp),
    Store(StoreOp),
}

/// Payload of the EX/MEM latch.
#[derive(Debug, Clone, Copy)]
struct MemSlot {
    pc: u32,
    instr: Instr,
    /// The access MEM must perform, if any.
    access: Option<MemAccess>,
    /// Effective address for loads/stores.
    addr: u32,
    /// Value to store (stores only).
    store_val: u32,
    /// Destination write (loads get their value filled in MEM).
    dst: Option<(Reg, u32)>,
    rider: u8,
}

/// Payload of the MEM/WB latch.
#[derive(Debug, Clone, Copy)]
struct WbSlot {
    pc: u32,
    instr: Instr,
    dst: Option<(Reg, u32)>,
    rider: u8,
}

/// The cycle-accurate simulated processor.
///
/// # Examples
///
/// ```
/// use zolc_sim::{CompiledProgram, Cpu, CpuConfig, NullEngine};
/// let program = zolc_isa::assemble("
///     li   r1, 5
///     li   r2, 0
/// top: add  r2, r2, r1
///     addi r1, r1, -1
///     bne  r1, r0, top
///     halt
/// ").unwrap();
/// let prog = CompiledProgram::compile(program);
/// let mut cpu = Cpu::session(&prog, CpuConfig::default())?;
/// let stats = cpu.run(&mut NullEngine, 10_000).unwrap();
/// assert_eq!(cpu.regs().read(zolc_isa::reg(2)), 5 + 4 + 3 + 2 + 1);
/// assert!(stats.cycles > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Cpu {
    config: CpuConfig,
    prog: Arc<CompiledProgram>,
    mem: Memory,
    regs: RegFile,
    pc: u32,
    if_id: Option<Slot>,
    id_ex: Option<Slot>,
    ex_mem: Option<MemSlot>,
    mem_wb: Option<WbSlot>,
    /// The in-flight riders, named by the latches' `rider` fields.
    riders: RiderRing,
    /// Fetch is parked (past `halt`, or after a fetch fault) until a flush
    /// redirects it.
    fetch_stopped: bool,
    stats: Stats,
    retire_log: Vec<RetireEvent>,
    /// The engine's hook footprint over this program's text.
    hooks: HookMap,
}

impl Cpu {
    /// Opens a fresh run session over a shared compiled program: text
    /// and data written into new memory, pc at the start of text,
    /// zeroed registers and statistics. Any number of sessions may
    /// share one [`CompiledProgram`] concurrently.
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] if a segment does not fit in memory.
    pub fn session(prog: &Arc<CompiledProgram>, config: CpuConfig) -> Result<Cpu, MemError> {
        let mut cpu = Cpu {
            config,
            prog: Arc::clone(prog),
            mem: Memory::new(MEM_SIZE),
            regs: RegFile::new(),
            pc: TEXT_BASE,
            if_id: None,
            id_ex: None,
            ex_mem: None,
            mem_wb: None,
            riders: RiderRing::default(),
            fetch_stopped: false,
            stats: Stats::default(),
            retire_log: Vec::new(),
            hooks: HookMap::default(),
        };
        cpu.mem.write_bytes(TEXT_BASE, prog.text_bytes())?;
        cpu.mem.write_bytes(DATA_BASE, prog.source().data())?;
        Ok(cpu)
    }

    /// The data memory.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable access to data memory (for seeding test inputs).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// The register file.
    pub fn regs(&self) -> &RegFile {
        &self.regs
    }

    /// Mutable access to the register file (for seeding test inputs).
    pub fn regs_mut(&mut self) -> &mut RegFile {
        &mut self.regs
    }

    /// Statistics of the run so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The retire-order trace (empty unless `trace_retire` was set).
    pub fn retire_log(&self) -> &[RetireEvent] {
        &self.retire_log
    }

    /// Runs until `halt` retires or `fuel` instructions retire — the
    /// same retired-instruction budget every executor enforces, so a
    /// fuel timeout fires at the same instruction here as on the
    /// functional tiers (see [`Executor::run`]).
    ///
    /// A secondary cycle cap of `8 × fuel + 64` serves purely as a
    /// liveness valve against simulator deadlock bugs. A retired
    /// instruction costs at most 4 cycles: 1 to retire, 2 more when it
    /// is a taken conditional branch, `jr` or `zctl` (1 for `j`, `jal`
    /// or a taken `dbnz`), and 1 more when it uses the result of the
    /// load just before it. With the one-off 4-cycle fill, no real
    /// program can hit the valve before exhausting its fuel.
    ///
    /// # Errors
    ///
    /// * [`RunError::OutOfFuel`] if `halt` does not retire in budget;
    /// * [`RunError::PcOutOfText`] if execution (non-speculatively) leaves
    ///   the text segment;
    /// * [`RunError::MisalignedFetch`] if execution (non-speculatively)
    ///   reaches a non-4-aligned pc;
    /// * [`RunError::Mem`] on a data access fault.
    pub fn run(&mut self, engine: &mut dyn LoopEngine, fuel: u64) -> Result<Stats, RunError> {
        let retire_limit = self.stats.retired + fuel;
        let cycle_valve = self
            .stats
            .cycles
            .saturating_add(fuel.saturating_mul(8))
            .saturating_add(64);
        self.refresh_hooks(engine);
        loop {
            if self.stats.retired >= retire_limit || self.stats.cycles >= cycle_valve {
                return Err(RunError::OutOfFuel { fuel });
            }
            if self.step(engine)? {
                return Ok(self.stats);
            }
        }
    }

    /// Re-reads `engine`'s hook footprint.
    fn refresh_hooks(&mut self, engine: &dyn LoopEngine) {
        self.hooks.refresh(engine, self.prog.text().len());
    }

    /// Whether the engine's hooks must run for the in-text instruction
    /// at `pc`.
    fn hooked(&self, pc: u32) -> bool {
        self.hooks.at((pc.wrapping_sub(TEXT_BASE) / 4) as usize)
    }

    /// Advances one clock cycle. Returns `true` when `halt` retires.
    fn step(&mut self, engine: &mut dyn LoopEngine) -> Result<bool, RunError> {
        self.stats.cycles += 1;

        // ---------------- WB ----------------
        if let Some(wb) = self.mem_wb.take() {
            if let Some((r, v)) = wb.dst {
                self.regs.write(r, v);
            }
            if let Some(rider) = self.riders.get(wb.rider) {
                for (r, v) in rider.iter() {
                    self.regs.write(r, v);
                }
                self.stats.zolc_index_writes += rider.len() as u64;
            }
            self.stats.retired += 1;
            if self.config.trace_retire {
                self.retire_log.push(RetireEvent {
                    cycle: self.stats.cycles,
                    pc: wb.pc,
                    instr: wb.instr,
                    dst: wb.dst.filter(|(r, _)| !r.is_zero()),
                });
            }
            if matches!(wb.instr, Instr::Halt) {
                return Ok(true);
            }
        }

        // ---------------- MEM ----------------
        self.mem_wb = match self.ex_mem.take() {
            Some(m) => Some(self.do_mem(m)?),
            None => None,
        };

        // ---------------- EX ----------------
        // After MEM ran, `mem_wb` holds the immediately preceding
        // instruction's final result: forwarding from it plus the committed
        // register file covers all legal same/next-cycle dependencies (the
        // load-use case is excluded by the ID interlock below).
        let mut flush_to: Option<u32> = None;
        if let Some(ex) = self.id_ex.take() {
            if let Some(e) = ex.fault {
                return Err(RunError::from_fetch(e, ex.pc));
            }
            flush_to = self.do_ex(ex, engine);
        }

        if let Some(target) = flush_to {
            // Kill the younger instruction in IF/ID and suppress this
            // cycle's fetch: the 2-cycle taken-branch penalty.
            let killed = self.if_id.take().is_some();
            self.pc = target;
            self.fetch_stopped = false;
            engine.on_flush();
            self.stats.flushes += 1;
            self.stats.flush_cycles += if killed { 2 } else { 1 };
            return Ok(false);
        }

        // ---------------- ID ----------------
        // EX always drains ID/EX above, so ID can always advance.
        let mut fetch_suppressed = false;
        if let Some(mut slot) = self.if_id {
            if self.load_use_hazard(&slot) {
                self.stats.load_use_stalls += 1;
                fetch_suppressed = true; // IF holds this cycle
            } else {
                self.if_id = None;
                // j/jal resolve here: redirect the next fetch
                // (1-cycle penalty; the fetch slot this cycle is lost).
                match slot.instr {
                    Instr::J { target } | Instr::Jal { target } => {
                        self.pc = target << 2;
                        self.fetch_stopped = false;
                        fetch_suppressed = true;
                        self.stats.flushes += 1;
                        self.stats.flush_cycles += 1;
                    }
                    // The XRhrdwil hardware-loop unit resolves the
                    // branch-decrement in ID: its loop counter has a
                    // dedicated zero-detect off the ALU path, so a
                    // taken dbnz costs a single bubble (not the full
                    // EX-resolved branch penalty). The decrement still
                    // writes back through EX.
                    Instr::Dbnz { rs, .. } => {
                        if let Some(val) = self.peek_operand(rs) {
                            let taken = val.wrapping_sub(1) != 0;
                            slot.dbnz_taken = Some(taken);
                            if taken {
                                let target =
                                    slot.instr.branch_target(slot.pc).expect("dbnz has target");
                                self.pc = target;
                                self.fetch_stopped = false;
                                fetch_suppressed = true;
                                self.stats.flushes += 1;
                                self.stats.flush_cycles += 1;
                            }
                        }
                    }
                    _ => {}
                }
                self.id_ex = Some(slot);
            }
        }

        // ---------------- IF ----------------
        if !fetch_suppressed && self.if_id.is_none() && !self.fetch_stopped {
            self.fetch(engine);
        }

        Ok(false)
    }

    /// The load-use interlock: whether `slot`, in ID, reads the
    /// destination of a load that has just left EX and sits in the
    /// EX/MEM latch. Its value arrives only in MEM, too late for `slot`
    /// to enter EX this cycle, so `slot` waits one cycle in ID.
    fn load_use_hazard(&self, slot: &Slot) -> bool {
        let Some(exm) = &self.ex_mem else {
            return false;
        };
        if !exm.instr.is_load() {
            return false;
        }
        let Some((dst, _)) = exm.dst else {
            return false;
        };
        slot.instr.srcs().into_iter().flatten().any(|s| s == dst)
    }

    /// Reads an operand in EX with forwarding from the just-produced
    /// MEM/WB result (the previous instruction), falling back to the
    /// committed register file.
    fn operand(&self, r: Reg) -> u32 {
        if r.is_zero() {
            return 0;
        }
        if let Some(wb) = &self.mem_wb {
            // Rider writes apply after the instruction's own destination,
            // so they take forwarding priority.
            if let Some(v) = self.riders.value_for(wb.rider, r) {
                return v;
            }
            if let Some((dr, v)) = wb.dst {
                if dr == r {
                    return v;
                }
            }
        }
        self.regs.read(r)
    }

    /// Best-effort operand read in ID for the hardware-loop zero-detect:
    /// forwards from the instruction that just executed (unless it is a
    /// load whose value only arrives in MEM) and from the retiring one.
    /// Returns `None` when the value is not yet available, in which case
    /// the `dbnz` falls back to EX resolution.
    fn peek_operand(&self, r: Reg) -> Option<u32> {
        if r.is_zero() {
            return Some(0);
        }
        if let Some(exm) = &self.ex_mem {
            if let Some(v) = self.riders.value_for(exm.rider, r) {
                return Some(v);
            }
            if let Some((dr, v)) = exm.dst {
                if dr == r {
                    if exm.instr.is_load() {
                        return None; // value arrives in MEM next cycle
                    }
                    return Some(v);
                }
            }
        }
        Some(self.operand(r))
    }

    /// Executes one instruction in EX: computes its architectural
    /// [`Effect`] through the shared semantics core, schedules the memory
    /// half into the EX/MEM latch, and makes the timing decisions (stats,
    /// flushes, engine events). Returns `Some(target)` when the pipeline
    /// must flush and refetch from `target`.
    fn do_ex(&mut self, ex: Slot, engine: &mut dyn LoopEngine) -> Option<u32> {
        let pc = ex.pc;
        let i = ex.instr;
        let effect = step(i, pc, |r| self.operand(r));
        let mut out = MemSlot {
            pc,
            instr: i,
            access: None,
            addr: 0,
            store_val: 0,
            dst: None,
            rider: ex.rider,
        };
        let mut flush_to = None;
        let mut event = ExecEvent::Plain;

        let riders = &self.riders;
        let set_dst = |out: &mut MemSlot, r: Reg, v: u32| {
            if !r.is_zero() {
                debug_assert!(
                    riders.value_for(ex.rider, r).is_none(),
                    "instruction at {pc:#x} writes the same register as its ZOLC index rider"
                );
                out.dst = Some((r, v));
            }
        };

        match effect {
            Effect::Nop | Effect::Halt => {}
            Effect::Write { dst, value } => set_dst(&mut out, dst, value),
            Effect::Load { dst, addr, op } => {
                out.access = Some(MemAccess::Load(op));
                out.addr = addr;
                set_dst(&mut out, dst, 0); // value filled by MEM
            }
            Effect::Store { addr, value, op } => {
                out.access = Some(MemAccess::Store(op));
                out.addr = addr;
                out.store_val = value;
            }
            Effect::Branch {
                taken,
                target,
                decrement,
            } => {
                if let Some((r, v)) = decrement {
                    set_dst(&mut out, r, v);
                    self.stats.dbnz_retired += 1;
                }
                self.stats.branches += 1;
                if taken {
                    self.stats.taken_branches += 1;
                    event = ExecEvent::Taken { target };
                } else {
                    event = ExecEvent::NotTaken;
                }
                match ex.dbnz_taken {
                    Some(predicted) => {
                        // resolved in ID; the redirect (if any) already
                        // happened with a 1-cycle bubble
                        debug_assert_eq!(
                            predicted, taken,
                            "hardware-loop ID resolution diverged at {pc:#x}"
                        );
                    }
                    None => {
                        if taken {
                            flush_to = Some(target);
                        }
                    }
                }
            }
            Effect::Jump { target, link } => {
                if let Some((r, v)) = link {
                    set_dst(&mut out, r, v);
                }
                event = ExecEvent::Taken { target };
                // j/jal already redirected in ID; only the
                // register-indirect jump resolves (and flushes) here.
                if matches!(i, Instr::Jr { .. }) {
                    flush_to = Some(target);
                }
            }
            Effect::Zwr {
                region,
                index,
                field,
                value,
            } => {
                engine.exec_zwr(region, index, field, value);
                self.stats.zwr_retired += 1;
                self.refresh_hooks(engine);
            }
            Effect::Zctl { op } => {
                engine.exec_zctl(op);
                self.stats.zctl_retired += 1;
                self.refresh_hooks(engine);
                // Context-synchronizing: refetch the next instruction so
                // mode changes are visible at fetch.
                flush_to = Some(pc.wrapping_add(4));
            }
        }

        if self.hooked(pc) {
            engine.on_execute(pc, event);
        }
        self.ex_mem = Some(out);
        flush_to
    }

    /// Performs the MEM stage.
    fn do_mem(&mut self, mut m: MemSlot) -> Result<WbSlot, RunError> {
        match m.access {
            Some(MemAccess::Load(op)) => {
                // The access happens (and can fault) even when the
                // destination is `r0` and the write-back is discarded.
                let v = op.read(&self.mem, m.addr)?;
                m.dst = m.dst.map(|(r, _)| (r, v));
            }
            Some(MemAccess::Store(op)) => op.write(&mut self.mem, m.addr, m.store_val)?,
            None => {}
        }
        Ok(WbSlot {
            pc: m.pc,
            instr: m.instr,
            dst: m.dst,
            rider: m.rider,
        })
    }

    /// Performs the IF stage: fetch at `self.pc` from the predecoded text
    /// image, consult the loop engine, compute the next fetch address.
    fn fetch(&mut self, engine: &mut dyn LoopEngine) {
        let pc = self.pc;
        let instr = match self.prog.text().fetch(pc) {
            Ok(i) => i,
            Err(e) => {
                // Wrong-path overruns are legal (e.g. the fall-through
                // after a loop's final backward branch); park a fault
                // marker that only errors if it retires, carrying the
                // cause (misaligned vs out-of-text) with it.
                self.if_id = Some(Slot {
                    pc,
                    instr: Instr::Nop,
                    rider: NO_RIDER,
                    fault: Some(e),
                    dbnz_taken: None,
                });
                self.fetch_stopped = true;
                return;
            }
        };
        let mut next = pc.wrapping_add(4);
        let mut rider = NO_RIDER;
        if self.hooked(pc) {
            let decision = engine.on_fetch(pc);
            if let Some(target) = decision.redirect {
                self.stats.zolc_redirects += 1;
                next = target;
            }
            if !decision.index_writes.is_empty() {
                rider = self.riders.push(decision.index_writes);
            }
        }
        self.if_id = Some(Slot {
            pc,
            instr,
            rider,
            fault: None,
            dbnz_taken: None,
        });
        if matches!(instr, Instr::Halt) {
            self.fetch_stopped = true;
        } else {
            self.pc = next;
        }
    }
}

impl Executor for Cpu {
    fn kind(&self) -> ExecutorKind {
        ExecutorKind::CycleAccurate
    }

    fn run(&mut self, engine: &mut dyn LoopEngine, budget: u64) -> Result<Stats, RunError> {
        Cpu::run(self, engine, budget)
    }

    fn regs(&self) -> &RegFile {
        Cpu::regs(self)
    }

    fn regs_mut(&mut self) -> &mut RegFile {
        Cpu::regs_mut(self)
    }

    fn mem(&self) -> &Memory {
        Cpu::mem(self)
    }

    fn mem_mut(&mut self) -> &mut Memory {
        Cpu::mem_mut(self)
    }

    fn stats(&self) -> &Stats {
        Cpu::stats(self)
    }

    fn retire_log(&self) -> &[RetireEvent] {
        Cpu::retire_log(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{run_program, Finished};
    use crate::engine::NullEngine;
    use zolc_isa::{assemble, reg};

    fn run_asm(src: &str) -> Finished {
        let p = assemble(src).expect("assembles");
        run_program(&p, &mut NullEngine, 1_000_000).expect("runs")
    }

    #[test]
    fn straightline_alu() {
        let f = run_asm(
            "
            li   r1, 6
            li   r2, 7
            mul  r3, r1, r2
            add  r4, r3, r1
            halt
        ",
        );
        assert_eq!(f.cpu.regs().read(reg(3)), 42);
        assert_eq!(f.cpu.regs().read(reg(4)), 48);
        // 5 instructions through a 5-stage pipe: 5 + 4 fill cycles
        assert_eq!(f.stats.cycles, 9);
        assert_eq!(f.stats.retired, 5);
    }

    #[test]
    fn forwarding_chain_has_no_stalls() {
        let f = run_asm(
            "
            li   r1, 1
            add  r2, r1, r1
            add  r3, r2, r2
            add  r4, r3, r3
            halt
        ",
        );
        assert_eq!(f.cpu.regs().read(reg(4)), 8);
        assert_eq!(f.stats.load_use_stalls, 0);
        assert_eq!(f.stats.cycles, 9);
    }

    #[test]
    fn load_use_stalls_one_cycle() {
        let base = "
            .data
        v:  .word 41
            .text
            la   r1, v
            lw   r2, (r1)
            addi r3, r2, 1
            halt
        ";
        let f = run_asm(base);
        assert_eq!(f.cpu.regs().read(reg(3)), 42);
        assert_eq!(f.stats.load_use_stalls, 1);

        // The same program with an independent instruction between the
        // load and its use has no stall and the same cycle count.
        let f2 = run_asm(
            "
            .data
        v:  .word 41
            .text
            la   r1, v
            lw   r2, (r1)
            addi r9, r0, 0
            addi r3, r2, 1
            halt
        ",
        );
        assert_eq!(f2.cpu.regs().read(reg(3)), 42);
        assert_eq!(f2.stats.load_use_stalls, 0);
        assert_eq!(f2.stats.cycles, f.stats.cycles);
    }

    #[test]
    fn taken_branch_costs_two_cycles() {
        // not-taken path
        let nt = run_asm(
            "
            li   r1, 1
            beq  r0, r1, skip   # never taken
            nop
      skip: halt
        ",
        );
        // taken path over the same structure
        let t = run_asm(
            "
            li   r1, 1
            beq  r1, r1, skip   # always taken
            nop
      skip: halt
        ",
        );
        // taken: loses the nop slot (1 retired fewer) but pays 2 flush
        // cycles: net +1 cycle vs the fall-through that executes the nop.
        assert_eq!(nt.stats.flushes, 0);
        assert_eq!(t.stats.flushes, 1);
        assert_eq!(t.stats.flush_cycles, 2);
        assert_eq!(t.stats.retired + 1, nt.stats.retired);
        assert_eq!(t.stats.cycles, nt.stats.cycles + 1);
    }

    #[test]
    fn jump_costs_one_cycle() {
        let j = run_asm(
            "
            j    skip
            nop
      skip: halt
        ",
        );
        assert_eq!(j.stats.flushes, 1);
        assert_eq!(j.stats.flush_cycles, 1);
        // 2 retired (j, halt); fill 4 + 2 + 1 bubble
        assert_eq!(j.stats.cycles, 7);
    }

    #[test]
    fn jal_links_and_jr_returns() {
        let f = run_asm(
            "
            jal  sub
            addi r5, r5, 100
            halt
      sub:  addi r5, r0, 1
            jr   r31
        ",
        );
        assert_eq!(f.cpu.regs().read(reg(5)), 101);
        assert_eq!(f.cpu.regs().read(reg(31)), 4);
    }

    #[test]
    fn countdown_loop_cycles() {
        // 3-instruction loop: addi + bne with 2-cycle taken penalty.
        let f = run_asm(
            "
            li   r1, 10
      top:  addi r1, r1, -1
            bne  r1, r0, top
            halt
        ",
        );
        // retired: 1 + 10*2 + 1 = 22
        assert_eq!(f.stats.retired, 22);
        // taken 9 times => 18 flush cycles
        assert_eq!(f.stats.flush_cycles, 18);
        assert_eq!(f.stats.taken_branches, 9);
    }

    #[test]
    fn dbnz_loop_works_and_saves_instructions() {
        let f = run_asm(
            "
            li   r1, 10
            li   r2, 0
      top:  addi r2, r2, 1
            dbnz r1, top
            halt
        ",
        );
        assert_eq!(f.cpu.regs().read(reg(2)), 10);
        assert_eq!(f.cpu.regs().read(reg(1)), 0);
        assert_eq!(f.stats.dbnz_retired, 10);
        assert_eq!(f.stats.taken_branches, 9);
    }

    #[test]
    fn memory_byte_halfword_ops() {
        let f = run_asm(
            "
            .data
       buf: .space 16
            .text
            la   r1, buf
            li   r2, -2
            sb   r2, 0(r1)
            lb   r3, 0(r1)
            lbu  r4, 0(r1)
            sh   r2, 2(r1)
            lh   r5, 2(r1)
            lhu  r6, 2(r1)
            halt
        ",
        );
        assert_eq!(f.cpu.regs().read(reg(3)), (-2i32) as u32);
        assert_eq!(f.cpu.regs().read(reg(4)), 0xfe);
        assert_eq!(f.cpu.regs().read(reg(5)), (-2i32) as u32);
        assert_eq!(f.cpu.regs().read(reg(6)), 0xfffe);
    }

    #[test]
    fn store_load_roundtrip_through_memory() {
        let f = run_asm(
            "
            .data
       buf: .space 8
            .text
            la   r1, buf
            li   r2, 1234
            sw   r2, 4(r1)
            lw   r3, 4(r1)
            halt
        ",
        );
        assert_eq!(f.cpu.regs().read(reg(3)), 1234);
    }

    #[test]
    fn wrong_path_overrun_is_harmless() {
        // The always-taken `b body` is the very last text instruction: its
        // fall-through fetch leaves the text segment every iteration. Those
        // fault slots are speculative and must be squashed by the taken
        // branch, so the program still terminates cleanly via `done`.
        let f = run_asm(
            "
            li   r1, 3
            j    body
      done: halt
      body: addi r1, r1, -1
            beq  r1, r0, done
            b    body
        ",
        );
        assert_eq!(f.cpu.regs().read(reg(1)), 0);
    }

    #[test]
    fn running_off_text_is_an_error() {
        let p = assemble("nop\nnop\n").unwrap();
        let r = run_program(&p, &mut NullEngine, 10_000);
        assert!(matches!(r, Err(RunError::PcOutOfText { .. })));
    }

    #[test]
    fn fuel_limit_detected() {
        let p = assemble("top: j top\nhalt").unwrap();
        let r = run_program(&p, &mut NullEngine, 100);
        assert!(matches!(r, Err(RunError::OutOfFuel { fuel: 100 })));
    }

    #[test]
    fn misaligned_access_faults() {
        let p = assemble(
            "
            li  r1, 2
            lw  r2, (r1)
            halt
        ",
        )
        .unwrap();
        let r = run_program(&p, &mut NullEngine, 1000);
        assert!(matches!(r, Err(RunError::Mem(_))));
    }

    #[test]
    fn retire_log_records_program_order() {
        let p = assemble(
            "
            li   r1, 2
      top:  addi r1, r1, -1
            bne  r1, r0, top
            halt
        ",
        )
        .unwrap();
        let mut cpu = Cpu::session(
            &crate::CompiledProgram::compile(p),
            CpuConfig { trace_retire: true },
        )
        .unwrap();
        cpu.run(&mut NullEngine, 10_000).unwrap();
        let pcs: Vec<u32> = cpu.retire_log().iter().map(|e| e.pc).collect();
        assert_eq!(pcs, vec![0, 4, 8, 4, 8, 12]);
        // cycles strictly increase
        for w in cpu.retire_log().windows(2) {
            assert!(w[0].cycle < w[1].cycle);
        }
    }

    #[test]
    fn branch_compare_uses_forwarded_value() {
        // The beq compares a value produced by the immediately preceding
        // instruction: requires EX->EX forwarding.
        let f = run_asm(
            "
            li   r1, 5
            addi r2, r1, -5
            beq  r2, r0, ok
            li   r3, 111
            halt
      ok:   li   r3, 222
            halt
        ",
        );
        assert_eq!(f.cpu.regs().read(reg(3)), 222);
    }

    #[test]
    fn store_data_forwarded() {
        let f = run_asm(
            "
            .data
       buf: .space 4
            .text
            la   r1, buf
            li   r2, 7
            sw   r2, (r1)   # r2 produced by previous instruction
            lw   r3, (r1)
            halt
        ",
        );
        assert_eq!(f.cpu.regs().read(reg(3)), 7);
    }

    #[test]
    fn run_twice_resumes_cycle_count() {
        let p = assemble("nop\nhalt").unwrap();
        let mut cpu =
            Cpu::session(&crate::CompiledProgram::compile(p), CpuConfig::default()).unwrap();
        let s = cpu.run(&mut NullEngine, 100).unwrap();
        assert_eq!(s.cycles, cpu.stats().cycles);
    }
}

#[cfg(test)]
mod rider_tests {
    use super::*;
    use crate::engine::FetchDecision;
    use crate::functional::FunctionalCpu;
    use zolc_isa::{assemble, reg};

    /// Attaches a one-write rider `(reg, value)` to every fetch of its
    /// pc, and counts those fetches. Stateless otherwise, so wrong-path
    /// and architectural fetches decide alike.
    struct RiderAt {
        riders: Vec<(u32, Reg, u32)>,
        fetches: u64,
    }

    impl RiderAt {
        fn new(riders: Vec<(u32, Reg, u32)>) -> RiderAt {
            RiderAt { riders, fetches: 0 }
        }
    }

    impl LoopEngine for RiderAt {
        fn on_fetch(&mut self, pc: u32) -> FetchDecision {
            let mut d = FetchDecision::none();
            for &(at, r, v) in &self.riders {
                if at == pc {
                    d.index_writes.push(r, v);
                    self.fetches += 1;
                }
            }
            d
        }
    }

    /// Runs `prog` with `riders` on the functional tier and returns its
    /// core and rider-bearing fetch count.
    fn functional(prog: &Arc<CompiledProgram>, riders: &[(u32, Reg, u32)]) -> (FunctionalCpu, u64) {
        let mut e = RiderAt::new(riders.to_vec());
        let mut f = FunctionalCpu::session(prog, CpuConfig::default()).unwrap();
        f.run(&mut e, 1_000).expect("halts");
        (f, e.fetches)
    }

    /// A rider fetched on the wrong path and squashed in IF/ID, by a
    /// taken branch or by `zctl`'s synchronizing flush, never writes.
    #[test]
    fn squashed_rider_never_applies() {
        let cases = [
            // the taken beq squashes the fetch of the `addi` behind it
            (
                "li r1, 1\nbeq r1, r1, skip\naddi r2, r0, 7\nskip: halt",
                8,
                1,
                0,
            ),
            // zctl squashes the `addi` fetched behind it, which is then
            // fetched again and retires with a rider of its own
            ("zctl.off\naddi r2, r0, 7\nhalt", 4, 2, 1),
        ];
        for (src, at, fetches, writes) in cases {
            let prog = CompiledProgram::compile(assemble(src).unwrap());
            let riders = [(TEXT_BASE + at, reg(20), 99)];
            let mut e = RiderAt::new(riders.to_vec());
            let mut cpu = Cpu::session(&prog, CpuConfig::default()).unwrap();
            let stats = cpu.run(&mut e, 1_000).expect("halts");
            assert_eq!(e.fetches, fetches, "{src}: rider-bearing fetches");
            let (f, _) = functional(&prog, &riders);
            assert_eq!(cpu.regs(), f.regs(), "{src}");
            assert_eq!(stats.zolc_index_writes, writes, "{src}");
            assert_eq!(
                stats.zolc_index_writes,
                f.stats().zolc_index_writes,
                "{src}"
            );
            assert_eq!(cpu.regs().read(reg(20)), if writes == 0 { 0 } else { 99 });
        }
    }

    /// Back-to-back rider-bearing retires fill every latch with a live
    /// rider at once; the ring hands out four distinct entries and none
    /// is reused while a latch still names it.
    #[test]
    fn riders_in_every_latch_stay_distinct() {
        let body = "addi r2, r2, 1\n".repeat(10);
        let prog = CompiledProgram::compile(assemble(&format!("{body}halt")).unwrap());
        // every instruction writes a register of its own through its rider
        let riders: Vec<(u32, Reg, u32)> = (0..11u8)
            .map(|k| {
                (
                    TEXT_BASE + 4 * u32::from(k),
                    reg(10 + k),
                    100 + u32::from(k),
                )
            })
            .collect();
        let mut e = RiderAt::new(riders.clone());
        let mut cpu = Cpu::session(&prog, CpuConfig::default()).unwrap();
        cpu.refresh_hooks(&e);
        let mut full_cycles = 0;
        while !cpu.step(&mut e).expect("no fault") {
            let mut live: Vec<u8> = [
                cpu.if_id.map(|s| s.rider),
                cpu.id_ex.map(|s| s.rider),
                cpu.ex_mem.map(|m| m.rider),
                cpu.mem_wb.map(|w| w.rider),
            ]
            .into_iter()
            .flatten()
            .filter(|&ix| ix != NO_RIDER)
            .collect();
            if live.len() == 4 {
                live.sort_unstable();
                live.dedup();
                assert_eq!(live.len(), 4, "two latches share a ring entry");
                full_cycles += 1;
            }
        }
        assert!(full_cycles > 0, "the latches never all held a rider");
        let (f, _) = functional(&prog, &riders);
        assert_eq!(cpu.regs(), f.regs());
        assert_eq!(cpu.stats().zolc_index_writes, 11);
        assert_eq!(cpu.stats().zolc_index_writes, f.stats().zolc_index_writes);
    }

    /// The latches carry a ring index, not the rider itself.
    #[test]
    fn latches_are_smaller_than_one_rider() {
        use std::mem::size_of;
        let rider = size_of::<RegWrites>();
        assert!(size_of::<Slot>() < rider);
        assert!(size_of::<MemSlot>() < rider);
        assert!(size_of::<WbSlot>() < rider);
    }
}

#[cfg(test)]
mod dbnz_tests {
    use crate::cpu::{run_program, Finished};
    use crate::engine::NullEngine;
    use zolc_isa::{assemble, reg};

    fn run_asm(src: &str) -> Finished {
        let p = assemble(src).expect("assembles");
        run_program(&p, &mut NullEngine, 1_000_000).expect("runs")
    }

    #[test]
    fn dbnz_taken_costs_one_bubble() {
        // 2-instruction loop, 10 iterations: 9 taken dbnz at 1 bubble each
        let f = run_asm(
            "
            li   r1, 10
      top:  addi r2, r2, 1
            dbnz r1, top
            halt
        ",
        );
        assert_eq!(f.cpu.regs().read(reg(2)), 10);
        // fill(4) + retired(1 + 20 + 1) + 9 bubbles
        assert_eq!(f.stats.retired, 22);
        assert_eq!(f.stats.cycles, 4 + 22 + 9);
        assert_eq!(f.stats.flush_cycles, 9);
    }

    #[test]
    fn dbnz_exit_is_free() {
        // single-trip loop: dbnz not taken, no penalty at all
        let f = run_asm(
            "
            li   r1, 1
      top:  addi r2, r2, 1
            dbnz r1, top
            halt
        ",
        );
        assert_eq!(f.cpu.regs().read(reg(2)), 1);
        assert_eq!(f.stats.flush_cycles, 0);
    }

    #[test]
    fn dbnz_after_load_semantics_exact() {
        // decrement a memory cell through a register each iteration
        let f = run_asm(
            "
            .data
      n:    .word 5
            .text
            la   r1, n
      top:  lw   r3, 0(r1)
            addi r3, r3, -1
            sw   r3, 0(r1)
            addi r2, r2, 1
            lw   r4, 0(r1)
            dbnz r4, top      # taken while mem[n]-1 != 0
            halt
        ",
        );
        // iterations: mem 5->4->3->2->1; dbnz sees 4,3,2,1 -> exits when
        // the decremented value hits 0, i.e. after 4... careful: dbnz
        // compares r4-1: taken for r4=4,3,2 (r4-1 != 0), not taken for
        // r4=1. mem sequence: 5,4,3,2,1 -> 4 iterations? mem after k
        // iterations = 5-k; loop exits when r4 = mem = 1 -> k = 4.
        assert_eq!(f.cpu.regs().read(reg(2)), 4);
        assert_eq!(f.cpu.mem().load_word(zolc_isa::DATA_BASE).unwrap(), 1);
    }
}
