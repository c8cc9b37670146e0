//! The loop-nest superblock executor: whole counted nests compiled
//! into trip-parameterized op arrays.
//!
//! [`NestCpu`] is the fast executor tier. Where
//! [`FunctionalCpu`](crate::FunctionalCpu) interprets one instruction
//! per step, this tier exploits what ZOLC makes static: when execution
//! reaches the entry of a region free of engine hooks, the **entire
//! region — a whole counted loop nest included — is compiled once**
//! into a *superblock*: a direct-threaded array of pre-lowered ops in which
//! control transfers are op-array indices, and each canonical
//! counted-loop latch (`addi c, c, -1; bne c, r0, top`) is fused into
//! one counted [`NOp::Repeat`] op. Steady-state execution is a tight
//! loop over the array: no per-iteration block lookup, no terminator
//! dispatch, and —
//! for an innermost all-straight-line body — a **bulk path** that runs
//! every remaining iteration the fuel budget covers with *zero*
//! per-iteration dispatch or fuel checks.
//!
//! The superblock is *trip-parameterized*: loop counters stay fully
//! architectural (the `Repeat` op performs the same decrement-and-test
//! the latch instructions would), so one compiled superblock — keyed by
//! entry pc alone — serves every bound value, register-sourced or
//! constant, including triangular nests and bodies that read or write
//! their own counter.
//!
//! # Bail-out and resume contract
//!
//! Everything a superblock cannot express defers to the shared
//! [`Machine`] step core at an **instruction-exact resume point** (the
//! parallel `pcs` array maps every op back to its instruction):
//!
//! * `zwr`/`zctl`/`dbnz` end the compiled region; execution resumes at
//!   that instruction through the step core;
//! * the engine's **hook footprint** ([`LoopEngine::hook_pcs`] — for the
//!   ZOLC, its task ends, loop-entry points and entry/exit records) ends
//!   the compiled region too: the scan stops before a footprint pc,
//!   transfers to one become exits, and latch fusion never covers one.
//!   Everything between footprint pcs runs in superblocks with no hook
//!   call at all, which the footprint's superset contract makes exact.
//!   The footprint is re-read after every `zwr`/`zctl`; when it changes,
//!   the session drops its memo and switches to the superblocks compiled
//!   for the new footprint. Passive engines share the superblocks of the
//!   empty footprint. An active engine with an empty footprint — the
//!   controller before `zctl.on`, running initialization code that a
//!   `zwr` splits every other instruction — single-steps, as does every
//!   run once the program has interned its cap of distinct footprints.
//!   An engine whose footprint is every pc (the `hook_pcs` default) or a
//!   retire-traced run takes the step core for the whole run;
//! * at a footprint pc, the engine may **grant iterates**
//!   ([`LoopEngine::iterations`]): the next decisions there are plain
//!   iterates of one loop whose task ends at that pc. When the loop's
//!   body — from the redirect target up to the pc — holds no other
//!   footprint pc and no `zwr`/`zctl`/`dbnz`, and the task-end
//!   instruction itself is straight-line, the body compiles into a
//!   superblock of its own ([`compile_iterations`]): the task-end
//!   instruction, its decision's rider writes ([`NOp::Rider`]), then the
//!   body, looping back through [`NOp::Iterate`] while iterates remain —
//!   with a bulk path, and a closed form for one-instruction loops, as
//!   for counted latches. The run stops early where control leaves the
//!   body, at the fuel boundary or on a data fault (a faulting task-end
//!   instruction is left to the step core, whose hooks see that visit);
//!   the session then retires the iterates actually taken in the engine
//!   ([`LoopEngine::retire_iterations`]) and counts their redirects and
//!   index writes. Every other visit to a footprint pc — the decision
//!   after a grant is spent, grants whose body cannot compile, engines
//!   that grant nothing, and `zwr`/`zctl`/`dbnz` — runs through the step
//!   core with the engine's hooks. A session asks for a grant on every
//!   visit to a footprint pc, except where a grant's body could not
//!   compile before;
//! * a fetch fault raises the architectural [`RunError`] from the step
//!   core's fetch path;
//! * a data fault commits the preceding ops and parks the pc on the
//!   faulting instruction — the step core's exact fault state;
//! * the **fuel boundary** is retired-instruction-exact: every op
//!   checks the remaining budget before retiring (the `Repeat` op
//!   accounts for both fused instructions; the bulk path runs only the
//!   iterations the budget fully covers), so
//!   [`RunError::OutOfFuel`] fires at exactly the same instruction as
//!   on [`FunctionalCpu`](crate::FunctionalCpu).
//!
//! Superblocks live in the shared, stats-counted cache of the session's
//! [`CompiledProgram`](crate::CompiledProgram) (`nest_cache_stats`),
//! keyed by entry pc and footprint id (loop bodies also by their first
//! pc), compiled once and shared by every concurrent session; regions
//! that start on an instruction the superblock cannot contain, and loop
//! bodies that cannot run in one, are cached negatively
//! ([`NestEntry::Step`]) and single-stepped. The three-way
//! `prop_exec_equiv` suite holds this tier bit-exact — registers,
//! memory, retire counts, every architectural event counter and the
//! controller's state — against the other two.

use crate::cpu::{CpuConfig, Executor, ExecutorKind, RetireEvent, RunError};
use crate::engine::{Iterations, LoopEngine, RegWrites};
use crate::exec::{LoadOp, StoreOp, TextImage};
use crate::functional::Machine;
use crate::mem::{MemError, Memory};
use crate::program::CompiledProgram;
use crate::regfile::RegFile;
use crate::stats::Stats;
use std::collections::HashMap;
use std::sync::Arc;
use zolc_isa::{Instr, Reg};

/// Upper bound on ops per superblock: bounds compile latency and the
/// size of any one cache entry (the tail past the cap exits into the
/// next superblock).
const MAX_NEST_OPS: usize = 4096;

/// One direct-threaded superblock op. Control transfers hold **op-array
/// indices**, not pcs — taking a branch is one assignment to the
/// interpreter's instruction pointer. (Straight out of `lower` they hold
/// pcs, until [`compile_nest`] resolves them.)
#[derive(Debug, Clone, Copy)]
pub(crate) enum NOp {
    /// `dst = f(regs[a], regs[b])`; retires 1.
    Alu { dst: Reg, a: Reg, b: Reg, f: AluFn },
    /// `dst = f(regs[a], imm)`; retires 1.
    AluImm {
        dst: Reg,
        a: Reg,
        imm: u32,
        f: AluFn,
    },
    /// `dst = regs[a] + regs[b]` — `add` specialized away from the
    /// indirect [`AluFn`] call (the dominant op in loop bodies:
    /// accumulators, address arithmetic); retires 1.
    Add { dst: Reg, a: Reg, b: Reg },
    /// `dst = regs[a] + imm` — `addi` specialized like [`NOp::Add`];
    /// retires 1.
    AddImm { dst: Reg, a: Reg, imm: u32 },
    /// `dst = mem[regs[base] + off]`; retires 1 (a load to `r0` still
    /// performs — and can fault on — the access).
    Load {
        dst: Reg,
        base: Reg,
        off: u32,
        op: LoadOp,
    },
    /// `mem[regs[base] + off] = regs[val]`; retires 1.
    Store {
        val: Reg,
        base: Reg,
        off: u32,
        op: StoreOp,
    },
    /// `nop`; retires 1.
    Nop,
    /// Conditional branch to op index `taken` (fall-through is the next
    /// op); retires 1 and counts as a branch.
    Br {
        rs: Reg,
        rt: Reg,
        cond: CondFn,
        taken: u32,
    },
    /// `j` within the region; retires 1.
    Jmp { target: u32 },
    /// `jal` within the region: writes the precomputed link, jumps;
    /// retires 1.
    Jl { dst: Reg, value: u32, target: u32 },
    /// `jr`: retires 1 and leaves the superblock at the register value.
    JrExit { rs: Reg },
    /// The fused counted-loop latch `addi c, c, -1; bne c, r0, body`:
    /// decrement, then loop to op index `body` while nonzero. Retires 2
    /// and counts as a branch (taken while looping). `bulk` is the
    /// retire cost of one whole (body + latch) iteration when the body
    /// `[body, self)` is all straight-line ops none of which write the
    /// counter — enabling the zero-dispatch bulk path — and 0 otherwise.
    Repeat { counter: Reg, body: u32, bulk: u32 },
    /// Leave the superblock with the architectural pc set to `pc`
    /// (region ender, or a control target outside the compiled region);
    /// retires nothing.
    Exit { pc: u32 },
    /// In a loop body's superblock ([`compile_iterations`]): the granted
    /// decision of the task-end instruction just run (op 0) retires with
    /// it — its index and rider writes, after the instruction's own
    /// write; retires nothing.
    Rider,
    /// In a loop body's superblock: control reached the task end. While
    /// iterations are granted, run it again (op 0); otherwise leave with
    /// the pc on it. Retires nothing. `bulk` is the retire cost of one
    /// whole iterate when the task-end instruction and the body are all
    /// straight-line ops — enabling a bulk path like
    /// [`NOp::Repeat`]'s — and 0 otherwise; `regs` masks the registers
    /// the task-end instruction reads or writes.
    Iterate { bulk: u32, regs: u32 },
    /// `halt` retires here (pc parks on the `halt` itself).
    Halt,
}

/// One compiled superblock: the op array plus the parallel map from op
/// index back to instruction pc (`pcs[i]` is where op `i` came from —
/// the resume point for fuel bails and data faults).
#[derive(Debug)]
pub(crate) struct Superblock {
    ops: Box<[NOp]>,
    pcs: Box<[u32]>,
}

/// What the nest compiler produced for a region entry. Negative results
/// are cached too, so the dispatch loop decides superblock-vs-step with
/// one memoized lookup.
#[derive(Debug)]
pub(crate) enum NestEntry {
    /// The entry instruction cannot start a superblock
    /// (`zwr`/`zctl`/`dbnz`): single-step it through the step core.
    Step,
    /// A compiled superblock.
    Sb(Superblock),
}

type AluFn = fn(u32, u32) -> u32;
type CondFn = fn(u32, u32) -> bool;

// ---- ALU semantics and branch conditions as named fn items -------------
// Each mirrors one arm of `crate::exec::step` exactly.

fn f_sub(a: u32, b: u32) -> u32 {
    a.wrapping_sub(b)
}
fn f_and(a: u32, b: u32) -> u32 {
    a & b
}
fn f_or(a: u32, b: u32) -> u32 {
    a | b
}
fn f_xor(a: u32, b: u32) -> u32 {
    a ^ b
}
fn f_nor(a: u32, b: u32) -> u32 {
    !(a | b)
}
fn f_slt(a: u32, b: u32) -> u32 {
    ((a as i32) < (b as i32)) as u32
}
fn f_sltu(a: u32, b: u32) -> u32 {
    (a < b) as u32
}
fn f_sllv(a: u32, b: u32) -> u32 {
    a << (b & 31)
}
fn f_srlv(a: u32, b: u32) -> u32 {
    a >> (b & 31)
}
fn f_srav(a: u32, b: u32) -> u32 {
    ((a as i32) >> (b & 31)) as u32
}
fn f_sll(a: u32, b: u32) -> u32 {
    a << b
}
fn f_srl(a: u32, b: u32) -> u32 {
    a >> b
}
fn f_sra(a: u32, b: u32) -> u32 {
    ((a as i32) >> b) as u32
}
fn f_mul(a: u32, b: u32) -> u32 {
    a.wrapping_mul(b)
}
fn f_mulh(a: u32, b: u32) -> u32 {
    ((i64::from(a as i32) * i64::from(b as i32)) >> 32) as u32
}
fn f_snd(_a: u32, b: u32) -> u32 {
    b
}

fn c_eq(a: u32, b: u32) -> bool {
    a == b
}
fn c_ne(a: u32, b: u32) -> bool {
    a != b
}
fn c_lez(a: u32, _b: u32) -> bool {
    (a as i32) <= 0
}
fn c_gtz(a: u32, _b: u32) -> bool {
    (a as i32) > 0
}
fn c_ltz(a: u32, _b: u32) -> bool {
    (a as i32) < 0
}
fn c_gez(a: u32, _b: u32) -> bool {
    (a as i32) >= 0
}

/// Lowers the instruction at `pc` into its superblock op, or `None` for
/// the instructions the step core owns (`zwr`/`zctl`/`dbnz`).
///
/// Operands are extracted, immediates pre-extended to the exact `u32`
/// the semantics core computes, ALU semantics reduced to a function
/// pointer (`add`/`addi` to the inline [`NOp::Add`]/[`NOp::AddImm`]) and
/// `jal` link values precomputed. Transfer targets come out as **pcs**;
/// [`compile_nest`] resolves them to op indices.
pub(crate) fn lower(instr: Instr, pc: u32) -> Option<NOp> {
    use Instr::*;
    let alu = |dst, a, b, f| NOp::Alu { dst, a, b, f };
    let imm = |dst, a, imm, f| NOp::AluImm { dst, a, imm, f };
    let sext = |v: i16| v as i32 as u32;
    let load = |dst, base, off: i16, op| NOp::Load {
        dst,
        base,
        off: sext(off),
        op,
    };
    let store = |val, base, off: i16, op| NOp::Store {
        val,
        base,
        off: sext(off),
        op,
    };
    let branch = |rs, rt, cond| NOp::Br {
        rs,
        rt,
        cond,
        taken: instr.branch_target(pc).expect("branch has target"),
    };
    Some(match instr {
        Add { rd, rs, rt } => NOp::Add {
            dst: rd,
            a: rs,
            b: rt,
        },
        Sub { rd, rs, rt } => alu(rd, rs, rt, f_sub),
        And { rd, rs, rt } => alu(rd, rs, rt, f_and),
        Or { rd, rs, rt } => alu(rd, rs, rt, f_or),
        Xor { rd, rs, rt } => alu(rd, rs, rt, f_xor),
        Nor { rd, rs, rt } => alu(rd, rs, rt, f_nor),
        Slt { rd, rs, rt } => alu(rd, rs, rt, f_slt),
        Sltu { rd, rs, rt } => alu(rd, rs, rt, f_sltu),
        Sllv { rd, rt, rs } => alu(rd, rt, rs, f_sllv),
        Srlv { rd, rt, rs } => alu(rd, rt, rs, f_srlv),
        Srav { rd, rt, rs } => alu(rd, rt, rs, f_srav),
        Mul { rd, rs, rt } => alu(rd, rs, rt, f_mul),
        Mulh { rd, rs, rt } => alu(rd, rs, rt, f_mulh),
        Sll { rd, rt, sh } => imm(rd, rt, u32::from(sh), f_sll),
        Srl { rd, rt, sh } => imm(rd, rt, u32::from(sh), f_srl),
        Sra { rd, rt, sh } => imm(rd, rt, u32::from(sh), f_sra),
        Addi { rt, rs, imm: v } => NOp::AddImm {
            dst: rt,
            a: rs,
            imm: sext(v),
        },
        Slti { rt, rs, imm: v } => imm(rt, rs, sext(v), f_slt),
        Sltiu { rt, rs, imm: v } => imm(rt, rs, sext(v), f_sltu),
        Andi { rt, rs, imm: v } => imm(rt, rs, u32::from(v), f_and),
        Ori { rt, rs, imm: v } => imm(rt, rs, u32::from(v), f_or),
        Xori { rt, rs, imm: v } => imm(rt, rs, u32::from(v), f_xor),
        Lui { rt, imm: v } => imm(rt, Reg::ZERO, u32::from(v) << 16, f_snd),
        Lb { rt, rs, off } => load(rt, rs, off, LoadOp::Byte),
        Lbu { rt, rs, off } => load(rt, rs, off, LoadOp::ByteUnsigned),
        Lh { rt, rs, off } => load(rt, rs, off, LoadOp::Half),
        Lhu { rt, rs, off } => load(rt, rs, off, LoadOp::HalfUnsigned),
        Lw { rt, rs, off } => load(rt, rs, off, LoadOp::Word),
        Sb { rt, rs, off } => store(rt, rs, off, StoreOp::Byte),
        Sh { rt, rs, off } => store(rt, rs, off, StoreOp::Half),
        Sw { rt, rs, off } => store(rt, rs, off, StoreOp::Word),
        Nop => NOp::Nop,
        Beq { rs, rt, .. } => branch(rs, rt, c_eq),
        Bne { rs, rt, .. } => branch(rs, rt, c_ne),
        Blez { rs, .. } => branch(rs, Reg::ZERO, c_lez),
        Bgtz { rs, .. } => branch(rs, Reg::ZERO, c_gtz),
        Bltz { rs, .. } => branch(rs, Reg::ZERO, c_ltz),
        Bgez { rs, .. } => branch(rs, Reg::ZERO, c_gez),
        J { target } => NOp::Jmp {
            target: target << 2,
        },
        Jal { target } => NOp::Jl {
            dst: Reg::RA,
            value: pc.wrapping_add(4),
            target: target << 2,
        },
        Jr { rs } => NOp::JrExit { rs },
        Halt => NOp::Halt,
        // Loop-controller interactions and the fused branch-decrement
        // run through the step core.
        Dbnz { .. } | Zwr { .. } | Zctl { .. } => return None,
    })
}

/// The bulk-path retire cost of one (body + latch) iteration, or 0 when
/// the body `[body, latch)` contains control flow or writes the counter
/// (then the latch runs per-op, which is always correct).
fn bulk_cost(ops: &[NOp], body: usize, latch: usize, counter: Reg) -> u32 {
    for op in &ops[body..latch] {
        match *op {
            NOp::Alu { dst, .. }
            | NOp::AluImm { dst, .. }
            | NOp::Add { dst, .. }
            | NOp::AddImm { dst, .. }
            | NOp::Load { dst, .. } => {
                if dst == counter {
                    return 0;
                }
            }
            NOp::Store { .. } | NOp::Nop => {}
            _ => return 0,
        }
    }
    (latch - body) as u32 + 2
}

/// A superblock under construction: ops with their source pcs, and
/// the op each scanned instruction pc maps to.
#[derive(Default)]
struct Builder {
    ops: Vec<NOp>,
    pcs: Vec<u32>,
    // instruction pc -> op index (fused `bne`s are absent by design:
    // a transfer to one exits the superblock and re-enters there)
    by_pc: HashMap<u32, u32>,
}

impl Builder {
    /// Appends `op`, standing for the instruction at `pc`, without
    /// mapping `pc` to it.
    fn push(&mut self, pc: u32, op: NOp) {
        self.pcs.push(pc);
        self.ops.push(op);
    }

    /// Appends `op` and maps `pc` to it: transfers to `pc` land there.
    fn map(&mut self, pc: u32, op: NOp) {
        self.by_pc.insert(pc, self.ops.len() as u32);
        self.push(pc, op);
    }

    /// Appends the next instruction of a linear scan, `instr` at `pc`
    /// lowered to `op`. When it is a backward `bne c, r0, top` directly
    /// following `addi c, c, -1` on the same counter, the pair fuses
    /// into one [`NOp::Repeat`] at the `addi`'s op index — entering at
    /// either latch instruction, or branching to the `addi` (a
    /// tail-skip), still lands on correct decrement-and-test semantics.
    fn scan(&mut self, text: &TextImage, instr: Instr, pc: u32, op: NOp) {
        if let Some((counter, body, latch)) = fuse_latch(text, &self.by_pc, &self.ops, instr, pc) {
            // The Repeat replaces the addi in place and the bne maps to
            // no op.
            let bulk = bulk_cost(&self.ops, body as usize, latch, counter);
            self.ops[latch] = NOp::Repeat {
                counter,
                body,
                bulk,
            };
        } else {
            self.map(pc, op);
        }
    }

    /// Turns every control-transfer target pc into an op index; targets
    /// no op maps become [`NOp::Exit`] ops.
    fn finish(mut self) -> Superblock {
        let mut exits: HashMap<u32, u32> = HashMap::new();
        for k in 0..self.ops.len() {
            let (NOp::Br { taken: t, .. } | NOp::Jmp { target: t } | NOp::Jl { target: t, .. }) =
                self.ops[k]
            else {
                continue;
            };
            let ix = match self.by_pc.get(&t) {
                Some(&ix) => ix,
                None => *exits.entry(t).or_insert_with(|| {
                    self.ops.push(NOp::Exit { pc: t });
                    self.pcs.push(t);
                    (self.ops.len() - 1) as u32
                }),
            };
            if let NOp::Br { taken: t, .. } | NOp::Jmp { target: t } | NOp::Jl { target: t, .. } =
                &mut self.ops[k]
            {
                *t = ix;
            }
        }
        Superblock {
            ops: self.ops.into_boxed_slice(),
            pcs: self.pcs.into_boxed_slice(),
        }
    }
}

/// Compiles the region entered at `entry` into a superblock.
///
/// The scan lowers instructions linearly from `entry`, fusing canonical
/// counted-loop latches (see [`Builder::scan`]); once it stops, every
/// control-transfer target pc becomes an op index, and targets outside
/// the region (or never reached by the scan) become [`NOp::Exit`] ops.
/// The scan stops at `zwr`/`zctl`/`dbnz`, at a hook-footprint pc
/// (`stops`, one flag per text instruction; an empty slice stops
/// nowhere), a fetch fault (end of text) or the op cap, appending a
/// terminal `Exit` so execution resumes there through dispatch. No
/// footprint pc is ever scanned, so transfers to one become exits and
/// no fused latch covers one.
pub(crate) fn compile_nest(text: &TextImage, entry: u32, stops: &[bool]) -> NestEntry {
    let mut b = Builder::default();
    let mut pc = entry;
    while b.ops.len() < MAX_NEST_OPS {
        let Ok(instr) = text.fetch(pc) else {
            break;
        };
        if stops.get(text_index(pc)).copied().unwrap_or(false) {
            // A hook-footprint pc: the step core runs it with the hooks.
            break;
        }
        let Some(op) = lower(instr, pc) else {
            // zwr/zctl/dbnz: the step core runs them.
            break;
        };
        b.scan(text, instr, pc, op);
        pc = pc.wrapping_add(4);
    }
    if b.ops.is_empty() {
        return NestEntry::Step;
    }
    // Terminal exit: the fall-through of the last scanned op resumes at
    // the first unscanned instruction through dispatch.
    b.map(pc, NOp::Exit { pc });
    NestEntry::Sb(b.finish())
}

/// Compiles the body of a loop whose granted iterates end at footprint
/// pc `end` and redirect to `target` ([`LoopEngine::iterations`]): op 0
/// is the task-end instruction, op 1 its decision's [`NOp::Rider`],
/// then the body `[target, end)` in scan order, then the
/// [`NOp::Iterate`] every transfer to `end` lands on. Control leaving
/// the body exits the superblock.
///
/// [`NestEntry::Step`] when the iterates cannot run in a superblock:
/// the task-end instruction transfers control (the hooks then see more
/// than a plain retire) or is `zwr`/`zctl`/`dbnz`/`halt`, or the body
/// holds another footprint pc, a `zwr`/`zctl`/`dbnz`, a pc outside text
/// or more than the op cap.
pub(crate) fn compile_iterations(
    text: &TextImage,
    end: u32,
    target: u32,
    stops: &[bool],
) -> NestEntry {
    let Ok(instr) = text.fetch(end) else {
        return NestEntry::Step;
    };
    let Some(task_end) = lower(instr, end) else {
        return NestEntry::Step;
    };
    if !straight(&task_end) || target > end || (end - target) / 4 >= MAX_NEST_OPS as u32 {
        return NestEntry::Step;
    }
    let mut b = Builder::default();
    b.push(end, task_end);
    b.push(end, NOp::Rider);
    let mut pc = target;
    while pc != end {
        let Ok(instr) = text.fetch(pc) else {
            return NestEntry::Step;
        };
        if stops.get(text_index(pc)).copied().unwrap_or(false) {
            return NestEntry::Step;
        }
        let Some(op) = lower(instr, pc) else {
            return NestEntry::Step;
        };
        b.scan(text, instr, pc, op);
        pc += 4;
    }
    let bulk = if b
        .ops
        .iter()
        .all(|op| straight(op) || matches!(op, NOp::Rider))
    {
        b.ops.len() as u32 - 1
    } else {
        0
    };
    let (def, uses) = instr.def_use();
    let regs = uses | def.map_or(0, |r| 1 << r.index());
    b.map(end, NOp::Iterate { bulk, regs });
    NestEntry::Sb(b.finish())
}

/// Whether `op` is straight-line: an ALU op, a load, a store or `nop`.
fn straight(op: &NOp) -> bool {
    matches!(
        op,
        NOp::Alu { .. }
            | NOp::AluImm { .. }
            | NOp::Add { .. }
            | NOp::AddImm { .. }
            | NOp::Load { .. }
            | NOp::Store { .. }
            | NOp::Nop
    )
}

/// Runs the straight-line op `$op` (see [`straight`]) on the register
/// array `$regs` and memory `$mem`, evaluating to the data fault of a
/// load or store (`Option<MemError>`). The one definition of these ops'
/// semantics in superblocks; a macro so that every hot loop expands it
/// inline (through a function the memory bulk loop measured about 12%
/// slower on passive motion-estimation runs). Register indices are
/// masked to 31 and writes go through unconditionally with slot 0
/// re-zeroed — branchless discard of `r0` destinations.
macro_rules! exec_straight {
    ($regs:expr, $mem:expr, $op:expr) => {
        match $op {
            NOp::Alu { dst, a, b, f } => {
                $regs[dst.index() & 31] = f($regs[a.index() & 31], $regs[b.index() & 31]);
                $regs[0] = 0;
                None
            }
            NOp::AluImm { dst, a, imm, f } => {
                $regs[dst.index() & 31] = f($regs[a.index() & 31], imm);
                $regs[0] = 0;
                None
            }
            NOp::Add { dst, a, b } => {
                $regs[dst.index() & 31] = $regs[a.index() & 31].wrapping_add($regs[b.index() & 31]);
                $regs[0] = 0;
                None
            }
            NOp::AddImm { dst, a, imm } => {
                $regs[dst.index() & 31] = $regs[a.index() & 31].wrapping_add(imm);
                $regs[0] = 0;
                None
            }
            NOp::Load { dst, base, off, op } => {
                let addr = $regs[base.index() & 31].wrapping_add(off);
                match op.read($mem, addr) {
                    Ok(v) => {
                        $regs[dst.index() & 31] = v;
                        $regs[0] = 0;
                        None
                    }
                    Err(e) => Some(e),
                }
            }
            NOp::Store { val, base, off, op } => {
                let addr = $regs[base.index() & 31].wrapping_add(off);
                op.write($mem, addr, $regs[val.index() & 31]).err()
            }
            NOp::Nop => None,
            _ => unreachable!("straight-line ops only"),
        }
    };
}

/// The text index of an in-text `pc`.
fn text_index(pc: u32) -> usize {
    (pc.wrapping_sub(zolc_isa::TEXT_BASE) / 4) as usize
}

/// Checks the canonical counted-loop latch at a just-scanned branch:
/// `instr` (at `pc`) must be `bne c, r0, top` looping backward to a
/// scanned op, directly preceded by `addi c, c, -1` on the same
/// (nonzero) counter, still present as a plain op. Returns
/// `(counter, body op index, addi op index)`.
fn fuse_latch(
    text: &TextImage,
    by_pc: &HashMap<u32, u32>,
    ops: &[NOp],
    instr: Instr,
    pc: u32,
) -> Option<(Reg, u32, usize)> {
    let Instr::Bne {
        rs: counter, rt, ..
    } = instr
    else {
        return None;
    };
    if rt != Reg::ZERO || counter == Reg::ZERO {
        return None;
    }
    let target = instr.branch_target(pc).expect("branch has target");
    let &body = by_pc.get(&target)?;
    let &latch = by_pc.get(&pc.wrapping_sub(4))?;
    let latch = latch as usize;
    let Ok(Instr::Addi {
        rt: d,
        rs: s,
        imm: -1,
    }) = text.fetch(pc.wrapping_sub(4))
    else {
        return None;
    };
    if d != counter || s != counter {
        return None;
    }
    // The addi must still be a fusable plain op and the loop head must
    // not sit past it.
    if !matches!(ops.get(latch), Some(NOp::AddImm { .. })) || body as usize > latch {
        return None;
    }
    Some((counter, body, latch))
}

/// Applies `full` iterations of a **single-op** memory-free bulk body
/// in closed form — the trip-parameterized fast path: an accumulator
/// (`dst` is also a source) advances by `step × full` in one write, any
/// other op is idempotent across iterations and applies once. Returns
/// `false` when no closed form exists: an op that reads the loop
/// counter (whose value differs every iteration), or an iterated
/// self-dependence under an opaque [`AluFn`]. The caller accounts for
/// the counter and statistics; `full ≥ 1` is required (an "apply once"
/// of zero iterations would be wrong).
fn closed_form(regs: &mut [u32; 32], op: NOp, ci: usize, full: u64) -> bool {
    let n = full as u32;
    match op {
        NOp::Nop => true,
        NOp::AddImm { dst, a, imm } => {
            let (d, s) = (dst.index() & 31, a.index() & 31);
            if s == ci {
                return false;
            }
            regs[d] = if d == s {
                regs[d].wrapping_add(imm.wrapping_mul(n))
            } else {
                regs[s].wrapping_add(imm)
            };
            regs[0] = 0;
            true
        }
        NOp::Add { dst, a, b } => {
            let (d, s, t) = (dst.index() & 31, a.index() & 31, b.index() & 31);
            if s == ci || t == ci || (d == s && d == t) {
                return false;
            }
            regs[d] = if d == s {
                regs[d].wrapping_add(regs[t].wrapping_mul(n))
            } else if d == t {
                regs[d].wrapping_add(regs[s].wrapping_mul(n))
            } else {
                regs[s].wrapping_add(regs[t])
            };
            regs[0] = 0;
            true
        }
        NOp::Alu { dst, a, b, f } => {
            let (d, s, t) = (dst.index() & 31, a.index() & 31, b.index() & 31);
            if d == s || d == t || s == ci || t == ci {
                return false;
            }
            regs[d] = f(regs[s], regs[t]);
            regs[0] = 0;
            true
        }
        NOp::AluImm { dst, a, imm, f } => {
            let (d, s) = (dst.index() & 31, a.index() & 31);
            if d == s || s == ci {
                return false;
            }
            regs[d] = f(regs[s], imm);
            regs[0] = 0;
            true
        }
        _ => false,
    }
}

/// The iterates an engine granted at a task end, as a loop body's
/// superblock consumes them ([`NOp::Rider`], [`NOp::Iterate`]).
#[derive(Debug)]
struct Grant {
    /// Iterates not yet started.
    left: u32,
    /// Iterates whose task-end instruction retired.
    taken: u32,
    /// The index register's slot, its value in the next iterate and
    /// its step.
    index: Option<(usize, u32, u32)>,
    /// The other rider writes of every iterate.
    rider: RegWrites,
}

impl Grant {
    fn new(it: &Iterations) -> Grant {
        Grant {
            left: it.count,
            taken: 0,
            index: it.index.map(|x| (x.reg.index() & 31, x.first, x.step)),
            rider: it.rider,
        }
    }

    /// The registers the iterates' rider writes.
    fn writes(&self) -> u32 {
        let rider = self.rider.iter().fold(0u32, |m, (r, _)| m | 1 << r.index());
        rider | self.index.map_or(0, |(r, ..)| 1 << r)
    }

    /// Retires `n ≥ 1` iterates' rider writes at once: the values of the
    /// last, which is what applying each in turn leaves when nothing
    /// reads the registers in between.
    #[inline(always)]
    fn ride(&mut self, regs: &mut [u32; 32], n: u32) {
        self.left -= n;
        self.taken += n;
        if let Some((r, v, step)) = &mut self.index {
            let last = v.wrapping_add(step.wrapping_mul(n - 1));
            regs[*r] = last;
            *v = last.wrapping_add(*step);
        }
        for (r, v) in self.rider.iter() {
            regs[r.index() & 31] = v;
        }
        regs[0] = 0;
    }
}

/// How one superblock execution left the machine.
enum SbExit {
    /// Continue with dispatch at the (already committed) new pc.
    Continue,
    /// `halt` retired.
    Halted,
}

/// Runs one superblock against the machine state until it exits, faults
/// or hits the fuel boundary (`limit` is the absolute retired-count
/// budget; the caller guarantees `limit > stats.retired` on entry). A
/// loop body's superblock ([`compile_iterations`], run with `BODY`)
/// consumes the iterates of `grant`; any other runs without one.
///
/// A data fault of a body's task-end instruction (op 0) leaves the pc
/// on it without an error: the fault belongs to a visit whose decision
/// the engine has not granted away, so the step core raises it with
/// the hooks.
///
/// Statistics accumulate in locals (`left`, branch deltas) and commit
/// on every way out, so the hot loops touch only the raw register
/// array, memory and the op array. Register indices are masked to 31
/// and writes go through unconditionally with slot 0 re-zeroed —
/// branchless discard of `r0` destinations.
fn run_superblock<const BODY: bool>(
    m: &mut Machine,
    sb: &Superblock,
    limit: u64,
    mut grant: Option<&mut Grant>,
) -> Result<SbExit, RunError> {
    let Machine {
        regs: rf,
        mem,
        stats,
        pc,
        ..
    } = m;
    let regs = rf.raw_mut();
    let ops = &sb.ops;
    let left0 = limit - stats.retired;
    let mut left = left0;
    let mut branches = 0u64;
    let mut taken = 0u64;
    let mut ip = 0usize;
    macro_rules! commit {
        () => {{
            stats.retired += left0 - left;
            stats.branches += branches;
            stats.taken_branches += taken;
        }};
    }
    macro_rules! fault {
        ($e:expr) => {{
            commit!();
            *pc = sb.pcs[ip];
            if BODY && ip == 0 {
                return Ok(SbExit::Continue);
            }
            return Err(RunError::Mem($e));
        }};
    }
    macro_rules! fuel_bail {
        ($need:expr) => {
            if left < $need {
                commit!();
                *pc = sb.pcs[ip];
                return Ok(SbExit::Continue);
            }
        };
    }
    // One straight-line op. Each arm below names a single variant, so
    // the match inside `exec_straight!` folds away.
    macro_rules! straight {
        ($op:expr) => {{
            fuel_bail!(1);
            if let Some(e) = exec_straight!(regs, mem, $op) {
                fault!(e);
            }
            left -= 1;
            ip += 1;
        }};
    }
    loop {
        match ops[ip] {
            op @ NOp::Alu { .. } => straight!(op),
            op @ NOp::AluImm { .. } => straight!(op),
            op @ NOp::Add { .. } => straight!(op),
            op @ NOp::AddImm { .. } => straight!(op),
            op @ NOp::Load { .. } => straight!(op),
            op @ NOp::Store { .. } => straight!(op),
            NOp::Nop => straight!(NOp::Nop),
            NOp::Br {
                rs,
                rt,
                cond,
                taken: t,
            } => {
                fuel_bail!(1);
                left -= 1;
                branches += 1;
                if cond(regs[rs.index() & 31], regs[rt.index() & 31]) {
                    taken += 1;
                    ip = t as usize;
                } else {
                    ip += 1;
                }
            }
            NOp::Jmp { target } => {
                fuel_bail!(1);
                left -= 1;
                ip = target as usize;
            }
            NOp::Jl { dst, value, target } => {
                fuel_bail!(1);
                left -= 1;
                regs[dst.index() & 31] = value;
                regs[0] = 0;
                ip = target as usize;
            }
            NOp::JrExit { rs } => {
                fuel_bail!(1);
                left -= 1;
                commit!();
                *pc = regs[rs.index() & 31];
                return Ok(SbExit::Continue);
            }
            NOp::Repeat {
                counter,
                body,
                bulk,
            } => {
                fuel_bail!(2);
                left -= 2;
                branches += 1;
                let ci = counter.index() & 31;
                let c = regs[ci].wrapping_sub(1);
                regs[ci] = c;
                if c == 0 {
                    ip += 1;
                    continue;
                }
                taken += 1;
                let body_ix = body as usize;
                if bulk != 0 {
                    // Bulk path: run every whole (body + latch)
                    // iteration the budget covers with no dispatch and
                    // no per-op fuel checks. The body is straight-line
                    // and never writes the counter (compile-time
                    // guarantee), so only data faults can interrupt it.
                    let iter_cost = u64::from(bulk);
                    let full = u64::from(c).min(left / iter_cost);
                    let body_ops = &ops[body_ix..ip];
                    // One amortized scan picks the loop: a body without
                    // memory ops cannot fault, so its iterations run
                    // with no fault plumbing at all.
                    let has_mem = body_ops
                        .iter()
                        .any(|op| matches!(*op, NOp::Load { .. } | NOp::Store { .. }));
                    if !has_mem {
                        // Trip-parameterized closed form for single-op
                        // bodies: the whole bulk run is O(1).
                        let applied = match *body_ops {
                            [op] if full > 0 => {
                                let done = closed_form(regs, op, ci, full);
                                if done {
                                    regs[ci] = regs[ci].wrapping_sub(full as u32);
                                }
                                done
                            }
                            _ => false,
                        };
                        if applied {
                            left -= full * iter_cost;
                            branches += full;
                            if regs[ci] == 0 {
                                taken += full - 1;
                                ip += 1;
                            } else {
                                taken += full;
                                ip = body_ix;
                            }
                            continue;
                        }
                        for _ in 0..full {
                            for op in body_ops {
                                let fault = exec_straight!(regs, mem, *op);
                                debug_assert!(fault.is_none(), "no memory op, no fault");
                            }
                            regs[ci] = regs[ci].wrapping_sub(1);
                        }
                        left -= full * iter_cost;
                        branches += full;
                        if regs[ci] == 0 {
                            // The final latch fell through.
                            taken += full - 1;
                            ip += 1;
                        } else {
                            taken += full;
                            ip = body_ix;
                        }
                        continue;
                    }
                    for t in 0..full {
                        for (j, op) in body_ops.iter().enumerate() {
                            if let Some(e) = exec_straight!(regs, mem, *op) {
                                // `t` whole iterations plus `j` ops of
                                // this one committed; every completed
                                // latch was taken (the counter cannot
                                // reach zero mid-bulk).
                                left -= t * iter_cost + j as u64;
                                branches += t;
                                taken += t;
                                commit!();
                                *pc = sb.pcs[body_ix + j];
                                return Err(RunError::Mem(e));
                            }
                        }
                        regs[ci] = regs[ci].wrapping_sub(1);
                    }
                    left -= full * iter_cost;
                    branches += full;
                    if regs[ci] == 0 {
                        // The final latch fell through.
                        taken += full - 1;
                        ip += 1;
                    } else {
                        taken += full;
                        // Out of whole-iteration budget: continue per-op
                        // so the fuel boundary lands instruction-exact.
                        ip = body_ix;
                    }
                    continue;
                }
                ip = body_ix;
            }
            NOp::Exit { pc: epc } => {
                commit!();
                *pc = epc;
                return Ok(SbExit::Continue);
            }
            NOp::Rider | NOp::Iterate { .. } if !BODY => {
                unreachable!("only loop bodies hold grant ops")
            }
            NOp::Rider => {
                let grant = grant
                    .as_deref_mut()
                    .expect("a loop body runs with its grant");
                grant.ride(regs, 1);
                ip += 1;
            }
            NOp::Iterate { bulk, regs: uses } => {
                let grant = grant
                    .as_deref_mut()
                    .expect("a loop body runs with its grant");
                if grant.left == 0 {
                    commit!();
                    *pc = sb.pcs[ip];
                    return Ok(SbExit::Continue);
                }
                let cost = u64::from(bulk);
                let full = if bulk == 0 {
                    0
                } else {
                    u64::from(grant.left).min(left / cost) as u32
                };
                if full == 0 {
                    // Per op, so the fuel boundary lands
                    // instruction-exact.
                    ip = 0;
                    continue;
                }
                // Bulk path: every whole iterate the grant and the budget
                // cover, with no dispatch and no per-op fuel checks; the
                // Iterate runs again afterwards to leave or go per op.
                let task_end = ops[0];
                let body = &ops[2..ip];
                if body.is_empty()
                    && grant.writes() & uses == 0
                    && !matches!(task_end, NOp::Load { .. } | NOp::Store { .. })
                    && closed_form(regs, task_end, 32, u64::from(full))
                {
                    // A one-instruction loop the riders do not touch:
                    // the closed form applies all of it at once.
                    grant.ride(regs, full);
                    left -= u64::from(full) * cost;
                    continue;
                }
                for t in 0..u64::from(full) {
                    if exec_straight!(regs, mem, task_end).is_some() {
                        // The step core raises it, with the hooks.
                        left -= t * cost;
                        commit!();
                        *pc = sb.pcs[0];
                        return Ok(SbExit::Continue);
                    }
                    grant.ride(regs, 1);
                    for (j, op) in body.iter().enumerate() {
                        if let Some(e) = exec_straight!(regs, mem, *op) {
                            left -= t * cost + 1 + j as u64;
                            commit!();
                            *pc = sb.pcs[2 + j];
                            return Err(RunError::Mem(e));
                        }
                    }
                }
                left -= u64::from(full) * cost;
            }
            NOp::Halt => {
                fuel_bail!(1);
                left -= 1;
                commit!();
                // As in the step core, the pc parks on the `halt`.
                *pc = sb.pcs[ip];
                return Ok(SbExit::Halted);
            }
        }
    }
}

/// What a session knows of the iterates granted at one footprint pc.
#[derive(Debug, Clone)]
enum Body {
    /// No body compiled yet: ask for a grant on every visit.
    Unknown,
    /// The superblock of the body starting at `target` that runs the
    /// iterates granted with that target.
    Compiled { target: u32, entry: Arc<NestEntry> },
    /// The body of a grant cannot run in a superblock: every visit takes
    /// the step core without asking again, for the rest of the
    /// footprint (asking on every visit to an enclosing loop's task end,
    /// whose body holds the inner loop, measured about 9% slower on
    /// `fig2.conv2d`; a later grant with another target is not tried).
    Refused,
}

/// The loop-nest superblock simulated processor (see the module docs).
///
/// # Examples
///
/// ```
/// use zolc_sim::{CompiledProgram, CpuConfig, NestCpu, NullEngine};
/// let program = zolc_isa::assemble("
///     li   r1, 5
///     li   r2, 0
/// top: add  r2, r2, r1
///     addi r1, r1, -1
///     bne  r1, r0, top
///     halt
/// ").unwrap();
/// let prog = CompiledProgram::compile(program);
/// let mut cpu = NestCpu::session(&prog, CpuConfig::default())?;
/// let stats = cpu.run(&mut NullEngine, 10_000).unwrap();
/// assert_eq!(cpu.regs().read(zolc_isa::reg(2)), 5 + 4 + 3 + 2 + 1);
/// assert_eq!(stats.cycles, 0); // no timing model
/// assert_eq!(stats.retired, 2 + 3 * 5 + 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct NestCpu {
    m: Machine,
    /// Session-local memo of nest entries already fetched from the
    /// shared cache for the current footprint, dense by instruction
    /// index — the dispatch loop resolves its superblock without
    /// touching the cache lock.
    local: Vec<Option<Arc<NestEntry>>>,
    /// The same for footprint pcs: what the session knows of the
    /// iterates granted there (empty until an active footprint).
    bodies: Vec<Body>,
    /// The hook-map epoch `local`, `bodies` and `footprint` belong to
    /// (0: the empty footprint of a passive engine).
    local_epoch: u64,
    /// The shared-cache id of the current footprint; `None` when an
    /// active engine's footprint is empty or the program interns no more
    /// footprints (everything single-steps).
    footprint: Option<u32>,
}

impl NestCpu {
    /// Opens a fresh run session over a shared compiled program: text
    /// and data written into new memory, pc at the start of text,
    /// zeroed registers and statistics. Sessions sharing one
    /// [`CompiledProgram`] also share its superblock cache — each
    /// region is compiled once, by whichever session gets there first.
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] if a segment does not fit in memory.
    pub fn session(prog: &Arc<CompiledProgram>, config: CpuConfig) -> Result<NestCpu, MemError> {
        let m = Machine::session(prog, config)?;
        let local = vec![None; m.prog.text().len()];
        Ok(NestCpu {
            m,
            local,
            bodies: Vec::new(),
            local_epoch: 0,
            footprint: Some(0),
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
    /// Untraced runs dispatch superblocks between the engine's
    /// hook-footprint pcs, run the iterates the engine grants at a
    /// footprint pc in the loop body's superblock, and run every other
    /// visit to a footprint pc (and `zwr`/`zctl`/`dbnz`) through the step
    /// core with the engine's hooks; retire-traced runs and engines whose
    /// footprint is every pc take the step core for the whole run (see
    /// the module docs).
    ///
    /// # Errors
    ///
    /// * [`RunError::OutOfFuel`] if `halt` is not reached in budget;
    /// * [`RunError::PcOutOfText`] if execution leaves the text segment;
    /// * [`RunError::MisalignedFetch`] on a non-4-aligned pc;
    /// * [`RunError::Mem`] on a data access fault.
    pub fn run(&mut self, engine: &mut dyn LoopEngine, fuel: u64) -> Result<Stats, RunError> {
        if self.m.config.trace_retire {
            return self.m.run(engine, fuel);
        }
        let active = !engine.is_passive();
        if active {
            self.m.refresh_hooks(engine);
            if self.m.hooks.is_all() {
                return self.m.run(engine, fuel);
            }
        }
        let limit = self.m.stats.retired.saturating_add(fuel);
        loop {
            if self.m.stats.retired >= limit {
                return Err(RunError::OutOfFuel { fuel });
            }
            let Some(idx) = self.m.prog.block_index(self.m.pc) else {
                // Misaligned or out-of-text pc: raise the architectural
                // fault (the cache index fails exactly when fetch does).
                let e = self
                    .m
                    .prog
                    .text()
                    .fetch(self.m.pc)
                    .expect_err("cache index and fetch agree on bad pcs");
                return Err(RunError::from_fetch(e, self.m.pc));
            };
            if active {
                self.sync_footprint(self.m.hooks.epoch());
                if self.m.hooks.at(idx) {
                    // A footprint pc: the iterates the engine grants
                    // here, if the loop body runs in a superblock...
                    let end = self.m.pc;
                    if let Some(halted) = self.iterate(engine, idx, limit)? {
                        if halted {
                            return Ok(self.m.stats);
                        }
                        if self.m.pc != end || self.m.stats.retired >= limit {
                            continue;
                        }
                    }
                    // ...then one step with the engine's hooks.
                    if self.m.step_instr::<false>(engine)? {
                        return Ok(self.m.stats);
                    }
                    continue;
                }
            } else {
                self.sync_footprint(0);
            }
            let Some(fp) = self.footprint else {
                if self.m.step_instr::<false>(engine)? {
                    return Ok(self.m.stats);
                }
                continue;
            };
            if self.local[idx].is_none() {
                // Footprint 0 is empty: nothing stops the scan.
                let stops = if fp == 0 {
                    &[][..]
                } else {
                    self.m.hooks.bits()
                };
                self.local[idx] = Some(self.m.prog.nest_at(fp, stops, self.m.pc));
            }
            let entry = self.local[idx].as_deref().expect("just resolved");
            match entry {
                NestEntry::Step => {
                    // zwr/zctl/dbnz at this pc: one step-core step (with
                    // the hooks, since a table write may move the
                    // footprint onto this very pc).
                    let halted = if active {
                        self.m.step_instr::<false>(engine)?
                    } else {
                        self.m.step_instr::<true>(engine)?
                    };
                    if halted {
                        return Ok(self.m.stats);
                    }
                }
                NestEntry::Sb(sb) => {
                    let before = (self.m.pc, self.m.stats.retired);
                    match run_superblock::<false>(&mut self.m, sb, limit, None)? {
                        SbExit::Halted => return Ok(self.m.stats),
                        SbExit::Continue => {
                            if (self.m.pc, self.m.stats.retired) == before {
                                // The first op needs more fuel than
                                // remains (a Repeat with 1 left): retire
                                // per-instruction so OutOfFuel lands at
                                // the exact boundary. The pc is outside
                                // the footprint, so its hooks are no-ops.
                                if self.m.step_instr::<true>(engine)? {
                                    return Ok(self.m.stats);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

impl NestCpu {
    /// At the footprint pc `self.m.pc` (text index `idx`): runs the
    /// iterates `engine` grants there in the loop body's superblock and
    /// commits those whose task-end instruction retired. Returns
    /// whether `halt` retired, or `None` when nothing ran: no grant, or
    /// a body that cannot run in a superblock. The run stops where the
    /// superblock does — the pc back on the task end once the grant is
    /// spent, for the step core to make the next decision.
    fn iterate(
        &mut self,
        engine: &mut dyn LoopEngine,
        idx: usize,
        limit: u64,
    ) -> Result<Option<bool>, RunError> {
        if matches!(self.bodies[idx], Body::Refused) {
            return Ok(None);
        }
        let end = self.m.pc;
        let Some(it) = engine.iterations(end) else {
            return Ok(None);
        };
        let Some(fp) = self.footprint else {
            return Ok(None);
        };
        let NestCpu { m, bodies, .. } = self;
        let body = &mut bodies[idx];
        if !matches!(body, Body::Compiled { target, .. } if *target == it.target) {
            let entry = m.prog.iterations_at(fp, m.hooks.bits(), end, it.target);
            *body = match *entry {
                NestEntry::Sb(_) => Body::Compiled {
                    target: it.target,
                    entry,
                },
                NestEntry::Step => Body::Refused,
            };
        }
        let Body::Compiled { entry, .. } = body else {
            return Ok(None);
        };
        let NestEntry::Sb(sb) = &**entry else {
            unreachable!("only superblocks are kept");
        };
        let mut grant = Grant::new(&it);
        let r = run_superblock::<true>(m, sb, limit, Some(&mut grant));
        let n = grant.taken;
        engine.retire_iterations(end, n);
        m.stats.zolc_redirects += u64::from(n);
        m.stats.zolc_index_writes += u64::from(n) * it.writes_per_iteration();
        Ok(Some(matches!(r?, SbExit::Halted)))
    }

    /// Points the session at the superblocks of the footprint with hook
    /// map epoch `epoch` (0: the empty footprint), dropping the memo of
    /// the previous one when it changed.
    fn sync_footprint(&mut self, epoch: u64) {
        if epoch == self.local_epoch {
            return;
        }
        self.local_epoch = epoch;
        let indices = self.m.hooks.indices();
        self.footprint = if epoch == 0 {
            Some(0)
        } else if indices.is_empty() {
            // An active engine with nothing to hook is a controller
            // before `zctl.on` or after `zctl.off`: initialization code,
            // split by a `zwr` every other instruction, where one-pair
            // superblocks cost a compile and a cache entry each and run
            // no faster than the step core.
            None
        } else {
            self.m.prog.footprint_id(indices)
        };
        self.local.fill(None);
        self.bodies.clear();
        if epoch != 0 {
            self.bodies.resize(self.local.len(), Body::Unknown);
        }
    }
}

impl Executor for NestCpu {
    fn kind(&self) -> ExecutorKind {
        ExecutorKind::Nest
    }

    fn run(&mut self, engine: &mut dyn LoopEngine, fuel: u64) -> Result<Stats, RunError> {
        NestCpu::run(self, engine, fuel)
    }

    fn regs(&self) -> &RegFile {
        NestCpu::regs(self)
    }

    fn regs_mut(&mut self) -> &mut RegFile {
        NestCpu::regs_mut(self)
    }

    fn mem(&self) -> &Memory {
        NestCpu::mem(self)
    }

    fn mem_mut(&mut self) -> &mut Memory {
        NestCpu::mem_mut(self)
    }

    fn stats(&self) -> &Stats {
        NestCpu::stats(self)
    }

    fn retire_log(&self) -> &[RetireEvent] {
        NestCpu::retire_log(self)
    }
}

/// Nest-tier tests, each program's lowering first checked instruction
/// by instruction against `exec::step`. The session and differential
/// helpers are shared with the per-instruction lowering tests in
/// `blocks::tests`.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::NullEngine;
    use crate::exec::{step, Effect};
    use crate::FunctionalCpu;
    use zolc_isa::{assemble, reg, Program};

    pub(crate) fn nest_session(p: &Program) -> NestCpu {
        NestCpu::session(&CompiledProgram::compile(p.clone()), CpuConfig::default()).unwrap()
    }

    fn run_nest(src: &str) -> (NestCpu, Stats) {
        let p = assemble(src).expect("assembles");
        assert_matches_functional(&p, 1_000_000);
        let mut cpu = nest_session(&p);
        let stats = cpu.run(&mut NullEngine, 1_000_000).expect("runs");
        (cpu, stats)
    }

    /// Register values the lowering checks read: distinct, with both
    /// signs, zeros and small shift amounts, so every branch condition
    /// and ALU fn is exercised on non-trivial operands.
    fn operand_sets() -> Vec<[u32; 32]> {
        let spread: [u32; 32] = std::array::from_fn(|i| (i as u32).wrapping_mul(0x9E37_79B9));
        let small: [u32; 32] = std::array::from_fn(|i| (i as u32).wrapping_sub(16));
        let mut zero = spread;
        zero[1..8].fill(0);
        vec![spread, small, zero]
    }

    /// Every instruction of `p` lowers to an op with exactly the
    /// architectural effect `exec::step` computes for it (transfer
    /// targets still pcs), or to `None` where the step core owns it.
    pub(crate) fn assert_lowers_like_step(p: &Program) {
        for regs in operand_sets() {
            let read = |r: Reg| if r.is_zero() { 0 } else { regs[r.index()] };
            for (i, &instr) in p.text().iter().enumerate() {
                let pc = 4 * i as u32;
                let want = step(instr, pc, read);
                let write = |dst, value| Effect::Write { dst, value };
                let got = match lower(instr, pc) {
                    Some(NOp::Alu { dst, a, b, f }) => write(dst, f(read(a), read(b))),
                    Some(NOp::AluImm { dst, a, imm, f }) => write(dst, f(read(a), imm)),
                    Some(NOp::Add { dst, a, b }) => write(dst, read(a).wrapping_add(read(b))),
                    Some(NOp::AddImm { dst, a, imm }) => write(dst, read(a).wrapping_add(imm)),
                    Some(NOp::Load { dst, base, off, op }) => Effect::Load {
                        dst,
                        addr: read(base).wrapping_add(off),
                        op,
                    },
                    Some(NOp::Store { val, base, off, op }) => Effect::Store {
                        addr: read(base).wrapping_add(off),
                        value: read(val),
                        op,
                    },
                    Some(NOp::Nop) => Effect::Nop,
                    Some(NOp::Br {
                        rs,
                        rt,
                        cond,
                        taken,
                    }) => Effect::Branch {
                        taken: cond(read(rs), read(rt)),
                        target: taken,
                        decrement: None,
                    },
                    Some(NOp::Jmp { target }) => Effect::Jump { target, link: None },
                    Some(NOp::Jl { dst, value, target }) => Effect::Jump {
                        target,
                        link: Some((dst, value)),
                    },
                    Some(NOp::JrExit { rs }) => Effect::Jump {
                        target: read(rs),
                        link: None,
                    },
                    Some(NOp::Halt) => Effect::Halt,
                    Some(
                        op @ (NOp::Repeat { .. }
                        | NOp::Exit { .. }
                        | NOp::Rider
                        | NOp::Iterate { .. }),
                    ) => {
                        panic!("{instr:?} lowered to {op:?}")
                    }
                    None => {
                        assert!(
                            matches!(
                                want,
                                Effect::Zwr { .. }
                                    | Effect::Zctl { .. }
                                    | Effect::Branch {
                                        decrement: Some(_),
                                        ..
                                    }
                            ),
                            "{instr:?} deferred to the step core"
                        );
                        continue;
                    }
                };
                assert_eq!(got, want, "{instr:?} at {pc:#x}");
            }
        }
    }

    /// The lowering checked per instruction, then executed by its one
    /// consumer, the nest tier, against the functional reference.
    pub(crate) fn assert_matches_functional(p: &Program, fuel: u64) {
        assert_lowers_like_step(p);
        let prog = CompiledProgram::compile(p.clone());
        let mut f = FunctionalCpu::session(&prog, CpuConfig::default()).unwrap();
        let fr = f.run(&mut NullEngine, fuel);
        let mut n = NestCpu::session(&prog, CpuConfig::default()).unwrap();
        let nr = n.run(&mut NullEngine, fuel);
        assert_eq!(fr, nr, "run results differ (fuel {fuel})");
        assert_eq!(
            f.regs().snapshot(),
            n.regs().snapshot(),
            "registers (fuel {fuel})"
        );
        assert_eq!(f.stats(), n.stats(), "stats (fuel {fuel})");
    }

    /// Per-fuel differential sweep over the full retire count of `src`.
    fn fuel_sweep(src: &str) {
        let p = assemble(src).expect("assembles");
        let prog = CompiledProgram::compile(p.clone());
        let mut f = FunctionalCpu::session(&prog, CpuConfig::default()).unwrap();
        let full = f.run(&mut NullEngine, 1_000_000).expect("runs").retired;
        for fuel in 0..=full + 1 {
            assert_matches_functional(&p, fuel);
        }
    }

    #[test]
    fn countdown_loop_fuses_and_matches() {
        let (cpu, stats) = run_nest(
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
    fn whole_nest_compiles_to_one_superblock() {
        // A 3-deep nest runs out of a single superblock: one nest-cache
        // miss at the program entry, no per-iteration traffic.
        let p = assemble(
            "
            li   r1, 20
      o:    li   r2, 15
      m:    li   r3, 10
      i:    addi r4, r4, 1
            addi r3, r3, -1
            bne  r3, r0, i
            addi r2, r2, -1
            bne  r2, r0, m
            addi r1, r1, -1
            bne  r1, r0, o
            halt
        ",
        )
        .unwrap();
        let prog = CompiledProgram::compile(p);
        let mut n = NestCpu::session(&prog, CpuConfig::default()).unwrap();
        let stats = n.run(&mut NullEngine, 50_000_000).unwrap();
        assert_eq!(n.regs().read(reg(4)), 20 * 15 * 10);
        let inner = 20 * 15 * 10;
        let mid = 20 * 15;
        assert_eq!(stats.branches as u32, inner + mid + 20);
        assert_eq!(stats.taken_branches as u32, (inner - mid) + (mid - 20) + 19);
        let cs = prog.nest_cache_stats();
        assert_eq!(cs.misses, 1, "whole nest = one superblock");
        assert_eq!(cs.resident, 1);
    }

    #[test]
    fn nested_loops_fuel_boundary_is_instruction_exact() {
        fuel_sweep(
            "
            li   r1, 3
      o:    li   r2, 4
      i:    addi r3, r3, 1
            addi r2, r2, -1
            bne  r2, r0, i
            addi r1, r1, -1
            bne  r1, r0, o
            halt
        ",
        );
    }

    #[test]
    fn dbnz_in_body_bails_to_the_step_core() {
        let src = "
            li   r1, 4
            jal  sub
      top:  addi r2, r2, 1
            dbnz r1, top
            halt
      sub:  addi r5, r0, 9
            jr   r31
        ";
        // `dbnz` defers to the step core; `jal` precomputes its link.
        let p = assemble(src).unwrap();
        assert!(lower(p.text()[3], 12).is_none());
        assert!(matches!(
            lower(p.text()[1], 4),
            Some(NOp::Jl {
                dst: Reg::RA,
                value: 8,
                target: 20,
            })
        ));
        let (cpu, stats) = run_nest(src);
        assert_eq!(cpu.regs().read(reg(2)), 4);
        assert_eq!(cpu.regs().read(reg(5)), 9);
        assert_eq!(stats.dbnz_retired, 4);
    }

    #[test]
    fn dbnz_fuel_boundary_is_instruction_exact() {
        fuel_sweep(
            "
            li   r1, 3
      top:  addi r2, r2, 1
            dbnz r1, top
            halt
        ",
        );
        // A `jal`/`jr` call and return around the `dbnz` loop.
        fuel_sweep(
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
    }

    #[test]
    fn counter_read_in_body_stays_architectural() {
        // The body reads (and another loop sums) the live counter: trip
        // parameterization must keep the register view exact.
        let (cpu, _) = run_nest(
            "
            li   r1, 10
            li   r2, 0
      top:  add  r2, r2, r1
            sll  r3, r1, 1
            addi r1, r1, -1
            bne  r1, r0, top
            halt
        ",
        );
        assert_eq!(cpu.regs().read(reg(2)), (1..=10).sum::<u32>());
        assert_eq!(cpu.regs().read(reg(3)), 2); // last body saw r1 == 1
    }

    #[test]
    fn counter_write_in_body_disables_bulk_but_stays_exact() {
        // The body re-adds 1 to the counter every second iteration via a
        // conditional — no bulk path, but Repeat semantics stay exact.
        fuel_sweep(
            "
            li   r1, 6
            li   r2, 0
      top:  addi r2, r2, 1
            andi r4, r2, 1
            beq  r4, r0, skip
            nop
      skip: addi r1, r1, -1
            bne  r1, r0, top
            halt
        ",
        );
    }

    #[test]
    fn mid_body_fault_commits_the_prefix() {
        let p = assemble(
            "
            li   r1, 2
            li   r2, 77
            sw   r2, (r1)
            halt
        ",
        )
        .unwrap();
        assert_matches_functional(&p, 1000);
        let mut n = nest_session(&p);
        assert!(matches!(
            n.run(&mut NullEngine, 1000),
            Err(RunError::Mem(_))
        ));
        assert_eq!(n.regs().read(reg(2)), 77);
        assert_eq!(n.stats().retired, 2);
    }

    #[test]
    fn bulk_path_fault_resumes_instruction_exact() {
        // A looped store walks backward past the start of data memory
        // and faults mid-bulk: the committed iterations, counter value,
        // branch counters and parked pc must all match the interpreter.
        let src = "
            li   r1, 100
            li   r2, 256
      top:  addi r2, r2, -64
            sw   r1, (r2)
            addi r1, r1, -1
            bne  r1, r0, top
            halt
        ";
        let p = assemble(src).unwrap();
        assert_matches_functional(&p, 1_000_000);
        let mut n = nest_session(&p);
        assert!(matches!(
            n.run(&mut NullEngine, 1_000_000),
            Err(RunError::Mem(_))
        ));
    }

    #[test]
    fn bulk_loop_fuel_boundary_is_instruction_exact() {
        // The bulk fast path must stop at whole iterations and let the
        // per-op path finish the partial one — every boundary exact.
        fuel_sweep(
            "
            li   r1, 7
            li   r5, 0
      top:  addi r5, r5, 3
            xori r6, r5, 21
            addi r1, r1, -1
            bne  r1, r0, top
            halt
        ",
        );
    }

    #[test]
    fn closed_form_accumulator_matches_per_op_execution() {
        // `addi r5, r5, 3` alone in the body: the bulk run collapses to
        // one `r5 += 3 × trips` write. Every fuel boundary must still
        // land exactly where the per-op interpreter puts it.
        fuel_sweep(
            "
            li   r1, 9
            li   r5, 0
      top:  addi r5, r5, 3
            addi r1, r1, -1
            bne  r1, r0, top
            halt
        ",
        );
    }

    #[test]
    fn closed_form_register_accumulator_and_idempotent_ops() {
        // `add r5, r5, r6` is an accumulator over an invariant source;
        // `addi r7, r6, 5` (in the second loop) is idempotent and must
        // apply exactly once regardless of the trip count.
        fuel_sweep(
            "
            li   r6, 11
            li   r1, 8
      t1:   add  r5, r5, r6
            addi r1, r1, -1
            bne  r1, r0, t1
            li   r1, 6
      t2:   addi r7, r6, 5
            addi r1, r1, -1
            bne  r1, r0, t2
            halt
        ",
        );
    }

    #[test]
    fn closed_form_rejects_iterated_self_dependence() {
        // `add r5, r5, r5` doubles every iteration — no closed form;
        // the generic bulk loop must produce the exact power of two.
        let (cpu, _) = run_nest(
            "
            li   r5, 1
            li   r1, 10
      top:  add  r5, r5, r5
            addi r1, r1, -1
            bne  r1, r0, top
            halt
        ",
        );
        assert_eq!(cpu.regs().read(reg(5)), 1 << 10);
        fuel_sweep(
            "
            li   r5, 1
            li   r1, 4
      top:  add  r5, r5, r5
            addi r1, r1, -1
            bne  r1, r0, top
            halt
        ",
        );
    }

    #[test]
    fn closed_form_rejects_counter_reading_bodies() {
        // The single body op reads the loop counter, whose value is
        // different every iteration — must fall back to the per-op
        // bulk loop and sum 1..trips exactly.
        let (cpu, _) = run_nest(
            "
            li   r1, 10
      top:  add  r2, r2, r1
            addi r1, r1, -1
            bne  r1, r0, top
            halt
        ",
        );
        assert_eq!(cpu.regs().read(reg(2)), (1..=10).sum::<u32>());
    }

    #[test]
    fn empty_body_self_latch_fuses() {
        // `top: addi; bne` with no body: the Repeat loops on itself.
        fuel_sweep(
            "
            li   r1, 5
      top:  addi r1, r1, -1
            bne  r1, r0, top
            halt
        ",
        );
    }

    #[test]
    fn branch_into_latch_tail_skip_lands_on_the_repeat() {
        // A forward branch to the addi (tail-skip idiom) must land on
        // the fused Repeat and still decrement-and-test correctly.
        fuel_sweep(
            "
            li   r1, 5
            li   r2, 0
      top:  addi r2, r2, 1
            andi r3, r2, 1
            bne  r3, r0, latch
            addi r4, r4, 10
      latch: addi r1, r1, -1
            bne  r1, r0, top
            halt
        ",
        );
    }

    #[test]
    fn fetch_faults_match_functional() {
        for src in ["nop\nnop\n", "li r1, 6\njr r1\nhalt"] {
            let p = assemble(src).unwrap();
            assert_matches_functional(&p, 1000);
        }
        let p = assemble("li r1, 6\njr r1\nhalt").unwrap();
        let mut n = nest_session(&p);
        let err = n.run(&mut NullEngine, 1000).unwrap_err();
        assert_eq!(err, RunError::MisalignedFetch { pc: 6 });
    }

    #[test]
    fn infinite_jump_burns_fuel_exactly() {
        // Never halts: both tiers must report OutOfFuel at the same
        // instruction for every budget.
        let p = assemble("top: j top\nhalt").unwrap();
        for fuel in 0..40 {
            assert_matches_functional(&p, fuel);
        }
    }

    #[test]
    fn trace_retire_falls_back_to_the_step_core() {
        let p = assemble("nop\nnop\nhalt").unwrap();
        assert_lowers_like_step(&p);
        let prog = CompiledProgram::compile(p);
        let mut cpu = NestCpu::session(&prog, CpuConfig { trace_retire: true }).unwrap();
        cpu.run(&mut NullEngine, 100).unwrap();
        let ords: Vec<u64> = cpu.retire_log().iter().map(|e| e.cycle).collect();
        assert_eq!(ords, vec![1, 2, 3]);
        // Traced runs never compile a superblock.
        assert_eq!(prog.nest_cache_stats().misses, 0);
    }

    /// A non-passive engine that never acts but names a footprint.
    struct Hooked(Vec<u32>);

    impl LoopEngine for Hooked {
        fn hook_pcs(&self) -> Option<&[u32]> {
            Some(&self.0)
        }
    }

    #[test]
    fn footprint_pcs_split_superblocks_and_stay_exact() {
        let p = assemble(
            "
            li   r1, 6
      top:  addi r2, r2, 3
            addi r3, r3, 1
            addi r1, r1, -1
            bne  r1, r0, top
            halt
        ",
        )
        .unwrap();
        let prog = CompiledProgram::compile(p);
        // Hooking the `addi r3` (pc 8) ends every superblock before it.
        let footprint = vec![zolc_isa::TEXT_BASE + 8];
        let full = {
            let mut f = FunctionalCpu::session(&prog, CpuConfig::default()).unwrap();
            f.run(&mut NullEngine, 1000).unwrap().retired
        };
        for fuel in 1..=full {
            let mut f = FunctionalCpu::session(&prog, CpuConfig::default()).unwrap();
            let fr = f.run(&mut Hooked(footprint.clone()), fuel);
            let mut n = NestCpu::session(&prog, CpuConfig::default()).unwrap();
            let nr = n.run(&mut Hooked(footprint.clone()), fuel);
            assert_eq!(fr, nr, "fuel {fuel}");
            assert_eq!(f.regs().snapshot(), n.regs().snapshot(), "fuel {fuel}");
            assert_eq!(f.stats(), n.stats(), "fuel {fuel}");
            assert_eq!(f.pc(), n.pc(), "fuel {fuel}");
        }
        // A further session compiles nothing: the footprint's
        // superblocks are shared.
        let before = prog.nest_cache_stats();
        let mut n = NestCpu::session(&prog, CpuConfig::default()).unwrap();
        n.run(&mut Hooked(footprint), 1000).unwrap();
        assert_eq!(prog.nest_cache_stats().misses, before.misses);
        // The scan from `top` stops before the hooked pc, so the loop's
        // latch is not fused into that superblock; without the stop it is.
        let top = zolc_isa::TEXT_BASE + 4;
        let repeats = |e: &NestEntry| match e {
            NestEntry::Sb(sb) => sb.ops.iter().any(|op| matches!(op, NOp::Repeat { .. })),
            NestEntry::Step => false,
        };
        let stops = [false, false, true, false, false, false];
        let NestEntry::Sb(sb) = compile_nest(prog.text(), top, &stops) else {
            panic!("the body compiles");
        };
        assert_eq!(&*sb.pcs, &[top, top + 4]);
        assert!(!repeats(&compile_nest(prog.text(), top, &stops)));
        assert!(repeats(&compile_nest(prog.text(), top, &[])));
        assert!(matches!(
            compile_nest(prog.text(), top + 4, &stops),
            NestEntry::Step
        ));
    }

    #[test]
    fn footprints_intern_up_to_the_cap() {
        let prog = CompiledProgram::compile(assemble("nop\nhalt").unwrap());
        assert_eq!(prog.footprint_id(&[]), Some(0));
        assert_eq!(prog.footprint_id(&[1]), Some(1));
        assert_eq!(prog.footprint_id(&[1]), Some(1));
        for k in 2..crate::program::MAX_FOOTPRINTS as u32 {
            assert_eq!(prog.footprint_id(&[k]), Some(k));
        }
        assert_eq!(prog.footprint_id(&[999]), None);
        assert_eq!(prog.footprint_id(&[1]), Some(1));
    }

    #[test]
    fn superblocks_are_shared_across_sessions() {
        let p = assemble(
            "
            li   r1, 1000
      top:  addi r2, r2, 3
            addi r1, r1, -1
            bne  r1, r0, top
            halt
        ",
        )
        .unwrap();
        assert_lowers_like_step(&p);
        let prog = CompiledProgram::compile(p);
        let mut n = NestCpu::session(&prog, CpuConfig::default()).unwrap();
        n.run(&mut NullEngine, 1_000_000).unwrap();
        assert_eq!(n.regs().read(reg(2)), 3000);
        let stats = prog.nest_cache_stats();
        assert_eq!(stats.misses, 1, "one superblock covers the whole program");
        // A second session over the same program compiles nothing new.
        let mut n2 = NestCpu::session(&prog, CpuConfig::default()).unwrap();
        n2.run(&mut NullEngine, 1_000_000).unwrap();
        assert_eq!(n2.regs().read(reg(2)), 3000);
        assert_eq!(prog.nest_cache_stats().misses, stats.misses);
        assert!(
            prog.nest_cache_stats().hits > stats.hits,
            "reused shared superblocks"
        );
    }
}
