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
//!   Footprint pcs, plus `zwr`/`zctl`/`dbnz`, run through the step core
//!   with the engine's hooks; everything between them runs in
//!   superblocks with no hook call at all, which the footprint's
//!   superset contract makes exact. The footprint is re-read after every
//!   `zwr`/`zctl`; when it changes, the session drops its memo and
//!   switches to the superblocks compiled for the new footprint.
//!   Passive engines share the superblocks of the empty footprint. An
//!   active engine with an empty footprint — the controller before
//!   `zctl.on`, running initialization code that a `zwr` splits every
//!   other instruction — single-steps, as does every run once the
//!   program has interned its cap of distinct footprints. An engine
//!   whose footprint is every pc (the `hook_pcs` default) or a
//!   retire-traced run takes the step core for the whole run;
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
//! keyed by entry pc and footprint id, compiled once and shared by every
//! concurrent session; regions that start on an instruction the
//! superblock cannot contain are cached negatively ([`NestEntry::Step`])
//! and single-stepped. The three-way
//! `prop_exec_equiv` suite holds this tier bit-exact — registers,
//! memory, retire counts and every architectural event counter —
//! against the other two.

use crate::cpu::{CpuConfig, Executor, ExecutorKind, RetireEvent, RunError};
use crate::engine::LoopEngine;
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

/// Compiles the region entered at `entry` into a superblock.
///
/// The scan lowers instructions linearly from `entry`; once it stops,
/// fixups turn every control-transfer target pc into an op index, and
/// targets outside the region (or never reached by the scan) become
/// [`NOp::Exit`] ops. When a backward `bne c, r0, top` directly
/// follows `addi c, c, -1` on the same counter, the pair fuses into one
/// [`NOp::Repeat`] at the `addi`'s op index — entering at either latch
/// instruction, or branching to the `addi` (a tail-skip), still lands
/// on correct decrement-and-test semantics. The scan stops at
/// `zwr`/`zctl`/`dbnz`, at a hook-footprint pc (`stops`, one flag per
/// text instruction; an empty slice stops nowhere), a fetch fault (end
/// of text) or the op cap, appending a terminal `Exit` so execution
/// resumes there through dispatch. No footprint pc is ever scanned, so
/// transfers to one become exits and no fused latch covers one.
pub(crate) fn compile_nest(text: &TextImage, entry: u32, stops: &[bool]) -> NestEntry {
    let mut ops: Vec<NOp> = Vec::new();
    let mut pcs: Vec<u32> = Vec::new();
    // instruction pc -> op index (fused `bne`s are absent by design:
    // a transfer to one exits the superblock and re-enters there)
    let mut by_pc: HashMap<u32, u32> = HashMap::new();
    let mut pc = entry;
    loop {
        if ops.len() >= MAX_NEST_OPS {
            break;
        }
        let Ok(instr) = text.fetch(pc) else {
            break;
        };
        let ix = (pc.wrapping_sub(zolc_isa::TEXT_BASE) / 4) as usize;
        if stops.get(ix).copied().unwrap_or(false) {
            // A hook-footprint pc: the step core runs it with the hooks.
            break;
        }
        let Some(op) = lower(instr, pc) else {
            // zwr/zctl/dbnz: the step core runs them.
            break;
        };
        if let Some((counter, body, latch)) = fuse_latch(text, &by_pc, &ops, instr, pc) {
            // The Repeat replaces the addi in place and the bne maps to
            // no op.
            let bulk = bulk_cost(&ops, body as usize, latch, counter);
            ops[latch] = NOp::Repeat {
                counter,
                body,
                bulk,
            };
        } else {
            by_pc.insert(pc, ops.len() as u32);
            pcs.push(pc);
            ops.push(op);
        }
        pc = pc.wrapping_add(4);
    }
    if ops.is_empty() {
        return NestEntry::Step;
    }
    // Terminal exit: the fall-through of the last scanned op resumes at
    // the first unscanned instruction through dispatch.
    let scanned = ops.len();
    let mut exits: HashMap<u32, u32> = HashMap::new();
    exits.insert(pc, scanned as u32);
    ops.push(NOp::Exit { pc });
    pcs.push(pc);
    // Fixups: every transfer target is still a pc.
    for k in 0..scanned {
        let target = match ops[k] {
            NOp::Br { taken, .. } => taken,
            NOp::Jmp { target } | NOp::Jl { target, .. } => target,
            _ => continue,
        };
        let ix = match by_pc.get(&target) {
            Some(&ix) => ix,
            None => *exits.entry(target).or_insert_with(|| {
                ops.push(NOp::Exit { pc: target });
                pcs.push(target);
                (ops.len() - 1) as u32
            }),
        };
        if let NOp::Br { taken: t, .. } | NOp::Jmp { target: t } | NOp::Jl { target: t, .. } =
            &mut ops[k]
        {
            *t = ix;
        }
    }
    NestEntry::Sb(Superblock {
        ops: ops.into_boxed_slice(),
        pcs: pcs.into_boxed_slice(),
    })
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

/// How one superblock execution left the machine.
enum SbExit {
    /// Continue with dispatch at the (already committed) new pc.
    Continue,
    /// `halt` retired.
    Halted,
}

/// Runs one superblock against the machine state until it exits, faults
/// or hits the fuel boundary (`limit` is the absolute retired-count
/// budget; the caller guarantees `limit > stats.retired` on entry).
///
/// Statistics accumulate in locals (`left`, branch deltas) and commit
/// on every way out, so the hot loops touch only the raw register
/// array, memory and the op array. Register indices are masked to 31 and writes go through unconditionally with slot 0
/// re-zeroed — branchless discard of `r0` destinations.
fn run_superblock(m: &mut Machine, sb: &Superblock, limit: u64) -> Result<SbExit, RunError> {
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
    macro_rules! fuel_bail {
        ($need:expr) => {
            if left < $need {
                commit!();
                *pc = sb.pcs[ip];
                return Ok(SbExit::Continue);
            }
        };
    }
    loop {
        match ops[ip] {
            NOp::Alu { dst, a, b, f } => {
                fuel_bail!(1);
                left -= 1;
                regs[dst.index() & 31] = f(regs[a.index() & 31], regs[b.index() & 31]);
                regs[0] = 0;
                ip += 1;
            }
            NOp::AluImm { dst, a, imm, f } => {
                fuel_bail!(1);
                left -= 1;
                regs[dst.index() & 31] = f(regs[a.index() & 31], imm);
                regs[0] = 0;
                ip += 1;
            }
            NOp::Add { dst, a, b } => {
                fuel_bail!(1);
                left -= 1;
                regs[dst.index() & 31] = regs[a.index() & 31].wrapping_add(regs[b.index() & 31]);
                regs[0] = 0;
                ip += 1;
            }
            NOp::AddImm { dst, a, imm } => {
                fuel_bail!(1);
                left -= 1;
                regs[dst.index() & 31] = regs[a.index() & 31].wrapping_add(imm);
                regs[0] = 0;
                ip += 1;
            }
            NOp::Load { dst, base, off, op } => {
                fuel_bail!(1);
                let addr = regs[base.index() & 31].wrapping_add(off);
                match op.read(mem, addr) {
                    Ok(v) => {
                        left -= 1;
                        regs[dst.index() & 31] = v;
                        regs[0] = 0;
                        ip += 1;
                    }
                    Err(e) => {
                        commit!();
                        *pc = sb.pcs[ip];
                        return Err(RunError::Mem(e));
                    }
                }
            }
            NOp::Store { val, base, off, op } => {
                fuel_bail!(1);
                let addr = regs[base.index() & 31].wrapping_add(off);
                if let Err(e) = op.write(mem, addr, regs[val.index() & 31]) {
                    commit!();
                    *pc = sb.pcs[ip];
                    return Err(RunError::Mem(e));
                }
                left -= 1;
                ip += 1;
            }
            NOp::Nop => {
                fuel_bail!(1);
                left -= 1;
                ip += 1;
            }
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
                                match *op {
                                    NOp::Alu { dst, a, b, f } => {
                                        regs[dst.index() & 31] =
                                            f(regs[a.index() & 31], regs[b.index() & 31]);
                                        regs[0] = 0;
                                    }
                                    NOp::AluImm { dst, a, imm, f } => {
                                        regs[dst.index() & 31] = f(regs[a.index() & 31], imm);
                                        regs[0] = 0;
                                    }
                                    NOp::Add { dst, a, b } => {
                                        regs[dst.index() & 31] =
                                            regs[a.index() & 31].wrapping_add(regs[b.index() & 31]);
                                        regs[0] = 0;
                                    }
                                    NOp::AddImm { dst, a, imm } => {
                                        regs[dst.index() & 31] =
                                            regs[a.index() & 31].wrapping_add(imm);
                                        regs[0] = 0;
                                    }
                                    NOp::Nop => {}
                                    _ => unreachable!("bulk body is straight-line"),
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
                            ip = body_ix;
                        }
                        continue;
                    }
                    for t in 0..full {
                        for (j, op) in body_ops.iter().enumerate() {
                            let fault = match *op {
                                NOp::Alu { dst, a, b, f } => {
                                    regs[dst.index() & 31] =
                                        f(regs[a.index() & 31], regs[b.index() & 31]);
                                    regs[0] = 0;
                                    None
                                }
                                NOp::AluImm { dst, a, imm, f } => {
                                    regs[dst.index() & 31] = f(regs[a.index() & 31], imm);
                                    regs[0] = 0;
                                    None
                                }
                                NOp::Add { dst, a, b } => {
                                    regs[dst.index() & 31] =
                                        regs[a.index() & 31].wrapping_add(regs[b.index() & 31]);
                                    regs[0] = 0;
                                    None
                                }
                                NOp::AddImm { dst, a, imm } => {
                                    regs[dst.index() & 31] = regs[a.index() & 31].wrapping_add(imm);
                                    regs[0] = 0;
                                    None
                                }
                                NOp::Load { dst, base, off, op } => {
                                    let addr = regs[base.index() & 31].wrapping_add(off);
                                    match op.read(mem, addr) {
                                        Ok(v) => {
                                            regs[dst.index() & 31] = v;
                                            regs[0] = 0;
                                            None
                                        }
                                        Err(e) => Some(e),
                                    }
                                }
                                NOp::Store { val, base, off, op } => {
                                    let addr = regs[base.index() & 31].wrapping_add(off);
                                    op.write(mem, addr, regs[val.index() & 31]).err()
                                }
                                NOp::Nop => None,
                                _ => unreachable!("bulk body is straight-line"),
                            };
                            if let Some(e) = fault {
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
    /// The hook-map epoch `local` and `footprint` belong to (0: the
    /// empty footprint of a passive engine).
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
    /// hook-footprint pcs and run footprint pcs (and `zwr`/`zctl`/`dbnz`)
    /// through the step core with the engine's hooks; retire-traced runs
    /// and engines whose footprint is every pc take the step core for the
    /// whole run (see the module docs).
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
        let limit = self.m.stats.retired + fuel;
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
                if self.m.hooks.at(idx) {
                    // A footprint pc: one step with the engine's hooks.
                    if self.m.step_instr::<false>(engine)? {
                        return Ok(self.m.stats);
                    }
                    continue;
                }
                self.sync_footprint(self.m.hooks.epoch());
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
                    match run_superblock(&mut self.m, sb, limit)? {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NullEngine;
    use crate::FunctionalCpu;
    use zolc_isa::{assemble, reg, Program};

    fn nest_session(p: &Program) -> NestCpu {
        NestCpu::session(&CompiledProgram::compile(p.clone()), CpuConfig::default()).unwrap()
    }

    fn run_nest(src: &str) -> (NestCpu, Stats) {
        let p = assemble(src).expect("assembles");
        let mut cpu = nest_session(&p);
        let stats = cpu.run(&mut NullEngine, 1_000_000).expect("runs");
        (cpu, stats)
    }

    fn assert_matches_functional(p: &Program, fuel: u64) {
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
        let (cpu, stats) = run_nest(
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
        let mut cpu = NestCpu::session(
            &CompiledProgram::compile(p),
            CpuConfig { trace_retire: true },
        )
        .unwrap();
        cpu.run(&mut NullEngine, 100).unwrap();
        let ords: Vec<u64> = cpu.retire_log().iter().map(|e| e.cycle).collect();
        assert_eq!(ords, vec![1, 2, 3]);
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
