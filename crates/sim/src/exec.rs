//! The instruction-semantics core shared by both executors.
//!
//! Splitting *what an instruction does* from *when the pipeline does it*
//! is what lets the crate offer two executors over one instruction set:
//!
//! * [`TextImage`] — the **predecode layer**: the text segment decoded
//!   once into a dense instruction array at program load, so no executor
//!   ever re-decodes on the fetch path;
//! * [`step`] — the pure semantics function: given an instruction, its
//!   address and an operand reader, it returns the architectural
//!   [`Effect`] without touching any machine state. The cycle-accurate
//!   pipeline calls it with its forwarding network as the reader; the
//!   functional executor calls it with the committed register file.
//! * [`LoadOp`] / [`StoreOp`] — width and extension semantics of the
//!   memory instructions, shared so both executors fault and extend
//!   identically.
//!
//! Anything timing-related — forwarding, interlocks, branch-resolution
//! stage, flush penalties — stays out of this module by construction.

use crate::mem::{MemError, Memory};
use zolc_isa::{Instr, Program, Reg, ZolcCtl, ZolcRegion, TEXT_BASE};

/// Why an instruction fetch failed (see [`TextImage::fetch`]).
///
/// The two causes are architecturally distinct faults: a misaligned pc
/// must never be silently truncated to the containing instruction, and
/// an aligned pc past the end of text is the classic run-off-the-end
/// fault. Executors map them to
/// [`RunError::MisalignedFetch`](crate::RunError::MisalignedFetch) and
/// [`RunError::PcOutOfText`](crate::RunError::PcOutOfText) respectively
/// when the fetch is (or becomes) architectural.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchError {
    /// The pc is not 4-byte aligned.
    Misaligned,
    /// The (aligned) pc lies outside the text segment.
    OutOfText,
}

/// The text segment, decoded once at load time (the predecode layer).
///
/// All executors fetch through this dense array instead of re-decoding
/// memory words; [`TextImage::fetch`] distinguishes misaligned from
/// out-of-text addresses ([`FetchError`]), which the caller turns into
/// the matching fetch fault.
#[derive(Debug, Clone, Default)]
pub struct TextImage {
    instrs: Vec<Instr>,
}

impl TextImage {
    /// Decodes `program`'s text segment.
    pub fn new(program: &Program) -> TextImage {
        TextImage {
            instrs: program.text().to_vec(),
        }
    }

    /// The instruction at byte address `pc`.
    ///
    /// # Errors
    ///
    /// * [`FetchError::Misaligned`] when `pc` is not 4-byte aligned — the
    ///   address is never truncated to the containing instruction;
    /// * [`FetchError::OutOfText`] when `pc` is outside the text segment.
    pub fn fetch(&self, pc: u32) -> Result<Instr, FetchError> {
        if !pc.is_multiple_of(4) {
            return Err(FetchError::Misaligned);
        }
        let idx = pc.wrapping_sub(TEXT_BASE) / 4;
        self.instrs
            .get(idx as usize)
            .copied()
            .ok_or(FetchError::OutOfText)
    }

    /// The instruction at byte address `pc`, or `None` when `pc` is
    /// misaligned or outside the text segment (use [`TextImage::fetch`]
    /// when the two causes must be told apart).
    pub fn get(&self, pc: u32) -> Option<Instr> {
        self.fetch(pc).ok()
    }

    /// Number of decoded instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether no program is loaded.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

/// Width and extension of a memory load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadOp {
    /// Sign-extending byte load (`lb`).
    Byte,
    /// Zero-extending byte load (`lbu`).
    ByteUnsigned,
    /// Sign-extending halfword load (`lh`).
    Half,
    /// Zero-extending halfword load (`lhu`).
    HalfUnsigned,
    /// Word load (`lw`).
    Word,
}

impl LoadOp {
    /// Performs the load, applying the width's extension rule.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] on misalignment or out-of-bounds access.
    pub fn read(self, mem: &Memory, addr: u32) -> Result<u32, MemError> {
        Ok(match self {
            LoadOp::Byte => mem.load_byte(addr)? as i8 as i32 as u32,
            LoadOp::ByteUnsigned => u32::from(mem.load_byte(addr)?),
            LoadOp::Half => mem.load_half(addr)? as i16 as i32 as u32,
            LoadOp::HalfUnsigned => u32::from(mem.load_half(addr)?),
            LoadOp::Word => mem.load_word(addr)?,
        })
    }
}

/// Width of a memory store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOp {
    /// Byte store (`sb`).
    Byte,
    /// Halfword store (`sh`).
    Half,
    /// Word store (`sw`).
    Word,
}

impl StoreOp {
    /// Performs the store, truncating `value` to the access width.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] on misalignment or out-of-bounds access.
    pub fn write(self, mem: &mut Memory, addr: u32, value: u32) -> Result<(), MemError> {
        match self {
            StoreOp::Byte => mem.store_byte(addr, value as u8),
            StoreOp::Half => mem.store_half(addr, value as u16),
            StoreOp::Word => mem.store_word(addr, value),
        }
    }
}

/// The architectural effect of one instruction, as computed by [`step`].
///
/// An `Effect` says *what* must happen — never *when*: the pipeline
/// spreads a [`Effect::Load`] over its EX and MEM stages while the
/// functional executor performs it immediately, but both derive it from
/// the same `step` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// No architectural effect (`nop`).
    Nop,
    /// A register write computed in the execute stage.
    Write {
        /// Destination register (writes to `r0` are discarded).
        dst: Reg,
        /// The value.
        value: u32,
    },
    /// A memory load into `dst`.
    Load {
        /// Destination register (a load to `r0` still accesses memory and
        /// can fault; only the write-back is discarded).
        dst: Reg,
        /// Effective byte address.
        addr: u32,
        /// Width/extension of the access.
        op: LoadOp,
    },
    /// A memory store.
    Store {
        /// Effective byte address.
        addr: u32,
        /// Value to store (truncated to the access width).
        value: u32,
        /// Width of the access.
        op: StoreOp,
    },
    /// A conditional branch, resolved.
    Branch {
        /// Whether the branch is taken.
        taken: bool,
        /// The branch target (valid whether or not taken).
        target: u32,
        /// The `dbnz` counter decrement riding on the branch, if any.
        decrement: Option<(Reg, u32)>,
    },
    /// An unconditional jump (`j`/`jal`/`jr`).
    Jump {
        /// The jump target.
        target: u32,
        /// The `jal` link write, if any.
        link: Option<(Reg, u32)>,
    },
    /// A ZOLC table write (`zwr`), operand already read.
    Zwr {
        /// Table region.
        region: ZolcRegion,
        /// Record index.
        index: u8,
        /// Field within the record.
        field: u8,
        /// The value written.
        value: u32,
    },
    /// A ZOLC control operation (`zctl`); context-synchronizing.
    Zctl {
        /// The control operation.
        op: ZolcCtl,
    },
    /// The `halt` instruction.
    Halt,
}

/// Computes the architectural effect of `instr` at address `pc`.
///
/// `read` supplies source-operand values: the pipeline passes its
/// forwarding network, the functional executor the committed register
/// file. The function itself is pure — it performs no reads beyond
/// `read`, no writes, and no memory accesses.
///
/// Always inlined: each caller then matches on the returned [`Effect`]
/// inside the arm that built it, so an instruction is decoded once.
#[inline(always)]
pub fn step(instr: Instr, pc: u32, read: impl Fn(Reg) -> u32) -> Effect {
    use Instr::*;
    match instr {
        Add { rd, rs, rt } => write(rd, read(rs).wrapping_add(read(rt))),
        Sub { rd, rs, rt } => write(rd, read(rs).wrapping_sub(read(rt))),
        And { rd, rs, rt } => write(rd, read(rs) & read(rt)),
        Or { rd, rs, rt } => write(rd, read(rs) | read(rt)),
        Xor { rd, rs, rt } => write(rd, read(rs) ^ read(rt)),
        Nor { rd, rs, rt } => write(rd, !(read(rs) | read(rt))),
        Slt { rd, rs, rt } => write(rd, ((read(rs) as i32) < (read(rt) as i32)) as u32),
        Sltu { rd, rs, rt } => write(rd, (read(rs) < read(rt)) as u32),
        Sllv { rd, rt, rs } => write(rd, read(rt) << (read(rs) & 31)),
        Srlv { rd, rt, rs } => write(rd, read(rt) >> (read(rs) & 31)),
        Srav { rd, rt, rs } => write(rd, ((read(rt) as i32) >> (read(rs) & 31)) as u32),
        Mul { rd, rs, rt } => write(rd, read(rs).wrapping_mul(read(rt))),
        Mulh { rd, rs, rt } => write(
            rd,
            ((i64::from(read(rs) as i32) * i64::from(read(rt) as i32)) >> 32) as u32,
        ),
        Sll { rd, rt, sh } => write(rd, read(rt) << sh),
        Srl { rd, rt, sh } => write(rd, read(rt) >> sh),
        Sra { rd, rt, sh } => write(rd, ((read(rt) as i32) >> sh) as u32),
        Addi { rt, rs, imm } => write(rt, read(rs).wrapping_add(imm as i32 as u32)),
        Slti { rt, rs, imm } => write(rt, ((read(rs) as i32) < i32::from(imm)) as u32),
        Sltiu { rt, rs, imm } => write(rt, (read(rs) < (imm as i32 as u32)) as u32),
        Andi { rt, rs, imm } => write(rt, read(rs) & u32::from(imm)),
        Ori { rt, rs, imm } => write(rt, read(rs) | u32::from(imm)),
        Xori { rt, rs, imm } => write(rt, read(rs) ^ u32::from(imm)),
        Lui { rt, imm } => write(rt, u32::from(imm) << 16),
        Lb { rt, rs, off } => load(rt, read(rs), off, LoadOp::Byte),
        Lbu { rt, rs, off } => load(rt, read(rs), off, LoadOp::ByteUnsigned),
        Lh { rt, rs, off } => load(rt, read(rs), off, LoadOp::Half),
        Lhu { rt, rs, off } => load(rt, read(rs), off, LoadOp::HalfUnsigned),
        Lw { rt, rs, off } => load(rt, read(rs), off, LoadOp::Word),
        Sb { rt, rs, off } => store(read(rs), off, read(rt), StoreOp::Byte),
        Sh { rt, rs, off } => store(read(rs), off, read(rt), StoreOp::Half),
        Sw { rt, rs, off } => store(read(rs), off, read(rt), StoreOp::Word),
        Beq { rs, rt, .. } | Bne { rs, rt, .. } => {
            let (a, b) = (read(rs), read(rt));
            let taken = match instr {
                Beq { .. } => a == b,
                _ => a != b,
            };
            branch(instr, pc, taken, None)
        }
        Blez { rs, .. } | Bgtz { rs, .. } | Bltz { rs, .. } | Bgez { rs, .. } => {
            let v = read(rs) as i32;
            let taken = match instr {
                Blez { .. } => v <= 0,
                Bgtz { .. } => v > 0,
                Bltz { .. } => v < 0,
                _ => v >= 0,
            };
            branch(instr, pc, taken, None)
        }
        Dbnz { rs, .. } => {
            let v = read(rs).wrapping_sub(1);
            branch(instr, pc, v != 0, Some((rs, v)))
        }
        J { target } => Effect::Jump {
            target: target << 2,
            link: None,
        },
        Jal { target } => Effect::Jump {
            target: target << 2,
            link: Some((Reg::RA, pc.wrapping_add(4))),
        },
        Jr { rs } => Effect::Jump {
            target: read(rs),
            link: None,
        },
        Zwr {
            region,
            index,
            field,
            rs,
        } => Effect::Zwr {
            region,
            index,
            field,
            value: read(rs),
        },
        Zctl { op } => Effect::Zctl { op },
        Nop => Effect::Nop,
        Halt => Effect::Halt,
    }
}

fn write(dst: Reg, value: u32) -> Effect {
    Effect::Write { dst, value }
}

fn load(dst: Reg, base: u32, off: i16, op: LoadOp) -> Effect {
    Effect::Load {
        dst,
        addr: base.wrapping_add(off as i32 as u32),
        op,
    }
}

fn store(base: u32, off: i16, value: u32, op: StoreOp) -> Effect {
    Effect::Store {
        addr: base.wrapping_add(off as i32 as u32),
        value,
        op,
    }
}

fn branch(instr: Instr, pc: u32, taken: bool, decrement: Option<(Reg, u32)>) -> Effect {
    Effect::Branch {
        taken,
        target: instr.branch_target(pc).expect("branch has target"),
        decrement,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zolc_isa::{assemble, reg};

    fn rf(vals: &[(u8, u32)]) -> impl Fn(Reg) -> u32 + '_ {
        move |r| {
            vals.iter()
                .find(|(k, _)| reg(*k) == r)
                .map_or(0, |(_, v)| *v)
        }
    }

    #[test]
    fn alu_semantics() {
        let e = step(
            Instr::Add {
                rd: reg(3),
                rs: reg(1),
                rt: reg(2),
            },
            0,
            rf(&[(1, 6), (2, 7)]),
        );
        assert_eq!(
            e,
            Effect::Write {
                dst: reg(3),
                value: 13
            }
        );
    }

    #[test]
    fn load_store_effective_address() {
        let e = step(
            Instr::Lw {
                rt: reg(2),
                rs: reg(1),
                off: -4,
            },
            0,
            rf(&[(1, 0x100)]),
        );
        assert_eq!(
            e,
            Effect::Load {
                dst: reg(2),
                addr: 0xfc,
                op: LoadOp::Word
            }
        );
        let e = step(
            Instr::Sb {
                rt: reg(2),
                rs: reg(1),
                off: 3,
            },
            0,
            rf(&[(1, 0x100), (2, 0xabcd)]),
        );
        assert_eq!(
            e,
            Effect::Store {
                addr: 0x103,
                value: 0xabcd,
                op: StoreOp::Byte
            }
        );
    }

    #[test]
    fn dbnz_decrements_and_branches_until_zero() {
        let i = Instr::Dbnz {
            rs: reg(1),
            off: -4,
        };
        match step(i, 0x10, rf(&[(1, 5)])) {
            Effect::Branch {
                taken,
                decrement: Some((r, v)),
                ..
            } => {
                assert!(taken);
                assert_eq!((r, v), (reg(1), 4));
            }
            other => panic!("unexpected {other:?}"),
        }
        match step(i, 0x10, rf(&[(1, 1)])) {
            Effect::Branch {
                taken, decrement, ..
            } => {
                assert!(!taken);
                assert_eq!(decrement, Some((reg(1), 0)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn jal_links_return_address() {
        let e = step(Instr::Jal { target: 0x10 }, 0x20, rf(&[]));
        assert_eq!(
            e,
            Effect::Jump {
                target: 0x40,
                link: Some((Reg::RA, 0x24))
            }
        );
    }

    #[test]
    fn step_is_pure_for_repeated_calls() {
        let i = Instr::Xor {
            rd: reg(4),
            rs: reg(1),
            rt: reg(2),
        };
        let r = rf(&[(1, 0xf0f0), (2, 0x0ff0)]);
        assert_eq!(step(i, 0, &r), step(i, 0, &r));
    }

    #[test]
    fn load_ops_share_extension_rules() {
        let mut m = Memory::new(64);
        m.store_word(0, 0xffff_fffe).unwrap();
        assert_eq!(LoadOp::Byte.read(&m, 0).unwrap(), 0xffff_fffe);
        assert_eq!(LoadOp::ByteUnsigned.read(&m, 0).unwrap(), 0xfe);
        assert_eq!(LoadOp::Half.read(&m, 0).unwrap(), 0xffff_fffe);
        assert_eq!(LoadOp::HalfUnsigned.read(&m, 0).unwrap(), 0xfffe);
        assert_eq!(LoadOp::Word.read(&m, 0).unwrap(), 0xffff_fffe);
        assert!(LoadOp::Word.read(&m, 2).is_err());
        StoreOp::Half.write(&mut m, 4, 0xdead_beef).unwrap();
        assert_eq!(LoadOp::HalfUnsigned.read(&m, 4).unwrap(), 0xbeef);
    }

    #[test]
    fn text_image_bounds_and_alignment() {
        let p = assemble("nop\nhalt").unwrap();
        let t = TextImage::new(&p);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.get(zolc_isa::TEXT_BASE), Some(Instr::Nop));
        assert_eq!(t.get(zolc_isa::TEXT_BASE + 4), Some(Instr::Halt));
        assert_eq!(t.get(zolc_isa::TEXT_BASE + 8), None);
        assert_eq!(t.get(zolc_isa::TEXT_BASE + 2), None);
        assert_eq!(t.get(zolc_isa::TEXT_BASE.wrapping_sub(4)), None);
    }

    #[test]
    fn fetch_distinguishes_misaligned_from_out_of_text() {
        let p = assemble("nop\nhalt").unwrap();
        let t = TextImage::new(&p);
        assert_eq!(t.fetch(zolc_isa::TEXT_BASE), Ok(Instr::Nop));
        // a misaligned pc inside the text segment is never truncated to
        // the containing instruction
        for off in [1, 2, 3, 5, 6, 7] {
            assert_eq!(
                t.fetch(zolc_isa::TEXT_BASE + off),
                Err(FetchError::Misaligned)
            );
        }
        assert_eq!(t.fetch(zolc_isa::TEXT_BASE + 8), Err(FetchError::OutOfText));
        assert_eq!(
            t.fetch(zolc_isa::TEXT_BASE.wrapping_sub(4)),
            Err(FetchError::OutOfText)
        );
    }
}
