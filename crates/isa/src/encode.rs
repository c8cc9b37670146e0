//! Binary encoding and decoding of XR32 instructions.
//!
//! XR32 uses fixed 32-bit instruction words with MIPS-like formats:
//!
//! ```text
//! R-type:  [31:26]=RTYPE  [25:21]=rs [20:16]=rt [15:11]=rd [10:6]=sh [5:0]=funct
//! I-type:  [31:26]=op     [25:21]=rs [20:16]=rt [15:0]=imm
//! REGIMM:  [31:26]=REGIMM [25:21]=rs [20:16]=selector [15:0]=off
//! J-type:  [31:26]=op     [25:0]=target (word address)
//! zwr:     [31:26]=ZOLC   [25:21]=rs [20:16]=region [15:8]=index [7:3]=field [2:0]=funct
//! zctl:    [31:26]=ZOLC   [25:21]=operation [12:5]=task [2:0]=funct
//! ```
//!
//! Each instruction's row in the instruction table gives its opcode or
//! selector and its operand form; encoding and decoding are written once
//! per form. The all-zero word is the canonical `nop` (as on MIPS, where
//! it aliases `sll r0, r0, 0`); decoding maps it to [`Instr::Nop`].

use crate::instr::{Instr, ZolcCtl, ZolcRegion};
use crate::reg::Reg;
use crate::table::{Enc, Form, Ops, ROWS};
use std::fmt;

/// The opcode of R-type instructions, selected by [`Enc::Funct`].
const RTYPE: u32 = 0x00;
/// The opcode of the `rt`-selected branches, [`Enc::RegImm`].
const REGIMM: u32 = 0x01;
/// The opcode of the ZOLC coprocessor instructions, [`Enc::Zolc`].
const ZOLC: u32 = 0x1c;

/// The error returned when a 32-bit word is not a valid XR32 instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    word: u32,
}

impl DecodeError {
    /// The word that failed to decode.
    pub fn word(&self) -> u32 {
        self.word
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid instruction word {:#010x}", self.word)
    }
}

impl std::error::Error for DecodeError {}

/// Encodes an instruction to its 32-bit binary form.
///
/// # Examples
///
/// ```
/// use zolc_isa::{encode, decode, Instr, reg};
/// let i = Instr::Addi { rt: reg(1), rs: reg(2), imm: -5 };
/// assert_eq!(decode(encode(&i)).unwrap(), i);
/// ```
pub fn encode(instr: &Instr) -> u32 {
    instr.view(|row, ops| {
        let selector = match row.enc {
            Enc::Op(op) => op << 26,
            Enc::Funct(funct) => RTYPE << 26 | funct,
            Enc::RegImm(rt) => REGIMM << 26 | rt << 16,
            Enc::Zolc(funct) => ZOLC << 26 | funct,
            Enc::Zero => 0,
        };
        let (rs, rt, low) = match ops {
            Ops::R3 { rd, rs, rt } | Ops::R3v { rd, rt, rs } => (rs, rt, rd.field() << 11),
            Ops::Shift { rd, rt, sh } => (
                Reg::ZERO,
                rt,
                rd.field() << 11 | (u32::from(sh) & 0x1f) << 6,
            ),
            Ops::SImm { rt, rs, imm } => (rs, rt, u32::from(imm as u16)),
            Ops::UImm { rt, rs, imm } => (rs, rt, u32::from(imm)),
            Ops::Lui { rt, imm } => (Reg::ZERO, rt, u32::from(imm)),
            Ops::Mem { rt, rs, off } | Ops::Br2 { rs, rt, off } => (rs, rt, u32::from(off as u16)),
            Ops::Br1 { rs, off } => (rs, Reg::ZERO, u32::from(off as u16)),
            Ops::Jump { target } => (Reg::ZERO, Reg::ZERO, target & 0x03ff_ffff),
            Ops::Jr { rs } => (rs, Reg::ZERO, 0),
            Ops::Zwr {
                region,
                index,
                field,
                rs,
            } => {
                let low =
                    region.field() << 16 | u32::from(index) << 8 | (u32::from(field) & 0x1f) << 3;
                (rs, Reg::ZERO, low)
            }
            Ops::Zctl { op } => {
                let (code, task) = op.code();
                (Reg::from_field(code), Reg::ZERO, u32::from(task) << 5)
            }
            Ops::Bare => (Reg::ZERO, Reg::ZERO, 0),
        };
        selector | rs.field() << 21 | rt.field() << 16 | low
    })
}

/// Decodes a 32-bit word into an instruction.
///
/// # Errors
///
/// Returns [`DecodeError`] if the opcode or function field does not name a
/// valid XR32 instruction.
pub fn decode(word: u32) -> Result<Instr, DecodeError> {
    let err = DecodeError { word };
    let rs = Reg::from_field(word >> 21);
    let rt = Reg::from_field(word >> 16);
    let rd = Reg::from_field(word >> 11);
    let imm = word as u16;
    let off = imm as i16;
    let enc = match word >> 26 {
        _ if word == 0 => Enc::Zero,
        RTYPE => Enc::Funct(word & 0x3f),
        REGIMM => Enc::RegImm(rt.field()),
        ZOLC => Enc::Zolc(word & 0x7),
        op => Enc::Op(op),
    };
    let row = ROWS.iter().find(|row| row.enc == enc).ok_or(err)?;
    let ops = match row.form {
        Form::R3 => Ops::R3 { rd, rs, rt },
        Form::R3v => Ops::R3v { rd, rt, rs },
        Form::Shift => Ops::Shift {
            rd,
            rt,
            sh: ((word >> 6) & 0x1f) as u8,
        },
        Form::SImm => Ops::SImm { rt, rs, imm: off },
        Form::UImm => Ops::UImm { rt, rs, imm },
        Form::Lui => Ops::Lui { rt, imm },
        Form::Mem => Ops::Mem { rt, rs, off },
        Form::Br2 => Ops::Br2 { rs, rt, off },
        Form::Br1 => Ops::Br1 { rs, off },
        Form::Jump => Ops::Jump {
            target: word & 0x03ff_ffff,
        },
        Form::Jr => Ops::Jr { rs },
        Form::Zwr => Ops::Zwr {
            region: ZolcRegion::from_field(word >> 16).ok_or(err)?,
            index: (word >> 8) as u8,
            field: ((word >> 3) & 0x1f) as u8,
            rs,
        },
        Form::Zctl => Ops::Zctl {
            op: ZolcCtl::from_code(rs.field(), (word >> 5) as u8).ok_or(err)?,
        },
        Form::Bare => Ops::Bare,
    };
    Ok(Instr::from_parts(row.op, ops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::reg;
    use crate::{loop_field, ZolcCtl, ZolcRegion};

    fn sample_instrs() -> Vec<Instr> {
        use Instr::*;
        vec![
            Add {
                rd: reg(1),
                rs: reg(2),
                rt: reg(3),
            },
            Sub {
                rd: reg(4),
                rs: reg(5),
                rt: reg(6),
            },
            And {
                rd: reg(7),
                rs: reg(8),
                rt: reg(9),
            },
            Or {
                rd: reg(10),
                rs: reg(11),
                rt: reg(12),
            },
            Xor {
                rd: reg(13),
                rs: reg(14),
                rt: reg(15),
            },
            Nor {
                rd: reg(16),
                rs: reg(17),
                rt: reg(18),
            },
            Slt {
                rd: reg(19),
                rs: reg(20),
                rt: reg(21),
            },
            Sltu {
                rd: reg(22),
                rs: reg(23),
                rt: reg(24),
            },
            Sllv {
                rd: reg(25),
                rt: reg(26),
                rs: reg(27),
            },
            Srlv {
                rd: reg(28),
                rt: reg(29),
                rs: reg(30),
            },
            Srav {
                rd: reg(31),
                rt: reg(1),
                rs: reg(2),
            },
            Mul {
                rd: reg(3),
                rs: reg(4),
                rt: reg(5),
            },
            Mulh {
                rd: reg(6),
                rs: reg(7),
                rt: reg(8),
            },
            Sll {
                rd: reg(9),
                rt: reg(10),
                sh: 31,
            },
            Srl {
                rd: reg(11),
                rt: reg(12),
                sh: 1,
            },
            Sra {
                rd: reg(13),
                rt: reg(14),
                sh: 16,
            },
            Addi {
                rt: reg(1),
                rs: reg(2),
                imm: -32768,
            },
            Slti {
                rt: reg(3),
                rs: reg(4),
                imm: 32767,
            },
            Sltiu {
                rt: reg(5),
                rs: reg(6),
                imm: -1,
            },
            Andi {
                rt: reg(7),
                rs: reg(8),
                imm: 0xffff,
            },
            Ori {
                rt: reg(9),
                rs: reg(10),
                imm: 0x1234,
            },
            Xori {
                rt: reg(11),
                rs: reg(12),
                imm: 0x00ff,
            },
            Lui {
                rt: reg(13),
                imm: 0xdead,
            },
            Lb {
                rt: reg(1),
                rs: reg(2),
                off: -4,
            },
            Lbu {
                rt: reg(3),
                rs: reg(4),
                off: 4,
            },
            Lh {
                rt: reg(5),
                rs: reg(6),
                off: -2,
            },
            Lhu {
                rt: reg(7),
                rs: reg(8),
                off: 2,
            },
            Lw {
                rt: reg(9),
                rs: reg(10),
                off: 0,
            },
            Sb {
                rt: reg(11),
                rs: reg(12),
                off: 1,
            },
            Sh {
                rt: reg(13),
                rs: reg(14),
                off: -6,
            },
            Sw {
                rt: reg(15),
                rs: reg(16),
                off: 8,
            },
            Beq {
                rs: reg(1),
                rt: reg(2),
                off: -1,
            },
            Bne {
                rs: reg(3),
                rt: reg(4),
                off: 100,
            },
            Blez {
                rs: reg(5),
                off: -100,
            },
            Bgtz { rs: reg(6), off: 7 },
            Bltz {
                rs: reg(7),
                off: -7,
            },
            Bgez { rs: reg(8), off: 9 },
            J { target: 0x3ff_ffff },
            Jal { target: 1 },
            Jr { rs: reg(31) },
            Dbnz {
                rs: reg(9),
                off: -12,
            },
            Zwr {
                region: ZolcRegion::Loop,
                index: 7,
                field: loop_field::LIMIT,
                rs: reg(4),
            },
            Zwr {
                region: ZolcRegion::Task,
                index: 31,
                field: 4,
                rs: reg(5),
            },
            Zctl {
                op: ZolcCtl::Activate { task: 12 },
            },
            Zctl {
                op: ZolcCtl::Deactivate,
            },
            Zctl { op: ZolcCtl::Reset },
            Nop,
            Halt,
        ]
    }

    #[test]
    fn roundtrip_all_sample_instrs() {
        for i in sample_instrs() {
            let w = encode(&i);
            let back = decode(w).unwrap_or_else(|e| panic!("{i}: {e}"));
            assert_eq!(back, i, "word {w:#010x}");
        }
    }

    #[test]
    fn zero_word_is_nop() {
        assert_eq!(decode(0).unwrap(), Instr::Nop);
        assert_eq!(encode(&Instr::Nop), 0);
    }

    #[test]
    fn invalid_opcode_rejected() {
        // opcode 0x3e is unused
        let e = decode(0x3e << 26).unwrap_err();
        assert_eq!(e.word(), 0x3e << 26);
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn invalid_funct_rejected() {
        // R-type with funct 0x3f is unused
        assert!(decode(0x0000_003f).is_err());
    }

    #[test]
    fn invalid_zolc_funct_rejected() {
        // ZOLC with funct 7 is unused
        assert!(decode((0x1c << 26) | 7).is_err());
        // ZOLC zwr with region 9 is unused
        assert!(decode((0x1c << 26) | (9 << 16) | 1).is_err());
        // zctl with op 5 is unused
        assert!(decode((0x1c << 26) | (5 << 21)).is_err());
    }

    #[test]
    fn distinct_instrs_have_distinct_encodings() {
        let ws: Vec<u32> = sample_instrs().iter().map(encode).collect();
        for (i, a) in ws.iter().enumerate() {
            for (j, b) in ws.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "{:?} vs {:?}", sample_instrs()[i], sample_instrs()[j]);
                }
            }
        }
    }
}
