//! The XR32 instruction set.
//!
//! XR32 is a MIPS-like 32-bit RISC ISA standing in for the XiRisc core used
//! by the paper. It carries the two extensions under study:
//!
//! * [`Instr::Dbnz`] — the *branch-decrement* instruction of the `XRhrdwil`
//!   configuration (decrement a register and branch while non-zero);
//! * the ZOLC coprocessor instructions [`Instr::Zwr`] / [`Instr::Zctl`]
//!   used by the controller's *initialization mode* (and for in-loop limit
//!   updates of data-dependent bounds).
//!
//! Branch offsets are in **instruction words** relative to the address of
//! the *next* instruction (`pc + 4`), as on MIPS. There are no delay slots.

use crate::reg::Reg;
use crate::table::{Class, Ops};
use std::fmt;

/// Destination table selector of a [`Instr::Zwr`] write.
///
/// The ZOLC storage is organized as small tables (paper Fig. 1: the loop
/// parameter tables and the LUT inside the task selection unit, plus the
/// entry/exit records of the *full* configuration and a few global control
/// registers). `Zwr` addresses one field of one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ZolcRegion {
    /// Loop parameter table; `index` = loop id, `field` = [`loop_field`] selector.
    Loop = 0,
    /// Task-switching LUT; `index` = task id, `field` = [`task_field`] selector.
    Task = 1,
    /// Multiple-entry records; `index` = `loop_id * 4 + slot`.
    Entry = 2,
    /// Multiple-exit records; `index` = `loop_id * 4 + slot`.
    Exit = 3,
    /// Global control registers; `index` unused, `field` = [`global_field`] selector.
    Global = 4,
}

impl ZolcRegion {
    /// Every region in encoding order, with its name in assembler syntax.
    pub(crate) const NAMES: [(ZolcRegion, &'static str); 5] = [
        (ZolcRegion::Loop, "loop"),
        (ZolcRegion::Task, "task"),
        (ZolcRegion::Entry, "entry"),
        (ZolcRegion::Exit, "exit"),
        (ZolcRegion::Global, "global"),
    ];

    /// Decodes a region from its 5-bit encoding field.
    pub fn from_field(bits: u32) -> Option<ZolcRegion> {
        Self::NAMES.get((bits & 0x1f) as usize).map(|&(r, _)| r)
    }

    /// The 5-bit encoding field.
    pub fn field(self) -> u32 {
        self as u32
    }
}

impl fmt::Display for ZolcRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(Self::NAMES[*self as usize].1)
    }
}

/// Field selectors for [`ZolcRegion::Loop`] records.
pub mod loop_field {
    /// Initial index value (written back to the index register on loop entry).
    pub const INIT: u8 = 0;
    /// Index step per iteration.
    pub const STEP: u8 = 1;
    /// Iteration limit: the loop body runs `limit` times.
    pub const LIMIT: u8 = 2;
    /// Current iteration count (normally managed by hardware).
    pub const COUNT: u8 = 3;
    /// GPR written by the index calculation unit (0 = none).
    pub const INDEX_REG: u8 = 4;
    /// Loop body start address (byte offset from the code base).
    pub const START: u8 = 5;
    /// Loop body end address (byte offset of the last body instruction).
    pub const END: u8 = 6;
    /// Per-loop flags (reserved).
    pub const FLAGS: u8 = 7;
}

/// Field selectors for [`ZolcRegion::Task`] records.
pub mod task_field {
    /// Address (byte offset) of the task's final instruction; reaching it
    /// raises the *task end* signal.
    pub const END: u8 = 0;
    /// The loop whose status this task's end consults.
    pub const LOOP_ID: u8 = 1;
    /// Successor task when the loop iterates (jump to loop start).
    pub const NEXT_ITER: u8 = 2;
    /// Successor task when the loop is finished (fall through to `end + 4`).
    pub const NEXT_FALLTHRU: u8 = 3;
    /// Valid bit + control flags.
    pub const CTL: u8 = 4;
}

/// Field selectors for [`ZolcRegion::Entry`] records (multiple-entry loops).
pub mod entry_field {
    /// Address at which control may enter the loop structure.
    pub const ADDR: u8 = 0;
    /// Task that becomes current on entry.
    pub const TASK: u8 = 1;
    /// Bitmask of loops whose counters are (re)initialized on entry.
    pub const INIT_MASK: u8 = 2;
    /// Optional redirect address (0 = none).
    pub const REDIRECT: u8 = 3;
    /// Valid bit.
    pub const VALID: u8 = 4;
}

/// Field selectors for [`ZolcRegion::Exit`] records (multiple-exit loops).
pub mod exit_field {
    /// Address of the conditional branch that realizes the early exit.
    pub const BRANCH: u8 = 0;
    /// Task that becomes current when the exit branch is taken.
    pub const TASK: u8 = 1;
    /// Bitmask of loops whose counters are cleared on exit.
    pub const CLEAR_MASK: u8 = 2;
    /// The branch target address (for cross-checking; the branch itself
    /// redirects the PC).
    pub const TARGET: u8 = 3;
    /// Valid bit.
    pub const VALID: u8 = 4;
}

/// Field selectors for [`ZolcRegion::Global`] registers.
pub mod global_field {
    /// Byte address the table offsets are relative to.
    pub const CODE_BASE: u8 = 0;
    /// Number of valid task entries.
    pub const TASK_COUNT: u8 = 1;
    /// Number of valid loop records.
    pub const LOOP_COUNT: u8 = 2;
}

/// Control operations of the [`Instr::Zctl`] instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZolcCtl {
    /// Enter *active* mode with the given initial task id.
    Activate {
        /// Task id that is current when the controller activates.
        task: u8,
    },
    /// Leave active mode (the controller becomes transparent).
    Deactivate,
    /// Clear all tables and counters and leave active mode.
    Reset,
}

impl ZolcCtl {
    /// The `zctl.` suffix naming each operation, in encoding order.
    pub(crate) const SUFFIXES: [&'static str; 3] = ["on", "off", "rst"];

    /// The operation encoded as `code`, activating task `task`.
    pub(crate) fn from_code(code: u32, task: u8) -> Option<ZolcCtl> {
        [
            ZolcCtl::Activate { task },
            ZolcCtl::Deactivate,
            ZolcCtl::Reset,
        ]
        .get(code as usize)
        .copied()
    }

    /// The operation's encoding: its code and the task it activates.
    pub(crate) fn code(self) -> (u32, u8) {
        match self {
            ZolcCtl::Activate { task } => (0, task),
            ZolcCtl::Deactivate => (1, 0),
            ZolcCtl::Reset => (2, 0),
        }
    }
}

impl fmt::Display for ZolcCtl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Instr::Zctl { op: *self }.fmt(f)
    }
}

/// One XR32 instruction in decoded form.
///
/// The simulator executes this enum directly; [`crate::encode`] converts it
/// to and from the 32-bit binary encoding.
///
/// # Examples
///
/// ```
/// use zolc_isa::{Instr, reg};
/// let i = Instr::Addi { rt: reg(1), rs: reg(0), imm: 42 };
/// assert_eq!(i.dst(), Some(reg(1)));
/// assert_eq!(i.to_string(), "addi  r1, r0, 42");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[allow(missing_docs)] // field meanings are given in each variant's doc comment
pub enum Instr {
    // ---- R-type ALU --------------------------------------------------
    /// `rd = rs + rt` (wrapping).
    Add { rd: Reg, rs: Reg, rt: Reg },
    /// `rd = rs - rt` (wrapping).
    Sub { rd: Reg, rs: Reg, rt: Reg },
    /// `rd = rs & rt`.
    And { rd: Reg, rs: Reg, rt: Reg },
    /// `rd = rs | rt`.
    Or { rd: Reg, rs: Reg, rt: Reg },
    /// `rd = rs ^ rt`.
    Xor { rd: Reg, rs: Reg, rt: Reg },
    /// `rd = !(rs | rt)`.
    Nor { rd: Reg, rs: Reg, rt: Reg },
    /// `rd = (rs as i32) < (rt as i32)`.
    Slt { rd: Reg, rs: Reg, rt: Reg },
    /// `rd = rs < rt` (unsigned).
    Sltu { rd: Reg, rs: Reg, rt: Reg },
    /// `rd = rt << (rs & 31)`.
    Sllv { rd: Reg, rt: Reg, rs: Reg },
    /// `rd = rt >> (rs & 31)` (logical).
    Srlv { rd: Reg, rt: Reg, rs: Reg },
    /// `rd = rt >> (rs & 31)` (arithmetic).
    Srav { rd: Reg, rt: Reg, rs: Reg },
    /// `rd = low32(rs * rt)` — single-cycle embedded multiplier.
    Mul { rd: Reg, rs: Reg, rt: Reg },
    /// `rd = high32(rs as i64 * rt as i64)`.
    Mulh { rd: Reg, rs: Reg, rt: Reg },

    // ---- shifts by immediate ----------------------------------------
    /// `rd = rt << sh`.
    Sll { rd: Reg, rt: Reg, sh: u8 },
    /// `rd = rt >> sh` (logical).
    Srl { rd: Reg, rt: Reg, sh: u8 },
    /// `rd = rt >> sh` (arithmetic).
    Sra { rd: Reg, rt: Reg, sh: u8 },

    // ---- I-type ALU ---------------------------------------------------
    /// `rt = rs + sext(imm)`.
    Addi { rt: Reg, rs: Reg, imm: i16 },
    /// `rt = (rs as i32) < sext(imm)`.
    Slti { rt: Reg, rs: Reg, imm: i16 },
    /// `rt = rs < sext(imm) as u32` (unsigned compare).
    Sltiu { rt: Reg, rs: Reg, imm: i16 },
    /// `rt = rs & zext(imm)`.
    Andi { rt: Reg, rs: Reg, imm: u16 },
    /// `rt = rs | zext(imm)`.
    Ori { rt: Reg, rs: Reg, imm: u16 },
    /// `rt = rs ^ zext(imm)`.
    Xori { rt: Reg, rs: Reg, imm: u16 },
    /// `rt = imm << 16`.
    Lui { rt: Reg, imm: u16 },

    // ---- memory -------------------------------------------------------
    /// `rt = sext(mem8[rs + off])`.
    Lb { rt: Reg, rs: Reg, off: i16 },
    /// `rt = zext(mem8[rs + off])`.
    Lbu { rt: Reg, rs: Reg, off: i16 },
    /// `rt = sext(mem16[rs + off])`.
    Lh { rt: Reg, rs: Reg, off: i16 },
    /// `rt = zext(mem16[rs + off])`.
    Lhu { rt: Reg, rs: Reg, off: i16 },
    /// `rt = mem32[rs + off]`.
    Lw { rt: Reg, rs: Reg, off: i16 },
    /// `mem8[rs + off] = rt`.
    Sb { rt: Reg, rs: Reg, off: i16 },
    /// `mem16[rs + off] = rt`.
    Sh { rt: Reg, rs: Reg, off: i16 },
    /// `mem32[rs + off] = rt`.
    Sw { rt: Reg, rs: Reg, off: i16 },

    // ---- branches -----------------------------------------------------
    /// Branch to `pc + 4 + off*4` if `rs == rt`.
    Beq { rs: Reg, rt: Reg, off: i16 },
    /// Branch if `rs != rt`.
    Bne { rs: Reg, rt: Reg, off: i16 },
    /// Branch if `rs <= 0` (signed).
    Blez { rs: Reg, off: i16 },
    /// Branch if `rs > 0` (signed).
    Bgtz { rs: Reg, off: i16 },
    /// Branch if `rs < 0` (signed).
    Bltz { rs: Reg, off: i16 },
    /// Branch if `rs >= 0` (signed).
    Bgez { rs: Reg, off: i16 },

    // ---- jumps ----------------------------------------------------------
    /// Unconditional jump to word address `target` (resolved in ID).
    J { target: u32 },
    /// Jump and link: `r31 = pc + 4`, jump to word address `target`.
    Jal { target: u32 },
    /// Jump to the address in `rs` (resolved in EX).
    Jr { rs: Reg },

    // ---- XRhrdwil extension --------------------------------------------
    /// Branch-decrement: `rs = rs - 1; if rs != 0 branch to pc + 4 + off*4`.
    ///
    /// This is the hardware-loop primitive of the paper's `XRhrdwil`
    /// baseline configuration: one instruction replaces the
    /// increment + compare + branch pattern (the taken-branch penalty
    /// remains).
    Dbnz { rs: Reg, off: i16 },

    // ---- ZOLC coprocessor ----------------------------------------------
    /// Write ZOLC table field: `zolc[region][index].field = rs`.
    ///
    /// Used by the initialization sequence (outside loop nests) and — for
    /// loops with data-dependent bounds — to update a loop limit from
    /// within an enclosing loop body.
    Zwr {
        /// Which table to write.
        region: ZolcRegion,
        /// Record index within the table.
        index: u8,
        /// Field selector (see [`loop_field`], [`task_field`], …).
        field: u8,
        /// Source register providing the value.
        rs: Reg,
    },
    /// ZOLC control operation (activate / deactivate / reset).
    Zctl {
        /// The control operation.
        op: ZolcCtl,
    },

    // ---- misc -----------------------------------------------------------
    /// No operation.
    #[default]
    Nop,
    /// Stop simulation.
    Halt,
}

impl Instr {
    /// The register written by this instruction, if any.
    ///
    /// `r0` destinations are reported as `None` (writes to `r0` are
    /// discarded). [`Instr::Dbnz`] writes back its decremented `rs`.
    #[inline]
    pub fn dst(&self) -> Option<Reg> {
        self.dst_raw().filter(|r| !r.is_zero())
    }

    /// The *encoded* destination register, including `r0`.
    ///
    /// Unlike [`Instr::dst`] this reports a destination even when the
    /// write is architecturally discarded — the form lint passes need
    /// to flag computations whose result silently vanishes.
    #[inline]
    pub fn dst_raw(&self) -> Option<Reg> {
        self.operands().0
    }

    /// The (up to two) registers read by this instruction, in operand
    /// order. Reads of `r0` never create hazards, so they are dropped
    /// here and the forwarding logic does not have to special-case them.
    #[inline]
    pub fn srcs(&self) -> [Option<Reg>; 2] {
        self.operands().1.map(|r| (!r.is_zero()).then_some(r))
    }

    /// The register this instruction writes ([`Instr::dst`]) and a mask
    /// of the registers it reads, bit `i` for `r<i>` (the
    /// [`Instr::srcs`]) — for passes that only need register sets. `r0`
    /// is in neither.
    #[inline]
    pub fn def_use(&self) -> (Option<Reg>, u32) {
        let (def, [a, b]) = self.operands();
        let uses = (1u32 << a.index() | 1 << b.index()) & !1;
        (def.filter(|r| !r.is_zero()), uses)
    }

    /// Whether this is a memory load.
    pub fn is_load(&self) -> bool {
        self.view(|row, _| row.class == Class::Load)
    }

    /// Whether this is a memory store.
    pub fn is_store(&self) -> bool {
        self.view(|row, _| row.class == Class::Store)
    }

    /// Whether this is a conditional branch (including [`Instr::Dbnz`]).
    #[inline]
    pub fn is_cond_branch(&self) -> bool {
        self.view(|row, _| matches!(row.class, Class::Branch | Class::DecBranch))
    }

    /// Whether this instruction can redirect the PC (branch or jump).
    #[inline]
    pub fn is_control_flow(&self) -> bool {
        self.is_cond_branch()
            || self.view(|_, ops| matches!(ops, Ops::Jump { .. } | Ops::Jr { .. }))
    }

    /// The byte address a PC-relative branch at `pc` targets.
    #[inline]
    pub fn branch_target(&self, pc: u32) -> Option<u32> {
        self.branch_off().map(|off| {
            pc.wrapping_add(4)
                .wrapping_add((i32::from(off) << 2) as u32)
        })
    }

    /// The byte address a control transfer at `pc` statically targets:
    /// the jump target of `j`/`jal`, the taken target of a conditional
    /// branch, and `None` for `jr` and every other instruction.
    #[inline]
    pub fn static_target(&self, pc: u32) -> Option<u32> {
        match *self {
            Instr::J { target } | Instr::Jal { target } => Some(target << 2),
            _ => self.branch_target(pc),
        }
    }

    /// Returns a copy with the branch offset replaced (used for fixups).
    ///
    /// Returns `None` if the instruction has no branch offset.
    pub fn with_branch_off(&self, off: i16) -> Option<Instr> {
        self.view(|row, ops| {
            let ops = match ops {
                Ops::Br2 { rs, rt, .. } => Ops::Br2 { rs, rt, off },
                Ops::Br1 { rs, .. } => Ops::Br1 { rs, off },
                _ => return None,
            };
            Some(Instr::from_parts(row.op, ops))
        })
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.view(|row, ops| {
            let mnem = row.mnem;
            match ops {
                Ops::R3 { rd, rs, rt } => write!(f, "{mnem:<5} {rd}, {rs}, {rt}"),
                Ops::R3v { rd, rt, rs } => write!(f, "{mnem:<5} {rd}, {rt}, {rs}"),
                Ops::Shift { rd, rt, sh } => write!(f, "{mnem:<5} {rd}, {rt}, {sh}"),
                Ops::SImm { rt, rs, imm } => write!(f, "{mnem:<5} {rt}, {rs}, {imm}"),
                Ops::UImm { rt, rs, imm } => write!(f, "{mnem:<5} {rt}, {rs}, {imm:#x}"),
                Ops::Lui { rt, imm } => write!(f, "{mnem:<5} {rt}, {imm:#x}"),
                Ops::Mem { rt, rs, off } => write!(f, "{mnem:<5} {rt}, {off}({rs})"),
                Ops::Br2 { rs, rt, off } => write!(f, "{mnem:<5} {rs}, {rt}, {off}"),
                Ops::Br1 { rs, off } => write!(f, "{mnem:<5} {rs}, {off}"),
                Ops::Jump { target } => write!(f, "{mnem:<5} {:#x}", target << 2),
                Ops::Jr { rs } => write!(f, "{mnem:<5} {rs}"),
                Ops::Zwr {
                    region,
                    index,
                    field,
                    rs,
                } => write!(f, "{mnem:<5} {region}[{index}].{field}, {rs}"),
                Ops::Zctl { op } => {
                    let (code, task) = op.code();
                    write!(f, "{mnem}.{}", ZolcCtl::SUFFIXES[code as usize])?;
                    match op {
                        ZolcCtl::Activate { .. } => write!(f, " {task}"),
                        _ => Ok(()),
                    }
                }
                Ops::Bare => f.write_str(mnem),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::reg;

    #[test]
    fn dst_filters_zero_register() {
        let i = Instr::Add {
            rd: Reg::ZERO,
            rs: reg(1),
            rt: reg(2),
        };
        assert_eq!(i.dst(), None);
        let i = Instr::Add {
            rd: reg(3),
            rs: reg(1),
            rt: reg(2),
        };
        assert_eq!(i.dst(), Some(reg(3)));
    }

    #[test]
    fn srcs_filter_zero_register() {
        let i = Instr::Beq {
            rs: Reg::ZERO,
            rt: reg(2),
            off: -1,
        };
        assert_eq!(i.srcs(), [None, Some(reg(2))]);
    }

    #[test]
    fn def_use_matches_dst_and_srcs() {
        let i = Instr::Sllv {
            rd: reg(3),
            rt: reg(0),
            rs: reg(5),
        };
        assert_eq!(i.def_use(), (Some(reg(3)), 1 << 5));
        let i = Instr::Sw {
            rt: reg(2),
            rs: reg(2),
            off: 0,
        };
        assert_eq!(i.def_use(), (None, 1 << 2));
        let i = Instr::Dbnz { rs: reg(7), off: 1 };
        assert_eq!(i.def_use(), (Some(reg(7)), 1 << 7));
    }

    #[test]
    fn dbnz_reads_and_writes_rs() {
        let i = Instr::Dbnz {
            rs: reg(7),
            off: -4,
        };
        assert_eq!(i.dst(), Some(reg(7)));
        assert_eq!(i.srcs(), [Some(reg(7)), None]);
        assert!(i.is_cond_branch());
    }

    #[test]
    fn jal_writes_ra() {
        let i = Instr::Jal { target: 0x100 };
        assert_eq!(i.dst(), Some(Reg::RA));
    }

    #[test]
    fn branch_target_computation() {
        let b = Instr::Bne {
            rs: reg(1),
            rt: reg(0),
            off: -3,
        };
        // pc + 4 - 12 = pc - 8
        assert_eq!(b.branch_target(0x20), Some(0x18));
        let fwd = b.with_branch_off(2).unwrap();
        assert_eq!(fwd.branch_target(0x20), Some(0x2c));
        assert_eq!(fwd.static_target(0x20), Some(0x2c));
        assert_eq!(Instr::Jal { target: 0x40 }.static_target(0x20), Some(0x100));
        assert_eq!(Instr::Jr { rs: Reg::RA }.static_target(0x20), None);
    }

    #[test]
    fn load_store_classification() {
        assert!(Instr::Lw {
            rt: reg(1),
            rs: reg(2),
            off: 0
        }
        .is_load());
        assert!(Instr::Sb {
            rt: reg(1),
            rs: reg(2),
            off: 0
        }
        .is_store());
        assert!(!Instr::Nop.is_load());
    }

    #[test]
    fn control_flow_classification() {
        assert!(Instr::J { target: 0 }.is_control_flow());
        assert!(Instr::Jr { rs: reg(31) }.is_control_flow());
        assert!(!Instr::Halt.is_control_flow());
        assert!(!Instr::J { target: 0 }.is_cond_branch());
    }

    #[test]
    fn zolc_region_roundtrip() {
        for r in [
            ZolcRegion::Loop,
            ZolcRegion::Task,
            ZolcRegion::Entry,
            ZolcRegion::Exit,
            ZolcRegion::Global,
        ] {
            assert_eq!(ZolcRegion::from_field(r.field()), Some(r));
        }
        assert_eq!(ZolcRegion::from_field(9), None);
    }

    #[test]
    fn display_is_never_empty() {
        for i in [
            Instr::Nop,
            Instr::Halt,
            Instr::Zctl {
                op: ZolcCtl::Activate { task: 3 },
            },
            Instr::Zwr {
                region: ZolcRegion::Loop,
                index: 2,
                field: loop_field::LIMIT,
                rs: reg(9),
            },
        ] {
            assert!(!i.to_string().is_empty());
        }
    }
}
