//! The XR32 instruction table: one row per [`Instr`] variant, giving
//! its fields, mnemonic, operand [`Form`], [`Enc`]oding and [`Class`].
//!
//! Everything else follows from the row, written once per form: encode,
//! decode, the disassembly and the assembler's instruction parser go
//! through [`Instr::view`], which hands them the row and the [`Ops`] of
//! an instruction. The views that run on every executed instruction,
//! the register operands and the branch offset, are generated per
//! variant from the per-form rules of `operands!` and `branch_off!`:
//! each is one match whose arms read only the fields they use (through
//! `view`, every arm reads all its fields, and the pipeline's cycle loop
//! grew by half).
//!
//! Adding an instruction means one row here and a variant of [`Instr`],
//! plus its semantics in `zolc_sim::exec::step`, `zolc_sim::nest::lower`
//! and `zolc-oracle`.

use crate::instr::{Instr, ZolcCtl, ZolcRegion};
use crate::reg::Reg;

/// How an instruction's operands appear in its word and in assembler
/// syntax; one variant of [`Ops`] each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Form {
    R3,
    R3v,
    Shift,
    SImm,
    UImm,
    Lui,
    Mem,
    Br2,
    Br1,
    Jump,
    Jr,
    Zwr,
    Zctl,
    Bare,
}

/// The operands of one instruction, by [`Form`]. Each variant's fields
/// carry the names of the [`Instr`] fields they hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ops {
    /// `rd, rs, rt`: three-register ALU operations.
    R3 { rd: Reg, rs: Reg, rt: Reg },
    /// `rd, rt, rs`: variable shifts, the value before the amount.
    R3v { rd: Reg, rt: Reg, rs: Reg },
    /// `rd, rt, sh`: shifts by an immediate.
    Shift { rd: Reg, rt: Reg, sh: u8 },
    /// `rt, rs, imm` with a sign-extended immediate.
    SImm { rt: Reg, rs: Reg, imm: i16 },
    /// `rt, rs, imm` with a zero-extended immediate, listed in hex.
    UImm { rt: Reg, rs: Reg, imm: u16 },
    /// `rt, imm`: `lui`.
    Lui { rt: Reg, imm: u16 },
    /// `rt, off(rs)`: loads and stores.
    Mem { rt: Reg, rs: Reg, off: i16 },
    /// `rs, rt, off`: two-register branches.
    Br2 { rs: Reg, rt: Reg, off: i16 },
    /// `rs, off`: one-register branches.
    Br1 { rs: Reg, off: i16 },
    /// `target`: jumps to a word address.
    Jump { target: u32 },
    /// `rs`: `jr`.
    Jr { rs: Reg },
    /// `region[index].field, rs`: `zwr`.
    Zwr {
        region: ZolcRegion,
        index: u8,
        field: u8,
        rs: Reg,
    },
    /// `zctl.<op> [task]`.
    Zctl { op: ZolcCtl },
    /// No operands.
    Bare,
}

/// Where a row's selector sits in the word (see [`crate::encode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Enc {
    /// Opcode bits `[31:26]`.
    Op(u32),
    /// An R-type function code, bits `[5:0]`.
    Funct(u32),
    /// A REGIMM selector in the `rt` field.
    RegImm(u32),
    /// A ZOLC coprocessor function code, bits `[2:0]`.
    Zolc(u32),
    /// The all-zero word.
    Zero,
}

/// What a row does to registers and control flow beyond what its form
/// says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    /// None of the below.
    Plain,
    /// Loads into `rt`.
    Load,
    /// Stores `rt`.
    Store,
    /// A conditional branch.
    Branch,
    /// A conditional branch that writes back its decremented `rs`.
    DecBranch,
    /// A jump that writes the return address to `r31`.
    Link,
}

/// One instruction's row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row {
    pub op: Op,
    pub mnem: &'static str,
    pub form: Form,
    pub enc: Enc,
    pub class: Class,
}

/// The operand table of the register views, per form and class: the
/// encoded destination and the two source slots, `r0` filling an unused
/// slot (see [`Instr::dst_raw`]). A rule names the fields of its form in
/// row order, so a row whose fields or class fit no rule fails to
/// compile.
#[rustfmt::skip]
macro_rules! operands {
    (R3 $c:ident rd=$d:ident rs=$s:ident rt=$t:ident) => { (Some($d), [$s, $t]) };
    (R3v $c:ident rd=$d:ident rt=$t:ident rs=$s:ident) => { (Some($d), [$s, $t]) };
    (Shift $c:ident rd=$d:ident rt=$t:ident sh=$h:ident) => { (Some($d), [$t, Reg::ZERO]) };
    (SImm $c:ident rt=$t:ident rs=$s:ident imm=$i:ident) => { (Some($t), [$s, Reg::ZERO]) };
    (UImm $c:ident rt=$t:ident rs=$s:ident imm=$i:ident) => { (Some($t), [$s, Reg::ZERO]) };
    (Lui $c:ident rt=$t:ident imm=$i:ident) => { (Some($t), [Reg::ZERO; 2]) };
    (Mem Load rt=$t:ident rs=$s:ident off=$o:ident) => { (Some($t), [$s, Reg::ZERO]) };
    (Mem Store rt=$t:ident rs=$s:ident off=$o:ident) => { (None, [$s, $t]) };
    (Br2 $c:ident rs=$s:ident rt=$t:ident off=$o:ident) => { (None, [$s, $t]) };
    (Br1 Branch rs=$s:ident off=$o:ident) => { (None, [$s, Reg::ZERO]) };
    (Br1 DecBranch rs=$s:ident off=$o:ident) => { (Some($s), [$s, Reg::ZERO]) };
    (Jump Plain target=$g:ident) => { (None, [Reg::ZERO; 2]) };
    (Jump Link target=$g:ident) => { (Some(Reg::RA), [Reg::ZERO; 2]) };
    (Jr $c:ident rs=$s:ident) => { (None, [$s, Reg::ZERO]) };
    (Zwr $c:ident region=$g:ident index=$i:ident field=$f:ident rs=$s:ident) => { (None, [$s, Reg::ZERO]) };
    (Zctl $c:ident op=$o:ident) => { (None, [Reg::ZERO; 2]) };
    (Bare $c:ident) => { (None, [Reg::ZERO; 2]) };
}

/// The branch offset, per form.
#[rustfmt::skip]
macro_rules! branch_off {
    (Br2 rs=$s:ident rt=$t:ident off=$o:ident) => { Some($o) };
    (Br1 rs=$s:ident off=$o:ident) => { Some($o) };
    ($form:ident $($f:ident=$v:ident)*) => { None };
}

macro_rules! instr_table {
    ($($v:ident { $($f:ident),* } $mnem:literal $form:ident $enc:ident $(($code:literal))? $class:ident;)*) => {
        /// An [`Instr`] variant without its fields; indexes [`ROWS`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum Op {
            $($v),*
        }

        /// Every row, in [`Op`] order. A `const`, not a `static`: a
        /// row read at a constant index folds into the reader, in any
        /// crate.
        pub(crate) const ROWS: [Row; [$(Op::$v),*].len()] = [$(Row {
            op: Op::$v,
            mnem: $mnem,
            form: Form::$form,
            enc: Enc::$enc $(($code))?,
            class: Class::$class,
        }),*];

        impl Instr {
            /// Calls `f` with this instruction's row and operands: the
            /// match over the variants that encoding, disassembly, the
            /// class predicates and branch rebasing go through.
            #[inline(always)]
            pub(crate) fn view<T>(&self, f: impl FnOnce(Row, Ops) -> T) -> T {
                match *self {
                    $(Instr::$v { $($f),* } => f(ROWS[Op::$v as usize], Ops::$form { $($f),* }),)*
                }
            }

            /// The *encoded* destination register and the two source
            /// slots in operand order, `r0` filling an unused one — the
            /// operand table [`Instr::dst_raw`], [`Instr::dst`],
            /// [`Instr::srcs`] and [`Instr::def_use`] are views of.
            #[inline]
            #[allow(unused_variables)]
            pub(crate) fn operands(&self) -> (Option<Reg>, [Reg; 2]) {
                match *self {
                    $(Instr::$v { $($f),* } => operands!($form $class $($f=$f)*),)*
                }
            }

            /// The branch offset in words, if this is a PC-relative branch.
            #[inline]
            #[allow(unused_variables)]
            pub fn branch_off(&self) -> Option<i16> {
                match *self {
                    $(Instr::$v { $($f),* } => branch_off!($form $($f=$f)*),)*
                }
            }

            /// The instruction of row `op` with operands `ops`, which
            /// must be of the row's form.
            pub(crate) fn from_parts(op: Op, ops: Ops) -> Instr {
                match (op, ops) {
                    $((Op::$v, Ops::$form { $($f),* }) => Instr::$v { $($f),* },)*
                    _ => unreachable!("{ops:?} is not of the form of {op:?}"),
                }
            }
        }
    };
}

instr_table! {
    // variant and fields            mnemonic  form   encoding      class
    Add { rd, rs, rt }               "add"     R3     Funct(0x20)   Plain;
    Sub { rd, rs, rt }               "sub"     R3     Funct(0x22)   Plain;
    And { rd, rs, rt }               "and"     R3     Funct(0x24)   Plain;
    Or { rd, rs, rt }                "or"      R3     Funct(0x25)   Plain;
    Xor { rd, rs, rt }               "xor"     R3     Funct(0x26)   Plain;
    Nor { rd, rs, rt }               "nor"     R3     Funct(0x27)   Plain;
    Slt { rd, rs, rt }               "slt"     R3     Funct(0x2a)   Plain;
    Sltu { rd, rs, rt }              "sltu"    R3     Funct(0x2b)   Plain;
    Sllv { rd, rt, rs }              "sllv"    R3v    Funct(0x04)   Plain;
    Srlv { rd, rt, rs }              "srlv"    R3v    Funct(0x06)   Plain;
    Srav { rd, rt, rs }              "srav"    R3v    Funct(0x07)   Plain;
    Mul { rd, rs, rt }               "mul"     R3     Funct(0x18)   Plain;
    Mulh { rd, rs, rt }              "mulh"    R3     Funct(0x19)   Plain;
    Sll { rd, rt, sh }               "sll"     Shift  Funct(0x00)   Plain;
    Srl { rd, rt, sh }               "srl"     Shift  Funct(0x02)   Plain;
    Sra { rd, rt, sh }               "sra"     Shift  Funct(0x03)   Plain;
    Addi { rt, rs, imm }             "addi"    SImm   Op(0x08)      Plain;
    Slti { rt, rs, imm }             "slti"    SImm   Op(0x0a)      Plain;
    Sltiu { rt, rs, imm }            "sltiu"   SImm   Op(0x0b)      Plain;
    Andi { rt, rs, imm }             "andi"    UImm   Op(0x0c)      Plain;
    Ori { rt, rs, imm }              "ori"     UImm   Op(0x0d)      Plain;
    Xori { rt, rs, imm }             "xori"    UImm   Op(0x0e)      Plain;
    Lui { rt, imm }                  "lui"     Lui    Op(0x0f)      Plain;
    Lb { rt, rs, off }               "lb"      Mem    Op(0x20)      Load;
    Lbu { rt, rs, off }              "lbu"     Mem    Op(0x24)      Load;
    Lh { rt, rs, off }               "lh"      Mem    Op(0x21)      Load;
    Lhu { rt, rs, off }              "lhu"     Mem    Op(0x25)      Load;
    Lw { rt, rs, off }               "lw"      Mem    Op(0x23)      Load;
    Sb { rt, rs, off }               "sb"      Mem    Op(0x28)      Store;
    Sh { rt, rs, off }               "sh"      Mem    Op(0x29)      Store;
    Sw { rt, rs, off }               "sw"      Mem    Op(0x2b)      Store;
    Beq { rs, rt, off }              "beq"     Br2    Op(0x04)      Branch;
    Bne { rs, rt, off }              "bne"     Br2    Op(0x05)      Branch;
    Blez { rs, off }                 "blez"    Br1    Op(0x06)      Branch;
    Bgtz { rs, off }                 "bgtz"    Br1    Op(0x07)      Branch;
    Bltz { rs, off }                 "bltz"    Br1    RegImm(0)     Branch;
    Bgez { rs, off }                 "bgez"    Br1    RegImm(1)     Branch;
    J { target }                     "j"       Jump   Op(0x02)      Plain;
    Jal { target }                   "jal"     Jump   Op(0x03)      Link;
    Jr { rs }                        "jr"      Jr     Funct(0x08)   Plain;
    Dbnz { rs, off }                 "dbnz"    Br1    Op(0x1d)      DecBranch;
    Zwr { region, index, field, rs } "zwr"     Zwr    Zolc(1)       Plain;
    Zctl { op }                      "zctl"    Zctl   Zolc(0)       Plain;
    Nop {}                           "nop"     Bare   Zero          Plain;
    Halt {}                          "halt"    Bare   Op(0x3f)      Plain;
}
