//! # zolc-isa — the XR32 instruction set
//!
//! XR32 is a MIPS-like 32-bit embedded RISC ISA standing in for the XiRisc
//! soft core used in *"Hardware support for arbitrarily complex loop
//! structures in embedded applications"* (Kavvadias & Nikolaidis,
//! DATE 2005). It includes the two loop-control extensions the paper
//! compares:
//!
//! * [`Instr::Dbnz`] — the branch-decrement instruction of the `XRhrdwil`
//!   baseline;
//! * the ZOLC coprocessor instructions ([`Instr::Zwr`], [`Instr::Zctl`])
//!   that implement the controller's initialization mode.
//!
//! The crate provides:
//!
//! * decoded instructions ([`Instr`], [`Reg`]) with register-usage helpers
//!   for hazard analysis;
//! * binary [`encode`]/[`decode`];
//! * the [`Asm`] builder (labels, fixups, data segments) producing linked
//!   [`Program`] images;
//! * a text assembler ([`assemble`]) for examples and tests.
//!
//! Each instruction is one row of an instruction table (variant,
//! mnemonic, operand form, encoding, class); all of the above is written
//! once per operand form. Adding an instruction means one row and an
//! [`Instr`] variant, plus its semantics in `zolc_sim::exec::step`,
//! `zolc_sim::nest::lower` and `zolc-oracle`.
//!
//! # Examples
//!
//! Building a count-down loop with the builder:
//!
//! ```
//! use zolc_isa::{Asm, Instr, Reg, reg};
//!
//! let mut a = Asm::new();
//! a.li(reg(1), 10);
//! let top = a.label_here();
//! a.emit(Instr::Addi { rt: reg(1), rs: reg(1), imm: -1 });
//! a.branch(Instr::Bne { rs: reg(1), rt: Reg::ZERO, off: 0 }, top);
//! a.emit(Instr::Halt);
//! let program = a.finish()?;
//! assert_eq!(program.text().len(), 4);
//! # Ok::<(), zolc_isa::AsmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod encode;
mod instr;
mod parse;
mod program;
mod reg;
mod table;

pub use encode::{decode, encode, DecodeError};
pub use instr::{
    entry_field, exit_field, global_field, loop_field, task_field, Instr, ZolcCtl, ZolcRegion,
};
pub use parse::{assemble, ParseAsmError};
pub use program::{Asm, AsmError, Label, Program, DATA_BASE, DATA_SIZE, INSTR_BYTES, TEXT_BASE};
pub use reg::{reg, ParseRegError, Reg};
