//! Program images and the [`Asm`] instruction builder.
//!
//! A [`Program`] is what the simulator loads: a text segment of decoded
//! instructions based at [`TEXT_BASE`], a data segment based at
//! [`DATA_BASE`], and a symbol table. Code generators (the `zolc-ir`
//! lowerings, tests, examples) produce programs through the [`Asm`]
//! builder, which provides labels with back-patching, data allocation and
//! the usual `li`/`la` pseudo-instruction expansions.

use crate::encode::encode;
use crate::instr::Instr;
use crate::reg::Reg;
use std::collections::BTreeMap;
use std::fmt;

/// Byte address at which the text segment is loaded.
pub const TEXT_BASE: u32 = 0x0000_0000;
/// Byte address at which the data segment is loaded.
pub const DATA_BASE: u32 = 0x0004_0000;
/// Bytes of data memory above [`DATA_BASE`]: the most a data segment
/// may hold (the assembler rejects a larger one), and the memory every
/// simulator session provides for it.
pub const DATA_SIZE: u32 = 1 << 20;
/// Size of one encoded instruction in bytes (XR32 is fixed-width).
pub const INSTR_BYTES: u32 = 4;

/// A label handle created by [`Asm::new_label`].
///
/// Labels are cheap copyable handles; they must be bound with
/// [`Asm::bind`] before [`Asm::finish`] if any instruction references them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Errors produced while building or finalizing a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A referenced label was never bound to an address.
    UnboundLabel {
        /// The unbound label.
        label: Label,
    },
    /// A branch target is out of the 16-bit word-offset range.
    BranchOutOfRange {
        /// Address of the branch instruction.
        at: u32,
        /// Address of the target.
        target: u32,
    },
    /// A label was bound twice.
    DoublyBound {
        /// The label in question.
        label: Label,
    },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnboundLabel { label } => {
                write!(f, "label {label:?} referenced but never bound")
            }
            AsmError::BranchOutOfRange { at, target } => {
                write!(
                    f,
                    "branch at {at:#x} to {target:#x} exceeds 16-bit offset range"
                )
            }
            AsmError::DoublyBound { label } => write!(f, "label {label:?} bound twice"),
        }
    }
}

impl std::error::Error for AsmError {}

/// A fully linked XR32 program image.
///
/// # Examples
///
/// ```
/// use zolc_isa::{Asm, Instr, reg};
/// let mut a = Asm::new();
/// a.li(reg(1), 3);
/// a.emit(Instr::Halt);
/// let p = a.finish()?;
/// assert_eq!(p.text().len(), 2);
/// # Ok::<(), zolc_isa::AsmError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    text: Vec<Instr>,
    data: Vec<u8>,
    symbols: BTreeMap<String, u32>,
}

impl Program {
    /// Assembles a program directly from a decoded text segment and a
    /// data image, with no symbol table — the constructor for programs
    /// that arrive as binaries (e.g. decoded off a wire or read back
    /// from an encoded image) rather than through [`Asm`].
    pub fn from_parts(text: Vec<Instr>, data: Vec<u8>) -> Program {
        Program {
            text,
            data,
            symbols: BTreeMap::new(),
        }
    }

    /// The instructions of the text segment, in address order.
    pub fn text(&self) -> &[Instr] {
        &self.text
    }

    /// The initial contents of the data segment (loaded at [`DATA_BASE`]).
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Named addresses recorded during assembly.
    pub fn symbols(&self) -> &BTreeMap<String, u32> {
        &self.symbols
    }

    /// Looks up a symbol's byte address.
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }

    /// The instruction at byte address `pc`, if it is inside the text segment.
    pub fn instr_at(&self, pc: u32) -> Option<&Instr> {
        if !pc.is_multiple_of(4) {
            return None;
        }
        self.text.get(((pc.wrapping_sub(TEXT_BASE)) / 4) as usize)
    }

    /// The byte address one past the last text instruction.
    pub fn text_end(&self) -> u32 {
        TEXT_BASE + 4 * self.text.len() as u32
    }

    /// The text segment encoded to binary, little-endian words.
    pub fn text_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.text.len() * 4);
        for i in &self.text {
            out.extend_from_slice(&encode(i).to_le_bytes());
        }
        out
    }

    /// A human-readable disassembly listing of the text segment.
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (k, i) in self.text.iter().enumerate() {
            let pc = TEXT_BASE + 4 * k as u32;
            let _ = writeln!(out, "{pc:#06x}:  {i}");
        }
        out
    }
}

#[derive(Debug, Clone, Copy)]
enum Fixup {
    /// Patch the 16-bit branch offset of the instruction at `text[idx]`.
    Branch(usize, Label),
    /// Patch the 26-bit jump target of the instruction at `text[idx]`.
    Jump(usize, Label),
    /// Patch a `lui`+`ori` pair at `text[idx]`/`text[idx+1]` with a label
    /// address.
    La(usize, Label),
}

/// Incremental program builder with labels and data allocation.
///
/// `Asm` is a non-consuming builder: methods take `&mut self` and
/// [`Asm::finish`] consumes the builder to produce the linked [`Program`].
#[derive(Debug, Default)]
pub struct Asm {
    text: Vec<Instr>,
    data: Vec<u8>,
    labels: Vec<Option<u32>>,
    fixups: Vec<Fixup>,
    symbols: BTreeMap<String, u32>,
}

impl Asm {
    /// Creates an empty builder.
    pub fn new() -> Asm {
        Asm::default()
    }

    /// Creates an empty builder with room for `instrs` instructions and
    /// `labels` labels (and as many label references).
    pub fn with_capacity(instrs: usize, labels: usize) -> Asm {
        Asm {
            text: Vec::with_capacity(instrs),
            labels: Vec::with_capacity(labels),
            fixups: Vec::with_capacity(labels),
            ..Asm::default()
        }
    }

    /// The byte address the next emitted instruction will occupy.
    pub fn here(&self) -> u32 {
        TEXT_BASE + 4 * self.text.len() as u32
    }

    /// Emits one instruction; returns its byte address.
    pub fn emit(&mut self, i: Instr) -> u32 {
        let pc = self.here();
        self.text.push(i);
        pc
    }

    /// Emits a sequence of instructions; returns the address of the first.
    pub fn emit_all<I: IntoIterator<Item = Instr>>(&mut self, instrs: I) -> u32 {
        let pc = self.here();
        self.text.extend(instrs);
        pc
    }

    /// Creates a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::DoublyBound`] if the label is already bound.
    pub fn bind(&mut self, label: Label) -> Result<(), AsmError> {
        let here = self.here();
        let slot = &mut self.labels[label.0];
        if slot.is_some() {
            return Err(AsmError::DoublyBound { label });
        }
        *slot = Some(here);
        Ok(())
    }

    /// Creates a label already bound to the current position.
    pub fn label_here(&mut self) -> Label {
        self.labels.push(Some(self.here()));
        Label(self.labels.len() - 1)
    }

    /// The bound address of a label, if it has been bound.
    pub fn label_addr(&self, label: Label) -> Option<u32> {
        self.labels[label.0]
    }

    /// Emits a PC-relative branch whose offset is patched to reach `target`.
    ///
    /// `i` must be a conditional branch (its offset field is ignored and
    /// replaced at [`Asm::finish`] time).
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a PC-relative branch.
    pub fn branch(&mut self, i: Instr, target: Label) -> u32 {
        assert!(
            i.branch_off().is_some(),
            "Asm::branch requires a PC-relative branch, got `{i}`"
        );
        let idx = self.text.len();
        let pc = self.emit(i);
        self.fixups.push(Fixup::Branch(idx, target));
        pc
    }

    /// Emits an unconditional jump (`j`) to a label.
    pub fn jump(&mut self, target: Label) -> u32 {
        let idx = self.text.len();
        let pc = self.emit(Instr::J { target: 0 });
        self.fixups.push(Fixup::Jump(idx, target));
        pc
    }

    /// Emits a jump-and-link (`jal`) to a label.
    pub fn call(&mut self, target: Label) -> u32 {
        let idx = self.text.len();
        let pc = self.emit(Instr::Jal { target: 0 });
        self.fixups.push(Fixup::Jump(idx, target));
        pc
    }

    /// Loads a 32-bit constant into `rd` (1 or 2 instructions).
    pub fn li(&mut self, rd: Reg, value: i32) -> u32 {
        let pc = self.here();
        if (-32768..=32767).contains(&value) {
            self.emit(Instr::Addi {
                rt: rd,
                rs: Reg::ZERO,
                imm: value as i16,
            });
        } else {
            let v = value as u32;
            self.emit(Instr::Lui {
                rt: rd,
                imm: (v >> 16) as u16,
            });
            if v & 0xffff != 0 {
                self.emit(Instr::Ori {
                    rt: rd,
                    rs: rd,
                    imm: (v & 0xffff) as u16,
                });
            }
        }
        pc
    }

    /// Loads an absolute byte address into `rd` (alias of [`Asm::li`]).
    pub fn la(&mut self, rd: Reg, addr: u32) -> u32 {
        self.li(rd, addr as i32)
    }

    /// Loads the address of a (possibly not-yet-bound) label into `rd`.
    ///
    /// Always emits a fixed-size `lui`+`ori` pair so the layout does not
    /// depend on where the label ends up; the value is patched at
    /// [`Asm::finish`].
    pub fn li_addr(&mut self, rd: Reg, label: Label) -> u32 {
        let idx = self.text.len();
        let pc = self.emit(Instr::Lui { rt: rd, imm: 0 });
        self.emit(Instr::Ori {
            rt: rd,
            rs: rd,
            imm: 0,
        });
        self.fixups.push(Fixup::La(idx, label));
        pc
    }

    /// Records `name` as a symbol for the current text position.
    pub fn global(&mut self, name: &str) {
        self.symbols.insert(name.to_owned(), self.here());
    }

    /// Records `name` as a symbol for an arbitrary address.
    pub fn global_at(&mut self, name: &str, addr: u32) {
        self.symbols.insert(name.to_owned(), addr);
    }

    // ---- data segment -------------------------------------------------

    /// Current data cursor as an absolute byte address.
    pub fn data_here(&self) -> u32 {
        DATA_BASE + self.data.len() as u32
    }

    /// Aligns the data cursor to a multiple of `align` bytes (power of two).
    pub fn align_data(&mut self, align: usize) {
        while !self.data.len().is_multiple_of(align) {
            self.data.push(0);
        }
    }

    /// Appends raw bytes to the data segment; returns their absolute address.
    pub fn bytes(&mut self, bytes: &[u8]) -> u32 {
        let addr = self.data_here();
        self.data.extend_from_slice(bytes);
        addr
    }

    /// Appends 32-bit words (little-endian); returns their absolute address.
    pub fn words(&mut self, words: &[i32]) -> u32 {
        self.align_data(4);
        let addr = self.data_here();
        for w in words {
            self.data.extend_from_slice(&w.to_le_bytes());
        }
        addr
    }

    /// Appends 16-bit halfwords; returns their absolute address.
    pub fn halves(&mut self, halves: &[i16]) -> u32 {
        self.align_data(2);
        let addr = self.data_here();
        for h in halves {
            self.data.extend_from_slice(&h.to_le_bytes());
        }
        addr
    }

    /// Reserves `words` zeroed 32-bit words; returns their absolute address.
    pub fn zeroed_words(&mut self, words: usize) -> u32 {
        self.align_data(4);
        let addr = self.data_here();
        self.data.extend(std::iter::repeat_n(0u8, words * 4));
        addr
    }

    /// Records a named data symbol at the current data cursor.
    pub fn data_symbol(&mut self, name: &str) {
        self.symbols.insert(name.to_owned(), self.data_here());
    }

    /// Resolves all fixups and produces the program image.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::UnboundLabel`] if a referenced label was never
    /// bound, or [`AsmError::BranchOutOfRange`] if a branch cannot reach
    /// its target with a 16-bit word offset.
    pub fn finish(self) -> Result<Program, AsmError> {
        let Asm {
            mut text,
            data,
            labels,
            fixups,
            symbols,
        } = self;
        for fixup in fixups {
            match fixup {
                Fixup::Branch(idx, label) => {
                    let target = labels[label.0].ok_or(AsmError::UnboundLabel { label })?;
                    let at = TEXT_BASE + 4 * idx as u32;
                    let delta_words = (i64::from(target) - i64::from(at) - 4) / 4;
                    let off = i16::try_from(delta_words)
                        .map_err(|_| AsmError::BranchOutOfRange { at, target })?;
                    text[idx] = text[idx]
                        .with_branch_off(off)
                        .expect("fixup recorded for non-branch");
                }
                Fixup::Jump(idx, label) => {
                    let target = labels[label.0].ok_or(AsmError::UnboundLabel { label })?;
                    let word = target >> 2;
                    match &mut text[idx] {
                        Instr::J { target: t } | Instr::Jal { target: t } => *t = word,
                        other => unreachable!("jump fixup on non-jump {other}"),
                    }
                }
                Fixup::La(idx, label) => {
                    let addr = labels[label.0].ok_or(AsmError::UnboundLabel { label })?;
                    match &mut text[idx] {
                        Instr::Lui { imm, .. } => *imm = (addr >> 16) as u16,
                        other => unreachable!("la fixup on non-lui {other}"),
                    }
                    match &mut text[idx + 1] {
                        Instr::Ori { imm, .. } => *imm = (addr & 0xffff) as u16,
                        other => unreachable!("la fixup on non-ori {other}"),
                    }
                }
            }
        }
        Ok(Program {
            text,
            data,
            symbols,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::reg;

    #[test]
    fn backward_branch_is_patched() {
        let mut a = Asm::new();
        let top = a.label_here();
        a.emit(Instr::Addi {
            rt: reg(1),
            rs: reg(1),
            imm: -1,
        });
        a.branch(
            Instr::Bne {
                rs: reg(1),
                rt: Reg::ZERO,
                off: 0,
            },
            top,
        );
        a.emit(Instr::Halt);
        let p = a.finish().unwrap();
        // branch at 0x4, target 0x0 => off = (0 - 4 - 4)/4 = -2
        assert_eq!(
            p.text()[1],
            Instr::Bne {
                rs: reg(1),
                rt: Reg::ZERO,
                off: -2
            }
        );
    }

    #[test]
    fn forward_branch_is_patched() {
        let mut a = Asm::new();
        let out = a.new_label();
        a.branch(
            Instr::Beq {
                rs: Reg::ZERO,
                rt: Reg::ZERO,
                off: 0,
            },
            out,
        );
        a.emit(Instr::Nop);
        a.emit(Instr::Nop);
        a.bind(out).unwrap();
        a.emit(Instr::Halt);
        let p = a.finish().unwrap();
        // branch at 0, target 0xc => off = (12 - 0 - 4)/4 = 2
        assert_eq!(p.text()[0].branch_off(), Some(2));
    }

    #[test]
    fn jump_fixup_sets_word_target() {
        let mut a = Asm::new();
        let l = a.new_label();
        a.jump(l);
        a.emit(Instr::Nop);
        a.bind(l).unwrap();
        a.emit(Instr::Halt);
        let p = a.finish().unwrap();
        assert_eq!(p.text()[0], Instr::J { target: 2 });
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut a = Asm::new();
        let l = a.new_label();
        a.jump(l);
        assert!(matches!(a.finish(), Err(AsmError::UnboundLabel { .. })));
    }

    #[test]
    fn double_bind_is_an_error() {
        let mut a = Asm::new();
        let l = a.new_label();
        a.bind(l).unwrap();
        assert!(matches!(a.bind(l), Err(AsmError::DoublyBound { .. })));
    }

    #[test]
    fn li_small_and_large() {
        let mut a = Asm::new();
        a.li(reg(1), 100);
        a.li(reg(2), 0x12345678);
        a.li(reg(3), 0x70000);
        let p = a.finish().unwrap();
        assert_eq!(
            p.text()[0],
            Instr::Addi {
                rt: reg(1),
                rs: Reg::ZERO,
                imm: 100
            }
        );
        assert_eq!(
            p.text()[1],
            Instr::Lui {
                rt: reg(2),
                imm: 0x1234
            }
        );
        assert_eq!(
            p.text()[2],
            Instr::Ori {
                rt: reg(2),
                rs: reg(2),
                imm: 0x5678
            }
        );
        // 0x70000 has zero low half => single lui
        assert_eq!(
            p.text()[3],
            Instr::Lui {
                rt: reg(3),
                imm: 0x7
            }
        );
        assert_eq!(p.text().len(), 4);
    }

    #[test]
    fn data_allocation_and_symbols() {
        let mut a = Asm::new();
        a.data_symbol("input");
        let addr = a.words(&[1, 2, 3]);
        a.bytes(&[9]);
        a.align_data(4);
        a.data_symbol("out");
        let out = a.zeroed_words(2);
        a.emit(Instr::Halt);
        let p = a.finish().unwrap();
        assert_eq!(addr, DATA_BASE);
        assert_eq!(p.symbol("input"), Some(DATA_BASE));
        // 12 bytes of words + 1 byte + align to 4 => out at base+16
        assert_eq!(out, DATA_BASE + 16);
        assert_eq!(p.symbol("out"), Some(DATA_BASE + 16));
        assert_eq!(p.data().len(), 24);
        assert_eq!(&p.data()[0..4], &1i32.to_le_bytes());
    }

    #[test]
    fn instr_at_and_text_end() {
        let mut a = Asm::new();
        a.emit(Instr::Nop);
        a.emit(Instr::Halt);
        let p = a.finish().unwrap();
        assert_eq!(p.instr_at(TEXT_BASE), Some(&Instr::Nop));
        assert_eq!(p.instr_at(TEXT_BASE + 4), Some(&Instr::Halt));
        assert_eq!(p.instr_at(TEXT_BASE + 8), None);
        assert_eq!(p.instr_at(TEXT_BASE + 2), None);
        assert_eq!(p.text_end(), TEXT_BASE + 8);
    }

    #[test]
    fn listing_contains_every_instruction() {
        let mut a = Asm::new();
        a.emit(Instr::Nop);
        a.emit(Instr::Halt);
        let p = a.finish().unwrap();
        let l = p.listing();
        assert!(l.contains("nop"));
        assert!(l.contains("halt"));
    }

    #[test]
    #[should_panic(expected = "requires a PC-relative branch")]
    fn branch_rejects_non_branch() {
        let mut a = Asm::new();
        let l = a.new_label();
        a.branch(Instr::Nop, l);
    }
}
