//! A small two-pass text assembler for XR32.
//!
//! The assembler accepts the same syntax the disassembler
//! ([`crate::Program::listing`]) produces, plus labels, sections, data
//! directives and a few pseudo-instructions. It exists for examples, tests
//! and exploratory use; the benchmark kernels generate code through the
//! [`crate::Asm`] builder directly.
//!
//! Supported syntax:
//!
//! ```text
//!         .text
//! main:   li    r1, 10          # pseudo: addi (or lui+ori when wide)
//!         la    r2, table       # pseudo: lui+ori (always 2 words)
//! loop:   addi  r1, r1, -1
//!         bne   r1, r0, loop
//!         halt
//!         .data
//! table:  .word 1, 2, 3
//!         .half 4, 5
//!         .byte 6
//!         .align 4
//!         .space 16
//! ```
//!
//! Comments start with `#` or `;`. Immediates may be decimal or `0x` hex,
//! optionally negative.

use crate::instr::{Instr, ZolcCtl, ZolcRegion};
use crate::program::{Asm, Program, DATA_BASE, DATA_SIZE, TEXT_BASE};
use crate::reg::Reg;
use crate::table::{Form, Op, Ops, ROWS};
use std::collections::HashMap;
use std::fmt;

/// The error type returned by [`assemble`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAsmError {
    line: usize,
    msg: String,
}

impl ParseAsmError {
    fn new(line: usize, msg: impl Into<String>) -> Self {
        ParseAsmError {
            line,
            msg: msg.into(),
        }
    }

    /// The 1-based source line the error occurred on (0 for link-time errors).
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseAsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseAsmError {}

/// One parsed source item before label resolution.
#[derive(Debug, Clone)]
enum Item {
    /// Fully resolved instruction.
    Instr(Instr),
    /// Conditional branch to a named label (offset patched in pass 2).
    BranchTo(Instr, String, usize),
    /// `j`/`jal` to a named label.
    JumpTo(Op, String, usize),
    /// `la rd, label`: two words (`lui`+`ori`), address patched in pass 2.
    La(Reg, String, usize),
    /// Wide `li rd, imm32`: two words.
    LiWide(Reg, u32),
}

impl Item {
    fn words(&self) -> u32 {
        match self {
            Item::La(..) | Item::LiWide(..) => 2,
            _ => 1,
        }
    }
}

fn parse_int(tok: &str, line: usize) -> Result<i64, ParseAsmError> {
    let invalid = || ParseAsmError::new(line, format!("invalid integer `{tok}`"));
    let t = tok.trim();
    let (neg, t) = match t.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, t),
    };
    let (radix, digits) = match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        Some(hex) => (16, hex),
        None => (10, t),
    };
    if neg && digits.starts_with(['+', '-']) {
        return Err(invalid());
    }
    let v = i64::from_str_radix(digits, radix).map_err(|_| invalid())?;
    Ok(if neg { -v } else { v })
}

fn parse_reg(tok: &str, line: usize) -> Result<Reg, ParseAsmError> {
    tok.trim()
        .parse::<Reg>()
        .map_err(|e| ParseAsmError::new(line, e.to_string()))
}

/// Parses a `bits`-wide value, signed or unsigned, naming it `what` in
/// the error.
fn parse_bits(tok: &str, bits: u32, what: &str, line: usize) -> Result<i64, ParseAsmError> {
    let v = parse_int(tok, line)?;
    if !(-(1 << (bits - 1))..1 << bits).contains(&v) {
        return Err(ParseAsmError::new(
            line,
            format!("{what} `{tok}` out of {bits}-bit range"),
        ));
    }
    Ok(v)
}

/// Parses a 16-bit immediate, signed or unsigned, to its bits.
fn parse_imm16(tok: &str, line: usize) -> Result<u16, ParseAsmError> {
    Ok(parse_bits(tok, 16, "immediate", line)? as u16)
}

/// Parses `off(rs)` memory operands.
fn parse_mem(tok: &str, line: usize) -> Result<(i16, Reg), ParseAsmError> {
    let t = tok.trim();
    let open = t
        .find('(')
        .ok_or_else(|| ParseAsmError::new(line, format!("expected `off(reg)`, got `{tok}`")))?;
    let close = t
        .find(')')
        .ok_or_else(|| ParseAsmError::new(line, format!("unclosed `(` in `{tok}`")))?;
    let off_s = &t[..open];
    let off = if off_s.trim().is_empty() {
        0
    } else {
        parse_imm16(off_s, line)? as i16
    };
    let rs = parse_reg(&t[open + 1..close], line)?;
    Ok((off, rs))
}

fn split_operands(rest: &str) -> Vec<String> {
    rest.split(',')
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .collect()
}

/// Assembles XR32 source text into a [`Program`].
///
/// # Errors
///
/// Returns [`ParseAsmError`] describing the offending line for syntax
/// errors, unknown mnemonics, bad operands, undefined labels or branch
/// targets out of range.
///
/// # Examples
///
/// ```
/// let p = zolc_isa::assemble("
///     li   r1, 3
/// top: addi r1, r1, -1
///     bne  r1, r0, top
///     halt
/// ")?;
/// assert_eq!(p.text().len(), 4);
/// # Ok::<(), zolc_isa::ParseAsmError>(())
/// ```
pub fn assemble(source: &str) -> Result<Program, ParseAsmError> {
    #[derive(PartialEq)]
    enum Section {
        Text,
        Data,
    }

    // Pass 1: lay out the data segment, size the text segment, record labels.
    let mut items: Vec<Item> = Vec::new();
    let mut section = Section::Text;
    let mut text_words: u32 = 0;
    let mut labels: HashMap<String, u32> = HashMap::new();
    let mut asm = Asm::new();

    for (lineno, raw) in source.lines().enumerate() {
        let line = lineno + 1;
        let mut s = raw;
        if let Some(p) = s.find(['#', ';']) {
            s = &s[..p];
        }
        let mut s = s.trim();
        while let Some(colon) = s.find(':') {
            let (name, rest) = s.split_at(colon);
            let name = name.trim();
            if name.is_empty() || name.contains(char::is_whitespace) {
                break;
            }
            let addr = match section {
                Section::Text => TEXT_BASE + 4 * text_words,
                Section::Data => {
                    asm.data_symbol(name);
                    asm.data_here()
                }
            };
            if labels.insert(name.to_owned(), addr).is_some() {
                return Err(ParseAsmError::new(
                    line,
                    format!("duplicate label `{name}`"),
                ));
            }
            s = rest[1..].trim();
        }
        if s.is_empty() {
            continue;
        }
        let (mnem, rest) = match s.find(char::is_whitespace) {
            Some(p) => (&s[..p], s[p..].trim()),
            None => (s, ""),
        };
        let mnem_lc = mnem.to_ascii_lowercase();
        if let Some(directive) = mnem_lc.strip_prefix('.') {
            // Whether the data segment, `grow` bytes longer, fits the data memory.
            let fits = |asm: &Asm, grow: u64| {
                let end = u64::from(asm.data_here() - DATA_BASE) + grow;
                (end <= u64::from(DATA_SIZE)).then_some(()).ok_or_else(|| {
                    let msg =
                        format!("data segment would exceed the {DATA_SIZE} bytes of data memory");
                    ParseAsmError::new(line, msg)
                })
            };
            match directive {
                "text" => section = Section::Text,
                "data" => section = Section::Data,
                "word" | "half" | "byte" => {
                    let width = match directive {
                        "word" => 4,
                        "half" => 2,
                        _ => 1,
                    };
                    for tok in split_operands(rest) {
                        let v = parse_bits(&tok, 8 * width as u32, "value", line)?;
                        asm.align_data(width);
                        fits(&asm, width as u64)?;
                        asm.bytes(&v.to_le_bytes()[..width]);
                    }
                }
                "space" => {
                    let n = parse_int(rest, line)?;
                    let n = u64::try_from(n).map_err(|_| {
                        ParseAsmError::new(line, format!(".space count `{n}` is negative"))
                    })?;
                    fits(&asm, n)?;
                    asm.bytes(&vec![0u8; n as usize]);
                }
                "align" => {
                    let n = u64::try_from(parse_int(rest, line)?)
                        .ok()
                        .filter(|n| n.is_power_of_two())
                        .ok_or_else(|| ParseAsmError::new(line, ".align takes a power of two"))?;
                    let len = u64::from(asm.data_here() - DATA_BASE);
                    fits(&asm, len.next_multiple_of(n) - len)?;
                    asm.align_data(n as usize);
                }
                other => {
                    return Err(ParseAsmError::new(
                        line,
                        format!("unknown directive `.{other}`"),
                    ))
                }
            }
            continue;
        }
        if section != Section::Text {
            return Err(ParseAsmError::new(
                line,
                format!("instruction `{mnem}` outside .text section"),
            ));
        }
        let item = parse_instr_line(&mnem_lc, rest, line)?;
        text_words += item.words();
        items.push(item);
    }

    // Pass 2: emit instructions, resolving label references.
    let lookup = |label: &str, line: usize| -> Result<u32, ParseAsmError> {
        labels
            .get(label)
            .copied()
            .ok_or_else(|| ParseAsmError::new(line, format!("undefined label `{label}`")))
    };

    for item in items {
        match item {
            Item::Instr(i) => {
                asm.emit(i);
            }
            Item::BranchTo(i, label, line) => {
                let target = lookup(&label, line)?;
                let at = asm.here();
                let delta = (i64::from(target) - i64::from(at) - 4) / 4;
                let off = i16::try_from(delta).map_err(|_| {
                    ParseAsmError::new(line, format!("branch target `{label}` out of range"))
                })?;
                asm.emit(i.with_branch_off(off).expect("branch item holds a branch"));
            }
            Item::JumpTo(op, label, line) => {
                let target = lookup(&label, line)? >> 2;
                asm.emit(Instr::from_parts(op, Ops::Jump { target }));
            }
            Item::La(rd, label, line) => {
                let addr = lookup(&label, line)?;
                emit_wide(&mut asm, rd, addr);
            }
            Item::LiWide(rd, value) => {
                emit_wide(&mut asm, rd, value);
            }
        }
    }

    // record text labels as program symbols too
    for (name, addr) in &labels {
        if *addr < DATA_BASE {
            asm.global_at(name, *addr);
        }
    }

    asm.finish()
        .map_err(|e| ParseAsmError::new(0, e.to_string()))
}

/// Emits the canonical two-word `lui`+`ori` constant load.
fn emit_wide(asm: &mut Asm, rd: Reg, value: u32) {
    asm.emit(Instr::Lui {
        rt: rd,
        imm: (value >> 16) as u16,
    });
    asm.emit(Instr::Ori {
        rt: rd,
        rs: rd,
        imm: (value & 0xffff) as u16,
    });
}

fn parse_instr_line(mnem: &str, rest: &str, line: usize) -> Result<Item, ParseAsmError> {
    let ops = split_operands(rest);
    let need = |n: usize| -> Result<(), ParseAsmError> {
        if ops.len() == n {
            Ok(())
        } else {
            Err(ParseAsmError::new(
                line,
                format!("`{mnem}` expects {n} operands, got {}", ops.len()),
            ))
        }
    };
    let r = |k: usize| parse_reg(&ops[k], line);
    let int = |k: usize| parse_int(&ops[k], line);
    let label = |k: usize| ops[k].clone();

    // Pseudo-instructions.
    match mnem {
        "b" => {
            need(1)?;
            let beq = Instr::Beq {
                rs: Reg::ZERO,
                rt: Reg::ZERO,
                off: 0,
            };
            return Ok(Item::BranchTo(beq, label(0), line));
        }
        "mv" | "move" => {
            need(2)?;
            return Ok(Item::Instr(Instr::Add {
                rd: r(0)?,
                rs: r(1)?,
                rt: Reg::ZERO,
            }));
        }
        "li" => {
            need(2)?;
            let v = int(1)?;
            let v32 = i32::try_from(v)
                .or_else(|_| u32::try_from(v).map(|u| u as i32))
                .map_err(|_| ParseAsmError::new(line, "li immediate out of 32-bit range"))?;
            return Ok(if (-32768..=32767).contains(&v32) {
                Item::Instr(Instr::Addi {
                    rt: r(0)?,
                    rs: Reg::ZERO,
                    imm: v32 as i16,
                })
            } else {
                Item::LiWide(r(0)?, v32 as u32)
            });
        }
        "la" => {
            need(2)?;
            return Ok(Item::La(r(0)?, label(1), line));
        }
        _ => {}
    }

    // Table instructions; `zctl.<op>` names the operation after a dot.
    let unknown = || ParseAsmError::new(line, format!("unknown mnemonic `{mnem}`"));
    let (base, suffix) = match mnem.split_once('.') {
        Some((base, suffix)) => (base, Some(suffix)),
        None => (mnem, None),
    };
    let row = ROWS
        .iter()
        .find(|row| row.mnem == base && (row.form == Form::Zctl) == suffix.is_some())
        .ok_or_else(unknown)?;
    let imm = |k: usize| parse_imm16(&ops[k], line);
    let operands = match row.form {
        Form::R3 => {
            need(3)?;
            let (rd, rs, rt) = (r(0)?, r(1)?, r(2)?);
            Ops::R3 { rd, rs, rt }
        }
        Form::R3v => {
            need(3)?;
            let (rd, rt, rs) = (r(0)?, r(1)?, r(2)?);
            Ops::R3v { rd, rt, rs }
        }
        Form::Shift => {
            need(3)?;
            let sh = int(2)?;
            if !(0..32).contains(&sh) {
                return Err(ParseAsmError::new(line, "shift amount must be 0..32"));
            }
            let (rd, rt, sh) = (r(0)?, r(1)?, sh as u8);
            Ops::Shift { rd, rt, sh }
        }
        Form::SImm => {
            need(3)?;
            let (rt, rs, imm) = (r(0)?, r(1)?, imm(2)? as i16);
            Ops::SImm { rt, rs, imm }
        }
        Form::UImm => {
            need(3)?;
            let (rt, rs, imm) = (r(0)?, r(1)?, imm(2)?);
            Ops::UImm { rt, rs, imm }
        }
        Form::Lui => {
            need(2)?;
            let (rt, imm) = (r(0)?, imm(1)?);
            Ops::Lui { rt, imm }
        }
        Form::Mem => {
            need(2)?;
            let (off, rs) = parse_mem(&ops[1], line)?;
            Ops::Mem { rt: r(0)?, rs, off }
        }
        // The branch forms take the target label last; see below.
        Form::Br2 => {
            need(3)?;
            let (rs, rt) = (r(0)?, r(1)?);
            Ops::Br2 { rs, rt, off: 0 }
        }
        Form::Br1 => {
            need(2)?;
            Ops::Br1 { rs: r(0)?, off: 0 }
        }
        Form::Jump => {
            need(1)?;
            return Ok(Item::JumpTo(row.op, label(0), line));
        }
        Form::Jr => {
            need(1)?;
            Ops::Jr { rs: r(0)? }
        }
        // `zwr <region>, <index>, <field>, <rs>`
        Form::Zwr => {
            need(4)?;
            let (region, _) = *ZolcRegion::NAMES
                .iter()
                .find(|&&(_, name)| name == ops[0])
                .ok_or_else(|| {
                    ParseAsmError::new(line, format!("unknown ZOLC region `{}`", ops[0]))
                })?;
            let (index, field) = (int(1)?, int(2)?);
            if !(0..256).contains(&index) || !(0..32).contains(&field) {
                return Err(ParseAsmError::new(
                    line,
                    format!("{base} index/field out of range"),
                ));
            }
            Ops::Zwr {
                region,
                index: index as u8,
                field: field as u8,
                rs: r(3)?,
            }
        }
        // `zctl.on <task>`, `zctl.off`, `zctl.rst`
        Form::Zctl => {
            let op = ZolcCtl::SUFFIXES
                .iter()
                .position(|&s| Some(s) == suffix)
                .and_then(|code| ZolcCtl::from_code(code as u32, 0))
                .ok_or_else(unknown)?;
            if let ZolcCtl::Activate { .. } = op {
                need(1)?;
                let task = u8::try_from(int(0)?)
                    .map_err(|_| ParseAsmError::new(line, "task id out of range"))?;
                Ops::Zctl {
                    op: ZolcCtl::Activate { task },
                }
            } else {
                need(0)?;
                Ops::Zctl { op }
            }
        }
        Form::Bare => {
            need(0)?;
            Ops::Bare
        }
    };
    let instr = Instr::from_parts(row.op, operands);
    Ok(match instr.branch_off() {
        Some(_) => Item::BranchTo(instr, ops[ops.len() - 1].clone(), line),
        None => Item::Instr(instr),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::DATA_BASE;
    use crate::reg::reg;

    #[test]
    fn simple_loop_assembles() {
        let p = assemble(
            "
            li   r1, 3
      top:  addi r1, r1, -1
            bne  r1, r0, top
            halt
        ",
        )
        .unwrap();
        assert_eq!(p.text().len(), 4);
        assert_eq!(p.text()[2].branch_off(), Some(-2));
        assert_eq!(p.symbol("top"), Some(4));
    }

    #[test]
    fn data_section_and_la() {
        let p = assemble(
            "
            .data
      tbl:  .word 10, 20, 30
      out:  .space 8
            .text
            la   r2, tbl
            lw   r3, 4(r2)
            halt
        ",
        )
        .unwrap();
        assert_eq!(p.symbol("tbl"), Some(DATA_BASE));
        assert_eq!(p.symbol("out"), Some(DATA_BASE + 12));
        assert_eq!(
            p.text()[0],
            Instr::Lui {
                rt: reg(2),
                imm: (DATA_BASE >> 16) as u16
            }
        );
        assert_eq!(p.data().len(), 20);
        assert_eq!(&p.data()[4..8], &20i32.to_le_bytes());
    }

    #[test]
    fn forward_jump_resolves() {
        let p = assemble(
            "
            j    end
            nop
      end:  halt
        ",
        )
        .unwrap();
        assert_eq!(p.text()[0], Instr::J { target: 2 });
    }

    #[test]
    fn wide_li_expands_to_two_words() {
        let p = assemble("li r1, 0x12345678\nhalt").unwrap();
        assert_eq!(p.text().len(), 3);
        assert_eq!(
            p.text()[0],
            Instr::Lui {
                rt: reg(1),
                imm: 0x1234
            }
        );
        assert_eq!(
            p.text()[1],
            Instr::Ori {
                rt: reg(1),
                rs: reg(1),
                imm: 0x5678
            }
        );
    }

    #[test]
    fn la_sizing_consistent_with_labels() {
        // label after an la must account for its two-word expansion
        let p = assemble(
            "
            la   r1, after
      after: halt
        ",
        )
        .unwrap();
        assert_eq!(p.symbol("after"), Some(8));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("nop\nbogus r1, r2\n").unwrap_err();
        assert_eq!(e.line(), 2);
        assert!(e.to_string().contains("bogus"));
    }

    #[test]
    fn undefined_label_rejected() {
        assert!(assemble("j nowhere\n").is_err());
    }

    #[test]
    fn duplicate_label_rejected() {
        assert!(assemble("a: nop\na: nop\n").is_err());
    }

    #[test]
    fn operand_count_checked() {
        assert!(assemble("add r1, r2\n").is_err());
    }

    #[test]
    fn mem_operand_forms() {
        let p = assemble("lw r1, (r2)\nsw r1, -8(r3)\nhalt").unwrap();
        assert_eq!(
            p.text()[0],
            Instr::Lw {
                rt: reg(1),
                rs: reg(2),
                off: 0
            }
        );
        assert_eq!(
            p.text()[1],
            Instr::Sw {
                rt: reg(1),
                rs: reg(3),
                off: -8
            }
        );
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let p = assemble("# header\n; alt comment\n\nnop # trailing\nhalt").unwrap();
        assert_eq!(p.text().len(), 2);
    }

    #[test]
    fn dbnz_parses() {
        let p = assemble("top: dbnz r5, top\nhalt").unwrap();
        assert_eq!(
            p.text()[0],
            Instr::Dbnz {
                rs: reg(5),
                off: -1
            }
        );
    }

    #[test]
    fn instructions_in_data_section_rejected() {
        assert!(assemble(".data\nnop\n").is_err());
    }

    #[test]
    fn zolc_instructions_parse() {
        use crate::instr::{ZolcCtl, ZolcRegion};
        let p = assemble(
            "
            zwr   loop, 2, 1, r4
            zwr   task, 31, 4, r5
            zctl.on 3
            zctl.off
            zctl.rst
            halt
        ",
        )
        .unwrap();
        assert_eq!(
            p.text()[0],
            Instr::Zwr {
                region: ZolcRegion::Loop,
                index: 2,
                field: 1,
                rs: reg(4)
            }
        );
        assert_eq!(
            p.text()[2],
            Instr::Zctl {
                op: ZolcCtl::Activate { task: 3 }
            }
        );
        assert_eq!(
            p.text()[3],
            Instr::Zctl {
                op: ZolcCtl::Deactivate
            }
        );
        assert_eq!(p.text()[4], Instr::Zctl { op: ZolcCtl::Reset });
    }

    #[test]
    fn bad_zolc_operands_rejected() {
        assert!(assemble("zwr bogus, 0, 0, r1\n").is_err());
        assert!(assemble("zwr loop, 900, 0, r1\n").is_err());
        assert!(assemble("zctl.on 300\n").is_err());
    }

    fn error(source: &str) -> String {
        match assemble(source) {
            Ok(_) => panic!("`{source}` assembled"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn negative_space_rejected() {
        assert_eq!(
            error(".data\n.space -1\n"),
            "line 2: .space count `-1` is negative"
        );
    }

    #[test]
    fn data_segment_capped_at_data_memory() {
        let full = format!(".data\n.space {DATA_SIZE}\n");
        assert_eq!(assemble(&full).unwrap().data().len(), DATA_SIZE as usize);
        let past = "line 2: data segment would exceed the 1048576 bytes of data memory";
        // Rejected before anything is allocated.
        assert_eq!(error(".data\n.space 1099511627776\n"), past);
        assert_eq!(
            error(".data\n.byte 1\n.align 1099511627776\n"),
            past.replace('2', "3")
        );
        let over = format!(".data\n.space {}\n", DATA_SIZE + 1);
        assert_eq!(error(&over), past);
        let then = format!(".data\n.space {}\n.half 1\n", DATA_SIZE - 1);
        assert_eq!(error(&then), past.replace('2', "3"));
        let aligned = format!(".data\n.space {}\n.align 4\n.word 1\n", DATA_SIZE - 3);
        assert_eq!(error(&aligned), past.replace('2', "4"));
        // Padding to an alignment already met grows nothing.
        let at_end = format!(".data\n.space {DATA_SIZE}\n.align 1048576\n");
        assert!(assemble(&at_end).is_ok());
        assert_eq!(
            error(".data\n.align -8\n"),
            "line 2: .align takes a power of two"
        );
    }

    #[test]
    fn data_values_must_fit_their_width() {
        let p = assemble(
            ".data\n.word 4294967295, -2147483648\n.half 65535, -32768\n.byte 255, -128\n",
        )
        .unwrap();
        let bytes = [[0xff; 4], [0, 0, 0, 0x80]].concat();
        assert_eq!(&p.data()[..8], &bytes[..]);
        assert_eq!(&p.data()[8..], &[0xff, 0xff, 0, 0x80, 0xff, 0x80]);
        assert_eq!(
            error(".data\n.word 4294967296\n"),
            "line 2: value `4294967296` out of 32-bit range"
        );
        assert_eq!(
            error(".data\n.word -2147483649\n"),
            "line 2: value `-2147483649` out of 32-bit range"
        );
        assert_eq!(
            error(".data\n.half 65536\n"),
            "line 2: value `65536` out of 16-bit range"
        );
        assert_eq!(
            error(".data\n.byte -129\n"),
            "line 2: value `-129` out of 8-bit range"
        );
    }

    #[test]
    fn second_sign_rejected() {
        for tok in ["--5", "-+5", "-0x-5", "-0x+5"] {
            assert_eq!(
                error(&format!("li r1, {tok}\n")),
                format!("line 1: invalid integer `{tok}`")
            );
        }
        assert_eq!(
            assemble("li r1, -5\nli r2, +5\nli r3, -0x10\n")
                .unwrap()
                .text()[..3],
            [
                Instr::Addi {
                    rt: reg(1),
                    rs: Reg::ZERO,
                    imm: -5
                },
                Instr::Addi {
                    rt: reg(2),
                    rs: Reg::ZERO,
                    imm: 5
                },
                Instr::Addi {
                    rt: reg(3),
                    rs: Reg::ZERO,
                    imm: -16
                },
            ]
        );
    }
}
