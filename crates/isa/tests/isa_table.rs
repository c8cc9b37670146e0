//! Pins every view of the XR32 instruction set in one golden table,
//! `tests/isa_table.txt`:
//!
//! * one canonical sample of every [`Instr`] variant (every
//!   [`ZolcRegion`] and every [`ZolcCtl`] form included): its word, its
//!   disassembly, its operand views ([`Instr::dst_raw`], [`Instr::srcs`],
//!   [`Instr::def_use`]), its class predicates and its branch offset;
//! * the decoding of every value of each field that selects an
//!   instruction — opcode, R-type funct, REGIMM `rt`, ZOLC funct, `zwr`
//!   region and `zctl` code — rejected words with their [`DecodeError`];
//! * the assembler's message for every wrong operand count and every
//!   other malformed operand.
//!
//! A mismatch prints the table the code now produces; an intended change
//! is re-recorded with `ZOLC_BLESS=1 cargo test -p zolc-isa --test
//! isa_table`.
//!
//! The file also round-trips every instruction whose operands name no
//! label through the assembler.

use std::fmt::Write as _;
use zolc_isa::{assemble, decode, encode, reg, Instr, Reg, ZolcCtl, ZolcRegion};

const PINS: &str = include_str!("isa_table.txt");

const REGIONS: [ZolcRegion; 5] = [
    ZolcRegion::Loop,
    ZolcRegion::Task,
    ZolcRegion::Entry,
    ZolcRegion::Exit,
    ZolcRegion::Global,
];

/// One sample of every variant, with distinct registers and immediates
/// of both signs, then `zwr` into every region and every `zctl`.
fn samples() -> Vec<Instr> {
    use Instr::*;
    let (a, b, c) = (reg(3), reg(17), reg(29));
    let mut v = vec![
        Add {
            rd: a,
            rs: b,
            rt: c,
        },
        Sub {
            rd: a,
            rs: b,
            rt: c,
        },
        And {
            rd: a,
            rs: b,
            rt: c,
        },
        Or {
            rd: a,
            rs: b,
            rt: c,
        },
        Xor {
            rd: a,
            rs: b,
            rt: c,
        },
        Nor {
            rd: a,
            rs: b,
            rt: c,
        },
        Slt {
            rd: a,
            rs: b,
            rt: c,
        },
        Sltu {
            rd: a,
            rs: b,
            rt: c,
        },
        Sllv {
            rd: a,
            rt: b,
            rs: c,
        },
        Srlv {
            rd: a,
            rt: b,
            rs: c,
        },
        Srav {
            rd: a,
            rt: b,
            rs: c,
        },
        Mul {
            rd: a,
            rs: b,
            rt: c,
        },
        Mulh {
            rd: a,
            rs: b,
            rt: c,
        },
        Sll {
            rd: a,
            rt: b,
            sh: 31,
        },
        Srl {
            rd: a,
            rt: b,
            sh: 1,
        },
        Sra {
            rd: a,
            rt: b,
            sh: 16,
        },
        Addi {
            rt: a,
            rs: b,
            imm: -32768,
        },
        Slti {
            rt: a,
            rs: b,
            imm: 32767,
        },
        Sltiu {
            rt: a,
            rs: b,
            imm: -1,
        },
        Andi {
            rt: a,
            rs: b,
            imm: 0xffff,
        },
        Ori {
            rt: a,
            rs: b,
            imm: 0x1234,
        },
        Xori {
            rt: a,
            rs: b,
            imm: 0,
        },
        Lui { rt: a, imm: 0xdead },
        Lb {
            rt: a,
            rs: b,
            off: -4,
        },
        Lbu {
            rt: a,
            rs: b,
            off: 4,
        },
        Lh {
            rt: a,
            rs: b,
            off: -2,
        },
        Lhu {
            rt: a,
            rs: b,
            off: 2,
        },
        Lw {
            rt: a,
            rs: b,
            off: 0,
        },
        Sb {
            rt: a,
            rs: b,
            off: 1,
        },
        Sh {
            rt: a,
            rs: b,
            off: -6,
        },
        Sw {
            rt: a,
            rs: b,
            off: 32767,
        },
        Beq {
            rs: a,
            rt: b,
            off: -1,
        },
        Bne {
            rs: a,
            rt: b,
            off: 100,
        },
        Blez { rs: a, off: -32768 },
        Bgtz { rs: a, off: 7 },
        Bltz { rs: a, off: -7 },
        Bgez { rs: a, off: 9 },
        J { target: 0x3ff_ffff },
        Jal { target: 1 },
        Jr { rs: Reg::RA },
        Dbnz { rs: a, off: -12 },
    ];
    for (k, region) in REGIONS.into_iter().enumerate() {
        v.push(Zwr {
            region,
            index: [0, 7, 31, 200, 255][k],
            field: [0, 4, 9, 17, 31][k],
            rs: b,
        });
    }
    for op in [
        ZolcCtl::Activate { task: 0 },
        ZolcCtl::Activate { task: 255 },
        ZolcCtl::Deactivate,
        ZolcCtl::Reset,
    ] {
        v.push(Zctl { op });
    }
    v.extend([Nop, Halt]);
    v
}

/// One table line per sample: word, disassembly, operand views, class
/// predicates (`L`oad, `S`tore, `B`ranch, `C`ontrol flow) and branch
/// offset with its target from `0x100`.
fn instr_line(out: &mut String, i: &Instr) {
    let regs = |rs: [Option<Reg>; 2]| {
        rs.map(|r| r.map_or("-".to_owned(), |r| r.to_string()))
            .join(",")
    };
    let opt = |r: Option<Reg>| r.map_or("-".to_owned(), |r| r.to_string());
    let (def, uses) = i.def_use();
    let class: String = [
        (i.is_load(), 'L'),
        (i.is_store(), 'S'),
        (i.is_cond_branch(), 'B'),
        (i.is_control_flow(), 'C'),
    ]
    .iter()
    .map(|&(on, c)| if on { c } else { '.' })
    .collect();
    let branch = match i.branch_off() {
        Some(off) => format!(
            "off={off} target={:#x} rebased={}",
            i.branch_target(0x100).unwrap(),
            i.with_branch_off(-3).unwrap()
        ),
        None => {
            assert_eq!(i.with_branch_off(-3), None, "{i}");
            "off=-".to_owned()
        }
    };
    let _ = writeln!(
        out,
        "{:08x} | {:<24} | dst_raw={} dst={} srcs={} def_use=({},{uses:#010x}) | {class} | {branch}",
        encode(i),
        i.to_string(),
        opt(i.dst_raw()),
        opt(i.dst()),
        regs(i.srcs()),
        opt(def),
    );
}

fn decode_line(out: &mut String, what: &str, word: u32) {
    let shown = match decode(word) {
        Ok(i) => i.to_string(),
        Err(e) => format!("error: {e} (word {:#010x})", e.word()),
    };
    let _ = writeln!(out, "{what:<14} {word:08x} -> {shown}");
}

/// Every wrong operand count of every mnemonic, pseudo-ops included,
/// with the count each expects.
const OPERAND_COUNTS: &[(&str, usize)] = &[
    ("add", 3),
    ("sub", 3),
    ("and", 3),
    ("or", 3),
    ("xor", 3),
    ("nor", 3),
    ("slt", 3),
    ("sltu", 3),
    ("sllv", 3),
    ("srlv", 3),
    ("srav", 3),
    ("mul", 3),
    ("mulh", 3),
    ("sll", 3),
    ("srl", 3),
    ("sra", 3),
    ("addi", 3),
    ("slti", 3),
    ("sltiu", 3),
    ("andi", 3),
    ("ori", 3),
    ("xori", 3),
    ("lui", 2),
    ("lb", 2),
    ("lbu", 2),
    ("lh", 2),
    ("lhu", 2),
    ("lw", 2),
    ("sb", 2),
    ("sh", 2),
    ("sw", 2),
    ("beq", 3),
    ("bne", 3),
    ("blez", 2),
    ("bgtz", 2),
    ("bltz", 2),
    ("bgez", 2),
    ("j", 1),
    ("jal", 1),
    ("jr", 1),
    ("dbnz", 2),
    ("zwr", 4),
    ("zctl.on", 1),
    ("zctl.off", 0),
    ("zctl.rst", 0),
    ("nop", 0),
    ("halt", 0),
    ("b", 1),
    ("mv", 2),
    ("move", 2),
    ("li", 2),
    ("la", 2),
];

/// Malformed operands (and lines with two faults, to pin which is
/// reported), each with a correct operand count.
const BAD_OPERANDS: &[&str] = &[
    "add r1, r2, r32",
    "add x1, r2, r3",
    "sllv r1, r2, bogus",
    "sll r1, r2, 32",
    "sll r1, r2, -1",
    "sll r99, r2, 40",
    "srl r1, r2, x",
    "addi r1, r2, 65536",
    "addi r1, r2, -32769",
    "addi r1, r2, 0xffff",
    "andi r1, r2, -32769",
    "andi r1, r2, -1",
    "ori r1, r2, 0x10000",
    "lui r1, 70000",
    "lui r1, -1",
    "lw r1, 4",
    "lw r1, 4(r2",
    "lw r1, 40000(r2)",
    "lw r1, (r40)",
    "lw r40, 8(r41)",
    "sb r40, 0(r1)",
    "beq r1, r99, top",
    "blez r99, top",
    "beq r1, r2, nowhere",
    "j nowhere",
    "jr r32",
    "dbnz r40, top",
    "zwr bogus, 0, 0, r1",
    "zwr Loop, 0, 0, r1",
    "zwr loop, 256, 0, r1",
    "zwr loop, 0, 32, r1",
    "zwr loop, -1, 0, r1",
    "zwr loop, x, 0, r1",
    "zwr loop, 0, 0, r32",
    "zwr bogus, 900, 0, r99",
    "zctl.on 256",
    "zctl.on -1",
    "zctl.on x",
    "zctl 1",
    "zctl.go",
    "li r1, 4294967296",
    "li r1, -2147483649",
    "li r40, 1",
    "la r40, top",
    "mv r1, r40",
    "bogus r1",
    "ADD r1, r2, r3",
];

fn table() -> String {
    let mut out = String::from("## instructions\n");
    for i in samples() {
        instr_line(&mut out, &i);
    }
    out.push_str("## decode: every field value that selects an instruction\n");
    let (rs, rt, rd, sh) = (5u32 << 21, 6u32 << 16, 7u32 << 11, 8u32 << 6);
    for op in 0..64 {
        decode_line(
            &mut out,
            &format!("opcode {op:#04x}"),
            op << 26 | rs | rt | 0x1234,
        );
    }
    for f in 0..64 {
        decode_line(&mut out, &format!("funct {f:#04x}"), rs | rt | rd | sh | f);
    }
    for t in 0..32 {
        decode_line(
            &mut out,
            &format!("regimm rt {t}"),
            1 << 26 | rs | t << 16 | 0xfffe,
        );
    }
    for f in 0..8 {
        decode_line(
            &mut out,
            &format!("zolc funct {f}"),
            0x1c << 26 | 1 << 16 | 3 << 8 | 2 << 3 | f,
        );
    }
    for r in 0..32 {
        decode_line(
            &mut out,
            &format!("zwr region {r}"),
            0x1c << 26 | rs | r << 16 | 0x0a21,
        );
    }
    for c in 0..32 {
        decode_line(
            &mut out,
            &format!("zctl code {c}"),
            0x1c << 26 | c << 21 | 0x2a << 5,
        );
    }
    out.push_str("## assembler: wrong operand counts\n");
    for &(mnem, need) in OPERAND_COUNTS {
        for got in [need.wrapping_sub(1), need + 1, need + 2] {
            if got > 4 {
                continue;
            }
            let operands = vec!["r1"; got].join(", ");
            asm_error_line(&mut out, format!("{mnem} {operands}").trim_end());
        }
    }
    out.push_str("## assembler: malformed operands\n");
    for line in BAD_OPERANDS {
        asm_error_line(&mut out, line);
    }
    out
}

/// Assembles `line` (with a `top` label in front) and records the result.
fn asm_error_line(out: &mut String, line: &str) {
    let shown = match assemble(&format!("top: nop\n{line}\n")) {
        Ok(p) => format!("ok: {}", p.text()[1]),
        Err(e) => format!("error: {e}"),
    };
    let _ = writeln!(out, "{line:<28} -> {shown}");
}

#[test]
fn instruction_table_matches_pins() {
    let now = table();
    if std::env::var_os("ZOLC_BLESS").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/isa_table.txt");
        std::fs::write(path, &now).expect("write isa_table.txt");
        return;
    }
    assert!(
        now == PINS,
        "the instruction table moved; the table the code now produces:\n{now}"
    );
}

/// The assembler syntax of an instruction whose operands name no label:
/// the disassembly, except that `zwr` spells its destination as
/// `region, index, field`. `None` for branches and jumps.
fn asm_syntax(i: &Instr) -> Option<String> {
    match *i {
        _ if i.branch_off().is_some() => None,
        Instr::J { .. } | Instr::Jal { .. } => None,
        Instr::Zwr {
            region,
            index,
            field,
            rs,
        } => Some(format!("zwr {region}, {index}, {field}, {rs}")),
        _ => Some(i.to_string()),
    }
}

#[test]
fn assembler_round_trips_every_non_label_form() {
    let mut forms = 0;
    for i in samples() {
        let Some(src) = asm_syntax(&i) else { continue };
        let p = assemble(&src).unwrap_or_else(|e| panic!("`{src}`: {e}"));
        assert_eq!(p.text(), [i], "`{src}`");
        forms += 1;
    }
    assert_eq!(forms, samples().len() - 9);
}

/// Branches round-trip too, through a label.
#[test]
fn assembler_round_trips_label_forms() {
    for i in samples() {
        let Some(off) = i.branch_off().map(i32::from) else {
            continue;
        };
        let text = i.to_string();
        let (head, _) = text.rsplit_once(',').unwrap();
        let nops = |n: i32| "nop\n".repeat(n as usize);
        let (src, at) = if off >= 0 {
            (format!("{head}, fwd\n{}fwd: halt", nops(off)), 0)
        } else {
            (format!("back: {}{head}, back", nops(-off - 1)), -off - 1)
        };
        let p = assemble(&src).unwrap_or_else(|e| panic!("`{head}`: {e}"));
        assert_eq!(p.text()[at as usize], i);
    }
}
