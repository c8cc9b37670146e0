//! The hostile text generator shared by `retarget_hostile` (the
//! retargeter and lint nets) and `passive_wild` (the executor
//! differential): seeded random decodable texts of 1–24 instructions.
//! Arbitrary branches are biased toward short offsets, `j` targets fall
//! inside and outside the text, down-counter latches are spliced in (so
//! handled loops meet hostile surroundings), and random decoded words
//! and the retargeter-rejected `jal`/`jr`/`zwr`/`zctl` appear too.

use zolc::gen::GenRng;
use zolc::isa::{decode, loop_field, reg, Instr, Reg, ZolcCtl, ZolcRegion};

/// A branch offset: usually within a few instructions, sometimes
/// anywhere in the 16-bit range (far outside any text).
fn offset(rng: &mut GenRng) -> i16 {
    if rng.chance(7, 8) {
        rng.below(15) as i16 - 8
    } else {
        rng.next_u64() as i16
    }
}

fn any_reg(rng: &mut GenRng) -> Reg {
    reg(rng.below(32) as u8)
}

/// One of three counter registers, so detected latches, decrements and
/// trip-count loads often agree on their counter.
fn counter(rng: &mut GenRng) -> Reg {
    reg(10 + rng.below(3) as u8)
}

fn hostile_instr(rng: &mut GenRng, n: usize) -> Instr {
    match rng.below(16) {
        0 => Instr::Addi {
            rt: counter(rng),
            rs: Reg::ZERO,
            imm: 1 + rng.below(8) as i16,
        },
        1 => {
            let c = counter(rng);
            Instr::Addi {
                rt: c,
                rs: c,
                imm: -1,
            }
        }
        2 => Instr::Bne {
            rs: counter(rng),
            rt: Reg::ZERO,
            off: offset(rng),
        },
        3 => Instr::Dbnz {
            rs: counter(rng),
            off: offset(rng),
        },
        4 => Instr::Add {
            rd: counter(rng),
            rs: any_reg(rng),
            rt: Reg::ZERO,
        },
        5 => Instr::Add {
            rd: any_reg(rng),
            rs: any_reg(rng),
            rt: any_reg(rng),
        },
        6 => Instr::Sw {
            rt: any_reg(rng),
            rs: Reg::ZERO,
            off: rng.below(64) as i16,
        },
        7 => match rng.below(4) {
            0 => Instr::Beq {
                rs: any_reg(rng),
                rt: any_reg(rng),
                off: offset(rng),
            },
            1 => Instr::Blez {
                rs: any_reg(rng),
                off: offset(rng),
            },
            2 => Instr::Bgtz {
                rs: any_reg(rng),
                off: offset(rng),
            },
            _ => Instr::Bgez {
                rs: any_reg(rng),
                off: offset(rng),
            },
        },
        8 => Instr::J {
            // word index: inside the text, just past it, or anywhere
            target: if rng.chance(3, 4) {
                rng.below(n as u32 + 2)
            } else {
                rng.below(1 << 26)
            },
        },
        9 => Instr::Halt,
        10 => Instr::Nop,
        11 if rng.chance(1, 3) => match rng.below(4) {
            0 => Instr::Jal {
                target: rng.below(n as u32 + 2),
            },
            1 => Instr::Jr { rs: any_reg(rng) },
            2 => Instr::Zwr {
                region: ZolcRegion::Loop,
                index: rng.below(4) as u8,
                field: loop_field::LIMIT,
                rs: any_reg(rng),
            },
            _ => Instr::Zctl { op: ZolcCtl::Reset },
        },
        11 => Instr::Nop,
        12 | 13 => loop {
            if let Ok(i) = decode(rng.next_u64() as u32) {
                break i;
            }
        },
        _ => Instr::Addi {
            rt: any_reg(rng),
            rs: any_reg(rng),
            imm: rng.below(16) as i16 - 8,
        },
    }
}

/// A random text, with up to two down-counter latches spliced in:
/// `li c, N` before a body start, `addi c, c, -1; bne c, r0, start` at
/// a later position.
pub fn hostile_text(rng: &mut GenRng) -> Vec<Instr> {
    let n = 1 + rng.below(24) as usize;
    let mut text: Vec<Instr> = (0..n).map(|_| hostile_instr(rng, n)).collect();
    for _ in 0..rng.below(3) {
        if n < 4 {
            break;
        }
        let start = 1 + rng.below(n as u32 - 3) as usize;
        let branch = start + 1 + rng.below((n - start - 1) as u32) as usize;
        let c = counter(rng);
        text[start - 1] = Instr::Addi {
            rt: c,
            rs: Reg::ZERO,
            imm: 1 + rng.below(8) as i16,
        };
        text[branch - 1] = Instr::Addi {
            rt: c,
            rs: c,
            imm: -1,
        };
        text[branch] = Instr::Bne {
            rs: c,
            rt: Reg::ZERO,
            off: start as i16 - branch as i16 - 1,
        };
    }
    text
}
