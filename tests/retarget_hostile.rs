//! Hostile-input net for the retargeter (`zolc_cfg::retarget` and
//! `RetargetPlan`).
//!
//! Seeded random decodable texts of 1–24 instructions: arbitrary
//! branches biased toward short offsets, `j` targets inside and outside
//! the text, spliced down-counter latches (so handled loops meet hostile
//! surroundings), random decoded words, and the rejected `jal`/`jr`/
//! `zwr`/`zctl`. Every text is retargeted on three configurations and
//! must
//!
//! * never panic (in debug this also runs the retargeter's internal
//!   `debug_assert`s, such as the excision-keeps-the-CFG identity);
//! * be refused as `Unsupported` exactly when it holds a rejected
//!   instruction;
//! * give the same result from one reused plan as from fresh one-shot
//!   calls.
//!
//! The same texts, and the texts retargeting makes of them, are linted
//! (`lint_program`) with no image, with their own image and with another
//! text's image, and must never panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use zolc::cfg::{lint_program, retarget, RetargetError, RetargetPlan, Retargeted};
use zolc::core::ZolcConfig;
use zolc::gen::GenRng;
use zolc::isa::{decode, loop_field, reg, Instr, Program, Reg, ZolcCtl, ZolcRegion};

/// Random texts per run (about 2 s in a debug build).
const PROGRAMS: u64 = 8000;

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
fn hostile_text(rng: &mut GenRng) -> Vec<Instr> {
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

fn rejected(text: &[Instr]) -> bool {
    text.iter().any(|i| {
        matches!(
            i,
            Instr::Jal { .. } | Instr::Jr { .. } | Instr::Zwr { .. } | Instr::Zctl { .. }
        )
    })
}

#[test]
fn hostile_texts_never_panic_and_plans_match_one_shot() {
    let configs = [ZolcConfig::micro(), ZolcConfig::lite(), ZolcConfig::full()];
    let (mut refused, mut synthesized, mut mapped) = (0, 0, 0);
    for seed in 0..PROGRAMS {
        let mut rng = GenRng::new(0x4057_11e0 ^ seed);
        let program = Program::from_parts(hostile_text(&mut rng), Vec::new());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let fresh: Vec<_> = configs.iter().map(|c| retarget(&program, c)).collect();
            let plan = RetargetPlan::new(program.clone());
            (fresh, plan.map(|p| configs.map(|c| p.retarget(&c))))
        }));
        let Ok((fresh, planned)) = outcome else {
            panic!("seed {seed}: retarget panicked on {:?}", program.text());
        };
        match planned {
            Err(e) => {
                assert!(
                    matches!(e, RetargetError::Unsupported(_)),
                    "seed {seed}: plan error {e}"
                );
                assert!(rejected(program.text()), "seed {seed}: refused {e}");
                assert!(fresh.iter().all(|r| r.as_ref().err() == Some(&e)));
                refused += 1;
            }
            Ok(planned) => {
                assert!(!rejected(program.text()), "seed {seed}: accepted");
                assert_eq!(
                    planned.as_slice(),
                    fresh.as_slice(),
                    "seed {seed}: plan reuse differs from one-shot"
                );
                for r in planned.iter().flatten() {
                    synthesized += 1;
                    mapped += usize::from(!r.counted.is_empty());
                }
            }
        }
    }
    eprintln!("{refused} refused, {synthesized} synthesized, {mapped} mapped");
    // the net must reach refusal, synthesis and loop excision alike
    assert!(refused > PROGRAMS / 20, "{refused} refusals");
    assert!(
        synthesized > PROGRAMS as usize / 2,
        "{synthesized} syntheses"
    );
    assert!(
        mapped > PROGRAMS as usize / 10,
        "{mapped} syntheses map a loop"
    );
}

/// Random texts the lint net runs (about 2 s in a debug build).
const LINTED: u64 = 2000;

/// Hostile-input net for `lint_program`, on the same texts: each text
/// and each of its retargeted texts is linted with no image, with the
/// text's own retargeted image and with a foreign text's image, on
/// every configuration, and must never panic.
#[test]
fn hostile_texts_lint_without_panicking() {
    let configs = [ZolcConfig::micro(), ZolcConfig::lite(), ZolcConfig::full()];
    // The latest retarget per configuration: the next text's foreign one.
    let mut foreign: [Option<Retargeted>; 3] = [None, None, None];
    let (mut linted, mut with_images) = (0, 0);
    for seed in 0..LINTED {
        let mut rng = GenRng::new(0x1147_0000 ^ seed);
        let program = Program::from_parts(hostile_text(&mut rng), Vec::new());
        for (c, config) in configs.iter().enumerate() {
            let own = retarget(&program, config).ok();
            let images = [
                None,
                own.as_ref().map(|r| &r.image),
                foreign[c].as_ref().map(|r| &r.image),
            ];
            let texts = std::iter::once(&program).chain(own.as_ref().map(|r| &*r.program));
            for text in texts {
                for image in images {
                    let outcome = catch_unwind(AssertUnwindSafe(|| lint_program(text, image)));
                    assert!(
                        outcome.is_ok(),
                        "seed {seed} {config}: lint panicked on {:?} with {image:?}",
                        text.text()
                    );
                    linted += 1;
                    with_images += usize::from(image.is_some());
                }
            }
            if own.is_some() {
                foreign[c] = own;
            }
        }
    }
    // the net must lint with images as well as without
    assert!(
        with_images > linted / 3,
        "{with_images} of {linted} lints had an image"
    );
}
