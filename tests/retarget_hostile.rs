//! Hostile-input net for the retargeter (`zolc_cfg::retarget` and
//! `RetargetPlan`).
//!
//! Seeded random decodable texts from `tests/common/hostile.rs`
//! (including the rejected `jal`/`jr`/`zwr`/`zctl`). Every text is
//! retargeted on three configurations and must
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
//! text's image (also with its addresses shifted off instruction
//! boundaries or past the end of the text, and with loop 0 claiming the
//! whole address space), and must never panic.

mod common;

use common::hostile::hostile_text;
use std::panic::{catch_unwind, AssertUnwindSafe};
use zolc::cfg::{lint_program, retarget, RetargetError, RetargetPlan, Retargeted};
use zolc::core::{AddrVal, ZolcConfig, ZolcImage};
use zolc::gen::GenRng;
use zolc::isa::{reg, Instr, Program};

/// Random texts per run (about 2 s in a debug build).
const PROGRAMS: u64 = 8000;

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

/// `image` with every resolved loop address moved by `by` bytes.
fn shifted(image: &ZolcImage, by: u32) -> ZolcImage {
    let mut image = image.clone();
    for l in &mut image.loops {
        for a in [&mut l.start, &mut l.end] {
            if let Some(v) = a.abs() {
                *a = AddrVal::Abs(v.wrapping_add(by));
            }
        }
    }
    image
}

/// `image` with loop 0 spanning the whole address space, with an index
/// register: the body scan must stop at the end of the text.
fn spanning(image: &ZolcImage) -> ZolcImage {
    let mut image = image.clone();
    if let Some(l) = image.loops.first_mut() {
        l.start = AddrVal::Abs(0);
        l.end = AddrVal::Abs(0xFFFF_FFF0);
        l.index_reg = Some(reg(2));
    }
    image
}

/// Hostile-input net for `lint_program`, on the same texts: each text
/// and each of its retargeted texts is linted with no image, with the
/// text's own retargeted image and with a foreign text's image, as is,
/// shifted by 2 bytes, pushed past the end of the text and with loop 0
/// spanning the address space, on every configuration, and must never
/// panic.
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
            let foreign_image = foreign[c].as_ref().map(|r| &r.image);
            let texts = std::iter::once(&program).chain(own.as_ref().map(|r| &*r.program));
            for text in texts {
                let past_end = 4 * text.text().len() as u32;
                let moved = [2, past_end].map(|by| foreign_image.map(|i| shifted(i, by)));
                let spans = foreign_image.map(spanning);
                let images = [
                    None,
                    own.as_ref().map(|r| &r.image),
                    foreign_image,
                    moved[0].as_ref(),
                    moved[1].as_ref(),
                    spans.as_ref(),
                ];
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
