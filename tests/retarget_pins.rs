//! Pins the retargeter's and the lint pass's complete output — every
//! field of each [`Retargeted`] (or the [`RetargetError`] message) and
//! every [`lint_program`] report — as FNV-1a digests.
//!
//! Inputs, each retargeted onto uZOLC, ZOLClite, ZOLCfull and a custom
//! 2-loop/8-task point:
//!
//! * seeds 1–2000 of the default [`GenConfig`] (the E7 programs), one
//!   row per hundred seeds and configuration;
//! * the baseline binary of every kernel, extra kernel and `zolc-lang`
//!   corpus program, one row per binary and configuration;
//! * the first 2,000 texts of `tests/common/hostile.rs` (the seeds of
//!   `retarget_hostile`'s net), one row per hundred texts and
//!   configuration.
//!
//! Each row digests the retarget results and, separately, the lint
//! reports of the input (no image) and of each retargeted program
//! (with its image). Any change to the analysis or synthesis layers
//! must leave the table in `tests/retarget_pins.txt` byte-identical; a
//! mismatch prints the full table the code now produces, so an
//! intended change can be re-recorded deliberately.

mod common;

use common::hostile::hostile_text;
use zolc::cfg::{lint_program, RetargetError, RetargetPlan, Retargeted};
use zolc::core::ZolcConfig;
use zolc::gen::{GenConfig, GenRng, ProgramSpec};
use zolc::ir::Target;
use zolc::isa::{encode, Program};
use zolc::kernels::{extra_kernels, kernels};

const PINS: &str = include_str!("retarget_pins.txt");

const HEADER: &str = "# input config retarget-digest lint-digest";

/// Generated programs and hostile texts per row.
const CHUNK: u64 = 100;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A length-prefixed string, so adjacent fields cannot alias.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Digests every field of one retarget result. The exhaustive
/// destructuring makes a new field a compile error here rather than a
/// silently unpinned output.
fn digest_retarget(h: &mut Fnv, r: &Result<Retargeted, RetargetError>) {
    let r = match r {
        Ok(r) => r,
        Err(e) => {
            h.str("err");
            h.str(&e.to_string());
            return;
        }
    };
    let Retargeted {
        program,
        image,
        counted,
        unhandled,
        counter_regs,
        scratch,
        excised,
        init_instructions,
        notes,
    } = r;
    h.str("ok");
    h.u64(program.text().len() as u64);
    for i in program.text() {
        h.bytes(&encode(i).to_le_bytes());
    }
    h.u64(program.data().len() as u64);
    h.bytes(program.data());
    h.u64(program.symbols().len() as u64);
    for (name, addr) in program.symbols() {
        h.str(name);
        h.u64(u64::from(*addr));
    }
    h.str(&format!("{image:?}"));
    h.u64(notes.len() as u64);
    for n in notes {
        h.str(n);
    }
    h.u64(counted.len() as u64);
    for c in counted {
        h.u64(u64::from(c.start));
    }
    h.u64(unhandled.len() as u64);
    for &u in unhandled {
        h.u64(u as u64);
    }
    h.u64(counter_regs.len() as u64);
    for r in counter_regs {
        h.u64(r.index() as u64);
    }
    h.u64(scratch.index() as u64);
    h.u64(*excised as u64);
    h.u64(*init_instructions as u64);
}

fn configs() -> [(&'static str, ZolcConfig); 4] {
    [
        ("uZOLC", ZolcConfig::micro()),
        ("ZOLClite", ZolcConfig::lite()),
        ("ZOLCfull", ZolcConfig::full()),
        (
            "custom-2L8T",
            ZolcConfig::custom(2, 8, 0, 0).expect("valid custom point"),
        ),
    ]
}

/// The digests of one row: `programs` retargeted onto `config` through
/// one plan each (as E7 does), with the lint reports of each input and
/// each retargeted program.
fn row(input: &str, name: &str, config: &ZolcConfig, programs: &[Program]) -> String {
    let (mut rh, mut lh) = (Fnv::new(), Fnv::new());
    for p in programs {
        let r = RetargetPlan::new(p.clone()).and_then(|plan| plan.retarget(config));
        digest_retarget(&mut rh, &r);
        lh.str(&format!("{:?}", lint_program(p, None)));
        if let Ok(r) = &r {
            lh.str(&format!("{:?}", lint_program(&r.program, Some(&r.image))));
        }
    }
    format!("{input} {name} {:016x} {:016x}", rh.0, lh.0)
}

/// Every pinned row, in a fixed order.
fn table() -> Vec<String> {
    let mut rows = vec![HEADER.to_owned()];
    let gen = GenConfig::default();
    for first in (1..=2000).step_by(CHUNK as usize) {
        let programs: Vec<Program> = (first..first + CHUNK)
            .map(|seed| {
                ProgramSpec::generate(seed, &gen)
                    .assemble()
                    .expect("generated programs assemble")
                    .program
            })
            .collect();
        let input = format!("gen.{first:04}-{:04}", first + CHUNK - 1);
        for (name, config) in configs() {
            rows.push(row(&input, name, &config, &programs));
        }
    }
    let binaries = kernels()
        .iter()
        .chain(extra_kernels())
        .map(|k| {
            let built = (k.build)(&Target::Baseline).expect("kernel builds");
            (format!("kernel.{}", k.name), built)
        })
        .chain(zolc::lang::corpus().iter().map(|e| {
            let unit = zolc::lang::compile(e.name, e.source).expect("corpus compiles");
            let built = unit
                .build(&Target::Baseline)
                .expect("corpus program builds");
            (format!("lang.{}", e.name), built)
        }));
    for (input, built) in binaries {
        let programs = [Program::clone(built.program.source())];
        for (name, config) in configs() {
            rows.push(row(&input, name, &config, &programs));
        }
    }
    for first in (0..2000).step_by(CHUNK as usize) {
        let programs: Vec<Program> = (first..first + CHUNK)
            .map(|seed| {
                let mut rng = GenRng::new(0x4057_11e0 ^ seed);
                Program::from_parts(hostile_text(&mut rng), Vec::new())
            })
            .collect();
        let input = format!("hostile.{first:04}-{:04}", first + CHUNK - 1);
        for (name, config) in configs() {
            rows.push(row(&input, name, &config, &programs));
        }
    }
    rows
}

#[test]
fn retarget_and_lint_outputs_match_the_pinned_table() {
    let got = table();
    let want: Vec<&str> = PINS.lines().filter(|l| !l.trim().is_empty()).collect();
    let drifted: Vec<String> = want
        .iter()
        .zip(&got)
        .filter(|(w, g)| **w != g.as_str())
        .map(|(w, g)| format!("pinned: {w}\n   got: {g}"))
        .collect();
    assert!(
        drifted.is_empty() && want.len() == got.len(),
        "retarget or lint output drifted ({} pinned rows, {} produced):\n{}\n\nfull table now:\n{}",
        want.len(),
        got.len(),
        drifted.join("\n"),
        got.join("\n")
    );
}
