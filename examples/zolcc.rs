//! `zolcc` — the zolc-lang compiler driver: compile a C-like loop
//! program, inspect what the front end produced, or run the result on
//! any executor tier against its compile-time reference.
//!
//! ```sh
//! cargo run --example zolcc -- prog.zl                  # compile + run (baseline)
//! cargo run --example zolcc -- --corpus dot             # a bundled corpus program
//! cargo run --example zolcc -- prog.zl --target zolc    # ZOLClite hand lowering
//! cargo run --example zolcc -- prog.zl --target auto    # binary auto-retarget
//! cargo run --example zolcc -- prog.zl --emit ir        # the generated LoopIr
//! cargo run --example zolcc -- prog.zl --emit asm       # disassembly listing
//! cargo run --example zolcc -- prog.zl --emit bin       # encoded text + data hex
//! cargo run --example zolcc -- prog.zl --executor nest  # pick the executor tier
//! cargo run --example zolcc -- prog.zl --lint           # binary lint pass
//! cargo run --example zolcc -- --list-corpus            # bundled program index
//! cargo run --example zolcc -- --check-corpus           # CI gate (see below)
//! ```
//!
//! Knobs: `FILE.zl` or `--corpus NAME`, `--target
//! <baseline|hwloop|zolc|auto>`, `--emit <ir|asm|bin>`, `--executor
//! <pipeline|functional|nest>`, `--lint`, `--list-corpus`,
//! `--check-corpus`. Usage errors exit 2 with a one-line message;
//! compile diagnostics and verification failures exit 1.
//!
//! `--lint` runs the `zolc-analyze`-backed binary lint pass
//! ([`zolc::cfg::lint_program`]) over the built program — with the
//! synthesized table image when the target produces one, so
//! index-register clobbers are checked too — prints the report, and
//! exits 1 if there are findings.
//!
//! `--check-corpus` is the CI `frontend-corpus` gate: every bundled
//! program must compile with its pinned loop shape, run bit-exact on
//! all three executor tiers for every hand target, and auto-retarget
//! with its pinned handled-loop count (again bit-exact on all tiers).

use zolc::core::ZolcConfig;
use zolc::ir::Target;
use zolc::lang::{compile, corpus, find_corpus, CompiledUnit};
use zolc::sim::ExecutorKind;

/// Generous fuel bound shared with the bench matrix.
const FUEL: u64 = 50_000_000;

/// Takes the flag's value argument, exiting with a one-line usage
/// error (status 2) when it is missing.
fn flag_value(args: &mut std::env::Args, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("{flag} needs a value (see the example header for knobs)");
        std::process::exit(2);
    })
}

/// What to print instead of running.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Emit {
    Ir,
    Asm,
    Bin,
}

/// How to build the program.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TargetArg {
    Hand(&'static str),
    Auto,
}

fn parse_target(name: &str) -> TargetArg {
    match name {
        "baseline" => TargetArg::Hand("baseline"),
        "hwloop" => TargetArg::Hand("hwloop"),
        "zolc" => TargetArg::Hand("zolc"),
        "auto" => TargetArg::Auto,
        other => {
            eprintln!("--target: `{other}` is not one of baseline|hwloop|zolc|auto");
            std::process::exit(2);
        }
    }
}

fn hand_target(name: &str) -> Target {
    match name {
        "baseline" => Target::Baseline,
        "hwloop" => Target::HwLoop,
        _ => Target::Zolc(ZolcConfig::lite()),
    }
}

fn main() {
    let mut file: Option<String> = None;
    let mut corpus_name: Option<String> = None;
    let mut target = TargetArg::Hand("baseline");
    let mut emit: Option<Emit> = None;
    let mut executor = ExecutorKind::CycleAccurate;
    let mut lint = false;
    let mut list_corpus = false;
    let mut check_corpus = false;

    let mut args = std::env::args();
    args.next(); // program name
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--corpus" => corpus_name = Some(flag_value(&mut args, "--corpus")),
            "--target" => target = parse_target(&flag_value(&mut args, "--target")),
            "--emit" => {
                emit = Some(match flag_value(&mut args, "--emit").as_str() {
                    "ir" => Emit::Ir,
                    "asm" => Emit::Asm,
                    "bin" => Emit::Bin,
                    other => {
                        eprintln!("--emit: `{other}` is not one of ir|asm|bin");
                        std::process::exit(2);
                    }
                });
            }
            "--executor" => {
                executor = flag_value(&mut args, "--executor")
                    .parse()
                    .unwrap_or_else(|e| {
                        eprintln!("--executor: {e}");
                        std::process::exit(2);
                    })
            }
            "--lint" => lint = true,
            "--list-corpus" => list_corpus = true,
            "--check-corpus" => check_corpus = true,
            other if !other.starts_with('-') => {
                if file.replace(other.to_owned()).is_some() {
                    eprintln!("zolcc compiles exactly one program per invocation");
                    std::process::exit(2);
                }
            }
            other => {
                eprintln!("unknown argument `{other}` (see the example header for knobs)");
                std::process::exit(2);
            }
        }
    }

    if lint && emit.is_some() {
        eprintln!("--lint and --emit are mutually exclusive");
        std::process::exit(2);
    }

    if list_corpus {
        if file.is_some() || corpus_name.is_some() || check_corpus {
            eprintln!("--list-corpus takes no program argument");
            std::process::exit(2);
        }
        for e in corpus() {
            println!(
                "{:<12} {}/{} loops  {}",
                e.name, e.counted_loops, e.while_loops, e.description
            );
        }
        return;
    }

    if check_corpus {
        if file.is_some() || corpus_name.is_some() || emit.is_some() {
            eprintln!("--check-corpus checks every bundled program; it takes no program or --emit");
            std::process::exit(2);
        }
        check_whole_corpus();
        return;
    }

    let (name, source) = match (&file, &corpus_name) {
        (Some(_), Some(_)) => {
            eprintln!("give either FILE.zl or --corpus NAME, not both");
            std::process::exit(2);
        }
        (None, None) => {
            eprintln!("nothing to compile: give FILE.zl or --corpus NAME");
            std::process::exit(2);
        }
        (Some(path), None) => {
            let source = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("{path}: {e}");
                std::process::exit(1);
            });
            let name = std::path::Path::new(path).file_stem().map_or_else(
                || "program".to_owned(),
                |s| s.to_string_lossy().into_owned(),
            );
            (name, source)
        }
        (None, Some(n)) => {
            let Some(e) = find_corpus(n) else {
                eprintln!("--corpus: `{n}` is not a bundled program (try --list-corpus)");
                std::process::exit(2);
            };
            (e.name.to_owned(), e.source.to_owned())
        }
    };

    let unit = compile(&name, &source).unwrap_or_else(|d| {
        eprintln!("{name}: {d}");
        std::process::exit(1);
    });

    if emit == Some(Emit::Ir) {
        print!("{}", unit.ir());
        return;
    }

    let (built, auto_stats) = match target {
        TargetArg::Hand(t) => {
            let built = unit.build(&hand_target(t)).unwrap_or_else(|e| {
                eprintln!("{name}: build failed: {e}");
                std::process::exit(1);
            });
            (built, None)
        }
        TargetArg::Auto => {
            let auto = unit.build_auto(ZolcConfig::lite()).unwrap_or_else(|e| {
                eprintln!("{name}: auto-retarget failed: {e}");
                std::process::exit(1);
            });
            (auto.built, Some(auto.stats))
        }
    };
    let program = built.program.source();

    if lint {
        let report = zolc::cfg::lint_program(program, built.info.image.as_ref());
        print!("{report}");
        if !report.is_clean() {
            std::process::exit(1);
        }
        return;
    }

    match emit {
        Some(Emit::Ir) => unreachable!("handled above"),
        Some(Emit::Asm) => print!("{}", program.listing()),
        Some(Emit::Bin) => {
            let text = program.text_bytes();
            println!(";; text ({} words)", text.len() / 4);
            for (k, w) in text.chunks_exact(4).enumerate() {
                let word = u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
                println!("{:#06x}: {word:08x}", 4 * k);
            }
            if !program.data().is_empty() {
                println!(";; data ({} bytes)", program.data().len());
                for (k, chunk) in program.data().chunks(16).enumerate() {
                    print!("{:#06x}:", 16 * k);
                    for b in chunk {
                        print!(" {b:02x}");
                    }
                    println!();
                }
            }
        }
        None => {
            let run = built.run(FUEL, executor).unwrap_or_else(|e| {
                eprintln!("{name}: run failed: {e}");
                std::process::exit(1);
            });
            println!(
                "{name}: {} loops counted, {} explicit-branch; {} on {executor}",
                unit.counted_loops(),
                unit.while_loops(),
                built.target,
            );
            if let Some(stats) = auto_stats {
                println!(
                    "auto-retarget: {} hardware loops, {} left in software, {} instructions excised",
                    stats.hw_loops, stats.unhandled, stats.excised
                );
            }
            println!(
                "retired {} instructions{}",
                run.stats.retired,
                if run.stats.cycles > 0 {
                    format!(", {} cycles", run.stats.cycles)
                } else {
                    String::new() // architectural tiers don't count cycles
                }
            );
            if run.is_correct() {
                println!("verified against the compile-time reference interpretation");
            } else {
                eprintln!(
                    "{name}: diverged from the reference: {:?} {:?}",
                    run.mismatches, run.violations
                );
                std::process::exit(1);
            }
        }
    }
}

/// The `--check-corpus` CI gate. Prints one line per program and exits
/// 1 if anything drifted.
fn check_whole_corpus() {
    let hand = ["baseline", "hwloop", "zolc"];
    let mut failures = 0usize;
    for e in corpus() {
        let unit = match compile(e.name, e.source) {
            Ok(u) => u,
            Err(d) => {
                eprintln!("{}: front end rejected corpus program: {d}", e.name);
                failures += 1;
                continue;
            }
        };
        let mut problems: Vec<String> = Vec::new();
        if (unit.counted_loops(), unit.while_loops()) != (e.counted_loops, e.while_loops) {
            problems.push(format!(
                "loop shape {}/{} != pinned {}/{}",
                unit.counted_loops(),
                unit.while_loops(),
                e.counted_loops,
                e.while_loops
            ));
        }
        for t in hand {
            run_everywhere(&unit, &hand_target(t), t, &mut problems);
        }
        match unit.build_auto(ZolcConfig::lite()) {
            Ok(auto) => {
                if auto.stats.hw_loops != e.handled_loops {
                    problems.push(format!(
                        "auto handled {} loops != pinned {}",
                        auto.stats.hw_loops, e.handled_loops
                    ));
                }
                for kind in ExecutorKind::ALL {
                    match auto.built.run(FUEL, kind) {
                        Ok(run) if run.is_correct() => {}
                        Ok(run) => problems.push(format!(
                            "auto/{kind} diverged: {:?} {:?}",
                            run.mismatches, run.violations
                        )),
                        Err(err) => problems.push(format!("auto/{kind} failed: {err}")),
                    }
                }
            }
            Err(err) => problems.push(format!("auto-retarget failed: {err}")),
        }
        if problems.is_empty() {
            println!(
                "{:<12} ok  ({}/{} loops, {} on ZOLC hardware, {} executors bit-exact)",
                e.name,
                e.counted_loops,
                e.while_loops,
                e.handled_loops,
                ExecutorKind::ALL.len()
            );
        } else {
            failures += 1;
            for p in &problems {
                eprintln!("{}: {p}", e.name);
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} corpus programs failed the check");
        std::process::exit(1);
    }
    println!("{} corpus programs verified", corpus().len());
}

/// Runs one hand build on all three executor tiers, collecting any
/// divergence into `problems`.
fn run_everywhere(unit: &CompiledUnit, target: &Target, label: &str, problems: &mut Vec<String>) {
    let built = match unit.build(target) {
        Ok(b) => b,
        Err(err) => {
            problems.push(format!("{label}: build failed: {err}"));
            return;
        }
    };
    for kind in ExecutorKind::ALL {
        match built.run(FUEL, kind) {
            Ok(run) if run.is_correct() => {}
            Ok(run) => problems.push(format!(
                "{label}/{kind} diverged: {:?} {:?}",
                run.mismatches, run.violations
            )),
            Err(err) => problems.push(format!("{label}/{kind} failed: {err}")),
        }
    }
}
