//! Design-space explorer CLI: sweep generated loop structures across
//! controller configurations, or inspect a single generated program.
//!
//! ```sh
//! cargo run --release --example explore                  # standard sweep
//! cargo run --release --example explore -- --programs 50 --trips 24
//! cargo run --release --example explore -- --executor functional  # correctness-only, faster
//! cargo run --release --example explore -- --executor nest        # correctness-only, fastest
//! cargo run --release --example explore -- --show 17     # one seed in detail
//! cargo run --release --example explore -- --analyze 17  # dataflow facts + lint for one seed
//! # closed-form cross-check: every oracle-analyzable program must
//! # bit-match all three executors; exit 1 below the coverage floor
//! cargo run --release --example explore -- --no-dbnz --oracle-check --oracle-floor 50
//! ```
//!
//! Knobs: `--programs N`, `--seed S`, `--trips T`, `--depth D`,
//! `--loops L`, `--no-skips`, `--no-reg-bounds`, `--no-dbnz`,
//! `--executor <pipeline|functional|nest>`, `--show SEED`,
//! `--analyze SEED`, `--oracle-check`, `--oracle-floor PCT`. Flags the
//! chosen mode would ignore — e.g. `--show` or `--oracle-check` with
//! `--executor` — and a seed range whose end does not fit a `u64` are
//! usage errors: one line on stderr, exit status 2.

use zolc::bench::{run_oracle_check, run_sweep, SweepConfig};
use zolc::cfg::retarget;
use zolc::core::ZolcConfig;
use zolc::gen::{GenConfig, ProgramSpec};

/// Takes the flag's value argument, exiting with a one-line error (and
/// status 2, like any other usage error here) when it is missing or
/// unparsable — a typo'd invocation must not panic with a backtrace.
fn parse_flag<T: std::str::FromStr>(args: &mut std::env::Args, flag: &str) -> T {
    let Some(raw) = args.next() else {
        eprintln!("{flag} needs a value (see the example header for knobs)");
        std::process::exit(2);
    };
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: `{raw}` is not a valid value");
        std::process::exit(2);
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = SweepConfig::standard();
    let mut show: Option<u64> = None;
    let mut analyze: Option<u64> = None;
    let mut oracle_check = false;
    let mut oracle_floor: Option<f64> = None;
    let mut executor_flag = false;

    let mut args = std::env::args();
    args.next(); // program name
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--programs" => cfg.programs = parse_flag(&mut args, "--programs"),
            "--seed" => cfg.base_seed = parse_flag(&mut args, "--seed"),
            "--trips" => cfg.gen.max_trips = parse_flag(&mut args, "--trips"),
            "--depth" => cfg.gen.max_depth = parse_flag(&mut args, "--depth"),
            "--loops" => cfg.gen.max_loops = parse_flag(&mut args, "--loops"),
            "--no-skips" => cfg.gen.skips = false,
            "--no-reg-bounds" => cfg.gen.reg_bounds = false,
            "--no-dbnz" => cfg.gen.dbnz = false,
            "--executor" => {
                let name: String = parse_flag(&mut args, "--executor");
                cfg.executor = name.parse().unwrap_or_else(|e| {
                    eprintln!("--executor: {e}");
                    std::process::exit(2);
                });
                executor_flag = true;
            }
            "--show" => show = Some(parse_flag(&mut args, "--show")),
            "--analyze" => analyze = Some(parse_flag(&mut args, "--analyze")),
            "--oracle-check" => oracle_check = true,
            "--oracle-floor" => oracle_floor = Some(parse_flag(&mut args, "--oracle-floor")),
            other => {
                eprintln!("unknown argument `{other}` (see the example header for knobs)");
                std::process::exit(2);
            }
        }
    }

    // A flag the chosen mode would silently ignore is a usage error
    // (status 2, PR 6 convention), not a default.
    let reject = |bad: bool, msg: &str| {
        if bad {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    if show.is_some() {
        reject(
            executor_flag,
            "--show prints one seed without running it; it cannot be combined with --executor",
        );
        reject(
            oracle_check || oracle_floor.is_some(),
            "--show cannot be combined with --oracle-check/--oracle-floor",
        );
        reject(
            analyze.is_some(),
            "--show cannot be combined with --analyze (pick one inspection mode)",
        );
    }
    if analyze.is_some() {
        reject(
            executor_flag,
            "--analyze prints dataflow facts without running the seed; it cannot be combined with --executor",
        );
        reject(
            oracle_check || oracle_floor.is_some(),
            "--analyze cannot be combined with --oracle-check/--oracle-floor",
        );
    }
    if oracle_check {
        reject(
            executor_flag,
            "--oracle-check always cross-checks all three executors; it cannot be combined with --executor",
        );
    }

    if let Some(seed) = show {
        return show_one(seed, &cfg.gen);
    }

    if let Some(seed) = analyze {
        return analyze_one(seed, &cfg.gen);
    }

    let Some(seeds) = cfg.seeds() else {
        eprintln!(
            "--seed {} --programs {}: the seed range does not fit a u64",
            cfg.base_seed, cfg.programs
        );
        std::process::exit(2);
    };

    if oracle_check {
        // Cross-check mode: summarize each generated baseline program
        // in closed form and hold all three executors to the summary.
        // A bit-mismatch panics inside the check; a coverage shortfall
        // against `--oracle-floor` exits 1 so CI can gate on it.
        println!(
            "oracle cross-check over {} generated programs (seeds {}..{})\n",
            cfg.programs, seeds.start, seeds.end,
        );
        let report = run_oracle_check(&cfg);
        println!("{report}");
        if let Some(floor) = oracle_floor {
            if report.coverage_percent() < floor {
                eprintln!(
                    "oracle coverage {:.1}% is below the recorded floor {floor}%",
                    report.coverage_percent()
                );
                std::process::exit(1);
            }
            println!("\ncoverage holds the {floor}% floor");
        }
        return Ok(());
    }
    if oracle_floor.is_some() {
        eprintln!("--oracle-floor needs --oracle-check");
        std::process::exit(2);
    }

    println!(
        "sweeping {} generated programs (seeds {}..{}) x {} configurations, {} cells\n",
        cfg.programs,
        seeds.start,
        seeds.end,
        cfg.points.len(),
        cfg.cells(),
    );
    println!("{}", run_sweep(&cfg));
    Ok(())
}

/// Prints one generated program in full: its shape, its baseline
/// listing, and what `retarget` does to it on `ZOLClite`.
fn show_one(seed: u64, gen: &GenConfig) -> Result<(), Box<dyn std::error::Error>> {
    let spec = ProgramSpec::generate(seed, gen);
    println!(
        "seed {seed}: {} loops, depth {}, predicted software fallbacks {}",
        spec.loop_count(),
        spec.max_depth(),
        spec.predicted_unhandled()
    );
    for (depth, shape) in spec.flatten() {
        println!(
            "  {}loop trips={} {:?}/{:?} pre={} post={} children={}{}{}",
            "  ".repeat(depth - 1),
            shape.trips,
            shape.bound,
            shape.latch,
            shape.pre.len(),
            shape.post.len(),
            shape.children.len(),
            if shape.pre_skip { " pre-skip" } else { "" },
            if shape.emits_tail_skip() {
                " tail-skip"
            } else {
                ""
            },
        );
    }
    let assembled = spec.assemble()?;
    println!("\nbaseline program:\n{}", assembled.program.listing());
    let r = retarget(&assembled.program, &ZolcConfig::lite())?;
    println!(
        "retarget on ZOLClite: {} hardware loops, {} in software, {} instructions excised,\n\
         {} init instructions",
        r.counted.len(),
        r.unhandled.len(),
        r.excised,
        r.init_instructions
    );
    for note in &r.notes {
        println!("  note: {note}");
    }
    println!("\nretargeted program:\n{}", r.program.listing());
    Ok(())
}

/// Prints the dataflow view of one generated program: per-block
/// reachability, live-in sets and constant facts on the baseline, then
/// the binary lint report for both the baseline and the retargeted
/// (`ZOLClite`) form — the latter linted against its table image so the
/// hardware back edges are part of the graph.
fn analyze_one(seed: u64, gen: &GenConfig) -> Result<(), Box<dyn std::error::Error>> {
    use zolc::analyze::{reachable_blocks, solve, ConstProp, Liveness, RegSet};
    use zolc::cfg::{lint_program, Cfg};

    let spec = ProgramSpec::generate(seed, gen);
    println!(
        "seed {seed}: {} loops, depth {}, predicted software fallbacks {}",
        spec.loop_count(),
        spec.max_depth(),
        spec.predicted_unhandled()
    );
    let assembled = spec.assemble()?;
    let program = &assembled.program;

    let flow = Cfg::build(program).flow(program);
    let live = solve(
        &flow,
        &Liveness {
            at_exit: RegSet::ALL,
        },
    );
    let consts = solve(&flow, &ConstProp);
    let reachable = reachable_blocks(&flow);
    println!("\nbaseline dataflow ({} blocks):", flow.len());
    for (b, block) in flow.blocks().iter().enumerate() {
        // Only non-zero constants: every register starts at zero, so
        // printing the zeros would drown the facts that were computed.
        let known: Vec<String> = consts.block_in[b]
            .iter()
            .flat_map(|facts| facts.iter())
            .filter_map(|(r, cv)| {
                cv.as_const()
                    .filter(|v| *v != 0)
                    .map(|v| format!("{r}={v:#x}"))
            })
            .collect();
        println!(
            "  block {b} @ {:#06x}..{:#06x}{}: live-in {}{}",
            block.start,
            block.end(),
            if reachable[b] { "" } else { " (unreachable)" },
            live.block_in[b],
            if known.is_empty() {
                String::new()
            } else {
                format!(", const {{{}}}", known.join(", "))
            },
        );
    }
    println!("\nbaseline lint:\n{}", lint_program(program, None));

    let r = retarget(program, &ZolcConfig::lite())?;
    println!(
        "retarget on ZOLClite: {} hardware loops, {} in software",
        r.counted.len(),
        r.unhandled.len(),
    );
    println!(
        "\nretargeted lint (against its table image):\n{}",
        lint_program(&r.program, Some(&r.image))
    );
    Ok(())
}
