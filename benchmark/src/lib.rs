//! The repository benchmark: three workloads over the zolc crates, an
//! untraced run that prints the end-to-end metrics and a traced run
//! that prints the per-layer metrics. See `README.md` in this directory.
//!
//! Every span is recorded here, around calls into the crates' public
//! functions; nothing inside the crates is instrumented.

#![warn(missing_docs)]

pub mod daemon;
pub mod e7;
pub mod engine;
pub mod kernels;
pub mod report;
pub mod trace;

use std::any::Any;
use zolc_kernels::Expectation;
use zolc_sim::Executor;

/// Pinned simulated results and report digests (see `README.md`).
pub const PINS: &str = include_str!("../pins.txt");

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["e7_sweep", "kernels_warm", "daemon_jobs"];

/// The development seed the benchmark was tuned on.
pub const DEV_SEED: u64 = 1;

/// The held-out seed, for re-checking a claim on a seed it was not
/// tuned on.
pub const HELD_OUT_SEED: u64 = 7_919;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Command-line arguments of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed: every input of the run derives from it.
    pub seed: u64,
    /// Seconds the run measures for.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    ///
    /// # Errors
    ///
    /// A usage message for a missing, unknown or malformed argument.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value) => workload = Some(value.to_owned()),
                "--workload" => return Err(format!("unknown workload `{value}`")),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
        })
    }
}

/// Whether a finished session's registers and memory match `expect`
/// (the comparison `BuiltKernel::run` makes).
pub fn expectation_holds(cpu: &dyn Executor, expect: &Expectation) -> bool {
    let mem_ok = expect.mem_words.iter().all(|(addr, words)| {
        cpu.mem()
            .read_words(*addr, words.len())
            .is_ok_and(|got| got == *words)
    });
    mem_ok && expect.regs.iter().all(|(r, v)| cpu.regs().read(*r) == *v)
}

/// The message of a caught panic.
pub fn panic_message(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// Writes a traced run's retained spans to
/// `out/trace-<workload>-<seed>.csv` under this package's directory.
pub fn write_trace(workload: &str, seed: u64, tr: &trace::Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{workload}-{seed}.csv"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.spans_csv())) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("could not write spans to {}: {e}", path.display()),
    }
}
