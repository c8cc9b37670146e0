//! `--oracle-check` — the E7 sweep's closed-form cross-check.
//!
//! Where [`run_sweep`](crate::run_sweep) gates every cell on the
//! program's *own* functional reference run, this mode gates the
//! generated baseline programs on `zolc-oracle`: an analyzer that
//! derives final machine states from the ISA spec alone, sharing no
//! code with the executors' semantics core. Every program the oracle
//! claims to analyze is run on all three executor tiers and must
//! bit-match the summary — registers, data memory, retire and branch
//! counts. Refusals are tallied by [`Reason`](zolc_oracle::Reason)
//! label so coverage regressions show up as a shifted distribution,
//! and the report records the coverage percentage CI holds a floor on.
//!
//! Only the baseline (software-loop) cells are checked: retargeted
//! overlays contain `zwr`/`zctl` by construction, which the oracle
//! refuses as `zolc-instr` — it models engine-passive programs only.

use crate::matrix::{par_map, MAX_FUEL};
use crate::sweep::{GeneratedProgram, SweepConfig};
use crate::table::render_table;
use std::collections::BTreeMap;
use std::fmt;
use zolc_gen::ProgramSpec;
use zolc_isa::DATA_BASE;
use zolc_sim::{run_session, ExecutorKind, NullEngine, MEM_SIZE};

/// The outcome of one oracle cross-check sweep (render with
/// `Display`; the coverage percentage backs CI's recorded floor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleReport {
    /// Generated baseline programs checked.
    pub programs: usize,
    /// Programs the oracle summarized — every one bit-matched all three
    /// executors (a mismatch panics the sweep, it is never recorded).
    pub covered: usize,
    /// Refusal tallies by [`Reason`](zolc_oracle::Reason) label,
    /// descending by count.
    pub refusals: Vec<(String, usize)>,
}

impl OracleReport {
    /// Covered programs as a percentage of all checked programs.
    pub fn coverage_percent(&self) -> f64 {
        if self.programs == 0 {
            return 0.0;
        }
        100.0 * self.covered as f64 / self.programs as f64
    }

    /// The coverage table: the covered row first, then one row per
    /// refusal reason with its share of all programs.
    pub fn table(&self) -> String {
        let share = |n: usize| {
            format!(
                "{n}/{} ({:.1}%)",
                self.programs,
                100.0 * n as f64 / self.programs.max(1) as f64
            )
        };
        let mut rows = vec![vec![
            "covered (bit-matched 3 executors)".to_string(),
            share(self.covered),
        ]];
        for (label, n) in &self.refusals {
            rows.push(vec![format!("refused: {label}"), share(*n)]);
        }
        render_table(&["oracle outcome", "programs"], &rows)
    }
}

impl fmt::Display for OracleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "oracle cross-check: {} of {} baseline programs summarized in closed form \
             ({:.1}% coverage), every summary bit-matched all three executors\n",
            self.covered,
            self.programs,
            self.coverage_percent()
        )?;
        f.write_str(&self.table())
    }
}

/// Runs the oracle cross-check over the sweep's generated baseline
/// programs: summarize each, and where the oracle claims analyzability,
/// hold all three executors to the summary bit-for-bit.
///
/// # Panics
///
/// Panics when the seed range overflows ([`SweepConfig::seeds`]), when
/// an executor run fails, or when any architectural outcome differs
/// from an oracle summary — by the matrix convention, a divergence
/// between the spec-derived closed form and the executors is fatal,
/// never aggregated.
pub fn run_oracle_check(cfg: &SweepConfig) -> OracleReport {
    let seeds = cfg.seeds().expect("sweep seed range overflows u64");
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let outcomes: Vec<Option<&'static str>> = par_map(cfg.programs, threads, |i| {
        let seed = seeds.start + i as u64;
        let spec = ProgramSpec::generate(seed, &cfg.gen);
        check_one(&GeneratedProgram::from_spec(format!("gen{seed:05}"), spec))
    });
    let mut tally: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut covered = 0usize;
    for outcome in &outcomes {
        match outcome {
            None => covered += 1,
            Some(label) => *tally.entry(label).or_default() += 1,
        }
    }
    let mut refusals: Vec<(String, usize)> =
        tally.into_iter().map(|(l, n)| (l.to_string(), n)).collect();
    refusals.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    OracleReport {
        programs: cfg.programs,
        covered,
        refusals,
    }
}

/// Checks one generated program; returns the refusal label, or `None`
/// after a verified bit-match against all three executors.
fn check_one(g: &GeneratedProgram) -> Option<&'static str> {
    let source = g.program.source();
    let summary = match zolc_oracle::summarize(source, MEM_SIZE) {
        Ok(s) => s,
        Err(e) => return Some(e.0.label()),
    };
    if summary.retired > MAX_FUEL {
        // An analyzable program the executors could not replay within
        // the matrix fuel budget cannot be cross-checked.
        return Some("over-fuel");
    }
    // The summary's touched bytes over the initial image must
    // reconstruct the entire final data window of every executor.
    let window = MEM_SIZE - DATA_BASE as usize;
    let mut expect_mem = vec![0u8; window];
    expect_mem[..source.data().len()].copy_from_slice(source.data());
    for &(addr, byte) in &summary.touched_mem {
        if addr >= DATA_BASE {
            expect_mem[(addr - DATA_BASE) as usize] = byte;
        }
    }
    for kind in ExecutorKind::ALL {
        let fin = run_session(kind, &g.program, &mut NullEngine, MAX_FUEL)
            .unwrap_or_else(|e| panic!("{}: {kind} failed on a covered cell: {e}", g.name));
        assert_eq!(
            summary.final_regs,
            fin.cpu.regs().snapshot(),
            "{}: oracle registers differ from {kind}",
            g.name
        );
        assert_eq!(
            summary.retired, fin.stats.retired,
            "{}: oracle retire count differs from {kind}",
            g.name
        );
        assert_eq!(
            summary.branches, fin.stats.branches,
            "{}: oracle branch count differs from {kind}",
            g.name
        );
        assert_eq!(
            summary.taken_branches, fin.stats.taken_branches,
            "{}: oracle taken-branch count differs from {kind}",
            g.name
        );
        assert_eq!(
            expect_mem,
            fin.cpu.mem().read_bytes(DATA_BASE, window).unwrap(),
            "{}: oracle data memory differs from {kind}",
            g.name
        );
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use zolc_gen::GenConfig;

    #[test]
    fn smoke_check_verifies_and_tallies() {
        let cfg = SweepConfig::new().with_programs(24).with_base_seed(500);
        let report = run_oracle_check(&cfg);
        assert_eq!(report.programs, 24);
        let refused: usize = report.refusals.iter().map(|(_, n)| n).sum();
        assert_eq!(report.covered + refused, 24);
        assert!(
            report.covered > 0,
            "default-config coverage collapsed: {report}"
        );
        let rendered = report.to_string();
        assert!(rendered.contains("oracle outcome"));
    }

    #[test]
    fn dbnz_free_space_holds_recorded_floor() {
        // A deterministic 32-program sample of the dbnz-free space; its
        // exact coverage (43.8% at this seed window) backs the floor
        // asserted here. The smoke-scale figure CI holds a 50% floor on
        // (51.5% over 200 programs) is recorded in EXPERIMENTS.md.
        let cfg = SweepConfig::new()
            .with_programs(32)
            .with_base_seed(500)
            .with_gen(GenConfig::default().with_dbnz(false));
        let report = run_oracle_check(&cfg);
        assert!(
            report.coverage_percent() >= 40.0,
            "dbnz-free coverage below the recorded floor: {report}"
        );
        assert!(report
            .refusals
            .iter()
            .all(|(label, _)| label != "dbnz-latch"));
    }
}
