//! Pins the cycle-accurate pipeline's complete [`Stats`] — every field,
//! not only `cycles` — on every Fig. 2 kernel and every `zolc-lang`
//! corpus program, each on every [`fig2_targets`] build plus the
//! baseline auto-retargeted onto ZOLClite.
//!
//! The pipeline is the executor behind every cycle count the
//! reproduction reports, so any change to its internals must leave
//! these rows byte-identical. The table lives in
//! `tests/pipeline_stats_pins.txt`; a mismatch prints the full table the
//! code now produces, so an intended timing change can be re-recorded
//! deliberately.

use zolc::core::ZolcConfig;
use zolc::ir::Target;
use zolc::kernels::{build_kernel_auto, fig2_targets, kernels, BuiltKernel, ExecutorKind};
use zolc::sim::Stats;

const PINS: &str = include_str!("pipeline_stats_pins.txt");

const HEADER: &str = "# program build cycles retired load_use_stalls flushes flush_cycles \
branches taken_branches dbnz_retired zolc_redirects zolc_index_writes zwr_retired zctl_retired";

/// One table row: the build, then every `Stats` field in declaration
/// order. The exhaustive destructuring makes a new field a compile
/// error here rather than a silently unpinned counter.
fn row(name: &str, build: &str, s: &Stats) -> String {
    let Stats {
        cycles,
        retired,
        load_use_stalls,
        flushes,
        flush_cycles,
        branches,
        taken_branches,
        dbnz_retired,
        zolc_redirects,
        zolc_index_writes,
        zwr_retired,
        zctl_retired,
    } = *s;
    format!(
        "{name} {build} {cycles} {retired} {load_use_stalls} {flushes} {flush_cycles} \
         {branches} {taken_branches} {dbnz_retired} {zolc_redirects} {zolc_index_writes} \
         {zwr_retired} {zctl_retired}"
    )
}

/// Runs `built` on the pipeline, checks it against its reference, and
/// renders its row.
fn pipeline_row(name: &str, build: &str, built: &BuiltKernel) -> String {
    let run = built
        .run(10_000_000, ExecutorKind::CycleAccurate)
        .unwrap_or_else(|e| panic!("{name}/{build}: {e}"));
    assert!(run.is_correct(), "{name}/{build}: {:?}", run.mismatches);
    row(name, build, &run.stats)
}

/// Every pinned row, in a fixed order.
fn table() -> Vec<String> {
    let lite = ZolcConfig::lite();
    let mut rows = vec![HEADER.to_owned()];
    for k in kernels() {
        let name = format!("fig2.{}", k.name);
        for target in fig2_targets() {
            let built = (k.build)(&target).expect("kernel builds");
            rows.push(pipeline_row(&name, &target.to_string(), &built));
        }
        let auto = build_kernel_auto(k, lite).expect("kernel retargets");
        rows.push(pipeline_row(&name, "auto-ZOLClite", &auto.built));
    }
    for e in zolc::lang::corpus() {
        let name = format!("lang.{}", e.name);
        let unit = zolc::lang::compile(e.name, e.source).expect("corpus compiles");
        for target in fig2_targets() {
            let built = unit.build(&target).expect("corpus program builds");
            rows.push(pipeline_row(&name, &target.to_string(), &built));
        }
        let auto = unit
            .build(&Target::Baseline)
            .and_then(|base| base.retarget(lite))
            .expect("corpus program retargets");
        rows.push(pipeline_row(&name, "auto-ZOLClite", &auto.built));
    }
    rows
}

#[test]
fn pipeline_stats_match_the_pinned_table() {
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
        "pipeline Stats drifted ({} pinned rows, {} produced):\n{}\n\nfull table now:\n{}",
        want.len(),
        got.len(),
        drifted.join("\n"),
        got.join("\n")
    );
}
