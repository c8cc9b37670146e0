//! Metric names, the result line, and small statistics helpers.

use std::time::Duration;
use zolc_bench::json::Json;

/// End-to-end metrics of an untraced run: `(name, unit)`. Every
/// workload prints all of them (see the note in this directory for what
/// an "operation" is on each workload).
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of a traced run: `(name, unit)`. Every workload
/// prints all of them; a layer the workload does not call reads 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("gen.generate_s", "s"),
    ("gen.assemble_s", "s"),
    ("bench.reference_s", "s"),
    ("sim.compile_s", "s"),
    ("cfg.retarget_s", "s"),
    ("cfg.retarget_calls", "count/op"),
    ("cfg.cfg_build_s", "s"),
    ("cfg.dominators_s", "s"),
    ("cfg.loop_forest_s", "s"),
    ("cfg.detect_s", "s"),
    ("analyze.liveness_s", "s"),
    ("cfg.hw_loops", "count/call"),
    ("cfg.unhandled", "count/call"),
    ("cfg.handled_ratio", "ratio"),
    ("cfg.init_instructions", "count/call"),
    ("cfg.lint_s", "s"),
    ("lang.compile_s", "s"),
    ("ir.lower_s", "s"),
    ("sim.session_open_s", "s"),
    ("sim.run_s", "s"),
    ("sim.retired", "count/op"),
    ("sim.cycles", "count/op"),
    ("kernels.check_s", "s"),
    ("bench.parallel_efficiency", "ratio"),
    ("sim.first_run_s", "s"),
    ("sim.superblock_compiles", "count"),
    ("nest.passive.ns_per_instr", "ns"),
    ("nest.active.ns_per_instr", "ns"),
    ("pipeline.ns_per_instr", "ns"),
    ("core.on_fetch_calls", "count/op"),
    ("core.on_execute_calls", "count/op"),
    ("core.hooks_per_instr", "ratio"),
    ("core.hook_s", "s"),
    ("daemon.rtt_s", "s"),
    ("daemon.compute_s", "s"),
    ("daemon.transport_s", "s"),
    ("bench.json_parse_s", "s"),
    ("daemon.cache_hit_ratio", "ratio"),
    ("daemon.cache_entries", "count"),
    ("trace.overhead_pct", "%"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (one of [`END_TO_END`] or [`PER_LAYER`]).
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
}

/// What a workload run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Checked operations.
    pub attempted: u64,
    /// Operations whose output was wrong, or that panicked or errored.
    pub failed: u64,
    /// The metrics, by name.
    pub metrics: Vec<Metric>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("unknown metric {name}"))
}

/// The last line of a run's output: `correct`, `attempted`, `failed`
/// and every metric with its unit.
pub fn result_line(o: &Outcome) -> String {
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            (
                m.name.to_owned(),
                Json::Obj(vec![
                    ("value".into(), Json::f64(v)),
                    ("unit".into(), Json::Str(unit_of(m.name).into())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        (
            "correct".into(),
            Json::Bool(o.failed == 0 && o.attempted > 0),
        ),
        ("attempted".into(), Json::u64(o.attempted)),
        ("failed".into(), Json::u64(o.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .render()
}

/// The `q` quantile (0..=1) of `v` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Whether set-up number `done` (of [`crate::SETUPS`]) is due once
/// `elapsed` of the timed loop's `budget` has passed. Set-ups are spread
/// over the run, so their median does not rest on one stretch of
/// machine time.
pub fn setup_due(done: usize, elapsed: Duration, budget: Duration) -> bool {
    done < crate::SETUPS
        && elapsed.as_secs_f64() >= budget.as_secs_f64() * done as f64 / crate::SETUPS as f64
}

/// The end-to-end metrics: `ops_per_s`, latency percentiles over every
/// checked repetition's latency in `latencies_s` (seconds), set-up time
/// as the median of `setups_s`.
pub fn end_to_end(ops_per_s: f64, latencies_s: &[f64], setups_s: &[f64]) -> Vec<Metric> {
    let setups: Vec<String> = setups_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("set-up seconds: {}", setups.join(" "));
    vec![
        Metric {
            name: "ops_per_s",
            value: ops_per_s,
        },
        Metric {
            name: "op_p50_ms",
            value: 1e3 * quantile(latencies_s, 0.5),
        },
        Metric {
            name: "op_p90_ms",
            value: 1e3 * quantile(latencies_s, 0.9),
        },
        Metric {
            name: "setup_s",
            value: median(setups_s),
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
        },
    ]
}

/// Peak resident memory of this process in MiB (`VmHWM`), 0 where the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fills in every per-layer metric the workload did not produce with 0
/// and orders them as [`PER_LAYER`].
pub fn per_layer(mut found: Vec<Metric>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|(name, _)| {
            let value = found
                .iter()
                .position(|m| m.name == *name)
                .map_or(0.0, |i| found.swap_remove(i).value);
            Metric { name, value }
        })
        .collect()
}

/// FNV-1a over `bytes`, the digest the pins are recorded with.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Looks up `key` in a pins file: lines of whitespace-separated fields
/// whose leading fields equal `key`; returns the remaining fields.
pub fn pin<'a>(pins: &'a str, key: &[&str]) -> Option<Vec<&'a str>> {
    pins.lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|f| f.len() > key.len() && f[..key.len()] == *key)
        .map(|f| f[key.len()..].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn pins_match_leading_fields() {
        let pins = "# comment\na b 1 2\na c 3\n";
        assert_eq!(pin(pins, &["a", "b"]), Some(vec!["1", "2"]));
        assert_eq!(pin(pins, &["a", "c"]), Some(vec!["3"]));
        assert_eq!(pin(pins, &["x"]), None);
    }

    #[test]
    fn per_layer_fills_every_name_in_order() {
        let m = per_layer(vec![Metric {
            name: "sim.run_s",
            value: 2.0,
        }]);
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(m.iter().find(|x| x.name == "sim.run_s").unwrap().value, 2.0);
        assert_eq!(m[0].name, PER_LAYER[0].0);
    }
}
