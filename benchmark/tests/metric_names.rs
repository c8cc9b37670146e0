//! Metric names and units agree with `BENCHMARK.json`, and the result
//! line has the agreed shape.

use zolc_bench::json::{self, Json};
use zolc_repo_bench::report::{end_to_end, per_layer, result_line, Outcome, END_TO_END, PER_LAYER};
use zolc_repo_bench::WORKLOADS;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn valid_name(n: &str) -> bool {
    n.len() <= 64
        && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn names_use_the_allowed_characters() {
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_name(name), "{name}");
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{unit}"
        );
    }
    for w in WORKLOADS {
        assert!(valid_name(w), "{w}");
    }
}

#[test]
fn names_match_benchmark_json() {
    let doc = benchmark_json();
    let pairs = |v: &[(&str, &str)]| -> Vec<(String, String)> {
        v.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(declared(&doc, "end_to_end"), pairs(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), pairs(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn result_line_has_the_agreed_keys() {
    let out = Outcome {
        attempted: 3,
        failed: 0,
        metrics: end_to_end(100.0, &[0.01, 0.02], &[0.5]),
    };
    let doc = json::parse(&result_line(&out)).expect("result line is JSON");
    let Json::Obj(fields) = &doc else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    let metrics = doc.get("metrics").unwrap();
    for (name, unit) in END_TO_END {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
        assert!(m.get("value").and_then(Json::as_f64).is_some());
    }
    assert_eq!(per_layer(Vec::new()).len(), PER_LAYER.len());
}
