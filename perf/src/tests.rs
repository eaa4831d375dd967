//! The smoke run and the `BENCHMARK.json` contract.

use std::collections::BTreeSet;

use crate::json::{self, Value};
use crate::{metrics, parse_args, run_workload, workloads};

fn smoke_args(trace: bool) -> crate::Args {
    let trace = if trace { "1" } else { "0" };
    let argv = ["--smoke", "--seed", "7", "--trace", trace].map(String::from);
    parse_args(&argv).unwrap()
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
}

type Row = (String, String, String, Option<f64>);

/// `(name, unit, better, bound)` of every entry under `key`.
fn listed(doc: &Value, key: &str) -> Vec<Row> {
    let rows = doc.get(key).expect("key present").as_arr().iter();
    rows.map(|m| {
        let text = |k: &str| m.get(k).and_then(Value::as_str).expect("string field");
        let bound = m.get("bound").and_then(Value::as_f64);
        (
            text("name").into(),
            text("unit").into(),
            text("better").into(),
            bound,
        )
    })
    .collect()
}

fn defined(defs: Vec<metrics::Def>) -> Vec<Row> {
    let row = |d: metrics::Def| (d.name, d.unit.into(), d.better.into(), d.bound);
    defs.into_iter().map(row).collect()
}

#[test]
fn benchmark_json_lists_exactly_what_the_binary_prints() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(listed(&doc, "end_to_end"), defined(metrics::end_to_end()));
    assert_eq!(listed(&doc, "per_layer"), defined(metrics::per_layer()));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .unwrap()
        .as_arr()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(workloads, workloads::NAMES);
    for def in metrics::end_to_end() {
        assert!(
            def.bound.is_some_and(|b| b > 0.0 && b <= 0.25),
            "{}",
            def.name
        );
    }
    let all: Vec<String> = metrics::end_to_end()
        .into_iter()
        .chain(metrics::per_layer())
        .map(|d| d.name)
        .collect();
    assert_eq!(
        all.iter().collect::<BTreeSet<_>>().len(),
        all.len(),
        "a name is used once"
    );
    assert!(metrics::per_layer().len() <= 128);
}

/// One smoke run per workload and mode: every listed name comes out exactly
/// once, every launch verifies, and the result line parses back.
#[test]
fn smoke_run_emits_every_name_once_per_workload() {
    for (trace, defs) in [(false, metrics::end_to_end()), (true, metrics::per_layer())] {
        let args = smoke_args(trace);
        for name in workloads::NAMES {
            let outcome = run_workload(name, &args, &Value::Null);
            assert!(
                outcome.correct,
                "{name} trace={trace}: {} failed",
                outcome.failed
            );
            assert!(outcome.attempted >= 1);
            let line = json::parse(&outcome.json().to_string()).unwrap();
            let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let printed: Vec<&str> = line
                .get("metrics")
                .unwrap()
                .fields()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let expected: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
            assert_eq!(printed, expected, "{name} trace={trace}");
            for (metric, value, _) in &outcome.metrics {
                assert!(value.is_finite(), "{name}: {metric} = {value}");
            }
            if !trace {
                for (metric, value, _) in &outcome.metrics {
                    assert!(*value > 0.0, "{name}: {metric} must never be 0");
                }
            }
        }
    }
}

#[test]
fn arguments_are_checked() {
    let parse = |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
    let a = parse("--workload algos --seed 9 --seconds 2.5 --trace 1").unwrap();
    assert_eq!(
        (a.workload.as_str(), a.seed, a.seconds, a.trace),
        ("algos", 9, 2.5, true)
    );
    assert_eq!(parse("repeat 3 --seconds 1").unwrap().repeats, 3);
    assert!(parse("trace").unwrap().trace);
    assert!(parse("--workload nope").is_err());
    assert!(parse("--seed").is_err());
    assert!(parse("--seconds -1").is_err());
    assert!(parse("frobnicate").is_err());
}
