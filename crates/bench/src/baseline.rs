//! Bench-in-CI baseline records.
//!
//! The `headline` and `autotune` bins emit `BENCH_*.json` files with a
//! deliberately tiny, stable schema:
//!
//! ```json
//! {
//!   "records": [
//!     {"method": "sim:gpu-lock-free", "blocks": 30, "ns_per_round": 1072.0}
//!   ]
//! }
//! ```
//!
//! The CI `bench-smoke` job compares a fresh run against the checked-in
//! `ci/bench_baseline.json` and fails on drift. Method keys are
//! namespaced by how the number was produced:
//!
//! * `model:` — closed-form Eq. 6–9 prediction on a fixed calibration
//!   (deterministic, **guarded**),
//! * `sim:` — cycle-approximate GTX 280 simulation (deterministic,
//!   **guarded**),
//! * `host:` — wall-clock measurement on the host runtime (noisy on shared
//!   CI runners, unguarded; `obs_overhead`'s percentage is the one left —
//!   host cost per layer is the `perf/` benchmark's).
//!
//! Only guarded records can fail the build; an unguarded one rides along
//! in the artifact.
//!
//! The files are written and read through the workspace's one codec,
//! `blocksync_device::json`.

use blocksync_device::json::{self, Json};

/// One benchmark measurement: a namespaced method key, the grid size, and
/// the nanoseconds of synchronization cost per barrier round.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Namespaced method key, e.g. `sim:gpu-lock-free` or `host:auto`.
    pub method: String,
    /// Grid size (number of blocks).
    pub blocks: usize,
    /// Synchronization cost per barrier round, in nanoseconds.
    pub ns_per_round: f64,
}

impl BenchRecord {
    /// Build a record from its parts.
    pub fn new(method: impl Into<String>, blocks: usize, ns_per_round: f64) -> Self {
        BenchRecord {
            method: method.into(),
            blocks,
            ns_per_round,
        }
    }

    /// Whether this record's namespace is deterministic and therefore
    /// guarded by the CI regression check (`model:` and `sim:` rows).
    pub fn is_guarded(&self) -> bool {
        self.method.starts_with("model:") || self.method.starts_with("sim:")
    }
}

/// The records in the stable baseline JSON schema (`ns_per_round` at the
/// schema's 0.1 ns resolution); files hold its pretty form.
pub fn to_json(records: &[BenchRecord]) -> Json {
    let record = |r: &BenchRecord| {
        Json::obj([
            ("method", r.method.as_str().into()),
            ("blocks", r.blocks.into()),
            (
                "ns_per_round",
                ((r.ns_per_round * 10.0).round() / 10.0).into(),
            ),
        ])
    };
    Json::obj([("records", Json::arr(records.iter().map(record)))])
}

/// Read records back from the text of a baseline file.
///
/// # Errors
/// Malformed JSON, or the first record lacking a string `method`, an
/// integer `blocks` or a numeric `ns_per_round`.
pub fn from_json(text: &str) -> Result<Vec<BenchRecord>, String> {
    let doc = json::parse(text).map_err(|e| format!("baseline JSON: {e}"))?;
    let records = doc
        .get("records")
        .ok_or("baseline JSON: missing \"records\" array")?
        .as_arr("records")?;
    records
        .iter()
        .map(|r| {
            let field = |key: &str| {
                r.get(key)
                    .ok_or_else(|| format!("baseline JSON: record missing {key:?} in {r}"))
            };
            Ok(BenchRecord {
                method: field("method")?.as_str("method")?.to_string(),
                blocks: field("blocks")?.as_u64("blocks")? as usize,
                ns_per_round: field("ns_per_round")?.as_f64("ns_per_round")?,
            })
        })
        .collect()
}

/// The guard namespace of a method key: the `kind:` prefix, extended by
/// the suite qualifier when the method name carries one
/// (`kind:suite/variant`). `"model:cpu-explicit"` lives in namespace
/// `"model"` while `"model:obs/series"` lives in `"model:obs"`, so the
/// `autotune` bin (which emits plain `model:` rows) is not failed by the
/// `obs_overhead` bin's `model:obs/` baselines, and vice versa.
fn namespace(method: &str) -> Option<&str> {
    let colon = method.find(':')?;
    match method.find('/') {
        Some(slash) if slash > colon => Some(&method[..slash]),
        _ => Some(&method[..colon]),
    }
}

/// How far a guarded row may sit from its baseline, in percent, either
/// way. Guarded rows are deterministic, so this only has to absorb the
/// schema's 0.1 ns rounding; a simulated barrier that got *faster* is as
/// much a behaviour change as one that got slower (releasing early is how
/// a broken barrier gets fast).
const MAX_DRIFT_PCT: f64 = 0.1;

/// Compare a fresh run against a baseline. Returns one human-readable
/// failure line per guarded baseline record that is either missing from
/// the current run or more than `MAX_DRIFT_PCT` (0.1 %) away from it, in either
/// direction. Unguarded (`host:`) baseline rows are ignored, as are extra
/// rows in the current run (adding benchmarks never fails the guard).
///
/// Baseline rows from a `namespace` the current run emits nothing in are
/// also skipped — the `headline` (`sim:`), `autotune` (`model:`),
/// `obs_overhead` (`model:obs/`) and `oversub` (`sim:oversub/`) bins
/// guard themselves independently against the one shared
/// `ci/bench_baseline.json`.
pub fn compare(current: &[BenchRecord], baseline: &[BenchRecord]) -> Vec<String> {
    let namespaces: std::collections::HashSet<&str> = current
        .iter()
        .filter_map(|c| namespace(&c.method))
        .collect();
    let mut failures = Vec::new();
    for b in baseline.iter().filter(|b| b.is_guarded()) {
        if namespace(&b.method).is_none_or(|ns| !namespaces.contains(ns)) {
            continue;
        }
        match current
            .iter()
            .find(|c| c.method == b.method && c.blocks == b.blocks)
        {
            None => failures.push(format!(
                "{} @ {} blocks: in baseline but missing from this run",
                b.method, b.blocks
            )),
            Some(c) => {
                let drift_pct = (c.ns_per_round / b.ns_per_round - 1.0) * 100.0;
                if drift_pct.abs() > MAX_DRIFT_PCT {
                    failures.push(format!(
                        "{} @ {} blocks: {:.1} ns/round vs baseline {:.1} ns/round \
                         ({drift_pct:+.2}%, allowed \u{b1}{MAX_DRIFT_PCT}%)",
                        b.method, b.blocks, c.ns_per_round, b.ns_per_round,
                    ));
                }
            }
        }
    }
    failures
}

/// Load `baseline_path`, compare, and report: prints a pass line or the
/// failure list.
///
/// # Errors
/// Returns `Err` when the baseline cannot be read/parsed or any guarded
/// record drifted — callers exit nonzero so CI fails the job.
fn guard_against_baseline(current: &[BenchRecord], baseline_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let baseline = from_json(&text)?;
    let failures = compare(current, &baseline);
    if failures.is_empty() {
        let namespaces: std::collections::HashSet<&str> = current
            .iter()
            .filter_map(|c| namespace(&c.method))
            .collect();
        let guarded = baseline
            .iter()
            .filter(|b| {
                b.is_guarded() && namespace(&b.method).is_some_and(|ns| namespaces.contains(ns))
            })
            .count();
        println!(
            "baseline check: {guarded} guarded record(s) within \u{b1}{MAX_DRIFT_PCT}% of \
             {baseline_path}"
        );
        Ok(())
    } else {
        Err(format!(
            "baseline drift vs {baseline_path}:\n  {}",
            failures.join("\n  ")
        ))
    }
}

/// The tail every baseline-emitting bin shares: write `records` to the
/// `--json FILE` path (or `default_json` when the flag is absent), then
/// hold them against `--baseline FILE` if one was given.
///
/// # Errors
/// The file could not be written, the baseline could not be read, or a
/// guarded record drifted.
pub fn write_and_guard(
    args: &[String],
    records: &[BenchRecord],
    default_json: Option<&str>,
) -> Result<(), String> {
    if let Some(path) = flag_value(args, "json").or(default_json.map(String::from)) {
        std::fs::write(&path, to_json(records).pretty())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {} records to {path}", records.len());
    }
    match flag_value(args, "baseline") {
        Some(baseline) => guard_against_baseline(records, &baseline),
        None => Ok(()),
    }
}

/// `--key value` / `--key=value` lookup over raw binary args (the bench
/// bins are too small to warrant a parser dependency).
pub fn flag_value(args: &[String], key: &str) -> Option<String> {
    let bare = format!("--{key}");
    let eq = format!("--{key}=");
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if let Some(v) = a.strip_prefix(&eq) {
            return Some(v.to_string());
        }
        if *a == bare {
            return iter.next().cloned();
        }
    }
    None
}

/// Whether `--key` appears at all (presence flag).
pub fn has_flag(args: &[String], key: &str) -> bool {
    let bare = format!("--{key}");
    let eq = format!("--{key}=");
    args.iter().any(|a| *a == bare || a.starts_with(&eq))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<BenchRecord> {
        vec![
            BenchRecord::new("sim:gpu-lock-free", 30, 1072.0),
            BenchRecord::new("model:cpu-implicit", 30, 6000.0),
            BenchRecord::new("host:gpu-simple", 4, 91234.5),
        ]
    }

    #[test]
    fn json_round_trips() {
        let mut records = sample();
        // A method key the old `{:?}` escaping got wrong (`\u{7f}` is not
        // JSON) and the old `"`-splitting reader could not read back.
        records.push(BenchRecord::new("host:odd \"name\"\u{7f}é", 2, 0.5));
        let doc = to_json(&records);
        let first = &doc.get("records").unwrap().as_arr("records").unwrap()[0];
        assert_eq!(first.get("ns_per_round"), Some(&Json::F64(1072.0)));
        assert_eq!(from_json(&doc.pretty()).unwrap(), records);
        assert_eq!(from_json(&to_json(&[]).to_string()).unwrap(), vec![]);
        assert!(from_json("not json").is_err());
        assert!(from_json(&Json::obj([("rows", Json::Arr(vec![]))]).to_string()).is_err());
        let no_method = Json::obj([(
            "records",
            Json::arr([Json::obj([("blocks", Json::U64(3))])]),
        )]);
        let err = from_json(&no_method.to_string()).unwrap_err();
        assert!(err.contains("missing \"method\""), "{err}");
    }

    #[test]
    fn guard_namespaces() {
        let r = sample();
        assert!(r[0].is_guarded() && r[1].is_guarded());
        assert!(!r[2].is_guarded());
        assert!(!BenchRecord::new("pred:gpu-tree-2", 30, 1.0).is_guarded());
    }

    #[test]
    fn compare_flags_guarded_drift_in_either_direction() {
        let baseline = sample();
        // Identical run: clean.
        assert!(compare(&baseline, &baseline).is_empty());
        // Unguarded host row may blow up freely; guarded rows may differ
        // by the schema's rounding (7664.1 vs 7664.2 is 0.0013%).
        let mut current = sample();
        current[0].ns_per_round += 0.1;
        current[2].ns_per_round *= 50.0;
        assert!(compare(&current, &baseline).is_empty());
        // A guarded row that got slower fails with a useful message...
        current[1].ns_per_round *= 1.002;
        let fails = compare(&current, &baseline);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("model:cpu-implicit"), "{}", fails[0]);
        assert!(fails[0].contains("+0.20%"), "{}", fails[0]);
        // ...and so does one that got faster: a simulated barrier that
        // releases early is faster.
        current[0].ns_per_round = 1072.0 * 0.97;
        let fails = compare(&current, &baseline);
        assert_eq!(fails.len(), 2);
        assert!(fails[0].contains("sim:gpu-lock-free"), "{}", fails[0]);
        assert!(fails[0].contains("-3.00%"), "{}", fails[0]);
        // A guarded row disappearing fails, as long as its namespace is
        // still being emitted at all.
        let gone = vec![BenchRecord::new("model:other", 30, 1.0)];
        let fails = compare(&gone, &baseline);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("missing"), "{}", fails[0]);
        // A bin that emits no `sim:`/`model:` rows skips those baseline
        // namespaces entirely (the bench bins share one baseline file).
        assert!(compare(&current[2..], &baseline).is_empty());
    }

    #[test]
    fn suite_qualified_methods_guard_independently() {
        assert_eq!(namespace("sim:cpu-implicit"), Some("sim"));
        assert_eq!(
            namespace("sim:oversub/cpu_implicit_60"),
            Some("sim:oversub")
        );
        assert_eq!(namespace("host:oversub/2x"), Some("host:oversub"));
        assert_eq!(namespace("unnamespaced"), None);
        let baseline = vec![
            BenchRecord::new("sim:cpu-implicit", 30, 6000.0),
            BenchRecord::new("sim:oversub/cpu_implicit_60", 60, 10000.0),
        ];
        // The headline bin (plain `sim:` rows only) is not failed by the
        // oversub suite's baseline rows...
        let headline_run = vec![BenchRecord::new("sim:cpu-implicit", 30, 6000.0)];
        assert!(compare(&headline_run, &baseline).is_empty());
        // ...and the oversub bin is not failed by the plain `sim:` rows,
        // but is held to its own suite.
        let oversub_run = vec![BenchRecord::new("sim:oversub/cpu_implicit_60", 60, 10011.0)];
        let fails = compare(&oversub_run, &baseline);
        assert_eq!(fails.len(), 1);
        assert!(
            fails[0].contains("sim:oversub/cpu_implicit_60"),
            "{}",
            fails[0]
        );
    }

    #[test]
    fn flag_helpers() {
        let args: Vec<String> = ["--json", "out.json", "--short", "--pct=30"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag_value(&args, "json").as_deref(), Some("out.json"));
        assert_eq!(flag_value(&args, "pct").as_deref(), Some("30"));
        assert_eq!(flag_value(&args, "absent"), None);
        assert!(has_flag(&args, "short"));
        assert!(!has_flag(&args, "shorter"));
    }
}
