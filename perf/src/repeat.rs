//! `repeat N`: N run sets back to back — every workload, untraced, a fresh
//! process and a new seed each time, exactly as the acceptance procedure
//! runs them — then each end-to-end metric's spread against its bound, and
//! its median against the previous line of `trajectory.jsonl`; then one
//! traced run per workload for the per-layer numbers. The result is appended
//! to that file: one JSON object per run set, never rewritten.

use std::io::Write;
use std::process::{Command, ExitCode};

use crate::json::{self, Value};
use crate::metrics::{self, Def};
use crate::stat::{iqr_over_median, median, sorted};
use crate::{host_fingerprint, pin, workloads, Args};

/// One child run's metrics, or why there are none.
fn child_run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()]);
    if !pin::enabled() {
        cmd.arg("--no-pin");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("no output")?;
    let result = json::parse(last)?;
    if result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("incorrect result: {last}"));
    }
    result.get("metrics").cloned().ok_or("no metrics".into())
}

/// By how much `now` is worse than `before`, as a share of `before`
/// (negative when it is better).
fn worsening(def: &Def, before: f64, now: f64) -> f64 {
    let change = (now - before) / before;
    if def.better == "higher" {
        -change
    } else {
        change
    }
}

pub fn run(args: &Args) -> ExitCode {
    let n = args.repeats.max(2);
    let defs = metrics::end_to_end();
    // samples[workload][metric] = one value per run.
    let mut samples = vec![vec![Vec::<f64>::new(); defs.len()]; workloads::NAMES.len()];
    for rep in 0..n {
        for (w, workload) in workloads::NAMES.iter().enumerate() {
            let seed = args.seed + rep as u64;
            let metrics = match child_run(workload, seed, args.seconds, false) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("perf repeat: {workload} seed {seed}: {e}");
                    return ExitCode::from(1);
                }
            };
            for (d, def) in defs.iter().enumerate() {
                let value = metrics.get(&def.name).and_then(|m| m.get("value"));
                samples[w][d].push(value.and_then(Value::as_f64).unwrap_or(f64::NAN));
            }
            eprintln!("perf repeat: set {}/{n} {workload} done", rep + 1);
        }
    }

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("trajectory.jsonl");
    let previous = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| t.lines().last().and_then(|l| json::parse(l).ok()));
    let mut ok = true;
    let mut summary = Vec::new();
    println!(
        "{:<12} {:<15} {:>12} {:>8} {:>8} {:>6} {:>9}  verdict",
        "workload", "metric", "median", "iqr/med", "rng/med", "bound", "vs prev"
    );
    for (w, workload) in workloads::NAMES.iter().enumerate() {
        let mut per_metric = Vec::new();
        for (d, def) in defs.iter().enumerate() {
            let v = sorted(samples[w][d].clone());
            let (mid, bound) = (median(&v), def.bound.unwrap_or(0.0));
            let spread = iqr_over_median(&v);
            let range = (v[v.len() - 1] - v[0]) / mid;
            let before = previous
                .as_ref()
                .and_then(|p| {
                    p.get("workloads")?
                        .get(workload)?
                        .get(&def.name)?
                        .get("median")
                })
                .and_then(Value::as_f64);
            let shift = before.map(|b| worsening(def, b, mid));
            // The set-up time's spread is reported, not judged; its
            // median is judged like every other.
            let steady = def.name == "setup_s" || spread <= bound;
            let held = shift.is_none_or(|s| s <= bound);
            let verdict = match (steady, held, spread <= bound / 3.0) {
                (false, _, _) => "SPREAD OVER BOUND",
                (_, false, _) => "MEDIAN WORSE THAN BOUND",
                (_, _, false) => "ok (spread over a third of the bound)",
                _ => "ok",
            };
            ok &= steady && held;
            println!(
                "{workload:<12} {:<15} {mid:>12.3} {spread:>8.3} {range:>8.3} {bound:>6.2} {:>9}  {verdict}",
                def.name,
                shift.map_or("-".into(), |s| format!("{:+.3}", s)),
            );
            per_metric.push((
                def.name.clone(),
                Value::obj([
                    ("median", Value::Num(mid)),
                    ("iqr_over_median", Value::Num(spread)),
                    ("min", Value::Num(v[0])),
                    ("max", Value::Num(v[v.len() - 1])),
                    (
                        "values",
                        Value::Arr(samples[w][d].iter().map(|&x| Value::Num(x)).collect()),
                    ),
                    ("unit", Value::str(def.unit)),
                ]),
            ));
        }
        summary.push((workload.to_string(), Value::Obj(per_metric)));
    }

    let mut layers = Vec::new();
    for workload in workloads::NAMES {
        match child_run(workload, args.seed, args.seconds, true) {
            Ok(Value::Obj(metrics)) => {
                let values = metrics
                    .into_iter()
                    .map(|(name, m)| (name, m.get("value").cloned().unwrap_or(Value::Null)));
                layers.push((workload.to_string(), Value::Obj(values.collect())));
            }
            Ok(_) | Err(_) => {
                eprintln!("perf repeat: traced {workload} run failed");
                ok = false;
            }
        }
    }

    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let line = Value::obj([
        ("unix_s", Value::Num(unix_s as f64)),
        ("runs", n.into()),
        ("host", host_fingerprint(args)),
        ("within_bounds", ok.into()),
        ("workloads", Value::Obj(summary)),
        ("per_layer", Value::Obj(layers)),
    ]);
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{line}"));
    match appended {
        Ok(()) => println!("appended one line to {}", path.display()),
        Err(e) => {
            eprintln!("perf repeat: could not append to {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
