//! Auto-tuner benchmark: **predicted vs measured `t_S`** per method.
//!
//! Two sections, emitted as `BENCH_autotune.json` baseline records:
//!
//! 1. `model:` — the Eq. 6–9 prediction table on the fixed GTX 280
//!    calibration at 30 blocks (deterministic; guarded by the CI baseline
//!    check), including `model:auto`, the cost of the method the tuner
//!    picks.
//! 2. `pred:` / `host:` — the same table priced with the *live host's*
//!    measured calibration, next to the wall-clock `t_S` of actually
//!    running each method on the host runtime (noisy; unguarded, kept in
//!    the artifact so predicted-vs-measured drift stays observable).
//!
//! Flags: `--short` (fewer host rounds, for CI smoke), `--json FILE`
//! (default `BENCH_autotune.json`), `--baseline FILE` + `--max-regress-pct P`
//! (fail nonzero on guarded regression).

use std::process::ExitCode;

use blocksync_bench::baseline::{self, BenchRecord};
use blocksync_bench::harness::format_table;
use blocksync_core::{AutoTuner, SyncMethod};
use blocksync_device::{CalibrationProfile, GpuSpec};
use blocksync_microbench::run_host;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let short = baseline::has_flag(&args, "short");
    let json_path = baseline::flag_value(&args, "json").unwrap_or("BENCH_autotune.json".into());
    let mut records = Vec::new();

    // -- Section 1: the deterministic model table (guarded) ---------------
    let blocks = 30;
    let max_gpu = GpuSpec::gtx280().max_persistent_blocks() as usize;
    let decision = AutoTuner::with_profile(CalibrationProfile::gtx280()).decide(blocks, max_gpu);
    println!("Eq. 6-9 prediction table, GTX 280 calibration, {blocks} blocks:\n");
    let rows: Vec<Vec<String>> = decision
        .table
        .iter()
        .map(|p| {
            records.push(BenchRecord::new(
                format!("model:{}", p.method),
                blocks,
                p.predicted_sync_ns,
            ));
            vec![
                p.method.to_string(),
                format!("{:.0}", p.predicted_sync_ns),
                if p.method == decision.chosen {
                    "chosen".into()
                } else {
                    String::new()
                },
            ]
        })
        .collect();
    println!("{}", format_table(&["method", "t_S (ns)", ""], &rows));
    records.push(BenchRecord::new(
        "model:auto",
        blocks,
        decision.predicted_sync_ns,
    ));

    // -- Section 2: predicted vs measured on the live host (unguarded) ----
    let host_blocks = 4;
    let tpb = 64;
    let rounds = if short { 200 } else { 2_000 };
    let tuner = AutoTuner::host();
    let host = tuner.decide(host_blocks, max_gpu);
    println!(
        "host runtime, {host_blocks} blocks x {rounds} rounds ({} mode), measured calibration:\n",
        if short { "short" } else { "full" }
    );
    let mut rows = Vec::new();
    for p in host.table.iter().filter(|p| p.eligible) {
        match measure(p.method, host_blocks, tpb, rounds) {
            Ok(measured_ns) => {
                records.push(BenchRecord::new(
                    format!("pred:{}", p.method),
                    host_blocks,
                    p.predicted_sync_ns,
                ));
                records.push(BenchRecord::new(
                    format!("host:{}", p.method),
                    host_blocks,
                    measured_ns,
                ));
                rows.push(vec![
                    p.method.to_string(),
                    format!("{:.0}", p.predicted_sync_ns),
                    format!("{measured_ns:.0}"),
                    format!("{:.2}x", measured_ns / p.predicted_sync_ns),
                ]);
            }
            Err(e) => {
                eprintln!("error: {} failed on the host runtime: {e}", p.method);
                return ExitCode::FAILURE;
            }
        }
    }
    // The tuner end-to-end: `auto` resolves, runs, and records its own
    // misprediction ratio in KernelStats; here we re-measure it like any
    // other method so the artifact has a like-for-like row.
    match measure(SyncMethod::Auto, host_blocks, tpb, rounds) {
        Ok(measured_ns) => {
            records.push(BenchRecord::new(
                "pred:auto",
                host_blocks,
                host.predicted_sync_ns,
            ));
            records.push(BenchRecord::new("host:auto", host_blocks, measured_ns));
            rows.push(vec![
                format!("auto ({})", host.chosen),
                format!("{:.0}", host.predicted_sync_ns),
                format!("{measured_ns:.0}"),
                format!("{:.2}x", measured_ns / host.predicted_sync_ns),
            ]);
        }
        Err(e) => {
            eprintln!("error: auto failed on the host runtime: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{}",
        format_table(
            &["method", "predicted t_S (ns)", "measured t_S (ns)", "ratio"],
            &rows
        )
    );

    if let Err(e) = std::fs::write(&json_path, baseline::to_json(&records).pretty()) {
        eprintln!("error: cannot write {json_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {} records to {json_path}", records.len());

    if let Some(bl) = baseline::flag_value(&args, "baseline") {
        let pct = baseline::flag_value(&args, "max-regress-pct")
            .map(|v| v.parse().expect("--max-regress-pct expects a number"))
            .unwrap_or(25.0);
        if let Err(e) = baseline::guard_against_baseline(&records, &bl, pct) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Measured `t_S` per barrier round (ns) for one method on the host runtime.
fn measure(method: SyncMethod, blocks: usize, tpb: usize, rounds: usize) -> Result<f64, String> {
    let (stats, ok) = run_host(blocks, tpb, rounds, method).map_err(|e| e.to_string())?;
    if !ok {
        return Err("micro-benchmark produced wrong means".into());
    }
    Ok(stats.sync_per_round().as_secs_f64() * 1e9)
}
