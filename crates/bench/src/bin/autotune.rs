//! Auto-tuner benchmark: the cost model's `t_S` per method.
//!
//! Emits `BENCH_autotune.json` baseline records: `model:` — the Eq. 6–9
//! prediction table on the fixed GTX 280 calibration at 30 blocks
//! (deterministic; guarded by the CI baseline check), including
//! `model:auto`, the cost of the method the tuner picks.
//!
//! What the methods cost on the live host is wall clock, which is the
//! `perf/` benchmark's: `model.residual_pct.<m>`, `autotune.regret*`,
//! `launch.round_ns.<m>` (`perf/README.md`).
//!
//! Flags: `--json FILE` (default `BENCH_autotune.json`), `--baseline FILE`
//! (fail nonzero when a guarded record drifted either way).

use std::process::ExitCode;

use blocksync_bench::baseline::{self, BenchRecord};
use blocksync_bench::harness::format_table;
use blocksync_core::AutoTuner;
use blocksync_device::{CalibrationProfile, GpuSpec};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut records = Vec::new();

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

    if let Err(e) = baseline::write_and_guard(&args, &records, Some("BENCH_autotune.json")) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
