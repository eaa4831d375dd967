//! The oversubscription study (paper Sections 5 and 7.2, DESIGN.md §15):
//!
//! * CPU implicit synchronization handles any block count by running each
//!   round in waves of at most 30 blocks — the paper swept 31..120 blocks
//!   and found 30 best, which this reproduces.
//! * A device-side grid barrier with 31 blocks **deadlocks** on the
//!   modelled GPU: 30 resident non-preemptive blocks spin forever while
//!   the 31st can never be scheduled. The simulator detects and reports
//!   the deadlock instead of hanging.
//! * The same barrier with **parking** waiters (`SimConfig::with_parking`
//!   in the simulator; every wait of the host runtime) survives the whole
//!   ladder: parked waiters free their slots, the grid drains in waves,
//!   and the cost model prices the waves instead of excluding them.
//!
//! Emits `BENCH_oversub.json` baseline records:
//!
//! 1. `model:oversub/penalty_{2,4,16}x` — the GTX 280 calibration's
//!    park/wake wave penalty (`oversubscription_penalty_ns`) at 2x/4x/16x
//!    the SM count (deterministic; guarded by the CI baseline check).
//! 2. `model:oversub/parked_round_{2,4,16}x` — simulated per-round total
//!    for the parked lock-free barrier at the same ladder (deterministic;
//!    guarded).
//!
//! What oversubscription costs the host runtime is wall clock, which is
//! the `perf/` benchmark's: `barrier.<m>.park_ns`,
//! `launch.park_round_ns.<m>` and the `micro_park` workload
//! (`perf/README.md`).
//!
//! Flags: `--json FILE` (default `BENCH_oversub.json`), `--baseline FILE`
//! (fail nonzero when a guarded record drifted either way).

use std::process::ExitCode;

use blocksync_bench::baseline::{self, BenchRecord};
use blocksync_bench::experiments::{oversubscription, MAX_SIM_ROUNDS};
use blocksync_bench::harness::{format_table, ms};
use blocksync_device::CalibrationProfile;

const LADDER: [usize; 3] = [2, 4, 16];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut records = Vec::new();

    // -- Section 1: the paper's study — CPU waves and the spin deadlock ---
    let o = oversubscription();
    println!("Micro-benchmark under CPU implicit sync, past the SM count:\n");
    let rows: Vec<Vec<String>> = o
        .cpu_implicit
        .iter()
        .map(|&(n, t)| vec![n.to_string(), ms(t)])
        .collect();
    println!("{}", format_table(&["blocks", "total (ms)"], &rows));
    println!("paper: \"performance with 30 blocks in the kernel is better than all of\n[31..120]\" — reproduced.\n");

    match &o.gpu_at_31 {
        Err(e) => println!("GPU lock-free barrier with 31 blocks (spinning): {e}"),
        Ok(t) => println!("GPU lock-free barrier with 31 blocks unexpectedly finished in {t}"),
    }
    println!("\nThis is why the paper enforces a one-to-one block/SM mapping (Section 5).\n");

    // -- Section 2: the parked ladder, simulated (guarded) ----------------
    let cal = CalibrationProfile::gtx280();
    let sms = 30usize;
    println!("Same barrier with parking waiters: waves instead of deadlock:\n");
    let rows: Vec<Vec<String>> = o
        .parked_gpu
        .iter()
        .map(|&(n, t)| {
            vec![
                n.to_string(),
                ms(t),
                cal.oversubscription_penalty_ns(n, sms).to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(&["blocks", "total (ms)", "model penalty (ns)"], &rows)
    );

    for m in LADDER {
        let n = m * sms;
        records.push(BenchRecord::new(
            format!("model:oversub/penalty_{m}x"),
            n,
            cal.oversubscription_penalty_ns(n, sms) as f64,
        ));
        if let Some(&(_, total)) = o.parked_gpu.iter().find(|&&(b, _)| b == n) {
            records.push(BenchRecord::new(
                format!("model:oversub/parked_round_{m}x"),
                n,
                total.as_nanos() as f64 / MAX_SIM_ROUNDS as f64,
            ));
        }
    }

    if let Err(e) = baseline::write_and_guard(&args, &records, Some("BENCH_oversub.json")) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
