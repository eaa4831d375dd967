//! The oversubscription study (paper Sections 5 and 7.2, DESIGN.md §15):
//!
//! * CPU implicit synchronization handles any block count by running each
//!   round in waves of at most 30 blocks — the paper swept 31..120 blocks
//!   and found 30 best, which this reproduces.
//! * A device-side grid barrier with 31 blocks **deadlocks** on the
//!   modelled GPU: 30 resident non-preemptive blocks spin forever while
//!   the 31st can never be scheduled. The simulator detects and reports
//!   the deadlock instead of hanging.
//!
//! That is the whole rule on the modelled GPU: past the resident ceiling a
//! device-side barrier is not a candidate — stay at 30 blocks or
//! synchronize from the CPU. (The host runtime has no such ceiling: it
//! folds a grid onto its cores, and its waits yield, DESIGN.md §15.)
//!
//! Emits `BENCH_oversub.json` baseline records
//! `sim:oversub/cpu_implicit_{30,31,45,60,90,120}` — simulated ns per
//! round of the §7.2 CPU-implicit sweep (deterministic; guarded by the CI
//! baseline check).
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

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

    let records: Vec<BenchRecord> = o
        .cpu_implicit
        .iter()
        .map(|&(n, total)| {
            BenchRecord::new(
                format!("sim:oversub/cpu_implicit_{n}"),
                n,
                total.as_nanos() as f64 / MAX_SIM_ROUNDS as f64,
            )
        })
        .collect();

    if let Err(e) = baseline::write_and_guard(&args, &records, Some("BENCH_oversub.json")) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
