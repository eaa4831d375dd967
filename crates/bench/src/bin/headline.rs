//! Regenerates the paper's **headline numbers** (abstract): the
//! micro-benchmark speedups of GPU lock-free synchronization over CPU
//! explicit (paper: 7.8x) and CPU implicit (paper: 3.7x) synchronization,
//! and the application-level kernel-time improvements over CPU implicit
//! sync (paper: FFT 8.8%, SWat 24.1%, bitonic sort 39.0%), plus the
//! Eq. 1 `t = t_O + t_C + t_S` split behind them, per method.
//!
//! Flags for bench-in-CI: `--json FILE` writes the per-method simulated
//! `t_S` as `sim:` baseline records (deterministic, so guarded);
//! `--baseline FILE` fails nonzero when a record drifted either way;
//! `--short` is accepted for CI symmetry with the `autotune` bin (the
//! simulation is already fast and the guarded records must not depend on
//! the mode, so it changes nothing).

use std::process::ExitCode;

use blocksync_bench::baseline::{self, BenchRecord};
use blocksync_bench::experiments::{headline, AlgoKind};
use blocksync_bench::harness::{format_table, pct};
use blocksync_core::SyncMethod;
use blocksync_microbench::simulate_micro;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let h = headline();
    println!("Headline results (GPU lock-free synchronization)\n");
    let rows = vec![
        vec![
            "micro-benchmark vs CPU explicit".to_string(),
            format!("{:.1}x", h.lockfree_vs_explicit),
            "7.8x".to_string(),
        ],
        vec![
            "micro-benchmark vs CPU implicit".to_string(),
            format!("{:.1}x", h.lockfree_vs_implicit),
            "3.7x".to_string(),
        ],
    ];
    println!("{}", format_table(&["metric", "measured", "paper"], &rows));

    println!("Kernel-time improvement over CPU implicit sync (30 blocks):\n");
    let paper = ["8.8%", "24.1%", "39.0%"];
    let rows: Vec<Vec<String>> = h
        .improvements
        .iter()
        .zip(paper)
        .map(|(&(algo, gain), p)| vec![AlgoKind::name(algo).to_string(), pct(gain), p.to_string()])
        .collect();
    println!(
        "{}",
        format_table(&["algorithm", "measured", "paper"], &rows)
    );

    // Where the speedups come from: the paper's Eq. 1 decomposition of the
    // micro-benchmark at 30 blocks, per method. The methods differ only in
    // t_S (and CPU explicit in t_O, which it pays once per round).
    println!("Eq. 1 split per method (micro-benchmark, 30 blocks, 240 simulated rounds):\n");
    let mut records = Vec::new();
    let rows: Vec<Vec<String>> = SyncMethod::PAPER_METHODS
        .iter()
        .map(|&m| {
            let r = simulate_micro(30, 256, 240, m);
            records.push(BenchRecord::new(
                format!("sim:{m}"),
                30,
                r.sync_per_round().as_nanos() as f64,
            ));
            vec![
                m.to_string(),
                format!("{:.3}", r.launch.as_millis_f64()),
                format!("{:.3}", r.max_compute().as_millis_f64()),
                format!("{:.3}", r.sync_time().as_millis_f64()),
                pct(r.sync_fraction()),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &["method", "t_O (ms)", "t_C (ms)", "t_S (ms)", "sync frac"],
            &rows
        )
    );

    if let Err(e) = baseline::write_and_guard(&args, &records, None) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
