//! Per-round barrier telemetry of the host-runtime micro-benchmark as a
//! CSV series: arrival skew, mean/max arrive→depart sync span, and the
//! straggler block of every sampled round, for each synchronization
//! method. The plotting companion to `blocksync trace`'s table view.
//!
//! Flags: `--blocks 4` `--rounds 400` `--tpb 64` `--stride 1`
//!        `--out target/figures/round_trace.csv`

use std::path::PathBuf;

use blocksync_bench::csv::Csv;
use blocksync_core::{SyncMethod, TraceConfig};
use blocksync_microbench::run_host_traced;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str, default: &str| -> String {
        args.iter()
            .position(|a| a == &format!("--{key}"))
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| default.to_string())
    };
    let blocks: usize = get("blocks", "4").parse().expect("--blocks integer");
    let rounds: usize = get("rounds", "400").parse().expect("--rounds integer");
    let tpb: usize = get("tpb", "64").parse().expect("--tpb integer");
    let stride: usize = get("stride", "1").parse().expect("--stride integer");
    let out = PathBuf::from(get("out", "target/figures/round_trace.csv"));

    let mut csv = Csv::new([
        "method",
        "round",
        "skew_us",
        "avg_sync_us",
        "max_sync_us",
        "straggler",
    ]);
    let methods = [
        SyncMethod::CpuExplicit,
        SyncMethod::CpuImplicit,
        SyncMethod::GpuSimple,
        SyncMethod::GpuTree(blocksync_core::TreeLevels::Two),
        SyncMethod::GpuTree(blocksync_core::TreeLevels::Three),
        SyncMethod::GpuLockFree,
        SyncMethod::SenseReversing,
        SyncMethod::Dissemination,
    ];
    for method in methods {
        let tc = TraceConfig::new().with_stride(stride);
        let (stats, ok) = run_host_traced(blocks, tpb, rounds, method, tc).expect("valid config");
        assert!(ok, "{method}: verification failed");
        let t = stats
            .telemetry
            .as_deref()
            .expect("a traced run carries telemetry");
        for r in &t.rounds {
            csv.push([
                method.to_string(),
                r.round.to_string(),
                format!("{:.3}", r.arrival_skew.as_secs_f64() * 1e6),
                format!("{:.3}", r.avg_sync.as_secs_f64() * 1e6),
                format!("{:.3}", r.max_sync.as_secs_f64() * 1e6),
                r.straggler.to_string(),
            ]);
        }
        println!(
            "{method}: {} sampled rounds, worst skew {:.1} us",
            t.rounds.len(),
            t.worst_round()
                .map(|w| w.arrival_skew.as_secs_f64() * 1e6)
                .unwrap_or(0.0)
        );
    }
    csv.write_to(&out).expect("write csv");
    println!("wrote {} rows to {}", csv.len(), out.display());
}
