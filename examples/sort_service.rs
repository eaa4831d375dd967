//! Sorting beyond one block's capacity with the grid bitonic network.
//!
//! The paper's motivation for bitonic sort (Section 3): the CUDA SDK
//! version used `__syncthreads()` and was therefore limited to one block —
//! at most 512 keys. With an inter-block barrier the network spans the
//! whole grid. This example sorts batches far beyond 512 keys, validates
//! against the standard library sort, compares synchronization methods,
//! and asks the simulator what the paper's GTX 280 would have spent on
//! barriers.
//!
//! Run with: `cargo run --release --example sort_service`

use blocksync::algos::bitonic::{BitonicWorkload, GridBitonic};
use blocksync::algos::seqgen::random_keys;
use blocksync::core::{GridConfig, LaunchPlan, SyncMethod};
use blocksync::device::GpuSpec;
use blocksync::sim::{simulate, SimConfig};

fn main() {
    let n_blocks = 4;
    println!("grid bitonic sort on {n_blocks} blocks (SDK limit was 512 keys):\n");
    println!(
        "{:>8}  {:>8}  {:>14}  {:>10}",
        "keys", "rounds", "method", "wall (ms)"
    );
    for log_n in [10usize, 13, 15] {
        let keys = random_keys(1 << log_n, log_n as u64);
        let mut expected = keys.clone();
        expected.sort_unstable();
        for method in [SyncMethod::CpuImplicit, SyncMethod::GpuLockFree] {
            let kernel = GridBitonic::new(&keys);
            let stats = LaunchPlan::compile(GridConfig::new(n_blocks, 64), method)
                .and_then(|plan| plan.run(&kernel))
                .expect("valid grid");
            assert_eq!(kernel.output(), expected, "sorted output mismatch");
            println!(
                "{:>8}  {:>8}  {:>14}  {:>10.2}",
                1 << log_n,
                stats.rounds,
                method.to_string(),
                stats.wall.as_secs_f64() * 1e3
            );
        }
    }

    // What would the GTX 280 have spent on synchronization?
    println!("\nGTX 280 simulation, 2^16 keys on 30 blocks:\n");
    let spec = GpuSpec::gtx280();
    let w = BitonicWorkload::new(&spec, 1 << 16, 30);
    println!("{:>14}  {:>10}  {:>8}", "method", "total (ms)", "sync %");
    for method in [
        SyncMethod::CpuExplicit,
        SyncMethod::CpuImplicit,
        SyncMethod::GpuSimple,
        SyncMethod::GpuLockFree,
    ] {
        let r = simulate(&SimConfig::new(30, 512, method), &w);
        println!(
            "{:>14}  {:>10.3}  {:>7.1}%",
            method.to_string(),
            r.total.as_millis_f64(),
            r.sync_fraction() * 100.0
        );
    }
    println!("\nPaper (Table 1 / Figure 13c): bitonic sort spends ~60% of its time");
    println!("synchronizing under CPU implicit sync; the lock-free barrier cuts");
    println!("kernel time by ~39%.");
}
