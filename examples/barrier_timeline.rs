//! Visualize what a grid barrier actually does: trace a few rounds of the
//! simulated GTX 280 and print each block's compute/arrive/release
//! timeline, for a skewed workload where block 0 is the straggler — then
//! run the *host runtime* with its telemetry plane on and print the same
//! story from real threads and atomics: per-round arrival skew and which
//! block everyone waited for.
//!
//! Watch how every other block's "barrier wait" stretches to cover block
//! 0's extra compute — the synchronization time the paper's model assigns
//! to `t_S`.
//!
//! Run with: `cargo run --release --example barrier_timeline`

use blocksync::core::{BlockCtx, GridConfig, GridExecutor, RoundKernel, SyncMethod, TraceConfig};
use blocksync::device::SimDuration;
use blocksync::sim::{simulate, ClosureWorkload, SimConfig, TraceKind};

fn main() {
    let n_blocks = 4;
    let rounds = 3;
    // Block 0 computes 3x longer than the rest.
    let w = ClosureWorkload::new(rounds, |bid, _| {
        SimDuration::from_micros(if bid == 0 { 3 } else { 1 })
    });
    let cfg = SimConfig::new(n_blocks, 64, SyncMethod::GpuLockFree).with_trace();
    let r = simulate(&cfg, &w);

    println!(
        "{} blocks, {} rounds, {} barrier — block 0 is a 3x straggler\n",
        n_blocks, rounds, r.method
    );
    println!("{:>10}  {:>5}  event", "time (us)", "block");
    for e in &r.trace {
        let kind = match e.kind {
            TraceKind::ComputeStart { round } => format!("compute round {round}"),
            TraceKind::BarrierArrive { round } => format!("arrive  barrier {round}"),
            TraceKind::BarrierRelease { round } => format!("release barrier {round}"),
            TraceKind::KernelDone => "kernel done".to_string(),
        };
        println!("{:>10.2}  {:>5}  {kind}", e.time.as_micros_f64(), e.block);
    }

    println!("\nper-block totals:");
    for b in 0..n_blocks {
        println!(
            "  block {b}: compute {:>8}, barrier wait {:>8}",
            r.per_block_compute[b].to_string(),
            r.per_block_sync[b].to_string()
        );
    }
    println!("\nfast blocks absorb the straggler's skew as synchronization time —");
    println!("the t_S component of the paper's Eq. 5.");

    // The same experiment on the host runtime: real threads, real
    // atomics, and the telemetry plane recording every barrier event.
    struct Skewed;
    impl RoundKernel for Skewed {
        fn rounds(&self) -> usize {
            8
        }
        fn round(&self, ctx: &BlockCtx, _round: usize) {
            let spin = std::time::Duration::from_micros(if ctx.block_id == 0 { 300 } else { 100 });
            let t0 = std::time::Instant::now();
            while t0.elapsed() < spin {
                std::hint::spin_loop();
            }
        }
    }
    let cfg = GridConfig::new(n_blocks, 64).with_trace(TraceConfig::new());
    let stats = GridExecutor::new(cfg, SyncMethod::GpuLockFree)
        .run(&Skewed)
        .expect("valid config");
    let t = stats
        .telemetry
        .as_deref()
        .expect("a traced run carries telemetry");
    println!("\nhost runtime, same skew (block 0 computes 3x longer):\n");
    print!("{}", t.round_table(8));
    if let Some(w) = t.worst_round() {
        println!(
            "\nround {}'s skew ({:.1} us) was set by block {} — the telemetry",
            w.round,
            w.arrival_skew.as_secs_f64() * 1e6,
            w.straggler
        );
        println!("plane names the straggler the simulator could only predict.");
    }
}
