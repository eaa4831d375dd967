//! Why the one-block-per-SM rule exists (paper, Section 5).
//!
//! CUDA blocks are non-preemptive: once scheduled on an SM, a block runs to
//! completion. If a grid-wide spin barrier is launched with more blocks
//! than SMs, the resident blocks spin waiting for blocks that can never be
//! scheduled — deadlock. This example drives the simulator's block
//! scheduler into exactly that state (safely: the engine detects the
//! deadlock instead of hanging) and shows that CPU-relaunch
//! synchronization, which frees SMs every round, handles the same grid
//! fine.
//!
//! The second half shows the *host runtime's* answer to the same class of
//! failure: a block that never reaches the barrier (here, an injected
//! straggler stuck in kernel code) would historically hang the whole grid;
//! with a [`SyncPolicy`] timeout the run instead fails fast with a
//! diagnostic naming the stuck block, the round, and the flag being
//! spun on.
//!
//! Run with: `cargo run --release --example deadlock`

use std::time::Duration;

use blocksync::core::{
    Fault, FaultInjector, FaultKind, GlobalBuffer, GridConfig, GridExecutor, RoundKernel,
    SyncMethod, SyncPolicy,
};
use blocksync::device::GpuSpec;
use blocksync::microbench::micro_workload;
use blocksync::sim::{try_simulate, SimConfig};

/// Trivial round kernel: each block bumps its own slot every round.
struct CountKernel {
    slots: GlobalBuffer<u64>,
    rounds: usize,
}

impl RoundKernel for CountKernel {
    fn rounds(&self) -> usize {
        self.rounds
    }
    fn round(&self, ctx: &blocksync::core::BlockCtx, _round: usize) {
        let b = ctx.block_id;
        self.slots.set(b, self.slots.get(b) + 1);
    }
}

fn main() {
    let spec = GpuSpec::gtx280();
    let w = micro_workload(&spec, 256, 100);

    println!("device: {} ({} SMs)\n", spec.name, spec.num_sms);

    for n_blocks in [30usize, 31, 40] {
        print!("{n_blocks:>3} blocks, gpu-lock-free barrier: ");
        match try_simulate(&SimConfig::new(n_blocks, 256, SyncMethod::GpuLockFree), &w) {
            Ok(r) => println!("completed in {}", r.total),
            Err(e) => println!("{e}"),
        }
    }

    println!();
    for n_blocks in [30usize, 31, 40] {
        let r = try_simulate(&SimConfig::new(n_blocks, 256, SyncMethod::CpuImplicit), &w)
            .expect("CPU relaunch sync frees SMs every round");
        println!(
            "{n_blocks:>3} blocks, cpu-implicit relaunch: completed in {} (waves of <= 30)",
            r.total
        );
    }

    println!("\nThe paper's fix: launch at most one block per SM and occupy all shared");
    println!("memory so the hardware scheduler cannot co-schedule a second block.");

    // ---- Host runtime: bounded waits instead of a hang -----------------
    //
    // Inject a straggler: block 1 enters round 2 and never finishes it.
    // Without a timeout the other blocks would spin at the barrier forever;
    // with one, the run fails with a structured diagnostic.
    println!("\nhost runtime: block 1 stalls in round 2, barrier timeout 200 ms:");
    let kernel = FaultInjector::new(
        CountKernel {
            slots: GlobalBuffer::new(4),
            rounds: 5,
        },
        Fault::in_round(1, 2, FaultKind::Straggler),
    );
    let cfg =
        GridConfig::new(4, 64).with_policy(SyncPolicy::with_timeout(Duration::from_millis(200)));
    match GridExecutor::new(cfg, SyncMethod::GpuLockFree).run(&kernel) {
        Ok(_) => unreachable!("the straggler can never let the grid finish"),
        Err(e) => println!("  error: {e}"),
    }
    println!("  (every worker thread unwound cleanly — no hang, no leaked spinners)");
}
