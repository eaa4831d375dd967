//! The launch error is the root cause, not the first symptom.
//!
//! `drive_block` can poison the barrier only once `catch_unwind` returns,
//! and that is after the process-wide panic hook has run — with
//! `RUST_BACKTRACE=1` the hook symbolises a backtrace under a global lock,
//! which on a cold cache outlasted an 80 ms policy timeout: peers timed out
//! first and the launch reported their `BarrierTimeout` for what was a
//! panic. A slow hook stands in for the slow symbolisation.
//!
//! Its own test binary, because the panic hook is process-wide.

use std::sync::Arc;
use std::time::Duration;

use blocksync::core::{
    BlockCtx, ExecError, GridConfig, GridExecutor, GridRuntime, RoundKernel, SyncMethod, SyncPolicy,
};

/// Block 3 panics — a real `panic!`, through the hook — in round 1.
struct PanicsInRoundOne;

impl RoundKernel for PanicsInRoundOne {
    fn rounds(&self) -> usize {
        3
    }
    fn round(&self, ctx: &BlockCtx, round: usize) {
        if ctx.block_id == 3 && round == 1 {
            panic!("kernel bug in block 3");
        }
    }
}

#[test]
fn a_slow_panic_hook_does_not_turn_the_panic_into_a_peers_timeout() {
    // Peers give up after 100 ms; the hook holds the panicking block for
    // 150 ms, so a peer's timeout poisons the barrier first. (The pooled
    // runtime abandons a block only 200 ms past the first failure.)
    let policy = SyncPolicy::with_timeout(Duration::from_millis(100));
    std::panic::set_hook(Box::new(|_| std::thread::sleep(Duration::from_millis(150))));
    let cfg = GridConfig::new(4, 8).with_policy(policy);
    let scoped = GridExecutor::new(cfg.clone(), SyncMethod::GpuSimple).run(&PanicsInRoundOne);
    let pooled = GridRuntime::new(cfg, SyncMethod::GpuSimple)
        .expect("a device-side method runs pooled")
        .submit(Arc::new(PanicsInRoundOne))
        .and_then(|launch| launch.wait());
    let _ = std::panic::take_hook();
    for (path, result) in [("scoped", scoped), ("pooled", pooled)] {
        match result.unwrap_err() {
            ExecError::BlockPanicked {
                block: 3,
                round: 1,
                message,
            } => assert_eq!(message, "kernel bug in block 3", "{path}"),
            other => panic!("{path}: expected block 3's panic, got {other}"),
        }
    }
}
