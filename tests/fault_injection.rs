//! Cross-method fault-injection suite: every [`SyncMethod`] — including
//! both CPU modes — must convert an injected fault into a structured
//! [`ExecError`] naming the offending block and round, within the policy
//! timeout. No test here may hang: detection latency is asserted against a
//! hard bound well below the harness timeout.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blocksync::core::{
    BlockCtx, ExecError, Fault, FaultInjector, FaultKind, GlobalBuffer, GridConfig, LaunchPlan,
    RoundKernel, StuckDiagnostic, SyncMethod, SyncPolicy, TreeLevels,
};

/// Every method with inter-block ordering guarantees.
const ALL_SYNC_METHODS: [SyncMethod; 8] = [
    SyncMethod::CpuExplicit,
    SyncMethod::CpuImplicit,
    SyncMethod::GpuSimple,
    SyncMethod::GpuTree(TreeLevels::Two),
    SyncMethod::GpuTree(TreeLevels::Three),
    SyncMethod::GpuLockFree,
    SyncMethod::SenseReversing,
    SyncMethod::Dissemination,
];

struct Increment {
    slots: GlobalBuffer<u64>,
    rounds: usize,
}

impl Increment {
    fn new(n: usize, rounds: usize) -> Self {
        Increment {
            slots: GlobalBuffer::new(n),
            rounds,
        }
    }
}

impl RoundKernel for Increment {
    fn rounds(&self) -> usize {
        self.rounds
    }
    fn round(&self, ctx: &BlockCtx, _round: usize) {
        let b = ctx.block_id;
        self.slots.set(b, self.slots.get(b) + 1);
    }
}

#[test]
fn injected_panic_names_block_and_round_under_every_method() {
    for method in ALL_SYNC_METHODS {
        let k = FaultInjector::new(
            Increment::new(4, 6),
            Fault::in_round(2, 3, FaultKind::Panic),
        );
        let cfg =
            GridConfig::new(4, 8).with_policy(SyncPolicy::with_timeout(Duration::from_secs(20)));
        let started = Instant::now();
        let err = LaunchPlan::compile(cfg, method)
            .and_then(|plan| plan.run(&k))
            .unwrap_err();
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "{method}: detection too slow"
        );
        match err {
            ExecError::BlockPanicked {
                block,
                round,
                message,
            } => {
                assert_eq!((block, round), (2, 3), "{method}");
                assert!(message.contains("injected fault"), "{method}: {message}");
            }
            other => panic!("{method}: expected BlockPanicked, got {other:?}"),
        }
    }
}

#[test]
fn panic_in_round_zero_and_last_round_are_both_caught() {
    for method in [SyncMethod::GpuSimple, SyncMethod::CpuImplicit] {
        for round in [0usize, 5] {
            let k = FaultInjector::new(
                Increment::new(3, 6),
                Fault::in_round(0, round, FaultKind::Panic),
            );
            let err = LaunchPlan::compile(GridConfig::new(3, 8), method)
                .and_then(|plan| plan.run(&k))
                .unwrap_err();
            assert!(
                matches!(err, ExecError::BlockPanicked { block: 0, round: r, .. } if r == round),
                "{method} round {round}: got {err:?}"
            );
        }
    }
}

/// A straggler (cooperatively-infinite loop) must trip the timeout with a
/// diagnostic naming it — for every method. This is the test that proves
/// the CPU methods' kernel boundaries also honour the deadline, not just
/// the device-side spin barriers.
#[test]
fn injected_straggler_times_out_under_every_method() {
    for method in ALL_SYNC_METHODS {
        let k = FaultInjector::new(
            Increment::new(3, 5),
            Fault::in_round(1, 2, FaultKind::Straggler),
        );
        let timeout = Duration::from_millis(80);
        let cfg = GridConfig::new(3, 8).with_policy(SyncPolicy::with_timeout(timeout));
        let started = Instant::now();
        let err = LaunchPlan::compile(cfg, method)
            .and_then(|plan| plan.run(&k))
            .unwrap_err();
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(10),
            "{method}: unwind took {elapsed:?}"
        );
        match err {
            ExecError::BarrierTimeout { diagnostic } => {
                assert_eq!(diagnostic.stragglers(), vec![1], "{method}: {diagnostic}");
                assert_eq!(diagnostic.round, 2, "{method}");
                assert_eq!(diagnostic.timeout, timeout, "{method}");
            }
            other => panic!("{method}: expected BarrierTimeout, got {other:?}"),
        }
    }
}

/// A transient delay shorter than the timeout must be absorbed: the run
/// succeeds and results are correct.
#[test]
fn delay_within_timeout_is_absorbed_under_every_method() {
    for method in ALL_SYNC_METHODS {
        let k = FaultInjector::new(
            Increment::new(3, 4),
            Fault::in_round(2, 1, FaultKind::Delay(Duration::from_millis(20))),
        );
        let cfg =
            GridConfig::new(3, 8).with_policy(SyncPolicy::with_timeout(Duration::from_secs(10)));
        let stats = LaunchPlan::compile(cfg, method)
            .and_then(|plan| plan.run(&k))
            .unwrap_or_else(|e| panic!("{method}: {e}"));
        assert_eq!(stats.rounds, 4);
        assert!(
            k.inner().slots.to_vec().iter().all(|&v| v == 4),
            "{method}: lost work"
        );
    }
}

/// Without a timeout configured (the default policy), a panic must still
/// unwind every peer via barrier poisoning — bounded waits are an extra
/// guarantee, not a prerequisite for panic safety.
#[test]
fn panic_unwinds_peers_even_without_a_timeout() {
    for method in ALL_SYNC_METHODS {
        let k = FaultInjector::new(
            Increment::new(4, 5),
            Fault::in_round(3, 1, FaultKind::Panic),
        );
        let started = Instant::now();
        let err = LaunchPlan::compile(GridConfig::new(4, 8), method)
            .and_then(|plan| plan.run(&k))
            .unwrap_err();
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "{method}: poison propagation too slow"
        );
        assert!(
            matches!(
                err,
                ExecError::BlockPanicked {
                    block: 3,
                    round: 1,
                    ..
                }
            ),
            "{method}: got {err:?}"
        );
    }
}

/// Block 1 parks forever in round 1, ignoring the abort signal: models
/// kernel code stuck in a syscall or a foreign spin loop.
struct ParkForever {
    parked: Arc<AtomicBool>,
}

impl RoundKernel for ParkForever {
    fn rounds(&self) -> usize {
        3
    }
    fn round(&self, ctx: &BlockCtx, round: usize) {
        if ctx.block_id == 1 && round == 1 {
            self.parked.store(true, Ordering::Release);
            loop {
                std::thread::park();
            }
        }
    }
}

/// `run_owned` of [`ParkForever`] under `method` with a 50 ms timeout:
/// returns within 5 s with a `BarrierTimeout` whose diagnostic names
/// block 1 as the straggler.
fn owned_straggler_is_left_behind(method: SyncMethod) -> Box<StuckDiagnostic> {
    let parked = Arc::new(AtomicBool::new(false));
    let kernel: Arc<dyn RoundKernel + Send + Sync> = Arc::new(ParkForever {
        parked: Arc::clone(&parked),
    });
    let cfg =
        GridConfig::new(3, 8).with_policy(SyncPolicy::with_timeout(Duration::from_millis(50)));
    let started = Instant::now();
    let err = LaunchPlan::compile(cfg, method)
        .and_then(|plan| plan.run_owned(kernel))
        .unwrap_err();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "{method}: took {elapsed:?}"
    );
    assert!(parked.load(Ordering::Acquire), "straggler never ran");
    match err {
        ExecError::BarrierTimeout { diagnostic } => {
            assert!(diagnostic.stragglers().contains(&1), "{diagnostic}");
            assert_eq!(diagnostic.round, 1, "{diagnostic}");
            assert_eq!(diagnostic.timeout, Duration::from_millis(50));
            diagnostic
        }
        other => panic!("{method}: expected BarrierTimeout, got {other:?}"),
    }
}

/// Regression: a **non-cooperative** straggler (never checks the abort
/// signal, never returns) under CPU-explicit synchronization used to hang
/// the run forever — the host aborted on deadline but then unconditionally
/// joined every worker, including the one stuck inside kernel code. With
/// the join watchdog, `run_owned` must surface the deadline's
/// `StuckDiagnostic` as a `BarrierTimeout` and detach the stuck thread.
#[test]
fn cpu_explicit_noncooperative_straggler_does_not_hang() {
    let diagnostic = owned_straggler_is_left_behind(SyncMethod::CpuExplicit);
    assert_eq!(diagnostic.barrier, "cpu-explicit", "{diagnostic}");
    assert_eq!(diagnostic.stragglers(), vec![1], "{diagnostic}");
}

/// The same bound under a device-side barrier: a cold launch is launch 0
/// of a pool, so an owned kernel's stuck block is abandoned (and its
/// worker left behind) like any pooled launch's.
#[test]
fn owned_noncooperative_straggler_does_not_hang_a_barrier_method() {
    owned_straggler_is_left_behind(SyncMethod::GpuLockFree);
}

/// The error message (Display) must carry the block, the round, and — for
/// timeouts — the stragglers, so operators can act on logs alone.
#[test]
fn error_displays_are_actionable() {
    let k = FaultInjector::new(
        Increment::new(3, 4),
        Fault::in_round(0, 1, FaultKind::Straggler),
    );
    let cfg =
        GridConfig::new(3, 8).with_policy(SyncPolicy::with_timeout(Duration::from_millis(60)));
    let err = LaunchPlan::compile(cfg, SyncMethod::GpuLockFree)
        .and_then(|plan| plan.run(&k))
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("round 1"), "{msg}");
    assert!(msg.contains("[0]"), "{msg}");
    assert!(msg.contains("gpu-lock-free"), "{msg}");

    let k = FaultInjector::new(
        Increment::new(2, 2),
        Fault::in_round(1, 0, FaultKind::Panic),
    );
    let err = LaunchPlan::compile(GridConfig::new(2, 8), SyncMethod::GpuSimple)
        .and_then(|plan| plan.run(&k))
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("block 1"), "{msg}");
    assert!(msg.contains("round 0"), "{msg}");
}
