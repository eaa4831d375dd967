//! Property-based tests of the telemetry plane (`blocksync_core::trace`).
//!
//! Invariants, for every synchronization method and any injected fault:
//!
//! 1. **Well-nested, monotone event streams** — per block, timestamps are
//!    non-decreasing, every `BarrierArrive` is closed by a `BarrierDepart`
//!    of the same round before the next arrive, and rounds never decrease.
//! 2. **Exact counts** — a run that completes records exactly
//!    `n_blocks x rounds` arrive/depart/round-start/round-end events at
//!    stride 1, with nothing dropped.
//! 3. **Timeline ≈ stats** — the sum of arrive→depart spans matches the
//!    `KernelStats` aggregate sync time within 10% for every method (the
//!    acceptance bar for the Chrome-trace export, which draws those spans).

use std::time::Duration;

use blocksync::core::{
    self, BlockCtx, ExecError, FaultInjector, FaultKind, GlobalBuffer, GridConfig, LaunchPlan,
    RoundKernel, SyncMethod, SyncPolicy, Telemetry, TraceConfig, TraceEventKind, TreeLevels,
};
use blocksync::microbench::run_host_traced;
use proptest::prelude::*;

/// Every method the executor can run (NoSync has no barrier events and is
/// covered by a deterministic test below).
fn exec_method_strategy() -> impl Strategy<Value = SyncMethod> {
    prop_oneof![
        Just(SyncMethod::CpuExplicit),
        Just(SyncMethod::CpuImplicit),
        Just(SyncMethod::GpuSimple),
        Just(SyncMethod::GpuTree(TreeLevels::Two)),
        Just(SyncMethod::GpuTree(TreeLevels::Three)),
        Just(SyncMethod::GpuLockFree),
        Just(SyncMethod::SenseReversing),
        Just(SyncMethod::Dissemination),
    ]
}

#[derive(Debug, Clone, Copy)]
enum Fault {
    None,
    /// Stall one (block, round) briefly — perturbs timing, run completes.
    Delay(usize, usize),
    /// Kill one (block, round) — run must fail as `BlockPanicked`.
    Panic(usize, usize),
}

fn fault_strategy() -> impl Strategy<Value = Fault> {
    prop_oneof![
        Just(Fault::None),
        (0usize..8, 0usize..40).prop_map(|(b, r)| Fault::Delay(b, r)),
        (0usize..8, 0usize..40).prop_map(|(b, r)| Fault::Panic(b, r)),
    ]
}

/// Minimal round kernel: every block stamps its (block, round) pair.
struct StampKernel {
    out: GlobalBuffer<u64>,
    rounds: usize,
}

impl StampKernel {
    fn new(n_blocks: usize, rounds: usize) -> Self {
        StampKernel {
            out: GlobalBuffer::new(n_blocks),
            rounds,
        }
    }
}

impl RoundKernel for StampKernel {
    fn rounds(&self) -> usize {
        self.rounds
    }
    fn round(&self, ctx: &BlockCtx, round: usize) {
        self.out
            .set(ctx.block_id, (ctx.block_id * 1000 + round) as u64);
    }
}

/// Check invariant 1 (monotone, well-nested per-block streams).
fn check_well_nested(t: &Telemetry, n_blocks: usize) {
    for b in 0..n_blocks {
        let evs: Vec<_> = t.events.iter().filter(|e| e.block == b).collect();
        for w in evs.windows(2) {
            assert!(
                w[0].at <= w[1].at,
                "block {b}: time went backwards: {} then {}",
                w[0],
                w[1]
            );
        }
        let mut open: Option<usize> = None;
        let mut last_departed: Option<usize> = None;
        for e in &evs {
            match e.kind {
                TraceEventKind::BarrierArrive => {
                    assert!(
                        open.is_none(),
                        "block {b}: arrive {} while round {open:?} still open",
                        e.round
                    );
                    if let Some(prev) = last_departed {
                        assert!(
                            e.round > prev,
                            "block {b}: arrive round {} after departing {prev}",
                            e.round
                        );
                    }
                    open = Some(e.round);
                }
                TraceEventKind::BarrierDepart => {
                    assert_eq!(
                        open.take(),
                        Some(e.round),
                        "block {b} depart round {} does not close the open arrive",
                        e.round
                    );
                    last_departed = Some(e.round);
                }
                _ => {}
            }
        }
        assert!(
            open.is_none(),
            "block {b}: arrive round {open:?} never departed in a completed run"
        );
    }
}

proptest! {
    // Thread-heavy cases: keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn events_well_nested_for_any_method_and_fault(
        method in exec_method_strategy(),
        n_blocks in 1usize..5,
        rounds in 1usize..40,
        fault in fault_strategy(),
    ) {
        let cfg = GridConfig::new(n_blocks, 8)
            .with_policy(SyncPolicy::with_timeout(Duration::from_secs(30)))
            .with_trace(TraceConfig::new());
        let plan = LaunchPlan::compile(cfg, method).unwrap();
        let base = StampKernel::new(n_blocks, rounds);
        match fault {
            Fault::Panic(b, r) => {
                let (b, r) = (b % n_blocks, r % rounds);
                let k = FaultInjector::new(base, core::Fault::in_round(b, r, FaultKind::Panic));
                let err = plan.run(&k).unwrap_err();
                match err {
                    ExecError::BlockPanicked { block, round, .. } => {
                        prop_assert_eq!((block, round), (b, r));
                    }
                    other => panic!("{method}: expected BlockPanicked, got {other:?}"),
                }
            }
            Fault::None | Fault::Delay(..) => {
                let (b, r, by) = match fault {
                    Fault::Delay(b, r) => (b % n_blocks, r % rounds, Duration::from_millis(2)),
                    // A delay of zero is the identity fault.
                    _ => (0, 0, Duration::ZERO),
                };
                let k = FaultInjector::new(base, core::Fault::in_round(b, r, FaultKind::Delay(by)));
                let stats = plan.run(&k).expect("delayed runs still complete");
                let t = stats.telemetry.as_ref().expect("tracing was configured");
                prop_assert_eq!(t.dropped, 0, "auto capacity must fit the run");
                check_well_nested(t, n_blocks);
                // Completed runs record the exact event counts (stride 1).
                let expect = n_blocks * rounds;
                for kind in [
                    TraceEventKind::RoundStart,
                    TraceEventKind::RoundEnd,
                    TraceEventKind::BarrierArrive,
                    TraceEventKind::BarrierDepart,
                ] {
                    prop_assert_eq!(
                        t.count(kind), expect,
                        "{} {:?} events for {} blocks x {} rounds",
                        method, kind, n_blocks, rounds
                    );
                }
            }
        }
    }
}

#[test]
fn nosync_records_rounds_but_no_barrier_events() {
    let cfg = GridConfig::new(3, 8).with_trace(TraceConfig::new());
    let k = StampKernel::new(3, 10);
    let stats = LaunchPlan::compile(cfg, SyncMethod::NoSync)
        .and_then(|plan| plan.run(&k))
        .unwrap();
    let t = stats.telemetry.as_ref().unwrap();
    assert_eq!(t.count(TraceEventKind::RoundStart), 30);
    assert_eq!(t.count(TraceEventKind::RoundEnd), 30);
    assert_eq!(t.count(TraceEventKind::BarrierArrive), 0);
    assert_eq!(t.count(TraceEventKind::BarrierDepart), 0);
}

/// Acceptance bar for the timeline export: the per-round sync spans the
/// Chrome trace draws must sum to the `KernelStats` aggregate sync time
/// within 10% (plus a small absolute epsilon for sub-microsecond methods),
/// for every method — and both must be exactly zero under `NoSync`.
#[test]
fn timeline_sync_spans_match_kernel_stats() {
    for method in [
        SyncMethod::CpuExplicit,
        SyncMethod::CpuImplicit,
        SyncMethod::GpuSimple,
        SyncMethod::GpuTree(TreeLevels::Two),
        SyncMethod::GpuTree(TreeLevels::Three),
        SyncMethod::GpuLockFree,
        SyncMethod::SenseReversing,
        SyncMethod::Dissemination,
        SyncMethod::NoSync,
    ] {
        let (stats, ok) =
            run_host_traced(3, 8, 300, method, TraceConfig::new()).expect("valid config");
        assert!(ok, "{method}: verification failed");
        let t = stats.telemetry.as_ref().expect("tracing was configured");
        let spans = t.sync_span_total().as_secs_f64();
        let stat: f64 = stats.per_block.iter().map(|b| b.sync.as_secs_f64()).sum();
        if method == SyncMethod::NoSync {
            // No barrier, no t_S: both sides are zero by construction, not
            // merely close.
            assert!(stat == 0.0 && spans == 0.0, "{method}: {spans}s vs {stat}s");
            continue;
        }
        let tolerance = 0.10 * stat.max(spans) + 500e-6;
        assert!(
            (spans - stat).abs() <= tolerance,
            "{method}: timeline {spans:.6}s vs stats {stat:.6}s (tolerance {tolerance:.6}s)"
        );
    }
}

/// The recorder samples the spin histogram exactly once per completed
/// GPU-barrier wait — the no-RMW hot path defers counting to wait exit.
#[test]
fn spin_histogram_samples_once_per_wait() {
    for method in SyncMethod::GPU_METHODS {
        let (stats, ok) =
            run_host_traced(3, 8, 50, method, TraceConfig::new()).expect("valid config");
        assert!(ok);
        let t = stats.telemetry.as_ref().unwrap();
        // Tree barriers may wait on several internal flags per round, but
        // never fewer than one sample per block per round, and each
        // completed wait contributes exactly one sample.
        assert!(
            t.spin_polls.count() >= (3 * 50) as u64,
            "{method}: {} spin samples",
            t.spin_polls.count()
        );
        assert_eq!(
            t.sync_ns.count(),
            (3 * 50) as u64,
            "{method}: one sync sample per block per round"
        );
    }
}
