//! Integration and property tests of the persistent pooled runtime
//! ([`GridRuntime`]): launch-overhead bounds under repeated submission,
//! fault recovery that leaves the pool reusable, and the cross-method
//! fault-injection matrix run through one pool per method.

use std::sync::Arc;
use std::time::{Duration, Instant};

use blocksync::core::{
    stall_duration, BlockCtx, ExecError, Fault, FaultInjector, FaultKind, FaultSchedule,
    GlobalBuffer, GridConfig, GridExecutor, GridRuntime, RoundKernel, StuckPhase, SyncMethod,
    SyncPolicy, TreeLevels,
};
use proptest::prelude::*;

/// Every method the pooled runtime supports: the device-side barriers, the
/// CPU-implicit driver rendezvous (the launch log *is* pipelined implicit
/// sync), and the barrier-free control.
const POOLED_METHODS: [SyncMethod; 8] = [
    SyncMethod::GpuSimple,
    SyncMethod::GpuTree(TreeLevels::Two),
    SyncMethod::GpuTree(TreeLevels::Three),
    SyncMethod::GpuLockFree,
    SyncMethod::SenseReversing,
    SyncMethod::Dissemination,
    SyncMethod::CpuImplicit,
    SyncMethod::NoSync,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Repeated `submit()` on one pool stays off the cold path: only the
    /// first launch is `cold`, and no later one spawns a thread — every
    /// worker keeps the generation it was first spawned with. That is what
    /// keeps a warm launch below a cold spawn (the paper's `t_O`
    /// amortization, extended across kernels); by how much is a
    /// stopwatch's business and is on the ruler (`runtime.cold_us` vs
    /// `runtime.run_empty_us`), not in a test that two busy neighbours can
    /// fail.
    #[test]
    fn repeated_submits_keep_launch_below_cold_spawn(
        blocks in 4usize..=6,
        rounds in 2usize..=8,
    ) {
        let rt = GridRuntime::new(GridConfig::new(blocks, 8), SyncMethod::GpuLockFree).unwrap();
        let spawned = rt.generations();
        for i in 0..9u64 {
            let k = Arc::new(Increment::new(blocks, rounds));
            let stats = rt.submit(Arc::clone(&k)).unwrap().wait().unwrap();
            let pool = stats.pool.as_ref().expect("pooled run carries pool stats");
            prop_assert_eq!(pool.launch_seq, i);
            prop_assert_eq!(pool.cold, i == 0);
            prop_assert_eq!(rt.generations(), spawned.clone(), "launch {} spawned a worker", i);
            prop_assert!(k.slots.to_vec().iter().all(|&v| v == rounds as u64));
        }
    }

    /// A fault-injected launch (panic at a random block/round) fails
    /// alone; the pool stays reusable and the next submission completes
    /// with correct results.
    #[test]
    fn faulted_launch_leaves_pool_reusable(
        bad_block in 0usize..4,
        bad_round in 0usize..4,
    ) {
        let rt = GridRuntime::new(GridConfig::new(4, 8), SyncMethod::GpuLockFree).unwrap();
        let faulty = Arc::new(FaultInjector::new(
            Increment::new(4, 4),
            Fault::in_round(bad_block, bad_round, FaultKind::Panic),
        ));
        let err = rt.submit(faulty).unwrap().wait().unwrap_err();
        prop_assert!(
            matches!(
                err,
                ExecError::BlockPanicked { block, round, .. }
                    if block == bad_block && round == bad_round
            ),
            "got {err:?}"
        );
        let clean = Arc::new(Increment::new(4, 5));
        let stats = rt.submit(Arc::clone(&clean)).unwrap().wait().unwrap();
        prop_assert_eq!(stats.rounds, 5);
        prop_assert!(clean.slots.to_vec().iter().all(|&v| v == 5));
    }
}

/// The cross-method fault-injection matrix, run through
/// [`GridRuntime::run`]: every supported method converts an injected panic
/// into a structured error naming the block and round, and the *same
/// pool* runs clean afterwards.
#[test]
fn pooled_executor_survives_injected_panics_under_every_method() {
    for method in POOLED_METHODS {
        if method == SyncMethod::NoSync {
            continue; // no inter-block ordering: the fault plan's round
                      // alignment is meaningless without a barrier
        }
        let cfg =
            GridConfig::new(4, 8).with_policy(SyncPolicy::with_timeout(Duration::from_secs(20)));
        let rt = GridRuntime::new(cfg, method).unwrap();
        let k = FaultInjector::new(
            Increment::new(4, 6),
            Fault::in_round(2, 3, FaultKind::Panic),
        );
        let started = Instant::now();
        let err = rt.run(&k).unwrap_err();
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "{method}: detection too slow"
        );
        assert!(
            matches!(
                err,
                ExecError::BlockPanicked {
                    block: 2,
                    round: 3,
                    ..
                }
            ),
            "{method}: got {err:?}"
        );
        // Same pool: a clean kernel still runs correctly.
        let clean = Increment::new(4, 4);
        let stats = rt.run(&clean).unwrap_or_else(|e| panic!("{method}: {e}"));
        assert_eq!(stats.rounds, 4, "{method}");
        assert!(
            clean.slots.to_vec().iter().all(|&v| v == 4),
            "{method}: lost work after pool recovery"
        );
        assert_eq!(
            stats.pool.as_deref().map(|p| p.launch_seq),
            Some(1),
            "{method}: recovery run did not reuse the pool"
        );
    }
}

/// A pooled straggler trips the policy timeout with a diagnostic naming
/// it, exactly like the scoped path — and the pool is usable afterwards.
#[test]
fn pooled_straggler_times_out_with_diagnostic() {
    let cfg =
        GridConfig::new(3, 8).with_policy(SyncPolicy::with_timeout(Duration::from_millis(80)));
    let rt = GridRuntime::new(cfg, SyncMethod::GpuLockFree).unwrap();
    let k = FaultInjector::new(
        Increment::new(3, 5),
        Fault::in_round(1, 2, FaultKind::Straggler),
    );
    let started = Instant::now();
    let err = rt.run(&k).unwrap_err();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "unwind too slow"
    );
    match err {
        ExecError::BarrierTimeout { diagnostic } => {
            assert_eq!(diagnostic.stragglers(), vec![1], "{diagnostic}");
        }
        other => panic!("expected BarrierTimeout, got {other:?}"),
    }
    // Injected stragglers are cooperative (they watch the abort signal),
    // so the worker is released and the pool keeps serving launches.
    let clean = Increment::new(3, 3);
    let stats = rt.run(&clean).unwrap();
    assert_eq!(stats.rounds, 3);
    assert!(clean.slots.to_vec().iter().all(|&v| v == 3));
}

/// The same block stalling (non-cooperatively) on N consecutive owned
/// submits must be abandoned and *replaced* each time: the per-block
/// generation counter increases strictly per incident, and the pool stays
/// serviceable throughout — the self-healing loop the chaos harness soaks.
#[test]
fn repeated_straggler_is_replaced_every_time_with_rising_generation() {
    let timeout = Duration::from_millis(80);
    let cfg = GridConfig::new(3, 8).with_policy(SyncPolicy::with_timeout(timeout));
    let rt = GridRuntime::new(cfg, SyncMethod::GpuLockFree).unwrap();
    assert_eq!(rt.generations(), vec![0, 0, 0]);
    for incident in 1..=3u64 {
        let sick = Arc::new(FaultInjector::with_schedule(
            Increment::new(3, 4),
            FaultSchedule::new(vec![Fault::in_round(
                1,
                1,
                FaultKind::Stall(stall_duration(timeout)),
            )]),
        ));
        let err = rt.submit(sick).unwrap().wait().unwrap_err();
        assert!(
            matches!(err, ExecError::BarrierTimeout { .. }),
            "incident {incident}: got {err:?}"
        );
        let gens = rt.generations();
        assert_eq!(
            gens[1], incident,
            "incident {incident}: stalled worker not replaced (gens {gens:?})"
        );
        assert_eq!(
            (gens[0], gens[2]),
            (0, 0),
            "incident {incident}: healthy workers were churned (gens {gens:?})"
        );
        // The replacement worker serves the very next launch correctly.
        let clean = Arc::new(Increment::new(3, 2));
        let stats = rt.submit(Arc::clone(&clean)).unwrap().wait().unwrap();
        assert_eq!(stats.rounds, 2, "incident {incident}");
        assert!(
            clean.slots.to_vec().iter().all(|&v| v == 2),
            "incident {incident}: lost work after replacement"
        );
    }
}

/// Regression: a fault that strikes during pooled *assembly* (before round
/// 0 of the kernel body) must be diagnosed in the assembly phase — naming
/// the launch's gate, not a fictitious round-0 barrier wait.
#[test]
fn assembly_phase_fault_is_reported_as_assembly_not_round_zero() {
    let timeout = Duration::from_millis(80);
    let cfg = GridConfig::new(3, 8).with_policy(SyncPolicy::with_timeout(timeout));
    let rt = GridRuntime::new(cfg, SyncMethod::GpuLockFree).unwrap();

    // Cooperative assembly straggler: diagnosed by a peer's gate deadline.
    let sick = Arc::new(FaultInjector::with_schedule(
        Increment::new(3, 4),
        FaultSchedule::new(vec![Fault::in_assembly(2, FaultKind::Straggler)]),
    ));
    let err = rt.submit(sick).unwrap().wait().unwrap_err();
    match err {
        ExecError::BarrierTimeout { diagnostic } => {
            assert_eq!(diagnostic.phase, StuckPhase::Assembly, "{diagnostic}");
            assert_eq!(diagnostic.waiting_block, 2, "{diagnostic}");
            let msg = diagnostic.to_string();
            assert!(msg.contains("assembly"), "{msg}");
            assert!(
                !msg.contains("barrier round"),
                "looks like a round wait: {msg}"
            );
        }
        other => panic!("expected BarrierTimeout, got {other:?}"),
    }

    // Non-cooperative assembly stall: diagnosed via host abandonment, and
    // the stuck worker is replaced.
    let sick = Arc::new(FaultInjector::with_schedule(
        Increment::new(3, 4),
        FaultSchedule::new(vec![Fault::in_assembly(
            0,
            FaultKind::Stall(stall_duration(timeout)),
        )]),
    ));
    let err = rt.submit(sick).unwrap().wait().unwrap_err();
    match err {
        ExecError::BarrierTimeout { diagnostic } => {
            assert_eq!(diagnostic.phase, StuckPhase::Assembly, "{diagnostic}");
            assert_eq!(diagnostic.waiting_block, 0, "{diagnostic}");
        }
        other => panic!("expected BarrierTimeout, got {other:?}"),
    }
    assert_eq!(
        rt.generations()[0],
        1,
        "stalled assembly worker not replaced"
    );

    // Either way the pool keeps serving.
    let clean = Arc::new(Increment::new(3, 3));
    let stats = rt.submit(Arc::clone(&clean)).unwrap().wait().unwrap();
    assert_eq!(stats.rounds, 3);
    assert!(clean.slots.to_vec().iter().all(|&v| v == 3));
}

/// Multiple faults in one schedule: the merged error is deterministic —
/// the earliest-round origin wins, and on a same-round tie the lowest
/// block id wins (see DESIGN.md §6).
#[test]
fn multi_fault_schedule_reports_the_earliest_then_lowest_origin() {
    let cfg = GridConfig::new(4, 8).with_policy(SyncPolicy::with_timeout(Duration::from_secs(10)));
    // Earlier round wins regardless of block order.
    let k = FaultInjector::with_schedule(
        Increment::new(4, 6),
        FaultSchedule::new(vec![
            Fault::in_round(1, 3, FaultKind::Panic),
            Fault::in_round(2, 1, FaultKind::Panic),
        ]),
    );
    let err = GridExecutor::new(cfg.clone(), SyncMethod::GpuLockFree)
        .run(&k)
        .unwrap_err();
    assert!(
        matches!(
            err,
            ExecError::BlockPanicked {
                block: 2,
                round: 1,
                ..
            }
        ),
        "earliest round should win: {err:?}"
    );
    // Same round: the lowest block id is the reported origin.
    let k = FaultInjector::with_schedule(
        Increment::new(4, 6),
        FaultSchedule::new(vec![
            Fault::in_round(3, 2, FaultKind::Panic),
            Fault::in_round(1, 2, FaultKind::Panic),
        ]),
    );
    let err = GridExecutor::new(cfg, SyncMethod::GpuLockFree)
        .run(&k)
        .unwrap_err();
    assert!(
        matches!(
            err,
            ExecError::BlockPanicked {
                block: 1,
                round: 2,
                ..
            }
        ),
        "lowest block should win the tie: {err:?}"
    );
}
