//! Integration and property tests of the persistent pooled runtime
//! ([`GridRuntime`]): launch-overhead bounds under repeated submission,
//! fault recovery that leaves the pool reusable, and the cross-method
//! fault-injection matrix run through one pool per method.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blocksync::core::{
    stall_duration, AbortSignal, BlockCtx, ExecError, Fault, FaultInjector, FaultKind,
    FaultSchedule, GlobalBuffer, GridConfig, GridRuntime, GridService, KernelStats, LaunchPlan,
    RoundKernel, ServiceConfig, ShardKey, StuckPhase, SyncMethod, SyncPolicy, TreeLevels,
};
use proptest::prelude::*;

mod common;

/// Every concrete method: the device-side barriers, the CPU methods'
/// launches per round (explicit's one at a time, implicit's all queued at
/// submit), and the barrier-free control.
const POOLED_METHODS: [SyncMethod; 9] = [
    SyncMethod::CpuExplicit,
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

    /// Repeated `submit()` on one pool stays off the cold path: no launch
    /// is `cold` but the process's first, and the device's sequence
    /// numbers strictly increase. That no launch after the process's first
    /// spawns a thread is core's unit test, which counts the spawns. That
    /// is what keeps a warm launch below a cold spawn (the paper's `t_O`
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
        let mut last = None;
        for i in 0..9u64 {
            let k = Arc::new(Increment::new(blocks, rounds));
            let stats = rt.submit(Arc::clone(&k)).unwrap().wait().unwrap();
            let pool = stats.pool.as_ref().expect("pooled run carries pool stats");
            prop_assert!(last < Some(pool.launch_seq), "launch {}: {:?}", i, pool);
            prop_assert_eq!(pool.cold, pool.launch_seq == 0);
            last = Some(pool.launch_seq);
            prop_assert!(k.slots.to_vec().iter().all(|&v| v == rounds as u64));
        }
        prop_assert_eq!(rt.launches(), 9);
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
        // Same pool: a clean kernel still runs correctly, on the grid
        // that appended the faulted launch's log entries (one, or one per
        // round it reached).
        let clean = Increment::new(4, 4);
        let stats = rt.run(&clean).unwrap_or_else(|e| panic!("{method}: {e}"));
        assert_eq!(stats.rounds, 4, "{method}");
        assert!(
            clean.slots.to_vec().iter().all(|&v| v == 4),
            "{method}: lost work after pool recovery"
        );
        let faulted_entries = match method {
            SyncMethod::CpuExplicit => 4,
            SyncMethod::CpuImplicit => 6,
            _ => 1,
        };
        let clean_entries = if method.is_cpu_side() { 4 } else { 1 };
        assert_eq!(
            rt.launches(),
            faulted_entries + clean_entries,
            "{method}: recovery run did not reuse the pool"
        );
    }
}

/// A pooled straggler trips the policy timeout with a diagnostic naming
/// it, exactly like a plan launch — and the pool is usable afterwards.
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
/// Generations belong to the process device, so the test runs in a
/// process of its own, where no other test's abandonment moves them.
#[test]
fn repeated_straggler_is_replaced_every_time_with_rising_generation() {
    common::in_fresh_process(
        "repeated_straggler_is_replaced_every_time_with_rising_generation",
        || {
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
        },
    );
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
            assert!(msg.contains("before round 0"), "{msg}");
            assert!(msg.contains("assembly gate"), "{msg}");
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
    let before = rt.generations()[0];
    let err = rt.submit(sick).unwrap().wait().unwrap_err();
    match err {
        ExecError::BarrierTimeout { diagnostic } => {
            assert_eq!(diagnostic.phase, StuckPhase::Assembly, "{diagnostic}");
            assert_eq!(diagnostic.waiting_block, 0, "{diagnostic}");
            let msg = diagnostic.to_string();
            assert!(msg.contains("before round 0"), "{msg}");
            assert!(msg.contains("assembly gate"), "{msg}");
            assert!(msg.contains("abandoned"), "{msg}");
        }
        other => panic!("expected BarrierTimeout, got {other:?}"),
    }
    // Rises: a concurrent test's abandonment may replace the same worker
    // of the process device too.
    assert!(
        rt.generations()[0] > before,
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
    let err = LaunchPlan::compile(cfg.clone(), SyncMethod::GpuLockFree)
        .and_then(|plan| plan.run(&k))
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
    let err = LaunchPlan::compile(cfg, SyncMethod::GpuLockFree)
        .and_then(|plan| plan.run(&k))
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

/// Launch 0 of the process device — the process's first launch, here a
/// `LaunchPlan::run` — starts its clock at submit: `queued` is zero, and
/// `launch` and `wall` include the worker spawns, inside what a stopwatch
/// around the call reads. The device is up after it: a kept
/// `GridRuntime`'s first launch is warm. The test runs in a process of its
/// own, so that no other test makes the process's first launch.
#[test]
fn launch_zero_is_cold_and_its_clock_covers_the_spawns() {
    common::in_fresh_process(
        "launch_zero_is_cold_and_its_clock_covers_the_spawns",
        || {
            let cfg = GridConfig::new(2, 8);
            let empty = (1usize, |_: &BlockCtx, _: usize| {});
            let check_cold = |what: &str, timed: Duration, stats: &KernelStats| {
                let pool = stats.pool.as_deref().expect("every barrier method pools");
                assert!(pool.cold, "{what}: {pool:?}");
                assert_eq!(pool.launch_seq, 0, "{what}");
                assert_eq!(pool.queued, Duration::ZERO, "{what}");
                assert!(Duration::ZERO < stats.launch, "{what}: no t_O");
                assert!(stats.launch <= stats.wall, "{what}: {stats}");
                assert!(
                    stats.wall <= timed,
                    "{what}: wall {:?} > {timed:?}",
                    stats.wall
                );
            };
            let plan = LaunchPlan::compile(cfg.clone(), SyncMethod::GpuLockFree).unwrap();
            let started = Instant::now();
            let stats = plan.run(&empty).unwrap();
            check_cold("LaunchPlan::run", started.elapsed(), &stats);

            let rt = GridRuntime::new(cfg, SyncMethod::GpuLockFree).unwrap();
            for seq in 1..=2 {
                let warm = rt.run(&empty).unwrap();
                let pool = warm.pool.as_deref().unwrap();
                assert!(!pool.cold && pool.launch_seq == seq, "{pool:?}");
            }
        },
    );
}

/// `on_launch` takes its time; every round records whether it had
/// returned yet.
struct SlowOnLaunch {
    launched: AtomicBool,
    early: AtomicUsize,
}

impl RoundKernel for SlowOnLaunch {
    fn rounds(&self) -> usize {
        2
    }
    fn round(&self, _: &BlockCtx, _: usize) {
        if !self.launched.load(Ordering::Acquire) {
            self.early.fetch_add(1, Ordering::Relaxed);
        }
    }
    fn on_launch(&self, _: &AbortSignal) {
        std::thread::sleep(Duration::from_millis(20));
        self.launched.store(true, Ordering::Release);
    }
}

/// Regression: `RoundKernel::on_launch` runs before any block starts — a
/// warm worker used to see the launch published first and run round 0
/// while `on_launch` was still sleeping, on `submit` and `run` alike.
#[test]
fn on_launch_returns_before_a_warm_worker_starts_round_zero() {
    let rt = GridRuntime::new(GridConfig::new(2, 8), SyncMethod::GpuLockFree).unwrap();
    rt.run(&Increment::new(2, 1)).unwrap();
    let fresh = || SlowOnLaunch {
        launched: Default::default(),
        early: Default::default(),
    };
    for i in 0..3 {
        let k = Arc::new(fresh());
        rt.submit(Arc::clone(&k)).unwrap().wait().unwrap();
        let early = k.early.load(Ordering::Relaxed);
        assert_eq!(early, 0, "submit {i}: rounds ran before on_launch returned");
        let k = fresh();
        rt.run(&k).unwrap();
        let early = k.early.load(Ordering::Relaxed);
        assert_eq!(early, 0, "run {i}: rounds ran before on_launch returned");
    }
}

/// The workers a pool of `n` blocks runs on: one per block up to the
/// host's cores, and at least two.
fn workers(n: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    n.min(cores.max(2))
}

/// Per block, how many of its round bodies have returned; every body
/// checks on entry that every block has finished the round before.
struct Boundary {
    done: Vec<AtomicUsize>,
    rounds: usize,
    /// Bodies that started while a block was not exactly one round behind
    /// or level with them.
    early: AtomicUsize,
}

impl RoundKernel for Boundary {
    fn rounds(&self) -> usize {
        self.rounds
    }
    fn round(&self, ctx: &BlockCtx, round: usize) {
        // Acquire pairs with the Release below: a body that sees a peer's
        // count sees that body's writes too.
        let behind = self
            .done
            .iter()
            .map(|d| d.load(Ordering::Acquire))
            .any(|d| d < round || d > round + 1);
        if behind {
            self.early.fetch_add(1, Ordering::Relaxed);
        }
        self.done[ctx.block_id].store(round + 1, Ordering::Release);
    }
}

/// CPU-implicit's kernel boundary is the next round's assembly gate: no
/// block's round r + 1 body starts before every block's round-r body has
/// returned — one block per worker, and folded four blocks per worker.
#[test]
fn cpu_implicit_never_starts_a_round_before_the_last_one_finished() {
    let w = workers(usize::MAX);
    for n in [w, 4 * w] {
        let rt = GridRuntime::new(GridConfig::new(n, 8), SyncMethod::CpuImplicit).unwrap();
        for _ in 0..3 {
            let k = Boundary {
                done: (0..n).map(|_| AtomicUsize::new(0)).collect(),
                rounds: 500,
                early: AtomicUsize::new(0),
            };
            rt.run(&k).unwrap();
            assert_eq!(k.early.load(Ordering::Relaxed), 0, "{n} blocks");
            assert!(k.done.iter().all(|d| d.load(Ordering::Relaxed) == 500));
        }
    }
}

/// All R log entries of a CPU-implicit launch are published at submit:
/// `launches()` counts them before the launch's first round has returned.
#[test]
fn cpu_implicit_publishes_every_round_at_submit() {
    const R: usize = 40;
    let rt = GridRuntime::new(GridConfig::new(2, 8), SyncMethod::CpuImplicit).unwrap();
    let release = Arc::new(AtomicBool::new(false));
    let held = Arc::clone(&release);
    let kernel = Arc::new((R, move |_: &BlockCtx, round: usize| {
        while round == 0 && !held.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_micros(50));
        }
    }));
    let handle = rt.submit(kernel).unwrap();
    assert_eq!(rt.launches(), R as u64);
    assert!(!handle.is_done());
    release.store(true, Ordering::Release);
    let stats = handle.wait().unwrap();
    assert_eq!(stats.rounds, R);
    assert_eq!(rt.launches(), R as u64);
    assert_eq!(rt.queue_depth(), 0);
}

/// A CPU-implicit wait-phase fault fires on the way into the kernel
/// boundary: a panic there names its block and round; a straggler or a
/// stall there times out in the assembly phase naming the same block and
/// round — in a middle round at the next round's gate, in the last at the
/// host's join — and the pool serves on.
#[test]
fn cpu_implicit_wait_phase_faults_surface_at_the_kernel_boundary() {
    let timeout = Duration::from_millis(80);
    let cfg = GridConfig::new(4, 8).with_policy(SyncPolicy::with_timeout(timeout));
    let rt = GridRuntime::new(cfg, SyncMethod::CpuImplicit).unwrap();
    let serves = |what: &str| {
        let clean = Arc::new(Increment::new(4, 3));
        rt.submit(Arc::clone(&clean))
            .and_then(|h| h.wait())
            .unwrap_or_else(|e| panic!("{what}: clean launch after the fault: {e}"));
        assert!(clean.slots.to_vec().iter().all(|&v| v == 3), "{what}");
    };
    for (block, round) in [(1, 2), (3, 5)] {
        let faulty = |kind| {
            Arc::new(
                FaultInjector::new(Increment::new(4, 6), Fault::in_wait(block, round, kind))
                    .with_policy(SyncPolicy::with_timeout(timeout)),
            )
        };
        let what = format!("panic at block {block} after round {round}");
        match rt.submit(faulty(FaultKind::Panic)).unwrap().wait() {
            Err(ExecError::BlockPanicked {
                block: b, round: r, ..
            }) => {
                assert_eq!((b, r), (block, round), "{what}");
            }
            other => panic!("{what}: expected BlockPanicked, got {other:?}"),
        }
        serves(&what);
        for kind in [
            FaultKind::Straggler,
            FaultKind::Stall(stall_duration(timeout)),
        ] {
            let what = format!("{kind:?} at block {block} after round {round}");
            match rt.submit(faulty(kind)).unwrap().wait() {
                Err(ExecError::BarrierTimeout { diagnostic }) => {
                    assert_eq!(
                        diagnostic.phase,
                        StuckPhase::Assembly,
                        "{what}: {diagnostic}"
                    );
                    assert_eq!(diagnostic.waiting_block, block, "{what}: {diagnostic}");
                    assert_eq!(diagnostic.round, round, "{what}: {diagnostic}");
                    assert_eq!(diagnostic.stragglers(), vec![block], "{what}: {diagnostic}");
                    let msg = diagnostic.to_string();
                    assert!(
                        msg.contains(&format!("after round {round}")),
                        "{what}: {msg}"
                    );
                    assert!(msg.contains("kernel boundary"), "{what}: {msg}");
                }
                other => panic!("{what}: expected BarrierTimeout, got {other:?}"),
            }
            serves(&what);
        }
    }
}

/// A worker still busy on an earlier CPU-implicit launch reaches the next
/// one only after a peer's assembly panic failed it. It still reports the
/// launch's first entry, so with no policy timeout the launch settles and
/// names the panicking block instead of leaving its waiter asleep.
#[test]
fn cpu_implicit_launch_failed_before_a_late_worker_arrives_still_settles() {
    const R: usize = 4;
    let rt = GridRuntime::new(GridConfig::new(2, 8), SyncMethod::CpuImplicit).unwrap();
    for i in 0..3 {
        // Block 1's last round holds its worker while block 0's worker
        // moves on to the next launch and panics in its assembly.
        let slow = Arc::new((R, |ctx: &BlockCtx, round: usize| {
            if ctx.block_id == 1 && round == R - 1 {
                std::thread::sleep(Duration::from_millis(50));
            }
        }));
        let first = rt.submit(slow).unwrap();
        let faulty = Arc::new(FaultInjector::new(
            Increment::new(2, 3),
            Fault::in_assembly(0, FaultKind::Panic),
        ));
        let second = rt.submit(faulty).unwrap();
        first.wait().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(second.wait()).unwrap());
        match rx.recv_timeout(Duration::from_secs(20)) {
            Ok(Err(ExecError::BlockPanicked { block: 0, .. })) => {}
            Ok(other) => panic!("run {i}: expected BlockPanicked on block 0, got {other:?}"),
            Err(_) => panic!("run {i}: the failed launch never settled"),
        }
        let clean = Arc::new(Increment::new(2, 3));
        rt.submit(Arc::clone(&clean)).unwrap().wait().unwrap();
        assert!(clean.slots.to_vec().iter().all(|&v| v == 3), "run {i}");
    }
}

/// A one-block kernel that sleeps 20 ms and then raises `flag`.
fn raise_late(flag: &Arc<AtomicBool>) -> Arc<dyn RoundKernel + Send + Sync> {
    let flag = Arc::clone(flag);
    Arc::new((1usize, move |_: &BlockCtx, _: usize| {
        std::thread::sleep(Duration::from_millis(20));
        flag.store(true, Ordering::Release);
    }))
}

/// A one-block kernel that records whether `flag` was up when it ran.
fn record(flag: &Arc<AtomicBool>, saw: &Arc<AtomicBool>) -> Arc<dyn RoundKernel + Send + Sync> {
    let (flag, saw) = (Arc::clone(flag), Arc::clone(saw));
    Arc::new((1usize, move |_: &BlockCtx, _: usize| {
        saw.store(flag.load(Ordering::Acquire), Ordering::Release);
    }))
}

/// A grid's launches keep their order: every launch of a grid runs on the
/// grid's one window of the device's workers, so pipelined launch B of a
/// 1-block runtime starts only after launch A finished, as the kernels of
/// one stream do — though the device has a free worker beside A's.
#[test]
fn a_runtime_launches_in_stream_order() {
    let rt = GridRuntime::new(GridConfig::new(1, 8), SyncMethod::GpuLockFree).unwrap();
    let (flag, saw) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let a = rt.submit_dyn(raise_late(&flag)).unwrap();
    let b = rt.submit_dyn(record(&flag, &saw)).unwrap();
    a.wait().unwrap();
    b.wait().unwrap();
    assert!(
        saw.load(Ordering::Acquire),
        "launch B ran before launch A finished"
    );
}

/// [`a_runtime_launches_in_stream_order`] for two launches of one 1-block
/// service shard: a shard is one grid, placed once.
#[test]
fn a_service_shard_launches_in_stream_order() {
    let svc = GridService::new(ServiceConfig::default());
    let key = ShardKey::new(1, 8, SyncMethod::GpuLockFree);
    let (flag, saw) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let a = svc.submit("tenant", key, raise_late(&flag)).unwrap();
    let b = svc.submit("tenant", key, record(&flag, &saw)).unwrap();
    a.wait().unwrap();
    b.wait().unwrap();
    assert!(
        saw.load(Ordering::Acquire),
        "launch B ran before launch A finished"
    );
}
