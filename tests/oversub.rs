//! Oversubscription integration tests: every method must complete — and
//! compute bit-identical results — when the grid has more blocks than the
//! host has cores (2x, 4x, 16x), launched both cold (`LaunchPlan`) and on
//! a kept pool, with no policy beyond a timeout.
//!
//! Such a grid *folds*: it runs on one pool worker per core (at least
//! two), and worker `w` of `W` runs the round bodies of blocks `w, w + W,
//! …` in turn before its one wait on a barrier among the workers — the
//! paper's loop inside a block when there is more work than SMs, instead
//! of more resident blocks than the barrier can afford. What stays per
//! block is checked here: `per_block`, the trace, and which block a fault
//! names, also when that block is not the first its worker runs. None of
//! these tests sleeps. No waiter parks either: the bare barrier below is
//! wider than the host, and its waiters stay live by yielding, as they do
//! when another process takes a core.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use blocksync::core::{
    stall_duration, BlockCtx, ExecError, Fault, FaultInjector, FaultKind, GlobalBuffer, GridConfig,
    GridRuntime, LaunchPlan, RoundKernel, StuckPhase, SyncMethod, SyncPolicy, TraceConfig,
    TraceEventKind, TreeLevels,
};

/// The device-side barrier methods: a persistent grid that spins between
/// rounds, the regime the paper's one-block-per-SM rule is about.
const PARK_CAPABLE: [SyncMethod; 6] = [
    SyncMethod::GpuSimple,
    SyncMethod::GpuTree(TreeLevels::Two),
    SyncMethod::GpuTree(TreeLevels::Three),
    SyncMethod::GpuLockFree,
    SyncMethod::SenseReversing,
    SyncMethod::Dissemination,
];

/// Grid-dependent kernel: round r's value in every slot depends on ALL
/// blocks' round r-1 values (min over the grid, plus a block-salted term),
/// so any missed or misordered barrier round changes the output. Two
/// physical rounds per logical step (read phase, publish phase).
struct MinMix {
    slots: GlobalBuffer<u64>,
    scratch: GlobalBuffer<u64>,
    rounds: usize,
}

impl MinMix {
    fn new(n: usize, logical: usize) -> Self {
        MinMix {
            slots: GlobalBuffer::new(n),
            scratch: GlobalBuffer::new(n),
            rounds: logical * 2,
        }
    }
}

impl RoundKernel for MinMix {
    fn rounds(&self) -> usize {
        self.rounds
    }
    fn round(&self, ctx: &BlockCtx, round: usize) {
        let b = ctx.block_id;
        if round.is_multiple_of(2) {
            let min = (0..ctx.n_blocks)
                .map(|i| self.slots.get(i))
                .min()
                .expect("non-empty grid");
            self.scratch.set(b, min + 1 + (b as u64 % 3));
        } else {
            self.slots.set(b, self.scratch.get(b));
        }
    }
}

/// Sequential reference for [`MinMix`]: what the grid must compute.
fn minmix_reference(n: usize, logical: usize) -> Vec<u64> {
    let mut slots = vec![0u64; n];
    for _ in 0..logical {
        let min = *slots.iter().min().expect("non-empty grid");
        for (b, s) in slots.iter_mut().enumerate() {
            *s = min + 1 + (b as u64 % 3);
        }
    }
    slots
}

fn bounded() -> SyncPolicy {
    // A generous timeout keeps a genuine deadlock from hanging CI while
    // staying far above any legitimate yielding wait.
    SyncPolicy::with_timeout(Duration::from_secs(60))
}

/// The host's cores, capped at 8 so that 16x stays affordable.
fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(4)
        .min(8)
}

fn oversub_counts() -> Vec<usize> {
    let cores = cores();
    vec![2 * cores, 4 * cores, 16 * cores]
}

#[test]
fn every_park_capable_method_is_bit_identical_oversubscribed_scoped() {
    let logical = 6;
    for n in oversub_counts() {
        let expected = minmix_reference(n, logical);
        for method in PARK_CAPABLE {
            let k = MinMix::new(n, logical);
            let cfg = GridConfig::new(n, 16).with_policy(bounded());
            let stats = LaunchPlan::compile(cfg, method)
                .and_then(|plan| plan.run(&k))
                .unwrap_or_else(|e| panic!("{method} at {n} blocks (cold): {e}"));
            assert_eq!(stats.n_blocks, n);
            assert_eq!(
                k.slots.to_vec(),
                expected,
                "{method} at {n} blocks (cold) diverged"
            );
        }
    }
}

#[test]
fn every_park_capable_method_is_bit_identical_oversubscribed_pooled() {
    let logical = 4;
    // One (largest) count for the kept-pool lane: the cold test already
    // sweeps the full ladder.
    let n = *oversub_counts().last().expect("non-empty ladder");
    let expected = minmix_reference(n, logical);
    for method in PARK_CAPABLE {
        let k = MinMix::new(n, logical);
        let cfg = GridConfig::new(n, 16).with_policy(bounded());
        let rt = GridRuntime::new(cfg, method)
            .unwrap_or_else(|e| panic!("{method} at {n} blocks (pooled): {e}"));
        let stats = rt
            .run(&k)
            .unwrap_or_else(|e| panic!("{method} at {n} blocks (pooled): {e}"));
        assert_eq!(stats.n_blocks, n);
        assert_eq!(
            k.slots.to_vec(),
            expected,
            "{method} at {n} blocks (pooled) diverged"
        );
    }
}

#[test]
fn parking_lifts_the_device_ceiling_too() {
    // 64 blocks on the default 30-SM GTX 280 spec, whatever the host's
    // core count: admitted and correct. The ceiling
    // (`GpuSpec::validate_persistent_launch`) binds the simulated GPU,
    // whose resident blocks never yield; the host folds its blocks onto
    // its cores, so it never consults it.
    let logical = 3;
    let n = 64;
    let k = MinMix::new(n, logical);
    let cfg = GridConfig::new(n, 16).with_policy(bounded());
    LaunchPlan::compile(cfg, SyncMethod::GpuLockFree)
        .and_then(|plan| plan.run(&k))
        .expect("64 blocks on a 30-SM model complete");
    assert_eq!(k.slots.to_vec(), minmix_reference(n, logical));
}

#[test]
fn faults_at_oversubscription_still_produce_stuck_diagnostics() {
    // A bare barrier of 2x-cores threads, where no fold applies: an
    // absent block must surface the same structured timeout diagnostic a
    // resident grid produces — yielding past the cores must not swallow
    // poisoning or the straggler analysis.
    use blocksync::core::SyncFault;
    let cores = cores();
    let n = 2 * cores;
    let policy = SyncPolicy::with_timeout(Duration::from_millis(200));
    let shared = SyncMethod::GpuLockFree
        .build_barrier_with(n, policy)
        .expect("a device-side method builds a barrier");
    // Every block but the last arrives; the wait must time out with a
    // diagnostic naming the straggler.
    let fault = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n - 1)
            .map(|b| {
                let sh = Arc::clone(&shared);
                s.spawn(move || sh.waiter(b).wait())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .find_map(|r| r.err())
    })
    .expect("some waiter must fault");
    match fault {
        SyncFault::TimedOut { diagnostic } => {
            assert!(
                diagnostic.stragglers().contains(&(n - 1)),
                "diagnostic must name the absent block: {diagnostic:?}"
            );
        }
        SyncFault::Poisoned { cause, .. } => {
            // Peers that observed the first timeout's poison report it.
            assert_eq!(cause, blocksync::core::PoisonCause::Timeout);
        }
    }
}

/// The pooled fault matrix at 4x oversubscription (run as its own tier-1
/// CI step): every device-side barrier method converts an injected panic in a
/// folded pooled grid into a structured error naming the block and round,
/// and the same pool then runs a clean kernel correctly.
#[test]
fn pooled_fault_matrix_at_four_x_oversubscription() {
    let cores = cores();
    let n = 4 * cores;
    let logical = 3;
    let expected = minmix_reference(n, logical);
    for method in PARK_CAPABLE {
        let cfg =
            GridConfig::new(n, 8).with_policy(SyncPolicy::with_timeout(Duration::from_secs(20)));
        let rt = GridRuntime::new(cfg, method).unwrap();
        let k = FaultInjector::new(
            MinMix::new(n, logical),
            Fault::in_round(n - 1, 2, FaultKind::Panic),
        );
        let started = Instant::now();
        let err = rt.run(&k).unwrap_err();
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "{method}: detection too slow at {n} blocks"
        );
        assert!(
            matches!(
                err,
                ExecError::BlockPanicked { block, round, .. }
                    if block == n - 1 && round == 2
            ),
            "{method} at {n} blocks: got {err:?}"
        );
        // Same healed pool, still oversubscribed: a clean kernel must
        // complete bit-identical to the reference.
        let clean = MinMix::new(n, logical);
        let stats = rt
            .run(&clean)
            .unwrap_or_else(|e| panic!("{method} post-fault at {n} blocks: {e}"));
        assert_eq!(
            (stats.n_blocks, rt.launches()),
            (n, 2),
            "{method}: recovery run did not reuse the pool"
        );
        assert_eq!(
            clean.slots.to_vec(),
            expected,
            "{method}: lost work after pool recovery at {n} blocks"
        );
    }
}

/// The counter-based harness from the core crate, replayed at
/// oversubscription: per-round body counts must match exactly (no lost or
/// duplicated rounds) with sixteen blocks per worker.
#[test]
fn round_counts_are_exact_at_sixteen_x() {
    let cores = cores();
    let n = 16 * cores;
    let rounds = 30usize;
    let counter = AtomicU64::new(0);
    let k = (rounds, |_ctx: &BlockCtx, _round: usize| {
        counter.fetch_add(1, Ordering::Relaxed);
    });
    let cfg = GridConfig::new(n, 16).with_policy(bounded());
    LaunchPlan::compile(cfg, SyncMethod::GpuSimple)
        .and_then(|plan| plan.run(&k))
        .expect("folded grid completes");
    assert_eq!(counter.load(Ordering::Relaxed), (n * rounds) as u64);
}

/// Every method with inter-block ordering: the device-side barriers and
/// the CPU methods' launches per round.
const SYNC_METHODS: [SyncMethod; 8] = [
    SyncMethod::CpuExplicit,
    SyncMethod::CpuImplicit,
    SyncMethod::GpuSimple,
    SyncMethod::GpuTree(TreeLevels::Two),
    SyncMethod::GpuTree(TreeLevels::Three),
    SyncMethod::GpuLockFree,
    SyncMethod::SenseReversing,
    SyncMethod::Dissemination,
];

/// The workers a pool of `n` blocks runs on: one per block up to the
/// host's cores, and at least two.
fn workers(n: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    n.min(cores.max(2))
}

/// The policy of the fault tests: stragglers are named 80 ms in.
const FAULT_TIMEOUT: Duration = Duration::from_millis(80);

/// A folded pool — four blocks per core — whose waits time out after
/// [`FAULT_TIMEOUT`].
fn folded_pool(method: SyncMethod) -> (usize, GridRuntime) {
    let n = 4 * cores();
    let cfg = GridConfig::new(n, 8).with_policy(SyncPolicy::with_timeout(FAULT_TIMEOUT));
    (n, GridRuntime::new(cfg, method).unwrap())
}

/// The blocks a fault is injected at: the last, which is not the first
/// its worker runs, and block 1, which is.
fn fault_sites(n: usize) -> [usize; 2] {
    [n - 1, 1]
}

/// `kernel` carrying the one `fault`, its straggler sized to the policy.
fn faulty(n: usize, fault: Fault) -> FaultInjector<MinMix> {
    FaultInjector::new(MinMix::new(n, 3), fault)
        .with_policy(SyncPolicy::with_timeout(FAULT_TIMEOUT))
}

/// The pool still computes a clean launch bit-identically.
fn assert_serves(rt: &GridRuntime, n: usize, what: &str) {
    let clean = Arc::new(MinMix::new(n, 3));
    rt.submit(Arc::clone(&clean))
        .and_then(|h| h.wait())
        .unwrap_or_else(|e| panic!("{what}: clean launch after the fault: {e}"));
    assert_eq!(clean.slots.to_vec(), minmix_reference(n, 3), "{what}");
}

/// [`MinMix`], noting every thread that ran one of its blocks.
struct Noted {
    kernel: MinMix,
    threads: Mutex<HashSet<std::thread::ThreadId>>,
}

impl RoundKernel for Noted {
    fn rounds(&self) -> usize {
        self.kernel.rounds()
    }
    fn round(&self, ctx: &BlockCtx, round: usize) {
        self.threads
            .lock()
            .unwrap()
            .insert(std::thread::current().id());
        self.kernel.round(ctx, round);
    }
}

/// At four blocks per core, under every method: every block keeps its
/// own `BlockTimes` and trace — one `Launch` per block per log entry,
/// one round start, arrival and departure per block per round — while
/// the blocks run on exactly W threads, one per worker of the grid's
/// window, plus one for each of those workers that a concurrent test's
/// abandoned launch replaced between two of this launch's entries.
#[test]
fn a_folded_launch_keeps_every_block_and_runs_on_one_thread_per_worker() {
    let n = 4 * cores();
    let (logical, rounds) = (3, 6);
    for method in SYNC_METHODS.into_iter().chain([SyncMethod::NoSync]) {
        let cfg = GridConfig::new(n, 16)
            .with_policy(bounded())
            .with_trace(TraceConfig::new());
        let rt = GridRuntime::new(cfg, method).unwrap();
        // Blocks 0..W are hosted by the window's W workers, one each.
        let replaced = || rt.generations()[..workers(n)].iter().sum::<u64>() as usize;
        let before = replaced();
        let k = Noted {
            kernel: MinMix::new(n, logical),
            threads: Mutex::new(HashSet::new()),
        };
        let stats = rt
            .run(&k)
            .unwrap_or_else(|e| panic!("{method} at {n} blocks: {e}"));
        assert_eq!(stats.per_block.len(), n, "{method}");
        if method != SyncMethod::NoSync {
            assert_eq!(
                k.kernel.slots.to_vec(),
                minmix_reference(n, logical),
                "{method}"
            );
        }
        let threads = k.threads.lock().unwrap().len();
        let most = workers(n) + replaced() - before;
        assert!(
            (workers(n)..=most).contains(&threads),
            "{method}: {threads} threads ran a block, {} workers",
            workers(n)
        );
        let t = stats.telemetry.as_deref().expect("tracing was configured");
        let entries = if method.is_cpu_side() { rounds } else { 1 };
        let waits = if method == SyncMethod::NoSync {
            0
        } else {
            n * rounds
        };
        assert_eq!(t.count(TraceEventKind::Launch), n * entries, "{method}");
        assert_eq!(t.count(TraceEventKind::RoundStart), n * rounds, "{method}");
        assert_eq!(t.count(TraceEventKind::BarrierArrive), waits, "{method}");
        assert_eq!(t.count(TraceEventKind::BarrierDepart), waits, "{method}");
    }
}

/// A panic in a block's round body, or on its way into the barrier,
/// names that block and round — whether or not it is the first block its
/// worker runs.
#[test]
fn a_folded_panic_names_its_block() {
    for method in SYNC_METHODS {
        let (n, rt) = folded_pool(method);
        for b in fault_sites(n) {
            let mut faults = vec![Fault::in_round(b, 2, FaultKind::Panic)];
            if method != SyncMethod::CpuExplicit {
                faults.push(Fault::in_wait(b, 2, FaultKind::Panic));
            }
            for fault in faults {
                let what = format!("{method}, {:?} at block {b}", fault.phase);
                match rt.run(&faulty(n, fault)) {
                    Err(ExecError::BlockPanicked { block, round, .. }) => {
                        assert_eq!((block, round), (b, 2), "{what}");
                    }
                    other => panic!("{what}: expected BlockPanicked, got {other:?}"),
                }
                assert_serves(&rt, n, &what);
            }
        }
    }
}

/// A straggling block is the one straggler a timeout names — not the
/// blocks queued behind it on its worker — and an assembly straggler is
/// named in the assembly phase.
#[test]
fn a_folded_straggler_names_its_block() {
    for method in SYNC_METHODS {
        let (n, rt) = folded_pool(method);
        for b in fault_sites(n) {
            let what = format!("{method}, round straggler at block {b}");
            match rt.run(&faulty(n, Fault::in_round(b, 2, FaultKind::Straggler))) {
                Err(ExecError::BarrierTimeout { diagnostic }) => {
                    assert_eq!(diagnostic.round, 2, "{what}: {diagnostic}");
                    assert_eq!(diagnostic.stragglers(), vec![b], "{what}: {diagnostic}");
                }
                other => panic!("{what}: expected BarrierTimeout, got {other:?}"),
            }
            assert_serves(&rt, n, &what);
            let what = format!("{method}, assembly straggler at block {b}");
            match rt.run(&faulty(n, Fault::in_assembly(b, FaultKind::Straggler))) {
                Err(ExecError::BarrierTimeout { diagnostic }) => {
                    assert_eq!(
                        diagnostic.phase,
                        StuckPhase::Assembly,
                        "{what}: {diagnostic}"
                    );
                    assert_eq!(diagnostic.waiting_block, b, "{what}: {diagnostic}");
                }
                other => panic!("{what}: expected BarrierTimeout, got {other:?}"),
            }
            assert_serves(&rt, n, &what);
        }
    }
}

/// An owned launch whose block stalls (non-cooperatively) is abandoned:
/// the worker hosting the block is replaced, so the block's generation
/// rises, and the pool's next launch is bit-identical.
#[test]
fn a_folded_stall_replaces_its_worker() {
    for method in SYNC_METHODS {
        let (n, rt) = folded_pool(method);
        for b in fault_sites(n) {
            let what = format!("{method}, stall at block {b}");
            let before = rt.generations()[b];
            let stall = FaultKind::Stall(stall_duration(FAULT_TIMEOUT));
            let err = rt
                .submit(Arc::new(faulty(n, Fault::in_round(b, 2, stall))))
                .and_then(|h| h.wait())
                .expect_err(&what);
            assert!(
                matches!(err, ExecError::BarrierTimeout { .. }),
                "{what}: {err}"
            );
            // Rises: a concurrent test's abandonment may replace the same
            // worker of the process device too.
            assert!(rt.generations()[b] > before, "{what}");
            assert_serves(&rt, n, &what);
        }
    }
}
