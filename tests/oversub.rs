//! Oversubscription integration tests: every persistent-grid barrier
//! method must complete — and compute bit-identical results — when the
//! grid has more blocks than the host has cores (2x, 4x, 16x), launched
//! both cold (`LaunchPlan`) and on a kept pool, with no policy beyond a
//! timeout. A waiter that only ever spun would make this regime exactly
//! the deadlock the paper's one-block-per-SM rule exists to avoid; every
//! wait here ends up parked and bounded, so stalled waves yield the CPU
//! and the grid drains in waves.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use blocksync::core::{
    BlockCtx, GlobalBuffer, GridConfig, GridRuntime, LaunchPlan, RoundKernel, SyncMethod,
    SyncPolicy, TreeLevels,
};

/// The barrier methods that run a persistent grid (and therefore must
/// park to survive oversubscription). CPU-side methods meet between
/// rounds on the host (a join, a condvar) and are immune by construction.
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
    // staying far above any legitimate parked wait.
    SyncPolicy::with_timeout(Duration::from_secs(60))
}

fn oversub_counts() -> Vec<usize> {
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(4)
        .min(8);
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
    // whose resident blocks never yield; host blocks are OS threads whose
    // waits park, so the host never consults it.
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
    // An abandoned block in a 2x-cores parked grid must surface the same
    // structured timeout diagnostic a resident grid produces — parking
    // must not swallow poisoning or the straggler analysis.
    use blocksync::core::SyncFault;
    use std::sync::Arc;
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(4)
        .min(8);
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
/// CI step): every park-capable method converts an injected panic in a
/// parked, oversubscribed pooled grid into a structured error naming the
/// block and round, and the same pool then runs a clean kernel correctly.
#[test]
fn pooled_fault_matrix_at_four_x_oversubscription() {
    use blocksync::core::{ExecError, Fault, FaultInjector, FaultKind};
    use std::time::Instant;
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(4)
        .min(8);
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
            stats.pool.as_deref().map(|p| p.launch_seq),
            Some(1),
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
/// oversubscription: per-round arrival counts must match exactly (no lost
/// or duplicated rounds) even when every wait may park.
#[test]
fn round_counts_are_exact_at_sixteen_x() {
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(4)
        .min(8);
    let n = 16 * cores;
    let rounds = 30usize;
    let counter = AtomicU64::new(0);
    let k = (rounds, |_ctx: &BlockCtx, _round: usize| {
        counter.fetch_add(1, Ordering::Relaxed);
    });
    let cfg = GridConfig::new(n, 16).with_policy(bounded());
    LaunchPlan::compile(cfg, SyncMethod::GpuSimple)
        .and_then(|plan| plan.run(&k))
        .expect("parked grid completes");
    assert_eq!(counter.load(Ordering::Relaxed), (n * rounds) as u64);
}
