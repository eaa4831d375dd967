//! The kernel side of a launch: what a round-structured kernel is
//! ([`RoundKernel`]), what each of its blocks sees ([`BlockCtx`]), the
//! grid it runs on ([`GridConfig`]), and how a failing launch asks it to
//! stop ([`AbortSignal`]).
//!
//! A kernel is expressed as a [`RoundKernel`]: `rounds()` barrier-separated
//! phases, each executed by every block. This is the shape of all three of
//! the paper's applications — FFT (one round per butterfly stage), SWat
//! (one round per anti-diagonal), bitonic sort (one round per
//! compare-exchange step) — as well as its micro-benchmark.
//!
//! There is one way to launch one cold, [`crate::LaunchPlan`] — every call
//! pays the full launch overhead `t_O` of Eq. 1 — and two ways to launch
//! warm, [`crate::GridRuntime`] and [`crate::GridService`]. How each
//! [`SyncMethod`] maps onto host threads is documented on
//! [`crate::LaunchPlan`].
//!
//! ## Failure semantics
//!
//! Every mode is fault-tolerant under the [`SyncPolicy`] carried by
//! [`GridConfig`]: a panicking block poisons the barrier so its peers
//! unwind instead of spinning forever, and with a timeout set, a block
//! stuck waiting gives up with a [`StuckDiagnostic`]. The run as a whole
//! returns a structured [`ExecError`] naming the offending block and
//! round. A block stuck *inside kernel code* cannot be preempted — kernels
//! that want to honour the deadline should observe the [`AbortSignal`]
//! passed to [`RoundKernel::on_launch`].
//!
//! [`StuckDiagnostic`]: crate::error::StuckDiagnostic
//! [`ExecError`]: crate::error::ExecError
//! [`SyncMethod`]: crate::method::SyncMethod

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use blocksync_device::GpuSpec;

use crate::barrier::SyncPolicy;
use crate::trace::TraceConfig;

/// Grid shape for a kernel execution.
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// Number of thread blocks. A pool runs them on one worker thread
    /// each, up to the host's cores (at least two); past that, each worker
    /// runs several in turn.
    pub n_blocks: usize,
    /// Threads per block. The host runtime executes a block sequentially,
    /// so this only affects work partitioning helpers and validation.
    pub threads_per_block: usize,
    /// Device model used for validation (defaults to the GTX 280).
    pub spec: GpuSpec,
    /// Fault policy for barrier waits and CPU methods' joins (defaults to
    /// unbounded waits).
    pub policy: SyncPolicy,
    /// Telemetry configuration, the plane's one switch. `None` (the
    /// default) records nothing; with a [`TraceConfig`] the run carries an
    /// event recorder and [`crate::KernelStats::telemetry`] is populated.
    pub trace: Option<TraceConfig>,
}

impl GridConfig {
    /// Grid of `n_blocks` x `threads_per_block` on a GTX 280.
    pub fn new(n_blocks: usize, threads_per_block: usize) -> Self {
        GridConfig {
            n_blocks,
            threads_per_block,
            spec: GpuSpec::gtx280(),
            policy: SyncPolicy::default(),
            trace: None,
        }
    }

    /// Replace the fault policy.
    pub fn with_policy(mut self, policy: SyncPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enable telemetry under `trace` (event recording + histograms).
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Validate this grid's shape ([`GpuSpec::validate_block_shape`]):
    /// non-empty, and within the device model's threads-per-block limit.
    ///
    /// The block count is not held to the model's SM count under any
    /// method. That ceiling is the modelled GPU's, where a spinning block
    /// is never preempted (the simulator and
    /// [`GpuSpec::validate_persistent_launch`] keep it); the host folds a
    /// grid with more blocks than cores onto one worker per core, and a
    /// waiter whose peer is off its core yields to it (DESIGN.md §10, §15).
    pub fn validate(&self) -> Result<(), blocksync_device::DeviceError> {
        self.spec
            .validate_block_shape(self.n_blocks, self.threads_per_block)
    }
}

/// Per-block execution context handed to each kernel round.
#[derive(Debug, Clone, Copy)]
pub struct BlockCtx {
    /// This block's flat id, `0..n_blocks`.
    pub block_id: usize,
    /// Total blocks in the grid.
    pub n_blocks: usize,
    /// Threads per block (for work partitioning).
    pub threads_per_block: usize,
}

impl BlockCtx {
    /// Contiguous slice of `0..total` owned by this block (balanced
    /// partition; earlier blocks get the remainder).
    pub fn chunk(&self, total: usize) -> Range<usize> {
        let per = total / self.n_blocks;
        let rem = total % self.n_blocks;
        let start = self.block_id * per + self.block_id.min(rem);
        let len = per + usize::from(self.block_id < rem);
        start..start + len
    }

    /// CUDA-style grid-stride iteration over `0..total`: block `b` visits
    /// `b, b + n_blocks, b + 2*n_blocks, ...`. Useful when work items have
    /// non-uniform cost.
    pub fn strided(&self, total: usize) -> impl Iterator<Item = usize> {
        let n = self.n_blocks;
        (self.block_id..total).step_by(n.max(1))
    }
}

/// Cooperative-cancellation handle handed to kernels at launch.
///
/// The launch engine raises it as soon as any block fails (panic or barrier
/// timeout); long-running kernel rounds can poll [`AbortSignal::is_aborted`]
/// and return early so the run can unwind within the policy timeout. OS
/// threads cannot be preempted, so a round that ignores the signal and
/// loops forever will still hang its own join — the signal is the
/// cooperative half of the fault-tolerance contract.
#[derive(Clone, Debug, Default)]
pub struct AbortSignal(Arc<AtomicBool>);

impl AbortSignal {
    /// Fresh, un-raised signal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raise the signal (idempotent).
    pub fn abort(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether the signal has been raised.
    pub fn is_aborted(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }

    /// Lower the signal for the next launch of its grid, if this is its
    /// only handle: a kernel that kept a clone from
    /// [`RoundKernel::on_launch`] must never see a later launch un-raise
    /// it. Returns whether it was lowered.
    pub(crate) fn reset(&mut self) -> bool {
        Arc::get_mut(&mut self.0)
            .map(|raised| *raised.get_mut() = false)
            .is_some()
    }
}

/// A kernel structured as barrier-separated rounds.
///
/// Invariant required for correctness under every [`crate::SyncMethod`] except
/// `NoSync`: within one round, a block may read data written by *any* block
/// in *previous* rounds, and write only locations no other block touches in
/// the *same* round.
///
/// Blocks are independent within a round, as CUDA blocks are: a round body
/// must never wait for another block — the barrier between rounds is the
/// only inter-block wait. A grid of more blocks than the host has cores
/// runs its blocks' bodies in turn on fewer threads (worker `w` of `W`
/// runs blocks `w, w + W, …` in that order), so a body that waits on a
/// block queued behind it on the same worker never returns.
pub trait RoundKernel: Sync {
    /// Number of barrier-separated rounds.
    fn rounds(&self) -> usize;

    /// Execute round `round` for the block described by `ctx`.
    fn round(&self, ctx: &BlockCtx, round: usize);

    /// Called once per launch, before any block can start it, with the
    /// launch's [`AbortSignal`] — cold or warm, borrowed or owned, by every
    /// strategy. Kernels with long rounds can keep a clone and poll it to
    /// honour fault-unwind deadlines; the default implementation ignores
    /// it.
    fn on_launch(&self, _abort: &AbortSignal) {}

    /// The fault schedule this kernel carries, if any. The launch engine
    /// reads it once per launch to arm injection sites *outside* the round
    /// body — barrier-wait faults (fired by its round loop on the way into
    /// the barrier) and pooled-assembly faults.
    /// Real kernels return `None` (the default);
    /// [`crate::FaultInjector`] overrides this with its schedule.
    fn fault_schedule(&self) -> Option<crate::fault::FaultSchedule> {
        None
    }
}

/// Blanket impl so closures can be kernels in tests/benches:
/// `(rounds, fn(ctx, round))`.
impl<F: Fn(&BlockCtx, usize) + Sync> RoundKernel for (usize, F) {
    fn rounds(&self) -> usize {
        self.0
    }
    fn round(&self, ctx: &BlockCtx, round: usize) {
        (self.1)(ctx, round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ExecError;
    use crate::gmem::GlobalBuffer;
    use crate::launch::LaunchPlan;
    use crate::method::{SyncMethod, TreeLevels};
    use crate::stats::KernelStats;
    use blocksync_device::DeviceError;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// Kernel where round r's work by each block depends on ALL blocks'
    /// round r-1 results: block b writes out[b] = 1 + min over all slots of
    /// the previous round. With a correct barrier, after R rounds every slot
    /// equals R.
    struct MinPlusOne {
        slots: GlobalBuffer<u64>,
        scratch: GlobalBuffer<u64>,
        rounds: usize,
    }

    impl MinPlusOne {
        fn new(n: usize, rounds: usize) -> Self {
            MinPlusOne {
                slots: GlobalBuffer::new(n),
                scratch: GlobalBuffer::new(n),
                rounds: rounds * 2, // each logical step uses 2 rounds (read+write phases)
            }
        }
    }

    impl RoundKernel for MinPlusOne {
        fn rounds(&self) -> usize {
            self.rounds
        }
        fn round(&self, ctx: &BlockCtx, round: usize) {
            let b = ctx.block_id;
            if round.is_multiple_of(2) {
                // Phase A: read everyone's slot, stage my update.
                let min = (0..ctx.n_blocks)
                    .map(|i| self.slots.get(i))
                    .min()
                    .expect("non-empty grid");
                self.scratch.set(b, min + 1);
            } else {
                // Phase B: publish.
                self.slots.set(b, self.scratch.get(b));
            }
        }
    }

    /// One plan launch: compile, then run.
    fn run<K: RoundKernel>(
        cfg: GridConfig,
        method: SyncMethod,
        kernel: &K,
    ) -> Result<KernelStats, ExecError> {
        LaunchPlan::compile(cfg, method)?.run(kernel)
    }

    fn check_method(method: SyncMethod, n: usize) {
        let logical = 25;
        let k = MinPlusOne::new(n, logical);
        let stats = run(GridConfig::new(n, 32), method, &k).unwrap();
        assert_eq!(stats.rounds, logical * 2);
        assert_eq!(stats.n_blocks, n);
        let v = k.slots.to_vec();
        assert!(
            v.iter().all(|&x| x == logical as u64),
            "{method}: expected all {logical}, got {v:?}"
        );
        assert_eq!(stats.per_block.len(), n);
        assert!(stats.wall > Duration::ZERO);
    }

    /// Every method, on the one strategy that runs them all: a correct
    /// `MinPlusOne` needs every round's writes published before the next.
    #[test]
    fn every_method_is_correct() {
        for m in SyncMethod::PAPER_METHODS
            .into_iter()
            .chain(SyncMethod::EXTENSION_METHODS)
        {
            check_method(m, 6);
        }
        check_method(SyncMethod::GpuTree(TreeLevels::Custom(2)), 6);
        check_method(SyncMethod::GpuTree(TreeLevels::Custom(5)), 7);
    }

    #[test]
    fn auto_resolves_and_is_correct() {
        check_method(SyncMethod::Auto, 6);
    }

    #[test]
    fn auto_records_its_decision() {
        let k = MinPlusOne::new(4, 5);
        let plan = LaunchPlan::compile(GridConfig::new(4, 32), SyncMethod::Auto).unwrap();
        let stats = plan.run(&k).unwrap();
        let auto = stats.auto.as_ref().expect("auto run records a decision");
        assert_eq!(plan.method(), auto.chosen, "compile resolves Auto");
        assert_eq!(&*stats.method, format!("auto:{}", auto.chosen));
        // The observed record carries the same label as the stats.
        assert_eq!(plan.observer().recent()[0].stats.method, stats.method);
        assert!(auto.predicted_sync_ns > 0.0);
        assert!(auto.measured_sync_ns.is_some(), "loop closed after run");
        assert!(auto.misprediction_ratio().is_some());
        assert!(!auto.table.is_empty());
        // Plain runs carry no decision.
        let k2 = MinPlusOne::new(4, 5);
        let plain = run(GridConfig::new(4, 32), SyncMethod::GpuLockFree, &k2).unwrap();
        assert!(plain.auto.is_none());
    }

    #[test]
    fn auto_tolerates_oversubscribed_grids() {
        // 40 blocks, past the modelled GPU's 30 SMs and (on most hosts) the
        // core count: Auto measures its table at that size and completes on
        // whichever method won it. Never an error, never a deadlock.
        let k = MinPlusOne::new(40, 3);
        let stats = run(GridConfig::new(40, 32), SyncMethod::Auto, &k).unwrap();
        assert_eq!(stats.n_blocks, 40);
        let v = k.slots.to_vec();
        assert!(v.iter().all(|&x| x == 3), "expected all 3, got {v:?}");
        let auto = stats.auto.as_ref().unwrap();
        assert!(
            !matches!(auto.chosen, SyncMethod::Auto | SyncMethod::NoSync),
            "chose {}",
            auto.chosen
        );
        assert_eq!(auto.table.len(), 8);
    }

    #[test]
    fn single_block_grid_works_everywhere() {
        for m in [
            SyncMethod::CpuExplicit,
            SyncMethod::CpuImplicit,
            SyncMethod::GpuSimple,
            SyncMethod::GpuLockFree,
        ] {
            check_method(m, 1);
        }
    }

    #[test]
    fn nosync_runs_all_rounds() {
        // NoSync gives no cross-block guarantees, so use an
        // embarrassingly-parallel kernel and just count invocations.
        let count = AtomicUsize::new(0);
        let kernel = (10usize, |_ctx: &BlockCtx, _r: usize| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        let stats = run(GridConfig::new(4, 32), SyncMethod::NoSync, &kernel).unwrap();
        assert_eq!(stats.rounds, 10);
        assert_eq!(count.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn gpu_method_runs_more_blocks_than_sms() {
        // 31 blocks: one past the model's SM count, the grid the paper's
        // non-preemptive GPU deadlocks on. The host folds it onto its
        // cores and its waiters yield, so under the default policy it
        // completes — same result as a CPU method.
        for method in [SyncMethod::GpuSimple, SyncMethod::CpuImplicit] {
            let k = MinPlusOne::new(31, 2);
            let stats = run(GridConfig::new(31, 32), method, &k).unwrap();
            assert_eq!(stats.n_blocks, 31);
            let v = k.slots.to_vec();
            assert!(
                v.iter().all(|&x| x == 2),
                "{method}: expected all 2, got {v:?}"
            );
        }
    }

    #[test]
    fn thread_limit_validated() {
        let k = (1usize, |_: &BlockCtx, _: usize| {});
        let err = run(GridConfig::new(4, 513), SyncMethod::CpuImplicit, &k).unwrap_err();
        assert!(matches!(
            err,
            ExecError::Device(DeviceError::TooManyThreads { .. })
        ));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn thread_count_past_u32_is_rejected_not_wrapped() {
        // 2^32 + 8 used to validate as 8 threads.
        let err = GridConfig::new(2, (1 << 32) + 8).validate().unwrap_err();
        assert!(
            matches!(err, DeviceError::TooManyThreads { max: 512, .. }),
            "{err}"
        );
    }

    #[test]
    fn empty_grid_rejected() {
        let k = (1usize, |_: &BlockCtx, _: usize| {});
        assert!(run(GridConfig::new(0, 32), SyncMethod::GpuSimple, &k).is_err());
        assert!(run(GridConfig::new(4, 0), SyncMethod::GpuSimple, &k).is_err());
    }

    #[test]
    fn chunk_partitions_exactly() {
        for n_blocks in 1..12 {
            for total in [0usize, 1, 7, 64, 100] {
                let mut covered = vec![false; total];
                for b in 0..n_blocks {
                    let ctx = BlockCtx {
                        block_id: b,
                        n_blocks,
                        threads_per_block: 1,
                    };
                    for i in ctx.chunk(total) {
                        assert!(!covered[i], "overlap at {i}");
                        covered[i] = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "n={n_blocks} total={total}");
            }
        }
    }

    #[test]
    fn strided_partitions_exactly() {
        let n_blocks = 5;
        let total = 23;
        let mut covered = vec![false; total];
        for b in 0..n_blocks {
            let ctx = BlockCtx {
                block_id: b,
                n_blocks,
                threads_per_block: 1,
            };
            for i in ctx.strided(total) {
                assert!(!covered[i]);
                covered[i] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn zero_rounds_is_a_noop() {
        let k = (0usize, |_: &BlockCtx, _: usize| panic!("must not run"));
        for m in [
            SyncMethod::CpuExplicit,
            SyncMethod::CpuImplicit,
            SyncMethod::GpuLockFree,
        ] {
            let stats = run(GridConfig::new(3, 8), m, &k).unwrap();
            assert_eq!(stats.rounds, 0);
        }
    }

    #[test]
    fn executor_accessors() {
        let e = LaunchPlan::compile(GridConfig::new(4, 64), SyncMethod::GpuLockFree).unwrap();
        assert_eq!(e.method(), SyncMethod::GpuLockFree);
        assert_eq!(e.config().n_blocks, 4);
        assert_eq!(e.config().threads_per_block, 64);
    }

    /// A panic in one block must surface as a structured error naming block
    /// and round, with every peer unwound (no hang, no process abort): by
    /// poisoning under a barrier, and by the join under CPU-explicit sync.
    #[test]
    fn kernel_panic_propagates() {
        for method in [
            SyncMethod::GpuLockFree,
            SyncMethod::CpuExplicit,
            SyncMethod::CpuImplicit,
        ] {
            let k = (3usize, |ctx: &BlockCtx, r: usize| {
                if r == 1 && ctx.block_id == 2 {
                    panic!("kernel bug");
                }
            });
            let err = run(GridConfig::new(4, 8), method, &k).unwrap_err();
            assert_eq!(
                err,
                ExecError::BlockPanicked {
                    block: 2,
                    round: 1,
                    message: "kernel bug".to_string()
                },
                "{method}"
            );
        }
    }

    #[test]
    fn abort_signal_is_delivered_and_raised_on_panic() {
        use std::sync::Mutex as StdMutex;

        struct Observing {
            abort: StdMutex<Option<AbortSignal>>,
        }
        impl RoundKernel for Observing {
            fn rounds(&self) -> usize {
                2
            }
            fn round(&self, ctx: &BlockCtx, r: usize) {
                if ctx.block_id == 0 && r == 0 {
                    panic!("boom");
                }
            }
            fn on_launch(&self, abort: &AbortSignal) {
                *self.abort.lock().unwrap() = Some(abort.clone());
            }
        }

        let k = Observing {
            abort: StdMutex::new(None),
        };
        let err = run(GridConfig::new(2, 8), SyncMethod::GpuSimple, &k).unwrap_err();
        assert!(matches!(err, ExecError::BlockPanicked { block: 0, .. }));
        let signal = k.abort.lock().unwrap().clone().expect("on_launch ran");
        assert!(signal.is_aborted(), "executor must raise abort on failure");
    }

    #[test]
    fn traced_run_attaches_telemetry_everywhere() {
        use crate::trace::TraceEventKind;
        let rounds = 20;
        for method in SyncMethod::PAPER_METHODS
            .into_iter()
            .chain(SyncMethod::EXTENSION_METHODS)
        {
            let k = (rounds, |_: &BlockCtx, _: usize| {});
            let cfg = GridConfig::new(3, 8).with_trace(crate::TraceConfig::default());
            let stats = run(cfg, method, &k).unwrap();
            let t = stats.telemetry.as_deref().expect("telemetry attached");
            assert_eq!(t.dropped, 0, "{method}");
            assert_eq!(
                t.count(TraceEventKind::BarrierArrive),
                3 * rounds,
                "{method}"
            );
            assert_eq!(
                t.count(TraceEventKind::BarrierDepart),
                3 * rounds,
                "{method}"
            );
            assert_eq!(t.count(TraceEventKind::RoundStart), 3 * rounds, "{method}");
            assert_eq!(t.rounds.len(), rounds, "{method}");
            // One sync sample per block per round.
            assert_eq!(t.sync_ns.count(), (3 * rounds) as u64, "{method}");
        }
    }

    #[test]
    fn untraced_run_has_no_telemetry() {
        let k = (5usize, |_: &BlockCtx, _: usize| {});
        let stats = run(GridConfig::new(2, 8), SyncMethod::GpuSimple, &k).unwrap();
        assert!(stats.telemetry.is_none());
    }

    #[test]
    fn launch_is_separated_from_in_round_time() {
        // Regression (launch/sync split): on a short run, per-round sync
        // must not absorb thread-startup overhead. The launch figure is
        // nonzero (launch 0 spawns the pool's threads) and the
        // decomposition stays within wall time.
        for method in [
            SyncMethod::CpuExplicit,
            SyncMethod::CpuImplicit,
            SyncMethod::GpuSimple,
        ] {
            let k = (3usize, |_: &BlockCtx, _: usize| {});
            let stats = run(GridConfig::new(4, 8), method, &k).unwrap();
            assert!(stats.launch > Duration::ZERO, "{method}: zero launch");
            let slowest = stats
                .per_block
                .iter()
                .map(|b| b.compute + b.sync)
                .max()
                .unwrap();
            // Launch + slowest in-round time can't exceed what the wall
            // clock saw (join noise only adds to wall).
            let accounted = stats.launch + slowest;
            assert!(
                accounted <= stats.wall + Duration::from_millis(5),
                "{method}: accounted {accounted:?} vs wall {:?}",
                stats.wall
            );
        }
    }
}
