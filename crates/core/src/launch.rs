//! The launch engine: the one per-launch pipeline every execution path
//! drives.
//!
//! The paper's argument (Eqs. 1–9) is that a single barrier abstraction
//! serves every synchronization method; the same discipline applies to
//! the *runtime around* the barrier. This module owns the pieces every
//! launch shares, each in exactly one place:
//!
//! * [`LaunchPlan`] — the one cold entry point: a validated
//!   `(GridConfig, SyncMethod)` pair with `Auto` resolved at compile time,
//!   and the [`Observer`] every launch through it reports to. Compile
//!   once, launch many times; the pooled runtime and the `perf/` benchmark
//!   keep one alive and launch through it repeatedly.
//! * `LaunchSetup` — the per-launch state a plan stamps out: a **fresh**
//!   barrier (poisoning is permanent, so barriers are never reused across
//!   launches), the trace recorder, and the abort signal. Its
//!   `finish` turns the per-block results into the launch's
//!   [`KernelStats`] *and* its [`LaunchRecord`] — the one place a record
//!   is built, for every strategy, success or failure.
//! * `drive_block` — the one true round loop: run the round under
//!   `catch_unwind`, poison + abort on panic, barrier-wait with bounded
//!   waits, and per-round time/trace accounting.
//!
//! One strategy spawns block threads: the pool (`core::runtime`), one
//! worker per block running `drive_block` once per log entry. A cold
//! [`LaunchPlan::run`] is launch 0 of a pool built for it and dropped
//! after. Every method is one log entry per kernel except `CpuExplicit`,
//! which is one entry per round, the next published only once every block
//! finished the last: the paper's relaunch + `cudaThreadSynchronize`
//! (§4.1) as warm launches.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::autotune::{AutoDecision, AutoTuner};
use crate::barrier::{BarrierShared, PoisonCause, SyncFault, SyncPolicy};
use crate::error::{ExecError, StuckDiagnostic, StuckPhase};
use crate::executor::{AbortSignal, BlockCtx, GridConfig, RoundKernel};
use crate::fault::{FaultSchedule, WaitFaultInjector};
use crate::method::SyncMethod;
use crate::obs::{LaunchRecord, Observer};
use crate::runtime::{GridRuntime, PoolLaunchStats};
use crate::stats::{BlockTimes, KernelStats};
use crate::trace::{EventRecorder, TraceEventKind};

/// Best-effort string form of a panic payload.
pub(crate) fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Merge per-block outcomes: all `Ok` yields the times, otherwise the
/// launch's error is its root cause, not its first symptom. A block that
/// reports its own panic (`BlockPanicked` naming itself) wins over a block
/// that reports its own timeout (a `BarrierTimeout` whose diagnostic names
/// the reporter) — a peer only times out *waiting for* someone, and a
/// panicking block is late to poison exactly as long as the panic hook
/// takes to run — which wins over any error derived from a peer's poison.
/// Within a class the lowest block id is reported.
pub(crate) fn collect_block_results(
    results: Vec<Result<BlockTimes, ExecError>>,
) -> Result<Vec<BlockTimes>, ExecError> {
    let mut times = Vec::with_capacity(results.len());
    let mut root_cause: Option<(u8, ExecError)> = None;
    for (b, result) in results.into_iter().enumerate() {
        match result {
            Ok(t) => times.push(t),
            Err(e) => {
                times.push(BlockTimes::default());
                let class = match &e {
                    ExecError::BlockPanicked { block, .. } if *block == b => 0,
                    ExecError::BlockPanicked { .. } => 2,
                    ExecError::BarrierTimeout { diagnostic } if diagnostic.waiting_block != b => 2,
                    _ => 1,
                };
                if root_cause.as_ref().is_none_or(|(held, _)| class < *held) {
                    root_cause = Some((class, e));
                }
            }
        }
    }
    match root_cause {
        Some((_, e)) => Err(e),
        None => Ok(times),
    }
}

/// Translate a barrier-level fault into the run-level error, rebuilding a
/// progress snapshot for victims of a peer's timeout.
pub(crate) fn fault_to_error(fault: SyncFault, barrier: &dyn BarrierShared) -> ExecError {
    match fault {
        SyncFault::TimedOut { diagnostic } => ExecError::BarrierTimeout { diagnostic },
        SyncFault::Poisoned {
            block,
            round,
            cause: PoisonCause::Panic,
        } => ExecError::BlockPanicked {
            block,
            round,
            message: "poisoned by peer panic".to_string(),
        },
        SyncFault::Poisoned {
            block,
            round,
            cause: PoisonCause::Timeout,
        } => {
            let (arrivals, departures) = barrier.control().progress();
            ExecError::BarrierTimeout {
                diagnostic: Box::new(StuckDiagnostic {
                    barrier: barrier.name().to_string(),
                    waiting_block: block,
                    round,
                    flag: "poisoned by peer timeout".to_string(),
                    timeout: barrier.control().policy().timeout.unwrap_or_default(),
                    arrivals,
                    departures,
                    recent_events: barrier.control().straggler_trail(block, round as u64),
                    phase: StuckPhase::Barrier,
                }),
            }
        }
    }
}

/// Polls of the warm handoff's spin phase: enough for a peer that is
/// already running, with no clock read and no trip into the scheduler.
const WARM_SPIN_POLLS: u32 = 64;

/// How long the warm handoff polls (spin, then yield) before it parks.
/// About two park/wake round trips as `runtime.wait_us` measures them
/// (≈ 55 µs each on the reference host) — the competitive-spinning bound:
/// polling for what sleeping would have cost wastes at most 2× the optimum
/// however long the wait turns out to be. It is a time, not a poll count,
/// because a yield costs microseconds on an oversubscribed core: a
/// 4096-yield budget let idle sibling pools tax a parked 8-on-2 grid.
const WARM_SPIN_BOUND: Duration = Duration::from_micros(100);

/// The spinning and yielding states of the warm handoff (DESIGN.md §10):
/// poll `ready` [`WARM_SPIN_POLLS`] times, then yield between polls until
/// [`WARM_SPIN_BOUND`] has passed. Decides nothing: whatever it saw, the
/// caller re-checks under its lock, and parks there if the wait goes on.
pub(crate) fn spin_then_yield(ready: impl Fn() -> bool) {
    for _ in 0..WARM_SPIN_POLLS {
        if ready() {
            return;
        }
        std::hint::spin_loop();
    }
    let start = Instant::now();
    while !ready() && start.elapsed() < WARM_SPIN_BOUND {
        std::thread::yield_now();
    }
}

/// One back-off step of the pool's assembly-gate wait: yield while the
/// wait is fresh — peers arrive within microseconds and a sleep would
/// inflate `t_O` — then short sleeps: on an oversubscribed host the last
/// peers cannot even be scheduled until earlier arrivals stop burning
/// their timeslices.
pub(crate) fn gate_backoff(polls: &mut u32) {
    *polls = polls.saturating_add(1);
    if *polls < 4096 {
        std::thread::yield_now();
    } else {
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// A launch's kernel as the threads that run it hold it: co-owned, or
/// borrowed with the borrow's lifetime erased. The one lifetime-erasure
/// device of the crate — the pool's launch log hands a caller's `&K` to
/// workers `std::thread::scope` cannot bound — so the contract lives in
/// one place, [`KernelRef::borrowed`], and the variants stay private to
/// keep safe code from forging a borrowed pointer.
pub(crate) struct KernelRef(KernelPtr);

enum KernelPtr {
    /// The launch co-owns the kernel, so a worker stuck in it can be
    /// abandoned and replaced: it keeps its own `Arc` alive.
    Owned(Arc<dyn RoundKernel + Send + Sync>),
    Borrowed(*const (dyn RoundKernel + 'static)),
}

// SAFETY: `Owned` is an `Arc` of a `Send + Sync` kernel. A `Borrowed`
// pointer is dereferenced only while its referent is alive (the contract
// of `KernelRef::borrowed`), and `RoundKernel: Sync` makes the shared
// access from many block threads itself sound.
unsafe impl Send for KernelRef {}
unsafe impl Sync for KernelRef {}

impl KernelRef {
    pub(crate) fn owned(kernel: Arc<dyn RoundKernel + Send + Sync>) -> Self {
        KernelRef(KernelPtr::Owned(kernel))
    }

    /// Erase the lifetime of a borrowed kernel.
    ///
    /// # Safety
    /// The call that borrows `kernel` must return only after every thread
    /// holding the result is done calling [`KernelRef::get`]. The pool
    /// keeps that by never giving up on a borrowed launch: its
    /// `wait_launch(.., allow_abandon = false)` returns only once every
    /// worker recorded its result for the launch's last log entry, after
    /// which no worker touches its kernel again. The value itself may
    /// outlive the borrow (the launch log keeps its entries until every
    /// cursor has passed them); only dereferences may not.
    pub(crate) unsafe fn borrowed(kernel: &dyn RoundKernel) -> Self {
        // SAFETY: only the trait object's lifetime bound changes; the
        // pointer layout is the same.
        KernelRef(KernelPtr::Borrowed(unsafe {
            std::mem::transmute::<*const dyn RoundKernel, *const (dyn RoundKernel + 'static)>(
                kernel,
            )
        }))
    }

    /// Whether the launch co-owns its kernel — the only kind whose
    /// stragglers may be abandoned.
    pub(crate) fn is_owned(&self) -> bool {
        matches!(self.0, KernelPtr::Owned(_))
    }

    pub(crate) fn get(&self) -> &dyn RoundKernel {
        match &self.0 {
            KernelPtr::Owned(k) => &**k,
            // SAFETY: the referent is alive for as long as anyone calls
            // this, per the contract of `KernelRef::borrowed`.
            KernelPtr::Borrowed(p) => unsafe { &**p },
        }
    }
}

/// A compiled launch pipeline — the one cold entry point: a validated grid
/// shape, a concrete synchronization method, and the [`Observer`] every
/// launch through the plan reports to.
///
/// Compile once, launch many times — each [`LaunchPlan::run`] stamps out a
/// fresh `LaunchSetup` (barrier, recorder, abort), so faults stay
/// per-launch, and pays the full launch overhead `t_O` of Eq. 1: a launch
/// is launch 0 of a [`GridRuntime`] built from the plan and dropped after
/// it, so its clock includes the worker spawns. Warm launches are a
/// different type ([`GridRuntime`], [`crate::GridService`]), each holding
/// a plan for its whole lifetime. Clones share the observer.
///
/// The engine inserts the inter-block barrier between rounds according to
/// the method:
///
/// * **GPU methods** — one pool launch for the whole kernel; a device-side
///   spin barrier between rounds ("launch the kernel only once", Section
///   4.3).
/// * **CPU explicit** — one pool launch *per round*, the next dispatched
///   only once every block finished the last: the host-runtime analogue of
///   re-launching a kernel with `cudaThreadSynchronize()` in between
///   (Section 4.1). A block's `sync` for a round runs from the end of its
///   body to the start of its next one (the relaunch plus the wait for the
///   slowest block), and the policy timeout bounds each round's join.
/// * **CPU implicit** — one pool launch, but every round ends in a
///   centralized OS-assisted rendezvous (one mutex + condvar "driver")
///   through which the next round is dispatched, the analogue of pipelined
///   kernel relaunch (Section 4.2).
/// * **NoSync** — no barrier at all; pure computation time exactly as the
///   paper measures it in Section 7.3 ("with the synchronization function
///   `__gpu_sync()` removed"). Results of inter-block-dependent kernels are
///   garbage in this mode; only the timing is meaningful.
#[derive(Debug, Clone)]
pub struct LaunchPlan {
    cfg: GridConfig,
    method: SyncMethod,
    /// The host tuner's verdict when the plan was compiled from
    /// [`SyncMethod::Auto`]; `method` is its `chosen`.
    auto: Option<AutoDecision>,
    pub(crate) obs: Arc<Observer>,
}

impl LaunchPlan {
    /// Validate `cfg` and fix the pipeline.
    ///
    /// [`SyncMethod::Auto`] resolves here, through the host tuner's
    /// measured table for this block count (cached per process; the first
    /// `Auto` plan at a new count measures it). Every launch through the
    /// plan then records the measured per-round sync cost next to the
    /// table's figure in [`KernelStats::auto`] and reports its method as
    /// `auto:<resolved>`, so runs under `Auto` remain distinguishable.
    ///
    /// # Errors
    /// [`ExecError::Device`] if the grid shape is invalid.
    pub fn compile(cfg: GridConfig, method: SyncMethod) -> Result<LaunchPlan, ExecError> {
        cfg.validate()?;
        // `cfg.spec` is the modelled GPU; a measured table needs no
        // resident ceiling, so the grid's own size stands in.
        let n = cfg.n_blocks;
        let auto = (method == SyncMethod::Auto).then(|| AutoTuner::host().decide(n, n));
        Ok(LaunchPlan {
            method: auto.as_ref().map_or(method, |d| d.chosen),
            cfg,
            auto,
            obs: Observer::new(),
        })
    }

    /// The grid configuration this plan was compiled for.
    pub fn config(&self) -> &GridConfig {
        &self.cfg
    }

    /// The concrete method this plan executes (never `Auto`).
    pub fn method(&self) -> SyncMethod {
        self.method
    }

    /// This plan's observability handle: every `run`/`run_owned` outcome
    /// (success or failure) is folded into its metrics registry and flight
    /// recorder.
    pub fn observer(&self) -> Arc<Observer> {
        Arc::clone(&self.obs)
    }

    /// Stamp out the per-launch state for `kernel` — a fresh barrier
    /// (except for `CpuExplicit`, whose "barrier" is the host's join, and
    /// `NoSync`), a fresh trace recorder, an un-raised abort signal, and
    /// the kernel's fault schedule armed — then hand the kernel its abort
    /// signal ([`RoundKernel::on_launch`]). The pool calls this before any
    /// worker can see the launch.
    pub(crate) fn setup(&self, kernel: &dyn RoundKernel) -> LaunchSetup {
        let n = self.cfg.n_blocks;
        let rounds = kernel.rounds();
        let barrier = self.method.build_barrier_with(n, self.cfg.policy);
        let recorder = self
            .cfg
            .trace
            .as_ref()
            .map(|tc| Arc::new(EventRecorder::new(n, rounds, tc)));
        if let (Some(sh), Some(rec)) = (barrier.as_deref(), recorder.as_ref()) {
            sh.control().attach_recorder(Arc::clone(rec));
        }
        let abort = AbortSignal::new();
        // Wait-phase faults get a hook on this launch's fresh barrier; the
        // schedule itself is kept for the pool's assembly phase.
        let faults = kernel.fault_schedule().map(|schedule| {
            if let Some(sh) = barrier.as_ref() {
                WaitFaultInjector::install(&schedule, sh, abort.clone(), self.cfg.policy);
            }
            Arc::new(schedule)
        });
        kernel.on_launch(&abort);
        LaunchSetup {
            method: self.method,
            auto: self.auto.clone(),
            n,
            threads_per_block: self.cfg.threads_per_block,
            policy: self.cfg.policy,
            rounds,
            barrier,
            abort,
            recorder,
            faults,
        }
    }

    /// Run the kernel to completion and return the time decomposition.
    ///
    /// # Errors
    /// [`ExecError::BlockPanicked`] if any block's kernel code panicked;
    /// [`ExecError::BarrierTimeout`] if a barrier wait (or CPU-mode
    /// rendezvous) exceeded the [`SyncPolicy`] timeout. A block stuck
    /// *inside kernel code* cannot be preempted, so a borrowed kernel that
    /// ignores its [`AbortSignal`] holds this call; see
    /// [`LaunchPlan::run_owned`].
    pub fn run<K: RoundKernel>(&self, kernel: &K) -> Result<KernelStats, ExecError> {
        // SAFETY: `launch` returns only once no worker can call into a
        // borrowed kernel: the pool waits a borrowed launch out instead of
        // abandoning it.
        GridRuntime::from_plan(self.clone()).launch(unsafe { KernelRef::borrowed(kernel) })
    }

    /// [`LaunchPlan::run`] with an *owned* kernel, which bounds the call
    /// even for a block stuck in non-cooperative kernel code past the
    /// [`SyncPolicy`] timeout: because the launch co-owns the kernel, the
    /// pool abandons the stuck worker (and replaces it), and the call
    /// returns [`ExecError::BarrierTimeout`].
    ///
    /// # Errors
    /// Same contract as [`LaunchPlan::run`].
    pub fn run_owned(
        &self,
        kernel: Arc<dyn RoundKernel + Send + Sync>,
    ) -> Result<KernelStats, ExecError> {
        GridRuntime::from_plan(self.clone()).launch(KernelRef::owned(kernel))
    }
}

/// Per-launch state stamped out by [`LaunchPlan::setup`]: everything the
/// pool and [`drive_block`] share for exactly one launch — under
/// `CpuExplicit`, for every one of its per-round log entries.
pub(crate) struct LaunchSetup {
    pub(crate) method: SyncMethod,
    /// The plan's `Auto` verdict, completed and reported by `finish`.
    auto: Option<AutoDecision>,
    pub(crate) n: usize,
    pub(crate) threads_per_block: usize,
    pub(crate) policy: SyncPolicy,
    pub(crate) rounds: usize,
    /// Fresh per launch: poisoning is permanent, so reuse would leak one
    /// launch's fault into the next.
    pub(crate) barrier: Option<Arc<dyn BarrierShared>>,
    pub(crate) abort: AbortSignal,
    pub(crate) recorder: Option<Arc<EventRecorder>>,
    /// The kernel's [`FaultSchedule`], if it carries one — read by the
    /// pool to fire assembly-phase faults in the launch's first log entry.
    /// Wait-phase faults are already armed on the barrier by
    /// [`LaunchPlan::setup`].
    pub(crate) faults: Option<Arc<FaultSchedule>>,
}

impl LaunchSetup {
    /// Whether the launch is one pool log entry per round (`CpuExplicit`)
    /// rather than one for the whole kernel.
    pub(crate) fn per_round(&self) -> bool {
        self.method == SyncMethod::CpuExplicit
    }

    pub(crate) fn ctx(&self, block_id: usize) -> BlockCtx {
        BlockCtx {
            block_id,
            n_blocks: self.n,
            threads_per_block: self.threads_per_block,
        }
    }

    /// Close the launch: from the merged per-block results, assemble the
    /// launch's [`KernelStats`] (`launch` is the slowest block's launch
    /// share, telemetry comes from this launch's recorder, an `Auto`
    /// plan's decision gets this launch's measured sync cost) and its one
    /// [`LaunchRecord`], built from what this setup owns — the scheduled
    /// faults, and for a failure the recorder's per-block tails. The pool
    /// adds only what it alone knows (`replacements` and `shard`).
    pub(crate) fn finish(
        &self,
        result: Result<Vec<BlockTimes>, ExecError>,
        wall: Duration,
        pool: PoolLaunchStats,
    ) -> (Result<KernelStats, ExecError>, LaunchRecord) {
        let method = match &self.auto {
            Some(decision) => format!("auto:{}", decision.chosen),
            None => self.method.to_string(),
        };
        let mut record = LaunchRecord {
            wall,
            pool: Some(pool),
            faults: self
                .faults
                .as_deref()
                .map_or_else(Vec::new, |s| s.faults().to_vec()),
            ..LaunchRecord::new(method)
        };
        let per_block = match result {
            Ok(per_block) => per_block,
            Err(e) => {
                record.error = Some(e.clone());
                record.recent_events = self.recent_events();
                return (Err(e), record);
            }
        };
        record.launch = per_block.iter().map(|b| b.launch).max().unwrap_or_default();
        record.compute = per_block.iter().map(|b| b.compute).sum();
        record.sync = per_block.iter().map(|b| b.sync).sum();
        let mut stats = KernelStats {
            method: record.method.clone(),
            n_blocks: self.n,
            rounds: self.rounds,
            wall,
            launch: record.launch,
            per_block,
            telemetry: self.recorder.as_ref().map(|rec| Box::new(rec.finish())),
            auto: None,
            pool: Some(Box::new(pool)),
        };
        stats.auto = self.auto.as_ref().map(|decision| {
            Box::new(AutoDecision {
                measured_sync_ns: Some(stats.sync_per_round().as_secs_f64() * 1e9),
                ..decision.clone()
            })
        });
        (Ok(stats), record)
    }

    /// Every block's trailing trace events (`"b<block>: <event>"`), for a
    /// failed launch's record; empty when the launch ran untraced.
    fn recent_events(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(rec) = self.recorder.as_deref() {
            for b in 0..self.n {
                out.extend(rec.tail(b, 8).iter().map(|e| format!("b{b}: {e}")));
            }
        }
        out
    }
}

/// The one true round loop, run once per block per log entry by the
/// pool's workers: for each of the entry's `rounds`, execute the kernel
/// body under `catch_unwind` (a panic poisons the barrier via
/// [`BarrierShared::poison`], raises the abort signal, and surfaces as
/// [`ExecError::BlockPanicked`]), then wait on the barrier (bounded by
/// the [`SyncPolicy`]), accumulating compute/sync time and trace events
/// into `t` as it goes. Without a barrier (`NoSync`) a round is compute
/// only: `t.sync` stays zero and no sync sample is recorded, the paper's
/// §7.3 "`__gpu_sync()` removed" run.
/// `t.launch` is the caller's to fill — only the pool knows where its
/// launch boundary is — and so is `CpuExplicit`'s join between entries.
pub(crate) fn drive_block(
    setup: &LaunchSetup,
    kernel: &dyn RoundKernel,
    block: usize,
    rounds: Range<usize>,
    t: &mut BlockTimes,
) -> Result<(), ExecError> {
    let ctx = setup.ctx(block);
    let barrier = setup.barrier.as_deref();
    for r in rounds {
        let t0 = Instant::now();
        if let Some(rec) = setup.recorder.as_deref() {
            rec.record(block, r, TraceEventKind::RoundStart);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| kernel.round(&ctx, r)));
        if let Err(payload) = outcome {
            if let Some(rec) = setup.recorder.as_deref() {
                rec.record(block, r, TraceEventKind::Abort);
            }
            if let Some(sh) = barrier {
                sh.poison(block, r, PoisonCause::Panic);
            }
            setup.abort.abort();
            return Err(ExecError::BlockPanicked {
                block,
                round: r,
                message: payload_message(&*payload),
            });
        }
        let t1 = Instant::now();
        if let Some(rec) = setup.recorder.as_deref() {
            rec.record(block, r, TraceEventKind::RoundEnd);
        }
        let Some(sh) = barrier else {
            t.compute += t1 - t0;
            continue;
        };
        if let Err(fault) = sh.sync(block, r as u64) {
            setup.abort.abort();
            return Err(fault_to_error(fault, sh));
        }
        let t2 = Instant::now();
        t.compute += t1 - t0;
        t.sync += t2 - t1;
        if let Some(rec) = setup.recorder.as_deref() {
            if rec.sampled(r) {
                rec.record_sync(block, (t2 - t1).as_nanos() as u64);
            }
        }
    }
    // `wait_until` tests its condition before the poison word, so a wait
    // that is already satisfied never sees a poison raised on the way in —
    // an injected wait-phase panic on the block that arrives last. Before
    // the last round the next wait catches it; after it, this one look
    // per block per launch does, so a poisoned launch never reports
    // success.
    if let Some(sh) = barrier {
        if let Some((block, round, cause)) = sh.control().poisoned() {
            setup.abort.abort();
            let fault = SyncFault::Poisoned {
                block,
                round,
                cause,
            };
            return Err(fault_to_error(fault, sh));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmem::GlobalBuffer;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Count {
        slots: GlobalBuffer<u64>,
        rounds: usize,
    }

    impl RoundKernel for Count {
        fn rounds(&self) -> usize {
            self.rounds
        }
        fn round(&self, ctx: &BlockCtx, _round: usize) {
            let b = ctx.block_id;
            self.slots.set(b, self.slots.get(b) + 1);
        }
    }

    #[test]
    fn the_launch_error_is_the_panic_not_the_peer_that_timed_out_waiting_for_it() {
        let timeout_at = |waiting_block: usize| ExecError::BarrierTimeout {
            diagnostic: Box::new(StuckDiagnostic {
                barrier: "gpu-simple".to_string(),
                waiting_block,
                round: 1,
                flag: "g_mutex >= 8".to_string(),
                timeout: Duration::from_millis(80),
                arrivals: vec![2, 2, 2, 1],
                departures: vec![1; 4],
                recent_events: Vec::new(),
                phase: StuckPhase::Barrier,
            }),
        };
        let panic_at = |block: usize| ExecError::BlockPanicked {
            block,
            round: 1,
            message: "boom".to_string(),
        };
        let merged = |results: Vec<ExecError>| {
            collect_block_results(results.into_iter().map(Err).collect()).unwrap_err()
        };
        // Block 1 timed out before block 3's poison landed; blocks 0 and 2
        // unwound on block 1's poison.
        let symptoms = vec![timeout_at(1), timeout_at(1), timeout_at(1), panic_at(3)];
        assert_eq!(merged(symptoms), panic_at(3));
        // Without an own panic the own timeout beats the derived errors,
        // whatever their ids; among equals the lowest id is reported.
        assert_eq!(merged(vec![panic_at(2), timeout_at(1)]), timeout_at(1));
        assert_eq!(merged(vec![panic_at(0), panic_at(1)]), panic_at(0));
    }

    #[test]
    fn compile_validates_the_grid() {
        assert!(LaunchPlan::compile(GridConfig::new(0, 8), SyncMethod::GpuSimple).is_err());
        assert!(LaunchPlan::compile(GridConfig::new(4, 513), SyncMethod::GpuSimple).is_err());
        // No block ceiling on the host: past the model's 30 SMs under
        // either kind of method.
        assert!(LaunchPlan::compile(GridConfig::new(31, 8), SyncMethod::GpuSimple).is_ok());
        assert!(LaunchPlan::compile(GridConfig::new(31, 8), SyncMethod::CpuImplicit).is_ok());
    }

    #[test]
    fn one_plan_serves_many_launches() {
        let plan = LaunchPlan::compile(GridConfig::new(4, 8), SyncMethod::GpuLockFree).unwrap();
        assert_eq!(plan.method(), SyncMethod::GpuLockFree);
        assert_eq!(plan.config().n_blocks, 4);
        for _ in 0..3 {
            let k = Count {
                slots: GlobalBuffer::new(4),
                rounds: 10,
            };
            let stats = plan.run(&k).unwrap();
            assert_eq!(stats.rounds, 10);
            assert!(k.slots.to_vec().iter().all(|&v| v == 10));
        }
    }

    #[test]
    fn owned_plan_run_matches_borrowed() {
        let plan = LaunchPlan::compile(GridConfig::new(2, 8), SyncMethod::CpuExplicit).unwrap();
        let k = Arc::new(Count {
            slots: GlobalBuffer::new(2),
            rounds: 4,
        });
        let stats = plan.run_owned(Arc::clone(&k) as _).unwrap();
        assert_eq!(stats.rounds, 4);
        assert!(k.slots.to_vec().iter().all(|&v| v == 4));
    }

    /// A wait-phase panic injected on the block that arrives *last* at the
    /// *last* barrier: its own wait is satisfied on the first poll and its
    /// peers are released by its arrival, so no wait ever looks at the
    /// poison it raised on the way in — only the look after the round loop
    /// does.
    #[test]
    fn wait_phase_panic_on_the_last_arriver_of_the_last_round_fails_the_launch() {
        use crate::fault::{Fault, FaultInjector, FaultKind, FaultPhase};

        /// In the last round block 3 holds back until every peer has left
        /// its round body, then a little longer: they are in the barrier.
        struct LastIn {
            left_body: AtomicUsize,
        }
        impl RoundKernel for LastIn {
            fn rounds(&self) -> usize {
                3
            }
            fn round(&self, ctx: &BlockCtx, round: usize) {
                if round < 2 {
                    return;
                }
                if ctx.block_id == 3 {
                    while self.left_body.load(Ordering::Acquire) < 3 {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(Duration::from_millis(2));
                } else {
                    self.left_body.fetch_add(1, Ordering::Release);
                }
            }
        }

        for method in [SyncMethod::GpuSimple, SyncMethod::GpuLockFree] {
            let k = FaultInjector::with_schedule(
                LastIn {
                    left_body: AtomicUsize::new(0),
                },
                FaultSchedule::new(vec![Fault {
                    block: 3,
                    round: 2,
                    phase: FaultPhase::BarrierWait,
                    kind: FaultKind::Panic,
                }]),
            );
            let plan = LaunchPlan::compile(GridConfig::new(4, 8), method).unwrap();
            let err = plan.run(&k).unwrap_err();
            assert!(
                matches!(
                    err,
                    ExecError::BlockPanicked {
                        block: 3,
                        round: 2,
                        ..
                    }
                ),
                "{method}: {err}"
            );
        }
    }
}
