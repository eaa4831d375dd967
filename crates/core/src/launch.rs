//! The launch engine: the one per-launch pipeline every execution path
//! drives.
//!
//! The paper's argument (Eqs. 1–9) is that a single barrier abstraction
//! serves every synchronization method; the same discipline applies to
//! the *runtime around* the barrier. This module owns the pieces every
//! launch shares, each in exactly one place:
//!
//! * [`LaunchPlan`] — a validated `(GridConfig, SyncMethod)` pair,
//!   compiled once and reusable across launches (the executor compiles
//!   one per run; the pooled runtime and the `perf/` benchmark
//!   keep one alive and launch through it repeatedly).
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
//! The four historical execution paths are thin strategies over this
//! engine:
//!
//! | strategy | serves | shape |
//! |---|---|---|
//! | `run_scoped` | GPU methods, `CpuImplicit`, `NoSync` through a [`LaunchPlan`] | spawn per launch, `drive_block` per block |
//! | pooled workers (`core::runtime`) | same methods through a [`crate::GridRuntime`] | pinned workers, `drive_block` per block |
//! | `run_relaunch` | `CpuExplicit` | spawn + watchdog-join per round |
//! | `Auto` ([`crate::GridExecutor`]) | resolves, then `run_scoped` or `run_relaunch` | plan compiled for the resolved method |
//!
//! `CpuImplicit` needs no strategy of its own anymore: its driver
//! rendezvous is a [`crate::CpuImplicitSync`] barrier, so both the scoped
//! and the pooled strategy run it like any other barrier method.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::barrier::{BarrierShared, PoisonCause, SyncFault, SyncPolicy};
use crate::error::{ExecError, StuckDiagnostic, StuckPhase};
use crate::executor::{AbortSignal, BlockCtx, GridConfig, RoundKernel};
use crate::fault::{FaultSchedule, WaitFaultInjector};
use crate::method::SyncMethod;
use crate::obs::LaunchRecord;
use crate::runtime::PoolLaunchStats;
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

/// One back-off step of a gate wait (the scoped [`StartGate`], the pooled
/// assembly gate): yield while the wait is fresh — peers arrive within
/// microseconds and a sleep would inflate `t_O` — then short sleeps: on an
/// oversubscribed host the last peers cannot even be scheduled until
/// earlier arrivals stop burning their timeslices.
pub(crate) fn gate_backoff(polls: &mut u32) {
    *polls = polls.saturating_add(1);
    if *polls < 4096 {
        std::thread::yield_now();
    } else {
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// One-shot launch gate for persistent strategies: every block thread
/// checks in and waits until all peers exist. This pins down the "kernel
/// launch" boundary — time before the gate opens is thread-spawn overhead
/// (`t_O`), time after is round time — so round-0 sync no longer absorbs
/// the stagger of late-spawned threads. One `fetch_add` per thread per
/// *launch*, well off the barrier hot path. The wait is [`gate_backoff`].
pub(crate) struct StartGate {
    arrived: AtomicUsize,
    n: usize,
}

impl StartGate {
    pub(crate) fn new(n: usize) -> Self {
        StartGate {
            arrived: AtomicUsize::new(0),
            n,
        }
    }

    pub(crate) fn wait(&self) {
        self.arrived.fetch_add(1, Ordering::AcqRel);
        let mut polls = 0u32;
        while self.arrived.load(Ordering::Acquire) < self.n {
            gate_backoff(&mut polls);
        }
    }
}

/// A launch's kernel as the threads that run it hold it: co-owned, or
/// borrowed with the borrow's lifetime erased. The one lifetime-erasure
/// device of the crate — the scoped relaunch strategy and the pooled
/// launch log both hand a caller's `&K` to threads `std::thread::scope`
/// cannot bound — so the contract lives in one place,
/// [`KernelRef::borrowed`], and the variants stay private to keep safe
/// code from forging a borrowed pointer.
#[derive(Clone)]
pub(crate) struct KernelRef(KernelPtr);

#[derive(Clone)]
enum KernelPtr {
    /// The launch co-owns the kernel, so a thread stuck in it can be
    /// detached (relaunch) or abandoned and replaced (pool): it keeps its
    /// own `Arc` alive.
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
    /// holding the result, or a clone of it, is done calling
    /// [`KernelRef::get`]. Both strategies that take one keep that by
    /// never giving up on a borrowed launch: [`run_relaunch`] joins every
    /// round thread instead of detaching stragglers, and the pool's
    /// `wait_launch(.., allow_abandon = false)` returns only once every
    /// worker recorded its result for the launch, after which no worker
    /// touches its kernel again. The value itself may outlive the borrow
    /// (the launch log keeps its entry until every cursor has passed it);
    /// only dereferences may not.
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
    /// stragglers may be detached or abandoned.
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

/// A compiled launch pipeline: a validated grid shape plus a resolved,
/// concrete synchronization method.
///
/// Compile once, launch many times — each [`LaunchPlan::run`] stamps out a
/// fresh `LaunchSetup` (barrier, recorder, abort), so faults stay
/// per-launch. [`crate::GridExecutor`] compiles a plan per call; the
/// pooled [`crate::GridRuntime`] and the `perf/` benchmark hold
/// one for their whole lifetime.
#[derive(Debug, Clone)]
pub struct LaunchPlan {
    cfg: GridConfig,
    method: SyncMethod,
}

impl LaunchPlan {
    /// Validate `cfg` for `method` and fix the pipeline.
    ///
    /// # Errors
    /// [`ExecError::Device`] if the grid shape is invalid for the method;
    /// [`ExecError::BarrierUnavailable`] for [`SyncMethod::Auto`], which
    /// is a selection directive, not an executable method — resolve it
    /// (see [`crate::AutoTuner`]) before compiling.
    pub fn compile(cfg: GridConfig, method: SyncMethod) -> Result<LaunchPlan, ExecError> {
        if method == SyncMethod::Auto {
            return Err(ExecError::BarrierUnavailable {
                method: method.to_string(),
            });
        }
        cfg.validate()?;
        Ok(LaunchPlan { cfg, method })
    }

    /// The grid configuration this plan was compiled for.
    pub fn config(&self) -> &GridConfig {
        &self.cfg
    }

    /// The concrete method this plan executes.
    pub fn method(&self) -> SyncMethod {
        self.method
    }

    /// Stamp out the per-launch state: a fresh barrier (except for
    /// `CpuExplicit`, whose "barrier" is the host's join, and `NoSync`),
    /// a fresh trace recorder, and an un-raised abort signal.
    ///
    /// # Errors
    /// [`ExecError::BarrierUnavailable`] if the method cannot build a
    /// barrier for this grid.
    pub(crate) fn setup(&self, rounds: usize) -> Result<LaunchSetup, ExecError> {
        let n = self.cfg.n_blocks;
        let barrier = match self.method {
            SyncMethod::CpuExplicit | SyncMethod::NoSync => None,
            m => Some(m.build_barrier_with(n, self.cfg.policy).ok_or_else(|| {
                ExecError::BarrierUnavailable {
                    method: m.to_string(),
                }
            })?),
        };
        let recorder = self
            .cfg
            .trace
            .as_ref()
            .map(|tc| Arc::new(EventRecorder::new(n, rounds, tc)));
        if let (Some(sh), Some(rec)) = (barrier.as_deref(), recorder.as_ref()) {
            sh.control().attach_recorder(Arc::clone(rec));
        }
        Ok(LaunchSetup {
            method: self.method,
            n,
            threads_per_block: self.cfg.threads_per_block,
            policy: self.cfg.policy,
            rounds,
            barrier,
            abort: AbortSignal::new(),
            recorder,
            faults: None,
        })
    }

    /// Run a borrowed kernel through this plan (scoped strategies).
    ///
    /// # Errors
    /// Same contract as [`crate::GridExecutor::run`].
    pub fn run<K: RoundKernel>(&self, kernel: &K) -> Result<KernelStats, ExecError> {
        // SAFETY: `execute` joins every thread it starts for a borrowed
        // kernel before it returns.
        self.execute(unsafe { KernelRef::borrowed(kernel) }).0
    }

    /// [`LaunchPlan::run`] with an owned kernel, enabling the relaunch
    /// strategy's straggler detachment (see
    /// [`crate::GridExecutor::run_owned`]).
    ///
    /// # Errors
    /// Same contract as [`crate::GridExecutor::run`].
    pub fn run_owned(
        &self,
        kernel: Arc<dyn RoundKernel + Send + Sync>,
    ) -> Result<KernelStats, ExecError> {
        self.execute(KernelRef::owned(kernel)).0
    }

    /// Dispatch one launch to the strategy serving this plan's method and
    /// return its result with its [`LaunchRecord`]. Returns only once
    /// every thread it started is joined — or, for an owned kernel under
    /// `CpuExplicit`, detached with its own `Arc`.
    pub(crate) fn execute(
        &self,
        kernel: KernelRef,
    ) -> (Result<KernelStats, ExecError>, LaunchRecord) {
        let k = kernel.get();
        let entered = Instant::now();
        let mut setup = match self.setup(k.rounds()) {
            Ok(setup) => setup,
            // No setup exists to finish: a bare record of what is known.
            Err(e) => {
                let mut record = LaunchRecord::new(self.method.to_string());
                record.error = Some(e.clone());
                record.wall = entered.elapsed();
                return (Err(e), record);
            }
        };
        setup.arm_faults(k);
        k.on_launch(&setup.abort);
        let start = Instant::now();
        let per_block = match self.method {
            SyncMethod::CpuExplicit => run_relaunch(&setup, &kernel),
            _ => run_scoped(&setup, k, start),
        };
        setup.finish(per_block, start.elapsed(), None)
    }
}

/// Per-launch state stamped out by [`LaunchPlan::setup`]: everything the
/// strategies and [`drive_block`] share for exactly one launch.
pub(crate) struct LaunchSetup {
    pub(crate) method: SyncMethod,
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
    /// pooled runtime to fire assembly-phase faults. Wait-phase faults are
    /// already armed on the barrier by [`LaunchSetup::arm_faults`].
    pub(crate) faults: Option<Arc<FaultSchedule>>,
}

impl LaunchSetup {
    /// Read the kernel's [`RoundKernel::fault_schedule`] once and arm the
    /// injection sites that live outside the round body: wait-phase faults
    /// get a [`WaitFaultInjector`] hook on this launch's fresh barrier;
    /// the schedule itself is kept for the pooled runtime's assembly
    /// phase. No-op (and zero-cost) for kernels without a schedule.
    pub(crate) fn arm_faults(&mut self, kernel: &dyn RoundKernel) {
        let Some(schedule) = kernel.fault_schedule() else {
            return;
        };
        if let Some(sh) = self.barrier.as_ref() {
            WaitFaultInjector::install(&schedule, sh, self.abort.clone(), self.policy);
        }
        self.faults = Some(Arc::new(schedule));
    }

    pub(crate) fn ctx(&self, block_id: usize) -> BlockCtx {
        BlockCtx {
            block_id,
            n_blocks: self.n,
            threads_per_block: self.threads_per_block,
        }
    }

    /// Close the launch: from the merged per-block results, assemble the
    /// uniform [`KernelStats`] every strategy reports (`launch` is the
    /// slowest block's launch share, telemetry comes from this launch's
    /// recorder) and the launch's one [`LaunchRecord`], built from what
    /// this setup owns — the scheduled faults, and for a failure the
    /// recorder's per-block tails. Strategies add only what they alone
    /// know (the pool: `replacements` and `shard`).
    pub(crate) fn finish(
        &self,
        result: Result<Vec<BlockTimes>, ExecError>,
        wall: Duration,
        pool: Option<PoolLaunchStats>,
    ) -> (Result<KernelStats, ExecError>, LaunchRecord) {
        let mut record = LaunchRecord {
            wall,
            pool,
            faults: self
                .faults
                .as_deref()
                .map_or_else(Vec::new, |s| s.faults().to_vec()),
            ..LaunchRecord::new(self.method.to_string())
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
        let stats = KernelStats {
            method: record.method.clone(),
            n_blocks: self.n,
            rounds: self.rounds,
            wall,
            launch: record.launch,
            per_block,
            telemetry: self.recorder.as_ref().map(|rec| Box::new(rec.finish())),
            auto: None,
            pool: pool.map(Box::new),
        };
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

/// The one true round loop, run once per block per launch by every
/// persistent strategy (scoped threads and pooled workers alike): for each
/// round, execute the kernel body under `catch_unwind` (a panic poisons
/// the barrier via [`BarrierShared::poison`], raises the abort signal, and
/// surfaces as [`ExecError::BlockPanicked`]), then wait on the barrier
/// (bounded by the [`SyncPolicy`]), accumulating compute/sync time and
/// trace events into `t` as it goes. Without a barrier (`NoSync`) a round
/// is compute only: `t.sync` stays zero and no sync sample is recorded,
/// the paper's §7.3 "`__gpu_sync()` removed" run. `t.launch` is the
/// caller's to fill — only the strategy knows where its launch boundary
/// is.
pub(crate) fn drive_block(
    setup: &LaunchSetup,
    kernel: &dyn RoundKernel,
    block: usize,
    t: &mut BlockTimes,
) -> Result<(), ExecError> {
    let ctx = setup.ctx(block);
    let barrier = setup.barrier.as_deref();
    for r in 0..setup.rounds {
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

/// Scoped persistent strategy: spawn one thread per block for the whole
/// launch, assemble at a [`StartGate`] (pinning `t_O`), then
/// [`drive_block`]. Serves every barrier method — GPU-side, `CpuImplicit`
/// (whose barrier is the driver rendezvous), and `NoSync` (no barrier).
pub(crate) fn run_scoped(
    setup: &LaunchSetup,
    kernel: &dyn RoundKernel,
    run_start: Instant,
) -> Result<Vec<BlockTimes>, ExecError> {
    let gate = StartGate::new(setup.n);
    let results: Vec<Result<BlockTimes, ExecError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..setup.n)
            .map(|b| {
                let gate = &gate;
                s.spawn(move || -> Result<BlockTimes, ExecError> {
                    let mut t = BlockTimes::default();
                    // The launch gate: no block starts round 0 until every
                    // thread exists, so the time to here is the launch's
                    // spawn overhead (t_O), not round-0 sync skew.
                    gate.wait();
                    t.launch = run_start.elapsed();
                    drive_block(setup, kernel, b, &mut t)?;
                    Ok(t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("engine block thread must not panic"))
            .collect()
    });
    collect_block_results(results)
}

/// Relaunch strategy (CPU explicit synchronization): spawn + join every
/// round. The "barrier" is the host's join, so the policy timeout bounds
/// the host's wait for all blocks to finish each round.
///
/// Time attribution per block per round: spawn delay (thread creation
/// until the kernel starts) goes to `launch`, the kernel body to
/// `compute`, and finish-until-release (everyone joined) to `sync` — so
/// `sync` measures the synchronizing wait itself and does not absorb
/// thread-startup overhead on short runs.
///
/// When the policy deadline expires, the host raises the abort signal and
/// then *watchdog-joins*: it grants cooperative stragglers a short grace
/// period to observe the signal and exit, and — for an owned kernel only —
/// detaches any thread still stuck in non-cooperative kernel code instead
/// of joining it, so the run returns [`ExecError::BarrierTimeout`] within
/// the bound rather than hanging. Detached threads co-own (via `Arc`)
/// everything they can still touch. A borrowed kernel must outlive every
/// thread (see [`KernelRef::borrowed`]), so there the join is
/// unconditional and a non-cooperative kernel holds the host.
pub(crate) fn run_relaunch(
    setup: &LaunchSetup,
    kernel: &KernelRef,
) -> Result<Vec<BlockTimes>, ExecError> {
    let detach_stragglers = kernel.is_owned();
    struct RoundTracker {
        state: Mutex<usize>, // blocks finished this round
        cv: Condvar,
    }
    /// One block's successful round: spawn delay, kernel time, and the
    /// instant it finished (arrived at the host-side join "barrier").
    struct RoundDone {
        spawn_delay: Duration,
        compute: Duration,
        arrived: Instant,
    }

    let n = setup.n;
    let recorder = setup.recorder.as_ref();
    let mut times = vec![BlockTimes::default(); n];
    for r in 0..setup.rounds {
        let round_start = Instant::now();
        let tracker = Arc::new(RoundTracker {
            state: Mutex::new(0),
            cv: Condvar::new(),
        });
        let done: Arc<Vec<AtomicBool>> = Arc::new((0..n).map(|_| AtomicBool::new(false)).collect());
        // Per-block outcome slots; a detached straggler's slot stays
        // `None` (only the slot's own thread ever writes it).
        type Slot = Mutex<Option<Result<RoundDone, ExecError>>>;
        let slots: Arc<Vec<Slot>> = Arc::new((0..n).map(|_| Mutex::new(None)).collect());
        // Completion states captured at the moment the deadline expired
        // (the straggler may still finish between deadline and join).
        let mut deadline_snapshot: Option<Vec<bool>> = None;
        let handles: Vec<std::thread::JoinHandle<()>> = (0..n)
            .map(|b| {
                let ctx = setup.ctx(b);
                let kernel = kernel.clone();
                let tracker = Arc::clone(&tracker);
                let done = Arc::clone(&done);
                let slots = Arc::clone(&slots);
                let recorder = recorder.cloned();
                std::thread::spawn(move || {
                    let t0 = Instant::now();
                    // Round r's thread for block b is the ring's writer
                    // this round; the host's join below and the next
                    // spawn give the handoff edges.
                    if let Some(rec) = recorder.as_deref() {
                        rec.record(b, r, TraceEventKind::RoundStart);
                    }
                    let outcome = catch_unwind(AssertUnwindSafe(|| kernel.get().round(&ctx, r)));
                    let result = match outcome {
                        Ok(()) => {
                            let arrived = Instant::now();
                            if let Some(rec) = recorder.as_deref() {
                                rec.record(b, r, TraceEventKind::RoundEnd);
                                rec.record(b, r, TraceEventKind::BarrierArrive);
                            }
                            Ok(RoundDone {
                                spawn_delay: t0 - round_start,
                                compute: arrived - t0,
                                arrived,
                            })
                        }
                        Err(payload) => {
                            if let Some(rec) = recorder.as_deref() {
                                rec.record(b, r, TraceEventKind::Abort);
                            }
                            Err(ExecError::BlockPanicked {
                                block: b,
                                round: r,
                                message: payload_message(&*payload),
                            })
                        }
                    };
                    *slots[b].lock() = Some(result);
                    done[b].store(true, Ordering::Release);
                    let mut g = tracker.state.lock();
                    *g += 1;
                    tracker.cv.notify_all();
                })
            })
            .collect();

        // The host-side "cudaThreadSynchronize": wait for all blocks,
        // bounded by the policy timeout.
        if let Some(timeout) = setup.policy.timeout {
            let deadline = Instant::now() + timeout;
            let mut g = tracker.state.lock();
            while *g < n {
                let now = Instant::now();
                if now >= deadline {
                    deadline_snapshot =
                        Some(done.iter().map(|d| d.load(Ordering::Acquire)).collect());
                    // Ask cooperative stragglers to bail out so the join
                    // below can complete.
                    setup.abort.abort();
                    break;
                }
                let _ = tracker.cv.wait_for(&mut g, deadline - now);
            }
            drop(g);
        }
        if deadline_snapshot.is_some() && detach_stragglers {
            // Watchdog join: a grace period for cooperative stragglers to
            // observe the abort, then detach whoever is still stuck in
            // kernel code — the bounded-return half of the
            // fault-tolerance contract for owned kernels.
            let grace = setup
                .policy
                .timeout
                .unwrap_or_default()
                .clamp(Duration::from_millis(10), Duration::from_secs(1));
            let watchdog_deadline = Instant::now() + grace;
            let mut g = tracker.state.lock();
            while *g < n {
                let now = Instant::now();
                if now >= watchdog_deadline {
                    break;
                }
                let _ = tracker.cv.wait_for(&mut g, watchdog_deadline - now);
            }
            drop(g);
            for h in handles {
                if h.is_finished() {
                    h.join().expect("engine block thread must not panic");
                }
                // else: detached. The thread co-owns (Arc) the kernel,
                // tracker, slots, and recorder, so leaking it is sound;
                // the deadline snapshot below reports it as stuck.
            }
        } else {
            for h in handles {
                h.join().expect("engine block thread must not panic");
            }
        }

        // Every block is released the moment the last join completed.
        let release = Instant::now();
        let mut origin: Option<ExecError> = None;
        let mut released: Vec<(usize, Instant)> = Vec::new();
        for (b, slot) in slots.iter().enumerate() {
            match slot.lock().take() {
                Some(Ok(d)) => {
                    times[b].launch += d.spawn_delay;
                    times[b].compute += d.compute;
                    times[b].sync += release.saturating_duration_since(d.arrived);
                    released.push((b, d.arrived));
                }
                Some(Err(e)) => {
                    origin.get_or_insert(e);
                }
                // A detached straggler never filled its slot; the
                // deadline snapshot reports it.
                None => {}
            }
        }
        if let Some(e) = origin {
            return Err(e);
        }
        if let Some(snapshot) = deadline_snapshot {
            // Any block not done at the deadline was the straggler, even
            // if it finished between deadline and join.
            let arrivals: Vec<u64> = snapshot.iter().map(|&d| r as u64 + u64::from(d)).collect();
            let waiting_block = arrivals.iter().position(|&a| a > r as u64).unwrap_or(0);
            let straggler = arrivals
                .iter()
                .position(|&a| a <= r as u64)
                .unwrap_or(waiting_block);
            return Err(ExecError::BarrierTimeout {
                diagnostic: Box::new(StuckDiagnostic {
                    barrier: "cpu-explicit".to_string(),
                    waiting_block,
                    round: r,
                    flag: format!("join of round {r}"),
                    timeout: setup.policy.timeout.unwrap_or_default(),
                    departures: arrivals.iter().map(|a| a.saturating_sub(1)).collect(),
                    arrivals,
                    recent_events: recorder
                        .map(|rec| {
                            rec.tail(straggler, 8)
                                .iter()
                                .map(|e| e.to_string())
                                .collect()
                        })
                        .unwrap_or_default(),
                    phase: StuckPhase::Barrier,
                }),
            });
        }
        // Host-stamped departures: every block leaves the join barrier at
        // `release`, the same instant the sync accounting uses. Round r's
        // thread has joined, so writing its ring here is the sequential
        // half of the single-writer handoff.
        if let Some(rec) = recorder {
            let at = release.saturating_duration_since(rec.epoch());
            for &(b, arrived) in &released {
                rec.record_at(b, r, TraceEventKind::BarrierDepart, at);
                if rec.sampled(r) {
                    rec.record_sync(
                        b,
                        release.saturating_duration_since(arrived).as_nanos() as u64,
                    );
                }
            }
        }
    }
    Ok(times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmem::GlobalBuffer;
    use crate::method::TreeLevels;

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
    fn compile_rejects_auto() {
        let err = LaunchPlan::compile(GridConfig::new(4, 8), SyncMethod::Auto).unwrap_err();
        assert!(matches!(err, ExecError::BarrierUnavailable { .. }), "{err}");
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
    fn plan_runs_every_concrete_method() {
        for method in [
            SyncMethod::CpuExplicit,
            SyncMethod::CpuImplicit,
            SyncMethod::GpuSimple,
            SyncMethod::GpuTree(TreeLevels::Two),
            SyncMethod::GpuLockFree,
            SyncMethod::SenseReversing,
            SyncMethod::Dissemination,
            SyncMethod::NoSync,
        ] {
            let plan = LaunchPlan::compile(GridConfig::new(3, 8), method).unwrap();
            let k = Count {
                slots: GlobalBuffer::new(3),
                rounds: 7,
            };
            let stats = plan.run(&k).unwrap();
            assert_eq!(stats.method, method.to_string());
            assert!(k.slots.to_vec().iter().all(|&v| v == 7), "{method}");
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
