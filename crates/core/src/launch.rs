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
//! * `drive_block` — the round loop of a worker that hosts one block: run
//!   the round under `catch_unwind`, poison + abort on panic, barrier-wait
//!   with bounded waits, and per-round time/trace accounting; and
//!   `drive_fold`, the same loop for a worker that hosts several (below).
//!
//! One strategy spawns block threads: the pool (`core::runtime`). It runs
//! a grid of N blocks on W = `min(N, max(2, cores))` workers. At N ≤ W
//! each worker hosts one block and runs `drive_block` once per log entry.
//! Past that the grid *folds*, as the paper loops inside a block when
//! there is more work than SMs (§5): worker `w` hosts blocks `w, w + W,
//! …`, runs their round bodies in turn and then makes one wait on a
//! barrier built for W. Each block keeps its own `catch_unwind`,
//! [`BlockTimes`], trace events and fault sites, and every diagnostic
//! names blocks, not workers (`Fold` translates). Every pool is the
//! process's one device, and a [`LaunchPlan::run`] is a fresh grid on it
//! for one kernel. Every method is one log entry per kernel except the two CPU
//! methods, which are one entry per round with no barrier: `CpuExplicit`
//! publishes the next only once every block finished the last, the
//! paper's relaunch + `cudaThreadSynchronize` (§4.1), and `CpuImplicit`
//! publishes them all at submit, so the next entry's assembly gate is the
//! kernel boundary, the paper's pipelined relaunch (§4.2), as warm
//! launches.

use std::any::Any;
use std::iter::StepBy;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::utils::CachePadded;

use crate::autotune::{AutoDecision, AutoTuner};
use crate::barrier::{
    note_pause, now, BarrierControl, BarrierShared, Pause, PoisonCause, SyncFault, SyncPolicy,
};
use crate::error::{ExecError, StuckDiagnostic, StuckPhase};
use crate::executor::{AbortSignal, BlockCtx, GridConfig, RoundKernel};
use crate::fault::{FaultSchedule, WaitFaults};
use crate::method::SyncMethod;
use crate::obs::{LaunchRecord, Observer};
use crate::runtime::{Device, GridRuntime, PoolLaunchStats};
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

/// How long a wait across the launch boundary yields before it parks.
/// About two park/wake round trips as `runtime.wait_us` measures them
/// (≈ 55 µs each on the reference host) — the competitive-spinning bound:
/// polling for what sleeping would have cost wastes at most 2× the optimum
/// however long the wait turns out to be. It is a time, not a poll count,
/// because a yield costs microseconds on an oversubscribed core: a
/// 4096-yield budget let idle sibling pools tax a parked 8-on-2 grid.
const WARM_YIELD_BOUND: Duration = Duration::from_micros(100);

/// The yielding state of the warm handoff (DESIGN.md §10, §15): poll
/// `ready`, yielding between polls, until [`WARM_YIELD_BOUND`] has passed.
/// It never spins: the host and a device's workers share the host's cores,
/// so a spin here would only delay the thread that ends the wait. Decides
/// nothing: whatever it saw, the caller re-checks under its lock, and parks
/// there if the wait goes on.
pub(crate) fn yield_until(ready: impl Fn() -> bool) {
    let mut since = None;
    while !ready() {
        let at = now();
        if at - *since.get_or_insert(at) >= WARM_YIELD_BOUND {
            note_pause(Pause::Park);
            return;
        }
        note_pause(Pause::Yield);
        std::thread::yield_now();
    }
}

/// One back-off step of the pool's assembly-gate wait, a wait for peer
/// workers on the barrier's schedule (`BarrierControl::wait_until`): spin
/// while the wait is fresh — a peer on another core checks in within
/// microseconds, and a yield or a sleep would inflate `t_O` — then yield,
/// then short sleeps: on an oversubscribed host the last peers cannot
/// even be scheduled until earlier arrivals stop burning their
/// timeslices.
pub(crate) fn gate_backoff(polls: &mut u32) {
    let poll = *polls;
    *polls = poll.saturating_add(1);
    if poll < BarrierControl::SPIN_POLLS {
        note_pause(Pause::Spin);
        std::hint::spin_loop();
    } else if poll < BarrierControl::PARK_AFTER_POLLS {
        note_pause(Pause::Yield);
        std::thread::yield_now();
    } else {
        note_pause(Pause::Park);
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
/// per-launch, on a fresh grid on the process's one device: a warm
/// dispatch, except the process's first launch, whose `t_O` includes the
/// workers' spawns (DESIGN.md §10). [`GridRuntime`] and
/// [`crate::GridService`] keep their grids for their whole lifetime.
/// Clones share the observer.
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
/// * **CPU implicit** — one pool launch *per round* as well, but all of
///   them queued at submit: the analogue of pipelined kernel relaunch
///   (Section 4.2), where the driver's in-order queue runs round `r + 1`
///   after round `r` and the host waits once. A worker checks in at round
///   `r + 1`'s assembly gate only after it finished round `r`, so the gate
///   is the kernel boundary; a block's `sync` is again the span from the
///   end of its body to the start of its next one.
/// * **NoSync** — no barrier at all; pure computation time exactly as the
///   paper measures it in Section 7.3 ("with the synchronization function
///   `__gpu_sync()` removed"). Results of inter-block-dependent kernels are
///   garbage in this mode; only the timing is meaningful.
///
/// Under every method a grid of more blocks than the host has cores (at
/// least two) folds: it runs on one pool worker per core, each running the
/// round bodies of its blocks in turn, and the barrier, kernel boundary or
/// join is among the workers. Blocks must therefore never wait on each other
/// inside a round body (see [`RoundKernel`]).
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

    /// Stamp out the per-launch state for `kernel` on `workers` pool
    /// workers — a fresh barrier among the workers (except under the CPU
    /// methods, whose rounds meet at the pool's kernel boundary, and
    /// `NoSync`), a fresh trace recorder per block, an un-raised abort
    /// signal, and the kernel's fault schedule armed — then hand the kernel
    /// its abort signal ([`RoundKernel::on_launch`]). The pool calls this
    /// before any worker can see the launch.
    pub(crate) fn setup(&self, kernel: &dyn RoundKernel, workers: usize) -> LaunchSetup {
        let n = self.cfg.n_blocks;
        let rounds = kernel.rounds();
        let barrier = self.method.device_barrier(workers, self.cfg.policy);
        let recorder = self
            .cfg
            .trace
            .as_ref()
            .map(|tc| Arc::new(EventRecorder::new(n, rounds, tc)));
        if let (Some(sh), Some(rec)) = (barrier.as_deref(), recorder.as_ref()) {
            sh.control().attach_recorder(Arc::clone(rec));
        }
        // Wait-phase faults are the round loop's to fire on the way into
        // the barrier; the schedule itself is kept for the assembly phase.
        let faults = kernel.fault_schedule().map(Arc::new);
        let wait_faults = barrier
            .as_ref()
            .and(faults.as_deref())
            .and_then(|schedule| WaitFaults::arm(schedule, self.cfg.policy));
        let abort = AbortSignal::new();
        kernel.on_launch(&abort);
        LaunchSetup {
            method: self.method,
            auto: self.auto.clone(),
            n,
            workers,
            threads_per_block: self.cfg.threads_per_block,
            policy: self.cfg.policy,
            rounds,
            barrier,
            abort,
            recorder,
            faults,
            wait_faults,
            fold: (workers < n || self.method.is_cpu_side()).then(|| Fold::new(n, workers)),
        }
    }

    /// Run the kernel to completion and return the time decomposition.
    ///
    /// # Errors
    /// [`ExecError::BlockPanicked`] if any block's kernel code panicked;
    /// [`ExecError::BarrierTimeout`] if a barrier wait (or a CPU method's
    /// join of a round) exceeded the [`SyncPolicy`] timeout. A block stuck
    /// *inside kernel code* cannot be preempted, so a borrowed kernel that
    /// ignores its [`AbortSignal`] holds this call and every later launch
    /// in the process that needs its worker (they share one device);
    /// [`LaunchPlan::run_owned`] is the bounded path.
    pub fn run<K: RoundKernel>(&self, kernel: &K) -> Result<KernelStats, ExecError> {
        // SAFETY: `launch` returns only once no worker can call into a
        // borrowed kernel: the pool waits a borrowed launch out instead of
        // abandoning it.
        GridRuntime::on_device(self.clone(), Device::for_host(), None)
            .launch(unsafe { KernelRef::borrowed(kernel) })
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
        GridRuntime::on_device(self.clone(), Device::for_host(), None)
            .launch(KernelRef::owned(kernel))
    }
}

/// Per-launch state stamped out by [`LaunchPlan::setup`]: everything the
/// pool and the round loops share for exactly one launch — under the CPU
/// methods, for every one of its per-round log entries.
pub(crate) struct LaunchSetup {
    pub(crate) method: SyncMethod,
    /// The plan's `Auto` verdict, completed and reported by `finish`.
    auto: Option<AutoDecision>,
    /// Blocks in the grid.
    pub(crate) n: usize,
    /// Pool workers the grid runs on: `n`, or fewer when it folds.
    pub(crate) workers: usize,
    pub(crate) threads_per_block: usize,
    pub(crate) policy: SyncPolicy,
    pub(crate) rounds: usize,
    /// Among the `workers`, fresh per launch: poisoning is permanent, so
    /// reuse would leak one launch's fault into the next.
    pub(crate) barrier: Option<Arc<dyn BarrierShared>>,
    pub(crate) abort: AbortSignal,
    /// One ring per block, not per worker.
    pub(crate) recorder: Option<Arc<EventRecorder>>,
    /// The kernel's [`FaultSchedule`], if it carries one — read by the
    /// pool to fire assembly-phase faults in the launch's first log entry,
    /// and `CpuImplicit`'s wait-phase faults at its kernel boundary.
    pub(crate) faults: Option<Arc<FaultSchedule>>,
    /// The schedule's barrier-wait faults, fired by the round loops.
    wait_faults: Option<WaitFaults>,
    /// Where each worker is in its turn, when the grid folds; under the CPU
    /// methods always, as their progress table.
    pub(crate) fold: Option<Fold>,
}

impl LaunchSetup {
    /// Whether the launch is one pool log entry per round — under both CPU
    /// methods, whose rounds meet at the pool's kernel boundary instead of
    /// a barrier — rather than one for the whole kernel.
    pub(crate) fn per_round(&self) -> bool {
        self.method.is_cpu_side()
    }

    /// Whether the launch's per-round entries are all published at submit
    /// (`CpuImplicit`) rather than each by the last reporter of the one
    /// before (`CpuExplicit`).
    pub(crate) fn pipelined(&self) -> bool {
        self.method == SyncMethod::CpuImplicit
    }

    pub(crate) fn ctx(&self, block_id: usize) -> BlockCtx {
        BlockCtx {
            block_id,
            n_blocks: self.n,
            threads_per_block: self.threads_per_block,
        }
    }

    /// The blocks `worker` hosts, in the order it runs them: `worker`,
    /// `worker + workers`, … — grid-stride, so worker `w` runs block `w`
    /// first and a worker's id is the first block it hosts.
    pub(crate) fn hosted(&self, worker: usize) -> StepBy<Range<usize>> {
        (worker..self.n).step_by(self.workers)
    }

    /// The barrier's progress table in blocks: the barrier's own when
    /// every worker hosts one block, else [`Fold::arrivals`], with each
    /// block departed as far as its worker.
    pub(crate) fn progress(&self, sh: &dyn BarrierShared) -> (Vec<u64>, Vec<u64>) {
        let (arrivals, departures) = sh.control().progress();
        match &self.fold {
            None => (arrivals, departures),
            Some(fold) => (
                fold.arrivals(|w| departures[w]),
                (0..self.n).map(|b| departures[b % self.workers]).collect(),
            ),
        }
    }

    /// Translate a barrier-level fault into the run-level error, in
    /// blocks: a timeout's diagnostic, taken by the barrier over workers,
    /// gets [`LaunchSetup::progress`] and the trail of the first block
    /// behind its round (a worker's id is the first block it hosts, so
    /// `waiting_block` stays), and a victim of a peer's timeout gets a
    /// fresh snapshot.
    fn fault_to_error(&self, sh: &dyn BarrierShared, fault: SyncFault) -> ExecError {
        let mut diagnostic = match fault {
            SyncFault::Poisoned {
                block,
                round,
                cause: PoisonCause::Panic,
            } => {
                return ExecError::BlockPanicked {
                    block,
                    round,
                    message: "poisoned by peer panic".to_string(),
                }
            }
            SyncFault::TimedOut { diagnostic } => diagnostic,
            SyncFault::Poisoned {
                block,
                round,
                cause: PoisonCause::Timeout,
            } => {
                let (arrivals, departures) = sh.control().progress();
                Box::new(StuckDiagnostic {
                    barrier: sh.name().to_string(),
                    waiting_block: block,
                    round,
                    flag: "poisoned by peer timeout".to_string(),
                    timeout: sh.control().policy().timeout.unwrap_or_default(),
                    arrivals,
                    departures,
                    recent_events: sh.control().straggler_trail(block, round as u64),
                    phase: StuckPhase::Barrier,
                })
            }
        };
        if self.fold.is_some() {
            (diagnostic.arrivals, diagnostic.departures) = self.progress(sh);
            if let Some(rec) = self.recorder.as_deref() {
                let straggler = diagnostic.stragglers().first().copied();
                diagnostic.recent_events = rec.trail(straggler.unwrap_or(diagnostic.waiting_block));
            }
        }
        ExecError::BarrierTimeout { diagnostic }
    }

    /// Run the body of round `r` of the block `ctx` describes under
    /// `catch_unwind`. A panic poisons the barrier, raises abort and
    /// surfaces as [`ExecError::BlockPanicked`] naming the block.
    #[inline]
    fn body(&self, kernel: &dyn RoundKernel, ctx: &BlockCtx, r: usize) -> Result<(), ExecError> {
        catch_unwind(AssertUnwindSafe(|| kernel.round(ctx, r)))
            .map_err(|payload| self.panicked(ctx.block_id, r, &*payload))
    }

    #[cold]
    fn panicked(&self, block: usize, r: usize, payload: &(dyn Any + Send)) -> ExecError {
        if let Some(rec) = self.recorder.as_deref() {
            rec.record(block, r, TraceEventKind::Abort);
        }
        if let Some(sh) = self.barrier.as_deref() {
            sh.poison(block, r, PoisonCause::Panic);
        }
        self.abort.abort();
        ExecError::BlockPanicked {
            block,
            round: r,
            message: payload_message(payload),
        }
    }

    /// Fail with the poison word's fault if it is set: `sh` is poisoned
    /// when a wait-phase fault poisoned it or released a straggler, or
    /// after the last round when a wait that was already satisfied missed
    /// a poison raised on the way into it.
    fn check_poison(&self, sh: &dyn BarrierShared) -> Result<(), ExecError> {
        if sh.control().poisoned().is_none() {
            return Ok(());
        }
        self.abort.abort();
        Err(self.fault_to_error(sh, sh.control().poisoned_fault()))
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

/// Rounds per stamped round of an untraced round loop: the loops read the
/// clock at their entry's start and end, and inside only in stamped
/// rounds and after a wait that left its spin phase (DESIGN.md §10). A
/// traced loop stamps every round.
const STAMP_STRIDE: usize = 16;

/// Whether an untraced round loop stamps round `i` of an entry of `len`
/// rounds: one in [`STAMP_STRIDE`], from the second round unless it is
/// the only one. The first runs cold — first touch of the barrier's words
/// and the kernel's data — and its short waits read 4–30× the rest's.
fn stamped(i: usize, len: usize) -> bool {
    i % STAMP_STRIDE == usize::from(len > 1)
}

/// An unfolded block's barrier waits in one entry, as its round loop saw
/// them: `t_S` is the waits it timed — every one that left its spin
/// phase, and the short ones of stamped rounds — plus the mean of the
/// timed short waits for each short wait it did not time.
#[derive(Default)]
struct Waits {
    timed: Duration,
    /// The short ones among `timed`, and how many.
    short: Duration,
    shorts: u32,
    /// Short waits of unstamped rounds.
    untimed: u32,
}

impl Waits {
    fn total(&self) -> Duration {
        let est = self.short.as_nanos() * u128::from(self.untimed) / u128::from(self.shorts.max(1));
        self.timed + Duration::from_nanos(est as u64)
    }
}

/// The round loop of a worker hosting one block, run once per log entry
/// from `start` (the caller's clock read): for each of the entry's
/// `rounds`, execute the kernel body under `catch_unwind` (a panic poisons
/// the barrier via [`BarrierShared::poison`], raises the abort signal, and
/// surfaces as [`ExecError::BlockPanicked`]), fire the block's wait-phase
/// fault, then wait on the barrier (bounded by the [`SyncPolicy`]), and
/// return where the entry ended. The entry's span is split into `t.sync`,
/// the barrier waits as [`Waits`] estimates them — exact when the launch
/// is traced, since every round is stamped then — and `t.compute`, the
/// rest. Without a barrier (`NoSync`) the span is all compute, the
/// paper's §7.3 "`__gpu_sync()` removed" run, and no sync sample is
/// recorded. `t.launch` is the caller's to fill — only the pool knows
/// where its launch boundary is — and so is a CPU method's join between
/// entries. A worker hosting several blocks runs [`drive_fold`] instead,
/// or, with no barrier, this loop once per block.
pub(crate) fn drive_block(
    setup: &LaunchSetup,
    kernel: &dyn RoundKernel,
    block: usize,
    rounds: Range<usize>,
    start: Instant,
    t: &mut BlockTimes,
) -> Result<Instant, ExecError> {
    let ctx = setup.ctx(block);
    let barrier = setup.barrier.as_deref();
    let recorder = setup.recorder.as_deref();
    let mut waits = Waits::default();
    let len = rounds.len();
    for (i, r) in rounds.enumerate() {
        if let Some(rec) = recorder {
            rec.record_instant(block, r, TraceEventKind::RoundStart, now());
        }
        setup.body(kernel, &ctx, r)?;
        let stamp = recorder.is_some() || (barrier.is_some() && stamped(i, len));
        let t1 = stamp.then(now);
        if let (Some(rec), Some(t1)) = (recorder, t1) {
            rec.record_instant(block, r, TraceEventKind::RoundEnd, t1);
        }
        let Some(sh) = barrier else {
            continue;
        };
        if let Some(faults) = &setup.wait_faults {
            faults.on_arrive(sh, &setup.abort, block, r);
        }
        if let (Some(rec), Some(t1)) = (recorder, t1) {
            rec.record_instant(block, r, TraceEventKind::BarrierArrive, t1);
        }
        let left = match sh.sync(block, r as u64) {
            Ok(left) => left,
            Err(fault) => {
                setup.abort.abort();
                return Err(setup.fault_to_error(sh, fault));
            }
        };
        match (t1, left) {
            (Some(t1), _) => {
                let t2 = now();
                let span = t2 - t1;
                waits.timed += span;
                if left.is_none() {
                    waits.short += span;
                    waits.shorts += 1;
                }
                if let Some(rec) = recorder {
                    rec.record_instant(block, r, TraceEventKind::BarrierDepart, t2);
                    if rec.sampled(r) {
                        rec.record_sync(block, span.as_nanos() as u64);
                    }
                }
            }
            (None, Some(left)) => waits.timed += now() - left,
            (None, None) => waits.untimed += 1,
        }
    }
    let end = now();
    let entry = end - start;
    let sync = waits.total().min(entry);
    t.sync += sync;
    t.compute += entry - sync;
    // `wait_until` tests its condition before the poison word, so a wait
    // that is already satisfied never sees a poison raised on the way in —
    // an injected wait-phase panic on the block that arrives last. Before
    // the last round the next wait catches it; after it, this one look
    // per block per launch does, so a poisoned launch never reports
    // success.
    barrier.map_or(Ok(end), |sh| setup.check_poison(sh).map(|()| end))
}

/// One block a folded worker hosts: its context, where its last body
/// ended (traced launches only), and its stamped bodies' time and count.
struct Hosted {
    ctx: BlockCtx,
    ended: Option<Instant>,
    bodies: Duration,
    stamped: u32,
}

/// The round loop of a worker hosting several blocks of a folded launch
/// with a barrier, from `start` (the caller's clock read): each round,
/// every hosted block's body in turn (as `drive_block` runs it: own
/// `catch_unwind`, trace events, wait-phase fault), then the worker's one
/// wait on the barrier among workers. A block has arrived once its body
/// returned and its wait-phase fault let it go, unless the barrier was
/// poisoned meanwhile: then the worker fails before publishing the
/// arrival, so a straggler that a peer's timeout released is still
/// reported as one. A block's `compute` is its own bodies — timed in
/// stamped rounds, every round when traced, and scaled to the entry's
/// rounds — and its `sync` the rest of the entry: the other blocks'
/// bodies and the waits, what a block queued on a busy core is charged.
/// Blocks after the first add a 0-poll spin sample a round (see
/// [`crate::Telemetry::spin_polls`]). Returns where the entry ended. An
/// error is the worker's, so every block it hosts reports it.
pub(crate) fn drive_fold(
    setup: &LaunchSetup,
    kernel: &dyn RoundKernel,
    worker: usize,
    (sh, fold): (&dyn BarrierShared, &Fold),
    rounds: Range<usize>,
    start: Instant,
    times: &mut [BlockTimes],
) -> Result<Instant, ExecError> {
    let recorder = setup.recorder.as_deref();
    let first = rounds.start;
    let mut hosted: Vec<Hosted> = setup
        .hosted(worker)
        .map(|block| Hosted {
            ctx: setup.ctx(block),
            ended: None,
            bodies: Duration::ZERO,
            stamped: 0,
        })
        .collect();
    let len = rounds.len();
    let mut last = None;
    for r in rounds {
        let stamp = recorder.is_some() || stamped(r - first, len);
        for (j, h) in hosted.iter_mut().enumerate() {
            let block = h.ctx.block_id;
            let t0 = stamp.then(now);
            if let (Some(rec), Some(t0)) = (recorder, t0) {
                if let Some(ended) = h.ended {
                    let span = t0 - ended;
                    rec.record_instant(block, r - 1, TraceEventKind::BarrierDepart, t0);
                    if rec.sampled(r - 1) {
                        rec.record_sync(block, span.as_nanos() as u64);
                    }
                }
                rec.record_instant(block, r, TraceEventKind::RoundStart, t0);
            }
            setup.body(kernel, &h.ctx, r)?;
            let t1 = t0.map(|t0| {
                let t1 = now();
                h.bodies += t1 - t0;
                h.stamped += 1;
                t1
            });
            if let (Some(rec), Some(t1)) = (recorder, t1) {
                rec.record_instant(block, r, TraceEventKind::RoundEnd, t1);
            }
            if let Some(faults) = &setup.wait_faults {
                faults.on_arrive(sh, &setup.abort, block, r);
            }
            setup.check_poison(sh)?;
            if let (Some(rec), Some(t1)) = (recorder, t1) {
                rec.record_instant(block, r, TraceEventKind::BarrierArrive, t1);
                if j > 0 {
                    rec.record_spin(block, 0);
                }
                h.ended = Some(t1);
            }
            fold.advance(worker);
        }
        if let Err(fault) = sh.sync(worker, r as u64) {
            setup.abort.abort();
            return Err(setup.fault_to_error(sh, fault));
        }
        last = Some(r);
    }
    let Some(last) = last else {
        return Ok(start);
    };
    let end = now();
    let entry = end - start;
    let ran = (last + 1 - first) as u128;
    for (h, t) in hosted.iter().zip(times) {
        let bodies = h.bodies.as_nanos() * ran / u128::from(h.stamped.max(1));
        let compute = Duration::from_nanos(bodies as u64).min(entry);
        t.compute += compute;
        t.sync += entry - compute;
        if let (Some(rec), Some(ended)) = (recorder, h.ended) {
            let block = h.ctx.block_id;
            rec.record_instant(block, last, TraceEventKind::BarrierDepart, end);
            if rec.sampled(last) {
                rec.record_sync(block, (end - ended).as_nanos() as u64);
            }
        }
    }
    setup.check_poison(sh).map(|()| end)
}

/// Where each worker of a folded launch is in its turn. The grid's `n`
/// blocks sit on `workers < n` pool workers, worker `w` hosting blocks
/// `w, w + workers, …` and running their round bodies in that order
/// before its one barrier wait (DESIGN.md §10). This is the one place a
/// worker's progress is read as blocks'. The CPU methods keep one at any
/// width (`workers ≤ n`): it is their progress table.
pub(crate) struct Fold {
    n: usize,
    workers: usize,
    /// Per worker, round bodies it has finished this launch, counted over
    /// every block it hosts. Single writer (the worker); `Relaxed`, like
    /// the barrier's progress table, since it is read only for
    /// diagnostics.
    done: Vec<CachePadded<AtomicU64>>,
}

impl Fold {
    fn new(n: usize, workers: usize) -> Self {
        Fold {
            n,
            workers,
            done: (0..workers)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    /// One more of `worker`'s round bodies finished.
    #[inline]
    pub(crate) fn advance(&self, worker: usize) {
        let done = &self.done[worker];
        done.store(done.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// Rounds every block `worker` hosts has finished the body of.
    pub(crate) fn rounds_done(&self, worker: usize) -> u64 {
        self.turn(worker).0
    }

    /// The round `worker` is in and the index, among the blocks it
    /// hosts, of the body it is running or runs next.
    fn turn(&self, worker: usize) -> (u64, usize) {
        let hosts = (self.n - worker).div_ceil(self.workers) as u64;
        let done = self.done[worker].load(Ordering::Relaxed);
        (done / hosts, (done % hosts) as usize)
    }

    /// The block `worker` is running, or runs next.
    pub(crate) fn current(&self, worker: usize) -> usize {
        worker + self.turn(worker).1 * self.workers
    }

    /// Barrier rounds entered, per block, given how many barrier rounds
    /// each worker has departed. A block has arrived for round r once its
    /// round-r body returned. A block queued behind the one its worker is
    /// running counts as arrived too: it waits on its worker, as an
    /// arrived block waits on the barrier, so `stragglers()` names the
    /// block a worker is stuck in, not the ones queued behind it. A worker
    /// that has not departed the last round's barrier is between rounds,
    /// and queues nobody.
    pub(crate) fn arrivals(&self, departed: impl Fn(usize) -> u64) -> Vec<u64> {
        (0..self.n)
            .map(|b| {
                let w = b % self.workers;
                let (round, running) = self.turn(w);
                let queued = b / self.workers > running && departed(w) >= round;
                round + u64::from(b / self.workers < running || queued)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::CLOCK_READS;
    use crate::gmem::GlobalBuffer;
    use crate::trace::TraceConfig;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

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

    /// Run a launch of `cfg` under `method` on one worker, this thread, as
    /// the pool does: through `drive_fold` when the grid folds onto it,
    /// else `drive_block` per block in turn. Returns the blocks' times,
    /// the entry's span and the clock reads it made.
    fn drive_here(
        cfg: GridConfig,
        method: SyncMethod,
        kernel: &dyn RoundKernel,
    ) -> (Vec<BlockTimes>, Duration, u64) {
        let setup = LaunchPlan::compile(cfg, method).unwrap().setup(kernel, 1);
        let rounds = 0..setup.rounds;
        let mut times = vec![BlockTimes::default(); setup.n];
        let reads = CLOCK_READS.with(|c| c.get());
        let start = now();
        let end = match (setup.barrier.as_deref(), setup.fold.as_ref()) {
            (Some(sh), Some(fold)) => {
                drive_fold(&setup, kernel, 0, (sh, fold), rounds, start, &mut times).unwrap()
            }
            _ => times.iter_mut().enumerate().fold(start, |at, (b, t)| {
                drive_block(&setup, kernel, b, rounds.clone(), at, t).unwrap()
            }),
        };
        let reads = CLOCK_READS.with(|c| c.get()) - reads;
        (times, end - start, reads)
    }

    fn count(n: usize, rounds: usize) -> Count {
        Count {
            slots: GlobalBuffer::new(n),
            rounds,
        }
    }

    /// An untraced round loop reads the clock at its entry's start and end
    /// and twice in one round in 16 — the start and end of the one wait
    /// it times — or, without a barrier, never inside the loop; a traced
    /// one stamps every round.
    #[test]
    fn untraced_round_loops_read_the_clock_in_one_round_in_sixteen() {
        const ROUNDS: usize = 1000;
        let samples = ROUNDS.div_ceil(STAMP_STRIDE) as u64;
        for (n, method, per_block) in [
            (1, SyncMethod::NoSync, 2),
            (4, SyncMethod::NoSync, 2),
            (1, SyncMethod::GpuLockFree, 2 + 2 * samples),
            (4, SyncMethod::GpuLockFree, 2 + 2 * samples),
            (1, SyncMethod::CpuImplicit, 2 + 2 * samples),
        ] {
            let k = count(n, ROUNDS);
            let (_, _, reads) = drive_here(GridConfig::new(n, 8), method, &k);
            assert!(
                reads <= n as u64 * per_block,
                "{n} x {method}: {reads} clock reads for {ROUNDS} rounds"
            );
            assert!(k.slots.to_vec().iter().all(|&v| v == ROUNDS as u64));
        }
        let traced = GridConfig::new(1, 8).with_trace(TraceConfig::new());
        let (_, _, reads) = drive_here(traced, SyncMethod::GpuLockFree, &count(1, ROUNDS));
        assert!(reads >= 3 * ROUNDS as u64, "traced: {reads} clock reads");
    }

    /// Untraced, a block's `compute + sync` is its entry's span exactly
    /// (the caller adds `launch`), and without a barrier it is all
    /// compute.
    #[test]
    fn untraced_compute_and_sync_split_the_entry() {
        for (n, method) in [
            (1, SyncMethod::GpuLockFree),
            (4, SyncMethod::GpuLockFree),
            (1, SyncMethod::CpuImplicit),
            (1, SyncMethod::NoSync),
        ] {
            let (times, entry, _) = drive_here(GridConfig::new(n, 8), method, &count(n, 100));
            for t in &times {
                assert_eq!(t.compute + t.sync, entry, "{n} x {method}: {t:?}");
            }
        }
        let plan = LaunchPlan::compile(GridConfig::new(2, 8), SyncMethod::NoSync).unwrap();
        let stats = plan.run(&count(2, 1000)).unwrap();
        for t in &stats.per_block {
            assert_eq!(t.sync, Duration::ZERO, "{t:?}");
            assert!(
                t.compute > Duration::ZERO && t.total() <= stats.wall,
                "{t:?}"
            );
        }
    }

    /// A 5 ms straggler in an unstamped round is timed exactly on both
    /// sides: its peer's wait left the spin phase, so it is the peer's
    /// `sync`, and the straggler's own entry less its short waits is its
    /// `compute`.
    #[test]
    fn a_straggler_in_an_unstamped_round_is_its_compute_and_its_peers_sync() {
        const LATE: usize = 5;
        const STALL: Duration = Duration::from_millis(5);
        /// In round `LATE` block 1 sleeps once block 0 has left its body.
        struct Straggler {
            waiting: AtomicBool,
        }
        impl RoundKernel for Straggler {
            fn rounds(&self) -> usize {
                40
            }
            fn round(&self, ctx: &BlockCtx, round: usize) {
                if round != LATE {
                    return;
                }
                if ctx.block_id == 0 {
                    self.waiting.store(true, Ordering::Release);
                } else {
                    while !self.waiting.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(STALL);
                }
            }
        }
        assert!(!stamped(LATE, 40));
        let plan = LaunchPlan::compile(GridConfig::new(2, 8), SyncMethod::GpuLockFree).unwrap();
        let k = Straggler {
            waiting: AtomicBool::new(false),
        };
        let stats = plan.run(&k).unwrap();
        let [waiter, late] = [stats.per_block[0], stats.per_block[1]];
        assert!(waiter.sync >= STALL, "block 0: {waiter:?}");
        assert!(late.compute >= STALL, "block 1: {late:?}");
    }
}
