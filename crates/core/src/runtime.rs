//! Persistent grid runtime: pooled per-block workers with pipelined
//! launches.
//!
//! [`crate::GridExecutor::run`] pays the full launch overhead `t_O` of
//! Eq. 1 on every call: `n_blocks` fresh OS threads are spawned, hit the
//! start gate, and are joined again at the end. That is the host analogue
//! of a cold `cudaLaunch` — exactly the cost the paper's persistent-kernel
//! design (Section 4.3) amortizes away. [`GridRuntime`] is the
//! persistent-host counterpart: the per-block workers are pinned **once at
//! construction** and every subsequent launch is a *warm* dispatch through
//! a launch queue, the pipelined-relaunch shape of the paper's CPU
//! implicit sync (Section 4.2) applied to whole kernels instead of rounds.
//! Which of the two a caller pays is the type it constructs — there is no
//! flag on the executor that builds a pool behind it, because a pool built
//! for one launch hides its worker spawns outside every clock the stats
//! read (DESIGN.md §10).
//!
//! The pool is a *strategy* over the shared launch engine: it compiles one
//! [`LaunchPlan`] at construction, stamps a fresh
//! `crate::launch::LaunchSetup` per submission, each pinned worker runs
//! the same `drive_block` round loop the scoped executor uses, and the
//! setup's `finish` builds the launch's stats and its
//! [`crate::LaunchRecord`] exactly as it does for a scoped launch — only
//! thread placement (pinned vs spawned) and the warm-launch accounting
//! (the [`PoolLaunchStats`], worker replacements, the shard label) differ.
//!
//! ## Launch log
//!
//! Submissions append to a monotonically numbered launch log; each worker
//! consumes the log in order with a private cursor, so back-to-back
//! [`GridRuntime::submit`] calls pipeline: block `b` can start launch
//! `k+1` the moment it finished its part of launch `k`, without a global
//! drain barrier in between. [`LaunchHandle::wait`] resolves one launch to
//! its [`crate::KernelStats`]. This in-order pipelined consumption is
//! exactly the paper's implicit-sync launch queue, which is why
//! `CpuImplicit` runs pooled natively: its driver rendezvous
//! ([`crate::CpuImplicitSync`]) is just another barrier to the engine.
//!
//! ## Fault semantics
//!
//! Barrier poisoning is permanent, so every launch gets a **fresh
//! barrier**; a panicked or timed-out launch therefore cannot contaminate
//! the next one. Workers survive kernel panics (the round body is run
//! under `catch_unwind`, like the scoped executor). A worker that is stuck
//! *inside* non-cooperative kernel code cannot be preempted; for launches
//! submitted by ownership ([`GridRuntime::submit`]), the host abandons the
//! launch after a grace period past the policy timeout, synthesizes a
//! [`crate::StuckDiagnostic`] for the missing block, and **replaces** the
//! stuck worker with a fresh one so the pool stays usable — the stale
//! thread parks itself permanently on the leaked kernel `Arc` and exits if
//! it ever returns. Borrowed launches ([`GridRuntime::run`]) must instead
//! wait for full completion before returning — the kernel is only
//! guaranteed alive for the duration of the call — so they bound barrier
//! waits (via [`crate::SyncPolicy`]) but not kernel code itself, matching
//! the scoped executor's contract.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::barrier::PoisonCause;
use crate::error::{ExecError, StuckDiagnostic, StuckPhase};
use crate::executor::{GridConfig, RoundKernel};
use crate::fault::{effective_backstop, FaultKind, FaultPhase};
use crate::launch::{
    collect_block_results, drive_block, gate_backoff, spin_then_yield, KernelRef, LaunchPlan,
    LaunchSetup,
};
use crate::method::SyncMethod;
use crate::obs::Observer;
use crate::stats::{BlockTimes, KernelStats};
use crate::trace::TraceEventKind;

/// Pool-side launch accounting attached to [`KernelStats::pool`] for runs
/// executed by a [`GridRuntime`], and only those. The warm `t_O` itself is
/// [`KernelStats::launch`] (dispatch → all workers assembled); this struct
/// carries the queueing context around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolLaunchStats {
    /// Zero-based sequence number of this launch on its pool. Sequence 0
    /// is the cold launch (it overlaps worker spawning).
    pub launch_seq: u64,
    /// Launches still pending ahead of this one at submit time (pipelining
    /// depth).
    pub queue_depth: usize,
    /// Submit → first worker picked the launch up. Nonzero queueing delay
    /// means the pool was still busy with earlier launches.
    pub queued: Duration,
    /// Whether this was the pool's cold (first) launch.
    pub cold: bool,
}

/// Completion state of one launch.
struct LaunchDone {
    /// Per-block result slots; a slot is written exactly once (worker or
    /// host-side abandonment, whichever comes first).
    results: Vec<Option<Result<BlockTimes, ExecError>>>,
    finished: usize,
    /// When the first failed block reported, starting the abandonment
    /// grace clock.
    first_failure: Option<Instant>,
    /// Whether the launch's waiter is asleep on `done_cv` (written only
    /// under this lock): `record_result` notifies only then.
    waiter_parked: bool,
}

/// One entry of the launch log: the engine's per-launch state
/// ([`LaunchSetup`]: fresh barrier, recorder, abort) plus the pool's
/// queueing and completion bookkeeping.
struct Launch {
    seq: u64,
    kernel: KernelRef,
    setup: LaunchSetup,
    queue_depth: usize,
    submitted: Instant,
    /// When the first worker picked this launch up (end of queueing).
    activated: OnceLock<Instant>,
    /// Assembly gate: workers check in and spin until all peers of *this
    /// launch* exist, pinning the warm-launch boundary exactly like the
    /// scoped engine's start gate — with an abort escape, since a pinned
    /// peer may never arrive once the launch has failed, and (with a
    /// policy timeout) a deadline of its own, so a worker stuck *before*
    /// the gate surfaces as an assembly-phase failure instead of hanging
    /// its peers (see [`StuckPhase::Assembly`]).
    gate: AtomicUsize,
    /// How many workers have *entered* this launch's assembly phase
    /// (picked it up off the log). The gate deadline only runs once this
    /// reaches `n`: a worker still busy on an earlier pipelined launch is
    /// late, not stuck, and abandoning *that* launch is what unblocks it.
    entered: AtomicUsize,
    /// Which blocks have checked in at the gate — the assembly-phase
    /// progress table, feeding assembly diagnostics the way the barrier's
    /// arrival counts feed round diagnostics.
    checked_in: Vec<AtomicBool>,
    done: Mutex<LaunchDone>,
    done_cv: Condvar,
    /// Mirror of `LaunchDone::finished`, stored (`Release`) under the
    /// `done` lock so the waiter's spin phase, `is_done` and `queue_depth`
    /// read completion (`Acquire`) without it.
    finished: AtomicUsize,
    /// Set by `abandon`; workers step over an abandoned launch.
    abandoned: AtomicBool,
}

impl Launch {
    fn is_done(&self) -> bool {
        // Acquire pairs with the Release store under the `done` lock: a
        // reader that sees `n` also sees every block's result slot.
        self.finished.load(Ordering::Acquire) >= self.setup.n
    }

    /// Assembly-phase progress snapshot: 1 for blocks that checked in at
    /// the gate, 0 for those that never assembled — the round-0 analogue
    /// of the barrier's arrival table.
    fn assembly_arrivals(&self) -> Vec<u64> {
        self.checked_in
            .iter()
            .map(|c| u64::from(c.load(Ordering::Acquire)))
            .collect()
    }

    /// Diagnostic for a block stuck waiting at (or never reaching) the
    /// assembly gate, reported in [`StuckPhase::Assembly`] so it cannot
    /// masquerade as a round-0 body fault.
    fn assembly_diagnostic(&self, waiting_block: usize, timeout: Duration) -> Box<StuckDiagnostic> {
        let arrivals = self.assembly_arrivals();
        Box::new(StuckDiagnostic {
            barrier: self
                .setup
                .barrier
                .as_deref()
                .map_or("pooled:no-sync".to_string(), |sh| {
                    format!("pooled:{}", sh.name())
                }),
            waiting_block,
            round: 0,
            flag: format!("launch {} assembly gate", self.seq),
            timeout,
            departures: vec![0; self.setup.n],
            arrivals,
            recent_events: Vec::new(),
            phase: StuckPhase::Assembly,
        })
    }

    /// Store `res` for `block` unless the slot was already filled (e.g. by
    /// host-side abandonment racing a late worker), or the launch was
    /// already settled entirely (`wait_launch` takes the results vector
    /// once finished — a replaced worker waking from a stall may report
    /// long after; its report is dropped, never an index panic).
    fn record_result(&self, block: usize, res: Result<BlockTimes, ExecError>) {
        let mut g = self.done.lock();
        match g.results.get(block) {
            None | Some(Some(_)) => return,
            Some(None) => {}
        }
        if res.is_err() {
            g.first_failure.get_or_insert_with(Instant::now);
            self.setup.abort.abort();
        }
        g.results[block] = Some(res);
        g.finished += 1;
        self.finished.store(g.finished, Ordering::Release);
        let wake = g.waiter_parked;
        drop(g);
        if wake {
            self.done_cv.notify_all();
        }
    }
}

/// Shared pool state.
struct Shared {
    state: Mutex<PoolState>,
    cv: Condvar,
    /// Mirror of `PoolState::next_seq`, stored (`Release`) under the state
    /// lock: what an idle worker polls (`Acquire`) before it parks on `cv`.
    next_seq: AtomicU64,
    /// Cross-launch observability plane, fed once per completed launch by
    /// the *host* thread resolving it (never by workers — spin loops stay
    /// free of registry traffic).
    obs: Arc<Observer>,
    /// Shard label stamped into every [`crate::LaunchRecord`] this pool emits.
    /// `None` for standalone pools (their gauge samples land under the
    /// registry's `"default"` shard slot); set by [`crate::GridService`]
    /// so per-shard registry families never alias across shards.
    shard_label: Mutex<Option<String>>,
}

struct PoolState {
    /// Launch log: `queue[i]` has sequence `first_seq + i`. Entries are
    /// pruned once every worker's cursor has passed them.
    queue: VecDeque<Arc<Launch>>,
    first_seq: u64,
    next_seq: u64,
    /// Per-block worker generation; bumping it retires the incumbent
    /// worker (it exits at its next dispatch point).
    gens: Vec<u64>,
    /// Per-block launch cursor (next sequence the block's worker will
    /// execute).
    cursors: Vec<u64>,
    shutdown: bool,
    /// Workers asleep on `Shared::cv` (written only under this lock, so a
    /// notifier holding it knows whether anyone needs a wake).
    parked: usize,
}

fn spawn_worker(shared: Arc<Shared>, block: usize, gen: u64, cursor: u64) {
    let builder = std::thread::Builder::new().name(format!("blocksync-pool-{block}"));
    builder
        .spawn(move || worker_loop(&shared, block, gen, cursor))
        .expect("spawning a pool worker thread failed");
}

fn worker_loop(shared: &Arc<Shared>, block: usize, gen: u64, mut cursor: u64) {
    loop {
        // Warm handoff: poll the published sequence number before taking
        // the lock; shutdown and the generation are read only under it, so
        // a drop or a replacement is noticed one spin bound later at most.
        spin_then_yield(|| shared.next_seq.load(Ordering::Acquire) > cursor);
        let launch = {
            let mut st = shared.state.lock();
            loop {
                if st.shutdown || st.gens[block] != gen {
                    return;
                }
                if cursor < st.next_seq {
                    let idx = (cursor - st.first_seq) as usize;
                    break Arc::clone(&st.queue[idx]);
                }
                st.parked += 1;
                shared.cv.wait(&mut st);
                st.parked -= 1;
            }
        };
        // A launch the host already gave up on: its results were
        // synthesized, so just step over it. Acquire pairs with the
        // Release in `abandon`; a worker that misses the flag fails fast
        // on the poisoned barrier and its late report is dropped.
        if !launch.abandoned.load(Ordering::Acquire) {
            run_launch(&launch, block);
        }
        cursor += 1;
        let mut st = shared.state.lock();
        if st.gens[block] != gen {
            return; // replaced while running: the successor owns the cursor
        }
        st.cursors[block] = cursor;
        let min = st.cursors.iter().copied().min().unwrap_or(cursor);
        while st.first_seq < min && !st.queue.is_empty() {
            st.queue.pop_front();
            st.first_seq += 1;
        }
    }
}

/// Execute one launch for `block`: stamp the activation, fire any
/// scheduled assembly-phase fault, assemble at the gate, then hand off to
/// the engine's shared [`drive_block`] round loop — the pooled strategy
/// contributes only the warm-`t_O` accounting and the assembly phase here.
fn run_launch(launch: &Arc<Launch>, block: usize) {
    // Alive for this whole function: an owned kernel by the launch log's
    // `Arc`, a borrowed one because `GridRuntime::run` is still blocked on
    // this worker's `record_result` below (see `KernelRef::borrowed`).
    let kernel = launch.kernel.get();
    let base = *launch.activated.get_or_init(Instant::now);
    launch.entered.fetch_add(1, Ordering::AcqRel);
    // Scheduled assembly-phase fault: misbehave *before* checking in at
    // the gate, so peers observe this block as never-assembled.
    if let Some(f) = launch
        .setup
        .faults
        .as_deref()
        .and_then(|s| s.fault_at(block, 0, FaultPhase::Assembly))
    {
        match f.kind {
            FaultKind::Panic => {
                // A worker thread must not unwind, so an assembly "panic"
                // is reported directly: poison + abort so peers drain,
                // and the origin error names the assembly site.
                if let Some(sh) = launch.setup.barrier.as_deref() {
                    sh.poison(block, 0, PoisonCause::Panic);
                }
                launch.setup.abort.abort();
                launch.record_result(
                    block,
                    Err(ExecError::BlockPanicked {
                        block,
                        round: 0,
                        message: format!("injected fault: block {block} during pooled assembly"),
                    }),
                );
                return;
            }
            FaultKind::Delay(by) | FaultKind::Stall(by) => std::thread::sleep(by),
            FaultKind::Straggler => {
                // Cooperative: hold off checking in until a peer's gate
                // deadline fails the launch (or the backstop trips), then
                // report this block's own Assembly-phase origin error —
                // never checking in, so peers see it as never-assembled.
                let backstop = effective_backstop(&launch.setup.policy);
                let start = Instant::now();
                let poisoned = || {
                    launch
                        .setup
                        .barrier
                        .as_deref()
                        .is_some_and(|sh| sh.control().poisoned().is_some())
                };
                while !launch.setup.abort.is_aborted() && !poisoned() {
                    if start.elapsed() >= backstop {
                        if let Some(sh) = launch.setup.barrier.as_deref() {
                            sh.poison(block, 0, PoisonCause::Timeout);
                        }
                        launch.setup.abort.abort();
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                let timeout = launch.setup.policy.timeout.unwrap_or_default();
                launch.record_result(
                    block,
                    Err(ExecError::BarrierTimeout {
                        diagnostic: launch.assembly_diagnostic(block, timeout),
                    }),
                );
                return;
            }
        }
    }
    // Assembly gate with an abort escape so peers of an already-failed
    // launch don't spin forever waiting for a worker that will never
    // come, and — with a policy timeout — a deadline that converts a
    // peer stuck *before* the gate into an assembly-phase failure.
    launch.checked_in[block].store(true, Ordering::Release);
    launch.gate.fetch_add(1, Ordering::AcqRel);
    let n = launch.setup.n;
    let mut stuck_since: Option<Instant> = None;
    let mut polls = 0u32;
    while launch.gate.load(Ordering::Acquire) < n {
        if launch.setup.abort.is_aborted() {
            break;
        }
        match launch.setup.policy.timeout {
            // The deadline only runs while every worker has entered this
            // launch's assembly phase: a peer still draining an earlier
            // pipelined launch is late, not stuck, and replacing *that*
            // launch's straggler (via its handle's abandonment) is what
            // frees it — failing this launch would be a false positive.
            Some(timeout) if launch.entered.load(Ordering::Acquire) >= n => {
                let since = *stuck_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= timeout {
                    let stuck = (0..n).find(|&b| !launch.checked_in[b].load(Ordering::Acquire));
                    let Some(stuck) = stuck else {
                        continue; // everyone checked in; the gate is about to open
                    };
                    // Poison + abort only: this observer (and every peer)
                    // falls through to drive_block and fails fast with a
                    // derived error, setting `first_failure`; the stuck
                    // block's slot stays empty so the handle's abandonment
                    // synthesizes the Assembly-phase origin error and
                    // replaces its worker — one self-heal path for stuck
                    // assembly and stuck rounds alike.
                    if let Some(sh) = launch.setup.barrier.as_deref() {
                        sh.poison(stuck, 0, PoisonCause::Timeout);
                    }
                    launch.setup.abort.abort();
                    break;
                }
            }
            _ => stuck_since = None,
        }
        gate_backoff(&mut polls);
    }
    let mut t = BlockTimes {
        // Warm t_O: dispatch (first pickup) -> this worker assembled.
        launch: Instant::now().saturating_duration_since(base),
        ..BlockTimes::default()
    };
    if let Some(rec) = launch.setup.recorder.as_deref() {
        rec.record(block, 0, TraceEventKind::Launch);
    }
    let res = drive_block(&launch.setup, kernel, block, &mut t).map(|()| t);
    launch.record_result(block, res);
}

/// A pending pooled launch; resolves to the launch's [`KernelStats`].
///
/// Handles should be waited in submission order when pipelining — workers
/// consume the launch log in order, so an abandoned early launch is only
/// detected (and its stuck worker replaced) by waiting on *its* handle.
#[must_use = "a LaunchHandle does nothing until waited"]
pub struct LaunchHandle {
    shared: Arc<Shared>,
    launch: Arc<Launch>,
}

impl LaunchHandle {
    /// This launch's pool sequence number.
    pub fn seq(&self) -> u64 {
        self.launch.seq
    }

    /// Whether every block has reported (or the launch was abandoned).
    pub fn is_done(&self) -> bool {
        self.launch.is_done()
    }

    /// Block until the launch completes and return its stats.
    ///
    /// With a [`crate::SyncPolicy`] timeout set, a block stuck in
    /// non-cooperative kernel code is given a grace period past the first
    /// observed failure, then abandoned: the wait returns
    /// [`ExecError::BarrierTimeout`] with a synthesized
    /// [`StuckDiagnostic`], and the stuck worker is replaced so the pool
    /// stays usable.
    ///
    /// # Errors
    /// The merged per-block error of the launch, origin first — the same
    /// contract as [`crate::GridExecutor::run`].
    pub fn wait(self) -> Result<KernelStats, ExecError> {
        wait_launch(&self.shared, &self.launch, true)
    }
}

fn wait_launch(
    shared: &Arc<Shared>,
    launch: &Arc<Launch>,
    allow_abandon: bool,
) -> Result<KernelStats, ExecError> {
    let n = launch.setup.n;
    let mut replaced: Vec<usize> = Vec::new();
    let results: Vec<Result<BlockTimes, ExecError>> = {
        // Warm handoff, caller side: poll the completion mirror, then
        // park on `done_cv` for whatever the bound did not cover.
        spin_then_yield(|| launch.is_done());
        let mut g = launch.done.lock();
        while g.finished < n {
            g.waiter_parked = true;
            match launch.setup.policy.timeout.filter(|_| allow_abandon) {
                None => launch.done_cv.wait(&mut g),
                Some(timeout) => {
                    // Grace past the first observed failure before the
                    // launch is abandoned.
                    let grace = launch.setup.policy.abandon_grace();
                    let tick = grace.min(Duration::from_millis(20));
                    let _ = launch.done_cv.wait_for(&mut g, tick);
                    if g.finished >= n {
                        break;
                    }
                    if let Some(first) = g.first_failure {
                        if first.elapsed() > grace {
                            abandon(launch, &mut g, timeout, &mut replaced);
                            break;
                        }
                    }
                }
            }
        }
        std::mem::take(&mut g.results)
            .into_iter()
            .map(|r| r.expect("every slot is filled once finished == n"))
            .collect()
    };
    if !replaced.is_empty() {
        replace_workers(shared, &replaced, launch.seq);
    }
    let wall = launch.submitted.elapsed();
    let activated = *launch.activated.get().unwrap_or(&launch.submitted);
    let pool = PoolLaunchStats {
        launch_seq: launch.seq,
        queue_depth: launch.queue_depth,
        queued: activated.saturating_duration_since(launch.submitted),
        cold: launch.seq == 0,
    };
    let (result, mut record) =
        launch
            .setup
            .finish(collect_block_results(results), wall, Some(pool));
    if shared.obs.is_enabled() {
        record.replacements = replaced.len();
        record.shard = shared.shard_label.lock().clone();
        shared.obs.observe(record);
    }
    result
}

/// Give up on the blocks that never reported: synthesize their timeout
/// diagnostics, poison the launch so stragglers that eventually wake fail
/// fast, and note them for worker replacement. Poisoning goes through the
/// [`crate::BarrierShared::poison`] hook so barriers whose waiters sleep
/// (the CPU-implicit condvar rendezvous) are woken, not just flagged.
fn abandon(launch: &Launch, g: &mut LaunchDone, timeout: Duration, replaced: &mut Vec<usize>) {
    launch.abandoned.store(true, Ordering::Release);
    launch.setup.abort.abort();
    let (arrivals, departures) = match launch.setup.barrier.as_deref() {
        Some(sh) => sh.control().progress(),
        None => (vec![0; launch.setup.n], vec![0; launch.setup.n]),
    };
    for b in 0..launch.setup.n {
        if g.results[b].is_some() {
            continue;
        }
        let round = arrivals.get(b).copied().unwrap_or(0) as usize;
        if let Some(sh) = launch.setup.barrier.as_deref() {
            sh.poison(b, round, PoisonCause::Timeout);
        }
        // A worker that never even checked in at the assembly gate was
        // stuck *before* round 0 — report the assembly phase (with the
        // gate's check-in bits as its progress table) so the diagnostic
        // does not masquerade as a round-0 body fault.
        let assembled = launch.checked_in[b].load(Ordering::Acquire);
        let diagnostic = if assembled {
            Box::new(StuckDiagnostic {
                barrier: launch
                    .setup
                    .barrier
                    .as_deref()
                    .map_or("pooled:no-sync".to_string(), |sh| {
                        format!("pooled:{}", sh.name())
                    }),
                waiting_block: b,
                round,
                flag: format!("launch {} abandoned; worker replaced", launch.seq),
                timeout,
                arrivals: arrivals.clone(),
                departures: departures.clone(),
                recent_events: launch
                    .setup
                    .recorder
                    .as_deref()
                    .map(|rec| rec.tail(b, 8).iter().map(|e| e.to_string()).collect())
                    .unwrap_or_default(),
                phase: StuckPhase::Barrier,
            })
        } else {
            let mut d = launch.assembly_diagnostic(b, timeout);
            d.flag = format!(
                "launch {} abandoned in assembly; worker replaced",
                launch.seq
            );
            d
        };
        g.results[b] = Some(Err(ExecError::BarrierTimeout { diagnostic }));
        g.finished += 1;
        replaced.push(b);
    }
    launch.finished.store(g.finished, Ordering::Release);
}

/// Retire the stuck workers and spawn fresh ones starting after the
/// abandoned launch (its results were already synthesized).
fn replace_workers(shared: &Arc<Shared>, blocks: &[usize], after_seq: u64) {
    let mut st = shared.state.lock();
    if st.shutdown {
        return;
    }
    for &b in blocks {
        st.gens[b] += 1;
        st.cursors[b] = after_seq + 1;
        spawn_worker(Arc::clone(shared), b, st.gens[b], after_seq + 1);
    }
    drop(st);
    shared.cv.notify_all();
}

/// Persistent per-block worker pool with a pipelined launch queue — the
/// host-runtime realization of the paper's "launch the kernel only once"
/// persistence, extended across kernels. See the module docs for the
/// launch-log and fault-recovery design.
pub struct GridRuntime {
    shared: Arc<Shared>,
    plan: LaunchPlan,
}

impl std::fmt::Debug for GridRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GridRuntime")
            .field("n_blocks", &self.plan.config().n_blocks)
            .field("method", &self.plan.method())
            .finish()
    }
}

impl GridRuntime {
    /// Whether `method` can run on a persistent pool. Everything can
    /// except `CpuExplicit` — whose whole point is relaunching from the
    /// host every round — and `Auto`, which must resolve to a concrete
    /// method first. `CpuImplicit` pools natively: the launch log's
    /// in-order pipelined consumption *is* implicit sync, with the driver
    /// rendezvous as its barrier.
    pub fn supports(method: SyncMethod) -> bool {
        !matches!(method, SyncMethod::CpuExplicit | SyncMethod::Auto)
    }

    /// Build the pool and pin one worker per block.
    ///
    /// # Errors
    /// [`ExecError::Device`] for an invalid grid shape;
    /// [`ExecError::RuntimeUnsupported`] for `CpuExplicit` or `Auto`.
    pub fn new(cfg: GridConfig, method: SyncMethod) -> Result<GridRuntime, ExecError> {
        Self::new_with_observer(cfg, method, Observer::new())
    }

    /// [`GridRuntime::new`] sharing an existing [`Observer`] — used by
    /// [`crate::GridService`] so every shard lands in one registry, and by
    /// the `obs_overhead` bench to pass a [`Observer::disabled`] control
    /// arm.
    ///
    /// # Errors
    /// See [`GridRuntime::new`].
    pub fn new_with_observer(
        cfg: GridConfig,
        method: SyncMethod,
        obs: Arc<Observer>,
    ) -> Result<GridRuntime, ExecError> {
        if !Self::supports(method) {
            return Err(ExecError::RuntimeUnsupported {
                method: method.to_string(),
            });
        }
        let plan = LaunchPlan::compile(cfg, method)?;
        let n = plan.config().n_blocks;
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                first_seq: 0,
                next_seq: 0,
                gens: vec![0; n],
                cursors: vec![0; n],
                shutdown: false,
                parked: 0,
            }),
            cv: Condvar::new(),
            next_seq: AtomicU64::new(0),
            obs,
            shard_label: Mutex::new(None),
        });
        for b in 0..n {
            spawn_worker(Arc::clone(&shared), b, 0, 0);
        }
        Ok(GridRuntime { shared, plan })
    }

    /// The pool's observability handle: cross-launch metrics registry
    /// plus flight recorder, fed on every launch completion.
    pub fn observer(&self) -> Arc<Observer> {
        Arc::clone(&self.shared.obs)
    }

    /// Label every future [`crate::LaunchRecord`] this pool emits with a shard
    /// name, so a multi-pool [`crate::GridService`] sharing one registry
    /// gets per-shard `queue_depth` gauges and `shard_launches_total`
    /// counters instead of aliased globals.
    pub fn set_shard_label(&self, label: impl Into<String>) {
        *self.shared.shard_label.lock() = Some(label.into());
    }

    /// The shard label stamped into this pool's launch records, if any.
    pub fn shard_label(&self) -> Option<String> {
        self.shared.shard_label.lock().clone()
    }

    /// The pool's grid configuration.
    pub fn config(&self) -> &GridConfig {
        self.plan.config()
    }

    /// The pool's synchronization method.
    pub fn method(&self) -> SyncMethod {
        self.plan.method()
    }

    /// Launches still pending (submitted but not yet completed by every
    /// block). Counted from completion state, not worker cursors — a
    /// worker advances its cursor slightly after the host can observe the
    /// launch's results.
    pub fn queue_depth(&self) -> usize {
        let st = self.shared.state.lock();
        st.queue.iter().filter(|l| !l.is_done()).count()
    }

    /// Workers currently asleep on the pool's condvar (diagnostic, like
    /// [`crate::BarrierControl::parked_waiters`]): an idle pool reaches
    /// `n_blocks` one spin bound after its last launch and burns no CPU
    /// from then on.
    pub fn parked_workers(&self) -> usize {
        self.shared.state.lock().parked
    }

    /// Total launches submitted to this pool.
    pub fn launches(&self) -> u64 {
        self.shared.state.lock().next_seq
    }

    /// Per-block worker generation counters. A block's counter advances
    /// every time its stuck worker is abandoned and replaced, so a soak
    /// harness can assert the pool self-healed (strictly increasing after
    /// every abandoned launch) without reaching into pool internals.
    pub fn generations(&self) -> Vec<u64> {
        self.shared.state.lock().gens.clone()
    }

    /// Append a launch to the log and return its handle. Back-to-back
    /// submissions pipeline; call [`LaunchHandle::wait`] (in order) to
    /// collect each launch's stats.
    ///
    /// # Errors
    /// [`ExecError::BarrierUnavailable`] if the method cannot build a
    /// barrier for this grid.
    pub fn submit<K: RoundKernel + Send + Sync + 'static>(
        &self,
        kernel: Arc<K>,
    ) -> Result<LaunchHandle, ExecError> {
        self.submit_dyn(kernel)
    }

    /// [`GridRuntime::submit`] for an already-erased kernel.
    ///
    /// # Errors
    /// See [`GridRuntime::submit`].
    pub fn submit_dyn(
        &self,
        kernel: Arc<dyn RoundKernel + Send + Sync>,
    ) -> Result<LaunchHandle, ExecError> {
        let launch = self.enqueue(KernelRef::owned(Arc::clone(&kernel)))?;
        kernel.on_launch(&launch.setup.abort);
        Ok(LaunchHandle {
            shared: Arc::clone(&self.shared),
            launch,
        })
    }

    /// Run a borrowed kernel on the warm pool and block until it
    /// completes — same signature as [`crate::GridExecutor::run`], warm
    /// `t_O`.
    ///
    /// Because the kernel is only borrowed, this wait is *not* bounded for
    /// blocks stuck inside non-cooperative kernel code (the pool may not
    /// outlive the borrow); barrier waits are still bounded by the policy
    /// timeout. Use [`GridRuntime::submit`] for the abandon-and-replace
    /// watchdog.
    ///
    /// # Errors
    /// Same contract as [`crate::GridExecutor::run`].
    pub fn run<K: RoundKernel>(&self, kernel: &K) -> Result<KernelStats, ExecError> {
        // SAFETY: `wait_launch(.., allow_abandon = false)` below does not
        // return until every worker recorded its result for this launch,
        // and a worker is done with the kernel once it has.
        let launch = self.enqueue(unsafe { KernelRef::borrowed(kernel) })?;
        kernel.on_launch(&launch.setup.abort);
        wait_launch(&self.shared, &launch, false)
    }

    fn enqueue(&self, kernel: KernelRef) -> Result<Arc<Launch>, ExecError> {
        let mut setup = self.plan.setup(kernel.get().rounds())?;
        setup.arm_faults(kernel.get());
        let mut st = self.shared.state.lock();
        let min = st.cursors.iter().copied().min().unwrap_or(st.next_seq);
        let launch = Arc::new(Launch {
            seq: st.next_seq,
            kernel,
            queue_depth: (st.next_seq - min) as usize,
            submitted: Instant::now(),
            activated: OnceLock::new(),
            gate: AtomicUsize::new(0),
            entered: AtomicUsize::new(0),
            checked_in: (0..setup.n).map(|_| AtomicBool::new(false)).collect(),
            done: Mutex::new(LaunchDone {
                results: vec![None; setup.n],
                finished: 0,
                first_failure: None,
                waiter_parked: false,
            }),
            done_cv: Condvar::new(),
            finished: AtomicUsize::new(0),
            abandoned: AtomicBool::new(false),
            setup,
        });
        st.queue.push_back(Arc::clone(&launch));
        st.next_seq += 1;
        self.shared.next_seq.store(st.next_seq, Ordering::Release);
        // Read after publishing, under the lock a worker holds from its
        // last check of `next_seq` until it is inside `cv.wait`: zero
        // means nobody can miss this entry, so the wake is skipped.
        let wake = st.parked > 0;
        drop(st);
        if wake {
            self.shared.cv.notify_all();
        }
        Ok(launch)
    }
}

impl Drop for GridRuntime {
    /// Signal shutdown; workers exit at their next dispatch point. Workers
    /// stuck in non-cooperative kernel code are leaked rather than joined
    /// (they hold only `Arc`s, so this is safe) — the same trade the
    /// abandon path makes.
    fn drop(&mut self) {
        self.shared.state.lock().shutdown = true;
        self.shared.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::SyncPolicy;
    use crate::executor::BlockCtx;
    use crate::gmem::GlobalBuffer;
    use crate::trace::TraceConfig;
    use std::sync::atomic::AtomicBool;

    /// Every block bumps its slot once per round; a correct barrier makes
    /// all slots equal the round count at the end.
    struct CountKernel {
        slots: GlobalBuffer<u64>,
        rounds: usize,
    }

    impl RoundKernel for CountKernel {
        fn rounds(&self) -> usize {
            self.rounds
        }
        fn round(&self, ctx: &BlockCtx, _round: usize) {
            let b = ctx.block_id;
            self.slots.set(b, self.slots.get(b) + 1);
        }
    }

    fn pool(n: usize, method: SyncMethod) -> GridRuntime {
        GridRuntime::new(GridConfig::new(n, 64), method).unwrap()
    }

    /// A one-round kernel whose blocks hold until `gate` is raised. The
    /// gate is held across assertions, so a bare yield loop would
    /// busy-burn a core.
    fn held_until(gate: &Arc<AtomicBool>) -> Arc<dyn RoundKernel + Send + Sync> {
        let gate = Arc::clone(gate);
        Arc::new((1usize, move |_: &BlockCtx, _: usize| {
            let mut polls = 0u32;
            while !gate.load(Ordering::Acquire) {
                gate_backoff(&mut polls);
            }
        }))
    }

    #[test]
    fn rejects_cpu_explicit_and_auto_but_pools_cpu_implicit() {
        for m in [SyncMethod::CpuExplicit, SyncMethod::Auto] {
            assert!(!GridRuntime::supports(m));
            let err = GridRuntime::new(GridConfig::new(2, 64), m).unwrap_err();
            assert!(matches!(err, ExecError::RuntimeUnsupported { .. }), "{err}");
        }
        assert!(GridRuntime::supports(SyncMethod::CpuImplicit));
        assert!(GridRuntime::supports(SyncMethod::NoSync));
        assert!(GridRuntime::supports(SyncMethod::GpuLockFree));
    }

    #[test]
    fn borrowed_run_is_correct_and_reusable() {
        let rt = pool(4, SyncMethod::GpuLockFree);
        for _ in 0..3 {
            let kernel = CountKernel {
                slots: GlobalBuffer::new(4),
                rounds: 50,
            };
            let stats = rt.run(&kernel).unwrap();
            assert!(kernel.slots.to_vec().iter().all(|&v| v == 50));
            assert_eq!(stats.n_blocks, 4);
            assert_eq!(stats.rounds, 50);
            assert!(stats.pool.is_some());
        }
        assert_eq!(rt.launches(), 3);
        assert_eq!(rt.queue_depth(), 0);
    }

    #[test]
    fn cpu_implicit_pools_with_pipelined_launches() {
        // Satellite regression: `GridRuntime::submit` of a CpuImplicit
        // kernel must succeed with pipelined launches — the launch log is
        // implicit sync, with the driver rendezvous as its barrier.
        let rt = pool(3, SyncMethod::CpuImplicit);
        let kernels: Vec<Arc<CountKernel>> = (0..4)
            .map(|_| {
                Arc::new(CountKernel {
                    slots: GlobalBuffer::new(3),
                    rounds: 25,
                })
            })
            .collect();
        let handles: Vec<LaunchHandle> = kernels
            .iter()
            .map(|k| rt.submit(Arc::clone(k)).unwrap())
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let stats = h.wait().unwrap();
            assert_eq!(stats.method, "cpu-implicit");
            let p = stats.pool.as_ref().unwrap();
            assert_eq!(p.launch_seq, i as u64);
            assert!(kernels[i].slots.to_vec().iter().all(|&v| v == 25));
        }
        assert_eq!(rt.launches(), 4);
    }

    #[test]
    fn pipelined_submits_all_complete_in_order() {
        let rt = pool(3, SyncMethod::GpuSimple);
        let kernels: Vec<Arc<CountKernel>> = (0..4)
            .map(|_| {
                Arc::new(CountKernel {
                    slots: GlobalBuffer::new(3),
                    rounds: 20,
                })
            })
            .collect();
        let handles: Vec<LaunchHandle> = kernels
            .iter()
            .map(|k| rt.submit(Arc::clone(k)).unwrap())
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.seq(), i as u64);
            let stats = h.wait().unwrap();
            let p = stats.pool.as_ref().unwrap();
            assert_eq!(p.launch_seq, i as u64);
            assert_eq!(p.cold, i == 0);
            assert!(kernels[i].slots.to_vec().iter().all(|&v| v == 20));
        }
    }

    #[test]
    fn panic_poisons_one_launch_but_not_the_pool() {
        let rt = pool(3, SyncMethod::GpuTree(crate::method::TreeLevels::Two));
        let bad: Arc<dyn RoundKernel + Send + Sync> =
            Arc::new((3usize, |ctx: &BlockCtx, r: usize| {
                if ctx.block_id == 1 && r == 1 {
                    panic!("injected");
                }
            }));
        let err = rt.submit_dyn(bad).unwrap().wait().unwrap_err();
        match err {
            ExecError::BlockPanicked { block, round, .. } => {
                assert_eq!((block, round), (1, 1));
            }
            other => panic!("expected BlockPanicked, got {other}"),
        }
        // Fresh barrier per launch: the next submit is unaffected.
        let good = Arc::new(CountKernel {
            slots: GlobalBuffer::new(3),
            rounds: 10,
        });
        rt.submit(Arc::clone(&good)).unwrap().wait().unwrap();
        assert!(good.slots.to_vec().iter().all(|&v| v == 10));
    }

    #[test]
    fn abandoned_launch_replaces_worker_and_pool_survives() {
        let cfg =
            GridConfig::new(3, 64).with_policy(SyncPolicy::with_timeout(Duration::from_millis(50)));
        let rt = GridRuntime::new(cfg, SyncMethod::GpuLockFree).unwrap();
        // Block 1 never returns from round 0 and ignores the abort signal.
        let stuck: Arc<dyn RoundKernel + Send + Sync> =
            Arc::new((2usize, |ctx: &BlockCtx, r: usize| {
                if ctx.block_id == 1 && r == 0 {
                    loop {
                        std::thread::park();
                    }
                }
            }));
        let t0 = Instant::now();
        let err = rt.submit_dyn(stuck).unwrap().wait().unwrap_err();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "abandonment must be bounded, took {:?}",
            t0.elapsed()
        );
        // The origin error is block 0's or 2's real barrier timeout (they
        // gave up waiting for the stuck block 1); the synthesized
        // `pooled:` diagnostic fills block 1's slot.
        match &err {
            ExecError::BarrierTimeout { diagnostic } => {
                assert!(diagnostic.stragglers().contains(&1), "{diagnostic}");
            }
            other => panic!("expected BarrierTimeout, got {other}"),
        }
        // The stuck worker was replaced: the pool still works.
        let good = Arc::new(CountKernel {
            slots: GlobalBuffer::new(3),
            rounds: 10,
        });
        let stats = rt.submit(Arc::clone(&good)).unwrap().wait().unwrap();
        assert!(good.slots.to_vec().iter().all(|&v| v == 10));
        assert_eq!(stats.n_blocks, 3);
    }

    #[test]
    fn is_done_and_wait_agree() {
        // One thread polls the `finished` mirror, one waits under the
        // `done` lock (spinning, yielding or parked, as the gate's hold
        // time falls): neither may see completion the other cannot.
        let rt = pool(2, SyncMethod::GpuLockFree);
        for hold_us in [0u64, 20, 150, 2_000].repeat(25) {
            let gate = Arc::new(AtomicBool::new(false));
            let waiter = rt.submit_dyn(held_until(&gate)).unwrap();
            let poller = LaunchHandle {
                shared: Arc::clone(&waiter.shared),
                launch: Arc::clone(&waiter.launch),
            };
            std::thread::scope(|s| {
                let waited = s.spawn(move || waiter.wait());
                std::thread::sleep(Duration::from_micros(hold_us));
                assert!(!poller.is_done(), "done while its blocks are held");
                gate.store(true, Ordering::Release);
                while !poller.is_done() {
                    std::thread::yield_now();
                }
                waited.join().unwrap().unwrap();
                assert!(poller.is_done());
            });
        }
        assert_eq!(rt.queue_depth(), 0);
    }

    #[test]
    fn telemetry_records_launch_events() {
        let cfg = GridConfig::new(2, 64).with_trace(TraceConfig::default());
        let rt = GridRuntime::new(cfg, SyncMethod::GpuSimple).unwrap();
        let kernel = CountKernel {
            slots: GlobalBuffer::new(2),
            rounds: 5,
        };
        let stats = rt.run(&kernel).unwrap();
        let t = stats.telemetry.as_ref().expect("telemetry attached");
        assert_eq!(t.count(TraceEventKind::Launch), 2);
        assert_eq!(t.count(TraceEventKind::RoundStart), 10);
        let doc = blocksync_device::json::parse(&t.chrome_trace("gpu-simple")).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr("events").unwrap();
        let launches = events
            .iter()
            .filter(|e| e.get("name") == Some(&"launch".into()))
            .count();
        assert_eq!(launches, 2);
    }

    #[test]
    fn queue_depth_reflects_pipelining() {
        let rt = pool(2, SyncMethod::NoSync);
        let gate = Arc::new(AtomicBool::new(false));
        let h1 = rt.submit_dyn(held_until(&gate)).unwrap();
        let h2 = rt
            .submit(Arc::new(CountKernel {
                slots: GlobalBuffer::new(2),
                rounds: 1,
            }))
            .unwrap();
        assert!(rt.queue_depth() >= 1);
        gate.store(true, Ordering::Release);
        h1.wait().unwrap();
        let stats = h2.wait().unwrap();
        assert_eq!(stats.pool.as_ref().unwrap().queue_depth, 1);
        assert_eq!(rt.queue_depth(), 0);
    }
}
