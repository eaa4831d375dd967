//! Persistent grid runtime: pooled per-block workers with pipelined
//! launches — the one strategy that spawns block threads.
//!
//! A pool spawns one worker per block when its first launch is enqueued;
//! every later launch is a *warm* dispatch through a launch queue, the
//! pipelined-relaunch shape of the paper's CPU implicit sync
//! (Section 4.2) applied to whole kernels instead of rounds — exactly the
//! cost the paper's persistent-kernel design (Section 4.3) amortizes
//! away. A cold [`LaunchPlan::run`] is launch 0 of a pool built from the
//! plan and dropped after it, so launch 0 pays the full `t_O` of Eq. 1:
//! its clock starts at submit, and `launch` and `wall` include the worker
//! spawns (DESIGN.md §10). Which of the two a caller pays is the type it
//! holds: a [`LaunchPlan`] launches cold every time, a [`GridRuntime`]
//! (or a [`crate::GridService`] shard) only the first time.
//!
//! The pool is a *strategy* over the shared launch engine: it holds one
//! [`LaunchPlan`], stamps a fresh `crate::launch::LaunchSetup` per
//! submission, each worker runs the engine's `drive_block` round loop, and
//! the setup's `finish` builds the launch's stats and its
//! [`crate::LaunchRecord`] — the pool adds only the warm-launch accounting
//! (the [`PoolLaunchStats`], worker replacements, the shard label).
//!
//! ## Launch log
//!
//! Submissions append to a monotonically numbered launch log; each worker
//! consumes the log in order with a private cursor, so back-to-back
//! [`GridRuntime::submit`] calls pipeline: block `b` can start launch
//! `k+1` the moment it finished its part of launch `k`, without a global
//! drain barrier in between. [`LaunchHandle::wait`] resolves one launch to
//! its [`crate::KernelStats`]. This in-order pipelined consumption is
//! exactly the paper's implicit-sync launch queue.
//!
//! A launch is one log entry, except under `CpuExplicit`: one per round,
//! sharing the launch's `LaunchSetup`. Whichever worker records the last
//! result of round `r`'s entry appends round `r + 1`'s, so explicit never
//! pipelines its own rounds; the waiting host bounds each round's join by
//! the policy timeout (DESIGN.md §10).
//!
//! ## Fault semantics
//!
//! Barrier poisoning is permanent, so every launch gets a **fresh
//! barrier**; a panicked or timed-out launch therefore cannot contaminate
//! the next one. Workers survive kernel panics (the round body is run
//! under `catch_unwind`). A worker that is stuck *inside* non-cooperative
//! kernel code cannot be preempted; for launches that own their kernel
//! ([`GridRuntime::submit`], [`LaunchPlan::run_owned`]), the host abandons
//! the launch after a grace period past the policy timeout, synthesizes a
//! [`crate::StuckDiagnostic`] for the missing block, and **replaces** the
//! stuck worker with a fresh one so the pool stays usable — the stale
//! thread parks itself permanently on the leaked kernel `Arc` and exits if
//! it ever returns. Borrowed launches ([`GridRuntime::run`],
//! [`LaunchPlan::run`]) must instead wait for full completion before
//! returning — the kernel is only guaranteed alive for the duration of the
//! call — so they bound barrier waits (via [`crate::SyncPolicy`]) but not
//! kernel code itself.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

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

/// Pool-side launch accounting attached to [`KernelStats::pool`]. The warm
/// `t_O` itself is [`KernelStats::launch`] (dispatch → all workers
/// assembled); this struct carries the queueing context around it, for
/// the launch's first log entry (one per round under `CpuExplicit`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolLaunchStats {
    /// Zero-based sequence number of this launch on its pool. Sequence 0
    /// is the cold launch: it spawns the workers, and its `launch` and
    /// `wall` include the spawns.
    pub launch_seq: u64,
    /// Log entries still pending ahead of this one at submit time
    /// (pipelining depth).
    pub queue_depth: usize,
    /// Submit → first worker picked the launch up. Nonzero queueing delay
    /// means the pool was still busy with earlier launches; zero for the
    /// cold launch, whose clock starts at submit.
    pub queued: Duration,
    /// Whether this was the pool's cold (first) launch.
    pub cold: bool,
}

/// Completion state of one launch.
struct LaunchDone {
    /// Per block, its times summed over the entries it finished, or its
    /// error. Taken by `wait_launch` once settled.
    results: Vec<Result<BlockTimes, ExecError>>,
    /// Who reported for the current entry (its worker, or host-side
    /// abandonment, whichever came first), and how many did.
    reported: Vec<bool>,
    finished: usize,
    /// The launch's last entry is over: `results` is final.
    settled: bool,
    /// The current entry's first round and log sequence number.
    base: usize,
    entry_seq: u64,
    /// `CpuExplicit`: when the waiting host saw every worker enter the
    /// current round (its join deadline starts there, as the gate's
    /// does), and the join's timeout once it expired.
    join_since: Option<Instant>,
    join_timeout: Option<ExecError>,
    /// When the first failure was observed, starting the abandonment
    /// grace clock.
    first_failure: Option<Instant>,
    /// Whether the launch's waiter is asleep on `done_cv` (written only
    /// under this lock): settling notifies only then.
    waiter_parked: bool,
}

/// One launch: the engine's per-launch state ([`LaunchSetup`]: fresh
/// barrier, recorder, abort) plus the pool's queueing and completion
/// bookkeeping, shared by the launch's log entries.
struct Launch {
    /// Log sequence number of the launch's first entry.
    seq: u64,
    kernel: KernelRef,
    setup: LaunchSetup,
    queue_depth: usize,
    submitted: Instant,
    /// When the first worker picked the first entry up (end of queueing);
    /// launch 0's submit instant, so its `t_O` covers the spawns.
    activated: OnceLock<Instant>,
    /// Assembly gate: workers check in and spin until all peers of *this
    /// entry* exist, pinning the launch boundary — time before the gate
    /// opens is `t_O`, time after is round time, so round-0 sync does not
    /// absorb the stagger of late workers — with an abort escape, since a
    /// pinned peer may never arrive once the launch has failed, and (with a
    /// policy timeout) a deadline of its own, so a worker stuck *before*
    /// the gate surfaces as an assembly-phase failure instead of hanging
    /// its peers (see [`StuckPhase::Assembly`]). It counts over all the
    /// launch's entries: the one at round `base` opens at `n * (base + 1)`.
    gate: AtomicUsize,
    /// How many workers have *entered* the launch's entries (picked one
    /// up off the log), counted like `gate`. The gate deadline only runs
    /// once every worker entered the current entry: a worker still busy
    /// on an earlier pipelined launch is late, not stuck, and abandoning
    /// *that* launch is what unblocks it.
    entered: AtomicUsize,
    /// Per block, how many entries it has checked in at the gate for —
    /// the assembly-phase progress table, feeding assembly diagnostics the
    /// way the barrier's arrival counts feed round diagnostics.
    checked_in: Vec<AtomicUsize>,
    /// `CpuExplicit`: when each block's latest round body ended, in ns
    /// since `submitted` — where its join to the next round starts.
    arrived: Vec<AtomicU64>,
    done: Mutex<LaunchDone>,
    done_cv: Condvar,
    /// Mirror of `LaunchDone::settled`, stored (`Release`) under the
    /// `done` lock so the waiter's spin phase, `is_done` and `queue_depth`
    /// read completion (`Acquire`) without it.
    settled: AtomicBool,
    /// Set by `abandon`; workers step over an abandoned launch.
    abandoned: AtomicBool,
}

impl Launch {
    fn is_done(&self) -> bool {
        // Acquire pairs with the Release store under the `done` lock: a
        // reader that sees it also sees every block's result.
        self.settled.load(Ordering::Acquire)
    }

    /// Whether `block` checked in at the gate of the entry at `base`.
    fn assembled(&self, block: usize, base: usize) -> bool {
        self.checked_in[block].load(Ordering::Acquire) > base
    }

    /// The `barrier` of a diagnostic the pool synthesizes.
    fn label(&self) -> String {
        match self.setup.barrier.as_deref() {
            Some(sh) => format!("pooled:{}", sh.name()),
            None => format!("pooled:{}", self.setup.method),
        }
    }

    /// Diagnostic for a block stuck waiting at (or never reaching) the
    /// gate of entry `seq` (first round `base`), reported in
    /// [`StuckPhase::Assembly`] so it cannot masquerade as a round-0 body
    /// fault; its progress table is 1 for blocks that checked in.
    fn assembly_diagnostic(
        &self,
        seq: u64,
        base: usize,
        waiting_block: usize,
        timeout: Duration,
    ) -> Box<StuckDiagnostic> {
        let n = self.setup.n;
        Box::new(StuckDiagnostic {
            barrier: self.label(),
            waiting_block,
            round: 0,
            flag: format!("launch {seq} assembly gate"),
            timeout,
            departures: vec![0; n],
            arrivals: (0..n).map(|b| u64::from(self.assembled(b, base))).collect(),
            recent_events: Vec::new(),
            phase: StuckPhase::Assembly,
        })
    }

    /// `CpuExplicit`: `block`'s body of `round` ended at `at`.
    fn arrive(&self, block: usize, round: usize, at: Instant) {
        let ns = at.saturating_duration_since(self.submitted).as_nanos();
        // Relaxed: read back by this worker at the next round, and by the
        // host only after the `done` lock that `record_result` releases.
        self.arrived[block].store(ns as u64, Ordering::Relaxed);
        if let Some(rec) = self.setup.recorder.as_deref() {
            let since = at.saturating_duration_since(rec.epoch());
            rec.record_at(block, round, TraceEventKind::BarrierArrive, since);
        }
    }

    /// `CpuExplicit`: `block`'s join after `round` ended at `until`.
    /// Returns the join's span, the round's `sync`, traced like a wait.
    fn depart(&self, block: usize, round: usize, until: Instant) -> Duration {
        let arrived =
            self.submitted + Duration::from_nanos(self.arrived[block].load(Ordering::Relaxed));
        let span = until.saturating_duration_since(arrived);
        if let Some(rec) = self.setup.recorder.as_deref() {
            let since = until.saturating_duration_since(rec.epoch());
            rec.record_at(block, round, TraceEventKind::BarrierDepart, since);
            if rec.sampled(round) {
                rec.record_sync(block, span.as_nanos() as u64);
            }
        }
        span
    }

    /// Store `res` as `block`'s report for the current entry unless it
    /// already has one (host-side abandonment racing a late worker) or the
    /// launch settled (a replaced worker waking from a stall may report
    /// long after; its report is dropped). The last report ends the entry.
    fn record_result(
        self: &Arc<Self>,
        shared: &Shared,
        block: usize,
        res: Result<BlockTimes, ExecError>,
    ) {
        let mut g = self.done.lock();
        if g.settled || g.reported[block] {
            return;
        }
        g.reported[block] = true;
        g.finished += 1;
        match res {
            Ok(t) => {
                if let Ok(sum) = &mut g.results[block] {
                    sum.launch += t.launch;
                    sum.compute += t.compute;
                    sum.sync += t.sync;
                }
            }
            Err(e) => {
                g.first_failure.get_or_insert_with(Instant::now);
                self.setup.abort.abort();
                g.results[block] = Err(e);
            }
        }
        if g.finished < self.setup.n || !self.end_entry(shared, &mut g) {
            return;
        }
        let wake = g.waiter_parked;
        drop(g);
        if wake {
            self.done_cv.notify_all();
        }
    }

    /// Every block reported for the current entry: publish the next
    /// round's (`CpuExplicit`, while rounds remain and nothing failed) or
    /// settle the launch, returning whether it settled. Lock order:
    /// `done`, then the pool's state.
    fn end_entry(self: &Arc<Self>, shared: &Shared, g: &mut LaunchDone) -> bool {
        let next = g.base + 1;
        if self.setup.per_round() && next < self.setup.rounds && g.first_failure.is_none() {
            g.base = next;
            g.reported.fill(false);
            g.finished = 0;
            g.join_since = None;
            let st = shared.state.lock();
            g.entry_seq = st.next_seq;
            shared.push(st, Arc::clone(self), next);
            return false;
        }
        g.settled = true;
        self.settled.store(true, Ordering::Release);
        true
    }

    /// `CpuExplicit`, by the waiting host: once every worker entered the
    /// current round, time its join; on expiry raise abort and record the
    /// timeout, naming the blocks that have not reported (or, if one never
    /// checked in at the gate, the assembly phase). Returns how long the
    /// host may sleep.
    fn watch_join(&self, g: &mut LaunchDone, timeout: Duration) -> Duration {
        let r = g.base;
        if g.join_timeout.is_some() || self.entered.load(Ordering::Acquire) < self.setup.n * (r + 1)
        {
            return timeout;
        }
        let since = *g.join_since.get_or_insert_with(Instant::now);
        let left = timeout.saturating_sub(since.elapsed());
        if !left.is_zero() {
            return left;
        }
        let diagnostic = match (0..self.setup.n).find(|&b| !self.assembled(b, r)) {
            Some(b) => self.assembly_diagnostic(g.entry_seq, r, b, timeout),
            None => {
                let (arrivals, departures) = join_progress(g);
                let waiting_block = arrivals.iter().position(|&a| a > r as u64).unwrap_or(0);
                let straggler = arrivals
                    .iter()
                    .position(|&a| a <= r as u64)
                    .unwrap_or(waiting_block);
                Box::new(StuckDiagnostic {
                    barrier: self.setup.method.to_string(),
                    waiting_block,
                    round: r,
                    flag: format!("join of round {r}"),
                    timeout,
                    arrivals,
                    departures,
                    recent_events: self.setup.recorder.as_deref().map_or_else(Vec::new, |rec| {
                        rec.tail(straggler, 8)
                            .iter()
                            .map(|e| e.to_string())
                            .collect()
                    }),
                    phase: StuckPhase::Barrier,
                })
            }
        };
        g.join_timeout = Some(ExecError::BarrierTimeout { diagnostic });
        g.first_failure.get_or_insert_with(Instant::now);
        self.setup.abort.abort();
        timeout
    }
}

/// The progress table of a launch without a barrier: a block has entered
/// the current entry's rounds, and finished them if it reported.
fn join_progress(g: &LaunchDone) -> (Vec<u64>, Vec<u64>) {
    let arrivals: Vec<u64> = g
        .reported
        .iter()
        .map(|&done| g.base as u64 + u64::from(done))
        .collect();
    let departures = arrivals.iter().map(|a| a.saturating_sub(1)).collect();
    (arrivals, departures)
}

/// Shared pool state.
struct Shared {
    /// The pipeline every launch is stamped from. Its observer is the
    /// pool's cross-launch observability plane, fed once per completed
    /// launch by the *host* thread resolving it (never by workers — spin
    /// loops stay free of registry traffic).
    plan: LaunchPlan,
    state: Mutex<PoolState>,
    cv: Condvar,
    /// Mirror of `PoolState::next_seq`, stored (`Release`) under the state
    /// lock: what an idle worker polls (`Acquire`) before it parks on `cv`.
    /// `Drop` stores `u64::MAX` so a worker still polling leaves at once.
    next_seq: AtomicU64,
    /// Shard label stamped into every [`crate::LaunchRecord`] this pool emits.
    /// `None` for standalone pools (their gauge samples land under the
    /// registry's `"default"` shard slot); set by [`crate::GridService`]
    /// so per-shard registry families never alias across shards.
    shard_label: Mutex<Option<String>>,
}

impl Shared {
    /// Append the entry running `launch` from round `base` to the log,
    /// publish it, release the lock and wake the parked workers.
    fn push(&self, mut st: MutexGuard<'_, PoolState>, launch: Arc<Launch>, base: usize) {
        st.queue.push_back((launch, base));
        st.next_seq += 1;
        self.next_seq.store(st.next_seq, Ordering::Release);
        // Read after publishing, under the lock a worker holds from its
        // last check of `next_seq` until it is inside `cv.wait`: zero
        // means nobody can miss this entry, so the wake is skipped.
        let wake = st.parked > 0;
        drop(st);
        if wake {
            self.cv.notify_all();
        }
    }
}

struct PoolState {
    /// Launch log: `queue[i]` is the entry with sequence `first_seq + i`,
    /// a launch and the first round it runs. Entries are pruned once every
    /// worker's cursor has passed them.
    queue: VecDeque<(Arc<Launch>, usize)>,
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

/// The only code that spawns a block thread.
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
        let (launch, base) = {
            let mut st = shared.state.lock();
            loop {
                if st.shutdown || st.gens[block] != gen {
                    return;
                }
                if cursor < st.next_seq {
                    let (launch, base) = &st.queue[(cursor - st.first_seq) as usize];
                    break (Arc::clone(launch), *base);
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
            run_launch(shared, &launch, cursor, base, block);
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

/// Execute log entry `seq` — `launch` from round `base` — for `block`:
/// stamp the activation, fire any scheduled assembly-phase fault (first
/// entry only), assemble at the gate, then hand off to the engine's shared
/// [`drive_block`] round loop — the pooled strategy contributes only the
/// `t_O` accounting, the assembly phase and `CpuExplicit`'s join here.
fn run_launch(shared: &Shared, launch: &Arc<Launch>, seq: u64, base: usize, block: usize) {
    // Alive for this whole function: an owned kernel by the launch log's
    // `Arc`, a borrowed one because the borrowing call (`GridRuntime::run`,
    // `LaunchPlan::run`) is still blocked on this worker's `record_result`
    // below (see `KernelRef::borrowed`).
    let kernel = launch.kernel.get();
    let setup = &launch.setup;
    let n = setup.n;
    let dispatched = (base == 0).then(|| *launch.activated.get_or_init(Instant::now));
    launch.entered.fetch_add(1, Ordering::AcqRel);
    // Scheduled assembly-phase fault: misbehave *before* checking in at
    // the gate, so peers observe this block as never-assembled.
    if let Some(f) = setup
        .faults
        .as_deref()
        .filter(|_| base == 0)
        .and_then(|s| s.fault_at(block, 0, FaultPhase::Assembly))
    {
        match f.kind {
            FaultKind::Panic => {
                // A worker thread must not unwind, so an assembly "panic"
                // is reported directly: poison + abort so peers drain,
                // and the origin error names the assembly site.
                if let Some(sh) = setup.barrier.as_deref() {
                    sh.poison(block, 0, PoisonCause::Panic);
                }
                setup.abort.abort();
                launch.record_result(
                    shared,
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
                let backstop = effective_backstop(&setup.policy);
                let start = Instant::now();
                let poisoned = || {
                    setup
                        .barrier
                        .as_deref()
                        .is_some_and(|sh| sh.control().poisoned().is_some())
                };
                while !setup.abort.is_aborted() && !poisoned() {
                    if start.elapsed() >= backstop {
                        if let Some(sh) = setup.barrier.as_deref() {
                            sh.poison(block, 0, PoisonCause::Timeout);
                        }
                        setup.abort.abort();
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                let timeout = setup.policy.timeout.unwrap_or_default();
                launch.record_result(
                    shared,
                    block,
                    Err(ExecError::BarrierTimeout {
                        diagnostic: launch.assembly_diagnostic(seq, base, block, timeout),
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
    let opens_at = n * (base + 1);
    launch.checked_in[block].store(base + 1, Ordering::Release);
    launch.gate.fetch_add(1, Ordering::AcqRel);
    let mut stuck_since: Option<Instant> = None;
    let mut polls = 0u32;
    while launch.gate.load(Ordering::Acquire) < opens_at {
        if setup.abort.is_aborted() {
            break;
        }
        match setup.policy.timeout {
            // The deadline only runs while every worker has entered this
            // entry's assembly phase: a peer still draining an earlier
            // pipelined launch is late, not stuck, and replacing *that*
            // launch's straggler (via its handle's abandonment) is what
            // frees it — failing this launch would be a false positive.
            Some(timeout) if launch.entered.load(Ordering::Acquire) >= opens_at => {
                let since = *stuck_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= timeout {
                    let Some(stuck) = (0..n).find(|&b| !launch.assembled(b, base)) else {
                        continue; // everyone checked in; the gate is about to open
                    };
                    // Poison + abort only: this observer (and every peer)
                    // falls through to drive_block and fails fast with a
                    // derived error, setting `first_failure`; the stuck
                    // block's slot stays empty so the handle's abandonment
                    // synthesizes the Assembly-phase origin error and
                    // replaces its worker — one self-heal path for stuck
                    // assembly and stuck rounds alike.
                    if let Some(sh) = setup.barrier.as_deref() {
                        sh.poison(stuck, 0, PoisonCause::Timeout);
                    }
                    setup.abort.abort();
                    break;
                }
            }
            _ => stuck_since = None,
        }
        gate_backoff(&mut polls);
    }
    let start = Instant::now();
    let mut t = BlockTimes {
        // t_O: dispatch (first pickup; launch 0's submit) -> this worker
        // assembled, for the launch's first entry only.
        launch: dispatched.map_or(Duration::ZERO, |at| start.saturating_duration_since(at)),
        ..BlockTimes::default()
    };
    if let Some(rec) = setup.recorder.as_deref() {
        rec.record(block, base, TraceEventKind::Launch);
    }
    if base > 0 {
        // `CpuExplicit`'s join since the last round's body: the relaunch
        // and the wait for the slowest block.
        t.sync = launch.depart(block, base - 1, start);
    }
    let end = base + if setup.per_round() { 1 } else { setup.rounds };
    let res = drive_block(setup, kernel, block, base..end.min(setup.rounds), &mut t);
    if res.is_ok() && setup.per_round() && base < setup.rounds {
        launch.arrive(block, base, Instant::now());
    }
    launch.record_result(shared, block, res.map(|()| t));
}

/// A pending pooled launch; resolves to the launch's [`KernelStats`].
///
/// Handles should be waited in submission order when pipelining — workers
/// consume the launch log in order, so an abandoned early launch is only
/// detected (and its stuck worker replaced) by waiting on *its* handle.
/// A dropped handle's launch still runs to completion.
#[must_use = "a LaunchHandle does nothing until waited"]
pub struct LaunchHandle {
    shared: Arc<Shared>,
    launch: Arc<Launch>,
}

impl LaunchHandle {
    /// The pool sequence number of this launch's first log entry.
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
    /// contract as [`LaunchPlan::run`].
    pub fn wait(self) -> Result<KernelStats, ExecError> {
        wait_launch(&self.shared, &self.launch, true)
    }
}

fn wait_launch(
    shared: &Arc<Shared>,
    launch: &Arc<Launch>,
    allow_abandon: bool,
) -> Result<KernelStats, ExecError> {
    let setup = &launch.setup;
    let mut replaced: Vec<usize> = Vec::new();
    // Warm handoff, caller side: poll the completion mirror, then park on
    // `done_cv` for whatever the bound did not cover.
    spin_then_yield(|| launch.is_done());
    let mut g = launch.done.lock();
    while !g.settled {
        g.waiter_parked = true;
        // The host watches a clock only with a timeout, and then only for
        // `CpuExplicit`'s join or an owned launch's abandonment.
        let timeout = setup
            .policy
            .timeout
            .filter(|_| allow_abandon || setup.per_round());
        let Some(timeout) = timeout else {
            launch.done_cv.wait(&mut g);
            continue;
        };
        // Grace past the first observed failure before the launch is
        // abandoned.
        let grace = setup.policy.abandon_grace();
        let mut tick = grace.min(Duration::from_millis(20));
        if setup.per_round() {
            tick = tick.min(launch.watch_join(&mut g, timeout));
        }
        let _ = launch.done_cv.wait_for(&mut g, tick);
        if g.settled {
            break;
        }
        if let Some(first) = g.first_failure.filter(|_| allow_abandon) {
            if first.elapsed() > grace {
                abandon(shared, launch, &mut g, timeout, &mut replaced);
                break;
            }
        }
    }
    let observed = Instant::now();
    let mut merged = collect_block_results(std::mem::take(&mut g.results));
    if let Some(e) = g.join_timeout.take() {
        // A block's own panic is the root cause; any other error came from
        // a straggler the host had already given up on.
        if !matches!(merged, Err(ExecError::BlockPanicked { .. })) {
            merged = Err(e);
        }
    }
    let entry_seq = g.entry_seq;
    drop(g);
    if !replaced.is_empty() {
        replace_workers(shared, &replaced, entry_seq);
    }
    if let Ok(per_block) = &mut merged {
        if setup.per_round() && setup.rounds > 0 {
            // The last round's join ends when the host observes it.
            for (b, t) in per_block.iter_mut().enumerate() {
                t.sync += launch.depart(b, setup.rounds - 1, observed);
            }
        }
    }
    let wall = launch.submitted.elapsed();
    let activated = *launch.activated.get().unwrap_or(&launch.submitted);
    let pool = PoolLaunchStats {
        launch_seq: launch.seq,
        queue_depth: launch.queue_depth,
        queued: activated.saturating_duration_since(launch.submitted),
        cold: launch.seq == 0,
    };
    let (result, mut record) = setup.finish(merged, wall, pool);
    let obs = &shared.plan.obs;
    if obs.is_enabled() {
        record.replacements = replaced.len();
        record.shard = shared.shard_label.lock().clone();
        obs.observe(record);
    }
    result
}

/// Give up on the blocks that never reported for the current entry:
/// synthesize their timeout diagnostics, poison the launch so stragglers
/// that eventually wake fail fast, note them for worker replacement, and
/// settle the launch. Poisoning goes through the
/// [`crate::BarrierShared::poison`] hook so barriers whose waiters sleep
/// (the CPU-implicit condvar rendezvous) are woken, not just flagged.
fn abandon(
    shared: &Shared,
    launch: &Arc<Launch>,
    g: &mut LaunchDone,
    timeout: Duration,
    replaced: &mut Vec<usize>,
) {
    launch.abandoned.store(true, Ordering::Release);
    launch.setup.abort.abort();
    let (arrivals, departures) = match launch.setup.barrier.as_deref() {
        Some(sh) => sh.control().progress(),
        None => join_progress(g),
    };
    for b in 0..launch.setup.n {
        if g.reported[b] {
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
        let diagnostic = if launch.assembled(b, g.base) {
            Box::new(StuckDiagnostic {
                barrier: launch.label(),
                waiting_block: b,
                round,
                flag: format!("launch {} abandoned; worker replaced", g.entry_seq),
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
            let mut d = launch.assembly_diagnostic(g.entry_seq, g.base, b, timeout);
            d.flag = format!(
                "launch {} abandoned in assembly; worker replaced",
                g.entry_seq
            );
            d
        };
        g.results[b] = Err(ExecError::BarrierTimeout { diagnostic });
        g.reported[b] = true;
        replaced.push(b);
    }
    g.finished = launch.setup.n;
    launch.end_entry(shared, g);
}

/// Retire the stuck workers and spawn fresh ones starting after the
/// abandoned entry (its results were already synthesized).
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
}

impl std::fmt::Debug for GridRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GridRuntime")
            .field("n_blocks", &self.config().n_blocks)
            .field("method", &self.method())
            .finish()
    }
}

impl GridRuntime {
    // Shim for the frozen benchmark only: every method pools now. Caller:
    // perf/src/workloads.rs (199); the next `benchmark` PR drops that call
    // and deletes this.
    #[doc(hidden)]
    pub fn supports(_method: SyncMethod) -> bool {
        true
    }

    /// Build the pool. Its workers, one per block, are spawned by its
    /// first launch, whose stats include that cost. [`SyncMethod::Auto`]
    /// resolves here, as in [`LaunchPlan::compile`].
    ///
    /// # Errors
    /// [`ExecError::Device`] for an invalid grid shape.
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
        let mut plan = LaunchPlan::compile(cfg, method)?;
        plan.obs = obs;
        Ok(Self::from_plan(plan))
    }

    /// A pool for `plan`; [`LaunchPlan`] builds one per cold launch.
    pub(crate) fn from_plan(plan: LaunchPlan) -> GridRuntime {
        let n = plan.config().n_blocks;
        GridRuntime {
            shared: Arc::new(Shared {
                plan,
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
                shard_label: Mutex::new(None),
            }),
        }
    }

    /// The pool's observability handle: cross-launch metrics registry
    /// plus flight recorder, fed on every launch completion.
    pub fn observer(&self) -> Arc<Observer> {
        self.shared.plan.observer()
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
        self.shared.plan.config()
    }

    /// The pool's synchronization method (never `Auto`: the resolved one).
    pub fn method(&self) -> SyncMethod {
        self.shared.plan.method()
    }

    /// Launches still pending (submitted but not yet completed by every
    /// block). Counted from completion state, not worker cursors — a
    /// worker advances its cursor slightly after the host can observe the
    /// launch's results.
    pub fn queue_depth(&self) -> usize {
        let st = self.shared.state.lock();
        // A `CpuExplicit` launch may hold several entries of the log.
        let mut pending: Vec<*const Launch> = st
            .queue
            .iter()
            .filter(|(l, _)| !l.is_done())
            .map(|(l, _)| Arc::as_ptr(l))
            .collect();
        pending.sort_unstable();
        pending.dedup();
        pending.len()
    }

    /// Workers currently asleep on the pool's condvar (diagnostic, like
    /// [`crate::BarrierControl::parked_waiters`]): an idle pool reaches
    /// `n_blocks` one spin bound after its last launch and burns no CPU
    /// from then on (a pool that never launched has no workers yet).
    pub fn parked_workers(&self) -> usize {
        self.shared.state.lock().parked
    }

    /// Log entries appended to this pool: one per launch, one per round
    /// under `CpuExplicit`.
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
    /// collect each launch's stats. The kernel's
    /// [`RoundKernel::on_launch`] runs before any worker can see the
    /// launch.
    ///
    /// # Errors
    /// None: every method builds its barrier for any valid grid, so a
    /// launch's failures all surface from [`LaunchHandle::wait`].
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
        Ok(LaunchHandle {
            shared: Arc::clone(&self.shared),
            launch: self.enqueue(KernelRef::owned(kernel)),
        })
    }

    /// Run a borrowed kernel on the pool and block until it completes —
    /// same signature as [`LaunchPlan::run`], warm `t_O` after the first
    /// launch.
    ///
    /// Because the kernel is only borrowed, this wait is *not* bounded for
    /// blocks stuck inside non-cooperative kernel code (the pool may not
    /// outlive the borrow); barrier waits are still bounded by the policy
    /// timeout. Use [`GridRuntime::submit`] for the abandon-and-replace
    /// watchdog.
    ///
    /// # Errors
    /// Same contract as [`LaunchPlan::run`].
    pub fn run<K: RoundKernel>(&self, kernel: &K) -> Result<KernelStats, ExecError> {
        // SAFETY: `launch` waits a borrowed kernel's launch out without
        // abandoning it: it does not return until every worker recorded its
        // result for the launch's last entry, and a worker is done with the
        // kernel once it has.
        self.launch(unsafe { KernelRef::borrowed(kernel) })
    }

    /// Enqueue one launch and wait for it; an owned kernel's stuck blocks
    /// may be abandoned (see [`LaunchHandle::wait`]), a borrowed one's
    /// never are.
    pub(crate) fn launch(&self, kernel: KernelRef) -> Result<KernelStats, ExecError> {
        let allow_abandon = kernel.is_owned();
        wait_launch(&self.shared, &self.enqueue(kernel), allow_abandon)
    }

    /// Stamp out the launch (running the kernel's `on_launch`), publish its
    /// first entry to the log, and wake or — for launch 0 — spawn the
    /// workers.
    fn enqueue(&self, kernel: KernelRef) -> Arc<Launch> {
        let setup = self.shared.plan.setup(kernel.get());
        let n = setup.n;
        let st = self.shared.state.lock();
        let seq = st.next_seq;
        let min = st.cursors.iter().copied().min().unwrap_or(seq);
        let submitted = Instant::now();
        let launch = Arc::new(Launch {
            seq,
            kernel,
            queue_depth: (seq - min) as usize,
            submitted,
            // Launch 0 spawns the workers that run it: its clock starts at
            // submit, so `queued` is zero and `launch` includes the spawns.
            activated: if seq == 0 {
                OnceLock::from(submitted)
            } else {
                OnceLock::new()
            },
            gate: AtomicUsize::new(0),
            entered: AtomicUsize::new(0),
            checked_in: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            arrived: if setup.per_round() {
                (0..n).map(|_| AtomicU64::new(0)).collect()
            } else {
                Vec::new()
            },
            done: Mutex::new(LaunchDone {
                results: vec![Ok(BlockTimes::default()); n],
                reported: vec![false; n],
                finished: 0,
                settled: false,
                base: 0,
                entry_seq: seq,
                join_since: None,
                join_timeout: None,
                first_failure: None,
                waiter_parked: false,
            }),
            done_cv: Condvar::new(),
            settled: AtomicBool::new(false),
            abandoned: AtomicBool::new(false),
            setup,
        });
        self.shared.push(st, Arc::clone(&launch), 0);
        if seq == 0 {
            for b in 0..n {
                spawn_worker(Arc::clone(&self.shared), b, 0, 0);
            }
        }
        launch
    }
}

impl Drop for GridRuntime {
    /// Signal shutdown; workers exit at their next dispatch point, and a
    /// worker still polling the log leaves at once: the mirror moves past
    /// every cursor, so its poll succeeds and it finds `shutdown` under the
    /// lock. Entries no worker picked up by then never run. Workers stuck
    /// in non-cooperative kernel code are leaked rather than joined (they
    /// hold only `Arc`s, so this is safe) — the same trade the abandon
    /// path makes.
    fn drop(&mut self) {
        self.shared.state.lock().shutdown = true;
        self.shared.next_seq.store(u64::MAX, Ordering::Release);
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

    /// Every method pools, `Auto` included: it resolves at construction,
    /// as a cold plan's does.
    #[test]
    fn every_method_pools() {
        let all = SyncMethod::PAPER_METHODS
            .into_iter()
            .chain(SyncMethod::EXTENSION_METHODS)
            .chain([SyncMethod::NoSync, SyncMethod::Auto]);
        for m in all {
            let rt = GridRuntime::new(GridConfig::new(3, 8), m).unwrap();
            assert_ne!(rt.method(), SyncMethod::Auto);
            let kernel = CountKernel {
                slots: GlobalBuffer::new(3),
                rounds: 4,
            };
            let stats = rt.run(&kernel).unwrap();
            assert!(kernel.slots.to_vec().iter().all(|&v| v == 4), "{m}");
            assert_eq!(stats.auto.is_some(), m == SyncMethod::Auto, "{m}");
        }
    }

    #[test]
    fn dropped_cpu_explicit_handle_still_runs_every_round() {
        let rt = pool(2, SyncMethod::CpuExplicit);
        let k = Arc::new(CountKernel {
            slots: GlobalBuffer::new(2),
            rounds: 6,
        });
        drop(rt.submit(Arc::clone(&k)).unwrap());
        // The chain's latest entry stays in the log until it settles.
        while rt.queue_depth() > 0 {
            std::thread::yield_now();
        }
        assert_eq!(k.slots.to_vec(), vec![6, 6]);
        assert_eq!(rt.launches(), 6);
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

    /// Back-to-back submits pipeline through the launch log and each
    /// resolves in order — under `CpuImplicit` the log *is* the paper's
    /// implicit sync, and `CpuExplicit`'s later rounds interleave with the
    /// other launches' entries.
    #[test]
    fn pipelined_submits_all_complete_in_order() {
        for method in [
            SyncMethod::GpuSimple,
            SyncMethod::CpuImplicit,
            SyncMethod::CpuExplicit,
        ] {
            let rt = pool(3, method);
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
            let explicit = method == SyncMethod::CpuExplicit;
            for (i, h) in handles.into_iter().enumerate() {
                let seq = h.seq();
                assert!(explicit || seq == i as u64, "{method}");
                let stats = h.wait().unwrap();
                assert_eq!(stats.method, method.to_string());
                let p = stats.pool.as_ref().unwrap();
                assert_eq!((p.launch_seq, p.cold), (seq, i == 0), "{method}");
                assert!(kernels[i].slots.to_vec().iter().all(|&v| v == 20));
            }
            assert_eq!(rt.launches(), if explicit { 80 } else { 4 });
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
