//! Persistent grid runtime: the process's one device of pooled workers,
//! with pipelined launches — the one strategy that spawns block threads.
//!
//! A *device* is W = `max(2, cores)` workers and the one launch log they
//! consume; a process has one (`Device::for_host`), as a CUDA process has
//! one context on its GPU. Its first launch spawns the workers, and it is
//! never shut down: idle workers park, and the process exits when `main`
//! returns. A [`GridRuntime`] is a grid on it — a [`LaunchPlan`] (with its
//! observer and, under a [`crate::GridService`], its shard label) and a
//! window of the device's workers — and every [`LaunchPlan::run`] is a
//! fresh grid on it, as a GPU runs many grids on one set of SMs.
//!
//! A grid of `n` blocks runs on W′ = `min(n, W)` workers (`cores` is read
//! from [`std::thread::available_parallelism`] once). At `n ≤ W′` each
//! worker is one block. Past that the grid *folds*: worker `w` hosts blocks `w, w + W′, …`, runs their round bodies in turn
//! and makes one wait per round on a barrier among the W′ workers — the
//! paper's loop inside a block when there is more work than SMs (§5),
//! instead of `n` threads of which most must sleep and be woken twice a
//! round. W is at least two so that a worker whose block straggles has a
//! peer to time out on it. Parking stays, as the escalation for a core
//! another process took. Blocks keep everything that is theirs — their
//! `BlockCtx`, `catch_unwind`, [`BlockTimes`], trace events, fault sites
//! and the blocks a diagnostic names — and the launch's own bookkeeping
//! (the assembly gate, who reported) is per worker, as the device's
//! (generations, cursors) is.
//!
//! Only the process's first launch pays the spawns, inside its `t_O` of
//! Eq. 1 (its clock starts at submit; DESIGN.md §10). Every other launch,
//! whichever grid it belongs to, is a *warm* dispatch through the launch
//! log — the pipelined-relaunch shape of the paper's CPU implicit sync
//! (Section 4.2) applied to whole kernels instead of rounds, exactly the
//! cost the paper's persistent-kernel design (Section 4.3) amortizes away.
//!
//! The runtime is a *strategy* over the shared launch engine: a grid holds
//! one [`LaunchPlan`], stamps a fresh `crate::launch::LaunchSetup` per
//! submission, each worker runs one of the engine's round loops
//! (`drive_block`, or `drive_fold` for a worker of several blocks), and
//! the setup's `finish` builds the launch's stats and its
//! [`crate::LaunchRecord`] — the runtime adds only the warm-launch
//! accounting (the [`PoolLaunchStats`], worker replacements, the shard
//! label).
//!
//! ## Launch log
//!
//! Submissions append to the device's monotonically numbered launch log;
//! each worker consumes the log in order with a private cursor, so
//! back-to-back [`GridRuntime::submit`] calls pipeline: a worker can start
//! launch `k+1` the moment it finished its part of launch `k`, without a
//! global drain barrier in between. [`LaunchHandle::wait`] resolves one
//! launch to its [`crate::KernelStats`]. This in-order pipelined
//! consumption is exactly the paper's implicit-sync launch queue.
//!
//! ## Placement
//!
//! A grid's W′ workers are a *window* of the device's W: contiguous
//! modulo W, starting where the previous grid's window ended (next-fit,
//! one offset word under the device's state lock), placed when the grid is
//! built. Every launch of the grid runs on it, so one grid's launches run
//! in log order, as the kernels of one stream do. A worker outside a
//! launch's window only moves its cursor past the entry, so narrow grids
//! with disjoint windows run side by side, as concurrent grids do on
//! disjoint SMs, and full-width launches queue in log order. Everything a
//! launch keeps per worker is indexed by its *local* worker 0..W′; the
//! offset is applied only where the device's workers are read or
//! replaced. A grid of W′ = W leaves the offset where it was.
//!
//! A launch is one log entry, except under the two CPU methods: one per
//! round, sharing the launch's `LaunchSetup`. Under `CpuExplicit`
//! whichever worker records the last result of round `r`'s entry appends
//! round `r + 1`'s, so explicit never pipelines its own rounds. Under
//! `CpuImplicit` all R entries are published at submit, R consecutive
//! sequence numbers held by one log element, and the assembly gate of
//! entry `r + 1` is the kernel boundary: no worker passes it before every
//! worker finished entry `r`, the order the paper's driver queue gives.
//! Under both the waiting host bounds each round's join by the policy
//! timeout (DESIGN.md §10).
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
//! [`crate::StuckDiagnostic`] naming the block the worker is stuck in, and
//! **replaces** the stuck worker with a fresh one so the device stays
//! usable — the stale thread parks itself permanently on the leaked kernel
//! `Arc` and exits if it ever returns. The host that abandons is the one
//! waiting on the launch, or on any later launch of the device: a stuck
//! launch ahead in the log holds the workers every later launch needs,
//! whichever grid it belongs to, so a dropped handle cannot wedge the
//! device's other tenants (head-of-line abandonment). Borrowed launches ([`GridRuntime::run`],
//! [`LaunchPlan::run`]) must instead wait for full completion before
//! returning — the kernel is only guaranteed alive for the duration of the
//! call — so they bound barrier waits (via [`crate::SyncPolicy`]) but not
//! kernel code itself. A borrowed kernel stuck in non-cooperative code
//! therefore holds every later launch in the process that needs its
//! worker; the owned paths are the bounded ones.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::barrier::{now, PoisonCause};
use crate::error::{ExecError, StuckDiagnostic, StuckPhase};
use crate::executor::{GridConfig, RoundKernel};
use crate::fault::{effective_backstop, FaultKind, FaultPhase};
use crate::launch::{
    collect_block_results, drive_block, drive_fold, gate_backoff, yield_until, KernelRef,
    LaunchPlan, LaunchSetup,
};
use crate::method::SyncMethod;
use crate::obs::Observer;
use crate::stats::{BlockTimes, KernelStats};
use crate::trace::TraceEventKind;

/// Pool-side launch accounting attached to [`KernelStats::pool`]. The warm
/// `t_O` itself is [`KernelStats::launch`] (dispatch → all workers
/// assembled); this struct carries the queueing context around it, for
/// the launch's first log entry (one per round under the CPU methods).
/// The log and its sequence numbers are the process device's, shared by
/// every grid in the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolLaunchStats {
    /// Zero-based sequence number of this launch's first entry in the
    /// device's log, whichever grid appended the entries before it.
    /// Sequence 0 is the process's cold launch: it spawns the workers, and
    /// its `launch` and `wall` include the spawns.
    pub launch_seq: u64,
    /// Log entries ahead of this one at submit time whose launches had not
    /// settled (pipelining depth), whichever grid they belong to. A
    /// CPU-method launch ahead counts the rounds it has in the log.
    pub queue_depth: usize,
    /// Submit → first worker picked the launch up. Nonzero queueing delay
    /// means the device was still busy with earlier launches; zero for the
    /// cold launch, whose clock starts at submit.
    pub queued: Duration,
    /// Whether this was the process's cold (first) launch. Every other
    /// launch is warm, a grid's first included.
    pub cold: bool,
}

/// Completion state of one launch.
struct LaunchDone {
    /// Per block, its times summed over the entries it finished, or its
    /// error. Taken by `wait_launch` once settled.
    results: Vec<Result<BlockTimes, ExecError>>,
    /// Per worker, whether it reported for the current entry (the worker
    /// itself, for every block it hosts, or host-side abandonment,
    /// whichever came first), and how many workers did.
    reported: Vec<bool>,
    finished: usize,
    /// The launch's last entry is over: `results` is final.
    settled: bool,
    /// The current entry's first round and log sequence number.
    base: usize,
    entry_seq: u64,
    /// CPU methods: when the waiting host saw every worker enter the
    /// current round (its join deadline starts there, as the gate's
    /// does), and the join's timeout once it expired.
    join_since: Option<Instant>,
    join_timeout: Option<ExecError>,
    /// When the first failure was observed, starting the abandonment
    /// grace clock.
    first_failure: Option<Instant>,
    /// Device workers replaced when the launch was abandoned.
    replaced: usize,
    /// Whether the launch's waiter is asleep on `done_cv` (written only
    /// under this lock): settling notifies only then.
    waiter_parked: bool,
}

/// A word of one worker's or one block's, 128 bytes from its neighbours'
/// as `CachePadded` keeps them, in an ordinary allocation: a `Vec` of
/// `CachePadded`'s 128-byte-aligned words is an aligned allocation, which
/// cost about 150 ns more per launch.
#[derive(Default)]
#[repr(C)]
struct Spaced<A> {
    word: A,
    _pad: [u64; 15],
}

/// One launch: the engine's per-launch state ([`LaunchSetup`]: fresh
/// barrier, recorder, abort) plus the runtime's queueing and completion
/// bookkeeping, shared by the launch's log entries.
struct Launch {
    /// Log sequence number of the launch's first entry.
    seq: u64,
    /// The grid that submitted it: its device, its window, and where its
    /// record goes.
    grid: Arc<Grid>,
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
    /// its peers (see [`StuckPhase::Assembly`]). It counts workers over all
    /// the launch's entries: the one at round `base` opens at
    /// `workers * (base + 1)`.
    gate: AtomicUsize,
    /// How many workers have *entered* the launch's entries (picked one
    /// up off the log), counted like `gate`. The gate deadline only runs
    /// once every worker entered the current entry: a worker still busy
    /// on an earlier pipelined launch is late, not stuck, and abandoning
    /// *that* launch is what unblocks it.
    entered: AtomicUsize,
    /// Per worker, how many entries it has checked in at the gate for —
    /// the assembly-phase progress table, feeding assembly diagnostics the
    /// way the barrier's arrival counts feed round diagnostics. Padded:
    /// under the CPU methods every worker writes its own every round.
    checked_in: Vec<Spaced<AtomicUsize>>,
    /// CPU methods: when each block's latest round body ended, in ns since
    /// `submitted` — where its join to the next round starts. Padded like
    /// `checked_in`, since the blocks' workers write them every round.
    arrived: Vec<Spaced<AtomicU64>>,
    done: Mutex<LaunchDone>,
    done_cv: Condvar,
    /// Mirror of `LaunchDone::settled`, stored (`Release`) under the
    /// `done` lock so the waiter's yield phase, `is_done` and `queue_depth`
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

    /// The local worker that device worker `d` is to this launch, if `d`
    /// is in its grid's window.
    fn local(&self, d: usize) -> Option<usize> {
        let width = self.grid.device.workers;
        let w = (d + width - self.grid.offset) % width;
        (w < self.setup.workers).then_some(w)
    }

    /// Whether `worker` checked in at the gate of the entry at `base`.
    fn assembled(&self, worker: usize, base: usize) -> bool {
        self.checked_in[worker].word.load(Ordering::Acquire) > base
    }

    /// The block `worker` is held at on a launch boundary: the first it
    /// hosts with a fault at (`round`, `phase`) that holds a worker (a
    /// straggler or a stall), since it fires them in turn — else the first
    /// it hosts.
    fn held(&self, worker: usize, round: usize, phase: FaultPhase) -> usize {
        let setup = &self.setup;
        let holds = |block: &usize| {
            setup
                .faults
                .as_deref()
                .and_then(|s| s.fault_at(*block, round, phase))
                .is_some_and(|f| matches!(f.kind, FaultKind::Straggler | FaultKind::Stall(_)))
        };
        setup.hosted(worker).find(holds).unwrap_or(worker)
    }

    /// The block `worker` is held at before the gate of the launch's first
    /// entry, by an assembly fault.
    fn assembling(&self, worker: usize) -> usize {
        self.held(worker, 0, FaultPhase::Assembly)
    }

    /// The `barrier` of a diagnostic the pool synthesizes.
    fn label(&self) -> String {
        match self.setup.barrier.as_deref() {
            Some(sh) => format!("pooled:{}", sh.name()),
            None => format!("pooled:{}", self.setup.method),
        }
    }

    /// Diagnostic for a block stuck on a launch boundary in round `round`
    /// — at (or never reaching) an entry's assembly gate, or under
    /// CPU-implicit on its way into the kernel boundary after the round —
    /// reported in [`StuckPhase::Assembly`] so it cannot masquerade as a
    /// body fault. Its progress table is `round` for the block each worker
    /// not `through` is `held` at, and one past it for every other block —
    /// through, or queued behind its worker's held block, which it waits
    /// on as an arrived block waits on a barrier — so `stragglers()` names
    /// the held blocks.
    fn assembly_diagnostic(
        &self,
        flag: String,
        round: usize,
        waiting_block: usize,
        timeout: Duration,
        held: impl Fn(usize) -> usize,
        through: impl Fn(usize) -> bool,
    ) -> Box<StuckDiagnostic> {
        let setup = &self.setup;
        let r = round as u64;
        let stuck: Vec<usize> = (0..setup.workers)
            .filter(|&w| !through(w))
            .map(held)
            .collect();
        Box::new(StuckDiagnostic {
            barrier: self.label(),
            waiting_block,
            round,
            flag,
            timeout,
            departures: vec![r; setup.n],
            arrivals: (0..setup.n)
                .map(|b| r + u64::from(!stuck.contains(&b)))
                .collect(),
            recent_events: Vec::new(),
            phase: StuckPhase::Assembly,
        })
    }

    /// [`Launch::assembly_diagnostic`] for the gate of entry `seq` at
    /// round `base`: through are the workers that checked in.
    fn gate_diagnostic(
        &self,
        seq: u64,
        base: usize,
        waiting_block: usize,
        timeout: Duration,
    ) -> Box<StuckDiagnostic> {
        let flag = format!("before round {base}, on launch {seq}'s assembly gate");
        let held = |w| self.assembling(w);
        self.assembly_diagnostic(flag, base, waiting_block, timeout, held, |w| {
            self.assembled(w, base)
        })
    }

    /// [`Launch::assembly_diagnostic`] for the kernel boundary after round
    /// `r`, entry `seq`: through are the workers that reported the entry.
    fn boundary_diagnostic(
        &self,
        seq: u64,
        r: usize,
        waiting_block: usize,
        timeout: Duration,
        reported: &[bool],
    ) -> Box<StuckDiagnostic> {
        let flag = format!("after round {r}, on launch {seq}'s kernel boundary");
        let held = |w| self.held(w, r, FaultPhase::BarrierWait);
        self.assembly_diagnostic(flag, r, waiting_block, timeout, held, |w| reported[w])
    }

    /// Why `worker`, which has not reported the current entry, is held on
    /// a launch boundary, if it is: it never checked in at the entry's
    /// gate, or — under a CPU method — every block it hosts finished the
    /// entry's round, so it is on its way into the kernel boundary (where
    /// CPU-implicit fires its wait-phase faults). `None` while one of its
    /// blocks is still in a round body or a barrier wait.
    fn held_diagnostic(
        &self,
        g: &LaunchDone,
        worker: usize,
        timeout: Duration,
    ) -> Option<Box<StuckDiagnostic>> {
        let (seq, r) = (g.entry_seq, g.base);
        if !self.assembled(worker, r) {
            let block = self.assembling(worker);
            return Some(self.gate_diagnostic(seq, r, block, timeout));
        }
        let fold = self
            .setup
            .fold
            .as_ref()
            .filter(|_| self.setup.per_round())?;
        if fold.rounds_done(worker) <= r as u64 {
            return None;
        }
        let block = self.held(worker, r, FaultPhase::BarrierWait);
        Some(self.boundary_diagnostic(seq, r, block, timeout, &g.reported))
    }

    /// CPU methods: `block`'s body of `round` ended at `at`.
    fn arrive(&self, block: usize, round: usize, at: Instant) {
        let ns = at.saturating_duration_since(self.submitted).as_nanos();
        // Relaxed: read back by this worker at the next round, and by the
        // host only after the `done` lock that `record_result` releases.
        self.arrived[block].word.store(ns as u64, Ordering::Relaxed);
        if let Some(rec) = self.setup.recorder.as_deref() {
            rec.record_instant(block, round, TraceEventKind::BarrierArrive, at);
        }
    }

    /// CPU methods: `block`'s join after `round` ended at `until` — the
    /// relaunch and the wait for the slowest block, or for CPU-implicit the
    /// pipelined entry's gate. Returns the join's span, the round's
    /// `sync`, traced like a wait.
    fn depart(&self, block: usize, round: usize, until: Instant) -> Duration {
        let arrived =
            self.submitted + Duration::from_nanos(self.arrived[block].word.load(Ordering::Relaxed));
        let span = until.saturating_duration_since(arrived);
        if let Some(rec) = self.setup.recorder.as_deref() {
            rec.record_instant(block, round, TraceEventKind::BarrierDepart, until);
            if rec.sampled(round) {
                rec.record_sync(block, span.as_nanos() as u64);
            }
        }
        span
    }

    /// Store `worker`'s report for the current entry — per block it hosts,
    /// in turn order, its times, or one error for all of them — unless it
    /// already has one (host-side abandonment racing a late worker) or the
    /// launch settled (a replaced worker waking from a stall may report
    /// long after; its report is dropped). The last report ends the entry.
    fn record_result(self: &Arc<Self>, worker: usize, res: Result<&[BlockTimes], ExecError>) {
        let mut g = self.done.lock();
        if g.settled || g.reported[worker] {
            return;
        }
        g.reported[worker] = true;
        g.finished += 1;
        match res {
            Ok(times) => {
                for (block, t) in self.setup.hosted(worker).zip(times) {
                    if let Ok(sum) = &mut g.results[block] {
                        sum.launch += t.launch;
                        sum.compute += t.compute;
                        sum.sync += t.sync;
                    }
                }
            }
            Err(e) => {
                g.first_failure.get_or_insert_with(Instant::now);
                self.setup.abort.abort();
                for block in self.setup.hosted(worker) {
                    g.results[block] = Err(e.clone());
                }
            }
        }
        if g.finished < self.setup.workers || !self.end_entry(&mut g) {
            return;
        }
        self.wake_waiter(g);
    }

    /// Notify the launch's waiter, if it is asleep, that it settled.
    fn wake_waiter(&self, g: MutexGuard<'_, LaunchDone>) {
        let wake = g.waiter_parked;
        drop(g);
        if wake {
            self.done_cv.notify_all();
        }
    }

    /// Every worker reported for the current entry: move on to the next
    /// round's (CPU methods, while rounds remain and nothing failed) or
    /// settle the launch, returning whether it settled. `CpuImplicit`
    /// published its entries at submit; `CpuExplicit`'s is appended here.
    /// Lock order: `done`, then the device's state. The next round's entry
    /// runs on the grid's window, as every entry of the grid does.
    fn end_entry(self: &Arc<Self>, g: &mut LaunchDone) -> bool {
        let next = g.base + 1;
        if self.setup.per_round() && next < self.setup.rounds && g.first_failure.is_none() {
            g.base = next;
            g.reported.fill(false);
            g.finished = 0;
            g.join_since = None;
            if self.setup.pipelined() {
                g.entry_seq += 1;
            } else {
                let device = self.grid.device;
                let st = device.state.lock();
                g.entry_seq = st.next_seq;
                device.push(st, Arc::clone(self), next, 1);
            }
            return false;
        }
        g.settled = true;
        self.settled.store(true, Ordering::Release);
        true
    }

    /// CPU methods, by the waiting host: once every worker entered the
    /// current round, time its join; on expiry raise abort and record the
    /// timeout, naming the blocks that have not finished the round — or,
    /// if a worker is held on a launch boundary (it never checked in at
    /// the gate, or it is on its way into the kernel boundary), the
    /// assembly phase. Returns how long the host may sleep.
    fn watch_join(&self, g: &mut LaunchDone, timeout: Duration) -> Duration {
        let r = g.base;
        let workers = self.setup.workers;
        if g.join_timeout.is_some() || self.entered.load(Ordering::Acquire) < workers * (r + 1) {
            return timeout;
        }
        let since = *g.join_since.get_or_insert_with(Instant::now);
        let left = timeout.saturating_sub(since.elapsed());
        if !left.is_zero() {
            return left;
        }
        let held = (0..workers)
            .filter(|&w| !g.reported[w])
            .find_map(|w| self.held_diagnostic(g, w, timeout));
        let diagnostic = match held {
            Some(diagnostic) => diagnostic,
            None => {
                let (arrivals, departures) = self.progress(g);
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
                    recent_events: self
                        .setup
                        .recorder
                        .as_deref()
                        .map_or_else(Vec::new, |rec| rec.trail(straggler)),
                    phase: StuckPhase::Barrier,
                })
            }
        };
        g.join_timeout = Some(ExecError::BarrierTimeout { diagnostic });
        g.first_failure.get_or_insert_with(Instant::now);
        self.setup.abort.abort();
        timeout
    }

    /// The launch's progress table in blocks: its barrier's, or without
    /// one (a CPU method's join) a block has entered the current entry's
    /// round, and finished it once its body returned (`Fold` tracks it
    /// under both CPU methods) — without a fold (`NoSync`), once its
    /// worker reported.
    fn progress(&self, g: &LaunchDone) -> (Vec<u64>, Vec<u64>) {
        if let Some(sh) = self.setup.barrier.as_deref() {
            return self.setup.progress(sh);
        }
        let base = g.base as u64;
        let arrivals: Vec<u64> = match &self.setup.fold {
            // Every worker has entered the entry, so departed round r - 1.
            Some(fold) => fold.arrivals(|_| base),
            None => g
                .reported
                .iter()
                .map(|&done| base + u64::from(done))
                .collect(),
        };
        let departures = arrivals.iter().map(|a| a.saturating_sub(1)).collect();
        (arrivals, departures)
    }
}

/// A grid on a device: what every launch of one [`GridRuntime`] is
/// stamped from, where it runs and what it is reported to.
struct Grid {
    /// The process device ([`Device::for_host`]); a private one only in
    /// core's unit tests.
    device: &'static Device,
    /// The device worker the grid's window starts at, placed when the grid
    /// was built (see the module docs' placement); `fold_width(n)` wide.
    offset: usize,
    /// The pipeline every launch is stamped from. Its observer is the
    /// grid's cross-launch observability plane, fed once per completed
    /// launch by the *host* thread resolving it (never by workers — spin
    /// loops stay free of registry traffic).
    plan: LaunchPlan,
    /// Shard label stamped into every [`crate::LaunchRecord`] the grid
    /// emits. `None` for standalone runtimes (their gauge samples land
    /// under the registry's `"default"` shard slot); a
    /// [`crate::GridService`] shard's key, so per-shard registry families
    /// never alias across shards.
    shard: Option<String>,
    /// Log entries the grid appended: one per launch, one per round under
    /// the CPU methods.
    entries: AtomicU64,
}

/// A device: the worker set every launch of its grids runs on, and the
/// one launch log they consume. It lives as long as the process, and so
/// do its workers: nothing shuts it down.
pub(crate) struct Device {
    /// W: how many workers the device has.
    pub(crate) workers: usize,
    state: Mutex<DeviceState>,
    cv: Condvar,
    /// Mirror of `DeviceState::next_seq`, stored (`Release`) under the
    /// state lock: what an idle worker polls (`Acquire`) before it parks
    /// on `cv`.
    next_seq: AtomicU64,
}

/// Consecutive entries `first..first + len` of a device's launch log, all
/// of one launch. A run of one entry runs the launch from round `base`: a
/// whole launch, or one `CpuExplicit` round. A `CpuImplicit` launch is one
/// run of all its rounds, entry `first + i` running round `base + i`: one
/// element however many rounds, so a long implicit launch holds one `Arc`
/// in the log, not one per round.
struct Run {
    first: u64,
    len: u64,
    launch: Arc<Launch>,
    base: usize,
}

struct DeviceState {
    /// Launch log, in runs; a run is pruned once every worker's cursor has
    /// passed its last entry.
    queue: VecDeque<Run>,
    next_seq: u64,
    /// The device worker the next grid's window starts at (next-fit).
    offset: usize,
    /// Per-worker generation; bumping it retires the incumbent thread (it
    /// exits at its next dispatch point).
    gens: Vec<u64>,
    /// Per-worker launch cursor (next sequence the worker will execute).
    cursors: Vec<u64>,
    /// Workers asleep on `Device::cv` (written only under this lock, so a
    /// notifier holding it knows whether anyone needs a wake).
    parked: usize,
}

impl DeviceState {
    /// Published entry `seq`: its launch, the round it runs from, and the
    /// end of its run.
    fn entry(&self, seq: u64) -> (Arc<Launch>, usize, u64) {
        let i = self.queue.partition_point(|run| run.first + run.len <= seq);
        let run = &self.queue[i];
        let base = run.base + (seq - run.first) as usize;
        (Arc::clone(&run.launch), base, run.first + run.len)
    }

    /// Drop the runs every worker's cursor has passed.
    fn prune(&mut self) {
        let Some(min) = self.cursors.iter().copied().min() else {
            return;
        };
        while self
            .queue
            .front()
            .is_some_and(|run| run.first + run.len <= min)
        {
            self.queue.pop_front();
        }
    }
}

impl Device {
    /// A device of `workers` workers, spawned by its first launch.
    fn new(workers: usize) -> Device {
        Device {
            workers,
            state: Mutex::new(DeviceState {
                queue: VecDeque::new(),
                next_seq: 0,
                offset: 0,
                gens: vec![0; workers],
                cursors: vec![0; workers],
                parked: 0,
            }),
            cv: Condvar::new(),
            next_seq: AtomicU64::new(0),
        }
    }

    /// The process device, as wide as the host: `max(2, cores)` workers,
    /// so any grid runs on as many workers as it would on a device of its
    /// own. Every launch in the process runs on it; its first launch
    /// spawns the workers.
    pub(crate) fn for_host() -> &'static Device {
        static HOST: OnceLock<Device> = OnceLock::new();
        HOST.get_or_init(|| Device::new(fold_width(usize::MAX)))
    }

    /// A device as wide as the process's, of a unit test's own: no other
    /// test moves its device-wide numbers (sequence, queue depth, parked
    /// workers, generations, its threads' pause counts). Leaked, as the
    /// process device lives forever.
    #[cfg(test)]
    pub(crate) fn private() -> &'static Device {
        Box::leak(Box::new(Device::new(fold_width(usize::MAX))))
    }

    /// Append `len` entries running `launch` from round `base` to the log
    /// as one [`Run`], publish them, release the lock and wake the parked
    /// workers.
    fn push(
        &self,
        mut st: MutexGuard<'_, DeviceState>,
        launch: Arc<Launch>,
        base: usize,
        len: u64,
    ) {
        // Relaxed: a count, read by `launches()` and ordering nothing.
        launch.grid.entries.fetch_add(len, Ordering::Relaxed);
        let first = st.next_seq;
        st.queue.push_back(Run {
            first,
            len,
            launch,
            base,
        });
        st.next_seq += len;
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

    /// Workers asleep on the device's condvar.
    pub(crate) fn parked(&self) -> usize {
        self.state.lock().parked
    }

    /// Per device worker, its generation: it advances every time the
    /// worker is abandoned stuck and replaced.
    pub(crate) fn generations(&self) -> Vec<u64> {
        self.state.lock().gens.clone()
    }

    /// Retire the device workers that `launch`'s local workers `stuck`
    /// are, and spawn fresh ones that start after its abandoned entry
    /// `seq`, whose results were synthesized. A worker whose cursor is
    /// not in the run that holds `seq` — at `seq` itself, or for a
    /// CPU-implicit launch, whose run a worker goes through without moving
    /// its cursor, anywhere from the run's first entry to `seq` — is still
    /// busy on an earlier entry, not stuck in this one: it steps over the
    /// abandoned entry when it gets there, and a successor would run the
    /// entries in between a second time. Returns how many were replaced.
    /// Lock order: the launch's `done`, then the device's state.
    fn replace(&'static self, launch: &Launch, stuck: &[usize], seq: u64) -> usize {
        let mut st = self.state.lock();
        let first = if launch.setup.pipelined() {
            launch.seq
        } else {
            seq
        };
        let mut replaced = 0;
        for &w in stuck {
            let d = (launch.grid.offset + w) % self.workers;
            if !(first..=seq).contains(&st.cursors[d]) {
                continue;
            }
            st.gens[d] += 1;
            st.cursors[d] = seq + 1;
            spawn_worker(self, d, st.gens[d], seq + 1);
            replaced += 1;
        }
        drop(st);
        self.cv.notify_all();
        replaced
    }

    /// Head-of-line abandonment: abandon every owned launch that started
    /// ahead of entry `seq`, failed more than its grace ago and is still
    /// unsettled. Its stuck workers hold every later entry that needs
    /// them, whichever grid it belongs to, and a dropped handle leaves
    /// nobody else to give up on it. Takes the state lock, then each
    /// candidate's `done` lock, never both at once.
    fn abandon_stuck_before(&self, seq: u64) {
        let ahead: Vec<Arc<Launch>> = self
            .state
            .lock()
            .queue
            .iter()
            .map(|run| &run.launch)
            .filter(|l| l.seq < seq && l.kernel.is_owned() && !l.is_done())
            .cloned()
            .collect();
        for launch in ahead {
            let policy = launch.setup.policy;
            let Some(timeout) = policy.timeout else {
                continue;
            };
            let mut g = launch.done.lock();
            let overdue = g
                .first_failure
                .is_some_and(|first| first.elapsed() > policy.abandon_grace());
            if g.settled || !overdue {
                continue;
            }
            abandon(&launch, &mut g, timeout);
            launch.wake_waiter(g);
        }
    }
}

/// How many workers a launch of `n` blocks runs on: one per block up to the
/// host's parallelism, and never fewer than two, so that a worker stuck in
/// a straggling block always has a peer whose barrier wait times out on it
/// (a lone worker would wait on its own straggler forever). The one read
/// of the host's core count in the runtime, taken when the process builds
/// its first grid: it honours the CPU affinity the process runs under
/// (`taskset`), and later grids do not pay the 15–20 µs the read costs on
/// Linux (cgroup files).
pub(crate) fn fold_width(n: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    n.min(cores.max(2))
}

/// The only code that spawns a block thread.
fn spawn_worker(device: &'static Device, worker: usize, gen: u64, cursor: u64) {
    #[cfg(test)]
    crate::barrier::SPAWNS.with(|c| c.set(c.get() + 1));
    let builder = std::thread::Builder::new().name(format!("blocksync-pool-{worker}"));
    builder
        .spawn(move || worker_loop(device, worker, gen, cursor))
        .expect("spawning a pool worker thread failed");
}

/// Device worker `d`: take the log's entries in order, run each whose
/// window holds `d` as the launch's local worker, and step over the rest —
/// a whole run at a time where none of it is this worker's to run.
fn worker_loop(device: &Device, d: usize, gen: u64, mut cursor: u64) {
    let mut st = device.state.lock();
    loop {
        if st.gens[d] != gen {
            return;
        }
        if cursor >= st.next_seq {
            // Warm handoff: poll the published sequence number without the
            // lock; the generation is read only under it, so a replacement
            // is noticed one yield bound later at most.
            drop(st);
            yield_until(|| device.next_seq.load(Ordering::Acquire) > cursor);
            st = device.state.lock();
            if cursor >= st.next_seq && st.gens[d] == gen {
                st.parked += 1;
                device.cv.wait(&mut st);
                st.parked -= 1;
            }
            continue;
        }
        let (launch, mut base, run_end) = st.entry(cursor);
        drop(st);
        // Run the rest of the entry's run — one entry, or the remaining
        // rounds of a CPU-implicit launch, back to back without the lock:
        // the next entry's gate orders them — and step over it where it is
        // not this worker's to run: outside the launch's window, or once
        // the launch is over. It is over when the host gave up on it (its
        // results were synthesized) or it settled, or — past the first
        // entry of this pass — a CPU-implicit launch failed before its
        // last round. A failed launch never moves past the entry it waits
        // on, and a worker leaves it only once it has reported that entry
        // (`run_launch` reports every entry it is handed, a failed one at
        // its gate): a worker that reaches the run late, after a peer's
        // assembly fault, still owes the first entry, and every later
        // entry's gate needs this worker's check-in to open. Acquire pairs
        // with the Release in `abandon`; a worker that misses the flag
        // fails fast on the poisoned barrier and its late report is
        // dropped.
        let settled = || launch.abandoned.load(Ordering::Acquire) || launch.is_done();
        let failed = || launch.setup.pipelined() && launch.setup.abort.is_aborted();
        if let Some(w) = launch.local(d) {
            for seq in cursor..run_end {
                if settled() || (seq > cursor && failed()) {
                    break;
                }
                run_launch(&launch, seq, base, w);
                base += 1;
            }
        }
        st = device.state.lock();
        if st.gens[d] != gen {
            return; // replaced while running: the successor owns the cursor
        }
        cursor = run_end;
        st.cursors[d] = cursor;
        st.prune();
    }
}

/// Where on a launch boundary a fault fires, on its block's worker.
#[derive(Clone, Copy)]
enum Boundary {
    /// Before the worker checks in at the gate of the launch's first
    /// entry, `seq`: an assembly-phase fault.
    Gate { seq: u64 },
    /// Under CPU-implicit, after the bodies of round `round` (entry `seq`)
    /// and before the worker reports the entry, on the way into the kernel
    /// boundary — the next entry's gate, or in the last round the host's
    /// join: a wait-phase fault.
    After { seq: u64, round: usize },
}

/// Fire `block`'s scheduled fault of `kind` at `at`, on its worker, so
/// peers observe the worker as never through the boundary. An error is the
/// launch's origin error, and ends the worker's part of the entry.
fn boundary_fault(
    launch: &Launch,
    at: Boundary,
    block: usize,
    kind: FaultKind,
) -> Result<(), ExecError> {
    let setup = &launch.setup;
    let round = match at {
        Boundary::Gate { .. } => 0,
        Boundary::After { round, .. } => round,
    };
    match kind {
        FaultKind::Panic => {
            // A worker thread must not unwind, so a boundary "panic" is
            // reported directly: poison + abort so peers drain, and the
            // origin error names the site.
            if let Some(sh) = setup.barrier.as_deref() {
                sh.poison(block, round, PoisonCause::Panic);
            }
            setup.abort.abort();
            let message = match at {
                Boundary::Gate { .. } => {
                    format!("injected fault: block {block} during pooled assembly")
                }
                Boundary::After { .. } => {
                    format!("injected fault: block {block} entering the kernel boundary")
                }
            };
            Err(ExecError::BlockPanicked {
                block,
                round,
                message,
            })
        }
        FaultKind::Delay(by) | FaultKind::Stall(by) => {
            std::thread::sleep(by);
            Ok(())
        }
        FaultKind::Straggler => {
            // Cooperative: hold off until a peer's gate deadline or the
            // host's join fails the launch (or the backstop trips), then
            // report this block's own Assembly-phase origin error.
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
                        sh.poison(block, round, PoisonCause::Timeout);
                    }
                    setup.abort.abort();
                    break;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            let timeout = setup.policy.timeout.unwrap_or_default();
            let diagnostic = match at {
                Boundary::Gate { seq } => launch.gate_diagnostic(seq, 0, block, timeout),
                Boundary::After { seq, round } => {
                    let reported = launch.done.lock().reported.clone();
                    launch.boundary_diagnostic(seq, round, block, timeout, &reported)
                }
            };
            Err(ExecError::BarrierTimeout { diagnostic })
        }
    }
}

/// Execute log entry `seq` — `launch` from round `base` — as `worker`:
/// stamp the activation, fire the scheduled assembly-phase faults of the
/// blocks it hosts (first entry only), assemble at the gate, then hand
/// off to the engine's round loop — [`drive_fold`] for a worker of a
/// folded launch with a barrier, else [`drive_block`] per hosted block.
/// The pooled strategy contributes only the `t_O` accounting, the
/// assembly phase and the CPU methods' kernel boundary here. Every path
/// reports the entry.
fn run_launch(launch: &Arc<Launch>, seq: u64, base: usize, worker: usize) {
    // Alive for this whole function: an owned kernel by the launch log's
    // `Arc`, a borrowed one because the borrowing call (`GridRuntime::run`,
    // `LaunchPlan::run`) is still blocked on this worker's `record_result`
    // below (see `KernelRef::borrowed`).
    let kernel = launch.kernel.get();
    let setup = &launch.setup;
    let workers = setup.workers;
    let dispatched = (base == 0).then(|| *launch.activated.get_or_init(now));
    launch.entered.fetch_add(1, Ordering::AcqRel);
    if let Some(faults) = setup.faults.as_deref().filter(|_| base == 0) {
        for block in setup.hosted(worker) {
            if let Some(f) = faults.fault_at(block, 0, FaultPhase::Assembly) {
                if let Err(e) = boundary_fault(launch, Boundary::Gate { seq }, block, f.kind) {
                    launch.record_result(worker, Err(e));
                    return;
                }
            }
        }
    }
    // Assembly gate with an abort escape so peers of an already-failed
    // launch don't spin forever waiting for a worker that will never
    // come, and — with a policy timeout — a deadline that converts a
    // peer stuck *before* the gate into an assembly-phase failure. Under
    // the CPU methods the gate of entry r + 1 is the kernel boundary.
    let opens_at = workers * (base + 1);
    launch.checked_in[worker]
        .word
        .store(base + 1, Ordering::Release);
    launch.gate.fetch_add(1, Ordering::AcqRel);
    let mut stuck_since: Option<Instant> = None;
    let mut expired = None;
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
                let at = now();
                if at - *stuck_since.get_or_insert(at) >= timeout {
                    let Some(stuck) = (0..workers).find(|&w| !launch.assembled(w, base)) else {
                        continue; // everyone checked in; the gate is about to open
                    };
                    let block = launch.assembling(stuck);
                    // Poison + abort only: this observer (and every peer)
                    // falls through to its round loop and fails fast with
                    // a derived error, setting `first_failure` — without a
                    // barrier, it reports the gate's timeout instead; the
                    // stuck worker's report stays missing so the handle's
                    // abandonment synthesizes the Assembly-phase origin
                    // error and replaces it — one self-heal path for
                    // stuck assembly and stuck rounds alike.
                    if let Some(sh) = setup.barrier.as_deref() {
                        sh.poison(block, 0, PoisonCause::Timeout);
                    }
                    expired = Some((block, timeout));
                    setup.abort.abort();
                    break;
                }
            }
            _ => stuck_since = None,
        }
        gate_backoff(&mut polls);
    }
    if setup.per_round() && setup.abort.is_aborted() {
        // The launch failed: no round of it runs past a gate that did not
        // open. Whoever raised the abort reports the failure; the gate's
        // own deadline is this worker's to report.
        let res = match expired {
            Some((block, timeout)) => Err(ExecError::BarrierTimeout {
                diagnostic: launch.gate_diagnostic(seq, base, block, timeout),
            }),
            None => Ok(&[][..]),
        };
        launch.record_result(worker, res);
        return;
    }
    let start = now();
    let t = BlockTimes {
        // t_O: dispatch (first pickup; launch 0's submit) -> this worker
        // assembled, for the launch's first entry only.
        launch: dispatched.map_or(Duration::ZERO, |at| start.saturating_duration_since(at)),
        ..BlockTimes::default()
    };
    if let Some(rec) = setup.recorder.as_deref() {
        for block in setup.hosted(worker) {
            rec.record_instant(block, base, TraceEventKind::Launch, start);
        }
    }
    // One `BlockTimes` per hosted block, in turn order; no allocation for
    // a worker hosting one.
    let mut one = [t];
    let mut many;
    let times: &mut [BlockTimes] = match setup.hosted(worker).len() {
        1 => &mut one,
        k => {
            many = vec![t; k];
            &mut many
        }
    };
    let end = base + if setup.per_round() { 1 } else { setup.rounds };
    let rounds = base..end.min(setup.rounds);
    let res = match (setup.barrier.as_deref(), setup.fold.as_ref()) {
        (Some(sh), Some(fold)) => {
            drive_fold(setup, kernel, worker, (sh, fold), rounds, start, times).map(|_| ())
        }
        _ => run_in_turn(launch, kernel, worker, seq, rounds, start, times),
    };
    launch.record_result(worker, res.map(|()| &*times));
}

/// The entry's rounds of every block `worker` hosts, one block after the
/// other, through [`drive_block`]: the one block of an unfolded launch's
/// worker, or the blocks of a folded launch without a barrier, which
/// never meet within an entry (`NoSync`; a CPU method's entry is one
/// round). Under the CPU methods a block's round also closes its join
/// since the last round's body — the relaunch and the wait for the
/// slowest block — at the start of its body: `start`, the gate's opening,
/// for the first block, and where the block before it ended for the rest.
/// Under `CpuImplicit` the blocks' wait-phase faults then fire in turn, on
/// the way into the kernel boundary.
fn run_in_turn(
    launch: &Launch,
    kernel: &dyn RoundKernel,
    worker: usize,
    seq: u64,
    rounds: Range<usize>,
    start: Instant,
    times: &mut [BlockTimes],
) -> Result<(), ExecError> {
    let setup = &launch.setup;
    let (base, per_round) = (rounds.start, setup.per_round());
    let mut at = start;
    for (block, t) in setup.hosted(worker).zip(times) {
        if per_round && base > 0 {
            t.sync += launch.depart(block, base - 1, at);
        }
        at = drive_block(setup, kernel, block, rounds.clone(), at, t)?;
        if per_round && !rounds.is_empty() {
            launch.arrive(block, base, at);
            if let Some(fold) = &setup.fold {
                fold.advance(worker);
            }
        }
    }
    let wait_faults = setup.pipelined() && !rounds.is_empty();
    if let Some(faults) = setup.faults.as_deref().filter(|_| wait_faults) {
        let at = Boundary::After { seq, round: base };
        for block in setup.hosted(worker) {
            if let Some(f) = faults.fault_at(block, base, FaultPhase::BarrierWait) {
                boundary_fault(launch, at, block, f.kind)?;
            }
        }
    }
    Ok(())
}

/// A pending pooled launch; resolves to the launch's [`KernelStats`].
///
/// Workers consume their device's launch log in order, so a launch stuck
/// in non-cooperative kernel code holds every later one that needs its
/// workers. With a [`crate::SyncPolicy`] timeout, waiting on its handle
/// abandons it once its grace has passed — and so does waiting on any
/// later launch of the device, whichever grid it belongs to, so a dropped
/// handle cannot wedge the device. A dropped handle's launch still runs to
/// completion.
#[must_use = "a LaunchHandle does nothing until waited"]
pub struct LaunchHandle {
    launch: Arc<Launch>,
}

impl LaunchHandle {
    /// The device sequence number of this launch's first log entry.
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
    /// [`StuckDiagnostic`], and the stuck worker is replaced so the device
    /// stays usable. The wait does the same for a stuck launch ahead of
    /// this one on the device.
    ///
    /// # Errors
    /// The merged per-block error of the launch, origin first — the same
    /// contract as [`LaunchPlan::run`].
    pub fn wait(self) -> Result<KernelStats, ExecError> {
        wait_launch(&self.launch, true)
    }
}

fn wait_launch(launch: &Arc<Launch>, allow_abandon: bool) -> Result<KernelStats, ExecError> {
    let setup = &launch.setup;
    // Warm handoff, caller side: poll the completion mirror, then park on
    // `done_cv` for whatever the bound did not cover.
    yield_until(|| launch.is_done());
    let mut g = launch.done.lock();
    while !g.settled {
        g.waiter_parked = true;
        // The host watches a clock only with a timeout: for a CPU method's
        // join, and to abandon a stuck owned launch, this one or one ahead.
        let Some(timeout) = setup.policy.timeout else {
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
                abandon(launch, &mut g, timeout);
                break;
            }
        }
        // Not yet ours to give up on: a stuck launch ahead of this entry
        // may hold the workers it needs.
        let entry_seq = g.entry_seq;
        drop(g);
        launch.grid.device.abandon_stuck_before(entry_seq);
        g = launch.done.lock();
    }
    let observed = now();
    let mut merged = collect_block_results(std::mem::take(&mut g.results));
    if let Some(e) = g.join_timeout.take() {
        // A block's own panic is the root cause; any other error came from
        // a straggler the host had already given up on.
        if !matches!(merged, Err(ExecError::BlockPanicked { .. })) {
            merged = Err(e);
        }
    }
    let replaced = g.replaced;
    drop(g);
    if let Ok(per_block) = &mut merged {
        if setup.per_round() && setup.rounds > 0 {
            // The last round's join ends when the host observes it.
            for (b, t) in per_block.iter_mut().enumerate() {
                t.sync += launch.depart(b, setup.rounds - 1, observed);
            }
        }
    }
    let wall = now().saturating_duration_since(launch.submitted);
    let activated = *launch.activated.get().unwrap_or(&launch.submitted);
    let pool = PoolLaunchStats {
        launch_seq: launch.seq,
        queue_depth: launch.queue_depth,
        queued: activated.saturating_duration_since(launch.submitted),
        cold: launch.seq == 0,
    };
    let (result, mut record) = setup.finish(merged, wall, pool);
    let obs = &launch.grid.plan.obs;
    if obs.is_enabled() {
        record.replacements = replaced;
        record.shard.clone_from(&launch.grid.shard);
        obs.observe(record);
    }
    result
}

/// Give up on the workers that never reported for the current entry:
/// synthesize a timeout diagnostic naming the block each is stuck in, and
/// give it to every block the worker hosts; poison the launch so
/// stragglers that eventually wake fail fast, settle the launch, and
/// replace the workers stuck in it. A worker held on a launch boundary
/// (before the gate, or on its way into a CPU method's kernel boundary)
/// is reported in the assembly phase.
fn abandon(launch: &Arc<Launch>, g: &mut LaunchDone, timeout: Duration) {
    let setup = &launch.setup;
    launch.abandoned.store(true, Ordering::Release);
    setup.abort.abort();
    let (arrivals, departures) = launch.progress(g);
    let mut stuck = Vec::new();
    for w in 0..setup.workers {
        if g.reported[w] {
            continue;
        }
        // A worker held on a launch boundary — it never even checked in
        // at the assembly gate, or it is on its way into the kernel
        // boundary — is reported in the assembly phase, so the diagnostic
        // does not masquerade as a body fault.
        let diagnostic = if let Some(mut d) = launch.held_diagnostic(g, w, timeout) {
            if let Some(sh) = setup.barrier.as_deref() {
                sh.poison(d.waiting_block, d.round, PoisonCause::Timeout);
            }
            d.flag = format!("{}: abandoned; worker replaced", d.flag);
            d
        } else {
            let b = setup.fold.as_ref().map_or(w, |fold| fold.current(w));
            let round = arrivals[b] as usize;
            if let Some(sh) = setup.barrier.as_deref() {
                sh.poison(b, round, PoisonCause::Timeout);
            }
            Box::new(StuckDiagnostic {
                barrier: launch.label(),
                waiting_block: b,
                round,
                flag: format!("launch {} abandoned; worker replaced", g.entry_seq),
                timeout,
                arrivals: arrivals.clone(),
                departures: departures.clone(),
                recent_events: setup
                    .recorder
                    .as_deref()
                    .map(|rec| rec.trail(b))
                    .unwrap_or_default(),
                phase: StuckPhase::Barrier,
            })
        };
        let err = ExecError::BarrierTimeout { diagnostic };
        for block in setup.hosted(w) {
            g.results[block] = Err(err.clone());
        }
        g.reported[w] = true;
        stuck.push(w);
    }
    g.finished = setup.workers;
    launch.end_entry(g);
    g.replaced = launch.grid.device.replace(launch, &stuck, g.entry_seq);
}

/// A grid on the process device with its pipelined launch log — the
/// host-runtime realization of the paper's "launch the kernel only once"
/// persistence, extended across kernels. See the module docs for the
/// device, placement and fault-recovery design.
pub struct GridRuntime {
    grid: Arc<Grid>,
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

    /// Build the runtime: a grid on the process device, with its window of
    /// the device's workers — one per block up to the host's cores (at
    /// least two), past that the grid folds onto them (see the module
    /// docs). Building it spawns no thread: the process's first launch,
    /// whichever grid makes it, spawns the device's workers, and only that
    /// launch's stats include the cost. [`SyncMethod::Auto`] resolves
    /// here, as in [`LaunchPlan::compile`].
    ///
    /// # Errors
    /// [`ExecError::Device`] for an invalid grid shape.
    pub fn new(cfg: GridConfig, method: SyncMethod) -> Result<GridRuntime, ExecError> {
        Self::new_with_observer(cfg, method, Observer::new())
    }

    /// [`GridRuntime::new`] sharing an existing [`Observer`] — used by
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
        Ok(Self::on_device(plan, Device::for_host(), None))
    }

    /// A runtime for `plan` on `device`, its window placed next-fit,
    /// labelling every [`crate::LaunchRecord`] it emits with `shard` — so
    /// a [`crate::GridService`] sharing one registry gets per-shard
    /// `queue_depth` gauges and `shard_launches_total` counters instead of
    /// aliased globals. `device` is the process device except in core's
    /// unit tests.
    pub(crate) fn on_device(
        plan: LaunchPlan,
        device: &'static Device,
        shard: Option<String>,
    ) -> GridRuntime {
        // Next-fit: the window starts where the previous grid's ended.
        let mut st = device.state.lock();
        let offset = st.offset;
        st.offset = (offset + fold_width(plan.config().n_blocks)) % device.workers;
        drop(st);
        GridRuntime {
            grid: Arc::new(Grid {
                device,
                offset,
                plan,
                shard,
                entries: AtomicU64::new(0),
            }),
        }
    }

    /// The runtime's observability handle: cross-launch metrics registry
    /// plus flight recorder, fed on every launch completion.
    pub fn observer(&self) -> Arc<Observer> {
        self.grid.plan.observer()
    }

    /// The runtime's grid configuration.
    pub fn config(&self) -> &GridConfig {
        self.grid.plan.config()
    }

    /// The runtime's synchronization method (never `Auto`: the resolved
    /// one).
    pub fn method(&self) -> SyncMethod {
        self.grid.plan.method()
    }

    /// This runtime's launches still pending (submitted but not yet
    /// completed by every block) — launches, not log entries, whatever the
    /// method: a CPU-method launch of R rounds counts once. Counted from
    /// completion state, not worker cursors — a worker advances its cursor
    /// slightly after the host can observe the launch's results.
    pub fn queue_depth(&self) -> usize {
        let st = self.grid.device.state.lock();
        // A `CpuExplicit` launch may hold several runs of the log.
        let mut pending: Vec<*const Launch> = st
            .queue
            .iter()
            .map(|run| &run.launch)
            .filter(|l| Arc::ptr_eq(&l.grid, &self.grid) && !l.is_done())
            .map(Arc::as_ptr)
            .collect();
        pending.sort_unstable();
        pending.dedup();
        pending.len()
    }

    /// Workers of the process device currently asleep on its condvar (a
    /// diagnostic): a count of the whole device, not of this grid. An idle
    /// device reaches its worker count, `max(2, cores)`, one yield bound
    /// after its last launch and burns no CPU from then on (before the
    /// process's first launch it has no workers yet).
    pub fn parked_workers(&self) -> usize {
        self.grid.device.parked()
    }

    /// Log entries this runtime appended: one per launch, one per round
    /// under the CPU methods. A `CpuImplicit` launch of R rounds counts R
    /// as soon as it is submitted (its entries are published at submit); a
    /// `CpuExplicit` one counts each round's entry when the round before
    /// it finished.
    pub fn launches(&self) -> u64 {
        self.grid.entries.load(Ordering::Relaxed)
    }

    /// Per-block worker generation counters: for each block, the
    /// generation of the device worker that hosts it, in the grid's
    /// window. It advances every time that worker is abandoned stuck and
    /// replaced — by this grid's launches or another's — so a soak harness
    /// can assert the runtime self-healed (increasing after every abandoned
    /// launch) without reaching into its internals.
    pub fn generations(&self) -> Vec<u64> {
        let Grid { device, offset, .. } = *self.grid;
        let gens = device.generations();
        let n = self.config().n_blocks;
        (0..n)
            .map(|b| gens[(offset + b % fold_width(n)) % device.workers])
            .collect()
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
            launch: self.enqueue(KernelRef::owned(kernel)),
        })
    }

    /// Run a borrowed kernel on the device and block until it completes —
    /// same signature as [`LaunchPlan::run`], warm `t_O` unless it is the
    /// process's first launch.
    ///
    /// Because the kernel is only borrowed, this wait is *not* bounded for
    /// blocks stuck inside non-cooperative kernel code (the workers may not
    /// outlive the borrow); barrier waits are still bounded by the policy
    /// timeout. Such a block is waited out, never abandoned, and since
    /// every grid in the process shares the device, it holds every later
    /// launch in the process that needs its worker. Use
    /// [`GridRuntime::submit`] for the abandon-and-replace watchdog.
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
        wait_launch(&self.enqueue(kernel), allow_abandon)
    }

    /// Stamp out the launch (running the kernel's `on_launch`), publish
    /// its first entry to the log — every round's under `CpuImplicit` —
    /// and wake or, for the device's launch 0, spawn the workers.
    fn enqueue(&self, kernel: KernelRef) -> Arc<Launch> {
        let device = self.grid.device;
        let workers = fold_width(self.config().n_blocks);
        let setup = self.grid.plan.setup(kernel.get(), workers);
        let n = setup.n;
        let entries = if setup.pipelined() {
            setup.rounds.max(1) as u64
        } else {
            1
        };
        let st = device.state.lock();
        let seq = st.next_seq;
        // Not `seq` minus the slowest cursor: a worker moves its cursor
        // only after the host may have seen the entry's launch settle.
        let queue_depth = st
            .queue
            .iter()
            .filter(|run| !run.launch.is_done())
            .map(|run| run.len as usize)
            .sum();
        let submitted = now();
        let launch = Arc::new(Launch {
            seq,
            grid: Arc::clone(&self.grid),
            kernel,
            queue_depth,
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
            checked_in: (0..workers).map(|_| Spaced::default()).collect(),
            arrived: if setup.per_round() {
                (0..n).map(|_| Spaced::default()).collect()
            } else {
                Vec::new()
            },
            done: Mutex::new(LaunchDone {
                results: vec![Ok(BlockTimes::default()); n],
                reported: vec![false; workers],
                finished: 0,
                settled: false,
                base: 0,
                entry_seq: seq,
                join_since: None,
                join_timeout: None,
                first_failure: None,
                replaced: 0,
                waiter_parked: false,
            }),
            done_cv: Condvar::new(),
            settled: AtomicBool::new(false),
            abandoned: AtomicBool::new(false),
            setup,
        });
        device.push(st, Arc::clone(&launch), 0, entries);
        if seq == 0 {
            for d in 0..device.workers {
                spawn_worker(device, d, 0, 0);
            }
        }
        launch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::{BarrierControl, Pauses, SyncPolicy, CLOCK_READS, PAUSES, SPAWNS};
    use crate::executor::BlockCtx;
    use crate::gmem::GlobalBuffer;
    use crate::service::{GridService, ServiceConfig, ShardKey};
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

    fn count(n: usize, rounds: usize) -> Arc<CountKernel> {
        Arc::new(CountKernel {
            slots: GlobalBuffer::new(n),
            rounds,
        })
    }

    fn pool(n: usize, method: SyncMethod) -> GridRuntime {
        GridRuntime::new(GridConfig::new(n, 64), method).unwrap()
    }

    /// [`pool`] on `device`.
    fn pool_on(device: &'static Device, n: usize, method: SyncMethod) -> GridRuntime {
        let plan = LaunchPlan::compile(GridConfig::new(n, 64), method).unwrap();
        GridRuntime::on_device(plan, device, None)
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

    /// This thread's clock reads and wait pauses so far.
    fn counters() -> (u64, Pauses) {
        (CLOCK_READS.with(|c| c.get()), PAUSES.with(|w| w.get()))
    }

    /// A waiter at the launch boundary shares the host's cores with the
    /// device's workers, so neither the host's wait for its launch nor an
    /// idle worker's wait for the next entry spins. One-block launches keep
    /// the gate and barrier out of it: each runs on one worker, each
    /// launch's fresh grid places its window where the last one's ended,
    /// so the window moves round the device, and the other workers idle
    /// through the entry.
    #[test]
    fn waits_across_the_launch_boundary_do_not_spin() {
        let device = Device::private();
        let ran = Mutex::new(Vec::new());
        let kernel = (1usize, |_: &BlockCtx, _: usize| {
            ran.lock().push((std::thread::current().id(), counters().1));
        });
        let host = counters().1;
        for _ in 0..4 * device.workers {
            pool_on(device, 1, SyncMethod::NoSync).run(&kernel).unwrap();
        }
        assert_eq!(counters().1.spins, host.spins, "the host's waits spun");
        let ran = ran.into_inner();
        let threads: std::collections::HashSet<_> = ran.iter().map(|(t, _)| *t).collect();
        assert_eq!(threads.len(), device.workers);
        // Device threads are fresh: every pause they made is counted here.
        assert!(ran.iter().all(|(_, w)| w.spins == 0), "{ran:?}");
    }

    /// The assembly gate is a wait for peer workers, which usually have
    /// cores of their own, so it spins before its first yield. Worker 1 of
    /// a private device's cold launch holds off the gate for 20 ms; worker
    /// 0, a fresh thread, waits for it there before its first round.
    #[test]
    fn the_assembly_gate_spins_before_it_yields() {
        use crate::fault::{Fault, FaultInjector, FaultKind, FaultPhase, FaultSchedule};
        let at_gate = Mutex::new(None);
        let kernel = FaultInjector::with_schedule(
            (1usize, |ctx: &BlockCtx, _: usize| {
                if ctx.block_id == 0 {
                    *at_gate.lock() = Some(counters().1);
                }
            }),
            FaultSchedule::new(vec![Fault {
                block: 1,
                round: 0,
                phase: FaultPhase::Assembly,
                kind: FaultKind::Delay(Duration::from_millis(20)),
            }]),
        );
        let plan = LaunchPlan::compile(GridConfig::new(2, 8), SyncMethod::GpuLockFree).unwrap();
        GridRuntime::on_device(plan, Device::private(), None)
            .run(&kernel)
            .unwrap();
        let w = at_gate.into_inner().expect("block 0 ran");
        assert!(w.spins >= 1, "{w:?}");
        assert!(
            w.yields == 0 || w.spins == u64::from(BarrierControl::SPIN_POLLS),
            "{w:?}"
        );
    }

    /// A warm untraced launch reads the clock a few times on each thread
    /// it runs on, whatever its rounds, plus once per pause of a wait
    /// across the launch boundary, whose yield bound is a time.
    /// `NoSync` keeps the barrier's own reads (DESIGN.md §10) out of it.
    /// Each worker's share is what it reads from one launch's first round
    /// to the next's.
    #[test]
    fn a_warm_launch_reads_the_clock_a_few_times_per_thread() {
        const FEW: u64 = 4;
        let rt = pool_on(Device::private(), 2, SyncMethod::NoSync);
        let ran = Mutex::new(Vec::new());
        let kernel = (64usize, |ctx: &BlockCtx, round: usize| {
            if round == 0 {
                ran.lock().push((ctx.block_id, counters()));
            }
        });
        rt.run(&kernel).unwrap();
        let before = counters();
        rt.run(&kernel).unwrap();
        let after = counters();
        rt.run(&kernel).unwrap();
        let within = |(r0, w0): (u64, Pauses), (r1, w1): (u64, Pauses)| {
            let allowed = FEW + (w1.yields - w0.yields) + (w1.parks - w0.parks);
            assert!(
                r1 - r0 <= allowed,
                "{} clock reads, {allowed} allowed",
                r1 - r0
            );
        };
        within(before, after);
        let ran = ran.into_inner();
        for b in 0..2 {
            let per_launch: Vec<_> = ran
                .iter()
                .filter(|(k, _)| *k == b)
                .map(|(_, c)| *c)
                .collect();
            assert_eq!(per_launch.len(), 3);
            within(per_launch[1], per_launch[2]);
        }
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
    /// implicit sync, every launch's rounds published at submit, and
    /// `CpuExplicit`'s later rounds interleave with the other launches'
    /// entries. A private device per method, so sequence numbers start at
    /// its cold launch.
    #[test]
    fn pipelined_submits_all_complete_in_order() {
        for method in [
            SyncMethod::GpuSimple,
            SyncMethod::CpuImplicit,
            SyncMethod::CpuExplicit,
        ] {
            let rt = pool_on(Device::private(), 3, method);
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
            let entries = if method.is_cpu_side() { 20 } else { 1 };
            for (i, h) in handles.into_iter().enumerate() {
                let seq = h.seq();
                assert!(explicit || seq == i as u64 * entries, "{method}");
                let stats = h.wait().unwrap();
                assert_eq!(stats.method, method.to_string());
                let p = stats.pool.as_ref().unwrap();
                assert_eq!((p.launch_seq, p.cold), (seq, i == 0), "{method}");
                assert!(kernels[i].slots.to_vec().iter().all(|&v| v == 20));
            }
            assert_eq!(rt.launches(), 4 * entries, "{method}");
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
        // `done` lock (yielding or parked, as the gate's hold
        // time falls): neither may see completion the other cannot.
        let rt = pool(2, SyncMethod::GpuLockFree);
        for hold_us in [0u64, 20, 150, 2_000].repeat(25) {
            let gate = Arc::new(AtomicBool::new(false));
            let waiter = rt.submit_dyn(held_until(&gate)).unwrap();
            let poller = LaunchHandle {
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

    /// A launch's `queue_depth` counts the log entries of unsettled
    /// launches ahead of it. Back-to-back blocking runs on an idle device
    /// read 0 under every method — counted from the workers' cursors they
    /// read 1, since a worker moves its cursor only after the host may
    /// have seen the launch settle — and pipelined submits behind a held
    /// launch read the entries ahead of them.
    #[test]
    fn queue_depth_reflects_pipelining() {
        let all = SyncMethod::PAPER_METHODS
            .into_iter()
            .chain(SyncMethod::EXTENSION_METHODS)
            .chain([SyncMethod::NoSync]);
        for m in all {
            let rt = pool_on(Device::private(), 2, m);
            let depth = |h: LaunchHandle| h.wait().unwrap().pool.unwrap().queue_depth;
            let runs: Vec<usize> = (0..10)
                .map(|_| rt.run(&*count(2, 3)).unwrap().pool.unwrap().queue_depth)
                .collect();
            assert_eq!(runs, vec![0; 10], "{m}");
            let gate = Arc::new(AtomicBool::new(false));
            let held = rt.submit_dyn(held_until(&gate)).unwrap();
            let behind = [(); 2].map(|()| rt.submit(count(2, 1)).unwrap());
            assert_eq!(rt.queue_depth(), 3, "{m}");
            gate.store(true, Ordering::Release);
            assert_eq!(depth(held), 0, "{m}");
            assert_eq!(behind.map(depth), [1, 2], "{m}");
            assert_eq!(rt.queue_depth(), 0, "{m}");
        }
    }

    /// Once the process device is up, no launch spawns a thread: not a
    /// plan's, not a new runtime's, not a new service shard's. (Replacing
    /// a worker stuck in an abandoned launch is the one spawn after it.)
    #[test]
    fn no_thread_is_spawned_after_bring_up() {
        let plan = LaunchPlan::compile(GridConfig::new(3, 8), SyncMethod::GpuSimple).unwrap();
        plan.run(&*count(3, 4)).unwrap(); // brings the process device up
        let spawns = || SPAWNS.with(std::cell::Cell::get);
        let up = spawns();
        plan.run(&*count(3, 4)).unwrap();
        plan.run_owned(count(3, 4)).unwrap();
        for m in [SyncMethod::GpuLockFree, SyncMethod::CpuImplicit] {
            let rt = GridRuntime::new(GridConfig::new(5, 8), m).unwrap();
            rt.run(&*count(5, 4)).unwrap();
            rt.submit(count(5, 4)).unwrap().wait().unwrap();
        }
        let svc = GridService::new(ServiceConfig::default());
        for n in [1, 2, 7] {
            let key = ShardKey::new(n, 8, SyncMethod::CpuExplicit);
            svc.submit("t", key, count(n, 3)).unwrap().wait().unwrap();
        }
        assert_eq!(spawns(), up);
    }
}
