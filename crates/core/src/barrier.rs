//! The inter-block barrier abstraction and its fault-control plane.
//!
//! A barrier is one function of `(block, round)`, as in the paper's
//! listings (Figs. 6, 8, 9), where every method is one device function
//! `__gpu_sync(goalVal)` whose goal the caller keeps:
//!
//! * [`BarrierShared`] — the state shared by all blocks (the `__device__`
//!   globals of the paper's CUDA listings: `g_mutex`, `Arrayin`,
//!   `Arrayout`, ...) *and* the protocol that runs on it:
//!   [`BarrierShared::sync`]`(block, round)` is block `block`'s part of
//!   barrier number `round`. Round state lives in the argument and nowhere
//!   else; the launch engine's round loop passes the `r` it already has.
//!   There are two implementors: one for every device-side method, which
//!   executes [`crate::program`]'s op sequences on atomics, and the
//!   CPU-implicit condvar rendezvous, which no launch builds any more
//!   (only the [`crate::SyncMethod::build_barrier_with`] shim does).
//! * [`BarrierWaiter`] — the register the paper keeps `goalVal` in, for
//!   callers without a round counter of their own: a block id and a count
//!   of completed rounds over an `Arc<dyn BarrierShared>`, whose `wait`
//!   calls `sync` and increments.
//!
//! Both provide **full barrier semantics with publication**: when
//! [`BarrierShared::sync`] returns `Ok` for round `r`, every write
//! performed by any block before its round-`r` call is visible —
//! `Release` writes on arrival, `Acquire` reads on departure (DESIGN.md §5
//! has the reason for each).
//!
//! ## Fault tolerance
//!
//! A spin barrier turns one failed block into a grid-wide hang: every peer
//! spins forever on a flag that will never flip. Each barrier therefore
//! embeds a [`BarrierControl`], which adds two recovery mechanisms governed
//! by a [`SyncPolicy`]:
//!
//! * **Poisoning** — when a block's kernel panics (or a wait times out),
//!   the barrier is poisoned; every spin loop checks the poison word (a
//!   plain load, no atomic RMW) and unwinds with [`SyncFault::Poisoned`]
//!   instead of spinning on.
//! * **Bounded waits** — with `SyncPolicy::timeout` set, a spin loop that
//!   exceeds the deadline poisons the barrier and returns
//!   [`SyncFault::TimedOut`] carrying a [`StuckDiagnostic`]: which block
//!   was stuck, at which round, on which flag, and which peers never
//!   arrived.
//!
//! Every wait runs the one discipline of `BarrierControl::wait_until`:
//! spin, then yield (DESIGN.md §15). A waiter never sleeps, as the
//! paper's `__gpu_sync` waiters never do: it pays the pre-fault-tolerance
//! spin loop — 64 busy polls, then `yield_now` until the wait ends — plus
//! a single plain poison load per poll.

#[cfg(test)]
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crossbeam::utils::CachePadded;

use crate::error::{StuckDiagnostic, StuckPhase};
use crate::trace::{EventRecorder, TraceEventKind};

/// The clock every round loop and barrier wait reads (`Instant::now`):
/// one place, so that tests can count the reads a launch makes
/// (DESIGN.md §10).
#[inline]
pub(crate) fn now() -> Instant {
    #[cfg(test)]
    CLOCK_READS.with(|c| c.set(c.get() + 1));
    Instant::now()
}

#[cfg(test)]
thread_local! {
    /// Calls of [`now`] on this thread.
    pub(crate) static CLOCK_READS: Cell<u64> = const { Cell::new(0) };
    /// Calls of [`note_pause`] on this thread, by kind.
    pub(crate) static PAUSES: Cell<Pauses> = const {
        Cell::new(Pauses { spins: 0, yields: 0, parks: 0 })
    };
    /// Device worker threads this thread spawned (`runtime::spawn_worker`).
    pub(crate) static SPAWNS: Cell<u64> = const { Cell::new(0) };
}

/// The pauses a thread's waits made, by kind (test-only).
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pauses {
    /// `spin_loop` polls.
    pub(crate) spins: u64,
    /// `yield_now` polls.
    pub(crate) yields: u64,
    /// Parks on a condvar: only a wait across the launch boundary makes
    /// them (`launch::yield_until`); a peer wait never does.
    pub(crate) parks: u64,
}

/// What a launch-path wait did after a poll that failed.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Pause {
    Spin,
    Yield,
    Park,
}

/// Every launch-path wait reports its pauses here, so that tests can count
/// them per thread (DESIGN.md §15); a no-op outside tests.
#[inline]
pub(crate) fn note_pause(_pause: Pause) {
    #[cfg(test)]
    PAUSES.with(|c| {
        let mut n = c.get();
        *match _pause {
            Pause::Spin => &mut n.spins,
            Pause::Yield => &mut n.yields,
            Pause::Park => &mut n.parks,
        } += 1;
        c.set(n);
    });
}

/// Polls of a peer wait's spin phase: a peer that is already running
/// arrives within these, with no trip into the scheduler.
pub(crate) const SPIN_POLLS: u32 = 64;

/// One pause of a wait for peer blocks — a barrier's
/// (`BarrierControl::wait_until`) and the assembly gate's — after its
/// `*polls`-th failed poll, which it counts: `spin_loop` for the first
/// [`SPIN_POLLS`], then `yield_now` however long the wait goes on. A
/// yielding waiter lets every runnable peer have its core, so a peer
/// that is off-core (another process took the core, or there are more
/// waiters than cores) still runs (DESIGN.md §15).
#[inline]
pub(crate) fn pause(polls: &mut u32) {
    if *polls < SPIN_POLLS {
        note_pause(Pause::Spin);
        std::hint::spin_loop();
    } else {
        note_pause(Pause::Yield);
        std::thread::yield_now();
    }
    // Saturate rather than wrap: wrapping would bounce a long wait back
    // into the spin phase (and off the deadline check) after 2^32 polls.
    *polls = polls.saturating_add(1);
}

/// Fault-handling policy for barrier waits, carried by
/// [`crate::GridConfig`] into every barrier the executor builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SyncPolicy {
    /// Give up a barrier wait after this long (`None` = wait forever, the
    /// paper's semantics and the default).
    ///
    /// The bound is a time, whatever the host's load: the deadline starts
    /// when a wait leaves its 64-poll spin phase, and the wait reads the
    /// clock on every poll after that, so a stuck wait reports within
    /// `timeout` + 64 spin polls + one `yield_now`. A wait that ends inside
    /// the spin phase reads no clock; without a timeout a wait reads it
    /// once, as it leaves the spin phase, for the round loop's time
    /// accounting.
    pub timeout: Option<Duration>,
}

impl SyncPolicy {
    /// Policy that times barrier waits out after `timeout`.
    pub fn with_timeout(timeout: Duration) -> Self {
        SyncPolicy {
            timeout: Some(timeout),
        }
    }

    /// Grace the pooled runtime grants a launch past its first observed
    /// failure before abandoning the stragglers and replacing their
    /// workers: `clamp(timeout, 10ms, 1s) + 100ms` — long enough for every
    /// cooperatively-aborting peer to drain, short enough that a 50 ms
    /// timeout still fails in well under a second. Only meaningful when
    /// `timeout` is set (without a timeout, owned pooled launches are
    /// never abandoned).
    pub fn abandon_grace(&self) -> Duration {
        self.timeout
            .unwrap_or_default()
            .clamp(Duration::from_millis(10), Duration::from_secs(1))
            + Duration::from_millis(100)
    }

    // Shims for the frozen benchmark only: no barrier wait parks any more,
    // whatever the policy, so there is nothing to switch on or ask about.
    // Callers: perf/src/workloads.rs (98, 129) and perf/src/ladder.rs (99,
    // 225, 267); the next `benchmark` PR drops those calls and deletes
    // both.
    #[doc(hidden)]
    pub fn with_park(self) -> Self {
        self
    }

    #[doc(hidden)]
    pub fn parks(&self) -> bool {
        true
    }
}

/// What killed a barrier (recorded in the poison word).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoisonCause {
    /// A block's kernel code panicked.
    Panic,
    /// A block's barrier wait exceeded the policy timeout.
    Timeout,
}

/// Why a [`BarrierShared::sync`] call failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SyncFault {
    /// A peer poisoned the barrier; this block unwound instead of spinning
    /// on a flag that will never flip.
    Poisoned {
        /// The block that poisoned the barrier.
        block: usize,
        /// The round in which it did so.
        round: usize,
        /// Whether it panicked or timed out.
        cause: PoisonCause,
    },
    /// This block's own wait exceeded the policy timeout.
    TimedOut {
        /// Who was stuck where, and which peers never arrived.
        diagnostic: Box<StuckDiagnostic>,
    },
}

/// Poison word layout: `[63] valid, [62] cause (1 = timeout),
/// `[32..62] block`, `[0..32] round`. Zero means "not poisoned", so the hot
/// path is a single plain load compared against zero.
const POISON_VALID: u64 = 1 << 63;
const POISON_TIMEOUT: u64 = 1 << 62;

fn pack_poison(block: usize, round: usize, cause: PoisonCause) -> u64 {
    let cause_bit = match cause {
        PoisonCause::Panic => 0,
        PoisonCause::Timeout => POISON_TIMEOUT,
    };
    POISON_VALID | cause_bit | ((block as u64 & 0x3fff_ffff) << 32) | (round as u64 & 0xffff_ffff)
}

fn unpack_poison(word: u64) -> (usize, usize, PoisonCause) {
    let cause = if word & POISON_TIMEOUT != 0 {
        PoisonCause::Timeout
    } else {
        PoisonCause::Panic
    };
    (
        ((word >> 32) & 0x3fff_ffff) as usize,
        (word & 0xffff_ffff) as usize,
        cause,
    )
}

/// Shared fault-control plane embedded in every barrier implementation:
/// the poison word, the per-block progress table, and the [`SyncPolicy`].
///
/// Designed to stay off the barrier hot path: the poison check is one plain
/// load per poll, the progress table is written with single-writer plain
/// stores once per `sync` call (never inside a spin loop), and the
/// deadline is consulted only once a wait has left its spin phase.
pub struct BarrierControl {
    policy: SyncPolicy,
    poison: AtomicU64,
    /// `arrivals[b]` = barrier rounds block `b` has entered. Single writer
    /// (block `b`), so a plain store suffices; padded to keep the bookkeeping
    /// writes from bouncing the peers' cache lines.
    arrivals: Vec<CachePadded<AtomicU64>>,
    /// `departures[b]` = barrier rounds block `b` has completed.
    departures: Vec<CachePadded<AtomicU64>>,
    /// Telemetry sink, attached by the launch engine when tracing is on:
    /// each wait's poll count (recorded once, after the spin loop exits),
    /// the poison event, and the straggler trail of a timeout. The
    /// arrive/depart events are the round loop's to record (`drive_block`),
    /// since only it knows which blocks a participant stands for.
    recorder: OnceLock<Arc<EventRecorder>>,
}

impl BarrierControl {
    /// Control plane for `n_blocks` blocks under `policy`.
    pub(crate) fn new(n_blocks: usize, policy: SyncPolicy) -> Self {
        BarrierControl {
            policy,
            poison: AtomicU64::new(0),
            arrivals: (0..n_blocks)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            departures: (0..n_blocks)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            recorder: OnceLock::new(),
        }
    }

    /// The policy this barrier runs under.
    pub(crate) fn policy(&self) -> &SyncPolicy {
        &self.policy
    }

    /// Back to the state [`BarrierControl::new`] builds, for the next
    /// launch of the grid: unpoisoned, nobody arrived, no recorder. The
    /// `&mut` is the proof that no waiter is left.
    pub(crate) fn reset(&mut self) {
        *self.poison.get_mut() = 0;
        for word in self.arrivals.iter_mut().chain(&mut self.departures) {
            *word.get_mut() = 0;
        }
        self.recorder.take();
    }

    /// Attach the telemetry recorder (first caller wins; the launch engine
    /// does this once per launch, before any worker can see it).
    pub(crate) fn attach_recorder(&self, rec: Arc<EventRecorder>) {
        let _ = self.recorder.set(rec);
    }

    /// Record that `block` has entered its round-`round` (0-based) wait.
    /// A wait-phase fault fires before this (`drive_block` runs it just
    /// ahead of [`BarrierShared::sync`]), so a block faulted there is
    /// observed by peers as never-arrived — exactly a straggler stuck
    /// between round body and barrier.
    #[inline]
    fn record_arrival(&self, block: usize, round: u64) {
        self.arrivals[block].store(round + 1, Ordering::Relaxed);
    }

    /// Record that `block` has completed its round-`round` wait.
    #[inline]
    fn record_departure(&self, block: usize, round: u64) {
        self.departures[block].store(round + 1, Ordering::Relaxed);
    }

    /// Poison the barrier: every current and future wait returns
    /// [`SyncFault::Poisoned`] naming `block`/`round`/`cause`. First caller
    /// wins; later poisonings are ignored so the diagnostic stays stable.
    /// Returns whether this call was the one that won.
    pub(crate) fn poison(&self, block: usize, round: usize, cause: PoisonCause) -> bool {
        let won = self
            .poison
            .compare_exchange(
                0,
                pack_poison(block, round, cause),
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_ok();
        if won {
            // Poison is always raised from the failing block's own thread
            // (panic unwind or its own timed-out wait), so the single-writer
            // ring contract holds here too.
            if let Some(rec) = self.recorder.get() {
                rec.record(block, round, TraceEventKind::Poison);
            }
        }
        won
    }

    /// Whether the barrier is poisoned, and by whom.
    pub(crate) fn poisoned(&self) -> Option<(usize, usize, PoisonCause)> {
        let word = self.poison.load(Ordering::Acquire);
        (word != 0).then(|| unpack_poison(word))
    }

    /// Snapshot the per-participant progress table (arrivals,
    /// departures); the launch engine translates it to logical blocks
    /// (`LaunchSetup::progress`).
    pub(crate) fn progress(&self) -> (Vec<u64>, Vec<u64>) {
        (
            self.arrivals
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            self.departures
                .iter()
                .map(|d| d.load(Ordering::Relaxed))
                .collect(),
        )
    }

    /// Wait until `cond()` holds — the one wait discipline every barrier
    /// shares with the assembly gate ([`pause`]): 64 busy polls, then
    /// `yield_now` between polls until the wait ends (DESIGN.md §15).
    /// The poison word is checked each poll (plain load). A wait that
    /// leaves the spin phase reads the clock there, once, and returns that
    /// instant (`Ok(Some(left))`): the round loop times such a wait
    /// exactly from it, and the deadline starts from it. Under a timeout
    /// the deadline is then checked on every poll — a yield already costs
    /// more than a clock read, and on a loaded host it can cost a
    /// scheduler slice, so a deadline counted in yields is not a time (see
    /// [`SyncPolicy::timeout`] for the bound). A wait that ends in its
    /// spin phase reads no clock and returns `Ok(None)`.
    ///
    /// On timeout the barrier is poisoned (cause `Timeout`) so peers unwind
    /// too, and the returned [`StuckDiagnostic`] names `block`, `round`,
    /// and the `flag` description produced lazily by the caller. Exactly
    /// one waiter per barrier reports [`SyncFault::TimedOut`]: one whose
    /// deadline expires after a peer's poison landed unwinds as that
    /// peer's victim.
    ///
    /// Telemetry never adds work *inside* the loop: the poll count is
    /// recorded once, after it exits.
    #[inline]
    pub(crate) fn wait_until(
        &self,
        block: usize,
        round: u64,
        barrier: &str,
        flag: impl Fn() -> String,
        mut cond: impl FnMut() -> bool,
    ) -> Result<Option<Instant>, SyncFault> {
        let timeout = self.policy.timeout;
        let mut polls = 0u32;
        // Where the wait left its spin phase, once it has.
        let mut left: Option<Instant> = None;
        // What is left of the deadline as of this poll's clock read.
        let mut remaining: Option<Duration> = None;
        loop {
            if cond() {
                self.note_spin(block, polls);
                return Ok(left);
            }
            if self.poison.load(Ordering::Relaxed) != 0 {
                self.note_spin(block, polls);
                return Err(self.poisoned_fault());
            }
            if polls >= SPIN_POLLS && (left.is_none() || timeout.is_some()) {
                let at = now();
                let since = *left.get_or_insert(at);
                remaining = timeout.map(|t| t.saturating_sub(at - since));
            }
            if let (Some(timeout), Some(Duration::ZERO)) = (timeout, remaining) {
                // Snapshot progress *before* publishing the poison:
                // a cooperative straggler (e.g. an injected wait-phase
                // fault) is released by the poison itself and would
                // record its arrival before the snapshot, erasing the
                // very evidence — stragglers() — this diagnostic
                // exists to report.
                let (arrivals, departures) = self.progress();
                let won = self.poison(block, round as usize, PoisonCause::Timeout);
                self.note_spin(block, polls);
                if !won {
                    // A peer's poison landed between this poll's check
                    // and the CAS. Waiters check their deadlines on every
                    // poll, so peers launched together expire together;
                    // only the winner owns the diagnostic.
                    return Err(self.poisoned_fault());
                }
                let diagnostic = StuckDiagnostic {
                    barrier: barrier.to_string(),
                    waiting_block: block,
                    round: round as usize,
                    flag: flag(),
                    timeout,
                    arrivals,
                    departures,
                    recent_events: self.straggler_trail(block, round),
                    phase: StuckPhase::Barrier,
                };
                return Err(SyncFault::TimedOut {
                    diagnostic: Box::new(diagnostic),
                });
            }
            pause(&mut polls);
        }
    }

    /// The fault a wait unwinds with once the poison word is set. Acquire,
    /// so the poisoner's writes are visible to the unwinding block.
    pub(crate) fn poisoned_fault(&self) -> SyncFault {
        let (block, round, cause) = unpack_poison(self.poison.load(Ordering::Acquire));
        SyncFault::Poisoned {
            block,
            round,
            cause,
        }
    }

    /// Record one completed wait's poll count (no-op without a recorder).
    #[inline]
    fn note_spin(&self, block: usize, polls: u32) {
        if let Some(rec) = self.recorder.get() {
            rec.record_spin(block, u64::from(polls));
        }
    }

    /// The recent trace events of the primary straggler of `round` — the
    /// first block whose arrival count is behind the waiting block — or of
    /// the waiting block itself when everyone arrived (lost release).
    pub(crate) fn straggler_trail(&self, waiting: usize, round: u64) -> Vec<String> {
        let Some(rec) = self.recorder.get() else {
            return Vec::new();
        };
        let straggler = self
            .arrivals
            .iter()
            .position(|a| a.load(Ordering::Relaxed) <= round)
            .unwrap_or(waiting);
        rec.trail(straggler)
    }
}

/// Shared state of an inter-block barrier for a fixed number of blocks, and
/// the protocol that runs on it.
pub trait BarrierShared: Send + Sync + 'static {
    /// Short human-readable name for reports, e.g. `"gpu-simple"`.
    fn name(&self) -> &'static str;

    /// The fault-control plane (poison word, progress table, policy).
    fn control(&self) -> &BarrierControl;

    /// `block`'s part of barrier number `round` (0-based): publish the
    /// arrival, wait for the peers' through
    /// `BarrierControl::wait_until`. This is the body of the paper's
    /// `__gpu_sync(goalVal)` listings; the goal is derived from `round`,
    /// which the caller keeps. Callers go through [`BarrierShared::sync`],
    /// which returns what this returns.
    ///
    /// # Errors
    /// As [`BarrierShared::sync`].
    fn protocol(&self, block: usize, round: u64) -> Result<Option<Instant>, SyncFault>;

    /// Arrive at barrier number `round` as `block` and wait until all
    /// [`BarrierShared::num_blocks`] blocks have arrived: the protocol,
    /// bracketed by the progress table's arrival and departure records.
    /// Every block must pass `round = 0, 1, 2, ...` in order. Provided, so
    /// each implementor gets its own copy in which `control()` and the
    /// protocol are direct calls: through `dyn` a wait is this one virtual
    /// call. Returns where the first of the protocol's waits to leave its
    /// spin phase left it (`BarrierControl::wait_until`), or `None` when
    /// every wait ended spinning — and under CPU-implicit, whose waits
    /// sleep instead of spinning.
    ///
    /// # Errors
    /// [`SyncFault::Poisoned`] if a peer panicked or timed out;
    /// [`SyncFault::TimedOut`] if this block's own wait exceeded the
    /// [`SyncPolicy`] timeout. After an error the barrier is permanently
    /// poisoned; further waits fail too.
    fn sync(&self, block: usize, round: u64) -> Result<Option<Instant>, SyncFault> {
        let ctl = self.control();
        ctl.record_arrival(block, round);
        let left = self.protocol(block, round)?;
        ctl.record_departure(block, round);
        Ok(left)
    }

    /// Number of blocks this barrier synchronizes.
    fn num_blocks(&self) -> usize {
        self.control().arrivals.len()
    }

    /// Poison the barrier on behalf of `block` at `round` *and wake any
    /// waiter that sleeps instead of spinning*. The spin barriers inherit
    /// the default (the poison word is polled on every spin iteration);
    /// implementations whose waiters block on an OS primitive (e.g. the
    /// CPU-implicit condvar rendezvous of the `build_barrier_with` shim)
    /// must override
    /// this to also signal that primitive, or poisoned sleepers would only
    /// notice at their next timeout tick. Every caller outside a barrier's
    /// own protocol goes through this hook, never `BarrierControl::poison`
    /// directly.
    fn poison(&self, block: usize, round: usize, cause: PoisonCause) {
        self.control().poison(block, round, cause);
    }
}

impl dyn BarrierShared {
    /// The per-block handle for `block`.
    ///
    /// # Panics
    /// Panics if `block >= self.num_blocks()`.
    pub fn waiter(self: Arc<Self>, block: usize) -> BarrierWaiter {
        assert!(block < self.num_blocks(), "block_id {block} out of range");
        BarrierWaiter {
            shared: self,
            block,
            round: 0,
        }
    }
}

/// Per-block handle to an inter-block barrier, for callers with no round
/// counter of their own: the register the paper keeps `goalVal` in.
pub struct BarrierWaiter {
    shared: Arc<dyn BarrierShared>,
    block: usize,
    /// Completed rounds.
    round: u64,
}

impl BarrierWaiter {
    /// [`BarrierShared::sync`] for this block's next round — the paper's
    /// `__gpu_sync(goalVal)` followed by its `goalVal` increment.
    ///
    /// # Errors
    /// As [`BarrierShared::sync`].
    pub fn wait(&mut self) -> Result<(), SyncFault> {
        self.shared.sync(self.block, self.round)?;
        self.round += 1;
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod harness {
    //! A reusable correctness harness run against every barrier
    //! implementation: `n` threads repeatedly increment per-block counters
    //! and cross-check *other* blocks' counters between rounds. Any lost
    //! round, early release, or missing publication fails the asserts.
    //!
    //! Even blocks keep their round in a [`BarrierWaiter`], odd blocks pass
    //! the loop's `r` to [`BarrierShared::sync`] themselves; the two meet
    //! in one barrier because round state lives in the argument and
    //! nowhere else.

    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    pub fn exercise(shared: Arc<dyn BarrierShared>, n_blocks: usize, rounds: usize) {
        let counters: Arc<Vec<AtomicU64>> =
            Arc::new((0..n_blocks).map(|_| AtomicU64::new(0)).collect());

        std::thread::scope(|s| {
            for b in 0..n_blocks {
                let shared = Arc::clone(&shared);
                let counters = Arc::clone(&counters);
                s.spawn(move || {
                    let mut waiter = (b % 2 == 0).then(|| Arc::clone(&shared).waiter(b));
                    for r in 0..rounds {
                        // Plain (Relaxed) increment: ordering must come from
                        // the barrier alone.
                        let prev = counters[b].load(Ordering::Relaxed);
                        assert_eq!(prev as usize, r, "block {b} lost a round");
                        counters[b].store(prev + 1, Ordering::Relaxed);
                        match waiter.as_mut() {
                            Some(w) => w.wait(),
                            None => shared.sync(b, r as u64).map(|_| ()),
                        }
                        .expect("fault-free barrier must not fail");
                        // After the barrier every block must observe every
                        // other block's round-r increment.
                        for (other, c) in counters.iter().enumerate() {
                            let seen = c.load(Ordering::Relaxed) as usize;
                            assert!(
                                seen > r,
                                "block {b} after round {r}: block {other} shows {seen}"
                            );
                            assert!(
                                seen <= r + 2,
                                "block {b} after round {r}: block {other} ran ahead to {seen}"
                            );
                        }
                    }
                });
            }
        });

        for c in counters.iter() {
            assert_eq!(c.load(Ordering::Relaxed) as usize, rounds);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::{SyncMethod, TreeLevels};

    /// Every barrier-backed method — the paper's and the extensions, less
    /// `CpuExplicit` (its barrier is the host's join) — plus a tuned tree.
    fn barrier_methods() -> impl Iterator<Item = SyncMethod> {
        SyncMethod::PAPER_METHODS
            .into_iter()
            .chain(SyncMethod::EXTENSION_METHODS)
            .filter(|m| *m != SyncMethod::CpuExplicit)
            .chain([SyncMethod::GpuTree(TreeLevels::Custom(3))])
    }

    fn build(method: SyncMethod, n: usize) -> Arc<dyn BarrierShared> {
        method
            .build_barrier_with(n, SyncPolicy::default())
            .expect("barrier-backed")
    }

    #[test]
    fn waiter_and_bare_sync_meet_in_one_barrier_under_every_method() {
        // Block 0 through a `BarrierWaiter`, block 1 through `sync(1, r)`.
        for method in barrier_methods() {
            harness::exercise(build(method, 2), 2, 200);
        }
    }

    #[test]
    fn num_blocks_is_what_the_method_was_built_with() {
        for method in barrier_methods() {
            for n in [1, 2, 5, 30] {
                assert_eq!(build(method, n).num_blocks(), n, "{method}");
            }
        }
    }

    #[test]
    fn out_of_range_waiter_is_rejected_under_every_method() {
        for method in barrier_methods() {
            let out_of_range = std::panic::AssertUnwindSafe(|| build(method, 2).waiter(2).wait());
            let panic = std::panic::catch_unwind(out_of_range).expect_err("waiter(n) must panic");
            let message = crate::launch::payload_message(&*panic);
            assert!(message.contains("out of range"), "{method}: {message}");
        }
    }

    #[test]
    fn poison_word_round_trips() {
        for (b, r, c) in [
            (0, 0, PoisonCause::Panic),
            (29, 9999, PoisonCause::Timeout),
            (5, 1, PoisonCause::Panic),
        ] {
            assert_eq!(unpack_poison(pack_poison(b, r, c)), (b, r, c));
        }
    }

    #[test]
    fn first_poisoner_wins() {
        let ctl = BarrierControl::new(4, SyncPolicy::default());
        assert_eq!(ctl.poisoned(), None);
        ctl.poison(2, 7, PoisonCause::Panic);
        ctl.poison(3, 8, PoisonCause::Timeout);
        assert_eq!(ctl.poisoned(), Some((2, 7, PoisonCause::Panic)));
    }

    #[test]
    fn wait_until_returns_ok_when_cond_holds() {
        let ctl = BarrierControl::new(2, SyncPolicy::default());
        ctl.wait_until(0, 0, "test", || unreachable!(), || true)
            .unwrap();
    }

    #[test]
    fn wait_until_unwinds_on_poison() {
        let ctl = BarrierControl::new(2, SyncPolicy::default());
        ctl.poison(1, 3, PoisonCause::Panic);
        let err = ctl
            .wait_until(0, 5, "test", || "flag".into(), || false)
            .unwrap_err();
        assert_eq!(
            err,
            SyncFault::Poisoned {
                block: 1,
                round: 3,
                cause: PoisonCause::Panic
            }
        );
    }

    #[test]
    fn wait_until_times_out_with_diagnostic() {
        // 10 ms outlasts the spin phase, so the deadline is met by a
        // yielding waiter that reads the clock on every poll — not early,
        // and not never.
        let ctl = BarrierControl::new(3, SyncPolicy::with_timeout(Duration::from_millis(10)));
        ctl.record_arrival(0, 0);
        ctl.record_arrival(2, 0);
        let t0 = Instant::now();
        let err = ctl
            .wait_until(0, 0, "gpu-simple", || "g_mutex >= 3".into(), || false)
            .unwrap_err();
        assert!(t0.elapsed() >= Duration::from_millis(10));
        assert!(t0.elapsed() < Duration::from_secs(5), "overshot wildly");
        match err {
            SyncFault::TimedOut { diagnostic } => {
                assert_eq!(diagnostic.waiting_block, 0);
                assert_eq!(diagnostic.round, 0);
                assert_eq!(diagnostic.barrier, "gpu-simple");
                assert_eq!(diagnostic.flag, "g_mutex >= 3");
                assert_eq!(diagnostic.stragglers(), vec![1]);
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        // The timeout poisoned the barrier for everyone else.
        assert_eq!(ctl.poisoned(), Some((0, 0, PoisonCause::Timeout)));
    }

    /// A wait that ends spinning reads no clock, even under a timeout,
    /// and neither yields nor parks; one that leaves its spin phase
    /// without a timeout reads it once, there, and returns that instant.
    #[test]
    fn a_wait_reads_the_clock_only_once_it_leaves_its_spin_phase() {
        let reads = || CLOCK_READS.with(|c| c.get());
        let timed = BarrierControl::new(2, SyncPolicy::with_timeout(Duration::from_secs(5)));
        let before = reads();
        let pauses = PAUSES.with(Cell::get);
        let mut polls = 0;
        let spun = timed.wait_until(
            0,
            0,
            "test",
            || "flag".into(),
            || {
                polls += 1;
                polls > 10
            },
        );
        assert_eq!((spun, reads() - before), (Ok(None), 0));
        let spins = pauses.spins + 10;
        let expected = Pauses { spins, ..pauses };
        assert_eq!(PAUSES.with(Cell::get), expected);

        let untimed = BarrierControl::new(2, SyncPolicy::default());
        let before = reads();
        let t0 = Instant::now();
        let mut polls = 0;
        let left = untimed
            .wait_until(
                0,
                0,
                "test",
                || "flag".into(),
                || {
                    polls += 1;
                    polls > 100
                },
            )
            .unwrap()
            .expect("the wait left its spin phase");
        assert_eq!(reads() - before, 1);
        assert!(t0 <= left && left <= Instant::now());
    }

    #[test]
    fn timeout_is_a_time_however_slow_a_poll_is() {
        // A 1 ms `cond` stands in for a yield that costs a scheduler slice
        // on a loaded host. The deadline must be met by the clock, a few
        // polls after it passes — not after some fixed count of polls,
        // which at 1 ms each would be a second or more.
        let ctl = BarrierControl::new(2, SyncPolicy::with_timeout(Duration::from_millis(20)));
        let t0 = Instant::now();
        let err = ctl
            .wait_until(
                0,
                0,
                "test",
                || "flag".into(),
                || {
                    std::thread::sleep(Duration::from_millis(1));
                    false
                },
            )
            .unwrap_err();
        assert!(matches!(err, SyncFault::TimedOut { .. }), "{err:?}");
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "a 20 ms timeout took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn double_timeout_reports_one_timed_out_and_one_poisoned() {
        // Two waiters launched together meet the same deadline, and
        // yielding waiters check it on every poll: both reach the timeout
        // arm within microseconds. Only the poison CAS winner may own the
        // diagnostic; the loser is the winner's victim.
        for i in 0..200 {
            let ctl = BarrierControl::new(2, SyncPolicy::with_timeout(Duration::from_millis(10)));
            let start = std::sync::Barrier::new(2);
            let faults: Vec<SyncFault> = std::thread::scope(|s| {
                let waiters: Vec<_> = (0..2)
                    .map(|b| {
                        let (ctl, start) = (&ctl, &start);
                        s.spawn(move || {
                            start.wait();
                            ctl.wait_until(b, 0, "test", || "flag".into(), || false)
                                .unwrap_err()
                        })
                    })
                    .collect();
                waiters.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let (winner, _, cause) = ctl.poisoned().expect("a timeout poisons the barrier");
            assert_eq!(cause, PoisonCause::Timeout);
            for (b, fault) in faults.iter().enumerate() {
                match fault {
                    SyncFault::TimedOut { diagnostic } => {
                        assert_eq!((b, diagnostic.waiting_block), (winner, winner), "iter {i}");
                    }
                    SyncFault::Poisoned { block, cause, .. } => {
                        assert_ne!(b, winner, "iter {i}: the winner must report TimedOut");
                        assert_eq!((*block, *cause), (winner, PoisonCause::Timeout));
                    }
                }
            }
        }
    }

    #[test]
    fn yielding_waiter_unwinds_on_poison() {
        // The poison lands once the waiter is well past its spin phase, so
        // it is seen by a poll between two yields.
        let ctl = BarrierControl::new(2, SyncPolicy::default());
        let polls = std::sync::atomic::AtomicU32::new(0);
        let res = std::thread::scope(|s| {
            let h = s.spawn(|| {
                ctl.wait_until(
                    0,
                    0,
                    "test",
                    || "flag".into(),
                    || {
                        polls.fetch_add(1, Ordering::Relaxed);
                        false
                    },
                )
            });
            while polls.load(Ordering::Relaxed) <= 4 * SPIN_POLLS {
                std::thread::yield_now();
            }
            ctl.poison(1, 4, PoisonCause::Panic);
            h.join().unwrap()
        });
        assert_eq!(
            res.unwrap_err(),
            SyncFault::Poisoned {
                block: 1,
                round: 4,
                cause: PoisonCause::Panic
            }
        );
    }

    #[test]
    fn progress_table_tracks_arrivals_and_departures() {
        let ctl = BarrierControl::new(2, SyncPolicy::default());
        ctl.record_arrival(0, 0);
        ctl.record_departure(0, 0);
        ctl.record_arrival(1, 0);
        let (a, d) = ctl.progress();
        assert_eq!(a, vec![1, 1]);
        assert_eq!(d, vec![1, 0]);
    }
}
