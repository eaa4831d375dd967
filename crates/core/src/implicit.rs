//! The mutex + condvar rendezvous CPU implicit synchronization (paper
//! Section 4.2) used to run on — kept only for the
//! [`crate::SyncMethod::build_barrier_with`] shim.
//!
//! The paper's implicit mode relaunches the kernel every round but lets
//! the driver *pipeline* the launches: no `cudaThreadSynchronize()`, the
//! queue itself orders round `r+1` after round `r`. The host runtime now
//! runs it that way (`core::runtime`): a launch of R rounds is R log
//! entries published at submit, and each round's assembly gate is the
//! kernel boundary. No launch builds this rendezvous any more. Its one
//! caller is the frozen benchmark's bare CPU-implicit rung
//! (`perf/src/ladder.rs`, `bare_barrier_ns`) through
//! `build_barrier_with`. Once the benchmark's next revision drops that
//! call, this file, the shim's arm and the [`BarrierShared::poison`]
//! override go.
//!
//! It is a barrier — arrive, wait for peers, depart — whose waiters
//! **sleep** on the condvar instead of polling, so the poison word alone
//! cannot wake them. `CpuImplicitSync` therefore overrides
//! [`BarrierShared::poison`] to also signal the condvar; see that hook's
//! docs.

use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use crate::barrier::{now, BarrierControl, BarrierShared, PoisonCause, SyncFault, SyncPolicy};
use crate::error::{StuckDiagnostic, StuckPhase};

/// Rendezvous state guarded by the driver mutex.
struct DriverState {
    /// Blocks that have checked in for the current epoch.
    arrived: usize,
    /// Completed rendezvous rounds (epoch `e` is open until its last
    /// arrival bumps this to `e + 1`).
    epoch: u64,
}

/// Shared state of the CPU-implicit rendezvous: the "driver" every block
/// reports to at the end of each round, standing in for the device
/// driver's pipelined launch queue.
pub(crate) struct CpuImplicitSync {
    state: Mutex<DriverState>,
    cv: Condvar,
    n_blocks: usize,
    control: BarrierControl,
}

impl CpuImplicitSync {
    /// Rendezvous for `n_blocks` blocks with the default (unbounded)
    /// policy.
    ///
    /// # Panics
    /// Panics if `n_blocks == 0`.
    #[cfg(test)]
    fn new(n_blocks: usize) -> Self {
        Self::with_policy(n_blocks, SyncPolicy::default())
    }

    /// Rendezvous with an explicit fault policy. The policy timeout bounds
    /// each condvar wait (waiters sleep from the start, they do not poll).
    ///
    /// # Panics
    /// Panics if `n_blocks == 0`.
    pub(crate) fn with_policy(n_blocks: usize, policy: SyncPolicy) -> Self {
        assert!(n_blocks > 0, "barrier needs at least one block");
        CpuImplicitSync {
            state: Mutex::new(DriverState {
                arrived: 0,
                epoch: 0,
            }),
            cv: Condvar::new(),
            n_blocks,
            control: BarrierControl::new(n_blocks, policy),
        }
    }

    fn stuck_diagnostic(&self, block: usize, round: u64) -> Box<StuckDiagnostic> {
        let (arrivals, departures) = self.control.progress();
        Box::new(StuckDiagnostic {
            barrier: self.name().to_string(),
            waiting_block: block,
            round: round as usize,
            flag: format!("driver epoch > {round}"),
            timeout: self.control.policy().timeout.unwrap_or_default(),
            arrivals,
            departures,
            recent_events: self.control.straggler_trail(block, round),
            phase: StuckPhase::Barrier,
        })
    }
}

impl BarrierShared for CpuImplicitSync {
    fn name(&self) -> &'static str {
        "cpu-implicit"
    }

    fn control(&self) -> &BarrierControl {
        &self.control
    }

    /// Poison and *wake the sleepers*: waiters park on the condvar, so the
    /// poison word alone is only observed at the next timeout tick (or
    /// never, with an unbounded policy). Taking the driver lock before
    /// notifying closes the race with a waiter that checked the poison
    /// word but has not yet parked.
    fn poison(&self, block: usize, round: usize, cause: PoisonCause) {
        self.control.poison(block, round, cause);
        let _guard = self.state.lock();
        self.cv.notify_all();
    }

    /// Check in with the driver for epoch `e` (the block's count of
    /// completed rendezvous rounds) and sleep until it is dispatched. A
    /// sleep has no spin phase to leave, so this never returns an instant:
    /// the round loop times these waits by its sample. The clock is read
    /// only for a timeout's deadline.
    fn protocol(&self, bid: usize, e: u64) -> Result<Option<Instant>, SyncFault> {
        let ctl = &self.control;
        let mut g = self.state.lock();
        if let Some((pb, pr, cause)) = ctl.poisoned() {
            return Err(SyncFault::Poisoned {
                block: pb,
                round: pr,
                cause,
            });
        }
        g.arrived += 1;
        if g.arrived == self.n_blocks {
            // Last arrival of the epoch: dispatch the next one, the
            // driver draining its pipelined launch queue.
            g.arrived = 0;
            g.epoch = e + 1;
            self.cv.notify_all();
        } else {
            let mut start = None;
            while g.epoch <= e {
                if let Some((pb, pr, cause)) = ctl.poisoned() {
                    return Err(SyncFault::Poisoned {
                        block: pb,
                        round: pr,
                        cause,
                    });
                }
                match ctl.policy().timeout {
                    None => self.cv.wait(&mut g),
                    Some(timeout) => {
                        let at = now();
                        let since = *start.get_or_insert(at);
                        let Some(remaining) = timeout.checked_sub(at - since) else {
                            // Own wait expired: poison (first caller wins)
                            // and wake peers so they unwind too. The lock
                            // is already held, so notify directly instead
                            // of re-entering `BarrierShared::poison`.
                            // Snapshot before poisoning: the poison frees
                            // cooperative stragglers, whose late arrivals
                            // would otherwise blank the stragglers() list.
                            let diagnostic = self.stuck_diagnostic(bid, e);
                            let won = ctl.poison(bid, e as usize, PoisonCause::Timeout);
                            self.cv.notify_all();
                            if !won {
                                // A peer's poison landed since this
                                // wakeup's check (`BarrierShared::poison`
                                // writes the word before it takes the
                                // driver lock): only the winner owns the
                                // diagnostic, this block is its victim.
                                return Err(ctl.poisoned_fault());
                            }
                            return Err(SyncFault::TimedOut { diagnostic });
                        };
                        let _ = self.cv.wait_for(&mut g, remaining);
                    }
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::harness;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn single_block_never_blocks() {
        let b = CpuImplicitSync::new(1);
        for r in 0..1000 {
            b.sync(0, r).unwrap();
        }
    }

    #[test]
    fn full_barrier_semantics_under_harness() {
        harness::exercise(Arc::new(CpuImplicitSync::new(2)), 2, 2000);
        harness::exercise(Arc::new(CpuImplicitSync::new(8)), 8, 500);
    }

    #[test]
    fn oversubscribed_grids_are_fine() {
        // No per-SM limit for CPU-side sync: the paper runs up to 120
        // blocks through the driver.
        harness::exercise(Arc::new(CpuImplicitSync::new(64)), 64, 50);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_blocks_rejected() {
        let _ = CpuImplicitSync::new(0);
    }

    #[test]
    fn name_and_counts() {
        let b = CpuImplicitSync::new(5);
        assert_eq!(b.num_blocks(), 5);
        assert_eq!(b.name(), "cpu-implicit");
    }

    #[test]
    fn abandoned_rendezvous_times_out_with_diagnostic() {
        let policy = SyncPolicy::with_timeout(Duration::from_millis(20));
        let b = CpuImplicitSync::with_policy(2, policy);
        // Block 1 never arrives; block 0 sleeps on the condvar and must
        // wake at the deadline, not hang.
        match b.sync(0, 0) {
            Err(SyncFault::TimedOut { diagnostic }) => {
                assert_eq!(diagnostic.waiting_block, 0);
                assert_eq!(diagnostic.round, 0);
                assert_eq!(diagnostic.barrier, "cpu-implicit");
                assert_eq!(diagnostic.stragglers(), vec![1], "{diagnostic}");
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn poison_wakes_a_sleeping_waiter() {
        // Unbounded policy: without the poison hook's notify, the waiter
        // would sleep forever.
        let b = Arc::new(CpuImplicitSync::new(2));
        let b2 = Arc::clone(&b);
        let sleeper = std::thread::spawn(move || b2.sync(0, 0));
        std::thread::sleep(Duration::from_millis(50));
        BarrierShared::poison(&*b, 1, 3, PoisonCause::Panic);
        let got = sleeper.join().unwrap();
        assert_eq!(
            got,
            Err(SyncFault::Poisoned {
                block: 1,
                round: 3,
                cause: PoisonCause::Panic
            })
        );
    }

    #[test]
    fn timeout_after_a_peers_poison_landed_reports_the_peer() {
        // The one-`TimedOut` rule of `BarrierControl::wait_until`, on the
        // barrier that does not wait through it: block 0 sleeps towards a
        // 3 ms deadline while a peer's panic poison is aimed at the same
        // instant, swept across it. Whichever poison won the word, block 0
        // must report that one. Nothing is asserted when its own timeout
        // wins, so timing can only hide the race, never fail the test.
        let timeout = Duration::from_millis(3);
        for i in 0..400u64 {
            let b = CpuImplicitSync::with_policy(3, SyncPolicy::with_timeout(timeout));
            let start = std::sync::Barrier::new(2);
            let fault = std::thread::scope(|s| {
                let waiter = s.spawn(|| {
                    start.wait();
                    b.sync(0, 0).unwrap_err()
                });
                start.wait();
                let at = Instant::now() + Duration::from_micros(2900 + i % 400);
                while Instant::now() < at {
                    std::hint::spin_loop();
                }
                BarrierShared::poison(&b, 2, 0, PoisonCause::Panic);
                waiter.join().unwrap()
            });
            if b.control.poisoned() == Some((2, 0, PoisonCause::Panic)) {
                let peer = SyncFault::Poisoned {
                    block: 2,
                    round: 0,
                    cause: PoisonCause::Panic,
                };
                assert_eq!(fault, peer, "iter {i}");
            }
        }
    }
}
