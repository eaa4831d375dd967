//! Sense-reversing centralized barrier (extension; not in the paper).
//!
//! The classic shared-memory barrier from the CPU literature the paper cites
//! (Mellor-Crummey/Scott style centralized barrier): one atomic arrival
//! counter plus a global *sense* flag that flips each round; waiters spin on
//! the sense rather than on the counter value. Included as a baseline to
//! position the paper's designs against the traditional approach — it still
//! performs one atomic RMW per block per round, so it scales like the GPU
//! simple barrier, but its release broadcast is a single flag flip rather
//! than a counter comparison.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::barrier::{BarrierControl, BarrierShared, SyncFault, SyncPolicy};

/// Shared state: arrival counter + global sense.
pub struct SenseReversingSync {
    count: AtomicUsize,
    /// Global sense: counts completed rounds; a block in round `r` leaves once
    /// `sense > r`.
    sense: AtomicU64,
    n_blocks: usize,
    control: BarrierControl,
}

impl SenseReversingSync {
    /// Barrier for `n_blocks` blocks.
    ///
    /// # Panics
    /// Panics if `n_blocks == 0`.
    pub fn new(n_blocks: usize) -> Self {
        Self::with_policy(n_blocks, SyncPolicy::default())
    }

    /// Barrier with an explicit fault policy.
    ///
    /// # Panics
    /// Panics if `n_blocks == 0`.
    pub fn with_policy(n_blocks: usize, policy: SyncPolicy) -> Self {
        assert!(n_blocks > 0, "barrier needs at least one block");
        SenseReversingSync {
            count: AtomicUsize::new(0),
            sense: AtomicU64::new(0),
            n_blocks,
            control: BarrierControl::new(n_blocks, policy),
        }
    }
}

impl BarrierShared for SenseReversingSync {
    fn name(&self) -> &'static str {
        "sense-reversing"
    }

    fn control(&self) -> &BarrierControl {
        &self.control
    }

    fn protocol(&self, bid: usize, my_round: u64) -> Result<(), SyncFault> {
        let ctl = &self.control;
        let arrived = self.count.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.n_blocks {
            self.count.store(0, Ordering::Relaxed);
            self.sense.fetch_add(1, Ordering::Release);
            // The sense flip releases every peer; wake parked waiters.
            ctl.wake_parked();
            Ok(())
        } else {
            ctl.wait_until(
                bid,
                my_round,
                self.name(),
                || format!("sense > {my_round}"),
                || self.sense.load(Ordering::Acquire) > my_round,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::harness;
    use std::sync::Arc;

    #[test]
    fn various_counts() {
        for n in [1, 2, 3, 8, 30] {
            harness::exercise(Arc::new(SenseReversingSync::new(n)), n, 300);
        }
    }

    #[test]
    fn many_rounds() {
        harness::exercise(Arc::new(SenseReversingSync::new(4)), 4, 3000);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(SenseReversingSync::new(4).name(), "sense-reversing");
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_blocks_rejected() {
        let _ = SenseReversingSync::new(0);
    }

    #[test]
    fn abandoned_barrier_times_out() {
        use std::time::Duration;
        let policy = SyncPolicy::with_timeout(Duration::from_millis(20));
        let b = SenseReversingSync::with_policy(2, policy);
        match b.sync(0, 0) {
            Err(SyncFault::TimedOut { diagnostic }) => {
                assert_eq!(diagnostic.stragglers(), vec![1]);
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }
}
