//! Dissemination (butterfly) barrier — extension, not in the paper.
//!
//! The classic O(log N)-round distributed barrier from the shared-memory
//! literature the paper cites (Lubachevsky; Gupta & Hill): in round `k`,
//! block `i` signals block `(i + 2^k) mod N` and waits for a signal from
//! `(i - 2^k) mod N`. After `ceil(log2 N)` rounds every block transitively
//! depends on every other, with **no atomic read-modify-writes and no
//! central collector** — each flag has exactly one writer and one reader.
//!
//! Positioning vs the paper's designs: like GPU lock-free sync it avoids
//! atomics, but it removes the collector bottleneck at the cost of
//! `log2 N` dependent signal hops. On hardware where a memory round trip
//! dominates (the GTX 280), `log2 N` *sequential* hops lose to the
//! lock-free barrier's two hops; on hosts with fast caches it is highly
//! competitive. The `barriers` Criterion bench and the simulator program
//! make that trade-off measurable.

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam::utils::CachePadded;

use crate::barrier::{BarrierControl, BarrierShared, SyncFault, SyncPolicy};

/// Shared state: `rounds x N` single-writer single-reader flags.
pub struct DisseminationSync {
    /// `flags[k][i]`: signal from block `(i - 2^k) mod N` to block `i` —
    /// monotone round counters, like the paper's `goalVal` scheme.
    flags: Vec<Vec<CachePadded<AtomicU64>>>,
    n_blocks: usize,
    log_rounds: usize,
    control: BarrierControl,
}

impl DisseminationSync {
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
        let log_rounds = usize::BITS as usize - (n_blocks - 1).leading_zeros() as usize;
        let flags = (0..log_rounds)
            .map(|_| {
                (0..n_blocks)
                    .map(|_| CachePadded::new(AtomicU64::new(0)))
                    .collect()
            })
            .collect();
        DisseminationSync {
            flags,
            n_blocks,
            log_rounds,
            control: BarrierControl::new(n_blocks, policy),
        }
    }

    /// Signal rounds per barrier (`ceil(log2 N)`).
    pub fn signal_rounds(&self) -> usize {
        self.log_rounds
    }
}

impl BarrierShared for DisseminationSync {
    fn name(&self) -> &'static str {
        "dissemination"
    }

    fn control(&self) -> &BarrierControl {
        &self.control
    }

    fn protocol(&self, me: usize, round: u64) -> Result<(), SyncFault> {
        let ctl = &self.control;
        let n = self.n_blocks;
        let goal = round + 1;
        for (k, level) in self.flags.iter().enumerate() {
            let dist = 1usize << k;
            let to = (me + dist) % n;
            // Signal the partner `dist` ahead, then wait for the partner
            // `dist` behind. Flags are per-destination, so each has one
            // writer (us) and one reader (the destination).
            level[to].store(goal, Ordering::Release);
            ctl.wake_parked();
            ctl.wait_until(
                me,
                round,
                self.name(),
                || format!("flags[{k}][{me}] >= {goal}"),
                || level[me].load(Ordering::Acquire) >= goal,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::harness;
    use std::sync::Arc;

    #[test]
    fn signal_round_counts() {
        assert_eq!(DisseminationSync::new(1).signal_rounds(), 0);
        assert_eq!(DisseminationSync::new(2).signal_rounds(), 1);
        assert_eq!(DisseminationSync::new(3).signal_rounds(), 2);
        assert_eq!(DisseminationSync::new(4).signal_rounds(), 2);
        assert_eq!(DisseminationSync::new(5).signal_rounds(), 3);
        assert_eq!(DisseminationSync::new(30).signal_rounds(), 5);
        assert_eq!(DisseminationSync::new(32).signal_rounds(), 5);
    }

    #[test]
    fn single_block_never_blocks() {
        let b = DisseminationSync::new(1);
        for r in 0..1000 {
            b.sync(0, r).unwrap();
        }
    }

    #[test]
    fn power_of_two_counts() {
        for n in [2, 4, 8, 16] {
            harness::exercise(Arc::new(DisseminationSync::new(n)), n, 300);
        }
    }

    #[test]
    fn non_power_of_two_counts() {
        // The wrap-around modular pattern must synchronize any N.
        for n in [3, 5, 6, 7, 11, 30] {
            harness::exercise(Arc::new(DisseminationSync::new(n)), n, 200);
        }
    }

    #[test]
    fn many_rounds() {
        harness::exercise(Arc::new(DisseminationSync::new(6)), 6, 3000);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(DisseminationSync::new(4).name(), "dissemination");
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_blocks_rejected() {
        let _ = DisseminationSync::new(0);
    }

    #[test]
    fn abandoned_barrier_times_out() {
        use std::time::Duration;
        let policy = SyncPolicy::with_timeout(Duration::from_millis(20));
        let b = DisseminationSync::with_policy(4, policy);
        match b.sync(2, 0) {
            Err(SyncFault::TimedOut { diagnostic }) => {
                assert_eq!(diagnostic.waiting_block, 2);
                assert_eq!(diagnostic.stragglers(), vec![0, 1, 3]);
                assert!(
                    diagnostic.flag.contains("flags[0][2]"),
                    "{}",
                    diagnostic.flag
                );
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }
}
