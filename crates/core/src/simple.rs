//! GPU simple synchronization (paper Section 5.1, Figure 6).
//!
//! One global mutex counter. On arrival, each block's leading thread
//! atomically increments `g_mutex` and then spins until the counter reaches
//! `goalVal` — the number of blocks times the number of completed rounds.
//!
//! Cost model (Eq. 6): `t_GSS = N * t_a + t_c` — the atomic additions
//! serialize, so the barrier is **linear in the block count**, which is
//! exactly what the micro-benchmark in Figure 11 shows.
//!
//! Two counter-recycling strategies are provided (see
//! [`ResetStrategy`]): the paper's monotone `goalVal += N` scheme and a
//! reset-to-zero scheme, so the paper's claim that the former is cheaper can
//! be measured (Criterion group `simple_sync_reset_strategy`).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::barrier::{BarrierControl, BarrierShared, SyncFault, SyncPolicy};
use crate::method::ResetStrategy;

/// Shared state: the paper's `__device__ int g_mutex` (widened to 64 bits so
/// the monotone goal can never wrap in practice).
pub struct GpuSimpleSync {
    g_mutex: AtomicU64,
    /// Epoch counter used only by [`ResetStrategy::ResetCounter`].
    epoch: AtomicU64,
    n_blocks: usize,
    strategy: ResetStrategy,
    control: BarrierControl,
}

impl GpuSimpleSync {
    /// Barrier for `n_blocks` blocks with the paper's increment-goal
    /// strategy.
    pub fn new(n_blocks: usize) -> Self {
        Self::with_options(
            n_blocks,
            ResetStrategy::IncrementGoal,
            SyncPolicy::default(),
        )
    }

    /// Barrier with an explicit counter-recycling strategy.
    ///
    /// # Panics
    /// Panics if `n_blocks == 0`.
    pub fn with_strategy(n_blocks: usize, strategy: ResetStrategy) -> Self {
        Self::with_options(n_blocks, strategy, SyncPolicy::default())
    }

    /// Barrier with an explicit fault policy.
    pub fn with_policy(n_blocks: usize, policy: SyncPolicy) -> Self {
        Self::with_options(n_blocks, ResetStrategy::IncrementGoal, policy)
    }

    /// Barrier with both strategy and fault policy chosen.
    ///
    /// # Panics
    /// Panics if `n_blocks == 0`.
    pub fn with_options(n_blocks: usize, strategy: ResetStrategy, policy: SyncPolicy) -> Self {
        assert!(n_blocks > 0, "barrier needs at least one block");
        GpuSimpleSync {
            g_mutex: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            n_blocks,
            strategy,
            control: BarrierControl::new(n_blocks, policy),
        }
    }

    /// The strategy this barrier was built with.
    pub fn strategy(&self) -> ResetStrategy {
        self.strategy
    }
}

impl BarrierShared for GpuSimpleSync {
    fn name(&self) -> &'static str {
        "gpu-simple"
    }

    fn control(&self) -> &BarrierControl {
        &self.control
    }

    fn protocol(&self, bid: usize, round: u64) -> Result<(), SyncFault> {
        let ctl = &self.control;
        let n = self.n_blocks as u64;
        match self.strategy {
            ResetStrategy::IncrementGoal => {
                // goalVal = N on the first call, then += N each call.
                let goal = (round + 1) * n;
                self.g_mutex.fetch_add(1, Ordering::AcqRel);
                // The last add releases everyone; wake parked waiters so
                // they re-poll now instead of at their park bound.
                ctl.wake_parked();
                // Monotone comparison (not equality) tolerates observing a
                // later round's additions.
                ctl.wait_until(
                    bid,
                    round,
                    self.name(),
                    || format!("g_mutex >= {goal}"),
                    || self.g_mutex.load(Ordering::Acquire) >= goal,
                )
            }
            ResetStrategy::ResetCounter => {
                let arrived = self.g_mutex.fetch_add(1, Ordering::AcqRel) + 1;
                if arrived == n {
                    // Last arriver resets the counter, then publishes the
                    // new epoch. The reset is ordered before the epoch store
                    // (Release), and other blocks only resume (and re-add)
                    // after acquiring the new epoch, so the reset cannot
                    // race with next-round additions.
                    self.g_mutex.store(0, Ordering::Relaxed);
                    self.epoch.fetch_add(1, Ordering::Release);
                    ctl.wake_parked();
                    Ok(())
                } else {
                    ctl.wait_until(
                        bid,
                        round,
                        self.name(),
                        || format!("epoch > {round}"),
                        || self.epoch.load(Ordering::Acquire) > round,
                    )
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::harness;
    use std::sync::Arc;

    #[test]
    fn single_block_never_blocks() {
        let b = GpuSimpleSync::new(1);
        for r in 0..1000 {
            b.sync(0, r).unwrap();
        }
    }

    #[test]
    fn two_blocks_many_rounds() {
        harness::exercise(Arc::new(GpuSimpleSync::new(2)), 2, 2000);
    }

    #[test]
    fn eight_blocks_increment_goal() {
        harness::exercise(Arc::new(GpuSimpleSync::new(8)), 8, 500);
    }

    #[test]
    fn eight_blocks_reset_counter() {
        harness::exercise(
            Arc::new(GpuSimpleSync::with_strategy(8, ResetStrategy::ResetCounter)),
            8,
            500,
        );
    }

    #[test]
    fn thirty_blocks_like_gtx280() {
        harness::exercise(Arc::new(GpuSimpleSync::new(30)), 30, 100);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_blocks_rejected() {
        let _ = GpuSimpleSync::new(0);
    }

    #[test]
    fn name_and_counts() {
        let b = GpuSimpleSync::new(5);
        assert_eq!(b.num_blocks(), 5);
        assert_eq!(b.name(), "gpu-simple");
        assert_eq!(b.strategy(), ResetStrategy::IncrementGoal);
    }

    #[test]
    fn abandoned_barrier_times_out_both_strategies() {
        use std::time::Duration;
        for strategy in [ResetStrategy::IncrementGoal, ResetStrategy::ResetCounter] {
            let policy = SyncPolicy::with_timeout(Duration::from_millis(20));
            let b = GpuSimpleSync::with_options(2, strategy, policy);
            // Block 1 never arrives; block 0 must give up, not hang.
            match b.sync(0, 0) {
                Err(SyncFault::TimedOut { diagnostic }) => {
                    assert_eq!(diagnostic.waiting_block, 0);
                    assert_eq!(diagnostic.round, 0);
                    assert_eq!(diagnostic.stragglers(), vec![1], "{strategy:?}");
                }
                other => panic!("{strategy:?}: expected timeout, got {other:?}"),
            }
        }
    }
}
