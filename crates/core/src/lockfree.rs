//! GPU lock-free synchronization (paper Section 5.3, Figure 9).
//!
//! Two arrays, `Arrayin` and `Arrayout`, one element per block; **no atomic
//! read-modify-write anywhere**:
//!
//! 1. Block `i`'s leading thread sets `Arrayin[i] = goalVal`, then
//!    busy-waits on `Arrayout[i]`.
//! 2. A *collector block* (the paper uses block 1) waits until all of
//!    `Arrayin` equals `goalVal` — using its first `N` threads in parallel,
//!    one per element — calls `__syncthreads()`, then sets every
//!    `Arrayout[i] = goalVal`.
//! 3. Each block resumes when its `Arrayout` slot reaches the goal.
//!
//! Cost model (Eq. 9): `t_GLS = t_SI + t_CI + t_Sync + t_SO + t_CO` —
//! **independent of the number of blocks**, which is why Figure 11 shows a
//! flat line and why this is the fastest method for all but the smallest
//! grids.
//!
//! In this host runtime a block is one OS thread, so the collector checks
//! the `N` in-flags in a loop (the paper's parallel-vs-serial collector
//! distinction is a *timing* question, modeled in `blocksync-sim` and
//! compared by the `ablations` bin's collector rows). Flags are cache-line
//! padded by default; [`GpuLockFreeSync::new_unpadded`] packs them
//! contiguously like the paper's `int` arrays for the false-sharing
//! ablation.

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam::utils::CachePadded;

use crate::barrier::{BarrierControl, BarrierShared, SyncFault, SyncPolicy};

enum Flags {
    Padded(Vec<CachePadded<AtomicU64>>),
    Unpadded(Vec<AtomicU64>),
}

impl Flags {
    fn new(n: usize, padded: bool) -> Self {
        if padded {
            Flags::Padded(
                (0..n)
                    .map(|_| CachePadded::new(AtomicU64::new(0)))
                    .collect(),
            )
        } else {
            Flags::Unpadded((0..n).map(|_| AtomicU64::new(0)).collect())
        }
    }

    #[inline]
    fn load(&self, i: usize) -> u64 {
        match self {
            Flags::Padded(v) => v[i].load(Ordering::Acquire),
            Flags::Unpadded(v) => v[i].load(Ordering::Acquire),
        }
    }

    #[inline]
    fn store(&self, i: usize, val: u64) {
        match self {
            Flags::Padded(v) => v[i].store(val, Ordering::Release),
            Flags::Unpadded(v) => v[i].store(val, Ordering::Release),
        }
    }
}

/// Shared state: the paper's `Arrayin` / `Arrayout`.
pub struct GpuLockFreeSync {
    array_in: Flags,
    array_out: Flags,
    n_blocks: usize,
    collector: usize,
    control: BarrierControl,
}

impl GpuLockFreeSync {
    /// Lock-free barrier for `n_blocks` blocks with cache-line-padded flags.
    ///
    /// # Panics
    /// Panics if `n_blocks == 0`.
    pub fn new(n_blocks: usize) -> Self {
        Self::build(n_blocks, true, SyncPolicy::default())
    }

    /// Variant with densely packed flags (one `u64` apart), matching the
    /// paper's plain `int` arrays. On a cache-coherent CPU this induces
    /// false sharing — the Criterion group `lockfree_flag_padding`
    /// quantifies it.
    pub fn new_unpadded(n_blocks: usize) -> Self {
        Self::build(n_blocks, false, SyncPolicy::default())
    }

    /// Padded barrier with an explicit fault policy.
    ///
    /// # Panics
    /// Panics if `n_blocks == 0`.
    pub fn with_policy(n_blocks: usize, policy: SyncPolicy) -> Self {
        Self::build(n_blocks, true, policy)
    }

    fn build(n_blocks: usize, padded: bool, policy: SyncPolicy) -> Self {
        assert!(n_blocks > 0, "barrier needs at least one block");
        GpuLockFreeSync {
            array_in: Flags::new(n_blocks, padded),
            array_out: Flags::new(n_blocks, padded),
            n_blocks,
            // Figure 9 hard-codes block 1 as the collector; fall back to
            // block 0 when it is the only block.
            collector: if n_blocks > 1 { 1 } else { 0 },
            control: BarrierControl::new(n_blocks, policy),
        }
    }

    /// Index of the collector block (block 1, per the paper).
    pub fn collector(&self) -> usize {
        self.collector
    }
}

impl BarrierShared for GpuLockFreeSync {
    fn name(&self) -> &'static str {
        "gpu-lock-free"
    }

    fn control(&self) -> &BarrierControl {
        &self.control
    }

    /// Figure 9's three steps.
    fn protocol(&self, bid: usize, round: u64) -> Result<(), SyncFault> {
        let ctl = &self.control;
        let goal = round + 1;
        self.array_in.store(bid, goal);
        // record_arrival's wake precedes the Arrayin store, so a parked
        // collector could re-poll just before the flag lands; wake again
        // now that it is visible.
        ctl.wake_parked();
        if bid == self.collector {
            for i in 0..self.n_blocks {
                ctl.wait_until(
                    bid,
                    round,
                    self.name(),
                    || format!("Arrayin[{i}] >= {goal}"),
                    || self.array_in.load(i) >= goal,
                )?;
            }
            // __syncthreads() would order the collector's checking threads
            // here; within one OS thread it is a no-op.
            for i in 0..self.n_blocks {
                self.array_out.store(i, goal);
            }
            // The broadcast releases every peer parked on Arrayout.
            ctl.wake_parked();
        }
        ctl.wait_until(
            bid,
            round,
            self.name(),
            || format!("Arrayout[{bid}] >= {goal}"),
            || self.array_out.load(bid) >= goal,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::harness;
    use std::sync::Arc;

    #[test]
    fn single_block_never_blocks() {
        let b = GpuLockFreeSync::new(1);
        assert_eq!(b.collector(), 0);
        for r in 0..1000 {
            b.sync(0, r).unwrap();
        }
    }

    #[test]
    fn collector_is_block_one() {
        assert_eq!(GpuLockFreeSync::new(2).collector(), 1);
        assert_eq!(GpuLockFreeSync::new(30).collector(), 1);
    }

    #[test]
    fn padded_various_counts() {
        for n in [2, 3, 4, 8, 16, 30] {
            harness::exercise(Arc::new(GpuLockFreeSync::new(n)), n, 300);
        }
    }

    #[test]
    fn unpadded_various_counts() {
        for n in [2, 5, 30] {
            harness::exercise(Arc::new(GpuLockFreeSync::new_unpadded(n)), n, 300);
        }
    }

    #[test]
    fn many_rounds_two_blocks() {
        harness::exercise(Arc::new(GpuLockFreeSync::new(2)), 2, 5000);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(GpuLockFreeSync::new(4).name(), "gpu-lock-free");
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_blocks_rejected() {
        let _ = GpuLockFreeSync::new(0);
    }

    #[test]
    fn abandoned_barrier_times_out_and_poisons_peers() {
        use crate::barrier::PoisonCause;
        use std::time::Duration;
        let policy = SyncPolicy::with_timeout(Duration::from_millis(30));
        let shared = GpuLockFreeSync::with_policy(3, policy);
        // Block 0 never arrives. Block 1 is the collector and times out on
        // Arrayin[0]; block 2 must then see the poison rather than hang.
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = [1usize, 2]
                .into_iter()
                .map(|b| {
                    let shared = &shared;
                    s.spawn(move || shared.sync(b, 0))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let timed_out = results
            .iter()
            .filter(|r| matches!(r, Err(SyncFault::TimedOut { .. })))
            .count();
        let poisoned = results
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    Err(SyncFault::Poisoned {
                        cause: PoisonCause::Timeout,
                        ..
                    })
                )
            })
            .count();
        assert_eq!(timed_out, 1, "{results:?}");
        assert_eq!(poisoned, 1, "{results:?}");
        if let Err(SyncFault::TimedOut { diagnostic }) = &results[0] {
            assert_eq!(diagnostic.waiting_block, 1);
            assert_eq!(diagnostic.stragglers(), vec![0]);
            assert!(
                diagnostic.flag.contains("Arrayin[0]"),
                "{}",
                diagnostic.flag
            );
        }
    }
}
