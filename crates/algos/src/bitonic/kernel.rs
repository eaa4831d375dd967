//! Bitonic sort as a grid kernel: one round per network step.
//!
//! Each round applies one compare-exchange step `(k, j)`; its `n/2` pairs
//! are partitioned across blocks. Pair `p` is `(i, i | j)` where `i` is `p`
//! with a zero bit inserted at `j`'s position, so a block walks exactly the
//! pairs it owns — no index is visited only to be skipped — and every pair
//! is touched by exactly one block: rounds are race-free under a correct
//! grid barrier. The exchange is a `min`/`max` select stored to both
//! slots, because whether random keys are out of order is a coin flip a
//! branch predictor loses. This is the kernel the paper contrasts with the
//! CUDA SDK's single-block bitonic sort: the grid barrier lets the network
//! span all 30 SMs and therefore sort far more than 512 keys.

use blocksync_core::{BlockCtx, GlobalBuffer, RoundKernel};

use super::reference::{network_schedule, NetworkStep};

/// The bitonic sorting network as a round-structured kernel.
pub struct GridBitonic {
    data: GlobalBuffer<u32>,
    schedule: Vec<NetworkStep>,
    n: usize,
}

impl GridBitonic {
    /// Prepare to sort `keys` (length must be a power of two).
    ///
    /// # Panics
    /// Panics unless the length is a power of two.
    pub fn new(keys: &[u32]) -> Self {
        let n = keys.len();
        let schedule = network_schedule(n); // validates the length
        GridBitonic {
            data: GlobalBuffer::from_slice(keys),
            schedule,
            n,
        }
    }

    /// The (sorted, after execution) keys.
    pub fn output(&self) -> Vec<u32> {
        self.data.to_vec()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

impl RoundKernel for GridBitonic {
    fn rounds(&self) -> usize {
        self.schedule.len()
    }

    fn round(&self, ctx: &BlockCtx, round: usize) {
        let NetworkStep { k, j } = self.schedule[round];
        for p in ctx.chunk(self.n / 2) {
            let low = p & (j - 1);
            let i = ((p - low) << 1) | low;
            let partner = i | j;
            let (a, b) = (self.data.get(i), self.data.get(partner));
            let (first, second) = if i & k == 0 {
                (a.min(b), a.max(b))
            } else {
                (a.max(b), a.min(b))
            };
            self.data.set(i, first);
            self.data.set(partner, second);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqgen::random_keys;
    use blocksync_core::{GridConfig, LaunchPlan, SyncMethod};

    fn run_sort(keys: &[u32], n_blocks: usize, method: SyncMethod) -> Vec<u32> {
        let kernel = GridBitonic::new(keys);
        LaunchPlan::compile(GridConfig::new(n_blocks, 64), method)
            .and_then(|plan| plan.run(&kernel))
            .unwrap();
        kernel.output()
    }

    fn expect_sorted(keys: &[u32]) -> Vec<u32> {
        let mut v = keys.to_vec();
        v.sort_unstable();
        v
    }

    #[test]
    fn sorts_under_all_methods() {
        let keys = random_keys(1024, 50);
        let expected = expect_sorted(&keys);
        for method in SyncMethod::GPU_METHODS {
            assert_eq!(run_sort(&keys, 6, method), expected, "{method}");
        }
        for method in [SyncMethod::CpuExplicit, SyncMethod::CpuImplicit] {
            assert_eq!(run_sort(&keys, 6, method), expected, "{method}");
        }
    }

    #[test]
    fn beyond_single_block_capacity() {
        // The paper's motivation: the SDK sort caps at 512 keys (one
        // block); the grid-barrier version sorts more.
        let keys = random_keys(8192, 51);
        let expected = expect_sorted(&keys);
        assert_eq!(run_sort(&keys, 8, SyncMethod::GpuLockFree), expected);
    }

    #[test]
    fn chunk_boundaries_do_not_break_pairs() {
        // Block counts that do not divide the 8 pairs of 16 keys: the
        // pair-index partition must still visit every pair exactly once.
        let keys = random_keys(16, 52);
        let expected = expect_sorted(&keys);
        for n_blocks in 1..=8 {
            assert_eq!(
                run_sort(&keys, n_blocks, SyncMethod::GpuSimple),
                expected,
                "{n_blocks}"
            );
        }
    }

    #[test]
    fn already_sorted_and_reversed() {
        let sorted: Vec<u32> = (0..256).collect();
        assert_eq!(run_sort(&sorted, 4, SyncMethod::GpuLockFree), sorted);
        let reversed: Vec<u32> = (0..256).rev().collect();
        assert_eq!(run_sort(&reversed, 4, SyncMethod::GpuLockFree), sorted);
    }

    #[test]
    fn duplicate_keys_survive() {
        let keys = vec![7u32; 128];
        assert_eq!(
            run_sort(
                &keys,
                4,
                SyncMethod::GpuTree(blocksync_core::TreeLevels::Two)
            ),
            keys
        );
    }

    #[test]
    fn rounds_match_schedule() {
        let k = GridBitonic::new(&random_keys(1024, 0));
        assert_eq!(k.rounds(), 55);
        assert_eq!(k.len(), 1024);
        assert!(!k.is_empty());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = GridBitonic::new(&[1, 2, 3]);
    }
}
