//! Bitonic sort as a grid kernel: one round per network step.
//!
//! Each round applies one compare-exchange step `(k, j)`; its `n/2` pairs
//! are partitioned across blocks. Pair `p` is `(i, i | j)` where `i` is `p`
//! with a zero bit inserted at `j`'s position, so a block walks exactly the
//! pairs it owns — no index is visited only to be skipped — and every pair
//! is touched by exactly one block: rounds are race-free under a correct
//! grid barrier.
//!
//! A block walks its chunk of pairs in runs. The pairs from `p` up to the
//! next multiple of `j` have consecutive low keys `i..i+r` and consecutive
//! partners `i+j..i+j+r`, and, since `k ≥ 2j`, the same `i & k`: one sort
//! direction. A run — capped at the chunk's end, so that no block touches
//! a pair it does not own — is one loop over two [`Window`]s, each
//! range-checked once. When `j ≤ 4` the runs are too short to pay for
//! their windows (at `j = 1` every run is a single pair), so when the
//! chunk is whole groups of `j` pairs — keys `2·start .. 2·end`, nothing
//! else — its `2·len` keys are one window instead, walked group by group
//! with `j` a compile-time constant; any other chunk keeps the runs. The
//! exchange is a `min`/`max` select stored to both slots, because whether
//! random keys are out of order is a coin flip a branch predictor loses.
//!
//! This is the kernel the paper contrasts with the CUDA SDK's single-block
//! bitonic sort: the grid barrier lets the network span all 30 SMs and
//! therefore sort far more than 512 keys.

use blocksync_core::{BlockCtx, GlobalBuffer, RoundKernel, Window};

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
        let chunk = ctx.chunk(self.n / 2);
        if j <= 4 && (chunk.start | chunk.len()) & (j - 1) == 0 {
            // Runs of at most four pairs, and the chunk is whole groups of
            // `j` pairs: its pairs are exactly keys 2·start .. 2·end.
            let (first, len) = (2 * chunk.start, 2 * chunk.len());
            let keys = self.data.window(first, len);
            match j {
                1 => groups::<1>(&keys, len, first, k),
                2 => groups::<2>(&keys, len, first, k),
                _ => groups::<4>(&keys, len, first, k),
            }
            return;
        }
        let mut p = chunk.start;
        while p < chunk.end {
            let low = p & (j - 1);
            let run = (j - low).min(chunk.end - p);
            let i = ((p - low) << 1) | low;
            let (lo, hi) = (self.data.window(i, run), self.data.window(i + j, run));
            if i & k == 0 {
                exchange(&lo, &hi, run, |a, b| (a.min(b), a.max(b)));
            } else {
                exchange(&lo, &hi, run, |a, b| (a.max(b), a.min(b)));
            }
            p += run;
        }
    }
}

/// Compare-exchange every pair of `keys`, a window of `len` keys from key
/// `first` that are whole groups of `2·J`: each group's first `J` keys
/// with its last `J`, in the group's direction. `J` is a constant, so every
/// index is at most the loop's `last` and needs no check of its own.
#[inline(always)]
fn groups<const J: usize>(keys: &Window<'_, u32>, len: usize, first: usize, k: usize) {
    let mut last = 2 * J - 1;
    while last < len {
        let g = last + 1 - 2 * J;
        let up = (first + g) & k == 0;
        for m in 0..J {
            let (a, b) = (keys.get(g + m), keys.get(g + J + m));
            let (min, max) = (a.min(b), a.max(b));
            let (lo, hi) = if up { (min, max) } else { (max, min) };
            keys.set(g + m, lo);
            keys.set(g + J + m, hi);
        }
        last += 2 * J;
    }
}

/// Compare-exchange element `m` of `lo` with element `m` of `hi` for every
/// `m < run`, storing `order(lo, hi)`.
#[inline(always)]
fn exchange(
    lo: &Window<'_, u32>,
    hi: &Window<'_, u32>,
    run: usize,
    order: impl Fn(u32, u32) -> (u32, u32),
) {
    for m in 0..run {
        let (first, second) = order(lo.get(m), hi.get(m));
        lo.set(m, first);
        hi.set(m, second);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitonic::reference::apply_step;
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
    fn sorts_every_pattern_at_every_block_count() {
        // Between them, these block counts give chunks that are whole
        // groups of every short span and chunks that are not.
        for log_n in 1..=12 {
            let n = 1usize << log_n;
            let patterns = [
                random_keys(n, 53 + log_n),
                (0..n as u32).collect(),
                (0..n as u32).rev().collect(),
                vec![7; n],
            ];
            for keys in &patterns {
                let expected = expect_sorted(keys);
                for n_blocks in 1..=9 {
                    assert_eq!(
                        run_sort(keys, n_blocks, SyncMethod::GpuLockFree),
                        expected,
                        "n={n} on {n_blocks}"
                    );
                }
            }
        }
    }

    /// One block's round, run alone from the state before its step,
    /// exchanges exactly the pairs of its chunk and writes no other key: a
    /// run that crossed the chunk's end would exchange a pair of the next
    /// block's.
    #[test]
    fn a_block_writes_only_its_own_pairs() {
        for n in [16usize, 64, 256] {
            let mut state = random_keys(n, 54);
            for (round, &step) in network_schedule(n).iter().enumerate() {
                for n_blocks in 1..=9 {
                    for block_id in 0..n_blocks {
                        let ctx = BlockCtx {
                            block_id,
                            n_blocks,
                            threads_per_block: 64,
                        };
                        let kernel = GridBitonic::new(&state);
                        kernel.round(&ctx, round);
                        let mut expected = state.clone();
                        for p in ctx.chunk(n / 2) {
                            let low = p & (step.j - 1);
                            let i = ((p - low) << 1) | low;
                            let partner = i | step.j;
                            if (expected[i] > expected[partner]) == (i & step.k == 0) {
                                expected.swap(i, partner);
                            }
                        }
                        assert_eq!(
                            kernel.output(),
                            expected,
                            "n={n} {step:?}: block {block_id} of {n_blocks}"
                        );
                    }
                }
                apply_step(&mut state, step);
            }
        }
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
