//! Batched bitonic sort (extension): sort many independent segments in one
//! persistent kernel.
//!
//! A common service shape — `batch` arrays of `seg_len = 2^k` keys each —
//! sorted by running the network schedule once, applied to every segment
//! simultaneously. Barrier count stays `O(log^2 seg_len)` regardless of
//! the batch size, so the amortized synchronization cost per array drops
//! with the batch: exactly the fixed-cost argument the paper makes for
//! replacing per-step kernel launches.

use blocksync_core::{BlockCtx, GlobalBuffer, RoundKernel};

use super::reference::{network_schedule, NetworkStep};

/// Bitonic sort of `batch` segments of `seg_len` keys each.
pub struct GridBitonicBatched {
    data: GlobalBuffer<u32>,
    schedule: Vec<NetworkStep>,
    seg_len: usize,
    batch: usize,
}

impl GridBitonicBatched {
    /// Prepare to sort `keys` as `batch` consecutive segments of equal
    /// power-of-two length.
    ///
    /// # Panics
    /// Panics if `batch == 0`, `keys.len()` is not `batch * 2^k`, or the
    /// segment length is not a power of two.
    pub fn new(keys: &[u32], batch: usize) -> Self {
        assert!(batch > 0, "batch must be positive");
        assert!(
            !keys.is_empty() && keys.len().is_multiple_of(batch),
            "keys must divide evenly into {batch} segments"
        );
        let seg_len = keys.len() / batch;
        let schedule = network_schedule(seg_len); // validates power of two
        GridBitonicBatched {
            data: GlobalBuffer::from_slice(keys),
            schedule,
            seg_len,
            batch,
        }
    }

    /// All segments, each sorted (after execution).
    pub fn output(&self) -> Vec<u32> {
        self.data.to_vec()
    }

    /// One segment's sorted keys.
    ///
    /// # Panics
    /// Panics if `segment >= batch`.
    pub fn segment(&self, segment: usize) -> Vec<u32> {
        assert!(segment < self.batch);
        self.data.read_range(segment * self.seg_len, self.seg_len)
    }

    /// `(batch, seg_len)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.batch, self.seg_len)
    }
}

impl RoundKernel for GridBitonicBatched {
    fn rounds(&self) -> usize {
        self.schedule.len()
    }

    fn round(&self, ctx: &BlockCtx, round: usize) {
        let NetworkStep { k, j } = self.schedule[round];
        let total = self.seg_len * self.batch;
        for g in ctx.chunk(total) {
            let seg_base = g - (g % self.seg_len);
            let i = g % self.seg_len;
            let partner = i ^ j;
            if partner > i {
                let ascending = (i & k) == 0;
                let (gi, gp) = (seg_base + i, seg_base + partner);
                let a = self.data.get(gi);
                let b = self.data.get(gp);
                if (a > b) == ascending {
                    self.data.set(gi, b);
                    self.data.set(gp, a);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqgen::random_keys;
    use blocksync_core::{GridConfig, LaunchPlan, SyncMethod};

    fn run(keys: &[u32], batch: usize, n_blocks: usize) -> GridBitonicBatched {
        let k = GridBitonicBatched::new(keys, batch);
        LaunchPlan::compile(GridConfig::new(n_blocks, 64), SyncMethod::GpuLockFree)
            .and_then(|plan| plan.run(&k))
            .unwrap();
        k
    }

    #[test]
    fn every_segment_sorted_independently() {
        let batch = 7;
        let seg = 256;
        let keys = random_keys(batch * seg, 60);
        let k = run(&keys, batch, 5);
        for s in 0..batch {
            let got = k.segment(s);
            let mut expected = keys[s * seg..(s + 1) * seg].to_vec();
            expected.sort_unstable();
            assert_eq!(got, expected, "segment {s}");
        }
    }

    #[test]
    fn barrier_rounds_independent_of_batch() {
        let a = GridBitonicBatched::new(&random_keys(256, 0), 1);
        let b = GridBitonicBatched::new(&random_keys(256 * 16, 0), 16);
        assert_eq!(a.rounds(), b.rounds(), "same segment length, same rounds");
        assert_eq!(b.shape(), (16, 256));
    }

    #[test]
    fn single_segment_matches_plain_kernel() {
        let keys = random_keys(1024, 61);
        let batched = run(&keys, 1, 4).output();
        let mut expected = keys;
        expected.sort_unstable();
        assert_eq!(batched, expected);
    }

    #[test]
    fn tiny_segments() {
        let keys = vec![4u32, 3, 2, 1, 8, 7, 6, 5];
        let k = run(&keys, 4, 2); // 4 segments of length 2
        assert_eq!(k.output(), vec![3, 4, 1, 2, 7, 8, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "batch must be positive")]
    fn zero_batch_rejected() {
        let _ = GridBitonicBatched::new(&[1, 2], 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_segment_rejected() {
        let _ = GridBitonicBatched::new(&[1, 2, 3, 4, 5, 6], 2); // segments of 3
    }
}
