//! Key–value bitonic sort (extension).
//!
//! The paper sorts bare keys; real sorting workloads almost always carry a
//! payload. This kernel applies the same network to `(key, value)` pairs,
//! swapping both arrays in lockstep. Pair ownership is identical to the
//! key-only kernel, so the race-freedom argument is unchanged.

use blocksync_core::{BlockCtx, GlobalBuffer, RoundKernel};

use super::reference::{network_schedule, NetworkStep};

/// Bitonic sort of `(key, value)` pairs as a round-structured kernel.
pub struct GridBitonicKv {
    keys: GlobalBuffer<u32>,
    values: GlobalBuffer<u64>,
    schedule: Vec<NetworkStep>,
    n: usize,
}

impl GridBitonicKv {
    /// Prepare to sort `pairs` by key (length must be a power of two).
    ///
    /// # Panics
    /// Panics if lengths differ or are not a power of two.
    pub fn new(keys: &[u32], values: &[u64]) -> Self {
        assert_eq!(keys.len(), values.len(), "one value per key");
        let schedule = network_schedule(keys.len());
        GridBitonicKv {
            keys: GlobalBuffer::from_slice(keys),
            values: GlobalBuffer::from_slice(values),
            schedule,
            n: keys.len(),
        }
    }

    /// Sorted keys (after execution).
    pub fn keys(&self) -> Vec<u32> {
        self.keys.to_vec()
    }

    /// Values, permuted alongside their keys (after execution).
    pub fn values(&self) -> Vec<u64> {
        self.values.to_vec()
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the input is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

impl RoundKernel for GridBitonicKv {
    fn rounds(&self) -> usize {
        self.schedule.len()
    }

    fn round(&self, ctx: &BlockCtx, round: usize) {
        let NetworkStep { k, j } = self.schedule[round];
        for i in ctx.chunk(self.n) {
            let partner = i ^ j;
            if partner > i {
                let ascending = (i & k) == 0;
                let a = self.keys.get(i);
                let b = self.keys.get(partner);
                if (a > b) == ascending {
                    self.keys.set(i, b);
                    self.keys.set(partner, a);
                    let va = self.values.get(i);
                    self.values.set(i, self.values.get(partner));
                    self.values.set(partner, va);
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

    fn run(keys: &[u32], values: &[u64], n_blocks: usize) -> (Vec<u32>, Vec<u64>) {
        let k = GridBitonicKv::new(keys, values);
        LaunchPlan::compile(GridConfig::new(n_blocks, 64), SyncMethod::GpuLockFree)
            .and_then(|plan| plan.run(&k))
            .unwrap();
        (k.keys(), k.values())
    }

    #[test]
    fn pairs_travel_together() {
        // value = key as u64 + tag; after sorting, the pairing must hold.
        let keys = random_keys(1024, 9);
        let values: Vec<u64> = keys.iter().map(|&k| u64::from(k) << 8 | 0x5A).collect();
        let (sk, sv) = run(&keys, &values, 5);
        assert!(sk.windows(2).all(|w| w[0] <= w[1]));
        for (k, v) in sk.iter().zip(&sv) {
            assert_eq!(*v, u64::from(*k) << 8 | 0x5A, "pair broke");
        }
    }

    #[test]
    fn keys_match_plain_sort() {
        let keys = random_keys(512, 10);
        let values = vec![0u64; 512];
        let (sk, _) = run(&keys, &values, 4);
        let mut expected = keys;
        expected.sort_unstable();
        assert_eq!(sk, expected);
    }

    #[test]
    fn values_are_a_permutation() {
        let keys = random_keys(256, 11);
        let values: Vec<u64> = (0..256).collect();
        let (_, sv) = run(&keys, &values, 3);
        let mut seen = sv.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..256).collect::<Vec<u64>>());
    }

    #[test]
    fn duplicate_keys_keep_all_values() {
        let keys = vec![5u32; 64];
        let values: Vec<u64> = (0..64).collect();
        let (sk, sv) = run(&keys, &values, 2);
        assert_eq!(sk, keys);
        let mut seen = sv;
        seen.sort_unstable();
        assert_eq!(seen, (0..64).collect::<Vec<u64>>());
    }

    #[test]
    fn accessors() {
        let k = GridBitonicKv::new(&[1, 2], &[10, 20]);
        assert_eq!(k.len(), 2);
        assert!(!k.is_empty());
        assert_eq!(k.rounds(), 1);
    }

    #[test]
    #[should_panic(expected = "one value per key")]
    fn mismatched_lengths_rejected() {
        let _ = GridBitonicKv::new(&[1, 2], &[1]);
    }
}
