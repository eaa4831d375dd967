//! Grid-wide inclusive prefix sum (extension).
//!
//! Scan is the canonical "less-data-dependent algorithm" the paper's
//! introduction motivates: the work is fully parallel, but a block cannot
//! finish its part before it knows the total of everything before it.
//! Without inter-block synchronization that is a kernel relaunch; with a
//! device-side barrier it is one persistent kernel of two rounds
//! (reduce-then-scan, about `2n` additions where the sequential scan does
//! `n`):
//!
//! 0. every block scans its own chunk of `data` in place, so the chunk's
//!    last element is the chunk's total;
//! 1. every block adds the totals of the chunks before its own — the last
//!    element of each earlier non-empty chunk — to its chunk and writes the
//!    result to `out`.
//!
//! Round 1 writes only `out`, so its reads of other blocks' totals in
//! `data` race with nothing, and no block-sums array has to be sized for a
//! block count the kernel does not know until launch.

use blocksync_core::{BlockCtx, GlobalBuffer, RoundKernel};

/// Sequential reference inclusive scan.
pub fn inclusive_scan_reference(data: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(data.len());
    let mut acc = 0u64;
    for &x in data {
        acc = acc.wrapping_add(x);
        out.push(acc);
    }
    out
}

/// Reduce-then-scan inclusive prefix sum as a two-round grid kernel, valid
/// on any number of blocks (more blocks than elements leaves some idle).
pub struct GridScan {
    data: GlobalBuffer<u64>,
    out: GlobalBuffer<u64>,
}

impl GridScan {
    /// Prepare a scan of `data` (any nonzero length; not restricted to
    /// powers of two).
    ///
    /// # Panics
    /// Panics on empty input.
    pub fn new(data: &[u64]) -> Self {
        assert!(!data.is_empty(), "scan input must be non-empty");
        GridScan {
            data: GlobalBuffer::from_slice(data),
            out: GlobalBuffer::new(data.len()),
        }
    }

    /// The inclusive prefix sums (after the kernel has run).
    pub fn output(&self) -> Vec<u64> {
        self.out.to_vec()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the scan is empty (never; construction requires data).
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl RoundKernel for GridScan {
    fn rounds(&self) -> usize {
        2
    }

    fn round(&self, ctx: &BlockCtx, round: usize) {
        let n = self.data.len();
        let chunk = ctx.chunk(n);
        let data = self.data.window(chunk.start, chunk.len());
        if round == 0 {
            let mut acc = 0u64;
            for k in 0..chunk.len() {
                acc = acc.wrapping_add(data.get(k));
                data.set(k, acc);
            }
            return;
        }
        let offset = (0..ctx.block_id)
            .map(|block_id| BlockCtx { block_id, ..*ctx }.chunk(n))
            .filter(|earlier| !earlier.is_empty())
            .fold(0u64, |sum, earlier| {
                sum.wrapping_add(self.data.get(earlier.end - 1))
            });
        let out = self.out.window(chunk.start, chunk.len());
        for k in 0..chunk.len() {
            out.set(k, data.get(k).wrapping_add(offset));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqgen::SplitMix64;
    use blocksync_core::{GridConfig, GridExecutor, SyncMethod};

    fn run_scan(data: &[u64], n_blocks: usize, method: SyncMethod) -> Vec<u64> {
        let k = GridScan::new(data);
        GridExecutor::new(GridConfig::new(n_blocks, 64), method)
            .run(&k)
            .unwrap();
        k.output()
    }

    #[test]
    fn matches_reference_all_methods() {
        let mut rng = SplitMix64::new(77);
        let data: Vec<u64> = (0..1000).map(|_| rng.next_u64() >> 32).collect();
        let expected = inclusive_scan_reference(&data);
        for method in [
            SyncMethod::CpuImplicit,
            SyncMethod::GpuSimple,
            SyncMethod::GpuLockFree,
            SyncMethod::Dissemination,
        ] {
            assert_eq!(run_scan(&data, 6, method), expected, "{method}");
        }
    }

    #[test]
    fn non_power_of_two_lengths() {
        for n in [1usize, 2, 3, 7, 100, 257, 1023] {
            let data: Vec<u64> = (1..=n as u64).collect();
            let got = run_scan(&data, 4, SyncMethod::GpuLockFree);
            let expected: Vec<u64> = (1..=n as u64).map(|i| i * (i + 1) / 2).collect();
            assert_eq!(got, expected, "n={n}");
        }
    }

    #[test]
    fn single_element() {
        assert_eq!(run_scan(&[42], 1, SyncMethod::GpuSimple), vec![42]);
    }

    #[test]
    fn wrapping_overflow_is_defined() {
        let data = vec![u64::MAX, 2, 3];
        let got = run_scan(&data, 2, SyncMethod::GpuLockFree);
        assert_eq!(got, vec![u64::MAX, 1, 4]);
    }

    #[test]
    fn block_count_invariance() {
        let data: Vec<u64> = (0..513).map(|i| i * 7 % 97).collect();
        let a = run_scan(&data, 1, SyncMethod::GpuLockFree);
        let b = run_scan(&data, 8, SyncMethod::GpuLockFree);
        assert_eq!(a, b);
    }

    #[test]
    fn round_count_is_two_at_any_length() {
        for n in [1, 2, 3, 1024, 1025] {
            assert_eq!(GridScan::new(&vec![1; n]).rounds(), 2, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_rejected() {
        let _ = GridScan::new(&[]);
    }
}
