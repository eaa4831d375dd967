//! Banded Smith-Waterman (extension).
//!
//! When the two sequences are known to be similar, restricting the fill to
//! a diagonal band `|i - j| <= bandwidth` reduces work from `la * lb` to
//! `~(la + lb) * bandwidth` cells while returning the same score whenever
//! the optimal alignment stays inside the band — the standard
//! bioinformatics optimization. The wavefront/barrier structure is
//! unchanged (one grid barrier per anti-diagonal); only the per-diagonal
//! cell range narrows, which *shrinks* `rho` further and makes fast
//! barriers even more valuable — the banded kernel is the extreme version
//! of the paper's SWat argument.

use blocksync_core::{BlockCtx, GlobalBuffer, RoundKernel};

use super::reference::SwScore;
use super::scoring::{GapPenalties, Scoring};

const NEG: i32 = i32::MIN / 2;

/// Cells of anti-diagonal `d` intersected with the band
/// `|i - j| <= bandwidth`: returns `(i_first, count)`.
pub fn banded_diagonal_cells(la: usize, lb: usize, bandwidth: usize, d: usize) -> (usize, usize) {
    debug_assert!((2..=la + lb).contains(&d));
    // Unbanded limits...
    let mut i_first = d.saturating_sub(lb).max(1);
    let mut i_last = (d - 1).min(la);
    // ...clipped by |i - (d - i)| <= w  <=>  (d - w)/2 <= i <= (d + w)/2.
    let lo = d.saturating_sub(bandwidth).div_ceil(2);
    let hi = (d + bandwidth) / 2;
    i_first = i_first.max(lo);
    i_last = i_last.min(hi);
    if i_first > i_last {
        (i_first, 0)
    } else {
        (i_first, i_last + 1 - i_first)
    }
}

/// Banded Smith-Waterman as a wavefront grid kernel.
///
/// Out-of-band neighbours read as "minus infinity"/zero-H boundary values,
/// matching the standard banded recurrence.
pub struct GridSwatBanded {
    a: GlobalBuffer<u8>,
    b: GlobalBuffer<u8>,
    h: GlobalBuffer<i32>,
    e: GlobalBuffer<i32>,
    f: GlobalBuffer<i32>,
    block_best: GlobalBuffer<i64>,
    la: usize,
    lb: usize,
    bandwidth: usize,
    scoring: Scoring,
    gaps: GapPenalties,
}

impl GridSwatBanded {
    /// Prepare a banded alignment.
    ///
    /// # Panics
    /// Panics if either sequence is empty or `bandwidth == 0`.
    pub fn new(
        a: &[u8],
        b: &[u8],
        bandwidth: usize,
        scoring: Scoring,
        gaps: GapPenalties,
        n_blocks: usize,
    ) -> Self {
        assert!(
            !a.is_empty() && !b.is_empty(),
            "sequences must be non-empty"
        );
        assert!(bandwidth > 0, "bandwidth must be positive");
        let (la, lb) = (a.len(), b.len());
        let w = lb + 1;
        let h = GlobalBuffer::new((la + 1) * w);
        let e = GlobalBuffer::new((la + 1) * w);
        let f = GlobalBuffer::new((la + 1) * w);
        e.fill(NEG);
        f.fill(NEG);
        GridSwatBanded {
            a: GlobalBuffer::from_slice(a),
            b: GlobalBuffer::from_slice(b),
            h,
            e,
            f,
            block_best: GlobalBuffer::new(n_blocks),
            la,
            lb,
            bandwidth,
            scoring,
            gaps,
        }
    }

    /// Best in-band score and its end cell.
    pub fn result(&self) -> SwScore {
        let mut best: i64 = 0;
        for k in 0..self.block_best.len() {
            best = best.max(self.block_best.get(k));
        }
        let score = (best >> 32) as i32;
        let pos = (!(best as u32)) as usize;
        let w = self.lb + 1;
        SwScore {
            score,
            end: if score > 0 {
                (pos / w, pos % w)
            } else {
                (0, 0)
            },
        }
    }

    /// Total in-band cells (for cost accounting).
    pub fn band_cells(&self) -> usize {
        (2..=self.la + self.lb)
            .map(|d| banded_diagonal_cells(self.la, self.lb, self.bandwidth, d).1)
            .sum()
    }
}

impl RoundKernel for GridSwatBanded {
    fn rounds(&self) -> usize {
        self.la + self.lb - 1
    }

    fn round(&self, ctx: &BlockCtx, round: usize) {
        let d = round + 2;
        let (i0, count) = banded_diagonal_cells(self.la, self.lb, self.bandwidth, d);
        if count == 0 {
            return;
        }
        let w = self.lb + 1;
        let mut best = self.block_best.get(ctx.block_id);
        for k in ctx.chunk(count) {
            let i = i0 + k;
            let j = d - i;
            let idx = i * w + j;
            // Out-of-band H cells were never written and hold 0 — which is
            // exactly the local-alignment boundary value; out-of-band E/F
            // hold NEG from initialization.
            let e =
                (self.h.get(idx - 1) - self.gaps.open).max(self.e.get(idx - 1) - self.gaps.extend);
            let f =
                (self.h.get(idx - w) - self.gaps.open).max(self.f.get(idx - w) - self.gaps.extend);
            let diag =
                self.h.get(idx - w - 1) + self.scoring.score(self.a.get(i - 1), self.b.get(j - 1));
            let h = 0.max(diag).max(e).max(f);
            self.e.set(idx, e);
            self.f.set(idx, f);
            self.h.set(idx, h);
            let packed = ((h as i64) << 32) | i64::from(!(idx as u32));
            if packed > best {
                best = packed;
            }
        }
        self.block_best.set(ctx.block_id, best);
    }
}

/// Simulator cost model for the banded kernel: the SWat per-cell cost over
/// the band-clipped diagonal lengths.
#[derive(Debug, Clone)]
pub struct BandedSwatWorkload {
    la: usize,
    lb: usize,
    bandwidth: usize,
    n_blocks: usize,
    cell: crate::cost::CostModel,
}

impl BandedSwatWorkload {
    /// Workload for a banded `la x lb` fill.
    ///
    /// # Panics
    /// Panics on empty dimensions, zero band, or zero blocks.
    pub fn new(
        spec: &blocksync_device::GpuSpec,
        la: usize,
        lb: usize,
        bandwidth: usize,
        n_blocks: usize,
    ) -> Self {
        assert!(la > 0 && lb > 0 && bandwidth > 0 && n_blocks > 0);
        BandedSwatWorkload {
            la,
            lb,
            bandwidth,
            n_blocks,
            cell: crate::cost::CostModel::swat(spec),
        }
    }
}

impl blocksync_sim::Workload for BandedSwatWorkload {
    fn rounds(&self) -> usize {
        self.la + self.lb - 1
    }

    fn compute(&self, bid: usize, round: usize) -> blocksync_device::SimDuration {
        let (_, count) = banded_diagonal_cells(self.la, self.lb, self.bandwidth, round + 2);
        let per = count / self.n_blocks;
        let rem = count % self.n_blocks;
        self.cell.round_time(per + usize::from(bid < rem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqgen::{dna_sequence, related_dna};
    use crate::swat::reference::smith_waterman;
    use blocksync_core::{GridConfig, LaunchPlan, SyncMethod};

    fn run(a: &[u8], b: &[u8], bw: usize, n_blocks: usize) -> SwScore {
        let k = GridSwatBanded::new(a, b, bw, Scoring::dna(), GapPenalties::dna(), n_blocks);
        LaunchPlan::compile(GridConfig::new(n_blocks, 64), SyncMethod::GpuLockFree)
            .and_then(|plan| plan.run(&k))
            .unwrap();
        k.result()
    }

    #[test]
    fn band_cells_cover_band_exactly() {
        let (la, lb, bw) = (10usize, 12usize, 3usize);
        let mut cells = std::collections::HashSet::new();
        for d in 2..=la + lb {
            let (i0, cnt) = banded_diagonal_cells(la, lb, bw, d);
            for k in 0..cnt {
                let i = i0 + k;
                let j = d - i;
                assert!((1..=la).contains(&i) && (1..=lb).contains(&j));
                assert!(i.abs_diff(j) <= bw, "({i},{j}) outside band");
                assert!(cells.insert((i, j)), "({i},{j}) visited twice");
            }
        }
        // Every in-band cell visited.
        for i in 1..=la {
            for j in 1..=lb {
                if i.abs_diff(j) <= bw {
                    assert!(cells.contains(&(i, j)), "({i},{j}) missed");
                }
            }
        }
    }

    #[test]
    fn wide_band_equals_full_smith_waterman() {
        let a = dna_sequence(80, 41);
        let b = dna_sequence(70, 42);
        let full = smith_waterman(&a, &b, Scoring::dna(), GapPenalties::dna());
        // Band covering the whole matrix.
        let banded = run(&a, &b, 200, 4);
        assert_eq!(banded.score, full.score);
        assert_eq!(banded.end, full.end);
    }

    #[test]
    fn related_sequences_fit_in_narrow_band() {
        // Point mutations only: the optimal alignment is the main diagonal,
        // well inside any band.
        let (a, b) = related_dna(300, 0.05, 43);
        let full = smith_waterman(&a, &b, Scoring::dna(), GapPenalties::dna());
        let banded = run(&a, &b, 8, 5);
        assert_eq!(banded.score, full.score);
    }

    #[test]
    fn band_reduces_work() {
        let a = dna_sequence(200, 1);
        let b = dna_sequence(200, 2);
        let k = GridSwatBanded::new(&a, &b, 10, Scoring::dna(), GapPenalties::dna(), 4);
        let full_cells = 200 * 200;
        assert!(
            k.band_cells() < full_cells / 4,
            "band {} cells",
            k.band_cells()
        );
    }

    #[test]
    fn narrow_band_can_only_lower_the_score() {
        let a = dna_sequence(120, 7);
        let b = dna_sequence(120, 8);
        let full = smith_waterman(&a, &b, Scoring::dna(), GapPenalties::dna());
        let banded = run(&a, &b, 2, 3);
        assert!(banded.score <= full.score);
    }

    #[test]
    fn block_count_invariance() {
        let (a, b) = related_dna(150, 0.1, 9);
        assert_eq!(run(&a, &b, 6, 1).score, run(&a, &b, 6, 7).score);
    }

    #[test]
    fn banded_workload_is_cheaper_and_lower_rho() {
        use blocksync_core::SyncMethod;
        use blocksync_device::GpuSpec;
        use blocksync_sim::{simulate, SimConfig, Workload};
        let spec = GpuSpec::gtx280();
        let full = crate::swat::SwatWorkload::new(&spec, 2048, 2048, 30);
        let banded = BandedSwatWorkload::new(&spec, 2048, 2048, 64, 30);
        assert_eq!(full.rounds(), banded.rounds());
        let rf = simulate(&SimConfig::new(30, 256, SyncMethod::CpuImplicit), &full);
        let rb = simulate(&SimConfig::new(30, 256, SyncMethod::CpuImplicit), &banded);
        // Banding cuts compute but not the per-round barrier => lower rho.
        assert!(rb.total < rf.total);
        assert!(rb.sync_fraction() > rf.sync_fraction());
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = GridSwatBanded::new(b"A", b"A", 0, Scoring::dna(), GapPenalties::dna(), 1);
    }
}
