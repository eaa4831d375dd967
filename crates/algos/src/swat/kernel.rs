//! Smith-Waterman as a wavefront grid kernel.
//!
//! One round per anti-diagonal: round `r` fills diagonal `d = r + 2`. The
//! cells of a diagonal are partitioned across blocks by row, one contiguous
//! run each; every cell reads only cells of diagonals `d-1` and `d-2`
//! (filled in earlier rounds), so a correct grid barrier makes the fill
//! race-free. The matrix is stored diagonal-major, as in the paper's CUDA
//! kernel (Section 6.2), so a block's run and the three runs of neighbours
//! it reads are contiguous: `swat::wavefront` has the layout and the
//! cell loop, which Needleman-Wunsch ([`super::GridNw`]) shares.
//!
//! Each block keeps its running maximum in a per-block slot and stores to
//! it only in a round that improved it; the final score is the host-side
//! reduction of those slots — the same structure as the paper's CUDA
//! implementation, which keeps the trace-back on the host.

use blocksync_core::{BlockCtx, GlobalBuffer, RoundKernel};

use super::reference::SwScore;
use super::scoring::{GapPenalties, Scoring};
use super::wavefront::Wavefront;

/// The wavefront Smith-Waterman grid kernel.
pub struct GridSwat {
    wave: Wavefront,
    /// Per-block running maximum, packed as `(score << 32) | (!pos)` so
    /// that the numeric maximum is the best score with the *earliest*
    /// position — the same tie-break as the row-major reference scan.
    block_best: GlobalBuffer<i64>,
}

impl GridSwat {
    /// Prepare an alignment of `a` vs `b`, to be launched on a grid of
    /// exactly `n_blocks` blocks.
    ///
    /// # Panics
    /// Panics if either sequence is empty (a zero-length alignment has no
    /// wavefront).
    pub fn new(a: &[u8], b: &[u8], scoring: Scoring, gaps: GapPenalties, n_blocks: usize) -> Self {
        GridSwat {
            // Local alignment: row 0 and column 0 of H are 0.
            wave: Wavefront::new(a, b, scoring, gaps, |_| 0),
            block_best: GlobalBuffer::new(n_blocks),
        }
    }

    /// Best score and its (1-based) end cell after the kernel has run.
    pub fn result(&self) -> SwScore {
        let best = self.block_best.to_vec().into_iter().fold(0, i64::max);
        let score = (best >> 32) as i32;
        let pos = (!(best as u32)) as usize;
        let w = self.wave.shape().1 + 1;
        SwScore {
            score,
            end: if score > 0 {
                (pos / w, pos % w)
            } else {
                (0, 0)
            },
        }
    }

    /// Read the filled H matrix (row-major, `(la+1) x (lb+1)`), for tests.
    pub fn h_matrix(&self) -> Vec<i32> {
        let (la, lb) = self.wave.shape();
        (0..=la)
            .flat_map(|i| (0..=lb).map(move |j| self.wave.h_at(i, j)))
            .collect()
    }

    /// Number of anti-diagonal rounds.
    pub fn num_diagonals(&self) -> usize {
        self.wave.num_diagonals()
    }
}

impl RoundKernel for GridSwat {
    fn rounds(&self) -> usize {
        self.num_diagonals()
    }

    fn round(&self, ctx: &BlockCtx, round: usize) {
        assert!(
            ctx.n_blocks == self.block_best.len(),
            "GridSwat launched on a grid of {} blocks but built for {}",
            ctx.n_blocks,
            self.block_best.len()
        );
        // Local alignment clamps H at 0.
        let best = self.wave.fill(ctx, round, 0);
        // Adjacent slots share a cache line: store only on improvement.
        if best > self.block_best.get(ctx.block_id) {
            self.block_best.set(ctx.block_id, best);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqgen::{dna_sequence, related_dna};
    use crate::swat::reference::smith_waterman;
    use blocksync_core::{GridConfig, GridExecutor, SyncMethod};

    fn run_grid(a: &[u8], b: &[u8], n_blocks: usize, method: SyncMethod) -> SwScore {
        let kernel = GridSwat::new(a, b, Scoring::dna(), GapPenalties::dna(), n_blocks);
        GridExecutor::new(GridConfig::new(n_blocks, 64), method)
            .run(&kernel)
            .unwrap();
        kernel.result()
    }

    #[test]
    fn matches_reference_on_random_dna_all_methods() {
        let a = dna_sequence(120, 31);
        let b = dna_sequence(90, 32);
        let expected = smith_waterman(&a, &b, Scoring::dna(), GapPenalties::dna());
        for method in SyncMethod::GPU_METHODS {
            let got = run_grid(&a, &b, 5, method);
            assert_eq!(got.score, expected.score, "{method}");
        }
        for method in [SyncMethod::CpuExplicit, SyncMethod::CpuImplicit] {
            let got = run_grid(&a, &b, 5, method);
            assert_eq!(got.score, expected.score, "{method}");
        }
    }

    #[test]
    fn matches_reference_on_related_sequences() {
        let (a, b) = related_dna(200, 0.08, 77);
        let expected = smith_waterman(&a, &b, Scoring::dna(), GapPenalties::dna());
        let got = run_grid(&a, &b, 8, SyncMethod::GpuLockFree);
        assert_eq!(got.score, expected.score);
        // Related sequences align strongly.
        assert!(got.score > 150, "score {}", got.score);
    }

    #[test]
    fn end_position_matches_reference() {
        let a = dna_sequence(64, 5);
        let b = dna_sequence(64, 6);
        let expected = smith_waterman(&a, &b, Scoring::dna(), GapPenalties::dna());
        let got = run_grid(&a, &b, 4, SyncMethod::GpuSimple);
        assert_eq!(got.end, expected.end);
    }

    /// Independent row-by-row fill of H (row-major).
    fn h_reference(a: &[u8], b: &[u8]) -> Vec<i32> {
        const NEG: i32 = i32::MIN / 2;
        let (s, g) = (Scoring::dna(), GapPenalties::dna());
        let w = b.len() + 1;
        let mut h_ref = vec![0i32; (a.len() + 1) * w];
        let mut e_ref = vec![NEG; (a.len() + 1) * w];
        let mut f_ref = vec![NEG; (a.len() + 1) * w];
        for i in 1..=a.len() {
            for j in 1..=b.len() {
                let idx = i * w + j;
                e_ref[idx] = (h_ref[idx - 1] - g.open).max(e_ref[idx - 1] - g.extend);
                f_ref[idx] = (h_ref[idx - w] - g.open).max(f_ref[idx - w] - g.extend);
                let diag = h_ref[idx - w - 1] + s.score(a[i - 1], b[j - 1]);
                h_ref[idx] = 0.max(diag).max(e_ref[idx]).max(f_ref[idx]);
            }
        }
        h_ref
    }

    #[test]
    fn h_matrix_matches_reference_everywhere() {
        // The diagonal-major store, re-assembled, against the row-major
        // fill: single rows and columns, lb >> la, and square.
        for (la, lb) in [(1, 1), (1, 40), (40, 1), (17, 301), (64, 64), (40, 30)] {
            let a = dna_sequence(la, 11);
            let b = dna_sequence(lb, 12);
            for n_blocks in [1, 3] {
                let kernel = GridSwat::new(&a, &b, Scoring::dna(), GapPenalties::dna(), n_blocks);
                GridExecutor::new(
                    GridConfig::new(n_blocks, 32),
                    SyncMethod::GpuTree(blocksync_core::TreeLevels::Two),
                )
                .run(&kernel)
                .unwrap();
                let h = kernel.h_matrix();
                assert_eq!(h, h_reference(&a, &b), "{la}x{lb} on {n_blocks}");
                // The first row-major occurrence of the maximum.
                let w = lb + 1;
                let score = *h.iter().max().unwrap();
                let first = h.iter().position(|&v| v == score).unwrap();
                let end = if score > 0 {
                    (first / w, first % w)
                } else {
                    (0, 0)
                };
                assert_eq!(kernel.result(), SwScore { score, end }, "{la}x{lb}");
            }
        }
    }

    #[test]
    fn ties_resolve_to_the_first_row_major_cell() {
        // Only G/G at (1, 5) and A/A at (5, 1) score: the same diagonal,
        // the same value. The reference reports the first in row-major
        // order, whichever block each falls to.
        let (a, b) = (b"GTTTA", b"ACCCG");
        let expected = smith_waterman(a, b, Scoring::dna(), GapPenalties::dna());
        assert_eq!((expected.score, expected.end), (2, (1, 5)));
        for n_blocks in 1..=4 {
            assert_eq!(
                run_grid(a, b, n_blocks, SyncMethod::GpuLockFree),
                expected,
                "{n_blocks}"
            );
        }
    }

    #[test]
    fn a_kernel_can_be_launched_again() {
        let (a, b) = related_dna(50, 0.1, 4);
        let kernel = GridSwat::new(&a, &b, Scoring::dna(), GapPenalties::dna(), 2);
        let exec = GridExecutor::new(GridConfig::new(2, 32), SyncMethod::GpuLockFree);
        exec.run(&kernel).unwrap();
        let first = kernel.h_matrix();
        exec.run(&kernel).unwrap();
        assert_eq!(kernel.h_matrix(), first);
        assert_eq!(first, h_reference(&a, &b));
    }

    #[test]
    fn launching_on_another_grid_size_names_both() {
        let kernel = GridSwat::new(
            b"ACGTACGT",
            b"ACGGACGT",
            Scoring::dna(),
            GapPenalties::dna(),
            2,
        );
        let err = GridExecutor::new(GridConfig::new(3, 32), SyncMethod::GpuLockFree)
            .run(&kernel)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("grid of 3 blocks but built for 2"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn block_count_does_not_change_answer() {
        let (a, b) = related_dna(100, 0.15, 3);
        let r1 = run_grid(&a, &b, 1, SyncMethod::GpuLockFree);
        let r7 = run_grid(&a, &b, 7, SyncMethod::GpuLockFree);
        assert_eq!(r1.score, r7.score);
        assert_eq!(r1.end, r7.end);
    }

    #[test]
    fn asymmetric_lengths_work() {
        let a = dna_sequence(17, 1);
        let b = dna_sequence(301, 2);
        let expected = smith_waterman(&a, &b, Scoring::dna(), GapPenalties::dna());
        assert_eq!(
            run_grid(&a, &b, 6, SyncMethod::GpuLockFree).score,
            expected.score
        );
    }

    #[test]
    fn zero_score_when_nothing_aligns() {
        let got = run_grid(b"AAAA", b"TTTT", 2, SyncMethod::GpuSimple);
        assert_eq!(got.score, 0);
        assert_eq!(got.end, (0, 0));
    }

    #[test]
    fn round_count_is_diagonal_count() {
        let k = GridSwat::new(b"ACGT", b"ACG", Scoring::dna(), GapPenalties::dna(), 2);
        assert_eq!(k.rounds(), 6); // 4 + 3 - 1
        assert_eq!(k.num_diagonals(), 6);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_sequence_rejected() {
        let _ = GridSwat::new(b"", b"ACGT", Scoring::dna(), GapPenalties::dna(), 2);
    }
}
