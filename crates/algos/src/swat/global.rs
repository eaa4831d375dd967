//! Needleman-Wunsch global alignment (extension).
//!
//! The same wavefront structure as Smith-Waterman — one grid barrier per
//! anti-diagonal — with global-alignment boundary conditions: row 0 and
//! column 0 carry accumulating gap penalties, cell values may go negative
//! (no clamping to zero), and the answer is the single score at
//! `(la, lb)`. Included because the paper positions its barriers for
//! dynamic programming generally; NW exercises the identical
//! synchronization pattern with different numerics.

use blocksync_core::{BlockCtx, RoundKernel};

use super::scoring::{GapPenalties, Scoring};
use super::wavefront::Wavefront;

/// Negative sentinel that cannot underflow when penalties are subtracted.
const NEG: i32 = i32::MIN / 2;

/// Sequential Needleman-Wunsch reference (affine gaps).
pub fn needleman_wunsch(a: &[u8], b: &[u8], scoring: Scoring, gaps: GapPenalties) -> i32 {
    let (la, lb) = (a.len(), b.len());
    let w = lb + 1;
    let mut h = vec![NEG; (la + 1) * w];
    let mut e = vec![NEG; (la + 1) * w];
    let mut f = vec![NEG; (la + 1) * w];
    h[0] = 0;
    for j in 1..=lb {
        e[j] = (-(gaps.open as i64) - (j as i64 - 1) * gaps.extend as i64) as i32;
        h[j] = e[j];
    }
    for i in 1..=la {
        f[i * w] = (-(gaps.open as i64) - (i as i64 - 1) * gaps.extend as i64) as i32;
        h[i * w] = f[i * w];
    }
    for i in 1..=la {
        for j in 1..=lb {
            let idx = i * w + j;
            e[idx] = (h[idx - 1] - gaps.open).max(e[idx - 1] - gaps.extend);
            f[idx] = (h[idx - w] - gaps.open).max(f[idx - w] - gaps.extend);
            let diag = h[idx - w - 1] + scoring.score(a[i - 1], b[j - 1]);
            h[idx] = diag.max(e[idx]).max(f[idx]);
        }
    }
    h[la * w + lb]
}

/// Needleman-Wunsch as a wavefront grid kernel: [`super::GridSwat`]'s
/// diagonal-major fill (`swat::wavefront`) with gap-penalty edges, no
/// clamp at zero and no running maximum.
pub struct GridNw {
    wave: Wavefront,
}

impl GridNw {
    /// Prepare a global alignment of `a` vs `b`.
    ///
    /// # Panics
    /// Panics if either sequence is empty.
    pub fn new(a: &[u8], b: &[u8], scoring: Scoring, gaps: GapPenalties) -> Self {
        // Boundary conditions (filled once on the host, like a cudaMemcpy
        // of the initialized matrix edges): a leading gap of length k.
        let edge = |k: usize| match k {
            0 => 0,
            _ => (-(gaps.open as i64) - (k as i64 - 1) * gaps.extend as i64) as i32,
        };
        GridNw {
            wave: Wavefront::new(a, b, scoring, gaps, edge),
        }
    }

    /// The global alignment score (after the kernel has run).
    pub fn score(&self) -> i32 {
        let (la, lb) = self.wave.shape();
        self.wave.h_at(la, lb)
    }
}

impl RoundKernel for GridNw {
    fn rounds(&self) -> usize {
        self.wave.num_diagonals()
    }

    fn round(&self, ctx: &BlockCtx, round: usize) {
        // Global alignment has no floor: H may go negative.
        self.wave.fill(ctx, round, i32::MIN);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqgen::{dna_sequence, related_dna};
    use blocksync_core::{GridConfig, GridExecutor, SyncMethod};

    fn dna() -> (Scoring, GapPenalties) {
        (Scoring::dna(), GapPenalties::dna())
    }

    fn run_grid(a: &[u8], b: &[u8], n_blocks: usize) -> i32 {
        let (s, g) = dna();
        let k = GridNw::new(a, b, s, g);
        GridExecutor::new(GridConfig::new(n_blocks, 64), SyncMethod::GpuLockFree)
            .run(&k)
            .unwrap();
        k.score()
    }

    #[test]
    fn identical_sequences_score_full_match() {
        let (s, g) = dna();
        assert_eq!(needleman_wunsch(b"ACGTACGT", b"ACGTACGT", s, g), 16);
        assert_eq!(run_grid(b"ACGTACGT", b"ACGTACGT", 3), 16);
    }

    #[test]
    fn single_deletion_pays_gap_open() {
        let (s, g) = dna();
        // ACGTACGT vs ACGACGT: 7 matches x 2 - open(4) = 10.
        assert_eq!(needleman_wunsch(b"ACGTACGT", b"ACGACGT", s, g), 10);
        assert_eq!(run_grid(b"ACGTACGT", b"ACGACGT", 2), 10);
    }

    #[test]
    fn global_differs_from_local_on_noisy_flanks() {
        // Local alignment ignores bad flanks; global must pay for them.
        let (s, g) = dna();
        let a = b"TTTTACGTACGTTTTT";
        let b = b"GGGGACGTACGTGGGG";
        let local = super::super::reference::smith_waterman(a, b, s, g).score;
        let global = needleman_wunsch(a, b, s, g);
        assert!(
            global < local,
            "global {global} must be below local {local}"
        );
    }

    #[test]
    fn grid_matches_reference_on_random_inputs() {
        let (s, g) = dna();
        for seed in 0..5u64 {
            let a = dna_sequence(60 + seed as usize * 13, seed);
            let b = dna_sequence(80 - seed as usize * 7, seed + 100);
            let expected = needleman_wunsch(&a, &b, s, g);
            assert_eq!(run_grid(&a, &b, 5), expected, "seed {seed}");
        }
    }

    #[test]
    fn related_sequences_align_positively() {
        let (a, b) = related_dna(300, 0.05, 9);
        let score = run_grid(&a, &b, 6);
        assert!(score > 300, "related sequences should score high: {score}");
    }

    #[test]
    fn block_count_invariance() {
        let a = dna_sequence(90, 1);
        let b = dna_sequence(70, 2);
        assert_eq!(run_grid(&a, &b, 1), run_grid(&a, &b, 7));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_rejected() {
        let (s, g) = dna();
        let _ = GridNw::new(b"", b"A", s, g);
    }
}
