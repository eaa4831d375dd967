//! Smith-Waterman local sequence alignment (paper Section 6.2).
//!
//! The alignment matrix fills in a wavefront: every cell depends on its
//! north, west, and northwest neighbours, so cells on one anti-diagonal are
//! independent while consecutive anti-diagonals must be ordered — one grid
//! barrier per anti-diagonal, `La + Lb - 1` barriers total. The paper
//! accelerates only this matrix-filling phase (>99% of the runtime); the
//! trace-back is sequential and provided by the reference module.
//!
//! * [`scoring`] — substitution scoring (simple match/mismatch and
//!   BLOSUM62) and affine gap penalties (Section 6.2's open/extend scheme).
//! * [`mod@reference`] — sequential affine-gap fill and trace-back oracle.
//! * [`kernel`] — [`GridSwat`], the wavefront grid kernel (256
//!   threads/block in the paper's runs), over the diagonal-major fill of
//!   `wavefront`, which [`global`]'s Needleman-Wunsch shares.
//! * [`workload`] — simulator cost model with the triangular diagonal-length
//!   profile (this is the paper's ~50%-sync application).

pub mod banded;
pub mod global;
pub mod kernel;
pub mod reference;
pub mod scoring;
mod wavefront;
pub mod workload;

pub use banded::GridSwatBanded;
pub use global::{needleman_wunsch, GridNw};
pub use kernel::GridSwat;
pub use reference::{smith_waterman, smith_waterman_aligned, Alignment};
pub use scoring::{GapPenalties, Scoring};
pub use workload::SwatWorkload;

/// Threads per block the paper uses for SWat (Section 7.2).
pub const PAPER_THREADS_PER_BLOCK: usize = 256;

/// Sequence length used for the paper-scale experiments (Figures 13b/14b):
/// an 8k x 8k alignment, where the average anti-diagonal costs about as
/// much as the CPU-implicit barrier (`rho ~ 0.5`, Table 1).
pub const PAPER_SEQ_LEN: usize = 8192;

/// Cells of anti-diagonal `d` (where cell `(i, j)`, `1 <= i <= la`,
/// `1 <= j <= lb`, lies on diagonal `d = i + j`): returns `(i_first, count)`
/// with cells `(i_first + k, d - i_first - k)` for `k < count`.
///
/// Valid `d` ranges over `2..=la + lb`.
pub fn diagonal_cells(la: usize, lb: usize, d: usize) -> (usize, usize) {
    debug_assert!((2..=la + lb).contains(&d));
    let i_first = d.saturating_sub(lb).max(1);
    let i_last = (d - 1).min(la);
    (i_first, i_last + 1 - i_first)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_cells_cover_matrix_exactly_once() {
        for (la, lb) in [(1, 1), (3, 5), (8, 8), (7, 2)] {
            let mut seen = vec![vec![false; lb + 1]; la + 1];
            for d in 2..=la + lb {
                let (i0, cnt) = diagonal_cells(la, lb, d);
                for k in 0..cnt {
                    let i = i0 + k;
                    let j = d - i;
                    assert!((1..=la).contains(&i), "i={i}");
                    assert!((1..=lb).contains(&j), "j={j}");
                    assert!(!seen[i][j], "cell ({i},{j}) twice");
                    seen[i][j] = true;
                }
            }
            for (i, row) in seen.iter().enumerate().skip(1) {
                for (j, &cell) in row.iter().enumerate().skip(1) {
                    assert!(cell, "cell ({i},{j}) missed");
                }
            }
        }
    }

    #[test]
    fn diagonal_lengths_are_triangular() {
        // For a square matrix the diagonal length ramps up to min(la, lb)
        // and back down.
        let (la, lb) = (4, 4);
        let lens: Vec<usize> = (2..=8).map(|d| diagonal_cells(la, lb, d).1).collect();
        assert_eq!(lens, vec![1, 2, 3, 4, 3, 2, 1]);
    }
}
