//! The diagonal-major wavefront fill behind [`super::GridSwat`] and
//! [`super::GridNw`].
//!
//! Section 6.2 of the paper stores the alignment matrix diagonal-major so
//! that the threads filling one anti-diagonal touch consecutive addresses.
//! Here `H` is stored one anti-diagonal after another, each indexed by row
//! `i`, so that for cell `(i, j)` on diagonal `d = i + j`
//!
//! * west `(i, j-1)` is `(d-1)[i]`,
//! * north `(i-1, j)` is `(d-1)[i-1]`,
//! * north-west `(i-1, j-1)` is `(d-2)[i-1]`,
//!
//! all unit stride as `i` advances along the block's chunk. Row 0 and
//! column 0 (the boundary) are stored like any other cell, so no neighbour
//! read needs a bounds case. `E` depends only on its west and `F` only on
//! its north, both on diagonal `d-1`, so each is two rolling diagonals
//! (`d % 2`) indexed by row. `b` is stored reversed: `b[j-1]` then also
//! advances with `i`. A round is therefore one loop over a handful of
//! [`blocksync_core::Window`]s, each range-checked once.
//!
//! The north of row `i` is the west of row `i-1`, so the loop carries it,
//! and its gap-open term, from one cell to the next. It tracks its best as
//! `(H, first k)` with a strict `>` — the earliest row of the chunk, which
//! on one anti-diagonal is the earliest row-major cell — and packs
//! `(H << 32) | !pos` once, after the loop.

use blocksync_core::{BlockCtx, GlobalBuffer};

use super::diagonal_cells;
use super::scoring::{GapPenalties, Scoring};

/// Negative "minus infinity" that cannot underflow when penalties are
/// subtracted.
const NEG: i32 = i32::MIN / 2;

/// The `H`/`E`/`F` storage of one affine-gap alignment and the cell loop
/// that fills one anti-diagonal of it.
pub(crate) struct Wavefront {
    /// Upper-cased, so that the cell loop compares bytes.
    a: GlobalBuffer<u8>,
    /// Upper-cased and reversed: `b[j-1]` is `b_rev[lb - j]`.
    b_rev: GlobalBuffer<u8>,
    h: GlobalBuffer<i32>,
    e: [GlobalBuffer<i32>; 2],
    f: [GlobalBuffer<i32>; 2],
    /// `h[base[d] + i]` is cell `(i, d - i)`.
    base: Vec<usize>,
    la: usize,
    lb: usize,
    scoring: Scoring,
    gaps: GapPenalties,
}

impl Wavefront {
    /// Storage for aligning `a` with `b`; `edge(k)` is `H` at distance `k`
    /// along row 0 and along column 0.
    ///
    /// # Panics
    /// Panics if either sequence is empty (a zero-length alignment has no
    /// wavefront).
    pub(crate) fn new(
        a: &[u8],
        b: &[u8],
        scoring: Scoring,
        gaps: GapPenalties,
        edge: impl Fn(usize) -> i32,
    ) -> Self {
        assert!(
            !a.is_empty() && !b.is_empty(),
            "sequences must be non-empty"
        );
        let (la, lb) = (a.len(), b.len());
        // Diagonal d holds rows d.saturating_sub(lb) ..= d.min(la).
        let mut base = Vec::with_capacity(la + lb + 1);
        let mut start = 0;
        for d in 0..=la + lb {
            let first_row = d.saturating_sub(lb);
            base.push(start - first_row);
            start += d.min(la) + 1 - first_row;
        }
        let h = GlobalBuffer::new(start);
        let cell = |i: usize, j: usize| base[i + j] + i;
        for j in 0..=lb {
            h.set(cell(0, j), edge(j));
        }
        for i in 1..=la {
            h.set(cell(i, 0), edge(i));
        }
        // F(0, j) is read from slot 0, which no round writes. E(i, 0) is
        // stored by the round that reads it (see `fill_with`).
        let f = [GlobalBuffer::new(la + 1), GlobalBuffer::new(la + 1)];
        f[0].set(0, NEG);
        f[1].set(0, NEG);
        Wavefront {
            a: GlobalBuffer::from_slice(&a.to_ascii_uppercase()),
            b_rev: GlobalBuffer::from_slice(
                &b.iter()
                    .rev()
                    .map(u8::to_ascii_uppercase)
                    .collect::<Vec<u8>>(),
            ),
            h,
            e: [GlobalBuffer::new(la + 1), GlobalBuffer::new(la + 1)],
            f,
            base,
            la,
            lb,
            scoring,
            gaps,
        }
    }

    /// `(la, lb)`.
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.la, self.lb)
    }

    /// Anti-diagonals with cells to fill, one round each.
    pub(crate) fn num_diagonals(&self) -> usize {
        self.la + self.lb - 1
    }

    /// `H(i, j)`.
    pub(crate) fn h_at(&self, i: usize, j: usize) -> i32 {
        self.h.get(self.base[i + j] + i)
    }

    /// Fill this block's share of anti-diagonal `round + 2` with
    /// `H = max(floor, diagonal, E, F)`. Returns the maximum over the cells
    /// it wrote of `(H << 32) | !p`, `p` the cell's row-major index in the
    /// `(la+1) x (lb+1)` matrix — the best score at its earliest row-major
    /// position — or `i64::MIN` if the block had no cell.
    pub(crate) fn fill(&self, ctx: &BlockCtx, round: usize, floor: i32) -> i64 {
        match self.scoring {
            Scoring::Simple { r#match, mismatch } => {
                let bonus = r#match.wrapping_sub(mismatch);
                self.fill_with(ctx, round, floor, |a, b| {
                    // A select, not a branch: random DNA mispredicts it.
                    mismatch.wrapping_add(bonus & -i32::from(a == b))
                })
            }
            Scoring::Blosum62 => {
                self.fill_with(ctx, round, floor, |a, b| Scoring::Blosum62.score(a, b))
            }
        }
    }

    #[inline]
    fn fill_with(
        &self,
        ctx: &BlockCtx,
        round: usize,
        floor: i32,
        score: impl Fn(u8, u8) -> i32,
    ) -> i64 {
        let (la, lb) = (self.la, self.lb);
        let d = round + 2;
        let (first, count) = diagonal_cells(la, lb, d);
        let rows = ctx.chunk(count);
        let (r0, len) = (first + rows.start, rows.len());
        if len == 0 {
            return i64::MIN;
        }
        let GapPenalties { open, extend } = self.gaps;
        let (e_in, f_in) = (&self.e[(d - 1) % 2], &self.f[(d - 1) % 2]);
        if r0 + len == d {
            // This chunk ends at cell (d-1, 1), whose west E(d-1, 0) is
            // boundary: no round of this launch wrote it.
            e_in.set(d - 1, NEG);
        }
        // Rows r0-1 ..= r0+len-1 of diagonal d-1: norths, then wests.
        let prev = self.h.window(self.base[d - 1] + r0 - 1, len + 1);
        let north_west = self.h.window(self.base[d - 2] + r0 - 1, len);
        let e_west = e_in.window(r0, len);
        let f_north = f_in.window(r0 - 1, len);
        let a = self.a.window(r0 - 1, len);
        let b = self.b_rev.window(lb + r0 - d, len);
        let h_out = self.h.window(self.base[d] + r0, len);
        let e_out = self.e[d % 2].window(r0, len);
        let f_out = self.f[d % 2].window(r0, len);
        // North of row r0 + k is west of row r0 + k - 1: one load a cell,
        // and its gap-open term is carried with it.
        let mut north_open = prev.get(0) - open;
        let (mut best_h, mut best_k) = (i32::MIN, 0);
        for k in 0..len {
            let west_open = prev.get(k + 1) - open;
            let e = west_open.max(e_west.get(k) - extend);
            let f = north_open.max(f_north.get(k) - extend);
            let diag = north_west.get(k) + score(a.get(k), b.get(k));
            let h = floor.max(diag).max(e).max(f);
            e_out.set(k, e);
            f_out.set(k, f);
            h_out.set(k, h);
            // Strictly greater: a tie keeps the earlier row.
            if h > best_h {
                (best_h, best_k) = (h, k);
            }
            north_open = west_open;
        }
        // Row-major index of (i, d - i) in a matrix lb + 1 wide.
        let pos = (r0 + best_k) * lb + d;
        (i64::from(best_h) << 32) | i64::from(!(pos as u32))
    }
}
