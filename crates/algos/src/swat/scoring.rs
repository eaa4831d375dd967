//! Substitution scoring and affine gap penalties.
//!
//! Section 6.2: "the affine gap penalty is used in the alignment, which
//! consists of two penalties — the open-gap penalty `o` for starting a new
//! gap and the extension-gap penalty `e` for extending an existing gap.
//! Generally, an open-gap penalty is larger than an extension-gap penalty."

/// Affine gap penalties (stored as positive costs).
///
/// Opening a gap of length `k` costs `open + (k - 1) * extend`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapPenalties {
    /// Cost of the first residue of a gap (`o`).
    pub open: i32,
    /// Cost of each subsequent residue (`e`).
    pub extend: i32,
}

impl GapPenalties {
    /// A common DNA default: open 4, extend 1.
    pub const fn dna() -> Self {
        GapPenalties { open: 4, extend: 1 }
    }

    /// A common protein default (BLOSUM62 pairing): open 11, extend 1.
    pub const fn protein() -> Self {
        GapPenalties {
            open: 11,
            extend: 1,
        }
    }
}

/// Substitution scoring scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scoring {
    /// Simple match/mismatch scoring (DNA-style).
    Simple {
        /// Score for `a == b`.
        r#match: i32,
        /// Score for `a != b` (typically negative).
        mismatch: i32,
    },
    /// The BLOSUM62 amino-acid substitution matrix.
    Blosum62,
}

impl Scoring {
    /// DNA default: +2 match, -1 mismatch.
    pub const fn dna() -> Self {
        Scoring::Simple {
            r#match: 2,
            mismatch: -1,
        }
    }

    /// Substitution score of residues `a` vs `b` (ASCII residue codes;
    /// case-insensitive). Unknown residues score as mismatches (Simple) or
    /// through BLOSUM62's `X` column.
    pub fn score(&self, a: u8, b: u8) -> i32 {
        match *self {
            Scoring::Simple { r#match, mismatch } => {
                if a.eq_ignore_ascii_case(&b) {
                    r#match
                } else {
                    mismatch
                }
            }
            Scoring::Blosum62 => {
                let ia = blosum62_index(a);
                let ib = blosum62_index(b);
                BLOSUM62[ia][ib] as i32
            }
        }
    }
}

/// BLOSUM62 residue order.
const BLOSUM62_RESIDUES: &[u8; 24] = b"ARNDCQEGHILKMFPSTWYVBZX*";

/// Row/column of every byte in [`BLOSUM62`]: a residue's position in
/// [`BLOSUM62_RESIDUES`] in either case, `X`'s for anything else.
const BLOSUM62_INDEX: [u8; 256] = {
    let mut table = [22u8; 256]; // 'X'
    let mut k = 0;
    while k < BLOSUM62_RESIDUES.len() {
        let r = BLOSUM62_RESIDUES[k];
        table[r as usize] = k as u8;
        table[r.to_ascii_lowercase() as usize] = k as u8;
        k += 1;
    }
    table
};

#[inline]
fn blosum62_index(residue: u8) -> usize {
    BLOSUM62_INDEX[residue as usize] as usize
}

/// The standard BLOSUM62 matrix in [`BLOSUM62_RESIDUES`] order.
#[rustfmt::skip]
const BLOSUM62: [[i8; 24]; 24] = [
    // A   R   N   D   C   Q   E   G   H   I   L   K   M   F   P   S   T   W   Y   V   B   Z   X   *
    [  4, -1, -2, -2,  0, -1, -1,  0, -2, -1, -1, -1, -1, -2, -1,  1,  0, -3, -2,  0, -2, -1,  0, -4], // A
    [ -1,  5,  0, -2, -3,  1,  0, -2,  0, -3, -2,  2, -1, -3, -2, -1, -1, -3, -2, -3, -1,  0, -1, -4], // R
    [ -2,  0,  6,  1, -3,  0,  0,  0,  1, -3, -3,  0, -2, -3, -2,  1,  0, -4, -2, -3,  3,  0, -1, -4], // N
    [ -2, -2,  1,  6, -3,  0,  2, -1, -1, -3, -4, -1, -3, -3, -1,  0, -1, -4, -3, -3,  4,  1, -1, -4], // D
    [  0, -3, -3, -3,  9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1, -3, -3, -2, -4], // C
    [ -1,  1,  0,  0, -3,  5,  2, -2,  0, -3, -2,  1,  0, -3, -1,  0, -1, -2, -1, -2,  0,  3, -1, -4], // Q
    [ -1,  0,  0,  2, -4,  2,  5, -2,  0, -3, -3,  1, -2, -3, -1,  0, -1, -3, -2, -2,  1,  4, -1, -4], // E
    [  0, -2,  0, -1, -3, -2, -2,  6, -2, -4, -4, -2, -3, -3, -2,  0, -2, -2, -3, -3, -1, -2, -1, -4], // G
    [ -2,  0,  1, -1, -3,  0,  0, -2,  8, -3, -3, -1, -2, -1, -2, -1, -2, -2,  2, -3,  0,  0, -1, -4], // H
    [ -1, -3, -3, -3, -1, -3, -3, -4, -3,  4,  2, -3,  1,  0, -3, -2, -1, -3, -1,  3, -3, -3, -1, -4], // I
    [ -1, -2, -3, -4, -1, -2, -3, -4, -3,  2,  4, -2,  2,  0, -3, -2, -1, -2, -1,  1, -4, -3, -1, -4], // L
    [ -1,  2,  0, -1, -3,  1,  1, -2, -1, -3, -2,  5, -1, -3, -1,  0, -1, -3, -2, -2,  0,  1, -1, -4], // K
    [ -1, -1, -2, -3, -1,  0, -2, -3, -2,  1,  2, -1,  5,  0, -2, -1, -1, -1, -1,  1, -3, -1, -1, -4], // M
    [ -2, -3, -3, -3, -2, -3, -3, -3, -1,  0,  0, -3,  0,  6, -4, -2, -2,  1,  3, -1, -3, -3, -1, -4], // F
    [ -1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4,  7, -1, -1, -4, -3, -2, -2, -1, -2, -4], // P
    [  1, -1,  1,  0, -1,  0,  0,  0, -1, -2, -2,  0, -1, -2, -1,  4,  1, -3, -2, -2,  0,  0,  0, -4], // S
    [  0, -1,  0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1,  1,  5, -2, -2,  0, -1, -1,  0, -4], // T
    [ -3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1,  1, -4, -3, -2, 11,  2, -3, -4, -3, -2, -4], // W
    [ -2, -2, -2, -3, -2, -1, -2, -3,  2, -1, -1, -2, -1,  3, -3, -2, -2,  2,  7, -1, -3, -2, -1, -4], // Y
    [  0, -3, -3, -3, -1, -2, -2, -3, -3,  3,  1, -2,  1, -1, -2, -2,  0, -3, -1,  4, -3, -2, -1, -4], // V
    [ -2, -1,  3,  4, -3,  0,  1, -1,  0, -3, -4,  0, -3, -3, -2,  0, -1, -4, -3, -3,  4,  1, -1, -4], // B
    [ -1,  0,  0,  1, -3,  3,  4, -2,  0, -3, -3,  1, -1, -3, -1,  0, -1, -3, -2, -2,  1,  4, -1, -4], // Z
    [  0, -1, -1, -1, -2, -1, -1, -1, -1, -1, -1, -1, -1, -1, -2,  0,  0, -2, -1, -1, -1, -1, -1, -4], // X
    [ -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4, -4,  1], // *
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_scoring() {
        let s = Scoring::dna();
        assert_eq!(s.score(b'A', b'A'), 2);
        assert_eq!(s.score(b'A', b'a'), 2, "case-insensitive");
        assert_eq!(s.score(b'A', b'G'), -1);
    }

    #[test]
    fn blosum62_is_symmetric() {
        for &a in BLOSUM62_RESIDUES {
            for &b in BLOSUM62_RESIDUES {
                assert_eq!(
                    Scoring::Blosum62.score(a, b),
                    Scoring::Blosum62.score(b, a),
                    "{}/{}",
                    a as char,
                    b as char
                );
            }
        }
    }

    #[test]
    fn blosum62_known_entries() {
        let s = Scoring::Blosum62;
        assert_eq!(s.score(b'W', b'W'), 11);
        assert_eq!(s.score(b'A', b'A'), 4);
        assert_eq!(s.score(b'C', b'C'), 9);
        assert_eq!(s.score(b'A', b'R'), -1);
        assert_eq!(s.score(b'W', b'C'), -2);
        assert_eq!(s.score(b'l', b'i'), 2, "case-insensitive lookup");
    }

    #[test]
    fn unknown_residues_hit_x_column() {
        assert_eq!(
            Scoring::Blosum62.score(b'?', b'A'),
            Scoring::Blosum62.score(b'X', b'A')
        );
    }

    #[test]
    fn index_table_equals_the_linear_search_for_every_byte_pair() {
        let search = |residue: u8| {
            let r = residue.to_ascii_uppercase();
            BLOSUM62_RESIDUES.iter().position(|&c| c == r).unwrap_or(22)
        };
        for a in 0..=u8::MAX {
            assert_eq!(blosum62_index(a), search(a), "byte {a}");
            for b in 0..=u8::MAX {
                assert_eq!(
                    Scoring::Blosum62.score(a, b),
                    BLOSUM62[search(a)][search(b)] as i32,
                    "bytes {a}/{b}"
                );
            }
        }
    }

    #[test]
    fn blosum_diagonal_dominates_row() {
        // Self-substitution is the max of each row for standard BLOSUM62
        // (true for all residues except B/Z/X ambiguity codes).
        for (idx, &a) in BLOSUM62_RESIDUES.iter().enumerate().take(20) {
            let diag = BLOSUM62[idx][idx];
            for (jdx, _) in BLOSUM62_RESIDUES.iter().enumerate() {
                if idx != jdx {
                    assert!(BLOSUM62[idx][jdx] < diag, "{} row", a as char);
                }
            }
        }
    }

    #[test]
    fn gap_presets() {
        let g = GapPenalties::dna();
        assert!(
            g.open > g.extend,
            "open-gap penalty is larger (Section 6.2)"
        );
        let p = GapPenalties::protein();
        assert!(p.open > p.extend);
    }
}
