//! 2-D FFT as a grid kernel (extension of the Section 6.1 workload).
//!
//! A `rows x cols` 2-D transform factors into 1-D transforms of every row
//! followed by 1-D transforms of every column. On the grid runtime this is
//! a natural *round-fusion* showcase: with CPU synchronization each 1-D
//! stage of each pass is a separate kernel launch (`log2(cols) +
//! log2(rows)` launches plus permutes); with a device-side barrier the
//! whole 2-D transform is one persistent kernel.
//!
//! Round layout (all rounds barrier-separated):
//!
//! 1. one permutation round for the row pass,
//! 2. `log2(cols)` row butterfly rounds (blocks partition all rows'
//!    butterflies),
//! 3. one transpose-permutation round for the column pass,
//! 4. `log2(rows)` column butterfly rounds,
//! 5. one transpose-back round (+ normalization when inverse).

use blocksync_core::{BlockCtx, GlobalBuffer, RoundKernel};

use super::kernel::Direction;
use super::reference::bit_reverse;
use crate::complex::Complex32;

/// A `rows x cols` 2-D FFT structured as barrier-separated rounds.
pub struct GridFft2d {
    input_re: GlobalBuffer<f32>,
    input_im: GlobalBuffer<f32>,
    /// Working buffer A (row-major `rows x cols` during the row pass).
    a_re: GlobalBuffer<f32>,
    a_im: GlobalBuffer<f32>,
    /// Working buffer B (row-major `cols x rows` during the column pass).
    b_re: GlobalBuffer<f32>,
    b_im: GlobalBuffer<f32>,
    rows: usize,
    cols: usize,
    direction: Direction,
}

impl GridFft2d {
    /// Prepare a 2-D transform of row-major `input` (both dimensions must
    /// be nonzero powers of two).
    ///
    /// # Panics
    /// Panics on dimension mismatch or non-power-of-two dimensions.
    pub fn new(input: &[Complex32], rows: usize, cols: usize, direction: Direction) -> Self {
        assert!(
            rows.is_power_of_two() && cols.is_power_of_two(),
            "dimensions must be powers of two"
        );
        assert_eq!(input.len(), rows * cols, "input length must be rows * cols");
        let re: Vec<f32> = input.iter().map(|z| z.re).collect();
        let im: Vec<f32> = input.iter().map(|z| z.im).collect();
        let n = rows * cols;
        GridFft2d {
            input_re: GlobalBuffer::from_slice(&re),
            input_im: GlobalBuffer::from_slice(&im),
            a_re: GlobalBuffer::new(n),
            a_im: GlobalBuffer::new(n),
            b_re: GlobalBuffer::new(n),
            b_im: GlobalBuffer::new(n),
            rows,
            cols,
            direction,
        }
    }

    /// Matrix dimensions.
    pub fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Row-major result (valid after the kernel has run).
    pub fn output(&self) -> Vec<Complex32> {
        (0..self.rows * self.cols)
            .map(|i| Complex32::new(self.a_re.get(i), self.a_im.get(i)))
            .collect()
    }

    fn sign(&self) -> f32 {
        match self.direction {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        }
    }

    /// Butterfly stage over a buffer interpreted as `lines` independent
    /// transforms of length `len`, partitioned across blocks by flat
    /// butterfly index.
    #[allow(clippy::too_many_arguments)]
    fn stage(
        &self,
        ctx: &BlockCtx,
        re: &GlobalBuffer<f32>,
        im: &GlobalBuffer<f32>,
        lines: usize,
        len: usize,
        stage: usize,
    ) {
        let span = 1usize << stage;
        let theta_base = self.sign() * std::f32::consts::PI / span as f32;
        let per_line = len / 2;
        for t in ctx.chunk(lines * per_line) {
            let line = t / per_line;
            let b = t % per_line;
            let group = b / span;
            let k = b % span;
            let i = line * len + group * span * 2 + k;
            let j = i + span;
            let w = Complex32::cis(theta_base * k as f32);
            let x = Complex32::new(re.get(i), im.get(i));
            let y = Complex32::new(re.get(j), im.get(j)) * w;
            let (p, q) = (x + y, x - y);
            re.set(i, p.re);
            im.set(i, p.im);
            re.set(j, q.re);
            im.set(j, q.im);
        }
    }
}

impl RoundKernel for GridFft2d {
    fn rounds(&self) -> usize {
        let log_c = self.cols.trailing_zeros() as usize;
        let log_r = self.rows.trailing_zeros() as usize;
        // permute + row stages + transpose-permute + col stages +
        // transpose back (with normalization folded into the last round).
        1 + log_c + 1 + log_r + 1
    }

    fn round(&self, ctx: &BlockCtx, round: usize) {
        let (rows, cols) = (self.rows, self.cols);
        let log_c = cols.trailing_zeros() as usize;
        let log_r = rows.trailing_zeros() as usize;
        let n = rows * cols;
        if round == 0 {
            // Row-pass bit-reversal gather: A[r][c] = input[r][rev(c)].
            for i in ctx.chunk(n) {
                let (r, c) = (i / cols, i % cols);
                let src = r * cols + bit_reverse(c, log_c as u32);
                self.a_re.set(i, self.input_re.get(src));
                self.a_im.set(i, self.input_im.get(src));
            }
        } else if round <= log_c {
            self.stage(ctx, &self.a_re, &self.a_im, rows, cols, round - 1);
        } else if round == log_c + 1 {
            // Transpose + column bit-reversal gather:
            // B[c][r] = A[rev(r)][c]  (B is cols x rows, row-major).
            for i in ctx.chunk(n) {
                let (c, r) = (i / rows, i % rows);
                let src = bit_reverse(r, log_r as u32) * cols + c;
                self.b_re.set(i, self.a_re.get(src));
                self.b_im.set(i, self.a_im.get(src));
            }
        } else if round <= log_c + 1 + log_r {
            self.stage(ctx, &self.b_re, &self.b_im, cols, rows, round - log_c - 2);
        } else {
            // Transpose back into A (+ inverse normalization).
            let norm = match self.direction {
                Direction::Forward => 1.0,
                Direction::Inverse => 1.0 / n as f32,
            };
            for i in ctx.chunk(n) {
                let (r, c) = (i / cols, i % cols);
                let src = c * rows + r;
                self.a_re.set(i, self.b_re.get(src) * norm);
                self.a_im.set(i, self.b_im.get(src) * norm);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::reference::{fft_inplace, max_error};
    use crate::seqgen::complex_signal;
    use blocksync_core::{GridConfig, LaunchPlan, SyncMethod};

    fn run2d(
        input: &[Complex32],
        rows: usize,
        cols: usize,
        dir: Direction,
        n_blocks: usize,
        method: SyncMethod,
    ) -> Vec<Complex32> {
        let k = GridFft2d::new(input, rows, cols, dir);
        LaunchPlan::compile(GridConfig::new(n_blocks, 64), method)
            .and_then(|plan| plan.run(&k))
            .unwrap();
        k.output()
    }

    /// Sequential 2-D reference built from the verified 1-D FFT.
    fn reference_2d(input: &[Complex32], rows: usize, cols: usize) -> Vec<Complex32> {
        let mut data = input.to_vec();
        for r in 0..rows {
            fft_inplace(&mut data[r * cols..(r + 1) * cols]);
        }
        let mut out = vec![Complex32::ZERO; rows * cols];
        for c in 0..cols {
            let mut col: Vec<Complex32> = (0..rows).map(|r| data[r * cols + c]).collect();
            fft_inplace(&mut col);
            for (r, v) in col.into_iter().enumerate() {
                out[r * cols + c] = v;
            }
        }
        out
    }

    #[test]
    fn matches_sequential_2d_reference() {
        for (rows, cols) in [(8usize, 8usize), (4, 16), (32, 8)] {
            let input = complex_signal(rows * cols, (rows * 1000 + cols) as u64);
            let expected = reference_2d(&input, rows, cols);
            for method in [SyncMethod::GpuLockFree, SyncMethod::CpuImplicit] {
                let got = run2d(&input, rows, cols, Direction::Forward, 5, method);
                let err = max_error(&got, &expected);
                assert!(
                    err < 1e-3 * (rows * cols) as f32,
                    "{rows}x{cols} {method}: {err}"
                );
            }
        }
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let (rows, cols) = (8, 16);
        let mut input = vec![Complex32::ZERO; rows * cols];
        input[0] = Complex32::ONE;
        let out = run2d(
            &input,
            rows,
            cols,
            Direction::Forward,
            3,
            SyncMethod::GpuSimple,
        );
        for z in &out {
            assert!((z.re - 1.0).abs() < 1e-5 && z.im.abs() < 1e-5);
        }
    }

    #[test]
    fn round_trip_2d() {
        let (rows, cols) = (16, 16);
        let input = complex_signal(rows * cols, 99);
        let spec = run2d(
            &input,
            rows,
            cols,
            Direction::Forward,
            4,
            SyncMethod::GpuLockFree,
        );
        let back = run2d(
            &spec,
            rows,
            cols,
            Direction::Inverse,
            4,
            SyncMethod::GpuLockFree,
        );
        assert!(max_error(&back, &input) < 1e-3);
    }

    #[test]
    fn block_count_invariance() {
        let (rows, cols) = (8, 32);
        let input = complex_signal(rows * cols, 5);
        let a = run2d(
            &input,
            rows,
            cols,
            Direction::Forward,
            1,
            SyncMethod::GpuLockFree,
        );
        let b = run2d(
            &input,
            rows,
            cols,
            Direction::Forward,
            9,
            SyncMethod::GpuLockFree,
        );
        assert!(max_error(&a, &b) < 1e-6);
    }

    #[test]
    fn round_count() {
        let k = GridFft2d::new(&complex_signal(8 * 16, 0), 8, 16, Direction::Forward);
        assert_eq!(k.rounds(), 1 + 4 + 1 + 3 + 1);
        assert_eq!(k.dims(), (8, 16));
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn bad_dims_rejected() {
        let _ = GridFft2d::new(&complex_signal(12, 0), 3, 4, Direction::Forward);
    }

    #[test]
    #[should_panic(expected = "rows * cols")]
    fn length_mismatch_rejected() {
        let _ = GridFft2d::new(&complex_signal(10, 0), 4, 4, Direction::Forward);
    }
}
