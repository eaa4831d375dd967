//! The FFT as a grid kernel on the persistent-kernel host runtime.
//!
//! Round structure (each round ends at the inter-block barrier):
//!
//! 1. round 0 — bit-reversal permutation into the working buffer (each
//!    block writes its contiguous chunk, reading from anywhere);
//! 2. rounds `1..=log2(n)` — butterfly stages; the `n/2` butterflies of a
//!    stage are partitioned across blocks, and every array element is
//!    written by exactly one butterfly, so rounds are data-race free given
//!    a correct grid barrier;
//! 3. (inverse only) one final normalization round.
//!
//! Butterfly `t` of the stage with span `2^s` is the pair `(i, i + 2^s)`
//! with `k = t mod 2^s` and `i = 2(t - k) + k` (a mask and a shift), and
//! its twiddle `e^(±iπk/2^s)` is entry `k · (n/2 >> s)` of one table of the
//! `n/2` roots `e^(±2πik/n)`, computed once at construction in `f64` — a
//! launch evaluates no `sin` or `cos`.
//!
//! This is precisely the structure whose barrier the paper replaces: with
//! CPU synchronization every stage is a separate kernel launch; with GPU
//! synchronization the whole transform is one persistent kernel.

use blocksync_core::{BlockCtx, GlobalBuffer, RoundKernel, Window};

use super::reference::bit_reverse;
use crate::complex::Complex32;

/// Direction of the transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Forward DFT.
    Forward,
    /// Inverse DFT (with `1/n` normalization).
    Inverse,
}

/// An `n`-point radix-2 FFT structured as barrier-separated rounds.
pub struct GridFft {
    input_re: GlobalBuffer<f32>,
    input_im: GlobalBuffer<f32>,
    work_re: GlobalBuffer<f32>,
    work_im: GlobalBuffer<f32>,
    /// `e^(±2πik/n)` for `k < n/2` (constant, so plain host memory).
    twiddles: Vec<Complex32>,
    n: usize,
    log_n: u32,
    direction: Direction,
}

impl GridFft {
    /// Prepare a transform of `input` (length must be a nonzero power of
    /// two).
    ///
    /// # Panics
    /// Panics if the length is not a power of two.
    pub fn new(input: &[Complex32], direction: Direction) -> Self {
        let n = input.len();
        assert!(
            n.is_power_of_two(),
            "FFT length must be a power of two, got {n}"
        );
        let re: Vec<f32> = input.iter().map(|z| z.re).collect();
        let im: Vec<f32> = input.iter().map(|z| z.im).collect();
        let step = match direction {
            Direction::Forward => -std::f64::consts::TAU,
            Direction::Inverse => std::f64::consts::TAU,
        } / n as f64;
        let twiddles = (0..n / 2)
            .map(|k| {
                let (sin, cos) = (step * k as f64).sin_cos();
                Complex32::new(cos as f32, sin as f32)
            })
            .collect();
        GridFft {
            input_re: GlobalBuffer::from_slice(&re),
            input_im: GlobalBuffer::from_slice(&im),
            work_re: GlobalBuffer::new(n),
            work_im: GlobalBuffer::new(n),
            twiddles,
            n,
            log_n: n.trailing_zeros(),
            direction,
        }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the transform is empty (it never is; `new` requires a power
    /// of two).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Copy the result out of the working buffer (valid after the kernel
    /// has been run to completion).
    pub fn output(&self) -> Vec<Complex32> {
        (0..self.n)
            .map(|i| Complex32::new(self.work_re.get(i), self.work_im.get(i)))
            .collect()
    }

    /// `len` elements of the working buffer from `start`: (re, im).
    #[inline]
    fn work(&self, start: usize, len: usize) -> (Window<'_, f32>, Window<'_, f32>) {
        (
            self.work_re.window(start, len),
            self.work_im.window(start, len),
        )
    }
}

impl RoundKernel for GridFft {
    fn rounds(&self) -> usize {
        // permute + log2(n) stages (+ normalize for the inverse).
        1 + self.log_n as usize + usize::from(self.direction == Direction::Inverse)
    }

    fn round(&self, ctx: &BlockCtx, round: usize) {
        let n = self.n;
        if round == 0 {
            // Bit-reversal gather into the working buffer.
            let chunk = ctx.chunk(n);
            let (re, im) = self.work(chunk.start, chunk.len());
            for k in 0..chunk.len() {
                let src = bit_reverse(chunk.start + k, self.log_n);
                re.set(k, self.input_re.get(src));
                im.set(k, self.input_im.get(src));
            }
            return;
        }
        let stage = round - 1;
        if stage == self.log_n as usize {
            // Inverse-transform normalization round.
            let scale = 1.0 / n as f32;
            let chunk = ctx.chunk(n);
            let (re, im) = self.work(chunk.start, chunk.len());
            for k in 0..chunk.len() {
                re.set(k, re.get(k) * scale);
                im.set(k, im.get(k) * scale);
            }
            return;
        }
        let span = 1usize << stage;
        let stride = (n / 2) >> stage;
        // The chunk's butterflies, one run of consecutive `k` at a time:
        // within a run the two legs and the twiddles each advance by a
        // fixed step.
        let chunk = ctx.chunk(n / 2);
        let mut t = chunk.start;
        while t < chunk.end {
            let k0 = t & (span - 1);
            let run = (span - k0).min(chunk.end - t);
            let i0 = ((t - k0) << 1) | k0;
            let (lo_re, lo_im) = self.work(i0, run);
            let (hi_re, hi_im) = self.work(i0 + span, run);
            let twiddles = &self.twiddles[k0 * stride..];
            for m in 0..run {
                let w = twiddles[m * stride];
                let a = Complex32::new(lo_re.get(m), lo_im.get(m));
                let b = Complex32::new(hi_re.get(m), hi_im.get(m)) * w;
                let (sum, diff) = (a + b, a - b);
                lo_re.set(m, sum.re);
                lo_im.set(m, sum.im);
                hi_re.set(m, diff.re);
                hi_im.set(m, diff.im);
            }
            t += run;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::reference::{dft_naive, fft_inplace, max_error};
    use crate::seqgen::complex_signal;
    use blocksync_core::{GridConfig, LaunchPlan, SyncMethod};

    fn run_grid_fft(
        input: &[Complex32],
        direction: Direction,
        n_blocks: usize,
        method: SyncMethod,
    ) -> Vec<Complex32> {
        let kernel = GridFft::new(input, direction);
        LaunchPlan::compile(GridConfig::new(n_blocks, 64), method)
            .and_then(|plan| plan.run(&kernel))
            .unwrap();
        kernel.output()
    }

    #[test]
    fn matches_sequential_fft_all_gpu_methods() {
        let input = complex_signal(512, 42);
        let mut expected = input.clone();
        fft_inplace(&mut expected);
        for method in SyncMethod::GPU_METHODS {
            let out = run_grid_fft(&input, Direction::Forward, 6, method);
            assert!(max_error(&out, &expected) < 1e-4, "{method}");
        }
    }

    #[test]
    fn matches_sequential_fft_cpu_methods() {
        let input = complex_signal(256, 1);
        let mut expected = input.clone();
        fft_inplace(&mut expected);
        for method in [SyncMethod::CpuExplicit, SyncMethod::CpuImplicit] {
            let out = run_grid_fft(&input, Direction::Forward, 4, method);
            assert!(max_error(&out, &expected) < 1e-4, "{method}");
        }
    }

    #[test]
    fn matches_naive_dft() {
        let input = complex_signal(128, 5);
        let expected = dft_naive(&input);
        let out = run_grid_fft(&input, Direction::Forward, 5, SyncMethod::GpuLockFree);
        assert!(max_error(&out, &expected) < 1e-2);
    }

    #[test]
    fn forward_then_inverse_round_trips() {
        let input = complex_signal(256, 9);
        let spectrum = run_grid_fft(&input, Direction::Forward, 4, SyncMethod::GpuLockFree);
        let back = run_grid_fft(&spectrum, Direction::Inverse, 4, SyncMethod::GpuLockFree);
        assert!(max_error(&back, &input) < 1e-4);
    }

    #[test]
    fn smallest_lengths_match_naive_dft_and_round_trip() {
        // n = 1 has no stage and an empty twiddle table, n = 2 a single
        // stage and a single twiddle.
        for n in [1usize, 2, 4, 8] {
            let input = complex_signal(n, 17);
            for n_blocks in [1, 3] {
                let spectrum = run_grid_fft(
                    &input,
                    Direction::Forward,
                    n_blocks,
                    SyncMethod::GpuLockFree,
                );
                assert!(max_error(&spectrum, &dft_naive(&input)) < 1e-5, "n={n}");
                let back = run_grid_fft(
                    &spectrum,
                    Direction::Inverse,
                    n_blocks,
                    SyncMethod::GpuLockFree,
                );
                assert!(max_error(&back, &input) < 1e-5, "n={n}");
            }
        }
    }

    #[test]
    fn block_count_does_not_change_answer() {
        let input = complex_signal(1024, 3);
        let a = run_grid_fft(&input, Direction::Forward, 1, SyncMethod::GpuSimple);
        let b = run_grid_fft(&input, Direction::Forward, 13, SyncMethod::GpuSimple);
        assert!(max_error(&a, &b) < 1e-6);
    }

    #[test]
    fn rounds_structure() {
        let k = GridFft::new(&complex_signal(1024, 0), Direction::Forward);
        assert_eq!(k.rounds(), 11); // permute + 10 stages
        assert_eq!(k.len(), 1024);
        assert!(!k.is_empty());
        let k = GridFft::new(&complex_signal(1024, 0), Direction::Inverse);
        assert_eq!(k.rounds(), 12); // + normalize
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = GridFft::new(&complex_signal(100, 0), Direction::Forward);
    }
}
