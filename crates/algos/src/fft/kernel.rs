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
//! its twiddle is `e^(±iπk/2^s)`. The table keeps each stage's `2^s`
//! twiddles contiguous, from index `2^s − 1` (`n − 1` entries in all), so a
//! run of consecutive `k` reads consecutive entries. It is gathered at
//! construction from the `n/2` roots `e^(±2πik/n)` computed in `f64` —
//! stage `s`'s entry `k` is root `k · (n/2 >> s)` — so neither building
//! the kernel nor a launch evaluates more `sin` or `cos` than those `n/2`.
//! Kernels of the same length and direction share one table: the process
//! keeps the latest tables, up to 2^21 entries (16 MiB) in all, so a
//! second transform of a length builds with no `sin` or `cos` at all.
//!
//! A block walks its chunk of butterflies in runs of consecutive `k`,
//! each one loop over four [`Window`]s (the two legs' `re` and `im`). Below
//! a span of 16 the runs are too short to pay for their windows, so when
//! the chunk is whole groups of `2^s` butterflies — keys `2·start ..
//! 2·end`, nothing else — one window pair over those keys serves the
//! whole chunk, walked group by group with the span a compile-time
//! constant; any other chunk keeps the run loop.
//!
//! This is precisely the structure whose barrier the paper replaces: with
//! CPU synchronization every stage is a separate kernel launch; with GPU
//! synchronization the whole transform is one persistent kernel.

use std::sync::{Arc, Mutex, PoisonError};

use blocksync_core::{BlockCtx, GlobalBuffer, RoundKernel, Window};

use super::reference::bit_reverse;
use crate::complex::Complex32;

/// Spans below this take one window pair per chunk (when the chunk is
/// whole groups) instead of four windows per run: 1, 2, 4 and 8, each a
/// monomorphized [`groups`].
const SHORT_SPAN: usize = 16;

/// Twiddles the process keeps for later kernels, in table entries (16 MiB):
/// a 2^21-point table, or many smaller ones.
const TWIDDLE_CACHE_ENTRIES: usize = 1 << 21;

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
    /// Stage `s`'s twiddles `e^(±iπk/2^s)` for `k < 2^s`, from index
    /// `2^s − 1` (constant, so plain host memory, shared by every kernel
    /// of this length and direction).
    twiddles: Arc<[Complex32]>,
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
        GridFft {
            input_re: GlobalBuffer::from_slice(&re),
            input_im: GlobalBuffer::from_slice(&im),
            work_re: GlobalBuffer::new(n),
            work_im: GlobalBuffer::new(n),
            twiddles: shared_twiddles(n, direction),
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
            let (in_re, in_im) = (self.input_re.window(0, n), self.input_im.window(0, n));
            for k in 0..chunk.len() {
                let src = bit_reverse(chunk.start + k, self.log_n);
                re.set(k, in_re.get(src));
                im.set(k, in_im.get(src));
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
        let twiddles = &self.twiddles[span - 1..2 * span - 1];
        let chunk = ctx.chunk(n / 2);
        if span < SHORT_SPAN && (chunk.start | chunk.len()) & (span - 1) == 0 {
            // Whole groups: the chunk's butterflies are exactly keys
            // 2·start .. 2·end, group after group of 2·span.
            let len = 2 * chunk.len();
            let (re, im) = self.work(2 * chunk.start, len);
            match span {
                1 => groups::<1>(&re, &im, len, twiddles),
                2 => groups::<2>(&re, &im, len, twiddles),
                4 => groups::<4>(&re, &im, len, twiddles),
                _ => groups::<8>(&re, &im, len, twiddles),
            }
            return;
        }
        // The chunk's butterflies, one run of consecutive `k` at a time:
        // within a run the two legs and the twiddles each advance by one.
        let mut t = chunk.start;
        while t < chunk.end {
            let k0 = t & (span - 1);
            let run = (span - k0).min(chunk.end - t);
            let i0 = ((t - k0) << 1) | k0;
            let (lo_re, lo_im) = self.work(i0, run);
            let (hi_re, hi_im) = self.work(i0 + span, run);
            for (m, &w) in twiddles[k0..k0 + run].iter().enumerate() {
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

/// The twiddle table of an `n`-point transform in `direction`, from the
/// process's cache, built and kept on a miss. The cache keeps the latest
/// tables up to `TWIDDLE_CACHE_ENTRIES` entries; a larger table is built
/// and not kept.
fn shared_twiddles(n: usize, direction: Direction) -> Arc<[Complex32]> {
    type Tables = Vec<(usize, Direction, Arc<[Complex32]>)>;
    static CACHE: Mutex<Tables> = Mutex::new(Vec::new());
    // Every update is one push or one remove, so a panic under the lock
    // (building a table) leaves the list whole.
    let mut cache = CACHE.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((.., table)) = cache.iter().find(|(m, d, _)| (*m, *d) == (n, direction)) {
        return Arc::clone(table);
    }
    let table = twiddles(n, direction);
    cache.push((n, direction, Arc::clone(&table)));
    while cache.iter().map(|(.., t)| t.len()).sum::<usize>() > TWIDDLE_CACHE_ENTRIES {
        cache.remove(0);
    }
    table
}

/// Stage `s`'s twiddles `e^(±iπk/2^s)` for `k < 2^s`, from index `2^s − 1`,
/// from `n/2` evaluations of `sin_cos`.
fn twiddles(n: usize, direction: Direction) -> Arc<[Complex32]> {
    let step = match direction {
        Direction::Forward => -std::f64::consts::TAU,
        Direction::Inverse => std::f64::consts::TAU,
    } / n as f64;
    // The last stage's twiddles are the n/2 roots themselves; every
    // earlier stage's are a stride through them.
    let half = n / 2;
    let mut twiddles = vec![Complex32::default(); n - 1];
    let (earlier, roots) = twiddles.split_at_mut(half.saturating_sub(1));
    for (k, root) in roots.iter_mut().enumerate() {
        let (sin, cos) = (step * k as f64).sin_cos();
        *root = Complex32::new(cos as f32, sin as f32);
    }
    for s in 0..n.trailing_zeros().saturating_sub(1) {
        let stage = &mut earlier[(1 << s) - 1..(2 << s) - 1];
        for (w, root) in stage.iter_mut().zip(roots.iter().step_by(half >> s)) {
            *w = *root;
        }
    }
    twiddles.into()
}

/// The butterflies of `len` keys of the working buffer (`re`, `im`) that
/// are whole groups of `2·S`: each group's key `k` with its key `S + k`,
/// under twiddle `k` of `twiddles`. `S` is a constant, so every index is at
/// most the loop's `last` and needs no check of its own.
#[inline(always)]
fn groups<const S: usize>(
    re: &Window<'_, f32>,
    im: &Window<'_, f32>,
    len: usize,
    twiddles: &[Complex32],
) {
    let twiddles: &[Complex32; S] = twiddles.try_into().expect("one stage's twiddles");
    let mut last = 2 * S - 1;
    while last < len {
        let g = last + 1 - 2 * S;
        for (k, &w) in twiddles.iter().enumerate() {
            let (lo, hi) = (g + k, g + S + k);
            let a = Complex32::new(re.get(lo), im.get(lo));
            let b = Complex32::new(re.get(hi), im.get(hi)) * w;
            let (sum, diff) = (a + b, a - b);
            re.set(lo, sum.re);
            im.set(lo, sum.im);
            re.set(hi, diff.re);
            im.set(hi, diff.im);
        }
        last += 2 * S;
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

    /// Every element takes the same butterflies with the same twiddles at
    /// any block count, so the output is bit-identical to one block's. On
    /// 2 and 8 blocks the short spans take one window pair wherever a
    /// chunk is whole groups; on 3, 5 and 13 they mostly take the runs.
    #[test]
    fn every_block_count_is_bit_identical_to_one() {
        let bits = |v: Vec<Complex32>| -> Vec<(u32, u32)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        for log_n in 0..=12 {
            let n = 1usize << log_n;
            let input = complex_signal(n, 40 + log_n);
            for direction in [Direction::Forward, Direction::Inverse] {
                let run = |n_blocks| {
                    bits(run_grid_fft(
                        &input,
                        direction,
                        n_blocks,
                        SyncMethod::GpuLockFree,
                    ))
                };
                let one = run(1);
                for n_blocks in [2, 3, 5, 8, 13] {
                    assert!(run(n_blocks) == one, "n={n} {direction:?} on {n_blocks}");
                }
            }
        }
    }

    #[test]
    fn the_twiddle_table_is_each_stage_contiguous() {
        // Stage s's twiddle k is e^(-iπk/2^s), at 2^s - 1 + k.
        let k = GridFft::new(&complex_signal(64, 0), Direction::Forward);
        assert_eq!(k.twiddles.len(), 63);
        for s in 0..6 {
            let span = 1usize << s;
            for j in 0..span {
                let angle = -std::f64::consts::PI * j as f64 / span as f64;
                let w = k.twiddles[span - 1 + j];
                assert!(
                    (f64::from(w.re) - angle.cos()).abs() < 1e-6,
                    "stage {s}, {j}"
                );
                assert!(
                    (f64::from(w.im) - angle.sin()).abs() < 1e-6,
                    "stage {s}, {j}"
                );
            }
        }
    }

    /// Kernels of one length and direction share their table; the other
    /// direction or another length gets its own.
    #[test]
    fn kernels_of_one_length_and_direction_share_a_twiddle_table() {
        let build = |n, direction| GridFft::new(&complex_signal(n, 1), direction).twiddles;
        let forward = build(128, Direction::Forward);
        assert!(Arc::ptr_eq(&forward, &build(128, Direction::Forward)));
        assert!(!Arc::ptr_eq(&forward, &build(128, Direction::Inverse)));
        assert_eq!(build(256, Direction::Forward).len(), 255);
        assert_eq!(*forward, *twiddles(128, Direction::Forward));
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
