//! A small spectral-analysis pipeline on the grid FFT.
//!
//! Synthesizes a signal with two tones buried in deterministic noise, runs
//! the forward FFT as a persistent kernel with the lock-free grid barrier
//! (one barrier per butterfly stage), locates the spectral peaks, then
//! reconstructs the signal with the inverse transform and checks the round
//! trip — the workload class the paper's Section 6.1 targets.
//!
//! Run with: `cargo run --release --example fft_pipeline`

use blocksync::algos::complex::Complex32;
use blocksync::algos::fft::{kernel::Direction, GridFft};
use blocksync::algos::seqgen::SplitMix64;
use blocksync::core::{GridConfig, LaunchPlan, SyncMethod};

fn main() {
    let n = 1 << 12;
    let tone_a = 130; // bin index
    let tone_b = 600;
    let mut rng = SplitMix64::new(2026);
    let signal: Vec<Complex32> = (0..n)
        .map(|i| {
            let t = i as f32 / n as f32;
            let s = (2.0 * std::f32::consts::PI * tone_a as f32 * t).sin()
                + 0.5 * (2.0 * std::f32::consts::PI * tone_b as f32 * t).sin()
                + 0.1 * (rng.next_f32() - 0.5);
            Complex32::new(s, 0.0)
        })
        .collect();

    let n_blocks = 6;
    let cfg = GridConfig::new(n_blocks, 64);

    // Forward transform: one persistent kernel, log2(n) grid barriers.
    let fwd = GridFft::new(&signal, Direction::Forward);
    let stats = LaunchPlan::compile(cfg.clone(), SyncMethod::GpuLockFree)
        .and_then(|plan| plan.run(&fwd))
        .expect("valid grid");
    let spectrum = fwd.output();
    println!(
        "forward {}-point FFT on {n_blocks} blocks: {} barrier rounds, {:.2} ms wall",
        n,
        stats.rounds,
        stats.wall.as_secs_f64() * 1e3
    );

    // Peak picking over the first half (real input -> symmetric spectrum).
    let mut mags: Vec<(usize, f32)> = spectrum
        .iter()
        .take(n / 2)
        .map(|z| z.abs())
        .enumerate()
        .collect();
    mags.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("top spectral peaks (bin, magnitude):");
    for &(bin, mag) in mags.iter().take(2) {
        println!("  bin {bin:>5}  |X| = {mag:.1}");
    }
    assert!(
        mags[..2].iter().any(|&(b, _)| b == tone_a) && mags[..2].iter().any(|&(b, _)| b == tone_b),
        "expected tones at bins {tone_a} and {tone_b}"
    );

    // Inverse transform reconstructs the signal.
    let inv = GridFft::new(&spectrum, Direction::Inverse);
    LaunchPlan::compile(cfg, SyncMethod::GpuLockFree)
        .and_then(|plan| plan.run(&inv))
        .expect("valid grid");
    let recon = inv.output();
    let max_err = signal
        .iter()
        .zip(&recon)
        .map(|(a, b)| (a.re - b.re).abs().max((a.im - b.im).abs()))
        .fold(0.0f32, f32::max);
    println!("round-trip max error: {max_err:.2e}");
    assert!(max_err < 1e-3, "round trip drifted");
    println!("ok: spectrum and reconstruction verified");
}
