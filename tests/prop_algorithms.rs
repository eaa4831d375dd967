//! Property-based tests of the three applications: for arbitrary inputs,
//! the grid kernels must agree with their sequential references under any
//! block count and any barrier.

use blocksync::algos::bitonic::GridBitonic;
use blocksync::algos::fft::{dft_naive, kernel::Direction, reference::max_error, GridFft};
use blocksync::algos::swat::{smith_waterman, GapPenalties, GridSwat, Scoring};
use blocksync::core::{GridConfig, LaunchPlan, RoundKernel, SyncMethod, TreeLevels};
use proptest::prelude::*;

fn method_strategy() -> impl Strategy<Value = SyncMethod> {
    prop_oneof![
        Just(SyncMethod::CpuImplicit),
        Just(SyncMethod::GpuSimple),
        Just(SyncMethod::GpuTree(TreeLevels::Two)),
        Just(SyncMethod::GpuLockFree),
    ]
}

fn execute<K: RoundKernel>(kernel: &K, n_blocks: usize, method: SyncMethod) {
    LaunchPlan::compile(GridConfig::new(n_blocks, 32), method)
        .and_then(|plan| plan.run(kernel))
        .expect("valid configuration");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bitonic_sorts_anything(
        log_n in 0u32..10,
        seedless_keys in proptest::collection::vec(any::<u32>(), 1..=1024),
        n_blocks in 1usize..7,
        method in method_strategy(),
    ) {
        // Truncate/pad to 2^log_n.
        let n = 1usize << log_n;
        let mut keys = seedless_keys;
        keys.resize(n, 0xDEAD_BEEF);
        let kernel = GridBitonic::new(&keys);
        execute(&kernel, n_blocks, method);
        let out = kernel.output();
        // Sorted...
        prop_assert!(out.windows(2).all(|w| w[0] <= w[1]));
        // ...and a permutation of the input (multiset equality).
        let mut expected = keys.clone();
        expected.sort_unstable();
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn fft_matches_naive_dft_for_random_signals(
        log_n in 1u32..8,
        seed in any::<u64>(),
        n_blocks in 1usize..7,
        method in method_strategy(),
    ) {
        let n = 1usize << log_n;
        let input = blocksync::algos::seqgen::complex_signal(n, seed);
        let kernel = GridFft::new(&input, Direction::Forward);
        execute(&kernel, n_blocks, method);
        let expected = dft_naive(&input);
        let err = max_error(&kernel.output(), &expected);
        prop_assert!(err < 1e-2 * n as f32, "err {err}");
    }

    #[test]
    fn fft_inverse_round_trips(
        log_n in 1u32..9,
        seed in any::<u64>(),
        n_blocks in 1usize..5,
    ) {
        let n = 1usize << log_n;
        let input = blocksync::algos::seqgen::complex_signal(n, seed);
        let fwd = GridFft::new(&input, Direction::Forward);
        execute(&fwd, n_blocks, SyncMethod::GpuLockFree);
        let inv = GridFft::new(&fwd.output(), Direction::Inverse);
        execute(&inv, n_blocks, SyncMethod::GpuLockFree);
        prop_assert!(max_error(&inv.output(), &input) < 1e-3);
    }

    #[test]
    fn parseval_energy_is_preserved(
        log_n in 2u32..9,
        seed in any::<u64>(),
    ) {
        // sum |x|^2 = (1/n) sum |X|^2 — an FFT invariant independent of
        // the reference implementation.
        let n = 1usize << log_n;
        let input = blocksync::algos::seqgen::complex_signal(n, seed);
        let kernel = GridFft::new(&input, Direction::Forward);
        execute(&kernel, 4, SyncMethod::GpuLockFree);
        let time_energy: f32 = input.iter().map(|z| z.norm_sqr()).sum();
        let freq_energy: f32 =
            kernel.output().iter().map(|z| z.norm_sqr()).sum::<f32>() / n as f32;
        let rel = (time_energy - freq_energy).abs() / time_energy.max(1e-6);
        prop_assert!(rel < 1e-3, "Parseval violated: {time_energy} vs {freq_energy}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn swat_matches_reference_for_random_inputs(
        la in 1usize..80,
        lb in 1usize..80,
        seed in any::<u64>(),
        n_blocks in 1usize..6,
        method in method_strategy(),
        mat in 1i32..4,
        mis in -3i32..0,
        open in 2i32..8,
        extend in 1i32..3,
    ) {
        let a = blocksync::algos::seqgen::dna_sequence(la, seed);
        let b = blocksync::algos::seqgen::dna_sequence(lb, seed ^ 0xABCD);
        let scoring = Scoring::Simple { r#match: mat, mismatch: mis };
        let gaps = GapPenalties { open, extend };
        let expected = smith_waterman(&a, &b, scoring, gaps);
        let kernel = GridSwat::new(&a, &b, scoring, gaps, n_blocks);
        execute(&kernel, n_blocks, method);
        let got = kernel.result();
        prop_assert_eq!(got.score, expected.score);
        prop_assert_eq!(got.end, expected.end);
    }

    #[test]
    fn swat_score_bounds(
        la in 1usize..60,
        lb in 1usize..60,
        seed in any::<u64>(),
    ) {
        // 0 <= score <= 2 * min(la, lb) for DNA scoring (+2 per match).
        let a = blocksync::algos::seqgen::dna_sequence(la, seed);
        let b = blocksync::algos::seqgen::dna_sequence(lb, seed ^ 1);
        let kernel = GridSwat::new(&a, &b, Scoring::dna(), GapPenalties::dna(), 3);
        execute(&kernel, 3, SyncMethod::GpuLockFree);
        let score = kernel.result().score;
        prop_assert!(score >= 0);
        prop_assert!(score <= 2 * la.min(lb) as i32);
    }
}
