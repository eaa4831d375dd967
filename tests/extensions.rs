//! Integration tests for the beyond-the-paper extensions: every extension
//! kernel runs end-to-end on the host runtime under several barriers and
//! agrees with an independent reference.

use blocksync::algos::bitonic::{GridBitonicBatched, GridBitonicKv};
use blocksync::algos::fft::{fft2d::GridFft2d, kernel::Direction, reference::max_error};
use blocksync::algos::scan::{inclusive_scan_reference, GridScan};
use blocksync::algos::seqgen::{
    complex_signal, dna_sequence, random_keys, related_dna, SplitMix64,
};
use blocksync::algos::swat::{
    needleman_wunsch, smith_waterman, GapPenalties, GridNw, GridSwatBanded, Scoring,
};
use blocksync::core::{GridConfig, GridExecutor, RoundKernel, SyncMethod};

const METHODS: [SyncMethod; 4] = [
    SyncMethod::CpuImplicit,
    SyncMethod::GpuSimple,
    SyncMethod::GpuLockFree,
    SyncMethod::Dissemination,
];

fn execute<K: RoundKernel>(kernel: &K, n_blocks: usize, method: SyncMethod) {
    GridExecutor::new(GridConfig::new(n_blocks, 32), method)
        .run(kernel)
        .expect("valid configuration");
}

#[test]
fn scan_matches_reference_under_every_method() {
    let mut rng = SplitMix64::new(123);
    let data: Vec<u64> = (0..777).map(|_| rng.next_u64() >> 40).collect();
    let expected = inclusive_scan_reference(&data);
    for method in METHODS {
        let k = GridScan::new(&data);
        execute(&k, 5, method);
        assert_eq!(k.output(), expected, "{method}");
    }
}

#[test]
fn scan_is_exact_for_any_block_count_and_length() {
    // Chunks of one element, empty chunks (more blocks than elements) and
    // ragged ones; sums wrap.
    let mut rng = SplitMix64::new(321);
    for n in [1usize, 2, 3, 100, 257, 1023] {
        let data: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let expected = inclusive_scan_reference(&data);
        for n_blocks in [1, 2, 3, 7, n, n + 5] {
            for method in METHODS {
                let k = GridScan::new(&data);
                execute(&k, n_blocks, method);
                assert_eq!(k.output(), expected, "n={n} blocks={n_blocks} {method}");
            }
        }
    }
}

#[test]
fn fft2d_matches_row_column_reference() {
    let (rows, cols) = (16, 32);
    let input = complex_signal(rows * cols, 9);
    // Reference: 1-D FFT on rows, then on columns.
    let mut expected = input.clone();
    for r in 0..rows {
        blocksync::algos::fft::fft_inplace(&mut expected[r * cols..(r + 1) * cols]);
    }
    let mut cols_out = expected.clone();
    for c in 0..cols {
        let mut col: Vec<_> = (0..rows).map(|r| expected[r * cols + c]).collect();
        blocksync::algos::fft::fft_inplace(&mut col);
        for (r, v) in col.into_iter().enumerate() {
            cols_out[r * cols + c] = v;
        }
    }
    for method in METHODS {
        let k = GridFft2d::new(&input, rows, cols, Direction::Forward);
        execute(&k, 6, method);
        let err = max_error(&k.output(), &cols_out);
        assert!(err < 0.5, "{method}: err {err}"); // f32 over 512 points
    }
}

#[test]
fn key_value_sort_preserves_pairing() {
    let keys = random_keys(2048, 5);
    let values: Vec<u64> = keys.iter().map(|&k| u64::from(!k)).collect();
    for method in METHODS {
        let k = GridBitonicKv::new(&keys, &values);
        execute(&k, 4, method);
        let (sk, sv) = (k.keys(), k.values());
        assert!(sk.windows(2).all(|w| w[0] <= w[1]), "{method}");
        assert!(
            sk.iter().zip(&sv).all(|(&key, &v)| v == u64::from(!key)),
            "{method}"
        );
    }
}

#[test]
fn batched_sort_isolates_segments() {
    let keys = random_keys(4 * 512, 6);
    let k = GridBitonicBatched::new(&keys, 4);
    execute(&k, 6, SyncMethod::GpuLockFree);
    for s in 0..4 {
        let mut expected = keys[s * 512..(s + 1) * 512].to_vec();
        expected.sort_unstable();
        assert_eq!(k.segment(s), expected);
    }
}

#[test]
fn needleman_wunsch_differs_from_smith_waterman_as_expected() {
    let a = dna_sequence(100, 1);
    let b = dna_sequence(100, 2);
    let (s, g) = (Scoring::dna(), GapPenalties::dna());
    let nw_ref = needleman_wunsch(&a, &b, s, g);
    let k = GridNw::new(&a, &b, s, g);
    execute(&k, 5, SyncMethod::GpuSimple);
    assert_eq!(k.score(), nw_ref);
    // Local >= global for unrelated random sequences.
    assert!(smith_waterman(&a, &b, s, g).score >= nw_ref);
}

#[test]
fn banded_alignment_matches_full_on_similar_sequences() {
    let (a, b) = related_dna(400, 0.04, 3);
    let (s, g) = (Scoring::dna(), GapPenalties::dna());
    let full = smith_waterman(&a, &b, s, g);
    for method in METHODS {
        let k = GridSwatBanded::new(&a, &b, 16, s, g, 4);
        execute(&k, 4, method);
        assert_eq!(k.result().score, full.score, "{method}");
    }
}

#[test]
fn extension_kernels_run_past_the_sm_count_too() {
    // 31 blocks, one past the model's SM count: no host ceiling for the
    // extension barriers either.
    let data: Vec<u64> = (1..=100).collect();
    let k = GridScan::new(&data);
    GridExecutor::new(GridConfig::new(31, 32), SyncMethod::Dissemination)
        .run(&k)
        .unwrap();
    assert_eq!(k.output(), inclusive_scan_reference(&data));
}
