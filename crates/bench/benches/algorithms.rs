//! Criterion benches of the four applications on the host runtime under
//! every host sync method: one group per algorithm, one id per method —
//! the per-method application table, and the real-execution companion to
//! the simulated Figure 13. Each iteration builds a fresh kernel (scan and
//! bitonic work in place) and copies the result out, so a group compares
//! methods, not algorithms.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use blocksync_algos::bitonic::GridBitonic;
use blocksync_algos::fft::{kernel::Direction, GridFft};
use blocksync_algos::scan::GridScan;
use blocksync_algos::seqgen::{complex_signal, dna_sequence, random_keys, SplitMix64};
use blocksync_algos::swat::{GapPenalties, GridSwat, Scoring};
use blocksync_core::{GridConfig, LaunchPlan, RoundKernel, SyncMethod};

const BLOCKS: usize = 4;

/// One group: build a kernel, run it and read its result back, under each
/// of the eight host methods.
fn bench_group<K: RoundKernel, R>(
    c: &mut Criterion,
    name: &str,
    build: impl Fn() -> K,
    read: impl Fn(&K) -> R,
) {
    let mut group = c.benchmark_group(name);
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let methods = SyncMethod::PAPER_METHODS
        .into_iter()
        .chain(SyncMethod::EXTENSION_METHODS);
    for method in methods {
        let plan = LaunchPlan::compile(GridConfig::new(BLOCKS, 64), method).expect("valid config");
        group.bench_function(BenchmarkId::from_parameter(method), |b| {
            b.iter(|| {
                let kernel = build();
                plan.run(&kernel).expect("valid config");
                read(&kernel)
            });
        });
    }
    group.finish();
}

fn bench_fft(c: &mut Criterion) {
    let input = complex_signal(4096, 7);
    bench_group(
        c,
        "fft_4096",
        || GridFft::new(&input, Direction::Forward),
        GridFft::output,
    );
}

fn bench_swat(c: &mut Criterion) {
    let a = dna_sequence(256, 1);
    let b = dna_sequence(256, 2);
    bench_group(
        c,
        "swat_256x256",
        || GridSwat::new(&a, &b, Scoring::dna(), GapPenalties::dna(), BLOCKS),
        GridSwat::result,
    );
}

fn bench_bitonic(c: &mut Criterion) {
    let keys = random_keys(8192, 3);
    bench_group(
        c,
        "bitonic_8192",
        || GridBitonic::new(&keys),
        GridBitonic::output,
    );
}

fn bench_scan(c: &mut Criterion) {
    let mut rng = SplitMix64::new(4);
    let data: Vec<u64> = (0..1 << 16).map(|_| rng.next_u64() >> 32).collect();
    bench_group(c, "scan_65536", || GridScan::new(&data), GridScan::output);
}

criterion_group!(benches, bench_fft, bench_swat, bench_bitonic, bench_scan);
criterion_main!(benches);
