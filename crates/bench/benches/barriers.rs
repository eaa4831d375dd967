//! Criterion benches of the *host-runtime* inter-block barriers
//! (real atomics, one OS thread per block) — the real-hardware companion to
//! the simulated Figure 11.
//!
//! What to expect: on a machine with at least as many cores as blocks, the
//! protocol ranking mirrors the paper (one contended counter scales worst,
//! per-block flags best). On fewer cores the numbers measure protocol
//! overhead under oversubscription — ranking still informative, absolute
//! values not.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blocksync_core::{BarrierShared, SyncMethod, SyncPolicy};

/// Drive `shared` through `rounds` barrier rounds on `n` threads; returns
/// the wall time of the slowest thread.
fn drive(shared: Arc<dyn BarrierShared>, n: usize, rounds: u64) -> Duration {
    let start = Instant::now();
    std::thread::scope(|s| {
        for b in 0..n {
            let shared = Arc::clone(&shared);
            s.spawn(move || {
                let mut w = shared.waiter(b);
                for _ in 0..rounds {
                    w.wait().expect("fault-free bench barrier");
                }
            });
        }
    });
    start.elapsed()
}

fn bench_barriers(c: &mut Criterion) {
    let mut group = c.benchmark_group("barrier_round");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for &n in &[2usize, 4] {
        for method in SyncMethod::GPU_METHODS
            .into_iter()
            .chain(SyncMethod::EXTENSION_METHODS)
        {
            let id = BenchmarkId::new(method.to_string(), n);
            group.bench_function(id, |bench| {
                bench.iter_custom(|iters| {
                    let shared = method
                        .build_barrier_with(n, SyncPolicy::default())
                        .expect("gpu method");
                    drive(shared, n, iters)
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_barriers);
criterion_main!(benches);
