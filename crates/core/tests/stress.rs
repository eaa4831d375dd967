//! Stress tests: the barriers under deliberately hostile timing — jittered
//! compute phases, rapid-fire empty rounds, and mixed-role workloads —
//! where a subtly wrong protocol (lost round, early release, stale read)
//! is most likely to slip through.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use blocksync_core::{BarrierShared, SyncMethod, SyncPolicy, TreeLevels};

const METHODS: [SyncMethod; 6] = [
    SyncMethod::GpuSimple,
    SyncMethod::GpuTree(TreeLevels::Two),
    SyncMethod::GpuTree(TreeLevels::Three),
    SyncMethod::GpuLockFree,
    SyncMethod::SenseReversing,
    SyncMethod::Dissemination,
];

/// Burn a few cycles, data-dependent so it cannot be optimized away.
fn jitter(seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..(seed % 64) {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    x
}

/// Lockstep counter protocol with per-round, per-block jitter: every block
/// bumps a shared round counter slot and checks all slots after the
/// barrier.
fn hostile_exercise(shared: Arc<dyn BarrierShared>, n: usize, rounds: u64) {
    let slots: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
    let sink = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for b in 0..n {
            let shared = Arc::clone(&shared);
            let slots = Arc::clone(&slots);
            let sink = Arc::clone(&sink);
            s.spawn(move || {
                let mut w = shared.waiter(b);
                let mut acc = 0u64;
                for r in 0..rounds {
                    // Unequal, varying work before arriving.
                    acc ^= jitter(r.wrapping_mul(31).wrapping_add(b as u64 * 7));
                    slots[b].store(r + 1, Ordering::Relaxed);
                    w.wait().unwrap();
                    for (other, slot) in slots.iter().enumerate() {
                        let seen = slot.load(Ordering::Relaxed);
                        assert!(
                            seen == r + 1 || seen == r + 2,
                            "block {b} round {r}: block {other} at {seen}"
                        );
                    }
                }
                sink.fetch_add(acc, Ordering::Relaxed);
            });
        }
    });
}

#[test]
fn all_barriers_survive_jittered_rounds() {
    for method in METHODS {
        let shared = method
            .build_barrier_with(5, SyncPolicy::default())
            .expect("gpu method");
        hostile_exercise(shared, 5, 800);
    }
}

#[test]
fn all_barriers_survive_empty_round_bursts() {
    // Zero work between barriers maximizes arrival density.
    for method in METHODS {
        let shared = method
            .build_barrier_with(3, SyncPolicy::default())
            .expect("gpu method");
        let s2 = Arc::clone(&shared);
        std::thread::scope(|s| {
            for b in 0..3 {
                let shared = Arc::clone(&s2);
                s.spawn(move || {
                    let mut w = shared.waiter(b);
                    for _ in 0..5_000 {
                        w.wait().unwrap();
                    }
                });
            }
        });
    }
}
