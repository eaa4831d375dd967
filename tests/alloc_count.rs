//! Heap allocations per warm launch (ROADMAP item 4), counted by this
//! binary's global allocator: every thread's, the device workers' included.
//!
//! Each test runs alone in a fresh process of this binary, so nothing but
//! its own launches allocates while it counts. It warms its grid until the
//! observer's flight recorder is full and the grid's launch slots exist,
//! then pins the exact count of a steady-state launch: a new allocation on
//! the launch path fails here. A folded grid's workers keep their per-entry
//! buffers, so its launches allocate as an unfolded grid's do, however many
//! rounds they run. What is left is what the caller gets back and the
//! launch itself: the `Arc` of the launch, the stats' per-block times and
//! pool box, and the flight record's copies of those two. The method name
//! and a service shard's label are computed once per grid and shared, so
//! a launch takes them by a reference-count bump. Through the service, a
//! tenant with nothing else in flight also allocates its name.
//!
//! The allocator also counts allocations of 64 KiB or more: a kernel
//! built again after an identical one was dropped takes its large buffers
//! from the storage the dropped one gave back, and makes none.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use blocksync::algos::scan::GridScan;
use blocksync::algos::seqgen::dna_sequence;
use blocksync::algos::swat::{GapPenalties, GridSwat, Scoring};
use blocksync::core::{
    BlockCtx, GridConfig, GridRuntime, GridService, RoundKernel, ServiceConfig, ShardKey,
    SyncMethod, FLIGHT_RECORDER_CAPACITY,
};

mod common;

struct Counting;

/// Allocations (and reallocations) made so far, by every thread.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Those of them of at least `LARGE_BYTES`.
static LARGE: AtomicU64 = AtomicU64::new(0);

/// The smallest buffer storage the process keeps for reuse.
const LARGE_BYTES: usize = 64 << 10;

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    if bytes >= LARGE_BYTES {
        LARGE.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are the only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The shape of the benchmark's short service launches: two blocks of 64
/// threads, eight lock-free rounds.
const BLOCKS: usize = 2;
const TPB: usize = 64;
const ROUNDS: usize = 8;

/// Launches timed one by one once warm.
const SAMPLES: usize = 200;

/// Allocations of one steady-state launch: run `launch` until the flight
/// recorder is full, then once per sample, and return the count every
/// sample but a stray few made (the median), after checking that none made
/// fewer.
fn steady_allocs(mut launch: impl FnMut()) -> u64 {
    for _ in 0..2 * FLIGHT_RECORDER_CAPACITY {
        launch();
    }
    let mut per: Vec<u64> = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let before = ALLOCS.load(Ordering::Relaxed);
        launch();
        per.push(ALLOCS.load(Ordering::Relaxed) - before);
    }
    per.sort_unstable();
    let median = per[SAMPLES / 2];
    assert_eq!(per[0], median, "allocations per launch: {per:?}");
    median
}

/// A kernel whose rounds do nothing.
type Idle = (usize, fn(&BlockCtx, usize));

fn kernel() -> Idle {
    (ROUNDS, |_, _| {})
}

/// `GridRuntime::run` of a borrowed kernel.
#[test]
fn a_warm_grid_run_allocates_five_times() {
    common::in_fresh_process("a_warm_grid_run_allocates_five_times", || {
        let rt = GridRuntime::new(GridConfig::new(BLOCKS, TPB), SyncMethod::GpuLockFree).unwrap();
        let kernel = kernel();
        let allocs = steady_allocs(|| {
            rt.run(&kernel).unwrap();
        });
        assert_eq!(allocs, 5);
    });
}

/// Allocations of a warm `GridRuntime::run` of an idle `rounds`-round
/// kernel on `blocks` blocks under `method`.
fn grid_allocs(blocks: usize, method: SyncMethod, rounds: usize) -> u64 {
    let rt = GridRuntime::new(GridConfig::new(blocks, TPB), method).unwrap();
    let kernel: Idle = (rounds, |_, _| {});
    steady_allocs(|| {
        rt.run(&kernel).unwrap();
    })
}

/// Four blocks per worker of the process device, which has one worker per
/// core and at least two: the grid folds on any host.
fn folded_blocks() -> usize {
    4 * std::thread::available_parallelism().map_or(2, |c| c.get().max(2))
}

/// A folded grid's workers run its entries out of buffers they keep: a
/// CPU-method launch, one entry per round, allocates the same at R and 2R
/// rounds, and a folded GPU-method launch as often as an unfolded one.
#[test]
fn a_folded_launch_allocates_nothing_per_round() {
    common::in_fresh_process("a_folded_launch_allocates_nothing_per_round", || {
        let n = folded_blocks();
        for method in [SyncMethod::CpuImplicit, SyncMethod::CpuExplicit] {
            let (short, long) = (
                grid_allocs(n, method, ROUNDS),
                grid_allocs(n, method, 2 * ROUNDS),
            );
            assert_eq!(short, long, "{method}: {ROUNDS} and {} rounds", 2 * ROUNDS);
        }
        let method = SyncMethod::GpuLockFree;
        assert_eq!(
            grid_allocs(n, method, ROUNDS),
            grid_allocs(BLOCKS, method, ROUNDS),
            "{n} blocks folded and {BLOCKS} unfolded"
        );
    });
}

/// `GridService::submit_within` → `ServiceHandle::wait`, one tenant with
/// one launch in flight, as the benchmark's short service client runs.
#[test]
fn a_warm_service_launch_allocates_six_times() {
    common::in_fresh_process("a_warm_service_launch_allocates_six_times", || {
        let svc = GridService::new(ServiceConfig::default());
        let key = ShardKey::new(BLOCKS, TPB, SyncMethod::GpuLockFree);
        let kernel: Arc<dyn RoundKernel + Send + Sync> = Arc::new(kernel());
        let allocs = steady_allocs(|| {
            svc.submit_within(
                "client-0",
                key,
                Arc::clone(&kernel),
                Duration::from_secs(10),
            )
            .unwrap()
            .wait()
            .unwrap();
        });
        assert_eq!(allocs, 6);
    });
}

/// Allocations of `LARGE_BYTES` or more that `build` makes.
fn large_allocs<K>(build: impl FnOnce() -> K) -> u64 {
    let before = LARGE.load(Ordering::Relaxed);
    let kernel = build();
    let made = LARGE.load(Ordering::Relaxed) - before;
    drop(kernel);
    made
}

/// The `algos` benchmark's Smith-Waterman and scan shapes: the first build
/// allocates each large buffer (`H`; the input and the sums), and a
/// rebuild after the drop allocates none.
#[test]
fn a_rebuilt_kernel_makes_no_large_allocation() {
    common::in_fresh_process("a_rebuilt_kernel_makes_no_large_allocation", || {
        let (a, b) = (dna_sequence(1024, 1), dna_sequence(1024, 2));
        let swat = || GridSwat::new(&a, &b, Scoring::dna(), GapPenalties::dna(), BLOCKS);
        let values: Vec<u64> = (0..1 << 18).collect();
        let scan = || GridScan::new(&values);
        assert_eq!(large_allocs(swat), 1, "first GridSwat");
        assert_eq!(large_allocs(swat), 0, "rebuilt GridSwat");
        assert_eq!(large_allocs(scan), 2, "first GridScan");
        assert_eq!(large_allocs(scan), 0, "rebuilt GridScan");
    });
}
