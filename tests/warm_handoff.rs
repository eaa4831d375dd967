//! The warm handoff between the host and a [`GridRuntime`] pool
//! (DESIGN.md §10): idle workers and waiting callers yield, then park —
//! they never spin, since the host shares its cores with the workers
//! (DESIGN.md §15) — and every notify on the path is skipped when nobody
//! is parked. These tests pin the handshake's liveness from outside —
//! none sets a `SyncPolicy` timeout, so a lost wake-up hangs instead of
//! being papered over by a watchdog, and the deadlines below only turn
//! such a hang into a failure message. CI also runs them on one CPU
//! (`taskset -c 0`), where the host and both workers share it and a
//! waiter that did not yield would starve its peer.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use blocksync::core::{
    BlockCtx, GlobalBuffer, GridConfig, GridRuntime, GridService, RoundKernel, ServiceConfig,
    ShardKey, SyncMethod,
};

/// Far beyond any scheduling delay on a loaded 2-core box.
const HANG: Duration = Duration::from_secs(60);

/// Each round every block bumps its slot; after R rounds behind a correct
/// barrier every slot holds R.
struct Bump {
    slots: GlobalBuffer<u64>,
    rounds: usize,
}

impl Bump {
    fn new(blocks: usize, rounds: usize) -> Arc<Bump> {
        Arc::new(Bump {
            slots: GlobalBuffer::new(blocks),
            rounds,
        })
    }

    fn verify(&self) -> bool {
        self.slots.to_vec().iter().all(|&v| v == self.rounds as u64)
    }
}

impl RoundKernel for Bump {
    fn rounds(&self) -> usize {
        self.rounds
    }
    fn round(&self, ctx: &BlockCtx, _round: usize) {
        let b = ctx.block_id;
        self.slots.set(b, self.slots.get(b) + 1);
    }
}

/// A one-round kernel whose blocks hold until `open` is raised.
fn gated(open: &Arc<AtomicBool>) -> Arc<dyn RoundKernel + Send + Sync> {
    let open = Arc::clone(open);
    Arc::new((1usize, move |_: &BlockCtx, _: usize| {
        while !open.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_micros(50));
        }
    }))
}

/// The workers a pool of `n` blocks runs on: one per block up to the
/// host's cores, and at least two; past that the grid folds onto them.
fn workers(n: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    n.min(cores.max(2))
}

fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < HANG, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_micros(200));
    }
}

#[test]
fn idle_pool_parks_every_worker_and_the_next_submit_wakes_them() {
    let n = 4;
    let rt = GridRuntime::new(GridConfig::new(n, 8), SyncMethod::GpuLockFree).unwrap();
    // A pool spawns its workers with its first launch: before it there is
    // nobody to park.
    assert_eq!(rt.parked_workers(), 0);
    rt.submit(Bump::new(n, 1)).unwrap().wait().unwrap();
    for round in 0..3 {
        // Idle for 500 yield bounds: every worker must have left its
        // polling phase. The poll after the sleep only absorbs a worker
        // the scheduler kept off the CPU that long; a worker that never
        // parks (or a count that leaks) fails it.
        std::thread::sleep(Duration::from_millis(50));
        wait_for("all workers parked", || rt.parked_workers() == workers(n));
        let k = Bump::new(n, 5);
        rt.submit(Arc::clone(&k)).unwrap().wait().unwrap();
        assert!(k.verify(), "launch {round} after a parked idle");
    }
    assert_eq!(rt.launches(), 4);
}

#[test]
fn alternating_pools_with_gaps_straddling_the_spin_bound_never_lose_a_wake() {
    // Gaps of 0–300 µs put each pool's workers, launch by launch, in every
    // state of the handoff when the next entry is published: still
    // spinning, yielding, just past the lock with the park count raised,
    // or asleep.
    let pools = [
        GridRuntime::new(GridConfig::new(2, 8), SyncMethod::GpuLockFree).unwrap(),
        GridRuntime::new(GridConfig::new(2, 8), SyncMethod::GpuSimple).unwrap(),
    ];
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..20_000usize {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        let gap = Duration::from_micros(seed % 301);
        let t0 = Instant::now();
        while t0.elapsed() < gap {
            std::thread::yield_now();
        }
        let k = Bump::new(2, 1);
        let rt = &pools[i % 2];
        if i % 3 == 0 {
            rt.run(&*k).unwrap();
        } else {
            rt.submit(Arc::clone(&k)).unwrap().wait().unwrap();
        }
        assert!(k.verify(), "launch {i}");
    }
    assert_eq!(pools[0].launches() + pools[1].launches(), 20_000);
}

thread_local! {
    /// A worker's clone of its test's witness, dropped when the thread
    /// exits.
    static WITNESS: RefCell<Option<Arc<()>>> = const { RefCell::new(None) };
}

/// A one-round kernel whose blocks leave a clone of `witness` in their
/// thread's local storage: the count returns to the test's one reference
/// only once every thread that ran a block has exited.
fn witnessed(witness: &Arc<()>) -> Arc<dyn RoundKernel + Send + Sync> {
    let witness = Arc::clone(witness);
    Arc::new((1usize, move |_: &BlockCtx, _: usize| {
        WITNESS.with(|w| *w.borrow_mut() = Some(Arc::clone(&witness)));
    }))
}

#[test]
fn dropping_a_pool_releases_its_workers_spinning_or_parked() {
    for parked in [false, true] {
        let rt = GridRuntime::new(GridConfig::new(3, 8), SyncMethod::GpuLockFree).unwrap();
        let witness = Arc::new(());
        rt.submit_dyn(witnessed(&witness)).unwrap().wait().unwrap();
        if parked {
            wait_for("all workers parked", || rt.parked_workers() == workers(3));
        }
        // Not parked: the workers finished a launch microseconds ago and
        // are inside the yield bound, where shutdown is not polled.
        drop(rt);
        wait_for("workers to exit after drop", || {
            Arc::strong_count(&witness) == 1
        });
    }
}

#[test]
fn unwaited_service_handle_drop_wakes_a_submitter_blocked_on_quota() {
    let key = ShardKey::new(2, 8, SyncMethod::GpuLockFree);
    let svc = Arc::new(GridService::new(
        ServiceConfig::default().with_tenant_quota(1),
    ));
    let open = Arc::new(AtomicBool::new(false));
    let held = svc.submit("tenant", key, gated(&open)).unwrap();
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let svc2 = Arc::clone(&svc);
        scope.spawn(move || {
            let k = Bump::new(2, 3);
            let t0 = Instant::now();
            let h = svc2
                .submit_within("tenant", key, Arc::clone(&k) as _, 2 * HANG)
                .expect("admitted once the held slot is released");
            tx.send(t0.elapsed()).unwrap();
            h.wait().unwrap();
            assert!(k.verify());
        });
        // The quota rejection is counted under the service lock, which
        // the submitter keeps until it is inside its wait: once the count
        // is visible and `Ticket::drop` has that lock, the submitter is
        // parked and only the drop's notify can admit it before its
        // deadline, twice `HANG` away.
        wait_for("the submitter to be refused", || {
            svc.observer()
                .snapshot()
                .labeled
                .get("service_rejections_total")
                .is_some_and(|r| r.get("quota").copied().unwrap_or(0) >= 1)
        });
        drop(held);
        let waited = rx.recv_timeout(HANG);
        open.store(true, Ordering::Release);
        let waited = waited.expect("blocked submitter woke");
        assert!(waited < HANG, "admission took {waited:?}");
    });
    assert_eq!(svc.tenant_inflight("tenant"), 0);
}
