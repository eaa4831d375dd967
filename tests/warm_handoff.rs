//! The warm handoff between the host and a [`GridRuntime`] pool
//! (DESIGN.md §10): idle workers and waiting callers spin, then yield,
//! then park, and every notify on the path is skipped when nobody is
//! parked. These tests pin the handshake's liveness from outside — none
//! sets a `SyncPolicy` timeout, so a lost wake-up hangs instead of being
//! papered over by a watchdog, and the deadlines below only turn such a
//! hang into a failure message.

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
        // Idle for 500 spin bounds: every worker must have left its
        // polling phase. The poll after the sleep only absorbs a worker
        // the scheduler kept off the CPU that long; a worker that never
        // parks (or a count that leaks) fails it.
        std::thread::sleep(Duration::from_millis(50));
        wait_for("all workers parked", || rt.parked_workers() == n);
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

#[test]
fn dropping_a_pool_releases_its_workers_spinning_or_parked() {
    // Every worker co-owns the pool's shared state, which holds the
    // observer: the count returns to this test's one reference only when
    // the pool is gone and all of its workers have exited.
    for parked in [false, true] {
        let rt = GridRuntime::new(GridConfig::new(3, 8), SyncMethod::GpuLockFree).unwrap();
        let obs = rt.observer();
        rt.submit(Bump::new(3, 2)).unwrap().wait().unwrap();
        if parked {
            wait_for("all workers parked", || rt.parked_workers() == 3);
        }
        // Not parked: the workers finished a launch microseconds ago and
        // are inside the spin bound, where shutdown is not polled.
        drop(rt);
        wait_for("workers to exit after drop", || {
            Arc::strong_count(&obs) == 1
        });
    }
}

#[test]
fn unwaited_service_handle_drop_wakes_a_submitter_blocked_on_quota() {
    let key = ShardKey::new(2, 8, SyncMethod::GpuLockFree);
    let svc = Arc::new(GridService::new(
        ServiceConfig::default()
            .with_tenant_quota(1)
            .with_idle_ttl(Duration::from_secs(3600)),
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
        // parked and only the drop's notify (or the 5 ms re-poll slice,
        // hence the bound below is loose) can admit it.
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
