//! Integration tests of the service plane (`blocksync_core::service`):
//! the sharded barrier-as-a-service layer routing submissions to grids on
//! one device behind bounded admission control.
//!
//! The load-bearing properties are the admission invariants:
//! - a tenant's in-flight quota is never exceeded, even under concurrent
//!   submitters racing on one tenant;
//! - `QueueFull` surfaces exactly at queue capacity — the capacity-th
//!   submission is admitted, the capacity+1-th is rejected, and one
//!   release reopens exactly one slot;
//!
//! and the device's:
//! - every shard's launches run on one set of W = `max(2, cores)` workers;
//! - narrow launches of different shards run side by side on it;
//! - a stuck launch whose handle was dropped does not wedge the other
//!   tenants.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use blocksync::core::{
    BlockCtx, GlobalBuffer, GridConfig, GridService, RoundKernel, ServiceConfig, ServiceError,
    ShardKey, SyncMethod, SyncPolicy,
};
use proptest::prelude::*;

/// Far beyond any scheduling delay on a loaded 2-core box; only turns a
/// hang into a failure message.
const HANG: Duration = Duration::from_secs(60);

/// Each round every block bumps its slot; after R rounds with a correct
/// grid barrier every slot holds R — cheap, verifiable service traffic.
/// It also notes the threads its blocks ran on.
struct Bump {
    slots: GlobalBuffer<u64>,
    rounds: usize,
    threads: Mutex<HashSet<ThreadId>>,
}

impl Bump {
    fn for_shard(key: ShardKey, rounds: usize) -> Arc<Bump> {
        Arc::new(Bump {
            slots: GlobalBuffer::new(key.blocks),
            rounds,
            threads: Mutex::new(HashSet::new()),
        })
    }

    fn verify(&self) -> bool {
        self.slots.to_vec().iter().all(|&v| v == self.rounds as u64)
    }

    fn threads(&self) -> HashSet<ThreadId> {
        self.threads.lock().unwrap().clone()
    }
}

impl RoundKernel for Bump {
    fn rounds(&self) -> usize {
        self.rounds
    }
    fn round(&self, ctx: &BlockCtx, _round: usize) {
        let b = ctx.block_id;
        self.slots.set(b, self.slots.get(b) + 1);
        self.threads
            .lock()
            .unwrap()
            .insert(std::thread::current().id());
    }
}

/// The service's device width: `max(2, cores)`, `cores` honouring the
/// affinity mask as the runtime's read does.
fn device_width() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |c| c.get())
        .max(2)
}

fn shard_a() -> ShardKey {
    ShardKey::new(3, 8, SyncMethod::GpuLockFree)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Concurrent submitters racing on one tenant: with no releases, the
    /// service admits exactly `min(quota, attempts)` launches — never one
    /// more (quota is atomic under the admission lock) and never one less
    /// (no spurious rejection while slots are free). Every rejection is a
    /// quota rejection, and every admitted launch completes and verifies.
    #[test]
    fn tenant_quota_is_exact_under_concurrent_submitters(
        quota in 1usize..5,
        threads in 2usize..5,
        per_thread in 1usize..5,
    ) {
        let key = shard_a();
        let svc = GridService::new(
            ServiceConfig::default()
                .with_max_shards(1)
                // Capacity can't interfere: only quota may reject.
                .with_queue_capacity(threads * per_thread + 1)
                .with_tenant_quota(quota),
        );
        let attempts = threads * per_thread;
        let (admitted, quota_rejections): (Vec<_>, usize) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let svc = &svc;
                    scope.spawn(move || {
                        let mut ok = Vec::new();
                        let mut rejected = 0usize;
                        for _ in 0..per_thread {
                            let kernel = Bump::for_shard(key, 10);
                            match svc.submit("tenant", key, Arc::clone(&kernel) as _) {
                                Ok(h) => ok.push((kernel, h)),
                                Err(ServiceError::QuotaExceeded { tenant, quota: q }) => {
                                    assert_eq!(tenant, "tenant");
                                    assert!(q > 0);
                                    rejected += 1;
                                }
                                Err(e) => panic!("only quota may reject here: {e}"),
                            }
                        }
                        (ok, rejected)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("submitter panicked"))
                .fold((Vec::new(), 0), |(mut all, rej), (ok, r)| {
                    all.extend(ok);
                    (all, rej + r)
                })
        });
        prop_assert_eq!(admitted.len(), attempts.min(quota));
        prop_assert_eq!(quota_rejections, attempts - attempts.min(quota));
        prop_assert_eq!(svc.tenant_inflight("tenant"), admitted.len());
        for (kernel, h) in admitted {
            h.wait().expect("clean launch");
            prop_assert!(kernel.verify());
        }
        // Every ticket released: the tenant's ledger is empty again.
        prop_assert_eq!(svc.tenant_inflight("tenant"), 0);
    }

    /// `QueueFull` surfaces exactly at capacity: with per-submission
    /// tenants (so quota never interferes), the first `capacity` submits
    /// are admitted, the next is rejected naming the shard and capacity,
    /// and releasing one launch reopens exactly one slot.
    #[test]
    fn queue_full_surfaces_exactly_at_capacity(capacity in 1usize..6) {
        let key = shard_a();
        let svc = GridService::new(
            ServiceConfig::default()
                .with_max_shards(1)
                .with_queue_capacity(capacity)
                .with_tenant_quota(1),
        );
        let mut held = Vec::new();
        for i in 0..capacity {
            let kernel = Bump::for_shard(key, 10);
            let h = svc
                .submit(&format!("t{i}"), key, Arc::clone(&kernel) as _)
                .unwrap_or_else(|e| panic!("submit {i} under capacity: {e}"));
            held.push((kernel, h));
        }
        prop_assert_eq!(svc.shard_inflight(key), Some(capacity));
        // The capacity+1-th submission is the first rejected one.
        match svc.submit("overflow", key, Bump::for_shard(key, 10) as _) {
            Err(ServiceError::QueueFull { shard, capacity: c }) => {
                prop_assert_eq!(shard, key.to_string());
                prop_assert_eq!(c, capacity);
            }
            other => {
                panic!("expected QueueFull at capacity {capacity}, got {other:?}")
            }
        }
        // Releasing one in-flight launch reopens exactly one slot.
        let (kernel, h) = held.remove(0);
        h.wait().expect("clean launch");
        prop_assert!(kernel.verify());
        let kernel = Bump::for_shard(key, 10);
        let h = svc
            .submit("reopened", key, Arc::clone(&kernel) as _)
            .unwrap_or_else(|e| panic!("slot must have reopened: {e}"));
        held.push((kernel, h));
        for (kernel, h) in held {
            h.wait().expect("clean launch");
            prop_assert!(kernel.verify());
        }
    }
}

/// Blocking admission: a full queue delays `submit_within` rather than
/// rejecting it, and the slot handoff happens as soon as a wait releases
/// a ticket — well before the deadline. A too-short deadline surfaces
/// `Deadline` with the shard name.
#[test]
fn submit_within_blocks_until_a_slot_frees() {
    let key = shard_a();
    let svc = Arc::new(GridService::new(
        ServiceConfig::default()
            .with_max_shards(1)
            .with_queue_capacity(1)
            .with_tenant_quota(8),
    ));
    let holder = Bump::for_shard(key, 10);
    let held = svc
        .submit("tenant", key, Arc::clone(&holder) as _)
        .expect("first submit fills the queue");
    // An immediate-deadline submit cannot be admitted while the queue is
    // full and must time out naming the shard.
    match svc.submit_within("tenant", key, Bump::for_shard(key, 10) as _, Duration::ZERO) {
        Err(ServiceError::Deadline { shard, .. }) => assert_eq!(shard, key.to_string()),
        other => panic!("expected Deadline on a full queue, got {other:?}"),
    }
    // A generous deadline succeeds once the holder is waited from a
    // second thread.
    std::thread::scope(|scope| {
        let svc2 = Arc::clone(&svc);
        let blocked = scope.spawn(move || {
            let kernel = Bump::for_shard(key, 10);
            let h = svc2
                .submit_within(
                    "tenant",
                    key,
                    Arc::clone(&kernel) as _,
                    Duration::from_secs(30),
                )
                .expect("slot frees well before the deadline");
            h.wait().expect("clean launch");
            assert!(kernel.verify());
        });
        // Give the blocked submitter time to park, then release the slot.
        std::thread::sleep(Duration::from_millis(20));
        held.wait().expect("clean launch");
        assert!(holder.verify());
        blocked.join().expect("blocked submitter panicked");
    });
}

/// Three keys of different widths, one at least as wide as the device:
/// each is served bit-identically, the device's log numbers their launches
/// in one increasing sequence with none cold but the process's first,
/// every launch ran on `min(blocks, W)` worker threads, and once idle the
/// device's W workers park. (That those are the same W threads for every
/// shard is a count of the whole process device, which a concurrent
/// test's worker replacement moves; core's unit tests check it on a
/// device of their own.)
#[test]
fn one_device_runs_every_shard_on_w_workers() {
    let w = device_width();
    let keys = [
        ShardKey::new(w, 8, SyncMethod::GpuLockFree),
        ShardKey::new(w + 1, 8, SyncMethod::GpuSimple),
        ShardKey::new(2, 8, SyncMethod::SenseReversing),
    ];
    let svc = GridService::new(ServiceConfig::default());
    let mut last = None;
    for &key in keys.iter().cycle().take(3 * keys.len()) {
        let kernel = Bump::for_shard(key, 5);
        let stats = svc
            .submit("tenant", key, Arc::clone(&kernel) as _)
            .unwrap()
            .wait()
            .unwrap();
        assert!(kernel.verify(), "{key}");
        let pool = stats.pool.unwrap();
        assert!(last < Some(pool.launch_seq), "{key}: {pool:?}");
        assert_eq!(pool.cold, pool.launch_seq == 0, "{key}");
        last = Some(pool.launch_seq);
        assert_eq!(kernel.threads().len(), key.blocks.min(w), "{key}");
    }
    let idle = format!("workers: {w}, parked_workers: {w} ");
    let t0 = Instant::now();
    while !format!("{svc:?}").contains(&idle) {
        assert!(t0.elapsed() < HANG, "never parked: {svc:?}");
        std::thread::yield_now();
    }
}

/// Two 1-block keys: each launch takes one worker, and the second is
/// placed where the first one's window ended, so launch B runs while
/// launch A still holds its worker. Were B placed on A's worker it would
/// queue behind A, and A would give up waiting for it.
#[test]
fn narrow_launches_of_two_shards_run_side_by_side() {
    let svc = GridService::new(ServiceConfig::default());
    let a = ShardKey::new(1, 8, SyncMethod::GpuLockFree);
    let b = ShardKey::new(1, 8, SyncMethod::GpuSimple);
    let b_ran = Arc::new(AtomicBool::new(false));
    let a_saw_b = Arc::new(AtomicBool::new(false));
    let hold: Arc<dyn RoundKernel + Send + Sync> = {
        let (b_ran, a_saw_b) = (Arc::clone(&b_ran), Arc::clone(&a_saw_b));
        Arc::new((1usize, move |_: &BlockCtx, _: usize| {
            let t0 = Instant::now();
            while !b_ran.load(Ordering::Acquire) && t0.elapsed() < HANG {
                std::thread::yield_now();
            }
            a_saw_b.store(b_ran.load(Ordering::Acquire), Ordering::Release);
        }))
    };
    let mark: Arc<dyn RoundKernel + Send + Sync> = {
        let b_ran = Arc::clone(&b_ran);
        Arc::new((1usize, move |_: &BlockCtx, _: usize| {
            b_ran.store(true, Ordering::Release);
        }))
    };
    let held = svc.submit("tenant-a", a, hold).unwrap();
    svc.submit("tenant-b", b, mark).unwrap().wait().unwrap();
    held.wait().unwrap();
    assert!(
        a_saw_b.load(Ordering::Acquire),
        "launch B waited for launch A's worker"
    );
}

/// Tenant A submits an owned launch whose block 1 never returns and
/// ignores its abort signal, then drops the handle: nobody will wait on
/// it. Tenant B's next launch, on another key as wide as the device, needs
/// the worker A is stuck on; its own wait must abandon A and replace that
/// worker, then finish bit-identically on a fresh thread.
#[test]
fn a_dropped_stalled_launch_does_not_wedge_another_tenant() {
    let w = device_width();
    let policy = SyncPolicy::with_timeout(Duration::from_millis(50));
    let svc = GridService::new(
        ServiceConfig::default().with_template(GridConfig::new(1, 1).with_policy(policy)),
    );
    let a = ShardKey::new(w, 8, SyncMethod::GpuLockFree);
    let b = ShardKey::new(w, 8, SyncMethod::GpuSimple);
    let stuck_on = Arc::new(Mutex::new(None));
    let stall: Arc<dyn RoundKernel + Send + Sync> = {
        let stuck_on = Arc::clone(&stuck_on);
        Arc::new((1usize, move |ctx: &BlockCtx, _: usize| {
            if ctx.block_id == 1 {
                *stuck_on.lock().unwrap() = Some(std::thread::current().id());
                loop {
                    std::thread::park();
                }
            }
        }))
    };
    drop(svc.submit("tenant-a", a, stall).unwrap());
    let kernel = Bump::for_shard(b, 5);
    let t0 = Instant::now();
    let held = svc.submit("tenant-b", b, Arc::clone(&kernel) as _).unwrap();
    // Waited on a thread of its own, so that a wedged launch fails the
    // test instead of hanging it.
    let (tx, rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || tx.send(held.wait()).unwrap());
    let waited = rx
        .recv_timeout(HANG)
        .expect("B is wedged behind the dropped launch");
    let took = t0.elapsed();
    waiter.join().unwrap();
    waited.expect("B's launch is not A's failure");
    assert!(kernel.verify());
    // A's barrier timeout, its grace, and one tick of B's wait; the
    // factor only absorbs scheduling on a loaded host.
    let bound = (policy.timeout.unwrap() + policy.abandon_grace()) * 10;
    assert!(took < bound, "B waited {took:?} behind the dropped launch");
    let stuck = stuck_on.lock().unwrap().expect("A's block 1 ran");
    let ran_b = kernel.threads();
    assert_eq!(ran_b.len(), w);
    assert!(
        !ran_b.contains(&stuck),
        "the worker stuck in A was not replaced"
    );
}
