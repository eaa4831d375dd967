//! A grid reuses its launches' state — barrier, abort signal, bookkeeping —
//! from one launch to the next (DESIGN.md §10). These tests run launches
//! on one grid that would show any state leaking between them: a launch
//! behind a failed one, a launch beside a stale worker of an abandoned one,
//! and traced launches one after another. And an owned kernel's `Drop`
//! runs outside the device's lock, wherever the device lets go of it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use blocksync::core::{
    BlockCtx, ExecError, Fault, FaultInjector, FaultKind, FaultPhase, GlobalBuffer, GridConfig,
    GridRuntime, RoundKernel, SyncMethod, SyncPolicy, TraceConfig, TraceEventKind,
};

mod common;

const ROUNDS: usize = 12;

/// Every round each block writes the mean of its own and its right
/// neighbour's last values plus a term of its own, double-buffered: a
/// barrier that let one block through early changes the bits of the result.
struct Smooth {
    cells: [GlobalBuffer<f64>; 2],
}

impl Smooth {
    fn new(n: usize) -> Self {
        Smooth {
            cells: [GlobalBuffer::new(n), GlobalBuffer::new(n)],
        }
    }

    /// Block `b`'s next value from its own and its right neighbour's.
    fn step(b: usize, own: f64, right: f64) -> f64 {
        (own + right) / 2.0 + (b + 1) as f64 / 7.0
    }

    /// The result of a run, computed one round at a time on this thread.
    fn expected(n: usize) -> Vec<f64> {
        let mut cells = vec![0.0; n];
        for _ in 0..ROUNDS {
            cells = (0..n)
                .map(|b| Self::step(b, cells[b], cells[(b + 1) % n]))
                .collect();
        }
        cells
    }

    fn result(&self) -> Vec<f64> {
        self.cells[ROUNDS % 2].to_vec()
    }
}

impl RoundKernel for Smooth {
    fn rounds(&self) -> usize {
        ROUNDS
    }
    fn round(&self, ctx: &BlockCtx, round: usize) {
        let (src, dst) = (&self.cells[round % 2], &self.cells[(round + 1) % 2]);
        let b = ctx.block_id;
        let right = src.get((b + 1) % ctx.n_blocks);
        dst.set(b, Self::step(b, src.get(b), right));
    }
}

/// Bit-for-bit the sequential result.
fn assert_bit_identical(k: &Smooth, n: usize, what: &str) {
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    assert_eq!(bits(k.result()), bits(Smooth::expected(n)), "{what}");
}

/// One block panics in round 2.
fn panicking(n: usize) -> Arc<dyn RoundKernel + Send + Sync> {
    let fault = Fault {
        block: 1,
        round: 2,
        phase: FaultPhase::RoundBody,
        kind: FaultKind::Panic,
    };
    Arc::new(FaultInjector::new(Smooth::new(n), fault))
}

/// A launch submitted right behind a panicking one, so the two are in the
/// log together, succeeds with the sequential result's bits — under the
/// barrier methods, a CPU method and a folded grid — and so does every
/// later launch of the grid, whose state the failed launch never shares.
#[test]
fn a_launch_pipelined_behind_a_panicking_one_is_bit_identical() {
    for (n, method) in [
        (2, SyncMethod::GpuLockFree),
        (3, SyncMethod::GpuSimple),
        (2, SyncMethod::SenseReversing),
        (3, SyncMethod::Dissemination),
        (2, SyncMethod::CpuImplicit),
        (5, SyncMethod::GpuTree(blocksync::core::TreeLevels::Two)),
    ] {
        let rt = GridRuntime::new(GridConfig::new(n, 8), method).unwrap();
        for i in 0..10 {
            let bad = rt.submit_dyn(panicking(n)).unwrap();
            let good = Arc::new(Smooth::new(n));
            let behind = rt.submit(Arc::clone(&good)).unwrap();
            let err = bad.wait().unwrap_err();
            assert!(
                matches!(
                    err,
                    ExecError::BlockPanicked {
                        block: 1,
                        round: 2,
                        ..
                    }
                ),
                "{method} #{i}: {err}"
            );
            behind.wait().unwrap();
            assert_bit_identical(&good, n, &format!("{method} #{i}, behind the panic"));
            let after = Smooth::new(n);
            rt.run(&after).unwrap();
            assert_bit_identical(&after, n, &format!("{method} #{i}, after the panic"));
        }
    }
}

/// Block 1 of an owned launch stalls in its first round body, deaf to the
/// abort signal, until `release` is raised; the kernel raises `dropped`
/// when the last holder lets it go.
struct Stalled {
    release: Arc<AtomicBool>,
    dropped: Arc<AtomicBool>,
}

impl RoundKernel for Stalled {
    fn rounds(&self) -> usize {
        ROUNDS
    }
    fn round(&self, ctx: &BlockCtx, round: usize) {
        if ctx.block_id == 1 && round == 0 {
            while !self.release.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

impl Drop for Stalled {
    fn drop(&mut self) {
        self.dropped.store(true, Ordering::Release);
    }
}

/// A stalled owned launch is abandoned and its worker replaced; the stale
/// worker keeps the launch, and so its poisoned barrier, while the grid's
/// next launches run correctly. Released, the stale worker fails fast on
/// that barrier — a reset one would hold it or let it into a live launch —
/// and lets the launch go; the grid runs on.
#[test]
fn a_stale_worker_keeps_its_barrier_while_the_grid_runs_on() {
    let n = 3;
    let policy = SyncPolicy::with_timeout(Duration::from_millis(50));
    let rt = GridRuntime::new(
        GridConfig::new(n, 8).with_policy(policy),
        SyncMethod::GpuLockFree,
    )
    .unwrap();
    let release = Arc::new(AtomicBool::new(false));
    let dropped = Arc::new(AtomicBool::new(false));
    let stalled = Arc::new(Stalled {
        release: Arc::clone(&release),
        dropped: Arc::clone(&dropped),
    });
    let err = rt.submit(stalled).unwrap().wait().unwrap_err();
    assert!(
        matches!(&err, ExecError::BarrierTimeout { diagnostic } if diagnostic.stragglers().contains(&1)),
        "{err}"
    );
    for i in 0..20 {
        let k = Smooth::new(n);
        rt.run(&k).unwrap();
        assert_bit_identical(&k, n, &format!("launch {i} beside the stale worker"));
    }
    assert!(
        !dropped.load(Ordering::Acquire),
        "the stale worker let go early"
    );
    release.store(true, Ordering::Release);
    let t0 = Instant::now();
    while !dropped.load(Ordering::Acquire) {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "the released stale worker never let its launch go"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    for i in 0..20 {
        let k = Smooth::new(n);
        rt.run(&k).unwrap();
        assert_bit_identical(&k, n, &format!("launch {i} after the stale worker left"));
    }
}

/// Launches of one traced grid, each of its own round count, and a failed
/// one among them: every launch reports its own events and one spin sample
/// per barrier wait it made, as the same launch on a grid of its own does —
/// a recorder left attached to a reused barrier would take the next
/// launch's samples.
#[test]
fn traced_launches_of_one_grid_report_only_their_own_telemetry() {
    let n = 2;
    let cfg = GridConfig::new(n, 8).with_trace(TraceConfig::new());
    let rt = GridRuntime::new(cfg.clone(), SyncMethod::GpuLockFree).unwrap();
    let traced = |rt: &GridRuntime, rounds: usize| {
        let stats = rt.run(&(rounds, |_: &BlockCtx, _: usize| {})).unwrap();
        let t = stats.telemetry.expect("a traced launch carries telemetry");
        (
            t.count(TraceEventKind::Launch),
            t.count(TraceEventKind::RoundStart),
            t.count(TraceEventKind::Poison),
            t.spin_polls.count(),
        )
    };
    for (i, rounds) in [3, 17, 1, 40, 3].into_iter().enumerate() {
        let alone = GridRuntime::new(cfg.clone(), SyncMethod::GpuLockFree).unwrap();
        let own = traced(&alone, rounds);
        assert_eq!((own.0, own.1, own.2), (n, n * rounds, 0), "{rounds} rounds");
        assert_eq!(traced(&rt, rounds), own, "launch {i}: {rounds} rounds");
        if i == 2 {
            rt.submit_dyn(panicking(n)).unwrap().wait().unwrap_err();
        }
    }
}

/// An owned kernel that reads its grid when it is dropped.
struct ReadsItsGrid {
    rt: Arc<GridRuntime>,
}

impl RoundKernel for ReadsItsGrid {
    fn rounds(&self) -> usize {
        1
    }
    fn round(&self, _ctx: &BlockCtx, _round: usize) {}
}

impl Drop for ReadsItsGrid {
    fn drop(&mut self) {
        let _ = self.rt.queue_depth();
    }
}

/// The device holds the last reference to a launch whose handle was
/// dropped unwaited, and lets it go from a worker: the launch's owned
/// kernel is dropped there. It must be dropped without the device's lock,
/// or a kernel whose `Drop` reads its grid deadlocks every later launch in
/// the process — so the test runs in a process of its own, which a
/// deadlock fails instead of hanging the binary's other tests.
#[test]
fn an_owned_kernel_dropped_by_the_device_may_read_its_grid() {
    common::in_fresh_process(
        "an_owned_kernel_dropped_by_the_device_may_read_its_grid",
        || {
            let rt = GridRuntime::new(GridConfig::new(2, 8), SyncMethod::GpuLockFree).unwrap();
            let rt = Arc::new(rt);
            let (done, finished) = mpsc::channel();
            std::thread::spawn(move || {
                for _ in 0..2000 {
                    let kernel = Arc::new(ReadsItsGrid {
                        rt: Arc::clone(&rt),
                    });
                    drop(rt.submit(kernel).unwrap());
                }
                let k = Smooth::new(2);
                rt.run(&k).unwrap();
                assert_bit_identical(&k, 2, "the launch after the dropped ones");
                done.send(()).unwrap();
            });
            finished
                .recv_timeout(Duration::from_secs(20))
                .expect("a launch after 2000 dropped handles did not return within 20 s");
        },
    );
}
