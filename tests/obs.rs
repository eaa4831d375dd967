//! Integration tests of the observability plane (`blocksync_core::obs`):
//! the cross-launch metrics registry fed by the pooled runtime and the
//! launch engine, and the crash-dump flight recorder wired through the
//! chaos harness.
//!
//! The load-bearing property is **ground truth**: the registry is fed the
//! exact same `wall` measurement that lands in each launch's
//! [`KernelStats`], so a histogram rebuilt from the per-launch stats must
//! equal the registry's histogram bit-for-bit — same buckets, same
//! percentiles, same min/max.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use blocksync::core::{
    BlockCtx, ChaosConfig, ExecError, Fault, FaultInjector, FaultKind, GlobalBuffer, GridConfig,
    GridRuntime, Histogram, LaunchPlan, LaunchRecord, MetricsSnapshot, Observer, PoolLaunchStats,
    RoundKernel, StuckDiagnostic, StuckPhase, SyncMethod, SyncPolicy, TraceConfig,
};
use blocksync::device::json;
use blocksync::device::DeviceError;
use blocksync::microbench::MeanKernel;
use proptest::prelude::*;

/// Pipelined pooled launches; returns the per-launch stats (ground truth)
/// and the pool's end-of-run snapshot.
fn pooled_soak(
    launches: usize,
    window: usize,
    method: SyncMethod,
) -> (Vec<blocksync::core::KernelStats>, MetricsSnapshot) {
    let (blocks, tpb, rounds) = (4, 16, 60);
    let rt = GridRuntime::new(GridConfig::new(blocks, tpb), method).expect("pool-capable method");
    let mut inflight = VecDeque::new();
    let mut stats = Vec::with_capacity(launches);
    for _ in 0..launches {
        let kernel = Arc::new(MeanKernel::for_grid(blocks, tpb, rounds));
        inflight.push_back(rt.submit(kernel).expect("submit"));
        if inflight.len() >= window {
            let h = inflight.pop_front().expect("nonempty");
            stats.push(h.wait().expect("clean launch"));
        }
    }
    while let Some(h) = inflight.pop_front() {
        stats.push(h.wait().expect("clean launch"));
    }
    let snapshot = rt.observer().snapshot();
    (stats, snapshot)
}

/// The acceptance bar of the plane: after a pooled pipelined run, the
/// registry's latency histogram and counters must match what the
/// per-launch `KernelStats` say happened — exactly, not approximately.
#[test]
fn pooled_registry_matches_per_launch_stats_ground_truth() {
    let launches = 12;
    let (stats, snap) = pooled_soak(launches, 3, SyncMethod::GpuLockFree);
    assert_eq!(stats.len(), launches);

    // Counters against ground truth: every launch succeeded, and the cold
    // ones are those the stats call cold — at most the first, if it was
    // the process's first launch.
    let cold = stats
        .iter()
        .filter(|s| s.pool.as_ref().unwrap().cold)
        .count() as u64;
    assert!(stats.iter().skip(1).all(|s| !s.pool.as_ref().unwrap().cold));
    assert_eq!(snap.counters["launches_total"], launches as u64);
    assert_eq!(snap.counters["launches_failed_total"], 0);
    assert_eq!(snap.counters["launches_cold_total"], cold);
    assert_eq!(snap.counters["launches_warm_total"], launches as u64 - cold);
    assert!(!snap.labeled.contains_key("launch_failures_total"));
    // queue_depth is a labeled gauge family keyed by shard; a standalone
    // runtime reports under the reserved "default" shard label.
    assert!(!snap.gauges.contains_key("queue_depth"));
    assert!(snap.labeled_gauges["queue_depth"].contains_key(blocksync::core::DEFAULT_SHARD));

    // The submit→stats histogram is fed the same `wall` value the stats
    // carry, so a reference histogram rebuilt from the stats is identical:
    // same p50/p99, same count/sum/min/max, same buckets.
    let mut reference = Histogram::new();
    for s in &stats {
        assert!(s.pool.is_some());
        reference.record(u64::try_from(s.wall.as_nanos()).unwrap());
    }
    let got = &snap.histograms["submit_to_stats_ns/gpu-lock-free"];
    assert_eq!(got.percentile(0.50), reference.percentile(0.50));
    assert_eq!(got.percentile(0.99), reference.percentile(0.99));
    assert_eq!(got, &reference);

    // Queueing and launch-overhead histograms sampled once per launch.
    assert_eq!(snap.histograms["queued_ns"].count(), launches as u64);
    assert_eq!(snap.histograms["launch_ns"].count(), launches as u64);

    // Prometheus rendering of the same snapshot carries the ground-truth
    // quantiles verbatim.
    let prom = snap.render_prometheus();
    assert!(
        prom.contains(&format!(
            "blocksync_submit_to_stats_ns{{method=\"gpu-lock-free\",quantile=\"0.99\"}} {}",
            reference.percentile(0.99)
        )),
        "{prom}"
    );
    assert!(
        prom.contains(&format!("blocksync_launches_total {launches}")),
        "{prom}"
    );
}

struct Bump(GlobalBuffer<u64>);
impl RoundKernel for Bump {
    fn rounds(&self) -> usize {
        3
    }
    fn round(&self, ctx: &BlockCtx, _round: usize) {
        self.0.set(ctx.block_id, self.0.get(ctx.block_id) + 1);
    }
}

struct PanicKernel;
impl RoundKernel for PanicKernel {
    fn rounds(&self) -> usize {
        3
    }
    fn round(&self, ctx: &BlockCtx, round: usize) {
        if ctx.block_id == 1 && round == 1 {
            panic!("injected fault: obs test");
        }
    }
}

/// Failures increment both the plain failure counter and the by-kind
/// labeled counter with the error's stable class label.
#[test]
fn failures_are_counted_by_kind() {
    let plan = LaunchPlan::compile(GridConfig::new(2, 8), SyncMethod::GpuLockFree).unwrap();
    plan.run(&PanicKernel).unwrap_err();
    plan.run(&Bump(GlobalBuffer::new(2))).unwrap();
    let snap = plan.observer().snapshot();
    assert_eq!(snap.counters["launches_total"], 2);
    assert_eq!(snap.counters["launches_failed_total"], 1);
    assert_eq!(snap.labeled["launch_failures_total"]["panic"], 1);
    // The flight recorder kept the failure.
    let failure = plan.observer().last_failure().expect("recorded");
    assert!(failure.error.is_some());
    assert_eq!(failure.method, "gpu-lock-free");
}

/// One producer, one record: the same faulty kernel launched through a
/// `LaunchPlan` (a fresh grid for the call) and as launch 1 of a
/// `GridRuntime` leaves the same failure record — the scheduled fault,
/// the trace tails, the typed error — and the two postmortems differ only
/// in the launch's place in the device's log and in what a clock reads.
#[test]
fn scoped_and_pooled_failures_leave_the_same_record() {
    let fault = Fault::in_round(1, 2, FaultKind::Panic);
    let kernel = FaultInjector::new(Bump(GlobalBuffer::new(3)), fault);
    let cfg = GridConfig::new(3, 8)
        .with_policy(SyncPolicy::with_timeout(Duration::from_millis(200)))
        .with_trace(TraceConfig::default());
    let plan = LaunchPlan::compile(cfg.clone(), SyncMethod::GpuLockFree).unwrap();
    plan.run(&kernel).unwrap_err();
    let rt = GridRuntime::new(cfg, SyncMethod::GpuLockFree).unwrap();
    rt.run(&Bump(GlobalBuffer::new(3))).unwrap();
    rt.run(&kernel).unwrap_err();
    let cold = plan
        .observer()
        .last_failure()
        .expect("cold failure recorded");
    let warm = rt.observer().last_failure().expect("warm failure recorded");
    for (name, record) in [("cold", &cold), ("warm", &warm)] {
        assert_eq!(record.faults, [fault], "{name}");
        assert!(!record.recent_events.is_empty(), "{name}");
        assert!(
            matches!(
                record.error,
                Some(ExecError::BlockPanicked {
                    block: 1,
                    round: 2,
                    ..
                })
            ),
            "{name}: {:?}",
            record.error
        );
    }
    let (cp, wp) = (cold.pool.unwrap(), warm.pool.unwrap());
    assert_eq!(cp.cold, cp.launch_seq == 0, "{cp:?}");
    assert!(!wp.cold && wp.launch_seq >= cp.launch_seq + 2, "{wp:?}");
    // Same keys in the same order; values part ways only where the launch's
    // place in its pool speaks, or where a clock does.
    let (cold, warm) = (cold.to_json(), warm.to_json());
    let (s, p) = (cold.as_obj("cold").unwrap(), warm.as_obj("warm").unwrap());
    assert_eq!(s.len(), p.len());
    for ((sk, sv), (pk, pv)) in s.iter().zip(p) {
        assert_eq!(sk, pk);
        let pool_derived = ["seq", "queue_depth", "queued_ns", "cold"];
        let clocked = ["wall_ns", "recent_events"];
        if !pool_derived.contains(&sk.as_str()) && !clocked.contains(&sk.as_str()) {
            assert_eq!(sv, pv, "{sk}");
        }
    }
    assert_eq!(cold.get("pooled"), Some(&true.into()));
}

/// An injected chaos failure yields a postmortem JSON artifact carrying
/// the fault schedule, the failure class, and recent trace events;
/// timeouts also embed the full stuck diagnostic.
#[test]
fn chaos_failures_dump_replayable_postmortems() {
    let dir = std::env::temp_dir().join("blocksync-obs-postmortems");
    let _ = std::fs::remove_dir_all(&dir);
    let report = ChaosConfig {
        launches: 24,
        fault_rate: 0.4,
        rounds: 6,
        timeout: Duration::from_millis(80),
        postmortem_dir: Some(dir.clone()),
        ..ChaosConfig::default()
    }
    .run()
    .unwrap();
    assert!(report.passed(), "{report}");
    let failed: Vec<_> = report
        .outcomes
        .iter()
        .filter(|o| o.error.is_some())
        .collect();
    assert!(!failed.is_empty(), "seed 42 at 40% must fail some launches");
    let mut saw_diagnostic = false;
    let mut saw_events = false;
    for o in &failed {
        let path = dir.join(format!(
            "postmortem-seed{}-launch{:04}.json",
            report.seed, o.index
        ));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        assert_eq!(doc.get("outcome"), Some(&"failure".into()), "{text}");
        let kind = o.error.as_ref().unwrap().kind_label();
        assert_eq!(doc.get("error_kind"), Some(&kind.into()), "{text}");
        // Each scheduled fault shows up as a structured line.
        let schedule = doc.get("fault_schedule").unwrap().as_arr("schedule");
        assert_eq!(schedule.unwrap().len(), o.faults.len(), "{text}");
        assert!(!o.faults.is_empty());
        saw_diagnostic |= doc
            .get("diagnostic")
            .is_some_and(|d| d.get("barrier").is_some());
        let events = doc.get("recent_events").unwrap().as_arr("events").unwrap();
        saw_events |= !events.is_empty();
    }
    assert!(
        saw_diagnostic,
        "at least one timeout failure must embed a StuckDiagnostic"
    );
    assert!(
        saw_events,
        "postmortem-dir enables tracing, so failures must carry events"
    );
    // The report-level metrics snapshot agrees with the outcome lines.
    let metrics = report.metrics.as_ref().expect("the soak snapshots metrics");
    assert_eq!(
        metrics.counters["launches_failed_total"],
        failed.len() as u64
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: `queue_depth` was a single global gauge, so two shards
/// feeding one shared observer clobbered each other's depth — the last
/// writer won and per-shard backlog was invisible. It is now a labeled
/// family keyed by shard, one live gauge per shard, with unlabeled
/// (standalone-runtime) launches reporting under `DEFAULT_SHARD`.
#[test]
fn queue_depth_is_a_per_shard_gauge_family() {
    let obs = Observer::new();
    for (shard, depth) in [
        (None, 1usize),
        (Some("4x8/gpu-lock-free"), 5),
        (Some("3x8/gpu-simple"), 2),
        (Some("4x8/gpu-lock-free"), 3),
    ] {
        let mut r = LaunchRecord::new("gpu-lock-free");
        r.pool = Some(PoolLaunchStats {
            launch_seq: 1,
            queue_depth: depth,
            queued: Duration::ZERO,
            cold: false,
        });
        r.shard = shard.map(str::to_string);
        obs.observe(r);
    }
    let snap = obs.snapshot();
    let family = &snap.labeled_gauges["queue_depth"];
    // Three distinct shards, each holding its *own* latest depth: the
    // second lock-free record overwrote only its own label.
    assert_eq!(family[blocksync::core::DEFAULT_SHARD], 1);
    assert_eq!(family["4x8/gpu-lock-free"], 3);
    assert_eq!(family["3x8/gpu-simple"], 2);
    assert!(!snap.gauges.contains_key("queue_depth"));
    // Shard-labeled launches also feed the per-shard traffic counter;
    // unlabeled ones stay out of it.
    assert_eq!(snap.labeled["shard_launches_total"]["4x8/gpu-lock-free"], 2);
    assert_eq!(snap.labeled["shard_launches_total"]["3x8/gpu-simple"], 1);
    assert!(!snap.labeled["shard_launches_total"].contains_key(blocksync::core::DEFAULT_SHARD));
    // Prometheus renders the family with the shard label and a gauge TYPE.
    let prom = snap.render_prometheus();
    assert!(
        prom.contains("# TYPE blocksync_queue_depth gauge"),
        "{prom}"
    );
    assert!(
        prom.contains("blocksync_queue_depth{shard=\"4x8/gpu-lock-free\"} 3"),
        "{prom}"
    );
    assert!(
        prom.contains("blocksync_queue_depth{shard=\"default\"} 1"),
        "{prom}"
    );
    // And the labeled family survives the JSON round trip.
    let parsed = MetricsSnapshot::from_json(&snap.to_json().pretty()).expect("parses");
    assert_eq!(parsed, snap);
}

/// Build a synthetic registry load through the public observe path.
fn observe_all(records: &[(usize, u64, bool, bool)]) -> MetricsSnapshot {
    const METHODS: [&str; 3] = ["gpu-lock-free", "gpu-simple", "auto:dissemination"];
    let errors = [
        ExecError::BarrierTimeout {
            diagnostic: Box::new(StuckDiagnostic {
                barrier: "gpu-simple".into(),
                waiting_block: 0,
                round: 1,
                flag: "g_mutex >= 8".into(),
                timeout: Duration::from_millis(50),
                arrivals: vec![2, 1],
                departures: vec![1, 1],
                recent_events: Vec::new(),
                phase: StuckPhase::Barrier,
            }),
        },
        ExecError::BlockPanicked {
            block: 1,
            round: 0,
            message: "synthetic \"failure\"".into(),
        },
        ExecError::Device(DeviceError::EmptyLaunch),
    ];
    let obs = Observer::new();
    for (i, &(sel, wall_ns, failed, pooled)) in records.iter().enumerate() {
        let mut r = LaunchRecord::new(METHODS[sel % METHODS.len()]);
        r.pool = pooled.then_some(PoolLaunchStats {
            launch_seq: i as u64,
            queue_depth: sel,
            queued: Duration::from_nanos(wall_ns / 3),
            cold: i == 0,
        });
        r.wall = Duration::from_nanos(wall_ns);
        r.error = failed.then(|| errors[sel % errors.len()].clone());
        obs.observe(r);
    }
    obs.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Histogram::merge` must be indistinguishable from having recorded
    /// the concatenated sample stream into one histogram — including the
    /// raw min/max/sum the snapshot JSON preserves.
    #[test]
    fn histogram_merge_equals_concatenated_stream(
        xs in proptest::collection::vec(any::<u64>(), 0..64),
        ys in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let mut a = Histogram::new();
        for &v in &xs { a.record(v); }
        let mut b = Histogram::new();
        for &v in &ys { b.record(v); }
        a.merge(&b);
        let mut concat = Histogram::new();
        for &v in xs.iter().chain(ys.iter()) { concat.record(v); }
        prop_assert_eq!(&a, &concat);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(a.percentile(q), concat.percentile(q));
        }
    }

    /// The snapshot's JSON form is lossless: parsing the text of what
    /// `to_json` built reproduces the snapshot exactly, for any mix of
    /// methods, outcomes, pooled and unpooled (CPU-explicit) records, and latencies.
    #[test]
    fn metrics_snapshot_json_round_trips(
        records in proptest::collection::vec(
            (0usize..5, any::<u64>(), any::<bool>(), any::<bool>()),
            0..24,
        ),
    ) {
        let snap = observe_all(&records);
        let parsed = MetricsSnapshot::from_json(&snap.to_json().to_string());
        prop_assert!(parsed.is_ok(), "parse error: {:?}", parsed.err());
        prop_assert_eq!(parsed.unwrap(), snap);
    }
}
