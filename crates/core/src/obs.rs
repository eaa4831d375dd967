//! Cross-launch observability plane: a metrics registry plus a crash-dump
//! flight recorder, fed once per **launch completion**.
//!
//! The telemetry plane of `crate::trace` is strictly per-launch: every
//! [`KernelStats`] carries its own histograms and trace, and nothing
//! survives across the pipelined launches a pooled [`crate::GridRuntime`]
//! serves. This module is the cross-launch layer above it:
//!
//! * [`Observer`] — an `Arc`-shared handle combining a **metrics
//!   registry** (named counters, gauges, labeled counters, and cumulative
//!   merged [`Histogram`]s) with a **flight recorder** (a bounded ring of
//!   [`LaunchRecord`]s, keeping the full failure context — the
//!   [`StuckDiagnostic`], recent trace events, and any active
//!   [`FaultSchedule`] — that a bare [`ExecError`] throws away).
//! * [`MetricsSnapshot`] — a point-in-time copy of the registry,
//!   exportable as Prometheus text exposition
//!   ([`MetricsSnapshot::render_prometheus`]) or JSON
//!   ([`MetricsSnapshot::to_json`] / [`MetricsSnapshot::from_json`]).
//! * [`LaunchRecord::to_json`] — a self-contained postmortem artifact for
//!   one launch, written by `blocksync chaos --postmortem-dir` so every
//!   soak failure is replayable from the logged seed.
//!
//! ## Zero cost on the barrier hot path
//!
//! Workers never touch this plane: there are **no registry loads or
//! stores — and in particular no atomic read-modify-writes — inside
//! barrier spin loops** (the same guarantee the single-writer
//! [`crate::BlockHistogram`] telemetry makes). All mutation happens on
//! the *host* thread that resolves a launch (`wait_launch` /
//! `LaunchPlan::execute`), exactly once per launch, under a short
//! uncontended mutex. The `obs_overhead` bench bin enforces both halves:
//! wall overhead under 5%, and a registry mutation count that is a
//! function of launches alone (never of rounds or spins).

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::error::{ExecError, StuckDiagnostic};
use crate::fault::FaultSchedule;
use crate::metrics::{Histogram, NUM_BUCKETS};
use crate::stats::KernelStats;

/// How many [`LaunchRecord`]s the flight recorder retains.
pub const FLIGHT_RECORDER_CAPACITY: usize = 64;

/// Shard label standalone (non-service) runtimes report gauge samples
/// under, so the per-shard `queue_depth` family always has a stable slot.
pub const DEFAULT_SHARD: &str = "default";

/// Saturating nanosecond cast for registry samples.
fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// How one launch ended, as seen by the flight recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchOutcome {
    /// The launch completed and produced [`KernelStats`].
    Success,
    /// The launch failed; the origin error is preserved in full.
    Failure {
        /// Rendered origin error ([`ExecError`]'s `Display`).
        error: String,
        /// Stable failure class ([`ExecError::kind_label`]), the label of
        /// the `launch_failures_total` registry counter.
        kind: String,
        /// The stuck-barrier diagnostic, when the failure was a timeout.
        diagnostic: Option<Box<StuckDiagnostic>>,
    },
}

impl LaunchOutcome {
    /// Build the failure variant from an execution error.
    pub fn from_error(e: &ExecError) -> Self {
        let diagnostic = match e {
            ExecError::BarrierTimeout { diagnostic } => Some(diagnostic.clone()),
            _ => None,
        };
        LaunchOutcome::Failure {
            error: e.to_string(),
            kind: e.kind_label().to_string(),
            diagnostic,
        }
    }

    /// Whether this outcome is a failure.
    pub fn is_failure(&self) -> bool {
        matches!(self, LaunchOutcome::Failure { .. })
    }
}

/// One fault of an active [`FaultSchedule`], flattened for postmortems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultLine {
    /// Block the fault targets.
    pub block: usize,
    /// Round the fault fires in.
    pub round: usize,
    /// Injection site (`FaultPhase`, Debug-rendered).
    pub phase: String,
    /// Fault kind (`FaultKind`, Debug-rendered).
    pub kind: String,
}

/// Flatten a schedule into postmortem lines.
fn fault_lines(schedule: &FaultSchedule) -> Vec<FaultLine> {
    schedule
        .faults()
        .iter()
        .map(|f| FaultLine {
            block: f.block,
            round: f.round,
            phase: format!("{:?}", f.phase),
            kind: format!("{:?}", f.kind),
        })
        .collect()
}

/// One entry of the flight recorder: everything worth keeping about a
/// completed launch, success or failure. For failures this preserves the
/// context the plain [`ExecError`] loses — the diagnostic, the trailing
/// trace events, and the fault schedule that was active — so a postmortem
/// is replayable without re-running the soak.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchRecord {
    /// Pool launch sequence number (0 for scoped launches).
    pub seq: u64,
    /// Sync method that served the launch (e.g. `"gpu-lock-free"`, or
    /// `"auto:gpu-lock-free"` for resolved auto launches).
    pub method: String,
    /// Success, or the preserved failure context.
    pub outcome: LaunchOutcome,
    /// Submit → stats latency. For pooled launches this is measured from
    /// submission (so it includes queueing); for scoped launches it is the
    /// execution wall clock.
    pub wall: Duration,
    /// Launch overhead `t_O` (max per-block assembly time).
    pub launch: Duration,
    /// Total compute time summed across blocks.
    pub compute: Duration,
    /// Total synchronization time summed across blocks.
    pub sync: Duration,
    /// Whether the launch ran on a persistent pool.
    pub pooled: bool,
    /// Launches pending ahead of this one at submit time (pooled only).
    pub queue_depth: usize,
    /// Submit → first worker pickup (pooled only).
    pub queued: Duration,
    /// Whether this was a pool's cold (first) launch.
    pub cold: bool,
    /// Workers replaced while settling this launch (abandon-and-replace).
    pub replacements: usize,
    /// Shard label when the launch was served by a [`crate::GridService`]
    /// shard (or any runtime given a label via
    /// [`crate::GridRuntime::set_shard_label`]). `None` for standalone
    /// runtimes, whose gauge samples land under the `"default"` shard.
    pub shard: Option<String>,
    /// Trailing trace events per block (`"b<block>: <event>"`), captured
    /// for failures when the trace plane is compiled in and enabled.
    pub recent_events: Vec<String>,
    /// The fault schedule that was active, if any.
    pub fault_schedule: Vec<FaultLine>,
}

impl LaunchRecord {
    /// A blank record for `method`; callers fill in what they know.
    pub fn new(method: impl Into<String>) -> Self {
        LaunchRecord {
            seq: 0,
            method: method.into(),
            outcome: LaunchOutcome::Success,
            wall: Duration::ZERO,
            launch: Duration::ZERO,
            compute: Duration::ZERO,
            sync: Duration::ZERO,
            pooled: false,
            queue_depth: 0,
            queued: Duration::ZERO,
            cold: false,
            replacements: 0,
            shard: None,
            recent_events: Vec::new(),
            fault_schedule: Vec::new(),
        }
    }

    /// Build a success record from a launch's stats (including its
    /// [`crate::PoolLaunchStats`], when attached).
    pub fn from_stats(stats: &KernelStats) -> Self {
        let mut r = LaunchRecord::new(stats.method.clone());
        r.wall = stats.wall;
        r.launch = stats.launch;
        r.compute = stats.total_compute();
        r.sync = stats.total_sync();
        if let Some(p) = stats.pool.as_deref() {
            r.pooled = true;
            r.seq = p.launch_seq;
            r.queue_depth = p.queue_depth;
            r.queued = p.queued;
            r.cold = p.cold;
        }
        r
    }

    /// Build a failure record from an execution error.
    pub fn from_error(method: impl Into<String>, e: &ExecError, wall: Duration) -> Self {
        let mut r = LaunchRecord::new(method);
        r.outcome = LaunchOutcome::from_error(e);
        r.wall = wall;
        r
    }

    /// Attach the active fault schedule.
    pub fn with_faults(mut self, schedule: &FaultSchedule) -> Self {
        self.fault_schedule = fault_lines(schedule);
        self
    }

    /// Render a self-contained JSON postmortem for this launch: outcome,
    /// timing split, pool context, the full [`StuckDiagnostic`], trailing
    /// trace events, and the active fault schedule.
    pub fn to_json(&self) -> String {
        let mut o = String::from("{\n");
        let push = |o: &mut String, line: String| {
            o.push_str("  ");
            o.push_str(&line);
            o.push_str(",\n");
        };
        push(&mut o, format!("\"seq\": {}", self.seq));
        push(
            &mut o,
            format!("\"method\": \"{}\"", json_escape(&self.method)),
        );
        match &self.outcome {
            LaunchOutcome::Success => {
                push(&mut o, "\"outcome\": \"success\"".to_string());
            }
            LaunchOutcome::Failure {
                error,
                kind,
                diagnostic,
            } => {
                push(&mut o, "\"outcome\": \"failure\"".to_string());
                push(&mut o, format!("\"error\": \"{}\"", json_escape(error)));
                push(&mut o, format!("\"error_kind\": \"{}\"", json_escape(kind)));
                if let Some(d) = diagnostic.as_deref() {
                    push(&mut o, format!("\"diagnostic\": {}", diagnostic_json(d)));
                }
            }
        }
        push(&mut o, format!("\"wall_ns\": {}", dur_ns(self.wall)));
        push(&mut o, format!("\"launch_ns\": {}", dur_ns(self.launch)));
        push(&mut o, format!("\"compute_ns\": {}", dur_ns(self.compute)));
        push(&mut o, format!("\"sync_ns\": {}", dur_ns(self.sync)));
        push(&mut o, format!("\"pooled\": {}", self.pooled));
        push(&mut o, format!("\"queue_depth\": {}", self.queue_depth));
        push(&mut o, format!("\"queued_ns\": {}", dur_ns(self.queued)));
        push(&mut o, format!("\"cold\": {}", self.cold));
        push(&mut o, format!("\"replacements\": {}", self.replacements));
        match &self.shard {
            Some(shard) => push(&mut o, format!("\"shard\": \"{}\"", json_escape(shard))),
            None => push(&mut o, "\"shard\": null".to_string()),
        }
        push(
            &mut o,
            format!(
                "\"recent_events\": {}",
                string_array_json(&self.recent_events)
            ),
        );
        let faults: Vec<String> = self
            .fault_schedule
            .iter()
            .map(|f| {
                format!(
                    "{{\"block\": {}, \"round\": {}, \"phase\": \"{}\", \"kind\": \"{}\"}}",
                    f.block,
                    f.round,
                    json_escape(&f.phase),
                    json_escape(&f.kind)
                )
            })
            .collect();
        o.push_str(&format!("  \"fault_schedule\": [{}]\n", faults.join(", ")));
        o.push('}');
        o
    }
}

/// Render a [`StuckDiagnostic`] as a JSON object.
fn diagnostic_json(d: &StuckDiagnostic) -> String {
    format!(
        "{{\"barrier\": \"{}\", \"waiting_block\": {}, \"round\": {}, \"flag\": \"{}\", \
         \"timeout_ns\": {}, \"phase\": \"{:?}\", \"stragglers\": {:?}, \"arrivals\": {:?}, \
         \"departures\": {:?}, \"recent_events\": {}}}",
        json_escape(&d.barrier),
        d.waiting_block,
        d.round,
        json_escape(&d.flag),
        dur_ns(d.timeout),
        d.phase,
        d.stragglers(),
        d.arrivals,
        d.departures,
        string_array_json(&d.recent_events),
    )
}

/// Render a string slice as a JSON array of escaped strings.
fn string_array_json(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", json_escape(s)))
        .collect();
    format!("[{}]", quoted.join(", "))
}

/// Escape a string for embedding in JSON output.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The registry half of the observer: name → value maps plus cumulative
/// merged histograms, all updated exactly once per launch completion.
#[derive(Debug, Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    labeled: BTreeMap<String, BTreeMap<String, u64>>,
    labeled_gauges: BTreeMap<String, BTreeMap<String, u64>>,
    histograms: BTreeMap<String, Histogram>,
    /// Total registry mutations — the deterministic "updates per launch"
    /// count the `obs_overhead` bench pins (it must be a function of
    /// launches alone, proving no spin-loop instrumentation exists).
    ops: u64,
}

impl Registry {
    fn new() -> Self {
        let mut r = Registry::default();
        // Pre-seed the standard series at zero so an idle snapshot already
        // renders the full exposition (and the series count is stable).
        for name in [
            "launches_total",
            "launches_failed_total",
            "launches_warm_total",
            "launches_cold_total",
            "worker_replacements_total",
        ] {
            r.counters.insert(name.to_string(), 0);
        }
        // Queue depth is a per-shard gauge family so multi-shard services
        // never alias one global value; unlabeled runtimes write the
        // "default" shard slot, pre-seeded so idle snapshots stay stable.
        r.labeled_gauges
            .entry("queue_depth".to_string())
            .or_default()
            .insert(DEFAULT_SHARD.to_string(), 0);
        r
    }

    fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
        self.ops += 1;
    }

    fn set_gauge(&mut self, name: &str, v: u64) {
        self.gauges.insert(name.to_string(), v);
        self.ops += 1;
    }

    fn inc_labeled(&mut self, family: &str, label: &str, by: u64) {
        *self
            .labeled
            .entry(family.to_string())
            .or_default()
            .entry(label.to_string())
            .or_insert(0) += by;
        self.ops += 1;
    }

    fn set_labeled_gauge(&mut self, family: &str, label: &str, v: u64) {
        self.labeled_gauges
            .entry(family.to_string())
            .or_default()
            .insert(label.to_string(), v);
        self.ops += 1;
    }

    fn record_hist(&mut self, key: String, v: u64) {
        self.histograms.entry(key).or_default().record(v);
        self.ops += 1;
    }

    /// The one mutation site: fold a completed launch into the registry.
    fn apply(&mut self, r: &LaunchRecord) {
        self.inc("launches_total", 1);
        if let LaunchOutcome::Failure { kind, .. } = &r.outcome {
            self.inc("launches_failed_total", 1);
            self.inc_labeled("launch_failures_total", kind, 1);
        }
        if r.replacements > 0 {
            self.inc("worker_replacements_total", r.replacements as u64);
        }
        if r.pooled {
            self.inc(
                if r.cold {
                    "launches_cold_total"
                } else {
                    "launches_warm_total"
                },
                1,
            );
            self.set_labeled_gauge(
                "queue_depth",
                r.shard.as_deref().unwrap_or(DEFAULT_SHARD),
                r.queue_depth as u64,
            );
            self.record_hist("queued_ns".to_string(), dur_ns(r.queued));
            self.record_hist("launch_ns".to_string(), dur_ns(r.launch));
        }
        // Shard-labeled launches (service traffic) additionally count into
        // a per-shard family; standalone runtimes skip this, keeping the
        // obs_overhead bench's 6-updates-per-launch invariant intact.
        if let Some(shard) = r.shard.as_deref() {
            self.inc_labeled("shard_launches_total", shard, 1);
        }
        self.record_hist(format!("submit_to_stats_ns/{}", r.method), dur_ns(r.wall));
    }

    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            labeled: self.labeled.clone(),
            labeled_gauges: self.labeled_gauges.clone(),
            histograms: self.histograms.clone(),
            ops: self.ops,
        }
    }
}

/// The flight-recorder half: a bounded ring of launch records plus the
/// most recent failure, kept separately so it survives ring eviction.
#[derive(Debug, Default)]
struct Flight {
    ring: VecDeque<LaunchRecord>,
    last_failure: Option<LaunchRecord>,
    evicted: u64,
}

impl Flight {
    fn push(&mut self, r: LaunchRecord) {
        if r.outcome.is_failure() {
            self.last_failure = Some(r.clone());
        }
        if self.ring.len() == FLIGHT_RECORDER_CAPACITY {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(r);
    }
}

/// The cross-launch observability handle: metrics registry + flight
/// recorder behind one `Arc`. Every launcher owns one: a
/// [`crate::GridExecutor`] and a standalone [`crate::GridRuntime`] each
/// their own, a [`crate::GridService`] one shared by all its shards.
///
/// A [`Observer::disabled`] handle is a no-op on every path — the control
/// arm of the `obs_overhead` bench.
pub struct Observer {
    enabled: bool,
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    registry: Registry,
    flight: Flight,
}

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.inner.lock();
        f.debug_struct("Observer")
            .field("enabled", &self.enabled)
            .field("ops", &g.registry.ops)
            .field("records", &g.flight.ring.len())
            .finish()
    }
}

impl Observer {
    /// A live observer.
    pub fn new() -> Arc<Observer> {
        Arc::new(Observer {
            enabled: true,
            inner: Mutex::new(Inner {
                registry: Registry::new(),
                flight: Flight::default(),
            }),
        })
    }

    /// A no-op observer: every `observe` returns immediately without
    /// taking the lock. Used as the control arm when measuring the
    /// plane's own overhead.
    pub fn disabled() -> Arc<Observer> {
        Arc::new(Observer {
            enabled: false,
            inner: Mutex::new(Inner::default()),
        })
    }

    /// Whether this observer records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Fold one completed launch into the registry and flight recorder.
    pub fn observe(&self, record: LaunchRecord) {
        if !self.enabled {
            return;
        }
        let mut g = self.inner.lock();
        g.registry.apply(&record);
        g.flight.push(record);
    }

    /// Observe a finished run from its result: successes are recorded
    /// from their stats (using the stats' own wall clock as the
    /// submit→stats sample), failures from the error with `wall` as the
    /// latency sample.
    pub fn observe_outcome(
        &self,
        method: &str,
        outcome: &Result<KernelStats, ExecError>,
        wall: Duration,
    ) {
        if !self.enabled {
            return;
        }
        let record = match outcome {
            Ok(stats) => LaunchRecord::from_stats(stats),
            Err(e) => LaunchRecord::from_error(method, e, wall),
        };
        self.observe(record);
    }

    /// Increment a plain counter — the service plane's hook for events
    /// that are not launches (shard spin-up/retirement, admission
    /// rejections). No-op when disabled.
    pub fn inc_counter(&self, name: &str, by: u64) {
        if self.enabled {
            self.inner.lock().registry.inc(name, by);
        }
    }

    /// Set a plain gauge (e.g. `service_shards_live`). No-op when
    /// disabled.
    pub fn set_gauge(&self, name: &str, v: u64) {
        if self.enabled {
            self.inner.lock().registry.set_gauge(name, v);
        }
    }

    /// Increment one label of a counter family (e.g.
    /// `service_rejections_total` by reason). No-op when disabled.
    pub fn inc_labeled(&self, family: &str, label: &str, by: u64) {
        if self.enabled {
            self.inner.lock().registry.inc_labeled(family, label, by);
        }
    }

    /// Point-in-time copy of the registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner.lock().registry.snapshot()
    }

    /// Total registry mutations so far (see `Registry::ops`): the
    /// deterministic count the `obs_overhead` bench guards.
    pub fn ops(&self) -> u64 {
        self.inner.lock().registry.ops
    }

    /// The flight recorder's current contents, oldest first.
    pub fn recent(&self) -> Vec<LaunchRecord> {
        self.inner.lock().flight.ring.iter().cloned().collect()
    }

    /// Records evicted from the bounded ring so far.
    pub fn evicted(&self) -> u64 {
        self.inner.lock().flight.evicted
    }

    /// The most recent failed launch, kept even after ring eviction.
    pub fn last_failure(&self) -> Option<LaunchRecord> {
        self.inner.lock().flight.last_failure.clone()
    }

    /// JSON postmortem of the most recent failure, if any.
    pub fn postmortem_json(&self) -> Option<String> {
        self.last_failure().map(|r| r.to_json())
    }
}

/// A point-in-time copy of the metrics registry, exportable as Prometheus
/// text exposition or JSON (and re-importable from the latter).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters (`launches_total`, …).
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time gauges (`service_shards_live`, …).
    pub gauges: BTreeMap<String, u64>,
    /// Labeled counter families: family → label value → count
    /// (`launch_failures_total` by kind, `shard_launches_total` by shard).
    pub labeled: BTreeMap<String, BTreeMap<String, u64>>,
    /// Labeled gauge families: family → label value → value
    /// (`queue_depth` by shard, so multi-shard snapshots never alias).
    pub labeled_gauges: BTreeMap<String, BTreeMap<String, u64>>,
    /// Cumulative merged histograms, keyed `name` or `name/label` (the
    /// label is a method name, e.g. `submit_to_stats_ns/gpu-lock-free`).
    pub histograms: BTreeMap<String, Histogram>,
    /// Registry mutation count at snapshot time.
    pub ops: u64,
}

/// The label key a family's values are rendered under.
fn label_key(family: &str) -> &'static str {
    match family {
        "launch_failures_total" => "kind",
        "queue_depth" | "shard_launches_total" => "shard",
        "service_rejections_total" => "reason",
        _ => "label",
    }
}

/// Escape a Prometheus label value (backslash, quote, newline).
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

impl MetricsSnapshot {
    /// Render the snapshot in the Prometheus text exposition format.
    /// Histograms are rendered as summaries (p50/p90/p99 quantiles plus
    /// `_sum`/`_count`); all series carry the `blocksync_` prefix.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!(
                "# TYPE blocksync_{name} counter\nblocksync_{name} {v}\n"
            ));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!(
                "# TYPE blocksync_{name} gauge\nblocksync_{name} {v}\n"
            ));
        }
        for (family, series) in &self.labeled_gauges {
            out.push_str(&format!("# TYPE blocksync_{family} gauge\n"));
            let key = label_key(family);
            for (value, v) in series {
                out.push_str(&format!(
                    "blocksync_{family}{{{key}=\"{}\"}} {v}\n",
                    escape_label(value)
                ));
            }
        }
        for (family, series) in &self.labeled {
            out.push_str(&format!("# TYPE blocksync_{family} counter\n"));
            let key = label_key(family);
            for (value, count) in series {
                out.push_str(&format!(
                    "blocksync_{family}{{{key}=\"{}\"}} {count}\n",
                    escape_label(value)
                ));
            }
        }
        let mut last_name = "";
        for (key, h) in &self.histograms {
            let (name, label) = match key.split_once('/') {
                Some((n, l)) => (n, Some(l)),
                None => (key.as_str(), None),
            };
            if name != last_name {
                out.push_str(&format!("# TYPE blocksync_{name} summary\n"));
                last_name = name;
            }
            let method_sel = label.map_or(String::new(), |m| {
                format!("method=\"{}\",", escape_label(m))
            });
            for (q, p) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
                out.push_str(&format!(
                    "blocksync_{name}{{{method_sel}quantile=\"{q}\"}} {}\n",
                    h.percentile(p)
                ));
            }
            let bare_sel = label.map_or(String::new(), |m| {
                format!("{{method=\"{}\"}}", escape_label(m))
            });
            out.push_str(&format!("blocksync_{name}_sum{bare_sel} {}\n", h.sum()));
            out.push_str(&format!("blocksync_{name}_count{bare_sel} {}\n", h.count()));
        }
        out
    }

    /// Export the snapshot as JSON. Histograms are exported losslessly
    /// (all raw fields including the full bucket array), so
    /// [`MetricsSnapshot::from_json`] reproduces the snapshot exactly.
    pub fn to_json(&self) -> String {
        let map_json = |m: &BTreeMap<String, u64>| {
            let entries: Vec<String> = m
                .iter()
                .map(|(k, v)| format!("\"{}\": {v}", json_escape(k)))
                .collect();
            format!("{{{}}}", entries.join(", "))
        };
        let labeled: Vec<String> = self
            .labeled
            .iter()
            .map(|(fam, series)| format!("\"{}\": {}", json_escape(fam), map_json(series)))
            .collect();
        let labeled_gauges: Vec<String> = self
            .labeled_gauges
            .iter()
            .map(|(fam, series)| format!("\"{}\": {}", json_escape(fam), map_json(series)))
            .collect();
        let hists: Vec<String> = self
            .histograms
            .iter()
            .map(|(key, h)| {
                let buckets: Vec<String> = h.buckets().iter().map(|b| b.to_string()).collect();
                format!(
                    "\"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [{}]}}",
                    json_escape(key),
                    h.count(),
                    h.sum(),
                    h.raw_min(),
                    h.max(),
                    buckets.join(",")
                )
            })
            .collect();
        format!(
            "{{\n  \"ops\": {},\n  \"counters\": {},\n  \"gauges\": {},\n  \"labeled\": {{{}}},\n  \"labeled_gauges\": {{{}}},\n  \"histograms\": {{\n    {}\n  }}\n}}",
            self.ops,
            map_json(&self.counters),
            map_json(&self.gauges),
            labeled.join(", "),
            labeled_gauges.join(", "),
            hists.join(",\n    ")
        )
    }

    /// Parse a snapshot back from its [`MetricsSnapshot::to_json`] export.
    ///
    /// # Errors
    /// A description of the first malformed construct (this parser covers
    /// exactly the subset `to_json` emits: objects, arrays, strings, and
    /// unsigned integers).
    pub fn from_json(s: &str) -> Result<MetricsSnapshot, String> {
        let v = json::parse(s)?;
        let obj = v.as_obj("snapshot")?;
        let mut snap = MetricsSnapshot::default();
        for (key, val) in obj {
            match key.as_str() {
                "ops" => snap.ops = val.as_u64("ops")?,
                "counters" => snap.counters = parse_u64_map(val, "counters")?,
                "gauges" => snap.gauges = parse_u64_map(val, "gauges")?,
                "labeled" => {
                    for (fam, series) in val.as_obj("labeled")? {
                        snap.labeled
                            .insert(fam.clone(), parse_u64_map(series, fam)?);
                    }
                }
                "labeled_gauges" => {
                    for (fam, series) in val.as_obj("labeled_gauges")? {
                        snap.labeled_gauges
                            .insert(fam.clone(), parse_u64_map(series, fam)?);
                    }
                }
                "histograms" => {
                    for (name, h) in val.as_obj("histograms")? {
                        snap.histograms
                            .insert(name.clone(), parse_histogram(h, name)?);
                    }
                }
                other => return Err(format!("unknown snapshot key {other:?}")),
            }
        }
        Ok(snap)
    }
}

/// Parse a `{"name": count}` object.
fn parse_u64_map(v: &json::Json, what: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut out = BTreeMap::new();
    for (k, val) in v.as_obj(what)? {
        out.insert(k.clone(), val.as_u64(k)?);
    }
    Ok(out)
}

/// Parse one histogram object back into a [`Histogram`].
fn parse_histogram(v: &json::Json, what: &str) -> Result<Histogram, String> {
    let obj = v.as_obj(what)?;
    let (mut count, mut sum, mut min, mut max) = (0, 0, u64::MAX, 0);
    let mut buckets = [0u64; NUM_BUCKETS];
    for (k, val) in obj {
        match k.as_str() {
            "count" => count = val.as_u64(k)?,
            "sum" => sum = val.as_u64(k)?,
            "min" => min = val.as_u64(k)?,
            "max" => max = val.as_u64(k)?,
            "buckets" => {
                let arr = val.as_arr(k)?;
                if arr.len() != NUM_BUCKETS {
                    return Err(format!(
                        "histogram {what:?}: {} buckets, expected {NUM_BUCKETS}",
                        arr.len()
                    ));
                }
                for (slot, b) in buckets.iter_mut().zip(arr) {
                    *slot = b.as_u64("bucket")?;
                }
            }
            other => return Err(format!("histogram {what:?}: unknown key {other:?}")),
        }
    }
    Ok(Histogram::from_parts(buckets, count, sum, min, max))
}

/// Minimal JSON reader covering exactly the subset this module writes:
/// objects, arrays, strings with standard escapes, unsigned integers,
/// and the literals `true`/`false`/`null`.
pub(crate) mod json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) enum Json {
        /// Key order preserved; duplicate keys are last-wins at lookup.
        Obj(Vec<(String, Json)>),
        Arr(Vec<Json>),
        Str(String),
        Num(u64),
        Bool(bool),
        Null,
    }

    impl Json {
        pub(crate) fn as_obj(&self, what: &str) -> Result<&[(String, Json)], String> {
            match self {
                Json::Obj(o) => Ok(o),
                other => Err(format!("{what}: expected object, got {other:?}")),
            }
        }

        pub(crate) fn as_arr(&self, what: &str) -> Result<&[Json], String> {
            match self {
                Json::Arr(a) => Ok(a),
                other => Err(format!("{what}: expected array, got {other:?}")),
            }
        }

        pub(crate) fn as_u64(&self, what: &str) -> Result<u64, String> {
            match self {
                Json::Num(n) => Ok(*n),
                other => Err(format!("{what}: expected integer, got {other:?}")),
            }
        }
    }

    pub(crate) fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: s.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }

    struct Parser<'a> {
        b: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self
                .b
                .get(self.i)
                .is_some_and(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'))
            {
                self.i += 1;
            }
        }

        fn peek(&mut self) -> Result<u8, String> {
            self.skip_ws();
            self.b
                .get(self.i)
                .copied()
                .ok_or_else(|| "unexpected end of input".to_string())
        }

        fn expect(&mut self, c: u8) -> Result<(), String> {
            if self.peek()? == c {
                self.i += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at byte {}", c as char, self.i))
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            match self.peek()? {
                b'{' => self.object(),
                b'[' => self.array(),
                b'"' => Ok(Json::Str(self.string()?)),
                b'0'..=b'9' => self.number(),
                b't' => self.literal("true", Json::Bool(true)),
                b'f' => self.literal("false", Json::Bool(false)),
                b'n' => self.literal("null", Json::Null),
                c => Err(format!("unexpected {:?} at byte {}", c as char, self.i)),
            }
        }

        fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
            self.skip_ws();
            if self.b[self.i..].starts_with(word.as_bytes()) {
                self.i += word.len();
                Ok(v)
            } else {
                Err(format!("bad literal at byte {}", self.i))
            }
        }

        fn object(&mut self) -> Result<Json, String> {
            self.expect(b'{')?;
            let mut out = Vec::new();
            if self.peek()? == b'}' {
                self.i += 1;
                return Ok(Json::Obj(out));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.expect(b':')?;
                out.push((key, self.value()?));
                match self.peek()? {
                    b',' => self.i += 1,
                    b'}' => {
                        self.i += 1;
                        return Ok(Json::Obj(out));
                    }
                    c => return Err(format!("expected ',' or '}}', got {:?}", c as char)),
                }
            }
        }

        fn array(&mut self) -> Result<Json, String> {
            self.expect(b'[')?;
            let mut out = Vec::new();
            if self.peek()? == b']' {
                self.i += 1;
                return Ok(Json::Arr(out));
            }
            loop {
                out.push(self.value()?);
                match self.peek()? {
                    b',' => self.i += 1,
                    b']' => {
                        self.i += 1;
                        return Ok(Json::Arr(out));
                    }
                    c => return Err(format!("expected ',' or ']', got {:?}", c as char)),
                }
            }
        }

        fn number(&mut self) -> Result<Json, String> {
            self.skip_ws();
            let start = self.i;
            while self.b.get(self.i).is_some_and(u8::is_ascii_digit) {
                self.i += 1;
            }
            if start == self.i {
                return Err(format!("expected digits at byte {start}"));
            }
            std::str::from_utf8(&self.b[start..self.i])
                .expect("digits are ASCII")
                .parse::<u64>()
                .map(Json::Num)
                .map_err(|e| format!("bad integer at byte {start}: {e}"))
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = Vec::new();
            loop {
                match self.b.get(self.i).copied() {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        self.i += 1;
                        return String::from_utf8(out).map_err(|e| e.to_string());
                    }
                    Some(b'\\') => {
                        self.i += 1;
                        let esc = self.b.get(self.i).copied().ok_or("unterminated escape")?;
                        self.i += 1;
                        match esc {
                            b'"' => out.push(b'"'),
                            b'\\' => out.push(b'\\'),
                            b'/' => out.push(b'/'),
                            b'b' => out.push(0x08),
                            b'f' => out.push(0x0c),
                            b'n' => out.push(b'\n'),
                            b'r' => out.push(b'\r'),
                            b't' => out.push(b'\t'),
                            b'u' => {
                                let hex = self
                                    .b
                                    .get(self.i..self.i + 4)
                                    .ok_or("truncated \\u escape")?;
                                self.i += 4;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                    16,
                                )
                                .map_err(|e| e.to_string())?;
                                let c = char::from_u32(code)
                                    .ok_or_else(|| format!("bad \\u{code:04x} escape"))?;
                                let mut buf = [0u8; 4];
                                out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                            }
                            other => return Err(format!("bad escape \\{:?}", other as char)),
                        }
                    }
                    Some(c) => {
                        out.push(c);
                        self.i += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pooled_record(method: &str, wall_ns: u64, cold: bool) -> LaunchRecord {
        let mut r = LaunchRecord::new(method);
        r.pooled = true;
        r.cold = cold;
        r.wall = Duration::from_nanos(wall_ns);
        r.queued = Duration::from_nanos(wall_ns / 10);
        r.launch = Duration::from_nanos(wall_ns / 20);
        r
    }

    #[test]
    fn registry_counts_launches_and_latencies() {
        let obs = Observer::new();
        obs.observe(pooled_record("gpu-lock-free", 1000, true));
        obs.observe(pooled_record("gpu-lock-free", 2000, false));
        let snap = obs.snapshot();
        assert_eq!(snap.counters["launches_total"], 2);
        assert_eq!(snap.counters["launches_cold_total"], 1);
        assert_eq!(snap.counters["launches_warm_total"], 1);
        assert_eq!(snap.counters["launches_failed_total"], 0);
        let h = &snap.histograms["submit_to_stats_ns/gpu-lock-free"];
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 3000);
        // 6 registry mutations per clean pooled launch (the obs_overhead
        // bench pins exactly this constant).
        assert_eq!(obs.ops(), 12);
    }

    #[test]
    fn disabled_observer_is_a_no_op() {
        let obs = Observer::disabled();
        assert!(!obs.is_enabled());
        obs.observe(pooled_record("gpu-simple", 500, true));
        assert_eq!(obs.ops(), 0);
        assert_eq!(obs.snapshot().counters.len(), 0);
        assert!(obs.recent().is_empty());
    }

    #[test]
    fn failures_are_labeled() {
        let obs = Observer::new();
        let err = ExecError::BlockPanicked {
            block: 1,
            round: 2,
            message: "boom".to_string(),
        };
        obs.observe(LaunchRecord::from_error(
            "gpu-simple",
            &err,
            Duration::from_micros(5),
        ));
        let snap = obs.snapshot();
        assert_eq!(snap.counters["launches_total"], 1);
        assert_eq!(snap.counters["launches_failed_total"], 1);
        assert_eq!(snap.labeled["launch_failures_total"]["panic"], 1);
        let failure = obs.last_failure().expect("failure recorded");
        assert!(matches!(failure.outcome, LaunchOutcome::Failure { .. }));
    }

    #[test]
    fn flight_ring_is_bounded_but_last_failure_survives() {
        let obs = Observer::new();
        let err = ExecError::BlockPanicked {
            block: 0,
            round: 0,
            message: "early".to_string(),
        };
        obs.observe(LaunchRecord::from_error("no-sync", &err, Duration::ZERO));
        for i in 0..(FLIGHT_RECORDER_CAPACITY + 8) {
            obs.observe(pooled_record("no-sync", 100 + i as u64, false));
        }
        assert_eq!(obs.recent().len(), FLIGHT_RECORDER_CAPACITY);
        assert_eq!(obs.evicted(), 9);
        // The failure was evicted from the ring but survives separately.
        assert!(obs.recent().iter().all(|r| !r.outcome.is_failure()));
        assert!(obs.last_failure().is_some());
        assert!(obs
            .postmortem_json()
            .unwrap()
            .contains("\"error_kind\": \"panic\""));
    }

    #[test]
    fn prometheus_rendering_has_all_series() {
        let obs = Observer::new();
        obs.observe(pooled_record("gpu-lock-free", 4096, true));
        let text = obs.snapshot().render_prometheus();
        for needle in [
            "# TYPE blocksync_launches_total counter",
            "blocksync_launches_total 1",
            "# TYPE blocksync_queue_depth gauge",
            "# TYPE blocksync_submit_to_stats_ns summary",
            "blocksync_submit_to_stats_ns{method=\"gpu-lock-free\",quantile=\"0.99\"}",
            "blocksync_submit_to_stats_ns_count{method=\"gpu-lock-free\"} 1",
            "blocksync_queued_ns_count 1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn snapshot_json_round_trips() {
        let obs = Observer::new();
        obs.observe(pooled_record("gpu-tree-2", 12345, true));
        let err = ExecError::BlockPanicked {
            block: 2,
            round: 1,
            message: "with \"quotes\" and\nnewlines".to_string(),
        };
        obs.observe(LaunchRecord::from_error(
            "gpu-tree-2",
            &err,
            Duration::from_nanos(777),
        ));
        let snap = obs.snapshot();
        let parsed = MetricsSnapshot::from_json(&snap.to_json()).expect("parses");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn postmortem_json_carries_diagnostic_and_faults() {
        use crate::error::StuckPhase;
        let d = StuckDiagnostic {
            barrier: "pooled:gpu-lock-free".to_string(),
            waiting_block: 0,
            round: 3,
            flag: "Arrayin[1]".to_string(),
            timeout: Duration::from_millis(80),
            arrivals: vec![4, 3, 4],
            departures: vec![3, 3, 3],
            recent_events: vec!["r3 arrive".to_string()],
            phase: StuckPhase::Barrier,
        };
        let err = ExecError::BarrierTimeout {
            diagnostic: Box::new(d),
        };
        let schedule = FaultSchedule::new(vec![crate::fault::Fault {
            block: 1,
            round: 3,
            phase: crate::fault::FaultPhase::BarrierWait,
            kind: crate::fault::FaultKind::Straggler,
        }]);
        let rec = LaunchRecord::from_error("gpu-lock-free", &err, Duration::from_millis(100))
            .with_faults(&schedule);
        let json = rec.to_json();
        for needle in [
            "\"outcome\": \"failure\"",
            "\"error_kind\": \"timeout\"",
            "\"diagnostic\": {",
            "\"stragglers\": [1]",
            "\"fault_schedule\": [{\"block\": 1, \"round\": 3, \"phase\": \"BarrierWait\", \"kind\": \"Straggler\"}]",
        ] {
            assert!(json.contains(needle), "missing {needle:?} in:\n{json}");
        }
        // The postmortem itself must be valid JSON.
        json::parse(&json).expect("postmortem parses");
    }
}
