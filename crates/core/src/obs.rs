//! Cross-launch observability plane: a metrics registry plus a crash-dump
//! flight recorder, fed once per **launch completion**.
//!
//! Telemetry is one flow. The per-block recorder of `crate::trace` feeds a
//! launch's [`crate::KernelStats`]; the launch engine folds that launch —
//! success or failure, cold or warm — into one typed [`LaunchRecord`]
//! (`LaunchSetup::finish` in `crate::launch` is its only producer); and
//! this module keeps the records: nothing else survives across the
//! pipelined launches a pooled [`crate::GridRuntime`] serves.
//!
//! * [`LaunchRecord`] — what one launch was and how it ended, holding the
//!   things themselves rather than copies: the [`PoolLaunchStats`] of a
//!   warm launch, the [`ExecError`] of a failed one (with its
//!   [`crate::StuckDiagnostic`]), the [`Fault`]s that were scheduled, and
//!   the trailing trace events.
//! * [`Observer`] — an `Arc`-shared handle combining a **metrics
//!   registry** (named counters, gauges, labeled counters, and cumulative
//!   merged [`Histogram`]s) with a **flight recorder** (a bounded ring of
//!   [`LaunchRecord`]s).
//! * [`MetricsSnapshot`] — the registry itself; a point-in-time copy is a
//!   clone. Exportable as Prometheus text exposition
//!   ([`MetricsSnapshot::render_prometheus`]) or JSON
//!   ([`MetricsSnapshot::to_json`] / [`MetricsSnapshot::from_json`]).
//! * [`LaunchRecord::to_json`] — a self-contained postmortem artifact for
//!   one launch, written by `blocksync chaos --postmortem-dir` so every
//!   soak failure is replayable from the logged seed.
//!
//! All JSON here is a [`Json`] tree rendered by the workspace's one codec,
//! `blocksync_device::json`.
//!
//! ## Zero cost on the barrier hot path
//!
//! Workers never touch this plane: there are **no registry loads or
//! stores — and in particular no atomic read-modify-writes — inside
//! barrier spin loops** (the same guarantee the single-writer
//! [`crate::BlockHistogram`] telemetry makes). All mutation happens on
//! the *host* thread that resolves a launch (`wait_launch`, or
//! `LaunchPlan::run` under CPU-explicit sync), exactly once per launch,
//! under a short
//! uncontended mutex. The `obs_overhead` bench bin enforces both halves:
//! wall overhead under 5%, and a registry mutation count that is a
//! function of launches alone (never of rounds or spins).

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use blocksync_device::json::{self, Json};
use parking_lot::Mutex;

use crate::error::ExecError;
use crate::fault::Fault;
use crate::metrics::{Histogram, NUM_BUCKETS};
use crate::runtime::PoolLaunchStats;

/// How many [`LaunchRecord`]s the flight recorder retains.
pub const FLIGHT_RECORDER_CAPACITY: usize = 64;

/// Shard label standalone (non-service) runtimes report gauge samples
/// under, so the per-shard `queue_depth` family always has a stable slot.
pub const DEFAULT_SHARD: &str = "default";

/// Saturating nanosecond cast for registry samples and JSON export.
pub(crate) fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One entry of the flight recorder: everything worth keeping about a
/// completed launch, success or failure. For failures this preserves the
/// context a bare `Err` return loses — the trailing trace events and the
/// fault schedule that was active, next to the error and its diagnostic —
/// so a postmortem is replayable without re-running the soak.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LaunchRecord {
    /// Sync method that served the launch (e.g. `"gpu-lock-free"`, or
    /// `"auto:gpu-lock-free"` for resolved auto launches).
    pub method: String,
    /// Why the launch failed; `None` for a success.
    pub error: Option<ExecError>,
    /// Submit → stats latency, measured from submission (so it includes
    /// queueing, and for a pool's launch 0 the worker spawns).
    pub wall: Duration,
    /// Launch overhead `t_O` (max per-block assembly time).
    pub launch: Duration,
    /// Total compute time summed across blocks.
    pub compute: Duration,
    /// Total synchronization time summed across blocks.
    pub sync: Duration,
    /// The pool's accounting — the same value as
    /// [`crate::KernelStats::pool`]: every launch runs on a
    /// [`crate::GridRuntime`], a [`crate::LaunchPlan::run`]'s included (a
    /// fresh grid for the call). `None` only on a record built by hand.
    pub pool: Option<PoolLaunchStats>,
    /// Workers replaced while settling this launch (abandon-and-replace).
    pub replacements: usize,
    /// Shard label when the launch was served by a [`crate::GridService`]
    /// shard. `None` for standalone runtimes, whose gauge samples land
    /// under the `"default"` shard.
    pub shard: Option<String>,
    /// Trailing trace events per block (`"b<block>: <event>"`), captured
    /// for failures of launches that ran with a [`crate::TraceConfig`].
    pub recent_events: Vec<String>,
    /// The faults scheduled for the launch, if its kernel carried any.
    pub faults: Vec<Fault>,
}

impl LaunchRecord {
    /// A blank record for `method`; callers fill in what they know.
    pub fn new(method: impl Into<String>) -> Self {
        LaunchRecord {
            method: method.into(),
            ..LaunchRecord::default()
        }
    }

    /// A self-contained JSON postmortem for this launch: outcome, timing
    /// split, pool context, the full [`crate::StuckDiagnostic`] of a
    /// timeout, trailing trace events, and the active fault schedule.
    pub fn to_json(&self) -> Json {
        // A CPU-explicit launch renders the pool keys at their zero values.
        let pool = self.pool.unwrap_or_default();
        let mut o: Vec<(&str, Json)> = vec![
            ("seq", pool.launch_seq.into()),
            ("method", self.method.as_str().into()),
        ];
        match &self.error {
            None => o.push(("outcome", "success".into())),
            Some(e) => {
                o.push(("outcome", "failure".into()));
                o.push(("error", e.to_string().into()));
                o.push(("error_kind", e.kind_label().into()));
                if let ExecError::BarrierTimeout { diagnostic } = e {
                    o.push(("diagnostic", diagnostic.to_json()));
                }
            }
        }
        let fault = |f: &Fault| {
            Json::obj([
                ("block", f.block.into()),
                ("round", f.round.into()),
                ("phase", format!("{:?}", f.phase).into()),
                ("kind", format!("{:?}", f.kind).into()),
            ])
        };
        o.extend([
            ("wall_ns", dur_ns(self.wall).into()),
            ("launch_ns", dur_ns(self.launch).into()),
            ("compute_ns", dur_ns(self.compute).into()),
            ("sync_ns", dur_ns(self.sync).into()),
            ("pooled", self.pool.is_some().into()),
            ("queue_depth", pool.queue_depth.into()),
            ("queued_ns", dur_ns(pool.queued).into()),
            ("cold", pool.cold.into()),
            ("replacements", self.replacements.into()),
            ("shard", self.shard.as_deref().into()),
            (
                "recent_events",
                Json::arr(self.recent_events.iter().map(String::as_str)),
            ),
            ("fault_schedule", Json::arr(self.faults.iter().map(fault))),
        ]);
        Json::obj(o)
    }
}

/// The flight-recorder half: a bounded ring of launch records plus the
/// most recent failure, kept separately so it survives ring eviction.
#[derive(Debug, Default)]
struct Flight {
    ring: VecDeque<LaunchRecord>,
    last_failure: Option<LaunchRecord>,
}

impl Flight {
    fn push(&mut self, r: LaunchRecord) {
        if r.error.is_some() {
            self.last_failure = Some(r.clone());
        }
        if self.ring.len() == FLIGHT_RECORDER_CAPACITY {
            self.ring.pop_front();
        }
        self.ring.push_back(r);
    }
}

/// The cross-launch observability handle: metrics registry + flight
/// recorder behind one `Arc`. Every launcher owns one: a
/// [`crate::LaunchPlan`] and a standalone [`crate::GridRuntime`] each
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
    /// The live registry is a [`MetricsSnapshot`] nobody else can reach;
    /// [`Observer::snapshot`] clones it.
    registry: MetricsSnapshot,
    flight: Flight,
    /// Scratch for [`MetricsSnapshot::apply`]'s composed key.
    key: String,
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
                registry: MetricsSnapshot::seeded(),
                ..Inner::default()
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
        let g = &mut *self.inner.lock();
        g.registry.apply(&record, &mut g.key);
        g.flight.push(record);
    }

    /// Increment a plain counter — the service plane's hook for events
    /// that are not launches (shard set-up, admission rejections). No-op
    /// when disabled.
    pub(crate) fn inc_counter(&self, name: &str, by: u64) {
        if self.enabled {
            self.inner.lock().registry.inc(name, by);
        }
    }

    /// Set a plain gauge (e.g. `service_shards_live`). No-op when
    /// disabled.
    pub(crate) fn set_gauge(&self, name: &str, v: u64) {
        if self.enabled {
            self.inner.lock().registry.set_gauge(name, v);
        }
    }

    /// Increment one label of a counter family (e.g.
    /// `service_rejections_total` by reason). No-op when disabled.
    pub(crate) fn inc_labeled(&self, family: &str, label: &str, by: u64) {
        if self.enabled {
            self.inner.lock().registry.inc_labeled(family, label, by);
        }
    }

    /// Point-in-time copy of the registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner.lock().registry.clone()
    }

    /// Total registry mutations so far ([`MetricsSnapshot::ops`]): the
    /// deterministic count the `obs_overhead` bench guards.
    pub fn ops(&self) -> u64 {
        self.inner.lock().registry.ops
    }

    /// The flight recorder's current contents, oldest first.
    pub fn recent(&self) -> Vec<LaunchRecord> {
        self.inner.lock().flight.ring.iter().cloned().collect()
    }

    /// The most recent failed launch, kept even after ring eviction.
    pub fn last_failure(&self) -> Option<LaunchRecord> {
        self.inner.lock().flight.last_failure.clone()
    }

    /// JSON postmortem of the most recent failure, if any.
    pub fn postmortem_json(&self) -> Option<Json> {
        self.last_failure().map(|r| r.to_json())
    }
}

/// The metrics registry: name → value maps plus cumulative merged
/// histograms. An [`Observer`] owns the live one and updates it exactly
/// once per launch completion; what callers hold is a point-in-time copy,
/// exportable as Prometheus text exposition or JSON (and re-importable
/// from the latter).
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
    /// Total registry mutations — the deterministic "updates per launch"
    /// count the `obs_overhead` bench pins (it must be a function of
    /// launches alone, proving no spin-loop instrumentation exists).
    pub ops: u64,
}

/// The mutators are private: only an [`Observer`] writes a registry.
impl MetricsSnapshot {
    fn seeded() -> Self {
        let mut r = MetricsSnapshot::default();
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
        update(&mut self.counters, name, |c| *c += by);
        self.ops += 1;
    }

    fn set_gauge(&mut self, name: &str, v: u64) {
        update(&mut self.gauges, name, |g| *g = v);
        self.ops += 1;
    }

    fn inc_labeled(&mut self, family: &str, label: &str, by: u64) {
        update(&mut self.labeled, family, |f| {
            update(f, label, |c| *c += by)
        });
        self.ops += 1;
    }

    fn set_labeled_gauge(&mut self, family: &str, label: &str, v: u64) {
        update(&mut self.labeled_gauges, family, |f| {
            update(f, label, |g| *g = v)
        });
        self.ops += 1;
    }

    fn record_hist(&mut self, key: &str, v: u64) {
        update(&mut self.histograms, key, |h| h.record(v));
        self.ops += 1;
    }

    /// The one mutation site: fold a completed launch into the registry.
    /// `key` is scratch space for the one composed key, so that a launch
    /// allocates nothing here once its series exist.
    fn apply(&mut self, r: &LaunchRecord, key: &mut String) {
        self.inc("launches_total", 1);
        if let Some(e) = &r.error {
            self.inc("launches_failed_total", 1);
            self.inc_labeled("launch_failures_total", e.kind_label(), 1);
        }
        if r.replacements > 0 {
            self.inc("worker_replacements_total", r.replacements as u64);
        }
        if let Some(p) = &r.pool {
            self.inc(
                if p.cold {
                    "launches_cold_total"
                } else {
                    "launches_warm_total"
                },
                1,
            );
            self.set_labeled_gauge(
                "queue_depth",
                r.shard.as_deref().unwrap_or(DEFAULT_SHARD),
                p.queue_depth as u64,
            );
            self.record_hist("queued_ns", dur_ns(p.queued));
            self.record_hist("launch_ns", dur_ns(r.launch));
        }
        // Shard-labeled launches (service traffic) additionally count into
        // a per-shard family; standalone runtimes skip this, keeping the
        // obs_overhead bench's 6-updates-per-launch invariant intact.
        if let Some(shard) = r.shard.as_deref() {
            self.inc_labeled("shard_launches_total", shard, 1);
        }
        key.clear();
        key.push_str("submit_to_stats_ns/");
        key.push_str(&r.method);
        self.record_hist(key, dur_ns(r.wall));
    }
}

/// Apply `f` to the value of `key` in `map`, inserting a default first if
/// there is none: a lookup by `&str`, which allocates only on insert.
fn update<V: Default>(map: &mut BTreeMap<String, V>, key: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(key) {
        Some(v) => f(v),
        None => f(map.entry(key.to_string()).or_default()),
    }
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
    pub fn to_json(&self) -> Json {
        let map =
            |m: &BTreeMap<String, u64>| Json::obj(m.iter().map(|(k, &v)| (k.as_str(), v.into())));
        let families = |m: &BTreeMap<String, BTreeMap<String, u64>>| {
            Json::obj(m.iter().map(|(fam, series)| (fam.as_str(), map(series))))
        };
        let histogram = |h: &Histogram| {
            Json::obj([
                ("count", h.count().into()),
                ("sum", h.sum().into()),
                ("min", h.raw_min().into()),
                ("max", h.max().into()),
                ("buckets", Json::arr(h.buckets().iter().copied())),
            ])
        };
        Json::obj([
            ("ops", self.ops.into()),
            ("counters", map(&self.counters)),
            ("gauges", map(&self.gauges)),
            ("labeled", families(&self.labeled)),
            ("labeled_gauges", families(&self.labeled_gauges)),
            (
                "histograms",
                Json::obj(
                    self.histograms
                        .iter()
                        .map(|(key, h)| (key.as_str(), histogram(h))),
                ),
            ),
        ])
    }

    /// Parse a snapshot back from the text of its
    /// [`MetricsSnapshot::to_json`] export (either rendering).
    ///
    /// # Errors
    /// A description of the first malformed construct, unknown key, or
    /// histogram with the wrong bucket count.
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
fn parse_u64_map(v: &Json, what: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut out = BTreeMap::new();
    for (k, val) in v.as_obj(what)? {
        out.insert(k.clone(), val.as_u64(k)?);
    }
    Ok(out)
}

/// Parse one histogram object back into a [`Histogram`].
fn parse_histogram(v: &Json, what: &str) -> Result<Histogram, String> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{StuckDiagnostic, StuckPhase};
    use crate::fault::FaultKind;

    fn pooled_record(method: &str, wall_ns: u64, cold: bool) -> LaunchRecord {
        let mut r = LaunchRecord::new(method);
        r.pool = Some(PoolLaunchStats {
            launch_seq: u64::from(!cold),
            queue_depth: 0,
            queued: Duration::from_nanos(wall_ns / 10),
            cold,
        });
        r.wall = Duration::from_nanos(wall_ns);
        r.launch = Duration::from_nanos(wall_ns / 20);
        r
    }

    fn failed_record(method: &str, error: ExecError, wall: Duration) -> LaunchRecord {
        let mut r = LaunchRecord::new(method);
        r.error = Some(error);
        r.wall = wall;
        r
    }

    fn panicked(block: usize, round: usize, message: &str) -> ExecError {
        ExecError::BlockPanicked {
            block,
            round,
            message: message.to_string(),
        }
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
        let err = panicked(1, 2, "boom");
        obs.observe(failed_record(
            "gpu-simple",
            err.clone(),
            Duration::from_micros(5),
        ));
        let snap = obs.snapshot();
        assert_eq!(snap.counters["launches_total"], 1);
        assert_eq!(snap.counters["launches_failed_total"], 1);
        assert_eq!(snap.labeled["launch_failures_total"]["panic"], 1);
        let failure = obs.last_failure().expect("failure recorded");
        assert_eq!(failure.error, Some(err));
    }

    #[test]
    fn flight_ring_is_bounded_but_last_failure_survives() {
        let obs = Observer::new();
        obs.observe(failed_record(
            "no-sync",
            panicked(0, 0, "early"),
            Duration::ZERO,
        ));
        for i in 0..(FLIGHT_RECORDER_CAPACITY + 8) {
            obs.observe(pooled_record("no-sync", 100 + i as u64, false));
        }
        // The ring holds the newest records: the failure and the first 8
        // pooled ones were evicted.
        let recent = obs.recent();
        assert_eq!(recent.len(), FLIGHT_RECORDER_CAPACITY);
        assert_eq!(recent[0].wall, Duration::from_nanos(100 + 8));
        // The failure was evicted from the ring but survives separately.
        assert!(obs.recent().iter().all(|r| r.error.is_none()));
        assert!(obs.last_failure().is_some());
        let postmortem = obs.postmortem_json().unwrap();
        assert_eq!(postmortem.get("error_kind"), Some(&"panic".into()));
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
        obs.observe(failed_record(
            "method with \"quotes\" and\nnewlines",
            panicked(2, 1, "boom"),
            Duration::from_nanos(777),
        ));
        let snap = obs.snapshot();
        for text in [snap.to_json().to_string(), snap.to_json().pretty()] {
            assert_eq!(MetricsSnapshot::from_json(&text).as_ref(), Ok(&snap));
        }
        // Safety checks of the importer: unknown keys and short bucket
        // arrays are rejected, not defaulted.
        let mut doc = snap.to_json();
        let Json::Obj(fields) = &mut doc else {
            panic!("snapshot is an object")
        };
        fields.push(("surprise".to_string(), Json::Null));
        let err = MetricsSnapshot::from_json(&doc.to_string()).unwrap_err();
        assert!(err.contains("unknown snapshot key"), "{err}");
        let short = Json::obj([(
            "histograms",
            Json::obj([("h", Json::obj([("buckets", Json::arr([1u64, 2]))]))]),
        )]);
        let err = MetricsSnapshot::from_json(&short.to_string()).unwrap_err();
        assert!(err.contains("2 buckets"), "{err}");
    }

    #[test]
    fn postmortem_json_carries_diagnostic_and_faults() {
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
        let mut rec = failed_record("gpu-lock-free", err, Duration::from_millis(100));
        rec.faults = vec![Fault::in_wait(1, 3, FaultKind::Straggler)];
        // The postmortem must survive its own text form.
        let doc = json::parse(&rec.to_json().pretty()).expect("postmortem parses");
        assert_eq!(doc, rec.to_json());
        assert_eq!(doc.get("outcome"), Some(&"failure".into()));
        assert_eq!(doc.get("error_kind"), Some(&"timeout".into()));
        assert_eq!(doc.get("pooled"), Some(&false.into()));
        assert_eq!(doc.get("shard"), Some(&Json::Null));
        let diagnostic = doc
            .get("diagnostic")
            .expect("timeouts embed the diagnostic");
        assert_eq!(diagnostic.get("stragglers"), Some(&Json::arr([1u64])));
        assert_eq!(diagnostic.get("timeout_ns"), Some(&80_000_000u64.into()));
        assert_eq!(
            doc.get("fault_schedule"),
            Some(&Json::arr([Json::obj([
                ("block", 1u64.into()),
                ("round", 3u64.into()),
                ("phase", "BarrierWait".into()),
                ("kind", "Straggler".into()),
            ])]))
        );
    }
}
