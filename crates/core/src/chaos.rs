//! Chaos soak harness: random fault schedules against live pooled shards.
//!
//! The fault plane ([`crate::FaultSchedule`]) can describe any single
//! failure; this module asks the *statistical* question — does the runtime
//! survive hundreds of pipelined launches where a configurable fraction
//! carry seeded-random schedules? There is one driver: the launches are
//! routed across the [`GridService`] shards named by
//! [`ChaosConfig::shards`], and a standalone pool is simply a one-element
//! list. After every launch the harness checks three invariants, and after
//! the whole barrage a fourth:
//!
//! 1. **The error names the cause.** The launch's [`crate::ExecError`]
//!    must report one of the scheduled fault sites
//!    ([`FaultSchedule::matches_error`]) — the right variant, block,
//!    round, and phase (assembly faults must surface as assembly, not as
//!    a round-0 body fault).
//! 2. **The pool self-heals.** A launch whose faults are all
//!    non-cooperative stalls *must* leave abandoned stragglers replaced:
//!    the per-block worker generation counters of *its own* shard
//!    ([`crate::GridRuntime::generations`]) strictly advance across its
//!    wait.
//! 3. **Fault-free launches stay bit-identical.** Every clean (and every
//!    benign, delay-only) launch's output must equal the sequential
//!    reference — a prior fault must not contaminate later launches.
//! 4. **Every shard still serves.** After the barrage each shard runs one
//!    more clean launch bit-identically — no shard is left wedged, and
//!    healing one never paused or contaminated a sibling.
//!
//! Everything derives from one logged `u64` seed: a red soak anywhere
//! reproduces locally with `blocksync chaos --seed <seed>`.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use blocksync_device::json::Json;

use crate::barrier::SyncPolicy;
use crate::error::{ExecError, ServiceError};
use crate::executor::{BlockCtx, GridConfig, RoundKernel};
use crate::fault::{Fault, FaultInjector, FaultKind, FaultProfile, FaultSchedule, SplitMix64};
use crate::gmem::GlobalBuffer;
use crate::method::SyncMethod;
use crate::obs::{LaunchRecord, MetricsSnapshot, Observer};
use crate::runtime::GridRuntime;
use crate::service::{GridService, ServiceConfig, ServiceHandle, ShardKey};
use crate::trace::TraceConfig;

/// Configuration of one chaos soak run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Total launches pushed through the service, spread across shards by
    /// the seeded RNG.
    pub launches: usize,
    /// Fraction of launches (0.0..=1.0) that carry a random fault
    /// schedule.
    pub fault_rate: f64,
    /// Master seed: shard routing, every faulty/clean decision and every
    /// fault schedule derive from it, so one `u64` reproduces the whole
    /// soak.
    pub seed: u64,
    /// The shard shapes under test; one element soaks a single pool. Each
    /// needs a barrier method the pooled runtime supports (not
    /// `CpuExplicit`, `Auto`, or `NoSync` — chaos needs a barrier to
    /// poison and peers to observe faults) and at least 2 blocks (a
    /// healthy witness per fault).
    pub shards: Vec<ShardKey>,
    /// Rounds per launch.
    pub rounds: usize,
    /// Policy timeout for every launch; fault durations are sized from it.
    pub timeout: Duration,
    /// Pipelining window: launches in flight (across all shards) before
    /// the oldest is waited on. Also sizes the service's bounded per-shard
    /// queues so the soak's own traffic is never rejected.
    pub window: usize,
    /// When set, every failed launch dumps a self-contained JSON
    /// postmortem (`postmortem-seed<seed>-launch<i>.json`) into this
    /// directory, taken from the service's flight recorder — fault
    /// schedule, `StuckDiagnostic`, timing split, and recent trace events
    /// (the trace plane is enabled automatically for the soak so the
    /// events are populated). The artifact replays from the logged seed.
    pub postmortem_dir: Option<PathBuf>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            launches: 200,
            fault_rate: 0.25,
            seed: 42,
            shards: vec![ShardKey::new(4, 8, SyncMethod::GpuLockFree)],
            rounds: 6,
            timeout: Duration::from_millis(80),
            window: 4,
            postmortem_dir: None,
        }
    }
}

/// One launch's outcome line in a [`ChaosReport`] — the per-launch detail
/// `blocksync chaos --json` serializes so soak runs are diffable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosLaunch {
    /// Zero-based launch index (= submission order).
    pub index: usize,
    /// `"clean"`, `"benign"` (delay-only schedule), or `"faulty"`.
    pub class: String,
    /// The shard that served the launch ([`ShardKey`]'s `Display`).
    pub shard: String,
    /// The launch's error, when it failed.
    pub error: Option<ExecError>,
    /// The scheduled faults (empty for clean launches).
    pub faults: Vec<Fault>,
    /// Per-block worker generation counters of the serving shard after
    /// this launch settled.
    pub generations: Vec<u64>,
    /// Worker replacements this launch's settling caused (sum of
    /// generation advances since the previous settled launch).
    pub generation_delta: u64,
}

/// Outcome of a chaos soak. `failures` holds one human-readable line per
/// violated invariant; an empty list means the soak passed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChaosReport {
    /// The master seed (echo of [`ChaosConfig::seed`], for repro).
    pub seed: u64,
    /// Launches completed.
    pub launches: usize,
    /// Launches that carried a fatal fault schedule (expected to fail).
    pub faulty: usize,
    /// Launches that carried a benign (delay-only) schedule (expected to
    /// succeed bit-identically).
    pub benign: usize,
    /// Fault-free launches (expected to succeed bit-identically).
    pub clean: usize,
    /// Total worker replacements observed (sum of generation-counter
    /// advances over all shards).
    pub replacements: u64,
    /// Invariant violations, one line each. Empty = passed.
    pub failures: Vec<String>,
    /// Per-launch outcome lines, in settle order.
    pub outcomes: Vec<ChaosLaunch>,
    /// Snapshot of the service's metrics registry at the end of the soak.
    pub metrics: Option<Box<MetricsSnapshot>>,
}

impl ChaosReport {
    /// Whether every invariant held on every launch.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The full report — aggregate counts, invariant violations,
    /// per-launch outcomes (fault schedules and generation deltas), and
    /// the end-of-soak metrics snapshot — as JSON, for
    /// `blocksync chaos --json FILE`.
    pub fn to_json(&self) -> Json {
        let outcome = |o: &ChaosLaunch| {
            Json::obj([
                ("index", o.index.into()),
                ("class", o.class.as_str().into()),
                ("shard", o.shard.as_str().into()),
                ("error", o.error.as_ref().map(ToString::to_string).into()),
                (
                    "faults",
                    Json::arr(o.faults.iter().map(|f| format!("{f:?}"))),
                ),
                ("generations", Json::arr(o.generations.iter().copied())),
                ("generation_delta", o.generation_delta.into()),
            ])
        };
        Json::obj([
            ("seed", self.seed.into()),
            ("launches", self.launches.into()),
            ("faulty", self.faulty.into()),
            ("benign", self.benign.into()),
            ("clean", self.clean.into()),
            ("replacements", self.replacements.into()),
            ("passed", self.passed().into()),
            (
                "failures",
                Json::arr(self.failures.iter().map(String::as_str)),
            ),
            ("outcomes", Json::arr(self.outcomes.iter().map(outcome))),
            ("metrics", self.metrics.as_ref().map(|m| m.to_json()).into()),
        ])
    }
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "chaos soak: {} launches ({} faulty, {} benign, {} clean), \
             {} worker replacements, seed {}",
            self.launches, self.faulty, self.benign, self.clean, self.replacements, self.seed
        )?;
        if self.passed() {
            write!(f, "PASS: all invariants held")
        } else {
            writeln!(f, "FAIL: {} invariant violation(s):", self.failures.len())?;
            for line in &self.failures {
                writeln!(f, "  - {line}")?;
            }
            write!(f, "reproduce with: blocksync chaos --seed {}", self.seed)
        }
    }
}

/// Deterministic cross-block mixing kernel: each round every block folds a
/// rotating peer's previous-round value into its own slot (ping-pong
/// buffers keep same-round reads and writes disjoint, per the
/// [`RoundKernel`] invariant). Any lost round, early release, or missing
/// publication changes the final bits, which is exactly what the
/// bit-identical invariant needs.
struct MixKernel {
    ping: GlobalBuffer<u64>,
    pong: GlobalBuffer<u64>,
    n: usize,
    rounds: usize,
}

fn mix(a: u64, b: u64, r: usize) -> u64 {
    let mut z = a ^ b.rotate_left(17) ^ (r as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 27)
}

fn seed_slot(b: usize) -> u64 {
    (b as u64).wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x5bf0_3635
}

impl MixKernel {
    fn new(n: usize, rounds: usize) -> Self {
        let ping = GlobalBuffer::new(n);
        for b in 0..n {
            ping.set(b, seed_slot(b));
        }
        MixKernel {
            ping,
            pong: GlobalBuffer::new(n),
            n,
            rounds,
        }
    }

    /// The buffer the last round wrote.
    fn output(&self) -> Vec<u64> {
        if self.rounds % 2 == 1 {
            self.pong.to_vec()
        } else {
            self.ping.to_vec()
        }
    }

    /// The sequential reference every fault-free launch must reproduce.
    fn expected(n: usize, rounds: usize) -> Vec<u64> {
        let mut cur: Vec<u64> = (0..n).map(seed_slot).collect();
        for r in 0..rounds {
            let next: Vec<u64> = (0..n)
                .map(|b| mix(cur[b], cur[(b + 1 + r) % n], r))
                .collect();
            cur = next;
        }
        cur
    }
}

impl RoundKernel for MixKernel {
    fn rounds(&self) -> usize {
        self.rounds
    }

    fn round(&self, ctx: &BlockCtx, r: usize) {
        let b = ctx.block_id;
        let (src, dst) = if r.is_multiple_of(2) {
            (&self.ping, &self.pong)
        } else {
            (&self.pong, &self.ping)
        };
        dst.set(b, mix(src.get(b), src.get((b + 1 + r) % self.n), r));
    }
}

/// What the harness planned for one launch.
enum Planned {
    Clean(Arc<MixKernel>),
    Faulty {
        schedule: FaultSchedule,
        kernel: Arc<FaultInjector<MixKernel>>,
    },
}

impl Planned {
    fn output(&self) -> Vec<u64> {
        match self {
            Planned::Clean(k) => k.output(),
            Planned::Faulty { kernel, .. } => kernel.inner().output(),
        }
    }

    fn schedule(&self) -> Option<&FaultSchedule> {
        match self {
            Planned::Clean(_) => None,
            Planned::Faulty { schedule, .. } => Some(schedule),
        }
    }
}

impl ChaosConfig {
    /// Validate every shard shape without running anything.
    ///
    /// # Errors
    /// A human-readable reason when the configuration cannot host a chaos
    /// soak (no shards, a method without a poisonable barrier, too few
    /// blocks, ...).
    pub fn validate(&self) -> Result<(), String> {
        if self.shards.is_empty() {
            return Err("chaos needs at least one shard".into());
        }
        if self.rounds < 1 {
            return Err("chaos needs at least 1 round".into());
        }
        if !(0.0..=1.0).contains(&self.fault_rate) {
            return Err(format!("fault rate {} outside 0.0..=1.0", self.fault_rate));
        }
        for key in &self.shards {
            if matches!(
                key.method,
                SyncMethod::CpuExplicit | SyncMethod::Auto | SyncMethod::NoSync
            ) {
                return Err(format!(
                    "shard {key}: chaos needs a poisonable barrier method; {} cannot host \
                     fault schedules (pick e.g. gpu-lock-free)",
                    key.method
                ));
            }
            if key.blocks < 2 {
                return Err(format!(
                    "shard {key}: chaos needs at least 2 blocks (a healthy witness per fault)"
                ));
            }
            GridConfig::new(key.blocks, key.threads_per_block)
                .validate()
                .map_err(|e| format!("shard {key}: {e}"))?;
        }
        Ok(())
    }

    /// Run the soak across live shards and report. Faulted shards heal in
    /// place while siblings keep taking traffic; see the module docs for
    /// the invariants checked.
    ///
    /// Never panics on an invariant violation — every violation is
    /// collected into [`ChaosReport::failures`] so one bad launch does not
    /// hide the rest of the run.
    ///
    /// # Errors
    /// See [`ChaosConfig::validate`]; a postmortem directory that cannot
    /// be created is also reported here.
    pub fn run(&self) -> Result<ChaosReport, String> {
        self.validate()?;
        let policy = SyncPolicy::with_timeout(self.timeout);
        let mut template = GridConfig::new(1, 1).with_policy(policy);
        if let Some(dir) = &self.postmortem_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create postmortem dir {}: {e}", dir.display()))?;
            // Postmortems embed recent trace events; turn tracing on so a
            // failure dump is never empty-handed.
            template = template.with_trace(TraceConfig::default());
        }
        // The bounded queues must admit the soak's own pipelining: the
        // global window bounds per-shard in-flight launches, so capacity
        // = window never rejects chaos traffic while still exercising the
        // admission plane end-to-end. The idle TTL outlives the soak so
        // no shard retires mid-run.
        let svc = GridService::new(
            ServiceConfig::default()
                .with_max_shards(self.shards.len())
                .with_queue_capacity(self.window.max(1))
                .with_tenant_quota(self.window.max(1))
                .with_idle_ttl(Duration::from_secs(3600))
                .with_template(template),
        );
        let mut report = ChaosReport {
            seed: self.seed,
            ..ChaosReport::default()
        };
        let mut rng = SplitMix64::new(self.seed);
        let expected: HashMap<ShardKey, Vec<u64>> = self
            .shards
            .iter()
            .map(|&k| (k, MixKernel::expected(k.blocks, self.rounds)))
            .collect();
        // One tracker per shard so a sibling shard's healing can never
        // satisfy — or mask — another shard's invariant 2.
        let mut trackers: HashMap<ShardKey, GenTracker> = self
            .shards
            .iter()
            .map(|&k| (k, GenTracker::default()))
            .collect();
        // Plan every launch up front from the seed: routing, class, and
        // schedule all derive from the one u64.
        let plans: Vec<(ShardKey, Planned)> = (0..self.launches)
            .map(|_| {
                let key = self.shards[(rng.next() % self.shards.len() as u64) as usize];
                let faulty = rng.next_f64() < self.fault_rate;
                let kernel = MixKernel::new(key.blocks, self.rounds);
                let profile = FaultProfile {
                    n_blocks: key.blocks,
                    rounds: self.rounds,
                    timeout: self.timeout,
                    max_faults: 2,
                    allow_assembly: true,
                };
                let plan = if faulty {
                    let schedule = FaultSchedule::random(rng.next(), &profile);
                    Planned::Faulty {
                        schedule: schedule.clone(),
                        kernel: Arc::new(
                            FaultInjector::with_schedule(kernel, schedule).with_policy(policy),
                        ),
                    }
                } else {
                    Planned::Clean(Arc::new(kernel))
                };
                (key, plan)
            })
            .collect();

        let mut inflight: VecDeque<(usize, ShardKey, ServiceHandle)> = VecDeque::new();
        let mut settle_one =
            |report: &mut ChaosReport, i: usize, key: ShardKey, h: ServiceHandle| {
                let (_, plan) = &plans[i];
                let label = key.to_string();
                let seq = h.seq();
                let res = h.wait().map_err(|e| match e {
                    ServiceError::Exec(e) => e,
                    other => {
                        // Admission errors cannot happen after admission;
                        // surfacing one here is itself a soak failure.
                        report.failures.push(format!(
                            "launch {i} (shard {label}): post-admission {other}"
                        ));
                        ExecError::RuntimeUnsupported {
                            method: other.to_string(),
                        }
                    }
                });
                if res.is_err() {
                    let rec = service_flight_record(&svc.observer(), &label, seq);
                    self.dump_postmortem(report, i, rec);
                }
                let tracker = trackers.get_mut(&key).expect("tracker per shard");
                let gens = svc
                    .with_shard(key, GridRuntime::generations)
                    .unwrap_or_default();
                settle(
                    report,
                    &expected[&key],
                    i,
                    plan,
                    (tracker, gens),
                    &label,
                    res,
                );
            };
        for (i, (key, plan)) in plans.iter().enumerate() {
            let kernel: Arc<dyn RoundKernel + Send + Sync> = match plan {
                Planned::Clean(k) => Arc::clone(k) as _,
                Planned::Faulty { kernel, .. } => Arc::clone(kernel) as _,
            };
            match svc.submit("chaos", *key, kernel) {
                Ok(h) => inflight.push_back((i, *key, h)),
                Err(e) => report
                    .failures
                    .push(format!("launch {i} (shard {key}): submit failed: {e}")),
            }
            if inflight.len() >= self.window.max(1) {
                let (i, key, h) = inflight.pop_front().expect("nonempty");
                settle_one(&mut report, i, key, h);
            }
        }
        while let Some((i, key, h)) = inflight.pop_front() {
            settle_one(&mut report, i, key, h);
        }
        // Invariant 4: after the barrage, every shard still serves clean
        // traffic bit-identically — healing one shard never wedged or
        // contaminated a sibling.
        for &key in &self.shards {
            let kernel = Arc::new(MixKernel::new(key.blocks, self.rounds));
            let outcome = svc
                .submit("chaos", key, Arc::clone(&kernel) as _)
                .map_err(|e| e.to_string())
                .and_then(|h| h.wait().map_err(|e| e.to_string()));
            match outcome {
                Ok(_) => {
                    if kernel.output() != expected[&key] {
                        report.failures.push(format!(
                            "shard {key}: post-soak clean launch diverged from reference"
                        ));
                    }
                }
                Err(e) => report.failures.push(format!(
                    "shard {key}: stopped serving clean traffic after the soak: {e}"
                )),
            }
        }
        report.launches = self.launches;
        report.replacements = self
            .shards
            .iter()
            .filter_map(|&k| svc.with_shard(k, |rt| rt.generations().iter().sum::<u64>()))
            .sum();
        report.metrics = Some(Box::new(svc.observer().snapshot()));
        Ok(report)
    }

    /// Write one failed launch's flight record as
    /// `postmortem-seed<seed>-launch<i>.json` under the postmortem
    /// directory (no-op without one). A missing record or write failure is
    /// folded into the report rather than aborting the soak.
    fn dump_postmortem(&self, report: &mut ChaosReport, i: usize, rec: Option<LaunchRecord>) {
        let Some(dir) = self.postmortem_dir.as_deref() else {
            return;
        };
        let Some(rec) = rec else {
            report.failures.push(format!(
                "launch {i}: failed but the flight recorder has no record of it"
            ));
            return;
        };
        let path = dir.join(format!("postmortem-seed{}-launch{i:04}.json", self.seed));
        if let Err(e) = std::fs::write(&path, rec.to_json().pretty()) {
            report.failures.push(format!(
                "launch {i}: postmortem write to {} failed: {e}",
                path.display()
            ));
        }
    }
}

/// Find the flight record of launch `seq` on shard `shard` in a service's
/// shared flight recorder. Per-shard sequence numbers collide across
/// shards, so the match needs both keys; the fallback is the most recent
/// failure *on that shard* (other launches in the pipeline window may
/// have failed since).
fn service_flight_record(obs: &Observer, shard: &str, seq: u64) -> Option<LaunchRecord> {
    let recent = obs.recent();
    let failed_here = |r: &&LaunchRecord| r.shard.as_deref() == Some(shard) && r.error.is_some();
    recent
        .iter()
        .rev()
        .filter(failed_here)
        .find(|r| r.pool.is_some_and(|p| p.launch_seq == seq))
        .or_else(|| recent.iter().rev().find(failed_here))
        .cloned()
}

/// Per-shard generation bookkeeping across settles: `watermark` is the
/// stall-self-heal threshold of invariant 2 (only advanced by all-stall
/// schedules), `last_sum` the previous settled launch's generation sum
/// (for per-launch replacement deltas).
#[derive(Debug, Default)]
struct GenTracker {
    watermark: u64,
    last_sum: u64,
}

/// Check one completed launch against the three per-launch invariants,
/// folding violations into the report. `pool` is the serving shard's
/// generation bookkeeping plus its current counters.
fn settle(
    report: &mut ChaosReport,
    expected: &[u64],
    i: usize,
    plan: &Planned,
    (tracker, gens): (&mut GenTracker, Vec<u64>),
    shard: &str,
    outcome: Result<crate::stats::KernelStats, ExecError>,
) {
    let schedule = plan.schedule();
    let expects_failure = schedule.is_some_and(FaultSchedule::expects_failure);
    match (&outcome, schedule) {
        (Ok(_), _) if expects_failure => {
            report.failures.push(format!(
                "launch {i} (shard {shard}): expected a failure but it succeeded (schedule {:?})",
                schedule.expect("expects_failure implies a schedule")
            ));
        }
        (Ok(_), _) => {
            // Invariant 3: fault-free and benign launches are bit-identical
            // to the sequential reference.
            let got = plan.output();
            if got != expected {
                report.failures.push(format!(
                    "launch {i} (shard {shard}): output diverged from reference: \
                     {got:?} != {expected:?}"
                ));
            }
        }
        (Err(e), Some(s)) if expects_failure => {
            // Invariant 1: the error names a scheduled fault site.
            if !s.matches_error(e) {
                report.failures.push(format!(
                    "launch {i} (shard {shard}): error does not name a scheduled fault: \
                     `{e}` vs {s:?}"
                ));
            }
        }
        (Err(e), _) => {
            report.failures.push(format!(
                "launch {i} (shard {shard}): unexpected failure of a {} launch: {e}",
                if schedule.is_some() {
                    "benign"
                } else {
                    "clean"
                }
            ));
        }
    }
    let class = match plan {
        Planned::Clean(_) => {
            report.clean += 1;
            "clean"
        }
        Planned::Faulty { .. } if expects_failure => {
            report.faulty += 1;
            "faulty"
        }
        Planned::Faulty { .. } => {
            report.benign += 1;
            "benign"
        }
    };
    // Invariant 2: a launch whose fatal faults are all non-cooperative
    // stalls must have forced abandon-and-replace — its wait strictly
    // advances some generation counter of *its own* pool. (Mixed
    // schedules may fail before any stall site is reached, so only
    // all-stall schedules assert.)
    let gens_sum: u64 = gens.iter().sum();
    if let Some(s) = schedule {
        let fatal: Vec<_> = s.faults().iter().filter(|f| f.is_fatal()).collect();
        let all_stalls =
            !fatal.is_empty() && fatal.iter().all(|f| matches!(f.kind, FaultKind::Stall(_)));
        if all_stalls {
            if gens_sum <= tracker.watermark {
                report.failures.push(format!(
                    "launch {i} (shard {shard}): stall schedule did not advance any worker \
                     generation (pool failed to self-heal): {s:?}"
                ));
            }
            tracker.watermark = gens_sum.max(tracker.watermark);
        }
    }
    let generation_delta = gens_sum.saturating_sub(tracker.last_sum);
    tracker.last_sum = gens_sum;
    report.outcomes.push(ChaosLaunch {
        index: i,
        class: class.to_string(),
        shard: shard.to_string(),
        error: outcome.err(),
        faults: schedule.map_or_else(Vec::new, |s| s.faults().to_vec()),
        generations: gens,
        generation_delta,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::TreeLevels;

    /// Three differently-shaped shards, so routing, per-shard trackers and
    /// invariant 4 have siblings to tell apart.
    fn three_shards() -> Vec<ShardKey> {
        vec![
            ShardKey::new(4, 8, SyncMethod::GpuLockFree),
            ShardKey::new(3, 8, SyncMethod::GpuSimple),
            ShardKey::new(5, 8, SyncMethod::GpuTree(TreeLevels::Two)),
        ]
    }

    #[test]
    fn reference_matches_a_clean_run() {
        let k = MixKernel::new(3, 5);
        let cfg = GridConfig::new(3, 8);
        crate::GridExecutor::new(cfg, SyncMethod::GpuSimple)
            .run(&k)
            .unwrap();
        assert_eq!(k.output(), MixKernel::expected(3, 5));
    }

    #[test]
    fn validate_rejects_bad_shards() {
        let with = |shards: Vec<ShardKey>| ChaosConfig {
            shards,
            ..ChaosConfig::default()
        };
        assert!(with(Vec::new()).validate().is_err());
        let err = with(vec![ShardKey::new(4, 8, SyncMethod::NoSync)])
            .validate()
            .unwrap_err();
        assert!(err.contains("shard 4x8/no-sync"), "{err}");
        assert!(with(vec![ShardKey::new(4, 8, SyncMethod::CpuExplicit)])
            .validate()
            .is_err());
        assert!(with(vec![ShardKey::new(1, 8, SyncMethod::GpuSimple)])
            .validate()
            .is_err());
        // One bad shard spoils a list of good ones.
        let mut mixed = three_shards();
        mixed.push(ShardKey::new(4, 8, SyncMethod::Auto));
        assert!(with(mixed).validate().is_err());
        assert!(ChaosConfig::default().validate().is_ok());
        assert!(with(three_shards()).validate().is_ok());
    }

    #[test]
    fn zero_fault_rate_soak_is_all_clean_and_passes() {
        let report = ChaosConfig {
            launches: 8,
            fault_rate: 0.0,
            rounds: 4,
            ..ChaosConfig::default()
        }
        .run()
        .unwrap();
        assert!(report.passed(), "{report}");
        assert_eq!(report.clean, 8);
        assert_eq!(report.faulty + report.benign, 0);
    }

    #[test]
    fn soak_records_per_launch_outcomes_and_metrics() {
        let report = ChaosConfig {
            launches: 6,
            fault_rate: 0.5,
            rounds: 4,
            ..ChaosConfig::default()
        }
        .run()
        .unwrap();
        assert_eq!(report.outcomes.len(), 6);
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.index, i);
            assert_eq!(o.shard, "4x8/gpu-lock-free");
            assert!(matches!(o.class.as_str(), "clean" | "benign" | "faulty"));
            // Faulty launches must carry both a schedule and the error that
            // named it; clean ones neither.
            match o.class.as_str() {
                "clean" => assert!(o.faults.is_empty() && o.error.is_none()),
                "benign" => assert!(!o.faults.is_empty() && o.error.is_none()),
                _ => assert!(!o.faults.is_empty() && o.error.is_some()),
            }
        }
        let metrics = report.metrics.as_ref().expect("soak snapshots metrics");
        // The six soak launches plus the one-shard liveness pass.
        assert_eq!(metrics.counters["launches_total"], 7);
        // The report JSON must parse and round-trip its aggregate counts.
        let text = report.to_json().pretty();
        let parsed = blocksync_device::json::parse(&text).expect("report JSON parses");
        assert_eq!(parsed, report.to_json());
        assert_eq!(parsed.get("seed"), Some(&report.seed.into()));
        assert_eq!(parsed.get("launches"), Some(&6u64.into()));
        let outcomes = parsed.get("outcomes").unwrap().as_arr("outcomes").unwrap();
        assert_eq!(outcomes.len(), 6);
    }

    #[test]
    fn report_display_carries_the_seed() {
        let mut r = ChaosReport {
            seed: 7,
            launches: 1,
            ..ChaosReport::default()
        };
        assert!(r.to_string().contains("seed 7"));
        assert!(r.to_string().contains("PASS"));
        r.failures.push("launch 0: boom".into());
        let s = r.to_string();
        assert!(s.contains("FAIL"), "{s}");
        assert!(s.contains("--seed 7"), "{s}");
    }

    #[test]
    fn clean_service_soak_spreads_traffic_and_labels_outcomes() {
        let cfg = ChaosConfig {
            launches: 12,
            fault_rate: 0.0,
            shards: three_shards(),
            rounds: 3,
            ..ChaosConfig::default()
        };
        let report = cfg.run().unwrap();
        assert!(report.passed(), "{report}");
        assert_eq!(report.clean, 12);
        assert_eq!(report.outcomes.len(), 12);
        let shards: std::collections::BTreeSet<_> =
            report.outcomes.iter().map(|o| o.shard.clone()).collect();
        assert!(
            shards.len() >= 2,
            "seeded routing should hit several shards: {shards:?}"
        );
        let metrics = report.metrics.as_ref().expect("soak snapshots metrics");
        // Every soak launch plus the final per-shard liveness pass runs
        // through the one shared observer.
        assert_eq!(
            metrics.counters["launches_total"],
            (cfg.launches + cfg.shards.len()) as u64
        );
        let by_shard = &metrics.labeled["shard_launches_total"];
        assert_eq!(
            by_shard.values().sum::<u64>(),
            (cfg.launches + cfg.shards.len()) as u64
        );
        // Each configured shard served at least its liveness launch and
        // exposes a live per-shard queue-depth gauge.
        for key in &cfg.shards {
            let label = key.to_string();
            assert!(by_shard[&label] >= 1, "shard {label} served nothing");
            assert!(metrics.labeled_gauges["queue_depth"].contains_key(&label));
        }
    }

    #[test]
    fn faulty_service_soak_heals_shards_without_pausing_siblings() {
        let report = ChaosConfig {
            launches: 24,
            fault_rate: 0.5,
            shards: three_shards(),
            rounds: 4,
            timeout: Duration::from_millis(40),
            window: 6,
            ..ChaosConfig::default()
        }
        .run()
        .unwrap();
        assert!(report.passed(), "{report}");
        assert_eq!(report.outcomes.len(), 24);
        assert!(
            report.faulty > 0,
            "half the launches should carry fatal schedules: {report}"
        );
        // Fatal faults force abandon-and-replace somewhere, and the
        // invariant-4 pass already proved every shard still serves clean
        // bit-identical traffic afterwards.
        assert!(
            report.replacements > 0,
            "faulty launches must have replaced workers: {report}"
        );
    }
}
