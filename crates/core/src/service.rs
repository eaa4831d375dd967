//! Sharded barrier-as-a-service traffic plane: many grids, one front door.
//!
//! [`crate::GridRuntime`] pools workers for **one** grid shape; this module
//! is the layer the ROADMAP's north star asks for above it. A
//! [`GridService`] owns N runtime shards keyed by
//! [`ShardKey`]`{blocks, threads_per_block, method}`, routes every
//! submission to a matching shard (spinning shards up on first use and
//! retiring them after an idle TTL), and enforces **admission control**
//! in front of the launch log:
//!
//! * **Bounded per-shard submission queues** — at most
//!   [`ServiceConfig::queue_capacity`] launches admitted-but-unfinished
//!   per shard. [`GridService::submit`] refuses the overflow submission
//!   with [`ServiceError::QueueFull`] (backpressure the caller can see);
//!   [`GridService::submit_within`] instead blocks for admission up to a
//!   deadline, returning [`ServiceError::Deadline`] if the shard stays
//!   saturated.
//! * **Per-tenant in-flight quotas** — a tenant may hold at most
//!   [`ServiceConfig::tenant_quota`] admitted launches across *all*
//!   shards ([`ServiceError::QuotaExceeded`]), so one chatty client
//!   cannot monopolize the fleet.
//! * **Shard lifecycle** — at most [`ServiceConfig::max_shards`] live
//!   shards ([`ServiceError::ShardLimit`]); idle shards are retired only
//!   when fully **drained** (zero admitted launches *and* an empty
//!   runtime queue), because dropping a [`crate::GridRuntime`] silently
//!   abandons queued work — the drain-before-retire invariant the
//!   `service` integration tests pin.
//!
//! The service is a **routing and policy layer, not a fourth execution
//! path**: every launch still flows through the PR-5 launch engine
//! ([`crate::LaunchPlan`] → launch log → `drive_block`), and all shards
//! share one [`Observer`], with per-shard `queue_depth` gauges and
//! `shard_launches_total` counters keyed by the shard's label (see
//! [`ShardKey`]'s `Display`) so multi-shard snapshots never alias.
//!
//! ## Admission state machine
//!
//! ```text
//! submit(tenant, key, kernel)
//!   │ tenant in-flight == quota ──────────────► QuotaExceeded
//!   │ no shard for key & shards == max_shards ► ShardLimit
//!   │ shard in-flight == queue_capacity ──────► QueueFull
//!   ▼                                           (submit_within: wait,
//! admitted: tenant++, shard.in-flight++         then Deadline)
//!   ▼
//! runtime launch log ──► ServiceHandle::wait ──► release admission
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::error::ServiceError;
use crate::executor::{GridConfig, RoundKernel};
use crate::method::SyncMethod;
use crate::obs::Observer;
use crate::runtime::{GridRuntime, LaunchHandle};
use crate::stats::KernelStats;

/// The routing key of one service shard: a grid shape plus the barrier
/// method serving it. Two submissions with equal keys share a warm pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardKey {
    /// Thread blocks (= pinned pool workers) of the shard's grid.
    pub blocks: usize,
    /// Threads per block of the shard's grid.
    pub threads_per_block: usize,
    /// Barrier method the shard's pool runs. An `Auto` shard resolves it
    /// when it spins up, through the host tuner (the first one at a new
    /// block count measures the tuner's table under the service lock).
    pub method: SyncMethod,
}

impl ShardKey {
    /// Key for a `blocks` × `threads_per_block` grid under `method`.
    pub fn new(blocks: usize, threads_per_block: usize, method: SyncMethod) -> Self {
        ShardKey {
            blocks,
            threads_per_block,
            method,
        }
    }
}

impl std::fmt::Display for ShardKey {
    /// The shard's registry label, e.g. `4x8/gpu-lock-free` — also the
    /// `shard` label value on `queue_depth` and `shard_launches_total`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}x{}/{}",
            self.blocks, self.threads_per_block, self.method
        )
    }
}

/// Policy knobs of a [`GridService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Most shards live at once; a submission needing one more is refused
    /// with [`ServiceError::ShardLimit`].
    pub max_shards: usize,
    /// Bounded per-shard submission queue: most launches admitted but not
    /// yet finished on one shard. Overflow is [`ServiceError::QueueFull`].
    pub queue_capacity: usize,
    /// Most launches one tenant may hold in flight across all shards.
    pub tenant_quota: usize,
    /// How long a drained shard may sit idle before
    /// [`GridService::reap_idle`] retires it.
    pub idle_ttl: Duration,
    /// Grid template applied to every shard the service spins up: the
    /// key's `blocks`/`threads_per_block` replace the template's shape,
    /// everything else (policy, trace, spec) is inherited.
    pub template: GridConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_shards: 8,
            queue_capacity: 32,
            tenant_quota: 16,
            idle_ttl: Duration::from_millis(500),
            template: GridConfig::new(1, 1),
        }
    }
}

impl ServiceConfig {
    /// Override the shard limit.
    pub fn with_max_shards(mut self, n: usize) -> Self {
        self.max_shards = n;
        self
    }

    /// Override the per-shard bounded queue capacity.
    pub fn with_queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n;
        self
    }

    /// Override the per-tenant in-flight quota.
    pub fn with_tenant_quota(mut self, n: usize) -> Self {
        self.tenant_quota = n;
        self
    }

    /// Override the idle TTL after which drained shards are retired.
    pub fn with_idle_ttl(mut self, ttl: Duration) -> Self {
        self.idle_ttl = ttl;
        self
    }

    /// Override the grid template shards inherit policy/trace/spec from.
    pub fn with_template(mut self, template: GridConfig) -> Self {
        self.template = template;
        self
    }

    /// The concrete grid config a shard for `key` runs.
    fn grid_for(&self, key: ShardKey) -> GridConfig {
        let mut cfg = self.template.clone();
        cfg.n_blocks = key.blocks;
        cfg.threads_per_block = key.threads_per_block;
        cfg
    }
}

/// One live shard: a warm pool plus its admission bookkeeping.
struct Shard {
    key: ShardKey,
    label: String,
    runtime: GridRuntime,
    /// Launches admitted (counted against the bounded queue) and not yet
    /// released by their [`ServiceHandle`]. The admission increment
    /// happens under the service lock; the release decrement in
    /// `Ticket::drop`.
    inflight: AtomicUsize,
    /// Last admission or release, driving the idle TTL.
    last_used: Mutex<Instant>,
}

/// Lifecycle and quota state behind the service lock.
struct ServiceState {
    shards: HashMap<ShardKey, Arc<Shard>>,
    /// Tenant → launches currently admitted. Entries are removed at zero
    /// so the map stays bounded by live tenants.
    tenants: HashMap<String, usize>,
    /// `submit_within` callers asleep on `ServiceShared::cv` (written only
    /// under this lock): a release notifies only when there is one.
    blocked: usize,
    /// When a submit path last swept for idle shards (see
    /// `GridService::sweep_if_due`).
    last_sweep: Instant,
}

struct ServiceShared {
    cfg: ServiceConfig,
    obs: Arc<Observer>,
    state: Mutex<ServiceState>,
    /// Signaled on an admission release when a `submit_within` caller is
    /// blocked, so it re-checks capacity.
    cv: Condvar,
}

/// RAII admission slot: holds the tenant's and shard's in-flight counts
/// until the launch is settled (waited or dropped), then releases both
/// and wakes blocked submitters.
struct Ticket {
    svc: Arc<ServiceShared>,
    shard: Arc<Shard>,
    tenant: String,
}

impl Drop for Ticket {
    fn drop(&mut self) {
        let mut st = self.svc.state.lock();
        self.shard.inflight.fetch_sub(1, Ordering::AcqRel);
        if let Some(c) = st.tenants.get_mut(&self.tenant) {
            *c = c.saturating_sub(1);
            if *c == 0 {
                st.tenants.remove(&self.tenant);
            }
        }
        *self.shard.last_used.lock() = Instant::now();
        // A submitter decides to block and enters its wait without
        // releasing this lock, so zero here means nobody can miss the slot.
        let wake = st.blocked > 0;
        drop(st);
        if wake {
            self.svc.cv.notify_all();
        }
    }
}

/// A pending service launch: a pool [`LaunchHandle`] plus the admission
/// ticket it releases when settled. Dropping the handle unwaited still
/// releases admission (the launch itself drains on its shard).
#[must_use = "a ServiceHandle does nothing until waited"]
pub struct ServiceHandle {
    handle: LaunchHandle,
    shard_label: String,
    ticket: Ticket,
}

impl std::fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHandle")
            .field("shard", &self.shard_label)
            .field("seq", &self.handle.seq())
            .finish()
    }
}

impl ServiceHandle {
    /// The shard that admitted this launch (the registry's `shard` label).
    pub fn shard(&self) -> &str {
        &self.shard_label
    }

    /// The launch's sequence number on its shard's pool.
    pub fn seq(&self) -> u64 {
        self.handle.seq()
    }

    /// Block until the launch completes, release the admission slot, and
    /// return the launch's stats.
    ///
    /// # Errors
    /// [`ServiceError::Exec`] wrapping the launch's merged execution
    /// error (same contract as [`LaunchHandle::wait`]).
    pub fn wait(self) -> Result<KernelStats, ServiceError> {
        let res = self.handle.wait().map_err(ServiceError::Exec);
        drop(self.ticket);
        res
    }
}

/// The sharded traffic plane: routes submissions to per-shape
/// [`GridRuntime`] shards under admission control. See the module docs
/// for the policy surface. All methods take `&self`, so client threads
/// share one service behind an `Arc<GridService>`.
pub struct GridService {
    inner: Arc<ServiceShared>,
}

impl std::fmt::Debug for GridService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.state.lock();
        f.debug_struct("GridService")
            .field("shards", &st.shards.len())
            .field("tenants", &st.tenants.len())
            .field("max_shards", &self.inner.cfg.max_shards)
            .finish()
    }
}

impl GridService {
    /// A service with its own live [`Observer`] — every shard it spins up
    /// shares this registry, labeled by shard.
    pub fn new(cfg: ServiceConfig) -> GridService {
        let obs = Observer::new();
        obs.set_gauge("service_shards_live", 0);
        GridService {
            inner: Arc::new(ServiceShared {
                cfg,
                obs,
                state: Mutex::new(ServiceState {
                    shards: HashMap::new(),
                    tenants: HashMap::new(),
                    blocked: 0,
                    last_sweep: Instant::now(),
                }),
                cv: Condvar::new(),
            }),
        }
    }

    /// The shared observability handle all shards feed.
    pub fn observer(&self) -> Arc<Observer> {
        Arc::clone(&self.inner.obs)
    }

    /// The service's policy configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.cfg
    }

    /// Try to admit and enqueue `kernel` on the shard for `key`, without
    /// blocking. Sweeps expired idle shards first when that can matter
    /// (see `sweep_if_due`), so a saturated shard map can make room for a
    /// new shape.
    ///
    /// # Errors
    /// The admission rejections of the module docs
    /// ([`ServiceError::QuotaExceeded`] / [`ServiceError::ShardLimit`] /
    /// [`ServiceError::QueueFull`]), or [`ServiceError::Exec`] if the
    /// key's grid shape is invalid.
    pub fn submit(
        &self,
        tenant: &str,
        key: ShardKey,
        kernel: Arc<dyn RoundKernel + Send + Sync>,
    ) -> Result<ServiceHandle, ServiceError> {
        let shard = {
            let mut st = self.inner.state.lock();
            self.sweep_if_due(&mut st, key);
            self.admit(&mut st, tenant, key)?
        };
        self.enqueue(shard, tenant, kernel)
    }

    /// [`GridService::submit`], but block for admission for up to
    /// `deadline` when the queue or quota is full, waking on every
    /// release.
    ///
    /// # Errors
    /// [`ServiceError::Deadline`] if no admission slot opened within
    /// `deadline`; otherwise as [`GridService::submit`].
    pub fn submit_within(
        &self,
        tenant: &str,
        key: ShardKey,
        kernel: Arc<dyn RoundKernel + Send + Sync>,
        deadline: Duration,
    ) -> Result<ServiceHandle, ServiceError> {
        // One clock for the whole call: every deadline check and the
        // reported `waited` derive from this entry instant, so spurious
        // condvar wakeups (or the 5 ms wait slices) can neither restart
        // nor inflate the accounting.
        let start = Instant::now();
        let mut st = self.inner.state.lock();
        let shard = loop {
            self.sweep_if_due(&mut st, key);
            match self.admit(&mut st, tenant, key) {
                Err(e) if e.is_backpressure() => {
                    let remaining = deadline.saturating_sub(start.elapsed());
                    if remaining.is_zero() {
                        // Sampled once, at the moment of giving up: the
                        // total wall time spent in this call.
                        return Err(ServiceError::Deadline {
                            shard: key.to_string(),
                            waited: start.elapsed(),
                        });
                    }
                    // Park until a release and retry, still under the lock
                    // the rejection was decided under. The slice of the
                    // remaining deadline is for a shard-limit rejection,
                    // which clears when an idle TTL expires, not on a
                    // release.
                    st.blocked += 1;
                    let _ = self
                        .inner
                        .cv
                        .wait_for(&mut st, remaining.min(Duration::from_millis(5)));
                    st.blocked -= 1;
                }
                other => break other?,
            }
        };
        drop(st);
        self.enqueue(shard, tenant, kernel)
    }

    /// Sweep idle shards from a submit path only when it can change the
    /// outcome: the key needs a new shard and the map is full, or an
    /// `idle_ttl` has passed since the last sweep (no shard can have
    /// expired sooner). The sweep takes every pool's state lock.
    fn sweep_if_due(&self, st: &mut ServiceState, key: ShardKey) {
        let cfg = &self.inner.cfg;
        let needs_room = !st.shards.contains_key(&key) && st.shards.len() >= cfg.max_shards;
        if needs_room || st.last_sweep.elapsed() >= cfg.idle_ttl {
            self.reap(st);
        }
    }

    /// Admission control under the service lock: the shard for `key`
    /// (spun up on first use) with one queue slot and one unit of the
    /// tenant's quota reserved, or the rejection.
    fn admit(
        &self,
        st: &mut ServiceState,
        tenant: &str,
        key: ShardKey,
    ) -> Result<Arc<Shard>, ServiceError> {
        let used = st.tenants.get(tenant).copied().unwrap_or(0);
        if used >= self.inner.cfg.tenant_quota {
            self.reject("quota");
            return Err(ServiceError::QuotaExceeded {
                tenant: tenant.to_string(),
                quota: self.inner.cfg.tenant_quota,
            });
        }
        let shard = match st.shards.get(&key) {
            Some(s) => Arc::clone(s),
            None => {
                if st.shards.len() >= self.inner.cfg.max_shards {
                    self.reject("shard-limit");
                    return Err(ServiceError::ShardLimit {
                        limit: self.inner.cfg.max_shards,
                    });
                }
                let s = self.spin_up(key)?;
                st.shards.insert(key, Arc::clone(&s));
                self.inner
                    .obs
                    .inc_counter("service_shards_spun_up_total", 1);
                self.inner
                    .obs
                    .set_gauge("service_shards_live", st.shards.len() as u64);
                s
            }
        };
        if shard.inflight.load(Ordering::Acquire) >= self.inner.cfg.queue_capacity {
            self.reject("queue-full");
            return Err(ServiceError::QueueFull {
                shard: shard.label.clone(),
                capacity: self.inner.cfg.queue_capacity,
            });
        }
        // Admitted: reserve the slots before releasing the lock so
        // concurrent submitters see a consistent quota/queue state.
        shard.inflight.fetch_add(1, Ordering::AcqRel);
        *st.tenants.entry(tenant.to_string()).or_insert(0) += 1;
        *shard.last_used.lock() = Instant::now();
        Ok(shard)
    }

    /// Hand an admitted launch to its shard's launch log.
    fn enqueue(
        &self,
        shard: Arc<Shard>,
        tenant: &str,
        kernel: Arc<dyn RoundKernel + Send + Sync>,
    ) -> Result<ServiceHandle, ServiceError> {
        let ticket = Ticket {
            svc: Arc::clone(&self.inner),
            shard: Arc::clone(&shard),
            tenant: tenant.to_string(),
        };
        // The runtime's launch log is unbounded; the bounded queue is the
        // admission count above it, so this enqueue cannot itself refuse
        // for capacity. Dropping the ticket on error rolls admission back.
        let handle = shard.runtime.submit_dyn(kernel)?;
        Ok(ServiceHandle {
            handle,
            shard_label: shard.label.clone(),
            ticket,
        })
    }

    /// Count an admission rejection in the shared registry.
    fn reject(&self, reason: &str) {
        self.inner
            .obs
            .inc_labeled("service_rejections_total", reason, 1);
    }

    /// Build the pool behind a new shard, labeled for the registry.
    fn spin_up(&self, key: ShardKey) -> Result<Arc<Shard>, ServiceError> {
        let label = key.to_string();
        let runtime = GridRuntime::new_with_observer(
            self.inner.cfg.grid_for(key),
            key.method,
            Arc::clone(&self.inner.obs),
        )
        .map_err(ServiceError::Exec)?;
        runtime.set_shard_label(label.clone());
        Ok(Arc::new(Shard {
            key,
            label,
            runtime,
            inflight: AtomicUsize::new(0),
            last_used: Mutex::new(Instant::now()),
        }))
    }

    /// Retire every shard that is fully drained (zero admitted launches
    /// *and* an empty runtime queue) and idle past the TTL; returns how
    /// many were retired. Safe to call at any time — a shard with queued
    /// or in-flight work is never dropped, so retirement cannot lose a
    /// launch.
    pub fn reap_idle(&self) -> usize {
        self.reap(&mut self.inner.state.lock())
    }

    fn reap(&self, st: &mut ServiceState) -> usize {
        st.last_sweep = Instant::now();
        let ttl = self.inner.cfg.idle_ttl;
        let expired: Vec<ShardKey> = st
            .shards
            .values()
            .filter(|s| {
                s.inflight.load(Ordering::Acquire) == 0
                    && s.runtime.queue_depth() == 0
                    && s.last_used.lock().elapsed() >= ttl
            })
            .map(|s| s.key)
            .collect();
        for key in &expired {
            st.shards.remove(key);
            self.inner
                .obs
                .inc_counter("service_shards_retired_total", 1);
        }
        if !expired.is_empty() {
            self.inner
                .obs
                .set_gauge("service_shards_live", st.shards.len() as u64);
        }
        expired.len()
    }

    /// Number of live shards.
    pub fn shards_live(&self) -> usize {
        self.inner.state.lock().shards.len()
    }

    /// The routing keys of all live shards (unordered).
    pub fn shard_keys(&self) -> Vec<ShardKey> {
        self.inner.state.lock().shards.keys().copied().collect()
    }

    /// Launches a tenant currently holds admitted (0 if unknown).
    pub fn tenant_inflight(&self, tenant: &str) -> usize {
        self.inner
            .state
            .lock()
            .tenants
            .get(tenant)
            .copied()
            .unwrap_or(0)
    }

    /// Admitted-but-unfinished launches on the shard for `key` (the
    /// bounded-queue occupancy admission tests assert against).
    pub fn shard_inflight(&self, key: ShardKey) -> Option<usize> {
        self.inner
            .state
            .lock()
            .shards
            .get(&key)
            .map(|s| s.inflight.load(Ordering::Acquire))
    }

    /// Run `f` against the live shard runtime for `key`, if any — the
    /// chaos harness uses this to read generation counters and queue
    /// depths without the service exposing its shards.
    pub fn with_shard<R>(&self, key: ShardKey, f: impl FnOnce(&GridRuntime) -> R) -> Option<R> {
        let shard = self.inner.state.lock().shards.get(&key).map(Arc::clone);
        shard.map(|s| f(&s.runtime))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::BlockCtx;
    use crate::gmem::GlobalBuffer;

    struct CountKernel {
        slots: GlobalBuffer<u64>,
        rounds: usize,
    }

    impl RoundKernel for CountKernel {
        fn rounds(&self) -> usize {
            self.rounds
        }
        fn round(&self, ctx: &BlockCtx, _round: usize) {
            let b = ctx.block_id;
            self.slots.set(b, self.slots.get(b) + 1);
        }
    }

    fn count(blocks: usize, rounds: usize) -> Arc<dyn RoundKernel + Send + Sync> {
        Arc::new(CountKernel {
            slots: GlobalBuffer::new(blocks),
            rounds,
        })
    }

    #[test]
    fn routes_by_key_and_reuses_shards() {
        let svc = GridService::new(ServiceConfig::default());
        let a = ShardKey::new(2, 8, SyncMethod::GpuLockFree);
        let b = ShardKey::new(3, 8, SyncMethod::GpuSimple);
        for _ in 0..2 {
            svc.submit("t", a, count(2, 5)).unwrap().wait().unwrap();
            svc.submit("t", b, count(3, 5)).unwrap().wait().unwrap();
        }
        assert_eq!(svc.shards_live(), 2);
        // Each shard's pool served both of its launches (warm reuse).
        assert_eq!(svc.with_shard(a, |rt| rt.launches()), Some(2));
        assert_eq!(svc.with_shard(b, |rt| rt.launches()), Some(2));
        let snap = svc.observer().snapshot();
        assert_eq!(snap.counters["service_shards_spun_up_total"], 2);
        assert_eq!(snap.gauges["service_shards_live"], 2);
        assert_eq!(snap.labeled["shard_launches_total"][&a.to_string()], 2);
        assert_eq!(snap.labeled["shard_launches_total"][&b.to_string()], 2);
        // Per-shard queue_depth gauges exist independently.
        assert!(snap.labeled_gauges["queue_depth"].contains_key(&a.to_string()));
        assert!(snap.labeled_gauges["queue_depth"].contains_key(&b.to_string()));
    }

    #[test]
    fn cpu_explicit_and_auto_shards_serve_correct_results() {
        let svc = GridService::new(ServiceConfig::default());
        for (method, label) in [(SyncMethod::CpuExplicit, ""), (SyncMethod::Auto, "auto:")] {
            let key = ShardKey::new(2, 8, method);
            let k = Arc::new(CountKernel {
                slots: GlobalBuffer::new(2),
                rounds: 3,
            });
            let h = svc.submit("t", key, Arc::clone(&k) as _).unwrap();
            let stats = h.wait().unwrap();
            assert_eq!(k.slots.to_vec(), vec![3, 3], "{method}");
            let resolved = svc.with_shard(key, GridRuntime::method).unwrap();
            assert_eq!(stats.method, format!("{label}{resolved}"));
        }
    }

    #[test]
    fn shard_limit_is_enforced() {
        let svc = GridService::new(ServiceConfig::default().with_max_shards(1));
        let a = ShardKey::new(2, 8, SyncMethod::GpuLockFree);
        let b = ShardKey::new(3, 8, SyncMethod::GpuLockFree);
        svc.submit("t", a, count(2, 3)).unwrap().wait().unwrap();
        let err = svc.submit("t", b, count(3, 3)).unwrap_err();
        assert!(
            matches!(err, ServiceError::ShardLimit { limit: 1 }),
            "{err}"
        );
        let snap = svc.observer().snapshot();
        assert_eq!(snap.labeled["service_rejections_total"]["shard-limit"], 1);
    }

    #[test]
    fn idle_shards_are_reaped_after_ttl() {
        let svc = GridService::new(ServiceConfig::default().with_idle_ttl(Duration::ZERO));
        let key = ShardKey::new(2, 8, SyncMethod::GpuLockFree);
        svc.submit("t", key, count(2, 3)).unwrap().wait().unwrap();
        assert_eq!(svc.shards_live(), 1);
        assert_eq!(svc.reap_idle(), 1);
        assert_eq!(svc.shards_live(), 0);
        let snap = svc.observer().snapshot();
        assert_eq!(snap.counters["service_shards_retired_total"], 1);
        assert_eq!(snap.gauges["service_shards_live"], 0);
        // The shape comes straight back on the next submission.
        svc.submit("t", key, count(2, 3)).unwrap().wait().unwrap();
        assert_eq!(svc.shards_live(), 1);
    }

    #[test]
    fn deadline_submit_reports_waited_time() {
        // Tenant quota of zero can never be satisfied: the blocking
        // variant must give up with Deadline, not spin forever.
        let svc = GridService::new(ServiceConfig::default().with_tenant_quota(0));
        let key = ShardKey::new(2, 8, SyncMethod::GpuLockFree);
        let err = svc
            .submit_within("t", key, count(2, 3), Duration::from_millis(20))
            .unwrap_err();
        match err {
            ServiceError::Deadline { waited, .. } => {
                assert!(waited >= Duration::from_millis(20));
            }
            other => panic!("expected Deadline, got {other}"),
        }
    }

    #[test]
    fn deadline_accounting_spans_every_wake() {
        // A 27 ms deadline forces several 5 ms wait slices (each wake is a
        // fresh pass through the loop). The reported wait must be the
        // total time since entry — a clock restarted per condvar wake
        // would report under 5 ms, an accumulation bug could report far
        // more than the wall time actually spent.
        let svc = GridService::new(ServiceConfig::default().with_tenant_quota(0));
        let key = ShardKey::new(2, 8, SyncMethod::GpuLockFree);
        let deadline = Duration::from_millis(27);
        let entry = Instant::now();
        let err = svc
            .submit_within("t", key, count(2, 3), deadline)
            .unwrap_err();
        let wall = entry.elapsed();
        match err {
            ServiceError::Deadline { waited, .. } => {
                assert!(waited >= deadline, "under-reported: {waited:?}");
                assert!(waited <= wall, "over-reported: {waited:?} > wall {wall:?}");
            }
            other => panic!("expected Deadline, got {other}"),
        }
    }
}
