//! Sharded barrier-as-a-service traffic plane: many grids, one device,
//! one front door.
//!
//! [`crate::GridRuntime`] is one grid on the process's one device; this
//! module is the layer the ROADMAP's north star asks for above it. A
//! [`GridService`] serves many grids on that device of W =
//! `max(2, cores)` workers, keyed by
//! [`ShardKey`]`{blocks, threads_per_block, method}`. A *shard* is a key,
//! its compiled plan, a queue bound and a quota — not a thread set: every
//! shard's launches go through the device's one launch log, each on the
//! shard's window of `min(blocks, W)` of its workers (the runtime's
//! placement, DESIGN.md §10), as a GPU runs many grids on one set of SMs.
//! The service enforces **admission control** in front of the launch log:
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
//!   cannot monopolize the device.
//! * **Bounded keys** — at most [`ServiceConfig::max_shards`] distinct
//!   keys ([`ServiceError::ShardLimit`]): keys come from outside the
//!   program. A shard is never retired, so this refusal is final, not
//!   backpressure, and `submit_within` returns it at once.
//!
//! The service is a **routing and policy layer, not a fourth execution
//! path**: every launch still flows through the launch engine
//! ([`crate::LaunchPlan`] → launch log → `drive_block`), and all shards
//! share one [`Observer`], with per-shard `queue_depth` gauges and
//! `shard_launches_total` counters keyed by the shard's label (see
//! [`ShardKey`]'s `Display`) so multi-shard snapshots never alias.
//!
//! ## Admission state machine
//!
//! ```text
//! submit(tenant, key, kernel)
//!   │ tenant in-flight == quota ──────────────► QuotaExceeded ┐ backpressure
//!   │ new key & keys == max_shards ───────────► ShardLimit    │ (final)
//!   │ shard in-flight == queue_capacity ──────► QueueFull     ┘ backpressure
//!   ▼                                    (submit_within: wait for a release,
//! admitted: tenant++, shard.in-flight++   then Deadline)
//!   ▼
//! device launch log ──► ServiceHandle::wait ──► release admission
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::error::ServiceError;
use crate::executor::{GridConfig, RoundKernel};
use crate::launch::LaunchPlan;
use crate::method::SyncMethod;
use crate::obs::Observer;
use crate::runtime::{Device, GridRuntime, LaunchHandle};
use crate::stats::KernelStats;

/// The routing key of one service shard: a grid shape plus the barrier
/// method serving it. Two submissions with equal keys share a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardKey {
    /// Thread blocks of the shard's grid. A launch runs them on
    /// `min(blocks, max(2, cores))` of the service's device workers,
    /// folded past that (DESIGN.md §10).
    pub blocks: usize,
    /// Threads per block of the shard's grid.
    pub threads_per_block: usize,
    /// Barrier method the shard's launches run. An `Auto` shard resolves
    /// it on its first submission, through the host tuner (the first one
    /// at a new block count measures the tuner's table under the service
    /// lock).
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
    /// Most distinct keys the service serves; a submission for one more is
    /// refused with [`ServiceError::ShardLimit`], for good: shards are
    /// never retired.
    pub max_shards: usize,
    /// Bounded per-shard submission queue: most launches admitted but not
    /// yet finished on one shard. Overflow is [`ServiceError::QueueFull`].
    pub queue_capacity: usize,
    /// Most launches one tenant may hold in flight across all shards.
    pub tenant_quota: usize,
    /// Grid template applied to every shard the service serves: the key's
    /// `blocks`/`threads_per_block` replace the template's shape,
    /// everything else (policy, trace, spec) is inherited.
    pub template: GridConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_shards: 8,
            queue_capacity: 32,
            tenant_quota: 16,
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

    // Shim for the frozen benchmark only: shards are never retired, so
    // there is no idle TTL to set. Callers: perf/src/workloads.rs:478 and
    // perf/src/ladder.rs:209; the next `benchmark` PR drops those calls
    // and deletes this.
    #[doc(hidden)]
    pub fn with_idle_ttl(self, _ttl: Duration) -> Self {
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

/// One shard: its grid on the service's device plus its admission
/// bookkeeping.
struct Shard {
    label: String,
    runtime: GridRuntime,
    /// Launches admitted (counted against the bounded queue) and not yet
    /// released by their [`ServiceHandle`]. The admission increment
    /// happens under the service lock; the release decrement in
    /// `Ticket::drop`.
    inflight: AtomicUsize,
}

/// Shard and quota state behind the service lock.
struct ServiceState {
    shards: HashMap<ShardKey, Arc<Shard>>,
    /// Tenant → launches currently admitted. Entries are removed at zero
    /// so the map stays bounded by live tenants.
    tenants: HashMap<String, usize>,
    /// `submit_within` callers asleep on `ServiceShared::cv` (written only
    /// under this lock): a release notifies only when there is one.
    blocked: usize,
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
        // A submitter decides to block and enters its wait without
        // releasing this lock, so zero here means nobody can miss the slot.
        let wake = st.blocked > 0;
        drop(st);
        if wake {
            self.svc.cv.notify_all();
        }
    }
}

/// A pending service launch: a [`LaunchHandle`] plus the admission
/// ticket it releases when settled. Dropping the handle unwaited still
/// releases admission (the launch itself drains on the device).
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

    /// The launch's sequence number on the service's device, unique
    /// across shards.
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

/// The sharded traffic plane: routes submissions to per-shape grids on
/// one device, under admission control. See the module docs for the
/// policy surface. All methods take `&self`, so client threads share one
/// service behind an `Arc<GridService>`.
pub struct GridService {
    inner: Arc<ServiceShared>,
}

impl std::fmt::Debug for GridService {
    /// Also the process device's occupancy, a diagnostic: its width W and
    /// how many of its workers are parked — all W, one yield bound after
    /// the process's last launch, whatever the number of shards.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.state.lock();
        let device = Device::for_host();
        f.debug_struct("GridService")
            .field("shards", &st.shards.len())
            .field("tenants", &st.tenants.len())
            .field("max_shards", &self.inner.cfg.max_shards)
            .field("workers", &device.workers)
            .field("parked_workers", &device.parked())
            .finish()
    }
}

impl GridService {
    /// A service with its own live [`Observer`] — every shard it serves
    /// shares this registry, labeled by shard — on the process device.
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
    /// blocking.
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
        let shard = self.admit(&mut self.inner.state.lock(), tenant, key)?;
        self.enqueue(shard, tenant, kernel)
    }

    /// [`GridService::submit`], but block for admission for up to
    /// `deadline` when the queue or quota is full, waking on every
    /// release.
    ///
    /// # Errors
    /// [`ServiceError::Deadline`] if no admission slot opened within
    /// `deadline`; otherwise as [`GridService::submit`], whose final
    /// refusals ([`ServiceError::ShardLimit`], an invalid shape) return at
    /// once.
    pub fn submit_within(
        &self,
        tenant: &str,
        key: ShardKey,
        kernel: Arc<dyn RoundKernel + Send + Sync>,
        deadline: Duration,
    ) -> Result<ServiceHandle, ServiceError> {
        // One clock for the whole call: every deadline check and the
        // reported `waited` derive from this entry instant, so spurious
        // condvar wakeups can neither restart nor inflate the accounting.
        let start = Instant::now();
        let mut st = self.inner.state.lock();
        let shard = loop {
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
                    // the rejection was decided under.
                    st.blocked += 1;
                    let _ = self.inner.cv.wait_for(&mut st, remaining);
                    st.blocked -= 1;
                }
                other => break other?,
            }
        };
        drop(st);
        self.enqueue(shard, tenant, kernel)
    }

    /// Admission control under the service lock: the shard for `key`
    /// (set up on its first submission) with one queue slot and one unit
    /// of the tenant's quota reserved, or the rejection.
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
                let s = self.shard_for(key)?;
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
        Ok(shard)
    }

    /// Hand an admitted launch to the device's launch log.
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
        // The launch log is unbounded; the bounded queue is the admission
        // count above it, so this enqueue cannot itself refuse for
        // capacity. Dropping the ticket on error rolls admission back.
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

    /// Compile the plan behind a new shard: a grid on the service's
    /// device, labeled for the registry.
    fn shard_for(&self, key: ShardKey) -> Result<Arc<Shard>, ServiceError> {
        let label = key.to_string();
        let mut plan = LaunchPlan::compile(self.inner.cfg.grid_for(key), key.method)?;
        plan.obs = Arc::clone(&self.inner.obs);
        Ok(Arc::new(Shard {
            runtime: GridRuntime::on_device(plan, Device::for_host(), Some(label.clone())),
            label,
            inflight: AtomicUsize::new(0),
        }))
    }

    /// Number of shards (distinct keys served so far).
    pub fn shards_live(&self) -> usize {
        self.inner.state.lock().shards.len()
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

    /// Run `f` against the shard runtime for `key`, if any.
    #[cfg(test)]
    pub(crate) fn with_shard<R>(
        &self,
        key: ShardKey,
        f: impl FnOnce(&GridRuntime) -> R,
    ) -> Option<R> {
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
        let mut pools = Vec::new();
        for _ in 0..2 {
            for (key, n) in [(a, 2), (b, 3)] {
                let stats = svc.submit("t", key, count(n, 5)).unwrap().wait();
                pools.push(*stats.unwrap().pool.unwrap());
            }
        }
        assert_eq!(svc.shards_live(), 2);
        // Each shard's grid served both of its launches...
        assert_eq!(svc.with_shard(a, |rt| rt.launches()), Some(2));
        assert_eq!(svc.with_shard(b, |rt| rt.launches()), Some(2));
        // ...on one device: one log, in submission order, and no launch
        // was cold but the process's first — a shard's first is warm.
        assert!(pools.windows(2).all(|w| w[0].launch_seq < w[1].launch_seq));
        assert!(pools.iter().all(|p| p.cold == (p.launch_seq == 0)));
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

    /// A full key map never clears, so waiting cannot help: the blocking
    /// submit refuses a new key at once instead of sleeping out its
    /// deadline.
    #[test]
    fn shard_limit_is_final_for_submit_within() {
        let svc = GridService::new(ServiceConfig::default().with_max_shards(1));
        let a = ShardKey::new(2, 8, SyncMethod::GpuLockFree);
        let b = ShardKey::new(3, 8, SyncMethod::GpuLockFree);
        svc.submit("t", a, count(2, 3)).unwrap().wait().unwrap();
        let deadline = Duration::from_secs(2);
        let t0 = Instant::now();
        let err = svc
            .submit_within("t", b, count(3, 3), deadline)
            .unwrap_err();
        assert!(
            matches!(err, ServiceError::ShardLimit { limit: 1 }),
            "{err}"
        );
        assert!(!err.is_backpressure());
        assert!(t0.elapsed() < deadline / 4, "took {:?}", t0.elapsed());
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
        // Every wake — the deadline's, or a spurious one — is a fresh
        // pass through the loop. The reported wait must be the total time
        // since entry: a clock restarted per condvar wake could report
        // less than the deadline, an accumulation bug far more than the
        // wall time actually spent.
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
