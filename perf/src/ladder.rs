//! The isolation rungs: each layer measured alone, bottom up, so that a
//! change in an end-to-end metric can be walked down to the rung that moved.
//! Every traced run climbs the whole ladder, whatever its workload, because
//! the rungs do not depend on one.
//!
//! | rung | what runs | what it leaves out |
//! |---|---|---|
//! | `barrier.*` | `build_barrier_with` + `BarrierWaiter::wait` on benchmark-owned pinned threads | kernel, `drive_block`, launch |
//! | `launch.*` | `LaunchPlan::run` with an empty kernel; `MeanKernel` per method | pool, queue |
//! | `runtime.*` | warm `GridRuntime` `run` / `submit` → `wait`, and a cold pool | service |
//! | `service.*` | the same launches through `GridService` | — |
//! | `algos.*` | the four kernels: lock-free, CPU-implicit, sequential | — |
//! | `model.*`, `autotune.*` | the auto-tuner's table against the `launch.*` rows | — |

use std::sync::Arc;
use std::time::{Duration, Instant};

use blocksync_core::{
    AutoTuner, BlockCtx, GridConfig, GridRuntime, GridService, KernelStats, LaunchPlan,
    RoundKernel, ServiceConfig, ShardKey, SyncMethod, SyncPolicy, TreeLevels,
};
use blocksync_microbench::MeanKernel;

use crate::pin::{cores, pin_current, Pinned};
use crate::stat::median;
use crate::workloads::{Algo, AlgoInputs, Exec, LOCK_FREE, SHORT_ROUNDS, TPB, TREE_2};

/// The barrier-backed device-side methods every per-method rung covers.
pub const METHODS: [SyncMethod; 6] = [
    SyncMethod::GpuSimple,
    TREE_2,
    SyncMethod::GpuTree(TreeLevels::Three),
    LOCK_FREE,
    SyncMethod::SenseReversing,
    SyncMethod::Dissemination,
];

fn noop(_: &BlockCtx, _: usize) {}

type EmptyKernel = Pinned<(usize, fn(&BlockCtx, usize))>;

/// A kernel of `rounds` empty rounds.
fn empty(rounds: usize) -> EmptyKernel {
    Pinned((rounds, noop))
}

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// ns per round of `rounds` bare barrier waits among `n` pinned threads:
/// no kernel, no `drive_block`.
fn bare_barrier_ns(method: SyncMethod, n: usize, policy: SyncPolicy, rounds: usize) -> f64 {
    let shared = method
        .build_barrier_with(n, policy)
        .expect("a barrier-backed method");
    let gate = std::sync::Barrier::new(n);
    let slowest = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..n)
            .map(|b| {
                let mut waiter = Arc::clone(&shared).waiter(b);
                let gate = &gate;
                scope.spawn(move || {
                    pin_current(b);
                    gate.wait();
                    let start = Instant::now();
                    for _ in 0..rounds {
                        waiter.wait().expect("a clean barrier does not fault");
                    }
                    start.elapsed()
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("barrier thread panicked"))
            .max()
            .unwrap_or_default()
    });
    slowest.as_nanos() as f64 / rounds as f64
}

/// `MeanKernel` under one method on a warm pool (or plan).
struct MicroCell {
    method: SyncMethod,
    exec: Exec,
    rounds: usize,
}

/// What one `MicroCell` launch measured, per round.
#[derive(Clone, Copy)]
struct PerRound {
    wall_ns: f64,
    sync_ns: f64,
}

impl MicroCell {
    fn new(method: SyncMethod, n: usize, policy: SyncPolicy) -> MicroCell {
        let rounds = match (method, policy.parks()) {
            (SyncMethod::CpuExplicit, _) => 150,
            (SyncMethod::CpuImplicit, _) | (_, true) => 1_000,
            _ => 20_000,
        };
        let exec = Exec::new(GridConfig::new(n, TPB).with_policy(policy), method);
        exec.run(&empty(1)).expect("cold launch");
        MicroCell {
            method,
            exec,
            rounds,
        }
    }

    fn measure(&self, n: usize, failed: &mut usize) -> PerRound {
        let kernel = Pinned(MeanKernel::for_grid(n, TPB, self.rounds));
        let Some(obs) = self.exec.run(&kernel).filter(|_| kernel.0.verify()) else {
            *failed += 1;
            return PerRound {
                wall_ns: 0.0,
                sync_ns: 0.0,
            };
        };
        PerRound {
            wall_ns: obs.stats.wall.as_nanos() as f64 / self.rounds as f64,
            sync_ns: obs.stats.avg_sync().as_nanos() as f64 / self.rounds as f64,
        }
    }
}

/// The cells of one grid shape: the named methods plus, when it is none of
/// them, the method the auto-tuner picks for that shape.
struct Shape {
    n: usize,
    cells: Vec<MicroCell>,
    chosen: SyncMethod,
}

impl Shape {
    fn new(n: usize, policy: SyncPolicy, named: &[SyncMethod], chosen: SyncMethod) -> Shape {
        let mut methods = named.to_vec();
        if !methods.contains(&chosen) {
            methods.push(chosen);
        }
        Shape {
            n,
            cells: methods
                .into_iter()
                .map(|m| MicroCell::new(m, n, policy))
                .collect(),
            chosen,
        }
    }

    /// Measure every cell; also the regret of the auto-tuner's choice:
    /// its ns per round over the best cell's (1.0 = it picked the best).
    fn measure(&self, failed: &mut usize) -> (Vec<(SyncMethod, PerRound)>, f64) {
        let rows: Vec<(SyncMethod, PerRound)> = self
            .cells
            .iter()
            .map(|c| (c.method, c.measure(self.n, failed)))
            .collect();
        let walls = rows.iter().map(|r| r.1.wall_ns);
        let best = walls.fold(f64::INFINITY, f64::min);
        let chosen = rows.iter().find(|r| r.0 == self.chosen);
        let regret = chosen.map_or(0.0, |r| r.1.wall_ns / best);
        (rows, regret)
    }
}

pub struct Ladder {
    n: usize,
    spin: Shape,
    park: Shape,
    /// `predicted_sync_ns` per method at `n` blocks.
    predicted: Vec<(SyncMethod, f64)>,
    lock_free_plan: LaunchPlan,
    no_sync_plan: LaunchPlan,
    short_cfg: GridConfig,
    short_pool: GridRuntime,
    short_key: ShardKey,
    svc: GridService,
    inputs: AlgoInputs,
    algo_lock_free: Exec,
    algo_implicit: Exec,
    pub failed: usize,
    pub attempted: usize,
}

impl Ladder {
    /// Run the auto-tuner's once-per-process host calibration now, while
    /// the process is still quiet: taken right after a workload's pools
    /// shut down it has read several times too slow.
    pub fn calibrate() {
        AutoTuner::host();
    }

    pub fn new(seed: u64) -> Ladder {
        let n = cores();
        let tuner = AutoTuner::host();
        // The host keeps at most one spinning block per core.
        let at_cores = tuner.decide(n, n);
        let oversubscribed = tuner.decide(4 * n, n);
        let mut named = METHODS.to_vec();
        named.extend([SyncMethod::CpuImplicit, SyncMethod::CpuExplicit]);
        let short_cfg = GridConfig::new(n, TPB);
        let short_key = ShardKey::new(n, TPB, LOCK_FREE);
        let svc = GridService::new(
            ServiceConfig::default()
                .with_max_shards(1)
                .with_idle_ttl(Duration::from_secs(3600)),
        );
        let short_pool = GridRuntime::new(short_cfg.clone(), LOCK_FREE).expect("valid pool shape");
        short_pool.run(&empty(1)).expect("cold launch");
        svc.submit(
            "setup",
            short_key,
            Arc::new(empty(1)) as Arc<dyn RoundKernel + Send + Sync>,
        )
        .and_then(|h| h.wait())
        .expect("cold launch");
        Ladder {
            n,
            spin: Shape::new(n, SyncPolicy::default(), &named, at_cores.chosen),
            park: Shape::new(
                4 * n,
                SyncPolicy::default().with_park(),
                &METHODS,
                oversubscribed.chosen,
            ),
            predicted: at_cores
                .table
                .iter()
                .map(|p| (p.method, p.predicted_sync_ns))
                .collect(),
            lock_free_plan: LaunchPlan::compile(short_cfg.clone(), LOCK_FREE).expect("valid plan"),
            no_sync_plan: LaunchPlan::compile(short_cfg.clone(), SyncMethod::NoSync)
                .expect("valid plan"),
            short_cfg,
            short_pool,
            short_key,
            svc,
            inputs: AlgoInputs::new(seed),
            algo_lock_free: Exec::new(GridConfig::new(n, TPB), LOCK_FREE),
            algo_implicit: Exec::new(GridConfig::new(n, TPB), SyncMethod::CpuImplicit),
            failed: 0,
            attempted: 0,
        }
    }

    /// Count a failed rung measurement; it reports 0.
    fn tally(&mut self, measured: Option<f64>) -> f64 {
        self.failed += usize::from(measured.is_none());
        measured.unwrap_or(0.0)
    }

    /// Climb every rung once.
    pub fn pass(&mut self) -> Vec<(String, f64)> {
        let mut out = Vec::with_capacity(96);
        self.barrier_rungs(&mut out);
        self.launch_rungs(&mut out);
        self.runtime_and_service_rungs(&mut out);
        self.algo_rungs(&mut out);
        out
    }

    fn barrier_rungs(&mut self, out: &mut Vec<(String, f64)>) {
        let n = self.n;
        let park = SyncPolicy::default().with_park();
        for m in METHODS {
            let spin = bare_barrier_ns(m, n, SyncPolicy::default(), 20_000);
            out.push((format!("barrier.{m}.spin_ns"), spin));
            let parked = bare_barrier_ns(m, 4 * n, park, 1_000);
            out.push((format!("barrier.{m}.park_ns"), parked));
        }
        let implicit = bare_barrier_ns(SyncMethod::CpuImplicit, n, SyncPolicy::default(), 2_000);
        out.push(("barrier.cpu-implicit.spin_ns".into(), implicit));
    }

    fn launch_rungs(&mut self, out: &mut Vec<(String, f64)>) {
        let bare_lock_free = out
            .iter()
            .find(|(name, _)| name == "barrier.gpu-lock-free.spin_ns")
            .map_or(0.0, |r| r.1);
        // In-round time per round of an empty kernel: what `drive_block`
        // adds around the barrier (clock reads, `catch_unwind`, `dyn`
        // calls), then the same with no barrier at all.
        self.attempted += 2;
        let with_barrier = self.tally(in_round_ns(&self.lock_free_plan, 20_000));
        out.push(("launch.round_tax_ns".into(), with_barrier - bare_lock_free));
        let no_sync = self.tally(in_round_ns(&self.no_sync_plan, 200_000));
        out.push(("launch.nosync_round_ns".into(), no_sync));
        let scoped: Vec<f64> = (0..20)
            .map(|_| {
                let start = Instant::now();
                let _ = self.lock_free_plan.run(&empty(1));
                us(start.elapsed())
            })
            .collect();
        out.push(("launch.scoped_us".into(), median(&scoped)));

        self.attempted += self.spin.cells.len() + self.park.cells.len();
        let (spin, regret) = self.spin.measure(&mut self.failed);
        let (park, regret_park) = self.park.measure(&mut self.failed);
        for (m, r) in &spin {
            // The tuner's own pick, when unnamed, only feeds the regret.
            if METHODS.contains(m) || m.is_cpu_side() {
                out.push((format!("launch.round_ns.{m}"), r.wall_ns));
            }
        }
        for (m, r) in park.iter().filter(|(m, _)| METHODS.contains(m)) {
            out.push((format!("launch.park_round_ns.{m}"), r.wall_ns));
        }
        for m in METHODS {
            let measured = spin.iter().find(|r| r.0 == m).map_or(0.0, |r| r.1.sync_ns);
            let predicted = self
                .predicted
                .iter()
                .find(|p| p.0 == m)
                .map_or(0.0, |p| p.1);
            let residual = 100.0 * (predicted - measured).abs() / measured;
            out.push((format!("model.residual_pct.{m}"), residual));
        }
        out.push(("autotune.regret".into(), regret));
        out.push(("autotune.regret_park".into(), regret_park));
    }

    fn runtime_and_service_rungs(&mut self, out: &mut Vec<(String, f64)>) {
        let empties: Vec<f64> = (0..200)
            .map(|_| {
                let start = Instant::now();
                let _ = self.short_pool.run(&empty(1));
                us(start.elapsed())
            })
            .collect();
        out.push(("runtime.run_empty_us".into(), median(&empties)));

        let cold: Vec<f64> = (0..3)
            .map(|_| {
                let start = Instant::now();
                let pool = GridRuntime::new(self.short_cfg.clone(), LOCK_FREE);
                let _ = pool.map(|p| p.run(&empty(1)));
                us(start.elapsed())
            })
            .collect();
        out.push(("runtime.cold_us".into(), median(&cold)));

        // The `serve_short` launch straight through the runtime and through
        // the service, turn and turn about.
        let (mut direct, mut served) = (Calls::default(), Calls::default());
        let kernel = || Arc::new(Pinned(MeanKernel::for_grid(self.n, TPB, SHORT_ROUNDS)));
        let deadline = Duration::from_secs(10);
        for i in 0..300 {
            let mut through_runtime = || {
                let k = kernel();
                direct.launch(&k, || self.short_pool.submit(Arc::clone(&k)), |h| h.wait());
            };
            let mut through_service = || {
                let k = kernel();
                let erased = Arc::clone(&k) as Arc<dyn RoundKernel + Send + Sync>;
                let key = self.short_key;
                served.launch(
                    &k,
                    || self.svc.submit_within("ladder", key, erased, deadline),
                    |h| h.wait(),
                );
            };
            // Whichever goes second finds the caller's thread warm, so the
            // two take turns going first.
            if i % 2 == 0 {
                through_runtime();
                through_service();
            } else {
                through_service();
                through_runtime();
            }
        }
        self.attempted += 600;
        self.failed += direct.failed + served.failed;
        out.push(("runtime.submit_us".into(), median(&direct.submit_us)));
        out.push(("runtime.wait_us".into(), median(&direct.wait_us)));
        out.push(("runtime.t_o_us".into(), median(&direct.t_o_us)));
        out.push(("service.submit_us".into(), median(&served.submit_us)));
        out.push(("service.wait_us".into(), median(&served.wait_us)));
        out.push((
            "service.tax_us".into(),
            median(&served.total_us) - median(&direct.total_us),
        ));
    }

    fn algo_rungs(&mut self, out: &mut Vec<(String, f64)>) {
        for algo in Algo::ALL {
            let a = algo.name();
            self.attempted += 2;
            // A fresh kernel per launch, verified against the reference.
            let launch = |exec: &Exec| {
                let kernel = self.inputs.kernel(algo, self.n);
                let obs = kernel.run_on(exec);
                obs.filter(|_| self.inputs.verify(&kernel))
            };
            match launch(&self.algo_lock_free) {
                Some(obs) => {
                    let s = &obs.stats;
                    out.push((format!("algos.{a}.kernel_us"), us(s.wall)));
                    out.push((format!("algos.{a}.t_c_us"), us(s.avg_compute())));
                    out.push((format!("algos.{a}.t_s_us"), us(s.avg_sync())));
                    out.push((format!("algos.{a}.sync_fraction"), s.sync_fraction()));
                    out.push((format!("algos.{a}.rounds"), s.rounds as f64));
                }
                None => self.failed += 1,
            }
            match launch(&self.algo_implicit) {
                Some(obs) => out.push((format!("algos.{a}.cpu-implicit_us"), us(obs.stats.wall))),
                None => self.failed += 1,
            }
            out.push((
                format!("algos.{a}.seq_us"),
                us(self.inputs.sequential(algo)),
            ));
        }
    }
}

/// In-round ns per round of an empty kernel through `plan`.
fn in_round_ns(plan: &LaunchPlan, rounds: usize) -> Option<f64> {
    let s = plan.run(&empty(rounds)).ok()?;
    Some(s.wall.saturating_sub(s.launch).as_nanos() as f64 / rounds as f64)
}

/// Call durations of one arm of the runtime-vs-service rung, in µs.
#[derive(Default)]
struct Calls {
    submit_us: Vec<f64>,
    wait_us: Vec<f64>,
    total_us: Vec<f64>,
    t_o_us: Vec<f64>,
    failed: usize,
}

impl Calls {
    /// Time one submit → wait pair; a launch that errors or computes a
    /// wrong result counts as failed and leaves no sample.
    fn launch<H, E>(
        &mut self,
        kernel: &Pinned<MeanKernel>,
        submit: impl FnOnce() -> Result<H, E>,
        wait: impl FnOnce(H) -> Result<KernelStats, E>,
    ) {
        let start = Instant::now();
        let handle = submit();
        let submitted = Instant::now();
        let stats = handle.and_then(wait);
        let end = Instant::now();
        match stats.ok().filter(|_| kernel.0.verify()) {
            Some(stats) => {
                self.submit_us.push(us(submitted - start));
                self.wait_us.push(us(end - submitted));
                self.total_us.push(us(end - start));
                self.t_o_us.push(us(stats.launch));
            }
            None => self.failed += 1,
        }
    }
}
