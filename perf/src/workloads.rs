//! The five workloads. Each one stresses a different rung of the
//! barrier → launch → runtime → service ladder (the README has the table);
//! `cores` below is `std::thread::available_parallelism()`.
//!
//! A slice is one fixed batch of launches: kernels are built before the
//! clock starts and verified after it stops, so the timed region holds
//! nothing but calls into the program. Both serve workloads are closed
//! loops: a client submits its next launch only after an earlier one
//! completed.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use blocksync_algos::bitonic::{bitonic_sort, GridBitonic};
use blocksync_algos::fft::kernel::Direction;
use blocksync_algos::fft::reference::max_error;
use blocksync_algos::fft::{fft_inplace, GridFft};
use blocksync_algos::scan::{inclusive_scan_reference, GridScan};
use blocksync_algos::seqgen::{complex_signal, dna_sequence, random_keys, SplitMix64};
use blocksync_algos::swat::reference::SwScore;
use blocksync_algos::swat::{smith_waterman, GapPenalties, GridSwat, Scoring};
use blocksync_algos::Complex32;
use blocksync_core::{
    ExecError, GridConfig, GridRuntime, GridService, KernelStats, LaunchPlan, RoundKernel,
    ServiceConfig, ServiceHandle, ShardKey, SyncMethod, SyncPolicy, TreeLevels,
};
use blocksync_microbench::MeanKernel;

use crate::pin::{cores, Pinned};
use crate::span::{Entry, LaunchObs};

pub const NAMES: [&str; 5] = [
    "micro_spin",
    "micro_park",
    "algos",
    "serve_short",
    "serve_mixed",
];

/// Threads per block of every micro and serve_short grid (one `MeanKernel`
/// element per thread).
pub const TPB: usize = 64;
/// Rounds of a `serve_short` launch.
pub const SHORT_ROUNDS: usize = 8;

pub const LOCK_FREE: SyncMethod = SyncMethod::GpuLockFree;
pub const TREE_2: SyncMethod = SyncMethod::GpuTree(TreeLevels::Two);

/// What one slice produced.
#[derive(Default)]
pub struct SliceOut {
    /// The timed region.
    pub wall: Duration,
    pub attempted: usize,
    /// Launches that errored, were refused admission, or failed
    /// verification; they contribute no latency sample.
    pub failed: usize,
    /// Of `failed`, those refused by admission control.
    pub rejected: usize,
    pub obs: Vec<LaunchObs>,
}

pub trait Workload {
    /// Run one slice. `traced` additionally stamps the submit/wait call
    /// boundaries the span tree needs.
    fn slice(&mut self, traced: bool) -> SliceOut;

    fn shards_live(&self) -> usize {
        0
    }
}

/// Build a workload: its pools or service, its inputs from `seed`, and one
/// cold launch per pool. `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    let n = cores();
    Some(match name {
        // The paper's §5.4 micro-benchmark at one block per core, default
        // (yield) policy. Round counts give each method a slice share of
        // roughly 40 ms on the 2-vCPU reference host.
        "micro_spin" => Box::new(Micro::new(
            n,
            SyncPolicy::default(),
            &[
                (LOCK_FREE, 100_000),
                (SyncMethod::GpuSimple, 100_000),
                (TREE_2, 100_000),
                (SyncMethod::CpuImplicit, 3_000),
                (SyncMethod::CpuExplicit, 500),
            ],
            seed,
        )),
        // Same kernel at four blocks per core under a parking policy: the
        // wait loop's yield → park → wake path.
        "micro_park" => Box::new(Micro::new(
            4 * n,
            SyncPolicy::default().with_park(),
            &[
                (LOCK_FREE, 7_000),
                (SyncMethod::GpuSimple, 7_000),
                (TREE_2, 7_000),
            ],
            seed,
        )),
        "algos" => Box::new(Algos::new(n, seed)),
        // One client, one launch in flight, one shard: the service's own
        // cost per launch with nothing contending.
        "serve_short" => Box::new(Serve::new(
            vec![ShardKey::new(n, TPB, LOCK_FREE)],
            SyncPolicy::default(),
            ServeShape {
                clients: 1,
                window: 1,
                rounds: SHORT_ROUNDS,
                per_client: 4_000,
            },
            seed,
        )),
        // `service_soak`'s shape resized so 3 × cores workers and the
        // clients fit the host: contention on the service mutex, queueing
        // behind other launches, parked barriers.
        "serve_mixed" => Box::new(Serve::new(
            vec![
                ShardKey::new(n, 16, LOCK_FREE),
                ShardKey::new(n, 16, SyncMethod::GpuSimple),
                ShardKey::new(n, 16, SyncMethod::SenseReversing),
            ],
            SyncPolicy::with_timeout(Duration::from_secs(10)).with_park(),
            ServeShape {
                clients: n.min(2),
                window: 4,
                rounds: 60,
                per_client: 1_500,
            },
            seed,
        )),
        _ => return None,
    })
}

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

/// Time one blocking launch.
fn timed_run(
    entry: Entry,
    run: impl FnOnce() -> Result<KernelStats, ExecError>,
) -> Option<LaunchObs> {
    let start = Instant::now();
    let stats = run().ok()?;
    Some(LaunchObs {
        entry,
        client: 0,
        start,
        calls: None,
        end: Instant::now(),
        stats,
    })
}

/// One slice of blocking launches: run every pre-built kernel on the clock,
/// then verify off it; a launch that errored or computed a wrong result
/// leaves no sample.
fn blocking_slice<K>(
    kernels: &[K],
    mut run: impl FnMut(&K) -> Option<LaunchObs>,
    verify: impl Fn(&K) -> bool,
) -> SliceOut {
    let start = Instant::now();
    let launched: Vec<Option<LaunchObs>> = kernels.iter().map(&mut run).collect();
    let wall = start.elapsed();
    let obs: Vec<LaunchObs> = launched
        .into_iter()
        .zip(kernels)
        .filter_map(|(o, k)| o.filter(|_| verify(k)))
        .collect();
    SliceOut {
        wall,
        attempted: kernels.len(),
        failed: kernels.len() - obs.len(),
        rejected: 0,
        obs,
    }
}

/// A warm pool, or for CPU-explicit (which relaunches from the host by
/// definition) a compiled plan.
pub enum Exec {
    Pool(GridRuntime),
    Plan(LaunchPlan),
}

impl Exec {
    pub fn new(cfg: GridConfig, method: SyncMethod) -> Exec {
        if GridRuntime::supports(method) {
            Exec::Pool(GridRuntime::new(cfg, method).expect("valid pool shape"))
        } else {
            Exec::Plan(LaunchPlan::compile(cfg, method).expect("valid plan shape"))
        }
    }

    pub fn run<K: RoundKernel>(&self, kernel: &K) -> Option<LaunchObs> {
        match self {
            Exec::Pool(rt) => timed_run(Entry::Run, || rt.run(kernel)),
            Exec::Plan(plan) => timed_run(Entry::PlanRun, || plan.run(kernel)),
        }
    }
}

/// `MeanKernel` under several methods, one warm launch per method per
/// slice, in an order drawn from the seed.
struct Micro {
    n: usize,
    cells: Vec<(Exec, usize)>,
    rng: SplitMix64,
}

impl Micro {
    fn new(n: usize, policy: SyncPolicy, cells: &[(SyncMethod, usize)], seed: u64) -> Micro {
        let cfg = GridConfig::new(n, TPB).with_policy(policy);
        let cells: Vec<(Exec, usize)> = cells
            .iter()
            .map(|&(method, rounds)| (Exec::new(cfg.clone(), method), rounds))
            .collect();
        for (exec, _) in &cells {
            exec.run(&Pinned(MeanKernel::for_grid(n, TPB, 16)))
                .expect("cold launch");
        }
        Micro {
            n,
            cells,
            rng: SplitMix64::new(seed),
        }
    }
}

impl Workload for Micro {
    fn slice(&mut self, _traced: bool) -> SliceOut {
        let mut order: Vec<usize> = (0..self.cells.len()).collect();
        shuffle(&mut order, &mut self.rng);
        let jobs: Vec<(&Exec, Pinned<MeanKernel>)> = order
            .iter()
            .map(|&c| {
                let (exec, rounds) = &self.cells[c];
                (exec, Pinned(MeanKernel::for_grid(self.n, TPB, *rounds)))
            })
            .collect();
        blocking_slice(&jobs, |(exec, k)| exec.run(k), |(_, k)| k.0.verify())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    Fft,
    Swat,
    Bitonic,
    Scan,
}

impl Algo {
    pub const ALL: [Algo; 4] = [Algo::Fft, Algo::Swat, Algo::Bitonic, Algo::Scan];

    pub fn name(self) -> &'static str {
        match self {
            Algo::Fft => "fft",
            Algo::Swat => "swat",
            Algo::Bitonic => "bitonic",
            Algo::Scan => "scan",
        }
    }
}

pub enum AlgoKernel {
    Fft(Pinned<GridFft>),
    Swat(Pinned<GridSwat>),
    Bitonic(Pinned<GridBitonic>),
    Scan(Pinned<GridScan>),
}

impl AlgoKernel {
    pub fn run_on(&self, exec: &Exec) -> Option<LaunchObs> {
        match self {
            AlgoKernel::Fft(k) => exec.run(k),
            AlgoKernel::Swat(k) => exec.run(k),
            AlgoKernel::Bitonic(k) => exec.run(k),
            AlgoKernel::Scan(k) => exec.run(k),
        }
    }
}

pub const FFT_LEN: usize = 1 << 16;
pub const SWAT_LEN: usize = 1024;
pub const BITONIC_LEN: usize = 1 << 15;
pub const SCAN_LEN: usize = 1 << 18;

/// The `tests/end_to_end.rs` bound (1e-3 at n = 1024, inputs in [-1, 1))
/// scaled once for the larger transform: output magnitude grows with
/// `sqrt(n)` and rounding error with the `log2 n` stages.
pub fn fft_tolerance(n: usize) -> f32 {
    1e-3 * (n as f32 / 1024.0).sqrt() * (n.trailing_zeros() as f32 / 10.0)
}

/// Seeded inputs of the four algorithms with their sequential references.
pub struct AlgoInputs {
    signal: Vec<Complex32>,
    spectrum: Vec<Complex32>,
    dna: (Vec<u8>, Vec<u8>),
    alignment: SwScore,
    keys: Vec<u32>,
    sorted: Vec<u32>,
    values: Vec<u64>,
    sums: Vec<u64>,
}

impl AlgoInputs {
    pub fn new(seed: u64) -> AlgoInputs {
        let signal = complex_signal(FFT_LEN, seed);
        let mut spectrum = signal.clone();
        fft_inplace(&mut spectrum);
        let keys = random_keys(BITONIC_LEN, seed ^ 1);
        let mut sorted = keys.clone();
        bitonic_sort(&mut sorted);
        let mut rng = SplitMix64::new(seed ^ 2);
        let values: Vec<u64> = (0..SCAN_LEN).map(|_| rng.next_u64() >> 32).collect();
        let dna = (
            dna_sequence(SWAT_LEN, seed ^ 3),
            dna_sequence(SWAT_LEN, seed ^ 4),
        );
        AlgoInputs {
            sums: inclusive_scan_reference(&values),
            values,
            signal,
            spectrum,
            alignment: smith_waterman(&dna.0, &dna.1, Scoring::dna(), GapPenalties::dna()),
            dna,
            keys,
            sorted,
        }
    }

    /// A fresh kernel (the bitonic and scan kernels work in place).
    pub fn kernel(&self, algo: Algo, n_blocks: usize) -> AlgoKernel {
        match algo {
            Algo::Fft => AlgoKernel::Fft(Pinned(GridFft::new(&self.signal, Direction::Forward))),
            Algo::Swat => AlgoKernel::Swat(Pinned(GridSwat::new(
                &self.dna.0,
                &self.dna.1,
                Scoring::dna(),
                GapPenalties::dna(),
                n_blocks,
            ))),
            Algo::Bitonic => AlgoKernel::Bitonic(Pinned(GridBitonic::new(&self.keys))),
            Algo::Scan => AlgoKernel::Scan(Pinned(GridScan::new(&self.values))),
        }
    }

    /// Compare a finished kernel's output with the sequential reference.
    pub fn verify(&self, kernel: &AlgoKernel) -> bool {
        match kernel {
            AlgoKernel::Fft(k) => max_error(&k.0.output(), &self.spectrum) < fft_tolerance(FFT_LEN),
            AlgoKernel::Swat(k) => k.0.result() == self.alignment,
            AlgoKernel::Bitonic(k) => k.0.output() == self.sorted,
            AlgoKernel::Scan(k) => k.0.output() == self.sums,
        }
    }

    /// Time the plain single-threaded reference on the same input.
    pub fn sequential(&self, algo: Algo) -> Duration {
        let start = Instant::now();
        match algo {
            Algo::Fft => {
                let mut v = self.signal.clone();
                fft_inplace(&mut v);
                std::hint::black_box(v);
            }
            Algo::Swat => {
                let (a, b) = &self.dna;
                std::hint::black_box(smith_waterman(a, b, Scoring::dna(), GapPenalties::dna()));
            }
            Algo::Bitonic => {
                let mut v = self.keys.clone();
                bitonic_sort(&mut v);
                std::hint::black_box(v);
            }
            Algo::Scan => {
                std::hint::black_box(inclusive_scan_reference(&self.values));
            }
        }
        start.elapsed()
    }
}

/// FFT, Smith-Waterman, bitonic sort and scan on one warm lock-free pool.
struct Algos {
    n: usize,
    pool: Exec,
    inputs: AlgoInputs,
    rng: SplitMix64,
}

/// Launches per slice: Smith-Waterman is the long one, so it gets fewer,
/// but still a fifth of the samples so that p90 sits inside its cluster.
const ALGO_MIX: [(Algo, usize); 4] = [
    (Algo::Fft, 8),
    (Algo::Swat, 6),
    (Algo::Bitonic, 8),
    (Algo::Scan, 8),
];

impl Algos {
    fn new(n: usize, seed: u64) -> Algos {
        let pool = Exec::new(GridConfig::new(n, TPB), LOCK_FREE);
        pool.run(&Pinned(MeanKernel::for_grid(n, TPB, 16)))
            .expect("cold launch");
        Algos {
            n,
            pool,
            inputs: AlgoInputs::new(seed),
            rng: SplitMix64::new(seed),
        }
    }
}

impl Workload for Algos {
    fn slice(&mut self, _traced: bool) -> SliceOut {
        let mut order: Vec<Algo> = ALGO_MIX
            .iter()
            .flat_map(|&(a, count)| std::iter::repeat_n(a, count))
            .collect();
        shuffle(&mut order, &mut self.rng);
        let kernels: Vec<AlgoKernel> = order
            .iter()
            .map(|&a| self.inputs.kernel(a, self.n))
            .collect();
        blocking_slice(
            &kernels,
            |k| k.run_on(&self.pool),
            |k| self.inputs.verify(k),
        )
    }
}

#[derive(Clone, Copy)]
struct ServeShape {
    clients: usize,
    /// Launches a client keeps in flight.
    window: usize,
    rounds: usize,
    /// Launches per client per slice.
    per_client: usize,
}

/// Closed-loop clients submitting `MeanKernel` launches through a
/// `GridService`.
struct Serve {
    svc: GridService,
    keys: Vec<ShardKey>,
    shape: ServeShape,
    rng: SplitMix64,
}

type ServeKernel = Arc<Pinned<MeanKernel>>;

const ADMISSION_DEADLINE: Duration = Duration::from_secs(10);

impl Serve {
    fn new(keys: Vec<ShardKey>, policy: SyncPolicy, shape: ServeShape, seed: u64) -> Serve {
        let svc = GridService::new(
            ServiceConfig::default()
                .with_max_shards(keys.len())
                .with_queue_capacity(shape.clients * shape.window)
                .with_tenant_quota(shape.window)
                // Never retire a shard mid-run: spin-up is set-up cost.
                .with_idle_ttl(Duration::from_secs(3600))
                .with_template(GridConfig::new(1, 1).with_policy(policy)),
        );
        for &key in &keys {
            let kernel: ServeKernel = Arc::new(Pinned(MeanKernel::for_grid(
                key.blocks,
                key.threads_per_block,
                shape.rounds,
            )));
            svc.submit_within("setup", key, kernel, ADMISSION_DEADLINE)
                .and_then(ServiceHandle::wait)
                .expect("cold launch");
        }
        Serve {
            svc,
            keys,
            shape,
            rng: SplitMix64::new(seed),
        }
    }

    /// One client's closed loop over its pre-built launches. Returns the
    /// launches that completed (by plan index) and how many were refused.
    fn client(
        &self,
        client: u16,
        plan: &[(ShardKey, ServeKernel)],
        traced: bool,
    ) -> (Vec<(usize, LaunchObs)>, usize) {
        let tenant = format!("client-{client}");
        let mut done = Vec::with_capacity(plan.len());
        let mut rejected = 0;
        let mut inflight: VecDeque<(usize, Instant, Option<Instant>, ServiceHandle)> =
            VecDeque::with_capacity(self.shape.window);
        let mut settle =
            |(i, start, submitted, handle): (usize, _, Option<Instant>, ServiceHandle)| {
                let wait_called = traced.then(Instant::now);
                if let Ok(stats) = handle.wait() {
                    let obs = LaunchObs {
                        entry: Entry::Service,
                        client,
                        start,
                        calls: submitted.zip(wait_called),
                        end: Instant::now(),
                        stats,
                    };
                    done.push((i, obs));
                }
            };
        for (i, (key, kernel)) in plan.iter().enumerate() {
            let start = Instant::now();
            let kernel: Arc<dyn RoundKernel + Send + Sync> = Arc::clone(kernel) as _;
            match self
                .svc
                .submit_within(&tenant, *key, kernel, ADMISSION_DEADLINE)
            {
                Ok(handle) => inflight.push_back((i, start, traced.then(Instant::now), handle)),
                Err(e) => rejected += usize::from(e.is_backpressure()),
            }
            if inflight.len() >= self.shape.window {
                settle(inflight.pop_front().expect("window is at least one"));
            }
        }
        inflight.into_iter().for_each(&mut settle);
        (done, rejected)
    }
}

impl Workload for Serve {
    fn slice(&mut self, traced: bool) -> SliceOut {
        let plans: Vec<Vec<(ShardKey, ServeKernel)>> = (0..self.shape.clients)
            .map(|_| {
                (0..self.shape.per_client)
                    .map(|_| {
                        let key = self.keys[self.rng.next_below(self.keys.len() as u64) as usize];
                        let kernel = MeanKernel::for_grid(
                            key.blocks,
                            key.threads_per_block,
                            self.shape.rounds,
                        );
                        (key, Arc::new(Pinned(kernel)))
                    })
                    .collect()
            })
            .collect();
        let this = &*self;
        let start = Instant::now();
        let results: Vec<(Vec<(usize, LaunchObs)>, usize)> = std::thread::scope(|scope| {
            let clients: Vec<_> = plans
                .iter()
                .enumerate()
                .map(|(c, plan)| scope.spawn(move || this.client(c as u16, plan, traced)))
                .collect();
            clients
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall = start.elapsed();
        let attempted = self.shape.clients * self.shape.per_client;
        let mut out = SliceOut {
            wall,
            attempted,
            ..SliceOut::default()
        };
        for ((done, rejected), plan) in results.into_iter().zip(&plans) {
            out.rejected += rejected;
            out.obs.extend(
                done.into_iter()
                    .filter(|(i, _)| plan[*i].1 .0.verify())
                    .map(|(_, obs)| obs),
            );
        }
        out.failed = attempted - out.obs.len();
        out
    }

    fn shards_live(&self) -> usize {
        self.svc.shards_live()
    }
}
