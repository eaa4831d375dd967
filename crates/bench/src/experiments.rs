//! One function per table/figure of the paper's evaluation (Section 7).

use blocksync_algos::bitonic::BitonicWorkload;
use blocksync_algos::fft::FftWorkload;
use blocksync_algos::swat::SwatWorkload;
use blocksync_core::SyncMethod;
use blocksync_device::{GpuSpec, SimDuration};
use blocksync_microbench::micro_workload;
use blocksync_model::{fit_line, LinearFit};
use blocksync_sim::{SimConfig, SimReport, Workload};

use crate::harness::sim_scaled;

/// Maximum rounds actually event-simulated per configuration; longer
/// kernels are sampled and scaled (see [`crate::harness::sim_scaled`]).
pub const MAX_SIM_ROUNDS: usize = 240;

/// The paper's three applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoKind {
    /// Fast Fourier Transform (Figures 13a/14a).
    Fft,
    /// Smith-Waterman (Figures 13b/14b).
    Swat,
    /// Bitonic sort (Figures 13c/14c).
    Bitonic,
}

impl AlgoKind {
    /// All three, in the paper's order.
    pub const ALL: [AlgoKind; 3] = [AlgoKind::Fft, AlgoKind::Swat, AlgoKind::Bitonic];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AlgoKind::Fft => "FFT",
            AlgoKind::Swat => "SWat",
            AlgoKind::Bitonic => "Bitonic sort",
        }
    }

    /// Threads per block the paper uses (Section 7.2: 448 / 256 / 512).
    pub fn threads_per_block(self) -> usize {
        match self {
            AlgoKind::Fft => blocksync_algos::fft::PAPER_THREADS_PER_BLOCK,
            AlgoKind::Swat => blocksync_algos::swat::PAPER_THREADS_PER_BLOCK,
            AlgoKind::Bitonic => blocksync_algos::bitonic::PAPER_THREADS_PER_BLOCK,
        }
    }

    /// The paper-scale simulator workload for `n_blocks` blocks.
    pub fn workload(self, n_blocks: usize) -> Box<dyn Workload> {
        let spec = GpuSpec::gtx280();
        match self {
            AlgoKind::Fft => Box::new(FftWorkload::new(
                &spec,
                blocksync_algos::fft::PAPER_N,
                n_blocks,
            )),
            AlgoKind::Swat => {
                let l = blocksync_algos::swat::PAPER_SEQ_LEN;
                Box::new(SwatWorkload::new(&spec, l, l, n_blocks))
            }
            AlgoKind::Bitonic => Box::new(BitonicWorkload::new(
                &spec,
                blocksync_algos::bitonic::PAPER_N,
                n_blocks,
            )),
        }
    }
}

fn run(method: SyncMethod, n_blocks: usize, tpb: usize, w: &dyn Workload) -> SimReport {
    sim_scaled(&SimConfig::new(n_blocks, tpb, method), w, MAX_SIM_ROUNDS)
}

// ---------------------------------------------------------------- Table 1

/// One Table 1 row: the fraction of kernel time spent in inter-block
/// communication under CPU implicit synchronization at 30 blocks.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Application.
    pub algo: AlgoKind,
    /// Synchronization fraction of total kernel time.
    pub sync_fraction: f64,
}

/// Regenerate Table 1 (paper: FFT 19.6%, SWat 49.7%, bitonic sort 59.6%).
pub fn table1() -> Vec<Table1Row> {
    AlgoKind::ALL
        .iter()
        .map(|&algo| {
            let w = algo.workload(30);
            let r = run(
                SyncMethod::CpuImplicit,
                30,
                algo.threads_per_block(),
                w.as_ref(),
            );
            Table1Row {
                algo,
                sync_fraction: r.sync_fraction(),
            }
        })
        .collect()
}

// --------------------------------------------------------------- Figure 11

/// One method's micro-benchmark series: `(block count, total execution
/// time)` for the paper's 10,000-round run.
#[derive(Debug, Clone)]
pub struct Fig11Series {
    /// Synchronization method.
    pub method: SyncMethod,
    /// `(N, total)` points for `N = 1..=30`.
    pub points: Vec<(usize, SimDuration)>,
}

/// Regenerate Figure 11: micro-benchmark execution time vs block count for
/// every synchronization method.
pub fn fig11() -> Vec<Fig11Series> {
    let spec = GpuSpec::gtx280();
    let tpb = 256;
    let w = micro_workload(&spec, tpb, blocksync_microbench::PAPER_ROUNDS);
    SyncMethod::PAPER_METHODS
        .iter()
        .map(|&method| Fig11Series {
            method,
            points: (1..=30)
                .map(|n| (n, run(method, n, tpb, &w).total))
                .collect(),
        })
        .collect()
}

// ---------------------------------------------------------- Figures 13/14

/// One method's kernel-time series for an application sweep.
#[derive(Debug, Clone)]
pub struct SweepSeries {
    /// Synchronization method.
    pub method: SyncMethod,
    /// `(N, value)` points for `N = 9..=30` (the paper's plotted range).
    pub points: Vec<(usize, SimDuration)>,
}

impl SweepSeries {
    /// The series' final (largest-`N`) point.
    ///
    /// # Errors
    /// Names the method whose sweep came back empty — an empty sweep is a
    /// configuration bug the caller should report, not `unwrap` over.
    pub fn last_point(&self) -> Result<(usize, SimDuration), String> {
        self.points
            .last()
            .copied()
            .ok_or_else(|| format!("sweep for {} produced no points", self.method))
    }
}

/// Find `method`'s series in a Figure 13/14 sweep.
///
/// # Errors
/// Names the missing method and lists what the sweep does contain, so a
/// method-set change fails with a sentence instead of an `unwrap` panic.
pub fn sweep_series(series: &[SweepSeries], method: SyncMethod) -> Result<&SweepSeries, String> {
    series.iter().find(|s| s.method == method).ok_or_else(|| {
        format!(
            "no series for method {method}; sweep contains: {}",
            series
                .iter()
                .map(|s| s.method.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        )
    })
}

/// Regenerate Figure 13 (a/b/c by `algo`): total kernel execution time vs
/// block count for every synchronization method.
pub fn fig13(algo: AlgoKind) -> Vec<SweepSeries> {
    sweep(algo, |r| r.total)
}

/// Regenerate Figure 14 (a/b/c by `algo`): synchronization time (total
/// minus barrier-free compute reference, Section 7.3) vs block count.
pub fn fig14(algo: AlgoKind) -> Vec<SweepSeries> {
    sweep(algo, |r| r.sync_time())
}

fn sweep(algo: AlgoKind, metric: impl Fn(&SimReport) -> SimDuration) -> Vec<SweepSeries> {
    let tpb = algo.threads_per_block();
    SyncMethod::PAPER_METHODS
        .iter()
        .map(|&method| SweepSeries {
            method,
            points: (9..=30)
                .map(|n| {
                    let w = algo.workload(n);
                    (n, metric(&run(method, n, tpb, w.as_ref())))
                })
                .collect(),
        })
        .collect()
}

// --------------------------------------------------------------- Figure 15

/// Computation/synchronization breakdown of one (algorithm, method) cell
/// at the best configuration (30 blocks).
#[derive(Debug, Clone)]
pub struct Fig15Cell {
    /// Synchronization method.
    pub method: SyncMethod,
    /// Fraction of kernel time spent computing (`rho`).
    pub compute_fraction: f64,
    /// Fraction of kernel time spent synchronizing.
    pub sync_fraction: f64,
}

/// Regenerate Figure 15: per-application percentage breakdown of
/// computation vs synchronization time for every method at 30 blocks.
pub fn fig15() -> Vec<(AlgoKind, Vec<Fig15Cell>)> {
    AlgoKind::ALL
        .iter()
        .map(|&algo| {
            let w = algo.workload(30);
            let cells = SyncMethod::PAPER_METHODS
                .iter()
                .map(|&method| {
                    let r = run(method, 30, algo.threads_per_block(), w.as_ref());
                    let s = r.sync_fraction();
                    Fig15Cell {
                        method,
                        compute_fraction: 1.0 - s,
                        sync_fraction: s,
                    }
                })
                .collect();
            (algo, cells)
        })
        .collect()
}

// ---------------------------------------------------------------- Headline

/// The paper's headline numbers (abstract / Section 7).
#[derive(Debug, Clone)]
pub struct Headline {
    /// Micro-benchmark: CPU explicit total / GPU lock-free total
    /// (paper: 7.8x).
    pub lockfree_vs_explicit: f64,
    /// Micro-benchmark: CPU implicit total / GPU lock-free total
    /// (paper: 3.7x).
    pub lockfree_vs_implicit: f64,
    /// Per-application kernel-time improvement of GPU lock-free over CPU
    /// implicit at 30 blocks (paper: FFT 8.8%, SWat 24.1%, bitonic 39.0%).
    pub improvements: Vec<(AlgoKind, f64)>,
}

/// Compute the headline ratios.
pub fn headline() -> Headline {
    let spec = GpuSpec::gtx280();
    let tpb = 256;
    let w = micro_workload(&spec, tpb, blocksync_microbench::PAPER_ROUNDS);
    let total = |m: SyncMethod| run(m, 30, tpb, &w).total.as_nanos() as f64;
    let lf = total(SyncMethod::GpuLockFree);
    let improvements = AlgoKind::ALL
        .iter()
        .map(|&algo| {
            let w = algo.workload(30);
            let tpb = algo.threads_per_block();
            let imp = run(SyncMethod::CpuImplicit, 30, tpb, w.as_ref())
                .total
                .as_nanos() as f64;
            let lff = run(SyncMethod::GpuLockFree, 30, tpb, w.as_ref())
                .total
                .as_nanos() as f64;
            (algo, (imp - lff) / imp)
        })
        .collect();
    Headline {
        lockfree_vs_explicit: total(SyncMethod::CpuExplicit) / lf,
        lockfree_vs_implicit: total(SyncMethod::CpuImplicit) / lf,
        improvements,
    }
}

// -------------------------------------------------------------- Modelcheck

/// Verification that the simulator behaves as Equations 6–9 predict.
#[derive(Debug, Clone)]
pub struct ModelCheck {
    /// Line fit of GPU simple sync cost vs N (slope = effective `t_a`).
    pub simple_fit: LinearFit,
    /// Line fit of GPU lock-free sync cost vs N (slope should be ~0).
    pub lockfree_fit: LinearFit,
    /// Mean absolute relative error of Eq. 7 (with constants fitted from
    /// the simple sweep) against the simulated 2-level tree sweep.
    pub tree2_model_error: f64,
}

/// Sweep the simulator and fit the paper's cost models to it.
pub fn modelcheck() -> ModelCheck {
    let spec = GpuSpec::gtx280();
    let tpb = 256;
    let w = micro_workload(&spec, tpb, MAX_SIM_ROUNDS);
    let sync_ns =
        |method: SyncMethod, n: usize| run(method, n, tpb, &w).sync_per_round().as_nanos() as f64;

    let simple: Vec<(f64, f64)> = (1..=30)
        .map(|n| (n as f64, sync_ns(SyncMethod::GpuSimple, n)))
        .collect();
    let simple_fit = fit_line(&simple);

    let lockfree: Vec<(f64, f64)> = (1..=30)
        .map(|n| (n as f64, sync_ns(SyncMethod::GpuLockFree, n)))
        .collect();
    let lockfree_fit = fit_line(&lockfree);

    // Eq. 7 with t_a, t_c taken from the simple-sync fit; both checking
    // terms get the fitted intercept.
    let t_a = simple_fit.slope;
    let t_c = simple_fit.intercept;
    let mut err_sum = 0.0;
    let mut count = 0;
    for n in 2..=30 {
        let sim = sync_ns(SyncMethod::GpuTree(blocksync_core::TreeLevels::Two), n);
        let pred = blocksync_model::t_gts(n, t_a, t_c, t_c);
        err_sum += ((sim - pred) / sim).abs();
        count += 1;
    }
    ModelCheck {
        simple_fit,
        lockfree_fit,
        tree2_model_error: err_sum / count as f64,
    }
}

// --------------------------------------------------------------- Ablations

/// Simulator-side ablations of the paper's design choices.
#[derive(Debug, Clone)]
pub struct Ablations {
    /// Lock-free barrier cost per round with the paper's parallel
    /// collector (N checking threads), at 30 blocks.
    pub collector_parallel: SimDuration,
    /// ...and with a single serial checking thread (Section 5.3 says the
    /// parallel design "saves considerable synchronization overhead").
    pub collector_serial: SimDuration,
    /// Lock-free cost with the flag arrays confined to one memory
    /// partition (no address spreading) instead of all eight.
    pub single_partition: SimDuration,
    /// GPU simple sync cost at 30 blocks (context for the above).
    pub simple_30: SimDuration,
    /// GPU simple sync with `atomicCAS` spin polls (paper footnote 2) —
    /// the pessimistic checking-cost regime.
    pub simple_cas_polling: SimDuration,
    /// Lock-free sync with `atomicCAS` spin polls.
    pub lockfree_cas_polling: SimDuration,
}

/// Run the simulator ablations.
pub fn ablations() -> Ablations {
    let spec = GpuSpec::gtx280();
    let tpb = 256;
    let w = micro_workload(&spec, tpb, MAX_SIM_ROUNDS);
    let per_round = |cfg: &SimConfig| sim_scaled(cfg, &w, MAX_SIM_ROUNDS).sync_per_round();
    Ablations {
        collector_parallel: per_round(&SimConfig::new(30, tpb, SyncMethod::GpuLockFree)),
        collector_serial: per_round(
            &SimConfig::new(30, tpb, SyncMethod::GpuLockFree).with_serial_collector(),
        ),
        single_partition: per_round(
            &SimConfig::new(30, tpb, SyncMethod::GpuLockFree).with_partitions(1),
        ),
        simple_30: per_round(&SimConfig::new(30, tpb, SyncMethod::GpuSimple)),
        simple_cas_polling: per_round(
            &SimConfig::new(30, tpb, SyncMethod::GpuSimple).with_cas_polling(),
        ),
        lockfree_cas_polling: per_round(
            &SimConfig::new(30, tpb, SyncMethod::GpuLockFree).with_cas_polling(),
        ),
    }
}

// --------------------------------------------- Oversubscription (Sec. 5/7.2)

/// The oversubscription study: CPU implicit sync past 30 blocks (the paper
/// swept 31..120 and found 30 best) and the GPU-barrier deadlock at 31.
#[derive(Debug)]
pub struct Oversubscription {
    /// `(blocks, total)` for the micro-benchmark under CPU implicit sync.
    pub cpu_implicit: Vec<(usize, SimDuration)>,
    /// What happens with 31 blocks and a device-side barrier.
    pub gpu_at_31: Result<SimDuration, blocksync_sim::SimError>,
}

/// Run the oversubscription study.
pub fn oversubscription() -> Oversubscription {
    let spec = GpuSpec::gtx280();
    let tpb = 256;
    let w = micro_workload(&spec, tpb, MAX_SIM_ROUNDS);
    let cpu_implicit = [30usize, 31, 45, 60, 90, 120]
        .iter()
        .map(|&n| {
            let r =
                blocksync_sim::try_simulate(&SimConfig::new(n, tpb, SyncMethod::CpuImplicit), &w)
                    .expect("CPU sync handles any block count");
            (n, r.total)
        })
        .collect();
    let gpu_at_31 =
        blocksync_sim::try_simulate(&SimConfig::new(31, tpb, SyncMethod::GpuLockFree), &w)
            .map(|r| r.total);
    Oversubscription {
        cpu_implicit,
        gpu_at_31,
    }
}

// --------------------------------------------------- Scaling (future work)

/// One row of the many-core scaling study: barrier cost per round when the
/// device (and the grid) grows beyond the GTX 280's 30 SMs.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// SMs on the hypothetical device (= blocks in the grid).
    pub sms: usize,
    /// `(method, sync cost per round)`.
    pub per_method: Vec<(SyncMethod, SimDuration)>,
}

impl ScalingRow {
    /// Per-round sync cost of `method` in this row.
    ///
    /// # Errors
    /// Names the missing method and the methods the row does carry, so a
    /// study run with a different method set fails with a sentence instead
    /// of an `unwrap` panic.
    pub fn method_time(&self, method: SyncMethod) -> Result<SimDuration, String> {
        self.per_method
            .iter()
            .find(|&&(m, _)| m == method)
            .map(|&(_, t)| t)
            .ok_or_else(|| {
                format!(
                    "scaling row at {} SMs has no entry for {method}; measured: {}",
                    self.sms,
                    self.per_method
                        .iter()
                        .map(|(m, _)| m.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })
    }
}

/// The paper's future-work question, answered in simulation: sweep
/// GTX-280-class devices from 30 to 240 SMs and measure every barrier.
/// Memory partitions scale with the device (8 per 30 SMs).
pub fn scaling_study() -> Vec<ScalingRow> {
    let tpb = 256;
    let methods = [
        SyncMethod::GpuSimple,
        SyncMethod::GpuTree(blocksync_core::TreeLevels::Two),
        SyncMethod::GpuTree(blocksync_core::TreeLevels::Three),
        SyncMethod::GpuLockFree,
        SyncMethod::Dissemination,
        SyncMethod::CpuImplicit,
    ];
    [30usize, 60, 120, 240]
        .iter()
        .map(|&sms| {
            let spec = GpuSpec::gtx280_scaled(sms as u32);
            let w = micro_workload(&spec, tpb, MAX_SIM_ROUNDS);
            let per_method = methods
                .iter()
                .map(|&m| {
                    let mut cfg = SimConfig::new(sms, tpb, m).with_partitions(8 * sms / 30);
                    cfg.spec = spec.clone();
                    let r = sim_scaled(&cfg, &w, MAX_SIM_ROUNDS);
                    (m, r.sync_per_round())
                })
                .collect();
            ScalingRow { sms, per_method }
        })
        .collect()
}

// ------------------------------------------------------ rho sweep (Eq. 2)

/// One point of the Eq. 2 validation sweep.
#[derive(Debug, Clone, Copy)]
pub struct RhoPoint {
    /// Compute fraction under the CPU implicit baseline.
    pub rho: f64,
    /// Measured kernel speedup of lock-free over CPU implicit.
    pub measured: f64,
    /// Eq. 2 prediction from `rho` and the measured sync speedup.
    pub predicted: f64,
}

/// Sweep the compute-to-sync ratio (by scaling per-round compute) and
/// compare measured speedups against the Eq. 2 bound — the paper's "the
/// smaller rho is, the more speedup can be gained" claim as a curve.
pub fn rho_sweep() -> Vec<RhoPoint> {
    use blocksync_sim::ConstWorkload;
    let tpb = 256;
    [0.5f64, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
        .iter()
        .map(|&compute_us| {
            let w = ConstWorkload::from_micros(compute_us, MAX_SIM_ROUNDS);
            let imp = sim_scaled(
                &SimConfig::new(30, tpb, SyncMethod::CpuImplicit),
                &w,
                MAX_SIM_ROUNDS,
            );
            let lf = sim_scaled(
                &SimConfig::new(30, tpb, SyncMethod::GpuLockFree),
                &w,
                MAX_SIM_ROUNDS,
            );
            let rho = imp.compute_reference().as_nanos() as f64 / imp.total.as_nanos() as f64;
            let measured = imp.total.as_nanos() as f64 / lf.total.as_nanos() as f64;
            let ss = imp.sync_time().as_nanos() as f64 / lf.sync_time().as_nanos().max(1) as f64;
            let predicted = blocksync_model::kernel_speedup(rho, ss);
            RhoPoint {
                rho,
                measured,
                predicted,
            }
        })
        .collect()
}

// ------------------------------------------------- Fermi what-if (ours)

/// Barrier costs under a Fermi-class calibration (L2-resolved atomics),
/// asking how much of the paper's conclusion depended on GT200's slow
/// atomics.
#[derive(Debug, Clone)]
pub struct WhatIf {
    /// `(method, GTX 280 cost, Fermi-class cost)` per barrier at 30 blocks.
    pub rows: Vec<(SyncMethod, SimDuration, SimDuration)>,
    /// Predicted simple-vs-implicit crossover block count on each profile.
    pub crossover_gtx280: usize,
    /// ... and on the Fermi-class profile.
    pub crossover_fermi: usize,
}

/// Compare barrier costs between the GTX 280 and a Fermi-class profile.
pub fn fermi_whatif() -> WhatIf {
    use blocksync_device::CalibrationProfile;
    let tpb = 256;
    let w = micro_workload(&GpuSpec::gtx280(), tpb, MAX_SIM_ROUNDS);
    let methods = [
        SyncMethod::GpuSimple,
        SyncMethod::GpuTree(blocksync_core::TreeLevels::Two),
        SyncMethod::GpuLockFree,
        SyncMethod::Dissemination,
    ];
    let cost = |m: SyncMethod, cal: CalibrationProfile| {
        let cfg = SimConfig::new(30, tpb, m).with_calibration(cal);
        sim_scaled(&cfg, &w, MAX_SIM_ROUNDS).sync_per_round()
    };
    let rows = methods
        .iter()
        .map(|&m| {
            (
                m,
                cost(m, CalibrationProfile::gtx280()),
                cost(m, CalibrationProfile::fermi_class()),
            )
        })
        .collect();
    WhatIf {
        rows,
        crossover_gtx280: blocksync_model::simple_vs_implicit_crossover(
            &CalibrationProfile::gtx280(),
        ),
        crossover_fermi: blocksync_model::simple_vs_implicit_crossover(
            &CalibrationProfile::fermi_class(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_ordering_matches_paper() {
        // Paper: FFT 19.6% < SWat 49.7% < bitonic 59.6%.
        let rows = table1();
        assert_eq!(rows.len(), 3);
        let (fft, swat, bitonic) = (
            rows[0].sync_fraction,
            rows[1].sync_fraction,
            rows[2].sync_fraction,
        );
        assert!(fft < swat && swat < bitonic, "{fft} {swat} {bitonic}");
        assert!((0.05..0.35).contains(&fft), "FFT {fft}");
        assert!((0.30..0.65).contains(&swat), "SWat {swat}");
        assert!((0.45..0.75).contains(&bitonic), "bitonic {bitonic}");
    }

    #[test]
    fn headline_ratios_in_paper_ballpark() {
        let h = headline();
        // Paper: 7.8x and 3.7x; require same-order agreement.
        assert!(
            (4.0..12.0).contains(&h.lockfree_vs_explicit),
            "explicit ratio {}",
            h.lockfree_vs_explicit
        );
        assert!(
            (2.0..6.0).contains(&h.lockfree_vs_implicit),
            "implicit ratio {}",
            h.lockfree_vs_implicit
        );
        // Improvements ordered FFT < SWat < bitonic and all positive.
        let imp: Vec<f64> = h.improvements.iter().map(|&(_, v)| v).collect();
        assert!(
            imp[0] > 0.0 && imp[0] < imp[1] && imp[1] < imp[2],
            "{imp:?}"
        );
    }

    #[test]
    fn modelcheck_confirms_equations() {
        let m = modelcheck();
        // Eq. 6: simple sync is a clean line in N.
        assert!(
            m.simple_fit.r_squared > 0.98,
            "r2 {}",
            m.simple_fit.r_squared
        );
        assert!(m.simple_fit.slope > 100.0, "slope {}", m.simple_fit.slope);
        // Eq. 9: lock-free slope is tiny compared to simple's.
        assert!(
            m.lockfree_fit.slope.abs() < m.simple_fit.slope * 0.15,
            "lock-free slope {}",
            m.lockfree_fit.slope
        );
        // Eq. 7 predicts the tree sweep within ~35%.
        assert!(
            m.tree2_model_error < 0.35,
            "tree error {}",
            m.tree2_model_error
        );
    }

    #[test]
    fn oversubscription_study_reproduces_paper() {
        let o = oversubscription();
        // 30 blocks is at least as fast as every oversubscribed count.
        let t30 = o.cpu_implicit[0].1;
        for &(n, t) in &o.cpu_implicit[1..] {
            assert!(t >= t30, "{n} blocks should not beat 30");
        }
        // The device-side barrier at 31 blocks deadlocks.
        assert!(matches!(
            o.gpu_at_31,
            Err(blocksync_sim::SimError::Deadlock {
                resident: 30,
                stalled: 1,
                ..
            })
        ));
    }

    #[test]
    fn scaling_study_shapes() {
        let rows = scaling_study();
        let get = |row: &ScalingRow, m: SyncMethod| row.method_time(m).unwrap();
        // A method the study does not measure reports itself by name
        // instead of panicking on a bare `unwrap`.
        let missing = rows[0].method_time(SyncMethod::CpuExplicit).unwrap_err();
        assert!(missing.contains("cpu-explicit"), "{missing}");
        assert!(missing.contains("gpu-lock-free"), "{missing}");
        let first = &rows[0];
        let last = rows.last().unwrap();
        assert_eq!(last.sms, 240);
        // Simple sync grows ~linearly with the SM count.
        let s_growth = get(last, SyncMethod::GpuSimple).as_nanos() as f64
            / get(first, SyncMethod::GpuSimple).as_nanos() as f64;
        assert!(s_growth > 4.0, "simple growth {s_growth}");
        // Lock-free grows far slower than simple.
        let lf_growth = get(last, SyncMethod::GpuLockFree).as_nanos() as f64
            / get(first, SyncMethod::GpuLockFree).as_nanos() as f64;
        assert!(
            lf_growth < s_growth / 2.0,
            "lock-free growth {lf_growth} vs {s_growth}"
        );
        // At 240 SMs the lock-free barrier still beats CPU implicit.
        assert!(get(last, SyncMethod::GpuLockFree) < get(last, SyncMethod::CpuImplicit));
    }

    #[test]
    fn sweep_lookup_errors_name_the_method() {
        let series = vec![SweepSeries {
            method: SyncMethod::CpuImplicit,
            points: vec![],
        }];
        let e = sweep_series(&series, SyncMethod::GpuLockFree).unwrap_err();
        assert!(e.contains("gpu-lock-free"), "{e}");
        assert!(e.contains("cpu-implicit"), "{e}");
        let e = series[0].last_point().unwrap_err();
        assert!(e.contains("cpu-implicit"), "{e}");
        let full = SweepSeries {
            method: SyncMethod::GpuLockFree,
            points: vec![(30, SimDuration(5))],
        };
        assert_eq!(full.last_point().unwrap(), (30, SimDuration(5)));
        let found = sweep_series(std::slice::from_ref(&full), SyncMethod::GpuLockFree).unwrap();
        assert_eq!(found.method, SyncMethod::GpuLockFree);
    }

    #[test]
    fn rho_sweep_validates_eq2() {
        let pts = rho_sweep();
        // rho increases with per-round compute; speedup decreases.
        for w in pts.windows(2) {
            assert!(w[1].rho >= w[0].rho - 1e-9);
            assert!(w[1].measured <= w[0].measured + 1e-9);
        }
        // Predictions track measurements within 5% everywhere.
        for p in &pts {
            let rel = (p.measured - p.predicted).abs() / p.measured;
            assert!(
                rel < 0.05,
                "rho {:.3}: measured {:.3} vs Eq.2 {:.3}",
                p.rho,
                p.measured,
                p.predicted
            );
        }
    }

    #[test]
    fn fermi_whatif_directions() {
        let w = fermi_whatif();
        for &(m, gtx, fermi) in &w.rows {
            assert!(fermi < gtx, "{m}: Fermi-class must be faster");
        }
        // Cheap atomics keep simple sync viable to (much) larger N.
        assert!(w.crossover_fermi > w.crossover_gtx280 * 2, "{w:?}");
        // But lock-free still wins at 30 blocks even on Fermi.
        let simple_fermi = w
            .rows
            .iter()
            .find(|r| r.0 == SyncMethod::GpuSimple)
            .unwrap()
            .2;
        let lf_fermi = w
            .rows
            .iter()
            .find(|r| r.0 == SyncMethod::GpuLockFree)
            .unwrap()
            .2;
        assert!(lf_fermi < simple_fermi);
    }

    #[test]
    fn ablation_directions() {
        let a = ablations();
        assert!(a.collector_serial > a.collector_parallel, "{a:?}");
        assert!(a.single_partition >= a.collector_parallel, "{a:?}");
        assert!(a.simple_cas_polling > a.simple_30, "{a:?}");
        assert!(a.lockfree_cas_polling > a.collector_parallel, "{a:?}");
    }
}
