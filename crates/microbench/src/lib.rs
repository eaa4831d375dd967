//! # blocksync-microbench
//!
//! The paper's micro-benchmark (Section 5.4): "compute the mean of two
//! floats for 10000 times". With CPU synchronization each round is a kernel
//! launch; with GPU synchronization one kernel loops 10,000 times around a
//! `__gpu_sync()` call. Each thread computes one element, so work scales
//! weakly with the grid and computation time per round is approximately
//! constant — every change in total time is synchronization.
//!
//! Two harnesses:
//!
//! * [`MeanKernel`] — the kernel on the persistent-kernel host runtime
//!   (`blocksync-core`), measured with wall clocks.
//! * [`micro_workload`] / [`simulate_micro`] — the same shape on the
//!   GTX 280 simulator (`blocksync-sim`), which regenerates Figure 11.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use blocksync_core::{
    BlockCtx, ExecError, GlobalBuffer, GridConfig, GridExecutor, KernelStats, RoundKernel,
    SyncMethod, TraceConfig,
};
use blocksync_device::GpuSpec;
use blocksync_sim::{simulate, ConstWorkload, SimConfig, SimReport};

/// Rounds the paper uses (Section 5.4).
pub const PAPER_ROUNDS: usize = 10_000;

/// The "mean of two floats" kernel: element `i` of the output is the mean
/// of elements `i` of the two inputs; each round recomputes every element
/// (weak scaling: one element per thread).
pub struct MeanKernel {
    a: GlobalBuffer<f32>,
    b: GlobalBuffer<f32>,
    out: GlobalBuffer<f32>,
    rounds: usize,
}

impl MeanKernel {
    /// Kernel over `elements` values for `rounds` barrier rounds.
    /// Inputs are deterministic ramps so results are checkable.
    pub fn new(elements: usize, rounds: usize) -> Self {
        let a: Vec<f32> = (0..elements).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..elements).map(|i| (i as f32) + 2.0).collect();
        MeanKernel {
            a: GlobalBuffer::from_slice(&a),
            b: GlobalBuffer::from_slice(&b),
            out: GlobalBuffer::new(elements),
            rounds,
        }
    }

    /// Sized for a grid: one element per thread, as in the paper.
    pub fn for_grid(n_blocks: usize, threads_per_block: usize, rounds: usize) -> Self {
        Self::new(n_blocks * threads_per_block, rounds)
    }

    /// The computed means (validity: element `i` must equal `i + 1`).
    pub fn output(&self) -> Vec<f32> {
        self.out.to_vec()
    }

    /// Check every output element.
    pub fn verify(&self) -> bool {
        self.output()
            .iter()
            .enumerate()
            .all(|(i, &v)| v == i as f32 + 1.0)
    }
}

impl RoundKernel for MeanKernel {
    fn rounds(&self) -> usize {
        self.rounds
    }

    fn round(&self, ctx: &BlockCtx, _round: usize) {
        for i in ctx.chunk(self.out.len()) {
            self.out.set(i, (self.a.get(i) + self.b.get(i)) / 2.0);
        }
    }
}

/// Run the micro-benchmark on the host runtime.
pub fn run_host(
    n_blocks: usize,
    threads_per_block: usize,
    rounds: usize,
    method: SyncMethod,
) -> Result<(KernelStats, bool), ExecError> {
    let cfg = GridConfig::new(n_blocks, threads_per_block);
    // Before the kernel allocates an element per thread of the grid.
    cfg.validate()?;
    let kernel = MeanKernel::for_grid(n_blocks, threads_per_block, rounds);
    let stats = GridExecutor::new(cfg, method).run(&kernel)?;
    let ok = kernel.verify();
    Ok((stats, ok))
}

/// [`run_host`] with the telemetry plane on: the returned stats carry
/// `telemetry` (per-round skew, sync spans, spin histograms).
pub fn run_host_traced(
    n_blocks: usize,
    threads_per_block: usize,
    rounds: usize,
    method: SyncMethod,
    trace: TraceConfig,
) -> Result<(KernelStats, bool), ExecError> {
    let cfg = GridConfig::new(n_blocks, threads_per_block).with_trace(trace);
    cfg.validate()?;
    let kernel = MeanKernel::for_grid(n_blocks, threads_per_block, rounds);
    let stats = GridExecutor::new(cfg, method).run(&kernel)?;
    let ok = kernel.verify();
    Ok((stats, ok))
}

/// The micro-benchmark's simulator workload: constant per-round compute of
/// one element per thread.
pub fn micro_workload(spec: &GpuSpec, threads_per_block: usize, rounds: usize) -> ConstWorkload {
    let cost = blocksync_algos::CostModel::microbench(spec);
    ConstWorkload::new(cost.round_time(threads_per_block), rounds)
}

/// Simulate the micro-benchmark on the GTX 280 model.
///
/// # Panics
/// Panics on invalid configurations (e.g. a GPU-side method with more than
/// 30 blocks), like [`blocksync_sim::simulate`].
pub fn simulate_micro(
    n_blocks: usize,
    threads_per_block: usize,
    rounds: usize,
    method: SyncMethod,
) -> SimReport {
    let cfg = SimConfig::new(n_blocks, threads_per_block, method);
    let w = micro_workload(&cfg.spec, threads_per_block, rounds);
    simulate(&cfg, &w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blocksync_core::TreeLevels;

    /// Per-barrier sync cost (ns) in the simulator: one Figure 11 point. A
    /// few hundred rounds reach steady state.
    fn sim_sync_per_round_ns(n_blocks: usize, method: SyncMethod) -> f64 {
        simulate_micro(n_blocks, 256, 200, method)
            .sync_per_round()
            .as_nanos() as f64
    }

    #[test]
    fn kernel_computes_means_under_every_method() {
        for method in [
            SyncMethod::CpuExplicit,
            SyncMethod::CpuImplicit,
            SyncMethod::GpuSimple,
            SyncMethod::GpuTree(TreeLevels::Two),
            SyncMethod::GpuTree(TreeLevels::Three),
            SyncMethod::GpuLockFree,
            SyncMethod::SenseReversing,
            SyncMethod::Dissemination,
        ] {
            let (stats, ok) = run_host(4, 16, 50, method).unwrap();
            assert!(ok, "{method}: wrong means");
            assert_eq!(stats.rounds, 50);
        }
    }

    #[test]
    fn weak_scaling_sizes_output() {
        let k = MeanKernel::for_grid(30, 448, 1);
        assert_eq!(k.output().len(), 30 * 448);
    }

    #[test]
    fn simulated_compute_is_constant_per_round() {
        use blocksync_sim::Workload;
        // Weak scaling: per-round compute must not depend on block count.
        let w256 = micro_workload(&GpuSpec::gtx280(), 256, 10);
        assert_eq!(w256.compute(0, 0), w256.compute(29, 9));
    }

    #[test]
    fn paper_compute_time_is_about_5ms() {
        use blocksync_sim::Workload;
        // Figure 11: "the computation time is only about 5 ms" for 10,000
        // rounds. Our model should land within a factor ~2.
        let w = micro_workload(&GpuSpec::gtx280(), 256, PAPER_ROUNDS);
        let total_ns = w.compute(0, 0).as_nanos() * PAPER_ROUNDS as u64;
        let ms = total_ns as f64 / 1e6;
        assert!((2.5..10.0).contains(&ms), "computation {ms} ms");
    }

    #[test]
    fn lockfree_beats_cpu_implicit_at_thirty_blocks() {
        let lf = sim_sync_per_round_ns(30, SyncMethod::GpuLockFree);
        let ci = sim_sync_per_round_ns(30, SyncMethod::CpuImplicit);
        assert!(lf * 2.0 < ci, "lock-free {lf} vs implicit {ci}");
    }

    #[test]
    fn explicit_is_the_slowest_method() {
        // Figure 11, observation 1.
        let ce = sim_sync_per_round_ns(16, SyncMethod::CpuExplicit);
        for m in [
            SyncMethod::CpuImplicit,
            SyncMethod::GpuSimple,
            SyncMethod::GpuTree(TreeLevels::Two),
            SyncMethod::GpuLockFree,
        ] {
            assert!(sim_sync_per_round_ns(16, m) < ce, "{m}");
        }
    }

    #[test]
    fn traced_run_verifies_and_carries_telemetry() {
        let (stats, ok) =
            run_host_traced(3, 8, 20, SyncMethod::GpuLockFree, TraceConfig::default()).unwrap();
        assert!(ok, "tracing must not perturb results");
        let t = stats.telemetry.expect("a traced run carries telemetry");
        assert_eq!(t.rounds.len(), 20);
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn simulate_micro_reports_shape() {
        let r = simulate_micro(8, 128, 100, SyncMethod::GpuSimple);
        assert_eq!(r.rounds, 100);
        assert_eq!(r.n_blocks, 8);
        assert!(r.sync_time().as_nanos() > 0);
    }
}
