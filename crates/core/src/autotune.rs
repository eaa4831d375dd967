//! Auto-tuning: measurement → model → method choice.
//!
//! [`SyncMethod::Auto`] closes the loop the paper leaves open: instead of
//! the caller hard-coding a barrier, the executor measures the host's
//! primitive costs once per process ([`blocksync_device::measure_host`]),
//! prices every method with the Eq. 6–9 cost model
//! ([`blocksync_model::selector`]), and runs the cheapest one that the
//! device can execute at the configured block count. The decision — the
//! chosen method, the full prediction table, and (after the run) the
//! measured per-round sync cost — is recorded on
//! [`crate::KernelStats::auto`] so mispredictions are observable rather
//! than silent.
//!
//! Two refinements sit on top of the raw selector:
//!
//! * **Tuned tree fan-out** — the tree candidate's group size is the exact
//!   argmin of Eq. 7 over all group sizes
//!   ([`blocksync_model::optimal_tree_group`]), carried into the barrier as
//!   [`TreeLevels::Custom`].
//! * **Topology-aware grouping** — when the host has more than one
//!   last-level-cache cluster ([`HostTopology`]), group sizes that align
//!   tree groups to cluster boundaries are preferred whenever the model
//!   prices them within [`SNAP_TOLERANCE`] of the optimum: the model is
//!   topology-blind, and cluster-local synchronization traffic beats the
//!   cross-cluster kind it cannot see.

use std::sync::OnceLock;

use blocksync_device::{measure_host, CalibrationProfile, HostTopology, MeasureBudget};
use blocksync_model::equations::t_gts_grouped;
use blocksync_model::selector::{self, MethodKind, SelectorError};

use crate::method::{SyncMethod, TreeLevels};

/// Relative slack within which a topology-aligned tree group size is
/// preferred over the model's exact argmin (5%).
pub const SNAP_TOLERANCE: f64 = 0.05;

/// One row of the auto-tuner's prediction table, in `SyncMethod` terms.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodPrediction {
    /// The concrete method this row prices.
    pub method: SyncMethod,
    /// Predicted per-round synchronization cost, ns. For oversubscribed
    /// GPU-side rows this includes the park/wake wave penalty.
    pub predicted_sync_ns: f64,
    /// Whether the device can run it at the decided block count.
    pub eligible: bool,
    /// True when this row has more blocks than fit resident at once, so
    /// the grid completes in waves of parked waiters.
    pub oversubscribed: bool,
}

/// The auto-tuner's verdict for one grid configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoDecision {
    /// The method the executor will run (never `Auto` or `NoSync`).
    pub chosen: SyncMethod,
    /// The model's predicted per-round sync cost for `chosen`, ns.
    pub predicted_sync_ns: f64,
    /// Mean measured per-round sync cost, ns — filled in by the executor
    /// after the run; `None` on a decision that has not executed yet.
    pub measured_sync_ns: Option<f64>,
    /// Whether the chosen method runs oversubscribed (more blocks than fit
    /// resident), draining in waves.
    pub oversubscribed: bool,
    /// The full table the choice was made from, in canonical order.
    pub table: Vec<MethodPrediction>,
    /// Calibrated cold kernel-launch overhead (`t_O`), ns — what a scoped
    /// run pays to spawn its workers.
    pub launch_cold_ns: f64,
    /// Calibrated warm (pooled) relaunch overhead, ns — what a
    /// [`crate::GridRuntime`] launch pays once its workers are resident.
    pub launch_warm_ns: f64,
    /// The calibration the predictions were computed from.
    pub calibration: CalibrationProfile,
    /// The host clustering used for group snapping.
    pub topology: HostTopology,
}

impl AutoDecision {
    /// `measured / predicted` per-round sync cost — > 1 means the model was
    /// optimistic. `None` before the run, or if the prediction is zero.
    pub fn misprediction_ratio(&self) -> Option<f64> {
        let measured = self.measured_sync_ns?;
        (self.predicted_sync_ns > 0.0).then(|| measured / self.predicted_sync_ns)
    }

    /// Whether the calibration prices a pooled (persistent) relaunch below
    /// a cold launch — i.e. whether a caller issuing repeated kernels
    /// should hold a [`crate::GridRuntime`] instead of calling
    /// [`crate::GridExecutor::run`] each time. CPU-side methods relaunch
    /// per round, so they never prefer it.
    pub fn prefers_pooled(&self) -> bool {
        !self.chosen.is_cpu_side() && self.launch_warm_ns < self.launch_cold_ns
    }

    /// `cold / warm` launch overhead — how many times cheaper a pooled
    /// relaunch is than a cold one. `None` if the warm cost is zero
    /// (degenerate `unit` calibrations).
    pub fn pooled_launch_speedup(&self) -> Option<f64> {
        (self.launch_warm_ns > 0.0).then(|| self.launch_cold_ns / self.launch_warm_ns)
    }
}

/// Prices methods for a calibration profile + host topology and decides.
#[derive(Debug, Clone)]
pub struct AutoTuner {
    cal: CalibrationProfile,
    topo: HostTopology,
}

impl AutoTuner {
    /// Tuner for the live host: primitive costs measured with the quick
    /// probe budget and topology detected from sysfs, both **once per
    /// process** (the calibration costs ~1–2 ms; every later `Auto` run
    /// reuses it — see DESIGN.md §9 for when re-measuring is warranted).
    pub fn host() -> Self {
        static CAL: OnceLock<CalibrationProfile> = OnceLock::new();
        static TOPO: OnceLock<HostTopology> = OnceLock::new();
        AutoTuner {
            cal: CAL
                .get_or_init(|| measure_host(MeasureBudget::quick()))
                .clone(),
            topo: TOPO.get_or_init(HostTopology::detect).clone(),
        }
    }

    /// Tuner for an explicit profile (tests, simulation, what-if analysis)
    /// with a flat single-cluster topology, i.e. no group snapping.
    pub fn with_profile(cal: CalibrationProfile) -> Self {
        AutoTuner {
            cal,
            topo: HostTopology::single(1),
        }
    }

    /// Replace the topology (enables cluster-aligned group snapping).
    pub fn with_topology(mut self, topo: HostTopology) -> Self {
        self.topo = topo;
        self
    }

    /// The calibration the tuner prices with.
    pub fn calibration(&self) -> &CalibrationProfile {
        &self.cal
    }

    /// Decide the method for `n_blocks` blocks on a device that can keep at
    /// most `max_gpu_blocks` persistent blocks: build the prediction table,
    /// snap the tuned tree's group size to the topology when justified, and
    /// take the cheapest eligible row (ties to the earlier, i.e. more
    /// established, method). Grids beyond `max_gpu_blocks` keep their GPU
    /// candidates — priced with the park/wake wave penalty and flagged
    /// `oversubscribed`.
    ///
    /// # Panics
    /// Panics if `n_blocks == 0`; use [`AutoTuner::try_decide`] for the
    /// structured-error form.
    pub fn decide(&self, n_blocks: usize, max_gpu_blocks: usize) -> AutoDecision {
        self.try_decide(n_blocks, max_gpu_blocks)
            .unwrap_or_else(|e| panic!("auto-tune failed: {e}"))
    }

    /// [`AutoTuner::decide`] with selection failures surfaced as
    /// [`SelectorError`] instead of a panic.
    pub fn try_decide(
        &self,
        n_blocks: usize,
        max_gpu_blocks: usize,
    ) -> Result<AutoDecision, SelectorError> {
        if n_blocks == 0 {
            return Err(SelectorError::EmptyGrid);
        }
        let mut table: Vec<MethodPrediction> =
            selector::prediction_table(&self.cal, n_blocks, max_gpu_blocks)
                .into_iter()
                .map(|p| MethodPrediction {
                    method: to_sync_method(p.kind),
                    predicted_sync_ns: p.sync_ns,
                    eligible: p.eligible,
                    oversubscribed: p.oversubscribed,
                })
                .collect();
        self.snap_tuned_tree(&mut table, n_blocks);
        let chosen = table
            .iter()
            .filter(|p| p.eligible)
            .fold(None::<&MethodPrediction>, |best, p| match best {
                Some(b) if b.predicted_sync_ns <= p.predicted_sync_ns => Some(b),
                _ => Some(p),
            })
            .ok_or(SelectorError::NoEligibleCandidate {
                considered: table.len(),
            })?
            .clone();
        Ok(AutoDecision {
            chosen: chosen.method,
            predicted_sync_ns: chosen.predicted_sync_ns,
            measured_sync_ns: None,
            oversubscribed: chosen.oversubscribed,
            table,
            launch_cold_ns: self.cal.kernel_launch_ns as f64,
            launch_warm_ns: self.cal.warm_launch_ns as f64,
            calibration: self.cal.clone(),
            topology: self.topo.clone(),
        })
    }

    /// Replace the tuned tree row's group size with a cluster-aligned one
    /// when the model prices the aligned candidate within
    /// [`SNAP_TOLERANCE`] of the exact argmin. No-op on single-cluster
    /// hosts, so flat topologies keep the pure model answer (and the
    /// argmin-equality property tests stay exact).
    fn snap_tuned_tree(&self, table: &mut [MethodPrediction], n: usize) {
        if self.topo.num_clusters() <= 1 {
            return;
        }
        let t_a = self.cal.atomic_add_ns as f64;
        let t_c = self.cal.poll_round_trip().as_nanos() as f64;
        let Some(row) = table
            .iter_mut()
            .find(|p| matches!(p.method, SyncMethod::GpuTree(TreeLevels::Custom(_))))
        else {
            return;
        };
        let budget = row.predicted_sync_ns * (1.0 + SNAP_TOLERANCE);
        let snapped = self
            .topo
            .aligned_group_sizes(n)
            .into_iter()
            .map(|g| (g, t_gts_grouped(n, g, t_a, t_c, t_c)))
            .filter(|&(_, cost)| cost <= budget)
            .min_by(|a, b| a.1.total_cmp(&b.1));
        if let Some((g, cost)) = snapped {
            row.method = SyncMethod::GpuTree(TreeLevels::Custom(g));
            row.predicted_sync_ns = cost;
        }
    }
}

/// Map the model's method vocabulary onto the runtime's.
fn to_sync_method(kind: MethodKind) -> SyncMethod {
    match kind {
        MethodKind::CpuExplicit => SyncMethod::CpuExplicit,
        MethodKind::CpuImplicit => SyncMethod::CpuImplicit,
        MethodKind::GpuSimple => SyncMethod::GpuSimple,
        MethodKind::GpuTree2 => SyncMethod::GpuTree(TreeLevels::Two),
        MethodKind::GpuTree2Tuned { group } => SyncMethod::GpuTree(TreeLevels::Custom(group)),
        MethodKind::GpuTree3 => SyncMethod::GpuTree(TreeLevels::Three),
        MethodKind::GpuLockFree => SyncMethod::GpuLockFree,
        MethodKind::SenseReversing => SyncMethod::SenseReversing,
        MethodKind::Dissemination => SyncMethod::Dissemination,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gtx280_profile_picks_lock_free_at_full_occupancy() {
        let d = AutoTuner::with_profile(CalibrationProfile::gtx280()).decide(30, 30);
        assert_eq!(d.chosen, SyncMethod::GpuLockFree);
        assert!(d.measured_sync_ns.is_none());
        assert!(d.misprediction_ratio().is_none());
        // The chosen row is the cheapest eligible one.
        for row in d.table.iter().filter(|r| r.eligible) {
            assert!(row.predicted_sync_ns >= d.predicted_sync_ns);
        }
    }

    #[test]
    fn oversubscription_prices_gpu_rows_instead_of_excluding_them() {
        let cal = CalibrationProfile::gtx280();
        let d = AutoTuner::with_profile(cal.clone()).decide(64, 30);
        // On the GTX 280 profile the wave penalty still hands the win to
        // CPU implicit...
        assert_eq!(d.chosen, SyncMethod::CpuImplicit);
        assert!(!d.oversubscribed);
        // ...but every GPU row stays eligible, flagged and penalized.
        let penalty = cal.oversubscription_penalty_ns(64, 30) as f64;
        assert!(penalty > 0.0);
        for row in &d.table {
            if row.method.is_gpu_side() {
                assert!(row.eligible, "{} should stay eligible", row.method);
                assert!(row.oversubscribed, "{} should be flagged", row.method);
                assert!(
                    row.predicted_sync_ns >= penalty,
                    "{} carries the park/wake penalty",
                    row.method
                );
            } else {
                assert!(!row.oversubscribed);
            }
        }
    }

    #[test]
    fn cheap_parking_decides_an_oversubscribed_gpu_method() {
        // When parking is nearly free and relaunches are ruinous, the tuner
        // must be willing to run a GPU barrier in waves.
        let mut cal = CalibrationProfile::gtx280();
        cal.park_wake_ns = 1;
        cal.implicit_round_overhead_ns = 1_000_000;
        cal.explicit_round_overhead_ns = 2_000_000;
        let d = AutoTuner::with_profile(cal).decide(64, 30);
        assert!(d.chosen.is_gpu_side(), "chose {}", d.chosen);
        assert!(d.oversubscribed);
    }

    #[test]
    fn try_decide_surfaces_structured_errors() {
        let tuner = AutoTuner::with_profile(CalibrationProfile::gtx280());
        assert_eq!(tuner.try_decide(0, 30), Err(SelectorError::EmptyGrid));
        let ok = tuner.try_decide(8, 30).unwrap();
        assert_eq!(ok.chosen, tuner.decide(8, 30).chosen);
    }

    #[test]
    fn decision_never_resolves_to_auto_or_nosync() {
        for cal in [
            CalibrationProfile::gtx280(),
            CalibrationProfile::fermi_class(),
            CalibrationProfile::unit(),
        ] {
            for n in [1usize, 2, 7, 30, 64] {
                let d = AutoTuner::with_profile(cal.clone()).decide(n, 30);
                assert!(!matches!(d.chosen, SyncMethod::Auto | SyncMethod::NoSync));
            }
        }
    }

    #[test]
    fn flat_topology_keeps_the_exact_argmin_group() {
        let cal = CalibrationProfile::gtx280();
        let d = AutoTuner::with_profile(cal.clone()).decide(30, 30);
        let tree = d
            .table
            .iter()
            .find_map(|r| match r.method {
                SyncMethod::GpuTree(TreeLevels::Custom(g)) => Some(g),
                _ => None,
            })
            .expect("tuned tree row present");
        let t_a = cal.atomic_add_ns as f64;
        let t_c = cal.poll_round_trip().as_nanos() as f64;
        assert_eq!(tree, blocksync_model::optimal_tree_group(30, t_a, t_c, t_c));
    }

    #[test]
    fn multi_cluster_topology_snaps_near_optimal_groups() {
        // 30 blocks on a 5-cluster host: one group per cluster is g = 6,
        // which happens to also be the Eq. 8 optimum — the snap must keep
        // cost within tolerance and produce an aligned size.
        let cal = CalibrationProfile::gtx280();
        let flat = AutoTuner::with_profile(cal.clone()).decide(30, 30);
        let snapped = AutoTuner::with_profile(cal.clone())
            .with_topology(HostTopology::uniform(5, 8))
            .decide(30, 30);
        let cost = |d: &AutoDecision| {
            d.table
                .iter()
                .find(|r| matches!(r.method, SyncMethod::GpuTree(TreeLevels::Custom(_))))
                .unwrap()
                .predicted_sync_ns
        };
        assert!(cost(&snapped) <= cost(&flat) * (1.0 + SNAP_TOLERANCE) + 1e-9);
        let g = snapped
            .table
            .iter()
            .find_map(|r| match r.method {
                SyncMethod::GpuTree(TreeLevels::Custom(g)) => Some(g),
                _ => None,
            })
            .unwrap();
        assert!(HostTopology::uniform(5, 8)
            .aligned_group_sizes(30)
            .contains(&g));
    }

    #[test]
    fn decision_prices_pooled_relaunch() {
        let d = AutoTuner::with_profile(CalibrationProfile::gtx280()).decide(30, 30);
        assert_eq!(d.launch_cold_ns, 7_000.0);
        assert_eq!(d.launch_warm_ns, 3_000.0);
        assert!(d.prefers_pooled());
        let speedup = d.pooled_launch_speedup().unwrap();
        assert!((speedup - 7.0 / 3.0).abs() < 1e-9);
        // On this profile the oversubscribed grid resolves to a CPU-side
        // method (the wave penalty outweighs relaunching), which relaunches
        // per round and can never pool.
        let cpu = AutoTuner::with_profile(CalibrationProfile::gtx280()).decide(64, 30);
        assert!(cpu.chosen.is_cpu_side());
        assert!(!cpu.prefers_pooled());
        // Degenerate zero-cost calibration: no speedup claim.
        let unit = AutoTuner::with_profile(CalibrationProfile::unit()).decide(8, 30);
        assert!(unit.pooled_launch_speedup().is_none());
    }

    #[test]
    fn host_tuner_is_cached_and_consistent() {
        let a = AutoTuner::host();
        let b = AutoTuner::host();
        // Same process-wide calibration: identical decisions.
        assert_eq!(a.calibration(), b.calibration());
        let d1 = a.decide(8, 30);
        let d2 = b.decide(8, 30);
        assert_eq!(d1.chosen, d2.chosen);
    }
}
