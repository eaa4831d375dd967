//! Auto-tuning: a table of per-round sync costs → the cheapest row.
//!
//! [`SyncMethod::Auto`] closes the loop the paper leaves open: instead of
//! the caller hard-coding a barrier, the tuner fills a table with what
//! every method costs per round at the configured block count and runs the
//! cheapest. Where the rows come from depends on which device the caller
//! has, and the constructor is that choice (DESIGN.md §9):
//!
//! * [`AutoTuner::with_profile`] — **a device nobody can put a stopwatch
//!   on** (the simulated GTX 280, a what-if profile): the Eq. 6–9 cost
//!   model prices every method from the [`CalibrationProfile`]
//!   ([`blocksync_model::selector`]). The tree candidate's group size is
//!   the exact argmin of Eq. 7 over all group sizes
//!   ([`blocksync_model::optimal_tree_group`]), carried into the barrier
//!   as [`TreeLevels::Custom`].
//! * [`AutoTuner::host`] — **the machine the process runs on**: the rows
//!   are measured. An empty kernel runs once under each concrete method
//!   through the very [`LaunchPlan`] path the `Auto` plan then launches,
//!   and the row is that launch's in-round time per round, which for an
//!   empty kernel is its sync cost.
//!   One thing knows what a host barrier costs — the barrier.
//!
//! The decision — the chosen method, the full table, and (after the run)
//! the measured per-round sync cost — is recorded on
//! [`crate::KernelStats::auto`] so a bad pick is observable rather than
//! silent.

use std::collections::BTreeMap;

use blocksync_device::CalibrationProfile;
use blocksync_model::selector::{self, MethodKind};
use parking_lot::Mutex;

use crate::executor::{BlockCtx, GridConfig};
use crate::launch::LaunchPlan;
use crate::method::{SyncMethod, TreeLevels};

/// One row of the auto-tuner's table, in `SyncMethod` terms.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodPrediction {
    /// The concrete method this row prices.
    pub method: SyncMethod,
    /// Per-round synchronization cost, ns: priced by the cost model under
    /// a profile tuner, measured under the host tuner.
    pub predicted_sync_ns: f64,
}

/// The auto-tuner's verdict for one grid configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoDecision {
    /// The method the plan will run (never `Auto` or `NoSync`).
    pub chosen: SyncMethod,
    /// The table's per-round sync cost for `chosen`, ns.
    pub predicted_sync_ns: f64,
    /// Mean measured per-round sync cost, ns — filled in by each launch
    /// after the run; `None` on a decision that has not executed yet.
    pub measured_sync_ns: Option<f64>,
    /// The full table the choice was made from, in canonical order.
    pub table: Vec<MethodPrediction>,
}

impl AutoDecision {
    /// `measured / predicted` per-round sync cost — > 1 means the table was
    /// optimistic. `None` before the run, or if the prediction is zero.
    pub fn misprediction_ratio(&self) -> Option<f64> {
        let measured = self.measured_sync_ns?;
        (self.predicted_sync_ns > 0.0).then(|| measured / self.predicted_sync_ns)
    }
}

/// Fills the per-method cost table for a block count and picks its
/// cheapest row.
#[derive(Debug, Clone)]
pub struct AutoTuner {
    /// The profile the cost model prices with; `None` is the live host,
    /// whose rows are measured instead.
    cal: Option<CalibrationProfile>,
}

impl AutoTuner {
    /// Tuner for the live host. Constructing it launches nothing: the
    /// first [`AutoTuner::decide`] at a given block count measures that
    /// count's table, every later one — from any tuner in the process —
    /// reads it back (see DESIGN.md §9 for what the first one costs).
    pub fn host() -> Self {
        AutoTuner { cal: None }
    }

    /// Tuner for an explicit profile (simulation, what-if analysis, tests):
    /// every row is priced by the Eq. 6–9 cost model.
    pub fn with_profile(cal: CalibrationProfile) -> Self {
        AutoTuner { cal: Some(cal) }
    }

    /// Decide the method for `n_blocks` blocks: fill the table and take
    /// its cheapest row (ties to the earlier, i.e. more established,
    /// method).
    ///
    /// `max_gpu_blocks` is a modelled device's resident-block ceiling: a
    /// grid beyond it has no GPU-side rows (paper §5 — a device-side
    /// barrier among more blocks than fit resident deadlocks), so the pick
    /// is a CPU-side method. A host tuner ignores it: host grids fold onto
    /// the cores and host waiters yield, and what that costs past the core
    /// count is already in the measurement.
    ///
    /// # Panics
    /// Panics if `n_blocks == 0`.
    pub fn decide(&self, n_blocks: usize, max_gpu_blocks: usize) -> AutoDecision {
        assert!(
            n_blocks > 0,
            "auto-tune failed: cannot select a sync method for 0 blocks"
        );
        let table = match &self.cal {
            Some(cal) => selector::prediction_table(cal, n_blocks, max_gpu_blocks)
                .into_iter()
                .map(|p| MethodPrediction {
                    method: to_sync_method(p.kind),
                    predicted_sync_ns: p.sync_ns,
                })
                .collect(),
            None => host_table(n_blocks),
        };
        let chosen = table
            .iter()
            .fold(None::<&MethodPrediction>, |best, p| match best {
                Some(b) if b.predicted_sync_ns <= p.predicted_sync_ns => Some(b),
                _ => Some(p),
            })
            .expect("both sources fill at least the CPU-side rows")
            .clone();
        AutoDecision {
            chosen: chosen.method,
            predicted_sync_ns: chosen.predicted_sync_ns,
            measured_sync_ns: None,
            table,
        }
    }
}

/// Rounds of the empty kernel each host row is timed over: enough that
/// the first rounds' cold caches are a small share of the mean, few
/// enough that the eight launches of a first `Auto` run at a new block
/// count stay in the tens of milliseconds (DESIGN.md §9).
const PROBE_ROUNDS: usize = 32;

/// The host's table for `n` blocks, measured on first use and cached for
/// the life of the process. The lock is held across the measurement so
/// two first `Auto` launches never time their probes against each other.
fn host_table(n: usize) -> Vec<MethodPrediction> {
    static TABLES: Mutex<BTreeMap<usize, Vec<MethodPrediction>>> = Mutex::new(BTreeMap::new());
    TABLES
        .lock()
        .entry(n)
        .or_insert_with(|| time_host_rows(n))
        .clone()
}

/// Time every concrete method once at `n` blocks: the in-round time per
/// round of an empty kernel — its `t_S` and the round loop's own few
/// nanoseconds, the same under every method — through [`LaunchPlan`]
/// under the default policy, with no trace (each probe's plan observes
/// into its own throwaway observer): an unpinned plan launch on the
/// process device, which is what the `Auto` caller about to run gets. Not `sync` alone: untraced,
/// that is a sample (DESIGN.md §10), and a row that read low by chance
/// would win the table; `compute + sync` is the entry's span, exact.
fn time_host_rows(n: usize) -> Vec<MethodPrediction> {
    let kernel = (PROBE_ROUNDS, |_: &BlockCtx, _: usize| {});
    SyncMethod::PAPER_METHODS
        .iter()
        .chain(&SyncMethod::EXTENSION_METHODS)
        .map(|&method| {
            let stats = LaunchPlan::compile(GridConfig::new(n, 1), method)
                .and_then(|plan| plan.run(&kernel))
                .expect("an empty kernel under a concrete method and no timeout cannot fault");
            let in_round = stats.avg_compute() + stats.avg_sync();
            MethodPrediction {
                method,
                predicted_sync_ns: in_round.as_secs_f64() * 1e9 / PROBE_ROUNDS as f64,
            }
        })
        .collect()
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
        // The chosen row is the cheapest one.
        for row in &d.table {
            assert!(row.predicted_sync_ns >= d.predicted_sync_ns);
        }
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
    fn tuned_tree_row_carries_the_exact_argmin_group() {
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
    fn host_tuner_is_cached_and_consistent() {
        // One process-wide table per block count: two tuners, one decision.
        assert_eq!(
            AutoTuner::host().decide(3, 30),
            AutoTuner::host().decide(3, 2)
        );
    }
}
