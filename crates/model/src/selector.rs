//! Model-driven method selection: the analytic half of `SyncMethod::Auto`.
//!
//! Given a [`CalibrationProfile`] (paper-fitted or what-if) and a block
//! count, predict the per-round barrier/sync cost of
//! every method the runtime offers (Eqs. 6–9 plus the extension barriers)
//! and pick the cheapest one. The tree entry carries an explicit group size
//! from the exact Eq. 8 argmin ([`crate::equations::optimal_tree_group`])
//! rather than the `ceil(sqrt(N))` closed form.
//!
//! This module is pure algebra — it knows nothing about `blocksync-core`'s
//! barrier objects. `blocksync_core::autotune` maps [`MethodKind`] onto
//! concrete `SyncMethod` values.

use blocksync_device::CalibrationProfile;

use crate::equations::{
    optimal_tree_group, t_dissemination, t_gls, t_gss, t_gts, t_gts3, t_gts_grouped, t_sense,
};

/// The selectable synchronization methods, mirroring
/// `blocksync_core::SyncMethod` minus `NoSync` (not a barrier) and with the
/// tree's group size made explicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodKind {
    /// Eq. 3 — relaunch + `cudaThreadSynchronize()` per round.
    CpuExplicit,
    /// Eq. 4 — pipelined relaunch per round.
    CpuImplicit,
    /// Eq. 6 — one mutex, `N` serialized atomics.
    GpuSimple,
    /// Eq. 7 — 2-level tree with the paper's Eq. 8 `ceil(sqrt(N))` grouping.
    GpuTree2,
    /// Eq. 7 generalized — 2-level tree with an explicit tuned group size.
    GpuTree2Tuned {
        /// Leaf group size (blocks per level-1 mutex).
        group: usize,
    },
    /// 3-level tree, fan-out `ceil(cbrt(N))`.
    GpuTree3,
    /// Eq. 9 — lock-free in/out flag arrays.
    GpuLockFree,
    /// Extension: sense-reversing centralized barrier.
    SenseReversing,
    /// Extension: dissemination (butterfly) barrier.
    Dissemination,
}

impl MethodKind {
    /// Canonical name, matching `SyncMethod`'s `Display` form where a
    /// counterpart exists (`gpu-tree-tuned` is selector-only).
    pub fn name(self) -> String {
        match self {
            MethodKind::CpuExplicit => "cpu-explicit".into(),
            MethodKind::CpuImplicit => "cpu-implicit".into(),
            MethodKind::GpuSimple => "gpu-simple".into(),
            MethodKind::GpuTree2 => "gpu-tree-2".into(),
            MethodKind::GpuTree2Tuned { group } => format!("gpu-tree-g{group}"),
            MethodKind::GpuTree3 => "gpu-tree-3".into(),
            MethodKind::GpuLockFree => "gpu-lock-free".into(),
            MethodKind::SenseReversing => "sense-reversing".into(),
            MethodKind::Dissemination => "dissemination".into(),
        }
    }

    /// Whether the method runs a device-side barrier inside one persistent
    /// kernel (and is therefore bound by the one-block-per-SM limit).
    pub fn is_gpu_side(self) -> bool {
        !matches!(self, MethodKind::CpuExplicit | MethodKind::CpuImplicit)
    }
}

/// The candidate set evaluated for a given block count `n`: every fixed
/// method plus the tuned tree at its exact-argmin group size.
pub fn candidates(cal: &CalibrationProfile, n: usize) -> Vec<MethodKind> {
    let t_a = cal.atomic_add_ns as f64;
    let t_c = cal.poll_round_trip().as_nanos() as f64;
    vec![
        MethodKind::CpuExplicit,
        MethodKind::CpuImplicit,
        MethodKind::GpuSimple,
        MethodKind::GpuTree2,
        MethodKind::GpuTree2Tuned {
            group: optimal_tree_group(n, t_a, t_c, t_c),
        },
        MethodKind::GpuTree3,
        MethodKind::GpuLockFree,
        MethodKind::SenseReversing,
        MethodKind::Dissemination,
    ]
}

/// Predicted per-round synchronization cost (ns) of `kind` at `n` blocks
/// under `cal` — Eq. 6/7/9 for the paper's barriers (as in
/// [`crate::predict::barrier_cost_ns`]), per-round relaunch overheads for
/// the CPU methods, and first-order chains for the extensions.
pub fn predicted_sync_ns(cal: &CalibrationProfile, kind: MethodKind, n: usize) -> f64 {
    let t_a = cal.atomic_add_ns as f64;
    let t_c = cal.poll_round_trip().as_nanos() as f64;
    let store = (cal.mem_write_service_ns + cal.write_visibility_ns) as f64;
    match kind {
        MethodKind::CpuExplicit => cal.explicit_round_overhead_ns as f64,
        MethodKind::CpuImplicit => cal.implicit_round_overhead_ns as f64,
        MethodKind::GpuSimple => t_gss(n, t_a, t_c),
        MethodKind::GpuTree2 => t_gts(n, t_a, t_c, t_c),
        MethodKind::GpuTree2Tuned { group } => t_gts_grouped(n, group, t_a, t_c, t_c),
        MethodKind::GpuTree3 => t_gts3(n, t_a, t_c),
        MethodKind::GpuLockFree => t_gls(store, t_c, cal.syncthreads_ns as f64, store, t_c),
        MethodKind::SenseReversing => t_sense(n, t_a, store, t_c),
        MethodKind::Dissemination => t_dissemination(n, store, t_c),
    }
}

/// One row of the prediction table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// The method this row prices.
    pub kind: MethodKind,
    /// Predicted per-round sync cost, ns.
    pub sync_ns: f64,
}

/// Structured selection failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectorError {
    /// `n == 0`: no grid to synchronize.
    EmptyGrid,
}

impl std::fmt::Display for SelectorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectorError::EmptyGrid => write!(f, "cannot select a sync method for 0 blocks"),
        }
    }
}

impl std::error::Error for SelectorError {}

/// The full prediction table for `n` blocks. `max_gpu_blocks` is the
/// device's resident-block ceiling (`GpuSpec::max_persistent_blocks`): a
/// grid beyond it has no GPU-side rows, because resident blocks are
/// non-preemptive and a device-side barrier among more blocks than fit at
/// once deadlocks (paper §5). The CPU-side rows are always present.
pub fn prediction_table(
    cal: &CalibrationProfile,
    n: usize,
    max_gpu_blocks: usize,
) -> Vec<Prediction> {
    candidates(cal, n)
        .into_iter()
        .filter(|kind| !kind.is_gpu_side() || n <= max_gpu_blocks)
        .map(|kind| Prediction {
            kind,
            sync_ns: predicted_sync_ns(cal, kind, n),
        })
        .collect()
}

/// The cheapest row of a prediction table, ties resolving to the earlier
/// row (the paper's ordering, so established methods win ties against
/// extensions). `None` only for an empty slice.
pub fn cheapest(table: &[Prediction]) -> Option<Prediction> {
    table.iter().fold(None::<Prediction>, |best, p| match best {
        Some(b) if b.sync_ns <= p.sync_ns => Some(b),
        _ => Some(*p),
    })
}

/// Pick the cheapest method for `n` blocks: the argmin of the prediction
/// table, which past `max_gpu_blocks` holds the CPU-side methods only.
pub fn select(
    cal: &CalibrationProfile,
    n: usize,
    max_gpu_blocks: usize,
) -> Result<Prediction, SelectorError> {
    if n == 0 {
        return Err(SelectorError::EmptyGrid);
    }
    Ok(cheapest(&prediction_table(cal, n, max_gpu_blocks))
        .expect("the CPU-side rows are always present"))
}

/// First block count in `2..=max_n` at which `a` becomes strictly more
/// expensive than `b` (the generalization of
/// [`crate::predict::simple_vs_implicit_crossover`] to any method pair).
/// `None` if `a` never crosses `b` in range.
pub fn crossover(
    cal: &CalibrationProfile,
    a: MethodKind,
    b: MethodKind,
    max_n: usize,
) -> Option<usize> {
    (2..=max_n).find(|&n| predicted_sync_ns(cal, a, n) > predicted_sync_ns(cal, b, n))
}

/// All pairwise crossovers among the fixed-shape methods (the tuned tree is
/// excluded: its group size changes with `n`, so a single crossover point
/// is not well defined; use [`crossover`] with explicit kinds if needed).
/// Returns `(a, b, first n where a overtakes b)` for every ordered pair
/// that does cross in `2..=max_n`.
pub fn crossover_table(
    cal: &CalibrationProfile,
    max_n: usize,
) -> Vec<(MethodKind, MethodKind, usize)> {
    const FIXED: [MethodKind; 8] = [
        MethodKind::CpuExplicit,
        MethodKind::CpuImplicit,
        MethodKind::GpuSimple,
        MethodKind::GpuTree2,
        MethodKind::GpuTree3,
        MethodKind::GpuLockFree,
        MethodKind::SenseReversing,
        MethodKind::Dissemination,
    ];
    let mut out = Vec::new();
    for &a in &FIXED {
        for &b in &FIXED {
            if a == b {
                continue;
            }
            // Only report pairs where a starts cheaper (or equal) and is
            // overtaken — the interesting "method flips with scale" points.
            if predicted_sync_ns(cal, a, 2) <= predicted_sync_ns(cal, b, 2) {
                if let Some(n) = crossover(cal, a, b, max_n) {
                    out.push((a, b, n));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::{barrier_cost_ns, simple_vs_implicit_crossover, BarrierKind};

    #[test]
    fn predictions_match_predict_module_for_paper_barriers() {
        let cal = CalibrationProfile::gtx280();
        for n in [2usize, 8, 30] {
            assert_eq!(
                predicted_sync_ns(&cal, MethodKind::GpuSimple, n),
                barrier_cost_ns(&cal, BarrierKind::Simple, n)
            );
            assert_eq!(
                predicted_sync_ns(&cal, MethodKind::GpuTree2, n),
                barrier_cost_ns(&cal, BarrierKind::Tree2, n)
            );
            assert_eq!(
                predicted_sync_ns(&cal, MethodKind::GpuLockFree, n),
                barrier_cost_ns(&cal, BarrierKind::LockFree, n)
            );
        }
    }

    #[test]
    fn gtx280_picks_lock_free_at_thirty_blocks() {
        // The paper's headline: at full occupancy the lock-free barrier is
        // the fastest method on the GTX 280.
        let cal = CalibrationProfile::gtx280();
        let pick = select(&cal, 30, 30).unwrap();
        assert_eq!(pick.kind, MethodKind::GpuLockFree);
    }

    #[test]
    fn past_the_resident_ceiling_no_gpu_side_method_is_a_candidate() {
        for cal in [
            CalibrationProfile::gtx280(),
            CalibrationProfile::fermi_class(),
            CalibrationProfile::unit(),
        ] {
            assert_eq!(prediction_table(&cal, 30, 30).len(), 9);
            for n in [31usize, 64, 480] {
                let table = prediction_table(&cal, n, 30);
                let kinds: Vec<MethodKind> = table.iter().map(|p| p.kind).collect();
                assert_eq!(
                    kinds,
                    [MethodKind::CpuExplicit, MethodKind::CpuImplicit],
                    "n={n}"
                );
                assert!(!select(&cal, n, 30).unwrap().kind.is_gpu_side(), "n={n}");
            }
        }
        // However ruinous a relaunch is priced, the ceiling is not for sale.
        let mut cal = CalibrationProfile::gtx280();
        cal.implicit_round_overhead_ns = 1_000_000;
        cal.explicit_round_overhead_ns = 2_000_000;
        assert_eq!(select(&cal, 64, 30).unwrap().kind, MethodKind::CpuImplicit);
    }

    #[test]
    fn selection_failures_are_structured() {
        let cal = CalibrationProfile::gtx280();
        assert_eq!(select(&cal, 0, 30), Err(SelectorError::EmptyGrid));
        assert_eq!(cheapest(&[]), None);
    }

    #[test]
    fn cheap_atomics_make_the_simple_barrier_win_small_grids() {
        // A profile where atomics are nearly free but every store's
        // visibility delay is large: the single-chain simple barrier beats
        // the lock-free design's two store+check phases.
        let mut cal = CalibrationProfile::gtx280();
        cal.atomic_add_ns = 5;
        let pick = select(&cal, 8, 30).unwrap();
        assert_eq!(pick.kind, MethodKind::GpuSimple);
    }

    #[test]
    fn tuned_tree_never_loses_to_eq8_grouping() {
        let cal = CalibrationProfile::gtx280();
        for n in 1..=30 {
            let table = prediction_table(&cal, n, 30);
            let tree2 = table
                .iter()
                .find(|p| p.kind == MethodKind::GpuTree2)
                .unwrap();
            let tuned = table
                .iter()
                .find(|p| matches!(p.kind, MethodKind::GpuTree2Tuned { .. }))
                .unwrap();
            assert!(
                tuned.sync_ns <= tree2.sync_ns,
                "n={n}: tuned {} > eq8 {}",
                tuned.sync_ns,
                tree2.sync_ns
            );
        }
    }

    #[test]
    fn crossover_generalizes_the_figure_11_point() {
        let cal = CalibrationProfile::gtx280();
        let n = crossover(&cal, MethodKind::GpuSimple, MethodKind::CpuImplicit, 4096)
            .expect("simple crosses implicit");
        assert_eq!(n, simple_vs_implicit_crossover(&cal));
    }

    #[test]
    fn crossover_table_contains_simple_vs_implicit() {
        let cal = CalibrationProfile::gtx280();
        let table = crossover_table(&cal, 256);
        assert!(table
            .iter()
            .any(|&(a, b, _)| a == MethodKind::GpuSimple && b == MethodKind::CpuImplicit));
        // Every reported crossover is a real sign flip.
        for &(a, b, n) in &table {
            assert!(predicted_sync_ns(&cal, a, n) > predicted_sync_ns(&cal, b, n));
            assert!(predicted_sync_ns(&cal, a, n - 1) <= predicted_sync_ns(&cal, b, n - 1));
        }
    }

    #[test]
    fn names_are_unique_within_a_table() {
        let cal = CalibrationProfile::gtx280();
        let mut names: Vec<String> = prediction_table(&cal, 30, 30)
            .iter()
            .map(|p| p.kind.name())
            .collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
