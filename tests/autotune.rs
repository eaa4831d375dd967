//! Property-based tests of the auto-tuning layer: a model tuner's
//! selection must be exactly what the Eq. 6–9 cost model says is optimal,
//! and the host tuner's exactly what its own measured table says.
//!
//! Four invariant families:
//!
//! 1. **Tuned tree fan-out is a true argmin** — for random calibration
//!    profiles, the group size the tuner offers for the 2-level tree equals
//!    the brute-force argmin of `t_gts_grouped` over *every* valid group
//!    size.
//! 2. **`Auto` never loses to the paper's best method** — whatever it
//!    picks is predicted no worse than GPU lock-free at large `N` (and, by
//!    construction, no worse than any other table row).
//! 3. **Distinct calibration regimes flip the choice** — profiles shaped
//!    like the GTX 280, like a cheap-atomics part, and like an
//!    oversubscribed grid each select the method the model says they
//!    should.
//! 4. **The host table is measured once and argmin'd** — eight concrete
//!    rows per block count, cached for the process, the pick its first
//!    minimum; `Auto` runs it end-to-end through the real executor.

use blocksync::core::{AutoTuner, GlobalBuffer, SyncMethod, TreeLevels};
use blocksync::core::{BlockCtx, GridConfig, GridExecutor, RoundKernel};
use blocksync::device::CalibrationProfile;
use blocksync::model;
use proptest::prelude::*;

/// A random-but-plausible calibration: every primitive cost is varied over
/// an order of magnitude around hardware-shaped defaults.
fn profile(atomic: u64, read_latency: u64, poll_gap: u64, store_vis: u64) -> CalibrationProfile {
    let mut cal = CalibrationProfile::gtx280();
    cal.atomic_add_ns = atomic;
    cal.mem_read_latency_ns = read_latency;
    cal.poll_gap_ns = poll_gap;
    cal.write_visibility_ns = store_vis;
    cal
}

/// The tuned 2-level tree group size the decision table carries for `cal`.
fn tuned_group(cal: &CalibrationProfile, n: usize) -> usize {
    AutoTuner::with_profile(cal.clone())
        .decide(n, n)
        .table
        .iter()
        .find_map(|p| match p.method {
            SyncMethod::GpuTree(TreeLevels::Custom(g)) => Some(g),
            _ => None,
        })
        .expect("the decision table always carries a tuned tree row")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tuner's tree fan-out is the brute-force argmin of the grouped
    /// Eq. 7 cost over all valid group sizes, for any calibration.
    #[test]
    fn tuned_fanout_is_the_brute_force_argmin(
        atomic in 1u64..500,
        read_latency in 1u64..500,
        poll_gap in 1u64..80,
        store_vis in 1u64..200,
        n in 2usize..=64,
    ) {
        let cal = profile(atomic, read_latency, poll_gap, store_vis);
        let t_a = cal.atomic_add_ns as f64;
        let t_c = cal.poll_round_trip().as_nanos() as f64;
        let g = tuned_group(&cal, n);
        prop_assert_eq!(g, model::optimal_tree_group(n, t_a, t_c, t_c));
        let cost = model::t_gts_grouped(n, g, t_a, t_c, t_c);
        for candidate in 1..=n {
            prop_assert!(
                cost <= model::t_gts_grouped(n, candidate, t_a, t_c, t_c),
                "group {} (cost {}) beaten by group {} at n={}",
                g, cost, candidate, n
            );
        }
    }

    /// Whatever `Auto` picks at large `N` is predicted no worse than the
    /// paper's headline method (GPU lock-free) — and in fact no worse than
    /// every row of its own prediction table.
    #[test]
    fn auto_never_predicted_worse_than_lock_free(
        atomic in 1u64..500,
        read_latency in 1u64..500,
        poll_gap in 1u64..80,
        store_vis in 1u64..200,
        n in 32usize..=512,
    ) {
        let cal = profile(atomic, read_latency, poll_gap, store_vis);
        let decision = AutoTuner::with_profile(cal).decide(n, n);
        let lock_free = decision
            .table
            .iter()
            .find(|p| p.method == SyncMethod::GpuLockFree)
            .expect("lock-free is always a candidate");
        prop_assert!(decision.predicted_sync_ns <= lock_free.predicted_sync_ns);
        for row in &decision.table {
            prop_assert!(
                decision.predicted_sync_ns <= row.predicted_sync_ns,
                "auto chose {} ({} ns) but {} is cheaper ({} ns)",
                decision.chosen, decision.predicted_sync_ns,
                row.method, row.predicted_sync_ns
            );
        }
    }
}

/// Each round, every block increments its slot; a correct barrier makes
/// every slot equal the round count.
struct CountKernel {
    slots: GlobalBuffer<u32>,
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

/// Three distinct calibration regimes must select three distinct,
/// model-optimal methods (the tentpole acceptance criterion).
#[test]
fn distinct_profiles_select_distinct_optimal_methods() {
    // 1. GTX 280 at full persistent occupancy: slow atomics make the
    //    lock-free design the paper's (and the model's) winner.
    let gtx = AutoTuner::with_profile(CalibrationProfile::gtx280()).decide(30, 30);
    assert_eq!(gtx.chosen, SyncMethod::GpuLockFree);

    // 2. Cheap atomics (Fermi-style L2 atomics) at a small grid: one
    //    contended counter is cheaper than the lock-free store/poll chain.
    let mut cheap = CalibrationProfile::gtx280();
    cheap.atomic_add_ns = 5;
    let cheap = AutoTuner::with_profile(cheap).decide(8, 30);
    assert_eq!(cheap.chosen, SyncMethod::GpuSimple);

    // 3. Oversubscribed grid: past the resident ceiling no GPU-side
    //    barrier is a candidate (paper §5: it would deadlock), so the table
    //    holds the CPU-side rows only and the cheaper relaunch mode wins.
    let over = AutoTuner::with_profile(CalibrationProfile::gtx280()).decide(64, 30);
    assert_eq!(over.chosen, SyncMethod::CpuImplicit);
    assert_eq!(over.table.len(), 2);
    assert!(over.table.iter().all(|p| p.method.is_cpu_side()));

    // In every regime the choice is the cheapest row.
    for d in [&gtx, &cheap, &over] {
        let best = d
            .table
            .iter()
            .map(|p| p.predicted_sync_ns)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(d.predicted_sync_ns, best);
    }
}

/// The host tuner is a stopwatch: for any block count its table is the
/// eight concrete methods in canonical order, each with a real measured
/// cost; the pick is the table's first minimum; and a second `decide` at
/// the same count launches nothing — it reads the same `f64`s back.
#[test]
fn host_table_is_measured_once_and_the_pick_is_its_first_minimum() {
    let canonical: Vec<SyncMethod> = SyncMethod::PAPER_METHODS
        .into_iter()
        .chain(SyncMethod::EXTENSION_METHODS)
        .collect();
    for n in [1usize, 2, 5] {
        let decision = AutoTuner::host().decide(n, n);
        let methods: Vec<SyncMethod> = decision.table.iter().map(|p| p.method).collect();
        assert_eq!(methods, canonical, "n = {n}");
        for row in &decision.table {
            assert!(
                row.predicted_sync_ns.is_finite() && row.predicted_sync_ns > 0.0,
                "n = {n}: {} measured {} ns",
                row.method,
                row.predicted_sync_ns
            );
        }
        // `min_by` keeps the first of equal minima.
        let first_min = decision
            .table
            .iter()
            .min_by(|a, b| a.predicted_sync_ns.total_cmp(&b.predicted_sync_ns))
            .expect("eight rows");
        assert_eq!(decision.chosen, first_min.method, "n = {n}");
        assert_eq!(decision.predicted_sync_ns, first_min.predicted_sync_ns);
        assert!(!matches!(
            decision.chosen,
            SyncMethod::Auto | SyncMethod::NoSync
        ));
        assert_eq!(AutoTuner::host().decide(n, 30).table, decision.table);
    }
}

/// `Auto` runs end-to-end on the real executor, produces correct results,
/// and records the decision it made.
#[test]
fn auto_executes_correctly_and_records_the_decision() {
    let n_blocks = 6;
    let rounds = 200;
    let kernel = CountKernel {
        slots: GlobalBuffer::new(n_blocks),
        rounds,
    };
    let stats = GridExecutor::new(GridConfig::new(n_blocks, 64), SyncMethod::Auto)
        .run(&kernel)
        .unwrap();
    assert!(kernel.slots.to_vec().iter().all(|&v| v == rounds as u32));
    let decision = stats.auto.as_ref().expect("auto run records its decision");
    assert_eq!(stats.method, format!("auto:{}", decision.chosen));
    assert!(decision.predicted_sync_ns > 0.0);
    let chosen_row = decision
        .table
        .iter()
        .find(|p| p.method == decision.chosen)
        .expect("the pick is a row of its own table");
    assert_eq!(decision.predicted_sync_ns, chosen_row.predicted_sync_ns);
    assert!(decision.measured_sync_ns.is_some());
    assert!(decision.misprediction_ratio().unwrap() > 0.0);
}
