//! Property-based tests of the simulator and the analytic model.

use blocksync::core::{SyncMethod, TreeLevels, TreeShape};
use blocksync::device::SimDuration;
use blocksync::model;
use blocksync::sim::{simulate, ClosureWorkload, ConstWorkload, SimConfig};
use proptest::prelude::*;

fn gpu_method_strategy() -> impl Strategy<Value = SyncMethod> {
    prop_oneof![
        Just(SyncMethod::GpuSimple),
        Just(SyncMethod::GpuTree(TreeLevels::Two)),
        Just(SyncMethod::GpuTree(TreeLevels::Three)),
        Just(SyncMethod::GpuLockFree),
        Just(SyncMethod::SenseReversing),
        Just(SyncMethod::Dissemination),
    ]
}

fn any_method_strategy() -> impl Strategy<Value = SyncMethod> {
    prop_oneof![
        gpu_method_strategy(),
        Just(SyncMethod::CpuExplicit),
        Just(SyncMethod::CpuImplicit),
        Just(SyncMethod::NoSync),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The simulator is bit-for-bit deterministic.
    #[test]
    fn simulation_is_deterministic(
        method in any_method_strategy(),
        n_blocks in 1usize..=30,
        rounds in 0usize..80,
        compute_ns in 0u64..5_000,
    ) {
        let w = ConstWorkload::new(SimDuration::from_nanos(compute_ns), rounds);
        let cfg = SimConfig::new(n_blocks, 64, method);
        let a = simulate(&cfg, &w);
        let b = simulate(&cfg, &w);
        prop_assert_eq!(a.total, b.total);
        prop_assert_eq!(a.per_block_sync, b.per_block_sync);
        prop_assert_eq!(a.per_block_compute, b.per_block_compute);
    }

    /// Accounting sanity: the total at least covers launch + the critical
    /// compute path, and per-block compute matches the workload exactly.
    #[test]
    fn accounting_is_conservative(
        method in any_method_strategy(),
        n_blocks in 1usize..=30,
        rounds in 1usize..60,
        compute_ns in 1u64..5_000,
    ) {
        let w = ConstWorkload::new(SimDuration::from_nanos(compute_ns), rounds);
        let r = simulate(&SimConfig::new(n_blocks, 64, method), &w);
        prop_assert!(r.total >= r.compute_reference() || method == SyncMethod::CpuExplicit,
            "total {:?} < compute ref {:?}", r.total, r.compute_reference());
        for c in &r.per_block_compute {
            prop_assert_eq!(c.as_nanos(), compute_ns * rounds as u64);
        }
    }

    /// Stragglers transfer their skew into other blocks' sync time; the
    /// kernel can never finish before the straggler's own compute path.
    #[test]
    fn straggler_dominates_total(
        method in gpu_method_strategy(),
        n_blocks in 2usize..10,
        rounds in 1usize..40,
        slow_ns in 2_000u64..20_000,
    ) {
        let w = ClosureWorkload::new(rounds, move |bid, _| {
            SimDuration::from_nanos(if bid == 0 { slow_ns } else { 100 })
        });
        let r = simulate(&SimConfig::new(n_blocks, 64, method), &w);
        prop_assert!(r.total >= SimDuration::from_nanos(slow_ns * rounds as u64));
    }

    /// More barrier rounds never make the kernel faster.
    #[test]
    fn total_time_is_monotone_in_rounds(
        method in any_method_strategy(),
        n_blocks in 1usize..=30,
        rounds in 1usize..40,
    ) {
        let w1 = ConstWorkload::from_micros(0.3, rounds);
        let w2 = ConstWorkload::from_micros(0.3, rounds + 1);
        let cfg = SimConfig::new(n_blocks, 64, method);
        prop_assert!(simulate(&cfg, &w2).total >= simulate(&cfg, &w1).total);
    }

    /// Trace invariants: per block, events alternate
    /// compute -> arrive -> release (same round), ending in KernelDone;
    /// timestamps are globally non-decreasing.
    #[test]
    fn trace_is_well_formed(
        method in gpu_method_strategy(),
        n_blocks in 1usize..10,
        rounds in 1usize..20,
    ) {
        use blocksync::sim::TraceKind;
        let w = ConstWorkload::from_micros(0.4, rounds);
        let cfg = {
            let mut c = SimConfig::new(n_blocks, 64, method);
            c.trace = true;
            c
        };
        let r = simulate(&cfg, &w);
        prop_assert!(r.trace.windows(2).all(|w| w[0].time <= w[1].time));
        for b in 0..n_blocks {
            let evs: Vec<_> = r.trace.iter().filter(|e| e.block == b).collect();
            prop_assert_eq!(evs.len(), 3 * rounds + 1);
            for (rr, chunk) in evs.chunks(3).enumerate().take(rounds) {
                let ok_compute =
                    matches!(chunk[0].kind, TraceKind::ComputeStart { round } if round == rr);
                let ok_arrive =
                    matches!(chunk[1].kind, TraceKind::BarrierArrive { round } if round == rr);
                let ok_release =
                    matches!(chunk[2].kind, TraceKind::BarrierRelease { round } if round == rr);
                prop_assert!(ok_compute && ok_arrive && ok_release, "round {} malformed", rr);
            }
            let done = matches!(evs.last().unwrap().kind, TraceKind::KernelDone);
            prop_assert!(done);
        }
    }

    /// GPU simple synchronization cost never decreases with block count
    /// (Eq. 6 is monotone).
    #[test]
    fn simple_sync_monotone_in_blocks(n in 1usize..30) {
        let w = ConstWorkload::from_micros(0.5, 40);
        let s = |n: usize| {
            simulate(&SimConfig::new(n, 64, SyncMethod::GpuSimple), &w)
                .sync_per_round()
        };
        prop_assert!(s(n + 1) >= s(n), "N={n}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Eq. 8 grouping always partitions the blocks.
    #[test]
    fn tree_group_sizes_partition(n in 1usize..512) {
        let sizes = model::tree_group_sizes(n);
        prop_assert_eq!(sizes.iter().sum::<usize>(), n);
        prop_assert!(sizes.iter().all(|&s| s > 0));
        // Group count is ceil(sqrt(n)) or one less (empty last group dropped).
        let m = (n as f64).sqrt().ceil() as usize;
        prop_assert!(sizes.len() == m || sizes.len() + 1 == m);
    }

    /// Every level of every tree shape partitions its participants with
    /// exactly one leader per group, the root takes the last level's
    /// groups, and Eq. 7 prices the shape the 2-level barrier runs.
    #[test]
    fn tree_shape_partitions_every_level(n in 1usize..512, g in 0usize..600) {
        for depth in [TreeLevels::Two, TreeLevels::Three, TreeLevels::Custom(g)] {
            let shape = TreeShape::new(n, depth);
            prop_assert_eq!(shape.levels.len() + 1, depth.depth());
            let mut participants = n;
            for level in &shape.levels {
                prop_assert_eq!(level.group_of.len(), participants);
                prop_assert_eq!(level.leader.len(), participants);
                prop_assert_eq!(level.sizes.iter().sum::<usize>(), participants);
                for (group, &size) in level.sizes.iter().enumerate() {
                    let members = (0..participants).filter(|&p| level.group_of[p] == group);
                    prop_assert_eq!(members.clone().count(), size);
                    prop_assert_eq!(members.filter(|&p| level.leader[p]).count(), 1);
                }
                participants = level.sizes.len();
            }
            prop_assert_eq!(shape.root_width, participants);
        }
        let two = TreeShape::new(n, TreeLevels::Two);
        let n_hat = two.levels[0].sizes.iter().max().expect("a level has a group");
        prop_assert_eq!(model::t_gts(n, 1.0, 0.0, 0.0), (n_hat + two.root_width) as f64);
    }

    /// Eq. 2 is bounded by 1/rho and reaches 1 at S_S = 1.
    #[test]
    fn speedup_bounds(rho in 0.01f64..1.0, ss in 1.0f64..1_000.0) {
        let s = model::kernel_speedup(rho, ss);
        prop_assert!(s >= 1.0 - 1e-12);
        prop_assert!(s <= model::max_speedup(rho) + 1e-12);
    }

    /// Eq. 6 is exactly linear; fitting recovers its constants.
    #[test]
    fn fit_recovers_eq6(t_a in 1.0f64..500.0, t_c in 0.0f64..2_000.0) {
        let samples: Vec<(f64, f64)> =
            (1..=30).map(|n| (n as f64, model::t_gss(n, t_a, t_c))).collect();
        let fit = model::fit_line(&samples);
        prop_assert!((fit.slope - t_a).abs() < 1e-6);
        prop_assert!((fit.intercept - t_c).abs() < 1e-3);
    }

    /// The time types round-trip through arithmetic.
    #[test]
    fn sim_time_arithmetic(a in 0u64..1 << 40, b in 0u64..1 << 40) {
        use blocksync::device::SimTime;
        let t = SimTime(a) + SimDuration(b);
        prop_assert_eq!(t.since(SimTime(a)), SimDuration(b));
        prop_assert_eq!(t - SimDuration(b), SimTime(a));
    }
}
