//! Plan/runtime parity: a "cold" launch here is a `LaunchPlan::run`, a
//! fresh grid on the process's one device for the call, a warm one is a
//! later launch of a kept grid (`GridRuntime::run`), and both drive the
//! same engine (`core::launch`). So for every method, one kernel run
//! through the plan and one run as the second launch of a `GridRuntime`
//! must produce **bit-identical results** and **structurally equal
//! stats** — same round count, same method string, same telemetry shape
//! (event and sample counts, one `Launch` event per block per log entry
//! on both sides). The only permitted difference is the launch's place in
//! the device's log ([`KernelStats::pool`]).

use blocksync::core::{
    BlockCtx, GlobalBuffer, GridConfig, GridRuntime, KernelStats, LaunchPlan, RoundKernel,
    SyncMethod, Telemetry, TraceConfig, TraceEventKind, TreeLevels,
};
use proptest::prelude::*;

/// Every concrete method but `NoSync`, which is excluded because without
/// a barrier the stencil below is racy.
const PARITY_METHODS: [SyncMethod; 8] = [
    SyncMethod::CpuExplicit,
    SyncMethod::GpuSimple,
    SyncMethod::GpuTree(TreeLevels::Two),
    SyncMethod::GpuTree(TreeLevels::Three),
    SyncMethod::GpuLockFree,
    SyncMethod::SenseReversing,
    SyncMethod::Dissemination,
    SyncMethod::CpuImplicit,
];

/// A ring stencil over two generations: each round, every block reads its
/// neighbours' previous-generation values and mixes them into its own slot
/// of the next generation. The result is deterministic **only** if the
/// inter-block barrier actually separates generations, so bit-identical
/// outputs across launches certify both drive the same barrier.
struct RingStencil {
    gen: [GlobalBuffer<u64>; 2],
    n: usize,
    rounds: usize,
}

impl RingStencil {
    fn new(n: usize, rounds: usize) -> Self {
        let a = GlobalBuffer::new(n);
        for b in 0..n {
            a.set(b, b as u64 + 1);
        }
        RingStencil {
            gen: [a, GlobalBuffer::new(n)],
            n,
            rounds,
        }
    }

    fn output(&self) -> Vec<u64> {
        self.gen[self.rounds % 2].to_vec()
    }
}

impl RoundKernel for RingStencil {
    fn rounds(&self) -> usize {
        self.rounds
    }
    fn round(&self, ctx: &BlockCtx, round: usize) {
        let (cur, next) = (&self.gen[round % 2], &self.gen[(round + 1) % 2]);
        let b = ctx.block_id;
        let left = cur.get((b + self.n - 1) % self.n);
        let right = cur.get((b + 1) % self.n);
        next.set(
            b,
            cur.get(b)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(left ^ right.rotate_left(17)),
        );
    }
}

/// The stencil once through the plan and once as the second launch of a
/// kept grid, each with its output.
type Run = (Vec<u64>, KernelStats);

fn cold_and_warm(method: SyncMethod, blocks: usize, rounds: usize) -> (Run, Run) {
    let cfg = GridConfig::new(blocks, 8).with_trace(TraceConfig::new());
    let k = RingStencil::new(blocks, rounds);
    let cold = LaunchPlan::compile(cfg.clone(), method).and_then(|plan| plan.run(&k));
    let cold = (k.output(), cold.unwrap());
    let rt = GridRuntime::new(cfg, method).unwrap();
    rt.run(&RingStencil::new(blocks, rounds)).unwrap();
    let k = RingStencil::new(blocks, rounds);
    let warm = rt.run(&k).unwrap();
    (cold, (k.output(), warm))
}

fn launch_events(t: &Telemetry) -> usize {
    t.count(TraceEventKind::Launch)
}

/// Log entries one launch of `rounds` rounds takes: one per round under
/// the CPU methods, one otherwise.
fn entries(method: SyncMethod, rounds: usize) -> usize {
    if method.is_cpu_side() {
        rounds
    } else {
        1
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For every supported method and any small grid, a cold launch and a
    /// warm one agree bit-for-bit and stat-for-stat.
    #[test]
    fn scoped_and_pooled_paths_agree(
        blocks in 2usize..=5,
        rounds in 1usize..=6,
        mi in 0usize..PARITY_METHODS.len(),
    ) {
        let method = PARITY_METHODS[mi];
        let ((cold_out, cold), (warm_out, warm)) = cold_and_warm(method, blocks, rounds);

        // Bit-identical results.
        prop_assert_eq!(&cold_out, &warm_out, "{method}: outputs diverge");

        // Structurally equal stats: one engine, one strategy.
        prop_assert_eq!(&cold.method, &warm.method);
        prop_assert_eq!(&cold.method, &method.to_string());
        prop_assert_eq!(cold.rounds, rounds);
        prop_assert_eq!(warm.rounds, rounds);
        prop_assert_eq!(cold.n_blocks, warm.n_blocks);
        prop_assert_eq!(cold.per_block.len(), warm.per_block.len());

        // Telemetry shape parity: the same events and samples, including
        // one `Launch` assembly event per block per log entry on both sides.
        let (ct, wt) = (
            cold.telemetry.as_ref().expect("cold telemetry"),
            warm.telemetry.as_ref().expect("warm telemetry"),
        );
        let expected_sync = (blocks * rounds) as u64;
        let launches = blocks * entries(method, rounds);
        prop_assert_eq!(ct.events.len(), wt.events.len(), "{method}: event counts");
        prop_assert_eq!(launch_events(ct), launches, "{method}: Launch events");
        prop_assert_eq!(launch_events(wt), launches, "{method}: Launch events");
        prop_assert_eq!(ct.sync_ns.count(), expected_sync);
        prop_assert_eq!(wt.sync_ns.count(), expected_sync);
        prop_assert_eq!(ct.rounds.len(), wt.rounds.len(), "{method}: sampled rounds");
        prop_assert_eq!(ct.dropped, 0);
        prop_assert_eq!(wt.dropped, 0);

        // The one permitted difference: the launch's place in the
        // device's log, after the plan launch's and the grid's first
        // launch's entries (and whatever concurrent tests appended). Only
        // the process's first launch is cold.
        let (cp, wp) = (cold.pool.as_deref().unwrap(), warm.pool.as_deref().unwrap());
        let after = 2 * entries(method, rounds) as u64;
        prop_assert!(cp.cold == (cp.launch_seq == 0), "{method}: {cp:?}");
        prop_assert!(!wp.cold && wp.launch_seq >= cp.launch_seq + after, "{method}: {wp:?}");
    }
}

/// Deterministic full sweep at a fixed shape, so every method is exercised
/// on every test run regardless of proptest's case sampling.
#[test]
fn parity_sweep_all_methods() {
    for method in PARITY_METHODS {
        let ((c_out, c), (w_out, w)) = cold_and_warm(method, 4, 5);
        assert_eq!(c_out, w_out, "{method}");
        assert_eq!(c.method, w.method, "{method}");
        assert_eq!(c.rounds, w.rounds, "{method}");
        let events = |s: &KernelStats| s.telemetry.as_deref().map(|t| t.events.len());
        assert_eq!(events(&c), events(&w), "{method}");
        let (cp, wp) = (c.pool.as_deref().unwrap(), w.pool.as_deref().unwrap());
        let after = 2 * entries(method, 5) as u64;
        assert_eq!(cp.cold, cp.launch_seq == 0, "{method}: {cp:?}");
        assert!(
            !wp.cold && wp.launch_seq >= cp.launch_seq + after,
            "{method}: {wp:?}"
        );
    }
}

/// CPU-explicit on a warm pool is one log entry per round: the plan
/// launch and the grid's first launch took `rounds` sequence numbers
/// each, the second's pool stats are its round 0's, every round records a
/// `Launch`, `BarrierArrive` and `BarrierDepart` per block, and the result
/// is a barrier method's, bit for bit.
#[test]
fn cpu_explicit_is_one_warm_launch_per_round() {
    let (blocks, rounds) = (3, 7);
    let ((_, cold), (explicit, stats)) = cold_and_warm(SyncMethod::CpuExplicit, blocks, rounds);
    let (_, (simple, _)) = cold_and_warm(SyncMethod::GpuSimple, blocks, rounds);
    assert_eq!(explicit, simple);
    let seq = |s: &KernelStats| s.pool.as_deref().unwrap().launch_seq;
    assert!(seq(&stats) >= seq(&cold) + 2 * rounds as u64);
    let t = stats.telemetry.as_deref().unwrap();
    for kind in [
        TraceEventKind::Launch,
        TraceEventKind::BarrierArrive,
        TraceEventKind::BarrierDepart,
    ] {
        assert_eq!(t.count(kind), blocks * rounds, "{kind:?}");
    }
}
