//! Cross-path parity: the scoped and pooled strategies are two front-ends
//! to the same launch engine (`core::launch`), so for every method the
//! pooled runtime supports, running one kernel scoped
//! (`GridExecutor::run`) and one pooled (`GridRuntime::run`) must
//! produce **bit-identical results** and **structurally equal stats** —
//! same round count, same method string, same telemetry shape (event and
//! sample counts). The only permitted difference is the pool bookkeeping
//! itself ([`KernelStats::pool`]).

use blocksync::core::{
    BlockCtx, GlobalBuffer, GridConfig, GridExecutor, GridRuntime, KernelStats, RoundKernel,
    SyncMethod, TraceConfig, TraceEventKind, TreeLevels,
};
use proptest::prelude::*;

/// Every pool-eligible method. `CpuExplicit` and `Auto` are excluded by
/// construction (`GridRuntime::supports` rejects them); `NoSync` is
/// excluded because without a barrier the stencil below is racy.
const PARITY_METHODS: [SyncMethod; 7] = [
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
/// outputs across paths certify both strategies drive the same barrier.
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

fn run_one(
    method: SyncMethod,
    pooled: bool,
    blocks: usize,
    rounds: usize,
) -> (Vec<u64>, KernelStats) {
    let cfg = GridConfig::new(blocks, 8).with_trace(TraceConfig::new());
    let k = RingStencil::new(blocks, rounds);
    let stats = if pooled {
        GridRuntime::new(cfg, method).unwrap().run(&k)
    } else {
        GridExecutor::new(cfg, method).run(&k)
    };
    (k.output(), stats.unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For every supported method and any small grid, scoped and pooled
    /// runs agree bit-for-bit and stat-for-stat.
    #[test]
    fn scoped_and_pooled_paths_agree(
        blocks in 2usize..=5,
        rounds in 1usize..=6,
        mi in 0usize..PARITY_METHODS.len(),
    ) {
        let method = PARITY_METHODS[mi];
        let (scoped_out, scoped) = run_one(method, false, blocks, rounds);
        let (pooled_out, pooled) = run_one(method, true, blocks, rounds);

        // Bit-identical results.
        prop_assert_eq!(&scoped_out, &pooled_out, "{method}: outputs diverge");

        // Structurally equal stats: one engine, two strategies.
        prop_assert_eq!(&scoped.method, &pooled.method);
        prop_assert_eq!(&scoped.method, &method.to_string());
        prop_assert_eq!(scoped.rounds, rounds);
        prop_assert_eq!(pooled.rounds, rounds);
        prop_assert_eq!(scoped.n_blocks, pooled.n_blocks);
        prop_assert_eq!(scoped.per_block.len(), pooled.per_block.len());

        // Telemetry shape parity: both paths run the same drive_block, so
        // both record the same event and sample counts.
        let (st, pt) = (
            scoped.telemetry.as_ref().expect("scoped telemetry"),
            pooled.telemetry.as_ref().expect("pooled telemetry"),
        );
        let expected_sync = (blocks * rounds) as u64;
        // The pooled path adds exactly one `Launch` assembly event per
        // block; every round-loop event comes from the shared drive_block.
        let round_events = |t: &blocksync::core::Telemetry| {
            t.events
                .iter()
                .filter(|e| !matches!(e.kind, TraceEventKind::Launch))
                .count()
        };
        prop_assert_eq!(round_events(st), round_events(pt), "{method}: event counts");
        let launches = pt
            .events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::Launch))
            .count();
        prop_assert_eq!(launches, blocks, "{method}: one Launch event per block");
        prop_assert_eq!(st.sync_ns.count(), expected_sync);
        prop_assert_eq!(pt.sync_ns.count(), expected_sync);
        prop_assert_eq!(st.rounds.len(), pt.rounds.len(), "{method}: sampled rounds");
        prop_assert_eq!(st.dropped, 0);
        prop_assert_eq!(pt.dropped, 0);

        // The one permitted difference: pool bookkeeping.
        prop_assert!(scoped.pool.is_none());
        prop_assert!(pooled.pool.is_some());
    }
}

/// Deterministic full sweep at a fixed shape, so every method is exercised
/// on every test run regardless of proptest's case sampling.
#[test]
fn parity_sweep_all_methods() {
    for method in PARITY_METHODS {
        let (s_out, s) = run_one(method, false, 4, 5);
        let (p_out, p) = run_one(method, true, 4, 5);
        assert_eq!(s_out, p_out, "{method}");
        assert_eq!(s.method, p.method, "{method}");
        assert_eq!(s.rounds, p.rounds, "{method}");
        assert!(s.pool.is_none() && p.pool.is_some(), "{method}");
    }
}
