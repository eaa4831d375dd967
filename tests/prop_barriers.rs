//! Property-based tests of the inter-block barriers on real threads.
//!
//! Two invariant families:
//!
//! 1. **Barrier semantics with publication** — after block `b` returns from
//!    its round-`r` wait, it must observe every other block's round-`r`
//!    write, and no block may be more than one round ahead. Violations
//!    (lost rounds, early release, missing Acquire/Release edges) fail the
//!    embedded assertions.
//! 2. **Failure semantics** — a fault injected at a random (block, round)
//!    via [`FaultInjector`] must surface as a structured [`ExecError`] naming
//!    exactly that site, within the policy timeout, for *every*
//!    [`SyncMethod`]; and fault-free runs must produce bit-identical
//!    results whether or not a `SyncPolicy` is configured (the
//!    fault-tolerance plane must not perturb results).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blocksync::core::{
    stall_duration, BarrierShared, BlockCtx, ExecError, Fault, FaultInjector, FaultKind,
    FaultPhase, FaultProfile, FaultSchedule, GlobalBuffer, GridConfig, GridExecutor, RoundKernel,
    SyncMethod, SyncPolicy, TreeLevels,
};
use proptest::prelude::*;

fn method_strategy() -> impl Strategy<Value = SyncMethod> {
    prop_oneof![
        Just(SyncMethod::GpuSimple),
        Just(SyncMethod::GpuTree(TreeLevels::Two)),
        Just(SyncMethod::GpuTree(TreeLevels::Three)),
        Just(SyncMethod::GpuLockFree),
        Just(SyncMethod::SenseReversing),
        Just(SyncMethod::Dissemination),
    ]
}

/// All methods the executor can run with inter-block ordering guarantees
/// (everything except `NoSync`), including both CPU modes.
fn exec_method_strategy() -> impl Strategy<Value = SyncMethod> {
    prop_oneof![
        Just(SyncMethod::CpuExplicit),
        Just(SyncMethod::CpuImplicit),
        Just(SyncMethod::GpuSimple),
        Just(SyncMethod::GpuTree(TreeLevels::Two)),
        Just(SyncMethod::GpuTree(TreeLevels::Three)),
        Just(SyncMethod::GpuLockFree),
        Just(SyncMethod::SenseReversing),
        Just(SyncMethod::Dissemination),
    ]
}

/// Counter-phase barrier exerciser (same invariant as the in-crate
/// harness, re-stated here against the public API).
fn exercise(shared: Arc<dyn BarrierShared>, n_blocks: usize, rounds: usize) {
    let counters: Arc<Vec<AtomicU64>> =
        Arc::new((0..n_blocks).map(|_| AtomicU64::new(0)).collect());
    std::thread::scope(|s| {
        for b in 0..n_blocks {
            let shared = Arc::clone(&shared);
            let counters = Arc::clone(&counters);
            s.spawn(move || {
                let mut w = shared.waiter(b);
                for r in 0..rounds as u64 {
                    counters[b].store(r + 1, Ordering::Relaxed);
                    w.wait().expect("fault-free barrier must not fail");
                    for (other, c) in counters.iter().enumerate() {
                        let seen = c.load(Ordering::Relaxed);
                        assert!(
                            seen > r && seen <= r + 2,
                            "block {b} round {r}: block {other} at {seen}"
                        );
                    }
                }
            });
        }
    });
}

proptest! {
    // Thread-heavy cases: keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn barriers_are_correct_for_any_shape(
        method in method_strategy(),
        n_blocks in 1usize..9,
        rounds in 1usize..120,
    ) {
        let shared = method.build_barrier_with(n_blocks, SyncPolicy::default()).expect("gpu-side method");
        prop_assert_eq!(shared.num_blocks(), n_blocks);
        exercise(shared, n_blocks, rounds);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Data written before a barrier is visible after it — checked with a
    /// rotating-writer pattern: in round r, block (r mod n) writes a token;
    /// in round r+1 every block must read it.
    #[test]
    fn publication_across_rounds(
        method in method_strategy(),
        n_blocks in 2usize..7,
        rounds in 2usize..60,
    ) {
        let shared = method.build_barrier_with(n_blocks, SyncPolicy::default()).expect("gpu-side method");
        let slot = Arc::new(AtomicU64::new(u64::MAX));
        std::thread::scope(|s| {
            for b in 0..n_blocks {
                let shared = Arc::clone(&shared);
                let slot = Arc::clone(&slot);
                s.spawn(move || {
                    let mut w = shared.waiter(b);
                    for r in 0..rounds as u64 {
                        if r as usize % n_blocks == b {
                            slot.store(r * 1000 + b as u64, Ordering::Relaxed);
                        }
                        w.wait().expect("fault-free barrier must not fail");
                        let v = slot.load(Ordering::Relaxed);
                        let writer = r as usize % n_blocks;
                        assert_eq!(
                            v,
                            r * 1000 + writer as u64,
                            "block {b} after round {r} saw stale token"
                        );
                        // Second barrier so reads finish before the next write.
                        w.wait().expect("fault-free barrier must not fail");
                    }
                });
            }
        });
    }
}

/// Deterministic all-to-all kernel: logical step `t` runs as two barrier
/// rounds — phase A reads every slot and stages a mixed update, phase B
/// publishes it — so every block's result depends on every other block's
/// previous step and the outcome is a pure function of (n_blocks, steps).
struct MixKernel {
    slots: GlobalBuffer<u64>,
    scratch: GlobalBuffer<u64>,
    rounds: usize,
}

impl MixKernel {
    fn new(n_blocks: usize, steps: usize) -> Self {
        let init: Vec<u64> = (0..n_blocks).map(|b| b as u64 + 1).collect();
        MixKernel {
            slots: GlobalBuffer::from_slice(&init),
            scratch: GlobalBuffer::new(n_blocks),
            rounds: steps * 2,
        }
    }
}

impl RoundKernel for MixKernel {
    fn rounds(&self) -> usize {
        self.rounds
    }
    fn round(&self, ctx: &BlockCtx, round: usize) {
        let b = ctx.block_id;
        if round.is_multiple_of(2) {
            let mut acc = 0u64;
            for i in 0..ctx.n_blocks {
                acc = acc
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(self.slots.get(i));
            }
            self.scratch.set(b, acc.wrapping_add(b as u64));
        } else {
            self.slots.set(b, self.scratch.get(b));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A panic injected at any (block, round) must surface as
    /// `ExecError::BlockPanicked` naming exactly that site, for every
    /// method including both CPU modes — detected well within the policy
    /// timeout, never by hanging the test.
    #[test]
    fn injected_panic_is_detected_for_every_method(
        method in exec_method_strategy(),
        block in 0usize..4,
        step in 0usize..5,
    ) {
        let timeout = Duration::from_secs(20);
        let k = FaultInjector::new(MixKernel::new(4, 5), Fault::in_round(block, step, FaultKind::Panic));
        let cfg = GridConfig::new(4, 8).with_policy(SyncPolicy::with_timeout(timeout));
        let started = Instant::now();
        let err = GridExecutor::new(cfg, method).run(&k).unwrap_err();
        prop_assert!(started.elapsed() < timeout, "detection exceeded the policy timeout");
        match err {
            ExecError::BlockPanicked { block: eb, round: er, message } => {
                prop_assert_eq!((eb, er), (block, step));
                prop_assert!(message.contains("injected fault"), "{}", message);
            }
            other => panic!("{method}: expected BlockPanicked, got {other:?}"),
        }
    }

    /// The fault-tolerance plane must be invisible to healthy runs: the
    /// same kernel produces bit-identical output with the default policy
    /// (no timeout) and with a deadline armed.
    #[test]
    fn fault_free_runs_are_bit_identical_under_any_policy(
        method in exec_method_strategy(),
        n_blocks in 1usize..6,
        steps in 1usize..30,
    ) {
        let run = |policy: SyncPolicy| {
            let k = MixKernel::new(n_blocks, steps);
            GridExecutor::new(GridConfig::new(n_blocks, 8).with_policy(policy), method)
                .run(&k)
                .expect("fault-free run must succeed");
            k.slots.to_vec()
        };
        let baseline = run(SyncPolicy::default());
        let guarded = run(SyncPolicy::with_timeout(Duration::from_secs(30)));
        prop_assert_eq!(baseline, guarded);
    }

    /// Poison-cause coverage, one property: every sync method × every
    /// [`FaultKind`] at a random (block, round, phase) site must surface
    /// as the *expected* `ExecError` variant carrying the correct block
    /// and round — panics as `BlockPanicked`, stragglers and stalls as
    /// `BarrierTimeout` naming the site, and sub-timeout delays absorbed
    /// with bit-identical results.
    #[test]
    fn every_fault_kind_surfaces_as_the_expected_error(
        method in exec_method_strategy(),
        kind_sel in 0usize..4,
        in_wait in any::<bool>(),
        block in 0usize..4,
        round in 0usize..5,
    ) {
        let timeout = Duration::from_millis(100);
        let kind = match kind_sel {
            0 => FaultKind::Panic,
            1 => FaultKind::Straggler,
            2 => FaultKind::Delay(Duration::from_millis(15)),
            _ => FaultKind::Stall(stall_duration(timeout)),
        };
        // CPU-explicit relaunches per round and has no poisonable barrier
        // object, so barrier-wait injection sites do not exist for it.
        let phase = if in_wait && method != SyncMethod::CpuExplicit {
            FaultPhase::BarrierWait
        } else {
            FaultPhase::RoundBody
        };
        let fault = Fault { block, round, phase, kind };
        let k = FaultInjector::with_schedule(
            MixKernel::new(4, 5),
            FaultSchedule::new(vec![fault]),
        );
        let cfg = GridConfig::new(4, 8).with_policy(SyncPolicy::with_timeout(timeout));
        let started = Instant::now();
        let res = GridExecutor::new(cfg, method).run(&k);
        prop_assert!(
            started.elapsed() < Duration::from_secs(10),
            "{method}/{kind:?}/{phase:?}: detection too slow"
        );
        match (kind, res) {
            (FaultKind::Panic, Err(ExecError::BlockPanicked { block: eb, round: er, .. })) => {
                prop_assert_eq!((eb, er), (block, round), "{}/{:?}", method, phase);
            }
            (FaultKind::Straggler | FaultKind::Stall(_), Err(ExecError::BarrierTimeout { diagnostic })) => {
                prop_assert_eq!(diagnostic.round, round, "{}/{:?}: {}", method, phase, diagnostic);
                prop_assert!(
                    diagnostic.stragglers().contains(&block) || diagnostic.waiting_block == block,
                    "{}/{:?}: straggler unnamed: {}", method, phase, diagnostic
                );
            }
            (FaultKind::Delay(_), Ok(_)) => {
                let clean = MixKernel::new(4, 5);
                GridExecutor::new(GridConfig::new(4, 8), method)
                    .run(&clean)
                    .expect("clean reference run");
                prop_assert_eq!(
                    k.inner().slots.to_vec(),
                    clean.slots.to_vec(),
                    "{}/{:?}: delayed run diverged", method, phase
                );
            }
            (kind, other) => {
                panic!("{method}/{kind:?}/{phase:?}: unexpected outcome {other:?}");
            }
        }
    }

    /// Random multi-fault coverage of the scoped strategy: a seeded
    /// schedule of up to two concurrent faults, of any kind, at round-body
    /// or barrier-wait sites (assembly is a pooled-runtime phase, so it is
    /// not drawn) either fails the run with an error naming a scheduled
    /// site, or — delays only — leaves the output bit-identical to a clean
    /// run.
    #[test]
    fn random_fault_schedules_are_named_or_absorbed(
        method in prop_oneof![method_strategy(), Just(SyncMethod::CpuImplicit)],
        seed in any::<u64>(),
    ) {
        let timeout = Duration::from_millis(100);
        let policy = SyncPolicy::with_timeout(timeout);
        let profile = FaultProfile {
            allow_assembly: false,
            ..FaultProfile::new(4, 10, timeout)
        };
        let schedule = FaultSchedule::random(seed, &profile);
        let k = FaultInjector::with_schedule(MixKernel::new(4, 5), schedule.clone())
            .with_policy(policy);
        let cfg = GridConfig::new(4, 8).with_policy(policy);
        match GridExecutor::new(cfg, method).run(&k) {
            Err(e) => {
                prop_assert!(
                    schedule.expects_failure(),
                    "{}: benign schedule failed: `{}` vs {:?}", method, e, schedule
                );
                prop_assert!(
                    schedule.matches_error(&e),
                    "{}: error does not name a scheduled fault: `{}` vs {:?}", method, e, schedule
                );
            }
            Ok(_) => {
                prop_assert!(
                    !schedule.expects_failure(),
                    "{}: expected a failure but it succeeded: {:?}", method, schedule
                );
                let clean = MixKernel::new(4, 5);
                GridExecutor::new(GridConfig::new(4, 8), method)
                    .run(&clean)
                    .expect("clean reference run");
                prop_assert_eq!(
                    k.inner().slots.to_vec(),
                    clean.slots.to_vec(),
                    "{}: delayed run diverged: {:?}", method, schedule
                );
            }
        }
    }
}
