//! Fault injection for exercising the runtime's failure semantics.
//!
//! The plane is a composable [`FaultSchedule`]: any number of concurrent
//! [`Fault`]s, each naming a (block, round) site, a [`FaultKind`], and a
//! [`FaultPhase`] — the round body, *inside the barrier wait* (after a
//! block's round body, before its arrival is published, fired by the
//! launch engine's round loop; under CPU-implicit, on the way into the
//! kernel boundary), or during pooled assembly at the
//! [`crate::GridRuntime`] launch gate.
//! Schedules can be built explicitly or generated reproducibly from a
//! single `u64` seed ([`FaultSchedule::random`]), which is what the chaos
//! soak harness ([`crate::chaos`]) logs so any red run replays with one
//! command.
//!
//! Wrapping any [`RoundKernel`] in a [`FaultInjector`] makes the scheduled
//! sites misbehave while every other block runs the real kernel. The
//! integration suite (`tests/fault_injection.rs`), the property tests
//! (`tests/prop_barriers.rs`), and the chaos harness drive every
//! [`crate::SyncMethod`] through injected panics, delays, stalls, and
//! stragglers and assert that the executor reports the structured
//! [`crate::ExecError`] naming a scheduled site — within the policy
//! timeout, never by hanging.
//!
//! ## Multi-fault ordering
//!
//! Barrier poisoning is first-writer-wins, so when several faults fire in
//! one launch the error is deterministic: the fault that poisons first is
//! reported. Faults at an earlier round always win (later-round blocks
//! unwind at the earlier barrier); among same-round origin failures a
//! block's own panic is reported before a block's own timeout, then the
//! lowest block id (`collect_block_results`).
//! [`FaultSchedule::matches_error`] accepts any scheduled site, so
//! assertions stay stable under either winner.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::barrier::{BarrierShared, PoisonCause, SyncPolicy};
use crate::error::{ExecError, StuckPhase};
use crate::executor::{AbortSignal, BlockCtx, RoundKernel};

/// What the faulty block does when it reaches the planned site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic (simulates a kernel bug / device fault).
    Panic,
    /// Sleep for the given duration before doing the round's work
    /// (simulates a transient slowdown; must NOT fail the run unless the
    /// delay exceeds the policy timeout).
    Delay(Duration),
    /// Never finish the round: spin until the run's [`AbortSignal`] is
    /// raised (simulates an infinite loop in kernel code that honours
    /// cooperative cancellation).
    Straggler,
    /// Sleep for the given duration while **ignoring** the abort signal
    /// (simulates kernel code stuck in a syscall or foreign spin loop).
    /// Unlike a detached `loop {}`, the thread wakes up afterwards and
    /// exits cleanly, so soak tests can exercise the pooled runtime's
    /// abandon-and-replace path thousands of times without leaking a
    /// thread per fault. Size the duration safely past
    /// `timeout + abandon grace` (see [`stall_duration`]).
    Stall(Duration),
}

/// Where in the launch pipeline a [`Fault`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPhase {
    /// Inside the kernel's round body.
    #[default]
    RoundBody,
    /// Inside the barrier wait, after the round body but before the
    /// block's arrival is published — peers observe the block as
    /// never-arrived. Fired by the launch engine's round loop. Under
    /// [`crate::SyncMethod::CpuImplicit`], whose rounds meet at the pool's
    /// kernel boundary, it fires on the block's worker after the round's
    /// bodies and before the worker checks in at the next round's gate (in
    /// the last round, before the host's join sees it), so a straggler or
    /// stall there is named in [`StuckPhase::Assembly`].
    /// [`crate::SyncMethod::CpuExplicit`] and
    /// [`crate::SyncMethod::NoSync`] cannot host this phase.
    BarrierWait,
    /// During pooled assembly: the block never checks in at the
    /// [`crate::GridRuntime`] launch gate, before any round runs. Every
    /// launch runs on a pool and has this phase — under the CPU methods,
    /// in its first round's launch only. On a folded launch the block's
    /// worker does not check in either: it fires the assembly faults of
    /// the blocks it hosts in turn, before the gate.
    Assembly,
}

/// One scheduled fault: a (block, round) site, the [`FaultPhase`] it fires
/// in, and how it misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Block that misbehaves.
    pub block: usize,
    /// Round (0-based) in which it misbehaves. Ignored for
    /// [`FaultPhase::Assembly`] (assembly happens before round 0).
    pub round: usize,
    /// Where in the launch pipeline it fires.
    pub phase: FaultPhase,
    /// How it misbehaves.
    pub kind: FaultKind,
}

impl Fault {
    /// A fault in the round body of (block, round).
    pub fn in_round(block: usize, round: usize, kind: FaultKind) -> Self {
        Fault {
            block,
            round,
            phase: FaultPhase::RoundBody,
            kind,
        }
    }

    /// A fault inside the barrier wait of (block, round).
    pub fn in_wait(block: usize, round: usize, kind: FaultKind) -> Self {
        Fault {
            block,
            round,
            phase: FaultPhase::BarrierWait,
            kind,
        }
    }

    /// A fault during pooled assembly of `block` (before round 0).
    pub fn in_assembly(block: usize, kind: FaultKind) -> Self {
        Fault {
            block,
            round: 0,
            phase: FaultPhase::Assembly,
            kind,
        }
    }

    /// Whether this fault alone must fail the launch. A [`FaultKind::Delay`]
    /// is benign (absorbed, as long as it stays under the policy timeout);
    /// everything else kills the launch.
    pub fn is_fatal(&self) -> bool {
        !matches!(self.kind, FaultKind::Delay(_))
    }
}

/// How long an injected cooperative [`FaultKind::Straggler`] waits for the
/// abort signal before it gives up on its own. With a timeout set the
/// straggler is released by its peers' expiry at `timeout`, so this only
/// decides anything under an unbounded policy, where it keeps a test run
/// that forgot its timeout from hanging: 30 s. Under a bounded policy it
/// sits far enough above `timeout` (20× + 1 s) never to race a real
/// deadline.
pub(crate) fn effective_backstop(policy: &SyncPolicy) -> Duration {
    policy
        .timeout
        .map_or(Duration::from_secs(30), |t| t * 20 + Duration::from_secs(1))
}

/// A stall duration guaranteed to outlive the pooled runtime's
/// abandon-and-replace window for `timeout`: the worker is still stuck
/// when the host gives up on it (so the replacement path runs), yet wakes
/// soon after and exits cleanly. Used by [`FaultSchedule::random`] to size
/// [`FaultKind::Stall`] faults.
pub fn stall_duration(timeout: Duration) -> Duration {
    timeout + SyncPolicy::with_timeout(timeout).abandon_grace() + Duration::from_millis(500)
}

/// Shape of the schedules [`FaultSchedule::random`] draws: the grid it
/// must fit and the policy timeout its delays/stalls are sized against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultProfile {
    /// Blocks in the target grid (faults land on distinct blocks).
    pub n_blocks: usize,
    /// Rounds per launch (fault rounds are drawn below this).
    pub rounds: usize,
    /// The policy timeout the launch will run under; delays are sized
    /// safely below it and stalls safely above `timeout + abandon grace`.
    pub timeout: Duration,
    /// Upper bound on concurrent faults per schedule (at least 1; also
    /// capped at `n_blocks - 1` so a healthy peer always remains to
    /// observe and report the fault).
    pub max_faults: usize,
    /// Whether [`FaultPhase::Assembly`] faults may be drawn.
    pub allow_assembly: bool,
}

impl FaultProfile {
    /// Profile for an `n_blocks` × `rounds` grid under `timeout`, allowing
    /// up to two concurrent faults in any phase.
    pub fn new(n_blocks: usize, rounds: usize, timeout: Duration) -> Self {
        FaultProfile {
            n_blocks,
            rounds,
            timeout,
            max_faults: 2,
            allow_assembly: true,
        }
    }
}

/// A composable set of concurrent [`Fault`]s for one launch.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSchedule {
    faults: Vec<Fault>,
}

impl FaultSchedule {
    /// Schedule exactly these faults.
    pub fn new(faults: Vec<Fault>) -> Self {
        FaultSchedule { faults }
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// The first fault scheduled for (`block`, `round`) in `phase`.
    pub fn fault_at(&self, block: usize, round: usize, phase: FaultPhase) -> Option<&Fault> {
        self.faults.iter().find(|f| {
            f.block == block
                && f.phase == phase
                && (f.round == round || f.phase == FaultPhase::Assembly)
        })
    }

    /// Whether any scheduled fault fires in `phase`.
    pub fn has_phase(&self, phase: FaultPhase) -> bool {
        self.faults.iter().any(|f| f.phase == phase)
    }

    /// Whether this schedule must fail the launch (any fault other than a
    /// benign delay).
    pub fn expects_failure(&self) -> bool {
        self.faults.iter().any(Fault::is_fatal)
    }

    /// Reproducible random schedule: the same `(seed, profile)` always
    /// yields the same faults, so one logged `u64` replays a soak failure
    /// exactly. Draws 1..=`max_faults` faults on **distinct** blocks
    /// (never all of them — at least one healthy block remains to report),
    /// mixing phases and kinds; delays are sized below the profile
    /// timeout, stalls past the abandon window (see [`stall_duration`]).
    pub fn random(seed: u64, profile: &FaultProfile) -> Self {
        assert!(profile.n_blocks >= 2, "chaos needs at least two blocks");
        assert!(profile.rounds >= 1, "chaos needs at least one round");
        let mut rng = SplitMix64::new(seed);
        let cap = profile.max_faults.max(1).min(profile.n_blocks - 1);
        let count = 1 + (rng.next() as usize) % cap;
        let mut faults = Vec::with_capacity(count);
        let mut used_blocks = Vec::with_capacity(count);
        for _ in 0..count {
            let block = loop {
                let b = (rng.next() as usize) % profile.n_blocks;
                if !used_blocks.contains(&b) {
                    break b;
                }
            };
            used_blocks.push(block);
            let round = (rng.next() as usize) % profile.rounds;
            let phase = match rng.next() % 10 {
                0..=4 => FaultPhase::RoundBody,
                5..=7 => FaultPhase::BarrierWait,
                _ if profile.allow_assembly => FaultPhase::Assembly,
                _ => FaultPhase::RoundBody,
            };
            let kind = match rng.next() % 10 {
                0..=3 => FaultKind::Panic,
                4..=6 => FaultKind::Straggler,
                7..=8 => {
                    // Benign by construction: well under the timeout even
                    // if two delayed blocks serialize.
                    FaultKind::Delay(profile.timeout / 8)
                }
                _ => FaultKind::Stall(stall_duration(profile.timeout)),
            };
            faults.push(Fault {
                block,
                round: if phase == FaultPhase::Assembly {
                    0
                } else {
                    round
                },
                phase,
                kind,
            });
        }
        FaultSchedule { faults }
    }

    /// Whether `err` plausibly reports one of this schedule's faults —
    /// the right failure variant naming a scheduled site. Lenient across
    /// concurrent faults (first poison wins, so any scheduled site is an
    /// acceptable winner) and across phases (an assembly fault reports
    /// through the assembly-phase diagnostic, not a round number).
    pub fn matches_error(&self, err: &ExecError) -> bool {
        self.faults
            .iter()
            .filter(|f| f.is_fatal())
            .any(|f| match (&f.kind, err) {
                (FaultKind::Panic, ExecError::BlockPanicked { block, round, .. }) => {
                    *block == f.block && (*round == f.round || f.phase == FaultPhase::Assembly)
                }
                (
                    FaultKind::Straggler | FaultKind::Stall(_),
                    ExecError::BarrierTimeout { diagnostic },
                ) => {
                    let names_block = diagnostic.stragglers().contains(&f.block)
                        || diagnostic.waiting_block == f.block;
                    match f.phase {
                        FaultPhase::Assembly => {
                            names_block && diagnostic.phase == StuckPhase::Assembly
                        }
                        _ => names_block && diagnostic.round == f.round,
                    }
                }
                _ => false,
            })
    }
}

/// SplitMix64 (Steele et al.): tiny, seedable, and good enough to spread
/// fault sites — the whole point is that one `u64` reproduces a schedule,
/// not statistical quality. `core` keeps its own copy because the
/// workspace's other one lives in `blocksync-algos`, which depends on this
/// crate.
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform float in [0, 1).
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Wraps a kernel so the scheduled (block, round, phase) sites misbehave
/// per [`FaultSchedule`]; all other sites execute the inner kernel
/// unchanged. Round-body faults fire here; barrier-wait and assembly
/// faults are armed by the launch engine, which reads the schedule via
/// [`RoundKernel::fault_schedule`].
pub struct FaultInjector<K> {
    inner: K,
    schedule: FaultSchedule,
    /// Carries the run's timeout to the round-body straggler loop, which
    /// sizes its backstop from it (the injector cannot see the
    /// [`crate::GridConfig`] it runs under).
    policy: SyncPolicy,
    abort: Mutex<Option<AbortSignal>>,
}

impl<K> FaultInjector<K> {
    /// Inject the single `fault` into `inner`.
    pub fn new(inner: K, fault: Fault) -> Self {
        Self::with_schedule(inner, FaultSchedule::new(vec![fault]))
    }

    /// Inject a full `schedule` into `inner`.
    pub fn with_schedule(inner: K, schedule: FaultSchedule) -> Self {
        FaultInjector {
            inner,
            schedule,
            policy: SyncPolicy::default(),
            abort: Mutex::new(None),
        }
    }

    /// Carry the run's `policy` so a round-body straggler sizes its
    /// backstop from the same timeout as the engine's injection sites
    /// (30 s otherwise, as for any unbounded policy).
    pub fn with_policy(mut self, policy: SyncPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The wrapped kernel.
    pub fn inner(&self) -> &K {
        &self.inner
    }

    /// The full schedule.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }
}

impl<K: RoundKernel> RoundKernel for FaultInjector<K> {
    fn rounds(&self) -> usize {
        self.inner.rounds()
    }

    fn on_launch(&self, abort: &AbortSignal) {
        *self.abort.lock().expect("abort slot poisoned") = Some(abort.clone());
        self.inner.on_launch(abort);
    }

    fn fault_schedule(&self) -> Option<FaultSchedule> {
        Some(self.schedule.clone())
    }

    fn round(&self, ctx: &BlockCtx, round: usize) {
        if let Some(f) = self
            .schedule
            .fault_at(ctx.block_id, round, FaultPhase::RoundBody)
        {
            match f.kind {
                // `resume_unwind` skips the process-wide panic hook: an
                // injected panic prints no backtrace, and how long it takes
                // to reach the engine's `catch_unwind` (and poison the
                // barrier) does not depend on `RUST_BACKTRACE`.
                FaultKind::Panic => std::panic::resume_unwind(Box::new(format!(
                    "injected fault: block {} round {round}",
                    f.block
                ))),
                FaultKind::Delay(by) => std::thread::sleep(by),
                FaultKind::Stall(by) => {
                    // Non-cooperative: ignores the abort signal for the
                    // whole duration, then skips the (already failed)
                    // round's work.
                    std::thread::sleep(by);
                    return;
                }
                FaultKind::Straggler => {
                    let abort = self
                        .abort
                        .lock()
                        .expect("abort slot poisoned")
                        .clone()
                        .expect("the launch engine calls on_launch before any round");
                    let backstop = effective_backstop(&self.policy);
                    let start = Instant::now();
                    while !abort.is_aborted() {
                        assert!(
                            start.elapsed() < backstop,
                            "straggler never aborted — policy timeout missing?"
                        );
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    // The run is failing; skip the real work.
                    return;
                }
            }
        }
        self.inner.round(ctx, round);
    }
}

/// A schedule's [`FaultPhase::BarrierWait`] faults, armed for one launch
/// with a barrier: the round loop fires them after a block's round body
/// and before its arrival is published, so peers see the faulty block as
/// never-arrived.
pub(crate) struct WaitFaults {
    faults: Vec<Fault>,
    policy: SyncPolicy,
}

impl WaitFaults {
    /// The wait-phase faults of `schedule`, or `None` when it has none.
    pub(crate) fn arm(schedule: &FaultSchedule, policy: SyncPolicy) -> Option<Self> {
        let faults: Vec<Fault> = schedule
            .faults()
            .iter()
            .filter(|f| f.phase == FaultPhase::BarrierWait)
            .copied()
            .collect();
        (!faults.is_empty()).then_some(WaitFaults { faults, policy })
    }

    /// Misbehave as scheduled for (`block`, `round`) on the way into
    /// `barrier`. Runs outside the round body's `catch_unwind`, so it does
    /// not panic: an injected panic poisons instead, and the block's own
    /// next look at the poison word unwinds it as `BlockPanicked` naming
    /// this exact site, as it does every peer. Poisoning goes through
    /// [`BarrierShared::poison`], the hook every caller outside a
    /// barrier's protocol uses.
    pub(crate) fn on_arrive(
        &self,
        barrier: &dyn BarrierShared,
        abort: &AbortSignal,
        block: usize,
        round: usize,
    ) {
        let Some(f) = self
            .faults
            .iter()
            .find(|f| f.block == block && f.round == round)
        else {
            return;
        };
        match f.kind {
            FaultKind::Panic => barrier.poison(block, round, PoisonCause::Panic),
            FaultKind::Delay(by) | FaultKind::Stall(by) => std::thread::sleep(by),
            FaultKind::Straggler => {
                // Cooperative: hold the arrival back until a peer's
                // timeout poisons the barrier or the launch aborts.
                let backstop = effective_backstop(&self.policy);
                let start = Instant::now();
                while !abort.is_aborted() && barrier.control().poisoned().is_none() {
                    if start.elapsed() >= backstop {
                        // Cannot assert here (no catch_unwind above us):
                        // poison instead, so the run still fails bounded.
                        barrier.poison(block, round, PoisonCause::Timeout);
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::SyncPolicy;
    use crate::error::ExecError;
    use crate::executor::GridConfig;
    use crate::gmem::GlobalBuffer;
    use crate::launch::LaunchPlan;
    use crate::method::SyncMethod;

    struct Increment {
        slots: GlobalBuffer<u64>,
        rounds: usize,
    }

    impl RoundKernel for Increment {
        fn rounds(&self) -> usize {
            self.rounds
        }
        fn round(&self, ctx: &BlockCtx, _round: usize) {
            let b = ctx.block_id;
            self.slots.set(b, self.slots.get(b) + 1);
        }
    }

    #[test]
    fn single_fault_schedule_is_matched_by_site_and_phase() {
        let s = FaultSchedule::new(vec![Fault::in_round(1, 2, FaultKind::Panic)]);
        assert!(s.expects_failure());
        assert!(s.fault_at(1, 2, FaultPhase::RoundBody).is_some());
        assert!(s.fault_at(1, 2, FaultPhase::BarrierWait).is_none());
        assert!(s.fault_at(1, 3, FaultPhase::RoundBody).is_none());
    }

    #[test]
    fn delay_only_schedules_are_benign() {
        let s = FaultSchedule::new(vec![
            Fault::in_round(0, 1, FaultKind::Delay(Duration::from_millis(1))),
            Fault::in_wait(1, 2, FaultKind::Delay(Duration::from_millis(1))),
        ]);
        assert!(!s.expects_failure());
        assert!(s.has_phase(FaultPhase::BarrierWait));
        assert!(!s.has_phase(FaultPhase::Assembly));
    }

    #[test]
    fn random_schedules_reproduce_from_the_seed() {
        let profile = FaultProfile::new(4, 6, Duration::from_millis(80));
        for seed in [0u64, 1, 42, 0xdead_beef] {
            let a = FaultSchedule::random(seed, &profile);
            let b = FaultSchedule::random(seed, &profile);
            assert_eq!(a, b, "seed {seed} must reproduce");
            assert!(!a.faults().is_empty());
            assert!(a.faults().len() < profile.n_blocks);
            for f in a.faults() {
                assert!(f.block < profile.n_blocks);
                assert!(f.round < profile.rounds);
            }
        }
        assert_ne!(
            FaultSchedule::random(1, &profile),
            FaultSchedule::random(2, &profile),
            "different seeds should differ (these two do)"
        );
    }

    #[test]
    fn random_schedules_land_on_distinct_blocks() {
        let profile = FaultProfile::new(3, 4, Duration::from_millis(50));
        for seed in 0..200u64 {
            let s = FaultSchedule::random(seed, &profile);
            let mut blocks: Vec<usize> = s.faults().iter().map(|f| f.block).collect();
            blocks.sort_unstable();
            blocks.dedup();
            assert_eq!(blocks.len(), s.faults().len(), "seed {seed}: {s:?}");
        }
    }

    #[test]
    fn injected_panic_surfaces_as_block_panicked() {
        let k = FaultInjector::new(
            Increment {
                slots: GlobalBuffer::new(4),
                rounds: 5,
            },
            Fault::in_round(3, 2, FaultKind::Panic),
        );
        let err = LaunchPlan::compile(GridConfig::new(4, 8), SyncMethod::GpuSimple)
            .and_then(|plan| plan.run(&k))
            .unwrap_err();
        match err {
            ExecError::BlockPanicked {
                block,
                round,
                message,
            } => {
                assert_eq!((block, round), (3, 2));
                assert!(message.contains("injected fault"), "{message}");
            }
            other => panic!("expected BlockPanicked, got {other:?}"),
        }
        assert!(k.schedule().matches_error(&ExecError::BlockPanicked {
            block: 3,
            round: 2,
            message: String::new()
        }));
    }

    #[test]
    fn injected_straggler_times_out() {
        let k = FaultInjector::new(
            Increment {
                slots: GlobalBuffer::new(3),
                rounds: 4,
            },
            Fault::in_round(1, 1, FaultKind::Straggler),
        );
        let cfg =
            GridConfig::new(3, 8).with_policy(SyncPolicy::with_timeout(Duration::from_millis(50)));
        let err = LaunchPlan::compile(cfg, SyncMethod::GpuLockFree)
            .and_then(|plan| plan.run(&k))
            .unwrap_err();
        match &err {
            ExecError::BarrierTimeout { diagnostic } => {
                assert_eq!(diagnostic.round, 1);
                assert_eq!(diagnostic.stragglers(), vec![1]);
            }
            other => panic!("expected BarrierTimeout, got {other:?}"),
        }
        assert!(k.schedule().matches_error(&err));
    }

    #[test]
    fn injected_delay_within_timeout_is_harmless() {
        let k = FaultInjector::new(
            Increment {
                slots: GlobalBuffer::new(3),
                rounds: 4,
            },
            Fault::in_round(0, 2, FaultKind::Delay(Duration::from_millis(10))),
        );
        let cfg =
            GridConfig::new(3, 8).with_policy(SyncPolicy::with_timeout(Duration::from_secs(5)));
        let stats = LaunchPlan::compile(cfg, SyncMethod::GpuSimple)
            .and_then(|plan| plan.run(&k))
            .unwrap();
        assert_eq!(stats.rounds, 4);
        assert!(k.inner().slots.to_vec().iter().all(|&v| v == 4));
    }

    #[test]
    fn accessors_expose_inner_and_schedule() {
        let inj = FaultInjector::new(
            Increment {
                slots: GlobalBuffer::new(1),
                rounds: 1,
            },
            Fault::in_round(0, 0, FaultKind::Panic),
        );
        assert_eq!(inj.inner().rounds, 1);
        assert_eq!(
            inj.schedule().faults(),
            &[Fault::in_round(0, 0, FaultKind::Panic)]
        );
    }

    #[test]
    fn matches_error_rejects_the_wrong_site() {
        let s = FaultSchedule::new(vec![Fault::in_round(1, 2, FaultKind::Panic)]);
        assert!(!s.matches_error(&ExecError::BlockPanicked {
            block: 0,
            round: 2,
            message: String::new()
        }));
        assert!(!s.matches_error(&ExecError::Device(
            blocksync_device::DeviceError::EmptyLaunch
        )));
    }

    #[test]
    fn stall_outlives_the_abandon_window() {
        for t in [Duration::from_millis(10), Duration::from_secs(2)] {
            let p = SyncPolicy::with_timeout(t);
            assert!(stall_duration(t) > t + p.abandon_grace());
        }
    }

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let xs: Vec<u64> = (0..8).map(|_| a.next()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next()).collect();
        assert_eq!(xs, ys);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), xs.len(), "collisions in 8 draws: {xs:?}");
        let f = SplitMix64::new(9).next_f64();
        assert!((0.0..1.0).contains(&f));
    }
}
