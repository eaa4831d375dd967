//! The discrete-event engine.
//!
//! Drives a grid of persistent blocks through compute rounds separated by a
//! device-side barrier protocol. Each block alternates between a compute
//! phase (duration from the [`Workload`]) and its barrier
//! [`program`](blocksync_core::program) operations, which are served by the
//! partitioned [`crate::memory::Memory`]. Event processing is in
//! strict `(time, sequence)` order, so simulations are bit-for-bit
//! deterministic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use blocksync_core::program::{Op, Program, Word};
use blocksync_core::SyncMethod;
use blocksync_device::{CalibrationProfile, DeviceError, GpuSpec, SimDuration, SimTime};

use crate::cpu::simulate_cpu;
use crate::memory::{Addr, Memory};
use crate::program;
use crate::report::{SimReport, TraceEvent, TraceKind};
use crate::workload::Workload;

/// Configuration of one simulated kernel execution.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Blocks in the grid (for GPU-side methods, also the number of SMs in
    /// use — at most [`GpuSpec::max_persistent_blocks`]).
    pub n_blocks: usize,
    /// Threads per block (validation only; protocol collectors are modeled
    /// at thread granularity internally).
    pub threads_per_block: usize,
    /// Synchronization strategy.
    pub method: SyncMethod,
    /// Lock-free collector uses N parallel checking threads (paper default)
    /// or a single serial thread (ablation; Section 5.3 says the parallel
    /// design "saves considerable synchronization overhead").
    pub collector_parallel: bool,
    /// Number of memory partitions (GTX 280: 8).
    pub num_partitions: usize,
    /// Record a per-block timeline (compute start / barrier arrive /
    /// release) in [`SimReport::trace`]. Off by default: a 10,000-round
    /// trace is large.
    pub trace: bool,
    /// Model spin polls as full `atomicCAS` operations (paper footnote 2)
    /// rather than merged reads — the pessimistic end of the checking-cost
    /// spectrum. Off by default.
    pub cas_polling: bool,
    /// Device architecture.
    pub spec: GpuSpec,
    /// Timing calibration.
    pub cal: CalibrationProfile,
}

impl SimConfig {
    /// GTX 280 defaults: 8 partitions, parallel collector.
    pub fn new(n_blocks: usize, threads_per_block: usize, method: SyncMethod) -> Self {
        SimConfig {
            n_blocks,
            threads_per_block,
            method,
            collector_parallel: true,
            num_partitions: 8,
            trace: false,
            cas_polling: false,
            spec: GpuSpec::gtx280(),
            cal: CalibrationProfile::gtx280(),
        }
    }

    /// Use a serial lock-free collector (ablation).
    pub fn with_serial_collector(mut self) -> Self {
        self.collector_parallel = false;
        self
    }

    /// Override the calibration profile.
    pub fn with_calibration(mut self, cal: CalibrationProfile) -> Self {
        self.cal = cal;
        self
    }

    /// Override the partition count.
    pub fn with_partitions(mut self, p: usize) -> Self {
        self.num_partitions = p;
        self
    }

    /// Enable timeline tracing (see [`SimReport::trace`]).
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Model spin polls as `atomicCAS` operations (ablation).
    pub fn with_cas_polling(mut self) -> Self {
        self.cas_polling = true;
        self
    }

    /// Validate block/thread counts against the device. GPU-side methods
    /// get the one-block-per-SM rule ([`GpuSpec::validate_persistent_launch`]):
    /// resident blocks are non-preemptive, so a device-side barrier past the
    /// ceiling deadlocks. CPU-side methods relaunch per round and never pin
    /// blocks to SMs, so only the empty-launch and thread checks apply.
    pub fn validate(&self) -> Result<(), DeviceError> {
        if self.method.is_gpu_side() {
            // Saturate, never wrap: a count past `u32::MAX` is past every
            // device limit too.
            return self.spec.validate_persistent_launch(
                u32::try_from(self.n_blocks).unwrap_or(u32::MAX),
                u32::try_from(self.threads_per_block).unwrap_or(u32::MAX),
            );
        }
        self.spec
            .validate_block_shape(self.n_blocks, self.threads_per_block)
    }
}

/// One resident block frozen at the barrier when the deadlock watchdog
/// fired: where it was and what it was doing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StuckBlock {
    /// Block id.
    pub block: usize,
    /// The barrier round the block was in.
    pub round: usize,
    /// The barrier-program operation it was executing, human-readable
    /// (e.g. `WaitGe(ArrayOut(3), 1)`).
    pub op: String,
    /// The block's last few timeline events (rendered human-readable) when
    /// the run had [`SimConfig::trace`] on — what the block was doing
    /// before it froze. Empty without a trace.
    pub recent: Vec<String>,
}

impl std::fmt::Display for StuckBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "block {} round {} at {}",
            self.block, self.round, self.op
        )?;
        if !self.recent.is_empty() {
            write!(f, " (trail: {})", self.recent.join(" -> "))?;
        }
        Ok(())
    }
}

/// Why a simulation could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The configuration failed validation.
    Invalid(DeviceError),
    /// The kernel deadlocked: resident blocks spin at a grid barrier that
    /// can never complete because unscheduled blocks cannot run — exactly
    /// the failure mode Section 5 of the paper designs around with the
    /// one-block-per-SM rule. The watchdog reports where every resident
    /// block was frozen.
    Deadlock {
        /// Blocks resident on SMs, spinning forever.
        resident: usize,
        /// Blocks that never got an SM.
        stalled: usize,
        /// Per-block watchdog snapshot of the frozen resident blocks.
        stuck: Vec<StuckBlock>,
    },
}

/// How many frozen blocks the Display form spells out before eliding.
const DISPLAYED_STUCK: usize = 4;

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Invalid(e) => write!(f, "invalid simulation config: {e}"),
            SimError::Deadlock {
                resident,
                stalled,
                stuck,
            } => {
                write!(
                    f,
                    "grid barrier deadlock: {resident} resident blocks spin forever while {stalled} blocks wait for an SM that will never free"
                )?;
                if !stuck.is_empty() {
                    write!(f, "; watchdog: ")?;
                    for (i, s) in stuck.iter().take(DISPLAYED_STUCK).enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{s}")?;
                    }
                    if stuck.len() > DISPLAYED_STUCK {
                        write!(f, ", ... ({} more)", stuck.len() - DISPLAYED_STUCK)?;
                    }
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Simulate one kernel execution.
///
/// # Panics
/// Panics if the configuration is invalid (see [`SimConfig::validate`]) —
/// notably, launching a GPU-side barrier with more blocks than SMs, which on
/// real hardware would deadlock. Use [`try_simulate`] to *observe* that
/// deadlock instead of rejecting it up front.
pub fn simulate(cfg: &SimConfig, workload: &dyn Workload) -> SimReport {
    if let Err(e) = cfg.validate() {
        panic!("invalid simulation config: {e}");
    }
    match try_simulate(cfg, workload) {
        Ok(r) => r,
        Err(e) => panic!("validated simulation failed: {e}"),
    }
}

/// Simulate one kernel execution, *allowing* more blocks than SMs.
///
/// The engine then models the hardware block scheduler: at most
/// `spec.num_sms` blocks are resident; a waiting block is dispatched when a
/// resident block **finishes the whole kernel** (blocks are non-preemptive).
/// CPU-synchronized kernels execute oversubscribed grids in waves per
/// round and succeed; spinning GPU-barrier kernels deadlock, which is
/// detected and reported as [`SimError::Deadlock`].
pub fn try_simulate(cfg: &SimConfig, workload: &dyn Workload) -> Result<SimReport, SimError> {
    cfg.spec
        .validate_block_shape(cfg.n_blocks, cfg.threads_per_block)
        .map_err(SimError::Invalid)?;
    match cfg.method {
        SyncMethod::CpuExplicit | SyncMethod::CpuImplicit | SyncMethod::NoSync => {
            Ok(simulate_cpu(cfg, workload))
        }
        SyncMethod::Auto => {
            // Nobody can put a stopwatch on the simulated device, so its
            // `Auto` is the cost model priced with *this simulation's*
            // calibration (what-if profiles included); simulate the winner.
            // Past the resident ceiling the table holds CPU-side rows only.
            let decision = blocksync_core::autotune::AutoTuner::with_profile(cfg.cal.clone())
                .decide(cfg.n_blocks, cfg.spec.max_persistent_blocks() as usize);
            let resolved = SimConfig {
                method: decision.chosen,
                ..cfg.clone()
            };
            try_simulate(&resolved, workload)
        }
        _ => Engine::new(cfg, workload).run(),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Block finished its compute phase and arrives at the barrier.
    Arrive { bid: usize },
    /// The block's current op completed.
    OpFinished { bid: usize },
    /// One spin-poll read returns.
    Poll {
        bid: usize,
        addr: Addr,
        goal: u64,
        parallel: bool,
    },
    /// One subwait of a parallel `WaitAllGe` satisfied its flag.
    SubDone { bid: usize },
}

#[derive(Debug, PartialEq, Eq)]
struct Entry {
    time: SimTime,
    seq: u64,
    ev: Event,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Default)]
struct Block {
    round: usize,
    program: Vec<Op>,
    pc: usize,
    arrive: SimTime,
    pending_subs: usize,
    compute: SimDuration,
    sync: SimDuration,
    finish: SimTime,
    done: bool,
}

struct Engine<'a> {
    cfg: &'a SimConfig,
    workload: &'a dyn Workload,
    mem: Memory,
    program: Program,
    queue: BinaryHeap<Reverse<Entry>>,
    seq: u64,
    blocks: Vec<Block>,
    done_count: usize,
    rounds: usize,
    /// Blocks not yet dispatched to an SM (oversubscribed grids only).
    launch_queue: std::collections::VecDeque<usize>,
    /// Poll events processed since the last non-poll event; a grid barrier
    /// that only ever re-polls has deadlocked.
    polls_since_progress: u64,
    trace: Vec<TraceEvent>,
}

impl<'a> Engine<'a> {
    fn new(cfg: &'a SimConfig, workload: &'a dyn Workload) -> Self {
        let mut mem = Memory::new(cfg.cal.clone(), cfg.num_partitions);
        mem.set_cas_polling(cfg.cas_polling);
        Engine {
            cfg,
            workload,
            mem,
            program: Program::new(cfg.method, cfg.n_blocks),
            queue: BinaryHeap::new(),
            seq: 0,
            blocks: (0..cfg.n_blocks).map(|_| Block::default()).collect(),
            done_count: 0,
            rounds: workload.rounds(),
            launch_queue: std::collections::VecDeque::new(),
            polls_since_progress: 0,
            trace: Vec::new(),
        }
    }

    fn record(&mut self, time: SimTime, block: usize, kind: TraceKind) {
        if self.cfg.trace {
            self.trace.push(TraceEvent { time, block, kind });
        }
    }

    fn push(&mut self, time: SimTime, ev: Event) {
        self.queue.push(Reverse(Entry {
            time,
            seq: self.seq,
            ev,
        }));
        self.seq += 1;
    }

    fn run(mut self) -> Result<SimReport, SimError> {
        let launch = self.cfg.cal.kernel_launch();
        let t0 = SimTime::ZERO + launch;
        if self.rounds == 0 {
            return Ok(self.report(SimDuration::ZERO, SimDuration::ZERO));
        }
        // Blocks begin round 0 as soon as the (single) kernel launch
        // completes — but only as many as there are SMs; the rest wait for
        // a resident block to run to completion (non-preemptive scheduling).
        let slots = (self.cfg.spec.max_persistent_blocks() as usize).max(1);
        let resident = self.cfg.n_blocks.min(slots);
        for bid in 0..resident {
            let c = self.workload.compute(bid, 0);
            self.blocks[bid].compute += c;
            self.record(t0, bid, TraceKind::ComputeStart { round: 0 });
            self.push(t0 + c, Event::Arrive { bid });
        }
        self.launch_queue.extend(resident..self.cfg.n_blocks);
        // A real barrier completes within a bounded number of polls per
        // waiter; this bound is orders of magnitude above that.
        let deadlock_poll_budget = 50_000 + 10_000 * self.cfg.n_blocks as u64;

        let mut end = t0;
        while let Some(Reverse(Entry { time, ev, .. })) = self.queue.pop() {
            end = end.max(time);
            if matches!(ev, Event::Poll { .. }) {
                self.polls_since_progress += 1;
                if self.polls_since_progress > deadlock_poll_budget {
                    return Err(self.deadlock_error());
                }
            } else {
                self.polls_since_progress = 0;
            }
            match ev {
                Event::Arrive { bid } => {
                    let round0 = self.blocks[bid].round;
                    self.record(time, bid, TraceKind::BarrierArrive { round: round0 });
                    let b = &mut self.blocks[bid];
                    b.arrive = time;
                    b.pc = 0;
                    let round = b.round;
                    let mut ops = std::mem::take(&mut b.program);
                    let parallel = self.cfg.collector_parallel;
                    program::collect(&self.program, bid, round, parallel, &mut ops);
                    self.blocks[bid].program = ops;
                    self.exec_current(bid, time);
                }
                Event::OpFinished { bid } => {
                    self.blocks[bid].pc += 1;
                    self.exec_current(bid, time);
                }
                Event::Poll {
                    bid,
                    addr,
                    goal,
                    parallel,
                } => {
                    let (value, ret) = self.mem.poll(addr, time);
                    if value >= goal {
                        let ev = if parallel {
                            Event::SubDone { bid }
                        } else {
                            Event::OpFinished { bid }
                        };
                        self.push(ret, ev);
                    } else {
                        self.push(
                            ret + self.cfg.cal.poll_gap(),
                            Event::Poll {
                                bid,
                                addr,
                                goal,
                                parallel,
                            },
                        );
                    }
                }
                Event::SubDone { bid } => {
                    let b = &mut self.blocks[bid];
                    debug_assert!(b.pending_subs > 0);
                    b.pending_subs -= 1;
                    if b.pending_subs == 0 {
                        b.pc += 1;
                        self.exec_current(bid, time);
                    }
                }
            }
            if self.done_count == self.cfg.n_blocks {
                break;
            }
        }
        if self.done_count != self.cfg.n_blocks {
            return Err(self.deadlock_error());
        }

        let total = end.since(SimTime::ZERO);
        Ok(self.report(total, launch))
    }

    /// Watchdog snapshot: who is frozen where. Resident, unfinished blocks
    /// are stuck mid-barrier; blocks still in the launch queue never ran at
    /// all and are counted as `stalled` instead.
    fn deadlock_error(&self) -> SimError {
        /// Trace events attached per frozen block.
        const TRAIL_LEN: usize = 4;
        let undispatched: std::collections::HashSet<usize> =
            self.launch_queue.iter().copied().collect();
        let stuck: Vec<StuckBlock> = self
            .blocks
            .iter()
            .enumerate()
            .filter(|(bid, b)| !b.done && !undispatched.contains(bid))
            .map(|(bid, b)| {
                let mine: Vec<&TraceEvent> = self.trace.iter().filter(|e| e.block == bid).collect();
                let recent = mine[mine.len().saturating_sub(TRAIL_LEN)..]
                    .iter()
                    .map(|e| format!("{:?}", e.kind))
                    .collect();
                StuckBlock {
                    block: bid,
                    round: b.round,
                    op: b
                        .program
                        .get(b.pc)
                        .map(|op| format!("{op:?}"))
                        .unwrap_or_else(|| "barrier exit".to_string()),
                    recent,
                }
            })
            .collect();
        SimError::Deadlock {
            resident: self.cfg.n_blocks - self.launch_queue.len() - self.done_count,
            stalled: self.launch_queue.len(),
            stuck,
        }
    }

    fn report(self, total: SimDuration, launch: SimDuration) -> SimReport {
        SimReport {
            method: self.cfg.method.to_string(),
            n_blocks: self.cfg.n_blocks,
            rounds: self.rounds,
            total,
            launch,
            per_block_compute: self.blocks.iter().map(|b| b.compute).collect(),
            per_block_sync: self.blocks.iter().map(|b| b.sync).collect(),
            trace: self.trace,
        }
    }

    fn addr(&self, word: Word) -> Addr {
        program::addr(word, self.cfg.n_blocks)
    }

    /// Execute the op at the block's program counter, or complete the
    /// barrier if the program is exhausted.
    fn exec_current(&mut self, bid: usize, now: SimTime) {
        let b = &self.blocks[bid];
        if b.pc >= b.program.len() {
            self.complete_barrier(bid, now);
            return;
        }
        let op = b.program[b.pc];
        match op {
            Op::AtomicAdd(word) => {
                let (grant, _) = self.mem.atomic_add(self.addr(word), 1, now);
                self.push(grant, Event::OpFinished { bid });
            }
            Op::Store(word, value) => {
                let grant = self.mem.store(self.addr(word), value, now);
                self.push(grant, Event::OpFinished { bid });
            }
            Op::WaitGe(word, goal) => {
                self.push(
                    now,
                    Event::Poll {
                        bid,
                        addr: self.addr(word),
                        goal,
                        parallel: false,
                    },
                );
            }
            Op::WaitAllGe { base, count, goal } => {
                debug_assert!(count > 0);
                self.blocks[bid].pending_subs = count;
                for i in 0..count {
                    self.push(
                        now,
                        Event::Poll {
                            bid,
                            addr: self.addr(base.nth(i)),
                            goal,
                            parallel: true,
                        },
                    );
                }
            }
            Op::StoreRange { base, count, value } => {
                let mut last = now;
                for i in 0..count {
                    let grant = self.mem.store(self.addr(base.nth(i)), value, now);
                    last = last.max(grant);
                }
                self.push(last, Event::OpFinished { bid });
            }
            Op::SyncThreads => {
                self.push(now + self.cfg.cal.syncthreads(), Event::OpFinished { bid });
            }
            Op::ArriveAndRelease {
                counter,
                flag,
                release_at,
                flag_value,
            } => {
                let (grant, new) = self.mem.atomic_add(self.addr(counter), 1, now);
                if new == release_at {
                    self.mem.store(self.addr(flag), flag_value, grant);
                }
                self.push(grant, Event::OpFinished { bid });
            }
        }
    }

    fn complete_barrier(&mut self, bid: usize, now: SimTime) {
        let rounds = self.rounds;
        let released_round = self.blocks[bid].round;
        self.record(
            now,
            bid,
            TraceKind::BarrierRelease {
                round: released_round,
            },
        );
        let next_compute = {
            let b = &mut self.blocks[bid];
            b.sync += now.since(b.arrive);
            b.round += 1;
            if b.round < rounds {
                let c = self.workload.compute(bid, b.round);
                b.compute += c;
                Some(c)
            } else {
                b.finish = now;
                b.done = true;
                None
            }
        };
        match next_compute {
            Some(c) => {
                self.record(
                    now,
                    bid,
                    TraceKind::ComputeStart {
                        round: released_round + 1,
                    },
                );
                self.push(now + c, Event::Arrive { bid });
            }
            None => {
                self.record(now, bid, TraceKind::KernelDone);
                self.done_count += 1;
                // The finished block's SM is free; dispatch the next
                // waiting block (oversubscribed grids).
                if let Some(next_bid) = self.launch_queue.pop_front() {
                    let c = self.workload.compute(next_bid, 0);
                    self.blocks[next_bid].compute += c;
                    self.record(now, next_bid, TraceKind::ComputeStart { round: 0 });
                    self.push(now + c, Event::Arrive { bid: next_bid });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{ClosureWorkload, ConstWorkload};
    use blocksync_core::TreeLevels;

    fn run(method: SyncMethod, n: usize, rounds: usize) -> SimReport {
        let w = ConstWorkload::from_micros(0.5, rounds);
        simulate(&SimConfig::new(n, 256, method), &w)
    }

    #[test]
    fn all_gpu_methods_terminate_and_account_time() {
        for m in SyncMethod::GPU_METHODS {
            let r = run(m, 8, 20);
            assert_eq!(r.rounds, 20);
            assert_eq!(r.n_blocks, 8);
            assert!(r.total.as_nanos() > 0, "{m}");
            // Every block computed 20 x 0.5 us.
            for c in &r.per_block_compute {
                assert_eq!(c.as_nanos(), 10_000, "{m}");
            }
            // Barriers take nonzero time.
            assert!(r.sync_time().as_nanos() > 0, "{m}");
        }
    }

    #[test]
    fn sense_reversing_simulates() {
        let r = run(SyncMethod::SenseReversing, 8, 10);
        assert!(r.total.as_nanos() > 0);
        assert!(r.sync_time().as_nanos() > 0);
    }

    #[test]
    fn dissemination_simulates_and_scales_logarithmically() {
        let r = run(SyncMethod::Dissemination, 8, 30);
        assert!(r.sync_time().as_nanos() > 0);
        // Cost grows with the number of hop levels (log2 N), far slower
        // than the simple barrier's linear growth.
        let s4 = run(SyncMethod::Dissemination, 4, 30)
            .sync_per_round()
            .as_nanos() as f64;
        let s30 = run(SyncMethod::Dissemination, 30, 30)
            .sync_per_round()
            .as_nanos() as f64;
        assert!(
            s30 / s4 < 4.0,
            "dissemination should grow ~log: {s4} vs {s30}"
        );
    }

    #[test]
    fn custom_group_tree_simulates() {
        let w = ConstWorkload::from_micros(0.5, 30);
        for g in [2usize, 5, 6, 30] {
            let cfg = SimConfig::new(30, 256, SyncMethod::GpuTree(TreeLevels::Custom(g)));
            let r = simulate(&cfg, &w);
            assert!(r.sync_time().as_nanos() > 0, "group {g}");
        }
    }

    #[test]
    fn auto_resolves_via_the_calibrations_own_model() {
        // GTX 280 profile at 30 blocks: the model picks lock-free, so the
        // Auto simulation must be bit-identical to an explicit lock-free
        // one.
        let w = ConstWorkload::from_micros(0.5, 50);
        let auto = simulate(&SimConfig::new(30, 256, SyncMethod::Auto), &w);
        let lf = simulate(&SimConfig::new(30, 256, SyncMethod::GpuLockFree), &w);
        assert_eq!(auto.method, lf.method);
        assert_eq!(auto.total, lf.total);
        // Past the resident ceiling no GPU-side method is a candidate:
        // Auto validates and simulates its CPU-side winner.
        let w = ConstWorkload::from_micros(0.5, 10);
        for n in [31usize, 64] {
            let r = simulate(&SimConfig::new(n, 256, SyncMethod::Auto), &w);
            assert_eq!(r.method, SyncMethod::CpuImplicit.to_string(), "{n} blocks");
            assert_eq!(r.rounds, 10, "{n} blocks");
        }
    }

    #[test]
    fn determinism_same_config_same_result() {
        for m in SyncMethod::GPU_METHODS {
            let a = run(m, 13, 50);
            let b = run(m, 13, 50);
            assert_eq!(a.total, b.total, "{m}");
            assert_eq!(a.per_block_sync, b.per_block_sync, "{m}");
        }
    }

    #[test]
    fn simple_sync_is_linear_in_blocks() {
        // Eq. 6: per-round sync ~ N * t_a + const. Check that the increment
        // from N=10 to N=20 roughly equals the increment from N=20 to N=30.
        let s10 = run(SyncMethod::GpuSimple, 10, 50)
            .sync_per_round()
            .as_nanos() as f64;
        let s20 = run(SyncMethod::GpuSimple, 20, 50)
            .sync_per_round()
            .as_nanos() as f64;
        let s30 = run(SyncMethod::GpuSimple, 30, 50)
            .sync_per_round()
            .as_nanos() as f64;
        let d1 = s20 - s10;
        let d2 = s30 - s20;
        assert!(d1 > 0.0 && d2 > 0.0);
        let ratio = d2 / d1;
        assert!(
            (0.6..1.8).contains(&ratio),
            "not linear-ish: {s10} {s20} {s30}"
        );
    }

    #[test]
    fn lockfree_is_flat_in_blocks() {
        // Eq. 9: sync time unrelated to N. Allow modest drift from partition
        // queueing.
        let s4 = run(SyncMethod::GpuLockFree, 4, 50)
            .sync_per_round()
            .as_nanos() as f64;
        let s30 = run(SyncMethod::GpuLockFree, 30, 50)
            .sync_per_round()
            .as_nanos() as f64;
        assert!(
            s30 / s4 < 1.6,
            "lock-free should be nearly constant: 4 blocks {s4}ns vs 30 blocks {s30}ns"
        );
    }

    #[test]
    fn lockfree_beats_simple_at_thirty_blocks() {
        let lf = run(SyncMethod::GpuLockFree, 30, 50).sync_per_round();
        let simple = run(SyncMethod::GpuSimple, 30, 50).sync_per_round();
        assert!(lf < simple, "lock-free {lf:?} vs simple {simple:?}");
    }

    #[test]
    fn serial_collector_is_slower() {
        let w = ConstWorkload::from_micros(0.5, 50);
        let par = simulate(&SimConfig::new(30, 256, SyncMethod::GpuLockFree), &w);
        let ser = simulate(
            &SimConfig::new(30, 256, SyncMethod::GpuLockFree).with_serial_collector(),
            &w,
        );
        assert!(
            ser.sync_per_round() > par.sync_per_round(),
            "serial {:?} must exceed parallel {:?}",
            ser.sync_per_round(),
            par.sync_per_round()
        );
    }

    #[test]
    fn skewed_blocks_still_synchronize() {
        // Block 0 is much slower; every barrier waits for it.
        let w = ClosureWorkload::new(10, |bid, _| {
            SimDuration::from_nanos(if bid == 0 { 5_000 } else { 100 })
        });
        for m in SyncMethod::GPU_METHODS {
            let r = simulate(&SimConfig::new(6, 128, m), &w);
            // Fast blocks accumulate the skew in their sync time:
            // at least (5000-100) * 10 ns each.
            assert!(
                r.per_block_sync[3].as_nanos() > 9 * 4_900,
                "{m}: fast block sync {:?}",
                r.per_block_sync[3]
            );
        }
    }

    #[test]
    fn no_block_is_released_before_the_slowest_arrives() {
        // Barrier safety, read off the simulator's own trace, on devices
        // past the 30 SMs the address map was first laid out for: with one
        // slow block, round r's first release must not precede round r's
        // last arrival. (Fixed 64- and 32-word array strides let lock-free
        // and dissemination release most of a 120-block grid early.)
        use crate::report::TraceKind;
        let rounds = 4;
        for method in SyncMethod::GPU_METHODS
            .into_iter()
            .chain(SyncMethod::EXTENSION_METHODS)
            .chain([SyncMethod::GpuTree(TreeLevels::Custom(3))])
        {
            for n in [30usize, 60, 65, 120, 240] {
                let w = ClosureWorkload::new(rounds, move |bid, _| {
                    SimDuration::from_nanos(if bid == n / 2 { 50_000 } else { 500 })
                });
                let mut cfg = SimConfig::new(n, 64, method).with_trace();
                cfg.spec = GpuSpec::gtx280_scaled(n as u32);
                let trace = simulate(&cfg, &w).trace;
                let mut last_arrive = vec![SimTime::ZERO; rounds];
                for e in &trace {
                    if let TraceKind::BarrierArrive { round } = e.kind {
                        last_arrive[round] = last_arrive[round].max(e.time);
                    }
                }
                let early = trace.iter().filter(|e| match e.kind {
                    TraceKind::BarrierRelease { round } => e.time < last_arrive[round],
                    _ => false,
                });
                let early = early.count();
                assert_eq!(early, 0, "{method} at {n} blocks: {early} early releases");
            }
        }
    }

    #[test]
    fn single_block_barriers_are_cheap() {
        let r = run(SyncMethod::GpuSimple, 1, 10);
        // One add + one successful poll per round; no queueing.
        assert!(r.sync_per_round().as_nanos() < 2_000);
    }

    #[test]
    #[should_panic(expected = "invalid simulation config")]
    fn too_many_blocks_panics() {
        let _ = run(SyncMethod::GpuSimple, 31, 1);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn counts_past_u32_are_rejected_not_wrapped() {
        // 2^32 + 8 used to validate as 8 blocks / 8 threads.
        let big = (1usize << 32) + 8;
        let blocks = SimConfig::new(big, 256, SyncMethod::GpuSimple);
        assert!(matches!(
            blocks.validate(),
            Err(DeviceError::TooManyBlocks { max: 30, .. })
        ));
        let threads = SimConfig::new(8, big, SyncMethod::GpuSimple);
        assert!(matches!(
            threads.validate(),
            Err(DeviceError::TooManyThreads { max: 512, .. })
        ));
        let w = ConstWorkload::from_micros(0.5, 1);
        assert!(matches!(
            try_simulate(&threads, &w),
            Err(SimError::Invalid(DeviceError::TooManyThreads { .. }))
        ));
    }

    #[test]
    fn oversubscribed_gpu_barrier_deadlocks() {
        // 31 blocks, 30 SMs, grid barrier: the paper's Section 5 scenario.
        let w = ConstWorkload::from_micros(0.5, 5);
        for m in [SyncMethod::GpuSimple, SyncMethod::GpuLockFree] {
            let err = try_simulate(&SimConfig::new(31, 64, m), &w).unwrap_err();
            match err {
                SimError::Deadlock {
                    resident,
                    stalled,
                    stuck,
                } => {
                    assert_eq!(resident, 30, "{m}");
                    assert_eq!(stalled, 1, "{m}");
                    // The watchdog names every frozen resident block, all
                    // stuck in round 0 on a wait operation.
                    assert_eq!(stuck.len(), 30, "{m}");
                    assert!(stuck.iter().all(|s| s.round == 0), "{m}: {stuck:?}");
                    assert!(
                        stuck.iter().any(|s| s.op.contains("Wait")),
                        "{m}: no block reported waiting: {stuck:?}"
                    );
                }
                other => panic!("{m}: expected deadlock, got {other:?}"),
            }
        }
    }

    #[test]
    fn past_the_ceiling_only_cpu_side_methods_validate() {
        for m in SyncMethod::GPU_METHODS
            .into_iter()
            .chain(SyncMethod::EXTENSION_METHODS)
        {
            assert!(matches!(
                SimConfig::new(31, 64, m).validate(),
                Err(DeviceError::TooManyBlocks {
                    requested: 31,
                    max: 30
                })
            ));
        }
        for m in [SyncMethod::CpuExplicit, SyncMethod::CpuImplicit] {
            assert_eq!(SimConfig::new(31, 64, m).validate(), Ok(()));
        }
    }

    #[test]
    fn oversubscribed_cpu_sync_runs_in_waves() {
        // 60 blocks on 30 SMs under CPU implicit sync: two waves per round,
        // so the per-round compute path doubles and 60 blocks is no faster
        // than 30 — the paper's observation when sweeping 31..120 blocks.
        let per_round = SimDuration::from_micros(2);
        let rounds = 50;
        let w30 = ConstWorkload::new(per_round, rounds);
        let t30 = try_simulate(&SimConfig::new(30, 64, SyncMethod::CpuImplicit), &w30)
            .unwrap()
            .total;
        let t60 = try_simulate(&SimConfig::new(60, 64, SyncMethod::CpuImplicit), &w30)
            .unwrap()
            .total;
        assert!(
            t60 > t30,
            "oversubscription must not be free: {t60:?} vs {t30:?}"
        );
    }

    #[test]
    fn exactly_thirty_blocks_does_not_deadlock() {
        let w = ConstWorkload::from_micros(0.5, 20);
        let r = try_simulate(&SimConfig::new(30, 64, SyncMethod::GpuLockFree), &w).unwrap();
        assert_eq!(r.rounds, 20);
    }

    #[test]
    fn cas_polling_slows_spin_barriers() {
        let w = ConstWorkload::from_micros(0.5, 40);
        for m in [SyncMethod::GpuSimple, SyncMethod::GpuLockFree] {
            let plain = simulate(&SimConfig::new(16, 256, m), &w);
            let cas = simulate(&SimConfig::new(16, 256, m).with_cas_polling(), &w);
            assert!(
                cas.sync_per_round() > plain.sync_per_round(),
                "{m}: CAS polling must cost more ({:?} vs {:?})",
                cas.sync_per_round(),
                plain.sync_per_round()
            );
        }
    }

    #[test]
    fn trace_records_block_lifecycle() {
        let w = ConstWorkload::from_micros(0.5, 3);
        let cfg = SimConfig::new(2, 64, SyncMethod::GpuLockFree).with_trace();
        let r = simulate(&cfg, &w);
        use crate::report::TraceKind;
        // Per block: 3 compute starts + 3 arrives + 3 releases + 1 done.
        assert_eq!(r.trace.len(), 2 * (3 + 3 + 3 + 1));
        // Times are non-decreasing.
        assert!(r.trace.windows(2).all(|w| w[0].time <= w[1].time));
        // Block 0's first three events in order.
        let b0: Vec<_> = r.trace.iter().filter(|e| e.block == 0).collect();
        assert!(matches!(b0[0].kind, TraceKind::ComputeStart { round: 0 }));
        assert!(matches!(b0[1].kind, TraceKind::BarrierArrive { round: 0 }));
        assert!(matches!(b0[2].kind, TraceKind::BarrierRelease { round: 0 }));
        assert!(matches!(b0.last().unwrap().kind, TraceKind::KernelDone));
        // Untraced runs stay empty.
        let r2 = simulate(&SimConfig::new(2, 64, SyncMethod::GpuLockFree), &w);
        assert!(r2.trace.is_empty());
    }

    #[test]
    fn sim_error_display() {
        let e = SimError::Deadlock {
            resident: 30,
            stalled: 1,
            stuck: vec![],
        };
        let msg = e.to_string();
        assert!(msg.contains("30 resident"));
        assert!(msg.contains("1 blocks wait"));
        let e = SimError::Invalid(blocksync_device::DeviceError::EmptyLaunch);
        assert!(e.to_string().contains("invalid"));
    }

    #[test]
    fn sim_error_display_includes_watchdog_and_elides_long_lists() {
        let stuck: Vec<StuckBlock> = (0..6)
            .map(|b| StuckBlock {
                block: b,
                round: 2,
                op: format!("WaitGe(ArrayOut({b}), 9)"),
                recent: Vec::new(),
            })
            .collect();
        let msg = SimError::Deadlock {
            resident: 6,
            stalled: 0,
            stuck,
        }
        .to_string();
        assert!(msg.contains("watchdog: block 0 round 2 at WaitGe"), "{msg}");
        assert!(msg.contains("... (2 more)"), "{msg}");
    }

    #[test]
    fn watchdog_diagnostic_matches_real_deadlock_shape() {
        // 31 blocks / 30 SMs: the classic oversubscription deadlock. The
        // diagnostic must be structured enough to act on: every frozen
        // block named with round and operation.
        let w = ConstWorkload::from_micros(0.5, 5);
        let err = try_simulate(&SimConfig::new(31, 64, SyncMethod::GpuSimple), &w).unwrap_err();
        let SimError::Deadlock { stuck, .. } = err else {
            panic!("expected deadlock");
        };
        let blocks: Vec<usize> = stuck.iter().map(|s| s.block).collect();
        assert_eq!(blocks, (0..30).collect::<Vec<_>>());
        // The display of each entry is self-describing.
        let line = stuck[0].to_string();
        assert!(line.contains("block 0"), "{line}");
        assert!(line.contains("round 0"), "{line}");
        // Untraced run: no event trail to attach.
        assert!(stuck.iter().all(|s| s.recent.is_empty()), "{stuck:?}");
    }

    #[test]
    fn traced_deadlock_attaches_recent_events() {
        // With tracing on, the watchdog shows what each frozen block was
        // doing (its last timeline events), not just where it stopped.
        let w = ConstWorkload::from_micros(0.5, 5);
        let cfg = SimConfig::new(31, 64, SyncMethod::GpuSimple).with_trace();
        let err = try_simulate(&cfg, &w).unwrap_err();
        let SimError::Deadlock { stuck, .. } = err else {
            panic!("expected deadlock");
        };
        assert!(
            stuck.iter().all(|s| !s.recent.is_empty()),
            "resident blocks computed and arrived before freezing: {stuck:?}"
        );
        let line = stuck[0].to_string();
        assert!(line.contains("trail:"), "{line}");
        assert!(line.contains("BarrierArrive"), "{line}");
    }

    #[test]
    fn cpu_methods_route_to_analytic_path() {
        let r = run(SyncMethod::CpuImplicit, 31, 10); // >30 blocks allowed
        assert_eq!(r.rounds, 10);
        assert!(r.total.as_nanos() > 0);
    }

    #[test]
    fn zero_round_gpu_kernel() {
        let w = ConstWorkload::from_micros(0.5, 0);
        let r = simulate(&SimConfig::new(4, 64, SyncMethod::GpuLockFree), &w);
        assert_eq!(r.total, SimDuration::ZERO);
    }

    #[test]
    fn tree_two_vs_three_both_work_at_thirty() {
        let t2 = run(SyncMethod::GpuTree(TreeLevels::Two), 30, 50);
        let t3 = run(SyncMethod::GpuTree(TreeLevels::Three), 30, 50);
        assert!(t2.sync_per_round().as_nanos() > 0);
        assert!(t3.sync_per_round().as_nanos() > 0);
        // At 30 blocks the two tree depths are within 2x of each other
        // (Figure 11: they cross near N = 29).
        let ratio = t3.sync_per_round().as_nanos() as f64 / t2.sync_per_round().as_nanos() as f64;
        assert!((0.5..2.0).contains(&ratio), "tree-3/tree-2 ratio {ratio}");
    }
}
