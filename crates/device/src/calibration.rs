//! Timing calibration for the simulated device.
//!
//! The discrete-event simulator charges virtual time for every primitive
//! operation a synchronization protocol performs: atomic read-modify-writes,
//! global-memory reads/writes, spin-poll iterations, intra-block barriers,
//! and kernel launches. This module holds those per-operation costs.
//!
//! ## Where the GTX 280 numbers come from
//!
//! The defaults in [`CalibrationProfile::gtx280`] are fitted so that the
//! *protocols* executed by `blocksync-sim` land on the paper's measurements
//! (Figures 11 and 13–15):
//!
//! * CPU implicit synchronization costs ≈ 6 µs per round (10,000 rounds ≈
//!   60 ms in Figure 11) and CPU explicit ≈ 13 µs per round.
//! * GPU simple synchronization is linear in the block count `N` with slope
//!   `t_a` (Eq. 6) and crosses CPU implicit near `N = 24`.
//! * GPU lock-free synchronization is a block-count-independent ≈ 1.3 µs
//!   (Eq. 9; 7.8× faster than CPU explicit, 3.7× than CPU implicit).
//! * Global-memory latency on GT200-class parts is ≈ 400–600 cycles at
//!   1296 MHz, i.e. ≈ 300–460 ns, which sets the spin-poll period.
//!
//! These constants are *inputs*; the crossover thresholds and scaling curves
//! in the reproduced figures are emergent behaviour of the event-level
//! protocol simulation (including queueing of polls behind atomics at the
//! memory partitions), not table lookups.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::time::SimDuration;

/// Per-operation virtual-time costs of the simulated device.
///
/// All costs are in nanoseconds of simulated time. See the module docs for
/// how the GTX 280 defaults were fitted.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationProfile {
    /// Service time of one atomic read-modify-write (`atomicAdd`,
    /// `atomicCAS`) at the memory partition owning the address. Atomics to
    /// the same address serialize at this rate — the `t_a` of Equation 6.
    pub atomic_add_ns: u64,
    /// Service time a global-memory *read* occupies the partition server.
    /// Spin-poll reads queue behind atomics at the same address, which is
    /// why heavy polling inflates the effective `t_a` (the paper's "more
    /// checking operations" effect).
    pub mem_read_service_ns: u64,
    /// Service time a global-memory *write* occupies the partition server.
    pub mem_write_service_ns: u64,
    /// Pipeline latency added to a read's completion on top of queueing
    /// (time until the value is back in registers). Does not occupy the
    /// partition server.
    pub mem_read_latency_ns: u64,
    /// Delay after a write is serviced until other blocks can observe the
    /// new value (write-buffer drain / L2 visibility).
    pub write_visibility_ns: u64,
    /// Partition-server occupancy of one spin-poll read. Polls of a hot
    /// synchronization variable share the partition with the atomics that
    /// update it, so heavy polling inflates the effective `t_a` — the
    /// paper's "more checking operations" effect. Kept below
    /// `mem_read_service_ns` because same-word spin loads are merged/
    /// broadcast at the partition rather than individually serviced.
    pub poll_service_ns: u64,
    /// Loop overhead between the *return* of one spin-poll read and the
    /// *issue* of the next (branch + address recompute). The effective
    /// re-check period of a spin waiter is therefore one memory round trip
    /// (`mem_read_service_ns + mem_read_latency_ns`) plus this gap.
    pub poll_gap_ns: u64,
    /// Cost of one `__syncthreads()` intra-block barrier.
    pub syncthreads_ns: u64,
    /// Time to launch a kernel from the host when no launch is in flight
    /// (`t_O` of Equation 1): driver work plus command transfer.
    pub kernel_launch_ns: u64,
    /// Time to dispatch a kernel onto an *already-resident* worker set —
    /// the warm `t_O` of a pooled/persistent runtime, where the per-block
    /// workers are pinned and a launch is a queue handoff rather than
    /// thread (or driver context) creation. Pipelined back-to-back
    /// launches pay this instead of `kernel_launch_ns`.
    pub warm_launch_ns: u64,
    /// Per-round overhead of CPU **explicit** synchronization: kernel
    /// teardown, `cudaThreadSynchronize()` round trip on the host, and a
    /// fresh, non-overlapped launch (Eq. 3).
    pub explicit_round_overhead_ns: u64,
    /// Per-round overhead of CPU **implicit** synchronization: teardown plus
    /// dispatch of the next (already-queued) launch; launch transfer is
    /// pipelined behind the previous round's execution (Eq. 4).
    pub implicit_round_overhead_ns: u64,
    /// One park/wake handoff of a parked barrier waiter: the
    /// cost of a waiter blocking on an OS condvar and being notified back
    /// onto a core. Prices the oversubscription penalty of GPU-side
    /// barriers run with more blocks than cores — each extra *wave* of
    /// blocks adds roughly two such handoffs per round (descheduling the
    /// spinners of one wave, scheduling the next).
    pub park_wake_ns: u64,
}

impl CalibrationProfile {
    /// Calibration fitted to the paper's GeForce GTX 280 / CUDA 2.2 numbers.
    pub fn gtx280() -> Self {
        CalibrationProfile {
            atomic_add_ns: 235,
            mem_read_service_ns: 48,
            mem_write_service_ns: 48,
            mem_read_latency_ns: 320,
            write_visibility_ns: 60,
            poll_service_ns: 6,
            poll_gap_ns: 30,
            syncthreads_ns: 60,
            kernel_launch_ns: 7_000,
            warm_launch_ns: 3_000,
            explicit_round_overhead_ns: 13_000,
            implicit_round_overhead_ns: 6_000,
            park_wake_ns: 5_000,
        }
    }

    /// A what-if profile for a Fermi-class (2010+) part: atomics resolved
    /// in the L2 cache rather than at DRAM (~5x cheaper), shorter memory
    /// latency, faster kernel dispatch. Used to ask how much of the
    /// paper's conclusion depends on GT200's notoriously slow atomics —
    /// the simple barrier stays competitive to much larger block counts,
    /// but the lock-free design still wins (see the `scaling` analysis).
    pub fn fermi_class() -> Self {
        CalibrationProfile {
            atomic_add_ns: 45,
            mem_read_service_ns: 30,
            mem_write_service_ns: 30,
            mem_read_latency_ns: 250,
            write_visibility_ns: 40,
            poll_service_ns: 4,
            poll_gap_ns: 20,
            syncthreads_ns: 40,
            kernel_launch_ns: 5_000,
            warm_launch_ns: 1_800,
            explicit_round_overhead_ns: 9_000,
            implicit_round_overhead_ns: 4_000,
            park_wake_ns: 4_000,
        }
    }

    /// An idealized device where every primitive costs 1 ns and launches are
    /// free. Useful in unit tests that check protocol *logic* (orderings,
    /// counts of operations) rather than timing.
    pub fn unit() -> Self {
        CalibrationProfile {
            atomic_add_ns: 1,
            mem_read_service_ns: 1,
            mem_write_service_ns: 1,
            mem_read_latency_ns: 1,
            write_visibility_ns: 1,
            poll_service_ns: 1,
            poll_gap_ns: 1,
            syncthreads_ns: 1,
            kernel_launch_ns: 0,
            warm_launch_ns: 0,
            explicit_round_overhead_ns: 0,
            implicit_round_overhead_ns: 0,
            park_wake_ns: 1,
        }
    }

    /// Atomic service time as a [`SimDuration`].
    pub fn atomic_add(&self) -> SimDuration {
        SimDuration(self.atomic_add_ns)
    }

    /// Read service time as a [`SimDuration`].
    pub fn mem_read_service(&self) -> SimDuration {
        SimDuration(self.mem_read_service_ns)
    }

    /// Write service time as a [`SimDuration`].
    pub fn mem_write_service(&self) -> SimDuration {
        SimDuration(self.mem_write_service_ns)
    }

    /// Read pipeline latency as a [`SimDuration`].
    pub fn mem_read_latency(&self) -> SimDuration {
        SimDuration(self.mem_read_latency_ns)
    }

    /// Write visibility delay as a [`SimDuration`].
    pub fn write_visibility(&self) -> SimDuration {
        SimDuration(self.write_visibility_ns)
    }

    /// Spin-poll server occupancy as a [`SimDuration`].
    pub fn poll_service(&self) -> SimDuration {
        SimDuration(self.poll_service_ns)
    }

    /// Spin-poll loop gap as a [`SimDuration`].
    pub fn poll_gap(&self) -> SimDuration {
        SimDuration(self.poll_gap_ns)
    }

    /// Effective spin re-check period: one global-read round trip plus the
    /// loop gap.
    pub fn poll_round_trip(&self) -> SimDuration {
        SimDuration(self.mem_read_service_ns + self.mem_read_latency_ns + self.poll_gap_ns)
    }

    /// `__syncthreads()` cost as a [`SimDuration`].
    pub fn syncthreads(&self) -> SimDuration {
        SimDuration(self.syncthreads_ns)
    }

    /// Cold kernel-launch time (`t_O`) as a [`SimDuration`].
    pub fn kernel_launch(&self) -> SimDuration {
        SimDuration(self.kernel_launch_ns)
    }

    /// Warm (pooled/pipelined) kernel-launch time as a [`SimDuration`].
    pub fn warm_launch(&self) -> SimDuration {
        SimDuration(self.warm_launch_ns)
    }

    /// Per-round CPU explicit synchronization overhead as a [`SimDuration`].
    pub fn explicit_round_overhead(&self) -> SimDuration {
        SimDuration(self.explicit_round_overhead_ns)
    }

    /// Per-round CPU implicit synchronization overhead as a [`SimDuration`].
    pub fn implicit_round_overhead(&self) -> SimDuration {
        SimDuration(self.implicit_round_overhead_ns)
    }

    /// One park/wake handoff of a parking barrier waiter as a
    /// [`SimDuration`].
    pub fn park_wake(&self) -> SimDuration {
        SimDuration(self.park_wake_ns)
    }

    /// The extra per-round cost the cost model charges a GPU-side barrier
    /// for running `n` blocks where only `max_resident` fit at once:
    /// `2 * (waves - 1) * park_wake_ns`, i.e. two park/wake handoffs per
    /// extra wave of blocks (one to deschedule a spinning wave, one to
    /// schedule the next). Zero when the grid fits.
    pub fn oversubscription_penalty_ns(&self, n: usize, max_resident: usize) -> u64 {
        let waves = n.div_ceil(max_resident.max(1)) as u64;
        2 * waves.saturating_sub(1) * self.park_wake_ns
    }
}

impl Default for CalibrationProfile {
    fn default() -> Self {
        CalibrationProfile::gtx280()
    }
}

/// Iteration budget for the online host probes ([`measure_host`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasureBudget {
    /// Iterations of the hot-loop probes (contended atomics, flag
    /// ping-pong). Spawn/rendezvous probes use small fixed counts.
    pub iters: u32,
}

impl MeasureBudget {
    /// ~1–2 ms of probing: enough for a stable method choice, cheap enough
    /// to run once at startup.
    pub fn quick() -> Self {
        MeasureBudget { iters: 2_000 }
    }

    /// ~10x the quick budget, for offline characterization (the
    /// `autotune` bench binary's default).
    pub fn standard() -> Self {
        MeasureBudget { iters: 20_000 }
    }
}

impl Default for MeasureBudget {
    fn default() -> Self {
        MeasureBudget::quick()
    }
}

/// Measure a [`CalibrationProfile`] for the *host* the process is running
/// on, with the same probes the barriers themselves exercise.
///
/// The host runtime's "device" is the machine's cache-coherence fabric, so
/// the profile is populated from four direct measurements:
///
/// * **contended `fetch_add`** on one shared cache line → `atomic_add_ns`
///   (the `t_a` of Eq. 6: RMWs to one address serialize);
/// * **flag ping-pong** between two threads → the one-way cost of a store
///   becoming visible plus a spinner observing it. The observation share
///   maps onto the spin components (`mem_read_*`, `poll_*`) and the store
///   share onto `mem_write_service_ns` + `write_visibility_ns`, keeping
///   `poll_round_trip()` equal to the measured observe time;
/// * **uncontended `fetch_add`** → `syncthreads_ns` (an intra-block fence
///   on the host is one local atomic);
/// * **thread spawn/join and condvar rendezvous** → `kernel_launch_ns`,
///   `explicit_round_overhead_ns` (spawn+join per round, as the launch
///   engine's `run_relaunch` strategy pays for `cpu-explicit`) and
///   `implicit_round_overhead_ns` (one driver round trip, as
///   `CpuImplicitSync`'s rendezvous pays for `cpu-implicit`).
///
/// The split of the one-way ping-pong cost between its store and observe
/// halves is a first-order attribution (stores are charged 1/4; a spinner
/// is by definition already polling when the store lands), but the *sums*
/// the selector consumes — `poll_round_trip()` and store + visibility —
/// match what was measured. Every field is clamped to ≥ 1 ns so downstream
/// algebra never divides by zero.
pub fn measure_host(budget: MeasureBudget) -> CalibrationProfile {
    let iters = budget.iters.max(64);
    let atomic_add_ns = contended_atomic_ns(iters);
    let one_way = pingpong_one_way_ns(iters);
    // Store : observe = 1 : 3 of the one-way flag handoff.
    let store_total = (one_way / 4).max(2);
    let observe = (one_way - store_total).max(2);
    let syncthreads_ns = uncontended_atomic_ns(iters);
    let kernel_launch_ns = spawn_join_ns(8);
    let warm_launch_ns = pooled_relaunch_ns(64);
    let explicit_round_overhead_ns = explicit_round_ns(12);
    let implicit_round_overhead_ns = implicit_round_ns(64);
    let park_wake_ns = park_wake_one_way_ns(64);
    let poll_gap_ns = (observe / 8).max(1);
    let mem_read_service_ns = (observe / 8).max(1);
    let mem_read_latency_ns = (observe - poll_gap_ns - mem_read_service_ns).max(1);
    CalibrationProfile {
        atomic_add_ns: atomic_add_ns.max(1),
        mem_read_service_ns,
        mem_write_service_ns: (store_total / 2).max(1),
        mem_read_latency_ns,
        write_visibility_ns: (store_total - store_total / 2).max(1),
        poll_service_ns: (observe / 16).max(1),
        poll_gap_ns,
        syncthreads_ns: syncthreads_ns.max(1),
        kernel_launch_ns: kernel_launch_ns.max(1),
        warm_launch_ns: warm_launch_ns.max(1),
        explicit_round_overhead_ns: explicit_round_overhead_ns.max(1),
        implicit_round_overhead_ns: implicit_round_overhead_ns.max(1),
        park_wake_ns: park_wake_ns.max(1),
    }
}

/// Per-op cost of `fetch_add` on a line two threads fight over: both hammer
/// the same counter, so ops serialize at the coherence fabric and
/// `wall / total_ops` approximates the service time (Eq. 6's `t_a`).
fn contended_atomic_ns(iters: u32) -> u64 {
    let counter = Arc::new(AtomicU64::new(0));
    let gate = Arc::new(Barrier::new(2));
    let worker = {
        let counter = Arc::clone(&counter);
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || {
            gate.wait();
            let start = Instant::now();
            for _ in 0..iters {
                counter.fetch_add(1, Ordering::AcqRel);
            }
            start.elapsed()
        })
    };
    gate.wait();
    let start = Instant::now();
    for _ in 0..iters {
        counter.fetch_add(1, Ordering::AcqRel);
    }
    let mine = start.elapsed();
    let theirs = worker.join().expect("probe thread");
    // Both loops overlap; the longer one spans all 2*iters serialized ops.
    let wall = mine.max(theirs);
    (wall.as_nanos() as u64) / (2 * iters as u64)
}

/// Spin-then-yield wait, the same strategy the runtime's barriers use: a
/// short pure-spin window for the multicore fast path, then `yield_now` so
/// an oversubscribed (or single-CPU) host hands the CPU to the storer
/// instead of burning a scheduler quantum per handoff.
fn spin_until(flag: &AtomicU64, goal: u64) {
    let mut tries = 0u32;
    while flag.load(Ordering::Acquire) < goal {
        tries += 1;
        if tries < 128 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// One-way cost of a release store being observed by an acquire spinner:
/// half of a ping-pong round trip between two threads alternating on one
/// flag word.
fn pingpong_one_way_ns(iters: u32) -> u64 {
    let flag = Arc::new(AtomicU64::new(0));
    let gate = Arc::new(Barrier::new(2));
    let partner = {
        let flag = Arc::clone(&flag);
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || {
            gate.wait();
            for i in 0..iters as u64 {
                flag.store(2 * i + 1, Ordering::Release);
                spin_until(&flag, 2 * i + 2);
            }
        })
    };
    gate.wait();
    let start = Instant::now();
    for i in 0..iters as u64 {
        spin_until(&flag, 2 * i + 1);
        flag.store(2 * i + 2, Ordering::Release);
    }
    let wall = start.elapsed();
    partner.join().expect("probe thread");
    // Each iteration is two one-way handoffs.
    (wall.as_nanos() as u64) / (2 * iters as u64)
}

/// Per-op cost of an uncontended local atomic — the host stand-in for
/// `__syncthreads()` (a block is one thread here; its intra-block fence is
/// a single local RMW).
fn uncontended_atomic_ns(iters: u32) -> u64 {
    let counter = AtomicU64::new(0);
    let start = Instant::now();
    for _ in 0..iters {
        counter.fetch_add(1, Ordering::AcqRel);
    }
    (start.elapsed().as_nanos() as u64) / iters as u64
}

/// Cost of spawning and joining one no-op thread — the host runtime's
/// "kernel launch".
fn spawn_join_ns(reps: u32) -> u64 {
    let start = Instant::now();
    for _ in 0..reps {
        std::thread::spawn(|| {}).join().expect("probe thread");
    }
    (start.elapsed().as_nanos() as u64) / reps as u64
}

/// Per-round cost of CPU-explicit style synchronization: spawn two worker
/// threads and join them, once per round.
fn explicit_round_ns(rounds: u32) -> u64 {
    let start = Instant::now();
    for _ in 0..rounds {
        let a = std::thread::spawn(|| {});
        let b = std::thread::spawn(|| {});
        a.join().expect("probe thread");
        b.join().expect("probe thread");
    }
    (start.elapsed().as_nanos() as u64) / rounds as u64
}

/// Per-round cost of CPU-implicit style synchronization: a persistent
/// worker and a driver exchanging rounds through a mutex + condvar —
/// the same rendezvous `CpuImplicitSync` uses.
fn implicit_round_ns(rounds: u32) -> u64 {
    #[derive(Default)]
    struct Rendezvous {
        state: Mutex<(u64, u64)>, // (dispatched round, acked round)
        cv: Condvar,
    }
    let shared = Arc::new(Rendezvous::default());
    let worker = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            let mut done = 0u64;
            while done < rounds as u64 {
                let mut st = shared.state.lock().expect("probe lock");
                while st.0 <= done {
                    st = shared.cv.wait(st).expect("probe wait");
                }
                done = st.0;
                st.1 = done;
                shared.cv.notify_all();
            }
        })
    };
    let start = Instant::now();
    for round in 1..=rounds as u64 {
        let mut st = shared.state.lock().expect("probe lock");
        st.0 = round;
        shared.cv.notify_all();
        while st.1 < round {
            st = shared.cv.wait(st).expect("probe wait");
        }
    }
    let wall = start.elapsed();
    worker.join().expect("probe thread");
    (wall.as_nanos() as u64) / rounds as u64
}

/// One park/wake handoff of a parking barrier waiter: two threads alternate
/// on a condvar, each *timed*-waiting (the barrier's park phase — a
/// parked waiter always re-arms a bounded wait) until the peer's notify
/// lands. Half of a round trip is one park-to-wake latency, the unit the
/// cost model charges per descheduled wave in an oversubscribed grid.
fn park_wake_one_way_ns(rounds: u32) -> u64 {
    #[derive(Default)]
    struct Lot {
        state: Mutex<u64>, // completed half-rounds
        cv: Condvar,
    }
    let shared = Arc::new(Lot::default());
    let bound = std::time::Duration::from_millis(1);
    let worker = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            let goal = 2 * rounds as u64;
            let mut st = shared.state.lock().expect("probe lock");
            while *st < goal {
                if *st % 2 == 1 {
                    *st += 1;
                    shared.cv.notify_all();
                } else {
                    st = shared.cv.wait_timeout(st, bound).expect("probe wait").0;
                }
            }
        })
    };
    let goal = 2 * rounds as u64;
    let start = Instant::now();
    {
        let mut st = shared.state.lock().expect("probe lock");
        while *st < goal {
            if *st % 2 == 0 {
                *st += 1;
                shared.cv.notify_all();
            } else {
                st = shared.cv.wait_timeout(st, bound).expect("probe wait").0;
            }
        }
    }
    let wall = start.elapsed();
    worker.join().expect("probe thread");
    (wall.as_nanos() as u64) / (2 * rounds as u64)
}

/// One warm (pooled) kernel relaunch: dispatch a launch sequence number to a
/// resident two-worker pool and wait until every worker has picked it up.
/// Unlike `spawn_join_ns` (the cold launch probe) there is no thread
/// creation or teardown on the critical path — only the handoff a
/// persistent runtime pays per launch, in the shape `GridRuntime` gives it:
/// both sides poll an atomic (64 spins, then yields for ≈ 100 µs) and only
/// then park on a condvar, and a publisher notifies only when someone is
/// parked. Back-to-back launches therefore never leave the polling phase,
/// which is the warm case the probe prices.
fn pooled_relaunch_ns(launches: u32) -> u64 {
    struct Pool {
        seq: AtomicU64,  // submitted launch seq
        acks: AtomicU64, // total pickups over all launches
        parked: Mutex<u64>,
        cv: Condvar,
    }
    impl Pool {
        fn wait(&self, ready: impl Fn() -> bool) {
            for _ in 0..64 {
                if ready() {
                    return;
                }
                std::hint::spin_loop();
            }
            let start = Instant::now();
            while start.elapsed() < Duration::from_micros(100) {
                if ready() {
                    return;
                }
                std::thread::yield_now();
            }
            let mut parked = self.parked.lock().expect("probe lock");
            while !ready() {
                *parked += 1;
                parked = self.cv.wait(parked).expect("probe wait");
                *parked -= 1;
            }
        }
        fn publish(&self, word: &AtomicU64) {
            let parked = self.parked.lock().expect("probe lock");
            word.fetch_add(1, Ordering::AcqRel);
            if *parked > 0 {
                self.cv.notify_all();
            }
        }
    }
    const WORKERS: u64 = 2;
    let shared = Arc::new(Pool {
        seq: AtomicU64::new(0),
        acks: AtomicU64::new(0),
        parked: Mutex::new(0),
        cv: Condvar::new(),
    });
    let workers: Vec<_> = (0..WORKERS)
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for seq in 1..=launches as u64 {
                    shared.wait(|| shared.seq.load(Ordering::Acquire) >= seq);
                    shared.publish(&shared.acks);
                }
            })
        })
        .collect();
    let start = Instant::now();
    for seq in 1..=launches as u64 {
        shared.publish(&shared.seq);
        shared.wait(|| shared.acks.load(Ordering::Acquire) >= WORKERS * seq);
    }
    let wall = start.elapsed();
    for w in workers {
        w.join().expect("probe thread");
    }
    (wall.as_nanos() as u64) / launches as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gtx280_orderings_hold() {
        let c = CalibrationProfile::gtx280();
        // CPU explicit costs more per round than CPU implicit (Fig. 11, obs. 1).
        assert!(c.explicit_round_overhead_ns > c.implicit_round_overhead_ns);
        // Spin polls are lighter at the partition than demand reads.
        assert!(c.poll_service_ns < c.mem_read_service_ns);
        // An atomic RMW is more expensive than a plain read/write service.
        assert!(c.atomic_add_ns > c.mem_read_service_ns);
        assert!(c.atomic_add_ns > c.mem_write_service_ns);
        // Intra-block sync is far cheaper than any global round trip.
        assert!(c.syncthreads_ns < c.mem_read_latency_ns);
        // A kernel launch costs microseconds, dwarfing single memory ops.
        assert!(c.kernel_launch_ns > 10 * c.mem_read_latency_ns);
        // A warm (pooled) relaunch skips driver/launch setup, so it sits
        // strictly below the cold launch but is not free.
        assert!(c.warm_launch_ns < c.kernel_launch_ns);
        assert!(c.warm_launch_ns > 0);
    }

    #[test]
    fn simple_sync_crossover_ballpark() {
        // Back-of-envelope Eq. 6 check against the calibration: at N = 24
        // blocks, N * t_a plus one observation delay should be within ~25%
        // of the CPU implicit per-round overhead (the Figure 11 crossover).
        let c = CalibrationProfile::gtx280();
        let n = 24;
        let simple = n * c.atomic_add_ns + c.poll_round_trip().as_nanos();
        let implicit = c.implicit_round_overhead_ns;
        let ratio = simple as f64 / implicit as f64;
        assert!((0.75..1.25).contains(&ratio), "ratio {ratio} out of range");
    }

    #[test]
    fn duration_accessors_match_fields() {
        let c = CalibrationProfile::gtx280();
        assert_eq!(c.atomic_add().as_nanos(), c.atomic_add_ns);
        assert_eq!(c.poll_gap().as_nanos(), c.poll_gap_ns);
        assert_eq!(c.poll_service().as_nanos(), c.poll_service_ns);
        assert_eq!(c.kernel_launch().as_nanos(), c.kernel_launch_ns);
        assert_eq!(c.warm_launch().as_nanos(), c.warm_launch_ns);
        assert_eq!(c.syncthreads().as_nanos(), c.syncthreads_ns);
        assert_eq!(c.mem_read_service().as_nanos(), c.mem_read_service_ns);
        assert_eq!(c.mem_write_service().as_nanos(), c.mem_write_service_ns);
        assert_eq!(c.mem_read_latency().as_nanos(), c.mem_read_latency_ns);
        assert_eq!(c.write_visibility().as_nanos(), c.write_visibility_ns);
        assert_eq!(
            c.explicit_round_overhead().as_nanos(),
            c.explicit_round_overhead_ns
        );
        assert_eq!(
            c.implicit_round_overhead().as_nanos(),
            c.implicit_round_overhead_ns
        );
        assert_eq!(c.park_wake().as_nanos(), c.park_wake_ns);
    }

    #[test]
    fn oversubscription_penalty_scales_with_waves() {
        let c = CalibrationProfile::gtx280();
        // A grid that fits costs nothing extra.
        assert_eq!(c.oversubscription_penalty_ns(30, 30), 0);
        assert_eq!(c.oversubscription_penalty_ns(1, 30), 0);
        // 31 blocks on 30 SMs is two waves: one extra park/wake pair.
        assert_eq!(c.oversubscription_penalty_ns(31, 30), 2 * c.park_wake_ns);
        // 16x oversubscription is 16 waves: 30 handoffs.
        assert_eq!(
            c.oversubscription_penalty_ns(480, 30),
            2 * 15 * c.park_wake_ns
        );
        // Degenerate zero-resident denominator must not panic.
        assert_eq!(c.oversubscription_penalty_ns(4, 0), 6 * c.park_wake_ns);
    }

    #[test]
    fn fermi_class_is_uniformly_faster() {
        let g = CalibrationProfile::gtx280();
        let f = CalibrationProfile::fermi_class();
        assert!(f.atomic_add_ns < g.atomic_add_ns / 4);
        assert!(f.mem_read_latency_ns < g.mem_read_latency_ns);
        assert!(f.implicit_round_overhead_ns < g.implicit_round_overhead_ns);
        assert!(f.explicit_round_overhead_ns > f.implicit_round_overhead_ns);
        assert!(f.warm_launch_ns < g.warm_launch_ns);
        assert!(f.warm_launch_ns < f.kernel_launch_ns);
    }

    #[test]
    fn unit_profile_is_cheap() {
        let u = CalibrationProfile::unit();
        assert_eq!(u.kernel_launch_ns, 0);
        assert_eq!(u.atomic_add_ns, 1);
    }

    #[test]
    fn default_is_gtx280() {
        assert_eq!(CalibrationProfile::default(), CalibrationProfile::gtx280());
    }

    #[test]
    fn measured_host_profile_is_usable() {
        // Tiny budget: this runs in well under 100 ms even on a loaded CI
        // box. The assertions are structural (no field the selector's
        // algebra consumes may be zero), not absolute timings.
        let cal = measure_host(MeasureBudget { iters: 256 });
        assert!(cal.atomic_add_ns >= 1);
        assert!(cal.poll_round_trip().as_nanos() >= 3);
        assert!(cal.mem_write_service_ns >= 1 && cal.write_visibility_ns >= 1);
        assert!(cal.syncthreads_ns >= 1);
        // Spawn+join per round costs more than a condvar rendezvous on any
        // host — the paper's explicit-vs-implicit ordering, reproduced.
        assert!(cal.explicit_round_overhead_ns > cal.implicit_round_overhead_ns);
        assert!(cal.kernel_launch_ns >= 1);
        // The warm relaunch probe must produce something usable; its
        // ordering vs. the cold launch is timing-dependent on a loaded box,
        // so only the structural floor is asserted here.
        assert!(cal.warm_launch_ns >= 1);
        // Park/wake must be measurable so oversubscribed candidates are
        // priced, never free.
        assert!(cal.park_wake_ns >= 1);
    }

    #[test]
    fn measure_budgets_are_ordered() {
        assert!(MeasureBudget::quick().iters < MeasureBudget::standard().iters);
        assert_eq!(MeasureBudget::default(), MeasureBudget::quick());
    }
}
