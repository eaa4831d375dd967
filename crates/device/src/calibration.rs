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
    /// Per-round overhead of CPU **explicit** synchronization: kernel
    /// teardown, `cudaThreadSynchronize()` round trip on the host, and a
    /// fresh, non-overlapped launch (Eq. 3).
    pub explicit_round_overhead_ns: u64,
    /// Per-round overhead of CPU **implicit** synchronization: teardown plus
    /// dispatch of the next (already-queued) launch; launch transfer is
    /// pipelined behind the previous round's execution (Eq. 4).
    pub implicit_round_overhead_ns: u64,
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
            explicit_round_overhead_ns: 13_000,
            implicit_round_overhead_ns: 6_000,
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
            explicit_round_overhead_ns: 9_000,
            implicit_round_overhead_ns: 4_000,
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
            explicit_round_overhead_ns: 0,
            implicit_round_overhead_ns: 0,
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

    /// Per-round CPU explicit synchronization overhead as a [`SimDuration`].
    pub fn explicit_round_overhead(&self) -> SimDuration {
        SimDuration(self.explicit_round_overhead_ns)
    }

    /// Per-round CPU implicit synchronization overhead as a [`SimDuration`].
    pub fn implicit_round_overhead(&self) -> SimDuration {
        SimDuration(self.implicit_round_overhead_ns)
    }
}

impl Default for CalibrationProfile {
    fn default() -> Self {
        CalibrationProfile::gtx280()
    }
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
    }

    #[test]
    fn fermi_class_is_uniformly_faster() {
        let g = CalibrationProfile::gtx280();
        let f = CalibrationProfile::fermi_class();
        assert!(f.atomic_add_ns < g.atomic_add_ns / 4);
        assert!(f.mem_read_latency_ns < g.mem_read_latency_ns);
        assert!(f.implicit_round_overhead_ns < g.implicit_round_overhead_ns);
        assert!(f.explicit_round_overhead_ns > f.implicit_round_overhead_ns);
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
}
