//! Static architectural description of the simulated GPU.

use crate::error::DeviceError;

/// Architectural parameters of a CUDA-capable GPU, as relevant to the
/// inter-block synchronization study.
///
/// The fields mirror Section 2 of the paper ("Overview of CUDA on the
/// NVIDIA GTX 280"). The one-to-one block-to-SM mapping required by the
/// GPU synchronization approaches means `num_sms` is the maximum number of
/// blocks a persistent kernel may use (see
/// [`GpuSpec::max_persistent_blocks`]). The simulator, which models the
/// non-preemptive GPU, enforces that ceiling; the host runtime's waiters
/// are OS threads that park, so it never consults it.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing / model name, e.g. `"GeForce GTX 280"`.
    pub name: String,
    /// Number of streaming multiprocessors (SMs).
    pub num_sms: u32,
    /// Number of scalar streaming processors (SPs) per SM.
    pub sps_per_sm: u32,
    /// SP clock frequency in MHz.
    pub sp_clock_mhz: u32,
    /// SIMT warp width in threads.
    pub warp_size: u32,
    /// 32-bit registers available per SM.
    pub registers_per_sm: u32,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm: u32,
    /// Global (device) memory in bytes.
    pub global_mem_bytes: u64,
    /// Peak global memory bandwidth in bytes per second.
    pub mem_bandwidth_bytes_per_sec: u64,
    /// Maximum number of threads a single block may contain.
    pub max_threads_per_block: u32,
    /// Maximum resident threads per SM (hardware scheduling limit).
    pub max_threads_per_sm: u32,
    /// Maximum number of resident blocks per SM (hardware scheduling limit;
    /// the persistent-kernel barriers deliberately restrict this to 1).
    pub max_blocks_per_sm: u32,
}

impl GpuSpec {
    /// The NVIDIA GeForce GTX 280 used throughout the paper:
    /// 30 SMs x 8 SPs = 240 SPs at 1296 MHz, 16384 registers and 16 KiB of
    /// shared memory per SM, 1 GiB GDDR3 at 141.7 GB/s.
    pub fn gtx280() -> Self {
        GpuSpec {
            name: "GeForce GTX 280".to_owned(),
            num_sms: 30,
            sps_per_sm: 8,
            sp_clock_mhz: 1296,
            warp_size: 32,
            registers_per_sm: 16_384,
            shared_mem_per_sm: 16 * 1024,
            global_mem_bytes: 1 << 30,
            mem_bandwidth_bytes_per_sec: 141_700_000_000,
            max_threads_per_block: 512,
            max_threads_per_sm: 1024,
            max_blocks_per_sm: 8,
        }
    }

    /// A hypothetical GTX-280-class device scaled to `num_sms` SMs, with
    /// memory bandwidth scaled proportionally. Used by the `scaling`
    /// study (the paper's future-work question: how do the barrier designs
    /// behave as many-core devices grow?).
    ///
    /// # Panics
    /// Panics if `num_sms == 0`.
    pub fn gtx280_scaled(num_sms: u32) -> Self {
        assert!(num_sms > 0, "device needs at least one SM");
        let base = GpuSpec::gtx280();
        GpuSpec {
            name: format!("GTX280-class x{num_sms} SMs"),
            num_sms,
            mem_bandwidth_bytes_per_sec: base.mem_bandwidth_bytes_per_sec * u64::from(num_sms)
                / u64::from(base.num_sms),
            ..base
        }
    }

    /// Total number of scalar processors on the device.
    pub fn total_sps(&self) -> u32 {
        self.num_sms * self.sps_per_sm
    }

    /// Maximum number of blocks usable by a kernel that participates in a
    /// GPU (device-side) barrier.
    ///
    /// Section 5 of the paper: because blocks are non-preemptive, a grid-wide
    /// spin barrier deadlocks unless every block is simultaneously resident,
    /// which the paper guarantees with a one-to-one block/SM mapping (at most
    /// one block per SM, enforced by allocating all shared memory to each
    /// block). Past this ceiling a device-side barrier is not a candidate:
    /// stay at or below it, or synchronize from the CPU.
    pub fn max_persistent_blocks(&self) -> u32 {
        self.num_sms
    }

    /// CUDA-style occupancy: how many blocks of the given resource usage
    /// fit on one SM simultaneously. The minimum over the block-slot,
    /// thread, register, and shared-memory limits; zero when a single
    /// block's demands exceed the SM.
    ///
    /// This is the mechanism behind the paper's one-block-per-SM trick:
    /// requesting all 16 KiB of shared memory per block forces the result
    /// to 1, so the hardware scheduler cannot co-schedule a second block
    /// next to a spinning one.
    pub fn resident_blocks_per_sm(
        &self,
        threads_per_block: u32,
        regs_per_thread: u32,
        shared_mem_bytes: u32,
    ) -> u32 {
        if threads_per_block == 0 || threads_per_block > self.max_threads_per_block {
            return 0;
        }
        let by_threads = self.max_threads_per_sm / threads_per_block;
        let by_regs = self
            .registers_per_sm
            .checked_div(regs_per_thread * threads_per_block)
            .unwrap_or(self.max_blocks_per_sm);
        let by_shmem = self
            .shared_mem_per_sm
            .checked_div(shared_mem_bytes)
            .unwrap_or(self.max_blocks_per_sm);
        self.max_blocks_per_sm
            .min(by_threads)
            .min(by_regs)
            .min(by_shmem)
    }

    /// Whether a launch with this per-block resource usage is pinned to
    /// one block per SM (the precondition for a safe grid spin barrier
    /// without explicit scheduler support).
    pub fn is_one_block_per_sm(
        &self,
        threads_per_block: u32,
        regs_per_thread: u32,
        shared_mem_bytes: u32,
    ) -> bool {
        self.resident_blocks_per_sm(threads_per_block, regs_per_thread, shared_mem_bytes) == 1
    }

    /// Duration of one SP clock cycle in nanoseconds.
    pub fn cycle_ns(&self) -> f64 {
        1000.0 / self.sp_clock_mhz as f64
    }

    /// Validate a launch request for a persistent (GPU-synchronized) kernel.
    ///
    /// Returns [`DeviceError::TooManyBlocks`] if `blocks` exceeds
    /// [`GpuSpec::max_persistent_blocks`] — launching more would deadlock the
    /// spin barrier on real hardware — and
    /// [`DeviceError::TooManyThreads`] if `threads_per_block` exceeds the
    /// architectural block-size limit.
    pub fn validate_persistent_launch(
        &self,
        blocks: u32,
        threads_per_block: u32,
    ) -> Result<(), DeviceError> {
        if blocks == 0 || threads_per_block == 0 {
            return Err(DeviceError::EmptyLaunch);
        }
        if blocks > self.max_persistent_blocks() {
            return Err(DeviceError::TooManyBlocks {
                requested: blocks,
                max: self.max_persistent_blocks(),
            });
        }
        if threads_per_block > self.max_threads_per_block {
            return Err(DeviceError::TooManyThreads {
                requested: threads_per_block,
                max: self.max_threads_per_block,
            });
        }
        Ok(())
    }
}

impl Default for GpuSpec {
    fn default() -> Self {
        GpuSpec::gtx280()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gtx280_matches_paper_section_2() {
        let g = GpuSpec::gtx280();
        assert_eq!(g.num_sms, 30);
        assert_eq!(g.sps_per_sm, 8);
        assert_eq!(g.total_sps(), 240);
        assert_eq!(g.sp_clock_mhz, 1296);
        assert_eq!(g.shared_mem_per_sm, 16 * 1024);
        assert_eq!(g.registers_per_sm, 16_384);
        assert_eq!(g.global_mem_bytes, 1 << 30);
        assert_eq!(g.max_threads_per_block, 512);
    }

    #[test]
    fn persistent_blocks_capped_at_sm_count() {
        let g = GpuSpec::gtx280();
        assert_eq!(g.max_persistent_blocks(), 30);
        assert!(g.validate_persistent_launch(30, 512).is_ok());
        assert!(matches!(
            g.validate_persistent_launch(31, 512),
            Err(DeviceError::TooManyBlocks {
                requested: 31,
                max: 30
            })
        ));
    }

    #[test]
    fn thread_limit_enforced() {
        let g = GpuSpec::gtx280();
        assert!(matches!(
            g.validate_persistent_launch(4, 513),
            Err(DeviceError::TooManyThreads {
                requested: 513,
                max: 512
            })
        ));
    }

    #[test]
    fn empty_launch_rejected() {
        let g = GpuSpec::gtx280();
        assert!(matches!(
            g.validate_persistent_launch(0, 128),
            Err(DeviceError::EmptyLaunch)
        ));
        assert!(matches!(
            g.validate_persistent_launch(8, 0),
            Err(DeviceError::EmptyLaunch)
        ));
    }

    #[test]
    fn cycle_time_is_sub_nanosecond() {
        let g = GpuSpec::gtx280();
        assert!((g.cycle_ns() - 0.7716).abs() < 1e-3);
    }

    #[test]
    fn occupancy_limits() {
        let g = GpuSpec::gtx280();
        // Unconstrained small blocks: capped by the block-slot limit.
        assert_eq!(g.resident_blocks_per_sm(64, 0, 0), 8);
        // Thread-limited: 512-thread blocks, 1024 threads/SM -> 2 blocks.
        assert_eq!(g.resident_blocks_per_sm(512, 0, 0), 2);
        // Register-limited: 32 regs x 512 threads = 16384 regs -> 1 block.
        assert_eq!(g.resident_blocks_per_sm(512, 32, 0), 1);
        // The paper's trick: all shared memory -> exactly 1 block.
        assert_eq!(g.resident_blocks_per_sm(256, 0, 16 * 1024), 1);
        assert!(g.is_one_block_per_sm(256, 0, 16 * 1024));
        assert!(!g.is_one_block_per_sm(256, 0, 0));
        // Over-demand: more shared memory than the SM has -> 0.
        assert_eq!(g.resident_blocks_per_sm(256, 0, 32 * 1024), 0);
        // Half the shared memory still admits two blocks (the hazard the
        // paper avoids).
        assert_eq!(g.resident_blocks_per_sm(128, 0, 8 * 1024), 2);
        // Oversized blocks cannot launch at all.
        assert_eq!(g.resident_blocks_per_sm(1024, 0, 0), 0);
        assert_eq!(g.resident_blocks_per_sm(0, 0, 0), 0);
    }

    #[test]
    fn requesting_all_shared_memory_pins_one_block_per_sm() {
        let g = GpuSpec::gtx280();
        assert!(g.is_one_block_per_sm(256, 0, g.shared_mem_per_sm));
    }

    #[test]
    fn scaled_device_proportions() {
        let g = GpuSpec::gtx280_scaled(120);
        assert_eq!(g.num_sms, 120);
        assert_eq!(g.max_persistent_blocks(), 120);
        assert_eq!(
            g.mem_bandwidth_bytes_per_sec,
            4 * GpuSpec::gtx280().mem_bandwidth_bytes_per_sec
        );
        assert_eq!(g.sps_per_sm, 8);
        assert!(g.validate_persistent_launch(120, 512).is_ok());
        assert!(g.validate_persistent_launch(121, 512).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one SM")]
    fn zero_sm_scaling_rejected() {
        let _ = GpuSpec::gtx280_scaled(0);
    }

    #[test]
    fn serde_round_trip() {
        let g = GpuSpec::gtx280();
        let json = serde_json_like(&g);
        // serde round trip via the generic serializer-independent check:
        // re-serialize a clone and compare.
        assert_eq!(json, serde_json_like(&g.clone()));
    }

    /// Cheap structural digest (we avoid pulling serde_json into the
    /// dependency set; equality of Debug output is sufficient here).
    fn serde_json_like(g: &GpuSpec) -> String {
        format!("{g:?}")
    }
}
