//! Enumeration of the synchronization strategies under study.

use std::fmt;
use std::sync::Arc;

use crate::barrier::{BarrierShared, SyncPolicy};
use crate::implicit::CpuImplicitSync;
use crate::interp::AtomicBarrier;

/// Depth of the tree-based barrier (the paper evaluates 2- and 3-level
/// trees).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TreeLevels {
    /// Two levels: groups of `ceil(sqrt(N))` blocks, then a root.
    Two,
    /// Three levels: fan-out `ceil(cbrt(N))` per level.
    Three,
    /// Two levels with an explicit leaf group size instead of the Eq. 8
    /// `ceil(sqrt(N))` default — the model tuner's tuned fan-out (the exact
    /// argmin of Eq. 7 over all group sizes). A group size ≥ `N`
    /// degenerates to one group plus a trivial root.
    Custom(usize),
}

impl TreeLevels {
    /// Numeric depth.
    pub fn depth(self) -> usize {
        match self {
            TreeLevels::Two | TreeLevels::Custom(_) => 2,
            TreeLevels::Three => 3,
        }
    }
}

/// A synchronization strategy for inter-block communication.
///
/// The two `Cpu*` variants are *executor* strategies (the barrier is the end
/// of the kernel itself); the `Gpu*` variants are *device-side* barriers run
/// inside a persistent kernel. `NoSync` exists to measure pure computation
/// time the way the paper does in Section 7.3 (run with the `__gpu_sync`
/// call removed) — it provides **no** correctness guarantees between blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncMethod {
    /// Kernel relaunch per round with `cudaThreadSynchronize()` between
    /// launches (Section 4.1). Here: spawn worker threads each round and
    /// join them.
    CpuExplicit,
    /// Kernel relaunch per round, launches pipelined (Section 4.2). Here:
    /// persistent block threads synchronized through the driver rendezvous
    /// barrier ([`CpuImplicitSync`], one mutex + condvar).
    CpuImplicit,
    /// One global mutex + `atomicAdd` + spin (Section 5.1).
    GpuSimple,
    /// Hierarchical mutexes (Section 5.2).
    GpuTree(TreeLevels),
    /// `Arrayin`/`Arrayout` flags, no atomic RMW (Section 5.3).
    GpuLockFree,
    /// Classic sense-reversing centralized barrier — not in the paper;
    /// included as a baseline extension.
    SenseReversing,
    /// Dissemination (butterfly) barrier — not in the paper; an
    /// atomic-free O(log N)-hop extension.
    Dissemination,
    /// No inter-block synchronization at all (compute-time measurement
    /// only).
    NoSync,
    /// Tuned selection: at run time the executor times every concrete
    /// method once at the configured block count (cached per process) and
    /// runs the cheapest (see [`crate::autotune`]; the simulator's `Auto`
    /// prices the methods through the Eq. 6–9 cost model instead).
    /// Classified as neither CPU- nor GPU-side — the *resolved* method
    /// determines the execution strategy.
    Auto,
}

impl SyncMethod {
    /// The extension barriers this reproduction adds beyond the paper.
    pub const EXTENSION_METHODS: [SyncMethod; 2] =
        [SyncMethod::SenseReversing, SyncMethod::Dissemination];

    /// All methods evaluated in the paper's figures, in the paper's order.
    pub const PAPER_METHODS: [SyncMethod; 6] = [
        SyncMethod::CpuExplicit,
        SyncMethod::CpuImplicit,
        SyncMethod::GpuSimple,
        SyncMethod::GpuTree(TreeLevels::Two),
        SyncMethod::GpuTree(TreeLevels::Three),
        SyncMethod::GpuLockFree,
    ];

    /// The GPU (device-side) barrier methods.
    pub const GPU_METHODS: [SyncMethod; 4] = [
        SyncMethod::GpuSimple,
        SyncMethod::GpuTree(TreeLevels::Two),
        SyncMethod::GpuTree(TreeLevels::Three),
        SyncMethod::GpuLockFree,
    ];

    /// Whether this method uses a device-side barrier inside a single
    /// persistent kernel (and therefore is subject to the one-block-per-SM
    /// limit).
    pub fn is_gpu_side(self) -> bool {
        matches!(
            self,
            SyncMethod::GpuSimple
                | SyncMethod::GpuTree(_)
                | SyncMethod::GpuLockFree
                | SyncMethod::SenseReversing
                | SyncMethod::Dissemination
        )
    }

    /// Whether this method synchronizes via the host CPU.
    pub fn is_cpu_side(self) -> bool {
        matches!(self, SyncMethod::CpuExplicit | SyncMethod::CpuImplicit)
    }

    /// Build the shared barrier state for a barrier-backed method under a
    /// fault policy: the device-side protocol ([`crate::program`]) run on
    /// host atomics, or the CPU-implicit driver rendezvous
    /// ([`CpuImplicitSync`], a condvar barrier).
    ///
    /// Returns `None` for `CpuExplicit` (its "barrier" is the host's
    /// per-round join, not a shared object), `NoSync`, and `Auto` (which
    /// resolves to a concrete method first).
    pub fn build_barrier_with(
        self,
        n_blocks: usize,
        policy: SyncPolicy,
    ) -> Option<Arc<dyn BarrierShared>> {
        match self {
            SyncMethod::CpuImplicit => {
                Some(Arc::new(CpuImplicitSync::with_policy(n_blocks, policy)))
            }
            SyncMethod::CpuExplicit | SyncMethod::NoSync | SyncMethod::Auto => None,
            device_side => Some(Arc::new(AtomicBarrier::new(device_side, n_blocks, policy))),
        }
    }
}

impl fmt::Display for SyncMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SyncMethod::CpuExplicit => "cpu-explicit",
            SyncMethod::CpuImplicit => "cpu-implicit",
            SyncMethod::GpuSimple => "gpu-simple",
            SyncMethod::GpuTree(TreeLevels::Two) => "gpu-tree-2",
            SyncMethod::GpuTree(TreeLevels::Three) => "gpu-tree-3",
            SyncMethod::GpuTree(TreeLevels::Custom(g)) => return write!(f, "gpu-tree-g{g}"),
            SyncMethod::GpuLockFree => "gpu-lock-free",
            SyncMethod::SenseReversing => "sense-reversing",
            SyncMethod::Dissemination => "dissemination",
            SyncMethod::NoSync => "no-sync",
            SyncMethod::Auto => "auto",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(SyncMethod::GpuSimple.is_gpu_side());
        assert!(SyncMethod::GpuTree(TreeLevels::Two).is_gpu_side());
        assert!(SyncMethod::GpuLockFree.is_gpu_side());
        assert!(SyncMethod::SenseReversing.is_gpu_side());
        assert!(SyncMethod::Dissemination.is_gpu_side());
        assert!(!SyncMethod::CpuImplicit.is_gpu_side());
        assert!(SyncMethod::CpuImplicit.is_cpu_side());
        assert!(SyncMethod::CpuExplicit.is_cpu_side());
        assert!(!SyncMethod::NoSync.is_cpu_side());
        assert!(!SyncMethod::NoSync.is_gpu_side());
        // Auto is a selection directive, not an execution strategy: the
        // resolved method decides CPU vs GPU, so Auto itself is neither.
        assert!(!SyncMethod::Auto.is_cpu_side());
        assert!(!SyncMethod::Auto.is_gpu_side());
        assert!(SyncMethod::GpuTree(TreeLevels::Custom(4)).is_gpu_side());
    }

    #[test]
    fn display_names_unique() {
        let mut names: Vec<String> = SyncMethod::PAPER_METHODS
            .iter()
            .chain(
                [
                    SyncMethod::SenseReversing,
                    SyncMethod::Dissemination,
                    SyncMethod::NoSync,
                    SyncMethod::Auto,
                    SyncMethod::GpuTree(TreeLevels::Custom(4)),
                    SyncMethod::GpuTree(TreeLevels::Custom(5)),
                ]
                .iter(),
            )
            .map(|m| m.to_string())
            .collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn build_barrier_matches_method() {
        let build = |m: SyncMethod| m.build_barrier_with(8, SyncPolicy::default());
        for m in SyncMethod::GPU_METHODS
            .into_iter()
            .chain([SyncMethod::GpuTree(TreeLevels::Custom(3))])
        {
            let b = build(m).expect("gpu method builds a barrier");
            assert_eq!(b.num_blocks(), 8);
        }
        // CPU-implicit's driver rendezvous is a real barrier object.
        let implicit = build(SyncMethod::CpuImplicit).expect("cpu-implicit builds its rendezvous");
        assert_eq!(implicit.num_blocks(), 8);
        assert_eq!(implicit.name(), "cpu-implicit");
        // CpuExplicit's barrier is the host's join, NoSync has none, and
        // Auto has none of its own: the executor resolves it first.
        for m in [
            SyncMethod::CpuExplicit,
            SyncMethod::NoSync,
            SyncMethod::Auto,
        ] {
            assert!(build(m).is_none(), "{m}");
        }
    }

    #[test]
    fn tree_depths() {
        assert_eq!(TreeLevels::Two.depth(), 2);
        assert_eq!(TreeLevels::Three.depth(), 3);
        assert_eq!(TreeLevels::Custom(7).depth(), 2);
    }

    #[test]
    fn custom_tree_display_carries_the_group_size() {
        assert_eq!(
            SyncMethod::GpuTree(TreeLevels::Custom(6)).to_string(),
            "gpu-tree-g6"
        );
        assert_eq!(SyncMethod::Auto.to_string(), "auto");
    }
}
