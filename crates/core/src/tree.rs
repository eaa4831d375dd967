//! GPU tree-based synchronization (paper Section 5.2, Figure 8).
//!
//! Blocks are partitioned into groups; each group synchronizes on its own
//! mutex counter (concurrently across groups), then one representative per
//! group ascends to the next level. After the root counter completes, every
//! block observes it and proceeds.
//!
//! Cost model (Eq. 7) for two levels:
//! `t_GTS = (n_hat * t_a + t_c1) + (m * t_a + t_c2)` where
//! `n_hat = max_i n_i` and `m = ceil(sqrt(N))` (Eq. 8). The tree trades one
//! long serial chain of `N` atomic additions for two short chains, at the
//! price of extra counter checks — so it loses below a block-count
//! threshold and wins above it (Figure 11: threshold ≈ 11 blocks vs. the
//! simple barrier).
//!
//! Grouping follows the paper exactly: with `m = ceil(sqrt(N))`, if
//! `m * m == N` all groups have `m` blocks; otherwise the first `m - 1`
//! groups have `floor(N / (m - 1))` blocks and the last group takes the
//! remainder (possibly zero, in which case it is dropped).

use std::sync::atomic::{AtomicU64, Ordering};

use blocksync_model::{chunked_group_sizes, tree3_group_sizes, tree_group_sizes};

use crate::barrier::{BarrierControl, BarrierShared, SyncFault, SyncPolicy};
use crate::method::TreeLevels;

/// One grouping level of a [`TreeShape`]: the assignment of the level's
/// participants (every block at the leaf level, the group leaders of the
/// level below above it) to groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeLevel {
    /// Size of each group (the goal advances by this much per round).
    pub sizes: Vec<usize>,
    /// `group_of[p]` = group index of participant `p` at this level.
    pub group_of: Vec<usize>,
    /// `leader[p]` = whether participant `p` is its group's representative
    /// (the participant that ascends to the next level).
    pub leader: Vec<bool>,
}

impl TreeLevel {
    fn new(sizes: Vec<usize>) -> Self {
        let mut group_of = Vec::new();
        let mut leader = Vec::new();
        for (g, &sz) in sizes.iter().enumerate() {
            for i in 0..sz {
                group_of.push(g);
                leader.push(i == 0);
            }
        }
        TreeLevel {
            sizes,
            group_of,
            leader,
        }
    }
}

/// Who meets whom in a tree barrier — the one encoding of the shape:
/// [`GpuTreeSync`] is this plus a counter per group, the `blocksync-sim`
/// protocol programs are this plus an address per group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeShape {
    /// Levels from leaves (all blocks participate) to just below the root.
    pub levels: Vec<TreeLevel>,
    /// Number of participants at the root (= groups of the last level).
    pub root_width: usize,
}

impl TreeShape {
    /// The shape of a `depth` tree over `n_blocks` blocks, from the model's
    /// group sizes (Eq. 8 and its two variants).
    ///
    /// # Panics
    /// Panics if `n_blocks == 0`.
    pub fn new(n_blocks: usize, depth: TreeLevels) -> Self {
        assert!(n_blocks > 0, "barrier needs at least one block");
        let sizes = match depth {
            // One grouping level + root.
            TreeLevels::Two => vec![tree_group_sizes(n_blocks)],
            // One grouping level with an explicit group size + root. The
            // model tuner picks `group` as the exact Eq. 7 argmin; only
            // the partition differs from `Two`.
            TreeLevels::Custom(group) => {
                vec![chunked_group_sizes(n_blocks, group.clamp(1, n_blocks))]
            }
            // Two grouping levels with fan-out ceil(cbrt(N)) + root.
            TreeLevels::Three => tree3_group_sizes(n_blocks).into(),
        };
        let root_width = sizes.last().expect("every depth groups once").len();
        TreeShape {
            levels: sizes.into_iter().map(TreeLevel::new).collect(),
            root_width,
        }
    }
}

/// Shared state of the tree barrier.
pub struct GpuTreeSync {
    shape: TreeShape,
    /// `counters[l][g]` is `g_mutex_g` of the paper for group `g` of level
    /// `l`.
    counters: Vec<Vec<AtomicU64>>,
    /// The root mutex counter, on which **every** block spins for release.
    root: AtomicU64,
    name: &'static str,
    control: BarrierControl,
}

impl GpuTreeSync {
    /// Build a 2- or 3-level tree barrier for `n_blocks` blocks.
    ///
    /// # Panics
    /// Panics if `n_blocks == 0`.
    pub fn new(n_blocks: usize, depth: TreeLevels) -> Self {
        Self::with_policy(n_blocks, depth, SyncPolicy::default())
    }

    /// Build a tree barrier with an explicit fault policy.
    ///
    /// # Panics
    /// Panics if `n_blocks == 0`.
    pub fn with_policy(n_blocks: usize, depth: TreeLevels, policy: SyncPolicy) -> Self {
        let shape = TreeShape::new(n_blocks, depth);
        let counters = shape
            .levels
            .iter()
            .map(|level| level.sizes.iter().map(|_| AtomicU64::new(0)).collect())
            .collect();
        GpuTreeSync {
            shape,
            counters,
            root: AtomicU64::new(0),
            name: match depth {
                TreeLevels::Two => "gpu-tree-2",
                TreeLevels::Custom(_) => "gpu-tree-grouped",
                TreeLevels::Three => "gpu-tree-3",
            },
            control: BarrierControl::new(n_blocks, policy),
        }
    }
}

impl BarrierShared for GpuTreeSync {
    fn name(&self) -> &'static str {
        self.name
    }

    fn control(&self) -> &BarrierControl {
        &self.control
    }

    fn protocol(&self, bid: usize, round: u64) -> Result<(), SyncFault> {
        let ctl = &self.control;
        let goal_round = round + 1;

        // Ascend: participant id at level 0 is the block id; at level l+1 it
        // is the group index from level l (only leaders ascend).
        let mut participant = bid;
        let mut ascending = true;
        for (lvl, (level, counters)) in self.shape.levels.iter().zip(&self.counters).enumerate() {
            if !ascending {
                break;
            }
            let g = level.group_of[participant];
            let group_goal = goal_round * level.sizes[g] as u64;
            counters[g].fetch_add(1, Ordering::AcqRel);
            // A parked group leader waits on this counter; wake it.
            ctl.wake_parked();
            if level.leader[participant] {
                ctl.wait_until(
                    bid,
                    round,
                    self.name(),
                    || format!("level[{lvl}].counters[{g}] >= {group_goal}"),
                    || counters[g].load(Ordering::Acquire) >= group_goal,
                )?;
                participant = g;
            } else {
                ascending = false;
            }
        }

        // Root: ascending leaders add; everyone spins for release. The last
        // leader's add releases the whole grid, so wake the parked lot.
        if ascending {
            self.root.fetch_add(1, Ordering::AcqRel);
            ctl.wake_parked();
        }
        let root_goal = goal_round * self.shape.root_width as u64;
        ctl.wait_until(
            bid,
            round,
            self.name(),
            || format!("root >= {root_goal}"),
            || self.root.load(Ordering::Acquire) >= root_goal,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::harness;
    use std::sync::Arc;

    #[test]
    fn two_level_various_counts() {
        for n in [1, 2, 3, 4, 5, 8, 11, 12, 16, 30] {
            harness::exercise(Arc::new(GpuTreeSync::new(n, TreeLevels::Two)), n, 200);
        }
    }

    #[test]
    fn three_level_various_counts() {
        for n in [1, 2, 3, 7, 8, 9, 27, 30] {
            harness::exercise(Arc::new(GpuTreeSync::new(n, TreeLevels::Three)), n, 200);
        }
    }

    #[test]
    fn names_reflect_depth() {
        assert_eq!(GpuTreeSync::new(8, TreeLevels::Two).name(), "gpu-tree-2");
        assert_eq!(GpuTreeSync::new(8, TreeLevels::Three).name(), "gpu-tree-3");
        assert_eq!(TreeShape::new(8, TreeLevels::Two).levels.len(), 1);
        assert_eq!(TreeShape::new(8, TreeLevels::Three).levels.len(), 2);
    }

    #[test]
    fn leaf_groups_exposed() {
        let t = TreeShape::new(30, TreeLevels::Two);
        assert_eq!(t.levels[0].sizes, vec![6, 6, 6, 6, 6]);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_blocks_rejected() {
        let _ = GpuTreeSync::new(0, TreeLevels::Two);
    }

    #[test]
    fn custom_group_size_shapes() {
        let leaf_sizes = |n, g| {
            TreeShape::new(n, TreeLevels::Custom(g)).levels[0]
                .sizes
                .clone()
        };
        let t = TreeShape::new(30, TreeLevels::Custom(5));
        assert_eq!(t.levels[0].sizes, vec![5, 5, 5, 5, 5, 5]);
        assert_eq!(t.levels.len(), 1);
        assert_eq!(t.root_width, 6);
        let name = GpuTreeSync::new(30, TreeLevels::Custom(5)).name;
        assert_eq!(name, "gpu-tree-grouped");
        // Remainder goes to a short trailing group.
        assert_eq!(leaf_sizes(11, 4), vec![4, 4, 3]);
        // Oversized / zero group sizes clamp to one group / singletons.
        assert_eq!(leaf_sizes(6, 100), vec![6]);
        assert_eq!(leaf_sizes(3, 0), vec![1, 1, 1]);
    }

    #[test]
    fn custom_tree_synchronizes_blocks() {
        // Three groups of three on a tuned shape.
        harness::exercise(Arc::new(GpuTreeSync::new(9, TreeLevels::Custom(3))), 9, 50);
    }

    #[test]
    fn abandoned_barrier_times_out_both_depths() {
        use std::time::Duration;
        for depth in [TreeLevels::Two, TreeLevels::Three] {
            let policy = SyncPolicy::with_timeout(Duration::from_millis(20));
            let b = GpuTreeSync::with_policy(9, depth, policy);
            match b.sync(4, 0) {
                Err(SyncFault::TimedOut { diagnostic }) => {
                    assert_eq!(diagnostic.waiting_block, 4, "{depth:?}");
                    assert_eq!(diagnostic.stragglers().len(), 8, "{depth:?}");
                }
                other => panic!("{depth:?}: expected timeout, got {other:?}"),
            }
        }
    }
}
