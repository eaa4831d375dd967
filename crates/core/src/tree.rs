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
use std::sync::Arc;

use crate::barrier::{BarrierControl, BarrierShared, BarrierWaiter, SyncFault, SyncPolicy};
use crate::method::TreeLevels;

/// Compute the paper's Eq. 8 group sizes for `n` blocks: `m = ceil(sqrt(n))`
/// groups sized per Section 5.2. Empty trailing groups are dropped.
pub fn sqrt_group_sizes(n: usize) -> Vec<usize> {
    assert!(n > 0);
    let m = (n as f64).sqrt().ceil() as usize;
    if m <= 1 {
        return vec![n];
    }
    if m * m == n {
        return vec![m; m];
    }
    let per = n / (m - 1);
    let mut sizes = vec![per; m - 1];
    let last = n - per * (m - 1);
    if last > 0 {
        sizes.push(last);
    }
    sizes
}

/// Partition `n` participants into chunks of at most `fanout` (used for the
/// 3-level tree's lower levels; also consumed by the `blocksync-sim`
/// protocol programs so simulator and host runtime agree on grouping).
pub fn chunk_sizes(n: usize, fanout: usize) -> Vec<usize> {
    assert!(n > 0 && fanout > 0);
    let full = n / fanout;
    let rem = n % fanout;
    let mut sizes = vec![fanout; full];
    if rem > 0 {
        sizes.push(rem);
    }
    sizes
}

/// One level of the tree: a set of mutex counters, one per group, plus the
/// assignment of the level's participants to groups.
struct Level {
    /// `counters[g]` is `g_mutex_g` of the paper.
    counters: Vec<AtomicU64>,
    /// Size of each group (the goal advances by this much per round).
    sizes: Vec<usize>,
    /// `group_of[p]` = group index of participant `p` at this level.
    group_of: Vec<usize>,
    /// `leader[p]` = whether participant `p` is its group's representative
    /// (the participant that ascends to the next level).
    leader: Vec<bool>,
}

impl Level {
    fn new(sizes: Vec<usize>) -> Self {
        let mut group_of = Vec::new();
        let mut leader = Vec::new();
        for (g, &sz) in sizes.iter().enumerate() {
            for i in 0..sz {
                group_of.push(g);
                leader.push(i == 0);
            }
        }
        let counters = (0..sizes.len()).map(|_| AtomicU64::new(0)).collect();
        Level {
            counters,
            sizes,
            group_of,
            leader,
        }
    }
}

/// Shared state of the tree barrier.
pub struct GpuTreeSync {
    /// Levels from leaves (all blocks participate) to just below the root.
    levels: Vec<Level>,
    /// The root mutex counter, on which **every** block spins for release.
    root: AtomicU64,
    /// Number of participants at the root (= groups of the last level, or
    /// all blocks if there are no intermediate levels).
    root_width: usize,
    n_blocks: usize,
    name: &'static str,
    num_levels: usize,
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
        assert!(n_blocks > 0, "barrier needs at least one block");
        let control = BarrierControl::new(n_blocks, policy);
        let mut levels = Vec::new();
        match depth {
            TreeLevels::Two => {
                // One grouping level + root.
                let sizes = sqrt_group_sizes(n_blocks);
                let width = sizes.len();
                levels.push(Level::new(sizes));
                GpuTreeSync {
                    levels,
                    root: AtomicU64::new(0),
                    root_width: width,
                    n_blocks,
                    name: "gpu-tree-2",
                    num_levels: 2,
                    control,
                }
            }
            TreeLevels::Custom(group) => {
                // One grouping level with an explicit group size + root.
                // The model tuner picks `group` as the exact Eq. 7 argmin;
                // the shape machinery is the same as `Two`, only the
                // partition differs.
                let sizes = chunk_sizes(n_blocks, group.clamp(1, n_blocks));
                let width = sizes.len();
                levels.push(Level::new(sizes));
                GpuTreeSync {
                    levels,
                    root: AtomicU64::new(0),
                    root_width: width,
                    n_blocks,
                    name: "gpu-tree-grouped",
                    num_levels: 2,
                    control,
                }
            }
            TreeLevels::Three => {
                // Two grouping levels with fan-out ceil(cbrt(N)) + root.
                let fanout = (n_blocks as f64).cbrt().ceil() as usize;
                let l1 = chunk_sizes(n_blocks, fanout.max(1));
                let l1_groups = l1.len();
                levels.push(Level::new(l1));
                let l2 = chunk_sizes(l1_groups, fanout.max(1));
                let l2_groups = l2.len();
                levels.push(Level::new(l2));
                GpuTreeSync {
                    levels,
                    root: AtomicU64::new(0),
                    root_width: l2_groups,
                    n_blocks,
                    name: "gpu-tree-3",
                    num_levels: 3,
                    control,
                }
            }
        }
    }

    /// Build a tree barrier with a fixed `fanout` at every level (the
    /// `ablation_fanout` variant of DESIGN.md §5): blocks are chunked into
    /// groups of at most `fanout`, leaders are chunked again, and so on
    /// until at most `fanout` participants remain at the root.
    ///
    /// `fanout >= n_blocks` degenerates to the simple barrier's shape (one
    /// root counter); `fanout == 2` is a binary combining tree.
    ///
    /// # Panics
    /// Panics if `n_blocks == 0` or `fanout < 2`.
    pub fn with_fanout(n_blocks: usize, fanout: usize) -> Self {
        assert!(n_blocks > 0, "barrier needs at least one block");
        assert!(fanout >= 2, "fan-out must be at least 2");
        let mut levels = Vec::new();
        let mut width = n_blocks;
        while width > fanout {
            let sizes = chunk_sizes(width, fanout);
            width = sizes.len();
            levels.push(Level::new(sizes));
        }
        let num_levels = levels.len() + 1;
        GpuTreeSync {
            levels,
            root: AtomicU64::new(0),
            root_width: width,
            n_blocks,
            name: "gpu-tree-custom",
            num_levels,
            control: BarrierControl::new(n_blocks, SyncPolicy::default()),
        }
    }

    /// Number of levels including the root (2 or 3 for the paper's
    /// shapes; variable for [`GpuTreeSync::with_fanout`]).
    pub fn num_levels(&self) -> usize {
        self.num_levels
    }

    /// Group sizes at the leaf level (exposed for tests and the simulator).
    /// Empty when the tree degenerated to a single root level.
    pub fn leaf_group_sizes(&self) -> Vec<usize> {
        self.levels
            .first()
            .map(|l| l.sizes.clone())
            .unwrap_or_default()
    }
}

impl BarrierShared for GpuTreeSync {
    fn num_blocks(&self) -> usize {
        self.n_blocks
    }

    fn waiter(self: Arc<Self>, block_id: usize) -> Box<dyn BarrierWaiter> {
        assert!(block_id < self.n_blocks, "block_id {block_id} out of range");
        Box::new(TreeWaiter {
            shared: self,
            block_id,
            round: 0,
        })
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn control(&self) -> &BarrierControl {
        &self.control
    }
}

struct TreeWaiter {
    shared: Arc<GpuTreeSync>,
    block_id: usize,
    round: u64,
}

impl BarrierWaiter for TreeWaiter {
    fn wait(&mut self) -> Result<(), SyncFault> {
        let s = &*self.shared;
        let ctl = &s.control;
        let bid = self.block_id;
        let goal_round = self.round + 1;
        ctl.record_arrival(bid, self.round);

        // Ascend: participant id at level 0 is the block id; at level l+1 it
        // is the group index from level l (only leaders ascend).
        let mut participant = self.block_id;
        let mut ascending = true;
        for (lvl, level) in s.levels.iter().enumerate() {
            if !ascending {
                break;
            }
            let g = level.group_of[participant];
            let group_goal = goal_round * level.sizes[g] as u64;
            level.counters[g].fetch_add(1, Ordering::AcqRel);
            // A parked group leader waits on this counter; wake it.
            ctl.wake_parked();
            if level.leader[participant] {
                ctl.wait_until(
                    bid,
                    self.round,
                    s.name(),
                    || format!("level[{lvl}].counters[{g}] >= {group_goal}"),
                    || level.counters[g].load(Ordering::Acquire) >= group_goal,
                )?;
                participant = g;
            } else {
                ascending = false;
            }
        }

        // Root: ascending leaders add; everyone spins for release. The last
        // leader's add releases the whole grid, so wake the parked lot.
        if ascending {
            s.root.fetch_add(1, Ordering::AcqRel);
            ctl.wake_parked();
        }
        let root_goal = goal_round * s.root_width as u64;
        ctl.wait_until(
            bid,
            self.round,
            s.name(),
            || format!("root >= {root_goal}"),
            || s.root.load(Ordering::Acquire) >= root_goal,
        )?;
        ctl.record_departure(bid, self.round);
        self.round += 1;
        Ok(())
    }

    fn block_id(&self) -> usize {
        self.block_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::harness;

    #[test]
    fn sqrt_group_sizes_match_paper_formula() {
        // Perfect square: m groups of m.
        assert_eq!(sqrt_group_sizes(16), vec![4, 4, 4, 4]);
        assert_eq!(sqrt_group_sizes(25), vec![5, 5, 5, 5, 5]);
        // N = 11: m = 4, first 3 groups floor(11/3) = 3, last 11 - 9 = 2.
        assert_eq!(sqrt_group_sizes(11), vec![3, 3, 3, 2]);
        // N = 12: m = 4, first 3 groups of 4, remainder 0 -> dropped.
        assert_eq!(sqrt_group_sizes(12), vec![4, 4, 4]);
        // N = 30 (the GTX 280): m = 6, first 5 groups of 6, remainder 0.
        assert_eq!(sqrt_group_sizes(30), vec![6, 6, 6, 6, 6]);
        // Tiny cases.
        assert_eq!(sqrt_group_sizes(1), vec![1]);
        assert_eq!(sqrt_group_sizes(2), vec![2]);
        assert_eq!(sqrt_group_sizes(3), vec![3]);
        assert_eq!(sqrt_group_sizes(4), vec![2, 2]);
    }

    #[test]
    fn group_sizes_always_sum_to_n() {
        for n in 1..=256 {
            let sizes = sqrt_group_sizes(n);
            assert_eq!(sizes.iter().sum::<usize>(), n, "n={n}");
            assert!(sizes.iter().all(|&s| s > 0), "n={n} empty group");
        }
    }

    #[test]
    fn chunk_sizes_partition() {
        assert_eq!(chunk_sizes(10, 4), vec![4, 4, 2]);
        assert_eq!(chunk_sizes(8, 4), vec![4, 4]);
        assert_eq!(chunk_sizes(3, 4), vec![3]);
        for n in 1..=64 {
            for f in 1..=8 {
                assert_eq!(chunk_sizes(n, f).iter().sum::<usize>(), n);
            }
        }
    }

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
        assert_eq!(GpuTreeSync::new(8, TreeLevels::Two).num_levels(), 2);
        assert_eq!(GpuTreeSync::new(8, TreeLevels::Three).num_levels(), 3);
    }

    #[test]
    fn custom_fanout_shapes() {
        // 30 blocks, fan-out 2: 30 -> 15 -> 8 -> 4 -> 2 at the root.
        let t = GpuTreeSync::with_fanout(30, 2);
        assert_eq!(t.name(), "gpu-tree-custom");
        assert_eq!(t.num_levels(), 5);
        // Fan-out >= N degenerates to a single root level.
        let t = GpuTreeSync::with_fanout(8, 16);
        assert_eq!(t.num_levels(), 1);
        assert!(t.leaf_group_sizes().is_empty());
    }

    #[test]
    fn custom_fanout_various_counts() {
        for n in [2, 3, 5, 8, 17, 30] {
            for f in [2, 3, 4, 8] {
                harness::exercise(Arc::new(GpuTreeSync::with_fanout(n, f)), n, 100);
            }
        }
    }

    #[test]
    #[should_panic(expected = "fan-out must be at least 2")]
    fn fanout_one_rejected() {
        let _ = GpuTreeSync::with_fanout(8, 1);
    }

    #[test]
    fn leaf_groups_exposed() {
        let t = GpuTreeSync::new(30, TreeLevels::Two);
        assert_eq!(t.leaf_group_sizes(), vec![6, 6, 6, 6, 6]);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_blocks_rejected() {
        let _ = GpuTreeSync::new(0, TreeLevels::Two);
    }

    #[test]
    fn custom_group_size_shapes() {
        let t = GpuTreeSync::new(30, TreeLevels::Custom(5));
        assert_eq!(t.leaf_group_sizes(), vec![5, 5, 5, 5, 5, 5]);
        assert_eq!(t.num_levels(), 2);
        assert_eq!(t.name, "gpu-tree-grouped");
        // Remainder goes to a short trailing group.
        let t = GpuTreeSync::new(11, TreeLevels::Custom(4));
        assert_eq!(t.leaf_group_sizes(), vec![4, 4, 3]);
        // Oversized / zero group sizes clamp to one group / singletons.
        assert_eq!(
            GpuTreeSync::new(6, TreeLevels::Custom(100)).leaf_group_sizes(),
            vec![6]
        );
        assert_eq!(
            GpuTreeSync::new(3, TreeLevels::Custom(0)).leaf_group_sizes(),
            vec![1, 1, 1]
        );
    }

    #[test]
    fn custom_tree_synchronizes_blocks() {
        // A full barrier round across 3 OS threads on a tuned shape.
        let n = 9;
        let b = Arc::new(GpuTreeSync::new(n, TreeLevels::Custom(3)));
        let handles: Vec<_> = (0..n)
            .map(|bid| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    let mut w = b.waiter(bid);
                    for _ in 0..50 {
                        w.wait().expect("no faults");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("block thread");
        }
    }

    #[test]
    fn abandoned_barrier_times_out_both_depths() {
        use std::time::Duration;
        for depth in [TreeLevels::Two, TreeLevels::Three] {
            let policy = SyncPolicy::with_timeout(Duration::from_millis(20));
            let b = Arc::new(GpuTreeSync::with_policy(9, depth, policy));
            let mut w = Arc::clone(&b).waiter(4);
            match w.wait() {
                Err(SyncFault::TimedOut { diagnostic }) => {
                    assert_eq!(diagnostic.waiting_block, 4, "{depth:?}");
                    assert_eq!(diagnostic.stragglers().len(), 8, "{depth:?}");
                }
                other => panic!("{depth:?}: expected timeout, got {other:?}"),
            }
        }
    }
}
