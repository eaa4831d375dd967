//! Who meets whom in the tree-based barrier (paper Section 5.2, Figure 8).
//!
//! Blocks are partitioned into groups; each group synchronizes on its own
//! mutex counter (concurrently across groups), then one representative per
//! group ascends to the next level. After the root counter completes, every
//! block observes it and proceeds. The protocol itself is
//! `core::program`'s `tree`; this is the shape it walks.
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

use blocksync_model::{chunked_group_sizes, tree3_group_sizes, tree_group_sizes};

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

/// Who meets whom in a tree barrier — the one encoding of the shape; the
/// tree protocol ([`crate::program`]) names a counter per group of it.
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

    /// Group counters across all levels (the root counter is one more).
    pub fn counters(&self) -> usize {
        self.levels.iter().map(|level| level.sizes.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_sets_the_number_of_grouping_levels() {
        assert_eq!(TreeShape::new(8, TreeLevels::Two).levels.len(), 1);
        assert_eq!(TreeShape::new(8, TreeLevels::Three).levels.len(), 2);
    }

    #[test]
    fn leaf_groups_exposed() {
        let t = TreeShape::new(30, TreeLevels::Two);
        assert_eq!(t.levels[0].sizes, vec![6, 6, 6, 6, 6]);
        assert_eq!(t.counters(), 5);
        // 27 blocks, fan-out 3: nine leaf groups, three above them.
        assert_eq!(TreeShape::new(27, TreeLevels::Three).counters(), 12);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_blocks_rejected() {
        let _ = TreeShape::new(0, TreeLevels::Two);
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
        // Remainder goes to a short trailing group.
        assert_eq!(leaf_sizes(11, 4), vec![4, 4, 3]);
        // Oversized / zero group sizes clamp to one group / singletons.
        assert_eq!(leaf_sizes(6, 100), vec![6]);
        assert_eq!(leaf_sizes(3, 0), vec![1, 1, 1]);
    }
}
