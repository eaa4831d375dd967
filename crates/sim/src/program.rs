//! Barrier protocol programs.
//!
//! Each GPU synchronization method is transcribed into the sequence of
//! global-memory operations its leading thread(s) perform per barrier —
//! taken directly from the paper's listings: Figure 6 (simple), Figure 8
//! (tree), Figure 9 (lock-free). The engine executes these [`Op`]s against
//! the partitioned memory model; barrier completion is a consequence of the
//! values the protocol actually writes and reads.

use blocksync_core::{SyncMethod, TreeShape};

use crate::memory::Addr;

/// Address of the simple barrier's `g_mutex`.
pub const G_MUTEX: Addr = Addr(0);
/// First address of the tree barrier's per-group counters (root last).
pub const TREE_BASE: u64 = 1;
/// Address of the sense-reversing barrier's counter.
pub const SENSE_COUNTER: Addr = Addr(40);
/// Address of the sense-reversing barrier's release flag.
pub const SENSE_FLAG: Addr = Addr(41);
/// First address of the lock-free barrier's `Arrayin`.
pub const ARRAY_IN_BASE: u64 = 64;
/// First address of the lock-free barrier's `Arrayout`.
pub const ARRAY_OUT_BASE: u64 = 128;
/// First address of the dissemination barrier's signal flags
/// (`flag(level, block) = DISS_BASE + level * DISS_STRIDE + block`).
pub const DISS_BASE: u64 = 256;
/// Address stride between dissemination levels.
pub const DISS_STRIDE: u64 = 32;

/// One primitive operation of a barrier protocol, executed by a block's
/// leading thread (or, where noted, by a group of its threads in parallel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `atomicAdd(addr, delta)`; the issuing thread resumes when the atomic
    /// retires at the partition.
    AtomicAdd {
        /// Target word.
        addr: Addr,
        /// Increment.
        delta: u64,
    },
    /// Plain global store.
    Store {
        /// Target word.
        addr: Addr,
        /// Value written.
        value: u64,
    },
    /// Spin until the word at `addr` is at least `goal` (all protocol
    /// variables are monotone, so `>=` equals the paper's `==` check).
    WaitGe {
        /// Watched word.
        addr: Addr,
        /// Release threshold.
        goal: u64,
    },
    /// `count` checking threads spin in parallel, thread `i` on
    /// `base + i`; the op completes when every word reached `goal`
    /// (lock-free barrier step 2, parallel collector).
    WaitAllGe {
        /// First watched word.
        base: Addr,
        /// Number of words/threads.
        count: usize,
        /// Release threshold.
        goal: u64,
    },
    /// `count` threads store `value` to `base + i` in parallel (lock-free
    /// barrier release broadcast).
    StoreRange {
        /// First target word.
        base: Addr,
        /// Number of words/threads.
        count: usize,
        /// Value written.
        value: u64,
    },
    /// `__syncthreads()` intra-block barrier.
    SyncThreads,
    /// Sense-reversing arrival: atomically increment `counter`; if the
    /// incremented value reaches `release_at`, store `flag_value` to
    /// `flag` (the dynamic "last arriver releases" role).
    ArriveAndRelease {
        /// Arrival counter.
        counter: Addr,
        /// Release flag written by the last arriver.
        flag: Addr,
        /// Counter value at which this arriver is the releaser.
        release_at: u64,
        /// Value stored to the flag.
        flag_value: u64,
    },
}

/// The tree barrier as the simulator sees it: the host runtime's
/// [`TreeShape`] plus a counter address per group, assigned levels
/// leaf-first from [`TREE_BASE`], root last.
#[derive(Debug, Clone)]
struct TreeProgram {
    shape: TreeShape,
    /// `counters[l][g]`: address of group `g`'s counter at level `l`.
    counters: Vec<Vec<Addr>>,
    root: Addr,
}

impl TreeProgram {
    fn new(shape: TreeShape) -> Self {
        let mut next_addr = TREE_BASE;
        let counters = shape
            .levels
            .iter()
            .map(|level| {
                let first = next_addr;
                next_addr += level.sizes.len() as u64;
                (first..next_addr).map(Addr).collect()
            })
            .collect();
        TreeProgram {
            shape,
            counters,
            root: Addr(next_addr),
        }
    }
}

/// Builds per-block, per-round protocol programs for one grid.
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    method: SyncMethod,
    n_blocks: usize,
    collector_parallel: bool,
    tree: Option<TreeProgram>,
    collector: usize,
}

impl ProgramBuilder {
    /// Builder for `method` over `n_blocks` blocks. `collector_parallel`
    /// selects the lock-free barrier's parallel (paper default) or serial
    /// collector (ablation).
    ///
    /// # Panics
    /// Panics if `n_blocks == 0` or `method` has no device-side barrier
    /// (CPU methods and `NoSync` are handled analytically, not by programs).
    pub fn new(method: SyncMethod, n_blocks: usize, collector_parallel: bool) -> Self {
        assert!(n_blocks > 0, "need at least one block");
        assert!(
            method.is_gpu_side(),
            "{method} has no device-side barrier program"
        );
        let tree = match method {
            SyncMethod::GpuTree(levels) => Some(TreeProgram::new(TreeShape::new(n_blocks, levels))),
            _ => None,
        };
        ProgramBuilder {
            method,
            n_blocks,
            collector_parallel,
            tree,
            collector: if n_blocks > 1 { 1 } else { 0 },
        }
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.n_blocks
    }

    /// Emit the program block `bid` runs for barrier number `round`
    /// (0-based) into `out`. `out` is cleared first.
    pub fn build(&self, bid: usize, round: usize, out: &mut Vec<Op>) {
        out.clear();
        let goal_round = round as u64 + 1;
        let n = self.n_blocks;
        match self.method {
            SyncMethod::GpuSimple => {
                // Figure 6: atomicAdd then spin on g_mutex == goalVal.
                out.push(Op::AtomicAdd {
                    addr: G_MUTEX,
                    delta: 1,
                });
                out.push(Op::WaitGe {
                    addr: G_MUTEX,
                    goal: goal_round * n as u64,
                });
            }
            SyncMethod::GpuTree(_) => {
                let tree = self.tree.as_ref().expect("tree shape built in new()");
                let mut participant = bid;
                let mut ascending = true;
                for (level, counters) in tree.shape.levels.iter().zip(&tree.counters) {
                    if !ascending {
                        break;
                    }
                    let g = level.group_of[participant];
                    out.push(Op::AtomicAdd {
                        addr: counters[g],
                        delta: 1,
                    });
                    if level.leader[participant] {
                        out.push(Op::WaitGe {
                            addr: counters[g],
                            goal: goal_round * level.sizes[g] as u64,
                        });
                        participant = g;
                    } else {
                        ascending = false;
                    }
                }
                if ascending {
                    out.push(Op::AtomicAdd {
                        addr: tree.root,
                        delta: 1,
                    });
                }
                out.push(Op::WaitGe {
                    addr: tree.root,
                    goal: goal_round * tree.shape.root_width as u64,
                });
            }
            SyncMethod::GpuLockFree => {
                // Figure 9, three steps.
                out.push(Op::Store {
                    addr: Addr(ARRAY_IN_BASE + bid as u64),
                    value: goal_round,
                });
                if bid == self.collector {
                    if self.collector_parallel {
                        out.push(Op::WaitAllGe {
                            base: Addr(ARRAY_IN_BASE),
                            count: n,
                            goal: goal_round,
                        });
                        out.push(Op::SyncThreads);
                        out.push(Op::StoreRange {
                            base: Addr(ARRAY_OUT_BASE),
                            count: n,
                            value: goal_round,
                        });
                    } else {
                        // Ablation: one thread checks all N flags in series.
                        for i in 0..n {
                            out.push(Op::WaitGe {
                                addr: Addr(ARRAY_IN_BASE + i as u64),
                                goal: goal_round,
                            });
                        }
                        out.push(Op::SyncThreads);
                        for i in 0..n {
                            out.push(Op::Store {
                                addr: Addr(ARRAY_OUT_BASE + i as u64),
                                value: goal_round,
                            });
                        }
                    }
                }
                out.push(Op::WaitGe {
                    addr: Addr(ARRAY_OUT_BASE + bid as u64),
                    goal: goal_round,
                });
            }
            SyncMethod::Dissemination => {
                // Extension: log2(N) signal hops, each a store to the
                // partner ahead plus a spin on our own incoming flag.
                let log_rounds = usize::BITS as usize - (n - 1).leading_zeros() as usize;
                for k in 0..log_rounds {
                    let dist = 1usize << k;
                    let to = (bid + dist) % n;
                    let level_base = DISS_BASE + k as u64 * DISS_STRIDE;
                    out.push(Op::Store {
                        addr: Addr(level_base + to as u64),
                        value: goal_round,
                    });
                    out.push(Op::WaitGe {
                        addr: Addr(level_base + bid as u64),
                        goal: goal_round,
                    });
                }
            }
            SyncMethod::SenseReversing => {
                out.push(Op::ArriveAndRelease {
                    counter: SENSE_COUNTER,
                    flag: SENSE_FLAG,
                    release_at: goal_round * n as u64,
                    flag_value: goal_round,
                });
                out.push(Op::WaitGe {
                    addr: SENSE_FLAG,
                    goal: goal_round,
                });
            }
            SyncMethod::CpuExplicit
            | SyncMethod::CpuImplicit
            | SyncMethod::NoSync
            | SyncMethod::Auto => {
                unreachable!("checked in new()")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blocksync_core::TreeLevels;

    fn prog(method: SyncMethod, n: usize, bid: usize, round: usize) -> Vec<Op> {
        let b = ProgramBuilder::new(method, n, true);
        let mut v = Vec::new();
        b.build(bid, round, &mut v);
        v
    }

    #[test]
    fn simple_program_matches_figure_6() {
        let p = prog(SyncMethod::GpuSimple, 30, 7, 0);
        assert_eq!(
            p,
            vec![
                Op::AtomicAdd {
                    addr: G_MUTEX,
                    delta: 1
                },
                Op::WaitGe {
                    addr: G_MUTEX,
                    goal: 30
                },
            ]
        );
        // goalVal advances by N per round (Section 5.1).
        let p2 = prog(SyncMethod::GpuSimple, 30, 7, 4);
        assert_eq!(
            p2[1],
            Op::WaitGe {
                addr: G_MUTEX,
                goal: 150
            }
        );
    }

    #[test]
    fn lockfree_non_collector_is_two_ops_plus_wait() {
        let p = prog(SyncMethod::GpuLockFree, 30, 5, 2);
        assert_eq!(
            p,
            vec![
                Op::Store {
                    addr: Addr(ARRAY_IN_BASE + 5),
                    value: 3
                },
                Op::WaitGe {
                    addr: Addr(ARRAY_OUT_BASE + 5),
                    goal: 3
                },
            ]
        );
    }

    #[test]
    fn lockfree_collector_is_block_one() {
        let p = prog(SyncMethod::GpuLockFree, 30, 1, 0);
        assert_eq!(p.len(), 5);
        assert!(matches!(
            p[1],
            Op::WaitAllGe {
                count: 30,
                goal: 1,
                ..
            }
        ));
        assert_eq!(p[2], Op::SyncThreads);
        assert!(matches!(
            p[3],
            Op::StoreRange {
                count: 30,
                value: 1,
                ..
            }
        ));
        // Single-block grid: block 0 collects.
        let p = prog(SyncMethod::GpuLockFree, 1, 0, 0);
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn lockfree_serial_collector_expands() {
        let b = ProgramBuilder::new(SyncMethod::GpuLockFree, 8, false);
        let mut v = Vec::new();
        b.build(1, 0, &mut v);
        // store + 8 waits + sync + 8 stores + wait = 19
        assert_eq!(v.len(), 19);
        assert!(v
            .iter()
            .all(|op| !matches!(op, Op::WaitAllGe { .. } | Op::StoreRange { .. })));
    }

    #[test]
    fn tree_two_level_leader_and_member() {
        // N=11: groups [3,3,3,2]; block 0 leads group 0; block 1 is a member.
        let leader = prog(SyncMethod::GpuTree(TreeLevels::Two), 11, 0, 0);
        assert!(matches!(leader[0], Op::AtomicAdd { .. }));
        assert!(matches!(leader[1], Op::WaitGe { goal: 3, .. }));
        assert!(matches!(leader[2], Op::AtomicAdd { .. })); // root add
        assert!(matches!(leader[3], Op::WaitGe { goal: 4, .. })); // root width 4

        let member = prog(SyncMethod::GpuTree(TreeLevels::Two), 11, 1, 0);
        assert_eq!(member.len(), 2); // add to group, wait on root
        assert!(matches!(member[1], Op::WaitGe { goal: 4, .. }));
    }

    #[test]
    fn tree_three_level_depth() {
        // N=27, fanout 3: block 0 leads at both levels; program ascends twice.
        let p = prog(SyncMethod::GpuTree(TreeLevels::Three), 27, 0, 0);
        let adds = p
            .iter()
            .filter(|o| matches!(o, Op::AtomicAdd { .. }))
            .count();
        assert_eq!(adds, 3, "leaf add + level-2 add + root add");
        // A non-leader block only adds once.
        let p = prog(SyncMethod::GpuTree(TreeLevels::Three), 27, 2, 0);
        let adds = p
            .iter()
            .filter(|o| matches!(o, Op::AtomicAdd { .. }))
            .count();
        assert_eq!(adds, 1);
    }

    #[test]
    fn tree_counter_addresses_are_distinct() {
        for n in [4usize, 11, 16, 30] {
            for depth in [TreeLevels::Two, TreeLevels::Three] {
                let b = ProgramBuilder::new(SyncMethod::GpuTree(depth), n, true);
                let mut addrs = std::collections::HashSet::new();
                let mut v = Vec::new();
                for bid in 0..n {
                    b.build(bid, 0, &mut v);
                    for op in &v {
                        if let Op::AtomicAdd { addr, .. } = op {
                            addrs.insert(*addr);
                        }
                    }
                }
                // All tree counters live in the dedicated range.
                assert!(addrs
                    .iter()
                    .all(|a| a.0 >= TREE_BASE && a.0 < SENSE_COUNTER.0));
            }
        }
    }

    #[test]
    fn sense_reversing_program() {
        let p = prog(SyncMethod::SenseReversing, 8, 3, 1);
        assert_eq!(
            p,
            vec![
                Op::ArriveAndRelease {
                    counter: SENSE_COUNTER,
                    flag: SENSE_FLAG,
                    release_at: 16,
                    flag_value: 2,
                },
                Op::WaitGe {
                    addr: SENSE_FLAG,
                    goal: 2
                },
            ]
        );
    }

    #[test]
    fn dissemination_program_has_log_hops() {
        let p = prog(SyncMethod::Dissemination, 8, 3, 0);
        assert_eq!(p.len(), 6); // 3 levels x (store + wait)
                                // Level 0 signals (3+1)%8 = 4.
        assert_eq!(
            p[0],
            Op::Store {
                addr: Addr(DISS_BASE + 4),
                value: 1
            }
        );
        assert_eq!(
            p[1],
            Op::WaitGe {
                addr: Addr(DISS_BASE + 3),
                goal: 1
            }
        );
        // Single block: no hops at all.
        let p = prog(SyncMethod::Dissemination, 1, 0, 5);
        assert!(p.is_empty());
    }

    #[test]
    #[should_panic(expected = "no device-side barrier")]
    fn cpu_method_rejected() {
        let _ = ProgramBuilder::new(SyncMethod::CpuImplicit, 8, true);
    }

    #[test]
    fn address_ranges_do_not_overlap() {
        // in[] and out[] must not collide for the largest grid (evaluated
        // through runtime values so the check stays a test, not a const).
        let max_blocks = blocksync_core::SyncMethod::GPU_METHODS.len().max(30) as u64;
        assert!(ARRAY_IN_BASE + max_blocks <= ARRAY_OUT_BASE);
        assert!(SENSE_FLAG < Addr(ARRAY_IN_BASE));
    }
}
