//! The barrier protocols, written once.
//!
//! In the paper every method is one listing, `__gpu_sync(goalVal)`
//! (Figs. 6, 8, 9). Here every device-side method is one function that
//! *visits* the global-memory operations block `b` performs in barrier
//! round `r`, in program order, handing each [`Op`] to a caller-supplied
//! closure. What an op costs, and what it runs on, is the closure's
//! business:
//!
//! * the host runtime executes each op on `std::sync::atomic` words as it
//!   is visited (`core::interp`, behind
//!   [`SyncMethod::build_barrier_with`]);
//! * `blocksync-sim` collects the ops into the program its event engine
//!   steps through against the partitioned memory model.
//!
//! Ops name their operands as [`Word`]s — the variables of the listings
//! (`g_mutex`, `Arrayin[i]`, ...) — never as addresses; each interpreter
//! maps words to its own storage. Every word is monotone (goals grow by
//! round, Sections 5.1 and 5.3), so every wait is a `>=`.

use std::fmt;

use crate::method::SyncMethod;
use crate::tree::TreeShape;

/// One variable of a barrier protocol, by the name the paper's listing
/// gives it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Word {
    /// The simple barrier's one mutex counter (Fig. 6).
    GMutex,
    /// A tree group's mutex counter (Fig. 8).
    TreeCounter {
        /// Grouping level, leaves first.
        level: usize,
        /// Group within the level.
        group: usize,
        /// Position among all the tree's counters, levels leaf-first, the
        /// root after the last — what an interpreter indexes storage by.
        index: usize,
    },
    /// The tree's root counter, on which every block waits for release.
    TreeRoot {
        /// As [`Word::TreeCounter::index`]: the number of group counters.
        index: usize,
    },
    /// Block `i`'s arrival flag (Fig. 9).
    ArrayIn(usize),
    /// Block `i`'s release flag (Fig. 9).
    ArrayOut(usize),
    /// The sense-reversing barrier's arrival counter.
    SenseCount,
    /// The sense-reversing barrier's release flag.
    SenseFlag,
    /// Dissemination signal to `block` in hop `hop`.
    DissFlag {
        /// Signal hop (distance `2^hop`).
        hop: usize,
        /// Receiving block.
        block: usize,
    },
}

impl Word {
    /// The `i`-th word after this one in its array — how
    /// [`Op::WaitAllGe`] and [`Op::StoreRange`] name their operands.
    /// Words outside an array have no neighbours.
    pub fn nth(self, i: usize) -> Word {
        match self {
            Word::ArrayIn(first) => Word::ArrayIn(first + i),
            Word::ArrayOut(first) => Word::ArrayOut(first + i),
            other => {
                debug_assert_eq!(i, 0, "{other} is not an array element");
                other
            }
        }
    }
}

impl fmt::Display for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Word::GMutex => f.write_str("g_mutex"),
            Word::TreeCounter { level, group, .. } => write!(f, "counters[{level}][{group}]"),
            Word::TreeRoot { .. } => f.write_str("root"),
            Word::ArrayIn(i) => write!(f, "Arrayin[{i}]"),
            Word::ArrayOut(i) => write!(f, "Arrayout[{i}]"),
            Word::SenseCount => f.write_str("count"),
            Word::SenseFlag => f.write_str("sense"),
            Word::DissFlag { hop, block } => write!(f, "flags[{hop}][{block}]"),
        }
    }
}

/// One primitive operation of a barrier protocol, executed by a block's
/// leading thread (or, where noted, by a group of its threads in parallel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `atomicAdd(word, 1)`.
    AtomicAdd(Word),
    /// Plain global store of the value to the word.
    Store(Word, u64),
    /// Spin until the word is at least the goal (all protocol variables are
    /// monotone, so `>=` equals the paper's `==` check).
    WaitGe(Word, u64),
    /// `count` checking threads spin in parallel, thread `i` on
    /// `base.nth(i)`; the op completes when every word reached `goal`
    /// (lock-free barrier step 2). An interpreter with one thread per
    /// block checks them in turn.
    WaitAllGe {
        /// First watched word.
        base: Word,
        /// Number of words/threads.
        count: usize,
        /// Release threshold.
        goal: u64,
    },
    /// `count` threads store `value` to `base.nth(i)` in parallel
    /// (lock-free barrier release broadcast).
    StoreRange {
        /// First target word.
        base: Word,
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
        counter: Word,
        /// Release flag written by the last arriver.
        flag: Word,
        /// Counter value at which this arriver is the releaser.
        release_at: u64,
        /// Value stored to the flag.
        flag_value: u64,
    },
}

/// A device-side method's protocol for one grid: which function below
/// runs, over how many blocks, and (for the trees) who meets whom.
#[derive(Debug, Clone)]
pub struct Program {
    method: SyncMethod,
    n_blocks: usize,
    tree: Option<TreeShape>,
}

impl Program {
    /// The protocol of `method` over `n_blocks` blocks.
    ///
    /// # Panics
    /// Panics if `n_blocks == 0` or `method` has no device-side barrier
    /// (the CPU methods, `NoSync` and `Auto` run no protocol).
    pub fn new(method: SyncMethod, n_blocks: usize) -> Self {
        assert!(n_blocks > 0, "barrier needs at least one block");
        assert!(
            method.is_gpu_side(),
            "{method} has no device-side barrier program"
        );
        let tree = match method {
            SyncMethod::GpuTree(levels) => Some(TreeShape::new(n_blocks, levels)),
            _ => None,
        };
        Program {
            method,
            n_blocks,
            tree,
        }
    }

    /// The method this is the protocol of.
    pub fn method(&self) -> SyncMethod {
        self.method
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.n_blocks
    }

    /// How many distinct words the protocol touches; the host sizes its
    /// word array from it.
    pub(crate) fn words(&self) -> usize {
        let n = self.n_blocks;
        match self.method {
            SyncMethod::GpuSimple => 1,
            SyncMethod::GpuTree(_) => self.tree().counters() + 1,
            SyncMethod::GpuLockFree => 2 * n,
            SyncMethod::SenseReversing => 2,
            SyncMethod::Dissemination => hops(n) * n,
            _ => unreachable!("checked in new()"),
        }
    }

    fn tree(&self) -> &TreeShape {
        self.tree.as_ref().expect("tree shape built in new()")
    }

    /// Visit, in program order, the ops `block` performs in barrier number
    /// `round` (0-based). `visit` returns `Err` to stop early (a faulted
    /// wait); the error is passed through.
    ///
    /// # Errors
    /// The first error `visit` returns.
    #[inline]
    pub fn visit<E>(
        &self,
        block: usize,
        round: u64,
        visit: impl FnMut(Op) -> Result<(), E>,
    ) -> Result<(), E> {
        let n = self.n_blocks;
        match self.method {
            SyncMethod::GpuSimple => simple(n, round, visit),
            SyncMethod::GpuTree(_) => tree(self.tree(), block, round, visit),
            SyncMethod::GpuLockFree => lock_free(n, block, round, visit),
            SyncMethod::SenseReversing => sense_reversing(n, round, visit),
            SyncMethod::Dissemination => dissemination(n, block, round, visit),
            _ => unreachable!("checked in new()"),
        }
    }
}

/// GPU simple synchronization (Section 5.1, Figure 6): `atomicAdd` on the
/// one mutex, then spin until it reaches `goalVal`, which advances by `N`
/// per round — cheaper than resetting the counter, the paper notes, and
/// what makes the word monotone. Eq. 6: `t_GSS = N * t_a + t_c`.
#[inline]
fn simple<E>(n: usize, round: u64, mut visit: impl FnMut(Op) -> Result<(), E>) -> Result<(), E> {
    visit(Op::AtomicAdd(Word::GMutex))?;
    visit(Op::WaitGe(Word::GMutex, (round + 1) * n as u64))
}

/// GPU tree-based synchronization (Section 5.2, Figure 8): each group
/// synchronizes on its own counter, concurrently across groups; one
/// representative per group ascends; after the root counter completes,
/// every block observes it and proceeds. Eq. 7 prices the two short
/// chains of adds that replace the simple barrier's long one.
#[inline]
fn tree<E>(
    shape: &TreeShape,
    block: usize,
    round: u64,
    mut visit: impl FnMut(Op) -> Result<(), E>,
) -> Result<(), E> {
    let goal_round = round + 1;
    // Participant id at level 0 is the block id; at level l+1 it is the
    // group index from level l (only leaders ascend).
    let mut participant = block;
    let mut ascending = true;
    let mut first_counter = 0;
    for (l, level) in shape.levels.iter().enumerate() {
        let group = level.group_of[participant];
        let counter = Word::TreeCounter {
            level: l,
            group,
            index: first_counter + group,
        };
        visit(Op::AtomicAdd(counter))?;
        if !level.leader[participant] {
            ascending = false;
            break;
        }
        visit(Op::WaitGe(counter, goal_round * level.sizes[group] as u64))?;
        participant = group;
        first_counter += level.sizes.len();
    }
    let root = Word::TreeRoot {
        index: shape.counters(),
    };
    if ascending {
        visit(Op::AtomicAdd(root))?;
    }
    visit(Op::WaitGe(root, goal_round * shape.root_width as u64))
}

/// GPU lock-free synchronization (Section 5.3, Figure 9) — no atomic
/// read-modify-write anywhere: block `i` sets `Arrayin[i]`; the collector
/// (block 1, as in the listing; block 0 when it is alone) waits for all of
/// `Arrayin` with one thread per element, `__syncthreads()`, then sets all
/// of `Arrayout`; each block resumes on its own `Arrayout` slot. Eq. 9:
/// the cost is independent of `N`.
#[inline]
fn lock_free<E>(
    n: usize,
    block: usize,
    round: u64,
    mut visit: impl FnMut(Op) -> Result<(), E>,
) -> Result<(), E> {
    let goal = round + 1;
    visit(Op::Store(Word::ArrayIn(block), goal))?;
    if block == usize::from(n > 1) {
        visit(Op::WaitAllGe {
            base: Word::ArrayIn(0),
            count: n,
            goal,
        })?;
        visit(Op::SyncThreads)?;
        visit(Op::StoreRange {
            base: Word::ArrayOut(0),
            count: n,
            value: goal,
        })?;
    }
    visit(Op::WaitGe(Word::ArrayOut(block), goal))
}

/// Sense-reversing centralized barrier (extension; the CPU-literature
/// baseline the paper cites): one arrival counter plus a release flag the
/// last arriver writes; waiters spin on the flag, not the counter. Both
/// words are monotone here, like the paper's `goalVal` scheme.
#[inline]
fn sense_reversing<E>(
    n: usize,
    round: u64,
    mut visit: impl FnMut(Op) -> Result<(), E>,
) -> Result<(), E> {
    let goal = round + 1;
    visit(Op::ArriveAndRelease {
        counter: Word::SenseCount,
        flag: Word::SenseFlag,
        release_at: goal * n as u64,
        flag_value: goal,
    })?;
    visit(Op::WaitGe(Word::SenseFlag, goal))
}

/// Signal hops of a dissemination barrier over `n` blocks: `ceil(log2 n)`.
fn hops(n: usize) -> usize {
    (usize::BITS - (n - 1).leading_zeros()) as usize
}

/// Dissemination (butterfly) barrier (extension): in hop `k`, block `i`
/// signals block `(i + 2^k) mod N` and waits for the signal from
/// `(i - 2^k) mod N`. After `ceil(log2 N)` hops every block transitively
/// depends on every other, with no atomics and no collector — each flag
/// has one writer and one reader.
#[inline]
fn dissemination<E>(
    n: usize,
    block: usize,
    round: u64,
    mut visit: impl FnMut(Op) -> Result<(), E>,
) -> Result<(), E> {
    let goal = round + 1;
    let flag = |hop, block| Word::DissFlag { hop, block };
    for hop in 0..hops(n) {
        visit(Op::Store(flag(hop, (block + (1 << hop)) % n), goal))?;
        visit(Op::WaitGe(flag(hop, block), goal))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::Op::{AtomicAdd as add, Store as store, WaitGe as wait};
    use super::*;
    use crate::method::TreeLevels;
    use std::convert::Infallible;

    fn prog(method: SyncMethod, n: usize, block: usize, round: u64) -> Vec<Op> {
        let mut ops = Vec::new();
        let Ok(()) = Program::new(method, n).visit(block, round, |op| {
            ops.push(op);
            Ok::<(), Infallible>(())
        });
        ops
    }

    #[test]
    fn simple_program_matches_figure_6() {
        let p = prog(SyncMethod::GpuSimple, 30, 7, 0);
        assert_eq!(p, [add(Word::GMutex), wait(Word::GMutex, 30)]);
        // goalVal advances by N per round (Section 5.1).
        assert_eq!(
            prog(SyncMethod::GpuSimple, 30, 7, 4)[1],
            wait(Word::GMutex, 150)
        );
    }

    #[test]
    fn lockfree_program_matches_figure_9() {
        let p = prog(SyncMethod::GpuLockFree, 30, 5, 2);
        assert_eq!(p, [store(Word::ArrayIn(5), 3), wait(Word::ArrayOut(5), 3)]);
        // Block 1 collects: wait-all, __syncthreads(), store-all.
        let p = prog(SyncMethod::GpuLockFree, 30, 1, 0);
        let collect = [
            Op::WaitAllGe {
                base: Word::ArrayIn(0),
                count: 30,
                goal: 1,
            },
            Op::SyncThreads,
            Op::StoreRange {
                base: Word::ArrayOut(0),
                count: 30,
                value: 1,
            },
        ];
        assert_eq!(p[0], store(Word::ArrayIn(1), 1));
        assert_eq!(p[1..4], collect);
        assert_eq!(p[4..], [wait(Word::ArrayOut(1), 1)]);
        // Single-block grid: block 0 collects.
        assert_eq!(prog(SyncMethod::GpuLockFree, 1, 0, 0).len(), 5);
        assert_eq!(Word::ArrayIn(0).nth(7), Word::ArrayIn(7));
    }

    #[test]
    fn tree_program_matches_figure_8() {
        let counter = |level, group, index| Word::TreeCounter {
            level,
            group,
            index,
        };
        // N=11: groups [3,3,3,2]; block 0 leads group 0; block 1 is a member.
        let (group0, root) = (counter(0, 0, 0), Word::TreeRoot { index: 4 });
        let leader = prog(SyncMethod::GpuTree(TreeLevels::Two), 11, 0, 0);
        assert_eq!(
            leader,
            [add(group0), wait(group0, 3), add(root), wait(root, 4)]
        );
        let member = prog(SyncMethod::GpuTree(TreeLevels::Two), 11, 1, 0);
        assert_eq!(member, [add(group0), wait(root, 4)]);
        // N=27, fan-out 3: nine leaf groups, three above them, the root.
        // Block 0 leads at both levels; block 2 leads nowhere.
        let root = Word::TreeRoot { index: 12 };
        let p = prog(SyncMethod::GpuTree(TreeLevels::Three), 27, 0, 0);
        let (leaf, mid) = (counter(0, 0, 0), counter(1, 0, 9));
        let ascent = [add(leaf), wait(leaf, 3), add(mid), wait(mid, 3)];
        assert_eq!(p[..4], ascent);
        assert_eq!(p[4..], [add(root), wait(root, 3)]);
        let p = prog(SyncMethod::GpuTree(TreeLevels::Three), 27, 2, 0);
        assert_eq!(p, [add(leaf), wait(root, 3)]);
    }

    #[test]
    fn sense_reversing_program_is_monotone() {
        let arrive = Op::ArriveAndRelease {
            counter: Word::SenseCount,
            flag: Word::SenseFlag,
            release_at: 16,
            flag_value: 2,
        };
        let p = prog(SyncMethod::SenseReversing, 8, 3, 1);
        assert_eq!(p, [arrive, wait(Word::SenseFlag, 2)]);
    }

    #[test]
    fn dissemination_program_has_log_hops() {
        let flag = |hop, block| Word::DissFlag { hop, block };
        let p = prog(SyncMethod::Dissemination, 8, 3, 0);
        assert_eq!(p.len(), 6); // 3 hops x (store + wait)
                                // Hop 0 signals (3+1)%8 = 4; hop 2 signals (3+4)%8 = 7.
        assert_eq!(p[..2], [store(flag(0, 4), 1), wait(flag(0, 3), 1)]);
        assert_eq!(p[4..], [store(flag(2, 7), 1), wait(flag(2, 3), 1)]);
        // Single block: no hops at all.
        assert!(prog(SyncMethod::Dissemination, 1, 0, 5).is_empty());
        for (n, h) in [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (30, 5), (32, 5)] {
            assert_eq!(hops(n), h, "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "no device-side barrier")]
    fn cpu_method_rejected() {
        let _ = Program::new(SyncMethod::CpuImplicit, 8);
    }
}
