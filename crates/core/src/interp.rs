//! The host's interpreter of the barrier protocols: every device-side
//! method is [`Program::visit`] executed, op by op as it is visited, on a
//! cache-line-padded array of `std::sync::atomic` words.
//!
//! A block is one OS thread here, so the lock-free collector checks its
//! `N` in-flags in a loop and `__syncthreads()` is a no-op; the paper's
//! parallel-vs-serial collector distinction is a *timing* question,
//! answered in `blocksync-sim`.
//!
//! These are all of the runtime's barrier-protocol `Ordering`s
//! (DESIGN.md §5 has the table): an arrival is a `Release` write (`AcqRel`
//! for a counter, so a chain of adds carries every earlier arriver's
//! writes to the last), a departure is an `Acquire` read of a word some
//! arrival wrote — which is what makes `sync` a publication barrier.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crossbeam::utils::CachePadded;

use crate::barrier::{BarrierControl, BarrierShared, SyncFault, SyncPolicy};
use crate::method::{SyncMethod, TreeLevels};
use crate::program::{Op, Program, Word};

/// The shared state of every device-side barrier: the paper's `__device__`
/// globals (`g_mutex`, `Arrayin`, `Arrayout`, ...) as one word array sized
/// from the block count, and the protocol that runs on them.
pub(crate) struct AtomicBarrier {
    program: Program,
    words: Vec<CachePadded<AtomicU64>>,
    control: BarrierControl,
}

impl AtomicBarrier {
    /// # Panics
    /// As [`Program::new`]: zero blocks, or a method with no device-side
    /// protocol.
    pub(crate) fn new(method: SyncMethod, n_blocks: usize, policy: SyncPolicy) -> Self {
        let program = Program::new(method, n_blocks);
        AtomicBarrier {
            words: (0..program.words())
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            program,
            control: BarrierControl::new(n_blocks, policy),
        }
    }

    /// Reset in place for the next launch of the grid, as
    /// [`AtomicBarrier::new`] built it: every word zero, and the control
    /// plane unpoisoned, with no arrivals and no recorder
    /// ([`BarrierControl::reset`]). The caller's `&mut` proves no block is
    /// inside; a poisoned barrier is never reset (its launch failed).
    pub(crate) fn reset(&mut self) {
        for word in &mut self.words {
            *word.get_mut() = 0;
        }
        self.control.reset();
    }

    /// Where `word` lives. Only one method's words exist in one barrier,
    /// so different methods' words may share a slot.
    #[inline]
    fn word(&self, word: Word) -> &AtomicU64 {
        let n = self.program.n_blocks();
        let slot = match word {
            Word::GMutex | Word::SenseCount => 0,
            Word::SenseFlag => 1,
            Word::TreeCounter { index, .. } | Word::TreeRoot { index } => index,
            Word::ArrayIn(i) => i,
            Word::ArrayOut(i) => n + i,
            Word::DissFlag { hop, block } => hop * n + block,
        };
        &self.words[slot]
    }

    #[inline]
    fn store(&self, word: Word, value: u64) {
        self.word(word).store(value, Ordering::Release);
    }

    #[inline]
    fn add(&self, word: Word) -> u64 {
        self.word(word).fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Wait for `word >= goal`, noting in `left` where the wait left its
    /// spin phase unless an earlier wait of the round already did.
    #[inline]
    fn wait(
        &self,
        block: usize,
        round: u64,
        word: Word,
        goal: u64,
        left: &mut Option<Instant>,
    ) -> Result<(), SyncFault> {
        let cell = self.word(word);
        let at = self.control.wait_until(
            block,
            round,
            self.name(),
            || format!("{word} >= {goal}"),
            || cell.load(Ordering::Acquire) >= goal,
        )?;
        *left = left.or(at);
        Ok(())
    }

    /// Run one op of `block`'s round-`round` protocol. Inlined, so that
    /// where the op is a constant the match folds away and what is left is
    /// the listing's own code.
    #[inline(always)]
    fn execute(
        &self,
        block: usize,
        round: u64,
        op: Op,
        left: &mut Option<Instant>,
    ) -> Result<(), SyncFault> {
        match op {
            Op::AtomicAdd(word) => {
                self.add(word);
            }
            Op::Store(word, value) => self.store(word, value),
            Op::WaitGe(word, goal) => self.wait(block, round, word, goal, left)?,
            Op::WaitAllGe { base, count, goal } => {
                (0..count).try_for_each(|i| self.wait(block, round, base.nth(i), goal, left))?
            }
            Op::StoreRange { base, count, value } => {
                for i in 0..count {
                    self.store(base.nth(i), value);
                }
            }
            // Orders a block's threads; a block is one thread here.
            Op::SyncThreads => {}
            Op::ArriveAndRelease {
                counter,
                flag,
                release_at,
                flag_value,
            } => {
                if self.add(counter) == release_at {
                    self.store(flag, flag_value);
                }
            }
        }
        Ok(())
    }
}

impl BarrierShared for AtomicBarrier {
    fn name(&self) -> &'static str {
        match self.program.method() {
            SyncMethod::GpuSimple => "gpu-simple",
            SyncMethod::GpuTree(TreeLevels::Two) => "gpu-tree-2",
            SyncMethod::GpuTree(TreeLevels::Custom(_)) => "gpu-tree-grouped",
            SyncMethod::GpuTree(TreeLevels::Three) => "gpu-tree-3",
            SyncMethod::GpuLockFree => "gpu-lock-free",
            SyncMethod::SenseReversing => "sense-reversing",
            SyncMethod::Dissemination => "dissemination",
            _ => unreachable!("Program::new admits device-side methods only"),
        }
    }

    fn control(&self) -> &BarrierControl {
        &self.control
    }

    fn protocol(&self, block: usize, round: u64) -> Result<Option<Instant>, SyncFault> {
        let mut left = None;
        // A protocol calls its visitor from several sites; inlined into
        // each, the op it is handed is a constant there.
        self.program.visit(
            block,
            round,
            #[inline(always)]
            |op| self.execute(block, round, op, &mut left),
        )?;
        Ok(left)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::harness;
    use std::sync::Arc;
    use std::time::Duration;

    /// Every device-side method, plus a tuned tree.
    fn methods() -> impl Iterator<Item = SyncMethod> {
        SyncMethod::GPU_METHODS
            .into_iter()
            .chain(SyncMethod::EXTENSION_METHODS)
            .chain([SyncMethod::GpuTree(TreeLevels::Custom(3))])
    }

    const SIZES: [usize; 7] = [1, 2, 3, 5, 8, 11, 30];

    #[test]
    fn every_method_synchronizes_every_size() {
        let names = [
            "gpu-simple",
            "gpu-tree-2",
            "gpu-tree-3",
            "gpu-lock-free",
            "sense-reversing",
            "dissemination",
            "gpu-tree-grouped",
        ];
        let build = |method, n| AtomicBarrier::new(method, n, SyncPolicy::default());
        for (method, name) in methods().zip(names) {
            // A single block never blocks.
            let alone = build(method, 1);
            assert_eq!((alone.name(), alone.num_blocks()), (name, 1));
            (0..1000).for_each(|r| assert_eq!(alone.sync(0, r), Ok(None)));
            for n in SIZES {
                let rounds = if n <= 8 { 300 } else { 60 };
                harness::exercise(Arc::new(build(method, n)), n, rounds);
            }
            let empty = std::panic::catch_unwind(|| build(method, 0).num_blocks());
            let message = crate::launch::payload_message(&*empty.expect_err("n = 0 must panic"));
            assert!(
                message.contains("at least one block"),
                "{method}: {message}"
            );
        }
    }

    #[test]
    fn every_word_has_its_own_slot_inside_the_array() {
        for method in methods() {
            for n in SIZES {
                let b = AtomicBarrier::new(method, n, SyncPolicy::default());
                let mut slots = std::collections::HashMap::new();
                let mut see = |word: Word| {
                    let at = b.word(word) as *const AtomicU64;
                    let first = *slots.entry(at).or_insert(word);
                    assert_eq!(first, word, "{method} n={n}: two words in one slot");
                };
                for block in 0..n {
                    let visited = b.program.visit(block, 0, |op| {
                        match op {
                            Op::AtomicAdd(word) | Op::Store(word, _) | Op::WaitGe(word, _) => {
                                see(word)
                            }
                            Op::WaitAllGe { base, count, .. }
                            | Op::StoreRange { base, count, .. } => {
                                (0..count).for_each(|i| see(base.nth(i)))
                            }
                            Op::ArriveAndRelease { counter, flag, .. } => {
                                see(counter);
                                see(flag);
                            }
                            Op::SyncThreads => {}
                        }
                        Ok::<(), std::convert::Infallible>(())
                    });
                    assert!(visited.is_ok());
                }
                assert_eq!(slots.len(), b.words.len(), "{method} n={n}: unused words");
            }
        }
    }

    /// Block `waiting` of `n` syncs alone; the timeout must name it, the
    /// blocks that never came, and the paper's name for the word it was
    /// stuck on.
    #[test]
    fn abandoned_barrier_times_out_naming_the_stragglers_and_the_word() {
        let cases = [
            (SyncMethod::GpuSimple, 2, 0, "g_mutex >= 2"),
            (SyncMethod::GpuTree(TreeLevels::Two), 9, 4, "root >= 3"),
            (
                SyncMethod::GpuTree(TreeLevels::Two),
                9,
                3,
                "counters[0][1] >= 3",
            ),
            (SyncMethod::GpuTree(TreeLevels::Three), 9, 4, "root >= 1"),
            (
                SyncMethod::GpuTree(TreeLevels::Custom(3)),
                9,
                0,
                "counters[0][0] >= 3",
            ),
            (SyncMethod::GpuLockFree, 3, 1, "Arrayin[0] >= 1"),
            (SyncMethod::GpuLockFree, 3, 2, "Arrayout[2] >= 1"),
            (SyncMethod::SenseReversing, 2, 0, "sense >= 1"),
            (SyncMethod::Dissemination, 4, 2, "flags[0][2] >= 1"),
        ];
        for (method, n, waiting, flag) in cases {
            let policy = SyncPolicy::with_timeout(Duration::from_millis(20));
            let b = AtomicBarrier::new(method, n, policy);
            match b.sync(waiting, 0) {
                Err(SyncFault::TimedOut { diagnostic }) => {
                    assert_eq!(diagnostic.waiting_block, waiting, "{method}");
                    assert_eq!(diagnostic.round, 0, "{method}");
                    assert_eq!(diagnostic.barrier, b.name());
                    assert_eq!(diagnostic.flag, flag, "{method}");
                    let others: Vec<usize> = (0..n).filter(|&p| p != waiting).collect();
                    assert_eq!(diagnostic.stragglers(), others, "{method}");
                }
                other => panic!("{method}: expected timeout, got {other:?}"),
            }
        }
    }
}
