//! Where the barrier protocols live in the simulated machine.
//!
//! The protocols themselves — Figure 6 (simple), Figure 8 (tree), Figure 9
//! (lock-free) and the two extensions — are written once, in
//! [`blocksync_core::program`], as sequences of [`Op`]s on named
//! [`Word`]s; the host runtime executes the same sequences on real
//! atomics. This module gives each word an address in the partitioned
//! memory model ([`addr`]) and collects a block's ops for one round into
//! the list the engine steps through ([`collect`]); barrier completion is a
//! consequence of the values the protocol actually writes and reads.

use std::convert::Infallible;

use blocksync_core::program::{Op, Program, Word};

use crate::memory::Addr;

/// Address of the simple barrier's `g_mutex`.
const G_MUTEX: u64 = 0;
/// First address of the tree barrier's per-group counters (root last).
const TREE_BASE: u64 = 1;
/// Address of the sense-reversing barrier's counter; its flag is the next.
const SENSE_BASE: u64 = 40;
/// First address of the lock-free barrier's `Arrayin`.
const ARRAY_IN_BASE: u64 = 64;
/// Least distance from `Arrayin` to `Arrayout`.
const ARRAY_STRIDE: u64 = 64;
/// First address of the dissemination barrier's signal flags.
const DISS_BASE: u64 = 256;
/// Least address stride between dissemination hops.
const DISS_STRIDE: u64 = 32;

/// The address of `word` in a grid of `n_blocks` blocks.
///
/// The partition owning an address is `addr % num_partitions`, so where a
/// word sits decides whom it queues behind. A per-block array gets a
/// stride of its fixed least width or `n_blocks`, whichever is larger:
/// fixed widths alone (64 between `Arrayin` and `Arrayout`, 32 between
/// dissemination hops) make the arrays overlap once a grid outgrows them,
/// and a block then reads a neighbour's flag as its own release. One
/// simulation runs one method, so only a method's own words need distinct
/// addresses.
pub(crate) fn addr(word: Word, n_blocks: usize) -> Addr {
    let n = n_blocks as u64;
    Addr(match word {
        Word::GMutex => G_MUTEX,
        Word::TreeCounter { index, .. } | Word::TreeRoot { index } => TREE_BASE + index as u64,
        Word::SenseCount => SENSE_BASE,
        Word::SenseFlag => SENSE_BASE + 1,
        Word::ArrayIn(i) => ARRAY_IN_BASE + i as u64,
        Word::ArrayOut(i) => ARRAY_IN_BASE + n.max(ARRAY_STRIDE) + i as u64,
        Word::DissFlag { hop, block } => DISS_BASE + hop as u64 * n.max(DISS_STRIDE) + block as u64,
    })
}

/// Collect into `out` (cleared first) the ops `block` runs for barrier
/// number `round`. The lock-free collector's wait-all and store-all are
/// one thread per element in the paper; with `collector_parallel` off
/// (ablation: Section 5.3 says the parallel design "saves considerable
/// synchronization overhead") the simulated collector executes them with
/// a single thread, one element after another.
pub(crate) fn collect(
    program: &Program,
    block: usize,
    round: usize,
    collector_parallel: bool,
    out: &mut Vec<Op>,
) {
    out.clear();
    let Ok(()) = program.visit(block, round as u64, |op| {
        match op {
            Op::WaitAllGe { base, count, goal } if !collector_parallel => {
                out.extend((0..count).map(|i| Op::WaitGe(base.nth(i), goal)));
            }
            Op::StoreRange { base, count, value } if !collector_parallel => {
                out.extend((0..count).map(|i| Op::Store(base.nth(i), value)));
            }
            op => out.push(op),
        }
        Ok::<(), Infallible>(())
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use blocksync_core::{SyncMethod, TreeLevels};
    use std::collections::HashMap;

    /// Every device-side method, plus tuned trees down to one block per
    /// group (the most counters a tree can have).
    fn methods() -> impl Iterator<Item = SyncMethod> {
        SyncMethod::GPU_METHODS
            .into_iter()
            .chain(SyncMethod::EXTENSION_METHODS)
            .chain([1, 3].map(|g| SyncMethod::GpuTree(TreeLevels::Custom(g))))
    }

    /// Every word `program` touches in one round, over all blocks.
    fn words(program: &Program) -> Vec<Word> {
        let mut seen = Vec::new();
        let mut ops = Vec::new();
        for block in 0..program.n_blocks() {
            // Serial form: one op per word.
            collect(program, block, 0, false, &mut ops);
            seen.extend(ops.iter().flat_map(|op| match *op {
                Op::AtomicAdd(word) | Op::Store(word, _) | Op::WaitGe(word, _) => vec![word],
                Op::ArriveAndRelease { counter, flag, .. } => vec![counter, flag],
                _ => vec![],
            }));
        }
        seen
    }

    #[test]
    fn a_methods_words_never_share_an_address_up_to_480_blocks() {
        for method in methods() {
            for n in (1..=66).chain([119, 120, 121, 240, 256, 257, 480]) {
                let mut owner: HashMap<Addr, Word> = HashMap::new();
                for word in words(&Program::new(method, n)) {
                    let first = *owner.entry(addr(word, n)).or_insert(word);
                    assert_eq!(first, word, "{method} n={n}: both at {:?}", addr(word, n));
                }
            }
        }
    }

    #[test]
    fn addresses_at_thirty_blocks_are_the_calibrated_ones() {
        // The GTX 280 figures were calibrated with these addresses (the
        // partition is `addr % 8`); the map may only differ from them where
        // they would alias.
        for n in [1, 8, 30] {
            assert_eq!(addr(Word::GMutex, n), Addr(0));
            let counter = |level, group, index| Word::TreeCounter {
                level,
                group,
                index,
            };
            assert_eq!(addr(counter(0, 0, 0), n), Addr(1));
            assert_eq!(addr(counter(1, 2, 11), n), Addr(12));
            assert_eq!(addr(Word::TreeRoot { index: 12 }, n), Addr(13));
            assert_eq!(addr(Word::SenseCount, n), Addr(40));
            assert_eq!(addr(Word::SenseFlag, n), Addr(41));
            for i in 0..n {
                assert_eq!(addr(Word::ArrayIn(i), n), Addr(64 + i as u64));
                assert_eq!(addr(Word::ArrayOut(i), n), Addr(128 + i as u64));
                for hop in 0..5 {
                    let flag = Word::DissFlag { hop, block: i };
                    assert_eq!(addr(flag, n), Addr(256 + 32 * hop as u64 + i as u64));
                }
            }
        }
        // 64 and 32 blocks are the last sizes the fixed strides hold.
        assert_eq!(addr(Word::ArrayOut(0), 64), Addr(128));
        assert_eq!(addr(Word::ArrayOut(0), 65), Addr(129));
        assert_eq!(addr(Word::DissFlag { hop: 1, block: 0 }, 32), Addr(288));
        assert_eq!(addr(Word::DissFlag { hop: 1, block: 0 }, 33), Addr(289));
    }

    #[test]
    fn serial_collector_runs_the_same_ops_one_element_at_a_time() {
        let program = Program::new(SyncMethod::GpuLockFree, 8);
        let (mut parallel, mut serial) = (Vec::new(), Vec::new());
        collect(&program, 1, 0, true, &mut parallel);
        collect(&program, 1, 0, false, &mut serial);
        assert_eq!(parallel.len(), 5);
        // store + 8 waits + sync + 8 stores + wait = 19
        assert_eq!(serial.len(), 19);
        assert_eq!(
            serial[1..9],
            std::array::from_fn::<_, 8, _>(|i| Op::WaitGe(Word::ArrayIn(i), 1))
        );
        assert_eq!(serial[9], Op::SyncThreads);
        // Everyone else's program does not depend on the collector's kind.
        collect(&program, 5, 0, true, &mut parallel);
        collect(&program, 5, 0, false, &mut serial);
        assert_eq!(parallel, serial);
    }
}
