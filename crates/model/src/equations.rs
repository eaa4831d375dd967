//! Equations 1 and 3–9 of the paper.
//!
//! Times are nanoseconds (`f64`). Functions taking per-round slices
//! implement the general summations; the `_uniform` variants implement the
//! common case where every round costs the same (the micro-benchmark).

/// Eq. 1 / Eq. 3 — CPU explicit synchronization: every launch is serialized,
/// so the total is the plain sum of launch, compute, and synchronization
/// per round: `T = sum_i (t_O(i) + t_C(i) + t_CES(i))`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn total_explicit(t_o: &[f64], t_c: &[f64], t_ces: &[f64]) -> f64 {
    assert_eq!(t_o.len(), t_c.len());
    assert_eq!(t_c.len(), t_ces.len());
    t_o.iter()
        .zip(t_c)
        .zip(t_ces)
        .map(|((o, c), s)| o + c + s)
        .sum()
}

/// Eq. 3 with uniform rounds: `M * (t_O + t_C + t_CES)`.
pub fn total_explicit_uniform(rounds: usize, t_o: f64, t_c: f64, t_ces: f64) -> f64 {
    rounds as f64 * (t_o + t_c + t_ces)
}

/// Eq. 4 — CPU implicit synchronization: only the first launch pays `t_O`;
/// the rest are pipelined: `T = t_O(1) + sum_i (t_C(i) + t_CIS(i))`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn total_implicit(t_o_first: f64, t_c: &[f64], t_cis: &[f64]) -> f64 {
    assert_eq!(t_c.len(), t_cis.len());
    t_o_first + t_c.iter().zip(t_cis).map(|(c, s)| c + s).sum::<f64>()
}

/// Eq. 4 with uniform rounds.
pub fn total_implicit_uniform(rounds: usize, t_o_first: f64, t_c: f64, t_cis: f64) -> f64 {
    t_o_first + rounds as f64 * (t_c + t_cis)
}

/// Eq. 5 — GPU synchronization: a single launch, then `M` barrier-separated
/// compute phases: `T = t_O + sum_i (t_C(i) + t_GS(i))`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn total_gpu(t_o: f64, t_c: &[f64], t_gs: &[f64]) -> f64 {
    assert_eq!(t_c.len(), t_gs.len());
    t_o + t_c.iter().zip(t_gs).map(|(c, s)| c + s).sum::<f64>()
}

/// Eq. 5 with uniform rounds.
pub fn total_gpu_uniform(rounds: usize, t_o: f64, t_c: f64, t_gs: f64) -> f64 {
    t_o + rounds as f64 * (t_c + t_gs)
}

/// Eq. 6 — GPU simple synchronization barrier cost: the `N` atomic
/// additions serialize, the counter check is concurrent:
/// `t_GSS = N * t_a + t_c`.
pub fn t_gss(n_blocks: usize, t_a: f64, t_c: f64) -> f64 {
    n_blocks as f64 * t_a + t_c
}

/// Eq. 8 — tree group sizes for `n` blocks: `m = ceil(sqrt(N))` groups; if
/// `m^2 == N` every group has `m` blocks, otherwise the first `m - 1` groups
/// have `floor(N / (m-1))` and the last takes the (possibly zero, then
/// dropped) remainder.
///
/// The one copy of the grouping: `blocksync_core::tree::TreeShape` (and
/// through it the host barrier and the simulator's programs) is built from
/// these sizes.
pub fn tree_group_sizes(n: usize) -> Vec<usize> {
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

/// Eq. 7 — GPU 2-level tree synchronization barrier cost:
/// `t_GTS = (n_hat * t_a + t_c1) + (m * t_a + t_c2)` with `n_hat` the
/// largest group and `m` the group count from Eq. 8.
pub fn t_gts(n_blocks: usize, t_a: f64, t_c1: f64, t_c2: f64) -> f64 {
    let sizes = tree_group_sizes(n_blocks);
    let n_hat = sizes.iter().copied().max().unwrap_or(0) as f64;
    let m = sizes.len() as f64;
    (n_hat * t_a + t_c1) + (m * t_a + t_c2)
}

/// Group sizes for `n` blocks with an explicit group size `g`: the first
/// `floor(n / g)` groups hold `g` blocks, a final partial group takes the
/// remainder. The grouping of `TreeLevels::Custom(g)` and of each level of
/// [`tree3_group_sizes`].
pub fn chunked_group_sizes(n: usize, g: usize) -> Vec<usize> {
    assert!(n > 0 && g > 0);
    let full = n / g;
    let rem = n % g;
    let mut sizes = vec![g; full];
    if rem > 0 {
        sizes.push(rem);
    }
    sizes
}

/// Eq. 7 generalized over an explicit group size `g` instead of the Eq. 8
/// default: `t_GTS(g) = (n_hat * t_a + t_c1) + (m * t_a + t_c2)` with
/// `n_hat = max_i n_i` the largest group and `m = ceil(n / g)` groups.
///
/// `t_gts_grouped(n, Eq.8 group size, ...)` does *not* in general equal
/// [`t_gts`]: Eq. 8 balances `m - 1` equal groups plus a remainder, while
/// this chunks greedily — but both have the same `n_hat + m` envelope, and
/// the argmin over `g` ([`optimal_tree_group`]) is what the auto-tuner uses.
pub fn t_gts_grouped(n: usize, g: usize, t_a: f64, t_c1: f64, t_c2: f64) -> f64 {
    let sizes = chunked_group_sizes(n, g);
    let n_hat = sizes.iter().copied().max().unwrap_or(0) as f64;
    let m = sizes.len() as f64;
    (n_hat * t_a + t_c1) + (m * t_a + t_c2)
}

/// Brute-force argmin of [`t_gts_grouped`] over all valid group sizes
/// `1..=n` — the Eq. 8 optimum computed exactly rather than via the
/// `m = ceil(sqrt(N))` closed form. Ties resolve to the smallest group
/// size. For symmetric check costs the result sits at (or next to)
/// `ceil(sqrt(n))`, which is the paper's Eq. 8 claim.
pub fn optimal_tree_group(n: usize, t_a: f64, t_c1: f64, t_c2: f64) -> usize {
    assert!(n > 0);
    let mut best_g = 1;
    let mut best = f64::INFINITY;
    for g in 1..=n {
        let cost = t_gts_grouped(n, g, t_a, t_c1, t_c2);
        if cost < best {
            best = cost;
            best_g = g;
        }
    }
    best_g
}

/// Group sizes of the 3-level tree's two grouping levels, leaf level
/// first: fan-out `ceil(cbrt(N))` per level, so the blocks are chunked into
/// groups of at most that many and the group leaders chunked again; the
/// second level's groups meet at the root.
pub fn tree3_group_sizes(n: usize) -> [Vec<usize>; 2] {
    assert!(n > 0);
    let fanout = ((n as f64).cbrt().ceil() as usize).max(1);
    let l1 = chunked_group_sizes(n, fanout);
    let l2 = chunked_group_sizes(l1.len(), fanout);
    [l1, l2]
}

/// 3-level tree barrier cost over [`tree3_group_sizes`]: three serialized
/// atomic chains each followed by one check:
/// `t = (n_hat1 * t_a + t_c) + (n_hat2 * t_a + t_c) + (r * t_a + t_c)`.
pub fn t_gts3(n: usize, t_a: f64, t_c: f64) -> f64 {
    let [l1, l2] = tree3_group_sizes(n);
    let n_hat1 = l1.iter().copied().max().unwrap_or(0) as f64;
    let n_hat2 = l2.iter().copied().max().unwrap_or(0) as f64;
    let root = l2.len() as f64;
    (n_hat1 * t_a + t_c) + (n_hat2 * t_a + t_c) + (root * t_a + t_c)
}

/// Eq. 9 — GPU lock-free synchronization barrier cost, independent of the
/// block count: `t_GLS = t_SI + t_CI + t_Sync + t_SO + t_CO`.
pub fn t_gls(t_si: f64, t_ci: f64, t_sync: f64, t_so: f64, t_co: f64) -> f64 {
    t_si + t_ci + t_sync + t_so + t_co
}

/// Sense-reversing barrier cost (extension, not in the paper): `N` atomic
/// arrivals serialize like the simple barrier, the last arrival flips the
/// sense flag (one store), and everyone observes it with one check:
/// `t = N * t_a + t_store + t_c`.
pub fn t_sense(n: usize, t_a: f64, t_store: f64, t_c: f64) -> f64 {
    n as f64 * t_a + t_store + t_c
}

/// Dissemination barrier cost (extension, not in the paper):
/// `ceil(log2 N)` exchange rounds, each a flag store plus one check of the
/// partner's flag — no atomics: `t = ceil(log2 N) * (t_store + t_c)`.
/// Zero for `n == 1` (a single block exchanges with nobody).
pub fn t_dissemination(n: usize, t_store: f64, t_c: f64) -> f64 {
    assert!(n > 0);
    let rounds = n.next_power_of_two().trailing_zeros() as f64;
    rounds * (t_store + t_c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_sums_all_three_components() {
        let t = total_explicit(&[10.0, 10.0], &[100.0, 200.0], &[5.0, 5.0]);
        assert_eq!(t, 330.0);
        assert_eq!(total_explicit_uniform(2, 10.0, 150.0, 5.0), 330.0);
    }

    #[test]
    fn implicit_pays_one_launch() {
        let t = total_implicit(10.0, &[100.0, 200.0], &[5.0, 5.0]);
        assert_eq!(t, 320.0);
        assert_eq!(total_implicit_uniform(2, 10.0, 150.0, 5.0), 320.0);
        // Implicit beats explicit by (M - 1) launches.
        assert!(t < total_explicit(&[10.0, 10.0], &[100.0, 200.0], &[5.0, 5.0]));
    }

    #[test]
    fn gpu_pays_one_launch_and_barrier_costs() {
        let t = total_gpu(10.0, &[100.0, 200.0], &[1.0, 1.0]);
        assert_eq!(t, 312.0);
        assert_eq!(total_gpu_uniform(2, 10.0, 150.0, 1.0), 312.0);
    }

    #[test]
    fn gss_is_linear_in_n() {
        let t_a = 235.0;
        let t_c = 400.0;
        assert_eq!(t_gss(1, t_a, t_c), 635.0);
        let d1 = t_gss(20, t_a, t_c) - t_gss(10, t_a, t_c);
        let d2 = t_gss(30, t_a, t_c) - t_gss(20, t_a, t_c);
        assert_eq!(d1, d2);
        assert_eq!(d1, 10.0 * t_a);
    }

    #[test]
    fn group_sizes_match_paper_examples() {
        assert_eq!(tree_group_sizes(30), vec![6, 6, 6, 6, 6]);
        assert_eq!(tree_group_sizes(16), vec![4, 4, 4, 4]);
        assert_eq!(tree_group_sizes(11), vec![3, 3, 3, 2]);
        // N = 12: m = 4, first 3 groups of 4, remainder 0 -> dropped.
        assert_eq!(tree_group_sizes(12), vec![4, 4, 4]);
        // Tiny cases.
        assert_eq!(tree_group_sizes(1), vec![1]);
        assert_eq!(tree_group_sizes(2), vec![2]);
        assert_eq!(tree_group_sizes(3), vec![3]);
        assert_eq!(tree_group_sizes(4), vec![2, 2]);
        for n in 1..200 {
            assert_eq!(tree_group_sizes(n).iter().sum::<usize>(), n);
        }
    }

    #[test]
    fn tree_beats_simple_for_large_n_with_equal_checks() {
        // Paper, Section 5.2: considering only atomic time, the 2-level tree
        // wins for N > 4; with checking costs the threshold grows.
        let t_a = 235.0;
        for n in 12..=30 {
            assert!(
                t_gts(n, t_a, 400.0, 400.0) < t_gss(n, t_a, 400.0),
                "tree should win at N={n}"
            );
        }
        // And loses for very small N.
        assert!(t_gts(2, t_a, 400.0, 400.0) > t_gss(2, t_a, 400.0));
    }

    #[test]
    fn atomic_only_tree_threshold_is_four() {
        // The paper's own sanity check: with t_c = 0, tree wins for N > 4.
        // (The idealized argument assumes n_hat = m = sqrt(N); with the
        // paper's actual Eq. 8 grouping, N = 5 is a tie.)
        let t_a = 1.0;
        assert!(t_gts(4, t_a, 0.0, 0.0) >= t_gss(4, t_a, 0.0));
        assert!(t_gts(5, t_a, 0.0, 0.0) <= t_gss(5, t_a, 0.0));
        for n in 6..=64 {
            assert!(t_gts(n, t_a, 0.0, 0.0) < t_gss(n, t_a, 0.0), "N={n}");
        }
    }

    #[test]
    fn gls_is_independent_of_block_count_by_construction() {
        let t = t_gls(100.0, 400.0, 60.0, 100.0, 400.0);
        assert_eq!(t, 1060.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_slices_panic() {
        let _ = total_gpu(0.0, &[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn chunked_groups_partition_n() {
        assert_eq!(chunked_group_sizes(30, 6), vec![6, 6, 6, 6, 6]);
        assert_eq!(chunked_group_sizes(11, 4), vec![4, 4, 3]);
        assert_eq!(chunked_group_sizes(5, 8), vec![5]);
        for n in 1..100 {
            for g in 1..=n {
                assert_eq!(chunked_group_sizes(n, g).iter().sum::<usize>(), n);
            }
        }
    }

    #[test]
    fn grouped_cost_extremes_are_degenerate_shapes() {
        // g = n: one group of n plus a root of 1 — the simple barrier's
        // chain plus a trivial second level.
        let t = t_gts_grouped(30, 30, 1.0, 0.0, 0.0);
        assert_eq!(t, 31.0);
        // g = 1: n singleton groups, the root chain carries all n.
        let t = t_gts_grouped(30, 1, 1.0, 0.0, 0.0);
        assert_eq!(t, 31.0);
        // The sqrt-ish middle beats both.
        assert!(t_gts_grouped(30, 6, 1.0, 0.0, 0.0) < t);
    }

    #[test]
    fn optimal_group_sits_near_sqrt() {
        // With symmetric check costs, minimizing n_hat + m lands at (or
        // adjacent to) ceil(sqrt(n)) — the Eq. 8 claim.
        for n in [4usize, 9, 16, 25, 30, 64, 100] {
            let g = optimal_tree_group(n, 235.0, 400.0, 400.0);
            let sqrt = (n as f64).sqrt().ceil() as usize;
            assert!(
                g.abs_diff(sqrt) <= 1,
                "n={n}: argmin group {g} vs ceil(sqrt)={sqrt}"
            );
        }
    }

    #[test]
    fn optimal_group_is_the_brute_force_argmin() {
        let (t_a, t_c1, t_c2) = (100.0, 350.0, 420.0);
        for n in 1..=64 {
            let g = optimal_tree_group(n, t_a, t_c1, t_c2);
            let best = (1..=n)
                .map(|cand| t_gts_grouped(n, cand, t_a, t_c1, t_c2))
                .fold(f64::INFINITY, f64::min);
            assert_eq!(t_gts_grouped(n, g, t_a, t_c1, t_c2), best, "n={n}");
        }
    }

    #[test]
    fn tree3_pays_three_chains() {
        // 27 blocks, fan-out 3: chains of 3/3/3 plus three checks.
        assert_eq!(t_gts3(27, 1.0, 10.0), 3.0 + 3.0 + 3.0 + 30.0);
        // Degenerate single block: three 1-length chains.
        assert_eq!(t_gts3(1, 1.0, 0.0), 3.0);
    }

    #[test]
    fn sense_tracks_simple_plus_store() {
        assert_eq!(
            t_sense(30, 235.0, 100.0, 400.0),
            t_gss(30, 235.0, 400.0) + 100.0
        );
    }

    #[test]
    fn dissemination_is_logarithmic() {
        assert_eq!(t_dissemination(1, 100.0, 400.0), 0.0);
        assert_eq!(t_dissemination(2, 100.0, 400.0), 500.0);
        assert_eq!(t_dissemination(8, 100.0, 400.0), 1500.0);
        // Non-power-of-two rounds up.
        assert_eq!(t_dissemination(30, 100.0, 400.0), 2500.0);
    }
}
