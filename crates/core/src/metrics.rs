//! Streaming metrics for the telemetry plane: counters and log₂-bucketed
//! histograms cheap enough to update from barrier-adjacent code.
//!
//! Two flavours of histogram:
//!
//! * [`Histogram`] — a plain (non-atomic) histogram used for aggregation
//!   and reporting. Supports merging, so per-block histograms can be
//!   combined into one run-level view.
//! * [`BlockHistogram`] — a **single-writer** atomic histogram, one per
//!   block. The owning block updates it with plain `Relaxed` load + store
//!   pairs (never an atomic read-modify-write): each bucket, the count,
//!   and the sum have exactly one writer, so a load followed by a store
//!   cannot lose updates. Readers take a [`BlockHistogram::snapshot`]
//!   after the run's threads have joined (the join edge publishes the
//!   relaxed stores).
//!
//! Bucketing is by bit length: value `v` lands in bucket `⌈log₂(v+1)⌉`, so
//! bucket 0 holds only zero, bucket 1 holds 1, bucket 2 holds 2–3, and so
//! on up to bucket 64. This gives ~2× resolution over the full `u64`
//! range with a fixed 65-slot footprint, which is plenty for spin-poll
//! counts and nanosecond latencies.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ buckets: one per possible bit length of a `u64`, plus
/// the dedicated zero bucket.
pub const NUM_BUCKETS: usize = 65;

/// Bucket index of `v`: its bit length (`0` for zero).
#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (used for percentile estimates).
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A plain log₂-bucketed histogram with count/sum/min/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Rebuild a histogram from previously exported raw parts (see
    /// [`Histogram::buckets`] and the accessors) — the deserialization
    /// path for JSON metric snapshots. The caller is responsible for the
    /// parts being mutually consistent (`count == Σ buckets`, `min`/`max`
    /// bracketing the samples); this constructor does not re-derive them.
    /// Note `min` here is the *raw* field: `u64::MAX` for an empty
    /// histogram, as produced by serializing [`Histogram::new`].
    pub fn from_parts(
        buckets: [u64; NUM_BUCKETS],
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
    ) -> Self {
        Histogram {
            buckets,
            count,
            sum,
            min,
            max,
        }
    }

    /// The raw bucket counts (`buckets[i]` holds samples of bit length
    /// `i`; bucket 0 holds only zero).
    pub fn buckets(&self) -> &[u64; NUM_BUCKETS] {
        &self.buckets
    }

    /// The raw `min` field: `u64::MAX` when empty (unlike
    /// [`Histogram::min`], which reports 0 for an empty histogram). Used
    /// for lossless export/import via [`Histogram::from_parts`].
    pub(crate) fn raw_min(&self) -> u64 {
        self.min
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate `p`-th percentile (`0.0..=1.0`): the upper bound of the
    /// bucket containing that rank, clamped to the observed max.
    ///
    /// # Error bound
    ///
    /// Buckets are log₂-sized, so the reported value can overshoot the
    /// true rank-`p` sample by at most one bucket width: a sample `v > 1`
    /// lands in the bucket covering `(2^(k-1), 2^k - 1]`, and the reported
    /// upper bound `2^k - 1` is strictly less than `2v` — i.e. the
    /// estimate is within **±1 bucket, a factor of < 2×**, and never
    /// undershoots. At exact powers of two the rounding bites hardest:
    /// `v = 2^k` starts a fresh bucket, so its reported percentile is
    /// `2^(k+1) - 1` unless clamped by the observed max (see the
    /// `power_of_two_boundaries` test).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }
}

/// A single-writer atomic histogram for one block.
///
/// The owning block is the only writer, so every update is a `Relaxed`
/// load followed by a `Relaxed` store — **no atomic read-modify-write**,
/// keeping the telemetry plane off the coherence fast path. Cross-thread
/// visibility comes from the launch's completion edge (the pool's result
/// lock), after which
/// [`BlockHistogram::snapshot`] reads are exact.
#[derive(Debug)]
pub struct BlockHistogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for BlockHistogram {
    fn default() -> Self {
        BlockHistogram::new()
    }
}

impl BlockHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        BlockHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample. Must only ever be called from the owning
    /// block's thread (single-writer contract).
    #[inline]
    pub fn record(&self, v: u64) {
        let b = &self.buckets[bucket_of(v)];
        b.store(b.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        self.count
            .store(self.count.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        self.sum.store(
            self.sum.load(Ordering::Relaxed).saturating_add(v),
            Ordering::Relaxed,
        );
        let min = self.min.load(Ordering::Relaxed);
        if v < min {
            self.min.store(v, Ordering::Relaxed);
        }
        let max = self.max.load(Ordering::Relaxed);
        if v > max {
            self.max.store(v, Ordering::Relaxed);
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copy into a plain [`Histogram`] for merging/reporting.
    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        for (dst, src) in h.buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        h.count = self.count.load(Ordering::Relaxed);
        h.sum = self.sum.load(Ordering::Relaxed);
        h.min = self.min.load(Ordering::Relaxed);
        h.max = self.max.load(Ordering::Relaxed);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_bit_lengths() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.percentile(0.5), 0);
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 26.5).abs() < 1e-9);
        // Median rank 2 falls in bucket ⌈log2⌉ = 2 (values 2..3).
        assert_eq!(h.percentile(0.5), 3);
        // p100 is clamped to the observed max.
        assert_eq!(h.percentile(1.0), 100);
    }

    /// The documented percentile error bound at its worst case: an exact
    /// power of two starts a fresh bucket, so the estimate lands at the
    /// *next* bucket's upper bound — still strictly under 2× the true
    /// value, and exact once clamped by the observed max.
    #[test]
    fn power_of_two_boundaries() {
        for k in 1..63usize {
            let v = 1u64 << k;
            // 2^k - 1 is the last value of bucket k; 2^k opens bucket k+1.
            assert_eq!(bucket_of(v - 1), k, "below boundary at k={k}");
            assert_eq!(bucket_of(v), k + 1, "at boundary at k={k}");

            // A lone power-of-two sample: the bucket upper bound would be
            // 2^(k+1) - 1, but clamping to the observed max makes it exact.
            let mut lone = Histogram::new();
            lone.record(v);
            assert_eq!(lone.percentile(0.5), v, "lone sample at k={k}");

            // With a larger sample present the clamp no longer rescues the
            // median: it reports bucket (k+1)'s upper bound, 2^(k+1) - 1 —
            // an overshoot of the true median 2^k, but < 2× it.
            let mut pair = Histogram::new();
            pair.record(v);
            pair.record(v * 2);
            let p50 = pair.percentile(0.5);
            assert_eq!(p50, (v << 1) - 1, "pair median at k={k}");
            assert!(p50 < 2 * v, "bound violated at k={k}: {p50} >= {}", 2 * v);
        }
    }

    #[test]
    fn from_parts_round_trips_raw_fields() {
        let mut h = Histogram::new();
        for v in [0u64, 3, 1 << 20, u64::MAX] {
            h.record(v);
        }
        let rebuilt = Histogram::from_parts(*h.buckets(), h.count(), h.sum(), h.raw_min(), h.max());
        assert_eq!(rebuilt, h);
        // Empty histograms round-trip too (raw min is u64::MAX there).
        let empty = Histogram::new();
        assert_eq!(empty.raw_min(), u64::MAX);
        let rebuilt = Histogram::from_parts(
            *empty.buckets(),
            empty.count(),
            empty.sum(),
            empty.raw_min(),
            empty.max(),
        );
        assert_eq!(rebuilt, empty);
        assert_eq!(rebuilt.min(), 0);
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = Histogram::new();
        a.record(5);
        let mut b = Histogram::new();
        b.record(1000);
        b.record(2);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 1007);
        assert_eq!(a.min(), 2);
        assert_eq!(a.max(), 1000);
    }

    #[test]
    fn block_histogram_snapshot_round_trips() {
        let h = BlockHistogram::new();
        for v in [0u64, 7, 7, 1 << 40] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 4);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 1 << 40);
        let mut expect = Histogram::new();
        for v in [0u64, 7, 7, 1 << 40] {
            expect.record(v);
        }
        assert_eq!(s, expect);
    }
}
