//! The telemetry plane: low-overhead per-block event tracing.
//!
//! Every figure in the paper is derived from the `t = t_O + t_C + t_S`
//! decomposition (Eq. 1), but aggregate [`crate::KernelStats`] cannot say
//! *which round* or *which block* inflated `t_S`. This module records a
//! per-block timeline of [`TraceEvent`]s — round start/end, barrier
//! arrive/depart, aborts, poisonings — cheap enough to leave on for real
//! runs, and aggregates it into a [`Telemetry`] report with per-round
//! arrival skew, sync spans, straggler identification, and a Chrome
//! `chrome://tracing` JSON export.
//!
//! ## Hot-path discipline
//!
//! The [`EventRecorder`] keeps one fixed-capacity ring per block. Each
//! block is the **single writer** of its own ring, so appending an event
//! is: one `Relaxed` load of the cursor, one `Relaxed` store of the packed
//! event word, one `Relaxed` store of the cursor — *no atomic
//! read-modify-write anywhere*, and nothing at all inside barrier spin
//! loops (spin-poll counts are recorded once per wait, after the loop
//! exits). Rings are cache-line padded so telemetry writes never bounce a
//! peer's line. Cross-thread visibility rides the launch's existing
//! completion edge, the pool's result lock.
//!
//! Events are sampled by **round stride**: with a stride of `s`, only
//! rounds divisible by `s` are recorded (faults — aborts and poisonings —
//! are always recorded). The plane has one switch, at run time:
//! [`crate::GridConfig::trace`]. A launch configured without a
//! [`TraceConfig`] builds no recorder at all.
//!
//! Timestamps are nanoseconds since the recorder's creation, packed into
//! 40 bits (≈ 18 minutes — far beyond any kernel here) alongside a 20-bit
//! round and 4-bit kind, so one event is one `u64` plain store.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use blocksync_device::json::Json;
use crossbeam::utils::CachePadded;

use crate::metrics::{BlockHistogram, Histogram};

/// What happened at one moment of a block's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// The block began executing a kernel round.
    RoundStart,
    /// The block finished executing a kernel round.
    RoundEnd,
    /// The block entered its barrier (or rendezvous) wait.
    BarrierArrive,
    /// The block was released from its barrier (or rendezvous) wait.
    BarrierDepart,
    /// The block failed and raised the run's abort signal.
    Abort,
    /// The block poisoned the barrier (panic or timeout).
    Poison,
    /// The block assembled for a pool launch — the end of the warm `t_O`
    /// window for that block; once per round under CPU-explicit sync.
    Launch,
}

impl TraceEventKind {
    fn code(self) -> u64 {
        match self {
            TraceEventKind::RoundStart => 1,
            TraceEventKind::RoundEnd => 2,
            TraceEventKind::BarrierArrive => 3,
            TraceEventKind::BarrierDepart => 4,
            TraceEventKind::Abort => 5,
            TraceEventKind::Poison => 6,
            TraceEventKind::Launch => 7,
        }
    }

    fn from_code(code: u64) -> Option<Self> {
        Some(match code {
            1 => TraceEventKind::RoundStart,
            2 => TraceEventKind::RoundEnd,
            3 => TraceEventKind::BarrierArrive,
            4 => TraceEventKind::BarrierDepart,
            5 => TraceEventKind::Abort,
            6 => TraceEventKind::Poison,
            7 => TraceEventKind::Launch,
            _ => return None,
        })
    }

    /// Whether round-stride sampling applies (faults are always recorded
    /// — they happen at most once per block per run).
    fn is_sampled(self) -> bool {
        !matches!(self, TraceEventKind::Abort | TraceEventKind::Poison)
    }

    /// Short display name (`"arrive"`, `"depart"`, ...).
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::RoundStart => "round-start",
            TraceEventKind::RoundEnd => "round-end",
            TraceEventKind::BarrierArrive => "arrive",
            TraceEventKind::BarrierDepart => "depart",
            TraceEventKind::Abort => "abort",
            TraceEventKind::Poison => "poison",
            TraceEventKind::Launch => "launch",
        }
    }
}

/// One decoded timeline event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Block the event belongs to.
    pub block: usize,
    /// Kernel round (saturated at 2²⁰ − 1).
    pub round: usize,
    /// Event kind.
    pub kind: TraceEventKind,
    /// Monotonic time since the recorder was created.
    pub at: Duration,
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:>12.3}us block {} round {} {}",
            self.at.as_secs_f64() * 1e6,
            self.block,
            self.round,
            self.kind.name()
        )
    }
}

/// Telemetry configuration carried by [`crate::GridConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring capacity per block, in events. `0` (the default) sizes the
    /// ring to hold every sampled event of the run, capped at
    /// [`TraceConfig::MAX_EVENTS_PER_BLOCK`]; overflow wraps, keeping the
    /// most recent events and counting the rest as dropped.
    pub events_per_block: usize,
    /// Round-stride sampling: record timeline events only for rounds
    /// divisible by this. `1` (the default) records every round.
    pub stride: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            events_per_block: 0,
            stride: 1,
        }
    }
}

impl TraceConfig {
    /// Hard cap on the auto-sized per-block ring (8 MiB of events/block).
    pub const MAX_EVENTS_PER_BLOCK: usize = 1 << 20;

    /// Default config: every round, auto-sized rings.
    pub fn new() -> Self {
        TraceConfig::default()
    }

    /// Record only rounds divisible by `stride` (min 1).
    pub fn with_stride(mut self, stride: usize) -> Self {
        self.stride = stride.max(1);
        self
    }

    /// Fix the per-block ring capacity (min 8 events).
    pub fn with_events_per_block(mut self, cap: usize) -> Self {
        self.events_per_block = cap.clamp(8, Self::MAX_EVENTS_PER_BLOCK);
        self
    }
}

/// Trace events a diagnostic carries per block it names.
pub(crate) const TRAIL_LEN: usize = 8;

// Packed event word: [60..64] kind, [40..60] round, [0..40] ns timestamp.
const TS_BITS: u32 = 40;
const ROUND_BITS: u32 = 20;
const TS_MASK: u64 = (1 << TS_BITS) - 1;
const ROUND_MASK: u64 = (1 << ROUND_BITS) - 1;

fn pack(round: usize, kind: TraceEventKind, at: Duration) -> u64 {
    let ns = u64::try_from(at.as_nanos())
        .unwrap_or(u64::MAX)
        .min(TS_MASK);
    let round = (round as u64).min(ROUND_MASK);
    (kind.code() << (TS_BITS + ROUND_BITS)) | (round << TS_BITS) | ns
}

fn unpack(block: usize, word: u64) -> Option<TraceEvent> {
    let kind = TraceEventKind::from_code(word >> (TS_BITS + ROUND_BITS))?;
    Some(TraceEvent {
        block,
        round: ((word >> TS_BITS) & ROUND_MASK) as usize,
        kind,
        at: Duration::from_nanos(word & TS_MASK),
    })
}

/// One block's event ring: a monotone cursor plus a power-of-two-free
/// fixed-capacity slot array. Single writer (the owning block).
struct Ring {
    len: AtomicU64,
    slots: Box<[AtomicU64]>,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            len: AtomicU64::new(0),
            slots: (0..cap).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Append one packed word. Plain `Relaxed` load + stores only — the
    /// single-writer contract makes the read-modify-write unnecessary.
    #[inline]
    fn push(&self, word: u64) {
        let len = self.len.load(Ordering::Relaxed);
        self.slots[(len % self.slots.len() as u64) as usize].store(word, Ordering::Relaxed);
        self.len.store(len + 1, Ordering::Relaxed);
    }

    /// Decode the retained events in append order.
    fn decode(&self, block: usize) -> Vec<TraceEvent> {
        let len = self.len.load(Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let retained = len.min(cap);
        let start = len - retained;
        (start..len)
            .filter_map(|i| {
                unpack(
                    block,
                    self.slots[(i % cap) as usize].load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    fn dropped(&self) -> u64 {
        self.len
            .load(Ordering::Relaxed)
            .saturating_sub(self.slots.len() as u64)
    }
}

/// Lock-free per-block event recorder (see the module docs for the
/// single-writer/no-RMW discipline).
///
/// Created for every launch when [`crate::GridConfig`]
/// carries a [`TraceConfig`], attached to the run's barrier control, and
/// aggregated into a [`Telemetry`] at run end.
pub struct EventRecorder {
    epoch: Instant,
    stride: usize,
    rings: Vec<CachePadded<Ring>>,
    spin: Vec<CachePadded<BlockHistogram>>,
    sync_ns: Vec<CachePadded<BlockHistogram>>,
}

impl std::fmt::Debug for EventRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRecorder")
            .field("n_blocks", &self.rings.len())
            .field("stride", &self.stride)
            .finish()
    }
}

impl EventRecorder {
    /// Recorder for `n_blocks` blocks of a `rounds`-round kernel.
    pub fn new(n_blocks: usize, rounds: usize, cfg: &TraceConfig) -> Self {
        let stride = cfg.stride.max(1);
        let cap = if cfg.events_per_block > 0 {
            cfg.events_per_block
                .clamp(8, TraceConfig::MAX_EVENTS_PER_BLOCK)
        } else {
            // Five sampled events per round (start/end/arrive/depart, and a
            // launch under CPU-explicit sync) plus slack for faults.
            (5 * rounds.div_ceil(stride) + 8).clamp(64, TraceConfig::MAX_EVENTS_PER_BLOCK)
        };
        EventRecorder {
            epoch: Instant::now(),
            stride,
            rings: (0..n_blocks)
                .map(|_| CachePadded::new(Ring::new(cap)))
                .collect(),
            spin: (0..n_blocks)
                .map(|_| CachePadded::new(BlockHistogram::new()))
                .collect(),
            sync_ns: (0..n_blocks)
                .map(|_| CachePadded::new(BlockHistogram::new()))
                .collect(),
        }
    }

    /// The configured round stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Whether `round`'s timeline events are recorded under the stride.
    #[inline]
    pub fn sampled(&self, round: usize) -> bool {
        round.is_multiple_of(self.stride)
    }

    /// Record `kind` for `block` at the current time. Must only be called
    /// from the thread owning `block`'s ring (or with an external
    /// happens-before edge to it, as a launch's completion provides).
    #[inline]
    pub fn record(&self, block: usize, round: usize, kind: TraceEventKind) {
        self.record_at(block, round, kind, self.epoch.elapsed());
    }

    /// [`EventRecorder::record`] at a given instant, so the round loop and
    /// CPU-explicit's joins stamp events with the instants they charge to
    /// [`crate::KernelStats`] (and read no clock of their own).
    #[inline]
    pub(crate) fn record_instant(
        &self,
        block: usize,
        round: usize,
        kind: TraceEventKind,
        at: Instant,
    ) {
        self.record_at(block, round, kind, at.saturating_duration_since(self.epoch));
    }

    /// [`EventRecorder::record`] with an explicit timestamp (duration
    /// since the recorder's epoch).
    #[inline]
    pub(crate) fn record_at(&self, block: usize, round: usize, kind: TraceEventKind, at: Duration) {
        if kind.is_sampled() && !self.sampled(round) {
            return;
        }
        self.rings[block].push(pack(round, kind, at));
    }

    /// Record the poll count of one completed barrier wait. Called once
    /// per wait, *after* the spin loop exits — never inside it.
    #[inline]
    pub(crate) fn record_spin(&self, block: usize, polls: u64) {
        self.spin[block].record(polls);
    }

    /// Record one round's sync time (ns) for `block`.
    #[inline]
    pub(crate) fn record_sync(&self, block: usize, ns: u64) {
        self.sync_ns[block].record(ns);
    }

    /// Events recorded for `block`, oldest retained first.
    pub fn block_events(&self, block: usize) -> Vec<TraceEvent> {
        self.rings[block].decode(block)
    }

    /// The last `k` events of `block`, oldest first — the "what was it
    /// doing" tail attached to timeout diagnostics.
    pub fn tail(&self, block: usize, k: usize) -> Vec<TraceEvent> {
        let mut ev = self.rings[block].decode(block);
        let skip = ev.len().saturating_sub(k);
        ev.split_off(skip)
    }

    /// `block`'s last [`TRAIL_LEN`] events, rendered: the
    /// `recent_events` of a diagnostic naming it.
    pub(crate) fn trail(&self, block: usize) -> Vec<String> {
        self.tail(block, TRAIL_LEN)
            .iter()
            .map(TraceEvent::to_string)
            .collect()
    }

    /// All events of all blocks, sorted by time (ties: by block, then by
    /// per-block order).
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = (0..self.rings.len())
            .flat_map(|b| self.rings[b].decode(b))
            .collect();
        all.sort_by_key(|e| (e.at, e.block));
        all
    }

    /// Events lost to ring overflow, across all blocks.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(|r| r.dropped()).sum()
    }

    /// Merged spin-polls-per-wait histogram.
    pub fn spin_histogram(&self) -> Histogram {
        let mut h = Histogram::new();
        for b in &self.spin {
            h.merge(&b.snapshot());
        }
        h
    }

    /// Merged per-round sync-time histogram (ns).
    pub fn sync_histogram(&self) -> Histogram {
        let mut h = Histogram::new();
        for b in &self.sync_ns {
            h.merge(&b.snapshot());
        }
        h
    }

    /// Aggregate everything recorded so far into a [`Telemetry`].
    pub fn finish(&self) -> Telemetry {
        Telemetry::from_recorder(self)
    }
}

/// Per-round aggregate derived from arrive/depart events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundTelemetry {
    /// Round index.
    pub round: usize,
    /// Spread between the first and last barrier arrival of the round.
    pub arrival_skew: Duration,
    /// Mean arrive→depart span across blocks.
    pub avg_sync: Duration,
    /// Largest arrive→depart span (the earliest arriver waits longest).
    pub max_sync: Duration,
    /// The last block to arrive — the block every peer waited for.
    pub straggler: usize,
}

/// Aggregated run telemetry, attached to [`crate::KernelStats`] when
/// tracing is enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Telemetry {
    /// Round-stride the run was sampled at.
    pub stride: usize,
    /// Events lost to ring overflow.
    pub dropped: u64,
    /// Every retained event, time-sorted.
    pub events: Vec<TraceEvent>,
    /// Spin polls per barrier wait (one sample per completed wait). On a
    /// folded launch a worker's wait is sampled under the first block it
    /// hosts, and every other block it hosts adds a 0-poll sample per
    /// round: that block waited on its worker, not on a flag.
    pub spin_polls: Histogram,
    /// Per-round per-block sync time, ns (one sample per block per round).
    pub sync_ns: Histogram,
    /// Per-round arrival skew, ns (one sample per sampled round).
    pub arrival_skew_ns: Histogram,
    /// Per-round breakdown, in round order (sampled rounds only).
    pub rounds: Vec<RoundTelemetry>,
}

impl Telemetry {
    fn from_recorder(rec: &EventRecorder) -> Telemetry {
        let events = rec.events();
        // round -> block -> (first arrive, last depart).
        type RoundSpans = BTreeMap<usize, (Option<Duration>, Option<Duration>)>;
        let mut spans: BTreeMap<usize, RoundSpans> = BTreeMap::new();
        for e in &events {
            let slot = spans
                .entry(e.round)
                .or_default()
                .entry(e.block)
                .or_default();
            match e.kind {
                // First arrive / last depart win, so a wrapped ring's
                // partial rounds stay conservative.
                TraceEventKind::BarrierArrive => {
                    slot.0.get_or_insert(e.at);
                }
                TraceEventKind::BarrierDepart => slot.1 = Some(e.at),
                _ => {}
            }
        }
        let mut arrival_skew_ns = Histogram::new();
        let mut rounds = Vec::new();
        for (&round, blocks) in &spans {
            let arrivals: Vec<(usize, Duration)> = blocks
                .iter()
                .filter_map(|(&b, &(a, _))| a.map(|a| (b, a)))
                .collect();
            if arrivals.is_empty() {
                continue;
            }
            let first = arrivals.iter().map(|&(_, a)| a).min().unwrap_or_default();
            let (straggler, last) = arrivals
                .iter()
                .copied()
                .max_by_key(|&(_, a)| a)
                .unwrap_or_default();
            let spans: Vec<Duration> = blocks
                .values()
                .filter_map(|&(a, d)| Some(d?.saturating_sub(a?)))
                .collect();
            let skew = last.saturating_sub(first);
            arrival_skew_ns.record(u64::try_from(skew.as_nanos()).unwrap_or(u64::MAX));
            let sum: Duration = spans.iter().sum();
            rounds.push(RoundTelemetry {
                round,
                arrival_skew: skew,
                avg_sync: if spans.is_empty() {
                    Duration::ZERO
                } else {
                    sum / spans.len() as u32
                },
                max_sync: spans.iter().copied().max().unwrap_or_default(),
                straggler,
            });
        }
        Telemetry {
            stride: rec.stride(),
            dropped: rec.dropped(),
            events,
            spin_polls: rec.spin_histogram(),
            sync_ns: rec.sync_histogram(),
            arrival_skew_ns,
            rounds,
        }
    }

    /// Number of retained events of `kind`.
    pub fn count(&self, kind: TraceEventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Sum of every arrive→depart span — the timeline's view of aggregate
    /// sync time. Matches the [`crate::KernelStats`] per-block sync sum to
    /// within bookkeeping noise when the stride is 1.
    pub fn sync_span_total(&self) -> Duration {
        self.rounds
            .iter()
            .map(|r| r.avg_sync * self.blocks_in(r.round) as u32)
            .sum()
    }

    fn blocks_in(&self, round: usize) -> usize {
        self.events
            .iter()
            .filter(|e| e.round == round && e.kind == TraceEventKind::BarrierDepart)
            .count()
    }

    /// The round with the largest arrival skew, if any.
    pub fn worst_round(&self) -> Option<&RoundTelemetry> {
        self.rounds.iter().max_by_key(|r| r.arrival_skew)
    }

    /// Plain-text per-round table (at most `limit` rows, widest-skew
    /// rounds marked), the CLI's `blocksync trace` view.
    pub fn round_table(&self, limit: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>8}  {:>12}  {:>12}  {:>12}  {:>9}",
            "round", "skew (us)", "avg sync", "max sync", "straggler"
        );
        let worst = self.worst_round().map(|r| r.round);
        for r in self.rounds.iter().take(limit) {
            let mark = if Some(r.round) == worst {
                "  <- worst skew"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "{:>8}  {:>12.3}  {:>12.3}  {:>12.3}  {:>9}{}",
                r.round,
                r.arrival_skew.as_secs_f64() * 1e6,
                r.avg_sync.as_secs_f64() * 1e6,
                r.max_sync.as_secs_f64() * 1e6,
                r.straggler,
                mark
            );
        }
        if self.rounds.len() > limit {
            let _ = writeln!(out, "... ({} more rounds)", self.rounds.len() - limit);
        }
        out
    }

    /// Chrome `chrome://tracing` JSON: one track per block, `compute`
    /// spans (round start→end), `sync` spans (arrive→depart), and instant
    /// markers for aborts/poisonings. Load via chrome://tracing or
    /// <https://ui.perfetto.dev>.
    pub fn chrome_trace(&self, method: &str) -> String {
        let mut b = ChromeTraceBuilder::new();
        // Pair start/end and arrive/depart per (block, round).
        let mut open: BTreeMap<(usize, usize, bool), Duration> = BTreeMap::new();
        for e in &self.events {
            match e.kind {
                TraceEventKind::RoundStart => {
                    open.insert((e.block, e.round, false), e.at);
                }
                TraceEventKind::RoundEnd => {
                    if let Some(start) = open.remove(&(e.block, e.round, false)) {
                        b.complete("compute", "round", e.block, start, e.at, e.round);
                    }
                }
                TraceEventKind::BarrierArrive => {
                    open.insert((e.block, e.round, true), e.at);
                }
                TraceEventKind::BarrierDepart => {
                    if let Some(start) = open.remove(&(e.block, e.round, true)) {
                        b.complete("sync", "barrier", e.block, start, e.at, e.round);
                    }
                }
                TraceEventKind::Abort | TraceEventKind::Poison | TraceEventKind::Launch => {
                    b.instant(e.kind.name(), e.block, e.at);
                }
            }
        }
        b.finish(&[("method", method), ("stride", &self.stride.to_string())])
    }
}

/// Incremental builder for Chrome trace-event JSON (the
/// `chrome://tracing` / Perfetto format). Public so other timelines (the
/// simulator's) can export through the same writer.
#[derive(Default)]
pub struct ChromeTraceBuilder {
    events: Vec<Json>,
}

/// Microseconds at the format's nanosecond resolution.
fn trace_us(d: Duration) -> Json {
    Json::F64((d.as_secs_f64() * 1e9).round() / 1e3)
}

impl ChromeTraceBuilder {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// A complete ("X") span on block `tid` from `start` to `end`.
    pub fn complete(
        &mut self,
        name: &str,
        cat: &str,
        tid: usize,
        start: Duration,
        end: Duration,
        round: usize,
    ) {
        self.events.push(Json::obj([
            ("name", name.into()),
            ("cat", cat.into()),
            ("ph", "X".into()),
            ("pid", 0u64.into()),
            ("tid", tid.into()),
            ("ts", trace_us(start)),
            ("dur", trace_us(end.saturating_sub(start))),
            ("args", Json::obj([("round", round.into())])),
        ]));
    }

    /// An instant ("i") marker on block `tid`.
    pub fn instant(&mut self, name: &str, tid: usize, at: Duration) {
        self.events.push(Json::obj([
            ("name", name.into()),
            ("ph", "i".into()),
            ("s", "t".into()),
            ("pid", 0u64.into()),
            ("tid", tid.into()),
            ("ts", trace_us(at)),
        ]));
    }

    /// Close the JSON document, attaching `meta` key/value pairs.
    pub fn finish(self, meta: &[(&str, &str)]) -> String {
        Json::obj([
            ("traceEvents", Json::Arr(self.events)),
            ("displayTimeUnit", "ms".into()),
            (
                "otherData",
                Json::obj(meta.iter().map(|&(k, v)| (k, v.into()))),
            ),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trips() {
        for (round, kind, ns) in [
            (0usize, TraceEventKind::RoundStart, 0u64),
            (9_999, TraceEventKind::BarrierDepart, 123_456_789),
            (42, TraceEventKind::Poison, TS_MASK),
        ] {
            let e = unpack(3, pack(round, kind, Duration::from_nanos(ns))).unwrap();
            assert_eq!(
                (e.block, e.round, e.kind, e.at.as_nanos() as u64),
                (3, round, kind, ns)
            );
        }
        // Saturation, not wraparound.
        let e = unpack(
            0,
            pack(
                usize::MAX,
                TraceEventKind::Abort,
                Duration::from_secs(10_000),
            ),
        )
        .unwrap();
        assert_eq!(e.round, ROUND_MASK as usize);
        assert_eq!(e.at.as_nanos() as u64, TS_MASK);
        assert!(unpack(0, 0).is_none());
    }

    mod recording {
        use super::super::*;

        #[test]
        fn events_come_back_in_time_order() {
            let rec = EventRecorder::new(2, 4, &TraceConfig::default());
            for r in 0..4usize {
                for b in 0..2usize {
                    rec.record(b, r, TraceEventKind::BarrierArrive);
                    rec.record(b, r, TraceEventKind::BarrierDepart);
                }
            }
            let ev = rec.events();
            assert_eq!(ev.len(), 16);
            assert!(ev.windows(2).all(|w| w[0].at <= w[1].at));
            assert_eq!(rec.dropped(), 0);
            // Per block, arrive precedes depart within each round.
            for b in 0..2 {
                let mine = rec.block_events(b);
                assert_eq!(mine.len(), 8);
                for pair in mine.chunks(2) {
                    assert_eq!(pair[0].kind, TraceEventKind::BarrierArrive);
                    assert_eq!(pair[1].kind, TraceEventKind::BarrierDepart);
                    assert_eq!(pair[0].round, pair[1].round);
                }
            }
        }

        #[test]
        fn ring_wraps_keeping_the_most_recent() {
            let cfg = TraceConfig::default().with_events_per_block(8);
            let rec = EventRecorder::new(1, 100, &cfg);
            for r in 0..20usize {
                rec.record(0, r, TraceEventKind::RoundStart);
            }
            assert_eq!(rec.dropped(), 12);
            let ev = rec.block_events(0);
            assert_eq!(ev.len(), 8);
            assert_eq!(ev.first().unwrap().round, 12);
            assert_eq!(ev.last().unwrap().round, 19);
            // The tail is the newest slice.
            let tail = rec.tail(0, 3);
            assert_eq!(
                tail.iter().map(|e| e.round).collect::<Vec<_>>(),
                vec![17, 18, 19]
            );
        }

        #[test]
        fn stride_samples_rounds_but_never_faults() {
            let cfg = TraceConfig::default().with_stride(10);
            let rec = EventRecorder::new(1, 100, &cfg);
            for r in 0..30usize {
                rec.record(0, r, TraceEventKind::BarrierArrive);
            }
            rec.record(0, 7, TraceEventKind::Poison);
            let ev = rec.block_events(0);
            let arrives: Vec<usize> = ev
                .iter()
                .filter(|e| e.kind == TraceEventKind::BarrierArrive)
                .map(|e| e.round)
                .collect();
            assert_eq!(arrives, vec![0, 10, 20]);
            assert_eq!(
                ev.iter()
                    .filter(|e| e.kind == TraceEventKind::Poison)
                    .count(),
                1
            );
        }

        #[test]
        fn spin_and_sync_histograms_sample_once_per_call() {
            let rec = EventRecorder::new(2, 10, &TraceConfig::default());
            rec.record_spin(0, 100);
            rec.record_spin(1, 5);
            rec.record_sync(0, 1_000);
            let t = rec.finish();
            assert_eq!(t.spin_polls.count(), 2);
            assert_eq!(t.spin_polls.max(), 100);
            assert_eq!(t.sync_ns.count(), 1);
        }

        #[test]
        fn telemetry_rounds_and_spans() {
            let rec = EventRecorder::new(2, 2, &TraceConfig::default());
            let us = Duration::from_micros;
            // Round 0: block 0 arrives at 10us, block 1 at 30us (straggler),
            // both depart at 31us.
            rec.record_at(0, 0, TraceEventKind::BarrierArrive, us(10));
            rec.record_at(1, 0, TraceEventKind::BarrierArrive, us(30));
            rec.record_at(0, 0, TraceEventKind::BarrierDepart, us(31));
            rec.record_at(1, 0, TraceEventKind::BarrierDepart, us(31));
            let t = rec.finish();
            assert_eq!(t.rounds.len(), 1);
            let r = &t.rounds[0];
            assert_eq!(r.round, 0);
            assert_eq!(r.arrival_skew, us(20));
            assert_eq!(r.straggler, 1);
            assert_eq!(r.max_sync, us(21));
            assert_eq!(r.avg_sync, us(11));
            assert_eq!(t.sync_span_total(), us(22));
            assert_eq!(t.worst_round().unwrap().round, 0);
            assert_eq!(t.arrival_skew_ns.count(), 1);
            let table = t.round_table(10);
            assert!(table.contains("straggler"), "{table}");
            assert!(table.contains("worst skew"), "{table}");
        }

        #[test]
        fn chrome_trace_emits_spans_and_markers() {
            let rec = EventRecorder::new(1, 1, &TraceConfig::default());
            let us = Duration::from_micros;
            rec.record_at(0, 0, TraceEventKind::RoundStart, us(0));
            rec.record_at(0, 0, TraceEventKind::RoundEnd, us(5));
            rec.record_at(0, 0, TraceEventKind::BarrierArrive, us(5));
            rec.record_at(0, 0, TraceEventKind::BarrierDepart, us(9));
            rec.record_at(0, 0, TraceEventKind::Abort, us(9));
            let text = rec.finish().chrome_trace("gpu-\"simple\"");
            let doc = blocksync_device::json::parse(&text).expect("valid JSON");
            let events = doc.get("traceEvents").unwrap().as_arr("events").unwrap();
            let field = |e: &Json, k: &str| e.get(k).cloned().unwrap();
            let names: Vec<Json> = events.iter().map(|e| field(e, "name")).collect();
            assert_eq!(names, ["compute".into(), "sync".into(), "abort".into()]);
            assert_eq!(field(&events[0], "ph"), "X".into());
            assert_eq!(field(&events[1], "ts"), Json::F64(5.0));
            assert_eq!(field(&events[1], "dur"), Json::F64(4.0));
            assert_eq!(field(&events[1], "args").get("round"), Some(&Json::U64(0)));
            assert_eq!(field(&events[2], "ph"), "i".into());
            // Meta values are escaped, not interpolated.
            let meta = doc.get("otherData").unwrap();
            assert_eq!(meta.get("method"), Some(&"gpu-\"simple\"".into()));
            assert_eq!(meta.get("stride"), Some(&"1".into()));
        }
    }
}
