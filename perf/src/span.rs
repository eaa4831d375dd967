//! In-memory spans around each call into a layer's public API, plus child
//! spans derived from the `KernelStats` the call returned.
//!
//! One launch makes one small tree, built so that siblings never overlap
//! and children never outlast their parent:
//!
//! ```text
//! launch                      [before submit .. wait returned]   (root)
//! ├─ service.submit_within    [call .. return]                   measured
//! ├─ queued / t_O / t_C / t_S the part between the two calls     derived
//! └─ service.wait             [call .. return]                   measured
//!    └─ queued / t_O / t_C / t_S  the part inside the wait       derived
//! ```
//!
//! A blocking `GridRuntime::run` / `LaunchPlan::run` is a root of its own
//! with the derived chain directly below it. The derived chain is the
//! critical block's `queued → t_O → t_C → t_S`, laid end to end from the
//! runtime's submit stamp (`KernelStats.wall` before the call returned),
//! then clipped to the window it is shown in; `t_C` and `t_S` alternate per round in reality and are drawn as two
//! blocks. A span's self time is its duration minus its children's.

use std::collections::BTreeMap;
use std::time::Instant;

use blocksync_core::KernelStats;

use crate::json::Value;

/// Which public API a launch went through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `GridRuntime::run` (blocking, warm pool).
    Run,
    /// `LaunchPlan::run` (blocking, scoped or relaunch strategy).
    PlanRun,
    /// `GridService::submit_within` then `ServiceHandle::wait`.
    Service,
}

/// What the benchmark saw of one successful launch.
pub struct LaunchObs {
    pub entry: Entry,
    pub client: u16,
    /// Just before the first call.
    pub start: Instant,
    /// When submit returned and when wait was called; stamped only in a
    /// traced slice of a submit/wait entry.
    pub calls: Option<(Instant, Instant)>,
    /// When the stats were in hand.
    pub end: Instant,
    pub stats: KernelStats,
}

impl LaunchObs {
    pub fn latency_ns(&self) -> u64 {
        self.end.duration_since(self.start).as_nanos() as u64
    }

    /// `queued` and the critical block's `t_O`, `t_C`, `t_S` in ns: the
    /// block with the largest total, so the four are one thread's timeline
    /// and sum to at most `wall`.
    pub fn chain_ns(&self) -> [u64; 4] {
        let queued = self.stats.pool.as_ref().map_or(0, |p| p.queued.as_nanos());
        let crit = self.stats.per_block.iter().max_by_key(|b| b.total());
        let [o, c, s] = crit.map_or([0; 3], |b| {
            [b.launch.as_nanos(), b.compute.as_nanos(), b.sync.as_nanos()]
        });
        [queued as u64, o as u64, c as u64, s as u64]
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub launch_id: u32,
    pub derived: bool,
    pub client: u16,
}

const CHAIN: [&str; 4] = ["queued", "t_O", "t_C", "t_S"];
/// Span names whose self time no layer accounts for: the roots (caller
/// between calls, or a blocking call outside the derived chain) and the
/// waits (completion to wake-up, stats assembly, ticket release).
const UNATTRIBUTED: [&str; 4] = ["launch", "runtime.run", "plan.run", "service.wait"];
const ROOTS: [&str; 3] = ["launch", "runtime.run", "plan.run"];

/// Spans of one run, kept in memory until it ends.
pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
    launches: u32,
}

/// Per span name: how many, their total duration and total self time.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct SelfTimes {
    pub by_name: BTreeMap<&'static str, NameTotals>,
    /// Spans whose children sum to more than the span (expected 0).
    pub violations: u64,
}

impl SelfTimes {
    /// Share of the end-to-end time (all root spans) that sits in
    /// [`UNATTRIBUTED`] self time, in percent.
    pub fn closure_gap_pct(&self) -> f64 {
        let sum = |names: &[&str], f: fn(&NameTotals) -> u64| -> u64 {
            names
                .iter()
                .filter_map(|n| self.by_name.get(n))
                .map(f)
                .sum()
        };
        let end_to_end = sum(&ROOTS, |t| t.total_ns);
        if end_to_end == 0 {
            return 0.0;
        }
        100.0 * sum(&UNATTRIBUTED, |t| t.self_ns) as f64 / end_to_end as f64
    }

    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<26} {:>9} {:>14} {:>14}\n",
            "span", "count", "total_us", "self_us"
        );
        for (name, t) in &self.by_name {
            out += &format!(
                "{:<26} {:>9} {:>14.1} {:>14.1}\n",
                name,
                t.count,
                t.total_ns as f64 / 1e3,
                t.self_ns as f64 / 1e3
            );
        }
        out
    }
}

impl Trace {
    pub fn with_capacity(spans: usize) -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans),
            launches: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Push the derived chain, clipped to `[lo, hi]`, under `parent`.
    fn push_chain(&mut self, segs: &[(u64, u64); 4], lo: u64, hi: u64, proto: &Span, parent: u32) {
        for (name, &(a, b)) in CHAIN.iter().zip(segs) {
            let (a, b) = (a.clamp(lo, hi), b.clamp(lo, hi));
            if b > a {
                self.push(Span {
                    name,
                    start_ns: a,
                    end_ns: b,
                    parent: Some(parent),
                    derived: true,
                    ..proto.clone()
                });
            }
        }
    }

    /// Turn one observed launch into its span tree.
    pub fn record(&mut self, obs: &LaunchObs) {
        let (t0, t3) = (self.ns(obs.start), self.ns(obs.end));
        let launch_id = self.launches;
        self.launches += 1;
        // `wall` runs from the runtime's own submit stamp to just before
        // the stats were handed over, so the chain starts `wall` before the
        // end; whatever of `wall` it does not cover (completion to wake-up)
        // is left to the parent.
        let chain = obs.chain_ns();
        let mut at = t3.saturating_sub(obs.stats.wall.as_nanos() as u64);
        let segs = chain.map(|len| {
            let seg = (at, at + len);
            at += len;
            seg
        });
        let (root_name, calls) = match (obs.entry, obs.calls) {
            (Entry::Run, _) => ("runtime.run", None),
            (Entry::PlanRun, _) => ("plan.run", None),
            (Entry::Service, Some(c)) => {
                ("launch", Some(("service.submit_within", "service.wait", c)))
            }
            // An untraced submit/wait launch has no call stamps to show.
            (Entry::Service, None) => return,
        };
        let proto = Span {
            name: root_name,
            start_ns: t0,
            end_ns: t3,
            parent: None,
            launch_id,
            derived: false,
            client: obs.client,
        };
        let root = self.push(proto.clone());
        let Some((submit, wait, (t1, t2))) = calls else {
            self.push_chain(&segs, t0, t3, &proto, root);
            return;
        };
        let (t1, t2) = (self.ns(t1).clamp(t0, t3), self.ns(t2).clamp(t0, t3));
        self.push(Span {
            name: submit,
            end_ns: t1,
            parent: Some(root),
            ..proto.clone()
        });
        self.push_chain(&segs, t1, t2, &proto, root);
        let wait = self.push(Span {
            name: wait,
            start_ns: t2,
            parent: Some(root),
            ..proto.clone()
        });
        self.push_chain(&segs, t2, t3, &proto, wait);
    }

    pub fn self_times(&self) -> SelfTimes {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        let mut violations = 0;
        for (s, &kids) in self.spans.iter().zip(&children) {
            let dur = s.end_ns - s.start_ns;
            violations += u64::from(kids > dur);
            let t = by_name.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(kids);
        }
        SelfTimes {
            by_name,
            violations,
        }
    }

    /// Chrome trace-event JSON of the first `limit` spans (a whole run of a
    /// serve workload is hundreds of thousands).
    pub fn chrome_json(&self, host: Value, limit: usize) -> Value {
        let events = self
            .spans
            .iter()
            .take(limit)
            .map(|s| {
                Value::obj([
                    ("name", Value::str(s.name)),
                    ("ph", Value::str("X")),
                    ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Value::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(f64::from(s.client))),
                    (
                        "args",
                        Value::obj([
                            ("launch_id", Value::Num(f64::from(s.launch_id))),
                            (
                                "parent",
                                s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
                            ),
                            ("derived", s.derived.into()),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::obj([
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", Value::str("ns")),
            ("spans_total", self.spans.len().into()),
            ("host", host),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            launch_id: 0,
            derived: false,
            client: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children_on_a_hand_built_tree() {
        let mut t = Trace::with_capacity(8);
        // launch 0..100: submit 0..10, queued 10..30 (between the calls),
        // wait 40..100 holding t_O 40..45, t_C 45..70, t_S 70..90.
        t.spans = vec![
            span("launch", 0, 100, None),
            span("service.submit_within", 0, 10, Some(0)),
            span("queued", 10, 30, Some(0)),
            span("service.wait", 40, 100, Some(0)),
            span("t_O", 40, 45, Some(3)),
            span("t_C", 45, 70, Some(3)),
            span("t_S", 70, 90, Some(3)),
        ];
        let st = t.self_times();
        assert_eq!(st.violations, 0);
        let get = |n| st.by_name[n];
        assert_eq!(get("launch").self_ns, 100 - 10 - 20 - 60);
        assert_eq!(get("service.wait").self_ns, 60 - 5 - 25 - 20);
        assert_eq!(get("service.submit_within").self_ns, 10);
        assert_eq!(get("t_C").total_ns, 25);
        // Unattributed: launch self 10 + wait self 10 of 100 end to end.
        assert_eq!(st.closure_gap_pct(), 20.0);
    }

    #[test]
    fn children_longer_than_their_parent_are_counted() {
        let mut t = Trace::with_capacity(2);
        t.spans = vec![
            span("runtime.run", 0, 10, None),
            span("t_C", 0, 11, Some(0)),
        ];
        let st = t.self_times();
        assert_eq!(st.violations, 1);
        assert_eq!(st.by_name["runtime.run"].self_ns, 0);
    }

    #[test]
    fn chrome_json_is_parseable_and_capped() {
        let mut t = Trace::with_capacity(2);
        t.spans = vec![
            span("runtime.run", 1_000, 3_500, None),
            span("t_C", 1_000, 2_000, Some(0)),
        ];
        let v = t.chrome_json(Value::obj([("nproc", 2usize.into())]), 1);
        let back = crate::json::parse(&v.to_string()).unwrap();
        let events = back.get("traceEvents").unwrap().as_arr();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("dur").and_then(Value::as_f64), Some(2.5));
        assert_eq!(back.get("spans_total").and_then(Value::as_f64), Some(2.0));
    }
}
