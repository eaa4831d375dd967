//! The names, units and directions of everything the benchmark reports.
//! `BENCHMARK.json` lists the same; a test keeps the two identical.

use crate::ladder::METHODS;
use crate::workloads::Algo;

#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> Def {
    Def {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// What a caller of the system sees, reported by every workload from an
/// untraced run, times stated at the reference host speed (see `probe`). On the 2-vCPU reference VM the spread of ten runs
/// (interquartile range over median) reaches 0.18 on the workloads that idle
/// and wake (the README has the table), so every bound is the widest the
/// acceptance contract allows: a tighter one would reject innocent changes.
pub fn end_to_end() -> Vec<Def> {
    [
        ("setup_s", "s", "lower", 0.25),
        ("launch_p50_us", "us", "lower", 0.25),
        ("launch_p90_us", "us", "lower", 0.25),
        ("launches_per_s", "1/s", "higher", 0.25),
        ("round_ns", "ns", "lower", 0.25),
    ]
    .into_iter()
    .map(|(name, unit, better, bound)| Def {
        bound: Some(bound),
        ..def(name, unit, better)
    })
    .collect()
}

/// Single-layer metrics, reported by a traced run. The first block comes
/// from the workload's own launches; the rest are the ladder's rungs.
pub fn per_layer() -> Vec<Def> {
    let mut v = vec![
        // The workload's launches, read from `KernelStats` / `PoolLaunchStats`.
        def("launch.t_o_us", "us", "lower"),
        def("launch.t_c_ns_round", "ns", "lower"),
        def("launch.t_s_ns_round", "ns", "lower"),
        def("launch.eq1_gap_pct", "%", "lower"),
        def("runtime.queued_us", "us", "lower"),
        def("runtime.queue_depth", "count", "lower"),
        def("service.rejected", "count", "lower"),
        def("service.shards_live", "count", "lower"),
        def("launch_p99_us", "us", "lower"),
        def("launch_p999_us", "us", "lower"),
        def("launch_samples", "count", "higher"),
        def("closure.gap_pct", "%", "lower"),
        def("trace.overhead_pct", "%", "lower"),
        // Not a layer of the program: the host-speed probe, so that a
        // reader can tell a slow host from slow code. Per-layer values are
        // as measured, never corrected by it.
        def("host.pingpong_ns", "ns", "lower"),
        // Rungs.
        def("barrier.cpu-implicit.spin_ns", "ns", "lower"),
        def("launch.round_tax_ns", "ns", "lower"),
        def("launch.nosync_round_ns", "ns", "lower"),
        def("launch.scoped_us", "us", "lower"),
        def("launch.round_ns.cpu-implicit", "ns", "lower"),
        def("launch.round_ns.cpu-explicit", "ns", "lower"),
        def("runtime.run_empty_us", "us", "lower"),
        def("runtime.cold_us", "us", "lower"),
        def("runtime.submit_us", "us", "lower"),
        def("runtime.wait_us", "us", "lower"),
        def("runtime.t_o_us", "us", "lower"),
        def("service.submit_us", "us", "lower"),
        def("service.wait_us", "us", "lower"),
        def("service.tax_us", "us", "lower"),
        def("autotune.regret", "ratio", "lower"),
        def("autotune.regret_park", "ratio", "lower"),
    ];
    for m in METHODS {
        v.push(def(format!("barrier.{m}.spin_ns"), "ns", "lower"));
        v.push(def(format!("barrier.{m}.park_ns"), "ns", "lower"));
        v.push(def(format!("launch.round_ns.{m}"), "ns", "lower"));
        v.push(def(format!("launch.park_round_ns.{m}"), "ns", "lower"));
        v.push(def(format!("model.residual_pct.{m}"), "%", "lower"));
    }
    for a in Algo::ALL.map(Algo::name) {
        v.push(def(format!("algos.{a}.kernel_us"), "us", "lower"));
        v.push(def(format!("algos.{a}.t_c_us"), "us", "lower"));
        v.push(def(format!("algos.{a}.t_s_us"), "us", "lower"));
        v.push(def(format!("algos.{a}.sync_fraction"), "ratio", "lower"));
        v.push(def(format!("algos.{a}.rounds"), "count", "lower"));
        v.push(def(format!("algos.{a}.seq_us"), "us", "lower"));
        v.push(def(format!("algos.{a}.cpu-implicit_us"), "us", "lower"));
    }
    v
}
