//! Subcommand implementations.

use blocksync_algos::bitonic::{GridBitonic, GridBitonicBatched};
use blocksync_algos::fft::{kernel::Direction, GridFft};
use blocksync_algos::scan::{inclusive_scan_reference, GridScan};
use blocksync_algos::seqgen::{complex_signal, random_keys, related_dna, SplitMix64};
use blocksync_algos::swat::{
    needleman_wunsch, smith_waterman, GapPenalties, GridNw, GridSwat, GridSwatBanded, Scoring,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use blocksync_core::{
    AutoDecision, AutoTuner, ChaosConfig, ChromeTraceBuilder, GridConfig, GridExecutor,
    GridRuntime, GridService, KernelStats, MetricsSnapshot, RoundKernel, ServiceConfig,
    ServiceError, ShardKey, SyncMethod, SyncPolicy, TraceConfig, TreeLevels,
};
use blocksync_device::{CalibrationProfile, GpuSpec};
use blocksync_microbench::{run_host_traced, MeanKernel};
use blocksync_sim::{try_simulate, ConstWorkload, SimConfig, TraceKind};

use crate::args::{check_blocks, parse_method, Args};

/// Fault policy from `--sync-timeout SECONDS` (0 or absent = wait forever,
/// the pre-policy behavior). A stuck run then fails with a diagnostic
/// naming the stuck block instead of hanging the process.
fn sync_policy(a: &Args) -> Result<SyncPolicy, String> {
    let secs = a.get_f64("sync-timeout", 0.0);
    if secs < 0.0 || !secs.is_finite() {
        return Err(format!("--sync-timeout expects seconds >= 0, got {secs}"));
    }
    Ok(if secs == 0.0 {
        SyncPolicy::default()
    } else {
        SyncPolicy::with_timeout(Duration::from_secs_f64(secs))
    })
}

/// `--runtime` is gone: which launch cost a run pays is the command, not
/// a flag. `Args` ignores unknown flags silently, so the host-runtime
/// commands that used to read it refuse it by name instead of quietly
/// running cold.
fn reject_runtime_flag(a: &Args) -> Result<(), String> {
    if a.has("runtime") {
        return Err(
            "--runtime was removed: this command always launches cold (fresh block threads \
             per run); warm launches live in `blocksync metrics`, `blocksync serve` and the \
             `GridRuntime` API"
                .into(),
        );
    }
    Ok(())
}

/// Telemetry plane from shared flags: `--trace FILE` (record a barrier
/// timeline and export chrome://tracing JSON) and/or `--metrics` (print
/// aggregate histograms); `--trace-stride N` samples every Nth round.
fn trace_config(a: &Args) -> Result<Option<TraceConfig>, String> {
    if !a.has("trace") && !a.has("metrics") {
        return Ok(None);
    }
    if a.has("trace") && a.get("trace", "").is_empty() {
        return Err("--trace expects an output file (e.g. --trace out.json)".into());
    }
    let stride = a.get_usize("trace-stride", 1);
    if stride == 0 {
        return Err("--trace-stride expects an integer >= 1".into());
    }
    Ok(Some(TraceConfig::new().with_stride(stride)))
}

/// Emit whatever telemetry output the flags asked for. No-op when none
/// was requested (the run then carried no telemetry).
fn report_telemetry(stats: &KernelStats, a: &Args) -> Result<(), String> {
    let Some(t) = &stats.telemetry else {
        return Ok(());
    };
    let path = a.get("trace", "");
    if !path.is_empty() {
        std::fs::write(path, t.chrome_trace(&stats.method))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "wrote chrome://tracing timeline to {path} ({} events, {} dropped) — \
             open via chrome://tracing or https://ui.perfetto.dev",
            t.events.len(),
            t.dropped
        );
    }
    if a.has("metrics") {
        println!(
            "telemetry: {} events over {} sampled rounds (stride {}, {} dropped)",
            t.events.len(),
            t.rounds.len(),
            t.stride,
            t.dropped
        );
        println!(
            "  spin polls/wait    mean {:>10.0}  p50 {:>10}  p99 {:>10}  max {:>10}",
            t.spin_polls.mean(),
            t.spin_polls.percentile(0.50),
            t.spin_polls.percentile(0.99),
            t.spin_polls.max()
        );
        println!(
            "  sync/block/round   mean {:>8.1}us  p50 {:>8.1}us  p99 {:>8.1}us  max {:>8.1}us",
            t.sync_ns.mean() / 1e3,
            t.sync_ns.percentile(0.50) as f64 / 1e3,
            t.sync_ns.percentile(0.99) as f64 / 1e3,
            t.sync_ns.max() as f64 / 1e3
        );
        println!(
            "  arrival skew/round mean {:>8.1}us  p50 {:>8.1}us  p99 {:>8.1}us  max {:>8.1}us",
            t.arrival_skew_ns.mean() / 1e3,
            t.arrival_skew_ns.percentile(0.50) as f64 / 1e3,
            t.arrival_skew_ns.percentile(0.99) as f64 / 1e3,
            t.arrival_skew_ns.max() as f64 / 1e3
        );
        if let Some(w) = t.worst_round() {
            println!(
                "  worst skew: round {} ({:.1} us, straggler block {})",
                w.round,
                w.arrival_skew.as_secs_f64() * 1e6,
                w.straggler
            );
        }
    }
    Ok(())
}

/// Write the observability-plane snapshot to `--metrics-out FILE`
/// (`.json` gets the lossless JSON form, anything else the Prometheus
/// text exposition). No-op when the flag is absent.
fn write_metrics_out(snapshot: &MetricsSnapshot, a: &Args) -> Result<(), String> {
    let path = a.get("metrics-out", "");
    if path.is_empty() {
        if a.has("metrics-out") {
            return Err(
                "--metrics-out expects a file path (e.g. --metrics-out metrics.prom)".into(),
            );
        }
        return Ok(());
    }
    let body = if path.ends_with(".json") {
        snapshot.to_json().pretty()
    } else {
        snapshot.render_prometheus()
    };
    std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote metrics snapshot to {path}");
    Ok(())
}

fn run_kernel<K: RoundKernel>(
    kernel: &K,
    blocks: usize,
    method: SyncMethod,
    a: &Args,
) -> Result<KernelStats, String> {
    reject_runtime_flag(a)?;
    let mut cfg = GridConfig::new(blocks, 64).with_policy(sync_policy(a)?);
    if let Some(tc) = trace_config(a)? {
        cfg = cfg.with_trace(tc);
    }
    let exec = GridExecutor::new(cfg, method);
    let stats = exec.run(kernel).map_err(|e| e.to_string())?;
    report_telemetry(&stats, a)?;
    write_metrics_out(&exec.observer().snapshot(), a)?;
    Ok(stats)
}

/// [`run_kernel`] without telemetry — for auxiliary verification passes
/// that must not overwrite the primary run's trace output.
fn run_kernel_plain<K: RoundKernel>(
    kernel: &K,
    blocks: usize,
    method: SyncMethod,
    a: &Args,
) -> Result<KernelStats, String> {
    let cfg = GridConfig::new(blocks, 64).with_policy(sync_policy(a)?);
    GridExecutor::new(cfg, method)
        .run(kernel)
        .map_err(|e| e.to_string())
}

/// `blocksync simulate`.
pub fn simulate(a: &Args) -> Result<(), String> {
    let method = parse_method(a.get("method", "gpu-lock-free"))?;
    let blocks = a.get_blocks(30)?;
    let rounds = a.get_usize("rounds", 10_000);
    let compute_us = a.get_f64("compute-us", 0.5);
    let mut cfg = SimConfig::new(blocks, a.get_usize("tpb", 256), method);
    if a.has("trace") {
        cfg.trace = true;
    }
    // Either a paper-scale application workload or the constant-compute
    // micro-benchmark shape.
    let w: Box<dyn blocksync_sim::Workload> = match a.get("algo", "micro") {
        "micro" => Box::new(ConstWorkload::from_micros(compute_us, rounds)),
        "fft" => Box::new(blocksync_algos::fft::FftWorkload::new(
            &cfg.spec,
            blocksync_algos::fft::PAPER_N,
            blocks,
        )),
        "swat" => {
            let l = blocksync_algos::swat::PAPER_SEQ_LEN;
            Box::new(blocksync_algos::swat::SwatWorkload::new(
                &cfg.spec, l, l, blocks,
            ))
        }
        "bitonic" => Box::new(blocksync_algos::bitonic::BitonicWorkload::new(
            &cfg.spec,
            blocksync_algos::bitonic::PAPER_N,
            blocks,
        )),
        other => {
            return Err(format!(
                "unknown --algo {other:?}; valid: micro fft swat bitonic"
            ))
        }
    };
    let r = try_simulate(&cfg, w.as_ref()).map_err(|e| e.to_string())?;
    println!(
        "device: {} | method: {method} | {blocks} blocks x {} rounds ({})",
        cfg.spec.name,
        r.rounds,
        a.get("algo", "micro")
    );
    println!("total          {}", r.total);
    println!("  launch (t_O) {}", r.launch);
    println!("  compute      {} (longest block)", r.max_compute());
    println!(
        "  sync (t_S)   {} ({:.1}% of total, {} per barrier)",
        r.sync_time(),
        r.sync_fraction() * 100.0,
        r.sync_per_round()
    );
    if a.has("trace") {
        println!("\nfirst trace events:");
        for e in r.trace.iter().take(12) {
            let kind = match e.kind {
                TraceKind::ComputeStart { round } => format!("compute {round}"),
                TraceKind::BarrierArrive { round } => format!("arrive  {round}"),
                TraceKind::BarrierRelease { round } => format!("release {round}"),
                TraceKind::KernelDone => "done".into(),
            };
            println!("  {:>10}  block {}  {}", e.time.to_string(), e.block, kind);
        }
        // `--trace FILE` (vs bare `--trace`) also exports the timeline.
        let path = a.get("trace", "");
        if !path.is_empty() {
            std::fs::write(path, sim_chrome_trace(&r.trace, method))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote chrome://tracing timeline to {path}");
        }
    }
    Ok(())
}

/// Export the simulator timeline through the shared Chrome-trace writer:
/// `compute` spans (compute start → barrier arrive), `sync` spans (arrive
/// → release), and a `done` marker per block — the same track layout the
/// host runtime's `--trace` produces.
fn sim_chrome_trace(trace: &[blocksync_sim::TraceEvent], method: SyncMethod) -> String {
    use std::collections::HashMap;
    let mut b = ChromeTraceBuilder::new();
    let mut open: HashMap<(usize, usize, bool), Duration> = HashMap::new();
    for e in trace {
        let at = Duration::from_nanos(e.time.as_nanos());
        match e.kind {
            TraceKind::ComputeStart { round } => {
                open.insert((e.block, round, false), at);
            }
            TraceKind::BarrierArrive { round } => {
                if let Some(s) = open.remove(&(e.block, round, false)) {
                    b.complete("compute", "round", e.block, s, at, round);
                }
                open.insert((e.block, round, true), at);
            }
            TraceKind::BarrierRelease { round } => {
                if let Some(s) = open.remove(&(e.block, round, true)) {
                    b.complete("sync", "barrier", e.block, s, at, round);
                }
            }
            TraceKind::KernelDone => b.instant("done", e.block, at),
        }
    }
    let m = method.to_string();
    b.finish(&[("method", m.as_str()), ("source", "simulator")])
}

/// `blocksync sort`.
pub fn sort(a: &Args) -> Result<(), String> {
    let n = a.get_usize("n", 65_536);
    let blocks = a.get_blocks(8)?;
    let method = parse_method(a.get("method", "gpu-lock-free"))?;
    let batch = a.get_usize("batch", 1);
    let keys = random_keys(n, a.get_usize("seed", 42) as u64);
    let stats = if batch > 1 {
        let kernel = GridBitonicBatched::new(&keys, batch);
        let stats = run_kernel(&kernel, blocks, method, a)?;
        for s in 0..batch {
            let seg = kernel.segment(s);
            if !seg.windows(2).all(|w| w[0] <= w[1]) {
                return Err(format!("segment {s} not sorted — barrier failure?"));
            }
        }
        stats
    } else {
        let kernel = GridBitonic::new(&keys);
        let stats = run_kernel(&kernel, blocks, method, a)?;
        let out = kernel.output();
        let mut expected = keys.clone();
        expected.sort_unstable();
        if out != expected {
            return Err("output mismatch vs std sort — barrier failure?".into());
        }
        stats
    };
    println!("sorted {n} keys ({batch} segment(s)) — verified");
    println!("{stats}");
    Ok(())
}

/// `blocksync align`.
pub fn align(a: &Args) -> Result<(), String> {
    let len = a.get_usize("len", 600);
    let blocks = a.get_blocks(6)?;
    let method = parse_method(a.get("method", "gpu-lock-free"))?;
    let mutation = a.get_f64("mutation", 0.05);
    let (sa, sb) = related_dna(len, mutation, a.get_usize("seed", 7) as u64);
    let (scoring, gaps) = (Scoring::dna(), GapPenalties::dna());
    if a.has("global") {
        let kernel = GridNw::new(&sa, &sb, scoring, gaps);
        let stats = run_kernel(&kernel, blocks, method, a)?;
        let expected = needleman_wunsch(&sa, &sb, scoring, gaps);
        if kernel.score() != expected {
            return Err("global score mismatch vs reference".into());
        }
        println!(
            "Needleman-Wunsch global score: {} — verified",
            kernel.score()
        );
        println!("{stats}");
    } else if a.has("band") {
        let band = a.get_usize("band", 16);
        let kernel = GridSwatBanded::new(&sa, &sb, band, scoring, gaps, blocks);
        let stats = run_kernel(&kernel, blocks, method, a)?;
        println!(
            "banded (w={band}) Smith-Waterman score: {} over {} in-band cells",
            kernel.result().score,
            kernel.band_cells()
        );
        println!("{stats}");
    } else {
        let kernel = GridSwat::new(&sa, &sb, scoring, gaps, blocks);
        let stats = run_kernel(&kernel, blocks, method, a)?;
        let expected = smith_waterman(&sa, &sb, scoring, gaps);
        let got = kernel.result();
        if got.score != expected.score {
            return Err("local score mismatch vs reference".into());
        }
        println!(
            "Smith-Waterman local score: {} at {:?} — verified",
            got.score, got.end
        );
        println!("{stats}");
    }
    Ok(())
}

/// `blocksync fft`.
pub fn fft(a: &Args) -> Result<(), String> {
    let log_n = a.get_usize("log-n", 12);
    if log_n > 24 {
        return Err("--log-n capped at 24".into());
    }
    let blocks = a.get_blocks(6)?;
    let method = parse_method(a.get("method", "gpu-lock-free"))?;
    let n = 1usize << log_n;
    let input = complex_signal(n, a.get_usize("seed", 3) as u64);
    let direction = if a.has("inverse") {
        Direction::Inverse
    } else {
        Direction::Forward
    };
    let kernel = GridFft::new(&input, direction);
    let stats = run_kernel(&kernel, blocks, method, a)?;
    // Round-trip verification (forward then inverse must reproduce input).
    let spectrum = kernel.output();
    let back_kernel = GridFft::new(
        &spectrum,
        match direction {
            Direction::Forward => Direction::Inverse,
            Direction::Inverse => Direction::Forward,
        },
    );
    run_kernel_plain(&back_kernel, blocks, method, a)?;
    let err = blocksync_algos::fft::reference::max_error(&back_kernel.output(), &input);
    if err > 1e-2 {
        return Err(format!("round-trip error {err} too large"));
    }
    println!("{n}-point {direction:?} FFT, round-trip error {err:.2e} — verified");
    println!("{stats}");
    Ok(())
}

/// `blocksync scan`.
pub fn scan(a: &Args) -> Result<(), String> {
    let n = a.get_usize("n", 100_000);
    let blocks = a.get_blocks(4)?;
    let method = parse_method(a.get("method", "gpu-lock-free"))?;
    let mut rng = SplitMix64::new(a.get_usize("seed", 1) as u64);
    let data: Vec<u64> = (0..n).map(|_| rng.next_u64() >> 40).collect();
    let kernel = GridScan::new(&data);
    let stats = run_kernel(&kernel, blocks, method, a)?;
    if kernel.output() != inclusive_scan_reference(&data) {
        return Err("scan mismatch vs reference".into());
    }
    println!(
        "inclusive scan of {n} values in {} barrier rounds — verified",
        stats.rounds
    );
    println!("{stats}");
    Ok(())
}

/// `blocksync micro`.
pub fn micro(a: &Args) -> Result<(), String> {
    reject_runtime_flag(a)?;
    let blocks = a.get_blocks(4)?;
    let rounds = a.get_usize("rounds", 2_000);
    let tpb = a.get_usize("tpb", 64);
    let method = parse_method(a.get("method", "gpu-lock-free"))?;
    let mut cfg = GridConfig::new(blocks, tpb).with_policy(sync_policy(a)?);
    // Before the kernel allocates an element per thread of the grid.
    cfg.validate().map_err(|e| e.to_string())?;
    let kernel = MeanKernel::for_grid(blocks, tpb, rounds);
    if let Some(tc) = trace_config(a)? {
        cfg = cfg.with_trace(tc);
    }
    let exec = GridExecutor::new(cfg, method);
    let stats = exec.run(&kernel).map_err(|e| e.to_string())?;
    if !kernel.verify() {
        return Err("micro-benchmark produced wrong means".into());
    }
    println!("mean-of-two-floats micro-benchmark — verified");
    println!("{stats}");
    report_telemetry(&stats, a)?;
    write_metrics_out(&exec.observer().snapshot(), a)?;
    Ok(())
}

/// `blocksync metrics` — exercise the observability plane end to end:
/// push a window of pipelined pooled launches through one [`GridRuntime`],
/// verify every kernel, then print the cross-launch metrics registry in
/// Prometheus text exposition format (submit→stats latency histograms per
/// method, warm/cold and failure counters, live queue-depth gauge).
pub fn metrics(a: &Args) -> Result<(), String> {
    let blocks = a.get_blocks(4)?;
    let rounds = a.get_usize("rounds", 200);
    let tpb = a.get_usize("tpb", 64);
    let launches = a.get_usize("launches", 16);
    let window = a.get_usize("window", 4).max(1);
    let method = parse_method(a.get("method", "gpu-lock-free"))?;
    if launches == 0 {
        return Err("--launches expects an integer >= 1".into());
    }
    let cfg = GridConfig::new(blocks, tpb).with_policy(sync_policy(a)?);
    let rt = GridRuntime::new(cfg, method).map_err(|e| e.to_string())?;
    let mut kernels = Vec::with_capacity(launches);
    let mut inflight = VecDeque::new();
    for _ in 0..launches {
        let kernel = Arc::new(MeanKernel::for_grid(blocks, tpb, rounds));
        let handle = rt.submit(Arc::clone(&kernel)).map_err(|e| e.to_string())?;
        kernels.push(kernel);
        inflight.push_back(handle);
        if inflight.len() >= window {
            let h = inflight.pop_front().expect("nonempty");
            h.wait().map_err(|e| e.to_string())?;
        }
    }
    while let Some(h) = inflight.pop_front() {
        h.wait().map_err(|e| e.to_string())?;
    }
    if !kernels.iter().all(|k| k.verify()) {
        return Err("micro-benchmark produced wrong means".into());
    }
    let snapshot = rt.observer().snapshot();
    println!(
        "# {launches} pooled {method} launches, {blocks} blocks x {rounds} rounds, \
         window {window} — verified"
    );
    print!("{}", snapshot.render_prometheus());
    write_metrics_out(&snapshot, a)?;
    Ok(())
}

/// `blocksync tune` — the auto-tuner's view of a grid size. `--profile
/// host` (the default) is a stopwatch: the table of what each method cost
/// per round just now, how long measuring it took, and the pick. A model
/// profile (`gtx280`, `fermi`) is the cost model: the calibration it prices
/// with, the Eq. 6–9 prediction table (with the tuned tree group size),
/// the pick, and every pairwise crossover point where one method overtakes
/// another as the grid grows.
pub fn tune(a: &Args) -> Result<(), String> {
    let blocks = a.get_blocks(30)?;
    if blocks == 0 {
        return Err("--blocks expects an integer >= 1".into());
    }
    let profile = a.get("profile", "host");
    let cal = match profile {
        "host" => return tune_host(blocks),
        "gtx280" => CalibrationProfile::gtx280(),
        "fermi" => CalibrationProfile::fermi_class(),
        other => {
            return Err(format!(
                "unknown --profile {other:?}; valid: host gtx280 fermi"
            ))
        }
    };
    let max_gpu = a.get_usize(
        "max-gpu-blocks",
        GpuSpec::gtx280().max_persistent_blocks() as usize,
    );
    let decision = AutoTuner::with_profile(cal.clone()).decide(blocks, max_gpu);

    println!(
        "calibration ({profile}): t_a={}ns  t_c={}ns  store={}ns  launch={}ns  \
         explicit-round={}ns  implicit-round={}ns",
        cal.atomic_add_ns,
        cal.poll_round_trip().as_nanos(),
        cal.mem_write_service_ns + cal.write_visibility_ns,
        cal.kernel_launch_ns,
        cal.explicit_round_overhead_ns,
        cal.implicit_round_overhead_ns
    );
    println!("GPU-side methods are candidates up to {max_gpu} resident blocks, excluded beyond");
    println!("\nprediction table for {blocks} blocks (predicted t_S per barrier):");
    print_tune_table(&decision);
    if blocks > max_gpu {
        println!(
            "  (no GPU-side rows: {blocks} blocks cannot all be resident, and a device-side \
             barrier among non-preemptive blocks deadlocks — paper Section 5)"
        );
    }
    println!(
        "\nchosen: {} (predicted t_S {:.0} ns)",
        decision.chosen, decision.predicted_sync_ns
    );

    let max_n = a.get_usize("max-n", 1024);
    let crossovers = blocksync_model::crossover_table(&cal, max_n);
    if crossovers.is_empty() {
        println!("no crossovers in 2..={max_n} blocks");
    } else {
        println!("crossover points (N <= {max_n} blocks):");
        for (from, to, n) in crossovers {
            println!(
                "  {:<16} overtaken by {:<16} at N = {n}",
                from.name(),
                to.name()
            );
        }
    }
    Ok(())
}

/// `tune --profile host`: measure (or read back) the host's table.
fn tune_host(blocks: usize) -> Result<(), String> {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let start = std::time::Instant::now();
    let decision = AutoTuner::host().decide(blocks, blocks);
    let took = start.elapsed();
    println!(
        "measured table for {blocks} blocks on {cores} core(s) \
         (t_S per round of an empty launch):"
    );
    print_tune_table(&decision);
    println!(
        "\nmeasured in {:.1} ms; a process measures each block count once",
        took.as_secs_f64() * 1e3
    );
    println!(
        "chosen: {} (measured t_S {:.0} ns)",
        decision.chosen, decision.predicted_sync_ns
    );
    Ok(())
}

/// One line per row of a tuner table, the pick starred.
fn print_tune_table(decision: &AutoDecision) {
    for row in &decision.table {
        let mark = if row.method == decision.chosen {
            '*'
        } else {
            ' '
        };
        println!(
            " {mark} {:<16} {:>12.0} ns",
            row.method.to_string(),
            row.predicted_sync_ns
        );
    }
}

/// `blocksync trace` — run the micro-benchmark with the telemetry plane on
/// and print the per-round skew/straggler table.
pub fn trace(a: &Args) -> Result<(), String> {
    let blocks = a.get_blocks(4)?;
    let rounds = a.get_usize("rounds", 200);
    let method = parse_method(a.get("method", "gpu-lock-free"))?;
    let stride = a.get_usize("stride", 1);
    if stride == 0 {
        return Err("--stride expects an integer >= 1".into());
    }
    let tc = TraceConfig::new().with_stride(stride);
    let (stats, ok) = run_host_traced(blocks, a.get_usize("tpb", 64), rounds, method, tc)
        .map_err(|e| e.to_string())?;
    if !ok {
        return Err("micro-benchmark produced wrong means".into());
    }
    let t = stats
        .telemetry
        .as_deref()
        .expect("a traced run carries telemetry");
    println!(
        "{}: {} blocks x {} rounds — {} events over {} sampled rounds (stride {}, {} dropped)",
        stats.method,
        stats.n_blocks,
        stats.rounds,
        t.events.len(),
        t.rounds.len(),
        t.stride,
        t.dropped
    );
    print!("{}", t.round_table(a.get_usize("limit", 20)));
    println!(
        "spin polls/wait: mean {:.0}, p99 {}; sync/block/round: mean {:.1} us, p99 {:.1} us",
        t.spin_polls.mean(),
        t.spin_polls.percentile(0.99),
        t.sync_ns.mean() / 1e3,
        t.sync_ns.percentile(0.99) as f64 / 1e3
    );
    let out = a.get("out", "");
    if !out.is_empty() {
        std::fs::write(out, t.chrome_trace(&stats.method))
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("wrote chrome://tracing timeline to {out}");
    }
    Ok(())
}

/// `blocksync chaos` — the chaos soak harness: push pipelined launches
/// through live pooled shards where a configurable fraction carry
/// seeded-random fault schedules, and assert after every faulty launch
/// that the error names the scheduled cause, the shard self-heals, and
/// interleaved clean launches stay bit-identical — then that every shard
/// still serves. One driver: `--method/--blocks/--tpb` name a single
/// shard (a standalone pool), `--shards BxT/METHOD,...` a list, and
/// `--service` the default three mixed shapes. The seed is always printed
/// so any red run replays with one command.
pub fn chaos(a: &Args) -> Result<(), String> {
    reject_runtime_flag(a)?;
    let defaults = ChaosConfig::default();
    let timeout_secs = a.get_f64("sync-timeout", defaults.timeout.as_secs_f64());
    if timeout_secs <= 0.0 || !timeout_secs.is_finite() {
        return Err("chaos needs a positive --sync-timeout (faults must be detected)".into());
    }
    let postmortem_dir = match a.get("postmortem-dir", "") {
        "" if a.has("postmortem-dir") => {
            return Err("--postmortem-dir expects a directory path".into())
        }
        "" => None,
        dir => Some(std::path::PathBuf::from(dir)),
    };
    let default_shards = if a.has("service") {
        vec![
            ShardKey::new(4, 8, SyncMethod::GpuLockFree),
            ShardKey::new(3, 8, SyncMethod::GpuSimple),
            ShardKey::new(5, 8, SyncMethod::GpuTree(TreeLevels::Two)),
        ]
    } else {
        let one = defaults.shards[0];
        vec![ShardKey::new(
            a.get_blocks(one.blocks)?,
            a.get_usize("tpb", one.threads_per_block),
            parse_method(a.get("method", "gpu-lock-free"))?,
        )]
    };
    let cfg = ChaosConfig {
        launches: a.get_usize("launches", defaults.launches),
        fault_rate: a.get_f64("fault-rate", defaults.fault_rate),
        seed: a.get_usize("seed", defaults.seed as usize) as u64,
        shards: parse_shards(a.get("shards", ""), default_shards)?,
        rounds: a.get_usize("rounds", defaults.rounds),
        timeout: Duration::from_secs_f64(timeout_secs),
        window: a.get_usize("window", defaults.window),
        postmortem_dir,
    };
    let shard_list = cfg
        .shards
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "chaos soak: {} launches across {} shard(s) [{shard_list}], {} rounds each, \
         fault rate {:.2}, window {}, timeout {:?}, seed {}",
        cfg.launches,
        cfg.shards.len(),
        cfg.rounds,
        cfg.fault_rate,
        cfg.window,
        cfg.timeout,
        cfg.seed
    );
    let report = cfg.run()?;
    println!("{report}");
    if let Some(dir) = &cfg.postmortem_dir {
        let dumped = report.outcomes.iter().filter(|o| o.error.is_some()).count();
        println!("wrote {dumped} postmortem(s) to {}", dir.display());
    }
    let json_path = a.get("json", "");
    if json_path.is_empty() && a.has("json") {
        return Err("--json expects a file path (e.g. --json chaos.json)".into());
    }
    if !json_path.is_empty() {
        std::fs::write(json_path, report.to_json().pretty())
            .map_err(|e| format!("cannot write {json_path}: {e}"))?;
        println!("wrote chaos report to {json_path}");
    }
    if let Some(metrics) = &report.metrics {
        report_shard_summary(metrics);
        write_metrics_out(metrics, a)?;
    }
    if report.passed() {
        Ok(())
    } else {
        Err(format!(
            "{} invariant violation(s); reproduce with --seed {} --shards {shard_list}",
            report.failures.len(),
            report.seed
        ))
    }
}

/// Parse a comma-separated shard list: `BLOCKSxTPB/METHOD,...`
/// (e.g. `4x8/gpu-lock-free,3x8/gpu-simple`) — the `Display` form of
/// [`ShardKey`]. Empty spec keeps `default`.
fn parse_shards(spec: &str, default: Vec<ShardKey>) -> Result<Vec<ShardKey>, String> {
    if spec.is_empty() {
        return Ok(default);
    }
    spec.split(',')
        .map(|part| {
            let err = || {
                format!(
                    "bad shard spec {part:?}; expected BLOCKSxTPB/METHOD \
                     (e.g. 4x8/gpu-lock-free)"
                )
            };
            let (shape, method) = part.split_once('/').ok_or_else(err)?;
            let (blocks, tpb) = shape.split_once('x').ok_or_else(err)?;
            let blocks = check_blocks(blocks.trim().parse().map_err(|_| err())?)?;
            let tpb: usize = tpb.trim().parse().map_err(|_| err())?;
            Ok(ShardKey::new(blocks, tpb, parse_method(method.trim())?))
        })
        .collect()
}

/// Per-shard traffic table from a service metrics snapshot.
fn report_shard_summary(snapshot: &MetricsSnapshot) {
    let Some(by_shard) = snapshot.labeled.get("shard_launches_total") else {
        return;
    };
    println!("per-shard traffic:");
    for (shard, launches) in by_shard {
        let depth = snapshot
            .labeled_gauges
            .get("queue_depth")
            .and_then(|g| g.get(shard))
            .copied()
            .unwrap_or(0);
        println!("  {shard:<24} {launches:>6} launches   queue depth {depth}");
    }
    if let Some(rejections) = snapshot.labeled.get("service_rejections_total") {
        for (reason, n) in rejections {
            println!("  rejected ({reason}): {n}");
        }
    }
}

/// `blocksync serve` — barrier-as-a-service demo: one [`GridService`]
/// fronting several shard shapes, hammered by many client threads that
/// pipeline mixed-shape submissions through the bounded admission plane.
/// Prints the per-shard traffic table and admission outcomes.
pub fn serve(a: &Args) -> Result<(), String> {
    let clients = a.get_usize("clients", 8);
    let per_client = a.get_usize("launches", 32);
    let rounds = a.get_usize("rounds", 50);
    let seed = a.get_usize("seed", 42) as u64;
    let deadline = Duration::from_secs_f64(a.get_f64("deadline", 2.0));
    let shards = parse_shards(
        a.get("shards", ""),
        vec![
            ShardKey::new(4, 8, SyncMethod::GpuLockFree),
            ShardKey::new(3, 8, SyncMethod::GpuSimple),
            ShardKey::new(2, 8, SyncMethod::SenseReversing),
        ],
    )?;
    if clients == 0 || per_client == 0 {
        return Err("--clients and --launches must be >= 1".into());
    }
    // Before a client allocates a kernel with an element per thread.
    for key in &shards {
        GridConfig::new(key.blocks, key.threads_per_block)
            .validate()
            .map_err(|e| format!("shard {key}: {e}"))?;
    }
    let mut template = GridConfig::new(1, 1);
    template = template.with_policy(sync_policy(a)?);
    let svc = GridService::new(
        ServiceConfig::default()
            .with_max_shards(a.get_usize("max-shards", shards.len()))
            .with_queue_capacity(a.get_usize("queue-capacity", 16))
            .with_tenant_quota(a.get_usize("quota", 8))
            .with_idle_ttl(Duration::from_millis(a.get_usize("idle-ttl-ms", 500) as u64))
            .with_template(template),
    );
    println!(
        "serving {} shard shape(s) to {clients} client(s) x {per_client} launches \
         ({rounds} rounds each, admission deadline {deadline:?})",
        shards.len()
    );
    let total_ok = std::sync::atomic::AtomicUsize::new(0);
    let total_deadline = std::sync::atomic::AtomicUsize::new(0);
    let start = std::time::Instant::now();
    let errors: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let svc = &svc;
                let shards = &shards;
                let total_ok = &total_ok;
                let total_deadline = &total_deadline;
                scope.spawn(move || -> Result<(), String> {
                    let tenant = format!("client-{c}");
                    let mut rng = SplitMix64::new(seed ^ (c as u64).wrapping_mul(0x9e37));
                    let mut inflight: VecDeque<(Arc<MeanKernel>, blocksync_core::ServiceHandle)> =
                        VecDeque::new();
                    let settle = |(kernel, handle): (
                        Arc<MeanKernel>,
                        blocksync_core::ServiceHandle,
                    )|
                     -> Result<(), String> {
                        handle.wait().map_err(|e| e.to_string())?;
                        if !kernel.verify() {
                            return Err("a served launch produced wrong means".into());
                        }
                        total_ok.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        Ok(())
                    };
                    for _ in 0..per_client {
                        let key = shards[rng.next_below(shards.len() as u64) as usize];
                        let kernel = Arc::new(MeanKernel::for_grid(
                            key.blocks,
                            key.threads_per_block,
                            rounds,
                        ));
                        match svc.submit_within(
                            &tenant,
                            key,
                            Arc::clone(&kernel) as Arc<dyn RoundKernel + Send + Sync>,
                            deadline,
                        ) {
                            Ok(h) => inflight.push_back((kernel, h)),
                            Err(ServiceError::Deadline { .. }) => {
                                total_deadline.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                            Err(e) => return Err(e.to_string()),
                        }
                        if inflight.len() >= 4 {
                            settle(inflight.pop_front().expect("nonempty"))?;
                        }
                    }
                    while let Some(pair) = inflight.pop_front() {
                        settle(pair)?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("client thread panicked").err())
            .collect()
    });
    let elapsed = start.elapsed();
    if let Some(e) = errors.first() {
        return Err(format!("{} client(s) failed; first: {e}", errors.len()));
    }
    let ok = total_ok.load(std::sync::atomic::Ordering::Relaxed);
    let missed = total_deadline.load(std::sync::atomic::Ordering::Relaxed);
    println!(
        "served {ok} launches in {elapsed:?} ({:.0} launches/s), {missed} missed the \
         admission deadline, {} shard(s) live at shutdown",
        ok as f64 / elapsed.as_secs_f64(),
        svc.shards_live()
    );
    let snapshot = svc.observer().snapshot();
    report_shard_summary(&snapshot);
    write_metrics_out(&snapshot, a)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use blocksync_device::json;

    fn args(v: &[&str]) -> Args {
        Args::parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn sort_command_verifies() {
        sort(&args(&["sort", "--n", "1024", "--blocks", "3"])).unwrap();
        sort(&args(&[
            "sort", "--n", "1024", "--blocks", "3", "--batch", "4",
        ]))
        .unwrap();
    }

    #[test]
    fn align_command_all_modes() {
        align(&args(&["align", "--len", "120", "--blocks", "3"])).unwrap();
        align(&args(&[
            "align", "--len", "120", "--blocks", "3", "--global",
        ]))
        .unwrap();
        align(&args(&[
            "align", "--len", "120", "--blocks", "3", "--band", "8",
        ]))
        .unwrap();
    }

    #[test]
    fn fft_command_round_trips() {
        fft(&args(&["fft", "--log-n", "8", "--blocks", "3"])).unwrap();
        fft(&args(&[
            "fft",
            "--log-n",
            "8",
            "--blocks",
            "3",
            "--inverse",
        ]))
        .unwrap();
        assert!(fft(&args(&["fft", "--log-n", "30"])).is_err());
    }

    #[test]
    fn scan_and_micro_commands() {
        scan(&args(&["scan", "--n", "5000", "--blocks", "3"])).unwrap();
        micro(&args(&["micro", "--blocks", "2", "--rounds", "100"])).unwrap();
    }

    #[test]
    fn trace_command_and_flags() {
        // The table view runs and verifies.
        trace(&args(&["trace", "--blocks", "2", "--rounds", "50"])).unwrap();
        trace(&args(&[
            "trace", "--blocks", "2", "--rounds", "50", "--stride", "5",
        ]))
        .unwrap();
        assert!(trace(&args(&["trace", "--stride", "0"])).is_err());
        // `--metrics` prints the histogram summary without failing.
        micro(&args(&[
            "micro",
            "--blocks",
            "2",
            "--rounds",
            "50",
            "--metrics",
        ]))
        .unwrap();
        // Bare `--trace` on a host command needs a file path.
        let e = micro(&args(&[
            "micro", "--blocks", "2", "--rounds", "10", "--trace",
        ]))
        .unwrap_err();
        assert!(e.contains("--trace"), "{e}");
    }

    #[test]
    fn trace_flag_writes_chrome_json() {
        let dir = std::env::temp_dir();
        let host = dir.join("blocksync-cli-host-trace.json");
        let sim = dir.join("blocksync-cli-sim-trace.json");
        let host_s = host.to_str().unwrap();
        let sim_s = sim.to_str().unwrap();
        micro(&args(&[
            "micro", "--blocks", "2", "--rounds", "40", "--trace", host_s,
        ]))
        .unwrap();
        simulate(&args(&[
            "simulate", "--blocks", "4", "--rounds", "20", "--trace", sim_s,
        ]))
        .unwrap();
        for p in [&host, &sim] {
            let doc = json::parse(&std::fs::read_to_string(p).unwrap()).unwrap();
            let events = doc.get("traceEvents").unwrap().as_arr("events").unwrap();
            let sync_span = events.iter().find(|e| {
                e.get("ph") == Some(&"X".into()) && e.get("name") == Some(&"sync".into())
            });
            assert!(sync_span.is_some(), "{doc}");
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn sync_timeout_flag() {
        // A generous timeout must not perturb a healthy run.
        sort(&args(&[
            "sort",
            "--n",
            "1024",
            "--blocks",
            "3",
            "--sync-timeout",
            "30",
        ]))
        .unwrap();
        // Invalid values are rejected with a usage error, not a panic.
        let e = sort(&args(&["sort", "--n", "64", "--sync-timeout", "-1"])).unwrap_err();
        assert!(e.contains("sync-timeout"), "{e}");
        // Zero means "wait forever" (the default policy).
        assert_eq!(
            sync_policy(&args(&["--sync-timeout", "0"])).unwrap(),
            SyncPolicy::default()
        );
        assert_eq!(
            sync_policy(&args(&["--sync-timeout", "2.5"]))
                .unwrap()
                .timeout,
            Some(Duration::from_millis(2500))
        );
    }

    #[test]
    fn tune_command_prints_the_model_view() {
        // A deterministic profile must succeed and reject bad inputs.
        tune(&args(&["tune", "--profile", "gtx280", "--blocks", "30"])).unwrap();
        tune(&args(&[
            "tune",
            "--profile",
            "fermi",
            "--blocks",
            "64",
            "--max-n",
            "128",
        ]))
        .unwrap();
        assert!(tune(&args(&["tune", "--profile", "voodoo2"])).is_err());
        assert!(tune(&args(&["tune", "--blocks", "0"])).is_err());
    }

    /// `Args` ignores unknown flags, so the removed `--runtime` must be
    /// refused by name — on every command that used to read it — rather
    /// than silently running cold.
    #[test]
    fn runtime_flag_is_a_usage_error() {
        type Command = fn(&Args) -> Result<(), String>;
        let commands: [(&str, Command); 6] = [
            ("sort", sort),
            ("fft", fft),
            ("align", align),
            ("scan", scan),
            ("micro", micro),
            ("chaos", chaos),
        ];
        for (name, command) in commands {
            for value in ["pooled", "scoped"] {
                let e = command(&args(&[name, "--runtime", value])).unwrap_err();
                assert!(e.contains("--runtime was removed"), "{name}: {e}");
                assert!(e.contains("blocksync metrics"), "{name}: {e}");
            }
        }
    }

    #[test]
    fn metrics_command_renders_prometheus_and_exports() {
        metrics(&args(&[
            "metrics",
            "--launches",
            "6",
            "--blocks",
            "2",
            "--rounds",
            "50",
        ]))
        .unwrap();
        assert!(metrics(&args(&["metrics", "--launches", "0"])).is_err());
        // `--metrics-out` writes Prometheus text or lossless JSON by extension.
        let dir = std::env::temp_dir();
        let prom = dir.join("blocksync-cli-metrics.prom");
        let json = dir.join("blocksync-cli-metrics.json");
        metrics(&args(&[
            "metrics",
            "--launches",
            "4",
            "--blocks",
            "2",
            "--rounds",
            "20",
            "--metrics-out",
            prom.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(text.contains("blocksync_launches_total 4"), "{text}");
        assert!(
            text.contains("# TYPE blocksync_queue_depth gauge"),
            "{text}"
        );
        micro(&args(&[
            "micro",
            "--blocks",
            "2",
            "--rounds",
            "20",
            "--metrics-out",
            json.to_str().unwrap(),
        ]))
        .unwrap();
        let snap = MetricsSnapshot::from_json(&std::fs::read_to_string(&json).unwrap()).unwrap();
        assert_eq!(snap.counters["launches_total"], 1);
        // Bare flag is a usage error, not a silent no-op.
        let e = micro(&args(&[
            "micro",
            "--blocks",
            "2",
            "--rounds",
            "10",
            "--metrics-out",
        ]))
        .unwrap_err();
        assert!(e.contains("--metrics-out"), "{e}");
        for p in [&prom, &json] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn chaos_command_writes_report_json_and_postmortems() {
        let dir = std::env::temp_dir().join("blocksync-cli-chaos-pm");
        let _ = std::fs::remove_dir_all(&dir);
        let json = std::env::temp_dir().join("blocksync-cli-chaos.json");
        chaos(&args(&[
            "chaos",
            "--launches",
            "20",
            "--fault-rate",
            "0.3",
            "--seed",
            "42",
            "--rounds",
            "6",
            "--sync-timeout",
            "0.08",
            "--json",
            json.to_str().unwrap(),
            "--postmortem-dir",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        let report = json::parse(&std::fs::read_to_string(&json).unwrap()).unwrap();
        let outcomes = report.get("outcomes").unwrap().as_arr("outcomes").unwrap();
        assert_eq!(outcomes.len(), 20);
        assert!(outcomes[0].get("generation_delta").is_some(), "{report}");
        let metrics = report.get("metrics").unwrap().to_string();
        assert!(MetricsSnapshot::from_json(&metrics).is_ok(), "{metrics}");
        let dumps: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(!dumps.is_empty(), "seed 42 at 30% must fail some launches");
        for dump in dumps {
            let text = std::fs::read_to_string(dump.unwrap().path()).unwrap();
            let postmortem = json::parse(&text).unwrap();
            assert_eq!(postmortem.get("outcome"), Some(&"failure".into()));
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&json);
    }

    /// One driver, three ways to name its shards: flags for one, `--shards`
    /// for a list, `--service` for the default three.
    #[test]
    fn chaos_command_shard_selection() {
        let clean = ["--launches", "6", "--fault-rate", "0", "--rounds", "3"];
        let run = |extra: &[&str]| chaos(&args(&[&["chaos"], &clean[..], extra].concat()));
        run(&["--method", "gpu-simple", "--blocks", "3"]).unwrap();
        run(&["--shards", "2x8/gpu-lock-free,3x8/sense-reversing"]).unwrap();
        run(&["--service"]).unwrap();
        // A shard chaos cannot diagnose is refused, naming the shard.
        let e = run(&["--method", "no-sync"]).unwrap_err();
        assert!(e.contains("shard 4x8/no-sync"), "{e}");
        assert!(run(&["--shards", "4x8"]).is_err());
    }

    /// A block count from outside is bounded before anything is sized from
    /// it: each of these used to die allocating 800 GB.
    #[test]
    fn absurd_block_counts_are_usage_errors() {
        let huge = "100000000000";
        let shards = format!("{huge}x8/gpu-lock-free");
        type Command = fn(&Args) -> Result<(), String>;
        let cases: [(Command, &[&str]); 5] = [
            (
                simulate,
                &["simulate", "--blocks", huge, "--method", "cpu-implicit"],
            ),
            (micro, &["micro", "--blocks", huge]),
            (serve, &["serve", "--shards", &shards]),
            (chaos, &["chaos", "--shards", &shards]),
            (chaos, &["chaos", "--blocks", huge]),
        ];
        for (command, argv) in cases {
            let e = command(&args(argv)).unwrap_err();
            assert!(e.contains(huge) && e.contains("4096"), "{argv:?}: {e}");
        }
        // A shard's threads per block are held to the device limit too.
        let e = serve(&args(&["serve", "--shards", "4x100000000000/gpu-simple"])).unwrap_err();
        assert!(e.contains("exceeds device limit"), "{e}");
    }

    #[test]
    fn auto_method_runs_end_to_end() {
        micro(&args(&[
            "micro", "--blocks", "2", "--rounds", "50", "--method", "auto",
        ]))
        .unwrap();
    }

    #[test]
    fn simulate_command_shapes() {
        simulate(&args(&["simulate", "--rounds", "100", "--blocks", "8"])).unwrap();
        simulate(&args(&[
            "simulate", "--rounds", "50", "--blocks", "8", "--trace",
        ]))
        .unwrap();
        simulate(&args(&["simulate", "--algo", "bitonic", "--blocks", "30"])).unwrap();
        assert!(simulate(&args(&["simulate", "--algo", "quantum"])).is_err());
        // Oversubscribed GPU barrier reports a deadlock error, not a hang.
        let e = simulate(&args(&["simulate", "--blocks", "31", "--rounds", "10"])).unwrap_err();
        assert!(e.contains("deadlock"), "{e}");
    }
}
