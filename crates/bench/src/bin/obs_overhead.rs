//! Guard-rail for the observability plane's overhead budget: pushes the
//! same window of pipelined pooled launches through one [`GridRuntime`]
//! with the observer disabled and enabled, and compares best-of-N wall
//! times. Exits non-zero if the observed run is more than `--budget-pct`
//! slower (plus a small absolute slack so short CI runs are not failed by
//! scheduler noise).
//!
//! The plane's design guarantee is that workers never touch it: every
//! registry mutation happens on the host thread at launch completion, so
//! there are **zero new atomic RMWs in any barrier spin loop**. The bin
//! proves that structurally, not just by timing: the registry's mutation
//! counter must equal exactly `UPDATES_PER_LAUNCH * launches` and must not
//! move when the per-launch round count (and therefore spin volume) is
//! quadrupled.
//!
//! Deterministic structural records (`model:obs/updates_per_launch`,
//! `model:obs/series`) are emitted for the shared CI baseline guard via
//! `--json FILE` / `--baseline FILE`.
//!
//! Flags: `--blocks 4` `--rounds 500` `--tpb 64` `--launches 24`
//!        `--window 4` `--reps 5` `--budget-pct 5` `--slack-ms 20`
//!        `--json FILE` `--baseline FILE`

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use blocksync_bench::baseline::{self, flag_value, BenchRecord};
use blocksync_core::{GridConfig, GridRuntime, Observer, SyncMethod};
use blocksync_microbench::MeanKernel;

/// Registry mutations per clean pooled launch: launches_total, warm-or-cold
/// counter, queue-depth gauge, and the queued/launch/submit-to-stats
/// histograms. Anything else indicates the plane grew a per-round or
/// per-spin touch point.
const UPDATES_PER_LAUNCH: u64 = 6;

fn best_of(reps: usize, mut run: impl FnMut() -> Duration) -> Duration {
    (0..reps).map(|_| run()).min().expect("reps >= 1")
}

/// One pipelined batch: submit `launches` kernels through a fresh pool
/// with the given observer, window-bounded, and wait them all. Returns the
/// wall time of the whole batch and the observer's final mutation count.
fn run_batch(
    blocks: usize,
    tpb: usize,
    rounds: usize,
    launches: usize,
    window: usize,
    obs: Arc<Observer>,
) -> (Duration, u64) {
    let cfg = GridConfig::new(blocks, tpb);
    let rt = GridRuntime::new_with_observer(cfg, SyncMethod::GpuLockFree, Arc::clone(&obs))
        .expect("valid pooled config");
    let start = Instant::now();
    let mut inflight = VecDeque::new();
    for _ in 0..launches {
        let kernel = Arc::new(MeanKernel::for_grid(blocks, tpb, rounds));
        let h = rt.submit(kernel).expect("submit");
        inflight.push_back(h);
        if inflight.len() >= window {
            let h = inflight.pop_front().expect("nonempty");
            h.wait().expect("clean launch");
        }
    }
    while let Some(h) = inflight.pop_front() {
        h.wait().expect("clean launch");
    }
    (start.elapsed(), obs.ops())
}

/// Total exported series in a snapshot: plain counters, gauges, every
/// label of every labeled family, and histograms.
fn series_count(snap: &blocksync_core::MetricsSnapshot) -> usize {
    snap.counters.len()
        + snap.gauges.len()
        + snap.labeled.values().map(|m| m.len()).sum::<usize>()
        + snap.labeled_gauges.values().map(|m| m.len()).sum::<usize>()
        + snap.histograms.len()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str, default: &str| flag_value(&args, key).unwrap_or_else(|| default.into());
    let blocks: usize = get("blocks", "4").parse().expect("--blocks integer");
    let rounds: usize = get("rounds", "500").parse().expect("--rounds integer");
    let tpb: usize = get("tpb", "64").parse().expect("--tpb integer");
    let launches: usize = get("launches", "24").parse().expect("--launches integer");
    let window: usize = get("window", "4")
        .parse::<usize>()
        .expect("--window integer")
        .max(1);
    let reps: usize = get("reps", "5").parse().expect("--reps integer");
    let budget_pct: f64 = get("budget-pct", "5").parse().expect("--budget-pct number");
    let slack = Duration::from_millis(get("slack-ms", "20").parse().expect("--slack-ms integer"));

    // Warm up thread spawning and the allocator before timing anything.
    let _ = run_batch(blocks, tpb, rounds.min(50), 2, window, Observer::disabled());

    let off = best_of(reps, || {
        let (wall, ops) = run_batch(blocks, tpb, rounds, launches, window, Observer::disabled());
        assert_eq!(ops, 0, "a disabled observer must never mutate the registry");
        wall
    });
    let on = best_of(reps, || {
        let (wall, _) = run_batch(blocks, tpb, rounds, launches, window, Observer::new());
        wall
    });

    // Structural proof that no registry touch lives in a spin loop or a
    // round body: the mutation count is an exact function of the launch
    // count alone, invariant under a 4x spin-volume increase.
    let probe = |r: usize| {
        let obs = Observer::new();
        let (_, ops) = run_batch(blocks, tpb, r, launches, window, Arc::clone(&obs));
        (ops, obs.snapshot())
    };
    let (ops_short, snap) = probe(rounds.min(50));
    let (ops_long, _) = probe(rounds.min(50) * 4);
    assert_eq!(
        ops_short,
        UPDATES_PER_LAUNCH * launches as u64,
        "registry mutations per clean pooled launch changed — a new touch \
         point was added to the launch path"
    );
    assert_eq!(
        ops_short, ops_long,
        "registry mutations scaled with rounds: something is updating \
         metrics from inside the spin/compute path"
    );
    let series = series_count(&snap);
    println!(
        "structure: {UPDATES_PER_LAUNCH} registry updates per launch (spin-invariant), \
         {series} exported series after a clean pooled soak"
    );

    let overhead = on.saturating_sub(off);
    let pct = if off.is_zero() {
        0.0
    } else {
        100.0 * overhead.as_secs_f64() / off.as_secs_f64()
    };
    println!(
        "gpu-lock-free: {launches} pooled launches x {rounds} rounds ({blocks} blocks, \
         window {window}), best of {reps}: off {:.3} ms, on {:.3} ms, overhead {:.3} ms ({pct:.2}%)",
        off.as_secs_f64() * 1e3,
        on.as_secs_f64() * 1e3,
        overhead.as_secs_f64() * 1e3,
    );

    // Deterministic structural records for the shared baseline file, plus
    // the (noisy, unguarded) measured overhead for the artifact.
    let records = vec![
        BenchRecord::new(
            "model:obs/updates_per_launch",
            blocks,
            UPDATES_PER_LAUNCH as f64,
        ),
        BenchRecord::new("model:obs/series", blocks, series as f64),
        BenchRecord::new("host:obs/overhead-pct", blocks, pct.max(0.0)),
    ];
    if let Err(e) = baseline::write_and_guard(&args, &records, None) {
        eprintln!("FAIL: {e}");
        std::process::exit(1);
    }

    if pct > budget_pct && overhead > slack {
        eprintln!("FAIL: observability overhead {pct:.2}% exceeds the {budget_pct}% budget");
        std::process::exit(1);
    }
    println!(
        "OK: within the {budget_pct}% budget (slack {} ms)",
        slack.as_millis()
    );
}
