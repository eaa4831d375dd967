//! The layered benchmark of the barrier → launch → runtime → service
//! ladder. See `perf/README.md`.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--no-pin] [--smoke]
//! perf run   [--seed n] [--seconds s]      every workload, untraced
//! perf trace [--seed n] [--seconds s]      every workload, traced
//! perf repeat [N] [--seed n] [--seconds s] N run sets, spread against the bounds
//! ```
//!
//! The last line on standard output of a single-workload run is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`.

mod json;
mod ladder;
mod metrics;
mod pin;
mod probe;
mod repeat;
mod span;
mod stat;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use json::Value;
use span::{LaunchObs, Trace};
use stat::{median, percentile, quartiles};
use workloads::{SliceOut, Workload};

/// Workload instances per untraced run; `setup_s` is the median set-up.
const SETUPS: usize = 8;
/// Share of a traced run's seconds spent on the workload (spans on and off
/// in alternating slices); the ladder gets the rest.
const TRACED_WORKLOAD_SHARE: f64 = 0.4;
/// Spans written to the trace file.
const TRACE_FILE_SPANS: usize = 50_000;

#[derive(Debug, Clone)]
pub struct Args {
    command: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// One slice, one set-up, one ladder pass: every code path, no steadiness.
    smoke: bool,
    repeats: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: "bench".into(),
        workload: "all".into(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        repeats: 10,
    };
    let mut it = argv.iter().peekable();
    if let Some(cmd) = it.next_if(|a| !a.starts_with("--")) {
        args.command = cmd.clone();
        args.trace = cmd == "trace";
        if let Some(n) = it.next_if(|a| cmd == "repeat" && !a.starts_with("--")) {
            args.repeats = n.parse().map_err(|_| format!("repeat: bad count {n:?}"))?;
        }
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?.clone(),
            "--seed" => {
                args.seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value("0 or 1")? == "1",
            "--no-pin" => pin::disable(),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !matches!(args.command.as_str(), "bench" | "run" | "trace" | "repeat") {
        return Err(format!("unknown command {:?}", args.command));
    }
    if args.workload != "all" && !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; one of {:?}",
            args.workload,
            workloads::NAMES
        ));
    }
    if !(args.seconds >= 0.0 && args.seconds <= 3600.0) {
        return Err("--seconds must be between 0 and 3600".into());
    }
    Ok(args)
}

/// Where and how a result was measured; printed with every result.
pub fn host_fingerprint(args: &Args) -> Value {
    let first_line = |mut cmd: Command| -> String {
        cmd.output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().next().map(str::to_string))
            .unwrap_or_else(|| "unknown".into())
    };
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut rustc = Command::new("rustc");
    rustc.arg("-V");
    // Ask git about this package's directory only: never search above it
    // for a repository the checkout is not part of.
    let perf_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]).current_dir(perf_dir);
    if let Some(above) = perf_dir.parent().and_then(|p| p.parent()) {
        git.env("GIT_CEILING_DIRECTORIES", above);
    }
    Value::obj([
        ("nproc", pin::cores().into()),
        ("cpu", Value::Str(model)),
        ("rustc", Value::Str(first_line(rustc))),
        ("git", Value::Str(first_line(git))),
        ("pinned", pin::enabled().into()),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
    ])
}

/// One workload's result: the contract's last line plus a readable table.
pub struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    /// `(name, value, unit)` in the order `BENCHMARK.json` lists them.
    metrics: Vec<(String, f64, &'static str)>,
    report: String,
}

impl Outcome {
    fn json(&self) -> Value {
        Value::obj([
            ("correct", self.correct.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Value::obj([("value", Value::Num(*value)), ("unit", Value::str(*unit))]),
                    )
                })),
            ),
        ])
    }
}

/// Running totals over the slices of one workload.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    rejected: usize,
    slices: usize,
    latencies_ns: Vec<u64>,
    /// Per slice.
    launches_per_s: Vec<f64>,
    round_ns: Vec<f64>,
}

impl Tally {
    fn add(&mut self, s: &SliceOut) {
        self.attempted += s.attempted;
        self.failed += s.failed;
        self.rejected += s.rejected;
        self.slices += 1;
        self.latencies_ns
            .extend(s.obs.iter().map(LaunchObs::latency_ns));
        let (wall_ns, rounds) = s.obs.iter().fold((0u128, 0usize), |(w, r), o| {
            (w + o.stats.wall.as_nanos(), r + o.stats.rounds)
        });
        if rounds > 0 {
            self.launches_per_s
                .push(s.obs.len() as f64 / s.wall.as_secs_f64());
            self.round_ns.push(wall_ns as f64 / rounds as f64);
        }
    }
}

fn build(name: &str, seed: u64) -> Box<dyn Workload> {
    workloads::build(name, seed).expect("workload names are checked at parse time")
}

/// Run slices until `seconds` have passed (at least `min_slices`), handing
/// each to `each` with its index. With `alternate`, odd slices are traced.
/// A host-speed probe goes before and after every slice.
fn run_slices(
    workload: &mut dyn Workload,
    seconds: f64,
    min_slices: usize,
    alternate: bool,
    probes: &mut Vec<f64>,
    mut each: impl FnMut(usize, SliceOut),
) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0;
    while i < min_slices || Instant::now() < deadline {
        probes.extend(probe::pingpong_ns());
        let out = workload.slice(alternate && i % 2 == 1);
        probes.extend(probe::pingpong_ns());
        each(i, out);
        i += 1;
    }
}

fn quartile_line(name: &str, per_slice: &[f64]) -> String {
    if per_slice.len() < 2 {
        return format!("{name:<16} {:>12.1}\n", median(per_slice));
    }
    let [q1, q2, q3] = quartiles(per_slice);
    format!(
        "{name:<16} {q2:>12.1}   p25 {q1:.1}  p75 {q3:.1}  ({} slices)\n",
        per_slice.len()
    )
}

/// The untraced run: `SETUPS` instances of the workload one after another,
/// each set up on the clock and then measured for its share of `seconds`.
/// Thread placement and scheduler phase settle per instance and differ
/// between instances by more than slices of one instance do, so a run that
/// measured a single instance would mostly report which mode it landed in.
fn run_untraced(name: &str, args: &Args) -> Outcome {
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut probes = Vec::new();
    let instances = if args.smoke { 1 } else { SETUPS };
    let seconds = if args.smoke {
        0.0
    } else {
        args.seconds / instances as f64
    };
    for _ in 0..instances {
        let start = Instant::now();
        let mut workload = build(name, args.seed);
        let warm = workload.slice(false);
        setups.push(start.elapsed().as_secs_f64());
        tally.attempted += warm.attempted;
        tally.failed += warm.failed;
        run_slices(workload.as_mut(), seconds, 1, false, &mut probes, |_, s| {
            tally.add(&s)
        });
    }
    tally.latencies_ns.sort_unstable();
    let lat = &tally.latencies_ns;
    // Times are stated at the reference host speed (see `probe`): a run on
    // a host that bounces a cache line 10 % slower reads 10 % lower.
    let speed = if probes.is_empty() {
        1.0
    } else {
        probe::REFERENCE_NS / median(&probes)
    };
    let measured = [
        ("setup_s", median(&setups), "s"),
        ("launch_p50_us", percentile(lat, 50.0) as f64 / 1e3, "us"),
        ("launch_p90_us", percentile(lat, 90.0) as f64 / 1e3, "us"),
        ("launches_per_s", median(&tally.launches_per_s), "1/s"),
        ("round_ns", median(&tally.round_ns), "ns"),
    ];
    let mut report = format!(
        "== {name}: {} launches in {} slices; host probe {:.1} ns, times x {speed:.4}\n",
        lat.len(),
        tally.slices,
        median(&probes),
    );
    let mut metrics = Vec::new();
    for (metric, raw, unit) in measured {
        let stated = if unit == "1/s" {
            raw / speed
        } else {
            raw * speed
        };
        report += &format!("{metric:<16} {raw:>14.3} {unit} as measured\n");
        metrics.push((metric.to_string(), stated, unit));
    }
    report += &quartile_line("launches_per_s", &tally.launches_per_s);
    report += &quartile_line("round_ns", &tally.round_ns);
    if let Some(p) = stat::highest_percentile(lat.len()) {
        report += &format!(
            "highest percentile with ten samples beyond it: p{p} = {:.1} us\n",
            percentile(lat, p) as f64 / 1e3
        );
    }
    Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        report,
    }
}

/// The traced run: the workload with spans on and off in alternating
/// slices, then the ladder; writes `out/trace.<workload>.json`.
fn run_traced(name: &str, args: &Args, host: &Value) -> Outcome {
    ladder::Ladder::calibrate();
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut tally = Tally::default();
    let mut workload = build(name, args.seed);
    tally.add(&workload.slice(false));
    tally.latencies_ns.clear();

    let mut trace = Trace::with_capacity(1 << 20);
    let mut all: Vec<LaunchObs> = Vec::new();
    // Median latency per slice, spans off (even slices) and on (odd).
    let mut slice_p50_ns: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let seconds = if args.smoke {
        0.0
    } else {
        args.seconds * TRACED_WORKLOAD_SHARE
    };
    let mut probes = Vec::new();
    run_slices(workload.as_mut(), seconds, 2, true, &mut probes, |i, s| {
        tally.add(&s);
        let mut lat: Vec<u64> = s.obs.iter().map(LaunchObs::latency_ns).collect();
        lat.sort_unstable();
        slice_p50_ns[i % 2].push(percentile(&lat, 50.0) as f64);
        if i % 2 == 1 {
            s.obs.iter().for_each(|o| trace.record(o));
        }
        all.extend(s.obs);
    });
    values.insert("service.shards_live".into(), workload.shards_live() as f64);
    drop(workload);

    // Read the layers' own accounts of the workload's launches.
    let rounds: f64 = all.iter().map(|o| o.stats.rounds as f64).sum();
    let per_round = |f: fn(&LaunchObs) -> f64| all.iter().map(f).sum::<f64>() / rounds.max(1.0);
    let pooled: Vec<&LaunchObs> = all.iter().filter(|o| o.stats.pool.is_some()).collect();
    let pool_mean = |f: fn(&blocksync_core::PoolLaunchStats) -> f64| {
        let sum: f64 = pooled
            .iter()
            .filter_map(|o| o.stats.pool.as_deref())
            .map(f)
            .sum();
        sum / pooled.len().max(1) as f64
    };
    let t_o: Vec<f64> = all
        .iter()
        .map(|o| o.stats.launch.as_nanos() as f64 / 1e3)
        .collect();
    values.insert("launch.t_o_us".into(), median(&t_o));
    values.insert(
        "launch.t_c_ns_round".into(),
        per_round(|o| o.stats.avg_compute().as_nanos() as f64),
    );
    values.insert(
        "launch.t_s_ns_round".into(),
        per_round(|o| o.stats.avg_sync().as_nanos() as f64),
    );
    // Eq. 1 says wall = t_O + t_C + t_S; what is left once queueing is
    // taken out is hand-off and teardown the equation has no term for.
    let wall: f64 = all.iter().map(|o| o.stats.wall.as_nanos() as f64).sum();
    let explained: f64 = all
        .iter()
        .map(|o| o.chain_ns().iter().sum::<u64>() as f64)
        .sum();
    values.insert(
        "launch.eq1_gap_pct".into(),
        100.0 * (wall - explained) / wall.max(1.0),
    );
    values.insert(
        "runtime.queued_us".into(),
        pool_mean(|p| p.queued.as_nanos() as f64 / 1e3),
    );
    values.insert(
        "runtime.queue_depth".into(),
        pool_mean(|p| p.queue_depth as f64),
    );
    values.insert("service.rejected".into(), tally.rejected as f64);
    tally.latencies_ns.sort_unstable();
    let lat = &tally.latencies_ns;
    values.insert("launch_p99_us".into(), percentile(lat, 99.0) as f64 / 1e3);
    values.insert("launch_p999_us".into(), percentile(lat, 99.9) as f64 / 1e3);
    values.insert("launch_samples".into(), lat.len() as f64);
    let self_times = trace.self_times();
    values.insert("closure.gap_pct".into(), self_times.closure_gap_pct());
    let [off, on] = [median(&slice_p50_ns[0]), median(&slice_p50_ns[1])];
    values.insert(
        "trace.overhead_pct".into(),
        100.0 * (on - off) / off.max(1.0),
    );

    // Climb the ladder for the rest of the time; a rung is the median of
    // its passes.
    let mut ladder = ladder::Ladder::new(args.seed);
    let mut rungs: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let deadline = Instant::now()
        + Duration::from_secs_f64(if args.smoke {
            0.0
        } else {
            args.seconds * (1.0 - TRACED_WORKLOAD_SHARE)
        });
    let mut passes = 0;
    loop {
        probes.extend(probe::pingpong_ns());
        for (name, v) in ladder.pass() {
            rungs.entry(name).or_default().push(v);
        }
        passes += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    values.extend(rungs.iter().map(|(name, v)| (name.clone(), median(v))));
    values.insert("host.pingpong_ns".into(), median(&probes));

    let file = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace.{name}.json"));
    let written = std::fs::create_dir_all(file.parent().expect("joined above")).and_then(|()| {
        let doc = trace.chrome_json(host.clone(), TRACE_FILE_SPANS);
        std::fs::write(&file, doc.to_string())
    });
    let mut report = format!(
        "== {name} traced: {} launches, {} spans ({} parent overruns), {passes} ladder passes\n",
        all.len(),
        trace.spans.len(),
        self_times.violations
    );
    report += &self_times.table();
    report += &match written {
        Ok(()) => format!("wrote {}\n", file.display()),
        Err(e) => format!("could not write {}: {e}\n", file.display()),
    };
    // A rung whose launch failed reported nothing: it reads 0 and counts
    // as a failure.
    let mut unmeasured = 0;
    let metrics = metrics::per_layer()
        .into_iter()
        .map(|d| {
            let v = values.get(&d.name).copied().filter(|v| v.is_finite());
            unmeasured += usize::from(v.is_none());
            (d.name, v.unwrap_or(0.0), d.unit)
        })
        .collect();
    let failed = tally.failed + ladder.failed + self_times.violations as usize + unmeasured;
    Outcome {
        correct: failed == 0,
        attempted: tally.attempted + ladder.attempted,
        failed,
        metrics,
        report,
    }
}

/// `host` is the fingerprint a traced run stamps into its trace file.
pub fn run_workload(name: &str, args: &Args, host: &Value) -> Outcome {
    if args.trace {
        run_traced(name, args, host)
    } else {
        run_untraced(name, args)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    pin::init();
    if args.command == "repeat" {
        return repeat::run(&args);
    }
    let host = host_fingerprint(&args);
    println!("{}", Value::obj([("host", host.clone())]));
    let names: Vec<&str> = match args.workload.as_str() {
        "all" => workloads::NAMES.to_vec(),
        one => vec![one],
    };
    let mut ok = true;
    for name in names {
        let outcome = run_workload(name, &args, &host);
        print!("{}", outcome.report);
        for (metric, value, unit) in &outcome.metrics {
            println!("  {metric:<34} {value:>14.3} {unit}");
        }
        ok &= outcome.correct;
        let mut line = outcome.json();
        if args.workload == "all" {
            if let Value::Obj(fields) = &mut line {
                fields.insert(0, ("workload".into(), Value::str(name)));
            }
        }
        println!("{line}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests;
