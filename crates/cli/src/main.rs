//! `blocksync` — command-line interface to the persistent-kernel runtime
//! and the GTX 280 simulator.
//!
//! ```text
//! blocksync simulate --method gpu-lock-free --blocks 30 --rounds 10000 --compute-us 0.5
//! blocksync sort     --n 65536 --blocks 8 --method lock-free
//! blocksync align    --len 600 --mutation 0.05 --blocks 6 [--global] [--band 16]
//! blocksync fft      --log-n 12 --blocks 6 [--inverse]
//! blocksync scan     --n 100000 --blocks 4
//! blocksync micro    --blocks 4 --rounds 2000 [--trace out.json] [--metrics]
//! blocksync trace    --blocks 4 --rounds 200 --method lock-free
//! blocksync chaos    --launches 200 --fault-rate 0.25 --seed 42 [--service | --shards ...]
//! blocksync serve    --clients 8 --launches 32 --rounds 50
//! blocksync metrics  --launches 16 --blocks 4 --rounds 200
//! ```
//!
//! Every subcommand prints what it verified, what it measured, and (for
//! `simulate`) the paper-model decomposition.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0] == "--help" || raw[0] == "help" {
        print_usage();
        return ExitCode::SUCCESS;
    }
    let parsed = args::Args::parse(raw);
    let command = parsed.positional.first().cloned().unwrap_or_default();
    let result = match command.as_str() {
        "simulate" => commands::simulate(&parsed),
        "sort" => commands::sort(&parsed),
        "align" => commands::align(&parsed),
        "fft" => commands::fft(&parsed),
        "scan" => commands::scan(&parsed),
        "micro" => commands::micro(&parsed),
        "trace" => commands::trace(&parsed),
        "tune" => commands::tune(&parsed),
        "chaos" => commands::chaos(&parsed),
        "serve" => commands::serve(&parsed),
        "metrics" => commands::metrics(&parsed),
        other => Err(format!("unknown command {other:?}; run `blocksync help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "blocksync — inter-block GPU barrier synchronization (Xiao & Feng, IPDPS 2010)

USAGE:
  blocksync <command> [--flags]

COMMANDS:
  simulate   simulate a round-structured kernel on the GTX 280 model
             --method M --blocks N --rounds R --compute-us C [--trace]
  sort       bitonic-sort random keys on the host runtime
             --n KEYS --blocks N --method M [--batch B]
  align      Smith-Waterman (or --global Needleman-Wunsch) two related
             DNA sequences      --len L --mutation P --blocks N [--band W]
  fft        forward (or --inverse) FFT of a random signal
             --log-n K --blocks N --method M
  scan       grid-wide inclusive prefix sum
             --n LEN --blocks N --method M
  micro      the paper's Section 5.4 micro-benchmark on the host runtime
             --blocks N --rounds R --method M
  trace      micro-benchmark with the telemetry plane on: per-round
             arrival-skew/straggler table plus spin/sync histograms
             --blocks N --rounds R --method M [--stride S] [--limit K]
             [--out FILE]
  tune       the auto-tuner's table and pick for a grid size: measured on
             this machine (--profile host, the default), or priced by the
             Eq. 6-9 cost model with the method crossover points
             (--profile gtx280|fermi)
             --blocks N [--profile host|gtx280|fermi]
             model profiles only: [--max-gpu-blocks B] [--max-n N]
  chaos      chaos soak: pipelined launches through live pooled shards
             where a fraction carry seeded-random fault schedules (panics,
             delays, stragglers, stalls — in round bodies, barrier waits,
             or pooled assembly); asserts errors name the cause, each
             shard self-heals, clean launches stay bit-identical, and
             every shard still serves afterwards. Prints the seed for
             repro. One driver, three ways to name its shards: one shard
             (a standalone pool) from --method M --blocks B --tpb T, a
             list from --shards BxT/METHOD,..., or --service for the
             default 3 mixed shapes.
             --launches N --fault-rate F --seed S --rounds R [--window W]
             [--sync-timeout SECS] [--json FILE] [--postmortem-dir DIR]
  serve      barrier-as-a-service demo: one GridService fronting several
             shard shapes, hammered by concurrent client threads through
             the bounded admission plane (per-shard queues, per-tenant
             quotas, blocking submit with deadline); prints the per-shard
             traffic table
             --clients N --launches PER_CLIENT --rounds R
             [--shards BxT/METHOD,...] [--queue-capacity Q] [--quota K]
             [--deadline SECS] [--idle-ttl-ms MS] [--metrics-out FILE]
  metrics    exercise the observability plane: a window of pipelined
             pooled launches through one runtime, then the cross-launch
             metrics registry in Prometheus text format (per-method
             submit-to-stats latency, warm/cold/failure counters, queue
             depth)
             --launches N --blocks B --rounds R --method M [--window W]
             [--metrics-out FILE]

COMMON FLAGS:
  --sync-timeout S   bound every barrier wait to S seconds (host-runtime
                     commands); a stuck or crashed block then fails the run
                     with a diagnostic naming it instead of hanging.
                     0 or absent = wait forever.
  --trace FILE       record a barrier timeline and write chrome://tracing
                     JSON to FILE (host-runtime commands; open it via
                     chrome://tracing or https://ui.perfetto.dev). On
                     `simulate`, bare --trace prints the first simulator
                     events and --trace FILE also exports the timeline.
  --metrics          print aggregate telemetry after the run: spin polls
                     per wait, sync time per block per round, and arrival
                     skew per round (mean/p50/p99/max).
  --metrics-out F    write the cross-launch observability snapshot to F
                     after the run: `.json` gets the lossless JSON form,
                     anything else Prometheus text exposition (run/micro/
                     chaos/metrics commands).
  --postmortem-dir D (chaos) write a JSON postmortem per failed launch —
                     the flight-recorder record with the fault schedule,
                     stuck diagnostic, and recent trace events — into D.
  --json FILE        (chaos) serialize the full chaos report: per-launch
                     outcomes, fault schedules, generation deltas, and
                     the end-of-soak metrics snapshot.
  --trace-stride N   sample the timeline every Nth round (default 1).

METHODS:
  cpu-explicit cpu-implicit gpu-simple gpu-tree-2 gpu-tree-3 gpu-lock-free
  sense-reversing dissemination no-sync auto

  `auto` times every method once per block count per process and runs the
  cheapest one (see `blocksync tune`).

  sort/align/fft/scan/micro/trace launch cold: fresh block threads per run,
  the full t_O every time. Warm launches (resident workers, t_O paid once)
  are `metrics` and `serve`, or `GridRuntime`/`GridService` in code."
    );
}
