//! The many-core scaling study (the paper's future work): how do the
//! barrier designs behave as GTX-280-class devices grow from 30 to 240 SMs
//! (with bandwidth and memory partitions scaled proportionally)?
//!
//! Expectation from the cost models: simple sync degrades linearly
//! (Eq. 6), the trees sub-linearly (Eq. 7), lock-free stays nearly flat
//! (Eq. 9) until collector-side partition traffic bites, and the
//! dissemination extension grows logarithmically.
//!
//! Flags for bench-in-CI: `--json FILE` writes every cell as a
//! `sim:scaling/<method>` baseline record (deterministic, so guarded);
//! `--baseline FILE` fails nonzero when a cell drifted either way.

use std::process::ExitCode;

use blocksync_bench::baseline::{self, BenchRecord};
use blocksync_bench::experiments::scaling_study;
use blocksync_bench::harness::{format_table, us};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    println!("Barrier cost per round (us) on scaled GTX-280-class devices\n");
    let rows_data = scaling_study();
    let headers: Vec<String> = std::iter::once("SMs".to_string())
        .chain(rows_data[0].per_method.iter().map(|(m, _)| m.to_string()))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|row| {
            std::iter::once(row.sms.to_string())
                .chain(row.per_method.iter().map(|&(_, t)| us(t)))
                .collect()
        })
        .collect();
    println!("{}", format_table(&headers_ref, &rows));
    println!("The lock-free design's block-count independence is what lets grid-wide");
    println!("synchronization survive the many-core scaling the paper anticipated.");

    let records: Vec<BenchRecord> = rows_data
        .iter()
        .flat_map(|row| {
            row.per_method.iter().map(|&(m, t)| {
                BenchRecord::new(format!("sim:scaling/{m}"), row.sms, t.as_nanos() as f64)
            })
        })
        .collect();
    if let Err(e) = baseline::write_and_guard(&args, &records, None) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
