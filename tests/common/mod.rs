//! Helpers shared by the integration tests.

use std::process::Command;

/// Names the one test a child process of a test binary runs in place.
const FRESH: &str = "BLOCKSYNC_FRESH_PROCESS_TEST";

/// Run `body`, the test named `test`, as the only test of a fresh process
/// of this test binary. Every launch in a process runs on its one device,
/// which the binary's other tests share when they run beside it; in its own
/// process `body` makes the process's first launch, and the device-wide
/// numbers it reads (sequence, generations, parked workers) are its alone.
pub fn in_fresh_process(test: &str, body: impl FnOnce()) {
    if std::env::var_os(FRESH).is_some_and(|t| t == test) {
        return body();
    }
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args([test, "--exact", "--test-threads=1", "--nocapture"])
        .env(FRESH, test)
        .output()
        .expect("spawning the test binary");
    let log = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.status.success(), "{test} in its own process:\n{log}");
    assert!(
        log.contains("1 passed"),
        "{test} did not run in its own process:\n{log}"
    );
}
