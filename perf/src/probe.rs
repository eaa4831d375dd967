//! The host-speed probe: one cache line bounced between two pinned threads.
//!
//! The reference VM's speed drifts by ±15 % over minutes (neighbours, core
//! placement, uncore clocks), and every workload here drifts with it: over
//! sixty 8-second runs the probe's median correlated with each workload's
//! `round_ns` and `launch_p50_us` at r = 0.76–0.95, and dividing by it cut
//! their ten-run spread from 0.09–0.25 to 0.04–0.14 (the README has the
//! table). No amount of averaging inside one run removes a drift slower
//! than the run, so the untraced run takes a probe around every slice and
//! reports its times at the reference host speed: `measured ×
//! REFERENCE_NS ÷ median probe`. The probe calls nothing of the program
//! under test, so no change to the program can move it.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use crate::pin::{cores, pin_current};

/// A round figure inside the 124–171 ns the probe has read on the 2-vCPU
/// reference host; end-to-end times are stated at this speed.
pub const REFERENCE_NS: f64 = 150.0;

/// Untimed round trips first, so that thread start-up and cold lines stay
/// out of the reading.
const WARM_UP: u32 = 500;
const ROUND_TRIPS: u32 = 3_000;

/// ns per round trip of a flag between CPU slots 0 and 1 (≈ 0.5 ms in all),
/// or `None` on a single core, where two spinning threads only measure the
/// scheduler's timeslice.
pub fn pingpong_ns() -> Option<f64> {
    if cores() < 2 {
        return None;
    }
    let flag = AtomicU32::new(0);
    let gate = Barrier::new(2);
    // Release/Acquire on one flag: each side publishes its turn and waits
    // for the other's.
    let wait_for = |turn: u32| {
        while flag.load(Ordering::Acquire) != turn {
            std::hint::spin_loop();
        }
    };
    let per_trip = std::thread::scope(|scope| {
        scope.spawn(|| {
            pin_current(1);
            gate.wait();
            for i in 0..WARM_UP + ROUND_TRIPS {
                wait_for(2 * i + 1);
                flag.store(2 * i + 2, Ordering::Release);
            }
        });
        // The timing side runs on a thread of its own too, so the caller's
        // thread is never pinned.
        let timer = scope.spawn(|| {
            pin_current(0);
            gate.wait();
            let mut start = Instant::now();
            for i in 0..WARM_UP + ROUND_TRIPS {
                if i == WARM_UP {
                    start = Instant::now();
                }
                flag.store(2 * i + 1, Ordering::Release);
                wait_for(2 * i + 2);
            }
            start.elapsed().as_nanos() as f64 / f64::from(ROUND_TRIPS)
        });
        timer.join().expect("probe thread panicked")
    });
    Some(per_trip)
}
