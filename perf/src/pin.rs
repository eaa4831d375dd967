//! Pin the program's block threads from the benchmark.
//!
//! The paper maps one block to one SM. On a host the analogue is one block
//! thread per core, but Linux is free to stack both workers of a 2-block
//! grid on one vCPU and keep them there for a whole process lifetime, which
//! flips a run between two modes (see the README for the numbers). The
//! runtime has no affinity API, so the benchmark pins from inside the
//! kernel: [`Pinned`] wraps a [`RoundKernel`] and, the first time a thread
//! runs one of its rounds, binds that thread to the CPU
//! `allowed[block_id % allowed.len()]`.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use blocksync_core::{AbortSignal, BlockCtx, FaultSchedule, RoundKernel};

static ENABLED: AtomicBool = AtomicBool::new(true);

thread_local! {
    /// Whether this thread already went through [`pin_current`].
    static PINNED: Cell<bool> = const { Cell::new(false) };
}

/// Turn pinning off (`--no-pin`) for the rest of the process.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether block threads are being pinned.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) && !allowed_cpus().is_empty()
}

/// `std::thread::available_parallelism()`: the `cores` of every workload
/// shape. Capped at the 30 persistent blocks `GridConfig`'s default device
/// admits for a spinning barrier.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(30))
}

/// The CPUs this process may run on, read once before any thread is pinned.
/// Empty where affinity is unsupported (pinning is then a no-op).
fn allowed_cpus() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(sys::allowed)
}

/// Read the affinity mask now, on the unpinned main thread.
pub fn init() {
    allowed_cpus();
}

/// Bind the calling thread to the CPU serving `slot` (a block id, or a
/// benchmark-owned thread's index). Idempotent per thread.
pub fn pin_current(slot: usize) {
    if PINNED.get() {
        return;
    }
    PINNED.set(true);
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let cpus = allowed_cpus();
    if let Some(&cpu) = cpus.get(slot % cpus.len().max(1)) {
        sys::pin_to(cpu);
    }
}

#[cfg(target_os = "linux")]
mod sys {
    /// Words of glibc's 1024-bit `cpu_set_t`.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the byte
        // size passed; pid 0 means the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&cpu| (mask[cpu / 64] >> (cpu % 64)) & 1 == 1)
            .collect()
    }

    pub fn pin_to(cpu: usize) {
        let mut mask = [0u64; WORDS];
        if cpu >= WORDS * 64 {
            return;
        }
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a live buffer of exactly the byte size passed;
        // pid 0 means the calling thread. A refusal leaves the thread
        // unpinned, which is only a noisier measurement.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }
    pub fn pin_to(_cpu: usize) {}
}

/// A kernel whose block threads pin themselves on their first round.
pub struct Pinned<K>(pub K);

impl<K: RoundKernel> RoundKernel for Pinned<K> {
    fn rounds(&self) -> usize {
        self.0.rounds()
    }

    fn round(&self, ctx: &BlockCtx, round: usize) {
        // Checked every round, not only in round 0: CPU-explicit spawns
        // fresh threads per round. One thread-local read when already set.
        pin_current(ctx.block_id);
        self.0.round(ctx, round)
    }

    fn on_launch(&self, abort: &AbortSignal) {
        self.0.on_launch(abort)
    }

    fn fault_schedule(&self) -> Option<FaultSchedule> {
        self.0.fault_schedule()
    }
}
