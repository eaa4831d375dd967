//! Execution statistics mirroring the paper's time decomposition.
//!
//! The paper splits kernel execution into launch + computation +
//! synchronization (Eq. 1) and derives all of its figures from that split.
//! [`KernelStats`] records the same decomposition for a host-runtime run:
//! per-block computation and synchronization times, plus total wall time.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use crate::autotune::AutoDecision;
use crate::trace::Telemetry;

/// Per-block time decomposition for one run.
///
/// A traced launch stamps every round, so its split is exact. An untraced
/// one reads the clock in one round in 16 and after every wait that
/// outlasted its 64-poll spin phase, so its split is that sample plus
/// those exact long waits (DESIGN.md §10); a straggler is attributed
/// exactly either way. CPU-explicit's join is always exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockTimes {
    /// Launch overhead attributed to the block (`t_O`): time from the
    /// launch's dispatch until the block began its first round.
    pub launch: Duration,
    /// Time the block spent inside kernel rounds (`t_C` aggregate): what
    /// is not `sync`, or, for a block sharing its worker with others, its
    /// own round bodies (untraced, the timed ones scaled to every round).
    pub compute: Duration,
    /// Time the block spent arriving at / waiting in barriers (`t_S`
    /// aggregate). Untraced, the waits timed exactly plus the mean timed
    /// short wait for each short one not timed; for a block sharing its
    /// worker, everything but its own bodies. Under the CPU methods, from
    /// the end of each round's body to the start of the next (Eqs. 3–4:
    /// the relaunch and the wait for the slowest block), the last until
    /// the host observed the launch.
    pub sync: Duration,
}

impl BlockTimes {
    /// launch + compute + sync — the paper's `t = t_O + t_C + t_S` (Eq. 1)
    /// for one block.
    pub fn total(&self) -> Duration {
        self.launch + self.compute + self.sync
    }
}

/// Statistics of one kernel execution under one synchronization method.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelStats {
    /// Human-readable method name (`SyncMethod` display form, or
    /// `auto:<method>` for a plan compiled from [`crate::SyncMethod::Auto`]).
    /// Computed once per plan and shared by every launch through it.
    pub method: Arc<str>,
    /// Number of blocks in the grid.
    pub n_blocks: usize,
    /// Barrier rounds executed.
    pub rounds: usize,
    /// End-to-end wall time of the run: launch overhead plus the in-round
    /// time of the slowest block (`wall ≈ launch + max_b(compute + sync)`,
    /// up to join/teardown noise).
    pub wall: Duration,
    /// The run's launch overhead (`t_O`): the largest per-block launch time
    /// — dispatch to assembly, including a pool's first-launch spawns.
    /// Kept out of the per-block `sync` figures so
    /// [`KernelStats::sync_per_round`] measures synchronization, not
    /// thread spawns, even on short runs.
    pub launch: Duration,
    /// Per-block decomposition, indexed by block id: exact for a traced
    /// launch, a 1-in-16 sample of rounds plus every long wait for an
    /// untraced one (see [`BlockTimes`]).
    pub per_block: Vec<BlockTimes>,
    /// Aggregated trace telemetry, present when the run was configured with
    /// a [`crate::TraceConfig`]. Boxed: it is large and most runs do not
    /// carry it.
    pub telemetry: Option<Box<Telemetry>>,
    /// The auto-tuner's decision record, present when the run was
    /// configured with [`crate::SyncMethod::Auto`]: chosen method, the full
    /// per-method cost table, and the table's vs. this run's per-round sync
    /// cost. Boxed for the same reason as `telemetry`.
    pub auto: Option<Box<AutoDecision>>,
    /// Pool-side launch accounting, `Some` for every run of the engine
    /// (every launch runs on the process's one device): launch sequence
    /// number (whence [`crate::PoolLaunchStats::is_cold`]), queue depth at
    /// submit and queueing delay.
    /// The warm launch overhead itself is [`KernelStats::launch`]. Boxed
    /// for the same reason as `telemetry`.
    pub pool: Option<Box<crate::runtime::PoolLaunchStats>>,
}

impl KernelStats {
    /// Mean per-block computation time.
    pub fn avg_compute(&self) -> Duration {
        mean(self.per_block.iter().map(|b| b.compute))
    }

    /// Mean per-block synchronization time.
    pub fn avg_sync(&self) -> Duration {
        mean(self.per_block.iter().map(|b| b.sync))
    }

    /// Maximum per-block synchronization time (the straggler view).
    pub fn max_sync(&self) -> Duration {
        self.per_block
            .iter()
            .map(|b| b.sync)
            .max()
            .unwrap_or_default()
    }

    /// Mean synchronization cost of one barrier round.
    pub fn sync_per_round(&self) -> Duration {
        if self.rounds == 0 {
            Duration::ZERO
        } else {
            self.avg_sync() / self.rounds as u32
        }
    }

    /// Fraction of (compute + sync) time spent synchronizing — the paper's
    /// Figure 15 metric (`1 - rho`).
    pub fn sync_fraction(&self) -> f64 {
        let c = self.avg_compute().as_secs_f64();
        let s = self.avg_sync().as_secs_f64();
        if c + s == 0.0 {
            0.0
        } else {
            s / (c + s)
        }
    }

    /// The paper's `rho = t_C / T` — fraction of time spent computing.
    pub fn rho(&self) -> f64 {
        1.0 - self.sync_fraction()
    }
}

impl fmt::Display for KernelStats {
    /// One-line summary: method, grid, rounds, wall, and the compute/sync
    /// split — convenient for examples and ad-hoc printing.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} blocks x {} rounds in {:.3} ms (launch {:.3} ms, compute {:.3} ms, sync {:.3} ms, {:.1}% sync)",
            self.method,
            self.n_blocks,
            self.rounds,
            self.wall.as_secs_f64() * 1e3,
            self.launch.as_secs_f64() * 1e3,
            self.avg_compute().as_secs_f64() * 1e3,
            self.avg_sync().as_secs_f64() * 1e3,
            self.sync_fraction() * 100.0
        )
    }
}

fn mean(iter: impl Iterator<Item = Duration>) -> Duration {
    let mut sum = Duration::ZERO;
    let mut n = 0u32;
    for d in iter {
        sum += d;
        n += 1;
    }
    if n == 0 {
        Duration::ZERO
    } else {
        sum / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(per_block: Vec<BlockTimes>, rounds: usize) -> KernelStats {
        KernelStats {
            method: "test".into(),
            n_blocks: per_block.len(),
            rounds,
            wall: Duration::from_millis(10),
            launch: per_block.iter().map(|b| b.launch).max().unwrap_or_default(),
            per_block,
            telemetry: None,
            auto: None,
            pool: None,
        }
    }

    #[test]
    fn block_times_total() {
        let b = BlockTimes {
            launch: Duration::from_millis(1),
            compute: Duration::from_millis(3),
            sync: Duration::from_millis(2),
        };
        assert_eq!(b.total(), Duration::from_millis(6));
    }

    #[test]
    fn launch_is_separate_from_sync() {
        // Regression for the doc/behaviour mismatch: launch overhead must
        // not leak into the per-round sync figure.
        let s = stats(
            vec![BlockTimes {
                launch: Duration::from_millis(8),
                compute: Duration::from_millis(2),
                sync: Duration::from_millis(4),
            }],
            4,
        );
        assert_eq!(s.launch, Duration::from_millis(8));
        assert_eq!(s.sync_per_round(), Duration::from_millis(1));
        // sync_fraction considers only in-round time.
        assert!((s.sync_fraction() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn averages_over_blocks() {
        let s = stats(
            vec![
                BlockTimes {
                    launch: Duration::ZERO,
                    compute: Duration::from_millis(2),
                    sync: Duration::from_millis(2),
                },
                BlockTimes {
                    launch: Duration::ZERO,
                    compute: Duration::from_millis(4),
                    sync: Duration::from_millis(6),
                },
            ],
            4,
        );
        assert_eq!(s.avg_compute(), Duration::from_millis(3));
        assert_eq!(s.avg_sync(), Duration::from_millis(4));
        assert_eq!(s.max_sync(), Duration::from_millis(6));
        assert_eq!(s.sync_per_round(), Duration::from_millis(1));
        assert!((s.sync_fraction() - 4.0 / 7.0).abs() < 1e-12);
        assert!((s.rho() - 3.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_one_line_summary() {
        let s = stats(
            vec![BlockTimes {
                launch: Duration::ZERO,
                compute: Duration::from_millis(2),
                sync: Duration::from_millis(2),
            }],
            4,
        );
        let line = s.to_string();
        assert!(line.contains("test: 1 blocks x 4 rounds"));
        assert!(line.contains("50.0% sync"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn empty_and_zero_round_edge_cases() {
        let s = stats(vec![], 0);
        assert_eq!(s.avg_compute(), Duration::ZERO);
        assert_eq!(s.avg_sync(), Duration::ZERO);
        assert_eq!(s.max_sync(), Duration::ZERO);
        assert_eq!(s.sync_per_round(), Duration::ZERO);
        assert_eq!(s.sync_fraction(), 0.0);
        assert_eq!(s.rho(), 1.0);
    }
}
