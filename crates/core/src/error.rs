//! Structured execution errors for the host runtime.
//!
//! Before this module existed, a panicking block tore down the whole process
//! (`join().expect(...)`) and a stuck block hung it forever. Every failure
//! mode of a launch ([`crate::LaunchPlan::run`] and the warm launchers
//! alike) now surfaces as an [`ExecError`]
//! naming the offending block and round, within the configured
//! [`crate::SyncPolicy`] timeout.

use std::fmt;
use std::time::Duration;

use blocksync_device::json::Json;
use blocksync_device::DeviceError;

/// Which phase of a launch a [`StuckDiagnostic`] was taken in.
///
/// Almost every timeout is a [`StuckPhase::Barrier`] wait (or
/// CPU-explicit sync's join of a round); the pool adds an earlier failure
/// window — [`StuckPhase::Assembly`], the start gate where workers
/// rendezvous before round 0. Reporting the phase keeps an assembly-stuck
/// worker from masquerading as a round-0 body fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StuckPhase {
    /// Stuck inside a barrier wait, or a CPU-explicit round's join (the
    /// default).
    #[default]
    Barrier,
    /// Stuck assembling at the pooled runtime's launch gate, before any
    /// round of the launch ran.
    Assembly,
}

impl fmt::Display for StuckPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StuckPhase::Barrier => "barrier",
            StuckPhase::Assembly => "assembly",
        })
    }
}

/// Per-block progress snapshot taken when a barrier wait gives up.
///
/// `arrivals[b]` is how many barrier rounds block `b` had *entered* and
/// `departures[b]` how many it had *completed* at snapshot time; a block
/// whose arrival count is behind the waiting block's round never reached the
/// barrier (it is the straggler), while one that arrived but has not
/// departed is itself a victim waiting for release.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StuckDiagnostic {
    /// Barrier implementation name (e.g. `"gpu-lock-free"`).
    pub barrier: String,
    /// The block whose wait expired.
    pub waiting_block: usize,
    /// The barrier round (0-based) that block was waiting to complete.
    pub round: usize,
    /// Which flag/condition the block was spinning on, human-readable
    /// (e.g. `"Arrayout[3] >= 7"`).
    pub flag: String,
    /// The timeout that expired.
    pub timeout: Duration,
    /// Barrier rounds entered, per block.
    pub arrivals: Vec<u64>,
    /// Barrier rounds completed, per block.
    pub departures: Vec<u64>,
    /// The last few trace events of the primary straggler (rendered
    /// human-readable), when the run had tracing enabled — what the stuck
    /// block was *doing*, not just where it stopped. Empty without a trace.
    pub recent_events: Vec<String>,
    /// Which launch phase the wait was stuck in (see [`StuckPhase`]).
    pub phase: StuckPhase,
}

impl StuckDiagnostic {
    /// Blocks that had not yet entered round `self.round`'s barrier — the
    /// stragglers every arrived block was waiting for.
    pub fn stragglers(&self) -> Vec<usize> {
        self.arrivals
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a <= self.round as u64)
            .map(|(b, _)| b)
            .collect()
    }

    /// The diagnostic as the `diagnostic` object of a postmortem
    /// ([`crate::LaunchRecord::to_json`]).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("barrier", self.barrier.as_str().into()),
            ("waiting_block", self.waiting_block.into()),
            ("round", self.round.into()),
            ("flag", self.flag.as_str().into()),
            ("timeout_ns", crate::obs::dur_ns(self.timeout).into()),
            ("phase", format!("{:?}", self.phase).into()),
            ("stragglers", Json::arr(self.stragglers())),
            ("arrivals", Json::arr(self.arrivals.iter().copied())),
            ("departures", Json::arr(self.departures.iter().copied())),
            (
                "recent_events",
                Json::arr(self.recent_events.iter().map(String::as_str)),
            ),
        ])
    }
}

impl fmt::Display for StuckDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.phase {
            StuckPhase::Barrier => write!(
                f,
                "block {} stuck at {} barrier round {} (spinning on {}) after {:?}; ",
                self.waiting_block, self.barrier, self.round, self.flag, self.timeout
            )?,
            StuckPhase::Assembly => write!(
                f,
                "block {} stuck in {} pooled assembly (before round 0, on {}) after {:?}; ",
                self.waiting_block, self.barrier, self.flag, self.timeout
            )?,
        }
        let stragglers = self.stragglers();
        if stragglers.is_empty() {
            write!(f, "all blocks arrived (release lost?)")?;
        } else {
            write!(f, "never arrived: {stragglers:?}")?;
        }
        write!(f, "; arrivals {:?}", self.arrivals)?;
        if !self.recent_events.is_empty() {
            write!(f, "; straggler trail: [{}]", self.recent_events.join(", "))?;
        }
        Ok(())
    }
}

/// Why a kernel execution failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The grid shape is invalid for the device/method (pre-flight check).
    Device(DeviceError),
    /// A block's kernel code panicked; peers were unwound via barrier
    /// poisoning instead of hanging.
    BlockPanicked {
        /// The block whose round panicked.
        block: usize,
        /// The round (0-based) in which it panicked.
        round: usize,
        /// Panic payload, if it was a string.
        message: String,
    },
    /// A barrier wait (or a CPU-explicit round's join) exceeded the
    /// configured [`crate::SyncPolicy`] timeout.
    BarrierTimeout {
        /// Who was stuck, where, and which peers never arrived. Boxed to
        /// keep the `Result` the hot path returns a couple of words wide.
        diagnostic: Box<StuckDiagnostic>,
    },
}

impl ExecError {
    /// Stable one-word failure class, used as the `kind` label on the
    /// observability plane's `launch_failures_total` counter (and in
    /// postmortem JSON). Unlike `Display`, these never embed per-failure
    /// details, so counts aggregate across launches.
    pub fn kind_label(&self) -> &'static str {
        match self {
            ExecError::Device(_) => "device",
            ExecError::BlockPanicked { .. } => "panic",
            ExecError::BarrierTimeout { .. } => "timeout",
        }
    }
}

impl From<DeviceError> for ExecError {
    fn from(e: DeviceError) -> Self {
        ExecError::Device(e)
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Device(e) => e.fmt(f),
            ExecError::BlockPanicked {
                block,
                round,
                message,
            } => {
                write!(f, "block {block} panicked in round {round}: {message}")
            }
            ExecError::BarrierTimeout { diagnostic } => {
                write!(f, "barrier timeout: {diagnostic}")
            }
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Device(e) => Some(e),
            _ => None,
        }
    }
}

/// Why a [`crate::GridService`] refused or failed a submission.
///
/// Admission failures ([`ServiceError::QueueFull`],
/// [`ServiceError::QuotaExceeded`], [`ServiceError::Deadline`]) are
/// *backpressure*: the work was never enqueued, and the caller may retry.
/// [`ServiceError::ShardLimit`] is final: the service has served its last
/// new key, and a retry is refused the same way. [`ServiceError::Exec`]
/// wraps a launch that was admitted but failed to execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The target shard's bounded submission queue is at capacity.
    QueueFull {
        /// Display name of the shard that refused the submission.
        shard: String,
        /// The configured per-shard queue capacity that was hit.
        capacity: usize,
    },
    /// The tenant already has its full quota of launches in flight.
    QuotaExceeded {
        /// The tenant whose quota was hit.
        tenant: String,
        /// The configured per-tenant in-flight quota.
        quota: usize,
    },
    /// A blocking submit waited out its deadline without admission.
    Deadline {
        /// Display name of the shard that stayed saturated.
        shard: String,
        /// How long the submitter waited before giving up.
        waited: Duration,
    },
    /// A new key needed a shard, but the service already serves its limit
    /// of keys.
    ShardLimit {
        /// The configured maximum number of shards.
        limit: usize,
    },
    /// The key's grid is invalid, or the admitted launch failed.
    Exec(ExecError),
}

impl ServiceError {
    /// Stable one-word rejection class, the `reason` label on the
    /// service's `service_rejections_total` counter.
    pub fn kind_label(&self) -> &'static str {
        match self {
            ServiceError::QueueFull { .. } => "queue-full",
            ServiceError::QuotaExceeded { .. } => "quota",
            ServiceError::Deadline { .. } => "deadline",
            ServiceError::ShardLimit { .. } => "shard-limit",
            ServiceError::Exec(_) => "exec",
        }
    }

    /// Whether this is an admission rejection that a retry may pass
    /// (backpressure), rather than a final refusal or an execution failure.
    pub fn is_backpressure(&self) -> bool {
        !matches!(
            self,
            ServiceError::Exec(_) | ServiceError::ShardLimit { .. }
        )
    }
}

impl From<ExecError> for ServiceError {
    fn from(e: ExecError) -> Self {
        ServiceError::Exec(e)
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::QueueFull { shard, capacity } => {
                write!(
                    f,
                    "shard {shard}: submission queue at capacity ({capacity})"
                )
            }
            ServiceError::QuotaExceeded { tenant, quota } => {
                write!(f, "tenant {tenant:?}: in-flight quota ({quota}) exhausted")
            }
            ServiceError::Deadline { shard, waited } => {
                write!(
                    f,
                    "shard {shard}: no admission within deadline (waited {waited:?})"
                )
            }
            ServiceError::ShardLimit { limit } => {
                write!(f, "service at its shard limit ({limit})")
            }
            ServiceError::Exec(e) => write!(f, "admitted launch failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag() -> StuckDiagnostic {
        StuckDiagnostic {
            barrier: "gpu-simple".into(),
            waiting_block: 0,
            round: 3,
            flag: "g_mutex >= 8".into(),
            timeout: Duration::from_millis(50),
            arrivals: vec![4, 3, 4, 4],
            departures: vec![3, 3, 3, 3],
            recent_events: Vec::new(),
            phase: StuckPhase::Barrier,
        }
    }

    #[test]
    fn stragglers_are_blocks_behind_the_round() {
        assert_eq!(diag().stragglers(), vec![1]);
    }

    #[test]
    fn display_names_block_round_and_stragglers() {
        let s = ExecError::BarrierTimeout {
            diagnostic: Box::new(diag()),
        }
        .to_string();
        assert!(s.contains("block 0"), "{s}");
        assert!(s.contains("round 3"), "{s}");
        assert!(s.contains("[1]"), "{s}");
        assert!(s.contains("g_mutex >= 8"), "{s}");
    }

    #[test]
    fn panic_display() {
        let s = ExecError::BlockPanicked {
            block: 2,
            round: 1,
            message: "kernel bug".into(),
        }
        .to_string();
        assert!(s.contains("block 2"), "{s}");
        assert!(s.contains("round 1"), "{s}");
        assert!(s.contains("kernel bug"), "{s}");
    }

    #[test]
    fn device_error_wraps_with_source() {
        use std::error::Error;
        let e = ExecError::from(DeviceError::EmptyLaunch);
        assert!(e.source().is_some());
        assert_eq!(e, ExecError::Device(DeviceError::EmptyLaunch));
    }

    #[test]
    fn display_appends_straggler_trail_when_present() {
        let mut d = diag();
        assert!(!d.to_string().contains("straggler trail"));
        d.recent_events = vec!["round-start r3".into(), "arrive r3".into()];
        let s = d.to_string();
        assert!(
            s.contains("straggler trail: [round-start r3, arrive r3]"),
            "{s}"
        );
    }

    #[test]
    fn assembly_phase_display_names_the_gate_not_a_round() {
        let mut d = diag();
        d.phase = StuckPhase::Assembly;
        d.round = 0;
        let s = d.to_string();
        assert!(s.contains("pooled assembly"), "{s}");
        assert!(s.contains("before round 0"), "{s}");
        assert!(!s.contains("barrier round"), "{s}");
    }

    #[test]
    fn all_arrived_reads_as_lost_release() {
        let mut d = diag();
        d.arrivals = vec![4, 4, 4, 4];
        assert!(d.stragglers().is_empty());
        assert!(d.to_string().contains("release lost"));
    }
}
