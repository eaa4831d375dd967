//! # blocksync-sim
//!
//! A deterministic **discrete-event simulator** of a GTX-280-class GPU
//! executing persistent kernels with inter-block barrier synchronization.
//!
//! This is the substitute for the paper's hardware testbed (see DESIGN.md):
//! we cannot run device-side spin barriers from Rust on a 2008 GPU, so we
//! simulate the machine resources those barriers contend for and *execute
//! the protocols* against them:
//!
//! * **Memory partitions** ([`memory`]): every global-memory operation —
//!   atomic read-modify-write, store, and spin-poll read — occupies the
//!   FIFO server of the partition owning its address. Atomics to one
//!   mutex variable therefore serialize (the paper's `N * t_a` term of
//!   Eq. 6), and spin polls of that variable queue behind them (the
//!   paper's "more checking operations" effect that pushes the tree
//!   thresholds above their idealized values).
//! * **Protocol programs** ([`blocksync_core::program`]): the per-block,
//!   per-round operation sequences of GPU simple, tree-based (2- and
//!   3-level), and lock-free synchronization, transcribed from the paper's
//!   Figures 6, 8 and 9 — the same sequences the host runtime executes on
//!   real atomics. Values genuinely flow through simulated memory —
//!   counters count, flags flip; the barrier completes when the protocol
//!   says so, not when a formula says so.
//! * **The engine** ([`engine`]): an event queue over virtual time
//!   ([`blocksync_device::SimTime`]) interleaving block compute phases
//!   (from a [`Workload`]) with barrier protocol execution, accounting
//!   computation and synchronization time per block exactly as the
//!   paper's model (Eq. 5) demands.
//! * **CPU synchronization** ([`cpu`]): the explicit / implicit kernel
//!   relaunch timelines of Eqs. 3–4 (launch pipelining included).
//!
//! The entry point is [`simulate`], configured by [`SimConfig`] and a
//! [`Workload`]; results come back as a [`SimReport`].
//!
//! ```
//! use blocksync_core::SyncMethod;
//! use blocksync_sim::{simulate, ConstWorkload, SimConfig};
//!
//! // The paper's micro-benchmark shape: constant compute per round.
//! let workload = ConstWorkload::from_micros(0.5, 100);
//! let cfg = SimConfig::new(30, 448, SyncMethod::GpuLockFree);
//! let report = simulate(&cfg, &workload);
//! assert_eq!(report.rounds, 100);
//! assert!(report.sync_time().as_nanos() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod engine;
pub mod memory;
mod program;
pub mod report;
pub mod workload;

pub use engine::{simulate, try_simulate, SimConfig, SimError, StuckBlock};
pub use report::{SimReport, TraceEvent, TraceKind};
pub use workload::{ClosureWorkload, ConstWorkload, Workload};
