//! # blocksync-core
//!
//! A **persistent-kernel host runtime** implementing the inter-block GPU
//! barrier synchronization strategies of Xiao & Feng (*Inter-Block GPU
//! Communication via Fast Barrier Synchronization*, IPDPS 2010) with real
//! atomics.
//!
//! ## The mapping
//!
//! On the paper's GTX 280, a *grid-wide* (inter-block) barrier is only safe
//! when at most one block runs per SM, because blocks are non-preemptive.
//! That one-block-per-SM persistent-kernel discipline maps exactly onto a
//! host machine: **each thread block becomes one OS thread**, global memory
//! becomes a shared heap ([`GlobalBuffer`]), and the paper's device-side
//! barriers become user-space spin barriers over [`std::sync::atomic`]:
//!
//! | Paper (CUDA, device side)                | Here (host runtime)            |
//! |------------------------------------------|--------------------------------|
//! | thread block resident on one SM          | one OS worker thread           |
//! | global memory + volatile reads           | [`GlobalBuffer`] (relaxed atomics) |
//! | `__gpu_sync(goalVal)`, one listing per method | [`program`]: one function per method visiting its [`program::Op`]s, executed on atomics behind [`BarrierShared::sync`]`(block, round)` |
//! | the register holding `goalVal`           | the round loop's `r`, or a [`BarrierWaiter`] |
//! | `g_mutex`, `Arrayin[i]`, `Arrayout[i]`, ... | [`program::Word`]s: one padded `AtomicU64` each, sized from `N` |
//! | `atomicAdd(&g_mutex, 1)` + spin          | [`SyncMethod::GpuSimple`]      |
//! | per-group mutexes + root mutex           | [`SyncMethod::GpuTree`] over a [`TreeShape`] |
//! | `Arrayin`/`Arrayout`, no atomics         | [`SyncMethod::GpuLockFree`]    |
//! | kernel relaunch + `cudaThreadSynchronize`| [`SyncMethod::CpuExplicit`]: one warm launch per round |
//! | pipelined kernel relaunch                | [`SyncMethod::CpuImplicit`]: one warm launch per round, all queued at submit |
//! | `__syncthreads()`                        | no-op (a block is sequential here) |
//!
//! The barrier *algorithms* are machine-independent shared-memory protocols;
//! running them on CPU atomics validates their correctness (deadlock
//! freedom, no lost rounds, memory-ordering safety under `Acquire`/`Release`)
//! and reproduces the relative scaling shapes: a single contended counter
//! (linear), a combining tree (sub-linear), and per-block flags (flat).
//! Cycle-approximate *GPU* timing is the job of the `blocksync-sim` crate.
//!
//! ## Launching
//!
//! Every launch in a process runs on its one device of `max(2, cores)`
//! workers, as a CUDA process has one context on its GPU: only the
//! process's first launch pays their spawns in its `t_O` (Eq. 1). A
//! [`LaunchPlan`] compiles a grid and a method once (`Auto` resolves
//! here), and each `run` is a fresh grid on the device; a [`GridRuntime`]
//! keeps one grid for many launches, a [`GridService`] keeps many.
//!
//! ## Quick start
//!
//! ```
//! use blocksync_core::{GridConfig, LaunchPlan, RoundKernel, BlockCtx, SyncMethod, GlobalBuffer};
//!
//! /// Each round, every block adds 1 to its slot; after R rounds with a
//! /// correct grid barrier every slot holds R.
//! struct CountKernel {
//!     slots: GlobalBuffer<u32>,
//!     rounds: usize,
//! }
//!
//! impl RoundKernel for CountKernel {
//!     fn rounds(&self) -> usize {
//!         self.rounds
//!     }
//!     fn round(&self, ctx: &BlockCtx, _round: usize) {
//!         let b = ctx.block_id;
//!         self.slots.set(b, self.slots.get(b) + 1);
//!     }
//! }
//!
//! let cfg = GridConfig::new(8, 64);
//! let kernel = CountKernel { slots: GlobalBuffer::new(8), rounds: 100 };
//! let stats = LaunchPlan::compile(cfg, SyncMethod::GpuLockFree)
//!     .and_then(|plan| plan.run(&kernel))
//!     .unwrap();
//! assert_eq!(stats.rounds, 100);
//! assert!(kernel.slots.to_vec().iter().all(|&v| v == 100));
//! ```

#![warn(missing_docs)]

pub mod autotune;
pub mod barrier;
pub mod chaos;
pub mod error;
pub mod executor;
pub mod fault;
pub mod gmem;
mod implicit;
mod interp;
pub mod launch;
pub mod method;
pub mod metrics;
pub mod obs;
pub mod program;
pub mod runtime;
pub mod scalar;
pub mod service;
pub mod stats;
pub mod trace;
pub mod tree;

pub use autotune::{AutoDecision, AutoTuner, MethodPrediction};
pub use barrier::{
    BarrierControl, BarrierShared, BarrierWaiter, PoisonCause, SyncFault, SyncPolicy,
};
pub use chaos::{ChaosConfig, ChaosLaunch, ChaosReport};
pub use error::{ExecError, ServiceError, StuckDiagnostic, StuckPhase};
pub use executor::{AbortSignal, BlockCtx, GridConfig, RoundKernel};
pub use fault::{
    stall_duration, Fault, FaultInjector, FaultKind, FaultPhase, FaultProfile, FaultSchedule,
};
pub use gmem::{GlobalBuffer, Window};
pub use launch::LaunchPlan;
pub use method::{SyncMethod, TreeLevels};
pub use metrics::Histogram;
pub use obs::{LaunchRecord, MetricsSnapshot, Observer, DEFAULT_SHARD, FLIGHT_RECORDER_CAPACITY};
pub use runtime::{GridRuntime, LaunchHandle, PoolLaunchStats};
pub use scalar::DeviceScalar;
pub use service::{GridService, ServiceConfig, ServiceHandle, ShardKey};
pub use stats::{BlockTimes, KernelStats};
pub use trace::{
    ChromeTraceBuilder, RoundTelemetry, Telemetry, TraceConfig, TraceEvent, TraceEventKind,
};
pub use tree::TreeShape;
