//! # blocksync
//!
//! Umbrella crate for the reproduction of **Xiao & Feng, "Inter-Block GPU
//! Communication via Fast Barrier Synchronization" (IPDPS 2010)**.
//!
//! Re-exports the workspace crates under one roof:
//!
//! * [`core`] — the persistent-kernel host runtime and the paper's five
//!   synchronization strategies over real atomics.
//! * [`sim`] — a deterministic discrete-event simulator of the GTX 280
//!   executing the same protocols (regenerates the paper's figures).
//! * [`model`] — the analytic execution-time and speedup model (Eqs. 1–9).
//! * [`algos`] — FFT, Smith-Waterman, and bitonic sort on the grid-barrier
//!   programming model, with sequential references.
//! * [`microbench`] — the Section 5.4 micro-benchmark.
//! * [`device`] — GTX 280 machine description and timing calibration.
//!
//! See the repository README for a walkthrough and DESIGN.md for the
//! architecture and per-experiment index.
//!
//! ## Quick start
//!
//! ```
//! use blocksync::core::{GridConfig, LaunchPlan, SyncMethod};
//! use blocksync::algos::bitonic::GridBitonic;
//! use blocksync::algos::seqgen::random_keys;
//!
//! let keys = random_keys(1 << 10, 42);
//! let kernel = GridBitonic::new(&keys);
//! LaunchPlan::compile(GridConfig::new(4, 64), SyncMethod::GpuLockFree)
//!     .and_then(|plan| plan.run(&kernel))
//!     .unwrap();
//! let sorted = kernel.output();
//! assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use blocksync_algos as algos;
pub use blocksync_core as core;
pub use blocksync_device as device;
pub use blocksync_microbench as microbench;
pub use blocksync_model as model;
pub use blocksync_sim as sim;
