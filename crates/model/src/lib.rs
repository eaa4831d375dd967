//! # blocksync-model
//!
//! The paper's analytic model of kernel execution time and speedup
//! (Section 4 and Section 5), implemented as pure functions:
//!
//! * [`equations`] — Eqs. 1, 3, 4, 5 (time composition per synchronization
//!   method) and Eqs. 6, 7, 9 (per-barrier cost of the GPU methods), plus
//!   the Eq. 8 tree-group sizing rule.
//! * [`speedup`] — Eq. 2, the Amdahl-style bound on kernel speedup from
//!   accelerating synchronization alone.
//! * [`fit`] — least-squares extraction of the model constants (`t_a`,
//!   `t_c`) from measured or simulated sweeps, used by the `modelcheck`
//!   harness to verify that the simulator behaves like the model says the
//!   hardware does.
//! * [`calibrate`] — inversion of the equations: from the paper's reported
//!   landmark values to the primitive costs the simulator charges (the
//!   provenance of `CalibrationProfile::gtx280()`).
//! * [`selector`] — the auto-tuner's brain: per-method sync-cost
//!   predictions from a [`blocksync_device::CalibrationProfile`] for every
//!   barrier the runtime offers (including a tuned tree group size from
//!   the exact Eq. 8 argmin), the cheapest-eligible selection rule, and
//!   pairwise crossover points — Figure 11's simple-vs-implicit point is
//!   `crossover(cal, GpuSimple, CpuImplicit, ..)`.
//!
//! All times are `f64` nanoseconds: the model is algebra, not a clock, and
//! fitting needs fractional values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod equations;
pub mod fit;
pub mod selector;
pub mod speedup;

pub use calibrate::{derive, DerivedCosts, PaperLandmarks};
pub use equations::{
    chunked_group_sizes, optimal_tree_group, t_dissemination, t_gls, t_gss, t_gts, t_gts3,
    t_gts_grouped, t_sense, total_explicit, total_explicit_uniform, total_gpu, total_gpu_uniform,
    total_implicit, total_implicit_uniform, tree3_group_sizes, tree_group_sizes,
};
pub use fit::{fit_line, LinearFit};
pub use selector::{
    cheapest, crossover, crossover_table, predicted_sync_ns, prediction_table, select, MethodKind,
    Prediction, SelectorError,
};
pub use speedup::{kernel_speedup, max_speedup, rho};
