//! # blocksync-device
//!
//! Machine description and timing calibration for a GTX-280-class GPU.
//!
//! This crate is the shared vocabulary of the workspace: it defines
//! *what device we are talking about* ([`GpuSpec`]), *how fast its primitive
//! operations are* ([`CalibrationProfile`]), and the virtual-time arithmetic
//! used by the simulator ([`SimTime`], [`SimDuration`]).
//!
//! The defaults in [`GpuSpec::gtx280`] and [`CalibrationProfile::gtx280`]
//! describe the NVIDIA GeForce GTX 280 used in the paper
//! (Xiao & Feng, *Inter-Block GPU Communication via Fast Barrier
//! Synchronization*, IPDPS 2010): 30 SMs x 8 SPs at 1296 MHz, 16 KiB shared
//! memory per SM, 1 GiB GDDR3 global memory at 141.7 GB/s, CUDA 2.2.
//!
//! Calibration constants are *inputs* to the discrete-event simulator in
//! `blocksync-sim`; the paper's figures emerge from executing the
//! synchronization protocols against these modeled resources.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod error;
pub mod json;
pub mod spec;
pub mod time;

pub use calibration::CalibrationProfile;
pub use error::DeviceError;
pub use spec::GpuSpec;
pub use time::{SimDuration, SimTime};
