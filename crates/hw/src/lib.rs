//! Hardware and energy models (Sec. 4 and Sec. 6.1–6.2 of the paper).
//!
//! The paper implements the Color Adjustment Unit (CAU) in RTL and
//! synthesizes it with a TSMC 7 nm flow. Re-running an ASIC flow is outside
//! the scope of this reproduction, so this crate provides analytical models
//! parameterized with the paper's post-synthesis numbers (`docs/ARCHITECTURE.md`,
//! substitution S5):
//!
//! * [`CauConfig`] / [`CauModel`] — the PE array: cycle time, PE count
//!   sizing against the GPU's peak pixel rate, per-frame compression
//!   latency, area and power,
//! * [`DramConfig`] — LPDDR4-style DRAM access energy (the 3,477 pJ/pixel
//!   figure of Sec. 5.1),
//! * [`PowerModel`] — the end-to-end power saving of the compressed frame
//!   traffic over the BD baseline across resolutions and refresh rates
//!   (Fig. 13).
//!
//! # Examples
//!
//! ```
//! use pvc_frame::Dimensions;
//! use pvc_hw::{CauConfig, CauModel};
//!
//! // The paper's PE array compresses a Quest 2 eye frame within a 72 Hz
//! // frame budget while staying under a milliwatt-scale power envelope.
//! let cau = CauModel::new(CauConfig::default());
//! let eye = Dimensions::new(1832, 1920);
//! assert!(cau.meets_frame_budget(eye, 72.0));
//! assert!(cau.total_power_mw() < 10.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cau;
pub mod dram;
pub mod pipeline;
pub mod power;

pub use cau::{CauConfig, CauModel, GpuConfig};
pub use dram::DramConfig;
pub use pipeline::{PipelineReport, PipelineSimulator};
pub use power::{PowerBreakdown, PowerModel, RefreshRate};
