//! Experiment harness for the paper's evaluation section.
//!
//! Every table and figure of the paper has a corresponding generator here
//! (see `docs/REPRODUCING.md` for the experiment index). The binaries under `src/bin/`
//! print the regenerated series and write CSV files under
//! `target/figures/`; the Criterion benches under `benches/` measure the
//! throughput of the underlying computations.
//!
//! The harness renders the six synthetic scenes at a configurable (per-eye)
//! resolution, runs the perceptual encoder and all baselines on the same
//! frames, and aggregates the results into the quantities the paper plots.
//!
//! # Examples
//!
//! ```
//! use pvc_bench::{measure_scene, ExperimentConfig};
//! use pvc_scenes::SceneId;
//!
//! let config = ExperimentConfig::quick();
//! let measurement = measure_scene(SceneId::Office, &config);
//! // The perceptual encoder always beats the plain BD baseline.
//! assert!(measurement.reduction_over_bd() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod figures;
pub mod harness;
pub mod json;
pub mod link;
pub mod report;
pub mod trace_export;

pub use figures::{
    fig10_bandwidth, fig11_bits_per_pixel, fig12_case_distribution, fig13_power_saving,
    fig14_user_study, fig15_tile_size, fig2_ellipsoids, tab_ablation, tab_area_power, tab_psnr,
    tab_scc, Figure,
};
pub use harness::{measure_all_scenes, measure_scene, ExperimentConfig, SceneMeasurement};
pub use report::{assert_session_rates, format_table, write_csv};
