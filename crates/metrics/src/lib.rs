//! Objective image-quality metrics.
//!
//! The paper's Sec. 6.3 contrasts *subjective* quality (what the user study
//! measures) with *objective* quality: the adjusted frames have a PSNR
//! around 46 dB on average, with most scenes below 37 dB — numerically very
//! lossy — yet participants rarely notice artifacts in VR. This crate
//! provides the objective side of that comparison: MSE, PSNR and
//! per-channel error statistics between an original and an adjusted frame.
//!
//! For streaming workloads the [`throughput`] module adds the aggregate
//! side: frames/bytes counters and derived rates ([`ThroughputReport`])
//! that the multi-session service sums per session, per shard and
//! service-wide. The [`churn`] module complements it with population
//! telemetry ([`ChurnCounters`]) for the long-lived runtime: admissions,
//! retirements, completions, hard-cancellations and peak session
//! concurrency. When sessions are *heterogeneous* (different display
//! resolutions and frame budgets), the [`tiers`] module groups the
//! per-session reports under tier labels ([`TierAggregates`]) so each
//! class of user gets its own FPS/pixel-throughput row instead of being
//! averaged into a meaningless fleet mean. The [`delivery`] module is the
//! decode side of the loop: what a client saw after link simulation —
//! on-time/late/dropped frames, goodput and displayed-image PSNR
//! ([`DeliveryReport`]). Finally the [`elasticity`] module counts what
//! the elastic control plane did to the fleet — rejected/queued
//! admissions, tier sheds, migrations and shard scaling
//! ([`ElasticityCounters`]).
//!
//! # Examples
//!
//! ```
//! use pvc_color::Srgb8;
//! use pvc_frame::{Dimensions, SrgbFrame};
//! use pvc_metrics::QualityReport;
//!
//! let a = SrgbFrame::filled(Dimensions::new(8, 8), Srgb8::new(100, 100, 100));
//! let b = SrgbFrame::filled(Dimensions::new(8, 8), Srgb8::new(102, 100, 99));
//! let report = QualityReport::compare(&a, &b)?;
//! assert!(report.psnr_db > 40.0);
//! # Ok::<(), pvc_metrics::MetricsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod delivery;
pub mod elasticity;
pub mod temporal;
pub mod throughput;
pub mod tiers;

pub use churn::ChurnCounters;
pub use delivery::DeliveryReport;
pub use elasticity::ElasticityCounters;
pub use temporal::TemporalTotals;
pub use throughput::ThroughputReport;
pub use tiers::{TierAggregate, TierAggregates};

use pvc_frame::{FrameError, SrgbFrame};

/// Errors produced when comparing frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricsError {
    /// The two frames have different dimensions.
    DimensionMismatch(FrameError),
}

impl std::fmt::Display for MetricsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricsError::DimensionMismatch(e) => write!(f, "cannot compare frames: {e}"),
        }
    }
}

impl std::error::Error for MetricsError {}

/// Objective quality of a distorted frame relative to a reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityReport {
    /// Mean squared error over all channels (8-bit code values).
    pub mse: f64,
    /// Peak signal-to-noise ratio in dB (infinite for identical frames).
    pub psnr_db: f64,
    /// Largest absolute per-channel error in code values.
    pub max_abs_error: u8,
    /// Mean absolute per-channel error in code values.
    pub mean_abs_error: f64,
    /// Fraction of pixels with any channel differing from the reference.
    pub changed_pixel_fraction: f64,
}

impl QualityReport {
    /// Compares a distorted frame against a reference frame.
    ///
    /// # Errors
    ///
    /// Returns [`MetricsError::DimensionMismatch`] when the two frames have
    /// different dimensions.
    pub fn compare(reference: &SrgbFrame, distorted: &SrgbFrame) -> Result<Self, MetricsError> {
        if reference.dimensions() != distorted.dimensions() {
            return Err(MetricsError::DimensionMismatch(
                FrameError::DimensionMismatch {
                    left: reference.dimensions(),
                    right: distorted.dimensions(),
                },
            ));
        }
        let mut squared_sum = 0.0f64;
        let mut abs_sum = 0.0f64;
        let mut max_abs = 0u8;
        let mut changed = 0usize;
        let mut samples = 0usize;
        for (a, b) in reference.pixels().iter().zip(distorted.pixels()) {
            let mut pixel_changed = false;
            for c in 0..3 {
                let d = i32::from(a.channel(c)) - i32::from(b.channel(c));
                squared_sum += f64::from(d * d);
                abs_sum += f64::from(d.abs());
                max_abs = max_abs.max(d.unsigned_abs() as u8);
                pixel_changed |= d != 0;
                samples += 1;
            }
            if pixel_changed {
                changed += 1;
            }
        }
        let mse = squared_sum / samples as f64;
        let psnr_db = if mse == 0.0 {
            f64::INFINITY
        } else {
            10.0 * (255.0f64 * 255.0 / mse).log10()
        };
        Ok(QualityReport {
            mse,
            psnr_db,
            max_abs_error: max_abs,
            mean_abs_error: abs_sum / samples as f64,
            changed_pixel_fraction: changed as f64 / reference.pixels().len() as f64,
        })
    }
}

/// Mean and standard deviation of a sample of values; used to aggregate
/// per-scene results the way the paper reports them (e.g. "46.0 dB,
/// standard deviation 19.5").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleSummary {
    /// Number of samples.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl SampleSummary {
    /// Summarizes a slice of values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "cannot summarize an empty sample");
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let variance = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / count as f64;
        SampleSummary {
            count,
            mean,
            std_dev: variance.sqrt(),
            min: values.iter().cloned().fold(f64::INFINITY, f64::min),
            max: values.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_color::Srgb8;
    use pvc_frame::Dimensions;

    fn flat(value: u8) -> SrgbFrame {
        SrgbFrame::filled(Dimensions::new(16, 16), Srgb8::new(value, value, value))
    }

    #[test]
    fn identical_frames_have_infinite_psnr() {
        let report = QualityReport::compare(&flat(100), &flat(100)).unwrap();
        assert_eq!(report.mse, 0.0);
        assert!(report.psnr_db.is_infinite());
        assert_eq!(report.max_abs_error, 0);
        assert_eq!(report.changed_pixel_fraction, 0.0);
    }

    #[test]
    fn uniform_offset_has_known_psnr() {
        // A constant error of 5 code values: MSE = 25, PSNR = 10·log10(255²/25).
        let report = QualityReport::compare(&flat(100), &flat(105)).unwrap();
        assert!((report.mse - 25.0).abs() < 1e-12);
        let expected = 10.0 * (255.0f64 * 255.0 / 25.0).log10();
        assert!((report.psnr_db - expected).abs() < 1e-9);
        assert_eq!(report.max_abs_error, 5);
        assert_eq!(report.changed_pixel_fraction, 1.0);
    }

    #[test]
    fn larger_errors_mean_lower_psnr() {
        let small = QualityReport::compare(&flat(100), &flat(102)).unwrap();
        let large = QualityReport::compare(&flat(100), &flat(130)).unwrap();
        assert!(small.psnr_db > large.psnr_db);
        assert!(large.max_abs_error > small.max_abs_error);
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let a = flat(10);
        let b = SrgbFrame::filled(Dimensions::new(8, 8), Srgb8::new(10, 10, 10));
        let err = QualityReport::compare(&a, &b).unwrap_err();
        assert!(err.to_string().contains("cannot compare"));
    }

    #[test]
    fn partial_changes_are_counted_per_pixel() {
        let a = flat(50);
        let mut b = flat(50);
        b.set_pixel(0, 0, Srgb8::new(51, 50, 50));
        b.set_pixel(1, 0, Srgb8::new(50, 52, 50));
        let report = QualityReport::compare(&a, &b).unwrap();
        assert!((report.changed_pixel_fraction - 2.0 / 256.0).abs() < 1e-12);
        assert_eq!(report.max_abs_error, 2);
    }

    #[test]
    fn sample_summary_matches_manual_computation() {
        let s = SampleSummary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std_dev - 1.118033988749895).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    #[should_panic]
    fn empty_sample_panics() {
        let _ = SampleSummary::of(&[]);
    }
}
