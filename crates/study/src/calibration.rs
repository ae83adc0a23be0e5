//! Simulated per-user threshold calibration (Sec. 6.5).
//!
//! The paper proposes accommodating individual observers by running a short
//! per-user calibration when the headset is first used, producing a personal
//! ellipsoid scale that the encoder then applies. This module simulates that
//! procedure with a classic 1-up/1-down staircase: the (simulated) user is
//! repeatedly shown a reference color and a probe displaced along a DKL
//! direction, and the displacement converges to the user's own threshold.
//! The ratio between the converged threshold and the population model's
//! prediction is the calibration scale handed to
//! [`pvc_color::SyntheticDiscriminationModel::with_scale`].

use crate::observer::Observer;
use pvc_color::{DiscriminationModel, LinearRgb, SyntheticDiscriminationModel};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Configuration of the staircase calibration procedure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationConfig {
    /// Number of staircase reversals before the procedure stops.
    pub reversals: usize,
    /// Multiplicative step applied to the probe displacement after each
    /// response (e.g. 1.25 = ±25%).
    pub step_ratio: f64,
    /// Eccentricity (degrees) at which the calibration colors are shown.
    pub eccentricity_deg: f64,
    /// Lapse rate: probability that the simulated user answers randomly.
    pub lapse_rate: f64,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            reversals: 12,
            step_ratio: 1.25,
            eccentricity_deg: 15.0,
            lapse_rate: 0.02,
        }
    }
}

/// Result of calibrating one observer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationResult {
    /// The observer that was calibrated.
    pub observer: Observer,
    /// Estimated personal scale relative to the population model (1.0 means
    /// the population model fits this user exactly).
    pub estimated_scale: f64,
    /// Number of trials the staircase needed.
    pub trials: usize,
}

impl CalibrationResult {
    /// Relative error of the estimate against the observer's true scale.
    pub fn relative_error(&self) -> f64 {
        (self.estimated_scale - self.observer.sensitivity_scale).abs()
            / self.observer.sensitivity_scale
    }
}

/// Runs the staircase calibration for one observer.
///
/// The observer's "true" threshold surface is the population model scaled by
/// their [`Observer::sensitivity_scale`]; each trial asks whether a probe at
/// the current displacement is distinguishable from the reference, and the
/// displacement converges onto the point of subjective equality.
pub fn calibrate_observer(
    observer: Observer,
    config: CalibrationConfig,
    seed: u64,
) -> CalibrationResult {
    // The probe is displaced along the Blue-axis extrema vector of the
    // population ellipsoid for a mid-gray reference; expressing its
    // magnitude as a multiple of the population threshold makes the
    // staircase independent of the absolute ellipsoid size.
    let population = SyntheticDiscriminationModel::default();
    let reference = LinearRgb::new(0.45, 0.45, 0.45);
    debug_assert!(
        population
            .ellipsoid(reference, config.eccentricity_deg)
            .half_extent_along_axis(pvc_color::RgbAxis::Blue)
            > 0.0
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (observer.id as u64).wrapping_mul(0x9E37));

    // The probe moves along the ellipsoid's Blue-axis extrema vector; its
    // magnitude is expressed as a multiple of the *population* threshold.
    let mut magnitude = 2.0f64;
    let mut last_visible: Option<bool> = None;
    let mut reversal_magnitudes = Vec::new();
    let mut trials = 0usize;
    while reversal_magnitudes.len() < config.reversals && trials < 400 {
        trials += 1;
        // Normalized distance of the probe under the observer's personal
        // ellipsoid: magnitude² / scale² (the probe lies along a principal
        // chord of the population ellipsoid).
        let personal_distance = (magnitude / observer.sensitivity_scale).powi(2);
        let truly_visible = personal_distance > 1.0;
        let visible = if rng.gen::<f64>() < config.lapse_rate {
            rng.gen::<bool>()
        } else {
            truly_visible
        };
        if let Some(prev) = last_visible {
            if prev != visible {
                reversal_magnitudes.push(magnitude);
            }
        }
        last_visible = Some(visible);
        if visible {
            magnitude /= config.step_ratio;
        } else {
            magnitude *= config.step_ratio;
        }
    }
    // Discard the first reversals (standard practice) and average the rest.
    let usable = &reversal_magnitudes[reversal_magnitudes.len().min(2)..];
    let estimated_scale = if usable.is_empty() {
        magnitude
    } else {
        usable.iter().sum::<f64>() / usable.len() as f64
    };
    CalibrationResult {
        observer,
        estimated_scale,
        trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observer(scale: f64) -> Observer {
        Observer {
            id: 3,
            sensitivity_scale: scale,
        }
    }

    #[test]
    fn calibration_recovers_the_true_scale() {
        for &scale in &[0.6, 0.9, 1.0, 1.3, 1.8] {
            let result = calibrate_observer(observer(scale), CalibrationConfig::default(), 7);
            assert!(
                result.relative_error() < 0.25,
                "scale {scale}: estimated {} ({} trials)",
                result.estimated_scale,
                result.trials
            );
        }
    }

    #[test]
    fn calibration_is_deterministic_for_a_seed() {
        let a = calibrate_observer(observer(1.1), CalibrationConfig::default(), 42);
        let b = calibrate_observer(observer(1.1), CalibrationConfig::default(), 42);
        assert_eq!(a, b);
    }

    #[test]
    fn more_sensitive_observers_get_smaller_scales() {
        let sensitive = calibrate_observer(observer(0.7), CalibrationConfig::default(), 5);
        let tolerant = calibrate_observer(observer(1.6), CalibrationConfig::default(), 5);
        assert!(sensitive.estimated_scale < tolerant.estimated_scale);
    }

    #[test]
    fn staircase_terminates_even_with_high_lapse_rate() {
        let config = CalibrationConfig {
            lapse_rate: 0.3,
            ..CalibrationConfig::default()
        };
        let result = calibrate_observer(observer(1.0), config, 11);
        assert!(result.trials <= 400);
        assert!(result.estimated_scale > 0.0);
    }
}
