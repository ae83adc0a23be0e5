//! Synthesis of realistic per-headset gaze traces.
//!
//! The eccentricity-map cache inside [`pvc_core::BatchEncoder`] only pays
//! off when the gaze stream *repeats* samples the way real eye-tracking
//! data does: long fixations (the eyes hold one point for tens of frames,
//! and trackers re-send the identical sample) punctuated by ballistic
//! saccades to a new point. A uniformly random gaze per frame — the lazy
//! test input — would defeat the cache entirely and misrepresent serving
//! behaviour.
//!
//! [`GazeTrace::synthesize`] generates such streams deterministically from
//! a seed. Two models are provided:
//!
//! * [`GazeModel::FixationSaccade`] — alternating fixations (duration drawn
//!   uniformly from a configurable frame range) and saccades (amplitude
//!   drawn from an exponential distribution with configurable mean, capped,
//!   direction uniform). This is the cache-friendly common case.
//! * [`GazeModel::SmoothPursuit`] — the gaze tracks a moving target at
//!   constant speed, bouncing off the display edges. Every frame moves the
//!   gaze, which is the cache's worst case; an optional quantization snaps
//!   samples to a pixel grid, recovering hits at slow speeds the way a
//!   discretized tracker would.

use pvc_fovea::GazePoint;
use pvc_frame::Dimensions;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Parameters of the fixation/saccade gaze model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixationSaccadeConfig {
    /// Shortest fixation, in frames (inclusive).
    pub min_fixation_frames: u32,
    /// Longest fixation, in frames (inclusive).
    pub max_fixation_frames: u32,
    /// Mean saccade amplitude in pixels (exponential distribution).
    pub mean_saccade_px: f64,
    /// Hard cap on the saccade amplitude in pixels.
    pub max_saccade_px: f64,
}

/// Parameters of the smooth-pursuit gaze model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmoothPursuitConfig {
    /// Target speed in pixels per frame.
    pub speed_px_per_frame: f64,
    /// Snap samples to this grid pitch in pixels; `0` keeps the continuous
    /// positions (every sample distinct).
    pub quantize_px: f64,
}

/// How a session's gaze moves over its stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GazeModel {
    /// Fixations of configurable duration separated by saccades.
    FixationSaccade(FixationSaccadeConfig),
    /// Continuous tracking of a target moving at constant speed.
    SmoothPursuit(SmoothPursuitConfig),
}

impl GazeModel {
    /// A fixation/saccade model with plausible magnitudes for a display of
    /// the given size: fixations of 4–24 frames (~55–330 ms at 72 Hz) and
    /// saccades averaging a quarter of the display diagonal.
    pub fn default_for(dimensions: Dimensions) -> GazeModel {
        let diagonal = f64::from(dimensions.width).hypot(f64::from(dimensions.height));
        GazeModel::FixationSaccade(FixationSaccadeConfig {
            min_fixation_frames: 4,
            max_fixation_frames: 24,
            mean_saccade_px: diagonal * 0.25,
            max_saccade_px: diagonal * 0.6,
        })
    }

    /// A smooth-pursuit model tracking at `speed_px_per_frame`, with
    /// samples quantized to whole pixels (so slow pursuit still produces
    /// repeated samples, like a discretized eye tracker).
    pub fn pursuit(speed_px_per_frame: f64) -> GazeModel {
        GazeModel::SmoothPursuit(SmoothPursuitConfig {
            speed_px_per_frame,
            quantize_px: 1.0,
        })
    }
}

/// A deterministic, frame-indexed stream of gaze samples.
#[derive(Debug, Clone, PartialEq)]
pub struct GazeTrace {
    samples: Vec<GazePoint>,
}

impl GazeTrace {
    /// Synthesizes a trace of `frames` samples on a display of the given
    /// dimensions. The same `(model, dimensions, seed, frames)` always
    /// produces the same trace.
    ///
    /// # Panics
    ///
    /// Panics if the model is misconfigured: a fixation range with
    /// `min > max` or `min == 0`, a non-positive mean or max saccade
    /// amplitude, a negative pursuit speed, or a negative quantization
    /// pitch.
    pub fn synthesize(
        model: &GazeModel,
        dimensions: Dimensions,
        seed: u64,
        frames: usize,
    ) -> GazeTrace {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let samples = match model {
            GazeModel::FixationSaccade(config) => {
                fixation_saccade(config, dimensions, &mut rng, frames)
            }
            GazeModel::SmoothPursuit(config) => {
                smooth_pursuit(config, dimensions, &mut rng, frames)
            }
        };
        GazeTrace { samples }
    }

    /// Wraps externally produced samples (e.g. replayed tracker logs).
    pub fn from_samples(samples: Vec<GazePoint>) -> GazeTrace {
        GazeTrace { samples }
    }

    /// The gaze samples, one per frame.
    pub fn samples(&self) -> &[GazePoint] {
        &self.samples
    }

    /// Number of frames in the trace.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the trace has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Number of maximal runs of bit-identical consecutive samples — the
    /// number of fixations for a fixation/saccade trace, and an upper bound
    /// on the eccentricity-map cache misses a fresh session will take.
    pub fn fixation_count(&self) -> usize {
        let mut runs = 0;
        let mut previous: Option<GazePoint> = None;
        for &sample in &self.samples {
            if previous.map_or(true, |p| !same_bits(p, sample)) {
                runs += 1;
            }
            previous = Some(sample);
        }
        runs
    }

    /// Mean fixation duration in frames (0 for an empty trace).
    pub fn mean_fixation_frames(&self) -> f64 {
        let runs = self.fixation_count();
        if runs == 0 {
            return 0.0;
        }
        self.samples.len() as f64 / runs as f64
    }
}

fn same_bits(a: GazePoint, b: GazePoint) -> bool {
    a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits()
}

/// Uniform sample in `[0, 1)`.
fn unit<R: RngCore>(rng: &mut R) -> f64 {
    rng.gen::<f64>()
}

fn fixation_saccade(
    config: &FixationSaccadeConfig,
    dimensions: Dimensions,
    rng: &mut ChaCha8Rng,
    frames: usize,
) -> Vec<GazePoint> {
    assert!(
        config.min_fixation_frames >= 1,
        "fixations must last at least one frame"
    );
    assert!(
        config.min_fixation_frames <= config.max_fixation_frames,
        "fixation frame range must satisfy min <= max"
    );
    assert!(
        config.mean_saccade_px > 0.0,
        "mean saccade amplitude must be positive"
    );
    assert!(
        config.max_saccade_px > 0.0,
        "max saccade amplitude must be positive"
    );
    let width = f64::from(dimensions.width);
    let height = f64::from(dimensions.height);
    let fixation_len = |rng: &mut ChaCha8Rng| -> u32 {
        let span = f64::from(config.max_fixation_frames - config.min_fixation_frames + 1);
        config.min_fixation_frames + (unit(rng) * span) as u32
    };

    let mut samples = Vec::with_capacity(frames);
    let mut current = GazePoint::new(unit(rng) * width, unit(rng) * height);
    let mut remaining = fixation_len(rng);
    while samples.len() < frames {
        if remaining == 0 {
            // Ballistic saccade: exponential amplitude, uniform direction.
            let amplitude =
                (-config.mean_saccade_px * (1.0 - unit(rng)).ln()).min(config.max_saccade_px);
            let angle = unit(rng) * std::f64::consts::TAU;
            current = GazePoint::new(
                (current.x + amplitude * angle.cos()).clamp(0.0, width),
                (current.y + amplitude * angle.sin()).clamp(0.0, height),
            );
            remaining = fixation_len(rng);
        }
        samples.push(current);
        remaining -= 1;
    }
    samples
}

fn smooth_pursuit(
    config: &SmoothPursuitConfig,
    dimensions: Dimensions,
    rng: &mut ChaCha8Rng,
    frames: usize,
) -> Vec<GazePoint> {
    assert!(
        config.speed_px_per_frame >= 0.0,
        "pursuit speed must be non-negative"
    );
    assert!(
        config.quantize_px >= 0.0,
        "quantization pitch must be non-negative"
    );
    let width = f64::from(dimensions.width);
    let height = f64::from(dimensions.height);
    let mut x = unit(rng) * width;
    let mut y = unit(rng) * height;
    let angle = unit(rng) * std::f64::consts::TAU;
    let mut dx = config.speed_px_per_frame * angle.cos();
    let mut dy = config.speed_px_per_frame * angle.sin();

    let quantize = |v: f64| {
        if config.quantize_px > 0.0 {
            (v / config.quantize_px).round() * config.quantize_px
        } else {
            v
        }
    };

    let mut samples = Vec::with_capacity(frames);
    for _ in 0..frames {
        samples.push(GazePoint::new(quantize(x), quantize(y)));
        x += dx;
        y += dy;
        // Reflect off the display edges so the target stays visible.
        if x < 0.0 || x > width {
            dx = -dx;
            x = x.clamp(0.0, width);
        }
        if y < 0.0 || y > height {
            dy = -dy;
            y = y.clamp(0.0, height);
        }
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims() -> Dimensions {
        Dimensions::new(256, 192)
    }

    fn fixation_model() -> GazeModel {
        GazeModel::default_for(dims())
    }

    #[test]
    fn same_seed_yields_the_same_trace() {
        let a = GazeTrace::synthesize(&fixation_model(), dims(), 42, 200);
        let b = GazeTrace::synthesize(&fixation_model(), dims(), 42, 200);
        assert_eq!(a, b);
        let c = GazeTrace::synthesize(&fixation_model(), dims(), 43, 200);
        assert_ne!(a, c, "different seeds should give different traces");
    }

    #[test]
    fn fixation_trace_repeats_samples_within_fixations() {
        let trace = GazeTrace::synthesize(&fixation_model(), dims(), 7, 300);
        assert_eq!(trace.len(), 300);
        let fixations = trace.fixation_count();
        assert!(
            fixations < trace.len() / 3,
            "fixations ({fixations}) should be far fewer than frames"
        );
        let mean = trace.mean_fixation_frames();
        assert!(
            (4.0..=25.0).contains(&mean),
            "mean fixation {mean} frames should fall inside the configured range"
        );
    }

    #[test]
    fn fixation_durations_respect_the_configured_range() {
        let model = GazeModel::FixationSaccade(FixationSaccadeConfig {
            min_fixation_frames: 5,
            max_fixation_frames: 5,
            mean_saccade_px: 40.0,
            max_saccade_px: 120.0,
        });
        let trace = GazeTrace::synthesize(&model, dims(), 3, 50);
        assert_eq!(trace.fixation_count(), 10, "50 frames / 5-frame fixations");
        assert!((trace.mean_fixation_frames() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn samples_stay_on_the_display() {
        for seed in 0..8 {
            let trace = GazeTrace::synthesize(&fixation_model(), dims(), seed, 400);
            for s in trace.samples() {
                assert!((0.0..=256.0).contains(&s.x), "x out of bounds: {}", s.x);
                assert!((0.0..=192.0).contains(&s.y), "y out of bounds: {}", s.y);
            }
        }
    }

    #[test]
    fn saccade_amplitude_is_capped() {
        let model = GazeModel::FixationSaccade(FixationSaccadeConfig {
            min_fixation_frames: 1,
            max_fixation_frames: 1,
            mean_saccade_px: 30.0,
            max_saccade_px: 35.0,
        });
        let trace = GazeTrace::synthesize(&model, dims(), 11, 200);
        for pair in trace.samples().windows(2) {
            let jump = (pair[1].x - pair[0].x).hypot(pair[1].y - pair[0].y);
            // Clamping to the display can only shorten a jump.
            assert!(jump <= 35.0 + 1e-9, "saccade of {jump}px exceeds the cap");
        }
    }

    #[test]
    fn smooth_pursuit_moves_continuously() {
        let model = GazeModel::SmoothPursuit(SmoothPursuitConfig {
            speed_px_per_frame: 3.0,
            quantize_px: 0.0,
        });
        let trace = GazeTrace::synthesize(&model, dims(), 9, 120);
        assert_eq!(
            trace.fixation_count(),
            120,
            "unquantized pursuit never repeats"
        );
        for pair in trace.samples().windows(2) {
            let step = (pair[1].x - pair[0].x).hypot(pair[1].y - pair[0].y);
            assert!(step <= 3.0 * 2.0 + 1e-9, "step {step} too large");
        }
    }

    #[test]
    fn quantized_slow_pursuit_produces_repeats() {
        let model = GazeModel::SmoothPursuit(SmoothPursuitConfig {
            speed_px_per_frame: 0.25,
            quantize_px: 4.0,
        });
        let trace = GazeTrace::synthesize(&model, dims(), 5, 200);
        assert!(
            trace.fixation_count() < trace.len() / 2,
            "4px quantization at 0.25px/frame must hold samples for many frames"
        );
        for s in trace.samples() {
            assert!((s.x / 4.0 - (s.x / 4.0).round()).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_speed_pursuit_is_a_single_fixation() {
        let model = GazeModel::SmoothPursuit(SmoothPursuitConfig {
            speed_px_per_frame: 0.0,
            quantize_px: 0.0,
        });
        let trace = GazeTrace::synthesize(&model, dims(), 2, 60);
        assert_eq!(trace.fixation_count(), 1);
    }

    #[test]
    fn empty_trace_is_well_behaved() {
        let trace = GazeTrace::synthesize(&fixation_model(), dims(), 1, 0);
        assert!(trace.is_empty());
        assert_eq!(trace.fixation_count(), 0);
        assert_eq!(trace.mean_fixation_frames(), 0.0);
    }

    #[test]
    #[should_panic(expected = "min <= max")]
    fn inverted_fixation_range_panics() {
        let model = GazeModel::FixationSaccade(FixationSaccadeConfig {
            min_fixation_frames: 9,
            max_fixation_frames: 3,
            mean_saccade_px: 10.0,
            max_saccade_px: 20.0,
        });
        let _ = GazeTrace::synthesize(&model, dims(), 0, 10);
    }

    #[test]
    #[should_panic(expected = "max saccade amplitude must be positive")]
    fn zero_max_saccade_panics() {
        let model = GazeModel::FixationSaccade(FixationSaccadeConfig {
            min_fixation_frames: 1,
            max_fixation_frames: 4,
            mean_saccade_px: 10.0,
            max_saccade_px: 0.0,
        });
        let _ = GazeTrace::synthesize(&model, dims(), 0, 10);
    }

    #[test]
    fn from_samples_roundtrips() {
        let samples = vec![GazePoint::new(1.0, 2.0), GazePoint::new(1.0, 2.0)];
        let trace = GazeTrace::from_samples(samples.clone());
        assert_eq!(trace.samples(), samples.as_slice());
        assert_eq!(trace.fixation_count(), 1);
    }
}
