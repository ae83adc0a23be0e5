//! The simulated study protocol and its outcome.

use crate::observer::{ObserverPopulation, PopulationConfig};
use pvc_color::DiscriminationModel;
use pvc_fovea::EccentricityMap;
use pvc_frame::{LinearFrame, TileGrid};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Per-pixel artifact evidence of one scene shown to the participants.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneTrial {
    /// Scene name (matches the paper's figure labels).
    pub scene_name: String,
    /// Normalized ellipsoid distance of every adjusted pixel under the
    /// population model (0 = untouched, 1 = moved to the threshold surface).
    pub distances: Vec<f64>,
    /// Relative luminance of the original pixels, used to model the weaker
    /// reliability of the threshold model in dark conditions (Sec. 6.3).
    pub luminances: Vec<f64>,
}

impl SceneTrial {
    /// Builds a trial from the original and adjusted frames of a scene.
    ///
    /// # Panics
    ///
    /// Panics if the frames have different dimensions or do not match the
    /// eccentricity map's tiling.
    pub fn from_frames<M: DiscriminationModel + ?Sized>(
        scene_name: impl Into<String>,
        original: &LinearFrame,
        adjusted: &LinearFrame,
        eccentricity: &EccentricityMap,
        model: &M,
    ) -> Self {
        let (distances, luminances) = artifact_visibility(original, adjusted, eccentricity, model);
        SceneTrial {
            scene_name: scene_name.into(),
            distances,
            luminances,
        }
    }
}

/// Computes, for every pixel, the normalized ellipsoid distance between the
/// original and adjusted colors under the population model, along with the
/// original pixel luminance. Distances ≤ 1 are imperceptible to the average
/// observer by construction of the encoder.
///
/// # Panics
///
/// Panics if the two frames differ in dimensions or the eccentricity map was
/// built with a different tile size than expected.
pub fn artifact_visibility<M: DiscriminationModel + ?Sized>(
    original: &LinearFrame,
    adjusted: &LinearFrame,
    eccentricity: &EccentricityMap,
    model: &M,
) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(
        original.dimensions(),
        adjusted.dimensions(),
        "frame dimensions must match"
    );
    let grid = TileGrid::new(original.dimensions(), eccentricity.tile_size());
    let mut distances = vec![0.0; original.dimensions().pixel_count()];
    let mut luminances = vec![0.0; original.dimensions().pixel_count()];
    for tile in grid.tiles() {
        let ecc = eccentricity.tile_eccentricity(tile);
        for dy in 0..tile.height {
            for dx in 0..tile.width {
                let x = tile.x + dx;
                let y = tile.y + dy;
                let idx = (y * original.width() + x) as usize;
                let orig = original.pixel(x, y);
                let adj = adjusted.pixel(x, y);
                luminances[idx] = orig.luminance();
                if orig != adj {
                    let ellipsoid = model.ellipsoid(orig, ecc);
                    distances[idx] = ellipsoid.normalized_distance_rgb(adj);
                }
            }
        }
    }
    (distances, luminances)
}

/// Configuration of the simulated study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudyConfig {
    /// The observer population.
    pub population: PopulationConfig,
    /// RNG seed for both population sampling and per-trial detection draws.
    pub seed: u64,
    /// Slope of the psychometric detection function: the probability of
    /// reporting an artifact is `1 − exp(−slope · visible_fraction)`.
    pub detection_slope: f64,
    /// Extra sensitivity in dark regions, modelling the threshold model's
    /// weaker accuracy at low luminance (Sec. 6.3): effective distance is
    /// `distance × (1 + dark_model_error × (1 − luminance))`.
    pub dark_model_error: f64,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            population: PopulationConfig::default(),
            seed: 2024,
            detection_slope: 40.0,
            dark_model_error: 0.35,
        }
    }
}

/// Result of one scene of the study.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneOutcome {
    /// Scene name.
    pub scene_name: String,
    /// Number of participants who reported an artifact.
    pub noticed: usize,
    /// Number of participants who did not (the quantity plotted in Fig. 14).
    pub did_not_notice: usize,
    /// Mean fraction of pixels visible across observers.
    pub mean_visible_fraction: f64,
}

/// Result of the whole study.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyOutcome {
    /// Per-scene outcomes, in the order the trials were supplied.
    pub scenes: Vec<SceneOutcome>,
    /// Number of participants.
    pub observers: usize,
}

impl StudyOutcome {
    /// Average number of participants (across scenes) who noticed an
    /// artifact; the paper reports 2.8 of 11.
    pub fn mean_noticed(&self) -> f64 {
        if self.scenes.is_empty() {
            return 0.0;
        }
        self.scenes.iter().map(|s| s.noticed as f64).sum::<f64>() / self.scenes.len() as f64
    }

    /// Standard deviation of the per-scene noticed counts.
    pub fn std_dev_noticed(&self) -> f64 {
        if self.scenes.is_empty() {
            return 0.0;
        }
        let mean = self.mean_noticed();
        (self
            .scenes
            .iter()
            .map(|s| (s.noticed as f64 - mean).powi(2))
            .sum::<f64>()
            / self.scenes.len() as f64)
            .sqrt()
    }
}

/// The simulated user study.
#[derive(Debug, Clone, PartialEq)]
pub struct UserStudy {
    config: StudyConfig,
    population: ObserverPopulation,
}

impl UserStudy {
    /// Creates a study, sampling its observer population deterministically
    /// from the configuration seed.
    pub fn new(config: StudyConfig) -> Self {
        let population = ObserverPopulation::sample(config.population, config.seed);
        UserStudy { config, population }
    }

    /// The sampled observer population.
    pub fn population(&self) -> &ObserverPopulation {
        &self.population
    }

    /// Runs the study over a set of scene trials.
    pub fn run(&self, trials: &[SceneTrial]) -> StudyOutcome {
        let mut scenes = Vec::with_capacity(trials.len());
        for (trial_index, trial) in trials.iter().enumerate() {
            let mut noticed = 0usize;
            let mut visible_sum = 0.0;
            for observer in self.population.observers() {
                let threshold = observer.visibility_threshold();
                let visible = trial
                    .distances
                    .iter()
                    .zip(&trial.luminances)
                    .filter(|&(&d, &lum)| {
                        d * (1.0 + self.config.dark_model_error * (1.0 - lum.clamp(0.0, 1.0)))
                            > threshold
                    })
                    .count();
                let fraction = visible as f64 / trial.distances.len().max(1) as f64;
                visible_sum += fraction;
                let p_detect = 1.0 - (-self.config.detection_slope * fraction).exp();
                let mut rng = ChaCha8Rng::seed_from_u64(
                    self.config
                        .seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add((trial_index as u64) << 32)
                        .wrapping_add(observer.id as u64),
                );
                if rng.gen::<f64>() < p_detect {
                    noticed += 1;
                }
            }
            scenes.push(SceneOutcome {
                scene_name: trial.scene_name.clone(),
                noticed,
                did_not_notice: self.population.len() - noticed,
                mean_visible_fraction: visible_sum / self.population.len() as f64,
            });
        }
        StudyOutcome {
            scenes,
            observers: self.population.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_trial(
        name: &str,
        visible_level: f64,
        luminance: f64,
        pixels: usize,
    ) -> SceneTrial {
        SceneTrial {
            scene_name: name.to_string(),
            distances: vec![visible_level; pixels],
            luminances: vec![luminance; pixels],
        }
    }

    #[test]
    fn unchanged_frames_are_never_noticed() {
        let study = UserStudy::new(StudyConfig::default());
        let outcome = study.run(&[synthetic_trial("flat", 0.0, 0.5, 1000)]);
        assert_eq!(outcome.scenes[0].noticed, 0);
        assert_eq!(outcome.scenes[0].did_not_notice, outcome.observers);
        assert_eq!(outcome.mean_noticed(), 0.0);
    }

    #[test]
    fn gross_violations_are_always_noticed() {
        // Distances far outside every observer's ellipsoid are seen by all.
        let study = UserStudy::new(StudyConfig::default());
        let outcome = study.run(&[synthetic_trial("broken", 10.0, 0.5, 1000)]);
        assert_eq!(outcome.scenes[0].noticed, outcome.observers);
    }

    #[test]
    fn within_threshold_adjustments_are_rarely_noticed() {
        // The encoder keeps distances ≤ 1; only unusually sensitive
        // observers should report artifacts.
        let study = UserStudy::new(StudyConfig::default());
        let outcome = study.run(&[synthetic_trial("typical", 0.85, 0.5, 10_000)]);
        assert!(
            outcome.scenes[0].noticed <= outcome.observers / 2,
            "too many observers noticed: {}",
            outcome.scenes[0].noticed
        );
    }

    #[test]
    fn dark_scenes_are_noticed_at_least_as_often() {
        let study = UserStudy::new(StudyConfig::default());
        let outcome = study.run(&[
            synthetic_trial("bright", 0.9, 0.6, 10_000),
            synthetic_trial("dark", 0.9, 0.03, 10_000),
        ]);
        assert!(outcome.scenes[1].noticed >= outcome.scenes[0].noticed);
        assert!(outcome.scenes[1].mean_visible_fraction >= outcome.scenes[0].mean_visible_fraction);
    }

    #[test]
    fn study_is_deterministic() {
        let trials = vec![
            synthetic_trial("a", 0.8, 0.4, 5000),
            synthetic_trial("b", 0.95, 0.1, 5000),
        ];
        let a = UserStudy::new(StudyConfig::default()).run(&trials);
        let b = UserStudy::new(StudyConfig::default()).run(&trials);
        assert_eq!(a, b);
    }

    #[test]
    fn outcome_statistics_are_consistent() {
        let trials = vec![
            synthetic_trial("a", 0.9, 0.3, 5000),
            synthetic_trial("b", 0.0, 0.5, 5000),
        ];
        let outcome = UserStudy::new(StudyConfig::default()).run(&trials);
        for scene in &outcome.scenes {
            assert_eq!(scene.noticed + scene.did_not_notice, outcome.observers);
        }
        assert!(outcome.mean_noticed() >= 0.0);
        assert!(outcome.std_dev_noticed() >= 0.0);
    }
}
