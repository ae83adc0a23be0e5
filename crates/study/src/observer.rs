//! Simulated observers and the observer population.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One simulated study participant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observer {
    /// Participant identifier (0-based).
    pub id: usize,
    /// Personal sensitivity scale: the observer's discrimination ellipsoids
    /// are the population model's scaled by this factor. Values below 1.0
    /// describe observers who discriminate colors *better* than average
    /// (e.g. the visual artist of Sec. 6.3).
    pub sensitivity_scale: f64,
}

impl Observer {
    /// The observer's visibility threshold on the population-normalized
    /// ellipsoid distance: a color shift is visible to this observer when
    /// the normalized distance under the population model exceeds this
    /// value (scaling the semi-axes by `s` scales the normalized distance by
    /// `1/s²`).
    pub fn visibility_threshold(&self) -> f64 {
        self.sensitivity_scale * self.sensitivity_scale
    }

    /// True if this observer is markedly more sensitive than average.
    pub fn is_color_sensitive(&self) -> bool {
        self.sensitivity_scale < 0.85
    }
}

/// Configuration of the observer population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopulationConfig {
    /// Number of participants (11 in the paper).
    pub observers: usize,
    /// Mean of the sensitivity-scale distribution.
    pub mean_scale: f64,
    /// Standard deviation of the sensitivity-scale distribution.
    pub scale_std_dev: f64,
    /// Fraction of the population that is markedly color-sensitive (drawn
    /// with a scale well below the mean).
    pub color_sensitive_fraction: f64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            observers: 11,
            mean_scale: 1.05,
            scale_std_dev: 0.12,
            color_sensitive_fraction: 0.1,
        }
    }
}

/// A deterministic, seeded population of observers.
#[derive(Debug, Clone, PartialEq)]
pub struct ObserverPopulation {
    observers: Vec<Observer>,
}

impl ObserverPopulation {
    /// Samples a population from its configuration and a seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration asks for zero observers or non-positive
    /// scale parameters.
    pub fn sample(config: PopulationConfig, seed: u64) -> Self {
        assert!(
            config.observers > 0,
            "the study needs at least one observer"
        );
        assert!(
            config.mean_scale > 0.0 && config.scale_std_dev >= 0.0,
            "invalid scale parameters"
        );
        assert!(
            (0.0..=1.0).contains(&config.color_sensitive_fraction),
            "color-sensitive fraction must be a probability"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let observers = (0..config.observers)
            .map(|id| {
                let sensitive = rng.gen::<f64>() < config.color_sensitive_fraction;
                let base = if sensitive {
                    // A markedly more sensitive observer.
                    0.65 + 0.1 * rng.gen::<f64>()
                } else {
                    // Approximate a normal draw with the mean of 12 uniforms.
                    let sum: f64 = (0..12).map(|_| rng.gen::<f64>()).sum();
                    config.mean_scale + (sum - 6.0) * config.scale_std_dev
                };
                Observer {
                    id,
                    sensitivity_scale: base.max(0.4),
                }
            })
            .collect();
        ObserverPopulation { observers }
    }

    /// The observers in id order.
    pub fn observers(&self) -> &[Observer] {
        &self.observers
    }

    /// Number of observers.
    pub fn len(&self) -> usize {
        self.observers.len()
    }

    /// True if the population is empty (never the case for sampled
    /// populations).
    pub fn is_empty(&self) -> bool {
        self.observers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic() {
        let a = ObserverPopulation::sample(PopulationConfig::default(), 42);
        let b = ObserverPopulation::sample(PopulationConfig::default(), 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 11);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let a = ObserverPopulation::sample(PopulationConfig::default(), 1);
        let b = ObserverPopulation::sample(PopulationConfig::default(), 2);
        assert_ne!(a, b);
    }

    #[test]
    fn scales_are_positive_and_near_one() {
        let pop = ObserverPopulation::sample(PopulationConfig::default(), 7);
        for o in pop.observers() {
            assert!(o.sensitivity_scale > 0.3 && o.sensitivity_scale < 2.0);
            assert!(o.visibility_threshold() > 0.0);
        }
    }

    #[test]
    fn visibility_threshold_is_square_of_scale() {
        let o = Observer {
            id: 0,
            sensitivity_scale: 0.8,
        };
        assert!((o.visibility_threshold() - 0.64).abs() < 1e-12);
        assert!(o.is_color_sensitive());
        let avg = Observer {
            id: 1,
            sensitivity_scale: 1.0,
        };
        assert!(!avg.is_color_sensitive());
    }

    #[test]
    fn forced_sensitive_population() {
        let config = PopulationConfig {
            color_sensitive_fraction: 1.0,
            ..Default::default()
        };
        let pop = ObserverPopulation::sample(config, 3);
        assert!(pop.observers().iter().all(|o| o.is_color_sensitive()));
    }

    #[test]
    #[should_panic]
    fn zero_observers_panics() {
        let config = PopulationConfig {
            observers: 0,
            ..Default::default()
        };
        let _ = ObserverPopulation::sample(config, 0);
    }
}
