//! Simulated psychophysical user study (Sec. 5.2 and Fig. 14).
//!
//! The paper runs an IRB-approved study on 11 human participants who watch
//! the six VR scenes with and without the perceptual compression and report
//! whether they notice artifacts. Human subjects are obviously out of scope
//! for a code reproduction, so this crate simulates the study (`docs/ARCHITECTURE.md`,
//! substitution S6):
//!
//! * each simulated observer draws a personal *sensitivity scale*: their
//!   discrimination ellipsoids are the population model's scaled by a factor
//!   sampled around 1.0 (a low factor models the "color-sensitive visual
//!   artist" of Sec. 6.3),
//! * for every scene the per-pixel adjustment is expressed as a normalized
//!   ellipsoid distance under the *population* model; a pixel is visible to
//!   an observer when that distance exceeds their personal threshold,
//! * an observer reports an artifact with a probability that saturates with
//!   the fraction of visible pixels (a simple psychometric function).
//!
//! The output is Fig. 14's quantity: for each scene, how many of the
//! observers did **not** notice any artifact.
//!
//! # Examples
//!
//! ```
//! use pvc_study::{StudyConfig, UserStudy};
//!
//! // The default configuration reproduces the paper's 11-participant
//! // cohort; the sampled population is deterministic in the seed.
//! let study = UserStudy::new(StudyConfig::default());
//! assert_eq!(study.population().len(), 11);
//! let outcome = study.run(&[]);
//! assert_eq!(outcome.mean_noticed(), 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod observer;
pub mod study;

pub use calibration::{calibrate_observer, CalibrationConfig, CalibrationResult};
pub use observer::{Observer, ObserverPopulation, PopulationConfig};
pub use study::{artifact_visibility, SceneTrial, StudyConfig, StudyOutcome, UserStudy};
