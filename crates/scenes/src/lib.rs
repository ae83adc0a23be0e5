//! Procedural VR scene generation.
//!
//! The paper evaluates its encoder on six Unity VR scenes (office, fortnite,
//! skyline, dumbo, thai, monkey) taken from a prior color-perception study.
//! Those assets are not redistributable, so this crate generates synthetic
//! frames with matching *qualitative* characteristics (`docs/ARCHITECTURE.md`,
//! substitution S2): the bright, green-dominated "fortnite" scene; the dark
//! "dumbo" and "monkey" scenes where artifacts are easiest to notice; the
//! high-contrast "skyline"; the smooth indoor "office"; and the warm,
//! textured "thai".
//!
//! Frames are rendered deterministically from a seed, support an animation
//! parameter (frame index) so multi-frame sequences can be produced, and are
//! rendered as stereo pairs (two side-by-side sub-frames with a small
//! parallax offset) exactly like the paper's per-eye frames.
//!
//! # Examples
//!
//! ```
//! use pvc_scenes::{SceneId, SceneRenderer, SceneConfig};
//! use pvc_frame::Dimensions;
//!
//! let config = SceneConfig::new(Dimensions::new(128, 64));
//! let renderer = SceneRenderer::new(SceneId::Fortnite, config);
//! let frame = renderer.render_srgb(0);
//! assert_eq!(frame.dimensions(), Dimensions::new(128, 64));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod noise;
pub mod renderer;
pub mod statistics;

pub use noise::FractalNoise;
pub use renderer::{SceneConfig, SceneId, SceneRenderer};
pub use statistics::SceneStatistics;
