//! Ablation studies over the encoder's design choices.
//!
//! Three design decisions are worth ablating (`docs/ARCHITECTURE.md`,
//! "Substitutions"): the choice of optimization axes (Blue and Red, per
//! the paper's relaxation), the foveal bypass radius, and the overall
//! scale of the discrimination model (the per-user calibration lever of
//! Sec. 6.5). This module runs the encoder
//! with each variant on the same frame so the contribution of each choice
//! can be quantified; the `tab_ablation` binary in `pvc-bench` prints the
//! resulting table.

use crate::config::EncoderConfig;
use crate::encoder::PerceptualEncoder;
use pvc_color::{RgbAxis, SyntheticDiscriminationModel};
use pvc_fovea::{DisplayGeometry, FoveaConfig, GazePoint};
use pvc_frame::LinearFrame;

/// One encoder variant evaluated by the ablation.
#[derive(Debug, Clone, PartialEq)]
pub enum AblationVariant {
    /// The paper's full configuration (Blue + Red axes, 5° bypass).
    Full,
    /// Optimize along a single axis only.
    SingleAxis(RgbAxis),
    /// Optimize along all three axes (including Green).
    AllAxes,
    /// Disable the foveal bypass entirely.
    NoFovealBypass,
    /// Enlarge the protected foveal region to the given radius in degrees.
    WideFovealBypass(f64),
    /// Scale the discrimination model (per-user calibration, Sec. 6.5).
    ModelScale(f64),
}

impl AblationVariant {
    /// The default set of variants reported by the ablation table.
    pub fn standard_set() -> Vec<AblationVariant> {
        vec![
            AblationVariant::Full,
            AblationVariant::SingleAxis(RgbAxis::Blue),
            AblationVariant::SingleAxis(RgbAxis::Red),
            AblationVariant::AllAxes,
            AblationVariant::NoFovealBypass,
            AblationVariant::WideFovealBypass(10.0),
            AblationVariant::ModelScale(0.5),
            AblationVariant::ModelScale(2.0),
        ]
    }

    /// A short human-readable label.
    pub fn label(&self) -> String {
        match self {
            AblationVariant::Full => "full (B+R, 5° bypass)".to_string(),
            AblationVariant::SingleAxis(axis) => format!("single axis {axis}"),
            AblationVariant::AllAxes => "all three axes".to_string(),
            AblationVariant::NoFovealBypass => "no foveal bypass".to_string(),
            AblationVariant::WideFovealBypass(deg) => format!("{deg}° foveal bypass"),
            AblationVariant::ModelScale(s) => format!("model scale {s}x"),
        }
    }

    fn encoder_config(&self, base: &EncoderConfig) -> EncoderConfig {
        match self {
            AblationVariant::Full | AblationVariant::ModelScale(_) => base.clone(),
            AblationVariant::SingleAxis(axis) => base.clone().with_axes(vec![*axis]),
            AblationVariant::AllAxes => base.clone().with_axes(RgbAxis::ALL.to_vec()),
            AblationVariant::NoFovealBypass => base.clone().with_fovea(FoveaConfig::disabled()),
            AblationVariant::WideFovealBypass(deg) => {
                base.clone().with_fovea(FoveaConfig::new(*deg))
            }
        }
    }

    fn model(&self) -> SyntheticDiscriminationModel {
        match self {
            AblationVariant::ModelScale(s) => SyntheticDiscriminationModel::with_scale(*s),
            _ => SyntheticDiscriminationModel::default(),
        }
    }
}

impl std::fmt::Display for AblationVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// The measured outcome of one ablation variant.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResult {
    /// The variant.
    pub variant: AblationVariant,
    /// Compressed bits per pixel of the variant.
    pub bits_per_pixel: f64,
    /// Traffic reduction over the unadjusted BD baseline, percent.
    pub reduction_over_bd: f64,
    /// Fraction of tiles that were bypassed as foveal.
    pub foveal_tile_fraction: f64,
}

/// Runs all requested variants on one frame.
///
/// # Panics
///
/// Panics if the frame and display dimensions differ.
pub fn run_ablation(
    frame: &LinearFrame,
    display: &DisplayGeometry,
    gaze: GazePoint,
    base: &EncoderConfig,
    variants: &[AblationVariant],
) -> Vec<AblationResult> {
    variants
        .iter()
        .map(|variant| {
            let encoder = PerceptualEncoder::new(variant.model(), variant.encoder_config(base));
            let result = encoder.encode_frame(frame, display, gaze);
            AblationResult {
                variant: variant.clone(),
                bits_per_pixel: result.our_stats().bits_per_pixel(),
                reduction_over_bd: result.reduction_over_bd_percent(),
                foveal_tile_fraction: result.stats.foveal_tiles as f64
                    / result.stats.total_tiles.max(1) as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_frame::Dimensions;
    use pvc_scenes::{SceneConfig, SceneId, SceneRenderer};

    fn setup() -> (LinearFrame, DisplayGeometry, GazePoint) {
        let dims = Dimensions::new(128, 96);
        let frame = SceneRenderer::new(SceneId::Office, SceneConfig::new(dims)).render_linear(0);
        (
            frame,
            DisplayGeometry::quest2_like(dims),
            GazePoint::center_of(dims),
        )
    }

    fn result_of(results: &[AblationResult], variant: &AblationVariant) -> AblationResult {
        results
            .iter()
            .find(|r| &r.variant == variant)
            .expect("variant measured")
            .clone()
    }

    #[test]
    fn standard_set_runs_and_labels_are_unique() {
        let (frame, display, gaze) = setup();
        let variants = AblationVariant::standard_set();
        let results = run_ablation(&frame, &display, gaze, &EncoderConfig::default(), &variants);
        assert_eq!(results.len(), variants.len());
        let labels: std::collections::HashSet<String> =
            results.iter().map(|r| r.variant.label()).collect();
        assert_eq!(labels.len(), variants.len());
    }

    #[test]
    fn blue_axis_dominates_red_axis() {
        // With the published DKL matrix the ellipsoids are elongated along
        // Blue, so a Blue-only encoder must compress at least as well as a
        // Red-only encoder.
        let (frame, display, gaze) = setup();
        let results = run_ablation(
            &frame,
            &display,
            gaze,
            &EncoderConfig::default(),
            &[
                AblationVariant::SingleAxis(RgbAxis::Blue),
                AblationVariant::SingleAxis(RgbAxis::Red),
            ],
        );
        let blue = result_of(&results, &AblationVariant::SingleAxis(RgbAxis::Blue));
        let red = result_of(&results, &AblationVariant::SingleAxis(RgbAxis::Red));
        assert!(blue.bits_per_pixel <= red.bits_per_pixel + 1e-9);
    }

    #[test]
    fn trying_both_axes_is_at_least_as_good_as_either_alone() {
        let (frame, display, gaze) = setup();
        let results = run_ablation(
            &frame,
            &display,
            gaze,
            &EncoderConfig::default(),
            &[
                AblationVariant::Full,
                AblationVariant::SingleAxis(RgbAxis::Blue),
                AblationVariant::SingleAxis(RgbAxis::Red),
            ],
        );
        let full = result_of(&results, &AblationVariant::Full);
        for single in [RgbAxis::Blue, RgbAxis::Red] {
            let alone = result_of(&results, &AblationVariant::SingleAxis(single));
            assert!(full.bits_per_pixel <= alone.bits_per_pixel + 1e-9);
        }
    }

    #[test]
    fn wider_bypass_protects_more_and_compresses_less() {
        let (frame, display, gaze) = setup();
        let results = run_ablation(
            &frame,
            &display,
            gaze,
            &EncoderConfig::default(),
            &[
                AblationVariant::NoFovealBypass,
                AblationVariant::Full,
                AblationVariant::WideFovealBypass(15.0),
            ],
        );
        assert!(results[0].foveal_tile_fraction == 0.0);
        assert!(results[2].foveal_tile_fraction > results[1].foveal_tile_fraction);
        assert!(results[0].bits_per_pixel <= results[1].bits_per_pixel + 1e-9);
        assert!(results[1].bits_per_pixel <= results[2].bits_per_pixel + 1e-9);
    }

    #[test]
    fn larger_model_scale_compresses_at_least_as_well() {
        let (frame, display, gaze) = setup();
        let results = run_ablation(
            &frame,
            &display,
            gaze,
            &EncoderConfig::default(),
            &[
                AblationVariant::ModelScale(0.5),
                AblationVariant::ModelScale(2.0),
            ],
        );
        assert!(results[1].bits_per_pixel <= results[0].bits_per_pixel + 1e-9);
    }
}
