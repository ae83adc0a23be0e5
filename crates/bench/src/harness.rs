//! Shared measurement harness: render a scene, run every codec on it.

use pvc_baselines::{nocom_stats, PngLikeCodec, SccCodec, SccConfig};
use pvc_bdc::CompressionStats;
use pvc_color::SyntheticDiscriminationModel;
use pvc_core::{AdjustmentStats, EncoderConfig, PerceptualEncoder};
use pvc_fovea::{DisplayGeometry, GazePoint};
use pvc_frame::Dimensions;
use pvc_metrics::QualityReport;
use pvc_scenes::{SceneConfig, SceneId, SceneRenderer};

/// Configuration shared by all experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Per-eye frame resolution the scenes are rendered at. The paper runs
    /// at headset resolution; the default here keeps the harness fast while
    /// preserving tile statistics (results are reported in bits per pixel,
    /// which is resolution-independent to first order).
    pub dimensions: Dimensions,
    /// Number of animation frames averaged per scene.
    pub frames: u32,
    /// Encoder configuration (tile size, foveal bypass, axes).
    pub encoder: EncoderConfig,
    /// Lattice resolution of the SCC baseline (bits per channel).
    pub scc_bits_per_channel: u8,
    /// Whether to run the (slow) SCC and PNG baselines.
    pub include_offline_baselines: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            dimensions: Dimensions::new(384, 384),
            frames: 2,
            encoder: EncoderConfig::default(),
            scc_bits_per_channel: 5,
            include_offline_baselines: true,
        }
    }
}

impl ExperimentConfig {
    /// A reduced configuration for quick runs and Criterion benches.
    pub fn quick() -> Self {
        ExperimentConfig {
            dimensions: Dimensions::new(128, 128),
            frames: 1,
            encoder: EncoderConfig::default(),
            scc_bits_per_channel: 4,
            include_offline_baselines: false,
        }
    }

    /// Returns a copy using a different tile size for both the encoder and
    /// the BD baseline (Fig. 15).
    pub fn with_tile_size(mut self, tile_size: u32) -> Self {
        self.encoder = self.encoder.with_tile_size(tile_size);
        self
    }
}

/// Everything measured for one scene.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneMeasurement {
    /// The scene.
    pub scene: SceneId,
    /// Uncompressed baseline.
    pub nocom: CompressionStats,
    /// Base+Delta baseline on the unadjusted frames.
    pub bd: CompressionStats,
    /// Our perceptual encoding (adjustment + BD).
    pub ours: CompressionStats,
    /// PNG-style lossless baseline (absent in quick configurations).
    pub png: Option<CompressionStats>,
    /// SCC baseline (absent in quick configurations).
    pub scc: Option<CompressionStats>,
    /// Per-tile adjustment statistics summed over the measured frames.
    pub cases: AdjustmentStats,
    /// Objective quality of the adjusted frames against the originals.
    pub quality: QualityReport,
}

impl SceneMeasurement {
    /// Bandwidth reduction of our scheme over the uncompressed frames, %.
    pub fn reduction_over_nocom(&self) -> f64 {
        self.ours.bandwidth_reduction_percent()
    }

    /// Bandwidth reduction of our scheme over the BD baseline, %.
    pub fn reduction_over_bd(&self) -> f64 {
        self.ours.reduction_over(&self.bd)
    }
}

fn merge_stats(total: &mut Option<CompressionStats>, new: CompressionStats) {
    *total = Some(match total.take() {
        None => new,
        Some(acc) => CompressionStats {
            pixel_count: acc.pixel_count + new.pixel_count,
            uncompressed_bits: acc.uncompressed_bits + new.uncompressed_bits,
            compressed_bits: acc.compressed_bits + new.compressed_bits,
            breakdown: acc.breakdown + new.breakdown,
        },
    });
}

/// Measures one scene under the given configuration.
pub fn measure_scene(scene: SceneId, config: &ExperimentConfig) -> SceneMeasurement {
    let renderer = SceneRenderer::new(scene, SceneConfig::new(config.dimensions));
    let display = DisplayGeometry::quest2_like(config.dimensions);
    let gaze = GazePoint::center_of(config.dimensions);
    let model = SyntheticDiscriminationModel::default();
    let encoder = PerceptualEncoder::new(model, config.encoder.clone());
    let scc = if config.include_offline_baselines {
        Some(SccCodec::build(
            &model,
            SccConfig::new(config.scc_bits_per_channel, 30.0),
        ))
    } else {
        None
    };
    let png = PngLikeCodec::new();

    let mut nocom_acc = None;
    let mut bd_acc = None;
    let mut ours_acc = None;
    let mut png_acc: Option<CompressionStats> = None;
    let mut scc_acc: Option<CompressionStats> = None;
    let mut cases = AdjustmentStats::default();
    let mut mse_sum = 0.0;
    let mut quality = None;

    for frame_index in 0..config.frames.max(1) {
        let linear = renderer.render_linear(frame_index);
        let result = encoder.encode_frame(&linear, &display, gaze);
        merge_stats(&mut nocom_acc, nocom_stats(config.dimensions));
        merge_stats(&mut bd_acc, result.bd_stats());
        merge_stats(&mut ours_acc, result.our_stats());
        if config.include_offline_baselines {
            merge_stats(&mut png_acc, png.encode(&result.original).stats());
            if let Some(scc) = &scc {
                merge_stats(&mut scc_acc, scc.frame_stats(&result.original));
            }
        }
        cases.merge(&result.stats);
        let q = QualityReport::compare(&result.original, &result.adjusted)
            .expect("frames share dimensions");
        mse_sum += q.mse;
        quality = Some(q);
    }

    let mut quality = quality.expect("at least one frame");
    // Report the mean MSE/PSNR across frames rather than the last frame's.
    quality.mse = mse_sum / f64::from(config.frames.max(1));
    quality.psnr_db = if quality.mse == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (255.0f64 * 255.0 / quality.mse).log10()
    };

    SceneMeasurement {
        scene,
        nocom: nocom_acc.expect("measured"),
        bd: bd_acc.expect("measured"),
        ours: ours_acc.expect("measured"),
        png: png_acc,
        scc: scc_acc,
        cases,
        quality,
    }
}

/// Measures all six scenes.
pub fn measure_all_scenes(config: &ExperimentConfig) -> Vec<SceneMeasurement> {
    SceneId::ALL
        .iter()
        .map(|&scene| measure_scene(scene, config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_measurement_produces_consistent_numbers() {
        let config = ExperimentConfig::quick();
        let m = measure_scene(SceneId::Office, &config);
        assert_eq!(m.nocom.bandwidth_reduction_percent(), 0.0);
        assert!(m.reduction_over_nocom() > 0.0);
        assert!(m.reduction_over_bd() > 0.0);
        assert!(m.bd.bandwidth_reduction_percent() > 0.0);
        assert!(m.png.is_none());
        assert!(m.scc.is_none());
        assert_eq!(
            m.cases.total_tiles,
            (config.dimensions.pixel_count() / 16) * config.frames as usize
        );
        assert!(m.quality.psnr_db.is_finite());
    }

    #[test]
    fn offline_baselines_are_included_when_requested() {
        let config = ExperimentConfig {
            dimensions: Dimensions::new(96, 96),
            frames: 1,
            include_offline_baselines: true,
            scc_bits_per_channel: 4,
            ..ExperimentConfig::default()
        };
        let m = measure_scene(SceneId::Fortnite, &config);
        let png = m.png.expect("png baseline requested");
        let scc = m.scc.expect("scc baseline requested");
        assert!(png.compressed_bits > 0);
        // SCC uses a fixed number of bits per pixel, strictly fewer than 24.
        assert!(scc.bits_per_pixel() < 24.0);
        assert!(scc.bits_per_pixel() >= 1.0);
    }

    #[test]
    fn multiple_frames_accumulate_pixels() {
        let config = ExperimentConfig {
            frames: 2,
            ..ExperimentConfig::quick()
        };
        let m = measure_scene(SceneId::Dumbo, &config);
        assert_eq!(m.ours.pixel_count, config.dimensions.pixel_count() * 2);
    }
}
