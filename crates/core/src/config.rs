//! Encoder configuration.

use pvc_color::RgbAxis;
use pvc_fovea::FoveaConfig;
use pvc_frame::DEFAULT_TILE_SIZE;

/// Temporal (inter-frame) coding configuration.
///
/// When enabled, frames whose absolute index is a multiple of
/// `keyframe_interval` are emitted as intra keyframes and every other
/// frame as a predicted frame of per-tile Skip / Delta / Intra records
/// against the previous adjusted frame. Keying the schedule to the
/// *absolute* frame index (rather than a GOP-relative counter) keeps the
/// emitted stream a pure function of the frame index, which the
/// migration/shed determinism pins rely on: after a forced intra refresh
/// at a handoff boundary, the stream re-aligns bit-exactly with a solo
/// run at the next interval multiple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemporalConfig {
    /// Emit an intra keyframe every this many frames (≥ 1; 1 means every
    /// frame is a keyframe, i.e. intra-only bytes).
    pub keyframe_interval: u32,
    /// Whether temporal coding is on. Off by default: intra-only output
    /// is byte-identical to pre-temporal builds.
    pub enabled: bool,
}

impl Default for TemporalConfig {
    fn default() -> Self {
        TemporalConfig {
            // One refresh per sixth of a second on the baseline 72 Hz
            // tier — frequent enough that a dropped frame's stale window
            // stays short, long enough that keyframe overhead does not
            // eat the predicted frames' savings.
            keyframe_interval: 12,
            enabled: false,
        }
    }
}

impl TemporalConfig {
    /// Enabled temporal coding with the given keyframe cadence.
    ///
    /// # Panics
    ///
    /// Panics if `keyframe_interval` is zero.
    pub fn every(keyframe_interval: u32) -> Self {
        assert!(keyframe_interval > 0, "keyframe interval must be non-zero");
        TemporalConfig {
            keyframe_interval,
            enabled: true,
        }
    }
}

/// Configuration of the perceptual encoder.
#[derive(Debug, Clone, PartialEq)]
pub struct EncoderConfig {
    /// Side length of the square pixel tiles (4 in the paper's main
    /// configuration).
    pub tile_size: u32,
    /// Foveal bypass region: tiles overlapping it are not adjusted.
    pub fovea: FoveaConfig,
    /// The axes the adjustment is attempted along; the result with the
    /// smaller Δ cost wins. The paper uses Blue and Red.
    pub axes: Vec<RgbAxis>,
    /// Number of worker threads for frame encoding (1 = sequential).
    ///
    /// A struct-literal 0 is normalized to 1 at encoder
    /// construction — `PerceptualEncoder::new` and `BdEncoder::with_threads`
    /// are the single normalization points; no call site needs a `.max(1)`
    /// guard.
    pub threads: usize,
    /// Temporal (inter-frame) coding; disabled by default.
    pub temporal: TemporalConfig,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig {
            tile_size: DEFAULT_TILE_SIZE,
            fovea: FoveaConfig::default(),
            axes: RgbAxis::OPTIMIZED.to_vec(),
            threads: 1,
            temporal: TemporalConfig::default(),
        }
    }
}

impl EncoderConfig {
    /// Returns a copy with a different tile size (Fig. 15 sweeps 4–16).
    ///
    /// # Panics
    ///
    /// Panics if `tile_size` is zero.
    pub fn with_tile_size(mut self, tile_size: u32) -> Self {
        assert!(tile_size > 0, "tile size must be non-zero");
        self.tile_size = tile_size;
        self
    }

    /// Returns a copy with a different foveal bypass configuration.
    pub fn with_fovea(mut self, fovea: FoveaConfig) -> Self {
        self.fovea = fovea;
        self
    }

    /// Returns a copy that only optimizes along the given axes.
    ///
    /// # Panics
    ///
    /// Panics if `axes` is empty.
    pub fn with_axes(mut self, axes: Vec<RgbAxis>) -> Self {
        assert!(
            !axes.is_empty(),
            "at least one optimization axis is required"
        );
        self.axes = axes;
        self
    }

    /// Returns a copy that encodes tiles on `threads` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "thread count must be non-zero");
        self.threads = threads;
        self
    }

    /// Returns a copy with the given temporal coding configuration.
    pub fn with_temporal(mut self, temporal: TemporalConfig) -> Self {
        self.temporal = temporal;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_configuration() {
        let c = EncoderConfig::default();
        assert_eq!(c.tile_size, 4);
        assert_eq!(c.axes, vec![RgbAxis::Blue, RgbAxis::Red]);
        assert_eq!(c.threads, 1);
        assert!((c.fovea.bypass_radius_deg - 5.0).abs() < 1e-12);
        assert!(!c.temporal.enabled, "temporal coding is opt-in");
    }

    #[test]
    fn temporal_builder_applies() {
        let c = EncoderConfig::default().with_temporal(TemporalConfig::every(3));
        assert!(c.temporal.enabled);
        assert_eq!(c.temporal.keyframe_interval, 3);
    }

    #[test]
    #[should_panic]
    fn zero_keyframe_interval_panics() {
        let _ = TemporalConfig::every(0);
    }

    #[test]
    fn builder_methods_apply() {
        let c = EncoderConfig::default()
            .with_tile_size(8)
            .with_axes(vec![RgbAxis::Blue])
            .with_threads(4)
            .with_fovea(FoveaConfig::disabled());
        assert_eq!(c.tile_size, 8);
        assert_eq!(c.axes, vec![RgbAxis::Blue]);
        assert_eq!(c.threads, 4);
        assert_eq!(c.fovea.bypass_radius_deg, 0.0);
    }

    #[test]
    #[should_panic]
    fn empty_axes_panics() {
        let _ = EncoderConfig::default().with_axes(vec![]);
    }

    #[test]
    #[should_panic]
    fn zero_tile_size_panics() {
        let _ = EncoderConfig::default().with_tile_size(0);
    }
}
