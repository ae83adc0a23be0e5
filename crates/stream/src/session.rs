//! Session descriptions, heterogeneous display profiles, workload mixes
//! and per-session results.
//!
//! A *session* is one headset's stream. It is described declaratively by a
//! [`SessionConfig`] — *what content* (scene + seed) rendered under *which
//! display profile* ([`SessionProfile`]: resolution tier, per-eye render
//! size, frame budget, gaze model, optional encoder tile size) — so the
//! service can re-create a session's renderer, trace and encoder inside
//! whichever shard the session lands on. That is what makes the encoded
//! output a pure function of `(scene, seed, profile)`, independent of
//! shard count, placement policy and churn/cancel timing.
//!
//! Profiles are what make the serving workload *heterogeneous*: a single
//! runtime concurrently serves Quest-2-class sessions next to Vision-class
//! ones whose frames cost ~3.3× the pixels. [`WorkloadMix`] provides the
//! standard synthetic mixes (uniform / bimodal / heavy-tail) the stream
//! benchmarks use to exercise cost-aware placement.

use crate::gaze::GazeModel;
use pvc_core::BatchCacheStats;
use pvc_frame::Dimensions;
use pvc_metrics::{TemporalTotals, ThroughputReport};
use pvc_scenes::SceneId;

/// Salt mixed into a session's seed for gaze-trace synthesis, so scene
/// content and gaze randomness are decorrelated. Every component that
/// re-derives a session's trace (the runtime, hand-driven tests) must
/// use the same salt, or the "rebuilt from config alone" determinism
/// argument falls apart.
pub(crate) const GAZE_SEED_SALT: u64 = 0x6A7E_5EED_0BAD_CAFE;

/// A headset display class, used both as the scaling basis for
/// heterogeneous render sizes and as the telemetry label per-tier
/// reporting groups sessions under.
///
/// The per-eye panel sizes and refresh rates are the real devices'
/// (Quest 2: 1832×1920 @ 72 Hz, Quest-Pro-class: 1800×1920 @ 90 Hz,
/// Vision-class: 3660×3200 @ 96 Hz). Benchmarks rarely render at native
/// size; [`ResolutionTier::scale`] maps a Quest-2-equivalent base size to
/// this tier's proportionally scaled size so a scaled-down mix keeps the
/// real *relative* pixel costs (a Vision-class frame ≈ 3.3× a Quest-2
/// frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolutionTier {
    /// Quest-2 class: 1832×1920 per eye, 72 Hz. The baseline tier.
    Quest2,
    /// Quest-Pro class: 1800×1920 per eye, 90 Hz.
    QuestPro,
    /// Vision-class: 3660×3200 per eye, 96 Hz — ~3.3× the pixels per
    /// frame of the baseline tier.
    VisionClass,
}

impl ResolutionTier {
    /// Every tier, from cheapest to most expensive per frame.
    pub const ALL: [ResolutionTier; 3] = [
        ResolutionTier::Quest2,
        ResolutionTier::QuestPro,
        ResolutionTier::VisionClass,
    ];

    /// The tier's native per-eye panel resolution.
    pub fn per_eye(self) -> Dimensions {
        match self {
            ResolutionTier::Quest2 => Dimensions::new(1832, 1920),
            ResolutionTier::QuestPro => Dimensions::new(1800, 1920),
            ResolutionTier::VisionClass => Dimensions::new(3660, 3200),
        }
    }

    /// The tier's display refresh rate in Hz; scales the frame budget a
    /// fixed-duration session needs.
    pub fn refresh_hz(self) -> u32 {
        match self {
            ResolutionTier::Quest2 => 72,
            ResolutionTier::QuestPro => 90,
            ResolutionTier::VisionClass => 96,
        }
    }

    /// Short telemetry/CLI label.
    pub fn name(self) -> &'static str {
        match self {
            ResolutionTier::Quest2 => "quest2",
            ResolutionTier::QuestPro => "quest-pro",
            ResolutionTier::VisionClass => "vision",
        }
    }

    /// Scales a Quest-2-equivalent base render size to this tier,
    /// preserving the tiers' native per-axis ratios (each axis at least
    /// 1 px). `scale(base)` on [`ResolutionTier::Quest2`] is the identity.
    pub fn scale(self, base: Dimensions) -> Dimensions {
        let reference = ResolutionTier::Quest2.per_eye();
        let native = self.per_eye();
        let scale_axis = |value: u32, from: u32, to: u32| -> u32 {
            ((u64::from(value) * u64::from(to)) / u64::from(from)).max(1) as u32
        };
        Dimensions::new(
            scale_axis(base.width, reference.width, native.width),
            scale_axis(base.height, reference.height, native.height),
        )
    }

    /// Scales a 72 Hz-equivalent frame budget to this tier's refresh rate
    /// (at least 1 frame): a session streaming for the same wall-clock
    /// duration needs proportionally more frames on a faster display.
    pub fn frame_budget(self, base_frames: u32) -> u32 {
        ((u64::from(base_frames) * u64::from(self.refresh_hz())) / 72).max(1) as u32
    }

    /// The encoder tile size this tier overrides, if any. Vision-class
    /// displays use 8×8 tiles (double the paper's 4×4 default): at ~2× the
    /// linear resolution, an 8 px tile covers the same visual angle the
    /// baseline tier's 4 px tile does.
    pub fn tile_size(self) -> Option<u32> {
        match self {
            ResolutionTier::Quest2 | ResolutionTier::QuestPro => None,
            ResolutionTier::VisionClass => Some(8),
        }
    }

    /// The tier's position in [`ResolutionTier::ALL`], as the compact
    /// class key per-tier trace tables index by (see
    /// [`pvc_trace::TIER_CLASS_COUNT`] — classes beyond the tiers are the
    /// catch-all [`pvc_trace::CLASS_OTHER`]).
    pub fn class_index(self) -> u8 {
        match self {
            ResolutionTier::Quest2 => 0,
            ResolutionTier::QuestPro => 1,
            ResolutionTier::VisionClass => 2,
        }
    }

    /// The next-cheaper tier in [`ResolutionTier::ALL`], or `None` for
    /// the baseline tier — the shedding ladder the elastic controller
    /// walks down under sustained overload.
    pub fn lower(self) -> Option<ResolutionTier> {
        let index = ResolutionTier::ALL
            .iter()
            .position(|&tier| tier == self)
            .expect("every tier is in ALL");
        index.checked_sub(1).map(|lower| ResolutionTier::ALL[lower])
    }
}

/// The per-session display profile: everything about *how* a session
/// renders and streams, independent of *what* it shows (scene + seed).
///
/// The profile is part of the determinism contract: a session's encoded
/// stream is a pure function of `(scene, seed, profile)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionProfile {
    /// The display class, used for tier-scaled sizing and as the label
    /// per-tier telemetry groups this session under.
    pub tier: ResolutionTier,
    /// Per-eye render resolution; also the rendered frame size. May be a
    /// scaled-down stand-in for the tier's native size (benchmarks) or the
    /// native size itself.
    pub dimensions: Dimensions,
    /// Frame budget: how many frames the session streams to completion
    /// (hard-cancel can end it earlier).
    pub frames: u32,
    /// How this session's gaze moves.
    pub gaze_model: GazeModel,
    /// Per-session encoder tile size; `None` uses the service-wide
    /// encoder configuration unchanged.
    pub tile_size: Option<u32>,
}

impl SessionProfile {
    /// A profile rendering at exactly `dimensions` for `frames` frames,
    /// labelled as the baseline [`ResolutionTier::Quest2`] tier, with the
    /// default fixation/saccade gaze model for the display size and no
    /// tile-size override. The homogeneous-workload building block.
    pub fn custom(dimensions: Dimensions, frames: u32) -> SessionProfile {
        SessionProfile {
            tier: ResolutionTier::Quest2,
            dimensions,
            frames,
            gaze_model: GazeModel::default_for(dimensions),
            tile_size: None,
        }
    }

    /// A profile for `tier`, sized and budgeted relative to a
    /// Quest-2-equivalent base: render size [`ResolutionTier::scale`]d
    /// from `base`, frame budget [`ResolutionTier::frame_budget`]-scaled
    /// from `base_frames` (72 Hz-equivalent), the tier's default tile
    /// size, and the default gaze model for the scaled display.
    pub fn for_tier(tier: ResolutionTier, base: Dimensions, base_frames: u32) -> SessionProfile {
        let dimensions = tier.scale(base);
        SessionProfile {
            tier,
            dimensions,
            frames: tier.frame_budget(base_frames),
            gaze_model: GazeModel::default_for(dimensions),
            tile_size: tier.tile_size(),
        }
    }

    /// Returns the profile with a different gaze model.
    pub fn with_gaze_model(mut self, gaze_model: GazeModel) -> SessionProfile {
        self.gaze_model = gaze_model;
        self
    }

    /// Returns the profile with a different frame budget.
    pub fn with_frames(mut self, frames: u32) -> SessionProfile {
        self.frames = frames;
        self
    }

    /// Returns the profile with a per-session encoder tile size (`None`
    /// restores the service-wide default).
    pub fn with_tile_size(mut self, tile_size: Option<u32>) -> SessionProfile {
        self.tile_size = tile_size;
        self
    }

    /// The profile's per-frame pixel cost — the weight cost-aware
    /// placement balances across shards.
    pub fn pixel_cost(&self) -> u64 {
        self.dimensions.pixel_count() as u64
    }

    /// The same session one [`ResolutionTier`] down, or `None` when this
    /// profile is already at the baseline tier.
    ///
    /// Every field is re-derived from the *current* profile the same way
    /// [`SessionProfile::for_tier`] derives it from a base: render size
    /// rescaled per-axis by the tiers' native panel ratio, frame budget
    /// rescaled by the refresh-rate ratio (both at least 1), the lower
    /// tier's default tile size, and the default gaze model for the
    /// rescaled display. That by-construction rule is what makes the shed
    /// determinism pin checkable: a solo run started directly on
    /// `profile.downgraded()` produces the exact stream a shed session
    /// produces after its downgrade frame.
    pub fn downgraded(&self) -> Option<SessionProfile> {
        let lower = self.tier.lower()?;
        let from = self.tier.per_eye();
        let to = lower.per_eye();
        let scale_axis = |value: u32, from: u32, to: u32| -> u32 {
            ((u64::from(value) * u64::from(to)) / u64::from(from)).max(1) as u32
        };
        let dimensions = Dimensions::new(
            scale_axis(self.dimensions.width, from.width, to.width),
            scale_axis(self.dimensions.height, from.height, to.height),
        );
        let frames = ((u64::from(self.frames) * u64::from(lower.refresh_hz()))
            / u64::from(self.tier.refresh_hz()))
        .max(1) as u32;
        Some(SessionProfile {
            tier: lower,
            dimensions,
            frames,
            gaze_model: GazeModel::default_for(dimensions),
            tile_size: lower.tile_size(),
        })
    }
}

/// A synthetic population mix over the resolution tiers.
///
/// The mix decides which [`ResolutionTier`] the `index`-th synthetic
/// session gets; everything else about the session still comes from
/// [`SessionConfig::synthetic_mixed`]. Uniform is the homogeneous
/// baseline; bimodal and heavy-tail are the shapes under which
/// session-count-balancing placement visibly mis-routes pixel load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadMix {
    /// Every session is Quest-2 class (the homogeneous baseline).
    Uniform,
    /// Alternating Quest-2 / Vision-class sessions: half the fleet costs
    /// ~3.3× the other half per frame.
    Bimodal,
    /// Mostly Quest-2, a quarter Quest-Pro, one Vision-class whale per
    /// eight sessions.
    HeavyTail,
}

impl WorkloadMix {
    /// Every mix, in CLI-listing order.
    pub const ALL: [WorkloadMix; 3] = [
        WorkloadMix::Uniform,
        WorkloadMix::Bimodal,
        WorkloadMix::HeavyTail,
    ];

    /// CLI/report label.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadMix::Uniform => "uniform",
            WorkloadMix::Bimodal => "bimodal",
            WorkloadMix::HeavyTail => "heavy-tail",
        }
    }

    /// Parses a CLI label (`uniform` / `bimodal` / `heavy-tail`).
    pub fn from_name(name: &str) -> Option<WorkloadMix> {
        WorkloadMix::ALL.into_iter().find(|mix| mix.name() == name)
    }

    /// The tier the `index`-th synthetic session of this mix gets.
    pub fn tier_for(self, index: usize) -> ResolutionTier {
        match self {
            WorkloadMix::Uniform => ResolutionTier::Quest2,
            WorkloadMix::Bimodal => {
                if index % 2 == 0 {
                    ResolutionTier::Quest2
                } else {
                    ResolutionTier::VisionClass
                }
            }
            WorkloadMix::HeavyTail => match index % 8 {
                0 => ResolutionTier::VisionClass,
                1 | 2 => ResolutionTier::QuestPro,
                _ => ResolutionTier::Quest2,
            },
        }
    }
}

/// Everything needed to (re)create one headset's stream: *what* is shown
/// (scene + seed) and *how* it renders and streams (the profile).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// The scene rendered for this headset.
    pub scene: SceneId,
    /// Seed for both the scene's animation content and the gaze trace.
    pub seed: u64,
    /// The display/streaming profile.
    pub profile: SessionProfile,
}

impl SessionConfig {
    /// Creates a session from its three determinism-relevant parts.
    pub fn new(scene: SceneId, seed: u64, profile: SessionProfile) -> SessionConfig {
        SessionConfig {
            scene,
            seed,
            profile,
        }
    }

    /// A synthetic session for load generation: scene dealt round-robin
    /// from the catalogue by `index`, a seed derived from `index`, and a
    /// homogeneous [`SessionProfile::custom`] profile at `dimensions`.
    pub fn synthetic(index: usize, dimensions: Dimensions, frames: u32) -> SessionConfig {
        SessionConfig::new(
            SceneId::by_index(index),
            synthetic_seed(index),
            SessionProfile::custom(dimensions, frames),
        )
    }

    /// A synthetic session drawn from a [`WorkloadMix`]: like
    /// [`Self::synthetic`], but the profile is
    /// [`SessionProfile::for_tier`] for the tier the mix deals to
    /// `index`, with `base`/`base_frames` as the Quest-2-equivalent
    /// render size and 72 Hz-equivalent frame budget.
    pub fn synthetic_mixed(
        index: usize,
        mix: WorkloadMix,
        base: Dimensions,
        base_frames: u32,
    ) -> SessionConfig {
        SessionConfig::new(
            SceneId::by_index(index),
            synthetic_seed(index),
            SessionProfile::for_tier(mix.tier_for(index), base, base_frames),
        )
    }

    /// Returns the session with a different gaze model.
    pub fn with_gaze_model(mut self, gaze_model: GazeModel) -> SessionConfig {
        self.profile.gaze_model = gaze_model;
        self
    }

    /// Returns the session with a different seed.
    pub fn with_seed(mut self, seed: u64) -> SessionConfig {
        self.seed = seed;
        self
    }

    /// Returns the session with a different profile.
    pub fn with_profile(mut self, profile: SessionProfile) -> SessionConfig {
        self.profile = profile;
        self
    }

    /// Per-eye render resolution (from the profile).
    pub fn dimensions(&self) -> Dimensions {
        self.profile.dimensions
    }

    /// Frame budget (from the profile).
    pub fn frames(&self) -> u32 {
        self.profile.frames
    }

    /// Gaze model (from the profile).
    pub fn gaze_model(&self) -> GazeModel {
        self.profile.gaze_model
    }

    /// Per-frame pixel cost (from the profile) — what cost-aware placement
    /// weighs this session by.
    pub fn pixel_cost(&self) -> u64 {
        self.profile.pixel_cost()
    }
}

/// SplitMix64-style dispersion so neighbouring indices get unrelated
/// scene/gaze randomness.
fn synthetic_seed(index: usize) -> u64 {
    (index as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0x5EED_CAFE)
}

/// What one session's stream produced, as observed by the service.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// The session's id (its admission index).
    pub session: usize,
    /// The scene the session streamed.
    pub scene: SceneId,
    /// The session's resolution tier (per-tier telemetry groups by this).
    pub tier: ResolutionTier,
    /// Shard the session was routed to.
    pub shard: usize,
    /// True when the stream was hard-cancelled
    /// ([`crate::StreamRuntime::retire_now`]): the session ended before
    /// its frame budget and `throughput` covers only the frames actually
    /// encoded.
    pub cancelled: bool,
    /// Frame/byte/pixel totals. `wall_seconds` is the session's own
    /// elapsed stream time — from its first frame's encode start to its
    /// last frame's encode end — so per-session `frames_per_second()` and
    /// `output_megabits_per_second()` are meaningful (and non-zero for any
    /// session that encoded at least one frame). Because sessions share
    /// their shard's threads, the time includes waiting between the session's own
    /// frames; it measures delivered stream rate, not encoder occupancy.
    pub throughput: ThroughputReport,
    /// The session's eccentricity-map cache counters.
    pub cache: BatchCacheStats,
    /// Temporal-coding totals: keyframe/predicted frame counts, per-mode
    /// tile counts, and emitted vs. would-have-been-intra bits. On an
    /// intra-only session every frame counts as a keyframe and
    /// `bits == intra_bits`.
    pub temporal: TemporalTotals,
    /// Chained FNV-1a digest over every frame's encoded bitstream, in frame
    /// order — two runs produced bit-identical streams iff digests match.
    pub stream_digest: u64,
    /// The per-frame encoded bitstreams, kept only when
    /// [`crate::ServiceConfig::collect_payloads`] is set (tests, debugging).
    pub payloads: Option<Vec<Vec<u8>>>,
    /// The session's framed byte stream (see [`crate::wire`]), kept only
    /// when [`crate::ServiceConfig::collect_wire`] is set — this is what
    /// a client (the `pvc_client` crate) actually receives and decodes.
    pub wire_stream: Option<Vec<u8>>,
    /// The tier the session was admitted at, when the control plane shed
    /// it to a lower tier mid-stream (`tier` is then the final tier).
    pub downgraded_from: Option<ResolutionTier>,
    /// The frame index (in the *downgraded* profile's numbering) at which
    /// the shed took effect: frames `downgrade_frame..` were encoded at
    /// the lower tier.
    pub downgrade_frame: Option<u32>,
}

/// Seed value of the FNV-1a digest chain.
pub(crate) const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a digest.
pub(crate) fn fnv1a_update(mut hash: u64, bytes: &[u8]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_sessions_cycle_scenes_and_disperse_seeds() {
        let dims = Dimensions::new(64, 64);
        let a = SessionConfig::synthetic(0, dims, 10);
        let b = SessionConfig::synthetic(1, dims, 10);
        let g = SessionConfig::synthetic(6, dims, 10);
        assert_eq!(a.scene, SceneId::Office);
        assert_eq!(b.scene, SceneId::Fortnite);
        assert_eq!(g.scene, a.scene, "index 6 wraps back to the first scene");
        assert_ne!(a.seed, g.seed, "same scene, different content");
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.profile.tier, ResolutionTier::Quest2);
        assert_eq!(a.dimensions(), dims);
        assert_eq!(a.frames(), 10);
        assert_eq!(a.pixel_cost(), 64 * 64);
    }

    #[test]
    fn builders_override_fields() {
        let dims = Dimensions::new(32, 32);
        let s = SessionConfig::synthetic(0, dims, 5)
            .with_seed(77)
            .with_gaze_model(GazeModel::pursuit(2.0));
        assert_eq!(s.seed, 77);
        assert_eq!(s.gaze_model(), GazeModel::pursuit(2.0));
        let p = SessionProfile::custom(dims, 5)
            .with_frames(9)
            .with_tile_size(Some(8));
        let s = s.with_profile(p);
        assert_eq!(s.frames(), 9);
        assert_eq!(s.profile.tile_size, Some(8));
    }

    #[test]
    fn tier_scaling_preserves_relative_pixel_cost() {
        let base = Dimensions::new(96, 96);
        let quest2 = ResolutionTier::Quest2.scale(base);
        assert_eq!(quest2, base, "the baseline tier is the identity");
        let vision = ResolutionTier::VisionClass.scale(base);
        let ratio = (vision.pixel_count() as f64) / (base.pixel_count() as f64);
        let native_ratio = ResolutionTier::VisionClass.per_eye().pixel_count() as f64
            / ResolutionTier::Quest2.per_eye().pixel_count() as f64;
        assert!(
            (ratio - native_ratio).abs() / native_ratio < 0.05,
            "scaled pixel ratio {ratio:.2} should track the native {native_ratio:.2}"
        );
        // Tiny bases never collapse to zero-size frames.
        let tiny = ResolutionTier::QuestPro.scale(Dimensions::new(1, 1));
        assert!(tiny.width >= 1 && tiny.height >= 1);
    }

    #[test]
    fn frame_budgets_scale_with_refresh_rate() {
        assert_eq!(ResolutionTier::Quest2.frame_budget(12), 12);
        assert_eq!(ResolutionTier::QuestPro.frame_budget(12), 15, "90/72 Hz");
        assert_eq!(ResolutionTier::VisionClass.frame_budget(12), 16, "96/72 Hz");
        assert_eq!(
            ResolutionTier::Quest2.frame_budget(0),
            1,
            "budgets are at least one frame"
        );
    }

    #[test]
    fn for_tier_profiles_carry_tier_defaults() {
        let base = Dimensions::new(96, 96);
        let vision = SessionProfile::for_tier(ResolutionTier::VisionClass, base, 12);
        assert_eq!(vision.tile_size, Some(8));
        assert_eq!(vision.frames, 16);
        assert_eq!(
            vision.gaze_model,
            GazeModel::default_for(vision.dimensions),
            "gaze magnitudes follow the scaled display, not the base"
        );
        let quest2 = SessionProfile::for_tier(ResolutionTier::Quest2, base, 12);
        assert_eq!(quest2.tile_size, None);
        assert!(vision.pixel_cost() > 3 * quest2.pixel_cost());
    }

    #[test]
    fn mixes_deal_the_documented_tier_sequences() {
        assert!((0..16).all(|i| WorkloadMix::Uniform.tier_for(i) == ResolutionTier::Quest2));
        let bimodal: Vec<ResolutionTier> =
            (0..4).map(|i| WorkloadMix::Bimodal.tier_for(i)).collect();
        assert_eq!(
            bimodal,
            [
                ResolutionTier::Quest2,
                ResolutionTier::VisionClass,
                ResolutionTier::Quest2,
                ResolutionTier::VisionClass,
            ]
        );
        let heavy: Vec<ResolutionTier> =
            (0..8).map(|i| WorkloadMix::HeavyTail.tier_for(i)).collect();
        assert_eq!(heavy[0], ResolutionTier::VisionClass, "one whale per eight");
        assert_eq!(heavy[1], ResolutionTier::QuestPro);
        assert_eq!(heavy[2], ResolutionTier::QuestPro);
        assert!(heavy[3..].iter().all(|&t| t == ResolutionTier::Quest2));
        // A heavy-tail population of eight spans all three tiers.
        assert_eq!(
            (0..8)
                .map(|i| WorkloadMix::HeavyTail.tier_for(i).name())
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            3
        );
    }

    #[test]
    fn mix_names_round_trip() {
        for mix in WorkloadMix::ALL {
            assert_eq!(WorkloadMix::from_name(mix.name()), Some(mix));
        }
        assert_eq!(WorkloadMix::from_name("gaussian"), None);
    }

    #[test]
    fn synthetic_mixed_sessions_share_seeds_with_uniform_ones() {
        // The mix only moves the profile: scene and seed stay a function
        // of the index, so mixed and uniform rosters are comparable.
        let base = Dimensions::new(96, 96);
        let uniform = SessionConfig::synthetic(5, base, 10);
        let mixed = SessionConfig::synthetic_mixed(5, WorkloadMix::Bimodal, base, 10);
        assert_eq!(uniform.scene, mixed.scene);
        assert_eq!(uniform.seed, mixed.seed);
        assert_eq!(mixed.profile.tier, ResolutionTier::VisionClass);
        assert!(mixed.pixel_cost() > 3 * uniform.pixel_cost());
    }

    #[test]
    fn the_shedding_ladder_walks_all_down_to_the_baseline() {
        assert_eq!(
            ResolutionTier::VisionClass.lower(),
            Some(ResolutionTier::QuestPro)
        );
        assert_eq!(
            ResolutionTier::QuestPro.lower(),
            Some(ResolutionTier::Quest2)
        );
        assert_eq!(ResolutionTier::Quest2.lower(), None);
    }

    #[test]
    fn downgraded_profiles_rederive_every_field() {
        let vision =
            SessionProfile::for_tier(ResolutionTier::VisionClass, Dimensions::new(32, 32), 100);
        let lower = vision.downgraded().expect("vision can shed");
        assert_eq!(lower.tier, ResolutionTier::QuestPro);
        // Per-axis rescale by the native panel ratio: 63·1800/3660 = 30,
        // 53·1920/3200 = 31. Frame budget 133·90/96 = 124.
        assert_eq!(vision.dimensions, Dimensions::new(63, 53));
        assert_eq!(vision.frames, 133);
        assert_eq!(lower.dimensions, Dimensions::new(30, 31));
        assert_eq!(lower.frames, 124);
        assert_eq!(lower.tile_size, None, "QuestPro drops the 8px override");
        assert_eq!(lower.gaze_model, GazeModel::default_for(lower.dimensions));
        assert!(lower.pixel_cost() < vision.pixel_cost());
        // The baseline tier has nowhere left to shed to.
        let quest2 = SessionProfile::custom(Dimensions::new(16, 16), 4);
        assert_eq!(quest2.downgraded(), None);
        // Tiny profiles never collapse to zero size or zero frames.
        let tiny = SessionProfile::for_tier(ResolutionTier::QuestPro, Dimensions::new(1, 1), 0)
            .downgraded()
            .expect("quest-pro can shed");
        assert!(tiny.dimensions.width >= 1 && tiny.dimensions.height >= 1);
        assert!(tiny.frames >= 1);
    }

    #[test]
    fn fnv_digest_is_order_sensitive() {
        let d1 = fnv1a_update(fnv1a_update(FNV_OFFSET_BASIS, b"ab"), b"cd");
        let d2 = fnv1a_update(fnv1a_update(FNV_OFFSET_BASIS, b"cd"), b"ab");
        assert_ne!(d1, d2);
        // Known FNV-1a vector: empty input leaves the offset basis.
        assert_eq!(fnv1a_update(FNV_OFFSET_BASIS, b""), FNV_OFFSET_BASIS);
    }
}
