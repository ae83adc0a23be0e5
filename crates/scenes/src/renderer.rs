//! The six synthetic VR scenes and their renderer.

use crate::noise::FractalNoise;
use pvc_color::LinearRgb;
use pvc_frame::{Dimensions, LinearFrame, SrgbFrame};

/// Identifier of one of the six evaluation scenes.
///
/// The names follow the paper's Fig. 10–15 so results can be compared
/// side by side; the content is synthetic (`docs/ARCHITECTURE.md`, substitution S2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SceneId {
    /// Smooth indoor office: mid luminance, large flat surfaces.
    Office,
    /// Bright, saturated outdoor scene dominated by greens.
    Fortnite,
    /// High-contrast city skyline with fine structure.
    Skyline,
    /// Dark night-time scene with sparse lights.
    Dumbo,
    /// Warm, textured temple interior.
    Thai,
    /// Dark, densely textured jungle scene.
    Monkey,
}

impl SceneId {
    /// All six scenes in the order the paper plots them.
    pub const ALL: [SceneId; 6] = [
        SceneId::Office,
        SceneId::Fortnite,
        SceneId::Skyline,
        SceneId::Dumbo,
        SceneId::Thai,
        SceneId::Monkey,
    ];

    /// The scene at `index` modulo the catalogue size, in [`Self::ALL`]
    /// order. Multi-session workloads use this to deal distinct scene
    /// content to an arbitrary number of concurrent sessions.
    pub fn by_index(index: usize) -> SceneId {
        SceneId::ALL[index % SceneId::ALL.len()]
    }

    /// Lower-case scene name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            SceneId::Office => "office",
            SceneId::Fortnite => "fortnite",
            SceneId::Skyline => "skyline",
            SceneId::Dumbo => "dumbo",
            SceneId::Thai => "thai",
            SceneId::Monkey => "monkey",
        }
    }

    /// True for the scenes the paper characterizes as dark (dumbo, monkey).
    pub fn is_dark(self) -> bool {
        matches!(self, SceneId::Dumbo | SceneId::Monkey)
    }

    /// Per-scene base RNG seed so every scene has distinct content.
    fn seed(self) -> u64 {
        match self {
            SceneId::Office => 0x0FF1CE,
            SceneId::Fortnite => 0xF047,
            SceneId::Skyline => 0x5C71,
            SceneId::Dumbo => 0xD0B0,
            SceneId::Thai => 0x7A41,
            SceneId::Monkey => 0x303C,
        }
    }
}

impl std::fmt::Display for SceneId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SceneId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SceneId::ALL
            .into_iter()
            .find(|id| id.name() == s.to_ascii_lowercase())
            .ok_or_else(|| format!("unknown scene '{s}'"))
    }
}

/// Configuration of a scene rendering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneConfig {
    /// Full frame dimensions (both eyes when `stereo` is true).
    pub dimensions: Dimensions,
    /// Whether to render two side-by-side per-eye sub-frames.
    pub stereo: bool,
    /// Extra seed mixed into the scene's own seed, for generating
    /// independent sequences.
    pub seed: u64,
}

impl SceneConfig {
    /// Creates a monoscopic configuration of the given size.
    pub fn new(dimensions: Dimensions) -> Self {
        SceneConfig {
            dimensions,
            stereo: false,
            seed: 0,
        }
    }

    /// Creates a stereo configuration (two per-eye sub-frames side by side).
    ///
    /// # Panics
    ///
    /// Panics if the width is odd.
    pub fn stereo(dimensions: Dimensions) -> Self {
        assert!(
            dimensions.width % 2 == 0,
            "stereo frames need an even width"
        );
        SceneConfig {
            dimensions,
            stereo: true,
            seed: 0,
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Renders frames of one synthetic scene.
///
/// # Examples
///
/// ```
/// use pvc_scenes::{SceneConfig, SceneId, SceneRenderer};
/// use pvc_frame::Dimensions;
/// let renderer = SceneRenderer::new(SceneId::Office, SceneConfig::new(Dimensions::new(64, 32)));
/// let a = renderer.render_srgb(0);
/// let b = renderer.render_srgb(1);
/// assert_ne!(a, b, "animation must change the frame");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneRenderer {
    scene: SceneId,
    config: SceneConfig,
}

impl SceneRenderer {
    /// Creates a renderer for a scene.
    pub fn new(scene: SceneId, config: SceneConfig) -> Self {
        SceneRenderer { scene, config }
    }

    /// The scene being rendered.
    pub fn scene(&self) -> SceneId {
        self.scene
    }

    /// The rendering configuration.
    pub fn config(&self) -> SceneConfig {
        self.config
    }

    /// Renders frame `index` of the animation in linear RGB.
    pub fn render_linear(&self, index: u32) -> LinearFrame {
        let mut frame = LinearFrame::filled(self.config.dimensions, LinearRgb::BLACK);
        self.render_linear_into(index, &mut frame);
        frame
    }

    /// Renders frame `index` into a caller-provided frame, resizing it to
    /// the renderer's dimensions and overwriting every pixel.
    ///
    /// Bit-identical to [`Self::render_linear`]; the buffer's capacity is
    /// reused, so a shard thread rendering every frame into its own
    /// buffer renders without per-frame allocation.
    pub fn render_linear_into(&self, index: u32, frame: &mut LinearFrame) {
        let dims = self.config.dimensions;
        // The loop below overwrites every pixel, so the fill only matters
        // when the buffer changes size — skipping it otherwise saves a
        // full-frame memset per recycled frame.
        if frame.dimensions() != dims {
            frame.reset(dims, LinearRgb::BLACK);
        }
        let noise = FractalNoise::new(self.scene.seed() ^ self.config.seed, 4, 0.55);
        let detail = FractalNoise::new(
            (self.scene.seed() ^ self.config.seed).wrapping_mul(0x2545_F491_4F6C_DD1D),
            5,
            0.5,
        );
        let time = f64::from(index) * 0.06;
        let eye_width = if self.config.stereo {
            dims.width / 2
        } else {
            dims.width
        };
        for y in 0..dims.height {
            for x in 0..dims.width {
                // Per-eye coordinates normalized to [0, 1]; the right eye is
                // shifted slightly to mimic stereo parallax.
                let (ex, parallax) = if self.config.stereo && x >= eye_width {
                    (x - eye_width, 0.012)
                } else {
                    (x, 0.0)
                };
                let u = (f64::from(ex) + 0.5) / f64::from(eye_width) + parallax + time * 0.05;
                let v = (f64::from(y) + 0.5) / f64::from(dims.height);
                let color = self.shade(u, v, time, &noise, &detail);
                frame.set_pixel(x, y, color.clamped());
            }
        }
    }

    /// Renders frame `index` and gamma-encodes it to 8-bit sRGB (what the
    /// framebuffer would hold).
    pub fn render_srgb(&self, index: u32) -> SrgbFrame {
        self.render_linear(index).to_srgb()
    }

    fn shade(
        &self,
        u: f64,
        v: f64,
        time: f64,
        noise: &FractalNoise,
        detail: &FractalNoise,
    ) -> LinearRgb {
        match self.scene {
            SceneId::Office => shade_office(u, v, noise, detail),
            SceneId::Fortnite => shade_fortnite(u, v, time, noise, detail),
            SceneId::Skyline => shade_skyline(u, v, noise, detail),
            SceneId::Dumbo => shade_dumbo(u, v, time, noise, detail),
            SceneId::Thai => shade_thai(u, v, noise, detail),
            SceneId::Monkey => shade_monkey(u, v, noise, detail),
        }
    }
}

fn mix(a: LinearRgb, b: LinearRgb, t: f64) -> LinearRgb {
    a.lerp(b, t.clamp(0.0, 1.0))
}

fn shade_office(u: f64, v: f64, noise: &FractalNoise, detail: &FractalNoise) -> LinearRgb {
    // Smooth beige walls with a darker floor, a window and a desk rectangle.
    let wall = LinearRgb::new(0.55, 0.5, 0.42);
    let floor = LinearRgb::new(0.28, 0.22, 0.18);
    let mut color = mix(wall, floor, ((v - 0.62) * 8.0).clamp(0.0, 1.0));
    // Window: a bright rectangle on the left wall.
    if (0.08..0.3).contains(&u) && (0.12..0.45).contains(&v) {
        let sky = LinearRgb::new(0.65, 0.75, 0.9);
        color = mix(color, sky, 0.9);
    }
    // Desk and monitor: darker rectangles with a slightly emissive screen.
    if (0.45..0.85).contains(&u) && (0.55..0.62).contains(&v) {
        color = LinearRgb::new(0.32, 0.2, 0.12);
    }
    if (0.55..0.72).contains(&u) && (0.35..0.52).contains(&v) {
        color = LinearRgb::new(0.12, 0.2, 0.3);
        color = mix(
            color,
            LinearRgb::new(0.3, 0.5, 0.7),
            detail.sample(u, v, 24.0) * 0.4,
        );
    }
    // Gentle ambient-occlusion-like shading and very mild texture.
    let shade = 0.92 + 0.08 * noise.sample(u, v, 3.0);
    LinearRgb::new(color.r * shade, color.g * shade, color.b * shade)
}

fn shade_fortnite(
    u: f64,
    v: f64,
    time: f64,
    noise: &FractalNoise,
    detail: &FractalNoise,
) -> LinearRgb {
    // Bright sky over rolling green terrain with saturated foliage.
    let sky_top = LinearRgb::new(0.35, 0.6, 0.95);
    let sky_bottom = LinearRgb::new(0.75, 0.85, 0.98);
    let horizon = 0.42 + 0.04 * noise.sample(u * 0.5 + time * 0.02, 0.3, 3.0);
    if v < horizon {
        let t = (v / horizon).clamp(0.0, 1.0);
        let mut sky = mix(sky_top, sky_bottom, t);
        // Puffy clouds.
        let cloud = noise.sample(u + time * 0.1, v * 2.0, 5.0);
        if cloud > 0.62 {
            sky = mix(sky, LinearRgb::new(0.95, 0.96, 0.98), (cloud - 0.62) * 2.2);
        }
        sky
    } else {
        let grass = LinearRgb::new(0.18, 0.62, 0.16);
        let meadow = LinearRgb::new(0.32, 0.72, 0.2);
        let blend = noise.sample(u * 2.0, v * 2.0, 6.0);
        let mut ground = mix(grass, meadow, blend);
        // Tree canopies: saturated dark green blobs.
        let canopy = detail.sample(u * 1.5, v * 1.5, 10.0);
        if canopy > 0.6 {
            ground = mix(ground, LinearRgb::new(0.08, 0.4, 0.1), (canopy - 0.6) * 2.0);
        }
        // Keep the scene bright overall.
        let sun = 0.9 + 0.1 * (1.0 - v);
        LinearRgb::new(ground.r * sun, ground.g * sun, ground.b * sun)
    }
}

fn shade_skyline(u: f64, v: f64, noise: &FractalNoise, detail: &FractalNoise) -> LinearRgb {
    // Dusk sky behind high-contrast building silhouettes with lit windows.
    let sky_top = LinearRgb::new(0.18, 0.2, 0.45);
    let sky_low = LinearRgb::new(0.85, 0.45, 0.25);
    let sky = mix(sky_top, sky_low, v.powf(1.5));
    // Building height field: blocky function of u.
    let column = (u * 14.0).floor();
    let building_height = 0.35 + 0.45 * noise.sample(column * 0.173 + 0.31, 0.5, 1.0);
    if v > building_height {
        // Facade: dark with bright window speckles (high-frequency detail).
        let mut facade = LinearRgb::new(0.05, 0.05, 0.08);
        let wx = (u * 140.0).floor();
        let wy = (v * 90.0).floor();
        let window = detail.sample(wx * 0.37, wy * 0.73, 1.0);
        if window > 0.78 {
            facade = LinearRgb::new(0.9, 0.8, 0.45);
        } else if window > 0.7 {
            facade = LinearRgb::new(0.35, 0.3, 0.2);
        }
        facade
    } else {
        sky
    }
}

fn shade_dumbo(
    u: f64,
    v: f64,
    time: f64,
    noise: &FractalNoise,
    detail: &FractalNoise,
) -> LinearRgb {
    // Dark night-time street under a bridge: low luminance, sparse lights.
    let night = LinearRgb::new(0.012, 0.015, 0.03);
    // Bridge deck: a very dark band across the top; street below with faint
    // reflections.
    let mut color = if v < 0.3 {
        let deck = LinearRgb::new(0.02, 0.018, 0.02);
        mix(
            deck,
            LinearRgb::new(0.05, 0.045, 0.05),
            noise.sample(u * 2.0, v * 4.0, 8.0),
        )
    } else {
        let street = LinearRgb::new(0.03, 0.03, 0.045);
        let base = mix(night, street, ((v - 0.3) * 2.0).clamp(0.0, 1.0));
        mix(
            base,
            LinearRgb::new(0.06, 0.05, 0.07),
            detail.sample(u * 3.0, v * 3.0, 12.0) * 0.5,
        )
    };
    // Street lamps: small warm glows that drift slightly over time.
    for lamp in 0..4 {
        let lx = 0.15 + 0.23 * f64::from(lamp) + 0.01 * (time + f64::from(lamp)).sin();
        let ly = 0.42;
        let d2 = (u - lx).powi(2) + (v - ly).powi(2);
        let glow = (-d2 * 800.0).exp();
        color = mix(color, LinearRgb::new(0.85, 0.6, 0.3), glow * 0.9);
    }
    color
}

fn shade_thai(u: f64, v: f64, noise: &FractalNoise, detail: &FractalNoise) -> LinearRgb {
    // Warm temple interior: gold and red ornamented surfaces, medium-high
    // spatial detail.
    let wall = LinearRgb::new(0.5, 0.22, 0.1);
    let gold = LinearRgb::new(0.75, 0.55, 0.18);
    let ornament = detail.sample(u * 3.0, v * 3.0, 18.0);
    let mut color = mix(wall, gold, (ornament - 0.35) * 1.6);
    // Pillars: vertical bright bands.
    let pillar = ((u * 6.0).fract() - 0.5).abs();
    if pillar < 0.12 {
        color = mix(color, LinearRgb::new(0.8, 0.62, 0.3), 0.7);
    }
    // Ceiling shadow gradient and candle-like warmth near the floor.
    let shade = 0.55 + 0.45 * noise.sample(u, v, 3.0);
    let warmth = 1.0 + 0.2 * (1.0 - v);
    LinearRgb::new(
        color.r * shade * warmth,
        color.g * shade,
        color.b * shade * 0.9,
    )
}

fn shade_monkey(u: f64, v: f64, noise: &FractalNoise, detail: &FractalNoise) -> LinearRgb {
    // Dark jungle: dense foliage texture at low luminance.
    let canopy_dark = LinearRgb::new(0.01, 0.03, 0.012);
    let canopy_mid = LinearRgb::new(0.03, 0.09, 0.03);
    let leaves = detail.sample(u * 2.5, v * 2.5, 16.0);
    let mut color = mix(canopy_dark, canopy_mid, leaves);
    // Occasional shafts of moonlight.
    let shaft = noise.sample(u * 1.2, 0.4, 2.0);
    if shaft > 0.72 {
        let strength = (shaft - 0.72) * 1.5 * (1.0 - v);
        color = mix(color, LinearRgb::new(0.12, 0.18, 0.14), strength);
    }
    // Ground mist near the bottom.
    if v > 0.8 {
        color = mix(color, LinearRgb::new(0.05, 0.07, 0.06), (v - 0.8) * 2.0);
    }
    color
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statistics::SceneStatistics;

    fn small_config() -> SceneConfig {
        SceneConfig::new(Dimensions::new(96, 64))
    }

    #[test]
    fn scene_names_roundtrip_through_fromstr() {
        for scene in SceneId::ALL {
            let parsed: SceneId = scene.name().parse().expect("parse scene name");
            assert_eq!(parsed, scene);
        }
        assert!("nonexistent".parse::<SceneId>().is_err());
    }

    #[test]
    fn by_index_cycles_through_the_catalogue() {
        assert_eq!(SceneId::by_index(0), SceneId::Office);
        assert_eq!(SceneId::by_index(5), SceneId::Monkey);
        assert_eq!(SceneId::by_index(6), SceneId::Office);
        for i in 0..SceneId::ALL.len() {
            assert_eq!(SceneId::by_index(i), SceneId::ALL[i]);
            assert_eq!(SceneId::by_index(i + SceneId::ALL.len()), SceneId::ALL[i]);
        }
    }

    #[test]
    fn rendering_is_deterministic() {
        let r = SceneRenderer::new(SceneId::Skyline, small_config());
        assert_eq!(r.render_srgb(3), r.render_srgb(3));
    }

    #[test]
    fn render_into_a_recycled_buffer_matches_a_fresh_render() {
        // A shard thread renders every session into one buffer of
        // arbitrary prior size and content; rendering into it must be
        // bit-identical to a fresh render.
        let r = SceneRenderer::new(SceneId::Thai, small_config());
        let mut recycled =
            LinearFrame::filled(Dimensions::new(7, 3), LinearRgb::new(0.9, 0.1, 0.5));
        for index in [0, 4] {
            r.render_linear_into(index, &mut recycled);
            assert_eq!(recycled, r.render_linear(index));
        }
    }

    #[test]
    fn different_scenes_produce_different_frames() {
        let a = SceneRenderer::new(SceneId::Office, small_config()).render_srgb(0);
        let b = SceneRenderer::new(SceneId::Thai, small_config()).render_srgb(0);
        assert_ne!(a, b);
    }

    #[test]
    fn animation_changes_the_frame() {
        let r = SceneRenderer::new(SceneId::Dumbo, small_config());
        assert_ne!(r.render_srgb(0), r.render_srgb(5));
    }

    #[test]
    fn fortnite_is_bright_and_green() {
        let frame = SceneRenderer::new(SceneId::Fortnite, small_config()).render_linear(0);
        let stats = SceneStatistics::of_linear(&frame);
        assert!(
            stats.mean_luminance > 0.25,
            "luminance {}",
            stats.mean_luminance
        );
        assert!(
            stats.green_dominant_fraction > 0.4,
            "green {}",
            stats.green_dominant_fraction
        );
    }

    #[test]
    fn dark_scenes_are_dark() {
        for scene in [SceneId::Dumbo, SceneId::Monkey] {
            let frame = SceneRenderer::new(scene, small_config()).render_linear(0);
            let stats = SceneStatistics::of_linear(&frame);
            assert!(
                stats.mean_luminance < 0.1,
                "{scene}: {}",
                stats.mean_luminance
            );
            assert!(scene.is_dark());
        }
        assert!(!SceneId::Office.is_dark());
    }

    #[test]
    fn office_is_smoother_than_skyline() {
        let office = SceneRenderer::new(SceneId::Office, small_config()).render_linear(0);
        let skyline = SceneRenderer::new(SceneId::Skyline, small_config()).render_linear(0);
        let o = SceneStatistics::of_linear(&office);
        let s = SceneStatistics::of_linear(&skyline);
        assert!(o.mean_local_contrast < s.mean_local_contrast);
    }

    #[test]
    fn stereo_halves_differ_only_slightly() {
        let dims = Dimensions::new(128, 64);
        let frame = SceneRenderer::new(SceneId::Office, SceneConfig::stereo(dims)).render_linear(0);
        // Compare a pixel in the left half with its partner in the right half:
        // the parallax shift keeps them close but not identical everywhere.
        let mut identical = 0;
        let mut total = 0;
        for y in (0..64).step_by(8) {
            for x in (0..64).step_by(8) {
                let l = frame.pixel(x, y);
                let r = frame.pixel(x + 64, y);
                if l.max_channel_distance(r) < 1e-9 {
                    identical += 1;
                }
                total += 1;
            }
        }
        assert!(
            identical < total,
            "stereo halves must not be pixel-identical"
        );
    }

    #[test]
    fn all_scenes_render_in_gamut() {
        for scene in SceneId::ALL {
            let frame = SceneRenderer::new(scene, small_config()).render_linear(0);
            assert!(
                frame.pixels().iter().all(|p| p.in_gamut(1e-9)),
                "{scene} out of gamut"
            );
        }
    }

    #[test]
    fn seeded_configs_differ() {
        let base = SceneRenderer::new(SceneId::Monkey, small_config()).render_srgb(0);
        let seeded =
            SceneRenderer::new(SceneId::Monkey, small_config().with_seed(99)).render_srgb(0);
        assert_ne!(base, seeded);
    }
}
