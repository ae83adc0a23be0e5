//! SCC — the Set-Cover Coding baseline (Sec. 5.3).
//!
//! SCC exploits color discrimination differently from the paper's encoder:
//! it finds a small subset `C` of sRGB colors whose discrimination
//! ellipsoids together cover the whole sRGB cube, then maps every pixel to
//! the index of a covering codebook color, costing `⌈log₂|C|⌉` bits per
//! pixel. The exact set cover is NP-complete; like the paper we use a greedy
//! heuristic.
//!
//! The paper runs the greedy algorithm over all 2²⁴ sRGB colors and reports
//! a ~32 K-color codebook (15 bits per pixel) with a 30 MB encoding table.
//! Running the full 2²⁴-cell greedy is possible but slow, so the lattice
//! resolution is configurable (`docs/ARCHITECTURE.md`, substitution S4): the codec covers
//! a `2^(3·bits)` lattice and reports both the lattice codebook and the
//! extrapolated full-resolution table sizes.

use pvc_bdc::{CompressionStats, SizeBreakdown};
use pvc_color::{DiscriminationModel, LinearRgb, Srgb8};
use pvc_frame::SrgbFrame;

/// Configuration of the SCC codec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SccConfig {
    /// Bits per channel of the color lattice the greedy cover runs over
    /// (8 = the full sRGB cube as in the paper; tests use 4–5).
    pub bits_per_channel: u8,
    /// Eccentricity (degrees) at which discrimination ellipsoids are taken.
    /// SCC has a single global table, so a representative peripheral
    /// eccentricity is used.
    pub eccentricity_deg: f64,
}

impl Default for SccConfig {
    fn default() -> Self {
        SccConfig {
            bits_per_channel: 6,
            eccentricity_deg: 30.0,
        }
    }
}

impl SccConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_channel` is zero or greater than 8, or the
    /// eccentricity is negative.
    pub fn new(bits_per_channel: u8, eccentricity_deg: f64) -> Self {
        assert!(
            (1..=8).contains(&bits_per_channel),
            "bits per channel must be between 1 and 8"
        );
        assert!(eccentricity_deg >= 0.0, "eccentricity must be non-negative");
        SccConfig {
            bits_per_channel,
            eccentricity_deg,
        }
    }
}

/// The SCC codec: a perceptual color codebook plus per-pixel indexing.
#[derive(Debug, Clone, PartialEq)]
pub struct SccCodec {
    config: SccConfig,
    codebook: Vec<Srgb8>,
    /// Maps every lattice cell to its codebook index.
    cell_to_index: Vec<u32>,
}

impl SccCodec {
    /// Builds the codebook with the greedy set-cover heuristic: walk the
    /// lattice, and whenever an uncovered cell is found, add it to the
    /// codebook and mark every cell inside its discrimination ellipsoid as
    /// covered.
    pub fn build<M: DiscriminationModel + ?Sized>(model: &M, config: SccConfig) -> Self {
        let bits = u32::from(config.bits_per_channel);
        let side = 1usize << bits;
        let cell_count = side * side * side;
        let mut cell_to_index = vec![u32::MAX; cell_count];
        let mut codebook = Vec::new();

        for cell in 0..cell_count {
            if cell_to_index[cell] != u32::MAX {
                continue;
            }
            let center = Self::cell_color(cell, bits);
            let index = codebook.len() as u32;
            codebook.push(center);
            // Cover every lattice cell whose color lies inside the ellipsoid
            // of the new codebook entry.
            let ellipsoid = model.ellipsoid(center.to_linear(), config.eccentricity_deg);
            let step = 1.0 / f64::from(side as u32);
            // Conservative per-channel reach of the ellipsoid in lattice cells.
            let reach = (ellipsoid
                .half_extent_along_axis(pvc_color::RgbAxis::Blue)
                .max(ellipsoid.half_extent_along_axis(pvc_color::RgbAxis::Red))
                .max(ellipsoid.half_extent_along_axis(pvc_color::RgbAxis::Green))
                / step)
                .ceil() as i64
                + 1;
            let (cr, cg, cb) = Self::cell_coords(cell, bits);
            for dr in -reach..=reach {
                for dg in -reach..=reach {
                    for db in -reach..=reach {
                        let (r, g, b) =
                            (i64::from(cr) + dr, i64::from(cg) + dg, i64::from(cb) + db);
                        if r < 0
                            || g < 0
                            || b < 0
                            || r >= side as i64
                            || g >= side as i64
                            || b >= side as i64
                        {
                            continue;
                        }
                        let neighbor =
                            ((r as usize) << (2 * bits)) | ((g as usize) << bits) | b as usize;
                        if cell_to_index[neighbor] != u32::MAX {
                            continue;
                        }
                        let color = Self::cell_color(neighbor, bits).to_linear();
                        if ellipsoid.contains_rgb(color, 1e-9) {
                            cell_to_index[neighbor] = index;
                        }
                    }
                }
            }
            // The entry always covers its own cell.
            cell_to_index[cell] = index;
        }

        SccCodec {
            config,
            codebook,
            cell_to_index,
        }
    }

    fn cell_coords(cell: usize, bits: u32) -> (u32, u32, u32) {
        let mask = (1u32 << bits) - 1;
        let b = cell as u32 & mask;
        let g = (cell as u32 >> bits) & mask;
        let r = (cell as u32 >> (2 * bits)) & mask;
        (r, g, b)
    }

    fn cell_color(cell: usize, bits: u32) -> Srgb8 {
        let (r, g, b) = Self::cell_coords(cell, bits);
        // Map the lattice coordinate to the center of its bucket in 0..=255.
        let expand = |v: u32| {
            if bits >= 8 {
                v as u8
            } else {
                let bucket = 256u32 >> bits;
                (v * bucket + bucket / 2).min(255) as u8
            }
        };
        Srgb8::new(expand(r), expand(g), expand(b))
    }

    fn cell_of_color(&self, color: Srgb8) -> usize {
        let bits = u32::from(self.config.bits_per_channel);
        let shrink = |v: u8| u32::from(v) >> (8 - bits);
        ((shrink(color.r) as usize) << (2 * bits))
            | ((shrink(color.g) as usize) << bits)
            | shrink(color.b) as usize
    }

    /// The codec configuration.
    pub fn config(&self) -> SccConfig {
        self.config
    }

    /// Number of colors in the codebook.
    pub fn codebook_size(&self) -> usize {
        self.codebook.len()
    }

    /// Bits needed to index one codebook entry (`⌈log₂|C|⌉`).
    pub fn bits_per_color(&self) -> u32 {
        (self.codebook.len().max(2) as f64).log2().ceil() as u32
    }

    /// Size in bytes of the encoding lookup table (one index per lattice
    /// cell, two bytes each as in the paper's 30 MB estimate for 2²⁴ cells).
    pub fn encode_table_bytes(&self) -> usize {
        self.cell_to_index.len() * 2
    }

    /// Size in bytes of the decoding table (three bytes per codebook entry).
    pub fn decode_table_bytes(&self) -> usize {
        self.codebook.len() * 3
    }

    /// Extrapolated encoding-table size if the lattice covered the full
    /// 2²⁴-color sRGB cube (the configuration the paper reports as 30 MB).
    pub fn full_resolution_encode_table_bytes(&self) -> usize {
        (1usize << 24) * 2
    }

    /// Encodes a single color: the index of the codebook entry covering it.
    pub fn encode_color(&self, color: Srgb8) -> u32 {
        self.cell_to_index[self.cell_of_color(color)]
    }

    /// Decodes an index back to its codebook color.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn decode_index(&self, index: u32) -> Srgb8 {
        self.codebook[index as usize]
    }

    /// The reconstruction a viewer would see for `color`.
    pub fn reconstruct(&self, color: Srgb8) -> Srgb8 {
        self.decode_index(self.encode_color(color))
    }

    /// Compression statistics of storing a frame as per-pixel codebook
    /// indices.
    pub fn frame_stats(&self, frame: &SrgbFrame) -> CompressionStats {
        let bits = u64::from(self.bits_per_color()) * frame.dimensions().pixel_count() as u64;
        CompressionStats::from_breakdown(
            frame.dimensions().pixel_count(),
            SizeBreakdown {
                base_bits: 0,
                metadata_bits: 0,
                delta_bits: bits,
            },
        )
    }

    /// Worst-case perceptual error of the codec: the maximum normalized
    /// ellipsoid distance between a lattice color and its reconstruction
    /// (≤ 1 means every lattice color is perceptually covered).
    pub fn worst_case_normalized_error<M: DiscriminationModel + ?Sized>(&self, model: &M) -> f64 {
        let bits = u32::from(self.config.bits_per_channel);
        let side = 1usize << bits;
        let mut worst: f64 = 0.0;
        for cell in 0..side * side * side {
            let color = Self::cell_color(cell, bits);
            let reconstructed = self.reconstruct(color);
            let ellipsoid =
                model.ellipsoid(reconstructed.to_linear(), self.config.eccentricity_deg);
            worst = worst.max(ellipsoid.normalized_distance_rgb(color.to_linear()));
        }
        worst
    }
}

/// Converts a linear color to the nearest lattice color; exposed for tests.
pub fn quantize_to_lattice(color: LinearRgb, bits_per_channel: u8) -> Srgb8 {
    let srgb = color.to_srgb8();
    let bits = u32::from(bits_per_channel);
    let shrink = |v: u8| u32::from(v) >> (8 - bits);
    let bucket = 256u32 >> bits;
    let expand = |v: u32| (v * bucket + bucket / 2).min(255) as u8;
    Srgb8::new(
        expand(shrink(srgb.r)),
        expand(shrink(srgb.g)),
        expand(shrink(srgb.b)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_color::SyntheticDiscriminationModel;
    use pvc_frame::Dimensions;

    fn small_codec() -> SccCodec {
        SccCodec::build(
            &SyntheticDiscriminationModel::default(),
            SccConfig::new(5, 30.0),
        )
    }

    #[test]
    fn every_color_is_covered() {
        let codec = small_codec();
        assert!(codec.cell_to_index.iter().all(|&i| i != u32::MAX));
    }

    #[test]
    fn codebook_is_smaller_than_the_lattice() {
        // The perceptual covering maps many lattice colors onto each codebook
        // entry. At test-sized lattices most of the reduction comes from the
        // elongated Blue direction of the ellipsoids, so the factor is modest
        // compared with the paper's full 2²⁴-color run.
        let codec = small_codec();
        let lattice = 1usize << (3 * 5);
        assert!(
            codec.codebook_size() < lattice,
            "codebook {} of {lattice}",
            codec.codebook_size()
        );
        assert!(codec.codebook_size() > lattice / 64);
    }

    #[test]
    fn bits_per_color_matches_codebook_size() {
        let codec = small_codec();
        let bits = codec.bits_per_color();
        assert!(1u64 << bits >= codec.codebook_size() as u64);
        assert!(1u64 << (bits - 1) < codec.codebook_size() as u64);
    }

    #[test]
    fn reconstruction_is_perceptually_close() {
        let codec = small_codec();
        let model = SyntheticDiscriminationModel::default();
        let worst = codec.worst_case_normalized_error(&model);
        assert!(worst <= 1.0 + 1e-6, "worst-case normalized error {worst}");
    }

    #[test]
    fn table_sizes_are_reported() {
        let codec = small_codec();
        assert_eq!(codec.encode_table_bytes(), (1usize << 15) * 2);
        assert_eq!(codec.decode_table_bytes(), codec.codebook_size() * 3);
        assert_eq!(codec.full_resolution_encode_table_bytes(), 32 * 1024 * 1024);
    }

    #[test]
    fn frame_stats_use_index_bits() {
        let codec = small_codec();
        let frame = SrgbFrame::filled(Dimensions::new(10, 10), Srgb8::new(128, 128, 128));
        let stats = codec.frame_stats(&frame);
        assert_eq!(
            stats.compressed_bits,
            u64::from(codec.bits_per_color()) * 100
        );
        assert!(stats.bandwidth_reduction_percent() > 0.0);
        assert!(stats.bandwidth_reduction_percent() < 100.0);
    }

    #[test]
    fn scc_is_worse_than_bd_on_smooth_content() {
        // The paper finds SCC clearly inferior to BD; verify the ordering on
        // a smooth gradient frame.
        let codec = small_codec();
        let dims = Dimensions::new(32, 32);
        let pixels = (0..dims.pixel_count())
            .map(|i| {
                let x = (i % 32) as u8;
                let y = (i / 32) as u8;
                Srgb8::new(100 + x / 4, 120 + y / 4, 90 + x / 8)
            })
            .collect();
        let frame = SrgbFrame::from_pixels(dims, pixels).unwrap();
        let bd = pvc_bdc::BdEncoder::new(pvc_bdc::BdConfig::default())
            .encode_frame(&frame)
            .stats();
        let scc = codec.frame_stats(&frame);
        assert!(scc.compressed_bits > bd.compressed_bits);
    }

    #[test]
    fn quantize_to_lattice_is_idempotent() {
        let c = LinearRgb::new(0.3, 0.6, 0.9);
        let q = quantize_to_lattice(c, 5);
        let q2 = quantize_to_lattice(q.to_linear(), 5);
        assert_eq!(q, q2);
    }

    #[test]
    #[should_panic]
    fn invalid_config_panics() {
        let _ = SccConfig::new(0, 20.0);
    }

    #[test]
    fn higher_resolution_lattice_yields_larger_codebook() {
        let model = SyntheticDiscriminationModel::default();
        let coarse = SccCodec::build(&model, SccConfig::new(3, 20.0));
        let fine = SccCodec::build(&model, SccConfig::new(4, 20.0));
        assert!(fine.codebook_size() >= coarse.codebook_size());
    }
}
