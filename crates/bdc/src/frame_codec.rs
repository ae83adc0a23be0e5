//! Whole-frame Base+Delta encoding.

use crate::bitstream::BitWriter;
use crate::decoder::BdDecoder;
use crate::stats::{CompressionStats, SizeBreakdown};
use crate::temporal::FrameKind;
use crate::tile_codec::{write_channel, write_header};
use pvc_color::lanes::min_max_u8;
use pvc_frame::{Dimensions, SrgbFrame, SrgbTileLanes, TileGrid, DEFAULT_TILE_SIZE};

/// Configuration of the Base+Delta frame encoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BdConfig {
    /// Side length of the square pixel tiles (4 in the paper's main
    /// configuration; Fig. 15 sweeps 4–16).
    pub tile_size: u32,
}

impl Default for BdConfig {
    fn default() -> Self {
        BdConfig {
            tile_size: DEFAULT_TILE_SIZE,
        }
    }
}

impl BdConfig {
    /// Creates a configuration with an explicit tile size.
    ///
    /// # Panics
    ///
    /// Panics if `tile_size` is zero or exceeds `u16::MAX`, the largest
    /// value the bitstream's 16-bit tile-size field holds.
    pub fn with_tile_size(tile_size: u32) -> Self {
        assert!(tile_size > 0, "tile size must be non-zero");
        assert!(
            tile_size <= u32::from(u16::MAX),
            "tile size {tile_size} does not fit the 16-bit header field"
        );
        BdConfig { tile_size }
    }
}

/// The Base+Delta frame encoder.
///
/// # Examples
///
/// ```
/// use pvc_bdc::{BdConfig, BdEncoder};
/// use pvc_color::Srgb8;
/// use pvc_frame::{Dimensions, SrgbFrame};
///
/// let frame = SrgbFrame::filled(Dimensions::new(8, 8), Srgb8::new(1, 2, 3));
/// let encoded = BdEncoder::new(BdConfig::default()).encode_frame(&frame);
/// assert_eq!(encoded.decode(), frame);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BdEncoder {
    config: BdConfig,
    threads: usize,
}

impl Default for BdEncoder {
    fn default() -> Self {
        BdEncoder::new(BdConfig::default())
    }
}

impl BdEncoder {
    /// Creates a sequential encoder with the given configuration.
    pub fn new(config: BdConfig) -> Self {
        BdEncoder { config, threads: 1 }
    }

    /// Returns a copy that records `threads` as its worker-thread count.
    ///
    /// BD packing is serial whatever the count, so the encoded frame is
    /// bit-identical for every value; the count is kept for callers that
    /// configure every encode stage with one thread count.
    ///
    /// A thread count of 0 is normalized to 1 (sequential). This is the
    /// single normalization point for the knob: callers no longer need
    /// scattered `.max(1)` guards around struct-literal configurations.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The encoder configuration.
    pub fn config(&self) -> BdConfig {
        self.config
    }

    /// The configured worker-thread count (BD packing itself is serial).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Encodes a frame into an owned [`BdEncodedFrame`]: the bytes
    /// [`Self::encode_frame_into`] packs into a fresh writer.
    ///
    /// # Panics
    ///
    /// Panics if the frame's width or height, or the tile size, exceeds
    /// `u16::MAX` (the bitstream header stores each in 16 bits).
    pub fn encode_frame(&self, frame: &SrgbFrame) -> BdEncodedFrame {
        let mut writer = BitWriter::new();
        let stats = self.encode_frame_into(frame, &mut writer, &mut SrgbTileLanes::new());
        BdEncodedFrame {
            dimensions: frame.dimensions(),
            tile_size: self.config.tile_size,
            breakdown: stats.breakdown,
            bytes: writer.finish(),
        }
    }

    /// Stream-mode encode: packs the frame's complete bitstream directly
    /// into the caller-provided `writer` (cleared first) and returns its
    /// statistics.
    ///
    /// `gather` is the caller's reusable SoA tile gather; once both have
    /// warmed up to the frame's tile size and bitstream length, the
    /// sequential encode performs no allocation at all. This is the
    /// per-frame hot path of a streaming session.
    ///
    /// Each tile is gathered as three contiguous per-channel lanes, the
    /// `(min, max)` range of each lane is reduced with the 8-wide lane
    /// kernel [`pvc_color::lanes::min_max_u8`], and the tile's channel
    /// records are bit-packed.
    ///
    /// # Panics
    ///
    /// Panics if the frame's width or height, or the tile size, exceeds
    /// `u16::MAX` (the bitstream header stores each in 16 bits).
    pub fn encode_frame_into(
        &self,
        frame: &SrgbFrame,
        writer: &mut BitWriter,
        gather: &mut SrgbTileLanes,
    ) -> CompressionStats {
        let dimensions = frame.dimensions();
        let grid = TileGrid::new(dimensions, self.config.tile_size);
        writer.clear();
        write_header(writer, FrameKind::Key, dimensions, self.config.tile_size);
        let mut breakdown = SizeBreakdown::ZERO;
        for tile in grid.tiles() {
            frame.tile_lanes_into(tile, gather);
            for channel in 0..3 {
                let lane = gather.channel(channel);
                breakdown += write_channel(writer, lane, min_max_u8(lane));
            }
        }
        CompressionStats::from_breakdown(dimensions.pixel_count(), breakdown)
    }
}

/// A Base+Delta encoded frame: the packed bitstream plus the geometry and
/// the size split the encoder accounted while writing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BdEncodedFrame {
    dimensions: Dimensions,
    tile_size: u32,
    breakdown: SizeBreakdown,
    bytes: Vec<u8>,
}

impl BdEncodedFrame {
    /// Dimensions of the original frame.
    pub fn dimensions(&self) -> Dimensions {
        self.dimensions
    }

    /// Tile size used for encoding.
    pub fn tile_size(&self) -> u32 {
        self.tile_size
    }

    /// Total compressed size, split by component (the 48-bit header is
    /// not counted).
    pub fn size_breakdown(&self) -> SizeBreakdown {
        self.breakdown
    }

    /// Overall compression statistics relative to the uncompressed frame.
    pub fn stats(&self) -> CompressionStats {
        CompressionStats::from_breakdown(self.dimensions.pixel_count(), self.breakdown)
    }

    /// Decodes back to the original frame (BD is numerically lossless)
    /// through [`BdDecoder`].
    pub fn decode(&self) -> SrgbFrame {
        BdDecoder::new()
            .with_max_pixels(u64::MAX)
            .decode_bitstream(&self.bytes)
            .expect("the encoder's own bitstream decodes")
    }

    /// The packed bitstream, in the layout documented on the crate root.
    pub fn to_bitstream(&self) -> Vec<u8> {
        self.bytes.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitstreamError;
    use pvc_color::Srgb8;
    use rand::{Rng, SeedableRng};

    fn random_frame(width: u32, height: u32, seed: u64) -> SrgbFrame {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let dims = Dimensions::new(width, height);
        let pixels = (0..dims.pixel_count())
            .map(|_| Srgb8::new(rng.gen(), rng.gen(), rng.gen()))
            .collect();
        SrgbFrame::from_pixels(dims, pixels).expect("sized correctly")
    }

    fn smooth_frame(width: u32, height: u32) -> SrgbFrame {
        let dims = Dimensions::new(width, height);
        let pixels = (0..dims.pixel_count())
            .map(|i| {
                let x = (i as u32 % width) as f64 / f64::from(width);
                let y = (i as u32 / width) as f64 / f64::from(height);
                Srgb8::new(
                    (x * 200.0) as u8,
                    (y * 200.0) as u8,
                    ((x + y) * 100.0) as u8,
                )
            })
            .collect();
        SrgbFrame::from_pixels(dims, pixels).expect("sized correctly")
    }

    #[test]
    fn roundtrip_random_frame() {
        let frame = random_frame(20, 12, 7);
        let encoded = BdEncoder::new(BdConfig::default()).encode_frame(&frame);
        assert_eq!(encoded.decode(), frame);
    }

    #[test]
    fn roundtrip_with_non_multiple_dimensions() {
        let frame = random_frame(13, 9, 21);
        let encoded = BdEncoder::new(BdConfig::with_tile_size(4)).encode_frame(&frame);
        assert_eq!(encoded.decode(), frame);
    }

    #[test]
    fn smooth_frames_compress_better_than_random() {
        let smooth = smooth_frame(64, 64);
        let random = random_frame(64, 64, 3);
        let encoder = BdEncoder::new(BdConfig::default());
        let s = encoder.encode_frame(&smooth).stats();
        let r = encoder.encode_frame(&random).stats();
        assert!(s.bandwidth_reduction_percent() > r.bandwidth_reduction_percent());
        assert!(s.bandwidth_reduction_percent() > 20.0);
    }

    #[test]
    fn random_frames_never_beat_8_bits_per_channel_by_much() {
        // Random data is incompressible; BD should cost at most slightly more
        // than 24 bpp (base + metadata overhead).
        let random = random_frame(32, 32, 11);
        let stats = BdEncoder::new(BdConfig::default())
            .encode_frame(&random)
            .stats();
        assert!(stats.bits_per_pixel() <= 27.0);
        assert!(stats.bits_per_pixel() >= 23.0);
    }

    #[test]
    fn bitstream_roundtrip() {
        let frame = random_frame(24, 16, 5);
        let bytes = BdEncoder::new(BdConfig::default())
            .encode_frame(&frame)
            .to_bitstream();
        let decoded = BdDecoder::new().decode_bitstream(&bytes).expect("valid");
        assert_eq!(decoded, frame);
    }

    #[test]
    fn bitstream_size_matches_breakdown() {
        let frame = smooth_frame(32, 32);
        let encoded = BdEncoder::new(BdConfig::default()).encode_frame(&frame);
        let bytes = encoded.to_bitstream();
        let expected_bits = encoded.size_breakdown().total_bits() + 48; // + header
        assert_eq!(bytes.len() as u64, expected_bits.div_ceil(8));
    }

    #[test]
    fn truncated_bitstream_is_rejected() {
        let frame = random_frame(16, 16, 9);
        let bytes = BdEncoder::new(BdConfig::default())
            .encode_frame(&frame)
            .to_bitstream();
        let err = BdDecoder::new()
            .decode_bitstream(&bytes[..bytes.len() / 2])
            .unwrap_err();
        assert!(matches!(
            err,
            BitstreamError::UnexpectedEnd { .. } | BitstreamError::InsufficientInput { .. }
        ));
    }

    #[test]
    fn empty_bitstream_is_rejected() {
        assert!(BdDecoder::new().decode_bitstream(&[]).is_err());
    }

    #[test]
    #[should_panic(expected = "16-bit header fields")]
    fn geometry_beyond_the_16_bit_header_panics_instead_of_truncating() {
        // 65540 would be written as 65540 mod 2^16 = 4: a 4x4 frame.
        let frame = SrgbFrame::filled(Dimensions::new(65_540, 4), Srgb8::new(1, 2, 3));
        let _ = BdEncoder::default().encode_frame(&frame);
    }

    #[test]
    #[should_panic(expected = "16-bit header field")]
    fn tile_size_beyond_the_16_bit_header_is_rejected() {
        let _ = BdConfig::with_tile_size(u32::from(u16::MAX) + 1);
    }

    #[test]
    fn larger_tiles_amortize_base_cost_on_flat_frames() {
        let frame = SrgbFrame::filled(Dimensions::new(64, 64), Srgb8::new(9, 9, 9));
        let t4 = BdEncoder::new(BdConfig::with_tile_size(4))
            .encode_frame(&frame)
            .stats();
        let t16 = BdEncoder::new(BdConfig::with_tile_size(16))
            .encode_frame(&frame)
            .stats();
        assert!(t16.compressed_bits < t4.compressed_bits);
    }

    #[test]
    fn parallel_encoding_is_bit_identical_to_sequential() {
        let frames = [
            random_frame(64, 48, 17),
            smooth_frame(61, 47),
            random_frame(16, 16, 2),
        ];
        for frame in &frames {
            let serial = BdEncoder::new(BdConfig::default()).encode_frame(frame);
            for threads in [2, 4, 8] {
                let parallel = BdEncoder::new(BdConfig::default())
                    .with_threads(threads)
                    .encode_frame(frame);
                assert_eq!(parallel, serial);
            }
        }
    }

    #[test]
    fn zero_threads_normalizes_to_sequential() {
        // The single normalization point for the knob: a struct-literal 0
        // means sequential, not a panic.
        assert_eq!(BdEncoder::default().with_threads(0).threads(), 1);
        assert_eq!(BdEncoder::default().with_threads(3).threads(), 3);
    }

    #[test]
    fn encode_frame_into_is_thread_count_invariant() {
        let frame = random_frame(40, 28, 77);
        let mut writer = BitWriter::new();
        let mut gather = SrgbTileLanes::new();
        let sequential_stats =
            BdEncoder::new(BdConfig::default()).encode_frame_into(&frame, &mut writer, &mut gather);
        let sequential_bytes = writer.as_bytes().to_vec();
        for threads in [2, 4] {
            let stats = BdEncoder::new(BdConfig::default())
                .with_threads(threads)
                .encode_frame_into(&frame, &mut writer, &mut gather);
            assert_eq!(writer.as_bytes(), sequential_bytes.as_slice());
            assert_eq!(stats, sequential_stats);
        }
    }

    #[test]
    fn stats_pixel_count_matches_frame() {
        let frame = random_frame(10, 10, 1);
        let stats = BdEncoder::new(BdConfig::default())
            .encode_frame(&frame)
            .stats();
        assert_eq!(stats.pixel_count, 100);
        assert_eq!(stats.uncompressed_bits, 2400);
    }
}
