//! Whole-frame Base+Delta encoding.

use crate::bitstream::{BitReader, BitWriter, BitstreamError};
use crate::stats::{CompressionStats, SizeBreakdown};
use crate::tile_codec::{decode_tile, encode_tile, TileEncoding};
use pvc_color::lanes::min_max_u8;
use pvc_color::Srgb8;
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
    /// Panics if `tile_size` is zero.
    pub fn with_tile_size(tile_size: u32) -> Self {
        assert!(tile_size > 0, "tile size must be non-zero");
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

    /// Returns a copy that encodes tiles on `threads` scoped worker threads
    /// (1 = sequential). Tiles are independent and emitted in tile order,
    /// so the encoded frame is bit-identical for every thread count.
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

    /// The number of worker threads used for per-tile encoding.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Encodes a frame tile by tile.
    pub fn encode_frame(&self, frame: &SrgbFrame) -> BdEncodedFrame {
        let grid = TileGrid::new(frame.dimensions(), self.config.tile_size);
        let tile_rects: Vec<_> = grid.tiles().collect();
        // One tile-pixel gather buffer per worker, not one per tile.
        let tiles: Vec<TileEncoding> = pvc_parallel::parallel_map_init(
            &tile_rects,
            self.threads,
            Vec::new,
            |gather: &mut Vec<Srgb8>, &tile| {
                frame.tile_pixels_into(tile, gather);
                encode_tile(gather)
            },
        );
        BdEncodedFrame {
            dimensions: frame.dimensions(),
            tile_size: self.config.tile_size,
            tiles,
        }
    }

    /// Stream-mode encode: packs the frame's complete bitstream —
    /// bit-identical to `self.encode_frame(frame).to_bitstream()` —
    /// directly into the caller-provided `writer` (cleared first), without
    /// materializing a [`BdEncodedFrame`] or any per-tile vectors.
    ///
    /// `gather` is the caller's reusable SoA tile gather; once both have
    /// warmed up to the frame's tile size and bitstream length, the encode
    /// performs no allocation at all. This is the per-frame hot path of a
    /// streaming session, where the per-tile `TileEncoding` structure (a
    /// `Vec` of deltas per channel per tile — hundreds of thousands of
    /// heap round-trips per Vision-class frame) is pure overhead: the
    /// session ships bytes, not tile structs.
    ///
    /// Each tile is gathered as three contiguous per-channel lanes, the
    /// `(min, max)` range is reduced with the 8-wide lane kernel
    /// ([`pvc_color::lanes::min_max_u8`] — bit-identical to the scalar
    /// [`crate::tile_codec::channel_range`] walk since integer min/max is
    /// order-independent), and only the bit packing itself stays serial.
    ///
    /// With more than one worker thread, tile encodings are produced in
    /// parallel first (bit packing is inherently sequential) and then
    /// serialized; the bytes are identical, the allocation-free property
    /// only holds for the sequential path.
    ///
    /// Returns the same statistics `encode_frame(frame).stats()` would.
    pub fn encode_frame_into(
        &self,
        frame: &SrgbFrame,
        writer: &mut BitWriter,
        gather: &mut SrgbTileLanes,
    ) -> CompressionStats {
        if self.threads > 1 {
            let encoded = self.encode_frame(frame);
            writer.clear();
            encoded.write_bitstream(writer);
            return encoded.stats();
        }
        let grid = TileGrid::new(frame.dimensions(), self.config.tile_size);
        writer.clear();
        writer.write_bits(frame.dimensions().width, 16);
        writer.write_bits(frame.dimensions().height, 16);
        writer.write_bits(self.config.tile_size, 16);
        let mut breakdown = SizeBreakdown::ZERO;
        for tile in grid.tiles() {
            frame.tile_lanes_into(tile, gather);
            for channel in 0..3 {
                let lane = gather.channel(channel);
                let (min, max) = min_max_u8(lane);
                let delta_bits = crate::tile_codec::bits_for_range(max - min);
                writer.write_bits(u32::from(min), crate::tile_codec::BASE_BITS as u32);
                writer.write_bits(
                    u32::from(delta_bits),
                    crate::tile_codec::METADATA_BITS as u32,
                );
                for &v in lane {
                    writer.write_bits(u32::from(v - min), u32::from(delta_bits));
                }
                breakdown += SizeBreakdown {
                    base_bits: crate::tile_codec::BASE_BITS,
                    metadata_bits: crate::tile_codec::METADATA_BITS,
                    delta_bits: u64::from(delta_bits) * lane.len() as u64,
                };
            }
        }
        CompressionStats::from_breakdown(frame.dimensions().pixel_count(), breakdown)
    }
}

/// A Base+Delta encoded frame: the per-tile encodings plus enough geometry
/// to reconstruct the original frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BdEncodedFrame {
    dimensions: Dimensions,
    tile_size: u32,
    tiles: Vec<TileEncoding>,
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

    /// The per-tile encodings in row-major tile order.
    pub fn tiles(&self) -> &[TileEncoding] {
        &self.tiles
    }

    /// Total compressed size, split by component.
    pub fn size_breakdown(&self) -> SizeBreakdown {
        self.tiles.iter().map(TileEncoding::size).sum()
    }

    /// Overall compression statistics relative to the uncompressed frame.
    pub fn stats(&self) -> CompressionStats {
        CompressionStats::from_breakdown(self.dimensions.pixel_count(), self.size_breakdown())
    }

    /// Decodes back to the original frame (BD is numerically lossless).
    pub fn decode(&self) -> SrgbFrame {
        let grid = TileGrid::new(self.dimensions, self.tile_size);
        let mut frame = SrgbFrame::filled(self.dimensions, Srgb8::default());
        for (tile_rect, tile) in grid.tiles().zip(&self.tiles) {
            frame.write_tile(tile_rect, &decode_tile(tile));
        }
        frame
    }

    /// Serializes the encoded frame into a packed bitstream.
    ///
    /// Layout: a fixed header (width, height, tile size — 16 bits each),
    /// followed by each tile's channels as `base (8) | delta_bits (4) |
    /// deltas (delta_bits each)`.
    pub fn to_bitstream(&self) -> Vec<u8> {
        let mut w = BitWriter::new();
        self.write_bitstream(&mut w);
        w.finish()
    }

    /// Appends the frame's bitstream (header plus tiles, the layout of
    /// [`Self::to_bitstream`]) to a caller-provided writer.
    pub fn write_bitstream(&self, w: &mut BitWriter) {
        w.write_bits(self.dimensions.width, 16);
        w.write_bits(self.dimensions.height, 16);
        w.write_bits(self.tile_size, 16);
        for tile in &self.tiles {
            for channel in &tile.channels {
                w.write_bits(u32::from(channel.base), 8);
                w.write_bits(u32::from(channel.delta_bits), 4);
                for &d in &channel.deltas {
                    w.write_bits(u32::from(d), u32::from(channel.delta_bits));
                }
            }
        }
    }

    /// Parses a bitstream produced by [`Self::to_bitstream`].
    ///
    /// Header geometry is validated against the remaining input length
    /// (and the [`crate::decoder::DEFAULT_MAX_PIXELS`] frame budget)
    /// *before* any tile storage is allocated, so a crafted header cannot
    /// make this allocate more than a small multiple of the input length.
    ///
    /// # Errors
    ///
    /// Returns a [`BitstreamError`] if the stream is truncated, its header
    /// is invalid, or the declared geometry cannot fit in the input.
    pub fn from_bitstream(bytes: &[u8]) -> Result<Self, BitstreamError> {
        let mut r = BitReader::new(bytes);
        let header = crate::decoder::read_frame_header(&mut r, crate::decoder::DEFAULT_MAX_PIXELS)?;
        let dimensions = header.dimensions;
        let tile_size = header.tile_size;
        let grid = TileGrid::new(dimensions, tile_size);
        let mut tiles = Vec::with_capacity(grid.tile_count());
        for tile_rect in grid.tiles() {
            let pixel_count = tile_rect.pixel_count();
            let channels = [(); 3].map(|_| ());
            let mut decoded = Vec::with_capacity(3);
            for _ in channels {
                let base = r.read_bits(8).map(|v| v as u8);
                let base = base?;
                let delta_bits = r.read_bits(4)? as u8;
                if delta_bits > 8 {
                    return Err(BitstreamError::InvalidHeader {
                        field: "delta bit length",
                    });
                }
                // A `delta_bits = 0` channel would consume zero input bits
                // while pushing `pixel_count` deltas; the header validation
                // above bounds `pixel_count` via the frame budget, and this
                // check bounds every non-flat channel by the actual input.
                crate::decoder::check_delta_payload(&r, pixel_count, delta_bits)?;
                let mut deltas = Vec::with_capacity(pixel_count);
                for _ in 0..pixel_count {
                    deltas.push(r.read_bits(u32::from(delta_bits))? as u8);
                }
                decoded.push(crate::tile_codec::ChannelEncoding {
                    base,
                    delta_bits,
                    deltas,
                });
            }
            let b = decoded.pop().expect("three channels");
            let g = decoded.pop().expect("three channels");
            let rr = decoded.pop().expect("three channels");
            tiles.push(TileEncoding {
                channels: [rr, g, b],
                pixel_count,
            });
        }
        Ok(BdEncodedFrame {
            dimensions,
            tile_size,
            tiles,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let encoded = BdEncoder::new(BdConfig::default()).encode_frame(&frame);
        let bytes = encoded.to_bitstream();
        let parsed = BdEncodedFrame::from_bitstream(&bytes).expect("valid stream");
        assert_eq!(parsed, encoded);
        assert_eq!(parsed.decode(), frame);
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
        let encoded = BdEncoder::new(BdConfig::default()).encode_frame(&frame);
        let bytes = encoded.to_bitstream();
        let err = BdEncodedFrame::from_bitstream(&bytes[..bytes.len() / 2]).unwrap_err();
        assert!(matches!(
            err,
            BitstreamError::UnexpectedEnd { .. } | BitstreamError::InsufficientInput { .. }
        ));
    }

    #[test]
    fn empty_bitstream_is_rejected() {
        assert!(BdEncodedFrame::from_bitstream(&[]).is_err());
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
    fn encode_frame_into_matches_the_materialized_path() {
        let frames = [
            random_frame(24, 16, 5),
            smooth_frame(61, 47),
            random_frame(13, 9, 21),
        ];
        let mut writer = crate::BitWriter::new();
        let mut gather = SrgbTileLanes::new();
        for frame in &frames {
            for tile_size in [4, 7] {
                let encoder = BdEncoder::new(BdConfig::with_tile_size(tile_size));
                let encoded = encoder.encode_frame(frame);
                let stats = encoder.encode_frame_into(frame, &mut writer, &mut gather);
                assert_eq!(writer.as_bytes(), encoded.to_bitstream().as_slice());
                assert_eq!(stats, encoded.stats());
            }
        }
    }

    #[test]
    fn encode_frame_into_is_thread_count_invariant() {
        let frame = random_frame(40, 28, 77);
        let mut writer = crate::BitWriter::new();
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
