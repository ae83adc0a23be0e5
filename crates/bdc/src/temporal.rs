//! Temporal (inter-frame) coding: per-tile Skip / Delta / Intra records.
//!
//! A temporal ("predicted") frame encodes against the previous *decoded*
//! frame. Because the BD codec is lossless over the perceptually adjusted
//! frame, the encoder's reference (its own previous adjusted frame) and
//! the decoder's reference (its previous reconstruction) are bit-identical
//! — prediction never drifts and output quality is provably unchanged
//! from intra-only coding.
//!
//! # Bitstream layout
//!
//! A predicted frame begins with a 16-bit zero marker. Intra frames start
//! with their 16-bit width, which a valid intra header forbids to be zero,
//! so the first 16 bits of any frame unambiguously select the parser.
//!
//! ```text
//! marker(16)=0 | width(16) | height(16) | tile_size(16)
//! per tile, grid order:
//!   mode(2):
//!     0 = Skip   — nothing follows; the tile reuses the reference
//!     1 = Delta  — per channel: base(8) | delta_bits(4) | zigzag
//!                  residual deltas (delta_bits each)
//!     2 = Intra  — per channel: base(8) | delta_bits(4) | deltas,
//!                  identical to the intra-frame tile layout
//!     3 = invalid
//! ```
//!
//! Delta residuals are the wrapping byte difference `cur - prev`,
//! zigzag-mapped so small signed residuals become small unsigned codes,
//! then BD-encoded exactly like an intra channel. Reconstruction is
//! `prev + unzigzag(base + delta)` with wrapping arithmetic — lossless
//! for any byte pair.
//!
//! # Mode decision
//!
//! Deterministic and content-only: a tile is `Skip` iff it is
//! bit-identical to the reference tile; otherwise the encoder computes
//! the exact bit cost of both the Delta and the Intra record and takes
//! the cheaper one, breaking ties toward Intra. Encoding is sequential
//! regardless of the encoder's thread count, so the emitted bytes are
//! thread-invariant by construction.

use crate::bitstream::{BitReader, BitWriter, BitstreamError};
use crate::stats::{CompressionStats, SizeBreakdown};
use crate::tile_codec::{
    read_header, read_tile, tile_ranges, tile_record_size, write_channel, write_header,
};
use pvc_frame::{SrgbFrame, SrgbTileLanes, TileGrid};

/// Bits spent on the per-tile mode selector.
pub(crate) const MODE_BITS: u64 = 2;

/// Tile mode codes as they appear in the bitstream.
const MODE_SKIP: u32 = 0;
const MODE_DELTA: u32 = 1;
const MODE_INTRA: u32 = 2;

/// What kind of frame a decode produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// An intra (key) frame: decodable with no reference.
    Key,
    /// A temporal (predicted) frame: decoded against the reference.
    Predicted,
}

/// Per-frame temporal coding statistics.
///
/// `bits` is the total emitted frame size including the header;
/// `intra_bits` is what the same frame would have cost as a pure intra
/// frame (computed in the same pass), so `intra_bits - bits` is the exact
/// bandwidth the temporal mode saved. On keyframes the two are equal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TemporalFrameStats {
    /// True when the frame was emitted as an intra keyframe.
    pub keyframe: bool,
    /// Tiles emitted as `Skip` records.
    pub skip_tiles: u64,
    /// Tiles emitted as `Delta` records.
    pub delta_tiles: u64,
    /// Tiles emitted as `Intra` records (inside a predicted frame, or all
    /// tiles of a keyframe).
    pub intra_tiles: u64,
    /// Total emitted bits for the frame, header included.
    pub bits: u64,
    /// Bits the frame would have cost as a pure intra frame.
    pub intra_bits: u64,
}

/// Returns true when `bytes` begin with the temporal frame marker.
///
/// Intra bitstreams start with a nonzero 16-bit width, so a leading zero
/// 16-bit word identifies a predicted frame. Streams shorter than two
/// bytes are not temporal (and will fail either parser with a typed
/// error).
pub fn is_temporal_bitstream(bytes: &[u8]) -> bool {
    bytes.len() >= 2 && bytes[0] == 0 && bytes[1] == 0
}

/// Maps a wrapping byte residual to an unsigned code with small codes for
/// small signed magnitudes.
#[inline]
fn zigzag(residual: u8) -> u8 {
    let s = residual as i8;
    ((s << 1) ^ (s >> 7)) as u8
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(code: u8) -> u8 {
    (code >> 1) ^ (code & 1).wrapping_neg()
}

/// Encodes `frame` as a predicted frame against `reference`.
///
/// `gather` and `reference_gather` are caller-owned SoA scratch, recycled
/// across frames like the intra encoder's gather buffer; once warm the
/// encode allocates nothing. Both tiles are gathered as per-channel lanes:
/// the intra/delta ranges reduce with the 8-wide lane kernel, and the
/// zigzag residuals form over contiguous `u8` lanes, so everything before
/// the serial bit-write vectorizes. Returns the temporal statistics plus
/// the [`CompressionStats`] of the emitted payload (breakdown excludes the
/// 64-bit header, mirroring the intra accounting which excludes its
/// 48-bit header).
///
/// # Panics
///
/// Panics if `frame` and `reference` dimensions differ — the caller owns
/// the keyframe policy and must emit an intra frame on any dimension
/// change — or if the frame's width or height, or `tile_size`, exceeds
/// `u16::MAX` (the header stores each in 16 bits).
pub fn encode_temporal_frame_into(
    tile_size: u32,
    frame: &SrgbFrame,
    reference: &SrgbFrame,
    writer: &mut BitWriter,
    gather: &mut SrgbTileLanes,
    reference_gather: &mut SrgbTileLanes,
) -> (TemporalFrameStats, CompressionStats) {
    assert_eq!(
        frame.dimensions(),
        reference.dimensions(),
        "predicted frames require a same-sized reference"
    );
    let dims = frame.dimensions();
    let grid = TileGrid::new(dims, tile_size);
    writer.clear();
    write_header(writer, FrameKind::Predicted, dims, tile_size);

    let mut stats = TemporalFrameStats {
        keyframe: false,
        intra_bits: 48,
        ..TemporalFrameStats::default()
    };
    let mut breakdown = SizeBreakdown::ZERO;
    for tile in grid.tiles() {
        frame.tile_lanes_into(tile, gather);
        reference.tile_lanes_into(tile, reference_gather);
        let pixels = gather.len();

        // The intra baseline is accounted for every tile, including the
        // ones that end up skipped, so `intra_bits` is exactly what an
        // intra-only frame would have cost.
        let intra_ranges = tile_ranges(gather);
        let intra_cost = MODE_BITS + tile_record_size(&intra_ranges, pixels).total_bits();
        stats.intra_bits += intra_cost - MODE_BITS;

        if gather == reference_gather {
            writer.write_bits(MODE_SKIP, MODE_BITS as u32);
            breakdown.metadata_bits += MODE_BITS;
            stats.skip_tiles += 1;
            continue;
        }

        // Zigzag residuals overwrite the reference scratch in place: after
        // the skip comparison the raw reference samples are only needed to
        // form `cur - prev`. Each channel is a contiguous u8 lane, so the
        // wrapping subtract + zigzag loop vectorizes.
        for (cur, prev) in [
            (&gather.r, &mut reference_gather.r),
            (&gather.g, &mut reference_gather.g),
            (&gather.b, &mut reference_gather.b),
        ] {
            for (c, p) in cur.iter().zip(prev.iter_mut()) {
                *p = zigzag(c.wrapping_sub(*p));
            }
        }
        let delta_ranges = tile_ranges(reference_gather);
        let delta_cost = MODE_BITS + tile_record_size(&delta_ranges, pixels).total_bits();

        let (mode, source, ranges) = if delta_cost < intra_cost {
            stats.delta_tiles += 1;
            (MODE_DELTA, &*reference_gather, delta_ranges)
        } else {
            stats.intra_tiles += 1;
            (MODE_INTRA, &*gather, intra_ranges)
        };
        writer.write_bits(mode, MODE_BITS as u32);
        breakdown.metadata_bits += MODE_BITS;
        for (channel, &range) in ranges.iter().enumerate() {
            breakdown += write_channel(writer, source.channel(channel), range);
        }
    }
    stats.bits = writer.bits_written();
    (
        stats,
        CompressionStats::from_breakdown(dims.pixel_count(), breakdown),
    )
}

/// Applies a predicted frame to `reference` in place.
///
/// The reference must be valid and dimension-matched; both are checked
/// (after header validation, before any pixel is touched) and reported as
/// [`BitstreamError::MissingReference`] /
/// [`BitstreamError::ReferenceMismatch`]. On a mid-apply error the
/// reference is left partially updated — the caller must invalidate it.
pub(crate) fn apply_temporal_frame(
    bytes: &[u8],
    max_pixels: u64,
    reference: &mut SrgbFrame,
    reference_valid: bool,
) -> Result<(), BitstreamError> {
    let mut r = BitReader::new(bytes);
    let header = read_header(&mut r, FrameKind::Predicted, max_pixels)?;
    if !reference_valid {
        return Err(BitstreamError::MissingReference);
    }
    if reference.dimensions() != header.dimensions {
        return Err(BitstreamError::ReferenceMismatch {
            width: header.dimensions.width,
            height: header.dimensions.height,
            ref_width: reference.dimensions().width,
            ref_height: reference.dimensions().height,
        });
    }
    for tile in TileGrid::new(header.dimensions, header.tile_size).tiles() {
        match r.read_bits(MODE_BITS as u32)? {
            MODE_SKIP => {}
            MODE_DELTA => read_tile(&mut r, tile, reference, |prev, code| {
                prev.wrapping_add(unzigzag(code))
            })?,
            MODE_INTRA => read_tile(&mut r, tile, reference, |_, code| code)?,
            _ => return Err(BitstreamError::InvalidHeader { field: "tile mode" }),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_color::Srgb8;
    use pvc_frame::Dimensions;
    use rand::{Rng, SeedableRng};

    fn random_frame(width: u32, height: u32, seed: u64) -> SrgbFrame {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let dims = Dimensions::new(width, height);
        let pixels = (0..dims.pixel_count())
            .map(|_| Srgb8::new(rng.gen(), rng.gen(), rng.gen()))
            .collect();
        SrgbFrame::from_pixels(dims, pixels).expect("sized correctly")
    }

    fn encode(tile_size: u32, frame: &SrgbFrame, reference: &SrgbFrame) -> Vec<u8> {
        let mut writer = BitWriter::new();
        let (mut a, mut b) = (SrgbTileLanes::new(), SrgbTileLanes::new());
        encode_temporal_frame_into(tile_size, frame, reference, &mut writer, &mut a, &mut b);
        writer.finish()
    }

    #[test]
    fn zigzag_is_a_byte_bijection() {
        for value in 0..=u8::MAX {
            assert_eq!(unzigzag(zigzag(value)), value);
        }
        // Small magnitudes map to small codes.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(0xFF), 1); // -1
    }

    #[test]
    fn roundtrip_against_a_reference() {
        let reference = random_frame(24, 16, 7);
        let mut frame = reference.clone();
        // Perturb a few pixels so all three modes plausibly appear.
        let pixels = frame.pixels_mut();
        pixels[0] = Srgb8::new(1, 2, 3);
        pixels[100] = Srgb8::new(250, 0, 128);
        let bytes = encode(4, &frame, &reference);
        assert!(is_temporal_bitstream(&bytes));
        let mut decoded = reference.clone();
        apply_temporal_frame(&bytes, u64::MAX, &mut decoded, true).expect("valid");
        assert_eq!(decoded, frame);
    }

    #[test]
    fn identical_frame_is_all_skip_tiles() {
        let reference = random_frame(16, 16, 3);
        let mut writer = BitWriter::new();
        let (mut a, mut b) = (SrgbTileLanes::new(), SrgbTileLanes::new());
        let (stats, _) =
            encode_temporal_frame_into(4, &reference, &reference, &mut writer, &mut a, &mut b);
        assert_eq!(stats.skip_tiles, 16);
        assert_eq!(stats.delta_tiles, 0);
        assert_eq!(stats.intra_tiles, 0);
        // 64-bit header + 2 bits per tile.
        assert_eq!(stats.bits, 64 + 16 * 2);
        assert!(stats.intra_bits > stats.bits);
        assert_eq!(stats.bits, writer.bits_written());
    }

    #[test]
    fn missing_reference_is_a_typed_error() {
        let reference = random_frame(8, 8, 1);
        let bytes = encode(4, &reference, &reference);
        let mut out = reference.clone();
        assert_eq!(
            apply_temporal_frame(&bytes, u64::MAX, &mut out, false),
            Err(BitstreamError::MissingReference)
        );
    }

    #[test]
    fn mismatched_reference_is_a_typed_error() {
        let reference = random_frame(8, 8, 1);
        let bytes = encode(4, &reference, &reference);
        let mut wrong = random_frame(16, 8, 2);
        assert!(matches!(
            apply_temporal_frame(&bytes, u64::MAX, &mut wrong, true),
            Err(BitstreamError::ReferenceMismatch { .. })
        ));
    }

    #[test]
    fn reserved_tile_mode_is_rejected() {
        let mut w = BitWriter::new();
        w.write_bits(0, 16);
        w.write_bits(8, 16);
        w.write_bits(8, 16);
        w.write_bits(8, 16);
        w.write_bits(3, 2); // reserved mode
        let mut out = random_frame(8, 8, 1);
        assert_eq!(
            apply_temporal_frame(&w.finish(), u64::MAX, &mut out, true),
            Err(BitstreamError::InvalidHeader { field: "tile mode" })
        );
    }

    #[test]
    fn header_budget_and_floor_are_enforced() {
        // Over the pixel budget.
        let mut w = BitWriter::new();
        w.write_bits(0, 16);
        w.write_bits(65535, 16);
        w.write_bits(65535, 16);
        w.write_bits(1, 16);
        let mut out = random_frame(8, 8, 1);
        assert!(matches!(
            apply_temporal_frame(&w.finish(), DEFAULT_MAX_PIXELS_FOR_TEST, &mut out, true),
            Err(BitstreamError::FrameTooLarge { .. })
        ));
        // Declared grid cannot fit the remaining input.
        let mut w = BitWriter::new();
        w.write_bits(0, 16);
        w.write_bits(1024, 16);
        w.write_bits(1024, 16);
        w.write_bits(1, 16);
        assert!(matches!(
            apply_temporal_frame(&w.finish(), DEFAULT_MAX_PIXELS_FOR_TEST, &mut out, true),
            Err(BitstreamError::InsufficientInput { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "16-bit header fields")]
    fn geometry_beyond_the_16_bit_header_panics_instead_of_truncating() {
        // 65540 would be written as 65540 mod 2^16 = 4: a 4x4 frame.
        let frame = SrgbFrame::filled(Dimensions::new(65_540, 4), Srgb8::new(1, 2, 3));
        let _ = encode(4, &frame, &frame);
    }

    const DEFAULT_MAX_PIXELS_FOR_TEST: u64 = crate::decoder::DEFAULT_MAX_PIXELS;
}
