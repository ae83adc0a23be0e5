//! The Base+Delta bitstream records: the frame header and the per-channel
//! tile record, each written in one place and parsed in one place.
//!
//! The intra encoder ([`crate::BdEncoder`]) and the temporal encoder
//! ([`crate::encode_temporal_frame_into`]) share the header and record
//! writers; [`crate::BdDecoder`]'s intra decode and temporal apply share
//! the header validator and the record reader. The layout itself is
//! documented on the crate root and in [`crate::temporal`].

use crate::bitstream::{BitReader, BitWriter, BitstreamError};
use crate::stats::SizeBreakdown;
use crate::temporal::{FrameKind, MODE_BITS};
use pvc_color::lanes::min_max_u8;
use pvc_frame::{Dimensions, SrgbFrame, SrgbTileLanes, TileRect};

/// Number of bits used to store a base value (one 8-bit sRGB code value).
pub const BASE_BITS: u64 = 8;

/// Number of metadata bits per channel per tile: a 4-bit field holding the
/// delta bit-length (0–8).
pub const METADATA_BITS: u64 = 4;

/// Number of bits needed to encode any unsigned value in `0..=range`.
///
/// This is `⌈log₂(range + 1)⌉`, the per-Δ bit length of Eq. 6 (with the
/// ceiling that an actual encoder needs; a single bit-length is shared by
/// every Δ of the tile, so it must accommodate the worst case).
#[inline]
pub fn bits_for_range(range: u8) -> u8 {
    if range == 0 {
        0
    } else {
        (8 - range.leading_zeros() as u8).max(1)
    }
}

/// The first 16 bits of a predicted frame. An intra frame starts with its
/// width, which a valid header never sets to zero.
const TEMPORAL_MARKER: u32 = 0;

/// Per-channel `(min, max)` code values of one tile, in `(R, G, B)` order.
pub(crate) type TileRanges = [(u8, u8); 3];

/// Validated frame header geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FrameHeader {
    pub dimensions: Dimensions,
    pub tile_size: u32,
}

/// Reduces each lane of a gathered tile to its `(min, max)` code values.
#[inline]
pub(crate) fn tile_ranges(lanes: &SrgbTileLanes) -> TileRanges {
    std::array::from_fn(|channel| min_max_u8(lanes.channel(channel)))
}

/// Exact size of a tile's three channel records over `pixels` samples.
#[inline]
pub(crate) fn tile_record_size(ranges: &TileRanges, pixels: usize) -> SizeBreakdown {
    ranges
        .iter()
        .map(|&(min, max)| SizeBreakdown {
            base_bits: BASE_BITS,
            metadata_bits: METADATA_BITS,
            delta_bits: u64::from(bits_for_range(max - min)) * pixels as u64,
        })
        .sum()
}

/// Writes the frame header: the temporal marker for a predicted frame,
/// then `width(16) | height(16) | tile_size(16)`.
///
/// # Panics
///
/// Panics if the width, height or tile size exceeds `u16::MAX`: its
/// 16-bit field would keep only the low bits and describe another frame.
pub(crate) fn write_header(
    w: &mut BitWriter,
    kind: FrameKind,
    dimensions: Dimensions,
    tile_size: u32,
) {
    let max = u32::from(u16::MAX);
    assert!(
        dimensions.width <= max && dimensions.height <= max && tile_size <= max,
        "a {}x{} frame at tile size {tile_size} does not fit the 16-bit header fields",
        dimensions.width,
        dimensions.height
    );
    if kind == FrameKind::Predicted {
        w.write_bits(TEMPORAL_MARKER, 16);
    }
    w.write_bits(dimensions.width, 16);
    w.write_bits(dimensions.height, 16);
    w.write_bits(tile_size, 16);
}

/// Reads and validates a frame header of the given kind.
///
/// Rejects a missing temporal marker, zero dimensions or tile size, frames
/// over `max_pixels`, and — crucially — headers whose declared tile grid
/// cannot be backed by the remaining input. Every tile costs at least a
/// floor: its three channel records' base and metadata fields
/// (`3 × 12 = 36` bits) in an intra frame, its [`MODE_BITS`] mode in a
/// predicted one. This bounds every later allocation to a small multiple
/// of the input length.
pub(crate) fn read_header(
    r: &mut BitReader<'_>,
    kind: FrameKind,
    max_pixels: u64,
) -> Result<FrameHeader, BitstreamError> {
    let min_tile_bits = match kind {
        FrameKind::Key => 3 * (BASE_BITS + METADATA_BITS),
        FrameKind::Predicted => {
            if r.read_bits(16)? != TEMPORAL_MARKER {
                return Err(BitstreamError::InvalidHeader {
                    field: "temporal marker",
                });
            }
            MODE_BITS
        }
    };
    let width = r.read_bits(16)?;
    let height = r.read_bits(16)?;
    let tile_size = r.read_bits(16)?;
    if width == 0 || height == 0 {
        return Err(BitstreamError::InvalidHeader {
            field: "dimensions",
        });
    }
    if tile_size == 0 {
        return Err(BitstreamError::InvalidHeader { field: "tile size" });
    }
    let pixels = u64::from(width) * u64::from(height);
    if pixels > max_pixels {
        return Err(BitstreamError::FrameTooLarge { pixels, max_pixels });
    }
    let tile_count = u64::from(width.div_ceil(tile_size)) * u64::from(height.div_ceil(tile_size));
    check_remaining(r, tile_count * min_tile_bits)?;
    Ok(FrameHeader {
        dimensions: Dimensions::new(width, height),
        tile_size,
    })
}

/// Writes one channel record, `base(8) | delta_bits(4) | deltas
/// (delta_bits each)`, with `min` as the base, and returns its size.
///
/// Always inlined: left as a call inside the callers' tile loops, the
/// serial BD encode of a 128×128 frame measured 20–30% slower (2-core
/// x86-64 VM).
#[inline(always)]
pub(crate) fn write_channel(w: &mut BitWriter, lane: &[u8], (min, max): (u8, u8)) -> SizeBreakdown {
    let delta_bits = bits_for_range(max - min);
    w.write_bits(u32::from(min), BASE_BITS as u32);
    w.write_bits(u32::from(delta_bits), METADATA_BITS as u32);
    for &v in lane {
        w.write_bits(u32::from(v - min), u32::from(delta_bits));
    }
    SizeBreakdown {
        base_bits: BASE_BITS,
        metadata_bits: METADATA_BITS,
        delta_bits: u64::from(delta_bits) * lane.len() as u64,
    }
}

/// Reads a tile's three channel records into `frame`.
///
/// Each decoded code `base + delta` is stored as `store(current, code)`,
/// where `current` is the pixel's channel value before the record:
/// intra records keep the code, temporal Delta records add its unzigzagged
/// residual to the reference sample. A channel's Δ bit length must be at
/// most 8, and its whole payload must fit the remaining input before any
/// of it is read.
///
/// `tile` must lie inside `frame` (the caller sizes the frame from the
/// validated header). Always inlined, like [`write_channel`], so each
/// caller's `store` folds into its pixel loop.
#[inline(always)]
pub(crate) fn read_tile(
    r: &mut BitReader<'_>,
    tile: TileRect,
    frame: &mut SrgbFrame,
    store: impl Fn(u8, u8) -> u8,
) -> Result<(), BitstreamError> {
    let width = frame.dimensions().width as usize;
    let pixels = frame.pixels_mut();
    for channel in 0..3 {
        let base = r.read_bits(BASE_BITS as u32)? as u8;
        let delta_bits = r.read_bits(METADATA_BITS as u32)?;
        if delta_bits > 8 {
            return Err(BitstreamError::InvalidHeader {
                field: "delta bit length",
            });
        }
        // A `delta_bits = 0` channel consumes no further input; the header
        // floor bounds those, and this bounds every other channel.
        check_remaining(r, tile.pixel_count() as u64 * u64::from(delta_bits))?;
        for y in tile.y..tile.y + tile.height {
            let row = y as usize * width;
            for x in tile.x..tile.x + tile.width {
                let code = base.wrapping_add(r.read_bits(delta_bits)? as u8);
                let pixel = &mut pixels[row + x as usize];
                let slot = match channel {
                    0 => &mut pixel.r,
                    1 => &mut pixel.g,
                    _ => &mut pixel.b,
                };
                *slot = store(*slot, code);
            }
        }
    }
    Ok(())
}

/// Fails with [`BitstreamError::InsufficientInput`] unless at least
/// `required_bits` remain.
fn check_remaining(r: &BitReader<'_>, required_bits: u64) -> Result<(), BitstreamError> {
    if required_bits > r.remaining_bits() {
        return Err(BitstreamError::InsufficientInput {
            required_bits,
            remaining_bits: r.remaining_bits(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BdConfig, BdDecoder, BdEncodedFrame, BdEncoder};
    use pvc_color::Srgb8;

    /// Encodes `pixels` as a `side`×`side` frame covered by exactly one
    /// tile and checks that the decoder reproduces it.
    fn one_tile(side: u32, pixels: &[Srgb8]) -> BdEncodedFrame {
        let dims = Dimensions::new(side, side);
        let frame = SrgbFrame::from_pixels(dims, pixels.to_vec()).expect("square tile");
        let encoded = BdEncoder::new(BdConfig::with_tile_size(side)).encode_frame(&frame);
        let decoded = BdDecoder::new()
            .decode_bitstream(&encoded.to_bitstream())
            .expect("valid stream");
        assert_eq!(decoded, frame);
        encoded
    }

    #[test]
    fn bits_for_range_matches_manual_table() {
        assert_eq!(bits_for_range(0), 0);
        assert_eq!(bits_for_range(1), 1);
        assert_eq!(bits_for_range(2), 2);
        assert_eq!(bits_for_range(3), 2);
        assert_eq!(bits_for_range(4), 3);
        assert_eq!(bits_for_range(7), 3);
        assert_eq!(bits_for_range(8), 4);
        assert_eq!(bits_for_range(255), 8);
    }

    #[test]
    fn bits_for_range_always_sufficient() {
        for range in 0..=255u8 {
            let bits = bits_for_range(range);
            if bits < 8 {
                assert!(
                    u16::from(range) < (1u16 << bits).max(1),
                    "range {range} bits {bits}"
                );
            }
        }
    }

    #[test]
    fn flat_tile_needs_no_delta_bits() {
        let encoded = one_tile(4, &[Srgb8::new(95, 12, 200); 16]);
        assert_eq!(
            encoded.size_breakdown(),
            SizeBreakdown {
                base_bits: 24,
                metadata_bits: 12,
                delta_bits: 0,
            }
        );
    }

    #[test]
    fn figure_4_like_tile() {
        // Pixels clustered around 95 with small offsets: the deltas should
        // take only a few bits.
        let codes = [
            95u8, 97, 96, 95, 98, 99, 95, 96, 97, 95, 98, 95, 96, 97, 95, 99,
        ];
        let pixels: Vec<Srgb8> = codes.iter().map(|&v| Srgb8::new(v, v, v)).collect();
        let encoded = one_tile(4, &pixels);
        // Range 4 → 3 bits per Δ, in each of the three channels.
        assert_eq!(encoded.size_breakdown().delta_bits, 3 * 16 * 3);
        let bpp = encoded.size_breakdown().bits_per_pixel(16);
        assert!(bpp < 12.0, "bits per pixel {bpp}");
    }

    #[test]
    fn noisy_tile_costs_more_than_smooth_tile() {
        let smooth: Vec<Srgb8> = (0..16).map(|i| Srgb8::new(100 + i % 2, 50, 60)).collect();
        let noisy: Vec<Srgb8> = (0..16u8)
            .map(|i| Srgb8::new(i.wrapping_mul(37), i.wrapping_mul(91), i))
            .collect();
        let s = one_tile(4, &smooth).size_breakdown().total_bits();
        let n = one_tile(4, &noisy).size_breakdown().total_bits();
        assert!(n > s);
    }

    #[test]
    fn roundtrip_is_lossless_for_extremes() {
        let encoded = one_tile(
            2,
            &[
                Srgb8::new(0, 255, 128),
                Srgb8::new(255, 0, 127),
                Srgb8::new(1, 254, 126),
                Srgb8::new(254, 1, 129),
            ],
        );
        // R and G span 0..=255 (8 bits), B spans 126..=129 (2 bits).
        assert_eq!(encoded.size_breakdown().delta_bits, 4 * (8 + 8 + 2));
    }

    #[test]
    fn size_accounts_every_delta() {
        let pixels: Vec<Srgb8> = (0..36).map(|i| Srgb8::new(i as u8, 0, 0)).collect();
        // Only R varies: range 35 → 6 bits for each of the 36 pixels.
        assert_eq!(one_tile(6, &pixels).size_breakdown().delta_bits, 36 * 6);
    }

    #[test]
    #[should_panic(expected = "16-bit header fields")]
    fn oversized_geometry_is_refused_by_the_header_writer() {
        write_header(
            &mut BitWriter::new(),
            FrameKind::Key,
            Dimensions::new(4, 4),
            u32::from(u16::MAX) + 1,
        );
    }
}
