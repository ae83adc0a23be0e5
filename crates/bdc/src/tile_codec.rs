//! The per-tile, per-channel Base+Delta codec.

use crate::stats::SizeBreakdown;
use pvc_color::lanes::min_max_u8;
use pvc_color::Srgb8;
use pvc_frame::SrgbTileLanes;

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

/// The Base+Delta encoding of one color channel of one tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelEncoding {
    /// The base value (the minimum code value of the tile).
    pub base: u8,
    /// Bit length shared by every Δ of the tile.
    pub delta_bits: u8,
    /// Per-pixel offsets from the base, in tile row-major order.
    pub deltas: Vec<u8>,
}

impl ChannelEncoding {
    /// Size of this channel encoding.
    pub fn size(&self) -> SizeBreakdown {
        SizeBreakdown {
            base_bits: BASE_BITS,
            metadata_bits: METADATA_BITS,
            delta_bits: self.delta_bits as u64 * self.deltas.len() as u64,
        }
    }

    /// Reconstructs the original code values.
    pub fn decode(&self) -> Vec<u8> {
        self.deltas
            .iter()
            .map(|&d| self.base.wrapping_add(d))
            .collect()
    }
}

/// The Base+Delta encoding of one pixel tile (all three channels).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileEncoding {
    /// Per-channel encodings in `(R, G, B)` order.
    pub channels: [ChannelEncoding; 3],
    /// Number of pixels in the tile.
    pub pixel_count: usize,
}

impl TileEncoding {
    /// Size of the encoded tile.
    pub fn size(&self) -> SizeBreakdown {
        self.channels.iter().map(ChannelEncoding::size).sum()
    }

    /// The largest per-channel delta bit length of the tile; a proxy for how
    /// compressible the tile is.
    pub fn max_delta_bits(&self) -> u8 {
        self.channels
            .iter()
            .map(|c| c.delta_bits)
            .max()
            .unwrap_or(0)
    }
}

/// Encodes one tile of sRGB pixels with the Base+Delta scheme.
///
/// The base of each channel is the minimum code value of the tile, so every
/// Δ is non-negative; the shared Δ bit-length is the number of bits needed
/// for the largest offset (`max − min`), exactly the quantity the
/// perceptual color adjustment tries to minimize.
///
/// # Panics
///
/// Panics if `pixels` is empty.
pub fn encode_tile(pixels: &[Srgb8]) -> TileEncoding {
    assert!(!pixels.is_empty(), "cannot encode an empty tile");
    // SoA: transpose once, then compute each channel's range and deltas over
    // a contiguous lane so the min/max reduction and the delta subtraction
    // vectorize. Integer min/max is order-independent, so the result is
    // bit-identical to the scalar [`channel_range`] walk.
    let mut lanes = SrgbTileLanes::new();
    lanes.fill_from_pixels(pixels);
    let channels = std::array::from_fn(|c| {
        let lane = lanes.channel(c);
        let (min, max) = min_max_u8(lane);
        ChannelEncoding {
            base: min,
            delta_bits: bits_for_range(max - min),
            deltas: lane.iter().map(|&v| v - min).collect(),
        }
    });
    TileEncoding {
        channels,
        pixel_count: pixels.len(),
    }
}

/// The `(min, max)` code values of one channel over a tile.
///
/// Scalar reference walk over AoS pixels; the hot paths use the lane kernel
/// [`pvc_color::lanes::min_max_u8`] over an SoA gather instead, and the
/// equivalence suites compare the two.
///
/// # Panics
///
/// Panics if `pixels` is empty.
pub fn channel_range(pixels: &[Srgb8], channel: usize) -> (u8, u8) {
    assert!(!pixels.is_empty(), "cannot encode an empty tile");
    let mut min = u8::MAX;
    let mut max = u8::MIN;
    for p in pixels {
        let v = p.channel(channel);
        min = min.min(v);
        max = max.max(v);
    }
    (min, max)
}

/// Decodes a tile back into sRGB pixels. BD is numerically lossless, so this
/// returns exactly the pixels passed to [`encode_tile`].
pub fn decode_tile(tile: &TileEncoding) -> Vec<Srgb8> {
    let r = tile.channels[0].decode();
    let g = tile.channels[1].decode();
    let b = tile.channels[2].decode();
    (0..tile.pixel_count)
        .map(|i| Srgb8::new(r[i], g[i], b[i]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let pixels = vec![Srgb8::new(95, 12, 200); 16];
        let tile = encode_tile(&pixels);
        assert_eq!(tile.max_delta_bits(), 0);
        assert_eq!(tile.size().delta_bits, 0);
        assert_eq!(tile.size().base_bits, 24);
        assert_eq!(tile.size().metadata_bits, 12);
        assert_eq!(decode_tile(&tile), pixels);
    }

    #[test]
    fn figure_4_like_tile() {
        // Pixels clustered around 95 with small offsets: the deltas should
        // take only a few bits.
        let codes = [
            95u8, 97, 96, 95, 98, 99, 95, 96, 97, 95, 98, 95, 96, 97, 95, 99,
        ];
        let pixels: Vec<Srgb8> = codes.iter().map(|&v| Srgb8::new(v, v, v)).collect();
        let tile = encode_tile(&pixels);
        assert_eq!(tile.channels[0].base, 95);
        assert_eq!(tile.channels[0].delta_bits, 3); // range 4 → 3 bits
        assert_eq!(decode_tile(&tile), pixels);
        let bpp = tile.size().bits_per_pixel(16);
        assert!(bpp < 12.0, "bits per pixel {bpp}");
    }

    #[test]
    fn noisy_tile_costs_more_than_smooth_tile() {
        let smooth: Vec<Srgb8> = (0..16).map(|i| Srgb8::new(100 + i % 2, 50, 60)).collect();
        let noisy: Vec<Srgb8> = (0..16u8)
            .map(|i| Srgb8::new(i.wrapping_mul(37), i.wrapping_mul(91), i))
            .collect();
        let s = encode_tile(&smooth).size().total_bits();
        let n = encode_tile(&noisy).size().total_bits();
        assert!(n > s);
    }

    #[test]
    fn roundtrip_is_lossless_for_extremes() {
        let pixels = vec![
            Srgb8::new(0, 255, 128),
            Srgb8::new(255, 0, 127),
            Srgb8::new(1, 254, 126),
            Srgb8::new(254, 1, 129),
        ];
        let tile = encode_tile(&pixels);
        assert_eq!(decode_tile(&tile), pixels);
        assert_eq!(tile.channels[0].delta_bits, 8);
    }

    #[test]
    fn channel_encoding_size_accounts_every_delta() {
        let pixels: Vec<Srgb8> = (0..36).map(|i| Srgb8::new(i as u8, 0, 0)).collect();
        let tile = encode_tile(&pixels);
        assert_eq!(tile.channels[0].deltas.len(), 36);
        assert_eq!(tile.channels[0].delta_bits, 6);
        assert_eq!(tile.channels[0].size().delta_bits, 36 * 6);
    }

    #[test]
    #[should_panic]
    fn empty_tile_panics() {
        let _ = encode_tile(&[]);
    }

    #[test]
    fn lane_range_matches_scalar_reference() {
        // Pixel counts around the 8-wide lane blocking, including remainders.
        for len in 1..=33usize {
            let pixels: Vec<Srgb8> = (0..len)
                .map(|i| {
                    let v = (i * 37 % 256) as u8;
                    Srgb8::new(v, v.wrapping_mul(3), v.wrapping_add(91))
                })
                .collect();
            let mut lanes = SrgbTileLanes::new();
            lanes.fill_from_pixels(&pixels);
            for channel in 0..3 {
                assert_eq!(
                    min_max_u8(lanes.channel(channel)),
                    channel_range(&pixels, channel),
                    "len {len} channel {channel}"
                );
            }
        }
    }
}
