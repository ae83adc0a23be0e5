//! Property-based tests for the Base+Delta codec, through the public
//! encoder and decoder. BD is lossless, so the oracle for every decode is
//! the original frame.

use proptest::prelude::*;
use pvc_bdc::{BdConfig, BdDecoder, BdEncoder};
use pvc_color::Srgb8;
use pvc_frame::{Dimensions, SrgbFrame};

fn arb_pixel() -> impl Strategy<Value = Srgb8> {
    (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(r, g, b)| Srgb8::new(r, g, b))
}

/// A `width × height` frame from the first pixels of `pool`.
fn frame_from(width: u32, height: u32, pool: &[Srgb8]) -> SrgbFrame {
    let dims = Dimensions::new(width, height);
    SrgbFrame::from_pixels(dims, pool[..dims.pixel_count()].to_vec()).unwrap()
}

fn random_frame(width: u32, height: u32, seed: u64) -> SrgbFrame {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let dims = Dimensions::new(width, height);
    let pixels = (0..dims.pixel_count())
        .map(|_| Srgb8::new(rng.gen(), rng.gen(), rng.gen()))
        .collect();
    SrgbFrame::from_pixels(dims, pixels).unwrap()
}

proptest! {
    /// A frame covered by a single (possibly non-square) tile decodes to
    /// itself.
    #[test]
    fn single_tile_roundtrip_is_lossless(
        width in 1u32..9,
        height in 1u32..9,
        pool in proptest::collection::vec(arb_pixel(), 64..65),
    ) {
        let frame = frame_from(width, height, &pool);
        let tile_size = width.max(height);
        let bytes = BdEncoder::new(BdConfig::with_tile_size(tile_size))
            .encode_frame(&frame)
            .to_bitstream();
        prop_assert_eq!(BdDecoder::new().decode_bitstream(&bytes).unwrap(), frame);
    }

    #[test]
    fn single_tile_size_is_bounded_by_uncompressed_plus_overhead(
        width in 1u32..9,
        height in 1u32..9,
        pool in proptest::collection::vec(arb_pixel(), 64..65),
    ) {
        let frame = frame_from(width, height, &pool);
        let size = BdEncoder::new(BdConfig::with_tile_size(width.max(height)))
            .encode_frame(&frame)
            .size_breakdown();
        let pixels = u64::from(width * height);
        // Worst case: 8 delta bits per channel per pixel, plus 36 bits of
        // base+metadata overhead.
        prop_assert!(size.total_bits() <= pixels * 24 + 36);
        // And never less than the base+metadata overhead itself.
        prop_assert!(size.total_bits() >= 36);
    }

    #[test]
    fn frame_roundtrip_is_lossless(
        width in 1u32..40,
        height in 1u32..40,
        tile_size in 1u32..9,
        seed in any::<u64>(),
    ) {
        let frame = random_frame(width, height, seed);
        let encoded = BdEncoder::new(BdConfig::with_tile_size(tile_size)).encode_frame(&frame);
        prop_assert_eq!(encoded.decode(), frame);
    }

    /// The decoder reproduces the frame from the bytes alone, and the
    /// bytes are exactly the accounted payload plus the 48-bit header.
    #[test]
    fn bitstream_roundtrip_matches_the_size_accounting(
        width in 1u32..24,
        height in 1u32..24,
        seed in any::<u64>(),
    ) {
        let frame = random_frame(width, height, seed);
        let encoded = BdEncoder::new(BdConfig::default()).encode_frame(&frame);
        let bytes = encoded.to_bitstream();
        let expected_bits = encoded.size_breakdown().total_bits() + 48;
        prop_assert_eq!(bytes.len() as u64, expected_bits.div_ceil(8));
        prop_assert_eq!(BdDecoder::new().decode_bitstream(&bytes).unwrap(), frame);
    }
}
