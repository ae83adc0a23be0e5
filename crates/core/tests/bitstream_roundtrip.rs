//! End-to-end bitstream round-trip pin for the perceptual encoder:
//!
//! ```text
//! encode_frame_stream → to_bitstream → BdDecoder → decoded frame
//!                                                  == adjusted frame
//! ```
//!
//! BD is numerically lossless, so the bytes a streaming worker ships must
//! reconstruct the *adjusted* frame bit-for-bit — across arbitrary
//! dimensions (including non-tile-multiple edges), every resolution
//! tier's effective tile size (4 for the Quest-class tiers, 8 for the
//! Vision-class override), and both serial and 4-thread encoders. Both
//! the allocating and the scratch-reusing decode entry points are pinned.

use proptest::prelude::*;
use pvc_bdc::BdDecoder;
use pvc_color::{Srgb8, SyntheticDiscriminationModel};
use pvc_core::{EncoderConfig, PerceptualEncoder};
use pvc_fovea::{DisplayGeometry, GazePoint};
use pvc_frame::{Dimensions, SrgbFrame};
use pvc_scenes::{SceneConfig, SceneId, SceneRenderer};

/// The effective per-tier encoder tile sizes: Quest2 and QuestPro use the
/// default (4), VisionClass overrides to 8 (`ResolutionTier::tile_size`).
const TIER_TILE_SIZES: [u32; 3] = [4, 4, 8];

fn roundtrip(width: u32, height: u32, tile_size: u32, threads: usize, seed: u64) {
    let dims = Dimensions::new(width, height);
    let renderer = SceneRenderer::new(SceneId::by_index(seed as usize), {
        SceneConfig::new(dims).with_seed(seed)
    });
    let frame = renderer.render_linear((seed % 7) as u32);
    let encoder = PerceptualEncoder::new(
        SyntheticDiscriminationModel::default(),
        EncoderConfig::default()
            .with_tile_size(tile_size)
            .with_threads(threads),
    );
    let display = DisplayGeometry::quest2_like(dims);
    let gaze = GazePoint::new(
        (seed % u64::from(width)) as f64,
        (seed % u64::from(height)) as f64,
    );
    let result = encoder.encode_frame_stream(&frame, &display, gaze);

    let bytes = result.encoded.to_bitstream();
    let decoded = BdDecoder::new()
        .decode_bitstream(&bytes)
        .expect("the encoder's bytes are valid");
    assert_eq!(
        decoded, result.adjusted,
        "decoded pixels must equal the adjusted frame (BD is lossless)"
    );

    // Decoding into a recycled frame sees the same pixels.
    let mut scratch = SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default());
    BdDecoder::new()
        .decode_bitstream_into(&bytes, &mut scratch)
        .expect("the encoder's bytes are valid");
    assert_eq!(scratch, result.adjusted);
}

proptest! {
    /// Arbitrary frame geometry × tier tile sizes × serial/parallel.
    #[test]
    fn stream_bytes_reconstruct_the_adjusted_frame(
        width in 5u32..48,
        height in 5u32..48,
        tier in 0u32..3,
        threads in 0u32..2,
        seed in any::<u64>(),
    ) {
        roundtrip(
            width,
            height,
            TIER_TILE_SIZES[tier as usize],
            [1, 4][threads as usize],
            seed,
        );
    }
}

/// Deterministic edge pins: dimensions that are not multiples of the tile
/// size (ragged right/bottom tiles), single-pixel rows/columns, and a
/// tile larger than the frame — for every tier tile size and both thread
/// counts.
#[test]
fn non_tile_multiple_edges_roundtrip() {
    for &(width, height) in &[(13, 9), (9, 13), (1, 17), (17, 1), (5, 5), (33, 31)] {
        for &tile_size in &TIER_TILE_SIZES {
            for threads in [1, 4] {
                roundtrip(width, height, tile_size, threads, 11);
            }
        }
    }
}
