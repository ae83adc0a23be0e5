//! Golden bytes: the bitstream layout pinned against its specification.
//!
//! The expected streams below are written out by hand, field by field,
//! from the layout in the `pvc_bdc` crate docs (intra frames) and the
//! `temporal` module docs (predicted frames): every field is packed
//! most-significant bit first, tiles follow in row-major grid order,
//! pixels inside a tile follow in row-major order, and the final byte is
//! zero-padded. A change to any emitted bit fails here, whatever the
//! encoder's internals look like.

use pvc_bdc::{
    encode_temporal_frame_into, BdConfig, BdDecoder, BdEncoder, BitWriter, FrameKind, SizeBreakdown,
};
use pvc_color::Srgb8;
use pvc_frame::{Dimensions, SrgbFrame, SrgbTileLanes};

/// A 5×3 frame at tile size 4: a 4×3 tile and a clipped 1×3 tile.
///
/// Tile 0 (x 0..4): R is flat 10 (Δ bits 0), G is `100 + x + y`
/// (range 5, Δ bits 3), B is 128 except 0 at (0,0) and 255 at (3,2)
/// (range 255, Δ bits 8). Tile 1 (x = 4): R is `7 + y` (range 2, Δ bits
/// 2), G is flat 50 (Δ bits 0), B is 200, 201, 200 (range 1, Δ bits 1).
fn intra_frame() -> SrgbFrame {
    let dims = Dimensions::new(5, 3);
    let pixels = (0..3u8)
        .flat_map(|y| (0..5u8).map(move |x| (x, y)))
        .map(|(x, y)| {
            if x < 4 {
                let b = match (x, y) {
                    (0, 0) => 0,
                    (3, 2) => 255,
                    _ => 128,
                };
                Srgb8::new(10, 100 + x + y, b)
            } else {
                Srgb8::new(7 + y, 50, 200 + u8::from(y == 1))
            }
        })
        .collect();
    SrgbFrame::from_pixels(dims, pixels).expect("sized correctly")
}

/// The intra stream of [`intra_frame`], 261 bits in 33 bytes.
///
/// ```text
/// width 5 (16) | height 3 (16) | tile size 4 (16)
/// tile 0, R: base 10 (8) | Δ bits 0 (4)
/// tile 0, G: base 100 (8) | Δ bits 3 (4) | 0 1 2 3  1 2 3 4  2 3 4 5 (3 each)
/// tile 0, B: base 0 (8) | Δ bits 8 (4) | 0 128×10 255 (8 each)
/// tile 1, R: base 7 (8) | Δ bits 2 (4) | 0 1 2 (2 each)
/// tile 1, G: base 50 (8) | Δ bits 0 (4)
/// tile 1, B: base 200 (8) | Δ bits 1 (4) | 0 1 0 (1 each)
/// 3 zero padding bits
/// ```
const INTRA_GOLDEN: [u8; 33] = [
    0x00, 0x05, 0x00, 0x03, 0x00, 0x04, // header
    0x0A, 0x06, 0x43, 0x05, 0x32, 0x9C, 0x4E, 0x50, 0x08, 0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
    0x80, 0x80, 0x80, 0x80, 0xFF, 0x07, 0x21, 0x8C, 0x83, 0x20, 0x50,
];

#[test]
fn intra_stream_matches_the_documented_layout() {
    let frame = intra_frame();
    let encoder = BdEncoder::new(BdConfig::with_tile_size(4));
    let encoded = encoder.encode_frame(&frame);
    assert_eq!(encoded.to_bitstream(), INTRA_GOLDEN);
    assert_eq!(
        encoded.size_breakdown(),
        SizeBreakdown {
            base_bits: 6 * 8,
            metadata_bits: 6 * 4,
            delta_bits: 12 * 3 + 12 * 8 + 3 * 2 + 3,
        }
    );

    let mut writer = BitWriter::new();
    let mut gather = SrgbTileLanes::new();
    let stats = encoder.encode_frame_into(&frame, &mut writer, &mut gather);
    assert_eq!(writer.as_bytes(), INTRA_GOLDEN);
    assert_eq!(writer.bits_written(), 261);
    assert_eq!(stats, encoded.stats());
}

#[test]
fn intra_golden_stream_decodes_to_its_frame() {
    let decoded = BdDecoder::new()
        .decode_bitstream(&INTRA_GOLDEN)
        .expect("the golden stream is valid");
    assert_eq!(decoded, intra_frame());
}

/// A 6×1 reference and frame at tile size 2: three 2×1 tiles coded as
/// Skip, Delta and Intra.
///
/// Tile 0 is unchanged (Skip). Tile 1 moves R by +1/+2 and G by −1 and
/// keeps B: zigzag residuals R 2, 4 / G 1, 1 / B 0, 0 cost 2 + 16 + 12 +
/// 12 = 42 bits against 78 for the intra record, so it is a Delta tile.
/// Tile 2 replaces black with (50,60,70), (52,60,71): the intra record
/// costs 2 + 16 + 12 + 14 = 44 bits and the zigzag residuals cost
/// 2 + 18 + 12 + 16 = 48, so it is an Intra tile.
fn temporal_pair() -> (SrgbFrame, SrgbFrame) {
    let dims = Dimensions::new(6, 1);
    let reference = vec![
        Srgb8::new(1, 2, 3),
        Srgb8::new(4, 5, 6),
        Srgb8::new(10, 20, 30),
        Srgb8::new(200, 100, 50),
        Srgb8::new(0, 0, 0),
        Srgb8::new(0, 0, 0),
    ];
    let frame = vec![
        Srgb8::new(1, 2, 3),
        Srgb8::new(4, 5, 6),
        Srgb8::new(11, 19, 30),
        Srgb8::new(202, 99, 50),
        Srgb8::new(50, 60, 70),
        Srgb8::new(52, 60, 71),
    ];
    (
        SrgbFrame::from_pixels(dims, frame).expect("sized correctly"),
        SrgbFrame::from_pixels(dims, reference).expect("sized correctly"),
    )
}

/// The predicted stream of [`temporal_pair`], 152 bits in 19 bytes.
///
/// ```text
/// marker 0 (16) | width 6 (16) | height 1 (16) | tile size 2 (16)
/// tile 0: mode 0 = Skip (2)
/// tile 1: mode 1 = Delta (2)
///   R: base 2 (8) | Δ bits 2 (4) | 0 2 (2 each)
///   G: base 1 (8) | Δ bits 0 (4)
///   B: base 0 (8) | Δ bits 0 (4)
/// tile 2: mode 2 = Intra (2)
///   R: base 50 (8) | Δ bits 2 (4) | 0 2 (2 each)
///   G: base 60 (8) | Δ bits 0 (4)
///   B: base 70 (8) | Δ bits 1 (4) | 0 1 (1 each)
/// ```
const TEMPORAL_GOLDEN: [u8; 19] = [
    0x00, 0x00, 0x00, 0x06, 0x00, 0x01, 0x00, 0x02, // header
    0x10, 0x22, 0x20, 0x10, 0x00, 0x08, 0xC8, 0x88, 0xF0, 0x11, 0x85,
];

#[test]
fn temporal_stream_matches_the_documented_layout() {
    let (frame, reference) = temporal_pair();
    let mut writer = BitWriter::new();
    let (mut gather, mut reference_gather) = (SrgbTileLanes::new(), SrgbTileLanes::new());
    let (stats, compression) = encode_temporal_frame_into(
        2,
        &frame,
        &reference,
        &mut writer,
        &mut gather,
        &mut reference_gather,
    );
    assert_eq!(writer.as_bytes(), TEMPORAL_GOLDEN);
    assert_eq!(
        (stats.skip_tiles, stats.delta_tiles, stats.intra_tiles),
        (1, 1, 1)
    );
    assert_eq!(stats.bits, 152);
    // Three 2-bit modes plus six channel records; the header is excluded.
    assert_eq!(
        compression.breakdown,
        SizeBreakdown {
            base_bits: 6 * 8,
            metadata_bits: 3 * 2 + 6 * 4,
            delta_bits: 2 * 2 + 2 * 2 + 2,
        }
    );
}

#[test]
fn temporal_golden_stream_decodes_against_its_reference() {
    let (frame, reference) = temporal_pair();
    let reference_stream = BdEncoder::new(BdConfig::with_tile_size(2))
        .encode_frame(&reference)
        .to_bitstream();
    let mut decoder = BdDecoder::new();
    let mut out = SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default());
    assert_eq!(
        decoder.decode_frame_into(&reference_stream, &mut out),
        Ok(FrameKind::Key)
    );
    assert_eq!(out, reference);
    assert_eq!(
        decoder.decode_frame_into(&TEMPORAL_GOLDEN, &mut out),
        Ok(FrameKind::Predicted)
    );
    assert_eq!(out, frame);
}
