//! Adversarial decoder suite: no byte string may panic the decoder or
//! make it allocate unboundedly.
//!
//! `BdDecoder`, the crate's one parser of bitstreams, faces *untrusted*
//! input once a wire stream exists, so the contract is: return `Err` or a
//! frame — never panic — and keep every allocation proportional to the
//! input (plus the decoder's configured pixel budget, which is what
//! bounds legitimate flat frames whose output is intrinsically much
//! larger than their input).
//!
//! Allocation is asserted with a *byte-counting* global allocator whose
//! counter is thread-local (a const-initialized `Cell<u64>` has no drop
//! glue, so the thread-local access itself never allocates or recurses).
//! Unlike the process-global event counter in
//! `crates/core/tests/alloc_regression.rs`, per-thread counters stay
//! accurate when the test harness runs these cases concurrently.

use proptest::prelude::*;
use pvc_bdc::{
    encode_temporal_frame_into, is_temporal_bitstream, BdConfig, BdDecoder, BdEncoder, BitWriter,
    BitstreamError, FrameKind,
};
use pvc_color::Srgb8;
use pvc_frame::{Dimensions, SrgbFrame, SrgbTileLanes};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes allocated by this thread since it started.
    static BYTES_ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator with a per-thread byte counter in front.
struct ByteCountingAllocator;

// SAFETY: delegates every operation verbatim to the system allocator; the
// counter has no effect on the returned memory.
unsafe impl GlobalAlloc for ByteCountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES_ALLOCATED.with(|b| b.set(b.get() + layout.size() as u64));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES_ALLOCATED.with(|b| b.set(b.get() + new_size as u64));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: ByteCountingAllocator = ByteCountingAllocator;

/// Runs `f`, returning its result and the bytes it allocated.
fn measured<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = BYTES_ALLOCATED.with(Cell::get);
    let result = f();
    let after = BYTES_ALLOCATED.with(Cell::get);
    (result, after - before)
}

/// A small pixel budget for the strict byte-bound assertions: decoding
/// into at most 64×64 pixels caps the frame scratch at ~12 KiB.
const TIGHT_BUDGET: u64 = 64 * 64;

/// Allocation allowance for a decode of `input_len` bytes under
/// [`TIGHT_BUDGET`]: a small multiple of the input plus the budgeted
/// frame (and `Vec` growth slack).
fn allowance(input_len: usize) -> u64 {
    128 * input_len as u64 + 64 * 1024
}

fn random_frame(width: u32, height: u32, seed: u64) -> SrgbFrame {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let dims = Dimensions::new(width, height);
    let pixels = (0..dims.pixel_count())
        .map(|_| Srgb8::new(rng.gen(), rng.gen(), rng.gen()))
        .collect();
    SrgbFrame::from_pixels(dims, pixels).expect("sized correctly")
}

fn valid_stream() -> Vec<u8> {
    BdEncoder::new(BdConfig::with_tile_size(4))
        .encode_frame(&random_frame(16, 16, 42))
        .to_bitstream()
}

/// Decodes `bytes` under the tight pixel budget, asserting the decoder
/// neither panics nor leaves the allocation allowance.
fn decode_untrusted(bytes: &[u8]) {
    let decoder = BdDecoder::new().with_max_pixels(TIGHT_BUDGET);
    let (result, allocated) = measured(|| decoder.decode_bitstream(bytes).map(drop));
    assert!(
        allocated <= allowance(bytes.len()),
        "BdDecoder allocated {allocated} bytes for {} input bytes ({result:?})",
        bytes.len()
    );
}

/// The original decompression bomb: a 9-byte stream whose header declares
/// 65535×65535 (~4.3 Gpx, ~12 GiB of pixels) and whose single-tile,
/// `delta_bits = 0` channels used to be materialized without reading a
/// single further input bit. The decoder must reject it after only
/// trivial allocation.
#[test]
fn delta_bits_zero_bomb_is_rejected_before_allocating() {
    let mut w = BitWriter::new();
    w.write_bits(65535, 16);
    w.write_bits(65535, 16);
    w.write_bits(65535, 16); // one giant tile, so the 36-bit floor passes
    w.write_bits(0, 24); // base + delta_bits = 0 for the first channel
    let bytes = w.finish();
    assert_eq!(bytes.len(), 9);

    let (result, allocated) = measured(|| BdDecoder::new().decode_bitstream(&bytes).map(drop));
    assert!(matches!(
        result.unwrap_err(),
        BitstreamError::FrameTooLarge { .. }
    ));
    assert!(
        allocated < 4096,
        "the bomb must die in header validation, allocated {allocated} bytes"
    );
}

/// The tile-count variant of the bomb: dimensions inside the pixel budget
/// but a 1×1 tile grid whose per-tile minimum cost (36 bits) already
/// exceeds the input. Must be rejected before the output frame exists.
#[test]
fn tile_count_bomb_is_rejected_before_allocating() {
    let mut w = BitWriter::new();
    w.write_bits(1024, 16);
    w.write_bits(1024, 16);
    w.write_bits(1, 16); // 2^20 tiles × 36 bits ≫ 9 bytes of input
    w.write_bits(0, 24);
    let bytes = w.finish();

    let (result, allocated) = measured(|| BdDecoder::new().decode_bitstream(&bytes).map(drop));
    assert!(matches!(
        result.unwrap_err(),
        BitstreamError::InsufficientInput { .. }
    ));
    assert!(allocated < 4096, "allocated {allocated} bytes");
}

/// Every single-byte truncation of a valid stream must fail cleanly (a
/// truncation can never land exactly on a frame boundary, because the
/// only boundary is the full stream).
#[test]
fn every_truncation_of_a_valid_stream_is_rejected() {
    let bytes = valid_stream();
    let decoder = BdDecoder::new().with_max_pixels(TIGHT_BUDGET);
    assert!(decoder.decode_bitstream(&bytes).is_ok());
    for len in 0..bytes.len() {
        let truncated = &bytes[..len];
        let (result, allocated) = measured(|| decoder.decode_bitstream(truncated).map(drop));
        assert!(result.is_err(), "truncation to {len} bytes must fail");
        assert!(
            allocated <= allowance(len),
            "truncation to {len} allocated {allocated} bytes"
        );
    }
}

/// Every single-bit flip in the 48-bit header must yield `Err` or a
/// (garbage) frame — never a panic, never a blow-up.
#[test]
fn every_header_bit_flip_is_survivable() {
    let bytes = valid_stream();
    for bit in 0..48 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (7 - bit % 8);
        decode_untrusted(&flipped);
    }
}

/// Every single-bit flip in the body likewise: a flipped `delta_bits`
/// field or delta payload may shift every later read, but the decoder
/// must stay panic-free and allocation-bounded.
#[test]
fn every_body_bit_flip_is_survivable() {
    let bytes = valid_stream();
    for bit in 48..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (7 - bit % 8);
        decode_untrusted(&flipped);
    }
}

/// Whatever a bit-flipped stream the decoder accepts, it returns a whole
/// frame of the dimensions that stream's header declares.
#[test]
fn accepted_streams_always_decode() {
    let bytes = valid_stream();
    let decoder = BdDecoder::new();
    let mut decoded_count = 0usize;
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (7 - bit % 8);
        if let Ok(frame) = decoder.decode_bitstream(&flipped) {
            let width = u32::from(flipped[0]) << 8 | u32::from(flipped[1]);
            let height = u32::from(flipped[2]) << 8 | u32::from(flipped[3]);
            assert_eq!(frame.dimensions(), Dimensions::new(width, height));
            assert_eq!(frame.pixels().len(), (width * height) as usize);
            decoded_count += 1;
        }
    }
    // Plenty of body flips (e.g. inside delta payloads) still parse.
    assert!(decoded_count > 0, "some flips must still parse");
}

// ---------------------------------------------------------------------
// Temporal records: the stateful decoder faces the same untrusted wire,
// with two extra attack surfaces — the tile-mode records and the
// reference state a predicted frame depends on.
// ---------------------------------------------------------------------

/// A valid temporal fixture: the reference's intra stream, a dependent
/// predicted-frame stream exercising all three tile modes, and the frame
/// that stream must reconstruct.
fn temporal_fixture() -> (Vec<u8>, Vec<u8>, SrgbFrame) {
    let reference = random_frame(16, 16, 42);
    // Derive the next frame so Skip, Delta and Intra records all occur:
    // leave the top tiles untouched, nudge the middle rows by ±1, and
    // re-randomize the bottom rows.
    let mut pixels = reference.pixels().to_vec();
    for (index, pixel) in pixels.iter_mut().enumerate() {
        let row = index / 16;
        if (6..10).contains(&row) {
            pixel.r = pixel.r.wrapping_add(1);
            pixel.b = pixel.b.wrapping_sub(1);
        }
    }
    let noisy = random_frame(16, 16, 43);
    pixels[12 * 16..].copy_from_slice(&noisy.pixels()[12 * 16..]);
    let frame = SrgbFrame::from_pixels(Dimensions::new(16, 16), pixels).expect("sized correctly");

    let reference_stream = BdEncoder::new(BdConfig::with_tile_size(4))
        .encode_frame(&reference)
        .to_bitstream();
    let mut writer = BitWriter::new();
    let (mut gather, mut reference_gather) = (SrgbTileLanes::new(), SrgbTileLanes::new());
    let (stats, _) = encode_temporal_frame_into(
        4,
        &frame,
        &reference,
        &mut writer,
        &mut gather,
        &mut reference_gather,
    );
    assert!(stats.skip_tiles > 0 && stats.delta_tiles > 0 && stats.intra_tiles > 0);
    let temporal_stream = writer.finish();
    assert!(is_temporal_bitstream(&temporal_stream));
    (reference_stream, temporal_stream, frame)
}

/// A tight-budget stateful decoder whose reference was seeded by decoding
/// `reference_stream`.
fn seeded_decoder(reference_stream: &[u8]) -> BdDecoder {
    let mut decoder = BdDecoder::new().with_max_pixels(TIGHT_BUDGET);
    let mut out = SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default());
    let kind = decoder
        .decode_frame_into(reference_stream, &mut out)
        .expect("the reference stream decodes");
    assert_eq!(kind, FrameKind::Key);
    decoder
}

/// Stateful decode of untrusted `bytes` on a freshly seeded decoder:
/// never a panic, never more than the input allowance in allocations
/// (the tight budget caps both the output frame and the reference clone).
fn decode_stateful(reference_stream: &[u8], bytes: &[u8]) -> Result<FrameKind, BitstreamError> {
    let mut decoder = seeded_decoder(reference_stream);
    let mut out = SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default());
    let (result, allocated) = measured(|| decoder.decode_frame_into(bytes, &mut out));
    assert!(
        allocated <= allowance(bytes.len()),
        "stateful decode allocated {allocated} bytes for {} input bytes ({result:?})",
        bytes.len()
    );
    result
}

/// Every single-byte truncation of a valid temporal stream must fail with
/// a typed error — `BitWriter::finish` emits no data-free trailing byte,
/// so every truncation loses real record bits.
#[test]
fn every_truncation_of_a_temporal_stream_is_rejected() {
    let (reference_stream, temporal_stream, frame) = temporal_fixture();
    let mut out = SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default());
    let mut decoder = seeded_decoder(&reference_stream);
    decoder
        .decode_frame_into(&temporal_stream, &mut out)
        .expect("the intact stream decodes");
    assert_eq!(out, frame);
    for len in 0..temporal_stream.len() {
        let result = decode_stateful(&reference_stream, &temporal_stream[..len]);
        assert!(result.is_err(), "truncation to {len} bytes must fail");
    }
}

/// Every single-bit flip of a valid temporal stream must yield `Err` or a
/// (garbage) frame — never a panic, never a blow-up. A marker flip turns
/// the stream into a bogus intra header; a mode flip can poison every
/// later read; both must die typed.
#[test]
fn every_temporal_bit_flip_is_survivable() {
    let (reference_stream, temporal_stream, _) = temporal_fixture();
    for bit in 0..temporal_stream.len() * 8 {
        let mut flipped = temporal_stream.clone();
        flipped[bit / 8] ^= 1 << (7 - bit % 8);
        let _ = decode_stateful(&reference_stream, &flipped);
    }
}

/// A predicted frame with no reference at all is a typed error, after
/// only trivial allocation.
#[test]
fn temporal_stream_without_a_reference_is_a_typed_error() {
    let (_, temporal_stream, _) = temporal_fixture();
    let mut decoder = BdDecoder::new().with_max_pixels(TIGHT_BUDGET);
    let mut out = SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default());
    let (result, allocated) = measured(|| decoder.decode_frame_into(&temporal_stream, &mut out));
    assert_eq!(result, Err(BitstreamError::MissingReference));
    assert!(allocated < 4096, "allocated {allocated} bytes");
}

/// A predicted frame whose declared dimensions disagree with the held
/// reference is a typed error naming both geometries.
#[test]
fn temporal_stream_with_a_mismatched_reference_is_a_typed_error() {
    let (_, temporal_stream, _) = temporal_fixture();
    let small_reference = BdEncoder::new(BdConfig::with_tile_size(4))
        .encode_frame(&random_frame(8, 8, 7))
        .to_bitstream();
    let result = decode_stateful(&small_reference, &temporal_stream);
    assert_eq!(
        result,
        Err(BitstreamError::ReferenceMismatch {
            width: 16,
            height: 16,
            ref_width: 8,
            ref_height: 8,
        })
    );
}

/// A failed predicted-frame decode poisons the reference pessimistically:
/// later predicted frames are rejected (never built on half-applied
/// pixels) until a keyframe re-seeds the chain.
#[test]
fn poisoned_reference_rejects_dependents_until_a_keyframe() {
    let (reference_stream, temporal_stream, frame) = temporal_fixture();
    let mut decoder = seeded_decoder(&reference_stream);
    let mut out = SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default());
    // Mid-apply failure: the truncation dies after some tiles already
    // landed in the reference buffer.
    let truncated = &temporal_stream[..temporal_stream.len() - 1];
    assert!(decoder.decode_frame_into(truncated, &mut out).is_err());
    assert!(!decoder.has_reference());
    // The intact stream is now rejected too — the decoder refuses to
    // reconstruct from a half-applied reference.
    assert_eq!(
        decoder.decode_frame_into(&temporal_stream, &mut out),
        Err(BitstreamError::MissingReference)
    );
    // A keyframe repairs the chain and the dependent decodes bit-exactly.
    assert_eq!(
        decoder.decode_frame_into(&reference_stream, &mut out),
        Ok(FrameKind::Key)
    );
    assert_eq!(
        decoder.decode_frame_into(&temporal_stream, &mut out),
        Ok(FrameKind::Predicted)
    );
    assert_eq!(out, frame);
}

/// The temporal cousin of the decompression bomb: a predicted-frame
/// header declaring 65535×65535 must die in header validation (against
/// the pixel budget) before the decoder allocates anything.
#[test]
fn temporal_dimension_bomb_is_rejected_before_allocating() {
    let mut w = BitWriter::new();
    w.write_bits(0, 16); // temporal marker
    w.write_bits(65535, 16);
    w.write_bits(65535, 16);
    w.write_bits(65535, 16); // one giant tile
    w.write_bits(0, 24);
    let bytes = w.finish();
    assert!(is_temporal_bitstream(&bytes));

    let mut decoder = BdDecoder::new().with_max_pixels(TIGHT_BUDGET);
    let mut out = SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default());
    let (result, allocated) = measured(|| decoder.decode_frame_into(&bytes, &mut out));
    assert!(matches!(
        result.unwrap_err(),
        BitstreamError::FrameTooLarge { .. }
    ));
    assert!(
        allocated < 4096,
        "the bomb must die in header validation, allocated {allocated} bytes"
    );
}

proptest! {
    /// Arbitrary byte strings: `Err` or a frame, never a panic, never
    /// more than a small multiple of the input in allocations.
    #[test]
    fn random_bytes_never_panic_or_blow_up(
        bytes in proptest::collection::vec(any::<u8>(), 0..256)
    ) {
        decode_untrusted(&bytes);
    }

    /// Arbitrary byte strings with a plausible header in front, so the
    /// fuzz spends its time in the tile loop rather than dying on
    /// dimension checks.
    #[test]
    fn random_bodies_never_panic_or_blow_up(
        width in 1u32..48,
        height in 1u32..48,
        tile_size in 1u32..10,
        body in proptest::collection::vec(any::<u8>(), 0..512)
    ) {
        let mut w = BitWriter::new();
        w.write_bits(width, 16);
        w.write_bits(height, 16);
        w.write_bits(tile_size, 16);
        let mut bytes = w.finish();
        bytes.extend_from_slice(&body);
        decode_untrusted(&bytes);
    }

    /// Arbitrary bytes behind a well-formed temporal header, decoded
    /// statefully against a matching reference: the tile-mode loop and
    /// delta payloads must stay panic-free and allocation-bounded no
    /// matter what the records claim.
    #[test]
    fn random_temporal_bodies_never_panic_or_blow_up(
        tile_size in 1u32..10,
        body in proptest::collection::vec(any::<u8>(), 0..512)
    ) {
        let reference_stream = BdEncoder::new(BdConfig::with_tile_size(4))
            .encode_frame(&random_frame(16, 16, 42))
            .to_bitstream();
        let mut w = BitWriter::new();
        w.write_bits(0, 16); // temporal marker
        w.write_bits(16, 16);
        w.write_bits(16, 16);
        w.write_bits(tile_size, 16);
        let mut bytes = w.finish();
        bytes.extend_from_slice(&body);
        let _ = decode_stateful(&reference_stream, &bytes);
    }
}
