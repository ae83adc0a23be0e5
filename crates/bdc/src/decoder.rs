//! Byte-level decoding of BD bitstreams with reusable scratch: the one
//! parser of untrusted bytes in this crate.
//!
//! [`BdDecoder`] writes code values straight into a caller-owned
//! [`SrgbFrame`] — once the frame's buffer has warmed up to the session's
//! dimensions, the per-frame decode allocates nothing, mirroring the
//! encoder's `encode_frame_into` discipline. Intra frames and temporal
//! records go through the same header validator and channel-record
//! reader.
//!
//! Every decode entry point validates the header *before* allocating:
//! untrusted input gets to spend memory only in proportion to the bytes it
//! actually supplies (plus the configured [`BdDecoder::with_max_pixels`]
//! frame budget).

use crate::bitstream::{BitReader, BitstreamError};
use crate::temporal::{apply_temporal_frame, is_temporal_bitstream, FrameKind};
use crate::tile_codec::{read_header, read_tile};
use pvc_color::Srgb8;
use pvc_frame::{Dimensions, SrgbFrame, TileGrid};

/// Default frame budget: 2^25 pixels (~33.5 Mpx), comfortably above the
/// Vision-class native 3660×3200 (~11.7 Mpx) but small enough that a
/// crafted 65535×65535 header (~4.3 Gpx) is rejected before any
/// allocation.
pub const DEFAULT_MAX_PIXELS: u64 = 1 << 25;

/// A reusable byte-level BD decoder.
///
/// Intra decoding ([`decode_bitstream`](Self::decode_bitstream),
/// [`decode_bitstream_into`](Self::decode_bitstream_into)) is stateless:
/// the only decoder state it touches is the pixel budget, and the scratch
/// that matters — the output frame's pixel buffer — is owned by the caller
/// and recycled across frames.
///
/// Temporal streams are stateful: the decoder owns the reference frame
/// (its previous reconstruction) that predicted frames apply against.
/// [`decode_frame_into`](Self::decode_frame_into) sniffs the frame kind
/// from the first 16 bits, updates the reference, and reports whether the
/// frame was a keyframe. A predicted frame arriving while the reference is
/// absent (fresh decoder, prior decode error, or an explicit
/// [`invalidate_reference`](Self::invalidate_reference) after a stream
/// gap) fails with [`BitstreamError::MissingReference`] rather than
/// reconstructing wrong pixels.
///
/// # Examples
///
/// ```
/// use pvc_bdc::{BdConfig, BdDecoder, BdEncoder};
/// use pvc_color::Srgb8;
/// use pvc_frame::{Dimensions, SrgbFrame};
///
/// let frame = SrgbFrame::filled(Dimensions::new(8, 8), Srgb8::new(1, 2, 3));
/// let bytes = BdEncoder::new(BdConfig::default())
///     .encode_frame(&frame)
///     .to_bitstream();
/// let mut out = SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default());
/// BdDecoder::new().decode_bitstream_into(&bytes, &mut out).unwrap();
/// assert_eq!(out, frame);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BdDecoder {
    max_pixels: u64,
    /// The previous reconstruction, applied against by predicted frames.
    reference: SrgbFrame,
    reference_valid: bool,
}

impl Default for BdDecoder {
    fn default() -> Self {
        BdDecoder::new()
    }
}

impl BdDecoder {
    /// Creates a decoder with the default [`DEFAULT_MAX_PIXELS`] budget.
    pub fn new() -> Self {
        BdDecoder {
            max_pixels: DEFAULT_MAX_PIXELS,
            reference: SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default()),
            reference_valid: false,
        }
    }

    /// Returns a copy with an explicit per-frame pixel budget. Headers
    /// declaring more pixels are rejected with
    /// [`BitstreamError::FrameTooLarge`] before any allocation.
    pub fn with_max_pixels(mut self, max_pixels: u64) -> Self {
        self.max_pixels = max_pixels;
        self
    }

    /// The configured per-frame pixel budget.
    pub fn max_pixels(&self) -> u64 {
        self.max_pixels
    }

    /// Decodes an intra bitstream (as produced by
    /// [`crate::BdEncoder::encode_frame_into`]) into a fresh frame.
    ///
    /// # Errors
    ///
    /// Returns a [`BitstreamError`] if the stream is truncated, its header
    /// is invalid, or the frame exceeds the pixel budget.
    pub fn decode_bitstream(&self, bytes: &[u8]) -> Result<SrgbFrame, BitstreamError> {
        let mut out = SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default());
        self.decode_bitstream_into(bytes, &mut out)?;
        Ok(out)
    }

    /// Decodes a bitstream into a caller-owned frame, reusing its pixel
    /// buffer.
    ///
    /// `out` is resized (in place, keeping capacity) to the decoded
    /// dimensions; once it has warmed up to the session's frame size the
    /// decode performs no allocation. On error the frame's contents are
    /// unspecified (its dimensions may already reflect the header).
    ///
    /// # Errors
    ///
    /// Returns a [`BitstreamError`] if the stream is truncated, its header
    /// is invalid, or the frame exceeds the pixel budget.
    pub fn decode_bitstream_into(
        &self,
        bytes: &[u8],
        out: &mut SrgbFrame,
    ) -> Result<(), BitstreamError> {
        decode_intra_into(self.max_pixels, bytes, out)
    }

    /// Decodes either frame kind into a caller-owned frame, maintaining
    /// the decoder's reference state.
    ///
    /// The first 16 bits select the parser: zero means a predicted
    /// (temporal) frame, anything else an intra keyframe. A successful
    /// decode of either kind leaves the reconstruction as the new
    /// reference and copies it into `out`; once `out` and the reference
    /// have warmed up to the session's dimensions the decode allocates
    /// nothing.
    ///
    /// # Errors
    ///
    /// Returns a [`BitstreamError`] for truncated or invalid input, for a
    /// predicted frame without a valid reference
    /// ([`BitstreamError::MissingReference`]) and for a predicted frame
    /// whose dimensions disagree with the reference
    /// ([`BitstreamError::ReferenceMismatch`]). Any error invalidates the
    /// reference: the stream is unreconstructable until the next
    /// keyframe, and further predicted frames keep failing rather than
    /// emitting wrong pixels.
    pub fn decode_frame_into(
        &mut self,
        bytes: &[u8],
        out: &mut SrgbFrame,
    ) -> Result<FrameKind, BitstreamError> {
        let kind = if is_temporal_bitstream(bytes) {
            let valid = self.reference_valid;
            // Pessimistically poison the reference: apply mutates it in
            // place, so any mid-apply error leaves it partial.
            self.reference_valid = false;
            apply_temporal_frame(bytes, self.max_pixels, &mut self.reference, valid)?;
            FrameKind::Predicted
        } else {
            self.reference_valid = false;
            decode_intra_into(self.max_pixels, bytes, &mut self.reference)?;
            FrameKind::Key
        };
        self.reference_valid = true;
        out.clone_from(&self.reference);
        Ok(kind)
    }

    /// Drops the reference frame, e.g. after a detected stream gap.
    /// Predicted frames fail with [`BitstreamError::MissingReference`]
    /// until the next keyframe decodes.
    pub fn invalidate_reference(&mut self) {
        self.reference_valid = false;
    }

    /// Whether the decoder currently holds a valid reference frame.
    pub fn has_reference(&self) -> bool {
        self.reference_valid
    }
}

/// Stateless intra decode into a caller-owned frame (the body shared by
/// [`BdDecoder::decode_bitstream_into`] and the keyframe arm of
/// [`BdDecoder::decode_frame_into`]).
fn decode_intra_into(
    max_pixels: u64,
    bytes: &[u8],
    out: &mut SrgbFrame,
) -> Result<(), BitstreamError> {
    let mut r = BitReader::new(bytes);
    let header = read_header(&mut r, FrameKind::Key, max_pixels)?;
    out.reset(header.dimensions, Srgb8::default());
    for tile in TileGrid::new(header.dimensions, header.tile_size).tiles() {
        read_tile(&mut r, tile, out, |_, code| code)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BdConfig, BdEncoder};
    use rand::{Rng, SeedableRng};

    fn random_frame(width: u32, height: u32, seed: u64) -> SrgbFrame {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let dims = Dimensions::new(width, height);
        let pixels = (0..dims.pixel_count())
            .map(|_| Srgb8::new(rng.gen(), rng.gen(), rng.gen()))
            .collect();
        SrgbFrame::from_pixels(dims, pixels).expect("sized correctly")
    }

    #[test]
    fn decodes_what_the_encoder_wrote() {
        for (w, h, tile_size) in [(24, 16, 4), (13, 9, 4), (17, 23, 8), (5, 5, 7)] {
            let frame = random_frame(w, h, u64::from(w * h));
            let bytes = BdEncoder::new(BdConfig::with_tile_size(tile_size))
                .encode_frame(&frame)
                .to_bitstream();
            let decoded = BdDecoder::new().decode_bitstream(&bytes).expect("valid");
            assert_eq!(decoded, frame, "{w}x{h} tile {tile_size}");
        }
    }

    #[test]
    fn scratch_frame_is_reused_across_dimensions() {
        let mut out = SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default());
        let decoder = BdDecoder::new();
        for (w, h) in [(16, 16), (8, 24), (24, 8)] {
            let frame = random_frame(w, h, 99);
            let bytes = BdEncoder::default().encode_frame(&frame).to_bitstream();
            decoder
                .decode_bitstream_into(&bytes, &mut out)
                .expect("valid");
            assert_eq!(out, frame);
        }
    }

    #[test]
    fn oversized_header_is_rejected_before_allocating() {
        // width=65535, height=65535, tile_size=1: ~4.3 Gpx from 9 bytes.
        let mut w = crate::BitWriter::new();
        w.write_bits(65535, 16);
        w.write_bits(65535, 16);
        w.write_bits(1, 16);
        w.write_bits(0, 24);
        let err = BdDecoder::new().decode_bitstream(&w.finish()).unwrap_err();
        assert!(matches!(err, BitstreamError::FrameTooLarge { .. }));
    }

    #[test]
    fn undersized_payload_is_rejected_before_allocating() {
        // A frame within the pixel budget whose tile grid still cannot fit
        // in the input: 1024x1024 with 1x1 tiles needs >= 36 bits per tile.
        let mut w = crate::BitWriter::new();
        w.write_bits(1024, 16);
        w.write_bits(1024, 16);
        w.write_bits(1, 16);
        w.write_bits(0, 24);
        let err = BdDecoder::new().decode_bitstream(&w.finish()).unwrap_err();
        assert!(matches!(err, BitstreamError::InsufficientInput { .. }));
    }

    #[test]
    fn pixel_budget_is_configurable() {
        let frame = random_frame(16, 16, 1);
        let bytes = BdEncoder::default().encode_frame(&frame).to_bitstream();
        let tight = BdDecoder::new().with_max_pixels(100);
        assert!(matches!(
            tight.decode_bitstream(&bytes).unwrap_err(),
            BitstreamError::FrameTooLarge {
                pixels: 256,
                max_pixels: 100
            }
        ));
        let exact = BdDecoder::new().with_max_pixels(256);
        assert_eq!(exact.decode_bitstream(&bytes).expect("fits"), frame);
    }

    #[test]
    fn stateful_decode_tracks_the_reference_across_a_gop() {
        let encoder = BdEncoder::new(BdConfig::with_tile_size(4));
        let key = random_frame(16, 16, 11);
        let mut predicted = key.clone();
        predicted.pixels_mut()[40] = Srgb8::new(9, 9, 9);

        let key_bytes = encoder.encode_frame(&key).to_bitstream();
        let mut writer = crate::BitWriter::new();
        let (mut a, mut b) = (
            pvc_frame::SrgbTileLanes::new(),
            pvc_frame::SrgbTileLanes::new(),
        );
        crate::temporal::encode_temporal_frame_into(
            4,
            &predicted,
            &key,
            &mut writer,
            &mut a,
            &mut b,
        );
        let predicted_bytes = writer.finish();

        let mut decoder = BdDecoder::new();
        let mut out = SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default());
        assert!(!decoder.has_reference());
        // Predicted before any keyframe: typed error, reference stays absent.
        assert_eq!(
            decoder.decode_frame_into(&predicted_bytes, &mut out),
            Err(BitstreamError::MissingReference)
        );
        assert_eq!(
            decoder.decode_frame_into(&key_bytes, &mut out),
            Ok(crate::FrameKind::Key)
        );
        assert_eq!(out, key);
        assert!(decoder.has_reference());
        assert_eq!(
            decoder.decode_frame_into(&predicted_bytes, &mut out),
            Ok(crate::FrameKind::Predicted)
        );
        assert_eq!(out, predicted);
        // An explicit invalidation (stream gap) blocks further prediction.
        decoder.invalidate_reference();
        assert_eq!(
            decoder.decode_frame_into(&predicted_bytes, &mut out),
            Err(BitstreamError::MissingReference)
        );
        // A failed decode poisons the reference too.
        assert_eq!(
            decoder.decode_frame_into(&key_bytes, &mut out),
            Ok(crate::FrameKind::Key)
        );
        assert!(decoder
            .decode_frame_into(&predicted_bytes[..predicted_bytes.len() - 1], &mut out)
            .is_err());
        assert!(!decoder.has_reference());
        assert_eq!(
            decoder.decode_frame_into(&predicted_bytes, &mut out),
            Err(BitstreamError::MissingReference)
        );
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let frame = random_frame(16, 16, 5);
        let bytes = BdEncoder::default().encode_frame(&frame).to_bitstream();
        let mut out = SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default());
        for len in [3, 6, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                BdDecoder::new()
                    .decode_bitstream_into(&bytes[..len], &mut out)
                    .is_err(),
                "truncation to {len} bytes must fail"
            );
        }
    }
}
