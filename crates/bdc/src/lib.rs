//! Base+Delta (BD) framebuffer compression.
//!
//! Modern mobile SoCs compress every frame going in and out of DRAM with a
//! lightweight Base+Delta scheme (e.g. Arm Frame Buffer Compression). For
//! each small pixel tile and each color channel, a *base* value is stored
//! and every pixel is encoded as an offset (Δ) from the base; the offsets
//! need fewer bits than full 8-bit values whenever the tile is locally
//! smooth (Fig. 4 of the paper).
//!
//! This crate implements the BD codec the paper assumes (after Zhang et
//! al.), both as the state-of-the-art baseline and as the numerically
//! lossless back-end that the perceptual color adjustment feeds into:
//!
//! * [`BdEncoder`] — whole-frame encoding into a packed bitstream, with
//!   exact size accounting (base vs. metadata vs. delta bits, the split of
//!   Fig. 11), so compressed sizes are measured on real bits rather than
//!   estimated,
//! * [`BdDecoder`] — the one parser of (possibly untrusted) bitstreams,
//!   for intra frames and for the [`temporal`] Skip/Delta/Intra records,
//! * [`tile_codec`] — the header and channel records both of them share:
//!   each is written in one place and parsed in one place.
//!
//! The codec is numerically lossless: `decode(encode(frame)) == frame`.
//!
//! # Bitstream layout
//!
//! An intra frame is a 48-bit header followed by one record per tile.
//! Every field is packed most-significant bit first and the final byte is
//! zero-padded:
//!
//! ```text
//! width(16) | height(16) | tile_size(16)
//! per tile, row-major grid order (edge tiles clipped to the frame),
//!   per channel R, G, B:
//!     base(8) | delta_bits(4) | deltas (delta_bits each)
//! ```
//!
//! `base` is the channel's minimum code value over the tile,
//! `delta_bits` is [`tile_codec::bits_for_range`]`(max − min)` (0–8),
//! and the deltas are `value − base` for the tile's pixels in row-major
//! order; a flat channel (`delta_bits = 0`) carries no deltas. Width,
//! height and tile size must each fit in 16 bits, and the encoders panic
//! rather than truncate them. Predicted frames open with a zero 16-bit
//! marker and are laid out in [`temporal`].
//!
//! # Examples
//!
//! ```
//! use pvc_bdc::{BdConfig, BdEncoder};
//! use pvc_color::Srgb8;
//! use pvc_frame::{Dimensions, SrgbFrame};
//!
//! let frame = SrgbFrame::filled(Dimensions::new(16, 16), Srgb8::new(120, 130, 140));
//! let encoder = BdEncoder::new(BdConfig::default());
//! let encoded = encoder.encode_frame(&frame);
//! assert_eq!(encoded.decode(), frame);
//! // A flat frame compresses extremely well.
//! assert!(encoded.stats().compressed_bits < frame.uncompressed_bytes() as u64 * 8 / 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitstream;
pub mod decoder;
pub mod frame_codec;
pub mod stats;
pub mod temporal;
pub mod tile_codec;

pub use bitstream::{BitReader, BitWriter, BitstreamError};
pub use decoder::{BdDecoder, DEFAULT_MAX_PIXELS};
pub use frame_codec::{BdConfig, BdEncodedFrame, BdEncoder};
pub use stats::{CompressionStats, SizeBreakdown};
pub use temporal::{
    encode_temporal_frame_into, is_temporal_bitstream, FrameKind, TemporalFrameStats,
};
