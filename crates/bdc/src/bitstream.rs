//! Bit-granular serialization of encoded frames.
//!
//! The size accounting in [`crate::stats`] is exact, but to make the codec
//! honest the encoded frame can also be packed into an actual byte stream
//! and decoded back. The writer packs bits MSB-first.

/// Errors produced while reading a bitstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitstreamError {
    /// The reader ran past the end of the stream.
    UnexpectedEnd {
        /// Number of bits that were requested.
        requested: u32,
        /// Number of bits remaining in the stream.
        remaining: u64,
    },
    /// A header field held an invalid value.
    InvalidHeader {
        /// Description of the offending field.
        field: &'static str,
    },
    /// The header describes a payload that cannot fit in the remaining
    /// input (detected up front, before any allocation).
    InsufficientInput {
        /// Minimum number of bits the declared geometry requires.
        required_bits: u64,
        /// Number of bits actually remaining in the stream.
        remaining_bits: u64,
    },
    /// The header declares a frame larger than the decoder's pixel budget.
    FrameTooLarge {
        /// Number of pixels the header declares.
        pixels: u64,
        /// The decoder's configured pixel budget.
        max_pixels: u64,
    },
    /// A predicted (temporal) frame arrived but the decoder holds no valid
    /// reference frame — the stream is unreconstructable until the next
    /// keyframe.
    MissingReference,
    /// A predicted (temporal) frame's dimensions disagree with the
    /// decoder's reference frame.
    ReferenceMismatch {
        /// Width the predicted frame declares.
        width: u32,
        /// Height the predicted frame declares.
        height: u32,
        /// Width of the decoder's reference frame.
        ref_width: u32,
        /// Height of the decoder's reference frame.
        ref_height: u32,
    },
}

impl std::fmt::Display for BitstreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BitstreamError::UnexpectedEnd {
                requested,
                remaining,
            } => {
                write!(
                    f,
                    "unexpected end of bitstream: requested {requested} bits, {remaining} remain"
                )
            }
            BitstreamError::InvalidHeader { field } => {
                write!(f, "invalid bitstream header field: {field}")
            }
            BitstreamError::InsufficientInput {
                required_bits,
                remaining_bits,
            } => {
                write!(
                    f,
                    "bitstream header declares a payload of at least {required_bits} bits \
                     but only {remaining_bits} remain"
                )
            }
            BitstreamError::FrameTooLarge { pixels, max_pixels } => {
                write!(
                    f,
                    "bitstream header declares {pixels} pixels, \
                     over the decoder budget of {max_pixels}"
                )
            }
            BitstreamError::MissingReference => {
                write!(
                    f,
                    "predicted frame without a valid reference: \
                     unreconstructable until the next keyframe"
                )
            }
            BitstreamError::ReferenceMismatch {
                width,
                height,
                ref_width,
                ref_height,
            } => {
                write!(
                    f,
                    "predicted frame is {width}x{height} but the reference \
                     frame is {ref_width}x{ref_height}"
                )
            }
        }
    }
}

impl std::error::Error for BitstreamError {}

/// An MSB-first bit writer backed by a growable byte buffer.
///
/// # Examples
///
/// ```
/// use pvc_bdc::{BitReader, BitWriter};
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_bits(0xFF, 8);
/// let bytes = w.finish();
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.read_bits(3).unwrap(), 0b101);
/// assert_eq!(r.read_bits(8).unwrap(), 0xFF);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Number of bits already used in the final byte (0–7).
    bit_pos: u8,
    bits_written: u64,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Appends the low `count` bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    pub fn write_bits(&mut self, value: u32, count: u32) {
        assert!(count <= 32, "cannot write more than 32 bits at once");
        for i in (0..count).rev() {
            let bit = (value >> i) & 1;
            if self.bit_pos == 0 {
                self.bytes.push(0);
            }
            let last = self.bytes.last_mut().expect("pushed above");
            *last |= (bit as u8) << (7 - self.bit_pos);
            self.bit_pos = (self.bit_pos + 1) % 8;
            self.bits_written += 1;
        }
    }

    /// Total number of bits written so far.
    pub fn bits_written(&self) -> u64 {
        self.bits_written
    }

    /// The packed bytes written so far (the final byte is zero-padded).
    ///
    /// Together with [`Self::clear`] this lets one writer serve a whole
    /// stream of frames: clear, write, read the bytes, repeat — no
    /// per-frame buffer allocation.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Empties the writer for reuse, keeping the byte buffer's capacity.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.bit_pos = 0;
        self.bits_written = 0;
    }

    /// Finishes the stream and returns the packed bytes (the final byte is
    /// zero-padded).
    pub fn finish(self) -> Vec<u8> {
        self.bytes
    }
}

/// An MSB-first bit reader over a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    bit_index: u64,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            bit_index: 0,
        }
    }

    /// Number of unread bits remaining (including any final padding bits).
    pub fn remaining_bits(&self) -> u64 {
        (self.bytes.len() as u64 * 8).saturating_sub(self.bit_index)
    }

    /// Reads `count` bits, most significant first.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::UnexpectedEnd`] if fewer than `count` bits
    /// remain.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    pub fn read_bits(&mut self, count: u32) -> Result<u32, BitstreamError> {
        assert!(count <= 32, "cannot read more than 32 bits at once");
        if u64::from(count) > self.remaining_bits() {
            return Err(BitstreamError::UnexpectedEnd {
                requested: count,
                remaining: self.remaining_bits(),
            });
        }
        let mut value = 0u32;
        for _ in 0..count {
            let byte = self.bytes[(self.bit_index / 8) as usize];
            let bit = (byte >> (7 - (self.bit_index % 8))) & 1;
            value = (value << 1) | u32::from(bit);
            self.bit_index += 1;
        }
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let fields: Vec<(u32, u32)> = vec![
            (0b1, 1),
            (0b10, 2),
            (0xABC, 12),
            (0, 5),
            (0xFFFF_FFFF, 32),
            (42, 7),
        ];
        let mut w = BitWriter::new();
        for &(v, c) in &fields {
            w.write_bits(v, c);
        }
        let total: u32 = fields.iter().map(|&(_, c)| c).sum();
        assert_eq!(w.bits_written(), u64::from(total));
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, c) in &fields {
            let mask = if c == 32 { u32::MAX } else { (1u32 << c) - 1 };
            assert_eq!(r.read_bits(c).unwrap(), v & mask);
        }
    }

    #[test]
    fn zero_bit_writes_are_noops() {
        let mut w = BitWriter::new();
        w.write_bits(123, 0);
        assert_eq!(w.bits_written(), 0);
        assert!(w.finish().is_empty());
    }

    #[test]
    fn reading_past_end_errors() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        // 5 padding bits remain in the byte; asking for 8 must fail.
        let err = r.read_bits(8).unwrap_err();
        assert!(matches!(
            err,
            BitstreamError::UnexpectedEnd { requested: 8, .. }
        ));
        assert!(err.to_string().contains("unexpected end"));
    }

    #[test]
    fn cleared_writer_produces_identical_bytes_without_reallocating() {
        let mut w = BitWriter::new();
        w.write_bits(0xABCD, 16);
        w.write_bits(0b101, 3);
        let first = w.as_bytes().to_vec();
        assert_eq!(w.finish(), first);

        let mut reused = BitWriter::new();
        for _ in 0..3 {
            reused.clear();
            reused.write_bits(0xABCD, 16);
            reused.write_bits(0b101, 3);
            assert_eq!(reused.as_bytes(), first.as_slice());
            assert_eq!(reused.bits_written(), 19);
        }
    }

    #[test]
    fn padding_is_zero() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1000_0000]);
    }

    #[test]
    #[should_panic]
    fn oversized_write_panics() {
        let mut w = BitWriter::new();
        w.write_bits(0, 33);
    }
}
