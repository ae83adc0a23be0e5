//! A PNG-style lossless image codec.
//!
//! The paper's PNG baseline represents "offline lossless image compression
//! that is too compute-intensive for real-time framebuffer traffic". This
//! module re-implements that pipeline from scratch (`docs/ARCHITECTURE.md`,
//! substitution S3): per-scanline prediction filters (None/Sub/Up/Average/Paeth, chosen
//! per row with the standard minimum-sum-of-absolute-differences heuristic),
//! followed by LZ77 tokenization and canonical Huffman entropy coding of the
//! token stream. The codec is numerically lossless and round-trips exactly.

use crate::huffman::{HuffmanCode, HuffmanError};
use crate::lz77::{Lz77Token, Lz77Tokenizer, MIN_MATCH};
use pvc_bdc::{BitReader, BitWriter, CompressionStats, SizeBreakdown};
use pvc_color::Srgb8;
use pvc_frame::{Dimensions, SrgbFrame};

const BYTES_PER_PIXEL: usize = 3;
/// Symbol used to introduce a back-reference in the entropy-coded stream.
const MATCH_SYMBOL: u16 = 256;
const ALPHABET: usize = 257;

/// A compressed frame produced by [`PngLikeCodec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PngLikeEncoded {
    dimensions: Dimensions,
    bytes: Vec<u8>,
}

impl PngLikeEncoded {
    /// Dimensions of the original frame.
    pub fn dimensions(&self) -> Dimensions {
        self.dimensions
    }

    /// The compressed byte stream (headers included).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Compression statistics comparable with the other codecs.
    pub fn stats(&self) -> CompressionStats {
        CompressionStats::from_breakdown(
            self.dimensions.pixel_count(),
            SizeBreakdown {
                base_bits: 0,
                metadata_bits: 0,
                delta_bits: self.bytes.len() as u64 * 8,
            },
        )
    }
}

/// The PNG-style codec.
///
/// # Examples
///
/// ```
/// use pvc_baselines::PngLikeCodec;
/// use pvc_color::Srgb8;
/// use pvc_frame::{Dimensions, SrgbFrame};
///
/// let frame = SrgbFrame::filled(Dimensions::new(16, 16), Srgb8::new(10, 200, 30));
/// let codec = PngLikeCodec::new();
/// let encoded = codec.encode(&frame);
/// assert_eq!(codec.decode(&encoded)?, frame);
/// # Ok::<(), pvc_baselines::HuffmanError>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct PngLikeCodec;

impl PngLikeCodec {
    /// Creates the codec.
    pub fn new() -> Self {
        PngLikeCodec
    }

    /// Compresses a frame.
    pub fn encode(&self, frame: &SrgbFrame) -> PngLikeEncoded {
        let filtered = filter_frame(frame);
        let tokens = Lz77Tokenizer::new().tokenize(&filtered);

        // Symbol frequencies over literals + the match marker.
        let mut freq = vec![0u64; ALPHABET];
        for t in &tokens {
            match t {
                Lz77Token::Literal(b) => freq[*b as usize] += 1,
                Lz77Token::Match { .. } => freq[MATCH_SYMBOL as usize] += 1,
            }
        }
        let code = HuffmanCode::from_frequencies(&freq)
            .unwrap_or_else(|_| HuffmanCode::from_lengths(vec![1; 2]));

        let mut w = BitWriter::new();
        w.write_bits(frame.width(), 16);
        w.write_bits(frame.height(), 16);
        w.write_bits(filtered.len() as u32, 32);
        code.write_table(&mut w);
        for t in &tokens {
            match *t {
                Lz77Token::Literal(b) => {
                    code.encode(u16::from(b), &mut w)
                        .expect("literal has a code");
                }
                Lz77Token::Match { length, distance } => {
                    code.encode(MATCH_SYMBOL, &mut w)
                        .expect("match marker has a code");
                    w.write_bits(u32::from(length) - MIN_MATCH as u32, 8);
                    w.write_bits(u32::from(distance), 16);
                }
            }
        }
        PngLikeEncoded {
            dimensions: frame.dimensions(),
            bytes: w.finish(),
        }
    }

    /// Decompresses a frame.
    ///
    /// # Errors
    ///
    /// Returns a [`HuffmanError`] when the stream is truncated or corrupt.
    pub fn decode(&self, encoded: &PngLikeEncoded) -> Result<SrgbFrame, HuffmanError> {
        let mut r = BitReader::new(&encoded.bytes);
        let width = r.read_bits(16)?;
        let height = r.read_bits(16)?;
        let byte_count = r.read_bits(32)? as usize;
        let code = HuffmanCode::read_table(&mut r, ALPHABET)?;
        let mut tokens = Vec::new();
        let mut produced = 0usize;
        while produced < byte_count {
            let symbol = code.decode(&mut r)?;
            if symbol == MATCH_SYMBOL {
                let length = r.read_bits(8)? as usize + MIN_MATCH;
                let distance = r.read_bits(16)? as u16;
                tokens.push(Lz77Token::Match {
                    length: length as u16,
                    distance,
                });
                produced += length;
            } else {
                tokens.push(Lz77Token::Literal(symbol as u8));
                produced += 1;
            }
        }
        let filtered = Lz77Tokenizer::new().expand(&tokens);
        Ok(unfilter_frame(Dimensions::new(width, height), &filtered))
    }
}

/// PNG filter types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Filter {
    None,
    Sub,
    Up,
    Average,
    Paeth,
}

impl Filter {
    const ALL: [Filter; 5] = [
        Filter::None,
        Filter::Sub,
        Filter::Up,
        Filter::Average,
        Filter::Paeth,
    ];

    fn id(self) -> u8 {
        match self {
            Filter::None => 0,
            Filter::Sub => 1,
            Filter::Up => 2,
            Filter::Average => 3,
            Filter::Paeth => 4,
        }
    }

    fn from_id(id: u8) -> Filter {
        match id {
            1 => Filter::Sub,
            2 => Filter::Up,
            3 => Filter::Average,
            4 => Filter::Paeth,
            _ => Filter::None,
        }
    }
}

fn paeth_predictor(a: u8, b: u8, c: u8) -> u8 {
    let (a, b, c) = (i32::from(a), i32::from(b), i32::from(c));
    let p = a + b - c;
    let pa = (p - a).abs();
    let pb = (p - b).abs();
    let pc = (p - c).abs();
    if pa <= pb && pa <= pc {
        a as u8
    } else if pb <= pc {
        b as u8
    } else {
        c as u8
    }
}

fn predict(filter: Filter, left: u8, up: u8, up_left: u8) -> u8 {
    match filter {
        Filter::None => 0,
        Filter::Sub => left,
        Filter::Up => up,
        Filter::Average => ((u16::from(left) + u16::from(up)) / 2) as u8,
        Filter::Paeth => paeth_predictor(left, up, up_left),
    }
}

fn row_bytes(frame: &SrgbFrame, y: u32) -> Vec<u8> {
    let mut row = Vec::with_capacity(frame.width() as usize * BYTES_PER_PIXEL);
    for x in 0..frame.width() {
        let p = frame.pixel(x, y);
        row.extend_from_slice(&p.to_array());
    }
    row
}

fn filter_row(row: &[u8], prev: Option<&[u8]>, filter: Filter) -> Vec<u8> {
    let mut out = Vec::with_capacity(row.len());
    for (i, &value) in row.iter().enumerate() {
        let left = if i >= BYTES_PER_PIXEL {
            row[i - BYTES_PER_PIXEL]
        } else {
            0
        };
        let up = prev.map_or(0, |p| p[i]);
        let up_left = if i >= BYTES_PER_PIXEL {
            prev.map_or(0, |p| p[i - BYTES_PER_PIXEL])
        } else {
            0
        };
        out.push(value.wrapping_sub(predict(filter, left, up, up_left)));
    }
    out
}

fn unfilter_row(filtered: &[u8], prev: Option<&[u8]>, filter: Filter) -> Vec<u8> {
    let mut out: Vec<u8> = Vec::with_capacity(filtered.len());
    for (i, &value) in filtered.iter().enumerate() {
        let left = if i >= BYTES_PER_PIXEL {
            out[i - BYTES_PER_PIXEL]
        } else {
            0
        };
        let up = prev.map_or(0, |p| p[i]);
        let up_left = if i >= BYTES_PER_PIXEL {
            prev.map_or(0, |p| p[i - BYTES_PER_PIXEL])
        } else {
            0
        };
        out.push(value.wrapping_add(predict(filter, left, up, up_left)));
    }
    out
}

/// Cost heuristic from the PNG specification: sum of the filtered bytes
/// interpreted as signed magnitudes.
fn filter_cost(filtered: &[u8]) -> u64 {
    filtered
        .iter()
        .map(|&b| u64::from((b as i8).unsigned_abs()))
        .sum()
}

fn filter_frame(frame: &SrgbFrame) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        frame.height() as usize * (1 + frame.width() as usize * BYTES_PER_PIXEL),
    );
    let mut prev_row: Option<Vec<u8>> = None;
    for y in 0..frame.height() {
        let row = row_bytes(frame, y);
        let (best_filter, best_bytes) = Filter::ALL
            .into_iter()
            .map(|f| {
                let filtered = filter_row(&row, prev_row.as_deref(), f);
                (f, filtered)
            })
            .min_by_key(|(_, filtered)| filter_cost(filtered))
            .expect("five filters");
        out.push(best_filter.id());
        out.extend_from_slice(&best_bytes);
        prev_row = Some(row);
    }
    out
}

fn unfilter_frame(dimensions: Dimensions, data: &[u8]) -> SrgbFrame {
    let row_len = dimensions.width as usize * BYTES_PER_PIXEL;
    let mut frame = SrgbFrame::filled(dimensions, Srgb8::default());
    let mut prev_row: Option<Vec<u8>> = None;
    for y in 0..dimensions.height {
        let offset = y as usize * (row_len + 1);
        let filter = Filter::from_id(data[offset]);
        let row = unfilter_row(
            &data[offset + 1..offset + 1 + row_len],
            prev_row.as_deref(),
            filter,
        );
        for x in 0..dimensions.width {
            let i = x as usize * BYTES_PER_PIXEL;
            frame.set_pixel(x, y, Srgb8::new(row[i], row[i + 1], row[i + 2]));
        }
        prev_row = Some(row);
    }
    frame
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_frame::Dimensions;
    use rand::{Rng, SeedableRng};

    fn random_frame(width: u32, height: u32, seed: u64) -> SrgbFrame {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let dims = Dimensions::new(width, height);
        let pixels = (0..dims.pixel_count())
            .map(|_| Srgb8::new(rng.gen(), rng.gen(), rng.gen()))
            .collect();
        SrgbFrame::from_pixels(dims, pixels).expect("sized")
    }

    fn gradient_frame(width: u32, height: u32) -> SrgbFrame {
        let dims = Dimensions::new(width, height);
        let pixels = (0..dims.pixel_count())
            .map(|i| {
                let x = i as u32 % width;
                let y = i as u32 / width;
                Srgb8::new((x * 2) as u8, (y * 3) as u8, ((x + y) / 2) as u8)
            })
            .collect();
        SrgbFrame::from_pixels(dims, pixels).expect("sized")
    }

    #[test]
    fn roundtrip_flat_frame() {
        let frame = SrgbFrame::filled(Dimensions::new(20, 10), Srgb8::new(7, 77, 177));
        let codec = PngLikeCodec::new();
        assert_eq!(codec.decode(&codec.encode(&frame)).unwrap(), frame);
    }

    #[test]
    fn roundtrip_gradient_frame() {
        let frame = gradient_frame(33, 17);
        let codec = PngLikeCodec::new();
        assert_eq!(codec.decode(&codec.encode(&frame)).unwrap(), frame);
    }

    #[test]
    fn roundtrip_random_frame() {
        let frame = random_frame(25, 14, 99);
        let codec = PngLikeCodec::new();
        assert_eq!(codec.decode(&codec.encode(&frame)).unwrap(), frame);
    }

    #[test]
    fn gradient_compresses_much_better_than_random() {
        let codec = PngLikeCodec::new();
        let gradient = codec.encode(&gradient_frame(64, 64)).stats();
        let random = codec.encode(&random_frame(64, 64, 3)).stats();
        assert!(gradient.bandwidth_reduction_percent() > 60.0);
        assert!(gradient.bandwidth_reduction_percent() > random.bandwidth_reduction_percent());
    }

    #[test]
    fn random_data_does_not_explode_in_size() {
        let codec = PngLikeCodec::new();
        let stats = codec.encode(&random_frame(32, 32, 5)).stats();
        assert!(
            stats.bits_per_pixel() < 27.0,
            "bpp {}",
            stats.bits_per_pixel()
        );
    }

    #[test]
    fn paeth_predictor_matches_reference_cases() {
        assert_eq!(paeth_predictor(10, 20, 15), 10 + 20 - 15);
        // Ties prefer a, then b.
        assert_eq!(paeth_predictor(5, 5, 5), 5);
        assert_eq!(paeth_predictor(0, 255, 128), 128);
    }

    #[test]
    fn filters_roundtrip_per_row() {
        let row: Vec<u8> = (0..30).map(|i| (i * 17 % 256) as u8).collect();
        let prev: Vec<u8> = (0..30).map(|i| (i * 5 % 256) as u8).collect();
        for f in Filter::ALL {
            let filtered = filter_row(&row, Some(&prev), f);
            let restored = unfilter_row(&filtered, Some(&prev), f);
            assert_eq!(restored, row, "filter {f:?} did not roundtrip");
        }
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let frame = gradient_frame(16, 16);
        let codec = PngLikeCodec::new();
        let mut encoded = codec.encode(&frame);
        encoded.bytes.truncate(encoded.bytes.len() / 3);
        assert!(codec.decode(&encoded).is_err());
    }
}
