//! Canonical Huffman coding used by the PNG-style baseline.

use pvc_bdc::{BitReader, BitWriter, BitstreamError};
use std::collections::BinaryHeap;

/// Maximum code length; codes are flattened if the optimal tree is deeper.
pub const MAX_CODE_BITS: u8 = 15;

/// Errors produced while building or using a Huffman code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HuffmanError {
    /// The frequency table was empty (no symbols to encode).
    NoSymbols,
    /// A symbol without a code was passed to the encoder.
    UnknownSymbol {
        /// The offending symbol.
        symbol: u16,
    },
    /// The decoder hit a bit pattern that matches no code.
    InvalidCode,
    /// The underlying bitstream ended prematurely.
    Bitstream(BitstreamError),
}

impl std::fmt::Display for HuffmanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HuffmanError::NoSymbols => write!(f, "cannot build a Huffman code over zero symbols"),
            HuffmanError::UnknownSymbol { symbol } => {
                write!(f, "symbol {symbol} has no Huffman code")
            }
            HuffmanError::InvalidCode => write!(f, "bit pattern matches no Huffman code"),
            HuffmanError::Bitstream(e) => write!(f, "bitstream error: {e}"),
        }
    }
}

impl std::error::Error for HuffmanError {}

impl From<BitstreamError> for HuffmanError {
    fn from(e: BitstreamError) -> Self {
        HuffmanError::Bitstream(e)
    }
}

/// A canonical Huffman code over symbols `0..n`.
///
/// The code is fully described by its per-symbol code lengths, which is what
/// gets written into the compressed stream header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HuffmanCode {
    lengths: Vec<u8>,
    codes: Vec<u32>,
}

impl HuffmanCode {
    /// Builds a length-limited canonical code from symbol frequencies.
    ///
    /// Symbols with zero frequency get no code. If only one symbol occurs it
    /// is assigned a 1-bit code.
    ///
    /// # Errors
    ///
    /// Returns [`HuffmanError::NoSymbols`] when every frequency is zero.
    pub fn from_frequencies(frequencies: &[u64]) -> Result<Self, HuffmanError> {
        if frequencies.iter().all(|&f| f == 0) {
            return Err(HuffmanError::NoSymbols);
        }
        let mut scaled: Vec<u64> = frequencies.to_vec();
        loop {
            let lengths = tree_code_lengths(&scaled);
            let max = lengths.iter().copied().max().unwrap_or(0);
            if max <= MAX_CODE_BITS {
                return Ok(Self::from_lengths(lengths));
            }
            // Flatten the distribution and retry; this converges because the
            // frequencies approach uniformity.
            for f in &mut scaled {
                if *f > 0 {
                    *f = (*f / 2).max(1);
                }
            }
        }
    }

    /// Reconstructs the canonical code from per-symbol code lengths.
    pub fn from_lengths(lengths: Vec<u8>) -> Self {
        // Canonical assignment: sort symbols by (length, symbol).
        let mut symbols: Vec<u16> = (0..lengths.len() as u16)
            .filter(|&s| lengths[s as usize] > 0)
            .collect();
        symbols.sort_by_key(|&s| (lengths[s as usize], s));
        let mut codes = vec![0u32; lengths.len()];
        let mut code = 0u32;
        let mut prev_len = 0u8;
        for &s in &symbols {
            let len = lengths[s as usize];
            code <<= len - prev_len;
            codes[s as usize] = code;
            code += 1;
            prev_len = len;
        }
        HuffmanCode { lengths, codes }
    }

    /// Per-symbol code lengths (zero for symbols without a code).
    pub fn lengths(&self) -> &[u8] {
        &self.lengths
    }

    /// Number of symbols the code is defined over.
    pub fn symbol_count(&self) -> usize {
        self.lengths.len()
    }

    /// Writes the code for `symbol`.
    ///
    /// # Errors
    ///
    /// Returns [`HuffmanError::UnknownSymbol`] if the symbol has no code.
    pub fn encode(&self, symbol: u16, writer: &mut BitWriter) -> Result<(), HuffmanError> {
        let idx = symbol as usize;
        if idx >= self.lengths.len() || self.lengths[idx] == 0 {
            return Err(HuffmanError::UnknownSymbol { symbol });
        }
        writer.write_bits(self.codes[idx], u32::from(self.lengths[idx]));
        Ok(())
    }

    /// Reads one symbol from the bit reader.
    ///
    /// # Errors
    ///
    /// Returns [`HuffmanError::InvalidCode`] if no code matches, or a
    /// bitstream error if the stream ends.
    pub fn decode(&self, reader: &mut BitReader<'_>) -> Result<u16, HuffmanError> {
        let mut code = 0u32;
        let mut len = 0u8;
        while len < MAX_CODE_BITS + 1 {
            code = (code << 1) | reader.read_bits(1)?;
            len += 1;
            // Linear scan is acceptable: the alphabet is small (≤ 300
            // symbols) and this codec is an offline baseline.
            for (s, (&l, &c)) in self.lengths.iter().zip(&self.codes).enumerate() {
                if l == len && c == code {
                    return Ok(s as u16);
                }
            }
        }
        Err(HuffmanError::InvalidCode)
    }

    /// Writes the code-length table (4 bits per symbol, length-limited).
    pub fn write_table(&self, writer: &mut BitWriter) {
        for &l in &self.lengths {
            writer.write_bits(u32::from(l), 4);
        }
    }

    /// Reads a code-length table of `symbol_count` entries and rebuilds the
    /// canonical code.
    ///
    /// # Errors
    ///
    /// Returns a bitstream error if the stream is too short.
    pub fn read_table(
        reader: &mut BitReader<'_>,
        symbol_count: usize,
    ) -> Result<Self, HuffmanError> {
        let mut lengths = Vec::with_capacity(symbol_count);
        for _ in 0..symbol_count {
            lengths.push(reader.read_bits(4)? as u8);
        }
        Ok(Self::from_lengths(lengths))
    }
}

/// Computes (unlimited) Huffman code lengths for the given frequencies using
/// the classic two-queue/heap construction.
fn tree_code_lengths(frequencies: &[u64]) -> Vec<u8> {
    #[derive(PartialEq, Eq)]
    struct Node {
        weight: u64,
        id: usize,
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reverse for a min-heap; tie-break on id for determinism.
            other.weight.cmp(&self.weight).then(other.id.cmp(&self.id))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let active: Vec<usize> = (0..frequencies.len())
        .filter(|&i| frequencies[i] > 0)
        .collect();
    let mut lengths = vec![0u8; frequencies.len()];
    match active.len() {
        0 => return lengths,
        1 => {
            lengths[active[0]] = 1;
            return lengths;
        }
        _ => {}
    }

    // parents[i] is the internal-node parent of node i (leaves first).
    let mut parents: Vec<Option<usize>> = vec![None; frequencies.len()];
    let mut heap = BinaryHeap::new();
    for &i in &active {
        heap.push(Node {
            weight: frequencies[i],
            id: i,
        });
    }
    let mut next_id = frequencies.len();
    while heap.len() > 1 {
        let a = heap.pop().expect("len > 1");
        let b = heap.pop().expect("len > 1");
        parents.push(None);
        let merged = next_id;
        next_id += 1;
        if a.id < parents.len() {
            parents[a.id] = Some(merged);
        }
        if b.id < parents.len() {
            parents[b.id] = Some(merged);
        }
        heap.push(Node {
            weight: a.weight + b.weight,
            id: merged,
        });
    }
    for &i in &active {
        let mut depth = 0u8;
        let mut node = i;
        while let Some(p) = parents[node] {
            depth += 1;
            node = p;
        }
        lengths[i] = depth.max(1);
    }
    lengths
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(symbols: &[u16], alphabet: usize) {
        let mut freq = vec![0u64; alphabet];
        for &s in symbols {
            freq[s as usize] += 1;
        }
        let code = HuffmanCode::from_frequencies(&freq).expect("non-empty");
        let mut w = BitWriter::new();
        for &s in symbols {
            code.encode(s, &mut w).expect("known symbol");
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in symbols {
            assert_eq!(code.decode(&mut r).expect("valid"), s);
        }
    }

    #[test]
    fn roundtrip_small_alphabet() {
        roundtrip(&[0, 1, 1, 2, 2, 2, 2, 3], 4);
    }

    #[test]
    fn roundtrip_single_symbol() {
        roundtrip(&[5, 5, 5, 5], 8);
    }

    #[test]
    fn roundtrip_byte_alphabet() {
        let symbols: Vec<u16> = (0..1000u32).map(|i| ((i * i + 7) % 200) as u16).collect();
        roundtrip(&symbols, 256);
    }

    #[test]
    fn frequent_symbols_get_shorter_codes() {
        let mut freq = vec![1u64; 8];
        freq[3] = 1000;
        let code = HuffmanCode::from_frequencies(&freq).unwrap();
        let l3 = code.lengths()[3];
        for (s, &l) in code.lengths().iter().enumerate() {
            if s != 3 {
                assert!(
                    l >= l3,
                    "symbol {s} has shorter code than the most frequent one"
                );
            }
        }
    }

    #[test]
    fn code_lengths_satisfy_kraft_inequality() {
        let freq: Vec<u64> = (1..=60).map(|i| i * i).collect();
        let code = HuffmanCode::from_frequencies(&freq).unwrap();
        let kraft: f64 = code
            .lengths()
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-i32::from(l)))
            .sum();
        assert!(kraft <= 1.0 + 1e-9, "kraft sum {kraft}");
    }

    #[test]
    fn skewed_distributions_respect_length_limit() {
        // Fibonacci-like frequencies force deep optimal trees; the builder
        // must flatten them to at most MAX_CODE_BITS.
        let mut freq = vec![0u64; 40];
        let mut a = 1u64;
        let mut b = 1u64;
        for f in freq.iter_mut() {
            *f = a;
            let next = a + b;
            a = b;
            b = next;
        }
        let code = HuffmanCode::from_frequencies(&freq).unwrap();
        assert!(code.lengths().iter().all(|&l| l <= MAX_CODE_BITS));
    }

    #[test]
    fn table_roundtrip() {
        let freq: Vec<u64> = (0..16).map(|i| (i % 5) + 1).collect();
        let code = HuffmanCode::from_frequencies(&freq).unwrap();
        let mut w = BitWriter::new();
        code.write_table(&mut w);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let rebuilt = HuffmanCode::read_table(&mut r, 16).unwrap();
        assert_eq!(rebuilt, code);
    }

    #[test]
    fn empty_frequencies_error() {
        assert_eq!(
            HuffmanCode::from_frequencies(&[0, 0, 0]).unwrap_err(),
            HuffmanError::NoSymbols
        );
    }

    #[test]
    fn unknown_symbol_errors() {
        let code = HuffmanCode::from_frequencies(&[1, 1]).unwrap();
        let mut w = BitWriter::new();
        assert!(matches!(
            code.encode(7, &mut w),
            Err(HuffmanError::UnknownSymbol { symbol: 7 })
        ));
    }
}
