//! Greedy LZ77 tokenization used by the PNG-style baseline.

use std::collections::HashMap;

/// Minimum match length worth emitting (shorter matches cost more than
/// literals).
pub const MIN_MATCH: usize = 4;
/// Maximum match length (mirrors DEFLATE's 258).
pub const MAX_MATCH: usize = 258;
/// Size of the back-reference window (mirrors DEFLATE's 32 KiB).
pub const WINDOW_SIZE: usize = 32 * 1024;
/// How many candidate positions per hash bucket are tried before giving up.
const MAX_CHAIN: usize = 32;

/// One LZ77 token: either a literal byte or a back-reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lz77Token {
    /// A single literal byte.
    Literal(u8),
    /// A match of `length` bytes starting `distance` bytes back.
    Match {
        /// Number of bytes copied (between [`MIN_MATCH`] and [`MAX_MATCH`]).
        length: u16,
        /// Distance back into the already-decoded output (1..=[`WINDOW_SIZE`]).
        distance: u16,
    },
}

/// Greedy LZ77 tokenizer with a hash-chain match finder.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lz77Tokenizer;

impl Lz77Tokenizer {
    /// Creates a tokenizer.
    pub fn new() -> Self {
        Lz77Tokenizer
    }

    /// Tokenizes `data` into literals and matches.
    pub fn tokenize(&self, data: &[u8]) -> Vec<Lz77Token> {
        let mut tokens = Vec::new();
        let mut table: HashMap<[u8; MIN_MATCH], Vec<usize>> = HashMap::new();
        let mut pos = 0usize;
        while pos < data.len() {
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            if pos + MIN_MATCH <= data.len() {
                let key: [u8; MIN_MATCH] = data[pos..pos + MIN_MATCH].try_into().expect("sized");
                if let Some(candidates) = table.get(&key) {
                    for &candidate in candidates.iter().rev().take(MAX_CHAIN) {
                        if pos - candidate > WINDOW_SIZE {
                            break;
                        }
                        let len = match_length(data, candidate, pos);
                        if len > best_len {
                            best_len = len;
                            best_dist = pos - candidate;
                            if len >= MAX_MATCH {
                                break;
                            }
                        }
                    }
                }
            }
            if best_len >= MIN_MATCH {
                tokens.push(Lz77Token::Match {
                    length: best_len as u16,
                    distance: best_dist as u16,
                });
                // Insert hash entries for the skipped region (sparsely, to
                // bound the cost on long runs).
                let end = pos + best_len;
                let mut p = pos;
                while p + MIN_MATCH <= data.len() && p < end {
                    insert(&mut table, data, p);
                    p += 1 + best_len / 16;
                }
                pos = end;
            } else {
                if pos + MIN_MATCH <= data.len() {
                    insert(&mut table, data, pos);
                }
                tokens.push(Lz77Token::Literal(data[pos]));
                pos += 1;
            }
        }
        tokens
    }

    /// Expands tokens back into the original bytes.
    ///
    /// # Panics
    ///
    /// Panics if a match refers further back than the already-produced
    /// output (which a well-formed token stream never does).
    pub fn expand(&self, tokens: &[Lz77Token]) -> Vec<u8> {
        let mut out = Vec::new();
        for token in tokens {
            match *token {
                Lz77Token::Literal(b) => out.push(b),
                Lz77Token::Match { length, distance } => {
                    let distance = distance as usize;
                    assert!(
                        distance >= 1 && distance <= out.len(),
                        "invalid match distance"
                    );
                    let start = out.len() - distance;
                    for i in 0..length as usize {
                        let byte = out[start + i];
                        out.push(byte);
                    }
                }
            }
        }
        out
    }
}

fn insert(table: &mut HashMap<[u8; MIN_MATCH], Vec<usize>>, data: &[u8], pos: usize) {
    let key: [u8; MIN_MATCH] = data[pos..pos + MIN_MATCH].try_into().expect("sized");
    let entry = table.entry(key).or_default();
    entry.push(pos);
    if entry.len() > 4 * MAX_CHAIN {
        entry.drain(..2 * MAX_CHAIN);
    }
}

fn match_length(data: &[u8], candidate: usize, pos: usize) -> usize {
    let limit = (data.len() - pos).min(MAX_MATCH);
    let mut len = 0;
    while len < limit && data[candidate + len] == data[pos + len] {
        len += 1;
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> Vec<Lz77Token> {
        let tok = Lz77Tokenizer::new();
        let tokens = tok.tokenize(data);
        assert_eq!(tok.expand(&tokens), data);
        tokens
    }

    #[test]
    fn roundtrip_empty_and_short() {
        assert!(roundtrip(&[]).is_empty());
        roundtrip(&[1]);
        roundtrip(&[1, 2, 3]);
    }

    #[test]
    fn roundtrip_repetitive_data_uses_matches() {
        let data: Vec<u8> = b"abcabcabcabcabcabcabcabcabcabc".to_vec();
        let tokens = roundtrip(&data);
        assert!(tokens.iter().any(|t| matches!(t, Lz77Token::Match { .. })));
        assert!(tokens.len() < data.len());
    }

    #[test]
    fn roundtrip_long_zero_run() {
        let data = vec![0u8; 10_000];
        let tokens = roundtrip(&data);
        assert!(
            tokens.len() < 100,
            "a zero run should collapse into few tokens"
        );
    }

    #[test]
    fn roundtrip_pseudorandom_data() {
        let data: Vec<u8> = (0..5000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn overlapping_match_expansion() {
        // Classic LZ77 trick: a match can overlap its own output.
        let tok = Lz77Tokenizer::new();
        let tokens = vec![
            Lz77Token::Literal(7),
            Lz77Token::Match {
                length: 10,
                distance: 1,
            },
        ];
        assert_eq!(tok.expand(&tokens), vec![7u8; 11]);
    }

    #[test]
    fn match_lengths_and_distances_are_bounded() {
        let mut data = Vec::new();
        for i in 0..40_000u32 {
            data.push((i % 7) as u8);
        }
        let tokens = Lz77Tokenizer::new().tokenize(&data);
        for t in &tokens {
            if let Lz77Token::Match { length, distance } = t {
                assert!((MIN_MATCH..=MAX_MATCH).contains(&(*length as usize)));
                assert!((1..=WINDOW_SIZE).contains(&(*distance as usize)));
            }
        }
        assert_eq!(Lz77Tokenizer::new().expand(&tokens), data);
    }
}
