//! The per-session wire format: what a shard actually ships.
//!
//! A session's byte stream is a sequence of framed records, each starting
//! with a 4-byte magic so a reader can tell where it is (and, after
//! corruption, find the next record boundary with [`WireReader::resync`]):
//!
//! ```text
//! header  "PVCS" | version u16 | session u64 | tier u8
//!                | width u32 | height u32 | tile_size u32 | frame_budget u32
//! frame   "PVCF" | frame_index u32 | flags u8 | payload_len u32 | payload
//!                  (payload = one BD bitstream, pvc_bdc frame layout;
//!                   flags bit 0 = keyframe, other bits reserved)
//! tier    "PVCT" | frame_index u32 | tier u8
//!                | width u32 | height u32 | tile_size u32 | frame_budget u32
//! end     "PVCE" | frames u32 | cancelled u8
//! ```
//!
//! The frame flags byte (new in wire version 2) tells a client whether a
//! frame is decodable on its own (`keyframe`, bit 0) or predicts against
//! the previous frame — the information loss-concealment needs *before*
//! decoding: after a drop, every non-keyframe record is undisplayable
//! until the next keyframe, however intact its own bytes are.
//!
//! All integers are little-endian. A well-formed stream is one header,
//! `frames` frame records with consecutive indices, and one end record; a
//! hard-cancelled session's stream is simply shorter (`cancelled = 1`)
//! but still properly terminated. When the control plane sheds a session
//! to a lower tier mid-stream, a tier-change record precedes the first
//! frame encoded under the new profile: `frame_index` is where the new
//! geometry and budget take effect (in the *new* numbering), and frames
//! `frame_index..` use the record's width/height/tile size/deadline.
//!
//! Workers don't write this format directly: they emit each encoded frame
//! through the [`FrameSink`] trait, and the sinks decide what to keep —
//! [`DigestSink`] folds the bytes into the chained FNV-1a digest (and
//! optionally collects raw payloads), [`WireSink`] frames them into the
//! record stream a [`crate::SessionReport::wire_stream`] hands to clients.

use crate::session::{fnv1a_update, ResolutionTier, FNV_OFFSET_BASIS};

/// Version stamped into every session header record. Version 2 added the
/// per-frame flags byte (bit 0 = keyframe).
pub const WIRE_VERSION: u16 = 2;

/// Frame-record flag bit: the payload is an intra keyframe, decodable
/// with no reference.
pub const FRAME_FLAG_KEYFRAME: u8 = 1;

/// Magic opening a session header record.
pub const HEADER_MAGIC: [u8; 4] = *b"PVCS";
/// Magic opening a per-frame record.
pub const FRAME_MAGIC: [u8; 4] = *b"PVCF";
/// Magic opening a mid-stream tier-change record.
pub const TIER_MAGIC: [u8; 4] = *b"PVCT";
/// Magic opening a stream-end record.
pub const END_MAGIC: [u8; 4] = *b"PVCE";

/// The session header record: enough for a client that joins at byte 0 to
/// size its decode scratch and deadline clock before the first frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireSessionHeader {
    /// The session's id (its admission index).
    pub session: u64,
    /// The session's resolution tier (sets the client's refresh deadline).
    pub tier: ResolutionTier,
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// The encoder's effective tile size (after any profile override).
    pub tile_size: u32,
    /// Number of frames the session was admitted for. A cancelled stream
    /// ends before reaching it.
    pub frame_budget: u32,
}

/// A mid-stream tier change: the session was shed to a lower tier and
/// every frame from `frame_index` on uses this record's geometry, tile
/// size and refresh deadline instead of the header's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireTierChange {
    /// First frame index (in the downgraded numbering) encoded under the
    /// new profile.
    pub frame_index: u32,
    /// The new, lower resolution tier.
    pub tier: ResolutionTier,
    /// New frame width in pixels.
    pub width: u32,
    /// New frame height in pixels.
    pub height: u32,
    /// The encoder's effective tile size after the downgrade.
    pub tile_size: u32,
    /// The downgraded profile's total frame budget.
    pub frame_budget: u32,
}

/// Errors produced while reading a wire stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The bytes at `offset` start with no known record magic.
    BadMagic {
        /// Byte offset of the unrecognized record start.
        offset: usize,
    },
    /// A record's fixed fields or declared payload run past the end of
    /// the stream.
    TruncatedRecord {
        /// Byte offset of the truncated record's start.
        offset: usize,
    },
    /// The header's version field is newer than this reader.
    UnsupportedVersion {
        /// The version the header declared.
        version: u16,
    },
    /// The header's tier byte maps to no known [`ResolutionTier`].
    UnknownTier {
        /// The tier byte the header declared.
        value: u8,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic { offset } => {
                write!(f, "no known record magic at byte {offset}")
            }
            WireError::TruncatedRecord { offset } => {
                write!(f, "record at byte {offset} is truncated")
            }
            WireError::UnsupportedVersion { version } => {
                write!(f, "unsupported wire version {version}")
            }
            WireError::UnknownTier { value } => {
                write!(f, "unknown tier byte {value}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// One parsed record of a session's wire stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireRecord<'a> {
    /// The session header (first record of a well-formed stream).
    Header(WireSessionHeader),
    /// One encoded frame.
    Frame {
        /// The frame's index within the session (0-based, consecutive).
        frame_index: u32,
        /// True when the payload is an intra keyframe; false for a
        /// predicted frame that needs the previous frame decoded.
        keyframe: bool,
        /// The frame's BD bitstream.
        payload: &'a [u8],
    },
    /// A mid-stream tier downgrade; re-keys every following frame.
    TierChange(WireTierChange),
    /// The stream terminator.
    End {
        /// Number of frame records the shard emitted.
        frames: u32,
        /// True when the session was hard-cancelled before its budget.
        cancelled: bool,
    },
}

fn tier_to_byte(tier: ResolutionTier) -> u8 {
    ResolutionTier::ALL
        .iter()
        .position(|&t| t == tier)
        .expect("tier is in ALL") as u8
}

fn tier_from_byte(value: u8) -> Option<ResolutionTier> {
    ResolutionTier::ALL.get(usize::from(value)).copied()
}

/// Appends a session header record to `out`.
pub fn write_header(out: &mut Vec<u8>, header: &WireSessionHeader) {
    out.extend_from_slice(&HEADER_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.extend_from_slice(&header.session.to_le_bytes());
    out.push(tier_to_byte(header.tier));
    out.extend_from_slice(&header.width.to_le_bytes());
    out.extend_from_slice(&header.height.to_le_bytes());
    out.extend_from_slice(&header.tile_size.to_le_bytes());
    out.extend_from_slice(&header.frame_budget.to_le_bytes());
}

/// Appends a length-prefixed frame record to `out`.
pub fn write_frame(out: &mut Vec<u8>, frame_index: u32, keyframe: bool, payload: &[u8]) {
    out.extend_from_slice(&FRAME_MAGIC);
    out.extend_from_slice(&frame_index.to_le_bytes());
    out.push(if keyframe { FRAME_FLAG_KEYFRAME } else { 0 });
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Appends a mid-stream tier-change record to `out`.
pub fn write_tier_change(out: &mut Vec<u8>, change: &WireTierChange) {
    out.extend_from_slice(&TIER_MAGIC);
    out.extend_from_slice(&change.frame_index.to_le_bytes());
    out.push(tier_to_byte(change.tier));
    out.extend_from_slice(&change.width.to_le_bytes());
    out.extend_from_slice(&change.height.to_le_bytes());
    out.extend_from_slice(&change.tile_size.to_le_bytes());
    out.extend_from_slice(&change.frame_budget.to_le_bytes());
}

/// Appends a stream-end record to `out`.
pub fn write_end(out: &mut Vec<u8>, frames: u32, cancelled: bool) {
    out.extend_from_slice(&END_MAGIC);
    out.extend_from_slice(&frames.to_le_bytes());
    out.push(u8::from(cancelled));
}

/// A cursor over a session's wire bytes yielding one record at a time.
///
/// Errors do not advance the cursor: a caller that wants to skip damage
/// calls [`resync`](Self::resync) to scan for the next record magic.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Creates a reader over a session's wire bytes.
    pub fn new(bytes: &'a [u8]) -> Self {
        WireReader { bytes, pos: 0 }
    }

    /// Current byte offset into the stream.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, count: usize, record_start: usize) -> Result<&'a [u8], WireError> {
        if self.bytes.len() - self.pos < count {
            return Err(WireError::TruncatedRecord {
                offset: record_start,
            });
        }
        let slice = &self.bytes[self.pos..self.pos + count];
        self.pos += count;
        Ok(slice)
    }

    fn take_u32(&mut self, record_start: usize) -> Result<u32, WireError> {
        let bytes = self.take(4, record_start)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    /// Reads the next record, or `None` at a clean end of stream.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] (without advancing) when the bytes at the
    /// cursor are not a complete, well-formed record.
    #[allow(clippy::should_implement_trait)]
    pub fn next_record(&mut self) -> Option<Result<WireRecord<'a>, WireError>> {
        if self.pos == self.bytes.len() {
            return None;
        }
        let start = self.pos;
        let result = self.read_record(start);
        if result.is_err() {
            self.pos = start;
        }
        Some(result)
    }

    fn read_record(&mut self, start: usize) -> Result<WireRecord<'a>, WireError> {
        let magic = self.take(4, start)?;
        if magic == HEADER_MAGIC {
            let version = u16::from_le_bytes(self.take(2, start)?.try_into().expect("2 bytes"));
            if version != WIRE_VERSION {
                return Err(WireError::UnsupportedVersion { version });
            }
            let session = u64::from_le_bytes(self.take(8, start)?.try_into().expect("8 bytes"));
            let tier_byte = self.take(1, start)?[0];
            let tier =
                tier_from_byte(tier_byte).ok_or(WireError::UnknownTier { value: tier_byte })?;
            let width = self.take_u32(start)?;
            let height = self.take_u32(start)?;
            let tile_size = self.take_u32(start)?;
            let frame_budget = self.take_u32(start)?;
            Ok(WireRecord::Header(WireSessionHeader {
                session,
                tier,
                width,
                height,
                tile_size,
                frame_budget,
            }))
        } else if magic == FRAME_MAGIC {
            let frame_index = self.take_u32(start)?;
            // Bit 0 is the keyframe flag; other bits are reserved and
            // ignored so older readers keep working across flag additions.
            let flags = self.take(1, start)?[0];
            let len = self.take_u32(start)? as usize;
            let payload = self.take(len, start)?;
            Ok(WireRecord::Frame {
                frame_index,
                keyframe: flags & FRAME_FLAG_KEYFRAME != 0,
                payload,
            })
        } else if magic == TIER_MAGIC {
            let frame_index = self.take_u32(start)?;
            let tier_byte = self.take(1, start)?[0];
            let tier =
                tier_from_byte(tier_byte).ok_or(WireError::UnknownTier { value: tier_byte })?;
            let width = self.take_u32(start)?;
            let height = self.take_u32(start)?;
            let tile_size = self.take_u32(start)?;
            let frame_budget = self.take_u32(start)?;
            Ok(WireRecord::TierChange(WireTierChange {
                frame_index,
                tier,
                width,
                height,
                tile_size,
                frame_budget,
            }))
        } else if magic == END_MAGIC {
            let frames = self.take_u32(start)?;
            let cancelled = self.take(1, start)?[0] != 0;
            Ok(WireRecord::End { frames, cancelled })
        } else {
            Err(WireError::BadMagic { offset: start })
        }
    }

    /// Scans forward (from one byte past the cursor) for the next known
    /// record magic, positioning the cursor on it. Returns `false` — with
    /// the cursor at end of stream — when no further magic exists.
    pub fn resync(&mut self) -> bool {
        let mut candidate = self.pos + 1;
        while candidate + 4 <= self.bytes.len() {
            let window = &self.bytes[candidate..candidate + 4];
            if window == HEADER_MAGIC
                || window == FRAME_MAGIC
                || window == TIER_MAGIC
                || window == END_MAGIC
            {
                self.pos = candidate;
                return true;
            }
            candidate += 1;
        }
        self.pos = self.bytes.len();
        false
    }
}

/// Where a shard thread puts each encoded frame.
///
/// The runtime calls `start` once when the session opens, `frame` once per
/// encoded frame (in frame order, with the frame's index), and `finish`
/// exactly once when the session completes or is cancelled.
pub trait FrameSink {
    /// The session opened; `header` describes its geometry and budget.
    fn start(&mut self, header: &WireSessionHeader);
    /// One encoded frame's complete BD bitstream; `keyframe` is true for
    /// intra frames decodable without a reference.
    fn frame(&mut self, frame_index: u32, keyframe: bool, payload: &[u8]);
    /// The session was shed to a lower tier; frames from
    /// `change.frame_index` on use the new geometry. Default no-op:
    /// digest-style sinks fold payload bytes only, so a shed session's
    /// post-downgrade digest stays comparable to a solo run at the lower
    /// tier.
    fn tier_change(&mut self, change: &WireTierChange) {
        let _ = change;
    }
    /// The stream ended; `cancelled` is true for a hard-cancel.
    fn finish(&mut self, cancelled: bool);
}

/// The telemetry sink: chained FNV-1a digest over every frame's bytes,
/// plus (optionally) the raw payloads.
#[derive(Debug, Clone)]
pub struct DigestSink {
    digest: u64,
    payloads: Option<Vec<Vec<u8>>>,
}

impl DigestSink {
    /// Creates a digest sink; `collect_payloads` keeps the raw bytes too.
    pub fn new(collect_payloads: bool) -> Self {
        DigestSink {
            digest: FNV_OFFSET_BASIS,
            payloads: collect_payloads.then(Vec::new),
        }
    }

    /// The chained digest over every frame seen so far.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Takes the collected payloads (if collection was enabled).
    pub fn take_payloads(&mut self) -> Option<Vec<Vec<u8>>> {
        self.payloads.take()
    }
}

impl FrameSink for DigestSink {
    fn start(&mut self, _header: &WireSessionHeader) {}

    fn frame(&mut self, _frame_index: u32, _keyframe: bool, payload: &[u8]) {
        // The digest folds payload bytes only — never the flag — so a
        // temporal stream's digest stays a pure function of its payloads.
        self.digest = fnv1a_update(self.digest, payload);
        if let Some(payloads) = &mut self.payloads {
            payloads.push(payload.to_vec());
        }
    }

    fn finish(&mut self, _cancelled: bool) {}
}

/// The serving sink: frames every payload into the wire format, producing
/// the self-describing byte stream a client decodes.
#[derive(Debug, Clone, Default)]
pub struct WireSink {
    bytes: Vec<u8>,
    frames: u32,
    finished: bool,
}

impl WireSink {
    /// Creates an empty wire sink.
    pub fn new() -> Self {
        WireSink::default()
    }

    /// The finished stream's bytes (header, frames, end record).
    pub fn into_bytes(self) -> Vec<u8> {
        debug_assert!(self.finished, "finish() seals the stream");
        self.bytes
    }
}

impl FrameSink for WireSink {
    fn start(&mut self, header: &WireSessionHeader) {
        write_header(&mut self.bytes, header);
    }

    fn frame(&mut self, frame_index: u32, keyframe: bool, payload: &[u8]) {
        write_frame(&mut self.bytes, frame_index, keyframe, payload);
        self.frames += 1;
    }

    fn tier_change(&mut self, change: &WireTierChange) {
        write_tier_change(&mut self.bytes, change);
    }

    fn finish(&mut self, cancelled: bool) {
        write_end(&mut self.bytes, self.frames, cancelled);
        self.finished = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> WireSessionHeader {
        WireSessionHeader {
            session: 7,
            tier: ResolutionTier::VisionClass,
            width: 96,
            height: 64,
            tile_size: 8,
            frame_budget: 12,
        }
    }

    fn sample_tier_change() -> WireTierChange {
        WireTierChange {
            frame_index: 1,
            tier: ResolutionTier::QuestPro,
            width: 47,
            height: 38,
            tile_size: 4,
            frame_budget: 11,
        }
    }

    fn sample_stream() -> Vec<u8> {
        let mut sink = WireSink::new();
        sink.start(&sample_header());
        sink.frame(0, true, &[1, 2, 3]);
        sink.tier_change(&sample_tier_change());
        sink.frame(1, false, &[4, 5]);
        sink.finish(false);
        sink.into_bytes()
    }

    #[test]
    fn records_roundtrip() {
        let bytes = sample_stream();
        let mut reader = WireReader::new(&bytes);
        assert_eq!(
            reader.next_record().unwrap().unwrap(),
            WireRecord::Header(sample_header())
        );
        assert_eq!(
            reader.next_record().unwrap().unwrap(),
            WireRecord::Frame {
                frame_index: 0,
                keyframe: true,
                payload: &[1, 2, 3]
            }
        );
        assert_eq!(
            reader.next_record().unwrap().unwrap(),
            WireRecord::TierChange(sample_tier_change())
        );
        assert_eq!(
            reader.next_record().unwrap().unwrap(),
            WireRecord::Frame {
                frame_index: 1,
                keyframe: false,
                payload: &[4, 5]
            }
        );
        assert_eq!(
            reader.next_record().unwrap().unwrap(),
            WireRecord::End {
                frames: 2,
                cancelled: false
            }
        );
        assert!(reader.next_record().is_none());
    }

    #[test]
    fn every_tier_byte_roundtrips() {
        for tier in ResolutionTier::ALL {
            assert_eq!(tier_from_byte(tier_to_byte(tier)), Some(tier));
        }
        assert_eq!(tier_from_byte(3), None);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = sample_stream();
        // Record boundaries of the sample stream: reading a full stream
        // and noting the cursor after each record.
        let mut boundaries = vec![0];
        let mut full = WireReader::new(&bytes);
        while let Some(record) = full.next_record() {
            record.unwrap();
            boundaries.push(full.position());
        }
        for len in 0..bytes.len() {
            let mut reader = WireReader::new(&bytes[..len]);
            let mut saw_error = false;
            while let Some(record) = reader.next_record() {
                match record {
                    Ok(_) => {}
                    Err(err) => {
                        assert!(matches!(err, WireError::TruncatedRecord { .. }), "{err}");
                        saw_error = true;
                        break;
                    }
                }
            }
            // A prefix parses cleanly iff it ends exactly on a record
            // boundary; every other cut must surface as truncation.
            assert_eq!(!saw_error, boundaries.contains(&len), "prefix {len}");
        }
    }

    #[test]
    fn resync_skips_past_corruption_to_the_next_record() {
        let mut bytes = sample_stream();
        // Corrupt the first frame record's magic.
        let frame_offset = 31;
        assert_eq!(&bytes[frame_offset..frame_offset + 4], &FRAME_MAGIC);
        bytes[frame_offset] = b'X';
        let mut reader = WireReader::new(&bytes);
        assert!(matches!(
            reader.next_record().unwrap().unwrap(),
            WireRecord::Header(_)
        ));
        assert!(matches!(
            reader.next_record().unwrap().unwrap_err(),
            WireError::BadMagic { .. }
        ));
        assert!(reader.resync());
        // The next intact record is the tier change, then the second frame.
        assert_eq!(
            reader.next_record().unwrap().unwrap(),
            WireRecord::TierChange(sample_tier_change())
        );
        assert_eq!(
            reader.next_record().unwrap().unwrap(),
            WireRecord::Frame {
                frame_index: 1,
                keyframe: false,
                payload: &[4, 5]
            }
        );
    }

    #[test]
    fn digest_sink_matches_manual_fnv_chain() {
        let mut sink = DigestSink::new(true);
        sink.start(&sample_header());
        sink.frame(0, true, &[1, 2, 3]);
        // Tier changes carry no payload bytes: the digest must not move,
        // so a shed session stays digest-comparable to a solo lower-tier run.
        sink.tier_change(&sample_tier_change());
        sink.frame(1, false, &[4, 5]);
        sink.finish(false);
        let expected = fnv1a_update(fnv1a_update(FNV_OFFSET_BASIS, &[1, 2, 3]), &[4, 5]);
        assert_eq!(sink.digest(), expected);
        assert_eq!(sink.take_payloads(), Some(vec![vec![1, 2, 3], vec![4, 5]]));
    }

    #[test]
    fn cancelled_streams_are_still_terminated() {
        let mut sink = WireSink::new();
        sink.start(&sample_header());
        sink.frame(0, true, &[9]);
        sink.finish(true);
        let bytes = sink.into_bytes();
        let mut reader = WireReader::new(&bytes);
        let mut last = None;
        while let Some(record) = reader.next_record() {
            last = Some(record.unwrap());
        }
        assert_eq!(
            last,
            Some(WireRecord::End {
                frames: 1,
                cancelled: true
            })
        );
    }
}
