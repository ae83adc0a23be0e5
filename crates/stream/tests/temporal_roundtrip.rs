//! Property test: the full temporal serving pipeline — encode →
//! wire-frame records → [`WireReader`] → stateful [`BdDecoder`] —
//! reconstructs the adjusted frames bit-exactly for random dimensions,
//! keyframe cadences, tier tile sizes and thread counts.
//!
//! A second property drives [`WireReader::resync`] mid-GOP: when a
//! predicted frame's record is destroyed in transit, the reader recovers
//! at the next record boundary and the decoder reports every dependent
//! frame as unreconstructable ([`BitstreamError::MissingReference`])
//! until the next keyframe — it never emits wrong pixels — and re-aligns
//! bit-exactly from that keyframe on.

use proptest::prelude::*;
use pvc_bdc::{BdDecoder, BitstreamError, FrameKind};
use pvc_color::SyntheticDiscriminationModel;
use pvc_core::{BatchEncoder, EncoderConfig, PerceptualEncoder, StreamScratch, TemporalConfig};
use pvc_fovea::{DisplayGeometry, GazePoint};
use pvc_frame::{Dimensions, SrgbFrame};
use pvc_scenes::{SceneConfig, SceneId, SceneRenderer};
use pvc_stream::wire::{write_end, write_frame, write_header, WireSessionHeader};
use pvc_stream::{ResolutionTier, WireReader, WireRecord};

/// One encoded session: per-frame wire payloads with their keyframe
/// flags, plus the adjusted frames they must decode back to.
struct EncodedSession {
    payloads: Vec<(bool, Vec<u8>)>,
    adjusted: Vec<SrgbFrame>,
}

fn encode_session(
    dims: Dimensions,
    interval: u32,
    tile_size: u32,
    threads: usize,
    frames: u32,
) -> EncodedSession {
    let base = EncoderConfig::default()
        .with_tile_size(tile_size)
        .with_threads(threads);
    let display = DisplayGeometry::quest2_like(dims);
    let mut temporal = BatchEncoder::new(
        SyntheticDiscriminationModel::default(),
        base.clone().with_temporal(TemporalConfig::every(interval)),
        display,
    );
    let intra = PerceptualEncoder::new(SyntheticDiscriminationModel::default(), base);
    let renderer = SceneRenderer::new(SceneId::Office, SceneConfig::new(dims));
    let mut scratch = StreamScratch::new();
    let mut payloads = Vec::new();
    let mut adjusted = Vec::new();
    for index in 0..frames {
        let frame = renderer.render_linear(index);
        // A slowly drifting gaze: exercises the cache-miss path without
        // pinning the whole stream to one eccentricity map.
        let gaze = GazePoint::new(
            f64::from(dims.width) / 3.0 + f64::from(index) * 0.5,
            f64::from(dims.height) / 3.0,
        );
        let mut payload = Vec::new();
        let stats = temporal.encode_frame_stream_into(&frame, gaze, &mut scratch, &mut payload);
        assert_eq!(stats.temporal.keyframe, index % interval == 0);
        payloads.push((stats.temporal.keyframe, payload));
        adjusted.push(intra.encode_frame_stream(&frame, &display, gaze).adjusted);
    }
    EncodedSession { payloads, adjusted }
}

/// Serializes the session as a wire stream, returning the bytes and the
/// byte range of every frame record.
fn to_wire(
    session: &EncodedSession,
    dims: Dimensions,
    tile_size: u32,
) -> (Vec<u8>, Vec<(usize, usize)>) {
    let mut bytes = Vec::new();
    write_header(
        &mut bytes,
        &WireSessionHeader {
            session: 7,
            tier: ResolutionTier::Quest2,
            width: dims.width,
            height: dims.height,
            tile_size,
            frame_budget: session.payloads.len() as u32,
        },
    );
    let mut ranges = Vec::new();
    for (index, (keyframe, payload)) in session.payloads.iter().enumerate() {
        let start = bytes.len();
        write_frame(&mut bytes, index as u32, *keyframe, payload);
        ranges.push((start, bytes.len()));
    }
    write_end(&mut bytes, session.payloads.len() as u32, false);
    (bytes, ranges)
}

proptest! {
    #[test]
    fn wire_round_trip_reconstructs_the_adjusted_frames(
        width in 8u32..=32,
        height in 8u32..=32,
        interval in (0u32..3).prop_map(|i| [1u32, 3, 8][i as usize]),
        tile_size in (0u32..2).prop_map(|i| [4u32, 8][i as usize]),
        threads in (0u32..2).prop_map(|i| [1usize, 4][i as usize]),
        frames in 5u32..=9,
    ) {
        let dims = Dimensions::new(width, height);
        let session = encode_session(dims, interval, tile_size, threads, frames);
        let (bytes, _) = to_wire(&session, dims, tile_size);

        let mut reader = WireReader::new(&bytes);
        prop_assert!(matches!(
            reader.next_record(),
            Some(Ok(WireRecord::Header(header))) if header.frame_budget == frames
        ));
        let mut decoder = BdDecoder::new();
        let mut out = SrgbFrame::filled(Dimensions::new(1, 1), Default::default());
        let mut next = 0u32;
        loop {
            match reader.next_record() {
                Some(Ok(WireRecord::Frame { frame_index, keyframe, payload })) => {
                    prop_assert_eq!(frame_index, next);
                    prop_assert_eq!(keyframe, frame_index % interval == 0);
                    let kind = decoder.decode_frame_into(payload, &mut out).unwrap();
                    prop_assert_eq!(
                        kind == FrameKind::Key,
                        keyframe,
                        "frame {}'s payload kind must match its wire flag",
                        frame_index
                    );
                    prop_assert_eq!(
                        &out,
                        &session.adjusted[frame_index as usize],
                        "frame {} must decode to its adjusted frame",
                        frame_index
                    );
                    next += 1;
                }
                Some(Ok(WireRecord::End { frames: emitted, cancelled })) => {
                    prop_assert_eq!(emitted, frames);
                    prop_assert!(!cancelled);
                    break;
                }
                other => prop_assert!(false, "unexpected record: {:?}", other),
            }
        }
        prop_assert_eq!(next, frames);
    }

    #[test]
    fn resync_after_a_destroyed_delta_frame_is_stale_until_the_next_keyframe(
        width in 8u32..=32,
        height in 8u32..=32,
        interval in (0u32..2).prop_map(|i| [3u32, 8][i as usize]),
        tile_size in (0u32..2).prop_map(|i| [4u32, 8][i as usize]),
        threads in (0u32..2).prop_map(|i| [1usize, 4][i as usize]),
        extra in 0u32..=2,
    ) {
        // Enough frames that a keyframe follows the destroyed one.
        let frames = interval + 2 + extra;
        let dims = Dimensions::new(width, height);
        let session = encode_session(dims, interval, tile_size, threads, frames);
        let (mut bytes, ranges) = to_wire(&session, dims, tile_size);

        // Destroy frame 1 — the first predicted frame, mid-GOP. Zero fill:
        // no wire magic contains a NUL byte, so the reader's resync lands
        // exactly on frame 2's record.
        let victim = 1usize;
        let (start, end) = ranges[victim];
        bytes[start..end].fill(0);

        let mut reader = WireReader::new(&bytes);
        prop_assert!(matches!(reader.next_record(), Some(Ok(WireRecord::Header(_)))));
        let mut decoder = BdDecoder::new();
        let mut out = SrgbFrame::filled(Dimensions::new(1, 1), Default::default());
        let mut next = 0u32;
        let mut chain_broken = false;
        let mut saw_end = false;
        while let Some(record) = reader.next_record() {
            let record = match record {
                Ok(record) => record,
                Err(error) => {
                    // The destroyed record surfaces as a typed error at its
                    // own offset; resync must land on the next record.
                    prop_assert_eq!(
                        error,
                        pvc_stream::WireError::BadMagic { offset: start }
                    );
                    prop_assert!(reader.resync(), "a later record must be found");
                    continue;
                }
            };
            match record {
                WireRecord::Frame { frame_index, keyframe, payload } => {
                    if frame_index != next {
                        // The client-side gap protocol: a missing frame
                        // index invalidates the decoder's reference.
                        prop_assert_eq!(frame_index, next + 1, "exactly one frame was lost");
                        decoder.invalidate_reference();
                        chain_broken = true;
                    }
                    if keyframe {
                        chain_broken = false;
                    }
                    let result = decoder.decode_frame_into(payload, &mut out);
                    if chain_broken {
                        // Unreconstructable, and reported as such — the
                        // decoder refuses rather than emitting wrong pixels.
                        prop_assert_eq!(result, Err(BitstreamError::MissingReference));
                    } else {
                        prop_assert!(result.is_ok());
                        prop_assert_eq!(
                            &out,
                            &session.adjusted[frame_index as usize],
                            "frame {} must re-align bit-exactly",
                            frame_index
                        );
                    }
                    next = frame_index + 1;
                }
                WireRecord::End { frames: emitted, .. } => {
                    prop_assert_eq!(emitted, frames);
                    saw_end = true;
                }
                other => prop_assert!(false, "unexpected record: {:?}", other),
            }
        }
        prop_assert!(saw_end);
        prop_assert_eq!(next, frames);
        // The stream really went stale and really recovered: a keyframe at
        // `interval` follows the destroyed frame 1.
        prop_assert!(interval < frames);
    }
}
