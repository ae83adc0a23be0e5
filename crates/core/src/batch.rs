//! A session API for encoding gaze-streams of frames.
//!
//! A VR runtime does not encode one frame in isolation: it serves a stream
//! of frames for one headset (fixed display geometry) whose gaze moves in
//! fixations — long runs of frames share the same (or a re-sent) gaze
//! sample. Everything the perceptual encoder derives from the gaze alone is
//! therefore reusable across the stream: the per-tile [`EccentricityMap`]
//! walks every tile of the grid and evaluates five eccentricities per tile,
//! which for a Quest-2-sized frame is millions of trigonometric evaluations
//! that [`PerceptualEncoder::encode_frame`] would redo per frame.
//!
//! [`BatchEncoder`] owns the display geometry and a small most-recently-used
//! cache of eccentricity maps keyed by the exact gaze sample, and feeds the
//! cached map into [`PerceptualEncoder::encode_frame_stream_with_map_into`]
//! (or its temporal sibling). Cache hits change *where the map comes from*,
//! never its contents, so the encoded stream is bit-identical to calling
//! the one-shot encoder per frame.

use crate::config::EncoderConfig;
use crate::encoder::{PerceptualEncoder, StreamFrameStats, StreamScratch, TemporalHistory};
use pvc_color::DiscriminationModel;
use pvc_fovea::{DisplayGeometry, EccentricityMap, GazePoint};
use pvc_frame::{LinearFrame, TileGrid};
use std::sync::Arc;

/// Number of distinct gazes a session keeps eccentricity maps for.
pub const DEFAULT_GAZE_CACHE_CAPACITY: usize = 8;

/// Hit/miss counters of a session's eccentricity-map cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchCacheStats {
    /// Frames that reused a cached eccentricity map.
    pub hits: u64,
    /// Frames that had to build a fresh eccentricity map.
    pub misses: u64,
    /// Number of maps currently cached.
    pub entries: usize,
}

impl BatchCacheStats {
    /// Fraction of frames served from the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// A per-stream encoding session that amortises gaze-dependent setup
/// across frames.
///
/// # Examples
///
/// ```
/// use pvc_color::SyntheticDiscriminationModel;
/// use pvc_core::{BatchEncoder, EncoderConfig, StreamScratch};
/// use pvc_fovea::{DisplayGeometry, GazePoint};
/// use pvc_frame::{Dimensions, LinearFrame};
/// use pvc_color::LinearRgb;
///
/// let dims = Dimensions::new(64, 64);
/// let display = DisplayGeometry::quest2_like(dims);
/// let mut session = BatchEncoder::new(
///     SyntheticDiscriminationModel::default(),
///     EncoderConfig::default(),
///     display,
/// );
/// let mut scratch = StreamScratch::new();
/// let mut payload = Vec::new();
///
/// // Three frames of a fixation: one map build, two cache hits.
/// let gaze = GazePoint::center_of(dims);
/// for shade in [0.3, 0.4, 0.5] {
///     let frame = LinearFrame::filled(dims, LinearRgb::new(shade, 0.5, 0.4));
///     session.encode_frame_stream_into(&frame, gaze, &mut scratch, &mut payload);
///     // The payload is the one-shot encoder's bitstream, byte for byte.
///     let one_shot = session.encoder().encode_frame_stream(&frame, &display, gaze);
///     assert_eq!(payload, one_shot.encoded.to_bitstream());
/// }
/// assert_eq!(session.cache_stats().hits, 2);
/// assert_eq!(session.cache_stats().misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct BatchEncoder<M> {
    encoder: PerceptualEncoder<M>,
    display: DisplayGeometry,
    /// Most-recently-used first; keys are the exact gaze bit patterns so a
    /// hit can never change the encoded output.
    cache: Vec<((u64, u64), Arc<EccentricityMap>)>,
    hits: u64,
    misses: u64,
    /// GOP state for temporal coding: the previous adjusted frame. Dead
    /// weight (one placeholder frame) when temporal coding is disabled.
    history: TemporalHistory,
    /// Absolute index of the next frame fed through
    /// [`Self::encode_frame_stream_into`]; drives the keyframe schedule.
    next_frame_index: u32,
}

impl<M: DiscriminationModel + Sync> BatchEncoder<M> {
    /// Creates a session for one display from a discrimination model and an
    /// encoder configuration.
    pub fn new(model: M, config: EncoderConfig, display: DisplayGeometry) -> Self {
        BatchEncoder {
            encoder: PerceptualEncoder::new(model, config),
            display,
            cache: Vec::new(),
            hits: 0,
            misses: 0,
            history: TemporalHistory::new(),
            next_frame_index: 0,
        }
    }

    /// Repositions the session at absolute frame `index` and drops the
    /// temporal reference, forcing the next frame to be a keyframe.
    ///
    /// This is the handoff-boundary primitive: a runtime rebuilding a
    /// session's encoder mid-stream (migration resume, shed/retier) seeds
    /// the counter with the frames already streamed, so the keyframe
    /// schedule stays a pure function of the absolute frame index and the
    /// stream re-aligns bit-exactly with a solo run from the next
    /// interval multiple.
    pub fn set_next_frame_index(&mut self, index: u32) {
        self.next_frame_index = index;
        self.history.reset();
    }

    /// Absolute index of the next frame
    /// [`Self::encode_frame_stream_into`] will encode.
    pub fn next_frame_index(&self) -> u32 {
        self.next_frame_index
    }

    /// The underlying one-shot encoder.
    pub fn encoder(&self) -> &PerceptualEncoder<M> {
        &self.encoder
    }

    /// The display geometry this session encodes for.
    pub fn display(&self) -> &DisplayGeometry {
        &self.display
    }

    /// Cache hit/miss counters for the frames encoded so far.
    pub fn cache_stats(&self) -> BatchCacheStats {
        BatchCacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.cache.len(),
        }
    }

    /// Encodes the next frame of the stream, viewed under `gaze`: the BD
    /// bitstream is packed straight into `out` (bit-identical to the
    /// `encoded.to_bitstream()` of [`PerceptualEncoder::encode_frame_stream`]
    /// on the same inputs when temporal coding is off) and every
    /// intermediate lives in `scratch`. The session only saves the
    /// eccentricity-map construction when the gaze repeats.
    ///
    /// On a cache-hitting gaze this is the allocation-free serving path: a
    /// session that keeps one [`StreamScratch`] and one output buffer
    /// across its stream allocates nothing per steady-state frame (pinned
    /// by the `alloc_regression` tier-2 test).
    ///
    /// # Panics
    ///
    /// Panics if the frame and display dimensions differ.
    pub fn encode_frame_stream_into(
        &mut self,
        frame: &LinearFrame,
        gaze: GazePoint,
        scratch: &mut StreamScratch,
        out: &mut Vec<u8>,
    ) -> StreamFrameStats {
        assert_eq!(
            frame.dimensions(),
            self.display.dimensions(),
            "frame and display dimensions must match"
        );
        let map = self.map_for(gaze);
        let frame_index = self.next_frame_index;
        self.next_frame_index = self.next_frame_index.wrapping_add(1);
        if self.encoder.config().temporal.enabled {
            self.encoder.encode_frame_stream_temporal_into(
                frame,
                &map,
                &mut self.history,
                frame_index,
                scratch,
                out,
            )
        } else {
            self.encoder
                .encode_frame_stream_with_map_into(frame, &map, scratch, out)
        }
    }

    /// Returns the eccentricity map for `gaze`, building and caching it on
    /// a miss and refreshing its recency on a hit.
    fn map_for(&mut self, gaze: GazePoint) -> Arc<EccentricityMap> {
        let key = (gaze.x.to_bits(), gaze.y.to_bits());
        if let Some(position) = self.cache.iter().position(|(k, _)| *k == key) {
            self.hits += 1;
            let entry = self.cache.remove(position);
            self.cache.insert(0, entry);
            return Arc::clone(&self.cache[0].1);
        }
        self.misses += 1;
        let config = self.encoder.config();
        let grid = TileGrid::new(self.display.dimensions(), config.tile_size);
        let map = Arc::new(EccentricityMap::per_tile(
            &self.display,
            &grid,
            gaze,
            config.fovea,
        ));
        self.cache.insert(0, (key, Arc::clone(&map)));
        self.cache.truncate(DEFAULT_GAZE_CACHE_CAPACITY);
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_color::SyntheticDiscriminationModel;
    use pvc_frame::Dimensions;
    use pvc_scenes::{SceneConfig, SceneId, SceneRenderer};

    type Session = BatchEncoder<SyntheticDiscriminationModel>;

    fn session(dims: Dimensions) -> Session {
        BatchEncoder::new(
            SyntheticDiscriminationModel::default(),
            EncoderConfig::default(),
            DisplayGeometry::quest2_like(dims),
        )
    }

    fn one_shot() -> PerceptualEncoder<SyntheticDiscriminationModel> {
        PerceptualEncoder::new(
            SyntheticDiscriminationModel::default(),
            EncoderConfig::default(),
        )
    }

    fn frames(dims: Dimensions, count: u32) -> Vec<LinearFrame> {
        let renderer = SceneRenderer::new(SceneId::Office, SceneConfig::new(dims));
        (0..count).map(|t| renderer.render_linear(t)).collect()
    }

    /// Encodes one frame through a fresh scratch, returning the payload
    /// and the frame statistics.
    fn encode(
        batch: &mut Session,
        frame: &LinearFrame,
        gaze: GazePoint,
    ) -> (Vec<u8>, StreamFrameStats) {
        let mut payload = Vec::new();
        let stats =
            batch.encode_frame_stream_into(frame, gaze, &mut StreamScratch::new(), &mut payload);
        (payload, stats)
    }

    /// `count` distinct gazes spread along the frame's diagonal, so each
    /// one protects a different foveal region.
    fn distinct_gazes(count: usize) -> Vec<GazePoint> {
        (0..count)
            .map(|i| GazePoint::new(2.0 + 5.0 * i as f64, 60.0 - 5.0 * i as f64))
            .collect()
    }

    #[test]
    fn batch_output_matches_one_shot_encoder() {
        let dims = Dimensions::new(96, 64);
        let display = DisplayGeometry::quest2_like(dims);
        let one_shot = one_shot();
        let mut batch = session(dims);
        let gazes = [
            GazePoint::center_of(dims),
            GazePoint::new(10.0, 12.0),
            GazePoint::center_of(dims),
        ];
        for (frame, gaze) in frames(dims, 3).iter().zip(gazes) {
            let expected = one_shot.encode_frame(frame, &display, gaze);
            let (payload, stats) = encode(&mut batch, frame, gaze);
            assert_eq!(payload, expected.encoded.to_bitstream());
            assert_eq!(stats.adjustment, expected.stats);
            assert_eq!(stats.compression, expected.our_stats());
        }
    }

    #[test]
    fn repeated_gaze_hits_the_cache() {
        let dims = Dimensions::new(64, 64);
        let mut batch = session(dims);
        let gaze = GazePoint::center_of(dims);
        for frame in frames(dims, 4) {
            let _ = encode(&mut batch, &frame, gaze);
        }
        let stats = batch.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn cache_evicts_least_recently_used_gaze() {
        let dims = Dimensions::new(64, 64);
        let mut batch = session(dims);
        let frame = &frames(dims, 1)[0];
        let gazes = distinct_gazes(DEFAULT_GAZE_CACHE_CAPACITY + 1);
        for &g in &gazes {
            let _ = encode(&mut batch, frame, g); // the last one evicts gazes[0]
        }
        let _ = encode(&mut batch, frame, gazes[1]); // hit
        let _ = encode(&mut batch, frame, gazes[0]); // rebuilt
        assert_eq!(
            batch.cache_stats(),
            BatchCacheStats {
                hits: 1,
                misses: DEFAULT_GAZE_CACHE_CAPACITY as u64 + 2,
                entries: DEFAULT_GAZE_CACHE_CAPACITY
            }
        );
    }

    #[test]
    fn touching_an_entry_refreshes_its_recency() {
        // MRU semantics: with the cache full, re-touching the oldest gaze
        // right before a newcomer arrives must make the second-oldest —
        // not the touched one — the eviction victim.
        let dims = Dimensions::new(64, 64);
        let mut batch = session(dims);
        let frame = &frames(dims, 1)[0];
        let gazes = distinct_gazes(DEFAULT_GAZE_CACHE_CAPACITY + 1);
        let (newcomer, resident) = gazes.split_last().unwrap();
        for &g in resident {
            let _ = encode(&mut batch, frame, g); // fill: g0 is the least recently used
        }
        let _ = encode(&mut batch, frame, resident[0]); // hit, refresh: g1 is now the LRU
        let _ = encode(&mut batch, frame, *newcomer); // miss, evicts LRU g1
        let capacity = DEFAULT_GAZE_CACHE_CAPACITY as u64;
        assert_eq!(
            batch.cache_stats(),
            BatchCacheStats {
                hits: 1,
                misses: capacity + 1,
                entries: DEFAULT_GAZE_CACHE_CAPACITY
            }
        );
        let _ = encode(&mut batch, frame, resident[0]); // still cached
        assert_eq!(batch.cache_stats().hits, 2);
        let _ = encode(&mut batch, frame, resident[1]); // was evicted, rebuilt
        let stats = batch.cache_stats();
        assert_eq!(stats.misses, capacity + 2);
        assert_eq!(stats.entries, DEFAULT_GAZE_CACHE_CAPACITY);
    }

    #[test]
    fn eviction_at_capacity_removes_only_the_least_recently_used() {
        let dims = Dimensions::new(64, 64);
        let mut batch = session(dims);
        let frame = &frames(dims, 1)[0];
        let gazes = distinct_gazes(DEFAULT_GAZE_CACHE_CAPACITY + 1);
        let (newcomer, resident) = gazes.split_last().unwrap();
        for &g in resident {
            let _ = encode(&mut batch, frame, g); // fill: g0 is the least recently used
        }
        let _ = encode(&mut batch, frame, *newcomer); // evicts g0
        for &g in &resident[1..] {
            let _ = encode(&mut batch, frame, g); // every other gaze survived ...
        }
        let capacity = DEFAULT_GAZE_CACHE_CAPACITY as u64;
        assert_eq!(batch.cache_stats().hits, capacity - 1);
        // ... and only g0 has to be rebuilt.
        let _ = encode(&mut batch, frame, resident[0]);
        assert_eq!(
            batch.cache_stats(),
            BatchCacheStats {
                hits: capacity - 1,
                misses: capacity + 2,
                entries: DEFAULT_GAZE_CACHE_CAPACITY
            }
        );
    }

    #[test]
    fn cache_eviction_never_changes_the_encoded_bits() {
        // More distinct gazes than the cache holds, revisited in an order
        // that hits surviving entries and rebuilds evicted ones. Every
        // payload must equal the one-shot encoder's, and the hit/miss
        // counters must follow a plain LRU model of the cache.
        let dims = Dimensions::new(64, 64);
        let display = DisplayGeometry::quest2_like(dims);
        let one_shot = one_shot();
        let mut batch = session(dims);
        let mut scratch = StreamScratch::new();
        let mut payload = Vec::new();
        let gazes = distinct_gazes(DEFAULT_GAZE_CACHE_CAPACITY + 3);
        let last = gazes.len() - 1;
        let order: Vec<usize> = (0..gazes.len())
            .chain([0, last, 3, 1, last, 0, 4])
            .collect();
        let rendered = frames(dims, order.len() as u32);
        let mut lru: Vec<usize> = Vec::new();
        let (mut hits, mut misses) = (0u64, 0u64);
        for (t, (frame, &g)) in rendered.iter().zip(&order).enumerate() {
            batch.encode_frame_stream_into(frame, gazes[g], &mut scratch, &mut payload);
            let expected = one_shot.encode_frame_stream(frame, &display, gazes[g]);
            assert_eq!(payload, expected.encoded.to_bitstream(), "frame {t}");

            match lru.iter().position(|&k| k == g) {
                Some(position) => {
                    hits += 1;
                    lru.remove(position);
                }
                None => misses += 1,
            }
            lru.insert(0, g);
            lru.truncate(DEFAULT_GAZE_CACHE_CAPACITY);
            assert_eq!(
                batch.cache_stats(),
                BatchCacheStats {
                    hits,
                    misses,
                    entries: lru.len()
                },
                "frame {t}"
            );
        }
        assert!(hits >= 2, "the order must revisit cached gazes");
        assert!(
            misses > gazes.len() as u64,
            "the order must rebuild evicted gazes"
        );
    }

    #[test]
    fn scratch_session_stream_matches_the_allocating_encoder() {
        let dims = Dimensions::new(96, 64);
        let display = DisplayGeometry::quest2_like(dims);
        let one_shot = one_shot();
        let mut batch = session(dims);
        let mut scratch = StreamScratch::new();
        let mut bitstream = Vec::new();
        let gazes = [
            GazePoint::center_of(dims),
            GazePoint::new(10.0, 12.0),
            GazePoint::center_of(dims),
        ];
        // One scratch and one output buffer across the stream, arriving
        // dirty each time.
        for (frame, gaze) in frames(dims, 3).iter().zip(gazes) {
            let expected = one_shot.encode_frame_stream(frame, &display, gaze);
            let stats = batch.encode_frame_stream_into(frame, gaze, &mut scratch, &mut bitstream);
            assert_eq!(bitstream, expected.encoded.to_bitstream());
            assert_eq!(stats.adjustment, expected.stats);
            assert_eq!(stats.compression, expected.our_stats());
        }
        assert_eq!(batch.cache_stats().hits, 1);
    }

    #[test]
    fn temporal_streams_decode_to_the_adjusted_frames() {
        use crate::config::TemporalConfig;
        use pvc_bdc::{BdDecoder, FrameKind};

        let dims = Dimensions::new(96, 64);
        let display = DisplayGeometry::quest2_like(dims);
        let config = EncoderConfig::default().with_temporal(TemporalConfig::every(3));
        let mut temporal =
            BatchEncoder::new(SyntheticDiscriminationModel::default(), config, display);
        let intra = one_shot();
        let mut scratch = StreamScratch::new();
        let mut payload = Vec::new();
        let mut decoder = BdDecoder::new();
        let mut decoded =
            pvc_frame::SrgbFrame::filled(Dimensions::new(1, 1), pvc_color::Srgb8::default());
        let gaze = GazePoint::new(10.0, 12.0);
        let mut saved = 0i64;
        for (index, frame) in frames(dims, 7).iter().enumerate() {
            let expected = intra.encode_frame_stream(frame, &display, gaze);
            let stats = temporal.encode_frame_stream_into(frame, gaze, &mut scratch, &mut payload);
            let expected_key = index % 3 == 0;
            assert_eq!(stats.temporal.keyframe, expected_key, "frame {index}");
            if expected_key {
                // Keyframes are the exact intra bitstream.
                assert_eq!(payload, expected.encoded.to_bitstream(), "frame {index}");
                assert_eq!(stats.temporal.bits, stats.temporal.intra_bits);
            } else {
                assert!(pvc_bdc::is_temporal_bitstream(&payload), "frame {index}");
            }
            // The temporal stats account every tile and the whole payload.
            let tiles =
                stats.temporal.skip_tiles + stats.temporal.delta_tiles + stats.temporal.intra_tiles;
            assert_eq!(tiles, stats.adjustment.total_tiles as u64, "frame {index}");
            assert_eq!(
                stats.temporal.bits.div_ceil(8) as usize,
                payload.len(),
                "frame {index}"
            );
            saved += stats.temporal.intra_bits as i64 - stats.temporal.bits as i64;
            // Decoding reconstructs the adjusted frame bit-exactly.
            let kind = decoder.decode_frame_into(&payload, &mut decoded).unwrap();
            assert_eq!(
                kind,
                if expected_key {
                    FrameKind::Key
                } else {
                    FrameKind::Predicted
                }
            );
            assert_eq!(decoded, expected.adjusted, "frame {index}");
        }
        assert!(saved > 0, "an animated fixation must save bits");
    }

    #[test]
    fn keyframe_interval_one_is_byte_identical_to_intra_only() {
        use crate::config::TemporalConfig;
        let dims = Dimensions::new(64, 64);
        let display = DisplayGeometry::quest2_like(dims);
        let mut temporal = BatchEncoder::new(
            SyntheticDiscriminationModel::default(),
            EncoderConfig::default().with_temporal(TemporalConfig::every(1)),
            display,
        );
        let mut intra = session(dims);
        let mut scratch = StreamScratch::new();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let gaze = GazePoint::center_of(dims);
        for frame in frames(dims, 4) {
            let t = temporal.encode_frame_stream_into(&frame, gaze, &mut scratch, &mut a);
            let i = intra.encode_frame_stream_into(&frame, gaze, &mut scratch, &mut b);
            assert_eq!(a, b);
            assert_eq!(t.compression, i.compression);
            assert!(t.temporal.keyframe);
        }
    }

    #[test]
    fn reseeded_session_realigns_with_the_solo_stream_at_the_next_keyframe() {
        use crate::config::TemporalConfig;
        let dims = Dimensions::new(64, 64);
        let display = DisplayGeometry::quest2_like(dims);
        let config = EncoderConfig::default().with_temporal(TemporalConfig::every(3));
        let make = || {
            BatchEncoder::new(
                SyntheticDiscriminationModel::default(),
                config.clone(),
                display,
            )
        };
        let gaze = GazePoint::center_of(dims);
        let rendered = frames(dims, 9);
        let mut scratch = StreamScratch::new();

        let mut solo = make();
        let solo_payloads: Vec<Vec<u8>> = rendered
            .iter()
            .map(|frame| {
                let mut out = Vec::new();
                solo.encode_frame_stream_into(frame, gaze, &mut scratch, &mut out);
                out
            })
            .collect();

        // A handoff at frame 4: the resumed encoder starts mid-GOP.
        let mut resumed = make();
        resumed.set_next_frame_index(4);
        assert_eq!(resumed.next_frame_index(), 4);
        for (index, frame) in rendered.iter().enumerate().skip(4) {
            let mut out = Vec::new();
            let stats = resumed.encode_frame_stream_into(frame, gaze, &mut scratch, &mut out);
            if index == 4 {
                // Forced refresh: the history is invalid after the seed.
                assert!(stats.temporal.keyframe);
            }
            if index >= 6 {
                // From the next interval multiple the stream is bit-equal
                // to the solo run again.
                assert_eq!(out, solo_payloads[index], "frame {index}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn mismatched_frame_dimensions_panic() {
        let dims = Dimensions::new(64, 64);
        let mut batch = session(dims);
        let wrong = LinearFrame::filled(Dimensions::new(32, 32), pvc_color::LinearRgb::BLACK);
        let _ = encode(&mut batch, &wrong, GazePoint::center_of(dims));
    }

    #[test]
    fn empty_session_has_zero_hit_rate() {
        let stats = BatchCacheStats::default();
        assert_eq!(stats.hit_rate(), 0.0);
    }

    #[test]
    fn sessions_can_move_to_worker_threads() {
        // One session per stream on its own thread is the serving shape;
        // pin the Send bound so the cache never regresses to !Send.
        fn assert_send<T: Send>() {}
        assert_send::<BatchEncoder<SyntheticDiscriminationModel>>();

        let dims = Dimensions::new(32, 32);
        let mut moved = session(dims);
        let handle = std::thread::spawn(move || {
            let frame = LinearFrame::filled(dims, pvc_color::LinearRgb::BLACK);
            encode(&mut moved, &frame, GazePoint::center_of(dims))
                .1
                .adjustment
        });
        let stats = handle.join().expect("worker thread");
        assert_eq!(stats.total_tiles, 64);
    }
}
