//! The full-frame perceptual encoder.

use crate::adjust::{adjust_tile_with, AdjustScratch, AdjustmentCase};
use crate::config::EncoderConfig;
use crate::stats::AdjustmentStats;
use pvc_bdc::{
    BdConfig, BdEncodedFrame, BdEncoder, BitWriter, CompressionStats, TemporalFrameStats,
};
use pvc_color::{DiscriminationModel, LinearRgb, Srgb8};
use pvc_fovea::{DisplayGeometry, EccentricityMap, GazePoint};
use pvc_frame::{Dimensions, LinearFrame, SrgbFrame, SrgbTileLanes, TileGrid, TileRect};
use std::sync::OnceLock;
use std::time::Instant;

/// What one worker decided about one tile. Collected in tile order so the
/// fold below is deterministic regardless of the thread count.
enum TileOutcome {
    /// The tile overlaps the foveal bypass region and is copied through.
    Foveal,
    /// The tile was adjusted; carries the replacement pixels.
    Adjusted {
        tile: TileRect,
        pixels: Vec<LinearRgb>,
        case: AdjustmentCase,
    },
}

/// The color perception-aware frame encoder (Fig. 7 of the paper).
///
/// The encoder sits between the rendering pipeline (which produces linear
/// RGB pixels and, per prior work, per-pixel discrimination ellipsoids) and
/// the existing BD framebuffer compressor. It adjusts pixel colors inside
/// their discrimination ellipsoids so that the BD Δs become cheaper, then
/// hands the adjusted frame to an unmodified BD encoder. Decoding is
/// untouched.
#[derive(Debug, Clone)]
pub struct PerceptualEncoder<M> {
    model: M,
    config: EncoderConfig,
    /// The BD back-end, built once at construction rather than per frame.
    bd: BdEncoder,
}

impl<M: DiscriminationModel + Sync> PerceptualEncoder<M> {
    /// Creates an encoder from a discrimination model and a configuration.
    ///
    /// `config.threads` is normalized here, in one place: the public field
    /// permits 0 via a struct literal, which means
    /// sequential — the encoder never needs a thread-count guard again.
    pub fn new(model: M, mut config: EncoderConfig) -> Self {
        config.threads = config.threads.max(1);
        let bd =
            BdEncoder::new(BdConfig::with_tile_size(config.tile_size)).with_threads(config.threads);
        PerceptualEncoder { model, config, bd }
    }

    /// The encoder configuration.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// The discrimination model used to build per-pixel ellipsoids.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Adjusts the colors of a linear-RGB frame for a given display and gaze
    /// position, returning the adjusted frame and the per-tile statistics.
    ///
    /// Tiles overlapping the foveal bypass region are copied through
    /// unchanged; every other tile is adjusted along the configured axes and
    /// the cheaper result is kept.
    ///
    /// # Panics
    ///
    /// Panics if the frame and display dimensions differ.
    pub fn adjust_frame(
        &self,
        frame: &LinearFrame,
        display: &DisplayGeometry,
        gaze: GazePoint,
    ) -> (LinearFrame, AdjustmentStats) {
        assert_eq!(
            frame.dimensions(),
            display.dimensions(),
            "frame and display dimensions must match"
        );
        let grid = TileGrid::new(frame.dimensions(), self.config.tile_size);
        let eccentricity = EccentricityMap::per_tile(display, &grid, gaze, self.config.fovea);
        let mut adjusted = LinearFrame::filled(Dimensions::new(1, 1), LinearRgb::BLACK);
        let stats = self.adjust_frame_with_map_into(
            frame,
            &eccentricity,
            &mut AdjustScratch::new(),
            &mut adjusted,
        );
        (adjusted, stats)
    }

    /// Like [`Self::adjust_frame`], but reuses a prebuilt eccentricity map,
    /// writes the adjusted frame into a caller-provided buffer and runs the
    /// per-tile machinery out of a caller-provided [`AdjustScratch`] — the
    /// steady-state allocation-free form of the adjustment.
    ///
    /// The map only depends on the display geometry, tile grid, gaze and
    /// fovea configuration — not on pixel data — so a session encoding many
    /// frames at the same gaze (see [`crate::BatchEncoder`]) can build it
    /// once and amortise its cost across the stream.
    ///
    /// With `threads <= 1` every tile is adjusted in place through the
    /// scratch (no allocation once the buffers are warm); the parallel path
    /// gets one scratch per worker via
    /// [`pvc_parallel::parallel_chunk_map_init`] and only allocates the
    /// per-tile result pixels it has to send across threads. Tile outcomes
    /// are folded in tile order, so the result is bit-identical to the
    /// sequential path.
    ///
    /// # Panics
    ///
    /// Panics if the map's tile size or tile counts do not match this
    /// encoder's configuration and the frame's dimensions.
    pub fn adjust_frame_with_map_into(
        &self,
        frame: &LinearFrame,
        eccentricity: &EccentricityMap,
        scratch: &mut AdjustScratch,
        out: &mut LinearFrame,
    ) -> AdjustmentStats {
        let grid = TileGrid::new(frame.dimensions(), self.config.tile_size);
        assert_eq!(
            eccentricity.tile_size(),
            self.config.tile_size,
            "eccentricity map tile size must match the encoder configuration"
        );
        assert_eq!(
            (eccentricity.tiles_x(), eccentricity.tiles_y()),
            (grid.tiles_x(), grid.tiles_y()),
            "eccentricity map must cover the frame's tile grid"
        );
        out.clone_from(frame);
        let mut stats = AdjustmentStats {
            total_tiles: grid.tile_count(),
            ..Default::default()
        };

        if self.config.threads <= 1 {
            // Sequential: adjust straight through the caller's scratch and
            // write each winning tile into `out` — no per-tile allocation.
            for tile in grid.tiles() {
                if eccentricity.is_foveal_tile(tile) {
                    stats.foveal_tiles += 1;
                    continue;
                }
                let case = self.adjust_tile_into_scratch(frame, eccentricity, tile, scratch);
                stats.record_case(case);
                out.write_tile(tile, scratch.best());
            }
            return stats;
        }

        // Parallel: one scratch per worker; only the winning pixels of
        // each adjusted tile cross the thread boundary.
        let tiles: Vec<TileRect> = grid.tiles().collect();
        let outcomes = pvc_parallel::parallel_chunk_map_init(
            &tiles,
            self.config.threads,
            AdjustScratch::new,
            |worker_scratch, tile_batch| {
                tile_batch
                    .iter()
                    .map(|&tile| {
                        if eccentricity.is_foveal_tile(tile) {
                            return TileOutcome::Foveal;
                        }
                        let case = self.adjust_tile_into_scratch(
                            frame,
                            eccentricity,
                            tile,
                            worker_scratch,
                        );
                        TileOutcome::Adjusted {
                            tile,
                            case,
                            pixels: worker_scratch.best().to_vec(),
                        }
                    })
                    .collect()
            },
        );
        for outcome in outcomes {
            match outcome {
                TileOutcome::Foveal => stats.foveal_tiles += 1,
                TileOutcome::Adjusted { tile, pixels, case } => {
                    stats.record_case(case);
                    out.write_tile(tile, &pixels);
                }
            }
        }
        stats
    }

    /// Gathers one (non-foveal) tile into the scratch, builds its
    /// ellipsoids and adjusts it; the winning pixels land in
    /// `scratch.best()`.
    fn adjust_tile_into_scratch(
        &self,
        frame: &LinearFrame,
        eccentricity: &EccentricityMap,
        tile: TileRect,
        scratch: &mut AdjustScratch,
    ) -> AdjustmentCase {
        frame.tile_pixels_into(tile, &mut scratch.pixels);
        let ecc = eccentricity.tile_eccentricity(tile);
        self.model
            .ellipsoids_into(&scratch.pixels, ecc, &mut scratch.ellipsoids);
        adjust_tile_with(scratch, &self.config.axes).case
    }

    /// Runs the complete pipeline of Fig. 7: adjust colors, gamma-encode to
    /// sRGB and compress with the existing BD encoder. The result can also
    /// produce the BD encoding of the *unadjusted* frame on demand
    /// ([`PerceptualEncodeResult::baseline`]) so callers can compare against
    /// the state-of-the-art baseline directly; that second BD pass is
    /// evaluated lazily and costs nothing until asked for.
    ///
    /// # Panics
    ///
    /// Panics if the frame and display dimensions differ.
    pub fn encode_frame(
        &self,
        frame: &LinearFrame,
        display: &DisplayGeometry,
        gaze: GazePoint,
    ) -> PerceptualEncodeResult {
        let (adjusted_linear, stats) = self.adjust_frame(frame, display, gaze);
        let adjusted = adjusted_linear.to_srgb();
        PerceptualEncodeResult {
            original: frame.to_srgb(),
            encoded: self.bd.encode_frame(&adjusted),
            adjusted,
            baseline: OnceLock::new(),
            bd_threads: self.config.threads,
            stats,
        }
    }

    /// Stream-mode encode: adjust colors, gamma-encode and BD-compress the
    /// adjusted frame — and nothing else.
    ///
    /// A serving path never consumes the baseline BD encoding of the
    /// unadjusted frame (that exists to regenerate the paper's comparison
    /// figures), nor the gamma-encoded original. Skipping both halves the
    /// BD work per streamed frame. The `encoded` bitstream is bit-identical
    /// to [`Self::encode_frame`]'s on the same inputs.
    ///
    /// # Panics
    ///
    /// Panics if the frame and display dimensions differ.
    pub fn encode_frame_stream(
        &self,
        frame: &LinearFrame,
        display: &DisplayGeometry,
        gaze: GazePoint,
    ) -> StreamEncodeResult {
        let (adjusted_linear, stats) = self.adjust_frame(frame, display, gaze);
        let adjusted = adjusted_linear.to_srgb();
        StreamEncodeResult {
            encoded: self.bd.encode_frame(&adjusted),
            adjusted,
            stats,
        }
    }

    /// Stream-mode encode through caller-provided scratch and a prebuilt
    /// eccentricity map: adjusts the frame, gamma-encodes it and packs the
    /// BD bitstream straight into `out` — bit-identical to
    /// [`Self::encode_frame_stream`]'s `encoded.to_bitstream()` — returning
    /// only the per-frame statistics.
    ///
    /// Every intermediate (adjusted frame, sRGB frame, tile buffers, bit
    /// packing) lives in `scratch`, so once the buffers are warm a
    /// sequential encoder performs **zero** steady-state allocation per
    /// frame. This is the per-frame hot path of a streaming session
    /// (`pvc_stream` shard workers call it through
    /// `BatchEncoder::encode_frame_stream_into`).
    ///
    /// # Panics
    ///
    /// Panics if the map does not match the frame and encoder configuration.
    pub fn encode_frame_stream_with_map_into(
        &self,
        frame: &LinearFrame,
        eccentricity: &EccentricityMap,
        scratch: &mut StreamScratch,
        out: &mut Vec<u8>,
    ) -> StreamFrameStats {
        self.encode_stream_into(frame, eccentricity, None, scratch, out)
    }

    /// Temporal stream-mode encode: adjust, gamma-encode and emit either
    /// an intra keyframe (the exact bitstream of
    /// [`Self::encode_frame_stream_with_map_into`]) or a predicted frame
    /// of per-tile Skip / Delta / Intra records against `history`.
    ///
    /// A frame is a keyframe when its absolute `frame_index` is a multiple
    /// of `TemporalConfig::keyframe_interval`, when `history` is invalid
    /// (fresh encoder, or an explicit reset at a handoff boundary) or when
    /// the frame size changed. `history` is updated to this frame's
    /// adjusted pixels on return, so feeding consecutive frame indices
    /// reproduces exactly the stream a decoder can follow.
    ///
    /// Temporal packing is sequential regardless of
    /// `EncoderConfig::threads`: keyframes already serialize identically
    /// across thread counts and predicted frames are packed on one thread,
    /// so the emitted bytes are thread-invariant.
    ///
    /// # Panics
    ///
    /// Panics if the map does not match the frame and encoder configuration.
    pub fn encode_frame_stream_temporal_into(
        &self,
        frame: &LinearFrame,
        eccentricity: &EccentricityMap,
        history: &mut TemporalHistory,
        frame_index: u32,
        scratch: &mut StreamScratch,
        out: &mut Vec<u8>,
    ) -> StreamFrameStats {
        self.encode_stream_into(
            frame,
            eccentricity,
            Some((history, frame_index)),
            scratch,
            out,
        )
    }

    /// The scratch stream-encode core: adjust → gamma → intra or temporal
    /// BD pack → copy-out, with the sub-stage timing recorded on the
    /// scratch. `temporal` is `None` for intra-only coding; otherwise it
    /// carries the session's GOP state and the absolute frame index that
    /// drives the keyframe schedule.
    fn encode_stream_into(
        &self,
        frame: &LinearFrame,
        eccentricity: &EccentricityMap,
        temporal: Option<(&mut TemporalHistory, u32)>,
        scratch: &mut StreamScratch,
        out: &mut Vec<u8>,
    ) -> StreamFrameStats {
        let started = Instant::now();
        let adjustment = self.adjust_frame_with_map_into(
            frame,
            eccentricity,
            &mut scratch.adjust,
            &mut scratch.adjusted,
        );
        let after_adjust = Instant::now();
        scratch.adjusted.to_srgb_into(&mut scratch.srgb);
        let after_gamma = Instant::now();
        let interval = self.config.temporal.keyframe_interval.max(1);
        let reference = temporal.as_ref().and_then(|(history, frame_index)| {
            let predicted = frame_index % interval != 0
                && history.valid
                && history.prev.dimensions() == scratch.srgb.dimensions();
            predicted.then_some(&history.prev)
        });
        let (temporal_stats, compression) = match reference {
            None => {
                let compression = self.bd.encode_frame_into(
                    &scratch.srgb,
                    &mut scratch.writer,
                    &mut scratch.gather,
                );
                let bits = scratch.writer.bits_written();
                (
                    intra_frame_stats(adjustment.total_tiles as u64, bits),
                    compression,
                )
            }
            Some(prev) => pvc_bdc::encode_temporal_frame_into(
                self.config.tile_size,
                &scratch.srgb,
                prev,
                &mut scratch.writer,
                &mut scratch.gather,
                &mut scratch.reference_gather,
            ),
        };
        if let Some((history, _)) = temporal {
            history.prev.clone_from(&scratch.srgb);
            history.valid = true;
        }
        out.clear();
        out.extend_from_slice(scratch.writer.as_bytes());
        // Reading the clock is a vDSO call, not an allocation, so the
        // sub-stage timing rides along without disturbing the zero-alloc
        // pin on this path.
        scratch.timing = StageNanos {
            adjust: after_adjust.duration_since(started).as_nanos() as u64,
            gamma: after_gamma.duration_since(after_adjust).as_nanos() as u64,
            bd_encode: after_gamma.elapsed().as_nanos() as u64,
        };
        StreamFrameStats {
            adjustment,
            compression,
            temporal: temporal_stats,
        }
    }
}

/// Reusable per-session state for the scratch stream-encode path
/// ([`PerceptualEncoder::encode_frame_stream_with_map_into`] /
/// `BatchEncoder::encode_frame_stream_into`): the tile adjustment
/// buffers, the adjusted frame in both color spaces, the BD tile gather
/// buffer and the bitstream writer.
///
/// Buffers grow to the session's frame size on the first frame and are
/// reused verbatim afterwards, so session lifetime — not frame count —
/// bounds the allocations. One scratch may serve sessions of different
/// frame sizes back to back (a shard worker does exactly that); buffers
/// simply warm up to the largest size seen.
#[derive(Debug, Clone)]
pub struct StreamScratch {
    adjust: AdjustScratch,
    adjusted: LinearFrame,
    srgb: SrgbFrame,
    writer: BitWriter,
    gather: SrgbTileLanes,
    /// Reference-tile gather lanes for temporal encodes. Pure scratch —
    /// the bit-relevant previous frame lives in [`TemporalHistory`], so a
    /// shard worker can keep sharing one scratch across all its sessions.
    reference_gather: SrgbTileLanes,
    timing: StageNanos,
}

impl Default for StreamScratch {
    fn default() -> Self {
        StreamScratch {
            adjust: AdjustScratch::new(),
            // Placeholder frames; the first encode resizes them.
            adjusted: LinearFrame::filled(Dimensions::new(1, 1), LinearRgb::BLACK),
            srgb: SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default()),
            writer: BitWriter::new(),
            gather: SrgbTileLanes::new(),
            reference_gather: SrgbTileLanes::new(),
            timing: StageNanos::default(),
        }
    }
}

impl StreamScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        StreamScratch::default()
    }

    /// Wall-clock breakdown of the most recent stream-encode through this
    /// scratch (all zeros before the first encode). Lives on the scratch
    /// rather than in [`StreamFrameStats`] so the stats stay a pure
    /// function of the pixels — tests compare them across runs.
    pub fn last_timing(&self) -> StageNanos {
        self.timing
    }
}

/// Wall-clock nanoseconds spent in each sub-stage of one scratch
/// stream-encode: the per-frame breakdown a tracing worker turns into
/// adjust / gamma / BD-encode spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageNanos {
    /// Eccentricity-guided tile adjustment.
    pub adjust: u64,
    /// Linear → sRGB gamma conversion.
    pub gamma: u64,
    /// BD entropy encode plus the copy into the caller's output buffer.
    pub bd_encode: u64,
}

/// Per-frame telemetry of the scratch stream-encode path: everything a
/// serving pipeline records about a frame, with the payload bytes
/// delivered separately through the caller's output buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamFrameStats {
    /// Per-tile adjustment statistics (the paper's case distribution).
    pub adjustment: AdjustmentStats,
    /// Compression statistics of the emitted BD bitstream.
    pub compression: CompressionStats,
    /// Temporal coding statistics. Intra-only encodes report a keyframe
    /// whose `bits == intra_bits`, so accumulating this field is always
    /// meaningful regardless of the temporal configuration.
    pub temporal: TemporalFrameStats,
}

/// Builds the [`TemporalFrameStats`] of an intra (key) frame: every tile
/// is an intra record and the temporal mode saves nothing.
fn intra_frame_stats(tiles: u64, bits: u64) -> TemporalFrameStats {
    TemporalFrameStats {
        keyframe: true,
        intra_tiles: tiles,
        bits,
        intra_bits: bits,
        ..TemporalFrameStats::default()
    }
}

/// The encoder side of a temporal session's GOP state: the previous
/// adjusted frame that the next predicted frame encodes against.
///
/// Owned per *session* (each [`crate::BatchEncoder`] embeds one), never
/// shared through [`StreamScratch`]: the previous frame is bit-relevant
/// state, while the scratch is explicitly documented as shareable across
/// sessions on a shard. [`Self::reset`] drops the reference, forcing the
/// next frame to be an intra keyframe — the handoff-boundary refresh the
/// migration/shed determinism pins rely on.
#[derive(Debug, Clone)]
pub struct TemporalHistory {
    prev: SrgbFrame,
    valid: bool,
}

impl Default for TemporalHistory {
    fn default() -> Self {
        TemporalHistory::new()
    }
}

impl TemporalHistory {
    /// Creates an empty (invalid) history: the first encode through it is
    /// forced to a keyframe.
    pub fn new() -> Self {
        TemporalHistory {
            prev: SrgbFrame::filled(Dimensions::new(1, 1), Srgb8::default()),
            valid: false,
        }
    }

    /// Drops the reference frame, forcing the next frame to be an intra
    /// keyframe.
    pub fn reset(&mut self) {
        self.valid = false;
    }
}

/// Everything produced by one invocation of the perceptual encoder.
///
/// The BD encoding of the *unadjusted* frame (the paper's "BD" baseline) is
/// computed lazily on first access through [`Self::baseline`] /
/// [`Self::bd_stats`]; callers that never compare against the baseline —
/// streaming sessions, ablations over our own numbers — no longer pay a
/// second BD pass per frame.
#[derive(Debug, Clone)]
pub struct PerceptualEncodeResult {
    /// The unadjusted frame, gamma-encoded (what BD alone would compress).
    pub original: SrgbFrame,
    /// The perceptually adjusted frame, gamma-encoded.
    pub adjusted: SrgbFrame,
    /// BD encoding of the adjusted frame — "ours" in the paper's figures.
    pub encoded: BdEncodedFrame,
    /// Lazily computed BD encoding of `original` — the "BD" baseline.
    baseline: OnceLock<BdEncodedFrame>,
    /// Thread count the baseline encode should use, mirroring the encoder.
    bd_threads: usize,
    /// Per-tile adjustment statistics.
    pub stats: AdjustmentStats,
}

/// Equality ignores whether the lazy baseline has been materialized: two
/// results from the same inputs are equal regardless of which accessors
/// have been called on them.
impl PartialEq for PerceptualEncodeResult {
    fn eq(&self, other: &Self) -> bool {
        self.original == other.original
            && self.adjusted == other.adjusted
            && self.encoded == other.encoded
            && self.stats == other.stats
    }
}

impl Eq for PerceptualEncodeResult {}

impl PerceptualEncodeResult {
    /// BD encoding of the original frame — the "BD" baseline the paper's
    /// figures compare against.
    ///
    /// Computed on first access (one extra BD pass, using the same tile
    /// size and thread count as the perceptual encoding) and cached for the
    /// lifetime of the result.
    pub fn baseline(&self) -> &BdEncodedFrame {
        self.baseline.get_or_init(|| {
            BdEncoder::new(BdConfig::with_tile_size(self.encoded.tile_size()))
                .with_threads(self.bd_threads)
                .encode_frame(&self.original)
        })
    }

    /// Compression statistics of the perceptual encoding.
    pub fn our_stats(&self) -> CompressionStats {
        self.encoded.stats()
    }

    /// Compression statistics of the plain BD baseline (materializes the
    /// lazy baseline encoding on first call).
    pub fn bd_stats(&self) -> CompressionStats {
        self.baseline().stats()
    }

    /// Traffic reduction of the perceptual encoding over plain BD, percent.
    pub fn reduction_over_bd_percent(&self) -> f64 {
        self.our_stats().reduction_over(&self.bd_stats())
    }

    /// Traffic reduction of the perceptual encoding over uncompressed
    /// frames, percent (the main number of Fig. 10).
    pub fn reduction_over_uncompressed_percent(&self) -> f64 {
        self.our_stats().bandwidth_reduction_percent()
    }
}

/// The output of the stream-mode encode path: only what a serving pipeline
/// ships — the adjusted frame and its BD bitstream — with no baseline
/// comparison material at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamEncodeResult {
    /// The perceptually adjusted frame, gamma-encoded.
    pub adjusted: SrgbFrame,
    /// BD encoding of the adjusted frame — the bits that go on the wire.
    pub encoded: BdEncodedFrame,
    /// Per-tile adjustment statistics.
    pub stats: AdjustmentStats,
}

impl StreamEncodeResult {
    /// Compression statistics of the perceptual encoding.
    pub fn our_stats(&self) -> CompressionStats {
        self.encoded.stats()
    }

    /// Traffic reduction over uncompressed frames, percent.
    pub fn reduction_over_uncompressed_percent(&self) -> f64 {
        self.our_stats().bandwidth_reduction_percent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_color::{DiscriminationModel, SyntheticDiscriminationModel};
    use pvc_fovea::FoveaConfig;
    use pvc_frame::Dimensions;
    use pvc_scenes::{SceneConfig, SceneId, SceneRenderer};

    fn test_frame(scene: SceneId) -> LinearFrame {
        SceneRenderer::new(scene, SceneConfig::new(Dimensions::new(128, 96))).render_linear(0)
    }

    fn encoder() -> PerceptualEncoder<SyntheticDiscriminationModel> {
        PerceptualEncoder::new(
            SyntheticDiscriminationModel::default(),
            EncoderConfig::default(),
        )
    }

    #[test]
    fn adjusted_frame_beats_bd_on_every_scene() {
        for scene in SceneId::ALL {
            let frame = test_frame(scene);
            let display = DisplayGeometry::quest2_like(frame.dimensions());
            let gaze = GazePoint::center_of(frame.dimensions());
            let result = encoder().encode_frame(&frame, &display, gaze);
            assert!(
                result.reduction_over_bd_percent() > 0.0,
                "{scene}: ours must not be larger than BD"
            );
            assert!(
                result.reduction_over_uncompressed_percent()
                    > result.bd_stats().bandwidth_reduction_percent(),
                "{scene}: ours must beat BD vs uncompressed too"
            );
        }
    }

    #[test]
    fn adjustment_respects_perceptual_constraints() {
        // Every adjusted pixel must stay within the discrimination ellipsoid
        // of its original color at that tile's eccentricity.
        let frame = test_frame(SceneId::Office);
        let display = DisplayGeometry::quest2_like(frame.dimensions());
        let gaze = GazePoint::center_of(frame.dimensions());
        let enc = encoder();
        let (adjusted, _) = enc.adjust_frame(&frame, &display, gaze);
        let grid = TileGrid::new(frame.dimensions(), enc.config().tile_size);
        let map = EccentricityMap::per_tile(&display, &grid, gaze, enc.config().fovea);
        let model = SyntheticDiscriminationModel::default();
        for tile in grid.tiles() {
            let ecc = map.tile_eccentricity(tile);
            for (orig, adj) in frame
                .tile_pixels(tile)
                .iter()
                .zip(adjusted.tile_pixels(tile))
            {
                let ellipsoid = model.ellipsoid(*orig, ecc);
                assert!(
                    ellipsoid.contains_rgb(adj, 1e-6),
                    "adjusted pixel escaped its ellipsoid"
                );
            }
        }
    }

    #[test]
    fn foveal_tiles_are_bit_exact() {
        let frame = test_frame(SceneId::Thai);
        let display = DisplayGeometry::quest2_like(frame.dimensions());
        let gaze = GazePoint::center_of(frame.dimensions());
        let enc = encoder();
        let (adjusted, stats) = enc.adjust_frame(&frame, &display, gaze);
        assert!(
            stats.foveal_tiles > 0,
            "a centrally-fixated frame must have foveal tiles"
        );
        let grid = TileGrid::new(frame.dimensions(), enc.config().tile_size);
        let map = EccentricityMap::per_tile(&display, &grid, gaze, enc.config().fovea);
        for tile in grid.tiles() {
            if map.is_foveal_tile(tile) {
                assert_eq!(frame.tile_pixels(tile), adjusted.tile_pixels(tile));
            }
        }
    }

    #[test]
    fn decoding_reconstructs_the_adjusted_frame_exactly() {
        // Our scheme is numerically lossy w.r.t. the original frame but the
        // BD stage stays lossless: decode(encode(adjusted)) == adjusted.
        let frame = test_frame(SceneId::Skyline);
        let display = DisplayGeometry::quest2_like(frame.dimensions());
        let gaze = GazePoint::center_of(frame.dimensions());
        let result = encoder().encode_frame(&frame, &display, gaze);
        assert_eq!(result.encoded.decode(), result.adjusted);
        assert_eq!(result.baseline().decode(), result.original);
        assert_ne!(
            result.adjusted, result.original,
            "adjustment must change peripheral pixels"
        );
    }

    #[test]
    fn statistics_account_for_every_tile() {
        let frame = test_frame(SceneId::Fortnite);
        let display = DisplayGeometry::quest2_like(frame.dimensions());
        let gaze = GazePoint::center_of(frame.dimensions());
        let result = encoder().encode_frame(&frame, &display, gaze);
        let s = result.stats;
        assert_eq!(s.total_tiles, s.foveal_tiles + s.adjusted_tiles());
        assert!(s.case2_tiles > 0, "smooth scenes should exercise case 2");
    }

    #[test]
    fn zero_threads_field_encodes_sequentially_without_panicking() {
        // The public field permits 0 via a struct literal, bypassing the
        // with_threads assert; the encode path must treat it as sequential.
        let frame = test_frame(SceneId::Office);
        let display = DisplayGeometry::quest2_like(frame.dimensions());
        let gaze = GazePoint::center_of(frame.dimensions());
        let zero = PerceptualEncoder::new(
            SyntheticDiscriminationModel::default(),
            EncoderConfig {
                threads: 0,
                ..EncoderConfig::default()
            },
        );
        let result = zero.encode_frame(&frame, &display, gaze);
        assert_eq!(
            result.encoded,
            encoder().encode_frame(&frame, &display, gaze).encoded
        );
    }

    #[test]
    fn multithreaded_encoding_matches_sequential() {
        let frame = test_frame(SceneId::Monkey);
        let display = DisplayGeometry::quest2_like(frame.dimensions());
        let gaze = GazePoint::center_of(frame.dimensions());
        let sequential = PerceptualEncoder::new(
            SyntheticDiscriminationModel::default(),
            EncoderConfig::default().with_threads(1),
        )
        .encode_frame(&frame, &display, gaze);
        let parallel = PerceptualEncoder::new(
            SyntheticDiscriminationModel::default(),
            EncoderConfig::default().with_threads(4),
        )
        .encode_frame(&frame, &display, gaze);
        assert_eq!(sequential.adjusted, parallel.adjusted);
        assert_eq!(sequential.stats, parallel.stats);
    }

    #[test]
    fn stream_mode_matches_the_full_encode_bit_for_bit() {
        for scene in [SceneId::Office, SceneId::Dumbo] {
            let frame = test_frame(scene);
            let display = DisplayGeometry::quest2_like(frame.dimensions());
            let gaze = GazePoint::new(40.0, 30.0);
            let enc = encoder();
            let full = enc.encode_frame(&frame, &display, gaze);
            let stream = enc.encode_frame_stream(&frame, &display, gaze);
            assert_eq!(stream.encoded, full.encoded);
            assert_eq!(stream.adjusted, full.adjusted);
            assert_eq!(stream.stats, full.stats);
            assert_eq!(
                stream.our_stats().compressed_bits,
                full.our_stats().compressed_bits
            );
        }
    }

    #[test]
    fn scratch_stream_encode_is_bit_identical_to_the_allocating_path() {
        let mut scratch = StreamScratch::new();
        let mut bitstream = Vec::new();
        // One scratch across scenes and gazes, arriving dirty each time.
        for (scene, gaze) in [
            (SceneId::Office, GazePoint::new(40.0, 30.0)),
            (SceneId::Skyline, GazePoint::new(-5.0, 200.0)),
            (SceneId::Dumbo, GazePoint::new(64.0, 48.0)),
        ] {
            let frame = test_frame(scene);
            let display = DisplayGeometry::quest2_like(frame.dimensions());
            let enc = encoder();
            let expected = enc.encode_frame_stream(&frame, &display, gaze);
            let grid = TileGrid::new(frame.dimensions(), enc.config().tile_size);
            let map = EccentricityMap::per_tile(&display, &grid, gaze, enc.config().fovea);
            let stats =
                enc.encode_frame_stream_with_map_into(&frame, &map, &mut scratch, &mut bitstream);
            assert_eq!(bitstream, expected.encoded.to_bitstream());
            assert_eq!(stats.adjustment, expected.stats);
            assert_eq!(stats.compression, expected.our_stats());
        }
    }

    #[test]
    fn scratch_stream_encode_matches_across_thread_counts() {
        let frame = test_frame(SceneId::Monkey);
        let display = DisplayGeometry::quest2_like(frame.dimensions());
        let gaze = GazePoint::center_of(frame.dimensions());
        let mut reference = Vec::new();
        let mut parallel = Vec::new();
        for (threads, out) in [(1usize, &mut reference), (4, &mut parallel)] {
            let enc = PerceptualEncoder::new(
                SyntheticDiscriminationModel::default(),
                EncoderConfig::default().with_threads(threads),
            );
            let grid = TileGrid::new(frame.dimensions(), enc.config().tile_size);
            let map = EccentricityMap::per_tile(&display, &grid, gaze, enc.config().fovea);
            let mut scratch = StreamScratch::new();
            enc.encode_frame_stream_with_map_into(&frame, &map, &mut scratch, out);
        }
        assert_eq!(reference, parallel);
    }

    #[test]
    fn lazy_baseline_matches_an_eager_bd_pass() {
        let frame = test_frame(SceneId::Skyline);
        let display = DisplayGeometry::quest2_like(frame.dimensions());
        let gaze = GazePoint::center_of(frame.dimensions());
        let enc = encoder();
        let result = enc.encode_frame(&frame, &display, gaze);
        let eager = BdEncoder::new(BdConfig::with_tile_size(enc.config().tile_size))
            .encode_frame(&frame.to_srgb());
        // First access materializes; second reuses the same encoding.
        assert_eq!(*result.baseline(), eager);
        assert_eq!(result.bd_stats(), eager.stats());
        assert!(std::ptr::eq(result.baseline(), result.baseline()));
    }

    #[test]
    fn equality_ignores_baseline_materialization_state() {
        let frame = test_frame(SceneId::Thai);
        let display = DisplayGeometry::quest2_like(frame.dimensions());
        let gaze = GazePoint::center_of(frame.dimensions());
        let enc = encoder();
        let touched = enc.encode_frame(&frame, &display, gaze);
        let untouched = enc.encode_frame(&frame, &display, gaze);
        let _ = touched.bd_stats();
        assert_eq!(touched, untouched);
    }

    #[test]
    fn disabling_the_fovea_adjusts_every_tile() {
        let frame = test_frame(SceneId::Office);
        let display = DisplayGeometry::quest2_like(frame.dimensions());
        let gaze = GazePoint::center_of(frame.dimensions());
        let enc = PerceptualEncoder::new(
            SyntheticDiscriminationModel::default(),
            EncoderConfig::default().with_fovea(FoveaConfig::disabled()),
        );
        let (_, stats) = enc.adjust_frame(&frame, &display, gaze);
        assert_eq!(stats.foveal_tiles, 0);
        assert_eq!(stats.adjusted_tiles(), stats.total_tiles);
    }

    #[test]
    fn off_center_gaze_shifts_the_protected_region() {
        let frame = test_frame(SceneId::Office);
        let display = DisplayGeometry::quest2_like(frame.dimensions());
        let corner_gaze = GazePoint::new(8.0, 8.0);
        let enc = encoder();
        let (adjusted, _) = enc.adjust_frame(&frame, &display, corner_gaze);
        // The corner tile is now foveal and must be untouched...
        let grid = TileGrid::new(frame.dimensions(), enc.config().tile_size);
        let corner = grid.tile(0, 0);
        assert_eq!(frame.tile_pixels(corner), adjusted.tile_pixels(corner));
        // ... while the frame as a whole still changed.
        assert_ne!(frame.to_srgb(), adjusted.to_srgb());
    }

    #[test]
    fn peripheral_gain_exceeds_foveal_gain() {
        // A model with larger thresholds in the periphery should let tiles
        // far from the gaze compress better than the same content near the
        // gaze. Use a uniform-gradient frame so content is comparable.
        let dims = Dimensions::new(160, 96);
        let mut frame = LinearFrame::filled(dims, LinearRgb::BLACK);
        for y in 0..dims.height {
            for x in 0..dims.width {
                let t = f64::from(x) / f64::from(dims.width);
                let s = f64::from(y) / f64::from(dims.height);
                frame.set_pixel(
                    x,
                    y,
                    LinearRgb::new(0.3 + 0.05 * t, 0.4 + 0.04 * s, 0.35 + 0.06 * t),
                );
            }
        }
        let display = DisplayGeometry::quest2_like(dims);
        let enc = encoder();
        let center = enc.encode_frame(&frame, &display, GazePoint::center_of(dims));
        let off_screen_gaze = GazePoint::new(-2000.0, -2000.0);
        let all_peripheral = enc.encode_frame(&frame, &display, off_screen_gaze);
        assert!(
            all_peripheral.our_stats().compressed_bits <= center.our_stats().compressed_bits,
            "fully peripheral frame should compress at least as well"
        );
    }
}
