//! Single-thread replay of a roster's sessions through each layer's
//! public entry point, one frame at a time, from render start to the
//! frame decoded on the client side.
//!
//! The replay composes the serving hot path itself — render, eccentricity
//! map (rebuilt only when the gaze moves), adjust, gamma, BD or temporal
//! encode, wire framing, wire parse and decode — so each call can be
//! timed on its own. With a [`SpanLog`] every call becomes a span kept in
//! memory; without one only the frame's start and end are read.
//!
//! The first round also checks every frame, outside the frame's timed
//! span: the composed bitstream must equal the library's own stream
//! encode on the same input, and the decoded frame must equal the encoded
//! sRGB frame. The caller interleaves rounds with its other phases.

use crate::Tally;
use pvc_bdc::{BdConfig, BdDecoder, BdEncoder, BitWriter};
use pvc_color::SyntheticDiscriminationModel;
use pvc_core::{AdjustScratch, PerceptualEncoder, StreamScratch, TemporalHistory};
use pvc_fovea::{DisplayGeometry, EccentricityMap, GazePoint};
use pvc_frame::{Dimensions, LinearFrame, SrgbFrame, SrgbTileLanes, TileGrid};
use pvc_scenes::{SceneConfig, SceneRenderer};
use pvc_stream::{wire, GazeTrace, ServiceConfig, SessionConfig, WireReader, WireRecord};
use std::time::{Duration, Instant};

/// Salt of the replay's own gaze traces (drawn from each session's seed
/// with the session's gaze model).
const REPLAY_GAZE_SALT: u64 = 0x00BE_4C47_A2E5_EED5;

/// A layer call the replay times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `SceneRenderer::render_linear_into` (the load generator).
    Render,
    /// `EccentricityMap::per_tile`, only when the gaze moved.
    Map,
    /// `PerceptualEncoder::adjust_frame_with_map_into`.
    Adjust,
    /// `LinearFrame::to_srgb_into`.
    Gamma,
    /// `BdEncoder::encode_frame_into` or `encode_temporal_frame_into`.
    BdEncode,
    /// `wire::write_frame`.
    WireEmit,
    /// `WireReader::next_record` plus `BdDecoder::decode_frame_into`.
    Decode,
}

impl Layer {
    /// Every layer, in call order.
    pub const ALL: [Layer; 7] = [
        Layer::Render,
        Layer::Map,
        Layer::Adjust,
        Layer::Gamma,
        Layer::BdEncode,
        Layer::WireEmit,
        Layer::Decode,
    ];

    /// Printable name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Render => "render",
            Layer::Map => "map",
            Layer::Adjust => "adjust",
            Layer::Gamma => "gamma",
            Layer::BdEncode => "bd_encode",
            Layer::WireEmit => "wire_emit",
            Layer::Decode => "decode",
        }
    }
}

/// One timed layer call; its parent is the frame span with the same
/// `frame` serial.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Serial of the frame (unique across sessions and rounds).
    pub frame: u32,
    /// The layer called.
    pub layer: Layer,
    /// Nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the log's epoch.
    pub end_ns: u64,
}

/// One replayed frame: the parent span of its layer calls.
#[derive(Debug, Clone, Copy)]
pub struct FrameSpan {
    /// Serial of the frame.
    pub frame: u32,
    /// Nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the log's epoch.
    pub end_ns: u64,
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    /// Layer spans, in recording order.
    pub spans: Vec<Span>,
    /// Frame spans, in recording order.
    pub frames: Vec<FrameSpan>,
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            frames: Vec::new(),
        }
    }
}

impl SpanLog {
    fn reserve(&mut self, frames: usize) {
        self.spans.reserve(frames * Layer::ALL.len());
        self.frames.reserve(frames);
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Durations of every span of `layer`, in milliseconds.
    pub fn layer_ms(&self, layer: Layer) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.layer == layer)
            .map(|span| (span.end_ns - span.start_ns) as f64 / 1e6)
            .collect()
    }
}

/// Closes the span of `layer` that began at `*mark` and starts the next
/// one now. Does nothing without a log.
fn lap(log: &mut Option<&mut SpanLog>, frame: u32, layer: Layer, mark: &mut Instant) {
    if let Some(log) = log.as_deref_mut() {
        let now = Instant::now();
        let span = Span {
            frame,
            layer,
            start_ns: log.nanos(*mark),
            end_ns: log.nanos(now),
        };
        log.spans.push(span);
        *mark = now;
    }
}

/// Counts of one replay round (every session's frames once).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoundCounts {
    /// Frames replayed.
    pub frames: u64,
    /// Pixels replayed.
    pub pixels: u64,
    /// Eccentricity maps built.
    pub map_builds: u64,
    /// Adjusted tiles in case 1 (no common plane).
    pub case1_tiles: u64,
    /// Adjusted tiles in case 2 (common plane).
    pub case2_tiles: u64,
    /// Tiles skipped as foveal.
    pub foveal_tiles: u64,
    /// Tiles the adjustment left as they were (foveal included).
    pub unadjusted_tiles: u64,
    /// Temporal skip records.
    pub skip_tiles: u64,
    /// Temporal delta records.
    pub delta_tiles: u64,
    /// Intra tile records (all tiles of a keyframe included).
    pub intra_tiles: u64,
    /// Emitted payload bits.
    pub bits: u64,
    /// Bits the frames would have cost as intra frames.
    pub intra_bits: u64,
    /// Wire bytes framed.
    pub wire_bytes: u64,
}

/// One session's replay state: renderer, gaze, encoder pieces, wire
/// buffer and decoder, plus the library path used to check each frame.
struct ReplaySession {
    index: u32,
    frames: u32,
    pixels: u32,
    renderer: SceneRenderer,
    gaze: GazeTrace,
    encoder: PerceptualEncoder<SyntheticDiscriminationModel>,
    bd: BdEncoder,
    display: DisplayGeometry,
    grid: TileGrid,
    keyframe_interval: Option<u32>,
    map: Option<(GazePoint, EccentricityMap)>,
    linear: LinearFrame,
    adjust_scratch: AdjustScratch,
    adjusted: LinearFrame,
    srgb: SrgbFrame,
    prev: SrgbFrame,
    prev_valid: bool,
    writer: BitWriter,
    gather: SrgbTileLanes,
    reference_gather: SrgbTileLanes,
    wire: Vec<u8>,
    decoder: BdDecoder,
    decoded: SrgbFrame,
    check_scratch: StreamScratch,
    check_history: TemporalHistory,
    check_out: Vec<u8>,
}

fn placeholder_linear() -> LinearFrame {
    LinearFrame::filled(Dimensions::new(1, 1), Default::default())
}

fn placeholder_srgb() -> SrgbFrame {
    SrgbFrame::filled(Dimensions::new(1, 1), Default::default())
}

impl ReplaySession {
    fn new(index: usize, config: &SessionConfig, service: &ServiceConfig) -> ReplaySession {
        let dims = config.dimensions();
        let mut encoder_config = service.encoder.clone();
        if let Some(tile_size) = config.profile.tile_size {
            encoder_config = encoder_config.with_tile_size(tile_size);
        }
        let tile_size = encoder_config.tile_size;
        let threads = encoder_config.threads;
        let temporal = encoder_config.temporal;
        ReplaySession {
            index: index as u32,
            frames: config.frames(),
            pixels: dims.pixel_count() as u32,
            renderer: SceneRenderer::new(
                config.scene,
                SceneConfig::new(dims).with_seed(config.seed),
            ),
            gaze: GazeTrace::synthesize(
                &config.gaze_model(),
                dims,
                config.seed ^ REPLAY_GAZE_SALT,
                config.frames() as usize,
            ),
            encoder: PerceptualEncoder::new(
                SyntheticDiscriminationModel::default(),
                encoder_config,
            ),
            bd: BdEncoder::new(BdConfig::with_tile_size(tile_size)).with_threads(threads),
            display: DisplayGeometry::quest2_like(dims),
            grid: TileGrid::new(dims, tile_size),
            keyframe_interval: temporal.enabled.then(|| temporal.keyframe_interval.max(1)),
            map: None,
            linear: placeholder_linear(),
            adjust_scratch: AdjustScratch::new(),
            adjusted: placeholder_linear(),
            srgb: placeholder_srgb(),
            prev: placeholder_srgb(),
            prev_valid: false,
            writer: BitWriter::new(),
            gather: SrgbTileLanes::new(),
            reference_gather: SrgbTileLanes::new(),
            wire: Vec::new(),
            decoder: BdDecoder::new(),
            decoded: placeholder_srgb(),
            check_scratch: StreamScratch::new(),
            check_history: TemporalHistory::new(),
            check_out: Vec::new(),
        }
    }

    /// Forgets the stream state (map, reference frames) and keeps the
    /// warm buffers, so the next round replays the same stream.
    fn restart(&mut self) {
        self.map = None;
        self.prev_valid = false;
        self.decoder.invalidate_reference();
        self.check_history.reset();
    }

    /// Replays frame `t` and returns its wall time from render start to
    /// decode end.
    fn step(
        &mut self,
        t: u32,
        serial: u32,
        mut log: Option<&mut SpanLog>,
        verify: bool,
        counts: &mut RoundCounts,
        tally: &mut Tally,
    ) -> Duration {
        let start = Instant::now();
        let mut mark = start;
        self.renderer.render_linear_into(t, &mut self.linear);
        lap(&mut log, serial, Layer::Render, &mut mark);

        let gaze = self.gaze.samples()[t as usize];
        let moved = match &self.map {
            Some((last, _)) => {
                last.x.to_bits() != gaze.x.to_bits() || last.y.to_bits() != gaze.y.to_bits()
            }
            None => true,
        };
        if moved {
            let map = EccentricityMap::per_tile(
                &self.display,
                &self.grid,
                gaze,
                self.encoder.config().fovea,
            );
            self.map = Some((gaze, map));
            counts.map_builds += 1;
            lap(&mut log, serial, Layer::Map, &mut mark);
        }
        let (_, map) = self.map.as_ref().expect("built above");

        let adjustment = self.encoder.adjust_frame_with_map_into(
            &self.linear,
            map,
            &mut self.adjust_scratch,
            &mut self.adjusted,
        );
        lap(&mut log, serial, Layer::Adjust, &mut mark);

        self.adjusted.to_srgb_into(&mut self.srgb);
        lap(&mut log, serial, Layer::Gamma, &mut mark);

        let keyframe = match self.keyframe_interval {
            None => true,
            Some(interval) => {
                t % interval == 0
                    || !self.prev_valid
                    || self.prev.dimensions() != self.srgb.dimensions()
            }
        };
        let (skip, delta, intra, intra_bits) = if keyframe {
            self.bd
                .encode_frame_into(&self.srgb, &mut self.writer, &mut self.gather);
            let tiles = u64::from(self.grid.tiles_x()) * u64::from(self.grid.tiles_y());
            (0, 0, tiles, self.writer.bits_written())
        } else {
            let (temporal, _) = pvc_bdc::encode_temporal_frame_into(
                self.grid.tile_size(),
                &self.srgb,
                &self.prev,
                &mut self.writer,
                &mut self.gather,
                &mut self.reference_gather,
            );
            (
                temporal.skip_tiles,
                temporal.delta_tiles,
                temporal.intra_tiles,
                temporal.intra_bits,
            )
        };
        if self.keyframe_interval.is_some() {
            self.prev.clone_from(&self.srgb);
            self.prev_valid = true;
        }
        lap(&mut log, serial, Layer::BdEncode, &mut mark);

        self.wire.clear();
        wire::write_frame(&mut self.wire, t, keyframe, self.writer.as_bytes());
        lap(&mut log, serial, Layer::WireEmit, &mut mark);

        let decoded = match WireReader::new(&self.wire).next_record() {
            Some(Ok(WireRecord::Frame { payload, .. })) => self
                .decoder
                .decode_frame_into(payload, &mut self.decoded)
                .map_err(|err| err.to_string()),
            _ => Err("the framed record did not parse back as a frame".to_string()),
        };
        lap(&mut log, serial, Layer::Decode, &mut mark);
        let end = Instant::now();
        let wall = end.duration_since(start);
        if let Some(log) = log {
            let frame = FrameSpan {
                frame: serial,
                start_ns: log.nanos(start),
                end_ns: log.nanos(end),
            };
            log.frames.push(frame);
        }

        tally.attempted += 1;
        if let Err(err) = decoded {
            tally.failed += 1;
            tally.fail(format!(
                "replay session {} frame {t}: decode failed: {err}",
                self.index
            ));
        } else if verify {
            let entry = self.map.take().expect("built above");
            self.verify(t, &entry.1, tally);
            self.map = Some(entry);
        }

        let bits = self.writer.bits_written();
        counts.frames += 1;
        counts.pixels += u64::from(self.pixels);
        counts.case1_tiles += adjustment.case1_tiles as u64;
        counts.case2_tiles += adjustment.case2_tiles as u64;
        counts.foveal_tiles += adjustment.foveal_tiles as u64;
        counts.unadjusted_tiles += (adjustment.total_tiles - adjustment.adjusted_tiles()) as u64;
        counts.skip_tiles += skip;
        counts.delta_tiles += delta;
        counts.intra_tiles += intra;
        counts.bits += bits;
        counts.intra_bits += intra_bits;
        counts.wire_bytes += self.wire.len() as u64;
        wall
    }

    /// Checks frame `t` against the library's own stream encode and the
    /// decode against the encoded frame. Untimed.
    fn verify(&mut self, t: u32, map: &EccentricityMap, tally: &mut Tally) {
        if self.keyframe_interval.is_some() {
            self.encoder.encode_frame_stream_temporal_into(
                &self.linear,
                map,
                &mut self.check_history,
                t,
                &mut self.check_scratch,
                &mut self.check_out,
            );
        } else {
            self.encoder.encode_frame_stream_with_map_into(
                &self.linear,
                map,
                &mut self.check_scratch,
                &mut self.check_out,
            );
        }
        let same_bits = self.check_out.as_slice() == self.writer.as_bytes();
        let same_pixels = self.decoded == self.srgb;
        if !(same_bits && same_pixels) {
            tally.failed += 1;
        }
        if !same_bits {
            tally.fail(format!(
                "replay session {} frame {t}: composed bitstream differs from the \
                 library's stream encode",
                self.index
            ));
        }
        if !same_pixels {
            tally.fail(format!(
                "replay session {} frame {t}: decoded frame differs from the encoded one",
                self.index
            ));
        }
    }
}

/// Per-frame wall times of the timed rounds of one kind (spans off or on).
#[derive(Debug, Clone, Default)]
pub struct FrameTimes {
    /// Wall times in ms, per frame slot of the round, one per round.
    samples: Vec<Vec<f64>>,
    /// Timed rounds so far.
    pub rounds: u32,
}

impl FrameTimes {
    /// Each frame's fastest wall time over the timed rounds, in ms: the
    /// samples the latency percentiles are taken over. Interference from
    /// other tenants only ever slows a frame down, so its best time over
    /// rounds spread across the run is its own cost.
    pub fn frame_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.iter().copied().fold(f64::INFINITY, f64::min))
            .collect()
    }

    /// Frames timed over all rounds.
    pub fn timed_frames(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }
}

/// The replay of a whole roster, one round (every session's frames once,
/// in serving order) at a time.
pub struct Replay {
    sessions: Vec<ReplaySession>,
    longest: u32,
    serial: u32,
    /// Counts of one round (every round replays identical streams).
    pub counts: RoundCounts,
    /// Rounds timed with spans off.
    pub plain: FrameTimes,
    /// Rounds timed with spans on.
    pub traced: FrameTimes,
}

impl Replay {
    /// Builds every session's replay state.
    pub fn new(sessions: &[SessionConfig], service: &ServiceConfig) -> Replay {
        let sessions: Vec<ReplaySession> = sessions
            .iter()
            .enumerate()
            .map(|(index, config)| ReplaySession::new(index, config, service))
            .collect();
        let frames: u32 = sessions.iter().map(|s| s.frames).sum();
        let slots = FrameTimes {
            samples: vec![Vec::new(); frames as usize],
            rounds: 0,
        };
        Replay {
            longest: sessions.iter().map(|s| s.frames).max().unwrap_or(0),
            sessions,
            serial: 0,
            counts: RoundCounts::default(),
            plain: slots.clone(),
            traced: slots,
        }
    }

    /// One timed round. With a log, every layer call becomes a span in it
    /// and the frame times count as traced. The first round also checks
    /// every frame, after its time is taken.
    pub fn round(&mut self, mut log: Option<&mut SpanLog>, tally: &mut Tally) {
        let traced = log.is_some();
        let verify = self.plain.rounds + self.traced.rounds == 0;
        let mut times = std::mem::take(if traced {
            &mut self.traced
        } else {
            &mut self.plain
        });
        if let Some(log) = log.as_deref_mut() {
            log.reserve(times.samples.len());
        }
        for session in self.sessions.iter_mut() {
            session.restart();
        }
        let mut counts = RoundCounts::default();
        let mut slot = 0;
        for t in 0..self.longest {
            for session in self.sessions.iter_mut().filter(|s| t < s.frames) {
                let wall = session.step(
                    t,
                    self.serial,
                    log.as_deref_mut(),
                    verify,
                    &mut counts,
                    tally,
                );
                self.serial = self.serial.wrapping_add(1);
                times.samples[slot].push(wall.as_secs_f64() * 1e3);
                slot += 1;
            }
        }
        times.rounds += 1;
        self.counts = counts;
        if traced {
            self.traced = times;
        } else {
            self.plain = times;
        }
    }
}
