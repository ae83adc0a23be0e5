//! The serving fleet, run to completion through `StreamService`, and the
//! set-up that generates each workload's wire streams.

use crate::workload::Roster;
use crate::Tally;
use pvc_bdc::BdDecoder;
use pvc_color::SyntheticDiscriminationModel;
use pvc_core::{EncoderConfig, PerceptualEncoder};
use pvc_fovea::{DisplayGeometry, GazePoint};
use pvc_frame::{Dimensions, SrgbFrame};
use pvc_scenes::{SceneConfig, SceneId, SceneRenderer};
use pvc_stream::{ServiceConfig, ServiceReport, StreamService, TraceConfig};

/// Serves every session of `roster` to completion on a fresh runtime.
pub fn serve(roster: &Roster, service: ServiceConfig) -> ServiceReport {
    let mut fleet = StreamService::new(service);
    for session in &roster.sessions {
        fleet.admit(session.clone());
    }
    fleet.run_with_placement(roster.placement())
}

/// Checks that every session streamed its whole frame budget and, when
/// `digests` is given, that its stream digest equals the set-up's. Counts
/// the roster's frames as attempted, and the ones not encoded or in a
/// stream with the wrong digest as failed.
pub fn check_report(roster: &Roster, report: &ServiceReport, digests: &[u64], tally: &mut Tally) {
    tally.attempted += roster.total_frames();
    if report.sessions.len() != roster.sessions.len() {
        tally.failed += roster.total_frames();
        tally.fail(format!(
            "fleet reported {} sessions, {} were admitted",
            report.sessions.len(),
            roster.sessions.len()
        ));
        return;
    }
    for (session, config) in report.sessions.iter().zip(&roster.sessions) {
        let missing = u64::from(config.frames()).saturating_sub(session.throughput.frames);
        if missing > 0 || session.cancelled {
            tally.failed += missing;
            tally.fail(format!(
                "fleet session {} encoded {} of {} frames",
                session.session,
                session.throughput.frames,
                config.frames()
            ));
        }
        if let Some(&expected) = digests.get(session.session) {
            if session.stream_digest != expected {
                tally.failed += session.throughput.frames;
                tally.fail(format!(
                    "fleet session {} stream digest {:#018x} differs from the set-up's {:#018x}",
                    session.session, session.stream_digest, expected
                ));
            }
        }
    }
}

/// Emitted payload bits per encoded pixel.
pub fn bits_per_pixel(report: &ServiceReport) -> f64 {
    report.totals.bytes_out as f64 * 8.0 / report.totals.pixels as f64
}

/// Serving telemetry of one untraced fleet run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSample {
    /// Encoded megapixels per wall second.
    pub mpx_per_s: f64,
    /// Seconds the shard workers spent encoding.
    pub worker_busy_s: f64,
    /// Seconds the shard producers spent rendering.
    pub render_busy_s: f64,
    /// Mean worker utilization over serving shards.
    pub worker_utilization: f64,
    /// Mean producer utilization over serving shards.
    pub render_utilization: f64,
    /// Times a producer blocked on a full queue.
    pub queue_stalls: f64,
    /// Highest queue occupancy seen.
    pub queue_peak_depth: f64,
    /// Eccentricity-map cache hit rate.
    pub map_cache_hit_rate: f64,
}

impl FleetSample {
    /// Reads the sample off a service report.
    pub fn of(report: &ServiceReport) -> FleetSample {
        let serving: Vec<_> = report.shards.iter().filter(|s| s.sessions > 0).collect();
        let mean = |f: fn(&pvc_stream::ShardReport) -> f64| {
            serving.iter().map(|s| f(s)).sum::<f64>() / serving.len().max(1) as f64
        };
        FleetSample {
            mpx_per_s: report.totals.megapixels_per_second(),
            worker_busy_s: report.shards.iter().map(|s| s.busy_seconds).sum(),
            render_busy_s: report.shards.iter().map(|s| s.render_seconds).sum(),
            worker_utilization: mean(pvc_stream::ShardReport::utilization),
            render_utilization: mean(pvc_stream::ShardReport::render_utilization),
            queue_stalls: report.shards.iter().map(|s| s.queue_stalls).sum::<u64>() as f64,
            queue_peak_depth: report
                .shards
                .iter()
                .map(|s| s.queue_peak_depth)
                .max()
                .unwrap_or(0) as f64,
            map_cache_hit_rate: report.aggregate_cache().hit_rate(),
        }
    }
}

/// Fleet runs collected so far.
#[derive(Debug, Clone, Default)]
pub struct FleetRuns {
    /// One sample per untraced run.
    pub untraced: Vec<FleetSample>,
    /// Megapixels per second of each traced run.
    pub traced_mpx_per_s: Vec<f64>,
    /// `bits_per_pixel` of the first run (every run must repeat it).
    pub bits_per_pixel: f64,
}

impl FleetRuns {
    /// Serves the roster once untraced (no `ServiceConfig::with_trace`),
    /// checking the run against the set-up's digests.
    pub fn run(&mut self, roster: &Roster, digests: &[u64], tally: &mut Tally) {
        let report = serve(roster, roster.service.clone());
        check_report(roster, &report, digests, tally);
        let bpp = bits_per_pixel(&report);
        if self.untraced.is_empty() {
            self.bits_per_pixel = bpp;
        } else if bpp != self.bits_per_pixel {
            tally.fail(format!(
                "bits_per_pixel changed between runs: {} then {bpp}",
                self.bits_per_pixel
            ));
        }
        self.untraced.push(FleetSample::of(&report));
    }

    /// Serves the roster once with `ServiceConfig::with_trace`.
    pub fn run_traced(&mut self, roster: &Roster, digests: &[u64], tally: &mut Tally) {
        let report = serve(
            roster,
            roster.service.clone().with_trace(TraceConfig::default()),
        );
        check_report(roster, &report, digests, tally);
        self.traced_mpx_per_s
            .push(report.totals.megapixels_per_second());
    }
}

/// A workload's inputs after set-up: the generated wire streams and what
/// a correct decode of each frame looks like.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Per-session framed wire streams, in session order.
    pub wire: Vec<Vec<u8>>,
    /// Per-session frames decoded from the collected payloads with a
    /// plain `BdDecoder`.
    pub reference: Vec<Vec<SrgbFrame>>,
    /// Per-session stream digests.
    pub digests: Vec<u64>,
}

/// Encodes one small frame so lazily built tables (sRGB encode LUT, DKL
/// matrices) exist before anything is timed.
fn warm_tables() {
    let dims = Dimensions::new(16, 16);
    let frame = SceneRenderer::new(SceneId::by_index(0), SceneConfig::new(dims)).render_linear(0);
    let encoder = PerceptualEncoder::new(
        SyntheticDiscriminationModel::default(),
        EncoderConfig::default(),
    );
    let display = DisplayGeometry::quest2_like(dims);
    std::hint::black_box(encoder.encode_frame_stream(&frame, &display, GazePoint::center_of(dims)));
}

/// Set-up: warms the tables, serves the roster once collecting wire
/// streams and payloads, and decodes every payload into the reference
/// frames the client replay is checked against.
pub fn prepare(roster: &Roster, tally: &mut Tally) -> Prepared {
    warm_tables();
    let report = serve(
        roster,
        roster
            .service
            .clone()
            .with_collect_wire(true)
            .with_collect_payloads(true),
    );
    check_report(roster, &report, &[], tally);
    let mut prepared = Prepared {
        wire: Vec::with_capacity(report.sessions.len()),
        reference: Vec::with_capacity(report.sessions.len()),
        digests: Vec::with_capacity(report.sessions.len()),
    };
    for session in report.sessions {
        let mut decoder = BdDecoder::new();
        let mut frames = Vec::new();
        for (index, payload) in session.payloads.unwrap_or_default().iter().enumerate() {
            let mut frame = SrgbFrame::filled(Dimensions::new(1, 1), Default::default());
            if let Err(err) = decoder.decode_frame_into(payload, &mut frame) {
                tally.fail(format!(
                    "set-up session {} payload {index} does not decode: {err}",
                    session.session
                ));
            }
            frames.push(frame);
        }
        prepared.wire.push(session.wire_stream.unwrap_or_default());
        prepared.reference.push(frames);
        prepared.digests.push(session.stream_digest);
    }
    prepared
}
