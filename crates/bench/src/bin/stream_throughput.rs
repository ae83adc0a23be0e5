//! Multi-session streaming throughput benchmark.
//!
//! Spins up N synthetic headset sessions on a sharded [`StreamService`]
//! and reports aggregate frames/sec, bytes in/out, cache hit-rates and
//! per-shard utilization / pixel throughput. `--mix` selects a
//! heterogeneous population (resolution tiers with different pixel costs
//! and frame budgets); the report then adds a per-tier table. `--quick`
//! runs a small configuration suitable for CI; the knobs below override
//! either preset.
//!
//! ```text
//! cargo run --release -p pvc_bench --bin stream_throughput -- --quick
//! cargo run --release -p pvc_bench --bin stream_throughput -- \
//!     --sessions 32 --frames 60 --shards 8 --mix bimodal --placement least-loaded
//! ```

use pvc_bench::cli::{
    exit_with_usage, link_option, mix_option, placement_option, ArgSpec, CliError, ParsedArgs,
};
use pvc_bench::json::{self, Json};
use pvc_bench::link;
use pvc_bench::trace_export;
use pvc_core::{EncoderConfig, TemporalConfig};
use pvc_frame::Dimensions;
use pvc_metrics::{TemporalTotals, TierAggregates};
use pvc_stream::{
    GazeModel, ServiceConfig, SessionConfig, SessionReport, StreamService, TraceConfig,
};

const SPEC: ArgSpec = ArgSpec {
    flags: &["--quick", "--temporal"],
    options: &[
        "--keyframe-interval",
        "--sessions",
        "--frames",
        "--shards",
        "--width",
        "--height",
        "--placement",
        "--mix",
        "--link",
        "--bandwidth-mbits",
        "--latency-ms",
        "--drop-prob",
        "--link-seed",
        "--json",
        "--trace",
    ],
};

const USAGE: &str = "[--quick] [--temporal] [--keyframe-interval N] \
                     [--sessions N] [--frames N] [--shards N] \
                     [--width PX] [--height PX] \
                     [--placement static|least-loaded] \
                     [--mix uniform|bimodal|heavy-tail] \
                     [--link none|lossless|capped] [--bandwidth-mbits MBITS] \
                     [--latency-ms MS] [--drop-prob P] [--link-seed N] \
                     [--json PATH] [--trace PATH]";

/// Overriding any of these changes the encode workload and lifts the
/// temporal-savings bar: the ≥ 30% guarantee only holds for the
/// built-in `--quick` preset.
const TEMPORAL_BAR_KNOBS: &[&str] = &[
    "--sessions",
    "--frames",
    "--width",
    "--height",
    "--keyframe-interval",
    "--mix",
];

/// The workload, after applying the preset and any explicit overrides.
struct RunConfig {
    sessions: usize,
    frames: u32,
    shards: usize,
    dimensions: Dimensions,
}

fn run_config(parsed: &ParsedArgs) -> Result<RunConfig, CliError> {
    let quick = parsed.has("--quick");
    let default_shards = pvc_parallel::available_threads().min(if quick { 4 } else { 8 });
    let mut config = if quick {
        RunConfig {
            sessions: 8,
            frames: 12,
            shards: default_shards,
            dimensions: Dimensions::new(96, 96),
        }
    } else {
        RunConfig {
            sessions: 16,
            frames: 30,
            shards: default_shards,
            dimensions: Dimensions::new(256, 256),
        }
    };
    if let Some(sessions) = parsed.positive_usize("--sessions")? {
        config.sessions = sessions;
    }
    if let Some(frames) = parsed.positive_u32("--frames")? {
        config.frames = frames;
    }
    if let Some(shards) = parsed.positive_usize("--shards")? {
        config.shards = shards;
    }
    if let Some(width) = parsed.positive_u32("--width")? {
        config.dimensions.width = width;
    }
    if let Some(height) = parsed.positive_u32("--height")? {
        config.dimensions.height = height;
    }
    Ok(config)
}

fn main() {
    let parsed = SPEC
        .parse(std::env::args().skip(1))
        .unwrap_or_else(|err| exit_with_usage(&err, USAGE));
    let config = run_config(&parsed).unwrap_or_else(|err| exit_with_usage(&err, USAGE));
    let placement =
        placement_option(&parsed, "static").unwrap_or_else(|err| exit_with_usage(&err, USAGE));
    let mix = mix_option(&parsed, "uniform").unwrap_or_else(|err| exit_with_usage(&err, USAGE));
    let link_model = link_option(&parsed).unwrap_or_else(|err| exit_with_usage(&err, USAGE));
    let temporal_on = parsed.has("--temporal");
    let keyframe_interval = parsed
        .positive_u32("--keyframe-interval")
        .unwrap_or_else(|err| exit_with_usage(&err, USAGE))
        .unwrap_or(TemporalConfig::default().keyframe_interval);

    println!(
        "stream_throughput: {} sessions x {} base frames at {}x{} base, {} mix, \
         {} shards ({} placement), {}\n",
        config.sessions,
        config.frames,
        config.dimensions.width,
        config.dimensions.height,
        mix.name(),
        config.shards,
        placement.name(),
        if temporal_on {
            format!("temporal coding every {keyframe_interval} frames")
        } else {
            "intra-only coding".to_string()
        },
    );

    let mut encoder_config = EncoderConfig::default();
    if temporal_on {
        encoder_config = encoder_config.with_temporal(TemporalConfig::every(keyframe_interval));
    }
    let mut service = StreamService::new(
        ServiceConfig::default()
            .with_shards(config.shards)
            .with_encoder(encoder_config)
            // The link replay consumes each session's framed wire stream.
            .with_collect_wire(link_model.is_some())
            // Tracing is always on — it is allocation-free on the hot
            // path; `--trace` only controls the Chrome export.
            .with_trace(TraceConfig::default()),
    );
    for index in 0..config.sessions {
        let mut session =
            SessionConfig::synthetic_mixed(index, mix, config.dimensions, config.frames);
        // Temporal runs use the fixation/smooth-pursuit workload: the
        // default fixation-saccade model on even sessions, smooth pursuit
        // on odd ones — the two dominant gaze behaviors whose inter-frame
        // coherence temporal coding exists to exploit. Intra-only runs
        // keep the historical all-fixation-saccade population so their
        // numbers stay comparable across PRs.
        if temporal_on && index % 2 == 1 {
            session = session.with_gaze_model(GazeModel::pursuit(1.5));
        }
        service.admit(session);
    }
    let placement_name = placement.name();
    let mut report = service.run_with_placement(placement);

    println!("session  scene      tier       frames     kB out    fps   hit-rate");
    for session in &report.sessions {
        pvc_bench::assert_session_rates(session);
        println!(
            "{:>7}  {:<9} {:<9} {:>7} {:>10.1} {:>6.1} {:>9.0}%",
            session.session,
            session.scene.name(),
            session.tier.name(),
            session.throughput.frames,
            session.throughput.bytes_out as f64 / 1e3,
            session.throughput.frames_per_second(),
            session.cache.hit_rate() * 100.0,
        );
    }

    let tiers: TierAggregates = report.tier_summary();
    println!("\ntier       sessions  frames      Mpx    fps   Mpx/s");
    for tier in tiers.entries() {
        println!(
            "{:<9} {:>9} {:>7} {:>8.2} {:>6.1} {:>7.2}",
            tier.label,
            tier.sessions,
            tier.throughput.frames,
            tier.throughput.pixels as f64 / 1e6,
            tier.throughput.frames_per_second(),
            tier.throughput.megapixels_per_second(),
        );
    }

    println!("\nshard  sessions  frames  encode-util  render-util   Mpx/s");
    for shard in &report.shards {
        println!(
            "{:>5} {:>9} {:>7} {:>11.0}% {:>11.0}% {:>7.2}",
            shard.shard,
            shard.sessions,
            shard.frames,
            shard.utilization() * 100.0,
            shard.render_utilization() * 100.0,
            shard.megapixels_per_second(),
        );
    }

    let totals = &report.totals;
    let cache = report.aggregate_cache();
    println!("\naggregate:");
    println!("  frames encoded      {}", totals.frames);
    println!(
        "  pixels encoded      {:.2} Mpx",
        totals.pixels as f64 / 1e6
    );
    println!("  wall time           {:.3} s", totals.wall_seconds);
    println!(
        "  throughput          {:.1} frames/s ({:.2} Mpx/s)",
        totals.frames_per_second(),
        totals.megapixels_per_second(),
    );
    println!(
        "  bytes in / out      {:.2} MB / {:.2} MB",
        totals.bytes_in as f64 / 1e6,
        totals.bytes_out as f64 / 1e6,
    );
    println!(
        "  traffic reduction   {:.1}% ({:.1} Mbit/s on the wire)",
        totals.bandwidth_reduction_percent(),
        totals.output_megabits_per_second(),
    );
    println!(
        "  map-cache hit rate  {:.0}% ({} hits / {} misses)",
        cache.hit_rate() * 100.0,
        cache.hits,
        cache.misses,
    );
    if let Some(utilization) = report.utilization_summary() {
        println!(
            "  shard utilization   mean {:.0}% (min {:.0}%, max {:.0}%, spread {:.0}pp)",
            utilization.mean * 100.0,
            utilization.min * 100.0,
            utilization.max * 100.0,
            (utilization.max - utilization.min) * 100.0,
        );
    }
    if let Some(pixel_rate) = report.pixel_throughput_summary() {
        println!(
            "  shard pixel rate    mean {:.2} Mpx/s (min {:.2}, max {:.2}, spread {:.2})",
            pixel_rate.mean,
            pixel_rate.min,
            pixel_rate.max,
            pixel_rate.max - pixel_rate.min,
        );
    }

    let mut temporal = TemporalTotals::default();
    for session in &report.sessions {
        temporal.merge(&session.temporal);
    }
    println!("\ntemporal coding:");
    println!(
        "  frames              {} key / {} predicted",
        temporal.keyframes, temporal.predicted_frames,
    );
    println!(
        "  tiles               {} skip / {} delta / {} intra",
        temporal.skip_tiles, temporal.delta_tiles, temporal.intra_tiles,
    );
    println!(
        "  bits                {} emitted vs {} intra-only ({:.1}% saved)",
        temporal.bits,
        temporal.intra_bits,
        temporal.reduction_over_intra_percent(),
    );
    // The acceptance bar for the temporal path: on the unmodified
    // `--quick` workload, inter-frame coding must save at least 30% of
    // the intra-only bits.
    let preset_workload = TEMPORAL_BAR_KNOBS
        .iter()
        .all(|knob| parsed.value(knob).is_none());
    if temporal_on && parsed.has("--quick") && preset_workload {
        assert!(
            temporal.reduction_over_intra_percent() >= 30.0,
            "temporal coding must save >= 30% of the intra-only bits on the \
             --quick workload (saved {:.1}%)",
            temporal.reduction_over_intra_percent(),
        );
    }

    let replay = link_model.map(|model| {
        let sessions: Vec<&SessionReport> = report.sessions.iter().collect();
        // The traced replay seals the decode side as one more trace
        // thread, so the Chrome export shows clients next to the shards.
        let replay = if let Some(trace) = report.trace.as_mut() {
            let (replay, thread) = link::replay_sessions_traced(
                model,
                &sessions,
                trace.epoch,
                TraceConfig::default().ring_capacity,
            );
            trace.threads.push(thread);
            replay
        } else {
            link::replay_sessions(model, &sessions)
        };
        link::print_replay(&replay);
        replay
    });

    if let Some(trace) = report.trace.as_ref() {
        trace_export::print_stage_table(trace);
    }

    if let Some(path) = parsed.value("--json") {
        let sessions: Vec<&SessionReport> = report.sessions.iter().collect();
        let document = json::service_report_json(
            "stream_throughput",
            vec![
                ("sessions".to_string(), config.sessions.into()),
                ("frames".to_string(), u64::from(config.frames).into()),
                ("shards".to_string(), config.shards.into()),
                (
                    "width".to_string(),
                    u64::from(config.dimensions.width).into(),
                ),
                (
                    "height".to_string(),
                    u64::from(config.dimensions.height).into(),
                ),
                ("placement".to_string(), placement_name.into()),
                ("mix".to_string(), mix.name().into()),
                ("quick".to_string(), Json::Bool(parsed.has("--quick"))),
                ("temporal".to_string(), Json::Bool(temporal_on)),
                (
                    "keyframe_interval".to_string(),
                    u64::from(keyframe_interval).into(),
                ),
            ],
            &sessions,
            &report,
        );
        let document = match &replay {
            Some(replay) => json::with_field(document, "link", link::replay_json(replay)),
            None => document,
        };
        let document = match report.trace.as_ref() {
            Some(trace) => {
                json::with_field(document, "trace", trace_export::trace_section_json(trace))
            }
            None => document,
        };
        match json::write_json(std::path::Path::new(path), &document) {
            Ok(()) => println!("\n(json written to {path})"),
            Err(err) => {
                eprintln!("error: could not write json to {path}: {err}");
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = parsed.value("--trace") {
        let trace = report.trace.as_ref().expect("tracing is always enabled");
        let document = trace_export::chrome_trace_json(trace);
        match json::write_json(std::path::Path::new(path), &document) {
            Ok(()) => println!("(chrome trace written to {path})"),
            Err(err) => {
                eprintln!("error: could not write trace to {path}: {err}");
                std::process::exit(1);
            }
        }
    }
}
