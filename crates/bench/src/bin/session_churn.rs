//! Long-lived runtime benchmark: session churn under pixel-cost-aware
//! placement (`--placement least-loaded`, the default) and heterogeneous
//! workload mixes.
//!
//! Starts a [`StreamRuntime`], admits an initial fleet of synthetic
//! headset sessions (optionally a heterogeneous `--mix` of resolution
//! tiers), then runs admission/retirement *waves*: each wave retires the
//! oldest live sessions — gracefully by default, hard-cancelled with
//! `--hard-cancel` — and admits fresh replacements while the rest of the
//! fleet keeps streaming. Reports per-session FPS for every stream,
//! per-tier FPS and pixel throughput, per-shard load distribution, churn
//! counters and steady-state aggregate rates.
//!
//! `--quick` runs a small configuration suitable for CI; the knobs below
//! override either preset.
//!
//! ```text
//! cargo run --release -p pvc_bench --bin session_churn -- --quick --mix bimodal
//! cargo run --release -p pvc_bench --bin session_churn -- \
//!     --sessions 16 --frames 30 --shards 8 --waves 4 --churn 4 \
//!     --mix heavy-tail --placement least-loaded --hard-cancel 1
//! ```

use pvc_bench::assert_session_rates;
use pvc_bench::cli::{
    exit_with_usage, link_option, mix_option, placement_option, ArgSpec, CliError, ParsedArgs,
};
use pvc_bench::json::{self, Json};
use pvc_bench::link;
use pvc_bench::trace_export;
use pvc_frame::Dimensions;
use pvc_metrics::TierAggregates;
use pvc_stream::{
    ServiceConfig, SessionConfig, SessionReport, StreamRuntime, TraceConfig, WorkloadMix,
};
use std::collections::VecDeque;

const SPEC: ArgSpec = ArgSpec {
    flags: &["--quick"],
    options: &[
        "--sessions",
        "--frames",
        "--shards",
        "--width",
        "--height",
        "--waves",
        "--churn",
        "--placement",
        "--mix",
        "--hard-cancel",
        "--link",
        "--bandwidth-mbits",
        "--latency-ms",
        "--drop-prob",
        "--link-seed",
        "--json",
        "--trace",
    ],
};

const USAGE: &str = "[--quick] [--sessions N] [--frames N] [--shards N] \
                     [--width PX] [--height PX] \
                     [--waves N] [--churn N] \
                     [--placement static|least-loaded] \
                     [--mix uniform|bimodal|heavy-tail] [--hard-cancel N] \
                     [--link none|lossless|capped] [--bandwidth-mbits MBITS] \
                     [--latency-ms MS] [--drop-prob P] [--link-seed N] \
                     [--json PATH] [--trace PATH]";

/// The workload, after applying the preset and any explicit overrides.
struct RunConfig {
    sessions: usize,
    frames: u32,
    shards: usize,
    dimensions: Dimensions,
    waves: usize,
    churn: usize,
    mix: WorkloadMix,
    /// Of each wave's retirements, how many are hard-cancels.
    hard_cancels: usize,
}

fn run_config(parsed: &ParsedArgs) -> Result<RunConfig, CliError> {
    let quick = parsed.has("--quick");
    let default_shards = pvc_parallel::available_threads().min(if quick { 4 } else { 8 });
    let mut config = if quick {
        RunConfig {
            sessions: 8,
            frames: 10,
            shards: default_shards,
            dimensions: Dimensions::new(96, 96),
            waves: 2,
            churn: 2,
            mix: WorkloadMix::Uniform,
            hard_cancels: 0,
        }
    } else {
        RunConfig {
            sessions: 16,
            frames: 30,
            shards: default_shards,
            dimensions: Dimensions::new(256, 256),
            waves: 3,
            churn: 4,
            mix: WorkloadMix::Uniform,
            hard_cancels: 0,
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
    if let Some(waves) = parsed.positive_usize("--waves")? {
        config.waves = waves;
    }
    if let Some(churn) = parsed.positive_usize("--churn")? {
        config.churn = churn.min(config.sessions);
    }
    config.mix = mix_option(parsed, config.mix.name())?;
    if let Some(cancels) = parsed.non_negative_usize("--hard-cancel")? {
        config.hard_cancels = cancels.min(config.churn);
    }
    Ok(config)
}

fn main() {
    let parsed = SPEC
        .parse(std::env::args().skip(1))
        .unwrap_or_else(|err| exit_with_usage(&err, USAGE));
    let config = run_config(&parsed).unwrap_or_else(|err| exit_with_usage(&err, USAGE));
    // Cost-aware placement is the default here: churn is exactly the
    // workload where modulo routing starts leaving shards lopsided.
    let placement = placement_option(&parsed, "least-loaded")
        .unwrap_or_else(|err| exit_with_usage(&err, USAGE));
    let link_model = link_option(&parsed).unwrap_or_else(|err| exit_with_usage(&err, USAGE));

    println!(
        "session_churn: {} initial sessions x {} base frames at {}x{} base, {} mix, \
         {} shards ({} placement), {} waves retiring {} sessions each \
         ({} hard-cancelled)\n",
        config.sessions,
        config.frames,
        config.dimensions.width,
        config.dimensions.height,
        config.mix.name(),
        config.shards,
        placement.name(),
        config.waves,
        config.churn,
        config.hard_cancels,
    );

    let mut runtime = StreamRuntime::start(
        ServiceConfig::default()
            .with_shards(config.shards)
            // The link replay consumes each session's framed wire stream
            // — including the partial streams of hard-cancelled sessions.
            .with_collect_wire(link_model.is_some())
            // Tracing is always on — it is allocation-free on the hot
            // path; `--trace` only controls the Chrome export.
            .with_trace(TraceConfig::default()),
        placement,
    );

    let mut next_index = 0usize;
    let mut admit = |runtime: &mut StreamRuntime, live: &mut VecDeque<usize>| {
        let session = SessionConfig::synthetic_mixed(
            next_index,
            config.mix,
            config.dimensions,
            config.frames,
        );
        next_index += 1;
        live.push_back(runtime.admit(session));
    };

    let mut live: VecDeque<usize> = VecDeque::new();
    for _ in 0..config.sessions {
        admit(&mut runtime, &mut live);
    }

    // retire() hands each report over for good; keep them so the final
    // table can cover the whole fleet, not just the survivors.
    let mut retired_reports: Vec<SessionReport> = Vec::new();
    for wave in 1..=config.waves {
        let mut retired_fps = Vec::new();
        for slot in 0..config.churn.min(live.len()) {
            let id = live.pop_front().expect("live fleet is non-empty");
            // The first `hard_cancels` retirements of each wave model a
            // user yanking the headset: remaining frames are dropped.
            let report = if slot < config.hard_cancels {
                runtime.retire_now(id)
            } else {
                runtime.retire(id)
            };
            assert_session_rates(&report);
            retired_fps.push(format!(
                "#{} {:.1} fps{}",
                report.session,
                report.throughput.frames_per_second(),
                if report.cancelled { " (cancelled)" } else { "" },
            ));
            retired_reports.push(report);
            admit(&mut runtime, &mut live);
        }
        let loads = runtime.shard_loads();
        let spread: Vec<String> = loads
            .iter()
            .map(|l| format!("{}:{:.2}Mpx", l.sessions, l.session_pixels as f64 / 1e6))
            .collect();
        println!(
            "wave {wave}: retired [{}], shard sessions:pixels [{}]",
            retired_fps.join(", "),
            spread.join(" "),
        );
    }

    let placement_name = runtime.placement_name();
    let mut report = runtime.shutdown();

    let mut all_sessions: Vec<&SessionReport> =
        retired_reports.iter().chain(&report.sessions).collect();
    all_sessions.sort_by_key(|session| session.session);
    println!("\nsession  scene      tier       shard  frames     kB out    fps   hit-rate");
    let mut tiers = TierAggregates::new();
    for session in &all_sessions {
        assert_session_rates(session);
        tiers.record(session.tier.name(), session.cancelled, &session.throughput);
        println!(
            "{:>7}  {:<9} {:<9} {:>5} {:>7}{} {:>9.1} {:>6.1} {:>9.0}%",
            session.session,
            session.scene.name(),
            session.tier.name(),
            session.shard,
            session.throughput.frames,
            if session.cancelled { "!" } else { " " },
            session.throughput.bytes_out as f64 / 1e3,
            session.throughput.frames_per_second(),
            session.cache.hit_rate() * 100.0,
        );
    }

    println!("\ntier       sessions  cancelled  frames      Mpx    fps   Mpx/s");
    for tier in tiers.entries() {
        println!(
            "{:<9} {:>9} {:>10} {:>7} {:>8.2} {:>6.1} {:>7.2}",
            tier.label,
            tier.sessions,
            tier.cancelled,
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
    let churn = &report.churn;
    println!("\naggregate:");
    println!("  frames encoded      {}", totals.frames);
    println!(
        "  pixels encoded      {:.2} Mpx",
        totals.pixels as f64 / 1e6
    );
    println!("  wall time           {:.3} s", totals.wall_seconds);
    println!(
        "  steady-state        {:.1} frames/s ({:.2} Mpx/s)",
        totals.frames_per_second(),
        totals.megapixels_per_second(),
    );
    println!(
        "  bytes in / out      {:.2} MB / {:.2} MB ({:.1}% reduction)",
        totals.bytes_in as f64 / 1e6,
        totals.bytes_out as f64 / 1e6,
        totals.bandwidth_reduction_percent(),
    );
    println!(
        "  churn               {} admitted / {} retired / {} completed / {} cancelled \
         (peak {} concurrent)",
        churn.admitted, churn.retired, churn.completed, churn.cancelled, churn.peak_concurrent,
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
    assert_eq!(churn.completed, churn.admitted, "every stream must finish");
    assert_eq!(
        churn.cancelled,
        retired_reports.iter().filter(|r| r.cancelled).count() as u64,
        "cancellation telemetry must match the reports handed out"
    );
    assert!(totals.frames_per_second() > 0.0);

    let replay = link_model.map(|model| {
        // The traced replay seals the decode side as one more trace
        // thread, so the Chrome export shows clients next to the shards.
        let replay = if let Some(trace) = report.trace.as_mut() {
            let (replay, thread) = link::replay_sessions_traced(
                model,
                &all_sessions,
                trace.epoch,
                TraceConfig::default().ring_capacity,
            );
            trace.threads.push(thread);
            replay
        } else {
            link::replay_sessions(model, &all_sessions)
        };
        link::print_replay(&replay);
        replay
    });

    if let Some(trace) = report.trace.as_ref() {
        trace_export::print_stage_table(trace);
    }

    if let Some(path) = parsed.value("--json") {
        // Unlike the service report, the JSON covers the whole fleet:
        // retire()/retire_now() handed those reports over for good.
        let document = json::service_report_json(
            "session_churn",
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
                ("waves".to_string(), config.waves.into()),
                ("churn".to_string(), config.churn.into()),
                ("hard_cancels".to_string(), config.hard_cancels.into()),
                ("placement".to_string(), placement_name.into()),
                ("mix".to_string(), config.mix.name().into()),
                ("quick".to_string(), Json::Bool(parsed.has("--quick"))),
            ],
            &all_sessions,
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
