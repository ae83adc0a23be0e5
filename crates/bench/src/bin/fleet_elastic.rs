//! Elastic control plane benchmark: admission gating, tier-shedding,
//! shard autoscaling and rebalancing migration under a burst arrival.
//!
//! Wraps a [`StreamRuntime`] in an [`ElasticController`] with a fleet
//! pixel budget sized so a burst of submissions overcommits it: the
//! first sessions admit, the next wait in the admission queue, the tail
//! is rejected outright. The control loop then runs at a fixed 1 ms
//! tick until the fleet drains, logging every non-idle tick as the
//! controller *trajectory*: queued sessions promoted as budget frees,
//! the most expensive session shed a resolution tier under sustained
//! overload, shards spawned/drained on the remaining-work hysteresis
//! band, and skew rebalanced by live migration.
//!
//! The workload leads with one Vision-class whale (the shed victim and
//! the migration mover) followed by baseline Quest-2 sessions. Under
//! the default presets every elasticity counter is exercised at least
//! once, and the run asserts that; overriding a workload or controller
//! knob lifts the assertions (the trajectory is then yours to shape).
//!
//! Sessions are placed `least-loaded` (pixel-cost-aware) unless
//! `--placement static` asks for modulo routing.
//!
//! `--shards` pins a fixed fleet size and conflicts with the
//! autoscaler knobs (`--scale-up`, `--scale-down`, `--min-shards`,
//! `--max-shards`) — mixing them exits with a usage error.
//!
//! ```text
//! cargo run --release -p pvc_bench --bin fleet_elastic -- --quick
//! cargo run --release -p pvc_bench --bin fleet_elastic -- \
//!     --sessions 24 --frames 2000 --fleet-budget 80000 \
//!     --queue-capacity 4 --max-shards 4
//! ```

use pvc_bench::assert_session_rates;
use pvc_bench::cli::{exit_with_usage, placement_option, ArgSpec, CliError, ParsedArgs};
use pvc_bench::json::{self, Json};
use pvc_bench::trace_export;
use pvc_frame::Dimensions;
use pvc_metrics::TierAggregates;
use pvc_stream::{
    ElasticConfig, ElasticController, ResolutionTier, ServiceConfig, SessionConfig, SessionProfile,
    SessionReport, StreamRuntime, TickActions, TraceConfig,
};
use std::time::Duration;

const SPEC: ArgSpec = ArgSpec {
    flags: &["--quick"],
    options: &[
        "--sessions",
        "--frames",
        "--width",
        "--height",
        "--shards",
        "--queue-depth",
        "--placement",
        "--fleet-budget",
        "--queue-capacity",
        "--scale-up",
        "--scale-down",
        "--min-shards",
        "--max-shards",
        "--shed-after",
        "--json",
        "--trace",
    ],
};

const USAGE: &str = "[--quick] [--sessions N] [--frames N] [--width PX] [--height PX] \
                     [--shards N] [--queue-depth N] \
                     [--placement static|least-loaded] \
                     [--fleet-budget PIXELS] [--queue-capacity N] \
                     [--scale-up PIXELS] [--scale-down PIXELS] \
                     [--min-shards N] [--max-shards N] [--shed-after TICKS] \
                     [--json PATH] [--trace PATH]";

/// Overriding any of these lifts the trajectory assertions: the
/// every-counter-fires guarantee only holds for the built-in presets.
const TRAJECTORY_KNOBS: &[&str] = &[
    "--sessions",
    "--frames",
    "--width",
    "--height",
    "--shards",
    "--fleet-budget",
    "--queue-capacity",
    "--scale-up",
    "--scale-down",
    "--min-shards",
    "--max-shards",
    "--shed-after",
];

/// The workload and controller shape, after the preset and overrides.
struct RunConfig {
    sessions: usize,
    frames: u32,
    dimensions: Dimensions,
    queue_depth: usize,
    /// `Some(n)` pins the fleet at `n` shards and disables autoscaling.
    fixed_shards: Option<usize>,
    fleet_budget: u64,
    queue_capacity: usize,
    scale_up: u64,
    scale_down: u64,
    min_shards: usize,
    max_shards: usize,
    shed_after: u32,
}

fn run_config(parsed: &ParsedArgs) -> Result<RunConfig, CliError> {
    // A fixed shard count and the autoscaler are mutually exclusive by
    // construction: pinning the fleet is exactly turning scaling off.
    if parsed.value("--shards").is_some() {
        for knob in ["--scale-up", "--scale-down", "--min-shards", "--max-shards"] {
            if parsed.value(knob).is_some() {
                return Err(CliError::Conflicting {
                    first: "--shards".to_string(),
                    second: knob.to_string(),
                    reason: "a fixed shard count disables the autoscaler".to_string(),
                });
            }
        }
    }

    let quick = parsed.has("--quick");
    let (mut sessions, mut frames, mut dimensions) = if quick {
        (8usize, 250u32, Dimensions::new(64, 64))
    } else {
        (16usize, 1_200u32, Dimensions::new(96, 96))
    };
    if let Some(value) = parsed.positive_usize("--sessions")? {
        sessions = value;
    }
    if let Some(value) = parsed.positive_u32("--frames")? {
        frames = value;
    }
    if let Some(value) = parsed.positive_u32("--width")? {
        dimensions.width = value;
    }
    if let Some(value) = parsed.positive_u32("--height")? {
        dimensions.height = value;
    }

    // The default budget fits the Vision-class whale plus two baseline
    // sessions exactly — the rest of the burst queues and then rejects.
    let whale = SessionProfile::for_tier(ResolutionTier::VisionClass, dimensions, frames);
    let quest_cost = dimensions.pixel_count() as u64;
    let mut config = RunConfig {
        sessions,
        frames,
        dimensions,
        queue_depth: 4,
        fixed_shards: parsed.positive_usize("--shards")?,
        fleet_budget: whale.pixel_cost() + 2 * quest_cost,
        queue_capacity: if quick { 2 } else { 3 },
        // Remaining-work thresholds sit far below the burst's initial
        // backlog (roughly budget x frames) and above its tail, so the
        // fleet expands early and contracts as the work drains.
        scale_up: 0,
        scale_down: 0,
        min_shards: 1,
        max_shards: if quick {
            2
        } else {
            pvc_parallel::available_threads().clamp(2, 4)
        },
        shed_after: if quick { 2 } else { 3 },
    };
    if let Some(depth) = parsed.positive_usize("--queue-depth")? {
        config.queue_depth = depth;
    }
    if let Some(budget) = parsed.u64_value("--fleet-budget")? {
        config.fleet_budget = budget;
    }
    if let Some(capacity) = parsed.positive_usize("--queue-capacity")? {
        config.queue_capacity = capacity;
    }
    config.scale_up = config.fleet_budget * u64::from(config.frames) / 4;
    config.scale_down = config.fleet_budget * u64::from(config.frames) / 8;
    if let Some(value) = parsed.u64_value("--scale-up")? {
        config.scale_up = value;
    }
    if let Some(value) = parsed.u64_value("--scale-down")? {
        config.scale_down = value;
    }
    if let Some(value) = parsed.positive_usize("--min-shards")? {
        config.min_shards = value;
    }
    if let Some(value) = parsed.positive_usize("--max-shards")? {
        config.max_shards = value.max(config.min_shards);
    }
    if let Some(value) = parsed.positive_u32("--shed-after")? {
        config.shed_after = value;
    }
    Ok(config)
}

/// One Vision-class whale (submitted first: the shed victim and the
/// migration mover) followed by baseline Quest-2 sessions.
fn burst(config: &RunConfig) -> Vec<SessionConfig> {
    let whale = SessionProfile::for_tier(
        ResolutionTier::VisionClass,
        config.dimensions,
        config.frames,
    );
    (0..config.sessions)
        .map(|index| {
            let session = SessionConfig::synthetic(index, config.dimensions, config.frames);
            if index == 0 {
                session.with_profile(whale)
            } else {
                session
            }
        })
        .collect()
}

fn tick_json(tick: u64, actions: &TickActions) -> Json {
    let verb = |value: Option<usize>| value.map_or(Json::Null, Json::from);
    json::object([
        ("tick", tick.into()),
        (
            "admitted",
            Json::Array(actions.admitted.iter().map(|&id| id.into()).collect()),
        ),
        ("shed", verb(actions.shed)),
        ("spawned", verb(actions.spawned)),
        ("drained", verb(actions.drained)),
        (
            "migrated",
            actions.migrated.map_or(Json::Null, |(session, from, to)| {
                Json::Array(vec![session.into(), from.into(), to.into()])
            }),
        ),
    ])
}

fn describe(actions: &TickActions) -> String {
    let mut parts = Vec::new();
    if !actions.admitted.is_empty() {
        parts.push(format!("promoted {:?}", actions.admitted));
    }
    if let Some(session) = actions.shed {
        parts.push(format!("shed #{session}"));
    }
    if let Some(shard) = actions.spawned {
        parts.push(format!("spawned shard {shard}"));
    }
    if let Some(shard) = actions.drained {
        parts.push(format!("drained shard {shard}"));
    }
    if let Some((session, from, to)) = actions.migrated {
        parts.push(format!("migrated #{session} {from}->{to}"));
    }
    parts.join(", ")
}

fn main() {
    let parsed = SPEC
        .parse(std::env::args().skip(1))
        .unwrap_or_else(|err| exit_with_usage(&err, USAGE));
    let config = run_config(&parsed).unwrap_or_else(|err| exit_with_usage(&err, USAGE));
    // Cost-aware placement is the default here: the burst leads with a
    // Vision-class whale, so sessions must spread by pixels, not count.
    let placement = placement_option(&parsed, "least-loaded")
        .unwrap_or_else(|err| exit_with_usage(&err, USAGE));
    let placement_name = placement.name();

    let initial_shards = config.fixed_shards.unwrap_or(config.min_shards);
    println!(
        "fleet_elastic: burst of {} sessions x {} base frames at {}x{} base \
         (one vision-class whale), fleet budget {} px/frame, admission queue {}, \
         {} placement, {}",
        config.sessions,
        config.frames,
        config.dimensions.width,
        config.dimensions.height,
        config.fleet_budget,
        config.queue_capacity,
        placement_name,
        match config.fixed_shards {
            Some(shards) => format!("{shards} fixed shards"),
            None => format!(
                "shards {}..={} (scale up >{} / down <{} remaining px per shard), shed after {} overloaded ticks",
                config.min_shards,
                config.max_shards,
                config.scale_up,
                config.scale_down,
                config.shed_after,
            ),
        },
    );

    let runtime = StreamRuntime::start(
        ServiceConfig::default()
            .with_shards(initial_shards)
            .with_queue_depth(config.queue_depth)
            // Tracing is always on (allocation-free on the hot path);
            // `--trace` only controls the Chrome export.
            .with_trace(TraceConfig::default()),
        placement,
    );
    let mut elastic = ElasticConfig::new(config.fleet_budget)
        .with_queue_capacity(config.queue_capacity)
        .with_shed_after_ticks(config.shed_after);
    if config.fixed_shards.is_none() {
        elastic = elastic
            .with_scale_thresholds(config.scale_up, config.scale_down)
            .with_shard_bounds(config.min_shards, config.max_shards);
    }
    let mut controller = ElasticController::new(runtime, elastic);

    println!();
    for session in burst(&config) {
        let cost = session.pixel_cost();
        let verdict = controller.submit(session);
        println!("submit {cost:>6} px/frame -> {verdict:?}");
    }

    // The control loop: 1 ms ticks until the fleet drains and, in
    // autoscale mode, contracts back to the floor.
    let mut trajectory: Vec<(u64, TickActions)> = Vec::new();
    let mut ticks = 0u64;
    println!();
    loop {
        std::thread::sleep(Duration::from_millis(1));
        ticks += 1;
        let actions = controller.tick();
        if !actions.is_idle() {
            println!("tick {ticks:>4}: {}", describe(&actions));
            trajectory.push((ticks, actions));
        }
        let drained = controller.pending_len() == 0
            && controller.runtime().churn().in_flight() == 0
            && (config.fixed_shards.is_some()
                || controller.runtime().shard_count() == config.min_shards);
        if drained {
            break;
        }
        assert!(
            ticks < 120_000,
            "the fleet failed to drain within the tick budget"
        );
    }
    println!("(drained after {ticks} ticks)");

    let report = controller.shutdown();

    let mut all_sessions: Vec<&SessionReport> = report.sessions.iter().collect();
    all_sessions.sort_by_key(|session| session.session);
    println!("\nsession  scene      tier       shard  frames     kB out    fps   shed-from");
    let mut tiers = TierAggregates::new();
    for session in &all_sessions {
        assert_session_rates(session);
        tiers.record(session.tier.name(), session.cancelled, &session.throughput);
        println!(
            "{:>7}  {:<9} {:<9} {:>5} {:>7} {:>9.1} {:>6.1}   {}",
            session.session,
            session.scene.name(),
            session.tier.name(),
            session.shard,
            session.throughput.frames,
            session.throughput.bytes_out as f64 / 1e3,
            session.throughput.frames_per_second(),
            session.downgraded_from.map_or("-", |tier| tier.name()),
        );
    }

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

    println!("\nshard  sessions  frames  utilization   Mpx/s");
    for shard in &report.shards {
        println!(
            "{:>5} {:>9} {:>7} {:>11.0}% {:>7.2}",
            shard.shard,
            shard.sessions,
            shard.frames,
            shard.utilization() * 100.0,
            shard.megapixels_per_second(),
        );
    }

    let elasticity = &report.elasticity;
    println!("\nelasticity:");
    println!("  rejected            {}", elasticity.rejected);
    println!("  queued              {}", elasticity.queued);
    println!("  shed                {}", elasticity.shed);
    println!("  migrated            {}", elasticity.migrated);
    println!("  shards spawned      {}", elasticity.shards_spawned);
    println!("  shards drained      {}", elasticity.shards_drained);

    let totals = &report.totals;
    let churn = &report.churn;
    let cores = pvc_parallel::available_threads();
    println!("\naggregate:");
    println!("  frames encoded      {}", totals.frames);
    println!("  wall time           {:.3} s", totals.wall_seconds);
    println!(
        "  steady-state        {:.1} frames/s ({:.2} Mpx/s)",
        totals.frames_per_second(),
        totals.megapixels_per_second(),
    );
    println!(
        "  churn               {} admitted / {} completed (peak {} concurrent)",
        churn.admitted, churn.completed, churn.peak_concurrent,
    );
    println!(
        "  sessions per core   {:.2} ({} completed / {} cores)",
        churn.completed as f64 / cores as f64,
        churn.completed,
        cores,
    );

    assert_eq!(
        churn.completed, churn.admitted,
        "every admitted stream must finish"
    );
    // Queued submissions are promoted later and end up admitted too, so
    // the burst partitions into (eventually) admitted and rejected.
    assert_eq!(
        churn.admitted + elasticity.rejected,
        config.sessions as u64,
        "every submission is eventually admitted or rejected exactly once"
    );

    // Under the built-in presets the trajectory is guaranteed: the burst
    // overcommits the budget (queue + reject), sustained overload sheds
    // the whale, the backlog expands the fleet and the drain contracts
    // it, and the post-spawn skew triggers a rebalancing migration.
    let organic = TRAJECTORY_KNOBS
        .iter()
        .all(|knob| parsed.value(knob).is_none());
    if organic {
        for (label, count) in [
            ("rejected", elasticity.rejected),
            ("queued", elasticity.queued),
            ("shed", elasticity.shed),
            ("migrated", elasticity.migrated),
            ("shards_spawned", elasticity.shards_spawned),
            ("shards_drained", elasticity.shards_drained),
        ] {
            assert!(
                count >= 1,
                "the preset trajectory must exercise `{label}` at least once"
            );
        }
    }

    if let Some(trace) = report.trace.as_ref() {
        trace_export::print_stage_table(trace);
    }

    if let Some(path) = parsed.value("--json") {
        let document = json::service_report_json(
            "fleet_elastic",
            vec![
                ("sessions".to_string(), config.sessions.into()),
                ("frames".to_string(), u64::from(config.frames).into()),
                (
                    "width".to_string(),
                    u64::from(config.dimensions.width).into(),
                ),
                (
                    "height".to_string(),
                    u64::from(config.dimensions.height).into(),
                ),
                ("fleet_budget".to_string(), config.fleet_budget.into()),
                ("queue_capacity".to_string(), config.queue_capacity.into()),
                (
                    "fixed_shards".to_string(),
                    config.fixed_shards.map_or(Json::Null, Json::from),
                ),
                ("scale_up".to_string(), config.scale_up.into()),
                ("scale_down".to_string(), config.scale_down.into()),
                ("min_shards".to_string(), config.min_shards.into()),
                ("max_shards".to_string(), config.max_shards.into()),
                (
                    "shed_after_ticks".to_string(),
                    u64::from(config.shed_after).into(),
                ),
                ("placement".to_string(), placement_name.into()),
                ("quick".to_string(), Json::Bool(parsed.has("--quick"))),
            ],
            &all_sessions,
            &report,
        );
        let document = json::with_field(
            document,
            "controller",
            json::object([
                ("tick_ms", 1u64.into()),
                ("ticks", ticks.into()),
                (
                    "trajectory",
                    Json::Array(
                        trajectory
                            .iter()
                            .map(|(tick, actions)| tick_json(*tick, actions))
                            .collect(),
                    ),
                ),
            ]),
        );
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
