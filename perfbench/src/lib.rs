//! The serving benchmark: end-to-end metrics of the fleet, the replay and
//! the client, and a traced run that times every layer call.
//!
//! `run` executes one workload for a given seed and time budget and
//! returns the metrics with the frame tally; `main.rs` turns that into
//! the result line. See `README.md` in this directory for the workloads
//! and what each metric should move.

mod client;
mod fleet;
mod replay;
mod stats;
pub mod workload;

use pvc_frame::Dimensions;
use replay::{Layer, Replay, SpanLog};
use std::time::{Duration, Instant};
use workload::Workload;

/// Frames attempted and failed, plus every check that did not hold.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Frames the run tried to encode, deliver or decode.
    pub attempted: u64,
    /// Frames not encoded, refused by the client or decoded wrongly.
    pub failed: u64,
    /// Checks that failed, first few only.
    pub problems: Vec<String>,
    /// Checks that failed in all.
    pub problem_count: u64,
}

impl Tally {
    /// Records a failed check.
    pub fn fail(&mut self, problem: String) {
        self.problem_count += 1;
        if self.problems.len() < 16 {
            self.problems.push(problem);
        }
    }

    /// Whether every check held and no frame failed.
    pub fn correct(&self) -> bool {
        self.problem_count == 0 && self.failed == 0
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measuring time, set-up excluded.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Quest-2-equivalent per-eye render size
    /// ([`workload::SERVING_BASE`] when measuring).
    pub base: Dimensions,
}

/// What a run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Frame tally and failed checks.
    pub tally: Tally,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !stats::is_valid_metric_name(name) || !stats::is_valid_unit(unit) {
            self.tally
                .fail(format!("metric {name:?} or its unit {unit:?} is malformed"));
        }
        if !value.is_finite() {
            self.tally
                .fail(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push(Metric { name, value, unit });
    }

    fn push_ms(&mut self, name: &'static str, percentile: Result<f64, stats::PercentileError>) {
        let value = percentile.unwrap_or_else(|err| {
            self.tally.fail(format!("{name}: {err}"));
            f64::NAN
        });
        self.push(name, value, "ms");
    }
}

/// Runs `options.workload` and returns its metrics: the end-to-end ones,
/// or with `options.trace` the per-layer ones. Prints human-readable
/// tables to stdout along the way.
pub fn run(options: &Options) -> Outcome {
    let roster = options.workload.roster(options.base, options.seed);
    let mut outcome = Outcome::default();
    println!(
        "workload {} seed {}: {} sessions, {} frames per fleet run, {} shard(s), {} link seeds",
        options.workload.name(),
        options.seed,
        roster.sessions.len(),
        roster.total_frames(),
        roster.service.shards,
        roster.link_seeds.len(),
    );

    // Set-up, repeated for `setup_s` (the traced run reports no set-up
    // time and sets up once): every repeat must produce the same streams.
    let repeats = if options.trace {
        1
    } else {
        workload::SETUP_REPEATS
    };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut prepared = None;
    for _ in 0..repeats {
        let started = Instant::now();
        let this = fleet::prepare(&roster, &mut outcome.tally);
        setup_s.push(started.elapsed().as_secs_f64());
        if prepared
            .as_ref()
            .is_some_and(|first: &fleet::Prepared| first.digests != this.digests)
        {
            outcome
                .tally
                .fail("set-up repeats produced different stream digests".to_string());
        }
        prepared = Some(this);
    }
    let prepared = prepared.expect("at least one set-up");
    println!("setup_s samples: {setup_s:?}");

    let budget = Duration::from_secs_f64(options.seconds);
    let link = client::capped(&roster, &prepared, &mut outcome.tally);
    let digests = &prepared.digests;
    let mut fleet = fleet::FleetRuns::default();
    let mut replay = Replay::new(&roster.sessions, &roster.service);

    if !options.trace {
        let shares = options.workload.shares();
        let mut decode = client::DecodeLoop::new(&roster, &prepared, &mut outcome.tally);
        interleave(
            budget,
            &mut outcome.tally,
            &mut [
                Phase::new(shares.fleet, 3, |tally| fleet.run(&roster, digests, tally)),
                Phase::new(shares.replay, 4, |tally| replay.round(None, tally)),
                Phase::new(shares.decode, 5, |tally| decode.round(&prepared, tally)),
            ],
        );
        let mpx: Vec<f64> = fleet.untraced.iter().map(|s| s.mpx_per_s).collect();
        let frame_ms = replay.plain.frame_ms();
        println!("fleet runs {}: Mpx/s {}", mpx.len(), spread(&mpx));
        println!(
            "replay: {} frames per round, {} timed rounds, {} frame samples; \
             per-frame best in ms {}",
            frame_ms.len(),
            replay.plain.rounds,
            replay.plain.timed_frames(),
            spread(&frame_ms)
        );
        println!(
            "lossless decode rounds {}: Mpx/s {}",
            decode.rates.len(),
            spread(&decode.rates)
        );
        let delivery = &link.delivery;
        outcome.push("fleet_mpx_per_s", stats::best(&mpx), "Mpx/s");
        outcome.push_ms("frame_ms_p50", stats::percentile(&frame_ms, 50.0));
        outcome.push_ms("frame_ms_p95", stats::percentile(&frame_ms, 95.0));
        outcome.push("bits_per_pixel", fleet.bits_per_pixel, "bit/px");
        outcome.push(
            "on_time_pct",
            100.0 * delivery.frames_delivered as f64 / delivery.frames_sent.max(1) as f64,
            "%",
        );
        outcome.push("displayed_psnr_db", delivery.psnr_db(), "dB");
        outcome.push("decode_mpx_per_s", stats::best(&decode.rates), "Mpx/s");
        outcome.push("setup_s", stats::median(&setup_s), "s");
        return outcome;
    }

    let mut log = SpanLog::default();
    interleave(
        budget,
        &mut outcome.tally,
        &mut [
            Phase::new(0.45, 2, |tally| {
                fleet.run(&roster, digests, tally);
                fleet.run_traced(&roster, digests, tally);
            }),
            // Rounds alternate spans off and on, so both kinds see the
            // same stretches of machine conditions.
            Phase::new(0.55, 4, |tally| {
                let spans = (replay.plain.rounds > replay.traced.rounds).then_some(&mut log);
                replay.round(spans, tally);
            }),
        ],
    );
    traced_metrics(&mut outcome, &fleet, &replay, &log, &link);
    outcome
}

/// One measuring phase: a unit of work repeated until the run ends.
struct Phase<'a> {
    share: f64,
    min_units: usize,
    units: usize,
    spent: Duration,
    step: Box<dyn FnMut(&mut Tally) + 'a>,
}

impl<'a> Phase<'a> {
    fn new(share: f64, min_units: usize, step: impl FnMut(&mut Tally) + 'a) -> Phase<'a> {
        Phase {
            share,
            min_units,
            units: 0,
            spent: Duration::ZERO,
            step: Box::new(step),
        }
    }
}

/// Runs the phases' units interleaved in time, always the phase furthest
/// behind its share of `budget`, until the budget is spent and every phase
/// has its minimum of units. Interleaving spreads each phase's samples
/// over the whole run, so a stretch of interference from the rest of the
/// machine lands in a minority of every phase's samples, and the best
/// rate and each frame's best time come from outside it.
fn interleave(budget: Duration, tally: &mut Tally, phases: &mut [Phase<'_>]) {
    let started = Instant::now();
    loop {
        let over = started.elapsed() >= budget;
        let next = phases
            .iter_mut()
            .filter(|phase| !over || phase.units < phase.min_units)
            .min_by(|a, b| {
                (a.spent.as_secs_f64() / a.share).total_cmp(&(b.spent.as_secs_f64() / b.share))
            });
        let Some(phase) = next else {
            break;
        };
        let unit_started = Instant::now();
        (phase.step)(tally);
        phase.spent += unit_started.elapsed();
        phase.units += 1;
    }
}

/// `min / median / max` of `samples`, for the human-readable lines.
fn spread(samples: &[f64]) -> String {
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "min {min:.3} median {:.3} max {max:.3}",
        stats::median(samples)
    )
}

/// Per-layer metrics of the traced run, with the reconciliation tables.
fn traced_metrics(
    outcome: &mut Outcome,
    fleet: &fleet::FleetRuns,
    replay: &Replay,
    log: &SpanLog,
    link: &client::LinkRuns,
) {
    let rounds = f64::from(replay.traced.rounds.max(1));
    let counts = replay.counts;
    let timed_pixels = counts.pixels as f64 * rounds;
    let total_ms = |layer: Layer| log.layer_ms(layer).iter().sum::<f64>();
    let p50 = |layer: Layer| stats::percentile(&log.layer_ms(layer), 50.0);
    let median_of = |f: fn(&fleet::FleetSample) -> f64| {
        stats::median(&fleet.untraced.iter().map(f).collect::<Vec<_>>())
    };

    // Reconciliation: each frame's wall time against its layer spans.
    let slot_of: std::collections::HashMap<u32, usize> = log
        .frames
        .iter()
        .enumerate()
        .map(|(slot, frame)| (frame.frame, slot))
        .collect();
    let mut attributed_ns = vec![0u64; log.frames.len()];
    for span in &log.spans {
        if let Some(&slot) = slot_of.get(&span.frame) {
            attributed_ns[slot] += span.end_ns - span.start_ns;
        }
    }
    let mut wall_ns = 0u64;
    let mut flagged = 0usize;
    for (frame, attributed) in log.frames.iter().zip(&attributed_ns) {
        let wall = frame.end_ns - frame.start_ns;
        wall_ns += wall;
        if (wall.saturating_sub(*attributed)) as f64 > 0.1 * wall as f64 {
            flagged += 1;
        }
    }
    let unattributed_ns = wall_ns.saturating_sub(attributed_ns.iter().sum());
    let unattributed_pct = 100.0 * unattributed_ns as f64 / wall_ns.max(1) as f64;
    println!(
        "\nreconciliation, traced replay ({} frames, {} rounds):",
        log.frames.len(),
        rounds
    );
    println!("layer         calls   ms/round   share of frame wall");
    for layer in Layer::ALL {
        let spans = log.layer_ms(layer);
        let ms: f64 = spans.iter().sum();
        println!(
            "{:<12} {:>6} {:>10.2} {:>12.1}%",
            layer.name(),
            spans.len(),
            ms / rounds,
            100.0 * ms / (wall_ns as f64 / 1e6).max(f64::MIN_POSITIVE),
        );
    }
    println!(
        "unattributed {:>17.2} {:>12.1}%{}  ({flagged} frames above 10%)",
        unattributed_ns as f64 / 1e6 / rounds,
        unattributed_pct,
        if unattributed_pct > 10.0 {
            "  FLAG: above 10%"
        } else {
            ""
        },
    );
    let replay_encode_s = (total_ms(Layer::Adjust)
        + total_ms(Layer::Gamma)
        + total_ms(Layer::BdEncode)
        + total_ms(Layer::WireEmit))
        / 1e3
        / rounds;
    let worker_busy_s = median_of(|s| s.worker_busy_s);
    let busy_gap_pct = 100.0 * (worker_busy_s - replay_encode_s) / worker_busy_s;
    println!(
        "fleet worker busy {worker_busy_s:.3} s per run vs replay adjust+gamma+BD+wire \
         {replay_encode_s:.3} s per round (+map {:.3} s): gap {busy_gap_pct:.1}%",
        total_ms(Layer::Map) / 1e3 / rounds,
    );

    let untraced_mpx = stats::median(
        &fleet
            .untraced
            .iter()
            .map(|s| s.mpx_per_s)
            .collect::<Vec<_>>(),
    );
    let traced_mpx = stats::median(&fleet.traced_mpx_per_s);
    let plain_p50 = stats::percentile(&replay.plain.frame_ms(), 50.0).unwrap_or(f64::NAN);
    let traced_p50 = stats::percentile(&replay.traced.frame_ms(), 50.0).unwrap_or(f64::NAN);
    let saved_pct = if counts.intra_bits == 0 {
        0.0
    } else {
        100.0 * (counts.intra_bits as f64 - counts.bits as f64) / counts.intra_bits as f64
    };
    let delivery = &link.delivery;

    outcome.push_ms("scenes.render_ms_p50", p50(Layer::Render));
    outcome.push("fovea.map_builds", counts.map_builds as f64, "count");
    outcome.push("fovea.map_ms_total", total_ms(Layer::Map) / rounds, "ms");
    outcome.push_ms("core.adjust_ms_p50", p50(Layer::Adjust));
    outcome.push(
        "core.adjust_mpx_per_s",
        timed_pixels / 1e6 / (total_ms(Layer::Adjust) / 1e3),
        "Mpx/s",
    );
    outcome.push("core.case1_tiles", counts.case1_tiles as f64, "count");
    outcome.push("core.case2_tiles", counts.case2_tiles as f64, "count");
    outcome.push("core.foveal_tiles", counts.foveal_tiles as f64, "count");
    outcome.push(
        "core.unadjusted_tiles",
        counts.unadjusted_tiles as f64,
        "count",
    );
    outcome.push_ms("color.gamma_ms_p50", p50(Layer::Gamma));
    outcome.push_ms("bdc.encode_ms_p50", p50(Layer::BdEncode));
    outcome.push("bdc.skip_tiles", counts.skip_tiles as f64, "count");
    outcome.push("bdc.delta_tiles", counts.delta_tiles as f64, "count");
    outcome.push("bdc.intra_tiles", counts.intra_tiles as f64, "count");
    outcome.push("bdc.temporal_saved_pct", saved_pct, "%");
    outcome.push_ms("stream.wire_emit_ms_p50", p50(Layer::WireEmit));
    outcome.push("stream.wire_bytes", counts.wire_bytes as f64, "bytes");
    outcome.push_ms("bdc.decode_ms_p50", p50(Layer::Decode));
    outcome.push(
        "bdc.decode_mpx_per_s",
        timed_pixels / 1e6 / (total_ms(Layer::Decode) / 1e3),
        "Mpx/s",
    );
    outcome.push("client.consume_ms", stats::median(&link.consume_ms), "ms");
    outcome.push(
        "client.frames_on_time",
        delivery.frames_delivered as f64,
        "count",
    );
    outcome.push("client.frames_late", delivery.frames_late as f64, "count");
    outcome.push(
        "client.frames_dropped",
        delivery.frames_dropped as f64,
        "count",
    );
    outcome.push("client.goodput_mbits", delivery.goodput_mbits(), "Mbit/s");
    outcome.push("stream.worker_busy_s", worker_busy_s, "s");
    outcome.push("stream.render_busy_s", median_of(|s| s.render_busy_s), "s");
    outcome.push(
        "stream.worker_utilization",
        median_of(|s| s.worker_utilization),
        "ratio",
    );
    outcome.push(
        "stream.render_utilization",
        median_of(|s| s.render_utilization),
        "ratio",
    );
    outcome.push(
        "stream.queue_stalls",
        median_of(|s| s.queue_stalls),
        "count",
    );
    outcome.push(
        "stream.queue_peak_depth",
        median_of(|s| s.queue_peak_depth),
        "count",
    );
    outcome.push(
        "stream.map_cache_hit_rate",
        median_of(|s| s.map_cache_hit_rate),
        "ratio",
    );
    outcome.push("bench.unattributed_pct", unattributed_pct, "%");
    outcome.push(
        "bench.replay_frames",
        replay.traced.timed_frames() as f64,
        "count",
    );
    outcome.push("bench.replay_encode_s", replay_encode_s, "s");
    outcome.push("bench.busy_gap_pct", busy_gap_pct, "%");
    outcome.push(
        "trace.overhead_pct",
        100.0 * (untraced_mpx - traced_mpx) / untraced_mpx,
        "%",
    );
    outcome.push(
        "bench.span_overhead_pct",
        100.0 * (traced_p50 - plain_p50) / plain_p50,
        "%",
    );
}

/// The host the numbers were measured on, as one JSON object.
pub fn host_fingerprint() -> String {
    let features: Vec<&str> = [
        ("sse2", cfg!(target_feature = "sse2")),
        ("sse4.1", cfg!(target_feature = "sse4.1")),
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect();
    let nproc = std::process::Command::new("nproc")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.trim().parse::<u64>().ok())
        .map_or("null".to_string(), |n| n.to_string());
    format!(
        "{{\"available_threads\": {}, \"nproc\": {nproc}, \"target_features\": [{}], \
         \"profile\": \"{}\", \"arch\": \"{}\"}}",
        pvc_parallel::available_threads(),
        features
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(", "),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        std::env::consts::ARCH,
    )
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                if m.value.is_finite() { m.value } else { 0.0 },
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.correct(),
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.join(", ")
    )
}
