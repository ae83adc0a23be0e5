//! Trace export shared by the stream binaries: the per-stage latency
//! table printed after a run, the `trace` section of `--json`, and the
//! Chrome trace-event document written under `--trace PATH`.
//!
//! The Chrome document follows the trace-event JSON format (load it in
//! `chrome://tracing` or <https://ui.perfetto.dev>): one *process* per
//! shard (its two threads are `tid 0` and `tid 1`), one process
//! for the runtime's control plane, and one for the decode-side clients.
//! Pipeline stages are `ph: "X"` complete events; admit/retire/cancel
//! are global `ph: "i"` instants. Timestamps are microseconds since the
//! run's trace epoch.

use crate::json::{object, Json};
use pvc_stream::ResolutionTier;
use pvc_trace::{
    EventKind, Lane, LatencyHistogram, Stage, ThreadTrace, TraceReport, TIER_CLASS_COUNT,
};

/// Stable label for a tier-class row: the [`ResolutionTier::ALL`] tier
/// names for the leading classes, `"other"` for the catch-all.
pub fn class_label(class: u8) -> &'static str {
    ResolutionTier::ALL
        .get(class as usize)
        .map_or("other", |tier| tier.name())
}

fn micros(nanos: u64) -> f64 {
    nanos as f64 / 1000.0
}

/// Shards with threads in the report; the control and client processes
/// get the pids just above.
fn worker_shards(report: &TraceReport) -> usize {
    report
        .threads
        .iter()
        .filter(|thread| matches!(thread.lane, Lane::Shard(_)))
        .map(|thread| thread.shard + 1)
        .max()
        .unwrap_or(0)
}

/// The Chrome `(pid, tid)` lane a thread renders into.
fn pid_tid(thread: &ThreadTrace, shards: usize) -> (u64, u64) {
    match thread.lane {
        Lane::Shard(index) => (thread.shard as u64, u64::from(index)),
        Lane::Control => (shards as u64, 0),
        // Clients carry their replay index in `shard`; it becomes the
        // tid inside one shared "clients" process.
        Lane::Client => (shards as u64 + 1, thread.shard as u64),
    }
}

fn metadata_event(name: &str, pid: u64, tid: u64, value: &str) -> Json {
    object([
        ("ph", "M".into()),
        ("name", name.into()),
        ("pid", pid.into()),
        ("tid", tid.into()),
        ("args", object([("name", value.into())])),
    ])
}

/// Builds the Chrome trace-event JSON document for a run's trace.
pub fn chrome_trace_json(report: &TraceReport) -> Json {
    let shards = worker_shards(report);
    let mut events: Vec<Json> = Vec::new();
    let mut named_pids: Vec<u64> = Vec::new();
    for thread in &report.threads {
        let (pid, tid) = pid_tid(thread, shards);
        if !named_pids.contains(&pid) {
            named_pids.push(pid);
            let process = match thread.lane {
                Lane::Shard(_) => format!("shard {}", thread.shard),
                Lane::Control => "control".to_string(),
                Lane::Client => "clients".to_string(),
            };
            events.push(metadata_event("process_name", pid, 0, &process));
        }
        let label = match thread.lane {
            Lane::Shard(index) => format!("thread {index}"),
            Lane::Client => format!("client {}", thread.shard),
            Lane::Control => thread.lane.name().to_string(),
        };
        events.push(metadata_event("thread_name", pid, tid, &label));
        for event in &thread.events {
            events.push(match event.kind {
                EventKind::Span(stage) => object([
                    ("name", stage.name().into()),
                    ("cat", thread.lane.name().into()),
                    ("ph", "X".into()),
                    ("pid", pid.into()),
                    ("tid", tid.into()),
                    ("ts", micros(event.start_nanos).into()),
                    ("dur", micros(event.duration_nanos).into()),
                    (
                        "args",
                        object([
                            ("session", event.session.into()),
                            ("tier", class_label(event.class).into()),
                            ("frame", u64::from(event.frame).into()),
                        ]),
                    ),
                ]),
                EventKind::Mark(marker) => object([
                    ("name", marker.name().into()),
                    ("cat", thread.lane.name().into()),
                    ("ph", "i".into()),
                    ("s", "g".into()),
                    ("pid", pid.into()),
                    ("tid", tid.into()),
                    ("ts", micros(event.start_nanos).into()),
                    (
                        "args",
                        object([
                            ("session", event.session.into()),
                            ("tier", class_label(event.class).into()),
                        ]),
                    ),
                ]),
            });
        }
    }
    object([("traceEvents", Json::Array(events))])
}

fn stage_cell_json(stage: Stage, tier: &str, histogram: &LatencyHistogram) -> Json {
    object([
        ("stage", stage.name().into()),
        ("tier", tier.into()),
        ("count", histogram.count().into()),
        ("p50_us", micros(histogram.p50().unwrap_or(0)).into()),
        ("p90_us", micros(histogram.p90().unwrap_or(0)).into()),
        ("p99_us", micros(histogram.p99().unwrap_or(0)).into()),
        ("max_us", micros(histogram.max_nanos().unwrap_or(0)).into()),
        (
            "mean_us",
            (histogram.mean_nanos().unwrap_or(0.0) / 1000.0).into(),
        ),
    ])
}

/// The `trace` section of the benches' `--json` document: event totals
/// plus one row per non-empty `(stage, tier)` histogram cell.
pub fn trace_section_json(report: &TraceReport) -> Json {
    let mut stages: Vec<Json> = Vec::new();
    for &stage in Stage::ALL.iter() {
        for class in 0..TIER_CLASS_COUNT as u8 {
            let histogram = report.class_stage_histogram(class, stage);
            if histogram.is_empty() {
                continue;
            }
            stages.push(stage_cell_json(stage, class_label(class), &histogram));
        }
    }
    object([
        ("events", report.total_events().into()),
        ("dropped", report.dropped_events().into()),
        ("threads", report.threads.len().into()),
        ("stages", Json::Array(stages)),
    ])
}

/// Prints the human-readable per-stage latency table (one row per stage,
/// merged over every tier class and thread; empty stages are skipped).
pub fn print_stage_table(report: &TraceReport) {
    println!(
        "\nstage latency (us): {} events traced, {} scrolled out of the rings",
        report.total_events(),
        report.dropped_events(),
    );
    println!("stage         count      p50      p90      p99      max     mean");
    for &stage in Stage::ALL.iter() {
        let histogram = report.stage_histogram(stage);
        if histogram.is_empty() {
            continue;
        }
        println!(
            "{:<12} {:>6} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
            stage.name(),
            histogram.count(),
            micros(histogram.p50().unwrap_or(0)),
            micros(histogram.p90().unwrap_or(0)),
            micros(histogram.p99().unwrap_or(0)),
            micros(histogram.max_nanos().unwrap_or(0)),
            histogram.mean_nanos().unwrap_or(0.0) / 1000.0,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_trace::{Marker, Recorder, TraceEpoch};

    fn sample_report() -> TraceReport {
        let epoch = TraceEpoch::now();
        let mut report = TraceReport::new(epoch);
        let mut first = Recorder::new(epoch, 8);
        first.span_nanos(Stage::Render, 0, 1, 0, 0, 2_000);
        report.threads.push(first.into_thread(0, Lane::Shard(0)));
        let mut second = Recorder::new(epoch, 8);
        second.span_nanos(Stage::BdEncode, 2, 1, 0, 2_500, 1_500);
        report.threads.push(second.into_thread(0, Lane::Shard(1)));
        let mut control = Recorder::new(epoch, 8);
        control.mark(Marker::Admit, 0, 1);
        report.threads.push(control.into_thread(1, Lane::Control));
        let mut client = Recorder::new(epoch, 8);
        client.span_nanos(Stage::Decode, 2, 1, 0, 5_000, 700);
        report.threads.push(client.into_thread(0, Lane::Client));
        report
    }

    #[test]
    fn class_labels_follow_the_tier_order() {
        assert_eq!(class_label(0), ResolutionTier::ALL[0].name());
        assert_eq!(class_label(pvc_trace::CLASS_OTHER), "other");
        assert_eq!(class_label(200), "other");
    }

    #[test]
    fn chrome_trace_covers_every_lane() {
        let rendered = chrome_trace_json(&sample_report()).render();
        for needle in [
            r#""traceEvents":["#,
            r#""name":"process_name""#,
            r#""name":"shard 0""#,
            r#""name":"control""#,
            r#""name":"clients""#,
            r#""name":"client 0""#,
            r#""name":"thread 0""#,
            r#""name":"thread 1""#,
            r#""name":"render","cat":"shard","ph":"X","pid":0,"tid":0,"ts":0,"dur":2"#,
            r#""name":"bd_encode","cat":"shard","ph":"X","pid":0,"tid":1,"ts":2.5,"dur":1.5"#,
            r#""name":"decode","cat":"client","ph":"X","pid":2,"tid":0"#,
            r#""name":"admit","cat":"control","ph":"i","s":"g","pid":1,"tid":0"#,
        ] {
            assert!(rendered.contains(needle), "missing {needle} in {rendered}");
        }
    }

    #[test]
    fn trace_section_lists_only_non_empty_cells() {
        let report = sample_report();
        let rendered = trace_section_json(&report).render();
        assert!(rendered.contains(r#""events":4"#));
        assert!(rendered.contains(r#""dropped":0"#));
        assert!(rendered.contains(r#""threads":4"#));
        // Three span cells recorded: render (class 0), bd_encode and
        // decode (class 2). The marker is not a stage sample.
        assert!(rendered.contains(r#""stage":"render""#));
        assert!(rendered.contains(r#""stage":"bd_encode""#));
        assert!(rendered.contains(r#""stage":"decode""#));
        assert!(
            !rendered.contains(r#""stage":"gamma""#),
            "empty cells stay out"
        );
        assert!(rendered.contains(&format!(r#""tier":"{}""#, ResolutionTier::ALL[2].name())));
        assert!(
            rendered.contains(r#""p50_us":2"#),
            "render p50 in {rendered}"
        );
    }
}
