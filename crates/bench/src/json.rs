//! Minimal JSON emission for machine-readable bench reports.
//!
//! The stream binaries (`stream_throughput`, `session_churn`) print
//! human-readable tables; CI and cross-PR trend tracking want the same
//! numbers as structured data (`--json <path>`, captured as
//! `BENCH_*.json` artifacts). The environment has no `serde_json`, so
//! this module provides the few pieces actually needed: a [`Json`] value
//! tree, a strict renderer (escaped strings, non-finite floats as
//! `null`), and [`service_report_json`], the shared report builder.

use pvc_metrics::{SampleSummary, TemporalTotals, ThroughputReport, TierAggregates};
use pvc_stream::{ServiceReport, SessionReport, ShardReport};

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (covers every counter the benches emit).
    U64(u64),
    /// A floating-point number; non-finite values render as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl From<&str> for Json {
    fn from(value: &str) -> Json {
        Json::Str(value.to_string())
    }
}

impl From<u64> for Json {
    fn from(value: u64) -> Json {
        Json::U64(value)
    }
}

impl From<usize> for Json {
    fn from(value: usize) -> Json {
        Json::U64(value as u64)
    }
}

impl From<f64> for Json {
    fn from(value: f64) -> Json {
        Json::F64(value)
    }
}

impl From<bool> for Json {
    fn from(value: bool) -> Json {
        Json::Bool(value)
    }
}

/// Builds a [`Json::Object`] from `(key, value)` pairs.
pub fn object<const N: usize>(entries: [(&str, Json); N]) -> Json {
    Json::Object(
        entries
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

impl Json {
    /// Renders the value as a compact JSON document (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(value) => out.push_str(if *value { "true" } else { "false" }),
            Json::U64(value) => out.push_str(&value.to_string()),
            Json::F64(value) => {
                if value.is_finite() {
                    out.push_str(&value.to_string());
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(value) => write_escaped(value, out),
            Json::Array(items) => {
                out.push('[');
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(entries) => {
                out.push('{');
                for (index, (key, value)) in entries.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(value: &str, out: &mut String) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn throughput_json(throughput: &ThroughputReport) -> Json {
    object([
        ("frames", throughput.frames.into()),
        ("pixels", throughput.pixels.into()),
        ("bytes_in", throughput.bytes_in.into()),
        ("bytes_out", throughput.bytes_out.into()),
        ("wall_seconds", throughput.wall_seconds.into()),
        ("frames_per_second", throughput.frames_per_second().into()),
        (
            "megapixels_per_second",
            throughput.megapixels_per_second().into(),
        ),
        (
            "output_megabits_per_second",
            throughput.output_megabits_per_second().into(),
        ),
        (
            "bandwidth_reduction_percent",
            throughput.bandwidth_reduction_percent().into(),
        ),
    ])
}

/// Renders a [`TemporalTotals`] as the `temporal` JSON section: frame and
/// per-mode tile counts plus the emitted-vs-intra bit accounting.
pub fn temporal_json(totals: &TemporalTotals) -> Json {
    object([
        ("keyframes", totals.keyframes.into()),
        ("predicted_frames", totals.predicted_frames.into()),
        ("skip_tiles", totals.skip_tiles.into()),
        ("delta_tiles", totals.delta_tiles.into()),
        ("intra_tiles", totals.intra_tiles.into()),
        ("bits", totals.bits.into()),
        ("intra_bits", totals.intra_bits.into()),
        ("bits_saved", totals.bits_saved().into()),
        (
            "reduction_over_intra_percent",
            totals.reduction_over_intra_percent().into(),
        ),
    ])
}

fn summary_json(summary: Option<SampleSummary>) -> Json {
    match summary {
        None => Json::Null,
        Some(summary) => object([
            ("mean", summary.mean.into()),
            ("min", summary.min.into()),
            ("max", summary.max.into()),
            ("spread", (summary.max - summary.min).into()),
        ]),
    }
}

fn shard_json(shard: &ShardReport) -> Json {
    object([
        ("shard", shard.shard.into()),
        ("sessions", shard.sessions.into()),
        ("frames", shard.frames.into()),
        ("pixels", shard.pixels.into()),
        ("utilization", shard.utilization().into()),
        (
            "megapixels_per_second",
            shard.megapixels_per_second().into(),
        ),
        ("render_seconds", shard.render_seconds.into()),
        ("render_utilization", shard.render_utilization().into()),
    ])
}

fn session_json(session: &SessionReport) -> Json {
    object([
        ("session", session.session.into()),
        ("scene", session.scene.name().into()),
        ("tier", session.tier.name().into()),
        ("shard", session.shard.into()),
        ("cancelled", session.cancelled.into()),
        (
            "downgraded_from",
            session
                .downgraded_from
                .map_or(Json::Null, |tier| tier.name().into()),
        ),
        ("frames", session.throughput.frames.into()),
        ("bytes_out", session.throughput.bytes_out.into()),
        (
            "frames_per_second",
            session.throughput.frames_per_second().into(),
        ),
        (
            "megapixels_per_second",
            session.throughput.megapixels_per_second().into(),
        ),
        ("cache_hit_rate", session.cache.hit_rate().into()),
    ])
}

/// Builds the machine-readable report both stream binaries emit under
/// `--json`: aggregate rates, eccentricity-map cache counters, per-tier /
/// per-session / per-shard breakdowns, the shard utilization and
/// pixel-rate spreads, and the churn counters.
///
/// `sessions` must cover the whole fleet — including reports already
/// handed out by `StreamRuntime::retire` — since the [`ServiceReport`]
/// only retains the sessions nobody retired individually.
pub fn service_report_json(
    bench: &str,
    parameters: Vec<(String, Json)>,
    sessions: &[&SessionReport],
    report: &ServiceReport,
) -> Json {
    let mut tiers = TierAggregates::new();
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut fleet_temporal = TemporalTotals::default();
    let mut tier_temporal: Vec<(&str, TemporalTotals)> = Vec::new();
    for session in sessions {
        tiers.record(session.tier.name(), session.cancelled, &session.throughput);
        hits += session.cache.hits;
        misses += session.cache.misses;
        fleet_temporal.merge(&session.temporal);
        let label = session.tier.name();
        match tier_temporal.iter_mut().find(|(l, _)| *l == label) {
            Some((_, totals)) => totals.merge(&session.temporal),
            None => tier_temporal.push((label, session.temporal)),
        }
    }
    let hit_rate = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    let tier_entries: Vec<Json> = tiers
        .entries()
        .iter()
        .map(|tier| {
            object([
                ("tier", tier.label.as_str().into()),
                ("sessions", tier.sessions.into()),
                ("cancelled", tier.cancelled.into()),
                ("throughput", throughput_json(&tier.throughput)),
                (
                    "temporal",
                    tier_temporal
                        .iter()
                        .find(|(label, _)| *label == tier.label)
                        .map_or(Json::Null, |(_, totals)| temporal_json(totals)),
                ),
            ])
        })
        .collect();
    object([
        ("bench", bench.into()),
        ("parameters", Json::Object(parameters)),
        ("totals", throughput_json(&report.totals)),
        ("temporal", temporal_json(&fleet_temporal)),
        (
            "cache",
            object([
                ("hits", hits.into()),
                ("misses", misses.into()),
                ("hit_rate", hit_rate.into()),
            ]),
        ),
        ("tiers", Json::Array(tier_entries)),
        (
            "sessions",
            Json::Array(sessions.iter().map(|s| session_json(s)).collect()),
        ),
        (
            "shards",
            Json::Array(report.shards.iter().map(shard_json).collect()),
        ),
        (
            "shard_spread",
            object([
                ("utilization", summary_json(report.utilization_summary())),
                (
                    "megapixels_per_second",
                    summary_json(report.pixel_throughput_summary()),
                ),
            ]),
        ),
        (
            "churn",
            object([
                ("admitted", report.churn.admitted.into()),
                ("retired", report.churn.retired.into()),
                ("completed", report.churn.completed.into()),
                ("cancelled", report.churn.cancelled.into()),
                ("peak_concurrent", report.churn.peak_concurrent.into()),
            ]),
        ),
        (
            "elasticity",
            object([
                ("rejected", report.elasticity.rejected.into()),
                ("queued", report.elasticity.queued.into()),
                ("shed", report.elasticity.shed.into()),
                ("migrated", report.elasticity.migrated.into()),
                ("shards_spawned", report.elasticity.shards_spawned.into()),
                ("shards_drained", report.elasticity.shards_drained.into()),
            ]),
        ),
    ])
}

/// Appends a field to a [`Json::Object`] document (e.g. the optional
/// `link` section the stream binaries add under `--link`).
///
/// # Panics
///
/// Panics when `json` is not an object.
pub fn with_field(mut json: Json, key: &str, value: Json) -> Json {
    match &mut json {
        Json::Object(entries) => entries.push((key.to_string(), value)),
        other => panic!("with_field needs an object, got {other:?}"),
    }
    json
}

/// Writes a rendered JSON document (with a trailing newline) to `path`,
/// creating parent directories as needed.
///
/// # Errors
///
/// Returns the underlying I/O error if a directory or the file cannot be
/// written.
pub fn write_json(path: &std::path::Path, value: &Json) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, value.render() + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render_as_json_literals() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::U64(42).render(), "42");
        assert_eq!(Json::F64(1.5).render(), "1.5");
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::F64(f64::INFINITY).render(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            Json::Str("a\"b\\c\nd\u{1}".to_string()).render(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn arrays_and_objects_nest() {
        let value = object([
            ("name", "stream".into()),
            (
                "values",
                Json::Array(vec![1u64.into(), 2u64.into(), Json::Null]),
            ),
            ("nested", object([("ok", true.into())])),
        ]);
        assert_eq!(
            value.render(),
            r#"{"name":"stream","values":[1,2,null],"nested":{"ok":true}}"#
        );
    }

    #[test]
    fn service_report_json_covers_the_headline_numbers() {
        use pvc_frame::Dimensions;
        use pvc_stream::{ServiceConfig, StreamService};

        let mut service = StreamService::new(ServiceConfig::default().with_shards(2));
        service.admit_synthetic(3, Dimensions::new(32, 32), 2);
        let report = service.run();
        let sessions: Vec<&SessionReport> = report.sessions.iter().collect();
        let json = service_report_json(
            "test_bench",
            vec![("sessions".to_string(), 3usize.into())],
            &sessions,
            &report,
        );
        let rendered = json.render();
        for needle in [
            r#""bench":"test_bench""#,
            r#""frames":6"#,
            r#""hit_rate":"#,
            r#""shards":[{"shard":0"#,
            r#""render_utilization":"#,
            r#""churn":{"admitted":3"#,
            r#""elasticity":{"rejected":0"#,
            r#""downgraded_from":null"#,
            r#""tiers":[{"tier":"quest2""#,
        ] {
            assert!(rendered.contains(needle), "missing {needle} in {rendered}");
        }
    }

    #[test]
    fn write_json_creates_parent_directories() {
        let dir = std::env::temp_dir().join("pvc_json_test");
        let path = dir.join("nested").join("report.json");
        let _ = std::fs::remove_dir_all(&dir);
        write_json(&path, &object([("ok", true.into())])).expect("write succeeds");
        let written = std::fs::read_to_string(&path).expect("file exists");
        assert_eq!(written, "{\"ok\":true}\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
