//! A toy-size run of every workload, untraced and traced, must pass its
//! output checks and report exactly the metrics `BENCHMARK.json` names,
//! each finite and with the listed unit.

use perfbench::workload::Workload;
use perfbench::{result_json, run, Options};
use pvc_frame::Dimensions;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section is an array");
    let field = |entry: &str, key: &str| -> String {
        let marker = format!("\"{key}\": \"");
        let from = entry.find(&marker).expect("key present") + marker.len();
        entry[from..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_string()
    };
    body[..end]
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn toy_runs_report_every_listed_metric() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    assert_eq!(end_to_end.len(), 8);
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = run(&Options {
                workload,
                seed: 7,
                seconds: 0.01,
                trace,
                base: Dimensions::new(16, 16),
            });
            let context = format!("{} trace={trace}", workload.name());
            assert!(
                outcome.tally.correct(),
                "{context}: {:?}",
                outcome.tally.problems
            );
            assert!(outcome.tally.attempted > 0, "{context}");
            let expected = if trace { &per_layer } else { &end_to_end };
            let reported: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(&reported, expected, "{context}");
            for metric in &outcome.metrics {
                assert!(metric.value.is_finite(), "{context}: {metric:?}");
            }
            let line = result_json(&outcome);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
        }
    }
}
