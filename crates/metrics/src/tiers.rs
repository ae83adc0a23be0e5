//! Per-tier aggregation of streaming telemetry.
//!
//! A heterogeneous serving mix — Quest-2-class next to Vision-class
//! sessions — makes fleet-wide averages misleading: one Vision frame costs
//! several Quest-2 frames, so "mean FPS" says nothing about whether each
//! *class* of user is being served well. [`TierAggregates`] groups
//! per-session [`ThroughputReport`]s under caller-chosen tier labels so
//! services and benchmarks can print a per-tier table (sessions, frames,
//! FPS, pixel throughput, cancellations) next to the aggregate one.
//!
//! The crate stays decoupled from any particular tier taxonomy: labels are
//! plain strings, supplied by whoever defines the tiers (the streaming
//! crate's `ResolutionTier::name()`, a config file, …).

use crate::throughput::ThroughputReport;

/// Totals for one tier of sessions.
#[derive(Debug, Clone, PartialEq)]
pub struct TierAggregate {
    /// The tier label the sessions were recorded under.
    pub label: String,
    /// Number of sessions aggregated.
    pub sessions: u64,
    /// How many of them were hard-cancelled (partial streams).
    pub cancelled: u64,
    /// Merged frame/byte/pixel totals. `wall_seconds` is the longest
    /// member stream (see [`ThroughputReport::merge`]), so the derived
    /// rates read as "the tier's concurrent delivered rate".
    pub throughput: ThroughputReport,
}

/// Per-tier totals, in first-recorded order.
///
/// First-recorded order keeps the table stable for a fixed admission
/// sequence without imposing an alphabetic order that would split, say,
/// `quest2` from `quest-pro` visually.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TierAggregates {
    entries: Vec<TierAggregate>,
}

impl TierAggregates {
    /// Creates an empty aggregation.
    pub fn new() -> TierAggregates {
        TierAggregates::default()
    }

    /// Folds one session's telemetry into its tier's totals, creating the
    /// tier on first sight.
    pub fn record(&mut self, label: &str, cancelled: bool, throughput: &ThroughputReport) {
        let entry = match self.entries.iter_mut().find(|e| e.label == label) {
            Some(entry) => entry,
            None => {
                self.entries.push(TierAggregate {
                    label: label.to_string(),
                    sessions: 0,
                    cancelled: 0,
                    throughput: ThroughputReport::default(),
                });
                self.entries.last_mut().expect("just pushed")
            }
        };
        entry.sessions += 1;
        entry.cancelled += u64::from(cancelled);
        entry.throughput.merge(throughput);
    }

    /// The per-tier totals, in first-recorded order.
    pub fn entries(&self) -> &[TierAggregate] {
        &self.entries
    }

    /// Number of distinct tiers recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn throughput(frames: u64, pixels: u64, wall: f64) -> ThroughputReport {
        ThroughputReport {
            frames,
            bytes_in: pixels * 3,
            bytes_out: pixels,
            pixels,
            wall_seconds: wall,
        }
    }

    #[test]
    fn sessions_group_under_their_labels() {
        let mut tiers = TierAggregates::new();
        tiers.record("quest2", false, &throughput(10, 1000, 1.0));
        tiers.record("vision", false, &throughput(5, 4000, 2.0));
        tiers.record("quest2", true, &throughput(3, 300, 0.5));
        assert_eq!(tiers.len(), 2);
        let quest2 = &tiers.entries()[0];
        assert_eq!(quest2.label, "quest2");
        assert_eq!(quest2.sessions, 2);
        assert_eq!(quest2.cancelled, 1);
        assert_eq!(quest2.throughput.frames, 13);
        assert_eq!(quest2.throughput.pixels, 1300);
        assert!((quest2.throughput.wall_seconds - 1.0).abs() < 1e-12);
        let vision = &tiers.entries()[1];
        assert_eq!(vision.sessions, 1);
        assert_eq!(vision.throughput.pixels, 4000);
    }

    #[test]
    fn order_is_first_recorded() {
        let mut tiers = TierAggregates::new();
        tiers.record("z-tier", false, &throughput(1, 1, 1.0));
        tiers.record("a-tier", false, &throughput(1, 1, 1.0));
        let labels: Vec<&str> = tiers.entries().iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, ["z-tier", "a-tier"]);
    }

    #[test]
    fn empty_aggregation_reports_empty() {
        let tiers = TierAggregates::new();
        assert!(tiers.is_empty());
        assert_eq!(tiers.len(), 0);
        assert!(tiers.entries().is_empty());
    }
}
