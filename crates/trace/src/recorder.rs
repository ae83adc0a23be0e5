//! Per-thread recorders, stage tables, and the run-level trace report.

use crate::histogram::LatencyHistogram;
use crate::ring::{EventKind, EventRing, TraceEvent};
use crate::stage::{Marker, Stage, TIER_CLASS_COUNT};
use std::time::Instant;

/// The instant all trace timestamps are measured from: captured once when
/// the runtime starts and shared by every thread, so spans recorded on
/// different threads line up on one timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEpoch(Instant);

impl TraceEpoch {
    /// Captures the current instant as the epoch.
    pub fn now() -> Self {
        TraceEpoch(Instant::now())
    }

    /// Nanoseconds from the epoch to `instant`, saturating at 0 for
    /// instants before the epoch.
    pub fn nanos_since(&self, instant: Instant) -> u64 {
        instant
            .checked_duration_since(self.0)
            .map_or(0, |elapsed| elapsed.as_nanos() as u64)
    }

    /// Nanoseconds from the epoch to now.
    pub fn elapsed_nanos(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Which pipeline thread a [`ThreadTrace`] came from; fixes the Chrome
/// `tid` lane and its display name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// One of a shard's threads, by index within the shard. Each renders,
    /// encodes and emits whole frames; the index keeps the two apart.
    Shard(u8),
    /// The runtime's control plane (admit/retire/cancel markers).
    Control,
    /// A client replaying wire streams (link transit + decode).
    Client,
}

impl Lane {
    /// Stable display name for trace export.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Shard(_) => "shard",
            Lane::Control => "control",
            Lane::Client => "client",
        }
    }
}

/// A fixed `TIER_CLASS_COUNT × Stage::COUNT` grid of latency histograms,
/// allocated once at construction. Recording indexes straight into the
/// grid — no allocation, no hashing.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTables {
    tables: Vec<LatencyHistogram>,
}

impl Default for StageTables {
    fn default() -> Self {
        StageTables::new()
    }
}

impl StageTables {
    /// Creates an empty grid (every histogram pre-allocated).
    pub fn new() -> Self {
        StageTables {
            tables: vec![LatencyHistogram::new(); TIER_CLASS_COUNT * Stage::COUNT],
        }
    }

    fn slot(class: u8, stage: Stage) -> usize {
        (class as usize).min(TIER_CLASS_COUNT - 1) * Stage::COUNT + stage.index()
    }

    /// The histogram for one (tier class, stage) cell. Classes beyond the
    /// grid clamp to the catch-all [`crate::CLASS_OTHER`] row.
    pub fn get(&self, class: u8, stage: Stage) -> &LatencyHistogram {
        &self.tables[Self::slot(class, stage)]
    }

    /// Records a sample into one cell.
    pub fn record(&mut self, class: u8, stage: Stage, nanos: u64) {
        self.tables[Self::slot(class, stage)].record(nanos);
    }

    /// Folds another grid into this one, cell by cell.
    pub fn merge(&mut self, other: &StageTables) {
        for (mine, theirs) in self.tables.iter_mut().zip(other.tables.iter()) {
            mine.merge(theirs);
        }
    }

    /// One stage's histogram merged across every tier class.
    pub fn stage_merged(&self, stage: Stage) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for class in 0..TIER_CLASS_COUNT {
            merged.merge(self.get(class as u8, stage));
        }
        merged
    }

    /// Total samples across the whole grid.
    pub fn total_count(&self) -> u64 {
        self.tables.iter().map(LatencyHistogram::count).sum()
    }
}

/// One pipeline thread's tracing state: an event ring plus stage tables,
/// all storage pre-allocated by [`Recorder::new`]. Recording a span or a
/// marker is a few integer stores — the hot path never allocates.
#[derive(Debug, Clone, PartialEq)]
pub struct Recorder {
    epoch: TraceEpoch,
    ring: EventRing,
    tables: StageTables,
}

impl Recorder {
    /// Creates a recorder with a ring of `ring_capacity` events. All
    /// allocation happens here, before the hot path starts.
    pub fn new(epoch: TraceEpoch, ring_capacity: usize) -> Self {
        Recorder {
            epoch,
            ring: EventRing::with_capacity(ring_capacity),
            tables: StageTables::new(),
        }
    }

    /// The epoch this recorder's timestamps are relative to.
    pub fn epoch(&self) -> TraceEpoch {
        self.epoch
    }

    /// Records a span that began at `started` and ends now.
    pub fn span(&mut self, stage: Stage, class: u8, session: u64, frame: u32, started: Instant) {
        let duration_nanos = started.elapsed().as_nanos() as u64;
        let start_nanos = self.epoch.nanos_since(started);
        self.span_nanos(stage, class, session, frame, start_nanos, duration_nanos);
    }

    /// Records a span from pre-computed epoch-relative nanoseconds (used
    /// for virtual-time stages like simulated link transit).
    pub fn span_nanos(
        &mut self,
        stage: Stage,
        class: u8,
        session: u64,
        frame: u32,
        start_nanos: u64,
        duration_nanos: u64,
    ) {
        self.ring.record(TraceEvent {
            kind: EventKind::Span(stage),
            session,
            class,
            frame,
            start_nanos,
            duration_nanos,
        });
        self.tables.record(class, stage, duration_nanos);
    }

    /// Records an instant control-plane marker, stamped now.
    pub fn mark(&mut self, marker: Marker, class: u8, session: u64) {
        self.ring.record(TraceEvent {
            kind: EventKind::Mark(marker),
            session,
            class,
            frame: 0,
            start_nanos: self.epoch.elapsed_nanos(),
            duration_nanos: 0,
        });
    }

    /// The stage tables accumulated so far.
    pub fn tables(&self) -> &StageTables {
        &self.tables
    }

    /// Events recorded so far (including any that scrolled out).
    pub fn recorded(&self) -> u64 {
        self.ring.recorded()
    }

    /// Seals the recorder into its thread's finished trace.
    pub fn into_thread(self, shard: usize, lane: Lane) -> ThreadTrace {
        let dropped = self.ring.dropped();
        ThreadTrace {
            shard,
            lane,
            events: self.ring.into_ordered(),
            stages: self.tables,
            dropped,
        }
    }
}

/// One finished thread's trace: ordered events plus its stage tables.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadTrace {
    /// The shard the thread belonged to (clients use their replay index).
    pub shard: usize,
    /// Which pipeline lane the thread was.
    pub lane: Lane,
    /// Events oldest → newest (at most the ring capacity).
    pub events: Vec<TraceEvent>,
    /// Per-stage, per-tier latency histograms (never truncated — every
    /// span is counted even when its event scrolled out of the ring).
    pub stages: StageTables,
    /// Events that scrolled out of the ring.
    pub dropped: u64,
}

/// The whole run's trace: every thread's sealed trace plus the shared
/// epoch, attached to `ServiceReport` and consumed by the exporters.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// The epoch all event timestamps are relative to.
    pub epoch: TraceEpoch,
    /// Every collected thread trace, sorted by (shard, lane order).
    pub threads: Vec<ThreadTrace>,
}

impl TraceReport {
    /// Creates an empty report anchored at `epoch`.
    pub fn new(epoch: TraceEpoch) -> Self {
        TraceReport {
            epoch,
            threads: Vec::new(),
        }
    }

    /// One stage's histogram merged across all threads and tier classes.
    pub fn stage_histogram(&self, stage: Stage) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for thread in &self.threads {
            merged.merge(&thread.stages.stage_merged(stage));
        }
        merged
    }

    /// One (tier class, stage) cell merged across all threads.
    pub fn class_stage_histogram(&self, class: u8, stage: Stage) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for thread in &self.threads {
            merged.merge(thread.stages.get(class, stage));
        }
        merged
    }

    /// Total events recorded across all threads, including scrolled-out.
    pub fn total_events(&self) -> u64 {
        self.threads
            .iter()
            .map(|thread| thread.events.len() as u64 + thread.dropped)
            .sum()
    }

    /// Total events that scrolled out of their rings.
    pub fn dropped_events(&self) -> u64 {
        self.threads.iter().map(|thread| thread.dropped).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::CLASS_OTHER;
    use std::time::Duration;

    #[test]
    fn epoch_saturates_before_start() {
        let later = Instant::now();
        let epoch = TraceEpoch(later + Duration::from_secs(1));
        assert_eq!(epoch.nanos_since(later), 0);
    }

    #[test]
    fn class_clamps_to_other() {
        let mut tables = StageTables::new();
        tables.record(200, Stage::Render, 10);
        assert_eq!(tables.get(CLASS_OTHER, Stage::Render).count(), 1);
        assert_eq!(tables.total_count(), 1);
    }

    #[test]
    fn report_merges_across_threads() {
        let epoch = TraceEpoch::now();
        let mut report = TraceReport::new(epoch);
        for shard in 0..2 {
            let mut recorder = Recorder::new(epoch, 8);
            recorder.span_nanos(Stage::BdEncode, 0, 1, 0, 0, 1_000);
            recorder.span_nanos(Stage::BdEncode, 1, 2, 0, 0, 2_000);
            recorder.mark(Marker::Admit, 0, 1);
            report
                .threads
                .push(recorder.into_thread(shard, Lane::Shard(0)));
        }
        let merged = report.stage_histogram(Stage::BdEncode);
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.max_nanos(), Some(2_000));
        assert_eq!(report.class_stage_histogram(0, Stage::BdEncode).count(), 2);
        assert_eq!(report.total_events(), 6);
        assert_eq!(report.dropped_events(), 0);
    }
}
