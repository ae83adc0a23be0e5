//! Allocation-free per-stage tracing for the serving pipeline.
//!
//! The serving runtime reports end-of-run aggregates, which say *how much*
//! work happened but not *where a frame's time went*. This crate supplies
//! the missing substrate:
//!
//! - [`Stage`] / [`Marker`]: a closed taxonomy of pipeline stages (render,
//!   adjust, gamma, BD encode, wire emit, link transit, decode)
//!   and control-plane markers (admit, retire, cancel).
//! - [`LatencyHistogram`]: a fixed-bucket, log₂-scaled latency histogram
//!   with lossless merge and p50/p90/p99/max readouts.
//! - [`EventRing`]: a fixed-capacity, pre-allocated ring of
//!   [`TraceEvent`]s. Recording is a handful of stores — **zero heap
//!   allocation** — so the hot path stays pinned allocation-free with
//!   tracing enabled.
//! - [`Recorder`]: one per pipeline thread, owning a ring plus per-stage,
//!   per-tier histogram tables; sealed into a [`ThreadTrace`] when the
//!   thread exits and collected into a [`TraceReport`].
//!
//! Timestamps are nanoseconds relative to a shared [`TraceEpoch`], which
//! maps directly onto the microsecond `ts`/`dur` fields of the Chrome
//! trace-event format (the export itself lives in `pvc_bench`, keeping
//! this crate dependency-free).
//!
//! # Examples
//!
//! ```
//! use pvc_trace::{Lane, Recorder, Stage, TraceEpoch, TraceReport};
//!
//! let epoch = TraceEpoch::now();
//! let mut recorder = Recorder::new(epoch, 128);
//! let started = std::time::Instant::now();
//! // ... do the stage's work ...
//! recorder.span(Stage::BdEncode, 0, 7, 0, started);
//!
//! let mut report = TraceReport::new(epoch);
//! report.threads.push(recorder.into_thread(0, Lane::Shard(0)));
//! assert_eq!(report.stage_histogram(Stage::BdEncode).count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod recorder;
mod ring;
mod stage;

pub use histogram::{LatencyHistogram, BUCKET_COUNT};
pub use recorder::{Lane, Recorder, StageTables, ThreadTrace, TraceEpoch, TraceReport};
pub use ring::{EventKind, EventRing, TraceEvent};
pub use stage::{Marker, Stage, CLASS_OTHER, TIER_CLASS_COUNT};
