//! Tier-2 allocation-regression pin for the scratch stream-encode path.
//!
//! The whole point of the scratch refactor is that a streaming session's
//! steady state performs **zero** heap allocation per frame: tile gathers,
//! ellipsoids, axis candidates, the adjusted frame in both color spaces
//! and the packed bitstream all live in buffers that warm up once and are
//! reused for the rest of the session. This test pins that property with
//! a counting global allocator so it cannot silently rot.
//!
//! The test lives alone in its own integration-test binary: the counter
//! is process-global, and a concurrently running sibling test would
//! attribute its allocations to the measured window.

use pvc_color::SyntheticDiscriminationModel;
use pvc_core::{BatchEncoder, EncoderConfig, StreamScratch};
use pvc_fovea::{DisplayGeometry, GazePoint};
use pvc_frame::Dimensions;
use pvc_scenes::{SceneConfig, SceneId, SceneRenderer};
use pvc_trace::{Marker, Recorder, Stage, TraceEpoch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Allocation / reallocation events since process start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator with an event counter in front.
struct CountingAllocator;

// SAFETY: delegates every operation verbatim to the system allocator; the
// counter has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_stream_frames_do_not_allocate() {
    let dims = Dimensions::new(96, 64);
    let renderer = SceneRenderer::new(SceneId::Office, SceneConfig::new(dims));
    let frames: Vec<_> = (0..4).map(|t| renderer.render_linear(t)).collect();
    // Two gazes so the warm-up also populates the eccentricity-map cache
    // for every gaze the measured pass will request.
    let gazes = [GazePoint::center_of(dims), GazePoint::new(10.0, 12.0)];

    let mut session = BatchEncoder::new(
        SyntheticDiscriminationModel::default(),
        EncoderConfig::default(),
        DisplayGeometry::quest2_like(dims),
    );
    let mut scratch = StreamScratch::new();
    let mut bitstream = Vec::new();

    // Tracing stays ON through the measured pass: the pin also covers the
    // pvc_trace recording path. The tiny ring capacity (4) forces the
    // overwrite-oldest wrap branch, the one that runs in steady state.
    let epoch = TraceEpoch::now();
    let mut recorder = Recorder::new(epoch, 4);
    recorder.mark(Marker::Admit, 0, 1);

    // Warm-up: builds the eccentricity maps and grows every scratch buffer
    // to its steady-state size.
    let mut warmup_bytes = 0usize;
    for frame in &frames {
        for &gaze in &gazes {
            session.encode_frame_stream_into(frame, gaze, &mut scratch, &mut bitstream);
            warmup_bytes += bitstream.len();
        }
    }
    assert!(warmup_bytes > 0, "the warm-up must produce real bitstreams");

    // Measured steady state: the exact same frame/gaze schedule again,
    // now recording the same spans a tracing shard thread records.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut measured_bytes = 0usize;
    let mut frame_index = 0u32;
    for frame in &frames {
        for &gaze in &gazes {
            let started = Instant::now();
            session.encode_frame_stream_into(frame, gaze, &mut scratch, &mut bitstream);
            let timing = scratch.last_timing();
            recorder.span_nanos(Stage::Adjust, 0, 1, frame_index, 0, timing.adjust);
            recorder.span_nanos(Stage::Gamma, 0, 1, frame_index, 0, timing.gamma);
            recorder.span_nanos(Stage::BdEncode, 0, 1, frame_index, 0, timing.bd_encode);
            recorder.span(Stage::WireEmit, 0, 1, frame_index, started);
            measured_bytes += bitstream.len();
            frame_index += 1;
        }
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(measured_bytes, warmup_bytes, "the workload must repeat");
    assert_eq!(
        allocations, 0,
        "steady-state stream frames must not allocate, tracing included \
         ({allocations} allocation events over 8 frames)"
    );
    assert_eq!(
        recorder.tables().total_count(),
        4 * u64::from(frame_index),
        "every measured span must have landed in the stage tables"
    );
    assert!(
        recorder.recorded() > 4,
        "the measured pass must have wrapped the 4-event ring"
    );
}
