//! The long-lived streaming runtime: persistent shard threads, dynamic
//! session churn, pluggable placement.
//!
//! [`StreamRuntime`] is the serving core the batch-style
//! [`crate::StreamService`] wraps. It spawns each shard's two threads once
//! at [`StreamRuntime::start`] and keeps them alive until
//! [`StreamRuntime::shutdown`]. In between, sessions are
//! [admitted](StreamRuntime::admit) and [retired](StreamRuntime::retire)
//! dynamically while other sessions' frames are in flight.
//!
//! # Threading model
//!
//! A shard is a mutex-guarded FIFO of ready sessions served by two
//! identical threads. Each one loops: claim the session at the head of
//! the FIFO, render its next frame into the thread's own buffer, encode it
//! with the session's [`BatchEncoder`], emit it to the session's sinks,
//! then return the session to the tail — or finalize it once its frame
//! budget is spent.
//!
//! ```text
//!             admit / cancel / shed / migrate, under the shard lock
//! runtime ──────────────────────────────┐
//!                                       ▼
//!                        ready FIFO  [A, B, C, …]
//!                  claim head ┌─────────┴─────────┐ claim head
//!                return tail  ▼                   ▼  return tail
//!                    shard thread 0        shard thread 1
//!               render → encode → emit   render → encode → emit
//!                             │                   │
//! runtime ◄───────────────────┴───────────────────┘
//!            report channel (each session's final report)
//! ```
//!
//! Only one thread holds a session at a time, so its frames are encoded in
//! order, and the return to the tail keeps the frame-major round-robin
//! (A0 B0 A1 B1 …). The control verbs ([`StreamRuntime::retire_now`],
//! [`StreamRuntime::shed`], [`StreamRuntime::migrate`]) act on a session
//! under the shard lock once no thread holds it, so they wait at most one
//! frame. The trade-off: a shard with a single live session keeps only one
//! of its threads busy, rendering and encoding that session serially.
//!
//! # Steady-state allocation
//!
//! The per-frame path is allocation-free once warm. Each shard thread
//! keeps one render buffer
//! ([`pvc_scenes::SceneRenderer::render_linear_into`]), one
//! [`StreamScratch`] (tile adjustment buffers, adjusted frame, bitstream
//! writer) and one bitstream buffer alive for its whole lifetime, and runs
//! every session's frames through them
//! ([`BatchEncoder::encode_frame_stream_into`]). Session churn — not frame
//! count — bounds the shard's allocations. None of this moves a single
//! encoded bit: the `alloc_regression` test in `pvc_core` pins the
//! zero-allocation property, the determinism tests here pin the bits.
//!
//! # Heterogeneous sessions
//!
//! Sessions need not look alike: each one carries its own
//! [`SessionProfile`] (resolution tier, render
//! size, frame budget, gaze model, optional tile size), and each shard
//! keeps **pixel counters** next to its session count — committed session
//! pixels and remaining pixels — so cost-aware placement (e.g.
//! [`crate::LeastLoaded`]) can weigh a Vision-class session as the ~3.3×
//! load it actually is.
//!
//! # Retirement: graceful vs hard-cancel
//!
//! [`StreamRuntime::retire`] is graceful — the session finishes its frame
//! budget, so its stream is bit-identical to an uninterrupted run.
//! [`StreamRuntime::retire_now`] models a user yanking the headset: the
//! session stops after the frame in flight (if any), and the final report
//! comes back partial, flagged `cancelled`. How many frames the cancelled
//! session got is timing-dependent — but the *surviving* sessions' streams
//! are not perturbed by a single bit (pinned by
//! `tests/cancel_determinism.rs`).
//!
//! # Elasticity
//!
//! The shard fleet is dynamic. [`StreamRuntime::spawn_shard`] adds a
//! shard mid-flight (stable, never-reused ids); [`StreamRuntime::drain_shard`]
//! migrates a shard's members off and winds its threads down;
//! [`StreamRuntime::migrate`] moves one live session between shards with
//! its digest/wire sinks carried mid-chain and its encoder rebuilt from
//! config on arrival; [`StreamRuntime::shed`] downgrades a live session's
//! resolution tier in place, re-deriving renderer, gaze trace and encoder
//! from the lower profile and stamping a tier-change record into the wire
//! stream. All four are counted in [`ElasticityCounters`] and marked on
//! the control trace lane. The policy loop that decides *when* to do any
//! of this lives one layer up, in [`crate::controller`].
//!
//! # Determinism
//!
//! A session's encoded stream is **bit-identical** regardless of shard
//! count, placement policy, admission order, retirement timing, which of
//! a shard's threads runs each frame, or other sessions being
//! hard-cancelled around it: it is encoded in frame order, one frame at a
//! time, by an encoder built only from the session's own config. Placement
//! and churn move *where* and *when* that happens — never *what* is
//! produced. Migration preserves this (the whole stream stays
//! bit-identical to the solo run), and a shed session's post-downgrade
//! stream is bit-identical to a solo run started at the lower profile from
//! the same frame index — both pinned by `tests/migration_determinism.rs`.
//! Only wall-clock telemetry is machine- and timing-dependent, and only a
//! hard-cancelled session's own stream *length* is timing-dependent (a
//! prefix of its solo stream).

use crate::gaze::GazeTrace;
use crate::placement::{Placement, ShardLoad, Static};
use crate::service::{ServiceConfig, ServiceReport, ShardReport};
use crate::session::{
    SessionConfig, SessionProfile, SessionReport, FNV_OFFSET_BASIS, GAZE_SEED_SALT,
};
use crate::wire::{DigestSink, FrameSink, WireSessionHeader, WireSink, WireTierChange};
use pvc_color::{LinearRgb, SyntheticDiscriminationModel};
use pvc_core::{BatchCacheStats, BatchEncoder, StreamScratch};
use pvc_fovea::DisplayGeometry;
use pvc_frame::{Dimensions, LinearFrame};
use pvc_metrics::{ChurnCounters, ElasticityCounters, TemporalTotals, ThroughputReport};
use pvc_scenes::{SceneConfig, SceneRenderer};
use pvc_trace::{Lane, Marker, Recorder, Stage, ThreadTrace, TraceEpoch, TraceReport, CLASS_OTHER};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the runtime's blocking report waits wake up to check shard
/// thread health. The runtime retains a report sender (so it can spawn
/// shards later), which means the channel never closes on its own — a
/// shard thread panicking is detected by polling
/// [`JoinHandle::is_finished`] on this cadence instead.
const EVENT_POLL: Duration = Duration::from_millis(25);

/// Threads per shard. Both run [`run_shard_thread`]; the count is fixed,
/// and it is the thread budget a fleet sizes its shard count for
/// (`available_threads / 2` shards saturate the machine).
pub(crate) const THREADS_PER_SHARD: u8 = 2;

/// One live session: its config, the render side (renderer, gaze trace)
/// and the encode side (encoder, report, sinks) derived from it.
///
/// Between frames it waits in its shard's ready FIFO; while a frame is in
/// flight exactly one shard thread holds it. Every control verb acts on it
/// only while it waits, under the shard lock.
struct Session {
    id: usize,
    config: SessionConfig,
    renderer: SceneRenderer,
    trace: GazeTrace,
    encoder: BatchEncoder<SyntheticDiscriminationModel>,
    report: SessionReport,
    /// The telemetry sink (digest chain, optional payload collection).
    digest: DigestSink,
    /// The serving sink (framed wire stream), when collection is on.
    wire: Option<WireSink>,
    /// Encode-start instant of the session's first frame (on any shard);
    /// per-session wall-clock runs from here to the end of the last
    /// frame's encode.
    first_frame: Option<Instant>,
    /// Cache counters from previous encoder incarnations (tier sheds and
    /// migrations rebuild the encoder). Summed with the live encoder's
    /// stats at finalization.
    carried_cache: BatchCacheStats,
}

/// The render side of a session: renderer and gaze trace, both pure
/// functions of the config. `render_linear_into(t, ..)` depends only on
/// `t`, so a session rebuilt at any frame index renders exactly the frames
/// a solo run would.
fn render_side(config: &SessionConfig) -> (SceneRenderer, GazeTrace) {
    let renderer = SceneRenderer::new(
        config.scene,
        SceneConfig::new(config.dimensions()).with_seed(config.seed),
    );
    let trace = GazeTrace::synthesize(
        &config.gaze_model(),
        config.dimensions(),
        config.seed ^ GAZE_SEED_SALT,
        config.frames() as usize,
    );
    (renderer, trace)
}

/// Builds a session's encoder from the service config plus the session
/// profile's overrides, returning it with the effective tile size (which
/// the wire header / tier-change record reports). Called at open, shed
/// and migration — always from the session's *current* config, so every
/// incarnation is a pure function of the config.
fn encoder_for(
    service: &ServiceConfig,
    config: &SessionConfig,
) -> (BatchEncoder<SyntheticDiscriminationModel>, u32) {
    // The profile may override the service-wide tile size; everything
    // else about the encoder configuration is shared.
    let mut encoder_config = service.encoder.clone();
    if let Some(tile_size) = config.profile.tile_size {
        encoder_config = encoder_config.with_tile_size(tile_size);
    }
    let tile_size = encoder_config.tile_size;
    let encoder = BatchEncoder::new(
        SyntheticDiscriminationModel::default(),
        encoder_config,
        DisplayGeometry::quest2_like(config.dimensions()),
    );
    (encoder, tile_size)
}

/// Sums cache counters across encoder incarnations (see
/// [`Session::carried_cache`]).
fn merge_cache(mut base: BatchCacheStats, current: BatchCacheStats) -> BatchCacheStats {
    base.hits += current.hits;
    base.misses += current.misses;
    base.entries += current.entries;
    base
}

/// What one frame cost its shard thread, folded into the shard's
/// counters when the session is handed back.
struct FrameCost {
    pixels: u64,
    render_nanos: u64,
    encode_nanos: u64,
}

/// A shard thread's own buffers, reused for every frame it runs.
struct ThreadBuffers {
    frame: LinearFrame,
    scratch: StreamScratch,
    bitstream: Vec<u8>,
}

impl Session {
    /// Opens a fresh session on `shard` and writes its wire header.
    fn open(id: usize, shard: usize, service: &ServiceConfig, config: SessionConfig) -> Box<Self> {
        let (encoder, tile_size) = encoder_for(service, &config);
        let (renderer, trace) = render_side(&config);
        let header = WireSessionHeader {
            session: id as u64,
            tier: config.profile.tier,
            width: config.dimensions().width,
            height: config.dimensions().height,
            tile_size,
            frame_budget: config.frames(),
        };
        let mut session = Box::new(Session {
            id,
            report: SessionReport {
                session: id,
                scene: config.scene,
                tier: config.profile.tier,
                shard,
                cancelled: false,
                throughput: ThroughputReport::default(),
                cache: BatchCacheStats::default(),
                temporal: TemporalTotals::default(),
                stream_digest: FNV_OFFSET_BASIS,
                payloads: None,
                wire_stream: None,
                downgraded_from: None,
                downgrade_frame: None,
            },
            config,
            renderer,
            trace,
            encoder,
            digest: DigestSink::new(service.collect_payloads),
            wire: service.collect_wire.then(WireSink::new),
            first_frame: None,
            carried_cache: BatchCacheStats::default(),
        });
        for sink in session.sinks() {
            sink.start(&header);
        }
        session
    }

    /// The index of the next frame to render and encode: every frame so
    /// far was encoded exactly once, in order.
    fn next_frame(&self) -> u32 {
        self.report.throughput.frames as u32
    }

    /// Whether the frame budget is spent.
    fn finished(&self) -> bool {
        self.next_frame() >= self.config.frames()
    }

    /// The pixels the session is still due to render.
    fn remaining_pixels(&self) -> u64 {
        self.config.pixel_cost() * u64::from(self.config.frames().saturating_sub(self.next_frame()))
    }

    /// The session's frame sinks: telemetry first, then (when enabled)
    /// the wire stream. Every encoded frame goes through each.
    fn sinks(&mut self) -> impl Iterator<Item = &mut dyn FrameSink> {
        std::iter::once(&mut self.digest as &mut dyn FrameSink)
            .chain(self.wire.iter_mut().map(|sink| sink as &mut dyn FrameSink))
    }

    /// Renders, encodes and emits the session's next frame through the
    /// calling thread's buffers.
    ///
    /// With tracing on, the frame contributes render, adjust, gamma and
    /// BD-encode spans (the encode sub-stages come from the scratch's
    /// [`StreamScratch::last_timing`] breakdown, chained from the encode
    /// start — the gaze-map lookup before adjust is untraced) plus a
    /// wire-emit span around the sink fan-out. All of it is clock reads
    /// and integer stores: no allocation, no encoded-bit drift.
    fn run_frame(
        &mut self,
        buffers: &mut ThreadBuffers,
        mut recorder: Option<&mut Recorder>,
    ) -> FrameCost {
        let index = self.next_frame();
        let class = self.config.profile.tier.class_index();
        let pixels = self.config.pixel_cost();
        let render_start = Instant::now();
        self.renderer.render_linear_into(index, &mut buffers.frame);
        let render_nanos = render_start.elapsed().as_nanos() as u64;
        let encode_start = Instant::now();
        let first_frame = *self.first_frame.get_or_insert(encode_start);
        let stats = self.encoder.encode_frame_stream_into(
            &buffers.frame,
            self.trace.samples()[index as usize],
            &mut buffers.scratch,
            &mut buffers.bitstream,
        );
        let encode_nanos = encode_start.elapsed().as_nanos() as u64;
        let report = &mut self.report;
        report.temporal.record_frame(
            stats.temporal.keyframe,
            stats.temporal.skip_tiles,
            stats.temporal.delta_tiles,
            stats.temporal.intra_tiles,
            stats.temporal.bits,
            stats.temporal.intra_bits,
        );
        report.throughput.record_frame_bits(
            stats.compression.uncompressed_bits,
            buffers.bitstream.len() as u64,
            pixels,
        );
        // Per-session wall-clock: first frame's encode start to the
        // latest frame's encode end. Refreshed every frame so the final
        // value lands on the last frame without needing one.
        report.throughput.wall_seconds = first_frame.elapsed().as_secs_f64();
        let session = self.id as u64;
        if let Some(recorder) = recorder.as_deref_mut() {
            let render_at = recorder.epoch().nanos_since(render_start);
            recorder.span_nanos(
                Stage::Render,
                class,
                session,
                index,
                render_at,
                render_nanos,
            );
            record_encode_spans(
                recorder,
                class,
                session,
                index,
                encode_start,
                buffers.scratch.last_timing(),
            );
        }
        let emit_start = Instant::now();
        let keyframe = stats.temporal.keyframe;
        for sink in self.sinks() {
            sink.frame(index, keyframe, &buffers.bitstream);
        }
        if let Some(recorder) = recorder {
            recorder.span(Stage::WireEmit, class, session, index, emit_start);
        }
        FrameCost {
            pixels,
            render_nanos,
            encode_nanos,
        }
    }

    /// Downgrades the session to `profile` at its current frame index
    /// (tier shed): re-derives renderer, gaze trace and encoder from the
    /// new profile and stamps a tier-change record into its sinks.
    fn retier(&mut self, service: &ServiceConfig, profile: SessionProfile) {
        let index = self.next_frame();
        self.config = self.config.clone().with_profile(profile);
        (self.renderer, self.trace) = render_side(&self.config);
        self.carried_cache = merge_cache(self.carried_cache, self.encoder.cache_stats());
        let (mut encoder, tile_size) = encoder_for(service, &self.config);
        // The shed rebuild clears the temporal reference (the old tier's
        // frames have a different geometry anyway), so the first
        // lower-tier frame is an intra refresh; seeding the frame counter
        // keeps the keyframe schedule aligned with a solo run at the lower
        // tier from this index on.
        encoder.set_next_frame_index(index);
        self.encoder = encoder;
        // Only the first downgrade is "from" anything the client did not
        // already know about.
        let old_tier = self.report.tier;
        self.report.downgraded_from.get_or_insert(old_tier);
        self.report.tier = profile.tier;
        self.report.downgrade_frame = Some(index);
        let change = WireTierChange {
            frame_index: index,
            tier: profile.tier,
            width: profile.dimensions.width,
            height: profile.dimensions.height,
            tile_size,
            frame_budget: profile.frames,
        };
        for sink in self.sinks() {
            sink.tier_change(&change);
        }
    }

    /// Re-homes a migrating session on `shard`: a fresh encoder from the
    /// config (bit-safe — the eccentricity-map cache changes where
    /// intermediates live, never an emitted bit), while the report, the
    /// sinks mid-chain and the render side travel along unchanged.
    fn rehome(&mut self, shard: usize, service: &ServiceConfig) {
        self.carried_cache = merge_cache(self.carried_cache, self.encoder.cache_stats());
        let (mut encoder, _tile_size) = encoder_for(service, &self.config);
        // Seed the temporal frame counter at the resume point. The fresh
        // encoder's reference history is empty, so the first post-hop
        // frame is an intra refresh regardless of the keyframe schedule —
        // which keeps the stream decodable and the keyframe schedule a
        // pure function of the absolute frame index, exactly like a solo
        // run's.
        encoder.set_next_frame_index(self.next_frame());
        self.encoder = encoder;
        self.report.shard = shard;
    }

    /// Seals the session's sinks and returns its final report.
    fn finalize(mut self: Box<Self>, cancelled: bool) -> SessionReport {
        for sink in self.sinks() {
            sink.finish(cancelled);
        }
        let mut report = self.report;
        report.cancelled = cancelled;
        report.stream_digest = self.digest.digest();
        report.payloads = self.digest.take_payloads();
        report.wire_stream = self.wire.take().map(WireSink::into_bytes);
        // Cache counters span every encoder incarnation (sheds,
        // migrations); for a session that never changed tier or shard the
        // carried part is zero and this is exactly the live encoder's
        // stats.
        report.cache = merge_cache(self.carried_cache, self.encoder.cache_stats());
        report
    }
}

/// Records the encode of one frame as adjust / gamma / BD-encode spans,
/// chained end to end from the encode start via the scratch's sub-stage
/// timing.
fn record_encode_spans(
    recorder: &mut Recorder,
    class: u8,
    session: u64,
    frame: u32,
    encode_start: Instant,
    timing: pvc_core::StageNanos,
) {
    let adjust_at = recorder.epoch().nanos_since(encode_start);
    recorder.span_nanos(
        Stage::Adjust,
        class,
        session,
        frame,
        adjust_at,
        timing.adjust,
    );
    let gamma_at = adjust_at + timing.adjust;
    recorder.span_nanos(Stage::Gamma, class, session, frame, gamma_at, timing.gamma);
    let bd_at = gamma_at + timing.gamma;
    recorder.span_nanos(
        Stage::BdEncode,
        class,
        session,
        frame,
        bd_at,
        timing.bd_encode,
    );
}

/// A shard's state, shared by its two threads and the runtime.
#[derive(Default)]
struct Shard {
    state: Mutex<ShardState>,
    /// Signalled (to every waiter) whenever the FIFO, the held set or the
    /// stop/failed flags change.
    changed: Condvar,
}

/// Everything behind a shard's lock.
#[derive(Default)]
struct ShardState {
    /// Sessions waiting for their next frame, in round-robin order.
    ready: VecDeque<Box<Session>>,
    /// Ids of the sessions a thread holds for a frame right now (at most
    /// one per thread).
    held: Vec<usize>,
    /// Live sessions placed on the shard (waiting or held).
    sessions: usize,
    /// Sum of the live sessions' per-frame pixel costs.
    session_pixels: u64,
    /// Pixels the live sessions are still due to render.
    remaining_pixels: u64,
    /// Sessions that ever arrived (admitted or migrated in).
    served: usize,
    /// Frames and pixels encoded here, and the thread time spent
    /// rendering and encoding them (summed over both threads).
    frames: u64,
    pixels: u64,
    render_nanos: u64,
    encode_nanos: u64,
    /// The session a runtime verb is waiting for; threads do not claim
    /// it.
    wanted: Option<usize>,
    /// Set by the runtime: the threads exit once no session is left.
    stopping: bool,
    /// Set when a shard thread panics: its sibling exits, and runtime
    /// waits panic instead of blocking on a session nobody hands back.
    failed: bool,
    /// When the later of the two threads exited.
    exited: Option<Instant>,
}

impl ShardState {
    /// Adds (`arriving`) or removes a live session's weight in the load
    /// counters.
    fn count(&mut self, session: &Session, arriving: bool) {
        let pixels = session.config.pixel_cost();
        let remaining = session.remaining_pixels();
        if arriving {
            self.sessions += 1;
            self.session_pixels += pixels;
            self.remaining_pixels += remaining;
        } else {
            self.sessions -= 1;
            self.session_pixels -= pixels;
            self.remaining_pixels -= remaining;
        }
    }
}

impl Shard {
    fn lock(&self) -> MutexGuard<'_, ShardState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, state: MutexGuard<'a, ShardState>) -> MutexGuard<'a, ShardState> {
        self.changed
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` on the state under the lock, then wakes every waiter.
    fn update<T>(&self, f: impl FnOnce(&mut ShardState) -> T) -> T {
        let out = f(&mut self.lock());
        self.changed.notify_all();
        out
    }

    /// Adds a session (admitted or migrated in) at the FIFO's tail.
    fn insert(&self, session: Box<Session>) {
        self.update(|state| {
            state.count(&session, true);
            state.served += 1;
            state.ready.push_back(session);
        });
    }

    /// Asks the threads to exit once every session has finished.
    fn stop(&self) {
        self.update(|state| state.stopping = true);
    }

    /// A thread's claim: the first session in the FIFO that the runtime is
    /// not waiting for, blocking while there is none. `None` tells the
    /// thread to exit: the shard is stopping and holds no session, or the
    /// sibling thread panicked.
    fn claim(&self) -> Option<Box<Session>> {
        let mut state = self.lock();
        loop {
            if state.failed {
                return None;
            }
            let wanted = state.wanted;
            if let Some(position) = state
                .ready
                .iter()
                .position(|session| Some(session.id) != wanted)
            {
                let session = state.ready.remove(position).expect("position is in range");
                state.held.push(session.id);
                return Some(session);
            }
            if state.stopping && state.held.is_empty() {
                return None;
            }
            state = self.wait(state);
        }
    }

    /// A thread hands a session back after `cost` (its frame, if it ran
    /// one). Returns the session when its budget is spent, for the thread
    /// to finalize outside the lock; otherwise it goes to the FIFO's tail.
    fn release(&self, session: Box<Session>, cost: Option<FrameCost>) -> Option<Box<Session>> {
        self.update(|state| {
            state.held.retain(|&id| id != session.id);
            if let Some(cost) = cost {
                state.frames += 1;
                state.pixels += cost.pixels;
                state.render_nanos += cost.render_nanos;
                state.encode_nanos += cost.encode_nanos;
                state.remaining_pixels -= cost.pixels;
            }
            if session.finished() {
                state.count(&session, false);
                Some(session)
            } else {
                state.ready.push_back(session);
                None
            }
        })
    }

    /// The runtime's wait for session `id` to be at rest: returns the lock
    /// and the session's FIFO position once no thread holds it, or `None`
    /// when it is no longer on the shard (its stream completed). While the
    /// runtime waits, the session is `wanted`, so no thread claims it again
    /// after handing it back: the wait lasts at most one frame.
    ///
    /// # Panics
    ///
    /// Panics if the thread holding the session panicked.
    fn at_rest(&self, id: usize) -> Option<(MutexGuard<'_, ShardState>, usize)> {
        let mut state = self.lock();
        loop {
            if let Some(position) = state.ready.iter().position(|session| session.id == id) {
                state.wanted = None;
                return Some((state, position));
            }
            if !state.held.contains(&id) {
                state.wanted = None;
                return None;
            }
            state.wanted = Some(id);
            assert!(
                !state.failed,
                "a shard thread panicked holding session {id} (see its panic output above)"
            );
            state = self.wait(state);
        }
    }

    /// Removes session `id` once it is at rest, releasing its load; `None`
    /// when its stream already completed.
    fn take(&self, id: usize) -> Option<Box<Session>> {
        let (mut state, position) = self.at_rest(id)?;
        let session = state.ready.remove(position).expect("position is in range");
        state.count(&session, false);
        drop(state);
        self.changed.notify_all();
        Some(session)
    }

    /// Applies `f` to session `id` in place once it is at rest, with its
    /// load re-counted around the change. Returns `false` when its stream
    /// already completed.
    fn modify(&self, id: usize, f: impl FnOnce(&mut Session)) -> bool {
        let Some((mut state, position)) = self.at_rest(id) else {
            return false;
        };
        let mut session = state.ready.remove(position).expect("position is in range");
        state.count(&session, false);
        f(&mut session);
        state.count(&session, true);
        state.ready.insert(position, session);
        drop(state);
        self.changed.notify_all();
        true
    }
}

/// Marks the shard failed if its thread unwinds, so the sibling thread
/// exits and the runtime's waits panic instead of blocking.
struct FailOnPanic<'a>(&'a Shard);

impl Drop for FailOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.update(|state| state.failed = true);
        }
    }
}

/// One shard thread; both of a shard's threads run it. Loops claiming the
/// head of the ready FIFO, running that session's next frame and handing
/// it back, until [`Shard::claim`] says to exit. Finished sessions are
/// finalized here and their reports sent to the runtime.
///
/// The thread's [`ThreadBuffers`] serve every session it ever runs a frame
/// of: they only change *where* intermediates live (never a computed
/// bit), so sharing them across heterogeneous sessions is safe — they
/// simply warm up to the largest frame size the shard serves. Rendering
/// overwrites every pixel of the reused frame.
fn run_shard_thread(
    shard: &Shard,
    reports: &mpsc::Sender<SessionReport>,
    mut tracing: Option<ShardTracing>,
) {
    let _fail_on_panic = FailOnPanic(shard);
    let mut buffers = ThreadBuffers {
        frame: LinearFrame::filled(Dimensions::new(1, 1), LinearRgb::BLACK),
        scratch: StreamScratch::new(),
        bitstream: Vec::new(),
    };
    while let Some(mut session) = shard.claim() {
        let cost = (!session.finished()).then(|| {
            session.run_frame(
                &mut buffers,
                tracing.as_mut().map(|tracing| &mut tracing.recorder),
            )
        });
        if let Some(done) = shard.release(session, cost) {
            reports.send(done.finalize(false)).ok();
        }
    }
    shard.update(|state| state.exited = Some(Instant::now()));
    if let Some(tracing) = tracing {
        tracing.finish();
    }
}

/// What a shard needs to participate in tracing, fixed at spawn time.
struct TracingSpec {
    epoch: TraceEpoch,
    ring_capacity: usize,
    /// Sealed [`ThreadTrace`]s travel back to the runtime on this channel.
    sender: mpsc::Sender<ThreadTrace>,
}

/// One shard thread's tracing kit: its pre-allocated recorder plus the
/// way home for the sealed trace. Created on the runtime thread (all
/// allocation up front), moved into the shard thread, sealed on exit.
struct ShardTracing {
    shard: usize,
    /// Which of the shard's threads; keeps the two trace lanes apart.
    thread: u8,
    recorder: Recorder,
    out: mpsc::Sender<ThreadTrace>,
}

impl ShardTracing {
    fn new(shard: usize, thread: u8, spec: &TracingSpec) -> ShardTracing {
        ShardTracing {
            shard,
            thread,
            recorder: Recorder::new(spec.epoch, spec.ring_capacity),
            out: spec.sender.clone(),
        }
    }

    /// Seals the recorder and ships the thread's trace to the runtime.
    fn finish(self) {
        self.out
            .send(
                self.recorder
                    .into_thread(self.shard, Lane::Shard(self.thread)),
            )
            .ok();
    }
}

/// The runtime's half of tracing: the shared epoch, the control-plane
/// recorder (admit/retire/cancel markers), and the channel the shard
/// threads return their sealed traces on.
struct RuntimeTracing {
    epoch: TraceEpoch,
    control: Recorder,
    collected: mpsc::Receiver<ThreadTrace>,
}

/// Where a migrating session should land: a caller-chosen shard, or
/// wherever the placement policy puts it once the session is off its
/// source — used by [`StreamRuntime::drain_shard`], which flags the
/// draining shard in the loads it hands the policy.
#[derive(Clone, Copy)]
enum MigrateDest {
    Fixed(usize),
    Rebalance { draining: usize },
}

/// Display order of lanes within a shard's group in the final report.
fn lane_rank(lane: Lane) -> u8 {
    match lane {
        Lane::Shard(thread) => thread,
        Lane::Control => THREADS_PER_SHARD,
        Lane::Client => THREADS_PER_SHARD + 1,
    }
}

/// The runtime's handle onto one shard: its shared state and threads.
/// Dropping it (without [`ShardHandle::join`]) still stops the shard, so
/// its threads finish their sessions and exit.
struct ShardHandle {
    /// The shard's stable id: assigned at spawn, never reused. With
    /// dynamic spawn/drain the live handles are not necessarily
    /// contiguous, so placement and assignments speak in these ids, never
    /// in `Vec` positions.
    shard: usize,
    state: Arc<Shard>,
    started: Instant,
    threads: Vec<JoinHandle<()>>,
}

impl ShardHandle {
    /// The shard's load as placement sees it.
    fn load(&self) -> ShardLoad {
        let state = self.state.lock();
        ShardLoad {
            shard: self.shard,
            sessions: state.sessions,
            session_pixels: state.session_pixels,
            remaining_pixels: state.remaining_pixels,
            draining: false,
        }
    }

    /// Whether either thread has exited — before a stop, only a panic
    /// does that.
    fn exited(&self) -> bool {
        self.threads.iter().any(JoinHandle::is_finished)
    }

    /// Stops the shard, waits for its threads to finish every remaining
    /// session and exit, and returns its telemetry.
    ///
    /// # Panics
    ///
    /// Propagates a shard-thread panic.
    fn join(mut self) -> ShardReport {
        self.state.stop();
        for thread in std::mem::take(&mut self.threads) {
            thread.join().expect("shard thread panicked");
        }
        let state = self.state.lock();
        let exited = state.exited.unwrap_or_else(Instant::now);
        ShardReport {
            shard: self.shard,
            sessions: state.served,
            frames: state.frames,
            pixels: state.pixels,
            busy_seconds: state.encode_nanos as f64 / 1e9,
            render_seconds: state.render_nanos as f64 / 1e9,
            wall_seconds: exited.duration_since(self.started).as_secs_f64(),
            queue_stalls: 0,
            queue_peak_depth: 0,
        }
    }
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        self.state.stop();
    }
}

/// Spawns one shard's two threads. `shard` is the stable id they report
/// as; the runtime calls this both at start and from
/// [`StreamRuntime::spawn_shard`].
fn spawn_shard_threads(
    shard: usize,
    reports: &mpsc::Sender<SessionReport>,
    tracing: Option<&TracingSpec>,
) -> ShardHandle {
    let state = Arc::new(Shard::default());
    let threads = (0..THREADS_PER_SHARD)
        .map(|thread| {
            let state = Arc::clone(&state);
            let reports = reports.clone();
            let tracing = tracing.map(|spec| ShardTracing::new(shard, thread, spec));
            std::thread::Builder::new()
                .name(format!("pvc-shard{shard}-{thread}"))
                .spawn(move || run_shard_thread(&state, &reports, tracing))
                .expect("spawning shard thread")
        })
        .collect();
    ShardHandle {
        shard,
        state,
        started: Instant::now(),
        threads,
    }
}

/// A long-lived, shard-parallel streaming service with dynamic session
/// churn, heterogeneous session profiles and load-aware placement. See
/// the [module docs](self) for the threading model and determinism
/// argument.
///
/// # Examples
///
/// ```
/// use pvc_frame::Dimensions;
/// use pvc_stream::{LeastLoaded, ServiceConfig, SessionConfig, StreamRuntime};
///
/// let mut runtime =
///     StreamRuntime::start(ServiceConfig::default().with_shards(2), Box::new(LeastLoaded));
///
/// // Admit two sessions, retire the first mid-flight (blocks until its
/// // stream completes), admit a third while the second is still going.
/// let dims = Dimensions::new(32, 32);
/// let a = runtime.admit(SessionConfig::synthetic(0, dims, 4));
/// let b = runtime.admit(SessionConfig::synthetic(1, dims, 4));
/// let report_a = runtime.retire(a);
/// assert_eq!(report_a.throughput.frames, 4);
/// assert!(report_a.throughput.frames_per_second() > 0.0);
/// let c = runtime.admit(SessionConfig::synthetic(2, dims, 4));
/// assert_eq!(c, 2);
///
/// let report = runtime.shutdown();
/// assert_eq!(report.sessions.len(), 2, "session a's report was handed to retire()");
/// assert_eq!(report.churn.admitted, 3);
/// assert_eq!(report.churn.retired, 1);
/// assert_eq!(report.totals.frames, 12, "totals still cover the retired session");
/// # let _ = b;
/// ```
pub struct StreamRuntime {
    config: ServiceConfig,
    placement: Box<dyn Placement>,
    /// Live (serving) shards. Drained shards are removed; ids are stable
    /// and never reused, so positions here are *not* shard ids.
    shards: Vec<ShardHandle>,
    reports: mpsc::Receiver<SessionReport>,
    /// Retained so [`Self::spawn_shard`] can wire new shards into the
    /// same report channel. Consequence: the channel never closes by
    /// itself; blocking waits poll shard thread health instead.
    report_tx: mpsc::Sender<SessionReport>,
    /// Retained alongside `report_tx` so dynamically spawned shards join
    /// the same trace epoch and collection channel.
    tracing_spec: Option<TracingSpec>,
    /// Final reports of completed sessions awaiting pickup, keyed by id.
    /// [`Self::retire`] removes and hands over the entry — a long-lived
    /// runtime must not accumulate reports (least of all collected
    /// payloads) for every session it ever served — so at shutdown this
    /// holds only the sessions nobody retired individually.
    completed: BTreeMap<usize, SessionReport>,
    /// Frame/byte totals over every session ever completed, merged as
    /// completions arrive so handing reports out in [`Self::retire`] does
    /// not lose them from the service-wide aggregate.
    totals: ThroughputReport,
    /// Shard telemetry, indexed by stable shard id (so it covers drained
    /// shards too); filled in as shards are joined during drain or
    /// shutdown.
    shard_reports: Vec<Option<ShardReport>>,
    /// Which shard each admitted session was placed on (updated by
    /// migration).
    assignments: BTreeMap<usize, usize>,
    retired: BTreeSet<usize>,
    churn: ChurnCounters,
    /// What the elastic control plane did to this runtime: migrations and
    /// shard spawns/drains are counted here; admission-side counters
    /// (rejected/queued) belong to the policy layer driving the runtime.
    elasticity: ElasticityCounters,
    started: Instant,
    next_id: usize,
    /// The next stable shard id [`Self::spawn_shard`] will hand out; also
    /// the trace index of the control lane at shutdown.
    next_shard_index: usize,
    /// Present when the config enables tracing: the control-plane
    /// recorder plus the channel shard threads return sealed traces on.
    tracing: Option<RuntimeTracing>,
}

impl std::fmt::Debug for StreamRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamRuntime")
            .field("config", &self.config)
            .field("placement", &self.placement.name())
            .field("shards", &self.shards.len())
            .field("churn", &self.churn)
            .finish_non_exhaustive()
    }
}

impl StreamRuntime {
    /// Spawns the shards' threads and returns the running (idle) runtime.
    /// `placement` decides which shard each admitted session lands on.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero shards.
    pub fn start(config: ServiceConfig, placement: Box<dyn Placement>) -> StreamRuntime {
        assert!(config.shards > 0, "shard count must be non-zero");
        let (report_tx, reports) = mpsc::channel();
        // All tracing storage (rings, stage tables) is allocated here,
        // before any shard thread runs a frame.
        let (spec, tracing) = match &config.trace {
            Some(trace) => {
                let epoch = TraceEpoch::now();
                let (trace_tx, trace_rx) = mpsc::channel();
                (
                    Some(TracingSpec {
                        epoch,
                        ring_capacity: trace.ring_capacity,
                        sender: trace_tx,
                    }),
                    Some(RuntimeTracing {
                        epoch,
                        control: Recorder::new(epoch, trace.ring_capacity),
                        collected: trace_rx,
                    }),
                )
            }
            None => (None, None),
        };
        let shards: Vec<ShardHandle> = (0..config.shards)
            .map(|shard| spawn_shard_threads(shard, &report_tx, spec.as_ref()))
            .collect();
        // The runtime keeps `report_tx` and `spec` alive so shards spawned
        // later join the same channels; shard-thread health is therefore
        // detected by join-handle polling, not channel closure.
        let shard_reports = vec![None; config.shards];
        let next_shard_index = config.shards;
        StreamRuntime {
            config,
            placement,
            shards,
            reports,
            report_tx,
            tracing_spec: spec,
            completed: BTreeMap::new(),
            totals: ThroughputReport::default(),
            shard_reports,
            assignments: BTreeMap::new(),
            retired: BTreeSet::new(),
            churn: ChurnCounters::default(),
            elasticity: ElasticityCounters::default(),
            started: Instant::now(),
            next_id: 0,
            next_shard_index,
            tracing,
        }
    }

    /// [`Self::start`] with the deterministic [`Static`] modulo placement.
    pub fn start_static(config: ServiceConfig) -> StreamRuntime {
        StreamRuntime::start(config, Box::new(Static))
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The active placement policy's name.
    pub fn placement_name(&self) -> &'static str {
        self.placement.name()
    }

    /// Churn counters as of the runtime's latest bookkeeping. Completion
    /// reports are absorbed lazily, so `completed` may trail the shard
    /// threads by a moment.
    pub fn churn(&self) -> ChurnCounters {
        self.churn
    }

    /// Live load snapshots for every *serving* shard, as placement would
    /// see them: the session count, its pixel-weighted twin (committed
    /// session pixels), and the remaining-work counter. Entries carry
    /// stable shard ids — after a drain they need not be contiguous.
    pub fn shard_loads(&self) -> Vec<ShardLoad> {
        self.shards.iter().map(ShardHandle::load).collect()
    }

    /// The handle of a serving shard, by stable id.
    ///
    /// # Panics
    ///
    /// Panics if no serving shard has that id (never spawned, or drained).
    fn handle(&self, shard: usize) -> &ShardHandle {
        self.shards
            .iter()
            .find(|handle| handle.shard == shard)
            .unwrap_or_else(|| panic!("shard {shard} is unknown or drained"))
    }

    /// Elasticity counters (migrations, shard spawns/drains) as of the
    /// latest control action. Admission-side counters (rejections, queue
    /// waits, sheds requested) are the driving policy's to keep — see
    /// `ElasticController` — and are merged into the final report there.
    pub fn elasticity(&self) -> ElasticityCounters {
        self.elasticity
    }

    /// How many shards are currently serving.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Ids of sessions admitted and not yet completed, in id order.
    /// Completion reports are absorbed first, so the answer is as fresh
    /// as the shard threads' reporting.
    pub fn live_sessions(&mut self) -> Vec<usize> {
        self.pump_reports();
        self.assignments
            .keys()
            .filter(|id| !self.retired.contains(id) && !self.completed.contains_key(id))
            .copied()
            .collect()
    }

    /// The shard a session was placed on, or `None` for unknown ids.
    pub fn assignment(&self, session: usize) -> Option<usize> {
        self.assignments.get(&session).copied()
    }

    /// Admits a session: places it on a shard (via the placement policy's
    /// view of live shard loads) and appends it to that shard's ready
    /// FIFO. Returns the session id (admission index). Never waits for a
    /// frame to finish.
    pub fn admit(&mut self, config: SessionConfig) -> usize {
        self.pump_reports();
        let id = self.next_id;
        self.next_id += 1;
        let loads = self.shard_loads();
        let shard = self.placement.place(id, &config, &loads);
        let handle = self
            .shards
            .iter()
            .find(|handle| handle.shard == shard)
            .unwrap_or_else(|| panic!("placement chose unknown shard {shard}"));
        if let Some(tracing) = self.tracing.as_mut() {
            tracing
                .control
                .mark(Marker::Admit, config.profile.tier.class_index(), id as u64);
        }
        // The load counters rise with the insert, synchronously, so
        // cost-aware placement sees back-to-back admissions.
        handle
            .state
            .insert(Session::open(id, shard, &self.config, config));
        self.assignments.insert(id, shard);
        self.churn.record_admission();
        id
    }

    /// Retires a session: blocks until its stream completes (it always
    /// finishes its configured frame budget — retirement is graceful, so
    /// the encoded stream stays bit-identical to an uninterrupted run) and
    /// returns its final report. Other sessions keep streaming throughout.
    ///
    /// The report is handed over, not copied: the runtime keeps only the
    /// session's contribution to [`ServiceReport::totals`] and the churn
    /// counters, so serving unbounded session churn does not accumulate
    /// per-session state (or collected payloads) until shutdown.
    ///
    /// # Panics
    ///
    /// Panics if the id was never admitted or was already retired.
    pub fn retire(&mut self, session: usize) -> SessionReport {
        self.begin_retirement(session);
        if let Some(tracing) = self.tracing.as_mut() {
            tracing
                .control
                .mark(Marker::Retire, CLASS_OTHER, session as u64);
        }
        self.await_completion(session)
    }

    /// Hard-cancels a session: takes it off its shard once the frame in
    /// flight (if any) is done, and returns its partial report flagged
    /// [`cancelled`](SessionReport::cancelled). Other sessions keep
    /// streaming throughout, and their encoded streams are not perturbed
    /// by a single bit (pinned by `tests/cancel_determinism.rs`).
    ///
    /// The cancelled stream is a *prefix* of the session's uninterrupted
    /// stream, of timing-dependent length. A session that already
    /// finished its frame budget is returned complete, with `cancelled`
    /// false — cancelling it was a no-op.
    ///
    /// # Panics
    ///
    /// Panics if the id was never admitted or was already retired.
    pub fn retire_now(&mut self, session: usize) -> SessionReport {
        self.begin_retirement(session);
        if let Some(tracing) = self.tracing.as_mut() {
            tracing
                .control
                .mark(Marker::Cancel, CLASS_OTHER, session as u64);
        }
        let shard = self.assignments[&session];
        if let Some(taken) = self.handle(shard).state.take(session) {
            let cancelled = !taken.finished();
            let report = taken.finalize(cancelled);
            self.absorb(report);
        }
        self.await_completion(session)
    }

    /// Shared bookkeeping of [`Self::retire`] / [`Self::retire_now`]:
    /// validates the id, marks it retired, counts the retirement.
    fn begin_retirement(&mut self, session: usize) {
        assert!(
            self.assignments.contains_key(&session),
            "session {session} was never admitted"
        );
        assert!(
            self.retired.insert(session),
            "session {session} was already retired"
        );
        self.churn.record_retirement();
    }

    /// Blocks until the next session report arrives, panicking if a
    /// serving shard thread exits in the meantime (before shutdown, that
    /// can only mean it panicked — the runtime holds a report sender, so
    /// the channel itself never closes).
    fn recv_report(&mut self) -> SessionReport {
        loop {
            match self.reports.recv_timeout(EVENT_POLL) {
                Ok(report) => return report,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if let Some(dead) = self.shards.iter().find(|handle| handle.exited()) {
                        panic!(
                            "shard {} thread exited while the runtime is alive \
                             (see the shard thread's panic output above)",
                            dead.shard
                        );
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    unreachable!("the runtime holds a report sender")
                }
            }
        }
    }

    /// Blocks until `session`'s final report arrives and hands it over.
    fn await_completion(&mut self, session: usize) -> SessionReport {
        loop {
            self.pump_reports();
            if let Some(report) = self.completed.remove(&session) {
                return report;
            }
            let report = self.recv_report();
            self.absorb(report);
        }
    }

    /// Blocks until every admitted session's stream has completed. The
    /// shard threads stay alive and ready for further admissions.
    pub fn drain(&mut self) {
        self.pump_reports();
        while self.churn.in_flight() > 0 {
            let report = self.recv_report();
            self.absorb(report);
        }
    }

    /// Spawns a fresh shard (two threads) and returns its stable id.
    /// Placement sees it (initially empty) from the next admission on.
    /// Ids are never reused: after spawn/drain cycles the serving set need
    /// not be contiguous.
    ///
    /// # Examples
    ///
    /// ```
    /// use pvc_frame::Dimensions;
    /// use pvc_stream::{ServiceConfig, SessionConfig, StreamRuntime};
    ///
    /// let mut runtime = StreamRuntime::start_static(ServiceConfig::default());
    /// let id = runtime.admit(SessionConfig::synthetic(0, Dimensions::new(32, 32), 64));
    ///
    /// // Scale up, move the session onto the new shard, finish it there.
    /// let dest = runtime.spawn_shard();
    /// assert_eq!(dest, 1);
    /// assert!(runtime.migrate(id, dest));
    /// assert_eq!(runtime.assignment(id), Some(dest));
    /// let report = runtime.retire(id);
    /// assert_eq!(report.throughput.frames, 64, "migration loses no frames");
    ///
    /// // Scale back down; the drained shard's telemetry comes back.
    /// let drained = runtime.drain_shard(dest);
    /// assert_eq!(drained.shard, dest);
    /// assert_eq!(runtime.shard_count(), 1);
    ///
    /// let report = runtime.shutdown();
    /// assert_eq!(report.elasticity.migrated, 1);
    /// assert_eq!(report.elasticity.shards_spawned, 1);
    /// assert_eq!(report.elasticity.shards_drained, 1);
    /// assert_eq!(report.shards.len(), 2, "drained shards stay in the report");
    /// ```
    pub fn spawn_shard(&mut self) -> usize {
        let shard = self.next_shard_index;
        self.next_shard_index += 1;
        let handle = spawn_shard_threads(shard, &self.report_tx, self.tracing_spec.as_ref());
        self.shards.push(handle);
        self.shard_reports.push(None);
        if let Some(tracing) = self.tracing.as_mut() {
            tracing
                .control
                .mark(Marker::ShardSpawn, CLASS_OTHER, shard as u64);
        }
        self.elasticity.record_shard_spawned();
        shard
    }

    /// Drains a shard out of the fleet: migrates its live sessions to the
    /// remaining shards (placed by the runtime's policy, which must not
    /// pick the draining shard), winds down its threads, and returns its
    /// telemetry. The report also stays in the final
    /// [`ServiceReport::shards`] under the shard's stable id.
    ///
    /// Migrated streams stay bit-identical to their solo runs — see
    /// [`Self::migrate`].
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown/already drained, if it is the last
    /// serving shard, or if a shard thread panicked.
    pub fn drain_shard(&mut self, shard: usize) -> ShardReport {
        assert!(
            self.shards.iter().any(|handle| handle.shard == shard),
            "shard {shard} is unknown or already drained"
        );
        assert!(self.shards.len() > 1, "cannot drain the last serving shard");
        // Relocate every live member first so their streams continue on
        // the survivors.
        let members: Vec<usize> = self
            .live_sessions()
            .into_iter()
            .filter(|id| self.assignments[id] == shard)
            .collect();
        for id in members {
            // `false` means the session completed in the meantime —
            // nothing left to move.
            self.migrate_impl(id, MigrateDest::Rebalance { draining: shard });
        }
        let position = self
            .shards
            .iter()
            .position(|handle| handle.shard == shard)
            .expect("presence asserted above");
        let report = self.shards.remove(position).join();
        self.shard_reports[shard] = Some(report.clone());
        self.pump_reports();
        if let Some(tracing) = self.tracing.as_mut() {
            tracing
                .control
                .mark(Marker::ShardDrain, CLASS_OTHER, shard as u64);
        }
        self.elasticity.record_shard_drained();
        report
    }

    /// Migrates a live session to the serving shard `to`, blocking until
    /// the hand-off completes (at most one frame). Returns `false`
    /// (without side effects) if the session's stream already completed
    /// or `to` is its current shard.
    ///
    /// The migrated stream is **bit-identical** to the session's solo
    /// run: the session leaves its source between two frames, the
    /// destination rebuilds its encoder purely from the session config and
    /// continues at the next frame index, and the render side and the
    /// digest/wire sinks travel along mid-chain. The encoder cache is the
    /// only state lost, and it never steers an encoded bit (pinned by
    /// `tests/migration_determinism.rs`).
    ///
    /// # Panics
    ///
    /// Panics if the session was never admitted or `to` is not a serving
    /// shard.
    pub fn migrate(&mut self, session: usize, to: usize) -> bool {
        self.migrate_impl(session, MigrateDest::Fixed(to))
    }

    fn migrate_impl(&mut self, session: usize, dest: MigrateDest) -> bool {
        assert!(
            self.assignments.contains_key(&session),
            "session {session} was never admitted"
        );
        self.pump_reports();
        if self.retired.contains(&session) || self.completed.contains_key(&session) {
            return false;
        }
        let from = self.assignments[&session];
        if let MigrateDest::Fixed(to) = dest {
            // Validate eagerly: the session is off its source once taken.
            let _ = self.handle(to);
            if to == from {
                return false;
            }
        }
        let Some(mut moving) = self.handle(from).state.take(session) else {
            return false;
        };
        let to = match dest {
            MigrateDest::Fixed(to) => to,
            MigrateDest::Rebalance { draining } => {
                let mut loads = self.shard_loads();
                for load in &mut loads {
                    if load.shard == draining {
                        load.draining = true;
                    }
                }
                let to = self.placement.place(session, &moving.config, &loads);
                assert!(
                    to != draining,
                    "placement returned the draining shard {draining}"
                );
                to
            }
        };
        moving.rehome(to, &self.config);
        let class = moving.config.profile.tier.class_index();
        self.handle(to).state.insert(moving);
        if let Some(tracing) = self.tracing.as_mut() {
            tracing.control.mark(Marker::Migrate, class, session as u64);
        }
        self.assignments.insert(session, to);
        self.elasticity.record_migration();
        true
    }

    /// Downgrades a live session to `profile` mid-stream (tier shed:
    /// quality for throughput), once the frame in flight (if any) is done.
    /// Returns `false` if the session's stream already completed. The
    /// session's report will carry [`SessionReport::downgraded_from`] and
    /// [`SessionReport::downgrade_frame`], and its wire stream a
    /// tier-change record at that frame.
    ///
    /// The post-downgrade stream is bit-identical to a solo run started
    /// at `profile` from the same frame index (pinned by
    /// `tests/migration_determinism.rs`): renderer, gaze trace and
    /// encoder are re-derived purely from the new profile, and the frame
    /// index continues under the new numbering.
    ///
    /// # Panics
    ///
    /// Panics if the session was never admitted.
    pub fn shed(&mut self, session: usize, profile: SessionProfile) -> bool {
        assert!(
            self.assignments.contains_key(&session),
            "session {session} was never admitted"
        );
        self.pump_reports();
        if self.retired.contains(&session) || self.completed.contains_key(&session) {
            return false;
        }
        let shard = self.assignments[&session];
        let service = &self.config;
        let shed = self
            .handle(shard)
            .state
            .modify(session, |live| live.retier(service, profile));
        if !shed {
            return false;
        }
        if let Some(tracing) = self.tracing.as_mut() {
            tracing
                .control
                .mark(Marker::Shed, profile.tier.class_index(), session as u64);
        }
        self.elasticity.record_shed();
        true
    }

    /// Stops the runtime: lets every in-flight session finish its frame
    /// budget, winds down the shard threads, and returns the service
    /// report. `sessions` holds the final reports not already handed out
    /// by [`Self::retire`]; `totals` and `churn` cover every session the
    /// runtime ever served, retired or not.
    ///
    /// # Panics
    ///
    /// Propagates panics from shard threads.
    pub fn shutdown(mut self) -> ServiceReport {
        // Stop every shard first so they all wind down in parallel.
        for handle in &self.shards {
            handle.state.stop();
        }
        for handle in std::mem::take(&mut self.shards) {
            let report = handle.join();
            let shard = report.shard;
            self.shard_reports[shard] = Some(report);
        }
        // Every shard thread has been joined, so every session report and
        // sealed trace is already sitting in its channel.
        self.pump_reports();
        // The control lane reports one past the highest shard id ever
        // spawned, so drained shards keep their own trace groups.
        let control_lane_index = self.next_shard_index;

        let sessions: Vec<SessionReport> =
            std::mem::take(&mut self.completed).into_values().collect();
        let mut totals = self.totals;
        totals.wall_seconds = self.started.elapsed().as_secs_f64();
        let shards = std::mem::take(&mut self.shard_reports)
            .into_iter()
            .enumerate()
            .map(|(shard, report)| {
                report.unwrap_or(ShardReport {
                    shard,
                    ..ShardReport::default()
                })
            })
            .collect();
        let trace = self.tracing.take().map(|tracing| {
            let RuntimeTracing {
                epoch,
                control,
                collected,
            } = tracing;
            let mut report = TraceReport::new(epoch);
            while let Ok(thread) = collected.try_recv() {
                report.threads.push(thread);
            }
            // The control plane reports as its own lane, one past the
            // last shard.
            report
                .threads
                .push(control.into_thread(control_lane_index, Lane::Control));
            report
                .threads
                .sort_by_key(|thread| (thread.shard, lane_rank(thread.lane)));
            report
        });
        ServiceReport {
            sessions,
            shards,
            totals,
            churn: self.churn,
            elasticity: self.elasticity,
            trace,
        }
    }

    /// Absorbs every report the shard threads have already delivered,
    /// without blocking.
    fn pump_reports(&mut self) {
        while let Ok(report) = self.reports.try_recv() {
            self.absorb(report);
        }
    }

    /// Books a session's final report: churn counters, totals, and the
    /// pickup map.
    fn absorb(&mut self, report: SessionReport) {
        self.churn.record_completion();
        if report.cancelled {
            self.churn.record_cancellation();
        }
        self.totals.merge(&report.throughput);
        self.completed.insert(report.session, report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::LeastLoaded;
    use pvc_frame::Dimensions;

    fn dims() -> Dimensions {
        Dimensions::new(32, 32)
    }

    #[test]
    fn sessions_admitted_after_a_retire_still_stream() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default().with_shards(2));
        let a = runtime.admit(SessionConfig::synthetic(0, dims(), 3));
        let report_a = runtime.retire(a);
        assert_eq!(report_a.throughput.frames, 3);
        assert!(report_a.throughput.wall_seconds > 0.0);
        assert!(report_a.throughput.frames_per_second() > 0.0);

        // The shard threads are still alive: admit another wave.
        let b = runtime.admit(SessionConfig::synthetic(1, dims(), 2));
        let report = runtime.shutdown();
        assert_eq!(
            report.sessions.len(),
            1,
            "session a's report was handed to retire()"
        );
        assert_eq!(report.sessions[0].session, b);
        assert_eq!(report.sessions[0].throughput.frames, 2);
        assert_eq!(report.totals.frames, 5, "totals still cover the retiree");
        assert_eq!(report.churn.admitted, 2);
        assert_eq!(report.churn.retired, 1);
        assert_eq!(report.churn.completed, 2);
        assert_eq!(
            report.churn.peak_concurrent, 1,
            "never two in flight at once"
        );
    }

    #[test]
    fn retire_waits_for_the_full_frame_budget() {
        // Retiring immediately after admission must still deliver every
        // frame the session was configured for: retirement is graceful.
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default());
        let id = runtime.admit(SessionConfig::synthetic(0, dims(), 6));
        let report = runtime.retire(id);
        assert_eq!(report.throughput.frames, 6);
        assert_ne!(report.stream_digest, FNV_OFFSET_BASIS);
        runtime.shutdown();
    }

    #[test]
    fn drain_completes_every_stream_and_keeps_the_runtime_alive() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default().with_shards(2));
        for index in 0..4 {
            runtime.admit(SessionConfig::synthetic(index, dims(), 2));
        }
        runtime.drain();
        assert_eq!(runtime.churn().in_flight(), 0);
        assert_eq!(runtime.churn().completed, 4);
        // Still serving after the drain.
        runtime.admit(SessionConfig::synthetic(4, dims(), 2));
        let report = runtime.shutdown();
        assert_eq!(report.sessions.len(), 5);
        assert_eq!(report.totals.frames, 10);
    }

    #[test]
    fn zero_frame_sessions_complete_immediately() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default());
        let id = runtime.admit(SessionConfig::synthetic(0, dims(), 0));
        let report = runtime.retire(id);
        assert_eq!(report.throughput.frames, 0);
        assert_eq!(
            report.stream_digest, FNV_OFFSET_BASIS,
            "no frames, seed digest"
        );
        runtime.shutdown();
    }

    #[test]
    fn static_assignments_are_modulo_and_observable() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default().with_shards(3));
        for index in 0..6 {
            let id = runtime.admit(SessionConfig::synthetic(index, dims(), 1));
            assert_eq!(runtime.assignment(id), Some(id % 3));
        }
        assert_eq!(runtime.assignment(99), None);
        let report = runtime.shutdown();
        for session in &report.sessions {
            assert_eq!(session.shard, session.session % 3);
        }
    }

    #[test]
    fn least_loaded_spreads_sessions_under_load() {
        // With 2 shards least-loaded compares both, and admissions raise
        // the placed shard's committed pixels synchronously — so the second
        // admission must see shard 0 loaded and go to shard 1. Exact
        // splits beyond that depend on live load (sessions completing
        // mid-loop release their pixels, legitimately attracting later
        // admissions), so only the both-shards-used property is
        // timing-independent.
        let mut runtime = StreamRuntime::start(
            ServiceConfig::default().with_shards(2),
            Box::new(LeastLoaded),
        );
        for index in 0..8 {
            runtime.admit(SessionConfig::synthetic(index, dims(), 50));
        }
        let placed: Vec<usize> = (0..8).map(|id| runtime.assignment(id).unwrap()).collect();
        let on_zero = placed.iter().filter(|&&shard| shard == 0).count();
        assert!(
            (1..=7).contains(&on_zero),
            "least-loaded must not pile every session on one shard, got {placed:?}"
        );
        let report = runtime.shutdown();
        assert_eq!(report.totals.frames, 400);
        let served: usize = report.shards.iter().map(|shard| shard.sessions).sum();
        assert_eq!(served, 8);
    }

    #[test]
    fn shard_loads_report_live_population() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default().with_shards(2));
        runtime.admit(SessionConfig::synthetic(0, dims(), 40));
        let loads = runtime.shard_loads();
        assert_eq!(loads.len(), 2);
        assert_eq!(loads[0].sessions, 1, "admission registers immediately");
        assert_eq!(
            loads[0].session_pixels,
            32 * 32,
            "the pixel gauge rises with the session count"
        );
        assert_eq!(loads[1].sessions, 0);
        assert_eq!(loads[1].session_pixels, 0);
        runtime.drain();
        let after = runtime.shard_loads();
        assert_eq!(after[0].sessions, 0, "completion deregisters");
        assert_eq!(after[0].session_pixels, 0, "pixels release with it");
        runtime.shutdown();
    }

    #[test]
    fn hard_cancel_returns_a_partial_cancelled_report() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default());
        // A budget far beyond what could stream before the cancel lands.
        let id = runtime.admit(SessionConfig::synthetic(0, dims(), 100_000));
        let report = runtime.retire_now(id);
        assert!(report.cancelled, "the stream must have been cut short");
        assert!(
            report.throughput.frames < 100_000,
            "cancel must drop the remaining frame budget"
        );
        // The runtime keeps serving after a cancel.
        let survivor = runtime.admit(SessionConfig::synthetic(1, dims(), 3));
        let survivor_report = runtime.retire(survivor);
        assert_eq!(survivor_report.throughput.frames, 3);
        assert!(!survivor_report.cancelled);
        let service_report = runtime.shutdown();
        assert_eq!(service_report.churn.admitted, 2);
        assert_eq!(service_report.churn.retired, 2);
        assert_eq!(service_report.churn.completed, 2);
        assert_eq!(service_report.churn.cancelled, 1);
    }

    #[test]
    fn hard_cancel_of_a_finished_stream_returns_the_complete_report() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default());
        let id = runtime.admit(SessionConfig::synthetic(0, dims(), 2));
        runtime.drain();
        let report = runtime.retire_now(id);
        assert!(!report.cancelled, "a finished stream has nothing to cancel");
        assert_eq!(report.throughput.frames, 2);
        let service_report = runtime.shutdown();
        assert_eq!(service_report.churn.cancelled, 0);
        assert_eq!(service_report.churn.retired, 1);
    }

    #[test]
    fn hard_cancel_releases_the_shard_load_gauges() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default());
        let id = runtime.admit(SessionConfig::synthetic(0, dims(), 100_000));
        assert_eq!(runtime.shard_loads()[0].session_pixels, 32 * 32);
        let _ = runtime.retire_now(id);
        let load = runtime.shard_loads()[0];
        assert_eq!(load.sessions, 0);
        assert_eq!(load.session_pixels, 0, "cancel releases committed pixels");
        runtime.shutdown();
    }

    #[test]
    fn heterogeneous_profiles_stream_side_by_side() {
        use crate::session::{ResolutionTier, SessionProfile};
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default().with_shards(2));
        let base = dims();
        let ids: Vec<usize> = ResolutionTier::ALL
            .iter()
            .enumerate()
            .map(|(index, &tier)| {
                runtime.admit(
                    SessionConfig::synthetic(index, base, 4)
                        .with_profile(SessionProfile::for_tier(tier, base, 4)),
                )
            })
            .collect();
        runtime.drain();
        let report = runtime.shutdown();
        assert_eq!(report.sessions.len(), 3);
        for (id, session) in ids.iter().zip(&report.sessions) {
            assert_eq!(session.session, *id);
        }
        let by_tier: Vec<(&'static str, u64, u64)> = report
            .sessions
            .iter()
            .map(|s| (s.tier.name(), s.throughput.frames, s.throughput.pixels))
            .collect();
        assert_eq!(by_tier[0].0, "quest2");
        assert_eq!(by_tier[0].1, 4);
        assert_eq!(by_tier[1].0, "quest-pro");
        assert_eq!(by_tier[1].1, 5, "90 Hz budget");
        assert_eq!(by_tier[2].0, "vision");
        assert_eq!(by_tier[2].1, 5, "96 Hz budget");
        // Pixel telemetry reflects each tier's actual cost, not a shared
        // frame size.
        for session in &report.sessions {
            assert_eq!(
                session.throughput.pixels,
                session.throughput.frames
                    * u64::try_from(
                        ResolutionTier::ALL[session.session]
                            .scale(base)
                            .pixel_count()
                    )
                    .unwrap()
            );
        }
        assert_eq!(
            report.totals.pixels,
            report.sessions.iter().map(|s| s.throughput.pixels).sum()
        );
    }

    #[test]
    fn migrate_moves_a_live_session_and_its_gauges() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default().with_shards(2));
        let id = runtime.admit(SessionConfig::synthetic(0, dims(), 400));
        assert_eq!(runtime.assignment(id), Some(0));
        assert!(runtime.migrate(id, 1), "a live session must move");
        assert_eq!(runtime.assignment(id), Some(1));
        let loads = runtime.shard_loads();
        assert_eq!(loads[0].sessions, 0, "the source released its gauges");
        assert_eq!(loads[0].session_pixels, 0);
        assert_eq!(loads[1].sessions, 1, "the destination picked them up");
        assert_eq!(loads[1].session_pixels, 32 * 32);
        let report = runtime.retire(id);
        assert_eq!(report.throughput.frames, 400, "no frame lost in transit");
        assert_eq!(report.shard, 1, "the report names the new home");
        let service_report = runtime.shutdown();
        assert_eq!(service_report.elasticity.migrated, 1);
        assert_eq!(
            service_report.shards[0].frames + service_report.shards[1].frames,
            400,
            "shard attribution splits at the migration point"
        );
    }

    #[test]
    fn migrate_refuses_completed_sessions_and_self_moves() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default().with_shards(2));
        let done = runtime.admit(SessionConfig::synthetic(0, dims(), 2));
        runtime.drain();
        assert!(!runtime.migrate(done, 1), "completed streams stay put");
        let live = runtime.admit(SessionConfig::synthetic(1, dims(), 200));
        assert!(!runtime.migrate(live, 1), "self-migration is refused");
        let report = runtime.shutdown();
        assert_eq!(report.elasticity.migrated, 0);
    }

    #[test]
    fn shed_downgrades_a_live_session_mid_stream() {
        use crate::session::{ResolutionTier, SessionProfile};
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default());
        let profile = SessionProfile::for_tier(ResolutionTier::VisionClass, dims(), 600);
        let lower = profile
            .downgraded()
            .expect("vision downgrades to quest-pro");
        let downgraded_frames = lower.frames;
        let id = runtime.admit(SessionConfig::synthetic(0, dims(), 600).with_profile(profile));
        assert!(runtime.shed(id, lower), "a live session must shed");
        let report = runtime.retire(id);
        assert_eq!(report.tier, ResolutionTier::QuestPro);
        assert_eq!(report.downgraded_from, Some(ResolutionTier::VisionClass));
        let switch = report
            .downgrade_frame
            .expect("the downgrade landed mid-stream");
        assert!(
            switch < downgraded_frames,
            "the switch point ({switch}) must precede the downgraded budget ({downgraded_frames})"
        );
        assert_eq!(
            report.throughput.frames,
            u64::from(downgraded_frames),
            "the stream finishes on the *downgraded* frame budget"
        );
        let service_report = runtime.shutdown();
        assert_eq!(service_report.elasticity.shed, 1);
    }

    #[test]
    fn drain_rebalances_members_onto_surviving_shards() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default());
        let id = runtime.admit(SessionConfig::synthetic(0, dims(), 400));
        let dest = runtime.spawn_shard();
        assert_eq!(dest, 1, "spawned shards take fresh stable ids");
        assert_eq!(runtime.shard_count(), 2);
        let drained = runtime.drain_shard(0);
        assert_eq!(drained.shard, 0);
        assert_eq!(drained.sessions, 1, "the shard served before handing off");
        assert_eq!(runtime.shard_count(), 1);
        assert_eq!(
            runtime.assignment(id),
            Some(dest),
            "drain migrated the live member to the survivor"
        );
        let report = runtime.retire(id);
        assert_eq!(report.throughput.frames, 400);
        let service_report = runtime.shutdown();
        assert_eq!(service_report.elasticity.shards_spawned, 1);
        assert_eq!(service_report.elasticity.shards_drained, 1);
        assert_eq!(service_report.elasticity.migrated, 1, "rebalance counts");
        assert_eq!(
            service_report.shards.len(),
            2,
            "drained shards still appear in the final report"
        );
        assert_eq!(service_report.totals.frames, 400);
    }

    #[test]
    fn remaining_pixels_gauge_tracks_admission_and_cancel() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default());
        let total = 100_000u64 * 32 * 32;
        let id = runtime.admit(SessionConfig::synthetic(0, dims(), 100_000));
        let load = runtime.shard_loads()[0];
        assert!(
            load.remaining_pixels > 0 && load.remaining_pixels <= total,
            "remaining work commits on admission, drains per frame: {}",
            load.remaining_pixels
        );
        let _ = runtime.retire_now(id);
        assert_eq!(
            runtime.shard_loads()[0].remaining_pixels,
            0,
            "hard-cancel decommits the remaining work"
        );
        runtime.shutdown();
    }

    #[test]
    #[should_panic(expected = "cannot drain the last serving shard")]
    fn draining_the_last_shard_panics() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default());
        let _ = runtime.drain_shard(0);
    }

    #[test]
    #[should_panic(expected = "unknown or already drained")]
    fn draining_an_unknown_shard_panics() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default().with_shards(2));
        let _ = runtime.drain_shard(7);
    }

    #[test]
    #[should_panic(expected = "was never admitted")]
    fn retiring_an_unknown_session_panics() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default());
        let _ = runtime.retire(3);
    }

    #[test]
    #[should_panic(expected = "already retired")]
    fn retiring_twice_panics() {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default());
        let id = runtime.admit(SessionConfig::synthetic(0, dims(), 1));
        let _ = runtime.retire(id);
        let _ = runtime.retire(id);
    }
}
