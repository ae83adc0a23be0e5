//! End-to-end wire round-trip: what the client decodes IS what the
//! worker encoded.
//!
//! The service's determinism pins (`determinism.rs`, `cancel_determinism.rs`)
//! stop at the encoded payload bytes. This suite closes the remaining
//! gap: the framed **wire stream** a session ships (see `pvc_stream::wire`)
//! must carry those payloads faithfully, and a [`pvc_client::SessionClient`]
//! replaying it over a lossless [`pvc_client::LinkModel`] must reconstruct
//! frames **bit-identical** to the worker's adjusted frames — for a
//! mixed-tier fleet, across shard counts and every placement policy, and
//! for the partial stream of a hard-cancelled (`retire_now`) session.

use pvc_bdc::BdDecoder;
use pvc_client::{LinkModel, SessionClient};
use pvc_frame::{Dimensions, SrgbFrame};
use pvc_stream::{
    LeastLoaded, Placement, ResolutionTier, ServiceConfig, SessionConfig, SessionReport, Static,
    StreamRuntime, StreamService, WorkloadMix,
};

/// A heavy-tail mix over eight indices spans all three tiers (one
/// Vision-class whale, two Quest-Pro, five Quest-2).
const SESSIONS: usize = 8;
const BASE_FRAMES: u32 = 3;

fn base_dims() -> Dimensions {
    Dimensions::new(24, 24)
}

fn build_service(shards: usize) -> StreamService {
    let mut service = StreamService::new(
        ServiceConfig::default()
            .with_shards(shards)
            .with_collect_payloads(true)
            .with_collect_wire(true),
    );
    service.admit_mixed(SESSIONS, WorkloadMix::HeavyTail, base_dims(), BASE_FRAMES);
    service
}

/// The worker-side ground truth: every payload decoded with the scratch
/// decoder (the payload bytes *are* the adjusted frame, per the encoder
/// round-trip pin in `pvc_core`).
fn decode_payloads(payloads: &[Vec<u8>]) -> Vec<SrgbFrame> {
    let decoder = BdDecoder::new();
    payloads
        .iter()
        .map(|payload| {
            decoder
                .decode_bitstream(payload)
                .expect("worker bytes are valid")
        })
        .collect()
}

/// Replays one session's wire stream through a lossless client and
/// asserts the client saw exactly the worker's frames.
fn assert_client_matches_worker(client: &mut SessionClient, session: &SessionReport) {
    let wire = session.wire_stream.as_ref().expect("collect_wire was set");
    let payloads = session.payloads.as_ref().expect("collect_payloads was set");

    let mut decoded: Vec<SrgbFrame> = Vec::new();
    let seen = client
        .consume_with(wire, |index, frame| {
            assert_eq!(index as usize, decoded.len(), "frames arrive in order");
            decoded.push(frame.clone());
        })
        .expect("a worker-emitted stream is well-formed");

    assert_eq!(seen.header.session, session.session as u64);
    assert_eq!(seen.header.tier, session.tier);
    assert!(seen.terminated, "the stream carries an end record");
    assert_eq!(seen.cancelled, session.cancelled);
    assert_eq!(seen.delivery.frames_sent, payloads.len() as u64);
    assert_eq!(
        seen.delivery.frames_delivered, seen.delivery.frames_sent,
        "a lossless link delivers every frame on time"
    );
    assert_eq!(seen.delivery.frames_late + seen.delivery.frames_dropped, 0);
    assert!(
        seen.delivery.psnr_db().is_infinite(),
        "lossless link + lossless codec = infinite PSNR"
    );
    assert_eq!(
        decoded,
        decode_payloads(payloads),
        "session {}: client frames must be bit-identical to the worker's frames",
        session.session
    );
}

/// The tentpole pin: a mixed-tier fleet's client-side frames equal the
/// worker-side frames on a lossless link.
#[test]
fn lossless_client_reconstructs_the_workers_frames() {
    let report = build_service(1).run();
    assert_eq!(report.sessions.len(), SESSIONS);
    // All three tiers must actually be present for this to mean anything.
    for tier in ResolutionTier::ALL {
        assert!(
            report.sessions.iter().any(|s| s.tier == tier),
            "the mix must exercise {tier:?}"
        );
    }
    // One client for the whole fleet: its scratch frames recycle across
    // sessions of different dimensions.
    let mut client = SessionClient::new(LinkModel::lossless());
    for session in &report.sessions {
        assert_client_matches_worker(&mut client, session);
    }
}

/// Sharding and placement must not move a single wire byte: the framed
/// stream (header, frame records, end record) is a pure function of the
/// session config, so the client decodes identical frames no matter how
/// the fleet was scheduled.
#[test]
fn wire_streams_survive_sharding_and_placement() {
    let reference = build_service(1).run();
    let placements: [fn() -> Box<dyn Placement>; 2] =
        [|| Box::new(Static), || Box::new(LeastLoaded)];
    for make_placement in placements {
        for shards in [1, 4] {
            let run = build_service(shards).run_with_placement(make_placement());
            assert_eq!(run.sessions.len(), SESSIONS);
            let mut client = SessionClient::new(LinkModel::lossless());
            for (a, b) in reference.sessions.iter().zip(&run.sessions) {
                assert_eq!(a.session, b.session);
                assert_eq!(
                    a.wire_stream, b.wire_stream,
                    "session {}: wire bytes must not depend on shards/placement",
                    a.session
                );
                assert_client_matches_worker(&mut client, b);
            }
        }
    }
}

/// A hard-cancelled session's partial stream is still a well-formed,
/// fully decodable wire stream: its end record flags the cancel, its
/// frame records are exactly the payloads the worker managed to encode,
/// and the client reproduces them bit-for-bit.
#[test]
fn cancelled_session_ships_a_decodable_partial_stream() {
    let mut runtime = StreamRuntime::start_static(
        ServiceConfig::default()
            .with_collect_payloads(true)
            .with_collect_wire(true),
    );
    // A budget far larger than can stream before the cancel lands.
    let victim = runtime.admit(SessionConfig::synthetic(0, base_dims(), 100_000));
    let report = runtime.retire_now(victim);
    runtime.shutdown();

    assert!(report.cancelled, "the victim must be cut short");
    let payloads = report.payloads.as_ref().expect("collect_payloads was set");
    assert!(
        (payloads.len() as u64) < 100_000,
        "cancel must drop the remaining budget"
    );

    let mut client = SessionClient::new(LinkModel::lossless());
    let mut decoded: Vec<SrgbFrame> = Vec::new();
    let seen = client
        .consume_with(
            report.wire_stream.as_ref().expect("collect_wire was set"),
            |_, frame| decoded.push(frame.clone()),
        )
        .expect("a cancelled stream is still well-formed");

    assert!(seen.cancelled, "the end record must flag the cancel");
    assert!(seen.terminated, "cancel still writes a proper end record");
    assert_eq!(seen.delivery.frames_sent, payloads.len() as u64);
    assert_eq!(decoded, decode_payloads(payloads));
}
