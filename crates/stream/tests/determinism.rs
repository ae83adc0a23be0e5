//! Stream-service determinism smoke test (runs in the normal test suite).
//!
//! The acceptance property of the streaming subsystem: a service run with
//! 1 shard and with 4 shards produces **bit-identical** per-session encoded
//! streams for the same seeds. Frames are kept small (32×32) so this stays
//! fast enough for every CI run — the large-scale numbers come from the
//! `stream_throughput` bench binary instead.

use pvc_frame::Dimensions;
use pvc_stream::{GazeModel, ServiceConfig, SessionConfig, StreamService};

const SESSIONS: usize = 8;
const FRAMES: u32 = 6;

fn build_service(shards: usize) -> StreamService {
    let dims = Dimensions::new(32, 32);
    let mut service = StreamService::new(
        ServiceConfig::default()
            .with_shards(shards)
            .with_collect_payloads(true),
    );
    service.admit_synthetic(SESSIONS - 1, dims, FRAMES);
    // Mix in one smooth-pursuit session so both gaze models are exercised.
    service.admit(
        SessionConfig::synthetic(SESSIONS - 1, dims, FRAMES)
            .with_gaze_model(GazeModel::pursuit(1.5)),
    );
    service
}

#[test]
fn one_and_four_shards_produce_bit_identical_streams() {
    let single = build_service(1).run();
    let sharded = build_service(4).run();

    assert_eq!(single.sessions.len(), SESSIONS);
    assert_eq!(sharded.sessions.len(), SESSIONS);
    assert_eq!(single.totals.frames, (SESSIONS as u64) * u64::from(FRAMES));
    assert_eq!(single.totals.frames, sharded.totals.frames);
    assert_eq!(single.totals.bytes_out, sharded.totals.bytes_out);

    for (a, b) in single.sessions.iter().zip(&sharded.sessions) {
        assert_eq!(a.session, b.session);
        assert_eq!(a.scene, b.scene);
        assert_eq!(
            a.payloads, b.payloads,
            "session {}: encoded bitstreams must not depend on the shard count",
            a.session
        );
        assert_eq!(a.stream_digest, b.stream_digest);
        assert_eq!(a.cache, b.cache, "cache behaviour is per-session state");
        let payloads = a.payloads.as_ref().expect("collect_payloads was set");
        assert_eq!(payloads.len(), FRAMES as usize);
        assert!(payloads.iter().all(|p| !p.is_empty()));
    }

    // Re-running the same configuration reproduces the digests exactly.
    let again = build_service(4).run();
    for (a, b) in sharded.sessions.iter().zip(&again.sessions) {
        assert_eq!(a.stream_digest, b.stream_digest);
    }
}
