//! Churn determinism: session streams are bit-identical under dynamic
//! admission/retirement, every placement policy, and any shard count.
//!
//! The acceptance property of the long-lived runtime: admitting sessions
//! while others stream, retiring sessions mid-run, and re-admitting new
//! ones must not change a single encoded bit of *any* session's stream —
//! each session is encoded in frame order by exactly one worker from its
//! own config, so its digest equals the digest of a solo run of the same
//! config on a fresh single-shard service. Frames are kept small (32×32)
//! so this stays fast enough for every CI run.

use pvc_frame::Dimensions;
use pvc_stream::{
    GazeModel, LeastLoaded, Placement, ServiceConfig, SessionConfig, Static, StreamRuntime,
};

const INITIAL: usize = 8;
const REPLACEMENTS: usize = 4;
const FRAMES: u32 = 6;

fn dims() -> Dimensions {
    Dimensions::new(32, 32)
}

/// The roster: 8 initial sessions (one with smooth-pursuit gaze so both
/// models are exercised) plus 4 replacements admitted mid-run.
fn roster() -> Vec<SessionConfig> {
    let mut configs: Vec<SessionConfig> = (0..INITIAL + REPLACEMENTS)
        .map(|index| SessionConfig::synthetic(index, dims(), FRAMES))
        .collect();
    configs[INITIAL - 1] = configs[INITIAL - 1]
        .clone()
        .with_gaze_model(GazeModel::pursuit(1.5));
    configs
}

/// A session's digest when it is the only session on a fresh single-shard
/// runtime — the ground truth its churn-run digest must match.
fn solo_digest(config: &SessionConfig) -> u64 {
    let mut runtime = StreamRuntime::start_static(ServiceConfig::default());
    let id = runtime.admit(config.clone());
    let report = runtime.retire(id);
    runtime.shutdown();
    report.stream_digest
}

/// Runs the churn scenario: admit 8, retire the first half mid-stream
/// (graceful — each finishes its frame budget), admit 4 replacements,
/// shut down. Returns every session's digest in id order.
fn churn_digests(shards: usize, placement: Box<dyn Placement>) -> Vec<u64> {
    let configs = roster();
    let mut runtime = StreamRuntime::start(ServiceConfig::default().with_shards(shards), placement);
    let first_wave: Vec<usize> = configs[..INITIAL]
        .iter()
        .map(|config| runtime.admit(config.clone()))
        .collect();

    // Retire the first half while the second half is still streaming.
    let mut retired_digests = Vec::new();
    for &id in &first_wave[..INITIAL / 2] {
        retired_digests.push((id, runtime.retire(id).stream_digest));
    }

    // Re-admit: the runtime keeps serving, ids keep counting up.
    for config in &configs[INITIAL..] {
        runtime.admit(config.clone());
    }

    let report = runtime.shutdown();
    // Retirement hands reports over; the shutdown report covers the rest,
    // while churn counters and totals span everything ever served.
    assert_eq!(report.sessions.len(), configs.len() - retired_digests.len());
    assert_eq!(report.churn.admitted, configs.len() as u64);
    assert_eq!(report.churn.retired, (INITIAL / 2) as u64);
    assert_eq!(report.churn.completed, configs.len() as u64);
    assert_eq!(
        report.totals.frames,
        configs.len() as u64 * u64::from(FRAMES),
        "totals must include the retired sessions' frames"
    );

    // Stitch retired + remaining reports back into id order.
    let mut digests: Vec<Option<u64>> = vec![None; configs.len()];
    for (id, digest) in retired_digests {
        digests[id] = Some(digest);
    }
    for session in &report.sessions {
        assert!(
            digests[session.session]
                .replace(session.stream_digest)
                .is_none(),
            "session {} reported twice",
            session.session
        );
    }
    digests
        .into_iter()
        .enumerate()
        .map(|(id, digest)| digest.unwrap_or_else(|| panic!("session {id} never reported")))
        .collect()
}

#[test]
fn churned_sessions_match_their_solo_digests_under_every_policy() {
    let expected: Vec<u64> = roster().iter().map(solo_digest).collect();

    for shards in [1usize, 4] {
        let static_run = churn_digests(shards, Box::new(Static));
        assert_eq!(
            static_run, expected,
            "static placement, {shards} shard(s): churn changed encoded bits"
        );
        let least_loaded_run = churn_digests(shards, Box::new(LeastLoaded));
        assert_eq!(
            least_loaded_run, expected,
            "least-loaded, {shards} shard(s): churn changed encoded bits"
        );
    }
}
