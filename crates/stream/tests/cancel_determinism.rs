//! Cancel determinism: hard-cancelling one session must not move a single
//! encoded bit of any *surviving* session's stream — under heterogeneous
//! resolution tiers, every placement policy, and any shard count.
//!
//! The acceptance property of hard-cancel retirement
//! (`StreamRuntime::retire_now`): a runtime concurrently serving all
//! three resolution tiers (Quest-2 / Quest-Pro / Vision-class, dealt by
//! the heavy-tail mix), with a long-budget victim session cancelled
//! mid-run, still produces — for every surviving session — a stream
//! bit-identical to a solo run of the same config on a fresh single-shard
//! runtime. The victim's own stream is a timing-dependent *prefix* of its
//! solo stream (frames already queued when the cancel lands are still
//! encoded), so the pin checks its partial payloads prefix-match too.
//! Frames are kept small (32×32 base) so this stays fast enough for every
//! CI run.

use pvc_frame::Dimensions;
use pvc_stream::{
    LeastLoaded, Placement, ServiceConfig, SessionConfig, Static, StreamRuntime, WorkloadMix,
};

/// Surviving sessions: a heavy-tail mix over eight indices spans all
/// three tiers (one Vision-class whale, two Quest-Pro, five Quest-2).
const SURVIVORS: usize = 8;
const BASE_FRAMES: u32 = 4;
/// The victim's budget: far more frames than can stream before the
/// cancel lands, so the cancel genuinely cuts the stream short.
const VICTIM_FRAMES: u32 = 100_000;

fn base_dims() -> Dimensions {
    Dimensions::new(32, 32)
}

fn survivor_configs() -> Vec<SessionConfig> {
    (0..SURVIVORS)
        .map(|index| {
            SessionConfig::synthetic_mixed(index, WorkloadMix::HeavyTail, base_dims(), BASE_FRAMES)
        })
        .collect()
}

fn victim_config() -> SessionConfig {
    SessionConfig::synthetic(SURVIVORS, base_dims(), VICTIM_FRAMES)
}

/// A session's stream when it is the only session on a fresh single-shard
/// runtime — the ground truth its churn/cancel-run stream must match.
fn solo_payloads(config: &SessionConfig) -> Vec<Vec<u8>> {
    let mut runtime =
        StreamRuntime::start_static(ServiceConfig::default().with_collect_payloads(true));
    let id = runtime.admit(config.clone());
    let report = runtime.retire(id);
    runtime.shutdown();
    report.payloads.expect("collect_payloads was set")
}

/// Runs the cancel scenario: admit the victim first (long budget), admit
/// the mixed-tier survivors, hard-cancel the victim while everything
/// streams, drain, shut down. Returns the survivors' payloads in id order
/// plus the victim's partial payloads.
fn cancel_run(shards: usize, placement: Box<dyn Placement>) -> (Vec<Vec<Vec<u8>>>, Vec<Vec<u8>>) {
    let mut runtime = StreamRuntime::start(
        ServiceConfig::default()
            .with_shards(shards)
            .with_queue_depth(2)
            .with_collect_payloads(true),
        placement,
    );
    let victim = runtime.admit(victim_config());
    let survivor_ids: Vec<usize> = survivor_configs()
        .into_iter()
        .map(|config| runtime.admit(config))
        .collect();

    let victim_report = runtime.retire_now(victim);
    assert!(victim_report.cancelled, "the victim must be cut short");
    assert!(
        victim_report.throughput.frames < u64::from(VICTIM_FRAMES),
        "cancel must drop the remaining frame budget"
    );

    runtime.drain();
    let report = runtime.shutdown();
    assert_eq!(report.churn.admitted as usize, SURVIVORS + 1);
    assert_eq!(report.churn.completed as usize, SURVIVORS + 1);
    assert_eq!(report.churn.cancelled, 1);
    assert_eq!(
        report.sessions.len(),
        SURVIVORS,
        "victim already handed out"
    );

    let mut survivors: Vec<Option<Vec<Vec<u8>>>> = vec![None; SURVIVORS];
    for session in report.sessions {
        assert!(!session.cancelled, "survivors are never flagged");
        let slot = survivor_ids
            .iter()
            .position(|&id| id == session.session)
            .expect("unexpected session id in the shutdown report");
        survivors[slot] = Some(session.payloads.expect("collect_payloads was set"));
    }
    (
        survivors
            .into_iter()
            .map(|payloads| payloads.expect("every survivor reports"))
            .collect(),
        victim_report.payloads.expect("collect_payloads was set"),
    )
}

#[test]
fn surviving_streams_are_bit_identical_under_a_mid_run_cancel() {
    let expected: Vec<Vec<Vec<u8>>> = survivor_configs().iter().map(solo_payloads).collect();

    // Run the whole matrix first so the victim's solo reference can be
    // rendered exactly as long as the longest observed partial stream —
    // rendering the full 100k-frame budget solo would take minutes, and
    // guessing a fixed margin would flake on a descheduled CI runner.
    let policies: &[fn() -> Box<dyn Placement>] = &[|| Box::new(Static), || Box::new(LeastLoaded)];
    let mut runs = Vec::new();
    for shards in [1usize, 4] {
        for make_policy in policies {
            let policy = make_policy();
            let name = policy.name();
            let (survivors, victim_partial) = cancel_run(shards, policy);
            assert_eq!(
                survivors, expected,
                "{name}, {shards} shard(s): a hard-cancel changed survivors' encoded bits"
            );
            runs.push((name, shards, victim_partial));
        }
    }

    let longest_partial = runs
        .iter()
        .map(|(_, _, partial)| partial.len())
        .max()
        .expect("the matrix is non-empty");
    let solo_frames = u32::try_from(longest_partial).expect("partial fits u32") + 1;
    let victim_solo = solo_payloads(
        &victim_config().with_profile(victim_config().profile.with_frames(solo_frames)),
    );
    for (name, shards, victim_partial) in runs {
        assert_eq!(
            victim_partial,
            victim_solo[..victim_partial.len()],
            "{name}, {shards} shard(s): the victim's partial stream must be a \
             bit-identical prefix of its solo stream"
        );
    }
}
