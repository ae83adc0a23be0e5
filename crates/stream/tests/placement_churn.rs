//! Property pins for the elastic control plane's invariants:
//!
//! * No placement policy ever routes an admission onto a draining shard,
//!   for arbitrary fleet load shapes (as long as one serving shard
//!   exists — the controller guarantees that by construction, since it
//!   never drains the last shard).
//! * The per-shard load counters (live sessions, committed pixels,
//!   remaining pixels) return to exactly zero after an
//!   admit → migrate → retire lifecycle, for arbitrary session shapes —
//!   the leak-freedom the admission budget depends on.

use proptest::prelude::*;
use pvc_frame::Dimensions;
use pvc_stream::{
    LeastLoaded, Placement, ServiceConfig, SessionConfig, ShardLoad, Static, StreamRuntime,
};

/// Arbitrary fleet snapshots: up to 8 shards with independent counter
/// values and draining flags, with shard 0 forced to stay serving.
fn load_strategy() -> impl Strategy<Value = Vec<ShardLoad>> {
    proptest::collection::vec(
        ((0u32..6, 0u32..100_000), 0u32..100_000, any::<bool>()),
        1..8,
    )
    .prop_map(|entries| {
        let mut loads: Vec<ShardLoad> = entries
            .into_iter()
            .enumerate()
            .map(|(shard, entry)| {
                let ((sessions, session_pixels), remaining_pixels, draining) = entry;
                ShardLoad {
                    shard,
                    sessions: sessions as usize,
                    session_pixels: u64::from(session_pixels),
                    remaining_pixels: u64::from(remaining_pixels),
                    draining,
                }
            })
            .collect();
        loads[0].draining = false;
        loads
    })
}

proptest! {
    #[test]
    fn no_policy_places_onto_a_draining_shard(
        loads in load_strategy(),
        session_id in 0u32..64,
    ) {
        let session_id = session_id as usize;
        let config = SessionConfig::synthetic(session_id, Dimensions::new(16, 16), 4);
        let policies: Vec<Box<dyn Placement>> = vec![
            Box::new(Static),
            Box::new(LeastLoaded),
        ];
        for mut policy in policies {
            let chosen = policy.place(session_id, &config, &loads);
            let load = loads
                .iter()
                .find(|load| load.shard == chosen)
                .expect("policies must choose a listed shard");
            prop_assert!(
                !load.draining,
                "{} routed session {} onto draining shard {}",
                policy.name(),
                session_id,
                chosen
            );
        }
    }
}

proptest! {
    #[test]
    fn gauges_return_to_zero_after_admit_migrate_retire(
        frames in 20u32..120,
        side in 8u32..32,
    ) {
        let mut runtime = StreamRuntime::start_static(ServiceConfig::default().with_shards(2));
        let id = runtime.admit(SessionConfig::synthetic(0, Dimensions::new(side, side), frames));
        let from = runtime.assignment(id).expect("just admitted");
        // A fast stream may finish before the verb lands (migrate then
        // returns false); the gauges must zero out either way.
        let _ = runtime.migrate(id, 1 - from);
        let report = runtime.retire(id);
        prop_assert_eq!(report.throughput.frames, u64::from(frames));
        for load in runtime.shard_loads() {
            prop_assert_eq!(load.sessions, 0, "live sessions leaked on shard {}", load.shard);
            prop_assert_eq!(load.session_pixels, 0, "committed pixels leaked on shard {}", load.shard);
            prop_assert_eq!(load.remaining_pixels, 0, "remaining pixels leaked on shard {}", load.shard);
        }
        runtime.shutdown();
    }
}
