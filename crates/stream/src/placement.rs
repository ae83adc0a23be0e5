//! Pluggable session→shard placement policies.
//!
//! When a session is admitted, the runtime must pick the shard worker that
//! will own it for its whole stream. Which shard that is never affects the
//! session's encoded bits — each session is encoded in frame order by
//! exactly one worker from its own config — it only affects *load*: how
//! evenly sessions, their queued frames and (under heterogeneous profiles)
//! their **pixels** spread across workers.
//!
//! Two policies ship with the crate:
//!
//! * [`Static`] — the modulo routing of the original batch service
//!   (`session_id % shards`). Fully deterministic and oblivious to load;
//!   the baseline every determinism test pins against.
//! * [`LeastLoaded`] — scans every shard and places the session on the
//!   one with the lowest *pixel-weighted* [`ShardLoad::cost`], so a
//!   heterogeneous mix spreads by what its sessions cost rather than by
//!   how many there are.
//!
//! Under the elastic control plane, shards can also be *draining*
//! (winding down before decommission). Every policy skips draining shards;
//! [`plan_migration`] is the companion planner that proposes moving a
//! session off the busiest shard when the fleet's remaining work is badly
//! skewed.
//!
//! Policies see only [`ShardLoad`] snapshots, so custom implementations
//! (locality-aware, SLA-aware, …) plug in without touching the runtime.

use crate::session::SessionConfig;

/// A moment-in-time load snapshot of one shard, as sampled at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLoad {
    /// The shard index.
    pub shard: usize,
    /// Sessions currently placed on the shard (admitted, not yet
    /// completed).
    pub sessions: usize,
    /// Sum of the live sessions' per-frame pixel costs
    /// ([`SessionConfig::pixel_cost`]) — the shard's committed encode
    /// rate in pixels per round-robin turn. Updated synchronously at
    /// admission, so back-to-back placements see each other.
    pub session_pixels: u64,
    /// Pixels of rendered frames currently sitting in the render→encode
    /// queue — the congestion signal, in pixels.
    pub queued_pixels: u64,
    /// Expected remaining work: Σ over live sessions of `pixel_cost ×
    /// frames not yet rendered`. Decays as producers render and is
    /// decommitted on cancel/migrate, so it predicts how long the shard
    /// stays busy rather than how busy it is right now.
    pub remaining_pixels: u64,
    /// True while the shard is winding down before decommission: it still
    /// finishes (or hands off) its current sessions but must not receive
    /// new ones. Every shipped policy skips draining shards.
    pub draining: bool,
}

impl ShardLoad {
    /// The pixel-weighted load cost: committed session pixels plus queued
    /// frame pixels. A Vision-class session weighs ~3.3× a Quest-2 one
    /// instead of counting as one item.
    pub fn cost(&self) -> u64 {
        self.session_pixels + self.queued_pixels
    }
}

/// A session→shard placement policy.
///
/// Implementations may keep internal state (an RNG, a round-robin cursor);
/// the runtime calls [`Placement::place`] once per admission with live
/// load snapshots for every shard.
pub trait Placement: Send {
    /// Picks the shard for a newly admitted session.
    ///
    /// Must return the [`ShardLoad::shard`] id of a non-draining entry of
    /// `loads`; the runtime asserts this. `loads` always contains at
    /// least one non-draining shard. Note shard ids are stable across
    /// spawn/drain cycles and therefore not necessarily contiguous or
    /// equal to positions in `loads`.
    fn place(&mut self, session_id: usize, config: &SessionConfig, loads: &[ShardLoad]) -> usize;

    /// A short human-readable policy name for reports and CLI output.
    fn name(&self) -> &'static str;
}

/// The deterministic modulo baseline: `session_id % shards`.
///
/// Oblivious to load in either unit; exists so determinism tests have a
/// placement whose decisions depend on nothing but the session id.
#[derive(Debug, Clone, Copy, Default)]
pub struct Static;

/// The non-draining subset of `loads`, in order.
fn serving(loads: &[ShardLoad]) -> impl Iterator<Item = &ShardLoad> {
    loads.iter().filter(|load| !load.draining)
}

impl Placement for Static {
    fn place(&mut self, session_id: usize, _config: &SessionConfig, loads: &[ShardLoad]) -> usize {
        let serving: Vec<&ShardLoad> = serving(loads).collect();
        serving[session_id % serving.len()].shard
    }

    fn name(&self) -> &'static str {
        "static"
    }
}

/// Cost-aware placement: scan every shard, take the one with the lowest
/// pixel-weighted [`ShardLoad::cost`] (ties break toward the lower shard
/// index, so equal-load decisions are reproducible).
///
/// This is the policy that makes heterogeneous mixes balance: admitting a
/// bimodal population, the expensive sessions spread by what they *cost*,
/// not by how many they *are*. The full scan reads one gauge per shard —
/// O(shards) per admission, irrelevant next to the cost of streaming a
/// session.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastLoaded;

impl Placement for LeastLoaded {
    fn place(&mut self, _session_id: usize, _config: &SessionConfig, loads: &[ShardLoad]) -> usize {
        serving(loads)
            .min_by_key(|load| (load.cost(), load.shard))
            .expect("loads always has a serving shard")
            .shard
    }

    fn name(&self) -> &'static str {
        "least-loaded"
    }
}

/// A proposed session move from one shard to another, as computed by
/// [`plan_migration`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationPlan {
    /// The overloaded source shard (move one of its sessions away).
    pub from: usize,
    /// The underloaded destination shard.
    pub to: usize,
}

/// Proposes a rebalancing migration when the fleet's expected remaining
/// work is badly skewed: the serving shard with the most
/// [`ShardLoad::remaining_pixels`] hands one session to the one with the
/// least.
///
/// Returns `None` unless all of the following hold — the hysteresis that
/// keeps the planner from thrashing:
///
/// * at least two serving (non-draining) shards exist,
/// * the source hosts at least two sessions (moving a shard's only
///   session just relocates the hot spot), and
/// * the source's remaining work is more than twice the destination's.
pub fn plan_migration(loads: &[ShardLoad]) -> Option<MigrationPlan> {
    let from = serving(loads).max_by_key(|load| (load.remaining_pixels, load.shard))?;
    let to = serving(loads).min_by_key(|load| (load.remaining_pixels, load.shard))?;
    if from.shard == to.shard || from.sessions < 2 {
        return None;
    }
    if from.remaining_pixels <= 2 * to.remaining_pixels {
        return None;
    }
    Some(MigrationPlan {
        from: from.shard,
        to: to.shard,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{ResolutionTier, SessionProfile, WorkloadMix};
    use pvc_frame::Dimensions;

    fn config() -> SessionConfig {
        SessionConfig::synthetic(0, Dimensions::new(32, 32), 4)
    }

    /// Pixel-weighted loads (session counts left at zero).
    fn pixel_loads(pixels: &[(u64, u64)]) -> Vec<ShardLoad> {
        pixels
            .iter()
            .enumerate()
            .map(|(shard, &(session_pixels, queued_pixels))| ShardLoad {
                shard,
                sessions: 0,
                session_pixels,
                queued_pixels,
                remaining_pixels: 0,
                draining: false,
            })
            .collect()
    }

    /// Remaining-work loads: `(sessions, remaining_pixels, draining)`.
    fn remaining_loads(entries: &[(usize, u64, bool)]) -> Vec<ShardLoad> {
        entries
            .iter()
            .enumerate()
            .map(
                |(shard, &(sessions, remaining_pixels, draining))| ShardLoad {
                    shard,
                    sessions,
                    // Admitted cost tracks remaining work in these fixtures, so
                    // cost-aware placement and the migration planner agree on
                    // the ordering.
                    session_pixels: remaining_pixels,
                    queued_pixels: 0,
                    remaining_pixels,
                    draining,
                },
            )
            .collect()
    }

    #[test]
    fn static_placement_is_modulo() {
        let mut policy = Static;
        let loads = remaining_loads(&[(9, 9_000, false), (0, 0, false), (5, 5_000, false)]);
        for id in 0..12 {
            assert_eq!(policy.place(id, &config(), &loads), id % 3);
        }
    }

    #[test]
    fn cost_sums_the_pixel_gauges() {
        let load = ShardLoad {
            shard: 0,
            sessions: 3,
            session_pixels: 4096,
            queued_pixels: 1024,
            remaining_pixels: 777,
            draining: false,
        };
        assert_eq!(load.cost(), 5120, "cost ignores the item gauges");
    }

    #[test]
    fn least_loaded_picks_the_cheapest_shard_and_breaks_ties_low() {
        let mut policy = LeastLoaded;
        let lopsided = pixel_loads(&[(4096, 0), (1024, 512), (8192, 0)]);
        assert_eq!(policy.place(0, &config(), &lopsided), 1);
        let tied = pixel_loads(&[(2048, 0), (0, 2048), (2048, 1)]);
        assert_eq!(policy.place(1, &config(), &tied), 0, "tie → lower index");
    }

    /// The pin for the pixel-weighted gauge: admit a bimodal mix to two
    /// shards, replaying each policy's decisions against synthetically
    /// maintained loads. Session-count balancing (what an item-count score
    /// degenerates to here) alternates shards and collapses every
    /// expensive session onto one shard; cost-aware placement keeps the
    /// pixel load spread.
    #[test]
    fn bimodal_mix_does_not_collapse_under_cost_aware_placement() {
        let base = Dimensions::new(96, 96);
        let small = SessionProfile::for_tier(ResolutionTier::Quest2, base, 8);
        let large = SessionProfile::for_tier(ResolutionTier::VisionClass, base, 8);
        assert_eq!(WorkloadMix::Bimodal.tier_for(0), ResolutionTier::Quest2);

        // Replays an admission sequence, maintaining the loads the way the
        // runtime does (synchronously at admission), and returns each
        // shard's committed pixels.
        let admit_all = |policy: &mut dyn Placement| -> Vec<u64> {
            let mut shard_loads = pixel_loads(&[(0, 0), (0, 0)]);
            for index in 0..8 {
                let profile = if WorkloadMix::Bimodal.tier_for(index) == ResolutionTier::Quest2 {
                    small
                } else {
                    large
                };
                let config = config().with_profile(profile);
                let shard = policy.place(index, &config, &shard_loads);
                shard_loads[shard].sessions += 1;
                shard_loads[shard].session_pixels += profile.pixel_cost();
            }
            shard_loads.iter().map(|l| l.session_pixels).collect()
        };

        // Session-count balancing: place on the shard with fewer sessions
        // (ties low) — the degenerate behaviour of any item-count score
        // when queues are empty. The bimodal alternation then routes every
        // Vision-class session to the same shard.
        struct CountBalancer;
        impl Placement for CountBalancer {
            fn place(&mut self, _id: usize, _c: &SessionConfig, loads: &[ShardLoad]) -> usize {
                loads
                    .iter()
                    .min_by_key(|l| (l.sessions, l.shard))
                    .expect("non-empty")
                    .shard
            }
            fn name(&self) -> &'static str {
                "count-balancer"
            }
        }

        let by_count = admit_all(&mut CountBalancer);
        let count_imbalance = by_count.iter().max().unwrap() - by_count.iter().min().unwrap();
        assert_eq!(
            by_count
                .iter()
                .filter(|&&p| p == 4 * large.pixel_cost())
                .count(),
            1,
            "count balancing collapses all four Vision-class sessions onto one shard: {by_count:?}"
        );

        let by_cost = admit_all(&mut LeastLoaded);
        let cost_imbalance = by_cost.iter().max().unwrap() - by_cost.iter().min().unwrap();
        assert!(
            cost_imbalance <= large.pixel_cost(),
            "cost-aware placement must keep shards within one large session: {by_cost:?}"
        );
        assert!(
            cost_imbalance * 4 < count_imbalance,
            "cost-aware spread ({cost_imbalance}) must beat count-balancing ({count_imbalance})"
        );
    }

    #[test]
    fn policies_report_their_names() {
        assert_eq!(Static.name(), "static");
        assert_eq!(LeastLoaded.name(), "least-loaded");
    }

    #[test]
    fn every_policy_skips_draining_shards() {
        // Shard 0 is draining and otherwise the most attractive target by
        // every score; shard 2 is the cheapest serving shard.
        let loads = remaining_loads(&[(0, 0, true), (3, 9_000, false), (1, 100, false)]);
        for id in 0..16 {
            assert_eq!(Static.place(id, &config(), &loads), [1, 2][id % 2]);
            assert_eq!(LeastLoaded.place(id, &config(), &loads), 2);
        }
    }

    #[test]
    fn migration_planner_moves_work_off_the_skewed_shard() {
        // Balanced fleet: no plan.
        assert_eq!(
            plan_migration(&remaining_loads(&[(2, 1_000, false), (2, 900, false)])),
            None
        );
        // Skewed beyond 2×, source has spare sessions: move one 0 → 1.
        assert_eq!(
            plan_migration(&remaining_loads(&[(3, 10_000, false), (1, 1_000, false)])),
            Some(MigrationPlan { from: 0, to: 1 })
        );
        // Skewed but the hot shard has a single session: relocating it
        // would just move the hot spot.
        assert_eq!(
            plan_migration(&remaining_loads(&[(1, 10_000, false), (0, 0, false)])),
            None
        );
        // One serving shard: nowhere to go (the other is draining).
        assert_eq!(
            plan_migration(&remaining_loads(&[(3, 10_000, false), (0, 0, true)])),
            None
        );
        // Draining shards are neither sources nor destinations.
        assert_eq!(
            plan_migration(&remaining_loads(&[
                (4, 50_000, true),
                (3, 9_000, false),
                (1, 1_000, false)
            ])),
            Some(MigrationPlan { from: 1, to: 2 })
        );
    }
}
