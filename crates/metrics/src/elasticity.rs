//! Control-plane telemetry for the elastic streaming runtime.
//!
//! Where [`crate::ChurnCounters`] ledgers what the session *population*
//! did, [`ElasticityCounters`] ledgers what the control plane did *to*
//! it: admissions rejected or queued against the fleet pixel budget,
//! sessions downgraded a resolution tier to shed load, sessions migrated
//! between shards, and shards spawned or drained by the autoscaler. The
//! elastic controller keeps one and folds it into the final service
//! report so a bench run can prove each control action actually fired.

/// Running counters of elastic control-plane actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ElasticityCounters {
    /// Admissions rejected outright: the session did not fit the fleet
    /// pixel budget and the pending queue was full (or could never fit).
    pub rejected: u64,
    /// Admissions deferred into the pending queue to be retried on a
    /// later control tick, once budget frees up.
    pub queued: u64,
    /// Sessions downgraded one resolution tier mid-stream to shed load
    /// under sustained overload (quality traded for throughput).
    pub shed: u64,
    /// Sessions migrated between shards with their stream state carried
    /// along (the remaining stream stays bit-identical to a solo run).
    pub migrated: u64,
    /// Shards spawned by the autoscaler after start-up.
    pub shards_spawned: u64,
    /// Shards drained (sessions migrated off, threads wound down).
    pub shards_drained: u64,
}

impl ElasticityCounters {
    /// Records one rejected admission.
    pub fn record_rejection(&mut self) {
        self.rejected += 1;
    }

    /// Records one admission deferred into the pending queue.
    pub fn record_queued(&mut self) {
        self.queued += 1;
    }

    /// Records one mid-stream tier downgrade.
    pub fn record_shed(&mut self) {
        self.shed += 1;
    }

    /// Records one session migration between shards.
    pub fn record_migration(&mut self) {
        self.migrated += 1;
    }

    /// Records one autoscaler shard spawn.
    pub fn record_shard_spawned(&mut self) {
        self.shards_spawned += 1;
    }

    /// Records one autoscaler shard drain.
    pub fn record_shard_drained(&mut self) {
        self.shards_drained += 1;
    }

    /// Adds another ledger's counts into this one — used when the
    /// controller (which counts admission decisions) folds its ledger
    /// into the runtime's (which counts sheds/migrations/scaling).
    pub fn merge(&mut self, other: &ElasticityCounters) {
        self.rejected += other.rejected;
        self.queued += other.queued;
        self.shed += other.shed;
        self.migrated += other.migrated;
        self.shards_spawned += other.shards_spawned;
        self.shards_drained += other.shards_drained;
    }

    /// True when no control action has fired — the fleet ran entirely
    /// passively (every admission fit, no scaling, no shedding).
    pub fn is_passive(&self) -> bool {
        *self == ElasticityCounters::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_per_action() {
        let mut counters = ElasticityCounters::default();
        assert!(counters.is_passive());
        counters.record_rejection();
        counters.record_queued();
        counters.record_queued();
        counters.record_shed();
        counters.record_migration();
        counters.record_shard_spawned();
        counters.record_shard_drained();
        assert_eq!(counters.rejected, 1);
        assert_eq!(counters.queued, 2);
        assert_eq!(counters.shed, 1);
        assert_eq!(counters.migrated, 1);
        assert_eq!(counters.shards_spawned, 1);
        assert_eq!(counters.shards_drained, 1);
        assert!(!counters.is_passive());
    }

    #[test]
    fn merge_sums_every_field() {
        let mut a = ElasticityCounters {
            rejected: 1,
            queued: 2,
            shed: 3,
            migrated: 4,
            shards_spawned: 5,
            shards_drained: 6,
        };
        let b = ElasticityCounters {
            rejected: 10,
            queued: 20,
            shed: 30,
            migrated: 40,
            shards_spawned: 50,
            shards_drained: 60,
        };
        a.merge(&b);
        assert_eq!(
            a,
            ElasticityCounters {
                rejected: 11,
                queued: 22,
                shed: 33,
                migrated: 44,
                shards_spawned: 55,
                shards_drained: 66,
            }
        );
    }
}
