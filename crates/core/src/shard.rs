//! The scatter-gather shard router over `kbqa-shardd` worker lanes.
//!
//! [`ShardRouter`] owns the lanes of a [`ShardPlan`]: one [`RemoteShard`]
//! client per shard, speaking the wire protocol to an out-of-process
//! `kbqa-shardd` worker that maps that shard's snapshot
//! (`store.shard-{i}.snap`, written by
//! [`ServingArtifacts::save`](crate::persist::ServingArtifacts::save) — the
//! one place the store is partitioned) — plus per-shard fault flags and the
//! per-shard telemetry lanes ([`kbqa_obs::ShardObs`]). The engine consults
//! it at exactly one point — the `V(e, p)` value lookup in the BFQ kernel —
//! so a sharded engine *grounds globally, looks up shard-locally, and
//! accumulates globally*:
//!
//! 1. NER grounding and conceptualization run against the global store and
//!    gazetteer (entity identity is global — the paper's Eq (7) enumerates
//!    one global grounding set).
//! 2. Each grounding's KB traversals fan out to **only the owning shard**
//!    (subject hash). Distinct groundings may hit distinct shards; the
//!    union is the question's `shard_fanout`.
//! 3. Contributions accumulate in the same sequential global grounding
//!    order as the unsharded kernel, into one global
//!    [`TopK`](kbqa_common::topk::TopK) whose `floor` bound rejects every
//!    non-winner at push time — so the merged ranking (answers, score
//!    bits, provenance, tie order) is byte-identical to the single-store
//!    kernel. `tests/shard_equivalence.rs` pins this across shard counts,
//!    and the server's chaos suite pins it under worker faults.
//!
//! Paths longer than the plan's closure depth (a swapped-in model may
//! intern longer expanded predicates than the cut replicated) fall back to
//! the global store per lookup — correctness never depends on the closure
//! being deep enough.
//!
//! **Fault isolation:** each shard carries a poison flag. The supervisor
//! sets it while a worker is dead, hung, or parked, so lookups fail fast
//! without burning a network deadline; tests set it to inject faults.
//! Routing to a poisoned shard — or exhausting a lane's deadline/retry
//! budget — panics with a typed [`ShardPanic`] payload; the service catches
//! it at the request boundary and degrades that question to a typed
//! [`Refusal::ShardUnavailable`](crate::service::Refusal) instead of taking
//! the process down.

use std::sync::atomic::{AtomicU8, Ordering};

use kbqa_obs::ShardObs;
use kbqa_rdf::path::ExpandedPredicate;
use kbqa_rdf::shard::ShardPlan;
pub use kbqa_rdf::shard::ShardStats;
use kbqa_rdf::NodeId;

use crate::remote::RemoteShard;

/// Panic payload carried when a lookup routes to a poisoned shard (or a
/// remote lane exhausts its deadline/retry budget); the service downcasts
/// it to attribute the failure to the right lane.
#[derive(Clone, Copy, Debug)]
pub struct ShardPanic(pub usize);

/// The shard router: plan + worker lanes + fault flags + telemetry.
#[derive(Debug)]
pub struct ShardRouter {
    plan: ShardPlan,
    lanes: Vec<RemoteShard>,
    faults: Vec<AtomicU8>,
    stats: ShardStats,
    obs: ShardObs,
}

impl ShardRouter {
    /// A router over remote worker lanes, one per shard of `plan`. The
    /// supervisor owns worker lifecycle; it parks/heals lanes through
    /// [`ShardRouter::inject_fault`] / [`ShardRouter::heal`] as workers
    /// die and recover.
    pub fn from_remote(plan: ShardPlan, lanes: Vec<RemoteShard>, stats: ShardStats) -> Self {
        assert_eq!(
            lanes.len(),
            plan.shards(),
            "remote lane count must match the plan"
        );
        let n = lanes.len();
        Self {
            plan,
            lanes,
            faults: (0..n).map(|_| AtomicU8::new(0)).collect(),
            stats,
            obs: ShardObs::new(n),
        }
    }

    /// The plan this router serves.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Balance/replication stats of the cut, as recorded in the bundle
    /// manifest.
    pub fn stats(&self) -> &ShardStats {
        &self.stats
    }

    /// Per-shard telemetry lanes + fan-out distribution.
    pub fn obs(&self) -> &ShardObs {
        &self.obs
    }

    /// Number of shard lanes.
    pub fn shard_count(&self) -> usize {
        self.lanes.len()
    }

    /// The worker lanes, indexed by shard id.
    pub fn remote_lanes(&self) -> &[RemoteShard] {
        &self.lanes
    }

    /// The one scatter point: run `V(entity, path)` on shard `i`'s worker
    /// at `epoch`, appending values in shard-traversal order, under the
    /// lane's deadline/retry budget. Any failure — poison flag, exhausted
    /// budget, epoch refusal — unwinds with the typed [`ShardPanic`] the
    /// service isolates per question.
    #[inline]
    pub fn lookup_into(
        &self,
        i: usize,
        entity: NodeId,
        path: &ExpandedPredicate,
        epoch: u64,
        out: &mut Vec<NodeId>,
    ) {
        // The error detail dies here; the service converts the unwind into
        // a typed ShardUnavailable and records the failure on this lane.
        if self.is_poisoned(i) || self.lanes[i].lookup_into(epoch, entity, path, out).is_err() {
            std::panic::panic_any(ShardPanic(i));
        }
    }

    /// The owner shard of `entity` under the plan.
    #[inline]
    pub fn owner(&self, entity: NodeId) -> usize {
        self.plan.owner(entity)
    }

    /// Poison shard `i`: subsequent lookups routed there panic (and are
    /// isolated by the service) without touching the worker — the
    /// supervisor's park/fast-fail switch, and the fault-injection surface.
    pub fn inject_fault(&self, i: usize) {
        self.faults[i].store(1, Ordering::Relaxed);
    }

    /// Heal a poisoned shard.
    pub fn heal(&self, i: usize) {
        self.faults[i].store(0, Ordering::Relaxed);
    }

    /// Whether shard `i` is currently poisoned.
    pub fn is_poisoned(&self, i: usize) -> bool {
        self.faults
            .get(i)
            .map(|f| f.load(Ordering::Relaxed) != 0)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::remote::RemoteOptions;

    /// A router whose workers are not running: nothing listens on its
    /// sockets, so every lookup fails inside the lane's deadline.
    fn dead_router() -> ShardRouter {
        let lanes = vec![
            RemoteShard::new(0, "/tmp/none-0.sock", RemoteOptions::default()),
            RemoteShard::new(1, "/tmp/none-1.sock", RemoteOptions::default()),
        ];
        ShardRouter::from_remote(ShardPlan::new(2), lanes, ShardStats::default())
    }

    fn lookup_panic(router: &ShardRouter, shard: usize) -> usize {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            router.lookup_into(
                shard,
                NodeId(0),
                &ExpandedPredicate::single(kbqa_rdf::PredicateId(0)),
                0,
                &mut Vec::new(),
            );
        }))
        .unwrap_err();
        err.downcast_ref::<ShardPanic>().expect("typed payload").0
    }

    #[test]
    fn dead_lane_unwinds_with_the_typed_payload() {
        let router = dead_router();
        assert_eq!(router.shard_count(), 2);
        assert_eq!(router.remote_lanes().len(), 2);
        assert_eq!(lookup_panic(&router, 1), 1);
    }

    #[test]
    fn poisoned_lane_fails_fast_with_the_typed_payload() {
        let router = dead_router();
        assert!(!router.is_poisoned(0));
        router.inject_fault(0);
        assert!(router.is_poisoned(0));
        // Poisoned: refused before any connect attempt, so no deadline.
        let started = std::time::Instant::now();
        assert_eq!(lookup_panic(&router, 0), 0);
        assert!(started.elapsed() < std::time::Duration::from_millis(100));
        router.heal(0);
        assert!(!router.is_poisoned(0));
    }
}
