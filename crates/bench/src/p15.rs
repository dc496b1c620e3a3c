//! Shared setup for experiment P15 — shared-prefix query-plan sharing.
//!
//! The question: what does the **shared-prefix bundle plan** (the
//! `core::query::plan` trie — one masked fixpoint per 64 conditions,
//! every shared step prefix entered once with condition masks forked
//! where paths diverge) buy over the **per-condition** strategy (one
//! fixpoint per distinct condition, every prefix re-walked once per
//! condition)?
//!
//! Two bundle regimes over the same cross-heavy
//! [`CrossShardTopology`] graphs answer it from both sides:
//!
//! * **shared** — every condition starts with the same expensive
//!   two-step `friend+[1,2]/colleague+[1,2]` prefix and diverges only
//!   in its tail, so the trie walks the fan-out once where per-condition
//!   evaluation walks it once per condition;
//! * **disjoint** — no two templates share even their first step, so
//!   the trie shares only between owners of the same template.
//!
//! The baseline is the planner's own per-condition strategy
//! ([`BundleStrategy::PerCondition`]), which every backend serves.
//! Correctness is asserted before timing
//! ([`assert_plan_matches_per_condition`]): trie ≡ per-condition ≡
//! single-graph audiences on every measured bundle.

use rand::rngs::StdRng;
use rand::SeedableRng;
use socialreach_core::{
    AccessService, BundleStrategy, Deployment, PolicyStore, ReadStats, ResourceId, ServiceInstance,
};
use socialreach_graph::{NodeId, ShardAssignment, SocialGraph};
use socialreach_workload::CrossShardTopology;

/// The six shared-regime templates: one expensive common prefix, six
/// distinct tails (including the bare prefix itself, accepted at an
/// inner trie node).
const SHARED_TEMPLATES: [&str; 6] = [
    "friend+[1,2]/colleague+[1,2]",
    "friend+[1,2]/colleague+[1,2]/parent+[1]",
    "friend+[1,2]/colleague+[1,2]/parent+[1,2]",
    "friend+[1,2]/colleague+[1,2]/friend+[1]",
    "friend+[1,2]/colleague+[1,2]/friend+[1,2]",
    "friend+[1,2]/colleague+[1,2]/parent+[1]/friend+[1]",
];

/// The six disjoint-regime templates: pairwise-distinct first steps
/// (label × depth-set), so the trie shares nothing across templates.
/// Shapes and depth sets mirror the shared regime's weight, so both
/// regimes measure traversal, not setup.
const DISJOINT_TEMPLATES: [&str; 6] = [
    "friend+[1,2]/parent+[1,2]",
    "friend+[2]/colleague+[1,2]/parent+[1]",
    "colleague+[1,2]/friend+[1,2]",
    "colleague+[2]/friend+[1,2]/parent+[1]",
    "parent+[1,2]/friend+[1,2]",
    "parent+[1]/friend+[1,2]/colleague+[1]",
];

/// One prepared P15 scenario: a cross-heavy graph, policy bundles in
/// one of the two regimes, and the serving placement.
pub struct P15Case {
    /// Scenario name (`{regime}-s{shards}`).
    pub name: String,
    /// `"shared"` or `"disjoint"`.
    pub regime: &'static str,
    /// Serving shard count.
    pub shards: u32,
    /// The social graph (single-system view).
    pub graph: SocialGraph,
    /// Policies over it.
    pub store: PolicyStore,
    /// The generated bundles (resource-id groups).
    pub bundles: Vec<Vec<ResourceId>>,
    /// The placement.
    pub assignment: ShardAssignment,
}

/// Builds the P15 scenario for one `(regime, shards)` cell: `bundles`
/// bundles of `owners × 6` single-rule resources, owners strided
/// across the member set so every bundle fans out over every shard.
/// Deterministic in the arguments.
pub fn case(nodes: usize, shards: u32, regime: &'static str, bundles: usize) -> P15Case {
    let templates: &[&str] = match regime {
        "shared" => &SHARED_TEMPLATES,
        "disjoint" => &DISJOINT_TEMPLATES,
        other => panic!("unknown P15 regime {other:?}"),
    };
    let assignment = ShardAssignment::hashed(shards, 1500);
    let topo = CrossShardTopology {
        nodes,
        edges: nodes * 3,
        assignment: assignment.clone(),
        cross_fraction: 0.7,
    };
    let mut rng = StdRng::seed_from_u64(1500 + shards as u64);
    let mut graph = topo.build_graph(&mut rng);

    let owners_per_bundle = 8;
    let mut store = PolicyStore::new();
    let mut out = Vec::new();
    for b in 0..bundles {
        let mut bundle = Vec::new();
        for o in 0..owners_per_bundle {
            // Stride owners across the id space: neighbours in the
            // bundle land on different shards under hashed placement.
            let owner = NodeId(((b * owners_per_bundle + o) * 37 % nodes) as u32);
            for text in templates {
                let rid = store.register_resource(owner);
                store.allow(rid, text, &mut graph).expect("valid template");
                bundle.push(rid);
            }
        }
        out.push(bundle);
    }

    P15Case {
        name: format!("{regime}-s{shards}"),
        regime,
        shards,
        graph,
        store,
        bundles: out,
        assignment,
    }
}

/// A fresh sharded deployment over the case.
pub fn build_sharded(case: &P15Case) -> ServiceInstance {
    Deployment::sharded_with(case.assignment.clone()).from_graph(&case.graph, case.store.clone())
}

/// A fresh single-graph deployment over the case.
pub fn build_single(case: &P15Case) -> ServiceInstance {
    Deployment::online().from_graph(&case.graph, case.store.clone())
}

/// One bundle read under `strategy`: the default batched read for
/// [`BundleStrategy::Batched`] (the trie plan), the forced strategy
/// otherwise.
fn read_bundle(
    svc: &dyn AccessService,
    bundle: &[ResourceId],
    strategy: BundleStrategy,
) -> Vec<Vec<NodeId>> {
    match strategy {
        BundleStrategy::Batched => svc.audience_batch(bundle),
        BundleStrategy::PerCondition => svc.audience_batch_forced(bundle, strategy).map(|(a, _)| a),
    }
    .expect("bundle evaluates")
}

/// Asserts trie ≡ per-condition ≡ single-graph audiences on every
/// bundle (run once before timing).
pub fn assert_plan_matches_per_condition(
    case: &P15Case,
    single: &dyn AccessService,
    sharded: &dyn AccessService,
) {
    for bundle in &case.bundles {
        let trie = read_bundle(sharded, bundle, BundleStrategy::Batched);
        let per_cond = read_bundle(sharded, bundle, BundleStrategy::PerCondition);
        assert_eq!(
            trie, per_cond,
            "trie/per-condition divergence in {}",
            case.name
        );
        let single_trie = read_bundle(single, bundle, BundleStrategy::Batched);
        assert_eq!(
            trie, single_trie,
            "sharded/single divergence in {}",
            case.name
        );
        let single_per_cond = read_bundle(single, bundle, BundleStrategy::PerCondition);
        assert_eq!(
            single_trie, single_per_cond,
            "single trie/per-condition divergence in {}",
            case.name
        );
    }
}

/// Work census over every bundle under one strategy: sums of
/// traversals (fixpoints), states expanded, and the trie's
/// plan/expression state counts (the shared-prefix hit rate's raw
/// material; both zero per condition).
pub fn bundle_work_census(
    case: &P15Case,
    svc: &dyn AccessService,
    strategy: BundleStrategy,
) -> ReadStats {
    let mut total = ReadStats::default();
    for bundle in &case.bundles {
        let (_, stats) = svc
            .audience_batch_forced(bundle, strategy)
            .expect("bundle evaluates");
        total.absorb(&stats);
    }
    total
}

/// One pass of every bundle through a deployment under `strategy`.
pub fn run_bundles(case: &P15Case, svc: &dyn AccessService, strategy: BundleStrategy) {
    for bundle in &case.bundles {
        std::hint::black_box(read_bundle(svc, bundle, strategy).len());
    }
}
