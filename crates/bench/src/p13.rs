//! Shared setup for experiment P13 — the cost of the service seam.
//!
//! The question: does serving reads through `&dyn AccessService`
//! (virtual dispatch, the deployment-agnostic seam every caller now
//! goes through) cost anything measurable over statically dispatched
//! calls on the concrete backend? The answer should be no: batch reads
//! amortize one virtual call over an entire traversal, so the seam is
//! free — and `BENCH_p13.json` pins that claim with numbers (the
//! acceptance bar is dyn within 5% of static on batch reads).
//!
//! Correctness is asserted before timing ([`assert_call_parity`]):
//! static-dispatch and dyn-dispatch trait calls must return identical
//! decisions and audiences, so the measured paths cannot drift apart
//! semantically.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socialreach_core::{
    AccessService, Decision, Deployment, PolicyStore, ResourceId, ServiceInstance,
};
use socialreach_graph::NodeId;
use socialreach_workload::{generate_policies, GraphSpec, PolicyWorkloadConfig};

/// One prepared P13 scenario: an OSN-shaped graph, policies, a
/// decision stream and the audience bundle (every resource).
pub struct P13Case {
    /// Scenario name.
    pub name: String,
    /// The social graph.
    pub graph: socialreach_graph::SocialGraph,
    /// Policies over it.
    pub store: PolicyStore,
    /// Every generated resource (the audience bundle).
    pub rids: Vec<ResourceId>,
    /// The decision request stream.
    pub requests: Vec<(ResourceId, NodeId)>,
}

/// Builds the P13 scenario (deterministic in the arguments).
pub fn case(nodes: usize, num_requests: usize) -> P13Case {
    let mut graph = GraphSpec::ba_osn(nodes, 1300).build();
    let mut store = PolicyStore::new();
    let mut rng = StdRng::seed_from_u64(1313);
    let cfg = PolicyWorkloadConfig {
        num_resources: 24,
        steps: (1, 2),
        deep_prob: 0.4,
        pred_prob: 0.2,
        ..PolicyWorkloadConfig::default()
    };
    let rids = generate_policies(&mut graph, &mut store, &cfg, &mut rng);
    let requests: Vec<(ResourceId, NodeId)> = (0..num_requests)
        .map(|_| {
            (
                rids[rng.gen_range(0..rids.len())],
                NodeId(rng.gen_range(0..nodes as u32)),
            )
        })
        .collect();
    P13Case {
        name: format!("n{nodes}"),
        graph,
        store,
        rids,
        requests,
    }
}

/// The deployments P13 measures the seam on.
pub fn backends(case: &P13Case) -> Vec<ServiceInstance> {
    vec![
        Deployment::online().from_graph(&case.graph, case.store.clone()),
        Deployment::sharded(4, 13).from_graph(&case.graph, case.store.clone()),
    ]
}

/// One audience-bundle pass, **statically** dispatched: the generic is
/// monomorphized per backend, so the trait calls compile to direct
/// calls — the "inherent call" baseline.
pub fn run_audiences_static<S: AccessService>(case: &P13Case, svc: &S) {
    let audiences = svc.audience_batch(&case.rids).expect("evaluates");
    std::hint::black_box(audiences.len());
}

/// One audience-bundle pass through `&dyn AccessService` (virtual
/// dispatch — the seam under test).
pub fn run_audiences_dyn(case: &P13Case, svc: &dyn AccessService) {
    let audiences = svc.audience_batch(&case.rids).expect("evaluates");
    std::hint::black_box(audiences.len());
}

/// One cold-cache-irrelevant decision-stream pass, statically
/// dispatched (the decision cache is warm after the first call; P13
/// measures dispatch, not traversal, so a warm cache is *harder* on
/// the seam — per-request work shrinks toward the call overhead).
pub fn run_checks_static<S: AccessService>(case: &P13Case, svc: &S, threads: usize) {
    let decisions = svc.check_batch(&case.requests, threads).expect("evaluates");
    std::hint::black_box(decisions.len());
}

/// The decision-stream pass through `&dyn AccessService`.
pub fn run_checks_dyn(case: &P13Case, svc: &dyn AccessService, threads: usize) {
    let decisions = svc.check_batch(&case.requests, threads).expect("evaluates");
    std::hint::black_box(decisions.len());
}

/// Asserts static-vs-dyn call parity on a backend: statically and
/// dynamically dispatched trait calls return identical audiences and
/// decisions (run once before measuring; the CI smoke step runs it on
/// every backend).
pub fn assert_call_parity(case: &P13Case, svc: &ServiceInstance) {
    fn check_against(
        flavor: &str,
        name: &str,
        dyn_audiences: &[Vec<NodeId>],
        dyn_decisions: &[Decision],
        audiences: Vec<Vec<NodeId>>,
        decisions: Vec<Decision>,
    ) {
        assert_eq!(
            dyn_audiences, audiences,
            "dyn vs {flavor} audiences ({name})"
        );
        assert_eq!(
            dyn_decisions, decisions,
            "dyn vs {flavor} decisions ({name})"
        );
    }
    let dyn_reads: &dyn AccessService = svc.reads();
    let name = dyn_reads.describe();
    let dyn_audiences = dyn_reads.audience_batch(&case.rids).expect("evaluates");
    let dyn_decisions = dyn_reads.check_batch(&case.requests, 2).expect("evaluates");
    let (audiences, decisions) = match svc {
        ServiceInstance::Single(sys) => (
            AccessService::audience_batch(sys, &case.rids),
            AccessService::check_batch(sys, &case.requests, 2),
        ),
        ServiceInstance::Sharded(sys) => (
            AccessService::audience_batch(sys, &case.rids),
            AccessService::check_batch(sys, &case.requests, 2),
        ),
        ServiceInstance::Networked(sys) => (
            AccessService::audience_batch(sys, &case.rids),
            AccessService::check_batch(sys, &case.requests, 2),
        ),
    };
    check_against(
        "static",
        &name,
        &dyn_audiences,
        &dyn_decisions,
        audiences.expect("evaluates"),
        decisions.expect("evaluates"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_holds_on_both_backends() {
        let case = case(120, 60);
        for svc in backends(&case) {
            assert_call_parity(&case, &svc);
        }
    }
}
