//! P15 — shared-prefix query-plan sharing: the `core::query::plan`
//! trie vs the per-condition strategy on the bundle read path.
//!
//! Expected shape: on **shared**-regime bundles (every condition
//! opens with the same expensive two-step prefix) the trie walks the
//! fan-out once and forks condition masks where tails diverge, while
//! per-condition evaluation re-walks the prefix once per condition —
//! the trie wins and the gap tracks the prefix share. On **disjoint**
//! bundles (pairwise-distinct first steps) the trie still shares each
//! template between its owners.
//!
//! `cargo run --release -p socialreach-bench --bin p15-snapshot`
//! records the same comparison as `BENCH_p15.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use socialreach_bench::p15::{
    assert_plan_matches_per_condition, build_sharded, build_single, case, run_bundles,
};
use socialreach_bench::quick_mode;
use socialreach_core::BundleStrategy;

fn bench(c: &mut Criterion) {
    let nodes = if quick_mode() { 120 } else { 600 };
    let shards = 4;
    let mut group = c.benchmark_group("p15_query_plan_sharing");
    group.sample_size(10);

    for regime in ["shared", "disjoint"] {
        let case = case(nodes, shards, regime, 2);
        let single = build_single(&case);
        let sharded = build_sharded(&case);
        assert_plan_matches_per_condition(&case, single.reads(), sharded.reads());
        for (name, strategy) in [
            ("trie-plan", BundleStrategy::Batched),
            ("per-condition-baseline", BundleStrategy::PerCondition),
        ] {
            group.bench_with_input(BenchmarkId::new(name, &case.name), &(), |b, _| {
                b.iter(|| run_bundles(&case, sharded.reads(), strategy))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
