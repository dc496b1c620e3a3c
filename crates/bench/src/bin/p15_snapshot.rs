//! Records experiment P15 (shared-prefix query-plan sharing: the
//! `core::query::plan` trie vs the per-condition strategy, on
//! prefix-sharing vs disjoint bundle regimes, single and sharded) as
//! `BENCH_p15.json`, plus human-readable tables on stdout. Every
//! timing carries its minimum and median over the repetitions.
//!
//! ```text
//! cargo run --release -p socialreach-bench --bin p15-snapshot           # default sizes
//! SOCIALREACH_QUICK=1 cargo run --release -p socialreach-bench --bin p15-snapshot
//! cargo run --release -p socialreach-bench --bin p15-snapshot -- out.json
//! ```

use serde::Value;
use socialreach_bench::p15::{
    assert_plan_matches_per_condition, build_sharded, build_single, bundle_work_census, case,
    run_bundles,
};
use socialreach_bench::{quick_mode, time_spread, Table};
use socialreach_core::BundleStrategy;

/// Pins glibc's heap-trim and mmap thresholds by re-executing once
/// with the standard `MALLOC_*` knobs set (they are only read at
/// process start). Without this the comparison is bimodal: the trie's
/// per-shard state is one large contiguous block per chunk, and once
/// earlier cases have grown and shrunk the heap, glibc returns that
/// block to the OS on every free — so later trie passes re-fault the
/// pages in while the per-condition baseline's smaller blocks stay
/// cached in the arena, and the ratio measures the allocator instead
/// of the traversal. Both strategies run under the same pinned
/// allocator.
fn pin_allocator_and_reexec() {
    if std::env::var_os("MALLOC_TRIM_THRESHOLD_").is_some() {
        return;
    }
    let exe = std::env::current_exe().expect("own path");
    let status = std::process::Command::new(exe)
        .args(std::env::args().skip(1))
        .env("MALLOC_TRIM_THRESHOLD_", "-1")
        .env("MALLOC_MMAP_THRESHOLD_", "33554432")
        .status()
        .expect("re-exec with pinned allocator");
    std::process::exit(status.code().unwrap_or(1));
}

fn main() {
    pin_allocator_and_reexec();
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_p15.json".to_string());
    let nodes = if quick_mode() { 150 } else { 800 };
    let bundles = if quick_mode() { 2 } else { 4 };
    let reps = if quick_mode() { 3 } else { 20 };
    let shard_counts: &[u32] = if quick_mode() { &[2] } else { &[2, 4, 8] };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut census_rows: Vec<Value> = Vec::new();
    let mut timing_rows: Vec<Value> = Vec::new();
    let mut census_table = Table::new(&[
        "case",
        "conditions",
        "plan fixpoints",
        "plan states",
        "expr states",
        "prefix share",
        "per-cond fixpoints",
    ]);
    let mut timing_table = Table::new(&[
        "case",
        "backend",
        "trie min (ms)",
        "trie median (ms)",
        "per-cond min (ms)",
        "per-cond median (ms)",
        "per-cond/trie",
    ]);

    for regime in ["shared", "disjoint"] {
        for &shards in shard_counts {
            let case = case(nodes, shards, regime, bundles);
            let single = build_single(&case);
            let sharded = build_sharded(&case);
            assert_plan_matches_per_condition(&case, single.reads(), sharded.reads());

            let conditions: usize = case.bundles.iter().map(Vec::len).sum();

            // 1. Work census: how much of the expression-tree state
            //    space the trie folds away, and the fixpoint collapse
            //    vs per-condition evaluation.
            let plan_work = bundle_work_census(&case, sharded.reads(), BundleStrategy::Batched);
            let per_cond_work =
                bundle_work_census(&case, sharded.reads(), BundleStrategy::PerCondition);
            let share = plan_work.prefix_share().unwrap_or(0.0);
            census_table.row(vec![
                case.name.clone(),
                conditions.to_string(),
                plan_work.traversals.to_string(),
                plan_work.plan_states.to_string(),
                plan_work.expr_states.to_string(),
                format!("{share:.2}"),
                per_cond_work.traversals.to_string(),
            ]);
            census_rows.push(Value::Map(vec![
                ("case".into(), Value::Str(case.name.clone())),
                ("regime".into(), Value::Str(regime.into())),
                ("shards".into(), Value::Int(shards as i64)),
                ("conditions".into(), Value::Int(conditions as i64)),
                (
                    "plan_fixpoints".into(),
                    Value::Int(plan_work.traversals as i64),
                ),
                (
                    "plan_states".into(),
                    Value::Int(plan_work.plan_states as i64),
                ),
                (
                    "expr_states".into(),
                    Value::Int(plan_work.expr_states as i64),
                ),
                ("prefix_share".into(), Value::Float(share)),
                (
                    "per_condition_fixpoints".into(),
                    Value::Int(per_cond_work.traversals as i64),
                ),
            ]));

            // 2. Bundle timings, trie vs per-condition, on both
            //    backends.
            for (backend, svc) in [("single", single.reads()), ("sharded", sharded.reads())] {
                let trie = time_spread(reps, || run_bundles(&case, svc, BundleStrategy::Batched));
                let per_cond = time_spread(reps, || {
                    run_bundles(&case, svc, BundleStrategy::PerCondition)
                });
                let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
                let (t_ms, p_ms) = (ms(trie.min), ms(per_cond.min));
                timing_table.row(vec![
                    case.name.clone(),
                    backend.to_string(),
                    format!("{t_ms:.3}"),
                    format!("{:.3}", ms(trie.median)),
                    format!("{p_ms:.3}"),
                    format!("{:.3}", ms(per_cond.median)),
                    format!("{:.2}x", p_ms / t_ms),
                ]);
                timing_rows.push(Value::Map(vec![
                    ("case".into(), Value::Str(case.name.clone())),
                    ("regime".into(), Value::Str(regime.into())),
                    ("shards".into(), Value::Int(shards as i64)),
                    ("backend".into(), Value::Str(backend.into())),
                    ("conditions".into(), Value::Int(conditions as i64)),
                    ("trie_ms".into(), Value::Float(t_ms)),
                    ("trie_median_ms".into(), Value::Float(ms(trie.median))),
                    ("per_condition_ms".into(), Value::Float(p_ms)),
                    (
                        "per_condition_median_ms".into(),
                        Value::Float(ms(per_cond.median)),
                    ),
                    ("speedup_vs_per_condition".into(), Value::Float(p_ms / t_ms)),
                ]));
            }
        }
    }

    println!("\nP15.1 — shared-prefix plan work census (sharded backend)");
    println!("{}", census_table.render());
    println!("P15.2 — audience bundles: trie plan vs per-condition ({cores} cores)");
    println!("{}", timing_table.render());

    let doc = Value::Map(vec![
        (
            "experiment".into(),
            Value::Str("p15_query_plan_sharing".into()),
        ),
        (
            "description".into(),
            Value::Str(
                "Shared-prefix query-plan sharing: the core::query::plan trie (one masked \
                 fixpoint per 64 conditions, shared step prefixes entered once, condition masks \
                 forked at divergence) vs the per-condition strategy (one fixpoint per \
                 condition), on prefix-sharing vs disjoint policy bundles over cross-heavy \
                 CrossShardTopology graphs; trie ≡ per-condition ≡ single-graph equivalence \
                 asserted before every measurement; *_ms are minima and *_median_ms medians \
                 over the repetitions"
                    .into(),
            ),
        ),
        ("nodes".into(), Value::Int(nodes as i64)),
        ("bundles".into(), Value::Int(bundles as i64)),
        ("repetitions".into(), Value::Int(reps as i64)),
        ("cores".into(), Value::Int(cores as i64)),
        ("work_census".into(), Value::Array(census_rows)),
        ("audience_bundles".into(), Value::Array(timing_rows)),
    ]);
    let json = serde_json::to_string(&doc).expect("snapshot serializes");
    std::fs::write(&out_path, json + "\n").expect("snapshot written");
    println!("wrote {out_path}");
}
