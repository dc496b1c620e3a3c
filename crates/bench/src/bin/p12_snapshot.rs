//! Records experiment P12 (cross-shard batch amortization: the masked
//! one-fixpoint-per-bundle read path vs the per-condition sharded
//! fixpoint vs the single-graph batch BFS, across shard counts ×
//! crossing rates) as `BENCH_p12.json`, plus human-readable tables on
//! stdout. Every timing carries its mean (`*_ms`), minimum and median
//! over the repetitions.
//!
//! ```text
//! cargo run --release -p socialreach-bench --bin p12-snapshot           # default sizes
//! SOCIALREACH_QUICK=1 cargo run --release -p socialreach-bench --bin p12-snapshot
//! cargo run --release -p socialreach-bench --bin p12-snapshot -- out.json
//! ```

use serde::Value;
use socialreach_bench::p12::{
    assert_batched_matches_oracles, build_sharded, build_single, bundle_work_census, case,
    run_batched, run_per_condition,
};
use socialreach_bench::{quick_mode, time_spread, Spread, Table};

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_p12.json".to_string());
    let nodes = if quick_mode() { 150 } else { 800 };
    let bundles = if quick_mode() { 2 } else { 4 };
    let reps = if quick_mode() { 2 } else { 8 };
    let shard_counts: &[u32] = if quick_mode() {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 8]
    };
    let cross_fractions: &[f64] = if quick_mode() {
        &[0.5]
    } else {
        &[0.1, 0.5, 0.9]
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut census_rows: Vec<Value> = Vec::new();
    let mut timing_rows: Vec<Value> = Vec::new();
    let mut census_table = Table::new(&[
        "case",
        "conditions",
        "fixpoints",
        "rounds",
        "states expanded",
        "masked exports",
    ]);
    let mut timing_table = Table::new(&[
        "case",
        "batched (ms)",
        "per-cond (ms)",
        "single (ms)",
        "batched/per-cond",
        "batched/single",
    ]);

    for &cross in cross_fractions {
        for &shards in shard_counts {
            let case = case(nodes, shards, cross, bundles);
            let single = build_single(&case);
            let sharded = build_sharded(&case);
            let sharded_sys = sharded.as_sharded().expect("sharded deployment");
            assert_batched_matches_oracles(&case, single.reads(), sharded_sys);

            let conditions: usize = case.bundles.iter().map(Vec::len).sum();

            // 1. Fixpoint work census: the collapse from
            //    O(conditions × rounds) shard passes to O(rounds),
            //    through the uniform ReadStats every backend reports.
            let work = bundle_work_census(&case, sharded.reads());
            census_table.row(vec![
                case.name.clone(),
                conditions.to_string(),
                work.traversals.to_string(),
                work.rounds.to_string(),
                work.states_expanded.to_string(),
                work.exported_states.to_string(),
            ]);
            census_rows.push(Value::Map(vec![
                ("case".into(), Value::Str(case.name.clone())),
                ("shards".into(), Value::Int(shards as i64)),
                ("cross_fraction".into(), Value::Float(cross)),
                ("conditions".into(), Value::Int(conditions as i64)),
                ("fixpoints".into(), Value::Int(work.traversals as i64)),
                ("rounds".into(), Value::Int(work.rounds as i64)),
                (
                    "states_expanded".into(),
                    Value::Int(work.states_expanded as i64),
                ),
                (
                    "masked_exports".into(),
                    Value::Int(work.exported_states as i64),
                ),
            ]));

            // 2. Bundle timings: batched vs per-condition vs single.
            let batched = time_spread(reps, || run_batched(&case, sharded.reads()));
            let per_cond = time_spread(reps, || run_per_condition(&case, sharded_sys));
            let single_t = time_spread(reps, || run_batched(&case, single.reads()));
            let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
            let (b_ms, p_ms, s_ms) = (ms(batched.mean), ms(per_cond.mean), ms(single_t.mean));
            // `{name}_ms` (mean) plus `{name}_min_ms`/`{name}_median_ms`.
            let spread = |name: &str, t: &Spread| {
                [
                    (format!("{name}_ms"), Value::Float(ms(t.mean))),
                    (format!("{name}_min_ms"), Value::Float(ms(t.min))),
                    (format!("{name}_median_ms"), Value::Float(ms(t.median))),
                ]
            };
            timing_table.row(vec![
                case.name.clone(),
                format!("{b_ms:.3}"),
                format!("{p_ms:.3}"),
                format!("{s_ms:.3}"),
                format!("{:.2}x", p_ms / b_ms),
                format!("{:.2}x", s_ms / b_ms),
            ]);
            let mut row = vec![
                ("case".into(), Value::Str(case.name.clone())),
                ("shards".into(), Value::Int(shards as i64)),
                ("cross_fraction".into(), Value::Float(cross)),
                ("conditions".into(), Value::Int(conditions as i64)),
            ];
            row.extend(spread("batched", &batched));
            row.extend(spread("per_condition", &per_cond));
            row.extend(spread("single", &single_t));
            row.push(("speedup_vs_per_condition".into(), Value::Float(p_ms / b_ms)));
            row.push(("ratio_vs_single".into(), Value::Float(s_ms / b_ms)));
            timing_rows.push(Value::Map(row));
        }
    }

    println!("\nP12.1 — bundle fixpoint work census (batched masked engine)");
    println!("{}", census_table.render());
    println!("P12.2 — audience bundles: batched vs per-condition vs single ({cores} cores)");
    println!("{}", timing_table.render());

    let doc = Value::Map(vec![
        (
            "experiment".into(),
            Value::Str("p12_batch_amortization".into()),
        ),
        (
            "description".into(),
            Value::Str(
                "Cross-shard batch amortization: the masked one-fixpoint-per-bundle read path \
                 (seeded multi-source mask BFS, per-shard visited state persisted across rounds) \
                 vs the per-condition sharded fixpoint and the single-graph batch BFS, on \
                 controlled-crossing CrossShardTopology graphs with cross-shard policy bundles; \
                 equivalence asserted before every measurement; *_ms are means, *_min_ms and \
                 *_median_ms the spread over the repetitions"
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
