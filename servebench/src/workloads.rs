//! The four named workloads. Sizes, mixes and the frozen open-loop
//! rates live here; `WORKLOADS.md` states why each exists and what it
//! loads.

use crate::dataset::InputSpec;
use crate::serve::Shape;

/// Seed of every workload's dataset. The dataset stands for the
/// deployment's social graph and stays the same from run to run;
/// `--seed` draws the op stream over it.
pub const DATASET_SEED: u64 = 2012;

pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub input: InputSpec,
    /// Open-loop offered rate, ops/s: about half the closed-loop
    /// capacity measured at the commit that defined the benchmark.
    pub offered_rate: f64,
    /// Operator maintenance in the capacity phase: `snapshot()` then
    /// `compact()` every this many writes (durable deployments only).
    pub maintenance_every: usize,
    /// Setups per run (the median is reported as `setup_s`).
    pub setups: usize,
    /// Deployments that replay the run in traced runs, to measure the
    /// sharded, planner and wire layers the workload itself bypasses.
    pub layer_twins: Vec<Shape>,
}

/// Op mix of the `social-*` workloads: check, feed, audience, write.
const SOCIAL_MIX: [f64; 4] = [0.60, 0.15, 0.15, 0.10];
/// Write mix of the `social-*` workloads: befriend, new post, set
/// attribute, new user.
const SOCIAL_WRITES: [f64; 4] = [0.40, 0.35, 0.17, 0.08];

pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "social-single",
            shape: Shape::Single,
            input: InputSpec {
                members: 20_000,
                posts_per_member: 1.0,
                mix: SOCIAL_MIX,
                recent_checks: 0.0,
                write_mix: SOCIAL_WRITES,
            },
            offered_rate: 800.0,
            maintenance_every: 0,
            setups: 5,
            layer_twins: vec![Shape::ShardedPlanned(4)],
        },
        Workload {
            name: "social-sharded",
            shape: Shape::ShardedPlanned(4),
            input: InputSpec {
                members: 20_000,
                posts_per_member: 1.0,
                mix: SOCIAL_MIX,
                recent_checks: 0.0,
                write_mix: SOCIAL_WRITES,
            },
            offered_rate: 90.0,
            maintenance_every: 0,
            setups: 3,
            layer_twins: vec![],
        },
        Workload {
            name: "social-networked",
            shape: Shape::Networked(2),
            input: InputSpec {
                members: 2_000,
                posts_per_member: 1.0,
                mix: SOCIAL_MIX,
                recent_checks: 0.0,
                write_mix: SOCIAL_WRITES,
            },
            offered_rate: 70.0,
            maintenance_every: 0,
            setups: 3,
            layer_twins: vec![],
        },
        Workload {
            name: "churn-durable",
            shape: Shape::Durable,
            input: InputSpec {
                members: 1_000,
                posts_per_member: 0.5,
                mix: [0.35, 0.10, 0.10, 0.45],
                recent_checks: 0.7,
                write_mix: [0.45, 0.15, 0.30, 0.10],
            },
            offered_rate: 450.0,
            maintenance_every: 1000,
            setups: 5,
            layer_twins: vec![
                Shape::ShardedPlanned(4),
                Shape::Networked(2),
                Shape::Sharded(2),
            ],
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}
