//! Per-layer probes of a traced run: the harness holds its own mirror
//! of the dataset and times the public functions of the layers below
//! the service seam on the run's own inputs — policy parsing, bundle
//! plan compilation, CSR build and patch, and the product BFS.

use crate::dataset::{Dataset, Op, Write};
use crate::serve::ReadReq;
use crate::trace::Tracer;
use socialreach_core::online::evaluate_with_snapshot;
use socialreach_core::query::{evaluate_plan_audiences, parse_policy, BundlePlan};
use socialreach_core::PathExpr;
use socialreach_graph::csr::CsrSnapshot;
use socialreach_graph::{NodeId, SocialGraph};

/// Upper bounds on probe calls, so probes stay a small part of a run.
const MAX_CHECKS: usize = 2000;
const MAX_BUNDLES: usize = 300;
const MAX_PATCHES: usize = 2000;
const BUILDS: usize = 3;

/// The mirror: a graph plus each post's owner and parsed rules.
struct Mirror {
    g: SocialGraph,
    posts: Vec<(NodeId, Vec<PathExpr>)>,
}

impl Mirror {
    /// Applies a write to the mirror; rule texts are parsed under a
    /// `query/parse` span. Returns whether the topology changed.
    fn apply(&mut self, w: &Write, tracer: &mut Tracer) -> Result<bool, String> {
        match w {
            Write::User { name } => {
                self.g.add_node(name);
                Ok(true)
            }
            Write::Attr { user, key, value } => {
                self.g.set_node_attr(NodeId(*user), key, value.clone());
                Ok(false)
            }
            Write::Rel { src, label, dst } => {
                self.g.connect(NodeId(*src), label, NodeId(*dst));
                Ok(true)
            }
            Write::Befriend { a, b } => {
                self.g.connect(NodeId(*a), "friend", NodeId(*b));
                self.g.connect(NodeId(*b), "friend", NodeId(*a));
                Ok(true)
            }
            Write::Post { owner, rules } => {
                let mut paths = Vec::new();
                for text in rules {
                    let vocab = self.g.vocab_mut();
                    let p = tracer
                        .time("query", "parse", || parse_policy(text, vocab))
                        .map_err(|e| format!("parse {text}: {e}"))?;
                    paths.push(p);
                }
                self.posts.push((NodeId(*owner), paths));
                Ok(false)
            }
        }
    }
}

/// Runs every probe, recording spans into `tracer`.
pub fn run(
    data: &Dataset,
    ops: &[Op],
    applied: &[u32],
    reads: &[ReadReq],
    tracer: &mut Tracer,
) -> Result<(), String> {
    let mut m = Mirror {
        g: SocialGraph::new(),
        posts: Vec::new(),
    };
    for w in &data.setup {
        m.apply(w, tracer)?;
    }
    let mut snap = tracer.time("csr", "build", || CsrSnapshot::build(&m.g));
    for _ in 1..BUILDS {
        snap = tracer.time("csr", "build", || CsrSnapshot::build(&m.g));
    }

    let checks = reads.iter().filter_map(|r| match r {
        ReadReq::Check { rid, viewer } if *rid < data.posts => Some((*rid, *viewer)),
        _ => None,
    });
    for (rid, viewer) in checks.take(MAX_CHECKS) {
        let (owner, paths) = &m.posts[rid as usize];
        tracer.time("online", "check", || {
            paths.iter().any(|p| {
                evaluate_with_snapshot(&m.g, &snap, *owner, p, Some(NodeId(viewer))).granted
            })
        });
    }

    let bundles = reads.iter().filter_map(|r| match r {
        ReadReq::Audience { rids } => Some(rids),
        _ => None,
    });
    for rids in bundles.take(MAX_BUNDLES) {
        let mut owners = Vec::new();
        let mut paths = Vec::new();
        for &rid in rids {
            let (owner, ps) = &m.posts[rid as usize];
            for p in ps {
                owners.push(*owner);
                paths.push(p);
            }
        }
        let plan = tracer.time("query", "plan_compile", || BundlePlan::compile(&paths));
        if let Some(plan) = plan {
            tracer.time("online", "bundle", || {
                evaluate_plan_audiences(&m.g, &snap, &plan, &owners)
                    .audiences
                    .len()
            });
        }
    }

    let mut patched = 0;
    for &i in applied {
        let Op::Write(w) = &ops[i as usize] else {
            continue;
        };
        if m.apply(w, tracer)? && patched < MAX_PATCHES {
            patched += 1;
            let next = tracer.time("csr", "patch", || snap.apply_edge_appends(&m.g));
            snap = next.unwrap_or_else(|| CsrSnapshot::build(&m.g));
        }
    }
    Ok(())
}
