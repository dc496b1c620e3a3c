//! The online evaluation engine: constrained product BFS over the social
//! graph.
//!
//! This is the paper's §1 baseline (*"apply a Depth-First Search
//! algorithm (respectively, Breadth-First Search algorithm) together
//! with the constraints to reduce the search space"*) and the semantic
//! **ground truth** the join-index engine is property-tested against.
//!
//! The search runs over product states `(member, step, depth-in-step)`:
//!
//! * from `(v, i, d)` every edge labeled `label_i` in direction `dir_i`
//!   leads to `(u, i, d+1)`, as long as `d+1` does not exceed the step's
//!   saturation depth (unbounded depth sets saturate: once `d` reaches
//!   the open tail every further depth behaves identically, so the state
//!   space stays finite);
//! * a state `(u, i, d)` with `d ∈ I_i` whose attribute conditions
//!   accept `u` *completes* step `i`: it matches the whole path when `i`
//!   is the last step, and otherwise ε-moves to `(u, i+1, 0)`.
//!
//! Matching is over **walks** — members and relationships may repeat.
//!
//! # Two implementations, one semantics
//!
//! * [`evaluate`] / [`evaluate_with_snapshot`] — the production engine:
//!   a level-synchronous BFS over a label-partitioned
//!   [`CsrSnapshot`], with flat dense visited/parent arrays indexed by
//!   `(step, depth) · |V| + member` and swap-buffer frontiers. A path
//!   step scans only the `O(deg_label)` matching CSR slice instead of
//!   filtering all `O(deg)` incident edges, and the hot loop touches no
//!   hash map or `VecDeque`.
//! * [`evaluate_reference`] — the original HashMap/VecDeque product BFS,
//!   retained verbatim as the executable specification. The flat engine
//!   is property-tested decision-for-decision against it
//!   (`tests/csr_differential.rs`), and degenerate inputs whose product
//!   space would make the dense arrays unreasonable (astronomical
//!   saturation depths) transparently fall back to it.
//!
//! Both traversals expand states in identical FIFO order, so audiences,
//! decisions and witness walks agree exactly — including
//! [`SearchStats::edges_scanned`], which on **both** engines counts
//! label-matching traversals only. The reference engine additionally
//! reports the non-matching edges it had to inspect and skip as
//! [`SearchStats::edges_filtered`]; the snapshot engine never even
//! looks at those, so its `edges_filtered` is always zero. The two
//! `edges_scanned` series therefore share an axis in experiments.
//!
//! # Multi-source and seeded reads
//!
//! Every multi-source or seeded read — bundle audiences, the
//! cross-shard fixpoints of the sharded and networked backends, and
//! targeted checks across shards (re-seeded at every shard hand-off) —
//! runs on the masked plan engine in [`crate::query::engine`], where a
//! single path is a one-chain plan and a single source is a one-bit
//! mask. This module keeps the one shape the mask engine cannot match
//! on cost: a single owner, a single path, a single graph (`check` and
//! a lone audience).

use crate::path::PathExpr;
use socialreach_graph::csr::CsrSnapshot;
use socialreach_graph::{Direction, EdgeId, NodeId, SocialGraph};
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

/// Counters describing how much work an evaluation performed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Product states dequeued.
    pub states_visited: usize,
    /// Label-matching edge traversals. Both engines count exactly the
    /// edges whose label matches the active step, so the series is
    /// comparable across engines.
    pub edges_scanned: usize,
    /// Edges inspected and skipped because their label did not match.
    /// Only the reference engine pays this cost (it filters the full
    /// adjacency list); the snapshot engine's per-(node, label) slices
    /// never touch a non-matching edge, so it reports zero.
    pub edges_filtered: usize,
}

impl SearchStats {
    /// Element-wise accumulation (batch paths merge per-chunk counters).
    pub fn absorb(&mut self, other: &SearchStats) {
        self.states_visited += other.states_visited;
        self.edges_scanned += other.edges_scanned;
        self.edges_filtered += other.edges_filtered;
    }
}

/// One traversed relationship of a witness walk: the edge plus the
/// direction it was taken in (`true` = along its orientation).
pub type WitnessHop = (EdgeId, bool);

/// Result of evaluating one access condition online.
#[derive(Clone, Debug)]
pub struct OnlineOutcome {
    /// Whether the target requester matched (always `false` when no
    /// target was supplied).
    pub granted: bool,
    /// Every member that matches the full path (the audience) — only
    /// populated when no early-exit target was supplied.
    pub matched: Vec<NodeId>,
    /// A shortest witness walk to the target, when granted.
    pub witness: Option<Vec<WitnessHop>>,
    /// Work counters.
    pub stats: SearchStats,
}

impl OnlineOutcome {
    fn empty_path(owner: NodeId, target: Option<NodeId>) -> Self {
        let granted = target == Some(owner);
        OnlineOutcome {
            granted,
            matched: if target.is_none() {
                vec![owner]
            } else {
                vec![]
            },
            witness: granted.then(Vec::new),
            stats: SearchStats::default(),
        }
    }
}

// ---------------------------------------------------------------------
// Flat-array snapshot engine
// ---------------------------------------------------------------------

/// Cap on `layers · |V|` dense state slots (64 MiB of visited stamps).
/// Above it the reference engine's sparse bookkeeping wins.
pub(crate) const MAX_FLAT_STATES: u64 = 1 << 24;
/// Cap on the number of `(step, depth)` layers by themselves, so a
/// degenerate `label+[1..2^30]` cannot force a huge layer table.
pub(crate) const MAX_FLAT_LAYERS: u64 = 1 << 20;
/// `parent_hop` packs `edge id << 1 | forward`; this marks ε-moves and
/// the start state.
const HOP_NONE: u32 = u32::MAX;

/// Reusable per-thread search buffers, epoch-stamped so reuse costs
/// `O(1)` instead of a clear per query. Frontier entries pack
/// `(layer << 32) | member` so the hot loop decodes with shifts instead
/// of division; the flat array index is `layer · |V| + member`.
#[derive(Default)]
struct Scratch {
    epoch: u32,
    visited: Vec<u32>,
    matched_epoch: Vec<u32>,
    frontier: Vec<u64>,
    next: Vec<u64>,
    parent_state: Vec<u32>,
    parent_hop: Vec<u32>,
    /// Per-path layer table, rebuilt per call without reallocating.
    layers: Vec<LayerInfo>,
}

impl Scratch {
    /// Advances and returns the reuse epoch, clearing every stamp array
    /// on the (rare) wrap so stale stamps can never alias a new search.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.visited.fill(0);
            self.matched_epoch.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

/// Everything about a `(step, depth)` layer that is constant across its
/// `|V|` states, precomputed once per call so the per-state loop is
/// table lookups: depth-set membership, last-step flag, the ε-target
/// layer, and the edge-expansion target layer.
#[derive(Clone, Copy, Debug)]
struct LayerInfo {
    /// Index of the step this layer belongs to.
    step: u16,
    /// `d >= 1 && d ∈ I_step`: states here may complete the step.
    completes: bool,
    /// This is the path's final step (completion ⇒ match).
    last: bool,
    /// Layer id of `(step+1, 0)` for ε-moves (unused when `last`).
    eps_layer: u32,
    /// States here may take another `label_step` edge.
    expands: bool,
    /// Layer id reached by that edge (`min(d+1, sat)` of the same step).
    next_layer: u32,
}

/// Fills `layers` with the dense per-(step, depth) layer table of
/// `steps`.
fn fill_layer_table(steps: &[crate::path::Step], layers: &mut Vec<LayerInfo>) {
    layers.clear();
    let mut base = 0u32;
    for (i, step) in steps.iter().enumerate() {
        let sat = step.depths.saturation();
        let unbounded = step.depths.is_unbounded();
        for d in 0..=sat {
            layers.push(LayerInfo {
                step: i as u16,
                completes: d >= 1 && step.depths.contains(d),
                last: i == steps.len() - 1,
                eps_layer: base + sat + 1, // first layer of step i+1
                expands: d < sat || unbounded,
                next_layer: base + (d + 1).min(sat),
            });
        }
        base += sat + 1;
    }
}

/// `(v_count, total_states)` when the dense product space of `path`
/// over `snap` is reasonable, `None` when the reference engine's
/// sparse bookkeeping should take over.
fn flat_dimensions(snap: &CsrSnapshot, path: &PathExpr) -> Option<(u32, usize)> {
    let num_nodes = snap.num_nodes() as u64;
    let layer_count: u64 = path
        .steps
        .iter()
        .map(|s| s.depths.saturation() as u64 + 1)
        .sum();
    if num_nodes == 0
        || layer_count > MAX_FLAT_LAYERS
        || layer_count * num_nodes > MAX_FLAT_STATES
        || snap.num_edges() as u64 >= u64::from(HOP_NONE >> 1)
    {
        return None;
    }
    Some((num_nodes as u32, (layer_count * num_nodes) as usize))
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
    /// One cached snapshot per thread for callers that evaluate against
    /// a bare `&SocialGraph` (the engine layer caches its own shared
    /// snapshot; see `Enforcer`).
    static SNAPSHOT: RefCell<Option<Rc<CsrSnapshot>>> = const { RefCell::new(None) };
    /// `(topology generation, targeted-check misses)` — see
    /// `BUILD_AFTER_MISSES`.
    static SNAPSHOT_MISSES: RefCell<(u64, u32)> = const { RefCell::new((0, 0)) };
}

/// A one-shot targeted check on a graph with no current snapshot runs
/// the reference engine instead of paying an `O(|E| log deg)` index
/// build the seed never charged (a CLI `check`, or a mutate-then-check
/// loop where every check sees a fresh topology generation). After
/// this many consecutive targeted misses on one generation the build
/// amortizes, so the snapshot is built. Audience materialization
/// explores the whole product space and builds immediately.
const BUILD_AFTER_MISSES: u32 = 2;

/// Returns a current snapshot of `g`, reusing the thread-local cache
/// when the topology generation still matches. `None` for uncacheable
/// graphs (generation 0: deserialized without `rebuild_lookups`).
fn thread_snapshot(g: &SocialGraph) -> Option<Rc<CsrSnapshot>> {
    if g.topology_generation() == 0 {
        return None;
    }
    SNAPSHOT.with(|slot| {
        let mut slot = slot.borrow_mut();
        if let Some(s) = slot.as_ref() {
            if s.matches(g) {
                return Some(Rc::clone(s));
            }
        }
        let fresh = Rc::new(CsrSnapshot::build(g));
        *slot = Some(Rc::clone(&fresh));
        Some(fresh)
    })
}

/// The thread-cached snapshot when it is already current for `g`,
/// without building one. Single-shot label scans (`carminati`) use
/// this: they profit from a snapshot another evaluation already paid
/// for, but a full two-direction all-label index build would cost more
/// than their one bounded scan.
pub(crate) fn thread_snapshot_if_current(g: &SocialGraph) -> Option<Rc<CsrSnapshot>> {
    SNAPSHOT.with(|slot| {
        slot.borrow()
            .as_ref()
            .filter(|s| s.matches(g))
            .map(Rc::clone)
    })
}

/// Releases this thread's cached snapshot and search buffers.
///
/// The caches are sized to the largest graph/query this thread has
/// evaluated and are otherwise retained for reuse; a long-lived worker
/// that has finished with a large graph can call this to return the
/// memory.
pub fn release_thread_caches() {
    release_thread_snapshot();
    SCRATCH.with(|scratch| *scratch.borrow_mut() = Scratch::default());
}

/// Releases only this thread's cached [`CsrSnapshot`] (and the
/// deferred-build miss counter), keeping the BFS scratch buffers.
///
/// The enforcement layer calls this from `Enforcer::invalidate`: after
/// a mutation the calling thread's fallback snapshot is stale and would
/// otherwise pin the old index in memory until the thread's next
/// bare-graph evaluation notices the generation moved. The scratch
/// stays — it is epoch-stamped and graph-agnostic, so retaining it is
/// free and keeps mutate-then-check loops allocation-free.
pub fn release_thread_snapshot() {
    SNAPSHOT.with(|slot| slot.borrow_mut().take());
    SNAPSHOT_MISSES.with(|m| *m.borrow_mut() = (0, 0));
}

/// Observable footprint of this thread's online-engine caches, for
/// tests and capacity instrumentation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadCacheStats {
    /// Whether a CSR snapshot is cached for this thread.
    pub snapshot_cached: bool,
    /// Dense visited slots currently allocated in the BFS scratch.
    pub scratch_state_slots: usize,
}

/// Reports this thread's cached-snapshot presence and scratch size.
pub fn thread_cache_stats() -> ThreadCacheStats {
    ThreadCacheStats {
        snapshot_cached: SNAPSHOT.with(|slot| slot.borrow().is_some()),
        scratch_state_slots: SCRATCH.with(|scratch| scratch.borrow().visited.len()),
    }
}

/// Evaluates `path` from `owner`.
///
/// With `target = Some(v)` the search exits as soon as `v` matches and
/// reconstructs a witness walk. With `target = None` it explores the
/// whole product space and returns the full audience (sorted).
///
/// Runs on the label-partitioned CSR engine, building (and caching, per
/// thread) a [`CsrSnapshot`] as needed. Callers holding a snapshot —
/// the enforcement layer does — should use [`evaluate_with_snapshot`].
pub fn evaluate(
    g: &SocialGraph,
    owner: NodeId,
    path: &PathExpr,
    target: Option<NodeId>,
) -> OnlineOutcome {
    if path.is_empty() {
        return OnlineOutcome::empty_path(owner, target);
    }
    if target.is_some() && thread_snapshot_if_current(g).is_none() {
        // No snapshot yet for this topology: only build one once a few
        // targeted checks have hit the same generation (see
        // BUILD_AFTER_MISSES); a single early-exit BFS is cheaper than
        // an index build.
        let defer = SNAPSHOT_MISSES.with(|m| {
            let m = &mut *m.borrow_mut();
            if m.0 != g.topology_generation() {
                *m = (g.topology_generation(), 0);
            }
            m.1 += 1;
            m.1 <= BUILD_AFTER_MISSES
        });
        if defer {
            return evaluate_reference(g, owner, path, target);
        }
    }
    match thread_snapshot(g) {
        Some(snap) => evaluate_with_snapshot(g, &snap, owner, path, target),
        None => evaluate_reference(g, owner, path, target),
    }
}

/// [`evaluate`] over a caller-provided snapshot (no cache probe, no
/// build). Falls back to [`evaluate_reference`] when the snapshot is
/// stale for `g` or the dense product space would be unreasonable.
pub fn evaluate_with_snapshot(
    g: &SocialGraph,
    snap: &CsrSnapshot,
    owner: NodeId,
    path: &PathExpr,
    target: Option<NodeId>,
) -> OnlineOutcome {
    if path.is_empty() {
        return OnlineOutcome::empty_path(owner, target);
    }
    if !snap.matches(g) {
        return evaluate_reference(g, owner, path, target);
    }

    let steps = &path.steps;
    let Some((v_count, total_states)) = flat_dimensions(snap, path) else {
        return evaluate_reference(g, owner, path, target);
    };

    let mut stats = SearchStats::default();
    let mut matched: Vec<NodeId> = Vec::new();
    let mut granted_state: Option<u64> = None;
    let track_parents = target.is_some();

    let witness = SCRATCH.with(|scratch| {
        let s = &mut *scratch.borrow_mut();

        // Layer table: (step, depth) <-> dense layer id, so a product
        // state is the single index `layer · |V| + member`, and all
        // depth logic is resolved here once instead of per state.
        fill_layer_table(steps, &mut s.layers);

        if s.visited.len() < total_states {
            s.visited.resize(total_states, 0);
        }
        if s.matched_epoch.len() < snap.num_nodes() {
            s.matched_epoch.resize(snap.num_nodes(), 0);
        }
        if track_parents && s.parent_state.len() < total_states {
            s.parent_state.resize(total_states, 0);
            s.parent_hop.resize(total_states, 0);
        }
        let epoch = s.next_epoch();
        s.frontier.clear();
        s.next.clear();

        let start = u64::from(owner.0); // layer 0 is (step 0, depth 0)
        s.visited[owner.index()] = epoch;
        if track_parents {
            s.parent_hop[owner.index()] = HOP_NONE;
            s.parent_state[owner.index()] = owner.0;
        }
        s.frontier.push(start);

        'search: while !s.frontier.is_empty() {
            // Split-borrow the scratch so the frontier can be read while
            // the visited/parent arrays and next-frontier are written.
            let Scratch {
                visited,
                matched_epoch,
                frontier,
                next,
                parent_state,
                parent_hop,
                layers,
                ..
            } = s;
            for &state in frontier.iter() {
                let v = state as u32;
                let lay = (state >> 32) as usize;
                let idx = lay as u32 * v_count + v;
                let li = layers[lay];
                stats.states_visited += 1;
                let step = &steps[li.step as usize];
                let node = NodeId(v);

                // Step completion: d hops taken, d ∈ I_i, conditions
                // accept v.
                if li.completes && step.conds.iter().all(|c| c.eval(g.node_attrs(node))) {
                    if li.last {
                        if matched_epoch[node.index()] != epoch {
                            matched_epoch[node.index()] = epoch;
                            matched.push(node);
                        }
                        if target == Some(node) {
                            granted_state = Some(state);
                            break 'search;
                        }
                    } else {
                        let eps = li.eps_layer * v_count + v;
                        let slot = &mut visited[eps as usize];
                        if *slot != epoch {
                            *slot = epoch;
                            if track_parents {
                                parent_state[eps as usize] = idx;
                                parent_hop[eps as usize] = HOP_NONE;
                            }
                            next.push((u64::from(li.eps_layer) << 32) | u64::from(v));
                        }
                    }
                }

                // Edge expansion within step i.
                if !li.expands {
                    continue; // bounded step exhausted
                }
                let next_base = li.next_layer * v_count;
                let next_tag = u64::from(li.next_layer) << 32;
                let mut expand = |nbr: u32, eid: u32, forward: bool| {
                    stats.edges_scanned += 1;
                    let ns = next_base + nbr;
                    let slot = &mut visited[ns as usize];
                    if *slot != epoch {
                        *slot = epoch;
                        if track_parents {
                            parent_state[ns as usize] = idx;
                            parent_hop[ns as usize] = (eid << 1) | u32::from(forward);
                        }
                        next.push(next_tag | u64::from(nbr));
                    }
                };
                if matches!(step.dir, Direction::Out | Direction::Both) {
                    let out = snap.out_neighbors(v, step.label);
                    for (&nbr, &eid) in out.nodes.iter().zip(out.edges) {
                        expand(nbr, eid, true);
                    }
                }
                if matches!(step.dir, Direction::In | Direction::Both) {
                    let inn = snap.in_neighbors(v, step.label);
                    for (&nbr, &eid) in inn.nodes.iter().zip(inn.edges) {
                        expand(nbr, eid, false);
                    }
                }
            }
            std::mem::swap(&mut s.frontier, &mut s.next);
            s.next.clear();
        }

        // Replay parent pointers (all stamped this epoch) back to the
        // self-parenting start state.
        granted_state.map(|end| {
            let mut hops = Vec::new();
            let mut cur = ((end >> 32) as u32) * v_count + end as u32;
            loop {
                let hop = s.parent_hop[cur as usize];
                let prev = s.parent_state[cur as usize];
                if hop != HOP_NONE {
                    hops.push((EdgeId(hop >> 1), hop & 1 == 1));
                }
                if prev == cur {
                    break;
                }
                cur = prev;
            }
            hops.reverse();
            hops
        })
    });

    matched.sort_unstable();
    OnlineOutcome {
        granted: granted_state.is_some(),
        matched,
        witness,
        stats,
    }
}

// ---------------------------------------------------------------------
// Reference engine (original implementation, retained as the spec)
// ---------------------------------------------------------------------

/// Product state: (member, step index, depth within step).
type State = (u32, u16, u32);

/// The original HashMap/VecDeque product BFS, kept verbatim as the
/// executable specification the flat-array engine is differential-tested
/// against, and as the fallback for degenerate product spaces.
pub fn evaluate_reference(
    g: &SocialGraph,
    owner: NodeId,
    path: &PathExpr,
    target: Option<NodeId>,
) -> OnlineOutcome {
    let mut stats = SearchStats::default();

    // Empty path: only the owner matches.
    if path.is_empty() {
        return OnlineOutcome::empty_path(owner, target);
    }

    let steps = &path.steps;
    let sat: Vec<u32> = steps.iter().map(|s| s.depths.saturation()).collect();

    // parent[state] = (previous state, hop taken), for witness
    // reconstruction; also doubles as the visited set.
    let mut parent: HashMap<State, Option<(State, Option<WitnessHop>)>> = HashMap::new();
    let mut queue: VecDeque<State> = VecDeque::new();
    let start: State = (owner.0, 0, 0);
    parent.insert(start, None);
    queue.push_back(start);

    let mut matched: Vec<NodeId> = Vec::new();
    let mut matched_seen = vec![false; g.num_nodes()];
    let mut granted_state: Option<State> = None;

    'search: while let Some(state) = queue.pop_front() {
        let (v, i, d) = state;
        stats.states_visited += 1;
        let step = &steps[i as usize];
        let node = NodeId(v);

        // Step completion: d hops taken, d ∈ I_i, conditions accept v.
        if d >= 1
            && step.depths.contains(d)
            && step.conds.iter().all(|c| c.eval(g.node_attrs(node)))
        {
            if (i as usize) == steps.len() - 1 {
                if !matched_seen[node.index()] {
                    matched_seen[node.index()] = true;
                    matched.push(node);
                }
                if target == Some(node) {
                    granted_state = Some(state);
                    break 'search;
                }
            } else {
                let eps: State = (v, i + 1, 0);
                if let Entry::Vacant(e) = parent.entry(eps) {
                    e.insert(Some((state, None)));
                    queue.push_back(eps);
                }
            }
        }

        // Edge expansion within step i.
        if d >= sat[i as usize] && !step.depths.is_unbounded() {
            continue; // bounded step exhausted
        }
        let d_next = (d + 1).min(sat[i as usize]);
        let out = matches!(step.dir, Direction::Out | Direction::Both);
        let inc = matches!(step.dir, Direction::In | Direction::Both);
        if out {
            for (eid, rec) in g.out_edges(node) {
                if rec.label != step.label {
                    stats.edges_filtered += 1;
                    continue;
                }
                stats.edges_scanned += 1;
                let next: State = (rec.dst.0, i, d_next);
                if let Entry::Vacant(e) = parent.entry(next) {
                    e.insert(Some((state, Some((eid, true)))));
                    queue.push_back(next);
                }
            }
        }
        if inc {
            for (eid, rec) in g.in_edges(node) {
                if rec.label != step.label {
                    stats.edges_filtered += 1;
                    continue;
                }
                stats.edges_scanned += 1;
                let next: State = (rec.src.0, i, d_next);
                if let Entry::Vacant(e) = parent.entry(next) {
                    e.insert(Some((state, Some((eid, false)))));
                    queue.push_back(next);
                }
            }
        }
    }

    let witness = granted_state.map(|end| {
        let mut hops = Vec::new();
        let mut cur = end;
        while let Some(Some((prev, hop))) = parent.get(&cur) {
            if let Some(h) = hop {
                hops.push(*h);
            }
            cur = *prev;
        }
        hops.reverse();
        hops
    });

    matched.sort_unstable();
    OnlineOutcome {
        granted: granted_state.is_some(),
        matched,
        witness,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::{parse_path, PathExpr};
    use crate::query::{
        evaluate_plan_audiences, evaluate_plan_batch_seeded, BundlePlan, MaskedSeedState,
        PlanBatchState, SeededBatchOutcome,
    };

    fn parse(g: &mut SocialGraph, text: &str) -> PathExpr {
        parse_path(text, g.vocab_mut()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Alice -friend-> Bob -friend-> Carol -colleague-> Dave
    ///   \--friend-> Eve
    fn chain() -> SocialGraph {
        let mut g = SocialGraph::new();
        let a = g.add_node("Alice");
        let b = g.add_node("Bob");
        let c = g.add_node("Carol");
        let d = g.add_node("Dave");
        let e = g.add_node("Eve");
        g.connect(a, "friend", b);
        g.connect(b, "friend", c);
        g.connect(c, "colleague", d);
        g.connect(a, "friend", e);
        g
    }

    fn names(g: &SocialGraph, nodes: &[NodeId]) -> Vec<String> {
        nodes.iter().map(|&n| g.node_name(n).to_owned()).collect()
    }

    #[test]
    fn single_hop_out() {
        let mut g = chain();
        let p = parse(&mut g, "friend+[1]");
        let alice = g.node_by_name("Alice").unwrap();
        let out = evaluate(&g, alice, &p, None);
        assert_eq!(names(&g, &out.matched), vec!["Bob", "Eve"]);
    }

    #[test]
    fn depth_set_reaches_exact_levels() {
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let p2 = parse(&mut g, "friend+[2]");
        let out = evaluate(&g, alice, &p2, None);
        assert_eq!(names(&g, &out.matched), vec!["Carol"]);
        let p12 = parse(&mut g, "friend+[1,2]");
        let out = evaluate(&g, alice, &p12, None);
        assert_eq!(names(&g, &out.matched), vec!["Bob", "Carol", "Eve"]);
    }

    #[test]
    fn multi_step_path() {
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let p = parse(&mut g, "friend+[1,2]/colleague+[1]");
        let out = evaluate(&g, alice, &p, None);
        assert_eq!(names(&g, &out.matched), vec!["Dave"]);
    }

    #[test]
    fn incoming_direction() {
        let mut g = chain();
        let bob = g.node_by_name("Bob").unwrap();
        let p = parse(&mut g, "friend-[1]");
        let out = evaluate(&g, bob, &p, None);
        assert_eq!(names(&g, &out.matched), vec!["Alice"]);
    }

    #[test]
    fn both_direction_unions_orientations() {
        let mut g = chain();
        let bob = g.node_by_name("Bob").unwrap();
        let p = parse(&mut g, "friend*[1]");
        let out = evaluate(&g, bob, &p, None);
        assert_eq!(names(&g, &out.matched), vec!["Alice", "Carol"]);
    }

    #[test]
    fn unbounded_depth_saturates() {
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let p = parse(&mut g, "friend+[1..]");
        let out = evaluate(&g, alice, &p, None);
        assert_eq!(names(&g, &out.matched), vec!["Bob", "Carol", "Eve"]);
    }

    #[test]
    fn unbounded_with_hole_skips_depths() {
        // friend+[3..] from Alice: only Carol is 3+ friend-hops away?
        // Alice -> Bob (1) -> Carol (2); chain ends. Nothing at 3+.
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let p = parse(&mut g, "friend+[3..]");
        let out = evaluate(&g, alice, &p, None);
        assert!(out.matched.is_empty());
    }

    #[test]
    fn walks_may_revisit_nodes() {
        // Alice <-friend-> Bob (mutual), query friend+[3]: walks
        // A->B->A->B land on Bob at depth 3.
        let mut g = SocialGraph::new();
        let a = g.add_node("Alice");
        let b = g.add_node("Bob");
        g.connect(a, "friend", b);
        g.connect(b, "friend", a);
        let p = parse(&mut g, "friend+[3]");
        let out = evaluate(&g, a, &p, None);
        assert_eq!(names(&g, &out.matched), vec!["Bob"]);
    }

    #[test]
    fn attribute_conditions_filter_endpoints() {
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let bob = g.node_by_name("Bob").unwrap();
        let eve = g.node_by_name("Eve").unwrap();
        g.set_node_attr(bob, "age", 17i64);
        g.set_node_attr(eve, "age", 30i64);
        let p = parse(&mut g, "friend+[1]{age>=18}");
        let out = evaluate(&g, alice, &p, None);
        assert_eq!(names(&g, &out.matched), vec!["Eve"]);
    }

    #[test]
    fn conditions_apply_at_step_end_not_mid_run() {
        // friend+[2]{age>=18}: the intermediate member (Bob, 17) is only
        // passed through; the condition tests the endpoint (Carol, 20).
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let bob = g.node_by_name("Bob").unwrap();
        let carol = g.node_by_name("Carol").unwrap();
        g.set_node_attr(bob, "age", 17i64);
        g.set_node_attr(carol, "age", 20i64);
        let p = parse(&mut g, "friend+[2]{age>=18}");
        let out = evaluate(&g, alice, &p, None);
        assert_eq!(names(&g, &out.matched), vec!["Carol"]);
    }

    #[test]
    fn target_early_exit_and_witness() {
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let dave = g.node_by_name("Dave").unwrap();
        let p = parse(&mut g, "friend+[1,2]/colleague+[1]");
        let out = evaluate(&g, alice, &p, Some(dave));
        assert!(out.granted);
        let witness = out.witness.expect("witness present on grant");
        assert_eq!(witness.len(), 3, "2 friend hops + 1 colleague hop");
        // Replay the witness: it must be a connected walk from Alice to
        // Dave.
        let mut at = alice;
        for (eid, forward) in witness {
            let rec = g.edge(eid);
            if forward {
                assert_eq!(rec.src, at);
                at = rec.dst;
            } else {
                assert_eq!(rec.dst, at);
                at = rec.src;
            }
        }
        assert_eq!(at, dave);
    }

    #[test]
    fn deny_when_no_matching_walk() {
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let dave = g.node_by_name("Dave").unwrap();
        let p = parse(&mut g, "colleague+[1]");
        let out = evaluate(&g, alice, &p, Some(dave));
        assert!(!out.granted);
        assert!(out.witness.is_none());
    }

    #[test]
    fn empty_path_matches_owner_only() {
        let g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let bob = g.node_by_name("Bob").unwrap();
        let p = PathExpr::new(vec![]);
        assert!(evaluate(&g, alice, &p, Some(alice)).granted);
        assert!(!evaluate(&g, alice, &p, Some(bob)).granted);
        assert_eq!(evaluate(&g, alice, &p, None).matched, vec![alice]);
    }

    #[test]
    fn unknown_label_matches_nothing() {
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let p = parse(&mut g, "enemy+[1]");
        let out = evaluate(&g, alice, &p, None);
        assert!(out.matched.is_empty());
    }

    #[test]
    fn stats_are_populated() {
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let p = parse(&mut g, "friend+[1,2]/colleague+[1]");
        let out = evaluate(&g, alice, &p, None);
        assert!(out.stats.states_visited > 0);
        assert!(out.stats.edges_scanned > 0);
    }

    #[test]
    fn owner_can_be_in_their_own_audience_via_cycles() {
        // Mutual friendship: friend+[2] from Alice loops back to Alice.
        let mut g = SocialGraph::new();
        let a = g.add_node("Alice");
        let b = g.add_node("Bob");
        g.connect(a, "friend", b);
        g.connect(b, "friend", a);
        let p = parse(&mut g, "friend+[2]");
        let out = evaluate(&g, a, &p, None);
        assert_eq!(names(&g, &out.matched), vec!["Alice"]);
    }

    #[test]
    fn snapshot_engine_matches_reference_on_the_chain() {
        let mut g = chain();
        g.set_node_attr(g.node_by_name("Carol").unwrap(), "age", 20i64);
        let texts = [
            "friend+[1]",
            "friend+[1,2]",
            "friend*[1..]",
            "friend+[1,2]/colleague+[1]",
            "friend+[2]{age>=18}",
            "friend-[1]",
        ];
        let paths: Vec<PathExpr> = texts.iter().map(|t| parse(&mut g, t)).collect();
        let snap = g.snapshot();
        for (p, text) in paths.iter().zip(texts) {
            for owner in g.nodes() {
                let fast = evaluate_with_snapshot(&g, &snap, owner, p, None);
                let slow = evaluate_reference(&g, owner, p, None);
                assert_eq!(fast.matched, slow.matched, "{text} from {owner}");
                assert_eq!(
                    fast.stats.states_visited, slow.stats.states_visited,
                    "{text}"
                );
                for requester in g.nodes() {
                    let fast = evaluate_with_snapshot(&g, &snap, owner, p, Some(requester));
                    let slow = evaluate_reference(&g, owner, p, Some(requester));
                    assert_eq!(fast.granted, slow.granted, "{text} {owner}->{requester}");
                    assert_eq!(fast.witness, slow.witness, "{text} {owner}->{requester}");
                }
            }
        }
    }

    #[test]
    fn stale_snapshot_falls_back_to_current_graph_semantics() {
        let mut g = chain();
        let snap = g.snapshot();
        let alice = g.node_by_name("Alice").unwrap();
        let dave = g.node_by_name("Dave").unwrap();
        g.connect(alice, "friend", dave); // invalidates `snap`
        let p = parse(&mut g, "friend+[1]");
        let out = evaluate_with_snapshot(&g, &snap, alice, &p, Some(dave));
        assert!(out.granted, "stale snapshot must not hide the new edge");
    }

    #[test]
    fn astronomical_depths_use_the_reference_fallback() {
        // sat ≈ 2^30 would want a ~2^30-layer dense space; the wrapper
        // must transparently fall back and still answer correctly.
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let p = parse(&mut g, "friend+[1073741824..]");
        let out = evaluate(&g, alice, &p, None);
        assert!(out.matched.is_empty());
    }

    #[test]
    fn attribute_writes_reuse_the_snapshot_but_change_results() {
        // Attribute churn must not stale the topology snapshot, yet the
        // engine must see fresh attribute values (it reads them live).
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let bob = g.node_by_name("Bob").unwrap();
        let snap = g.snapshot();
        let p = parse(&mut g, "friend+[1]{age>=18}");
        assert!(evaluate_with_snapshot(&g, &snap, alice, &p, None)
            .matched
            .is_empty());
        g.set_node_attr(bob, "age", 30i64);
        assert!(snap.matches(&g), "attr write keeps the snapshot current");
        let out = evaluate_with_snapshot(&g, &snap, alice, &p, None);
        assert_eq!(names(&g, &out.matched), vec!["Bob"]);
    }

    /// Audiences of `owners` under one shared `path` through the plan
    /// engine: the identical conditions collapse to one trie chain and
    /// each owner rides its own mask bit, the multi-source shape every
    /// bundle read takes.
    fn batch(
        g: &SocialGraph,
        snap: &CsrSnapshot,
        owners: &[NodeId],
        path: &PathExpr,
    ) -> crate::query::engine::PlanAudienceOutcome {
        let plan = BundlePlan::compile(&vec![path; owners.len()]).expect("small plan");
        evaluate_plan_audiences(g, snap, &plan, owners)
    }

    #[test]
    fn batch_audiences_match_per_owner_evaluation() {
        let mut g = chain();
        g.set_node_attr(g.node_by_name("Carol").unwrap(), "age", 20i64);
        let texts = [
            "friend+[1]",
            "friend+[1,2]",
            "friend*[1..]",
            "friend+[1,2]/colleague+[1]",
            "friend+[2]{age>=18}",
            "friend-[1]",
        ];
        let paths: Vec<PathExpr> = texts.iter().map(|t| parse(&mut g, t)).collect();
        let snap = g.snapshot();
        let owners: Vec<NodeId> = g.nodes().collect();
        for (p, text) in paths.iter().zip(texts) {
            let batch = batch(&g, &snap, &owners, p);
            assert_eq!(batch.audiences.len(), owners.len());
            for (owner, audience) in owners.iter().zip(&batch.audiences) {
                let solo = evaluate_with_snapshot(&g, &snap, *owner, p, None);
                assert_eq!(audience, &solo.matched, "{text} from {owner}");
            }
        }
    }

    #[test]
    fn batch_amortizes_edge_scans_across_owners() {
        // A star: every leaf's friend-[1] audience passes through the
        // hub, so the shared frontier scans far fewer edges than the
        // per-owner sum.
        let mut g = SocialGraph::new();
        let hub = g.add_node("hub");
        let leaves: Vec<NodeId> = (0..30).map(|i| g.add_node(&format!("l{i}"))).collect();
        for &l in &leaves {
            g.connect(hub, "friend", l);
        }
        let p = parse(&mut g, "friend-[1]/friend+[1]");
        let snap = g.snapshot();
        let batch = batch(&g, &snap, &leaves, &p);
        let solo_total: usize = leaves
            .iter()
            .map(|&o| {
                evaluate_with_snapshot(&g, &snap, o, &p, None)
                    .stats
                    .edges_scanned
            })
            .sum();
        assert!(
            batch.edges_scanned < solo_total / 2,
            "batch {} vs per-owner sum {}",
            batch.edges_scanned,
            solo_total
        );
        for (i, &o) in leaves.iter().enumerate() {
            let solo = evaluate_with_snapshot(&g, &snap, o, &p, None);
            assert_eq!(batch.audiences[i], solo.matched);
        }
    }

    #[test]
    fn batch_chunks_beyond_64_owners() {
        // 70 members in a friend ring — more owners than one mask
        // chunk holds, so the chunk loop must run twice.
        let mut g = SocialGraph::new();
        let nodes: Vec<NodeId> = (0..70).map(|i| g.add_node(&format!("r{i}"))).collect();
        for i in 0..70usize {
            g.connect(nodes[i], "friend", nodes[(i + 1) % 70]);
        }
        let p = parse(&mut g, "friend+[1,2]");
        let snap = g.snapshot();
        let batch = batch(&g, &snap, &nodes, &p);
        for (i, &o) in nodes.iter().enumerate() {
            let solo = evaluate_with_snapshot(&g, &snap, o, &p, None);
            assert_eq!(batch.audiences[i], solo.matched, "owner {o}");
        }
    }

    #[test]
    fn batch_handles_empty_paths_and_duplicate_owners() {
        let g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let snap = g.snapshot();
        let owners = [alice, alice];
        let p = PathExpr::new(vec![]);
        let batch = batch(&g, &snap, &owners, &p);
        assert_eq!(batch.audiences, vec![vec![alice], vec![alice]]);
    }

    #[test]
    fn batch_falls_back_on_stale_snapshots() {
        let mut g = chain();
        let snap = g.snapshot();
        let alice = g.node_by_name("Alice").unwrap();
        let dave = g.node_by_name("Dave").unwrap();
        g.connect(alice, "friend", dave); // stales `snap`
        let p = parse(&mut g, "friend+[1]");
        let batch = batch(&g, &snap, &[alice], &p);
        assert!(
            batch.audiences[0].contains(&dave),
            "stale snapshot must not hide the new edge"
        );
    }

    #[test]
    fn reference_engine_reports_filtered_edges_separately() {
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let p = parse(&mut g, "friend+[1]");
        let slow = evaluate_reference(&g, alice, &p, None);
        let snap = g.snapshot();
        let fast = evaluate_with_snapshot(&g, &snap, alice, &p, None);
        // Same matching traversals on both engines, shared axis.
        assert_eq!(fast.stats.edges_scanned, slow.stats.edges_scanned);
        assert_eq!(fast.stats.edges_filtered, 0, "CSR never inspects misses");
        // Alice's neighborhood spans friend and colleague edges, so the
        // reference engine must have filtered at least one.
        let colleague = parse(&mut g, "colleague*[1]");
        let slow = evaluate_reference(&g, alice, &colleague, None);
        assert!(slow.stats.edges_filtered > 0);
    }

    #[test]
    fn release_thread_caches_is_safe_mid_stream() {
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let p = parse(&mut g, "friend+[1,2]");
        let before = evaluate(&g, alice, &p, None).matched;
        release_thread_caches();
        let after = evaluate(&g, alice, &p, None).matched;
        assert_eq!(before, after);
    }

    #[test]
    fn release_apis_drop_exactly_their_caches() {
        // Regression for the stale thread-local fallback risk: the
        // release functions must observably drop what they claim to.
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let p = parse(&mut g, "friend+[1,2]");
        release_thread_caches();
        let _ = evaluate(&g, alice, &p, None); // audience ⇒ builds + caches
        let warm = thread_cache_stats();
        assert!(
            warm.snapshot_cached,
            "audience evaluation caches a snapshot"
        );
        assert!(warm.scratch_state_slots > 0, "scratch sized to the search");

        release_thread_snapshot();
        let after_snap = thread_cache_stats();
        assert!(!after_snap.snapshot_cached, "snapshot dropped");
        assert_eq!(
            after_snap.scratch_state_slots, warm.scratch_state_slots,
            "scratch survives a snapshot-only release"
        );

        let _ = evaluate(&g, alice, &p, None);
        release_thread_caches();
        let cold = thread_cache_stats();
        assert!(!cold.snapshot_cached);
        assert_eq!(cold.scratch_state_slots, 0, "full release drops scratch");
    }

    #[test]
    fn thread_local_snapshot_is_reused_within_a_generation() {
        let mut g = chain();
        let alice = g.node_by_name("Alice").unwrap();
        let p = parse(&mut g, "friend+[1]");
        let gen_before = g.generation();
        let _ = evaluate(&g, alice, &p, None);
        let _ = evaluate(&g, alice, &p, None);
        assert_eq!(g.generation(), gen_before, "evaluation never mutates");
    }

    /// A plan-engine state for `path`'s one-chain plan.
    fn chain_state(
        g: &SocialGraph,
        snap: &CsrSnapshot,
        path: &PathExpr,
        parents: bool,
    ) -> PlanBatchState {
        let (plan, _) = BundlePlan::chain(path);
        if parents {
            PlanBatchState::with_parents(g, snap, &plan.nodes)
        } else {
            PlanBatchState::new(g, snap, &plan.nodes)
        }
    }

    /// One seeded run of `path`'s one-chain plan (node ids are step
    /// indexes, every bit rides the chain).
    fn seeded_run(
        g: &SocialGraph,
        snap: &CsrSnapshot,
        path: &PathExpr,
        state: &mut PlanBatchState,
        seeds: &[MaskedSeedState],
        watched: &[bool],
        stop: Option<NodeId>,
    ) -> SeededBatchOutcome {
        let (plan, masks) = BundlePlan::chain(path);
        evaluate_plan_batch_seeded(g, snap, &plan.nodes, &masks, state, seeds, watched, stop)
    }

    #[test]
    fn seeded_from_the_start_state_matches_evaluate() {
        let mut g = chain();
        let snap = g.snapshot();
        let alice = g.node_by_name("Alice").unwrap();
        let carol = g.node_by_name("Carol").unwrap();
        let dave = g.node_by_name("Dave").unwrap();
        let none = vec![false; g.num_nodes()];
        for text in ["friend+[1,2]", "friend*[1..]/colleague+[1]", "friend-[1]"] {
            let p = parse(&mut g, text);
            let truth = evaluate(&g, alice, &p, None);
            let mut state = chain_state(&g, &snap, &p, false);
            let seeded = seeded_run(&g, &snap, &p, &mut state, &[(alice, 0, 0, 1)], &none, None);
            assert_eq!(
                audiences_by_bit(&seeded.matched, 1)[0],
                truth.matched,
                "path {text}"
            );
            assert!(seeded.exports.is_empty(), "nothing watched");
            for requester in [carol, dave] {
                let truth = evaluate(&g, alice, &p, Some(requester));
                let mut state = chain_state(&g, &snap, &p, true);
                let seeds = [(alice, 0, 0, 1)];
                let seeded = seeded_run(&g, &snap, &p, &mut state, &seeds, &none, Some(requester));
                assert_eq!(seeded.hit.is_some(), truth.granted, "path {text}");
                if let Some((node, depth)) = seeded.hit {
                    let (hops, seed) = state.trace(requester, node, depth).expect("hit is traced");
                    assert_eq!(seed, (alice, 0, 0));
                    assert_eq!(hops, truth.witness.expect("granted carries a witness"));
                }
            }
        }
    }

    #[test]
    fn seeded_flat_and_sparse_agree() {
        let mut g = chain();
        let snap = g.snapshot();
        let alice = g.node_by_name("Alice").unwrap();
        let bob = g.node_by_name("Bob").unwrap();
        let mut watched = vec![false; g.num_nodes()];
        watched[bob.index()] = true;
        let p = parse(&mut g, "friend+[1..3]");
        let seeds = [(alice, 0u16, 0u32, 1u64), (bob, 0, 2, 1)];
        let mut flat = chain_state(&g, &snap, &p, false);
        let mut sparse = PlanBatchState::sparse(&BundlePlan::chain(&p).0.nodes);
        assert!(!flat.is_sparse() && sparse.is_sparse());
        let flat = seeded_run(&g, &snap, &p, &mut flat, &seeds, &watched, None);
        let sparse = seeded_run(&g, &snap, &p, &mut sparse, &seeds, &watched, None);
        assert_eq!(
            audiences_by_bit(&flat.matched, 1),
            audiences_by_bit(&sparse.matched, 1)
        );
        let mut fr = flat.exports.clone();
        let mut sr = sparse.exports.clone();
        fr.sort_unstable();
        sr.sort_unstable();
        assert_eq!(fr, sr, "watched exports agree across variants");
        assert!(!fr.is_empty(), "Bob is on the friend walk");
    }

    #[test]
    fn seeded_mid_path_seeds_continue_the_walk() {
        // Seeding Carol at (step 0, depth 1) of friend+[1..2]/colleague+[1]
        // must complete through her colleague edge to Dave.
        let mut g = chain();
        let snap = g.snapshot();
        let carol = g.node_by_name("Carol").unwrap();
        let dave = g.node_by_name("Dave").unwrap();
        let none = vec![false; g.num_nodes()];
        let p = parse(&mut g, "friend+[1..2]/colleague+[1]");
        for depth in [1, 99] {
            // Depth past saturation canonicalizes to the same state.
            let mut state = chain_state(&g, &snap, &p, false);
            let out = seeded_run(
                &g,
                &snap,
                &p,
                &mut state,
                &[(carol, 0, depth, 1)],
                &none,
                None,
            );
            assert_eq!(out.matched, vec![(dave, 1)], "seed depth {depth}");
        }
    }

    #[test]
    fn seeded_state_target_stops_with_a_segment() {
        // The cross-shard witness segment of a state: its parent chain
        // back to the seed it was first reached from.
        let mut g = chain();
        let snap = g.snapshot();
        let alice = g.node_by_name("Alice").unwrap();
        let carol = g.node_by_name("Carol").unwrap();
        let none = vec![false; g.num_nodes()];
        let p = parse(&mut g, "friend+[1..2]/colleague+[1]");
        let mut state = chain_state(&g, &snap, &p, true);
        seeded_run(&g, &snap, &p, &mut state, &[(alice, 0, 0, 1)], &none, None);
        // Reaching Carol at (step 0, depth 2) takes two friend hops.
        let (hops, seed) = state.trace(carol, 0, 2).expect("Carol is reached");
        assert_eq!(seed, (alice, 0, 0));
        assert_eq!(hops.len(), 2);
        // A state that is a seed yields an empty segment.
        let (own, seed) = state.trace(alice, 0, 0).expect("the seed is reached");
        assert!(own.is_empty());
        assert_eq!(seed, (alice, 0, 0));
        // An unreachable state has no segment.
        let mut missed = chain_state(&g, &snap, &p, true);
        seeded_run(&g, &snap, &p, &mut missed, &[(carol, 1, 1, 1)], &none, None);
        assert!(missed.trace(alice, 0, 1).is_none());
    }

    /// Collects a masked run's audiences per condition bit, sorted.
    fn audiences_by_bit(matched: &[(NodeId, u64)], bits: usize) -> Vec<Vec<NodeId>> {
        let mut audiences = vec![Vec::new(); bits];
        for &(node, mask) in matched {
            let mut m = mask;
            while m != 0 {
                let bit = m.trailing_zeros() as usize;
                m &= m - 1;
                audiences[bit].push(node);
            }
        }
        for a in &mut audiences {
            a.sort_unstable();
        }
        audiences
    }

    #[test]
    fn masked_engine_matches_the_unseeded_batch() {
        let mut g = chain();
        let snap = g.snapshot();
        let owners: Vec<NodeId> = g.nodes().collect();
        let none = vec![false; g.num_nodes()];
        for text in ["friend+[1,2]", "friend*[1..]/colleague+[1]", "friend-[1]"] {
            let p = parse(&mut g, text);
            let truth = batch(&g, &snap, &owners, &p);
            let mut state = chain_state(&g, &snap, &p, false);
            let seeds: Vec<MaskedSeedState> = owners
                .iter()
                .enumerate()
                .map(|(bit, &o)| (o, 0, 0, 1u64 << bit))
                .collect();
            let out = seeded_run(&g, &snap, &p, &mut state, &seeds, &none, None);
            assert!(out.exports.is_empty(), "nothing watched");
            assert_eq!(
                audiences_by_bit(&out.matched, owners.len()),
                truth.audiences,
                "path {text}"
            );
        }
    }

    #[test]
    fn masked_engine_reports_each_bit_once_across_runs() {
        let mut g = chain();
        let snap = g.snapshot();
        let alice = g.node_by_name("Alice").unwrap();
        let bob = g.node_by_name("Bob").unwrap();
        let none = vec![false; g.num_nodes()];
        let p = parse(&mut g, "friend+[1,2]");
        let mut state = chain_state(&g, &snap, &p, false);
        let out = seeded_run(&g, &snap, &p, &mut state, &[(alice, 0, 0, 1)], &none, None);
        assert!(!out.matched.is_empty());
        let expanded = state.states_expanded();
        assert!(expanded > 0);

        // Re-seeding known bits is a no-op: persistence makes the
        // fixpoint linear in the explored region.
        let again = seeded_run(&g, &snap, &p, &mut state, &[(alice, 0, 0, 1)], &none, None);
        assert!(again.matched.is_empty());
        assert!(again.exports.is_empty());
        assert_eq!(again.stats.states_visited, 0);
        assert_eq!(state.states_expanded(), expanded, "no re-traversal");

        // A new bit through the same region reports only itself.
        let fresh = seeded_run(&g, &snap, &p, &mut state, &[(bob, 0, 0, 2)], &none, None);
        for &(_, mask) in &fresh.matched {
            assert_eq!(mask & 1, 0, "bit 0 was already reported");
        }
    }

    #[test]
    fn masked_engine_exports_watched_states_with_delta_bits() {
        let mut g = chain();
        let snap = g.snapshot();
        let alice = g.node_by_name("Alice").unwrap();
        let eve = g.node_by_name("Eve").unwrap();
        let bob = g.node_by_name("Bob").unwrap();
        let mut watched = vec![false; g.num_nodes()];
        watched[bob.index()] = true;
        let p = parse(&mut g, "friend+[1,2]");
        let mut state = chain_state(&g, &snap, &p, false);
        let seeds = [(alice, 0, 0, 0b01), (eve, 0, 0, 0b10)];
        let out = seeded_run(&g, &snap, &p, &mut state, &seeds, &watched, None);
        // Alice reaches Bob at depth 1; Eve does not reach Bob at all.
        assert_eq!(out.exports, vec![(bob, 0, 1, 0b01)]);
        // A later run delivering Eve's bit to Bob exports only it.
        let relay = seeded_run(
            &g,
            &snap,
            &p,
            &mut state,
            &[(bob, 0, 1, 0b11)],
            &watched,
            None,
        );
        assert_eq!(relay.exports, vec![(bob, 0, 1, 0b10)]);
    }

    #[test]
    fn masked_engine_sparse_variant_matches_per_owner_evaluation() {
        // A saturation depth past MAX_FLAT_LAYERS forces the sparse
        // mirror; answers must not change.
        let mut g = chain();
        let snap = g.snapshot();
        let owners: Vec<NodeId> = g.nodes().collect();
        let none = vec![false; g.num_nodes()];
        let p = parse(&mut g, "friend+[1..4000000]");
        let mut state = chain_state(&g, &snap, &p, false);
        assert!(
            state.is_sparse(),
            "degenerate saturation uses the sparse mirror"
        );
        let seeds: Vec<MaskedSeedState> = owners
            .iter()
            .enumerate()
            .map(|(bit, &o)| (o, 0, 0, 1u64 << bit))
            .collect();
        let out = seeded_run(&g, &snap, &p, &mut state, &seeds, &none, None);
        let audiences = audiences_by_bit(&out.matched, owners.len());
        for (bit, &owner) in owners.iter().enumerate() {
            let truth = evaluate(&g, owner, &p, None);
            assert_eq!(audiences[bit], truth.matched, "owner {owner}");
        }
    }
}
