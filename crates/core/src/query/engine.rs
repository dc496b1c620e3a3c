//! Masked seeded BFS over a shared-prefix plan — the one masked and
//! seeded product-BFS engine.
//!
//! The state space is `(member, plan node, depth within node)` over a
//! [`BundlePlan`] trie. Every state carries a 64-bit mask of the
//! condition bits that reached it; completion at a node ε-forks into
//! the node's *children* with the masks intersected against each
//! child's [`ChunkMasks::node_mask`], and a member is reported into a
//! condition's audience when its bit is in the completing node's
//! `accept_mask`. Shared prefixes are therefore walked once for every
//! condition that spells them. A single path is the special case of a
//! one-chain plan ([`BundlePlan::chain`]), whose node ids are the
//! path's step indexes.
//!
//! One engine serves every multi-source or seeded read:
//!
//! * **bundle audiences** on a single graph
//!   ([`evaluate_plan_audiences`]), up to 64 conditions per traversal;
//! * **cross-shard fixpoints** on the sharded and networked backends:
//!   runs enter at arbitrary `(member, node, depth, bits)` seeds and
//!   export the masked states they visit at *watched* members (a
//!   shard's ghost replicas). The `seen`/`pending` masks persist in a
//!   caller-owned [`PlanBatchState`] across runs, so re-seeding known
//!   bits is free and a fixpoint that re-enters a shard round after
//!   round pays only for the new bits — total work stays linear in the
//!   explored region;
//! * **targeted checks** across shards: an engine built
//!   [`PlanBatchState::with_parents`] records first-arrival parent
//!   pointers that survive across runs ([`PlanBatchState::trace`]
//!   reads a witness segment back off them), and a run given a `stop`
//!   member returns the moment that member is accepted.
//!
//! Single-source single-graph reads (`check`, a lone audience) stay on
//! [`crate::online::evaluate_with_snapshot`], which carries no masks
//! and reuses epoch-stamped per-thread buffers instead of allocating
//! state per call, so it is the cheaper engine for one source;
//! [`crate::online::evaluate_reference`] is the executable
//! specification both engines are tested against.
//!
//! Like the linear engine, the plan engine has a dense flat-array
//! variant with the same size caps and a sparse `HashMap` mirror for
//! degenerate product spaces; results are identical either way. Plan
//! node ids ride the `u16` slot of [`MaskedSeedState`], which is why
//! plans (and, through the parsers' step cap, single paths) are
//! bounded by `u16::MAX` nodes.

use crate::online::{SearchStats, WitnessHop, MAX_FLAT_LAYERS, MAX_FLAT_STATES};
use crate::query::plan::{BundlePlan, ChunkMasks, PlanNode};
use socialreach_graph::{CsrSnapshot, Direction, EdgeId, NodeId, SocialGraph};
use std::collections::HashMap;

/// A masked product state exchanged between a fixpoint driver and the
/// per-shard engine: the member, its `(plan node, depth)` coordinate
/// (depth capped at the node's saturation point, which makes the
/// coordinate canonical across independently built shards), and the
/// condition bits that reached it.
pub type MaskedSeedState = (NodeId, u16, u32, u64);

/// Result of one seeded run of the plan engine.
#[derive(Clone, Debug, Default)]
pub struct SeededBatchOutcome {
    /// Members accepted during this run, each with the condition bits
    /// that **newly** matched them (the state remembers what it already
    /// reported, so bits never repeat across runs). Watched members
    /// are included; the caller filters ghosts.
    pub matched: Vec<(NodeId, u64)>,
    /// Masked states visited at watched members during this run, with
    /// the bits that newly arrived there (depth already saturated).
    /// Bits at one state are disjoint across runs by construction.
    pub exports: Vec<MaskedSeedState>,
    /// The `(plan node, depth)` coordinate at which the `stop` member
    /// of an early-exit run was accepted, when it was. The run returns
    /// immediately on a hit, so a hit run's frontier is **not**
    /// drained: after a hit the engine may only be used for
    /// [`PlanBatchState::trace`].
    pub hit: Option<(u16, u32)>,
    /// Work counters for this run only.
    pub stats: SearchStats,
}

/// Product state of the sparse variant: `(member, plan node, depth)`.
type PState = (u32, u16, u32);

/// `FlatParents::hop` packs `edge id << 1 | forward`; this marks seeds
/// and ε-moves.
const HOP_NONE: u32 = u32::MAX;

/// Everything about a `(node, depth)` layer that is constant across
/// its `|V|` states, precomputed so the per-state loop is table
/// lookups.
#[derive(Clone, Copy, Debug)]
struct PlanLayerInfo {
    /// Plan node this layer belongs to.
    node: u16,
    /// `d >= 1 && d ∈ I_node`: states here may complete the node.
    completes: bool,
    /// States here may take another edge of the node's label.
    expands: bool,
    /// Layer id reached by that edge (`min(d+1, sat)` of the node).
    next_layer: u32,
}

/// Round-persistent bookkeeping of the plan engine: which condition
/// bits have ever arrived at each product state, which await
/// processing, which bits each member has already been accepted under,
/// and (optionally) first-arrival parent pointers. One value serves
/// one `(graph, snapshot, plan, ≤64 conditions)` chunk across
/// arbitrarily many seeded runs.
pub struct PlanBatchState {
    states_expanded: usize,
    inner: PlanInner,
}

enum PlanInner {
    Flat(FlatPlanBatch),
    Sparse(SparsePlanBatch),
}

/// First-arrival parent pointers of the flat variant: for each product
/// state, the state it was **first** reached from and the hop taken.
struct FlatParents {
    /// Predecessor state index; seeds point at themselves.
    state: Vec<u32>,
    /// `(eid << 1) | forward`, or [`HOP_NONE`] for seeds and ε-moves.
    hop: Vec<u32>,
}

/// Dense-array variant: masks indexed by `layer · |V| + member`.
struct FlatPlanBatch {
    v_count: u32,
    /// First layer id of each plan node.
    bases: Vec<u32>,
    /// Saturation depth of each plan node's step.
    sats: Vec<u32>,
    layers: Vec<PlanLayerInfo>,
    seen: Vec<u64>,
    pending: Vec<u64>,
    matched_mask: Vec<u64>,
    frontier: Vec<u64>,
    next: Vec<u64>,
    parents: Option<FlatParents>,
}

/// Sparse mirror for degenerate product spaces, keyed by
/// `(member, node, depth)`.
struct SparsePlanBatch {
    sats: Vec<u32>,
    seen: HashMap<PState, u64>,
    pending: HashMap<PState, u64>,
    matched_mask: HashMap<u32, u64>,
    frontier: Vec<PState>,
    next: Vec<PState>,
    /// `state → (predecessor, hop)`; seeds map to themselves.
    parents: Option<HashMap<PState, (PState, Option<WitnessHop>)>>,
}

/// `(v_count, layer_count)` when the dense product space of the plan
/// over `snap` is reasonable (the linear engine's caps), `None` when
/// the sparse mirror should take over.
fn flat_plan_dimensions(snap: &CsrSnapshot, nodes: &[PlanNode]) -> Option<(u32, u64)> {
    let num_nodes = snap.num_nodes() as u64;
    let layer_count: u64 = nodes
        .iter()
        .map(|n| n.step.depths.saturation() as u64 + 1)
        .sum();
    if num_nodes == 0
        || layer_count > MAX_FLAT_LAYERS
        || layer_count * num_nodes > MAX_FLAT_STATES
        || snap.num_edges() as u64 >= u64::from(HOP_NONE >> 1)
    {
        return None;
    }
    Some((num_nodes as u32, layer_count))
}

impl PlanBatchState {
    /// Fresh state for evaluating `nodes` over `snap`/`g`. Picks the
    /// flat dense-array variant when the product space is reasonable
    /// and the sparse mirror otherwise — run results are identical
    /// either way.
    pub fn new(g: &SocialGraph, snap: &CsrSnapshot, nodes: &[PlanNode]) -> Self {
        assert!(
            !nodes.is_empty(),
            "a plan chunk traverses at least one node"
        );
        let dims = if snap.matches(g) {
            flat_plan_dimensions(snap, nodes)
        } else {
            None
        };
        let inner = match dims {
            Some((v_count, layer_count)) => {
                let mut bases = Vec::with_capacity(nodes.len());
                let mut sats = Vec::with_capacity(nodes.len());
                let mut layers = Vec::with_capacity(layer_count as usize);
                let mut base = 0u32;
                for (id, n) in nodes.iter().enumerate() {
                    let sat = n.step.depths.saturation();
                    let unbounded = n.step.depths.is_unbounded();
                    bases.push(base);
                    sats.push(sat);
                    for d in 0..=sat {
                        layers.push(PlanLayerInfo {
                            node: id as u16,
                            completes: d >= 1 && n.step.depths.contains(d),
                            expands: d < sat || unbounded,
                            next_layer: base + (d + 1).min(sat),
                        });
                    }
                    base += sat + 1;
                }
                let total_states = layer_count as usize * v_count as usize;
                PlanInner::Flat(FlatPlanBatch {
                    v_count,
                    bases,
                    sats,
                    layers,
                    seen: vec![0; total_states],
                    pending: vec![0; total_states],
                    matched_mask: vec![0; snap.num_nodes()],
                    frontier: Vec::new(),
                    next: Vec::new(),
                    parents: None,
                })
            }
            None => PlanInner::Sparse(SparsePlanBatch::new(nodes)),
        };
        PlanBatchState {
            states_expanded: 0,
            inner,
        }
    }

    /// [`PlanBatchState::new`] with **first-arrival parent tracking**:
    /// every product state remembers the state it was first reached
    /// from and the hop taken, across runs, so
    /// [`PlanBatchState::trace`] can reconstruct a witness segment
    /// without replaying the search.
    ///
    /// Parent chains follow *first* arrivals regardless of condition
    /// bits, so they are only guaranteed to carry a given bit for
    /// **single-condition** (one-bit) evaluations — the targeted
    /// `check`/`explain` path.
    pub fn with_parents(g: &SocialGraph, snap: &CsrSnapshot, nodes: &[PlanNode]) -> Self {
        let mut state = Self::new(g, snap, nodes);
        match &mut state.inner {
            PlanInner::Flat(fb) => {
                let total = fb.seen.len();
                fb.parents = Some(FlatParents {
                    state: vec![0; total],
                    hop: vec![0; total],
                });
            }
            PlanInner::Sparse(sb) => sb.parents = Some(HashMap::new()),
        }
        state
    }

    /// Total product states processed across every run so far. Each
    /// state is processed once per *wave of new bits*, so for a
    /// single-condition evaluation this is exactly the number of
    /// distinct states explored.
    pub fn states_expanded(&self) -> usize {
        self.states_expanded
    }

    /// Walks the persistent parent chain back from the product state
    /// `(member, node, depth)` to a **seed** of some earlier run,
    /// returning the hops in walk order plus the seed's coordinate.
    /// `None` when the engine was not built with
    /// [`PlanBatchState::with_parents`] or the state was never reached.
    /// Valid after an early-exit hit — tracing is the one operation an
    /// exhausted engine still supports.
    pub fn trace(
        &self,
        member: NodeId,
        node: u16,
        depth: u32,
    ) -> Option<(Vec<WitnessHop>, (NodeId, u16, u32))> {
        let mut hops = Vec::new();
        match &self.inner {
            PlanInner::Flat(fb) => {
                let parents = fb.parents.as_ref()?;
                let lay = fb.bases.get(node as usize)? + depth.min(fb.sats[node as usize]);
                let mut cur = lay * fb.v_count + member.0;
                if *fb.seen.get(cur as usize)? == 0 {
                    return None;
                }
                loop {
                    let hop = parents.hop[cur as usize];
                    let prev = parents.state[cur as usize];
                    if hop != HOP_NONE {
                        hops.push((EdgeId(hop >> 1), hop & 1 == 1));
                    }
                    if prev == cur {
                        break;
                    }
                    cur = prev;
                }
                hops.reverse();
                let lay = cur / fb.v_count;
                let li = fb.layers[lay as usize];
                let seed = (
                    NodeId(cur % fb.v_count),
                    li.node,
                    lay - fb.bases[li.node as usize],
                );
                Some((hops, seed))
            }
            PlanInner::Sparse(sb) => {
                let parents = sb.parents.as_ref()?;
                let mut cur: PState = (member.0, node, depth.min(*sb.sats.get(node as usize)?));
                loop {
                    let &(prev, hop) = parents.get(&cur)?;
                    if let Some(h) = hop {
                        hops.push(h);
                    }
                    if prev == cur {
                        break;
                    }
                    cur = prev;
                }
                hops.reverse();
                Some((hops, (NodeId(cur.0), cur.1, cur.2)))
            }
        }
    }

    /// A sparse-variant state regardless of the product-space size, so
    /// tests can pin flat ≡ sparse on small graphs.
    #[cfg(test)]
    pub(crate) fn sparse(nodes: &[PlanNode]) -> Self {
        PlanBatchState {
            states_expanded: 0,
            inner: PlanInner::Sparse(SparsePlanBatch::new(nodes)),
        }
    }

    /// Whether the sparse mirror serves this state.
    #[cfg(test)]
    pub(crate) fn is_sparse(&self) -> bool {
        matches!(self.inner, PlanInner::Sparse(_))
    }
}

/// One seeded run of the plan engine: drains the frontier produced by
/// `seeds`, recording accepts and exporting masked states visited at
/// `watched` members. Bits reported (matched or exported) are disjoint
/// across runs, and re-seeding known bits is a no-op. Seeds and
/// exports carry plan node ids in their `u16` slot.
///
/// With `stop = Some(m)` the run returns the moment `m` is newly
/// accepted (`hit` carries the `(node, depth)` coordinate), leaving the
/// frontier undrained. `state` must have been created for this same
/// `(g, snap, nodes)`; `masks` must stay the same chunk across runs.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_plan_batch_seeded(
    g: &SocialGraph,
    snap: &CsrSnapshot,
    nodes: &[PlanNode],
    masks: &ChunkMasks,
    state: &mut PlanBatchState,
    seeds: &[MaskedSeedState],
    watched: &[bool],
    stop: Option<NodeId>,
) -> SeededBatchOutcome {
    let PlanBatchState {
        states_expanded,
        inner,
    } = state;
    // Parent tracking and the stop check are compiled out of the
    // untargeted loops (the bundle-audience hot path).
    match inner {
        PlanInner::Flat(fb) if fb.parents.is_some() || stop.is_some() => {
            fb.run::<true>(g, snap, nodes, masks, seeds, watched, stop, states_expanded)
        }
        PlanInner::Flat(fb) => {
            fb.run::<false>(g, snap, nodes, masks, seeds, watched, None, states_expanded)
        }
        PlanInner::Sparse(sb) if sb.parents.is_some() || stop.is_some() => {
            sb.run::<true>(g, nodes, masks, seeds, watched, stop, states_expanded)
        }
        PlanInner::Sparse(sb) => {
            sb.run::<false>(g, nodes, masks, seeds, watched, None, states_expanded)
        }
    }
}

impl FlatPlanBatch {
    /// Forwards `bits` to a state, queueing it on the 0 → nonzero
    /// pending transition (free-function shape for split borrows).
    /// Returns `true` on the state's **first-ever** arrival (any bit),
    /// the moment a parent pointer is recorded.
    #[inline]
    fn send(
        seen: &mut [u64],
        pending: &mut [u64],
        queue: &mut Vec<u64>,
        v_count: u32,
        layer: u32,
        v: u32,
        bits: u64,
    ) -> bool {
        let idx = (layer * v_count + v) as usize;
        let first = seen[idx] == 0;
        let new = bits & !seen[idx];
        if new != 0 {
            seen[idx] |= new;
            if pending[idx] == 0 {
                queue.push((u64::from(layer) << 32) | u64::from(v));
            }
            pending[idx] |= new;
        }
        first && new != 0
    }

    /// Records the first-arrival edge hop `from → state`, when the
    /// engine tracks parents.
    #[inline]
    fn record(parents: &mut Option<FlatParents>, state: u32, from: usize, eid: u32, forward: bool) {
        if let Some(p) = parents.as_mut() {
            p.state[state as usize] = from as u32;
            p.hop[state as usize] = (eid << 1) | u32::from(forward);
        }
    }

    /// One run; `TARGETED` enables parent recording (when the state
    /// tracks parents) and the `stop` check.
    #[allow(clippy::too_many_arguments)]
    fn run<const TARGETED: bool>(
        &mut self,
        g: &SocialGraph,
        snap: &CsrSnapshot,
        nodes: &[PlanNode],
        masks: &ChunkMasks,
        seeds: &[MaskedSeedState],
        watched: &[bool],
        stop: Option<NodeId>,
        states_expanded: &mut usize,
    ) -> SeededBatchOutcome {
        debug_assert!(snap.matches(g), "snapshot pinned for the whole bundle");
        let mut out = SeededBatchOutcome::default();
        let FlatPlanBatch {
            v_count,
            bases,
            sats,
            layers,
            seen,
            pending,
            matched_mask,
            frontier,
            next,
            parents,
        } = self;
        let v_count = *v_count;

        debug_assert!(frontier.is_empty(), "previous run drained its frontier");
        for &(m, node, depth, bits) in seeds {
            let lay = bases[node as usize] + depth.min(sats[node as usize]);
            let first = Self::send(seen, pending, frontier, v_count, lay, m.0, bits);
            if TARGETED && first {
                if let Some(p) = parents.as_mut() {
                    let idx = lay * v_count + m.0;
                    p.state[idx as usize] = idx;
                    p.hop[idx as usize] = HOP_NONE;
                }
            }
        }

        while !frontier.is_empty() {
            for &packed in frontier.iter() {
                let v = packed as u32;
                let lay = (packed >> 32) as u32;
                let idx = (lay * v_count + v) as usize;
                let delta = pending[idx];
                pending[idx] = 0;
                debug_assert_ne!(delta, 0, "queued state without pending bits");
                out.stats.states_visited += 1;
                *states_expanded += 1;
                let li = layers[lay as usize];
                let pn = &nodes[li.node as usize];
                let step = &pn.step;
                let node = NodeId(v);

                if watched[node.index()] {
                    out.exports
                        .push((node, li.node, lay - bases[li.node as usize], delta));
                }

                // Node completion for the newly arrived bits: accept
                // the bits whose condition ends here, ε-fork the rest
                // into the children on their chains.
                if li.completes && step.conds.iter().all(|c| c.eval(g.node_attrs(node))) {
                    let acc =
                        delta & masks.accept_mask[li.node as usize] & !matched_mask[node.index()];
                    if acc != 0 {
                        matched_mask[node.index()] |= acc;
                        out.matched.push((node, acc));
                        if TARGETED && stop == Some(node) {
                            out.hit = Some((li.node, lay - bases[li.node as usize]));
                            return out;
                        }
                    }
                    for &child in &pn.children {
                        let fwd = delta & masks.node_mask[child as usize];
                        if fwd != 0 {
                            let layer = bases[child as usize];
                            let first = Self::send(seen, pending, next, v_count, layer, v, fwd);
                            if TARGETED && first {
                                if let Some(p) = parents.as_mut() {
                                    let ni = (layer * v_count + v) as usize;
                                    p.state[ni] = idx as u32;
                                    p.hop[ni] = HOP_NONE;
                                }
                            }
                        }
                    }
                }

                // Edge expansion within the node.
                if !li.expands {
                    continue;
                }
                if matches!(step.dir, Direction::Out | Direction::Both) {
                    let nbrs = snap.out_neighbors(v, step.label);
                    if TARGETED {
                        for (&nbr, &eid) in nbrs.nodes.iter().zip(nbrs.edges) {
                            out.stats.edges_scanned += 1;
                            if Self::send(seen, pending, next, v_count, li.next_layer, nbr, delta) {
                                Self::record(
                                    parents,
                                    li.next_layer * v_count + nbr,
                                    idx,
                                    eid,
                                    true,
                                );
                            }
                        }
                    } else {
                        for &nbr in nbrs.nodes {
                            out.stats.edges_scanned += 1;
                            Self::send(seen, pending, next, v_count, li.next_layer, nbr, delta);
                        }
                    }
                }
                if matches!(step.dir, Direction::In | Direction::Both) {
                    let nbrs = snap.in_neighbors(v, step.label);
                    if TARGETED {
                        for (&nbr, &eid) in nbrs.nodes.iter().zip(nbrs.edges) {
                            out.stats.edges_scanned += 1;
                            if Self::send(seen, pending, next, v_count, li.next_layer, nbr, delta) {
                                Self::record(
                                    parents,
                                    li.next_layer * v_count + nbr,
                                    idx,
                                    eid,
                                    false,
                                );
                            }
                        }
                    } else {
                        for &nbr in nbrs.nodes {
                            out.stats.edges_scanned += 1;
                            Self::send(seen, pending, next, v_count, li.next_layer, nbr, delta);
                        }
                    }
                }
            }
            std::mem::swap(frontier, next);
            next.clear();
        }
        out
    }
}

impl SparsePlanBatch {
    fn new(nodes: &[PlanNode]) -> Self {
        SparsePlanBatch {
            sats: nodes.iter().map(|n| n.step.depths.saturation()).collect(),
            seen: HashMap::new(),
            pending: HashMap::new(),
            matched_mask: HashMap::new(),
            frontier: Vec::new(),
            next: Vec::new(),
            parents: None,
        }
    }

    /// Returns `true` on the state's first-ever arrival (any bit) —
    /// the moment a parent pointer is recorded.
    #[inline]
    fn send(
        seen: &mut HashMap<PState, u64>,
        pending: &mut HashMap<PState, u64>,
        queue: &mut Vec<PState>,
        st: PState,
        bits: u64,
    ) -> bool {
        let slot = seen.entry(st).or_insert(0);
        let first = *slot == 0;
        let new = bits & !*slot;
        if new != 0 {
            *slot |= new;
            let p = pending.entry(st).or_insert(0);
            if *p == 0 {
                queue.push(st);
            }
            *p |= new;
        }
        first && new != 0
    }

    /// One run; `TARGETED` enables parent recording (when the state
    /// tracks parents) and the `stop` check.
    #[allow(clippy::too_many_arguments)]
    fn run<const TARGETED: bool>(
        &mut self,
        g: &SocialGraph,
        nodes: &[PlanNode],
        masks: &ChunkMasks,
        seeds: &[MaskedSeedState],
        watched: &[bool],
        stop: Option<NodeId>,
        states_expanded: &mut usize,
    ) -> SeededBatchOutcome {
        let mut out = SeededBatchOutcome::default();
        let SparsePlanBatch {
            sats,
            seen,
            pending,
            matched_mask,
            frontier,
            next,
            parents,
        } = self;
        // Records `state`'s first-arrival parent, when tracked.
        let mut record = |state: PState, from: PState, hop: Option<WitnessHop>| {
            if let Some(p) = parents.as_mut() {
                p.insert(state, (from, hop));
            }
        };

        debug_assert!(frontier.is_empty(), "previous run drained its frontier");
        for &(m, node, depth, bits) in seeds {
            let st: PState = (m.0, node, depth.min(sats[node as usize]));
            if Self::send(seen, pending, frontier, st, bits) && TARGETED {
                record(st, st, None);
            }
        }

        while !frontier.is_empty() {
            for &st in frontier.iter() {
                let (v, n, d) = st;
                let delta = pending.insert(st, 0).unwrap_or(0);
                debug_assert_ne!(delta, 0, "queued state without pending bits");
                out.stats.states_visited += 1;
                *states_expanded += 1;
                let pn = &nodes[n as usize];
                let step = &pn.step;
                let node = NodeId(v);

                if watched[node.index()] {
                    out.exports.push((node, n, d, delta));
                }

                if d >= 1
                    && step.depths.contains(d)
                    && step.conds.iter().all(|c| c.eval(g.node_attrs(node)))
                {
                    let mask = matched_mask.entry(v).or_insert(0);
                    let acc = delta & masks.accept_mask[n as usize] & !*mask;
                    if acc != 0 {
                        *mask |= acc;
                        out.matched.push((node, acc));
                        if TARGETED && stop == Some(node) {
                            out.hit = Some((n, d));
                            return out;
                        }
                    }
                    for &child in &pn.children {
                        let fwd = delta & masks.node_mask[child as usize];
                        if fwd != 0
                            && Self::send(seen, pending, next, (v, child, 0), fwd)
                            && TARGETED
                        {
                            record((v, child, 0), st, None);
                        }
                    }
                }

                if d >= sats[n as usize] && !step.depths.is_unbounded() {
                    continue;
                }
                let d_next = (d + 1).min(sats[n as usize]);
                if matches!(step.dir, Direction::Out | Direction::Both) {
                    for (eid, rec) in g.out_edges(node) {
                        if rec.label != step.label {
                            out.stats.edges_filtered += 1;
                            continue;
                        }
                        out.stats.edges_scanned += 1;
                        let ns = (rec.dst.0, n, d_next);
                        if Self::send(seen, pending, next, ns, delta) && TARGETED {
                            record(ns, st, Some((eid, true)));
                        }
                    }
                }
                if matches!(step.dir, Direction::In | Direction::Both) {
                    for (eid, rec) in g.in_edges(node) {
                        if rec.label != step.label {
                            out.stats.edges_filtered += 1;
                            continue;
                        }
                        out.stats.edges_scanned += 1;
                        let ns = (rec.src.0, n, d_next);
                        if Self::send(seen, pending, next, ns, delta) && TARGETED {
                            record(ns, st, Some((eid, false)));
                        }
                    }
                }
            }
            std::mem::swap(frontier, next);
            next.clear();
        }
        out
    }
}

/// Result of a whole-bundle plan evaluation on a single graph.
#[derive(Clone, Debug, Default)]
pub struct PlanAudienceOutcome {
    /// Per condition (same order as the compiled bundle), the sorted
    /// members whose walks satisfy it. Empty paths yield the owner.
    pub audiences: Vec<Vec<NodeId>>,
    /// Product states processed across all chunks.
    pub states_visited: usize,
    /// Edges scanned across all chunks.
    pub edges_scanned: usize,
    /// Number of 64-condition chunk traversals run.
    pub traversals: usize,
}

/// Evaluates a compiled bundle on one graph: every 64 conditions share
/// one plan traversal, each seeded at its owner on its root node.
/// `owners[i]` is the owner of condition `i`; the result is
/// per-condition audiences identical to evaluating each condition's
/// path alone (the differential suite pins this).
pub fn evaluate_plan_audiences(
    g: &SocialGraph,
    snap: &CsrSnapshot,
    plan: &BundlePlan,
    owners: &[NodeId],
) -> PlanAudienceOutcome {
    assert_eq!(owners.len(), plan.num_conds(), "one owner per condition");
    let mut out = PlanAudienceOutcome {
        audiences: vec![Vec::new(); owners.len()],
        ..Default::default()
    };
    let mut traversable = Vec::new();
    for (i, &owner) in owners.iter().enumerate() {
        match plan.root_of(i) {
            Some(_) => traversable.push(i),
            None => out.audiences[i].push(owner), // empty path: owner only
        }
    }
    if traversable.is_empty() {
        return out;
    }
    let watched = vec![false; g.num_nodes()];
    for chunk in traversable.chunks(64) {
        let masks = plan.chunk_masks(chunk);
        let mut state = PlanBatchState::new(g, snap, &plan.nodes);
        let seeds: Vec<MaskedSeedState> = chunk
            .iter()
            .enumerate()
            .map(|(bit, &cond)| {
                (
                    owners[cond],
                    plan.root_of(cond).expect("traversable condition"),
                    0,
                    1u64 << bit,
                )
            })
            .collect();
        let run = evaluate_plan_batch_seeded(
            g,
            snap,
            &plan.nodes,
            &masks,
            &mut state,
            &seeds,
            &watched,
            None,
        );
        for (member, mut bits) in run.matched {
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                out.audiences[chunk[bit]].push(member);
            }
        }
        out.states_visited += run.stats.states_visited;
        out.edges_scanned += run.stats.edges_scanned;
        out.traversals += 1;
    }
    for a in &mut out.audiences {
        a.sort_unstable_by_key(|n| n.0);
        a.dedup();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::evaluate_with_snapshot;
    use crate::path::parse_path;

    /// A small two-community graph: a friend chain 0-1-2-3 (out
    /// edges), colleagues 2→4, 3→4, and a boss edge 5→0.
    fn fixture() -> SocialGraph {
        let mut g = SocialGraph::new();
        for i in 0..6 {
            let n = g.add_node(&format!("m{i}"));
            assert_eq!(n.0, i);
        }
        for (s, d) in [(0, 1), (1, 2), (2, 3)] {
            g.connect(NodeId(s), "friend", NodeId(d));
        }
        g.connect(NodeId(2), "colleague", NodeId(4));
        g.connect(NodeId(3), "colleague", NodeId(4));
        g.connect(NodeId(5), "boss", NodeId(0));
        for i in 0..6u32 {
            g.set_node_attr(NodeId(i), "age", 20 + i as i64);
        }
        g
    }

    fn single_audience(
        g: &SocialGraph,
        snap: &CsrSnapshot,
        owner: NodeId,
        path: &crate::path::PathExpr,
    ) -> Vec<NodeId> {
        let mut a = evaluate_with_snapshot(g, snap, owner, path, None).matched;
        a.sort_unstable_by_key(|n| n.0);
        a
    }

    #[test]
    fn plan_matches_per_condition_evaluation() {
        let mut g = fixture();
        let texts = [
            "friend+[1..2]",
            "friend+[1..2]/colleague+[1]",
            "friend+[1..3]",
            "boss-[1]",
            "friend*[1..]{age>=21}",
        ];
        let paths: Vec<_> = texts
            .iter()
            .map(|t| parse_path(t, g.vocab_mut()).unwrap())
            .collect();
        let snap = g.snapshot();
        let owners = vec![NodeId(0); paths.len()];
        let plan = BundlePlan::compile(&paths.iter().collect::<Vec<_>>()).unwrap();
        let got = evaluate_plan_audiences(&g, &snap, &plan, &owners);
        for (i, path) in paths.iter().enumerate() {
            let want = single_audience(&g, &snap, owners[i], path);
            assert_eq!(got.audiences[i], want, "condition {i}: {}", texts[i]);
        }
        assert!(got.traversals == 1, "five conditions share one traversal");
    }

    #[test]
    fn shared_prefix_expands_fewer_states_than_separate_chains() {
        let mut g = fixture();
        let shared = [
            "friend+[1..2]",
            "friend+[1..2]/colleague+[1]",
            "friend+[1..2]/friend+[1]",
        ];
        let paths: Vec<_> = shared
            .iter()
            .map(|t| parse_path(t, g.vocab_mut()).unwrap())
            .collect();
        let snap = g.snapshot();
        let owners = vec![NodeId(0); paths.len()];
        let plan = BundlePlan::compile(&paths.iter().collect::<Vec<_>>()).unwrap();
        let fused = evaluate_plan_audiences(&g, &snap, &plan, &owners);
        let mut separate = 0;
        for (i, path) in paths.iter().enumerate() {
            let solo_plan = BundlePlan::compile(&[path]).unwrap();
            let solo = evaluate_plan_audiences(&g, &snap, &solo_plan, &owners[i..i + 1]);
            separate += solo.states_visited;
        }
        assert!(
            fused.states_visited < separate,
            "shared prefix must save work: fused {} vs separate {separate}",
            fused.states_visited
        );
    }

    #[test]
    fn empty_paths_and_mixed_owners() {
        let mut g = fixture();
        let friend = parse_path("friend+[1]", g.vocab_mut()).unwrap();
        let snap = g.snapshot();
        let empty = crate::path::PathExpr::new(vec![]);
        let paths = vec![&friend, &empty, &friend];
        let owners = vec![NodeId(0), NodeId(3), NodeId(1)];
        let plan = BundlePlan::compile(&paths).unwrap();
        let got = evaluate_plan_audiences(&g, &snap, &plan, &owners);
        assert_eq!(got.audiences[0], vec![NodeId(1)]);
        assert_eq!(
            got.audiences[1],
            vec![NodeId(3)],
            "empty path yields the owner"
        );
        assert_eq!(got.audiences[2], vec![NodeId(2)]);
    }

    #[test]
    fn persistence_reseeding_known_bits_is_a_noop() {
        let mut g = fixture();
        let path = parse_path("friend+[1..2]", g.vocab_mut()).unwrap();
        let snap = g.snapshot();
        let plan = BundlePlan::compile(&[&path]).unwrap();
        let masks = plan.chunk_masks(&[0]);
        let mut state = PlanBatchState::new(&g, &snap, &plan.nodes);
        let watched = vec![false; g.num_nodes()];
        let seeds = [(NodeId(0), 0u16, 0u32, 1u64)];
        let first = evaluate_plan_batch_seeded(
            &g,
            &snap,
            &plan.nodes,
            &masks,
            &mut state,
            &seeds,
            &watched,
            None,
        );
        assert!(!first.matched.is_empty());
        let again = evaluate_plan_batch_seeded(
            &g,
            &snap,
            &plan.nodes,
            &masks,
            &mut state,
            &seeds,
            &watched,
            None,
        );
        assert!(again.matched.is_empty(), "bits are disjoint across runs");
        assert_eq!(
            again.stats.states_visited, 0,
            "re-seeding known bits is free"
        );
    }

    #[test]
    fn watched_members_export_plan_states() {
        let mut g = fixture();
        let path = parse_path("friend+[1..3]", g.vocab_mut()).unwrap();
        let snap = g.snapshot();
        let plan = BundlePlan::compile(&[&path]).unwrap();
        let masks = plan.chunk_masks(&[0]);
        let mut state = PlanBatchState::new(&g, &snap, &plan.nodes);
        let mut watched = vec![false; g.num_nodes()];
        watched[2] = true;
        let seeds = [(NodeId(0), 0u16, 0u32, 1u64)];
        let run = evaluate_plan_batch_seeded(
            &g,
            &snap,
            &plan.nodes,
            &masks,
            &mut state,
            &seeds,
            &watched,
            None,
        );
        assert!(
            run.exports
                .iter()
                .any(|&(m, n, d, bits)| m == NodeId(2) && n == 0 && d == 2 && bits == 1),
            "watched member exports its arrival states: {:?}",
            run.exports
        );
    }

    /// `friend+[1..2]/colleague+[1]` from member 0 reaches 4 through
    /// 0→1→2 (friend, friend) then 2→4 (colleague).
    fn chain_fixture() -> (SocialGraph, crate::path::PathExpr) {
        let mut g = fixture();
        let path = parse_path("friend+[1..2]/colleague+[1]", g.vocab_mut()).unwrap();
        (g, path)
    }

    /// A state of each variant for `plan`, parent-tracked or not.
    fn both_variants(
        g: &SocialGraph,
        snap: &CsrSnapshot,
        plan: &BundlePlan,
        parents: bool,
    ) -> [PlanBatchState; 2] {
        let flat = if parents {
            PlanBatchState::with_parents(g, snap, &plan.nodes)
        } else {
            PlanBatchState::new(g, snap, &plan.nodes)
        };
        let mut sparse = PlanBatchState::sparse(&plan.nodes);
        if parents {
            let PlanInner::Sparse(sb) = &mut sparse.inner else {
                unreachable!("built sparse")
            };
            sb.parents = Some(HashMap::new());
        }
        assert!(!flat.is_sparse() && sparse.is_sparse());
        [flat, sparse]
    }

    #[test]
    fn trace_reads_witness_segments_on_both_variants() {
        let (g, path) = chain_fixture();
        let snap = g.snapshot();
        let (plan, masks) = BundlePlan::chain(&path);
        let watched = vec![false; g.num_nodes()];
        let truth = evaluate_with_snapshot(&g, &snap, NodeId(0), &path, Some(NodeId(4)));
        for mut state in both_variants(&g, &snap, &plan, true) {
            let seeds = [(NodeId(0), 0u16, 0u32, 1u64)];
            let run = evaluate_plan_batch_seeded(
                &g,
                &snap,
                &plan.nodes,
                &masks,
                &mut state,
                &seeds,
                &watched,
                None,
            );
            assert!(run.matched.iter().any(|&(m, _)| m == NodeId(4)));
            // The accepting state of member 4: node 1 (colleague), depth 1.
            let (hops, seed) = state.trace(NodeId(4), 1, 1).expect("reached");
            assert_eq!(seed, (NodeId(0), 0, 0), "chain ends at the seed");
            assert_eq!(Some(hops.clone()), truth.witness, "BFS-first witness");
            assert_eq!(hops.len(), 3);
            // A seed traces to itself; an unreached state has no trace.
            let (own, seed) = state.trace(NodeId(0), 0, 0).expect("seed");
            assert!(own.is_empty());
            assert_eq!(seed, (NodeId(0), 0, 0));
            assert!(state.trace(NodeId(5), 0, 1).is_none(), "5 is unreachable");
        }
        // Untracked engines keep no chains.
        for state in both_variants(&g, &snap, &plan, false) {
            assert!(state.trace(NodeId(0), 0, 0).is_none());
        }
    }

    #[test]
    fn stop_exits_at_the_first_accept_on_both_variants() {
        let mut g = fixture();
        let path = parse_path("friend+[1..3]", g.vocab_mut()).unwrap();
        let snap = g.snapshot();
        let (plan, masks) = BundlePlan::chain(&path);
        let watched = vec![false; g.num_nodes()];
        let seeds = [(NodeId(0), 0u16, 0u32, 1u64)];
        let full = {
            let mut state = PlanBatchState::new(&g, &snap, &plan.nodes);
            evaluate_plan_batch_seeded(
                &g,
                &snap,
                &plan.nodes,
                &masks,
                &mut state,
                &seeds,
                &watched,
                None,
            )
        };
        for parents in [false, true] {
            for mut state in both_variants(&g, &snap, &plan, parents) {
                let run = evaluate_plan_batch_seeded(
                    &g,
                    &snap,
                    &plan.nodes,
                    &masks,
                    &mut state,
                    &seeds,
                    &watched,
                    Some(NodeId(2)),
                );
                assert_eq!(run.hit, Some((0, 2)), "member 2 sits two friend hops out");
                assert!(
                    run.stats.states_visited < full.stats.states_visited,
                    "the run stopped early"
                );
                assert_eq!(run.matched.last(), Some(&(NodeId(2), 1)));
                if parents {
                    let (hops, _) = state.trace(NodeId(2), 0, 2).expect("hit is traced");
                    assert_eq!(hops.len(), 2);
                }
            }
        }
        // A stop member that never matches drains the search.
        let mut state = PlanBatchState::new(&g, &snap, &plan.nodes);
        let run = evaluate_plan_batch_seeded(
            &g,
            &snap,
            &plan.nodes,
            &masks,
            &mut state,
            &seeds,
            &watched,
            Some(NodeId(5)),
        );
        assert_eq!(run.hit, None);
        assert_eq!(run.matched, full.matched);
    }
}
