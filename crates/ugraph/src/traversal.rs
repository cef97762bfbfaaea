//! Deterministic-graph traversal primitives shared by all estimators.
//!
//! Reliability estimators run *many* BFS passes per query (one per sampled
//! world). To keep the per-sample cost down, [`VisitSet`] uses an epoch
//! trick: resetting between samples is a single counter bump instead of an
//! `O(n)` clear.

use crate::graph::UncertainGraph;
use crate::ids::{EdgeId, NodeId};
use std::collections::VecDeque;

/// A reusable visited-set over dense node ids with O(1) reset.
#[derive(Clone, Debug)]
pub struct VisitSet {
    marks: Vec<u32>,
    epoch: u32,
}

impl VisitSet {
    /// A visit set for `n` nodes, initially all unvisited.
    pub fn new(n: usize) -> Self {
        VisitSet {
            marks: vec![0; n],
            epoch: 1,
        }
    }

    /// Reset all nodes to unvisited in O(1) (amortized; a full clear happens
    /// only on `u32` epoch wrap-around, i.e. every ~4 billion resets).
    #[inline]
    pub fn reset(&mut self) {
        if self.epoch == u32::MAX {
            self.marks.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Mark `v` visited; returns `true` if it was previously unvisited.
    #[inline]
    pub fn insert(&mut self, v: NodeId) -> bool {
        let slot = &mut self.marks[v.index()];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }

    /// Whether `v` is currently marked visited.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.marks[v.index()] == self.epoch
    }

    /// Number of nodes this set covers.
    pub fn capacity(&self) -> usize {
        self.marks.len()
    }

    /// Approximate resident bytes (for memory accounting).
    pub fn resident_bytes(&self) -> usize {
        self.marks.len() * 4
    }
}

/// Reusable BFS workspace (queue + visit set), sized for one graph.
#[derive(Clone, Debug)]
pub struct BfsWorkspace {
    /// Epoch-reset visited set.
    pub visited: VisitSet,
    /// BFS frontier queue.
    pub queue: VecDeque<NodeId>,
}

impl BfsWorkspace {
    /// Workspace for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        BfsWorkspace {
            visited: VisitSet::new(n),
            queue: VecDeque::new(),
        }
    }

    /// Reset for a fresh traversal.
    #[inline]
    pub fn reset(&mut self) {
        self.visited.reset();
        self.queue.clear();
    }

    /// Approximate resident bytes (for memory accounting).
    pub fn resident_bytes(&self) -> usize {
        self.visited.resident_bytes() + self.queue.capacity() * std::mem::size_of::<NodeId>()
    }
}

/// BFS over edges accepted by `edge_exists`; returns `true` as soon as `t`
/// is reached (early termination, as in Alg. 1 of the paper).
///
/// `edge_exists` receives the edge id and decides whether the edge is
/// present — callers plug in "sample now" (MC), "read bit vector"
/// (BFS-Sharing replay), "consult overlay" (RHH/RSS), etc.
pub fn bfs_reaches<F>(
    graph: &UncertainGraph,
    s: NodeId,
    t: NodeId,
    ws: &mut BfsWorkspace,
    mut edge_exists: F,
) -> bool
where
    F: FnMut(EdgeId) -> bool,
{
    if s == t {
        return true;
    }
    ws.reset();
    ws.visited.insert(s);
    ws.queue.push_back(s);
    while let Some(v) = ws.queue.pop_front() {
        for (e, w) in graph.out_edges(v) {
            if ws.visited.contains(w) {
                continue;
            }
            if edge_exists(e) {
                if w == t {
                    return true;
                }
                ws.visited.insert(w);
                ws.queue.push_back(w);
            }
        }
    }
    false
}

/// Reusable workspace for depth-bounded BFS (level-synchronous frontier
/// swap), sized for one graph. The epoch-reset [`VisitSet`] keeps the
/// per-sample cost of distance-constrained estimators allocation-free.
#[derive(Clone, Debug)]
pub struct BoundedBfsWorkspace {
    visited: VisitSet,
    frontier: Vec<NodeId>,
    next: Vec<NodeId>,
}

impl BoundedBfsWorkspace {
    /// Workspace for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        BoundedBfsWorkspace {
            visited: VisitSet::new(n),
            frontier: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Approximate resident bytes (for memory accounting).
    pub fn resident_bytes(&self) -> usize {
        self.visited.resident_bytes()
            + (self.frontier.capacity() + self.next.capacity()) * std::mem::size_of::<NodeId>()
    }

    /// Resident bytes a fresh workspace for `n` nodes would hold, without
    /// allocating one (memory accounting on hot paths).
    pub fn bytes_for(n: usize) -> usize {
        n * std::mem::size_of::<u32>()
    }
}

/// Depth-bounded BFS over edges accepted by `edge_exists`: is `t` within
/// at most `d` hops of `s`? Early-terminates the moment `t` is reached.
///
/// The edge-probe order (frontier nodes in discovery order, each node's
/// out-edges in CSR order, `edge_exists` consulted only for unvisited
/// heads) is part of the contract: samplers rely on it so that the same
/// RNG stream produces the same world regardless of which workspace or
/// caller drives the walk.
pub fn bfs_reaches_within<F>(
    graph: &UncertainGraph,
    s: NodeId,
    t: NodeId,
    d: usize,
    ws: &mut BoundedBfsWorkspace,
    mut edge_exists: F,
) -> bool
where
    F: FnMut(EdgeId) -> bool,
{
    if s == t {
        return true;
    }
    ws.visited.reset();
    ws.frontier.clear();
    ws.next.clear();
    ws.visited.insert(s);
    ws.frontier.push(s);
    let mut h = 0usize;
    while !ws.frontier.is_empty() && h < d {
        h += 1;
        for i in 0..ws.frontier.len() {
            let v = ws.frontier[i];
            for (e, w) in graph.out_edges(v) {
                if !ws.visited.contains(w) && edge_exists(e) {
                    if w == t {
                        return true;
                    }
                    ws.visited.insert(w);
                    ws.next.push(w);
                }
            }
        }
        std::mem::swap(&mut ws.frontier, &mut ws.next);
        ws.next.clear();
    }
    false
}

/// How many possible worlds one packed traversal covers: the width of the
/// `u64` words that [`WordBfsWorkspace`] and [`word_reach`] operate on.
/// Bit `b` of every word belongs to world `b`.
pub const WORLD_WORD_BITS: usize = 64;

/// Reusable workspace for 64-world bit-packed BFS.
///
/// Each node carries a `u64` *reach word*: bit `b` is set when the node is
/// reachable from the source in world `b`. One traversal therefore settles
/// [`WORLD_WORD_BITS`] sampled worlds at once.
///
/// Resetting between batches is O(union), not O(n): the workspace keeps a
/// deduplicated list of nodes whose reach word went nonzero, and the next
/// traversal clears exactly those words. On graphs where a 64-world batch
/// touches a few hundred nodes out of hundreds of thousands, the old
/// full-array clear dominated the whole batch.
#[derive(Clone, Debug)]
pub struct WordBfsWorkspace {
    reach: Vec<u64>,
    /// Nodes with a nonzero reach word, deduplicated, discovery order
    /// (source first). Every nonzero `reach` write pushes here exactly
    /// once, so `reach[v] != 0` iff `v` is listed.
    touched: Vec<NodeId>,
    // Level-synchronous frontier state: the frontier word holds the bits
    // that arrived at this node on the current level; a node re-enters a
    // later frontier only if new worlds reach it there. This bounds the
    // out-edge rescans per node by the spread of its per-world BFS depths
    // (typically 1-3 levels), where an arrival-ordered worklist rescans
    // once per *bit* arrival — up to 64x on heavily-overlapping worlds.
    // Invariant between traversals: both word arrays are all-zero.
    word: Vec<u64>,
    next_word: Vec<u64>,
    frontier: Vec<NodeId>,
    next: Vec<NodeId>,
}

impl WordBfsWorkspace {
    /// Workspace for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        WordBfsWorkspace {
            reach: vec![0; n],
            touched: Vec::new(),
            word: vec![0; n],
            next_word: vec![0; n],
            frontier: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Per-node reach words of the most recent traversal: bit `b` of
    /// `reach()[v]` is set when node `v` was reached in world `b`.
    /// Unreached nodes hold zero.
    pub fn reach(&self) -> &[u64] {
        &self.reach
    }

    /// Approximate resident bytes (for memory accounting).
    pub fn resident_bytes(&self) -> usize {
        self.reach.len() * 8 * 3
            + (self.touched.capacity() + self.frontier.capacity() + self.next.capacity())
                * std::mem::size_of::<NodeId>()
    }

    /// Resident bytes a fresh workspace for `n` nodes would hold, without
    /// allocating one (memory accounting on hot paths).
    pub fn bytes_for(n: usize) -> usize {
        n * 3 * std::mem::size_of::<u64>()
    }
}

/// Per-node results of one packed traversal, whichever workspace ran it:
/// how many of its worlds reached each node, and which nodes any world
/// reached. Top-k scoring and served BFS-Sharing read a pass through
/// this view in both batch strategies.
pub trait ReachView {
    /// Number of worlds in which `v` was reached by the most recent
    /// traversal.
    fn worlds_reaching(&self, v: NodeId) -> u32;

    /// Nodes reached in at least one world by the most recent traversal,
    /// deduplicated, in discovery order with the source first. Iterating
    /// this instead of `0..n` keeps consumers proportional to the reached
    /// set.
    fn reached_nodes(&self) -> &[NodeId];
}

impl ReachView for WordBfsWorkspace {
    fn worlds_reaching(&self, v: NodeId) -> u32 {
        self.reach[v.index()].count_ones()
    }

    fn reached_nodes(&self) -> &[NodeId] {
        &self.touched
    }
}

/// The out-edges a packed walk ([`word_reach`]) follows: a whole graph, or
/// a view of one with edges hidden and extra ones given ids past `m`.
/// Edge ids key the caller's per-edge state, so a view's ids must be dense.
pub trait EdgeView {
    /// Out-edges of `v` as `(edge, head)`.
    fn out_edges(&self, v: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)>;

    /// Existence probability of edge `e`.
    fn edge_prob(&self, e: EdgeId) -> f64;
}

impl EdgeView for UncertainGraph {
    #[inline]
    fn out_edges(&self, v: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> {
        UncertainGraph::out_edges(self, v)
    }

    #[inline]
    fn edge_prob(&self, e: EdgeId) -> f64 {
        self.prob(e).value()
    }
}

/// Bit-packed reachability from `s` over up to 64 sampled worlds at once,
/// level-synchronous: each frontier node is expanded once per level with
/// every world bit that arrived there on the previous level, so a node's
/// out-edges are rescanned at most once per distinct per-world BFS depth
/// — not once per arriving bit, which degenerates to 64 rescans per node
/// on supercritical graphs where the worlds share a giant component.
///
/// `live` holds the worlds the traversal samples (`!0` for a whole word,
/// the low bits for a partial one); the source starts reached in exactly
/// those worlds, so no other bit is ever set. `live = 0` reaches nothing.
///
/// `edge_mask(e, cand)` receives the *candidate* world-set — worlds that
/// would newly reach the edge's head if the edge exists — and returns the
/// subset in which the edge survives (any bits outside `cand` are
/// ignored). Passing the candidate set in lets mask generators draw only
/// the worlds the traversal can actually use, instead of all 64 bits of
/// every probed edge. Probes happen lazily and their order depends on the
/// traversal — callers that need a stable RNG stream must treat the whole
/// pass as one draw.
///
/// With `t = Some(target)`, worlds that already reach the target drop out
/// of propagation (`live & !reach[t]`), and the walk stops once every live
/// world has reached it; the target's word is then exact and other nodes'
/// words may be partial. With `t = None` every node's word is exact.
/// `max_hops = Some(d)` expands at most `d` levels: a world reaches each
/// node at its per-world BFS depth, so the cap is exact per world.
///
/// Returns the reach word of `t` (of `s`, i.e. `live`, without a target);
/// with `s == t` that is `live`. Every node's words land in
/// [`WordBfsWorkspace::reach`] and [`ReachView::reached_nodes`].
pub fn word_reach<V: EdgeView, F>(
    graph: &V,
    s: NodeId,
    t: Option<NodeId>,
    max_hops: Option<usize>,
    live: u64,
    ws: &mut WordBfsWorkspace,
    mut edge_mask: F,
) -> u64
where
    F: FnMut(EdgeId, u64) -> u64,
{
    for &v in &ws.touched {
        ws.reach[v.index()] = 0;
    }
    ws.touched.clear();
    if live == 0 {
        return 0;
    }
    ws.reach[s.index()] = live;
    ws.touched.push(s);
    ws.frontier.clear();
    ws.next.clear();
    ws.word[s.index()] = live;
    ws.frontier.push(s);
    let mut hops = 0usize;
    while !ws.frontier.is_empty() && max_hops.map_or(true, |d| hops < d) {
        hops += 1;
        let active = t.map_or(live, |t| live & !ws.reach[t.index()]);
        if active == 0 {
            break;
        }
        for i in 0..ws.frontier.len() {
            let v = ws.frontier[i];
            let fw = std::mem::take(&mut ws.word[v.index()]) & active;
            if fw == 0 {
                continue;
            }
            for (e, w) in graph.out_edges(v) {
                let old = ws.reach[w.index()];
                let cand = fw & !old;
                if cand == 0 {
                    continue;
                }
                let add = edge_mask(e, cand) & cand;
                if add != 0 {
                    if old == 0 {
                        ws.touched.push(w);
                    }
                    ws.reach[w.index()] = old | add;
                    if ws.next_word[w.index()] == 0 {
                        ws.next.push(w);
                    }
                    ws.next_word[w.index()] |= add;
                }
            }
        }
        std::mem::swap(&mut ws.frontier, &mut ws.next);
        ws.next.clear();
        std::mem::swap(&mut ws.word, &mut ws.next_word);
    }
    // Clear any frontier words left by an early exit so the next traversal
    // starts from a clean slate.
    for i in 0..ws.frontier.len() {
        let v = ws.frontier[i];
        ws.word[v.index()] = 0;
    }
    ws.reach[t.unwrap_or(s).index()]
}

/// Reusable workspace for multi-lane packed sweeps: each node carries `L`
/// reach words (*lanes*) of [`WORLD_WORD_BITS`] worlds each, so one
/// traversal settles up to `L × 64` sampled worlds. Bit `b` of lane `j`
/// belongs to world `64 j + b`.
///
/// Resetting between passes is O(union), as for [`WordBfsWorkspace`]: the
/// next traversal clears exactly the nodes the previous one reached.
#[derive(Clone, Debug)]
pub struct LaneBfsWorkspace<const L: usize> {
    reach: Vec<[u64; L]>,
    /// Nodes with a nonzero reach lane, deduplicated, discovery order
    /// (source first).
    touched: Vec<NodeId>,
    // One bit per node, set while the node's reach lanes have grown since
    // the node was last scanned. Sweeps scan only dirty nodes (in id
    // order, word-at-a-time), so each node is rescanned once per actual
    // change instead of once per sweep — the fixed point costs
    // O(sum of per-node changes × degree), not O(sweeps × m).
    // Invariant between traversals: all-zero.
    dirty: Vec<u64>,
}

impl<const L: usize> LaneBfsWorkspace<L> {
    /// Workspace for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        LaneBfsWorkspace {
            reach: vec![[0; L]; n],
            touched: Vec::new(),
            dirty: vec![0; n.div_ceil(64)],
        }
    }

    /// Per-node reach lanes of the most recent traversal: bit `b` of
    /// `reach()[v][j]` is set when node `v` was reached in world
    /// `64 j + b`. Unreached nodes hold zero.
    pub fn reach(&self) -> &[[u64; L]] {
        &self.reach
    }

    /// Approximate resident bytes (for memory accounting).
    pub fn resident_bytes(&self) -> usize {
        Self::bytes_for(self.reach.len()) + self.touched.capacity() * std::mem::size_of::<NodeId>()
    }

    /// Resident bytes a fresh workspace for `n` nodes would hold, without
    /// allocating one.
    pub fn bytes_for(n: usize) -> usize {
        n * L * std::mem::size_of::<u64>() + n.div_ceil(64) * 8
    }
}

impl<const L: usize> ReachView for LaneBfsWorkspace<L> {
    fn worlds_reaching(&self, v: NodeId) -> u32 {
        self.reach[v.index()].iter().map(|w| w.count_ones()).sum()
    }

    fn reached_nodes(&self) -> &[NodeId] {
        &self.touched
    }
}

#[inline(always)]
fn lanes_nonzero<const L: usize>(a: &[u64; L]) -> bool {
    a.iter().fold(0, |acc, &w| acc | w) != 0
}

/// Multi-lane packed reachability from `s` by fixed-point sweeps over a
/// dirty-node bitset — the dense-batch traversal for supercritical graphs,
/// where every sampled world holds a giant component and the reached
/// union approaches the whole graph.
///
/// `live[j]` holds the worlds lane `j` samples (`0` for an unused lane,
/// the low bits for a partial one); the source starts reached in exactly
/// those worlds. A node is *dirty* while its lanes have grown since its
/// out-edges were last scanned. Each sweep walks the dirty bitset in id
/// order and ORs `reach[v] & mask(e)` into each out-neighbor, marking
/// changed neighbors dirty; the walk ends when a sweep leaves nothing
/// dirty. A visit pays its adjacency walk, index math, dirty bit and
/// branch once for all `L` lanes.
///
/// `edge_mask(e)` returns the edge's `L` lane existence masks. It is
/// called only for edges that could still carry a new world to their
/// head, so masks must be a pure function of the edge within one pass:
/// the traversal order then decides nothing but which masks get asked
/// for.
///
/// With `t = Some(target)`, worlds that already reach the target drop out
/// of propagation (per lane, `live & !reach[t]`), and the walk stops once
/// every live world has reached it; the target's lanes are then exact and
/// other nodes' lanes may be partial. With `t = None` every node's lanes
/// are exact. Results land in [`LaneBfsWorkspace::reach`] and
/// [`ReachView::reached_nodes`].
pub fn lane_reach<const L: usize, F>(
    graph: &UncertainGraph,
    s: NodeId,
    t: Option<NodeId>,
    live: [u64; L],
    ws: &mut LaneBfsWorkspace<L>,
    mut edge_mask: F,
) where
    F: FnMut(EdgeId) -> [u64; L],
{
    let LaneBfsWorkspace {
        reach,
        touched,
        dirty,
    } = ws;
    for &v in touched.iter() {
        reach[v.index()] = [0; L];
    }
    touched.clear();
    if !lanes_nonzero(&live) {
        return;
    }
    reach[s.index()] = live;
    touched.push(s);
    dirty[s.index() / 64] = 1 << (s.index() % 64);
    let mut any = true;
    while any {
        let active: [u64; L] = match t {
            Some(t) => std::array::from_fn(|j| live[j] & !reach[t.index()][j]),
            None => live,
        };
        if !lanes_nonzero(&active) {
            break;
        }
        any = false;
        for wi in 0..dirty.len() {
            let mut bits = dirty[wi];
            if bits == 0 {
                continue;
            }
            dirty[wi] = 0;
            while bits != 0 {
                let vi = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let rv: [u64; L] = std::array::from_fn(|j| reach[vi][j] & active[j]);
                if !lanes_nonzero(&rv) {
                    continue;
                }
                for (e, w) in graph.out_edges(NodeId(vi as u32)) {
                    let old = reach[w.index()];
                    let cand: [u64; L] = std::array::from_fn(|j| rv[j] & !old[j]);
                    if !lanes_nonzero(&cand) {
                        continue;
                    }
                    let mask = edge_mask(e);
                    let add: [u64; L] = std::array::from_fn(|j| cand[j] & mask[j]);
                    if lanes_nonzero(&add) {
                        if !lanes_nonzero(&old) {
                            touched.push(w);
                        }
                        reach[w.index()] = std::array::from_fn(|j| old[j] | add[j]);
                        dirty[w.index() / 64] |= 1 << (w.index() % 64);
                        any = true;
                    }
                }
            }
        }
    }
    // Early close can leave dirty bits behind; restore the all-zero
    // invariant (the bitset is n/8 bytes — a trivial memset).
    dirty.fill(0);
}

/// Hop distances from `s` over *all* edges (ignoring probabilities), up to
/// `max_hops`. Returns `dist[v] = Some(h)` for reachable `v` within the
/// bound. Used by the workload generator (§3.1.3: s-t pairs at exactly
/// h hops) and by RSS's BFS edge selection.
pub fn hop_distances(graph: &UncertainGraph, s: NodeId, max_hops: usize) -> Vec<Option<u32>> {
    let mut dist: Vec<Option<u32>> = vec![None; graph.num_nodes()];
    dist[s.index()] = Some(0);
    let mut frontier = vec![s];
    let mut next = Vec::new();
    let mut h = 0u32;
    while !frontier.is_empty() && (h as usize) < max_hops {
        h += 1;
        for &v in &frontier {
            for (_, w) in graph.out_edges(v) {
                if dist[w.index()].is_none() {
                    dist[w.index()] = Some(h);
                    next.push(w);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    dist
}

/// All nodes reachable from `s` over all edges (certain topology).
pub fn reachable_set(graph: &UncertainGraph, s: NodeId) -> Vec<NodeId> {
    let mut ws = BfsWorkspace::new(graph.num_nodes());
    ws.visited.insert(s);
    ws.queue.push_back(s);
    let mut out = vec![s];
    while let Some(v) = ws.queue.pop_front() {
        for (_, w) in graph.out_edges(v) {
            if ws.visited.insert(w) {
                out.push(w);
                ws.queue.push_back(w);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn chain(n: usize) -> UncertainGraph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(NodeId(i as u32), NodeId(i as u32 + 1), 0.5)
                .unwrap();
        }
        b.build()
    }

    #[test]
    fn visit_set_reset_is_cheap_and_correct() {
        let mut vs = VisitSet::new(3);
        assert!(vs.insert(NodeId(1)));
        assert!(!vs.insert(NodeId(1)));
        assert!(vs.contains(NodeId(1)));
        vs.reset();
        assert!(!vs.contains(NodeId(1)));
        assert!(vs.insert(NodeId(1)));
    }

    #[test]
    fn bfs_reaches_with_all_edges() {
        let g = chain(5);
        let mut ws = BfsWorkspace::new(5);
        assert!(bfs_reaches(&g, NodeId(0), NodeId(4), &mut ws, |_| true));
        assert!(!bfs_reaches(&g, NodeId(4), NodeId(0), &mut ws, |_| true));
    }

    #[test]
    fn bfs_respects_edge_filter() {
        let g = chain(5);
        let mut ws = BfsWorkspace::new(5);
        // Block the middle edge 2 -> 3 (edge id 2 in a chain).
        assert!(!bfs_reaches(&g, NodeId(0), NodeId(4), &mut ws, |e| e
            .index()
            != 2));
        assert!(bfs_reaches(&g, NodeId(0), NodeId(2), &mut ws, |e| e
            .index()
            != 2));
    }

    #[test]
    fn bfs_s_equals_t() {
        let g = chain(3);
        let mut ws = BfsWorkspace::new(3);
        assert!(bfs_reaches(&g, NodeId(1), NodeId(1), &mut ws, |_| false));
    }

    #[test]
    fn bounded_bfs_respects_the_hop_cap() {
        let g = chain(5);
        let mut ws = BoundedBfsWorkspace::new(5);
        assert!(!bfs_reaches_within(
            &g,
            NodeId(0),
            NodeId(4),
            3,
            &mut ws,
            |_| true
        ));
        assert!(bfs_reaches_within(
            &g,
            NodeId(0),
            NodeId(4),
            4,
            &mut ws,
            |_| true
        ));
        // d = 0 reaches only the source itself.
        assert!(bfs_reaches_within(
            &g,
            NodeId(2),
            NodeId(2),
            0,
            &mut ws,
            |_| true
        ));
        assert!(!bfs_reaches_within(
            &g,
            NodeId(0),
            NodeId(1),
            0,
            &mut ws,
            |_| true
        ));
        // Edge filters still apply under the bound.
        assert!(!bfs_reaches_within(
            &g,
            NodeId(0),
            NodeId(2),
            4,
            &mut ws,
            |e| e.index() != 1
        ));
    }

    #[test]
    fn bounded_workspace_reuse_across_traversals() {
        let g = chain(4);
        let mut ws = BoundedBfsWorkspace::new(4);
        for d in [1usize, 2, 3] {
            assert_eq!(
                bfs_reaches_within(&g, NodeId(0), NodeId(3), d, &mut ws, |_| true),
                d >= 3
            );
        }
    }

    #[test]
    fn hop_distances_counts_hops() {
        let g = chain(5);
        let d = hop_distances(&g, NodeId(0), 10);
        assert_eq!(d[0], Some(0));
        assert_eq!(d[3], Some(3));
        let d2 = hop_distances(&g, NodeId(0), 2);
        assert_eq!(d2[3], None); // beyond the bound
        assert_eq!(d2[2], Some(2));
    }

    #[test]
    fn reachable_set_covers_component() {
        let g = chain(4);
        let r = reachable_set(&g, NodeId(1));
        assert_eq!(r.len(), 3); // 1, 2, 3
        assert!(!r.contains(&NodeId(0)));
    }

    #[test]
    fn workspace_reuse_across_traversals() {
        let g = chain(4);
        let mut ws = BfsWorkspace::new(4);
        for _ in 0..100 {
            assert!(bfs_reaches(&g, NodeId(0), NodeId(3), &mut ws, |_| true));
        }
    }

    #[test]
    fn word_reach_matches_scalar_per_world() {
        // Chain of 4 edges; give each world `b` a mask that keeps edge `e`
        // iff bit `e` of `b` is set. World b then connects 0 -> 4 exactly
        // when its low 4 bits are all ones.
        let g = chain(5);
        let mut ws = WordBfsWorkspace::new(5);
        let got = word_reach(
            &g,
            NodeId(0),
            Some(NodeId(4)),
            None,
            !0,
            &mut ws,
            |e, cand| {
                let mut m = 0u64;
                for b in 0..64u64 {
                    if b & (1 << e.index()) != 0 {
                        m |= 1 << b;
                    }
                }
                m & cand
            },
        );
        let mut want = 0u64;
        for b in 0..64u64 {
            if b & 0b1111 == 0b1111 {
                want |= 1 << b;
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn word_reach_s_equals_t_and_all_edges() {
        let g = chain(4);
        let mut ws = WordBfsWorkspace::new(4);
        assert_eq!(
            word_reach(&g, NodeId(1), Some(NodeId(1)), None, !0, &mut ws, |_, _| 0),
            !0
        );
        assert_eq!(
            word_reach(&g, NodeId(0), Some(NodeId(3)), None, !0, &mut ws, |_, _| !0),
            !0
        );
        assert_eq!(
            word_reach(&g, NodeId(3), Some(NodeId(0)), None, !0, &mut ws, |_, _| !0),
            0
        );
    }

    #[test]
    fn word_reach_all_credits_every_node() {
        let g = chain(4);
        let mut ws = WordBfsWorkspace::new(4);
        // Kill edge 1 -> 2 in the low 32 worlds only.
        word_reach(&g, NodeId(0), None, None, !0, &mut ws, |e, cand| {
            if e.index() == 1 {
                (!0u64 << 32) & cand
            } else {
                cand
            }
        });
        let r = ws.reach();
        assert_eq!(r[0], !0);
        assert_eq!(r[1], !0);
        assert_eq!(r[2], !0u64 << 32);
        assert_eq!(r[3], !0u64 << 32);
        // The reached union is deduplicated and covers exactly the nodes
        // with nonzero reach words, source first.
        let touched = ws.reached_nodes();
        assert_eq!(touched[0], NodeId(0));
        assert_eq!(touched.len(), 4);
        let mut sorted: Vec<u32> = touched.iter().map(|v| v.0).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn word_reach_reuse_clears_only_touched_words() {
        // After a traversal that reached nodes 1..3, a second traversal
        // from a different source must not see stale reach words.
        let g = chain(4);
        let mut ws = WordBfsWorkspace::new(4);
        word_reach(&g, NodeId(0), None, None, !0, &mut ws, |_, cand| cand);
        assert_eq!(ws.reach()[3], !0);
        word_reach(&g, NodeId(2), None, None, !0, &mut ws, |_, cand| cand);
        assert_eq!(ws.reach()[0], 0);
        assert_eq!(ws.reach()[1], 0);
        assert_eq!(ws.reach()[2], !0);
        assert_eq!(ws.reach()[3], !0);
        assert_eq!(ws.reached_nodes().len(), 2);
    }

    #[test]
    fn sweep_matches_frontier_walk_on_deterministic_masks() {
        // Same per-edge world masks through both traversal strategies
        // must yield identical reach words, lane by lane (the closures
        // are pure, so probe order cannot matter).
        let mut b = GraphBuilder::new(5);
        b.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.5).unwrap();
        b.add_edge(NodeId(0), NodeId(3), 0.5).unwrap();
        b.add_edge(NodeId(3), NodeId(2), 0.5).unwrap();
        b.add_edge(NodeId(2), NodeId(4), 0.5).unwrap();
        let g = b.build();
        let mask = |e: crate::ids::EdgeId, j: usize| {
            0x5a5a_5a5a_0f0f_3c3cu64.rotate_left((e.index() + 11 * j) as u32)
        };
        let lanes = |e| [mask(e, 0), mask(e, 1)];
        let mut a = LaneBfsWorkspace::<2>::new(5);
        let mut bfs = WordBfsWorkspace::new(5);
        lane_reach(&g, NodeId(0), Some(NodeId(4)), [!0; 2], &mut a, lanes);
        let st_sweep = a.reach()[4];
        lane_reach(&g, NodeId(0), None, [!0; 2], &mut a, lanes);
        let mut union = std::collections::BTreeSet::new();
        for j in 0..2 {
            let st_front = word_reach(
                &g,
                NodeId(0),
                Some(NodeId(4)),
                None,
                !0,
                &mut bfs,
                |e, cand| mask(e, j) & cand,
            );
            assert_eq!(st_sweep[j], st_front);
            word_reach(&g, NodeId(0), None, None, !0, &mut bfs, |e, cand| {
                mask(e, j) & cand
            });
            let lane: Vec<u64> = a.reach().iter().map(|r| r[j]).collect();
            assert_eq!(lane, bfs.reach());
            union.extend(bfs.reached_nodes().iter().copied());
        }
        assert_eq!(a.reached_nodes().len(), union.len());
    }

    #[test]
    fn sweep_converges_against_edge_order() {
        // 3 -> 2 -> 1 -> 0: every edge goes from a higher to a lower id,
        // so each forward sweep advances exactly one hop and the fixed
        // point needs the full chain of sweeps.
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(3), NodeId(2), 0.5).unwrap();
        b.add_edge(NodeId(2), NodeId(1), 0.5).unwrap();
        b.add_edge(NodeId(1), NodeId(0), 0.5).unwrap();
        let g = b.build();
        let mut ws = LaneBfsWorkspace::<2>::new(4);
        lane_reach(&g, NodeId(3), Some(NodeId(0)), [!0; 2], &mut ws, |_| {
            [!0; 2]
        });
        assert_eq!(ws.reach()[0], [!0; 2]);
        lane_reach(&g, NodeId(3), None, [!0; 2], &mut ws, |_| [!0; 2]);
        assert_eq!(ws.reach(), &[[!0u64; 2]; 4]);
    }

    #[test]
    fn sweep_reuse_clears_only_touched_words() {
        let g = chain(4);
        let mut ws = LaneBfsWorkspace::<2>::new(4);
        lane_reach(&g, NodeId(0), None, [!0; 2], &mut ws, |_| [!0; 2]);
        assert_eq!(ws.reach()[3], [!0; 2]);
        lane_reach(&g, NodeId(2), None, [!0; 2], &mut ws, |_| [!0; 2]);
        assert_eq!(ws.reach()[0], [0; 2]);
        assert_eq!(ws.reach()[1], [0; 2]);
        assert_eq!(ws.reach()[2], [!0; 2]);
        assert_eq!(ws.reach()[3], [!0; 2]);
        assert_eq!(ws.reached_nodes().len(), 2);
    }

    #[test]
    fn sweep_reaches_only_live_worlds() {
        // A partial second lane and an unused third: the source, and
        // everything it reaches, holds exactly the live worlds. With
        // s == t the target is reached in every live world and no other.
        let g = chain(4);
        let live = [!0, 0x1_ffff, 0];
        let mut ws = LaneBfsWorkspace::<3>::new(4);
        lane_reach(&g, NodeId(0), None, live, &mut ws, |_| [!0; 3]);
        assert_eq!(ws.reach()[3], live);
        assert_eq!(ws.worlds_reaching(NodeId(3)), 64 + 17);
        lane_reach(&g, NodeId(1), Some(NodeId(1)), live, &mut ws, |_| [!0; 3]);
        assert_eq!(ws.reach()[1], live);
        assert_eq!(ws.reached_nodes(), &[NodeId(1)]);
    }

    #[test]
    fn word_reach_within_honours_per_world_depth() {
        let g = chain(5);
        let mut ws = WordBfsWorkspace::new(5);
        // All edges on in every world: 0 -> 4 takes exactly 4 hops.
        assert_eq!(
            word_reach(
                &g,
                NodeId(0),
                Some(NodeId(4)),
                Some(3),
                !0,
                &mut ws,
                |_, c| c
            ),
            0
        );
        assert_eq!(
            word_reach(
                &g,
                NodeId(0),
                Some(NodeId(4)),
                Some(4),
                !0,
                &mut ws,
                |_, c| c
            ),
            !0
        );
        assert_eq!(
            word_reach(
                &g,
                NodeId(2),
                Some(NodeId(2)),
                Some(0),
                !0,
                &mut ws,
                |_, c| c
            ),
            !0
        );
        // Workspace reuse after an early-exit traversal stays clean.
        assert_eq!(
            word_reach(
                &g,
                NodeId(0),
                Some(NodeId(1)),
                Some(1),
                !0,
                &mut ws,
                |_, c| c
            ),
            !0
        );
        assert_eq!(
            word_reach(
                &g,
                NodeId(0),
                Some(NodeId(4)),
                Some(2),
                !0,
                &mut ws,
                |_, c| c
            ),
            0
        );
    }

    #[test]
    fn word_reach_within_shortcut_vs_long_way() {
        // 0 -> 1 -> 3 plus a direct 0 -> 3 shortcut that exists in half
        // the worlds: depth 1 reaches 3 only where the shortcut is on.
        // CSR sorts edges by (src, dst): 0->1 is id 0, 0->3 is id 1,
        // 1->3 is id 2.
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        b.add_edge(NodeId(1), NodeId(3), 0.5).unwrap();
        b.add_edge(NodeId(0), NodeId(3), 0.5).unwrap();
        let g = b.build();
        let mut ws = WordBfsWorkspace::new(4);
        let shortcut = 0xAAAA_AAAA_AAAA_AAAAu64;
        let mask = |e: crate::ids::EdgeId, cand: u64| {
            if e.index() == 1 {
                shortcut & cand
            } else {
                cand
            }
        };
        assert_eq!(
            word_reach(&g, NodeId(0), Some(NodeId(3)), Some(1), !0, &mut ws, mask),
            shortcut
        );
        assert_eq!(
            word_reach(&g, NodeId(0), Some(NodeId(3)), Some(2), !0, &mut ws, mask),
            !0
        );
    }

    /// A random digraph of 2 to 9 nodes and up to 23 edges, self-loops
    /// dropped and duplicate edges merged.
    fn random_digraph() -> impl proptest::prelude::Strategy<Value = UncertainGraph> {
        use proptest::prelude::*;
        (2usize..10).prop_flat_map(|n| {
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..24).prop_map(move |pairs| {
                let mut b = GraphBuilder::new(n)
                    .duplicate_policy(crate::builder::DuplicatePolicy::CombineOr);
                for (u, v) in pairs {
                    if u != v {
                        b.add_edge(NodeId(u), NodeId(v), 0.5).unwrap();
                    }
                }
                b.build()
            })
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Each world bit of `word_reach` evolves on its own when the edge
        /// masks are a pure function of `(e, cand)`: sampling only the
        /// `live` worlds gives every node the all-worlds reach word ANDed
        /// with `live`, with a target, without one, and under a hop cap.
        #[test]
        fn word_reach_live_restricts_every_reach_word(
            g in random_digraph(),
            salt in 0u64..u64::MAX,
            live in 1u64..u64::MAX,
            pick in 0usize..100,
            hops in 0usize..5,
        ) {
            let n = g.num_nodes();
            let (s, t) = (NodeId(0), NodeId((pick % n) as u32));
            let mask = |e: crate::ids::EdgeId, cand: u64| {
                (salt ^ (e.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).rotate_left(e.0)
                    & cand
            };
            let mut all = WordBfsWorkspace::new(n);
            let mut part = WordBfsWorkspace::new(n);
            for (target, cap) in [(Some(t), None), (None, None), (Some(t), Some(hops))] {
                let want = word_reach(&g, s, target, cap, !0, &mut all, mask);
                let got = word_reach(&g, s, target, cap, live, &mut part, mask);
                proptest::prop_assert_eq!(got, want & live);
                for v in 0..n {
                    proptest::prop_assert_eq!(part.reach()[v], all.reach()[v] & live);
                }
                let reached = part.reached_nodes();
                proptest::prop_assert!(reached.iter().all(|v| part.reach()[v.index()] != 0));
                proptest::prop_assert_eq!(
                    reached.len(),
                    part.reach().iter().filter(|&&w| w != 0).count()
                );
                if target.is_some() {
                    let own = word_reach(&g, s, Some(s), cap, live, &mut part, mask);
                    proptest::prop_assert_eq!(own, live);
                }
            }
        }
    }
}
