//! Deterministic-graph traversal primitives shared by all estimators.
//!
//! Reliability estimators run *many* BFS passes per query (one per sampled
//! world). To keep the per-sample cost down, [`VisitSet`] uses an epoch
//! trick: resetting between samples is a single counter bump instead of an
//! `O(n)` clear.
//!
//! The packed kernels, [`word_reach`] (64 worlds per `u64` word) and
//! [`lane_reach`] (several such lanes per sweep), settle many sampled
//! worlds in one traversal. Without a target they walk forward from the
//! source to full reach, so every node's word is exact (BFS-Sharing,
//! top-k). With a target they search from both ends: forward from `s`
//! over out-edges and backward from `t` over in-edges
//! ([`EdgeView::in_edges`]), always expanding the side with fewer
//! adjacency entries to scan. A world stops as soon as the two searches
//! meet in it (a hit) or one of them runs out (a settled miss), so a world
//! that misses pays for the smaller of the two searches rather than for
//! all of `s`'s component. Under a hop cap a meet counts only while the
//! forward and backward levels add up to at most the cap. The backward
//! search keeps its words in the same workspace: [`WordBfsWorkspace`]
//! holds three words per node either way.

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
/// [`WORLD_WORD_BITS`] sampled worlds at once. A target-mode walk also
/// searches backward from the target, so each node carries a second word,
/// bit `b` set when the node reaches the target in world `b`, and one
/// next-level accumulator: three words per node in all
/// ([`bytes_for`](Self::bytes_for)).
///
/// Resetting between batches is O(union), not O(n): the workspace keeps a
/// deduplicated list of nodes whose reach word went nonzero (one per
/// search side), and the next traversal clears exactly those words. On
/// graphs where a 64-world batch touches a few hundred nodes out of
/// hundreds of thousands, the old full-array clear dominated the whole
/// batch.
#[derive(Clone, Debug)]
pub struct WordBfsWorkspace {
    reach: Vec<u64>,
    /// Nodes with a nonzero reach word, deduplicated, discovery order
    /// (source first). Every nonzero `reach` write pushes here exactly
    /// once, so `reach[v] != 0` iff `v` is listed.
    touched: Vec<NodeId>,
    /// Backward reach words of a target-mode walk, with their touched
    /// list: bit `b` of `back[v]` is set when `v` reaches the target in
    /// world `b`.
    back: Vec<u64>,
    back_touched: Vec<NodeId>,
    // Level-synchronous frontiers: each entry holds the bits that arrived
    // at its node on the side's last level, and a node re-enters a later
    // frontier only if new worlds reach it there. This bounds the edge
    // rescans per node by the spread of its per-world BFS depths
    // (typically 1-3 levels), where an arrival-ordered worklist rescans
    // once per *bit* arrival — up to 64x on heavily-overlapping worlds.
    // Only one side expands per level, so both share one accumulator:
    // `next` lists the nodes whose `next_word` went nonzero, in arrival
    // order. Invariant between levels: `next_word` is all-zero.
    frontier: Vec<(NodeId, u64)>,
    back_frontier: Vec<(NodeId, u64)>,
    next: Vec<NodeId>,
    next_word: Vec<u64>,
}

impl WordBfsWorkspace {
    /// Workspace for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        WordBfsWorkspace {
            reach: vec![0; n],
            touched: Vec::new(),
            back: vec![0; n],
            back_touched: Vec::new(),
            frontier: Vec::new(),
            back_frontier: Vec::new(),
            next: Vec::new(),
            next_word: vec![0; n],
        }
    }

    /// Per-node forward reach words of the most recent traversal: bit `b`
    /// of `reach()[v]` is set when node `v` was reached in world `b`.
    /// Unreached nodes hold zero.
    pub fn reach(&self) -> &[u64] {
        &self.reach
    }

    /// Approximate resident bytes (for memory accounting).
    pub fn resident_bytes(&self) -> usize {
        let node = std::mem::size_of::<NodeId>();
        let entry = std::mem::size_of::<(NodeId, u64)>();
        Self::bytes_for(self.reach.len())
            + (self.touched.capacity() + self.back_touched.capacity() + self.next.capacity()) * node
            + (self.frontier.capacity() + self.back_frontier.capacity()) * entry
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

/// The edges a packed walk ([`word_reach`]) follows: a whole graph, or a
/// view of one with edges hidden and extra ones given ids past `m`. Edge
/// ids key the caller's per-edge state, so a view's ids must be dense.
pub trait EdgeView {
    /// Out-edges of `v` as `(edge, head)`.
    fn out_edges(&self, v: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)>;

    /// In-edges of `v` as `(edge, tail)`: the view's out-edges with head
    /// `v`, each under the same id.
    fn in_edges(&self, v: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)>;

    /// Adjacency entries [`out_edges`](Self::out_edges) scans for `v`,
    /// hidden edges included: the cost a search pays to expand `v`.
    fn out_degree(&self, v: NodeId) -> usize;

    /// Adjacency entries [`in_edges`](Self::in_edges) scans for `v`.
    fn in_degree(&self, v: NodeId) -> usize;

    /// Existence probability of edge `e`.
    fn edge_prob(&self, e: EdgeId) -> f64;
}

impl EdgeView for UncertainGraph {
    #[inline]
    fn out_edges(&self, v: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> {
        UncertainGraph::out_edges(self, v)
    }

    #[inline]
    fn in_edges(&self, v: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> {
        UncertainGraph::in_edges(self, v)
    }

    #[inline]
    fn out_degree(&self, v: NodeId) -> usize {
        UncertainGraph::out_degree(self, v)
    }

    #[inline]
    fn in_degree(&self, v: NodeId) -> usize {
        UncertainGraph::in_degree(self, v)
    }

    #[inline]
    fn edge_prob(&self, e: EdgeId) -> f64 {
        self.prob(e).value()
    }
}

/// One search side's state in a packed walk: its reach words and touched
/// list, and the frontier it expands next.
struct Side<'w> {
    reach: &'w mut [u64],
    touched: &'w mut Vec<NodeId>,
    frontier: &'w mut Vec<(NodeId, u64)>,
}

/// Expand one level of `side` over `adjacency` (out-edges forward,
/// in-edges backward), carrying each frontier entry's `active` worlds
/// across the edges `edge_mask` keeps. With `other` (the opposite side's
/// reach words) a world whose new bit lands on a node the other side holds
/// is a hit: it joins the returned hit word and leaves `active` at once.
/// The side's next frontier keeps only still-active bits. Returns the hit
/// word and the worlds the level added bits for.
#[inline(always)]
fn expand_level<I, F>(
    side: &mut Side<'_>,
    other: Option<&[u64]>,
    next: &mut Vec<NodeId>,
    next_word: &mut [u64],
    active: &mut u64,
    adjacency: impl Fn(NodeId) -> I,
    edge_mask: &mut F,
) -> (u64, u64)
where
    I: Iterator<Item = (EdgeId, NodeId)>,
    F: FnMut(EdgeId, u64) -> u64,
{
    let mut hit = 0u64;
    for &(v, word) in side.frontier.iter() {
        let mut fw = word & *active;
        if fw == 0 {
            continue;
        }
        for (e, w) in adjacency(v) {
            let old = side.reach[w.index()];
            let cand = fw & !old;
            if cand == 0 {
                continue;
            }
            let add = edge_mask(e, cand) & cand;
            if add != 0 {
                if old == 0 {
                    side.touched.push(w);
                }
                side.reach[w.index()] = old | add;
                if next_word[w.index()] == 0 {
                    next.push(w);
                }
                next_word[w.index()] |= add;
                if let Some(other) = other {
                    let met = add & other[w.index()];
                    if met != 0 {
                        hit |= met;
                        *active &= !met;
                        fw &= !met;
                    }
                }
            }
        }
    }
    side.frontier.clear();
    let mut added = 0u64;
    for &w in next.iter() {
        let word = std::mem::take(&mut next_word[w.index()]) & *active;
        if word != 0 {
            side.frontier.push((w, word));
            added |= word;
        }
    }
    next.clear();
    (hit, added)
}

/// Adjacency entries a search pays to expand `frontier`.
fn frontier_cost(frontier: &[(NodeId, u64)], degree: impl Fn(NodeId) -> usize) -> usize {
    frontier.iter().map(|&(v, _)| degree(v)).sum()
}

/// Bit-packed reachability from `s` over up to 64 sampled worlds at once,
/// level-synchronous: each frontier node is expanded once per level with
/// every world bit that arrived there on the previous level, so a node's
/// edges are rescanned at most once per distinct per-world BFS depth —
/// not once per arriving bit, which degenerates to 64 rescans per node on
/// supercritical graphs where the worlds share a giant component.
///
/// `live` holds the worlds the traversal samples (`!0` for a whole word,
/// the low bits for a partial one); the source starts reached in exactly
/// those worlds, so no other bit is ever set. `live = 0` reaches nothing.
///
/// `edge_mask(e, cand)` receives the *candidate* world-set — worlds that
/// would newly cross the edge if it exists — and returns the subset in
/// which the edge survives (any bits outside `cand` are ignored). Passing
/// the candidate set in lets mask generators draw only the worlds the
/// traversal can actually use, instead of all 64 bits of every probed
/// edge. Probes happen lazily and their order depends on the traversal —
/// callers that need a stable RNG stream must treat the whole pass as one
/// draw.
///
/// With `t = None` the walk runs forward from `s` to full reach and every
/// node's word is exact. With `t = Some(target)` it searches from both
/// ends: forward from `s` over out-edges and backward from `t` over
/// in-edges ([`EdgeView::in_edges`]), each level expanding the side whose
/// frontier has fewer adjacency entries. A world is a hit when a new bit
/// lands on a node the other side already holds in that world, and a
/// settled miss when the side just expanded added nothing for it; either
/// way it stops propagating. Both sides probe edges through the same
/// `edge_mask`, so a mask that remembers its draws decides each (world,
/// edge) pair once. The target's word is then exact and other nodes'
/// forward words may be partial.
///
/// `max_hops = Some(d)` expands at most `d` levels in all — forward
/// levels plus backward ones under a target. Each side reaches a node at
/// its per-world BFS distance, so a meet within `d` levels is a path of at
/// most `d` hops and the cap is exact per world.
///
/// Returns the reach word of `t` (of `s`, i.e. `live`, without a target);
/// with `s == t` that is `live`. Forward words land in
/// [`WordBfsWorkspace::reach`] and [`ReachView::reached_nodes`].
pub fn word_reach<V: EdgeView, F>(
    view: &V,
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
    let WordBfsWorkspace {
        reach,
        touched,
        back,
        back_touched,
        frontier,
        back_frontier,
        next,
        next_word,
    } = ws;
    for (words, list) in [
        (&mut *reach, &mut *touched),
        (&mut *back, &mut *back_touched),
    ] {
        for &v in list.iter() {
            words[v.index()] = 0;
        }
        list.clear();
    }
    frontier.clear();
    back_frontier.clear();
    if live == 0 {
        return 0;
    }
    reach[s.index()] = live;
    touched.push(s);
    frontier.push((s, live));
    let mut fwd = Side {
        reach,
        touched,
        frontier,
    };
    let within = |hops: usize| max_hops.map_or(true, |d| hops < d);
    let Some(t) = t.filter(|&t| t != s) else {
        // Forward only: to full reach, or the target is the source.
        let mut active = if t.is_some() { 0 } else { live };
        let mut hops = 0usize;
        while active != 0 && within(hops) {
            hops += 1;
            let (_, added) = expand_level(
                &mut fwd,
                None,
                next,
                next_word,
                &mut active,
                |v| view.out_edges(v),
                &mut edge_mask,
            );
            if added == 0 {
                break;
            }
        }
        return live;
    };
    back[t.index()] = live;
    back_touched.push(t);
    back_frontier.push((t, live));
    let mut bwd = Side {
        reach: back,
        touched: back_touched,
        frontier: back_frontier,
    };
    let (mut hit, mut active, mut hops) = (0u64, live, 0usize);
    let (mut fwd_cost, mut bwd_cost) = (view.out_degree(s), view.in_degree(t));
    while active != 0 && within(hops) {
        hops += 1;
        let (met, added) = if fwd_cost <= bwd_cost {
            let level = expand_level(
                &mut fwd,
                Some(&*bwd.reach),
                next,
                next_word,
                &mut active,
                |v| view.out_edges(v),
                &mut edge_mask,
            );
            fwd_cost = frontier_cost(fwd.frontier, |v| view.out_degree(v));
            level
        } else {
            let level = expand_level(
                &mut bwd,
                Some(&*fwd.reach),
                next,
                next_word,
                &mut active,
                |v| view.in_edges(v),
                &mut edge_mask,
            );
            bwd_cost = frontier_cost(bwd.frontier, |v| view.in_degree(v));
            level
        };
        hit |= met;
        active &= added;
    }
    let old = fwd.reach[t.index()];
    if old == 0 && hit != 0 {
        fwd.touched.push(t);
    }
    fwd.reach[t.index()] = old | hit;
    hit
}

/// Reusable workspace for multi-lane packed sweeps: each node carries `L`
/// reach words (*lanes*) of [`WORLD_WORD_BITS`] worlds each, so one
/// traversal settles up to `L × 64` sampled worlds. Bit `b` of lane `j`
/// belongs to world `64 j + b`. A target-mode sweep also searches
/// backward, with its own reach lanes and dirty bitset.
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
    /// The backward search's reach lanes, touched list and dirty bitset
    /// (target mode only): bit `b` of lane `j` of `back[v]` is set when
    /// `v` reaches the target in world `64 j + b`.
    back: Vec<[u64; L]>,
    back_touched: Vec<NodeId>,
    back_dirty: Vec<u64>,
}

impl<const L: usize> LaneBfsWorkspace<L> {
    /// Workspace for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        LaneBfsWorkspace {
            reach: vec![[0; L]; n],
            touched: Vec::new(),
            dirty: vec![0; n.div_ceil(64)],
            back: vec![[0; L]; n],
            back_touched: Vec::new(),
            back_dirty: vec![0; n.div_ceil(64)],
        }
    }

    /// Per-node forward reach lanes of the most recent traversal: bit `b`
    /// of `reach()[v][j]` is set when node `v` was reached in world
    /// `64 j + b`. Unreached nodes hold zero.
    pub fn reach(&self) -> &[[u64; L]] {
        &self.reach
    }

    /// Approximate resident bytes (for memory accounting).
    pub fn resident_bytes(&self) -> usize {
        Self::bytes_for(self.reach.len())
            + (self.touched.capacity() + self.back_touched.capacity())
                * std::mem::size_of::<NodeId>()
    }

    /// Resident bytes a fresh workspace for `n` nodes would hold, without
    /// allocating one.
    pub fn bytes_for(n: usize) -> usize {
        2 * (n * L * std::mem::size_of::<u64>() + n.div_ceil(64) * 8)
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

/// One search side's state in a lane sweep: its reach lanes, touched list
/// and dirty bitset, and the adjacency entries of its dirty nodes.
struct LaneSide<'w, const L: usize> {
    reach: &'w mut [[u64; L]],
    touched: &'w mut Vec<NodeId>,
    dirty: &'w mut [u64],
    cost: usize,
}

/// One sweep of `side` over its dirty nodes in id order: OR each dirty
/// node's `active` lanes, masked by `edge_mask`, into its neighbors over
/// `adjacency`, marking grown neighbors dirty. With `other` (the opposite
/// side's reach lanes) a world whose new bit lands on a node the other
/// side holds is a hit: it joins `hit` and leaves `active` at once.
/// Returns the worlds the sweep added bits for.
#[inline(always)]
fn sweep_lanes<const L: usize, I, F>(
    side: &mut LaneSide<'_, L>,
    other: Option<&[[u64; L]]>,
    active: &mut [u64; L],
    hit: &mut [u64; L],
    adjacency: impl Fn(NodeId) -> I,
    degree: impl Fn(NodeId) -> usize,
    edge_mask: &mut F,
) -> [u64; L]
where
    I: Iterator<Item = (EdgeId, NodeId)>,
    F: FnMut(EdgeId) -> [u64; L],
{
    let mut added = [0u64; L];
    for wi in 0..side.dirty.len() {
        let mut bits = side.dirty[wi];
        if bits == 0 {
            continue;
        }
        side.dirty[wi] = 0;
        while bits != 0 {
            let vi = wi * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let v = NodeId(vi as u32);
            side.cost -= degree(v);
            let mut rv: [u64; L] = std::array::from_fn(|j| side.reach[vi][j] & active[j]);
            if !lanes_nonzero(&rv) {
                continue;
            }
            for (e, w) in adjacency(v) {
                let old = side.reach[w.index()];
                let cand: [u64; L] = std::array::from_fn(|j| rv[j] & !old[j]);
                if !lanes_nonzero(&cand) {
                    continue;
                }
                let mask = edge_mask(e);
                let add: [u64; L] = std::array::from_fn(|j| cand[j] & mask[j]);
                if lanes_nonzero(&add) {
                    if !lanes_nonzero(&old) {
                        side.touched.push(w);
                    }
                    side.reach[w.index()] = std::array::from_fn(|j| old[j] | add[j]);
                    let (slot, bit) = (w.index() / 64, 1u64 << (w.index() % 64));
                    if side.dirty[slot] & bit == 0 {
                        side.dirty[slot] |= bit;
                        side.cost += degree(w);
                    }
                    for j in 0..L {
                        added[j] |= add[j];
                    }
                    if let Some(other) = other {
                        let met: [u64; L] = std::array::from_fn(|j| add[j] & other[w.index()][j]);
                        if lanes_nonzero(&met) {
                            for j in 0..L {
                                hit[j] |= met[j];
                                active[j] &= !met[j];
                                rv[j] &= !met[j];
                            }
                        }
                    }
                }
            }
        }
    }
    added
}

/// Multi-lane packed reachability from `s` by fixed-point sweeps over a
/// dirty-node bitset — the dense-batch traversal for supercritical graphs,
/// where every sampled world holds a giant component and the reached
/// union approaches the whole graph.
///
/// `live[j]` holds the worlds lane `j` samples (`0` for an unused lane,
/// the low bits for a partial one); the source starts reached in exactly
/// those worlds. A node is *dirty* while its lanes have grown since its
/// edges were last scanned. Each sweep walks the dirty bitset in id order
/// and ORs `reach[v] & mask(e)` into each neighbor, marking changed
/// neighbors dirty; the walk ends when a sweep leaves nothing dirty. A
/// visit pays its adjacency walk, index math, dirty bit and branch once
/// for all `L` lanes.
///
/// `edge_mask(e)` returns the edge's `L` lane existence masks. It is
/// called only for edges that could still carry a new world across, so
/// masks must be a pure function of the edge within one pass: the
/// traversal order then decides nothing but which masks get asked for,
/// and every world's reachability of the target is the same in either
/// mode.
///
/// With `t = None` every node's lanes are exact. With `t = Some(target)`
/// the sweeps search from both ends, as [`word_reach`] does: forward from
/// `s` over out-edges and backward from `t` over in-edges, each sweep
/// taking the side whose dirty nodes have fewer adjacency entries. A
/// world is a hit when a new bit lands on a node the other side holds, and
/// a settled miss when a sweep of either side adds nothing for it. The
/// target's lanes are then exact and other nodes' lanes may be partial.
/// Returns the target's reach lanes (`live` without a target or with
/// `s == t`); forward lanes land in [`LaneBfsWorkspace::reach`] and
/// [`ReachView::reached_nodes`].
pub fn lane_reach<const L: usize, F>(
    graph: &UncertainGraph,
    s: NodeId,
    t: Option<NodeId>,
    live: [u64; L],
    ws: &mut LaneBfsWorkspace<L>,
    mut edge_mask: F,
) -> [u64; L]
where
    F: FnMut(EdgeId) -> [u64; L],
{
    let LaneBfsWorkspace {
        reach,
        touched,
        dirty,
        back,
        back_touched,
        back_dirty,
    } = ws;
    for (lanes, list) in [
        (&mut *reach, &mut *touched),
        (&mut *back, &mut *back_touched),
    ] {
        for &v in list.iter() {
            lanes[v.index()] = [0; L];
        }
        list.clear();
    }
    if !lanes_nonzero(&live) {
        return live;
    }
    reach[s.index()] = live;
    touched.push(s);
    let mark = |bits: &mut [u64], v: NodeId| bits[v.index() / 64] = 1 << (v.index() % 64);
    mark(dirty, s);
    let mut fwd = LaneSide {
        reach,
        touched,
        dirty,
        cost: graph.out_degree(s),
    };
    let mut active = live;
    let mut hit = [0u64; L];
    match t {
        None => {
            let forward = |v| graph.out_edges(v);
            while lanes_nonzero(&sweep_lanes(
                &mut fwd,
                None,
                &mut active,
                &mut hit,
                forward,
                |_| 0,
                &mut edge_mask,
            )) {}
            hit = live;
        }
        Some(t) if t == s => hit = live,
        Some(t) => {
            back[t.index()] = live;
            back_touched.push(t);
            mark(back_dirty, t);
            let mut bwd = LaneSide {
                reach: back,
                touched: back_touched,
                dirty: back_dirty,
                cost: graph.in_degree(t),
            };
            while lanes_nonzero(&active) {
                let added = if fwd.cost <= bwd.cost {
                    let forward = |v| graph.out_edges(v);
                    let degree = |v| graph.out_degree(v);
                    let other = Some(&*bwd.reach);
                    sweep_lanes(
                        &mut fwd,
                        other,
                        &mut active,
                        &mut hit,
                        forward,
                        degree,
                        &mut edge_mask,
                    )
                } else {
                    let backward = |v| graph.in_edges(v);
                    let degree = |v| graph.in_degree(v);
                    let other = Some(&*fwd.reach);
                    sweep_lanes(
                        &mut bwd,
                        other,
                        &mut active,
                        &mut hit,
                        backward,
                        degree,
                        &mut edge_mask,
                    )
                };
                for j in 0..L {
                    active[j] &= added[j];
                }
            }
            // An early close can leave dirty bits behind; restore the
            // all-zero invariant (the bitset is n/8 bytes — a trivial
            // memset).
            bwd.dirty.fill(0);
            let old = fwd.reach[t.index()];
            if !lanes_nonzero(&old) && lanes_nonzero(&hit) {
                fwd.touched.push(t);
            }
            fwd.reach[t.index()] = std::array::from_fn(|j| old[j] | hit[j]);
        }
    }
    fwd.dirty.fill(0);
    hit
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
    fn word_workspace_holds_three_words_per_node() {
        // Forward reach, backward reach and one next-level accumulator:
        // the two-ended walk costs no per-node memory beyond them.
        for n in [0usize, 1, 7, 6_899] {
            assert_eq!(WordBfsWorkspace::bytes_for(n), 24 * n);
            assert_eq!(WordBfsWorkspace::new(n).resident_bytes(), 24 * n);
        }
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

    /// World `b`'s copy of edge `e` exists iff bit `b` of this word is
    /// set: a pure hash of `(salt, e)`, thinned to a quarter, a half or
    /// three quarters of the worlds by `density` 0, 1 or 2.
    fn world_mask(salt: u64, density: u8, e: EdgeId) -> u64 {
        let hash = |k: u64| {
            let mut z = (salt ^ (e.index() as u64) << 1 ^ k).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 32)
        };
        match density {
            0 => hash(0) & hash(1),
            1 => hash(0),
            _ => hash(0) | hash(1),
        }
    }

    /// Reference: `t`'s hop distance from `s` in world `b`, by a scalar BFS
    /// over the edges whose mask holds bit `b`.
    fn world_distance(
        g: &UncertainGraph,
        s: NodeId,
        t: NodeId,
        b: usize,
        mask: impl Fn(EdgeId) -> u64,
    ) -> Option<usize> {
        let mut dist = vec![usize::MAX; g.num_nodes()];
        dist[s.index()] = 0;
        let mut queue = VecDeque::from([s]);
        while let Some(v) = queue.pop_front() {
            for (e, w) in g.out_edges(v) {
                if mask(e) >> b & 1 == 1 && dist[w.index()] == usize::MAX {
                    dist[w.index()] = dist[v.index()] + 1;
                    queue.push_back(w);
                }
            }
        }
        (dist[t.index()] != usize::MAX).then_some(dist[t.index()])
    }

    /// `g` with one more node, which no edge touches.
    fn with_isolated_node(g: &UncertainGraph) -> UncertainGraph {
        let mut b = GraphBuilder::new(g.num_nodes() + 1);
        for (_, u, v, p) in g.edges() {
            b.add_edge(u, v, p.value()).unwrap();
        }
        b.build()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Each world bit of `word_reach` is decided on its own when the
        /// edge masks are a pure function of `(e, cand)`: sampling only
        /// the `live` worlds gives the all-worlds answer ANDed with `live`
        /// for the target's word, with a target, without one, and under a
        /// hop cap. Without a target every node's word is exact, so each
        /// one restricts the same way; with one, which side a level
        /// expands depends on every live world, so only the target's word
        /// is compared.
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
                proptest::prop_assert_eq!(got, want & live, "{:?} {:?}", target, cap);
                let t_word = part.reach()[t.index()];
                proptest::prop_assert_eq!(t_word, all.reach()[t.index()] & live);
                for v in (0..n).filter(|_| target.is_none()) {
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

        /// The two-ended target walk answers each world as a scalar BFS
        /// over that world's edges does: bit `b` of the returned word is
        /// set iff `t` is reachable from `s` in world `b`, within `d` hops
        /// under a cap of `d`, for partial live words too. The target's
        /// reach word is that answer, `s == t` answers `live`, and a
        /// target no edge reaches answers 0.
        #[test]
        fn word_reach_target_matches_per_world_bfs(
            g in random_digraph(),
            salt in 0u64..u64::MAX,
            density in 0u8..3,
            live in 1u64..u64::MAX,
            partial in 0u8..2,
            pick in 0usize..100,
            hops in 0usize..6,
        ) {
            let g = with_isolated_node(&g);
            let n = g.num_nodes();
            let (s, t) = (NodeId(0), NodeId((pick % (n - 1)) as u32));
            let live = if partial == 1 { live } else { !0 };
            let mask = |e| world_mask(salt, density, e);
            let mut ws = WordBfsWorkspace::new(n);
            for cap in [None, Some(hops)] {
                let got = word_reach(&g, s, Some(t), cap, live, &mut ws, |e, c| mask(e) & c);
                let mut want = 0u64;
                for b in (0..64).filter(|b| live >> b & 1 == 1) {
                    let d = world_distance(&g, s, t, b, mask);
                    if d.is_some_and(|d| cap.map_or(true, |c| d <= c)) {
                        want |= 1 << b;
                    }
                }
                proptest::prop_assert_eq!(got, want, "t {:?} cap {:?}", t, cap);
                proptest::prop_assert_eq!(ws.reach()[t.index()], want);
                let own = word_reach(&g, t, Some(t), cap, live, &mut ws, |e, c| mask(e) & c);
                proptest::prop_assert_eq!(own, live);
                let lone = NodeId(n as u32 - 1);
                let none = word_reach(&g, s, Some(lone), cap, live, &mut ws, |e, c| mask(e) & c);
                proptest::prop_assert_eq!(none, 0);
            }
        }

        /// Per lane, the two-ended target sweep answers what a full-reach
        /// sweep leaves at the target, for partial and unused lanes too,
        /// and each lane answers as a one-word target walk does.
        #[test]
        fn lane_reach_target_matches_full_reach(
            g in random_digraph(),
            salt in 0u64..u64::MAX,
            density in 0u8..3,
            tail in 1u64..u64::MAX,
            pick in 0usize..100,
        ) {
            let g = with_isolated_node(&g);
            let n = g.num_nodes();
            let s = NodeId(0);
            let live = [!0, tail, 0];
            let lanes = |e: EdgeId| {
                [0u64, 1, 2].map(|j| world_mask(salt ^ j.wrapping_mul(0x5151), density, e))
            };
            let mut ws = LaneBfsWorkspace::<3>::new(n);
            let mut word = WordBfsWorkspace::new(n);
            for t in [NodeId((pick % n) as u32), s, NodeId(n as u32 - 1)] {
                let got = lane_reach(&g, s, Some(t), live, &mut ws, lanes);
                proptest::prop_assert_eq!(ws.reach()[t.index()], got);
                let full = lane_reach(&g, s, None, live, &mut ws, lanes);
                proptest::prop_assert_eq!(full, live);
                proptest::prop_assert_eq!(got, ws.reach()[t.index()], "t {:?}", t);
                for j in 0..3 {
                    let one = word_reach(&g, s, Some(t), None, live[j], &mut word, |e, c| {
                        lanes(e)[j] & c
                    });
                    proptest::prop_assert_eq!(one, got[j], "lane {} t {:?}", j, t);
                }
            }
        }
    }
}
