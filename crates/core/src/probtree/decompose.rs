//! FWD (fixed-width, w = 2) tree decomposition, the in-place query view
//! and query-graph extraction.
//!
//! See the parent module docs for the algorithm overview. All edges stay
//! *directed* throughout: the decomposition works on the undirected
//! skeleton (which pairs of nodes are adjacent), but bags store directed
//! probabilistic edges and pre-compute directed boundary-pair
//! reliabilities.
//!
//! ## The query view
//!
//! For a query `(s, t)` the *expanded* bags are the root paths of the bags
//! covering `s` and `t` ([`Expansion`]). The query graph `G(q)` of
//! Algorithm 8 is then exactly this edge set:
//!
//! - a raw edge is visible iff it lives in the root or in an expanded bag;
//! - a bag's virtual up-edges are visible iff the bag is not expanded and
//!   its parent is the root or expanded.
//!
//! The packed kernel walks `G(q)` on the index through [`QueryView`],
//! which applies this rule; [`ProbTreeIndex::extract_query_graph`]
//! materialises the same edges for the coupled estimators.

use relcomp_ugraph::traversal::EdgeView;
use relcomp_ugraph::{
    DuplicatePolicy, EdgeId, EdgeUpdate, GraphBuilder, NodeId, Probability, UncertainGraph,
};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::sync::Arc;

/// A directed probabilistic edge inside the index (bag or root content).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DirEdge {
    /// Source node (original graph id).
    pub from: NodeId,
    /// Target node (original graph id).
    pub to: NodeId,
    /// Existence probability.
    pub prob: f64,
}

/// One element of a bag's (or the root's) content.
///
/// Raw entries store the original **edge id**, not a probability copy:
/// endpoints and probability are read through the index's graph `Arc` at
/// use time, so an epoch swap ([`ProbTreeIndex::apply_updates`])
/// automatically refreshes every raw edge and only the pre-computed
/// virtual edges need repair.
#[derive(Clone, Copy, Debug)]
enum Entry {
    /// An original edge of the input graph.
    Raw(EdgeId),
    /// A collapsed child bag, standing for its pre-computed boundary-pair
    /// virtual edges.
    Child(usize),
}

/// Sentinel in the edge→bag map for edges living in the root.
const IN_ROOT: u32 = u32::MAX;

/// A decomposition bag: a covered node, its boundary (1 or 2 nodes), the
/// absorbed content, and where its upward virtual edges are stored.
struct Bag {
    covered: NodeId,
    boundary: Vec<NodeId>,
    entries: Vec<Entry>,
    /// Slots in [`ProbTreeIndex::virtual_out`] of the virtual edges
    /// `boundary[0] -> boundary[1]` and back (two-boundary bags only;
    /// pendant bags carry no transit connectivity).
    up_slots: [u32; 2],
    /// Parent bag, or `None` if the bag hangs off the root.
    parent: Option<usize>,
}

/// A bag's pre-computed virtual edge, stored under its source node so the
/// in-place BFS reads a node's virtual edges as one contiguous run.
#[derive(Clone, Copy, Debug)]
struct VirtualEdge {
    /// The two-boundary bag it summarises.
    bag: u32,
    /// That bag's parent ([`IN_ROOT`] if it hangs off the root).
    parent: u32,
    to: NodeId,
    /// Slot of the bag's edge the other way, `to -> from`: the virtual
    /// edges entering a node are the partners of those leaving it.
    partner: u32,
    /// Aggregated bottom-up; 0 when the bag holds no path this way (such an
    /// edge is neither traversed nor extracted).
    prob: f64,
}

// The partner slot fills what was padding: a virtual edge stays 24 bytes.
const _: () = assert!(std::mem::size_of::<VirtualEdge>() == 24);

/// Summary statistics of a built index (Fig. 13 reporting).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DecompositionStats {
    /// Number of bags created.
    pub num_bags: usize,
    /// Nodes left uncovered (living in the root).
    pub root_nodes: usize,
    /// Entries (raw + collapsed children) in the root.
    pub root_entries: usize,
    /// Maximum bag-to-root chain length.
    pub height: usize,
}

/// The built FWD ProbTree index.
pub struct ProbTreeIndex {
    graph: Arc<UncertainGraph>,
    bags: Vec<Bag>,
    /// For each node: the bag covering it, if any.
    covered_in: Vec<Option<u32>>,
    root_entries: Vec<Entry>,
    /// For each edge: the bag whose content holds it ([`IN_ROOT`] if it
    /// lives in the root). Drives incremental maintenance: an updated
    /// edge dirties exactly this bag.
    edge_bag: Vec<u32>,
    /// CSR over nodes: `virtual_out[virtual_start[v]..virtual_start[v +
    /// 1]]` are the virtual edges leaving `v`, one per two-boundary bag `v`
    /// bounds, in bag order. The layout is fixed by the topology; only the
    /// probabilities change under [`apply_updates`](Self::apply_updates).
    virtual_start: Vec<u32>,
    virtual_out: Vec<VirtualEdge>,
}

/// The bags Algorithm 8 expands for one query: the root paths of the bags
/// covering `s` and `t`. The set is closed under `parent` and holds at
/// most `2 · height` bags. Filled by [`ProbTreeIndex::expand`]; reusable
/// across queries (refilling clears only the previous query's marks).
#[derive(Clone, Debug, Default)]
pub(crate) struct Expansion {
    /// Per bag: expanded for the current query.
    marked: Vec<bool>,
    /// The marked bags, for clearing in `O(height)`.
    bags: Vec<usize>,
}

impl Expansion {
    /// An empty expansion (sized on first [`ProbTreeIndex::expand`]).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Whether bag `bag` is expanded.
    #[inline]
    fn contains(&self, bag: usize) -> bool {
        self.marked[bag]
    }

    /// The visibility rule for raw edges held by `bag` ([`IN_ROOT`] for
    /// the root): visible iff the root holds them or `bag` is expanded.
    #[inline]
    fn shows_raw(&self, bag: u32) -> bool {
        bag == IN_ROOT || self.marked[bag as usize]
    }

    /// The visibility rule for the virtual edges of `bag`, whose parent is
    /// `parent`: visible iff `bag` is collapsed and hangs off the root or
    /// an expanded bag.
    #[inline]
    fn shows_virtual(&self, bag: u32, parent: u32) -> bool {
        !self.marked[bag as usize] && self.shows_raw(parent)
    }
}

/// Result of query-graph extraction: a relabeled small uncertain graph and
/// the query endpoints within it.
pub struct QueryExtraction {
    /// The equivalent (for this query) smaller graph `G(q)`.
    pub graph: UncertainGraph,
    /// `s` relabeled into `graph`.
    pub s: NodeId,
    /// `t` relabeled into `graph`.
    pub t: NodeId,
}

impl ProbTreeIndex {
    /// Build the index over `graph` with width 2 (Algorithm 7).
    pub fn build(graph: Arc<UncertainGraph>) -> Self {
        const W: usize = 2;
        let n = graph.num_nodes();

        // Undirected skeleton + pair store of directed content.
        let mut adj: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); n];
        let mut store: HashMap<(u32, u32), Vec<Entry>> = HashMap::new();
        for (e, u, v, _) in graph.edges() {
            adj[u.index()].insert(v);
            adj[v.index()].insert(u);
            store.entry(pair_key(u, v)).or_default().push(Entry::Raw(e));
        }

        let mut bags: Vec<Bag> = Vec::new();
        let mut covered_in: Vec<Option<u32>> = vec![None; n];
        let mut removed = vec![false; n];
        // Pendant (single-boundary) bags hang off their boundary *node*:
        // they carry no transit connectivity (no up_edges), but must be
        // absorbed by whichever bag later covers that node — or by the
        // root — so that queries inside them can expand outward.
        let mut node_children: Vec<Vec<usize>> = vec![Vec::new(); n];

        // Min-degree-first candidate heap with lazy revalidation, matching
        // the paper's "for d = 1 to w" preference for low-degree nodes.
        let mut heap: BinaryHeap<Reverse<(usize, u32)>> = BinaryHeap::new();
        for (v, nbrs) in adj.iter().enumerate().take(n) {
            let d = nbrs.len();
            if (1..=W).contains(&d) {
                heap.push(Reverse((d, v as u32)));
            }
        }

        while let Some(Reverse((d, v))) = heap.pop() {
            let vi = v as usize;
            if removed[vi] {
                continue;
            }
            let cur = adj[vi].len();
            if cur == 0 || cur > W {
                continue;
            }
            if cur != d {
                heap.push(Reverse((cur, v)));
                continue;
            }
            let v_node = NodeId(v);
            let boundary: Vec<NodeId> = adj[vi].iter().copied().collect();
            let bag_id = bags.len();

            // Absorb every stored pair among {v} ∪ boundary.
            let mut entries = Vec::new();
            let mut bag_pairs: Vec<(NodeId, NodeId)> =
                boundary.iter().map(|&b| (v_node, b)).collect();
            if boundary.len() == 2 {
                bag_pairs.push((boundary[0], boundary[1]));
            }
            for &(a, b) in &bag_pairs {
                if let Some(content) = store.remove(&pair_key(a, b)) {
                    for entry in content {
                        if let Entry::Child(c) = entry {
                            bags[c].parent = Some(bag_id);
                        }
                        entries.push(entry);
                    }
                }
            }
            // Absorb pendant bags hanging off the covered node.
            for c in node_children[vi].drain(..) {
                bags[c].parent = Some(bag_id);
                entries.push(Entry::Child(c));
            }

            // Remove v from the skeleton.
            for &b in &boundary {
                adj[b.index()].remove(&v_node);
            }
            adj[vi].clear();
            removed[vi] = true;
            covered_in[vi] = Some(bag_id as u32);

            // Re-connect the boundary pair with a placeholder carrying this
            // bag's future virtual edges.
            match boundary.len() {
                2 => {
                    let (a, b) = (boundary[0], boundary[1]);
                    adj[a.index()].insert(b);
                    adj[b.index()].insert(a);
                    store
                        .entry(pair_key(a, b))
                        .or_default()
                        .push(Entry::Child(bag_id));
                }
                1 => {
                    node_children[boundary[0].index()].push(bag_id);
                }
                _ => unreachable!("width-2 bags have 1 or 2 boundary nodes"),
            }

            // Boundary degrees changed: re-seed candidates.
            for &b in &boundary {
                let db = adj[b.index()].len();
                if (1..=W).contains(&db) {
                    heap.push(Reverse((db, b.0)));
                }
            }

            bags.push(Bag {
                covered: v_node,
                boundary,
                entries,
                up_slots: [0; 2],
                parent: None,
            });
        }

        // Whatever remains lives in the root.
        let mut root_entries: Vec<Entry> = Vec::new();
        let mut remaining: Vec<((u32, u32), Vec<Entry>)> = store.into_iter().collect();
        remaining.sort_unstable_by_key(|&(k, _)| k);
        for (_, content) in remaining {
            root_entries.extend(content);
        }
        // Pendant bags whose anchor node was never covered hang off the
        // root directly.
        for children in &mut node_children {
            for c in children.drain(..) {
                root_entries.push(Entry::Child(c));
            }
        }

        // Edge -> containing bag, for dirtying on updates. Every raw edge
        // lands in exactly one bag's entries or in the root.
        let mut edge_bag = vec![IN_ROOT; graph.num_edges()];
        for (bag_id, bag) in bags.iter().enumerate() {
            for entry in &bag.entries {
                if let Entry::Raw(e) = *entry {
                    edge_bag[e.index()] = bag_id as u32;
                }
            }
        }

        // Node -> the virtual edges leaving it, in bag order; the
        // probabilities are filled in bottom-up below.
        let mut virtual_start = vec![0u32; n + 1];
        for bag in bags.iter().filter(|bag| bag.boundary.len() == 2) {
            for b in &bag.boundary {
                virtual_start[b.index() + 1] += 1;
            }
        }
        for v in 0..n {
            virtual_start[v + 1] += virtual_start[v];
        }
        let unset = VirtualEdge {
            bag: 0,
            parent: IN_ROOT,
            to: NodeId(0),
            partner: 0,
            prob: 0.0,
        };
        let mut virtual_out = vec![unset; virtual_start[n] as usize];
        let mut fill = virtual_start.clone();
        for (bag_id, bag) in bags.iter_mut().enumerate() {
            if let [a, b] = bag.boundary[..] {
                let parent = bag.parent.map_or(IN_ROOT, |p| p as u32);
                for (slot, from) in bag.up_slots.iter_mut().zip([a, b]) {
                    *slot = fill[from.index()];
                    fill[from.index()] += 1;
                }
                for (i, to) in [(0, b), (1, a)] {
                    virtual_out[bag.up_slots[i] as usize] = VirtualEdge {
                        bag: bag_id as u32,
                        parent,
                        to,
                        partner: bag.up_slots[1 - i],
                        prob: 0.0,
                    };
                }
            }
        }

        let mut index = ProbTreeIndex {
            graph,
            bags,
            covered_in,
            root_entries,
            edge_bag,
            virtual_start,
            virtual_out,
        };
        index.precompute_up_edges();
        index
    }

    /// Bottom-up pre-computation of boundary-pair reliabilities
    /// (Algorithm 7 lines 26-31, with the O(w^2) reliability-only
    /// aggregation). Bags are processed in creation order, which is a
    /// valid bottom-up order: a bag's children are always created earlier.
    fn precompute_up_edges(&mut self) {
        for i in 0..self.bags.len() {
            self.recompute_up_edges(i);
        }
    }

    /// Re-aggregate bag `i`'s upward virtual edges from its current
    /// content; returns whether they changed (the trigger for dirtying
    /// the parent during incremental maintenance).
    fn recompute_up_edges(&mut self, i: usize) -> bool {
        if self.bags[i].boundary.len() != 2 {
            // Pendant bags carry no transit connectivity.
            return false;
        }
        let (a, b) = (self.bags[i].boundary[0], self.bags[i].boundary[1]);
        let v = self.bags[i].covered;
        let mut changed = false;
        for (slot, (x, y)) in self.bags[i].up_slots.into_iter().zip([(a, b), (b, a)]) {
            let direct = self.combined_prob(i, x, y);
            let via = self.combined_prob(i, x, v) * self.combined_prob(i, v, y);
            let p = 1.0 - (1.0 - direct) * (1.0 - via);
            let p = if p > 0.0 { p.min(1.0) } else { 0.0 };
            let edge = &mut self.virtual_out[slot as usize];
            changed |= edge.prob != p;
            edge.prob = p;
        }
        changed
    }

    /// Bag `c`'s upward virtual edges with positive probability, in
    /// boundary order.
    fn up_edges(&self, c: usize) -> impl Iterator<Item = DirEdge> + '_ {
        let bag = &self.bags[c];
        let slots: &[u32] = if bag.boundary.len() == 2 {
            &bag.up_slots
        } else {
            &[]
        };
        slots
            .iter()
            .zip(&bag.boundary)
            .map(|(&slot, &from)| {
                let edge = &self.virtual_out[slot as usize];
                DirEdge {
                    from,
                    to: edge.to,
                    prob: edge.prob,
                }
            })
            .filter(|e| e.prob > 0.0)
    }

    /// Incremental index maintenance for a batch of edge-probability
    /// updates (the Table 15 / §3.8 maintenance cost, generalized):
    /// swap in the new epoch's graph (raw entries read probabilities
    /// through it), then re-aggregate only the decomposition bags whose
    /// content the batch touched, propagating changed virtual edges
    /// upward along the bag tree. Returns the number of bags
    /// re-aggregated — `O(batch · tree height)` instead of the full
    /// `O(n + m)` rebuild.
    ///
    /// `graph` must share this index's topology
    /// ([`UncertainGraph::same_topology`]); callers handle the rebuild
    /// path themselves.
    pub fn apply_updates(&mut self, graph: &Arc<UncertainGraph>, updates: &[EdgeUpdate]) -> usize {
        assert!(
            graph.same_topology(&self.graph),
            "incremental ProbTree maintenance requires a with_updated_probs snapshot"
        );
        self.graph = Arc::clone(graph);
        // Seed the dirty set with the bags holding updated edges (root
        // edges need no aggregation work at all).
        let mut dirty: BTreeSet<usize> = updates
            .iter()
            .map(|u| self.edge_bag[u.edge.index()])
            .filter(|&b| b != IN_ROOT)
            .map(|b| b as usize)
            .collect();
        // Ascending order is bottom-up: a bag's parent is always created
        // (and therefore numbered) later, so propagation only ever
        // inserts ids greater than the one just popped.
        let mut touched = 0usize;
        while let Some(b) = dirty.pop_first() {
            touched += 1;
            if self.recompute_up_edges(b) {
                if let Some(p) = self.bags[b].parent {
                    dirty.insert(p);
                }
            }
        }
        touched
    }

    /// Probability that `from` reaches `to` through bag `i`'s content
    /// restricted to the direct pair (raw parallel edges + collapsed
    /// children), combined independently.
    fn combined_prob(&self, bag: usize, from: NodeId, to: NodeId) -> f64 {
        let mut fail = 1.0;
        for entry in &self.bags[bag].entries {
            match *entry {
                Entry::Raw(e) => {
                    if self.graph.source(e) == from && self.graph.target(e) == to {
                        fail *= 1.0 - self.graph.prob(e).value();
                    }
                }
                Entry::Child(c) => {
                    for e in self.up_edges(c) {
                        if e.from == from && e.to == to {
                            fail *= 1.0 - e.prob;
                        }
                    }
                }
            }
        }
        1.0 - fail
    }

    /// The input graph this index was built over.
    pub fn graph(&self) -> &Arc<UncertainGraph> {
        &self.graph
    }

    /// Decomposition statistics (Fig. 13 reporting).
    pub fn stats(&self) -> DecompositionStats {
        let mut height = 0usize;
        for i in 0..self.bags.len() {
            let mut h = 1usize;
            let mut cur = self.bags[i].parent;
            while let Some(p) = cur {
                h += 1;
                cur = self.bags[p].parent;
            }
            height = height.max(h);
        }
        DecompositionStats {
            num_bags: self.bags.len(),
            root_nodes: self.covered_in.iter().filter(|c| c.is_none()).count(),
            root_entries: self.root_entries.len(),
            height,
        }
    }

    /// Index size in bytes (Fig. 13b): bag metadata, entries, the virtual
    /// edges with their node CSR, and the covered-node lookup.
    pub fn size_bytes(&self) -> usize {
        let entry = std::mem::size_of::<Entry>();
        let mut total = self.covered_in.len() * 5
            + self.root_entries.len() * entry
            + self.edge_bag.len() * 4
            + self.virtual_start.len() * 4
            + self.virtual_out.len() * std::mem::size_of::<VirtualEdge>();
        for bag in &self.bags {
            total += 40 // covered/parent/up_slots/headers
                + bag.boundary.len() * 4
                + bag.entries.len() * entry;
        }
        total
    }

    /// Number of decomposition bags.
    pub(crate) fn num_bags(&self) -> usize {
        self.bags.len()
    }

    /// Fill `exp` with the bags to expand for `(s, t)`: the root paths of
    /// the bags covering `s` and `t`.
    pub(crate) fn expand(&self, s: NodeId, t: NodeId, exp: &mut Expansion) {
        for &b in &exp.bags {
            exp.marked[b] = false;
        }
        exp.bags.clear();
        exp.marked.resize(self.bags.len(), false);
        for x in [s, t] {
            let mut cur = self.covered_in[x.index()].map(|b| b as usize);
            while let Some(b) = cur {
                if exp.marked[b] {
                    break; // shared ancestry already walked
                }
                exp.marked[b] = true;
                exp.bags.push(b);
                cur = self.bags[b].parent;
            }
        }
    }

    /// `G(q)` for the bags `exp` expands, in place on the index.
    pub(crate) fn view<'a>(&'a self, exp: &'a Expansion) -> QueryView<'a> {
        QueryView { index: self, exp }
    }

    /// Edge ids a [`QueryView`] uses: the `m` raw edges, then one per
    /// virtual edge.
    pub(crate) fn view_edges(&self) -> usize {
        self.graph.num_edges() + self.virtual_out.len()
    }

    /// Every edge the packed walk over the in-place view of `G(q)` can
    /// traverse for `(s, t)`, under its view id, in node order: first as
    /// each node's out-edges (the forward search), then as each node's
    /// in-edges (the backward search). The two lists hold one multiset.
    pub fn visible_edges(&self, s: NodeId, t: NodeId) -> [Vec<(EdgeId, DirEdge)>; 2] {
        let mut exp = Expansion::new();
        self.expand(s, t, &mut exp);
        let view = self.view(&exp);
        let edge = |e, from, to| {
            let prob = view.edge_prob(e);
            (e, DirEdge { from, to, prob })
        };
        let nodes = || self.graph.nodes();
        let out = nodes().flat_map(|v| view.out_edges(v).map(move |(e, w)| edge(e, v, w)));
        let into = nodes().flat_map(|v| view.in_edges(v).map(move |(e, u)| edge(e, u, v)));
        [out.collect(), into.collect()]
    }

    /// The edges of `G(q)` in extraction order, before relabelling: walk
    /// the tree from the root, descending into expanded bags and emitting
    /// the virtual edges of the collapsed bags met on the way.
    pub fn query_edges(&self, s: NodeId, t: NodeId) -> Vec<DirEdge> {
        let mut exp = Expansion::new();
        self.expand(s, t, &mut exp);
        let mut edges: Vec<DirEdge> = Vec::new();
        let mut stack: Vec<&Entry> = self.root_entries.iter().collect();
        while let Some(entry) = stack.pop() {
            match *entry {
                Entry::Raw(e) => {
                    debug_assert!(exp.shows_raw(self.edge_bag[e.index()]));
                    edges.push(DirEdge {
                        from: self.graph.source(e),
                        to: self.graph.target(e),
                        prob: self.graph.prob(e).value(),
                    });
                }
                Entry::Child(c) if exp.contains(c) => stack.extend(self.bags[c].entries.iter()),
                Entry::Child(c) => {
                    let parent = self.bags[c].parent.map_or(IN_ROOT, |p| p as u32);
                    debug_assert!(exp.shows_virtual(c as u32, parent));
                    edges.extend(self.up_edges(c));
                }
            }
        }
        edges
    }

    /// Extract the equivalent query graph for `(s, t)` (Algorithm 8):
    /// [`query_edges`](Self::query_edges) relabelled into a dense small
    /// graph, parallel edges OR-merged. The coupled estimators (§3.8)
    /// need this materialised graph; plain MC samples the same edges in
    /// place.
    pub fn extract_query_graph(&self, s: NodeId, t: NodeId) -> QueryExtraction {
        let edges = self.query_edges(s, t);

        // Relabel into a dense node space.
        let mut relabel: HashMap<NodeId, u32> = HashMap::new();
        let fresh = |relabel: &mut HashMap<NodeId, u32>, v: NodeId| -> u32 {
            let next = relabel.len() as u32;
            *relabel.entry(v).or_insert(next)
        };
        let qs = fresh(&mut relabel, s);
        let qt = fresh(&mut relabel, t);
        for e in &edges {
            fresh(&mut relabel, e.from);
            fresh(&mut relabel, e.to);
        }

        let mut builder = GraphBuilder::new(relabel.len())
            .with_edge_capacity(edges.len())
            .duplicate_policy(DuplicatePolicy::CombineOr)
            .allow_self_loops(true);
        for e in &edges {
            builder
                .add_edge_prob(
                    NodeId(relabel[&e.from]),
                    NodeId(relabel[&e.to]),
                    Probability::clamped(e.prob),
                )
                .expect("relabeled nodes are in range");
        }
        QueryExtraction {
            graph: builder.build(),
            s: NodeId(qs),
            t: NodeId(qt),
        }
    }
}

/// `G(q)` as the packed kernel walks it, in place on the index: a raw
/// edge under its own id if [`Expansion::shows_raw`] keeps it, and virtual
/// edge `i` of [`ProbTreeIndex::virtual_out`] as id `m + i` if it is
/// visible. Parallel edges stay apart, each with its own mask slot, where
/// extraction OR-merges them; reachability is equal in law.
#[derive(Clone, Copy)]
pub(crate) struct QueryView<'a> {
    index: &'a ProbTreeIndex,
    exp: &'a Expansion,
}

impl QueryView<'_> {
    /// Virtual edges stored under `v`, shown or not: as many leave `v` as
    /// enter it, one each way per two-boundary bag `v` bounds.
    #[inline]
    fn virtual_degree(&self, v: NodeId) -> usize {
        let start = &self.index.virtual_start;
        (start[v.index() + 1] - start[v.index()]) as usize
    }
}

impl EdgeView for QueryView<'_> {
    #[inline]
    fn out_edges(&self, v: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> {
        let QueryView { index, exp } = *self;
        let raw = index.graph.out_edges(v);
        let raw = raw.filter(move |&(e, _)| exp.shows_raw(index.edge_bag[e.index()]));
        let range = index.virtual_start[v.index()]..index.virtual_start[v.index() + 1];
        let virtual_edges = range.map(|i| i as usize).filter_map(move |i| {
            let e = &index.virtual_out[i];
            let shown = e.prob > 0.0 && exp.shows_virtual(e.bag, e.parent);
            shown.then(|| (EdgeId::from_index(index.graph.num_edges() + i), e.to))
        });
        raw.chain(virtual_edges)
    }

    #[inline]
    fn in_edges(&self, v: NodeId) -> impl Iterator<Item = (EdgeId, NodeId)> {
        let QueryView { index, exp } = *self;
        let raw = index.graph.in_edges(v);
        let raw = raw.filter(move |&(e, _)| exp.shows_raw(index.edge_bag[e.index()]));
        // The virtual edges into `v` are the partners of those out of it:
        // the same bag's edge the other way, with the same visibility.
        let range = index.virtual_start[v.index()]..index.virtual_start[v.index() + 1];
        let virtual_edges = range.map(|i| i as usize).filter_map(move |i| {
            let out = &index.virtual_out[i];
            let j = out.partner as usize;
            let shown = index.virtual_out[j].prob > 0.0 && exp.shows_virtual(out.bag, out.parent);
            shown.then(|| (EdgeId::from_index(index.graph.num_edges() + j), out.to))
        });
        raw.chain(virtual_edges)
    }

    #[inline]
    fn out_degree(&self, v: NodeId) -> usize {
        self.index.graph.out_degree(v) + self.virtual_degree(v)
    }

    #[inline]
    fn in_degree(&self, v: NodeId) -> usize {
        self.index.graph.in_degree(v) + self.virtual_degree(v)
    }

    #[inline]
    fn edge_prob(&self, e: EdgeId) -> f64 {
        match e.index().checked_sub(self.index.graph.num_edges()) {
            None => self.index.graph.prob(e).value(),
            Some(i) => self.index.virtual_out[i].prob,
        }
    }
}

#[inline]
fn pair_key(a: NodeId, b: NodeId) -> (u32, u32) {
    if a.0 <= b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relcomp_ugraph::GraphBuilder;

    fn chain(n: usize, p: f64) -> Arc<UncertainGraph> {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(NodeId(i as u32), NodeId(i as u32 + 1), p)
                .unwrap();
        }
        Arc::new(b.build())
    }

    #[test]
    fn chain_decomposes_fully() {
        // Every node of a path has degree <= 2, so almost everything is
        // covered and the root is tiny.
        let g = chain(10, 0.5);
        let idx = ProbTreeIndex::build(g);
        let stats = idx.stats();
        assert!(stats.num_bags >= 8, "bags {}", stats.num_bags);
        assert!(stats.root_nodes <= 2, "root nodes {}", stats.root_nodes);
    }

    #[test]
    fn chain_virtual_edge_is_product() {
        // Collapsing the middle of a directed chain must yield the product
        // probability end-to-end.
        let g = chain(5, 0.5);
        let idx = ProbTreeIndex::build(Arc::clone(&g));
        let q = idx.extract_query_graph(NodeId(0), NodeId(4));
        // The extraction is equivalent: exact reliability of extraction
        // must be 0.5^4 = 0.0625.
        let exact = crate::exact::exact_reliability(&q.graph, q.s, q.t);
        assert!((exact - 0.0625).abs() < 1e-9, "exact {exact}");
    }

    /// Lollipop: a 6-node dense core (degree 5 each — never decomposed)
    /// with a 30-node pendant path 6..36 hanging off node 0.
    fn lollipop() -> Arc<UncertainGraph> {
        let n = 36;
        let mut b = GraphBuilder::new(n);
        for u in 0..6u32 {
            for v in (u + 1)..6u32 {
                b.add_bidirected(NodeId(u), NodeId(v), 0.5).unwrap();
            }
        }
        b.add_bidirected(NodeId(0), NodeId(6), 0.5).unwrap();
        for i in 6..(n as u32 - 1) {
            b.add_bidirected(NodeId(i), NodeId(i + 1), 0.5).unwrap();
        }
        Arc::new(b.build())
    }

    #[test]
    fn query_graph_prunes_irrelevant_branches() {
        // A core-to-core query must not drag the pendant path into the
        // query graph.
        let g = lollipop();
        let idx = ProbTreeIndex::build(Arc::clone(&g));
        let q = idx.extract_query_graph(NodeId(1), NodeId(4));
        assert!(q.graph.num_nodes() <= 8, "nodes {}", q.graph.num_nodes());
        // And a query into the pendant tail expands only that branch.
        let q2 = idx.extract_query_graph(NodeId(1), NodeId(35));
        assert!(q2.graph.num_nodes() >= 30, "nodes {}", q2.graph.num_nodes());
    }

    #[test]
    fn in_place_worlds_stay_off_the_pendant_path() {
        use crate::packed::{lazy_pass, packed_hits_within, PackedWorkspace};
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;
        use relcomp_ugraph::traversal::ReachView;

        let g = lollipop();
        let idx = ProbTreeIndex::build(Arc::clone(&g));
        let mut exp = Expansion::new();
        let mut ws = PackedWorkspace::new(g.num_nodes(), idx.view_edges());
        let mut rng = ChaCha8Rng::seed_from_u64(71);

        // Core to core: node 0 (the path's anchor) is reached in some
        // passes, yet no pass ever reaches a pendant-path node. The passes
        // walk the view to full reach, as a target walk's forward side
        // stops where it meets the backward one.
        let (s, t) = (NodeId(1), NodeId(4));
        idx.expand(s, t, &mut exp);
        let mut anchor_reached = false;
        for _ in 0..8 {
            let (_, pass) = lazy_pass(&idx.view(&exp), s, None, None, 64, &mut ws, &mut rng);
            let reached = pass.reached_nodes();
            anchor_reached |= reached.contains(&NodeId(0));
            for v in 6..36u32 {
                assert!(!reached.contains(&NodeId(v)), "pendant node {v} reached");
            }
        }
        assert!(anchor_reached, "no pass reached node 0");

        // Into the tail: every 1 -> 8 path is a core path 1 -> 0 followed
        // by the tail edges 0 -> 6 -> 7 -> 8, so R(1, 8) = R_core(1, 0) ·
        // 0.5^3. Edges into 1 and out of 0 cannot lie on a simple 1 -> 0
        // path, and conditioning on the direct edge gives R_core(1, 0) =
        // 0.5 + 0.5 · R(1, 0 without it): 20 edges, within the exact
        // oracle's reach.
        let mut b = GraphBuilder::new(6);
        for u in 1..6u32 {
            for v in (0..6u32).filter(|&v| v != u && v != 1 && (u, v) != (1, 0)) {
                b.add_edge(NodeId(u), NodeId(v), 0.5).unwrap();
            }
        }
        let indirect = crate::exact::exact_reliability(&b.build(), NodeId(1), NodeId(0));
        let exact = (0.5 + 0.5 * indirect) * 0.5f64.powi(3);
        let (s, t) = (NodeId(1), NodeId(8));
        idx.expand(s, t, &mut exp);
        let k = 40_000;
        let hits = packed_hits_within(&idx.view(&exp), s, t, None, k, &mut ws, &mut rng);
        let est = hits as f64 / k as f64;
        let sigma = (exact * (1.0 - exact) / k as f64).sqrt();
        assert!(
            (est - exact).abs() <= 4.0 * sigma,
            "in place {est} vs exact {exact} (sigma {sigma})"
        );
    }

    #[test]
    fn star_center_stays_meaningful() {
        // High-degree hub: leaves are covered, hub remains in root.
        let mut b = GraphBuilder::new(6);
        for leaf in 1..6u32 {
            b.add_bidirected(NodeId(0), NodeId(leaf), 0.5).unwrap();
        }
        let g = Arc::new(b.build());
        let idx = ProbTreeIndex::build(Arc::clone(&g));
        let q = idx.extract_query_graph(NodeId(1), NodeId(2));
        let exact = crate::exact::exact_reliability(&q.graph, q.s, q.t);
        // 1 -> 0 -> 2 both 0.5: 0.25.
        assert!((exact - 0.25).abs() < 1e-9, "exact {exact}");
    }

    #[test]
    fn stats_and_size_are_consistent() {
        let g = chain(20, 0.5);
        let idx = ProbTreeIndex::build(g);
        let stats = idx.stats();
        assert!(stats.height >= 1);
        assert!(idx.size_bytes() > 0);
        assert_eq!(
            stats.root_nodes + stats.num_bags,
            20,
            "every node is either covered by exactly one bag or in the root"
        );
    }

    #[test]
    fn apply_updates_matches_fresh_index_on_chain() {
        let g = chain(12, 0.5);
        let mut idx = ProbTreeIndex::build(Arc::clone(&g));
        let e = g.find_edge(NodeId(5), NodeId(6)).unwrap();
        let up = EdgeUpdate::new(e, 0.9).unwrap();
        let snap = g.with_updated_probs(&[up]);
        let touched = idx.apply_updates(&snap, &[up]);
        assert!(touched >= 1, "a covered edge must dirty its bag");
        let fresh = ProbTreeIndex::build(Arc::clone(&snap));
        let a = idx.extract_query_graph(NodeId(0), NodeId(11));
        let b = fresh.extract_query_graph(NodeId(0), NodeId(11));
        let ra = crate::exact::exact_reliability(&a.graph, a.s, a.t);
        let rb = crate::exact::exact_reliability(&b.graph, b.s, b.t);
        assert!((ra - rb).abs() < 1e-12, "incremental {ra} vs fresh {rb}");
        // Ground truth: ten 0.5 edges and one upgraded to 0.9.
        let expect = 0.5f64.powi(10) * 0.9;
        assert!((ra - expect).abs() < 1e-12, "{ra} vs {expect}");
    }

    #[test]
    fn apply_updates_to_root_edges_touches_no_bags() {
        // 5-node clique: every node has degree 4 > w, nothing decomposes,
        // every edge lives in the root and needs zero aggregation work.
        let mut b = GraphBuilder::new(5);
        for u in 0..5u32 {
            for v in (u + 1)..5u32 {
                b.add_bidirected(NodeId(u), NodeId(v), 0.5).unwrap();
            }
        }
        let g = Arc::new(b.build());
        let mut idx = ProbTreeIndex::build(Arc::clone(&g));
        let e = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        let up = EdgeUpdate::new(e, 0.9).unwrap();
        let snap = g.with_updated_probs(&[up]);
        assert_eq!(idx.apply_updates(&snap, &[up]), 0);
        // The updated probability still flows into extractions (raw
        // entries read through the swapped graph).
        let q = idx.extract_query_graph(NodeId(0), NodeId(1));
        let exact = crate::exact::exact_reliability(&q.graph, q.s, q.t);
        let fresh = ProbTreeIndex::build(snap);
        let qf = fresh.extract_query_graph(NodeId(0), NodeId(1));
        let exact_fresh = crate::exact::exact_reliability(&qf.graph, qf.s, qf.t);
        assert!((exact - exact_fresh).abs() < 1e-12);
        assert!(exact > 0.9, "upgraded direct edge dominates: {exact}");
    }

    #[test]
    fn isolated_endpoint_query_extracts() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        let g = Arc::new(b.build());
        let idx = ProbTreeIndex::build(g);
        let q = idx.extract_query_graph(NodeId(2), NodeId(0));
        assert!(q.graph.contains_node(q.s));
        assert!(q.graph.contains_node(q.t));
        let exact = crate::exact::exact_reliability(&q.graph, q.s, q.t);
        assert_eq!(exact, 0.0);
    }
}
