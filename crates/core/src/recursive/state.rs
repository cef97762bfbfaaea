//! Shared mutable state for the recursive estimators.
//!
//! A recursion node is a *prefix group* `G(E1, E2)`: `E1` = edges forced
//! present, `E2` = edges forced absent, everything else undetermined
//! (§2.4). Instead of materializing a simplified graph per recursive call
//! (as the reference C++ implementation does), we keep one status overlay
//! with an internal LIFO undo log — semantically identical, cheaper.
//! Memory accounting still *models* the reference design (a
//! simplified-graph instance per live recursion frame) so that Fig. 12's
//! memory ordering is reproduced; see `memory_model_bytes`.

use crate::sampler::coin;
use rand::RngCore;
use relcomp_ugraph::traversal::{bfs_reaches, BfsWorkspace};
use relcomp_ugraph::{EdgeId, NodeId, UncertainGraph};

/// Status of an edge in the current prefix group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeStatus {
    /// Not yet fixed; sampled at the MC leaves.
    Undetermined,
    /// Forced present (member of `E1`).
    Included,
    /// Forced absent (member of `E2`).
    Excluded,
}

/// Undo record for one `include`/`exclude` operation.
struct Undo {
    edge: EdgeId,
    prev: EdgeStatus,
    /// Number of nodes appended to the reached stack by this op.
    added_reached: usize,
}

/// Mutable prefix-group state for one query.
pub struct RecState<'g> {
    graph: &'g UncertainGraph,
    s: NodeId,
    t: NodeId,
    status: Vec<EdgeStatus>,
    /// Stack of nodes reachable from `s` via included edges, in discovery
    /// order (doubles as the DFS preference order for edge selection).
    reached: Vec<NodeId>,
    reached_mem: Vec<bool>,
    /// Count of undetermined edges (for the memory model).
    undetermined: usize,
    /// Undo records of the live fixes, most recent last.
    log: Vec<Undo>,
    ws: BfsWorkspace,
}

impl<'g> RecState<'g> {
    /// Fresh state: `E1 = E2 = {}`, reached = `{s}`.
    pub fn new(graph: &'g UncertainGraph, s: NodeId, t: NodeId) -> Self {
        let n = graph.num_nodes();
        let mut reached_mem = vec![false; n];
        reached_mem[s.index()] = true;
        RecState {
            graph,
            s,
            t,
            status: vec![EdgeStatus::Undetermined; graph.num_edges()],
            reached: vec![s],
            reached_mem,
            undetermined: graph.num_edges(),
            log: Vec::new(),
            ws: BfsWorkspace::new(n),
        }
    }

    /// Whether `t` is reached from `s` through included edges — the
    /// "E1 contains a path" termination test (Alg. 4 line 4).
    #[inline]
    pub fn t_reached(&self) -> bool {
        self.reached_mem[self.t.index()]
    }

    /// Current status of `e`.
    #[allow(dead_code)] // part of the overlay API surface; exercised in tests
    #[inline]
    pub fn status(&self, e: EdgeId) -> EdgeStatus {
        self.status[e.index()]
    }

    /// Number of currently undetermined edges.
    pub fn undetermined_count(&self) -> usize {
        self.undetermined
    }

    /// Number of live fixes; pass it to [`RecState::undo_to`] to revert
    /// every fix made after this point.
    pub fn depth(&self) -> usize {
        self.log.len()
    }

    /// Force edge `e` present and extend the reached closure.
    pub fn include(&mut self, e: EdgeId) {
        let prev = self.status[e.index()];
        debug_assert_eq!(prev, EdgeStatus::Undetermined, "double-fixing edge {e}");
        self.status[e.index()] = EdgeStatus::Included;
        if prev == EdgeStatus::Undetermined {
            self.undetermined -= 1;
        }

        let mut added = 0usize;
        let (u, v) = self.graph.endpoints(e);
        if self.reached_mem[u.index()] && !self.reached_mem[v.index()] {
            // BFS over included edges from v (cascading closure — needed by
            // RSS, whose strata can include edges ahead of the frontier).
            let start = self.reached.len();
            self.reached_mem[v.index()] = true;
            self.reached.push(v);
            let mut cursor = start;
            while cursor < self.reached.len() {
                let x = self.reached[cursor];
                cursor += 1;
                for (e2, y) in self.graph.out_edges(x) {
                    if self.status[e2.index()] == EdgeStatus::Included
                        && !self.reached_mem[y.index()]
                    {
                        self.reached_mem[y.index()] = true;
                        self.reached.push(y);
                    }
                }
            }
            added = self.reached.len() - start;
        }
        self.log.push(Undo {
            edge: e,
            prev,
            added_reached: added,
        });
    }

    /// Force edge `e` absent.
    pub fn exclude(&mut self, e: EdgeId) {
        let prev = self.status[e.index()];
        debug_assert_eq!(prev, EdgeStatus::Undetermined, "double-fixing edge {e}");
        self.status[e.index()] = EdgeStatus::Excluded;
        if prev == EdgeStatus::Undetermined {
            self.undetermined -= 1;
        }
        self.log.push(Undo {
            edge: e,
            prev,
            added_reached: 0,
        });
    }

    /// Revert the most recent `include`/`exclude`.
    pub fn undo(&mut self) {
        let undo = self.log.pop().expect("undo without a live fix");
        let cur = self.status[undo.edge.index()];
        self.status[undo.edge.index()] = undo.prev;
        if cur != EdgeStatus::Undetermined && undo.prev == EdgeStatus::Undetermined {
            self.undetermined += 1;
        }
        for _ in 0..undo.added_reached {
            let v = self.reached.pop().expect("undo imbalance");
            self.reached_mem[v.index()] = false;
        }
    }

    /// Revert fixes until [`RecState::depth`] is `depth`.
    pub fn undo_to(&mut self, depth: usize) {
        while self.log.len() > depth {
            self.undo();
        }
    }

    /// DFS-preference edge selection (§2.4, "experimentally optimal
    /// strategy"): from the most recently reached node downward, return the
    /// first undetermined edge leading out of the reached set.
    pub fn select_edge_dfs(&self) -> Option<EdgeId> {
        for &v in self.reached.iter().rev() {
            for (e, w) in self.graph.out_edges(v) {
                if self.status[e.index()] == EdgeStatus::Undetermined
                    && !self.reached_mem[w.index()]
                {
                    return Some(e);
                }
            }
        }
        None
    }

    /// BFS edge selection for RSS (Alg. 5 line 9): breadth-first from `s`
    /// over non-excluded edges, collecting the first `r` undetermined edges
    /// encountered.
    pub fn select_edges_bfs(&mut self, r: usize) -> Vec<EdgeId> {
        let mut selected = Vec::with_capacity(r);
        self.ws.reset();
        self.ws.visited.insert(self.s);
        self.ws.queue.clear();
        self.ws.queue.push_back(self.s);
        while let Some(v) = self.ws.queue.pop_front() {
            for (e, w) in self.graph.out_edges(v) {
                match self.status[e.index()] {
                    EdgeStatus::Excluded => continue,
                    EdgeStatus::Undetermined => {
                        if selected.len() < r {
                            selected.push(e);
                        } else {
                            return selected;
                        }
                    }
                    EdgeStatus::Included => {}
                }
                if self.ws.visited.insert(w) {
                    self.ws.queue.push_back(w);
                }
            }
        }
        selected
    }

    /// Is `t` reachable from `s` through non-excluded edges? `false` means
    /// `E2` already contains an s-t cut (Alg. 4 line 6).
    pub fn t_possibly_reachable(&mut self) -> bool {
        let status = &self.status;
        bfs_reaches(self.graph, self.s, self.t, &mut self.ws, |e| {
            status[e.index()] != EdgeStatus::Excluded
        })
    }

    /// Conditional MC fallback (Alg. 4 lines 1-2 / Alg. 5 lines 3-7):
    /// estimate the group reliability with `k` plain samples where included
    /// edges always exist, excluded never, and undetermined edges are
    /// sampled lazily.
    pub fn mc_conditional(&mut self, k: usize, rng: &mut dyn RngCore) -> f64 {
        debug_assert!(k > 0);
        let mut hits = 0usize;
        let status = &self.status;
        let (graph, s, t) = (self.graph, self.s, self.t);
        for _ in 0..k {
            if bfs_reaches(graph, s, t, &mut self.ws, |e| match status[e.index()] {
                EdgeStatus::Included => true,
                EdgeStatus::Excluded => false,
                EdgeStatus::Undetermined => coin(rng, graph.prob(e).value()),
            }) {
                hits += 1;
            }
        }
        hits as f64 / k as f64
    }

    /// Bytes the *reference implementation* would hold for one live
    /// recursion frame: a simplified graph instance over the undetermined
    /// edges plus per-node state. Used for Fig. 12-style accounting.
    pub fn memory_model_bytes(&self) -> usize {
        // 12 bytes/edge (two endpoints + probability, as the C++ reference
        // stores adjacency pairs) + 4 bytes/node.
        self.undetermined * 12 + self.graph.num_nodes() * 4
    }

    /// Fixed per-query overhead: status overlay and reached structures.
    pub fn base_bytes(&self) -> usize {
        self.status.len()
            + self.reached_mem.len()
            + self.reached.capacity() * 4
            + self.ws.resident_bytes()
    }

    /// The query's probability accessor (convenience for the estimators).
    pub fn prob(&self, e: EdgeId) -> f64 {
        self.graph.prob(e).value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use relcomp_ugraph::{DuplicatePolicy, GraphBuilder};

    fn diamond() -> UncertainGraph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 0.6).unwrap();
        b.add_edge(NodeId(1), NodeId(3), 0.7).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 0.4).unwrap();
        b.build()
    }

    fn edge(g: &UncertainGraph, u: u32, v: u32) -> EdgeId {
        g.find_edge(NodeId(u), NodeId(v)).unwrap()
    }

    #[test]
    fn include_extends_reached_and_detects_path() {
        let g = diamond();
        let mut st = RecState::new(&g, NodeId(0), NodeId(3));
        assert!(!st.t_reached());
        st.include(edge(&g, 0, 1));
        assert!(!st.t_reached());
        st.include(edge(&g, 1, 3));
        assert!(st.t_reached());
        st.undo();
        assert!(!st.t_reached());
        st.undo();
        assert_eq!(st.undetermined_count(), 4);
    }

    #[test]
    fn cascading_closure_on_out_of_order_inclusion() {
        // Include 1 -> 3 first (source unreached), then 0 -> 1: reached
        // must cascade through to 3.
        let g = diamond();
        let mut st = RecState::new(&g, NodeId(0), NodeId(3));
        st.include(edge(&g, 1, 3));
        assert!(!st.t_reached());
        st.include(edge(&g, 0, 1));
        assert!(st.t_reached());
    }

    #[test]
    fn exclusion_cut_detected() {
        let g = diamond();
        let mut st = RecState::new(&g, NodeId(0), NodeId(3));
        assert!(st.t_possibly_reachable());
        st.exclude(edge(&g, 0, 1));
        assert!(st.t_possibly_reachable());
        st.exclude(edge(&g, 0, 2));
        assert!(!st.t_possibly_reachable());
    }

    #[test]
    fn dfs_selection_prefers_recent_nodes() {
        let g = diamond();
        let mut st = RecState::new(&g, NodeId(0), NodeId(3));
        // Initially only s is reached; first undetermined out-edge of 0.
        let first = st.select_edge_dfs().unwrap();
        assert_eq!(g.source(first), NodeId(0));
        st.include(edge(&g, 0, 1));
        // Node 1 is most recent: its out-edge 1 -> 3 must be preferred.
        let next = st.select_edge_dfs().unwrap();
        assert_eq!(next, edge(&g, 1, 3));
    }

    #[test]
    fn dfs_selection_none_when_frontier_exhausted() {
        let g = diamond();
        let mut st = RecState::new(&g, NodeId(0), NodeId(3));
        st.exclude(edge(&g, 0, 1));
        st.exclude(edge(&g, 0, 2));
        assert!(st.select_edge_dfs().is_none());
    }

    #[test]
    fn bfs_selection_orders_by_distance() {
        let g = diamond();
        let mut st = RecState::new(&g, NodeId(0), NodeId(3));
        let sel = st.select_edges_bfs(10);
        assert_eq!(sel.len(), 4);
        // The two s-adjacent edges come first.
        assert_eq!(g.source(sel[0]), NodeId(0));
        assert_eq!(g.source(sel[1]), NodeId(0));
        let sel2 = st.select_edges_bfs(2);
        assert_eq!(sel2.len(), 2);
    }

    #[test]
    fn mc_conditional_respects_forced_statuses() {
        let g = diamond();
        let mut st = RecState::new(&g, NodeId(0), NodeId(3));
        st.include(edge(&g, 0, 1));
        st.include(edge(&g, 1, 3));
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        // Path fully included: every sample hits.
        assert_eq!(st.mc_conditional(50, &mut rng), 1.0);
    }

    #[test]
    fn memory_model_decreases_with_determined_edges() {
        let g = diamond();
        let mut st = RecState::new(&g, NodeId(0), NodeId(3));
        let before = st.memory_model_bytes();
        st.exclude(edge(&g, 0, 1));
        assert!(st.memory_model_bytes() < before);
        assert!(st.base_bytes() > 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Under random LIFO include/exclude/undo sequences, the cut check
        /// always agrees with a fresh BFS over non-excluded edges.
        #[test]
        fn witness_cache_matches_fresh_bfs(
            (n, edges, ops) in (2usize..8).prop_flat_map(|n| {
                let edge = (0..n as u32, 0..n as u32, 0.05f64..1.0);
                (
                    Just(n),
                    collection::vec(edge, 0..16),
                    collection::vec((0u32..3, 0usize..64), 0..48),
                )
            })
        ) {
            let mut b = GraphBuilder::new(n).duplicate_policy(DuplicatePolicy::KeepFirst);
            for &(u, v, p) in &edges {
                if u != v {
                    b.add_edge(NodeId(u), NodeId(v), p).unwrap();
                }
            }
            let g = b.build();
            let (s, t) = (NodeId(0), NodeId((n - 1) as u32));
            let mut st = RecState::new(&g, s, t);
            let mut ws = BfsWorkspace::new(n);
            for &(kind, pick) in &ops {
                let free: Vec<EdgeId> = g
                    .edges()
                    .map(|(e, _, _, _)| e)
                    .filter(|&e| st.status(e) == EdgeStatus::Undetermined)
                    .collect();
                match kind {
                    0 if !free.is_empty() => st.include(free[pick % free.len()]),
                    1 if !free.is_empty() => st.exclude(free[pick % free.len()]),
                    _ if st.depth() > 0 => st.undo(),
                    _ => {}
                }
                let fresh = bfs_reaches(&g, s, t, &mut ws, |e| {
                    st.status(e) != EdgeStatus::Excluded
                });
                prop_assert_eq!(st.t_possibly_reachable(), fresh);
            }
        }
    }
}
