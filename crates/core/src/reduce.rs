//! Exact reliability-preserving graph reductions.
//!
//! Classic preprocessing from the device-network reliability literature
//! the paper builds on (Aggarwal et al. \[3\]; also the mechanism behind
//! ProbTree's lossless bags): repeatedly apply local rewrites that leave
//! `R(s, t)` unchanged while shrinking the graph, then hand the reduced
//! graph to any estimator.
//!
//! Implemented rewrites (all exact for s-t queries):
//!
//! * **Parallel reduction** — duplicate directed edges `u -> v` merge
//!   into one with `1 - (1-p1)(1-p2)` (handled by the builder's
//!   `CombineOr`, re-applied after other rewrites create duplicates).
//! * **Series reduction** — a node `w` (not `s`/`t`) whose only in-edge
//!   is `u -> w` and only out-edge is `w -> v` collapses into
//!   `u -> v` with `p1 * p2`. Requires `w`'s in/out degree to be exactly
//!   1 each, and `u != w != v`.
//! * **Dead-end pruning** — nodes that cannot lie on any `s -> t` path
//!   (not reachable from `s`, or `t` not reachable from them over the
//!   certain topology) are dropped with all their edges. This is exact:
//!   no possible world routes through them.
//!
//! The result is a [`ReducedQuery`]: a smaller graph plus the relabeled
//! endpoints, with `R` provably identical. Property tests check
//! `exact(original) == exact(reduced)` on random graphs.

use relcomp_ugraph::traversal::{bfs_reaches, BfsWorkspace};
use relcomp_ugraph::{DuplicatePolicy, GraphBuilder, NodeId, Probability, UncertainGraph};

/// A reduced s-t query instance.
pub struct ReducedQuery {
    /// The reduced graph.
    pub graph: UncertainGraph,
    /// `s` in the reduced graph.
    pub s: NodeId,
    /// `t` in the reduced graph.
    pub t: NodeId,
    /// Nodes of the original graph that survived, indexed by reduced id.
    pub kept: Vec<NodeId>,
    /// How many series contractions were applied.
    pub series_contractions: usize,
}

impl ReducedQuery {
    /// Reduction ratio in edges (1.0 = no reduction).
    pub fn edge_ratio(&self, original: &UncertainGraph) -> f64 {
        if original.num_edges() == 0 {
            return 1.0;
        }
        self.graph.num_edges() as f64 / original.num_edges() as f64
    }
}

/// Apply dead-end pruning + series + parallel reductions to fixpoint.
pub fn reduce_for_query(graph: &UncertainGraph, s: NodeId, t: NodeId) -> ReducedQuery {
    assert!(
        graph.contains_node(s) && graph.contains_node(t),
        "query nodes out of range"
    );

    // Phase 1: relevance pruning over the certain topology.
    let forward = reachable_from(graph, s, /*forward=*/ true);
    let backward = reachable_from(graph, t, /*forward=*/ false);
    // Keep an edge only if both endpoints can lie on an s -> t path:
    // reachable from s AND able to reach t over the certain topology.
    let mut edges: Vec<(NodeId, NodeId, f64)> = graph
        .edges()
        .filter(|&(_, u, v, _)| {
            forward[u.index()] && backward[u.index()] && forward[v.index()] && backward[v.index()]
        })
        .map(|(_, u, v, p)| (u, v, p.value()))
        .collect();

    // Phase 2: series contraction to fixpoint on the edge list.
    let mut series_contractions = 0usize;
    loop {
        // Recompute degrees over current edge list.
        let mut in_deg: std::collections::HashMap<NodeId, usize> = Default::default();
        let mut out_deg: std::collections::HashMap<NodeId, usize> = Default::default();
        for &(u, v, _) in &edges {
            *out_deg.entry(u).or_default() += 1;
            *in_deg.entry(v).or_default() += 1;
        }
        // Find a contractible node: in = out = 1, not s/t, no self-loop.
        let mut victim: Option<NodeId> = None;
        for (&w, &din) in &in_deg {
            if w == s || w == t || din != 1 {
                continue;
            }
            if out_deg.get(&w).copied().unwrap_or(0) != 1 {
                continue;
            }
            let inc = edges
                .iter()
                .find(|&&(_, v, _)| v == w)
                .expect("in-degree 1");
            let out = edges
                .iter()
                .find(|&&(u, _, _)| u == w)
                .expect("out-degree 1");
            if inc.0 != w && out.1 != w && inc.0 != out.1 {
                victim = Some(w);
                break;
            }
        }
        let Some(w) = victim else { break };
        let (u, _, p1) = *edges.iter().find(|&&(_, v, _)| v == w).expect("in edge");
        let (_, v, p2) = *edges.iter().find(|&&(uu, _, _)| uu == w).expect("out edge");
        edges.retain(|&(a, b, _)| a != w && b != w);
        edges.push((u, v, p1 * p2));
        series_contractions += 1;
    }

    // Phase 3: relabel + parallel-merge through the builder.
    let mut kept: Vec<NodeId> = Vec::new();
    let mut map: std::collections::HashMap<NodeId, NodeId> = Default::default();
    let mut intern = |node: NodeId, kept: &mut Vec<NodeId>| -> NodeId {
        *map.entry(node).or_insert_with(|| {
            let local = NodeId::from_index(kept.len());
            kept.push(node);
            local
        })
    };
    let rs = intern(s, &mut kept);
    let rt = intern(t, &mut kept);
    let locals: Vec<(NodeId, NodeId, f64)> = edges
        .iter()
        .map(|&(u, v, p)| (intern(u, &mut kept), intern(v, &mut kept), p))
        .collect();
    let mut b = GraphBuilder::new(kept.len())
        .with_edge_capacity(locals.len())
        .duplicate_policy(DuplicatePolicy::CombineOr);
    for (u, v, p) in locals {
        b.add_edge_prob(u, v, Probability::clamped(p))
            .expect("validated");
    }
    ReducedQuery {
        graph: b.build(),
        s: rs,
        t: rt,
        kept,
        series_contractions,
    }
}

/// Reachability sets over the certain topology (forward from `s`, or
/// backward to `t` using in-edges).
fn reachable_from(graph: &UncertainGraph, start: NodeId, forward: bool) -> Vec<bool> {
    let n = graph.num_nodes();
    let mut seen = vec![false; n];
    seen[start.index()] = true;
    let mut stack = vec![start];
    while let Some(v) = stack.pop() {
        if forward {
            for (_, w) in graph.out_edges(v) {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    stack.push(w);
                }
            }
        } else {
            for (_, u) in graph.in_edges(v) {
                if !seen[u.index()] {
                    seen[u.index()] = true;
                    stack.push(u);
                }
            }
        }
    }
    seen
}

/// Sanity helper used by tests: does the reduced instance still connect
/// s to t in the certain topology iff the original does?
pub fn certain_connectivity_preserved(
    original: &UncertainGraph,
    s: NodeId,
    t: NodeId,
    reduced: &ReducedQuery,
) -> bool {
    let mut ws = BfsWorkspace::new(original.num_nodes());
    let before = bfs_reaches(original, s, t, &mut ws, |_| true);
    let mut ws = BfsWorkspace::new(reduced.graph.num_nodes());
    let after = bfs_reaches(&reduced.graph, reduced.s, reduced.t, &mut ws, |_| true);
    before == after
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_reliability;

    #[test]
    fn series_chain_collapses_to_single_edge() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.8).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 0.7).unwrap();
        let g = b.build();
        let red = reduce_for_query(&g, NodeId(0), NodeId(3));
        assert_eq!(red.graph.num_edges(), 1);
        assert_eq!(red.series_contractions, 2);
        let p = red.graph.prob(relcomp_ugraph::EdgeId(0)).value();
        assert!((p - 0.9 * 0.8 * 0.7).abs() < 1e-12);
    }

    #[test]
    fn parallel_paths_merge_after_series() {
        // Diamond: both 2-edge paths contract to single edges, then merge.
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        b.add_edge(NodeId(1), NodeId(3), 0.5).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 0.5).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 0.5).unwrap();
        let g = b.build();
        let exact = exact_reliability(&g, NodeId(0), NodeId(3));
        let red = reduce_for_query(&g, NodeId(0), NodeId(3));
        assert_eq!(red.graph.num_edges(), 1);
        let p = red.graph.prob(relcomp_ugraph::EdgeId(0)).value();
        assert!((p - exact).abs() < 1e-12, "reduced to {p}, exact {exact}");
    }

    #[test]
    fn irrelevant_branches_are_pruned() {
        // 0 -> 1 -> 2 plus a dangling branch 1 -> 3 -> 4 that cannot reach
        // t = 2.
        let mut b = GraphBuilder::new(5);
        b.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.5).unwrap();
        b.add_edge(NodeId(1), NodeId(3), 0.5).unwrap();
        b.add_edge(NodeId(3), NodeId(4), 0.5).unwrap();
        let g = b.build();
        let red = reduce_for_query(&g, NodeId(0), NodeId(2));
        assert!(red.graph.num_nodes() <= 3);
        let exact_red = exact_reliability(&red.graph, red.s, red.t);
        assert!((exact_red - 0.25).abs() < 1e-12);
    }

    #[test]
    fn reduction_preserves_exact_reliability_on_random_graphs() {
        use rand::SeedableRng;
        use relcomp_ugraph::generators::erdos_renyi;
        use relcomp_ugraph::probmodel::{Direction, ProbModel};
        for seed in 0..10u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let pairs = erdos_renyi(8, 11, &mut rng);
            let g = ProbModel::UniformChoice {
                choices: vec![0.3, 0.7],
            }
            .apply(8, &pairs, Direction::RandomOriented, &mut rng);
            if g.num_edges() > 22 {
                continue;
            }
            let (s, t) = (NodeId(0), NodeId(7));
            let before = exact_reliability(&g, s, t);
            let red = reduce_for_query(&g, s, t);
            assert!(red.graph.num_edges() <= g.num_edges());
            if red.graph.num_edges() <= 24 {
                let after = exact_reliability(&red.graph, red.s, red.t);
                assert!(
                    (before - after).abs() < 1e-9,
                    "seed {seed}: {before} vs {after}"
                );
            }
            assert!(certain_connectivity_preserved(&g, s, t, &red));
        }
    }

    #[test]
    fn unreachable_target_reduces_to_empty() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(1), NodeId(0), 0.5).unwrap();
        let g = b.build();
        let red = reduce_for_query(&g, NodeId(0), NodeId(2));
        assert_eq!(red.graph.num_edges(), 0);
        assert_eq!(exact_reliability(&red.graph, red.s, red.t), 0.0);
    }

    #[test]
    fn endpoints_never_contracted() {
        // s has in/out degree 1 but must survive.
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.5).unwrap();
        b.add_edge(NodeId(2), NodeId(0), 0.5).unwrap();
        let g = b.build();
        let red = reduce_for_query(&g, NodeId(0), NodeId(2));
        assert!(red.kept.contains(&NodeId(0)));
        assert!(red.kept.contains(&NodeId(2)));
        let before = exact_reliability(&g, NodeId(0), NodeId(2));
        let after = exact_reliability(&red.graph, red.s, red.t);
        assert!((before - after).abs() < 1e-12);
    }
}
