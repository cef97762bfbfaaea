//! Exact s-t reliability by possible-world enumeration (Eq. 2).
//!
//! `#P`-hard in general, so this is a *test oracle*: every estimator in the
//! crate is validated against it on small random graphs. Refuses graphs
//! with more than 26 edges.

use relcomp_ugraph::possible_world::enumerate_worlds;
use relcomp_ugraph::traversal::{bfs_reaches, BfsWorkspace};
use relcomp_ugraph::{EdgeId, EdgeUpdate, NodeId, UncertainGraph};

/// Compute `R(s, t)` exactly by summing `Pr(G)` over all worlds where `t`
/// is reachable from `s`.
///
/// # Panics
/// Panics if the graph has more than 26 edges (enumeration is `2^m`).
pub fn exact_reliability(graph: &UncertainGraph, s: NodeId, t: NodeId) -> f64 {
    assert!(
        graph.contains_node(s) && graph.contains_node(t),
        "query nodes out of range"
    );
    if s == t {
        return 1.0;
    }
    let mut ws = BfsWorkspace::new(graph.num_nodes());
    let mut total = 0.0;
    for world in enumerate_worlds(graph) {
        if bfs_reaches(graph, s, t, &mut ws, |e| world.contains(e)) {
            total += world.probability(graph);
        }
    }
    total
}

/// Exhaustively search every size-`k` subset of `candidates` for the one
/// whose application maximizes exact `R(s, t)` — the oracle the greedy
/// [`maximize`](fn@crate::maximize) optimizer is validated against.
///
/// Subsets are enumerated in lexicographic candidate order and ties keep
/// the first (lexicographically smallest) maximizer, so the answer is
/// deterministic. Returns the winning candidates' edge ids (in candidate
/// order) and the exact reliability with them applied. `k` larger than
/// the pool clamps to the whole pool; `k == 0` returns the unmodified
/// graph's reliability and an empty set.
///
/// # Panics
/// Panics if the graph has more than 26 edges (each subset costs a full
/// `2^m` world enumeration) — this is a small-instance test oracle.
pub fn exact_best_upgrade_set(
    graph: &UncertainGraph,
    s: NodeId,
    t: NodeId,
    candidates: &[EdgeUpdate],
    k: usize,
) -> (Vec<EdgeId>, f64) {
    let k = k.min(candidates.len());
    if k == 0 {
        return (Vec::new(), exact_reliability(graph, s, t));
    }
    // Lexicographic combination walk over candidate indices.
    let mut idx: Vec<usize> = (0..k).collect();
    let mut best_set: Vec<EdgeId> = Vec::new();
    let mut best_rel = f64::NEG_INFINITY;
    loop {
        let updates: Vec<EdgeUpdate> = idx.iter().map(|&i| candidates[i]).collect();
        let upgraded = graph.with_updated_probs(&updates);
        let rel = exact_reliability(&upgraded, s, t);
        if rel > best_rel {
            best_rel = rel;
            best_set = updates.iter().map(|u| u.edge).collect();
        }
        // Advance to the next combination, rightmost index first.
        let mut pos = k;
        while pos > 0 {
            pos -= 1;
            if idx[pos] < candidates.len() - (k - pos) {
                idx[pos] += 1;
                for later in pos + 1..k {
                    idx[later] = idx[later - 1] + 1;
                }
                break;
            }
            if pos == 0 {
                return (best_set, best_rel);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relcomp_ugraph::GraphBuilder;

    #[test]
    fn series_chain_is_product() {
        // 0 -> 1 -> 2 with p = 0.5, 0.4  =>  R = 0.2
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.4).unwrap();
        let g = b.build();
        assert!((exact_reliability(&g, NodeId(0), NodeId(2)) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn parallel_edges_via_two_paths() {
        // 0 -> 1 -> 3 and 0 -> 2 -> 3, all p = 0.5.
        // Each path works w.p. 0.25; R = 1 - (1 - 0.25)^2 = 0.4375.
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        b.add_edge(NodeId(1), NodeId(3), 0.5).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 0.5).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 0.5).unwrap();
        let g = b.build();
        assert!((exact_reliability(&g, NodeId(0), NodeId(3)) - 0.4375).abs() < 1e-12);
    }

    #[test]
    fn s_equals_t_is_one() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 0.1).unwrap();
        let g = b.build();
        assert_eq!(exact_reliability(&g, NodeId(1), NodeId(1)), 1.0);
    }

    #[test]
    fn unreachable_is_zero() {
        // Edge points the wrong way.
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(1), NodeId(0), 0.9).unwrap();
        let g = b.build();
        assert_eq!(exact_reliability(&g, NodeId(0), NodeId(1)), 0.0);
    }

    #[test]
    fn certain_edge_is_one() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        let g = b.build();
        assert!((exact_reliability(&g, NodeId(0), NodeId(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn best_upgrade_set_prefers_the_series_pair() {
        // Chain 0 -> 1 -> 3 (p = 0.1, 0.1) vs direct 0 -> 3 (p = 0.3):
        // the best 2-upgrade set to certainty is the chain (R = 1.0),
        // which no greedy-by-single-gain order would rank first.
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 0.1).unwrap();
        b.add_edge(NodeId(1), NodeId(3), 0.1).unwrap();
        b.add_edge(NodeId(0), NodeId(3), 0.3).unwrap();
        let g = b.build();
        let cands: Vec<EdgeUpdate> = g
            .edges()
            .map(|(e, _, _, _)| EdgeUpdate::new(e, 1.0).unwrap())
            .collect();
        let (set, rel) = exact_best_upgrade_set(&g, NodeId(0), NodeId(3), &cands, 2);
        assert_eq!(set, vec![EdgeId(0), EdgeId(1)]);
        assert!((rel - 1.0).abs() < 1e-12);
        // k = 0 is the plain exact answer; k beyond the pool clamps.
        let (empty, base) = exact_best_upgrade_set(&g, NodeId(0), NodeId(3), &cands, 0);
        assert!(empty.is_empty());
        assert!((base - exact_reliability(&g, NodeId(0), NodeId(3))).abs() < 1e-12);
        let (all, full) = exact_best_upgrade_set(&g, NodeId(0), NodeId(3), &cands, 9);
        assert_eq!(all.len(), 3);
        assert!((full - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bridge_example_from_paper_figure6_subpath() {
        // Triangle: 0 -> 1 (0.5), 0 -> 2 (0.5), 2 -> 1 (0.5).
        // R(0,1) = 1 - (1-0.5)(1-0.25) = 0.625
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 0.5).unwrap();
        b.add_edge(NodeId(2), NodeId(1), 0.5).unwrap();
        let g = b.build();
        assert!((exact_reliability(&g, NodeId(0), NodeId(1)) - 0.625).abs() < 1e-12);
    }
}
