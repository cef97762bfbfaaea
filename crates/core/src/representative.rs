//! Representative possible worlds — the "one good deterministic
//! instance" branch of the paper's Figure 2 spectrum (Parchas et al.,
//! SIGMOD'14 \[33\]; Song et al. \[37\]).
//!
//! Instead of sampling thousands of worlds per query, extract *one*
//! deterministic graph that preserves structural expectations, then
//! answer queries on it with plain BFS. We implement the two classic
//! extractors:
//!
//! * [`most_probable_world`] — include edge `e` iff `p(e) >= 0.5`
//!   (maximizes world probability under independence);
//! * [`average_degree_world`] (ADR-style) — greedily pick edges, highest
//!   probability first, while a node's included out-degree stays below
//!   its expected out-degree (rounded); preserves per-node expected
//!   degrees far better than thresholding on skewed graphs.
//!
//! These are *heuristics*: a reachability answer on a representative
//! world is 0/1, not a probability. Tests verify the structural
//! guarantees (degree preservation, determinism), not estimator accuracy.

use relcomp_ugraph::possible_world::PossibleWorld;
use relcomp_ugraph::{NodeId, UncertainGraph};

/// The threshold world: edge present iff `p(e) >= 0.5`.
pub fn most_probable_world(graph: &UncertainGraph) -> PossibleWorld {
    let mut world = PossibleWorld::empty(graph.num_edges());
    for (e, _, _, p) in graph.edges() {
        if p.value() >= 0.5 {
            world.set(e, true);
        }
    }
    world
}

/// ADR-style degree-preserving world: per source node, keep its highest-
/// probability out-edges until the node's *expected* out-degree (sum of
/// its edge probabilities, rounded to nearest) is met.
pub fn average_degree_world(graph: &UncertainGraph) -> PossibleWorld {
    let mut world = PossibleWorld::empty(graph.num_edges());
    for v in graph.nodes() {
        let mut out: Vec<(relcomp_ugraph::EdgeId, f64)> = graph
            .out_edges(v)
            .map(|(e, _)| (e, graph.prob(e).value()))
            .collect();
        if out.is_empty() {
            continue;
        }
        let expected: f64 = out.iter().map(|&(_, p)| p).sum();
        let budget = expected.round() as usize;
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        for &(e, _) in out.iter().take(budget) {
            world.set(e, true);
        }
    }
    world
}

/// Sum over nodes of |expected out-degree − included out-degree| — the
/// degree-discrepancy objective the ADR heuristic minimizes.
pub fn degree_discrepancy(graph: &UncertainGraph, world: &PossibleWorld) -> f64 {
    let mut total = 0.0;
    for v in graph.nodes() {
        let expected: f64 = graph.out_edges(v).map(|(e, _)| graph.prob(e).value()).sum();
        let included = graph
            .out_edges(v)
            .filter(|&(e, _)| world.contains(e))
            .count() as f64;
        total += (expected - included).abs();
    }
    total
}

/// Answer an s-t query on a representative world (0/1 reachability).
pub fn representative_reaches(
    graph: &UncertainGraph,
    world: &PossibleWorld,
    s: NodeId,
    t: NodeId,
) -> bool {
    world.reaches(graph, s, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use relcomp_ugraph::{Dataset, GraphBuilder};

    #[test]
    fn threshold_world_definition() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 0.6).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.4).unwrap();
        let g = b.build();
        let w = most_probable_world(&g);
        assert!(w.contains(g.find_edge(NodeId(0), NodeId(1)).unwrap()));
        assert!(!w.contains(g.find_edge(NodeId(1), NodeId(2)).unwrap()));
    }

    #[test]
    fn adr_keeps_expected_degree() {
        // One node with four 0.5 edges: expected degree 2 -> keep 2 edges.
        let mut b = GraphBuilder::new(5);
        for i in 1..5u32 {
            b.add_edge(NodeId(0), NodeId(i), 0.5).unwrap();
        }
        let g = b.build();
        let w = average_degree_world(&g);
        assert_eq!(w.num_present(), 2);
    }

    #[test]
    fn adr_beats_threshold_on_low_probability_hubs() {
        // Threshold drops ALL edges of a low-probability hub; ADR keeps
        // the expected number. NetHEPT-like probabilities make this stark.
        let g = Dataset::NetHept.generate_with_scale(0.05, 3);
        let thr = most_probable_world(&g);
        let adr = average_degree_world(&g);
        let d_thr = degree_discrepancy(&g, &thr);
        let d_adr = degree_discrepancy(&g, &adr);
        assert!(
            d_adr < d_thr,
            "ADR discrepancy {d_adr} should beat threshold {d_thr}"
        );
    }

    #[test]
    fn representative_queries_are_deterministic() {
        let g = Dataset::LastFm.generate_with_scale(0.05, 9);
        let w1 = average_degree_world(&g);
        let w2 = average_degree_world(&g);
        assert_eq!(w1, w2);
        let (s, t) = (NodeId(0), NodeId(5));
        assert_eq!(
            representative_reaches(&g, &w1, s, t),
            representative_reaches(&g, &w2, s, t)
        );
    }

    #[test]
    fn certain_graph_world_is_complete() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        let g = b.build();
        for w in [most_probable_world(&g), average_degree_world(&g)] {
            assert_eq!(w.num_present(), 2);
            assert!(representative_reaches(&g, &w, NodeId(0), NodeId(2)));
        }
    }
}
