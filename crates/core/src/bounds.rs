//! Polynomial-time lower/upper bounds on s-t reliability — the "Theory"
//! branch of the paper's Figure 2 spectrum (Ball & Provan \[5\], Brecht &
//! Colbourn \[7\], Bulka & Dugan \[8\]).
//!
//! Bounds are cheap sanity rails around the sampling estimators:
//!
//! * **Lower bound** — take a set of pairwise *edge-disjoint* s-t paths
//!   `P_1..P_k` (greedily, most reliable first). Each path exists fully
//!   with probability `prod p(e)`, the events are independent (disjoint
//!   edge sets), and any of them implies reachability:
//!   `R >= 1 - prod_i (1 - Pr[P_i])`.
//! * **Upper bound** — for any s-t edge cut `C`, reachability requires at
//!   least one cut edge to exist: `R <= 1 - prod_{e in C} (1 - p(e))`.
//!   We evaluate every BFS-level cut (edges crossing from nodes at depth
//!   `< d` to depth `>= d`, which always separates s from t) plus the
//!   trivial cuts (s's out-edges, t's in-edges), and keep the minimum.
//!
//! Both are valid for every graph; tightness varies (dense graphs with
//! many short paths push both toward the truth). Property tests verify
//! `lower <= exact <= upper` on random graphs.

use crate::paths::most_reliable_path;
use relcomp_ugraph::{NodeId, UncertainGraph};
use std::collections::HashSet;

/// A `[lower, upper]` enclosure of `R(s, t)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReliabilityBounds {
    /// Guaranteed lower bound.
    pub lower: f64,
    /// Guaranteed upper bound.
    pub upper: f64,
}

impl ReliabilityBounds {
    /// Width of the enclosure.
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }

    /// True if `r` lies inside the enclosure (with tolerance).
    pub fn contains(&self, r: f64) -> bool {
        r >= self.lower - 1e-9 && r <= self.upper + 1e-9
    }
}

/// Compute both bounds. `max_paths` caps the greedy disjoint-path search
/// (the paper-cited bounds use small families; 8 is plenty in practice).
pub fn reliability_bounds(
    graph: &UncertainGraph,
    s: NodeId,
    t: NodeId,
    max_paths: usize,
) -> ReliabilityBounds {
    assert!(
        graph.contains_node(s) && graph.contains_node(t),
        "query nodes out of range"
    );
    if s == t {
        return ReliabilityBounds {
            lower: 1.0,
            upper: 1.0,
        };
    }
    ReliabilityBounds {
        lower: disjoint_paths_lower_bound(graph, s, t, max_paths),
        upper: level_cut_upper_bound(graph, s, t),
    }
}

/// Greedy edge-disjoint-paths lower bound (see module docs).
pub fn disjoint_paths_lower_bound(
    graph: &UncertainGraph,
    s: NodeId,
    t: NodeId,
    max_paths: usize,
) -> f64 {
    if s == t {
        return 1.0;
    }
    // Work on a shrinking copy: re-run Dijkstra with used edges removed.
    // We emulate removal with a ban set (the graph is immutable).
    let mut banned: HashSet<relcomp_ugraph::EdgeId> = HashSet::new();
    let mut miss_all = 1.0f64;
    let mut found_any = false;
    for _ in 0..max_paths {
        // Most reliable path avoiding banned edges: rebuild a filtered
        // view through a masked Dijkstra (cheapest correct option:
        // materialize a filtered graph).
        let Some(path) = masked_most_reliable_path(graph, s, t, &banned) else {
            break;
        };
        found_any = true;
        miss_all *= 1.0 - path.probability;
        for e in path.edges {
            banned.insert(e);
        }
    }
    if found_any {
        1.0 - miss_all
    } else {
        0.0
    }
}

/// Dijkstra over `-ln p` skipping banned edges.
fn masked_most_reliable_path(
    graph: &UncertainGraph,
    s: NodeId,
    t: NodeId,
    banned: &HashSet<relcomp_ugraph::EdgeId>,
) -> Option<crate::paths::ReliablePath> {
    if banned.is_empty() {
        return most_reliable_path(graph, s, t);
    }
    // Rebuild a filtered graph; bounded work and keeps one Dijkstra
    // implementation. Node ids are preserved.
    let mut b =
        relcomp_ugraph::GraphBuilder::new(graph.num_nodes()).with_edge_capacity(graph.num_edges());
    for (e, u, v, p) in graph.edges() {
        if !banned.contains(&e) {
            b.add_edge_prob(u, v, p).expect("already validated");
        }
    }
    let filtered = b.build();
    let path = most_reliable_path(&filtered, s, t)?;
    // Map the filtered edge ids back to the original graph's ids.
    let mut edges = Vec::with_capacity(path.edges.len());
    for w in path.nodes.windows(2) {
        edges.push(
            graph
                .find_edge(w[0], w[1])
                .expect("edge exists in original"),
        );
    }
    Some(crate::paths::ReliablePath {
        edges,
        nodes: path.nodes,
        probability: path.probability,
    })
}

/// Minimum over all BFS-level cuts and the trivial endpoint cuts (see
/// module docs). Returns 0 when `t` is unreachable (the empty cut).
pub fn level_cut_upper_bound(graph: &UncertainGraph, s: NodeId, t: NodeId) -> f64 {
    if s == t {
        return 1.0;
    }
    let dist = relcomp_ugraph::traversal::hop_distances(graph, s, graph.num_nodes());
    let Some(t_depth) = dist[t.index()] else {
        return 0.0; // unreachable even with every edge present
    };
    debug_assert!(t_depth >= 1);

    // For each depth d in 1..=t_depth, the cut = edges from depth < d
    // (reachable side) to depth >= d or unreachable. Any s-t path crosses
    // it. Accumulate per-level products of (1 - p).
    let mut level_miss = vec![1.0f64; t_depth as usize + 1]; // index by d
    for (_e, u, v, p) in graph.edges() {
        let Some(du) = dist[u.index()] else { continue };
        let dv = dist[v.index()];
        // Edge crosses cut d iff du < d and (dv unreachable-from-s is
        // impossible here since v has an in-edge from a reachable node;
        // treat missing as +inf) dv >= d.
        let dv = dv.unwrap_or(u32::MAX);
        if dv > du {
            let lo = du + 1;
            let hi = dv.min(t_depth);
            for d in lo..=hi {
                level_miss[d as usize] *= 1.0 - p.value();
            }
        }
    }
    let mut best = 1.0f64;
    for &miss in level_miss.iter().take(t_depth as usize + 1).skip(1) {
        best = best.min(1.0 - miss);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_reliability;
    use relcomp_ugraph::GraphBuilder;

    fn diamond(p: f64) -> UncertainGraph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), p).unwrap();
        b.add_edge(NodeId(1), NodeId(3), p).unwrap();
        b.add_edge(NodeId(0), NodeId(2), p).unwrap();
        b.add_edge(NodeId(2), NodeId(3), p).unwrap();
        b.build()
    }

    #[test]
    fn diamond_bounds_are_exact_enclosure() {
        let g = diamond(0.5);
        let exact = exact_reliability(&g, NodeId(0), NodeId(3)); // 0.4375
        let b = reliability_bounds(&g, NodeId(0), NodeId(3), 8);
        assert!(b.contains(exact), "{b:?} vs exact {exact}");
        // Two disjoint paths of prob 0.25 each: lower = 1 - 0.75^2.
        assert!((b.lower - 0.4375).abs() < 1e-12);
        // Level cut of two edges with p = 0.5: upper = 0.75.
        assert!((b.upper - 0.75).abs() < 1e-12);
    }

    #[test]
    fn chain_bounds_collapse_to_exact() {
        // A chain has one path and single-edge cuts: lower = product,
        // upper = min edge probability.
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 0.6).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.3).unwrap();
        let g = b.build();
        let bounds = reliability_bounds(&g, NodeId(0), NodeId(2), 4);
        assert!((bounds.lower - 0.18).abs() < 1e-12);
        assert!((bounds.upper - 0.3).abs() < 1e-12);
        let exact = exact_reliability(&g, NodeId(0), NodeId(2));
        assert!(bounds.contains(exact));
    }

    #[test]
    fn unreachable_gives_zero_zero() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(1), NodeId(0), 0.9).unwrap();
        let g = b.build();
        let bounds = reliability_bounds(&g, NodeId(0), NodeId(1), 4);
        assert_eq!(bounds.lower, 0.0);
        assert_eq!(bounds.upper, 0.0);
    }

    #[test]
    fn s_equals_t_is_tight_one() {
        let g = diamond(0.5);
        let b = reliability_bounds(&g, NodeId(1), NodeId(1), 4);
        assert_eq!((b.lower, b.upper), (1.0, 1.0));
    }

    #[test]
    fn more_paths_tighten_lower_bound() {
        let g = diamond(0.5);
        let one = disjoint_paths_lower_bound(&g, NodeId(0), NodeId(3), 1);
        let two = disjoint_paths_lower_bound(&g, NodeId(0), NodeId(3), 2);
        assert!(two > one);
    }

    #[test]
    fn width_shrinks_with_probability_extremes() {
        let strong = diamond(0.99);
        let b = reliability_bounds(&strong, NodeId(0), NodeId(3), 8);
        assert!(b.width() < 0.03, "width {}", b.width());
    }
}
