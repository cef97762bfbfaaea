//! Most-reliable-path queries — the "simplified version of the
//! reliability problem" branch of the paper's Figure 2 spectrum
//! (Chen et al. \[9\], Kimura & Saito \[26\]).
//!
//! The *most reliable path* from `s` to `t` is the path maximizing the
//! product of its edge probabilities. Maximizing `prod p(e)` equals
//! minimizing `sum -ln p(e)`, so a Dijkstra run over non-negative weights
//! `-ln p(e)` solves it exactly. Its probability is also a cheap *lower
//! bound* on `R(s, t)` (the event "this one path exists" implies
//! reachability), which is how [`crate::bounds`] uses it.

use relcomp_ugraph::{EdgeId, NodeId, UncertainGraph};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A path with its existence probability.
#[derive(Clone, Debug, PartialEq)]
pub struct ReliablePath {
    /// Edges along the path, in order from `s` to `t`.
    pub edges: Vec<EdgeId>,
    /// Nodes along the path (`edges.len() + 1` entries), `s` first.
    pub nodes: Vec<NodeId>,
    /// Product of the edge probabilities.
    pub probability: f64,
}

/// Max-heap entry ordered by path probability (log-space).
struct HeapEntry {
    neg_log: f64,
    node: NodeId,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.neg_log == other.neg_log
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want the smallest -log (most
        // probable) first.
        other
            .neg_log
            .partial_cmp(&self.neg_log)
            .unwrap_or(Ordering::Equal)
    }
}

/// Find the most reliable `s`-`t` path, if any (Dijkstra over `-ln p`).
///
/// Returns `None` when `t` is unreachable. For `s == t` returns the empty
/// path with probability 1.
pub fn most_reliable_path(graph: &UncertainGraph, s: NodeId, t: NodeId) -> Option<ReliablePath> {
    assert!(
        graph.contains_node(s) && graph.contains_node(t),
        "query nodes out of range"
    );
    if s == t {
        return Some(ReliablePath {
            edges: vec![],
            nodes: vec![s],
            probability: 1.0,
        });
    }
    let n = graph.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut pred: Vec<Option<EdgeId>> = vec![None; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[s.index()] = 0.0;
    heap.push(HeapEntry {
        neg_log: 0.0,
        node: s,
    });

    while let Some(HeapEntry { neg_log, node }) = heap.pop() {
        if done[node.index()] {
            continue;
        }
        done[node.index()] = true;
        if node == t {
            break;
        }
        for (e, w) in graph.out_edges(node) {
            if done[w.index()] {
                continue;
            }
            let weight = -graph.prob(e).value().ln(); // >= 0 since p <= 1
            let cand = neg_log + weight;
            if cand < dist[w.index()] {
                dist[w.index()] = cand;
                pred[w.index()] = Some(e);
                heap.push(HeapEntry {
                    neg_log: cand,
                    node: w,
                });
            }
        }
    }

    if dist[t.index()].is_infinite() {
        return None;
    }
    // Reconstruct.
    let mut edges = Vec::new();
    let mut cur = t;
    while cur != s {
        let e = pred[cur.index()].expect("predecessor chain reaches s");
        edges.push(e);
        cur = graph.source(e);
    }
    edges.reverse();
    let mut nodes = vec![s];
    nodes.extend(edges.iter().map(|&e| graph.target(e)));
    let probability = edges.iter().map(|&e| graph.prob(e).value()).product();
    Some(ReliablePath {
        edges,
        nodes,
        probability,
    })
}

/// Probability that *all* edges of `path` exist (independent product) —
/// a convenience for externally-supplied paths.
pub fn path_probability(graph: &UncertainGraph, edges: &[EdgeId]) -> f64 {
    edges.iter().map(|&e| graph.prob(e).value()).product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use relcomp_ugraph::GraphBuilder;

    fn diamond() -> UncertainGraph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
        b.add_edge(NodeId(1), NodeId(3), 0.9).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 0.99).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 0.5).unwrap();
        b.build()
    }

    #[test]
    fn picks_the_higher_probability_route() {
        let g = diamond();
        let p = most_reliable_path(&g, NodeId(0), NodeId(3)).unwrap();
        // 0.9 * 0.9 = 0.81 beats 0.99 * 0.5 = 0.495.
        assert_eq!(p.nodes, vec![NodeId(0), NodeId(1), NodeId(3)]);
        assert!((p.probability - 0.81).abs() < 1e-12);
    }

    #[test]
    fn s_equals_t_is_the_empty_path() {
        let g = diamond();
        let p = most_reliable_path(&g, NodeId(2), NodeId(2)).unwrap();
        assert!(p.edges.is_empty());
        assert_eq!(p.probability, 1.0);
    }

    #[test]
    fn unreachable_is_none() {
        let g = diamond();
        assert!(most_reliable_path(&g, NodeId(3), NodeId(0)).is_none());
    }

    #[test]
    fn longer_but_stronger_path_wins() {
        // Direct edge 0 -> 2 (0.3) vs chain 0 -> 1 -> 2 (0.9 * 0.9).
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(2), 0.3).unwrap();
        b.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.9).unwrap();
        let g = b.build();
        let p = most_reliable_path(&g, NodeId(0), NodeId(2)).unwrap();
        assert_eq!(p.edges.len(), 2);
        assert!((p.probability - 0.81).abs() < 1e-12);
    }

    #[test]
    fn path_probability_is_product() {
        let g = diamond();
        let p = most_reliable_path(&g, NodeId(0), NodeId(3)).unwrap();
        assert!((path_probability(&g, &p.edges) - p.probability).abs() < 1e-12);
    }

    #[test]
    fn path_is_lower_bound_on_exact_reliability() {
        let g = diamond();
        let p = most_reliable_path(&g, NodeId(0), NodeId(3)).unwrap();
        let exact = crate::exact::exact_reliability(&g, NodeId(0), NodeId(3));
        assert!(p.probability <= exact + 1e-12);
    }
}
