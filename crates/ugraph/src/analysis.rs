//! Structural analysis of uncertain graphs: degree distributions and weakly
//! connected components.
//!
//! Used by the dataset-analog validation (the paper's datasets are
//! heavy-tailed small-world networks; our generators must be too) and by
//! the CLI's `stats` command.

use crate::graph::UncertainGraph;
use crate::ids::NodeId;
use crate::stats::Summary;

/// Degree statistics for one direction.
#[derive(Clone, Debug)]
pub struct DegreeStats {
    /// Mean / SD / quartiles of the degree distribution.
    pub summary: Summary,
    /// Maximum degree.
    pub max: usize,
    /// Number of degree-zero nodes.
    pub zeros: usize,
}

/// Compute out- or in-degree statistics.
pub fn degree_stats(graph: &UncertainGraph, out: bool) -> DegreeStats {
    let degrees: Vec<f64> = graph
        .nodes()
        .map(|v| if out { graph.out_degree(v) } else { graph.in_degree(v) } as f64)
        .collect();
    let max = degrees.iter().cloned().fold(0.0, f64::max) as usize;
    let zeros = degrees.iter().filter(|&&d| d == 0.0).count();
    DegreeStats {
        summary: Summary::of(&degrees).expect("graph has nodes"),
        max,
        zeros,
    }
}

/// Weakly connected components (direction ignored). Returns per-node
/// component ids (dense, 0-based) and the component count.
pub fn weakly_connected_components(graph: &UncertainGraph) -> (Vec<u32>, usize) {
    let n = graph.num_nodes();
    let mut comp = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut stack = Vec::new();
    for start in 0..n {
        if comp[start] != u32::MAX {
            continue;
        }
        comp[start] = next;
        stack.push(NodeId::from_index(start));
        while let Some(v) = stack.pop() {
            for (_, w) in graph.out_edges(v) {
                if comp[w.index()] == u32::MAX {
                    comp[w.index()] = next;
                    stack.push(w);
                }
            }
            for (_, u) in graph.in_edges(v) {
                if comp[u.index()] == u32::MAX {
                    comp[u.index()] = next;
                    stack.push(u);
                }
            }
        }
        next += 1;
    }
    (comp, next as usize)
}

/// Size of the largest weakly connected component.
pub fn largest_component_size(graph: &UncertainGraph) -> usize {
    let (comp, count) = weakly_connected_components(graph);
    let mut sizes = vec![0usize; count];
    for c in comp {
        sizes[c as usize] += 1;
    }
    sizes.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::datasets::Dataset;

    fn two_islands() -> UncertainGraph {
        let mut b = GraphBuilder::new(5);
        b.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.5).unwrap();
        b.add_edge(NodeId(3), NodeId(4), 0.5).unwrap();
        b.build()
    }

    #[test]
    fn component_labeling() {
        let g = two_islands();
        let (comp, count) = weakly_connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        assert_eq!(largest_component_size(&g), 3);
    }

    #[test]
    fn degree_stats_directions() {
        let g = two_islands();
        let out = degree_stats(&g, true);
        let inn = degree_stats(&g, false);
        assert_eq!(out.max, 1);
        assert_eq!(out.zeros, 2); // nodes 2 and 4
        assert_eq!(inn.zeros, 2); // nodes 0 and 3
        assert!((out.summary.mean - 3.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn ba_analogs_have_hubs_and_one_component() {
        let g = Dataset::LastFm.generate_with_scale(0.1, 5);
        let out = degree_stats(&g, true);
        assert!(out.max as f64 > 5.0 * out.summary.mean);
        // BA growth keeps the graph connected.
        assert_eq!(largest_component_size(&g), g.num_nodes());
    }

    #[test]
    fn empty_cases() {
        let g = GraphBuilder::new(0).build();
        let (_, count) = weakly_connected_components(&g);
        assert_eq!(count, 0);
    }
}
