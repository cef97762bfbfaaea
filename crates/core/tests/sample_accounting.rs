//! Sample accounting on the served dense path. The `(packed, scalar)`
//! world counters behind `relcomp_samples_total` are process-global, so
//! this file holds a single test: nothing else in its process samples.

use relcomp_core::packed::{dense_strategy, sample_counts};
use relcomp_core::ParallelSampler;
use relcomp_ugraph::{GraphBuilder, NodeId};
use std::sync::Arc;

/// A dense `estimate_mc` at K = 1000 runs three full 256-world lane
/// passes and one of 232 worlds whose last lane is partial: it must add
/// exactly 1000 packed worlds (the partial lane counts its 40 worlds, not
/// 64) and no scalar ones.
#[test]
fn dense_estimate_mc_counts_each_world_once_as_packed() {
    let mut b = GraphBuilder::new(4);
    for (u, v, p) in [
        (0, 1, 0.9),
        (1, 2, 0.9),
        (2, 3, 0.9),
        (3, 0, 0.9),
        (0, 2, 0.8),
        (2, 0, 0.8),
    ] {
        b.add_edge(NodeId(u), NodeId(v), p).unwrap();
    }
    let g = Arc::new(b.build());
    assert!(dense_strategy(&g));
    let (packed0, scalar0) = sample_counts();
    let est = ParallelSampler::new(g, 1).estimate_mc(NodeId(0), NodeId(3), 1000, 7);
    let (packed1, scalar1) = sample_counts();
    assert_eq!(est.samples, 1000);
    assert_eq!(packed1 - packed0, 1000);
    assert_eq!(scalar1 - scalar0, 0);
}
