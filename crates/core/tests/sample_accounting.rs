//! Sample accounting: each world counts once, as packed on the served
//! shards and in `PackedMcSampling`, as scalar in the one-world-at-a-time
//! session loop. The `(packed, scalar)` world counters behind
//! `relcomp_samples_total` are process-global, so this file holds a
//! single test: nothing else in its process samples.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use relcomp_core::packed::{dense_strategy, sample_counts};
use relcomp_core::probtree::ProbTree;
use relcomp_core::{Estimator, PackedMcSampling, ParallelSampler};
use relcomp_ugraph::{GraphBuilder, NodeId, UncertainGraph};
use std::sync::Arc;

fn graph(edges: &[(u32, u32, f64)]) -> Arc<UncertainGraph> {
    let mut b = GraphBuilder::new(4);
    for &(u, v, p) in edges {
        b.add_edge(NodeId(u), NodeId(v), p).unwrap();
    }
    Arc::new(b.build())
}

/// Served calls at K = 1000 run shards of 256, 256, 256 and 232 worlds.
/// On the dense graph the last shard is one lane pass whose last lane is
/// partial (R_d excepted, which always takes lazy passes; served
/// BFS-Sharing runs the same passes as MC, to full reach); on the lazy
/// graph it is three whole lazy words and a partial one. Either way each
/// call must add exactly 1000 packed worlds (a partial word counts its 40
/// worlds, not 64) and no scalar ones. `PackedMcSampling`'s session
/// batches split the same way. ProbTree with MC samples its worlds one at
/// a time on the index: 1000 scalar worlds and no packed ones.
#[test]
fn served_shards_count_each_world_once_as_packed() {
    let dense = graph(&[
        (0, 1, 0.9),
        (1, 2, 0.9),
        (2, 3, 0.9),
        (3, 0, 0.9),
        (0, 2, 0.8),
        (2, 0, 0.8),
    ]);
    assert!(dense_strategy(&dense));
    let lazy = graph(&[(0, 1, 0.5), (0, 2, 0.6), (1, 3, 0.7), (2, 3, 0.4)]);
    assert!(!dense_strategy(&lazy));
    let (s, t) = (NodeId(0), NodeId(3));
    for (g, is_dense) in [(dense, true), (lazy, false)] {
        let check = |name: &str, (packed, scalar): (u64, u64), call: &mut dyn FnMut() -> usize| {
            let (packed0, scalar0) = sample_counts();
            let samples = call();
            let (packed1, scalar1) = sample_counts();
            assert_eq!(samples, 1000, "{name} dense={is_dense}");
            assert_eq!(packed1 - packed0, packed, "{name} dense={is_dense}");
            assert_eq!(scalar1 - scalar0, scalar, "{name} dense={is_dense}");
        };
        let p = ParallelSampler::new(Arc::clone(&g), 1);
        let served = (1000, 0);
        check("estimate_mc", served, &mut || {
            p.estimate_mc(s, t, 1000, 7).samples
        });
        check("estimate_bfs_sharing", served, &mut || {
            p.estimate_bfs_sharing(s, t, 1000, 7).samples
        });
        check("top_k_targets", served, &mut || {
            p.top_k_targets(s, 2, 1000, 7).samples
        });
        check("estimate_mc_multi", served, &mut || {
            p.estimate_mc_multi(s, &[t, NodeId(2)], 1000, 7)[0].samples
        });
        check("estimate_distance_constrained", served, &mut || {
            p.estimate_distance_constrained(s, t, 2, 1000, 7).samples
        });

        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut packed_mc = PackedMcSampling::new(Arc::clone(&g));
        check("PackedMcSampling", (1000, 0), &mut || {
            packed_mc.estimate(s, t, 1000, &mut rng).samples
        });
        let mut probtree = ProbTree::new(Arc::clone(&g));
        check("ProbTree", (0, 1000), &mut || {
            probtree.estimate(s, t, 1000, &mut rng).samples
        });
    }
}
