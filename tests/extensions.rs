//! Integration + property tests for the extension modules (bounds, paths,
//! top-k and distance-constrained queries).

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use relcomp::prelude::*;
use relcomp_core::bounds::{disjoint_paths_lower_bound, reliability_bounds};
use relcomp_core::distance_constrained::{
    distance_constrained_with, exact_distance_constrained, mc_distance_constrained,
};
use relcomp_core::exact::exact_reliability;
use relcomp_core::paths::most_reliable_path;
use relcomp_core::topk::{top_k_targets_indexed, top_k_targets_mc};
use relcomp_ugraph::generators::erdos_renyi;
use relcomp_ugraph::probmodel::{Direction, ProbModel};
use std::sync::Arc;

fn random_graph(seed: u64, n: usize, m: usize) -> UncertainGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let pairs = erdos_renyi(n, m, &mut rng);
    ProbModel::UniformChoice {
        choices: vec![0.2, 0.5, 0.8],
    }
    .apply(n, &pairs, Direction::RandomOriented, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// lower <= exact <= upper on random small digraphs.
    #[test]
    fn bounds_enclose_exact(seed in 0u64..500) {
        let g = random_graph(seed, 8, 12);
        prop_assume!(g.num_edges() <= 20);
        let (s, t) = (NodeId(0), NodeId(7));
        let exact = exact_reliability(&g, s, t);
        let b = reliability_bounds(&g, s, t, 8);
        prop_assert!(b.lower <= exact + 1e-9, "lower {} > exact {exact}", b.lower);
        prop_assert!(b.upper >= exact - 1e-9, "upper {} < exact {exact}", b.upper);
    }

    /// The most reliable path's probability is a lower bound, and matches
    /// the single-path disjoint bound.
    #[test]
    fn mrp_is_consistent_with_bounds(seed in 0u64..200) {
        let g = random_graph(seed, 8, 12);
        let (s, t) = (NodeId(0), NodeId(7));
        let single = disjoint_paths_lower_bound(&g, s, t, 1);
        match most_reliable_path(&g, s, t) {
            Some(p) => prop_assert!((p.probability - single).abs() < 1e-12),
            None => prop_assert_eq!(single, 0.0),
        }
    }

    /// Distance-constrained reliability is monotone in d and converges to
    /// the unconstrained value.
    #[test]
    fn distance_constrained_monotone(seed in 0u64..100) {
        let g = random_graph(seed, 7, 10);
        prop_assume!(g.num_edges() <= 18);
        let (s, t) = (NodeId(0), NodeId(6));
        let unconstrained = exact_reliability(&g, s, t);
        let mut prev = 0.0;
        for d in 0..=7 {
            let r = exact_distance_constrained(&g, s, t, d);
            prop_assert!(r >= prev - 1e-12);
            prev = r;
        }
        prop_assert!((prev - unconstrained).abs() < 1e-9);
    }

    /// Adaptive `R_d` sessions land within the reported Wilson half-width
    /// of the exact enumeration oracle. The budget runs at 99.9%
    /// confidence so that, over the deterministic proptest seeds, a
    /// correct interval essentially never excludes the truth.
    #[test]
    fn adaptive_distance_constrained_brackets_exact(seed in 0u64..300) {
        let g = random_graph(seed, 7, 10);
        prop_assume!(g.num_edges() <= 18);
        let (s, t) = (NodeId(0), NodeId(6));
        for d in [1usize, 2, 4] {
            let exact = exact_distance_constrained(&g, s, t, d);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD15);
            let budget = SampleBudget::adaptive(0.05, 30_000).with_confidence(0.999);
            let est = distance_constrained_with(&g, s, t, d, &budget, &mut rng);
            prop_assert!(est.samples <= 30_000);
            let hw = est.half_width.expect("wilson CI");
            prop_assert!(
                (est.reliability - exact).abs() <= hw,
                "d={d}: {} vs exact {exact} outside half-width {hw} ({} samples, {:?})",
                est.reliability, est.samples, est.stop_reason
            );
        }
    }

    /// Top-k rankings from the parallel sharded path are bit-identical to
    /// the single-thread path for any thread count — fixed and adaptive
    /// budgets alike (the adaptive stopping decision happens at
    /// deterministic shard-group barriers).
    #[test]
    fn parallel_topk_is_thread_count_invariant(seed in 0u64..100, k in 1usize..6) {
        let g = Arc::new(random_graph(seed, 9, 16));
        let s = NodeId(0);
        let fixed = SampleBudget::fixed(2 * relcomp_core::parallel::SHARD_SAMPLES + 31);
        let adaptive = SampleBudget::adaptive(0.1, 20_000);
        for budget in [fixed, adaptive] {
            let baseline =
                ParallelSampler::new(Arc::clone(&g), 1).top_k_targets_with(s, k, &budget, seed);
            for threads in [2usize, 5, 8] {
                let got = ParallelSampler::new(Arc::clone(&g), threads)
                    .top_k_targets_with(s, k, &budget, seed);
                prop_assert_eq!(got.samples, baseline.samples);
                prop_assert_eq!(got.stop_reason, baseline.stop_reason);
                prop_assert_eq!(got.scores.len(), baseline.scores.len());
                for (a, b) in got.scores.iter().zip(&baseline.scores) {
                    prop_assert_eq!(a.node, b.node);
                    prop_assert_eq!(a.reliability.to_bits(), b.reliability.to_bits());
                }
            }
        }
    }
}

#[test]
fn topk_indexed_and_mc_agree_on_dataset_analog() {
    let g = std::sync::Arc::new(Dataset::LastFm.generate_with_scale(0.05, 17));
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let index = relcomp_core::bfs_sharing::BfsSharingIndex::build(&g, 4000, &mut rng);
    let s = NodeId(0);
    let indexed = top_k_targets_indexed(&g, &index, s, 10, 4000);
    let mc = top_k_targets_mc(&g, s, 10, 4000, &mut rng);
    assert!(!indexed.is_empty());
    // Rankings from two independent 4000-sample estimates: require
    // substantial overlap in the top-10 sets.
    let set: std::collections::HashSet<_> = indexed.iter().map(|t| t.node).collect();
    let overlap = mc.iter().filter(|t| set.contains(&t.node)).count();
    assert!(overlap >= 6, "only {overlap}/10 overlap");
}

#[test]
fn distance_constrained_mc_tracks_exact_on_random_graph() {
    let g = random_graph(3, 7, 10);
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    for d in [1usize, 2, 3] {
        let exact = exact_distance_constrained(&g, NodeId(0), NodeId(6), d);
        let mc = mc_distance_constrained(&g, NodeId(0), NodeId(6), d, 30_000, &mut rng);
        assert!((mc - exact).abs() < 0.02, "d={d}: {mc} vs {exact}");
    }
}

#[test]
fn bounds_width_shrinks_with_more_paths() {
    let g = Dataset::LastFm.generate_with_scale(0.05, 23);
    let w = Workload::generate(&g, 5, 2, 3);
    for &(s, t) in &w.pairs {
        let lo1 = disjoint_paths_lower_bound(&g, s, t, 1);
        let lo4 = disjoint_paths_lower_bound(&g, s, t, 4);
        assert!(lo4 >= lo1 - 1e-12);
    }
}
