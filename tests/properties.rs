//! Property-based tests (proptest) on the core invariants of the library.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use relcomp::prelude::*;
use relcomp_core::exact::exact_reliability;
use relcomp_ugraph::io::{read_graph, write_graph};
use relcomp_ugraph::probability::Probability as Prob;
use std::sync::Arc;

/// Strategy: a random small digraph as (n, edge list) with valid probs.
fn small_digraph() -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>)> {
    (4usize..9).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 0.05f64..1.0);
        (Just(n), proptest::collection::vec(edge, 0..14))
    })
}

fn build(n: usize, edges: &[(u32, u32, f64)]) -> UncertainGraph {
    let mut b = GraphBuilder::new(n).duplicate_policy(relcomp_ugraph::DuplicatePolicy::CombineOr);
    for &(u, v, p) in edges {
        if u != v {
            b.add_edge(NodeId(u), NodeId(v), p).unwrap();
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exact reliability is a probability.
    #[test]
    fn exact_reliability_is_in_unit_interval((n, edges) in small_digraph()) {
        let g = build(n, &edges);
        prop_assume!(g.num_edges() <= 20);
        let r = exact_reliability(&g, NodeId(0), NodeId((n - 1) as u32));
        prop_assert!((0.0..=1.0 + 1e-12).contains(&r));
    }

    /// Raising one edge's probability never lowers exact reliability.
    #[test]
    fn reliability_is_monotone_in_edge_probability(
        (n, edges) in small_digraph(),
        bump in 0.0f64..0.5,
    ) {
        let g = build(n, &edges);
        prop_assume!(g.num_edges() >= 1 && g.num_edges() <= 18);
        let (s, t) = (NodeId(0), NodeId((n - 1) as u32));
        let before = exact_reliability(&g, s, t);

        // Rebuild with the first edge's probability bumped up.
        let mut bumped: Vec<(u32, u32, f64)> = g
            .edges()
            .map(|(_, u, v, p)| (u.0, v.0, p.value()))
            .collect();
        bumped[0].2 = (bumped[0].2 + bump).min(1.0);
        let g2 = build(n, &bumped);
        let after = exact_reliability(&g2, s, t);
        prop_assert!(after >= before - 1e-9, "before {before}, after {after}");
    }

    /// MC at a healthy K lands within a loose Chernoff-style band of the
    /// exact value.
    #[test]
    fn mc_concentrates_near_exact((n, edges) in small_digraph(), seed in 0u64..1000) {
        let g = Arc::new(build(n, &edges));
        prop_assume!(g.num_edges() <= 18);
        let (s, t) = (NodeId(0), NodeId((n - 1) as u32));
        let exact = exact_reliability(&g, s, t);
        let mut mc = McSampling::new(Arc::clone(&g));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let est = mc.estimate(s, t, 8_000, &mut rng);
        // 8000 samples: SD <= 0.0056; 6 sigma ≈ 0.034.
        prop_assert!((est.reliability - exact).abs() < 0.05,
            "mc {} vs exact {exact}", est.reliability);
    }

    /// RSS and RHH stay unbiased through their strata, cut checks and
    /// leaves. With threshold 2 and r = 2, RSS splits into strata down to
    /// budgets of 2 (the r = 50 agreement suite never recurses on graphs
    /// this small), and RHH splits down to the same floor. A run's
    /// variance is at most about plain MC's at equal K, 0.25 / K, so the
    /// mean of 20 runs at K = 200 has SD <= 0.5 / sqrt(4000) ≈ 0.0079;
    /// the bound 0.05 is over 6 of those.
    #[test]
    fn recursive_estimators_match_exact(
        (n, edges) in small_digraph(),
        seed in 0u64..1000,
    ) {
        let g = Arc::new(build(n, &edges));
        prop_assume!(g.num_edges() <= 18);
        let (s, t) = (NodeId(0), NodeId((n - 1) as u32));
        let exact = exact_reliability(&g, s, t);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut rss = RecursiveStratified::with_params(Arc::clone(&g), 2, 2);
        let mut rhh = RecursiveSampling::with_threshold(Arc::clone(&g), 2);
        for est in [&mut rss as &mut dyn Estimator, &mut rhh] {
            let reps = 20;
            let mean = (0..reps)
                .map(|_| est.estimate(s, t, 200, &mut rng).reliability)
                .sum::<f64>()
                / reps as f64;
            prop_assert!((mean - exact).abs() < 0.05,
                "{} mean {mean} vs exact {exact}", est.name());
        }
    }

    /// ProbTree extraction is lossless: exact reliability of the query
    /// graph equals exact reliability of the original (w = 2 claim).
    #[test]
    fn probtree_extraction_is_lossless((n, edges) in small_digraph()) {
        let g = Arc::new(build(n, &edges));
        prop_assume!(g.num_edges() <= 16);
        let (s, t) = (NodeId(0), NodeId((n - 1) as u32));
        let exact = exact_reliability(&g, s, t);
        let index = relcomp_core::probtree::ProbTreeIndex::build(Arc::clone(&g));
        let q = index.extract_query_graph(s, t);
        prop_assume!(q.graph.num_edges() <= 20);
        let extracted = exact_reliability(&q.graph, q.s, q.t);
        prop_assert!((extracted - exact).abs() < 1e-9,
            "extraction changed reliability: {extracted} vs {exact}");
    }

    /// Graph IO round-trips losslessly.
    #[test]
    fn io_round_trip((n, edges) in small_digraph()) {
        let g = build(n, &edges);
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let g2 = read_graph(&buf[..]).unwrap();
        prop_assert_eq!(g2.num_nodes(), g.num_nodes());
        prop_assert_eq!(g2.num_edges(), g.num_edges());
        for (e, u, v, p) in g.edges() {
            let e2 = g2.find_edge(u, v).expect("edge preserved");
            prop_assert_eq!(e2, e);
            prop_assert!((g2.prob(e2).value() - p.value()).abs() < 1e-12);
        }
    }

    /// Independent-OR aggregation is commutative, monotone, and bounded.
    #[test]
    fn or_independent_axioms(p in 0.01f64..1.0, q in 0.01f64..1.0) {
        let (pp, qq) = (Prob::new(p).unwrap(), Prob::new(q).unwrap());
        let a = pp.or_independent(qq).value();
        let b = qq.or_independent(pp).value();
        prop_assert!((a - b).abs() < 1e-12);
        prop_assert!(a >= p - 1e-12 && a >= q - 1e-12);
        prop_assert!(a <= 1.0 + 1e-12);
    }

    /// Series composition: chain reliability is the product of edge
    /// probabilities.
    #[test]
    fn series_chain_closed_form(probs in proptest::collection::vec(0.05f64..1.0, 1..7)) {
        let mut b = GraphBuilder::new(probs.len() + 1);
        for (i, &p) in probs.iter().enumerate() {
            b.add_edge(NodeId(i as u32), NodeId(i as u32 + 1), p).unwrap();
        }
        let g = b.build();
        let r = exact_reliability(&g, NodeId(0), NodeId(probs.len() as u32));
        let expect: f64 = probs.iter().product();
        prop_assert!((r - expect).abs() < 1e-9);
    }

    /// Workload pairs always sit at the requested hop distance.
    #[test]
    fn workload_distance_invariant(seed in 0u64..50) {
        let g = Dataset::LastFm.generate_with_scale(0.05, seed);
        let w = Workload::generate(&g, 5, 2, seed);
        for &(s, t) in &w.pairs {
            let d = relcomp_ugraph::traversal::hop_distances(&g, s, 3);
            prop_assert_eq!(d[t.index()], Some(2));
        }
    }
}
