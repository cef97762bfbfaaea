//! Property tests for the packed 64-world sampling layer: sub-word fixed
//! budgets are bit-identical to scalar MC, word-sized and adaptive
//! budgets agree statistically, a dense multi-lane pass equals one-lane
//! passes bit for bit, the two mask-drawing strategies (geometric
//! skipping vs dense fill) draw the same distribution, BFS-Sharing's
//! offline world index, drawn through the same mask kernel, keeps its
//! slices inside `L` worlds, and served BFS-Sharing is thread-invariant,
//! exact on unreachable and `s == t` pairs, and equal to served MC bit
//! for bit on dense-strategy graphs.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use relcomp_core::bfs_sharing::BfsSharingIndex;
use relcomp_core::exact::exact_reliability;
use relcomp_core::mc::McSampling;
use relcomp_core::packed::{
    dense_mask, dense_strategy, geometric_mask, packed_lanes_all, packed_lanes_st,
    PackedMcSampling, PackedWorkspace, LANES,
};
use relcomp_core::session::SampleBudget;
use relcomp_core::{Estimate, Estimator, ParallelSampler};
use relcomp_ugraph::{EdgeId, EdgeUpdate, GraphBuilder, NodeId, UncertainGraph};
use std::sync::Arc;

/// Strategy: a random small digraph as (n, edge list) with valid probs.
fn small_digraph() -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>)> {
    (4usize..9).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 0.05f64..1.0);
        (Just(n), proptest::collection::vec(edge, 1..14))
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fixed budgets below one 64-world word never engage the packed
    /// path, so the packed estimator must reproduce scalar MC bit for
    /// bit: same coin stream, same hit fraction, same sample count.
    #[test]
    fn sub_word_fixed_k_is_bit_identical_to_scalar(
        (n, edges) in small_digraph(),
        seed in 0u64..500,
        k in 1usize..64,
    ) {
        let g = Arc::new(build(n, &edges));
        let (s, t) = (NodeId(0), NodeId((n - 1) as u32));
        let mut scalar = McSampling::new(Arc::clone(&g));
        let mut packed = PackedMcSampling::new(Arc::clone(&g));
        let a = scalar.estimate(s, t, k, &mut ChaCha8Rng::seed_from_u64(seed));
        let b = packed.estimate(s, t, k, &mut ChaCha8Rng::seed_from_u64(seed));
        prop_assert_eq!(a.reliability.to_bits(), b.reliability.to_bits());
        prop_assert_eq!(a.samples, b.samples);
    }

    /// Word-sized fixed budgets run the packed kernel; the worlds differ
    /// from scalar MC's but the estimate concentrates on the same truth.
    /// 2.5 / sqrt(k) is five Bernoulli standard deviations at the
    /// worst-case variance p = 1/2.
    #[test]
    fn packed_fixed_k_concentrates_near_exact(
        (n, edges) in small_digraph(),
        seed in 0u64..500,
        words in 2usize..24,
    ) {
        let g = Arc::new(build(n, &edges));
        let (s, t) = (NodeId(0), NodeId((n - 1) as u32));
        let exact = exact_reliability(&g, s, t);
        let k = words * 64;
        let mut packed = PackedMcSampling::new(Arc::clone(&g));
        let est = packed.estimate(s, t, k, &mut ChaCha8Rng::seed_from_u64(seed));
        prop_assert_eq!(est.samples, k);
        prop_assert!(
            (est.reliability - exact).abs() <= 2.5 / (k as f64).sqrt(),
            "packed {} vs exact {} at k = {k}", est.reliability, exact,
        );
    }

    /// Under adaptive budgets the packed session stops on its Wilson
    /// interval; the reported estimate must sit within a small multiple
    /// of that half-width of the exact reliability (slack covers runs
    /// that hit the hard cap before converging).
    #[test]
    fn packed_adaptive_tracks_exact_within_half_width(
        (n, edges) in small_digraph(),
        seed in 0u64..500,
        eps in 0.05f64..0.4,
    ) {
        let g = Arc::new(build(n, &edges));
        let (s, t) = (NodeId(0), NodeId((n - 1) as u32));
        let exact = exact_reliability(&g, s, t);
        let mut packed = PackedMcSampling::new(Arc::clone(&g));
        let budget = SampleBudget::adaptive(eps, 20_000);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let est = packed.estimate_with(s, t, &budget, &mut rng);
        prop_assert!(est.is_valid());
        prop_assert!(est.samples <= 20_000);
        let hw = est.half_width.expect("bernoulli CI");
        prop_assert!(
            (est.reliability - exact).abs() <= 3.0 * hw + 0.02,
            "packed {} vs exact {} (half-width {hw})", est.reliability, exact,
        );
    }
}

/// Strategy: a random digraph dense enough for the lane sweep as
/// (n, edge list). Two to five edges per node, 80% with p in `0.3..1.0`
/// and 20% at or below 0.02 (the geometric mask path); cases
/// whose mean offspring still falls short are discarded by the test.
fn dense_digraph() -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>)> {
    (4usize..10).prop_flat_map(|n| {
        let p = (0.0f64..1.0).prop_map(|u| {
            if u < 0.2 {
                0.001 + u * 0.095
            } else {
                0.3 + (u - 0.2) * 0.875
            }
        });
        let edge = (0..n as u32, 0..n as u32, p);
        (Just(n), proptest::collection::vec(edge, 2 * n..5 * n))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A dense pass over `L` lanes (the last one partial) must equal `L`
    /// one-lane passes drawn from the same stream, bit for bit: lane `j`
    /// takes the `j`-th lane seed and keys every edge mask by it, so
    /// neither the other lanes nor the sweep order can move a world. The
    /// s-t pass is compared on `t`'s lanes, the all-reach pass on every
    /// node's. With `s == t` the target holds exactly the live worlds:
    /// `tail` of them in the partial lane, not 64.
    #[test]
    fn lane_pass_equals_one_lane_passes(
        (n, edges) in dense_digraph(),
        seed in 0u64..500,
        full in 0usize..LANES,
        tail in 1usize..64,
        same in 0u8..2,
    ) {
        let g = build(n, &edges);
        prop_assume!(dense_strategy(&g));
        let s = NodeId(0);
        let same = same == 1;
        let t = if same { s } else { NodeId((n - 1) as u32) };
        let worlds = full * 64 + tail;
        let lanes = full + 1;
        let lane_len = |j: usize| if j == full { tail } else { 64 };

        let mut ws = PackedWorkspace::for_graph(&g);
        let mut one = PackedWorkspace::for_graph(&g);
        let wide = packed_lanes_st(&g, s, t, worlds, &mut ws, &mut ChaCha8Rng::seed_from_u64(seed));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for (j, len) in (0..lanes).map(lane_len).enumerate() {
            let single = packed_lanes_st(&g, s, t, len, &mut one, &mut rng);
            prop_assert_eq!(single[0], wide[j], "s-t lane {}", j);
            prop_assert!(single[1..].iter().all(|&w| w == 0));
        }
        prop_assert!(wide[lanes..].iter().all(|&w| w == 0));
        prop_assert_eq!(wide[full] >> tail, 0, "bits past the partial lane");
        if same {
            prop_assert_eq!(wide[full].count_ones() as usize, tail);
            let hits: u32 = wide.iter().map(|w| w.count_ones()).sum();
            prop_assert_eq!(hits as usize, worlds);
        }

        let wide: Vec<[u64; LANES]> =
            packed_lanes_all(&g, s, worlds, &mut ws, &mut ChaCha8Rng::seed_from_u64(seed))
                .reach()
                .to_vec();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for (j, len) in (0..lanes).map(lane_len).enumerate() {
            let single = packed_lanes_all(&g, s, len, &mut one, &mut rng);
            for (v, reach) in single.reach().iter().enumerate() {
                prop_assert_eq!(reach[0], wide[v][j], "node {} lane {}", v, j);
            }
        }
        prop_assert_eq!(wide[0][full].count_ones() as usize, tail);
    }
}

/// World budgets for BFS-Sharing: a quarter below one 64-world word, half
/// in `64..1200` (mostly not multiples of 64), and a quarter in
/// `64..limit`, so a `limit` past 2048 reaches a second adaptive round.
fn world_budget(limit: usize) -> impl Strategy<Value = usize> {
    (0usize..4).prop_flat_map(move |arm| match arm {
        0 => 1..64,
        1 | 2 => 64..1200,
        _ => 64..limit,
    })
}

/// Every slice of `index` holds at most `l` worlds and no bit at or above
/// `l`.
fn slices_within_l(index: &BfsSharingIndex, m: usize) -> Result<(), proptest::TestCaseError> {
    let l = index.num_worlds();
    for e in 0..m {
        let words = index.edge_words(EdgeId::from_index(e));
        prop_assert_eq!(words.len(), l.div_ceil(64));
        let ones: usize = words.iter().map(|w| w.count_ones() as usize).sum();
        prop_assert!(ones <= l, "edge {} has {} of {} worlds", e, ones, l);
        if l % 64 != 0 {
            prop_assert_eq!(words[words.len() - 1] >> (l % 64), 0, "edge {} past l", e);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Served BFS-Sharing under a fixed budget — sub-word, not a multiple
    /// of 64, one or several shards — answers bit-identically on 1
    /// (inline), 2 and 8 (spawned) worker threads, and stays within five
    /// worst-case standard deviations (2.5 / sqrt(k)) of the exact
    /// reliability.
    #[test]
    fn served_bfs_sharing_fixed_is_thread_invariant_and_near_exact(
        (n, edges) in small_digraph(),
        seed in 0u64..500,
        k in world_budget(1200),
    ) {
        let g = Arc::new(build(n, &edges));
        let (s, t) = (NodeId(0), NodeId((n - 1) as u32));
        let exact = exact_reliability(&g, s, t);
        let base = ParallelSampler::new(Arc::clone(&g), 1).estimate_bfs_sharing(s, t, k, seed);
        prop_assert_eq!(base.samples, k);
        for threads in [2usize, 8] {
            let est = ParallelSampler::new(Arc::clone(&g), threads)
                .estimate_bfs_sharing(s, t, k, seed);
            prop_assert_eq!(est.reliability.to_bits(), base.reliability.to_bits());
            prop_assert_eq!(est.samples, k);
        }
        prop_assert!(
            (base.reliability - exact).abs() <= 2.5 / (k as f64).sqrt(),
            "served {} vs exact {} at k = {k}", base.reliability, exact,
        );
    }

    /// Served BFS-Sharing under an adaptive budget: the same invariance
    /// (estimate, samples, stop reason) across 1, 2 and 8 threads, and
    /// the same five-sigma bound at the samples actually drawn. Caps run
    /// past one 2048-world round so the barrier loop is exercised too.
    #[test]
    fn served_bfs_sharing_adaptive_is_thread_invariant_and_near_exact(
        (n, edges) in small_digraph(),
        seed in 0u64..500,
        cap in world_budget(6000),
        eps in 0.05f64..0.4,
    ) {
        let g = Arc::new(build(n, &edges));
        let (s, t) = (NodeId(0), NodeId((n - 1) as u32));
        let exact = exact_reliability(&g, s, t);
        let budget = SampleBudget::adaptive(eps, cap);
        let base = ParallelSampler::new(Arc::clone(&g), 1)
            .estimate_bfs_sharing_with(s, t, &budget, seed);
        prop_assert!(base.samples > 0 && base.samples <= cap);
        for threads in [2usize, 8] {
            let est = ParallelSampler::new(Arc::clone(&g), threads)
                .estimate_bfs_sharing_with(s, t, &budget, seed);
            prop_assert_eq!(est.reliability.to_bits(), base.reliability.to_bits());
            prop_assert_eq!(est.samples, base.samples);
            prop_assert_eq!(est.stop_reason, base.stop_reason);
        }
        prop_assert!(
            (base.reliability - exact).abs() <= 2.5 / (base.samples as f64).sqrt(),
            "served {} vs exact {} at {} samples", base.reliability, exact, base.samples,
        );
    }

    /// The offline index draws through the same slice drawer: after a
    /// full build and after an incremental re-draw, every slice holds at
    /// most `l` worlds (none at or above `l`), and a `p = 1` edge holds
    /// exactly `l`.
    #[test]
    fn offline_index_slices_stay_within_l(
        (n, edges) in small_digraph(),
        seed in 0u64..500,
        l in world_budget(1200),
        pick in 0usize..1000,
    ) {
        let mut edges = edges;
        edges.push((0, 1, 1.0)); // OR-combined with any duplicate: still p = 1
        let g = build(n, &edges);
        let sure = g.find_edge(NodeId(0), NodeId(1)).expect("p = 1 edge");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut index = BfsSharingIndex::build(&g, l, &mut rng);
        slices_within_l(&index, g.num_edges())?;
        let ones = |index: &BfsSharingIndex, e: EdgeId| -> usize {
            index.edge_words(e).iter().map(|w| w.count_ones() as usize).sum()
        };
        prop_assert_eq!(ones(&index, sure), l);

        let e = EdgeId::from_index(pick % g.num_edges());
        let updated = g.with_updated_probs(&[EdgeUpdate::new(e, 1.0).unwrap()]);
        index.resample_edges(&updated, &[e], &mut rng);
        slices_within_l(&index, g.num_edges())?;
        prop_assert_eq!(ones(&index, e), l);
        prop_assert_eq!(ones(&index, sure), l);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On a dense-strategy graph lane `j`'s mask for edge `e` is keyed by
    /// (lane seed, `e`), so a shard's worlds do not depend on whether the
    /// sweep stops at the target: served BFS-Sharing's full-reach passes
    /// count exactly MC's hits. Estimate, samples, stop reason and
    /// half-width agree bit for bit under fixed and adaptive budgets, on
    /// 1 (inline) and 3 (spawned) worker threads.
    #[test]
    fn served_bfs_sharing_equals_mc_on_dense_graphs(
        (n, edges) in dense_digraph(),
        seed in 0u64..500,
        k in world_budget(1200),
        cap in world_budget(6000),
        eps in 0.05f64..0.4,
    ) {
        let g = Arc::new(build(n, &edges));
        prop_assume!(dense_strategy(&g));
        let (s, t) = (NodeId(0), NodeId((n - 1) as u32));
        let key = |e: &Estimate| {
            (e.reliability.to_bits(), e.samples, e.stop_reason, e.half_width.map(f64::to_bits))
        };
        for threads in [1usize, 3] {
            let sampler = ParallelSampler::new(Arc::clone(&g), threads);
            prop_assert_eq!(
                key(&sampler.estimate_bfs_sharing(s, t, k, seed)),
                key(&sampler.estimate_mc(s, t, k, seed)),
                "fixed k = {} on {} threads", k, threads
            );
            for budget in [SampleBudget::fixed(k), SampleBudget::adaptive(eps, cap)] {
                prop_assert_eq!(
                    key(&sampler.estimate_bfs_sharing_with(s, t, &budget, seed)),
                    key(&sampler.estimate_mc_with(s, t, &budget, seed)),
                    "{:?} on {} threads", budget, threads
                );
            }
        }
    }
}

/// Served BFS-Sharing's exact answers, in both batch strategies, under
/// fixed and adaptive budgets, on 1 and 3 threads: a target no path
/// reaches answers 0, and `s == t` answers 1.
#[test]
fn served_bfs_sharing_unreachable_is_zero_and_self_is_one() {
    // Node 4 has no in-edges, so nothing reaches it.
    let edges = [
        (0, 1, 0.5),
        (0, 2, 0.6),
        (1, 3, 0.7),
        (2, 3, 0.4),
        (4, 0, 0.9),
    ];
    let mut dense_edges = edges.to_vec();
    for (u, v) in [(1, 0), (2, 0), (3, 0), (3, 1), (1, 2), (2, 1)] {
        dense_edges.push((u, v, 0.9));
    }
    let lazy = Arc::new(build(5, &edges));
    let dense = Arc::new(build(5, &dense_edges));
    assert!(!dense_strategy(&lazy));
    assert!(dense_strategy(&dense));
    for g in [lazy, dense] {
        for threads in [1usize, 3] {
            let sampler = ParallelSampler::new(Arc::clone(&g), threads);
            for budget in [
                SampleBudget::fixed(1000),
                SampleBudget::adaptive(0.05, 3000),
            ] {
                let bfs = |s: u32, t: u32| {
                    sampler
                        .estimate_bfs_sharing_with(NodeId(s), NodeId(t), &budget, 9)
                        .reliability
                };
                assert_eq!(bfs(0, 4), 0.0, "{budget:?}");
                assert_eq!(bfs(2, 2), 1.0, "{budget:?}");
            }
            assert_eq!(
                sampler
                    .estimate_bfs_sharing(NodeId(0), NodeId(4), 77, 3)
                    .reliability,
                0.0
            );
            assert_eq!(
                sampler
                    .estimate_bfs_sharing(NodeId(4), NodeId(4), 77, 3)
                    .reliability,
                1.0
            );
        }
    }
}

/// The per-edge mask strategies must be interchangeable: a geometric-jump
/// word and a dense-fill word at the same `p` are both 64 independent
/// Bernoulli(p) bits. Compare overall hit frequency and every bit
/// position's frequency across many draws of each.
#[test]
fn geometric_and_dense_masks_are_identically_distributed() {
    // Below GEOMETRIC_THRESHOLD, so the production dispatch would pick
    // the geometric path and the dense fill is the cross-check.
    let p = 0.015;
    let draws = 200_000usize;
    let mut per_bit = [[0u32; 64]; 2];
    let mut totals = [0u64; 2];
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    for _ in 0..draws {
        let words = [geometric_mask(&mut rng, p), dense_mask(&mut rng, p)];
        for (strategy, &w) in words.iter().enumerate() {
            totals[strategy] += u64::from(w.count_ones());
            let mut bits = w;
            while bits != 0 {
                per_bit[strategy][bits.trailing_zeros() as usize] += 1;
                bits &= bits - 1;
            }
        }
    }
    let expected_total = draws as f64 * 64.0 * p;
    for (name, total) in [("geometric", totals[0]), ("dense", totals[1])] {
        let err = (total as f64 - expected_total).abs() / expected_total;
        assert!(
            err < 0.02,
            "{name} total {total} vs expected {expected_total}"
        );
    }
    // Each bit position: expected 3000 hits, ±15% is > 8 standard
    // deviations — a positional bias (e.g. a low-bits-only bug in the
    // geometric jump) would blow far past it.
    let expected_bit = draws as f64 * p;
    for (strategy, counts) in per_bit.iter().enumerate() {
        for (bit, &count) in counts.iter().enumerate() {
            let err = (f64::from(count) - expected_bit).abs() / expected_bit;
            assert!(
                err < 0.15,
                "strategy {strategy} bit {bit}: {count} vs expected {expected_bit}",
            );
        }
    }
}
