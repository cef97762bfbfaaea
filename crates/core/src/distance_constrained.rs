//! Distance-constrained reachability: `R_d(s, t)` — the probability that
//! `t` is reachable from `s` within at most `d` hops.
//!
//! This is the query Recursive Sampling (RHH) was *originally* proposed
//! for (Jin et al., PVLDB'11); the comparison paper adapts it to the
//! unconstrained s-t query (§2.4: "we adapted the proposed approach to
//! compute the s-t reliability without any distance constraint"). Here we
//! keep the original query too, with three estimators:
//!
//! * [`distance_constrained_with`] — depth-limited lazy-sampling MC as a
//!   streaming [`SampleBudget`] session (fixed, eps+confidence, or
//!   wall-time budgets, Wilson CI half-width in the [`Estimate`]);
//! * [`mc_distance_constrained`] — the historical fixed-`k` entry point,
//!   now a thin wrapper over a fixed budget (bit-identical RNG stream);
//! * [`exact_distance_constrained`] — enumeration oracle for tests.
//!
//! `R_d` is monotone in `d` and converges to plain `R(s, t)` once `d`
//! reaches the number of nodes (any simple path fits).
//!
//! The served and parallel paths
//! (`ParallelSampler::estimate_distance_constrained_with`)
//! sample `R_d` through the packed kernel's hop-capped lazy passes of up
//! to 64 worlds, a shard's remainder forming a partial last word (always
//! lazily probed — the hop bound caps how much of the graph a pass
//! touches); the session loop and stopping rules are the same.

use crate::estimator::Estimate;
use crate::memory::MemoryTracker;
use crate::sampler::coin;
use crate::session::{EstimationSession, SampleBudget};
use rand::RngCore;
use relcomp_ugraph::possible_world::enumerate_worlds;
use relcomp_ugraph::traversal::{bfs_reaches_within, BoundedBfsWorkspace};
use relcomp_ugraph::{NodeId, UncertainGraph};

/// Estimate `R_d(s, t)` by streaming depth-limited lazy-sampling MC
/// batches until `budget` says stop (Algorithm 1 with a depth cap, given
/// the session treatment). Under [`SampleBudget::fixed`] the coin stream
/// — and therefore the estimate — is bit-identical to the historical
/// [`mc_distance_constrained`] loop.
pub fn distance_constrained_with(
    graph: &UncertainGraph,
    s: NodeId,
    t: NodeId,
    d: usize,
    budget: &SampleBudget,
    rng: &mut dyn RngCore,
) -> Estimate {
    assert!(
        graph.contains_node(s) && graph.contains_node(t),
        "query nodes out of range"
    );
    let mut mem = MemoryTracker::new();
    mem.baseline(BoundedBfsWorkspace::bytes_for(graph.num_nodes()));
    let mut session = EstimationSession::begin(budget);
    if s == t {
        return session.finish_exact(1.0, &mem);
    }
    let mut ws = BoundedBfsWorkspace::new(graph.num_nodes());
    let mut total_hits = 0usize;
    let mut total = 0usize;
    loop {
        let n = session.next_batch();
        if n == 0 {
            break;
        }
        let mut hits = 0usize;
        for _ in 0..n {
            if bfs_reaches_within(graph, s, t, d, &mut ws, |e| {
                coin(rng, graph.prob(e).value())
            }) {
                hits += 1;
            }
        }
        session.record_hits(hits, n);
        total_hits += hits;
        total += n;
    }
    session.finish(total_hits as f64 / total as f64, &mem)
}

/// MC estimate of `R_d(s, t)` with exactly `k` samples — a thin wrapper
/// over [`distance_constrained_with`] with a fixed budget, bit-identical
/// to the historical pre-session loop.
pub fn mc_distance_constrained(
    graph: &UncertainGraph,
    s: NodeId,
    t: NodeId,
    d: usize,
    k: usize,
    rng: &mut dyn RngCore,
) -> f64 {
    assert!(k > 0, "sample count must be positive");
    distance_constrained_with(graph, s, t, d, &SampleBudget::fixed(k), rng).reliability
}

/// Exact `R_d(s, t)` by world enumeration (test oracle, `m <= 26`).
pub fn exact_distance_constrained(graph: &UncertainGraph, s: NodeId, t: NodeId, d: usize) -> f64 {
    assert!(
        graph.contains_node(s) && graph.contains_node(t),
        "query nodes out of range"
    );
    if s == t {
        return 1.0;
    }
    let mut ws = BoundedBfsWorkspace::new(graph.num_nodes());
    let mut total = 0.0;
    for world in enumerate_worlds(graph) {
        if bfs_reaches_within(graph, s, t, d, &mut ws, |e| world.contains(e)) {
            total += world.probability(graph);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_reliability;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use relcomp_ugraph::GraphBuilder;

    /// Direct edge 0 -> 2 (0.2) and two-hop detour 0 -> 1 -> 2 (0.9 each).
    fn detour() -> UncertainGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(2), 0.2).unwrap();
        b.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.9).unwrap();
        b.build()
    }

    #[test]
    fn exact_d1_counts_only_the_direct_edge() {
        let g = detour();
        let r1 = exact_distance_constrained(&g, NodeId(0), NodeId(2), 1);
        assert!((r1 - 0.2).abs() < 1e-12);
    }

    #[test]
    fn exact_d2_equals_unconstrained_here() {
        let g = detour();
        let r2 = exact_distance_constrained(&g, NodeId(0), NodeId(2), 2);
        let r = exact_reliability(&g, NodeId(0), NodeId(2));
        assert!((r2 - r).abs() < 1e-12);
    }

    #[test]
    fn monotone_in_distance() {
        let g = detour();
        let mut prev = 0.0;
        for d in 0..4 {
            let r = exact_distance_constrained(&g, NodeId(0), NodeId(2), d);
            assert!(r >= prev - 1e-12, "d={d}: {r} < {prev}");
            prev = r;
        }
    }

    #[test]
    fn mc_tracks_exact() {
        let g = detour();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for d in [1usize, 2] {
            let exact = exact_distance_constrained(&g, NodeId(0), NodeId(2), d);
            let mc = mc_distance_constrained(&g, NodeId(0), NodeId(2), d, 40_000, &mut rng);
            assert!((mc - exact).abs() < 0.01, "d={d}: mc {mc} vs exact {exact}");
        }
    }

    #[test]
    fn adaptive_session_converges_and_brackets_exact() {
        let g = detour();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let exact = exact_distance_constrained(&g, NodeId(0), NodeId(2), 2);
        let est = distance_constrained_with(
            &g,
            NodeId(0),
            NodeId(2),
            2,
            &SampleBudget::adaptive(0.05, 100_000),
            &mut rng,
        );
        assert_eq!(est.stop_reason, crate::StopReason::Converged);
        assert!(est.samples < 100_000, "stopped early: {}", est.samples);
        let hw = est.half_width.expect("bernoulli CI");
        assert!((est.reliability - exact).abs() <= hw + 0.01);
    }

    #[test]
    fn session_handles_s_equals_t_without_drawing() {
        let g = detour();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let est = distance_constrained_with(
            &g,
            NodeId(1),
            NodeId(1),
            0,
            &SampleBudget::fixed(500),
            &mut rng,
        );
        assert_eq!(est.reliability, 1.0);
        assert_eq!(est.samples, 500, "fixed accounting preserved");
        assert_eq!(est.half_width, Some(0.0));
    }

    #[test]
    fn d_zero_only_reaches_self() {
        let g = detour();
        assert_eq!(exact_distance_constrained(&g, NodeId(0), NodeId(2), 0), 0.0);
        assert_eq!(exact_distance_constrained(&g, NodeId(1), NodeId(1), 0), 1.0);
    }
}
