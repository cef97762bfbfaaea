//! Monte Carlo sampling with BFS and lazy edge instantiation
//! (§2.2, Algorithm 1 of the paper).
//!
//! For each of `K` rounds, a BFS runs from `s`; every out-edge encountered
//! is sampled *on demand* with its own probability (so edges in graph
//! regions the BFS never reaches are never sampled), and the round stops
//! early as soon as `t` is visited. The estimator is the hit fraction —
//! unbiased, with Binomial variance `R(1-R)/K` (Eq. 4).

use crate::estimator::{validate_query, Estimate, Estimator, UpdateOutcome};
use crate::memory::MemoryTracker;
use crate::sampler::coin;
use crate::session::{EstimationSession, SampleBudget};
use rand::RngCore;
use relcomp_ugraph::traversal::{bfs_reaches, BfsWorkspace};
use relcomp_ugraph::{EdgeUpdate, NodeId, UncertainGraph};
use std::sync::Arc;

/// The baseline estimator every other method is compared against.
pub struct McSampling {
    graph: Arc<UncertainGraph>,
    ws: BfsWorkspace,
}

impl McSampling {
    /// Create an MC estimator over `graph`.
    pub fn new(graph: Arc<UncertainGraph>) -> Self {
        let n = graph.num_nodes();
        McSampling {
            graph,
            ws: BfsWorkspace::new(n),
        }
    }

    /// Access the underlying graph.
    pub fn graph(&self) -> &UncertainGraph {
        &self.graph
    }
}

impl Estimator for McSampling {
    fn name(&self) -> &'static str {
        "MC"
    }

    fn estimate_with(
        &mut self,
        s: NodeId,
        t: NodeId,
        budget: &SampleBudget,
        rng: &mut dyn RngCore,
    ) -> Estimate {
        validate_query(&self.graph, s, t);
        let session = EstimationSession::begin(budget);

        let mut mem = MemoryTracker::new();
        // Only auxiliary structure: the BFS workspace (visited marks + queue).
        mem.baseline(self.ws.resident_bytes());

        let (graph, ws) = (&self.graph, &mut self.ws);
        session.run_bernoulli(&mem, || {
            bfs_reaches(graph, s, t, ws, |e| coin(rng, graph.prob(e).value()))
        })
    }

    fn apply_updates(
        &mut self,
        graph: &Arc<UncertainGraph>,
        _updates: &[EdgeUpdate],
        _rng: &mut dyn RngCore,
    ) -> UpdateOutcome {
        // No index: any graph over the same node space (the workspace is
        // sized by n) can simply be rebound.
        if graph.num_nodes() != self.graph.num_nodes() {
            return UpdateOutcome::Rebuild;
        }
        self.graph = Arc::clone(graph);
        UpdateOutcome::Rebound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_reliability;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use relcomp_ugraph::GraphBuilder;

    fn chain(probs: &[f64]) -> Arc<UncertainGraph> {
        let mut b = GraphBuilder::new(probs.len() + 1);
        for (i, &p) in probs.iter().enumerate() {
            b.add_edge(NodeId(i as u32), NodeId(i as u32 + 1), p)
                .unwrap();
        }
        Arc::new(b.build())
    }

    #[test]
    fn converges_to_exact_on_chain() {
        let g = chain(&[0.8, 0.7, 0.9]);
        let exact = exact_reliability(&g, NodeId(0), NodeId(3));
        let mut mc = McSampling::new(g);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let est = mc.estimate(NodeId(0), NodeId(3), 50_000, &mut rng);
        assert!(est.is_valid());
        assert!(
            (est.reliability - exact).abs() < 0.01,
            "{} vs {exact}",
            est.reliability
        );
    }

    #[test]
    fn s_equals_t_always_hits() {
        let g = chain(&[0.1]);
        let mut mc = McSampling::new(g);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let est = mc.estimate(NodeId(0), NodeId(0), 100, &mut rng);
        assert_eq!(est.reliability, 1.0);
    }

    #[test]
    fn disconnected_never_hits() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
        let g = Arc::new(b.build());
        let mut mc = McSampling::new(g);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let est = mc.estimate(NodeId(0), NodeId(2), 500, &mut rng);
        assert_eq!(est.reliability, 0.0);
    }

    #[test]
    fn reports_samples_and_time() {
        let g = chain(&[0.5, 0.5]);
        let mut mc = McSampling::new(g);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let est = mc.estimate(NodeId(0), NodeId(2), 123, &mut rng);
        assert_eq!(est.samples, 123);
        assert!(est.aux_bytes > 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_invalid_nodes() {
        let g = chain(&[0.5]);
        let mut mc = McSampling::new(g);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let _ = mc.estimate(NodeId(0), NodeId(99), 10, &mut rng);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_samples() {
        let g = chain(&[0.5]);
        let mut mc = McSampling::new(g);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let _ = mc.estimate(NodeId(0), NodeId(1), 0, &mut rng);
    }

    #[test]
    fn estimator_is_unbiased_over_repeats() {
        // Mean of many low-K estimates should approach exact value.
        let g = chain(&[0.5, 0.5]);
        let exact = exact_reliability(&g, NodeId(0), NodeId(2));
        let mut mc = McSampling::new(g);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let reps = 2000;
        let mut sum = 0.0;
        for _ in 0..reps {
            sum += mc.estimate(NodeId(0), NodeId(2), 10, &mut rng).reliability;
        }
        let mean = sum / reps as f64;
        assert!((mean - exact).abs() < 0.02, "mean {mean} vs {exact}");
    }
}
