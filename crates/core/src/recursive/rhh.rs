//! Recursive sampling, "RHH" (§2.4, Algorithm 4 of the paper; originally
//! Jin et al., PVLDB'11, adapted from distance-constrained to plain s-t
//! reliability).
//!
//! At each step the estimator picks an expandable edge `e` (DFS
//! preference), splits the prefix group into the worlds containing `e` and
//! those not, and *deterministically* allocates `K·P(e)` samples to the
//! first and the rest to the second (the Hansen–Hurwitz style allocation
//! that reduces variance vs. plain MC, Theorem 2 of \[20\]). Recursion stops
//! on: an included s-t path (reliability 1), an excluded s-t cut
//! (reliability 0), or a budget below the threshold (conditional MC).

use crate::estimator::{validate_query, Estimate, Estimator, UpdateOutcome};
use crate::memory::MemoryTracker;
use crate::recursive::state::RecState;
use crate::session::{EstimationSession, SampleBudget};
use rand::RngCore;
use relcomp_ugraph::{EdgeUpdate, NodeId, UncertainGraph};
use std::sync::Arc;

/// Recursive sampling estimator (RHH).
pub struct RecursiveSampling {
    graph: Arc<UncertainGraph>,
    /// Budget at or below which the conditional-MC fallback runs
    /// (the paper uses 5; Fig. 16 sweeps it).
    threshold: usize,
}

impl RecursiveSampling {
    /// Paper default threshold (§3.1.3).
    pub const DEFAULT_THRESHOLD: usize = 5;

    /// Create with the paper's default threshold.
    pub fn new(graph: Arc<UncertainGraph>) -> Self {
        Self::with_threshold(graph, Self::DEFAULT_THRESHOLD)
    }

    /// Create with an explicit threshold (Fig. 16 ablation).
    pub fn with_threshold(graph: Arc<UncertainGraph>, threshold: usize) -> Self {
        assert!(threshold >= 1, "threshold must be >= 1");
        RecursiveSampling { graph, threshold }
    }

    /// The non-recursive fallback threshold in use.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    fn recurse(
        &self,
        st: &mut RecState<'_>,
        k: usize,
        rng: &mut dyn RngCore,
        mem: &mut MemoryTracker,
    ) -> f64 {
        // Model the reference implementation's per-frame simplified graph.
        let frame_bytes = st.memory_model_bytes();
        mem.alloc(frame_bytes);

        let result = (|| {
            if st.t_reached() {
                return 1.0; // E1 contains an s-t path
            }
            if k <= self.threshold {
                return st.mc_conditional(k.max(1), rng);
            }
            let Some(e) = st.select_edge_dfs() else {
                return 0.0; // no expandable edge: E2 contains an s-t cut
            };
            let p = st.prob(e);
            // Proportional allocation, clamped so both branches keep at
            // least one sample (keeps the estimator unbiased even when
            // floor(K * p) would be 0; see DESIGN.md).
            let k1 = ((k as f64 * p) as usize).clamp(1, k - 1);
            let k2 = k - k1;

            st.include(e);
            let r1 = self.recurse(st, k1, rng, mem);
            st.undo();

            st.exclude(e);
            let r2 = self.recurse(st, k2, rng, mem);
            st.undo();

            p * r1 + (1.0 - p) * r2
        })();

        mem.free(frame_bytes);
        result
    }
}

impl Estimator for RecursiveSampling {
    fn name(&self) -> &'static str {
        "RHH"
    }

    fn estimate_with(
        &mut self,
        s: NodeId,
        t: NodeId,
        budget: &SampleBudget,
        rng: &mut dyn RngCore,
    ) -> Estimate {
        validate_query(&self.graph, s, t);
        let mut session = EstimationSession::begin(budget);
        let mut mem = MemoryTracker::new();

        let mut st = RecState::new(&self.graph, s, t);
        mem.baseline(st.base_bytes());

        if s == t {
            return session.finish_exact(1.0, &mem);
        }
        if !st.t_possibly_reachable() {
            return session.finish_exact(0.0, &mem);
        }

        if budget.is_fixed() {
            // One recursion over the whole budget — the historical
            // deterministic allocation, bit for bit. A single run has no
            // replication, so variance/half-width stay unmeasured.
            let k = budget.max_samples();
            let r = self.recurse(&mut st, k, rng, &mut mem).clamp(0.0, 1.0);
            session.record_value(r, k);
            return session.finish(r, &mem);
        }

        // Adaptive: each batch is one independent recursion whose
        // estimate is one observation; the normal CI over batch means
        // drives the stopping rule.
        loop {
            let n = session.next_batch();
            if n == 0 {
                break;
            }
            // A trailing ragged batch would get equal weight in the
            // batch-mean CI despite its smaller budget; skip it (the cap
            // is within one batch of exhausted anyway). The first batch
            // is always drawn, however short, so every session answers.
            if n < budget.batch() && session.tracker().count() > 0 {
                break;
            }
            let r = self.recurse(&mut st, n, rng, &mut mem).clamp(0.0, 1.0);
            session.record_value(r, n);
        }
        session.finish(session.tracker().mean().clamp(0.0, 1.0), &mem)
    }

    fn apply_updates(
        &mut self,
        graph: &Arc<UncertainGraph>,
        _updates: &[EdgeUpdate],
        _rng: &mut dyn RngCore,
    ) -> UpdateOutcome {
        // Stateless between queries: rebinding the graph is the whole
        // migration.
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

    fn diamond() -> Arc<UncertainGraph> {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 0.6).unwrap();
        b.add_edge(NodeId(1), NodeId(3), 0.7).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 0.4).unwrap();
        Arc::new(b.build())
    }

    #[test]
    fn converges_to_exact_on_diamond() {
        let g = diamond();
        let exact = exact_reliability(&g, NodeId(0), NodeId(3));
        let mut rhh = RecursiveSampling::new(Arc::clone(&g));
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        // Average several runs — a single run with K = 2000 is already a
        // low-variance estimate for this 4-edge graph.
        let reps = 200;
        let mut sum = 0.0;
        for _ in 0..reps {
            sum += rhh
                .estimate(NodeId(0), NodeId(3), 2000, &mut rng)
                .reliability;
        }
        let mean = sum / reps as f64;
        assert!((mean - exact).abs() < 0.01, "{mean} vs {exact}");
    }

    #[test]
    fn deterministic_path_returns_one() {
        // 0 -> 1 with p = 1.0: recursion should resolve to exactly 1.
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        let g = Arc::new(b.build());
        let mut rhh = RecursiveSampling::new(g);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let est = rhh.estimate(NodeId(0), NodeId(1), 1000, &mut rng);
        assert_eq!(est.reliability, 1.0);
    }

    #[test]
    fn unreachable_returns_exact_zero() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
        let g = Arc::new(b.build());
        let mut rhh = RecursiveSampling::new(g);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert_eq!(
            rhh.estimate(NodeId(0), NodeId(2), 1000, &mut rng)
                .reliability,
            0.0
        );
    }

    #[test]
    fn variance_is_below_plain_mc() {
        // The paper's core claim for recursive estimators: lower variance
        // at equal K. Compare empirical variance over repeated runs.
        let g = diamond();
        let mut rhh = RecursiveSampling::new(Arc::clone(&g));
        let mut mc = crate::mc::McSampling::new(Arc::clone(&g));
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let reps = 300;
        let k = 200;
        let var = |xs: &[f64]| {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64
        };
        let rhh_runs: Vec<f64> = (0..reps)
            .map(|_| rhh.estimate(NodeId(0), NodeId(3), k, &mut rng).reliability)
            .collect();
        let mc_runs: Vec<f64> = (0..reps)
            .map(|_| mc.estimate(NodeId(0), NodeId(3), k, &mut rng).reliability)
            .collect();
        assert!(
            var(&rhh_runs) < var(&mc_runs),
            "rhh var {} vs mc var {}",
            var(&rhh_runs),
            var(&mc_runs)
        );
    }

    #[test]
    fn threshold_100_behaves_like_mc() {
        // Fig. 16: a huge threshold collapses RHH into plain conditional MC.
        let g = diamond();
        let exact = exact_reliability(&g, NodeId(0), NodeId(3));
        let mut rhh = RecursiveSampling::with_threshold(Arc::clone(&g), 100_000);
        let mut rng = ChaCha8Rng::seed_from_u64(44);
        let est = rhh.estimate(NodeId(0), NodeId(3), 50_000, &mut rng);
        assert!((est.reliability - exact).abs() < 0.02);
    }

    #[test]
    fn memory_reports_recursion_frames() {
        let g = diamond();
        let mut rhh = RecursiveSampling::new(g);
        let mut rng = ChaCha8Rng::seed_from_u64(45);
        let est = rhh.estimate(NodeId(0), NodeId(3), 1000, &mut rng);
        assert!(est.aux_bytes > 0);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn zero_threshold_rejected() {
        let g = diamond();
        let _ = RecursiveSampling::with_threshold(g, 0);
    }
}
