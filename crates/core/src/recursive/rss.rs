//! Recursive Stratified Sampling, "RSS" (§2.5, Algorithm 5 and Table 1 of
//! the paper; originally Li et al., TKDE'16).
//!
//! RSS generalizes RHH from one pivot edge to `r` of them: BFS from `s`
//! selects `r` undetermined edges `T = {e_1 .. e_r}`, and the probability
//! space is split into `r + 1` disjoint strata (Table 1):
//!
//! * stratum `0`   — all of `T` absent;
//! * stratum `i`   — `e_1 .. e_{i-1}` absent, `e_i` present, the rest
//!   undetermined.
//!
//! Each stratum gets a sample budget proportional to its probability
//! `pi_i` (Eq. 10) and is estimated recursively on the simplified graph;
//! the final estimate is `sum_i pi_i * mu_i`. RHH is the special case
//! `r = 1` (§3.2 point 1).

use crate::estimator::{validate_query, Estimate, Estimator, UpdateOutcome};
use crate::memory::MemoryTracker;
use crate::recursive::state::RecState;
use crate::session::{EstimationSession, SampleBudget};
use rand::RngCore;
use relcomp_ugraph::{EdgeId, EdgeUpdate, NodeId, UncertainGraph};
use std::sync::Arc;

/// Recursive stratified sampling estimator (RSS).
pub struct RecursiveStratified {
    graph: Arc<UncertainGraph>,
    /// Conditional-MC fallback budget (paper default 5; Fig. 16 sweeps it).
    threshold: usize,
    /// Number of pivot edges per level (paper default 50; Fig. 17 sweeps
    /// it).
    r: usize,
}

impl RecursiveStratified {
    /// Paper defaults (§3.1.3).
    pub const DEFAULT_THRESHOLD: usize = 5;
    /// Paper default stratum count `r` (§3.1.3, recommended in [28]).
    pub const DEFAULT_R: usize = 50;

    /// Create with paper-default parameters.
    pub fn new(graph: Arc<UncertainGraph>) -> Self {
        Self::with_params(graph, Self::DEFAULT_THRESHOLD, Self::DEFAULT_R)
    }

    /// Create with explicit threshold and stratum count.
    pub fn with_params(graph: Arc<UncertainGraph>, threshold: usize, r: usize) -> Self {
        assert!(threshold >= 1, "threshold must be >= 1");
        assert!(r >= 1, "stratum parameter r must be >= 1");
        RecursiveStratified {
            graph,
            threshold,
            r,
        }
    }

    /// The stratum parameter `r` in use.
    pub fn stratum_r(&self) -> usize {
        self.r
    }

    /// The fallback threshold in use.
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
        let frame_bytes = st.memory_model_bytes();
        mem.alloc(frame_bytes);

        let result = (|| {
            if st.t_reached() {
                return 1.0;
            }
            // Leaf before cut: under a cut the conditional MC returns
            // exactly 0 on its own, so only internal nodes pay the check.
            if k < self.threshold || st.undetermined_count() < self.r {
                return st.mc_conditional(k.max(1), rng);
            }
            // Prune branches whose exclusions already cut off t — the
            // "simplify graph" effect of Alg. 5 line 12.
            if !st.t_possibly_reachable() {
                return 0.0;
            }
            let selected = st.select_edges_bfs(self.r);
            if selected.is_empty() {
                // No undetermined edge reachable from s: reliability is
                // fully determined by E1 (and t is not reached).
                return 0.0;
            }

            let mut estimate = 0.0;
            walk_strata(st, &selected, |st, pi| {
                let ki = ((k as f64 * pi).round() as usize).max(1);
                estimate += pi * self.recurse(st, ki, rng, mem);
            });
            estimate
        })();

        mem.free(frame_bytes);
        result
    }
}

/// Visit the strata of Table 1 in order `0, 1 .. r`, calling
/// `visit(st, pi_i)` with `st` fixed to stratum `i` and `pi_i` its
/// probability (Eq. 10); strata with `pi_i = 0` are skipped.
///
/// * stratum `0` — every selected edge absent;
/// * stratum `i` — `e_1 .. e_{i-1}` absent, `e_i` present.
///
/// Stratum `i + 1` is stratum `i` with `e_i` flipped to absent and
/// `e_{i+1}` made present, so the walk keeps the exclusions on `st`'s undo
/// log and `pi` as a running prefix product: O(r) fixes per call, and
/// the same products, bit for bit, as computing each stratum afresh.
fn walk_strata(
    st: &mut RecState<'_>,
    selected: &[EdgeId],
    mut visit: impl FnMut(&mut RecState<'_>, f64),
) {
    let base = st.depth();
    let pi0 = selected.iter().fold(1.0, |pi, &e| pi * (1.0 - st.prob(e)));
    if pi0 > 0.0 {
        for &e in selected {
            st.exclude(e);
        }
        visit(st, pi0);
        st.undo_to(base);
    }
    let mut prefix = 1.0;
    for &e in selected {
        let p = st.prob(e);
        let pi = prefix * p;
        if pi > 0.0 {
            st.include(e);
            visit(st, pi);
            st.undo();
        }
        st.exclude(e);
        prefix *= 1.0 - p;
    }
    st.undo_to(base);
}

impl Estimator for RecursiveStratified {
    fn name(&self) -> &'static str {
        "RSS"
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

        if budget.is_fixed() {
            // One stratified recursion over the whole budget — the
            // historical deterministic allocation, bit for bit.
            let k = budget.max_samples();
            let r = self.recurse(&mut st, k, rng, &mut mem).clamp(0.0, 1.0);
            session.record_value(r, k);
            return session.finish(r, &mem);
        }

        // Adaptive: one recursion per batch, normal CI over batch means.
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
    use crate::recursive::state::EdgeStatus;
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

    /// Every stratum `walk_strata` visits: its probability and the status
    /// of each selected edge while it is visited.
    fn strata(st: &mut RecState<'_>, selected: &[EdgeId]) -> Vec<(f64, Vec<EdgeStatus>)> {
        let mut out = Vec::new();
        walk_strata(st, selected, |st, pi| {
            out.push((pi, selected.iter().map(|&e| st.status(e)).collect()));
        });
        out
    }

    #[test]
    fn stratum_probabilities_partition_to_one() {
        let g = diamond();
        let mut st = RecState::new(&g, NodeId(0), NodeId(3));
        let selected: Vec<EdgeId> = g.edges().map(|(e, _, _, _)| e).collect();
        let strata = strata(&mut st, &selected);
        assert_eq!(strata.len(), selected.len() + 1);
        let total: f64 = strata.iter().map(|(pi, _)| pi).sum();
        assert!((total - 1.0).abs() < 1e-12, "total {total}");
    }

    #[test]
    fn stratum_design_matches_table1() {
        use EdgeStatus::{Excluded, Included, Undetermined};
        let g = diamond();
        let mut st = RecState::new(&g, NodeId(0), NodeId(3));
        let selected: Vec<EdgeId> = g.edges().map(|(e, _, _, _)| e).collect();
        let p: Vec<f64> = selected.iter().map(|&e| st.prob(e)).collect();
        let strata = strata(&mut st, &selected);
        // Stratum 0: every selected edge fixed absent.
        let (pi0, fixes0) = &strata[0];
        assert_eq!(fixes0, &[Excluded; 4]);
        assert_eq!(*pi0, p.iter().fold(1.0, |pi, p| pi * (1.0 - p)));
        // Stratum 2: e1 absent, e2 present, the rest (e3, e4) untouched.
        let (pi2, fixes2) = &strata[2];
        assert_eq!(fixes2, &[Excluded, Included, Undetermined, Undetermined]);
        assert_eq!(*pi2, (1.0 - p[0]) * p[1]);
        // The walk leaves no fix behind.
        assert_eq!(st.depth(), 0);
        assert_eq!(st.undetermined_count(), 4);
    }

    #[test]
    fn converges_to_exact_on_diamond() {
        let g = diamond();
        let exact = exact_reliability(&g, NodeId(0), NodeId(3));
        let mut rss = RecursiveStratified::with_params(Arc::clone(&g), 5, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(51);
        let reps = 200;
        let sum: f64 = (0..reps)
            .map(|_| {
                rss.estimate(NodeId(0), NodeId(3), 2000, &mut rng)
                    .reliability
            })
            .sum();
        let mean = sum / reps as f64;
        assert!((mean - exact).abs() < 0.01, "{mean} vs {exact}");
    }

    #[test]
    fn variance_below_mc_at_equal_k() {
        let g = diamond();
        let mut rss = RecursiveStratified::with_params(Arc::clone(&g), 5, 3);
        let mut mc = crate::mc::McSampling::new(Arc::clone(&g));
        let mut rng = ChaCha8Rng::seed_from_u64(52);
        let reps = 300;
        let k = 200;
        let var = |xs: &[f64]| {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64
        };
        let rss_runs: Vec<f64> = (0..reps)
            .map(|_| rss.estimate(NodeId(0), NodeId(3), k, &mut rng).reliability)
            .collect();
        let mc_runs: Vec<f64> = (0..reps)
            .map(|_| mc.estimate(NodeId(0), NodeId(3), k, &mut rng).reliability)
            .collect();
        assert!(
            var(&rss_runs) < var(&mc_runs),
            "rss var {} vs mc var {}",
            var(&rss_runs),
            var(&mc_runs)
        );
    }

    #[test]
    fn unreachable_is_zero_and_path_is_one() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        let g = Arc::new(b.build());
        let mut rss = RecursiveStratified::new(Arc::clone(&g));
        let mut rng = ChaCha8Rng::seed_from_u64(53);
        assert_eq!(
            rss.estimate(NodeId(0), NodeId(1), 500, &mut rng)
                .reliability,
            1.0
        );
        assert_eq!(
            rss.estimate(NodeId(0), NodeId(2), 500, &mut rng)
                .reliability,
            0.0
        );
    }

    #[test]
    fn small_r_equals_rhh_shape() {
        // r = 1 makes RSS structurally RHH (the paper notes RHH is the
        // r = 1 special case); both should agree with exact.
        let g = diamond();
        let exact = exact_reliability(&g, NodeId(0), NodeId(3));
        let mut rss = RecursiveStratified::with_params(Arc::clone(&g), 5, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(54);
        let reps = 200;
        let sum: f64 = (0..reps)
            .map(|_| {
                rss.estimate(NodeId(0), NodeId(3), 1000, &mut rng)
                    .reliability
            })
            .sum();
        assert!((sum / reps as f64 - exact).abs() < 0.015);
    }

    #[test]
    #[should_panic(expected = "stratum parameter")]
    fn zero_r_rejected() {
        let _ = RecursiveStratified::with_params(diamond(), 5, 0);
    }
}
