//! ProbTree indexing (§2.7, Algorithms 7–8 of the paper; originally Maniu,
//! Cheng & Senellart, TODS'17), FWD (fixed-width) variant with `w = 2`.
//!
//! ## Index construction (Algorithm 7)
//!
//! 1. **Fixed-width tree decomposition** over the undirected skeleton of
//!    the graph: repeatedly pick a node with (undirected) degree at most
//!    `w`, move it and all its incident probabilistic edges into a new
//!    *bag*, and re-connect its neighbors with a placeholder pair that the
//!    bag will later fill with pre-computed reliabilities.
//! 2. **Tree building**: a bag's parent is the bag (or the root) that later
//!    absorbs its placeholder pair.
//! 3. **Bottom-up pre-computation**: for each bag with covered node `v` and
//!    boundary nodes `{a, b}`, the upward virtual edge probability is
//!    `p(a->b) = 1 - (1 - p_direct(a->b)) * (1 - p(a->v) * p(v->b))` — the
//!    paper's reliability-only O(w^2) shortcut ("Our adaptation in
//!    complexity"), replacing the original's full distance distributions.
//!
//! With `w <= 2` every removed subtree touches at most two boundary nodes,
//! all combined edge sets are disjoint, and the index is **lossless**: the
//! query graph's s-t reliability distribution equals the original's.
//!
//! ## Query answering (Algorithm 8)
//!
//! Bags covering `s` or `t` are expanded along their root paths: an
//! expanded bag contributes its own edges (recursively expanding on-path
//! children, substituting the pre-computed virtual edges for off-path
//! children), everything else stays collapsed. The result is the query
//! graph `G(q)`.
//!
//! Plain MC (the served `probtree` estimator) never builds `G(q)`: it
//! takes lazy packed passes ([`crate::packed`], 64 worlds each) over a
//! view of the index in place, the original out-edges and the virtual
//! edges that `G(q)` keeps. Per query it only marks the at most
//! `2 · height` expanded bags. The coupled estimators (§3.8: LP+, RHH,
//! RSS) need a materialised graph, so they still run on
//! [`ProbTreeIndex::extract_query_graph`], which emits the same edge set.

mod decompose;

pub use decompose::{DecompositionStats, DirEdge, ProbTreeIndex};

use decompose::Expansion;

use crate::estimator::{validate_query, Estimate, Estimator, UpdateOutcome};
use crate::lazy::LazyPropagation;
use crate::memory::MemoryTracker;
use crate::packed::{packed_hits_within, PackedWorkspace};
use crate::recursive::{RecursiveSampling, RecursiveStratified};
use crate::session::{EstimationSession, SampleBudget};
use rand::RngCore;
use relcomp_ugraph::{EdgeUpdate, NodeId, UncertainGraph};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which estimator samples the query graph (§3.8, Table 16).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InnerEstimator {
    /// Plain MC — what the original ProbTree paper used. Samples on the
    /// index in place; the others run on the extracted query graph.
    Mc,
    /// Corrected lazy propagation.
    LpPlus,
    /// Recursive sampling.
    Rhh,
    /// Recursive stratified sampling.
    Rss,
}

impl InnerEstimator {
    fn label(self) -> &'static str {
        match self {
            InnerEstimator::Mc => "ProbTree",
            InnerEstimator::LpPlus => "ProbTree+LP+",
            InnerEstimator::Rhh => "ProbTree+RHH",
            InnerEstimator::Rss => "ProbTree+RSS",
        }
    }
}

/// ProbTree estimator: FWD index + inner estimator over the query graph.
pub struct ProbTree {
    index: ProbTreeIndex,
    inner: InnerEstimator,
    build_time: Duration,
    /// The current query's expanded bags (in-place MC).
    expansion: Expansion,
    /// Lazy packed passes over the query view (in-place MC).
    ws: PackedWorkspace,
}

impl ProbTree {
    /// The lossless fixed width used throughout the paper.
    pub const WIDTH: usize = 2;

    /// Build the FWD index (w = 2) and answer queries with plain MC.
    pub fn new(graph: Arc<UncertainGraph>) -> Self {
        Self::with_inner(graph, InnerEstimator::Mc)
    }

    /// Build the FWD index with a coupled inner estimator (§3.8).
    pub fn with_inner(graph: Arc<UncertainGraph>, inner: InnerEstimator) -> Self {
        let start = Instant::now();
        let n = graph.num_nodes();
        let index = ProbTreeIndex::build(graph);
        let build_time = start.elapsed();
        ProbTree {
            ws: PackedWorkspace::new(n, index.view_edges()),
            index,
            inner,
            build_time,
            expansion: Expansion::new(),
        }
    }

    /// Bytes of the per-query scratch held between queries: the packed
    /// workspace and one expansion mark per bag.
    fn scratch_bytes(&self) -> usize {
        let n = self.index.graph().num_nodes();
        PackedWorkspace::bytes_for(n, self.index.view_edges(), false) + self.index.num_bags()
    }

    /// Offline index construction time (Fig. 13a).
    pub fn index_build_time(&self) -> Duration {
        self.build_time
    }

    /// The underlying index.
    pub fn index(&self) -> &ProbTreeIndex {
        &self.index
    }
}

impl Estimator for ProbTree {
    fn name(&self) -> &'static str {
        self.inner.label()
    }

    fn estimate_with(
        &mut self,
        s: NodeId,
        t: NodeId,
        budget: &SampleBudget,
        rng: &mut dyn RngCore,
    ) -> Estimate {
        validate_query(self.index.graph(), s, t);
        let start = Instant::now();
        let mut mem = MemoryTracker::new();
        mem.baseline(self.index.size_bytes());

        if s == t {
            return EstimationSession::begin(budget).finish_exact(1.0, &mem);
        }

        let coupled: fn(Arc<UncertainGraph>) -> Box<dyn Estimator> = match self.inner {
            InnerEstimator::Mc => {
                // Sample G(q) in place: nothing proportional to m is built.
                let session = EstimationSession::begin(budget);
                mem.alloc(self.scratch_bytes());
                self.index.expand(s, t, &mut self.expansion);
                let (view, ws) = (self.index.view(&self.expansion), &mut self.ws);
                return session
                    .run_batches(&mem, |n| packed_hits_within(&view, s, t, None, n, ws, rng));
            }
            InnerEstimator::LpPlus => |g| Box::new(LazyPropagation::corrected(g)),
            InnerEstimator::Rhh => |g| Box::new(RecursiveSampling::new(g)),
            InnerEstimator::Rss => |g| Box::new(RecursiveStratified::new(g)),
        };

        // The coupled estimators run — budget and convergence tracking
        // included — on the (much smaller) extracted graph G(q).
        let extraction = self.index.extract_query_graph(s, t);
        mem.alloc(extraction.graph.resident_bytes());
        let inner_est = coupled(Arc::new(extraction.graph)).estimate_with(
            extraction.s,
            extraction.t,
            budget,
            rng,
        );
        mem.alloc(inner_est.aux_bytes);

        Estimate {
            reliability: inner_est.reliability,
            samples: inner_est.samples,
            elapsed: start.elapsed(),
            aux_bytes: mem.peak(),
            variance: inner_est.variance,
            half_width: inner_est.half_width,
            stop_reason: inner_est.stop_reason,
        }
    }

    fn resident_bytes(&self) -> usize {
        self.index.size_bytes() + self.scratch_bytes()
    }

    /// Incremental index maintenance: re-aggregate only the decomposition
    /// bags the batch touched (plus their ancestors whose virtual edges
    /// changed) instead of re-running the full decomposition.
    fn apply_updates(
        &mut self,
        graph: &Arc<UncertainGraph>,
        updates: &[EdgeUpdate],
        _rng: &mut dyn RngCore,
    ) -> UpdateOutcome {
        if !graph.same_topology(self.index.graph()) {
            // Insert/delete rebuilds reassign edge ids and can change the
            // decomposition itself.
            return UpdateOutcome::Rebuild;
        }
        let touched = self.index.apply_updates(graph, updates);
        UpdateOutcome::Incremental { touched }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_reliability;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use relcomp_ugraph::generators::erdos_renyi;
    use relcomp_ugraph::probmodel::{Direction, ProbModel};
    use relcomp_ugraph::GraphBuilder;

    /// The paper's Figure 6 example graph (7 nodes, w=2 decomposition).
    fn figure6_graph() -> Arc<UncertainGraph> {
        // Undirected probabilistic edges from Fig. 6(a); we model each as
        // bidirected with the same probability.
        let mut b = GraphBuilder::new(7);
        let edges = [
            (0u32, 1u32, 0.5),
            (0, 2, 0.75),
            (0, 4, 0.75),
            (0, 6, 0.15),
            (1, 2, 0.75),
            (1, 5, 0.75),
            (1, 6, 0.5),
            (2, 6, 0.2),
            (3, 4, 0.5),
            (4, 6, 0.25),
            (5, 6, 0.5),
        ];
        for (u, v, p) in edges {
            b.add_bidirected(NodeId(u), NodeId(v), p).unwrap();
        }
        Arc::new(b.build())
    }

    #[test]
    fn paper_example2_aggregation() {
        // Bag (D) of Example 2: reliability from node 6 to node 1 is
        // 1 - (1 - 0.75)(1 - 0.5 * 0.5) = 0.8125. Exercised through the
        // Probability helper the index uses.
        let direct = 0.75f64;
        let via = 0.5 * 0.5;
        assert!((1.0 - (1.0 - direct) * (1.0 - via) - 0.8125).abs() < 1e-12);
    }

    #[test]
    fn probtree_matches_exact_on_figure6() {
        let g = figure6_graph();
        let mut rng = ChaCha8Rng::seed_from_u64(61);
        let mut pt = ProbTree::new(Arc::clone(&g));
        for (s, t) in [(1u32, 2u32), (3, 5), (0, 3), (6, 4)] {
            let exact = exact_reliability(&g, NodeId(s), NodeId(t));
            let est = pt.estimate(NodeId(s), NodeId(t), 60_000, &mut rng);
            assert!(
                (est.reliability - exact).abs() < 0.012,
                "query {s}->{t}: probtree {} vs exact {exact}",
                est.reliability
            );
        }
    }

    #[test]
    fn probtree_matches_exact_on_random_graphs() {
        // Losslessness check across random sparse digraphs.
        for seed in 0..6u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let pairs = erdos_renyi(10, 12, &mut rng);
            let g = Arc::new(
                ProbModel::UniformChoice {
                    choices: vec![0.3, 0.6, 0.9],
                }
                .apply(10, &pairs, Direction::RandomOriented, &mut rng),
            );
            if g.num_edges() > 24 {
                continue; // exact oracle bound
            }
            let exact = exact_reliability(&g, NodeId(0), NodeId(9));
            let mut pt = ProbTree::new(Arc::clone(&g));
            let est = pt.estimate(NodeId(0), NodeId(9), 60_000, &mut rng);
            assert!(
                (est.reliability - exact).abs() < 0.015,
                "seed {seed}: probtree {} vs exact {exact}",
                est.reliability
            );
        }
    }

    #[test]
    fn coupled_estimators_agree_with_exact() {
        let g = figure6_graph();
        let exact = exact_reliability(&g, NodeId(3), NodeId(5));
        for inner in [
            InnerEstimator::LpPlus,
            InnerEstimator::Rhh,
            InnerEstimator::Rss,
        ] {
            let mut rng = ChaCha8Rng::seed_from_u64(62);
            let mut pt = ProbTree::with_inner(Arc::clone(&g), inner);
            // Recursive inner estimators: average over repeats.
            let reps = 40;
            let sum: f64 = (0..reps)
                .map(|_| {
                    pt.estimate(NodeId(3), NodeId(5), 4000, &mut rng)
                        .reliability
                })
                .sum();
            let mean = sum / reps as f64;
            assert!(
                (mean - exact).abs() < 0.02,
                "{}: {mean} vs exact {exact}",
                pt.name()
            );
        }
    }

    #[test]
    fn names_match_table16() {
        let g = figure6_graph();
        assert_eq!(ProbTree::new(Arc::clone(&g)).name(), "ProbTree");
        assert_eq!(
            ProbTree::with_inner(Arc::clone(&g), InnerEstimator::Rss).name(),
            "ProbTree+RSS"
        );
    }

    #[test]
    fn apply_updates_tracks_new_probabilities() {
        let g = figure6_graph();
        let mut pt = ProbTree::new(Arc::clone(&g));
        let mut rng = ChaCha8Rng::seed_from_u64(65);
        // Weaken both directions of the 1-5 edge; reliability 3 -> 5 drops.
        let updates: Vec<EdgeUpdate> = [(1u32, 5u32), (5, 1)]
            .iter()
            .map(|&(u, v)| {
                EdgeUpdate::new(g.find_edge(NodeId(u), NodeId(v)).unwrap(), 0.05).unwrap()
            })
            .collect();
        let snap = g.with_updated_probs(&updates);
        let outcome = pt.apply_updates(&snap, &updates, &mut rng);
        assert!(
            matches!(outcome, UpdateOutcome::Incremental { .. }),
            "{outcome:?}"
        );
        let exact = exact_reliability(&snap, NodeId(3), NodeId(5));
        let est = pt.estimate(NodeId(3), NodeId(5), 60_000, &mut rng);
        assert!(
            (est.reliability - exact).abs() < 0.012,
            "{} vs exact {exact}",
            est.reliability
        );
    }

    #[test]
    fn apply_updates_demands_shared_topology() {
        let g = figure6_graph();
        let mut pt = ProbTree::new(Arc::clone(&g));
        let mut rng = ChaCha8Rng::seed_from_u64(66);
        let rebuilt = Arc::new(g.with_edits(&[], &[]).unwrap());
        assert_eq!(
            pt.apply_updates(&rebuilt, &[], &mut rng),
            UpdateOutcome::Rebuild
        );
    }

    #[test]
    fn s_equals_t() {
        let g = figure6_graph();
        let mut rng = ChaCha8Rng::seed_from_u64(63);
        let mut pt = ProbTree::new(g);
        assert_eq!(
            pt.estimate(NodeId(2), NodeId(2), 10, &mut rng).reliability,
            1.0
        );
    }

    #[test]
    fn disconnected_pair_is_zero() {
        let mut b = GraphBuilder::new(4);
        b.add_bidirected(NodeId(0), NodeId(1), 0.9).unwrap();
        b.add_bidirected(NodeId(2), NodeId(3), 0.9).unwrap();
        let g = Arc::new(b.build());
        let mut rng = ChaCha8Rng::seed_from_u64(64);
        let mut pt = ProbTree::new(g);
        assert_eq!(
            pt.estimate(NodeId(0), NodeId(3), 2000, &mut rng)
                .reliability,
            0.0
        );
    }
}
