//! Lazy Propagation sampling (§2.6, Algorithm 6 of the paper).
//!
//! Instead of probing every encountered edge in every sample, each edge
//! draws a *geometric* random variate that says after how many future
//! probes it will exist again. Low-probability edges are thus touched
//! `1/p(e)` times less often in expectation, with no statistical difference
//! from plain MC.
//!
//! ## The correction (LP vs LP+)
//!
//! The original paper re-arms an activated edge with key `X' + c_v`
//! (line 24). The comparison paper proves this wrong (Example 1): the new
//! variate counts failures *starting from the next round*, so the key must
//! be `X' + c_v + 1`. With the original keying, a re-drawn `X' > 0`
//! activates one round early (overestimation — the common case) and
//! `X' = 0` leaves a stale top-of-heap entry that permanently blocks the
//! node (underestimation). [`LazyVariant::Original`] reproduces the buggy
//! behavior (for Fig. 5); [`LazyVariant::Corrected`] is LP+.
//!
//! Note on the Original variant: the SIGMOD'17 pseudocode pops heap entries
//! while `top == c_v` yet re-arms at `X' + c_v`, which under a literal
//! reading either re-pops the same entry in the same round (`X' = 0`) or
//! leaves a stale entry permanently blocking the node. We resolve the
//! ambiguity by popping entries with `key <= c_v`: every re-armed edge then
//! activates one round *early*, which is the dominant overestimation error
//! the comparison paper describes (Example 1, case 1) and reproduces
//! Fig. 5's "LP estimates much higher reliability than MC".

use crate::estimator::{validate_query, Estimate, Estimator, UpdateOutcome};
use crate::memory::MemoryTracker;
use crate::sampler::geometric;
use crate::session::{EstimationSession, SampleBudget};
use rand::RngCore;
use relcomp_ugraph::traversal::VisitSet;
use relcomp_ugraph::{EdgeUpdate, NodeId, UncertainGraph};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Which re-arm keying to use (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LazyVariant {
    /// The original SIGMOD'17 keying `X' + c_v` — biased; kept to
    /// reproduce the paper's Fig. 5.
    Original,
    /// The comparison paper's corrected keying `X' + c_v + 1` (LP+).
    Corrected,
}

/// Heap entry: (activation round of node's counter, neighbor, via-edge-prob).
type HeapEntry = Reverse<(u64, u32)>;

/// Per-node lazy state: expansion counter and activation heap.
struct NodeState {
    /// How many times this node has been expanded (the paper's `c_v`).
    counter: u64,
    /// Min-heap of (activation count, out-neighbor node id).
    heap: BinaryHeap<HeapEntry>,
    /// Query epoch in which this state was initialized.
    epoch: u32,
}

/// Lazy-propagation estimator (LP or LP+ depending on the variant).
pub struct LazyPropagation {
    graph: Arc<UncertainGraph>,
    variant: LazyVariant,
    states: Vec<NodeState>,
    visited: VisitSet,
    epoch: u32,
}

impl LazyPropagation {
    /// Create an LP estimator over `graph` with the chosen variant.
    pub fn new(graph: Arc<UncertainGraph>, variant: LazyVariant) -> Self {
        let n = graph.num_nodes();
        let mut states = Vec::with_capacity(n);
        for _ in 0..n {
            states.push(NodeState {
                counter: 0,
                heap: BinaryHeap::new(),
                epoch: 0,
            });
        }
        LazyPropagation {
            graph,
            variant,
            states,
            visited: VisitSet::new(n),
            epoch: 0,
        }
    }

    /// Convenience constructor for the corrected LP+.
    pub fn corrected(graph: Arc<UncertainGraph>) -> Self {
        Self::new(graph, LazyVariant::Corrected)
    }

    /// Convenience constructor for the original (buggy) LP.
    pub fn original(graph: Arc<UncertainGraph>) -> Self {
        Self::new(graph, LazyVariant::Original)
    }

    /// The variant in use.
    pub fn variant(&self) -> LazyVariant {
        self.variant
    }
}

impl Estimator for LazyPropagation {
    fn name(&self) -> &'static str {
        match self.variant {
            LazyVariant::Original => "LP",
            LazyVariant::Corrected => "LP+",
        }
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
        mem.baseline(self.visited.resident_bytes() + self.states.len() * 16);

        // Per-query re-initialization (Algorithm 6 line 1): bump the epoch
        // so node states lazily reset on first touch. On wraparound every
        // stamp is cleared first: a node still stamped 1 from 2^32 - 1
        // queries ago must not read as current.
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            for st in &mut self.states {
                st.epoch = 0;
            }
            self.epoch = 1;
        }
        let epoch = self.epoch;

        let graph = Arc::clone(&self.graph);
        let mut hits = 0usize;
        let mut frontier: Vec<NodeId> = Vec::new();
        // Deferred re-pushes within one expansion (avoids the original
        // variant's same-round infinite pop loop; see module docs).
        let mut reinsert: Vec<(u64, u32)> = Vec::new();

        loop {
            let batch = session.next_batch();
            if batch == 0 {
                break;
            }
            let mut batch_hits = 0usize;
            for _ in 0..batch {
                if s == t {
                    batch_hits += 1;
                    continue;
                }
                self.visited.reset();
                frontier.clear();
                frontier.push(s);
                self.visited.insert(s);
                let mut hit = false;

                while let Some(v) = frontier.pop() {
                    let st = &mut self.states[v.index()];
                    if st.epoch != epoch {
                        // First expansion of v in this query (lines 12-18).
                        st.epoch = epoch;
                        st.counter = 0;
                        st.heap.clear();
                        for (e, nbr) in graph.out_edges(v) {
                            let x = geometric(rng, graph.prob(e).value());
                            st.heap.push(Reverse((x, nbr.0)));
                        }
                        mem.alloc(st.heap.len() * std::mem::size_of::<HeapEntry>());
                    }
                    let c = st.counter;
                    reinsert.clear();
                    // Pop every edge activated in this round (lines 19-29).
                    // Corrected (LP+): exact-match keys only. Original (LP):
                    // stale keys also activate (see module docs).
                    while let Some(&Reverse((key, nbr))) = st.heap.peek() {
                        let activated = match self.variant {
                            LazyVariant::Corrected => key == c,
                            LazyVariant::Original => key <= c,
                        };
                        if !activated {
                            break;
                        }
                        st.heap.pop();
                        let nbr_node = NodeId(nbr);
                        // Re-arm: find the edge probability (v -> nbr).
                        let e = graph.find_edge(v, nbr_node).expect("edge exists in heap");
                        let x = geometric(rng, graph.prob(e).value());
                        let new_key = match self.variant {
                            LazyVariant::Corrected => x + c + 1,
                            LazyVariant::Original => x + c,
                        };
                        reinsert.push((new_key, nbr));

                        if !hit {
                            if nbr_node == t {
                                hit = true;
                            } else if self.visited.insert(nbr_node) {
                                frontier.push(nbr_node);
                            }
                        }
                    }
                    for &(key, nbr) in &reinsert {
                        st.heap.push(Reverse((key, nbr)));
                    }
                    st.counter += 1;
                    if hit {
                        break;
                    }
                }
                if hit {
                    batch_hits += 1;
                }
            }
            hits += batch_hits;
            session.record_hits(batch_hits, batch);
        }

        session.finish(hits as f64 / session.samples() as f64, &mem)
    }

    fn resident_bytes(&self) -> usize {
        // Counter + heap headers per node (heaps are cleared per query but
        // their buffers persist).
        self.states.len() * std::mem::size_of::<NodeState>()
            + self
                .states
                .iter()
                .map(|s| s.heap.len() * std::mem::size_of::<HeapEntry>())
                .sum::<usize>()
            + self.visited.resident_bytes()
    }

    fn apply_updates(
        &mut self,
        graph: &Arc<UncertainGraph>,
        _updates: &[EdgeUpdate],
        _rng: &mut dyn RngCore,
    ) -> UpdateOutcome {
        // The per-node workspaces are keyed by node count only; edge
        // probabilities are read from the graph at query time.
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
    fn lp_plus_converges_to_exact() {
        let g = diamond();
        let exact = exact_reliability(&g, NodeId(0), NodeId(3));
        let mut lp = LazyPropagation::corrected(Arc::clone(&g));
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let est = lp.estimate(NodeId(0), NodeId(3), 100_000, &mut rng);
        assert!(
            (est.reliability - exact).abs() < 0.01,
            "LP+ {} vs exact {exact}",
            est.reliability
        );
    }

    #[test]
    fn lp_original_overestimates_low_probability_chain() {
        // Example 1 of the paper: a chain with modest probabilities. The
        // buggy re-arm activates edges one round early, inflating
        // reliability.
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 0.3).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.3).unwrap();
        let g = Arc::new(b.build());
        let exact = exact_reliability(&g, NodeId(0), NodeId(2)); // 0.09

        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut lp = LazyPropagation::original(Arc::clone(&g));
        let lp_est = lp
            .estimate(NodeId(0), NodeId(2), 60_000, &mut rng)
            .reliability;

        let mut lpp = LazyPropagation::corrected(Arc::clone(&g));
        let lpp_est = lpp
            .estimate(NodeId(0), NodeId(2), 60_000, &mut rng)
            .reliability;

        assert!((lpp_est - exact).abs() < 0.01, "LP+ {lpp_est} vs {exact}");
        assert!(
            lp_est > exact + 0.03,
            "LP should overestimate: {lp_est} vs exact {exact}"
        );
    }

    #[test]
    fn s_equals_t_counts_every_sample() {
        let g = diamond();
        let mut lp = LazyPropagation::corrected(g);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let est = lp.estimate(NodeId(2), NodeId(2), 50, &mut rng);
        assert_eq!(est.reliability, 1.0);
    }

    #[test]
    fn queries_are_independent_across_calls() {
        // Two identical queries with different RNG states should both be
        // near-exact: per-query epoch reset must not leak heap state.
        let g = diamond();
        let exact = exact_reliability(&g, NodeId(0), NodeId(3));
        let mut lp = LazyPropagation::corrected(Arc::clone(&g));
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..3 {
            let est = lp.estimate(NodeId(0), NodeId(3), 40_000, &mut rng);
            assert!((est.reliability - exact).abs() < 0.02);
        }
    }

    #[test]
    fn reports_memory_and_name() {
        let g = diamond();
        let mut lp = LazyPropagation::corrected(Arc::clone(&g));
        assert_eq!(lp.name(), "LP+");
        assert_eq!(LazyPropagation::original(g).name(), "LP");
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let est = lp.estimate(NodeId(0), NodeId(3), 100, &mut rng);
        assert!(est.aux_bytes > 0);
        assert!(lp.resident_bytes() > 0);
    }

    #[test]
    fn epoch_wraparound_matches_a_fresh_estimator() {
        // States stamped by the first query carry epoch 1; once the
        // counter wraps back to 1 they must not read as current, so the
        // wrapped query answers exactly like a fresh estimator on the
        // same stream.
        let g = diamond();
        let (s, t) = (NodeId(0), NodeId(3));
        let mut worn = LazyPropagation::corrected(Arc::clone(&g));
        worn.estimate(s, t, 500, &mut ChaCha8Rng::seed_from_u64(4));
        worn.epoch = u32::MAX;
        let wrapped = worn.estimate(s, t, 500, &mut ChaCha8Rng::seed_from_u64(5));
        let fresh =
            LazyPropagation::corrected(g).estimate(s, t, 500, &mut ChaCha8Rng::seed_from_u64(5));
        assert_eq!(wrapped.reliability.to_bits(), fresh.reliability.to_bits());
        assert_eq!(worn.epoch, 1);
    }

    #[test]
    fn disconnected_target_is_zero() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
        let g = Arc::new(b.build());
        let mut lp = LazyPropagation::corrected(g);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert_eq!(
            lp.estimate(NodeId(0), NodeId(2), 300, &mut rng).reliability,
            0.0
        );
    }
}
