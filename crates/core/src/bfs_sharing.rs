//! BFS Sharing: offline possible-world index + shared online BFS
//! (§2.3, Algorithms 2–3 of the paper).
//!
//! Offline, `L` possible worlds are sampled and stored compactly: each edge
//! carries an `L`-bit vector whose i-th bit says whether the edge exists in
//! world `i` (Fig. 3 of the paper). Online, a single BFS-ordered fixpoint
//! propagates per-node reachability bit vectors `I_v` — equivalent to `K`
//! parallel BFS traversals, 64 worlds per machine word.
//!
//! Two paper-documented properties are deliberately preserved:
//!
//! * **No early termination.** Cascading updates (Algorithm 3) mean the
//!   traversal cannot stop when `t` is first reached, which is why BFS
//!   Sharing is often *slower* than plain MC despite the offline sampling.
//! * **O(K(m+n)) online complexity, not K-independent.** The original
//!   ICDM'15 paper claimed query time independent of `K`; the comparison
//!   paper corrects this (each node/edge can be revisited up to `K` times
//!   through cascading updates). Our fixpoint exhibits the same behavior.
//!
//! Between successive queries the index must be **re-sampled** to keep
//! queries independent (Table 15 measures this per-query refresh cost);
//! see [`Estimator::refresh`].
//!
//! One drawer fills every edge slice, for the full index and for its
//! incremental updates alike: a slice of `⌈L/64⌉` words is that many
//! calls of the packed kernel's [`sample_mask`] on a [`SplitMix64`]
//! stream seeded by one `next_u64` of the caller's RNG (the
//! [`crate::packed`] determinism contract), with the bits at or above `L`
//! cleared.
//!
//! This module is the offline estimator that Fig. 12, Fig. 13 and
//! Table 15 measure. Served BFS-Sharing
//! ([`ParallelSampler::estimate_bfs_sharing`](crate::ParallelSampler::estimate_bfs_sharing))
//! keeps no index: each shard's worlds are drawn by the packed kernel and
//! swept by its full-reach pass, the same shared BFS over bit-vector
//! worlds with no early termination.

use crate::estimator::{validate_query, Estimate, Estimator, UpdateOutcome};
use crate::memory::MemoryTracker;
use crate::packed::{sample_mask, SplitMix64};
use crate::session::{EstimationSession, SampleBudget};
use rand::{Rng, RngCore};
use relcomp_ugraph::{EdgeId, EdgeUpdate, NodeId, UncertainGraph};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The offline bit-vector index: `L` pre-sampled worlds, one bit-slice per
/// edge.
pub struct BfsSharingIndex {
    /// Number of pre-sampled worlds (the paper uses a safe bound L = 1500).
    l: usize,
    /// Words per edge slice.
    words_per_edge: usize,
    /// Flattened `m * words_per_edge` matrix.
    bits: Vec<u64>,
}

impl BfsSharingIndex {
    /// Sample `l` worlds of `graph` into a fresh index.
    pub fn build(graph: &UncertainGraph, l: usize, rng: &mut dyn RngCore) -> Self {
        assert!(l > 0, "index must cover at least one world");
        let words_per_edge = l.div_ceil(64);
        let mut index = BfsSharingIndex {
            l,
            words_per_edge,
            bits: vec![0u64; graph.num_edges() * words_per_edge],
        };
        index.resample(graph, rng);
        index
    }

    /// Re-draw every edge's world bits (per-query refresh, Table 15).
    ///
    /// Each 64-world word is one packed-kernel [`sample_mask`] (dense
    /// bit-compare fill, or geometric jumps for rare edges) on a
    /// [`SplitMix64`] stream seeded by one `next_u64` of `rng`: the slice
    /// drawer the served path shares. Statistically identical to
    /// per-world Bernoulli sampling.
    pub fn resample(&mut self, graph: &UncertainGraph, rng: &mut dyn RngCore) {
        self.redraw(graph, (0..graph.num_edges()).map(EdgeId::from_index), rng);
    }

    /// Re-draw the bit slices of `edges` only, against `graph`'s (new)
    /// probabilities — the incremental half of an edge-probability
    /// update: untouched edges keep their sampled worlds, touched edges
    /// get fresh Bernoulli draws at the new rate (same drawer as
    /// [`BfsSharingIndex::resample`]). The cascading effect on
    /// reachability is recomputed by the next query's shared-BFS fixpoint
    /// (Alg. 2's cascading updates), which reads these slices.
    pub fn resample_edges(
        &mut self,
        graph: &UncertainGraph,
        edges: &[EdgeId],
        rng: &mut dyn RngCore,
    ) {
        self.redraw(graph, edges.iter().copied(), rng);
    }

    fn redraw(
        &mut self,
        graph: &UncertainGraph,
        edges: impl Iterator<Item = EdgeId>,
        rng: &mut dyn RngCore,
    ) {
        assert_eq!(
            self.bits.len(),
            graph.num_edges() * self.words_per_edge,
            "index was built for a different graph"
        );
        let mut mask_rng = SplitMix64::new(rng.next_u64());
        for e in edges {
            let base = e.index() * self.words_per_edge;
            draw_slice(
                &mut self.bits[base..base + self.words_per_edge],
                self.l,
                graph.prob(e).value(),
                &mut mask_rng,
            );
        }
    }

    /// Bit-slice of edge `e`.
    #[inline]
    pub fn edge_words(&self, e: EdgeId) -> &[u64] {
        let base = e.index() * self.words_per_edge;
        &self.bits[base..base + self.words_per_edge]
    }

    /// Number of pre-sampled worlds `L`.
    pub fn num_worlds(&self) -> usize {
        self.l
    }

    /// Index size in bytes (what must be loaded in memory for queries).
    pub fn size_bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

/// Fill `slice`, one edge's `⌈l/64⌉` world words, with independent
/// Bernoulli(`p`) bits for worlds `0..l`: one packed-kernel
/// [`sample_mask`] per word, and the bits at or above `l` in the last
/// word cleared. The one slice drawer behind the offline index's builds
/// and incremental re-draws.
#[inline]
fn draw_slice<R: Rng + ?Sized>(slice: &mut [u64], l: usize, p: f64, rng: &mut R) {
    debug_assert_eq!(slice.len(), l.div_ceil(64));
    for word in slice.iter_mut() {
        *word = sample_mask(rng, p);
    }
    if l % 64 != 0 {
        if let Some(last) = slice.last_mut() {
            *last &= (1u64 << (l % 64)) - 1;
        }
    }
}

/// The BFS-Sharing estimator: index + shared-BFS query.
pub struct BfsSharing {
    graph: Arc<UncertainGraph>,
    index: BfsSharingIndex,
    build_time: Duration,
    /// Per-node reachability vectors, allocated once and reused.
    node_bits: Vec<u64>,
    node_epoch: Vec<u32>,
    epoch: u32,
    /// Worklist + membership marks, allocated once and reused across
    /// windows (adaptive sessions run one fixpoint per batch; per-window
    /// allocation would churn O(n) per 256 worlds). Both invariants hold
    /// between windows: the queue drains empty, and every `in_queue`
    /// mark is cleared when its node is popped.
    queue: VecDeque<NodeId>,
    in_queue: Vec<bool>,
}

impl BfsSharing {
    /// Build the index with the paper's safe bound `L = 1500`.
    pub const DEFAULT_WORLDS: usize = 1500;

    /// Build an estimator with `l` pre-sampled worlds.
    pub fn new(graph: Arc<UncertainGraph>, l: usize, rng: &mut dyn RngCore) -> Self {
        let start = Instant::now();
        let index = BfsSharingIndex::build(&graph, l, rng);
        let build_time = start.elapsed();
        let n = graph.num_nodes();
        let wpe = index.words_per_edge;
        BfsSharing {
            graph,
            index,
            build_time,
            node_bits: vec![0u64; n * wpe],
            node_epoch: vec![0; n],
            epoch: 0,
            queue: VecDeque::new(),
            in_queue: vec![false; n],
        }
    }

    /// Time spent building (sampling) the index.
    pub fn index_build_time(&self) -> Duration {
        self.build_time
    }

    /// The underlying index.
    pub fn index(&self) -> &BfsSharingIndex {
        &self.index
    }

    /// Count the worlds in `[lo, lo + n)` of the index where `t` is
    /// reachable from `s`, via the shared-BFS worklist fixpoint restricted
    /// to that window's words. Worlds are independent columns, so a
    /// window's count is exactly the popcount the full fixpoint would
    /// produce over those bits — batching partitions the work without
    /// changing any answer.
    fn count_window(&mut self, s: NodeId, t: NodeId, lo: usize, n: usize) -> usize {
        debug_assert!(lo + n <= self.index.l);
        debug_assert!(self.queue.is_empty());
        let wpe = self.index.words_per_edge;
        let w_lo = lo / 64;
        let w_hi = (lo + n).div_ceil(64);
        let first_mask: u64 = !0 << (lo % 64);
        let last_mask: u64 = if (lo + n) % 64 == 0 {
            !0
        } else {
            (1u64 << ((lo + n) % 64)) - 1
        };
        let window_mask = |w: usize| -> u64 {
            let mut m = !0u64;
            if w == w_lo {
                m &= first_mask;
            }
            if w + 1 == w_hi {
                m &= last_mask;
            }
            m
        };

        // Lazy per-window reset of node vectors via epochs. On wraparound
        // every stamp is cleared first: a node still stamped 1 from
        // 2^32 - 1 windows ago must not read as current.
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.node_epoch.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;

        // I_s = all ones over the window.
        {
            let base = s.index() * wpe;
            for w in w_lo..w_hi {
                self.node_bits[base + w] = window_mask(w);
            }
            self.node_epoch[s.index()] = epoch;
        }

        // Worklist fixpoint: when I_v gains bits, re-examine v's out-edges.
        // This subsumes Algorithm 3's cascading updates.
        self.queue.push_back(s);
        self.in_queue[s.index()] = true;

        while let Some(v) = self.queue.pop_front() {
            self.in_queue[v.index()] = false;
            let v_base = v.index() * wpe;
            for (e, w) in self.graph.out_edges(v) {
                let w_base = w.index() * wpe;
                if self.node_epoch[w.index()] != epoch {
                    self.node_bits[w_base + w_lo..w_base + w_hi].fill(0);
                    self.node_epoch[w.index()] = epoch;
                }
                let edge_words = self.index.edge_words(e);
                let mut changed = false;
                #[allow(clippy::needless_range_loop)] // three slices share the window index
                for i in w_lo..w_hi {
                    let add = self.node_bits[v_base + i] & edge_words[i];
                    let cur = self.node_bits[w_base + i];
                    let new = cur | add;
                    if new != cur {
                        self.node_bits[w_base + i] = new;
                        changed = true;
                    }
                }
                if changed && !self.in_queue[w.index()] {
                    self.in_queue[w.index()] = true;
                    self.queue.push_back(w);
                }
            }
        }

        if self.node_epoch[t.index()] != epoch {
            return 0;
        }
        let t_base = t.index() * wpe;
        self.node_bits[t_base + w_lo..t_base + w_hi]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }
}

impl Estimator for BfsSharing {
    fn name(&self) -> &'static str {
        "BFS Sharing"
    }

    fn estimate_with(
        &mut self,
        s: NodeId,
        t: NodeId,
        budget: &SampleBudget,
        rng: &mut dyn RngCore,
    ) -> Estimate {
        let _ = rng; // all randomness is in the pre-built index
        validate_query(&self.graph, s, t);
        if budget.is_fixed() {
            let k = budget.max_samples();
            assert!(
                k <= self.index.l,
                "requested K = {k} samples but the index holds only L = {} worlds",
                self.index.l
            );
        }
        // The index bounds the drawable worlds: adaptive budgets clamp.
        let budget = budget.clamp_max(self.index.l);
        let mut session = EstimationSession::begin(&budget);
        let mut mem = MemoryTracker::new();
        // The loaded edge index plus the online node vectors (the paper's
        // corrected accounting: O(Km) index + O(Kn) node bit vectors).
        mem.baseline(self.index.size_bytes());
        mem.alloc(self.node_bits.len() * 8 + self.node_epoch.len() * 4 + self.in_queue.len());

        if s == t {
            return session.finish_exact(1.0, &mem);
        }

        if budget.is_fixed() {
            // One window over all K worlds — the historical single
            // fixpoint, bit for bit (no per-batch traversal overhead).
            let k = budget.max_samples();
            let ones = self.count_window(s, t, 0, k);
            session.record_hits(ones, k);
            return session.finish(ones as f64 / k as f64, &mem);
        }

        let mut ones_total = 0usize;
        loop {
            let n = session.next_batch();
            if n == 0 {
                break;
            }
            let lo = session.samples();
            let ones = self.count_window(s, t, lo, n);
            ones_total += ones;
            session.record_hits(ones, n);
        }
        session.finish(ones_total as f64 / session.samples() as f64, &mem)
    }

    fn resident_bytes(&self) -> usize {
        self.index.size_bytes()
            + self.node_bits.len() * 8
            + self.node_epoch.len() * 4
            + self.in_queue.len()
    }

    /// Re-sample the edge index so the next query sees fresh worlds
    /// (required for inter-query independence; Table 15).
    fn refresh(&mut self, rng: &mut dyn RngCore) {
        self.index.resample(&self.graph, rng);
    }

    /// Incremental index maintenance: re-flip only the touched edges'
    /// sampled bits at their new probabilities; every other edge's `L`
    /// pre-sampled worlds survive the epoch swap.
    fn apply_updates(
        &mut self,
        graph: &Arc<UncertainGraph>,
        updates: &[EdgeUpdate],
        rng: &mut dyn RngCore,
    ) -> UpdateOutcome {
        if !graph.same_topology(&self.graph) {
            // Edge ids were reassigned (insert/delete rebuild): the whole
            // bit matrix is stale.
            return UpdateOutcome::Rebuild;
        }
        self.graph = Arc::clone(graph);
        let touched: Vec<EdgeId> = updates.iter().map(|u| u.edge).collect();
        self.index.resample_edges(&self.graph, &touched, rng);
        UpdateOutcome::Incremental {
            touched: touched.len(),
        }
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
    fn converges_to_exact() {
        let g = diamond();
        let exact = exact_reliability(&g, NodeId(0), NodeId(3));
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let mut bs = BfsSharing::new(Arc::clone(&g), 60_000, &mut rng);
        let est = bs.estimate(NodeId(0), NodeId(3), 60_000, &mut rng);
        assert!(
            (est.reliability - exact).abs() < 0.01,
            "{} vs {exact}",
            est.reliability
        );
    }

    #[test]
    fn handles_cycles_with_cascading_updates() {
        // 0 -> 1 -> 2 -> 1 (cycle) and 2 -> 3: the BFS-order dependence the
        // cascading-update machinery exists for.
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.9).unwrap();
        b.add_edge(NodeId(2), NodeId(1), 0.9).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 0.9).unwrap();
        let g = Arc::new(b.build());
        let exact = exact_reliability(&g, NodeId(0), NodeId(3));
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let mut bs = BfsSharing::new(Arc::clone(&g), 40_000, &mut rng);
        let est = bs.estimate(NodeId(0), NodeId(3), 40_000, &mut rng);
        assert!(
            (est.reliability - exact).abs() < 0.01,
            "{} vs {exact}",
            est.reliability
        );
    }

    #[test]
    fn k_larger_than_l_is_rejected() {
        let g = diamond();
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let mut bs = BfsSharing::new(g, 100, &mut rng);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            bs.estimate(NodeId(0), NodeId(3), 200, &mut rng)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn k_smaller_than_l_uses_prefix_of_worlds() {
        let g = diamond();
        let exact = exact_reliability(&g, NodeId(0), NodeId(3));
        let mut rng = ChaCha8Rng::seed_from_u64(34);
        let mut bs = BfsSharing::new(Arc::clone(&g), 70_000, &mut rng);
        let est = bs.estimate(NodeId(0), NodeId(3), 65_000, &mut rng);
        assert!((est.reliability - exact).abs() < 0.02);
    }

    #[test]
    fn refresh_changes_worlds() {
        let g = diamond();
        let mut rng = ChaCha8Rng::seed_from_u64(35);
        let mut bs = BfsSharing::new(Arc::clone(&g), 256, &mut rng);
        let before = bs.index.bits.clone();
        bs.refresh(&mut rng);
        assert_ne!(before, bs.index.bits);
    }

    #[test]
    fn unreachable_target_zero() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
        let g = Arc::new(b.build());
        let mut rng = ChaCha8Rng::seed_from_u64(36);
        let mut bs = BfsSharing::new(g, 128, &mut rng);
        assert_eq!(
            bs.estimate(NodeId(0), NodeId(2), 128, &mut rng).reliability,
            0.0
        );
    }

    #[test]
    fn s_equals_t_is_one() {
        let g = diamond();
        let mut rng = ChaCha8Rng::seed_from_u64(37);
        let mut bs = BfsSharing::new(g, 64, &mut rng);
        assert_eq!(
            bs.estimate(NodeId(1), NodeId(1), 64, &mut rng).reliability,
            1.0
        );
    }

    #[test]
    fn index_size_scales_with_l_and_m() {
        let g = diamond();
        let mut rng = ChaCha8Rng::seed_from_u64(38);
        let small = BfsSharing::new(Arc::clone(&g), 64, &mut rng);
        let large = BfsSharing::new(g, 6400, &mut rng);
        assert!(large.index().size_bytes() >= 100 * small.index().size_bytes() / 2);
        assert!(small.resident_bytes() > 0);
    }

    #[test]
    fn apply_updates_refreshes_only_touched_edges() {
        let g = diamond();
        let mut rng = ChaCha8Rng::seed_from_u64(40);
        let mut bs = BfsSharing::new(Arc::clone(&g), 1024, &mut rng);
        let before = bs.index.bits.clone();
        let e = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        let updated = g.with_updated_probs(&[EdgeUpdate::new(e, 0.05).unwrap()]);
        let outcome = bs.apply_updates(&updated, &[EdgeUpdate::new(e, 0.05).unwrap()], &mut rng);
        assert_eq!(outcome, UpdateOutcome::Incremental { touched: 1 });
        let wpe = bs.index.words_per_edge;
        for other in 0..g.num_edges() {
            let base = other * wpe;
            let slice = &bs.index.bits[base..base + wpe];
            if other == e.index() {
                // 0.5 -> 0.05: the popcount collapses.
                let ones: u32 = slice.iter().map(|w| w.count_ones()).sum();
                assert!(ones < 200, "expected ~51 set bits, got {ones}");
            } else {
                assert_eq!(slice, &before[base..base + wpe], "edge {other} touched");
            }
        }
    }

    #[test]
    fn apply_updates_converges_to_new_exact() {
        let g = diamond();
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let mut bs = BfsSharing::new(Arc::clone(&g), 60_000, &mut rng);
        let e = g.find_edge(NodeId(1), NodeId(3)).unwrap();
        let up = EdgeUpdate::new(e, 0.05).unwrap();
        let updated = g.with_updated_probs(&[up]);
        bs.apply_updates(&updated, &[up], &mut rng);
        let exact = exact_reliability(&updated, NodeId(0), NodeId(3));
        let est = bs.estimate(NodeId(0), NodeId(3), 60_000, &mut rng);
        assert!(
            (est.reliability - exact).abs() < 0.01,
            "{} vs {exact}",
            est.reliability
        );
    }

    #[test]
    fn apply_updates_demands_shared_topology() {
        let g = diamond();
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut bs = BfsSharing::new(Arc::clone(&g), 128, &mut rng);
        // A structurally identical but independently built graph must
        // force a rebuild (edge ids are only trustworthy via snapshots).
        let rebuilt = Arc::new(g.with_edits(&[], &[]).unwrap());
        let outcome = bs.apply_updates(&rebuilt, &[], &mut rng);
        assert_eq!(outcome, UpdateOutcome::Rebuild);
    }

    #[test]
    fn epoch_wraparound_matches_a_fresh_estimator() {
        // The first query stamps node vectors with epoch 1 (node 1 all
        // ones as the source). Once the counter wraps back to 1 those
        // vectors must not read as current: the wrapped query answers
        // exactly like a fresh estimator over the same index.
        let g = diamond();
        let mut worn = BfsSharing::new(Arc::clone(&g), 512, &mut ChaCha8Rng::seed_from_u64(43));
        let mut rng = ChaCha8Rng::seed_from_u64(44);
        worn.estimate(NodeId(1), NodeId(3), 512, &mut rng);
        worn.epoch = u32::MAX;
        let wrapped = worn.estimate(NodeId(0), NodeId(3), 512, &mut rng);
        let mut fresh = BfsSharing::new(g, 512, &mut ChaCha8Rng::seed_from_u64(43));
        let expected = fresh.estimate(NodeId(0), NodeId(3), 512, &mut rng);
        assert_eq!(
            wrapped.reliability.to_bits(),
            expected.reliability.to_bits()
        );
        assert_eq!(worn.epoch, 1);
    }

    #[test]
    fn estimates_match_index_bits_exactly_for_single_edge() {
        // For a single-edge graph, reliability must equal popcount/K of
        // that edge's slice.
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 0.37).unwrap();
        let g = Arc::new(b.build());
        let mut rng = ChaCha8Rng::seed_from_u64(39);
        let mut bs = BfsSharing::new(Arc::clone(&g), 1000, &mut rng);
        let ones: u32 = bs
            .index()
            .edge_words(EdgeId(0))
            .iter()
            .map(|w| w.count_ones())
            .sum();
        let est = bs.estimate(NodeId(0), NodeId(1), 1000, &mut rng);
        assert!((est.reliability - ones as f64 / 1000.0).abs() < 1e-12);
    }
}
