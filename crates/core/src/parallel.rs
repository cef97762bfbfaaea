//! Deterministic parallel sampling engine.
//!
//! The paper's estimators are single-threaded: one RNG stream drives `K`
//! sequential samples. A serving system wants the same sample budget
//! spread across cores *without* giving up reproducibility. The trick is
//! to decouple the unit of randomness from the unit of scheduling:
//!
//! * The budget is split into fixed-size **shards** (the last shard takes
//!   the remainder). Shard `i` always draws from its own `ChaCha8Rng`
//!   stream, derived from `(seed, i)` by a SplitMix64-style mix —
//!   regardless of which thread runs it.
//! * Worker threads (a `std::thread::scope` pool) claim shards through an
//!   atomic cursor. Per-shard hit counts are integers, and integer
//!   addition is commutative, so the total — and therefore the estimate —
//!   is bit-identical for 1, 2, or 64 threads. A call that needs only one
//!   worker (one configured thread, or one shard) runs its shards in
//!   order on the calling thread instead: no spawn, same streams, same
//!   answer.
//!
//! Four entry-point families cover the serving workloads: plain MC
//! ([`ParallelSampler::estimate_mc`]), BFS-Sharing
//! ([`ParallelSampler::estimate_bfs_sharing`]), top-k reliable
//! targets ([`ParallelSampler::top_k_targets_with`]), and
//! distance-constrained reachability
//! ([`ParallelSampler::estimate_distance_constrained_with`]). The
//! adaptive variants check convergence at the same deterministic
//! shard-group barriers, so budget-driven answers are thread-count
//! invariant too.
//!
//! The MC-family entry points draw their worlds through the bit-packed
//! kernel of [`crate::packed`], packed passes only. On a dense-strategy
//! graph ([`dense_strategy`]) each shard of up to [`SHARD_SAMPLES`]
//! samples is **one** lane pass of `len.div_ceil(64)` 64-world lanes; on
//! a lazy-strategy graph it is `len.div_ceil(64)` lazy 64-world passes.
//! Either way a remainder below 64 forms a partial last word, so a shard
//! consumes `len.div_ceil(64)` words of its stream and runs no scalar
//! worlds. Distance-constrained shards always take lazy passes. Shard `i`
//! still owns stream `(seed, i)` exclusively, so thread-count invariance
//! and `(seed, budget)` determinism are untouched. MC, BFS-Sharing and
//! distance-constrained answers share one budget driver; MC's worlds stop
//! once they reach the target, while a BFS-Sharing shard is the same
//! passes run to full reach with no early termination (§2.3), so on a
//! dense-strategy graph the two answer bit for bit alike.

use crate::estimator::{validate_query, Estimate};
use crate::memory::MemoryTracker;
use crate::packed::{dense_strategy, packed_hits_within, packed_passes, PackedWorkspace};
use crate::session::{finish_estimate, Convergence, SampleBudget, StopReason};
use crate::topk::{boundary_tracker, rank_hits, reachable_targets, TopKResult};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use relcomp_ugraph::{NodeId, UncertainGraph};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Samples per shard. Small enough that a typical budget (thousands)
/// splits into more shards than threads (good load balance), large enough
/// that shard bookkeeping is noise next to the BFS work.
pub const SHARD_SAMPLES: usize = 256;

/// Minimum shards per adaptive *round* (the batch barrier at which
/// cross-shard convergence is checked). Coarser than the estimator-level
/// default batch so the worker pool stays busy between barriers; the
/// barrier positions depend only on the budget — never on the thread
/// count — so adaptive stopping decisions are deterministic for a given
/// seed on any machine shape.
pub const MIN_ROUND_SHARDS: usize = 8;

/// SplitMix64 finalizer: decorrelates per-shard streams so that shard
/// seeds derived from adjacent indices are statistically independent.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG stream for shard `shard` of a run with master seed `seed`.
///
/// Public so tests (and the sequential reference path) can reproduce any
/// shard in isolation.
pub fn shard_rng(seed: u64, shard: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(mix64(seed ^ mix64(shard)))
}

/// A parallel sampling engine over one fixed uncertain graph.
///
/// Construction is cheap (no index); the engine is `Sync` and can be
/// shared across serving threads — each call builds its own scoped worker
/// pool. Per-call `std::thread::scope` keeps the engine stateless and
/// borrow-friendly at the cost of a thread spawn per worker per call.
/// That cost is measurable rather than noise: with one configured
/// thread, spawning the lone worker instead of running it inline raised
/// a served closed-loop run's peak RSS from ~14 to ~22 MiB (`perfbench`
/// `cold-sparse`, medians of 10 and 5 runs on a 2-core Xeon). Calls that
/// need one worker therefore run inline on the caller's thread; a
/// persistent pool remains the upgrade path for multi-worker calls.
pub struct ParallelSampler {
    graph: Arc<UncertainGraph>,
    threads: usize,
    /// The graph's packed batch strategy ([`dense_strategy`]), picked once.
    dense: bool,
}

impl ParallelSampler {
    /// Create an engine running `threads` workers per call (clamped to at
    /// least 1).
    pub fn new(graph: Arc<UncertainGraph>, threads: usize) -> Self {
        ParallelSampler {
            dense: dense_strategy(&graph),
            graph,
            threads: threads.max(1),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Arc<UncertainGraph> {
        &self.graph
    }

    /// Shard boundaries for a budget of `k` samples: `(start, len)` per
    /// shard, every shard but the last exactly [`SHARD_SAMPLES`] long.
    fn shards(k: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(k.div_ceil(SHARD_SAMPLES));
        let mut start = 0;
        while start < k {
            let len = SHARD_SAMPLES.min(k - start);
            out.push((start, len));
            start += len;
        }
        out
    }

    /// Run `work(state, shard_index, shard_len, rng) -> hits` over all
    /// shards on the worker pool; each worker carries one `init()` state
    /// (reusable workspaces stay out of the per-shard hot path). Returns
    /// total hits, deterministic in `seed` and `k` regardless of thread
    /// count.
    fn run_shards<S, I, W>(&self, k: usize, seed: u64, init: I, work: W) -> usize
    where
        I: Fn() -> S + Sync,
        W: Fn(&mut S, usize, usize, &mut ChaCha8Rng) -> usize + Sync,
    {
        let shards = Self::shards(k);
        self.run_shard_range(&shards, 0, shards.len(), seed, init, work)
    }

    /// Workers a call over `shards` shards runs: the configured threads,
    /// never more than there are shards, at least one.
    fn workers_for(&self, shards: usize) -> usize {
        self.threads.min(shards).max(1)
    }

    /// Shards per adaptive round: the budget's batch rounded up to whole
    /// shards, at least [`MIN_ROUND_SHARDS`]. Depends only on the budget.
    fn round_shards(budget: &SampleBudget) -> usize {
        budget.batch().div_ceil(SHARD_SAMPLES).max(MIN_ROUND_SHARDS)
    }

    /// Workers a call under `budget` runs at most: every shard of a
    /// fixed budget at once, or an adaptive budget's first (and largest)
    /// round.
    fn budget_workers(&self, budget: &SampleBudget) -> usize {
        let shards = budget.max_samples().div_ceil(SHARD_SAMPLES);
        if budget.is_fixed() {
            self.workers_for(shards)
        } else {
            self.workers_for(Self::round_shards(budget).min(shards))
        }
    }

    /// The one shard-scheduling loop every sharded workload runs on: run
    /// `work(state, shard_index, shard_len, rng)` over the global shards
    /// `[lo, hi)` on the worker pool, then hand each worker's final
    /// `state` to `merge` (called once per exiting worker; the caller
    /// supplies its own synchronization). Shard `i` always draws from
    /// stream `(seed, i)`, so any commutative merge is deterministic
    /// regardless of thread count. With one worker the shards run in
    /// order on the calling thread, one `init()` state, then `merge`.
    fn run_shard_range_fold<S, I, W, M>(
        &self,
        shards: &[(usize, usize)],
        range: std::ops::Range<usize>,
        seed: u64,
        init: I,
        work: W,
        merge: M,
    ) where
        I: Fn() -> S + Sync,
        W: Fn(&mut S, usize, usize, &mut ChaCha8Rng) + Sync,
        M: Fn(S) + Sync,
    {
        let (lo, hi) = (range.start, range.end);
        let workers = self.workers_for(hi.saturating_sub(lo));
        if workers == 1 {
            let mut state = init();
            for (i, &(_, len)) in shards.iter().enumerate().take(hi).skip(lo) {
                let mut rng = shard_rng(seed, i as u64);
                work(&mut state, i, len, &mut rng);
            }
            merge(state);
            return;
        }
        let cursor = AtomicUsize::new(lo);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut state = init();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= hi {
                            break;
                        }
                        let Some(&(_, len)) = shards.get(i) else {
                            break;
                        };
                        let mut rng = shard_rng(seed, i as u64);
                        work(&mut state, i, len, &mut rng);
                    }
                    merge(state);
                });
            }
        });
    }

    /// Run `work` over the global shards `[lo, hi)` of `shards` on the
    /// worker pool, summing per-shard hit counts. Deterministic
    /// regardless of thread count — the primitive both the fixed full
    /// sweep and the adaptive round loop are built on.
    fn run_shard_range<S, I, W>(
        &self,
        shards: &[(usize, usize)],
        lo: usize,
        hi: usize,
        seed: u64,
        init: I,
        work: W,
    ) -> usize
    where
        I: Fn() -> S + Sync,
        W: Fn(&mut S, usize, usize, &mut ChaCha8Rng) -> usize + Sync,
    {
        let total = AtomicUsize::new(0);
        self.run_shard_range_fold(
            shards,
            lo..hi,
            seed,
            || (init(), 0usize),
            |st: &mut (S, usize), i, len, rng| st.1 += work(&mut st.0, i, len, rng),
            |st| {
                total.fetch_add(st.1, Ordering::Relaxed);
            },
        );
        total.into_inner()
    }

    /// Drive an adaptive budget over pre-laid-out shards: rounds of
    /// [`MIN_ROUND_SHARDS`]-or-larger shard groups run on the pool, with
    /// cross-shard convergence checked at each round barrier. Barrier
    /// positions and the merged statistics depend only on `(budget,
    /// seed)`, so the stopping decision — and therefore the estimate —
    /// is identical for any thread count.
    fn run_adaptive<S, I, W>(
        &self,
        budget: &SampleBudget,
        seed: u64,
        init: I,
        work: W,
    ) -> (usize, usize, Convergence, StopReason, Instant)
    where
        I: Fn() -> S + Sync,
        W: Fn(&mut S, usize, usize, &mut ChaCha8Rng) -> usize + Sync,
    {
        debug_assert!(!budget.is_fixed());
        let start = Instant::now();
        let shards = Self::shards(budget.max_samples());
        let per_round = Self::round_shards(budget);
        let mut tracker = Convergence::new(budget.confidence());
        let mut hits = 0usize;
        let mut samples = 0usize;
        let mut next = 0usize;
        let stop = loop {
            // The shards cover max_samples exactly, so the shared rule's
            // cap check fires precisely when the groups are exhausted.
            if let Some(stop) = crate::session::should_stop(budget, &tracker, samples, start) {
                break stop;
            }
            let hi = (next + per_round).min(shards.len());
            let round_samples: usize = shards[next..hi].iter().map(|&(_, len)| len).sum();
            let round_hits = self.run_shard_range(&shards, next, hi, seed, &init, &work);
            tracker.observe_hits(round_hits, round_samples);
            hits += round_hits;
            samples += round_samples;
            next = hi;
        };
        (hits, samples, tracker, stop, start)
    }

    /// Per-worker packed workspace in the graph's batch strategy.
    fn packed_ws(&self) -> PackedWorkspace {
        PackedWorkspace::with_strategy(self.graph.num_nodes(), self.graph.num_edges(), self.dense)
    }

    /// Workspace bytes one worker's packed workspace holds (for memory
    /// accounting without allocating).
    fn packed_ws_bytes(&self) -> usize {
        PackedWorkspace::bytes_for(self.graph.num_nodes(), self.graph.num_edges(), self.dense)
    }

    /// Run a single-target estimator's `work(state, shard_index,
    /// shard_len, rng) -> hits` under `budget`: one sweep over every
    /// shard for a fixed budget, deterministic round barriers for an
    /// adaptive one. `ws_bytes` is one worker's workspace, for memory
    /// accounting. Bit-identical across thread counts.
    fn estimate_shards<S, I, W>(
        &self,
        budget: &SampleBudget,
        seed: u64,
        ws_bytes: usize,
        init: I,
        work: W,
    ) -> Estimate
    where
        I: Fn() -> S + Sync,
        W: Fn(&mut S, usize, usize, &mut ChaCha8Rng) -> usize + Sync,
    {
        let (hits, samples, tracker, stop, start) = if budget.is_fixed() {
            let start = Instant::now();
            let k = budget.max_samples();
            let hits = self.run_shards(k, seed, init, work);
            let mut tracker = Convergence::new(budget.confidence());
            tracker.observe_hits(hits, k);
            (hits, k, tracker, StopReason::FixedK, start)
        } else {
            self.run_adaptive(budget, seed, init, work)
        };
        let mut mem = MemoryTracker::new();
        mem.baseline(self.budget_workers(budget) * ws_bytes);
        finish_estimate(
            hits as f64 / samples as f64,
            samples,
            start,
            &mem,
            Some(&tracker),
            stop,
        )
    }

    /// Estimate `R(s, t)` under `budget` by counting the packed worlds in
    /// which `s` reaches `t`. With `early_exit` a world stops propagating
    /// once it reaches `t` (MC); without it every world runs its full
    /// reach from `s` (BFS-Sharing's shared BFS, §2.3).
    fn estimate_st(
        &self,
        s: NodeId,
        t: NodeId,
        early_exit: bool,
        budget: &SampleBudget,
        seed: u64,
    ) -> Estimate {
        validate_query(&self.graph, s, t);
        let graph = &self.graph;
        let target = early_exit.then_some(t);
        self.estimate_shards(
            budget,
            seed,
            self.packed_ws_bytes(),
            || self.packed_ws(),
            |ws, _, len, rng| {
                let mut hits = 0;
                packed_passes(graph, s, target, len, ws, rng, |pass| {
                    hits += pass.worlds_reaching(t) as usize;
                });
                hits
            },
        )
    }

    /// Monte-Carlo estimate of `R(s, t)` with `k` samples under master
    /// seed `seed` — [`ParallelSampler::estimate_mc_with`] under
    /// [`SampleBudget::fixed`].
    pub fn estimate_mc(&self, s: NodeId, t: NodeId, k: usize, seed: u64) -> Estimate {
        self.estimate_mc_with(s, t, &SampleBudget::fixed(k), seed)
    }

    /// Monte-Carlo estimate of `R(s, t)` under a [`SampleBudget`], drawn
    /// through the packed kernel (one lane pass per shard on
    /// dense-strategy graphs, lazy 64-world passes otherwise), each world
    /// stopping once it reaches `t`. An adaptive budget checks
    /// convergence at deterministic shard-group barriers.
    pub fn estimate_mc_with(
        &self,
        s: NodeId,
        t: NodeId,
        budget: &SampleBudget,
        seed: u64,
    ) -> Estimate {
        self.estimate_st(s, t, true, budget, seed)
    }

    /// BFS-Sharing estimate of `R(s, t)` with a budget of `k` worlds —
    /// [`ParallelSampler::estimate_bfs_sharing_with`] under
    /// [`SampleBudget::fixed`].
    pub fn estimate_bfs_sharing(&self, s: NodeId, t: NodeId, k: usize, seed: u64) -> Estimate {
        self.estimate_bfs_sharing_with(s, t, &SampleBudget::fixed(k), seed)
    }

    /// BFS-Sharing estimate of `R(s, t)` under a [`SampleBudget`]: each
    /// shard's worlds are bit vectors swept by one shared full-reach BFS
    /// from `s` (the packed kernel with no target), with no early
    /// termination, and `t`'s reached worlds are counted. On a
    /// dense-strategy graph the worlds are MC's, so the answer equals
    /// [`ParallelSampler::estimate_mc_with`]'s bit for bit.
    pub fn estimate_bfs_sharing_with(
        &self,
        s: NodeId,
        t: NodeId,
        budget: &SampleBudget,
        seed: u64,
    ) -> Estimate {
        self.estimate_st(s, t, false, budget, seed)
    }

    /// Run full-world sampling over the global shards `[lo, hi)`,
    /// accumulating per-node hit counts into `hits`. Per-node addition
    /// is commutative, so the merged counts are deterministic for any
    /// thread count.
    fn run_world_hits_range(
        &self,
        shards: &[(usize, usize)],
        lo: usize,
        hi: usize,
        seed: u64,
        s: NodeId,
        hits: &mut [u64],
    ) {
        let graph = &self.graph;
        let merged = Mutex::new(hits);
        self.run_shard_range_fold(
            shards,
            lo..hi,
            seed,
            || (self.packed_ws(), vec![0u64; graph.num_nodes()]),
            |(ws, local): &mut (PackedWorkspace, Vec<u64>), _, len, rng| {
                // The source holds every world by construction and is
                // never credited, as in the scalar reference. Only the
                // reached union can have nonzero counts.
                packed_passes(graph, s, None, len, ws, rng, |pass| {
                    for &v in pass.reached_nodes() {
                        if v != s {
                            local[v.index()] += u64::from(pass.worlds_reaching(v));
                        }
                    }
                });
            },
            |(_, local)| {
                let mut shared = merged.lock().expect("hit merge poisoned");
                for (slot, &h) in shared.iter_mut().zip(&local) {
                    *slot += h;
                }
            },
        );
    }

    /// Top-k reliable targets from `s` under a streaming [`SampleBudget`]:
    /// the sample cap is sharded up front, shard groups stream through
    /// the worker pool, and the boundary (k-th ranked) score's
    /// convergence is checked at deterministic round barriers — the
    /// ranking, consumed samples, and stop reason are bit-identical for
    /// any thread count. Semantics (ranking order, boundary choice,
    /// stopping rule) are shared with the single-threaded
    /// [`top_k_targets_with`](crate::topk::top_k_targets_with); only the
    /// RNG layout differs (per-shard streams instead of one stream).
    pub fn top_k_targets_with(
        &self,
        s: NodeId,
        k: usize,
        budget: &SampleBudget,
        seed: u64,
    ) -> TopKResult {
        assert!(self.graph.contains_node(s), "source out of range");
        assert!(k > 0, "k must be positive");
        let start = Instant::now();
        let boundary = k.min(reachable_targets(&self.graph, s));
        if boundary == 0 {
            let (samples, stop_reason) = crate::session::exact_answer_accounting(budget);
            return TopKResult {
                scores: Vec::new(),
                samples,
                stop_reason,
                half_width: Some(0.0),
                elapsed: start.elapsed(),
            };
        }
        let shards = Self::shards(budget.max_samples());
        let per_round = if budget.is_fixed() {
            // No stopping rule to consult: one sweep over every shard.
            shards.len()
        } else {
            Self::round_shards(budget)
        };
        let mut hits = vec![0u64; self.graph.num_nodes()];
        let mut scratch = Vec::new();
        let mut samples = 0usize;
        let mut next = 0usize;
        let stop = loop {
            // Fixed budgets have no stopping rule to consult: skip the
            // O(n) boundary-tracker build the cap check can never use.
            let stop = if budget.is_fixed() {
                (samples >= budget.max_samples()).then_some(StopReason::FixedK)
            } else {
                let tracker = boundary_tracker(
                    &hits,
                    s,
                    boundary,
                    samples,
                    budget.confidence(),
                    &mut scratch,
                );
                crate::session::should_stop(budget, &tracker, samples, start)
            };
            if let Some(stop) = stop {
                break stop;
            }
            let hi = (next + per_round).min(shards.len());
            let round_samples: usize = shards[next..hi].iter().map(|&(_, len)| len).sum();
            self.run_world_hits_range(&shards, next, hi, seed, s, &mut hits);
            samples += round_samples;
            next = hi;
        };
        let tracker = boundary_tracker(
            &hits,
            s,
            boundary,
            samples,
            budget.confidence(),
            &mut scratch,
        );
        let hw = tracker.half_width();
        TopKResult {
            scores: rank_hits(&hits, s, k, samples),
            samples,
            stop_reason: stop,
            half_width: hw.is_finite().then_some(hw),
            elapsed: start.elapsed(),
        }
    }

    /// Top-k reliable targets with a fixed budget of `samples` worlds —
    /// [`ParallelSampler::top_k_targets_with`] under
    /// [`SampleBudget::fixed`].
    pub fn top_k_targets(&self, s: NodeId, k: usize, samples: usize, seed: u64) -> TopKResult {
        self.top_k_targets_with(s, k, &SampleBudget::fixed(samples), seed)
    }

    /// Distance-constrained reliability `R_d(s, t)` under a streaming
    /// [`SampleBudget`]: depth-limited lazy packed passes over sharded RNG
    /// streams, convergence checked at deterministic shard-group
    /// barriers. Bit-identical across thread counts.
    pub fn estimate_distance_constrained_with(
        &self,
        s: NodeId,
        t: NodeId,
        d: usize,
        budget: &SampleBudget,
        seed: u64,
    ) -> Estimate {
        validate_query(&self.graph, s, t);
        let start = Instant::now();
        let graph = &self.graph;
        // `packed_hits_within` always probes lazily: no lane arrays.
        let ws_bytes = PackedWorkspace::bytes_for(graph.num_nodes(), graph.num_edges(), false);
        if s == t {
            // Deterministic answer: nothing to sample.
            let (samples, stop_reason) = crate::session::exact_answer_accounting(budget);
            return Estimate {
                reliability: 1.0,
                samples,
                elapsed: start.elapsed(),
                aux_bytes: self.budget_workers(budget) * ws_bytes,
                variance: Some(0.0),
                half_width: Some(0.0),
                stop_reason,
            };
        }
        self.estimate_shards(
            budget,
            seed,
            ws_bytes,
            || PackedWorkspace::new(graph.num_nodes(), graph.num_edges()),
            |ws, _, len, rng| packed_hits_within(&**graph, s, t, Some(d), len, ws, rng),
        )
    }

    /// Distance-constrained reliability with a fixed budget of `k`
    /// samples — [`ParallelSampler::estimate_distance_constrained_with`]
    /// under [`SampleBudget::fixed`].
    pub fn estimate_distance_constrained(
        &self,
        s: NodeId,
        t: NodeId,
        d: usize,
        k: usize,
        seed: u64,
    ) -> Estimate {
        self.estimate_distance_constrained_with(s, t, d, &SampleBudget::fixed(k), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_reliability;
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
    fn thread_count_does_not_change_mc_estimate() {
        let g = diamond();
        // Budget deliberately not a multiple of SHARD_SAMPLES.
        let k = 3 * SHARD_SAMPLES + 17;
        let baseline =
            ParallelSampler::new(Arc::clone(&g), 1).estimate_mc(NodeId(0), NodeId(3), k, 42);
        for threads in [2, 8] {
            let est = ParallelSampler::new(Arc::clone(&g), threads).estimate_mc(
                NodeId(0),
                NodeId(3),
                k,
                42,
            );
            assert_eq!(
                est.reliability.to_bits(),
                baseline.reliability.to_bits(),
                "{threads} threads diverged from 1 thread"
            );
            assert_eq!(est.samples, k);
        }
    }

    /// A supercritical graph (Σp/n ≈ 1.29) that takes the dense lane
    /// strategy, with one p ≤ 0.02 edge on the geometric mask path.
    fn dense_graph() -> Arc<UncertainGraph> {
        let mut b = GraphBuilder::new(6);
        for (u, v, p) in [
            (0, 1, 0.8),
            (0, 2, 0.7),
            (1, 3, 0.6),
            (2, 3, 0.5),
            (1, 2, 0.9),
            (2, 1, 0.4),
            (3, 4, 0.7),
            (3, 5, 0.6),
            (4, 5, 0.8),
            (5, 0, 0.7),
            (4, 1, 0.6),
            (2, 4, 0.4),
            (0, 5, 0.015),
        ] {
            b.add_edge(NodeId(u), NodeId(v), p).unwrap();
        }
        let g = Arc::new(b.build());
        assert!(dense_strategy(&g));
        g
    }

    /// Budget with a partial last lane: shards of 256, 256, 256 and 17.
    const DENSE_K: usize = 3 * SHARD_SAMPLES + 17;

    /// Assert `run(threads)` gives the same bits on 1, 2 and 8 threads.
    fn assert_thread_invariant(run: impl Fn(usize) -> Vec<u64>) {
        let baseline = run(1);
        for threads in [2, 8] {
            assert_eq!(run(threads), baseline, "{threads} threads diverged from 1");
        }
    }

    #[test]
    fn dense_mc_is_thread_invariant() {
        let g = dense_graph();
        assert_thread_invariant(|threads| {
            let est = ParallelSampler::new(Arc::clone(&g), threads).estimate_mc(
                NodeId(0),
                NodeId(4),
                DENSE_K,
                42,
            );
            assert_eq!(est.samples, DENSE_K);
            vec![est.reliability.to_bits()]
        });
    }

    #[test]
    fn dense_adaptive_mc_is_thread_invariant() {
        // A cap of DENSE_K stops at the cap, after the partial lane; the
        // larger cap converges at a later round barrier.
        let g = dense_graph();
        for cap in [DENSE_K, 40 * SHARD_SAMPLES + 17] {
            let budget = SampleBudget::adaptive(0.02, cap);
            assert_thread_invariant(|threads| {
                let est = ParallelSampler::new(Arc::clone(&g), threads).estimate_mc_with(
                    NodeId(0),
                    NodeId(4),
                    &budget,
                    43,
                );
                if cap == DENSE_K {
                    assert_eq!(est.stop_reason, StopReason::MaxSamples);
                }
                vec![
                    est.reliability.to_bits(),
                    est.samples as u64,
                    est.stop_reason as u64,
                ]
            });
        }
    }

    #[test]
    fn dense_topk_is_thread_invariant() {
        let g = dense_graph();
        assert_thread_invariant(|threads| {
            let got = ParallelSampler::new(Arc::clone(&g), threads).top_k_targets(
                NodeId(0),
                4,
                DENSE_K,
                11,
            );
            assert_eq!(got.samples, DENSE_K);
            got.scores
                .iter()
                .flat_map(|sc| [u64::from(sc.node.0), sc.reliability.to_bits()])
                .collect()
        });
    }

    #[test]
    fn estimates_land_near_exact_in_both_strategies() {
        // K not a multiple of 64, so every call ends in a partial lane
        // (dense graph) or a partial lazy word (the diamond). A hop cap of
        // n - 1 admits every simple path, so R_d equals R there.
        // 2.5 / sqrt(K) is five Bernoulli standard deviations at the
        // worst-case variance p = 1/2.
        let k = 15 * SHARD_SAMPLES + 33;
        let tol = 2.5 / (k as f64).sqrt();
        for (g, dense) in [(diamond(), false), (dense_graph(), true)] {
            assert_eq!(dense_strategy(&g), dense);
            let n = g.num_nodes();
            let sampler = ParallelSampler::new(Arc::clone(&g), 2);
            let s = NodeId(0);
            let exact: Vec<f64> = (0..n as u32)
                .map(|v| exact_reliability(&g, s, NodeId(v)))
                .collect();
            let near = |what: &str, v: usize, got: f64| {
                assert!(
                    (got - exact[v]).abs() <= tol,
                    "{what} for node {v} (dense={dense}): {got} vs exact {}",
                    exact[v]
                );
            };
            for v in 1..n {
                let t = NodeId(v as u32);
                near(
                    "estimate_mc",
                    v,
                    sampler.estimate_mc(s, t, k, 21).reliability,
                );
                let fixed = SampleBudget::fixed(k);
                let with = sampler.estimate_mc_with(s, t, &fixed, 22);
                near("estimate_mc_with", v, with.reliability);
                let rd = sampler.estimate_distance_constrained(s, t, n - 1, k, 25);
                near("estimate_distance_constrained", v, rd.reliability);
            }
            let top = sampler.top_k_targets(s, n - 1, k, 24);
            assert_eq!(top.scores.len(), n - 1);
            for sc in &top.scores {
                near("top_k_targets", sc.node.index(), sc.reliability);
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_bfs_sharing_estimate() {
        let g = diamond();
        let k = 2 * SHARD_SAMPLES + 100;
        let baseline = ParallelSampler::new(Arc::clone(&g), 1).estimate_bfs_sharing(
            NodeId(0),
            NodeId(3),
            k,
            7,
        );
        for threads in [2, 8] {
            let est = ParallelSampler::new(Arc::clone(&g), threads).estimate_bfs_sharing(
                NodeId(0),
                NodeId(3),
                k,
                7,
            );
            assert_eq!(est.reliability.to_bits(), baseline.reliability.to_bits());
        }
    }

    #[test]
    fn parallel_mc_converges_to_exact() {
        let g = diamond();
        let exact = exact_reliability(&g, NodeId(0), NodeId(3));
        let est =
            ParallelSampler::new(Arc::clone(&g), 4).estimate_mc(NodeId(0), NodeId(3), 60_000, 11);
        assert!(est.is_valid());
        assert!(
            (est.reliability - exact).abs() < 0.01,
            "{} vs {exact}",
            est.reliability
        );
    }

    #[test]
    fn parallel_bfs_sharing_converges_to_exact() {
        let g = diamond();
        let exact = exact_reliability(&g, NodeId(0), NodeId(3));
        let est = ParallelSampler::new(Arc::clone(&g), 4).estimate_bfs_sharing(
            NodeId(0),
            NodeId(3),
            60_000,
            13,
        );
        assert!(
            (est.reliability - exact).abs() < 0.01,
            "{} vs {exact}",
            est.reliability
        );
    }

    #[test]
    fn disconnected_target_is_zero() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
        let g = Arc::new(b.build());
        let est = ParallelSampler::new(g, 4).estimate_mc(NodeId(0), NodeId(2), 2000, 1);
        assert_eq!(est.reliability, 0.0);
    }

    #[test]
    fn thread_count_does_not_change_topk_ranking() {
        let g = diamond();
        let k_samples = 3 * SHARD_SAMPLES + 17;
        let baseline =
            ParallelSampler::new(Arc::clone(&g), 1).top_k_targets(NodeId(0), 3, k_samples, 11);
        for threads in [2, 8] {
            let got = ParallelSampler::new(Arc::clone(&g), threads).top_k_targets(
                NodeId(0),
                3,
                k_samples,
                11,
            );
            assert_eq!(got.scores.len(), baseline.scores.len());
            for (a, b) in got.scores.iter().zip(&baseline.scores) {
                assert_eq!(a.node, b.node);
                assert_eq!(a.reliability.to_bits(), b.reliability.to_bits());
            }
        }
        // Ranking truth on the diamond: 2 (0.6) leads; 3 (0.506) and
        // 1 (0.5) are a near-tie, so only the leader is asserted.
        assert_eq!(baseline.scores.len(), 3);
        assert_eq!(baseline.scores[0].node, NodeId(2));
    }

    #[test]
    fn adaptive_topk_is_thread_invariant_and_stops_early() {
        let g = diamond();
        let budget = SampleBudget::adaptive(0.1, 100_000);
        let baseline =
            ParallelSampler::new(Arc::clone(&g), 1).top_k_targets_with(NodeId(0), 3, &budget, 5);
        assert_eq!(baseline.stop_reason, StopReason::Converged);
        assert!(baseline.samples < 100_000, "used {}", baseline.samples);
        for threads in [2, 8] {
            let got = ParallelSampler::new(Arc::clone(&g), threads).top_k_targets_with(
                NodeId(0),
                3,
                &budget,
                5,
            );
            assert_eq!(got.samples, baseline.samples);
            assert_eq!(got.stop_reason, baseline.stop_reason);
            for (a, b) in got.scores.iter().zip(&baseline.scores) {
                assert_eq!(a.reliability.to_bits(), b.reliability.to_bits());
            }
        }
    }

    #[test]
    fn parallel_distance_constrained_matches_exact() {
        use crate::distance_constrained::exact_distance_constrained;
        let g = diamond();
        let sampler = ParallelSampler::new(Arc::clone(&g), 4);
        for d in [1usize, 2, 3] {
            let exact = exact_distance_constrained(&g, NodeId(0), NodeId(3), d);
            let est = sampler.estimate_distance_constrained(NodeId(0), NodeId(3), d, 60_000, 13);
            assert!(
                (est.reliability - exact).abs() < 0.01,
                "d={d}: {} vs {exact}",
                est.reliability
            );
        }
        // No path of length 1 exists: exactly zero.
        assert_eq!(
            sampler
                .estimate_distance_constrained(NodeId(0), NodeId(3), 1, 2000, 1)
                .reliability,
            0.0
        );
    }

    #[test]
    fn thread_count_does_not_change_distance_constrained_estimates() {
        let g = diamond();
        let k = 2 * SHARD_SAMPLES + 77;
        let baseline = ParallelSampler::new(Arc::clone(&g), 1).estimate_distance_constrained(
            NodeId(0),
            NodeId(3),
            2,
            k,
            3,
        );
        let adaptive_budget = SampleBudget::adaptive(0.08, 50_000);
        let adaptive_baseline = ParallelSampler::new(Arc::clone(&g), 1)
            .estimate_distance_constrained_with(NodeId(0), NodeId(3), 2, &adaptive_budget, 3);
        for threads in [2, 8] {
            let sampler = ParallelSampler::new(Arc::clone(&g), threads);
            let est = sampler.estimate_distance_constrained(NodeId(0), NodeId(3), 2, k, 3);
            assert_eq!(est.reliability.to_bits(), baseline.reliability.to_bits());
            let ad = sampler.estimate_distance_constrained_with(
                NodeId(0),
                NodeId(3),
                2,
                &adaptive_budget,
                3,
            );
            assert_eq!(
                ad.reliability.to_bits(),
                adaptive_baseline.reliability.to_bits()
            );
            assert_eq!(ad.samples, adaptive_baseline.samples);
            assert_eq!(ad.stop_reason, adaptive_baseline.stop_reason);
        }
    }

    #[test]
    fn single_worker_calls_run_inline_in_shard_order() {
        // One configured thread, or a range of one shard, needs one
        // worker: the shards run on the calling thread, in order, with
        // one state. Two workers over several shards spawn.
        let g = diamond();
        let shards = ParallelSampler::shards(4 * SHARD_SAMPLES);
        let caller = std::thread::current().id();
        let run = |threads: usize, range: std::ops::Range<usize>| {
            let seen = Mutex::new(Vec::new());
            let states = AtomicUsize::new(0);
            ParallelSampler::new(Arc::clone(&g), threads).run_shard_range_fold(
                &shards,
                range,
                1,
                || states.fetch_add(1, Ordering::Relaxed),
                |_, i, _, _| seen.lock().unwrap().push((i, std::thread::current().id())),
                |_| {},
            );
            (seen.into_inner().unwrap(), states.into_inner())
        };
        let (seen, states) = run(1, 0..shards.len());
        assert_eq!(states, 1);
        assert_eq!(seen, (0..4).map(|i| (i, caller)).collect::<Vec<_>>());
        let (seen, states) = run(8, 2..3);
        assert_eq!((seen, states), (vec![(2, caller)], 1));
        let (seen, states) = run(2, 0..shards.len());
        assert_eq!((seen.len(), states), (4, 2));
        assert!(seen.iter().all(|&(_, id)| id != caller));
    }

    #[test]
    fn shard_layout_covers_budget_exactly() {
        for k in [
            1,
            SHARD_SAMPLES - 1,
            SHARD_SAMPLES,
            SHARD_SAMPLES + 1,
            10_000,
        ] {
            let shards = ParallelSampler::shards(k);
            let total: usize = shards.iter().map(|&(_, len)| len).sum();
            assert_eq!(total, k);
            for window in shards.windows(2) {
                assert_eq!(window[0].0 + window[0].1, window[1].0);
            }
        }
    }

    #[test]
    fn shard_rngs_are_decorrelated() {
        let mut a = shard_rng(42, 0);
        let mut b = shard_rng(42, 1);
        use rand::RngCore;
        assert_ne!(a.next_u64(), b.next_u64());
        // Same (seed, shard) reproduces the stream.
        let mut c = shard_rng(42, 0);
        let mut d = shard_rng(42, 0);
        assert_eq!(c.next_u64(), d.next_u64());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_samples() {
        let g = diamond();
        let _ = ParallelSampler::new(g, 2).estimate_mc(NodeId(0), NodeId(3), 0, 1);
    }
}
