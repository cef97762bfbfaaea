//! The common estimator interface all six algorithms implement.
//!
//! The paper's central methodological complaint is that prior comparisons
//! used *different frameworks, datasets, and metrics*. This trait is the
//! "common system and code base": every estimator answers the same query
//! through the same API and reports the same measurements (estimate,
//! samples used, wall time, auxiliary memory).

use crate::session::{SampleBudget, StopReason};
use rand::RngCore;
use relcomp_ugraph::{EdgeUpdate, NodeId, UncertainGraph};
use std::sync::Arc;
use std::time::Duration;

/// Result of one s-t reliability estimation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Estimate {
    /// Estimated reliability `R(s, t)` in `[0, 1]`.
    pub reliability: f64,
    /// Number of samples `K` actually consumed.
    pub samples: usize,
    /// Wall-clock time of the estimation call.
    pub elapsed: Duration,
    /// Peak *auxiliary* bytes used during the call (everything beyond the
    /// input graph and any pre-built index — see [`Estimator::resident_bytes`]
    /// for the latter). Analytic accounting; see `memory` module.
    pub aux_bytes: usize,
    /// Estimated variance of `reliability` (the estimator's variance, not
    /// the per-sample variance). `None` when the run had no replication
    /// to measure spread from (a single fixed-`k` recursion).
    pub variance: Option<f64>,
    /// Confidence-interval half-width at the session's confidence level
    /// (Wilson for Bernoulli sampling, normal otherwise); `None` when
    /// unmeasurable — see [`Estimate::variance`].
    pub half_width: Option<f64>,
    /// Why sampling stopped (fixed budget, convergence, caps).
    pub stop_reason: StopReason,
}

impl Estimate {
    /// Sanity-check the estimate invariants (used by tests and the
    /// evaluation harness's debug assertions).
    pub fn is_valid(&self) -> bool {
        (0.0..=1.0).contains(&self.reliability) && self.reliability.is_finite()
    }
}

/// How an estimator absorbed a batch of edge-probability updates
/// ([`Estimator::apply_updates`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// The estimator keeps no per-graph index: it simply rebound to the
    /// new epoch's graph (pure sampling methods).
    Rebound,
    /// The index was maintained incrementally; `touched` counts the index
    /// units recomputed (decomposition bags for ProbTree, edge bit-slices
    /// for BFS-Sharing) — the §3.8 / Table 15 maintenance cost.
    Incremental {
        /// Index units (bags / edge slices) recomputed.
        touched: usize,
    },
    /// The estimator cannot migrate (topology changed, or no incremental
    /// path exists); the caller must rebuild it from scratch over the new
    /// graph.
    Rebuild,
}

impl UpdateOutcome {
    /// Short operator-facing label (wire `update` responses, bench
    /// reports).
    pub fn label(self) -> &'static str {
        match self {
            UpdateOutcome::Rebound => "rebound",
            UpdateOutcome::Incremental { .. } => "incremental",
            UpdateOutcome::Rebuild => "rebuild",
        }
    }
}

/// An s-t reliability estimator over one fixed uncertain graph.
///
/// Implementations are constructed *for a graph* (index-based methods build
/// their index at construction) and may keep reusable workspaces between
/// queries — the paper measures online query cost excluding one-off
/// allocation noise.
pub trait Estimator {
    /// Estimator name as printed in the paper's tables (e.g. `"MC"`,
    /// `"BFS Sharing"`, `"ProbTree"`, `"LP+"`, `"RHH"`, `"RSS"`).
    fn name(&self) -> &'static str;

    /// Estimate `R(s, t)` by streaming sample batches until `budget`
    /// says stop (fixed count, relative-half-width target, sample cap,
    /// wall-time cap — see [`SampleBudget`]).
    ///
    /// Implementations draw in batches (default 256) and consult the
    /// session's [`Convergence`](crate::session::Convergence) tracker
    /// between batches. Under [`SampleBudget::fixed`] the behavior —
    /// reliability, samples, RNG stream — is bit-identical to the
    /// historical fixed-`k` [`Estimator::estimate`].
    ///
    /// # Panics
    /// Implementations panic if `s` or `t` are out of range for the graph
    /// they were built over.
    fn estimate_with(
        &mut self,
        s: NodeId,
        t: NodeId,
        budget: &SampleBudget,
        rng: &mut dyn RngCore,
    ) -> Estimate;

    /// Estimate `R(s, t)` using exactly `k` samples — a thin wrapper over
    /// [`Estimator::estimate_with`] with [`SampleBudget::fixed`]`(k)`.
    ///
    /// # Panics
    /// Panics if `k` is zero or `s`/`t` are out of range.
    fn estimate(&mut self, s: NodeId, t: NodeId, k: usize, rng: &mut dyn RngCore) -> Estimate {
        self.estimate_with(s, t, &SampleBudget::fixed(k), rng)
    }

    /// Bytes held *between* queries: pre-built indexes plus long-lived
    /// workspaces. The input graph itself is excluded (all estimators share
    /// it). Default: 0 (pure sampling methods).
    fn resident_bytes(&self) -> usize {
        0
    }

    /// Refresh per-query state so successive queries are independent.
    ///
    /// Only BFS-Sharing needs this (its index *is* the sample set, so it
    /// must be re-drawn between queries — Table 15 of the paper measures
    /// exactly this cost). Default: no-op.
    fn refresh(&mut self, _rng: &mut dyn RngCore) {}

    /// Migrate this estimator to a new graph epoch produced by
    /// [`UncertainGraph::with_updated_probs`] with `updates`.
    ///
    /// `graph` must share the old graph's topology
    /// ([`UncertainGraph::same_topology`]); implementations that maintain
    /// an index repair only the parts `updates` touched instead of
    /// rebuilding (the paper's Table 15 cost, generalized). The default
    /// conservatively reports [`UpdateOutcome::Rebuild`]: the caller
    /// drops the estimator and constructs a fresh one over `graph`.
    fn apply_updates(
        &mut self,
        graph: &Arc<UncertainGraph>,
        updates: &[EdgeUpdate],
        rng: &mut dyn RngCore,
    ) -> UpdateOutcome {
        let _ = (graph, updates, rng);
        UpdateOutcome::Rebuild
    }
}

/// Validate a query against the graph, panicking with a clear message.
pub(crate) fn validate_query(graph: &UncertainGraph, s: NodeId, t: NodeId) {
    assert!(
        graph.contains_node(s),
        "source node {s} out of range (graph has {} nodes)",
        graph.num_nodes()
    );
    assert!(
        graph.contains_node(t),
        "target node {t} out of range (graph has {} nodes)",
        graph.num_nodes()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_validity_bounds() {
        let ok = Estimate {
            reliability: 0.5,
            samples: 10,
            elapsed: Duration::ZERO,
            aux_bytes: 0,
            variance: Some(0.025),
            half_width: Some(0.31),
            stop_reason: StopReason::FixedK,
        };
        assert!(ok.is_valid());
        let bad = Estimate {
            reliability: 1.5,
            ..ok
        };
        assert!(!bad.is_valid());
        let nan = Estimate {
            reliability: f64::NAN,
            ..ok
        };
        assert!(!nan.is_valid());
    }
}
