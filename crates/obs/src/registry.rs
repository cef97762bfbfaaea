//! Per-engine metrics registry: lock-free counters over static label
//! dimensions plus one latency histogram per workload.
//!
//! Label dimensions are closed enums so every counter is a plain array slot —
//! no hashing, no allocation, no locks on the hot path. The registry is
//! per-engine state (an engine's counters must not bleed into another
//! engine's `stats`); process-global sampler counters live in
//! [`crate::sampler`] instead.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::hist::{Histogram, HistogramSnapshot};
use crate::trace::TraceRing;

/// Served workload class, the primary label dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single-pair s-t reliability.
    St,
    /// Top-k most reliable targets from a source.
    TopK,
    /// Distance-constrained reliability R_d.
    Distance,
    /// Greedy reliability maximization (edge-upgrade search).
    Maximize,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::St,
        Workload::TopK,
        Workload::Distance,
        Workload::Maximize,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Workload::St => "st",
            Workload::TopK => "topk",
            Workload::Distance => "dquery",
            Workload::Maximize => "maximize",
        }
    }

    #[inline]
    fn idx(self) -> usize {
        match self {
            Workload::St => 0,
            Workload::TopK => 1,
            Workload::Distance => 2,
            Workload::Maximize => 3,
        }
    }
}

/// How a query concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered from the result cache.
    Hit,
    /// Answered by running an estimator.
    Miss,
    /// Refused by admission control or budget validation.
    Rejected,
    /// Failed for any other reason (unknown node, bad plan, ...).
    Error,
}

impl Outcome {
    pub const ALL: [Outcome; 4] = [
        Outcome::Hit,
        Outcome::Miss,
        Outcome::Rejected,
        Outcome::Error,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Outcome::Hit => "hit",
            Outcome::Miss => "miss",
            Outcome::Rejected => "rejected",
            Outcome::Error => "error",
        }
    }

    #[inline]
    fn idx(self) -> usize {
        match self {
            Outcome::Hit => 0,
            Outcome::Miss => 1,
            Outcome::Rejected => 2,
            Outcome::Error => 3,
        }
    }
}

/// Closed set of estimator display names used as the `estimator` label.
/// Anything outside this list (future estimators wired in without updating
/// obs) falls into the trailing `"other"` slot rather than being dropped.
pub const ESTIMATOR_LABELS: [&str; 11] = [
    "MC",
    "BFS Sharing",
    "ProbTree",
    "LP+",
    "LP",
    "RHH",
    "RSS",
    "ProbTree+LP+",
    "ProbTree+RHH",
    "ProbTree+RSS",
    "other",
];

#[inline]
fn estimator_idx(label: &str) -> usize {
    ESTIMATOR_LABELS
        .iter()
        .position(|l| *l == label)
        .unwrap_or(ESTIMATOR_LABELS.len() - 1)
}

/// Per-engine registry. Construct one per query engine
/// (`relcomp_serve::QueryEngine`) or similar owner; call
/// [`Registry::observe_query`] from the single place that finishes queries.
#[derive(Debug, Default)]
pub struct Registry {
    /// `queries[workload][outcome]`.
    queries: [[AtomicU64; 4]; 4],
    /// Completed (hit or miss) queries per estimator display name.
    by_estimator: [AtomicU64; ESTIMATOR_LABELS.len()],
    /// End-to-end latency in microseconds, per workload.
    latency: [Histogram; 4],
    updates: AtomicU64,
    /// Ring buffer of recent per-query stage traces.
    pub traces: TraceRing,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a completed query: outcome counter, estimator counter, and the
    /// workload latency histogram in one call.
    pub fn observe_query(
        &self,
        workload: Workload,
        outcome: Outcome,
        estimator: &str,
        micros: u64,
    ) {
        self.bump(workload, outcome);
        self.by_estimator[estimator_idx(estimator)].fetch_add(1, Ordering::Relaxed);
        self.latency[workload.idx()].record(micros);
    }

    /// Record a query refused before any estimator ran.
    pub fn record_rejected(&self, workload: Workload) {
        self.bump(workload, Outcome::Rejected);
    }

    /// Record a query that failed for a non-admission reason.
    pub fn record_error(&self, workload: Workload) {
        self.bump(workload, Outcome::Error);
    }

    pub fn note_update(&self) {
        self.updates.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn bump(&self, workload: Workload, outcome: Outcome) {
        self.queries[workload.idx()][outcome.idx()].fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self, workload: Workload, outcome: Outcome) -> u64 {
        self.queries[workload.idx()][outcome.idx()].load(Ordering::Relaxed)
    }

    /// Queries answered (hit + miss) across all workloads — the historical
    /// `stats.queries` counter.
    pub fn queries_total(&self) -> u64 {
        Workload::ALL
            .iter()
            .map(|&w| self.count(w, Outcome::Hit) + self.count(w, Outcome::Miss))
            .sum()
    }

    pub fn rejected_total(&self) -> u64 {
        Workload::ALL
            .iter()
            .map(|&w| self.count(w, Outcome::Rejected))
            .sum()
    }

    pub fn errors_total(&self) -> u64 {
        Workload::ALL
            .iter()
            .map(|&w| self.count(w, Outcome::Error))
            .sum()
    }

    pub fn updates(&self) -> u64 {
        self.updates.load(Ordering::Relaxed)
    }

    pub fn estimator_count(&self, label: &str) -> u64 {
        self.by_estimator[estimator_idx(label)].load(Ordering::Relaxed)
    }

    pub fn latency(&self, workload: Workload) -> &Histogram {
        &self.latency[workload.idx()]
    }

    /// Latency across all workloads, built by merging the per-workload
    /// histograms (exercising the mergeable-histogram contract).
    pub fn merged_latency(&self) -> HistogramSnapshot {
        let merged = Histogram::new();
        for w in Workload::ALL {
            merged.merge_from(self.latency(w));
        }
        merged.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_routes_to_labels() {
        let r = Registry::new();
        r.observe_query(Workload::St, Outcome::Miss, "ProbTree", 120);
        r.observe_query(Workload::St, Outcome::Hit, "ProbTree", 4);
        r.observe_query(Workload::TopK, Outcome::Miss, "MC", 5000);
        r.record_rejected(Workload::St);
        r.record_error(Workload::Distance);

        assert_eq!(r.queries_total(), 3);
        assert_eq!(r.rejected_total(), 1);
        assert_eq!(r.errors_total(), 1);
        assert_eq!(r.count(Workload::St, Outcome::Hit), 1);
        assert_eq!(r.count(Workload::St, Outcome::Miss), 1);
        assert_eq!(r.count(Workload::TopK, Outcome::Miss), 1);
        assert_eq!(r.estimator_count("ProbTree"), 2);
        assert_eq!(r.estimator_count("MC"), 1);
        assert_eq!(r.latency(Workload::St).count(), 2);
        assert_eq!(r.latency(Workload::TopK).count(), 1);
        assert_eq!(r.latency(Workload::Distance).count(), 0);
    }

    #[test]
    fn unknown_estimator_lands_in_other() {
        let r = Registry::new();
        r.observe_query(Workload::St, Outcome::Miss, "Quantum", 1);
        assert_eq!(r.estimator_count("other"), 1);
    }

    #[test]
    fn merged_latency_sums_workloads() {
        let r = Registry::new();
        r.observe_query(Workload::St, Outcome::Miss, "MC", 10);
        r.observe_query(Workload::TopK, Outcome::Miss, "MC", 10);
        r.observe_query(Workload::Distance, Outcome::Miss, "MC", 1_000_000);
        let merged = r.merged_latency();
        assert_eq!(merged.count, 3);
        assert_eq!(merged.sum, 1_000_020);
    }
}
