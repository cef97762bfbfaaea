//! Wire protocol of the `relcomp` query service.
//!
//! Line-delimited JSON over TCP: each request is one JSON object on one
//! line, answered by exactly one JSON object on one line. The protocol is
//! self-describing (`cmd` on requests, `ok`/`kind` on responses) so
//! clients in any language can speak it with a socket and a JSON library.
//!
//! Requests:
//!
//! ```text
//! {"cmd":"ping"}
//! {"cmd":"query","s":0,"t":3,"estimator":"mc","samples":2000,"seed":7}
//! {"cmd":"query","s":0,"t":3,"eps":0.01,"confidence":0.95,"samples":20000}
//! {"cmd":"query","s":0,"t":3,"time_budget_ms":50}
//! {"cmd":"topk","s":0,"k":10,"samples":2000,"seed":7}
//! {"cmd":"topk","s":0,"k":10,"eps":0.05,"samples":50000}
//! {"cmd":"dquery","s":0,"t":3,"d":4,"samples":2000,"seed":7}
//! {"cmd":"dquery","s":0,"t":3,"d":4,"eps":0.01,"time_budget_ms":50}
//! {"cmd":"maximize","s":0,"t":3,"k":2,"boost":0.95,"eps":0.02,"seed":7}
//! {"cmd":"maximize","s":0,"t":3,"k":1,"apply":true,"samples":5000}
//! {"cmd":"batch","queries":[{"s":0,"t":3},{"s":0,"t":5}]}
//! {"cmd":"update","updates":[{"s":0,"t":3,"prob":0.25}]}
//! {"cmd":"reload","path":"/data/graph.ug"}
//! {"cmd":"load","name":"social","path":"/data/social.ug2","quota":64}
//! {"cmd":"use","name":"social"}
//! {"cmd":"unload","name":"social"}
//! {"cmd":"stats"}
//! {"cmd":"metrics"}
//! {"cmd":"metrics","format":"prom"}
//! {"cmd":"trace","last":5}
//! {"cmd":"shutdown"}
//! ```
//!
//! `estimator`, `samples`, and `seed` are optional; the server substitutes
//! its configured defaults (`estimator` also accepts `"auto"`, which runs
//! the paper's Fig. 18 recommendation under the server's policy knobs).
//!
//! ## Adaptive budgets
//!
//! Three optional fields turn a query from "run exactly K samples" into a
//! streaming session with a stopping rule:
//!
//! * `eps` — relative half-width target: sampling stops once the
//!   confidence interval's half-width drops below `eps * estimate`.
//! * `confidence` — CI confidence level for `eps` (default 0.95).
//! * `time_budget_ms` — wall-time cap; sampling stops at the first batch
//!   barrier past the cap.
//!
//! When any is present, `samples` becomes the *cap* instead of the exact
//! count (server default cap applies when absent). The response reports
//! the samples actually consumed, the achieved `half_width`, and a
//! `stop_reason` of `fixed_k`, `converged`, `max_samples`, or
//! `time_limit`. Under `estimator:"auto"` with no explicit `samples`/
//! `eps`, the planner itself picks an adaptive budget (the server's fixed
//! relative accuracy target `engine::AUTO_EPS`, 0.01) instead of a raw K.
//!
//! ## Extension workloads
//!
//! `topk` answers the top-k reliability search BFS Sharing was
//! originally designed for (Zhu et al., ICDM'15): the `k` nodes with the
//! highest reliability from source `s`, sampled on the sharded parallel
//! MC path. `dquery` answers distance-constrained reachability
//! `R_d(s, t)` — the probability `t` is within `d` hops of `s` (Jin et
//! al., PVLDB'11; `d` is required). Both accept the same adaptive-budget
//! fields as `query` (`eps` then targets the boundary — k-th ranked —
//! score for `topk`), are cached under epoch-tagged keys covering the
//! workload parameters (`k`/`d`) and the full budget, and go stale on
//! `update`/`reload` exactly like s-t answers.
//!
//! ## Reliability maximization
//!
//! `maximize` greedily picks the `k` edge upgrades (probability boosts
//! to `boost`, default 1.0) that maximize `R(s, t)`, scoring candidates
//! by marginal gain on copy-on-write snapshots with lazy-forward
//! re-evaluation; each greedy round escalates its sample budget until
//! the leader's confidence interval separates from the runner-up's. The
//! budget fields bound every candidate evaluation: `samples` is the
//! per-evaluation count (or cap, when `eps` is present), and `eps`/
//! `confidence` set the CI target. `candidates` caps the pool (edges
//! ranked by upgrade headroom). Report-only by default; `"apply":true`
//! additionally commits the chosen boosts through the live-update path,
//! bumping the epoch (the response then carries `applied_epoch`).
//! Report-only answers are cached like any read; `apply` runs never
//! cache. With the same `seed` the chosen set is bit-identical for any
//! server thread count (unless `time_budget_ms` is set — wall-clock
//! stopping is not deterministic).
//!
//! ## Tenancy verbs
//!
//! The server holds a registry of named graphs ("tenants"), each a full
//! engine with its own epoch, resident estimator indexes, result-cache
//! shards, and admission quota. Every connection starts on the tenant
//! named `default` (the graph from the `serve` command line) and can
//! retarget itself:
//!
//! * `load` — read the graph file at `path` and make it resident as
//!   tenant `name`. Optional `quota` caps that tenant's concurrent
//!   queries (its `max_inflight`). Loading an already-resident name is
//!   an error (`unload` it first). When warm-cache persistence is on,
//!   `load` re-admits the tenant's validated on-disk snapshot, so the
//!   `loaded` response reports `warm_entries`.
//! * `use` — switch *this connection* to tenant `name`; other
//!   connections are unaffected. Every subsequent query/update/stats/
//!   metrics verb runs against that tenant.
//! * `unload` — drop tenant `name` registry-wide (flushing a final warm
//!   snapshot when persistence is on). In-flight queries finish; new
//!   requests from connections still pointing at it fail until they
//!   `use` a resident tenant.
//!
//! These three verbs exist at the *server* layer: dispatching them
//! against a bare engine (no registry) answers an error.
//!
//! ## Observability verbs
//!
//! `metrics` exposes the server's full metrics registry. The default JSON
//! form returns counters (`relcomp_queries_total` by `workload` ∈
//! `st`/`topk`/`dquery` and `outcome` ∈ `hit`/`miss`/`rejected`/`error`,
//! `relcomp_queries_by_estimator_total`, cache and sampler totals), gauges
//! (inflight, epoch, graph size, resident-index bytes), and log2-bucketed
//! latency histograms per workload plus a merged `workload="all"` series —
//! each with exact `count`/`sum`, p50/p90/p99/p99.9, and cumulative
//! `le`-buckets. The top-level `queries_total` field repeats the summed
//! query counter for cheap smoke checks. With `"format":"prom"` the same
//! snapshot is rendered as Prometheus text exposition and returned in a
//! `metrics_text` response's `text` field. `stats` remains a compact,
//! wire-stable view of the same registry.
//!
//! `trace` returns the most recent per-query stage breakdowns (newest
//! first, up to `last`, default 16, from a bounded in-memory ring): wall
//! `nanos` plus per-stage timings over `parse` → `admission` →
//! `cache_lookup` → `plan` → `sample` → `convergence_check` → `serialize`.
//! Stages that did not run for a query (e.g. `sample` on a cache hit) are
//! absent.
//!
//! `update` changes existing edges' probabilities in place: the server
//! snapshots a new graph **epoch** (topology shared, probabilities
//! copy-on-write), migrates resident estimator indexes incrementally,
//! and bumps the epoch that keys the result cache — prior answers go
//! stale without any explicit flush. `reload` replaces the whole graph
//! from a file (`path` optional if the server was started from one),
//! the rebuild path for topology changes.
//!
//! Responses (`"ok":false` carries only `error`):
//!
//! ```text
//! {"ok":true,"kind":"pong"}
//! {"ok":true,"kind":"query","s":0,"t":3,"reliability":0.42,"samples":2000,
//!  "estimator":"MC","micros":1234,"cached":false,
//!  "stop_reason":"fixed_k","half_width":0.0216,"variance":0.000122}
//! {"ok":true,"kind":"topk","s":0,"k":2,"targets":[{"node":5,"reliability":0.9},...],
//!  "samples":2000,"micros":640,"cached":false,"stop_reason":"fixed_k","half_width":0.02}
//! {"ok":true,"kind":"dquery","s":0,"t":3,"d":4,"reliability":0.31,"samples":1792,
//!  "micros":410,"cached":false,"stop_reason":"converged","half_width":0.003,"variance":1.2e-7}
//! {"ok":true,"kind":"batch","results":[...single query objects...]}
//! {"ok":true,"kind":"update","epoch":3,"edges_updated":1,
//!  "migrated":[{"estimator":"ProbTree","mode":"incremental","touched":2}]}
//! {"ok":true,"kind":"reload","epoch":4,"nodes":100,"edges":320}
//! {"ok":true,"kind":"loaded","name":"social","nodes":100,"edges":320,"epoch":0,
//!  "load_path":"mmap","load_micros":812,"warm_entries":17,"quota":64}
//! {"ok":true,"kind":"using","name":"social","epoch":0,"nodes":100,"edges":320}
//! {"ok":true,"kind":"unloaded","name":"social"}
//! {"ok":true,"kind":"stats","queries":10,...}
//! {"ok":true,"kind":"metrics","queries_total":10,"counters":[
//!  {"name":"relcomp_queries_total","labels":{"workload":"st","outcome":"miss"},"value":7},...],
//!  "gauges":[...],"histograms":[{"name":"relcomp_query_latency_micros",
//!  "labels":{"workload":"st"},"count":10,"sum":5120,"p50":511,"p90":1023,
//!  "p99":1023,"p999":1023,"buckets":[{"le":511,"count":6},{"le":1023,"count":10}]}]}
//! {"ok":true,"kind":"metrics_text","text":"# TYPE relcomp_queries_total counter\n..."}
//! {"ok":true,"kind":"trace","traces":[{"workload":"st","s":0,"t":3,"ok":true,
//!  "cached":false,"nanos":152000,"stages":[{"stage":"admission","nanos":210},
//!  {"stage":"plan","nanos":3400},{"stage":"sample","nanos":140000}]}]}
//! {"ok":true,"kind":"bye"}
//! {"ok":false,"error":"unknown estimator `mcmc`"}
//! ```
//!
//! Every request and response body is a derived struct: optional fields
//! are left out of the wire when `None`, and a missing or `null` field
//! reads as `None`. Only [`Request`] and [`Response`] are written by hand,
//! to add the `cmd` / `ok`+`kind` tag around those bodies.

use relcomp_obs::{MetricsSnapshot, QueryTrace};
use serde::{DeError, Deserialize, Serialize, Value};

/// Default TCP port of `relcomp serve`.
pub const DEFAULT_PORT: u16 = 7117;

/// One s-t reliability query as sent on the wire.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename = "query")]
pub struct QueryRequest {
    /// Source node id.
    pub s: u32,
    /// Target node id.
    pub t: u32,
    /// Estimator name (`mc`, `probtree`, ... or `auto`); `None` = server
    /// default.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub estimator: Option<String>,
    /// Sample budget `K` — the exact count for fixed queries, the cap
    /// when `eps`/`time_budget_ms` make the query adaptive; `None` =
    /// server default.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub samples: Option<usize>,
    /// Master seed; `None` = server default. Part of the cache key.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub seed: Option<u64>,
    /// Relative half-width target: stop sampling once the CI half-width
    /// drops below `eps * estimate`. `None` = fixed-budget query.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub eps: Option<f64>,
    /// Confidence level for the half-width target; `None` = server
    /// default (0.95).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub confidence: Option<f64>,
    /// Wall-time cap in milliseconds; sampling stops at the first batch
    /// barrier past it. `None` = no time cap.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub time_budget_ms: Option<u64>,
}

impl QueryRequest {
    /// A query with all optional fields left to server defaults.
    pub fn new(s: u32, t: u32) -> Self {
        QueryRequest {
            s,
            t,
            estimator: None,
            samples: None,
            seed: None,
            eps: None,
            confidence: None,
            time_budget_ms: None,
        }
    }

    /// Whether any adaptive-budget field is present.
    pub fn is_adaptive(&self) -> bool {
        self.eps.is_some() || self.time_budget_ms.is_some()
    }
}

/// One top-k reliability search as sent on the wire (`cmd":"topk"`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename = "topk")]
pub struct TopKRequest {
    /// Source node id.
    pub s: u32,
    /// How many targets to return; `None` = server default.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub k: Option<usize>,
    /// Sample budget (exact count for fixed queries, cap when adaptive);
    /// `None` = server default.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub samples: Option<usize>,
    /// Master seed; `None` = server default. Part of the cache key.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub seed: Option<u64>,
    /// Relative half-width target for the boundary (k-th ranked) score.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub eps: Option<f64>,
    /// Confidence level for the half-width target.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub confidence: Option<f64>,
    /// Wall-time cap in milliseconds.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub time_budget_ms: Option<u64>,
}

impl TopKRequest {
    /// A top-k search with all optional fields left to server defaults.
    pub fn new(s: u32) -> Self {
        TopKRequest {
            s,
            k: None,
            samples: None,
            seed: None,
            eps: None,
            confidence: None,
            time_budget_ms: None,
        }
    }
}

/// One distance-constrained reliability query `R_d(s, t)` as sent on the
/// wire (`cmd":"dquery"`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename = "dquery")]
pub struct DistanceQueryRequest {
    /// Source node id.
    pub s: u32,
    /// Target node id.
    pub t: u32,
    /// Hop bound `d` (required; `0` reaches only `s` itself).
    pub d: usize,
    /// Sample budget (exact count for fixed queries, cap when adaptive);
    /// `None` = server default.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub samples: Option<usize>,
    /// Master seed; `None` = server default. Part of the cache key.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub seed: Option<u64>,
    /// Relative half-width target.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub eps: Option<f64>,
    /// Confidence level for the half-width target.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub confidence: Option<f64>,
    /// Wall-time cap in milliseconds.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub time_budget_ms: Option<u64>,
}

impl DistanceQueryRequest {
    /// A distance query with all optional fields left to server defaults.
    pub fn new(s: u32, t: u32, d: usize) -> Self {
        DistanceQueryRequest {
            s,
            t,
            d,
            samples: None,
            seed: None,
            eps: None,
            confidence: None,
            time_budget_ms: None,
        }
    }
}

/// One reliability-maximization request as sent on the wire
/// (`"cmd":"maximize"`): greedily pick `k` edge upgrades (probability
/// boosts to `boost`) maximizing `R(s, t)`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename = "maximize")]
pub struct MaximizeRequest {
    /// Source node id.
    pub s: u32,
    /// Target node id.
    pub t: u32,
    /// Upgrades to pick; `None` = server default (1).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub k: Option<usize>,
    /// Probability chosen edges are boosted to, in `(0, 1]`; `None` = 1.0.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub boost: Option<f64>,
    /// Candidate-pool cap (edges ranked by upgrade headroom); `None` =
    /// server default.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub candidates: Option<usize>,
    /// Commit the chosen upgrades through the live update path (bumps
    /// the graph epoch) instead of only reporting them.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub apply: bool,
    /// Per-evaluation sample budget (exact count for fixed, cap when
    /// adaptive); `None` = server default.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub samples: Option<usize>,
    /// Master seed; `None` = server default. Part of the cache key.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub seed: Option<u64>,
    /// Relative half-width target for each evaluation.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub eps: Option<f64>,
    /// Confidence level for the half-width target.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub confidence: Option<f64>,
    /// Wall-time cap in milliseconds per evaluation (breaks
    /// thread-count determinism).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub time_budget_ms: Option<u64>,
}

impl MaximizeRequest {
    /// A maximization with all optional fields left to server defaults.
    pub fn new(s: u32, t: u32) -> Self {
        MaximizeRequest {
            s,
            t,
            k: None,
            boost: None,
            candidates: None,
            apply: false,
            samples: None,
            seed: None,
            eps: None,
            confidence: None,
            time_budget_ms: None,
        }
    }
}

/// One edge-probability update as sent on the wire: the existing edge
/// `s -> t` gets existence probability `prob` in the next epoch.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename = "update")]
pub struct EdgeProbUpdate {
    /// Source node of the edge to update.
    pub s: u32,
    /// Target node of the edge to update.
    pub t: u32,
    /// New existence probability in `(0, 1]`.
    pub prob: f64,
}

/// Every request the server understands.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// One s-t reliability query.
    Query(QueryRequest),
    /// Top-k reliability search from a source node.
    TopK(TopKRequest),
    /// Distance-constrained reliability query `R_d(s, t)`.
    DQuery(DistanceQueryRequest),
    /// Greedy reliability maximization: pick `k` edge upgrades.
    Maximize(MaximizeRequest),
    /// Several queries answered in one round trip; the server amortizes
    /// possible-world sampling across MC queries sharing a source (one
    /// shared world stream answers the whole group). A grouped answer is
    /// unbiased and thread-count-deterministic but may differ bit-wise
    /// from the same query computed alone; the result cache replays
    /// whichever computation landed first for a given key.
    Batch(Vec<QueryRequest>),
    /// Apply a batch of edge-probability updates: snapshot a new graph
    /// epoch, migrate resident estimator indexes incrementally, bump the
    /// cache epoch. All-or-nothing: one bad update rejects the batch.
    Update(Vec<EdgeProbUpdate>),
    /// Replace the served graph wholesale from a file (the rebuild path
    /// for edge inserts/deletes). `path` defaults to the file the server
    /// was started from.
    Reload {
        /// Graph file to load (`.ugb` = binary, otherwise text).
        path: Option<String>,
    },
    /// Make the graph file at `path` resident as tenant `name`
    /// (server-layer verb; errors against a bare engine).
    LoadGraph {
        /// Tenant name to register the graph under.
        name: String,
        /// Graph file to load (any format `load`/`serve` accept).
        path: String,
        /// Per-tenant admission quota (`max_inflight`); `None` inherits
        /// the server default.
        quota: Option<usize>,
    },
    /// Drop tenant `name` registry-wide (server-layer verb).
    UnloadGraph {
        /// Tenant to unload.
        name: String,
    },
    /// Point this connection's session at tenant `name` (server-layer
    /// verb).
    UseGraph {
        /// Tenant to switch to.
        name: String,
    },
    /// Server / cache counters.
    Stats,
    /// Full metrics registry: counters, gauges, and latency histograms.
    Metrics {
        /// Exposition format; `Json` (the default when the wire field is
        /// absent) answers with [`Response::Metrics`], `Prom` with
        /// Prometheus text in [`Response::MetricsText`].
        format: MetricsFormat,
    },
    /// Most recent per-query stage traces, newest first.
    Trace {
        /// How many traces to return (`last` on the wire); `None` = server
        /// default (16).
        n: Option<usize>,
    },
    /// Stop the server after acknowledging.
    Shutdown,
}

/// How [`Request::Metrics`] wants the registry rendered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Structured JSON ([`Response::Metrics`]).
    #[default]
    Json,
    /// Prometheus text exposition ([`Response::MetricsText`]).
    Prom,
}

/// Successful answer to one query.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QueryResponse {
    /// Echoed source node.
    pub s: u32,
    /// Echoed target node.
    pub t: u32,
    /// Estimated reliability in `[0, 1]`.
    pub reliability: f64,
    /// Samples the estimate consumed.
    pub samples: usize,
    /// Display name of the estimator that answered.
    pub estimator: String,
    /// Server-side wall time of this answer in microseconds (a cache hit
    /// reports the lookup, not the original computation).
    pub micros: u64,
    /// Whether the answer came from the result cache.
    pub cached: bool,
    /// Why sampling stopped: `fixed_k`, `converged`, `max_samples`, or
    /// `time_limit`.
    pub stop_reason: String,
    /// Achieved CI half-width (Wilson for sampling estimators); absent
    /// when the run had no replication to measure spread from.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub half_width: Option<f64>,
    /// Estimated variance of the reported reliability; absent when
    /// unmeasurable.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub variance: Option<f64>,
}

/// One ranked target inside a [`TopKResponse`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TargetEntry {
    /// Target node id.
    pub node: u32,
    /// Estimated `R(s, node)`.
    pub reliability: f64,
}

/// Successful answer to one top-k search.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TopKResponse {
    /// Echoed source node.
    pub s: u32,
    /// The `k` that was answered (after defaulting).
    pub k: usize,
    /// Ranked targets, best first (may be shorter than `k` when fewer
    /// nodes are reachable).
    pub targets: Vec<TargetEntry>,
    /// Possible worlds the search consumed.
    pub samples: usize,
    /// Server-side wall time of this answer in microseconds.
    pub micros: u64,
    /// Whether the answer came from the result cache.
    pub cached: bool,
    /// Why sampling stopped.
    pub stop_reason: String,
    /// Wilson CI half-width of the boundary (k-th ranked) score; absent
    /// when unmeasurable.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub half_width: Option<f64>,
}

/// Successful answer to one distance-constrained query.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DistanceQueryResponse {
    /// Echoed source node.
    pub s: u32,
    /// Echoed target node.
    pub t: u32,
    /// Echoed hop bound.
    pub d: usize,
    /// Estimated `R_d(s, t)` in `[0, 1]`.
    pub reliability: f64,
    /// Samples the estimate consumed.
    pub samples: usize,
    /// Server-side wall time of this answer in microseconds.
    pub micros: u64,
    /// Whether the answer came from the result cache.
    pub cached: bool,
    /// Why sampling stopped.
    pub stop_reason: String,
    /// Achieved CI half-width; absent when unmeasurable.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub half_width: Option<f64>,
    /// Estimated variance of the reported reliability.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub variance: Option<f64>,
}

/// One upgrade a [`MaximizeResponse`] picked, in greedy order.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct UpgradeRow {
    /// Source node of the upgraded edge.
    pub s: u32,
    /// Target node of the upgraded edge.
    pub t: u32,
    /// The edge's probability before the upgrade.
    pub old_prob: f64,
    /// The probability the edge was boosted to.
    pub new_prob: f64,
    /// Estimated marginal reliability gain at pick time.
    pub gain: f64,
    /// Estimated `R(s, t)` after this upgrade.
    pub reliability: f64,
}

/// Successful answer to one reliability maximization.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MaximizeResponse {
    /// Echoed source node.
    pub s: u32,
    /// Echoed target node.
    pub t: u32,
    /// The `k` that was answered (after defaulting).
    pub k: usize,
    /// Estimated `R(s, t)` before any upgrade.
    pub base_reliability: f64,
    /// Estimated `R(s, t)` with every chosen upgrade applied.
    pub reliability: f64,
    /// `reliability - base_reliability`.
    pub gain: f64,
    /// The picked upgrades, best-marginal-gain first.
    pub chosen: Vec<UpgradeRow>,
    /// Candidate-pool size the greedy searched.
    pub candidates: usize,
    /// Candidate evaluations performed (lazy-forward re-evaluation keeps
    /// this below `candidates * k` after the first round).
    pub evaluations: usize,
    /// Total possible worlds sampled across all evaluations.
    pub samples: usize,
    /// Server-side wall time of this answer in microseconds.
    pub micros: u64,
    /// Whether the answer came from the result cache.
    pub cached: bool,
    /// The epoch the upgrades were committed at when the request set
    /// `apply`; absent for report-only runs.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub applied_epoch: Option<u64>,
}

/// How one resident estimator survived an epoch swap (part of
/// [`UpdateResponse`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MigratedResident {
    /// Display name of the estimator (e.g. `"ProbTree"`).
    pub estimator: String,
    /// Migration mode: `"incremental"` (index repaired in place),
    /// `"rebound"` (no index, graph pointer swapped), or `"evicted"`
    /// (could not migrate; rebuilt lazily on next use).
    pub mode: String,
    /// Index units recomputed on the incremental path (0 otherwise).
    pub touched: usize,
}

/// Successful answer to [`Request::Update`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct UpdateResponse {
    /// The new graph epoch (all cache keys now miss until recomputed).
    pub epoch: u64,
    /// Edges whose probability changed.
    pub edges_updated: usize,
    /// Fate of every estimator that was resident when the update landed.
    pub migrated: Vec<MigratedResident>,
}

/// Successful answer to [`Request::Reload`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReloadResponse {
    /// The new graph epoch.
    pub epoch: u64,
    /// Nodes in the newly served graph.
    pub nodes: usize,
    /// Edges in the newly served graph.
    pub edges: usize,
}

/// Successful answer to [`Request::LoadGraph`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LoadResponse {
    /// Tenant name the graph is now resident under.
    pub name: String,
    /// Nodes in the loaded graph.
    pub nodes: usize,
    /// Edges in the loaded graph.
    pub edges: usize,
    /// Epoch the tenant starts at (nonzero when a warm snapshot seeded
    /// it).
    pub epoch: u64,
    /// How the file was loaded: `mmap` (zero-copy) or `heap`.
    pub load_path: String,
    /// Wall time of the disk load in microseconds.
    pub load_micros: u64,
    /// Cache entries re-admitted from the tenant's warm snapshot.
    pub warm_entries: usize,
    /// Effective admission quota (`max_inflight`) of the tenant.
    pub quota: usize,
}

/// Successful answer to [`Request::UseGraph`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct UseResponse {
    /// Tenant this connection now targets.
    pub name: String,
    /// The tenant's current epoch.
    pub epoch: u64,
    /// Nodes in the tenant's graph.
    pub nodes: usize,
    /// Edges in the tenant's graph.
    pub edges: usize,
}

/// Server / cache counters returned by [`Request::Stats`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StatsResponse {
    /// Queries answered (cache hits included, rejected excluded).
    pub queries: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Entries currently cached.
    pub cache_entries: usize,
    /// Queries rejected by admission control.
    pub rejected: u64,
    /// Sampling worker threads per query.
    pub threads: usize,
    /// Graph epoch (changes when the served graph is swapped).
    pub epoch: u64,
    /// Update/reload batches applied since start.
    pub updates: u64,
    /// Nodes in the served graph.
    pub nodes: usize,
    /// Edges in the served graph.
    pub edges: usize,
    /// Estimators resident in the registry (built and kept across
    /// queries) at the current epoch.
    pub resident_estimators: usize,
    /// Total bytes held by resident estimator indexes/workspaces — the
    /// index memory an operator pays per epoch, beyond the graph itself.
    pub resident_bytes: usize,
    /// Worlds sampled through the packed kernels, process-wide (each
    /// pass adds its worlds, a partial last word included). With
    /// `scalar_samples` this shows how much sampling work rides the
    /// word-parallel path.
    pub packed_samples: u64,
    /// Worlds sampled one at a time (plain MC and in-place ProbTree
    /// with MC, one world per sample), process-wide. Served
    /// `ParallelSampler` shards add none.
    pub scalar_samples: u64,
    /// How the served graph was last loaded from disk: `"mmap"`
    /// (zero-copy view of a v2 binary), `"heap"` (parsed into owned
    /// memory), or `""` when no disk load was recorded (e.g. the graph
    /// was built in memory).
    pub load_path: String,
    /// Microseconds the last recorded disk load took (0 when none).
    pub load_micros: u64,
    /// Microseconds since the engine started.
    pub uptime_micros: u64,
}

impl StatsResponse {
    /// Cache hit rate in `[0, 1]` (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// One counter or gauge sample inside a [`MetricsReport`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricRow {
    /// Metric family name (e.g. `relcomp_queries_total`).
    pub name: String,
    /// Label pairs identifying this sample within the family, in stable
    /// order (serialized as a JSON object).
    #[serde(with = "labels")]
    pub labels: Vec<(String, String)>,
    /// Current value.
    pub value: u64,
}

/// One cumulative histogram bucket inside a [`HistogramRow`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BucketRow {
    /// Inclusive upper bound of the bucket.
    pub le: u64,
    /// Observations at or below `le` (cumulative).
    pub count: u64,
}

/// One latency histogram inside a [`MetricsReport`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramRow {
    /// Metric family name (e.g. `relcomp_query_latency_micros`).
    pub name: String,
    /// Label pairs identifying this series within the family.
    #[serde(with = "labels")]
    pub labels: Vec<(String, String)>,
    /// Exact number of observations.
    pub count: u64,
    /// Exact sum of all observed values.
    pub sum: u64,
    /// Median estimate (upper bound of the bucket holding the quantile).
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// 99.9th-percentile estimate.
    pub p999: u64,
    /// Cumulative `le`-buckets over non-empty buckets only.
    pub buckets: Vec<BucketRow>,
}

/// The full metrics registry returned by [`Request::Metrics`] in JSON form.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Queries answered (hits + misses across all workloads) — repeated at
    /// the top level so smoke checks can grep one scalar.
    pub queries_total: u64,
    /// All counter samples.
    pub counters: Vec<MetricRow>,
    /// All gauge samples.
    pub gauges: Vec<MetricRow>,
    /// All latency histograms (per workload plus the merged
    /// `workload="all"` series).
    pub histograms: Vec<HistogramRow>,
}

fn mirror_labels(labels: &[(&'static str, String)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| ((*k).to_owned(), v.clone()))
        .collect()
}

impl From<&MetricsSnapshot> for MetricsReport {
    fn from(snap: &MetricsSnapshot) -> Self {
        MetricsReport {
            queries_total: snap.counter_total("relcomp_queries_total"),
            counters: snap
                .counters
                .iter()
                .map(|c| MetricRow {
                    name: c.name.to_owned(),
                    labels: mirror_labels(&c.labels),
                    value: c.value,
                })
                .collect(),
            gauges: snap
                .gauges
                .iter()
                .map(|g| MetricRow {
                    name: g.name.to_owned(),
                    labels: mirror_labels(&g.labels),
                    value: g.value,
                })
                .collect(),
            histograms: snap
                .histograms
                .iter()
                .map(|h| HistogramRow {
                    name: h.name.to_owned(),
                    labels: mirror_labels(&h.labels),
                    count: h.count,
                    sum: h.sum,
                    p50: h.p50,
                    p90: h.p90,
                    p99: h.p99,
                    p999: h.p999,
                    buckets: h
                        .buckets
                        .iter()
                        .map(|&(le, count)| BucketRow { le, count })
                        .collect(),
                })
                .collect(),
        }
    }
}

impl MetricsReport {
    /// The first histogram with this name and an exactly matching label
    /// set, if any.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramRow> {
        self.histograms.iter().find(|h| {
            h.name == name
                && h.labels.len() == labels.len()
                && h.labels
                    .iter()
                    .zip(labels)
                    .all(|((k, v), (wk, wv))| k == wk && v == wv)
        })
    }

    /// Summed value of every counter sample in this family.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }
}

/// One timed stage inside a [`TraceRow`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StageRow {
    /// Stage label: `parse`, `admission`, `cache_lookup`, `plan`,
    /// `sample`, `convergence_check`, or `serialize`.
    pub stage: String,
    /// Time spent in the stage, nanoseconds.
    pub nanos: u64,
}

/// One per-query stage breakdown returned by [`Request::Trace`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceRow {
    /// Workload label (`st` / `topk` / `dquery`), or `"?"` if the query
    /// failed before classification.
    pub workload: String,
    /// Source node (0 when not applicable).
    pub s: u64,
    /// Target node (for `topk`: 0).
    pub t: u64,
    /// Whether the query succeeded.
    pub ok: bool,
    /// Whether the answer came from the result cache.
    pub cached: bool,
    /// End-to-end wall time, nanoseconds.
    pub nanos: u64,
    /// Stages in recorded order; stages that did not run are absent.
    pub stages: Vec<StageRow>,
}

impl From<&QueryTrace> for TraceRow {
    fn from(t: &QueryTrace) -> Self {
        TraceRow {
            workload: t.workload.to_owned(),
            s: t.s,
            t: t.t,
            ok: t.ok,
            cached: t.cached,
            nanos: t.nanos,
            stages: t
                .stages
                .iter()
                .map(|s| StageRow {
                    stage: s.stage.label().to_owned(),
                    nanos: s.nanos,
                })
                .collect(),
        }
    }
}

/// Every response the server sends.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Query`].
    Query(QueryResponse),
    /// Answer to [`Request::TopK`].
    TopK(TopKResponse),
    /// Answer to [`Request::DQuery`].
    DQuery(DistanceQueryResponse),
    /// Answer to [`Request::Maximize`].
    Maximize(MaximizeResponse),
    /// Answer to [`Request::Batch`]: one entry per query, in order.
    Batch(Vec<Result<QueryResponse, String>>),
    /// Answer to [`Request::Update`].
    Update(UpdateResponse),
    /// Answer to [`Request::Reload`].
    Reload(ReloadResponse),
    /// Answer to [`Request::LoadGraph`].
    Loaded(LoadResponse),
    /// Answer to [`Request::UnloadGraph`].
    Unloaded {
        /// The tenant that was dropped.
        name: String,
    },
    /// Answer to [`Request::UseGraph`].
    Using(UseResponse),
    /// Answer to [`Request::Stats`].
    Stats(StatsResponse),
    /// Answer to [`Request::Metrics`] with [`MetricsFormat::Json`].
    Metrics(MetricsReport),
    /// Answer to [`Request::Metrics`] with [`MetricsFormat::Prom`]:
    /// Prometheus text exposition (embedded newlines are JSON-escaped, so
    /// the wire stays one line per response).
    MetricsText(String),
    /// Answer to [`Request::Trace`], newest first.
    Traces(Vec<TraceRow>),
    /// Acknowledgement of [`Request::Shutdown`].
    Bye,
    /// Any failure (parse error, admission rejection, bad query).
    Error(String),
}

// ---------------------------------------------------------------------
// Value-tree (de)serialization: the structs above derive their fields;
// `Request` and `Response` add the `cmd` / `ok`+`kind` tag around them.
// ---------------------------------------------------------------------

/// Label pairs as a JSON object whose keys keep insertion order (a map
/// type would sort or hash them).
mod labels {
    use serde::{DeError, Deserialize, Value};

    pub fn serialize(labels: &[(String, String)]) -> Value {
        Value::Object(
            labels
                .iter()
                .map(|(k, v)| (k.clone(), Value::String(v.clone())))
                .collect(),
        )
    }

    pub fn deserialize(value: &Value) -> Result<Vec<(String, String)>, DeError> {
        let fields = value
            .as_object()
            .ok_or_else(|| DeError::expected("object", "labels", value))?;
        fields
            .iter()
            .map(|(k, v)| Ok((k.clone(), String::from_value(v)?)))
            .collect()
    }
}

fn entry(name: &str, value: impl Serialize) -> (String, Value) {
    (name.to_owned(), value.to_value())
}

/// The fields of a derived body; every protocol struct is an object.
fn fields_of(body: &impl Serialize) -> Vec<(String, Value)> {
    match body.to_value() {
        Value::Object(fields) => fields,
        _ => Vec::new(),
    }
}

/// One object: the `tag` entries, then the `body` fields.
fn tagged(mut tag: Vec<(String, Value)>, body: Vec<(String, Value)>) -> Value {
    tag.extend(body);
    Value::Object(tag)
}

/// `{"ok":true,"kind":<kind>, ...body}`.
fn ok_kind(kind: &str, body: Vec<(String, Value)>) -> Value {
    tagged(vec![entry("ok", true), entry("kind", kind)], body)
}

fn error_value(error: &str) -> Value {
    Value::Object(vec![entry("ok", false), entry("error", error)])
}

impl Serialize for Request {
    fn to_value(&self) -> Value {
        let (cmd, body) = match self {
            Request::Ping => ("ping", vec![]),
            Request::Query(q) => ("query", fields_of(q)),
            Request::TopK(q) => ("topk", fields_of(q)),
            Request::DQuery(q) => ("dquery", fields_of(q)),
            Request::Maximize(q) => ("maximize", fields_of(q)),
            Request::Batch(queries) => ("batch", vec![entry("queries", queries)]),
            Request::Update(updates) => ("update", vec![entry("updates", updates)]),
            Request::Reload { path } => ("reload", path.iter().map(|p| entry("path", p)).collect()),
            Request::LoadGraph { name, path, quota } => {
                let mut fields = vec![entry("name", name), entry("path", path)];
                fields.extend(quota.map(|q| entry("quota", q)));
                ("load", fields)
            }
            Request::UnloadGraph { name } => ("unload", vec![entry("name", name)]),
            Request::UseGraph { name } => ("use", vec![entry("name", name)]),
            Request::Stats => ("stats", vec![]),
            Request::Metrics { format } => {
                let prom = (*format == MetricsFormat::Prom).then(|| entry("format", "prom"));
                ("metrics", prom.into_iter().collect())
            }
            Request::Trace { n } => ("trace", n.iter().map(|n| entry("last", n)).collect()),
            Request::Shutdown => ("shutdown", vec![]),
        };
        tagged(vec![entry("cmd", cmd)], body)
    }
}

impl Deserialize for Request {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        fn required<T: Deserialize>(
            fields: &[(String, Value)],
            name: &str,
            cmd: &str,
        ) -> Result<T, DeError> {
            T::from_value(serde::get_field(fields, name, cmd)?)
        }
        fn optional<T: Deserialize>(
            fields: &[(String, Value)],
            name: &str,
        ) -> Result<Option<T>, DeError> {
            serde::find_field(fields, name)?
                .map(T::from_value)
                .transpose()
        }
        let fields = value
            .as_object()
            .ok_or_else(|| DeError::expected("object", "request", value))?;
        let cmd: String = required(fields, "cmd", "request")?;
        Ok(match cmd.as_str() {
            "ping" => Request::Ping,
            "query" => Request::Query(QueryRequest::from_value(value)?),
            "topk" => Request::TopK(TopKRequest::from_value(value)?),
            "dquery" => Request::DQuery(DistanceQueryRequest::from_value(value)?),
            "maximize" => Request::Maximize(MaximizeRequest::from_value(value)?),
            "batch" => Request::Batch(required(fields, "queries", "batch")?),
            "update" => Request::Update(required(fields, "updates", "update")?),
            "reload" => Request::Reload {
                path: optional(fields, "path")?,
            },
            "load" => Request::LoadGraph {
                name: required(fields, "name", "load")?,
                path: required(fields, "path", "load")?,
                quota: optional(fields, "quota")?,
            },
            "unload" => Request::UnloadGraph {
                name: required(fields, "name", "unload")?,
            },
            "use" => Request::UseGraph {
                name: required(fields, "name", "use")?,
            },
            "stats" => Request::Stats,
            "metrics" => Request::Metrics {
                format: match optional::<String>(fields, "format")?.as_deref() {
                    None | Some("json") => MetricsFormat::Json,
                    Some("prom") => MetricsFormat::Prom,
                    Some(other) => {
                        return Err(DeError::custom(format!(
                            "unknown metrics format `{other}` (expected `json` or `prom`)"
                        )))
                    }
                },
            },
            "trace" => Request::Trace {
                n: optional(fields, "last")?,
            },
            "shutdown" => Request::Shutdown,
            other => return Err(DeError::custom(format!("unknown cmd `{other}`"))),
        })
    }
}

impl Serialize for Response {
    fn to_value(&self) -> Value {
        let (kind, body) = match self {
            Response::Pong => ("pong", vec![]),
            Response::Query(q) => ("query", fields_of(q)),
            Response::TopK(q) => ("topk", fields_of(q)),
            Response::DQuery(q) => ("dquery", fields_of(q)),
            Response::Maximize(q) => ("maximize", fields_of(q)),
            Response::Batch(results) => {
                let items = results.iter().map(|r| match r {
                    Ok(q) => ok_kind("query", fields_of(q)),
                    Err(e) => error_value(e),
                });
                let items = Value::Array(items.collect());
                ("batch", vec![("results".to_owned(), items)])
            }
            Response::Update(u) => ("update", fields_of(u)),
            Response::Reload(r) => ("reload", fields_of(r)),
            Response::Loaded(l) => ("loaded", fields_of(l)),
            Response::Unloaded { name } => ("unloaded", vec![entry("name", name)]),
            Response::Using(u) => ("using", fields_of(u)),
            Response::Stats(s) => ("stats", fields_of(s)),
            Response::Metrics(m) => ("metrics", fields_of(m)),
            Response::MetricsText(text) => ("metrics_text", vec![entry("text", text)]),
            Response::Traces(traces) => ("trace", vec![entry("traces", traces)]),
            Response::Bye => ("bye", vec![]),
            Response::Error(e) => return error_value(e),
        };
        ok_kind(kind, body)
    }
}

impl Deserialize for Response {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let fields = value
            .as_object()
            .ok_or_else(|| DeError::expected("object", "response", value))?;
        let field = |name| serde::get_field(fields, name, "response");
        if !bool::from_value(field("ok")?)? {
            return Ok(Response::Error(String::from_value(field("error")?)?));
        }
        Ok(match String::from_value(field("kind")?)?.as_str() {
            "pong" => Response::Pong,
            "query" => Response::Query(QueryResponse::from_value(value)?),
            "topk" => Response::TopK(TopKResponse::from_value(value)?),
            "dquery" => Response::DQuery(DistanceQueryResponse::from_value(value)?),
            "maximize" => Response::Maximize(MaximizeResponse::from_value(value)?),
            "batch" => {
                let items = field("results")?
                    .as_array()
                    .ok_or_else(|| DeError::custom("batch `results` must be an array"))?;
                let results = items.iter().map(|item| match Response::from_value(item)? {
                    Response::Query(q) => Ok(Ok(q)),
                    Response::Error(e) => Ok(Err(e)),
                    _ => Err(DeError::custom(
                        "a batch item must be a query answer or an error",
                    )),
                });
                Response::Batch(results.collect::<Result<_, DeError>>()?)
            }
            "update" => Response::Update(UpdateResponse::from_value(value)?),
            "reload" => Response::Reload(ReloadResponse::from_value(value)?),
            "loaded" => Response::Loaded(LoadResponse::from_value(value)?),
            "unloaded" => Response::Unloaded {
                name: String::from_value(field("name")?)?,
            },
            "using" => Response::Using(UseResponse::from_value(value)?),
            "stats" => Response::Stats(StatsResponse::from_value(value)?),
            "metrics" => Response::Metrics(MetricsReport::from_value(value)?),
            "metrics_text" => Response::MetricsText(String::from_value(field("text")?)?),
            "trace" => Response::Traces(Vec::from_value(field("traces")?)?),
            "bye" => Response::Bye,
            other => return Err(DeError::custom(format!("unknown response kind `{other}`"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(v: &T) {
        let text = serde_json::to_string(v).unwrap();
        assert!(!text.contains('\n'), "wire text must be one line: {text}");
        let back: T = serde_json::from_str(&text).unwrap();
        assert_eq!(&back, v);
    }

    #[test]
    fn requests_round_trip() {
        round_trip(&Request::Ping);
        round_trip(&Request::Stats);
        round_trip(&Request::Shutdown);
        round_trip(&Request::Query(QueryRequest {
            estimator: Some("mc".into()),
            samples: Some(5000),
            seed: Some(7),
            ..QueryRequest::new(3, 9)
        }));
        round_trip(&Request::Query(QueryRequest::new(0, 1)));
        round_trip(&Request::Query(QueryRequest {
            eps: Some(0.01),
            confidence: Some(0.99),
            time_budget_ms: Some(250),
            samples: Some(50_000),
            ..QueryRequest::new(2, 5)
        }));
        round_trip(&Request::Batch(vec![
            QueryRequest::new(0, 1),
            QueryRequest {
                estimator: Some("auto".into()),
                seed: Some(1),
                ..QueryRequest::new(0, 2)
            },
        ]));
        round_trip(&Request::Update(vec![
            EdgeProbUpdate {
                s: 0,
                t: 3,
                prob: 0.25,
            },
            EdgeProbUpdate {
                s: 3,
                t: 0,
                prob: 0.75,
            },
        ]));
        round_trip(&Request::Reload { path: None });
        round_trip(&Request::Reload {
            path: Some("/tmp/graph.ugb".into()),
        });
    }

    #[test]
    fn tenancy_requests_round_trip() {
        round_trip(&Request::LoadGraph {
            name: "social".into(),
            path: "/data/social.ug2".into(),
            quota: Some(64),
        });
        round_trip(&Request::LoadGraph {
            name: "g2".into(),
            path: "/tmp/g2.ug".into(),
            quota: None,
        });
        round_trip(&Request::UnloadGraph {
            name: "social".into(),
        });
        round_trip(&Request::UseGraph {
            name: "social".into(),
        });
        // Raw wire forms parse; `name` is required everywhere.
        let req: Request =
            serde_json::from_str(r#"{"cmd":"load","name":"g","path":"/tmp/g.ug2"}"#).unwrap();
        assert_eq!(
            req,
            Request::LoadGraph {
                name: "g".into(),
                path: "/tmp/g.ug2".into(),
                quota: None,
            }
        );
        assert!(serde_json::from_str::<Request>(r#"{"cmd":"use"}"#).is_err());
        assert!(serde_json::from_str::<Request>(r#"{"cmd":"unload"}"#).is_err());
        assert!(serde_json::from_str::<Request>(r#"{"cmd":"load","name":"g"}"#).is_err());
    }

    #[test]
    fn tenancy_responses_round_trip() {
        round_trip(&Response::Loaded(LoadResponse {
            name: "social".into(),
            nodes: 100,
            edges: 320,
            epoch: 3,
            load_path: "mmap".into(),
            load_micros: 812,
            warm_entries: 17,
            quota: 64,
        }));
        round_trip(&Response::Unloaded {
            name: "social".into(),
        });
        round_trip(&Response::Using(UseResponse {
            name: "social".into(),
            epoch: 3,
            nodes: 100,
            edges: 320,
        }));
    }

    #[test]
    fn extension_requests_round_trip() {
        round_trip(&Request::TopK(TopKRequest::new(4)));
        round_trip(&Request::TopK(TopKRequest {
            k: Some(10),
            samples: Some(5000),
            seed: Some(7),
            eps: Some(0.05),
            confidence: Some(0.99),
            time_budget_ms: Some(100),
            ..TopKRequest::new(0)
        }));
        round_trip(&Request::DQuery(DistanceQueryRequest::new(0, 3, 4)));
        round_trip(&Request::DQuery(DistanceQueryRequest {
            samples: Some(2000),
            seed: Some(1),
            eps: Some(0.01),
            ..DistanceQueryRequest::new(2, 5, 0)
        }));
        // Hand-written wire text parses; `d` is required.
        let req: Request =
            serde_json::from_str(r#"{"cmd":"topk","s":0,"k":3,"samples":100}"#).unwrap();
        assert_eq!(
            req,
            Request::TopK(TopKRequest {
                k: Some(3),
                samples: Some(100),
                ..TopKRequest::new(0)
            })
        );
        let req: Request =
            serde_json::from_str(r#"{"cmd":"dquery","s":0,"t":3,"d":2,"eps":0.1}"#).unwrap();
        assert_eq!(
            req,
            Request::DQuery(DistanceQueryRequest {
                eps: Some(0.1),
                ..DistanceQueryRequest::new(0, 3, 2)
            })
        );
        assert!(serde_json::from_str::<Request>(r#"{"cmd":"dquery","s":0,"t":3}"#).is_err());
        assert!(serde_json::from_str::<Request>(r#"{"cmd":"topk"}"#).is_err());
    }

    #[test]
    fn maximize_requests_round_trip() {
        round_trip(&Request::Maximize(MaximizeRequest::new(0, 3)));
        round_trip(&Request::Maximize(MaximizeRequest {
            k: Some(2),
            boost: Some(0.95),
            candidates: Some(16),
            apply: true,
            samples: Some(5000),
            seed: Some(7),
            eps: Some(0.02),
            confidence: Some(0.99),
            time_budget_ms: Some(250),
            ..MaximizeRequest::new(1, 9)
        }));
        // Hand-written wire text parses; `apply` defaults to false.
        let req: Request =
            serde_json::from_str(r#"{"cmd":"maximize","s":0,"t":3,"k":2,"eps":0.05}"#).unwrap();
        assert_eq!(
            req,
            Request::Maximize(MaximizeRequest {
                k: Some(2),
                eps: Some(0.05),
                ..MaximizeRequest::new(0, 3)
            })
        );
        assert!(serde_json::from_str::<Request>(r#"{"cmd":"maximize","s":0}"#).is_err());
    }

    #[test]
    fn maximize_responses_round_trip() {
        round_trip(&Response::Maximize(MaximizeResponse {
            s: 0,
            t: 3,
            k: 2,
            base_reliability: 0.4,
            reliability: 0.93,
            gain: 0.53,
            chosen: vec![
                UpgradeRow {
                    s: 0,
                    t: 1,
                    old_prob: 0.2,
                    new_prob: 1.0,
                    gain: 0.4,
                    reliability: 0.8,
                },
                UpgradeRow {
                    s: 1,
                    t: 3,
                    old_prob: 0.5,
                    new_prob: 1.0,
                    gain: 0.13,
                    reliability: 0.93,
                },
            ],
            candidates: 4,
            evaluations: 7,
            samples: 140_000,
            micros: 812,
            cached: false,
            applied_epoch: Some(5),
        }));
        // Empty chosen sets and absent epochs survive the wire.
        round_trip(&Response::Maximize(MaximizeResponse {
            s: 2,
            t: 2,
            k: 0,
            base_reliability: 1.0,
            reliability: 1.0,
            gain: 0.0,
            chosen: vec![],
            candidates: 0,
            evaluations: 0,
            samples: 0,
            micros: 3,
            cached: true,
            applied_epoch: None,
        }));
    }

    #[test]
    fn extension_responses_round_trip() {
        round_trip(&Response::TopK(TopKResponse {
            s: 0,
            k: 2,
            targets: vec![
                TargetEntry {
                    node: 5,
                    reliability: 0.9,
                },
                TargetEntry {
                    node: 2,
                    reliability: 0.4,
                },
            ],
            samples: 2000,
            micros: 640,
            cached: false,
            stop_reason: "fixed_k".into(),
            half_width: Some(0.02),
        }));
        // Empty rankings and absent CIs survive the wire.
        round_trip(&Response::TopK(TopKResponse {
            s: 7,
            k: 5,
            targets: Vec::new(),
            samples: 0,
            micros: 3,
            cached: false,
            stop_reason: "converged".into(),
            half_width: None,
        }));
        round_trip(&Response::DQuery(DistanceQueryResponse {
            s: 0,
            t: 3,
            d: 4,
            reliability: 0.31,
            samples: 1792,
            micros: 410,
            cached: true,
            stop_reason: "converged".into(),
            half_width: Some(0.003),
            variance: Some(1.2e-7),
        }));
    }

    #[test]
    fn responses_round_trip() {
        round_trip(&Response::Pong);
        round_trip(&Response::Bye);
        round_trip(&Response::Error("nope".into()));
        let q = QueryResponse {
            s: 1,
            t: 2,
            reliability: 0.375,
            samples: 4096,
            estimator: "MC".into(),
            micros: 1234,
            cached: true,
            stop_reason: "converged".into(),
            half_width: Some(0.003),
            variance: Some(2.5e-5),
        };
        round_trip(&Response::Query(q.clone()));
        // A single fixed recursion has no measurable spread: the optional
        // fields must vanish from the wire and round-trip as None.
        round_trip(&Response::Query(QueryResponse {
            stop_reason: "fixed_k".into(),
            half_width: None,
            variance: None,
            ..q.clone()
        }));
        round_trip(&Response::Batch(vec![Ok(q), Err("bad target".into())]));
        round_trip(&Response::Update(UpdateResponse {
            epoch: 3,
            edges_updated: 2,
            migrated: vec![
                MigratedResident {
                    estimator: "ProbTree".into(),
                    mode: "incremental".into(),
                    touched: 5,
                },
                MigratedResident {
                    estimator: "LP+".into(),
                    mode: "rebound".into(),
                    touched: 0,
                },
            ],
        }));
        round_trip(&Response::Reload(ReloadResponse {
            epoch: 4,
            nodes: 100,
            edges: 320,
        }));
        round_trip(&Response::Stats(StatsResponse {
            queries: 10,
            cache_hits: 4,
            cache_misses: 6,
            cache_entries: 6,
            rejected: 1,
            threads: 8,
            epoch: 1,
            updates: 1,
            nodes: 100,
            edges: 300,
            resident_estimators: 2,
            resident_bytes: 4096,
            packed_samples: 6400,
            scalar_samples: 36,
            load_path: "mmap".into(),
            load_micros: 1200,
            uptime_micros: 99,
        }));
    }

    #[test]
    fn metrics_requests_round_trip() {
        round_trip(&Request::Metrics {
            format: MetricsFormat::Json,
        });
        round_trip(&Request::Metrics {
            format: MetricsFormat::Prom,
        });
        round_trip(&Request::Trace { n: None });
        round_trip(&Request::Trace { n: Some(5) });

        // A bare `{"cmd":"metrics"}` means JSON, and `last` is optional.
        let req: Request = serde_json::from_str(r#"{"cmd":"metrics"}"#).unwrap();
        assert_eq!(
            req,
            Request::Metrics {
                format: MetricsFormat::Json
            }
        );
        let req: Request = serde_json::from_str(r#"{"cmd":"metrics","format":"prom"}"#).unwrap();
        assert_eq!(
            req,
            Request::Metrics {
                format: MetricsFormat::Prom
            }
        );
        assert!(serde_json::from_str::<Request>(r#"{"cmd":"metrics","format":"xml"}"#).is_err());
        let req: Request = serde_json::from_str(r#"{"cmd":"trace","last":3}"#).unwrap();
        assert_eq!(req, Request::Trace { n: Some(3) });
    }

    #[test]
    fn metrics_responses_round_trip() {
        round_trip(&Response::Metrics(MetricsReport {
            queries_total: 10,
            counters: vec![
                MetricRow {
                    name: "relcomp_queries_total".into(),
                    labels: vec![
                        ("workload".into(), "st".into()),
                        ("outcome".into(), "miss".into()),
                    ],
                    value: 7,
                },
                MetricRow {
                    name: "relcomp_updates_total".into(),
                    labels: vec![],
                    value: 1,
                },
            ],
            gauges: vec![MetricRow {
                name: "relcomp_inflight".into(),
                labels: vec![],
                value: 2,
            }],
            histograms: vec![HistogramRow {
                name: "relcomp_query_latency_micros".into(),
                labels: vec![("workload".into(), "st".into())],
                count: 10,
                sum: 5120,
                p50: 511,
                p90: 1023,
                p99: 1023,
                p999: 1023,
                buckets: vec![
                    BucketRow { le: 511, count: 6 },
                    BucketRow {
                        le: 1023,
                        count: 10,
                    },
                ],
            }],
        }));
        round_trip(&Response::MetricsText(
            "# TYPE relcomp_queries_total counter\nrelcomp_queries_total 10\n".into(),
        ));
        round_trip(&Response::Traces(vec![TraceRow {
            workload: "st".into(),
            s: 0,
            t: 3,
            ok: true,
            cached: false,
            nanos: 152_000,
            stages: vec![
                StageRow {
                    stage: "admission".into(),
                    nanos: 210,
                },
                StageRow {
                    stage: "sample".into(),
                    nanos: 140_000,
                },
            ],
        }]));
        round_trip(&Response::Traces(vec![]));
    }

    #[test]
    fn metrics_report_mirrors_snapshot() {
        let mut snap = relcomp_obs::MetricsSnapshot::default();
        snap.counter(
            "relcomp_queries_total",
            vec![("workload", "st".into()), ("outcome", "hit".into())],
            3,
        );
        snap.counter(
            "relcomp_queries_total",
            vec![("workload", "topk".into()), ("outcome", "miss".into())],
            4,
        );
        snap.gauge("relcomp_epoch", vec![], 2);
        let h = relcomp_obs::Histogram::new();
        h.record(100);
        h.record(700);
        snap.histogram(
            "relcomp_query_latency_micros",
            vec![("workload", "st".into())],
            &h.snapshot(),
        );

        let report = MetricsReport::from(&snap);
        assert_eq!(report.queries_total, 7);
        assert_eq!(report.counter_total("relcomp_queries_total"), 7);
        assert_eq!(report.counters.len(), 2);
        assert_eq!(report.gauges.len(), 1);
        let hist = report
            .histogram("relcomp_query_latency_micros", &[("workload", "st")])
            .unwrap();
        assert_eq!(hist.count, 2);
        assert_eq!(hist.sum, 800);
        assert!(report
            .histogram("relcomp_query_latency_micros", &[("workload", "topk")])
            .is_none());
        round_trip(&Response::Metrics(report));
    }

    #[test]
    fn hand_written_json_parses() {
        let req: Request =
            serde_json::from_str(r#"{"cmd":"query","s":0,"t":3,"samples":100}"#).unwrap();
        assert_eq!(
            req,
            Request::Query(QueryRequest {
                samples: Some(100),
                ..QueryRequest::new(0, 3)
            })
        );
        let req: Request =
            serde_json::from_str(r#"{"cmd":"query","s":0,"t":3,"eps":0.05,"time_budget_ms":20}"#)
                .unwrap();
        assert_eq!(
            req,
            Request::Query(QueryRequest {
                eps: Some(0.05),
                time_budget_ms: Some(20),
                ..QueryRequest::new(0, 3)
            })
        );
        // Explicit nulls mean "default", same as absent.
        let req: Request =
            serde_json::from_str(r#"{"cmd":"query","s":1,"t":2,"estimator":null}"#).unwrap();
        assert_eq!(req, Request::Query(QueryRequest::new(1, 2)));
    }

    #[test]
    fn malformed_requests_error() {
        assert!(serde_json::from_str::<Request>(r#"{"cmd":"nope"}"#).is_err());
        assert!(serde_json::from_str::<Request>(r#"{"cmd":"query","s":0}"#).is_err());
        assert!(serde_json::from_str::<Request>("[1,2]").is_err());
        assert!(serde_json::from_str::<Request>("not json").is_err());
    }

    #[test]
    fn update_request_json_parses() {
        let req: Request =
            serde_json::from_str(r#"{"cmd":"update","updates":[{"s":0,"t":1,"prob":0.5}]}"#)
                .unwrap();
        assert_eq!(
            req,
            Request::Update(vec![EdgeProbUpdate {
                s: 0,
                t: 1,
                prob: 0.5
            }])
        );
        assert!(serde_json::from_str::<Request>(r#"{"cmd":"update"}"#).is_err());
        assert!(
            serde_json::from_str::<Request>(r#"{"cmd":"update","updates":[{"s":0}]}"#).is_err()
        );
        let req: Request = serde_json::from_str(r#"{"cmd":"reload"}"#).unwrap();
        assert_eq!(req, Request::Reload { path: None });
    }

    #[test]
    fn hit_rate_handles_empty() {
        let mut s = StatsResponse {
            queries: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_entries: 0,
            rejected: 0,
            threads: 1,
            epoch: 0,
            updates: 0,
            nodes: 0,
            edges: 0,
            resident_estimators: 0,
            resident_bytes: 0,
            packed_samples: 0,
            scalar_samples: 0,
            load_path: String::new(),
            load_micros: 0,
            uptime_micros: 0,
        };
        assert_eq!(s.hit_rate(), 0.0);
        s.cache_hits = 3;
        s.cache_misses = 1;
        assert_eq!(s.hit_rate(), 0.75);
    }
}
