//! The query engine: admission control, per-query estimator planning,
//! result caching, batches answered item by item, and
//! **live graph epochs** — edge-probability updates and wholesale
//! reloads swap the served graph without restarting the process.
//!
//! ## One pipeline
//!
//! Every workload — s-t reliability (`query`), top-k search (`topk`),
//! distance-constrained reliability (`dquery`) and greedy reliability
//! maximization (`maximize`) — runs through one generic pipeline,
//! `QueryEngine::run`: admission → clock → epoch snapshot → plan → cache
//! lookup → sample → cache insert (or commit) → respond → account. The
//! pipeline owns the admission guard, the retry when a query races an
//! epoch swap, the trace stages, one latency clock started before the
//! first plan, the cache, and hit / miss / error / rejected accounting.
//!
//! A private `Workload` trait, implemented by each wire request type and
//! dispatched statically, supplies only what differs: `plan` (node
//! checks, the workload's own parameters and the shared budget
//! resolution, yielding the [`WorkloadKind`] from which one constructor
//! builds the [`QueryKey`]), `compute` (the sampler call), `respond` (the
//! wire struct), and `cacheable` / `commit` (maximize `apply` runs skip
//! the cache and commit their upgrades through
//! [`QueryEngine::apply_updates`]). [`QueryEngine::execute_request`]
//! routes a parsed wire request to its workload; a batch is its items,
//! each answered as a single s-t query.
//!
//! ## Keys and determinism
//!
//! One engine serves one graph *lineage*. Answers are independent of the
//! worker thread count and keyed by the workload, the graph epoch, the
//! pair, the estimator and the budget (see [`QueryKey`]). MC and
//! BFS-Sharing run on the [`ParallelSampler`], whose sharded RNG streams
//! make the estimate independent of the thread count; the other
//! estimators (ProbTree, LP/LP+, RHH, RSS, couplings) are built once,
//! parked in an epoch-tagged registry behind per-kind mutexes, and
//! queried with an RNG derived from the key.
//!
//! A batch item runs the single-query pipeline, so one key always holds
//! one answer, computed one way: whether a query arrived alone or in a
//! batch, before or after others, never changes its bits.
//!
//! ## Epoch swaps
//!
//! [`QueryEngine::apply_updates`] snapshots a new epoch via
//! [`UncertainGraph::with_updated_probs`] (topology shared, probabilities
//! copy-on-write) and migrates every resident estimator through
//! [`Estimator::apply_updates`] — incremental for ProbTree, a pointer
//! rebind for the index-free estimators — evicting those that cannot
//! migrate. The epoch bump makes every existing cache key miss, so stale
//! answers age out of the LRU without a flush. A query that races a swap
//! on the resident path finds the re-tagged estimator under its lock and
//! retries at the new epoch, so a cache entry is only ever written by a
//! computation over its own epoch's graph.

use crate::cache::ShardedLru;
use crate::protocol::{
    DistanceQueryRequest, DistanceQueryResponse, EdgeProbUpdate, MaximizeRequest, MaximizeResponse,
    MigratedResident, QueryRequest, QueryResponse, ReloadResponse, Request, Response,
    StatsResponse, TargetEntry, TopKRequest, TopKResponse, UpdateResponse, UpgradeRow,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use relcomp_core::maximize::{MaximizeOptions, DEFAULT_MAX_CANDIDATES};
use relcomp_core::metrics::take_thread_session_stats;
use relcomp_core::parallel::{shard_rng, ParallelSampler};
use relcomp_core::session::{validate_budget_fields, DEFAULT_ADAPTIVE_CAP, DEFAULT_CONFIDENCE};
use relcomp_core::{
    build_estimator, Estimator, EstimatorKind, SampleBudget, StopReason, SuiteParams, UpdateOutcome,
};
use relcomp_eval::recommend::{recommend, MemoryBudget, SpeedNeed, VarianceNeed};
use relcomp_obs::{
    MetricsSnapshot, Outcome, QueryTrace, Registry, Span, Stage, TraceBuilder,
    Workload as ObsWorkload,
};
use relcomp_ugraph::{EdgeUpdate, NodeId, UncertainGraph};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Result-cache shard count.
const CACHE_SHARDS: usize = 16;

/// Admission control: largest accepted per-query sample budget.
pub const MAX_SAMPLES: usize = 1_000_000;

/// Admission control: largest accepted batch.
pub const MAX_BATCH: usize = 1024;

/// Estimator used when a query does not specify one.
const DEFAULT_ESTIMATOR: EstimatorKind = EstimatorKind::Mc;

/// Relative half-width target the `auto` planner budgets for when the
/// client gave neither `samples` nor `eps`: the Fig. 18 pick then runs
/// until this accuracy instead of a raw default K.
pub const AUTO_EPS: f64 = 0.01;

/// `estimator:"auto"` policy handed to Fig. 18: a larger memory budget,
/// higher variance acceptable, faster answers.
const AUTO_NEEDS: (MemoryBudget, VarianceNeed, SpeedNeed) = (
    MemoryBudget::Larger,
    VarianceNeed::Higher,
    SpeedNeed::Faster,
);

/// Tunable knobs of a [`QueryEngine`]. The admission limits
/// ([`MAX_SAMPLES`], [`MAX_BATCH`], and [`DEFAULT_MAX_CANDIDATES`] for the
/// `maximize` candidate pool) and the `auto` policy ([`AUTO_EPS`]) are
/// fixed.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Sampling worker threads per query (0 = all available cores).
    pub threads: usize,
    /// Result-cache capacity in entries.
    pub cache_capacity: usize,
    /// Sample budget used when a query does not specify one.
    pub default_samples: usize,
    /// Admission control: most queries/batches computed concurrently.
    pub max_inflight: usize,
    /// Seed used when a query does not specify one.
    pub default_seed: u64,
    /// Sample cap applied to adaptive queries (`eps`/`time_budget_ms`)
    /// that do not specify `samples`. Kept well below [`MAX_SAMPLES`] so
    /// an unconverged easy-sounding query cannot eat the whole admission
    /// budget.
    pub adaptive_max_samples: usize,
    /// `k` used when a `topk` request does not specify one.
    pub default_top_k: usize,
    /// `k` used when a `maximize` request does not specify one.
    pub default_maximize_k: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
        EngineConfig {
            threads: cores,
            cache_capacity: 4096,
            default_samples: 2000,
            max_inflight: 4 * cores,
            default_seed: 42,
            adaptive_max_samples: DEFAULT_ADAPTIVE_CAP,
            default_top_k: 10,
            default_maximize_k: 1,
        }
    }
}

/// Which served workload a cache key answers. The discriminator carries
/// the workload's own parameter (`k` for top-k, `d` for
/// distance-constrained), so a `topk` at `k = 5` and one at `k = 10`
/// from the same source cache separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Plain s-t reliability (`query`).
    St,
    /// Top-k reliability search (`topk`); `t` is unused in the key.
    TopK {
        /// Number of targets requested.
        k: usize,
    },
    /// Distance-constrained reliability (`dquery`).
    Distance {
        /// Hop bound `d`.
        d: usize,
    },
    /// Greedy reliability maximization (`maximize`). Report-only
    /// answers cache; `apply` runs bump the epoch and never cache.
    Maximize {
        /// Number of upgrades requested.
        k: usize,
        /// Boost probability (`f64::to_bits` — it shapes every
        /// candidate, so two boosts are different computations).
        boost_bits: u64,
        /// Candidate-pool cap.
        candidates: usize,
    },
}

/// Everything that determines an answer bit-for-bit.
///
/// The budget is part of the key: a fixed-2000 query, an `eps`-targeted
/// query capped at 2000, and a time-capped query are different
/// computations and cache separately. (Time-capped answers are machine-
/// dependent; the cache replays whichever computation landed first for a
/// given key.)
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QueryKey {
    /// Which workload (and its `k`/`d` parameter) this key answers.
    pub workload: WorkloadKind,
    /// Graph epoch (bumped on every update/reload).
    pub epoch: u64,
    /// Source node.
    pub s: u32,
    /// Target node.
    pub t: u32,
    /// Estimator that answers.
    pub kind: EstimatorKind,
    /// Sample budget (exact count for fixed queries, cap for adaptive).
    pub samples: usize,
    /// Master seed.
    pub seed: u64,
    /// Relative half-width target (`f64::to_bits`), if adaptive.
    pub eps_bits: Option<u64>,
    /// Confidence level (`f64::to_bits`): it shapes the reported
    /// half-width even for fixed budgets, so it is always keyed.
    pub confidence_bits: Option<u64>,
    /// Wall-time cap in milliseconds, if any.
    pub time_budget_ms: Option<u64>,
}

/// A validated, defaulted query ready to execute.
#[derive(Clone, Copy, Debug)]
pub struct PlannedQuery {
    /// Source node (validated against the graph).
    pub s: NodeId,
    /// Target node (validated against the graph).
    pub t: NodeId,
    /// Chosen estimator.
    pub kind: EstimatorKind,
    /// Sample budget after defaulting and admission checks — the exact
    /// count for fixed queries, the cap for adaptive ones.
    pub samples: usize,
    /// Seed after defaulting.
    pub seed: u64,
    /// Relative half-width target, if adaptive.
    pub eps: Option<f64>,
    /// Confidence level of the half-width target.
    pub confidence: f64,
    /// Wall-time cap in milliseconds, if any.
    pub time_budget_ms: Option<u64>,
}

impl PlannedQuery {
    /// The sample budget this plan executes. Confidence applies to
    /// fixed budgets too: it shapes the *reported* half-width even when
    /// it cannot stop the run.
    pub fn budget(&self) -> SampleBudget {
        SampleBudget::assemble(self.samples, self.eps, self.confidence, self.time_budget_ms)
    }
}

/// Any workload's request after validation and defaulting: the pair,
/// estimator and budget every workload shares, plus the cache-key
/// discriminator carrying the workload's own resolved parameters.
#[derive(Clone, Copy, Debug)]
struct Plan {
    workload: WorkloadKind,
    query: PlannedQuery,
}

impl Plan {
    /// The cache key of this plan at `epoch` — the one place a key is
    /// built, so every workload keys its budget the same way.
    fn key(&self, epoch: u64) -> QueryKey {
        let p = &self.query;
        QueryKey {
            workload: self.workload,
            epoch,
            s: p.s.0,
            t: p.t.0,
            kind: p.kind,
            samples: p.samples,
            seed: p.seed,
            eps_bits: p.eps.map(f64::to_bits),
            confidence_bits: Some(p.confidence.to_bits()),
            time_budget_ms: p.time_budget_ms,
        }
    }
}

/// Per-query outcomes of a batch, in request order.
pub type BatchResults = Vec<Result<QueryResponse, String>>;

#[derive(Clone, Debug, PartialEq)]
pub(crate) struct CachedAnswer {
    pub(crate) reliability: f64,
    pub(crate) samples: usize,
    pub(crate) estimator: &'static str,
    pub(crate) stop_reason: StopReason,
    pub(crate) half_width: Option<f64>,
    pub(crate) variance: Option<f64>,
    /// Ranked `(node, reliability)` pairs for top-k answers; `None` for
    /// the single-value workloads.
    pub(crate) targets: Option<Vec<(u32, f64)>>,
    /// Greedy-search payload for maximize answers; `None` otherwise.
    pub(crate) upgrades: Option<MaximizeAnswer>,
}

/// The maximize-specific half of a cached answer: everything beyond the
/// final reliability that `CachedAnswer` already carries.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct MaximizeAnswer {
    pub(crate) base_reliability: f64,
    pub(crate) gain: f64,
    pub(crate) chosen: Vec<UpgradeRow>,
    pub(crate) candidates: usize,
    pub(crate) evaluations: usize,
}

impl CachedAnswer {
    /// A single-value answer (s-t or distance-constrained) from one
    /// estimate.
    fn from_estimate(est: relcomp_core::Estimate, estimator: &'static str) -> Self {
        CachedAnswer {
            reliability: est.reliability,
            samples: est.samples,
            estimator,
            stop_reason: est.stop_reason,
            half_width: est.half_width,
            variance: est.variance,
            targets: None,
            upgrades: None,
        }
    }
}

/// A resident estimator with the epoch its index currently reflects.
/// The tag is read and written only under the mutex, so a query that
/// locked the cell observes exactly the epoch its answer will come from.
type ResidentCell = Mutex<(u64, Box<dyn Estimator + Send>)>;

/// The swappable half of the engine: everything an epoch bump replaces,
/// kept under one lock so `(epoch, graph, sampler, registry)` always
/// change together.
struct EngineState {
    epoch: u64,
    graph: Arc<UncertainGraph>,
    sampler: Arc<ParallelSampler>,
    resident: HashMap<EstimatorKind, Arc<ResidentCell>>,
}

/// A consistent view of one epoch, cheap to clone out of the lock.
struct Snapshot {
    epoch: u64,
    graph: Arc<UncertainGraph>,
    sampler: Arc<ParallelSampler>,
}

/// Decrements the in-flight counter on drop (panic-safe admission).
struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

/// Bound on transparent retries when queries race epoch swaps. Each
/// retry needs a *further* concurrent update to fail again, so hitting
/// the bound means the server is being update-flooded.
const MAX_EPOCH_RETRIES: usize = 8;

/// A long-lived, thread-safe s-t reliability query engine over one graph
/// lineage.
pub struct QueryEngine {
    state: RwLock<EngineState>,
    config: EngineConfig,
    /// Resolved sampling thread count (config 0 = all cores).
    threads: usize,
    cache: ShardedLru<QueryKey, CachedAnswer>,
    /// File the graph was loaded from, if any — the default `reload`
    /// source.
    source: Mutex<Option<String>>,
    /// How the served graph was last loaded from disk: `(mmapped,
    /// micros)`. `None` until a load is recorded (e.g. a graph built in
    /// memory). Surfaces in `stats` and `metrics` so a silent fallback
    /// from the mmap path to a full heap parse is observable.
    last_load: Mutex<Option<(bool, u64)>>,
    inflight: AtomicUsize,
    /// Per-engine metrics registry (counters, latency histograms, trace
    /// ring). `stats()` is a view over it; `metrics()` exposes all of it.
    obs: Registry,
    started: Instant,
}

/// How a query failed, so the registry can count admission-control
/// rejections (`rejected` outcome) apart from other failures (`error`).
/// Collapses back to the plain `String` error at the public API boundary.
#[derive(Clone, Debug)]
enum Fail {
    Rejected(String),
    Error(String),
    /// The query raced an epoch swap; the pipeline re-snapshots and
    /// retries, and only reports this (as an error) once retries run out.
    Stale,
}

impl Fail {
    fn into_message(self) -> String {
        match self {
            Fail::Rejected(m) | Fail::Error(m) => m,
            Fail::Stale => "graph is being updated faster than this query can retry".into(),
        }
    }
}

impl QueryEngine {
    /// Build an engine serving `graph` at epoch 0.
    pub fn new(graph: Arc<UncertainGraph>, config: EngineConfig) -> Self {
        Self::with_epoch(graph, config, 0)
    }

    /// Build an engine serving `graph` tagged with a starting `epoch`.
    ///
    /// The epoch is part of every cache key and of the wire `stats`
    /// answer, and is bumped by [`QueryEngine::apply_updates`] and
    /// [`QueryEngine::reload_graph`]; operators that persist answers
    /// across restarts can seed it so recorded epochs never repeat.
    pub fn with_epoch(graph: Arc<UncertainGraph>, config: EngineConfig, epoch: u64) -> Self {
        let threads = if config.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.threads
        };
        QueryEngine {
            state: RwLock::new(EngineState {
                epoch,
                sampler: Arc::new(ParallelSampler::new(Arc::clone(&graph), threads)),
                graph,
                resident: HashMap::new(),
            }),
            cache: ShardedLru::new(config.cache_capacity, CACHE_SHARDS),
            config,
            threads,
            source: Mutex::new(None),
            last_load: Mutex::new(None),
            inflight: AtomicUsize::new(0),
            obs: Registry::new(),
            started: Instant::now(),
        }
    }

    /// The currently served graph (the latest epoch's snapshot).
    pub fn graph(&self) -> Arc<UncertainGraph> {
        Arc::clone(&self.state.read().expect("engine state poisoned").graph)
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Current graph epoch.
    pub fn epoch(&self) -> u64 {
        self.state.read().expect("engine state poisoned").epoch
    }

    /// Record the file the served graph came from; `reload` without an
    /// explicit path re-reads it.
    pub fn set_source(&self, path: impl Into<String>) {
        *self.source.lock().expect("source poisoned") = Some(path.into());
    }

    /// The recorded reload source, if any.
    pub fn source(&self) -> Option<String> {
        self.source.lock().expect("source poisoned").clone()
    }

    /// Record how the served graph was loaded from disk (zero-copy mmap
    /// vs heap parse) and how long the load took. Called by `serve`
    /// startup and every `reload`.
    pub fn record_load(&self, mmapped: bool, micros: u64) {
        *self.last_load.lock().expect("last_load poisoned") = Some((mmapped, micros));
    }

    /// The last recorded disk load, as `(mmapped, micros)`.
    pub fn last_load(&self) -> Option<(bool, u64)> {
        *self.last_load.lock().expect("last_load poisoned")
    }

    /// Snapshot the result cache for persistence: the current epoch plus
    /// every cached entry stamped with it. Entries from older epochs are
    /// already unreachable (the epoch is part of the key) and are not
    /// exported.
    pub(crate) fn export_cache(&self) -> (u64, Vec<(QueryKey, CachedAnswer)>) {
        let epoch = self.epoch();
        let entries = self
            .cache
            .entries()
            .into_iter()
            .filter(|(k, _)| k.epoch == epoch)
            .collect();
        (epoch, entries)
    }

    /// Re-admit persisted entries, keeping only those stamped with the
    /// engine's *current* epoch — a snapshot taken before an update the
    /// engine has since replayed must not resurrect stale answers.
    /// Returns how many entries were admitted.
    pub(crate) fn import_cache(&self, entries: Vec<(QueryKey, CachedAnswer)>) -> usize {
        let epoch = self.epoch();
        let mut admitted = 0;
        for (key, value) in entries {
            if key.epoch == epoch {
                self.cache.insert(key, value);
                admitted += 1;
            }
        }
        admitted
    }

    fn snapshot(&self) -> Snapshot {
        let state = self.state.read().expect("engine state poisoned");
        Snapshot {
            epoch: state.epoch,
            graph: Arc::clone(&state.graph),
            sampler: Arc::clone(&state.sampler),
        }
    }

    /// Resolve defaults, pick an estimator, and validate one request
    /// against the current epoch's graph.
    pub fn plan(&self, req: &QueryRequest) -> Result<PlannedQuery, String> {
        req.plan(self, &self.snapshot().graph)
            .map(|plan| plan.query)
            .map_err(Fail::into_message)
    }

    /// Resolve and admission-check the budget fields every workload
    /// shares: validates the adaptive knobs, substitutes the configured
    /// defaults (the adaptive cap when an adaptive knob is present), and
    /// enforces the [`MAX_SAMPLES`] admission limit. Returns a plan for the
    /// pair `(s, t)` answered by MC, which the s-t workload re-targets.
    fn resolve_budget(
        &self,
        (s, t): (u32, u32),
        samples: Option<usize>,
        eps: Option<f64>,
        confidence: Option<f64>,
        time_budget_ms: Option<u64>,
        seed: Option<u64>,
    ) -> Result<PlannedQuery, Fail> {
        validate_budget_fields(eps, confidence, time_budget_ms).map_err(Fail::Error)?;
        let adaptive = eps.is_some() || time_budget_ms.is_some();
        let samples = positive(
            "samples",
            samples.unwrap_or(if adaptive {
                self.config.adaptive_max_samples
            } else {
                self.config.default_samples
            }),
        )?;
        if samples > MAX_SAMPLES {
            return Err(Fail::Rejected(format!(
                "samples {samples} exceeds the admission limit {MAX_SAMPLES}"
            )));
        }
        Ok(PlannedQuery {
            s: NodeId(s),
            t: NodeId(t),
            kind: EstimatorKind::Mc,
            samples,
            seed: seed.unwrap_or(self.config.default_seed),
            eps,
            confidence: confidence.unwrap_or(DEFAULT_CONFIDENCE),
            time_budget_ms,
        })
    }

    fn admit(&self) -> Result<InflightGuard<'_>, Fail> {
        let prev = self.inflight.fetch_add(1, Ordering::Acquire);
        if prev >= self.config.max_inflight {
            self.inflight.fetch_sub(1, Ordering::Release);
            return Err(Fail::Rejected(format!(
                "server overloaded: {} queries in flight (limit {})",
                prev, self.config.max_inflight
            )));
        }
        Ok(InflightGuard(&self.inflight))
    }

    /// Count a failed query under its outcome label and surface the
    /// message — the single exit every failing public path goes through.
    fn fail(&self, workload: ObsWorkload, fail: Fail) -> String {
        match &fail {
            Fail::Rejected(_) => self.obs.record_rejected(workload),
            Fail::Error(_) | Fail::Stale => self.obs.record_error(workload),
        }
        fail.into_message()
    }

    /// The success epilogue of every answered query: stamp the elapsed
    /// time, record the query in the registry (outcome counter,
    /// estimator counter, latency histogram), and build the wire answer.
    fn respond<W: Workload>(
        &self,
        req: &W,
        plan: &Plan,
        a: &CachedAnswer,
        cached: bool,
        applied_epoch: Option<u64>,
        start: Instant,
    ) -> W::Response {
        let micros = start.elapsed().as_micros() as u64;
        let outcome = if cached { Outcome::Hit } else { Outcome::Miss };
        self.obs.observe_query(W::OBS, outcome, a.estimator, micros);
        let served = Served {
            cached,
            micros,
            applied_epoch,
        };
        req.respond(plan, a, served)
    }

    /// Fetch (building on first use) the shared estimator cell for
    /// `kind` at the snapshot's epoch. The registry lock is held only
    /// for the map lookup/insert; queries then contend on the per-kind
    /// mutex alone, so e.g. a slow first ProbTree index build never
    /// stalls concurrent RSS queries.
    fn resident_cell(
        &self,
        snap: &Snapshot,
        kind: EstimatorKind,
    ) -> Result<Arc<ResidentCell>, Fail> {
        {
            let state = self.state.read().expect("engine state poisoned");
            if state.epoch != snap.epoch {
                return Err(Fail::Stale);
            }
            if let Some(cell) = state.resident.get(&kind) {
                return Ok(Arc::clone(cell));
            }
        }
        // Build outside the registry lock, over the snapshot's graph.
        // Two racing first queries may both build; the entry API keeps
        // the first and drops the other — harmless, since builds are
        // deterministic in the engine seed (a restarted server rebuilds
        // identical indexes).
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.default_seed);
        let built = build_estimator(
            kind,
            Arc::clone(&snap.graph),
            SuiteParams::default(),
            &mut rng,
        );
        let mut state = self.state.write().expect("engine state poisoned");
        if state.epoch != snap.epoch {
            // An update landed while we were building: the index reflects
            // a dead epoch, discard it and retry at the new one.
            return Err(Fail::Stale);
        }
        Ok(Arc::clone(state.resident.entry(kind).or_insert_with(
            || Arc::new(Mutex::new((snap.epoch, built))),
        )))
    }

    /// Run an estimation step with its time split into the `sample` and
    /// `convergence_check` trace stages. The split comes from the
    /// thread-local session stats core accumulates while estimating — every
    /// estimation path (residents, `run_adaptive`'s caller-thread stopping
    /// checks, the fixed paths) finishes its sessions on this thread.
    fn sample_span<T>(&self, tb: &mut TraceBuilder, step: impl FnOnce() -> T) -> T {
        let _ = take_thread_session_stats();
        let sample_start = Instant::now();
        let out = step();
        let elapsed = sample_start.elapsed().as_nanos() as u64;
        let sessions = take_thread_session_stats();
        let convergence = sessions.convergence_nanos.min(elapsed);
        tb.record(Stage::Sample, elapsed - convergence);
        if sessions.sessions > 0 {
            tb.record(Stage::ConvergenceCheck, convergence);
        }
        out
    }

    /// The query pipeline every workload runs through: admission, then
    /// [`QueryEngine::answer`], then outcome accounting. Stage timings and
    /// the trace's workload, pair and outcome land in `tb`; failures are
    /// counted under the right outcome label here.
    fn run<W: Workload>(&self, req: &W, tb: &mut TraceBuilder) -> Result<W::Response, String> {
        self.traced(req, tb, |tb| {
            let admitted = {
                let _span = Span::enter(tb, Stage::Admission);
                self.admit()
            };
            admitted.and_then(|_guard| self.answer(req, tb, Instant::now()))
        })
    }

    /// Run `step` with `req`'s workload and pair in `tb`, marking a failure
    /// in the trace and counting it under the right outcome label.
    fn traced<W: Workload>(
        &self,
        req: &W,
        tb: &mut TraceBuilder,
        step: impl FnOnce(&mut TraceBuilder) -> Result<W::Response, Fail>,
    ) -> Result<W::Response, String> {
        tb.set_workload(W::OBS.label());
        let (s, t) = req.pair();
        tb.set_pair(s as u64, t as u64);
        step(tb).map_err(|f| {
            tb.set_outcome(false, false);
            self.fail(W::OBS, f)
        })
    }

    /// Plan → cache lookup → compute → respond against the current epoch,
    /// retrying transparently when an epoch swap races the computation.
    /// The latency clock runs from `start` across every attempt, planning
    /// included.
    fn answer<W: Workload>(
        &self,
        req: &W,
        tb: &mut TraceBuilder,
        start: Instant,
    ) -> Result<W::Response, Fail> {
        let cacheable = req.cacheable();
        for _ in 0..MAX_EPOCH_RETRIES {
            let snap = self.snapshot();
            let plan = {
                let _span = Span::enter(tb, Stage::Plan);
                req.plan(self, &snap.graph)?
            };
            let key = plan.key(snap.epoch);
            if cacheable {
                let hit = {
                    let _span = Span::enter(tb, Stage::CacheLookup);
                    self.cache.get(&key)
                };
                if let Some(hit) = hit {
                    tb.set_outcome(true, true);
                    return Ok(self.respond(req, &plan, &hit, true, None, start));
                }
            }
            let answer = match self.sample_span(tb, || req.compute(self, &snap, &plan)) {
                Err(Fail::Stale) => continue,
                computed => computed?,
            };
            let applied_epoch = if cacheable {
                self.cache.insert(key, answer.clone());
                None
            } else {
                req.commit(self, &answer)?
            };
            tb.set_outcome(true, false);
            return Ok(self.respond(req, &plan, &answer, false, applied_epoch, start));
        }
        Err(Fail::Stale)
    }

    /// [`QueryEngine::run`] with a trace of its own, pushed into the ring.
    fn run_recorded<W: Workload>(&self, req: &W) -> Result<W::Response, String> {
        let mut tb = TraceBuilder::new();
        let out = self.run(req, &mut tb);
        self.record_trace(tb);
        out
    }

    /// Answer one s-t reliability query.
    pub fn execute(&self, req: &QueryRequest) -> Result<QueryResponse, String> {
        self.run_recorded(req)
    }

    /// Answer one top-k reliability search. The answer runs entirely on
    /// the snapshot's sampler, so it is thread-count invariant and keyed
    /// by the snapshot's epoch — an `update`/`reload` makes it stale
    /// exactly like an s-t answer.
    pub fn execute_topk(&self, req: &TopKRequest) -> Result<TopKResponse, String> {
        self.run_recorded(req)
    }

    /// Answer one distance-constrained reliability query, with the same
    /// epoch and budget cache-key semantics as `execute`.
    pub fn execute_dquery(
        &self,
        req: &DistanceQueryRequest,
    ) -> Result<DistanceQueryResponse, String> {
        self.run_recorded(req)
    }

    /// Answer one reliability-maximization request: greedily pick the
    /// `k` edge upgrades (probability boosts to `boost`) that maximize
    /// `R(s, t)` (see [`mod@relcomp_core::maximize`]). Report-only
    /// answers cache like every other workload; `apply` requests commit
    /// the chosen boosts through [`QueryEngine::apply_updates`] and are
    /// never cached (their answer is tied to the epoch they retired).
    pub fn execute_maximize(&self, req: &MaximizeRequest) -> Result<MaximizeResponse, String> {
        self.run_recorded(req)
    }

    /// Answer a parsed query-workload request (`query`, `topk`, `dquery`,
    /// `maximize`) through the pipeline with caller-supplied tracing: the
    /// server adds its own `parse`/`serialize` stages to `tb` before
    /// pushing the trace via [`QueryEngine::record_trace`]. Any other verb
    /// answers with an error; the server resolves those itself.
    pub fn execute_request(&self, request: &Request, tb: &mut TraceBuilder) -> Response {
        match request {
            Request::Query(q) => self
                .run(q, tb)
                .map_or_else(Response::Error, Response::Query),
            Request::TopK(q) => self.run(q, tb).map_or_else(Response::Error, Response::TopK),
            Request::DQuery(q) => self
                .run(q, tb)
                .map_or_else(Response::Error, Response::DQuery),
            Request::Maximize(q) => self
                .run(q, tb)
                .map_or_else(Response::Error, Response::Maximize),
            _ => Response::Error("not a query workload".into()),
        }
    }

    /// Push a finished trace into the engine's ring of recent query traces.
    pub fn record_trace(&self, tb: TraceBuilder) {
        self.obs.traces.push(tb.finish());
    }

    /// Answer a batch under one admission: each item runs the single-query
    /// pipeline with a latency clock of its own, so its answer and cache
    /// entry are the ones [`QueryEngine::execute`] gives the same query,
    /// and its `micros` counts its own work only. Each item records a
    /// trace of its own. Results keep input order; per-query failures do
    /// not fail the batch.
    pub fn execute_batch(&self, reqs: &[QueryRequest]) -> Result<BatchResults, String> {
        let _guard = self.admit().map_err(|f| self.fail(ObsWorkload::St, f))?;
        if reqs.len() > MAX_BATCH {
            let msg = format!(
                "batch of {} exceeds the admission limit {MAX_BATCH}",
                reqs.len()
            );
            return Err(self.fail(ObsWorkload::St, Fail::Rejected(msg)));
        }
        Ok(reqs
            .iter()
            .map(|req| {
                let mut tb = TraceBuilder::new();
                let out = self.traced(req, &mut tb, |tb| self.answer(req, tb, Instant::now()));
                self.record_trace(tb);
                out
            })
            .collect())
    }

    /// Apply a batch of edge-probability updates: snapshot the next
    /// epoch's graph (topology shared, probabilities copy-on-write),
    /// migrate every resident estimator via [`Estimator::apply_updates`]
    /// (evicting any that cannot migrate), swap the sampler, and bump
    /// the epoch. All-or-nothing: an unknown edge or invalid probability
    /// rejects the whole batch with no state change.
    ///
    /// Existing cache entries keep their old epoch in the key and simply
    /// stop matching — stale answers age out of the LRU naturally.
    ///
    /// Updates serialize against in-flight resident queries: migration
    /// takes each resident's mutex under the state write lock, so the
    /// swap waits for the slowest resident query currently computing
    /// (bounded by the [`MAX_SAMPLES`] admission limit) and new queries
    /// wait for the swap. That pause is what buys the guarantee that an
    /// epoch's cache entries are only ever computed from that epoch's
    /// index — migrating outside the lock would let a new-epoch key be
    /// answered by a not-yet-migrated index.
    pub fn apply_updates(&self, batch: &[EdgeProbUpdate]) -> Result<UpdateResponse, String> {
        if batch.is_empty() {
            return Err("update batch is empty".into());
        }
        let mut state = self.state.write().expect("engine state poisoned");
        let mut resolved = Vec::with_capacity(batch.len());
        for u in batch {
            let edge = state
                .graph
                .find_edge(NodeId(u.s), NodeId(u.t))
                .ok_or_else(|| {
                    format!(
                        "no edge {} -> {} in the served graph (updates change \
                         existing edges; use `reload` for topology changes)",
                        u.s, u.t
                    )
                })?;
            resolved.push(EdgeUpdate::new(edge, u.prob).map_err(|e| e.to_string())?);
        }
        let new_graph = state.graph.with_updated_probs(&resolved);
        let new_epoch = state.epoch + 1;
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.default_seed ^ new_epoch);
        let mut migrated = Vec::new();
        state.resident.retain(|kind, cell| {
            let mut guard = cell.lock().expect("resident estimator poisoned");
            let (cell_epoch, est) = &mut *guard;
            let outcome = est.apply_updates(&new_graph, &resolved, &mut rng);
            let keep = !matches!(outcome, UpdateOutcome::Rebuild);
            if keep {
                *cell_epoch = new_epoch;
            }
            migrated.push(MigratedResident {
                estimator: kind.display_name().to_owned(),
                mode: if keep { outcome.label() } else { "evicted" }.to_owned(),
                touched: match outcome {
                    UpdateOutcome::Incremental { touched } => touched,
                    _ => 0,
                },
            });
            keep
        });
        migrated.sort_by(|a, b| a.estimator.cmp(&b.estimator));
        state.sampler = Arc::new(ParallelSampler::new(Arc::clone(&new_graph), self.threads));
        state.graph = new_graph;
        state.epoch = new_epoch;
        self.obs.note_update();
        Ok(UpdateResponse {
            epoch: new_epoch,
            edges_updated: resolved.len(),
            migrated,
        })
    }

    /// Replace the served graph wholesale (the rebuild path for edge
    /// inserts/deletes): every resident estimator is evicted — edge ids
    /// are not comparable across a rebuild — and the epoch is bumped.
    pub fn reload_graph(&self, graph: Arc<UncertainGraph>) -> ReloadResponse {
        let mut state = self.state.write().expect("engine state poisoned");
        state.epoch += 1;
        state.resident.clear();
        state.sampler = Arc::new(ParallelSampler::new(Arc::clone(&graph), self.threads));
        state.graph = graph;
        self.obs.note_update();
        ReloadResponse {
            epoch: state.epoch,
            nodes: state.graph.num_nodes(),
            edges: state.graph.num_edges(),
        }
    }

    /// Gauges that are engine state rather than registry counters:
    /// `(epoch, nodes, edges, resident_estimators, resident_bytes)`.
    fn state_gauges(&self) -> (u64, usize, usize, usize, usize) {
        // Copy the registry's cell handles out of the state lock before
        // touching any estimator mutex: a long-running resident query
        // must be able to delay this stats answer, but never a queued
        // update waiting behind our read lock.
        let (epoch, nodes, edges, cells) = {
            let state = self.state.read().expect("engine state poisoned");
            (
                state.epoch,
                state.graph.num_nodes(),
                state.graph.num_edges(),
                state.resident.values().map(Arc::clone).collect::<Vec<_>>(),
            )
        };
        let resident_bytes = cells
            .iter()
            .map(|cell| {
                cell.lock()
                    .expect("resident estimator poisoned")
                    .1
                    .resident_bytes()
            })
            .sum();
        (epoch, nodes, edges, cells.len(), resident_bytes)
    }

    /// Current counters — a wire-compatible view over the metrics registry
    /// (plus cache, graph, and process-wide sampler state).
    pub fn stats(&self) -> StatsResponse {
        let (epoch, nodes, edges, resident_estimators, resident_bytes) = self.state_gauges();
        // Process-wide sampling-path counters: how many worlds went
        // through the packed 64-world kernel vs one-at-a-time BFS.
        let (packed_samples, scalar_samples) = relcomp_core::packed::sample_counts();
        let last_load = self.last_load();
        StatsResponse {
            queries: self.obs.queries_total(),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_entries: self.cache.len(),
            rejected: self.obs.rejected_total(),
            threads: self.threads,
            epoch,
            updates: self.obs.updates(),
            nodes,
            edges,
            resident_estimators,
            resident_bytes,
            packed_samples,
            scalar_samples,
            load_path: last_load
                .map_or("", |(mmapped, _)| if mmapped { "mmap" } else { "heap" })
                .to_owned(),
            load_micros: last_load.map_or(0, |(_, micros)| micros),
            uptime_micros: self.started.elapsed().as_micros() as u64,
        }
    }

    /// The last `n` per-query stage traces, newest first.
    pub fn traces(&self, n: usize) -> Vec<QueryTrace> {
        self.obs.traces.recent(n)
    }

    /// The engine's metrics registry (counters, latency histograms, trace
    /// ring) — benches and tests read histograms from it directly.
    pub fn registry(&self) -> &Registry {
        &self.obs
    }

    /// Everything observable about this engine as one exposition-ready
    /// snapshot: registry counters per `(workload, outcome)` and estimator,
    /// per-workload latency histograms (plus a merged `workload="all"`
    /// view), engine/cache gauges, and the process-wide sampler probes.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::default();
        for w in ObsWorkload::ALL {
            for o in Outcome::ALL {
                let labels = vec![
                    ("workload", w.label().into()),
                    ("outcome", o.label().into()),
                ];
                m.counter("relcomp_queries_total", labels, self.obs.count(w, o));
            }
        }
        for label in relcomp_obs::ESTIMATOR_LABELS {
            let n = self.obs.estimator_count(label);
            if n > 0 {
                let labels = vec![("estimator", label.into())];
                m.counter("relcomp_queries_by_estimator_total", labels, n);
            }
        }
        m.counter("relcomp_cache_hits_total", vec![], self.cache.hits());
        m.counter("relcomp_cache_misses_total", vec![], self.cache.misses());
        m.counter("relcomp_updates_total", vec![], self.obs.updates());

        let (epoch, nodes, edges, resident_estimators, resident_bytes) = self.state_gauges();
        let inflight = self.inflight.load(Ordering::Relaxed) as u64;
        let uptime = self.started.elapsed().as_micros() as u64;
        for (name, value) in [
            ("relcomp_cache_entries", self.cache.len() as u64),
            ("relcomp_inflight", inflight),
            ("relcomp_epoch", epoch),
            ("relcomp_threads", self.threads as u64),
            ("relcomp_graph_nodes", nodes as u64),
            ("relcomp_graph_edges", edges as u64),
            ("relcomp_resident_estimators", resident_estimators as u64),
            ("relcomp_resident_bytes", resident_bytes as u64),
            ("relcomp_uptime_micros", uptime),
        ] {
            m.gauge(name, vec![], value);
        }
        if let Some((mmapped, micros)) = self.last_load() {
            let labels = vec![("path", if mmapped { "mmap" } else { "heap" }.into())];
            m.gauge("relcomp_graph_load_micros", labels, micros);
        }

        for w in ObsWorkload::ALL {
            let labels = vec![("workload", w.label().into())];
            let hist = self.obs.latency(w).snapshot();
            m.histogram("relcomp_query_latency_micros", labels, &hist);
        }
        // The merged view doubles as a live check of histogram mergeability.
        let (labels, hist) = (vec![("workload", "all".into())], self.obs.merged_latency());
        m.histogram("relcomp_query_latency_micros", labels, &hist);

        let sampler = relcomp_obs::sampler_snapshot();
        for (path, n) in [
            ("packed", sampler.packed_samples),
            ("scalar", sampler.scalar_samples),
        ] {
            m.counter("relcomp_samples_total", vec![("path", path.into())], n);
        }
        for (reason, n) in &sampler.sessions {
            let labels = vec![("stop_reason", (*reason).into())];
            m.counter("relcomp_sessions_total", labels, *n);
        }
        for (name, value) in [
            ("relcomp_session_batches_total", sampler.session_batches),
            ("relcomp_session_samples_total", sampler.session_samples),
            ("relcomp_sampling_micros_total", sampler.session_micros),
            ("relcomp_convergence_nanos_total", sampler.convergence_nanos),
        ] {
            m.counter(name, vec![], value);
        }
        m
    }
}

/// The per-workload half of the query pipeline, implemented by each wire
/// request type. [`QueryEngine::run`] owns every step the workloads
/// share; an implementation supplies only what differs.
trait Workload {
    /// The wire answer.
    type Response;
    /// Label for metrics and traces.
    const OBS: ObsWorkload;

    /// The `(s, t)` pair the trace records.
    fn pair(&self) -> (u32, u32);

    /// Validate the request against `graph` and resolve its defaults.
    fn plan(&self, engine: &QueryEngine, graph: &UncertainGraph) -> Result<Plan, Fail>;

    /// Compute a fresh answer against one epoch snapshot, bypassing the
    /// cache. `Err(Fail::Stale)` means an epoch swap won the race and the
    /// pipeline must re-plan.
    fn compute(
        &self,
        engine: &QueryEngine,
        snap: &Snapshot,
        plan: &Plan,
    ) -> Result<CachedAnswer, Fail>;

    /// Whether the answer may be served from and stored in the cache.
    fn cacheable(&self) -> bool {
        true
    }

    /// Commit a fresh answer that bypassed the cache, returning the
    /// epoch the commit created, if any.
    fn commit(&self, _engine: &QueryEngine, _answer: &CachedAnswer) -> Result<Option<u64>, Fail> {
        Ok(None)
    }

    /// Build the wire answer.
    fn respond(&self, plan: &Plan, a: &CachedAnswer, served: Served) -> Self::Response;
}

/// How an answer was served: the wire fields the pipeline fills in.
#[derive(Clone, Copy)]
struct Served {
    cached: bool,
    micros: u64,
    /// The epoch a maximize `apply` run committed, if any.
    applied_epoch: Option<u64>,
}

/// Reject any `(what, node)` that is not in `graph`.
fn check_nodes(graph: &UncertainGraph, nodes: &[(&str, u32)]) -> Result<(), Fail> {
    match nodes
        .iter()
        .find(|&&(_, id)| !graph.contains_node(NodeId(id)))
    {
        Some((what, id)) => Err(Fail::Error(format!(
            "{what} node {id} out of range (graph has {} nodes)",
            graph.num_nodes()
        ))),
        None => Ok(()),
    }
}

/// Reject a zero count.
fn positive(what: &str, n: usize) -> Result<usize, Fail> {
    if n == 0 {
        return Err(Fail::Error(format!("{what} must be positive")));
    }
    Ok(n)
}

/// Plain s-t reliability (`query`).
impl Workload for QueryRequest {
    type Response = QueryResponse;
    const OBS: ObsWorkload = ObsWorkload::St;

    fn pair(&self) -> (u32, u32) {
        (self.s, self.t)
    }

    fn plan(&self, engine: &QueryEngine, graph: &UncertainGraph) -> Result<Plan, Fail> {
        check_nodes(graph, &[("source", self.s), ("target", self.t)])?;
        let mut eps = self.eps;
        let is_auto = self.estimator.as_deref() == Some("auto");
        // The Fig. 18 auto planner now picks *budgets*, not raw sample
        // counts: with no explicit samples or eps, it targets the
        // fixed accuracy `AUTO_EPS` adaptively.
        if is_auto && self.samples.is_none() && eps.is_none() {
            eps = Some(AUTO_EPS);
        }
        let budget = engine.resolve_budget(
            (self.s, self.t),
            self.samples,
            eps,
            self.confidence,
            self.time_budget_ms,
            self.seed,
        )?;
        let kind = match self.estimator.as_deref() {
            None => DEFAULT_ESTIMATOR,
            Some("auto") => {
                let (memory, variance, speed) = AUTO_NEEDS;
                recommend(memory, variance, speed)
                    .first()
                    .copied()
                    .unwrap_or(DEFAULT_ESTIMATOR)
            }
            Some(name) => EstimatorKind::parse(name).map_err(Fail::Error)?,
        };
        Ok(Plan {
            workload: WorkloadKind::St,
            query: PlannedQuery { kind, ..budget },
        })
    }

    fn compute(
        &self,
        engine: &QueryEngine,
        snap: &Snapshot,
        plan: &Plan,
    ) -> Result<CachedAnswer, Fail> {
        let p = &plan.query;
        let budget = p.budget();
        match p.kind {
            EstimatorKind::Mc => {
                let est = snap.sampler.estimate_mc_with(p.s, p.t, &budget, p.seed);
                Ok(CachedAnswer::from_estimate(est, "MC"))
            }
            EstimatorKind::BfsSharing => {
                let est = snap
                    .sampler
                    .estimate_bfs_sharing_with(p.s, p.t, &budget, p.seed);
                Ok(CachedAnswer::from_estimate(est, "BFS Sharing"))
            }
            kind => {
                let cell = engine.resident_cell(snap, kind)?;
                let mut guard = cell.lock().expect("resident estimator poisoned");
                let (cell_epoch, est) = &mut *guard;
                if *cell_epoch != snap.epoch {
                    // Migrated (or rebuilt) under our feet — this cell now
                    // answers for a different graph than the key we hold.
                    return Err(Fail::Stale);
                }
                // Derive the query stream from the cache key so identical
                // keys replay identical randomness.
                let mut rng = shard_rng(p.seed, ((p.s.0 as u64) << 32) | p.t.0 as u64);
                est.refresh(&mut rng);
                let e = est.estimate_with(p.s, p.t, &budget, &mut rng);
                Ok(CachedAnswer::from_estimate(e, kind.display_name()))
            }
        }
    }

    fn respond(&self, plan: &Plan, a: &CachedAnswer, served: Served) -> QueryResponse {
        QueryResponse {
            s: plan.query.s.0,
            t: plan.query.t.0,
            reliability: a.reliability,
            samples: a.samples,
            estimator: a.estimator.to_owned(),
            micros: served.micros,
            cached: served.cached,
            stop_reason: a.stop_reason.label().to_owned(),
            half_width: a.half_width,
            variance: a.variance,
        }
    }
}

/// Top-k reliability search (`topk`), answered on the parallel sampler.
impl Workload for TopKRequest {
    type Response = TopKResponse;
    const OBS: ObsWorkload = ObsWorkload::TopK;

    fn pair(&self) -> (u32, u32) {
        (self.s, 0)
    }

    fn plan(&self, engine: &QueryEngine, graph: &UncertainGraph) -> Result<Plan, Fail> {
        check_nodes(graph, &[("source", self.s)])?;
        let k = positive("k", self.k.unwrap_or(engine.config.default_top_k))?;
        let query = engine.resolve_budget(
            (self.s, 0),
            self.samples,
            self.eps,
            self.confidence,
            self.time_budget_ms,
            self.seed,
        )?;
        Ok(Plan {
            workload: WorkloadKind::TopK { k },
            query,
        })
    }

    fn compute(
        &self,
        _engine: &QueryEngine,
        snap: &Snapshot,
        plan: &Plan,
    ) -> Result<CachedAnswer, Fail> {
        let WorkloadKind::TopK { k } = plan.workload else {
            unreachable!("top-k plan");
        };
        let p = &plan.query;
        let result = snap.sampler.top_k_targets_with(p.s, k, &p.budget(), p.seed);
        Ok(CachedAnswer {
            reliability: result.scores.last().map_or(0.0, |ts| ts.reliability),
            samples: result.samples,
            estimator: "MC",
            stop_reason: result.stop_reason,
            half_width: result.half_width,
            variance: None,
            targets: Some(
                result
                    .scores
                    .iter()
                    .map(|ts| (ts.node.0, ts.reliability))
                    .collect(),
            ),
            upgrades: None,
        })
    }

    fn respond(&self, plan: &Plan, a: &CachedAnswer, served: Served) -> TopKResponse {
        let WorkloadKind::TopK { k } = plan.workload else {
            unreachable!("top-k plan");
        };
        TopKResponse {
            s: self.s,
            k,
            targets: a
                .targets
                .as_deref()
                .unwrap_or_default()
                .iter()
                .map(|&(node, reliability)| TargetEntry { node, reliability })
                .collect(),
            samples: a.samples,
            micros: served.micros,
            cached: served.cached,
            stop_reason: a.stop_reason.label().to_owned(),
            half_width: a.half_width,
        }
    }
}

/// Distance-constrained reliability (`dquery`), answered on the parallel
/// sampler.
impl Workload for DistanceQueryRequest {
    type Response = DistanceQueryResponse;
    const OBS: ObsWorkload = ObsWorkload::Distance;

    fn pair(&self) -> (u32, u32) {
        (self.s, self.t)
    }

    fn plan(&self, engine: &QueryEngine, graph: &UncertainGraph) -> Result<Plan, Fail> {
        check_nodes(graph, &[("source", self.s), ("target", self.t)])?;
        let query = engine.resolve_budget(
            (self.s, self.t),
            self.samples,
            self.eps,
            self.confidence,
            self.time_budget_ms,
            self.seed,
        )?;
        Ok(Plan {
            workload: WorkloadKind::Distance { d: self.d },
            query,
        })
    }

    fn compute(
        &self,
        _engine: &QueryEngine,
        snap: &Snapshot,
        plan: &Plan,
    ) -> Result<CachedAnswer, Fail> {
        let p = &plan.query;
        let est =
            snap.sampler
                .estimate_distance_constrained_with(p.s, p.t, self.d, &p.budget(), p.seed);
        Ok(CachedAnswer::from_estimate(est, "MC"))
    }

    fn respond(&self, _plan: &Plan, a: &CachedAnswer, served: Served) -> DistanceQueryResponse {
        DistanceQueryResponse {
            s: self.s,
            t: self.t,
            d: self.d,
            reliability: a.reliability,
            samples: a.samples,
            micros: served.micros,
            cached: served.cached,
            stop_reason: a.stop_reason.label().to_owned(),
            half_width: a.half_width,
            variance: a.variance,
        }
    }
}

/// Greedy reliability maximization (`maximize`). Report-only answers
/// cache like every other workload; `apply` requests skip the cache and
/// commit their upgrades through the live update path.
impl Workload for MaximizeRequest {
    type Response = MaximizeResponse;
    const OBS: ObsWorkload = ObsWorkload::Maximize;

    fn pair(&self) -> (u32, u32) {
        (self.s, self.t)
    }

    fn plan(&self, engine: &QueryEngine, graph: &UncertainGraph) -> Result<Plan, Fail> {
        check_nodes(graph, &[("source", self.s), ("target", self.t)])?;
        let k = positive("k", self.k.unwrap_or(engine.config.default_maximize_k))?;
        let boost = self.boost.unwrap_or(1.0);
        if !(boost > 0.0 && boost <= 1.0) {
            return Err(Fail::Error(format!("boost {boost} out of range (0, 1]")));
        }
        // Each greedy round may evaluate the whole pool, so the pool limit
        // bounds the cost multiplier over a plain query.
        let candidates = positive(
            "candidates",
            self.candidates.unwrap_or(DEFAULT_MAX_CANDIDATES),
        )?;
        if candidates > DEFAULT_MAX_CANDIDATES {
            return Err(Fail::Rejected(format!(
                "candidate pool {candidates} exceeds the admission limit {DEFAULT_MAX_CANDIDATES}"
            )));
        }
        let query = engine.resolve_budget(
            (self.s, self.t),
            self.samples,
            self.eps,
            self.confidence,
            self.time_budget_ms,
            self.seed,
        )?;
        Ok(Plan {
            workload: WorkloadKind::Maximize {
                k,
                boost_bits: boost.to_bits(),
                candidates,
            },
            query,
        })
    }

    fn compute(
        &self,
        engine: &QueryEngine,
        snap: &Snapshot,
        plan: &Plan,
    ) -> Result<CachedAnswer, Fail> {
        let WorkloadKind::Maximize {
            k,
            boost_bits,
            candidates,
        } = plan.workload
        else {
            unreachable!("maximize plan");
        };
        let p = &plan.query;
        let mut opts = MaximizeOptions::new(k, f64::from_bits(boost_bits), p.budget());
        opts.threads = engine.threads;
        opts.seed = p.seed;
        opts.max_candidates = candidates;
        let result = relcomp_core::maximize::maximize(&snap.graph, p.s, p.t, &opts)
            .map_err(|e| Fail::Error(e.to_string()))?;
        Ok(CachedAnswer {
            reliability: result.reliability,
            samples: result.samples,
            estimator: "MC",
            stop_reason: StopReason::FixedK,
            half_width: None,
            variance: None,
            targets: None,
            upgrades: Some(MaximizeAnswer {
                base_reliability: result.base_reliability,
                gain: result.gain,
                chosen: result
                    .chosen
                    .iter()
                    .map(|c| UpgradeRow {
                        s: c.from.0,
                        t: c.to.0,
                        old_prob: c.old_prob,
                        new_prob: c.new_prob,
                        gain: c.gain,
                        reliability: c.reliability,
                    })
                    .collect(),
                candidates: result.candidates,
                evaluations: result.evaluations,
            }),
        })
    }

    fn cacheable(&self) -> bool {
        !self.apply
    }

    fn commit(&self, engine: &QueryEngine, answer: &CachedAnswer) -> Result<Option<u64>, Fail> {
        let chosen = &answer
            .upgrades
            .as_ref()
            .expect("maximize answer payload")
            .chosen;
        if chosen.is_empty() {
            // Nothing to upgrade (e.g. every candidate already at the
            // boost): an apply run with no picks commits nothing.
            return Ok(None);
        }
        let updates: Vec<EdgeProbUpdate> = chosen
            .iter()
            .map(|c| EdgeProbUpdate {
                s: c.s,
                t: c.t,
                prob: c.new_prob,
            })
            .collect();
        let committed = engine.apply_updates(&updates).map_err(Fail::Error)?;
        Ok(Some(committed.epoch))
    }

    fn respond(&self, plan: &Plan, a: &CachedAnswer, served: Served) -> MaximizeResponse {
        let WorkloadKind::Maximize { k, .. } = plan.workload else {
            unreachable!("maximize plan");
        };
        let m = a.upgrades.as_ref().expect("maximize answer payload");
        MaximizeResponse {
            s: self.s,
            t: self.t,
            k,
            base_reliability: m.base_reliability,
            reliability: a.reliability,
            gain: m.gain,
            chosen: m.chosen.clone(),
            candidates: m.candidates,
            evaluations: m.evaluations,
            samples: a.samples,
            micros: served.micros,
            cached: served.cached,
            applied_epoch: served.applied_epoch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relcomp_core::exact::exact_reliability;
    use relcomp_ugraph::GraphBuilder;

    fn diamond() -> Arc<UncertainGraph> {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 0.6).unwrap();
        b.add_edge(NodeId(1), NodeId(3), 0.7).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 0.4).unwrap();
        Arc::new(b.build())
    }

    fn engine() -> QueryEngine {
        QueryEngine::new(
            diamond(),
            EngineConfig {
                threads: 2,
                ..Default::default()
            },
        )
    }

    fn q(s: u32, t: u32) -> QueryRequest {
        QueryRequest {
            estimator: Some("mc".into()),
            samples: Some(4000),
            seed: Some(7),
            ..QueryRequest::new(s, t)
        }
    }

    fn upd(s: u32, t: u32, prob: f64) -> EdgeProbUpdate {
        EdgeProbUpdate { s, t, prob }
    }

    #[test]
    fn maximize_reports_caches_and_applies() {
        let e = engine();
        let req = MaximizeRequest {
            k: Some(2),
            samples: Some(4000),
            seed: Some(7),
            ..MaximizeRequest::new(0, 3)
        };
        let first = e.execute_maximize(&req).unwrap();
        assert!(!first.cached);
        assert_eq!(first.k, 2);
        assert_eq!(first.chosen.len(), 2);
        assert!(first.gain > 0.0);
        assert!((first.reliability - first.base_reliability - first.gain).abs() < 1e-12);
        assert!(first.applied_epoch.is_none());
        // Report-only answers cache like any read.
        let second = e.execute_maximize(&req).unwrap();
        assert!(second.cached);
        assert_eq!(first.reliability.to_bits(), second.reliability.to_bits());
        assert_eq!(first.chosen.len(), second.chosen.len());
        // `apply` bypasses the cache, commits through the update path,
        // and bumps the epoch.
        let applied = e
            .execute_maximize(&MaximizeRequest {
                apply: true,
                ..req.clone()
            })
            .unwrap();
        assert!(!applied.cached);
        assert_eq!(applied.applied_epoch, Some(1));
        assert_eq!(e.stats().epoch, 1);
        // The committed boosts are live: the chosen edges now carry
        // their new probabilities.
        let g = e.graph();
        for row in &applied.chosen {
            let edge = g.find_edge(NodeId(row.s), NodeId(row.t)).unwrap();
            assert_eq!(g.prob(edge).value().to_bits(), row.new_prob.to_bits());
        }
        assert_eq!(e.registry().count(ObsWorkload::Maximize, Outcome::Hit), 1);
        assert_eq!(e.registry().count(ObsWorkload::Maximize, Outcome::Miss), 2);
    }

    #[test]
    fn maximize_validates_inputs() {
        let e = engine();
        let bad_k = MaximizeRequest {
            k: Some(0),
            ..MaximizeRequest::new(0, 3)
        };
        assert!(e.execute_maximize(&bad_k).unwrap_err().contains("k must"));
        let bad_boost = MaximizeRequest {
            boost: Some(1.5),
            ..MaximizeRequest::new(0, 3)
        };
        assert!(e
            .execute_maximize(&bad_boost)
            .unwrap_err()
            .contains("boost"));
        let bad_node = MaximizeRequest::new(0, 99);
        assert!(e
            .execute_maximize(&bad_node)
            .unwrap_err()
            .contains("out of range"));
        let too_many = MaximizeRequest {
            candidates: Some(1_000_000),
            ..MaximizeRequest::new(0, 3)
        };
        assert!(e
            .execute_maximize(&too_many)
            .unwrap_err()
            .contains("admission limit"));
        assert_eq!(e.registry().count(ObsWorkload::Maximize, Outcome::Error), 3);
        assert_eq!(
            e.registry().count(ObsWorkload::Maximize, Outcome::Rejected),
            1
        );
    }

    #[test]
    fn repeated_query_hits_cache_with_identical_answer() {
        let e = engine();
        let first = e.execute(&q(0, 3)).unwrap();
        assert!(!first.cached);
        let second = e.execute(&q(0, 3)).unwrap();
        assert!(second.cached);
        assert_eq!(first.reliability.to_bits(), second.reliability.to_bits());
        assert_eq!(e.stats().cache_hits, 1);
        assert!(e.stats().queries >= 2);
    }

    #[test]
    fn engine_answers_match_exact_roughly() {
        let e = engine();
        let exact = exact_reliability(&e.graph(), NodeId(0), NodeId(3));
        let mut req = q(0, 3);
        req.samples = Some(60_000);
        let resp = e.execute(&req).unwrap();
        assert!((resp.reliability - exact).abs() < 0.02);
    }

    #[test]
    fn thread_count_does_not_change_engine_answer() {
        let answers: Vec<u64> = [1usize, 4]
            .into_iter()
            .map(|threads| {
                let e = QueryEngine::new(
                    diamond(),
                    EngineConfig {
                        threads,
                        ..Default::default()
                    },
                );
                e.execute(&q(0, 3)).unwrap().reliability.to_bits()
            })
            .collect();
        assert_eq!(answers[0], answers[1]);
    }

    /// A lazy-strategy LastFM analog. Batch-vs-single checks need it: on
    /// the diamond a shared full-reach world stream happens to give every
    /// target the single query's answer.
    fn lastfm_engine() -> QueryEngine {
        let g = Arc::new(relcomp_ugraph::datasets::Dataset::LastFm.generate_with_scale(0.05, 42));
        assert!(!relcomp_core::packed::dense_strategy(&g));
        QueryEngine::new(
            g,
            EngineConfig {
                threads: 1,
                ..Default::default()
            },
        )
    }

    #[test]
    fn single_query_and_batch_of_one_share_cache_entries() {
        let e1 = engine();
        let single = e1.execute(&q(0, 3)).unwrap();
        let e2 = engine();
        let batch = e2.execute_batch(&[q(0, 3)]).unwrap();
        let batched = batch[0].as_ref().unwrap();
        assert_eq!(single.reliability.to_bits(), batched.reliability.to_bits());

        // Same-source fixed MC items, an adaptive item and a
        // non-default confidence: every item answers as a fresh engine's
        // single query does, bit for bit, and a later single query
        // replays it from the cache.
        let mut reqs: Vec<QueryRequest> = (0..5)
            .flat_map(|s| (10..18).map(move |t| (s, t)))
            .map(|(s, t)| QueryRequest {
                samples: Some(1000),
                ..q(s, t)
            })
            .collect();
        reqs.push(QueryRequest {
            eps: Some(0.1),
            seed: Some(5),
            ..q(0, 3)
        });
        reqs.push(QueryRequest {
            confidence: Some(0.9),
            samples: Some(1000),
            ..q(0, 12)
        });
        let e = lastfm_engine();
        let results = e.execute_batch(&reqs).unwrap();
        let bits = |r: &QueryResponse| {
            (
                r.reliability.to_bits(),
                r.samples,
                r.stop_reason.clone(),
                r.half_width.map(f64::to_bits),
                r.variance.map(f64::to_bits),
            )
        };
        for (req, res) in reqs.iter().zip(&results) {
            let batched = res.as_ref().unwrap();
            assert!(!batched.cached);
            let alone = lastfm_engine().execute(req).unwrap();
            assert_eq!(bits(batched), bits(&alone), "{}-{}", req.s, req.t);
            let replay = e.execute(req).unwrap();
            assert!(replay.cached, "{}-{}", req.s, req.t);
            assert_eq!(bits(&replay), bits(&alone), "{}-{}", req.s, req.t);
        }
    }

    #[test]
    fn batch_items_report_their_own_latency() {
        let e = lastfm_engine();
        let reqs: Vec<QueryRequest> = (1..5)
            .map(|seed| QueryRequest {
                samples: Some(20_000),
                seed: Some(seed),
                ..q(0, 11)
            })
            .collect();
        let start = Instant::now();
        let results = e.execute_batch(&reqs).unwrap();
        let wall = start.elapsed().as_micros() as u64;
        let items: u64 = results.iter().map(|r| r.as_ref().unwrap().micros).sum();
        assert!(items <= wall, "items {items} us > batch {wall} us");
    }

    #[test]
    fn batch_amortizes_and_answers_every_query() {
        let e = engine();
        let reqs = vec![q(0, 1), q(0, 2), q(0, 3), q(1, 3)];
        let results = e.execute_batch(&reqs).unwrap();
        assert_eq!(results.len(), 4);
        for (req, res) in reqs.iter().zip(&results) {
            let r = res.as_ref().unwrap();
            assert_eq!((r.s, r.t), (req.s, req.t));
            assert!((0.0..=1.0).contains(&r.reliability));
        }
        // Batch answers are now cached for singles.
        assert!(e.execute(&q(0, 2)).unwrap().cached);
    }

    #[test]
    fn batch_items_leave_a_trace_each() {
        let e = engine();
        let before = e.traces(16).len();
        e.execute_batch(&[q(0, 1), q(0, 99), q(1, 3)]).unwrap();
        let traces = e.traces(16);
        assert_eq!(traces.len(), before + 3);
        // Newest first: the items' pairs in reverse input order.
        let new: Vec<_> = traces[..3].iter().map(|tr| (tr.s, tr.t, tr.ok)).collect();
        assert_eq!(new, [(1, 3, true), (0, 99, false), (0, 1, true)]);
        assert!(traces[..3].iter().all(|tr| tr.workload == "st"));
    }

    #[test]
    fn batch_with_bad_query_still_answers_the_rest() {
        let e = engine();
        let results = e.execute_batch(&[q(0, 3), q(0, 99)]).unwrap();
        assert!(results[0].is_ok());
        let err = results[1].as_ref().unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn planning_validates_and_defaults() {
        let e = engine();
        assert!(e.plan(&QueryRequest::new(0, 99)).is_err());
        assert!(e
            .plan(&QueryRequest {
                estimator: Some("mcmc".into()),
                ..QueryRequest::new(0, 1)
            })
            .is_err());
        let plan = e.plan(&QueryRequest::new(0, 1)).unwrap();
        assert_eq!(plan.kind, EstimatorKind::Mc);
        assert_eq!(plan.samples, e.config().default_samples);
        assert_eq!(plan.seed, e.config().default_seed);
        // auto goes through Fig. 18 under the default (Larger, Higher,
        // Faster) policy → LP+.
        let auto = e
            .plan(&QueryRequest {
                estimator: Some("auto".into()),
                ..QueryRequest::new(0, 1)
            })
            .unwrap();
        assert_eq!(auto.kind, EstimatorKind::LpPlus);
    }

    #[test]
    fn admission_rejects_oversized_budgets_and_batches() {
        // Both limits are checked before any world is sampled.
        let e = engine();
        let mut req = QueryRequest::new(0, 1);
        req.samples = Some(MAX_SAMPLES + 1);
        assert!(e.execute(&req).unwrap_err().contains("admission"));
        let batch = vec![QueryRequest::new(0, 1); MAX_BATCH + 1];
        assert!(e.execute_batch(&batch).unwrap_err().contains("admission"));
        assert_eq!(
            e.stats().rejected,
            2,
            "admission rejections must show up in stats"
        );
    }

    #[test]
    fn resident_estimators_answer_and_cache() {
        let e = engine();
        for name in ["probtree", "lp+", "rhh", "rss"] {
            let req = QueryRequest {
                estimator: Some(name.into()),
                samples: Some(2000),
                ..QueryRequest::new(0, 3)
            };
            let first = e.execute(&req).unwrap();
            assert!((0.0..=1.0).contains(&first.reliability), "{name}");
            let second = e.execute(&req).unwrap();
            assert!(second.cached, "{name} should cache");
            assert_eq!(first.reliability.to_bits(), second.reliability.to_bits());
        }
        let stats = e.stats();
        assert_eq!(stats.resident_estimators, 4);
        assert!(stats.resident_bytes > 0, "indexes occupy memory");
    }

    #[test]
    fn adaptive_query_stops_early_and_reports_stop_reason() {
        let e = engine();
        // R(0, 3) ≈ 0.41 on the diamond: a loose 10% target converges
        // long before the cap.
        let req = QueryRequest {
            estimator: Some("mc".into()),
            eps: Some(0.1),
            samples: Some(100_000),
            seed: Some(3),
            ..QueryRequest::new(0, 3)
        };
        let resp = e.execute(&req).unwrap();
        assert_eq!(resp.stop_reason, "converged");
        assert!(
            resp.samples < 100_000,
            "adaptive must stop early, used {}",
            resp.samples
        );
        let hw = resp.half_width.expect("bernoulli sampling reports a CI");
        assert!(hw <= 0.1 * resp.reliability + 1e-12, "hw {hw}");
        // The repeat replays from the cache, budget and all.
        let again = e.execute(&req).unwrap();
        assert!(again.cached);
        assert_eq!(again.samples, resp.samples);
        assert_eq!(again.stop_reason, "converged");
    }

    #[test]
    fn adaptive_and_fixed_budgets_cache_separately() {
        let e = engine();
        let fixed = QueryRequest {
            estimator: Some("mc".into()),
            samples: Some(2048),
            seed: Some(7),
            ..QueryRequest::new(0, 3)
        };
        let adaptive = QueryRequest {
            eps: Some(1e-9), // never converges: runs to the cap
            ..fixed.clone()
        };
        let a = e.execute(&fixed).unwrap();
        let b = e.execute(&adaptive).unwrap();
        assert!(!a.cached && !b.cached, "distinct budgets, distinct keys");
        assert_eq!(a.stop_reason, "fixed_k");
        assert_eq!(b.stop_reason, "max_samples");
        assert_eq!(b.samples, 2048, "cap respected");
    }

    #[test]
    fn adaptive_respects_the_sample_cap() {
        let e = engine();
        let req = QueryRequest {
            estimator: Some("mc".into()),
            eps: Some(1e-9),
            confidence: Some(0.999),
            samples: Some(1500),
            seed: Some(11),
            ..QueryRequest::new(0, 3)
        };
        let resp = e.execute(&req).unwrap();
        assert!(resp.samples <= 1500, "cap exceeded: {}", resp.samples);
        assert_eq!(resp.stop_reason, "max_samples");
    }

    #[test]
    fn auto_planner_budgets_adaptively() {
        let e = engine();
        // auto + no samples/eps: the planner targets `auto_eps` with the
        // adaptive cap instead of a raw default K.
        let plan = e
            .plan(&QueryRequest {
                estimator: Some("auto".into()),
                ..QueryRequest::new(0, 3)
            })
            .unwrap();
        assert_eq!(plan.eps, Some(AUTO_EPS));
        assert_eq!(plan.samples, e.config().adaptive_max_samples);
        assert!(!plan.budget().is_fixed());
        // An explicit K keeps auto fixed (paper-table compatibility).
        let fixed = e
            .plan(&QueryRequest {
                estimator: Some("auto".into()),
                samples: Some(1000),
                ..QueryRequest::new(0, 3)
            })
            .unwrap();
        assert!(fixed.budget().is_fixed());
        assert_eq!(fixed.samples, 1000);
    }

    #[test]
    fn adaptive_validation_rejects_nonsense() {
        let e = engine();
        for (req, needle) in [
            (
                QueryRequest {
                    eps: Some(0.0),
                    ..QueryRequest::new(0, 3)
                },
                "eps",
            ),
            (
                QueryRequest {
                    eps: Some(0.1),
                    confidence: Some(1.0),
                    ..QueryRequest::new(0, 3)
                },
                "confidence",
            ),
            (
                QueryRequest {
                    time_budget_ms: Some(0),
                    ..QueryRequest::new(0, 3)
                },
                "time_budget_ms",
            ),
        ] {
            let err = e.execute(&req).unwrap_err();
            assert!(err.contains(needle), "{err}");
        }
    }

    #[test]
    fn topk_executes_caches_and_respects_epoch() {
        let e = engine();
        let req = TopKRequest {
            k: Some(3),
            samples: Some(20_000),
            seed: Some(7),
            ..TopKRequest::new(0)
        };
        let first = e.execute_topk(&req).unwrap();
        assert!(!first.cached);
        assert_eq!(first.k, 3);
        assert_eq!(first.targets.len(), 3);
        assert_eq!(first.stop_reason, "fixed_k");
        // Truth on the diamond: node 2 (0.6) leads.
        assert_eq!(first.targets[0].node, 2);
        let second = e.execute_topk(&req).unwrap();
        assert!(second.cached);
        assert_eq!(second.targets, first.targets);
        // Same budget at a different k is a different computation.
        let other_k = e
            .execute_topk(&TopKRequest {
                k: Some(1),
                ..req.clone()
            })
            .unwrap();
        assert!(!other_k.cached);
        assert_eq!(other_k.targets.len(), 1);
        // An epoch bump invalidates: nearly sever 0 -> 2 and the ranking
        // flips.
        e.apply_updates(&[upd(0, 2, 0.01)]).unwrap();
        let after = e.execute_topk(&req).unwrap();
        assert!(!after.cached, "epoch bump must invalidate topk answers");
        assert_ne!(after.targets[0].node, 2, "ranking must track the update");
    }

    #[test]
    fn topk_adaptive_stops_early_and_certifies_boundary() {
        let e = engine();
        let req = TopKRequest {
            k: Some(2),
            eps: Some(0.1),
            samples: Some(100_000),
            seed: Some(3),
            ..TopKRequest::new(0)
        };
        let resp = e.execute_topk(&req).unwrap();
        assert_eq!(resp.stop_reason, "converged");
        assert!(resp.samples < 100_000, "used {}", resp.samples);
        let hw = resp.half_width.expect("boundary CI");
        let boundary = resp.targets.last().unwrap().reliability;
        assert!(hw <= 0.1 * boundary + 1e-12);
        assert!(e.execute_topk(&req).unwrap().cached);
    }

    #[test]
    fn dquery_executes_caches_and_keys_by_distance() {
        let e = engine();
        let base = DistanceQueryRequest {
            samples: Some(30_000),
            seed: Some(7),
            ..DistanceQueryRequest::new(0, 3, 2)
        };
        let two_hop = e.execute_dquery(&base).unwrap();
        assert!(!two_hop.cached);
        assert_eq!(two_hop.d, 2);
        // No 1-hop path to the far corner of the diamond.
        let one_hop = e
            .execute_dquery(&DistanceQueryRequest {
                samples: base.samples,
                seed: base.seed,
                ..DistanceQueryRequest::new(0, 3, 1)
            })
            .unwrap();
        assert!(!one_hop.cached, "d is part of the cache key");
        assert_eq!(one_hop.reliability, 0.0);
        // R_2 equals the unconstrained truth on the diamond (~0.506).
        let exact = exact_reliability(&e.graph(), NodeId(0), NodeId(3));
        assert!((two_hop.reliability - exact).abs() < 0.02);
        assert!(e.execute_dquery(&base).unwrap().cached);
    }

    #[test]
    fn dquery_adaptive_reports_session_fields_and_invalidates_on_update() {
        let e = engine();
        let req = DistanceQueryRequest {
            eps: Some(0.1),
            samples: Some(100_000),
            seed: Some(5),
            ..DistanceQueryRequest::new(0, 3, 2)
        };
        let resp = e.execute_dquery(&req).unwrap();
        assert_eq!(resp.stop_reason, "converged");
        assert!(resp.samples < 100_000);
        assert!(resp.half_width.is_some() && resp.variance.is_some());
        e.apply_updates(&[upd(1, 3, 0.05), upd(2, 3, 0.05)])
            .unwrap();
        let after = e.execute_dquery(&req).unwrap();
        assert!(!after.cached);
        assert!(
            after.reliability < 0.12,
            "answer {} must track the update",
            after.reliability
        );
    }

    #[test]
    fn extension_workloads_validate_and_admit() {
        let e = engine();
        assert!(e
            .execute_topk(&TopKRequest::new(99))
            .unwrap_err()
            .contains("out of range"));
        assert!(e
            .execute_topk(&TopKRequest {
                k: Some(0),
                ..TopKRequest::new(0)
            })
            .unwrap_err()
            .contains("k must be positive"));
        assert!(e
            .execute_topk(&TopKRequest {
                samples: Some(MAX_SAMPLES + 1),
                ..TopKRequest::new(0)
            })
            .unwrap_err()
            .contains("admission"));
        assert!(e
            .execute_dquery(&DistanceQueryRequest::new(0, 99, 2))
            .unwrap_err()
            .contains("out of range"));
        assert!(e
            .execute_dquery(&DistanceQueryRequest {
                eps: Some(0.0),
                ..DistanceQueryRequest::new(0, 3, 2)
            })
            .unwrap_err()
            .contains("eps"));
        assert_eq!(e.stats().rejected, 1, "admission rejections counted");
    }

    #[test]
    fn update_bumps_epoch_and_invalidates_cache() {
        let e = engine();
        let before = e.execute(&q(0, 3)).unwrap();
        assert!(e.execute(&q(0, 3)).unwrap().cached);

        // Throttle 0->1 and 0->2 almost shut: R(0, 3) collapses.
        let resp = e
            .apply_updates(&[upd(0, 1, 0.01), upd(0, 2, 0.01)])
            .unwrap();
        assert_eq!(resp.epoch, 1);
        assert_eq!(resp.edges_updated, 2);
        assert_eq!(e.epoch(), 1);

        let after = e.execute(&q(0, 3)).unwrap();
        assert!(!after.cached, "epoch bump must invalidate the cache");
        let exact = exact_reliability(&e.graph(), NodeId(0), NodeId(3));
        assert!(exact < 0.02, "sanity: updated graph truth {exact}");
        assert!(
            (after.reliability - exact).abs() < 0.02,
            "answer {} must track the new probabilities (exact {exact}), was {}",
            after.reliability,
            before.reliability
        );
        assert_eq!(e.stats().updates, 1);
    }

    #[test]
    fn update_migrates_residents_incrementally() {
        let e = engine();
        // Make ProbTree and LP+ resident.
        for name in ["probtree", "lp+"] {
            let req = QueryRequest {
                estimator: Some(name.into()),
                samples: Some(1000),
                ..QueryRequest::new(0, 3)
            };
            e.execute(&req).unwrap();
        }
        let resp = e.apply_updates(&[upd(1, 3, 0.05)]).unwrap();
        let modes: HashMap<&str, &str> = resp
            .migrated
            .iter()
            .map(|m| (m.estimator.as_str(), m.mode.as_str()))
            .collect();
        assert_eq!(modes.get("ProbTree"), Some(&"incremental"));
        assert_eq!(modes.get("LP+"), Some(&"rebound"));
        // Migrated residents answer for the new graph without a rebuild.
        let exact = exact_reliability(&e.graph(), NodeId(0), NodeId(3));
        let req = QueryRequest {
            estimator: Some("probtree".into()),
            samples: Some(60_000),
            seed: Some(3),
            ..QueryRequest::new(0, 3)
        };
        let resp = e.execute(&req).unwrap();
        assert!(
            (resp.reliability - exact).abs() < 0.02,
            "{} vs exact {exact}",
            resp.reliability
        );
        assert_eq!(e.stats().resident_estimators, 2, "nothing was evicted");
    }

    #[test]
    fn update_rejects_unknown_edges_atomically() {
        let e = engine();
        let err = e
            .apply_updates(&[upd(0, 1, 0.9), upd(3, 0, 0.5)])
            .unwrap_err();
        assert!(err.contains("no edge"), "{err}");
        assert_eq!(e.epoch(), 0, "failed batches must not bump the epoch");
        let g = e.graph();
        let edge = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(g.prob(edge).value(), 0.5, "failed batches change nothing");
        assert!(e.apply_updates(&[]).is_err(), "empty batches are rejected");
        assert!(
            e.apply_updates(&[upd(0, 1, 1.5)]).is_err(),
            "invalid probabilities are rejected"
        );
    }

    #[test]
    fn reload_swaps_graph_and_evicts_residents() {
        let e = engine();
        e.execute(&QueryRequest {
            estimator: Some("probtree".into()),
            ..QueryRequest::new(0, 3)
        })
        .unwrap();
        assert_eq!(e.stats().resident_estimators, 1);

        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
        let resp = e.reload_graph(Arc::new(b.build()));
        assert_eq!(resp.epoch, 1);
        assert_eq!((resp.nodes, resp.edges), (2, 1));
        assert_eq!(e.stats().resident_estimators, 0, "residents evicted");
        // Old node ids are now invalid; new ones answer.
        assert!(e.execute(&q(0, 3)).is_err());
        let ok = e.execute(&q(0, 1)).unwrap();
        assert!((ok.reliability - 0.9).abs() < 0.05);
    }

    #[test]
    fn successive_updates_keep_epochs_and_answers_consistent() {
        let e = engine();
        e.execute(&q(0, 3)).unwrap();
        let mut last = f64::NAN;
        for (i, p) in [0.9f64, 0.2, 0.7].into_iter().enumerate() {
            let resp = e.apply_updates(&[upd(1, 3, p)]).unwrap();
            assert_eq!(resp.epoch, i as u64 + 1);
            let r = e.execute(&q(0, 3)).unwrap();
            assert!(!r.cached);
            let exact = exact_reliability(&e.graph(), NodeId(0), NodeId(3));
            assert!((r.reliability - exact).abs() < 0.05);
            last = r.reliability;
        }
        // The final cache state replays the final epoch's answer.
        let again = e.execute(&q(0, 3)).unwrap();
        assert!(again.cached);
        assert_eq!(again.reliability.to_bits(), last.to_bits());
    }

    #[test]
    fn queries_race_updates_without_wrong_epoch_answers() {
        // Hammer the engine with concurrent resident-kind queries and
        // updates; every response must be in range and the engine must
        // never wedge. (Wrong-epoch cache pollution would show up as a
        // cached answer differing from a recompute at the same key.)
        let e = Arc::new(engine());
        std::thread::scope(|scope| {
            let eng = Arc::clone(&e);
            scope.spawn(move || {
                for i in 0..20 {
                    let p = 0.05 + 0.9 * ((i % 10) as f64 / 10.0);
                    eng.apply_updates(&[upd(0, 1, p)]).unwrap();
                }
            });
            for _ in 0..2 {
                let eng = Arc::clone(&e);
                scope.spawn(move || {
                    for seed in 0..30u64 {
                        let req = QueryRequest {
                            estimator: Some("probtree".into()),
                            samples: Some(200),
                            seed: Some(seed),
                            ..QueryRequest::new(0, 3)
                        };
                        match eng.execute(&req) {
                            Ok(r) => assert!((0.0..=1.0).contains(&r.reliability)),
                            Err(e) => assert!(e.contains("retry") || e.contains("updated")),
                        }
                    }
                });
            }
        });
        assert_eq!(e.epoch(), 20);
    }
}
