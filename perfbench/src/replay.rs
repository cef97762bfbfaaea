//! The core-library call a served request maps to, with the budget and
//! seed the engine plans for it (engine defaults: seed 42, confidence
//! 0.95, resident estimators built with seed 42 and default parameters,
//! resident queries seeded from the key). Used by the determinism check
//! and by the traced run's `core.*` spans.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use relcomp_core::maximize::DEFAULT_MAX_CANDIDATES;
use relcomp_core::parallel::shard_rng;
use relcomp_core::session::DEFAULT_CONFIDENCE;
use relcomp_core::{
    build_estimator, Estimator, EstimatorKind, MaximizeOptions, ParallelSampler, SampleBudget,
    SuiteParams, UpdateOutcome,
};
use relcomp_serve::engine::EngineConfig;
use relcomp_serve::protocol::{EdgeProbUpdate, Request};
use relcomp_ugraph::{EdgeUpdate, NodeId, UncertainGraph};
use std::collections::HashMap;
use std::sync::Arc;

/// What a core call answered: the reliability (for top-k, the k-th ranked
/// score, as the engine caches it), the worlds it drew, and the ranking.
#[derive(Clone, Debug, PartialEq)]
pub struct CoreAnswer {
    /// Which `core.*` span this call belongs to.
    pub span: &'static str,
    pub reliability: f64,
    pub samples: usize,
    pub targets: Vec<(u32, f64)>,
    /// Whether the call ran on the packed world kernel (MC, top-k, R_d),
    /// whose worlds `core.ns_per_world` is taken over.
    pub packed_path: bool,
}

/// Resident estimators the engine keeps per tenant, as `(wire name, kind)`.
pub const RESIDENT: [(&str, EstimatorKind); 4] = [
    ("probtree", EstimatorKind::ProbTree),
    ("lp+", EstimatorKind::LpPlus),
    ("rhh", EstimatorKind::Rhh),
    ("rss", EstimatorKind::Rss),
];

/// Core-level replay over one graph.
pub struct CoreReplay {
    graph: Arc<UncertainGraph>,
    sampler: ParallelSampler,
    threads: usize,
    config: EngineConfig,
    residents: HashMap<EstimatorKind, Box<dyn Estimator + Send>>,
}

impl CoreReplay {
    pub fn new(graph: Arc<UncertainGraph>, threads: usize) -> CoreReplay {
        CoreReplay {
            sampler: ParallelSampler::new(Arc::clone(&graph), threads),
            graph,
            threads,
            config: EngineConfig::default(),
            residents: HashMap::new(),
        }
    }

    /// Build the resident estimator `kind` exactly as the engine does.
    pub fn build_resident(&mut self, kind: EstimatorKind) -> &dyn Estimator {
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.default_seed);
        let est = build_estimator(
            kind,
            Arc::clone(&self.graph),
            SuiteParams::default(),
            &mut rng,
        );
        self.residents.insert(kind, est);
        self.residents[&kind].as_ref()
    }

    /// Follow the engine to a new epoch: `graph` is the engine's graph
    /// after it applied `batch` at `epoch`; residents migrate the way the
    /// engine migrates them (a resident that cannot migrate is dropped and
    /// rebuilt on next use).
    pub fn follow_update(
        &mut self,
        graph: Arc<UncertainGraph>,
        batch: &[EdgeProbUpdate],
        epoch: u64,
    ) {
        let resolved: Vec<EdgeUpdate> = batch
            .iter()
            .filter_map(|u| {
                let edge = self.graph.find_edge(NodeId(u.s), NodeId(u.t))?;
                EdgeUpdate::new(edge, u.prob).ok()
            })
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.default_seed ^ epoch);
        self.residents.retain(|_, est| {
            !matches!(
                est.apply_updates(&graph, &resolved, &mut rng),
                UpdateOutcome::Rebuild
            )
        });
        self.sampler = ParallelSampler::new(Arc::clone(&graph), self.threads);
        self.graph = graph;
    }

    fn budget(
        &self,
        samples: Option<usize>,
        eps: Option<f64>,
        confidence: Option<f64>,
        time: Option<u64>,
    ) -> (SampleBudget, usize) {
        let adaptive = eps.is_some() || time.is_some();
        let n = samples.unwrap_or(if adaptive {
            self.config.adaptive_max_samples
        } else {
            self.config.default_samples
        });
        (
            SampleBudget::assemble(n, eps, confidence.unwrap_or(DEFAULT_CONFIDENCE), time),
            n,
        )
    }

    /// Run the core call `req` maps to; `None` for requests that reach no
    /// estimator (update, metrics, ...).
    pub fn run(&mut self, req: &Request) -> Option<CoreAnswer> {
        let seed_of = |s: Option<u64>| s.unwrap_or(42);
        let single = |span, e: relcomp_core::Estimate, packed_path| CoreAnswer {
            span,
            reliability: e.reliability,
            samples: e.samples,
            targets: Vec::new(),
            packed_path,
        };
        match req {
            Request::Query(q) => {
                let (budget, _) = self.budget(q.samples, q.eps, q.confidence, q.time_budget_ms);
                let (s, t, seed) = (NodeId(q.s), NodeId(q.t), seed_of(q.seed));
                let kind = EstimatorKind::parse(q.estimator.as_deref().unwrap_or("mc")).ok()?;
                Some(match kind {
                    EstimatorKind::Mc => single(
                        "core.mc_ms",
                        self.sampler.estimate_mc_with(s, t, &budget, seed),
                        true,
                    ),
                    EstimatorKind::BfsSharing => single(
                        "core.bfs_sharing_ms",
                        self.sampler.estimate_bfs_sharing_with(s, t, &budget, seed),
                        false,
                    ),
                    kind => {
                        if !self.residents.contains_key(&kind) {
                            self.build_resident(kind);
                        }
                        let est = self.residents.get_mut(&kind).expect("resident just built");
                        let mut rng = shard_rng(seed, ((q.s as u64) << 32) | q.t as u64);
                        est.refresh(&mut rng);
                        let span = match kind {
                            EstimatorKind::ProbTree => "core.probtree_ms",
                            EstimatorKind::LpPlus => "core.lp_ms",
                            EstimatorKind::Rhh => "core.rhh_ms",
                            _ => "core.rss_ms",
                        };
                        single(span, est.estimate_with(s, t, &budget, &mut rng), false)
                    }
                })
            }
            Request::TopK(q) => {
                let (budget, _) = self.budget(q.samples, q.eps, q.confidence, q.time_budget_ms);
                let k = q.k.unwrap_or(self.config.default_top_k);
                let r = self
                    .sampler
                    .top_k_targets_with(NodeId(q.s), k, &budget, seed_of(q.seed));
                Some(CoreAnswer {
                    span: "core.topk_ms",
                    reliability: r.scores.last().map_or(0.0, |ts| ts.reliability),
                    samples: r.samples,
                    targets: r
                        .scores
                        .iter()
                        .map(|ts| (ts.node.0, ts.reliability))
                        .collect(),
                    packed_path: true,
                })
            }
            Request::DQuery(q) => {
                let (budget, _) = self.budget(q.samples, q.eps, q.confidence, q.time_budget_ms);
                let e = self.sampler.estimate_distance_constrained_with(
                    NodeId(q.s),
                    NodeId(q.t),
                    q.d,
                    &budget,
                    seed_of(q.seed),
                );
                Some(single("core.dquery_ms", e, true))
            }
            Request::Maximize(q) => {
                let (budget, _) = self.budget(q.samples, q.eps, q.confidence, q.time_budget_ms);
                let mut opts = MaximizeOptions::new(
                    q.k.unwrap_or(self.config.default_maximize_k),
                    q.boost.unwrap_or(1.0),
                    budget,
                );
                opts.threads = self.threads;
                opts.seed = seed_of(q.seed);
                opts.max_candidates = q.candidates.unwrap_or(DEFAULT_MAX_CANDIDATES);
                let r =
                    relcomp_core::maximize(&self.graph, NodeId(q.s), NodeId(q.t), &opts).ok()?;
                Some(CoreAnswer {
                    span: "core.maximize_ms",
                    reliability: r.reliability,
                    samples: r.samples,
                    targets: Vec::new(),
                    packed_path: false,
                })
            }
            _ => None,
        }
    }
}
