//! The traced run. It replays the workload's generated requests in-process
//! and times, from this file, every call into each layer's public
//! functions: graph load (`relcomp-ugraph`), tenant load, engine execute,
//! cache and update path (`relcomp-serve`), the matching core call with the
//! engine's planned budget and seed (`relcomp-core`), wire parse and
//! serialize and `dispatch_line` (`relcomp-serve` protocol/server), and
//! the metrics scrape (`relcomp-obs`). Nothing is traced inside the
//! program; counters come from what it already exports.
//!
//! Three in-process engine sets see the same request sequence: set A is
//! timed call by call (engine, then the core replay of each miss), set B
//! answers through `dispatch_line`, set C replays `dispatch_line` untimed
//! to price the tracing itself. A serial pass of the same requests through
//! a real server then gives the client-observed time per request, and
//! with it the wire share.

use crate::client::LineConn;
use crate::e2e;
use crate::inputs::GraphInput;
use crate::replay::{CoreReplay, RESIDENT};
use crate::requests::{Req, TENANTS};
use crate::server::{self, ServerProc};
use crate::stats::{mean, median};
use crate::{Args, Metric, RunResult, Workload};
use relcomp_serve::engine::{EngineConfig, QueryEngine};
use relcomp_serve::protocol::{Request, Response};
use relcomp_serve::server::dispatch_line;
use relcomp_serve::TenantRegistry;
use relcomp_ugraph::load_graph_auto;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric: name, unit, and the end-to-end metric (and
/// workloads) it should move.
pub const LAYERS: &[(&str, &str, &str)] = &[
    ("ugraph.load_ms", "ms", "setup_s on all workloads"),
    ("tenants.load_ms", "ms", "setup_s on hot-rw"),
    (
        "core.index_build_ms",
        "ms",
        "setup_s and rss_mb on cold-sparse, hot-rw",
    ),
    (
        "core.index_mb",
        "MiB",
        "setup_s and rss_mb on cold-sparse, hot-rw",
    ),
    ("core.mc_ms", "ms", "qps, p50_ms on cold-sparse, cold-dense"),
    (
        "core.bfs_sharing_ms",
        "ms",
        "qps, p50_ms on cold-sparse, cold-dense",
    ),
    (
        "core.probtree_ms",
        "ms",
        "qps, p50_ms, p99_ms on cold-sparse",
    ),
    ("core.lp_ms", "ms", "qps, p50_ms on cold-sparse"),
    ("core.rhh_ms", "ms", "qps, p50_ms on cold-sparse"),
    ("core.rss_ms", "ms", "qps, p50_ms, p99_ms on cold-sparse"),
    (
        "core.topk_ms",
        "ms",
        "qps, p50_ms on cold-sparse, cold-dense",
    ),
    (
        "core.dquery_ms",
        "ms",
        "qps, p50_ms on cold-sparse, cold-dense",
    ),
    ("core.maximize_ms", "ms", "p99_ms on hot-rw"),
    (
        "core.ns_per_world",
        "ns",
        "qps on cold-sparse, cold-dense; not hot-rw",
    ),
    (
        "core.worlds_per_query",
        "count",
        "qps on cold-sparse, cold-dense; not hot-rw",
    ),
    (
        "core.packed_share",
        "share",
        "qps on cold-sparse, cold-dense",
    ),
    (
        "core.converged_share",
        "share",
        "p50_ms on cold-sparse, cold-dense",
    ),
    ("engine.overhead_us", "us", "p50_ms on hot-rw"),
    (
        "engine.cache_hit_share",
        "share",
        "p50_ms, qps on hot-rw (0 on cold-*)",
    ),
    (
        "engine.rejected_share",
        "share",
        "ok_share on all workloads",
    ),
    ("engine.update_us", "us", "p99_ms on hot-rw"),
    ("engine.epoch_bumps", "count", "p99_ms on hot-rw"),
    ("protocol.parse_us", "us", "p50_ms on hot-rw"),
    ("protocol.serialize_us", "us", "p50_ms on hot-rw"),
    ("protocol.response_bytes", "bytes", "p50_ms on hot-rw"),
    ("server.dispatch_us", "us", "p50_ms on hot-rw"),
    ("server.wire_us", "us", "p50_ms, p99_ms on hot-rw"),
    ("obs.scrape_us", "us", "p99_ms on hot-rw"),
    (
        "trace.unexplained_share",
        "share",
        "(what the layer spans leave unexplained)",
    ),
    (
        "trace.overhead_share",
        "share",
        "(cost of the spans themselves)",
    ),
    ("prop.requests", "count", "(property)"),
    ("prop.reads", "count", "(property)"),
    ("prop.cache_hits", "count", "(property)"),
    ("prop.writes", "count", "(property)"),
    ("prop.adaptive", "count", "(property)"),
    ("prop.recurring_pairs", "count", "(property)"),
    ("prop.shared_source", "count", "(property)"),
    ("prop.packed_worlds", "count", "(property)"),
    ("prop.scalar_worlds", "count", "(property)"),
    (
        "prop.offspring",
        "ratio",
        "(property: sum p / n of tenant 0)",
    ),
    (
        "prop.offspring_tenant2",
        "ratio",
        "(property: sum p / n of tenant 1, 0 if none)",
    ),
];

/// Share of `--seconds` the timed replay (set A plus set B) may take; the
/// untimed replay and the wire pass take roughly half as long again.
const REPLAY_SHARE: f64 = 0.45;
/// Repetitions of the graph-load and scrape timings.
const REPS: usize = 5;

/// Microseconds `f` took, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e6)
}

/// Engine-level execute: the call the server's dispatch makes per verb.
fn execute(engine: &QueryEngine, request: &Request) -> Response {
    let out = match request {
        Request::Query(q) => engine.execute(q).map(Response::Query),
        Request::TopK(q) => engine.execute_topk(q).map(Response::TopK),
        Request::DQuery(q) => engine.execute_dquery(q).map(Response::DQuery),
        Request::Maximize(q) => engine.execute_maximize(q).map(Response::Maximize),
        other => Err(format!("not an engine execute: {other:?}")),
    };
    out.unwrap_or_else(Response::Error)
}

fn cached(response: &Response) -> Option<bool> {
    match response {
        Response::Query(r) => Some(r.cached),
        Response::TopK(r) => Some(r.cached),
        Response::DQuery(r) => Some(r.cached),
        Response::Maximize(r) => Some(r.cached),
        _ => None,
    }
}

/// The bit pattern of an answer, to check two engine paths agree.
fn answer_bits(response: &Response) -> Option<Vec<u64>> {
    match response {
        Response::Query(r) => Some(vec![r.reliability.to_bits()]),
        Response::DQuery(r) => Some(vec![r.reliability.to_bits()]),
        Response::TopK(r) => Some(r.targets.iter().map(|t| t.reliability.to_bits()).collect()),
        Response::Maximize(r) => Some(vec![r.reliability.to_bits()]),
        _ => None,
    }
}

/// Metrics snapshot plus Prometheus render over every tenant, as the
/// server's `metrics` verb does.
fn scrape(engines: &[Arc<QueryEngine>]) -> String {
    engines
        .iter()
        .map(|e| relcomp_obs::render_prometheus(&e.metrics()))
        .collect()
}

/// One engine set: a tenant registry loaded like the server's, warmed
/// like the server's set-up. Returns the engines and the last tenant
/// load's time in ms.
fn engine_set(args: &Args, graphs: &[GraphInput]) -> Result<(Vec<Arc<QueryEngine>>, f64), String> {
    let config = EngineConfig {
        threads: server::THREADS,
        cache_capacity: server::CACHE,
        ..Default::default()
    };
    let registry = TenantRegistry::new(config, None);
    let mut load_us = 0.0;
    for (tenant, g) in graphs.iter().enumerate() {
        let path = g.path.to_str().ok_or("graph path is not UTF-8")?;
        let (res, us) = timed(|| registry.load(TENANTS[tenant], path, None));
        res?;
        load_us = us;
    }
    let engines: Vec<Arc<QueryEngine>> = (0..graphs.len())
        .map(|t| registry.get(TENANTS[t]).expect("tenant just loaded"))
        .collect();
    for (tenant, estimator) in args.workload.residents() {
        let (s, t) = graphs[tenant].pool[0];
        let line = format!(
            r#"{{"cmd":"query","s":{},"t":{},"estimator":"{estimator}","samples":64,"seed":1}}"#,
            s.0, t.0
        );
        let (text, _) = dispatch_line(&line, &engines[tenant]);
        if !text.contains(r#""kind":"query""#) {
            return Err(format!("warm-up {estimator}: {text}"));
        }
    }
    Ok((engines, load_us / 1e3))
}

/// Per-request timings of the replay.
#[derive(Default)]
struct Spans {
    parse: Vec<f64>,
    engine: Vec<f64>,
    overhead: Vec<f64>,
    serialize: Vec<f64>,
    bytes: Vec<f64>,
    dispatch: Vec<f64>,
    core: HashMap<&'static str, Vec<f64>>,
    packed_core_ns: f64,
    packed_worlds: f64,
    worlds: Vec<f64>,
    update: Vec<f64>,
    scrape: Vec<f64>,
    epoch_bumps: u64,
    reads: usize,
    hits: usize,
    failed: usize,
    packed: u64,
    scalar: u64,
    converged: u64,
    adaptive: u64,
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let graphs = e2e::prepare(args.workload)?;
    let mut problems = Vec::new();

    let load_ms: Vec<f64> = (0..REPS)
        .map(|_| {
            let (res, us) = timed(|| load_graph_auto(&graphs[0].path));
            res.map(|_| us / 1e3).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let (a, load_a) = engine_set(args, &graphs)?;
    let (b, load_b) = engine_set(args, &graphs)?;
    let (c, load_c) = engine_set(args, &graphs)?;

    // Core replays, with the resident indexes the engines keep, built and
    // timed here.
    let mut replays: Vec<CoreReplay> = graphs
        .iter()
        .map(|g| CoreReplay::new(Arc::clone(&g.graph), server::THREADS))
        .collect();
    let (mut index_ms, mut index_bytes) = (0.0, 0usize);
    for (tenant, estimator) in args.workload.residents() {
        let kind = RESIDENT
            .iter()
            .find(|(n, _)| *n == estimator)
            .expect("resident kind")
            .1;
        let (bytes, us) = timed(|| replays[tenant].build_resident(kind).resident_bytes());
        index_ms += us / 1e3;
        index_bytes += bytes;
    }

    // The request sequence: the same stream the end-to-end run sends,
    // replayed for as long as the budget allows.
    let mut source: Box<dyn Iterator<Item = Req>> = match args.workload {
        Workload::HotRw => Box::new(
            e2e::hot_schedule(args, &graphs, e2e::HOT_RATE, args.seconds)
                .into_iter()
                .map(|s| s.req),
        ),
        _ => Box::new(e2e::cold_stream(args, &graphs)),
    };
    let budget = args.seconds * REPLAY_SHARE;
    let start = Instant::now();
    let mut s = Spans::default();
    let mut prefix: Vec<Req> = Vec::new();
    while start.elapsed().as_secs_f64() < budget {
        let Some(r) = source.next() else { break };
        let engine = &a[r.tenant];
        let (parsed, us) = timed(|| serde_json::from_str::<Request>(&r.line));
        s.parse.push(us);
        if parsed.as_ref().ok() != Some(&r.request) {
            problems.push(format!("wire parse changed the request: {}", r.line));
        }
        let response = match &r.request {
            Request::Metrics { .. } => {
                let (text, us) = timed(|| scrape(&a));
                s.scrape.push(us);
                s.engine.push(us);
                Response::MetricsText(text)
            }
            Request::Update(batch) => {
                let before = engine.epoch();
                let (res, us) = timed(|| engine.apply_updates(batch));
                s.update.push(us);
                s.engine.push(us);
                s.epoch_bumps += engine.epoch() - before;
                replays[r.tenant].follow_update(engine.graph(), batch, engine.epoch());
                res.map(Response::Update).unwrap_or_else(Response::Error)
            }
            request => {
                let (response, engine_us) = timed(|| execute(engine, request));
                s.engine.push(engine_us);
                let mut core_us = 0.0;
                if let Some(hit) = cached(&response) {
                    if !matches!(request, Request::Maximize(_)) {
                        s.reads += 1;
                        s.hits += hit as usize;
                    }
                    if !hit {
                        let before = relcomp_obs::sampler_snapshot();
                        let (answer, us) = timed(|| replays[r.tenant].run(request));
                        let after = relcomp_obs::sampler_snapshot();
                        s.packed += after.packed_samples - before.packed_samples;
                        s.scalar += after.scalar_samples - before.scalar_samples;
                        let sessions = |snap: &relcomp_obs::SamplerSnapshot, reason: &str| {
                            snap.sessions
                                .iter()
                                .filter(|(l, _)| reason == "*" || *l == reason)
                                .map(|(_, n)| n)
                                .sum::<u64>()
                        };
                        s.converged +=
                            sessions(&after, "converged") - sessions(&before, "converged");
                        s.adaptive += (sessions(&after, "*") - sessions(&after, "fixed_k"))
                            - (sessions(&before, "*") - sessions(&before, "fixed_k"));
                        let answer =
                            answer.ok_or_else(|| format!("no core call for {}", r.line))?;
                        core_us = us;
                        s.core.entry(answer.span).or_default().push(us / 1e3);
                        s.worlds.push(answer.samples as f64);
                        if answer.packed_path {
                            s.packed_core_ns += us * 1e3;
                            s.packed_worlds += answer.samples as f64;
                        }
                    }
                }
                s.overhead.push(engine_us - core_us);
                response
            }
        };
        if matches!(response, Response::Error(_)) {
            s.failed += 1;
        }
        let (text, us) = timed(|| serde_json::to_string(&response).expect("responses serialize"));
        s.serialize.push(us);
        s.bytes.push(text.len() as f64);
        let ((dispatched, _), us) = timed(|| dispatch_line(&r.line, &b[r.tenant]));
        s.dispatch.push(us);
        if let Ok(other) = serde_json::from_str::<Response>(&dispatched) {
            if answer_bits(&other) != answer_bits(&response) {
                problems.push(format!("engine and dispatch paths disagree on {}", r.line));
            }
        }
        prefix.push(r);
    }
    let replayed = prefix.len();
    for _ in 0..REPS {
        let (_, us) = timed(|| scrape(&a));
        if args.workload != Workload::HotRw {
            s.scrape.push(us);
        }
    }

    // Untimed replay of the same prefix: the price of the spans above.
    let (_, untimed_us) = timed(|| {
        for r in &prefix {
            let _ = dispatch_line(&r.line, &c[r.tenant]);
        }
    });
    let timed_dispatch: f64 = s.dispatch.iter().sum();
    let overhead_share = (timed_dispatch - untimed_us) / untimed_us;

    // Serial pass through a real server: the client-observed time of each
    // request, with the same cache and epoch history as set B.
    let server = e2e::setup(args, &graphs)?;
    let mut conns = Vec::new();
    for tenant in 0..graphs.len() {
        let mut conn = LineConn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
        conn.use_tenant(tenant)?;
        conns.push(conn);
    }
    let mut client_us = Vec::with_capacity(prefix.len());
    for r in &prefix {
        let (reply, us) = timed(|| conns[r.tenant].call(&r.line));
        reply?;
        client_us.push(us);
    }
    ServerProc::shutdown(server);

    // wire = client-observed time minus dispatch_line time of the same
    // request, median over the requests (pairing removes the spread
    // between requests of one class).
    let paired: Vec<f64> = client_us
        .iter()
        .zip(&s.dispatch)
        .map(|(c, d)| c - d)
        .collect();
    let wire = median(&paired);
    let explained: f64 = s.parse.iter().sum::<f64>()
        + s.engine.iter().sum::<f64>()
        + s.serialize.iter().sum::<f64>()
        + (client_us.iter().sum::<f64>() - timed_dispatch);
    let unexplained = 1.0 - explained / client_us.iter().sum::<f64>();

    let props = e2e::properties(prefix.iter());
    let rejected: u64 = a.iter().map(|e| e.stats().rejected).sum();
    let core_ms = |span: &str| s.core.get(span).map_or(0.0, |v| median(v));
    let share = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let values: Vec<f64> = vec![
        median(&load_ms),
        median(&[load_a, load_b, load_c]),
        index_ms,
        index_bytes as f64 / (1024.0 * 1024.0),
        core_ms("core.mc_ms"),
        core_ms("core.bfs_sharing_ms"),
        core_ms("core.probtree_ms"),
        core_ms("core.lp_ms"),
        core_ms("core.rhh_ms"),
        core_ms("core.rss_ms"),
        core_ms("core.topk_ms"),
        core_ms("core.dquery_ms"),
        core_ms("core.maximize_ms"),
        share(s.packed_core_ns, s.packed_worlds),
        mean(&s.worlds),
        share(s.packed as f64, (s.packed + s.scalar) as f64),
        share(s.converged as f64, s.adaptive as f64),
        median(&s.overhead),
        share(s.hits as f64, s.reads as f64),
        share(rejected as f64, replayed as f64),
        median(&s.update),
        s.epoch_bumps as f64,
        median(&s.parse),
        median(&s.serialize),
        mean(&s.bytes),
        median(&s.dispatch),
        wire,
        median(&s.scrape),
        unexplained,
        overhead_share,
        props.requests as f64,
        s.reads as f64,
        s.hits as f64,
        props.writes as f64,
        props.adaptive as f64,
        props.recurring_pairs as f64,
        props.shared_source as f64,
        s.packed as f64,
        s.scalar as f64,
        graphs[0].offspring(),
        graphs.get(1).map_or(0.0, |g| g.offspring()),
    ];
    assert_eq!(values.len(), LAYERS.len(), "one value per layer metric");
    println!(
        "# {} seed {} traced: {} requests replayed in-process and over the wire (nproc {})",
        args.workload.name(),
        args.seed,
        replayed,
        crate::nproc()
    );
    for ((name, unit, moves), v) in LAYERS.iter().zip(&values) {
        println!("{name:<26} {v:>14.4} {unit:<6} -> {moves}");
    }
    for p in problems.iter().take(20) {
        println!("FAILED CHECK: {p}");
    }
    Ok(RunResult {
        correct: problems.is_empty(),
        attempted: replayed,
        failed: s.failed,
        metrics: LAYERS
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), value)| Metric { name, value, unit })
            .collect(),
    })
}
