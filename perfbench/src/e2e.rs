//! The end-to-end run: set up a real `relcomp serve` process several
//! times (timing each), drive the last one for `--seconds` from one client
//! process with tracing off, then check every response.

use crate::check::{self, Checked};
use crate::client::{self, LineConn, Outcome};
use crate::inputs::{self, GraphInput};
use crate::requests::{self, ColdStream, HotInputs, Req, DENSE_MIX, SPARSE_MIX};
use crate::server::ServerProc;
use crate::stats::{median, percentile};
use crate::{nproc, Args, Metric, RunResult, Workload};
use relcomp_serve::protocol::{MetricsReport, Response};
use std::collections::{BTreeMap, HashSet};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Server set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Pipelined requests each closed-loop connection keeps outstanding.
pub const WINDOW: usize = 2;
/// `hot-rw` open-loop rate, requests per second.
pub const HOT_RATE: f64 = 400.0;
/// `hot-rw` runs this long before `--seconds` of measurement, so the result
/// cache has filled: its requests are checked but not measured.
pub const HOT_WARMUP: Duration = Duration::from_secs(3);
/// Latency samples per p99 window: at least ten lie beyond each window's p99.
const P99_WINDOW: usize = 1000;
/// An open-loop run is invalid if the generator fell behind: more than 1%
/// of its requests went out later than this after they were due. (A few
/// milliseconds of jitter are normal when the client shares a small
/// machine with the server; a backlog grows far past this.)
const MAX_LATE_P99: Duration = Duration::from_millis(25);

/// Prepare every graph of the workload (generated and cached on first use).
pub fn prepare(workload: Workload) -> Result<Vec<GraphInput>, String> {
    workload
        .graphs()
        .into_iter()
        .map(|spec| inputs::prepare(spec, nproc()))
        .collect()
}

/// Spawn the server and bring it to ready: tenant 0's graph loaded, the
/// second tenant loaded with `load`, one warm-up query per resident
/// estimator (building its index), and a `ping` answered.
pub fn setup(args: &Args, graphs: &[GraphInput]) -> Result<ServerProc, String> {
    let server = ServerProc::spawn(&args.server, &graphs[0].path)?;
    let mut ctl = LineConn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    for (tenant, g) in graphs.iter().enumerate().skip(1) {
        let reply = ctl.call(&format!(
            r#"{{"cmd":"load","name":"{}","path":"{}"}}"#,
            requests::TENANTS[tenant],
            g.path.display()
        ))?;
        if !reply.contains(r#""kind":"loaded""#) {
            return Err(format!("load tenant {tenant}: {reply}"));
        }
    }
    for (tenant, estimator) in args.workload.residents() {
        let mut conn = LineConn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
        conn.use_tenant(tenant)?;
        let (s, t) = graphs[tenant].pool[0];
        let reply = conn.call(&format!(
            r#"{{"cmd":"query","s":{},"t":{},"estimator":"{estimator}","samples":64,"seed":1}}"#,
            s.0, t.0
        ))?;
        if !reply.contains(r#""kind":"query""#) {
            return Err(format!("warm-up {estimator}: {reply}"));
        }
    }
    let reply = ctl.call(r#"{"cmd":"ping"}"#)?;
    if !reply.contains("pong") {
        return Err(format!("ping: {reply}"));
    }
    Ok(server)
}

/// The closed-loop stream of a cold workload.
pub fn cold_stream(args: &Args, graphs: &[GraphInput]) -> ColdStream {
    let mix = match args.workload {
        Workload::ColdDense => DENSE_MIX,
        _ => SPARSE_MIX,
    };
    ColdStream::new(args.seed, mix, pairs(&graphs[0]))
}

fn pairs(g: &GraphInput) -> Vec<(u32, u32)> {
    g.pool.iter().map(|&(s, t)| (s.0, t.0)).collect()
}

/// The open-loop schedule of `hot-rw` at `rate` for `seconds`.
pub fn hot_schedule(
    args: &Args,
    graphs: &[GraphInput],
    rate: f64,
    seconds: f64,
) -> Vec<requests::Scheduled> {
    let (p0, p1) = (pairs(&graphs[0]), pairs(&graphs[1]));
    let edges: Vec<(u32, u32)> = graphs[1]
        .graph
        .edges()
        .map(|(_, u, v, _)| (u.0, v.0))
        .collect();
    let inputs = HotInputs {
        pools: [&p0, &p1],
        hop2: graphs[0].spec.pairs_per_hop.min(p0.len()),
        hep_edges: &edges,
    };
    requests::hot_schedule(args.seed, &inputs, rate, seconds)
}

/// Workload properties as counts, so a later claim can quote its share.
pub struct Properties {
    pub requests: usize,
    pub writes: usize,
    pub adaptive: usize,
    /// Requests whose `(tenant, s, t)` appeared earlier in the run.
    pub recurring_pairs: usize,
    /// Requests whose `(tenant, s)` appeared earlier in the run.
    pub shared_source: usize,
}

pub fn properties<'a>(reqs: impl Iterator<Item = &'a Req>) -> Properties {
    let mut p = Properties {
        requests: 0,
        writes: 0,
        adaptive: 0,
        recurring_pairs: 0,
        shared_source: 0,
    };
    let mut pairs_seen = HashSet::new();
    let mut sources_seen = HashSet::new();
    for r in reqs {
        p.requests += 1;
        p.writes += r.is_write() as usize;
        p.adaptive += r.is_adaptive() as usize;
        if let Some((s, t)) = r.pair() {
            p.recurring_pairs += !pairs_seen.insert((r.tenant, s, t)) as usize;
            p.shared_source += !sources_seen.insert((r.tenant, s)) as usize;
        }
    }
    p
}

/// Process-wide sampler counters of the server, from `metrics`.
#[derive(Clone, Copy)]
struct SamplerCounts {
    packed: u64,
    scalar: u64,
    converged: u64,
    adaptive: u64,
}

fn sampler_counters(server: &ServerProc) -> Result<SamplerCounts, String> {
    let mut conn = LineConn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    let report: MetricsReport = match serde_json::from_str(&conn.call(r#"{"cmd":"metrics"}"#)?) {
        Ok(Response::Metrics(m)) => m,
        other => return Err(format!("metrics: {other:?}")),
    };
    // The counters are process-wide; every tenant repeats them under its
    // own `graph` label, so read the default tenant's copy.
    let total = |name: &str, label: &str, value: &str| -> u64 {
        report
            .counters
            .iter()
            .filter(|c| c.name == name)
            .filter(|c| c.labels.iter().any(|(k, v)| k == "graph" && v == "default"))
            .filter(|c| value == "*" || c.labels.iter().any(|(k, v)| k == label && v == value))
            .map(|c| c.value)
            .sum()
    };
    let sessions = |reason| total("relcomp_sessions_total", "stop_reason", reason);
    Ok(SamplerCounts {
        packed: total("relcomp_samples_total", "path", "packed"),
        scalar: total("relcomp_samples_total", "path", "scalar"),
        converged: sessions("converged"),
        adaptive: sessions("*") - sessions("fixed_k"),
    })
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let graphs = prepare(args.workload)?;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = server.take() {
            ServerProc::shutdown(previous);
        }
        let start = Instant::now();
        server = Some(setup(args, &graphs)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up");
    let before = sampler_counters(&server)?;
    let conns = nproc();
    let (outcomes, elapsed, late) = match args.workload {
        Workload::HotRw => {
            let total = HOT_WARMUP.as_secs_f64() + args.seconds;
            let schedule = hot_schedule(args, &graphs, HOT_RATE, total);
            let (outcomes, elapsed) =
                client::open_loop(server.addr, &schedule, conns.max(2), HOT_WARMUP)?;
            let late: Vec<f64> = outcomes
                .iter()
                .filter(|o| o.response.is_some() && !o.warmup)
                .map(|o| o.late.as_secs_f64() * 1e3)
                .collect();
            (outcomes, elapsed.saturating_sub(HOT_WARMUP), Some(late))
        }
        _ => {
            let stream = Mutex::new(cold_stream(args, &graphs));
            let (outcomes, elapsed) =
                client::closed_loop(server.addr, conns, WINDOW, &stream, args.seconds)?;
            (outcomes, elapsed, None)
        }
    };
    let rss_mb = server.peak_rss_mb()?;
    let after = sampler_counters(&server)?;
    ServerProc::shutdown(server);

    let graph_refs: Vec<&GraphInput> = graphs.iter().collect();
    let checked = check::check(&outcomes, &graph_refs);
    let props = properties(outcomes.iter().map(|o| &o.req));
    // Every outcome is checked; the measured ones exclude the warm-up.
    let measured: Vec<Outcome> = outcomes.iter().filter(|o| !o.warmup).cloned().collect();
    let latencies: Vec<f64> = measured
        .iter()
        .map(|o| o.latency.as_secs_f64() * 1e3)
        .collect();
    let p99 = windowed_p99(&measured);
    let answered = checked.attempted - checked.failed;
    let measured_answered = measured.iter().filter(|o| o.response.is_some()).count();
    let mut problems = checked.problems.clone();
    if checked.rel_err_n == 0 {
        problems.push("no served s-t answer has a reference >= 0.01".into());
    }
    if let Some(late) = &late {
        let p99 = percentile(late, 99.0);
        if p99 > MAX_LATE_P99.as_secs_f64() * 1e3 {
            problems.push(format!(
                "invalid run: the generator fell behind (p99 send lateness {p99:.2} ms)"
            ));
        }
    }

    print_report(
        args,
        &graphs,
        &measured,
        &checked,
        &props,
        (before, after),
        late.as_deref(),
        &setups,
    );
    for p in problems.iter().take(20) {
        println!("FAILED CHECK: {p}");
    }
    Ok(RunResult {
        correct: problems.is_empty(),
        attempted: checked.attempted,
        failed: checked.failed,
        metrics: vec![
            Metric {
                name: "setup_s",
                value: median(&setups),
                unit: "s",
            },
            Metric {
                name: "qps",
                value: measured_answered as f64 / elapsed.as_secs_f64(),
                unit: "1/s",
            },
            Metric {
                name: "p50_ms",
                value: percentile(&latencies, 50.0),
                unit: "ms",
            },
            Metric {
                name: "p99_ms",
                value: p99,
                unit: "ms",
            },
            Metric {
                name: "ok_share",
                value: answered as f64 / checked.attempted.max(1) as f64,
                unit: "share",
            },
            Metric {
                name: "rel_err",
                value: checked.rel_err,
                unit: "share",
            },
            Metric {
                name: "rss_mb",
                value: rss_mb,
                unit: "MiB",
            },
        ],
    })
}

/// p99 latency in ms, as the median over consecutive windows of at least
/// [`P99_WINDOW`] requests (in completion order): one burst of slow
/// requests then moves one window's p99, not the run's figure. A run with
/// fewer than two windows' worth of requests reports its plain p99.
fn windowed_p99(outcomes: &[Outcome]) -> f64 {
    let mut by_done: Vec<&Outcome> = outcomes.iter().collect();
    by_done.sort_by_key(|o| o.done);
    let windows = (by_done.len() / P99_WINDOW).max(1);
    let size = by_done.len().div_ceil(windows);
    let p99s: Vec<f64> = by_done
        .chunks(size)
        .map(|w| {
            let lat: Vec<f64> = w.iter().map(|o| o.latency.as_secs_f64() * 1e3).collect();
            percentile(&lat, 99.0)
        })
        .collect();
    median(&p99s)
}

#[allow(clippy::too_many_arguments)]
fn print_report(
    args: &Args,
    graphs: &[GraphInput],
    outcomes: &[Outcome],
    checked: &Checked,
    props: &Properties,
    (before, after): (SamplerCounts, SamplerCounts),
    late: Option<&[f64]>,
    setups: &[f64],
) {
    println!(
        "# {} seed {} ({} s, nproc {}): {} requests, {} failed, {} checked bit-identical",
        args.workload.name(),
        args.seed,
        args.seconds,
        nproc(),
        checked.attempted,
        checked.failed,
        checked.determinism_checked
    );
    println!(
        "# set-ups (s): {}",
        setups
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let mut classes: Vec<&str> = outcomes.iter().map(|o| o.req.class).collect();
    classes.sort_unstable();
    classes.dedup();
    for class in classes {
        let lat: Vec<f64> = outcomes
            .iter()
            .filter(|o| o.req.class == class)
            .map(|o| o.latency.as_secs_f64() * 1e3)
            .collect();
        println!(
            "#   {class:<12} n {:>6}  p50 {:>9.3} ms  p99 {:>9.3} ms",
            lat.len(),
            percentile(&lat, 50.0),
            percentile(&lat, 99.0)
        );
    }
    let mut slowest: Vec<&Outcome> = outcomes.iter().collect();
    slowest.sort_by_key(|o| std::cmp::Reverse(o.latency));
    let mut tail: BTreeMap<&str, usize> = BTreeMap::new();
    for o in &slowest[..outcomes.len() / 100] {
        *tail.entry(o.req.class).or_default() += 1;
    }
    let tail: Vec<String> = tail.iter().map(|(c, n)| format!("{c} {n}")).collect();
    println!("# slowest 1% by class: {}", tail.join(", "));
    println!(
        "# latency samples {} (p99: median over {} windows, each with {}+ beyond its p99); \
         rel_err over {} distinct answers",
        outcomes.len(),
        (outcomes.len() / P99_WINDOW).max(1),
        outcomes.len() / (outcomes.len() / P99_WINDOW).max(1) / 100,
        checked.rel_err_n
    );
    println!(
        "# properties (counts): cache hits {}/{} reads, writes {}/{}, adaptive {}/{}, \
         recurring (s,t) {}/{}, shared source {}/{}",
        checked.hits,
        checked.reads,
        props.writes,
        props.requests,
        props.adaptive,
        props.requests,
        props.recurring_pairs,
        props.requests,
        props.shared_source,
        props.requests
    );
    println!(
        "# sampler (counts, measured phase): packed worlds {}, scalar worlds {}, adaptive sessions {} converged of {}",
        after.packed - before.packed,
        after.scalar - before.scalar,
        after.converged - before.converged,
        after.adaptive - before.adaptive
    );
    for (tenant, g) in graphs.iter().enumerate() {
        println!(
            "# graph {} ({}): {} nodes, {} edges, sum p / n = {:.4}",
            requests::TENANTS[tenant],
            g.spec.name,
            g.graph.num_nodes(),
            g.graph.num_edges(),
            g.offspring()
        );
    }
    if let Some(late) = late {
        println!(
            "# open loop at {HOT_RATE} req/s: generator send lateness p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
            percentile(late, 50.0),
            percentile(late, 99.0),
            percentile(late, 100.0)
        );
    }
}
