//! Line-delimited JSON server over `std::net::TcpListener`.
//!
//! Two connection-handling models behind one API:
//!
//! - **Reactor** (Linux, the default): a single event-loop thread drives
//!   every socket through raw `epoll` (`crate::reactor`), re-assembles
//!   request lines from nonblocking reads, and hands them to a small
//!   worker pool. Thousands of idle connections cost one thread.
//! - **Threaded** (fallback everywhere, opt-in via
//!   [`ServerMode::Threaded`]): one OS thread per connection, the
//!   original model. Query answers are bit-identical across both.
//!
//! Every connection is a session against a [`TenantRegistry`] of named
//! resident graphs: it starts pointed at the `default` tenant and can
//! retarget with the `use` verb; `load`/`unload` manage the registry
//! server-wide. Shutdown is cooperative and level-triggered: a
//! `shutdown` request (or [`ShutdownHandle::shutdown`]) flips a flag
//! that both serve loops re-check on every iteration, with an eventfd
//! wakeup (reactor) or a nonblocking-listener downgrade plus poke
//! connection (threaded) so the check happens promptly even when no
//! traffic arrives.

use crate::engine::QueryEngine;
use crate::persist::{self, PersistConfig};
use crate::protocol::{
    MetricsFormat, MetricsReport, ReloadResponse, Request, Response, TraceRow, UseResponse,
};
use crate::tenants::TenantRegistry;
use relcomp_obs::{render_prometheus, MetricsSnapshot, Span, Stage, TraceBuilder};
use relcomp_ugraph::io::load_graph_auto;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How connections are multiplexed onto threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ServerMode {
    /// Reactor on Linux, threaded elsewhere.
    #[default]
    Auto,
    /// The epoll event loop. Falls back to threaded off Linux (or if the
    /// reactor's wakeup fd cannot be created).
    Reactor,
    /// One OS thread per connection.
    Threaded,
}

impl ServerMode {
    /// Parse a CLI-style mode name.
    pub fn parse(name: &str) -> Result<ServerMode, String> {
        match name {
            "auto" => Ok(ServerMode::Auto),
            "reactor" | "epoll" => Ok(ServerMode::Reactor),
            "threaded" | "threads" => Ok(ServerMode::Threaded),
            other => Err(format!(
                "unknown server mode `{other}` (expected auto|reactor|threaded)"
            )),
        }
    }
}

/// Everything configurable about a server beyond its listen address.
#[derive(Clone, Debug, Default)]
pub struct ServerOptions {
    /// Connection-handling model (default: [`ServerMode::Auto`]).
    pub mode: ServerMode,
    /// Reactor worker threads (0 = derive from available parallelism).
    /// Ignored in threaded mode.
    pub workers: usize,
    /// Warm-cache persistence: when set, a background thread flushes
    /// every tenant's result cache to disk and `run` does a final flush
    /// on the way out.
    pub persist: Option<PersistConfig>,
}

/// Server-scoped gauges that no single engine can own.
#[derive(Default)]
pub(crate) struct ServerGauges {
    connections_open: AtomicU64,
}

impl ServerGauges {
    pub(crate) fn note_opened(&self) {
        self.connections_open.fetch_add(1, Ordering::AcqRel);
    }

    pub(crate) fn note_closed(&self, n: u64) {
        self.connections_open.fetch_sub(n, Ordering::AcqRel);
    }

    pub(crate) fn open(&self) -> u64 {
        self.connections_open.load(Ordering::Acquire)
    }
}

/// Shared server state every connection handler needs: the tenant
/// registry plus server-wide gauges.
#[derive(Clone)]
pub(crate) struct ServeCtx {
    pub(crate) tenants: Arc<TenantRegistry>,
    pub(crate) gauges: Arc<ServerGauges>,
}

/// Per-connection state: which tenant this session is pointed at.
pub(crate) struct Session {
    tenant: Mutex<String>,
}

impl Session {
    pub(crate) fn new() -> Session {
        Session {
            tenant: Mutex::new(crate::tenants::DEFAULT_TENANT.to_owned()),
        }
    }

    fn current(&self) -> String {
        self.tenant.lock().expect("session poisoned").clone()
    }

    fn set(&self, name: &str) {
        *self.tenant.lock().expect("session poisoned") = name.to_owned();
    }
}

/// A bound (not yet accepting) query server.
pub struct Server {
    listener: Arc<TcpListener>,
    tenants: Arc<TenantRegistry>,
    options: ServerOptions,
    shutdown: Arc<AtomicBool>,
    gauges: Arc<ServerGauges>,
    #[cfg(target_os = "linux")]
    waker: Option<Arc<crate::reactor::Waker>>,
}

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral port in tests) serving
    /// one engine as the `default` tenant with default options.
    pub fn bind(addr: impl ToSocketAddrs, engine: Arc<QueryEngine>) -> std::io::Result<Server> {
        Server::bind_with(
            addr,
            Arc::new(TenantRegistry::single(engine)),
            ServerOptions::default(),
        )
    }

    /// Bind to `addr` serving a full tenant registry.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        tenants: Arc<TenantRegistry>,
        options: ServerOptions,
    ) -> std::io::Result<Server> {
        Ok(Server {
            listener: Arc::new(TcpListener::bind(addr)?),
            tenants,
            options,
            shutdown: Arc::new(AtomicBool::new(false)),
            gauges: Arc::new(ServerGauges::default()),
            #[cfg(target_os = "linux")]
            waker: crate::reactor::Waker::new().ok().map(Arc::new),
        })
    }

    /// The bound address (resolves the actual port after binding port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The tenant registry this server serves.
    pub fn tenants(&self) -> &Arc<TenantRegistry> {
        &self.tenants
    }

    /// A handle that makes the serve loop exit. Usable from other threads.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            flag: Arc::clone(&self.shutdown),
            addr: self.listener.local_addr().ok(),
            listener: Some(Arc::clone(&self.listener)),
            #[cfg(target_os = "linux")]
            waker: self.waker.clone(),
        }
    }

    /// Serve until shutdown. Starts the warm-cache flusher when
    /// persistence is configured and does a final flush on the way out,
    /// so a restart comes back warm.
    pub fn run(self) -> std::io::Result<()> {
        let ctx = ServeCtx {
            tenants: Arc::clone(&self.tenants),
            gauges: Arc::clone(&self.gauges),
        };
        let flusher = self.options.persist.clone().map(|cfg| {
            let stop = Arc::new(AtomicBool::new(false));
            let handle =
                persist::spawn_flusher(Arc::clone(&self.tenants), cfg.clone(), Arc::clone(&stop));
            (stop, handle, cfg)
        });
        let result = self.serve(ctx);
        if let Some((stop, handle, cfg)) = flusher {
            stop.store(true, Ordering::Release);
            let _ = handle.join();
            persist::flush_all(&self.tenants, &cfg.dir);
        }
        result
    }

    fn serve(&self, ctx: ServeCtx) -> std::io::Result<()> {
        // The reactor needs Linux and its wakeup fd; anything else (or an
        // explicit `Threaded`) runs one thread per connection.
        #[cfg(target_os = "linux")]
        if let (ServerMode::Auto | ServerMode::Reactor, Some(waker)) =
            (self.options.mode, &self.waker)
        {
            let (listener, shutdown) = (Arc::clone(&self.listener), Arc::clone(&self.shutdown));
            let workers = self.resolved_workers();
            return crate::reactor::run(listener, ctx, shutdown, Arc::clone(waker), workers);
        }
        self.run_threaded(ctx)
    }

    #[cfg(target_os = "linux")]
    fn resolved_workers(&self) -> usize {
        if self.options.workers > 0 {
            self.options.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .clamp(2, 8)
        }
    }

    /// Thread-per-connection accept loop. Level-triggered against the
    /// shutdown flag: the flag is re-checked around every accept *and*
    /// whenever accept returns `WouldBlock` (a [`ShutdownHandle`] flips
    /// the listener nonblocking on shutdown), so a poke connection that
    /// gets lost in a full backlog under accept pressure cannot leave
    /// the loop blocked with the flag already set.
    fn run_threaded(&self, ctx: ServeCtx) -> std::io::Result<()> {
        // Live connection threads plus a second handle to each socket.
        // Shutdown closes the read halves so every thread finishes its
        // in-flight request (the response still goes out), hits EOF, and
        // exits; they are all joined before this returns, so the final
        // warm-cache flush in `run` can never race a cache insert still
        // happening on a connection thread.
        let mut live: Vec<(std::thread::JoinHandle<()>, TcpStream)> = Vec::new();
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    live.retain(|(handle, _)| !handle.is_finished());
                    let reader = stream.try_clone().ok();
                    let ctx = ctx.clone();
                    let shutdown = self.shutdown_handle();
                    let handle =
                        std::thread::spawn(move || handle_connection(stream, ctx, shutdown));
                    if let Some(reader) = reader {
                        live.push((handle, reader));
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if self.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Per-connection failures must not kill the server.
                Err(_) => continue,
            }
        }
        // Graceful drain: stop further reads, let in-flight requests
        // answer, and wait for every connection thread to finish.
        for (_, stream) in &live {
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
        for (handle, _) in live {
            let _ = handle.join();
        }
        Ok(())
    }

    /// Start the serve loop on a background thread; returns the bound
    /// address and the thread handle. Convenience for tests and benches.
    pub fn spawn(
        self,
    ) -> std::io::Result<(SocketAddr, std::thread::JoinHandle<std::io::Result<()>>)> {
        let addr = self.local_addr()?;
        let handle = std::thread::spawn(move || self.run());
        Ok((addr, handle))
    }
}

/// Remote control for a running server's serve loop.
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    addr: Option<SocketAddr>,
    listener: Option<Arc<TcpListener>>,
    #[cfg(target_os = "linux")]
    waker: Option<Arc<crate::reactor::Waker>>,
}

impl ShutdownHandle {
    /// Request shutdown and unblock the serve loop.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::Release);
        // Reactor mode: the eventfd interrupts epoll_wait directly.
        #[cfg(target_os = "linux")]
        if let Some(waker) = &self.waker {
            waker.wake();
        }
        // Threaded mode: downgrade the listener to nonblocking so the
        // accept loop can never block again with the flag set (the poke
        // below can be dropped by a full backlog under accept pressure,
        // hence its bounded wait instead of minutes of SYN retries), then
        // poke it so an idle accept wakes immediately.
        if let Some(listener) = &self.listener {
            let _ = listener.set_nonblocking(true);
        }
        if let Some(addr) = self.addr {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
        }
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Serve one connection on its own thread (threaded mode): read request
/// lines, write response lines.
fn handle_connection(stream: TcpStream, ctx: ServeCtx, shutdown: ShutdownHandle) {
    ctx.gauges.note_opened();
    let session = Session::new();
    let Ok(write_half) = stream.try_clone() else {
        ctx.gauges.note_closed(1);
        return;
    };
    let mut writer = std::io::BufWriter::new(write_half);
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let (text, is_bye) = dispatch_session(&line, &ctx, &session);
        if write_line(&mut writer, &text).is_err() {
            break;
        }
        if is_bye {
            shutdown.shutdown();
            break;
        }
    }
    ctx.gauges.note_closed(1);
}

fn write_line<W: Write>(writer: &mut W, text: &str) -> std::io::Result<()> {
    writer.write_all(text.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

fn response_text(response: &Response) -> String {
    serde_json::to_string(response)
        .unwrap_or_else(|e| format!(r#"{{"ok":false,"error":"serialize: {e}"}}"#))
}

/// Traces returned by a `trace` request that does not say how many.
const DEFAULT_TRACE_COUNT: usize = 16;

/// Serve one request line: parse it, let `route` answer it, serialize the
/// answer. `route` returns the engine that ran a query workload, if any;
/// that engine records the request's stage trace, which then also covers
/// `parse` and `serialize`, the two wire stages only this layer can see.
/// Returns the serialized response plus whether it acknowledged a
/// shutdown.
fn serve_line<E: Deref<Target = QueryEngine>>(
    line: &str,
    route: impl FnOnce(Request, &mut TraceBuilder) -> (Response, Option<E>),
) -> (String, bool) {
    let mut tb = TraceBuilder::new();
    let parsed: Result<Request, _> = {
        let _span = Span::enter(&mut tb, Stage::Parse);
        serde_json::from_str(line)
    };
    // Malformed lines carry no workload to attribute a trace to.
    let (response, traced) = match parsed {
        Ok(request) => route(request, &mut tb),
        Err(e) => (Response::Error(format!("bad request: {e}")), None),
    };
    let is_bye = matches!(response, Response::Bye);
    let text = {
        let _span = Span::enter(&mut tb, Stage::Serialize);
        response_text(&response)
    };
    if let Some(engine) = traced {
        engine.record_trace(tb);
    }
    (text, is_bye)
}

/// Serve one request line end to end against a single engine — parse,
/// execute, serialize — and return the serialized response plus whether
/// it acknowledged a shutdown. Query workloads record a stage trace.
///
/// Tenancy verbs error here; connection handlers route through
/// `dispatch_session`, which resolves them against the registry.
pub fn dispatch_line(line: &str, engine: &QueryEngine) -> (String, bool) {
    serve_line(line, |request, tb| serve_request(request, engine, tb))
}

/// Serve one request line for a connection session: tenancy verbs and
/// `metrics` resolve against the registry, everything else against the
/// session's current tenant. This is the dispatch path both connection
/// models use, so answers are identical across reactor and threaded.
pub(crate) fn dispatch_session(line: &str, ctx: &ServeCtx, session: &Session) -> (String, bool) {
    serve_line(line, |request, tb| {
        let response = match request {
            Request::LoadGraph { name, path, quota } => ctx
                .tenants
                .load(&name, &path, quota)
                .map_or_else(Response::Error, Response::Loaded),
            Request::UnloadGraph { name } => ctx
                .tenants
                .unload(&name)
                .map_or_else(Response::Error, |()| Response::Unloaded { name }),
            Request::UseGraph { name } => match ctx.tenants.get(&name) {
                Some(engine) => {
                    session.set(&name);
                    Response::Using(UseResponse {
                        epoch: engine.epoch(),
                        nodes: engine.graph().num_nodes(),
                        edges: engine.graph().num_edges(),
                        name,
                    })
                }
                None => Response::Error(format!("graph `{name}` is not loaded")),
            },
            // Metrics aggregate over every tenant (labelled per graph)
            // plus the server-scoped gauges no single engine can see.
            Request::Metrics { format } => metrics_response(format, &server_metrics(ctx)),
            other => {
                let tenant = session.current();
                let Some(engine) = ctx.tenants.get(&tenant) else {
                    let hint = "(`load` it again or `use` another)";
                    let error = format!("graph `{tenant}` is not loaded {hint}");
                    return (Response::Error(error), None);
                };
                // Query workloads trace into the tenant that ran them.
                let (response, traced) = serve_request(other, &engine, tb);
                return (response, traced.map(|_| Arc::clone(&engine)));
            }
        };
        (response, None)
    })
}

/// Aggregate metrics across every tenant, labelling each sample with its
/// graph name, plus server-scoped reactor gauges.
fn server_metrics(ctx: &ServeCtx) -> MetricsSnapshot {
    let mut merged = MetricsSnapshot::default();
    for (name, engine) in ctx.tenants.snapshot() {
        let snap = engine.metrics();
        for mut c in snap.counters {
            c.labels.insert(0, ("graph", name.clone()));
            merged.counters.push(c);
        }
        for mut g in snap.gauges {
            g.labels.insert(0, ("graph", name.clone()));
            merged.gauges.push(g);
        }
        for mut h in snap.histograms {
            h.labels.insert(0, ("graph", name.clone()));
            merged.histograms.push(h);
        }
    }
    merged.gauge("relcomp_tenants", Vec::new(), ctx.tenants.len() as u64);
    merged.gauge("relcomp_connections_open", Vec::new(), ctx.gauges.open());
    merged
}

fn metrics_response(format: MetricsFormat, snap: &MetricsSnapshot) -> Response {
    match format {
        MetricsFormat::Json => Response::Metrics(MetricsReport::from(snap)),
        MetricsFormat::Prom => Response::MetricsText(render_prometheus(snap)),
    }
}

/// Run one parsed request against the engine. Query workloads run
/// through the engine's traced pipeline and hand back the engine, which
/// records the trace; every other verb is answered untraced.
fn serve_request<'e>(
    request: Request,
    engine: &'e QueryEngine,
    tb: &mut TraceBuilder,
) -> (Response, Option<&'e QueryEngine>) {
    let response = match request {
        Request::Query(_) | Request::TopK(_) | Request::DQuery(_) | Request::Maximize(_) => {
            return (engine.execute_request(&request, tb), Some(engine));
        }
        Request::Ping => Response::Pong,
        Request::Batch(queries) => engine
            .execute_batch(&queries)
            .map_or_else(Response::Error, Response::Batch),
        Request::Update(updates) => engine
            .apply_updates(&updates)
            .map_or_else(Response::Error, Response::Update),
        Request::Reload { path } => {
            reload_from(path, engine).map_or_else(Response::Error, Response::Reload)
        }
        Request::Stats => Response::Stats(engine.stats()),
        Request::Metrics { format } => metrics_response(format, &engine.metrics()),
        Request::Trace { n } => Response::Traces(
            engine
                .traces(n.unwrap_or(DEFAULT_TRACE_COUNT))
                .iter()
                .map(TraceRow::from)
                .collect(),
        ),
        // Tenancy verbs only make sense against a registry; a bare
        // engine dispatch (tests, embedding) has none.
        Request::LoadGraph { .. } | Request::UnloadGraph { .. } | Request::UseGraph { .. } => {
            Response::Error(
                "tenancy verbs (load/unload/use) need a server connection, not a bare engine"
                    .to_owned(),
            )
        }
        Request::Shutdown => Response::Bye,
    };
    (response, None)
}

/// Load a graph file (format sniffed from its magic bytes — v2 binary,
/// v1 binary, or text) and swap it into the engine. Without an explicit
/// `path`, re-reads the file the server was started from. Records the
/// load path (mmap vs heap) and latency so `stats`/`metrics` reflect
/// how the served graph got into memory.
fn reload_from(path: Option<String>, engine: &QueryEngine) -> Result<ReloadResponse, String> {
    let path = path.or_else(|| engine.source()).ok_or_else(|| {
        "reload needs a `path` (this server was not started from a graph file)".to_owned()
    })?;
    let start = std::time::Instant::now();
    let (graph, report) =
        load_graph_auto(&path).map_err(|e| format!("cannot load `{path}`: {e}"))?;
    let micros = start.elapsed().as_micros() as u64;
    let resp = engine.reload_graph(std::sync::Arc::new(graph));
    engine.record_load(report.mmapped, micros);
    engine.set_source(path);
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use relcomp_ugraph::{write_graph_v2, GraphBuilder, NodeId};

    fn engine() -> Arc<QueryEngine> {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.9).unwrap();
        Arc::new(QueryEngine::new(
            Arc::new(b.build()),
            EngineConfig {
                threads: 2,
                ..Default::default()
            },
        ))
    }

    fn ctx() -> ServeCtx {
        ServeCtx {
            tenants: Arc::new(TenantRegistry::single(engine())),
            gauges: Arc::new(ServerGauges::default()),
        }
    }

    /// Serve `line` through [`dispatch_line`] and parse the answer back.
    fn roundtrip(line: &str, engine: &QueryEngine) -> Response {
        serde_json::from_str(&dispatch_line(line, engine).0).expect("response line parses")
    }

    #[test]
    fn dispatch_covers_update_and_reload() {
        let e = engine();
        assert!(matches!(
            roundtrip(
                r#"{"cmd":"update","updates":[{"s":0,"t":1,"prob":0.4}]}"#,
                &e
            ),
            Response::Update(_)
        ));
        assert_eq!(e.epoch(), 1);
        // Unknown edge: error, no epoch bump.
        assert!(matches!(
            roundtrip(
                r#"{"cmd":"update","updates":[{"s":2,"t":0,"prob":0.4}]}"#,
                &e
            ),
            Response::Error(_)
        ));
        assert_eq!(e.epoch(), 1);
        // Reload without a recorded source file fails cleanly.
        assert!(matches!(
            roundtrip(r#"{"cmd":"reload"}"#, &e),
            Response::Error(_)
        ));
        // Reload from an explicit (missing) path fails cleanly too.
        assert!(matches!(
            roundtrip(r#"{"cmd":"reload","path":"/nonexistent.ug"}"#, &e),
            Response::Error(_)
        ));
    }

    #[test]
    fn dispatch_covers_every_command() {
        let e = engine();
        assert_eq!(roundtrip(r#"{"cmd":"ping"}"#, &e), Response::Pong);
        assert!(matches!(
            roundtrip(r#"{"cmd":"query","s":0,"t":2,"samples":500,"seed":1}"#, &e),
            Response::Query(_)
        ));
        assert!(matches!(
            roundtrip(
                r#"{"cmd":"batch","queries":[{"s":0,"t":1},{"s":0,"t":2}]}"#,
                &e
            ),
            Response::Batch(_)
        ));
        assert!(matches!(
            roundtrip(r#"{"cmd":"topk","s":0,"k":2,"samples":500,"seed":1}"#, &e),
            Response::TopK(_)
        ));
        assert!(matches!(
            roundtrip(r#"{"cmd":"dquery","s":0,"t":2,"d":2,"samples":500}"#, &e),
            Response::DQuery(_)
        ));
        // `dquery` without the required hop bound is a parse error.
        assert!(matches!(
            roundtrip(r#"{"cmd":"dquery","s":0,"t":2}"#, &e),
            Response::Error(_)
        ));
        assert!(matches!(
            roundtrip(r#"{"cmd":"stats"}"#, &e),
            Response::Stats(_)
        ));
        // Tenancy verbs only work through a session dispatch; a bare
        // engine answers with a pointer, not a panic.
        assert!(matches!(
            roundtrip(r#"{"cmd":"use","name":"other"}"#, &e),
            Response::Error(_)
        ));
        assert!(matches!(
            roundtrip(r#"{"cmd":"load","name":"g","path":"/tmp/x.ug2"}"#, &e),
            Response::Error(_)
        ));
        assert!(matches!(
            roundtrip(r#"{"cmd":"unload","name":"g"}"#, &e),
            Response::Error(_)
        ));
        assert_eq!(roundtrip(r#"{"cmd":"shutdown"}"#, &e), Response::Bye);
        assert!(matches!(roundtrip("garbage", &e), Response::Error(_)));
        assert!(matches!(
            roundtrip(r#"{"cmd":"query","s":0,"t":77}"#, &e),
            Response::Error(_)
        ));
    }

    #[test]
    fn dispatch_covers_metrics_and_trace() {
        let e = engine();
        assert!(matches!(
            roundtrip(r#"{"cmd":"query","s":0,"t":2,"samples":500,"seed":1}"#, &e),
            Response::Query(_)
        ));
        let Response::Metrics(report) = roundtrip(r#"{"cmd":"metrics"}"#, &e) else {
            panic!("expected metrics response");
        };
        assert_eq!(report.queries_total, 1);
        assert!(report
            .histogram("relcomp_query_latency_micros", &[("workload", "st")])
            .is_some());
        let Response::MetricsText(text) = roundtrip(r#"{"cmd":"metrics","format":"prom"}"#, &e)
        else {
            panic!("expected prometheus text response");
        };
        assert!(text.contains("# TYPE relcomp_queries_total counter"));
        let Response::Traces(traces) = roundtrip(r#"{"cmd":"trace","last":5}"#, &e) else {
            panic!("expected trace response");
        };
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].workload, "st");
        assert!(matches!(
            roundtrip(r#"{"cmd":"metrics","format":"xml"}"#, &e),
            Response::Error(_)
        ));
    }

    /// `relcomp_queries_total{workload, outcome}` as the engine exports it.
    fn queries_total(e: &QueryEngine, workload: &str, outcome: &str) -> u64 {
        let labels = [("workload", workload), ("outcome", outcome)];
        e.metrics()
            .counters
            .iter()
            .find(|c| {
                c.name == "relcomp_queries_total"
                    && labels
                        .iter()
                        .all(|(k, v)| c.labels.iter().any(|(lk, lv)| lk == k && lv == v))
            })
            .map_or(0, |c| c.value)
    }

    fn response_micros(text: &str) -> u64 {
        match serde_json::from_str::<Response>(text).unwrap() {
            Response::Query(r) => r.micros,
            Response::TopK(r) => r.micros,
            Response::DQuery(r) => r.micros,
            Response::Maximize(r) => r.micros,
            other => panic!("expected a workload answer, got {other:?}"),
        }
    }

    #[test]
    fn dispatch_line_traces_wire_stages() {
        // (workload label, answerable request, validation error,
        // admission rejection) per workload verb.
        let table = [
            (
                "st",
                r#"{"cmd":"query","s":0,"t":2,"estimator":"auto","samples":500,"seed":1}"#,
                r#"{"cmd":"query","s":0,"t":77}"#,
                r#"{"cmd":"query","s":0,"t":2,"samples":5000000}"#,
            ),
            (
                "topk",
                r#"{"cmd":"topk","s":0,"k":2,"samples":500,"seed":1}"#,
                r#"{"cmd":"topk","s":0,"k":0}"#,
                r#"{"cmd":"topk","s":0,"samples":5000000}"#,
            ),
            (
                "dquery",
                r#"{"cmd":"dquery","s":0,"t":2,"d":2,"samples":500,"seed":1}"#,
                r#"{"cmd":"dquery","s":77,"t":2,"d":2}"#,
                r#"{"cmd":"dquery","s":0,"t":2,"d":2,"samples":5000000}"#,
            ),
            (
                "maximize",
                r#"{"cmd":"maximize","s":0,"t":2,"k":1,"boost":0.95,"samples":500,"seed":1}"#,
                r#"{"cmd":"maximize","s":0,"t":2,"boost":1.5}"#,
                r#"{"cmd":"maximize","s":0,"t":2,"candidates":100000}"#,
            ),
        ];
        let e = engine();
        for (workload, answerable, invalid, rejected) in table {
            let runs = [
                (answerable, "miss"),
                (answerable, "hit"),
                (invalid, "error"),
                (rejected, "rejected"),
            ];
            for (line, outcome) in runs {
                let ok = matches!(outcome, "miss" | "hit");
                let before = queries_total(&e, workload, outcome);
                let (text, bye) = dispatch_line(line, &e);
                assert!(!bye, "{line}");
                assert_eq!(queries_total(&e, workload, outcome), before + 1, "{line}");

                let trace = &e.traces(1)[0];
                assert_eq!(trace.workload, workload, "{line}");
                assert_eq!((trace.ok, trace.cached), (ok, outcome == "hit"), "{line}");
                let has = |stage: &str| trace.stages.iter().any(|s| s.stage.label() == stage);
                for stage in ["parse", "plan", "serialize"] {
                    assert!(has(stage), "{line}: no {stage} stage");
                }
                assert_eq!(has("sample"), outcome == "miss", "{line}");
                if ok {
                    // The wire latency covers every pipeline stage,
                    // planning included.
                    let pipeline: u64 = trace
                        .stages
                        .iter()
                        .filter(|s| {
                            matches!(
                                s.stage.label(),
                                "plan" | "cache_lookup" | "sample" | "convergence_check"
                            )
                        })
                        .map(|s| s.nanos)
                        .sum();
                    let micros = response_micros(&text);
                    assert!(
                        (micros + 1) * 1000 >= pipeline,
                        "{line}: {micros} us < {pipeline} ns"
                    );
                }
            }
        }

        // Non-query verbs serve without recording traces.
        let traced = e.traces(64).len();
        let (text, bye) = dispatch_line(r#"{"cmd":"stats"}"#, &e);
        assert!(!bye && text.contains(r#""kind":"stats""#));
        assert_eq!(e.traces(64).len(), traced);

        let (text, bye) = dispatch_line(r#"{"cmd":"shutdown"}"#, &e);
        assert!(bye && text.contains(r#""kind":"bye""#));
        let (text, bye) = dispatch_line("garbage", &e);
        assert!(!bye && text.contains("bad request"));
    }

    #[test]
    fn session_dispatch_answers_like_engine_dispatch() {
        let c = ctx();
        let s = Session::new();
        let q = r#"{"cmd":"query","s":0,"t":2,"samples":500,"seed":1}"#;
        let (session_text, _) = dispatch_session(q, &c, &s);
        let (engine_text, _) = dispatch_line(q, &engine());
        // Bit-identical reliability regardless of dispatch path: the
        // session layer only routes, it never touches the math.
        let parse = |t: &str| -> f64 {
            match serde_json::from_str::<Response>(t).unwrap() {
                Response::Query(q) => q.reliability,
                other => panic!("expected query answer, got {other:?}"),
            }
        };
        assert_eq!(
            parse(&session_text).to_bits(),
            parse(&engine_text).to_bits()
        );
    }

    #[test]
    fn session_dispatch_runs_the_tenant_lifecycle() {
        let dir = std::env::temp_dir().join("relcomp_serve_session_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("alt.ug2");
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        write_graph_v2(&b.build(), &path).unwrap();

        let c = ctx();
        let s = Session::new();

        // Load a second tenant, point the session at it, query it.
        let (text, _) = dispatch_session(
            &format!(
                r#"{{"cmd":"load","name":"alt","path":"{}"}}"#,
                path.display()
            ),
            &c,
            &s,
        );
        assert!(text.contains(r#""kind":"loaded""#), "{text}");
        assert_eq!(c.tenants.len(), 2);
        let (text, _) = dispatch_session(r#"{"cmd":"use","name":"alt"}"#, &c, &s);
        assert!(text.contains(r#""kind":"using""#), "{text}");
        let (text, _) = dispatch_session(
            r#"{"cmd":"query","s":0,"t":1,"samples":400,"seed":7}"#,
            &c,
            &s,
        );
        assert!(text.contains(r#""kind":"query""#), "{text}");

        // Metrics are labelled per graph and carry the server gauges.
        // (The prom text arrives JSON-escaped inside the response line.)
        let (text, _) = dispatch_session(r#"{"cmd":"metrics","format":"prom"}"#, &c, &s);
        assert!(text.contains(r#"graph=\"alt\""#), "{text}");
        assert!(text.contains(r#"graph=\"default\""#), "{text}");
        assert!(text.contains("relcomp_tenants 2"), "{text}");
        assert!(text.contains("relcomp_connections_open"), "{text}");

        // Unload the tenant the session points at: later queries error
        // with a recovery hint instead of panicking or misrouting.
        let (text, _) = dispatch_session(r#"{"cmd":"unload","name":"alt"}"#, &c, &s);
        assert!(text.contains(r#""kind":"unloaded""#), "{text}");
        let (text, _) = dispatch_session(r#"{"cmd":"query","s":0,"t":1}"#, &c, &s);
        assert!(text.contains("not loaded"), "{text}");
        // `use` back to the default tenant recovers the session.
        let (text, _) = dispatch_session(r#"{"cmd":"use","name":"default"}"#, &c, &s);
        assert!(text.contains(r#""kind":"using""#), "{text}");

        // Unknown tenants can't be used or unloaded.
        let (text, _) = dispatch_session(r#"{"cmd":"use","name":"ghost"}"#, &c, &s);
        assert!(text.contains("not loaded"), "{text}");
        let (text, _) = dispatch_session(r#"{"cmd":"unload","name":"ghost"}"#, &c, &s);
        assert!(text.contains("not loaded"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reload_reports_load_path_and_latency() {
        let dir = std::env::temp_dir().join("relcomp_serve_reload_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("graph.ug2");

        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 0.8).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.8).unwrap();
        relcomp_ugraph::write_graph_v2(&b.build(), &path).unwrap();

        let e = engine();
        // Nothing loaded from disk yet: stats report no load path.
        let before = e.stats();
        assert_eq!(before.load_path, "");
        assert_eq!(before.load_micros, 0);

        let req = format!(r#"{{"cmd":"reload","path":"{}"}}"#, path.display());
        assert!(matches!(roundtrip(&req, &e), Response::Reload(_)));

        let after = e.stats();
        let expect = if cfg!(all(unix, target_endian = "little")) {
            "mmap"
        } else {
            "heap"
        };
        assert_eq!(after.load_path, expect);
        assert!(after.load_micros > 0);
        let metrics = e.metrics();
        assert!(metrics.gauges.iter().any(|g| {
            g.name == "relcomp_graph_load_micros"
                && g.labels.iter().any(|(k, v)| *k == "path" && v == expect)
        }));
        std::fs::remove_file(&path).ok();
    }
}
