//! End-to-end test of the query service over a real TCP socket:
//! server + engine + protocol + client, exercised the way `relcomp serve`
//! wires them.

use relcomp_serve::engine::{EngineConfig, QueryEngine};
use relcomp_serve::protocol::{DistanceQueryRequest, EdgeProbUpdate, QueryRequest, TopKRequest};
use relcomp_serve::{Client, PersistConfig, Server, ServerMode, ServerOptions, TenantRegistry};
use relcomp_ugraph::{write_graph_v2, Dataset, GraphBuilder, NodeId, UncertainGraph};
use std::sync::Arc;
use std::time::Duration;

fn diamond() -> UncertainGraph {
    let mut b = GraphBuilder::new(4);
    b.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
    b.add_edge(NodeId(0), NodeId(2), 0.6).unwrap();
    b.add_edge(NodeId(1), NodeId(3), 0.7).unwrap();
    b.add_edge(NodeId(2), NodeId(3), 0.4).unwrap();
    b.build()
}

fn start(graph: UncertainGraph, threads: usize) -> (std::net::SocketAddr, Arc<QueryEngine>) {
    let engine = Arc::new(QueryEngine::new(
        Arc::new(graph),
        EngineConfig {
            threads,
            ..Default::default()
        },
    ));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&engine)).expect("bind");
    let (addr, _handle) = server.spawn().expect("spawn");
    (addr, engine)
}

fn connect(addr: std::net::SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    client
}

#[test]
fn full_session_query_batch_stats_shutdown() {
    let (addr, _engine) = start(diamond(), 2);
    let mut client = connect(addr);
    client.ping().expect("ping");

    // Single query, then the identical query again: the repeat must be a
    // cache hit with a bit-identical estimate.
    let q = QueryRequest {
        estimator: Some("mc".into()),
        samples: Some(4000),
        seed: Some(7),
        ..QueryRequest::new(0, 3)
    };
    let first = client.query(q.clone()).expect("first query");
    assert!((0.0..=1.0).contains(&first.reliability));
    assert_eq!(first.samples, 4000);
    assert!(!first.cached);
    let second = client.query(q).expect("second query");
    assert!(second.cached);
    assert_eq!(first.reliability.to_bits(), second.reliability.to_bits());

    // Batch of same-source queries + one failing query.
    let batch = client
        .batch(vec![
            QueryRequest::new(0, 1),
            QueryRequest::new(0, 2),
            QueryRequest::new(0, 99),
        ])
        .expect("batch");
    assert_eq!(batch.len(), 3);
    assert!(batch[0].is_ok() && batch[1].is_ok());
    assert!(batch[2].as_ref().unwrap_err().contains("out of range"));

    // Stats reflect the session.
    let stats = client.stats().expect("stats");
    assert!(stats.queries >= 4);
    assert!(stats.cache_hits >= 1);
    assert!(stats.hit_rate() > 0.0);
    assert_eq!(stats.nodes, 4);
    assert_eq!(stats.edges, 4);

    // A second concurrent connection works.
    let mut other = connect(addr);
    other.ping().expect("second connection ping");

    client.shutdown().expect("shutdown");
}

#[test]
fn adaptive_query_over_the_wire_reports_session_fields() {
    let (addr, _engine) = start(diamond(), 2);
    let mut client = connect(addr);

    // eps-targeted query: must stop early, carry a CI, and respect the
    // declared cap.
    let q = QueryRequest {
        estimator: Some("mc".into()),
        eps: Some(0.1),
        samples: Some(50_000),
        seed: Some(3),
        ..QueryRequest::new(0, 3)
    };
    let resp = client.query(q.clone()).expect("adaptive query");
    assert_eq!(resp.stop_reason, "converged");
    assert!(resp.samples < 50_000, "used {}", resp.samples);
    let hw = resp.half_width.expect("wire carries the CI");
    assert!(hw > 0.0 && hw <= 0.1 * resp.reliability + 1e-12);
    assert!(resp.variance.is_some());

    // The repeat is a cache hit replaying the same session outcome.
    let again = client.query(q).expect("repeat");
    assert!(again.cached);
    assert_eq!(again.samples, resp.samples);
    assert_eq!(again.stop_reason, "converged");

    // A time-capped query stops at the first barrier but still answers.
    let timed = client
        .query(QueryRequest {
            estimator: Some("mc".into()),
            time_budget_ms: Some(1),
            samples: Some(1_000_000),
            seed: Some(9),
            ..QueryRequest::new(0, 3)
        })
        .expect("time-capped query");
    assert!(timed.samples <= 1_000_000);
    assert!(
        timed.stop_reason == "time_limit" || timed.stop_reason == "max_samples",
        "{}",
        timed.stop_reason
    );

    client.shutdown().expect("shutdown");
}

#[test]
fn server_thread_count_does_not_change_answers() {
    // Same graph, same wire query, different engine thread counts:
    // answers must be bit-identical (the paper's reproducibility story
    // survives the serving layer).
    let reliability: Vec<u64> = [1usize, 4]
        .into_iter()
        .map(|threads| {
            let graph = Dataset::LastFm.generate_with_scale(0.02, 42);
            let (addr, _engine) = start(graph, threads);
            let mut client = connect(addr);
            let resp = client
                .query(QueryRequest {
                    estimator: Some("mc".into()),
                    samples: Some(3000),
                    seed: Some(9),
                    ..QueryRequest::new(0, 3)
                })
                .expect("query");
            client.shutdown().ok();
            resp.reliability.to_bits()
        })
        .collect();
    assert_eq!(reliability[0], reliability[1]);
}

#[test]
fn live_update_bumps_epoch_invalidates_cache_and_migrates_residents() {
    let (addr, _engine) = start(diamond(), 2);
    let mut client = connect(addr);

    // Warm the cache for the affected pair with a resident (ProbTree)
    // and a sampler-path (MC) estimator.
    let pt = QueryRequest {
        estimator: Some("probtree".into()),
        samples: Some(20_000),
        seed: Some(5),
        ..QueryRequest::new(0, 3)
    };
    let mc = QueryRequest {
        estimator: Some("mc".into()),
        ..pt.clone()
    };
    let pt_before = client.query(pt.clone()).expect("probtree warm");
    let mc_before = client.query(mc.clone()).expect("mc warm");
    assert!(client.query(pt.clone()).expect("probtree repeat").cached);
    assert!(client.query(mc.clone()).expect("mc repeat").cached);
    assert_eq!(client.stats().expect("stats").epoch, 0);

    // Throttle both paths into node 3 down to 0.05: R(0, 3) collapses
    // from ~0.41 to at most 2 * 0.05.
    let update = client
        .update(vec![
            EdgeProbUpdate {
                s: 1,
                t: 3,
                prob: 0.05,
            },
            EdgeProbUpdate {
                s: 2,
                t: 3,
                prob: 0.05,
            },
        ])
        .expect("update");
    assert_eq!(update.epoch, 1);
    assert_eq!(update.edges_updated, 2);
    // The resident ProbTree index migrated incrementally — no eviction,
    // no full rebuild on the incremental path.
    let probtree = update
        .migrated
        .iter()
        .find(|m| m.estimator == "ProbTree")
        .expect("ProbTree was resident when the update landed");
    assert_eq!(probtree.mode, "incremental");

    // Stats see the new epoch; the cached answers for (0, 3) are stale
    // (old epoch key) so both paths recompute against the new graph.
    let stats = client.stats().expect("stats after update");
    assert_eq!(stats.epoch, 1);
    assert_eq!(stats.updates, 1);
    assert!(stats.resident_estimators >= 1, "ProbTree stayed resident");
    assert!(stats.resident_bytes > 0);

    for (label, req, before) in [
        ("probtree", pt, pt_before.reliability),
        ("mc", mc, mc_before.reliability),
    ] {
        let after = client.query(req.clone()).expect(label);
        assert!(!after.cached, "{label}: epoch bump must force a recompute");
        assert!(
            after.reliability < 0.12,
            "{label}: answer {} must reflect the new probabilities (was {before})",
            after.reliability
        );
        assert!(client.query(req).expect(label).cached, "{label} re-caches");
    }

    client.shutdown().expect("shutdown");
}

#[test]
fn metrics_and_traces_reflect_a_query_burst() {
    let (addr, _engine) = start(diamond(), 2);
    let mut client = connect(addr);

    let before = client.metrics().expect("metrics before");
    assert_eq!(before.queries_total, 0);

    // Burst over every workload: three distinct st queries, one repeat
    // (cache hit), a topk, and a dquery.
    for t in [1u32, 2, 3] {
        client
            .query(QueryRequest {
                estimator: Some("mc".into()),
                samples: Some(2000),
                seed: Some(1),
                ..QueryRequest::new(0, t)
            })
            .expect("query");
    }
    let repeat = QueryRequest {
        estimator: Some("mc".into()),
        samples: Some(2000),
        seed: Some(1),
        ..QueryRequest::new(0, 3)
    };
    assert!(client.query(repeat).expect("repeat").cached);
    client
        .topk(TopKRequest {
            k: Some(2),
            samples: Some(1000),
            seed: Some(2),
            ..TopKRequest::new(0)
        })
        .expect("topk");
    client
        .dquery(DistanceQueryRequest {
            samples: Some(1000),
            seed: Some(3),
            ..DistanceQueryRequest::new(0, 3, 2)
        })
        .expect("dquery");

    let after = client.metrics().expect("metrics after burst");
    assert_eq!(after.queries_total, 6);

    // The cache hit lands under the st workload's `hit` outcome.
    let hit = after
        .counters
        .iter()
        .find(|c| {
            c.name == "relcomp_queries_total"
                && c.labels.contains(&("workload".into(), "st".into()))
                && c.labels.contains(&("outcome".into(), "hit".into()))
        })
        .expect("hit counter");
    assert_eq!(hit.value, 1);

    // Latency histograms moved, per workload and merged. Server-side
    // metrics carry the tenant's graph label.
    let st = after
        .histogram(
            "relcomp_query_latency_micros",
            &[("graph", "default"), ("workload", "st")],
        )
        .expect("st histogram");
    assert_eq!(st.count, 4);
    assert!(st.p50 > 0);
    assert!(st.p99 >= st.p50);
    for (workload, count) in [("topk", 1), ("dquery", 1), ("all", 6)] {
        let h = after
            .histogram(
                "relcomp_query_latency_micros",
                &[("graph", "default"), ("workload", workload)],
            )
            .unwrap_or_else(|| panic!("{workload} histogram"));
        assert_eq!(h.count, count, "{workload}");
    }

    // Wire traces: newest first, wire stages included, cache hit visible.
    let traces = client.traces(Some(3)).expect("traces");
    assert_eq!(traces.len(), 3);
    assert_eq!(traces[0].workload, "dquery");
    assert_eq!(traces[1].workload, "topk");
    assert_eq!(traces[2].workload, "st");
    assert!(traces[2].cached, "repeat query traced as a cache hit");
    for t in &traces {
        assert!(t.ok);
        let stages: Vec<&str> = t.stages.iter().map(|s| s.stage.as_str()).collect();
        assert!(stages.contains(&"parse"), "{stages:?}");
        assert!(stages.contains(&"serialize"), "{stages:?}");
        assert!(t.nanos > 0);
    }
    // The uncached dquery actually sampled; the cache hit did not.
    assert!(traces[0]
        .stages
        .iter()
        .any(|s| s.stage == "sample" && s.nanos > 0));
    assert!(!traces[2].stages.iter().any(|s| s.stage == "sample"));

    // Prometheus exposition over the wire: well-formed, no duplicate
    // series under the mixed workload.
    let prom = client.metrics_prom().expect("prom");
    assert!(prom.contains("# TYPE relcomp_queries_total counter"));
    assert!(prom.contains("# TYPE relcomp_query_latency_micros histogram"));
    let mut series: Vec<&str> = prom
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| l.rsplit_once(' ').expect("sample line").0)
        .collect();
    let total = series.len();
    series.sort_unstable();
    series.dedup();
    assert_eq!(series.len(), total, "duplicate series in prom exposition");

    // `update` bumps the epoch but must not reset counters or histograms.
    client
        .update(vec![EdgeProbUpdate {
            s: 1,
            t: 3,
            prob: 0.3,
        }])
        .expect("update");
    let post = client.metrics().expect("metrics after update");
    assert_eq!(post.queries_total, 6);
    assert_eq!(post.counter_total("relcomp_updates_total"), 1);
    let st_post = post
        .histogram(
            "relcomp_query_latency_micros",
            &[("graph", "default"), ("workload", "st")],
        )
        .expect("st histogram after update");
    assert_eq!(st_post.count, 4);
    assert_eq!(st_post.sum, st.sum);

    client.shutdown().expect("shutdown");
}

/// Spawn a server in an explicit mode over a single default-tenant
/// engine; returns the address and the serve-loop thread handle.
fn start_mode(
    graph: UncertainGraph,
    mode: ServerMode,
) -> (
    std::net::SocketAddr,
    relcomp_serve::server::ShutdownHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let engine = Arc::new(QueryEngine::new(
        Arc::new(graph),
        EngineConfig {
            threads: 2,
            ..Default::default()
        },
    ));
    let server = Server::bind_with(
        "127.0.0.1:0",
        Arc::new(TenantRegistry::single(engine)),
        ServerOptions {
            mode,
            ..Default::default()
        },
    )
    .expect("bind");
    let shutdown = server.shutdown_handle();
    let (addr, handle) = server.spawn().expect("spawn");
    (addr, shutdown, handle)
}

#[test]
fn reactor_and_threaded_answers_are_bit_identical() {
    // The connection model must never touch the math: the same wire
    // query against both serve loops returns the same bits, including
    // across pipelined requests on one connection.
    let answers: Vec<(u64, bool, u64)> = [ServerMode::Reactor, ServerMode::Threaded]
        .into_iter()
        .map(|mode| {
            let (addr, _shutdown, handle) = start_mode(diamond(), mode);
            let mut client = connect(addr);
            let q = QueryRequest {
                estimator: Some("mc".into()),
                samples: Some(3000),
                seed: Some(11),
                ..QueryRequest::new(0, 3)
            };
            let first = client.query(q.clone()).expect("first");
            let again = client.query(q).expect("repeat");
            let topk = client
                .topk(TopKRequest {
                    k: Some(2),
                    samples: Some(1000),
                    seed: Some(2),
                    ..TopKRequest::new(0)
                })
                .expect("topk");
            client.shutdown().expect("shutdown");
            handle.join().expect("serve thread").expect("serve result");
            (
                first.reliability.to_bits(),
                again.cached,
                topk.targets[0].reliability.to_bits(),
            )
        })
        .collect();
    assert_eq!(answers[0].0, answers[1].0, "st reliability differs");
    assert!(answers[0].1 && answers[1].1, "repeat must hit the cache");
    assert_eq!(answers[0].2, answers[1].2, "topk reliability differs");
}

#[test]
fn shutdown_lands_under_accept_pressure() {
    // Regression for the shutdown race: with a stream of connections
    // hammering accept, the poke connection can be lost in the backlog.
    // The level-triggered loops (both modes) must still exit promptly.
    for mode in [ServerMode::Reactor, ServerMode::Threaded] {
        let (addr, shutdown, handle) = start_mode(diamond(), mode);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let hammers: Vec<_> = (0..4)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(std::sync::atomic::Ordering::Acquire) {
                        // Churn: connect, maybe ping, drop.
                        let _ = std::net::TcpStream::connect(addr);
                    }
                })
            })
            .collect();
        // Let the pressure build, then pull the plug.
        std::thread::sleep(Duration::from_millis(50));
        shutdown.shutdown();

        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            tx.send(handle.join()).ok();
        });
        let joined = rx.recv_timeout(Duration::from_secs(10));
        stop.store(true, std::sync::atomic::Ordering::Release);
        // The handle is the listener's last owner once the serve loop
        // is gone: closing it makes a hammer stuck in `connect` on the
        // full backlog fail fast instead of waiting out its SYN retries.
        drop(shutdown);
        for h in hammers {
            h.join().expect("hammer thread");
        }
        joined
            .unwrap_or_else(|_| panic!("{mode:?} serve loop hung after shutdown"))
            .expect("serve thread")
            .expect("serve result");
    }
}

#[test]
fn tenancy_and_warm_cache_survive_a_restart() {
    let dir = std::env::temp_dir().join(format!("relcomp_e2e_warm_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph_path = dir.join("served.ug2");
    write_graph_v2(&diamond(), &graph_path).unwrap();
    let persist = PersistConfig::new(dir.join("warm"));

    let template = EngineConfig {
        threads: 2,
        ..Default::default()
    };
    let q = QueryRequest {
        estimator: Some("mc".into()),
        samples: Some(4000),
        seed: Some(21),
        ..QueryRequest::new(0, 3)
    };

    // First server lifetime: load a tenant over the wire, warm its
    // cache, shut down (which flushes the final snapshot).
    let first_reliability;
    {
        let tenants = Arc::new(TenantRegistry::new(template, Some(persist.clone())));
        let server = Server::bind_with(
            "127.0.0.1:0",
            tenants,
            ServerOptions {
                persist: Some(persist.clone()),
                ..Default::default()
            },
        )
        .expect("bind");
        let (addr, handle) = server.spawn().expect("spawn");
        let mut client = connect(addr);

        let loaded = client
            .load_graph("social", graph_path.to_str().unwrap(), Some(8))
            .expect("load");
        assert_eq!(loaded.nodes, 4);
        assert_eq!(loaded.quota, 8);
        assert_eq!(loaded.warm_entries, 0, "first boot is cold");
        let using = client.use_graph("social").expect("use");
        assert_eq!(using.nodes, 4);

        let first = client.query(q.clone()).expect("query");
        assert!(!first.cached);
        first_reliability = first.reliability;
        assert!(client.query(q.clone()).expect("repeat").cached);

        // A second tenant over the same file keeps an isolated cache:
        // the identical query misses there.
        client
            .load_graph("staging", graph_path.to_str().unwrap(), None)
            .expect("load staging");
        let mut other = connect(addr);
        other.use_graph("staging").expect("use staging");
        assert!(
            !other.query(q.clone()).expect("staging query").cached,
            "tenant caches must be isolated"
        );
        other.unload_graph("staging").expect("unload staging");
        assert!(
            other.use_graph("staging").is_err(),
            "unloaded tenant is gone"
        );

        client.shutdown().expect("shutdown");
        handle.join().expect("serve thread").expect("serve result");
    }

    // Second lifetime: same persist dir, fresh registry. Loading the
    // tenant re-admits the snapshot and the warm query is a bit-identical
    // cache hit without recomputing.
    {
        let tenants = Arc::new(TenantRegistry::new(template, Some(persist.clone())));
        let server = Server::bind_with(
            "127.0.0.1:0",
            tenants,
            ServerOptions {
                persist: Some(persist),
                ..Default::default()
            },
        )
        .expect("rebind");
        let (addr, handle) = server.spawn().expect("respawn");
        let mut client = connect(addr);

        let loaded = client
            .load_graph("social", graph_path.to_str().unwrap(), None)
            .expect("reload tenant");
        assert!(
            loaded.warm_entries >= 1,
            "snapshot must re-admit the cached answer, got {}",
            loaded.warm_entries
        );
        client.use_graph("social").expect("use");
        let warm = client.query(q).expect("warm query");
        assert!(warm.cached, "restart must serve from the warm cache");
        assert_eq!(
            warm.reliability.to_bits(),
            first_reliability.to_bits(),
            "warm answer must be bit-identical across the restart"
        );

        client.shutdown().expect("shutdown");
        handle.join().expect("serve thread").expect("serve result");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_and_unknown_requests_get_errors_not_disconnects() {
    let (addr, _engine) = start(diamond(), 1);
    let mut client = connect(addr);

    // Server-side error (bad estimator) surfaces as ClientError::Server...
    let err = client
        .query(QueryRequest {
            estimator: Some("mcmc".into()),
            ..QueryRequest::new(0, 3)
        })
        .expect_err("unknown estimator must fail");
    assert!(err.to_string().contains("unknown estimator"), "{err}");

    // ...and the connection is still usable afterwards.
    client.ping().expect("connection survives errors");
    client.shutdown().expect("shutdown");
}

#[test]
fn unload_while_in_use_yields_clean_errors_in_both_modes() {
    // Regression: a connection `use`-ing a tenant that another
    // connection unloads must get a clean `not loaded` protocol error on
    // its next query — not a panic, a hang, or a dropped connection —
    // and must be able to re-point itself at a live tenant afterwards.
    let dir = std::env::temp_dir().join(format!("relcomp_e2e_unload_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph_path = dir.join("served.ug2");
    write_graph_v2(&diamond(), &graph_path).unwrap();

    for mode in [ServerMode::Reactor, ServerMode::Threaded] {
        let (addr, _shutdown, handle) = start_mode(diamond(), mode);
        let mut victim = connect(addr);
        let mut admin = connect(addr);

        admin
            .load_graph("social", graph_path.to_str().unwrap(), None)
            .expect("load");
        victim.use_graph("social").expect("use");
        assert!(!victim.query(QueryRequest::new(0, 3)).expect("query").cached);

        // The rug-pull: admin unloads the tenant the victim is using.
        admin.unload_graph("social").expect("unload");

        let err = victim
            .query(QueryRequest::new(0, 3))
            .expect_err("query against a dead tenant must fail cleanly");
        match &err {
            relcomp_serve::ClientError::Server(msg) => {
                assert!(
                    msg.contains("not loaded"),
                    "{mode:?}: unexpected error {msg}"
                )
            }
            other => panic!("{mode:?}: expected a protocol error, got {other:?}"),
        }

        // The connection survives and can re-point at a live tenant.
        victim.use_graph("default").expect("use default");
        assert!(
            victim
                .query(QueryRequest::new(0, 3))
                .expect("recovery query")
                .samples
                > 0
        );

        victim.shutdown().expect("shutdown");
        handle.join().expect("serve thread").expect("serve result");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn final_flush_covers_a_query_in_flight_at_shutdown() {
    // Regression: threaded-mode connection threads were detached, so a
    // shutdown arriving on one connection let the final warm-cache flush
    // run while another connection was still mid-query. That answer was
    // served to its client but silently missing after a clean restart.
    let dir = std::env::temp_dir().join(format!("relcomp_e2e_drain_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph_path = dir.join("served.ug2");
    // A long chain makes the fixed-budget query slow enough (hundreds of
    // milliseconds) that the shutdown reliably lands mid-query.
    let chain = {
        let n = 1500;
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(NodeId(i as u32), NodeId(i as u32 + 1), 0.999)
                .unwrap();
        }
        b.build()
    };
    let last = chain.num_nodes() as u32 - 1;
    write_graph_v2(&chain, &graph_path).unwrap();
    let persist = PersistConfig::new(dir.join("warm"));
    let template = EngineConfig {
        threads: 2,
        ..Default::default()
    };
    let slow = QueryRequest {
        estimator: Some("mc".into()),
        samples: Some(400_000),
        seed: Some(9),
        ..QueryRequest::new(0, last)
    };

    let first_bits;
    {
        let tenants = Arc::new(TenantRegistry::new(template, Some(persist.clone())));
        let server = Server::bind_with(
            "127.0.0.1:0",
            tenants,
            ServerOptions {
                mode: ServerMode::Threaded,
                persist: Some(persist.clone()),
                ..Default::default()
            },
        )
        .expect("bind");
        let shutdown = server.shutdown_handle();
        let (addr, handle) = server.spawn().expect("spawn");

        let mut loader = connect(addr);
        loader
            .load_graph("social", graph_path.to_str().unwrap(), None)
            .expect("load");

        // One connection fires a slow query; another pulls the plug
        // while it is still sampling. The in-flight query must both
        // answer its client and land in the final snapshot.
        let slow_q = slow.clone();
        let worker = std::thread::spawn(move || {
            let mut b = connect(addr);
            b.use_graph("social").expect("use");
            b.query(slow_q).expect("in-flight query still answers")
        });
        std::thread::sleep(Duration::from_millis(20));
        shutdown.shutdown();
        let answer = worker.join().expect("worker thread");
        handle.join().expect("serve thread").expect("serve result");
        assert!(!answer.cached);
        first_bits = answer.reliability.to_bits();
    }

    // Restart from the same persist dir: the in-flight answer is warm.
    {
        let tenants = Arc::new(TenantRegistry::new(template, Some(persist.clone())));
        let server = Server::bind_with(
            "127.0.0.1:0",
            tenants,
            ServerOptions {
                mode: ServerMode::Threaded,
                persist: Some(persist),
                ..Default::default()
            },
        )
        .expect("rebind");
        let (addr, handle) = server.spawn().expect("respawn");
        let mut client = connect(addr);
        let loaded = client
            .load_graph("social", graph_path.to_str().unwrap(), None)
            .expect("reload tenant");
        assert!(
            loaded.warm_entries >= 1,
            "the in-flight answer was lost by the final flush, warm={}",
            loaded.warm_entries
        );
        client.use_graph("social").expect("use");
        let warm = client.query(slow).expect("warm query");
        assert!(warm.cached, "restart must serve the drained answer warm");
        assert_eq!(warm.reliability.to_bits(), first_bits);
        client.shutdown().expect("shutdown");
        handle.join().expect("serve thread").expect("serve result");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oversized_request_line_gets_a_structured_error_before_close() {
    // Regression: the reactor used to drop a connection silently the
    // moment a request line crossed MAX_LINE_BYTES. The client must
    // instead receive one structured JSON error line, then a clean close.
    use std::io::{Read, Write};
    let (addr, shutdown, handle) = start_mode(diamond(), ServerMode::Reactor);
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    // Exactly one byte past the 16 MiB line limit, never
    // newline-terminated. Sending limit+1 bytes means the server can
    // only trip the check after reading everything, so the error line
    // cannot race a reset triggered by unread bytes.
    let chunk = vec![b'x'; 1 << 20];
    for _ in 0..16 {
        stream.write_all(&chunk).expect("write chunk");
    }
    stream.write_all(b"x").expect("write final byte");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read farewell");
    assert!(
        reply.contains(r#""ok":false"#) && reply.contains("16 MiB limit"),
        "expected a structured oversize error, got {reply:?}"
    );

    // The offender is gone but the server itself must keep serving.
    let mut client = connect(addr);
    client.ping().expect("server survives an oversized line");
    drop(client);
    shutdown.shutdown();
    handle.join().expect("serve thread").expect("serve result");
}
