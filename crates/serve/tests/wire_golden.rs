//! Golden transcript of the line-delimited JSON wire protocol.
//!
//! One connection to a live [`Server`] over a fixed four-node graph runs a
//! fixed script that touches every verb and every error class, and each
//! response line is compared with the expected line written below. Only
//! timing and process-wide values are masked (`micros`, `nanos`,
//! `uptime_micros`, `load_micros`, `packed_samples`, `scalar_samples`);
//! `metrics` and `trace` answers are compared by key layout only, since
//! their values are latencies and process-wide sampler counters.
//!
//! Any change to an answer, an error message, the order of validation,
//! or the cache/accounting behaviour visible through `stats` shows up
//! here as a mismatched line.

use relcomp_serve::engine::{EngineConfig, QueryEngine};
use relcomp_serve::Server;
use relcomp_ugraph::{write_graph_v2, GraphBuilder, NodeId, UncertainGraph};
use serde::{DeError, Deserialize, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Numeric fields whose values depend on wall time or on process-wide
/// state rather than on the request script.
const MASKED: [&str; 6] = [
    "micros",
    "nanos",
    "uptime_micros",
    "load_micros",
    "packed_samples",
    "scalar_samples",
];

/// How a response line is compared with its expected text.
#[derive(Clone, Copy)]
enum Check {
    /// The whole line, with the [`MASKED`] fields' values replaced by `_`.
    Exact,
    /// Only the key layout (see [`layout`]).
    Layout,
}

fn diamond() -> UncertainGraph {
    let mut b = GraphBuilder::new(4);
    b.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
    b.add_edge(NodeId(0), NodeId(2), 0.6).unwrap();
    b.add_edge(NodeId(1), NodeId(3), 0.7).unwrap();
    b.add_edge(NodeId(2), NodeId(3), 0.4).unwrap();
    b.build()
}

/// Replace the value of every `"<field>":<digits>` occurrence by `_`.
fn mask(line: &str) -> String {
    let mut out = line.to_owned();
    for field in MASKED {
        let needle = format!("\"{field}\":");
        let mut from = 0;
        while let Some(at) = out[from..].find(&needle) {
            let start = from + at + needle.len();
            let len = out[start..]
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(out.len() - start);
            out.replace_range(start..start + len, "_");
            from = start + 1;
        }
    }
    out
}

/// Any JSON value, kept as the shim's value tree.
struct Raw(Value);

impl Deserialize for Raw {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(Raw(value.clone()))
    }
}

/// The key skeleton of a JSON value: objects keep their keys in order,
/// arrays list each distinct element layout once, scalars become their
/// type name.
fn layout(value: &Value) -> String {
    match value {
        Value::Object(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{k}:{}", layout(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
        Value::Array(items) => {
            let mut seen: Vec<String> = Vec::new();
            for item in items {
                let l = layout(item);
                if !seen.contains(&l) {
                    seen.push(l);
                }
            }
            format!("[{}]", seen.join("|"))
        }
        Value::Null => "null".into(),
        Value::Bool(_) => "bool".into(),
        Value::Int(_) | Value::UInt(_) | Value::Float(_) => "num".into(),
        Value::String(_) => "str".into(),
    }
}

fn shape(line: &str, check: Check) -> String {
    match check {
        Check::Exact => mask(line),
        Check::Layout => {
            let Raw(value) = serde_json::from_str(line).expect("response is JSON");
            layout(&value)
        }
    }
}

#[test]
fn wire_transcript_matches_golden() {
    let dir = std::env::temp_dir().join(format!("relcomp_wire_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("diamond.ug2");
    write_graph_v2(&diamond(), &path).unwrap();
    let path = path.display().to_string();

    let engine = Arc::new(QueryEngine::new(
        Arc::new(diamond()),
        EngineConfig {
            threads: 2,
            adaptive_max_samples: 20_000,
            ..Default::default()
        },
    ));
    let server = Server::bind("127.0.0.1:0", engine).expect("bind");
    let (addr, handle) = server.spawn().expect("spawn");
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    let reload = format!(r#"{{"cmd":"reload","path":"{path}"}}"#);
    let load = format!(r#"{{"cmd":"load","name":"alt","path":"{path}","quota":4}}"#);
    let script: Vec<(&str, Check, &str)> = vec![
        // Every verb, in an order that exercises hits, misses, epochs
        // and tenancy.
        (
            r#"{"cmd":"ping"}"#,
            Check::Exact,
            r#"{"ok":true,"kind":"pong"}"#,
        ),
        (
            r#"{"cmd":"query","s":0,"t":3,"estimator":"mc","samples":1000,"seed":7}"#,
            Check::Exact,
            r#"{"ok":true,"kind":"query","s":0,"t":3,"reliability":0.526,"samples":1000,"estimator":"MC","micros":_,"cached":false,"stop_reason":"fixed_k","half_width":0.030888713692601797,"variance":0.0002495735735735736}"#,
        ),
        (
            r#"{"cmd":"query","s":0,"t":3,"estimator":"mc","samples":1000,"seed":7}"#,
            Check::Exact,
            r#"{"ok":true,"kind":"query","s":0,"t":3,"reliability":0.526,"samples":1000,"estimator":"MC","micros":_,"cached":true,"stop_reason":"fixed_k","half_width":0.030888713692601797,"variance":0.0002495735735735736}"#,
        ),
        (
            r#"{"cmd":"query","s":0,"t":3,"estimator":"mc","eps":0.1,"samples":20000,"seed":7}"#,
            Check::Exact,
            r#"{"ok":true,"kind":"query","s":0,"t":3,"reliability":0.50244140625,"samples":2048,"estimator":"MC","micros":_,"cached":false,"stop_reason":"converged","half_width":0.021634209339045384,"variance":0.00012212703445799828}"#,
        ),
        (
            r#"{"cmd":"query","s":0,"t":3,"estimator":"auto","seed":7}"#,
            Check::Exact,
            r#"{"ok":true,"kind":"query","s":0,"t":3,"reliability":0.50955,"samples":20000,"estimator":"LP+","micros":_,"cached":false,"stop_reason":"max_samples","half_width":0.006927590006522388,"variance":1.249606467823391e-5}"#,
        ),
        (
            r#"{"cmd":"topk","s":0,"k":2,"samples":1000,"seed":7}"#,
            Check::Exact,
            r#"{"ok":true,"kind":"topk","s":0,"k":2,"targets":[{"node":2,"reliability":0.623},{"node":3,"reliability":0.526}],"samples":1000,"micros":_,"cached":false,"stop_reason":"fixed_k","half_width":0.030888713692601797}"#,
        ),
        (
            r#"{"cmd":"topk","s":0,"k":2,"samples":1000,"seed":7}"#,
            Check::Exact,
            r#"{"ok":true,"kind":"topk","s":0,"k":2,"targets":[{"node":2,"reliability":0.623},{"node":3,"reliability":0.526}],"samples":1000,"micros":_,"cached":true,"stop_reason":"fixed_k","half_width":0.030888713692601797}"#,
        ),
        (
            r#"{"cmd":"dquery","s":0,"t":3,"d":2,"samples":1000,"seed":7}"#,
            Check::Exact,
            r#"{"ok":true,"kind":"dquery","s":0,"t":3,"d":2,"reliability":0.526,"samples":1000,"micros":_,"cached":false,"stop_reason":"fixed_k","half_width":0.030888713692601797,"variance":0.0002495735735735736}"#,
        ),
        (
            r#"{"cmd":"dquery","s":0,"t":3,"d":2,"samples":1000,"seed":7}"#,
            Check::Exact,
            r#"{"ok":true,"kind":"dquery","s":0,"t":3,"d":2,"reliability":0.526,"samples":1000,"micros":_,"cached":true,"stop_reason":"fixed_k","half_width":0.030888713692601797,"variance":0.0002495735735735736}"#,
        ),
        (
            r#"{"cmd":"maximize","s":0,"t":3,"k":1,"boost":0.95,"samples":1000,"seed":7}"#,
            Check::Exact,
            r#"{"ok":true,"kind":"maximize","s":0,"t":3,"k":1,"base_reliability":0.528,"reliability":0.753,"gain":0.22499999999999998,"chosen":[{"s":0,"t":1,"old_prob":0.5,"new_prob":0.95,"gain":0.22499999999999998,"reliability":0.753}],"candidates":4,"evaluations":8,"samples":17000,"micros":_,"cached":false}"#,
        ),
        (
            r#"{"cmd":"maximize","s":0,"t":3,"k":1,"boost":0.95,"samples":1000,"seed":7}"#,
            Check::Exact,
            r#"{"ok":true,"kind":"maximize","s":0,"t":3,"k":1,"base_reliability":0.528,"reliability":0.753,"gain":0.22499999999999998,"chosen":[{"s":0,"t":1,"old_prob":0.5,"new_prob":0.95,"gain":0.22499999999999998,"reliability":0.753}],"candidates":4,"evaluations":8,"samples":17000,"micros":_,"cached":true}"#,
        ),
        (
            r#"{"cmd":"maximize","s":0,"t":3,"k":1,"boost":0.95,"samples":1000,"seed":7,"apply":true}"#,
            Check::Exact,
            r#"{"ok":true,"kind":"maximize","s":0,"t":3,"k":1,"base_reliability":0.528,"reliability":0.753,"gain":0.22499999999999998,"chosen":[{"s":0,"t":1,"old_prob":0.5,"new_prob":0.95,"gain":0.22499999999999998,"reliability":0.753}],"candidates":4,"evaluations":8,"samples":17000,"micros":_,"cached":false,"applied_epoch":1}"#,
        ),
        (
            r#"{"cmd":"batch","queries":[{"s":0,"t":1,"samples":1000,"seed":7},{"s":0,"t":2,"samples":1000,"seed":7},{"s":0,"t":3,"estimator":"probtree","samples":500,"seed":7},{"s":0,"t":99}]}"#,
            Check::Exact,
            r#"{"ok":true,"kind":"batch","results":[{"ok":true,"kind":"query","s":0,"t":1,"reliability":0.945,"samples":1000,"estimator":"MC","micros":_,"cached":false,"stop_reason":"fixed_k","half_width":0.014205480162876307,"variance":5.202702702702705e-5},{"ok":true,"kind":"query","s":0,"t":2,"reliability":0.584,"samples":1000,"estimator":"MC","micros":_,"cached":false,"stop_reason":"fixed_k","half_width":0.030492480116258186,"variance":0.0002431871871871872},{"ok":true,"kind":"query","s":0,"t":3,"reliability":0.736,"samples":500,"estimator":"ProbTree","micros":_,"cached":false,"stop_reason":"fixed_k","half_width":0.03853151296676929,"variance":0.0003893867735470942},{"ok":false,"error":"target node 99 out of range (graph has 4 nodes)"}]}"#,
        ),
        (
            r#"{"cmd":"update","updates":[{"s":0,"t":1,"prob":0.8}]}"#,
            Check::Exact,
            r#"{"ok":true,"kind":"update","epoch":2,"edges_updated":1,"migrated":[{"estimator":"LP+","mode":"rebound","touched":0},{"estimator":"ProbTree","mode":"incremental","touched":1}]}"#,
        ),
        (
            r#"{"cmd":"query","s":0,"t":3,"estimator":"mc","samples":1000,"seed":7}"#,
            Check::Exact,
            r#"{"ok":true,"kind":"query","s":0,"t":3,"reliability":0.678,"samples":1000,"estimator":"MC","micros":_,"cached":false,"stop_reason":"fixed_k","half_width":0.028912049216938032,"variance":0.0002185345345345345}"#,
        ),
        (
            &reload,
            Check::Exact,
            r#"{"ok":true,"kind":"reload","epoch":3,"nodes":4,"edges":4}"#,
        ),
        (
            &load,
            Check::Exact,
            r#"{"ok":true,"kind":"loaded","name":"alt","nodes":4,"edges":4,"epoch":0,"load_path":"mmap","load_micros":_,"warm_entries":0,"quota":4}"#,
        ),
        (
            r#"{"cmd":"use","name":"alt"}"#,
            Check::Exact,
            r#"{"ok":true,"kind":"using","name":"alt","epoch":0,"nodes":4,"edges":4}"#,
        ),
        (
            r#"{"cmd":"query","s":0,"t":3,"samples":1000,"seed":7}"#,
            Check::Exact,
            r#"{"ok":true,"kind":"query","s":0,"t":3,"reliability":0.526,"samples":1000,"estimator":"MC","micros":_,"cached":false,"stop_reason":"fixed_k","half_width":0.030888713692601797,"variance":0.0002495735735735736}"#,
        ),
        (
            r#"{"cmd":"use","name":"default"}"#,
            Check::Exact,
            r#"{"ok":true,"kind":"using","name":"default","epoch":3,"nodes":4,"edges":4}"#,
        ),
        (
            r#"{"cmd":"unload","name":"alt"}"#,
            Check::Exact,
            r#"{"ok":true,"kind":"unloaded","name":"alt"}"#,
        ),
        (
            r#"{"cmd":"stats"}"#,
            Check::Exact,
            r#"{"ok":true,"kind":"stats","queries":15,"cache_hits":4,"cache_misses":10,"cache_entries":10,"rejected":0,"threads":2,"epoch":3,"updates":3,"nodes":4,"edges":4,"resident_estimators":0,"resident_bytes":0,"packed_samples":_,"scalar_samples":_,"load_path":"mmap","load_micros":_,"uptime_micros":_}"#,
        ),
        (
            r#"{"cmd":"metrics"}"#,
            Check::Layout,
            r#"{ok:bool,kind:str,queries_total:num,counters:[{name:str,labels:{graph:str,workload:str,outcome:str},value:num}|{name:str,labels:{graph:str,estimator:str},value:num}|{name:str,labels:{graph:str},value:num}|{name:str,labels:{graph:str,path:str},value:num}|{name:str,labels:{graph:str,stop_reason:str},value:num}],gauges:[{name:str,labels:{graph:str},value:num}|{name:str,labels:{graph:str,path:str},value:num}|{name:str,labels:{},value:num}],histograms:[{name:str,labels:{graph:str,workload:str},count:num,sum:num,p50:num,p90:num,p99:num,p999:num,buckets:[{le:num,count:num}]}]}"#,
        ),
        (
            r#"{"cmd":"metrics","format":"prom"}"#,
            Check::Layout,
            r#"{ok:bool,kind:str,text:str}"#,
        ),
        (
            r#"{"cmd":"trace","last":3}"#,
            Check::Layout,
            r#"{ok:bool,kind:str,traces:[{workload:str,s:num,t:num,ok:bool,cached:bool,nanos:num,stages:[{stage:str,nanos:num}]}]}"#,
        ),
        // Every error class.
        (
            r#"{"cmd":"query","s":0"#,
            Check::Exact,
            r#"{"ok":false,"error":"bad request: expected `,` or `}` in object at line 1"}"#,
        ),
        (
            r#"{"cmd":"frobnicate"}"#,
            Check::Exact,
            r#"{"ok":false,"error":"bad request: unknown cmd `frobnicate`"}"#,
        ),
        (
            r#"{"cmd":"dquery","s":0,"t":3}"#,
            Check::Exact,
            r#"{"ok":false,"error":"bad request: missing field `d` in dquery"}"#,
        ),
        (
            r#"{"cmd":"query","s":0,"t":99}"#,
            Check::Exact,
            r#"{"ok":false,"error":"target node 99 out of range (graph has 4 nodes)"}"#,
        ),
        (
            r#"{"cmd":"topk","s":0,"k":0}"#,
            Check::Exact,
            r#"{"ok":false,"error":"k must be positive"}"#,
        ),
        (
            r#"{"cmd":"maximize","s":0,"t":3,"boost":1.5}"#,
            Check::Exact,
            r#"{"ok":false,"error":"boost 1.5 out of range (0, 1]"}"#,
        ),
        (
            r#"{"cmd":"query","s":0,"t":3,"estimator":"nope"}"#,
            Check::Exact,
            r#"{"ok":false,"error":"unknown estimator `nope` (expected one of: mc, bfs_sharing, probtree, lp+, lp, rhh, rss, probtree+lp+, probtree+rhh, probtree+rss)"}"#,
        ),
        (
            r#"{"cmd":"query","s":0,"t":3,"samples":2000000}"#,
            Check::Exact,
            r#"{"ok":false,"error":"samples 2000000 exceeds the admission limit 1000000"}"#,
        ),
        (
            r#"{"cmd":"maximize","s":0,"t":3,"candidates":100000}"#,
            Check::Exact,
            r#"{"ok":false,"error":"candidate pool 100000 exceeds the admission limit 64"}"#,
        ),
        (
            r#"{"cmd":"metrics","format":"xml"}"#,
            Check::Exact,
            r#"{"ok":false,"error":"bad request: unknown metrics format `xml` (expected `json` or `prom`)"}"#,
        ),
        (
            r#"{"cmd":"use","name":"ghost"}"#,
            Check::Exact,
            r#"{"ok":false,"error":"graph `ghost` is not loaded"}"#,
        ),
        (
            r#"{"cmd":"stats"}"#,
            Check::Exact,
            r#"{"ok":true,"kind":"stats","queries":15,"cache_hits":4,"cache_misses":10,"cache_entries":10,"rejected":2,"threads":2,"epoch":3,"updates":3,"nodes":4,"edges":4,"resident_estimators":0,"resident_bytes":0,"packed_samples":_,"scalar_samples":_,"load_path":"mmap","load_micros":_,"uptime_micros":_}"#,
        ),
        (
            r#"{"cmd":"shutdown"}"#,
            Check::Exact,
            r#"{"ok":true,"kind":"bye"}"#,
        ),
    ];

    let mut mismatches = Vec::new();
    for (i, (request, check, expected)) in script.iter().enumerate() {
        writer.write_all(request.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).expect("response line");
        let got = shape(line.trim_end(), *check);
        if got != *expected {
            mismatches.push(format!(
                "line {i}: {request}\n  expected: {expected}\n       got: {got}"
            ));
        }
    }
    handle.join().expect("server thread").expect("serve loop");
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        mismatches.is_empty(),
        "wire transcript drifted:\n{}",
        mismatches.join("\n")
    );
}
