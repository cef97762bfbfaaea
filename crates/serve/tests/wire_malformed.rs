//! Malformed and edge-case request lines, answered through `dispatch_line`.
//!
//! For every verb that carries fields (`query`/`batch`, `topk`, `dquery`,
//! `maximize`, `update`, `load`) the table below covers each required
//! field missing, each required field set to `null`, a string where a
//! number is expected, a non-object list item, an unknown extra field
//! (ignored), an explicit `null` optional field (read as the default) and
//! a repeated key (a duplicate-field error, never the first value).
//! Each response line is pinned in full; only `micros` is masked.
//!
//! The derived wire format rewrites every one of these paths, so any
//! drift in an error message, a default or the handling of `null` shows
//! up here as a mismatched line.

use relcomp_serve::engine::{EngineConfig, QueryEngine};
use relcomp_serve::server::dispatch_line;
use relcomp_ugraph::{GraphBuilder, NodeId, UncertainGraph};
use std::sync::Arc;

fn diamond() -> UncertainGraph {
    let mut b = GraphBuilder::new(4);
    b.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
    b.add_edge(NodeId(0), NodeId(2), 0.6).unwrap();
    b.add_edge(NodeId(1), NodeId(3), 0.7).unwrap();
    b.add_edge(NodeId(2), NodeId(3), 0.4).unwrap();
    b.build()
}

/// Replace the value of every `"micros":<digits>` occurrence by `_`.
fn mask(line: &str) -> String {
    let needle = "\"micros\":";
    let mut out = line.to_owned();
    let mut from = 0;
    while let Some(at) = out[from..].find(needle) {
        let start = from + at + needle.len();
        let len = out[start..]
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(out.len() - start);
        out.replace_range(start..start + len, "_");
        from = start + 1;
    }
    out
}

const TABLE: &[(&str, &str)] = &[
    // Lines that are not request objects.
    (
        "[1,2]",
        r#"{"ok":false,"error":"bad request: expected object while deserializing request, found array"}"#,
    ),
    (
        "null",
        r#"{"ok":false,"error":"bad request: expected object while deserializing request, found null"}"#,
    ),
    (
        r#"{"s":0,"t":3}"#,
        r#"{"ok":false,"error":"bad request: missing field `cmd` in request"}"#,
    ),
    (
        r#"{"cmd":null}"#,
        r#"{"ok":false,"error":"bad request: missing field `cmd` in request"}"#,
    ),
    (
        r#"{"cmd":7}"#,
        r#"{"ok":false,"error":"bad request: expected string while deserializing String, found integer"}"#,
    ),
    (
        r#"{"cmd":"ping","cmd":"query","s":0,"t":3}"#,
        r#"{"ok":false,"error":"bad request: duplicate field `cmd`"}"#,
    ),
    // query
    (
        r#"{"cmd":"query","t":3}"#,
        r#"{"ok":false,"error":"bad request: missing field `s` in query"}"#,
    ),
    (
        r#"{"cmd":"query","s":0}"#,
        r#"{"ok":false,"error":"bad request: missing field `t` in query"}"#,
    ),
    (
        r#"{"cmd":"query","s":null,"t":3}"#,
        r#"{"ok":false,"error":"bad request: missing field `s` in query"}"#,
    ),
    (
        r#"{"cmd":"query","s":0,"t":null}"#,
        r#"{"ok":false,"error":"bad request: missing field `t` in query"}"#,
    ),
    (
        r#"{"cmd":"query","s":"0","t":3}"#,
        r#"{"ok":false,"error":"bad request: expected integer while deserializing u32, found string"}"#,
    ),
    (
        r#"{"cmd":"query","s":0,"t":3,"samples":"100"}"#,
        r#"{"ok":false,"error":"bad request: expected integer while deserializing usize, found string"}"#,
    ),
    (
        r#"{"cmd":"query","s":0,"t":3,"eps":"0.1"}"#,
        r#"{"ok":false,"error":"bad request: expected number while deserializing f64, found string"}"#,
    ),
    (
        r#"{"cmd":"query","s":0,"t":3,"estimator":5}"#,
        r#"{"ok":false,"error":"bad request: expected string while deserializing String, found integer"}"#,
    ),
    (
        r#"{"cmd":"query","s":0,"t":3,"t":5}"#,
        r#"{"ok":false,"error":"bad request: duplicate field `t`"}"#,
    ),
    (
        r#"{"cmd":"query","s":0,"t":3,"samples":500,"samples":99999999}"#,
        r#"{"ok":false,"error":"bad request: duplicate field `samples`"}"#,
    ),
    (
        r#"{"cmd":"query","s":0,"t":3,"samples":500,"seed":7,"bogus":[1,{"x":null}]}"#,
        r#"{"ok":true,"kind":"query","s":0,"t":3,"reliability":0.528,"samples":500,"estimator":"MC","micros":_,"cached":false,"stop_reason":"fixed_k","half_width":0.04359074683773676,"variance":0.0004994308617234469}"#,
    ),
    (
        r#"{"cmd":"query","s":0,"t":3,"estimator":null,"samples":500,"seed":7,"eps":null,"confidence":null,"time_budget_ms":null}"#,
        r#"{"ok":true,"kind":"query","s":0,"t":3,"reliability":0.528,"samples":500,"estimator":"MC","micros":_,"cached":true,"stop_reason":"fixed_k","half_width":0.04359074683773676,"variance":0.0004994308617234469}"#,
    ),
    // batch
    (
        r#"{"cmd":"batch"}"#,
        r#"{"ok":false,"error":"bad request: missing field `queries` in batch"}"#,
    ),
    (
        r#"{"cmd":"batch","queries":null}"#,
        r#"{"ok":false,"error":"bad request: missing field `queries` in batch"}"#,
    ),
    (
        r#"{"cmd":"batch","queries":{"s":0,"t":3}}"#,
        r#"{"ok":false,"error":"bad request: expected array while deserializing Vec, found object"}"#,
    ),
    (
        r#"{"cmd":"batch","queries":[{"s":0,"t":3},7]}"#,
        r#"{"ok":false,"error":"bad request: expected object while deserializing query, found integer"}"#,
    ),
    (
        r#"{"cmd":"batch","queries":[null]}"#,
        r#"{"ok":false,"error":"bad request: expected object while deserializing query, found null"}"#,
    ),
    (
        r#"{"cmd":"batch","queries":[{"s":0}]}"#,
        r#"{"ok":false,"error":"bad request: missing field `t` in query"}"#,
    ),
    (
        r#"{"cmd":"batch","queries":[{"s":0,"t":2,"samples":300,"seed":3,"extra":true,"seed2":1}]}"#,
        r#"{"ok":true,"kind":"batch","results":[{"ok":true,"kind":"query","s":0,"t":2,"reliability":0.6033333333333334,"samples":300,"estimator":"MC","micros":_,"cached":false,"stop_reason":"fixed_k","half_width":0.05502227512731895,"variance":0.0008004087699739874}]}"#,
    ),
    // topk
    (
        r#"{"cmd":"topk","k":2}"#,
        r#"{"ok":false,"error":"bad request: missing field `s` in topk"}"#,
    ),
    (
        r#"{"cmd":"topk","s":null,"k":2}"#,
        r#"{"ok":false,"error":"bad request: missing field `s` in topk"}"#,
    ),
    (
        r#"{"cmd":"topk","s":"0"}"#,
        r#"{"ok":false,"error":"bad request: expected integer while deserializing u32, found string"}"#,
    ),
    (
        r#"{"cmd":"topk","s":0,"k":"2"}"#,
        r#"{"ok":false,"error":"bad request: expected integer while deserializing usize, found string"}"#,
    ),
    (
        r#"{"cmd":"topk","s":0,"k":2,"samples":400,"seed":5,"t":3}"#,
        r#"{"ok":true,"kind":"topk","s":0,"k":2,"targets":[{"node":2,"reliability":0.625},{"node":1,"reliability":0.4975}],"samples":400,"micros":_,"cached":false,"stop_reason":"fixed_k","half_width":0.04876489209519298}"#,
    ),
    (
        r#"{"cmd":"topk","s":0,"k":null,"samples":400,"seed":5,"eps":null}"#,
        r#"{"ok":true,"kind":"topk","s":0,"k":10,"targets":[{"node":2,"reliability":0.625},{"node":1,"reliability":0.4975},{"node":3,"reliability":0.4775}],"samples":400,"micros":_,"cached":false,"stop_reason":"fixed_k","half_width":0.04871656592734105}"#,
    ),
    // dquery
    (
        r#"{"cmd":"dquery","t":3,"d":2}"#,
        r#"{"ok":false,"error":"bad request: missing field `s` in dquery"}"#,
    ),
    (
        r#"{"cmd":"dquery","s":0,"d":2}"#,
        r#"{"ok":false,"error":"bad request: missing field `t` in dquery"}"#,
    ),
    (
        r#"{"cmd":"dquery","s":0,"t":3}"#,
        r#"{"ok":false,"error":"bad request: missing field `d` in dquery"}"#,
    ),
    (
        r#"{"cmd":"dquery","s":null,"t":3,"d":2}"#,
        r#"{"ok":false,"error":"bad request: missing field `s` in dquery"}"#,
    ),
    (
        r#"{"cmd":"dquery","s":0,"t":null,"d":2}"#,
        r#"{"ok":false,"error":"bad request: missing field `t` in dquery"}"#,
    ),
    (
        r#"{"cmd":"dquery","s":0,"t":3,"d":null}"#,
        r#"{"ok":false,"error":"bad request: missing field `d` in dquery"}"#,
    ),
    (
        r#"{"cmd":"dquery","s":0,"t":3,"d":"2"}"#,
        r#"{"ok":false,"error":"bad request: expected integer while deserializing usize, found string"}"#,
    ),
    (
        r#"{"cmd":"dquery","s":0,"t":3,"d":2.5}"#,
        r#"{"ok":false,"error":"bad request: expected integer while deserializing usize, found float"}"#,
    ),
    (
        r#"{"cmd":"dquery","s":0,"t":3,"d":2,"samples":500,"seed":7,"k":9}"#,
        r#"{"ok":true,"kind":"dquery","s":0,"t":3,"d":2,"reliability":0.528,"samples":500,"micros":_,"cached":false,"stop_reason":"fixed_k","half_width":0.04359074683773676,"variance":0.0004994308617234469}"#,
    ),
    (
        r#"{"cmd":"dquery","s":0,"t":3,"d":2,"samples":500,"seed":7,"time_budget_ms":null}"#,
        r#"{"ok":true,"kind":"dquery","s":0,"t":3,"d":2,"reliability":0.528,"samples":500,"micros":_,"cached":true,"stop_reason":"fixed_k","half_width":0.04359074683773676,"variance":0.0004994308617234469}"#,
    ),
    // maximize
    (
        r#"{"cmd":"maximize","t":3}"#,
        r#"{"ok":false,"error":"bad request: missing field `s` in maximize"}"#,
    ),
    (
        r#"{"cmd":"maximize","s":0}"#,
        r#"{"ok":false,"error":"bad request: missing field `t` in maximize"}"#,
    ),
    (
        r#"{"cmd":"maximize","s":null,"t":3}"#,
        r#"{"ok":false,"error":"bad request: missing field `s` in maximize"}"#,
    ),
    (
        r#"{"cmd":"maximize","s":0,"t":null}"#,
        r#"{"ok":false,"error":"bad request: missing field `t` in maximize"}"#,
    ),
    (
        r#"{"cmd":"maximize","s":0,"t":"3"}"#,
        r#"{"ok":false,"error":"bad request: expected integer while deserializing u32, found string"}"#,
    ),
    (
        r#"{"cmd":"maximize","s":0,"t":3,"boost":"0.9"}"#,
        r#"{"ok":false,"error":"bad request: expected number while deserializing f64, found string"}"#,
    ),
    (
        r#"{"cmd":"maximize","s":0,"t":3,"apply":1}"#,
        r#"{"ok":false,"error":"bad request: expected bool while deserializing bool, found integer"}"#,
    ),
    (
        r#"{"cmd":"maximize","s":0,"t":3,"k":1,"samples":300,"seed":7,"budget":4}"#,
        r#"{"ok":true,"kind":"maximize","s":0,"t":3,"k":1,"base_reliability":0.5233333333333333,"reliability":0.7833333333333333,"gain":0.26,"chosen":[{"s":0,"t":1,"old_prob":0.5,"new_prob":1.0,"gain":0.26,"reliability":0.7833333333333333}],"candidates":4,"evaluations":8,"samples":5100,"micros":_,"cached":false}"#,
    ),
    (
        r#"{"cmd":"maximize","s":0,"t":3,"k":1,"samples":300,"seed":7,"boost":null,"candidates":null,"apply":null}"#,
        r#"{"ok":true,"kind":"maximize","s":0,"t":3,"k":1,"base_reliability":0.5233333333333333,"reliability":0.7833333333333333,"gain":0.26,"chosen":[{"s":0,"t":1,"old_prob":0.5,"new_prob":1.0,"gain":0.26,"reliability":0.7833333333333333}],"candidates":4,"evaluations":8,"samples":5100,"micros":_,"cached":true}"#,
    ),
    // update
    (
        r#"{"cmd":"update"}"#,
        r#"{"ok":false,"error":"bad request: missing field `updates` in update"}"#,
    ),
    (
        r#"{"cmd":"update","updates":null}"#,
        r#"{"ok":false,"error":"bad request: missing field `updates` in update"}"#,
    ),
    (
        r#"{"cmd":"update","updates":[{"t":1,"prob":0.8}]}"#,
        r#"{"ok":false,"error":"bad request: missing field `s` in update"}"#,
    ),
    (
        r#"{"cmd":"update","updates":[{"s":0,"prob":0.8}]}"#,
        r#"{"ok":false,"error":"bad request: missing field `t` in update"}"#,
    ),
    (
        r#"{"cmd":"update","updates":[{"s":0,"t":1}]}"#,
        r#"{"ok":false,"error":"bad request: missing field `prob` in update"}"#,
    ),
    (
        r#"{"cmd":"update","updates":[{"s":0,"t":1,"prob":null}]}"#,
        r#"{"ok":false,"error":"bad request: missing field `prob` in update"}"#,
    ),
    (
        r#"{"cmd":"update","updates":[{"s":0,"t":1,"prob":"0.8"}]}"#,
        r#"{"ok":false,"error":"bad request: expected number while deserializing f64, found string"}"#,
    ),
    (
        r#"{"cmd":"update","updates":[{"s":0,"t":1,"prob":0.8},"x"]}"#,
        r#"{"ok":false,"error":"bad request: expected object while deserializing update, found string"}"#,
    ),
    (
        r#"{"cmd":"update","updates":[{"s":0,"t":1,"prob":0.8,"note":"x"}],"dry_run":true}"#,
        r#"{"ok":true,"kind":"update","epoch":1,"edges_updated":1,"migrated":[]}"#,
    ),
    // load (tenancy verbs parse, then error against a bare engine)
    (
        r#"{"cmd":"load","path":"/nonexistent.ug"}"#,
        r#"{"ok":false,"error":"bad request: missing field `name` in load"}"#,
    ),
    (
        r#"{"cmd":"load","name":"g"}"#,
        r#"{"ok":false,"error":"bad request: missing field `path` in load"}"#,
    ),
    (
        r#"{"cmd":"load","name":null,"path":"/nonexistent.ug"}"#,
        r#"{"ok":false,"error":"bad request: missing field `name` in load"}"#,
    ),
    (
        r#"{"cmd":"load","name":"g","path":null}"#,
        r#"{"ok":false,"error":"bad request: missing field `path` in load"}"#,
    ),
    (
        r#"{"cmd":"load","name":"g","path":"/nonexistent.ug","quota":"4"}"#,
        r#"{"ok":false,"error":"bad request: expected integer while deserializing usize, found string"}"#,
    ),
    (
        r#"{"cmd":"load","name":7,"path":"/nonexistent.ug"}"#,
        r#"{"ok":false,"error":"bad request: expected string while deserializing String, found integer"}"#,
    ),
    (
        r#"{"cmd":"load","name":"g","path":"/nonexistent.ug","mode":"mmap"}"#,
        r#"{"ok":false,"error":"tenancy verbs (load/unload/use) need a server connection, not a bare engine"}"#,
    ),
    (
        r#"{"cmd":"load","name":"g","path":"/nonexistent.ug","quota":null}"#,
        r#"{"ok":false,"error":"tenancy verbs (load/unload/use) need a server connection, not a bare engine"}"#,
    ),
    // Optional fields of the argument-light verbs.
    (
        r#"{"cmd":"metrics","format":null,"extra":1}"#,
        r#"{"ok":true,"kind":"metrics","#,
    ),
    (
        r#"{"cmd":"metrics","format":3}"#,
        r#"{"ok":false,"error":"bad request: expected string while deserializing String, found integer"}"#,
    ),
    (
        r#"{"cmd":"trace","last":"3"}"#,
        r#"{"ok":false,"error":"bad request: expected integer while deserializing usize, found string"}"#,
    ),
    (r#"{"cmd":"ping","s":0}"#, r#"{"ok":true,"kind":"pong"}"#),
];

#[test]
fn malformed_and_edge_case_requests_answer_pinned_lines() {
    let engine = QueryEngine::new(
        Arc::new(diamond()),
        EngineConfig {
            threads: 2,
            ..Default::default()
        },
    );
    let mut mismatches = Vec::new();
    for (i, (request, expected)) in TABLE.iter().enumerate() {
        let (line, is_bye) = dispatch_line(request, &engine);
        assert!(!is_bye, "line {i} acknowledged a shutdown");
        assert!(!line.contains('\n'), "line {i} spans lines: {line}");
        let got = mask(&line);
        // A metrics answer is pinned by its prefix: its values are
        // process-wide counters.
        let matches = if expected.ends_with(',') {
            got.starts_with(expected)
        } else {
            got == *expected
        };
        if !matches {
            mismatches.push(format!(
                "line {i}: {request}\n  expected: {expected}\n       got: {got}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "malformed-request answers drifted:\n{}",
        mismatches.join("\n")
    );
}
