//! Fuzzed request lines, answered through `dispatch_line` on a four-node
//! engine. The inputs are arbitrary bytes (read as lossy UTF-8), the lines
//! of `wire_malformed.rs`'s table cut at a random byte, those lines with
//! one number swapped for a value no field accepts as given (-1, 0.5,
//! 1e400, 2^64, 2^53 + 1), and unknown verbs.
//!
//! Whatever the input, the answer is exactly one line, with no newline
//! inside it, that parses as a JSON object with a boolean `ok`.

use proptest::prelude::*;
use proptest::TestCaseError;
use relcomp_serve::engine::{EngineConfig, QueryEngine};
use relcomp_serve::server::dispatch_line;
use relcomp_ugraph::{GraphBuilder, NodeId};
use serde::{DeError, Deserialize, Value};
use std::sync::{Arc, OnceLock};

/// One engine for every case, over the diamond the wire tables use.
fn engine() -> &'static QueryEngine {
    static ENGINE: OnceLock<QueryEngine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 0.6).unwrap();
        b.add_edge(NodeId(1), NodeId(3), 0.7).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 0.4).unwrap();
        let config = EngineConfig {
            threads: 1,
            ..Default::default()
        };
        QueryEngine::new(Arc::new(b.build()), config)
    })
}

/// The request and answer lines of `wire_malformed.rs`'s table: every
/// raw-string literal in that file.
fn table_lines() -> &'static [&'static str] {
    static LINES: OnceLock<Vec<&'static str>> = OnceLock::new();
    LINES.get_or_init(|| {
        include_str!("wire_malformed.rs")
            .split("r#\"")
            .skip(1)
            .filter_map(|chunk| chunk.split_once("\"#").map(|(line, _)| line))
            .collect()
    })
}

/// Byte ranges of the numbers in `line` that sit outside string literals.
fn numbers(line: &str) -> Vec<(usize, usize)> {
    let bytes = line.as_bytes();
    let (mut spans, mut in_string, mut i) = (Vec::new(), false, 0);
    while i < bytes.len() {
        let c = bytes[i];
        if in_string {
            match c {
                b'\\' => i += 1,
                b'"' => in_string = false,
                _ => {}
            }
            i += 1;
        } else if c == b'"' {
            in_string = true;
            i += 1;
        } else if c == b'-' || c.is_ascii_digit() {
            let start = i;
            while i < bytes.len()
                && matches!(bytes[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                i += 1;
            }
            spans.push((start, i));
        } else {
            i += 1;
        }
    }
    spans
}

/// Numbers no field takes at face value: negative, fractional, past
/// `f64`, past `u64`, and past `f64`'s exact integers.
const ODD_NUMBERS: [&str; 5] = [
    "-1",
    "0.5",
    "1e400",
    "18446744073709551616",
    "9007199254740993",
];

/// Any JSON value, kept as the shim's value tree.
struct Raw(Value);

impl Deserialize for Raw {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(Raw(value.clone()))
    }
}

/// Dispatch `input` and check that the answer is one JSON object line
/// with a boolean `ok`.
fn answers_one_object_line(input: &str) -> Result<(), TestCaseError> {
    let (line, _) = dispatch_line(input, engine());
    prop_assert!(
        !line.contains('\n'),
        "{input:?} answered on two lines: {line}"
    );
    let parsed: Result<Raw, _> = serde_json::from_str(&line);
    prop_assert!(parsed.is_ok(), "{input:?} answered non-JSON: {line}");
    let Ok(Raw(value)) = parsed else {
        unreachable!()
    };
    let ok = value
        .as_object()
        .and_then(|fields| fields.iter().find(|(k, _)| k == "ok"));
    prop_assert!(
        matches!(ok, Some((_, Value::Bool(_)))),
        "{input:?} answered without a boolean `ok`: {line}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_answer_one_object_line(
        bytes in proptest::collection::vec(0u16..256, 0..96),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        answers_one_object_line(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn truncated_table_lines_answer_one_object_line(
        pick in 0usize..10_000,
        cut in 0usize..10_000,
    ) {
        let line = table_lines()[pick % table_lines().len()];
        let mut cut = cut % (line.len() + 1);
        while !line.is_char_boundary(cut) {
            cut -= 1;
        }
        answers_one_object_line(&line[..cut])?;
    }

    #[test]
    fn table_lines_with_an_odd_number_answer_one_object_line(
        pick in 0usize..10_000,
        at in 0usize..10_000,
        odd in 0usize..ODD_NUMBERS.len(),
    ) {
        let line = table_lines()[pick % table_lines().len()];
        let spans = numbers(line);
        prop_assume!(!spans.is_empty());
        let (start, end) = spans[at % spans.len()];
        let fuzzed = format!("{}{}{}", &line[..start], ODD_NUMBERS[odd], &line[end..]);
        answers_one_object_line(&fuzzed)?;
    }

    #[test]
    fn unknown_verbs_answer_one_object_line(
        verb in proptest::collection::vec(0u8..26, 1..12),
        pick in 0usize..10_000,
    ) {
        let verb: String = verb.into_iter().map(|c| (b'a' + c) as char).collect();
        let line = table_lines()[pick % table_lines().len()];
        answers_one_object_line(&format!(r#"{{"cmd":"{verb}"}}"#))?;
        // The same verb in place of a table line's own, its fields kept.
        if let Some(rest) = line.strip_prefix(r#"{"cmd":""#) {
            if let Some((_, fields)) = rest.split_once('"') {
                answers_one_object_line(&format!(r#"{{"cmd":"{verb}"{fields}"#))?;
            }
        }
    }
}

#[test]
fn the_table_yields_lines_with_numbers() {
    let lines = table_lines();
    assert!(lines.len() > 100, "only {} table lines", lines.len());
    assert!(lines.iter().all(|l| l.starts_with('{')), "{lines:?}");
    assert!(lines.iter().filter(|l| !numbers(l).is_empty()).count() > 50);
    assert_eq!(
        numbers(r#"{"s":-3,"x":"1","p":1e5}"#),
        vec![(5, 7), (20, 23)]
    );
}
