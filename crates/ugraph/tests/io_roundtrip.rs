//! Property tests: any buildable uncertain graph survives a save/load
//! round trip through **both** on-disk formats.
//!
//! * Text (`save_graph`/`load_graph`): probabilities print via Rust's
//!   shortest-round-trip float `Display`, so re-parsing recovers the
//!   exact bits.
//! * Binary (`save_graph_binary`/`load_graph_binary`): raw
//!   little-endian `f64`, bit-exact by construction.
//! * v2 binary (`write_graph_v2`/`load_graph_v2`): the mmap-able CSR
//!   image, bit-exact through both the zero-copy and heap load paths.

use proptest::prelude::*;
use relcomp_ugraph::io::{load_graph, load_graph_binary, save_graph, save_graph_binary};
use relcomp_ugraph::{
    load_graph_v2, load_graph_v2_heap, write_graph_v2, GraphBuilder, NodeId, UncertainGraph,
};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique temp path per generated case (tests may run concurrently).
fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "relcomp_io_roundtrip_{}_{id}_{tag}",
        std::process::id()
    ))
}

/// Build a graph from raw generated edges, skipping self-loops and
/// duplicates (the strict builder rejects both).
fn build(n: usize, raw_edges: &[(usize, usize, f64)]) -> UncertainGraph {
    let mut b = GraphBuilder::new(n);
    let mut seen = HashSet::new();
    for &(u, v, p) in raw_edges {
        let (u, v) = (u % n, v % n);
        if u == v || !seen.insert((u, v)) {
            continue;
        }
        b.add_edge(NodeId(u as u32), NodeId(v as u32), p)
            .expect("probability in (0, 1]");
    }
    b.build()
}

fn assert_graphs_identical(original: &UncertainGraph, loaded: &UncertainGraph) {
    assert_eq!(loaded.num_nodes(), original.num_nodes());
    assert_eq!(loaded.num_edges(), original.num_edges());
    for (e, u, v, p) in original.edges() {
        let e2 = loaded
            .find_edge(u, v)
            .unwrap_or_else(|| panic!("edge {u} -> {v} lost in round trip"));
        assert_eq!(e2, e, "edge order changed");
        assert_eq!(
            loaded.prob(e2).value().to_bits(),
            p.value().to_bits(),
            "probability of {u} -> {v} not bit-exact"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn text_format_round_trips(
        (n, raw_edges) in (1usize..30).prop_flat_map(|n| {
            (
                Just(n),
                collection::vec((0usize..30, 0usize..30, 0.001f64..1.0), 1..60),
            )
        })
    ) {
        let graph = build(n, &raw_edges);
        let path = temp_path("text");
        save_graph(&graph, &path).expect("save text");
        let loaded = load_graph(&path).expect("load text");
        std::fs::remove_file(&path).ok();
        assert_graphs_identical(&graph, &loaded);
    }

    #[test]
    fn binary_format_round_trips(
        (n, raw_edges) in (1usize..30).prop_flat_map(|n| {
            (
                Just(n),
                collection::vec((0usize..30, 0usize..30, 0.001f64..1.0), 1..60),
            )
        })
    ) {
        let graph = build(n, &raw_edges);
        let path = temp_path("binary");
        save_graph_binary(&graph, &path).expect("save binary");
        let loaded = load_graph_binary(&path).expect("load binary");
        std::fs::remove_file(&path).ok();
        assert_graphs_identical(&graph, &loaded);
    }

    #[test]
    fn v2_format_round_trips_via_both_load_paths(
        (n, raw_edges) in (1usize..30).prop_flat_map(|n| {
            (
                Just(n),
                collection::vec((0usize..30, 0usize..30, 0.001f64..1.0), 1..60),
            )
        })
    ) {
        let graph = build(n, &raw_edges);
        let path = temp_path("v2");
        write_graph_v2(&graph, &path).expect("write v2");
        let loaded = load_graph_v2(&path).expect("load v2");
        if cfg!(all(unix, target_endian = "little")) {
            prop_assert!(loaded.mmapped, "expected zero-copy load on unix LE");
        }
        assert_graphs_identical(&graph, &loaded.graph);
        // The forced heap decode must agree with the mapped view.
        let heap = load_graph_v2_heap(&path).expect("load v2 heap");
        std::fs::remove_file(&path).ok();
        assert_graphs_identical(&graph, &heap);
    }

    #[test]
    fn formats_agree_with_each_other(
        (n, raw_edges) in (1usize..20).prop_flat_map(|n| {
            (
                Just(n),
                collection::vec((0usize..20, 0usize..20, 0.001f64..1.0), 1..30),
            )
        })
    ) {
        // Saving through either format and loading back must yield the
        // same graph, edge for edge, bit for bit.
        let graph = build(n, &raw_edges);
        let (pt, pb) = (temp_path("agree_t"), temp_path("agree_b"));
        save_graph(&graph, &pt).expect("save text");
        save_graph_binary(&graph, &pb).expect("save binary");
        let from_text = load_graph(&pt).expect("load text");
        let from_binary = load_graph_binary(&pb).expect("load binary");
        std::fs::remove_file(&pt).ok();
        std::fs::remove_file(&pb).ok();
        assert_graphs_identical(&from_text, &from_binary);
    }
}

/// Rewriting a v2 file that a loaded graph maps must leave that graph
/// reading the old contents: the writer replaces the file by renaming a
/// sibling over it, never by truncating and rewriting it in place under
/// the live mapping. The rewrite has the same shape (so an in-place
/// rewrite would silently swap every probability) and then a shorter one
/// (which an in-place rewrite would turn into a fault on the next read).
#[test]
fn rewriting_a_mapped_v2_file_leaves_the_loaded_graph_unchanged() {
    let chain = |n: usize, p: f64| {
        let mut b = GraphBuilder::new(n);
        for v in 1..n as u32 {
            b.add_edge(NodeId(v - 1), NodeId(v), p).unwrap();
        }
        b.build()
    };
    let path = temp_path("rewrite");
    let original = chain(64, 0.25);
    write_graph_v2(&original, &path).expect("write v2");
    let loaded = load_graph_v2(&path).expect("load v2");
    if cfg!(all(unix, target_endian = "little")) {
        assert!(loaded.mmapped, "expected zero-copy load on unix LE");
    }
    write_graph_v2(&chain(64, 0.75), &path).expect("rewrite, same shape");
    assert_graphs_identical(&original, &loaded.graph);
    write_graph_v2(&chain(2, 0.5), &path).expect("rewrite, shorter");
    assert_graphs_identical(&original, &loaded.graph);
    let reloaded = load_graph_v2(&path).expect("reload v2");
    assert_graphs_identical(&chain(2, 0.5), &reloaded.graph);
    std::fs::remove_file(&path).ok();
}
