//! Text serialization of uncertain graphs.
//!
//! Format (same shape as the paper's released datasets): a header line
//! `n m`, then one line per directed edge: `from to prob`, whitespace
//! separated. Lines starting with `#` are comments.
//!
//! ```text
//! # toy graph
//! 3 2
//! 0 1 0.5
//! 1 2 0.25
//! ```

use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::graph::UncertainGraph;
use crate::ids::NodeId;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Write `graph` in edge-list format.
pub fn write_graph<W: Write>(graph: &UncertainGraph, out: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(out);
    writeln!(w, "{} {}", graph.num_nodes(), graph.num_edges())?;
    for (_, u, v, p) in graph.edges() {
        writeln!(w, "{} {} {}", u, v, p)?;
    }
    w.flush()?;
    Ok(())
}

/// Write `graph` to a file path.
pub fn save_graph<P: AsRef<Path>>(graph: &UncertainGraph, path: P) -> Result<(), GraphError> {
    let file = std::fs::File::create(path)?;
    write_graph(graph, file)
}

/// Read a graph in edge-list format. Duplicate edges are rejected.
pub fn read_graph<R: Read>(input: R) -> Result<UncertainGraph, GraphError> {
    let reader = BufReader::new(input);
    let mut lines = reader.lines().enumerate();

    // Header: first non-comment, non-blank line.
    let (n, m, mut line_no) = loop {
        let (idx, line) = lines.next().ok_or_else(|| GraphError::Parse {
            line: 0,
            message: "missing header line `n m`".into(),
        })?;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let n: usize = parse_field(&mut parts, idx + 1, "node count")?;
        let m: usize = parse_field(&mut parts, idx + 1, "edge count")?;
        break (n, m, idx + 1);
    };

    let mut builder = GraphBuilder::new(n).with_edge_capacity(m);
    let mut seen = 0usize;
    for (idx, line) in lines {
        line_no = idx + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let u: u32 = parse_field(&mut parts, line_no, "source node")?;
        let v: u32 = parse_field(&mut parts, line_no, "target node")?;
        let p: f64 = parse_field(&mut parts, line_no, "probability")?;
        builder.add_edge(NodeId(u), NodeId(v), p)?;
        seen += 1;
    }
    if seen != m {
        return Err(GraphError::Parse {
            line: line_no,
            message: format!("header declared {m} edges but file contains {seen}"),
        });
    }
    builder.try_build()
}

/// Read a graph from a file path.
pub fn load_graph<P: AsRef<Path>>(path: P) -> Result<UncertainGraph, GraphError> {
    let file = std::fs::File::open(path)?;
    read_graph(file)
}

fn parse_field<'a, T: std::str::FromStr>(
    parts: &mut impl Iterator<Item = &'a str>,
    line: usize,
    what: &str,
) -> Result<T, GraphError> {
    let raw = parts.next().ok_or_else(|| GraphError::Parse {
        line,
        message: format!("missing {what}"),
    })?;
    raw.parse().map_err(|_| GraphError::Parse {
        line,
        message: format!("cannot parse {what} from `{raw}`"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn toy() -> UncertainGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.25).unwrap();
        b.build()
    }

    #[test]
    fn round_trip_preserves_graph() {
        let g = toy();
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let g2 = read_graph(&buf[..]).unwrap();
        assert_eq!(g2.num_nodes(), g.num_nodes());
        assert_eq!(g2.num_edges(), g.num_edges());
        for (e, u, v, p) in g.edges() {
            let e2 = g2.find_edge(u, v).expect("edge survives round trip");
            assert_eq!(e2, e);
            assert!((g2.prob(e2).value() - p.value()).abs() < 1e-15);
        }
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# a comment\n\n3 1\n# another\n0 2 0.75\n";
        let g = read_graph(text.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn missing_header_is_error() {
        let err = read_graph("".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
    }

    #[test]
    fn edge_count_mismatch_is_error() {
        let text = "3 2\n0 1 0.5\n";
        let err = read_graph(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("declared 2 edges"));
    }

    #[test]
    fn malformed_probability_is_error() {
        let text = "3 1\n0 1 banana\n";
        let err = read_graph(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("probability"));
    }

    #[test]
    fn out_of_range_probability_is_error() {
        let text = "3 1\n0 1 1.5\n";
        assert!(read_graph(text.as_bytes()).is_err());
    }

    #[test]
    fn file_round_trip() {
        let g = toy();
        let dir = std::env::temp_dir().join("relcomp_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.ug");
        save_graph(&g, &path).unwrap();
        let g2 = load_graph(&path).unwrap();
        assert_eq!(g2.num_edges(), 2);
    }
}

// ---------------------------------------------------------------------
// Binary format
// ---------------------------------------------------------------------

/// Magic prefix of the binary graph format (version 1).
pub const BINARY_MAGIC: &[u8; 8] = b"UGRAPHB1";

/// Write `graph` in the compact binary format: an 8-byte magic, `n` and
/// `m` as little-endian `u64`, then one `(u32 from, u32 to, f64 prob)`
/// record per edge. Roughly 4x smaller and an order of magnitude faster
/// to parse than the text format — intended for the large dataset
/// analogs.
pub fn write_graph_binary<W: Write>(graph: &UncertainGraph, out: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(out);
    w.write_all(BINARY_MAGIC)?;
    w.write_all(&(graph.num_nodes() as u64).to_le_bytes())?;
    w.write_all(&(graph.num_edges() as u64).to_le_bytes())?;
    for (_, u, v, p) in graph.edges() {
        w.write_all(&u.0.to_le_bytes())?;
        w.write_all(&v.0.to_le_bytes())?;
        w.write_all(&p.value().to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Size of one v1 edge record: `u32 from`, `u32 to`, `f64 prob`.
const V1_RECORD: usize = 16;

/// Read a graph written by [`write_graph_binary`].
///
/// Edge records are consumed through a bulk block buffer (4 MiB per
/// `read`), not three `read_exact` calls per edge — on large graphs the
/// old pattern spent most of its time in `BufReader` bookkeeping.
pub fn read_graph_binary<R: Read>(input: R) -> Result<UncertainGraph, GraphError> {
    let mut r = input;
    let mut magic = [0u8; 8];
    read_exact_or_truncated(&mut r, &mut magic, "v1 magic")?;
    if &magic != BINARY_MAGIC {
        // A v2 file fed to the v1 reader deserves a precise error.
        if &magic == crate::format::MAGIC_V2 {
            return Err(GraphError::UnsupportedVersion { version: 2 });
        }
        return Err(GraphError::BadMagic {
            found: magic.to_vec(),
        });
    }
    let mut counts = [0u8; 16];
    read_exact_or_truncated(&mut r, &mut counts, "v1 header counts")?;
    let n = u64::from_le_bytes(counts[0..8].try_into().unwrap()) as usize;
    let m = u64::from_le_bytes(counts[8..16].try_into().unwrap()) as usize;

    let mut builder = GraphBuilder::new(n).with_edge_capacity(m);
    const BLOCK_RECORDS: usize = 256 * 1024; // 4 MiB per read
    let mut block = vec![0u8; BLOCK_RECORDS * V1_RECORD];
    let mut remaining = m;
    while remaining > 0 {
        let take = remaining.min(BLOCK_RECORDS);
        let buf = &mut block[..take * V1_RECORD];
        read_exact_or_truncated(&mut r, buf, "v1 edge records")?;
        for rec in buf.chunks_exact(V1_RECORD) {
            let u = u32::from_le_bytes(rec[0..4].try_into().unwrap());
            let v = u32::from_le_bytes(rec[4..8].try_into().unwrap());
            let p = f64::from_le_bytes(rec[8..16].try_into().unwrap());
            builder.add_edge(NodeId(u), NodeId(v), p)?;
        }
        remaining -= take;
    }
    builder.try_build()
}

/// `read_exact` that reports how much data was missing as a structured
/// [`GraphError::Truncated`] instead of a bare `UnexpectedEof`.
fn read_exact_or_truncated<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    context: &'static str,
) -> Result<(), GraphError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(GraphError::Truncated {
                    context,
                    needed: buf.len() as u64,
                    available: filled as u64,
                })
            }
            Ok(k) => filled += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Save a graph in binary format to `path`.
pub fn save_graph_binary<P: AsRef<Path>>(
    graph: &UncertainGraph,
    path: P,
) -> Result<(), GraphError> {
    let file = std::fs::File::create(path)?;
    write_graph_binary(graph, file)
}

/// Load a binary-format graph from `path`.
pub fn load_graph_binary<P: AsRef<Path>>(path: P) -> Result<UncertainGraph, GraphError> {
    let file = std::fs::File::open(path)?;
    read_graph_binary(file)
}

#[cfg(test)]
mod binary_tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn toy() -> UncertainGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.25).unwrap();
        b.build()
    }

    #[test]
    fn binary_round_trip_is_bit_exact() {
        let g = toy();
        let mut buf = Vec::new();
        write_graph_binary(&g, &mut buf).unwrap();
        let g2 = read_graph_binary(&buf[..]).unwrap();
        assert_eq!(g2.num_nodes(), g.num_nodes());
        assert_eq!(g2.num_edges(), g.num_edges());
        for (e, u, v, p) in g.edges() {
            let e2 = g2.find_edge(u, v).unwrap();
            assert_eq!(e2, e);
            assert_eq!(g2.prob(e2).value().to_bits(), p.value().to_bits());
        }
    }

    #[test]
    fn binary_is_smaller_than_text() {
        let g = crate::datasets::Dataset::LastFm.generate_with_scale(0.05, 1);
        let mut text = Vec::new();
        super::write_graph(&g, &mut text).unwrap();
        let mut bin = Vec::new();
        write_graph_binary(&g, &mut bin).unwrap();
        assert!(
            bin.len() < text.len(),
            "bin {} vs text {}",
            bin.len(),
            text.len()
        );
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_graph_binary(&b"NOTMAGIC\x00\x00"[..]).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn rejects_truncated_records() {
        let g = toy();
        let mut buf = Vec::new();
        write_graph_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(read_graph_binary(&buf[..]).is_err());
    }

    #[test]
    fn rejects_corrupt_probability() {
        let g = toy();
        let mut buf = Vec::new();
        write_graph_binary(&g, &mut buf).unwrap();
        // Overwrite the first edge's probability with 2.0.
        let off = 8 + 16 + 8; // magic + counts + (from, to)
        buf[off..off + 8].copy_from_slice(&2.0f64.to_le_bytes());
        assert!(read_graph_binary(&buf[..]).is_err());
    }

    #[test]
    fn binary_file_round_trip() {
        let g = toy();
        let dir = std::env::temp_dir().join("relcomp_io_bin_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.ugb");
        save_graph_binary(&g, &path).unwrap();
        let g2 = load_graph_binary(&path).unwrap();
        assert_eq!(g2.num_edges(), 2);
    }
}

// ---------------------------------------------------------------------
// Format auto-detection
// ---------------------------------------------------------------------

/// Which on-disk graph format a file carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphFormat {
    /// Whitespace edge-list text (`n m` header, `from to prob` lines).
    Text,
    /// `UGRAPHB1` record-per-edge binary.
    BinaryV1,
    /// `UGRAPHB2` fixed-layout mmap-able binary.
    BinaryV2,
}

impl std::fmt::Display for GraphFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphFormat::Text => write!(f, "text"),
            GraphFormat::BinaryV1 => write!(f, "binary-v1"),
            GraphFormat::BinaryV2 => write!(f, "binary-v2"),
        }
    }
}

/// How a graph was loaded by [`load_graph_auto`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadReport {
    /// Detected on-disk format.
    pub format: GraphFormat,
    /// True when the CSR arrays are zero-copy views into a memory
    /// mapping (v2 on Unix); false for any heap load path.
    pub mmapped: bool,
}

/// Sniff a file's format from its first bytes (extension is ignored —
/// magic strings are authoritative; anything without a known magic is
/// treated as text).
pub fn detect_format<P: AsRef<Path>>(path: P) -> Result<GraphFormat, GraphError> {
    let mut file = std::fs::File::open(path)?;
    let mut head = [0u8; 8];
    let mut filled = 0;
    while filled < head.len() {
        match file.read(&mut head[filled..]) {
            Ok(0) => break,
            Ok(k) => filled += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(if &head == crate::format::MAGIC_V2 {
        GraphFormat::BinaryV2
    } else if &head == BINARY_MAGIC {
        GraphFormat::BinaryV1
    } else {
        GraphFormat::Text
    })
}

/// Load a graph in any supported format, auto-detected by magic bytes.
/// v2 files take the zero-copy mmap path where available; v1 binary and
/// text files parse onto the heap.
pub fn load_graph_auto<P: AsRef<Path>>(
    path: P,
) -> Result<(UncertainGraph, LoadReport), GraphError> {
    let path = path.as_ref();
    match detect_format(path)? {
        GraphFormat::BinaryV2 => {
            let loaded = crate::format::load_graph_v2(path)?;
            Ok((
                loaded.graph,
                LoadReport {
                    format: GraphFormat::BinaryV2,
                    mmapped: loaded.mmapped,
                },
            ))
        }
        GraphFormat::BinaryV1 => Ok((
            load_graph_binary(path)?,
            LoadReport {
                format: GraphFormat::BinaryV1,
                mmapped: false,
            },
        )),
        GraphFormat::Text => Ok((
            load_graph(path)?,
            LoadReport {
                format: GraphFormat::Text,
                mmapped: false,
            },
        )),
    }
}

#[cfg(test)]
mod auto_tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn toy() -> UncertainGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.25).unwrap();
        b.build()
    }

    #[test]
    fn detects_and_loads_all_three_formats() {
        let g = toy();
        let dir = std::env::temp_dir().join("relcomp_io_auto_test");
        std::fs::create_dir_all(&dir).unwrap();

        // Deliberately mismatched extensions: magic bytes win.
        let text = dir.join("toy_text.ugb");
        save_graph(&g, &text).unwrap();
        assert_eq!(detect_format(&text).unwrap(), GraphFormat::Text);

        let v1 = dir.join("toy_v1.ug");
        save_graph_binary(&g, &v1).unwrap();
        assert_eq!(detect_format(&v1).unwrap(), GraphFormat::BinaryV1);

        let v2 = dir.join("toy_v2.dat");
        crate::format::write_graph_v2(&g, &v2).unwrap();
        assert_eq!(detect_format(&v2).unwrap(), GraphFormat::BinaryV2);

        for path in [&text, &v1, &v2] {
            let (g2, report) = load_graph_auto(path).unwrap();
            assert_eq!(g2.num_edges(), g.num_edges());
            if report.format != GraphFormat::BinaryV2 {
                assert!(!report.mmapped);
            }
        }
        let (_, report) = load_graph_auto(&v2).unwrap();
        assert_eq!(report.format, GraphFormat::BinaryV2);
        #[cfg(unix)]
        assert!(report.mmapped);
    }

    #[test]
    fn v1_reader_identifies_v2_files() {
        let g = toy();
        let dir = std::env::temp_dir().join("relcomp_io_auto_test");
        std::fs::create_dir_all(&dir).unwrap();
        let v2 = dir.join("toy_for_v1.ug2");
        crate::format::write_graph_v2(&g, &v2).unwrap();
        let err = load_graph_binary(&v2).unwrap_err();
        assert!(matches!(err, GraphError::UnsupportedVersion { version: 2 }));
    }

    #[test]
    fn v1_truncation_is_structured() {
        let g = toy();
        let mut buf = Vec::new();
        write_graph_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 5);
        let err = read_graph_binary(&buf[..]).unwrap_err();
        assert!(matches!(err, GraphError::Truncated { .. }), "got {err}");
        // Header-level truncation too.
        let err = read_graph_binary(&buf[..4]).unwrap_err();
        assert!(matches!(err, GraphError::Truncated { .. }));
    }
}
