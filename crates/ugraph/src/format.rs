//! The `UGRAPHB2` fixed-layout binary graph format and its zero-copy
//! loader.
//!
//! # On-disk layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     magic "UGRAPHB2"
//! 8       4     version (u32) = 2
//! 12      4     flags (u32): bit 0 = probabilities stored as f32
//! 16      8     n (u64) — number of nodes
//! 24      8     m (u64) — number of directed edges
//! 32      8     out_offsets section offset (u64)
//! 40      8     out_targets section offset
//! 48      8     sources     section offset
//! 56      8     probs       section offset
//! 64      8     in_offsets  section offset
//! 72      8     in_edges    section offset
//! 80      8     file length (u64) — must equal the actual size
//! 88      40    reserved, zero
//! 128     ...   sections
//! ```
//!
//! Every section offset is 64-byte aligned (mmap bases are page-aligned,
//! so aligned offsets give aligned element pointers). Sections, in file
//! order: `out_offsets` (`n+1` × u32), `out_targets` (`m` × u32),
//! `sources` (`m` × u32), `probs` (`m` × f64, or f32 when flag bit 0 is
//! set), `in_offsets` (`n+1` × u32), `in_edges` (`m` × u32).
//!
//! # Loading
//!
//! [`load_graph_v2`] maps the file read-only and hands out
//! [`EdgeStorage`] views into the mapping — no per-edge parsing, no heap
//! copy of the topology. One sequential validation pass checks the CSR
//! invariants (monotonic offsets, in-range targets/edge ids,
//! probabilities in `(0, 1]`), which doubles as page-cache warmup. On
//! platforms without `mmap` — or for f32 probability files, whose prob
//! array must be widened — the affected arrays are copied to the heap
//! instead; the result is identical either way.

use crate::error::GraphError;
use crate::graph::{CsrParts, UncertainGraph};
use crate::ids::{EdgeId, NodeId};
use crate::mmap::Mmap;
use crate::probability::{Probability, ProbabilityError};
use crate::storage::EdgeStorage;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

/// Magic string opening every v2 binary graph file.
pub const MAGIC_V2: &[u8; 8] = b"UGRAPHB2";
/// Version number carried in the v2 header.
pub const VERSION_V2: u32 = 2;
/// Header size in bytes; the first section starts here.
pub const HEADER_LEN: usize = 128;
/// Alignment of every section offset.
pub const SECTION_ALIGN: usize = 64;
/// Flag bit 0: probabilities are stored as `f32` instead of `f64`.
pub const FLAG_PROBS_F32: u32 = 1;

const SECTION_NAMES: [&str; 6] = [
    "out_offsets",
    "out_targets",
    "sources",
    "probs",
    "in_offsets",
    "in_edges",
];

/// Parsed v2 header.
struct Header {
    flags: u32,
    n: usize,
    m: usize,
    sections: [u64; 6],
}

impl Header {
    fn prob_width(&self) -> usize {
        if self.flags & FLAG_PROBS_F32 != 0 {
            4
        } else {
            8
        }
    }

    /// Element count per section, in file order.
    fn section_lens(&self) -> [usize; 6] {
        [self.n + 1, self.m, self.m, self.m, self.n + 1, self.m]
    }

    /// Element width per section, in file order.
    fn section_widths(&self) -> [usize; 6] {
        [4, 4, 4, self.prob_width(), 4, 4]
    }
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn align_up(v: usize, align: usize) -> usize {
    v.div_ceil(align) * align
}

/// Parse and validate the header against the actual file length.
fn parse_header(bytes: &[u8]) -> Result<Header, GraphError> {
    if bytes.len() < HEADER_LEN {
        return Err(GraphError::Truncated {
            context: "v2 header",
            needed: HEADER_LEN as u64,
            available: bytes.len() as u64,
        });
    }
    if &bytes[..8] != MAGIC_V2 {
        return Err(GraphError::BadMagic {
            found: bytes[..8].to_vec(),
        });
    }
    let version = read_u32(bytes, 8);
    if version != VERSION_V2 {
        return Err(GraphError::UnsupportedVersion { version });
    }
    let flags = read_u32(bytes, 12);
    if flags & !FLAG_PROBS_F32 != 0 {
        return Err(GraphError::BadSection {
            section: "header",
            message: format!("unknown flag bits {flags:#x}"),
        });
    }
    let n = read_u64(bytes, 16);
    let m = read_u64(bytes, 24);
    if n >= u32::MAX as u64 || m > u32::MAX as u64 {
        return Err(GraphError::BadSection {
            section: "header",
            message: format!("n={n} / m={m} exceed 32-bit id space"),
        });
    }
    let mut sections = [0u64; 6];
    for (i, s) in sections.iter_mut().enumerate() {
        *s = read_u64(bytes, 32 + 8 * i);
    }
    let file_len = read_u64(bytes, 80);
    let header = Header {
        flags,
        n: n as usize,
        m: m as usize,
        sections,
    };

    if file_len != bytes.len() as u64 {
        return Err(GraphError::Truncated {
            context: "v2 sections",
            needed: file_len,
            available: bytes.len() as u64,
        });
    }
    let lens = header.section_lens();
    let widths = header.section_widths();
    for i in 0..6 {
        let off = header.sections[i];
        if off % SECTION_ALIGN as u64 != 0 {
            return Err(GraphError::BadSection {
                section: SECTION_NAMES[i],
                message: format!("offset {off} is not {SECTION_ALIGN}-byte aligned"),
            });
        }
        let bytes_needed = (lens[i] as u64)
            .checked_mul(widths[i] as u64)
            .and_then(|b| off.checked_add(b));
        match bytes_needed {
            Some(end) if end <= file_len => {}
            _ => {
                return Err(GraphError::BadSection {
                    section: SECTION_NAMES[i],
                    message: format!(
                        "offset {off} + {} elements overflows file of {file_len} bytes",
                        lens[i]
                    ),
                });
            }
        }
    }
    Ok(header)
}

/// Validate the CSR invariants on loaded (or mapped) arrays. One
/// sequential pass over every section; on the mmap path this doubles as
/// page-cache warmup for the whole graph.
fn validate_parts(
    n: usize,
    m: usize,
    (out_offsets, out_targets, sources, probs, in_offsets, in_edges): CsrParts,
) -> Result<(), GraphError> {
    for (name, offsets) in [("out_offsets", out_offsets), ("in_offsets", in_offsets)] {
        if offsets.len() != n + 1 || offsets[0] != 0 || offsets[n] as usize != m {
            return Err(GraphError::BadSection {
                section: if name == "out_offsets" {
                    "out_offsets"
                } else {
                    "in_offsets"
                },
                message: format!("offsets must run 0..={m} over {n} nodes"),
            });
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphError::BadSection {
                section: if name == "out_offsets" {
                    "out_offsets"
                } else {
                    "in_offsets"
                },
                message: "offsets are not monotonically non-decreasing".into(),
            });
        }
    }
    if out_targets.iter().any(|t| t.index() >= n) || sources.iter().any(|s| s.index() >= n) {
        return Err(GraphError::BadSection {
            section: "out_targets",
            message: format!("edge endpoint out of range for {n} nodes"),
        });
    }
    if in_edges.iter().any(|e| e.index() >= m) {
        return Err(GraphError::BadSection {
            section: "in_edges",
            message: format!("edge id out of range for {m} edges"),
        });
    }
    for p in probs {
        let v = p.value();
        if !(v.is_finite() && v > 0.0 && v <= 1.0) {
            return Err(GraphError::InvalidProbability(ProbabilityError(v)));
        }
    }
    Ok(())
}

/// Little-endian section serialization. On little-endian targets a
/// whole `Pod` slice is one bulk write; elsewhere each element is
/// converted explicitly.
trait WriteLe: crate::storage::Pod {
    /// The element as little-endian file bytes.
    fn le_bytes(self) -> [u8; 8];
    /// Element width in the file (4 or 8).
    const WIDTH: usize;

    fn write_section(w: &mut impl Write, s: &[Self]) -> std::io::Result<()> {
        if cfg!(target_endian = "little") {
            // SAFETY: Pod guarantees no padding or invalid bytes, and on
            // little-endian targets native order is the file order.
            let bytes = unsafe {
                std::slice::from_raw_parts(s.as_ptr().cast::<u8>(), std::mem::size_of_val(s))
            };
            w.write_all(bytes)
        } else {
            for &e in s {
                w.write_all(&e.le_bytes()[..Self::WIDTH])?;
            }
            Ok(())
        }
    }
}

impl WriteLe for u32 {
    const WIDTH: usize = 4;
    fn le_bytes(self) -> [u8; 8] {
        let mut b = [0u8; 8];
        b[..4].copy_from_slice(&self.to_le_bytes());
        b
    }
}

impl WriteLe for NodeId {
    const WIDTH: usize = 4;
    fn le_bytes(self) -> [u8; 8] {
        self.0.le_bytes()
    }
}

impl WriteLe for EdgeId {
    const WIDTH: usize = 4;
    fn le_bytes(self) -> [u8; 8] {
        self.0.le_bytes()
    }
}

impl WriteLe for Probability {
    const WIDTH: usize = 8;
    fn le_bytes(self) -> [u8; 8] {
        self.value().to_le_bytes()
    }
}

/// Write raw CSR arrays as a v2 file. This is the single writer both
/// [`write_graph_v2`] and the streaming generators go through, so large
/// graphs are emitted straight from their column arrays without any
/// intermediate edge-tuple representation.
pub fn write_v2_parts(
    path: &Path,
    out_offsets: &[u32],
    out_targets: &[NodeId],
    sources: &[NodeId],
    probs: &[Probability],
    in_offsets: &[u32],
    in_edges: &[EdgeId],
) -> Result<(), GraphError> {
    let n = out_offsets
        .len()
        .checked_sub(1)
        .ok_or_else(|| GraphError::BadSection {
            section: "out_offsets",
            message: "out_offsets must have n + 1 entries".into(),
        })?;
    let m = out_targets.len();
    validate_parts(
        n,
        m,
        (
            out_offsets,
            out_targets,
            sources,
            probs,
            in_offsets,
            in_edges,
        ),
    )?;

    let lens: [usize; 6] = [n + 1, m, m, m, n + 1, m];
    let widths: [usize; 6] = [4, 4, 4, 8, 4, 4];
    let mut sections = [0u64; 6];
    let mut cursor = HEADER_LEN;
    for i in 0..6 {
        cursor = align_up(cursor, SECTION_ALIGN);
        sections[i] = cursor as u64;
        cursor += lens[i] * widths[i];
    }
    let file_len = cursor as u64;

    // Write a sibling file and rename it over `path`, never rewriting
    // `path` in place: a graph already mapped from it keeps reading the
    // old file, which a truncating rewrite would change underneath it
    // (or cut short, faulting the next read).
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let mut w = BufWriter::new(File::create(&tmp)?);
    let mut header = [0u8; HEADER_LEN];
    header[..8].copy_from_slice(MAGIC_V2);
    header[8..12].copy_from_slice(&VERSION_V2.to_le_bytes());
    header[12..16].copy_from_slice(&0u32.to_le_bytes());
    header[16..24].copy_from_slice(&(n as u64).to_le_bytes());
    header[24..32].copy_from_slice(&(m as u64).to_le_bytes());
    for (i, s) in sections.iter().enumerate() {
        header[32 + 8 * i..40 + 8 * i].copy_from_slice(&s.to_le_bytes());
    }
    header[80..88].copy_from_slice(&file_len.to_le_bytes());
    w.write_all(&header)?;

    let mut written = HEADER_LEN as u64;
    let pad_to = |w: &mut BufWriter<File>, written: &mut u64, off: u64| -> Result<(), GraphError> {
        debug_assert!(off >= *written);
        let pad = (off - *written) as usize;
        w.write_all(&[0u8; SECTION_ALIGN][..pad])?;
        *written = off;
        Ok(())
    };

    macro_rules! write_section {
        ($idx:expr, $slice:expr, $ty:ty) => {{
            pad_to(&mut w, &mut written, sections[$idx])?;
            <$ty as WriteLe>::write_section(&mut w, $slice)?;
            written += ($slice.len() * <$ty as WriteLe>::WIDTH) as u64;
        }};
    }
    write_section!(0, out_offsets, u32);
    write_section!(1, out_targets, NodeId);
    write_section!(2, sources, NodeId);
    write_section!(3, probs, Probability);
    write_section!(4, in_offsets, u32);
    write_section!(5, in_edges, EdgeId);
    debug_assert_eq!(written, file_len);
    w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Write `graph` to `path` in the v2 format (f64 probabilities).
pub fn write_graph_v2(graph: &UncertainGraph, path: &Path) -> Result<(), GraphError> {
    let (oo, ot, src, pr, io_, ie) = graph.csr_parts();
    write_v2_parts(path, oo, ot, src, pr, io_, ie)
}

/// A graph loaded from a v2 file, plus how it was loaded.
#[derive(Debug)]
pub struct LoadedV2 {
    /// The loaded graph.
    pub graph: UncertainGraph,
    /// True if the CSR arrays are zero-copy views into a memory mapping;
    /// false if the file was copied to the heap (non-Unix platform, or a
    /// mapping failure fallback).
    pub mmapped: bool,
}

/// Load a v2 binary graph, preferring the zero-copy mmap path.
pub fn load_graph_v2(path: &Path) -> Result<LoadedV2, GraphError> {
    let file = File::open(path)?;
    // The mapped views reinterpret little-endian file bytes in place,
    // which is only correct on little-endian targets; elsewhere we
    // always take the converting heap path.
    if cfg!(target_endian = "little") {
        if let Ok(map) = Mmap::map_file(&file) {
            return load_mapped(Arc::new(map));
        }
    }
    let mut bytes = Vec::new();
    let mut file = file;
    file.read_to_end(&mut bytes)?;
    let graph = load_heap(&bytes)?;
    Ok(LoadedV2 {
        graph,
        mmapped: false,
    })
}

/// Load a v2 binary graph forcing the copying heap path (no mmap).
/// The cold-start bench uses this as the full-parse baseline the mmap
/// path is measured against on the same file.
pub fn load_graph_v2_heap(path: &Path) -> Result<UncertainGraph, GraphError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    load_heap(&bytes)
}

/// Zero-copy path: every f64-prob section becomes a view into `map`.
fn load_mapped(map: Arc<Mmap>) -> Result<LoadedV2, GraphError> {
    // The validation pass below touches every section sequentially, so
    // ask the kernel to start readahead now instead of faulting one
    // page at a time. Hints are advisory; failures are ignored.
    let _ = map.advise(crate::mmap::Advice::WillNeed);
    let header = parse_header(map.as_slice())?;
    let (n, m) = (header.n, header.m);
    let s = &header.sections;
    fn bad_view(section: &'static str) -> GraphError {
        GraphError::BadSection {
            section,
            message: "section window invalid for mapped view".into(),
        }
    }
    let out_offsets: EdgeStorage<u32> = EdgeStorage::from_mapped(&map, s[0] as usize, n + 1)
        .ok_or_else(|| bad_view("out_offsets"))?;
    let out_targets: EdgeStorage<NodeId> =
        EdgeStorage::from_mapped(&map, s[1] as usize, m).ok_or_else(|| bad_view("out_targets"))?;
    let sources: EdgeStorage<NodeId> =
        EdgeStorage::from_mapped(&map, s[2] as usize, m).ok_or_else(|| bad_view("sources"))?;
    let probs: EdgeStorage<Probability> = if header.prob_width() == 8 {
        EdgeStorage::from_mapped(&map, s[3] as usize, m).ok_or_else(|| bad_view("probs"))?
    } else {
        // f32 files cannot be viewed as f64: widen onto the heap. The
        // topology stays mapped.
        let f32s: EdgeStorage<f32> =
            EdgeStorage::from_mapped(&map, s[3] as usize, m).ok_or_else(|| bad_view("probs"))?;
        widen_probs(&f32s)?.into()
    };
    let in_offsets: EdgeStorage<u32> = EdgeStorage::from_mapped(&map, s[4] as usize, n + 1)
        .ok_or_else(|| bad_view("in_offsets"))?;
    let in_edges: EdgeStorage<EdgeId> =
        EdgeStorage::from_mapped(&map, s[5] as usize, m).ok_or_else(|| bad_view("in_edges"))?;

    validate_parts(
        n,
        m,
        (
            &out_offsets,
            &out_targets,
            &sources,
            &probs,
            &in_offsets,
            &in_edges,
        ),
    )?;
    // Validation is done; from here on access is point lookups driven
    // by sampling, so readahead would only drag in untouched pages.
    let _ = map.advise(crate::mmap::Advice::Random);
    Ok(LoadedV2 {
        graph: UncertainGraph::from_parts(
            out_offsets,
            out_targets,
            sources,
            probs,
            in_offsets,
            in_edges,
        ),
        mmapped: true,
    })
}

/// Heap fallback: decode every section out of `bytes` element by element
/// (endian-correct on any platform).
fn load_heap(bytes: &[u8]) -> Result<UncertainGraph, GraphError> {
    let header = parse_header(bytes)?;
    let (n, m) = (header.n, header.m);
    let s = &header.sections;
    let u32s = |off: u64, len: usize| -> Vec<u32> {
        bytes[off as usize..off as usize + len * 4]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    };
    let out_offsets = u32s(s[0], n + 1);
    let out_targets: Vec<NodeId> = u32s(s[1], m).into_iter().map(NodeId).collect();
    let sources: Vec<NodeId> = u32s(s[2], m).into_iter().map(NodeId).collect();
    let raw_probs: Vec<f64> = if header.prob_width() == 8 {
        bytes[s[3] as usize..s[3] as usize + m * 8]
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    } else {
        bytes[s[3] as usize..s[3] as usize + m * 4]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()) as f64)
            .collect()
    };
    let probs: Vec<Probability> = raw_probs
        .into_iter()
        .map(Probability::new)
        .collect::<Result<_, _>>()?;
    let in_offsets = u32s(s[4], n + 1);
    let in_edges: Vec<EdgeId> = u32s(s[5], m).into_iter().map(EdgeId).collect();

    validate_parts(
        n,
        m,
        (
            &out_offsets,
            &out_targets,
            &sources,
            &probs,
            &in_offsets,
            &in_edges,
        ),
    )?;
    Ok(UncertainGraph::from_parts(
        out_offsets.into(),
        out_targets.into(),
        sources.into(),
        probs.into(),
        in_offsets.into(),
        in_edges.into(),
    ))
}

/// Widen an f32 probability section to validated f64 probabilities.
fn widen_probs(f32s: &[f32]) -> Result<Vec<Probability>, GraphError> {
    f32s.iter()
        .map(|&p| Probability::new(p as f64).map_err(GraphError::from))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let id = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("relcomp_v2_{}_{tag}_{id}.ug2", std::process::id()))
    }

    fn diamond() -> UncertainGraph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 0.5).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 0.6).unwrap();
        b.add_edge(NodeId(1), NodeId(3), 0.7).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 0.8).unwrap();
        b.build()
    }

    fn assert_same_graph(a: &UncertainGraph, b: &UncertainGraph) {
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        for ((e1, u1, v1, p1), (e2, u2, v2, p2)) in a.edges().zip(b.edges()) {
            assert_eq!(e1, e2);
            assert_eq!(u1, u2);
            assert_eq!(v1, v2);
            assert_eq!(
                p1.value().to_bits(),
                p2.value().to_bits(),
                "probs not bit-identical"
            );
        }
        for v in a.nodes() {
            assert_eq!(
                a.in_edges(v).collect::<Vec<_>>(),
                b.in_edges(v).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn v2_round_trip_preserves_graph() {
        let g = diamond();
        let path = temp_path("roundtrip");
        write_graph_v2(&g, &path).unwrap();
        let loaded = load_graph_v2(&path).unwrap();
        assert_same_graph(&g, &loaded.graph);
        #[cfg(unix)]
        {
            assert!(loaded.mmapped);
            assert!(loaded.graph.is_mapped());
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn v2_heap_path_matches_mapped_path() {
        let g = diamond();
        let path = temp_path("heap");
        write_graph_v2(&g, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let heap = load_heap(&bytes).unwrap();
        assert_same_graph(&g, &heap);
        assert!(!heap.is_mapped());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let path = temp_path("magic");
        let g = diamond();
        write_graph_v2(&g, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[..8].copy_from_slice(b"NOTAGRPH");
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_graph_v2(&path).unwrap_err(),
            GraphError::BadMagic { .. }
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_bad_version() {
        let path = temp_path("version");
        write_graph_v2(&diamond(), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&7u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_graph_v2(&path).unwrap_err(),
            GraphError::UnsupportedVersion { version: 7 }
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_truncated_file() {
        let path = temp_path("trunc");
        write_graph_v2(&diamond(), &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 8]).unwrap();
        assert!(matches!(
            load_graph_v2(&path).unwrap_err(),
            GraphError::Truncated { .. }
        ));
        // Shorter than the header entirely.
        std::fs::write(&path, &bytes[..40]).unwrap();
        assert!(matches!(
            load_graph_v2(&path).unwrap_err(),
            GraphError::Truncated { .. }
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_unaligned_section_offset() {
        let path = temp_path("align");
        write_graph_v2(&diamond(), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Knock out_targets off alignment.
        let off = read_u64(&bytes, 40) + 4;
        bytes[40..48].copy_from_slice(&off.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_graph_v2(&path).unwrap_err(),
            GraphError::BadSection {
                section: "out_targets",
                ..
            }
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_overflowing_section_offset() {
        let path = temp_path("overflow");
        write_graph_v2(&diamond(), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let far = (bytes.len() as u64 + SECTION_ALIGN as u64) / SECTION_ALIGN as u64
            * SECTION_ALIGN as u64;
        bytes[56..64].copy_from_slice(&far.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_graph_v2(&path).unwrap_err(),
            GraphError::BadSection {
                section: "probs",
                ..
            }
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_out_of_range_probability() {
        let path = temp_path("badprob");
        write_graph_v2(&diamond(), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let probs_off = read_u64(&bytes, 56) as usize;
        bytes[probs_off..probs_off + 8].copy_from_slice(&1.5f64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_graph_v2(&path).unwrap_err(),
            GraphError::InvalidProbability(_)
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_out_of_range_target() {
        let path = temp_path("badtarget");
        write_graph_v2(&diamond(), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let targets_off = read_u64(&bytes, 40) as usize;
        bytes[targets_off..targets_off + 4].copy_from_slice(&999u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_graph_v2(&path).unwrap_err(),
            GraphError::BadSection {
                section: "out_targets",
                ..
            }
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_non_monotonic_offsets() {
        let path = temp_path("monotonic");
        write_graph_v2(&diamond(), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let oo = read_u64(&bytes, 32) as usize;
        // out_offsets for diamond is [0,2,3,4,4]; corrupt slot 1 to 3 > slot 2.
        bytes[oo + 4..oo + 8].copy_from_slice(&9u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_graph_v2(&path).unwrap_err(),
            GraphError::BadSection {
                section: "out_offsets",
                ..
            }
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn mapped_graph_supports_cow_prob_updates() {
        let g = diamond();
        let path = temp_path("cow");
        write_graph_v2(&g, &path).unwrap();
        let loaded = load_graph_v2(&path).unwrap().graph;
        let e = loaded.find_edge(NodeId(0), NodeId(1)).unwrap();
        let snap = loaded.with_updated_probs(&[crate::update::EdgeUpdate::new(e, 0.123).unwrap()]);
        assert!(
            loaded.same_topology(&snap),
            "CoW snapshot must share mapped topology"
        );
        assert!((snap.prob(e).value() - 0.123).abs() < 1e-15);
        assert!((loaded.prob(e).value() - 0.5).abs() < 1e-15);
        std::fs::remove_file(path).ok();
    }
}
