//! Generated inputs: graph files, the s-t pair pool per graph, and the
//! high-sample accuracy reference for each pair.
//!
//! Graphs and pair pools use fixed seeds, so the reference — the expensive
//! part — is computed once per checkout and cached under `.bench_data`. The
//! workload seed then picks the request stream over that pool (which pairs,
//! in which order, with which estimator, budget and per-request seed).

use relcomp_core::ParallelSampler;
use relcomp_eval::workload::Workload;
use relcomp_ugraph::{load_graph_auto, write_graph_v2, Dataset, NodeId, UncertainGraph};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Where generated graphs and cached references live (relative to the
/// checkout root; ignored by git).
pub const DATA_DIR: &str = ".bench_data";

/// Seed of every generated graph.
const GRAPH_SEED: u64 = 42;
/// Seed of the pair pools (offset by the hop distance).
const POOL_SEED: u64 = 7_000;
/// Master seed of the reference estimates.
const REFERENCE_SEED: u64 = 0x5eed_4ef0;

/// One benchmark graph.
#[derive(Clone, Copy, Debug)]
pub struct GraphSpec {
    /// File stem under [`DATA_DIR`].
    pub name: &'static str,
    pub dataset: Dataset,
    pub scale: f64,
    /// Hop distances the pair pool is drawn at.
    pub hops: &'static [usize],
    pub pairs_per_hop: usize,
    /// MC samples per reference estimate; 0 = no reference needed.
    pub reference_samples: usize,
}

/// The LastFM analog at paper scale (6,899 nodes): subcritical, so the
/// packed kernel takes its lazy frontier path.
pub const LASTFM: GraphSpec = GraphSpec {
    name: "lastfm-1.0",
    dataset: Dataset::LastFm,
    scale: 1.0,
    hops: &[2, 4, 6],
    pairs_per_hop: 100,
    reference_samples: 100_000,
};

/// The DBLP 0.2 analog at a reduced scale: supercritical (Σp/n ≈ 1.9), so
/// the packed kernel takes its dense-sweep path.
pub const DBLP: GraphSpec = GraphSpec {
    name: "dblp02-0.001",
    dataset: Dataset::Dblp02,
    scale: 0.001,
    hops: &[2, 4, 6],
    pairs_per_hop: 60,
    reference_samples: 20_000,
};

/// The NetHEPT analog at paper scale: the second tenant on `hot-rw`.
pub const NETHEPT: GraphSpec = GraphSpec {
    name: "nethept-1.0",
    dataset: Dataset::NetHept,
    scale: 1.0,
    hops: &[2, 4],
    pairs_per_hop: 100,
    reference_samples: 0,
};

/// A prepared graph: its file, the loaded graph, the pair pool, and the
/// reference reliability of each pool pair (empty when not needed).
pub struct GraphInput {
    pub spec: GraphSpec,
    pub path: PathBuf,
    pub graph: Arc<UncertainGraph>,
    pub pool: Vec<(NodeId, NodeId)>,
    pub reference: Vec<f64>,
}

impl GraphInput {
    /// Mean percolation offspring number Σp/n — the property that picks
    /// the packed kernel's lazy or dense path.
    pub fn offspring(&self) -> f64 {
        let sum: f64 = self.graph.edges().map(|(_, _, _, p)| p.value()).sum();
        sum / self.graph.num_nodes() as f64
    }

    /// The reference reliability of `(s, t)`, if it is a pool pair.
    pub fn reference_of(&self, s: u32, t: u32) -> Option<f64> {
        self.pool
            .iter()
            .position(|&(a, b)| a.0 == s && b.0 == t)
            .and_then(|i| self.reference.get(i).copied())
    }
}

/// Write `contents` to `path` through a temporary file and a rename, so an
/// interrupted run never leaves a torn cache entry behind.
fn write_atomically(
    path: &Path,
    write: impl FnOnce(&Path) -> Result<(), String>,
) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    write(&tmp)?;
    std::fs::rename(&tmp, path).map_err(|e| format!("rename {}: {e}", tmp.display()))
}

/// Generate (once) and load the graph, its pair pool and its reference.
pub fn prepare(spec: GraphSpec, threads: usize) -> Result<GraphInput, String> {
    let dir = Path::new(DATA_DIR);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {DATA_DIR}: {e}"))?;
    let path = dir.join(format!("{}.ug2", spec.name));
    if !path.exists() {
        let graph = spec.dataset.generate_with_scale(spec.scale, GRAPH_SEED);
        write_atomically(&path, |tmp| {
            write_graph_v2(&graph, tmp).map_err(|e| format!("write {}: {e}", tmp.display()))
        })?;
    }
    let (graph, _) = load_graph_auto(&path).map_err(|e| format!("load {}: {e}", path.display()))?;
    let graph = Arc::new(graph);
    let mut pool = Vec::new();
    for &h in spec.hops {
        pool.extend(Workload::generate(&graph, spec.pairs_per_hop, h, POOL_SEED + h as u64).pairs);
    }
    let reference = if spec.reference_samples == 0 {
        Vec::new()
    } else {
        load_or_compute_reference(&spec, &graph, &pool, threads)?
    };
    Ok(GraphInput {
        spec,
        path,
        graph,
        pool,
        reference,
    })
}

/// Reference file: one `s t reliability` line per pool pair, in pool order.
fn load_or_compute_reference(
    spec: &GraphSpec,
    graph: &Arc<UncertainGraph>,
    pool: &[(NodeId, NodeId)],
    threads: usize,
) -> Result<Vec<f64>, String> {
    let path = Path::new(DATA_DIR).join(format!("{}-{}.ref", spec.name, spec.reference_samples));
    if let Ok(text) = std::fs::read_to_string(&path) {
        let parsed: Option<Vec<f64>> = text
            .lines()
            .zip(pool)
            .map(|(line, &(s, t))| {
                let mut f = line.split_whitespace();
                let ok = f.next()? == s.0.to_string() && f.next()? == t.0.to_string();
                ok.then(|| f.next()?.parse().ok()).flatten()
            })
            .collect();
        if let Some(r) = parsed.filter(|r| r.len() == pool.len()) {
            return Ok(r);
        }
    }
    let sampler = ParallelSampler::new(Arc::clone(graph), threads);
    let reference: Vec<f64> = pool
        .iter()
        .map(|&(s, t)| {
            sampler
                .estimate_mc(s, t, spec.reference_samples, REFERENCE_SEED)
                .reliability
        })
        .collect();
    let mut text = String::new();
    for (&(s, t), r) in pool.iter().zip(&reference) {
        writeln!(text, "{} {} {r:?}", s.0, t.0).expect("write to string");
    }
    write_atomically(&path, |tmp| {
        std::fs::write(tmp, text).map_err(|e| format!("write {}: {e}", tmp.display()))
    })?;
    Ok(reference)
}
