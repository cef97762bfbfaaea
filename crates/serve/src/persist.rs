//! Warm-cache persistence: versioned on-disk snapshots of the result
//! cache, so a restarted server answers its hot queries from byte one.
//!
//! A snapshot file carries a magic/version header, a fingerprint of the
//! graph the answers were computed against, the epoch at flush time,
//! the entries themselves, and a trailing checksum over everything. On
//! startup the snapshot is *validated, not trusted*: a wrong magic,
//! fingerprint mismatch, checksum failure, or truncated entry rejects
//! the whole file (with a log line saying why), and entries are only
//! re-admitted when their recorded epoch matches the epoch the engine
//! restarts at — the same epoch-keyed rule the live cache enforces.
//!
//! Writes are atomic (temp file + rename), so a crash mid-flush leaves
//! the previous snapshot intact. A background flusher thread rewrites
//! each tenant's snapshot on a fixed interval and once more on shutdown.

use crate::engine::{CachedAnswer, MaximizeAnswer, QueryEngine, QueryKey, WorkloadKind};
use crate::protocol::UpgradeRow;
use crate::tenants::TenantRegistry;
use relcomp_core::{EstimatorKind, StopReason};
use relcomp_ugraph::UncertainGraph;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Where and how often warm-cache snapshots are written.
#[derive(Clone, Debug)]
pub struct PersistConfig {
    /// Directory holding one `<tenant>.warm` file per tenant.
    pub dir: PathBuf,
    /// How often the background flusher rewrites the snapshots.
    pub flush_interval: Duration,
}

impl PersistConfig {
    /// Persist into `dir`, flushing every 5 seconds.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PersistConfig {
            dir: dir.into(),
            flush_interval: Duration::from_secs(5),
        }
    }
}

/// File magic; the trailing digits version the format. Readers reject
/// anything else wholesale — there is no cross-version migration, a
/// stale snapshot just means a cold cache.
const MAGIC: &[u8; 8] = b"RCWARM01";

/// Snapshot file name for one tenant.
pub(crate) fn snapshot_path(dir: &Path, tenant: &str) -> PathBuf {
    dir.join(format!("{tenant}.warm"))
}

/// Stable on-disk tags for [`EstimatorKind`]; the array index is the
/// tag, so order here is append-only.
const KIND_TAGS: [EstimatorKind; 10] = [
    EstimatorKind::Mc,
    EstimatorKind::BfsSharing,
    EstimatorKind::ProbTree,
    EstimatorKind::LpPlus,
    EstimatorKind::LpOriginal,
    EstimatorKind::Rhh,
    EstimatorKind::Rss,
    EstimatorKind::ProbTreeLpPlus,
    EstimatorKind::ProbTreeRhh,
    EstimatorKind::ProbTreeRss,
];

fn kind_tag(kind: EstimatorKind) -> u8 {
    KIND_TAGS
        .iter()
        .position(|&k| k == kind)
        .expect("every estimator kind is tagged") as u8
}

fn kind_from_tag(tag: u8) -> Option<EstimatorKind> {
    KIND_TAGS.get(tag as usize).copied()
}

/// Cached answers label their estimator with a display name; recover
/// the `&'static str` by matching against the known set so decoded
/// entries are bit-identical to freshly computed ones.
fn estimator_label(name: &str) -> Option<&'static str> {
    KIND_TAGS
        .iter()
        .map(|k| k.display_name())
        .find(|&label| label == name)
}

const STOP_TAGS: [StopReason; 4] = [
    StopReason::FixedK,
    StopReason::Converged,
    StopReason::MaxSamples,
    StopReason::TimeLimit,
];

fn stop_tag(reason: StopReason) -> u8 {
    STOP_TAGS
        .iter()
        .position(|&r| r == reason)
        .expect("every stop reason is tagged") as u8
}

/// FNV-1a over 64-bit words — the same cheap, dependency-free hash the
/// rest of the codebase leans on where cryptographic strength is not
/// the point (this guards against *accidental* graph swaps, not
/// adversarial ones).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprint of a graph's full structure: node/edge counts plus every
/// edge's endpoints and exact probability bits. Two graphs fingerprint
/// equal iff cached answers computed on one are valid on the other.
pub(crate) fn graph_fingerprint(graph: &UncertainGraph) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(graph.num_nodes() as u64);
    h.write_u64(graph.num_edges() as u64);
    for (_, s, t, p) in graph.edges() {
        h.write_u64(s.0 as u64);
        h.write_u64(t.0 as u64);
        h.write_u64(p.value().to_bits());
    }
    h.finish()
}

// --- binary encoding helpers -------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => put_u8(buf, 0),
        Some(v) => {
            put_u8(buf, 1);
            put_u64(buf, v);
        }
    }
}

fn put_opt_f64(buf: &mut Vec<u8>, v: Option<f64>) {
    put_opt_u64(buf, v.map(f64::to_bits));
}

/// Cursor over the snapshot bytes; every read is bounds-checked so a
/// truncated file fails cleanly instead of panicking.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| "snapshot truncated".to_string())?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            t => Err(format!("bad option tag {t}")),
        }
    }

    fn opt_f64(&mut self) -> Result<Option<f64>, String> {
        Ok(self.opt_u64()?.map(f64::from_bits))
    }
}

fn encode_entry(buf: &mut Vec<u8>, key: &QueryKey, answer: &CachedAnswer) {
    match key.workload {
        WorkloadKind::St => {
            put_u8(buf, 0);
            put_u64(buf, 0);
        }
        WorkloadKind::TopK { k } => {
            put_u8(buf, 1);
            put_u64(buf, k as u64);
        }
        WorkloadKind::Distance { d } => {
            put_u8(buf, 2);
            put_u64(buf, d as u64);
        }
        WorkloadKind::Maximize {
            k,
            boost_bits,
            candidates,
        } => {
            put_u8(buf, 3);
            put_u64(buf, k as u64);
            put_u64(buf, boost_bits);
            put_u64(buf, candidates as u64);
        }
    }
    put_u64(buf, key.epoch);
    put_u32(buf, key.s);
    put_u32(buf, key.t);
    put_u8(buf, kind_tag(key.kind));
    put_u64(buf, key.samples as u64);
    put_u64(buf, key.seed);
    put_opt_u64(buf, key.eps_bits);
    put_opt_u64(buf, key.confidence_bits);
    put_opt_u64(buf, key.time_budget_ms);

    put_f64(buf, answer.reliability);
    put_u64(buf, answer.samples as u64);
    let label = answer.estimator.as_bytes();
    put_u32(buf, label.len() as u32);
    buf.extend_from_slice(label);
    put_u8(buf, stop_tag(answer.stop_reason));
    put_opt_f64(buf, answer.half_width);
    put_opt_f64(buf, answer.variance);
    match &answer.targets {
        None => put_u8(buf, 0),
        Some(targets) => {
            put_u8(buf, 1);
            put_u32(buf, targets.len() as u32);
            for &(node, rel) in targets {
                put_u32(buf, node);
                put_f64(buf, rel);
            }
        }
    }
    // The maximize payload trails the entry only for maximize keys, so
    // files written before the workload existed still decode byte-for-
    // byte (and old readers reject new files at the workload tag, never
    // mid-entry).
    if matches!(key.workload, WorkloadKind::Maximize { .. }) {
        let m = answer
            .upgrades
            .as_ref()
            .expect("maximize entries carry their payload");
        put_f64(buf, m.base_reliability);
        put_f64(buf, m.gain);
        put_u64(buf, m.candidates as u64);
        put_u64(buf, m.evaluations as u64);
        put_u32(buf, m.chosen.len() as u32);
        for row in &m.chosen {
            put_u32(buf, row.s);
            put_u32(buf, row.t);
            put_f64(buf, row.old_prob);
            put_f64(buf, row.new_prob);
            put_f64(buf, row.gain);
            put_f64(buf, row.reliability);
        }
    }
}

fn decode_entry(r: &mut Reader<'_>) -> Result<(QueryKey, CachedAnswer), String> {
    let workload = match r.u8()? {
        0 => {
            r.u64()?;
            WorkloadKind::St
        }
        1 => WorkloadKind::TopK {
            k: r.u64()? as usize,
        },
        2 => WorkloadKind::Distance {
            d: r.u64()? as usize,
        },
        3 => WorkloadKind::Maximize {
            k: r.u64()? as usize,
            boost_bits: r.u64()?,
            candidates: r.u64()? as usize,
        },
        t => return Err(format!("bad workload tag {t}")),
    };
    let epoch = r.u64()?;
    let s = r.u32()?;
    let t = r.u32()?;
    let kind_tag = r.u8()?;
    let kind = kind_from_tag(kind_tag).ok_or_else(|| format!("bad estimator tag {kind_tag}"))?;
    let key = QueryKey {
        workload,
        epoch,
        s,
        t,
        kind,
        samples: r.u64()? as usize,
        seed: r.u64()?,
        eps_bits: r.opt_u64()?,
        confidence_bits: r.opt_u64()?,
        time_budget_ms: r.opt_u64()?,
    };

    let reliability = r.f64()?;
    let samples = r.u64()? as usize;
    let label_len = r.u32()? as usize;
    let label = std::str::from_utf8(r.take(label_len)?)
        .map_err(|_| "estimator label is not utf-8".to_string())?;
    let estimator =
        estimator_label(label).ok_or_else(|| format!("unknown estimator label `{label}`"))?;
    let stop_tag = r.u8()?;
    let stop_reason = STOP_TAGS
        .get(stop_tag as usize)
        .copied()
        .ok_or_else(|| format!("bad stop-reason tag {stop_tag}"))?;
    let half_width = r.opt_f64()?;
    let variance = r.opt_f64()?;
    let targets = match r.u8()? {
        0 => None,
        1 => {
            let n = r.u32()? as usize;
            let mut targets = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let node = r.u32()?;
                let rel = r.f64()?;
                targets.push((node, rel));
            }
            Some(targets)
        }
        t => return Err(format!("bad targets tag {t}")),
    };
    let upgrades = if matches!(key.workload, WorkloadKind::Maximize { .. }) {
        let base_reliability = r.f64()?;
        let gain = r.f64()?;
        let candidates = r.u64()? as usize;
        let evaluations = r.u64()? as usize;
        let n = r.u32()? as usize;
        let mut chosen = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            chosen.push(UpgradeRow {
                s: r.u32()?,
                t: r.u32()?,
                old_prob: r.f64()?,
                new_prob: r.f64()?,
                gain: r.f64()?,
                reliability: r.f64()?,
            });
        }
        Some(MaximizeAnswer {
            base_reliability,
            gain,
            chosen,
            candidates,
            evaluations,
        })
    } else {
        None
    };
    Ok((
        key,
        CachedAnswer {
            reliability,
            samples,
            estimator,
            stop_reason,
            half_width,
            variance,
            targets,
            upgrades,
        },
    ))
}

/// Serialize the current-epoch slice of `engine`'s cache into snapshot
/// bytes. Exposed separately from the file write for tests.
pub(crate) fn encode_snapshot(engine: &QueryEngine) -> (Vec<u8>, usize) {
    let (epoch, entries) = engine.export_cache();
    let fingerprint = graph_fingerprint(&engine.graph());
    let mut buf = Vec::with_capacity(64 + entries.len() * 96);
    buf.extend_from_slice(MAGIC);
    put_u64(&mut buf, fingerprint);
    put_u64(&mut buf, epoch);
    put_u64(&mut buf, entries.len() as u64);
    for (key, answer) in &entries {
        encode_entry(&mut buf, key, answer);
    }
    let mut h = Fnv::new();
    h.write_bytes(&buf);
    let checksum = h.finish();
    put_u64(&mut buf, checksum);
    (buf, entries.len())
}

/// A validated snapshot, ready for epoch-checked re-admission.
#[derive(Debug)]
pub(crate) struct Snapshot {
    /// Fingerprint of the graph the entries were computed on.
    pub fingerprint: u64,
    /// Epoch the flush observed; the restarted engine resumes from it.
    pub epoch: u64,
    /// The persisted entries.
    pub entries: Vec<(QueryKey, CachedAnswer)>,
}

/// Parse and validate snapshot bytes. Any structural defect — bad
/// magic, truncation, checksum mismatch, unknown tags — rejects the
/// whole file; persistence is an optimization and a suspect snapshot
/// is worth less than a cold cache.
pub(crate) fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, String> {
    if bytes.len() < MAGIC.len() + 8 * 3 + 8 {
        return Err("snapshot too short".into());
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err("bad magic (wrong file type or snapshot version)".into());
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().unwrap());
    let mut h = Fnv::new();
    h.write_bytes(body);
    if h.finish() != stored {
        return Err("checksum mismatch (corrupted snapshot)".into());
    }
    let mut r = Reader {
        bytes: body,
        pos: MAGIC.len(),
    };
    let fingerprint = r.u64()?;
    let epoch = r.u64()?;
    let count = r.u64()? as usize;
    let mut entries = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        entries.push(decode_entry(&mut r)?);
    }
    if r.pos != body.len() {
        return Err("trailing bytes after final entry".into());
    }
    Ok(Snapshot {
        fingerprint,
        epoch,
        entries,
    })
}

/// Atomically write `engine`'s warm snapshot to `path`. Returns the
/// number of entries flushed.
pub(crate) fn flush_engine(engine: &QueryEngine, path: &Path) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let (bytes, count) = encode_snapshot(engine);
    let tmp = path.with_extension("warm.tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(count)
}

/// Read, validate, and epoch-check `path` against `graph`; on success
/// returns `(epoch, entries)` for the engine to restart from. The `Err`
/// string says why the snapshot was rejected.
pub(crate) fn read_snapshot_for(
    graph: &UncertainGraph,
    path: &Path,
) -> Result<(u64, Vec<(QueryKey, CachedAnswer)>), String> {
    let bytes = fs::read(path).map_err(|e| format!("unreadable snapshot: {e}"))?;
    let snap = decode_snapshot(&bytes)?;
    let actual = graph_fingerprint(graph);
    if snap.fingerprint != actual {
        return Err(format!(
            "graph fingerprint mismatch (snapshot {:#018x}, loaded graph {:#018x})",
            snap.fingerprint, actual
        ));
    }
    Ok((snap.epoch, snap.entries))
}

/// Flush every tenant's snapshot into `dir`, logging per-tenant errors
/// without aborting the sweep.
pub(crate) fn flush_all(tenants: &TenantRegistry, dir: &Path) {
    for (name, engine) in tenants.snapshot() {
        let path = snapshot_path(dir, &name);
        if let Err(e) = flush_engine(&engine, &path) {
            eprintln!("warm-cache flush failed for `{name}`: {e}");
        }
    }
}

/// Start the periodic background flusher. It re-checks `stop` every
/// 50 ms so shutdown is prompt even with long flush intervals, and the
/// caller does one final [`flush_all`] after joining.
pub(crate) fn spawn_flusher(
    tenants: Arc<TenantRegistry>,
    config: PersistConfig,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let tick = Duration::from_millis(50);
        let mut elapsed = Duration::ZERO;
        loop {
            std::thread::sleep(tick);
            if stop.load(Ordering::Acquire) {
                return;
            }
            elapsed += tick;
            if elapsed >= config.flush_interval {
                elapsed = Duration::ZERO;
                flush_all(&tenants, &config.dir);
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::protocol::QueryRequest;
    use rand::RngCore;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use relcomp_ugraph::{GraphBuilder, NodeId};

    fn diamond() -> Arc<UncertainGraph> {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 0.8).unwrap();
        b.add_edge(NodeId(1), NodeId(3), 0.7).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 0.6).unwrap();
        Arc::new(b.build())
    }

    fn engine() -> QueryEngine {
        QueryEngine::new(
            diamond(),
            EngineConfig {
                threads: 1,
                ..EngineConfig::default()
            },
        )
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("relcomp_persist_{}_{name}", std::process::id()))
    }

    #[test]
    fn flush_restart_round_trip_is_bit_identical() {
        let e = engine();
        let first = e.execute(&QueryRequest::new(0, 3)).unwrap();
        assert!(!first.cached);
        let path = temp_path("round_trip.warm");
        let flushed = flush_engine(&e, &path).unwrap();
        assert_eq!(flushed, 1);

        // "Restart": a fresh engine over a freshly built (identical)
        // graph, seeded with the snapshot epoch.
        let (epoch, entries) = read_snapshot_for(&diamond(), &path).unwrap();
        let e2 = QueryEngine::with_epoch(
            diamond(),
            EngineConfig {
                threads: 1,
                ..EngineConfig::default()
            },
            epoch,
        );
        assert_eq!(e2.import_cache(entries), 1);
        let warm = e2.execute(&QueryRequest::new(0, 3)).unwrap();
        assert!(warm.cached, "restarted engine should hit the warm cache");
        assert_eq!(
            warm.reliability.to_bits(),
            first.reliability.to_bits(),
            "warm answer must be bit-identical to the original"
        );
        assert_eq!(warm.samples, first.samples);
        fs::remove_file(path).ok();
    }

    #[test]
    fn corrupted_snapshots_are_rejected() {
        let e = engine();
        e.execute(&QueryRequest::new(0, 3)).unwrap();
        let (bytes, _) = encode_snapshot(&e);
        // Flip one byte anywhere in the body: the checksum must catch it.
        let mut corrupt = bytes.clone();
        corrupt[MAGIC.len() + 3] ^= 0xff;
        let err = decode_snapshot(&corrupt).unwrap_err();
        assert!(err.contains("checksum"), "unexpected error: {err}");
        // Truncation is caught too (checksum no longer lines up).
        assert!(decode_snapshot(&bytes[..bytes.len() - 5]).is_err());
        // Wrong magic: rejected before anything else is believed.
        let mut wrong = bytes;
        wrong[0] = b'X';
        let err = decode_snapshot(&wrong).unwrap_err();
        assert!(err.contains("magic"), "unexpected error: {err}");
    }

    #[test]
    fn fingerprint_mismatch_rejects_snapshot() {
        let e = engine();
        e.execute(&QueryRequest::new(0, 3)).unwrap();
        let path = temp_path("fingerprint.warm");
        flush_engine(&e, &path).unwrap();
        // A different graph (one probability nudged) must not accept it.
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 0.8).unwrap();
        b.add_edge(NodeId(1), NodeId(3), 0.7).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 0.61).unwrap();
        let err = read_snapshot_for(&b.build(), &path).unwrap_err();
        assert!(err.contains("fingerprint"), "unexpected error: {err}");
        fs::remove_file(path).ok();
    }

    #[test]
    fn stale_epoch_entries_are_not_readmitted() {
        let e = engine();
        e.execute(&QueryRequest::new(0, 3)).unwrap();
        let path = temp_path("stale.warm");
        flush_engine(&e, &path).unwrap();
        let (epoch, entries) = read_snapshot_for(&diamond(), &path).unwrap();
        // The restarted engine has moved past the snapshot epoch (an
        // update replayed at boot): nothing may be admitted.
        let e2 = QueryEngine::with_epoch(diamond(), EngineConfig::default(), epoch + 1);
        assert_eq!(e2.import_cache(entries), 0);
        assert_eq!(e2.stats().cache_entries, 0);
        fs::remove_file(path).ok();
    }

    #[test]
    fn random_entries_round_trip_exactly() {
        // Property-style: arbitrary keys/answers survive encode/decode
        // bit-for-bit, including every optional field shape.
        let mut rng = ChaCha8Rng::seed_from_u64(0x9e3779b97f4a7c15);
        for _ in 0..500 {
            let workload = match rng.next_u32() % 4 {
                0 => WorkloadKind::St,
                1 => WorkloadKind::TopK {
                    k: (rng.next_u32() % 100) as usize,
                },
                2 => WorkloadKind::Distance {
                    d: (rng.next_u32() % 16) as usize,
                },
                _ => WorkloadKind::Maximize {
                    k: (rng.next_u32() % 8) as usize,
                    boost_bits: rng.next_u64(),
                    candidates: (rng.next_u32() % 64) as usize,
                },
            };
            let kind = KIND_TAGS[(rng.next_u32() % 10) as usize];
            let maybe_u64 =
                |rng: &mut ChaCha8Rng| (rng.next_u32() % 2 == 0).then(|| rng.next_u64());
            let key = QueryKey {
                workload,
                epoch: rng.next_u64(),
                s: rng.next_u32(),
                t: rng.next_u32(),
                kind,
                samples: rng.next_u32() as usize,
                seed: rng.next_u64(),
                eps_bits: maybe_u64(&mut rng),
                confidence_bits: maybe_u64(&mut rng),
                time_budget_ms: maybe_u64(&mut rng),
            };
            let targets = (rng.next_u32() % 2 == 0).then(|| {
                (0..rng.next_u32() % 8)
                    .map(|_| (rng.next_u32(), rng.next_u64() as f64 / u64::MAX as f64))
                    .collect::<Vec<_>>()
            });
            let upgrades = matches!(workload, WorkloadKind::Maximize { .. }).then(|| {
                let unit = |rng: &mut ChaCha8Rng| rng.next_u64() as f64 / u64::MAX as f64;
                MaximizeAnswer {
                    base_reliability: unit(&mut rng),
                    gain: unit(&mut rng),
                    chosen: (0..rng.next_u32() % 5)
                        .map(|_| UpgradeRow {
                            s: rng.next_u32(),
                            t: rng.next_u32(),
                            old_prob: unit(&mut rng),
                            new_prob: unit(&mut rng),
                            gain: unit(&mut rng),
                            reliability: unit(&mut rng),
                        })
                        .collect(),
                    candidates: (rng.next_u32() % 64) as usize,
                    evaluations: (rng.next_u32() % 512) as usize,
                }
            });
            let answer = CachedAnswer {
                reliability: rng.next_u64() as f64 / u64::MAX as f64,
                samples: rng.next_u32() as usize,
                estimator: kind.display_name(),
                stop_reason: STOP_TAGS[(rng.next_u32() % 4) as usize],
                half_width: maybe_u64(&mut rng).map(|v| v as f64 / u64::MAX as f64),
                variance: maybe_u64(&mut rng).map(|v| v as f64 / u64::MAX as f64),
                targets,
                upgrades,
            };
            let mut buf = Vec::new();
            encode_entry(&mut buf, &key, &answer);
            let mut r = Reader {
                bytes: &buf,
                pos: 0,
            };
            let (key2, answer2) = decode_entry(&mut r).unwrap();
            assert_eq!(key, key2);
            assert_eq!(answer, answer2);
            assert_eq!(r.pos, buf.len());
        }
    }

    #[test]
    fn fingerprint_tracks_structure_and_probabilities() {
        let a = graph_fingerprint(&diamond());
        let b = graph_fingerprint(&diamond());
        assert_eq!(a, b, "fingerprint must be deterministic");
        let mut gb = GraphBuilder::new(4);
        gb.add_edge(NodeId(0), NodeId(1), 0.9).unwrap();
        gb.add_edge(NodeId(0), NodeId(2), 0.8).unwrap();
        gb.add_edge(NodeId(1), NodeId(3), 0.7).unwrap();
        gb.add_edge(NodeId(2), NodeId(3), 0.6000000001).unwrap();
        assert_ne!(a, graph_fingerprint(&gb.build()));
    }
}
