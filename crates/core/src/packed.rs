//! Bit-packed 64-world Monte Carlo sampling.
//!
//! The paper's central finding is that world *sampling* dominates
//! end-to-end cost for every s-t reliability estimator. This module
//! amortizes that cost 64 ways: each pass samples 64 possible worlds into
//! per-edge `u64` masks (bit `b` = world `b`) and runs one word-parallel
//! BFS over all of them at once (see
//! [`relcomp_ugraph::traversal::word_reach`]).
//!
//! Two mask generators, chosen per edge by [`sample_mask`]:
//!
//! * **Dense bit-compare** (`p > `[`GEOMETRIC_THRESHOLD`]): compare a
//!   uniform bitstream against fixed-point `p` word-parallel, most
//!   significant bit first. Each `next_u64` draw supplies one comparison
//!   bit to all 64 worlds and halves the undecided set, so a full mask
//!   costs ~2 draws in expectation plus one per tie-break round (~8 total
//!   worst-typical) instead of 64 scalar coins.
//! * **Geometric jump** (`p <= `[`GEOMETRIC_THRESHOLD`]): walk the 64 world
//!   bits by sampling the gap to the next *surviving* world from
//!   Geometric(p) — expected `64 p + 1` draws, so rarely-existing edges
//!   cost almost nothing.
//!
//! Masks are generated **lazily and partially** during traversal (the
//! packed analogue of Algorithm 1's lazy edge instantiation): when the
//! BFS probes an edge, only the world bits the traversal can actually use
//! — the candidate set, minus bits already decided earlier in the batch —
//! are drawn, and [`MaskCache`] remembers the decisions for the batch's
//! remainder. Generation cost is therefore proportional to the *useful*
//! probes across the 64 worlds, not to `m` and not even to 64 bits per
//! touched edge. On graphs near the percolation threshold (mean offspring
//! ≈ 1, e.g. `p = 1/out_degree` assignments) this matters a lot: the 64
//! worlds overlap little, and drawing full words would cost *more*
//! randomness than 64 scalar samples. That is the **lazy** strategy.
//!
//! An s-t pass searches from both ends, forward from `s` and backward
//! from `t`, and settles each world where the two searches meet or one
//! runs out ([`relcomp_ugraph::traversal::word_reach`]). Both searches
//! probe an edge through the same [`MaskCache`] slot, so each (world,
//! edge) pair still gets exactly one Bernoulli draw. Which search probes
//! an edge first decides which draws of the pass's stream its bits take,
//! so a seeded lazy s-t answer depends on the probe order, while its law
//! does not. Hit counts come from the target word the kernel returns.
//!
//! Supercritical graphs (mean offspring ≥ [`DENSE_OFFSPRING_THRESHOLD`],
//! see [`dense_strategy`]) take the **dense** strategy instead: every
//! sampled world holds a giant component, so a batch touches most edges
//! anyway. There up to [`LANES`] 64-world lanes share one fixed-point
//! sweep ([`relcomp_ugraph::traversal::lane_reach`]) that pays each
//! visit's adjacency walk and bookkeeping once for all lanes. An edge's
//! lane masks are drawn whole on its first touch, the lanes' SplitMix64
//! chains interleaved, and each lane's mask comes from a stream keyed by
//! `(lane seed, edge)` — so it does not depend on the order in which the
//! sweep touches edges.
//!
//! In-batch mask randomness comes from a [`SplitMix64`] stream seeded
//! with one draw of the session's primary RNG per batch, so the primary
//! stream advances by exactly one word per 64 worlds regardless of
//! traversal shape.
//!
//! # Determinism contract
//!
//! A packed pass consumes one `next_u64` of the session's primary stream
//! per 64 worlds or part of them: a lazy pass one (its in-pass
//! [`SplitMix64`] seed), a dense lane pass one per lane (the lane seed).
//! The pass is one indivisible draw: results are deterministic in
//! `(graph, s, t, seed)` but the stream differs from scalar samples. The
//! last word of a pass may be partial (fewer than 64 live worlds): it
//! still consumes one `next_u64` and draws only the live worlds' bits.
//! The served [`ParallelSampler`](crate::parallel::ParallelSampler) ends
//! each shard that way, so a shard of `len` worlds consumes
//! `len.div_ceil(64)` words in either strategy and no served world is
//! scalar. [`PackedMcSampling`] runs each session batch the same way, so
//! none of its worlds is scalar either. ProbTree with MC takes lazy passes
//! over its query view of the index, an [`EdgeView`] with one mask slot
//! per raw and virtual edge.
//!
//! Lane `j`'s mask for edge `e` is [`sample_mask`] on a [`SplitMix64`]
//! keyed by `(seed_j, e)`, a pure function of those two values: an
//! `L`-lane pass equals `L` one-lane passes bit for bit, and a one-lane
//! pass is the dense strategy's 64-world batch. A dense s-t pass's answer
//! therefore does not depend on the sweeps' direction either: the
//! two-ended lane sweep answers what a forward-only sweep would.

use crate::estimator::{validate_query, Estimate, Estimator, UpdateOutcome};
use crate::memory::MemoryTracker;
use crate::session::{EstimationSession, SampleBudget};
use rand::{Rng, RngCore};
use relcomp_ugraph::traversal::{
    lane_reach, word_reach, EdgeView, LaneBfsWorkspace, ReachView, WordBfsWorkspace,
    WORLD_WORD_BITS,
};
use relcomp_ugraph::{EdgeId, EdgeUpdate, NodeId, UncertainGraph};
use std::sync::Arc;

/// Worlds per packed batch (the `u64` word width).
pub const WORLD_BATCH: usize = WORLD_WORD_BITS;

/// Edge probability at or below which [`sample_mask`] switches from the
/// dense bit-compare fill to geometric-jump skipping.
///
/// The two paths cost differently per *variate*, not just per word: the
/// dense fill burns ~8 raw draws regardless of `p` (the undecided set
/// halves per draw), while each geometric jump pays for a draw plus an
/// `ln()` and a division — roughly five times a raw [`SplitMix64`] draw.
/// With `64 p + 1` jumps per word, skipping only beats the fixed-cost
/// dense fill for `p` ≲ 0.02; below that its cost keeps falling linearly
/// in `p`, which is where rarely-existing edges become near-free.
pub const GEOMETRIC_THRESHOLD: f64 = 0.02;

/// Process-wide `(packed, scalar)` world-sample counts since start, from
/// the `relcomp-obs` registry that `stats` and `metrics` also read.
///
/// Packed counts cover every world drawn through the mask kernels: each
/// pass counts its worlds, partial last words and lanes included, and so
/// does each served BFS-Sharing shard. Scalar counts cover plain
/// [`McSampling`](crate::mc::McSampling), one world at a time.
pub fn sample_counts() -> (u64, u64) {
    relcomp_obs::sample_counts()
}

/// `p` as a 64-bit fixed-point fraction (saturating; exact for dyadic
/// `p`): the threshold every bitwise and per-bit Bernoulli draw compares
/// uniform words against.
#[inline]
fn fixed_point(p: f64) -> u64 {
    (p * (u64::MAX as f64 + 1.0)) as u64
}

/// One 64-world existence mask via the dense bit-compare fill: bit `b` is
/// set with probability `p` (to within fixed-point `2^-64` resolution),
/// independently across bits. Exactly equivalent to comparing 64
/// independent uniform bitstreams against `p`, most significant bit first.
pub fn dense_mask<R: Rng + ?Sized>(rng: &mut R, p: f64) -> u64 {
    if p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return !0;
    }
    let p_fixed = fixed_point(p);
    let mut undecided = !0u64;
    let mut mask = 0u64;
    for j in (0..64).rev() {
        let r = rng.next_u64();
        // Branch-free select on bit `j` of p: the bit values are as good
        // as random across edges, so a data branch here mispredicts half
        // the time and costs more than both arms. With p's bit set,
        // worlds whose uniform bit is 0 are strictly below p; with it
        // clear, worlds whose uniform bit is 1 are strictly above.
        let sel = ((p_fixed >> j) & 1).wrapping_neg();
        mask |= undecided & !r & sel;
        undecided &= r ^ !sel;
        if undecided == 0 {
            break;
        }
    }
    // Exhausting all 64 bits means uniform == p exactly: not below p.
    mask
}

/// One 64-world existence mask via geometric-jump skipping: jump from one
/// surviving world to the next with Geometric(p) gaps. Distributionally
/// identical to [`dense_mask`] (each bit is an independent Bernoulli(p))
/// but costs `64 p + 1` variates in expectation — the win for small `p`.
pub fn geometric_mask<R: Rng + ?Sized>(rng: &mut R, p: f64) -> u64 {
    if p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return !0;
    }
    // Inverse-CDF jumps as in [`crate::sampler::geometric`], with
    // `ln(1 - p)` hoisted out of the loop: recomputing it per jump
    // doubles the `ln` count, which is most of a jump's cost at small p.
    let denom = (1.0 - p).ln();
    let mut mask = 0u64;
    let mut pos = 0u64;
    loop {
        let u: f64 = 1.0 - rng.gen::<f64>(); // in (0, 1]
        pos += (u.ln() / denom) as u64; // floor; saturating cast guards huge jumps
        if pos >= WORLD_BATCH as u64 {
            break;
        }
        mask |= 1u64 << pos;
        pos += 1;
    }
    mask
}

/// One 64-world existence mask for an edge with probability `p`,
/// dispatching to [`geometric_mask`] below [`GEOMETRIC_THRESHOLD`] and
/// [`dense_mask`] above it.
#[inline]
pub fn sample_mask<R: Rng + ?Sized>(rng: &mut R, p: f64) -> u64 {
    if p <= GEOMETRIC_THRESHOLD {
        geometric_mask(rng, p)
    } else {
        dense_mask(rng, p)
    }
}

/// The cheap in-batch generator behind packed mask drawing (SplitMix64).
///
/// Each packed 64-world batch seeds one `SplitMix64` from a single
/// `next_u64` of the session's primary stream and draws all of the
/// batch's mask randomness from it. Two wins: the primary stream advances
/// by exactly one word per batch regardless of traversal shape, and each
/// variate costs one add plus three xor-shift-multiplies — a fraction of
/// a buffered ChaCha8 word. The packed kernels are draw-bound on dense
/// graphs, so the cheaper generator is a measured part of the per-sample
/// speedup. SplitMix64 is statistically solid for Monte Carlo use;
/// nothing here needs a cryptographic stream.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded with `seed` (all seeds are valid, including 0).
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl RngCore for SplitMix64 {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Per-bit coin threshold: candidate sets with fewer undecided bits than
/// this are drawn bit-by-bit (one variate per bit); at or above it the
/// whole word is settled by [`sample_mask`], whose ~8-draw dense fill
/// beats 8+ individual coins.
const PER_BIT_LIMIT: u32 = 8;

/// Lazy per-batch cache of *partially drawn* edge masks.
///
/// The word-parallel BFS probes an edge with a candidate world-set (the
/// worlds that would newly cross it). Drawing the full 64-world mask on
/// first probe spends randomness on worlds that never reach the edge —
/// near the percolation threshold that more than doubles the draw count
/// and makes packing slower than scalar sampling. Instead the cache
/// tracks per edge which world bits are *decided* and which of those
/// survived, and a probe draws only `cand & !decided`:
///
/// * fewer than `PER_BIT_LIMIT` undecided bits: branchless per-bit
///   coins, one variate per bit;
/// * otherwise the rest of the word is settled at once by
///   [`sample_mask`] (dense fill or geometric jumps).
///
/// Re-probes replay decided bits, so an edge stays consistent across the
/// 64 worlds within a batch. Reset is O(edges touched), not O(m):
/// `begin_batch` clears only the edges the previous batch drew.
#[derive(Clone, Debug)]
pub struct MaskCache {
    /// Per-edge `(decided, mask)` pairs, interleaved so a probe's two
    /// random-access words share one cache line — on sparse-regime graphs
    /// the lazy path is probe-bound and the split-array layout paid two
    /// cache misses per first touch.
    slots: Vec<MaskSlot>,
    touched: Vec<EdgeId>,
}

/// One edge's lazy-draw state: which world bits are decided, and which of
/// the decided bits survived.
#[derive(Clone, Copy, Debug, Default)]
struct MaskSlot {
    decided: u64,
    mask: u64,
}

impl MaskCache {
    /// Cache for a graph with `m` edges.
    pub fn new(m: usize) -> Self {
        MaskCache {
            slots: vec![MaskSlot::default(); m],
            touched: Vec::new(),
        }
    }

    /// Start a fresh 64-world batch, forgetting the previous batch's
    /// decisions in O(edges touched), not O(m): only the edges the
    /// previous batch drew are cleared. When the previous batch touched
    /// most of the graph (the dense regime) a wholesale memset beats the
    /// scattered per-edge writes.
    #[inline]
    pub fn begin_batch(&mut self) {
        if self.touched.len() * 2 >= self.slots.len() {
            self.slots.fill(MaskSlot::default());
        } else {
            for &e in &self.touched {
                self.slots[e.index()] = MaskSlot::default();
            }
        }
        self.touched.clear();
    }

    /// The edge's existence mask restricted to the candidate worlds
    /// `cand`, drawing any not-yet-decided candidate bits now. Decided
    /// bits replay their earlier outcome, so probes compose into one
    /// consistent 64-world mask per edge per batch.
    #[inline]
    pub fn probe<R: Rng + ?Sized>(&mut self, e: EdgeId, p: f64, cand: u64, rng: &mut R) -> u64 {
        let slot = &mut self.slots[e.index()];
        let undecided = cand & !slot.decided;
        if undecided != 0 {
            if slot.decided == 0 {
                self.touched.push(e);
            }
            if undecided.count_ones() < PER_BIT_LIMIT && p > 0.0 && p < 1.0 {
                // Branchless Bernoulli(p) per candidate bit: set the bit
                // when a fresh uniform word falls below fixed-point p —
                // the same accept rule the dense fill resolves bitwise.
                let p_fixed = fixed_point(p);
                let mut drawn = 0u64;
                let mut bits = undecided;
                while bits != 0 {
                    let b = bits & bits.wrapping_neg();
                    drawn |= b & ((rng.next_u64() < p_fixed) as u64).wrapping_neg();
                    bits ^= b;
                }
                slot.mask |= drawn;
                slot.decided |= undecided;
            } else {
                // Settle every still-undecided bit of the word in one go;
                // previously decided bits keep their recorded outcome.
                slot.mask |= sample_mask(rng, p) & !slot.decided;
                slot.decided = !0;
            }
        }
        slot.mask & cand
    }

    /// Approximate resident bytes (for memory accounting).
    pub fn resident_bytes(&self) -> usize {
        self.slots.len() * 16 + self.touched.capacity() * std::mem::size_of::<EdgeId>()
    }
}

/// Mean percolation offspring number (sum of edge probabilities over node
/// count) at or above which [`dense_strategy`] picks the dense batch
/// strategy. Above ~1 a sampled world has a giant component, batches
/// touch most edges, and full-word draws + a CSR sweep beat lazy probing;
/// well below 1 worlds are shards and lazy probing skips most of the graph.
pub const DENSE_OFFSPRING_THRESHOLD: f64 = 1.25;

/// Whether `graph` takes the dense batch strategy: its mean offspring
/// number is at least [`DENSE_OFFSPRING_THRESHOLD`]. A pure function of
/// the graph — never of batch history — so estimates stay deterministic
/// per seed and [`ParallelSampler`](crate::parallel::ParallelSampler)
/// results stay bit-identical across thread counts. O(m).
pub fn dense_strategy(graph: &UncertainGraph) -> bool {
    let offspring: f64 =
        graph.edges().map(|(_, _, _, p)| p.value()).sum::<f64>() / graph.num_nodes().max(1) as f64;
    offspring >= DENSE_OFFSPRING_THRESHOLD
}

/// 64-world lanes per dense pass: one
/// [`SHARD_SAMPLES`](crate::parallel::SHARD_SAMPLES)-world parallel shard
/// runs as a single lane sweep.
pub const LANES: usize = crate::parallel::SHARD_SAMPLES / WORLD_BATCH;

/// Odd multiplier that spreads edge ids across SplitMix64 states.
const EDGE_KEY: u64 = 0xD1B5_4A32_D192_ED03;

/// The stream a lane seeded with `seed` draws edge `e`'s mask from. Keyed
/// by `(seed, e)` alone, so a mask never depends on which edges a pass
/// touched before it.
#[inline]
fn edge_stream(seed: u64, e: EdgeId) -> SplitMix64 {
    SplitMix64::new(seed ^ (e.index() as u64).wrapping_mul(EDGE_KEY))
}

/// Edge `e`'s existence masks in the first `lanes` lanes of a dense pass:
/// lane `j` is [`sample_mask`] of probability `p` on
/// `edge_stream(seeds[j], e)`, bit for bit. Dense fills run the lanes'
/// SplitMix64 chains side by side, one bit-compare round for every lane
/// at once; a lane that has settled keeps drawing but no longer changes,
/// exactly as [`dense_mask`] would have stopped. Lanes at or past `lanes`
/// stay zero.
fn lane_masks(seeds: &[u64; LANES], lanes: usize, e: EdgeId, p: f64) -> [u64; LANES] {
    let mut out = [0u64; LANES];
    if p <= 0.0 {
        return out;
    }
    if p >= 1.0 {
        out[..lanes].fill(!0);
        return out;
    }
    let mut rngs: [SplitMix64; LANES] = std::array::from_fn(|j| edge_stream(seeds[j], e));
    if p <= GEOMETRIC_THRESHOLD {
        for (mask, rng) in out.iter_mut().zip(&mut rngs).take(lanes) {
            *mask = geometric_mask(rng, p);
        }
        return out;
    }
    let p_fixed = fixed_point(p);
    let mut undecided: [u64; LANES] = std::array::from_fn(|j| if j < lanes { !0 } else { 0 });
    for b in (0..64).rev() {
        let sel = ((p_fixed >> b) & 1).wrapping_neg();
        let mut open = 0u64;
        for j in 0..LANES {
            let r = rngs[j].next_u64();
            out[j] |= undecided[j] & !r & sel;
            undecided[j] &= r ^ !sel;
            open |= undecided[j];
        }
        if open == 0 {
            break;
        }
    }
    out
}

/// Dense-strategy state: the lane sweep's per-node reach lanes, plus each
/// edge's lane masks for the current pass, drawn on first touch.
#[derive(Clone, Debug)]
struct DenseLanes {
    sweep: LaneBfsWorkspace<LANES>,
    masks: Vec<[u64; LANES]>,
    /// One bit per edge, set once the edge's masks are drawn this pass.
    drawn: Vec<u64>,
}

impl DenseLanes {
    fn new(n: usize, m: usize) -> Self {
        DenseLanes {
            sweep: LaneBfsWorkspace::new(n),
            masks: vec![[0; LANES]; m],
            drawn: vec![0; m.div_ceil(64)],
        }
    }

    fn bytes_for(n: usize, m: usize) -> usize {
        LaneBfsWorkspace::<LANES>::bytes_for(n) + m * LANES * 8 + m.div_ceil(64) * 8
    }

    fn resident_bytes(&self) -> usize {
        self.sweep.resident_bytes() + (self.masks.len() * LANES + self.drawn.len()) * 8
    }
}

/// Lazy-strategy state: the frontier walks' word workspace and the
/// partial edge-mask cache.
#[derive(Clone, Debug)]
struct LazyWalk {
    words: WordBfsWorkspace,
    masks: MaskCache,
}

impl LazyWalk {
    fn new(n: usize, m: usize) -> Self {
        LazyWalk {
            words: WordBfsWorkspace::new(n),
            masks: MaskCache::new(m),
        }
    }

    fn bytes_for(n: usize, m: usize) -> usize {
        WordBfsWorkspace::bytes_for(n) + m * 16
    }

    fn resident_bytes(&self) -> usize {
        self.words.resident_bytes() + self.masks.resident_bytes()
    }
}

/// Reusable state for packed sampling over one graph, in the batch
/// strategy chosen for it: the lazy frontier walks' state, or the dense
/// strategy's lane arrays.
#[derive(Clone, Debug)]
pub struct PackedWorkspace {
    n: usize,
    m: usize,
    /// Built up front in the lazy strategy; in the dense one only if a
    /// hop-capped walk ([`packed_hits_within`]) runs.
    lazy: Option<LazyWalk>,
    /// Present exactly in the dense strategy.
    lanes: Option<DenseLanes>,
}

impl PackedWorkspace {
    /// Workspace for a graph with `n` nodes and `m` edges, using the lazy
    /// (sparse-regime) batch strategy.
    pub fn new(n: usize, m: usize) -> Self {
        Self::with_strategy(n, m, false)
    }

    /// Workspace for a graph with `n` nodes and `m` edges, using the dense
    /// batch strategy when `dense` holds (see [`dense_strategy`]).
    pub fn with_strategy(n: usize, m: usize, dense: bool) -> Self {
        PackedWorkspace {
            n,
            m,
            lazy: (!dense).then(|| LazyWalk::new(n, m)),
            lanes: dense.then(|| DenseLanes::new(n, m)),
        }
    }

    /// Workspace sized for `graph`, with the batch strategy
    /// [`dense_strategy`] picks for it. Both strategies draw each edge's
    /// existence from the same per-edge Bernoulli, so only speed (and
    /// which equally-distributed worlds a given seed yields) differs.
    pub fn for_graph(graph: &UncertainGraph) -> Self {
        Self::with_strategy(graph.num_nodes(), graph.num_edges(), dense_strategy(graph))
    }

    /// Re-pick the batch strategy for `graph` (same node and edge
    /// counts), e.g. after live probability updates shift the offspring
    /// number across the threshold. O(m).
    pub fn retune(&mut self, graph: &UncertainGraph) {
        self.set_dense(dense_strategy(graph));
    }

    fn set_dense(&mut self, dense: bool) {
        if dense != self.dense_mode() {
            *self = Self::with_strategy(self.n, self.m, dense);
        }
    }

    /// Whether this workspace uses the dense (lane sweep) batch strategy
    /// for s-t and full-reachability batches.
    pub fn dense_mode(&self) -> bool {
        self.lanes.is_some()
    }

    fn lazy_walk(&mut self) -> &mut LazyWalk {
        let (n, m) = (self.n, self.m);
        self.lazy.get_or_insert_with(|| LazyWalk::new(n, m))
    }

    /// Approximate resident bytes (for memory accounting).
    pub fn resident_bytes(&self) -> usize {
        self.lazy.as_ref().map_or(0, LazyWalk::resident_bytes)
            + self.lanes.as_ref().map_or(0, DenseLanes::resident_bytes)
    }

    /// Resident bytes a fresh workspace in the given strategy would hold,
    /// without allocating one.
    pub fn bytes_for(n: usize, m: usize, dense: bool) -> usize {
        if dense {
            DenseLanes::bytes_for(n, m)
        } else {
            LazyWalk::bytes_for(n, m)
        }
    }
}

/// Sizes of the passes `worlds` worlds split into at `width` worlds each:
/// full passes, then a partial last one.
fn pass_sizes(worlds: usize, width: usize) -> impl Iterator<Item = usize> {
    (0..worlds)
        .step_by(width)
        .map(move |done| (worlds - done).min(width))
}

/// Sample `worlds` fresh worlds in packed passes of the workspace's batch
/// strategy, compute full reachability from `s` in each, and hand each
/// pass's per-node reach to `visit`: one lane pass per [`LANES`] × 64
/// worlds in the dense strategy, one lazy pass per 64 worlds in the lazy
/// one, a remainder forming a partial last pass. Each pass consumes one
/// `next_u64` of `rng` per 64 worlds or part of them, so `worlds` worlds
/// consume `worlds.div_ceil(64)` in either strategy.
pub(crate) fn packed_passes<R: Rng + ?Sized>(
    graph: &UncertainGraph,
    s: NodeId,
    worlds: usize,
    ws: &mut PackedWorkspace,
    rng: &mut R,
    mut visit: impl FnMut(&dyn ReachView),
) {
    if ws.dense_mode() {
        for n in pass_sizes(worlds, LANES * WORLD_BATCH) {
            visit(lane_pass(graph, s, None, n, ws, rng).1);
        }
    } else {
        for n in pass_sizes(worlds, WORLD_BATCH) {
            visit(lazy_pass(graph, s, None, None, n, ws, rng).1);
        }
    }
}

/// Number of `worlds` fresh worlds in which `t` is reachable from `s`,
/// sampled in the same passes as [`packed_passes`] (same stream use), each
/// searching from both ends and counted from the target's returned word.
pub(crate) fn packed_hits<R: Rng + ?Sized>(
    graph: &UncertainGraph,
    s: NodeId,
    t: NodeId,
    worlds: usize,
    ws: &mut PackedWorkspace,
    rng: &mut R,
) -> usize {
    if !ws.dense_mode() {
        return packed_hits_within(graph, s, t, None, worlds, ws, rng);
    }
    pass_sizes(worlds, LANES * WORLD_BATCH)
        .map(|n| {
            let (hits, _) = lane_pass(graph, s, Some(t), n, ws, rng);
            hits.iter().map(|w| w.count_ones() as usize).sum::<usize>()
        })
        .sum()
}

/// Number of `worlds` fresh worlds in which `t` is within `d` hops of `s`
/// in `view` (any number of hops for `d = None`), in lazy passes of up to
/// 64 worlds that consume one `next_u64` of `rng` each, whatever the
/// workspace's strategy. The distance-constrained workload's `R_d` caps
/// the hops, so a pass touches little of the graph; ProbTree walks its
/// query view, whose edges no lane pass covers.
pub(crate) fn packed_hits_within<V: EdgeView, R: Rng + ?Sized>(
    view: &V,
    s: NodeId,
    t: NodeId,
    d: Option<usize>,
    worlds: usize,
    ws: &mut PackedWorkspace,
    rng: &mut R,
) -> usize {
    pass_sizes(worlds, WORLD_BATCH)
        .map(|n| lazy_pass(view, s, Some(t), d, n, ws, rng).0.count_ones() as usize)
        .sum()
}

/// One lazy pass over `worlds` fresh worlds (`1..=64`): world `b` is bit
/// `b` of one word, a pass below 64 worlds leaving the high bits unused.
/// The pass's masks come from a [`SplitMix64`] seeded with one `next_u64`
/// of `rng`, drawn edge by edge as the walk first needs each world bit
/// ([`MaskCache`], one slot per id of `view`, shared by the forward and
/// backward searches); `t` and `max_hops` are [`word_reach`]'s. Returns
/// [`word_reach`]'s word with the workspace holding the pass's forward
/// reach. A whole-word pass is the lazy strategy's 64-world batch, bit
/// for bit.
pub(crate) fn lazy_pass<'a, V: EdgeView, R: Rng + ?Sized>(
    view: &V,
    s: NodeId,
    t: Option<NodeId>,
    max_hops: Option<usize>,
    worlds: usize,
    ws: &'a mut PackedWorkspace,
    rng: &mut R,
) -> (u64, &'a WordBfsWorkspace) {
    assert!(
        (1..=WORLD_BATCH).contains(&worlds),
        "a lazy pass covers 1..={WORLD_BATCH} worlds, not {worlds}"
    );
    let LazyWalk { words, masks } = ws.lazy_walk();
    let mut mask_rng = SplitMix64::new(rng.next_u64());
    masks.begin_batch();
    let live = !0u64 >> (WORLD_BATCH - worlds);
    let hits = word_reach(view, s, t, max_hops, live, words, |e, cand| {
        masks.probe(e, view.edge_prob(e), cand, &mut mask_rng)
    });
    relcomp_obs::note_packed_samples(worlds as u64);
    (hits, words)
}

/// One dense pass over `worlds` fresh worlds (`1..=LANES × 64`): worlds
/// `64 j..64 j + 64` form lane `j`, whose seed is the `j`-th `next_u64` of
/// `rng`, and a `worlds % 64` remainder forms a partial last lane whose
/// live word holds only its low bits. Lane `j`'s mask for edge `e` is a
/// pure function of `(seed_j, e)`, so a pass equals one one-lane pass per
/// lane bit for bit, and its target lanes do not depend on the sweeps'
/// direction. Returns [`lane_reach`]'s target lanes with the workspace
/// holding the pass's forward reach. Panics unless `ws` is in the dense
/// strategy.
fn lane_pass<'a, R: Rng + ?Sized>(
    graph: &UncertainGraph,
    s: NodeId,
    t: Option<NodeId>,
    worlds: usize,
    ws: &'a mut PackedWorkspace,
    rng: &mut R,
) -> ([u64; LANES], &'a LaneBfsWorkspace<LANES>) {
    assert!(
        (1..=LANES * WORLD_BATCH).contains(&worlds),
        "a lane pass covers 1..={} worlds, not {worlds}",
        LANES * WORLD_BATCH
    );
    let DenseLanes {
        sweep,
        masks,
        drawn,
    } = ws
        .lanes
        .as_mut()
        .expect("lane passes need a dense-strategy workspace");
    let lanes = worlds.div_ceil(WORLD_BATCH);
    let mut seeds = [0u64; LANES];
    let mut live = [0u64; LANES];
    for j in 0..lanes {
        seeds[j] = rng.next_u64();
        live[j] = !0;
    }
    if worlds % WORLD_BATCH != 0 {
        live[lanes - 1] = (1u64 << (worlds % WORLD_BATCH)) - 1;
    }
    drawn.fill(0);
    let hits = lane_reach(graph, s, t, live, sweep, |e| {
        let (i, bit) = (e.index() / 64, 1u64 << (e.index() % 64));
        if drawn[i] & bit == 0 {
            drawn[i] |= bit;
            masks[e.index()] = lane_masks(&seeds, lanes, e, graph.prob(e).value());
        }
        masks[e.index()]
    });
    relcomp_obs::note_packed_samples(worlds as u64);
    (hits, sweep)
}

/// Sample `worlds` fresh worlds (`1..=LANES × 64`) in one dense lane pass
/// and return `t`'s reach lanes: bit `b` of lane `j` is set when `t` is
/// reachable from `s` in world `64 j + b`, and bits past `worlds` are
/// zero. Consumes `worlds.div_ceil(64)` `next_u64`s of `rng`, one lane
/// seed each. The sweeps search from both ends, and a world stops once
/// the two searches meet or either runs out. Panics unless `ws` is in the
/// dense strategy.
pub fn packed_lanes_st<R: Rng + ?Sized>(
    graph: &UncertainGraph,
    s: NodeId,
    t: NodeId,
    worlds: usize,
    ws: &mut PackedWorkspace,
    rng: &mut R,
) -> [u64; LANES] {
    lane_pass(graph, s, Some(t), worlds, ws, rng).0
}

/// Sample `worlds` fresh worlds (`1..=LANES × 64`) in one dense lane pass
/// and compute full reachability from `s` in each: the returned
/// workspace's `reach()` lanes and `reached_nodes()` union back top-k
/// scoring and served BFS-Sharing. Same stream use as
/// [`packed_lanes_st`]; the source holds exactly the pass's worlds.
/// Panics unless `ws` is in the dense strategy.
pub fn packed_lanes_all<'a, R: Rng + ?Sized>(
    graph: &UncertainGraph,
    s: NodeId,
    worlds: usize,
    ws: &'a mut PackedWorkspace,
    rng: &mut R,
) -> &'a LaneBfsWorkspace<LANES> {
    lane_pass(graph, s, None, worlds, ws, rng).1
}

/// Monte Carlo s-t estimator running the packed 64-world kernel inside the
/// standard [`SampleBudget`] session loop.
///
/// Each session batch runs as packed passes: lane passes of up to
/// [`LANES`] words each on dense-strategy graphs, one lazy pass per word
/// otherwise, a batch that is not a multiple of 64 ending in a partial
/// word. Adaptive stopping is checked at batch boundaries.
pub struct PackedMcSampling {
    graph: Arc<UncertainGraph>,
    ws: PackedWorkspace,
}

impl PackedMcSampling {
    /// Create a packed MC estimator over `graph`.
    pub fn new(graph: Arc<UncertainGraph>) -> Self {
        let ws = PackedWorkspace::for_graph(&graph);
        PackedMcSampling { graph, ws }
    }
}

impl Estimator for PackedMcSampling {
    fn name(&self) -> &'static str {
        // The packed kernel is an implementation of plain MC sampling —
        // same estimator in the paper's tables, faster per world.
        "MC"
    }

    fn estimate_with(
        &mut self,
        s: NodeId,
        t: NodeId,
        budget: &SampleBudget,
        rng: &mut dyn RngCore,
    ) -> Estimate {
        validate_query(&self.graph, s, t);
        let session = EstimationSession::begin(budget);
        let mut mem = MemoryTracker::new();
        mem.baseline(self.ws.resident_bytes());
        let (graph, ws) = (&self.graph, &mut self.ws);
        session.run_batches(&mem, |n| packed_hits(graph, s, t, n, ws, rng))
    }

    fn apply_updates(
        &mut self,
        graph: &Arc<UncertainGraph>,
        _updates: &[EdgeUpdate],
        _rng: &mut dyn RngCore,
    ) -> UpdateOutcome {
        if graph.num_nodes() != self.graph.num_nodes()
            || graph.num_edges() != self.graph.num_edges()
        {
            return UpdateOutcome::Rebuild;
        }
        self.graph = Arc::clone(graph);
        // Probability updates can move the offspring number across the
        // dense threshold; the strategy must stay a pure function of the
        // graph being sampled.
        self.ws.retune(&self.graph);
        UpdateOutcome::Rebound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_reliability;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use relcomp_ugraph::GraphBuilder;

    fn diamond() -> Arc<UncertainGraph> {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 0.8).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 0.6).unwrap();
        b.add_edge(NodeId(1), NodeId(3), 0.7).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 0.5).unwrap();
        Arc::new(b.build())
    }

    #[test]
    fn dense_mask_frequency_matches_p() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for &p in &[0.15, 0.5, 0.85] {
            let n = 20_000;
            let ones: u32 = (0..n).map(|_| dense_mask(&mut rng, p).count_ones()).sum();
            let freq = ones as f64 / (n as f64 * 64.0);
            assert!((freq - p).abs() < 0.01, "p={p}: freq {freq}");
        }
    }

    #[test]
    fn geometric_mask_frequency_matches_p() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for &p in &[0.01, 0.05, 0.1] {
            let n = 40_000;
            let ones: u32 = (0..n)
                .map(|_| geometric_mask(&mut rng, p).count_ones())
                .sum();
            let freq = ones as f64 / (n as f64 * 64.0);
            assert!((freq - p).abs() < 0.005, "p={p}: freq {freq}");
        }
    }

    #[test]
    fn masks_handle_degenerate_probabilities() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert_eq!(dense_mask(&mut rng, 0.0), 0);
        assert_eq!(dense_mask(&mut rng, 1.0), !0);
        assert_eq!(geometric_mask(&mut rng, 0.0), 0);
        assert_eq!(geometric_mask(&mut rng, 1.0), !0);
    }

    #[test]
    fn dense_mask_bit_positions_are_unbiased() {
        // Every bit position should carry probability p, not just the
        // aggregate popcount.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let p = 0.3;
        let n = 50_000;
        let mut per_bit = [0u32; 64];
        for _ in 0..n {
            let m = dense_mask(&mut rng, p);
            for (b, slot) in per_bit.iter_mut().enumerate() {
                *slot += ((m >> b) & 1) as u32;
            }
        }
        for (b, &ones) in per_bit.iter().enumerate() {
            let freq = ones as f64 / n as f64;
            assert!((freq - p).abs() < 0.02, "bit {b}: freq {freq}");
        }
    }

    #[test]
    fn mask_cache_replays_within_a_batch_and_refreshes_across() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut cache = MaskCache::new(2);
        cache.begin_batch();
        let a = cache.probe(EdgeId(0), 0.5, !0, &mut rng);
        let b = cache.probe(EdgeId(0), 0.5, !0, &mut rng);
        assert_eq!(a, b, "same batch must replay the decided mask");
        // A narrower re-probe replays the matching slice.
        let lo = cache.probe(EdgeId(0), 0.5, 0xFFFF, &mut rng);
        assert_eq!(lo, a & 0xFFFF);
        cache.begin_batch();
        let c = cache.probe(EdgeId(0), 0.5, !0, &mut rng);
        // With overwhelming probability a fresh 64-bit draw differs.
        assert_ne!(a, c, "new batch must redraw");
    }

    #[test]
    fn mask_cache_partial_probes_compose_consistently() {
        // Probing world subsets in pieces (exercising both the per-bit
        // coin path and the full-word settle path) must agree with the
        // union probe of the same batch.
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let mut cache = MaskCache::new(1);
        for p in [0.015, 0.3, 0.9] {
            cache.begin_batch();
            let few = cache.probe(EdgeId(0), p, 0b101, &mut rng); // per-bit path
            let more = cache.probe(EdgeId(0), p, 0xFF00, &mut rng); // full-word path
            let all = cache.probe(EdgeId(0), p, !0, &mut rng);
            assert_eq!(all & 0b101, few, "p={p}");
            assert_eq!(all & 0xFF00, more, "p={p}");
        }
    }

    #[test]
    fn mask_cache_partial_probes_are_unbiased() {
        // Per-bit frequency must stay p whether bits are drawn by the
        // branchless coin path or the full-word generators.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut cache = MaskCache::new(1);
        let p = 0.3;
        let n = 30_000;
        let mut ones = 0u64;
        for _ in 0..n {
            cache.begin_batch();
            // Three-bit probe first (coin path), then the remainder.
            let lo = cache.probe(EdgeId(0), p, 0b111, &mut rng);
            let hi = cache.probe(EdgeId(0), p, !0b111, &mut rng);
            ones += u64::from((lo | hi).count_ones());
        }
        let freq = ones as f64 / (n as f64 * 64.0);
        assert!((freq - p).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn mask_cache_degenerate_probabilities() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let mut cache = MaskCache::new(2);
        cache.begin_batch();
        assert_eq!(cache.probe(EdgeId(0), 0.0, 0b11, &mut rng), 0);
        assert_eq!(cache.probe(EdgeId(1), 1.0, 0b11, &mut rng), 0b11);
    }

    #[test]
    fn splitmix_streams_are_deterministic_and_distinct() {
        use rand::RngCore;
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = SplitMix64::new(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn packed_estimate_converges_to_exact() {
        let g = diamond();
        let exact = exact_reliability(&g, NodeId(0), NodeId(3));
        let mut packed = PackedMcSampling::new(Arc::clone(&g));
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let est = packed.estimate(NodeId(0), NodeId(3), 60_000, &mut rng);
        assert!(est.is_valid());
        assert!(
            (est.reliability - exact).abs() < 0.01,
            "{} vs {exact}",
            est.reliability
        );
    }

    #[test]
    fn packed_s_equals_t_and_disconnected() {
        let g = diamond();
        let mut packed = PackedMcSampling::new(Arc::clone(&g));
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        assert_eq!(
            packed
                .estimate(NodeId(2), NodeId(2), 320, &mut rng)
                .reliability,
            1.0
        );
        assert_eq!(
            packed
                .estimate(NodeId(3), NodeId(0), 320, &mut rng)
                .reliability,
            0.0
        );
    }

    fn dense_diamond() -> Arc<UncertainGraph> {
        // Diamond plus a bidirected chord: sum(p)/n = 5.4/4 = 1.35, past
        // the dense threshold.
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 0.8).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 0.6).unwrap();
        b.add_edge(NodeId(1), NodeId(3), 0.7).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 0.5).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 0.9).unwrap();
        b.add_edge(NodeId(2), NodeId(1), 0.9).unwrap();
        b.add_edge(NodeId(3), NodeId(0), 1.0).unwrap();
        Arc::new(b.build())
    }

    #[test]
    fn for_graph_picks_mode_from_offspring_number() {
        assert!(!PackedWorkspace::for_graph(&diamond()).dense_mode());
        assert!(PackedWorkspace::for_graph(&dense_diamond()).dense_mode());
    }

    #[test]
    fn dense_batches_converge_to_exact() {
        let g = dense_diamond();
        let exact = exact_reliability(&g, NodeId(0), NodeId(3));
        let mut ws = PackedWorkspace::for_graph(&g);
        assert!(ws.dense_mode());
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let batches = 1500u32;
        let hits: u32 = (0..batches)
            .map(|_| packed_hits(&g, NodeId(0), NodeId(3), WORLD_BATCH, &mut ws, &mut rng) as u32)
            .sum();
        let freq = hits as f64 / (batches as f64 * 64.0);
        assert!((freq - exact).abs() < 0.01, "{freq} vs {exact}");
    }

    #[test]
    fn dense_and_lazy_strategies_agree_in_distribution() {
        // Force both strategies onto the same graph: each must hit the
        // exact reliability, i.e. the strategies draw the same per-edge
        // Bernoullis (only the world stream differs).
        let g = diamond();
        let exact = exact_reliability(&g, NodeId(0), NodeId(3));
        for dense in [false, true] {
            let mut ws = PackedWorkspace::for_graph(&g);
            ws.set_dense(dense);
            assert_eq!(ws.dense_mode(), dense);
            let mut rng = ChaCha8Rng::seed_from_u64(14);
            let batches = 1500u32;
            let hits: u32 = (0..batches)
                .map(|_| {
                    packed_hits(&g, NodeId(0), NodeId(3), WORLD_BATCH, &mut ws, &mut rng) as u32
                })
                .sum();
            let freq = hits as f64 / (batches as f64 * 64.0);
            assert!(
                (freq - exact).abs() < 0.01,
                "dense={dense}: {freq} vs {exact}"
            );
        }
    }

    #[test]
    fn dense_sample_worlds_matches_st_kernel() {
        // Full-reachability batches on the dense path must report the
        // same per-world hit structure the s-t kernel distribution does.
        let g = dense_diamond();
        let exact = exact_reliability(&g, NodeId(0), NodeId(3));
        let mut ws = PackedWorkspace::for_graph(&g);
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let batches = 1500u32;
        let mut hits = 0u32;
        for _ in 0..batches {
            let (_, words) = lazy_pass(&*g, NodeId(0), None, None, WORLD_BATCH, &mut ws, &mut rng);
            hits += words.reach()[NodeId(3).index()].count_ones();
        }
        let freq = hits as f64 / (batches as f64 * 64.0);
        assert!((freq - exact).abs() < 0.01, "{freq} vs {exact}");
    }

    #[test]
    fn lane_masks_are_keyed_sample_masks() {
        // Every lane's mask is sample_mask on its own (seed, edge) stream,
        // whatever the probability regime, and lanes past the pass stay
        // empty.
        let seeds = [11u64, 22, 33, 44];
        for (i, &p) in [0.0, 0.01, 0.3, 0.97, 1.0].iter().enumerate() {
            let e = EdgeId(i as u32 * 7);
            for lanes in 1..=LANES {
                let got = lane_masks(&seeds, lanes, e, p);
                for (j, &mask) in got.iter().enumerate() {
                    let want = if j < lanes {
                        sample_mask(&mut edge_stream(seeds[j], e), p)
                    } else {
                        0
                    };
                    assert_eq!(mask, want, "p={p} lanes={lanes} lane {j}");
                }
            }
        }
    }

    #[test]
    fn lane_passes_reset_their_masks() {
        // The p = 1 edge fills every live world in each pass; a pass
        // never replays the previous pass's masks, so two passes on one
        // workspace equal two passes on fresh workspaces.
        let g = dense_diamond();
        let mut ws = PackedWorkspace::for_graph(&g);
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        let first = packed_lanes_st(&g, NodeId(3), NodeId(0), 100, &mut ws, &mut rng);
        assert_eq!(first, [!0, (1 << 36) - 1, 0, 0]);
        let second = packed_lanes_st(&g, NodeId(0), NodeId(3), 256, &mut ws, &mut rng);
        let mut fresh_rng = ChaCha8Rng::seed_from_u64(16);
        let mut fresh = PackedWorkspace::for_graph(&g);
        packed_lanes_st(&g, NodeId(3), NodeId(0), 100, &mut fresh, &mut fresh_rng);
        let mut fresh = PackedWorkspace::for_graph(&g);
        let again = packed_lanes_st(&g, NodeId(0), NodeId(3), 256, &mut fresh, &mut fresh_rng);
        assert_eq!(second, again);
    }

    #[test]
    fn dense_workspace_counts_its_lanes() {
        let g = dense_diamond();
        let (n, m) = (g.num_nodes(), g.num_edges());
        let mut ws = PackedWorkspace::for_graph(&g);
        assert_eq!(
            PackedWorkspace::bytes_for(n, m, true),
            DenseLanes::bytes_for(n, m)
        );
        assert!(ws.resident_bytes() >= DenseLanes::bytes_for(n, m));
        assert!(ws.resident_bytes() < DenseLanes::bytes_for(n, m) + LazyWalk::bytes_for(n, m));
        // A lazy walk on a dense workspace builds the lazy state on demand.
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        lazy_pass(&*g, NodeId(0), None, None, WORLD_BATCH, &mut ws, &mut rng);
        assert!(ws.resident_bytes() >= DenseLanes::bytes_for(n, m) + LazyWalk::bytes_for(n, m));
    }

    #[test]
    fn sample_counters_advance() {
        let g = diamond();
        let (p0, _) = sample_counts();
        let mut packed = PackedMcSampling::new(Arc::clone(&g));
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let _ = packed.estimate(NodeId(0), NodeId(3), 100, &mut rng);
        let (p1, _) = sample_counts();
        // A partial last word counts its 36 worlds. Other tests in this
        // process sample meanwhile, so the exact packed-only count (no
        // scalar world) is checked in `tests/sample_accounting.rs`.
        assert!(p1 >= p0 + 100, "every world should count as packed");
    }
}
