//! Adaptive estimation sessions: budgets, convergence tracking, and the
//! shared estimation epilogue.
//!
//! The paper's Fig. 8 shows the six estimators converge at wildly
//! different rates, and its headline guidance ("MC with ~1000 samples")
//! is really a *stopping rule*, not a constant. This module turns the
//! fixed-`k` interface into a streaming one:
//!
//! * [`SampleBudget`] describes *when to stop*: a fixed sample count, a
//!   max-sample cap combined with a relative-half-width target, a
//!   wall-time cap, or any composition of the three.
//! * [`Convergence`] tracks the running mean, sample variance, and a
//!   confidence-interval half-width (Wilson for Bernoulli samples,
//!   normal otherwise) as batches stream in.
//! * [`EstimationSession`] drives the batch loop every estimator's
//!   [`Estimator::estimate_with`](crate::Estimator::estimate_with)
//!   implements: ask for the next batch size, record the batch, repeat
//!   until the budget says stop, then package the [`Estimate`].
//!
//! Fixed budgets ([`SampleBudget::fixed`]) draw exactly `k` samples with
//! no convergence checks, so `estimate(s, t, k, rng)` — now a thin
//! wrapper — stays bit-identical to the historical fixed-`k` API.

use crate::estimator::Estimate;
use crate::memory::MemoryTracker;
use std::time::{Duration, Instant};

/// Default samples drawn between convergence checks. A multiple of 64 so
/// estimators that batch 64 worlds per machine word (see
/// [`crate::packed`]) fill whole words between checks with no scalar
/// tail.
pub const DEFAULT_BATCH: usize = 256;
const _: () = assert!(
    DEFAULT_BATCH % 64 == 0,
    "session batches must pack whole 64-world words"
);

/// Default confidence level for half-width targets.
pub const DEFAULT_CONFIDENCE: f64 = 0.95;

/// Default sample cap for adaptive budgets when the caller names a
/// target but no cap (shared by the CLI and the serve engine so their
/// defaults cannot drift).
pub const DEFAULT_ADAPTIVE_CAP: usize = 50_000;

/// Minimum continuous observations (batch means) before a half-width is
/// reported: below this, even the t-corrected interval is too fragile
/// to stop on.
const MIN_CONTINUOUS_OBS: u64 = 3;

/// Why an estimation session stopped drawing samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// A fixed budget was consumed exactly (the historical behavior).
    FixedK,
    /// The relative half-width target was met before the sample cap.
    Converged,
    /// The sample cap was reached without meeting the accuracy target.
    MaxSamples,
    /// The wall-time cap expired.
    TimeLimit,
}

impl StopReason {
    /// Wire/operator label (`fixed_k`, `converged`, `max_samples`,
    /// `time_limit`).
    pub fn label(self) -> &'static str {
        match self {
            StopReason::FixedK => "fixed_k",
            StopReason::Converged => "converged",
            StopReason::MaxSamples => "max_samples",
            StopReason::TimeLimit => "time_limit",
        }
    }

    /// Parse a [`StopReason::label`] back (wire protocol round trips).
    pub fn parse(label: &str) -> Option<StopReason> {
        Some(match label {
            "fixed_k" => StopReason::FixedK,
            "converged" => StopReason::Converged,
            "max_samples" => StopReason::MaxSamples,
            "time_limit" => StopReason::TimeLimit,
            _ => return None,
        })
    }
}

/// When to stop drawing samples. Composable: a fixed count, a cap plus a
/// relative-half-width target, a wall-time limit, or any mix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SampleBudget {
    max_samples: usize,
    eps: Option<f64>,
    confidence: f64,
    time_limit: Option<Duration>,
    batch: usize,
}

impl SampleBudget {
    /// Exactly `k` samples, no early stopping — bit-identical to the
    /// historical `estimate(s, t, k, rng)` API.
    ///
    /// # Panics
    /// Panics if `k` is zero.
    pub fn fixed(k: usize) -> Self {
        assert!(k > 0, "sample count must be positive");
        SampleBudget {
            max_samples: k,
            eps: None,
            confidence: DEFAULT_CONFIDENCE,
            time_limit: None,
            batch: DEFAULT_BATCH,
        }
    }

    /// Stop once the CI half-width drops below `eps * mean` (at the
    /// default 95% confidence), or after `max_samples`, whichever first.
    ///
    /// # Panics
    /// Panics unless `eps > 0` and `max_samples > 0`.
    pub fn adaptive(eps: f64, max_samples: usize) -> Self {
        assert!(eps > 0.0 && eps.is_finite(), "eps must be positive");
        assert!(max_samples > 0, "sample cap must be positive");
        SampleBudget {
            max_samples,
            eps: Some(eps),
            confidence: DEFAULT_CONFIDENCE,
            time_limit: None,
            batch: DEFAULT_BATCH,
        }
    }

    /// Override the confidence level of the half-width target.
    ///
    /// # Panics
    /// Panics unless `0 < confidence < 1`.
    pub fn with_confidence(mut self, confidence: f64) -> Self {
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0, 1)"
        );
        self.confidence = confidence;
        self
    }

    /// Add a wall-time cap: stop at the first batch barrier past `limit`
    /// (at least one batch is always drawn).
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Override the per-batch sample count (default [`DEFAULT_BATCH`]).
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    pub fn with_batch(mut self, batch: usize) -> Self {
        assert!(batch > 0, "batch must be positive");
        self.batch = batch;
        self
    }

    /// Assemble a budget from resolved user-facing fields: `samples` is
    /// the exact count when no adaptive field is present, the cap
    /// otherwise. The one constructor the CLI and the serve planner
    /// share, so their budget semantics cannot drift.
    pub fn assemble(
        samples: usize,
        eps: Option<f64>,
        confidence: f64,
        time_budget_ms: Option<u64>,
    ) -> Self {
        let mut b = match eps {
            Some(e) => SampleBudget::adaptive(e, samples),
            None => SampleBudget::fixed(samples),
        }
        .with_confidence(confidence);
        if let Some(ms) = time_budget_ms {
            b = b.with_time_limit(Duration::from_millis(ms));
        }
        b
    }

    /// Lower the sample cap to `cap` (used by estimators whose index
    /// bounds the drawable worlds, e.g. BFS-Sharing's `L`).
    pub fn clamp_max(mut self, cap: usize) -> Self {
        assert!(cap > 0, "cap must be positive");
        self.max_samples = self.max_samples.min(cap);
        self
    }

    /// The hard sample cap.
    pub fn max_samples(&self) -> usize {
        self.max_samples
    }

    /// The relative-half-width target, if any.
    pub fn eps(&self) -> Option<f64> {
        self.eps
    }

    /// The confidence level of the half-width target.
    pub fn confidence(&self) -> f64 {
        self.confidence
    }

    /// The wall-time cap, if any.
    pub fn time_limit(&self) -> Option<Duration> {
        self.time_limit
    }

    /// Samples drawn between convergence checks.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Whether this is a pure fixed-`k` budget (no early stopping): the
    /// session then runs with zero convergence overhead and historical
    /// bit-for-bit behavior.
    pub fn is_fixed(&self) -> bool {
        self.eps.is_none() && self.time_limit.is_none()
    }
}

/// Inverse standard-normal CDF (Acklam's rational approximation,
/// |relative error| < 1.15e-9 over (0, 1)).
fn inverse_normal_cdf(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// The two-sided z-value for a confidence level (e.g. 0.95 → 1.959964).
pub fn z_value(confidence: f64) -> f64 {
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0, 1)"
    );
    inverse_normal_cdf((1.0 + confidence) / 2.0)
}

/// Student-t quantile from the normal quantile via the Peiser/Fisher
/// asymptotic expansion in `1/df`. Within ~3% of the exact value for
/// `df >= 2` (e.g. df = 2: 4.18 vs 4.30; df = 3: 3.16 vs 3.18 at 95%)
/// — the correction that keeps few-batch CIs honest where a raw `z`
/// would be several times too narrow.
fn t_value(z: f64, df: u64) -> f64 {
    let d = df as f64;
    let (z3, z5, z7) = (z.powi(3), z.powi(5), z.powi(7));
    z + (z3 + z) / (4.0 * d)
        + (5.0 * z5 + 16.0 * z3 + 3.0 * z) / (96.0 * d * d)
        + (3.0 * z7 + 19.0 * z5 + 17.0 * z3 - 15.0 * z) / (384.0 * d * d * d)
}

/// Streaming mean/variance/half-width tracker.
///
/// Two kinds of observations are supported, and the half-width adapts:
///
/// * [`Convergence::observe_hits`] — Bernoulli batches (MC-style hit
///   counts): the half-width is the Wilson score interval's, which stays
///   honest near 0 and 1.
/// * [`Convergence::observe`] — one continuous observation (a recursive
///   estimator's per-batch estimate): the half-width is the normal CI of
///   the mean of observations.
#[derive(Clone, Copy, Debug)]
pub struct Convergence {
    z: f64,
    count: u64,
    mean: f64,
    m2: f64,
    bernoulli: bool,
    batches: u64,
}

impl Convergence {
    /// Fresh tracker at `confidence` (see [`z_value`]).
    pub fn new(confidence: f64) -> Self {
        Convergence {
            z: z_value(confidence),
            count: 0,
            mean: 0.0,
            m2: 0.0,
            bernoulli: true,
            batches: 0,
        }
    }

    /// Record one continuous observation (Welford update). Switches the
    /// half-width to the normal CI over observations.
    pub fn observe(&mut self, x: f64) {
        self.bernoulli = false;
        self.batches += 1;
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Record a Bernoulli batch: `hits` successes out of `n` draws.
    /// Exact merge (Chan et al.): for 0/1 data the batch's centered sum
    /// of squares is `h - h²/n`.
    pub fn observe_hits(&mut self, hits: usize, n: usize) {
        if n == 0 {
            return;
        }
        assert!(hits <= n, "hits cannot exceed draws");
        self.batches += 1;
        let (h, n_b) = (hits as f64, n as f64);
        let mean_b = h / n_b;
        let m2_b = h - h * h / n_b;
        let n_a = self.count as f64;
        let delta = mean_b - self.mean;
        let total = n_a + n_b;
        self.mean += delta * n_b / total;
        self.m2 += m2_b + delta * delta * n_a * n_b / total;
        self.count += n as u64;
    }

    /// Observations recorded so far (samples for Bernoulli batches,
    /// batches for continuous observations).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Batches recorded so far (one per `observe`/`observe_hits` call) —
    /// the "batches to convergence" observability probe.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Running mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance of the observations (`n - 1` denominator); 0 until
    /// two observations exist.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Estimated variance of the *reported mean* (sample variance / n).
    pub fn estimator_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sample_variance() / self.count as f64
        }
    }

    /// CI half-width at the tracker's confidence: Wilson for Bernoulli
    /// observations, Student-t over the batch means otherwise (the t
    /// correction matters exactly where adaptive recursion stops — a
    /// handful of batches). Infinite until the tracker has enough
    /// observations to say anything (one Bernoulli batch, or
    /// `MIN_CONTINUOUS_OBS` continuous observations).
    pub fn half_width(&self) -> f64 {
        if self.bernoulli {
            if self.count == 0 {
                return f64::INFINITY;
            }
            let n = self.count as f64;
            let p = self.mean;
            let z2 = self.z * self.z;
            self.z / (1.0 + z2 / n) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt()
        } else {
            if self.count < MIN_CONTINUOUS_OBS {
                return f64::INFINITY;
            }
            t_value(self.z, self.count - 1) * self.estimator_variance().sqrt()
        }
    }

    /// Half-width relative to the mean. A zero mean with zero half-width
    /// (a fully determined answer) counts as 0; a zero mean with spread
    /// is infinite — mirroring the paper's index-of-dispersion handling.
    pub fn relative_half_width(&self) -> f64 {
        let hw = self.half_width();
        if self.mean <= 0.0 {
            if hw <= 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            hw / self.mean
        }
    }

    /// Whether the observations are Bernoulli so far.
    pub fn is_bernoulli(&self) -> bool {
        self.bernoulli
    }

    /// The z-value in use.
    pub fn z(&self) -> f64 {
        self.z
    }
}

/// One in-flight estimation: the batch loop every estimator drives.
///
/// ```text
/// let mut session = EstimationSession::begin(budget);
/// loop {
///     let n = session.next_batch();
///     if n == 0 { break; }
///     let hits = ...draw n samples...;
///     session.record_hits(hits, n);
/// }
/// session.finish(reliability, &mem)
/// ```
pub struct EstimationSession {
    budget: SampleBudget,
    tracker: Convergence,
    start: Instant,
    samples: usize,
    stop: Option<StopReason>,
}

impl EstimationSession {
    /// Start a session (stamps the wall clock).
    pub fn begin(budget: &SampleBudget) -> Self {
        EstimationSession {
            budget: *budget,
            tracker: Convergence::new(budget.confidence()),
            start: Instant::now(),
            samples: 0,
            stop: None,
        }
    }

    /// Samples to draw next, or 0 when the budget says stop (the stop
    /// reason is then fixed). At least one batch is always granted, so
    /// every session produces a defined estimate.
    pub fn next_batch(&mut self) -> usize {
        if self.stop.is_some() {
            return 0;
        }
        if let Some(stop) = should_stop(&self.budget, &self.tracker, self.samples, self.start) {
            self.stop = Some(stop);
            return 0;
        }
        self.budget
            .batch
            .min(self.budget.max_samples - self.samples)
    }

    /// Record a Bernoulli batch of `n` draws with `hits` successes.
    pub fn record_hits(&mut self, hits: usize, n: usize) {
        self.tracker.observe_hits(hits, n);
        self.samples += n;
    }

    /// Record one continuous batch estimate that consumed `n` samples
    /// (recursive estimators: one recursion per batch).
    pub fn record_value(&mut self, estimate: f64, n: usize) {
        self.tracker.observe(estimate);
        self.samples += n;
    }

    /// Samples consumed so far.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// The convergence tracker.
    pub fn tracker(&self) -> &Convergence {
        &self.tracker
    }

    /// The session's start instant (for callers timing sub-steps).
    pub fn started_at(&self) -> Instant {
        self.start
    }

    /// Drive the whole session and package the hit fraction: the loop
    /// MC, packed MC and in-place ProbTree share. `world_hits(n)` samples
    /// `n` fresh worlds and reports how many reached `t`.
    pub fn run_batches(
        mut self,
        mem: &MemoryTracker,
        mut world_hits: impl FnMut(usize) -> usize,
    ) -> Estimate {
        let mut hits = 0;
        while let n @ 1.. = self.next_batch() {
            let batch_hits = world_hits(n);
            hits += batch_hits;
            self.record_hits(batch_hits, n);
        }
        self.finish(hits as f64 / self.samples as f64, mem)
    }

    /// The stop reason, defaulting sensibly if the caller broke out of
    /// the loop early.
    fn stop_reason(&self) -> StopReason {
        self.stop.unwrap_or(if self.budget.is_fixed() {
            StopReason::FixedK
        } else {
            StopReason::MaxSamples
        })
    }

    /// Package the estimate: the common `Instant::now()/aux_bytes`
    /// epilogue every estimator used to hand-roll.
    pub fn finish(&self, reliability: f64, mem: &MemoryTracker) -> Estimate {
        finish_estimate(
            reliability,
            self.samples,
            self.start,
            mem,
            Some(&self.tracker),
            self.stop_reason(),
        )
    }

    /// Package a deterministic answer (`s == t`, or `t` provably
    /// unreachable) without drawing: zero variance and half-width. Under
    /// a fixed budget the full `k` is reported as consumed, preserving
    /// the historical `samples` accounting bit for bit.
    pub fn finish_exact(&self, reliability: f64, mem: &MemoryTracker) -> Estimate {
        let (samples, stop) = if self.budget.is_fixed() {
            (self.budget.max_samples, StopReason::FixedK)
        } else {
            (self.samples, StopReason::Converged)
        };
        Estimate {
            reliability,
            samples,
            elapsed: self.start.elapsed(),
            aux_bytes: mem.peak(),
            variance: Some(0.0),
            half_width: Some(0.0),
            stop_reason: stop,
        }
    }
}

/// Accounting for a deterministic answer that needs no sampling at all
/// (`s == t`, an empty top-k ranking): fixed budgets report the full
/// budget consumed — preserving the historical fixed-`k` `samples`
/// accounting bit for bit — while adaptive budgets report zero samples
/// and a converged stop. One home for the rule the single-threaded
/// sessions ([`EstimationSession::finish_exact`]) and the parallel
/// sampler's no-draw paths must agree on.
pub fn exact_answer_accounting(budget: &SampleBudget) -> (usize, StopReason) {
    if budget.is_fixed() {
        (budget.max_samples(), StopReason::FixedK)
    } else {
        (0, StopReason::Converged)
    }
}

/// The one stopping rule every session-driving loop consults — the
/// single-threaded [`EstimationSession`] and the parallel sampler's
/// shard-group barriers must agree on it or their answers drift.
/// `None` means keep drawing.
pub fn should_stop(
    budget: &SampleBudget,
    tracker: &Convergence,
    samples: usize,
    start: Instant,
) -> Option<StopReason> {
    let rule_start = Instant::now();
    let decision = should_stop_inner(budget, tracker, samples, start);
    crate::metrics::note_convergence_nanos(rule_start.elapsed().as_nanos() as u64);
    decision
}

fn should_stop_inner(
    budget: &SampleBudget,
    tracker: &Convergence,
    samples: usize,
    start: Instant,
) -> Option<StopReason> {
    if samples >= budget.max_samples() {
        return Some(if budget.is_fixed() {
            StopReason::FixedK
        } else {
            StopReason::MaxSamples
        });
    }
    if samples > 0 && !budget.is_fixed() {
        if let Some(eps) = budget.eps() {
            if tracker.relative_half_width() <= eps {
                return Some(StopReason::Converged);
            }
        }
        if let Some(limit) = budget.time_limit() {
            if start.elapsed() >= limit {
                return Some(StopReason::TimeLimit);
            }
        }
    }
    None
}

/// Validate user-supplied adaptive-budget fields (wire protocol, CLI
/// flags). One home for the boundary rules so the serve planner and the
/// CLI cannot drift apart.
pub fn validate_budget_fields(
    eps: Option<f64>,
    confidence: Option<f64>,
    time_budget_ms: Option<u64>,
) -> Result<(), String> {
    if let Some(e) = eps {
        if !(e > 0.0 && e.is_finite()) {
            return Err(format!("eps must be a positive finite number, got {e}"));
        }
    }
    if let Some(c) = confidence {
        if !(c > 0.0 && c < 1.0) {
            return Err(format!("confidence must be in (0, 1), got {c}"));
        }
    }
    if time_budget_ms == Some(0) {
        return Err("time_budget_ms must be positive".into());
    }
    Ok(())
}

/// The shared estimation epilogue: stamp elapsed time from `start`, peak
/// auxiliary bytes from `mem`, and the tracker's variance/half-width
/// (omitted when the tracker cannot estimate them — e.g. a single
/// fixed-`k` recursion has no replication to measure spread from).
pub fn finish_estimate(
    reliability: f64,
    samples: usize,
    start: Instant,
    mem: &MemoryTracker,
    tracker: Option<&Convergence>,
    stop_reason: StopReason,
) -> Estimate {
    let (variance, half_width) = match tracker {
        Some(t) if t.half_width().is_finite() => {
            (Some(t.estimator_variance()), Some(t.half_width()))
        }
        _ => (None, None),
    };
    let elapsed = start.elapsed();
    crate::metrics::emit_session(crate::metrics::SessionObservation {
        samples: samples as u64,
        batches: tracker.map(|t| t.batches()).unwrap_or(0),
        micros: elapsed.as_micros() as u64,
        convergence_nanos: crate::metrics::take_convergence_nanos(),
        stop_reason: stop_reason.label(),
    });
    Estimate {
        reliability,
        samples,
        elapsed,
        aux_bytes: mem.peak(),
        variance,
        half_width,
        stop_reason,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_values_match_tables() {
        assert!((z_value(0.95) - 1.959_964).abs() < 1e-4);
        assert!((z_value(0.99) - 2.575_829).abs() < 1e-4);
        assert!((z_value(0.90) - 1.644_854).abs() < 1e-4);
    }

    #[test]
    fn fixed_budget_runs_to_exactly_k() {
        let b = SampleBudget::fixed(1000);
        assert!(b.is_fixed());
        let mut s = EstimationSession::begin(&b);
        let mut total = 0;
        loop {
            let n = s.next_batch();
            if n == 0 {
                break;
            }
            // Extreme spread must not stop a fixed session early.
            s.record_hits(n / 2, n);
            total += n;
        }
        assert_eq!(total, 1000);
        assert_eq!(s.samples(), 1000);
        let est = s.finish(0.5, &MemoryTracker::new());
        assert_eq!(est.stop_reason, StopReason::FixedK);
        assert_eq!(est.samples, 1000);
        assert!(est.half_width.unwrap() > 0.0);
    }

    #[test]
    fn adaptive_stops_when_converged() {
        // All-hits batches: mean 1.0, Wilson half-width shrinks fast.
        let b = SampleBudget::adaptive(0.05, 100_000);
        let mut s = EstimationSession::begin(&b);
        loop {
            let n = s.next_batch();
            if n == 0 {
                break;
            }
            s.record_hits(n, n);
        }
        let est = s.finish(1.0, &MemoryTracker::new());
        assert_eq!(est.stop_reason, StopReason::Converged);
        assert!(est.samples < 100_000, "converged early: {}", est.samples);
        assert!(est.half_width.unwrap() <= 0.05);
    }

    #[test]
    fn adaptive_caps_at_max_samples() {
        // Maximal spread never converges at a tight eps.
        let b = SampleBudget::adaptive(1e-6, 2048);
        let mut s = EstimationSession::begin(&b);
        loop {
            let n = s.next_batch();
            if n == 0 {
                break;
            }
            s.record_hits(n / 2, n);
        }
        let est = s.finish(0.5, &MemoryTracker::new());
        assert_eq!(est.stop_reason, StopReason::MaxSamples);
        assert_eq!(est.samples, 2048);
    }

    #[test]
    fn time_cap_grants_at_least_one_batch() {
        let b = SampleBudget::fixed(100_000).with_time_limit(Duration::ZERO);
        assert!(!b.is_fixed());
        let mut s = EstimationSession::begin(&b);
        let n = s.next_batch();
        assert_eq!(n, DEFAULT_BATCH);
        s.record_hits(0, n);
        assert_eq!(s.next_batch(), 0);
        let est = s.finish(0.0, &MemoryTracker::new());
        assert_eq!(est.stop_reason, StopReason::TimeLimit);
        assert_eq!(est.samples, DEFAULT_BATCH);
    }

    #[test]
    fn bernoulli_merge_matches_closed_form() {
        let mut t = Convergence::new(0.95);
        t.observe_hits(30, 100);
        t.observe_hits(45, 150);
        // 75 hits / 250 draws.
        assert!((t.mean() - 0.3).abs() < 1e-12);
        // Sample variance of 0/1 data: n/(n-1) * p(1-p).
        let p = 0.3;
        let expect = 250.0 / 249.0 * p * (1.0 - p);
        assert!((t.sample_variance() - expect).abs() < 1e-12);
        assert!(t.is_bernoulli());
        // Wilson half-width is finite and sane.
        let hw = t.half_width();
        assert!(hw > 0.0 && hw < 0.1, "hw {hw}");
    }

    #[test]
    fn continuous_observations_use_t_ci() {
        let mut t = Convergence::new(0.95);
        assert!(t.half_width().is_infinite());
        t.observe(0.4);
        t.observe(0.6);
        assert!(
            t.half_width().is_infinite(),
            "two obs are too fragile to stop on"
        );
        t.observe(0.5);
        assert!(!t.is_bernoulli());
        assert!((t.mean() - 0.5).abs() < 1e-12);
        // df = 2: the t quantile (~4.2 via the expansion, 4.30 exact) is
        // well above z = 1.96 — the small-sample widening in action.
        let hw = t.half_width();
        let z_hw = t.z() * (t.sample_variance() / 3.0).sqrt();
        assert!(hw > 2.0 * z_hw, "t CI must widen: {hw} vs z {z_hw}");
        for _ in 0..200 {
            t.observe(0.5);
        }
        // Large df: t collapses onto z.
        let hw = t.half_width();
        let z_hw = t.z() * t.estimator_variance().sqrt();
        assert!((hw - z_hw).abs() < 0.02 * z_hw, "{hw} vs {z_hw}");
    }

    #[test]
    fn relative_half_width_edge_cases() {
        let t = Convergence::new(0.95);
        assert!(t.relative_half_width().is_infinite());
        let mut zero = Convergence::new(0.95);
        zero.observe_hits(0, 10_000);
        // Wilson at p=0 still has width, so a zero mean stays infinite
        // (never spuriously "converged" on an unreachable target).
        assert!(zero.relative_half_width().is_infinite());
    }

    #[test]
    fn stop_reason_labels_round_trip() {
        for r in [
            StopReason::FixedK,
            StopReason::Converged,
            StopReason::MaxSamples,
            StopReason::TimeLimit,
        ] {
            assert_eq!(StopReason::parse(r.label()), Some(r));
        }
        assert_eq!(StopReason::parse("bogus"), None);
    }

    #[test]
    fn clamp_max_lowers_cap_only() {
        let b = SampleBudget::adaptive(0.01, 10_000).clamp_max(500);
        assert_eq!(b.max_samples(), 500);
        assert_eq!(SampleBudget::fixed(100).clamp_max(500).max_samples(), 100);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_fixed_budget_rejected() {
        let _ = SampleBudget::fixed(0);
    }

    #[test]
    #[should_panic(expected = "eps")]
    fn zero_eps_rejected() {
        let _ = SampleBudget::adaptive(0.0, 100);
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn bad_confidence_rejected() {
        let _ = SampleBudget::fixed(10).with_confidence(1.0);
    }
}
