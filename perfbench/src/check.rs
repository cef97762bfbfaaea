//! Output checks on every served response, the determinism contract on a
//! sample of misses, and the accuracy (`rel_err`) of the served s-t
//! answers against the high-sample reference.

use crate::client::Outcome;
use crate::inputs::GraphInput;
use crate::replay::CoreReplay;
use crate::server;
use relcomp_serve::protocol::{Request, Response};
use std::collections::{BTreeMap, HashMap};

/// Misses re-computed per class for the determinism check.
const DETERMINISM_PER_CLASS: usize = 6;
/// Pairs whose reference is below this are left out of `rel_err`.
const MIN_REFERENCE: f64 = 0.01;

/// What the checks found.
#[derive(Debug, Default)]
pub struct Checked {
    pub attempted: usize,
    /// Error responses (admission refusals included) and timeouts.
    pub failed: usize,
    /// Broken output: malformed or mis-typed responses, out-of-range
    /// values, unranked top-k, determinism mismatches.
    pub problems: Vec<String>,
    /// Mean relative error and the number of distinct answers it covers.
    pub rel_err: f64,
    pub rel_err_n: usize,
    /// Read responses, and those served from the cache.
    pub reads: usize,
    pub hits: usize,
    pub determinism_checked: usize,
}

fn in_unit(x: f64) -> bool {
    x.is_finite() && (0.0..=1.0).contains(&x)
}

/// Check every outcome. `graphs[i]` is tenant `i`'s graph; tenant 0 is
/// never updated, so its misses can be re-computed in-process.
pub fn check(outcomes: &[Outcome], graphs: &[&GraphInput]) -> Checked {
    let mut c = Checked {
        attempted: outcomes.len(),
        ..Default::default()
    };
    let mut replay = CoreReplay::new(graphs[0].graph.clone(), server::THREADS);
    let mut checked_per_class: HashMap<&str, usize> = HashMap::new();
    // Relative error per distinct served s-t answer on tenant 0.
    let mut errors: BTreeMap<&str, f64> = BTreeMap::new();
    for o in outcomes {
        let Some(text) = &o.response else {
            c.failed += 1;
            continue;
        };
        let response: Response = match serde_json::from_str(text) {
            Ok(r) => r,
            Err(e) => {
                c.problems.push(format!("malformed response ({e}): {text}"));
                continue;
            }
        };
        let mut issues: Vec<String> = Vec::new();
        let cached = match (&o.req.request, &response) {
            (_, Response::Error(_)) => {
                c.failed += 1;
                continue;
            }
            (Request::Query(q), Response::Query(r)) => {
                if (r.s, r.t) != (q.s, q.t) || !in_unit(r.reliability) || r.samples == 0 {
                    issues.push(format!("bad query answer {text}"));
                }
                let reference = graphs[0].reference_of(q.s, q.t);
                if let Some(reference) =
                    reference.filter(|&r| o.req.tenant == 0 && r >= MIN_REFERENCE)
                {
                    errors.insert(&o.req.line, (r.reliability - reference).abs() / reference);
                }
                Some(r.cached)
            }
            (Request::TopK(_), Response::TopK(r)) => {
                let ranked = r
                    .targets
                    .windows(2)
                    .all(|w| w[0].reliability >= w[1].reliability);
                if r.targets.is_empty()
                    || !ranked
                    || !r.targets.iter().all(|e| in_unit(e.reliability))
                {
                    issues.push(format!("bad top-k answer {text}"));
                }
                Some(r.cached)
            }
            (Request::DQuery(_), Response::DQuery(r)) => {
                if !in_unit(r.reliability) {
                    issues.push(format!("bad R_d answer {text}"));
                }
                Some(r.cached)
            }
            (Request::Maximize(_), Response::Maximize(r)) => {
                if !in_unit(r.reliability) || !in_unit(r.base_reliability) {
                    issues.push(format!("bad maximize answer {text}"));
                }
                Some(r.cached)
            }
            (Request::Update(_), Response::Update(_)) => None,
            (Request::Metrics { .. }, Response::MetricsText(t)) => {
                if !t.contains("relcomp_queries_total") {
                    issues.push("metrics scrape without query counters".into());
                }
                None
            }
            _ => {
                issues.push(format!("response of the wrong kind: {text}"));
                None
            }
        };
        c.problems
            .extend(issues.into_iter().map(|i| format!("{}: {i}", o.req.line)));
        let Some(cached) = cached else { continue };
        if !matches!(o.req.request, Request::Maximize(_)) {
            c.reads += 1;
            c.hits += cached as usize;
        }
        // Determinism contract: a served sampler-path miss on the
        // never-updated tenant equals the direct ParallelSampler call with
        // the same seed and thread count, bit for bit.
        let sampler_class = matches!(
            o.req.class,
            "mc" | "bfs_sharing" | "mc_eps" | "topk" | "dquery"
        );
        let n = checked_per_class.entry(o.req.class).or_default();
        if cached || o.req.tenant != 0 || !sampler_class || *n >= DETERMINISM_PER_CLASS {
            continue;
        }
        *n += 1;
        c.determinism_checked += 1;
        let direct = replay
            .run(&o.req.request)
            .expect("sampler classes reach the core");
        let same = match &response {
            Response::Query(r) => {
                r.reliability.to_bits() == direct.reliability.to_bits()
                    && r.samples == direct.samples
            }
            Response::DQuery(r) => {
                r.reliability.to_bits() == direct.reliability.to_bits()
                    && r.samples == direct.samples
            }
            Response::TopK(r) => {
                r.targets.len() == direct.targets.len()
                    && r.targets
                        .iter()
                        .zip(&direct.targets)
                        .all(|(a, &(node, rel))| {
                            a.node == node && a.reliability.to_bits() == rel.to_bits()
                        })
            }
            _ => false,
        };
        if !same {
            c.problems.push(format!(
                "determinism: served {text} differs from the direct call ({} over {} worlds)",
                direct.reliability, direct.samples
            ));
        }
    }
    c.rel_err_n = errors.len();
    c.rel_err = crate::stats::mean(&errors.into_values().collect::<Vec<_>>());
    c
}
