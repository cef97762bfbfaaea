//! Shared plumbing for the experiment binaries: CLI parsing and report
//! emission.
//!
//! Every binary accepts the same arguments:
//!
//! ```text
//! <binary> [quick|paper] [--seed N]
//! ```
//!
//! `quick` (default) runs reduced workloads that finish in seconds to
//! minutes; `paper` uses the paper's workload sizes (§3.1.3). Reports are
//! printed to stdout and mirrored under `results/`.

#![warn(missing_docs)]

use relcomp_eval::RunProfile;
use std::path::PathBuf;

/// Parsed common CLI options.
#[derive(Clone, Copy, Debug)]
pub struct Cli {
    /// Selected run profile.
    pub profile: RunProfile,
    /// Master seed (default 42).
    pub seed: u64,
}

/// Parse `std::env::args` into [`Cli`]; exits with usage on bad input.
pub fn cli() -> Cli {
    parse_args(std::env::args().skip(1).collect()).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        eprintln!("usage: <binary> [quick|paper] [--seed N]");
        std::process::exit(2);
    })
}

/// Testable argument parser behind [`cli`].
pub fn parse_args(args: Vec<String>) -> Result<Cli, String> {
    let mut profile = RunProfile::Quick;
    let mut seed = 42u64;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed requires a value")?;
                seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
            }
            other => {
                profile =
                    RunProfile::parse(other).ok_or_else(|| format!("unknown argument: {other}"))?;
            }
        }
    }
    Ok(Cli { profile, seed })
}

/// Print a report and mirror it to `results/<name>.txt`.
pub fn emit(name: &str, report: &str) {
    println!("{report}");
    let dir = results_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}.txt"));
        if let Err(e) = std::fs::write(&path, report) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            eprintln!("[saved {}]", path.display());
        }
    }
}

/// Nearest-rank percentile of an already-sorted latency sample
/// (`q` in `[0, 1]`). Shared by the closed-loop serving benches so
/// their latency columns stay comparable.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// `results/` at the workspace root (falls back to CWD).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; the workspace root is two up.
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => PathBuf::from(dir).join("../..").join("results"),
        Err(_) => PathBuf::from("results"),
    }
}

/// The workspace root (where `BENCH_summary.json` lands; falls back to
/// CWD).
pub fn repo_root() -> PathBuf {
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => PathBuf::from(dir).join("../.."),
        Err(_) => PathBuf::from("."),
    }
}

/// Fixed-k vs adaptive-session comparison shared by the
/// `adaptive_stopping` bin and `run_all`'s `BENCH_summary.json` emission.
pub mod adaptive {
    use rand::RngCore;
    use relcomp_core::mc::McSampling;
    use relcomp_core::recursive::RecursiveStratified;
    use relcomp_core::{
        Estimator, EstimatorKind, MaximizeOptions, PackedMcSampling, ParallelSampler, SampleBudget,
        StopReason,
    };
    use relcomp_eval::{ExperimentEnv, RunProfile};
    use relcomp_ugraph::Dataset;
    use serde::{Deserialize, Serialize};
    use std::sync::Arc;

    /// One (dataset, estimator) comparison row.
    #[derive(Clone, Debug, Serialize)]
    pub struct Row {
        /// Dataset analog name.
        pub dataset: String,
        /// Estimator display name.
        pub estimator: String,
        /// Workload pairs measured.
        pub pairs: usize,
        /// The fixed budget every query historically ran (paper default).
        pub fixed_samples: usize,
        /// Wall milliseconds for the fixed pass over all pairs.
        pub fixed_wall_ms: f64,
        /// Mean achieved relative half-width under the fixed budget
        /// (`None` when the estimator reports no CI — single recursions).
        pub fixed_rel_hw: Option<f64>,
        /// Mean samples the adaptive sessions consumed per pair.
        pub adaptive_avg_samples: f64,
        /// Smallest per-pair adaptive consumption (the early-exit case).
        pub adaptive_min_samples: usize,
        /// Wall milliseconds for the adaptive pass over all pairs.
        pub adaptive_wall_ms: f64,
        /// Pairs whose session met the eps target before the cap.
        pub converged_pairs: usize,
        /// Mean samples over the *converged* pairs only (`None` when no
        /// pair converged) — the honest early-exit headline, undiluted
        /// by pairs that ran to the cap.
        pub converged_avg_samples: Option<f64>,
        /// Pairs whose session met the target with *fewer* samples than
        /// the fixed budget — the headline early-exit count.
        pub early_exit_pairs: usize,
    }

    /// Run the comparison: every paper-six estimator answers the
    /// workload once at `fixed_k` and once adaptively (`eps` target at
    /// 95% confidence, capped at `cap`).
    pub fn compare(
        dataset: Dataset,
        profile: RunProfile,
        seed: u64,
        eps: f64,
        fixed_k: usize,
        cap: usize,
    ) -> Vec<Row> {
        let mut env = ExperimentEnv::prepare(dataset, profile, 1, seed);
        // The shared index must cover the adaptive cap.
        env.params.bfs_sharing_worlds = cap.max(fixed_k);
        let budget = SampleBudget::adaptive(eps, cap);
        let mut rows = Vec::new();
        for &kind in &EstimatorKind::PAPER_SIX {
            let mut est = env.estimator(kind);
            let mut rng = env.rng(0xada0 ^ kind as u64);

            let mut fixed_wall = 0.0f64;
            let mut fixed_hw_sum = 0.0f64;
            let mut fixed_hw_count = 0usize;
            for &(s, t) in &env.workload.pairs {
                est.refresh(&mut rng);
                let e = est.estimate(s, t, fixed_k, &mut rng);
                fixed_wall += e.elapsed.as_secs_f64() * 1e3;
                if let Some(hw) = e.half_width {
                    if e.reliability > 0.0 {
                        fixed_hw_sum += hw / e.reliability;
                        fixed_hw_count += 1;
                    }
                }
            }

            let mut adaptive_wall = 0.0f64;
            let mut samples_sum = 0usize;
            let mut samples_min = usize::MAX;
            let mut converged = 0usize;
            let mut converged_samples = 0usize;
            let mut early = 0usize;
            for &(s, t) in &env.workload.pairs {
                est.refresh(&mut rng);
                let e = est.estimate_with(s, t, &budget, &mut rng);
                adaptive_wall += e.elapsed.as_secs_f64() * 1e3;
                samples_sum += e.samples;
                samples_min = samples_min.min(e.samples);
                if e.stop_reason == StopReason::Converged {
                    converged += 1;
                    converged_samples += e.samples;
                    if e.samples < fixed_k {
                        early += 1;
                    }
                }
            }

            let pairs = env.workload.len();
            rows.push(Row {
                dataset: dataset.short_name().to_string(),
                estimator: kind.display_name().to_string(),
                pairs,
                fixed_samples: fixed_k,
                fixed_wall_ms: fixed_wall,
                fixed_rel_hw: (fixed_hw_count > 0).then(|| fixed_hw_sum / fixed_hw_count as f64),
                adaptive_avg_samples: samples_sum as f64 / pairs as f64,
                adaptive_min_samples: samples_min,
                adaptive_wall_ms: adaptive_wall,
                converged_pairs: converged,
                converged_avg_samples: (converged > 0)
                    .then(|| converged_samples as f64 / converged as f64),
                early_exit_pairs: early,
            });
        }
        rows
    }

    /// Quick per-estimator timing probe for `BENCH_summary.json`: one
    /// fixed pass at `fixed_k` per estimator on a small workload.
    #[derive(Clone, Debug, Serialize, Deserialize)]
    pub struct EstimatorTiming {
        /// Estimator display name.
        pub estimator: String,
        /// Samples consumed across the workload.
        pub samples: usize,
        /// Wall milliseconds across the workload.
        pub wall_ms: f64,
    }

    /// One extension-workload measurement for `BENCH_summary.json`
    /// (top-k / distance-constrained, fixed vs adaptive).
    #[derive(Clone, Debug, Serialize, Deserialize)]
    pub struct WorkloadTiming {
        /// Served workload name (`topk` / `dquery`).
        pub workload: String,
        /// Budget mode (`fixed` / `adaptive`).
        pub mode: String,
        /// Samples consumed.
        pub samples: usize,
        /// Wall milliseconds.
        pub wall_ms: f64,
        /// Stop-reason label of the run.
        pub stop_reason: String,
    }

    /// Probe the two served extension workloads on the parallel sharded
    /// sampler: one fixed run at `fixed_k` and one eps-adaptive run
    /// (capped at `cap`) each for top-k (`k = 10`) and `R_d` (`d = 4`)
    /// on the first workload pair. The cross-commit perf signal for the
    /// `topk`/`dquery` serving paths.
    pub fn workload_probe(
        env: &ExperimentEnv,
        fixed_k: usize,
        eps: f64,
        cap: usize,
    ) -> Vec<WorkloadTiming> {
        let Some(&(s, t)) = env.workload.pairs.first() else {
            return Vec::new();
        };
        let sampler = ParallelSampler::new(Arc::clone(&env.graph), 2);
        let budget = SampleBudget::adaptive(eps, cap);
        let row = |workload: &str, mode: &str, samples, wall_ms, stop: StopReason| WorkloadTiming {
            workload: workload.to_string(),
            mode: mode.to_string(),
            samples,
            wall_ms,
            stop_reason: stop.label().to_string(),
        };
        let mut out = Vec::new();
        let fixed = sampler.top_k_targets(s, 10, fixed_k, 0xE0);
        out.push(row(
            "topk",
            "fixed",
            fixed.samples,
            fixed.elapsed.as_secs_f64() * 1e3,
            fixed.stop_reason,
        ));
        let adaptive = sampler.top_k_targets_with(s, 10, &budget, 0xE0);
        out.push(row(
            "topk",
            "adaptive",
            adaptive.samples,
            adaptive.elapsed.as_secs_f64() * 1e3,
            adaptive.stop_reason,
        ));
        let d = 4;
        let fixed = sampler.estimate_distance_constrained(s, t, d, fixed_k, 0xD0);
        out.push(row(
            "dquery",
            "fixed",
            fixed.samples,
            fixed.elapsed.as_secs_f64() * 1e3,
            fixed.stop_reason,
        ));
        let adaptive = sampler.estimate_distance_constrained_with(s, t, d, &budget, 0xD0);
        out.push(row(
            "dquery",
            "adaptive",
            adaptive.samples,
            adaptive.elapsed.as_secs_f64() * 1e3,
            adaptive.stop_reason,
        ));
        // The greedy write-path workload: two upgrades under the same
        // adaptive budget. Deterministic in the seed, so the wall time
        // is the cross-commit perf signal for the maximize serving path.
        let mut mopts = MaximizeOptions::new(2, 0.95, budget);
        mopts.threads = 2;
        mopts.seed = 0xA0;
        let start = std::time::Instant::now();
        let greedy = relcomp_core::maximize::maximize(&env.graph, s, t, &mopts)
            .expect("probe inputs are valid");
        out.push(WorkloadTiming {
            workload: "maximize_probe".to_string(),
            mode: "adaptive".to_string(),
            samples: greedy.samples,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
            stop_reason: format!("k{}", greedy.chosen.len()),
        });
        out
    }

    /// One per-sample cost row of the per-sample probe: a packed-vs-scalar
    /// pair member, a served BFS-Sharing or MC row, or an RSS row.
    #[derive(Clone, Debug, Serialize, Deserialize)]
    pub struct PerSampleRow {
        /// Sampling path and dataset: `<workload>_scalar/<dataset>`
        /// (historical one-world loops), `<workload>_packed/<dataset>`
        /// (bit-packed 64-world kernel), `bfs_served/<dataset>`,
        /// `mc_served/<dataset>`, or `rss/<dataset>`.
        pub path: String,
        /// Worlds sampled across the workload.
        pub samples: usize,
        /// Wall milliseconds across the workload (for a single-query
        /// row, the median over [`SINGLE_QUERY_RUNS`] runs).
        pub wall_ms: f64,
        /// Nanoseconds per sampled world — the headline metric the CI
        /// perf gate tracks.
        pub ns_per_sample: f64,
    }

    /// Datasets the per-sample probe sweeps: the quick-profile graphs
    /// small enough to time in seconds, chosen because they span the
    /// percolation regimes where packed sampling behaves differently.
    /// LastFm's `1/out_degree` probabilities put the process exactly at
    /// criticality (little world overlap, the packed kernel's hardest
    /// case); NetHept's `{0.1, 0.01, 0.001}` tiers are the
    /// geometric-jump showcase; AsTopology's snapshot ratios sit near
    /// the threshold with heavier overlap; Dblp02's collaboration
    /// probabilities (mean 0.33 on a mean-degree-6 graph) and BioMine's
    /// three-criteria combination (mean 0.32 on a mean-degree-12 graph)
    /// are supercritical — sampled worlds share a giant component and
    /// the 64-way traversal sharing dominates.
    pub const PER_SAMPLE_DATASETS: &[Dataset] = &[
        Dataset::LastFm,
        Dataset::NetHept,
        Dataset::AsTopology,
        Dataset::Dblp02,
        Dataset::BioMine,
    ];

    /// Runs behind each single-query row of [`per_sample_probe`]
    /// (`topk_*`, `rd_*`): the row reports their median wall time, since
    /// one query of a few milliseconds is too short for one run to hold
    /// steady.
    pub const SINGLE_QUERY_RUNS: usize = 5;

    /// Per-sample cost of scalar vs packed sampling across
    /// [`PER_SAMPLE_DATASETS`], three workloads per dataset:
    ///
    /// * `mc_*` — plain s-t MC (early-terminating lazy BFS) on the same
    ///   10-pair workload at `fixed_k` samples per pair, single threaded,
    ///   from equally-seeded streams.
    /// * `topk_*` — the full-reach per-world primitive behind top-k
    ///   serving (no early termination, every node scored), at `fixed_k`
    ///   samples from one source. This is where 64-world sharing pays
    ///   most on dense graphs: the scalar loop re-explores the whole
    ///   reachable cluster per world.
    /// * `rd_*` — distance-constrained `R_d` at `d = 4`, `fixed_k`
    ///   samples on the first pair. The bounded exploration keeps every
    ///   world inside the same `d`-ball around the source, so the
    ///   64-world union traversal revisits heavily shared structure.
    ///
    /// Each `topk_*` and `rd_*` row times one query, so it reports the
    /// median of [`SINGLE_QUERY_RUNS`] identical runs, each on a freshly
    /// seeded stream.
    ///
    /// Three unpaired rows per dataset gate the served BFS-Sharing and MC
    /// paths and the recursive stratified estimator:
    ///
    /// * `bfs_served/*` — [`ParallelSampler::estimate_bfs_sharing`] at
    ///   one thread and the paper's K = 1000 worlds per pair over the
    ///   10-pair workload: each 256-world shard is the packed kernel's
    ///   full-reach passes from the source, exactly as a served query
    ///   runs it (the timing probe's `BFS Sharing` row times a prebuilt
    ///   index).
    ///   No early termination makes a supercritical world cost tens of
    ///   microseconds, hence the paper's K rather than `fixed_k`.
    /// * `mc_served/*` — [`ParallelSampler::estimate_mc`] at one thread
    ///   and K = 1000 over the 10-pair workload, as a served MC query
    ///   runs it (`mc_packed/*` times [`PackedMcSampling`], whose shards
    ///   and tails differ).
    /// * `rss/*` — [`RecursiveStratified`] with the paper's defaults
    ///   (threshold 5, r = 50) at K = 1000 over the 10-pair workload, as a
    ///   served RSS query runs it. Its cost is the recursion (edge
    ///   selection, cut checks, stratum fixes), not the worlds, so the
    ///   row reads as time per query: `ns_per_sample` / 1000 is ms/query.
    ///
    /// Per `_scalar`/`_packed` row pair, the ratio of the two
    /// `ns_per_sample` values is the packed kernel's speedup there;
    /// [`packed_speedup`] reduces those pairs to one headline number.
    pub fn per_sample_probe(profile: RunProfile, seed: u64, fixed_k: usize) -> Vec<PerSampleRow> {
        let mut rows = Vec::new();
        let row = |path: String, samples: usize, wall_ms: f64| PerSampleRow {
            path,
            samples,
            wall_ms,
            ns_per_sample: wall_ms * 1e6 / samples.max(1) as f64,
        };
        for &dataset in PER_SAMPLE_DATASETS {
            let mut env = ExperimentEnv::prepare(dataset, profile, 2, seed);
            env.workload.pairs.truncate(10);
            let slug = dataset.short_name();
            let run_st = |path: String, est: &mut dyn Estimator, k: usize| {
                let mut rng = env.rng(0x9acced);
                let start = std::time::Instant::now();
                let mut samples = 0usize;
                for &(s, t) in &env.workload.pairs {
                    samples += est.estimate(s, t, k, &mut rng).samples;
                }
                row(path, samples, start.elapsed().as_secs_f64() * 1e3)
            };
            rows.push(run_st(
                format!("mc_scalar/{slug}"),
                &mut McSampling::new(Arc::clone(&env.graph)),
                fixed_k,
            ));
            rows.push(run_st(
                format!("mc_packed/{slug}"),
                &mut PackedMcSampling::new(Arc::clone(&env.graph)),
                fixed_k,
            ));

            let budget = SampleBudget::fixed(fixed_k.max(256));
            let (s, t) = env.workload.pairs[0];
            let sampler = ParallelSampler::new(Arc::clone(&env.graph), 1);
            let median_row = |path: String, run: &dyn Fn() -> (usize, f64)| {
                let mut runs: Vec<(usize, f64)> = (0..SINGLE_QUERY_RUNS).map(|_| run()).collect();
                runs.sort_by(|a, b| a.1.total_cmp(&b.1));
                let (samples, wall_ms) = runs[SINGLE_QUERY_RUNS / 2];
                row(path, samples, wall_ms)
            };
            let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;

            rows.push(median_row(format!("topk_scalar/{slug}"), &|| {
                let mut rng = env.rng(0x9acced);
                let r =
                    relcomp_core::topk::top_k_targets_with(&env.graph, s, 10, &budget, &mut rng);
                (r.samples, ms(r.elapsed))
            }));
            rows.push(median_row(format!("topk_packed/{slug}"), &|| {
                let r = sampler.top_k_targets_with(s, 10, &budget, 0x9acced);
                (r.samples, ms(r.elapsed))
            }));

            let d = 4;
            rows.push(median_row(format!("rd_scalar/{slug}"), &|| {
                let mut rng = env.rng(0x9acced);
                let start = std::time::Instant::now();
                let r = relcomp_core::distance_constrained::distance_constrained_with(
                    &env.graph, s, t, d, &budget, &mut rng,
                );
                (r.samples, ms(start.elapsed()))
            }));
            rows.push(median_row(format!("rd_packed/{slug}"), &|| {
                let r = sampler.estimate_distance_constrained_with(s, t, d, &budget, 0x9acced);
                (r.samples, ms(r.elapsed))
            }));

            let start = std::time::Instant::now();
            let mut samples = 0usize;
            for (i, &(s, t)) in env.workload.pairs.iter().enumerate() {
                samples += sampler
                    .estimate_bfs_sharing(s, t, 1000, 0x9acced ^ i as u64)
                    .samples;
            }
            rows.push(row(
                format!("bfs_served/{slug}"),
                samples,
                start.elapsed().as_secs_f64() * 1e3,
            ));

            let start = std::time::Instant::now();
            let mut samples = 0usize;
            for (i, &(s, t)) in env.workload.pairs.iter().enumerate() {
                samples += sampler.estimate_mc(s, t, 1000, 0x9acced ^ i as u64).samples;
            }
            rows.push(row(
                format!("mc_served/{slug}"),
                samples,
                start.elapsed().as_secs_f64() * 1e3,
            ));

            rows.push(run_st(
                format!("rss/{slug}"),
                &mut RecursiveStratified::new(Arc::clone(&env.graph)),
                1000,
            ));
        }
        rows
    }

    /// Packed-over-scalar speedup from a [`per_sample_probe`] result:
    /// the geometric mean of every `<workload>_scalar/<dataset>` over
    /// `<workload>_packed/<dataset>` ratio, so each probability regime
    /// and workload carries equal weight regardless of its absolute
    /// per-sample cost. Unpaired rows (`bfs_served/*`, `mc_served/*`,
    /// `rss/*`) are ignored.
    /// `None` when no pair is complete or a row is degenerate.
    pub fn packed_speedup(rows: &[PerSampleRow]) -> Option<f64> {
        let ns = |path: &str| {
            rows.iter()
                .find(|r| r.path == path)
                .map(|r| r.ns_per_sample)
                .filter(|&ns| ns > 0.0)
        };
        let mut log_sum = 0.0f64;
        let mut count = 0usize;
        for row in rows {
            let Some((workload, slug)) = row.path.split_once("_scalar/") else {
                continue;
            };
            let (Some(scalar), Some(packed)) =
                (ns(&row.path), ns(&format!("{workload}_packed/{slug}")))
            else {
                continue;
            };
            log_sum += (scalar / packed).ln();
            count += 1;
        }
        (count > 0).then(|| (log_sum / count as f64).exp())
    }

    /// Measure every paper-six estimator at `fixed_k` on `env`'s
    /// workload (refresh excluded from timing, as in the paper).
    pub fn timing_probe(env: &ExperimentEnv, fixed_k: usize) -> Vec<EstimatorTiming> {
        EstimatorKind::PAPER_SIX
            .iter()
            .map(|&kind| {
                let mut est = env.estimator(kind);
                let mut rng = env.rng(0x7173 ^ kind as u64);
                let mut wall = 0.0;
                let mut samples = 0usize;
                for &(s, t) in &env.workload.pairs {
                    est.refresh(&mut rng as &mut dyn RngCore);
                    let e = est.estimate(s, t, fixed_k, &mut rng);
                    wall += e.elapsed.as_secs_f64() * 1e3;
                    samples += e.samples;
                }
                EstimatorTiming {
                    estimator: kind.display_name().to_string(),
                    samples,
                    wall_ms: wall,
                }
            })
            .collect()
    }
}

/// Serving-layer latency probe for `BENCH_summary.json`: drive a mixed
/// `st`/`topk`/`dquery` workload through an in-process [`QueryEngine`]
/// and read the per-workload latency percentiles back out of its metrics
/// registry — the same numbers the `metrics` protocol verb serves.
///
/// [`QueryEngine`]: relcomp_serve::engine::QueryEngine
pub mod serve_probe {
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use relcomp_eval::RunProfile;
    use relcomp_serve::engine::{EngineConfig, QueryEngine};
    use relcomp_serve::protocol::{
        DistanceQueryRequest, MaximizeRequest, QueryRequest, TopKRequest,
    };
    use relcomp_serve::{Client, Server, ServerMode, ServerOptions, TenantRegistry};
    use relcomp_ugraph::Dataset;
    use serde::{Deserialize, Serialize};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    /// One per-workload latency row read from the serve registry.
    #[derive(Clone, Debug, Serialize, Deserialize)]
    pub struct ServeMetricRow {
        /// Workload label (`st` / `topk` / `dquery` / `all`).
        pub workload: String,
        /// Queries the histogram observed.
        pub queries: u64,
        /// Median server-side latency, microseconds (log2-bucket upper
        /// bound, the registry's native resolution).
        pub p50_micros: f64,
        /// 99th-percentile server-side latency, microseconds.
        pub p99_micros: f64,
    }

    /// One connection-churn measurement: `connections` closed-loop
    /// client threads race through a shared budget of
    /// connect → one cached st query → disconnect rounds against a
    /// server running in `mode`. Cached queries cost the engine nearly
    /// nothing, so `us_per_request` isolates the per-connection price of
    /// the connection-handling model (thread spawn/teardown for the
    /// threaded server, accept + `epoll_ctl` for the reactor).
    #[derive(Clone, Debug, Serialize, Deserialize)]
    pub struct ServeConcurrencyRow {
        /// Connection-handling model (`reactor` / `threaded`).
        pub mode: String,
        /// Concurrent closed-loop clients, each churning connections.
        pub connections: usize,
        /// Total requests answered at this sweep point.
        pub requests: usize,
        /// Mean wall microseconds per request (connect + query + close)
        /// — the value the CI perf gate tracks per `mode/c{connections}`
        /// row.
        pub us_per_request: f64,
        /// Requests per second across the point.
        pub qps: f64,
    }

    /// Stable row name of a sweep point in `bench_diff` and reports.
    pub fn concurrency_key(row: &ServeConcurrencyRow) -> String {
        format!("{}/c{}", row.mode, row.connections)
    }

    /// Connection-churn sweep over both server modes: one server per
    /// mode (result cache pre-warmed so every churned query is a hit),
    /// then one [`ServeConcurrencyRow`] per connection count.
    pub fn connection_sweep(profile: RunProfile, seed: u64) -> Vec<ServeConcurrencyRow> {
        let counts: &[usize] = match profile {
            RunProfile::Quick => &[1, 32, 256],
            RunProfile::Paper => &[1, 32, 256, 512],
        };
        let graph = Arc::new(Dataset::LastFm.generate_with_scale(0.05, seed));
        let warm = QueryRequest {
            estimator: Some("mc".into()),
            samples: Some(1000),
            seed: Some(seed),
            ..QueryRequest::new(0, 1)
        };
        let mut rows = Vec::new();
        for (mode, label) in [
            (ServerMode::Threaded, "threaded"),
            (ServerMode::Reactor, "reactor"),
        ] {
            let engine = Arc::new(QueryEngine::new(
                Arc::clone(&graph),
                EngineConfig {
                    threads: 1,
                    default_seed: seed,
                    ..Default::default()
                },
            ));
            engine.execute(&warm).expect("cache-warming query");
            let tenants = Arc::new(TenantRegistry::single(engine));
            let server = Server::bind_with(
                "127.0.0.1:0",
                tenants,
                ServerOptions {
                    mode,
                    ..Default::default()
                },
            )
            .expect("bind sweep server");
            let shutdown = server.shutdown_handle();
            let (addr, thread) = server.spawn().expect("spawn sweep server");
            for &connections in counts {
                let total = (connections * 4).max(512);
                let cursor = AtomicUsize::new(0);
                let start = Instant::now();
                std::thread::scope(|scope| {
                    for _ in 0..connections {
                        scope.spawn(|| loop {
                            if cursor.fetch_add(1, Ordering::Relaxed) >= total {
                                break;
                            }
                            let mut client = Client::connect(addr).expect("churn connect");
                            let resp = client.query(warm.clone()).expect("churn query");
                            assert!(resp.cached, "churned queries must be cache hits");
                        });
                    }
                });
                let wall = start.elapsed();
                rows.push(ServeConcurrencyRow {
                    mode: label.to_string(),
                    connections,
                    requests: total,
                    us_per_request: wall.as_micros() as f64 / total as f64,
                    qps: total as f64 / wall.as_secs_f64(),
                });
            }
            shutdown.shutdown();
            thread.join().expect("join sweep server").expect("serve");
        }
        rows
    }

    /// Run the mixed workload and return one row per latency histogram
    /// series (`st`, `topk`, `dquery`, `maximize`, and the merged `all`).
    pub fn serve_metrics_probe(profile: RunProfile, seed: u64) -> Vec<ServeMetricRow> {
        let (scale, rounds, samples) = match profile {
            RunProfile::Quick => (0.05, 8, 1000),
            RunProfile::Paper => (0.2, 24, 5000),
        };
        let graph = Arc::new(Dataset::LastFm.generate_with_scale(scale, seed));
        let n = graph.num_nodes() as u32;
        let engine = QueryEngine::new(
            Arc::clone(&graph),
            EngineConfig {
                threads: 2,
                default_seed: seed,
                ..Default::default()
            },
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5e7e);
        for _ in 0..rounds {
            let s = rng.gen_range(0..n);
            let mut t = rng.gen_range(0..n);
            while t == s {
                t = rng.gen_range(0..n);
            }
            let q = QueryRequest {
                estimator: Some("mc".into()),
                samples: Some(samples),
                seed: Some(seed),
                ..QueryRequest::new(s, t)
            };
            engine.execute(&q).expect("st query");
            // The repeat is a cache hit: the histogram sees both outcomes.
            engine.execute(&q).expect("repeated st query");
            engine
                .execute_topk(&TopKRequest {
                    k: Some(5),
                    samples: Some(samples / 2),
                    seed: Some(seed),
                    ..TopKRequest::new(s)
                })
                .expect("topk query");
            engine
                .execute_dquery(&DistanceQueryRequest {
                    samples: Some(samples / 2),
                    seed: Some(seed),
                    ..DistanceQueryRequest::new(s, t, 4)
                })
                .expect("dquery");
            engine
                .execute_maximize(&MaximizeRequest {
                    k: Some(1),
                    candidates: Some(8),
                    samples: Some(samples / 2),
                    seed: Some(seed),
                    ..MaximizeRequest::new(s, t)
                })
                .expect("maximize");
        }
        engine
            .metrics()
            .histograms
            .iter()
            .filter(|h| h.name == "relcomp_query_latency_micros")
            .map(|h| ServeMetricRow {
                workload: h
                    .labels
                    .iter()
                    .find(|(k, _)| *k == "workload")
                    .map(|(_, v)| v.clone())
                    .unwrap_or_default(),
                queries: h.count,
                p50_micros: h.p50 as f64,
                p99_micros: h.p99 as f64,
            })
            .collect()
    }
}

/// The machine-readable `BENCH_summary.json` schema shared by `run_all`
/// (full sweep), `perf_probe` (probes only, for the CI perf gate), and
/// `bench_diff` (baseline comparison).
pub mod summary {
    use crate::adaptive::{EstimatorTiming, PerSampleRow, WorkloadTiming};
    use crate::serve_probe::{ServeConcurrencyRow, ServeMetricRow};
    use serde::{Deserialize, Serialize};
    use std::path::Path;

    /// One cold-start measurement: a fresh child process loads a graph
    /// file one way, answers one query, and reports its peak RSS.
    #[derive(Clone, Debug, Serialize, Deserialize)]
    pub struct ColdStartRow {
        /// Load path measured: `mmap` (v2 zero-copy), `heap_v2` (v2
        /// full parse), or `v1_binary` (legacy bulk reader).
        pub mode: String,
        /// Size of the graph file loaded, bytes.
        pub file_bytes: u64,
        /// Wall milliseconds from process start to a usable graph
        /// (open + map/parse + validation).
        pub load_ms: f64,
        /// Wall milliseconds for the first query after load — the
        /// restart-to-first-answer headline the CI gate tracks.
        pub first_query_ms: f64,
        /// Peak resident set size of the child process (`VmHWM`), bytes.
        /// The mmap path should stay near `file_bytes`; a full parse
        /// pays roughly double.
        pub peak_rss_bytes: u64,
    }

    /// One experiment binary's wall time.
    #[derive(Clone, Debug, Serialize, Deserialize)]
    pub struct JobTiming {
        /// Experiment job name (`table02_datasets`, ...).
        pub name: String,
        /// Wall seconds the job took.
        pub secs: f64,
    }

    /// The machine-readable sweep summary written to `BENCH_summary.json`.
    #[derive(Clone, Debug, Serialize, Deserialize)]
    pub struct BenchSummary {
        /// Run profile (`quick` / `paper`).
        pub profile: String,
        /// Master seed of the run.
        pub seed: u64,
        /// Wall seconds for the whole sweep (probes only for `perf_probe`).
        pub total_secs: f64,
        /// Per-job wall times (empty for probe-only summaries).
        pub jobs: Vec<JobTiming>,
        /// Fixed-K timing probe per estimator (samples + wall ms) on the
        /// LastFM analog — the stable cross-commit perf signal.
        pub estimators: Vec<EstimatorTiming>,
        /// Served extension workloads (top-k / distance-constrained),
        /// fixed vs adaptive, on the parallel sharded sampler.
        pub workloads: Vec<WorkloadTiming>,
        /// Per-sample cost of scalar vs packed MC sampling.
        pub per_sample: Vec<PerSampleRow>,
        /// Packed-over-scalar MC per-sample speedup (0.0 when the probe
        /// was degenerate).
        pub mc_packed_speedup: f64,
        /// Server-side latency percentiles per workload, read from the
        /// serve metrics registry (informational in `bench_diff`: log2
        /// buckets quantize too coarsely to gate on).
        pub serve_metrics: Vec<ServeMetricRow>,
        /// Connection-churn sweep rows (reactor vs threaded server at
        /// each connection count), gated row-wise on `us_per_request`.
        pub serve_concurrency: Vec<ServeConcurrencyRow>,
        /// Cold-start rows from the `cold_start` bench (one per load
        /// path), merged into the summary by that binary; empty until it
        /// runs.
        pub cold_start: Vec<ColdStartRow>,
    }

    /// Write `summary` to `BENCH_summary.json` at the repo root.
    pub fn write(summary: &BenchSummary) {
        let path = crate::repo_root().join("BENCH_summary.json");
        match serde_json::to_string_pretty(summary) {
            Ok(json) => match std::fs::write(&path, json) {
                Ok(()) => eprintln!("[saved {}]", path.display()),
                Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
            },
            Err(e) => eprintln!("warning: could not serialize BENCH_summary: {e}"),
        }
    }

    /// Load a summary from `path`.
    pub fn load(path: &Path) -> Result<BenchSummary, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("could not read {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("could not parse {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_args() {
        let c = parse_args(vec![]).unwrap();
        assert_eq!(c.profile, RunProfile::Quick);
        assert_eq!(c.seed, 42);
    }

    #[test]
    fn parses_profile_and_seed() {
        let c = parse_args(vec!["paper".into(), "--seed".into(), "7".into()]).unwrap();
        assert_eq!(c.profile, RunProfile::Paper);
        assert_eq!(c.seed, 7);
    }

    #[test]
    fn packed_speedup_ignores_unpaired_rows() {
        use adaptive::{packed_speedup, PerSampleRow};
        let row = |path: &str, ns: f64| PerSampleRow {
            path: path.to_string(),
            samples: 1000,
            wall_ms: ns * 1e-3,
            ns_per_sample: ns,
        };
        let paired = vec![
            row("mc_scalar/lastfm", 400.0),
            row("mc_packed/lastfm", 100.0),
        ];
        let mut with_served = paired.clone();
        with_served.push(row("bfs_served/lastfm", 5.0));
        with_served.push(row("bfs_served/dblp02", 50.0));
        with_served.push(row("rss/lastfm", 5000.0));
        assert_eq!(packed_speedup(&paired), Some(4.0));
        assert_eq!(packed_speedup(&with_served), Some(4.0));
        assert_eq!(packed_speedup(&with_served[2..]), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_args(vec!["bogus".into()]).is_err());
        assert!(parse_args(vec!["--seed".into()]).is_err());
        assert!(parse_args(vec!["--seed".into(), "x".into()]).is_err());
    }
}
