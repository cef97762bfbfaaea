//! Compare a fresh `BENCH_summary.json` against the committed
//! `BENCH_baseline.json`, row by row, and fail on perf regressions.
//!
//! Usage:
//!
//! ```text
//! bench_diff [--baseline PATH] [--summary PATH] [--tolerance F]
//!            [--min-ms F] [--report-only]
//! ```
//!
//! Six row families are matched by name: per-estimator wall times
//! (`estimators`), served-workload wall times (`workloads`, keyed by
//! `workload/mode`), per-sample costs (`per_sample`, compared on
//! `ns_per_sample`), serve registry latency percentiles
//! (`serve_metrics`, keyed by workload, compared on `p50_micros`),
//! connection-churn costs (`serve_conc`, keyed by `mode/c{connections}`,
//! compared on `us_per_request`), and cold-start rows (`cold_start`,
//! keyed by `mode/{load,first_query,rss}` — load and first-query wall ms
//! plus peak RSS in MiB).
//! A row regresses when the fresh value exceeds
//! `baseline * (1 + tolerance)`; wall-time rows faster than `--min-ms`
//! in both runs are skipped as noise. `serve_metrics` rows are
//! informational only — the registry's log2 histogram buckets quantize
//! percentiles in 2x jumps, far coarser than the gate tolerance — so
//! they are printed but never fail. A row only the fresh summary has is
//! reported as new and never fails (estimator sets may grow); a baseline
//! row the fresh summary lacks fails, so a gated row cannot vanish
//! unseen. Exits nonzero on any regression or missing row unless
//! `--report-only` is given.

use relcomp_bench::summary::{load, BenchSummary};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    baseline: PathBuf,
    summary: PathBuf,
    tolerance: f64,
    min_ms: f64,
    report_only: bool,
}

fn parse_options() -> Result<Options, String> {
    let mut opts = Options {
        baseline: relcomp_bench::repo_root().join("BENCH_baseline.json"),
        summary: relcomp_bench::repo_root().join("BENCH_summary.json"),
        tolerance: 0.3,
        min_ms: 1.0,
        report_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} requires a value"));
        match arg.as_str() {
            "--baseline" => opts.baseline = PathBuf::from(value("--baseline")?),
            "--summary" => opts.summary = PathBuf::from(value("--summary")?),
            "--tolerance" => {
                let v = value("--tolerance")?;
                opts.tolerance = v.parse().map_err(|_| format!("bad tolerance: {v}"))?;
            }
            "--min-ms" => {
                let v = value("--min-ms")?;
                opts.min_ms = v.parse().map_err(|_| format!("bad min-ms: {v}"))?;
            }
            "--report-only" => opts.report_only = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(opts)
}

/// One comparison row: `(section, name, baseline, fresh)` in the
/// section's native unit. `None` marks a side that lacks the row.
struct DiffRow {
    section: &'static str,
    name: String,
    unit: &'static str,
    base: Option<f64>,
    fresh: Option<f64>,
    /// Whether the noise floor applies (wall-time rows only).
    floored: bool,
    /// Informational rows are printed but never counted as regressions
    /// (used for log2-quantized registry percentiles).
    info: bool,
}

fn collect_rows(base: &BenchSummary, fresh: &BenchSummary) -> Vec<DiffRow> {
    let mut rows = Vec::new();
    let mut push = |section, name: String, unit, b, f, floored, info| {
        rows.push(DiffRow {
            section,
            name,
            unit,
            base: b,
            fresh: f,
            floored,
            info,
        });
    };
    let names: Vec<String> = {
        let mut v: Vec<String> = base
            .estimators
            .iter()
            .map(|r| r.estimator.clone())
            .collect();
        for r in &fresh.estimators {
            if !v.contains(&r.estimator) {
                v.push(r.estimator.clone());
            }
        }
        v
    };
    for name in names {
        let b = base
            .estimators
            .iter()
            .find(|r| r.estimator == name)
            .map(|r| r.wall_ms);
        let f = fresh
            .estimators
            .iter()
            .find(|r| r.estimator == name)
            .map(|r| r.wall_ms);
        push("estimators", name, "ms", b, f, true, false);
    }
    let keys: Vec<String> = {
        let key =
            |r: &relcomp_bench::adaptive::WorkloadTiming| format!("{}/{}", r.workload, r.mode);
        let mut v: Vec<String> = base.workloads.iter().map(key).collect();
        for r in &fresh.workloads {
            let k = key(r);
            if !v.contains(&k) {
                v.push(k);
            }
        }
        v
    };
    for name in keys {
        let find = |s: &BenchSummary| {
            s.workloads
                .iter()
                .find(|r| format!("{}/{}", r.workload, r.mode) == name)
                .map(|r| r.wall_ms)
        };
        push(
            "workloads",
            name.clone(),
            "ms",
            find(base),
            find(fresh),
            true,
            false,
        );
    }
    let paths: Vec<String> = {
        let mut v: Vec<String> = base.per_sample.iter().map(|r| r.path.clone()).collect();
        for r in &fresh.per_sample {
            if !v.contains(&r.path) {
                v.push(r.path.clone());
            }
        }
        v
    };
    for name in paths {
        let find = |s: &BenchSummary| {
            s.per_sample
                .iter()
                .find(|r| r.path == name)
                .map(|r| r.ns_per_sample)
        };
        push(
            "per_sample",
            name.clone(),
            "ns/sample",
            find(base),
            find(fresh),
            false,
            false,
        );
    }
    let serve_keys: Vec<String> = {
        let mut v: Vec<String> = base
            .serve_metrics
            .iter()
            .map(|r| r.workload.clone())
            .collect();
        for r in &fresh.serve_metrics {
            if !v.contains(&r.workload) {
                v.push(r.workload.clone());
            }
        }
        v
    };
    for name in serve_keys {
        let find = |s: &BenchSummary| {
            s.serve_metrics
                .iter()
                .find(|r| r.workload == name)
                .map(|r| r.p50_micros)
        };
        // Informational: log2 buckets quantize p50 in 2x steps, so the
        // gate tolerance cannot meaningfully apply.
        push(
            "serve_metrics",
            format!("{name}/p50"),
            "us",
            find(base),
            find(fresh),
            false,
            true,
        );
    }
    let churn_keys: Vec<String> = {
        let key = relcomp_bench::serve_probe::concurrency_key;
        let mut v: Vec<String> = base.serve_concurrency.iter().map(key).collect();
        for r in &fresh.serve_concurrency {
            let k = key(r);
            if !v.contains(&k) {
                v.push(k);
            }
        }
        v
    };
    for name in churn_keys {
        let find = |s: &BenchSummary| {
            s.serve_concurrency
                .iter()
                .find(|r| relcomp_bench::serve_probe::concurrency_key(r) == name)
                .map(|r| r.us_per_request)
        };
        // Per-request churn cost is microseconds-scale by design, so the
        // wall-time noise floor (milliseconds) cannot apply. Threaded
        // rows past the stock accept backlog (128) sit in the kernel's
        // SYN-retransmit regime — wall time there is quantized by ~1 s
        // timers, far too coarse to gate — so they are informational,
        // kept for the reactor-vs-threaded headline comparison.
        let info = name
            .strip_prefix("threaded/c")
            .and_then(|c| c.parse::<usize>().ok())
            .is_some_and(|c| c > 128);
        push(
            "serve_conc",
            name.clone(),
            "us/req",
            find(base),
            find(fresh),
            false,
            info,
        );
    }
    let cold_keys: Vec<String> = {
        let mut v: Vec<String> = base.cold_start.iter().map(|r| r.mode.clone()).collect();
        for r in &fresh.cold_start {
            if !v.contains(&r.mode) {
                v.push(r.mode.clone());
            }
        }
        v
    };
    for mode in cold_keys {
        let metric = |f: fn(&relcomp_bench::summary::ColdStartRow) -> f64| {
            let find = |s: &BenchSummary| s.cold_start.iter().find(|r| r.mode == mode).map(f);
            (find(base), find(fresh))
        };
        let (b, f) = metric(|r| r.load_ms);
        push(
            "cold_start",
            format!("{mode}/load"),
            "ms",
            b,
            f,
            true,
            false,
        );
        let (b, f) = metric(|r| r.first_query_ms);
        push(
            "cold_start",
            format!("{mode}/first_query"),
            "ms",
            b,
            f,
            true,
            false,
        );
        let (b, f) = metric(|r| r.peak_rss_bytes as f64 / (1024.0 * 1024.0));
        push(
            "cold_start",
            format!("{mode}/rss"),
            "MiB",
            b,
            f,
            false,
            false,
        );
    }
    rows
}

/// A row's printed status, and whether it fails the gate: a regression
/// beyond `tolerance`, or a baseline row missing from the fresh summary.
/// `None` when neither side has the row.
fn judge(row: &DiffRow, tolerance: f64, min_ms: f64) -> Option<(&'static str, bool)> {
    Some(match (row.base, row.fresh) {
        (Some(b), Some(f)) => {
            if row.info {
                ("info", false)
            } else if row.floored && b < min_ms && f < min_ms {
                ("ok (below floor)", false)
            } else if f > b * (1.0 + tolerance) {
                ("REGRESSED", true)
            } else if b > f * (1.0 + tolerance) {
                ("improved", false)
            } else {
                ("ok", false)
            }
        }
        (None, Some(_)) => ("new row", false),
        (Some(_), None) => ("MISSING in fresh", true),
        (None, None) => return None,
    })
}

fn main() -> ExitCode {
    let opts = parse_options().unwrap_or_else(|msg| {
        eprintln!("{msg}");
        eprintln!(
            "usage: bench_diff [--baseline PATH] [--summary PATH] [--tolerance F] \
             [--min-ms F] [--report-only]"
        );
        std::process::exit(2);
    });
    let base = load(&opts.baseline).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let fresh = load(&opts.summary).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    let mut report = String::new();
    report.push_str(&format!(
        "bench_diff: {} (baseline) vs {} (fresh), tolerance +{:.0}%, noise floor {} ms\n\n",
        opts.baseline.display(),
        opts.summary.display(),
        opts.tolerance * 100.0,
        opts.min_ms,
    ));
    report.push_str(&format!(
        "{:<12} {:<24} {:>12} {:>12} {:>9}  {}\n",
        "section", "row", "baseline", "fresh", "delta", "status"
    ));
    let (mut regressions, mut missing) = (0usize, 0usize);
    for row in collect_rows(&base, &fresh) {
        let Some((status, fails)) = judge(&row, opts.tolerance, opts.min_ms) else {
            continue;
        };
        if fails && row.fresh.is_some() {
            regressions += 1;
        } else if fails {
            missing += 1;
        }
        let value = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.2} {}", row.unit));
        let delta = match (row.base, row.fresh) {
            (Some(b), Some(f)) if b > 0.0 => format!("{:+.1}%", (f - b) / b * 100.0),
            (Some(_), Some(_)) => "+0.0%".to_string(),
            _ => "-".to_string(),
        };
        report.push_str(&format!(
            "{:<12} {:<24} {:>12} {:>12} {:>9}  {}\n",
            row.section,
            row.name,
            value(row.base),
            value(row.fresh),
            delta,
            status
        ));
    }
    report.push('\n');
    if regressions + missing > 0 {
        report.push_str(&format!(
            "{regressions} row(s) regressed beyond +{:.0}%, {missing} baseline row(s) missing in fresh",
            opts.tolerance * 100.0
        ));
        if opts.report_only {
            report.push_str(" (report-only mode: exit 0)");
        }
        report.push('\n');
    } else {
        report.push_str("no regressions\n");
    }
    relcomp_bench::emit("bench_diff", &report);
    if regressions + missing > 0 && !opts.report_only {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(base: Option<f64>, fresh: Option<f64>, info: bool) -> DiffRow {
        DiffRow {
            section: "per_sample",
            name: "mc_packed/lastfm".into(),
            unit: "ns/sample",
            base,
            fresh,
            floored: false,
            info,
        }
    }

    #[test]
    fn missing_and_regressed_rows_fail_new_rows_do_not() {
        let judge = |r: DiffRow| judge(&r, 0.5, 1.0);
        assert_eq!(
            judge(row(Some(100.0), None, false)),
            Some(("MISSING in fresh", true))
        );
        assert_eq!(
            judge(row(Some(100.0), None, true)),
            Some(("MISSING in fresh", true))
        );
        assert_eq!(
            judge(row(None, Some(100.0), false)),
            Some(("new row", false))
        );
        assert_eq!(
            judge(row(Some(100.0), Some(151.0), false)),
            Some(("REGRESSED", true))
        );
        assert_eq!(
            judge(row(Some(100.0), Some(151.0), true)),
            Some(("info", false))
        );
        assert_eq!(
            judge(row(Some(100.0), Some(149.0), false)),
            Some(("ok", false))
        );
        assert_eq!(
            judge(row(Some(151.0), Some(100.0), false)),
            Some(("improved", false))
        );
        assert_eq!(judge(row(None, None, false)), None);
    }
}
