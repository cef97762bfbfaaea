//! `relcomp` — command-line interface to the library.
//!
//! ```text
//! relcomp generate <dataset> --out FILE [--scale S] [--seed N]
//! relcomp generate-stream ba|er --out FILE --nodes N [--attach M] [--pairs M]
//!                 [--seed N] [--prob-low X] [--prob-high Y]
//! relcomp convert <in> <out>
//! relcomp stats <file>
//! relcomp query <file> <s> <t> [--estimator NAME] [--samples N] [--seed N]
//!                 [--eps E] [--confidence C] [--time-budget-ms MS]
//! relcomp bounds <file> <s> <t>
//! relcomp path <file> <s> <t>
//! relcomp topk <file> <s> [--k N] [--samples N] [--seed N] [--threads N]
//!                [--eps E] [--confidence C] [--time-budget-ms MS]
//! relcomp dquery <file> <s> <t> <d> [--samples N] [--seed N] [--threads N]
//!                [--eps E] [--confidence C] [--time-budget-ms MS]
//! relcomp maximize <file> <s> <t> [--k N] [--boost P] [--candidates N]
//!                [--samples N] [--seed N] [--threads N]
//!                [--eps E] [--confidence C] [--time-budget-ms MS]
//! relcomp recommend --memory smaller|larger --variance lower|slight|higher --speed faster|slower
//! relcomp serve <file> [--port P] [--threads N] [--cache N] [--seed N]
//! relcomp client <s> <t> [--addr HOST:PORT] [--estimator NAME] [--samples N] [--seed N]
//!                  [--eps E] [--confidence C] [--time-budget-ms MS]
//! relcomp client topk <s> [--k N] [--addr HOST:PORT] [--samples N] [--seed N]
//!                  [--eps E] [--confidence C] [--time-budget-ms MS]
//! relcomp client dquery <s> <t> <d> [--addr HOST:PORT] [--samples N] [--seed N]
//!                  [--eps E] [--confidence C] [--time-budget-ms MS]
//! relcomp client maximize <s> <t> [--k N] [--boost P] [--candidates N] [--apply]
//!                  [--addr HOST:PORT] [--samples N] [--seed N]
//!                  [--eps E] [--confidence C] [--time-budget-ms MS]
//! relcomp client update <s> <t> <prob> [--addr HOST:PORT]
//! relcomp client reload [--path FILE] [--addr HOST:PORT]
//! relcomp client metrics [--format json|prom] [--addr HOST:PORT]
//! relcomp client trace [--last N] [--addr HOST:PORT]
//! relcomp client stats|ping|shutdown [--addr HOST:PORT]
//! ```
//!
//! Graph files are loaded by sniffing their magic bytes (text, `UGRAPHB1`
//! record binary, or mmap-able `UGRAPHB2`); when writing, the extension
//! picks the format (`.ugb` = v1 binary, `.ug2` = v2 binary, else text).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use relcomp::prelude::*;
use relcomp_core::bounds::reliability_bounds;
use relcomp_core::paths::most_reliable_path;
use relcomp_eval::recommend::{recommend, MemoryBudget, SpeedNeed, VarianceNeed};
use relcomp_serve::engine::EngineConfig;
use relcomp_serve::protocol::{QueryRequest, Response, DEFAULT_PORT};
use relcomp_serve::{
    Client, PersistConfig, Server, ServerMode, ServerOptions, TenantRegistry, DEFAULT_TENANT,
};
use relcomp_ugraph::analysis::{degree_stats, largest_component_size};
use relcomp_ugraph::generators::{StreamSpec, StreamTopology};
use relcomp_ugraph::io::{load_graph_auto, save_graph, save_graph_binary};
use relcomp_ugraph::write_graph_v2;
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
usage:
  relcomp generate <dataset> --out FILE [--scale S] [--seed N]
  relcomp generate-stream ba|er --out FILE --nodes N [--attach M] [--pairs M]
                  [--seed N] [--prob-low X] [--prob-high Y]
  relcomp convert <in> <out>
  relcomp stats <file>
  relcomp query <file> <s> <t> [--estimator NAME] [--samples N] [--seed N]
                  [--eps E] [--confidence C] [--time-budget-ms MS]
  relcomp bounds <file> <s> <t>
  relcomp path <file> <s> <t>
  relcomp topk <file> <s> [--k N] [--samples N] [--seed N] [--threads N]
                 [--eps E] [--confidence C] [--time-budget-ms MS]
  relcomp dquery <file> <s> <t> <d> [--samples N] [--seed N] [--threads N]
                 [--eps E] [--confidence C] [--time-budget-ms MS]
  relcomp maximize <file> <s> <t> [--k N] [--boost P] [--candidates N]
                 [--samples N] [--seed N] [--threads N]
                 [--eps E] [--confidence C] [--time-budget-ms MS]
  relcomp recommend --memory smaller|larger --variance lower|slight|higher --speed faster|slower
  relcomp serve <file> [--port P] [--threads N] [--cache N] [--seed N]
                  [--mode auto|reactor|threaded] [--workers N]
                  [--warm-cache DIR] [--flush-ms MS]
  relcomp client <s> <t> [--addr HOST:PORT] [--estimator NAME] [--samples N] [--seed N]
                   [--eps E] [--confidence C] [--time-budget-ms MS]
  relcomp client topk <s> [--k N] [--addr HOST:PORT] [--samples N] [--seed N]
                   [--eps E] [--confidence C] [--time-budget-ms MS]
  relcomp client dquery <s> <t> <d> [--addr HOST:PORT] [--samples N] [--seed N]
                   [--eps E] [--confidence C] [--time-budget-ms MS]
  relcomp client maximize <s> <t> [--k N] [--boost P] [--candidates N] [--apply]
                   [--addr HOST:PORT] [--samples N] [--seed N]
                   [--eps E] [--confidence C] [--time-budget-ms MS]
  relcomp client load <name> <path> [--quota N] [--addr HOST:PORT]
  relcomp client unload <name> [--addr HOST:PORT]
  relcomp client use <name> [--addr HOST:PORT]
  relcomp client update <s> <t> <prob> [--addr HOST:PORT]
  relcomp client reload [--path FILE] [--addr HOST:PORT]
  relcomp client metrics [--format json|prom] [--addr HOST:PORT]
  relcomp client trace [--last N] [--addr HOST:PORT]
  relcomp client stats|ping|shutdown [--addr HOST:PORT]

datasets:   lastfm nethept as_topology dblp02 dblp005 biomine
estimators: mc bfs_sharing probtree lp+ lp rhh rss probtree+lp+ probtree+rhh probtree+rss";

/// Flags that stand alone (`--apply`), not `--flag value` pairs.
const BOOLEAN_FLAGS: &[&str] = &["apply"];

/// Parse `--flag value` options out of an argument list; returns
/// (positional, options). [`BOOLEAN_FLAGS`] take no value and read as
/// `"true"`.
fn split_options(args: &[String]) -> Result<(Vec<&str>, HashMap<&str, &str>), String> {
    let mut positional = Vec::new();
    let mut options = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if let Some(name) = a.strip_prefix("--") {
            if BOOLEAN_FLAGS.contains(&name) {
                options.insert(name, "true");
                i += 1;
                continue;
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{name} requires a value"))?;
            options.insert(name, value.as_str());
            i += 2;
        } else {
            positional.push(a);
            i += 1;
        }
    }
    Ok((positional, options))
}

/// Reject options the command does not understand, naming the ones it
/// does. Typos like `--sample` or options borrowed from another command
/// fail loudly instead of being silently ignored.
fn check_options(cmd: &str, options: &HashMap<&str, &str>, allowed: &[&str]) -> Result<(), String> {
    for &name in options.keys() {
        if !allowed.contains(&name) {
            let expected = if allowed.is_empty() {
                "no options".to_string()
            } else {
                allowed
                    .iter()
                    .map(|a| format!("--{a}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            return Err(format!(
                "unknown option `--{name}` for `{cmd}` (expected {expected})"
            ));
        }
    }
    Ok(())
}

fn parse_node(graph: &UncertainGraph, raw: &str, what: &str) -> Result<NodeId, String> {
    let id: u32 = raw
        .parse()
        .map_err(|_| format!("cannot parse {what} node `{raw}`"))?;
    let node = NodeId(id);
    if !graph.contains_node(node) {
        return Err(format!(
            "{what} node {id} out of range (graph has {} nodes)",
            graph.num_nodes()
        ));
    }
    Ok(node)
}

fn parse_estimator(name: &str) -> Result<EstimatorKind, String> {
    // The core parser's error already lists every valid spelling.
    EstimatorKind::parse(name)
}

/// The shared `--samples/--eps/--confidence/--time-budget-ms` budget
/// flags, parsed and validated (shared by `query`, `topk`, `dquery`, and
/// the matching `client` forms so their budget semantics cannot drift).
#[derive(Clone, Copy, Debug, Default)]
struct BudgetFlags {
    samples: Option<usize>,
    eps: Option<f64>,
    confidence: Option<f64>,
    time_ms: Option<u64>,
}

impl BudgetFlags {
    fn parse(opts: &HashMap<&str, &str>) -> Result<Self, String> {
        let flags = BudgetFlags {
            samples: opts
                .get("samples")
                .map(|v| v.parse())
                .transpose()
                .map_err(|_| "bad --samples (expected a positive integer)")?,
            eps: opts
                .get("eps")
                .map(|v| v.parse())
                .transpose()
                .map_err(|_| "bad --eps")?,
            confidence: opts
                .get("confidence")
                .map(|v| v.parse())
                .transpose()
                .map_err(|_| "bad --confidence")?,
            time_ms: opts
                .get("time-budget-ms")
                .map(|v| v.parse())
                .transpose()
                .map_err(|_| "bad --time-budget-ms")?,
        };
        // Zero is rejected here at parse time — not deep in a sampler
        // panic, and not only after a round trip for the client forms
        // (the server rejects it too, but a usage error should never
        // need a connection to surface).
        if flags.samples == Some(0) {
            return Err("--samples must be positive".into());
        }
        // A bad value is a usage error, not a panic (the rule set is the
        // serve engine's, so the two entry points cannot drift).
        relcomp_core::session::validate_budget_fields(flags.eps, flags.confidence, flags.time_ms)
            .map_err(|e| format!("--{}", e.replacen("time_budget_ms", "time-budget-ms", 1)))?;
        Ok(flags)
    }

    fn is_adaptive(&self) -> bool {
        self.eps.is_some() || self.time_ms.is_some()
    }

    /// Resolve the sample budget: `default_fixed` when no flag names one
    /// and no adaptive knob raises the cap to the adaptive default.
    fn resolve_samples(&self, default_fixed: usize) -> Result<usize, String> {
        let k = self.samples.unwrap_or(if self.is_adaptive() {
            relcomp_core::session::DEFAULT_ADAPTIVE_CAP
        } else {
            default_fixed
        });
        if k == 0 {
            return Err("--samples must be positive".into());
        }
        Ok(k)
    }

    /// Assemble the [`SampleBudget`] for `samples` (see
    /// [`BudgetFlags::resolve_samples`]).
    fn budget(&self, samples: usize) -> SampleBudget {
        SampleBudget::assemble(
            samples,
            self.eps,
            self.confidence
                .unwrap_or(relcomp_core::session::DEFAULT_CONFIDENCE),
            self.time_ms,
        )
    }
}

/// Parse a `--quota N` flag: a per-tenant in-flight limit must be a
/// positive integer, and zero is rejected here at parse time rather
/// than after a round trip to the server (which enforces the same rule).
fn parse_quota(opts: &HashMap<&str, &str>) -> Result<Option<usize>, String> {
    let quota: Option<usize> = opts
        .get("quota")
        .map(|v| v.parse())
        .transpose()
        .map_err(|_| "bad --quota (expected a positive integer)")?;
    if quota == Some(0) {
        return Err("--quota must be positive (0 would admit no queries at all)".into());
    }
    Ok(quota)
}

/// Resolve a `--threads` flag (0 or absent = all available cores).
fn parse_threads(opts: &HashMap<&str, &str>) -> Result<usize, String> {
    let threads: usize = opts
        .get("threads")
        .map(|v| v.parse())
        .transpose()
        .map_err(|_| "bad --threads")?
        .unwrap_or(0);
    Ok(if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    })
}

/// Load a graph in any format, auto-detected from its magic bytes
/// (extension is irrelevant). v2 files come back as zero-copy mmap views
/// where the platform allows.
fn load_any(path: &str) -> Result<(UncertainGraph, relcomp_ugraph::LoadReport), String> {
    load_graph_auto(path).map_err(|e| e.to_string())
}

/// Save a graph, choosing the format by extension (`.ugb` = v1 binary,
/// `.ug2` = v2 mmap-able binary, anything else = text).
fn save_any(graph: &UncertainGraph, path: &str) -> Result<(), String> {
    if path.ends_with(".ug2") {
        write_graph_v2(graph, std::path::Path::new(path)).map_err(|e| e.to_string())
    } else if path.ends_with(".ugb") {
        save_graph_binary(graph, path).map_err(|e| e.to_string())
    } else {
        save_graph(graph, path).map_err(|e| e.to_string())
    }
}

fn parse_dataset(name: &str) -> Result<Dataset, String> {
    Dataset::ALL
        .into_iter()
        .find(|d| d.short_name() == name)
        .ok_or_else(|| format!("unknown dataset `{name}`"))
}

fn run(args: Vec<String>) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("missing command".into());
    };
    let (pos, opts) = split_options(rest)?;
    let seed: u64 = opts
        .get("seed")
        .map(|v| v.parse())
        .transpose()
        .map_err(|_| "bad --seed")?
        .unwrap_or(42);

    match cmd.as_str() {
        "generate" => {
            check_options(cmd, &opts, &["out", "scale", "seed"])?;
            let [name] = pos[..] else {
                return Err("generate needs <dataset>".into());
            };
            let dataset = parse_dataset(name)?;
            let out = opts.get("out").ok_or("generate needs --out FILE")?;
            let scale: f64 = opts
                .get("scale")
                .map(|v| v.parse())
                .transpose()
                .map_err(|_| "bad --scale")?
                .unwrap_or(dataset.spec().default_scale);
            let graph = dataset.generate_with_scale(scale, seed);
            save_any(&graph, out)?;
            println!(
                "wrote {} ({} nodes, {} edges, scale {scale})",
                out,
                graph.num_nodes(),
                graph.num_edges()
            );
            Ok(())
        }
        "generate-stream" => {
            check_options(
                cmd,
                &opts,
                &[
                    "out",
                    "nodes",
                    "attach",
                    "pairs",
                    "seed",
                    "prob-low",
                    "prob-high",
                ],
            )?;
            let [family] = pos[..] else {
                return Err("generate-stream needs a topology: ba or er".into());
            };
            let out = opts.get("out").ok_or("generate-stream needs --out FILE")?;
            if !out.ends_with(".ug2") {
                return Err("generate-stream writes v2 binaries; --out must end in .ug2".into());
            }
            let n: usize = opts
                .get("nodes")
                .ok_or("generate-stream needs --nodes N")?
                .parse()
                .map_err(|_| "bad --nodes")?;
            let topology = match family {
                "ba" => StreamTopology::BarabasiAlbert {
                    n,
                    m_attach: opts
                        .get("attach")
                        .map(|v| v.parse())
                        .transpose()
                        .map_err(|_| "bad --attach")?
                        .unwrap_or(5),
                },
                "er" => StreamTopology::ErdosRenyi {
                    n,
                    m_pairs: opts
                        .get("pairs")
                        .map(|v| v.parse())
                        .transpose()
                        .map_err(|_| "bad --pairs")?
                        .unwrap_or(n.saturating_mul(5)),
                },
                other => return Err(format!("unknown topology `{other}` (expected ba or er)")),
            };
            let spec = StreamSpec {
                topology,
                seed,
                prob_low: opts
                    .get("prob-low")
                    .map(|v| v.parse())
                    .transpose()
                    .map_err(|_| "bad --prob-low")?
                    .unwrap_or(0.05),
                prob_high: opts
                    .get("prob-high")
                    .map(|v| v.parse())
                    .transpose()
                    .map_err(|_| "bad --prob-high")?
                    .unwrap_or(0.5),
            };
            let start = std::time::Instant::now();
            let stats =
                relcomp_ugraph::generators::generate_v2_file(&spec, std::path::Path::new(out))
                    .map_err(|e| e.to_string())?;
            println!(
                "wrote {} ({} nodes, {} directed edges, {:.1} MiB) in {:.2} s",
                out,
                stats.num_nodes,
                stats.num_edges,
                stats.file_bytes as f64 / (1024.0 * 1024.0),
                start.elapsed().as_secs_f64()
            );
            Ok(())
        }
        "convert" => {
            check_options(cmd, &opts, &[])?;
            let [input, output] = pos[..] else {
                return Err("convert needs <in> <out>".into());
            };
            let start = std::time::Instant::now();
            let (graph, report) = load_any(input)?;
            save_any(&graph, output)?;
            let out_bytes = std::fs::metadata(output).map(|m| m.len()).unwrap_or(0);
            println!(
                "converted {input} ({}) -> {output} ({} nodes, {} edges, {:.1} MiB) in {:.2} s",
                report.format,
                graph.num_nodes(),
                graph.num_edges(),
                out_bytes as f64 / (1024.0 * 1024.0),
                start.elapsed().as_secs_f64()
            );
            Ok(())
        }
        "stats" => {
            check_options(cmd, &opts, &[])?;
            let [file] = pos[..] else {
                return Err("stats needs <file>".into());
            };
            let (graph, report) = load_any(file)?;
            let props_probs: Vec<f64> = graph.edges().map(|(_, _, _, p)| p.value()).collect();
            let prob = relcomp_ugraph::stats::Summary::of(&props_probs);
            println!("nodes:  {}", graph.num_nodes());
            println!("edges:  {}", graph.num_edges());
            println!(
                "format: {} (loaded via {})",
                report.format,
                if report.mmapped { "mmap" } else { "heap" }
            );
            if let Some(p) = prob {
                println!(
                    "probability: mean {:.4} sd {:.4} quartiles {{{:.3}, {:.3}, {:.3}}}",
                    p.mean, p.sd, p.q1, p.median, p.q3
                );
            }
            let out = degree_stats(&graph, true);
            println!(
                "out-degree: mean {:.2} max {} zero-degree nodes {}",
                out.summary.mean, out.max, out.zeros
            );
            println!(
                "largest weakly connected component: {}",
                largest_component_size(&graph)
            );
            Ok(())
        }
        "query" => {
            check_options(
                cmd,
                &opts,
                &[
                    "estimator",
                    "samples",
                    "k",
                    "seed",
                    "eps",
                    "confidence",
                    "time-budget-ms",
                ],
            )?;
            let [file, s_raw, t_raw] = pos[..] else {
                return Err("query needs <file> <s> <t>".into());
            };
            let graph = Arc::new(load_any(file)?.0);
            let s = parse_node(&graph, s_raw, "source")?;
            let t = parse_node(&graph, t_raw, "target")?;
            let kind = parse_estimator(opts.get("estimator").copied().unwrap_or("probtree"))?;
            // `--samples` is the canonical spelling (matching `topk` and
            // the serve protocol); `--k` stays as a legacy alias.
            if opts.contains_key("k") {
                eprintln!("note: `query --k` is deprecated; use `--samples` instead");
            }
            let mut flags = BudgetFlags::parse(&opts)?;
            if flags.samples.is_none() {
                flags.samples = opts
                    .get("k")
                    .map(|v| v.parse())
                    .transpose()
                    .map_err(|_| "bad --samples")?;
            }
            // Fixed budget unless an adaptive knob appears; `--samples`
            // is then the cap rather than the exact count.
            let k = flags.resolve_samples(1000)?;
            let budget = flags.budget(k);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let params = SuiteParams {
                // Fixed budgets need an index covering exactly K worlds,
                // and an explicit --samples cap is honored as given. Only
                // the *implicit* adaptive cap is trimmed: the 50k-world
                // default would materialize gigabytes of index on a large
                // graph for a query that may stop after a few hundred.
                bfs_sharing_worlds: if flags.is_adaptive() && flags.samples.is_none() {
                    k.clamp(1, 10_000)
                } else {
                    k.max(1)
                },
                ..Default::default()
            };
            let mut est = build_estimator(kind, Arc::clone(&graph), params, &mut rng);
            let result = est.estimate_with(s, t, &budget, &mut rng);
            let ci = result
                .half_width
                .map(|hw| format!(" ± {hw:.6}"))
                .unwrap_or_default();
            let stop = if result.stop_reason == StopReason::FixedK {
                String::new()
            } else {
                format!("; {}", result.stop_reason.label())
            };
            println!(
                "R({s}, {t}) ≈ {:.6}{ci}   [{}; K = {}{stop}; {:.2} ms]",
                result.reliability,
                est.name(),
                result.samples,
                result.elapsed.as_secs_f64() * 1e3
            );
            Ok(())
        }
        "bounds" => {
            check_options(cmd, &opts, &[])?;
            let [file, s_raw, t_raw] = pos[..] else {
                return Err("bounds needs <file> <s> <t>".into());
            };
            let (graph, _) = load_any(file)?;
            let s = parse_node(&graph, s_raw, "source")?;
            let t = parse_node(&graph, t_raw, "target")?;
            let b = reliability_bounds(&graph, s, t, 8);
            println!(
                "{:.6} <= R({s}, {t}) <= {:.6}   (width {:.6})",
                b.lower,
                b.upper,
                b.width()
            );
            Ok(())
        }
        "path" => {
            check_options(cmd, &opts, &[])?;
            let [file, s_raw, t_raw] = pos[..] else {
                return Err("path needs <file> <s> <t>".into());
            };
            let (graph, _) = load_any(file)?;
            let s = parse_node(&graph, s_raw, "source")?;
            let t = parse_node(&graph, t_raw, "target")?;
            match most_reliable_path(&graph, s, t) {
                Some(p) => {
                    let route: Vec<String> = p.nodes.iter().map(|n| n.to_string()).collect();
                    println!(
                        "most reliable path: {}   probability {:.6}",
                        route.join(" -> "),
                        p.probability
                    );
                }
                None => println!("no path from {s} to {t}"),
            }
            Ok(())
        }
        "topk" => {
            check_options(
                cmd,
                &opts,
                &[
                    "k",
                    "samples",
                    "seed",
                    "threads",
                    "eps",
                    "confidence",
                    "time-budget-ms",
                ],
            )?;
            let [file, s_raw] = pos[..] else {
                return Err("topk needs <file> <s>".into());
            };
            let graph = Arc::new(load_any(file)?.0);
            let s = parse_node(&graph, s_raw, "source")?;
            let k: usize = opts
                .get("k")
                .map(|v| v.parse())
                .transpose()
                .map_err(|_| "bad --k")?
                .unwrap_or(10);
            if k == 0 {
                return Err("--k must be positive".into());
            }
            let flags = BudgetFlags::parse(&opts)?;
            let samples = flags.resolve_samples(2000)?;
            let budget = flags.budget(samples);
            let threads = parse_threads(&opts)?;
            let sampler = ParallelSampler::new(Arc::clone(&graph), threads);
            let result = sampler.top_k_targets_with(s, k, &budget, seed);
            let stop = if result.stop_reason == StopReason::FixedK {
                String::new()
            } else {
                format!("; {}", result.stop_reason.label())
            };
            println!(
                "top-{k} most reliable targets from {s}   [K = {}{stop}; {threads} threads; {:.2} ms]",
                result.samples,
                result.elapsed.as_secs_f64() * 1e3
            );
            if let Some(hw) = result.half_width {
                println!("boundary half-width: {hw:.6}");
            }
            for ts in result.scores {
                println!(
                    "  node {:<8} R ≈ {:.4}",
                    ts.node.to_string(),
                    ts.reliability
                );
            }
            Ok(())
        }
        "dquery" => {
            check_options(
                cmd,
                &opts,
                &[
                    "samples",
                    "seed",
                    "threads",
                    "eps",
                    "confidence",
                    "time-budget-ms",
                ],
            )?;
            let [file, s_raw, t_raw, d_raw] = pos[..] else {
                return Err("dquery needs <file> <s> <t> <d>".into());
            };
            let graph = Arc::new(load_any(file)?.0);
            let s = parse_node(&graph, s_raw, "source")?;
            let t = parse_node(&graph, t_raw, "target")?;
            let d: usize = d_raw
                .parse()
                .map_err(|_| format!("cannot parse hop bound `{d_raw}`"))?;
            let flags = BudgetFlags::parse(&opts)?;
            let samples = flags.resolve_samples(1000)?;
            let budget = flags.budget(samples);
            let threads = parse_threads(&opts)?;
            let sampler = ParallelSampler::new(Arc::clone(&graph), threads);
            let result = sampler.estimate_distance_constrained_with(s, t, d, &budget, seed);
            let ci = result
                .half_width
                .map(|hw| format!(" ± {hw:.6}"))
                .unwrap_or_default();
            let stop = if result.stop_reason == StopReason::FixedK {
                String::new()
            } else {
                format!("; {}", result.stop_reason.label())
            };
            println!(
                "R_{d}({s}, {t}) ≈ {:.6}{ci}   [MC, d <= {d}; K = {}{stop}; {:.2} ms]",
                result.reliability,
                result.samples,
                result.elapsed.as_secs_f64() * 1e3
            );
            Ok(())
        }
        "maximize" => {
            check_options(
                cmd,
                &opts,
                &[
                    "k",
                    "boost",
                    "candidates",
                    "samples",
                    "seed",
                    "threads",
                    "eps",
                    "confidence",
                    "time-budget-ms",
                ],
            )?;
            let [file, s_raw, t_raw] = pos[..] else {
                return Err("maximize needs <file> <s> <t>".into());
            };
            let graph = Arc::new(load_any(file)?.0);
            let s = parse_node(&graph, s_raw, "source")?;
            let t = parse_node(&graph, t_raw, "target")?;
            let k: usize = opts
                .get("k")
                .map(|v| v.parse())
                .transpose()
                .map_err(|_| "bad --k")?
                .unwrap_or(1);
            if k == 0 {
                return Err("--k must be positive".into());
            }
            let boost: f64 = opts
                .get("boost")
                .map(|v| v.parse())
                .transpose()
                .map_err(|_| "bad --boost")?
                .unwrap_or(1.0);
            let flags = BudgetFlags::parse(&opts)?;
            let samples = flags.resolve_samples(2000)?;
            let budget = flags.budget(samples);
            let mut mopts = relcomp_core::MaximizeOptions::new(k, boost, budget);
            mopts.threads = parse_threads(&opts)?;
            mopts.seed = seed;
            if let Some(c) = opts
                .get("candidates")
                .map(|v| v.parse())
                .transpose()
                .map_err(|_| "bad --candidates")?
            {
                if c == 0 {
                    return Err("--candidates must be positive".into());
                }
                mopts.max_candidates = c;
            }
            let start = std::time::Instant::now();
            let result = relcomp_core::maximize(&graph, s, t, &mopts).map_err(|e| e.to_string())?;
            println!(
                "maximize R({s}, {t}): {:.6} -> {:.6} (gain {:+.6}) with {} upgrade(s)   \
                 [{} candidates, {} evaluations, K = {}; {:.2} ms]",
                result.base_reliability,
                result.reliability,
                result.gain,
                result.chosen.len(),
                result.candidates,
                result.evaluations,
                result.samples,
                start.elapsed().as_secs_f64() * 1e3
            );
            for c in &result.chosen {
                println!(
                    "  edge {} -> {}: p {:.4} -> {:.4} (gain {:+.6}, R ≈ {:.6})",
                    c.from, c.to, c.old_prob, c.new_prob, c.gain, c.reliability
                );
            }
            Ok(())
        }
        "recommend" => {
            check_options(cmd, &opts, &["memory", "variance", "speed"])?;
            let memory = match opts.get("memory").copied().unwrap_or("larger") {
                "smaller" => MemoryBudget::Smaller,
                "larger" => MemoryBudget::Larger,
                other => return Err(format!("bad --memory `{other}`")),
            };
            let variance = match opts.get("variance").copied().unwrap_or("higher") {
                "lower" => VarianceNeed::Lower,
                "slight" => VarianceNeed::SlightlyLower,
                "higher" => VarianceNeed::Higher,
                other => return Err(format!("bad --variance `{other}`")),
            };
            let speed = match opts.get("speed").copied().unwrap_or("faster") {
                "faster" => SpeedNeed::Faster,
                "slower" => SpeedNeed::Slower,
                other => return Err(format!("bad --speed `{other}`")),
            };
            let recs = recommend(memory, variance, speed);
            if recs.is_empty() {
                println!("no estimator satisfies those constraints (lowest variance requires ample memory)");
            } else {
                let names: Vec<&str> = recs.iter().map(|k| k.display_name()).collect();
                println!("recommended: {}", names.join(", "));
            }
            Ok(())
        }
        "serve" => {
            check_options(
                cmd,
                &opts,
                &[
                    "port",
                    "threads",
                    "cache",
                    "seed",
                    "mode",
                    "workers",
                    "warm-cache",
                    "flush-ms",
                ],
            )?;
            let [file] = pos[..] else {
                return Err("serve needs <file>".into());
            };
            let port: u16 = opts
                .get("port")
                .map(|v| v.parse())
                .transpose()
                .map_err(|_| "bad --port")?
                .unwrap_or(DEFAULT_PORT);
            let threads: usize = opts
                .get("threads")
                .map(|v| v.parse())
                .transpose()
                .map_err(|_| "bad --threads")?
                .unwrap_or(0); // 0 = all cores
            let cache_capacity: usize = opts
                .get("cache")
                .map(|v| v.parse())
                .transpose()
                .map_err(|_| "bad --cache")?
                .unwrap_or(EngineConfig::default().cache_capacity);
            let mode = opts
                .get("mode")
                .map(|v| ServerMode::parse(v))
                .transpose()?
                .unwrap_or_default();
            let workers: usize = opts
                .get("workers")
                .map(|v| v.parse())
                .transpose()
                .map_err(|_| "bad --workers")?
                .unwrap_or(0); // 0 = derive from available parallelism
            let persist = match (opts.get("warm-cache"), opts.get("flush-ms")) {
                (None, Some(_)) => {
                    return Err("--flush-ms needs --warm-cache DIR".into());
                }
                (None, None) => None,
                (Some(dir), flush_ms) => {
                    let mut cfg = PersistConfig::new(*dir);
                    if let Some(ms) = flush_ms {
                        let ms: u64 = ms.parse().map_err(|_| "bad --flush-ms")?;
                        if ms == 0 {
                            return Err("--flush-ms must be at least 1".into());
                        }
                        cfg.flush_interval = std::time::Duration::from_millis(ms);
                    }
                    Some(cfg)
                }
            };
            let config = EngineConfig {
                threads,
                cache_capacity,
                default_seed: seed,
                ..Default::default()
            };
            // The registry owns graph loading: the default tenant gets
            // the file from the command line (with a warm-cache restore
            // when persistence is on); further graphs arrive over the
            // wire via `client load`.
            let tenants = Arc::new(TenantRegistry::new(config, persist.clone()));
            let loaded = tenants.load(DEFAULT_TENANT, file, None)?;
            let threads = tenants
                .get(DEFAULT_TENANT)
                .expect("default tenant just loaded")
                .stats()
                .threads;
            let options = ServerOptions {
                mode,
                workers,
                persist,
            };
            let server = Server::bind_with(("127.0.0.1", port), Arc::clone(&tenants), options)
                .map_err(|e| e.to_string())?;
            let addr = server.local_addr().map_err(|e| e.to_string())?;
            let warm = if loaded.warm_entries > 0 {
                format!("; {} warm cache entries", loaded.warm_entries)
            } else {
                String::new()
            };
            println!(
                "serving {} ({} nodes, {} edges; loaded via {} in {:.1} ms{warm}) on {addr}: \
                 {threads} sampling threads, {cache_capacity}-entry cache, {mode:?} mode",
                file,
                loaded.nodes,
                loaded.edges,
                loaded.load_path,
                loaded.load_micros as f64 / 1e3
            );
            server.run().map_err(|e| e.to_string())
        }
        "client" => {
            // Query-shaped invocations take the full option set; the
            // control forms (ping/stats/shutdown/update/reload) each
            // understand their own narrow set, and silently dropping the
            // rest would be exactly the typo trap `check_options` exists
            // to close.
            match pos[..] {
                ["ping"] | ["stats"] | ["shutdown"] => {
                    check_options(&format!("client {}", pos[0]), &opts, &["addr"])?
                }
                ["load", ..] => check_options("client load", &opts, &["addr", "quota"])?,
                ["unload", ..] => check_options("client unload", &opts, &["addr"])?,
                ["use", ..] => check_options("client use", &opts, &["addr"])?,
                ["update", ..] => check_options("client update", &opts, &["addr"])?,
                ["reload", ..] => check_options("client reload", &opts, &["addr", "path"])?,
                ["metrics", ..] => check_options("client metrics", &opts, &["addr", "format"])?,
                ["trace", ..] => check_options("client trace", &opts, &["addr", "last"])?,
                ["topk", ..] => check_options(
                    "client topk",
                    &opts,
                    &[
                        "addr",
                        "k",
                        "samples",
                        "seed",
                        "eps",
                        "confidence",
                        "time-budget-ms",
                    ],
                )?,
                ["dquery", ..] => check_options(
                    "client dquery",
                    &opts,
                    &[
                        "addr",
                        "samples",
                        "seed",
                        "eps",
                        "confidence",
                        "time-budget-ms",
                    ],
                )?,
                ["maximize", ..] => check_options(
                    "client maximize",
                    &opts,
                    &[
                        "addr",
                        "k",
                        "boost",
                        "candidates",
                        "apply",
                        "samples",
                        "seed",
                        "eps",
                        "confidence",
                        "time-budget-ms",
                    ],
                )?,
                _ => check_options(
                    cmd,
                    &opts,
                    &[
                        "addr",
                        "estimator",
                        "samples",
                        "seed",
                        "eps",
                        "confidence",
                        "time-budget-ms",
                    ],
                )?,
            }
            let default_addr = format!("127.0.0.1:{DEFAULT_PORT}");
            let addr = opts.get("addr").copied().unwrap_or(&default_addr);
            let mut client = Client::connect(addr).map_err(|e| {
                format!("cannot connect to {addr}: {e} (is `relcomp serve` running?)")
            })?;
            match pos[..] {
                ["ping"] => {
                    client.ping().map_err(|e| e.to_string())?;
                    println!("pong from {addr}");
                    Ok(())
                }
                ["stats"] => {
                    let s = client.stats().map_err(|e| e.to_string())?;
                    println!("queries:       {}", s.queries);
                    println!(
                        "cache:         {} hits / {} misses ({:.1}% hit rate), {} entries",
                        s.cache_hits,
                        s.cache_misses,
                        s.hit_rate() * 100.0,
                        s.cache_entries
                    );
                    println!("rejected:      {}", s.rejected);
                    println!("threads:       {}", s.threads);
                    println!(
                        "graph:         {} nodes, {} edges (epoch {}, {} updates)",
                        s.nodes, s.edges, s.epoch, s.updates
                    );
                    println!(
                        "residents:     {} estimators, {:.1} KiB index memory",
                        s.resident_estimators,
                        s.resident_bytes as f64 / 1024.0
                    );
                    println!(
                        "samples:       {} packed worlds, {} scalar worlds",
                        s.packed_samples, s.scalar_samples
                    );
                    if !s.load_path.is_empty() {
                        println!(
                            "graph load:    via {} in {:.1} ms",
                            s.load_path,
                            s.load_micros as f64 / 1e3
                        );
                    }
                    println!("uptime:        {:.1} s", s.uptime_micros as f64 / 1e6);
                    Ok(())
                }
                ["metrics"] => match opts.get("format").copied() {
                    Some("prom") => {
                        let text = client.metrics_prom().map_err(|e| e.to_string())?;
                        print!("{text}");
                        Ok(())
                    }
                    Some("json") => {
                        let m = client.metrics().map_err(|e| e.to_string())?;
                        let line = serde_json::to_string(&Response::Metrics(m))
                            .map_err(|e| e.to_string())?;
                        println!("{line}");
                        Ok(())
                    }
                    Some(other) => Err(format!(
                        "unknown --format `{other}` (expected json or prom)"
                    )),
                    // No --format: a human-readable summary of the registry.
                    None => {
                        let m = client.metrics().map_err(|e| e.to_string())?;
                        println!("queries_total: {}", m.queries_total);
                        let label_text = |labels: &[(String, String)]| {
                            if labels.is_empty() {
                                String::new()
                            } else {
                                let parts: Vec<String> =
                                    labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
                                format!("{{{}}}", parts.join(","))
                            }
                        };
                        println!("counters:");
                        for c in &m.counters {
                            println!("  {}{} {}", c.name, label_text(&c.labels), c.value);
                        }
                        println!("gauges:");
                        for g in &m.gauges {
                            println!("  {}{} {}", g.name, label_text(&g.labels), g.value);
                        }
                        println!("histograms:");
                        for h in &m.histograms {
                            println!(
                                "  {}{} count={} p50={} p90={} p99={} p99.9={}",
                                h.name,
                                label_text(&h.labels),
                                h.count,
                                h.p50,
                                h.p90,
                                h.p99,
                                h.p999
                            );
                        }
                        Ok(())
                    }
                },
                ["metrics", ..] => {
                    Err("client metrics takes no positional arguments (use --format)".into())
                }
                ["trace"] => {
                    let n = opts
                        .get("last")
                        .map(|v| v.parse().map_err(|_| "bad --last"))
                        .transpose()?;
                    let traces = client.traces(n).map_err(|e| e.to_string())?;
                    if traces.is_empty() {
                        println!("no traces recorded yet");
                    }
                    for t in &traces {
                        let stages: Vec<String> = t
                            .stages
                            .iter()
                            .map(|s| format!("{} {:.1}us", s.stage, s.nanos as f64 / 1e3))
                            .collect();
                        println!(
                            "{:<7} s={:<6} t={:<6} {}{} {:>9.2} ms  [{}]",
                            t.workload,
                            t.s,
                            t.t,
                            if t.ok { "ok" } else { "err" },
                            if t.cached { " cached" } else { "" },
                            t.nanos as f64 / 1e6,
                            stages.join(" | ")
                        );
                    }
                    Ok(())
                }
                ["trace", ..] => {
                    Err("client trace takes no positional arguments (use --last N)".into())
                }
                ["load", name, path] => {
                    let quota = parse_quota(&opts)?;
                    let r = client
                        .load_graph(name, path, quota)
                        .map_err(|e| e.to_string())?;
                    let warm = if r.warm_entries > 0 {
                        format!(", {} warm cache entries", r.warm_entries)
                    } else {
                        String::new()
                    };
                    println!(
                        "loaded `{}`: {} nodes, {} edges via {} in {:.1} ms \
                         (epoch {}, quota {}{warm})",
                        r.name,
                        r.nodes,
                        r.edges,
                        r.load_path,
                        r.load_micros as f64 / 1e3,
                        r.epoch,
                        r.quota
                    );
                    Ok(())
                }
                ["load", ..] => Err("client load needs <name> <path>".into()),
                ["unload", name] => {
                    client.unload_graph(name).map_err(|e| e.to_string())?;
                    println!("unloaded `{name}`");
                    Ok(())
                }
                ["unload", ..] => Err("client unload needs <name>".into()),
                ["use", name] => {
                    let r = client.use_graph(name).map_err(|e| e.to_string())?;
                    println!(
                        "using `{}`: {} nodes, {} edges (epoch {})",
                        r.name, r.nodes, r.edges, r.epoch
                    );
                    Ok(())
                }
                ["use", ..] => Err("client use needs <name>".into()),
                ["update", s_raw, t_raw, p_raw] => {
                    let parse_id = |raw: &str, what: &str| -> Result<u32, String> {
                        raw.parse()
                            .map_err(|_| format!("cannot parse {what} node `{raw}`"))
                    };
                    let prob: f64 = p_raw
                        .parse()
                        .map_err(|_| format!("cannot parse probability `{p_raw}`"))?;
                    let update = relcomp_serve::protocol::EdgeProbUpdate {
                        s: parse_id(s_raw, "source")?,
                        t: parse_id(t_raw, "target")?,
                        prob,
                    };
                    let r = client.update(vec![update]).map_err(|e| e.to_string())?;
                    println!(
                        "updated {} edge(s); server now at epoch {}",
                        r.edges_updated, r.epoch
                    );
                    for m in &r.migrated {
                        match m.mode.as_str() {
                            "incremental" => println!(
                                "  {} index migrated incrementally ({} units recomputed)",
                                m.estimator, m.touched
                            ),
                            mode => println!("  {} {}", m.estimator, mode),
                        }
                    }
                    Ok(())
                }
                ["update", ..] => Err("client update needs <s> <t> <prob>".into()),
                ["reload"] => {
                    let path = opts.get("path").map(|p| p.to_string());
                    let r = client.reload(path).map_err(|e| e.to_string())?;
                    println!(
                        "reloaded: {} nodes, {} edges; server now at epoch {}",
                        r.nodes, r.edges, r.epoch
                    );
                    Ok(())
                }
                ["reload", ..] => {
                    Err("client reload takes no positional arguments (use --path FILE)".into())
                }
                ["shutdown"] => {
                    client.shutdown().map_err(|e| e.to_string())?;
                    println!("server at {addr} shutting down");
                    Ok(())
                }
                ["topk", s_raw] => {
                    let s: u32 = s_raw
                        .parse()
                        .map_err(|_| format!("cannot parse source node `{s_raw}`"))?;
                    let flags = BudgetFlags::parse(&opts)?;
                    let request = relcomp_serve::protocol::TopKRequest {
                        s,
                        k: opts
                            .get("k")
                            .map(|v| v.parse().map_err(|_| "bad --k"))
                            .transpose()?,
                        samples: flags.samples,
                        // Only forward a seed the user actually gave;
                        // otherwise the server's default applies.
                        seed: opts.contains_key("seed").then_some(seed),
                        eps: flags.eps,
                        confidence: flags.confidence,
                        time_budget_ms: flags.time_ms,
                    };
                    let r = client.topk(request).map_err(|e| e.to_string())?;
                    let stop = if r.stop_reason == "fixed_k" {
                        String::new()
                    } else {
                        format!("; {}", r.stop_reason)
                    };
                    println!(
                        "top-{} most reliable targets from {}   [K = {}{stop}; {:.2} ms{}]",
                        r.k,
                        r.s,
                        r.samples,
                        r.micros as f64 / 1e3,
                        if r.cached { "; cached" } else { "" }
                    );
                    if let Some(hw) = r.half_width {
                        println!("boundary half-width: {hw:.6}");
                    }
                    for ts in &r.targets {
                        println!("  node {:<8} R ≈ {:.4}", ts.node, ts.reliability);
                    }
                    Ok(())
                }
                ["topk", ..] => Err("client topk needs <s>".into()),
                ["dquery", s_raw, t_raw, d_raw] => {
                    let parse_id = |raw: &str, what: &str| -> Result<u32, String> {
                        raw.parse()
                            .map_err(|_| format!("cannot parse {what} node `{raw}`"))
                    };
                    let d: usize = d_raw
                        .parse()
                        .map_err(|_| format!("cannot parse hop bound `{d_raw}`"))?;
                    let flags = BudgetFlags::parse(&opts)?;
                    let request = relcomp_serve::protocol::DistanceQueryRequest {
                        s: parse_id(s_raw, "source")?,
                        t: parse_id(t_raw, "target")?,
                        d,
                        samples: flags.samples,
                        seed: opts.contains_key("seed").then_some(seed),
                        eps: flags.eps,
                        confidence: flags.confidence,
                        time_budget_ms: flags.time_ms,
                    };
                    let r = client.dquery(request).map_err(|e| e.to_string())?;
                    let ci = r
                        .half_width
                        .map(|hw| format!(" ± {hw:.6}"))
                        .unwrap_or_default();
                    let stop = if r.stop_reason == "fixed_k" {
                        String::new()
                    } else {
                        format!("; {}", r.stop_reason)
                    };
                    println!(
                        "R_{}({}, {}) ≈ {:.6}{ci}   [MC, d <= {}; K = {}{stop}; {:.2} ms{}]",
                        r.d,
                        r.s,
                        r.t,
                        r.reliability,
                        r.d,
                        r.samples,
                        r.micros as f64 / 1e3,
                        if r.cached { "; cached" } else { "" }
                    );
                    Ok(())
                }
                ["dquery", ..] => Err("client dquery needs <s> <t> <d>".into()),
                ["maximize", s_raw, t_raw] => {
                    let parse_id = |raw: &str, what: &str| -> Result<u32, String> {
                        raw.parse()
                            .map_err(|_| format!("cannot parse {what} node `{raw}`"))
                    };
                    let flags = BudgetFlags::parse(&opts)?;
                    let request = relcomp_serve::protocol::MaximizeRequest {
                        s: parse_id(s_raw, "source")?,
                        t: parse_id(t_raw, "target")?,
                        k: opts
                            .get("k")
                            .map(|v| v.parse().map_err(|_| "bad --k"))
                            .transpose()?,
                        boost: opts
                            .get("boost")
                            .map(|v| v.parse().map_err(|_| "bad --boost"))
                            .transpose()?,
                        candidates: opts
                            .get("candidates")
                            .map(|v| v.parse().map_err(|_| "bad --candidates"))
                            .transpose()?,
                        apply: opts.contains_key("apply"),
                        samples: flags.samples,
                        seed: opts.contains_key("seed").then_some(seed),
                        eps: flags.eps,
                        confidence: flags.confidence,
                        time_budget_ms: flags.time_ms,
                    };
                    let r = client.maximize(request).map_err(|e| e.to_string())?;
                    let applied = match r.applied_epoch {
                        Some(epoch) => format!("; applied, epoch {epoch}"),
                        None => String::new(),
                    };
                    println!(
                        "maximize R({}, {}): {:.6} -> {:.6} (gain {:+.6}) with {} upgrade(s)   \
                         [{} candidates, {} evaluations, K = {}; {:.2} ms{}{applied}]",
                        r.s,
                        r.t,
                        r.base_reliability,
                        r.reliability,
                        r.gain,
                        r.chosen.len(),
                        r.candidates,
                        r.evaluations,
                        r.samples,
                        r.micros as f64 / 1e3,
                        if r.cached { "; cached" } else { "" }
                    );
                    for c in &r.chosen {
                        println!(
                            "  edge {} -> {}: p {:.4} -> {:.4} (gain {:+.6}, R ≈ {:.6})",
                            c.s, c.t, c.old_prob, c.new_prob, c.gain, c.reliability
                        );
                    }
                    Ok(())
                }
                ["maximize", ..] => Err("client maximize needs <s> <t>".into()),
                [s_raw, t_raw] => {
                    let parse_id = |raw: &str, what: &str| -> Result<u32, String> {
                        raw.parse()
                            .map_err(|_| format!("cannot parse {what} node `{raw}`"))
                    };
                    let flags = BudgetFlags::parse(&opts)?;
                    let request = QueryRequest {
                        s: parse_id(s_raw, "source")?,
                        t: parse_id(t_raw, "target")?,
                        estimator: opts.get("estimator").map(|e| e.to_string()),
                        samples: flags.samples,
                        // Only forward a seed the user actually gave;
                        // otherwise the server's default applies.
                        seed: opts.contains_key("seed").then_some(seed),
                        eps: flags.eps,
                        confidence: flags.confidence,
                        time_budget_ms: flags.time_ms,
                    };
                    let r = client.query(request).map_err(|e| e.to_string())?;
                    let ci = r
                        .half_width
                        .map(|hw| format!(" ± {hw:.6}"))
                        .unwrap_or_default();
                    let stop = if r.stop_reason == "fixed_k" {
                        String::new()
                    } else {
                        format!("; {}", r.stop_reason)
                    };
                    println!(
                        "R({}, {}) ≈ {:.6}{ci}   [{}; K = {}{stop}; {:.2} ms{}]",
                        r.s,
                        r.t,
                        r.reliability,
                        r.estimator,
                        r.samples,
                        r.micros as f64 / 1e3,
                        if r.cached { "; cached" } else { "" }
                    );
                    Ok(())
                }
                _ => Err(
                    "client needs <s> <t>, or one of: stats, metrics, trace, ping, \
                     shutdown, topk <s>, dquery <s> <t> <d>, maximize <s> <t>, \
                     update <s> <t> <prob>, reload"
                        .into(),
                ),
            }
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts<'a>(pairs: &[(&'a str, &'a str)]) -> HashMap<&'a str, &'a str> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn zero_samples_is_a_parse_error() {
        let err = BudgetFlags::parse(&opts(&[("samples", "0")])).unwrap_err();
        assert!(err.contains("--samples must be positive"), "{err}");
        // Negative and garbage values fail at the same point, with the
        // flag named.
        for bad in ["-5", "many"] {
            let err = BudgetFlags::parse(&opts(&[("samples", bad)])).unwrap_err();
            assert!(err.contains("--samples"), "{err}");
        }
        assert_eq!(
            BudgetFlags::parse(&opts(&[("samples", "100")]))
                .unwrap()
                .samples,
            Some(100)
        );
    }

    #[test]
    fn zero_quota_is_a_parse_error() {
        let err = parse_quota(&opts(&[("quota", "0")])).unwrap_err();
        assert!(err.contains("--quota must be positive"), "{err}");
        for bad in ["-1", "lots"] {
            let err = parse_quota(&opts(&[("quota", bad)])).unwrap_err();
            assert!(err.contains("--quota"), "{err}");
        }
        assert_eq!(parse_quota(&opts(&[("quota", "8")])).unwrap(), Some(8));
        assert_eq!(parse_quota(&opts(&[])).unwrap(), None);
    }

    #[test]
    fn apply_is_a_bare_flag() {
        let args: Vec<String> = ["maximize", "0", "3", "--apply", "--k", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (pos, options) = split_options(&args).unwrap();
        assert_eq!(pos, vec!["maximize", "0", "3"]);
        assert_eq!(options.get("apply"), Some(&"true"));
        assert_eq!(options.get("k"), Some(&"2"));
    }
}
