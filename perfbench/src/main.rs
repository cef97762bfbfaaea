//! `perfbench` — the repository benchmark (see README.md).
//!
//! ```text
//! perfbench --server BIN --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --server BIN steady --workload NAME --runs N --seconds S [--trace 0|1] [--first-seed N]
//! ```
//!
//! `--trace 0` drives a real `relcomp serve` process from outside and
//! prints the end-to-end metrics; `--trace 1` replays the same requests
//! in-process through each layer's public functions and prints the
//! per-layer metrics. The last stdout line is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! Any failed output check exits non-zero.

mod check;
mod client;
mod e2e;
mod inputs;
mod replay;
mod requests;
mod server;
mod stats;
mod steady;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

/// Cores available to this process: the generator's thread and connection
/// cap, the server's worker count, and the reference sampler's threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdSparse,
    ColdDense,
    HotRw,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ColdSparse, Workload::ColdDense, Workload::HotRw];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSparse => "cold-sparse",
            Workload::ColdDense => "cold-dense",
            Workload::HotRw => "hot-rw",
        }
    }

    fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                format!("unknown workload `{name}` (expected cold-sparse, cold-dense or hot-rw)")
            })
    }

    /// Graphs in tenant order (tenant 0 is the `serve` command-line graph).
    pub fn graphs(self) -> Vec<inputs::GraphSpec> {
        match self {
            Workload::ColdSparse => vec![inputs::LASTFM],
            Workload::ColdDense => vec![inputs::DBLP],
            Workload::HotRw => vec![inputs::LASTFM, inputs::NETHEPT],
        }
    }

    /// `(tenant, estimator)` of every resident estimator the workload's
    /// requests use; set-up warms each with one request.
    pub fn residents(self) -> Vec<(usize, &'static str)> {
        match self {
            Workload::ColdSparse => replay::RESIDENT
                .iter()
                .map(|&(name, _)| (0, name))
                .collect(),
            Workload::ColdDense => Vec::new(),
            Workload::HotRw => vec![(1, "probtree")],
        }
    }
}

/// Parsed command line of one run.
pub struct Args {
    pub server: PathBuf,
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Pull `--name value` pairs out of `argv`.
fn flags(argv: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let name = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{a}`"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        out.push((name.to_owned(), value.clone()));
    }
    Ok(out)
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn parsed<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flag(flags, name) {
        Some(v) => v.parse().map_err(|_| format!("bad --{name} `{v}`")),
        None => default.ok_or_else(|| format!("missing --{name}")),
    }
}

fn parse_args(flags: &[(String, String)]) -> Result<Args, String> {
    let known = [
        "server",
        "workload",
        "seed",
        "seconds",
        "trace",
        "runs",
        "first-seed",
    ];
    if let Some((n, _)) = flags.iter().find(|(n, _)| !known.contains(&n.as_str())) {
        return Err(format!("unknown option --{n}"));
    }
    let seconds: f64 = parsed(flags, "seconds", Some(10.0))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        server: PathBuf::from(flag(flags, "server").ok_or("missing --server")?),
        workload: Workload::parse(flag(flags, "workload").ok_or("missing --workload")?)?,
        seed: parsed(flags, "seed", Some(1))?,
        seconds,
        trace: match flag(flags, "trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace `{other}` (expected 0 or 1)")),
        },
    })
}

/// One named metric value with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run reports.
pub struct RunResult {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The one-line JSON result (last stdout line).
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}": {{"value": {:?}, "unit": "{}"}}"#,
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let steady_mode = match argv.iter().position(|a| a == "steady") {
        Some(i) => {
            argv.remove(i);
            true
        }
        None => false,
    };
    let outcome = flags(&argv).and_then(|f| {
        if steady_mode {
            let runs = parsed(&f, "runs", Some(5usize))?;
            let first_seed = parsed(&f, "first-seed", Some(1u64))?;
            steady::run(&parse_args(&f)?, runs, first_seed).map(|()| None)
        } else {
            let args = parse_args(&f)?;
            let result = if args.trace {
                traced::run(&args)?
            } else {
                e2e::run(&args)?
            };
            Ok(Some(result))
        }
    });
    match outcome {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some(result)) => {
            for m in &result.metrics {
                if !m.value.is_finite() {
                    eprintln!("perfbench: metric {} is not finite", m.name);
                    return ExitCode::FAILURE;
                }
            }
            println!("{}", result.json());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
