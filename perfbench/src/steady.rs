//! Steadiness report: run one workload several times, each with its own
//! seed, in fresh child processes, and print every metric's median and
//! quartile spread (interquartile range over the median). This is how the
//! bounds in BENCHMARK.json were set, and how two sets of runs of the same
//! code are shown to agree.

use crate::stats::{median, quartiles};
use crate::Args;
use std::collections::BTreeMap;
use std::process::Command;

/// Any JSON value (the shim's `Value` has no `Deserialize` of its own).
struct Raw(serde::Value);

impl serde::Deserialize for Raw {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Raw(value.clone()))
    }
}

pub fn run(args: &Args, runs: usize, first_seed: u64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    for seed in first_seed..first_seed + runs as u64 {
        let out = Command::new(&exe)
            .arg("--server")
            .arg(&args.server)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("spawn run: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        if !out.status.success() {
            return Err(format!(
                "seed {seed} failed ({}):\n{stdout}{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let Raw(parsed) =
            serde_json::from_str(last).map_err(|e| format!("seed {seed}: {e}: {last}"))?;
        let metrics = parsed
            .as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == "metrics"))
            .and_then(|(_, m)| m.as_object())
            .ok_or_else(|| format!("seed {seed}: no metrics in {last}"))?;
        let mut line = format!("seed {seed:>3}:");
        for (name, m) in metrics {
            let field = |k: &str| {
                m.as_object()
                    .and_then(|o| o.iter().find(|(n, _)| n == k))
                    .map(|(_, v)| v)
            };
            let value = match field("value") {
                Some(serde::Value::Float(x)) => *x,
                Some(serde::Value::Int(i)) => *i as f64,
                Some(serde::Value::UInt(u)) => *u as f64,
                other => return Err(format!("seed {seed}: bad value for {name}: {other:?}")),
            };
            let unit = match field("unit") {
                Some(serde::Value::String(u)) => u.clone(),
                _ => String::new(),
            };
            line.push_str(&format!(" {name}={value:.4}"));
            values
                .entry(name.clone())
                .or_insert_with(|| (unit, Vec::new()))
                .1
                .push(value);
        }
        println!("{line}");
    }
    println!(
        "# {} x {} ({} s each)",
        args.workload.name(),
        runs,
        args.seconds
    );
    for (name, (unit, v)) in &values {
        let (q1, q3) = quartiles(v);
        let m = median(v);
        let spread = if m != 0.0 { (q3 - q1) / m.abs() } else { 0.0 };
        println!(
            "{name:<28} median {m:>12.4} {unit:<6} q1 {q1:>12.4} q3 {q3:>12.4} spread {spread:.4}"
        );
    }
    Ok(())
}
