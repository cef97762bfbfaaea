//! End-to-end smoke test of the `relcomp` CLI: `generate` a tiny graph,
//! read it back with `stats`, and answer a `query` — all with fixed
//! seeds, so the outputs below are stable across runs and platforms.

use std::path::PathBuf;
use std::process::{Command, Output};

fn relcomp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_relcomp"))
        .args(args)
        .output()
        .expect("relcomp binary runs")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "exit {:?}\nstdout: {}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn temp_graph_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("relcomp_cli_smoke_{}_{name}", std::process::id()));
    p
}

#[test]
fn generate_stats_query_round_trip() {
    let path = temp_graph_path("er.txt");
    let path_str = path.to_str().expect("utf-8 temp path");

    // generate: a small LastFM analog with a fixed seed.
    let out = stdout(&relcomp(&[
        "generate", "lastfm", "--out", path_str, "--scale", "0.02", "--seed", "42",
    ]));
    assert!(out.contains("wrote"), "unexpected generate output: {out}");

    // stats: the graph reads back with plausible structure.
    let out = stdout(&relcomp(&["stats", path_str]));
    assert!(out.contains("nodes:"), "missing node count: {out}");
    assert!(out.contains("edges:"), "missing edge count: {out}");
    assert!(
        out.contains("probability: mean"),
        "missing prob summary: {out}"
    );
    let nodes: usize = out
        .lines()
        .find_map(|l| l.strip_prefix("nodes:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("parsable node count");
    assert!(nodes > 10, "suspiciously small graph: {nodes} nodes");

    // query: a reliability estimate in [0, 1] with the requested K.
    // (`--k` is the deprecated alias of `--samples`; it still works but
    // warns on stderr.)
    let raw = relcomp(&[
        "query",
        path_str,
        "0",
        "3",
        "--estimator",
        "mc",
        "--k",
        "2000",
        "--seed",
        "7",
    ]);
    let deprecation = String::from_utf8_lossy(&raw.stderr).into_owned();
    assert!(
        deprecation.contains("deprecated") && deprecation.contains("--samples"),
        "`--k` must print a deprecation note pointing at --samples: {deprecation}"
    );
    let out = stdout(&raw);
    assert!(out.contains("K = 2000"), "missing sample count: {out}");
    // The canonical spelling is silent.
    let canonical = relcomp(&[
        "query",
        path_str,
        "0",
        "3",
        "--estimator",
        "mc",
        "--samples",
        "2000",
        "--seed",
        "7",
    ]);
    assert!(
        !String::from_utf8_lossy(&canonical.stderr).contains("deprecated"),
        "--samples must not warn"
    );
    let reliability: f64 = out
        .split('≈')
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("parsable reliability");
    assert!(
        (0.0..=1.0).contains(&reliability),
        "reliability {reliability} out of range"
    );

    // Same seeds ⇒ same estimate: determinism end to end.
    let again = stdout(&relcomp(&[
        "query",
        path_str,
        "0",
        "3",
        "--estimator",
        "mc",
        "--k",
        "2000",
        "--seed",
        "7",
    ]));
    let line = |s: &str| {
        s.lines()
            .next()
            .map(|l| l.split('[').next().unwrap_or("").to_owned())
    };
    assert_eq!(
        line(&out),
        line(&again),
        "query is not deterministic per seed"
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn adaptive_query_reports_ci_and_stop_reason() {
    let path = temp_graph_path("adaptive.txt");
    let path_str = path.to_str().expect("utf-8 temp path");
    stdout(&relcomp(&[
        "generate", "lastfm", "--out", path_str, "--scale", "0.02", "--seed", "42",
    ]));

    // eps-targeted query: the output carries a ± half-width and a stop
    // reason, and the consumed K respects the cap.
    let out = stdout(&relcomp(&[
        "query",
        path_str,
        "0",
        "3",
        "--estimator",
        "mc",
        "--eps",
        "0.2",
        "--samples",
        "30000",
        "--seed",
        "7",
    ]));
    assert!(out.contains('±'), "missing half-width: {out}");
    assert!(
        out.contains("converged") || out.contains("max_samples"),
        "missing stop reason: {out}"
    );
    let k: usize = out
        .split("K = ")
        .nth(1)
        .and_then(|rest| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|v| v.parse().ok())
        })
        .expect("parsable K");
    assert!(k <= 30_000, "consumed {k} > declared cap");

    // Bad adaptive values are rejected before any sampling — both the
    // unparseable and the parseable-but-invalid kind.
    let bad = relcomp(&["query", path_str, "0", "3", "--eps", "oops"]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("bad --eps"));
    let zero = relcomp(&["query", path_str, "0", "3", "--eps", "0"]);
    assert!(!zero.status.success());
    assert!(
        String::from_utf8_lossy(&zero.stderr).contains("--eps must be a positive"),
        "invalid eps must be a usage error, not a panic"
    );
    let conf = relcomp(&[
        "query",
        path_str,
        "0",
        "3",
        "--eps",
        "0.1",
        "--confidence",
        "1.0",
    ]);
    assert!(!conf.status.success());
    assert!(String::from_utf8_lossy(&conf.stderr).contains("--confidence must be in (0, 1)"));

    std::fs::remove_file(&path).ok();
}

#[test]
fn topk_and_dquery_subcommands_cover_fixed_and_adaptive_budgets() {
    let path = temp_graph_path("workloads.txt");
    let path_str = path.to_str().expect("utf-8 temp path");
    stdout(&relcomp(&[
        "generate", "lastfm", "--out", path_str, "--scale", "0.02", "--seed", "42",
    ]));

    // Fixed topk: header carries the consumed K, rows carry estimates.
    let out = stdout(&relcomp(&[
        "topk",
        path_str,
        "0",
        "--k",
        "3",
        "--samples",
        "1000",
        "--seed",
        "7",
    ]));
    assert!(out.contains("top-3 most reliable targets"), "{out}");
    assert!(out.contains("K = 1000"), "missing sample count: {out}");
    assert!(out.contains("R ≈"), "missing estimates: {out}");

    // Deterministic per seed.
    let again = stdout(&relcomp(&[
        "topk",
        path_str,
        "0",
        "--k",
        "3",
        "--samples",
        "1000",
        "--seed",
        "7",
    ]));
    let rows = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.contains("R ≈"))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(
        rows(&out),
        rows(&again),
        "topk is not deterministic per seed"
    );

    // eps-adaptive topk: the output reports the session's stop reason
    // and the boundary half-width.
    let out = stdout(&relcomp(&[
        "topk",
        path_str,
        "0",
        "--k",
        "3",
        "--eps",
        "0.2",
        "--samples",
        "30000",
        "--seed",
        "7",
    ]));
    assert!(
        out.contains("converged") || out.contains("max_samples"),
        "missing stop reason: {out}"
    );
    assert!(out.contains("boundary half-width"), "{out}");

    // Fixed dquery: R_d line with the hop bound echoed.
    let out = stdout(&relcomp(&[
        "dquery",
        path_str,
        "0",
        "3",
        "2",
        "--samples",
        "1000",
        "--seed",
        "7",
    ]));
    assert!(out.contains("R_2(0, 3)"), "{out}");
    assert!(out.contains("K = 1000"), "{out}");

    // eps-adaptive dquery: stop reason and a ± half-width in the output.
    let out = stdout(&relcomp(&[
        "dquery",
        path_str,
        "0",
        "3",
        "4",
        "--eps",
        "0.2",
        "--samples",
        "30000",
        "--seed",
        "7",
    ]));
    assert!(
        out.contains("converged") || out.contains("max_samples"),
        "missing stop reason: {out}"
    );
    assert!(out.contains('±'), "missing half-width: {out}");

    // Bad values and unknown options are usage errors for both commands.
    let bad = relcomp(&["topk", path_str, "0", "--eps", "0"]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("--eps must be a positive"));
    let unknown = relcomp(&["topk", path_str, "0", "--estimator", "mc"]);
    assert!(!unknown.status.success());
    let err = String::from_utf8_lossy(&unknown.stderr);
    assert!(err.contains("unknown option `--estimator`"), "{err}");
    assert!(err.contains("--eps"), "should list valid options: {err}");
    let unknown = relcomp(&["dquery", path_str, "0", "3", "2", "--k", "5"]);
    assert!(!unknown.status.success());
    let err = String::from_utf8_lossy(&unknown.stderr);
    assert!(err.contains("unknown option `--k`"), "{err}");
    let missing = relcomp(&["dquery", path_str, "0", "3"]);
    assert!(!missing.status.success());
    assert!(String::from_utf8_lossy(&missing.stderr).contains("dquery needs <file> <s> <t> <d>"));

    std::fs::remove_file(&path).ok();
}

#[test]
fn generate_stream_convert_and_v2_round_trip() {
    let v2 = temp_graph_path("stream.ug2");
    let v1 = temp_graph_path("stream.ugb");
    let txt = temp_graph_path("stream.txt");
    let (v2_str, v1_str, txt_str) = (
        v2.to_str().unwrap(),
        v1.to_str().unwrap(),
        txt.to_str().unwrap(),
    );

    // Stream a BA graph straight to the v2 binary.
    let out = stdout(&relcomp(&[
        "generate-stream",
        "ba",
        "--out",
        v2_str,
        "--nodes",
        "2000",
        "--attach",
        "3",
        "--seed",
        "9",
    ]));
    assert!(out.contains("wrote"), "{out}");
    assert!(out.contains("2000 nodes"), "{out}");

    // The v2 output must only land in .ug2 files.
    let bad = relcomp(&["generate-stream", "ba", "--out", txt_str, "--nodes", "100"]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains(".ug2"));

    // stats reads v2 and reports the zero-copy load path.
    let stats = stdout(&relcomp(&["stats", v2_str]));
    assert!(stats.contains("binary-v2"), "{stats}");
    if cfg!(all(unix, target_endian = "little")) {
        assert!(stats.contains("via mmap"), "{stats}");
    }

    // Queries run directly against the mapped file, deterministically.
    // (Cut the trailing `[...; N ms]` bracket: wall time varies per run.)
    let query = |file: &str| {
        let out = stdout(&relcomp(&[
            "query",
            file,
            "7",
            "42",
            "--estimator",
            "mc",
            "--samples",
            "1000",
            "--seed",
            "3",
        ]));
        out.split('[').next().unwrap_or("").to_owned()
    };
    let from_v2 = query(v2_str);
    assert!(from_v2.contains("R(7, 42)"), "{from_v2}");

    // convert: v2 -> v1 -> text, each readable, all giving the same
    // estimate from the same seed.
    let out = stdout(&relcomp(&["convert", v2_str, v1_str]));
    assert!(out.contains("binary-v2"), "{out}");
    let out = stdout(&relcomp(&["convert", v1_str, txt_str]));
    assert!(out.contains("binary-v1"), "{out}");
    assert_eq!(query(v1_str), query(txt_str));
    assert_eq!(from_v2, query(v1_str));

    // And text converts back up to v2 (the migration path README
    // documents for v1 deployments).
    let out = stdout(&relcomp(&["convert", txt_str, v2_str]));
    assert!(out.contains("text"), "{out}");
    assert_eq!(from_v2, query(v2_str));

    for p in [&v2, &v1, &txt] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn bad_usage_exits_nonzero_with_usage() {
    let out = relcomp(&["no-such-command"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "stderr should carry usage: {err}");
}

#[test]
fn unknown_options_are_rejected_with_expected_list() {
    let path = temp_graph_path("flags.txt");
    let path_str = path.to_str().unwrap();
    stdout(&relcomp(&[
        "generate", "lastfm", "--out", path_str, "--scale", "0.02", "--seed", "1",
    ]));

    // A typo'd option must fail loudly, naming the valid ones.
    let out = relcomp(&[
        "query", path_str, "0", "3", "--sample", "100", "--seed", "1",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown option `--sample`"), "{err}");
    assert!(
        err.contains("--samples"),
        "should list valid options: {err}"
    );

    // Options from other commands are rejected too.
    let out = relcomp(&["stats", path_str, "--estimator", "mc"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown option `--estimator`"), "{err}");

    std::fs::remove_file(&path).ok();
}

#[test]
fn query_accepts_samples_flag() {
    let path = temp_graph_path("samples.txt");
    let path_str = path.to_str().unwrap();
    stdout(&relcomp(&[
        "generate", "lastfm", "--out", path_str, "--scale", "0.02", "--seed", "1",
    ]));
    let out = stdout(&relcomp(&[
        "query",
        path_str,
        "0",
        "3",
        "--estimator",
        "mc",
        "--samples",
        "1234",
        "--seed",
        "7",
    ]));
    assert!(
        out.contains("K = 1234"),
        "--samples should set the budget: {out}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn serve_and_client_round_trip() {
    use std::io::BufRead;

    let path = temp_graph_path("serve.txt");
    let path_str = path.to_str().unwrap();
    stdout(&relcomp(&[
        "generate", "lastfm", "--out", path_str, "--scale", "0.02", "--seed", "42",
    ]));

    // Port 0: the OS picks a free port and the banner line reports it.
    let mut server = Command::new(env!("CARGO_BIN_EXE_relcomp"))
        .args(["serve", path_str, "--port", "0", "--threads", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("server starts");
    let banner = {
        let stdout = server.stdout.as_mut().expect("piped stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("banner line");
        line
    };
    let addr = banner
        .split(" on ")
        .nth(1)
        .and_then(|rest| rest.split(": ").next())
        .unwrap_or_else(|| panic!("unparsable banner: {banner}"))
        .to_owned();

    let query = |extra: &[&str]| {
        let mut args = vec!["client", "0", "3", "--addr", &addr];
        args.extend_from_slice(extra);
        stdout(&relcomp(&args))
    };

    let first = query(&["--estimator", "mc", "--samples", "500", "--seed", "7"]);
    assert!(first.contains("R(0, 3)"), "{first}");
    let second = query(&["--estimator", "mc", "--samples", "500", "--seed", "7"]);
    assert!(
        second.contains("cached"),
        "repeat should hit the cache: {second}"
    );
    // Identical estimates: cut each line at the bracket and compare.
    let estimate = |s: &str| s.split("   [").next().map(str::to_owned);
    assert_eq!(estimate(&first), estimate(&second));

    let stats = stdout(&relcomp(&["client", "stats", "--addr", &addr]));
    assert!(stats.contains("hit rate"), "{stats}");

    // The extension workloads ride the same connection machinery.
    let topk = stdout(&relcomp(&[
        "client",
        "topk",
        "0",
        "--k",
        "2",
        "--samples",
        "500",
        "--seed",
        "7",
        "--addr",
        &addr,
    ]));
    assert!(topk.contains("top-2 most reliable targets"), "{topk}");
    let dq = stdout(&relcomp(&[
        "client", "dquery", "0", "3", "2", "--eps", "0.3", "--seed", "7", "--addr", &addr,
    ]));
    assert!(dq.contains("R_2(0, 3)"), "{dq}");
    assert!(
        dq.contains("converged") || dq.contains("max_samples"),
        "client dquery must surface the stop reason: {dq}"
    );

    // The JSON form prints the wire's `metrics` answer, tag included.
    let metrics = stdout(&relcomp(&[
        "client", "metrics", "--format", "json", "--addr", &addr,
    ]));
    assert!(
        metrics.starts_with(r#"{"ok":true,"kind":"metrics","queries_total":"#),
        "{metrics}"
    );

    stdout(&relcomp(&["client", "shutdown", "--addr", &addr]));
    server.wait().expect("server exits after shutdown");
    std::fs::remove_file(&path).ok();
}
