//! The `relcomp serve` child process: spawn, set up until ready, read its
//! peak RSS, shut down. The process is always reaped, also on panic.

use crate::client::LineConn;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The server flags every run uses (also recorded in BENCHMARK.json and
/// the README). One sampling thread per query: the load generator keeps
/// one request in flight per worker, so parallelism comes from
/// concurrent queries, not from splitting one query.
pub const THREADS: usize = 1;
pub const CACHE: usize = 4096;
pub const MODE: &str = "reactor";

/// Reactor workers: one per core.
pub fn workers() -> usize {
    crate::nproc()
}

/// A running server.
pub struct ServerProc {
    child: Child,
    /// Held open so the server's later stdout writes never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawn `relcomp serve <graph>` on an ephemeral port and wait for its
    /// "serving ... on ADDR" line (printed once the graph is loaded and
    /// the socket is bound).
    pub fn spawn(bin: &Path, graph: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .arg("serve")
            .arg(graph)
            .args(["--port", "0", "--threads", &THREADS.to_string()])
            .args(["--workers", &workers().to_string()])
            .args(["--cache", &CACHE.to_string(), "--mode", MODE])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = read.ok().and_then(|_| {
            let at = line.find(" on 127.0.0.1:")? + " on ".len();
            let rest = &line[at..];
            let end = rest.find(": ")?;
            rest[..end].parse().ok()
        });
        let mut server = ServerProc {
            child,
            _stdout: stdout,
            addr: "127.0.0.1:0".parse().expect("literal address"),
        };
        match addr {
            Some(addr) => {
                server.addr = addr;
                Ok(server)
            }
            None => Err(format!("server did not report its address: {line:?}")),
        }
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_owned())
    }

    /// Ask the server to shut down and wait for it; kill it if it does not
    /// exit within a few seconds.
    pub fn shutdown(mut self) {
        if let Ok(mut conn) = LineConn::connect(self.addr) {
            let _ = conn.send(r#"{"cmd":"shutdown"}"#);
            let _ = conn.recv(Instant::now() + Duration::from_secs(5));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // Drop kills and reaps.
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
