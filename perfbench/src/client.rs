//! The load generator: one process, at most `nproc` threads, one TCP
//! connection per thread, speaking the line-delimited JSON protocol.
//!
//! - [`closed_loop`]: each connection keeps a fixed window of pipelined
//!   requests outstanding and sends the next one when a response arrives;
//!   latency runs from send to response.
//! - [`open_loop`]: requests go out when they are due, whatever is still
//!   outstanding; latency runs from the due time to the response, so a
//!   stall is charged to every request queued behind it, and the send
//!   lateness of the generator itself is recorded per request.

use crate::requests::{ColdStream, Req, Scheduled, TENANTS};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A request unanswered for this long counts as failed and ends the run.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// A TCP connection framed into lines.
pub struct LineConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl LineConn {
    pub fn connect(addr: SocketAddr) -> io::Result<LineConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(LineConn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.stream.write_all(&bytes)
    }

    /// The next response line, or `None` if none arrived by `deadline`.
    pub fn recv(&mut self, deadline: Instant) -> io::Result<Option<String>> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                return Ok(Some(String::from_utf8_lossy(&line[..pos]).into_owned()));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            let wait = (deadline - now).max(Duration::from_micros(50));
            self.stream.set_read_timeout(Some(wait))?;
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Send one line and wait for its response.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.send(line).map_err(|e| format!("send: {e}"))?;
        self.recv(Instant::now() + REQUEST_TIMEOUT)
            .map_err(|e| format!("recv: {e}"))?
            .ok_or_else(|| format!("no response within {REQUEST_TIMEOUT:?} to {line}"))
    }

    /// Point this connection at tenant `tenant` (no-op for the default).
    pub fn use_tenant(&mut self, tenant: usize) -> Result<(), String> {
        if tenant == 0 {
            return Ok(());
        }
        let reply = self.call(&format!(r#"{{"cmd":"use","name":"{}"}}"#, TENANTS[tenant]))?;
        if reply.contains(r#""kind":"using""#) {
            Ok(())
        } else {
            Err(format!("use {}: {reply}", TENANTS[tenant]))
        }
    }
}

/// One finished (or failed) request.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub req: Req,
    /// Client-observed latency (from send, or from the due time in an
    /// open loop).
    pub latency: Duration,
    /// How late the generator sent it (open loop only).
    pub late: Duration,
    /// The response line; `None` when it timed out or the connection broke.
    pub response: Option<String>,
    /// When the response arrived (or the request was given up).
    pub done: Instant,
    /// Sent during the open loop's warm-up: checked, but not measured.
    pub warmup: bool,
}

/// Run `f(i)` for `i in 0..n` with `n - 1` scoped threads plus the calling
/// thread, so the generator never holds more than `n` threads.
fn on_threads<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..n)
            .map(|i| {
                scope.spawn({
                    let f = &f;
                    move || f(i)
                })
            })
            .collect();
        let mut out = vec![f(0)];
        out.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread panicked")),
        );
        out
    })
}

/// Closed loop over `conns` connections, each with `window` requests in
/// flight, drawing requests from `stream` for `seconds`, then draining.
/// Returns the outcomes and the wall time from start to the last response.
pub fn closed_loop(
    addr: SocketAddr,
    conns: usize,
    window: usize,
    stream: &Mutex<ColdStream>,
    seconds: f64,
) -> Result<(Vec<Outcome>, Duration), String> {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let per_conn = on_threads(conns, |_| -> Result<Vec<Outcome>, String> {
        let mut conn = LineConn::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut inflight: VecDeque<(Req, Instant)> = VecDeque::new();
        let mut out = Vec::new();
        loop {
            while inflight.len() < window && Instant::now() < end {
                let req = stream
                    .lock()
                    .expect("stream lock")
                    .next()
                    .expect("endless stream");
                conn.send(&req.line).map_err(|e| format!("send: {e}"))?;
                inflight.push_back((req, Instant::now()));
            }
            let Some((_, sent)) = inflight.front() else {
                break;
            };
            let reply = conn.recv(*sent + REQUEST_TIMEOUT).ok().flatten();
            let done = Instant::now();
            let (req, sent) = inflight.pop_front().expect("front exists");
            let failed = reply.is_none();
            out.push(Outcome {
                req,
                latency: done - sent,
                late: Duration::ZERO,
                response: reply,
                done,
                warmup: false,
            });
            if failed {
                // The connection is unusable: charge everything still
                // outstanding as failed.
                out.extend(inflight.drain(..).map(|(req, sent)| Outcome {
                    req,
                    latency: done - sent,
                    late: Duration::ZERO,
                    response: None,
                    done,
                    warmup: false,
                }));
                break;
            }
        }
        Ok(out)
    });
    let elapsed = start.elapsed();
    let mut all = Vec::new();
    for r in per_conn {
        all.extend(r?);
    }
    Ok((all, elapsed))
}

/// One open-loop connection and the requests it sends.
type Lane<'a> = (LineConn, Vec<&'a Scheduled>);

/// Open loop: send every scheduled request when it is due over `conns`
/// connections (connection `i` serves tenant `i % 2`), reading responses
/// in between. Requests due before `warmup` are marked as warm-up.
/// Returns the outcomes and the wall time from the start to the last
/// response.
pub fn open_loop(
    addr: SocketAddr,
    schedule: &[Scheduled],
    conns: usize,
    warmup: Duration,
) -> Result<(Vec<Outcome>, Duration), String> {
    let mut lanes: Vec<Lane> = Vec::new();
    for i in 0..conns {
        let mut conn = LineConn::connect(addr).map_err(|e| format!("connect: {e}"))?;
        conn.use_tenant(i % TENANTS.len())?;
        lanes.push((conn, Vec::new()));
    }
    // Round-robin each tenant's requests over that tenant's connections.
    let mut next_lane = [0usize; 2];
    for s in schedule {
        let tenant_lanes: Vec<usize> = (0..conns).filter(|i| i % 2 == s.req.tenant).collect();
        let lane = tenant_lanes[next_lane[s.req.tenant] % tenant_lanes.len()];
        next_lane[s.req.tenant] += 1;
        lanes[lane].1.push(s);
    }
    // Each lane moves into its own thread exactly once.
    let lanes: Vec<Mutex<Option<Lane>>> = lanes.into_iter().map(|l| Mutex::new(Some(l))).collect();
    let start = Instant::now() + Duration::from_millis(20);
    let per_conn = on_threads(conns, |i| -> Result<Vec<Outcome>, String> {
        let (mut conn, list) = lanes[i]
            .lock()
            .expect("lane lock")
            .take()
            .expect("lane taken once");
        // (index into `list`, due instant, send lateness); responses come
        // back in request order on one connection.
        let mut inflight: VecDeque<(usize, Instant, Duration)> = VecDeque::new();
        let mut out = Vec::with_capacity(list.len());
        let mut next = 0;
        loop {
            while next < list.len() && start + list[next].due <= Instant::now() {
                let due = start + list[next].due;
                let late = Instant::now().saturating_duration_since(due);
                conn.send(&list[next].req.line)
                    .map_err(|e| format!("send: {e}"))?;
                inflight.push_back((next, due, late));
                next += 1;
            }
            let Some(&(_, oldest_due, _)) = inflight.front() else {
                if next == list.len() {
                    break;
                }
                let due = start + list[next].due;
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                continue;
            };
            if Instant::now() >= oldest_due + REQUEST_TIMEOUT {
                break;
            }
            let deadline = match list.get(next) {
                Some(s) => (start + s.due).min(oldest_due + REQUEST_TIMEOUT),
                None => oldest_due + REQUEST_TIMEOUT,
            };
            if let Some(text) = conn.recv(deadline).map_err(|e| format!("recv: {e}"))? {
                let (k, due, late) = inflight.pop_front().expect("front exists");
                let done = Instant::now();
                out.push(Outcome {
                    req: list[k].req.clone(),
                    latency: done - due,
                    late,
                    response: Some(text),
                    done,
                    warmup: list[k].due < warmup,
                });
            }
        }
        // A timeout ends the lane: whatever is outstanding or unsent failed.
        let now = Instant::now();
        for (k, due, late) in inflight {
            out.push(Outcome {
                req: list[k].req.clone(),
                latency: now - due,
                late,
                response: None,
                done: now,
                warmup: list[k].due < warmup,
            });
        }
        for s in &list[next..] {
            out.push(Outcome {
                req: s.req.clone(),
                latency: Duration::ZERO,
                late: Duration::ZERO,
                response: None,
                done: now,
                warmup: s.due < warmup,
            });
        }
        Ok(out)
    });
    let elapsed = start.elapsed();
    let mut all = Vec::new();
    for r in per_conn {
        all.extend(r?);
    }
    Ok((all, elapsed))
}
