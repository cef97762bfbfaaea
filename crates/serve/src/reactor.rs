//! Readiness-driven event loop for the query server (Linux only).
//!
//! One reactor thread owns the listener and every connection socket
//! through a raw `epoll` instance (no crates — the three syscalls are
//! declared `extern "C"` just like the mmap wrapper in
//! `relcomp_ugraph::mmap`). Sockets are nonblocking; the reactor
//! re-assembles request lines from read buffers, hands complete lines to
//! a small worker pool, and writes finished responses back as sockets
//! become writable. Workers wake the reactor through an `eventfd`, which
//! doubles as the shutdown wakeup, so shutdown is level-triggered: the
//! flag is re-checked at the top of every loop iteration and a stuck
//! `epoll_wait` can always be interrupted.
//!
//! Each connection runs at most one request at a time (responses on a
//! connection must come back in request order), so pipelined lines queue
//! in the connection until the in-flight one completes. Concurrency
//! comes from many connections, exactly like the thread-per-connection
//! model — minus the per-connection stack and scheduler churn.

#![allow(unsafe_code)]

use crate::server::{dispatch_session, ServeCtx, Session};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, FromRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// Raw syscall surface. Constants from the Linux UAPI headers; the
/// event struct is packed on x86 to match the kernel ABI.
mod sys {
    use std::os::raw::{c_int, c_uint};

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;

    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        pub fn listen(fd: c_int, backlog: c_int) -> c_int;
    }
}

/// Deepen an already-listening socket's accept backlog — Linux applies a
/// repeated `listen` to the live socket. The standard library listens
/// with a fixed backlog of 128; a burst of 256+ concurrent connects
/// overflows that, and each dropped SYN costs the client a ~1 s
/// retransmit. The reactor is built for exactly that connection scale,
/// so it asks for a deeper queue before serving; the threaded model
/// keeps the stock backlog. Best-effort: on failure the socket keeps
/// its original backlog.
fn deepen_backlog(listener: &TcpListener, backlog: i32) {
    unsafe { sys::listen(listener.as_raw_fd(), backlog) };
}

/// Token values for the two non-connection registrations. Connection
/// tokens are slab indexes, which stay far below these.
const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKER: u64 = u64::MAX - 1;

/// How long `epoll_wait` may sleep. The waker makes wakeups prompt;
/// the timeout is belt-and-braces so a lost wakeup can only delay
/// shutdown, never hang it.
const WAIT_TIMEOUT_MS: i32 = 500;

/// A request line longer than this closes the connection (it is not a
/// plausible query, and buffering it unbounded invites OOM).
const MAX_LINE_BYTES: usize = 16 << 20;

/// An `eventfd`-backed wakeup channel: any thread can `wake()` the
/// reactor out of `epoll_wait`. Nonblocking, so `drain` never stalls
/// the loop. The fd closes via `File`'s Drop.
pub(crate) struct Waker {
    file: File,
}

impl Waker {
    pub(crate) fn new() -> io::Result<Waker> {
        // SAFETY: eventfd allocates a new fd; -1 signals failure.
        let fd = unsafe { sys::eventfd(0, sys::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: fd is a freshly created eventfd we own.
        Ok(Waker {
            file: unsafe { File::from_raw_fd(fd) },
        })
    }

    pub(crate) fn wake(&self) {
        // Failure here is benign: the 500 ms epoll timeout still
        // guarantees forward progress.
        let _ = (&self.file).write_all(&1u64.to_ne_bytes());
    }

    fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = (&self.file).read(&mut buf);
    }

    fn fd(&self) -> RawFd {
        self.file.as_raw_fd()
    }
}

/// Thin RAII wrapper over an epoll instance.
struct Epoll {
    file: File,
}

impl Epoll {
    fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 allocates a new fd; -1 signals failure.
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: fd is a freshly created epoll instance we own.
        Ok(Epoll {
            file: unsafe { File::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: std::os::raw::c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        // SAFETY: ev lives across the call; fd and op are valid.
        let rc = unsafe { sys::epoll_ctl(self.file.as_raw_fd(), op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, events, token)
    }

    fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, events, token)
    }

    fn del(&self, fd: RawFd) {
        // The event argument is ignored for DEL (passing one anyway keeps
        // pre-2.6.9 kernel semantics happy, per the man page).
        let _ = self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0);
    }

    fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: the buffer outlives the call and maxevents matches it.
        let rc = unsafe {
            sys::epoll_wait(
                self.file.as_raw_fd(),
                events.as_mut_ptr(),
                events.len() as std::os::raw::c_int,
                timeout_ms,
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(rc as usize)
    }
}

/// Per-connection reactor state.
struct Conn {
    stream: TcpStream,
    session: Arc<Session>,
    /// Guards completions against slab-slot reuse: a worker finishing a
    /// request for a connection that already closed must not write into
    /// whichever new connection inherited the slot.
    generation: u64,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Complete request lines waiting behind the in-flight one.
    pending: VecDeque<String>,
    inflight: bool,
    /// Close once the write buffer drains (set by `shutdown` responses
    /// and protocol violations that still get an error reply).
    closing: bool,
    /// Whether the socket is currently registered for EPOLLOUT.
    want_write: bool,
    /// A final error line to send after the in-flight response (a fatal
    /// protocol violation noticed mid-request); closes the connection
    /// once written.
    farewell: Option<String>,
}

/// A parsed request line travelling to the worker pool.
struct Job {
    index: usize,
    generation: u64,
    line: String,
    session: Arc<Session>,
}

/// A serialized response travelling back to the reactor.
struct Completion {
    index: usize,
    generation: u64,
    text: String,
    is_bye: bool,
}

/// Run the event loop until `shutdown` is observed. Consumes the
/// calling thread; workers are joined before returning.
pub(crate) fn run(
    listener: Arc<TcpListener>,
    ctx: ServeCtx,
    shutdown: Arc<AtomicBool>,
    waker: Arc<Waker>,
    workers: usize,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    deepen_backlog(&listener, 1024);
    let epoll = Epoll::new()?;
    epoll.add(listener.as_raw_fd(), sys::EPOLLIN, TOKEN_LISTENER)?;
    epoll.add(waker.fd(), sys::EPOLLIN, TOKEN_WAKER)?;

    let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();
    let jobs_rx = Arc::new(Mutex::new(jobs_rx));
    let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
    let mut worker_handles = Vec::with_capacity(workers);
    for _ in 0..workers {
        let rx = Arc::clone(&jobs_rx);
        let done = Arc::clone(&completions);
        let waker = Arc::clone(&waker);
        let ctx = ctx.clone();
        worker_handles.push(std::thread::spawn(move || loop {
            // Holding the lock only for recv keeps workers from
            // serializing on each other's dispatch time.
            let job = match rx.lock() {
                Ok(rx) => rx.recv(),
                Err(_) => break,
            };
            let Ok(job) = job else { break };
            let (text, is_bye) = dispatch_session(&job.line, &ctx, &job.session);
            if let Ok(mut done) = done.lock() {
                done.push(Completion {
                    index: job.index,
                    generation: job.generation,
                    text,
                    is_bye,
                });
            }
            waker.wake();
        }));
    }

    let mut loop_state = LoopState {
        epoll,
        slab: Vec::new(),
        free: Vec::new(),
        next_generation: 0,
        jobs_tx,
        ctx,
    };
    let mut events = [sys::EpollEvent { events: 0, data: 0 }; 256];

    loop {
        // Level-triggered shutdown: the flag is authoritative and
        // re-checked every iteration, so a wakeup can be lost (or land
        // before this check) without wedging the loop.
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        let n = match loop_state.epoll.wait(&mut events, WAIT_TIMEOUT_MS) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                // Tear down workers before surfacing the error.
                drop(loop_state.jobs_tx);
                for h in worker_handles {
                    let _ = h.join();
                }
                return Err(e);
            }
        };
        for ev in &events[..n] {
            let token = ev.data;
            let bits = ev.events;
            match token {
                TOKEN_LISTENER => loop_state.accept_ready(&listener),
                TOKEN_WAKER => waker.drain(),
                _ => loop_state.conn_ready(token as usize, bits),
            }
        }
        let finished: Vec<Completion> = match completions.lock() {
            Ok(mut done) => done.drain(..).collect(),
            Err(_) => break,
        };
        for completion in finished {
            loop_state.complete(completion, &shutdown);
        }
    }

    // Closing the channel stops the workers; in-flight dispatches finish
    // first, their completions are simply never delivered.
    drop(loop_state.jobs_tx);
    for h in worker_handles {
        let _ = h.join();
    }
    let open = loop_state.slab.iter().filter(|s| s.is_some()).count() as u64;
    loop_state.ctx.gauges.note_closed(open);
    Ok(())
}

/// Everything the loop body mutates, grouped so helpers can borrow it
/// without fighting the borrow checker over individual locals.
struct LoopState {
    epoll: Epoll,
    slab: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_generation: u64,
    jobs_tx: mpsc::Sender<Job>,
    ctx: ServeCtx,
}

impl LoopState {
    fn accept_ready(&mut self, listener: &TcpListener) {
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient per-connection accept failures (ECONNABORTED
                // and friends) must not kill the server.
                Err(_) => continue,
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            stream.set_nodelay(true).ok();
            self.next_generation += 1;
            let conn = Conn {
                stream,
                session: Arc::new(Session::new()),
                generation: self.next_generation,
                read_buf: Vec::new(),
                write_buf: Vec::new(),
                write_pos: 0,
                pending: VecDeque::new(),
                inflight: false,
                closing: false,
                want_write: false,
                farewell: None,
            };
            let index = match self.free.pop() {
                Some(i) => {
                    self.slab[i] = Some(conn);
                    i
                }
                None => {
                    self.slab.push(Some(conn));
                    self.slab.len() - 1
                }
            };
            let fd = self.slab[index]
                .as_ref()
                .expect("just placed")
                .stream
                .as_raw_fd();
            if self.epoll.add(fd, sys::EPOLLIN, index as u64).is_err() {
                self.slab[index] = None;
                self.free.push(index);
                continue;
            }
            self.ctx.gauges.note_opened();
        }
    }

    fn conn_ready(&mut self, index: usize, bits: u32) {
        if self.slab.get(index).map(|s| s.is_none()).unwrap_or(true) {
            return;
        }
        if bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
            self.close(index);
            return;
        }
        if bits & sys::EPOLLIN != 0 && !self.read_ready(index) {
            self.close(index);
            return;
        }
        if bits & sys::EPOLLOUT != 0 {
            self.flush_writes(index);
        }
    }

    /// Pull everything readable into the connection buffer and queue any
    /// complete lines. Returns false when the connection should close.
    fn read_ready(&mut self, index: usize) -> bool {
        let conn = match self.slab[index].as_mut() {
            Some(c) => c,
            None => return true,
        };
        let mut chunk = [0u8; 4096];
        loop {
            match conn.stream.read(&mut chunk) {
                // Orderly peer close. Anything already buffered can no
                // longer be answered to anyone, so just drop.
                Ok(0) => return false,
                Ok(n) => conn.read_buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        // Split out complete lines; the tail stays buffered.
        let mut start = 0usize;
        while let Some(pos) = conn.read_buf[start..].iter().position(|&b| b == b'\n') {
            let end = start + pos;
            let line = String::from_utf8_lossy(&conn.read_buf[start..end]);
            let line = line.trim();
            if !line.is_empty() {
                conn.pending.push_back(line.to_owned());
            }
            start = end + 1;
        }
        if start > 0 {
            conn.read_buf.drain(..start);
        }
        if conn.read_buf.len() > MAX_LINE_BYTES {
            // Tell the peer *why* before closing instead of silently
            // dropping the connection: queue a structured error line and
            // let the normal write path flush it, closing after the
            // drain. Anything pipelined behind the oversized line can no
            // longer be trusted (we are mid-frame), so it is dropped;
            // an in-flight request still answers first (responses stay
            // in request order), then the error goes out and the
            // connection closes.
            conn.read_buf.clear();
            conn.read_buf.shrink_to_fit();
            conn.pending.clear();
            let error = crate::protocol::Response::Error(format!(
                "request line exceeds the {} MiB limit",
                MAX_LINE_BYTES >> 20
            ));
            let text = serde_json::to_string(&error)
                .unwrap_or_else(|_| r#"{"ok":false,"error":"request line too long"}"#.into());
            if conn.inflight {
                conn.farewell = Some(text);
            } else {
                conn.write_buf.extend_from_slice(text.as_bytes());
                conn.write_buf.push(b'\n');
                conn.closing = true;
                self.flush_writes(index);
            }
            return true;
        }
        self.submit_next(index);
        true
    }

    /// Hand the connection's next pending line to the worker pool,
    /// respecting the one-in-flight-per-connection ordering rule.
    fn submit_next(&mut self, index: usize) {
        let Some(conn) = self.slab[index].as_mut() else {
            return;
        };
        if conn.inflight || conn.closing {
            return;
        }
        let Some(line) = conn.pending.pop_front() else {
            return;
        };
        conn.inflight = true;
        let job = Job {
            index,
            generation: conn.generation,
            line,
            session: Arc::clone(&conn.session),
        };
        // A send failure means the workers are gone, which only happens
        // during teardown; the connection is about to close anyway.
        let _ = self.jobs_tx.send(job);
    }

    /// Deliver a worker's response into its connection, if it still exists.
    fn complete(&mut self, completion: Completion, shutdown: &AtomicBool) {
        let Some(conn) = self.slab.get_mut(completion.index).and_then(|s| s.as_mut()) else {
            return;
        };
        if conn.generation != completion.generation {
            return;
        }
        conn.inflight = false;
        conn.write_buf.extend_from_slice(completion.text.as_bytes());
        conn.write_buf.push(b'\n');
        // A fatal protocol error noticed while this request was in
        // flight (e.g. an oversized next line) goes out right after the
        // answer, then the connection closes.
        if let Some(farewell) = conn.farewell.take() {
            conn.write_buf.extend_from_slice(farewell.as_bytes());
            conn.write_buf.push(b'\n');
            conn.closing = true;
        }
        if completion.is_bye {
            // Flush the farewell, then close; the flag stops the loop on
            // its next iteration (level-triggered, so no wakeup race).
            conn.closing = true;
            shutdown.store(true, Ordering::Release);
        }
        self.submit_next(completion.index);
        self.flush_writes(completion.index);
    }

    /// Write as much buffered response as the socket accepts, toggling
    /// EPOLLOUT registration so the reactor neither busy-spins on a full
    /// socket nor gets spurious writable events when idle.
    fn flush_writes(&mut self, index: usize) {
        enum After {
            Keep,
            RegisterWrite,
            Drained { deregister: bool, closing: bool },
            Close,
        }
        let after = {
            let Some(conn) = self.slab.get_mut(index).and_then(|s| s.as_mut()) else {
                return;
            };
            loop {
                if conn.write_pos >= conn.write_buf.len() {
                    conn.write_buf.clear();
                    conn.write_pos = 0;
                    let deregister = conn.want_write;
                    conn.want_write = false;
                    break After::Drained {
                        deregister,
                        closing: conn.closing,
                    };
                }
                match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                    Ok(0) => break After::Close,
                    Ok(n) => conn.write_pos += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if conn.want_write {
                            break After::Keep;
                        }
                        conn.want_write = true;
                        break After::RegisterWrite;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break After::Close,
                }
            }
        };
        let fd_of = |slab: &[Option<Conn>]| slab[index].as_ref().map(|c| c.stream.as_raw_fd());
        match after {
            After::Keep => {}
            After::RegisterWrite => {
                if let Some(fd) = fd_of(&self.slab) {
                    let _ = self
                        .epoll
                        .modify(fd, sys::EPOLLIN | sys::EPOLLOUT, index as u64);
                }
            }
            After::Drained {
                deregister,
                closing,
            } => {
                if deregister {
                    if let Some(fd) = fd_of(&self.slab) {
                        let _ = self.epoll.modify(fd, sys::EPOLLIN, index as u64);
                    }
                }
                if closing {
                    self.close(index);
                }
            }
            After::Close => self.close(index),
        }
    }

    fn close(&mut self, index: usize) {
        if let Some(conn) = self.slab.get_mut(index).and_then(|s| s.take()) {
            self.epoll.del(conn.stream.as_raw_fd());
            self.free.push(index);
            self.ctx.gauges.note_closed(1);
            // conn drops here, closing the socket.
        }
    }
}
