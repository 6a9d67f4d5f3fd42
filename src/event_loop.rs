//! The epoll event loop behind [`crate::net::Server`] — its only serve
//! path, which makes `icdbd` Linux-only: thousands of connections
//! multiplexed over a small worker pool.
//!
//! Earlier revisions ran one thread per connection, so the connection cap
//! was really a thread budget. Here a blocking acceptor admits sockets
//! (the cap becomes pure admission policy) and hands each one round-robin
//! to a worker; every worker owns a private `epoll` instance, an
//! `eventfd` wake channel, and the per-connection state machines — a
//! read buffer scanned for line frames, a write buffer drained as the
//! socket accepts bytes, and the [`Session`](icdb_core::Session) whose
//! drop cleans the namespace up. No `libc` crate: the five syscalls are
//! declared as raw externs, per the repo's no-dependency policy.
//!
//! Commands still execute synchronously on the owning worker, so one
//! long cold generation stalls that worker's other connections (not the
//! whole server) — acceptable because the service's epoch snapshots and
//! group-commit keep individual commands short; the worker count
//! ([`crate::net::DEFAULT_WORKERS`], `icdbd --workers`) bounds the
//! blast radius.

use crate::net::{dispatch_line, escape, http_metrics_response, ErrCode, MAX_LINE};
use icdb_core::IcdbService;
use icdb_obs::log as olog;
use icdb_obs::metrics as obs;
use std::collections::HashMap;
use std::io::{self, Read, Write as _};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

// ------------------------------------------------------- raw epoll ABI

#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const EPOLL_CLOEXEC: i32 = 0x80000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLLIN: u32 = 0x1;
const EPOLLOUT: u32 = 0x4;
const EPOLLERR: u32 = 0x8;
const EPOLLHUP: u32 = 0x10;
const EPOLLRDHUP: u32 = 0x2000;
const EFD_NONBLOCK: i32 = 0x800;
const EFD_CLOEXEC: i32 = 0x80000;

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

fn ctl(epfd: i32, op: i32, fd: i32, interest: u32, token: u64) -> io::Result<()> {
    let mut ev = EpollEvent {
        events: interest,
        data: token,
    };
    let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Rings a worker's eventfd (acceptor → worker handoff, shutdown nudge).
fn ring(wake_fd: i32) {
    let one: u64 = 1;
    let _ = unsafe { write(wake_fd, (&one as *const u64).cast(), 8) };
}

/// Drains a worker's eventfd so level-triggered polling quiesces.
fn drain(wake_fd: i32) {
    let mut buf = [0u8; 8];
    let _ = unsafe { read(wake_fd, buf.as_mut_ptr(), 8) };
}

// -------------------------------------------------- connection machine

/// A connection whose unread response backlog (`wbuf` minus what the
/// socket accepted) exceeds this is dropped: a peer that sends requests
/// but never reads answers would otherwise grow the write buffer without
/// bound. Generous — a single response can be large (list outputs) — but
/// finite.
const WRITE_HIGH_WATER: usize = 8 * 1024 * 1024;

/// How many readiness events one `epoll_wait` call collects.
const EVENT_BATCH: usize = 64;

/// How long a worker sleeps in `epoll_wait` before re-checking the
/// shutdown flag (milliseconds).
const WAIT_TIMEOUT_MS: i32 = 500;

/// Token the worker's own eventfd carries (no socket ever gets it: fd 0
/// is stdin and never a freshly accepted connection).
const WAKE_TOKEN: u64 = u64::MAX;

/// Token of the metrics HTTP listener (worker 0 only).
const METRICS_TOKEN: u64 = u64::MAX - 1;

/// High bit marking a token as a metrics HTTP connection rather than a
/// CQL connection. File descriptors are small non-negative ints, so the
/// flagged and unflagged token spaces can never collide.
const HTTP_FLAG: u64 = 1 << 63;

/// A metrics scrape left half-open longer than this is dropped (the CQL
/// idle sweep is configurable; scrapes have no business being slow).
const HTTP_IDLE_TIMEOUT: Duration = Duration::from_secs(10);

/// Longest request head a metrics scrape may send.
const HTTP_MAX_HEAD: usize = 8 * 1024;

struct Conn {
    stream: TcpStream,
    session: icdb_core::Session,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Bytes of `wbuf` already written to the socket.
    wpos: usize,
    /// Flush what is buffered, then close (set by `quit`, EOF, or a
    /// protocol violation).
    closing: bool,
    /// Whether the epoll registration currently includes `EPOLLOUT`.
    armed_out: bool,
    /// When this connection last showed readiness (the idle-sweep clock).
    last_active: Instant,
}

impl Conn {
    fn interest(&self) -> u32 {
        let mut i = EPOLLIN | EPOLLRDHUP;
        if self.armed_out {
            i |= EPOLLOUT;
        }
        i
    }

    /// Drains as much of `wbuf` as the socket accepts right now.
    fn flush(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        Ok(())
    }

    /// Reads what is currently available, but stops once `rbuf` holds
    /// more than [`MAX_LINE`] bytes — level-triggered epoll reports the
    /// rest on the next wakeup, so a peer that keeps the socket readable
    /// cannot grow the buffer without bound. Returns whether the peer
    /// closed its end.
    fn fill(&mut self) -> io::Result<bool> {
        let mut chunk = [0u8; 16 * 1024];
        while self.rbuf.len() <= MAX_LINE {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(true),
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(false)
    }

    /// Executes every complete line framed in `rbuf`, appending one
    /// response per line to `wbuf`; a line longer than [`MAX_LINE`] is
    /// refused and the connection closed.
    fn process_lines(&mut self) {
        while let Some(pos) = self.rbuf.iter().position(|&b| b == b'\n') {
            if pos > MAX_LINE {
                break;
            }
            let frame: Vec<u8> = self.rbuf.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&frame[..pos]);
            let line = text.trim_end_matches(['\r', '\n']);
            if line.is_empty() {
                continue;
            }
            if line == "quit" || line == "exit" {
                self.closing = true;
                return;
            }
            let outcome = dispatch_line(&mut self.session, line);
            match outcome {
                Ok(reply) => self.wbuf.extend_from_slice(reply.render().as_bytes()),
                Err((code, message)) => {
                    self.wbuf.extend_from_slice(
                        format!("ERR {} {}\n", code.as_str(), escape(&message)).as_bytes(),
                    );
                }
            }
        }
        if self.rbuf.len() > MAX_LINE {
            self.wbuf.extend_from_slice(
                format!(
                    "ERR {} request line exceeds {MAX_LINE} bytes\n",
                    ErrCode::Parse.as_str()
                )
                .as_bytes(),
            );
            self.closing = true;
        }
    }

    /// Reacts to one readiness report. Returns `true` when the
    /// connection is finished and must be deregistered and dropped.
    fn handle(&mut self, events: u32, epfd: i32) -> bool {
        self.last_active = Instant::now();
        if events & EPOLLERR != 0 {
            return true;
        }
        if events & EPOLLOUT != 0 && self.flush().is_err() {
            return true;
        }
        if events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 {
            match self.fill() {
                Ok(eof) => {
                    self.process_lines();
                    if eof {
                        self.closing = true;
                    }
                }
                Err(_) => return true,
            }
        }
        if self.flush().is_err() {
            return true;
        }
        // A peer that fires requests without draining responses gets
        // dropped once its unread backlog passes the high-water mark.
        if self.wbuf.len() - self.wpos > WRITE_HIGH_WATER {
            obs::WRITE_HIGHWATER_DROPS.inc();
            return true;
        }
        let pending = self.wpos < self.wbuf.len();
        if self.closing && !pending {
            return true;
        }
        if pending != self.armed_out {
            self.armed_out = pending;
            let fd = self.stream.as_raw_fd();
            if ctl(epfd, EPOLL_CTL_MOD, fd, self.interest(), fd as u64).is_err() {
                return true;
            }
        }
        false
    }
}

/// One metrics HTTP/1.0 connection, multiplexed on the same epoll
/// instance as the CQL connections (no extra thread): read the request
/// head, queue the full response, drain it, close.
struct HttpConn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Response queued — nothing more to read, close once drained.
    responded: bool,
    armed_out: bool,
    last_active: Instant,
}

impl HttpConn {
    fn interest(&self) -> u32 {
        let mut i = EPOLLIN | EPOLLRDHUP;
        if self.armed_out {
            i |= EPOLLOUT;
        }
        i
    }

    fn flush(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reacts to one readiness report; `true` means deregister + drop.
    fn handle(&mut self, events: u32, epfd: i32, service: &Arc<IcdbService>) -> bool {
        if events & EPOLLERR != 0 {
            return true;
        }
        let mut progressed = false;
        if events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 && !self.responded {
            let mut eof = false;
            let mut chunk = [0u8; 4 * 1024];
            loop {
                match self.stream.read(&mut chunk) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        self.rbuf.extend_from_slice(&chunk[..n]);
                        progressed = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return true,
                }
            }
            let head_complete = self.rbuf.windows(2).any(|w| w == b"\n\n")
                || self.rbuf.windows(4).any(|w| w == b"\r\n\r\n");
            if head_complete {
                let text = String::from_utf8_lossy(&self.rbuf);
                let request_line = text.lines().next().unwrap_or_default().to_string();
                self.wbuf = http_metrics_response(service, &request_line);
                self.responded = true;
            } else if self.rbuf.len() > HTTP_MAX_HEAD {
                return true;
            } else if eof {
                // The peer closed (or half-closed) with the head still
                // incomplete: no response can ever be produced, and with
                // level-triggered epoll the readiness would re-fire
                // forever — drop now. (LB/k8s connect-then-close health
                // probes land exactly here.)
                return true;
            }
        }
        let flushed_from = self.wpos;
        if self.flush().is_err() {
            return true;
        }
        progressed |= self.wpos != flushed_from;
        if self.responded && self.wpos == self.wbuf.len() {
            return true;
        }
        // Only a wakeup that made progress defers the idle sweep, so a
        // peer holding a stuck connection open still gets reaped.
        if progressed {
            self.last_active = Instant::now();
        }
        let pending = self.wpos < self.wbuf.len();
        if pending != self.armed_out {
            self.armed_out = pending;
            let fd = self.stream.as_raw_fd();
            if ctl(
                epfd,
                EPOLL_CTL_MOD,
                fd,
                self.interest(),
                fd as u64 | HTTP_FLAG,
            )
            .is_err()
            {
                return true;
            }
        }
        false
    }
}

/// Puts a freshly accepted metrics scrape under epoll.
fn register_http(epfd: i32, stream: TcpStream) -> Option<(u64, HttpConn)> {
    stream.set_nonblocking(true).ok()?;
    let fd = stream.as_raw_fd();
    let token = fd as u64 | HTTP_FLAG;
    let conn = HttpConn {
        stream,
        rbuf: Vec::new(),
        wbuf: Vec::new(),
        wpos: 0,
        responded: false,
        armed_out: false,
        last_active: Instant::now(),
    };
    ctl(epfd, EPOLL_CTL_ADD, fd, conn.interest(), token).ok()?;
    Some((token, conn))
}

// --------------------------------------------------------- worker pool

/// The acceptor → worker handoff channel: sockets parked here until the
/// worker's eventfd wakes it.
struct Inbox {
    streams: Mutex<Vec<TcpStream>>,
    wake_fd: i32,
}

fn lock_streams(inbox: &Inbox) -> std::sync::MutexGuard<'_, Vec<TcpStream>> {
    inbox.streams.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One worker: a private epoll instance multiplexing its share of the
/// connections until shutdown. Worker 0 additionally owns the optional
/// metrics HTTP listener and its scrape connections — multiplexed here
/// so the endpoint needs no thread model of its own.
fn worker_loop(
    inbox: Arc<Inbox>,
    service: Arc<IcdbService>,
    idle_timeout: Duration,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    metrics: Option<TcpListener>,
) {
    let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
    if epfd < 0 {
        return;
    }
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut https: HashMap<u64, HttpConn> = HashMap::new();
    let ok = ctl(epfd, EPOLL_CTL_ADD, inbox.wake_fd, EPOLLIN, WAKE_TOKEN).is_ok();
    // A listener that cannot be registered is simply dropped: scrapes fail,
    // the CQL side keeps serving.
    let metrics = metrics.and_then(|l| {
        l.set_nonblocking(true).ok()?;
        ctl(epfd, EPOLL_CTL_ADD, l.as_raw_fd(), EPOLLIN, METRICS_TOKEN).ok()?;
        Some(l)
    });
    while ok && !shutdown.load(Ordering::SeqCst) {
        let mut events = [EpollEvent { events: 0, data: 0 }; EVENT_BATCH];
        let wait_start = Instant::now();
        let n = unsafe {
            epoll_wait(
                epfd,
                events.as_mut_ptr(),
                EVENT_BATCH as i32,
                WAIT_TIMEOUT_MS,
            )
        };
        obs::EPOLL_WAIT_US.record(
            wait_start
                .elapsed()
                .as_micros()
                .try_into()
                .unwrap_or(u64::MAX),
        );
        if n < 0 {
            if io::Error::last_os_error().kind() == io::ErrorKind::Interrupted {
                continue;
            }
            break;
        }
        for ev in events.iter().take(n.max(0) as usize) {
            let token = ev.data;
            let readiness = ev.events;
            if token == WAKE_TOKEN {
                drain(inbox.wake_fd);
                let fresh: Vec<TcpStream> = lock_streams(&inbox).drain(..).collect();
                for stream in fresh {
                    if let Some((token, conn)) = register(epfd, stream, &service) {
                        conns.insert(token, conn);
                    } else {
                        active.fetch_sub(1, Ordering::SeqCst);
                        obs::CONNECTIONS.dec();
                    }
                }
                continue;
            }
            if token == METRICS_TOKEN {
                if let Some(listener) = metrics.as_ref() {
                    loop {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                if let Some((token, conn)) = register_http(epfd, stream) {
                                    https.insert(token, conn);
                                }
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(_) => break,
                        }
                    }
                }
                continue;
            }
            if token & HTTP_FLAG != 0 {
                let done = match https.get_mut(&token) {
                    Some(conn) => conn.handle(readiness, epfd, &service),
                    None => continue,
                };
                if done {
                    if let Some(conn) = https.remove(&token) {
                        let _ = ctl(epfd, EPOLL_CTL_DEL, conn.stream.as_raw_fd(), 0, 0);
                    }
                }
                continue;
            }
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            if conn.handle(readiness, epfd) {
                if let Some(conn) = conns.remove(&token) {
                    let _ = ctl(epfd, EPOLL_CTL_DEL, conn.stream.as_raw_fd(), 0, 0);
                    drop(conn); // drops the Session → namespace cleanup
                    active.fetch_sub(1, Ordering::SeqCst);
                    obs::CONNECTIONS.dec();
                }
            }
        }
        // Idle sweep, on the epoll tick (`WAIT_TIMEOUT_MS`): a connection
        // silent past the timeout is treated exactly like a disconnect —
        // its session drops and the namespace is deleted.
        if idle_timeout > Duration::ZERO {
            let now = Instant::now();
            let stale: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| now.duration_since(c.last_active) > idle_timeout)
                .map(|(&token, _)| token)
                .collect();
            for token in stale {
                if let Some(conn) = conns.remove(&token) {
                    let _ = ctl(epfd, EPOLL_CTL_DEL, conn.stream.as_raw_fd(), 0, 0);
                    drop(conn);
                    active.fetch_sub(1, Ordering::SeqCst);
                    obs::CONNECTIONS.dec();
                    obs::IDLE_TIMEOUT_KILLS.inc();
                }
            }
        }
        // Half-open scrapes get a fixed, short leash.
        if !https.is_empty() {
            let now = Instant::now();
            let stale: Vec<u64> = https
                .iter()
                .filter(|(_, c)| now.duration_since(c.last_active) > HTTP_IDLE_TIMEOUT)
                .map(|(&token, _)| token)
                .collect();
            for token in stale {
                if let Some(conn) = https.remove(&token) {
                    let _ = ctl(epfd, EPOLL_CTL_DEL, conn.stream.as_raw_fd(), 0, 0);
                }
            }
        }
    }
    // Shutdown (or a broken epoll): the server is going away under the
    // remaining clients, so their sessions are *parked*, not closed —
    // on a durable server each namespace survives the restart and its
    // client can `attach` back to it (the contract
    // `tests/durability_e2e.rs` pins for SIGTERM).
    for (_, conn) in conns.drain() {
        let _ = ctl(epfd, EPOLL_CTL_DEL, conn.stream.as_raw_fd(), 0, 0);
        let Conn { session, .. } = conn;
        session.park();
        active.fetch_sub(1, Ordering::SeqCst);
        obs::CONNECTIONS.dec();
    }
    for (_, conn) in https.drain() {
        let _ = ctl(epfd, EPOLL_CTL_DEL, conn.stream.as_raw_fd(), 0, 0);
    }
    drop(metrics);
    unsafe {
        close(epfd);
    }
}

/// Puts a freshly admitted socket under epoll: non-blocking mode, a new
/// session, the greeting queued (and opportunistically flushed). Returns
/// `None` when the socket is already unusable.
fn register(epfd: i32, stream: TcpStream, service: &Arc<IcdbService>) -> Option<(u64, Conn)> {
    stream.set_nonblocking(true).ok()?;
    let session = service.open_session();
    let mut conn = Conn {
        stream,
        session,
        rbuf: Vec::new(),
        wbuf: Vec::new(),
        wpos: 0,
        closing: false,
        armed_out: false,
        last_active: Instant::now(),
    };
    conn.wbuf.extend_from_slice(
        format!("OK icdbd ready (session ns{})\n", conn.session.ns().raw()).as_bytes(),
    );
    conn.flush().ok()?;
    conn.armed_out = conn.wpos < conn.wbuf.len();
    let fd = conn.stream.as_raw_fd();
    ctl(epfd, EPOLL_CTL_ADD, fd, conn.interest(), fd as u64).ok()?;
    Some((fd as u64, conn))
}

// ------------------------------------------------------------ acceptor

/// The event-loop server: a blocking acceptor enforcing the admission
/// cap, fanning admitted sockets round-robin over `workers` epoll
/// workers. Returns only after every worker has exited — live sessions
/// are parked (namespaces kept for post-restart reattach) and every
/// enqueued commit is on the group-commit queue, which the caller's
/// checkpoint then drains before snapshotting.
pub(crate) fn serve(
    listener: TcpListener,
    service: Arc<IcdbService>,
    max_connections: usize,
    workers: usize,
    idle_timeout: Duration,
    shutdown: Arc<AtomicBool>,
    metrics: Option<TcpListener>,
) -> io::Result<()> {
    let active = Arc::new(AtomicUsize::new(0));
    let mut inboxes: Vec<Arc<Inbox>> = Vec::with_capacity(workers);
    let mut handles = Vec::with_capacity(workers);
    // Worker 0 multiplexes the metrics listener alongside its CQL share.
    let mut metrics = metrics;
    for _ in 0..workers.max(1) {
        let wake_fd = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
        if wake_fd < 0 {
            let err = io::Error::last_os_error();
            shutdown.store(true, Ordering::SeqCst);
            for inbox in &inboxes {
                ring(inbox.wake_fd);
            }
            join_workers(&inboxes, handles);
            return Err(err);
        }
        let inbox = Arc::new(Inbox {
            streams: Mutex::new(Vec::new()),
            wake_fd,
        });
        inboxes.push(Arc::clone(&inbox));
        let service = Arc::clone(&service);
        let shutdown = Arc::clone(&shutdown);
        let active = Arc::clone(&active);
        let metrics = metrics.take();
        handles.push(std::thread::spawn(move || {
            worker_loop(inbox, service, idle_timeout, shutdown, active, metrics)
        }));
    }
    let mut next = 0usize;
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        // A transient accept failure (ECONNABORTED, fd exhaustion under
        // load) must not take down every live session: log, back off a
        // beat, keep accepting.
        let stream = match stream {
            Ok(stream) => stream,
            Err(e) => {
                olog::warn(
                    "net",
                    "accept failed (continuing)",
                    &[("error", olog::Value::Str(&e.to_string()))],
                );
                std::thread::sleep(std::time::Duration::from_millis(10));
                continue;
            }
        };
        // Admission policy: refuse politely instead of queueing forever.
        // `active` counts every admitted, not-yet-closed connection.
        if active.fetch_add(1, Ordering::SeqCst) >= max_connections {
            active.fetch_sub(1, Ordering::SeqCst);
            let mut s = stream;
            let _ = writeln!(
                s,
                "ERR {} server at connection capacity ({})",
                ErrCode::Capacity.as_str(),
                max_connections
            );
            continue;
        }
        obs::CONNECTIONS_ACCEPTED.inc();
        obs::CONNECTIONS.inc();
        let inbox = &inboxes[next % inboxes.len()];
        next = next.wrapping_add(1);
        lock_streams(inbox).push(stream);
        ring(inbox.wake_fd);
    }
    shutdown.store(true, Ordering::SeqCst);
    for inbox in &inboxes {
        ring(inbox.wake_fd);
    }
    join_workers(&inboxes, handles);
    Ok(())
}

fn join_workers(inboxes: &[Arc<Inbox>], handles: Vec<std::thread::JoinHandle<()>>) {
    for handle in handles {
        let _ = handle.join();
    }
    for inbox in inboxes {
        unsafe {
            close(inbox.wake_fd);
        }
    }
}
