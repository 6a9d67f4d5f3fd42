//! The epoll event loop behind [`crate::net::Server`] — its only serve
//! path, which makes `icdbd` Linux-only: thousands of connections
//! multiplexed over a small worker pool.
//!
//! A blocking acceptor claims an admission `Slot` for each socket (the
//! connection cap is pure admission policy, not a thread budget) and
//! hands socket and slot round-robin to a worker. Every worker owns a
//! private `epoll` instance, an `eventfd` wake channel, and one map of
//! connections keyed by fd. A `Conn` is the one connection state machine
//! for everything icdbd serves: a read buffer cut into frames, a write
//! buffer drained as the socket accepts bytes, and an idle clock. What it
//! speaks is data, a `Proto`: a CQL client with its
//! [`Session`](icdb_core::Session) and slot, or a Prometheus scrape on
//! worker 0's `--metrics-addr` listener.
//!
//! A connection starts closing after `quit`, EOF, an oversize frame or a
//! scrape's answer. From then on it reads nothing (lines pipelined after
//! `quit` are discarded) and only drains its output. Dropping a `Conn`
//! drops the session, which deletes its namespace, and then the slot,
//! which gives the capacity back — on every path: close, idle reap,
//! failed registration, or a worker that unwinds. No `libc` crate: the
//! syscalls are declared as raw externs, per the repo's no-dependency
//! policy.
//!
//! Commands still execute synchronously on the owning worker, so one
//! long cold generation stalls that worker's other connections (not the
//! whole server) — acceptable because the service's epoch snapshots and
//! group-commit keep individual commands short; the worker count
//! ([`crate::net::DEFAULT_WORKERS`], `icdbd --workers`) bounds the
//! blast radius.

use crate::net::{dispatch_line, escape, http_metrics_response, ErrCode, MAX_LINE};
use icdb_core::{IcdbService, Session};
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

/// A metrics scrape left half-open longer than this is dropped (the CQL
/// idle sweep is configurable; scrapes have no business being slow).
const HTTP_IDLE_TIMEOUT: Duration = Duration::from_secs(10);

/// Longest request head a metrics scrape may send.
const HTTP_MAX_HEAD: usize = 8 * 1024;

/// One unit of the connection cap. The acceptor claims it, the inbox
/// carries it with the socket, and the connection owns it. Its `Drop` is
/// the only place `active` and `icdb_connections` go down.
struct Slot(Arc<AtomicUsize>);

impl Slot {
    /// Claims a slot, or `None` when `max` are already held.
    fn claim(active: &Arc<AtomicUsize>, max: usize) -> Option<Slot> {
        active
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < max).then_some(n + 1)
            })
            .ok()?;
        obs::CONNECTIONS.inc();
        Some(Slot(Arc::clone(active)))
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
        obs::CONNECTIONS.dec();
    }
}

/// What a connection speaks.
enum Proto {
    /// A CQL client: its session (dropped first, which deletes the
    /// namespace) and the admission slot it holds, never read, only
    /// dropped.
    Cql(Session, #[allow(dead_code)] Slot),
    /// A metrics scrape: one HTTP/1.0 request head in, the exposition
    /// out, then close. Scrapes are not admission-capped.
    Http,
}

struct Conn {
    stream: TcpStream,
    proto: Proto,
    rbuf: Vec<u8>,
    /// Leading bytes of `rbuf` already searched for a newline, so a line
    /// that arrives in many chunks is scanned once, not once per chunk.
    scanned: usize,
    wbuf: Vec<u8>,
    /// Bytes of `wbuf` already written to the socket.
    wpos: usize,
    /// Read nothing more; flush what is buffered, then close.
    closing: bool,
    /// The interest set currently registered with epoll.
    registered: u32,
    /// When bytes last moved either way (the idle-sweep clock).
    last_active: Instant,
}

impl Conn {
    /// Puts a socket under epoll: non-blocking mode, and for CQL the
    /// greeting queued (and opportunistically flushed). Returns `None` —
    /// dropping the connection, slot included — when the socket is
    /// already unusable.
    fn register(epfd: i32, stream: TcpStream, proto: Proto) -> Option<(u64, Conn)> {
        stream.set_nonblocking(true).ok()?;
        let wbuf = match &proto {
            Proto::Cql(session, _) => {
                format!("OK icdbd ready (session ns{})\n", session.ns().raw()).into_bytes()
            }
            Proto::Http => Vec::new(),
        };
        let mut conn = Conn {
            stream,
            proto,
            rbuf: Vec::new(),
            scanned: 0,
            wbuf,
            wpos: 0,
            closing: false,
            registered: 0,
            last_active: Instant::now(),
        };
        conn.flush().ok()?;
        conn.registered = conn.interest();
        let fd = conn.stream.as_raw_fd();
        ctl(epfd, EPOLL_CTL_ADD, fd, conn.registered, fd as u64).ok()?;
        Some((fd as u64, conn))
    }

    /// Input until the connection starts closing, output while some is
    /// unwritten. Dropping the input interest matters: level-triggered
    /// epoll would otherwise report a peer that keeps writing after
    /// `quit` on every wait.
    fn interest(&self) -> u32 {
        let mut interest = if self.closing {
            0
        } else {
            EPOLLIN | EPOLLRDHUP
        };
        if self.wpos < self.wbuf.len() {
            interest |= EPOLLOUT;
        }
        interest
    }

    /// Drains as much of `wbuf` as the socket accepts right now.
    fn flush(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.wpos += n;
                    self.last_active = Instant::now();
                }
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
    /// more than one frame may ([`MAX_LINE`] for CQL, [`HTTP_MAX_HEAD`]
    /// for a scrape) — level-triggered epoll reports the rest on the next
    /// wakeup, so a peer that keeps the socket readable cannot grow the
    /// buffer without bound. Returns whether the peer closed its end.
    fn fill(&mut self) -> io::Result<bool> {
        let cap = match self.proto {
            Proto::Cql(..) => MAX_LINE,
            Proto::Http => HTTP_MAX_HEAD,
        };
        let mut chunk = [0u8; 16 * 1024];
        while self.rbuf.len() <= cap {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(true),
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    self.last_active = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(false)
    }

    /// Answers what `rbuf` frames: one response per complete CQL line
    /// (a line longer than [`MAX_LINE`] is refused), or the exposition
    /// for a complete scrape head. Starts closing on `quit`, an oversize
    /// line, a scrape's answer, or `eof`. Returns `false` when the
    /// connection must be dropped at once: a scrape head that is too
    /// long or can never complete.
    fn answer(&mut self, eof: bool, service: &IcdbService) -> bool {
        match &mut self.proto {
            Proto::Cql(session, _) => {
                while let Some(len) = self.rbuf[self.scanned..].iter().position(|&b| b == b'\n') {
                    let pos = self.scanned + len;
                    self.scanned = 0;
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
                        return true;
                    }
                    match dispatch_line(session, line) {
                        Ok(reply) => self.wbuf.extend_from_slice(reply.render().as_bytes()),
                        Err((code, message)) => self.wbuf.extend_from_slice(
                            format!("ERR {} {}\n", code.as_str(), escape(&message)).as_bytes(),
                        ),
                    }
                }
                self.scanned = self.rbuf.len();
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
            Proto::Http => {
                let head_complete = self.rbuf.windows(2).any(|w| w == b"\n\n")
                    || self.rbuf.windows(4).any(|w| w == b"\r\n\r\n");
                if head_complete {
                    let text = String::from_utf8_lossy(&self.rbuf);
                    let request_line = text.lines().next().unwrap_or_default();
                    self.wbuf = http_metrics_response(service, request_line);
                    self.closing = true;
                } else if self.rbuf.len() > HTTP_MAX_HEAD || eof {
                    // With the head incomplete at EOF no response can ever
                    // be produced (LB/k8s connect-then-close health probes
                    // land here).
                    return false;
                }
            }
        }
        self.closing |= eof;
        true
    }

    /// Reacts to one readiness report. Returns `true` when the
    /// connection is finished and must be deregistered and dropped.
    fn handle(&mut self, events: u32, epfd: i32, service: &IcdbService) -> bool {
        if events & EPOLLERR != 0 {
            return true;
        }
        if !self.closing && events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 {
            match self.fill() {
                Ok(eof) if self.answer(eof, service) => {}
                _ => return true,
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
        let interest = self.interest();
        if self.closing && interest == 0 {
            return true;
        }
        if interest != self.registered {
            self.registered = interest;
            let fd = self.stream.as_raw_fd();
            if ctl(epfd, EPOLL_CTL_MOD, fd, interest, fd as u64).is_err() {
                return true;
            }
        }
        false
    }

    /// How long the connection may stay silent before the idle sweep
    /// reaps it: `--idle-timeout` for CQL (`None` when that is zero), a
    /// fixed leash for scrapes.
    fn idle_limit(&self, idle_timeout: Duration) -> Option<Duration> {
        match self.proto {
            Proto::Cql(..) => (idle_timeout > Duration::ZERO).then_some(idle_timeout),
            Proto::Http => Some(HTTP_IDLE_TIMEOUT),
        }
    }

    fn deregister(&self, epfd: i32) {
        let _ = ctl(epfd, EPOLL_CTL_DEL, self.stream.as_raw_fd(), 0, 0);
    }
}

// --------------------------------------------------------- worker pool

/// The acceptor → worker handoff channel: admitted sockets, each with its
/// slot, parked here until the worker's eventfd wakes it.
struct Inbox {
    streams: Mutex<Vec<(TcpStream, Slot)>>,
    wake_fd: i32,
}

fn lock_streams(inbox: &Inbox) -> std::sync::MutexGuard<'_, Vec<(TcpStream, Slot)>> {
    inbox.streams.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One worker: a private epoll instance multiplexing its share of the
/// connections until shutdown. Worker 0 additionally owns the optional
/// metrics HTTP listener; its scrapes join the same connection map.
fn worker_loop(
    inbox: Arc<Inbox>,
    service: Arc<IcdbService>,
    idle_timeout: Duration,
    shutdown: Arc<AtomicBool>,
    metrics: Option<TcpListener>,
) {
    let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
    if epfd < 0 {
        return;
    }
    let mut conns: HashMap<u64, Conn> = HashMap::new();
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
                let fresh: Vec<(TcpStream, Slot)> = lock_streams(&inbox).drain(..).collect();
                for (stream, slot) in fresh {
                    let proto = Proto::Cql(service.open_session(), slot);
                    conns.extend(Conn::register(epfd, stream, proto));
                }
                continue;
            }
            if token == METRICS_TOKEN {
                if let Some(listener) = metrics.as_ref() {
                    loop {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                conns.extend(Conn::register(epfd, stream, Proto::Http));
                            }
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(_) => break,
                        }
                    }
                }
                continue;
            }
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            if conn.handle(readiness, epfd, &service) {
                if let Some(conn) = conns.remove(&token) {
                    conn.deregister(epfd);
                }
            }
        }
        // Idle sweep, on the epoll tick (`WAIT_TIMEOUT_MS`): a connection
        // silent past its limit is treated exactly like a disconnect — a
        // CQL session drops and its namespace is deleted.
        let now = Instant::now();
        conns.retain(|_, conn| {
            let idle = conn
                .idle_limit(idle_timeout)
                .is_some_and(|limit| now.duration_since(conn.last_active) > limit);
            if idle {
                if let Proto::Cql(..) = conn.proto {
                    obs::IDLE_TIMEOUT_KILLS.inc();
                }
                conn.deregister(epfd);
            }
            !idle
        });
    }
    // Shutdown (or a broken epoll): the server is going away under the
    // remaining clients, so their sessions are *parked*, not closed —
    // on a durable server each namespace survives the restart and its
    // client can `attach` back to it (the contract
    // `tests/durability_e2e.rs` pins for SIGTERM).
    for (_, conn) in conns.drain() {
        conn.deregister(epfd);
        if let Proto::Cql(session, _) = conn.proto {
            session.park();
        }
    }
    drop(metrics);
    unsafe {
        close(epfd);
    }
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
        let metrics = metrics.take();
        handles.push(std::thread::spawn(move || {
            worker_loop(inbox, service, idle_timeout, shutdown, metrics)
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
        let Some(slot) = Slot::claim(&active, max_connections) else {
            let mut s = stream;
            let _ = writeln!(
                s,
                "ERR {} server at connection capacity ({})",
                ErrCode::Capacity.as_str(),
                max_connections
            );
            continue;
        };
        obs::CONNECTIONS_ACCEPTED.inc();
        let inbox = &inboxes[next % inboxes.len()];
        next = next.wrapping_add(1);
        lock_streams(inbox).push((stream, slot));
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
