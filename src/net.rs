//! `icdbd` — the line-oriented TCP server speaking CQL, and its client.
//!
//! The paper's `ICDB("command:…", &vars)` is a C function call; this
//! module puts the same calls on a socket so many synthesis tools can
//! share one component database. Each connection gets its own
//! [`Session`](icdb_core::Session) (isolated instance namespace over the
//! shared knowledge base). The server multiplexes all connections over a
//! small epoll worker pool (see `crate::event_loop`), so it is
//! Linux-only: the connection cap is pure admission policy, not a thread
//! budget, so thousands of concurrent clients are fine.
//!
//! ## Wire protocol
//!
//! One request per line, one response per request. All text fields are
//! escaped (`\\`, `\n`, `\t`, `\r`, and `\u{1f}` → `\u`), so commands and
//! answers may span "lines" logically while staying line-framed on the
//! wire.
//!
//! **Request** — the escaped CQL command, then one tab-separated typed
//! field per `%` input slot, in slot order:
//!
//! ```text
//! command:request_component; component_name:counter; attribute:(size:5); generated_component:?s
//! command:instance_query; generated_component:%s; delay:?s<TAB>s:counter$1
//! quit
//! ```
//!
//! Input fields are `s:<text>`, `d:<int>`, `r:<real>` or `l:<items>`
//! (string list, items separated by `\u{1f}`). The bare word `quit` (or
//! `exit`) closes the connection.
//!
//! **Response** — `ERR <code> <message>`, or `OK <n>` followed by `n`
//! lines, one per `?` output slot in slot order, each `<type> <value>`
//! with the same typing (`S`/`D`/`R` for `?s[]`/`?d[]`/`?r[]` lists):
//!
//! ```text
//! OK 1
//! s counter$1
//! ```
//!
//! The `ERR` code is machine-readable ([`ErrCode`]): `capacity` (the
//! connection cap refused the client), `parse` (the request line itself
//! is malformed — bad escapes, bad slot syntax, field/slot mismatch),
//! `cql` (the command executed and failed) or `readonly` (the server is
//! degraded after a durability fault and refuses commits). [`IcdbClient`]
//! maps them onto distinct [`IcdbError`] variants —
//! [`IcdbError::Unsupported`], [`IcdbError::Parse`], [`IcdbError::Cql`]
//! and [`IcdbError::ReadOnly`] respectively — so callers can tell refusal
//! from query failure.
//!
//! Acks for *mutating* commands carry the session namespace's commit
//! sequence in the header — `OK <n> commit:<seq>` — and an `attach`
//! response reports it as a second output line (`d <seq>`). Together they
//! let a client that lost a connection mid-commit reconnect, re-attach,
//! and tell "my commit applied, the ack was lost" from "my commit never
//! happened" (see [`RetryPolicy`]).
//!
//! [`IcdbClient::execute`] mirrors [`crate::Icdb::execute`] exactly — the
//! same command strings and the same `&mut [CqlArg]` calling convention —
//! so code written against the embedded API ports to the socket by
//! swapping the receiver.

use icdb_core::{IcdbError, IcdbService};
use icdb_cql::{
    bind_outputs, command_spec, parse_command, scan_slots, CommandSpec, CqlArg, SlotSpec, SlotType,
    COMMANDS,
};
use icdb_obs::log as olog;
use icdb_obs::metrics as obs;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default TCP port of `icdbd`.
pub const DEFAULT_PORT: u16 = 7433;

/// Default connection cap.
pub const DEFAULT_MAX_CONNECTIONS: usize = 32;

/// Default size of the epoll worker pool (`icdbd --workers`). Each
/// worker owns a private epoll instance and its share of the
/// connections; commands execute synchronously on the owning worker.
pub const DEFAULT_WORKERS: usize = 4;

/// Separator for list items inside one wire field.
const LIST_SEP: char = '\u{1f}';

/// A request line longer than this is refused: it is either a protocol
/// violation or a hostile stream, and buffering it unbounded would let
/// one connection exhaust the server.
pub const MAX_LINE: usize = 32 * 1024 * 1024;

/// Machine-readable reason code carried as the first word of an `ERR`
/// response line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// The connection cap refused the client before a session opened.
    Capacity,
    /// The request line is malformed (escaping, slot syntax, or
    /// field/slot arity) — the command never reached the executor.
    Parse,
    /// The command executed and failed (unknown command, missing
    /// instance, generation error, …).
    Cql,
    /// The server is read-only degraded (a durability fault latched) and
    /// refuses commits until an operator re-arms it (`persist
    /// checkpoint:1` against a healthy dir, or `persist clear_fault:1`).
    Readonly,
    /// The server is a replication follower and refuses direct mutations;
    /// send them to the primary (`persist upstream:?s` names it, or
    /// `hello` reports the role up front).
    NotPrimary,
}

impl ErrCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrCode::Capacity => "capacity",
            ErrCode::Parse => "parse",
            ErrCode::Cql => "cql",
            ErrCode::Readonly => "readonly",
            ErrCode::NotPrimary => "not_primary",
        }
    }

    /// Parses the wire spelling back.
    pub fn from_wire(word: &str) -> Option<ErrCode> {
        match word {
            "capacity" => Some(ErrCode::Capacity),
            "parse" => Some(ErrCode::Parse),
            "cql" => Some(ErrCode::Cql),
            "readonly" => Some(ErrCode::Readonly),
            "not_primary" => Some(ErrCode::NotPrimary),
            _ => None,
        }
    }
}

/// The wire code for a server-side execution error: `readonly` for
/// degraded-mode refusals, `cql` for everything else.
fn err_code_of(e: &IcdbError) -> ErrCode {
    match e {
        IcdbError::ReadOnly(_) => ErrCode::Readonly,
        IcdbError::NotPrimary(_) => ErrCode::NotPrimary,
        _ => ErrCode::Cql,
    }
}

/// Decodes the remainder of an `ERR ` line into the matching error
/// variant: `capacity` → [`IcdbError::Unsupported`], `parse` →
/// [`IcdbError::Parse`], `readonly` → [`IcdbError::ReadOnly`], `cql`
/// (and unknown codes, for forward compatibility) → [`IcdbError::Cql`].
fn decode_err(rest: &str) -> IcdbError {
    let (word, body) = rest.split_once(' ').unwrap_or((rest, ""));
    let message = unescape(body).unwrap_or_else(|_| body.to_string());
    match ErrCode::from_wire(word) {
        Some(ErrCode::Capacity) => IcdbError::Unsupported(message),
        Some(ErrCode::Parse) => IcdbError::Parse(message),
        Some(ErrCode::Cql) => IcdbError::Cql(message),
        Some(ErrCode::Readonly) => IcdbError::ReadOnly(message),
        Some(ErrCode::NotPrimary) => IcdbError::NotPrimary(message),
        None => IcdbError::Cql(unescape(rest).unwrap_or_else(|_| rest.to_string())),
    }
}

// ------------------------------------------------------------- escaping

/// Escapes a text field for the line protocol.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            LIST_SEP => out.push_str("\\u"),
            c => out.push(c),
        }
    }
    out
}

/// Reverses [`escape`].
///
/// # Errors
/// Fails on dangling or unknown escape sequences.
pub fn unescape(text: &str) -> Result<String, String> {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('u') => out.push(LIST_SEP),
            other => return Err(format!("bad escape `\\{}`", other.unwrap_or(' '))),
        }
    }
    Ok(out)
}

// Every item is followed by a separator (not just joined), so the empty
// list ("") and a one-element list of the empty string ("\u{1f}") stay
// distinct on the wire.
fn encode_list(items: &[String]) -> String {
    let mut out = String::new();
    for item in items {
        out.push_str(&escape(item));
        out.push(LIST_SEP);
    }
    out
}

fn decode_list(field: &str) -> Result<Vec<String>, String> {
    if field.is_empty() {
        return Ok(Vec::new());
    }
    let body = field
        .strip_suffix(LIST_SEP)
        .ok_or_else(|| "unterminated list field".to_string())?;
    body.split(LIST_SEP).map(unescape).collect()
}

// ------------------------------------------------------ arg (de)coding

/// Encodes one input argument as a typed wire field.
fn encode_input(arg: &CqlArg) -> Option<String> {
    match arg {
        CqlArg::InStr(s) => Some(format!("s:{}", escape(s))),
        CqlArg::InInt(v) => Some(format!("d:{v}")),
        CqlArg::InReal(v) => Some(format!("r:{v}")),
        CqlArg::InStrList(v) => Some(format!("l:{}", encode_list(v))),
        _ => None,
    }
}

/// Decodes one typed wire field into an input argument.
fn decode_input(field: &str) -> Result<CqlArg, String> {
    let (ty, body) = field
        .split_once(':')
        .ok_or_else(|| format!("input field `{field}` lacks a type prefix"))?;
    match ty {
        "s" => Ok(CqlArg::InStr(unescape(body)?)),
        "d" => Ok(CqlArg::InInt(
            body.parse().map_err(|_| format!("bad integer `{body}`"))?,
        )),
        "r" => Ok(CqlArg::InReal(
            body.parse().map_err(|_| format!("bad real `{body}`"))?,
        )),
        "l" => Ok(CqlArg::InStrList(decode_list(body)?)),
        other => Err(format!("unknown input type `{other}`")),
    }
}

/// Fresh (None) output argument for a scanned slot.
fn blank_output(spec: SlotSpec) -> CqlArg {
    match (spec.ty, spec.array) {
        (SlotType::Int, false) => CqlArg::OutInt(None),
        (SlotType::Real, false) => CqlArg::OutReal(None),
        (SlotType::Int, true) => CqlArg::OutIntList(None),
        (SlotType::Real, true) => CqlArg::OutRealList(None),
        (_, true) => CqlArg::OutStrList(None),
        _ => CqlArg::OutStr(None),
    }
}

/// Encodes one filled output argument as a response line.
fn encode_output(arg: &CqlArg) -> String {
    match arg {
        CqlArg::OutStr(Some(s)) => format!("s {}", escape(s)),
        CqlArg::OutInt(Some(v)) => format!("d {v}"),
        CqlArg::OutReal(Some(v)) => format!("r {v}"),
        CqlArg::OutStrList(Some(v)) => format!("S {}", encode_list(v)),
        CqlArg::OutIntList(Some(v)) => format!(
            "D {}",
            v.iter()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(&LIST_SEP.to_string())
        ),
        CqlArg::OutRealList(Some(v)) => format!(
            "R {}",
            v.iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join(&LIST_SEP.to_string())
        ),
        _ => "-".to_string(),
    }
}

/// Whether an argument is a `?` output slot (answered by one response
/// line) rather than a `%` input.
fn is_output(arg: &CqlArg) -> bool {
    matches!(
        arg,
        CqlArg::OutStr(_)
            | CqlArg::OutInt(_)
            | CqlArg::OutReal(_)
            | CqlArg::OutStrList(_)
            | CqlArg::OutIntList(_)
            | CqlArg::OutRealList(_)
    )
}

/// Writes a decoded response line back into the client's output argument.
fn decode_output(line: &str, arg: &mut CqlArg) -> Result<(), String> {
    if line == "-" {
        return Ok(()); // slot left unfilled by the executor
    }
    let (ty, body) = line
        .split_once(' ')
        .ok_or_else(|| format!("malformed output line `{line}`"))?;
    match (ty, arg) {
        ("s", CqlArg::OutStr(slot)) => *slot = Some(unescape(body)?),
        ("d", CqlArg::OutInt(slot)) => {
            *slot = Some(body.parse().map_err(|_| format!("bad integer `{body}`"))?)
        }
        ("r", CqlArg::OutReal(slot)) => {
            *slot = Some(body.parse().map_err(|_| format!("bad real `{body}`"))?)
        }
        ("S", CqlArg::OutStrList(slot)) => *slot = Some(decode_list(body)?),
        ("D", CqlArg::OutIntList(slot)) => {
            let mut out = Vec::new();
            for item in body.split(LIST_SEP).filter(|s| !s.is_empty()) {
                out.push(item.parse().map_err(|_| format!("bad integer `{item}`"))?);
            }
            *slot = Some(out);
        }
        ("R", CqlArg::OutRealList(slot)) => {
            let mut out = Vec::new();
            for item in body.split(LIST_SEP).filter(|s| !s.is_empty()) {
                out.push(item.parse().map_err(|_| format!("bad real `{item}`"))?);
            }
            *slot = Some(out);
        }
        (ty, arg) => return Err(format!("output type `{ty}` does not fit argument {arg:?}")),
    }
    Ok(())
}

// --------------------------------------------------------------- server

/// The `icdbd` TCP server: an [`IcdbService`] behind a line-oriented CQL
/// protocol, one session per connection, bounded by an admission cap, all
/// connections served from an epoll worker pool.
pub struct Server {
    listener: TcpListener,
    service: Arc<IcdbService>,
    max_connections: usize,
    workers: usize,
    idle_timeout: Duration,
    shutdown: Arc<AtomicBool>,
    /// When set, a plaintext HTTP/1.0 listener serving the Prometheus
    /// text exposition at `GET /metrics` (`icdbd --metrics-addr`).
    metrics: Option<TcpListener>,
}

/// Handle to a server running on a background thread (see
/// [`Server::spawn`]).
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    join: Option<JoinHandle<io::Result<()>>>,
}

impl ServerHandle {
    /// Address the server is accepting on (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the accept loop to stop and waits for it.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.join.is_some() {
            self.stop();
        }
    }
}

impl Server {
    /// Binds a server for `service` on `addr` (use port 0 for an
    /// ephemeral port).
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<IcdbService>,
        max_connections: usize,
    ) -> io::Result<Server> {
        Server::bind_with(addr, service, max_connections, DEFAULT_WORKERS)
    }

    /// [`Server::bind`] with an explicit epoll worker-pool size.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        service: Arc<IcdbService>,
        max_connections: usize,
        workers: usize,
    ) -> io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            service,
            max_connections: max_connections.max(1),
            workers: workers.max(1),
            idle_timeout: Duration::ZERO,
            shutdown: Arc::new(AtomicBool::new(false)),
            metrics: None,
        })
    }

    /// Attaches an already-bound listener for the HTTP metrics endpoint
    /// (`icdbd --metrics-addr HOST:PORT`), multiplexed on the existing
    /// epoll loop (no new thread model). Every request is answered with the Prometheus text exposition of
    /// [`IcdbService::metrics_text`] and closed.
    pub fn set_metrics_listener(&mut self, listener: TcpListener) {
        self.metrics = Some(listener);
    }

    /// Address of the attached metrics listener, when one is set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// Disconnects a connection that has been silent for `timeout`
    /// (`Duration::ZERO`, the default, disables the sweep). An idle
    /// client is treated exactly like one that disconnected: its session
    /// drops and the namespace is deleted. `icdbd --idle-timeout SECS`.
    pub fn set_idle_timeout(&mut self, timeout: Duration) {
        self.idle_timeout = timeout;
    }

    /// Address the server is bound to.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the server on the current thread until shut down: the accept
    /// loop admits connections and the epoll workers serve them. Returns
    /// only after every worker exited and dropped its sessions, so a
    /// caller that checkpoints afterwards sees all namespace cleanup
    /// journaled.
    ///
    /// # Errors
    /// Propagates accept errors.
    pub fn serve(self) -> io::Result<()> {
        crate::event_loop::serve(
            self.listener,
            self.service,
            self.max_connections,
            self.workers,
            self.idle_timeout,
            self.shutdown,
            self.metrics,
        )
    }

    /// Moves the accept loop to a background thread and returns a handle
    /// carrying the bound address and a shutdown switch.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shutdown = Arc::clone(&self.shutdown);
        let join = std::thread::spawn(move || self.serve());
        Ok(ServerHandle {
            addr,
            shutdown,
            join: Some(join),
        })
    }
}

/// A successful wire response: the typed output lines, plus — for
/// mutating commands — the session namespace's commit sequence echoed in
/// the `OK <n> commit:<seq>` header so clients can detect lost acks.
pub(crate) struct Reply {
    pub(crate) lines: Vec<String>,
    pub(crate) commit: Option<u64>,
    /// Extra `key:value` header words rendered between the line count and
    /// the `commit:` word (replication replies carry cursors here).
    /// [`parse_ok_head`] skips unknown words, so old clients stay
    /// compatible.
    pub(crate) extra: Option<String>,
}

impl Reply {
    /// A plain reply: output lines only, no commit ack, no extra header.
    pub(crate) fn plain(lines: Vec<String>) -> Reply {
        Reply {
            lines,
            commit: None,
            extra: None,
        }
    }

    /// Renders the header and output lines, each newline-terminated.
    pub(crate) fn render(&self) -> String {
        let mut out = format!("OK {}", self.lines.len());
        if let Some(extra) = &self.extra {
            out.push(' ');
            out.push_str(extra);
        }
        if let Some(seq) = self.commit {
            out.push_str(&format!(" commit:{seq}"));
        }
        out.push('\n');
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }
}

/// Handles the `attach` wire command: parses `ns<N>` / `<N>` and re-binds
/// the session (ownership of the namespace transfers to this connection).
/// The response reports the attached namespace and its current commit
/// sequence (`s ns<N>`, `d <seq>`) — the seq line is what lets a
/// reconnecting client decide whether an ack-lost commit applied.
pub(crate) fn attach_session(
    session: &mut icdb_core::Session,
    target: &str,
) -> Result<Reply, (ErrCode, String)> {
    let target = target.trim();
    let raw: u64 = target
        .strip_prefix("ns")
        .unwrap_or(target)
        .parse()
        .map_err(|_| {
            (
                ErrCode::Parse,
                format!("attach needs a namespace id like `ns3`, got `{target}`"),
            )
        })?;
    let ns = icdb_core::NsId::from_raw(raw);
    session
        .attach(ns)
        .map_err(|e| (err_code_of(&e), e.to_string()))?;
    let seq = session.commit_seq();
    Ok(Reply::plain(vec![format!("s ns{raw}"), format!("d {seq}")]))
}

/// Decodes one CQL request line, executes it in the session, and encodes
/// the output lines. The command text is parsed once; `slot` is set to the
/// command's metric slot as soon as it parses. Errors carry their wire
/// reason code: decoding problems are `parse`, execution failures `cql`
/// (or `readonly` / `not_primary` when the server refuses a commit).
fn answer(
    session: &icdb_core::Session,
    line: &str,
    slot: &mut usize,
) -> Result<Reply, (ErrCode, String)> {
    let parse = |m: String| (ErrCode::Parse, m);
    let mut fields = line.split('\t');
    let command = unescape(fields.next().unwrap_or_default()).map_err(parse)?;
    let slots = scan_slots(&command).map_err(|e| parse(e.to_string()))?;
    let mut args = Vec::with_capacity(slots.len());
    for spec in slots {
        if spec.input {
            let field = fields
                .next()
                .ok_or_else(|| parse("too few input fields for the command's % slots".into()))?;
            args.push(decode_input(field).map_err(parse)?);
        } else {
            args.push(blank_output(spec));
        }
    }
    if fields.next().is_some() {
        return Err(parse("more input fields than % slots".into()));
    }
    let failed = |e: IcdbError| (err_code_of(&e), e.to_string());
    let (cmd, outs) = parse_command(&command, &args).map_err(|e| failed(e.into()))?;
    *slot = obs::command_index(&cmd.name);
    let response = session.dispatch(&cmd).map_err(failed)?;
    bind_outputs(&response, &outs, &mut args).map_err(|e| failed(e.into()))?;
    let read_only = COMMANDS.get(*slot).is_some_and(CommandSpec::read_only);
    Ok(Reply {
        lines: args
            .iter()
            .filter(|a| is_output(a))
            .map(encode_output)
            .collect(),
        commit: (!read_only).then(|| session.commit_seq()),
        extra: None,
    })
}

/// Wire protocol version reported by the `hello` command. Bump when a
/// change is not backward-compatible for old clients (new commands and
/// new `OK`-header words are compatible and do not bump it).
pub const PROTOCOL_VERSION: u64 = 1;

/// Longest long-poll a single `repl_stream` request may hold a server
/// worker (the follower re-polls to wait longer).
const MAX_STREAM_WAIT_MS: u64 = 1_000;

/// Default and maximum `wait_seq` timeouts.
const DEFAULT_WAIT_SEQ_TIMEOUT_MS: u64 = 5_000;
const MAX_WAIT_SEQ_TIMEOUT_MS: u64 = 60_000;

/// Routes one request line to its handler: a wire verb (`attach`,
/// `hello`, `wait_seq`, the replication commands) by its first word, and
/// plain CQL via [`answer`].
///
/// Every request is metered here: a per-command counter + latency
/// histogram, per-code error counters, and — past `--slow-query-ms` — a
/// WARN log line carrying the request's trace id. A request bills to the
/// verb or CQL command that ran; one that never parsed, or names no
/// command, bills to `other`. The long-poll verbs (`wait_seq`,
/// `repl_stream`) are excluded from slow-query logging: blocking is their
/// contract.
pub(crate) fn dispatch_line(
    session: &mut icdb_core::Session,
    line: &str,
) -> Result<Reply, (ErrCode, String)> {
    let trace_id = obs::next_trace_id();
    let started = Instant::now();
    let (verb, rest) = match line.split_once(' ') {
        Some((verb, rest)) => (verb, Some(rest)),
        None => (line, None),
    };
    // A wire verb bills to its own row; a CQL line bills to `other` until
    // its command parses.
    let mut slot = obs::command_index(verb);
    let result = match (verb, rest) {
        ("attach", Some(target)) => attach_session(session, target),
        ("hello", None) => hello_reply(session),
        ("wait_seq", Some(rest)) => wait_seq_reply(session, rest),
        ("repl_snapshot", None) => repl_snapshot_reply(session),
        ("repl_stream", rest) => repl_stream_reply(session, rest.unwrap_or_default()),
        _ => {
            slot = obs::command_index("other");
            answer(session, line, &mut slot)
        }
    };
    let elapsed = started.elapsed();
    obs::REQUESTS[slot].inc();
    obs::REQUEST_LATENCY_US[slot].record(elapsed.as_micros().try_into().unwrap_or(u64::MAX));
    if let Err((code, _)) = &result {
        obs::ERRORS[obs::error_index(code.as_str())].inc();
    }
    let name = obs::command_label(slot);
    let threshold = obs::slow_query_threshold_ms();
    let elapsed_ms = u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX);
    if threshold > 0 && elapsed_ms >= threshold && name != "wait_seq" && name != "repl_stream" {
        obs::SLOW_QUERIES.inc();
        olog::warn(
            "net",
            "slow query",
            &[
                ("trace_id", olog::Value::U64(trace_id)),
                ("command", olog::Value::Str(name)),
                ("ns", olog::Value::U64(session.ns().raw())),
                ("ms", olog::Value::U64(elapsed_ms)),
                ("ok", olog::Value::Bool(result.is_ok())),
            ],
        );
    }
    result
}

/// `hello`: the versioned handshake. Replies `OK 3` + `d <protocol>` +
/// `s <role>` + `d <commit_seq>` — a client learns up front whether it is
/// talking to a `primary`, a `follower` (mutations will be refused with
/// `ERR not_primary`), or a `degraded` primary, plus the session
/// namespace's current commit sequence.
fn hello_reply(session: &icdb_core::Session) -> Result<Reply, (ErrCode, String)> {
    Ok(Reply::plain(vec![
        format!("d {PROTOCOL_VERSION}"),
        format!("s {}", session.service().role()),
        format!("d {}", session.commit_seq()),
    ]))
}

/// `wait_seq <seq> [timeout_ms]`: blocks until the session namespace's
/// commit sequence reaches `seq`, then replies `OK 1` + `d <seq>`. On a
/// follower the sequence advances as replicated events apply, so this is
/// the read-your-writes barrier: a client that saw `commit:<S>` acked by
/// the primary calls `wait_seq S` on the follower before reading there.
/// Times out with `ERR cql` after `timeout_ms` (default 5000, max 60000).
fn wait_seq_reply(session: &icdb_core::Session, rest: &str) -> Result<Reply, (ErrCode, String)> {
    let parse = |m: String| (ErrCode::Parse, m);
    let mut words = rest.split_whitespace();
    let target: u64 = words
        .next()
        .and_then(|w| w.parse().ok())
        .ok_or_else(|| parse(format!("wait_seq needs a sequence number, got `{rest}`")))?;
    let timeout_ms: u64 = match words.next() {
        Some(w) => w
            .parse()
            .map_err(|_| parse(format!("bad wait_seq timeout `{w}`")))?,
        None => DEFAULT_WAIT_SEQ_TIMEOUT_MS,
    };
    if words.next().is_some() {
        return Err(parse("wait_seq takes `<seq> [timeout_ms]`".into()));
    }
    let timeout = Duration::from_millis(timeout_ms.min(MAX_WAIT_SEQ_TIMEOUT_MS));
    let deadline = std::time::Instant::now() + timeout;
    loop {
        let seq = session.commit_seq();
        if seq >= target {
            return Ok(Reply::plain(vec![format!("d {seq}")]));
        }
        if std::time::Instant::now() >= deadline {
            return Err((
                ErrCode::Cql,
                format!("wait_seq {target} timed out after {timeout_ms}ms at seq {seq}"),
            ));
        }
        std::thread::sleep(Duration::from_millis(3));
    }
}

/// `repl_snapshot`: serves a follower bootstrap image. The header is
/// `OK <1+R> gen:<G> seq:<S> epoch:<E>`; line 1 is the hex-encoded
/// snapshot payload of generation `G` (empty when none was written yet),
/// followed by `R` hex-encoded WAL records — the durable tail beyond the
/// snapshot. `S` is the durable WAL sequence the image covers: the
/// follower streams `repl_stream from:S` next. `E` is the primary's boot
/// epoch (WAL sequences are process-local; a changed epoch invalidates a
/// follower's cursor).
fn repl_snapshot_reply(session: &icdb_core::Session) -> Result<Reply, (ErrCode, String)> {
    let snap = session
        .service()
        .repl_snapshot()
        .map_err(|e| (err_code_of(&e), e.to_string()))?;
    let mut lines = Vec::with_capacity(1 + snap.wal_tail.len());
    lines.push(format!("s {}", hex_encode(&snap.snapshot)));
    for record in &snap.wal_tail {
        lines.push(format!("s {}", hex_encode(record)));
    }
    Ok(Reply {
        lines,
        commit: None,
        extra: Some(format!(
            "gen:{} seq:{} epoch:{}",
            snap.generation, snap.durable_seq, snap.epoch
        )),
    })
}

/// `repl_stream [from:<S>] [max:<N>] [wait_ms:<T>]`: long-polls the
/// primary's replication feed for durable events after sequence `S`.
/// The header is `OK <k> seq:<D> epoch:<E>` — `D` the primary's durable
/// sequence, `E` its boot epoch — followed by `k` lines `e <seq> <hex>`,
/// one fsynced [`icdb_core::MutationEvent`] payload each, in sequence
/// order. An empty reply after `wait_ms` means "caught up"; `D` jumping
/// past `S` with no events means the gap was never durable (a cleared
/// fault) and the follower skips its cursor forward. Requesting pruned
/// history is an `ERR cql … replication history pruned …` — re-bootstrap.
fn repl_stream_reply(session: &icdb_core::Session, rest: &str) -> Result<Reply, (ErrCode, String)> {
    let parse = |m: String| (ErrCode::Parse, m);
    let mut from = 0u64;
    let mut max = 512usize;
    let mut wait_ms = 0u64;
    for word in rest.split_whitespace() {
        if let Some(v) = word.strip_prefix("from:") {
            from = v
                .parse()
                .map_err(|_| parse(format!("bad repl_stream from `{v}`")))?;
        } else if let Some(v) = word.strip_prefix("max:") {
            max = v
                .parse()
                .map_err(|_| parse(format!("bad repl_stream max `{v}`")))?;
        } else if let Some(v) = word.strip_prefix("wait_ms:") {
            wait_ms = v
                .parse()
                .map_err(|_| parse(format!("bad repl_stream wait_ms `{v}`")))?;
        } else {
            return Err(parse(format!(
                "repl_stream takes `from:<seq> max:<n> wait_ms:<t>`, got `{word}`"
            )));
        }
    }
    let wait = Duration::from_millis(wait_ms.min(MAX_STREAM_WAIT_MS));
    let (batch, epoch) = session
        .service()
        .repl_stream(from, max.clamp(1, 4096), wait)
        .map_err(|e| (err_code_of(&e), e.to_string()))?;
    Ok(Reply {
        lines: batch
            .events
            .iter()
            .map(|(seq, payload)| format!("e {seq} {}", hex_encode(payload)))
            .collect(),
        commit: None,
        extra: Some(format!("seq:{} epoch:{epoch}", batch.durable_seq)),
    })
}

/// Lowercase-hex encodes a binary payload for a reply line. The wire
/// protocol is line-oriented UTF-8 and [`escape`] is not binary-safe, so
/// replication payloads (serialized events, snapshot images) travel as
/// hex.
pub(crate) fn hex_encode(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(HEX[usize::from(b >> 4)] as char);
        out.push(HEX[usize::from(b & 0xf)] as char);
    }
    out
}

/// Decodes a lowercase-hex payload line back into bytes.
pub(crate) fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if s.len() % 2 != 0 {
        return Err(format!("odd-length hex payload ({} chars)", s.len()));
    }
    (0..s.len() / 2)
        .map(|i| {
            u8::from_str_radix(&s[2 * i..2 * i + 2], 16)
                .map_err(|_| format!("bad hex payload at byte {i}"))
        })
        .collect()
}

// ------------------------------------------------------ metrics over HTTP

/// Builds the complete HTTP/1.0 response for one metrics-listener
/// request line. `GET /metrics` (or `GET /`) answers 200 with the
/// Prometheus text exposition of [`IcdbService::metrics_text`] — the
/// exact sample list the `metrics` CQL command renders — anything else
/// 404.
pub(crate) fn http_metrics_response(service: &IcdbService, request_line: &str) -> Vec<u8> {
    let mut words = request_line.split_whitespace();
    let method = words.next().unwrap_or_default();
    let path = words.next().unwrap_or_default();
    let (status, content_type, body) = if method == "GET" && (path == "/metrics" || path == "/") {
        (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            service.metrics_text(),
        )
    } else {
        (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found; scrape GET /metrics\n".to_string(),
        )
    };
    format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

// --------------------------------------------------------------- client

/// Timeouts and bounded-retry knobs for [`IcdbClient`].
///
/// The default policy retries transient failures — connection refused,
/// connect/read timeouts, a `capacity` refusal, a dropped connection —
/// with bounded exponential backoff and *deterministic* jitter (seeded
/// xorshift, no wall clock): give each client a distinct `jitter_seed`
/// to desynchronize a reconnect stampede, or share one in tests for
/// reproducible schedules.
///
/// Read-only commands are re-sent freely after a reconnect + re-attach.
/// Mutating commands are **never blindly re-sent**: after an ambiguous
/// drop the client re-attaches and compares the namespace's commit
/// sequence (`d <seq>` in the attach response) with the last sequence it
/// saw acked — only an unchanged sequence proves the lost command never
/// committed and makes a re-send safe.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Per-attempt TCP connect timeout (`None`: the OS default).
    pub connect_timeout: Option<Duration>,
    /// Socket read timeout (`None`: block forever).
    pub read_timeout: Option<Duration>,
    /// Socket write timeout (`None`: block forever).
    pub write_timeout: Option<Duration>,
    /// Retries after the initial attempt (0 disables retrying).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles every retry after.
    pub backoff_base: Duration,
    /// Ceiling the exponential backoff saturates at.
    pub backoff_max: Duration,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_retries: 5,
            backoff_base: Duration::from_millis(25),
            backoff_max: Duration::from_secs(2),
            jitter_seed: 0x1cdb,
        }
    }
}

impl RetryPolicy {
    /// No timeouts and no retries — [`IcdbClient::connect`]'s behaviour:
    /// every failure surfaces immediately.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            connect_timeout: None,
            read_timeout: None,
            write_timeout: None,
            max_retries: 0,
            backoff_base: Duration::ZERO,
            backoff_max: Duration::ZERO,
            jitter_seed: 0,
        }
    }

    /// The delay before retry number `attempt` (1-based): exponential
    /// from `backoff_base`, capped at `backoff_max`, jittered into the
    /// upper half of the window by a seeded xorshift — deterministic for
    /// a given (`jitter_seed`, `attempt`) pair.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self.backoff_base.saturating_mul(
            1u32.checked_shl(attempt.saturating_sub(1).min(20))
                .unwrap_or(u32::MAX),
        );
        let capped = exp.min(self.backoff_max);
        let nanos = u64::try_from(capped.as_nanos()).unwrap_or(u64::MAX);
        let half = nanos / 2;
        if half == 0 {
            return capped;
        }
        let mut x = self
            .jitter_seed
            .wrapping_add(u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            | 1;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        Duration::from_nanos(half + x % half)
    }
}

/// How one executed command failed — decides retry eligibility.
enum ExecFailure {
    /// The transport died (send or receive): the response may be lost,
    /// and for a mutating command the outcome is ambiguous.
    Net(IcdbError),
    /// The server answered (an `ERR` line, or malformed data): the
    /// outcome is known and retrying cannot change it.
    Server(IcdbError),
}

/// Where a cluster-aware client routes read-only commands.
///
/// Mutations always go to the primary regardless of this setting — only
/// the primary accepts them (followers answer `ERR not_primary`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadPreference {
    /// Every command goes to the primary (the classic single-node
    /// behaviour, and the default).
    #[default]
    Primary,
    /// Read-only commands try a configured follower first and fall back
    /// to the primary when the follower is unreachable or errors.
    PreferFollower,
}

/// The result of the `hello` handshake ([`IcdbClient::hello`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloInfo {
    /// The server's wire [`PROTOCOL_VERSION`].
    pub protocol: u64,
    /// `"primary"`, `"follower"`, or `"degraded"`.
    pub role: String,
    /// The session namespace's current commit sequence.
    pub commit_seq: u64,
}

/// Configures and connects an [`IcdbClient`] — the cluster-aware front
/// door. [`IcdbClient::connect`] / [`IcdbClient::connect_with`] are thin
/// wrappers over this builder with a single primary endpoint.
///
/// ```no_run
/// use icdb::net::{IcdbClient, ReadPreference, RetryPolicy};
///
/// let mut client = IcdbClient::builder()
///     .primary("127.0.0.1:7433")
///     .follower("127.0.0.1:7434")
///     .retry_policy(RetryPolicy::default())
///     .read_preference(ReadPreference::PreferFollower)
///     .read_your_writes(true)
///     .connect()?;
/// # Ok::<(), icdb::IcdbError>(())
/// ```
#[derive(Debug, Default)]
pub struct ClientBuilder {
    primary: Vec<SocketAddr>,
    followers: Vec<SocketAddr>,
    policy: Option<RetryPolicy>,
    read_preference: ReadPreference,
    read_your_writes: bool,
    defer_err: Option<IcdbError>,
}

impl ClientBuilder {
    /// Adds primary endpoint address(es). Resolution failures are
    /// deferred and reported by [`ClientBuilder::connect`].
    pub fn primary(mut self, addr: impl ToSocketAddrs) -> ClientBuilder {
        match addr.to_socket_addrs() {
            Ok(resolved) => self.primary.extend(resolved),
            Err(e) => {
                self.defer_err.get_or_insert(net_err(e));
            }
        };
        self
    }

    /// Adds follower endpoint address(es) for [`ReadPreference`] routing.
    pub fn follower(mut self, addr: impl ToSocketAddrs) -> ClientBuilder {
        match addr.to_socket_addrs() {
            Ok(resolved) => self.followers.extend(resolved),
            Err(e) => {
                self.defer_err.get_or_insert(net_err(e));
            }
        };
        self
    }

    /// Sets the retry policy (default: [`RetryPolicy::none`], matching
    /// [`IcdbClient::connect`]).
    pub fn retry_policy(mut self, policy: RetryPolicy) -> ClientBuilder {
        self.policy = Some(policy);
        self
    }

    /// Sets where read-only commands are routed.
    pub fn read_preference(mut self, preference: ReadPreference) -> ClientBuilder {
        self.read_preference = preference;
        self
    }

    /// With read-your-writes on (the default when follower reads are
    /// enabled would be surprising otherwise — it defaults to **off**),
    /// every follower read first issues `wait_seq <last acked commit>` so
    /// the follower has provably replayed this client's own mutations.
    pub fn read_your_writes(mut self, on: bool) -> ClientBuilder {
        self.read_your_writes = on;
        self
    }

    /// Connects to the primary under the configured policy and returns
    /// the client. Follower connections are opened lazily, on the first
    /// routed read.
    ///
    /// # Errors
    /// Address resolution failures recorded by the builder; otherwise
    /// exactly like [`IcdbClient::connect_with`].
    pub fn connect(self) -> Result<IcdbClient, IcdbError> {
        if let Some(e) = self.defer_err {
            return Err(e);
        }
        if self.primary.is_empty() {
            return Err(IcdbError::Cql("no socket address to connect to".into()));
        }
        let policy = self.policy.unwrap_or_else(RetryPolicy::none);
        let mut attempt = 0u32;
        loop {
            match IcdbClient::open(&self.primary, &policy) {
                Ok(mut client) => {
                    client.follower_addrs = self.followers;
                    client.read_preference = self.read_preference;
                    client.read_your_writes = self.read_your_writes;
                    return Ok(client);
                }
                Err((retriable, e)) => {
                    if !retriable || attempt >= policy.max_retries {
                        return Err(e);
                    }
                    attempt += 1;
                    std::thread::sleep(policy.backoff(attempt));
                }
            }
        }
    }
}

/// A blocking `icdbd` client whose [`IcdbClient::execute`] mirrors the
/// embedded [`crate::Icdb::execute`] calling convention. Connect with a
/// [`RetryPolicy`] to get timeouts, bounded backoff, and transparent
/// reconnect + re-attach across server restarts; configure follower
/// endpoints via [`IcdbClient::builder`] to route reads to a replica.
#[derive(Debug)]
pub struct IcdbClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    session_ns: Option<icdb_core::NsId>,
    addrs: Vec<SocketAddr>,
    policy: RetryPolicy,
    last_commit_seq: u64,
    follower_addrs: Vec<SocketAddr>,
    follower: Option<Box<IcdbClient>>,
    read_preference: ReadPreference,
    read_your_writes: bool,
}

impl IcdbClient {
    /// Connects and consumes the server greeting. No timeouts, no
    /// retries ([`RetryPolicy::none`]); use [`IcdbClient::connect_with`]
    /// for a fault-tolerant connection.
    ///
    /// # Errors
    /// Socket errors, or the server refusing the connection (cap reached).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<IcdbClient, IcdbError> {
        IcdbClient::connect_with(addr, RetryPolicy::none())
    }

    /// Connects under `policy`: each attempt dials with the connect
    /// timeout, and transient failures (refused, timed out, `ERR
    /// capacity`, a connection dropped mid-greeting) are retried up to
    /// `policy.max_retries` times with jittered exponential backoff.
    ///
    /// # Errors
    /// The last failure once the retry budget is spent; non-transient
    /// failures immediately.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        policy: RetryPolicy,
    ) -> Result<IcdbClient, IcdbError> {
        IcdbClient::builder()
            .primary(addr)
            .retry_policy(policy)
            .connect()
    }

    /// Starts a [`ClientBuilder`]: the cluster-aware constructor with
    /// follower endpoints, read routing, and read-your-writes.
    pub fn builder() -> ClientBuilder {
        ClientBuilder::default()
    }

    /// One connection attempt: dial, apply socket timeouts, consume the
    /// greeting. The boolean classifies the failure as transient.
    fn open(addrs: &[SocketAddr], policy: &RetryPolicy) -> Result<IcdbClient, (bool, IcdbError)> {
        let mut last: Option<io::Error> = None;
        let mut stream = None;
        for addr in addrs {
            let dialed = match policy.connect_timeout {
                Some(timeout) => TcpStream::connect_timeout(addr, timeout),
                None => TcpStream::connect(addr),
            };
            match dialed {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last = Some(e),
            }
        }
        let Some(stream) = stream else {
            let e = last.unwrap_or_else(|| io::ErrorKind::AddrNotAvailable.into());
            let transient = matches!(
                e.kind(),
                io::ErrorKind::ConnectionRefused
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::TimedOut
                    | io::ErrorKind::WouldBlock
            );
            return Err((transient, net_err(e)));
        };
        let fallible = |e: io::Error| (false, net_err(e));
        stream
            .set_read_timeout(policy.read_timeout)
            .map_err(fallible)?;
        stream
            .set_write_timeout(policy.write_timeout)
            .map_err(fallible)?;
        let mut client = IcdbClient {
            reader: BufReader::new(stream.try_clone().map_err(fallible)?),
            writer: BufWriter::new(stream),
            session_ns: None,
            addrs: addrs.to_vec(),
            policy: policy.clone(),
            last_commit_seq: 0,
            follower_addrs: Vec::new(),
            follower: None,
            read_preference: ReadPreference::Primary,
            read_your_writes: false,
        };
        // A connection dropped mid-greeting (server restarting) is as
        // transient as a refused one.
        let greeting = client.read_line().map_err(|e| (true, e))?;
        if let Some(rest) = greeting.strip_prefix("ERR ") {
            // A `capacity` refusal surfaces as `IcdbError::Unsupported` so
            // callers can tell "try again later" from a real failure.
            return Err(match decode_err(rest) {
                IcdbError::Unsupported(m) => (
                    true,
                    IcdbError::Unsupported(format!("icdbd refused the connection: {m}")),
                ),
                other => (false, other),
            });
        }
        // Greeting form: `OK icdbd ready (session ns<N>)` — remember the
        // namespace so the client can re-attach after a server restart.
        client.session_ns = greeting
            .rsplit_once("ns")
            .and_then(|(_, raw)| raw.trim_end_matches(')').parse().ok())
            .map(icdb_core::NsId::from_raw);
        Ok(client)
    }

    /// Dials a fresh connection and re-attaches the remembered session
    /// namespace. Returns the server-reported commit sequence of that
    /// namespace (`None` when there was no namespace to re-attach).
    fn reconnect(&mut self) -> Result<Option<u64>, IcdbError> {
        let mut fresh = IcdbClient::open(&self.addrs, &self.policy).map_err(|(_, e)| e)?;
        let mut server_seq = None;
        if let Some(ns) = self.session_ns {
            fresh.attach(ns)?;
            server_seq = Some(fresh.last_commit_seq);
        } else {
            self.session_ns = fresh.session_ns;
        }
        self.reader = fresh.reader;
        self.writer = fresh.writer;
        Ok(server_seq)
    }

    /// The server-side namespace of this connection's session, parsed from
    /// the greeting (and updated by [`IcdbClient::attach`]). This is the id
    /// to attach to when reconnecting to a durable server after a crash.
    pub fn session_ns(&self) -> Option<icdb_core::NsId> {
        self.session_ns
    }

    /// The policy this client connected with.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// The last commit sequence the server acked for this session's
    /// namespace (`OK <n> commit:<seq>` headers and `attach` responses).
    pub fn last_commit_seq(&self) -> u64 {
        self.last_commit_seq
    }

    /// Executes one CQL command remotely: `%` inputs are read from `args`,
    /// `?` outputs are written back into them — exactly like
    /// [`crate::Icdb::execute`], but over the socket.
    ///
    /// # Errors
    /// Server-side errors arrive typed by their wire reason code
    /// ([`ErrCode`]): command failures as [`IcdbError::Cql`], malformed
    /// request lines as [`IcdbError::Parse`], degraded-mode commit
    /// refusals as [`IcdbError::ReadOnly`]. Socket errors are wrapped as
    /// [`IcdbError::Cql`]; under a retrying [`RetryPolicy`] they first
    /// trigger reconnect + re-attach, and a mutating command whose lost
    /// response turns out to have committed (the re-attached namespace's
    /// commit sequence advanced past the last acked one) surfaces a
    /// distinct "acknowledgement was lost" error instead of re-sending.
    pub fn execute(&mut self, command: &str, args: &mut [CqlArg]) -> Result<(), IcdbError> {
        if self.read_preference == ReadPreference::PreferFollower
            && !self.follower_addrs.is_empty()
            && read_only(command, args)
            && self.follower_read(command, args).is_ok()
        {
            return Ok(());
        }
        let mut attempt = 0u32;
        loop {
            let failure = match self.execute_once(command, args) {
                Ok(()) => return Ok(()),
                Err(ExecFailure::Server(e)) => return Err(e),
                Err(ExecFailure::Net(e)) => e,
            };
            if attempt >= self.policy.max_retries {
                return Err(failure);
            }
            attempt += 1;
            std::thread::sleep(self.policy.backoff(attempt));
            let seen = self.last_commit_seq;
            let server_seq = match self.reconnect() {
                Ok(seq) => seq,
                // The reconnect itself failed: spend the attempt and loop —
                // execute_once will fail fast on the dead transport and the
                // next attempt reconnects again.
                Err(_) => continue,
            };
            if !read_only(command, args) {
                match server_seq {
                    // Unchanged sequence: the lost command provably never
                    // committed, so one re-send is safe.
                    Some(now) if now <= seen => {}
                    Some(now) => {
                        self.last_commit_seq = now;
                        return Err(IcdbError::Cql(format!(
                            "commit applied on the server (commit_seq {now}, last acked {seen}) \
                             but its acknowledgement was lost: {failure}"
                        )));
                    }
                    // No session namespace to compare against: stay safe,
                    // never blindly re-send a mutation.
                    None => return Err(failure),
                }
            }
        }
    }

    /// One send/receive round of [`IcdbClient::execute`], with failures
    /// split into transport-died versus server-answered.
    fn execute_once(&mut self, command: &str, args: &mut [CqlArg]) -> Result<(), ExecFailure> {
        let net = |e: io::Error| ExecFailure::Net(net_err(e));
        let mut line = escape(command);
        for arg in args.iter() {
            if let Some(field) = encode_input(arg) {
                line.push('\t');
                line.push_str(&field);
            }
        }
        writeln!(self.writer, "{line}").map_err(net)?;
        self.writer.flush().map_err(net)?;

        let head = self.read_line().map_err(ExecFailure::Net)?;
        if let Some(rest) = head.strip_prefix("ERR ") {
            return Err(ExecFailure::Server(decode_err(rest)));
        }
        let (count, commit) = parse_ok_head(&head).map_err(ExecFailure::Server)?;
        let mut outputs = Vec::with_capacity(count);
        for _ in 0..count {
            outputs.push(self.read_line().map_err(ExecFailure::Net)?);
        }
        let mut out_iter = outputs.iter();
        for arg in args.iter_mut() {
            if is_output(arg) {
                let line = out_iter.next().ok_or_else(|| {
                    ExecFailure::Server(IcdbError::Cql(
                        "icdbd returned fewer outputs than ? slots".into(),
                    ))
                })?;
                decode_output(line, arg).map_err(|m| ExecFailure::Server(IcdbError::Cql(m)))?;
            }
        }
        if let Some(seq) = commit {
            self.last_commit_seq = seq;
        }
        Ok(())
    }

    /// One follower-routed read: lazily connects to a follower endpoint,
    /// attaches it to this client's session namespace (retrying briefly —
    /// the namespace itself replicates asynchronously and may not have
    /// arrived yet), optionally waits for the last acked commit sequence
    /// (read-your-writes), then executes the command once. Any failure
    /// drops the follower connection and the caller falls back to the
    /// primary.
    fn follower_read(&mut self, command: &str, args: &mut [CqlArg]) -> Result<(), IcdbError> {
        let result = self.follower_read_inner(command, args);
        if result.is_err() {
            self.follower = None;
        }
        result
    }

    fn follower_read_inner(&mut self, command: &str, args: &mut [CqlArg]) -> Result<(), IcdbError> {
        if self.follower.is_none() {
            let fresh = IcdbClient::open(&self.follower_addrs, &self.policy).map_err(|(_, e)| e)?;
            self.follower = Some(Box::new(fresh));
        }
        let want_seq = if self.read_your_writes {
            self.last_commit_seq
        } else {
            0
        };
        let target_ns = self.session_ns;
        let follower = self.follower.as_mut().expect("follower connected above");
        if let Some(ns) = target_ns {
            if follower.session_ns != Some(ns) {
                let mut attempt = 0u32;
                loop {
                    match follower.attach(ns) {
                        Ok(()) => break,
                        Err(e) => {
                            attempt += 1;
                            if attempt > 10 {
                                return Err(e);
                            }
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    }
                }
            }
            if want_seq > 0 {
                follower.wait_seq(want_seq, Duration::from_millis(DEFAULT_WAIT_SEQ_TIMEOUT_MS))?;
            }
        }
        match follower.execute_once(command, args) {
            Ok(()) => Ok(()),
            Err(ExecFailure::Net(e) | ExecFailure::Server(e)) => Err(e),
        }
    }

    /// The versioned `hello` handshake: returns the server's wire
    /// protocol version, its replication role (`primary` / `follower` /
    /// `degraded`), and the session namespace's commit sequence.
    ///
    /// # Errors
    /// Socket errors; a malformed response as [`IcdbError::Cql`].
    pub fn hello(&mut self) -> Result<HelloInfo, IcdbError> {
        let lines = self.wire_verb("hello")?;
        let malformed = || IcdbError::Cql("malformed hello response".into());
        let num = |l: &String| l.strip_prefix("d ").and_then(|s| s.trim().parse().ok());
        Ok(HelloInfo {
            protocol: lines.first().and_then(num).ok_or_else(malformed)?,
            role: lines
                .get(1)
                .and_then(|l| l.strip_prefix("s "))
                .ok_or_else(malformed)?
                .to_string(),
            commit_seq: lines.get(2).and_then(num).ok_or_else(malformed)?,
        })
    }

    /// Blocks until the server-side session namespace's commit sequence
    /// reaches `seq` (the `wait_seq` wire command) and returns the
    /// sequence observed. On a follower this waits for replication to
    /// catch up — the read-your-writes barrier.
    ///
    /// # Errors
    /// [`IcdbError::Cql`] on timeout; socket errors as usual.
    pub fn wait_seq(&mut self, seq: u64, timeout: Duration) -> Result<u64, IcdbError> {
        let timeout_ms = u64::try_from(timeout.as_millis()).unwrap_or(u64::MAX);
        self.wire_verb(&format!("wait_seq {seq} {timeout_ms}"))?
            .first()
            .and_then(|l| l.strip_prefix("d ").and_then(|s| s.trim().parse().ok()))
            .ok_or_else(|| IcdbError::Cql("malformed wait_seq response".into()))
    }

    /// Re-binds the server-side session to an existing namespace (`attach`
    /// wire command). After a server restart, a client that remembered its
    /// greeting's `ns<N>` can reconnect and attach to continue exactly
    /// where the crash left it — ownership of the namespace transfers to
    /// this connection.
    ///
    /// # Errors
    /// [`IcdbError::Cql`] when the namespace does not exist; socket errors
    /// as usual.
    pub fn attach(&mut self, ns: icdb_core::NsId) -> Result<(), IcdbError> {
        let lines = self.wire_verb(&format!("attach ns{}", ns.raw()))?;
        // The response's `d <seq>` line reports the namespace's commit
        // sequence — the reference point for ambiguous-commit detection.
        if let Some(seq) = lines
            .iter()
            .find_map(|l| l.strip_prefix("d ").and_then(|s| s.trim().parse().ok()))
        {
            self.last_commit_seq = seq;
        }
        self.session_ns = Some(ns);
        Ok(())
    }

    /// The server's full Prometheus text exposition over the CQL wire
    /// (`metrics text:?s`) — byte-identical to the body the
    /// `--metrics-addr` HTTP endpoint serves, so a client can consume the
    /// observability surface without a second socket.
    ///
    /// # Errors
    /// As [`IcdbClient::execute`].
    pub fn metrics_text(&mut self) -> Result<String, IcdbError> {
        let mut args = [CqlArg::OutStr(None)];
        self.execute("command:metrics; text:?s", &mut args)?;
        match args {
            [CqlArg::OutStr(Some(text))] => Ok(text),
            _ => Err(IcdbError::Cql("malformed metrics response".into())),
        }
    }

    /// Sends `quit` and closes the connection (the server then drops the
    /// session namespace).
    ///
    /// # Errors
    /// Socket errors.
    pub fn quit(mut self) -> Result<(), IcdbError> {
        writeln!(self.writer, "quit").map_err(net_err)?;
        self.writer.flush().map_err(net_err)
    }

    /// Sends one wire-verb request line and returns the reply's output
    /// lines (an `ERR` reply as its decoded error).
    fn wire_verb(&mut self, line: &str) -> Result<Vec<String>, IcdbError> {
        writeln!(self.writer, "{line}").map_err(net_err)?;
        self.writer.flush().map_err(net_err)?;
        let head = self.read_line()?;
        if let Some(rest) = head.strip_prefix("ERR ") {
            return Err(decode_err(rest));
        }
        let (count, _) = parse_ok_head(&head)?;
        (0..count).map(|_| self.read_line()).collect()
    }

    fn read_line(&mut self) -> Result<String, IcdbError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).map_err(net_err)?;
        if n == 0 {
            return Err(IcdbError::Cql("icdbd closed the connection".into()));
        }
        Ok(line.trim_end_matches(['\r', '\n']).to_string())
    }
}

/// Whether a CQL command is read-only by its [`COMMANDS`] row — safe to
/// re-send after a dropped connection and to route to a follower. Text
/// that does not parse counts as mutating, so it is never re-sent blindly.
fn read_only(command: &str, args: &[CqlArg]) -> bool {
    parse_command(command, args)
        .is_ok_and(|(cmd, _)| command_spec(&cmd.name).is_some_and(CommandSpec::read_only))
}

fn net_err(e: io::Error) -> IcdbError {
    IcdbError::Cql(format!("icdbd i/o error: {e}"))
}

/// Parses an `OK <n>[ commit:<seq>]` response header.
fn parse_ok_head(head: &str) -> Result<(usize, Option<u64>), IcdbError> {
    let malformed = || IcdbError::Cql(format!("malformed icdbd response `{head}`"));
    let rest = head.strip_prefix("OK ").ok_or_else(malformed)?;
    let mut words = rest.split_whitespace();
    let count = words
        .next()
        .and_then(|n| n.parse().ok())
        .ok_or_else(malformed)?;
    let mut commit = None;
    for word in words {
        if let Some(seq) = word.strip_prefix("commit:").and_then(|s| s.parse().ok()) {
            commit = Some(seq);
        }
    }
    Ok((count, commit))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips() {
        let nasty = "a\tb\nc\\d\re\u{1f}f";
        assert_eq!(unescape(&escape(nasty)).unwrap(), nasty);
        assert!(!escape(nasty).contains('\n'));
        assert!(!escape(nasty).contains('\t'));
        assert!(unescape("dangling\\").is_err());
        assert!(unescape("bad\\q").is_err());
    }

    #[test]
    fn list_encoding_round_trips() {
        let items = vec!["plain".to_string(), "with\ttab".to_string(), "".to_string()];
        assert_eq!(decode_list(&encode_list(&items)).unwrap(), items);
        assert_eq!(decode_list("").unwrap(), Vec::<String>::new());
        // The empty list and the one-empty-string list are distinct.
        let one_empty = vec!["".to_string()];
        assert_eq!(decode_list(&encode_list(&one_empty)).unwrap(), one_empty);
        assert_ne!(encode_list(&one_empty), encode_list(&[]));
    }

    #[test]
    fn input_fields_round_trip() {
        for arg in [
            CqlArg::InStr("multi\nline".into()),
            CqlArg::InInt(-7),
            CqlArg::InReal(2.5),
            CqlArg::InStrList(vec!["A".into(), "B".into()]),
        ] {
            let field = encode_input(&arg).unwrap();
            assert_eq!(decode_input(&field).unwrap(), arg);
        }
    }

    #[test]
    fn err_codes_round_trip_and_map_to_variants() {
        for code in [
            ErrCode::Capacity,
            ErrCode::Parse,
            ErrCode::Cql,
            ErrCode::Readonly,
            ErrCode::NotPrimary,
        ] {
            assert_eq!(ErrCode::from_wire(code.as_str()), Some(code));
        }
        assert_eq!(ErrCode::from_wire("mystery"), None);
        assert!(matches!(
            decode_err("readonly commits refused while degraded"),
            IcdbError::ReadOnly(m) if m.contains("degraded")
        ));
        assert!(matches!(
            decode_err("capacity server at connection capacity (4)"),
            IcdbError::Unsupported(m) if m.contains("capacity (4)")
        ));
        assert!(matches!(
            decode_err("parse bad escape `\\q`"),
            IcdbError::Parse(m) if m.contains("bad escape")
        ));
        assert!(matches!(
            decode_err("cql icdb: not found: instance `x`"),
            IcdbError::Cql(m) if m.contains("instance `x`")
        ));
        assert!(matches!(
            decode_err("not_primary icdb: not-primary: send mutations to the primary"),
            IcdbError::NotPrimary(m) if m.contains("primary")
        ));
        // Unknown codes stay readable for forward compatibility.
        assert!(matches!(
            decode_err("mystery something odd"),
            IcdbError::Cql(m) if m.contains("mystery something odd")
        ));
    }

    #[test]
    fn output_lines_round_trip() {
        let cases: Vec<(CqlArg, CqlArg)> = vec![
            (CqlArg::OutStr(None), CqlArg::OutStr(Some("x\ny".into()))),
            (CqlArg::OutInt(None), CqlArg::OutInt(Some(42))),
            (CqlArg::OutReal(None), CqlArg::OutReal(Some(1.5))),
            (
                CqlArg::OutStrList(None),
                CqlArg::OutStrList(Some(vec!["A".into(), "B".into()])),
            ),
            (
                CqlArg::OutIntList(None),
                CqlArg::OutIntList(Some(vec![1, 2, 3])),
            ),
            (
                CqlArg::OutRealList(None),
                CqlArg::OutRealList(Some(vec![0.5, 2.0])),
            ),
        ];
        for (blank, filled) in cases {
            let line = encode_output(&filled);
            let mut target = blank;
            decode_output(&line, &mut target).unwrap();
            assert_eq!(target, filled);
        }
    }

    #[test]
    fn ok_headers_parse_with_and_without_commit_seq() {
        assert_eq!(parse_ok_head("OK 3").unwrap(), (3, None));
        assert_eq!(parse_ok_head("OK 2 commit:17").unwrap(), (2, Some(17)));
        assert_eq!(parse_ok_head("OK 0 commit:0").unwrap(), (0, Some(0)));
        assert!(parse_ok_head("NOPE").is_err());
        assert!(parse_ok_head("OK x").is_err());
        // Unknown extra words stay forward-compatible.
        assert_eq!(parse_ok_head("OK 1 shard:3").unwrap(), (1, None));
    }

    #[test]
    fn reply_renders_commit_header_only_for_mutations() {
        let plain = Reply::plain(vec!["s a".into()]);
        assert_eq!(plain.render(), "OK 1\ns a\n");
        let committed = Reply {
            lines: vec![],
            commit: Some(4),
            extra: None,
        };
        assert_eq!(committed.render(), "OK 0 commit:4\n");
        // Extra header words slot between the count and the commit ack —
        // where parse_ok_head skips what it does not know.
        let streamy = Reply {
            lines: vec![],
            commit: Some(9),
            extra: Some("seq:7 epoch:3".into()),
        };
        assert_eq!(streamy.render(), "OK 0 seq:7 epoch:3 commit:9\n");
        assert_eq!(
            parse_ok_head("OK 0 seq:7 epoch:3 commit:9").unwrap(),
            (0, Some(9))
        );
    }

    #[test]
    fn hex_payloads_round_trip() {
        let payload: Vec<u8> = (0u16..=255).map(|b| b as u8).collect();
        let encoded = hex_encode(&payload);
        assert_eq!(encoded.len(), payload.len() * 2);
        assert_eq!(hex_decode(&encoded).unwrap(), payload);
        assert_eq!(hex_decode("").unwrap(), Vec::<u8>::new());
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let policy = RetryPolicy::default();
        let mut last = Duration::ZERO;
        for attempt in 1..12u32 {
            let delay = policy.backoff(attempt);
            // Deterministic for a given (seed, attempt).
            assert_eq!(delay, policy.backoff(attempt));
            assert!(delay <= policy.backoff_max);
            assert!(delay > Duration::ZERO);
            last = last.max(delay);
        }
        // The exponential reaches the cap's neighborhood (jitter keeps it
        // in the upper half of the capped window).
        assert!(last >= policy.backoff_max / 2);
        // A different seed shifts the schedule.
        let other = RetryPolicy {
            jitter_seed: 0xfeed,
            ..RetryPolicy::default()
        };
        assert!((1..12u32).any(|a| other.backoff(a) != policy.backoff(a)));
        // The no-retry policy degenerates to zero delays.
        assert_eq!(RetryPolicy::none().backoff(3), Duration::ZERO);
    }
}
