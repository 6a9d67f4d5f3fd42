//! The serve loop's connection lifecycle, end to end: a connection that
//! is closing reads and runs nothing more, the idle sweep reaps a silent
//! session and gives its admission slot back, and `wait_seq` on a
//! namespace dropped under the session fails at once.

#![cfg(target_os = "linux")]

use icdb::net::{IcdbClient, Server, PROTOCOL_VERSION};
use icdb::{IcdbError, IcdbService};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An `icdbd` process of its own, so its metrics see only this test's
/// traffic; killed on drop.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

/// Spawns `icdbd` with one worker and a metrics listener; returns the
/// daemon, its CQL port and its metrics port once both answer.
fn spawn_icdbd(extra: &[&str]) -> (Daemon, u16, u16) {
    let (port, mport) = (free_port(), free_port());
    let daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_icdbd"))
            .args(["--addr", &format!("127.0.0.1:{port}"), "--workers", "1"])
            .args(["--metrics-addr", &format!("127.0.0.1:{mport}")])
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn icdbd"),
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    while TcpStream::connect(("127.0.0.1", mport)).is_err() {
        assert!(Instant::now() < deadline, "icdbd did not come up");
        std::thread::sleep(Duration::from_millis(50));
    }
    (daemon, port, mport)
}

/// One `GET /metrics` scrape; returns the exposition body.
fn scrape(mport: u16) -> String {
    let mut stream = TcpStream::connect(("127.0.0.1", mport)).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    raw.split_once("\r\n\r\n")
        .expect("header block")
        .1
        .to_string()
}

/// The value of one sample (`name` with its labels, if any).
fn sample(body: &str, name: &str) -> u64 {
    let prefix = format!("{name} ");
    body.lines()
        .find_map(|line| line.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("exposition lacks `{name}`"))
        .trim()
        .parse()
        .unwrap()
}

/// Polls the scrape until `name` reads `want`.
fn await_sample(mport: u16, name: &str, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let got = sample(&scrape(mport), name);
        if got == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{name} stuck at {got}, want {want}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Process-wide CPU ticks (utime + stime) of a pid, from `/proc`.
fn proc_cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap();
    // utime/stime are stat(5) fields 14/15: 11/12 past the `)` closing
    // the command name, which may itself contain spaces.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .unwrap()
        .1
        .split_whitespace()
        .collect();
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

/// A raw wire connection past its greeting; returns the greeting too.
fn raw_connect(port: u16) -> (TcpStream, BufReader<TcpStream>, String) {
    let stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut greeting = String::new();
    reader.read_line(&mut greeting).unwrap();
    assert!(greeting.starts_with("OK icdbd ready"), "{greeting}");
    (stream, reader, greeting)
}

/// Replies a peer leaves unread before `quit`: more than the kernel's
/// socket buffers hold, less than the server's 8 MiB write high-water
/// mark, so the connection is still draining when more lines arrive.
const BACKLOG_BYTES: usize = 7 * 1024 * 1024;

#[test]
fn lines_pipelined_after_quit_never_run_and_the_worker_idles() {
    let (daemon, port, mport) = spawn_icdbd(&[]);
    let (stream, mut reader, _) = raw_connect(port);
    let request = "command:metrics; text:?s\n";
    (&stream).write_all(request.as_bytes()).unwrap();
    let mut reply = String::new();
    for _ in 0..2 {
        reader.read_line(&mut reply).unwrap();
    }
    assert!(reply.starts_with("OK 1\n"), "{reply}");
    let count = BACKLOG_BYTES / reply.len();

    // Queue a backlog of replies without reading them, then quit.
    (&stream)
        .write_all(format!("{}quit\n", request.repeat(count)).as_bytes())
        .unwrap();
    await_sample(
        mport,
        "icdb_requests_total{command=\"metrics\"}",
        count as u64 + 1,
    );
    // The peer keeps writing while its replies drain.
    (&stream)
        .write_all("hello\n".repeat(200).as_bytes())
        .unwrap();
    std::thread::sleep(Duration::from_millis(300));

    // Nothing is read after `quit`, so the unread input must not wake
    // the worker either.
    let pid = daemon.0.id();
    let before = proc_cpu_ticks(pid);
    std::thread::sleep(Duration::from_secs(2));
    let burned = proc_cpu_ticks(pid) - before;
    assert!(burned < 50, "daemon burned {burned} CPU ticks in 2s");
    // A command bills its first sample row when it runs.
    assert!(
        !scrape(mport).contains("command=\"hello\""),
        "a line sent after `quit` ran"
    );

    // The backlog still drains to the end of the stream (possibly a
    // reset: the server closes with the unread lines discarded).
    let mut sink = Vec::new();
    let _ = reader.read_to_end(&mut sink);
    let mut client = IcdbClient::connect(("127.0.0.1", port)).expect("still serving");
    assert_eq!(client.hello().expect("hello").protocol, PROTOCOL_VERSION);
}

#[test]
fn idle_sweep_reaps_a_silent_session_and_frees_its_slot() {
    let (_daemon, port, mport) = spawn_icdbd(&["--idle-timeout", "1", "--max-connections", "1"]);
    let before = scrape(mport);
    let connections = sample(&before, "icdb_connections");
    let kills = sample(&before, "icdb_idle_timeout_kills_total");

    let connected = Instant::now();
    let (_stream, mut silent, greeting) = raw_connect(port);
    let ns = greeting
        .trim_end()
        .rsplit_once("ns")
        .and_then(|(_, raw)| raw.trim_end_matches(')').parse().ok())
        .map(icdb::NsId::from_raw)
        .expect("namespace in the greeting");
    assert_eq!(sample(&scrape(mport), "icdb_connections"), connections + 1);
    match IcdbClient::connect(("127.0.0.1", port)) {
        Err(IcdbError::Unsupported(m)) if m.contains("capacity") => {}
        other => panic!("a client past the cap must be refused, got {other:?}"),
    }

    // The silent connection is reaped: the server closes it.
    let mut rest = String::new();
    assert_eq!(silent.read_line(&mut rest).unwrap(), 0, "{rest}");
    assert!(connected.elapsed() >= Duration::from_secs(1));
    await_sample(mport, "icdb_connections", connections);
    assert_eq!(
        sample(&scrape(mport), "icdb_idle_timeout_kills_total"),
        kills + 1
    );

    // Its slot admits a new client, and its namespace is gone.
    let mut fresh = IcdbClient::connect(("127.0.0.1", port)).expect("the freed slot admits");
    match fresh.attach(ns) {
        Err(IcdbError::Cql(m)) if m.contains("not found") => {}
        other => panic!("the reaped namespace must be dropped, got {other:?}"),
    }
}

#[test]
fn wait_seq_on_a_dropped_namespace_fails_at_once_naming_it() {
    let service = Arc::new(IcdbService::new());
    let handle = Server::bind("127.0.0.1:0", Arc::clone(&service), 8)
        .unwrap()
        .spawn()
        .unwrap();
    let mut owner = IcdbClient::connect(handle.addr()).unwrap();
    let ns = owner.session_ns().unwrap();
    // Another connection takes the namespace over and quits, dropping it.
    let mut other = IcdbClient::connect(handle.addr()).unwrap();
    other.attach(ns).unwrap();
    other.quit().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.read().commit_seq_in(ns).is_ok() {
        assert!(Instant::now() < deadline, "{ns} was never dropped");
        std::thread::sleep(Duration::from_millis(10));
    }

    let started = Instant::now();
    let answer = owner.wait_seq(1, Duration::from_secs(3));
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "wait_seq spun for {:?}",
        started.elapsed()
    );
    match answer {
        Err(IcdbError::Cql(m)) if m.contains(&format!("`{ns}`")) => {}
        other => panic!("expected an error naming {ns}, got {other:?}"),
    }
    handle.shutdown();
}
