//! `icdbd` — the ICDB component-database daemon.
//!
//! Serves the shared knowledge base, generation cache and per-connection
//! design namespaces over the line-oriented CQL protocol of
//! [`icdb::net`]. Connections are multiplexed over an epoll worker pool
//! (`--workers`), so the daemon is Linux-only; `--max-connections` is
//! pure admission policy — a connection over the cap is refused with
//! `ERR capacity …`, never queued.
//!
//! ```text
//! icdbd [--addr HOST:PORT] [--max-connections N] [--workers N]
//!       [--data-dir DIR] [--no-fsync] [--group-commit-window MS]
//!       [--idle-timeout SECS] [--replicate-from HOST:PORT]
//!       [--metrics-addr HOST:PORT] [--log-level LEVEL]
//!       [--log-format text|json] [--slow-query-ms MS]
//! ```
//!
//! With `--metrics-addr HOST:PORT` the daemon additionally serves its
//! full metrics registry as Prometheus text exposition over plain
//! HTTP/1.0 (`GET /metrics`), multiplexed on the existing epoll worker
//! pool — the same samples the read-only `metrics` CQL command returns
//! over the main port. `--log-level` (error/warn/info/debug/trace) and
//! `--log-format` (text or one-line JSON) shape every diagnostic line on
//! stderr; requests slower than `--slow-query-ms` (default 100, 0
//! disables) are logged at `warn` with their trace id.
//!
//! With `--replicate-from HOST:PORT` (plus `--data-dir`, pointed at an
//! *empty* directory) the daemon runs as a **replication follower**: it
//! bootstraps the primary's latest snapshot generation and WAL tail over
//! the `repl_snapshot` wire command, then tails the primary's fsynced
//! commit stream (`repl_stream`) and replays every event through the
//! same apply path crash recovery uses. The follower serves the entire
//! read-only surface locally, answers mutations with `ERR not_primary`,
//! reports its position via `command:persist; role:?s; applied_seq:?d;
//! lag_events:?d; upstream:?s`, and is promoted to a writable primary
//! with `command:persist; promote:1` (see `icdb::repl`).
//!
//! With `--data-dir`, the daemon is **crash-recovering**: on boot it loads
//! the newest valid snapshot and replays the write-ahead log (truncating
//! any torn final record), and every mutation is journaled before it is
//! applied. Durability is **group-commit**: concurrent committers enqueue
//! WAL records and one fsync acknowledges the whole batch;
//! `--group-commit-window` lets a would-be flush leader linger that many
//! milliseconds for companions first (default 0: flush eagerly, still
//! batching whatever queued while the previous fsync ran). `--no-fsync`
//! drops the fsync entirely — acknowledged commits then survive process
//! crashes, not power loss — making the window moot.
//!
//! `SIGINT`/`SIGTERM` trigger a graceful shutdown: the accept loop
//! stops, the epoll workers exit (parking live sessions — their
//! namespaces survive for post-restart `attach`), any in-flight group
//! commit is drained, and only then is a checkpoint (full snapshot plus
//! a fresh WAL generation) written, so the next boot starts without
//! replay. A `SIGKILL` (or power loss) instead recovers from the journal
//! — exactly the acknowledged prefix, which `tests/durability_e2e.rs`
//! and `tests/recovery_properties.rs` pin down.
//!
//! Try it with netcat:
//!
//! ```text
//! $ icdbd --data-dir /var/lib/icdb &
//! $ nc 127.0.0.1 7433
//! OK icdbd ready (session ns1)
//! command:request_component; component_name:counter; attribute:(size:5); generated_component:?s
//! OK 1
//! s counter$1
//! command:persist; wal_events:?d; wal_bytes:?d
//! OK 2
//! d 2
//! d 310
//! quit
//! ```
//!
//! After a restart, reconnect and `attach ns1` to resume the recovered
//! session namespace.

use icdb::net::{Server, DEFAULT_MAX_CONNECTIONS, DEFAULT_PORT, DEFAULT_WORKERS};
use icdb::obs::log as olog;
use icdb::obs::metrics as obs;
use icdb::IcdbService;
use olog::Value;
use std::process::ExitCode;
use std::sync::Arc;

/// Async-signal-safe shutdown flag + handler registration, via the libc
/// `signal` symbol the Rust runtime already links (no extra dependency).
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set by the handler; polled by the main loop.
    pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe work here: flip the flag.
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    /// Installs the SIGINT/SIGTERM handlers.
    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    /// Whether a shutdown signal has arrived.
    pub fn requested() -> bool {
        SHUTDOWN.load(Ordering::SeqCst)
    }
}

fn main() -> ExitCode {
    let mut addr = format!("127.0.0.1:{DEFAULT_PORT}");
    let mut max_connections = DEFAULT_MAX_CONNECTIONS;
    let mut data_dir: Option<String> = None;
    let mut fsync = true;
    let mut workers = DEFAULT_WORKERS;
    let mut group_commit_window = std::time::Duration::ZERO;
    let mut idle_timeout = std::time::Duration::ZERO;
    let mut replicate_from: Option<String> = None;
    let mut metrics_addr: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" | "-a" => match args.next() {
                Some(v) => addr = v,
                None => return usage("--addr needs HOST:PORT"),
            },
            "--max-connections" | "-c" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(v)) if v >= 1 => max_connections = v,
                _ => return usage("--max-connections needs a positive integer"),
            },
            "--data-dir" | "-d" => match args.next() {
                Some(v) => data_dir = Some(v),
                None => return usage("--data-dir needs a directory path"),
            },
            "--no-fsync" => fsync = false,
            "--workers" | "-w" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(v)) if v >= 1 => workers = v,
                _ => return usage("--workers needs a positive integer"),
            },
            "--group-commit-window" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(ms)) => group_commit_window = std::time::Duration::from_millis(ms),
                _ => return usage("--group-commit-window needs milliseconds"),
            },
            "--idle-timeout" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(secs)) => idle_timeout = std::time::Duration::from_secs(secs),
                _ => return usage("--idle-timeout needs seconds (0 disables it)"),
            },
            "--replicate-from" => match args.next() {
                Some(v) => replicate_from = Some(v),
                None => return usage("--replicate-from needs the primary's HOST:PORT"),
            },
            "--metrics-addr" => match args.next() {
                Some(v) => metrics_addr = Some(v),
                None => return usage("--metrics-addr needs HOST:PORT"),
            },
            "--log-level" => match args.next().as_deref().and_then(olog::Level::parse) {
                Some(level) => olog::set_level(level),
                None => return usage("--log-level needs error|warn|info|debug|trace"),
            },
            "--log-format" => match args.next().as_deref().and_then(olog::Format::parse) {
                Some(format) => olog::set_format(format),
                None => return usage("--log-format needs text|json"),
            },
            "--slow-query-ms" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(ms)) => obs::set_slow_query_threshold_ms(ms),
                _ => return usage("--slow-query-ms needs milliseconds (0 disables)"),
            },
            "--help" | "-h" => {
                println!(
                    "icdbd — ICDB component-database daemon\n\n\
                     USAGE: icdbd [--addr HOST:PORT] [--max-connections N] [--workers N]\n\
                     \x20             [--data-dir DIR] [--no-fsync] [--group-commit-window MS]\n\n\
                     OPTIONS:\n\
                     \x20 -a, --addr HOST:PORT       listen address (default 127.0.0.1:{DEFAULT_PORT})\n\
                     \x20 -c, --max-connections N    admission cap (default {DEFAULT_MAX_CONNECTIONS});\n\
                     \x20                            connections over the cap are refused, not queued\n\
                     \x20 -w, --workers N            epoll worker pool size (default {DEFAULT_WORKERS})\n\
                     \x20 -d, --data-dir DIR         durable mode: journal + snapshots in DIR,\n\
                     \x20                            recover on boot, checkpoint on SIGINT/SIGTERM\n\
                     \x20     --no-fsync             skip the per-batch fsync (survives process\n\
                     \x20                            crashes, not power loss)\n\
                     \x20     --group-commit-window MS  let a flush leader wait MS milliseconds\n\
                     \x20                            for companion commits before fsyncing\n\
                     \x20     --idle-timeout SECS    disconnect a connection silent for SECS\n\
                     \x20                            seconds (default 0: never)\n\
                     \x20     --replicate-from HOST:PORT  run as a replication follower of the\n\
                     \x20                            primary at HOST:PORT (needs --data-dir,\n\
                     \x20                            pointed at an empty directory): bootstrap\n\
                     \x20                            its snapshot + WAL tail, tail its commit\n\
                     \x20                            stream, serve reads, refuse writes with\n\
                     \x20                            `ERR not_primary`; promote with\n\
                     \x20                            `command:persist; promote:1`\n\
                     \x20     --metrics-addr HOST:PORT  serve Prometheus text exposition over\n\
                     \x20                            HTTP (`GET /metrics`) on this address,\n\
                     \x20                            multiplexed on the epoll worker pool\n\
                     \x20     --log-level LEVEL      stderr log level: error|warn|info|debug|\n\
                     \x20                            trace (default info)\n\
                     \x20     --log-format FMT       stderr log format: text|json (default text)\n\
                     \x20     --slow-query-ms MS     log requests slower than MS milliseconds\n\
                     \x20                            at warn, with trace id (default 100;\n\
                     \x20                            0 disables)\n\n\
                     PROTOCOL: one CQL command per line; `attach ns<N>` re-binds the session\n\
                     to a (recovered) namespace; `quit` disconnects. See the `icdb::net`\n\
                     module docs or the README for details."
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let mut follower = None;
    let boot_started = std::time::Instant::now();
    let service = match (&replicate_from, &data_dir) {
        (Some(upstream), Some(dir)) => {
            match icdb::repl::bootstrap(upstream, dir, fsync, group_commit_window) {
                Ok(running) => {
                    let service = std::sync::Arc::clone(running.service());
                    let boot_ms = boot_started.elapsed().as_millis() as u64;
                    match service.persist_stats() {
                        Some(stats) => olog::info(
                            "boot",
                            "following upstream",
                            &[
                                ("upstream", Value::Str(upstream)),
                                ("generation", Value::U64(stats.generation)),
                                ("applied_seq", Value::U64(stats.applied_seq)),
                                ("boot_ms", Value::U64(boot_ms)),
                            ],
                        ),
                        None => olog::info(
                            "boot",
                            "following upstream",
                            &[
                                ("upstream", Value::Str(upstream)),
                                ("boot_ms", Value::U64(boot_ms)),
                            ],
                        ),
                    }
                    follower = Some(running);
                    service
                }
                Err(e) => {
                    olog::error(
                        "boot",
                        "cannot bootstrap follower",
                        &[
                            ("upstream", Value::Str(upstream)),
                            ("error", Value::Str(&e.to_string())),
                        ],
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
        (Some(_), None) => {
            return usage("--replicate-from needs --data-dir (the follower keeps its own journal)");
        }
        (None, _) => match &data_dir {
            Some(dir) => match IcdbService::open_with_options(dir, fsync, group_commit_window) {
                Ok(service) => {
                    let boot_ms = boot_started.elapsed().as_millis() as u64;
                    match service.persist_stats() {
                        Some(stats) => olog::info(
                            "boot",
                            "recovered durable image",
                            &[
                                ("generation", Value::U64(stats.generation)),
                                ("data_dir", Value::Str(&stats.data_dir)),
                                ("replayed_events", Value::U64(stats.recovered_events)),
                                ("fsync", Value::Bool(fsync)),
                                ("boot_ms", Value::U64(boot_ms)),
                            ],
                        ),
                        None => olog::info(
                            "boot",
                            "recovered durable image (no journal stats)",
                            &[("data_dir", Value::Str(dir))],
                        ),
                    }
                    Arc::new(service)
                }
                Err(e) => {
                    olog::error(
                        "boot",
                        "cannot open data dir",
                        &[
                            ("data_dir", Value::Str(dir)),
                            ("error", Value::Str(&e.to_string())),
                        ],
                    );
                    return ExitCode::FAILURE;
                }
            },
            None => Arc::new(IcdbService::new()),
        },
    };

    #[cfg(unix)]
    signals::install();

    let mut server = match Server::bind_with(&addr, Arc::clone(&service), max_connections, workers)
    {
        Ok(server) => server,
        Err(e) => {
            olog::error(
                "boot",
                "cannot bind listen address",
                &[
                    ("addr", Value::Str(&addr)),
                    ("error", Value::Str(&e.to_string())),
                ],
            );
            return ExitCode::FAILURE;
        }
    };
    server.set_idle_timeout(idle_timeout);
    if let Some(maddr) = &metrics_addr {
        match std::net::TcpListener::bind(maddr) {
            Ok(listener) => {
                let bound = listener
                    .local_addr()
                    .map_or_else(|_| maddr.clone(), |a| a.to_string());
                server.set_metrics_listener(listener);
                olog::info(
                    "boot",
                    "metrics endpoint up",
                    &[("metrics_addr", Value::Str(&bound))],
                );
            }
            Err(e) => {
                olog::error(
                    "boot",
                    "cannot bind metrics address",
                    &[
                        ("metrics_addr", Value::Str(maddr)),
                        ("error", Value::Str(&e.to_string())),
                    ],
                );
                return ExitCode::FAILURE;
            }
        }
    }
    match server.local_addr() {
        Ok(bound) => olog::info(
            "boot",
            "listening",
            &[
                ("addr", Value::Str(&bound.to_string())),
                ("max_connections", Value::U64(max_connections as u64)),
                ("workers", Value::U64(workers as u64)),
            ],
        ),
        Err(_) => olog::info("boot", "listening", &[("addr", Value::Str(&addr))]),
    }
    let handle = match server.spawn() {
        Ok(handle) => handle,
        Err(e) => {
            olog::error(
                "boot",
                "cannot start accept loop",
                &[("error", Value::Str(&e.to_string()))],
            );
            return ExitCode::FAILURE;
        }
    };

    // Wait for a shutdown signal (Unix). On other platforms the daemon
    // serves until killed.
    #[cfg(unix)]
    while !signals::requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    #[cfg(not(unix))]
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }

    #[cfg(unix)]
    {
        olog::info("shutdown", "signal received, stopping accept loop", &[]);
        // A follower first stops tailing its upstream, so no replicated
        // event lands between the worker drain and the checkpoint.
        if let Some(mut running) = follower.take() {
            running.stop();
            if let Some(reason) = running.stall_reason() {
                olog::warn(
                    "shutdown",
                    "replication had stalled",
                    &[("reason", Value::Str(&reason))],
                );
            }
        }
        // Order matters: `shutdown()` joins the epoll workers, so every
        // live session has been parked and every commit those workers
        // issued is at least *enqueued* on the group-commit queue before
        // the checkpoint below runs. The checkpoint then drains that
        // queue (flushing any in-flight batch) before capturing the
        // snapshot; checkpointing first would race the drain and could
        // snapshot ahead of still-queued acknowledged commits.
        handle.shutdown();
        if data_dir.is_some() {
            // Drain + checkpoint so the next boot starts from a snapshot
            // instead of a long WAL replay.
            match service.checkpoint() {
                Ok(stats) => olog::info(
                    "shutdown",
                    "checkpointed",
                    &[
                        ("generation", Value::U64(stats.generation)),
                        ("snapshot_bytes", Value::U64(stats.snapshot_bytes)),
                    ],
                ),
                Err(e) => {
                    olog::error(
                        "shutdown",
                        "checkpoint failed",
                        &[("error", Value::Str(&e.to_string()))],
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
        ExitCode::SUCCESS
    }
}

fn usage(message: &str) -> ExitCode {
    olog::error("cli", message, &[]);
    // The synopsis is user-facing help, not a log event: plain stderr.
    eprintln!(
        "USAGE: icdbd [--addr HOST:PORT] [--max-connections N] [--workers N] \
         [--data-dir DIR] [--no-fsync] [--group-commit-window MS] [--idle-timeout SECS] \
         [--replicate-from HOST:PORT] [--metrics-addr HOST:PORT] [--log-level LEVEL] \
         [--log-format text|json] [--slow-query-ms MS]"
    );
    ExitCode::FAILURE
}
