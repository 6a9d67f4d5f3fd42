//! Observability end-to-end: a real `icdbd` driven over TCP must answer
//! the read-only `metrics` CQL command and the `--metrics-addr` HTTP
//! endpoint with the *same* numbers — and both must agree with the
//! ground truth the `cache_query` and `persist` commands report, because
//! all three surfaces render one shared sample list
//! (`Icdb::metrics_samples` over `persist_fields`).
//!
//! Covered here:
//! - concurrent load → per-command request counters and latency
//!   histograms (with derived p50/p95/p99) on both surfaces;
//! - cache hit/miss/eviction mirrors equal to `cache_query`;
//! - WAL gauges equal to `persist`;
//! - sizing work counters that move by exactly the moves and trials of
//!   each freshly sized point, and not on a result-layer hit;
//! - a follower whose `lag_events` gauge reaches 0 after catch-up, with
//!   `icdb_role{role="follower"}` on the scrape;
//! - degraded mode (failpoints build): the latched fault flips
//!   `icdb_persist_degraded` / `icdb_wal_degraded` on every surface and
//!   `persist clear_fault:1` flips them back.

#![cfg(unix)]

use icdb::cql::CqlArg;
use icdb::net::IcdbClient;
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "icdb-obs-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .expect("bind ephemeral")
        .local_addr()
        .expect("addr")
        .port()
}

/// A spawned daemon, SIGKILLed on drop so a failing test never leaks it.
struct Daemon(Option<Child>);

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

// The `Daemon` guard kills + reaps in every path.
#[allow(clippy::zombie_processes)]
fn spawn_icdbd(port: u16, data_dir: &Path, extra: &[&str]) -> Daemon {
    let mut args = vec![
        "--addr".to_string(),
        format!("127.0.0.1:{port}"),
        "--data-dir".to_string(),
        data_dir.to_str().expect("utf-8 temp path").to_string(),
    ];
    args.extend(extra.iter().map(|s| (*s).to_string()));
    let child = Command::new(env!("CARGO_BIN_EXE_icdbd"))
        .args(&args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn icdbd");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if TcpStream::connect(("127.0.0.1", port)).is_ok() {
            return Daemon(Some(child));
        }
        assert!(Instant::now() < deadline, "icdbd did not come up");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn connect(port: u16) -> IcdbClient {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        match IcdbClient::connect(("127.0.0.1", port)) {
            Ok(client) => return client,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => panic!("cannot connect to icdbd: {e}"),
        }
    }
}

/// Waits until the metrics listener on `port` accepts connections; it may
/// come up a beat after the CQL one.
fn await_listener(port: u16) {
    let deadline = Instant::now() + Duration::from_secs(15);
    while TcpStream::connect(("127.0.0.1", port)).is_err() {
        assert!(
            Instant::now() < deadline,
            "metrics listener did not come up"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// One `GET /metrics` scrape; returns the exposition body.
fn scrape(port: u16) -> String {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect metrics port");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n")
        .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .expect("response has a header block");
    assert!(
        head.starts_with("HTTP/1.0 200"),
        "scrape must answer 200, got head `{head}`"
    );
    assert!(
        head.contains("text/plain"),
        "scrape content type must be text exposition, got `{head}`"
    );
    body.to_string()
}

/// The value of a label-less sample in an exposition body.
fn sample(body: &str, name: &str) -> f64 {
    let prefix = format!("{name} ");
    body.lines()
        .find_map(|line| line.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("exposition lacks `{name}`:\n{body}"))
        .trim()
        .parse()
        .expect("sample value parses")
}

/// Runs a CQL command expecting `n` integer outputs.
fn query_ints(client: &mut IcdbClient, command: &str, n: usize) -> Vec<i64> {
    let mut args: Vec<CqlArg> = (0..n).map(|_| CqlArg::OutInt(None)).collect();
    client.execute(command, &mut args).expect("query ints");
    args.iter()
        .map(|a| match a {
            CqlArg::OutInt(Some(v)) => *v,
            other => panic!("expected filled ?d, got {other:?}"),
        })
        .collect()
}

fn query_str(client: &mut IcdbClient, command: &str) -> String {
    let mut args = [CqlArg::OutStr(None)];
    client.execute(command, &mut args).expect("query str");
    match args {
        [CqlArg::OutStr(Some(s))] => s,
        other => panic!("expected filled ?s, got {other:?}"),
    }
}

/// Process-wide CPU ticks (utime + stime) of a pid, from `/proc`.
#[cfg(target_os = "linux")]
fn proc_cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read /proc stat");
    // Skip past `pid (comm)` — comm may contain spaces, so split at the
    // last `)`; utime/stime are stat(5) fields 14/15, i.e. 11/12 of the
    // remainder (which starts at field 3, the state).
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .expect("comm")
        .1
        .split_whitespace()
        .collect();
    fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime")
}

/// Regression: a metrics-port peer that connects and closes — or
/// half-closes with a partial request head — must be dropped, not left
/// registered. A leaked conn under level-triggered epoll makes worker 0
/// busy-spin at 100% CPU and leaks the fd, and routine LB/k8s health
/// probes do exactly this.
#[test]
fn metrics_probe_connections_are_dropped_not_leaked() {
    let dir = temp_dir("probe");
    let port = free_port();
    let mport = free_port();
    let maddr = format!("127.0.0.1:{mport}");
    let daemon = spawn_icdbd(port, &dir, &["--metrics-addr", &maddr]);
    await_listener(mport);

    // k8s-style probes: connect, then close without sending a byte.
    for _ in 0..8 {
        drop(TcpStream::connect(("127.0.0.1", mport)).expect("probe connect"));
    }
    // Half-close with an incomplete head: the server can never produce
    // a response, so it must close its side rather than keep the conn.
    let mut probe = TcpStream::connect(("127.0.0.1", mport)).expect("half-close connect");
    probe.write_all(b"GET /met").expect("partial head");
    probe
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    probe
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut sink = Vec::new();
    probe
        .read_to_end(&mut sink)
        .expect("server must close a half-closed probe, not hold it open");

    // The probes must not leave a worker busy-spinning on a leaked conn.
    #[cfg(target_os = "linux")]
    {
        let pid = daemon.0.as_ref().expect("child").id();
        let before = proc_cpu_ticks(pid);
        std::thread::sleep(Duration::from_millis(2_500));
        let delta = proc_cpu_ticks(pid) - before;
        assert!(
            delta < 100,
            "idle daemon burned {delta} CPU ticks in 2.5s after probes — leaked conn spinning?"
        );
    }
    let _ = &daemon;

    // And the endpoint still answers real scrapes.
    let body = scrape(mport);
    assert!(body.contains("# TYPE icdb_connections gauge"));
}

// ------------------------------------------------ surfaces must agree

/// Concurrent load against a real daemon, then every observability
/// surface is cross-checked: HTTP scrape vs `metrics` CQL (text and
/// typed) vs `cache_query` vs `persist`.
#[test]
fn metrics_cql_and_http_agree_with_cache_and_persist() {
    let dir = temp_dir("agree");
    let port = free_port();
    let mport = free_port();
    let maddr = format!("127.0.0.1:{mport}");
    let _daemon = spawn_icdbd(port, &dir, &["--metrics-addr", &maddr]);

    // Concurrent load: four clients, distinct + repeated requests, so
    // the cache sees both misses and hits and the WAL sees commits.
    let handles: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = connect(port);
                for i in 0..5 {
                    let size = 3 + (t + i) % 4;
                    let mut args = [CqlArg::OutStr(None)];
                    client
                        .execute(
                            &format!(
                                "command:request_component; component_name:counter; \
                                 attribute:(size:{size}); generated_component:?s"
                            ),
                            &mut args,
                        )
                        .expect("load request");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("load thread");
    }

    let mut client = connect(port);

    // An exploration sweep feeds the corpus surfaces too: cold misses,
    // recorded rows, and (on the repeat) exact-reuse prunes.
    for _ in 0..2 {
        let mut args = [CqlArg::OutStr(None)];
        client
            .execute(
                "command:explore; component:counter; widths:(3,4); winner:?s",
                &mut args,
            )
            .expect("sweep for corpus metrics");
    }

    // Both renderings carry the per-command latency histogram with
    // derived percentiles — the acceptance-criteria surface.
    let wire_text = client.metrics_text().expect("metrics text over CQL");
    let http_text = scrape(mport);
    for body in [&wire_text, &http_text] {
        for needle in [
            "# TYPE icdb_request_latency_us histogram",
            "icdb_requests_total{command=\"request_component\"}",
            "icdb_request_latency_us_bucket{command=\"request_component\",le=\"+Inf\"}",
            "icdb_request_latency_us_p50{command=\"request_component\"}",
            "icdb_request_latency_us_p95{command=\"request_component\"}",
            "icdb_request_latency_us_p99{command=\"request_component\"}",
            "icdb_wal_fsync_us_count",
            "icdb_wal_batch_events_sum",
            "icdb_cache_hit_ratio",
            "icdb_connections ",
            "icdb_repl_lag_events ",
            "icdb_corpus_entries ",
            "icdb_corpus_hits_total ",
            "icdb_corpus_misses_total ",
            "icdb_sweep_points_pruned_total ",
        ] {
            assert!(body.contains(needle), "surface lacks `{needle}`:\n{body}");
        }
    }
    assert!(
        sample(
            &http_text,
            "icdb_requests_total{command=\"request_component\"}"
        ) >= 20.0,
        "all 20 load requests must be counted"
    );

    // Ground truth from the classic commands…
    let cache = query_ints(
        &mut client,
        "command:cache_query; hits:?d; misses:?d; evictions:?d",
        3,
    );
    let persist = query_ints(
        &mut client,
        "command:persist; wal_events:?d; generation:?d; enabled:?d",
        3,
    );
    let corpus = query_ints(
        &mut client,
        "command:corpus; entries:?d; hits:?d; misses:?d; pruned:?d",
        4,
    );
    assert!(corpus[0] > 0, "the sweep must have recorded corpus rows");
    assert!(corpus[3] > 0, "the repeat sweep must have pruned via reuse");
    // …must match a scrape taken while the server is quiet (reads and
    // scrapes do not move cache or WAL counters).
    let body = scrape(mport);
    assert_eq!(sample(&body, "icdb_cache_hits_total") as i64, cache[0]);
    assert_eq!(sample(&body, "icdb_cache_misses_total") as i64, cache[1]);
    assert_eq!(sample(&body, "icdb_cache_evictions_total") as i64, cache[2]);
    assert_eq!(sample(&body, "icdb_wal_events") as i64, persist[0]);
    assert_eq!(sample(&body, "icdb_persist_generation") as i64, persist[1]);
    assert_eq!(sample(&body, "icdb_persist_enabled") as i64, persist[2]);
    assert_eq!(sample(&body, "icdb_corpus_entries") as i64, corpus[0]);
    assert_eq!(sample(&body, "icdb_corpus_hits_total") as i64, corpus[1]);
    assert_eq!(sample(&body, "icdb_corpus_misses_total") as i64, corpus[2]);
    assert_eq!(
        sample(&body, "icdb_sweep_points_pruned_total") as i64,
        corpus[3]
    );
    assert!(
        (sample(&body, "icdb_role{role=\"primary\"}") - 1.0).abs() < f64::EPSILON,
        "a primary advertises its role"
    );

    // The typed `metrics` command answers persist fields and label-less
    // samples directly, with the same values.
    let typed = query_ints(
        &mut client,
        "command:metrics; wal_events:?d; icdb_cache_hits_total:?d; icdb_connections:?d",
        3,
    );
    assert_eq!(typed[0], persist[0]);
    assert_eq!(typed[1], cache[0]);
    assert!(typed[2] >= 1, "this very connection is gauged");
}

// ---------------------------------------------------- sizing work

/// The moves and trials `size_netlist` spends on `fastest` `COUNTER` at
/// `size`, under the default output load a request implies.
fn fastest_counter_work(size: i64) -> (i64, i64) {
    use icdb::estimate::LoadSpec;
    use icdb::sizing::{size_netlist, Strategy};
    let icdb = icdb::Icdb::new();
    let imp = icdb.library.implementation("COUNTER").expect("builtin");
    let params = imp
        .bind_attributes(&[("size".to_string(), size.to_string())])
        .expect("size binds");
    let pairs: Vec<(&str, i64)> = params.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let flat = icdb::iif::expand(&imp.module, &pairs, &icdb.library).expect("expands");
    let mut nl =
        icdb::logic::synthesize(&flat, &icdb.cells, &Default::default()).expect("synthesizes");
    let r = size_netlist(
        &mut nl,
        &icdb.cells,
        &LoadSpec::uniform(10.0),
        &Strategy::Fastest,
    );
    (r.iterations as i64, r.trials as i64)
}

/// A fresh `fastest` request moves `icdb_sizing_moves_total` and
/// `icdb_sizing_trials_total` by exactly the moves and trials
/// `size_netlist` reports for its key; the repeated request, a result-layer
/// hit, moves neither; the scrape and the `metrics` command agree.
#[test]
fn sizing_counters_move_by_each_freshly_sized_point() {
    let dir = temp_dir("sizing");
    let port = free_port();
    let mport = free_port();
    let maddr = format!("127.0.0.1:{mport}");
    let _daemon = spawn_icdbd(port, &dir, &["--metrics-addr", &maddr]);
    await_listener(mport);
    let mut client = connect(port);
    let mut counters = || {
        let typed = query_ints(
            &mut client,
            "command:metrics; icdb_sizing_moves_total:?d; icdb_sizing_trials_total:?d",
            2,
        );
        let body = scrape(mport);
        assert_eq!(
            typed,
            vec![
                sample(&body, "icdb_sizing_moves_total") as i64,
                sample(&body, "icdb_sizing_trials_total") as i64,
            ],
            "the metrics command and the scrape agree"
        );
        (typed[0], typed[1])
    };
    let (moves, trials) = fastest_counter_work(5);
    assert!(
        moves > 0 && trials >= moves,
        "{moves} moves, {trials} trials"
    );

    let mut readings = vec![counters()];
    for _ in 0..2 {
        let mut args = [CqlArg::OutStr(None)];
        connect(port)
            .execute(
                "command:request_component; implementation:COUNTER; attribute:(size:5); \
                 strategy:fastest; generated_component:?s",
                &mut args,
            )
            .expect("fastest request");
        readings.push(counters());
    }
    assert_eq!(
        readings[1],
        (readings[0].0 + moves, readings[0].1 + trials),
        "a fresh point adds its own moves and trials"
    );
    assert_eq!(readings[2], readings[1], "a result-layer hit sizes nothing");
}

// ---------------------------------------------------- follower lag

/// A follower's replication gauges: `lag_events` reaches 0 after
/// catch-up on the CQL surface *and* the Prometheus scrape, which also
/// advertises `icdb_role{role="follower"}`.
#[test]
fn follower_lag_reaches_zero_on_both_surfaces() {
    let primary_dir = temp_dir("lag-primary");
    let follower_dir = temp_dir("lag-follower");
    let pport = free_port();
    let fport = free_port();
    let fmport = free_port();
    let _primary = spawn_icdbd(pport, &primary_dir, &[]);

    let mut load = connect(pport);
    for size in 3..9 {
        let mut args = [CqlArg::OutStr(None)];
        load.execute(
            &format!(
                "command:request_component; component_name:counter; \
                 attribute:(size:{size}); generated_component:?s"
            ),
            &mut args,
        )
        .expect("primary load");
    }
    let primary_events = query_ints(&mut load, "command:persist; wal_events:?d", 1)[0];
    assert!(primary_events >= 6);

    let upstream = format!("127.0.0.1:{pport}");
    let fmaddr = format!("127.0.0.1:{fmport}");
    let _follower = spawn_icdbd(
        fport,
        &follower_dir,
        &["--replicate-from", &upstream, "--metrics-addr", &fmaddr],
    );

    // Catch-up: poll the canonical persist surface until lag hits 0.
    let mut follower = connect(fport);
    let deadline = Instant::now() + Duration::from_secs(30);
    let applied = loop {
        let v = query_ints(
            &mut follower,
            "command:persist; lag_events:?d; applied_seq:?d",
            2,
        );
        if v[0] == 0 && v[1] > 0 {
            break v[1];
        }
        assert!(Instant::now() < deadline, "follower never caught up: {v:?}");
        std::thread::sleep(Duration::from_millis(50));
    };

    // The metrics command and the scrape agree with persist.
    let typed = query_ints(
        &mut follower,
        "command:metrics; lag_events:?d; applied_seq:?d",
        2,
    );
    assert_eq!(typed, vec![0, applied]);
    assert_eq!(
        query_str(&mut follower, "command:metrics; role:?s"),
        "follower"
    );

    let body = scrape(fmport);
    assert_eq!(sample(&body, "icdb_persist_lag_events") as i64, 0);
    assert_eq!(sample(&body, "icdb_persist_applied_seq") as i64, applied);
    assert_eq!(sample(&body, "icdb_repl_applied_seq") as i64, applied);
    assert!(
        (sample(&body, "icdb_role{role=\"follower\"}") - 1.0).abs() < f64::EPSILON,
        "a follower advertises its role:\n{body}"
    );
}

// ------------------------------------------------- degraded mode

/// Degraded mode on the observability surfaces (failpoints build): the
/// first durability fault flips `icdb_persist_degraded` (derived from
/// the shared persist fields) and `icdb_wal_degraded` (the group-commit
/// latch) to 1 everywhere; `persist clear_fault:1` flips both back.
#[cfg(feature = "failpoints")]
mod degraded {
    use super::*;
    use icdb::net::Server;
    use icdb::store::fail::{self, FailKind, Trigger};
    use icdb::{IcdbError, IcdbService};
    use std::sync::Arc;

    #[test]
    fn degraded_mode_flips_metrics_on_every_surface() {
        fail::reset();
        let dir = temp_dir("degraded");
        let service =
            Arc::new(IcdbService::open_with_options(&dir, false, Duration::ZERO).unwrap());
        let server = Server::bind("127.0.0.1:0", Arc::clone(&service), 8).unwrap();
        let handle = server.spawn().unwrap();
        let mut client = IcdbClient::connect(handle.addr()).unwrap();

        let healthy = query_ints(
            &mut client,
            "command:metrics; degraded:?d; fault_errno:?d",
            2,
        );
        assert_eq!(healthy, vec![0, 0]);
        assert!(service.metrics_text().contains("icdb_persist_degraded 0"));
        assert!(service.metrics_text().contains("icdb_wal_degraded 0"));

        // The disk dies: every WAL append refuses with ENOSPC.
        fail::config("wal.append", Trigger::Always, FailKind::Enospc);
        let refused = client.execute(
            "command:request_component; component_name:counter; attribute:(size:4); \
             generated_component:?s",
            &mut [CqlArg::OutStr(None)],
        );
        assert!(
            matches!(refused, Err(IcdbError::ReadOnly(_))),
            "durability fault must refuse the commit, got {refused:?}"
        );

        let vitals = query_ints(
            &mut client,
            "command:metrics; degraded:?d; fault_errno:?d",
            2,
        );
        assert_eq!(vitals, vec![1, 28], "metrics reports degraded + ENOSPC");
        let text = service.metrics_text();
        assert!(text.contains("icdb_persist_degraded 1"), "{text}");
        assert!(text.contains("icdb_wal_degraded 1"), "{text}");
        assert!(text.contains("icdb_persist_fault_errno 28"), "{text}");

        // Disk fixed, operator re-arms: both latches drop on all surfaces.
        fail::remove("wal.append");
        let cleared = query_ints(
            &mut client,
            "command:persist; clear_fault:1; degraded:?d; fault_errno:?d",
            2,
        );
        assert_eq!(cleared, vec![0, 0]);
        let text = service.metrics_text();
        assert!(text.contains("icdb_persist_degraded 0"), "{text}");
        assert!(text.contains("icdb_wal_degraded 0"), "{text}");

        handle.shutdown();
        fail::reset();
    }
}
