//! Replication properties, in-process: a primary `Server` over a durable
//! `IcdbService`, a follower bootstrapped with [`icdb::repl::bootstrap`]
//! from a mid-history image (snapshot generation + nonempty WAL tail),
//! both driven over real TCP.
//!
//! Pinned properties:
//! - a follower bootstrapped mid-history converges to **byte-identical**
//!   read transcripts across every replicated namespace;
//! - `wait_seq` blocks until replication catches up (read-your-writes)
//!   and times out honestly;
//! - the `hello` handshake reports protocol/role, mutations on a
//!   follower fail typed as [`IcdbError::NotPrimary`], and `persist`
//!   reports the replication position;
//! - `persist promote:1` re-arms the follower as a writable primary and
//!   the tail loop stops itself cleanly;
//! - the cluster-aware client builder routes reads to the follower
//!   (surviving a primary outage) and falls back to the primary when the
//!   follower is unreachable.

#![cfg(unix)]

use icdb::cql::CqlArg;
use icdb::net::{IcdbClient, ReadPreference, RetryPolicy, Server, ServerHandle};
use icdb::{IcdbError, IcdbService};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("icdb-repl-props-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable primary service served on an ephemeral port.
fn spawn_primary(dir: &PathBuf) -> (Arc<IcdbService>, ServerHandle, SocketAddr) {
    let service =
        Arc::new(IcdbService::open_with_options(dir, true, Duration::ZERO).expect("open primary"));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service), 16).expect("bind primary");
    let addr = server.local_addr().expect("primary addr");
    let handle = server.spawn().expect("spawn primary");
    (service, handle, addr)
}

/// Serves an already-bootstrapped follower service on an ephemeral port.
fn spawn_follower_server(service: &Arc<IcdbService>) -> (ServerHandle, SocketAddr) {
    let server = Server::bind("127.0.0.1:0", Arc::clone(service), 16).expect("bind follower");
    let addr = server.local_addr().expect("follower addr");
    (server.spawn().expect("spawn follower"), addr)
}

/// A string-typed CQL exchange; errors join the transcript (they must
/// match across nodes too).
fn exchange(client: &mut IcdbClient, command: &str, inputs: &[&str], outs: usize) -> Vec<String> {
    let mut args: Vec<CqlArg> = inputs
        .iter()
        .map(|s| CqlArg::InStr((*s).to_string()))
        .collect();
    for _ in 0..outs {
        args.push(CqlArg::OutStr(None));
    }
    match client.execute(command, &mut args) {
        Ok(()) => args
            .iter()
            .filter_map(|a| match a {
                CqlArg::OutStr(v) => Some(v.clone().unwrap_or_default()),
                _ => None,
            })
            .collect(),
        Err(e) => vec![format!("ERR {e}")],
    }
}

/// A namespace's mutation workload, parameterized so two namespaces hold
/// different state.
fn mutate(client: &mut IcdbClient, size: u32) -> Vec<String> {
    let mut log = Vec::new();
    log.extend(exchange(
        client,
        &format!(
            "command:request_component; component_name:counter; attribute:(size:{size}); \
             clock_width:30; generated_component:?s"
        ),
        &[],
        1,
    ));
    log.extend(exchange(
        client,
        &format!(
            "command:request_component; implementation:ADDER; attribute:(size:{size}); \
             generated_component:?s; CIF_layout:?s"
        ),
        &[],
        2,
    ));
    log.extend(exchange(
        client,
        "command:insert_component; IIF:%s; component:Counter; function:(INC,TICK); \
         description:acquired-for-replication; inserted:?s",
        &["NAME: REPL_TICKER; INORDER: A, B; OUTORDER: O; { O = A * B; }"],
        1,
    ));
    log
}

/// The read-only transcript compared byte-for-byte between primary and
/// follower.
fn transcript(client: &mut IcdbClient, size: u32) -> Vec<String> {
    let mut t = Vec::new();
    for instance in ["counter$1", "adder$2"] {
        t.extend(exchange(
            client,
            "command:instance_query; generated_component:%s; delay:?s; shape_function:?s; \
             area:?s; VHDL_head:?s",
            &[instance],
            4,
        ));
    }
    t.extend(exchange(
        client,
        "command:instance_query; generated_component:%s; CIF_layout:?s",
        &["adder$2"],
        1,
    ));
    t.extend(exchange(
        client,
        &format!(
            "command:explore; component:counter; widths:({size},{}); strategies:(cheapest,fastest); \
             winner:?s; table:?s",
            size + 1
        ),
        &[],
        2,
    ));
    t
}

/// The follower's replication position over the wire.
fn repl_position(client: &mut IcdbClient) -> (String, String, i64, i64) {
    let mut args = vec![
        CqlArg::OutStr(None),
        CqlArg::OutStr(None),
        CqlArg::OutInt(None),
        CqlArg::OutInt(None),
    ];
    client
        .execute(
            "command:persist; role:?s; upstream:?s; applied_seq:?d; lag_events:?d",
            &mut args,
        )
        .expect("persist position query");
    let s = |a: &CqlArg| match a {
        CqlArg::OutStr(Some(v)) => v.clone(),
        _ => String::new(),
    };
    let d = |a: &CqlArg| match a {
        CqlArg::OutInt(Some(v)) => *v,
        _ => -1,
    };
    (s(&args[0]), s(&args[1]), d(&args[2]), d(&args[3]))
}

#[test]
fn mid_history_bootstrap_yields_byte_identical_transcripts() {
    let dir_p = temp_dir("primary");
    let dir_f = temp_dir("follower");
    let (_service_p, handle_p, addr_p) = spawn_primary(&dir_p);

    // Namespace 1: mutations, then a checkpoint (snapshot generation
    // rolls), then more mutations — the bootstrap image is snapshot N
    // plus a nonempty WAL tail.
    let mut client1 = IcdbClient::connect(addr_p).expect("connect primary");
    let ns1 = client1.session_ns().expect("ns from greeting");
    mutate(&mut client1, 4);
    let mut none: Vec<CqlArg> = vec![];
    client1
        .execute("command:persist; checkpoint:1", &mut none)
        .expect("mid-history checkpoint");
    // Namespace 2: a different workload, entirely after the checkpoint.
    let mut client2 = IcdbClient::connect(addr_p).expect("connect primary");
    let ns2 = client2.session_ns().expect("ns from greeting");
    mutate(&mut client2, 6);
    mutate(&mut client1, 5);

    let follower = icdb::repl::bootstrap(&addr_p.to_string(), &dir_f, true, Duration::ZERO)
        .expect("bootstrap follower");
    assert_eq!(follower.service().role(), "follower");
    let (handle_f, addr_f) = spawn_follower_server(follower.service());

    // Read-your-writes barrier: wait until the follower has replayed
    // everything each primary client saw acked.
    let mut fclient1 = IcdbClient::connect(addr_f).expect("connect follower");
    fclient1.attach(ns1).expect("attach replicated ns1");
    let caught_up = fclient1
        .wait_seq(client1.last_commit_seq(), Duration::from_secs(10))
        .expect("follower catches up on ns1");
    assert!(caught_up >= client1.last_commit_seq());
    let mut fclient2 = IcdbClient::connect(addr_f).expect("connect follower");
    fclient2.attach(ns2).expect("attach replicated ns2");
    fclient2
        .wait_seq(client2.last_commit_seq(), Duration::from_secs(10))
        .expect("follower catches up on ns2");

    // The whole read surface answers locally, byte-identical, in every
    // replicated namespace.
    assert_eq!(transcript(&mut client1, 4), transcript(&mut fclient1, 4));
    assert_eq!(transcript(&mut client2, 6), transcript(&mut fclient2, 6));

    // The handshake and the persist surface report the topology.
    let hello = fclient1.hello().expect("hello on follower");
    assert_eq!(hello.protocol, icdb::net::PROTOCOL_VERSION);
    assert_eq!(hello.role, "follower");
    assert_eq!(client1.hello().expect("hello on primary").role, "primary");
    let (role, upstream, applied, lag) = repl_position(&mut fclient1);
    assert_eq!(role, "follower");
    assert_eq!(upstream, addr_p.to_string());
    assert!(applied > 0, "applied_seq not reported: {applied}");
    assert_eq!(lag, 0, "follower should be caught up");

    // Mutations on the follower are refused, typed.
    let mut args = vec![CqlArg::OutStr(None)];
    let refusal = fclient1.execute(
        "command:request_component; implementation:ADDER; attribute:(size:9); \
         generated_component:?s",
        &mut args,
    );
    assert!(
        matches!(refusal, Err(IcdbError::NotPrimary(ref m)) if m.contains(&addr_p.to_string())),
        "expected NotPrimary naming the upstream, got {refusal:?}"
    );
    assert!(follower.stall_reason().is_none(), "replication stalled");

    handle_f.shutdown();
    handle_p.shutdown();
    drop(follower);
    std::fs::remove_dir_all(&dir_p).ok();
    std::fs::remove_dir_all(&dir_f).ok();
}

/// The exploration corpus rides the WAL-shipping stream like any other
/// journaled state: a primary sweep's recorded rows converge onto the
/// follower, which serves byte-identical `corpus` answers locally — and
/// a follower-side sweep of uncovered grid points must *not* fork the
/// corpus (its un-journalable pending rows are discarded, not applied).
#[test]
fn follower_serves_corpus_reads_and_converges() {
    fn corpus_answer(client: &mut IcdbClient) -> (i64, Vec<String>) {
        let mut args = vec![CqlArg::OutInt(None), CqlArg::OutStrList(None)];
        client
            .execute("command:corpus; entries:?d; list:?s[]", &mut args)
            .expect("corpus query");
        let CqlArg::OutStrList(Some(list)) = args.pop().unwrap() else {
            panic!("no corpus list");
        };
        let CqlArg::OutInt(Some(entries)) = args[0] else {
            panic!("no corpus entry count");
        };
        (entries, list)
    }

    let dir_p = temp_dir("corpus-primary");
    let dir_f = temp_dir("corpus-follower");
    let (_service_p, handle_p, addr_p) = spawn_primary(&dir_p);

    // A primary sweep records corpus rows; the journal flush rides the
    // explore command itself, so by the time the response lands the rows
    // are in the WAL.
    let mut client = IcdbClient::connect(addr_p).expect("connect primary");
    let mut args = vec![CqlArg::OutStr(None)];
    client
        .execute(
            "command:explore; component:counter; widths:(3,4); \
             strategies:(cheapest,fastest); winner:?s",
            &mut args,
        )
        .expect("primary sweep");
    let primary_answer = corpus_answer(&mut client);
    assert!(primary_answer.0 > 0, "primary sweep must record rows");

    let follower = icdb::repl::bootstrap(&addr_p.to_string(), &dir_f, true, Duration::ZERO)
        .expect("bootstrap follower");
    let (handle_f, addr_f) = spawn_follower_server(follower.service());
    let mut fclient = IcdbClient::connect(addr_f).expect("connect follower");

    // Convergence barrier: poll the replication position until the
    // follower has applied everything durable upstream.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, _, applied, lag) = repl_position(&mut fclient);
        if applied > 0 && lag == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "follower never caught up");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        corpus_answer(&mut fclient),
        primary_answer,
        "replicated corpus answers must be byte-identical"
    );

    // A follower-side sweep over *uncovered* grid points queues rows it
    // cannot journal; they must be discarded — same answers afterwards,
    // no divergence from the primary.
    let mut args = vec![CqlArg::OutStr(None)];
    fclient
        .execute(
            "command:explore; component:counter; widths:(5); winner:?s",
            &mut args,
        )
        .expect("follower sweep");
    assert_eq!(
        corpus_answer(&mut fclient),
        primary_answer,
        "a follower sweep must not fork the corpus"
    );
    assert!(follower.stall_reason().is_none(), "replication stalled");

    handle_f.shutdown();
    handle_p.shutdown();
    drop(follower);
    std::fs::remove_dir_all(&dir_p).ok();
    std::fs::remove_dir_all(&dir_f).ok();
}

#[test]
fn wait_seq_blocks_until_the_event_arrives_and_times_out_honestly() {
    let dir_p = temp_dir("waitseq-primary");
    let dir_f = temp_dir("waitseq-follower");
    let (_service_p, handle_p, addr_p) = spawn_primary(&dir_p);

    let mut client = IcdbClient::connect(addr_p).expect("connect primary");
    let ns = client.session_ns().expect("ns from greeting");
    mutate(&mut client, 4);
    let seq_before = client.last_commit_seq();

    let follower = icdb::repl::bootstrap(&addr_p.to_string(), &dir_f, true, Duration::ZERO)
        .expect("bootstrap follower");
    let (handle_f, addr_f) = spawn_follower_server(follower.service());
    let mut fclient = IcdbClient::connect(addr_f).expect("connect follower");
    fclient.attach(ns).expect("attach replicated ns");
    fclient
        .wait_seq(seq_before, Duration::from_secs(10))
        .expect("catch up to the pre-bootstrap history");

    // Block on a sequence that does not exist yet; release it from a
    // delayed primary mutation. The writer hands its client back: were it
    // dropped, the primary would journal the namespace's drop, and the
    // follower could apply that before the `wait_seq` calls below.
    let writer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        mutate(&mut client, 5);
        client
    });
    let started = Instant::now();
    let seen = fclient
        .wait_seq(seq_before + 1, Duration::from_secs(10))
        .expect("wait_seq releases when the replicated event lands");
    let elapsed = started.elapsed();
    assert!(seen > seq_before);
    assert!(
        elapsed >= Duration::from_millis(150),
        "wait_seq returned in {elapsed:?} — it must actually block"
    );
    let client = writer.join().expect("writer thread");
    let final_seq = client.last_commit_seq();
    fclient
        .wait_seq(final_seq, Duration::from_secs(10))
        .expect("full catch-up");

    // A sequence nobody will ever write times out with the typed error.
    let timeout = fclient.wait_seq(final_seq + 1_000, Duration::from_millis(200));
    assert!(
        matches!(timeout, Err(IcdbError::Cql(ref m)) if m.contains("timed out")),
        "expected a wait_seq timeout, got {timeout:?}"
    );
    drop(client);

    handle_f.shutdown();
    handle_p.shutdown();
    drop(follower);
    std::fs::remove_dir_all(&dir_p).ok();
    std::fs::remove_dir_all(&dir_f).ok();
}

#[test]
fn promote_rearms_the_follower_as_a_writable_primary() {
    let dir_p = temp_dir("promote-primary");
    let dir_f = temp_dir("promote-follower");
    let (_service_p, handle_p, addr_p) = spawn_primary(&dir_p);

    let mut client = IcdbClient::connect(addr_p).expect("connect primary");
    let ns = client.session_ns().expect("ns from greeting");
    mutate(&mut client, 4);

    let follower = icdb::repl::bootstrap(&addr_p.to_string(), &dir_f, true, Duration::ZERO)
        .expect("bootstrap follower");
    let (handle_f, addr_f) = spawn_follower_server(follower.service());
    let mut fclient = IcdbClient::connect(addr_f).expect("connect follower");
    fclient.attach(ns).expect("attach replicated ns");
    fclient
        .wait_seq(client.last_commit_seq(), Duration::from_secs(10))
        .expect("catch up before promoting");

    let mut none: Vec<CqlArg> = vec![];
    fclient
        .execute("command:persist; promote:1", &mut none)
        .expect("promote the follower");
    assert_eq!(fclient.hello().expect("hello").role, "primary");
    let (role, upstream, _, _) = repl_position(&mut fclient);
    assert_eq!(role, "primary");
    assert_eq!(upstream, "", "promotion clears the upstream");

    // The promoted node accepts writes on the replicated namespace.
    let mut args = vec![CqlArg::OutStr(None)];
    fclient
        .execute(
            "command:request_component; implementation:ADDER; attribute:(size:7); \
             generated_component:?s",
            &mut args,
        )
        .expect("writes accepted after promotion");
    assert!(matches!(&args[0], CqlArg::OutStr(Some(name)) if name.starts_with("adder$")));

    // The tail loop notices the promotion on its next poll round and
    // stops itself — cleanly, not as a stall. Give it a couple of
    // long-poll rounds, then join (instant once the loop has exited).
    std::thread::sleep(Duration::from_millis(1_200));
    assert!(
        follower.stall_reason().is_none(),
        "promotion must be a clean self-stop, not a stall: {:?}",
        follower.stall_reason()
    );
    let mut follower = follower;
    follower.stop();

    handle_f.shutdown();
    handle_p.shutdown();
    std::fs::remove_dir_all(&dir_p).ok();
    std::fs::remove_dir_all(&dir_f).ok();
}

#[test]
fn cluster_client_routes_reads_to_the_follower_and_falls_back() {
    let dir_p = temp_dir("cluster-primary");
    let dir_f = temp_dir("cluster-follower");
    let (_service_p, handle_p, addr_p) = spawn_primary(&dir_p);
    let follower = icdb::repl::bootstrap(&addr_p.to_string(), &dir_f, true, Duration::ZERO)
        .expect("bootstrap follower");
    let (handle_f, addr_f) = spawn_follower_server(follower.service());

    let fast_fail = RetryPolicy {
        max_retries: 1,
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(2),
        ..RetryPolicy::default()
    };
    let mut cluster = IcdbClient::builder()
        .primary(addr_p)
        .follower(addr_f)
        .retry_policy(fast_fail.clone())
        .read_preference(ReadPreference::PreferFollower)
        .read_your_writes(true)
        .connect()
        .expect("cluster client connects");

    // Mutations go to the primary; the follower-routed read that follows
    // waits out replication lag via wait_seq before answering.
    let log = mutate(&mut cluster, 4);
    assert!(log.iter().any(|l| l == "counter$1"), "{log:?}");
    let read = exchange(
        &mut cluster,
        "command:instance_query; generated_component:%s; delay:?s",
        &["counter$1"],
        1,
    );
    assert!(read[0].contains("CW "), "follower read failed: {read:?}");

    // Kill the primary: reads keep working (served by the follower).
    handle_p.shutdown();
    let read = exchange(
        &mut cluster,
        "command:instance_query; generated_component:%s; delay:?s",
        &["counter$1"],
        1,
    );
    assert!(
        read[0].contains("CW "),
        "reads must survive a primary outage: {read:?}"
    );
    // Mutations cannot: they need the primary.
    let mut args = vec![CqlArg::OutStr(None)];
    assert!(cluster
        .execute(
            "command:request_component; implementation:ADDER; attribute:(size:8); \
             generated_component:?s",
            &mut args,
        )
        .is_err());

    // Fallback direction: a dead follower endpoint must not break reads.
    let dir_p2 = temp_dir("cluster-primary2");
    let (_service_p2, handle_p2, addr_p2) = spawn_primary(&dir_p2);
    let dead = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe");
        probe.local_addr().expect("probe addr")
    };
    let mut lopsided = IcdbClient::builder()
        .primary(addr_p2)
        .follower(dead)
        .retry_policy(fast_fail)
        .read_preference(ReadPreference::PreferFollower)
        .read_your_writes(true)
        .connect()
        .expect("cluster client with dead follower connects");
    let log = mutate(&mut lopsided, 4);
    assert!(log.iter().any(|l| l == "counter$1"), "{log:?}");
    let read = exchange(
        &mut lopsided,
        "command:instance_query; generated_component:%s; delay:?s",
        &["counter$1"],
        1,
    );
    assert!(
        read[0].contains("CW "),
        "reads must fall back to the primary: {read:?}"
    );

    handle_f.shutdown();
    handle_p2.shutdown();
    drop(follower);
    std::fs::remove_dir_all(&dir_p).ok();
    std::fs::remove_dir_all(&dir_f).ok();
    std::fs::remove_dir_all(&dir_p2).ok();
}
