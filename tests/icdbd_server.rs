//! End-to-end tests of the `icdbd` TCP server: wire round-trips are
//! byte-identical to the embedded API for every CQL command, connections
//! get isolated sessions, mutating acks carry the commit sequence, and the
//! connection cap and the request-line cap refuse politely.

use icdb::cql::{scan_slots, CqlArg, SlotSpec, SlotType, Tier, COMMANDS};
use icdb::net::{IcdbClient, Server, MAX_LINE};
use icdb::{Icdb, IcdbError, IcdbService};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn spawn_server(max_connections: usize) -> (icdb::net::ServerHandle, Arc<IcdbService>) {
    let service = Arc::new(IcdbService::new());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service), max_connections)
        .expect("bind ephemeral port");
    (server.spawn().expect("spawn server"), service)
}

#[test]
fn wire_results_match_the_embedded_api() {
    let (handle, _service) = spawn_server(8);
    let mut client = IcdbClient::connect(handle.addr()).unwrap();

    // Generate a counter over the wire, with a multiline %s constraint
    // input — the paper's §3.2.2 request verbatim.
    let mut args = vec![
        CqlArg::InStr("rdelay Q[4] 10\noload Q[4] 10".into()),
        CqlArg::OutStr(None),
    ];
    client
        .execute(
            "command:request_component; component_name:counter; attribute:(size:5); \
             function:(INC); clock_width:30; comb_delay:%s; set_up_time:30; \
             generated_component:?s",
            &mut args,
        )
        .unwrap();
    let CqlArg::OutStr(Some(name)) = &args[1] else {
        panic!("no instance name");
    };
    assert_eq!(name, "counter$1");

    // Query delay + shape over the wire (multiline outputs).
    let mut args = vec![
        CqlArg::InStr(name.clone()),
        CqlArg::OutStr(None),
        CqlArg::OutStr(None),
    ];
    client
        .execute(
            "command:instance_query; generated_component:%s; delay:?s; shape_function:?s",
            &mut args,
        )
        .unwrap();
    let CqlArg::OutStr(Some(wire_delay)) = &args[1] else {
        panic!("no delay");
    };
    let CqlArg::OutStr(Some(wire_shape)) = &args[2] else {
        panic!("no shape");
    };

    // Byte-identical to the same sequence against an embedded server.
    let mut solo = Icdb::new();
    let mut solo_args = vec![
        CqlArg::InStr("rdelay Q[4] 10\noload Q[4] 10".into()),
        CqlArg::OutStr(None),
    ];
    solo.execute(
        "command:request_component; component_name:counter; attribute:(size:5); \
         function:(INC); clock_width:30; comb_delay:%s; set_up_time:30; \
         generated_component:?s",
        &mut solo_args,
    )
    .unwrap();
    assert_eq!(wire_delay, &solo.delay_string("counter$1").unwrap());
    assert_eq!(wire_shape, &solo.shape_string("counter$1").unwrap());

    // List outputs travel too.
    let mut args = vec![CqlArg::OutStrList(None)];
    client
        .execute(
            "command:function_query; function:(ADD,SUB); implementation:?s[]",
            &mut args,
        )
        .unwrap();
    let CqlArg::OutStrList(Some(impls)) = &args[0] else {
        panic!("no list");
    };
    assert!(impls.contains(&"ADDSUB".to_string()), "{impls:?}");

    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn connections_are_isolated_sessions() {
    let (handle, service) = spawn_server(8);
    let mut a = IcdbClient::connect(handle.addr()).unwrap();
    let mut b = IcdbClient::connect(handle.addr()).unwrap();
    let command = "command:request_component; component_name:counter; attribute:(size:4); \
                   generated_component:?s";

    let mut args = vec![CqlArg::OutStr(None)];
    a.execute(command, &mut args).unwrap();
    let CqlArg::OutStr(Some(name_a)) = &args[0] else {
        panic!()
    };
    let mut args = vec![CqlArg::OutStr(None)];
    b.execute(command, &mut args).unwrap();
    let CqlArg::OutStr(Some(name_b)) = &args[0] else {
        panic!()
    };
    // Independent per-session naming counters…
    assert_eq!(name_a, "counter$1");
    assert_eq!(name_b, "counter$1");
    // …but one shared generation cache underneath.
    assert_eq!(service.cache_stats().result.hits, 1);

    // B cannot see A's instance beyond the name coincidence: query B's own
    // session for an instance that only A created more of.
    let mut args = vec![CqlArg::OutStr(None)];
    a.execute(command, &mut args).unwrap(); // counter$2 in A
    let mut args = vec![CqlArg::InStr("counter$2".into()), CqlArg::OutStr(None)];
    let err = b
        .execute(
            "command:instance_query; generated_component:%s; delay:?s",
            &mut args,
        )
        .unwrap_err();
    assert!(err.to_string().contains("counter$2"), "{err}");

    // A malformed command errors without killing the connection.
    let mut args = vec![];
    assert!(b.execute("command:bogus_command", &mut args).is_err());
    let mut args = vec![CqlArg::OutInt(None)];
    b.execute("command:cache_query; hits:?d", &mut args)
        .unwrap();

    // ERR reason codes distinguish protocol-parse failures from command
    // failures: bad slot syntax never reaches the executor (`ERR parse`),
    // while an unknown command executes and fails (`ERR cql`).
    let parse_err = b.execute("command:x; y:%q", &mut []).unwrap_err();
    assert!(
        matches!(&parse_err, IcdbError::Parse(m) if m.contains("slot")),
        "expected a parse-coded error, got {parse_err:?}"
    );
    let cql_err = b.execute("command:bogus_command", &mut []).unwrap_err();
    assert!(
        matches!(&cql_err, IcdbError::Cql(m) if m.contains("bogus_command")),
        "expected a cql-coded error, got {cql_err:?}"
    );

    a.quit().unwrap();
    b.quit().unwrap();
    handle.shutdown();
}

#[test]
fn explore_runs_over_the_wire() {
    let (handle, _service) = spawn_server(4);
    let mut client = IcdbClient::connect(handle.addr()).unwrap();

    // Sweep the counter implementations over three widths with the delay
    // bound arriving through a typed %r constraint slot.
    let command = "command:explore; component:counter; widths:(3,4,5); \
                   strategies:(cheapest,fastest); max_delay:%r; workers:2; \
                   winner:?s; front:?s[]; points:?d; front_size:?d";
    let mut args = vec![
        CqlArg::InReal(1e9), // any point qualifies: winner = min area
        CqlArg::OutStr(None),
        CqlArg::OutStrList(None),
        CqlArg::OutInt(None),
        CqlArg::OutInt(None),
    ];
    client.execute(command, &mut args).unwrap();
    let CqlArg::OutStr(Some(wire_winner)) = &args[1] else {
        panic!("no winner");
    };
    let CqlArg::OutStrList(Some(wire_front)) = &args[2] else {
        panic!("no front");
    };
    let (CqlArg::OutInt(Some(points)), CqlArg::OutInt(Some(front_size))) = (&args[3], &args[4])
    else {
        panic!("no counts");
    };
    assert!(
        *points >= 18,
        "3+ impls x 3 widths x 2 strategies: {points}"
    );
    assert_eq!(*front_size as usize, wire_front.len());
    assert!(!wire_winner.is_empty());

    // Byte-identical to the embedded sweep.
    let icdb = Icdb::new();
    let report = icdb
        .explore(
            &icdb::ExploreSpec::by_component("counter")
                .widths([3, 4, 5])
                .strategies(["cheapest", "fastest"])
                .objective(icdb::Objective::MinAreaUnderDelay(1e9))
                .workers(2),
        )
        .unwrap();
    assert_eq!(wire_front, &report.front_lines());
    assert_eq!(wire_winner, &report.winner_point().unwrap().label());

    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn connection_cap_refuses_politely_and_recovers() {
    let (handle, service) = spawn_server(2);
    let a = IcdbClient::connect(handle.addr()).unwrap();
    let b = IcdbClient::connect(handle.addr()).unwrap();

    // Third connection is refused with an `ERR capacity` greeting, which
    // the client maps onto `Unsupported` — distinguishable from the
    // `Cql`/`Parse` errors a live session produces.
    let err = IcdbClient::connect(handle.addr()).unwrap_err();
    assert!(
        matches!(&err, IcdbError::Unsupported(m) if m.contains("connection capacity")),
        "unexpected error: {err:?}"
    );

    // Capacity frees up once a client leaves (the server tears the session
    // down asynchronously, so poll briefly).
    a.quit().unwrap();
    let mut again = None;
    for _ in 0..100 {
        match IcdbClient::connect(handle.addr()) {
            Ok(c) => {
                again = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    let mut again = again.expect("capacity should free after quit");
    let mut args = vec![CqlArg::OutInt(None)];
    again
        .execute("command:cache_query; capacity:?d", &mut args)
        .unwrap();

    // Every live connection is one open session on the service.
    assert!(service.session_count() >= 2);
    again.quit().unwrap();
    b.quit().unwrap();
    handle.shutdown();
}

#[test]
fn serves_with_commit_seq_acks() {
    let (handle, _service) = spawn_server(4);
    let mut client = IcdbClient::connect(handle.addr()).unwrap();
    // The greeting names the session namespace.
    assert!(client.session_ns().is_some());
    assert_eq!(client.last_commit_seq(), 0);
    let mut args = vec![CqlArg::OutStr(None)];
    client
        .execute(
            "command:request_component; implementation:ADDER; attribute:(size:4); \
             generated_component:?s",
            &mut args,
        )
        .unwrap();
    let name = match &args[0] {
        CqlArg::OutStr(Some(name)) => name.clone(),
        other => panic!("expected generated component, got {other:?}"),
    };
    let seq = client.last_commit_seq();
    assert!(seq >= 1, "mutating ack must advance the commit seq");

    let mut read_args = vec![CqlArg::InStr(name), CqlArg::OutStr(None)];
    client
        .execute(
            "command:instance_query; generated_component:%s; delay:?s",
            &mut read_args,
        )
        .unwrap();
    assert!(matches!(&read_args[1], CqlArg::OutStr(Some(d)) if !d.is_empty()));
    assert_eq!(
        client.last_commit_seq(),
        seq,
        "read-only acks must not move the commit seq"
    );

    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn oversized_request_line_is_refused_and_closed() {
    let (handle, _service) = spawn_server(4);
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut greeting = String::new();
    reader.read_line(&mut greeting).unwrap();
    assert!(greeting.starts_with("OK icdbd ready"), "{greeting}");

    // One byte over the cap, no newline: the server must refuse before
    // it ever sees the end of the line.
    (&stream).write_all(&vec![b'x'; MAX_LINE + 1]).unwrap();
    let mut refusal = String::new();
    reader.read_line(&mut refusal).unwrap();
    assert_eq!(
        refusal,
        format!("ERR parse request line exceeds {MAX_LINE} bytes\n")
    );
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "then a close");

    // The server keeps serving other connections.
    let mut client = IcdbClient::connect(handle.addr()).unwrap();
    let mut args = vec![CqlArg::OutInt(None)];
    client
        .execute("command:cache_query; capacity:?d", &mut args)
        .unwrap();
    client.quit().unwrap();
    handle.shutdown();
}

/// An `icdbd` process of its own, so its per-command request counters
/// see only this test's traffic; killed on drop.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_icdbd() -> (Daemon, u16) {
    let port = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port();
    let daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_icdbd"))
            .args(["--addr", &format!("127.0.0.1:{port}"), "--workers", "1"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn icdbd"),
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    while TcpStream::connect(("127.0.0.1", port)).is_err() {
        assert!(Instant::now() < deadline, "icdbd did not come up");
        std::thread::sleep(Duration::from_millis(50));
    }
    (daemon, port)
}

/// A two-gate implementation for the knowledge-acquisition request.
const TICKER: &str = "NAME: TICKER; INORDER: A, B; OUTORDER: O; { O = A * B; }";

/// One request per CQL row of the command table, in table order.
const SCRIPT: [&str; 18] = [
    "command:component_query; component:counter; ICDB_components:?s[]",
    "command:function_query; function:(ADD,SUB); implementation:?s[]; component:?s[]",
    "command:request_component; component_name:counter; attribute:(size:4); clock_width:30; \
     generated_component:?s",
    // Asks for the ungenerated layout, so the shared-lock attempt
    // escalates to the exclusive section.
    "command:instance_query; instance:counter$1; delay:?s; shape_function:?s; CIF_layout:?s",
    "command:connect_component; instance:counter$1; connect:?s",
    "command:start_a_design; design:datapath",
    "command:start_a_transaction; design:datapath",
    "command:put_in_component_list; design:datapath; instance:counter$1",
    "command:end_a_transaction; design:datapath",
    "command:end_a_design; design:datapath",
    "command:insert_component; IIF:%s; component:Counter; function:(INC); implementation:?s",
    "command:merge_query; components:(REGISTER,INCREMENTER); merged:?s[]",
    "command:tool_query; accepts:iif; generators:?s[]",
    "command:cache_query; layer:result; entries:?d; capacity:?d",
    "command:explore; component:counter; widths:(3,4); strategies:(cheapest,fastest); \
     winner:?s; front:?s[]; points:?d",
    "command:persist; enabled:?d; role:?s; degraded:?d",
    "command:metrics; enabled:?d; degraded:?d",
    "command:corpus; entries:?d; implementation:COUNTER; width:3; list:?s[]",
];

/// The argument array for one request: the IIF text for its `%s` slot —
/// the one input that cannot be written inline — and a blank output for
/// each `?` slot.
fn args_for(command: &str) -> Vec<CqlArg> {
    let slot_arg = |slot: SlotSpec| match (slot.input, slot.ty, slot.array) {
        (true, _, _) => CqlArg::InStr(TICKER.into()),
        (false, SlotType::Int, false) => CqlArg::OutInt(None),
        (false, _, true) => CqlArg::OutStrList(None),
        (false, _, false) => CqlArg::OutStr(None),
    };
    scan_slots(command)
        .unwrap()
        .into_iter()
        .map(slot_arg)
        .collect()
}

/// Every CQL row of the command table, sent over the wire once: each
/// answer equals the embedded `Icdb::execute` answer to the same
/// sequence, and each request bills to its own
/// `icdb_requests_total{command=…}` label.
#[test]
fn every_cql_command_matches_the_embedded_api_and_bills_its_own_label() {
    let (_daemon, port) = spawn_icdbd();
    let mut client = IcdbClient::connect(("127.0.0.1", port)).unwrap();
    let mut solo = Icdb::new();
    let cql_rows: Vec<&str> = COMMANDS
        .iter()
        .filter(|c| c.tier != Tier::Wire)
        .map(|c| c.name)
        .collect();
    assert_eq!(SCRIPT.len(), cql_rows.len(), "one request per CQL row");
    for (command, row) in SCRIPT.into_iter().zip(&cql_rows) {
        assert!(command.starts_with(&format!("command:{row};")), "{command}");
        let mut wire_args = args_for(command);
        let mut solo_args = wire_args.clone();
        client
            .execute(command, &mut wire_args)
            .unwrap_or_else(|e| panic!("`{row}` over the wire: {e}"));
        solo.execute(command, &mut solo_args)
            .unwrap_or_else(|e| panic!("`{row}` embedded: {e}"));
        assert_eq!(wire_args, solo_args, "`{row}` answers differ");
    }

    let text = client.metrics_text().unwrap();
    for row in cql_rows {
        let sample = format!("icdb_requests_total{{command=\"{row}\"}} 1");
        assert!(
            text.lines().any(|line| line == sample),
            "`{row}` must bill exactly one request to its own label"
        );
    }
    client.quit().unwrap();
}
