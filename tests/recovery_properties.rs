//! Crash-recovery property suite: random mutation scripts against a
//! durable [`Icdb`], killed at every WAL record boundary (plus a torn
//! half-record), must recover to a state whose CQL-visible transcript is
//! byte-identical to an uninterrupted replay of exactly the journaled
//! prefix.
//!
//! The suite leans on the event-sourcing invariant: live execution and
//! recovery replay share one `Icdb::apply` choke point, and generation is
//! deterministic — so "state after k journaled events" is well-defined
//! regardless of how the process died.

use icdb::store::wal::{read_wal_prefix, scan_wal, WalWriter};
use icdb::{ComponentRequest, Icdb, MutationEvent};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// One step of a random mutation script, expressed over the public API.
#[derive(Debug, Clone)]
enum Op {
    /// Generate a component (kind, size).
    Request(u8, u32),
    /// Generate a layout for the i-th created instance (if any).
    Layout(u8),
    /// Acquire a uniquely-named implementation and generate from it.
    Acquire(u8),
    /// start_a_design + transaction, one request, keep-or-drop, end.
    Transaction(u8, bool),
    /// Publish the generation-cache statistics table.
    PublishStats,
    /// Open a session namespace and install one instance in it.
    SessionInstall(u32),
    /// Open a session namespace and immediately drop it.
    SessionChurn,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, 2u32..5).prop_map(|(k, s)| Op::Request(k, s)),
        (0u8..4).prop_map(Op::Layout),
        (0u8..4).prop_map(Op::Acquire),
        (0u8..3, any::<bool>()).prop_map(|(i, keep)| Op::Transaction(i, keep)),
        (0u8..1).prop_map(|_| Op::PublishStats),
        (2u32..4).prop_map(Op::SessionInstall),
        (0u8..1).prop_map(|_| Op::SessionChurn),
    ]
}

fn request_of(kind: u8, size: u32) -> ComponentRequest {
    match kind % 4 {
        0 => ComponentRequest::by_component("counter").attribute("size", size.to_string()),
        1 => ComponentRequest::by_implementation("ADDER").attribute("size", size.to_string()),
        2 => ComponentRequest::by_implementation("REGISTER")
            .attribute("size", size.to_string())
            .clock_width(30.0),
        _ => ComponentRequest::by_implementation("MUX").attribute("size", size.to_string()),
    }
}

/// Runs a script through the classic API; failures are tolerated (they
/// journal and replay deterministically, which is part of what the suite
/// checks).
fn run_script(icdb: &mut Icdb, ops: &[Op]) {
    let mut created: Vec<String> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Request(kind, size) => {
                if let Ok(name) = icdb.request_component(&request_of(*kind, *size)) {
                    created.push(name);
                }
            }
            Op::Layout(i) => {
                if let Some(name) = created.get(*i as usize % created.len().max(1)) {
                    let _ = icdb.generate_layout(name, None, None);
                }
            }
            Op::Acquire(tag) => {
                let name = format!("RPROP_{tag}");
                let iif = format!("NAME: {name}; INORDER: A, B; OUTORDER: O; {{ O = A * B; }}");
                let _ = icdb.insert_implementation(
                    &iif,
                    "Logic_unit",
                    &["AND"],
                    &[],
                    None,
                    "recovery-prop acquired",
                );
                if let Ok(inst) =
                    icdb.request_component(&ComponentRequest::by_implementation(&name))
                {
                    created.push(inst);
                }
            }
            Op::Transaction(kind, keep) => {
                let design = format!("design{i}");
                if icdb.start_design(&design).is_err() {
                    continue;
                }
                let _ = icdb.start_transaction(&design);
                if let Ok(name) = icdb.request_component(&request_of(*kind, 3)) {
                    if *keep {
                        let _ = icdb.put_in_component_list(&design, &name);
                        created.push(name);
                    }
                }
                let _ = icdb.end_transaction(&design);
            }
            Op::PublishStats => {
                let _ = icdb.publish_cache_stats();
            }
            Op::SessionInstall(size) => {
                let ns = icdb.create_namespace();
                let _ = icdb.request_component_in(
                    ns,
                    &ComponentRequest::by_implementation("ADDER")
                        .attribute("size", size.to_string()),
                );
            }
            Op::SessionChurn => {
                let ns = icdb.create_namespace();
                icdb.drop_namespace(ns);
            }
        }
    }
}

/// The CQL-visible state: every namespace's instances with their §3.3
/// strings, the relational tables row-by-row, and the design-data file
/// paths with their contents' lengths (full contents for small views).
fn transcript(icdb: &Icdb) -> String {
    let mut out = String::new();
    for ns in icdb.namespace_ids() {
        out.push_str(&format!("== namespace {ns}\n"));
        let names: Vec<String> = icdb
            .instance_names_in(ns)
            .map(|v| v.iter().map(|n| n.to_string()).collect())
            .unwrap_or_default();
        for name in names {
            out.push_str(&format!("instance {name}\n"));
            out.push_str(&icdb.delay_string_in(ns, &name).unwrap_or_default());
            out.push_str(&icdb.shape_string_in(ns, &name).unwrap_or_default());
            out.push_str(&icdb.vhdl_head_in(ns, &name).unwrap_or_default());
        }
    }
    for table in ["components", "instances", "cache_stats", "exploration"] {
        out.push_str(&format!("== table {table}\n"));
        if let Ok(rows) = icdb.db.query(&format!("SELECT * FROM {table}")) {
            for row in rows {
                let cells: Vec<String> = row.iter().map(|v| format!("{v:?}")).collect();
                out.push_str(&cells.join("|"));
                out.push('\n');
            }
        }
    }
    out.push_str("== files\n");
    for path in icdb.files.list("") {
        let contents = icdb.files.read(path).unwrap_or_default();
        out.push_str(&format!("{path} {}\n", contents.len()));
    }
    out
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "icdb-recovery-prop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Copies a WAL prefix (first `upto` records, plus `extra` bytes of the
/// following record to simulate a torn write) into a fresh data dir.
fn truncated_copy(
    src_wal: &Path,
    records: &[Vec<u8>],
    upto: usize,
    extra: usize,
    tag: &str,
) -> PathBuf {
    let dir = temp_dir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    let bytes = std::fs::read(src_wal).unwrap();
    // Record framing is 8 bytes of header + payload.
    let mut end = 0usize;
    for payload in &records[..upto] {
        end += 8 + payload.len();
    }
    let torn_end = (end + extra).min(bytes.len());
    std::fs::write(dir.join("wal-0.log"), &bytes[..torn_end]).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Uninterrupted crash recovery: a durable server dropped without a
    /// checkpoint (and again after one) reopens to a byte-identical
    /// transcript.
    #[test]
    fn recovery_transcript_matches_live(ops in proptest::collection::vec(arb_op(), 1..7)) {
        let dir = temp_dir("live");
        let live = {
            let mut icdb = Icdb::open_with_sync(&dir, false).unwrap();
            run_script(&mut icdb, &ops);
            icdb.sync_journal().unwrap();
            transcript(&icdb)
        };
        // WAL-only recovery.
        let recovered = Icdb::open_with_sync(&dir, false).unwrap();
        prop_assert_eq!(&transcript(&recovered), &live);
        // Checkpoint, then snapshot-based recovery.
        let mut recovered = recovered;
        recovered.checkpoint().unwrap();
        prop_assert_eq!(recovered.persist_stats().unwrap().wal_events, 0);
        drop(recovered);
        let reopened = Icdb::open_with_sync(&dir, false).unwrap();
        prop_assert_eq!(reopened.persist_stats().unwrap().recovered_events, 0);
        prop_assert_eq!(&transcript(&reopened), &live);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Kill-point sweep: for every WAL record boundary k (and a torn
    /// half-record just past it), recovery from the first k records equals
    /// an uninterrupted in-memory replay of those k events.
    #[test]
    fn every_kill_point_recovers_to_the_journaled_prefix(
        ops in proptest::collection::vec(arb_op(), 1..6),
    ) {
        let dir = temp_dir("killsrc");
        {
            let mut icdb = Icdb::open_with_sync(&dir, false).unwrap();
            run_script(&mut icdb, &ops);
            icdb.sync_journal().unwrap();
        }
        let wal = dir.join("wal-0.log");
        let scan = scan_wal(&wal).unwrap();
        prop_assert!(!scan.torn);
        let events: Vec<MutationEvent> = scan
            .records
            .iter()
            .map(|r| serde::from_bytes(r).expect("journal records decode"))
            .collect();

        for k in 0..=events.len() {
            // Expected: replay exactly k events through the same apply()
            // the recovery path uses.
            let mut expected = Icdb::new();
            for event in &events[..k] {
                let _ = expected.apply(event);
            }
            let expected = transcript(&expected);

            // Clean kill exactly at the record boundary.
            let killed = truncated_copy(&wal, &scan.records, k, 0, &format!("kill{k}"));
            let recovered = Icdb::open_with_sync(&killed, false).unwrap();
            prop_assert_eq!(
                recovered.persist_stats().unwrap().recovered_events,
                k as u64
            );
            prop_assert_eq!(&transcript(&recovered), &expected);
            drop(recovered);
            std::fs::remove_dir_all(&killed).ok();

            // Torn half-record: 5 bytes of the next record survive the
            // crash. Recovery must truncate them and land on the same
            // prefix — and keep accepting appends afterwards.
            if k < events.len() {
                let torn = truncated_copy(&wal, &scan.records, k, 5, &format!("torn{k}"));
                let mut recovered = Icdb::open_with_sync(&torn, false).unwrap();
                prop_assert_eq!(
                    recovered.persist_stats().unwrap().recovered_events,
                    k as u64
                );
                prop_assert_eq!(&transcript(&recovered), &expected);
                // Post-recovery commits append cleanly after the truncation.
                let name = recovered
                    .request_component(&ComponentRequest::by_implementation("ADDER"))
                    .unwrap();
                recovered.sync_journal().unwrap();
                let post = transcript(&recovered);
                drop(recovered);
                let reopened = Icdb::open_with_sync(&torn, false).unwrap();
                prop_assert!(reopened.instance(&name).is_ok());
                prop_assert_eq!(&transcript(&reopened), &post);
                drop(reopened);
                std::fs::remove_dir_all(&torn).ok();
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Group-commit kill points: concurrent committers ride one batched WAL,
/// so a SIGKILL lands *between* batch-fsync boundaries. The disk image at
/// any record boundary (and with a torn half-record past it) must recover
/// exactly that prefix — byte-identical to an uninterrupted replay — and
/// the image captured right after the last acknowledgment must contain
/// every acknowledged commit.
#[test]
fn group_commit_kill_points_recover_the_acknowledged_prefix() {
    use icdb::{IcdbService, NsId};
    use std::sync::Arc;
    use std::time::Duration;

    let dir = temp_dir("group-src");
    let service =
        Arc::new(IcdbService::open_with_options(&dir, false, Duration::from_millis(2)).unwrap());

    // Four concurrent committers on distinct shards, two commits each; a
    // name is recorded only once its group commit was acknowledged.
    let acked: Vec<(NsId, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4u32)
            .map(|i| {
                let service = Arc::clone(&service);
                scope.spawn(move || {
                    let session = service.open_session();
                    let ns = session.ns();
                    let mut names = Vec::new();
                    for size in [2 + i, 3 + i] {
                        let name = session
                            .request_component(
                                &ComponentRequest::by_implementation("ADDER")
                                    .attribute("size", size.to_string()),
                            )
                            .expect("acknowledged commit");
                        names.push(name);
                    }
                    // Server-shutdown path: the namespace must survive.
                    session.park();
                    (ns, names)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // The SIGKILL disk image: copy the WAL right after the last ack, with
    // the service still live — no checkpoint, no extra flush.
    let image = temp_dir("group-image");
    std::fs::create_dir_all(&image).unwrap();
    std::fs::copy(dir.join("wal-0.log"), image.join("wal-0.log")).unwrap();
    drop(service);
    // The image holds the writer's zero region past its records, so the
    // recovery below crosses a zero tail.
    let image_wal = image.join("wal-0.log");
    assert!(std::fs::metadata(&image_wal).unwrap().len() > scan_wal(&image_wal).unwrap().valid_len);

    // Every acknowledged commit is in the image.
    let recovered = Icdb::open_with_sync(&image, false).unwrap();
    for (ns, names) in &acked {
        let have: Vec<String> = recovered
            .instance_names_in(*ns)
            .map(|v| v.iter().map(|n| n.to_string()).collect())
            .unwrap_or_default();
        for name in names {
            assert!(
                have.contains(name),
                "acknowledged {name} missing from {ns} after recovery"
            );
        }
    }
    drop(recovered);

    // Kill-point sweep over the group-committed log: every record
    // boundary — the state a crash between batch fsyncs leaves behind —
    // recovers exactly that prefix (odd boundaries also get a torn
    // half-record, which recovery must truncate away).
    let wal = image.join("wal-0.log");
    let scan = scan_wal(&wal).unwrap();
    assert!(!scan.torn);
    let events: Vec<MutationEvent> = scan
        .records
        .iter()
        .map(|r| serde::from_bytes(r).expect("group-committed records decode"))
        .collect();
    for k in 0..=events.len() {
        let mut expected = Icdb::new();
        for event in &events[..k] {
            let _ = expected.apply(event);
        }
        let expected = transcript(&expected);
        let extra = if k < events.len() && k % 2 == 1 { 5 } else { 0 };
        let killed = truncated_copy(&wal, &scan.records, k, extra, &format!("gkill{k}"));
        let recovered = Icdb::open_with_sync(&killed, false).unwrap();
        assert_eq!(
            recovered.persist_stats().unwrap().recovered_events,
            k as u64
        );
        assert_eq!(transcript(&recovered), expected, "kill point {k}");
        drop(recovered);
        std::fs::remove_dir_all(&killed).ok();
    }
    std::fs::remove_dir_all(&image).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// Copies the first `end` bytes of a WAL image followed by `zeros` zero
/// bytes into a fresh data dir: the disk a SIGKILL leaves when it lands
/// inside the writer's zero region.
fn zero_tailed_copy(image: &[u8], end: usize, zeros: usize, tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    let mut bytes = image[..end].to_vec();
    bytes.resize(end + zeros, 0);
    std::fs::write(dir.join("wal-0.log"), bytes).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Kill points inside the writer's zero region: every record boundary
    /// followed by up to 64 KiB of zeros recovers exactly that prefix, and
    /// so does a torn half-record followed by zeros. Recovery cuts the
    /// zeros away, and never replays them as records.
    #[test]
    fn kill_points_inside_the_zero_region_recover_the_journaled_prefix(
        ops in proptest::collection::vec(arb_op(), 1..6),
        zeros in 1usize..65_537,
    ) {
        let dir = temp_dir("zero-src");
        let mut icdb = Icdb::open_with_sync(&dir, false).unwrap();
        run_script(&mut icdb, &ops);
        icdb.sync_journal().unwrap();
        // The SIGKILL image: the live file, zero region included.
        let image = std::fs::read(dir.join("wal-0.log")).unwrap();
        drop(icdb);
        let scan = scan_wal(&dir.join("wal-0.log")).unwrap();
        // A script that journals nothing (a lone `Layout`) writes no zeros.
        prop_assert!(scan.records.is_empty() || image.len() as u64 > scan.valid_len);
        let events: Vec<MutationEvent> = scan
            .records
            .iter()
            .map(|r| serde::from_bytes(r).expect("journal records decode"))
            .collect();

        for k in 0..=events.len() {
            let mut expected = Icdb::new();
            for event in &events[..k] {
                let _ = expected.apply(event);
            }
            let expected = transcript(&expected);
            let end = scan.prefix_len(k) as usize;
            let zeros = 1 + (zeros + k * 4_093) % 65_536;
            let mut tails = vec![(0, "zkill")];
            if k < events.len() {
                tails.push((5, "ztorn"));
            }
            for (extra, tag) in tails {
                let killed = zero_tailed_copy(&image, end + extra, zeros, &format!("{tag}{k}"));
                let recovered = Icdb::open_with_sync(&killed, false).unwrap();
                prop_assert_eq!(
                    recovered.persist_stats().unwrap().recovered_events,
                    k as u64
                );
                prop_assert_eq!(&transcript(&recovered), &expected);
                prop_assert_eq!(
                    std::fs::metadata(killed.join("wal-0.log")).unwrap().len(),
                    end as u64
                );
                drop(recovered);
                std::fs::remove_dir_all(&killed).ok();
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A log longer than one zero step: commits cross several extensions,
/// the live file never holds more than 64 KiB of zeros past its records,
/// a live image and a cleanly closed log both recover every commit, and
/// the closed log holds exactly its records.
#[test]
fn a_log_spanning_several_zero_steps_recovers_every_commit() {
    let dir = temp_dir("zero-steps");
    let wal = dir.join("wal-0.log");
    let mut icdb = Icdb::open_with_sync(&dir, false).unwrap();
    let mut commits = 0u64;
    while icdb.persist_stats().unwrap().wal_bytes < 3 * 65_536 {
        let size = 2 + commits % 3;
        icdb.request_component(
            &ComponentRequest::by_implementation("ADDER").attribute("size", size.to_string()),
        )
        .unwrap();
        commits += 1;
        let wal_bytes = icdb.persist_stats().unwrap().wal_bytes;
        let file_len = std::fs::metadata(&wal).unwrap().len();
        assert!(file_len >= wal_bytes && file_len - wal_bytes <= 65_536);
    }
    icdb.sync_journal().unwrap();
    let live = transcript(&icdb);
    let wal_bytes = icdb.persist_stats().unwrap().wal_bytes;

    let image = temp_dir("zero-steps-image");
    std::fs::create_dir_all(&image).unwrap();
    std::fs::copy(&wal, image.join("wal-0.log")).unwrap();
    drop(icdb);
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), wal_bytes);

    for data in [&image, &dir] {
        let recovered = Icdb::open_with_sync(data, false).unwrap();
        assert_eq!(recovered.persist_stats().unwrap().recovered_events, commits);
        assert_eq!(transcript(&recovered), live);
    }
    std::fs::remove_dir_all(&image).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// A sweep journals its corpus points without the retired request bytes.
#[test]
fn a_sweep_journals_corpus_points_without_their_request() {
    let dir = temp_dir("corpus-request");
    let mut icdb = Icdb::open_with_sync(&dir, false).unwrap();
    let spec = icdb::ExploreSpec::by_component("counter")
        .widths([3, 4])
        .strategies(["cheapest", "fastest"]);
    icdb.explore(&spec).unwrap();
    icdb.flush_corpus().unwrap();
    icdb.sync_journal().unwrap();
    drop(icdb);
    let mut points = 0;
    for record in scan_wal(&dir.join("wal-0.log")).unwrap().records {
        if let MutationEvent::RecordCorpus { points: recorded } =
            serde::from_bytes(&record).unwrap()
        {
            for (_, point) in recorded {
                assert!(point.request.is_empty(), "{point:?}");
                points += 1;
            }
        }
    }
    assert!(points > 0, "the sweep must have journaled corpus points");
    std::fs::remove_dir_all(&dir).ok();
}

/// Scans `image` as a WAL file, and reads its durable prefix up to
/// `limit`, and checks what every decode of outside bytes must hold:
/// no panic; records that fill exactly the valid prefix and hold no more
/// bytes than the input; a torn flag set exactly when a non-zero byte
/// follows the prefix; and a prefix read returning exactly the records
/// that end within its limit. Returns the scanned records.
fn check_decode(image: &[u8], limit: u64, tag: &str) -> Result<Vec<Vec<u8>>, TestCaseError> {
    let dir = temp_dir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal-0.log");
    std::fs::write(&path, image).unwrap();
    let scan = scan_wal(&path).unwrap();
    let prefix = read_wal_prefix(&path, limit).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    prop_assert_eq!(scan.prefix_len(scan.records.len()), scan.valid_len);
    prop_assert!(scan.valid_len <= image.len() as u64);
    prop_assert!(scan.records.iter().all(|r| !r.is_empty()));
    prop_assert!(scan.records.iter().map(Vec::len).sum::<usize>() <= image.len());
    let tail_nonzero = image[scan.valid_len as usize..].iter().any(|&b| b != 0);
    prop_assert_eq!(scan.torn, tail_nonzero);
    let within = (0..=scan.records.len())
        .rev()
        .find(|&k| scan.prefix_len(k) <= limit)
        .unwrap_or(0);
    prop_assert_eq!(&prefix[..], &scan.records[..within]);
    Ok(scan.records)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Hostile bytes: a random header (small or arbitrary length field,
    /// so lengths over the record cap are refused before any slice),
    /// random bytes after it, and optionally a zero tail.
    #[test]
    fn wal_decoder_survives_random_images(
        len in prop_oneof![0u32..48, any::<u32>()],
        crc in any::<u32>(),
        body in proptest::collection::vec(any::<u8>(), 0..96),
        zeros in prop_oneof![0usize..1, 1usize..70_000],
        limit in any::<u64>(),
    ) {
        let mut image = len.to_le_bytes().to_vec();
        image.extend_from_slice(&crc.to_le_bytes());
        image.extend_from_slice(&body);
        image.resize(image.len() + zeros, 0);
        let limit = limit % (image.len() as u64 + 9);
        check_decode(&image, limit, "hostile-random")?;
    }

    /// Bit-flipped copies of a real log, with and without a zero tail,
    /// decode to a prefix of the records written.
    #[test]
    fn wal_decoder_keeps_a_prefix_of_a_bit_flipped_log(
        records in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..48), 1..8),
        flips in proptest::collection::vec((any::<u64>(), 0u8..8), 0..4),
        zeros in prop_oneof![0usize..1, 1usize..70_000],
        limit in any::<u64>(),
    ) {
        let dir = temp_dir("hostile-log");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-0.log");
        let (mut writer, _) = WalWriter::open(&path, false).unwrap();
        for record in &records {
            writer.append(record).unwrap();
        }
        drop(writer);
        let mut image = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        for &(at, bit) in &flips {
            let at = (at % image.len() as u64) as usize;
            image[at] ^= 1 << bit;
        }
        image.resize(image.len() + zeros, 0);
        let limit = limit % (image.len() as u64 + 9);
        let decoded = check_decode(&image, limit, "hostile-flipped")?;
        prop_assert_eq!(&decoded[..], &records[..decoded.len()]);
        if flips.is_empty() {
            prop_assert_eq!(&decoded, &records);
        }
    }
}

/// The exploration corpus is journaled state: a sweep's recorded points
/// survive a SIGKILL (WAL image copied while the server is live, no
/// checkpoint) and reopen to byte-identical `corpus` CQL answers.
#[test]
fn corpus_survives_sigkill_with_identical_answers() {
    use icdb::cql::CqlArg;

    fn corpus_answer(icdb: &mut Icdb) -> (i64, Vec<String>) {
        let mut args = vec![CqlArg::OutInt(None), CqlArg::OutStrList(None)];
        icdb.execute("command:corpus; entries:?d; list:?s[]", &mut args)
            .unwrap();
        let CqlArg::OutStrList(Some(list)) = args.pop().unwrap() else {
            panic!("no corpus list");
        };
        let CqlArg::OutInt(Some(entries)) = args[0] else {
            panic!("no corpus entry count");
        };
        (entries, list)
    }

    let dir = temp_dir("corpus-live");
    let mut icdb = Icdb::open_with_sync(&dir, false).unwrap();
    let spec = icdb::ExploreSpec::by_component("counter")
        .widths([3, 4])
        .strategies(["cheapest", "fastest"]);
    icdb.explore(&spec).unwrap();
    icdb.flush_corpus().unwrap();
    icdb.sync_journal().unwrap();
    let live = corpus_answer(&mut icdb);
    assert!(live.0 > 0, "the sweep must have recorded corpus rows");

    // The SIGKILL disk image: WAL copied while the server is still live.
    let image = temp_dir("corpus-image");
    std::fs::create_dir_all(&image).unwrap();
    std::fs::copy(dir.join("wal-0.log"), image.join("wal-0.log")).unwrap();
    drop(icdb);

    let mut recovered = Icdb::open_with_sync(&image, false).unwrap();
    assert_eq!(corpus_answer(&mut recovered), live, "WAL-only recovery");
    drop(recovered);

    // A checkpointed snapshot carries the corpus too.
    let mut checkpointed = Icdb::open_with_sync(&dir, false).unwrap();
    checkpointed.checkpoint().unwrap();
    drop(checkpointed);
    let mut reopened = Icdb::open_with_sync(&dir, false).unwrap();
    assert_eq!(reopened.persist_stats().unwrap().recovered_events, 0);
    assert_eq!(corpus_answer(&mut reopened), live, "snapshot recovery");

    std::fs::remove_dir_all(&image).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// The WAL writer refuses to resurrect torn bytes: re-opening after a tear
/// truncates, and the next append lands where the tear was (deterministic
/// framing, so this is a plain unit test rather than a property).
#[test]
fn torn_tail_is_replaced_by_the_next_commit() {
    let dir = temp_dir("tear-unit");
    {
        let mut icdb = Icdb::open_with_sync(&dir, false).unwrap();
        icdb.request_component(&ComponentRequest::by_implementation("ADDER"))
            .unwrap();
        icdb.sync_journal().unwrap();
    }
    let wal = dir.join("wal-0.log");
    let full = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &full[..full.len() - 3]).unwrap();
    {
        let mut icdb = Icdb::open_with_sync(&dir, false).unwrap();
        assert_eq!(icdb.persist_stats().unwrap().recovered_events, 0);
        assert!(icdb.instance_names().is_empty());
        icdb.request_component(&ComponentRequest::by_implementation("REGISTER"))
            .unwrap();
        icdb.sync_journal().unwrap();
    }
    let scan = scan_wal(&wal).unwrap();
    assert_eq!(scan.records.len(), 1);
    assert!(!scan.torn);
    let recovered = Icdb::open_with_sync(&dir, false).unwrap();
    assert_eq!(recovered.instance_names().len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

// Ensure the WalWriter symbol stays exercised through the facade (the
// store's own unit tests cover its behavior in depth).
#[test]
fn wal_writer_reachable_through_facade() {
    let dir = temp_dir("facade-wal");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal-0.log");
    let (mut w, _) = WalWriter::open(&path, false).unwrap();
    w.append(b"facade").unwrap();
    assert_eq!(scan_wal(&path).unwrap().records.len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}
