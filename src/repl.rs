//! WAL-shipping replication: the follower runtime.
//!
//! A follower is a full `icdbd` node that mirrors a primary instead of
//! accepting writes. [`bootstrap`] materializes the primary's current
//! durable image — its latest snapshot generation plus the WAL tail,
//! fetched over the `repl_snapshot` wire command — into an empty local
//! data directory, recovers from it through the *standard* crash-recovery
//! path, and then starts a tail thread that long-polls `repl_stream` for
//! fsynced [`MutationEvent`]s and replays each through the same
//! `Icdb::apply` choke point recovery uses. Followers therefore converge
//! on byte-identical state by construction: there is exactly one apply
//! path, shared by the primary's commits, crash replay, and replication.
//! Both commands travel through the ordinary [`IcdbClient`] wire client
//! (no retries of its own: the tail loop redials on a dead transport and
//! stalls on a server refusal).
//!
//! Guarantees and their boundaries:
//!
//! - **Only durable, acked events ship.** The primary's feed is populated
//!   after the group-commit fsync succeeds, so a follower can never
//!   observe an event the primary might still lose.
//! - **Replication is asynchronous.** The primary does not wait for
//!   followers; an acked commit that has not shipped yet dies with the
//!   primary. Failover procedures that must not lose acks wait for the
//!   follower's `lag_events` to reach 0 first (`persist lag_events:?d`).
//! - **Sequences are process-local.** A primary restart resets WAL
//!   sequence numbering, so every replication reply carries the
//!   primary's boot `epoch`; on a mismatch the tail loop stalls and
//!   reports that a re-bootstrap is required rather than misapplying a
//!   foreign cursor.
//! - **Promotion re-arms writes.** `persist promote:1` (on the follower)
//!   clears the replica role and checkpoints onto a fresh generation;
//!   the tail loop notices on its next apply and stops itself.

use crate::net::{hex_decode, ExecFailure, IcdbClient, RetryPolicy};
use icdb_core::{IcdbError, IcdbService, MutationEvent};
use icdb_obs::metrics as obs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long one `repl_stream` long-poll asks the primary to wait before
/// answering "caught up" (the loop simply polls again).
const STREAM_WAIT_MS: u64 = 400;

/// Events fetched per `repl_stream` round.
const STREAM_MAX_EVENTS: usize = 512;

/// Socket read timeout on the upstream connection — generous against a
/// slow primary, finite against a dead one.
const UPSTREAM_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Backoff between reconnect attempts after the upstream drops.
const RECONNECT_BACKOFF: Duration = Duration::from_millis(200);

/// Dials the upstream primary through the ordinary wire client: a 5 s
/// connect timeout, [`UPSTREAM_READ_TIMEOUT`], and no retries. The server
/// opens a throwaway session namespace for the connection, like for any
/// client.
fn dial(upstream: &str) -> Result<IcdbClient, IcdbError> {
    IcdbClient::connect_with(
        upstream,
        RetryPolicy {
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: Some(UPSTREAM_READ_TIMEOUT),
            ..RetryPolicy::none()
        },
    )
}

/// A running replication follower: the recovered, read-only service plus
/// the tail thread keeping it converged with the upstream primary.
///
/// Serve [`Follower::service`] exactly like a primary's service — the
/// entire read-only surface works locally; mutations answer
/// `ERR not_primary`. Dropping the handle (or calling [`Follower::stop`])
/// stops the tail thread; the service itself stays usable (frozen at the
/// last applied event) and can be promoted.
pub struct Follower {
    service: Arc<IcdbService>,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
    stall: Arc<Mutex<Option<String>>>,
}

impl Follower {
    /// The replicating service — share it with a [`crate::net::Server`].
    pub fn service(&self) -> &Arc<IcdbService> {
        &self.service
    }

    /// Why replication stalled permanently, if it has (epoch change,
    /// pruned history, a replay failure). `None` while healthy — or
    /// after a promotion, which is a clean self-stop, not a stall.
    pub fn stall_reason(&self) -> Option<String> {
        self.stall.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Stops the tail thread and waits for it to exit. Idempotent; the
    /// service remains usable (and promotable) afterwards.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for Follower {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Bootstraps a follower of `upstream` into the empty directory
/// `data_dir` and starts tailing. See the module docs for the protocol;
/// `sync` and `group_commit_window` configure the follower's *own*
/// journal exactly like [`IcdbService::open_with_options`].
///
/// # Errors
/// A non-empty data directory (a stale image must not be silently mixed
/// with a fresh bootstrap — wipe it explicitly), connection or protocol
/// failures against the upstream, and any local journaling error.
pub fn bootstrap(
    upstream: &str,
    data_dir: impl AsRef<Path>,
    sync: bool,
    group_commit_window: Duration,
) -> Result<Follower, IcdbError> {
    let data_dir = data_dir.as_ref();
    refuse_stale_image(data_dir)?;

    let mut conn = dial(upstream)
        .map_err(|e| IcdbError::Store(format!("replication bootstrap: connect {upstream}: {e}")))?;
    let (head, lines) = conn
        .request("repl_snapshot")
        .map_err(|e| IcdbError::Store(format!("replication bootstrap: {}", e.into_error())))?;
    let generation = head_field(&head, "gen:")
        .ok_or_else(|| IcdbError::Store(format!("repl_snapshot reply lacks gen: `{head}`")))?;
    let durable_seq = head_field(&head, "seq:")
        .ok_or_else(|| IcdbError::Store(format!("repl_snapshot reply lacks seq: `{head}`")))?;
    let epoch = head_field(&head, "epoch:")
        .ok_or_else(|| IcdbError::Store(format!("repl_snapshot reply lacks epoch: `{head}`")))?;
    let mut payloads = lines.iter().map(|line| {
        line.strip_prefix("s ")
            .ok_or_else(|| format!("unexpected repl_snapshot line `{line}`"))
            .and_then(hex_decode)
    });
    let snapshot = payloads
        .next()
        .unwrap_or_else(|| Err("repl_snapshot reply has no snapshot line".into()))
        .map_err(|e| IcdbError::Store(format!("replication bootstrap: {e}")))?;
    let wal_tail: Vec<Vec<u8>> = payloads
        .collect::<Result<_, _>>()
        .map_err(|e| IcdbError::Store(format!("replication bootstrap: {e}")))?;

    materialize(data_dir, generation, &snapshot, &wal_tail)
        .map_err(|e| IcdbError::Store(format!("replication bootstrap: materialize image: {e}")))?;

    // The standard recovery path turns the materialized generation into
    // live state — snapshot restore plus WAL replay, identical to a
    // primary rebooting after a crash.
    let service = Arc::new(IcdbService::open_with_options(
        data_dir,
        sync,
        group_commit_window,
    )?);
    service.set_replica(upstream, durable_seq)?;
    obs::REPL_APPLIED_SEQ.set(durable_seq);
    obs::REPL_LAG_EVENTS.set(0);

    let stop = Arc::new(AtomicBool::new(false));
    let stall = Arc::new(Mutex::new(None));
    let join = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let stall = Arc::clone(&stall);
        let upstream = upstream.to_string();
        std::thread::Builder::new()
            .name("icdb-repl-tail".into())
            .spawn(move || {
                tail_loop(&service, &upstream, durable_seq, epoch, &stop, &stall);
            })
            .map_err(|e| IcdbError::Store(format!("spawn replication tail thread: {e}")))?
    };
    Ok(Follower {
        service,
        stop,
        join: Some(join),
        stall,
    })
}

/// Refuses to bootstrap over an existing durable image: a data dir that
/// already holds `snapshot-*` / `wal-*` files belongs to some other node
/// history, and mixing it with a fresh upstream image would corrupt both.
fn refuse_stale_image(data_dir: &Path) -> Result<(), IcdbError> {
    let entries = match std::fs::read_dir(data_dir) {
        Ok(entries) => entries,
        // A missing directory is fine — DataDir::open creates it.
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => {
            return Err(IcdbError::Store(format!(
                "replication bootstrap: read {}: {e}",
                data_dir.display()
            )));
        }
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("snapshot-") || name.starts_with("wal-") {
            return Err(IcdbError::Store(format!(
                "replication bootstrap: {} already holds a durable image ({name}); \
                 refusing to mix histories — point the follower at an empty directory",
                data_dir.display()
            )));
        }
    }
    Ok(())
}

/// Writes the fetched image to disk as generation `generation`: the
/// snapshot payload re-framed by the store layer (skipped when the
/// primary had not snapshotted yet), then every WAL-tail record appended
/// through a [`icdb_store::wal::WalWriter`] and fsynced.
fn materialize(
    data_dir: &Path,
    generation: u64,
    snapshot: &[u8],
    wal_tail: &[Vec<u8>],
) -> io::Result<()> {
    let dir = icdb_store::wal::DataDir::open(data_dir)?;
    if !snapshot.is_empty() {
        dir.write_snapshot(generation, snapshot)?;
    }
    let (mut writer, _) = dir.open_wal(generation, false)?;
    for record in wal_tail {
        writer.append(record)?;
    }
    writer.sync()
}

/// The tail thread: long-poll `repl_stream`, decode, replay, repeat.
/// Transport errors reconnect with backoff; protocol-fatal conditions
/// (epoch change, pruned history, a local replay failure) record a stall
/// reason and exit; a promotion exits cleanly.
fn tail_loop(
    service: &Arc<IcdbService>,
    upstream: &str,
    mut cursor: u64,
    epoch: u64,
    stop: &AtomicBool,
    stall: &Mutex<Option<String>>,
) {
    let fatal = |reason: String| {
        *stall.lock().unwrap_or_else(|e| e.into_inner()) = Some(reason);
    };
    let mut conn: Option<IcdbClient> = None;
    while !stop.load(Ordering::SeqCst) {
        let live = match &mut conn {
            Some(live) => live,
            None => match dial(upstream) {
                Ok(fresh) => conn.insert(fresh),
                Err(_) => {
                    obs::REPL_RECONNECTS.inc();
                    std::thread::sleep(RECONNECT_BACKOFF);
                    continue;
                }
            },
        };
        let request =
            format!("repl_stream from:{cursor} max:{STREAM_MAX_EVENTS} wait_ms:{STREAM_WAIT_MS}");
        let (head, lines) = match live.request(&request) {
            Ok(reply) => reply,
            Err(ExecFailure::Net(_)) => {
                // The upstream dropped (crash, restart, network): dial
                // again until it is back or we are stopped.
                conn = None;
                obs::REPL_RECONNECTS.inc();
                std::thread::sleep(RECONNECT_BACKOFF);
                continue;
            }
            Err(ExecFailure::Server(e)) => {
                // `repl_stream` refusals are not transient: pruned
                // history needs a re-bootstrap, anything else operator
                // attention. Keep serving reads, stop replicating.
                fatal(format!("upstream refused repl_stream: {e}"));
                return;
            }
        };
        let Some(durable) = head_field(&head, "seq:") else {
            fatal(format!("malformed repl_stream reply head `{head}`"));
            return;
        };
        match head_field(&head, "epoch:") {
            Some(now) if now == epoch => {}
            other => {
                fatal(format!(
                    "upstream epoch changed ({epoch} -> {other:?}): the primary restarted and \
                     sequence numbers reset; this follower must be re-bootstrapped"
                ));
                return;
            }
        }
        let mut events = Vec::with_capacity(lines.len());
        let mut last_seq = cursor;
        for line in &lines {
            let Some((seq, event)) = decode_event_line(line) else {
                fatal(format!("malformed repl_stream event line `{line}`"));
                return;
            };
            last_seq = seq;
            events.push(event);
        }
        // An empty batch with an advanced durable sequence is a gap the
        // primary never made durable (a cleared fault): skip over it.
        let applied_to = if events.is_empty() {
            durable.max(cursor)
        } else {
            last_seq
        };
        let lag = durable.saturating_sub(applied_to);
        match service.apply_replicated(&events, applied_to, lag) {
            Ok(()) => {
                cursor = applied_to;
                obs::REPL_APPLIED_SEQ.set(applied_to);
                obs::REPL_LAG_EVENTS.set(lag);
            }
            // Promoted out from under the loop: a clean self-stop.
            Err(IcdbError::Unsupported(_)) => return,
            Err(e) => {
                fatal(format!("replaying event {last_seq} failed: {e}"));
                return;
            }
        }
    }
}

/// Parses a `repl_stream` event line: `e <seq> <hex payload>`.
fn decode_event_line(line: &str) -> Option<(u64, MutationEvent)> {
    let rest = line.strip_prefix("e ")?;
    let (seq, hex) = rest.split_once(' ')?;
    let seq = seq.parse().ok()?;
    let payload = hex_decode(hex).ok()?;
    let event = MutationEvent::decode(&payload).ok()?;
    Some((seq, event))
}

/// Extracts a `key:<u64>` word from a reply header.
fn head_field(head: &str, key: &str) -> Option<u64> {
    head.split_whitespace()
        .find_map(|word| word.strip_prefix(key).and_then(|v| v.parse().ok()))
}
