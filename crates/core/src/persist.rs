//! The persistence layer: write-ahead journal + periodic full snapshots,
//! organized into generations inside a data directory (file formats in
//! [`icdb_store::wal`]).
//!
//! * [`Icdb::open`] recovers a server from a data directory: load the
//!   newest checksum-valid snapshot, replay the matching WAL tail through
//!   the ordinary [`Icdb::apply`] choke point, truncate any torn final
//!   record, and attach the journal so subsequent mutations are durable.
//! * [`Icdb::checkpoint`] captures a full snapshot (written atomically via
//!   temp-file + rename), starts a fresh empty WAL generation, and prunes
//!   the previous one — bounding recovery time and disk usage.
//! * [`Icdb::persist_stats`] reports the journal's vitals (generation,
//!   WAL records/bytes, snapshot size, events replayed at boot), also
//!   served by the `persist` CQL command.
//!
//! ## What a snapshot holds
//!
//! Durable state only: the relational catalog, the design-data file
//! store, the tool manager, per-namespace instances/designs/counters, and
//! the *acquired* knowledge as replayable source text (builtins are
//! rebuilt by [`Icdb::new`]; re-parsing the acquired IIF reproduces the
//! library exactly, so the parsed AST never needs an on-disk format).
//! Volatile state — the generation cache, version counters — restarts
//! cold; correctness never depends on it, only warm-path speed.

use crate::error::IcdbError;
use crate::events::MutationEvent;
use crate::instance::ComponentInstance;
use crate::space::{Namespace, Spaces};
use crate::tools::ToolManager;
use crate::Icdb;
use icdb_store::wal::{DataDir, GroupWal};
use icdb_store::{Database, FileStore};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// One knowledge acquisition, kept as replayable source text so snapshots
/// can rebuild the component library by re-running the §2.2 insert.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct AcquiredKnowledge {
    pub(crate) iif_source: String,
    pub(crate) component_type: String,
    pub(crate) functions: Vec<String>,
    pub(crate) param_defaults: Vec<(String, i64)>,
    pub(crate) connection_text: Option<String>,
    pub(crate) description: String,
}

/// One namespace's durable state.
#[derive(Debug, Serialize, Deserialize)]
struct SpaceSnapshot {
    /// Raw namespace id.
    id: u64,
    /// Auto-naming counter.
    counter: u64,
    /// Per-namespace commit counter (the `commit_seq` echoed in acks).
    commits: u64,
    /// Designs, component lists and any open transaction.
    designs: crate::designs::DesignManager,
    /// Instances in creation order.
    instances: Vec<ComponentInstance>,
}

/// A full-state snapshot (the payload of a `snapshot-<N>.img` file).
#[derive(Debug, Serialize, Deserialize)]
struct Snapshot {
    /// Acquired (non-builtin) knowledge, in insertion order.
    acquired: Vec<AcquiredKnowledge>,
    /// The tool-manager registry (standard + registered generators).
    tools: ToolManager,
    /// The relational catalog, rows and all.
    db: Database,
    /// The design-data file store.
    files: FileStore,
    /// Next namespace id (ids are never reused across restarts).
    next_ns: u64,
    /// Every live namespace.
    spaces: Vec<SpaceSnapshot>,
    /// The durable exploration corpus. Appended last: the snapshot
    /// serialization is positional, so new fields must not reorder the
    /// existing ones.
    corpus: icdb_store::corpus::CorpusStore,
}

impl Snapshot {
    /// Captures the durable state of a server.
    fn capture(icdb: &Icdb) -> Snapshot {
        Snapshot {
            acquired: icdb.acquired.clone(),
            tools: icdb.tools.clone(),
            db: icdb.db.clone(),
            files: icdb.files.clone(),
            next_ns: icdb.spaces.next_id(),
            spaces: icdb
                .spaces
                .iter_ordered()
                .into_iter()
                // Ephemeral (follower-session) namespaces are never
                // journaled, so a snapshot must not resurrect them either:
                // they die with the process, exactly like an unreplayed
                // session namespace on a degraded primary.
                .filter(|(ns, _)| !ns.is_ephemeral())
                .map(|(ns, space)| SpaceSnapshot {
                    id: ns.raw(),
                    counter: space.counter,
                    commits: space.commits,
                    designs: space.designs.clone(),
                    instances: space
                        .instance_order
                        .iter()
                        .map(|name| {
                            space
                                .instances
                                .get(name)
                                .expect("order entries always have instances")
                                .clone()
                        })
                        .collect(),
                })
                .collect(),
            corpus: icdb.corpus.export(),
        }
    }

    /// Rebuilds a server from the snapshot: fresh builtins, replayed
    /// acquisitions (re-parsing their IIF), then wholesale restoration of
    /// the catalog, file store, tools and namespaces.
    fn restore(self) -> Result<Icdb, IcdbError> {
        let mut icdb = Icdb::new();
        for a in &self.acquired {
            icdb.apply_acquire(
                &a.iif_source,
                &a.component_type,
                &a.functions,
                &a.param_defaults,
                a.connection_text.as_deref(),
                &a.description,
            )?;
        }
        icdb.tools = self.tools;
        // Wholesale: the snapshot's tables already contain the acquired
        // catalog rows, so the rows `apply_acquire` just inserted are
        // replaced rather than duplicated.
        icdb.db = self.db;
        icdb.files = self.files;
        let mut map = HashMap::with_capacity(self.spaces.len());
        for s in self.spaces {
            let mut instances = HashMap::with_capacity(s.instances.len());
            let mut instance_order = Vec::with_capacity(s.instances.len());
            for inst in s.instances {
                instance_order.push(inst.name.clone());
                instances.insert(inst.name.clone(), inst);
            }
            map.insert(
                s.id,
                Namespace {
                    instances,
                    instance_order,
                    counter: s.counter,
                    commits: s.commits,
                    designs: s.designs,
                },
            );
        }
        icdb.spaces = Spaces::from_parts(map, self.next_ns);
        icdb.corpus.import(self.corpus);
        Ok(icdb)
    }
}

/// Vitals of an attached journal (see [`Icdb::persist_stats`] and the
/// `persist` CQL command).
#[derive(Debug, Clone, PartialEq)]
pub struct PersistStats {
    /// The data directory.
    pub data_dir: String,
    /// Current snapshot/WAL generation.
    pub generation: u64,
    /// Events in the current WAL (i.e. since the last checkpoint).
    pub wal_events: u64,
    /// Bytes in the current WAL.
    pub wal_bytes: u64,
    /// On-disk size of the current generation's snapshot (0 when the
    /// generation opened without one — a fresh directory).
    pub snapshot_bytes: u64,
    /// Events replayed from the WAL at the last recovery.
    pub recovered_events: u64,
    /// Whether the journal has latched a durability fault: the server is
    /// in read-only degraded mode and commits are refused with
    /// [`IcdbError::ReadOnly`] until a checkpoint re-arms writes.
    pub degraded: bool,
    /// The latched fault's message, when degraded.
    pub fault: Option<String>,
    /// The latched fault's OS errno (ENOSPC = 28, EIO = 5), when the
    /// underlying error carried one.
    pub fault_errno: Option<i32>,
    /// Replication role: `primary`, `follower`, or `degraded` (a latched
    /// durability fault trumps either role).
    pub role: String,
    /// Upstream primary address, when this server is a follower.
    pub upstream: Option<String>,
    /// Last upstream WAL sequence applied locally (0 on a primary).
    pub applied_seq: u64,
    /// How many durable upstream events have not yet been applied locally
    /// (0 on a primary).
    pub lag_events: u64,
}

/// The canonical `persist` key/value list: the one shared formatter
/// behind the `persist` CQL command, the `metrics` CQL command and the
/// HTTP `/metrics` exposition, so the follower fields
/// (`role`/`upstream`/`applied_seq`/`lag_events`) and degraded fields
/// (`degraded`/`fault`/`fault_errno`) can never drift between serve
/// paths. `None` renders an in-memory (journal-less) server's defaults.
pub(crate) fn persist_fields(
    stats: Option<&PersistStats>,
) -> Vec<(&'static str, icdb_cql::CqlValue)> {
    use icdb_cql::CqlValue;
    let int = |v: Option<u64>| CqlValue::Int(v.unwrap_or(0) as i64);
    vec![
        ("enabled", CqlValue::Int(i64::from(stats.is_some()))),
        ("generation", int(stats.map(|s| s.generation))),
        ("wal_events", int(stats.map(|s| s.wal_events))),
        ("wal_bytes", int(stats.map(|s| s.wal_bytes))),
        ("snapshot_bytes", int(stats.map(|s| s.snapshot_bytes))),
        ("recovered_events", int(stats.map(|s| s.recovered_events))),
        (
            "data_dir",
            CqlValue::Str(stats.map(|s| s.data_dir.clone()).unwrap_or_default()),
        ),
        (
            "degraded",
            CqlValue::Int(i64::from(stats.is_some_and(|s| s.degraded))),
        ),
        (
            "fault",
            CqlValue::Str(stats.and_then(|s| s.fault.clone()).unwrap_or_default()),
        ),
        (
            "fault_errno",
            CqlValue::Int(stats.and_then(|s| s.fault_errno).map_or(0, i64::from)),
        ),
        // Replication keys answer from the live `repl` state folded into
        // the stats: an in-memory server has no journal but still has a
        // role.
        (
            "role",
            CqlValue::Str(
                stats
                    .map(|s| s.role.clone())
                    .unwrap_or_else(|| "primary".to_string()),
            ),
        ),
        (
            "upstream",
            CqlValue::Str(stats.and_then(|s| s.upstream.clone()).unwrap_or_default()),
        ),
        ("applied_seq", int(stats.map(|s| s.applied_seq))),
        ("lag_events", int(stats.map(|s| s.lag_events))),
    ]
}

/// Replication position of a follower: who it tails and how far it got.
/// Lives on the [`Icdb`] itself (not the service) so the `persist` CQL
/// command can answer replication keys without a service handle.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ReplState {
    /// Address of the upstream primary (`HOST:PORT`).
    pub(crate) upstream: String,
    /// Last upstream WAL sequence applied locally.
    pub(crate) applied_seq: u64,
    /// Durable upstream events not yet applied locally, as of the last
    /// streamed batch.
    pub(crate) lag_events: u64,
}

/// The attached journal: a group-committing WAL plus generation
/// bookkeeping. The [`GroupWal`] sits behind an `Arc` because committers
/// keep [`WalTicket`]s pointing at it — the enqueue happens under the
/// service's exclusive lock (journal order = apply order = replay order),
/// while the fsync wait happens *after* every lock is dropped, so one
/// batch fsync acknowledges many concurrent sessions.
#[derive(Debug)]
pub(crate) struct Journal {
    dir: DataDir,
    generation: u64,
    wal: Arc<GroupWal>,
    snapshot_bytes: u64,
    recovered_events: u64,
    /// Boot epoch: wall-clock nanos sampled when the journal attached.
    /// WAL sequence numbers are process-local (they restart at the
    /// recovered record count on every open), so replication replies
    /// carry this epoch and a follower that sees it change knows its
    /// position is meaningless against the restarted primary.
    epoch: u64,
}

impl Journal {
    /// Serializes and enqueues one event for the next commit batch,
    /// returning the ticket to wait on. No I/O happens here (cheap to
    /// call under the exclusive lock).
    pub(crate) fn submit(&self, event: &MutationEvent) -> io::Result<WalTicket> {
        let seq = self.wal.submit(serde::to_bytes(event))?;
        Ok(WalTicket {
            wal: Arc::clone(&self.wal),
            seq,
        })
    }

    /// Drains the commit queue and forces it to stable storage.
    pub(crate) fn flush(&self) -> io::Result<()> {
        self.wal.flush()
    }

    /// The latched durability fault, if the WAL has failed and not been
    /// re-armed.
    pub(crate) fn fault(&self) -> Option<icdb_store::wal::WalFault> {
        self.wal.fault()
    }

    /// The data directory this journal writes into.
    pub(crate) fn data_dir(&self) -> &DataDir {
        &self.dir
    }

    /// Current snapshot/WAL generation.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// A handle to the group-commit WAL (replication streaming reads it
    /// outside every service lock).
    pub(crate) fn wal_handle(&self) -> Arc<GroupWal> {
        Arc::clone(&self.wal)
    }

    /// This journal attachment's boot epoch (see the field doc).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    fn stats(&self) -> PersistStats {
        let fault = self.wal.fault();
        PersistStats {
            data_dir: self.dir.root().display().to_string(),
            generation: self.generation,
            wal_events: self.wal.records(),
            wal_bytes: self.wal.bytes(),
            snapshot_bytes: self.snapshot_bytes,
            recovered_events: self.recovered_events,
            degraded: fault.is_some(),
            fault: fault.as_ref().map(|f| f.message().to_string()),
            fault_errno: fault.as_ref().and_then(|f| f.errno()),
            role: if fault.is_some() {
                "degraded".to_string()
            } else {
                "primary".to_string()
            },
            upstream: None,
            applied_seq: 0,
            lag_events: 0,
        }
    }
}

/// Proof that one committed event is enqueued in the write-ahead log, and
/// a handle to block until it is durable. Tickets are prefix-closed:
/// waiting on the *last* ticket of a multi-event operation also makes
/// every earlier one durable (batch writes happen in sequence order).
#[derive(Debug, Clone)]
pub struct WalTicket {
    wal: Arc<GroupWal>,
    seq: u64,
}

impl WalTicket {
    /// Blocks until the ticket's event is durable — leading a group flush
    /// if no other committer is (see [`GroupWal::wait_durable`]).
    ///
    /// # Errors
    /// [`IcdbError::ReadOnly`] when the log has failed: the event was
    /// applied in memory but its durability cannot be acknowledged, and
    /// the server is now degraded until a checkpoint re-arms writes.
    pub fn wait(&self) -> Result<(), IcdbError> {
        self.wal
            .wait_durable(self.seq)
            .map_err(|e| IcdbError::ReadOnly(format!("journal flush failed: {e}")))
    }
}

fn store_err(context: &str, e: impl std::fmt::Display) -> IcdbError {
    IcdbError::Store(format!("{context}: {e}"))
}

impl Icdb {
    /// Opens (or creates) a durable server over a data directory:
    /// recovers state from the newest valid snapshot plus the WAL tail
    /// (truncating any torn final record a crash left behind), then
    /// attaches the journal so every subsequent mutation is fsynced to
    /// the log before it is applied.
    ///
    /// # Errors
    /// I/O failures and undecodable snapshots surface as
    /// [`IcdbError::Store`].
    pub fn open(data_dir: impl AsRef<Path>) -> Result<Icdb, IcdbError> {
        Icdb::open_with_sync(data_dir, true)
    }

    /// [`Icdb::open`] with an explicit fsync policy: `sync = false` skips
    /// the per-commit fsync (the OS still writes the log back eventually)
    /// — records survive a process crash but not necessarily a power
    /// failure. Used by tests and benches where per-event fsync dominates.
    ///
    /// # Errors
    /// As [`Icdb::open`].
    pub fn open_with_sync(data_dir: impl AsRef<Path>, sync: bool) -> Result<Icdb, IcdbError> {
        Icdb::open_with_options(data_dir, sync, Duration::ZERO)
    }

    /// [`Icdb::open_with_sync`] with an explicit group-commit window: how
    /// long a would-be batch leader waits for more concurrent committers
    /// to join before flushing ([`GroupWal`]). Zero (the
    /// [`Icdb::open_with_sync`] default) flushes immediately — concurrent
    /// committers still batch, because everything enqueued while one
    /// fsync is in flight rides the next one.
    ///
    /// # Errors
    /// As [`Icdb::open`].
    pub fn open_with_options(
        data_dir: impl AsRef<Path>,
        sync: bool,
        group_commit_window: Duration,
    ) -> Result<Icdb, IcdbError> {
        let dir = DataDir::open(data_dir.as_ref()).map_err(|e| store_err("open data dir", e))?;
        let (generation, mut icdb, snapshot_bytes) = match dir.newest_valid_snapshot() {
            Some((generation, payload)) => {
                let snapshot: Snapshot =
                    serde::from_bytes(&payload).map_err(|e| store_err("decode snapshot", e))?;
                let size = std::fs::metadata(dir.snapshot_path(generation))
                    .map(|m| m.len())
                    .unwrap_or(0);
                (generation, snapshot.restore()?, size)
            }
            None => (0, Icdb::new(), 0),
        };
        // Drop every other generation's files: older ones are superseded
        // by the snapshot; stale *newer* ones (left behind when a corrupt
        // newest snapshot forced a fall-back) must not linger, or a later
        // checkpoint reaching that generation number would append into
        // the old WAL and the next boot would replay its stale records.
        dir.prune_generations_except(generation);
        let wal_path = dir.wal_path(generation);
        let scan = icdb_store::wal::scan_wal(&wal_path).map_err(|e| store_err("scan wal", e))?;
        // Replay the *decodable* prefix. A record that passes its CRC but
        // no longer decodes (format skew) ends the usable log exactly like
        // a torn tail: it is truncated away below, so new commits append
        // where it sat instead of being stranded beyond a record every
        // future replay would stop at.
        let mut recovered_events = 0u64;
        for payload in &scan.records {
            match serde::from_bytes::<MutationEvent>(payload) {
                Ok(event) => {
                    // Apply errors are deterministic re-runs of live
                    // failures; ignore them exactly as the live caller
                    // saw them.
                    let _ = icdb.apply(&event);
                    recovered_events += 1;
                }
                Err(_) => break,
            }
        }
        // The inner writer never fsyncs per-append: the group layer owns
        // the fsync policy (one per batch in sync mode).
        let writer = icdb_store::wal::WalWriter::open_at(
            &wal_path,
            scan.prefix_len(recovered_events as usize),
            recovered_events,
            false,
        )
        .map_err(|e| store_err("open wal", e))?;
        icdb.journal = Some(Journal {
            dir,
            generation,
            wal: Arc::new(GroupWal::new(writer, sync, group_commit_window)),
            snapshot_bytes,
            recovered_events,
            epoch: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(1),
        });
        Ok(icdb)
    }

    /// Whether this server journals its mutations to a data directory.
    pub fn is_persistent(&self) -> bool {
        self.journal.is_some()
    }

    /// The journal's vitals, when one is attached. On a replication
    /// follower the role/upstream/position fields reflect the tailing
    /// state instead of the standalone defaults.
    pub fn persist_stats(&self) -> Option<PersistStats> {
        let mut stats = self.journal.as_ref().map(Journal::stats)?;
        if let Some(repl) = &self.repl {
            if !stats.degraded {
                stats.role = "follower".to_string();
            }
            stats.upstream = Some(repl.upstream.clone());
            stats.applied_seq = repl.applied_seq;
            stats.lag_events = repl.lag_events;
        }
        Some(stats)
    }

    /// Promotes a replication follower into a writable primary: clears
    /// the follower state (new mutations are accepted immediately) and
    /// checkpoints onto a fresh WAL generation, sealing the replicated
    /// history into a snapshot. The replication tail loop discovers the
    /// promotion on its next apply attempt and stops.
    ///
    /// # Errors
    /// [`IcdbError::Unsupported`] when this server is not a follower;
    /// checkpoint failures surface as [`IcdbError::Store`] (the node is
    /// still promoted — writes proceed on the old generation).
    pub fn promote_journal(&mut self) -> Result<PersistStats, IcdbError> {
        if self.repl.is_none() {
            return Err(IcdbError::Unsupported(
                "promote: this server is not a replication follower".into(),
            ));
        }
        self.repl = None;
        self.checkpoint()
    }

    /// Writes a full snapshot of the current state as a new generation
    /// (atomic temp-file + rename), starts a fresh empty WAL, and prunes
    /// the previous generation. Recovery afterwards loads the snapshot
    /// and replays only events committed after this call.
    ///
    /// On a **degraded** server (latched WAL fault) a successful
    /// checkpoint also re-arms writes: the snapshot captures the full
    /// in-memory state, superseding the suspect log tail entirely, and a
    /// fresh empty WAL generation replaces the failed writer. If the
    /// directory is still unhealthy the checkpoint fails and the server
    /// stays degraded — re-arming requires provably clean I/O.
    ///
    /// # Errors
    /// [`IcdbError::Unsupported`] when the server has no data directory;
    /// I/O failures surface as [`IcdbError::Store`] (the previous
    /// generation is kept intact, so a failed checkpoint loses nothing).
    pub fn checkpoint(&mut self) -> Result<PersistStats, IcdbError> {
        if self.journal.is_none() {
            return Err(IcdbError::Unsupported(
                "server has no data directory (open it with Icdb::open)".into(),
            ));
        }
        let journal = self.journal.as_ref().expect("checked above");
        let faulted = journal.fault().is_some();
        if !faulted {
            // Drain the group-commit queue *before* capturing the
            // snapshot: an in-flight batch must reach stable storage
            // ahead of the rotation, or acknowledged commits would sit
            // only in a WAL that is about to be pruned. (This also
            // covers the no-sync mode, whose tail may still be in OS
            // buffers.) On a faulted log there is nothing to drain —
            // every queued record was refused to its committer, and the
            // snapshot below supersedes the suspect tail wholesale.
            journal
                .flush()
                .map_err(|e| store_err("flush wal before checkpoint", e))?;
        }
        let payload = serde::to_bytes(&Snapshot::capture(self));
        let journal = self.journal.as_mut().expect("checked above");
        let next = journal.generation + 1;
        let snapshot_bytes = journal
            .dir
            .write_snapshot(next, &payload)
            .map_err(|e| store_err("write snapshot", e))?;
        let (writer, scan) = journal
            .dir
            .open_wal(next, false)
            .map_err(|e| store_err("open new wal", e))?;
        if faulted {
            // Re-arm: the snapshot just made the in-memory state durable,
            // so the latch can clear onto the fresh, verified-empty
            // generation.
            if scan.valid_len != 0 {
                return Err(IcdbError::Store(format!(
                    "new wal generation {next} is not empty; refusing to re-arm"
                )));
            }
            journal.wal.clear_fault(writer);
        } else {
            journal
                .wal
                .rotate(writer)
                .map_err(|e| store_err("rotate wal", e))?;
        }
        journal.generation = next;
        journal.snapshot_bytes = snapshot_bytes;
        journal.dir.prune_generations_before(next);
        Ok(journal.stats())
    }

    /// Whether the journal has latched a durability fault (the server is
    /// read-only degraded), and what it was. `None` for healthy and for
    /// purely in-memory servers.
    pub fn journal_fault(&self) -> Option<icdb_store::wal::WalFault> {
        self.journal.as_ref().and_then(Journal::fault)
    }

    /// Clears a latched journal fault by checkpointing — a full snapshot
    /// plus a fresh, verified-empty WAL generation (see
    /// [`Icdb::checkpoint`]). Returns `false` (doing nothing) when the
    /// server is healthy.
    ///
    /// # Errors
    /// As [`Icdb::checkpoint`]; on failure the server stays degraded.
    pub fn clear_journal_fault(&mut self) -> Result<bool, IcdbError> {
        if self.journal_fault().is_none() {
            return Ok(false);
        }
        self.checkpoint()?;
        Ok(true)
    }

    /// Drains the group-commit queue and flushes the journal to stable
    /// storage without checkpointing (a full fsync even when opened with
    /// `sync = false`).
    ///
    /// # Errors
    /// [`IcdbError::Store`] on I/O failure; no-op without a journal.
    pub fn sync_journal(&mut self) -> Result<(), IcdbError> {
        if let Some(journal) = self.journal.as_ref() {
            journal.flush().map_err(|e| store_err("sync journal", e))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ComponentRequest;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "icdb-persist-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fresh_open_journals_and_recovers() {
        let dir = temp_dir("fresh");
        let name;
        {
            let mut icdb = Icdb::open_with_sync(&dir, false).unwrap();
            assert!(icdb.is_persistent());
            assert_eq!(icdb.persist_stats().unwrap().generation, 0);
            name = icdb
                .request_component(
                    &ComponentRequest::by_component("counter").attribute("size", "3"),
                )
                .unwrap();
            let stats = icdb.persist_stats().unwrap();
            assert_eq!(stats.wal_events, 1);
            assert!(stats.wal_bytes > 0);
            icdb.sync_journal().unwrap();
        } // dropped without checkpoint: recovery must come from the WAL
        let recovered = Icdb::open_with_sync(&dir, false).unwrap();
        assert_eq!(recovered.persist_stats().unwrap().recovered_events, 1);
        assert!(recovered.instance(&name).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_rolls_the_generation_and_empties_the_wal() {
        let dir = temp_dir("checkpoint");
        let mut icdb = Icdb::open_with_sync(&dir, false).unwrap();
        icdb.request_component(&ComponentRequest::by_implementation("ADDER"))
            .unwrap();
        let stats = icdb.checkpoint().unwrap();
        assert_eq!(stats.generation, 1);
        assert_eq!(stats.wal_events, 0);
        assert!(stats.snapshot_bytes > 0);
        // More work after the checkpoint lands in the new WAL.
        icdb.request_component(&ComponentRequest::by_implementation("REGISTER"))
            .unwrap();
        assert_eq!(icdb.persist_stats().unwrap().wal_events, 1);
        drop(icdb);
        let recovered = Icdb::open_with_sync(&dir, false).unwrap();
        let stats = recovered.persist_stats().unwrap();
        assert_eq!(stats.generation, 1);
        assert_eq!(stats.recovered_events, 1);
        assert_eq!(recovered.instance_names().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A checksum-valid but undecodable record ends the usable log like a
    /// torn tail: it is truncated, and commits made after recovery are
    /// appended in its place — never stranded beyond it.
    #[test]
    fn undecodable_record_is_truncated_not_skipped() {
        let dir = temp_dir("skew");
        {
            let mut icdb = Icdb::open_with_sync(&dir, false).unwrap();
            icdb.request_component(&ComponentRequest::by_implementation("ADDER"))
                .unwrap();
            icdb.sync_journal().unwrap();
        }
        // Append a garbage record by hand: framing + CRC valid, payload
        // not a MutationEvent.
        let wal_path = dir.join("wal-0.log");
        {
            let (mut w, _) = icdb_store::wal::WalWriter::open(&wal_path, false).unwrap();
            w.append(&[0xFF, 0xEE, 0xDD]).unwrap();
        }
        let mut recovered = Icdb::open_with_sync(&dir, false).unwrap();
        assert_eq!(recovered.persist_stats().unwrap().recovered_events, 1);
        // The garbage record is gone from the log…
        let scan = icdb_store::wal::scan_wal(&wal_path).unwrap();
        assert_eq!(scan.records.len(), 1);
        // …so a post-recovery commit lands where it sat and is recovered
        // by the next boot (an fsync-acknowledged commit must never be
        // invisible to replay).
        let name = recovered
            .request_component(&ComponentRequest::by_implementation("REGISTER"))
            .unwrap();
        recovered.sync_journal().unwrap();
        drop(recovered);
        let reopened = Icdb::open_with_sync(&dir, false).unwrap();
        assert_eq!(reopened.persist_stats().unwrap().recovered_events, 2);
        assert!(reopened.instance(&name).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// When the newest snapshot is corrupt and recovery falls back, the
    /// stale newer generation's files are pruned — a later checkpoint
    /// reaching that generation number must start from an empty WAL, not
    /// append after pre-corruption records.
    #[test]
    fn fallback_recovery_prunes_stale_newer_generations() {
        let dir = temp_dir("fallback");
        let name;
        {
            let mut icdb = Icdb::open_with_sync(&dir, false).unwrap();
            name = icdb
                .request_component(&ComponentRequest::by_implementation("ADDER"))
                .unwrap();
            icdb.checkpoint().unwrap(); // generation 1
            icdb.request_component(&ComponentRequest::by_implementation("REGISTER"))
                .unwrap();
            icdb.sync_journal().unwrap(); // wal-1 holds one event
        }
        // Corrupt snapshot-1: recovery must fall back to generation 0
        // (fresh state) and remove the stale wal-1.
        let snap = dir.join("snapshot-1.img");
        let mut bytes = std::fs::read(&snap).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(&snap, &bytes).unwrap();
        let mut recovered = Icdb::open_with_sync(&dir, false).unwrap();
        let stats = recovered.persist_stats().unwrap();
        assert_eq!(stats.generation, 0);
        assert!(
            !dir.join("wal-1.log").exists(),
            "stale wal-1 must be pruned"
        );
        assert!(
            recovered.instance(&name).is_err(),
            "fresh state after fallback"
        );
        // Checkpointing back up to generation 1 starts clean; the next
        // boot replays nothing stale.
        recovered
            .request_component(&ComponentRequest::by_implementation("MUX").attribute("size", "2"))
            .unwrap();
        let stats = recovered.checkpoint().unwrap();
        assert_eq!((stats.generation, stats.wal_events), (1, 0));
        drop(recovered);
        let reopened = Icdb::open_with_sync(&dir, false).unwrap();
        assert_eq!(reopened.persist_stats().unwrap().recovered_events, 0);
        assert_eq!(reopened.instance_names().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The on-disk WAL format: a log captured from an earlier build
    /// recovers to the same namespace, and the same operations journal to
    /// the same bytes today.
    #[test]
    fn a_wal_image_from_an_earlier_build_recovers_byte_for_byte() {
        const IMAGE: &str = concat!(
            // CreateNamespace
            "04000000783ff94e0a000000",
            // StartDesign { ns: 1, design: "cpu" }
            "1700000066004ee20500000001000000000000000300000000000000637075",
            // InstallComponent { ns: 1, component "counter", size 4 }
            "690000000b92a4a502000000010000000000000000000000010700000000000000636f756e746572",
            "0000000000000000000100000000000000040000000000000073697a650100000000000000340000",
            "000000000000000000000000000000000000000000000000000000000000000000",
            // InstallComponent { ns: 1, implementation "ADDER", size 3 }
            "67000000511e166c0200000001000000000000000000000000010500000000000000414444455200",
            "000000000000000100000000000000040000000000000073697a6501000000000000003300000000",
            "00000000000000000000000000000000000000000000000000000000000000",
        );
        let image: Vec<u8> = (0..IMAGE.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&IMAGE[i..i + 2], 16).unwrap())
            .collect();
        let ns = crate::space::NsId(1);
        let recovered_dir = temp_dir("earlier-build");
        std::fs::create_dir_all(&recovered_dir).unwrap();
        std::fs::write(recovered_dir.join("wal-0.log"), &image).unwrap();
        let recovered = Icdb::open_with_sync(&recovered_dir, false).unwrap();
        let stats = recovered.persist_stats().unwrap();
        assert_eq!((stats.recovered_events, stats.wal_bytes), (4, 267));
        let names: Vec<&str> = recovered
            .instance_names_in(ns)
            .unwrap()
            .iter()
            .map(|n| &**n)
            .collect();
        assert_eq!(names, ["counter$1", "adder$2"]);
        assert_eq!(recovered.commit_seq_in(ns).unwrap(), 3);

        let fresh_dir = temp_dir("same-bytes");
        {
            let mut icdb = Icdb::open_with_sync(&fresh_dir, false).unwrap();
            assert_eq!(icdb.create_namespace(), ns);
            icdb.start_design_in(ns, "cpu").unwrap();
            let counter = ComponentRequest::by_component("counter").attribute("size", "4");
            let adder = ComponentRequest::by_implementation("ADDER").attribute("size", "3");
            icdb.request_component_in(ns, &counter).unwrap();
            icdb.request_component_in(ns, &adder).unwrap();
            icdb.sync_journal().unwrap();
        }
        assert_eq!(std::fs::read(fresh_dir.join("wal-0.log")).unwrap(), image);
        std::fs::remove_dir_all(&recovered_dir).unwrap();
        std::fs::remove_dir_all(&fresh_dir).unwrap();
    }

    #[test]
    fn snapshot_restores_acquired_knowledge_and_designs() {
        let dir = temp_dir("acquired");
        let mut icdb = Icdb::open_with_sync(&dir, false).unwrap();
        icdb.insert_implementation(
            "NAME: PASS; INORDER: A; OUTORDER: O; { O = A; }",
            "Logic_unit",
            &["PASS"],
            &[],
            None,
            "snapshot survivor",
        )
        .unwrap();
        icdb.start_design("cpu").unwrap();
        icdb.start_transaction("cpu").unwrap();
        let keep = icdb
            .request_component(&ComponentRequest::by_implementation("PASS"))
            .unwrap();
        icdb.put_in_component_list("cpu", &keep).unwrap();
        icdb.checkpoint().unwrap();
        drop(icdb);
        let mut recovered = Icdb::open_with_sync(&dir, false).unwrap();
        // The acquired implementation is generatable again…
        assert!(recovered.library.implementation("PASS").is_some());
        // …its catalog row survived…
        let rows = recovered
            .db
            .query("SELECT description FROM components WHERE name = 'PASS'")
            .unwrap();
        assert_eq!(rows[0][0].as_text(), Some("snapshot survivor"));
        // …and the open transaction still protects the kept instance.
        let removed = recovered.end_transaction("cpu").unwrap();
        assert_eq!(removed, 0);
        assert!(recovered.instance(&keep).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
