//! The concurrent multi-session service layer: one shared [`Icdb`] served
//! to many clients at once.
//!
//! [`IcdbService`] wraps the knowledge base, cell library, generation
//! cache and relational catalog behind three cooperating mechanisms,
//! replacing the single big `RwLock` of earlier revisions:
//!
//! * **Epoch snapshots (lock-free reads).** Warm *and cold*
//!   `Icdb::prepare_payload` runs, knowledge-only CQL queries (the
//!   `Knowledge` rows of [`icdb_cql::COMMANDS`]: `component_query`,
//!   `cache_query`, …) and [`Session::explore`] sweeps are answered
//!   from an `Icdb::read_snapshot`: a cloned view
//!   of the knowledge base, cell library and tool registry sharing the
//!   (internally synchronized) generation cache. Snapshot freshness is
//!   tracked by two atomic version mirrors — the moment knowledge
//!   acquisition bumps the library or cell-library version, the cached
//!   snapshot is stale and the next epoch read rebuilds it under a brief
//!   shared lock. In steady state these paths take *no* service lock at
//!   all, and because the cache is shared, a pipeline warmed through a
//!   snapshot serves the subsequent locked install.
//! * **Per-namespace shards (concurrent writers).** Mutations are
//!   serialized per namespace shard (`crate::space::ShardSet`), not
//!   globally: the shard lock is held across *enqueue → apply →
//!   durability wait*, so commits inside one namespace acknowledge in
//!   apply order while sessions on different shards overlap their fsync
//!   waits. The short apply still runs under the inner exclusive lock
//!   (shard locks order strictly before it), keeping every existing
//!   transcript-equivalence guarantee intact.
//! * **WAL group-commit (batched durability).** The journal enqueues
//!   events under the exclusive lock but *waits* for durability after
//!   releasing it (see `crate::persist::WalTicket`): one group fsync
//!   then acknowledges every committer whose event made the batch, so
//!   mutation throughput scales with writer count instead of paying one
//!   fsync per mutation.
//!
//! Each [`Session`] owns a private design namespace ([`NsId`]): isolated
//! instance lists, an independent `impl$N` naming counter and independent
//! design transactions over the one shared knowledge base. A session's
//! request/query results are therefore byte-identical to replaying the
//! same sequence on a dedicated single-caller [`Icdb`] — concurrency is
//! invisible to each client — while knowledge acquired by *any* session
//! (a new implementation, a cell-library change) bumps the shared version
//! counters and invalidates warm cache hits *and epoch snapshots* for
//! all sessions at once.
//!
//! Mutating through the raw [`IcdbService::write`] guard bypasses the
//! version mirrors; they heal on the next service-level call (any
//! [`IcdbService::read`] renotes them), so prefer the session API when
//! epoch-read freshness matters.
//!
//! ```
//! use icdb_core::{ComponentRequest, IcdbService};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), icdb_core::IcdbError> {
//! let service = Arc::new(IcdbService::new());
//! let alice = service.open_session();
//! let bob = service.open_session();
//! let req = ComponentRequest::by_component("counter").attribute("size", "4");
//! // Isolated namespaces: both sessions get their own `counter$1`.
//! assert_eq!(alice.request_component(&req)?, "counter$1");
//! assert_eq!(bob.request_component(&req)?, "counter$1");
//! // …but the second request was answered from the shared cache.
//! assert_eq!(service.cache_stats().result.hits, 1);
//! # Ok(())
//! # }
//! ```

use crate::error::IcdbError;
use crate::persist::PersistStats;
use crate::space::{NsId, ShardSet};
use crate::spec::{ComponentRequest, Source};
use crate::{CacheStats, Icdb};
use icdb_cql::{bind_outputs, parse_command, Command, CqlArg, Response, Tier};
use icdb_estimate::LoadSpec;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// A thread-safe, multi-session handle over one shared [`Icdb`].
///
/// Wrap it in an [`Arc`] and call [`IcdbService::open_session`] once per
/// client; see the [module docs](self) for the concurrency protocol.
#[derive(Debug)]
pub struct IcdbService {
    inner: RwLock<Icdb>,
    /// Which session token currently *owns* each session namespace —
    /// i.e. whose close/drop is allowed to delete it. `Session::attach`
    /// transfers ownership here, so a stale session (a half-open
    /// connection whose client already re-attached elsewhere) cannot
    /// destroy the namespace out from under the new owner when it
    /// finally drops. Locked only while holding the inner write guard.
    owners: Mutex<HashMap<u64, u64>>,
    next_token: AtomicU64,
    /// Per-namespace write serialization (see module docs): held across
    /// enqueue → apply → durability wait, strictly before `inner`.
    shards: ShardSet,
    /// The cached epoch snapshot serving lock-free knowledge reads, plus
    /// the version mirrors that decide its freshness. The mirrors trail
    /// the live versions by at most one in-flight exclusive section (they
    /// are renoted before the write guard drops).
    epoch: Mutex<Option<Arc<Icdb>>>,
    lib_version: AtomicU64,
    cells_version: AtomicU64,
}

impl Default for IcdbService {
    fn default() -> IcdbService {
        IcdbService::new()
    }
}

impl IcdbService {
    /// A service over a fresh [`Icdb::new`] server.
    pub fn new() -> IcdbService {
        IcdbService::with_icdb(Icdb::new())
    }

    /// A service taking ownership of an existing server (whose root
    /// namespace, pre-generated instances included, stays reachable
    /// through [`IcdbService::read`] / [`IcdbService::write`]).
    pub fn with_icdb(icdb: Icdb) -> IcdbService {
        let lib_version = icdb.library.version();
        let cells_version = icdb.cells.version();
        IcdbService {
            inner: RwLock::new(icdb),
            owners: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(1),
            shards: ShardSet::new(),
            epoch: Mutex::new(None),
            lib_version: AtomicU64::new(lib_version),
            cells_version: AtomicU64::new(cells_version),
        }
    }

    /// Convenience for `Arc::new(IcdbService::new())`.
    pub fn shared() -> Arc<IcdbService> {
        Arc::new(IcdbService::new())
    }

    /// A durable service over [`Icdb::open`]: recovers state from the data
    /// directory, then journals every mutation through the group-commit
    /// pipeline (enqueued under the exclusive lock, fsynced in batches
    /// after the guard drops).
    ///
    /// # Errors
    /// See [`Icdb::open`].
    pub fn open(data_dir: impl AsRef<Path>) -> Result<IcdbService, IcdbError> {
        Ok(IcdbService::with_icdb(Icdb::open(data_dir)?))
    }

    /// [`IcdbService::open`] with an explicit fsync policy (see
    /// [`Icdb::open_with_sync`]).
    ///
    /// # Errors
    /// See [`Icdb::open`].
    pub fn open_with_sync(
        data_dir: impl AsRef<Path>,
        sync: bool,
    ) -> Result<IcdbService, IcdbError> {
        Ok(IcdbService::with_icdb(Icdb::open_with_sync(
            data_dir, sync,
        )?))
    }

    /// [`IcdbService::open`] with explicit fsync policy *and* group-commit
    /// window: a committer that finds no flush leader waits up to
    /// `group_commit_window` for companions before leading the batch
    /// itself. `Duration::ZERO` flushes eagerly (still batching whatever
    /// queued while the previous flush was in flight).
    ///
    /// # Errors
    /// See [`Icdb::open`].
    pub fn open_with_options(
        data_dir: impl AsRef<Path>,
        sync: bool,
        group_commit_window: Duration,
    ) -> Result<IcdbService, IcdbError> {
        Ok(IcdbService::with_icdb(Icdb::open_with_options(
            data_dir,
            sync,
            group_commit_window,
        )?))
    }

    /// Snapshot + WAL rotation under the exclusive lock (see
    /// [`Icdb::checkpoint`]). Drains the group-commit queue first, so
    /// every acknowledged — and every merely enqueued — event is on disk
    /// before the snapshot captures.
    ///
    /// # Errors
    /// See [`Icdb::checkpoint`].
    pub fn checkpoint(&self) -> Result<PersistStats, IcdbError> {
        self.write().checkpoint()
    }

    /// The journal's vitals, when the service is durable.
    pub fn persist_stats(&self) -> Option<PersistStats> {
        self.read().persist_stats()
    }

    /// Shared (read) access to the underlying server. Many readers may
    /// hold this concurrently; it blocks only while a writer is active.
    /// Lock poisoning is recovered from, matching the cache layer: every
    /// exclusive-section mutation is either a single map/store operation
    /// or is followed by consistent bookkeeping.
    pub fn read(&self) -> RwLockReadGuard<'_, Icdb> {
        let guard = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        // Opportunistic healing: renote the version mirrors so epoch
        // snapshots catch up with mutations made through raw `write()`
        // guards (which bypass `note_versions`).
        self.note_versions(&guard);
        guard
    }

    /// Exclusive (write) access to the underlying server. Prefer the
    /// session API: raw-guard mutations bypass the epoch version mirrors
    /// (healed on the next service-level read) and the group-commit wait
    /// discipline.
    pub fn write(&self) -> RwLockWriteGuard<'_, Icdb> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mirrors the live knowledge versions so `epoch()` can judge
    /// snapshot freshness without a lock probe.
    fn note_versions(&self, icdb: &Icdb) {
        self.lib_version
            .store(icdb.library.version(), Ordering::Release);
        self.cells_version
            .store(icdb.cells.version(), Ordering::Release);
    }

    fn lock_epoch(&self) -> std::sync::MutexGuard<'_, Option<Arc<Icdb>>> {
        self.epoch.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current epoch snapshot: a lock-free read view of the knowledge
    /// base (see [`Icdb::read_snapshot`]). Returns the cached snapshot
    /// when its knowledge versions match the mirrors; otherwise rebuilds
    /// it under a brief shared lock. Callers must route only
    /// knowledge/cache reads through it — its namespaces and catalog are
    /// empty.
    fn epoch(&self) -> Arc<Icdb> {
        let lib = self.lib_version.load(Ordering::Acquire);
        let cells = self.cells_version.load(Ordering::Acquire);
        if let Some(snap) = self.lock_epoch().as_ref() {
            if snap.library.version() == lib && snap.cells.version() == cells {
                return Arc::clone(snap);
            }
        }
        let guard = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        self.note_versions(&guard);
        let snap = Arc::new(guard.read_snapshot());
        drop(guard);
        *self.lock_epoch() = Some(Arc::clone(&snap));
        snap
    }

    /// The exclusive commit section shared by every mutating service
    /// path: journal events are *enqueued* (not fsynced) while `f` runs
    /// under the write guard, the version mirrors are renoted, the guard
    /// drops — and only then does the caller block on the group-commit
    /// ticket. Waiting on the **last** ticket suffices: WAL batches are
    /// drained in sequence order, so a later event durable implies every
    /// earlier one is.
    ///
    /// When `f` itself fails its error wins (events already enqueued
    /// replay deterministically to the same failure); when `f` succeeds
    /// but the group flush fails, the durability error surfaces — the
    /// mutation is applied in memory but unacknowledged, exactly the
    /// contract the recovery suite pins.
    ///
    /// A server whose journal has latched a durability fault is
    /// **read-only degraded**: the section refuses up front with
    /// [`IcdbError::ReadOnly`] instead of running `f`, so no further
    /// mutation piles onto un-journalable state. Only the checkpoint /
    /// `persist` path (`allow_degraded`) may enter, because a successful
    /// checkpoint is exactly what re-arms writes.
    fn commit_exclusive<T>(
        &self,
        f: impl FnOnce(&mut Icdb) -> Result<T, IcdbError>,
    ) -> Result<T, IcdbError> {
        self.commit_exclusive_inner(false, f)
    }

    fn commit_exclusive_inner<T>(
        &self,
        allow_degraded: bool,
        f: impl FnOnce(&mut Icdb) -> Result<T, IcdbError>,
    ) -> Result<T, IcdbError> {
        let mut guard = self.write();
        if !allow_degraded {
            // A follower only mutates through the replication stream;
            // direct commits must go to the primary. The `persist` family
            // (`allow_degraded`) stays reachable — `promote:1` is how a
            // follower becomes writable.
            if let Some(repl) = &guard.repl {
                return Err(IcdbError::NotPrimary(format!(
                    "this node is a replication follower of {}; send mutations to the primary",
                    repl.upstream
                )));
            }
            if let Some(fault) = guard.journal_fault() {
                return Err(IcdbError::ReadOnly(format!(
                    "commits refused while degraded: {fault}"
                )));
            }
        }
        guard.begin_deferred();
        let result = f(&mut guard);
        let tickets = guard.end_deferred();
        self.note_versions(&guard);
        drop(guard);
        let durable = match tickets.last() {
            Some(ticket) => ticket.wait(),
            None => Ok(()),
        };
        match (result, durable) {
            (Err(e), _) => Err(e),
            (Ok(_), Err(e)) => Err(e),
            (Ok(v), Ok(())) => Ok(v),
        }
    }

    /// [`IcdbService::commit_exclusive`] serialized through `ns`'s shard:
    /// commits inside one namespace acknowledge in apply order, while
    /// sessions on other shards overlap their durability waits (one group
    /// fsync acknowledges them all).
    fn with_write<T>(
        &self,
        ns: NsId,
        f: impl FnOnce(&mut Icdb) -> Result<T, IcdbError>,
    ) -> Result<T, IcdbError> {
        let _shard = self.shards.lock(ns);
        self.commit_exclusive(f)
    }

    /// [`IcdbService::with_write`] for the `persist` command family,
    /// which must stay reachable on a degraded server — `persist
    /// checkpoint:1` / `clear_fault:1` is how an operator re-arms writes.
    fn with_write_allowing_degraded<T>(
        &self,
        ns: NsId,
        f: impl FnOnce(&mut Icdb) -> Result<T, IcdbError>,
    ) -> Result<T, IcdbError> {
        let _shard = self.shards.lock(ns);
        self.commit_exclusive_inner(true, f)
    }

    /// Journals any exploration-corpus rows queued by lock-free epoch
    /// sweeps. Best-effort: a follower or degraded primary cannot
    /// journal corpus rows, so the pending queue is discarded there —
    /// the corpus is a performance aid, never a correctness dependency,
    /// and the queue must not grow without bound.
    pub(crate) fn flush_corpus(&self) {
        if !self.read().corpus.has_pending() {
            return;
        }
        if self.commit_exclusive(|icdb| icdb.flush_corpus()).is_err() {
            self.read().corpus.discard_pending();
        }
    }

    /// Opens a new session with a fresh, isolated design namespace.
    pub fn open_session(self: &Arc<Self>) -> Session {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let mut guard = self.write();
        guard.begin_deferred();
        let ns = guard.create_namespace();
        let tickets = guard.end_deferred();
        self.lock_owners().insert(ns.raw(), token);
        self.note_versions(&guard);
        drop(guard);
        if let Some(ticket) = tickets.last() {
            // A durability failure degrades the server to read-only but
            // must not kill the connection path: the session opens with a
            // memory-only namespace (reads serve; commits refuse), and a
            // recovery that never re-armed simply forgets it.
            let _ = ticket.wait();
        }
        Session {
            service: Arc::clone(self),
            ns,
            token,
            closed: false,
        }
    }

    /// The ownership table (poisoning recovered like the inner lock).
    fn lock_owners(&self) -> std::sync::MutexGuard<'_, HashMap<u64, u64>> {
        self.owners.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of open sessions (excluding the root namespace).
    pub fn session_count(&self) -> usize {
        self.read().namespace_count().saturating_sub(1)
    }

    /// Snapshot of the shared generation-cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.read().cache_stats()
    }

    /// The full Prometheus text exposition under the shared lock — the
    /// body the `--metrics-addr` HTTP listener serves. Renders the same
    /// sample list as the `metrics` CQL command
    /// ([`Icdb::metrics_samples`]), so the two surfaces cannot drift.
    pub fn metrics_text(&self) -> String {
        self.read().metrics_text()
    }

    /// Knowledge acquisition (paper §2.2) through the service: takes the
    /// exclusive lock, bumps the knowledge-base version and thereby
    /// invalidates warm cache hits — and the epoch snapshot — for every
    /// session at once.
    ///
    /// # Errors
    /// See [`Icdb::insert_implementation`].
    pub fn insert_implementation(
        &self,
        iif_source: &str,
        component_type: &str,
        functions: &[&str],
        param_defaults: &[(&str, i64)],
        connection_text: Option<&str>,
        description: &str,
    ) -> Result<String, IcdbError> {
        self.commit_exclusive(|icdb| {
            icdb.insert_implementation(
                iif_source,
                component_type,
                functions,
                param_defaults,
                connection_text,
                description,
            )
        })
    }

    /// Marks this durable service as a replication **follower** of
    /// `upstream`: direct mutations are refused with
    /// [`IcdbError::NotPrimary`] from here on, sessions open ephemeral
    /// namespaces, and writes arrive only through
    /// [`IcdbService::apply_replicated`].
    ///
    /// # Errors
    /// [`IcdbError::Unsupported`] when the service has no data directory
    /// (a follower must journal what it replays, or promotion would have
    /// nothing to stand on).
    pub fn set_replica(&self, upstream: &str, applied_seq: u64) -> Result<(), IcdbError> {
        let mut guard = self.write();
        if guard.journal.is_none() {
            return Err(IcdbError::Unsupported(
                "a replication follower needs a data directory".into(),
            ));
        }
        guard.repl = Some(crate::persist::ReplState {
            upstream: upstream.to_string(),
            applied_seq,
            lag_events: 0,
        });
        Ok(())
    }

    /// This node's replication role: `degraded` when a durability fault is
    /// latched, else `follower` when tailing an upstream, else `primary`.
    pub fn role(&self) -> &'static str {
        let guard = self.read();
        if guard.journal_fault().is_some() {
            "degraded"
        } else if guard.repl.is_some() {
            "follower"
        } else {
            "primary"
        }
    }

    /// Applies a batch of replicated events on a follower: each event is
    /// journaled into the follower's **own** WAL and applied through the
    /// same [`Icdb`] choke point recovery uses, then the replication
    /// position advances to `applied_seq` (`lag_events` behind the
    /// primary's durable tip). The durability wait happens after the
    /// write guard drops, exactly like a primary commit.
    ///
    /// # Errors
    /// [`IcdbError::Unsupported`] when this node is not (or no longer) a
    /// follower — the tail loop sees this after a promotion and stops;
    /// [`IcdbError::ReadOnly`] when the follower's own journal has
    /// latched a fault (replay must pause rather than silently diverge
    /// from what a restart would recover).
    pub fn apply_replicated(
        &self,
        events: &[crate::events::MutationEvent],
        applied_seq: u64,
        lag_events: u64,
    ) -> Result<(), IcdbError> {
        let mut guard = self.write();
        if guard.repl.is_none() {
            return Err(IcdbError::Unsupported(
                "not a replication follower (promoted?)".into(),
            ));
        }
        if let Some(fault) = guard.journal_fault() {
            return Err(IcdbError::ReadOnly(format!(
                "replication paused while degraded: {fault}"
            )));
        }
        guard.begin_deferred();
        let mut result = Ok(());
        for event in events {
            if let Err(e) = guard.commit(event) {
                // Apply errors are deterministic re-runs of failures the
                // primary already returned to its client (the event is
                // journaled either way — replay hits the same error);
                // only journaling failures stop the batch.
                match e {
                    IcdbError::ReadOnly(_) | IcdbError::Store(_) => {
                        result = Err(e);
                        break;
                    }
                    _ => {}
                }
            }
        }
        let tickets = guard.end_deferred();
        if result.is_ok() {
            if let Some(repl) = guard.repl.as_mut() {
                repl.applied_seq = applied_seq;
                repl.lag_events = lag_events;
            }
        }
        self.note_versions(&guard);
        drop(guard);
        if let Some(ticket) = tickets.last() {
            ticket.wait()?;
        }
        result
    }

    /// Serves a replication bootstrap image: the current generation's
    /// snapshot file payload (empty when the generation opened without
    /// one) plus every **durable** WAL record of that generation, and the
    /// stream cursor (`durable_seq`) a follower should continue from.
    ///
    /// Runs under the shared lock: commits enqueue under the exclusive
    /// lock, so after the explicit flush the durable extent is a stable
    /// upper bound — the tail read cannot race past it.
    ///
    /// # Errors
    /// [`IcdbError::Unsupported`] without a data directory; I/O failures
    /// surface as [`IcdbError::Store`].
    pub fn repl_snapshot(&self) -> Result<ReplSnapshot, IcdbError> {
        let guard = self.read();
        let journal = guard
            .journal
            .as_ref()
            .ok_or_else(|| IcdbError::Unsupported("replication needs a data directory".into()))?;
        journal
            .flush()
            .map_err(|e| IcdbError::Store(format!("flush wal for bootstrap: {e}")))?;
        let (durable_seq, durable_bytes, _) = journal.wal_handle().durable_extent();
        let generation = journal.generation();
        let snapshot =
            icdb_store::wal::read_snapshot_file(&journal.data_dir().snapshot_path(generation))
                .map_err(|e| IcdbError::Store(format!("read snapshot for bootstrap: {e}")))?
                .unwrap_or_default();
        let wal_path = journal.data_dir().wal_path(generation);
        let wal_tail = if durable_bytes == 0 {
            Vec::new()
        } else {
            let mut reader = icdb_store::wal::WalTailReader::open(&wal_path)
                .map_err(|e| IcdbError::Store(format!("open wal tail for bootstrap: {e}")))?;
            reader
                .read_to(durable_bytes)
                .map_err(|e| IcdbError::Store(format!("read wal tail for bootstrap: {e}")))?
        };
        Ok(ReplSnapshot {
            generation,
            durable_seq,
            epoch: journal.epoch(),
            snapshot,
            wal_tail,
        })
    }

    /// Streams durable WAL records after `from` to a follower,
    /// long-polling up to `wait` when none are pending (see
    /// [`GroupWal::collect_since`](icdb_store::wal::GroupWal::collect_since)).
    /// Only a *brief* shared lock is taken to clone the WAL handle; the
    /// poll itself blocks no service lock.
    ///
    /// # Errors
    /// [`IcdbError::Unsupported`] without a data directory;
    /// [`IcdbError::Store`] on a latched WAL fault or when the requested
    /// history has been pruned from the feed (the follower must
    /// re-bootstrap).
    pub fn repl_stream(
        &self,
        from: u64,
        max: usize,
        wait: Duration,
    ) -> Result<(icdb_store::wal::FeedBatch, u64), IcdbError> {
        let (wal, epoch) = {
            let guard = self.read();
            let journal = guard.journal.as_ref().ok_or_else(|| {
                IcdbError::Unsupported("replication needs a data directory".into())
            })?;
            (journal.wal_handle(), journal.epoch())
        };
        let batch = wal
            .collect_since(from, max, wait)
            .map_err(|e| IcdbError::Store(format!("repl stream: {e}")))?;
        Ok((batch, epoch))
    }
}

/// A replication bootstrap image (see [`IcdbService::repl_snapshot`]).
#[derive(Debug)]
pub struct ReplSnapshot {
    /// Snapshot/WAL generation the image was captured from.
    pub generation: u64,
    /// The primary's durable WAL sequence at capture — the `from` cursor
    /// the follower streams from next.
    pub durable_seq: u64,
    /// The primary's boot epoch; a change means the primary restarted and
    /// stream cursors against it are meaningless.
    pub epoch: u64,
    /// The snapshot file's decoded payload (empty when the generation has
    /// no snapshot — a fresh directory).
    pub snapshot: Vec<u8>,
    /// Every durable WAL record of the generation, in order.
    pub wal_tail: Vec<Vec<u8>>,
}

/// One client's view of the service: a private design namespace over the
/// shared knowledge base. Dropping (or [`Session::close`]-ing) the session
/// deletes its instances and design data.
///
/// A `Session` is `Send`, so each client thread can own one; all methods
/// take `&self` and do their own locking. Do **not** call session methods
/// while holding a guard from [`IcdbService::read`]/[`IcdbService::write`]
/// on the same service — the inner `RwLock` is not reentrant.
#[derive(Debug)]
pub struct Session {
    service: Arc<IcdbService>,
    ns: NsId,
    /// This session's ownership token (see `IcdbService::owners`).
    token: u64,
    closed: bool,
}

impl Drop for Session {
    fn drop(&mut self) {
        if !self.closed {
            self.release();
        }
    }
}

impl Session {
    /// The namespace id backing this session.
    pub fn ns(&self) -> NsId {
        self.ns
    }

    /// The service this session belongs to.
    pub fn service(&self) -> &Arc<IcdbService> {
        &self.service
    }

    /// How many mutation events have successfully committed in this
    /// session's namespace. Echoed in wire acks (`OK <n> commit:<seq>`)
    /// so a client that lost a response mid-commit can reconnect and
    /// tell "commit applied" from "commit never happened".
    pub fn commit_seq(&self) -> u64 {
        self.service
            .read()
            .commit_seq_in(self.ns)
            .unwrap_or_default()
    }

    /// Closes the session explicitly, deleting its namespace (if this
    /// session still owns it); returns how many instances were deleted.
    pub fn close(mut self) -> usize {
        self.closed = true;
        self.release()
    }

    /// Consumes the session *without* deleting its namespace — the
    /// server-shutdown path. A client did not abandon this session; the
    /// server is going away under it, and on a durable server the
    /// namespace (journaled at creation) must survive the restart so the
    /// client can [`Session::attach`] back to it.
    pub fn park(mut self) {
        self.closed = true;
    }

    /// Drops the bound namespace — but only when this session still owns
    /// it. If another session `attach`ed the namespace in the meantime
    /// (ownership transferred), this is a no-op: a stale half-open
    /// connection must not destroy state its client is actively using
    /// through a newer connection. Runs on the drop path, so a failed
    /// group flush is swallowed rather than panicking — the deletion
    /// replays from the journal prefix either way.
    fn release(&mut self) -> usize {
        let _shard = self.service.shards.lock(self.ns);
        let mut guard = self.service.write();
        let mut owners = self.service.lock_owners();
        if owners.get(&self.ns.raw()) != Some(&self.token) {
            return 0;
        }
        owners.remove(&self.ns.raw());
        drop(owners);
        guard.begin_deferred();
        let deleted = guard.drop_namespace(self.ns);
        let tickets = guard.end_deferred();
        drop(guard);
        if let Some(ticket) = tickets.last() {
            let _ = ticket.wait();
        }
        deleted
    }

    /// Re-binds this session to an existing namespace, dropping the one it
    /// currently owns. This is the crash-recovery reattach path: a client
    /// whose connection died mid-session reconnects (getting a fresh
    /// namespace), then attaches to its recovered pre-crash namespace —
    /// ids survive restarts because namespace creation is journaled.
    ///
    /// Ownership transfers: the attached namespace is dropped when *this*
    /// session closes, and any session previously bound to it loses its
    /// claim (its close/drop becomes a no-op). Attaching to
    /// [`NsId::ROOT`] is allowed and gives the session a view of the root
    /// namespace (which close then leaves intact — the root is
    /// undroppable).
    ///
    /// # Errors
    /// `NotFound` when the namespace does not exist (the session keeps its
    /// current namespace).
    pub fn attach(&mut self, ns: NsId) -> Result<(), IcdbError> {
        if ns == self.ns {
            return Ok(());
        }
        let mut guard = self.service.write();
        guard.spaces.get(ns)?;
        let old = self.ns;
        self.ns = ns;
        // Steal ownership of the target; release the old namespace only
        // if it was still ours.
        let mut owners = self.service.lock_owners();
        owners.insert(ns.raw(), self.token);
        let owned_old = owners.get(&old.raw()) == Some(&self.token);
        if owned_old {
            owners.remove(&old.raw());
        }
        drop(owners);
        let tickets = if owned_old {
            guard.begin_deferred();
            guard.drop_namespace(old);
            guard.end_deferred()
        } else {
            Vec::new()
        };
        drop(guard);
        if let Some(ticket) = tickets.last() {
            // Attach must keep working on a degraded server (it is the
            // reconnect path); the old namespace's drop not being durable
            // only means a never-re-armed recovery resurrects it, empty.
            let _ = ticket.wait();
        }
        Ok(())
    }

    /// Generates a component instance in this session's namespace.
    ///
    /// The expensive read-only prepare phase (cache lookup, or the full
    /// cold pipeline on a miss) runs against the lock-free epoch snapshot
    /// — warm and cold prepares alike block no one. The journaled install
    /// event then runs in the exclusive commit section with the prepared
    /// payload as a hint, which the event path accepts only when it is
    /// provably equivalent to regenerating (same knowledge-base and
    /// cell-library versions — see
    /// [`GenerationPayload::fresh_for`](crate::GenerationPayload::fresh_for));
    /// a snapshot gone stale mid-flight therefore costs a regeneration,
    /// never correctness. A prepare that fails against the snapshot is
    /// retried under the shared lock so error reporting reflects live
    /// state. VHDL clusters skip the pre-warm: they flatten live
    /// instances, so they prepare under the exclusive lock at their
    /// journal position.
    ///
    /// # Errors
    /// See [`Icdb::request_component`].
    pub fn request_component(&self, request: &ComponentRequest) -> Result<String, IcdbError> {
        let hint = match request.source {
            Source::VhdlNetlist(_) => None,
            _ => {
                let epoch = self.service.epoch();
                match epoch.prepare_payload(NsId::ROOT, request) {
                    Ok(payload) => Some(payload),
                    Err(_) => Some(self.service.read().prepare_payload(self.ns, request)?),
                }
            }
        };
        self.service.with_write(self.ns, |icdb| {
            icdb.commit_install(self.ns, request, hint.as_ref())
        })
    }

    /// Batch generation in this session's namespace: prepares (cold work
    /// fanned over `workers` scoped threads against the lock-free epoch
    /// snapshot), then installs sequentially inside one exclusive commit
    /// section — a single group flush acknowledges the whole batch.
    ///
    /// # Errors
    /// See [`Icdb::request_components_batch`].
    pub fn request_components_batch(
        &self,
        requests: &[ComponentRequest],
        workers: usize,
    ) -> Result<Vec<String>, IcdbError> {
        let epoch = self.service.epoch();
        let prepared = epoch.prepare_batch(NsId::ROOT, requests, workers);
        self.service.with_write(self.ns, |icdb| {
            icdb.install_batch_in(self.ns, requests, prepared)
        })
    }

    /// Executes one CQL command in this session's namespace: parses it
    /// once and runs it through [`Session::dispatch`].
    ///
    /// # Errors
    /// See [`Icdb::execute`].
    pub fn execute(&self, command: &str, args: &mut [CqlArg]) -> Result<(), IcdbError> {
        let (cmd, outs) = parse_command(command, args)?;
        let response = self.dispatch(&cmd)?;
        bind_outputs(&response, &outs, args)?;
        Ok(())
    }

    /// Runs one parsed CQL command in this session's namespace, at the
    /// tier its [`icdb_cql::COMMANDS`] row names (escalated by its terms):
    /// knowledge-only commands (`component_query`, `cache_query`, …) are
    /// answered from the epoch snapshot without any lock; the remaining
    /// read-only commands (`instance_query`, unpublished `explore`, …)
    /// run under the shared lock; mutating commands take the exclusive
    /// commit section. A tier that cannot answer hands the same parsed
    /// command to the next one: an epoch failure (e.g. a component
    /// missing from a snapshot that is mid-rebuild) retries under the
    /// shared lock so errors reflect live state, and an instance query
    /// needing cold layout generation escalates to the exclusive section.
    ///
    /// # Errors
    /// See [`Icdb::execute`].
    pub fn dispatch(&self, cmd: &Command) -> Result<Response, IcdbError> {
        let route = crate::cql::route(cmd)?;
        if route.tier == Tier::Knowledge {
            if let Ok(Some(response)) = self.service.epoch().dispatch_read(NsId::ROOT, cmd) {
                // Epoch sweeps (`explore`) queue corpus rows without a
                // lock; piggyback their journal flush on the way out.
                self.service.flush_corpus();
                return Ok(response);
            }
        }
        if route.read_only() {
            let guard = self.service.read();
            if let Some(response) = guard.dispatch_read(self.ns, cmd)? {
                drop(guard);
                self.service.flush_corpus();
                return Ok(response);
            }
        }
        if route.rearms {
            // `persist` is the re-arming path; a degraded server or a
            // follower must still run its checkpoint / clear_fault /
            // promote dispatch.
            return self
                .service
                .with_write_allowing_degraded(self.ns, |icdb| icdb.dispatch_in(self.ns, cmd));
        }
        self.service
            .with_write(self.ns, |icdb| icdb.dispatch_in(self.ns, cmd))
    }

    /// Runs a design-space exploration sweep in this session against the
    /// lock-free epoch snapshot — warm and cold evaluations alike block
    /// no other session, and results land in the shared cache.
    ///
    /// # Errors
    /// See [`Icdb::explore`].
    pub fn explore(
        &self,
        spec: &crate::explore::ExploreSpec,
    ) -> Result<icdb_explore::ExplorationReport, IcdbError> {
        let report = self.service.epoch().explore_in(NsId::ROOT, spec)?;
        // Cold evaluations above queued corpus rows on the (shared)
        // epoch snapshot; journal them so the corpus survives restart.
        self.service.flush_corpus();
        Ok(report)
    }

    /// §3.3 delay string of one of this session's instances (shared lock).
    ///
    /// # Errors
    /// `NotFound` if the instance is absent.
    pub fn delay_string(&self, name: &str) -> Result<String, IcdbError> {
        self.service.read().delay_string_in(self.ns, name)
    }

    /// §3.3 shape-function string (shared lock).
    ///
    /// # Errors
    /// `NotFound` if the instance is absent.
    pub fn shape_string(&self, name: &str) -> Result<String, IcdbError> {
        self.service.read().shape_string_in(self.ns, name)
    }

    /// Appendix-B area string (shared lock).
    ///
    /// # Errors
    /// `NotFound` if the instance is absent.
    pub fn area_string(&self, name: &str) -> Result<String, IcdbError> {
        self.service.read().area_string_in(self.ns, name)
    }

    /// §4.1 connection string (shared lock).
    ///
    /// # Errors
    /// `NotFound` if the instance is absent.
    pub fn connect_string(&self, name: &str) -> Result<String, IcdbError> {
        self.service.read().connect_string_in(self.ns, name)
    }

    /// Structural VHDL of an instance (shared lock).
    ///
    /// # Errors
    /// `NotFound` if the instance is absent.
    pub fn vhdl_netlist(&self, name: &str) -> Result<String, IcdbError> {
        self.service.read().vhdl_netlist_in(self.ns, name)
    }

    /// VHDL entity head of an instance (shared lock).
    ///
    /// # Errors
    /// `NotFound` if the instance is absent.
    pub fn vhdl_head(&self, name: &str) -> Result<String, IcdbError> {
        self.service.read().vhdl_head_in(self.ns, name)
    }

    /// Power report of an instance (shared lock).
    ///
    /// # Errors
    /// `NotFound` if the instance is absent.
    pub fn power_string(&self, name: &str) -> Result<String, IcdbError> {
        self.service.read().power_string_in(self.ns, name)
    }

    /// CIF of an instance: the warm path (already generated) is a shared
    /// blob read under the shared lock; only cold generation takes the
    /// exclusive commit section.
    ///
    /// # Errors
    /// `NotFound` if the instance is absent; layout errors propagate.
    pub fn cif_layout(&self, name: &str) -> Result<Arc<str>, IcdbError> {
        if let Some(cif) = self.service.read().cif_layout_cached_in(self.ns, name)? {
            return Ok(cif);
        }
        self.service
            .with_write(self.ns, |icdb| icdb.cif_layout_in(self.ns, name))
    }

    /// Regenerates a layout with explicit alternative/port choices
    /// (exclusive commit section).
    ///
    /// # Errors
    /// See [`Icdb::generate_layout`].
    pub fn generate_layout(
        &self,
        instance: &str,
        alternative: Option<usize>,
        port_positions: Option<&str>,
    ) -> Result<Arc<str>, IcdbError> {
        self.service.with_write(self.ns, |icdb| {
            icdb.generate_layout_in(self.ns, instance, alternative, port_positions)
        })
    }

    /// Re-estimates an instance under different loads (exclusive commit
    /// section).
    ///
    /// # Errors
    /// See [`Icdb::resize_for_load`].
    pub fn resize_for_load(
        &self,
        instance: &str,
        loads: &LoadSpec,
        clock_width: f64,
    ) -> Result<(), IcdbError> {
        self.service.with_write(self.ns, |icdb| {
            icdb.resize_for_load_in(self.ns, instance, loads, clock_width)
        })
    }

    /// Names of this session's instances, in creation order.
    pub fn instance_names(&self) -> Vec<String> {
        self.service
            .read()
            .instance_names_in(self.ns)
            .map(|names| names.iter().map(|n| n.to_string()).collect())
            .unwrap_or_default()
    }

    /// Whether this session has an instance of the given name.
    pub fn has_instance(&self, name: &str) -> bool {
        self.service.read().instance_in(self.ns, name).is_ok()
    }

    /// `start_a_design` in this session (exclusive commit section).
    ///
    /// # Errors
    /// See [`Icdb::start_design`].
    pub fn start_design(&self, name: &str) -> Result<(), IcdbError> {
        self.service
            .with_write(self.ns, |icdb| icdb.start_design_in(self.ns, name))
    }

    /// `start_a_transaction` in this session (exclusive commit section).
    ///
    /// # Errors
    /// See [`Icdb::start_transaction`].
    pub fn start_transaction(&self, design: &str) -> Result<(), IcdbError> {
        self.service
            .with_write(self.ns, |icdb| icdb.start_transaction_in(self.ns, design))
    }

    /// `put_in_component_list` in this session (exclusive commit section).
    ///
    /// # Errors
    /// See [`Icdb::put_in_component_list`].
    pub fn put_in_component_list(&self, design: &str, instance: &str) -> Result<(), IcdbError> {
        self.service.with_write(self.ns, |icdb| {
            icdb.put_in_component_list_in(self.ns, design, instance)
        })
    }

    /// `end_a_transaction` in this session (exclusive commit section).
    ///
    /// # Errors
    /// See [`Icdb::end_transaction`].
    pub fn end_transaction(&self, design: &str) -> Result<usize, IcdbError> {
        self.service
            .with_write(self.ns, |icdb| icdb.end_transaction_in(self.ns, design))
    }

    /// `end_a_design` in this session (exclusive commit section).
    ///
    /// # Errors
    /// See [`Icdb::end_design`].
    pub fn end_design(&self, design: &str) -> Result<usize, IcdbError> {
        self.service
            .with_write(self.ns, |icdb| icdb.end_design_in(self.ns, design))
    }

    /// Knowledge acquisition through this session (global effect: the
    /// implementation becomes visible to every session, and warm cache
    /// entries — and epoch snapshots — are invalidated for all).
    ///
    /// # Errors
    /// See [`Icdb::insert_implementation`].
    pub fn insert_implementation(
        &self,
        iif_source: &str,
        component_type: &str,
        functions: &[&str],
        param_defaults: &[(&str, i64)],
        connection_text: Option<&str>,
        description: &str,
    ) -> Result<String, IcdbError> {
        self.service.insert_implementation(
            iif_source,
            component_type,
            functions,
            param_defaults,
            connection_text,
            description,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_share_the_cache_but_not_names() {
        let service = IcdbService::shared();
        let a = service.open_session();
        let b = service.open_session();
        let req = ComponentRequest::by_component("counter").attribute("size", "4");
        let na = a.request_component(&req).unwrap();
        let nb = b.request_component(&req).unwrap();
        assert_eq!(na, "counter$1");
        assert_eq!(nb, "counter$1");
        let stats = service.cache_stats();
        assert_eq!(stats.result.misses, 1);
        assert_eq!(stats.result.hits, 1);
        assert_eq!(a.delay_string(&na).unwrap(), b.delay_string(&nb).unwrap());
    }

    #[test]
    fn dropping_a_session_deletes_its_instances() {
        let service = IcdbService::shared();
        let a = service.open_session();
        let req = ComponentRequest::by_implementation("ADDER").attribute("size", "4");
        a.request_component(&req).unwrap();
        assert_eq!(service.session_count(), 1);
        let deleted = a.close();
        assert_eq!(deleted, 1);
        assert_eq!(service.session_count(), 0);
        // Root namespace untouched.
        assert!(service.read().instance_names().is_empty());
    }

    #[test]
    fn session_cql_runs_in_its_own_namespace() {
        let service = IcdbService::shared();
        let a = service.open_session();
        let b = service.open_session();
        let mut args = vec![CqlArg::OutStr(None)];
        a.execute(
            "command:request_component; component_name:counter; attribute:(size:4); \
             generated_component:?s",
            &mut args,
        )
        .unwrap();
        let CqlArg::OutStr(Some(name)) = &args[0] else {
            panic!("no name");
        };
        assert!(a.has_instance(name));
        assert!(!b.has_instance(name));
        // Read-only query runs under the shared lock and still answers.
        let mut args = vec![CqlArg::InStr(name.clone()), CqlArg::OutStr(None)];
        a.execute(
            "command:instance_query; generated_component:%s; delay:?s",
            &mut args,
        )
        .unwrap();
        let CqlArg::OutStr(Some(delay)) = &args[1] else {
            panic!("no delay");
        };
        assert!(delay.contains("CW "));
    }

    #[test]
    fn attach_transfers_ownership_away_from_the_stale_session() {
        let service = IcdbService::shared();
        let stale = service.open_session();
        let req = ComponentRequest::by_implementation("ADDER").attribute("size", "4");
        let name = stale.request_component(&req).unwrap();
        let target = stale.ns();
        // The reconnect flow: a fresh session attaches to the old one's
        // namespace (the old connection is half-open, not yet dropped).
        let mut fresh = service.open_session();
        fresh.attach(target).unwrap();
        assert!(fresh.has_instance(&name));
        // The stale session finally drops — it must NOT destroy the
        // namespace the new owner is using.
        drop(stale);
        assert!(fresh.has_instance(&name));
        assert!(service.read().instance_names_in(target).is_ok());
        // The new owner's close does delete it.
        assert_eq!(fresh.close(), 1);
        assert!(service.read().instance_names_in(target).is_err());
    }

    #[test]
    fn root_namespace_stays_usable_through_the_service() {
        let service = IcdbService::shared();
        let req = ComponentRequest::by_implementation("ADDER").attribute("size", "3");
        let name = service.write().request_component(&req).unwrap();
        assert!(service.read().instance(&name).is_ok());
        let session = service.open_session();
        assert!(!session.has_instance(&name));
    }

    const GRAY_COUNTER: &str = "
NAME: GRAY_COUNTER;
PARAMETER: size;
INORDER: CLK, RST;
OUTORDER: G[size];
PIIFVARIABLE: B[size], NB[size], C[size+1];
VARIABLE: i;
{
  C[0] = 1;
  #for(i=0;i<size;i++)
  {
    B[i] = (B[i] (+) C[i]) @(~r CLK) ~a(0/RST);
    C[i+1] = C[i] * B[i];
  }
  #for(i=0;i<size-1;i++)
    G[i] = B[i] (+) B[i+1];
  G[size-1] = B[size-1];
}";

    /// Knowledge-only CQL runs against the epoch snapshot; knowledge
    /// acquisition bumps the version mirrors so the next epoch read is a
    /// *new* snapshot that sees the new implementation.
    #[test]
    fn epoch_snapshot_tracks_knowledge_versions() {
        let service = IcdbService::shared();
        let session = service.open_session();
        let before = service.epoch();
        // Same versions → same cached snapshot, no rebuild.
        assert_eq!(Arc::as_ptr(&before), Arc::as_ptr(&service.epoch()));
        // The knowledge-only fast path answers through the snapshot.
        let mut args = vec![CqlArg::OutStrList(None)];
        session
            .execute(
                "command:component_query; component:counter; ICDB_components:?s[]",
                &mut args,
            )
            .unwrap();
        let CqlArg::OutStrList(Some(names)) = &args[0] else {
            panic!("no names");
        };
        assert!(names.iter().any(|n| n == "COUNTER"));
        session
            .insert_implementation(
                GRAY_COUNTER,
                "Counter",
                &["INC"],
                &[("size", 4)],
                None,
                "epoch invalidation probe",
            )
            .unwrap();
        // The mirrors moved: the next epoch read rebuilds and sees the
        // new implementation; the stale snapshot never does.
        let after = service.epoch();
        assert_ne!(Arc::as_ptr(&before), Arc::as_ptr(&after));
        assert!(after.library.implementation("GRAY_COUNTER").is_some());
        assert!(before.library.implementation("GRAY_COUNTER").is_none());
    }

    /// Same-shard sessions serialize their commits; different-shard
    /// sessions interleave — either way every session's transcript
    /// matches what a dedicated single-caller server would produce (the
    /// heavyweight version of this check lives in
    /// `tests/shard_properties.rs`).
    #[test]
    fn concurrent_commits_across_shards_stay_isolated() {
        let service = IcdbService::shared();
        let sessions: Vec<Session> = (0..4).map(|_| service.open_session()).collect();
        let names: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = sessions
                .iter()
                .enumerate()
                .map(|(i, session)| {
                    scope.spawn(move || {
                        let req = ComponentRequest::by_implementation("ADDER")
                            .attribute("size", format!("{}", 2 + i));
                        session.request_component(&req).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Isolated naming counters: every session names its first
        // instance identically, regardless of commit interleaving.
        assert_eq!(names.len(), 4);
        assert!(names.iter().all(|n| n == &names[0]), "names: {names:?}");
        for (session, name) in sessions.iter().zip(&names) {
            assert_eq!(session.instance_names(), vec![name.clone()]);
        }
    }
}
