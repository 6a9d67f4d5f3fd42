//! The concurrent multi-session service layer: one shared [`Icdb`] served
//! to many clients at once.
//!
//! [`IcdbService`] wraps the knowledge base, cell library, generation
//! cache and relational catalog behind three cooperating mechanisms,
//! replacing the single big `RwLock` of earlier revisions:
//!
//! * **Epoch snapshots (lock-free generation).** Generation runs outside
//!   every service lock, on an `Icdb::read_snapshot`: a cloned view of
//!   the component and cell libraries sharing the (internally
//!   synchronized) generation cache and exploration corpus. It serves the
//!   pre-warm of every component request (typed, batched or CQL) and
//!   every served sweep, and nothing else: every answer reads live state
//!   under the shared lock. Snapshot freshness is tracked by two atomic
//!   version mirrors — the moment knowledge acquisition bumps the library
//!   or cell-library version, the cached snapshot is stale and the next
//!   epoch read rebuilds it under a brief shared lock. Because the cache
//!   is shared, a pipeline warmed through a snapshot serves the
//!   subsequent install as a hint. No shared-lock retry follows a failed
//!   pre-warm: the install regenerates inside the commit section and
//!   reports live state. Inside that section only a cluster, a failed or
//!   stale pre-warm, or a layout generates.
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
//! Every mutating path — session commits, knowledge acquisition, corpus
//! flushes, replicated events and the session lifecycle — runs through one
//! private commit section, `IcdbService::commit_section`: shard lock when
//! the caller names a namespace, write guard, one entry rule, the mutation
//! with its WAL tickets deferred, guard dropped, then the wait on the last
//! ticket. The four entry rules (`Entry`) are `Primary` (direct
//! mutations: refused on a follower or a degraded server), `Rearm` (the
//! `persist` family, always admitted), `Replica` (replicated events, only
//! on a healthy follower) and `Lifecycle` (session open, close and attach,
//! always admitted, with best-effort durability).
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

use crate::cql::Prepared;
use crate::error::IcdbError;
use crate::persist::PersistStats;
use crate::space::{NsId, ShardSet};
use crate::spec::ComponentRequest;
use crate::{CacheStats, Icdb};
use icdb_cql::{bind_outputs, parse_command, Command, CqlArg, Response};
use icdb_estimate::LoadSpec;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
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
    /// The cached epoch snapshot serving lock-free generation, plus the
    /// version mirrors that decide its freshness. The mirrors trail
    /// the live versions by at most one in-flight exclusive section: every
    /// [`WriteGuard`] renotes them as it drops.
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
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive (write) access to the underlying server. Knowledge
    /// acquired through the guard is visible to the next epoch read (see
    /// [`WriteGuard`]); prefer the session API anyway, which also keeps
    /// the group-commit wait discipline.
    pub fn write(&self) -> WriteGuard<'_> {
        WriteGuard {
            guard: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            service: self,
        }
    }

    fn lock_epoch(&self) -> std::sync::MutexGuard<'_, Option<Arc<Icdb>>> {
        self.epoch.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current epoch snapshot: a lock-free view of what generation
    /// reads (see [`Icdb::read_snapshot`]). Returns the cached snapshot
    /// when its knowledge versions match the mirrors; otherwise rebuilds
    /// it under a brief shared lock. Only pre-warms and sweeps run on it.
    fn epoch(&self) -> Arc<Icdb> {
        let lib = self.lib_version.load(Ordering::Acquire);
        let cells = self.cells_version.load(Ordering::Acquire);
        if let Some(snap) = self.lock_epoch().as_ref() {
            if snap.library.version() == lib && snap.cells.version() == cells {
                return Arc::clone(snap);
            }
        }
        let guard = self.read();
        let snap = Arc::new(guard.read_snapshot());
        drop(guard);
        *self.lock_epoch() = Some(Arc::clone(&snap));
        snap
    }

    /// The one exclusive commit section every mutating service path runs
    /// through. It takes `shard`'s lock when the caller names one — commits
    /// inside one namespace then acknowledge in apply order, while sessions
    /// on other shards overlap their durability waits (one group fsync
    /// acknowledges them all) — then the write guard, and refuses up front
    /// when `entry`'s rule says so. `f` runs with journal events *enqueued*
    /// (not fsynced); the guard drops, and only then does the caller block
    /// on the group-commit ticket. Waiting on the **last** ticket
    /// suffices: WAL batches are drained in sequence order, so a later
    /// event durable implies every earlier one is.
    ///
    /// When `f` itself fails its error wins (events already enqueued
    /// replay deterministically to the same failure); when `f` succeeds
    /// but the group flush fails, the durability error surfaces — the
    /// mutation is applied in memory but unacknowledged, exactly the
    /// contract the recovery suite pins — except under
    /// [`Entry::Lifecycle`], whose durability is best effort.
    fn commit_section<T>(
        &self,
        shard: Option<NsId>,
        entry: Entry,
        f: impl FnOnce(&mut Icdb) -> Result<T, IcdbError>,
    ) -> Result<T, IcdbError> {
        let _shard = shard.map(|ns| self.shards.lock(ns));
        let mut guard = self.write();
        match entry {
            Entry::Primary => {
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
            Entry::Replica => {
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
            }
            Entry::Rearm | Entry::Lifecycle => {}
        }
        guard.begin_deferred();
        let result = f(&mut guard);
        let tickets = guard.end_deferred();
        drop(guard);
        let durable = match tickets.last() {
            Some(ticket) => ticket.wait(),
            None => Ok(()),
        };
        match (result, durable) {
            (Err(e), _) => Err(e),
            (Ok(_), Err(e)) if entry != Entry::Lifecycle => Err(e),
            (Ok(v), _) => Ok(v),
        }
    }

    /// Journals any exploration-corpus rows queued by epoch sweeps.
    /// Best-effort: a follower or degraded primary cannot journal corpus
    /// rows, so the pending queue is discarded there — the corpus is a
    /// performance aid, never a correctness dependency, and the queue
    /// must not grow without bound.
    pub(crate) fn flush_corpus(&self) {
        if !self.read().corpus.has_pending() {
            return;
        }
        if self
            .commit_section(None, Entry::Primary, |icdb| icdb.flush_corpus())
            .is_err()
        {
            self.read().corpus.discard_pending();
        }
    }

    /// Opens a new session with a fresh, isolated design namespace.
    pub fn open_session(self: &Arc<Self>) -> Session {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let ns = self
            .commit_section(None, Entry::Lifecycle, |icdb| {
                let ns = icdb.create_namespace();
                self.lock_owners().insert(ns.raw(), token);
                Ok(ns)
            })
            .expect("a lifecycle section fails only when its closure does");
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
        self.commit_section(None, Entry::Primary, |icdb| {
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
        self.commit_section(None, Entry::Replica, |icdb| {
            for event in events {
                // Apply errors are deterministic re-runs of failures the
                // primary already returned to its client (the event is
                // journaled either way — replay hits the same error);
                // only journaling failures stop the batch.
                if let Err(e @ (IcdbError::ReadOnly(_) | IcdbError::Store(_))) = icdb.commit(event)
                {
                    return Err(e);
                }
            }
            if let Some(repl) = icdb.repl.as_mut() {
                repl.applied_seq = applied_seq;
                repl.lag_events = lag_events;
            }
            Ok(())
        })
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
        let wal_tail = icdb_store::wal::read_wal_prefix(
            &journal.data_dir().wal_path(generation),
            durable_bytes,
        )
        .map_err(|e| IcdbError::Store(format!("read wal tail for bootstrap: {e}")))?;
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

/// Who may enter [`IcdbService::commit_section`], and whether its
/// durability wait may fail the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    /// Direct mutations: refused with [`IcdbError::NotPrimary`] on a
    /// follower (writes arrive only through replication) and with
    /// [`IcdbError::ReadOnly`] while a durability fault is latched, so no
    /// mutation piles onto un-journalable state.
    Primary,
    /// The `persist` family: always admitted, because `persist
    /// checkpoint:1` / `clear_fault:1` is what re-arms a degraded server
    /// and `promote:1` is how a follower becomes writable.
    Rearm,
    /// Replicated events: refused with [`IcdbError::Unsupported`] unless
    /// this node is a follower (the tail loop stops on it after a
    /// promotion), and with [`IcdbError::ReadOnly`] while the follower's
    /// own journal has latched a fault — replay pauses rather than diverge
    /// from what a restart would recover.
    Replica,
    /// Session open, close and attach: always admitted, and a failed
    /// durability wait is ignored. These are the connection, drop and
    /// reconnect paths, which must keep working on a degraded server; a
    /// namespace whose creation or drop never became durable is forgotten,
    /// or resurrected empty, by a recovery that never re-armed.
    Lifecycle,
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

/// Exclusive access to a service's [`Icdb`], from [`IcdbService::write`].
/// Dropping it renotes the knowledge-version mirrors while the lock is
/// still held, so knowledge acquired through any write — the session API
/// or this raw guard — reaches the next epoch read.
#[derive(Debug)]
pub struct WriteGuard<'a> {
    guard: RwLockWriteGuard<'a, Icdb>,
    service: &'a IcdbService,
}

impl Deref for WriteGuard<'_> {
    type Target = Icdb;

    fn deref(&self) -> &Icdb {
        &self.guard
    }
}

impl DerefMut for WriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut Icdb {
        &mut self.guard
    }
}

impl Drop for WriteGuard<'_> {
    fn drop(&mut self) {
        self.service
            .lib_version
            .store(self.guard.library.version(), Ordering::Release);
        self.service
            .cells_version
            .store(self.guard.cells.version(), Ordering::Release);
    }
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

    /// Runs a direct mutation of this session's namespace in the service's
    /// commit section.
    fn commit<T>(
        &self,
        f: impl FnOnce(&mut Icdb, NsId) -> Result<T, IcdbError>,
    ) -> Result<T, IcdbError> {
        self.service
            .commit_section(Some(self.ns), Entry::Primary, |icdb| f(icdb, self.ns))
    }

    /// How many mutation events have successfully committed in this
    /// session's namespace. Echoed in wire acks (`OK <n> commit:<seq>`)
    /// so a client that lost a response mid-commit can reconnect and
    /// tell "commit applied" from "commit never happened".
    ///
    /// # Errors
    /// [`IcdbError::NotFound`] naming the namespace when it was dropped
    /// under the session: another session attached to it and closed, or
    /// a follower replayed its drop.
    pub fn commit_seq(&self) -> Result<u64, IcdbError> {
        self.service.read().commit_seq_in(self.ns)
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
        let (ns, token) = (self.ns, self.token);
        let service = &self.service;
        service
            .commit_section(Some(ns), Entry::Lifecycle, |icdb| {
                let mut owners = service.lock_owners();
                if owners.get(&ns.raw()) != Some(&token) {
                    return Ok(0);
                }
                owners.remove(&ns.raw());
                drop(owners);
                Ok(icdb.drop_namespace(ns))
            })
            .unwrap_or(0)
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
        let (old, token) = (self.ns, self.token);
        let service = &self.service;
        service.commit_section(None, Entry::Lifecycle, |icdb| {
            icdb.spaces.get(ns)?;
            // Steal ownership of the target; release the old namespace
            // only if it was still ours.
            let mut owners = service.lock_owners();
            owners.insert(ns.raw(), token);
            if owners.get(&old.raw()) == Some(&token) {
                owners.remove(&old.raw());
                drop(owners);
                icdb.drop_namespace(old);
            }
            Ok(())
        })?;
        self.ns = ns;
        Ok(())
    }

    /// Generates a component instance in this session's namespace: a
    /// batch of one through [`Session::request_components_batch`].
    ///
    /// # Errors
    /// See [`Icdb::request_component`].
    pub fn request_component(&self, request: &ComponentRequest) -> Result<String, IcdbError> {
        Ok(self
            .request_components_batch(std::slice::from_ref(request), 1)?
            .remove(0))
    }

    /// Batch generation in this session's namespace: the pre-warm fans
    /// cold work over `workers` scoped threads against the lock-free epoch
    /// snapshot, then the install loop runs inside one exclusive commit
    /// section, so one group flush acknowledges the whole batch. A
    /// pre-warm that failed, went stale or was skipped (VHDL clusters)
    /// leaves no hint: that install regenerates against live state.
    ///
    /// # Errors
    /// See [`Icdb::request_components_batch`].
    pub fn request_components_batch(
        &self,
        requests: &[ComponentRequest],
        workers: usize,
    ) -> Result<Vec<String>, IcdbError> {
        let hints = self.service.epoch().prewarm(requests, workers);
        self.commit(|icdb, ns| icdb.install_all(ns, requests, hints))
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

    /// Runs one parsed CQL command in this session's namespace, through
    /// the steps [`Icdb::execute_in`] runs on an embedded server: its
    /// generation — a request's pre-warm, a sweep — on the epoch snapshot,
    /// which a command with nothing to prepare never touches; then a
    /// read-only command answers under the shared lock, after a sweep's
    /// corpus rows are journaled, and a mutating command, an ungenerated
    /// layout or an `explore` with `publish:1` runs in the commit section.
    ///
    /// # Errors
    /// See [`Icdb::execute`].
    pub fn dispatch(&self, cmd: &Command) -> Result<Response, IcdbError> {
        let route = crate::cql::route(cmd)?;
        // A cluster named by its design-data file reads the live store.
        let read_file = |path: &str| Some(self.service.read().files.read(path).ok()?.to_string());
        let prepared = Icdb::prepare_command(cmd, || self.service.epoch(), read_file);
        if route.read_only() {
            if let Prepared::Sweep(_) = prepared {
                self.service.flush_corpus();
            }
            if let Some(response) = self.service.read().dispatch_read(self.ns, cmd, &prepared)? {
                return Ok(response);
            }
        }
        let entry = if route.rearms {
            Entry::Rearm
        } else {
            Entry::Primary
        };
        let result = self.service.commit_section(Some(self.ns), entry, |icdb| {
            icdb.dispatch_in(self.ns, cmd, prepared)
        });
        if let Err(IcdbError::NotPrimary(_) | IcdbError::ReadOnly(_)) = &result {
            // A refused publish leaves its sweep's corpus rows queued, and
            // this server cannot journal them: discard them.
            self.service.flush_corpus();
        }
        result
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
        let report = self.service.epoch().explore(spec)?;
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
        self.commit(|icdb, ns| icdb.cif_layout_in(ns, name))
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
        self.commit(|icdb, ns| icdb.generate_layout_in(ns, instance, alternative, port_positions))
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
        self.commit(|icdb, ns| icdb.resize_for_load_in(ns, instance, loads, clock_width))
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
        self.commit(|icdb, ns| icdb.start_design_in(ns, name))
    }

    /// `start_a_transaction` in this session (exclusive commit section).
    ///
    /// # Errors
    /// See [`Icdb::start_transaction`].
    pub fn start_transaction(&self, design: &str) -> Result<(), IcdbError> {
        self.commit(|icdb, ns| icdb.start_transaction_in(ns, design))
    }

    /// `put_in_component_list` in this session (exclusive commit section).
    ///
    /// # Errors
    /// See [`Icdb::put_in_component_list`].
    pub fn put_in_component_list(&self, design: &str, instance: &str) -> Result<(), IcdbError> {
        self.commit(|icdb, ns| icdb.put_in_component_list_in(ns, design, instance))
    }

    /// `end_a_transaction` in this session (exclusive commit section).
    ///
    /// # Errors
    /// See [`Icdb::end_transaction`].
    pub fn end_transaction(&self, design: &str) -> Result<usize, IcdbError> {
        self.commit(|icdb, ns| icdb.end_transaction_in(ns, design))
    }

    /// `end_a_design` in this session (exclusive commit section).
    ///
    /// # Errors
    /// See [`Icdb::end_design`].
    pub fn end_design(&self, design: &str) -> Result<usize, IcdbError> {
        self.commit(|icdb, ns| icdb.end_design_in(ns, design))
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

    /// Typed, batched and CQL installs each advance a session's commit
    /// counter once per instance, and recovery replays the same counts.
    #[test]
    fn install_paths_agree_on_the_commit_counter_live_and_recovered() {
        let dir = std::env::temp_dir().join(format!(
            "icdb-service-commit-seq-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let requests = [
            ComponentRequest::by_component("counter").attribute("size", "4"),
            ComponentRequest::by_implementation("ADDER").attribute("size", "3"),
        ];
        let service = Arc::new(IcdbService::open(&dir).unwrap());
        let typed = service.open_session();
        for request in &requests {
            typed.request_component(request).unwrap();
        }
        let batched = service.open_session();
        batched.request_components_batch(&requests, 2).unwrap();
        let cql = service.open_session();
        for terms in [
            "component_name:counter; attribute:(size:4)",
            "implementation:ADDER; attribute:(size:3)",
        ] {
            let line = format!("command:request_component; {terms}; generated_component:?s");
            cql.execute(&line, &mut [CqlArg::OutStr(None)]).unwrap();
        }
        let live: Vec<(NsId, u64)> = [typed, batched, cql]
            .into_iter()
            .map(|session| {
                let seq = (session.ns(), session.commit_seq().unwrap());
                session.park();
                seq
            })
            .collect();
        assert!(live.iter().all(|&(_, seq)| seq == 2), "{live:?}");
        drop(service);
        let reopened = IcdbService::open(&dir).unwrap();
        for (ns, seq) in live {
            assert_eq!(reopened.read().commit_seq_in(ns).unwrap(), seq);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A fresh data directory for a durable test server.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("icdb-service-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The same failing request (an unknown implementation) fails with one
    /// error text and journals exactly one event through every entry point:
    /// typed single, typed batch (as the second of two), CQL, embedded
    /// single and embedded batch.
    #[test]
    fn every_entry_point_journals_a_failing_request_once() {
        let bad = ComponentRequest::by_implementation("GHOST");
        let batch = [
            ComponentRequest::by_implementation("ADDER").attribute("size", "3"),
            bad.clone(),
        ];
        let line = "command:request_component; implementation:GHOST; generated_component:?s";
        let mut seen = Vec::new();

        let served_dir = scratch_dir("journal-served");
        let service = Arc::new(IcdbService::open(&served_dir).unwrap());
        let session = service.open_session();
        let events = || service.persist_stats().unwrap().wal_events;
        let mut served = |installed: u64, run: &dyn Fn() -> Result<(), IcdbError>| {
            let before = events();
            let err = run().unwrap_err().to_string();
            seen.push((err, events() - before - installed));
        };
        served(0, &|| session.request_component(&bad).map(drop));
        served(1, &|| session.request_components_batch(&batch, 2).map(drop));
        served(0, &|| session.execute(line, &mut [CqlArg::OutStr(None)]));
        assert_eq!(session.instance_names(), ["adder$1"]);

        let embedded_dir = scratch_dir("journal-embedded");
        let mut icdb = Icdb::open(&embedded_dir).unwrap();
        let events = |icdb: &Icdb| icdb.persist_stats().unwrap().wal_events;
        let before = events(&icdb);
        let err = icdb.request_component(&bad).unwrap_err().to_string();
        seen.push((err, events(&icdb) - before));
        let before = events(&icdb);
        let err = icdb.request_components_batch(&batch, 2).unwrap_err();
        seen.push((err.to_string(), events(&icdb) - before - 1));

        let expected = (
            IcdbError::NotFound("implementation `GHOST`".into()).to_string(),
            1,
        );
        assert!(seen.iter().all(|s| *s == expected), "{seen:?}");
        session.park();
        for dir in [served_dir, embedded_dir] {
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    /// One valid script through typed calls and through CQL, each on a
    /// fresh service: identical names, instance answers, commit sequence
    /// and cache counters.
    #[test]
    fn typed_and_cql_requests_leave_identical_state() {
        let mut named = ComponentRequest::by_implementation("ADDER").attribute("size", "4");
        named.instance_name = Some("my_adder".into());
        let script = [
            (
                ComponentRequest::by_component("counter").attribute("size", "4"),
                "component_name:counter; attribute:(size:4)",
            ),
            (
                ComponentRequest::by_implementation("ADDER")
                    .attribute("size", "3")
                    .strategy("fastest"),
                "implementation:ADDER; attribute:(size:3); strategy:fastest",
            ),
            (
                ComponentRequest::by_component("counter")
                    .attribute("size", "4")
                    .clock_width(30.0),
                "component_name:counter; attribute:(size:4); clock_width:30",
            ),
            (
                ComponentRequest::by_component("counter").attribute("size", "4"),
                "component_name:counter; attribute:(size:4)",
            ),
            (
                named,
                "implementation:ADDER; attribute:(size:4); naming:my_adder",
            ),
        ];
        let run = |typed: bool| {
            let service = IcdbService::shared();
            let session = service.open_session();
            let mut answers = Vec::new();
            for (request, terms) in &script {
                let name = if typed {
                    session.request_component(request).unwrap()
                } else {
                    let line =
                        format!("command:request_component; {terms}; generated_component:?s");
                    let mut args = [CqlArg::OutStr(None)];
                    session.execute(&line, &mut args).unwrap();
                    let [CqlArg::OutStr(Some(name))] = args else {
                        panic!("no name");
                    };
                    name
                };
                let mut args = vec![CqlArg::InStr(name.clone())];
                args.extend((0..4).map(|_| CqlArg::OutStr(None)));
                session
                    .execute(
                        "command:instance_query; instance:%s; delay:?s; shape_function:?s; \
                         area:?s; connect:?s",
                        &mut args,
                    )
                    .unwrap();
                answers.push((name, format!("{args:?}")));
            }
            (
                answers,
                session.commit_seq().unwrap(),
                service.cache_stats(),
            )
        };
        let (typed, cql) = (run(true), run(false));
        assert_eq!(typed.0, cql.0);
        assert_eq!((typed.1, typed.2), (cql.1, cql.2));
        assert_eq!(typed.1, 5);
    }

    const PARAM_AND: &str = "
NAME: PARAM_AND;
PARAMETER: size;
INORDER: A[size], B[size];
OUTORDER: O[size];
VARIABLE: i;
{
  #for(i=0;i<size;i++)
    O[i] = A[i] * B[i];
}";

    /// A parameterized inline-IIF request binds its attributes, typed and
    /// over CQL; the repeat is a result-layer hit; attributes that do not
    /// bind still fail with the IIF errors.
    #[test]
    fn inline_iif_requests_bind_their_attributes() {
        let service = IcdbService::shared();
        let session = service.open_session();
        let request = ComponentRequest::from_iif(PARAM_AND).attribute("size", "3");
        let typed = session.request_component(&request).unwrap();
        let mut args = [CqlArg::InStr(PARAM_AND.into()), CqlArg::OutStr(None)];
        session
            .execute(
                "command:request_component; IIF:%s; attribute:(size:3); generated_component:?s",
                &mut args,
            )
            .unwrap();
        let [_, CqlArg::OutStr(Some(served))] = args else {
            panic!("no name");
        };
        assert_eq!((typed.as_str(), served.as_str()), ("iif$1", "iif$2"));
        let guard = service.read();
        for name in [&typed, &served] {
            let inst = guard.instance_in(session.ns(), name).unwrap();
            assert_eq!(inst.params, [("size".to_string(), 3)]);
            assert_eq!(inst.netlist.outputs.len(), 3);
        }
        drop(guard);
        let result = service.cache_stats().result;
        assert_eq!((result.misses, result.hits), (1, 1));

        let missing = session.request_component(&ComponentRequest::from_iif(PARAM_AND));
        let err = missing.unwrap_err().to_string();
        assert!(
            err.contains("IIF design `PARAM_AND` needs attribute `size`"),
            "{err}"
        );
        let wide = ComponentRequest::from_iif(PARAM_AND).attribute("size", "wide");
        let err = session.request_component(&wide).unwrap_err().to_string();
        assert!(
            err.contains("attribute size:wide is not an integer"),
            "{err}"
        );
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

    /// The epoch snapshot stays cached while the knowledge versions hold;
    /// knowledge acquisition bumps the version mirrors so the next epoch
    /// read is a *new* snapshot that sees the new implementation.
    #[test]
    fn epoch_snapshot_tracks_knowledge_versions() {
        let service = IcdbService::shared();
        let session = service.open_session();
        let before = service.epoch();
        // Same versions → same cached snapshot, no rebuild.
        assert_eq!(Arc::as_ptr(&before), Arc::as_ptr(&service.epoch()));
        // Knowledge queries answer from live state.
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

    /// Knowledge acquired through a raw `write()` guard reaches the next
    /// query and the next epoch snapshot, though one was already warm:
    /// the guard renotes the version mirrors as it drops.
    #[test]
    fn raw_write_guard_knowledge_reaches_the_next_epoch_query() {
        let service = IcdbService::shared();
        let session = service.open_session();
        let counters = || {
            let mut args = vec![CqlArg::OutStrList(None)];
            session
                .execute(
                    "command:component_query; component:counter; ICDB_components:?s[]",
                    &mut args,
                )
                .unwrap();
            match args.pop() {
                Some(CqlArg::OutStrList(Some(names))) => names,
                other => panic!("no names: {other:?}"),
            }
        };
        let gray = || {
            service
                .epoch()
                .library
                .implementation("GRAY_COUNTER")
                .is_some()
        };
        assert!(!counters().iter().any(|n| n == "GRAY_COUNTER"));
        assert!(!gray());
        service
            .write()
            .insert_implementation(
                GRAY_COUNTER,
                "Counter",
                &["INC"],
                &[("size", 4)],
                None,
                "raw guard probe",
            )
            .unwrap();
        assert!(counters().iter().any(|n| n == "GRAY_COUNTER"));
        assert!(gray());
    }

    /// A generator registered through a raw `write()` guard is listed by
    /// the next `tool_query`: answers read the live registry.
    #[test]
    fn raw_write_guard_generators_reach_the_next_tool_query() {
        let service = IcdbService::shared();
        let session = service.open_session();
        let generators = || {
            let mut args = vec![CqlArg::OutStrList(None)];
            session
                .execute("command:tool_query; generators:?s[]", &mut args)
                .unwrap();
            match args.pop() {
                Some(CqlArg::OutStrList(Some(names))) => names,
                other => panic!("no generators: {other:?}"),
            }
        };
        let before = generators();
        let step = crate::ToolStep {
            step: 1,
            tool: "iif-expander".into(),
        };
        service
            .write()
            .register_generator(crate::GeneratorInfo {
                name: "probe-generator".into(),
                accepts: "iif".into(),
                steps: vec![step],
                description: "raw guard probe".into(),
            })
            .unwrap();
        let after = generators();
        assert_eq!(after.len(), before.len() + 1, "{after:?}");
        assert!(after.iter().any(|n| n == "probe-generator"), "{after:?}");
    }

    /// A failing sweep runs once on either entry point: served and
    /// embedded, it fails with one error text and counts the same corpus
    /// misses and cache lookups.
    #[test]
    fn a_failing_sweep_counts_its_lookups_once_on_every_entry_point() {
        let line = "command:explore; implementation:(COUNTER,ADDER); widths:(0,4); enable:0; \
                    winner:?s";
        let counts = |icdb: &Icdb| {
            let cache = icdb.cache_stats();
            (icdb.corpus_stats().misses, cache.hits() + cache.misses())
        };
        let service = IcdbService::shared();
        let session = service.open_session();
        let served = session.execute(line, &mut [CqlArg::OutStr(None)]);
        let served = (served.unwrap_err().to_string(), counts(&service.read()));
        let mut icdb = Icdb::new();
        let embedded = icdb.execute(line, &mut [CqlArg::OutStr(None)]);
        let embedded = (embedded.unwrap_err().to_string(), counts(&icdb));
        assert_eq!(served, embedded);
        assert!(
            served.1 .0 > 0,
            "the sweep looked its points up: {served:?}"
        );
    }

    /// Catalog rows go with their instances whatever the names hold:
    /// ending a transaction deletes the row of the instance it drops and
    /// keeps the listed one's, and closing the session deletes the rest.
    #[test]
    fn catalog_rows_follow_their_instances_whatever_the_name() {
        let service = IcdbService::shared();
        let rows = || -> Vec<String> {
            let guard = service.read();
            let rows = guard.db.query("SELECT name FROM instances").unwrap();
            rows.iter()
                .map(|row| row[0].as_text().unwrap().to_string())
                .collect()
        };
        let named = |name: &str| {
            let mut request = ComponentRequest::by_implementation("ADDER").attribute("size", "2");
            request.instance_name = Some(name.into());
            request
        };
        let session = service.open_session();
        session.start_design("d").unwrap();
        session.start_transaction("d").unwrap();
        for name in ["a", "a' x '"] {
            session.request_component(&named(name)).unwrap();
        }
        session.put_in_component_list("d", "a").unwrap();
        assert_eq!(session.end_transaction("d").unwrap(), 1);
        assert_eq!(rows(), [format!("s{}:a", session.ns().raw())]);
        session.request_component(&named("o'brien")).unwrap();
        session.close();
        assert!(rows().is_empty(), "{:?}", rows());
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
