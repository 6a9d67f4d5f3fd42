//! The core-side exploration corpus: durable store, pending queue, the
//! journaled flush path, and the similarity ranking behind `corpus near:`.
//!
//! Architecture (mirrors the generation cache's position in the system):
//!
//! * [`CorpusState`] wraps the serde-round-trippable
//!   [`icdb_store::corpus::CorpusStore`] behind a mutex, plus a *pending*
//!   queue (one mutex over the queued points and their keys) and lifetime
//!   counters. It hangs off [`Icdb`] as an `Arc`, and the service's epoch
//!   snapshots (`Icdb::read_snapshot`) share the same `Arc` — so lock-free
//!   epoch sweeps read the live corpus and queue newly evaluated points
//!   into the shared pending list.
//! * Durability goes through the one mutation choke point: draining the
//!   pending queue emits a single `MutationEvent::RecordCorpus`, which the
//!   apply path folds into the store. SIGKILL recovery and WAL-shipping
//!   replication therefore reconstruct the corpus for free, and a primary
//!   and its followers answer `corpus` queries byte-identically.
//! * The similarity layer serves only the `corpus near:` query: a small,
//!   deterministic distance over stored points — same implementation
//!   required, adjacent widths near, a strategy mismatch penalized, and
//!   knowledge-base / cell-library version mismatches *advisory* (a
//!   penalty, never a filter). Sweeps never reuse a point by similarity.
//!
//! Exactness invariant: the corpus owns its key format — the **serialized
//! canonical [`RequestKey`]**, which embeds both library versions. A
//! byte-equal key therefore proves the stored point was produced from
//! identical inputs, which is what lets a sweep reconstruct a
//! byte-identical `ExplorationReport` (see `explore.rs`).

use crate::cache::{lock, RequestKey};
use crate::error::IcdbError;
use crate::events::MutationEvent;
use crate::Icdb;
pub use icdb_store::corpus::{CorpusPoint, CorpusStore};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Lifetime counters of the corpus, plus its resident size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorpusStats {
    /// Points currently resident in the durable store.
    pub entries: usize,
    /// Exact-key lookups answered from the corpus.
    pub hits: u64,
    /// Exact-key lookups that fell through.
    pub misses: u64,
    /// Sweep grid points answered from the corpus instead of evaluated.
    pub pruned: u64,
}

/// Shared corpus state: the durable store, the not-yet-journaled pending
/// queue, and lifetime counters. Internally synchronized so epoch
/// snapshots can share it by `Arc`.
#[derive(Debug, Default)]
pub struct CorpusState {
    store: Mutex<CorpusStore>,
    pending: Mutex<Pending>,
    hits: AtomicU64,
    misses: AtomicU64,
    pruned: AtomicU64,
}

/// Fresh evaluations awaiting a journaled flush, in first-queued order,
/// with the set of their keys — one lock, so checking and queueing a key
/// is one step.
#[derive(Debug, Default)]
struct Pending {
    points: Vec<(Vec<u8>, CorpusPoint)>,
    keys: HashSet<RequestKey>,
}

impl CorpusState {
    /// A deep copy with an empty pending queue — used by `Icdb`'s manual
    /// `Clone` (a clone is an in-memory fork, so sharing the queue would
    /// leak one fork's unflushed points into the other's journal).
    pub(crate) fn deep_clone(&self) -> CorpusState {
        CorpusState {
            store: Mutex::new(self.export()),
            pending: Mutex::default(),
            hits: AtomicU64::new(self.hits.load(Ordering::Relaxed)),
            misses: AtomicU64::new(self.misses.load(Ordering::Relaxed)),
            pruned: AtomicU64::new(self.pruned.load(Ordering::Relaxed)),
        }
    }

    /// Clone of the durable store (snapshot capture, `corpus` queries).
    pub(crate) fn export(&self) -> CorpusStore {
        lock(&self.store).clone()
    }

    /// Replaces the durable store wholesale (snapshot restore).
    pub(crate) fn import(&self, store: CorpusStore) {
        *lock(&self.store) = store;
    }

    /// Exact-key lookup, counting a hit or miss. A hit is automatically
    /// version-exact because the key embeds both library versions. The
    /// key is serialized only when the store holds points to compare it
    /// with.
    pub(crate) fn lookup(&self, key: &RequestKey) -> Option<CorpusPoint> {
        let store = lock(&self.store);
        let found = if store.is_empty() {
            None
        } else {
            store.get(&serde::to_bytes(key)).cloned()
        };
        drop(store);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Queues a freshly evaluated point for the next journaled flush unless
    /// its key is already queued (equal keys carry equal points); returns
    /// whether it queued. Only a new key is serialized and its `point`
    /// built. Bounded: excess points of a never-flushed server are dropped
    /// (any later sweep re-derives them).
    pub(crate) fn queue(&self, key: &RequestKey, point: impl FnOnce() -> CorpusPoint) -> bool {
        const PENDING_CAP: usize = 65_536;
        let mut pending = lock(&self.pending);
        if pending.points.len() >= PENDING_CAP || pending.keys.contains(key) {
            return false;
        }
        let entry = (serde::to_bytes(key), point());
        pending.keys.insert(key.clone());
        pending.points.push(entry);
        true
    }

    /// Whether any evaluated points await a journaled flush.
    pub(crate) fn has_pending(&self) -> bool {
        !lock(&self.pending).points.is_empty()
    }

    /// Drains the pending queue in first-queued order.
    pub(crate) fn take_pending(&self) -> Vec<(Vec<u8>, CorpusPoint)> {
        std::mem::take(&mut *lock(&self.pending)).points
    }

    /// Drops the pending queue. Followers and degraded primaries cannot
    /// journal corpus rows; discarding bounds their memory (the rows are
    /// re-derivable by any later sweep on a healthy primary).
    pub(crate) fn discard_pending(&self) {
        self.take_pending();
    }

    /// Counts grid points a sweep answered from the corpus.
    pub(crate) fn note_pruned(&self, n: u64) {
        self.pruned.fetch_add(n, Ordering::Relaxed);
    }

    /// The apply-side of `MutationEvent::RecordCorpus`: folds journaled
    /// points into the durable store in event order (deterministic
    /// sequence numbers under replay and replication).
    pub(crate) fn apply_record(&self, points: &[(Vec<u8>, CorpusPoint)]) {
        let mut store = lock(&self.store);
        for (key, point) in points {
            store.record(key.clone(), point.clone());
        }
    }

    /// Resident size + lifetime counters.
    pub(crate) fn stats(&self) -> CorpusStats {
        CorpusStats {
            entries: lock(&self.store).len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            pruned: self.pruned.load(Ordering::Relaxed),
        }
    }

    /// The `k` nearest stored points to `probe`, by the advisory
    /// similarity distance; ties broken by recency (newest first) so the
    /// ranking is total and deterministic.
    pub(crate) fn neighbors(&self, probe: &Probe, k: usize) -> Vec<(f64, CorpusPoint)> {
        let store = lock(&self.store);
        let mut near: Vec<(f64, CorpusPoint)> = store
            .iter()
            .filter_map(|(_, p)| point_distance(p, probe).map(|d| (d, p.clone())))
            .collect();
        near.sort_by(|(da, pa), (db, pb)| da.total_cmp(db).then_with(|| pb.seq.cmp(&pa.seq)));
        near.truncate(k);
        near
    }
}

// ----------------------------------------------------------- similarity

/// What a `corpus near:` query asks for.
#[derive(Debug, Clone)]
pub(crate) struct Probe {
    /// Implementation name (similarity never crosses implementations).
    pub implementation: String,
    /// Width-like `size` parameter, when given.
    pub width: Option<i64>,
    /// Fastest-sizing strategy?
    pub fastest: bool,
    /// Knowledge-base version the probe resolves against.
    pub library_version: u64,
    /// Cell-library version the probe resolves against.
    pub cells_version: u64,
}

/// Advisory similarity distance between a stored point and a probe.
/// `None` when the point belongs to a different implementation. Smaller
/// is closer; the exact-match case is distance 0 only when strategy and
/// versions line up — but version mismatches only *add distance*, they
/// never filter a neighbor out.
pub(crate) fn point_distance(point: &CorpusPoint, probe: &Probe) -> Option<f64> {
    if point.implementation != probe.implementation {
        return None;
    }
    let point_width = (point.width >= 0).then_some(point.width);
    let mut d = match (point_width, probe.width) {
        (Some(a), Some(b)) => (a - b).unsigned_abs() as f64,
        (None, None) => 0.0,
        // One side widthless: farther than any adjacent width.
        _ => 4.0,
    };
    if (point.strategy == "fastest") != probe.fastest {
        d += 0.5;
    }
    if point.library_version != probe.library_version || point.cells_version != probe.cells_version
    {
        // Advisory: stale-version knowledge still ranks, just farther.
        d += 0.25;
    }
    Some(d)
}

// ------------------------------------------------------------ icdb api

impl Icdb {
    /// Resident size and lifetime hit/miss/pruned counters of the
    /// exploration corpus.
    pub fn corpus_stats(&self) -> CorpusStats {
        self.corpus.stats()
    }

    /// Number of points resident in the durable corpus.
    pub fn corpus_len(&self) -> usize {
        self.corpus.stats().entries
    }

    /// Journals every pending evaluated design point as one
    /// [`MutationEvent::RecordCorpus`], making the corpus durable (and,
    /// on a replicating primary, shipping it to followers). A no-op when
    /// nothing is pending. Returns how many distinct points were recorded.
    ///
    /// # Errors
    /// Propagates journal failures; the drained points are lost in that
    /// case (they are re-derivable by any later sweep).
    pub fn flush_corpus(&mut self) -> Result<usize, IcdbError> {
        let points = self.corpus.take_pending();
        if points.is_empty() {
            return Ok(0);
        }
        let n = points.len();
        self.commit(&MutationEvent::RecordCorpus { points })?;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stored(imp: &str, width: i64, strategy: &str, versions: (u64, u64)) -> CorpusPoint {
        CorpusPoint {
            implementation: imp.to_string(),
            width,
            params: vec![("size".to_string(), width)],
            strategy: strategy.to_string(),
            area: 100.0 * width as f64,
            delay: 10.0,
            power: 500.0,
            gates: 30,
            met: true,
            library_version: versions.0,
            cells_version: versions.1,
            seq: 0,
            request: Vec::new(),
        }
    }

    fn probe(imp: &str, width: i64) -> Probe {
        Probe {
            implementation: imp.to_string(),
            width: Some(width),
            fastest: false,
            library_version: 1,
            cells_version: 1,
        }
    }

    #[test]
    fn distance_requires_same_implementation() {
        let p = probe("COUNTER", 4);
        assert!(point_distance(&stored("ALU", 4, "cheapest", (1, 1)), &p).is_none());
        assert_eq!(
            point_distance(&stored("COUNTER", 4, "cheapest", (1, 1)), &p),
            Some(0.0)
        );
    }

    #[test]
    fn distance_orders_width_then_strategy_then_versions() {
        let p = probe("COUNTER", 4);
        let exact = point_distance(&stored("COUNTER", 4, "cheapest", (1, 1)), &p).unwrap();
        let adjacent = point_distance(&stored("COUNTER", 5, "cheapest", (1, 1)), &p).unwrap();
        let strategy = point_distance(&stored("COUNTER", 4, "fastest", (1, 1)), &p).unwrap();
        let stale = point_distance(&stored("COUNTER", 4, "cheapest", (0, 1)), &p).unwrap();
        assert!(exact < stale, "version mismatch is advisory distance");
        assert!(stale < strategy);
        assert!(strategy < adjacent);
        // Stale versions never filter a neighbor out — only push it away.
        assert!(point_distance(&stored("COUNTER", 4, "cheapest", (0, 0)), &p).is_some());
    }

    #[test]
    fn neighbors_are_ranked_deterministically() {
        let state = CorpusState::default();
        state.apply_record(&[
            (vec![1], stored("COUNTER", 3, "cheapest", (1, 1))),
            (vec![2], stored("COUNTER", 5, "cheapest", (1, 1))),
            (vec![3], stored("COUNTER", 4, "fastest", (1, 1))),
            (vec![4], stored("ALU", 4, "cheapest", (1, 1))),
        ]);
        let near = state.neighbors(&probe("COUNTER", 4), 2);
        assert_eq!(near.len(), 2);
        // fastest@4 (0.5) beats both width-adjacent points (1.0).
        assert_eq!(near[0].1.strategy, "fastest");
        // Width tie between 3 and 5 breaks by recency: 5 was recorded later.
        assert_eq!(near[1].1.width, 5);
        // Foreign implementations never appear.
        assert!(near.iter().all(|(_, p)| p.implementation == "COUNTER"));
    }

    fn rkey(width: i64) -> RequestKey {
        RequestKey::new(
            crate::cache::SourceKey::Implementation("COUNTER".to_string()),
            &[("size".to_string(), width)],
            &crate::spec::ComponentRequest::by_implementation("COUNTER"),
            1,
            1,
        )
    }

    #[test]
    fn pending_queue_keeps_first_queued_and_discards() {
        let state = CorpusState::default();
        let point = |width| stored("COUNTER", width, "cheapest", (1, 1));
        assert!(state.queue(&rkey(4), || point(4)));
        assert!(!state.queue(&rkey(4), || panic!("a queued key builds no point")));
        assert!(state.queue(&rkey(3), || point(3)));
        let expected = [(rkey(4), point(4)), (rkey(3), point(3))]
            .map(|(key, point)| (serde::to_bytes(&key), point));
        assert_eq!(state.take_pending(), expected, "first-queued order");
        assert!(!state.has_pending());
        assert!(
            state.queue(&rkey(4), || point(4)),
            "draining clears the keys"
        );
        state.discard_pending();
        assert!(!state.has_pending());
        assert!(
            state.queue(&rkey(4), || point(4)),
            "discarding clears the keys"
        );
    }
}
