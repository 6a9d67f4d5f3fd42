//! The exploration corpus: a durable, replicated record of every design
//! point an exploration sweep has ever evaluated.
//!
//! The generation cache is volatile — every daemon restart throws away all
//! warm state — and each sweep re-evaluates its full grid. The corpus is
//! the persistent half of that story: design points keyed by the
//! *serialized canonical request key* (the same `RequestKey` the cache
//! uses, so byte-equality of keys implies identical inputs **including**
//! knowledge-base and cell-library versions). The core crate journals
//! corpus rows through the event-sourced `MutationEvent` choke point, so
//! the store here only needs to be a deterministic, serde-round-trippable
//! map: it survives SIGKILL via WAL replay, rides WAL-shipping replication
//! to followers unchanged, and snapshots as one more positional field.
//!
//! Determinism matters more than cleverness here: iteration is in key-byte
//! order (`BTreeMap`), and the insertion sequence number is assigned by
//! the store at apply time — so a primary and a follower that applied the
//! same event history answer every `corpus` query byte-identically.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One evaluated design point, as recorded by an exploration sweep.
///
/// Carries everything needed to reconstruct the sweep's `DesignPoint`
/// without re-running generation, plus the knowledge-base / cell-library
/// versions it was generated under.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusPoint {
    /// Resolved implementation the point was generated from.
    pub implementation: String,
    /// Width-like `size` parameter, or `-1` when the implementation has no
    /// such parameter.
    pub width: i64,
    /// Canonically sorted bound parameters.
    pub params: Vec<(String, i64)>,
    /// Sizing-strategy label the sweep evaluated the point under.
    pub strategy: String,
    /// Estimated area (λ²-equivalent units).
    pub area: f64,
    /// Estimated delay (ns): clock width when clocked, else worst output
    /// delay.
    pub delay: f64,
    /// Estimated dynamic power (µW).
    pub power: f64,
    /// Mapped gate count.
    pub gates: u64,
    /// Whether the request's constraints were met.
    pub met: bool,
    /// Knowledge-base version the point was generated under.
    pub library_version: u64,
    /// Cell-library version the point was generated under.
    pub cells_version: u64,
    /// Apply-order sequence number, assigned by [`CorpusStore::record`] —
    /// deterministic under event replay, so primaries and followers agree.
    pub seq: u64,
    /// Serialized `ComponentRequest` that produced the point. Retired: the
    /// server no longer reads it (it fed a removed boot-time cache
    /// warm-start), but records keep it, unchanged, in their positional
    /// encoding.
    pub request: Vec<u8>,
}

/// The durable corpus: serialized canonical request key → design point.
///
/// A plain value type — cloning, serializing and comparing it are all
/// exact — owned by the core crate's `Icdb` and mutated only through the
/// journaled event path.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CorpusStore {
    points: BTreeMap<Vec<u8>, CorpusPoint>,
    next_seq: u64,
}

impl CorpusStore {
    /// An empty corpus.
    pub fn new() -> CorpusStore {
        CorpusStore::default()
    }

    /// Records one point under its serialized request key, overwriting any
    /// previous point for the same key (re-evaluations win). Assigns the
    /// next apply-order sequence number.
    pub fn record(&mut self, key: Vec<u8>, mut point: CorpusPoint) {
        point.seq = self.next_seq;
        self.next_seq += 1;
        self.points.insert(key, point);
    }

    /// Exact-key lookup. Because the key embeds the knowledge-base and
    /// cell-library versions, a hit is automatically version-exact.
    pub fn get(&self, key: &[u8]) -> Option<&CorpusPoint> {
        self.points.get(key)
    }

    /// Number of resident points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterates points in serialized-key order — deterministic across
    /// processes that applied the same event history.
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<u8>, &CorpusPoint)> {
        self.points.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(imp: &str, width: i64, area: f64) -> CorpusPoint {
        CorpusPoint {
            implementation: imp.to_string(),
            width,
            params: vec![("size".to_string(), width)],
            strategy: "cheapest".to_string(),
            area,
            delay: 12.5,
            power: 830.0,
            gates: 40,
            met: true,
            library_version: 1,
            cells_version: 1,
            seq: 0,
            request: vec![1, 2, 3],
        }
    }

    #[test]
    fn record_assigns_monotonic_sequence_numbers() {
        let mut c = CorpusStore::new();
        c.record(vec![2], point("COUNTER", 4, 100.0));
        c.record(vec![1], point("COUNTER", 3, 80.0));
        c.record(vec![3], point("COUNTER", 5, 120.0));
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(&[1]).unwrap().seq, 1);
        assert_eq!(c.get(&[2]).unwrap().seq, 0);
        assert_eq!(c.get(&[3]).unwrap().seq, 2);
        // Overwriting a key still advances the sequence: the re-evaluation
        // is the newer fact.
        c.record(vec![2], point("COUNTER", 4, 99.0));
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(&[2]).unwrap().seq, 3);
        assert_eq!(c.get(&[2]).unwrap().area, 99.0);
    }

    #[test]
    fn iteration_is_in_key_byte_order() {
        let mut c = CorpusStore::new();
        c.record(vec![9, 9], point("A", 1, 1.0));
        c.record(vec![0], point("B", 2, 2.0));
        c.record(vec![9, 0], point("C", 3, 3.0));
        let keys: Vec<&Vec<u8>> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![&vec![0], &vec![9, 0], &vec![9, 9]]);
    }

    #[test]
    fn corpus_round_trips_through_serde_bit_exactly() {
        let mut c = CorpusStore::new();
        let mut p = point("COUNTER", 4, 100.0);
        p.delay = -0.0; // signed zero must survive bit-exactly
        p.power = f64::MIN_POSITIVE;
        c.record(vec![7, 7], p);
        c.record(vec![8], point("ALU", -1, 400.0));
        let bytes = serde::to_bytes(&c);
        let back: CorpusStore = serde::from_bytes(&bytes).expect("corpus decodes");
        assert_eq!(c, back);
        assert_eq!(
            back.get(&[7, 7]).unwrap().delay.to_bits(),
            (-0.0f64).to_bits()
        );
        // Sequence allocation continues where the decoded history left off.
        let mut back = back;
        back.record(vec![9], point("SHIFTER", 2, 50.0));
        assert_eq!(back.get(&[9]).unwrap().seq, 2);
    }
}
