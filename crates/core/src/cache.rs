//! The generation cache: content-addressed memoization of the Fig. 8
//! pipeline so repeat component requests are ~free.
//!
//! The paper's central claim is that an intelligent component database
//! *amortizes* synthesis cost by storing and reusing generated components.
//! This module supplies the missing half of that claim: every request is
//! canonicalized into a [`RequestKey`] (resolved implementation, sorted
//! bound parameters, constraints, resolved sizing strategy, knowledge-base
//! and cell-library versions) and the pipeline is memoized behind it in
//! two bounded LRU layers:
//!
//! 1. **netlist layer** — synthesized, unsized [`GateNetlist`]s keyed by a
//!    [`NetKey`]: the request key without its sizing fields (module
//!    source, sorted parameters, library and cell-library versions). Each
//!    entry holds the four views that do not depend on sizing: expanded
//!    IIF, MILO, VHDL and VHDL head. The expanded [`FlatModule`] is
//!    rendered into the first two and then dropped; no entry holds one.
//! 2. **result layer** — the complete sized/estimated
//!    [`GenerationPayload`] keyed by the full [`RequestKey`].
//!
//! The IIF and MILO texts render from the expanded module alone, and
//! sizing changes only each gate's drive strength, which neither VHDL view
//! prints. So every payload built on one netlist shares those four
//! `Arc<str>`s, whatever its strategy or constraints, and only the delay
//! and shape views render per payload.
//!
//! A warm `request_component` therefore does one hash lookup plus a cheap
//! instance clone (net names are interned `Arc<str>`, file-store views are
//! shared `Arc<str>` blobs). Canonicalization also means *differently
//! phrased* but equivalent requests share entries: `component_name:counter`
//! and `implementation:COUNTER` with the same attributes resolve to the
//! same key.
//!
//! Both layers sit behind mutexes so a batch or a sweep
//! ([`crate::Icdb::request_components_batch`], [`crate::Icdb::explore`])
//! can generate its cold points on `std::thread::scope` workers sharing
//! one cache. Such a batch looks each point up in the result layer once,
//! then looks each distinct netlist key of its misses up in the netlist
//! layer once, so a netlist shared by several points is built once.
//! Statistics (hits, misses, evictions, entries, capacity) are kept per
//! layer and surfaced through [`crate::Icdb::cache_stats`], the
//! `cache_query` CQL command, and the relational `cache_stats` table.

use crate::spec::ComponentRequest;
use icdb_cells::Library;
use icdb_estimate::{DelayReport, LoadSpec, ShapeFunction};
use icdb_genus::ConnectionTable;
use icdb_iif::FlatModule;
use icdb_logic::GateNetlist;
use icdb_vhdl::{emit_entity, emit_netlist};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, PoisonError};

/// Default per-layer LRU capacity (entries, not bytes).
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

// ---------------------------------------------------------------- payload

/// Everything the generation pipeline produces for one canonical request,
/// minus the instance name (which is chosen at install time). Cached as
/// `Arc<GenerationPayload>`; installing a warm hit clones the cheap parts
/// and shares the text views.
#[derive(Debug, Clone)]
pub struct GenerationPayload {
    /// Implementation the payload was generated from (`COUNTER`, `iif`,
    /// `cluster`).
    pub implementation: String,
    /// Functions the component can execute.
    pub functions: Vec<String>,
    /// Parameter values used for expansion.
    pub params: Vec<(String, i64)>,
    /// The sized, technology-mapped netlist.
    pub netlist: GateNetlist,
    /// Output loading assumed by the timing report.
    pub loads: LoadSpec,
    /// Timing report (CW / WD / SD).
    pub report: DelayReport,
    /// Shape function (strip-count sweep).
    pub shape: ShapeFunction,
    /// Dynamic power estimate under default operating conditions (µW) —
    /// precomputed so exploration sweeps pay for it on the cold path only.
    pub power_uw: f64,
    /// Whether the requested constraints were met.
    pub met: bool,
    /// Connection information inherited from the implementation.
    pub connection: ConnectionTable,
    /// Expanded-IIF view for the design-data store (absent for clusters).
    pub flat_iif: Option<Arc<str>>,
    /// MILO-format view for the design-data store (absent for clusters).
    pub milo: Option<Arc<str>>,
    /// Structural-VHDL view.
    pub vhdl: Arc<str>,
    /// VHDL entity head.
    pub vhdl_head: Arc<str>,
    /// §3.3 delay string.
    pub delay_text: Arc<str>,
    /// §3.3 shape-function string.
    pub shape_text: Arc<str>,
    /// Knowledge-base version the payload was generated under.
    pub lib_version: u64,
    /// Cell-library version the payload was generated under.
    pub cells_version: u64,
}

impl GenerationPayload {
    /// Whether the payload was generated under the given library versions —
    /// i.e. installing it now is equivalent to regenerating it now. The
    /// event-sourced install path only accepts a pre-prepared payload that
    /// passes this check, so journal replay (which always regenerates)
    /// reproduces the live result byte-for-byte.
    pub fn fresh_for(&self, lib_version: u64, cells_version: u64) -> bool {
        self.lib_version == lib_version && self.cells_version == cells_version
    }
}

/// A netlist-layer entry: an unsized netlist with the four views every
/// sizing of it shares (sizing changes only `Gate::size`, which neither
/// VHDL view prints).
#[derive(Debug)]
pub(crate) struct NetEntry {
    /// The technology-mapped, unsized netlist.
    pub(crate) netlist: GateNetlist,
    /// Expanded-IIF view (absent without a module: clusters, resizes).
    pub(crate) iif: Option<Arc<str>>,
    /// MILO-format view (absent without a module).
    pub(crate) milo: Option<Arc<str>>,
    /// Structural-VHDL view.
    pub(crate) vhdl: Arc<str>,
    /// VHDL entity head.
    pub(crate) vhdl_head: Arc<str>,
}

impl NetEntry {
    /// Renders the netlist's views against the cells it was mapped to, and
    /// the views of the expanded `module` it was synthesized from, if any.
    pub(crate) fn new(
        module: Option<&FlatModule>,
        netlist: GateNetlist,
        cells: &Library,
    ) -> NetEntry {
        NetEntry {
            iif: module.map(|m| m.to_string().into()),
            milo: module.map(|m| m.to_milo_format().into()),
            vhdl: emit_netlist(&netlist, cells).into(),
            vhdl_head: emit_entity(&netlist).into(),
            netlist,
        }
    }
}

// ------------------------------------------------------------------- keys

/// Bit-exact, hashable stand-in for an `f64` constraint value.
///
/// Canonicalized for key identity: every NaN payload collapses to the
/// single quiet-NaN pattern, and `-0.0` collapses to `+0.0` (they compare
/// equal as constraints, so they must key — and serialize — identically).
fn bits(v: f64) -> u64 {
    if v.is_nan() {
        return f64::NAN.to_bits();
    }
    if v == 0.0 {
        return 0.0f64.to_bits();
    }
    v.to_bits()
}

/// What the request generates *from*, after resolution: the canonical
/// implementation name for library requests, or the full inline IIF text.
/// VHDL clusters are never cached (they depend on live instance state).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SourceKey {
    /// A resolved generic-library implementation, by exact stored name.
    Implementation(String),
    /// Inline IIF source text.
    Iif(String),
}

/// Key of the netlist layer: a [`RequestKey`] without its sizing fields
/// (module source, sorted parameter binding, and the knowledge-base and
/// cell-library versions the module was expanded and mapped against).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NetKey {
    source: SourceKey,
    params: Vec<(String, i64)>,
    library_version: u64,
    cells_version: u64,
}

/// The canonical identity of a full component request: resolved source,
/// sorted bound parameters, *resolved* sizing strategy, every timing/load
/// constraint (bit-exact), and the knowledge-base / cell-library versions
/// the resolution was made against. Instance naming, the target level and
/// layout port/alternative choices are *not* part of the key — none of
/// them affect the cached payload; they are applied per instance after it
/// is installed (so a logic-level request warms the later layout-level
/// one).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RequestKey {
    source: SourceKey,
    params: Vec<(String, i64)>,
    /// Resolved strategy: `fastest` sizing, or not. `cheapest`, `None` and
    /// unknown strategy strings all resolve to cheapest sizing, and any
    /// explicit constraint overrides the strategy entirely — mirroring
    /// [`ComponentRequest::sizing_strategy`] so equivalent phrasings share
    /// one entry.
    fastest: bool,
    clock_width: Option<u64>,
    comb_delay: Option<u64>,
    set_up_time: Option<u64>,
    rdelay: Vec<(String, u64)>,
    oload: Vec<(String, u64)>,
    default_load: u64,
    library_version: u64,
    cells_version: u64,
}

impl RequestKey {
    /// Canonicalizes a request whose source has already been resolved to
    /// `source` with bound parameter values `params`.
    pub fn new(
        source: SourceKey,
        params: &[(String, i64)],
        request: &ComponentRequest,
        library_version: u64,
        cells_version: u64,
    ) -> RequestKey {
        let mut sorted_params = params.to_vec();
        sorted_params.sort();
        let c = &request.constraints;
        let mut rdelay: Vec<(String, u64)> = c
            .rdelay
            .iter()
            .map(|(p, v)| (p.clone(), bits(*v)))
            .collect();
        rdelay.sort();
        let mut oload: Vec<(String, u64)> =
            c.oload.iter().map(|(p, v)| (p.clone(), bits(*v))).collect();
        oload.sort();
        let fastest = matches!(request.sizing_strategy(), icdb_sizing::Strategy::Fastest);
        RequestKey {
            source,
            params: sorted_params,
            fastest,
            clock_width: c.clock_width.map(bits),
            comb_delay: c.comb_delay.map(bits),
            set_up_time: c.set_up_time.map(bits),
            rdelay,
            oload,
            default_load: bits(c.default_load),
            library_version,
            cells_version,
        }
    }

    /// The netlist-layer key of this request: equal for every strategy
    /// and constraint.
    pub(crate) fn net_key(&self) -> NetKey {
        NetKey {
            source: self.source.clone(),
            params: self.params.clone(),
            library_version: self.library_version,
            cells_version: self.cells_version,
        }
    }

    /// Value of the width-like `size` parameter, if bound.
    pub fn width(&self) -> Option<i64> {
        self.params
            .iter()
            .find(|(name, _)| name == "size")
            .map(|(_, v)| *v)
    }
}

// -------------------------------------------------------------------- lru

/// Statistics of one cache layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerStats {
    /// Lookups answered from the layer.
    pub hits: u64,
    /// Lookups that fell through to generation.
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries.
    pub capacity: usize,
}

impl LayerStats {
    /// Total lookups (`hits + misses`).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Aggregate statistics over the two layers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Synthesized-netlist layer.
    pub netlist: LayerStats,
    /// Full-request payload layer.
    pub result: LayerStats,
}

impl CacheStats {
    /// Hits summed over all layers.
    pub fn hits(&self) -> u64 {
        self.netlist.hits + self.result.hits
    }

    /// Misses summed over all layers.
    pub fn misses(&self) -> u64 {
        self.netlist.misses + self.result.misses
    }

    /// Evictions summed over all layers.
    pub fn evictions(&self) -> u64 {
        self.netlist.evictions + self.result.evictions
    }
}

/// A bounded least-recently-used map. Eviction scans for the oldest
/// timestamp — O(entries) — which is deliberate: capacities are small
/// (hundreds), the scan is branch-predictable, and it avoids an intrusive
/// list under a mutex.
#[derive(Debug)]
struct LruMap<K, V> {
    map: HashMap<K, LruEntry<V>>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

#[derive(Debug)]
struct LruEntry<V> {
    value: V,
    last_used: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> LruMap<K, V> {
    fn new(capacity: usize) -> LruMap<K, V> {
        LruMap {
            map: HashMap::new(),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(e) => {
                e.last_used = self.tick;
                self.hits += 1;
                Some(e.value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
                self.evictions += 1;
            }
        }
        self.map.insert(
            key,
            LruEntry {
                value,
                last_used: self.tick,
            },
        );
    }

    fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.map.len() > capacity {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("len > capacity implies non-empty");
            self.map.remove(&victim);
            self.evictions += 1;
        }
    }

    fn stats(&self) -> LayerStats {
        LayerStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
            capacity: self.capacity,
        }
    }
}

// ------------------------------------------------------------------ cache

/// The thread-safe, two-layer generation cache owned by an
/// [`crate::Icdb`]. Every layer is an independently bounded LRU behind its
/// own mutex, so concurrent batch workers contend per layer, not globally.
#[derive(Debug)]
pub struct GenCache {
    netlists: Mutex<LruMap<NetKey, Arc<NetEntry>>>,
    results: Mutex<LruMap<RequestKey, Arc<GenerationPayload>>>,
}

impl Default for GenCache {
    fn default() -> GenCache {
        GenCache::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

/// Locks a mutex, recovering from poisoning: a worker that panicked
/// mid-insert cannot leave a layer half-written (inserts are single
/// HashMap operations), and the batch result slots are plain option swaps.
pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl GenCache {
    /// A cache whose two layers each hold up to `capacity` entries.
    pub fn with_capacity(capacity: usize) -> GenCache {
        GenCache {
            netlists: Mutex::new(LruMap::new(capacity)),
            results: Mutex::new(LruMap::new(capacity)),
        }
    }

    /// Looks up a synthesized (unsized) netlist with its views.
    pub(crate) fn get_netlist(&self, key: &NetKey) -> Option<Arc<NetEntry>> {
        lock(&self.netlists).get(key)
    }

    /// Stores a synthesized (unsized) netlist with its views.
    pub(crate) fn put_netlist(&self, key: NetKey, value: Arc<NetEntry>) {
        lock(&self.netlists).insert(key, value);
    }

    /// Looks up a full generation payload.
    pub fn get_result(&self, key: &RequestKey) -> Option<Arc<GenerationPayload>> {
        lock(&self.results).get(key)
    }

    /// Stores a full generation payload.
    pub fn put_result(&self, key: RequestKey, value: Arc<GenerationPayload>) {
        lock(&self.results).insert(key, value);
    }

    /// A snapshot of all layer statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            netlist: lock(&self.netlists).stats(),
            result: lock(&self.results).stats(),
        }
    }

    /// Drops every entry (statistics are kept).
    pub fn clear(&self) {
        lock(&self.netlists).map.clear();
        lock(&self.results).map.clear();
    }

    /// Rebounds every layer to `capacity`, evicting LRU-first if shrinking.
    pub fn set_capacity(&self, capacity: usize) {
        lock(&self.netlists).set_capacity(capacity);
        lock(&self.results).set_capacity(capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru: LruMap<u32, u32> = LruMap::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.get(&1), Some(10)); // 1 is now fresher than 2
        lru.insert(3, 30); // evicts 2
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.get(&3), Some(30));
        let s = lru.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert_eq!(s.hits + s.misses, s.lookups());
    }

    #[test]
    fn lru_capacity_zero_stores_nothing() {
        let mut lru: LruMap<u32, u32> = LruMap::new(0);
        lru.insert(1, 10);
        assert_eq!(lru.get(&1), None);
        assert_eq!(lru.stats().entries, 0);
    }

    #[test]
    fn shrinking_capacity_evicts() {
        let mut lru: LruMap<u32, u32> = LruMap::new(4);
        for i in 0..4 {
            lru.insert(i, i);
        }
        lru.set_capacity(1);
        assert_eq!(lru.stats().entries, 1);
        assert_eq!(lru.stats().evictions, 3);
        // The survivor is the most recently inserted key.
        assert_eq!(lru.get(&3), Some(3));
    }

    #[test]
    fn request_key_canonicalizes_order() {
        let req = ComponentRequest::by_component("counter");
        let p1 = vec![("size".to_string(), 5), ("load".to_string(), 1)];
        let p2 = vec![("load".to_string(), 1), ("size".to_string(), 5)];
        let k1 = RequestKey::new(SourceKey::Implementation("COUNTER".into()), &p1, &req, 0, 0);
        let k2 = RequestKey::new(SourceKey::Implementation("COUNTER".into()), &p2, &req, 0, 0);
        assert_eq!(k1, k2);
        assert_eq!(k1.net_key(), k2.net_key());
    }

    #[test]
    fn request_key_separates_constraints_and_versions() {
        let base = ComponentRequest::by_component("counter");
        let constrained = ComponentRequest::by_component("counter").clock_width(30.0);
        let params = vec![("size".to_string(), 5)];
        let src = || SourceKey::Implementation("COUNTER".into());
        let k0 = RequestKey::new(src(), &params, &base, 0, 0);
        let k1 = RequestKey::new(src(), &params, &constrained, 0, 0);
        let k2 = RequestKey::new(src(), &params, &base, 1, 0);
        let k3 = RequestKey::new(src(), &params, &base, 0, 1);
        assert_ne!(k0, k1, "clock-width constraint must split the key");
        assert_ne!(k0, k2, "knowledge-base version must split the key");
        assert_ne!(k0, k3, "cell-library version must split the key");
    }

    #[test]
    fn request_key_canonicalizes_equivalent_phrasings() {
        let params = vec![("size".to_string(), 5)];
        let src = || SourceKey::Implementation("COUNTER".into());
        let key = |req: &ComponentRequest| RequestKey::new(src(), &params, req, 0, 0);

        // cheapest, absent and unknown strategies all resolve identically.
        let base = ComponentRequest::by_component("counter");
        let cheapest = ComponentRequest::by_component("counter").strategy("cheapest");
        let unknown = ComponentRequest::by_component("counter").strategy("mystery");
        assert_eq!(key(&base), key(&cheapest));
        assert_eq!(key(&base), key(&unknown));
        let fastest = ComponentRequest::by_component("counter").strategy("fastest");
        assert_ne!(key(&base), key(&fastest));
        // An explicit constraint overrides the strategy entirely.
        let c_fast = ComponentRequest::by_component("counter")
            .strategy("fastest")
            .clock_width(30.0);
        let c_plain = ComponentRequest::by_component("counter").clock_width(30.0);
        assert_eq!(key(&c_fast), key(&c_plain));

        // The target level does not affect the payload, so a logic-level
        // request warms the layout-level one.
        let layout = ComponentRequest::by_component("counter").layout();
        assert_eq!(key(&base), key(&layout));
    }

    #[test]
    fn float_constraints_canonicalize_nan_and_signed_zero() {
        // All NaN payloads collapse to one bit pattern; -0.0 keys as +0.0.
        assert_eq!(bits(f64::NAN), bits(-f64::NAN));
        assert_eq!(bits(f64::NAN), bits(f64::from_bits(0x7ff8_dead_beef_0001)));
        assert_eq!(bits(-0.0), bits(0.0));
        assert_ne!(bits(0.0), bits(1.0));

        let params = vec![("size".to_string(), 5)];
        let src = || SourceKey::Implementation("COUNTER".into());
        let key = |req: &ComponentRequest| RequestKey::new(src(), &params, req, 0, 0);
        let pos = ComponentRequest::by_component("counter").clock_width(0.0);
        let neg = ComponentRequest::by_component("counter").clock_width(-0.0);
        assert_eq!(key(&pos), key(&neg), "-0.0 and +0.0 must share a key");
        let nan_a = ComponentRequest::by_component("counter").clock_width(f64::NAN);
        let nan_b = ComponentRequest::by_component("counter").clock_width(-f64::NAN);
        assert_eq!(key(&nan_a), key(&nan_b), "all NaNs must share a key");
    }

    #[test]
    fn request_key_round_trips_through_serde() {
        let req = ComponentRequest::by_component("counter")
            .strategy("fastest")
            .clock_width(30.0);
        let key = RequestKey::new(
            SourceKey::Implementation("COUNTER".into()),
            &[("size".to_string(), 7)],
            &req,
            2,
            3,
        );
        let bytes = serde::to_bytes(&key);
        let back: RequestKey = serde::from_bytes(&bytes).expect("key decodes");
        assert_eq!(key, back);
        // Byte-equality of serialized keys is the corpus exact-match test:
        // equal keys must serialize identically.
        assert_eq!(bytes, serde::to_bytes(&back));
    }
}
