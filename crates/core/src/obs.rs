//! Metrics scrape surface of the core server: merges the process-global
//! `icdb-obs` registry with samples *derived at scrape time* from live
//! server state — the generation-cache counters and the persistence
//! snapshot. The derived samples come from the same sources that answer
//! the `cache_query` and `persist` CQL commands ([`Icdb::cache_stats`]
//! and [`crate::persist::persist_fields`]), so the `metrics` command, the
//! HTTP `/metrics` exposition and the older ad-hoc commands agree by
//! construction.

use crate::persist;
use crate::Icdb;
use icdb_cql::CqlValue;
use icdb_obs::metrics::{self as obs, Sample, SampleValue};

/// Prometheus family metadata for the numeric persist fields (the string
/// fields `data_dir`/`fault`/`upstream` stay CQL-only; `role` is exposed
/// as a labeled one-hot gauge below). Keys match
/// [`persist::persist_fields`].
const PERSIST_GAUGES: &[(&str, &str, &str)] = &[
    (
        "enabled",
        "icdb_persist_enabled",
        "1 when the server has a data directory attached",
    ),
    (
        "generation",
        "icdb_persist_generation",
        "Current snapshot/WAL generation",
    ),
    (
        "wal_events",
        "icdb_wal_events",
        "Events in the current WAL generation",
    ),
    (
        "wal_bytes",
        "icdb_wal_size_bytes",
        "Bytes in the current WAL generation",
    ),
    (
        "snapshot_bytes",
        "icdb_snapshot_size_bytes",
        "On-disk size of the current generation's snapshot",
    ),
    (
        "recovered_events",
        "icdb_recovered_events",
        "Events replayed from the WAL at the last recovery",
    ),
    (
        "degraded",
        "icdb_persist_degraded",
        "1 while a latched durability fault keeps the server read-only",
    ),
    (
        "fault_errno",
        "icdb_persist_fault_errno",
        "OS errno of the latched durability fault (0 when healthy)",
    ),
    (
        "applied_seq",
        "icdb_persist_applied_seq",
        "Follower: last upstream WAL sequence applied (0 on a primary)",
    ),
    (
        "lag_events",
        "icdb_persist_lag_events",
        "Follower: durable upstream events not yet applied (0 on a primary)",
    ),
];

/// Per-layer cache family metadata (mirrors [`crate::cache::LayerStats`]).
const CACHE_FAMILIES: [(&str, &str, &str); 5] = [
    (
        "icdb_cache_hits_total",
        "counter",
        "Generation-cache lookups answered from the cache, by layer",
    ),
    (
        "icdb_cache_misses_total",
        "counter",
        "Generation-cache lookups that fell through, by layer",
    ),
    (
        "icdb_cache_evictions_total",
        "counter",
        "Generation-cache entries dropped at the capacity bound, by layer",
    ),
    (
        "icdb_cache_entries",
        "gauge",
        "Generation-cache entries resident, by layer",
    ),
    (
        "icdb_cache_capacity",
        "gauge",
        "Generation-cache capacity bound, by layer",
    ),
];

impl Icdb {
    /// Everything the server exposes to a scrape: the global registry
    /// ([`obs::gather`]) plus cache and persistence samples derived from
    /// the same live state `cache_query` and `persist` answer from. Both
    /// the `metrics` CQL command and the HTTP `/metrics` endpoint render
    /// exactly this list.
    #[must_use]
    pub fn metrics_samples(&self) -> Vec<Sample> {
        self.metrics_samples_from(self.persist_stats().as_ref())
    }

    /// [`Icdb::metrics_samples`] over a caller-provided persistence
    /// snapshot. The `metrics` CQL command answers `persist` keys and
    /// renders `rows`/`text` in one response — routing both through the
    /// same snapshot keeps them consistent even across a concurrent
    /// checkpoint or degradation flip.
    #[must_use]
    pub fn metrics_samples_from(&self, stats: Option<&persist::PersistStats>) -> Vec<Sample> {
        let mut out = obs::gather();

        let cs = self.cache_stats();
        for (layer, ls) in [
            ("flat", &cs.flat),
            ("netlist", &cs.netlist),
            ("result", &cs.result),
        ] {
            for ((family, kind, help), value) in CACHE_FAMILIES.iter().zip([
                ls.hits,
                ls.misses,
                ls.evictions,
                ls.entries as u64,
                ls.capacity as u64,
            ]) {
                out.push(Sample {
                    name: (*family).to_string(),
                    family: (*family).into(),
                    kind,
                    help: (*help).into(),
                    labels: format!("layer=\"{layer}\""),
                    value: SampleValue::Int(value),
                });
            }
        }
        // Label-less totals, directly comparable with `cache_query`.
        for ((family, kind, help), value) in
            CACHE_FAMILIES
                .iter()
                .take(3)
                .zip([cs.hits(), cs.misses(), cs.evictions()])
        {
            out.push(Sample {
                name: (*family).to_string(),
                family: (*family).into(),
                kind,
                help: (*help).into(),
                labels: String::new(),
                value: SampleValue::Int(value),
            });
        }
        let lookups = cs.hits() + cs.misses();
        out.push(Sample::float(
            "icdb_cache_hit_ratio",
            "gauge",
            "Generation-cache hits / lookups over all layers (0 before any lookup)",
            if lookups == 0 {
                0.0
            } else {
                #[allow(clippy::cast_precision_loss)]
                {
                    cs.hits() as f64 / lookups as f64
                }
            },
        ));

        // Exploration-corpus samples, derived from the same counters the
        // `corpus` CQL command answers from.
        let corpus = self.corpus_stats();
        out.push(Sample::int(
            "icdb_corpus_entries",
            "gauge",
            "Durable exploration-corpus entries resident",
            corpus.entries as u64,
        ));
        out.push(Sample::int(
            "icdb_corpus_hits_total",
            "counter",
            "Sweep grid points answered from the exploration corpus",
            corpus.hits,
        ));
        out.push(Sample::int(
            "icdb_corpus_misses_total",
            "counter",
            "Sweep grid points not found in the exploration corpus",
            corpus.misses,
        ));
        out.push(Sample::int(
            "icdb_sweep_points_pruned_total",
            "counter",
            "Sweep grid points answered from the exploration corpus instead of evaluated",
            corpus.pruned,
        ));

        let mut role = String::from("primary");
        for (key, value) in persist::persist_fields(stats) {
            match value {
                CqlValue::Int(v) => {
                    if let Some((_, family, help)) =
                        PERSIST_GAUGES.iter().find(|(k, _, _)| *k == key)
                    {
                        #[allow(clippy::cast_sign_loss)]
                        out.push(Sample::int(family, "gauge", help, v.max(0) as u64));
                    }
                }
                CqlValue::Str(s) if key == "role" => role = s,
                _ => {}
            }
        }
        out.push(Sample {
            name: "icdb_role".to_string(),
            family: "icdb_role".into(),
            kind: "gauge",
            help: "Replication role as a one-hot label (primary/follower/degraded)".into(),
            labels: format!("role=\"{role}\""),
            value: SampleValue::Int(1),
        });
        out
    }

    /// The full Prometheus text exposition (format 0.0.4) of
    /// [`Icdb::metrics_samples`] — the body served at `/metrics` and by
    /// `metrics text:?s`.
    #[must_use]
    pub fn metrics_text(&self) -> String {
        obs::render_prometheus(&self.metrics_samples())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_samples_mirror_cache_and_persist() {
        let mut icdb = Icdb::new();
        let request = crate::ComponentRequest::by_component("counter").attribute("size", "4");
        icdb.request_component(&request).unwrap();
        icdb.request_component(&request).unwrap(); // warm hit

        let cs = icdb.cache_stats();
        let samples = icdb.metrics_samples();
        let find = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name && s.labels.is_empty())
                .unwrap_or_else(|| panic!("sample {name} missing"))
                .value
        };
        assert_eq!(find("icdb_cache_hits_total"), SampleValue::Int(cs.hits()));
        assert_eq!(
            find("icdb_cache_misses_total"),
            SampleValue::Int(cs.misses())
        );
        // In-memory server: persistence disabled, role primary.
        assert_eq!(find("icdb_persist_enabled"), SampleValue::Int(0));
        assert_eq!(find("icdb_persist_lag_events"), SampleValue::Int(0));
        assert!(samples
            .iter()
            .any(|s| s.name == "icdb_role" && s.labels == "role=\"primary\""));

        let text = icdb.metrics_text();
        assert!(text.contains("# TYPE icdb_cache_hits_total counter"));
        assert!(text.contains("icdb_cache_hit_ratio"));
    }

    #[test]
    fn persist_gauge_table_matches_the_shared_field_list() {
        let fields = persist::persist_fields(None);
        for (key, _, _) in PERSIST_GAUGES {
            assert!(
                fields.iter().any(|(k, _)| k == key),
                "PERSIST_GAUGES key `{key}` is not produced by persist_fields"
            );
        }
    }
}
