//! Per-layer metrics: counters from the server's `metrics` scrapes taken
//! around each untraced pass, and span times from the traced replay.

use crate::replay::Replayed;
use crate::stats::{median, Metric};
use crate::workload::Workload;
use crate::Pass;

/// Commands whose dispatch time `service.*_us` averages, per op class.
const REQUEST_COMMANDS: [&str; 1] = ["request_component"];
const QUERY_COMMANDS: [&str; 3] = ["instance_query", "component_query", "function_query"];
const COMMIT_COMMANDS: [&str; 3] = [
    "start_a_transaction",
    "put_in_component_list",
    "end_a_transaction",
];
const SWEEP_COMMANDS: [&str; 1] = ["explore"];
/// Every command the workloads send during a pass body.
const BODY_COMMANDS: [&str; 8] = [
    "request_component",
    "instance_query",
    "component_query",
    "function_query",
    "start_a_transaction",
    "put_in_component_list",
    "end_a_transaction",
    "explore",
];
const CACHE_LAYERS: [&str; 3] = ["result", "netlist", "flat"];

fn latency_key(suffix: &str, command: &str) -> String {
    format!("icdb_request_latency_us_{suffix}{{command=\"{command}\"}}")
}

/// Σ of a counter's deltas over every pass.
fn delta(passes: &[Pass], key: &str) -> f64 {
    passes.iter().map(|p| p.delta(key)).sum()
}

/// Server-side dispatch time of the given commands, µs.
fn dispatch_us(passes: &[Pass], commands: &[&str]) -> f64 {
    commands
        .iter()
        .map(|c| delta(passes, &latency_key("sum", c)))
        .sum()
}

/// Mean server-side dispatch time per command of a class, µs.
fn service_mean_us(passes: &[Pass], commands: &[&str]) -> f64 {
    let count: f64 = commands
        .iter()
        .map(|c| delta(passes, &latency_key("count", c)))
        .sum();
    ratio(dispatch_us(passes, commands), count)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Share of lookups that hit. A layer that saw no lookup — every request
/// was answered above it — missed nothing and reads 1.
fn hit_ratio(passes: &[Pass], hits: &str, misses: &str) -> f64 {
    let m = delta(passes, misses);
    let lookups = delta(passes, hits) + m;
    if lookups > 0.0 {
        1.0 - m / lookups
    } else {
        1.0
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer(w: &Workload, passes: &[Pass], r: &Replayed) -> Vec<Metric> {
    let ops = (w.body.len() * passes.len()) as f64;
    let rtt: f64 = passes.iter().map(|p| p.rtt_total_us).sum();
    let server = dispatch_us(passes, &BODY_COMMANDS);
    let evictions: f64 = CACHE_LAYERS
        .iter()
        .map(|l| {
            delta(
                passes,
                &format!("icdb_cache_evictions_total{{layer=\"{l}\"}}"),
            )
        })
        .sum();
    let cache = |layer: &str| {
        hit_ratio(
            passes,
            &format!("icdb_cache_hits_total{{layer=\"{layer}\"}}"),
            &format!("icdb_cache_misses_total{{layer=\"{layer}\"}}"),
        )
    };
    let fsyncs = delta(passes, "icdb_wal_fsync_us_count");
    let corpus_entries: Vec<f64> = passes
        .iter()
        .map(|p| p.after.get("icdb_corpus_entries").copied().unwrap_or(0.0))
        .collect();
    // One pass of server dispatch time, against the replay of one pass.
    let server_per_pass: Vec<f64> = passes
        .iter()
        .map(|p| dispatch_us(std::slice::from_ref(p), &BODY_COMMANDS))
        .collect();
    let synth_calls = r.calls("logic.synthesize") as f64;
    let synth_ns = r.mean_us("logic.synthesize") * 1e3 * synth_calls;
    let m = |name: &'static str, unit: &'static str, value: f64| Metric { name, unit, value };
    vec![
        m("net.overhead_us", "us", ratio(rtt - server, ops)),
        m("cql.parse_us", "us", r.mean_us("cql.parse")),
        m(
            "service.request_us",
            "us",
            service_mean_us(passes, &REQUEST_COMMANDS),
        ),
        m(
            "service.query_us",
            "us",
            service_mean_us(passes, &QUERY_COMMANDS),
        ),
        m(
            "service.commit_us",
            "us",
            service_mean_us(passes, &COMMIT_COMMANDS),
        ),
        m(
            "service.sweep_us",
            "us",
            service_mean_us(passes, &SWEEP_COMMANDS),
        ),
        m("cache.result_hit_ratio", "ratio", cache("result")),
        m("cache.netlist_hit_ratio", "ratio", cache("netlist")),
        m("cache.flat_hit_ratio", "ratio", cache("flat")),
        m("cache.evictions_per_op", "count", ratio(evictions, ops)),
        m("iif.expand_us", "us", r.mean_us("iif.expand")),
        m("logic.synthesize_us", "us", r.mean_us("logic.synthesize")),
        m(
            "logic.gates_per_request",
            "count",
            ratio(r.gates as f64, synth_calls),
        ),
        m(
            "logic.synthesize_ns_per_gate",
            "ns",
            ratio(synth_ns, r.gates as f64),
        ),
        m("estimate.delay_us", "us", r.mean_us("estimate.delay")),
        m("estimate.shape_us", "us", r.mean_us("estimate.shape")),
        m("estimate.power_us", "us", r.mean_us("estimate.power")),
        m("vhdl.emit_us", "us", r.mean_us("vhdl.emit")),
        m("layout.place_us", "us", r.mean_us("layout.place")),
        m("sizing.size_us", "us", r.mean_us("sizing.size")),
        m(
            "sizing.moves_per_point",
            "count",
            ratio(r.moves as f64, r.calls("sizing.size") as f64),
        ),
        m(
            "explore.points_per_sweep",
            "count",
            ratio(r.sweep_points as f64, r.sweeps as f64),
        ),
        m(
            "explore.evaluated_per_sweep",
            "count",
            ratio(r.sweep_evaluated as f64, r.sweeps as f64),
        ),
        m("explore.pareto_us", "us", r.mean_us("explore.pareto")),
        m(
            "corpus.hit_ratio",
            "ratio",
            hit_ratio(passes, "icdb_corpus_hits_total", "icdb_corpus_misses_total"),
        ),
        m(
            "corpus.entries",
            "count",
            median(&corpus_entries).unwrap_or(0.0),
        ),
        m(
            "store.fsync_us",
            "us",
            ratio(delta(passes, "icdb_wal_fsync_us_sum"), fsyncs),
        ),
        m("store.fsyncs_per_op", "count", ratio(fsyncs, ops)),
        m(
            "store.events_per_fsync",
            "count",
            ratio(delta(passes, "icdb_wal_batch_events_sum"), fsyncs),
        ),
        m(
            "store.wal_bytes_per_op",
            "B",
            ratio(delta(passes, "icdb_wal_flushed_bytes_total"), ops),
        ),
        m(
            "trace.coverage",
            "ratio",
            ratio(r.mirrored_us(), median(&server_per_pass).unwrap_or(0.0)),
        ),
    ]
}

/// Counters that repeat exactly across two single-client passes of one
/// seed: the cache layers, the corpus, the WAL and the per-command
/// request counts. Returns how many were compared and the differences.
///
/// On `explore_sweep` two sweep workers prepare points concurrently, and
/// a `cheapest` and a `fastest` point of one width share their flat and
/// netlist entries; which worker gets there first decides whether the
/// second sees a hit. There the check compares those two layers' lookup
/// totals (hits + misses) instead of the split.
pub fn compare_counts(w: &Workload, a: &Pass, b: &Pass) -> (usize, Vec<String>) {
    let mut names: Vec<String> = vec![
        "icdb_corpus_hits_total".into(),
        "icdb_corpus_misses_total".into(),
        "icdb_corpus_entries".into(),
        "icdb_wal_fsync_us_count".into(),
        "icdb_wal_batch_events_sum".into(),
        "icdb_wal_flushed_bytes_total".into(),
        "icdb_wal_events".into(),
        "icdb_cache_evictions_total{layer=\"result\"}".into(),
        "icdb_cache_hits_total{layer=\"result\"}".into(),
        "icdb_cache_misses_total{layer=\"result\"}".into(),
    ];
    for c in BODY_COMMANDS {
        names.push(format!("icdb_requests_total{{command=\"{c}\"}}"));
    }
    let racy = w.name == "explore_sweep";
    for layer in ["netlist", "flat"] {
        if !racy {
            for counter in ["hits", "misses", "evictions"] {
                names.push(format!("icdb_cache_{counter}_total{{layer=\"{layer}\"}}"));
            }
        }
    }
    let mut differences = Vec::new();
    for name in &names {
        let (x, y) = (a.delta(name), b.delta(name));
        if x != y {
            differences.push(format!("{name}: {x} vs {y}"));
        }
    }
    let mut compared = names.len();
    if racy {
        for layer in ["netlist", "flat"] {
            let lookups = |p: &Pass| {
                p.delta(&format!("icdb_cache_hits_total{{layer=\"{layer}\"}}"))
                    + p.delta(&format!("icdb_cache_misses_total{{layer=\"{layer}\"}}"))
            };
            compared += 1;
            if lookups(a) != lookups(b) {
                differences.push(format!("{layer} lookups: {} vs {}", lookups(a), lookups(b)));
            }
        }
    }
    (compared, differences)
}
