//! # icdb-obs — observability for the ICDB serving layer
//!
//! A metrics + logging crate, consistent with the workspace's
//! vendored-shims policy: nothing here needs crates.io. Its one
//! dependency, `icdb-cql`, supplies the request-verb table the
//! per-command counters are sized and labelled from.
//!
//! Two halves:
//!
//! * [`metrics`] — a process-global registry of atomic counters, gauges
//!   and fixed power-of-two-bucket latency histograms (p50/p95/p99
//!   derivable), scraped with [`metrics::gather`] and rendered with
//!   [`metrics::render_prometheus`]. Recording is one or two relaxed
//!   `fetch_add`s, cheap enough to stay compiled into release builds.
//! * [`log`] — a leveled structured logger (`--log-level`,
//!   `--log-format text|json`) writing one line per event to stderr,
//!   with typed `key=value` field pairs.
//!
//! The serving layer (`icdbd`) exposes the registry two ways: a
//! read-only `metrics` CQL command and a `--metrics-addr` HTTP/1.0
//! listener in Prometheus text exposition format. Both render from the
//! same sample list, so they cannot drift.

pub mod log;
pub mod metrics;

pub use metrics::{gather, render_prometheus, Counter, Gauge, Histogram, Sample, SampleValue};
