//! Global metrics registry: lock-free counters, gauges and fixed-bucket
//! latency histograms, plus Prometheus text exposition (format 0.0.4).
//!
//! Everything here is a process-global static backed by `AtomicU64` with
//! `Relaxed` ordering — recording a sample is one or two `fetch_add`s, so
//! instrumentation stays cheap enough to leave compiled into release
//! builds (the same bar the storage layer's failpoints meet). Scraping
//! ([`gather`]) walks the statics and materialises owned [`Sample`]s; the
//! serving layer appends its own derived samples (cache mirror, persist
//! snapshot) before rendering so the `metrics` CQL command and the HTTP
//! `/metrics` endpoint agree by construction.

use icdb_cql::COMMANDS;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero (usable in statics).
    #[must_use]
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// A gauge: a value that can move both ways.
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge starting at zero (usable in statics).
    #[must_use]
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one, saturating at zero (a racy double-decrement must not
    /// wrap a connection gauge to 2^64).
    pub fn dec(&self) {
        let mut cur = self.0.load(Ordering::Relaxed);
        while cur > 0 {
            match self
                .0
                .compare_exchange_weak(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

/// Upper bounds (inclusive, in the histogram's native unit — microseconds
/// for latencies) of the fixed power-of-two buckets: 1, 2, 4, … 2^27
/// (~134 s). One extra overflow bucket catches everything above.
pub const BUCKET_BOUNDS: [u64; 28] = {
    let mut b = [0u64; 28];
    let mut i = 0;
    while i < 28 {
        b[i] = 1u64 << i;
        i += 1;
    }
    b
};

const NUM_BUCKETS: usize = BUCKET_BOUNDS.len() + 1;

/// Index of the bucket a value lands in: `ceil(log2(v))` clamped to the
/// overflow bucket. `0` and `1` share bucket 0 (`le="1"`).
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        let idx = 64 - (v - 1).leading_zeros() as usize;
        idx.min(NUM_BUCKETS - 1)
    }
}

/// A fixed-bucket histogram; recording is two relaxed `fetch_add`s.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
}

impl Histogram {
    /// An empty histogram (usable in statics).
    #[must_use]
    pub const fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A point-in-time copy; all derived statistics (count, percentiles)
    /// come from the same snapshot so they are mutually consistent.
    #[must_use]
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time histogram copy with derivable statistics.
#[derive(Debug, Clone, Copy)]
pub struct HistSnapshot {
    /// Per-bucket observation counts (last entry is the overflow bucket).
    pub buckets: [u64; NUM_BUCKETS],
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistSnapshot {
    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The `q`-quantile (`0.0..=1.0`), linearly interpolated inside the
    /// bucket the target rank falls in. Returns `0.0` for an empty
    /// histogram; observations in the overflow bucket report the last
    /// finite bound.
    #[must_use]
    pub fn percentile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            #[allow(clippy::cast_precision_loss)]
            let cum_after = (cum + n) as f64;
            if n > 0 && cum_after >= rank {
                if i >= BUCKET_BOUNDS.len() {
                    // Overflow bucket has no finite upper bound.
                    #[allow(clippy::cast_precision_loss)]
                    return BUCKET_BOUNDS[BUCKET_BOUNDS.len() - 1] as f64;
                }
                #[allow(clippy::cast_precision_loss)]
                let lower = if i == 0 {
                    0.0
                } else {
                    BUCKET_BOUNDS[i - 1] as f64
                };
                #[allow(clippy::cast_precision_loss)]
                let upper = BUCKET_BOUNDS[i] as f64;
                #[allow(clippy::cast_precision_loss)]
                let frac = (rank - cum as f64) / n as f64;
                return lower + (upper - lower) * frac.clamp(0.0, 1.0);
            }
            cum += n;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            BUCKET_BOUNDS[BUCKET_BOUNDS.len() - 1] as f64
        }
    }
}

// ---------------------------------------------------------------------------
// The registry: every metric the serving layer records, as named statics.
// ---------------------------------------------------------------------------

/// Per-command metric slots: one per row of the request-verb table
/// ([`icdb_cql::COMMANDS`]), in table order, plus a trailing `other` slot
/// for unknown verbs and requests that never parsed.
pub const COMMAND_SLOTS: usize = COMMANDS.len() + 1;

/// Slot for a command name (linear scan — the table is short and the
/// strings are mostly length-distinct, so this is a handful of compares).
#[must_use]
pub fn command_index(name: &str) -> usize {
    COMMANDS
        .iter()
        .position(|c| c.name == name)
        .unwrap_or(COMMANDS.len())
}

/// The `command=` label of a slot.
#[must_use]
pub fn command_label(slot: usize) -> &'static str {
    COMMANDS.get(slot).map_or("other", |c| c.name)
}

/// Wire error codes tracked by [`ERRORS`] (mirrors the server's
/// `ErrCode` rendering).
pub const ERROR_CODES: &[&str] = &["capacity", "parse", "cql", "readonly", "not_primary"];

/// Slot for a wire error code string; unknown codes fold into the last
/// slot (rendered as `other`).
#[must_use]
pub fn error_index(code: &str) -> usize {
    ERROR_CODES
        .iter()
        .position(|c| *c == code)
        .unwrap_or(ERROR_CODES.len())
}

/// Per-command request counters (`icdb_requests_total{command=…}`).
pub static REQUESTS: [Counter; COMMAND_SLOTS] = [const { Counter::new() }; COMMAND_SLOTS];
/// Per-command request latency in µs (`icdb_request_latency_us{command=…}`).
pub static REQUEST_LATENCY_US: [Histogram; COMMAND_SLOTS] =
    [const { Histogram::new() }; COMMAND_SLOTS];
/// Per-error-code counters (`icdb_request_errors_total{code=…}`; one
/// extra slot for unknown codes).
pub static ERRORS: [Counter; ERROR_CODES.len() + 1] =
    [const { Counter::new() }; ERROR_CODES.len() + 1];
/// Requests slower than the slow-query threshold.
pub static SLOW_QUERIES: Counter = Counter::new();

/// Currently open client connections.
pub static CONNECTIONS: Gauge = Gauge::new();
/// Connections accepted since boot.
pub static CONNECTIONS_ACCEPTED: Counter = Counter::new();
/// Connections dropped because the per-connection write buffer crossed
/// its high-water mark.
pub static WRITE_HIGHWATER_DROPS: Counter = Counter::new();
/// Connections reaped by the idle-timeout sweep.
pub static IDLE_TIMEOUT_KILLS: Counter = Counter::new();
/// Time spent blocked in `epoll_wait`, µs per wakeup.
pub static EPOLL_WAIT_US: Histogram = Histogram::new();

/// Events per group-commit flush batch.
pub static WAL_BATCH_EVENTS: Histogram = Histogram::new();
/// fsync latency per group-commit flush, µs.
pub static WAL_FSYNC_US: Histogram = Histogram::new();
/// WAL bytes flushed since boot.
pub static WAL_FLUSHED_BYTES: Counter = Counter::new();
/// 1 while the write path is latched into read-only degraded mode.
pub static WAL_DEGRADED: Gauge = Gauge::new();

/// Follower: last replicated sequence applied locally.
pub static REPL_APPLIED_SEQ: Gauge = Gauge::new();
/// Follower: events the primary is known to be ahead by.
pub static REPL_LAG_EVENTS: Gauge = Gauge::new();
/// Follower: upstream reconnect attempts since boot.
pub static REPL_RECONNECTS: Counter = Counter::new();

static TRACE_ID: AtomicU64 = AtomicU64::new(0);
static SLOW_QUERY_THRESHOLD_MS: AtomicU64 = AtomicU64::new(100);

/// Next request trace id (a cheap process-wide sequence, starting at 1).
#[must_use]
pub fn next_trace_id() -> u64 {
    TRACE_ID.fetch_add(1, Ordering::Relaxed) + 1
}

/// The slow-query threshold in milliseconds (`--slow-query-ms`).
#[must_use]
pub fn slow_query_threshold_ms() -> u64 {
    SLOW_QUERY_THRESHOLD_MS.load(Ordering::Relaxed)
}

/// Overrides the slow-query threshold (0 disables slow-query logging).
pub fn set_slow_query_threshold_ms(ms: u64) {
    SLOW_QUERY_THRESHOLD_MS.store(ms, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Samples + exposition.
// ---------------------------------------------------------------------------

/// A scraped metric value, typed so the CQL surface can answer with
/// `Int` vs `Real` rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SampleValue {
    /// An integral sample (counters, gauges, bucket counts).
    Int(u64),
    /// A floating-point sample (ratios, percentiles).
    Float(f64),
}

impl SampleValue {
    /// The value as `f64` regardless of variant.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        match self {
            #[allow(clippy::cast_precision_loss)]
            Self::Int(v) => v as f64,
            Self::Float(v) => v,
        }
    }
}

/// One exposition line: `name{labels} value`, plus the family metadata
/// needed to emit `# HELP` / `# TYPE` headers.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Full sample name (`icdb_request_latency_us_bucket`, …).
    pub name: String,
    /// The family the sample belongs to, for HELP/TYPE grouping
    /// (`icdb_request_latency_us` for its `_bucket`/`_sum`/`_count`;
    /// owned for derived families built at scrape time).
    pub family: Cow<'static, str>,
    /// Prometheus metric type of the family.
    pub kind: &'static str,
    /// One-line family description.
    pub help: Cow<'static, str>,
    /// Rendered label pairs without braces (`command="persist",le="2"`),
    /// empty for label-less samples.
    pub labels: String,
    /// The value.
    pub value: SampleValue,
}

impl Sample {
    /// A label-less integer sample.
    #[must_use]
    pub fn int(family: &'static str, kind: &'static str, help: &'static str, v: u64) -> Self {
        Self {
            name: family.to_string(),
            family: Cow::Borrowed(family),
            kind,
            help: Cow::Borrowed(help),
            labels: String::new(),
            value: SampleValue::Int(v),
        }
    }

    /// A label-less float sample.
    #[must_use]
    pub fn float(family: &'static str, kind: &'static str, help: &'static str, v: f64) -> Self {
        Self {
            name: family.to_string(),
            family: Cow::Borrowed(family),
            kind,
            help: Cow::Borrowed(help),
            labels: String::new(),
            value: SampleValue::Float(v),
        }
    }

    /// The sample rendered as one exposition line.
    #[must_use]
    pub fn render(&self) -> String {
        let value = match self.value {
            SampleValue::Int(v) => v.to_string(),
            SampleValue::Float(v) => format_f64(v),
        };
        if self.labels.is_empty() {
            format!("{} {value}", self.name)
        } else {
            format!("{}{{{}}} {value}", self.name, self.labels)
        }
    }

    /// The sample's identity as it appears on the wire (`name` or
    /// `name{labels}`) — what the `metrics` CQL command matches pending
    /// keys against.
    #[must_use]
    pub fn key(&self) -> String {
        if self.labels.is_empty() {
            self.name.clone()
        } else {
            format!("{}{{{}}}", self.name, self.labels)
        }
    }
}

fn format_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Appends the full exposition of one histogram family: cumulative
/// `_bucket{le=…}` lines, `_sum`, `_count`, and derived `_p50`/`_p95`/
/// `_p99` gauges. Each percentile is its own gauge *family*
/// (`{family}_p50`, …) with its own HELP/TYPE header — strict
/// OpenMetrics parsers reject unexpected suffixed series inside a
/// histogram block.
pub fn push_histogram(
    out: &mut Vec<Sample>,
    family: &'static str,
    help: &'static str,
    labels: &str,
    snap: &HistSnapshot,
) {
    let join = |extra: String| {
        if labels.is_empty() {
            extra
        } else if extra.is_empty() {
            labels.to_string()
        } else {
            format!("{labels},{extra}")
        }
    };
    let mut cum = 0u64;
    for (i, &n) in snap.buckets.iter().enumerate() {
        cum += n;
        let le = if i < BUCKET_BOUNDS.len() {
            BUCKET_BOUNDS[i].to_string()
        } else {
            "+Inf".to_string()
        };
        out.push(Sample {
            name: format!("{family}_bucket"),
            family: Cow::Borrowed(family),
            kind: "histogram",
            help: Cow::Borrowed(help),
            labels: join(format!("le=\"{le}\"")),
            value: SampleValue::Int(cum),
        });
    }
    out.push(Sample {
        name: format!("{family}_sum"),
        family: Cow::Borrowed(family),
        kind: "histogram",
        help: Cow::Borrowed(help),
        labels: labels.to_string(),
        value: SampleValue::Int(snap.sum),
    });
    out.push(Sample {
        name: format!("{family}_count"),
        family: Cow::Borrowed(family),
        kind: "histogram",
        help: Cow::Borrowed(help),
        labels: labels.to_string(),
        value: SampleValue::Int(snap.count()),
    });
    for (suffix, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
        let name = format!("{family}_{suffix}");
        out.push(Sample {
            family: Cow::Owned(name.clone()),
            name,
            kind: "gauge",
            help: Cow::Owned(format!("Derived {suffix} of {family}")),
            labels: labels.to_string(),
            value: SampleValue::Float(snap.percentile(q)),
        });
    }
}

/// Scrapes every registry-owned metric into samples. Per-command and
/// per-error families with zero traffic are skipped to keep the
/// exposition readable; everything else always appears.
#[must_use]
pub fn gather() -> Vec<Sample> {
    let mut out = Vec::with_capacity(256);
    for (i, requests) in REQUESTS.iter().enumerate() {
        let n = requests.get();
        if n == 0 {
            continue;
        }
        let labels = format!("command=\"{}\"", command_label(i));
        out.push(Sample {
            name: "icdb_requests_total".to_string(),
            family: Cow::Borrowed("icdb_requests_total"),
            kind: "counter",
            help: Cow::Borrowed("Requests dispatched, by command"),
            labels: labels.clone(),
            value: SampleValue::Int(n),
        });
        push_histogram(
            &mut out,
            "icdb_request_latency_us",
            "Request dispatch latency in microseconds, by command",
            &labels,
            &REQUEST_LATENCY_US[i].snapshot(),
        );
    }
    for (i, err) in ERRORS.iter().enumerate() {
        let n = err.get();
        if n == 0 {
            continue;
        }
        let code = ERROR_CODES.get(i).copied().unwrap_or("other");
        out.push(Sample {
            name: "icdb_request_errors_total".to_string(),
            family: Cow::Borrowed("icdb_request_errors_total"),
            kind: "counter",
            help: Cow::Borrowed("Requests answered with an ERR line, by code"),
            labels: format!("code=\"{code}\""),
            value: SampleValue::Int(n),
        });
    }
    out.push(Sample::int(
        "icdb_slow_queries_total",
        "counter",
        "Requests slower than the --slow-query-ms threshold",
        SLOW_QUERIES.get(),
    ));
    out.push(Sample::int(
        "icdb_connections",
        "gauge",
        "Currently open client connections",
        CONNECTIONS.get(),
    ));
    out.push(Sample::int(
        "icdb_connections_accepted_total",
        "counter",
        "Client connections accepted since boot",
        CONNECTIONS_ACCEPTED.get(),
    ));
    out.push(Sample::int(
        "icdb_write_highwater_drops_total",
        "counter",
        "Connections dropped at the write-buffer high-water mark",
        WRITE_HIGHWATER_DROPS.get(),
    ));
    out.push(Sample::int(
        "icdb_idle_timeout_kills_total",
        "counter",
        "Connections reaped by the idle-timeout sweep",
        IDLE_TIMEOUT_KILLS.get(),
    ));
    push_histogram(
        &mut out,
        "icdb_epoll_wait_us",
        "Time blocked in epoll_wait per wakeup, microseconds",
        "",
        &EPOLL_WAIT_US.snapshot(),
    );
    push_histogram(
        &mut out,
        "icdb_wal_batch_events",
        "Events per group-commit flush batch",
        "",
        &WAL_BATCH_EVENTS.snapshot(),
    );
    push_histogram(
        &mut out,
        "icdb_wal_fsync_us",
        "fsync latency per group-commit flush, microseconds",
        "",
        &WAL_FSYNC_US.snapshot(),
    );
    out.push(Sample::int(
        "icdb_wal_flushed_bytes_total",
        "counter",
        "WAL bytes flushed since boot",
        WAL_FLUSHED_BYTES.get(),
    ));
    out.push(Sample::int(
        "icdb_wal_degraded",
        "gauge",
        "1 while the write path is latched read-only by a WAL fault",
        WAL_DEGRADED.get(),
    ));
    out.push(Sample::int(
        "icdb_repl_applied_seq",
        "gauge",
        "Follower: last replicated sequence applied locally",
        REPL_APPLIED_SEQ.get(),
    ));
    out.push(Sample::int(
        "icdb_repl_lag_events",
        "gauge",
        "Follower: events behind the primary's durable sequence",
        REPL_LAG_EVENTS.get(),
    ));
    out.push(Sample::int(
        "icdb_repl_reconnects_total",
        "counter",
        "Follower: upstream reconnect attempts since boot",
        REPL_RECONNECTS.get(),
    ));
    out
}

/// Renders samples in Prometheus text exposition format 0.0.4, emitting
/// `# HELP` / `# TYPE` headers the first time each family appears.
#[must_use]
pub fn render_prometheus(samples: &[Sample]) -> String {
    let mut out = String::with_capacity(samples.len() * 48);
    let mut seen: Vec<&str> = Vec::new();
    for s in samples {
        if !seen.contains(&s.family.as_ref()) {
            seen.push(s.family.as_ref());
            out.push_str("# HELP ");
            out.push_str(&s.family);
            out.push(' ');
            out.push_str(&s.help);
            out.push_str("\n# TYPE ");
            out.push_str(&s.family);
            out.push(' ');
            out.push_str(s.kind);
            out.push('\n');
        }
        out.push_str(&s.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_ceil_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 27), 27);
        assert_eq!(bucket_index((1 << 27) + 1), NUM_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn every_bound_lands_in_its_own_bucket() {
        for (i, &b) in BUCKET_BOUNDS.iter().enumerate() {
            assert_eq!(bucket_index(b), i, "bound {b} should be inclusive");
            if b > 1 {
                assert_eq!(bucket_index(b + 1), i + 1, "just above {b}");
            }
        }
    }

    #[test]
    fn empty_histogram_percentiles_are_zero() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.percentile(0.5), 0.0);
        assert_eq!(s.percentile(0.99), 0.0);
    }

    #[test]
    fn percentiles_bracket_recorded_values() {
        let h = Histogram::new();
        // 90 fast observations at ~100µs, 10 slow at ~50ms.
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(50_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.sum, 90 * 100 + 10 * 50_000);
        let p50 = s.percentile(0.50);
        assert!((64.0..=128.0).contains(&p50), "p50 = {p50}");
        let p99 = s.percentile(0.99);
        assert!(
            (32_768.0..=65_536.0).contains(&p99),
            "p99 = {p99} should land in the 50ms bucket"
        );
        // Percentiles are monotone in q.
        assert!(s.percentile(0.95) <= p99 + f64::EPSILON);
        assert!(p50 <= s.percentile(0.95));
    }

    #[test]
    fn percentile_interpolates_within_a_bucket() {
        let h = Histogram::new();
        // All mass in the (512, 1024] bucket.
        for _ in 0..100 {
            h.record(1000);
        }
        let s = h.snapshot();
        let p10 = s.percentile(0.10);
        let p90 = s.percentile(0.90);
        assert!(p10 >= 512.0 && p90 <= 1024.0, "p10={p10} p90={p90}");
        assert!(p10 < p90, "interpolation should spread inside the bucket");
    }

    #[test]
    fn overflow_bucket_reports_last_finite_bound() {
        let h = Histogram::new();
        h.record(u64::MAX / 2);
        let s = h.snapshot();
        #[allow(clippy::cast_precision_loss)]
        let top = BUCKET_BOUNDS[BUCKET_BOUNDS.len() - 1] as f64;
        assert_eq!(s.percentile(0.5), top);
    }

    #[test]
    fn command_index_interns_and_folds_unknown() {
        assert_eq!(command_label(command_index("persist")), "persist");
        assert_eq!(command_label(command_index("metrics")), "metrics");
        assert_eq!(command_label(command_index("no_such_cmd")), "other");
        assert_eq!(ERROR_CODES[error_index("readonly")], "readonly");
        assert_eq!(error_index("weird"), ERROR_CODES.len());
    }

    #[test]
    fn histogram_exposition_is_cumulative_and_ends_at_inf() {
        let h = Histogram::new();
        h.record(3);
        h.record(300);
        let mut out = Vec::new();
        push_histogram(&mut out, "t_us", "test", "command=\"x\"", &h.snapshot());
        let buckets: Vec<&Sample> = out.iter().filter(|s| s.name == "t_us_bucket").collect();
        assert_eq!(buckets.len(), NUM_BUCKETS);
        let mut last = 0;
        for b in &buckets {
            let SampleValue::Int(v) = b.value else {
                panic!("bucket counts are integral")
            };
            assert!(v >= last, "cumulative");
            last = v;
        }
        assert_eq!(last, 2);
        assert!(buckets.last().unwrap().labels.contains("le=\"+Inf\""));
        assert!(buckets[0].labels.starts_with("command=\"x\","));
        // Percentiles are their own gauge families, not extra series
        // inside the histogram block.
        let p99 = out.iter().find(|s| s.name == "t_us_p99").expect("p99");
        assert_eq!(p99.kind, "gauge");
        assert_eq!(p99.family, "t_us_p99");
    }

    #[test]
    fn render_emits_help_and_type_once_per_family() {
        let samples = vec![
            Sample::int("icdb_x_total", "counter", "x things", 4),
            Sample {
                labels: "a=\"b\"".into(),
                ..Sample::int("icdb_x_total", "counter", "x things", 7)
            },
        ];
        let text = render_prometheus(&samples);
        assert_eq!(text.matches("# HELP icdb_x_total").count(), 1);
        assert_eq!(text.matches("# TYPE icdb_x_total counter").count(), 1);
        assert!(text.contains("icdb_x_total 4\n"));
        assert!(text.contains("icdb_x_total{a=\"b\"} 7\n"));
    }

    #[test]
    fn gauge_dec_saturates_at_zero() {
        let g = Gauge::new();
        g.dec();
        assert_eq!(g.get(), 0);
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
    }
}
