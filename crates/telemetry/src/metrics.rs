//! Atomic metric primitives and the name-keyed registry.
//!
//! Recording is the hot path: [`Counter::add`], [`Gauge::set`] and
//! [`Histogram::record`] on a held handle are relaxed-atomic operations with
//! no locks and no heap traffic. Registration, by-name lookup and rendering
//! take a `Mutex` (lookup scans the registered names) and registration and
//! rendering allocate — none of them runs inside a search loop.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous `f64` value (queue depth, utilization, a BENCH metric).
///
/// The float is stored as its bit pattern in an `AtomicU64`; `add`/`sub` use
/// a compare-and-swap loop, so the gauge stays lock-free under contention.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Add `delta` (negative to subtract) with a CAS loop.
    #[inline]
    pub fn add(&self, delta: f64) {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// Subtract `delta`.
    #[inline]
    pub fn sub(&self, delta: f64) {
        self.add(-delta);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of logarithmic buckets: bucket 0 holds the value 0, bucket `b ≥ 1`
/// holds values in `[2^(b-1), 2^b)`, and the last bucket is open-ended.
const BUCKETS: usize = 64;

/// A log-bucketed histogram of `u64` samples (typically nanoseconds).
///
/// Recording touches three relaxed atomics (bucket, count+sum, max) — no
/// locks, no allocation — so it is safe inside the zero-alloc decision loop.
/// Quantiles are reconstructed from the bucket counts at scrape time with
/// linear interpolation inside the winning bucket; `max` is exact.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0u64; BUCKETS].map(AtomicU64::new),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a sample: 0 for 0, otherwise `floor(log2(v)) + 1`.
#[inline]
fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
}

/// Inclusive value range `[lo, hi]` covered by bucket `index`.
fn bucket_bounds(index: usize) -> (u64, u64) {
    match index {
        0 => (0, 0),
        i if i >= BUCKETS - 1 => (1u64 << (BUCKETS - 2), u64::MAX),
        i => (1u64 << (i - 1), (1u64 << i) - 1),
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample. Lock-free and allocation-free.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (exact), or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Estimated value at quantile `q ∈ [0, 1]`, interpolated within the
    /// bucket containing the target rank. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based: quantile q covers the first
        // ceil(q * count) samples in sorted order.
        let rank = ((q * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, bucket) in self.buckets.iter().enumerate() {
            let here = bucket.load(Ordering::Relaxed);
            if here == 0 {
                continue;
            }
            if seen + here >= rank {
                let (lo, hi) = bucket_bounds(index);
                // Cap the open top bucket at the observed maximum so the
                // estimate never exceeds any recorded sample.
                let hi = hi.min(self.max());
                let within = (rank - seen) as f64 / here as f64;
                return lo + ((hi.saturating_sub(lo)) as f64 * within) as u64;
            }
            seen += here;
        }
        self.max()
    }

    /// A consistent point-in-time summary of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// Scrape-time summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Exact maximum sample.
    pub max: u64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

/// One named metric in the registry.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A scrape-time value of one named metric, as exposed by
/// [`MetricsRegistry::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter reading.
    Counter(u64),
    /// A gauge reading.
    Gauge(f64),
    /// A histogram summary.
    Histogram(HistogramSnapshot),
}

/// Name-keyed registry of counters, gauges and histograms.
///
/// `counter`/`gauge`/`histogram` get-or-create: the first call for a name
/// allocates the metric, later calls return the same handle. Asking for an
/// existing name with a different kind is a programming error and panics.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<Vec<(String, Metric)>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        if let Some((_, metric)) = metrics.iter().find(|(n, _)| n == name) {
            return metric.clone();
        }
        let metric = make();
        metrics.push((name.to_string(), metric.clone()));
        metric
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_insert(name, || Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.get_or_insert(name, || Metric::Histogram(Arc::new(Histogram::new()))) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// All registered metrics with their current values, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let mut out: Vec<(String, MetricValue)> = self
            .metrics
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), value)
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Prometheus-style text exposition: `# TYPE` lines followed by samples;
    /// histograms render as summaries with `quantile` labels plus `_count`
    /// and `_sum` samples, and the observed maximum as a separately-typed
    /// `_max` gauge.
    ///
    /// A summary family consists of exactly `name{quantile=…}`, `name_count`
    /// and `name_sum`; strict scrapers reject any other sample under its
    /// `# TYPE` declaration, so `_max` — which is not part of the summary
    /// vocabulary — gets its own `# TYPE … gauge` line instead of riding
    /// untyped inside the summary block.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.snapshot() {
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", render_f64(v)));
                }
                MetricValue::Histogram(s) => {
                    out.push_str(&format!("# TYPE {name} summary\n"));
                    out.push_str(&format!("{name}{{quantile=\"0.5\"}} {}\n", s.p50));
                    out.push_str(&format!("{name}{{quantile=\"0.9\"}} {}\n", s.p90));
                    out.push_str(&format!("{name}{{quantile=\"0.99\"}} {}\n", s.p99));
                    out.push_str(&format!("{name}_count {}\n", s.count));
                    out.push_str(&format!("{name}_sum {}\n", s.sum));
                    out.push_str(&format!("# TYPE {name}_max gauge\n{name}_max {}\n", s.max));
                }
            }
        }
        out
    }

    /// Flat JSON object exposition: one `"name": value` pair per metric,
    /// histograms flattened to `name_count` / `name_sum` / `name_p50` /
    /// `name_p90` / `name_p99` / `name_max` pairs.
    pub fn render_json(&self) -> String {
        let mut pairs: Vec<(String, String)> = Vec::new();
        for (name, value) in self.snapshot() {
            match value {
                MetricValue::Counter(v) => pairs.push((name, v.to_string())),
                MetricValue::Gauge(v) => pairs.push((name, render_f64(v))),
                MetricValue::Histogram(s) => {
                    pairs.push((format!("{name}_count"), s.count.to_string()));
                    pairs.push((format!("{name}_sum"), s.sum.to_string()));
                    pairs.push((format!("{name}_p50"), s.p50.to_string()));
                    pairs.push((format!("{name}_p90"), s.p90.to_string()));
                    pairs.push((format!("{name}_p99"), s.p99.to_string()));
                    pairs.push((format!("{name}_max"), s.max.to_string()));
                }
            }
        }
        let mut out = String::from("{\n");
        for (i, (name, value)) in pairs.iter().enumerate() {
            let comma = if i + 1 < pairs.len() { "," } else { "" };
            out.push_str(&format!("  \"{name}\": {value}{comma}\n"));
        }
        out.push('}');
        out
    }
}

/// JSON-safe float rendering: non-finite values (which valid JSON cannot
/// carry) degrade to 0.
fn render_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v == v.trunc() && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(2.5);
        g.add(1.0);
        g.sub(0.5);
        assert!((g.get() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Bounds are inclusive and partition the u64 range.
        for index in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(index);
            assert!(lo <= hi, "bucket {index}");
            assert_eq!(bucket_index(lo), index);
            assert_eq!(bucket_index(hi), index);
        }
        assert_eq!(bucket_bounds(1), (1, 1));
        assert_eq!(bucket_bounds(4), (8, 15));
        assert_eq!(bucket_bounds(BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn quantiles_on_a_known_distribution() {
        let h = Histogram::new();
        // 100 samples: 1..=100. Log buckets blur within a bucket, but the
        // interpolated estimate must stay within the bucket of the true
        // quantile: p50 in [32,64), p90 in [64,128), p99 in [64,128).
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        let p50 = h.quantile(0.50);
        assert!((32..=63).contains(&p50), "p50 = {p50}");
        let p90 = h.quantile(0.90);
        assert!((64..=100).contains(&p90), "p90 = {p90}");
        let p99 = h.quantile(0.99);
        assert!((64..=100).contains(&p99), "p99 = {p99}");
        // The top bucket is capped at the observed max.
        assert!(h.quantile(1.0) <= 100);
        // Degenerate cases.
        let empty = Histogram::new();
        assert_eq!(empty.quantile(0.5), 0);
        let single = Histogram::new();
        single.record(777);
        assert_eq!(single.max(), 777);
        assert!(single.quantile(0.5) >= 512 && single.quantile(0.5) <= 777);
    }

    #[test]
    fn quantile_rank_is_one_based() {
        let h = Histogram::new();
        h.record(0);
        h.record(1_000_000);
        // The median of {0, big} must come from the first sample's bucket.
        assert_eq!(h.quantile(0.5), 0);
        assert!(h.quantile(1.0) > 0);
    }

    #[test]
    fn registry_dedupes_and_renders() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("requests_total");
        let b = registry.counter("requests_total");
        a.inc();
        b.inc();
        assert_eq!(registry.counter("requests_total").get(), 2);
        registry.gauge("queue_depth").set(3.0);
        registry.histogram("wall_ns").record(1024);

        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE requests_total counter"));
        assert!(text.contains("requests_total 2"));
        assert!(text.contains("# TYPE queue_depth gauge"));
        assert!(text.contains("queue_depth 3"));
        assert!(text.contains("# TYPE wall_ns summary"));
        assert!(text.contains("wall_ns{quantile=\"0.5\"}"));
        assert!(text.contains("wall_ns_count 1"));
        assert!(text.contains("wall_ns_sum 1024"));
        assert!(text.contains("# TYPE wall_ns_max gauge"));
        assert!(text.contains("wall_ns_max 1024"));

        let json = registry.render_json();
        assert!(json.contains("\"requests_total\": 2"));
        assert!(json.contains("\"queue_depth\": 3"));
        assert!(json.contains("\"wall_ns_count\": 1"));
        assert!(json.contains("\"wall_ns_max\": 1024"));
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let registry = MetricsRegistry::new();
        registry.counter("x");
        registry.gauge("x");
    }

    /// What a strict scraper enforces: every sample belongs to a declared
    /// family, and a summary family carries only `name{quantile=…}`,
    /// `name_count` and `name_sum` samples. The `_max` sample must therefore
    /// arrive as its own typed gauge, never untyped inside the summary.
    #[test]
    fn prometheus_exposition_is_strictly_scrape_valid() {
        let registry = MetricsRegistry::new();
        registry.counter("jobs_total").add(3);
        registry.gauge("depth").set(1.0);
        registry.histogram("wall_ns").record(100);
        registry.histogram("wall_ns").record(900);

        let mut declared: std::collections::HashMap<String, String> =
            std::collections::HashMap::new();
        for line in registry.render_prometheus().lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().expect("type line has a name");
                let kind = parts.next().expect("type line has a kind");
                assert!(parts.next().is_none(), "malformed TYPE line: {line}");
                declared.insert(name.to_string(), kind.to_string());
                continue;
            }
            let mut parts = line.split_whitespace();
            let sample = parts.next().expect("sample line has a name");
            let value = parts.next().expect("sample line has a value");
            assert!(parts.next().is_none(), "malformed sample line: {line}");
            assert!(value.parse::<f64>().is_ok(), "non-numeric value: {line}");
            let bare = sample.split('{').next().expect("sample name");
            let family = declared
                .iter()
                .find_map(|(name, kind)| {
                    let member = match kind.as_str() {
                        "summary" => {
                            bare == name
                                || bare == format!("{name}_count")
                                || bare == format!("{name}_sum")
                        }
                        _ => bare == name,
                    };
                    member.then_some(kind.as_str())
                })
                .unwrap_or_else(|| panic!("sample {sample} has no TYPE declaration"));
            if sample.contains("{quantile=") {
                assert_eq!(family, "summary", "quantile sample outside a summary");
            }
        }
        assert_eq!(declared.get("wall_ns").map(String::as_str), Some("summary"));
        assert_eq!(
            declared.get("wall_ns_max").map(String::as_str),
            Some("gauge")
        );
    }

    #[test]
    fn json_rendering_is_flat_and_sorted() {
        let registry = MetricsRegistry::new();
        registry.counter("b_total").inc();
        registry.gauge("a_ratio").set(0.25);
        let json = registry.render_json();
        let a = json.find("\"a_ratio\"").unwrap();
        let b = json.find("\"b_total\"").unwrap();
        assert!(a < b, "snapshot must sort by name");
        assert!(json.contains("\"a_ratio\": 0.25"));
    }
}
