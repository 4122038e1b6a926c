//! Native runtime metrics: wall-clock histograms, counters, gauges and
//! memory high-water marks for the **real** (non-simulated) hot paths.
//!
//! Everything else in this crate records *simulated* time — the
//! [`crate::Tracer`]'s clock only moves when instrumented code advances
//! it by modelled durations. This module is the complementary face: a
//! thread-safe [`MetricsRegistry`] that measures the native pipeline
//! (`knn_search`, `knn_search_streamed_parallel`) with monotonic host
//! wall clock, usable concurrently from rayon workers.
//!
//! Primitives:
//!
//! * **latency histograms** — log2-bucketed over nanoseconds with exact
//!   count/sum/min/max, so p50/p95/p99 can be estimated without storing
//!   samples ([`Histogram`]);
//! * **monotonic counters** — event totals (merge pushes, rejects);
//! * **gauges** — last-written values (configured tile size, QPS);
//! * **peaks** — high-water marks (`record_peak` keeps the max), used
//!   for distance-scratch working-set bytes.
//!
//! [`MetricsRegistry::snapshot`] freezes everything into a plain-data
//! [`MetricsSnapshot`] that serializes to JSON (and parses back — see
//! [`MetricsSnapshot::from_json`]), renders as OpenMetrics text
//! ([`crate::openmetrics::render`]) or as a fixed-width table
//! ([`crate::openmetrics::render_table`]).
//!
//! This file is deliberately the *only* place in the workspace's
//! observability layer that reads host time; `cargo xtask lint` scans it
//! under the `no-wall-clock` rule with a reviewed allowlist entry, while
//! gpu/simt sources stay banned from `Instant` outright.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use serde::{Serialize, Value};

use crate::schema;

/// Version stamped on snapshot JSON (`schema_version`); see
/// [`crate::schema`] for the compatibility rule applied when parsing.
/// 1.1 added the optional `labels` (string-valued runtime config such
/// as `knn.simd_dispatch`) and `timeline` (per-worker
/// [`crate::timeline::TimelineReport`]) sections; 1.0 documents still
/// parse.
pub const SCHEMA_VERSION: &str = "1.1";

/// Number of log2 buckets: bucket `i` counts observations `v` (in ns)
/// with `v <= 2^i`, assigned to the smallest such `i`. 2^63 ns ≈ 292
/// years, so the top bucket is unreachable in practice and doubles as
/// the overflow bucket.
pub const LOG2_BUCKETS: usize = 64;

/// Index of the bucket an observation lands in (see [`LOG2_BUCKETS`]).
#[inline]
fn bucket_index(ns: u64) -> usize {
    if ns <= 1 {
        0
    } else {
        (64 - (ns - 1).leading_zeros() as usize).min(LOG2_BUCKETS - 1)
    }
}

/// Upper bound (inclusive, in ns) of bucket `i`.
#[inline]
fn bucket_le(i: usize) -> u64 {
    1u64 << i
}

/// Log2-bucketed latency histogram over nanoseconds.
///
/// Exact `count`, `sum`, `min` and `max`; the bucket counts allow
/// quantile *estimation* ([`Histogram::quantile_ns`]) with relative
/// error bounded by the bucket width (a factor of 2), tightened by
/// clamping to the observed min/max.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; LOG2_BUCKETS],
    count: u64,
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; LOG2_BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one observation of `ns` nanoseconds.
    pub fn observe(&mut self, ns: u64) {
        self.buckets[bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all observations, ns.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Mean observation, ns (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Smallest observation, ns (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Largest observation, ns.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`), ns: walk the cumulative
    /// bucket counts to the target rank and interpolate linearly inside
    /// the bucket, clamped to the exact observed min/max.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= rank {
                let lo = if i == 0 { 0 } else { bucket_le(i - 1) };
                let hi = bucket_le(i);
                let frac = (rank - cum) as f64 / c as f64;
                let est = lo as f64 + frac * (hi - lo) as f64;
                return est.clamp(self.min_ns as f64, self.max_ns as f64);
            }
            cum += c;
        }
        self.max_ns as f64
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Per-bucket `(le_ns, count)` pairs up to the highest non-empty
    /// bucket (counts are per-bucket, not cumulative).
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        let last = match self.buckets.iter().rposition(|&c| c > 0) {
            Some(i) => i,
            None => return Vec::new(),
        };
        (0..=last)
            .map(|i| (bucket_le(i), self.buckets[i]))
            .collect()
    }
}

#[derive(Default)]
struct Inner {
    hists: BTreeMap<String, Histogram>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    peaks: BTreeMap<String, u64>,
    labels: BTreeMap<String, String>,
}

/// Thread-safe metrics registry.
///
/// All recording methods take `&self`, so one registry can be shared by
/// reference across rayon workers; contention is one short mutex
/// critical section per recorded event (the native pipeline records per
/// query/tile, not per element, so this is far off the hot path).
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned registry only means a worker panicked mid-record;
        // the counts themselves are still coherent u64s.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record `ns` into the named latency histogram.
    pub fn observe_ns(&self, name: &str, ns: u64) {
        self.lock()
            .hists
            .entry(name.to_string())
            .or_default()
            .observe(ns);
    }

    /// Run `f`, recording its monotonic wall-clock duration into the
    /// named histogram.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.observe_ns(name, t0.elapsed().as_nanos() as u64);
        out
    }

    /// Start a scoped timer that records into `name` when dropped.
    pub fn scoped(&self, name: impl Into<String>) -> ScopedTimer<'_> {
        ScopedTimer {
            registry: self,
            name: name.into(),
            t0: Instant::now(),
        }
    }

    /// Bump a monotonic counter by `n`.
    pub fn inc(&self, name: &str, n: u64) {
        if n == 0 {
            return;
        }
        *self.lock().counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Set a gauge to `v` (last write wins).
    pub fn set_gauge(&self, name: &str, v: f64) {
        self.lock().gauges.insert(name.to_string(), v);
    }

    /// Set a string-valued label (last write wins): runtime config a
    /// number can't carry, like the dispatched SIMD kernel name.
    pub fn set_label(&self, name: &str, value: &str) {
        self.lock()
            .labels
            .insert(name.to_string(), value.to_string());
    }

    /// Current value of a label (`None` when never set).
    pub fn label(&self, name: &str) -> Option<String> {
        self.lock().labels.get(name).cloned()
    }

    /// Record a high-water mark: the stored value only ever grows.
    pub fn record_peak(&self, name: &str, v: u64) {
        let mut inner = self.lock();
        let slot = inner.peaks.entry(name.to_string()).or_insert(0);
        *slot = (*slot).max(v);
    }

    /// Current value of a counter (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Current high-water mark of a peak (0 when never recorded).
    pub fn peak(&self, name: &str) -> u64 {
        self.lock().peaks.get(name).copied().unwrap_or(0)
    }

    /// Freeze everything recorded so far into a plain-data snapshot
    /// (with p50/p95/p99 estimated per histogram at snapshot time).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            histograms: inner
                .hists
                .iter()
                .map(|(name, h)| HistogramSnapshot {
                    name: name.clone(),
                    count: h.count(),
                    sum_ns: h.sum_ns(),
                    min_ns: h.min_ns(),
                    max_ns: h.max_ns(),
                    p50_ns: h.quantile_ns(0.50),
                    p95_ns: h.quantile_ns(0.95),
                    p99_ns: h.quantile_ns(0.99),
                    buckets: h.buckets(),
                })
                .collect(),
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            peaks: inner.peaks.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            labels: inner
                .labels
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            timeline: None,
        }
    }
}

/// RAII timer from [`MetricsRegistry::scoped`].
pub struct ScopedTimer<'a> {
    registry: &'a MetricsRegistry,
    name: String,
    t0: Instant,
}

impl Drop for ScopedTimer<'_> {
    fn drop(&mut self) {
        self.registry
            .observe_ns(&self.name, self.t0.elapsed().as_nanos() as u64);
    }
}

/// One histogram, frozen.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    pub sum_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    pub p50_ns: f64,
    pub p95_ns: f64,
    pub p99_ns: f64,
    /// `(le_ns, count)` per-bucket (non-cumulative) counts up to the
    /// highest non-empty bucket.
    pub buckets: Vec<(u64, u64)>,
}

/// Everything a registry recorded, frozen as plain data. Name-sorted
/// (BTreeMap order), so two snapshots of the same activity are equal.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub histograms: Vec<HistogramSnapshot>,
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub peaks: Vec<(String, u64)>,
    /// String-valued runtime config (`knn.simd_dispatch`); empty on
    /// legacy (schema 1.0) documents.
    pub labels: Vec<(String, String)>,
    /// Per-worker execution timeline, attached by `--timeline-out`
    /// runs; `None` (and omitted from JSON) otherwise.
    pub timeline: Option<crate::timeline::TimelineReport>,
}

impl Serialize for HistogramSnapshot {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("count".into(), Value::U64(self.count)),
            ("sum_ns".into(), Value::U64(self.sum_ns)),
            ("min_ns".into(), Value::U64(self.min_ns)),
            ("max_ns".into(), Value::U64(self.max_ns)),
            ("p50_ns".into(), Value::F64(self.p50_ns)),
            ("p95_ns".into(), Value::F64(self.p95_ns)),
            ("p99_ns".into(), Value::F64(self.p99_ns)),
            (
                "buckets".into(),
                Value::Array(
                    self.buckets
                        .iter()
                        .map(|(le, c)| {
                            Value::Object(vec![
                                ("le_ns".into(), Value::U64(*le)),
                                ("count".into(), Value::U64(*c)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn named_u64s(items: &[(String, u64)]) -> Value {
    Value::Object(
        items
            .iter()
            .map(|(k, v)| (k.clone(), Value::U64(*v)))
            .collect(),
    )
}

impl Serialize for MetricsSnapshot {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            (
                "schema_version".into(),
                Value::Str(SCHEMA_VERSION.to_string()),
            ),
            (
                "histograms".into(),
                Value::Array(self.histograms.iter().map(Serialize::to_value).collect()),
            ),
            ("counters".into(), named_u64s(&self.counters)),
            (
                "gauges".into(),
                Value::Object(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::F64(*v)))
                        .collect(),
                ),
            ),
            ("peaks".into(), named_u64s(&self.peaks)),
            (
                "labels".into(),
                Value::Object(
                    self.labels
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                        .collect(),
                ),
            ),
        ];
        if let Some(tl) = &self.timeline {
            fields.push(("timeline".into(), tl.to_value()));
        }
        Value::Object(fields)
    }
}

fn value_u64(v: &Value, what: &str) -> Result<u64, String> {
    v.as_f64()
        .map(|f| f as u64)
        .ok_or_else(|| format!("{what} is not a number"))
}

fn value_entries<'a>(v: Option<&'a Value>, what: &str) -> Result<&'a [(String, Value)], String> {
    match v {
        Some(Value::Object(fields)) => Ok(fields),
        _ => Err(format!("missing or non-object '{what}' field")),
    }
}

impl MetricsSnapshot {
    /// Serialize as a JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("metrics snapshot serialization cannot fail")
    }

    /// Parse a snapshot back from [`MetricsSnapshot::to_json`] output —
    /// the round-trip half used by `benchdiff`-style tooling and the
    /// serialization tests.
    pub fn from_json(text: &str) -> Result<MetricsSnapshot, String> {
        let doc = serde_json::parse_value(text).map_err(|e| e.to_string())?;
        Self::from_value(&doc)
    }

    /// Reconstruct from a parsed [`Value`] tree.
    ///
    /// A missing `schema_version` is accepted as the pre-versioning
    /// legacy format; an unknown major version is rejected.
    pub fn from_value(doc: &Value) -> Result<MetricsSnapshot, String> {
        if let Some(v) = doc.get("schema_version") {
            let found = v
                .as_str()
                .ok_or("'schema_version' must be a string".to_string())?;
            schema::ensure_compatible(found, SCHEMA_VERSION, "metrics snapshot")?;
        }
        let hists = match doc.get("histograms") {
            Some(Value::Array(items)) => items,
            _ => return Err("missing or non-array 'histograms' field".into()),
        };
        let mut histograms = Vec::with_capacity(hists.len());
        for h in hists {
            let name = h
                .get("name")
                .and_then(Value::as_str)
                .ok_or("histogram missing 'name'")?
                .to_string();
            let get = |k: &str| -> Result<u64, String> {
                value_u64(
                    h.get(k).ok_or_else(|| format!("histogram missing '{k}'"))?,
                    k,
                )
            };
            let getf = |k: &str| -> Result<f64, String> {
                h.get(k)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("histogram missing '{k}'"))
            };
            let mut buckets = Vec::new();
            if let Some(Value::Array(bs)) = h.get("buckets") {
                for b in bs {
                    buckets.push((
                        value_u64(b.get("le_ns").ok_or("bucket missing 'le_ns'")?, "le_ns")?,
                        value_u64(b.get("count").ok_or("bucket missing 'count'")?, "count")?,
                    ));
                }
            }
            histograms.push(HistogramSnapshot {
                name,
                count: get("count")?,
                sum_ns: get("sum_ns")?,
                min_ns: get("min_ns")?,
                max_ns: get("max_ns")?,
                p50_ns: getf("p50_ns")?,
                p95_ns: getf("p95_ns")?,
                p99_ns: getf("p99_ns")?,
                buckets,
            });
        }
        let mut counters = Vec::new();
        for (k, v) in value_entries(doc.get("counters"), "counters")? {
            counters.push((k.clone(), value_u64(v, k)?));
        }
        let mut gauges = Vec::new();
        for (k, v) in value_entries(doc.get("gauges"), "gauges")? {
            gauges.push((k.clone(), v.as_f64().ok_or_else(|| format!("gauge {k}"))?));
        }
        let mut peaks = Vec::new();
        for (k, v) in value_entries(doc.get("peaks"), "peaks")? {
            peaks.push((k.clone(), value_u64(v, k)?));
        }
        // `labels` and `timeline` arrived with schema 1.1; absent on
        // legacy documents.
        let mut labels = Vec::new();
        if let Some(Value::Object(fields)) = doc.get("labels") {
            for (k, v) in fields {
                labels.push((
                    k.clone(),
                    v.as_str()
                        .ok_or_else(|| format!("label {k} is not a string"))?
                        .to_string(),
                ));
            }
        }
        let timeline = match doc.get("timeline") {
            Some(t) => Some(crate::timeline::TimelineReport::from_value(t)?),
            None => None,
        };
        Ok(MetricsSnapshot {
            histograms,
            counters,
            gauges,
            peaks,
            labels,
            timeline,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_with_inclusive_upper_bounds() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(1025), 11);
        assert_eq!(bucket_index(u64::MAX), LOG2_BUCKETS - 1);
        for ns in [1u64, 2, 3, 7, 8, 9, 1 << 20, (1 << 20) + 1] {
            let i = bucket_index(ns);
            assert!(ns <= bucket_le(i), "{ns} must be <= its bucket's le");
            if i > 0 {
                assert!(ns > bucket_le(i - 1), "{ns} must exceed the bucket below");
            }
        }
    }

    #[test]
    fn histogram_tracks_exact_count_sum_min_max() {
        let mut h = Histogram::new();
        for ns in [100u64, 200, 400, 800, 1600] {
            h.observe(ns);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum_ns(), 3100);
        assert_eq!(h.min_ns(), 100);
        assert_eq!(h.max_ns(), 1600);
        assert!((h.mean_ns() - 620.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_are_ordered_and_clamped_to_observed_range() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.observe(i * 1000); // 1µs .. 1ms
        }
        let (p50, p95, p99) = (h.quantile_ns(0.5), h.quantile_ns(0.95), h.quantile_ns(0.99));
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(p50 >= h.min_ns() as f64 && p99 <= h.max_ns() as f64);
        // log2 buckets bound the estimate within a factor of 2
        assert!((250_000.0..=1_000_000.0).contains(&p50), "p50 = {p50}");
        // single observation: every quantile is that observation
        let mut one = Histogram::new();
        one.observe(777);
        assert_eq!(one.quantile_ns(0.5), 777.0);
        assert_eq!(one.quantile_ns(0.99), 777.0);
        // empty histogram yields zeros
        assert_eq!(Histogram::new().quantile_ns(0.5), 0.0);
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = Histogram::new();
        a.observe(10);
        a.observe(1000);
        let mut b = Histogram::new();
        b.observe(5);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min_ns(), 5);
        assert_eq!(a.max_ns(), 1000);
        assert_eq!(a.sum_ns(), 1015);
    }

    #[test]
    fn registry_records_all_metric_kinds() {
        let reg = MetricsRegistry::new();
        reg.observe_ns("lat", 1000);
        reg.time("lat", || std::hint::black_box(1 + 1));
        {
            let _t = reg.scoped("lat");
        }
        reg.inc("events", 3);
        reg.inc("events", 0); // no-op
        reg.set_gauge("tile", 4096.0);
        reg.record_peak("bytes", 100);
        reg.record_peak("bytes", 50); // peaks never shrink
        let snap = reg.snapshot();
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].count, 3);
        assert_eq!(snap.counters, vec![("events".to_string(), 3)]);
        assert_eq!(snap.gauges, vec![("tile".to_string(), 4096.0)]);
        assert_eq!(snap.peaks, vec![("bytes".to_string(), 100)]);
        assert_eq!(reg.counter("events"), 3);
        assert_eq!(reg.peak("bytes"), 100);
        assert_eq!(reg.counter("missing"), 0);
    }

    #[test]
    fn registry_is_usable_from_parallel_workers() {
        use rayon::prelude::*;
        let reg = MetricsRegistry::new();
        (0..256usize).into_par_iter().for_each(|i| {
            reg.observe_ns("par.lat", (i as u64 + 1) * 10);
            reg.inc("par.events", 1);
            reg.record_peak("par.peak", i as u64);
        });
        let snap = reg.snapshot();
        assert_eq!(snap.histograms[0].count, 256);
        assert_eq!(reg.counter("par.events"), 256);
        assert_eq!(reg.peak("par.peak"), 255);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let reg = MetricsRegistry::new();
        for ns in [120u64, 450, 9_000, 1_000_000] {
            reg.observe_ns("knn.query.latency_ns", ns);
        }
        reg.inc("knn.stream.merge_push", 42);
        reg.set_gauge("knn.tile", 4096.0);
        reg.record_peak("knn.peak_distance_bytes", 1 << 24);
        let snap = reg.snapshot();
        let json = snap.to_json();
        let back = MetricsSnapshot::from_json(&json).expect("snapshot must parse back");
        assert_eq!(back, snap);
        // malformed documents are named errors, not panics
        assert!(MetricsSnapshot::from_json("{}").is_err());
        assert!(MetricsSnapshot::from_json("not json").is_err());
    }

    #[test]
    fn snapshot_json_is_versioned_and_rejects_unknown_majors() {
        let reg = MetricsRegistry::new();
        reg.observe_ns("lat", 100);
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"schema_version\": \"1.1\""), "{json}");
        // a future major version must fail loudly...
        let future = json.replace("\"schema_version\": \"1.1\"", "\"schema_version\": \"2.0\"");
        let err = MetricsSnapshot::from_json(&future).unwrap_err();
        assert!(err.contains("major version"), "{err}");
        // ...a newer minor and the pre-versioning legacy shape both load
        let minor = json.replace("\"schema_version\": \"1.1\"", "\"schema_version\": \"1.5\"");
        assert!(MetricsSnapshot::from_json(&minor).is_ok());
        let legacy = json.replace("\"schema_version\": \"1.1\",", "");
        assert!(MetricsSnapshot::from_json(&legacy).is_ok());
    }

    #[test]
    fn labels_round_trip_and_legacy_documents_parse_without_them() {
        let reg = MetricsRegistry::new();
        reg.observe_ns("lat", 100);
        reg.set_label("knn.simd_dispatch", "avx2+fma");
        reg.set_label("knn.simd_dispatch", "scalar8"); // last write wins
        assert_eq!(reg.label("knn.simd_dispatch").as_deref(), Some("scalar8"));
        assert_eq!(reg.label("missing"), None);
        let snap = reg.snapshot();
        assert_eq!(
            snap.labels,
            vec![("knn.simd_dispatch".to_string(), "scalar8".to_string())]
        );
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        // a schema-1.0 document (no labels/timeline keys) still parses
        let legacy =
            r#"{"schema_version":"1.0","histograms":[],"counters":{},"gauges":{},"peaks":{}}"#;
        let parsed = MetricsSnapshot::from_json(legacy).unwrap();
        assert!(parsed.labels.is_empty());
        assert!(parsed.timeline.is_none());
    }

    #[test]
    fn timeline_section_round_trips_and_is_omitted_when_absent() {
        let reg = MetricsRegistry::new();
        reg.observe_ns("lat", 100);
        let bare = reg.snapshot();
        assert!(!bare.to_json().contains("\"timeline\""));

        let rec = crate::timeline::TimelineRecorder::new(2);
        rec.block_claimed(0, 0, 10);
        rec.block_finished(0, 0, 90);
        rec.block_claimed(1, 1, 20);
        rec.block_finished(1, 1, 60);
        let mut snap = reg.snapshot();
        snap.timeline = Some(rec.report(100));
        let json = snap.to_json();
        assert!(json.contains("\"timeline\""), "{json}");
        let back = MetricsSnapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
        let tl = back.timeline.unwrap();
        assert_eq!(tl.blocks_total, 2);
        assert_eq!(tl.lanes.len(), 2);
    }

    #[test]
    fn bucket_listing_trims_trailing_zeros_and_covers_count() {
        let mut h = Histogram::new();
        h.observe(3);
        h.observe(1000);
        let buckets = h.buckets();
        assert_eq!(buckets.last().map(|b| b.0), Some(1024));
        let total: u64 = buckets.iter().map(|b| b.1).sum();
        assert_eq!(total, h.count());
        assert!(Histogram::new().buckets().is_empty());
    }
}
