//! A lightweight metrics registry.
//!
//! Three metric kinds — monotone counters, free-standing gauges, and
//! fixed-bin histograms (backed by [`tempriv_sim::stats::Histogram`]) —
//! registered by name and updated through cheap index handles. A
//! [`MetricsRegistry::snapshot`] freezes the current values into a
//! serializable [`TelemetrySnapshot`] exportable as canonical JSON or the
//! Prometheus text exposition format.
//!
//! Metric names may carry Prometheus-style labels inline, e.g.
//! `tempriv_node_occupancy_mean{node="3"}`; the exposition writer splits
//! the base name off at the first `{` when emitting `# TYPE` headers so a
//! labeled family is declared once.

use serde::{Deserialize, Serialize};
use tempriv_sim::stats::Histogram;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

struct Counter {
    name: String,
    help: String,
    value: u64,
}

struct Gauge {
    name: String,
    help: String,
    value: f64,
}

struct HistogramMetric {
    name: String,
    help: String,
    hist: Histogram,
    sum: f64,
}

/// A registry of named metrics with cheap index handles.
///
/// Registration returns a typed id; updates go through the id so the hot
/// path never hashes a name. The registry is single-threaded by design —
/// each simulation job owns its own and snapshots are merged afterwards.
///
/// # Examples
///
/// ```
/// use tempriv_telemetry::MetricsRegistry;
///
/// let mut reg = MetricsRegistry::new();
/// let drops = reg.counter("tempriv_drops_total", "packets dropped");
/// reg.inc(drops, 3);
/// let snap = reg.snapshot();
/// assert_eq!(snap.counters[0].value, 3);
/// assert!(snap.to_prometheus().contains("tempriv_drops_total 3"));
/// ```
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Vec<Counter>,
    gauges: Vec<Gauge>,
    histograms: Vec<HistogramMetric>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers a monotone counter starting at zero.
    pub fn counter(&mut self, name: impl Into<String>, help: impl Into<String>) -> CounterId {
        self.counters.push(Counter {
            name: name.into(),
            help: help.into(),
            value: 0,
        });
        CounterId(self.counters.len() - 1)
    }

    /// Registers a gauge starting at zero.
    pub fn gauge(&mut self, name: impl Into<String>, help: impl Into<String>) -> GaugeId {
        self.gauges.push(Gauge {
            name: name.into(),
            help: help.into(),
            value: 0.0,
        });
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers a fixed-bin histogram over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is invalid or `bins == 0` (see
    /// [`Histogram::new`]).
    pub fn histogram(
        &mut self,
        name: impl Into<String>,
        help: impl Into<String>,
        lo: f64,
        hi: f64,
        bins: usize,
    ) -> HistogramId {
        self.histograms.push(HistogramMetric {
            name: name.into(),
            help: help.into(),
            hist: Histogram::new(lo, hi, bins),
            sum: 0.0,
        });
        HistogramId(self.histograms.len() - 1)
    }

    /// Adds `by` to a counter.
    pub fn inc(&mut self, id: CounterId, by: u64) {
        self.counters[id.0].value += by;
    }

    /// Sets a gauge.
    pub fn set(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0].value = value;
    }

    /// Records one observation into a histogram.
    pub fn observe(&mut self, id: HistogramId, x: f64) {
        let m = &mut self.histograms[id.0];
        m.hist.record(x);
        m.sum += x;
    }

    /// Current counter value.
    #[must_use]
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].value
    }

    /// Freezes the current values into a serializable snapshot.
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: self
                .counters
                .iter()
                .map(|c| CounterSample {
                    name: c.name.clone(),
                    help: c.help.clone(),
                    value: c.value,
                })
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|g| GaugeSample {
                    name: g.name.clone(),
                    help: g.help.clone(),
                    value: g.value,
                })
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|m| {
                    let h = &m.hist;
                    let width = h.bin_width();
                    let lo = h.bin_center(0) - width / 2.0;
                    HistogramSample {
                        name: m.name.clone(),
                        help: m.help.clone(),
                        lo,
                        width,
                        counts: (0..h.bins()).map(|i| h.bin_count(i)).collect(),
                        underflow: h.underflow(),
                        overflow: h.overflow(),
                        total: h.total(),
                        sum: m.sum,
                    }
                })
                .collect(),
        }
    }
}

/// One counter in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Metric name, possibly with inline `{label="value"}` pairs.
    pub name: String,
    /// Human-readable description.
    pub help: String,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// One gauge in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Metric name, possibly with inline `{label="value"}` pairs.
    pub name: String,
    /// Human-readable description.
    pub help: String,
    /// Gauge value at snapshot time.
    pub value: f64,
}

/// One histogram in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Metric name (labels not supported on histograms).
    pub name: String,
    /// Human-readable description.
    pub help: String,
    /// Lower bound of the first bin.
    pub lo: f64,
    /// Width of each bin.
    pub width: f64,
    /// Per-bin counts.
    pub counts: Vec<u64>,
    /// Observations below the range.
    pub underflow: u64,
    /// Observations at or above the range end.
    pub overflow: u64,
    /// Total observations, including out-of-range ones.
    pub total: u64,
    /// Sum of all observed values.
    pub sum: f64,
}

impl HistogramSample {
    /// Approximate quantile `q ∈ [0, 1]` by linear interpolation within
    /// the fixed bins, mirroring `tempriv_sim::stats::Histogram::quantile`
    /// so snapshots and live histograms agree. Underflow mass resolves to
    /// the range start and overflow mass saturates at the range end.
    /// Returns `None` while the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn percentile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.total == 0 {
            return None;
        }
        let target = q * self.total as f64;
        let mut cum = self.underflow as f64;
        if cum >= target {
            return Some(self.lo);
        }
        for (i, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let next = cum + count as f64;
            if next >= target {
                let frac = (target - cum) / count as f64;
                return Some(self.lo + (i as f64 + frac) * self.width);
            }
            cum = next;
        }
        // Remaining mass sits in the overflow bucket: saturate at the end.
        Some(self.lo + self.counts.len() as f64 * self.width)
    }

    /// Median ([`HistogramSample::percentile`] at 0.5).
    #[must_use]
    pub fn p50(&self) -> Option<f64> {
        self.percentile(0.5)
    }

    /// 90th percentile.
    #[must_use]
    pub fn p90(&self) -> Option<f64> {
        self.percentile(0.9)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> Option<f64> {
        self.percentile(0.99)
    }
}

/// A frozen, serializable view of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TelemetrySnapshot {
    /// Counter samples in registration order.
    pub counters: Vec<CounterSample>,
    /// Gauge samples in registration order.
    pub gauges: Vec<GaugeSample>,
    /// Histogram samples in registration order.
    pub histograms: Vec<HistogramSample>,
}

/// Splits `name{labels}` into `(base, Some("labels"))`, or `(name, None)`.
fn split_labels(name: &str) -> (&str, Option<&str>) {
    match name.find('{') {
        Some(i) => (&name[..i], Some(name[i + 1..].trim_end_matches('}'))),
        None => (name, None),
    }
}

impl TelemetrySnapshot {
    /// Canonical single-line JSON encoding (field order is fixed by the
    /// struct definitions, so equal snapshots produce equal bytes).
    ///
    /// # Panics
    ///
    /// Never in practice: the snapshot is a plain tree of serializable
    /// fields.
    #[must_use]
    pub fn to_canonical_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serializes")
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` headers per metric family,
    /// cumulative `_bucket{le=...}` series plus `_sum` / `_count` for
    /// histograms.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut seen: Vec<String> = Vec::new();
        let mut header = |out: &mut String, name: &str, help: &str, kind: &str| {
            let (base, _) = split_labels(name);
            if !seen.iter().any(|s| s == base) {
                seen.push(base.to_string());
                out.push_str(&format!("# HELP {base} {help}\n# TYPE {base} {kind}\n"));
            }
        };
        for c in &self.counters {
            header(&mut out, &c.name, &c.help, "counter");
            out.push_str(&format!("{} {}\n", c.name, c.value));
        }
        for g in &self.gauges {
            header(&mut out, &g.name, &g.help, "gauge");
            out.push_str(&format!("{} {}\n", g.name, g.value));
        }
        for h in &self.histograms {
            header(&mut out, &h.name, &h.help, "histogram");
            let (base, labels) = split_labels(&h.name);
            let with = |le: &str| match labels {
                Some(l) => format!("{base}_bucket{{{l},le=\"{le}\"}}"),
                None => format!("{base}_bucket{{le=\"{le}\"}}"),
            };
            let mut cum = h.underflow;
            for (i, &c) in h.counts.iter().enumerate() {
                cum += c;
                let le = h.lo + (i as f64 + 1.0) * h.width;
                out.push_str(&format!("{} {}\n", with(&format!("{le}")), cum));
            }
            out.push_str(&format!("{} {}\n", with("+Inf"), h.total));
            out.push_str(&format!("{base}_sum{} {}\n", label_suffix(labels), h.sum));
            out.push_str(&format!(
                "{base}_count{} {}\n",
                label_suffix(labels),
                h.total
            ));
        }
        out
    }
}

fn label_suffix(labels: Option<&str>) -> String {
    match labels {
        Some(l) => format!("{{{l}}}"),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[test]
    fn handles_update_the_right_metric() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("a_total", "first");
        let b = reg.counter("b_total", "second");
        let g = reg.gauge("depth", "queue depth");
        reg.inc(a, 2);
        reg.inc(b, 5);
        reg.inc(a, 1);
        reg.set(g, 2.5);
        assert_eq!(reg.counter_value(a), 3);
        assert_eq!(reg.counter_value(b), 5);
        assert_eq!(reg.gauges[g.0].value, 2.5);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("tempriv_preemptions_total{node=\"0\"}", "rcad preemptions");
        let h = reg.histogram("latency_units", "delivery latency", 0.0, 100.0, 10);
        reg.inc(c, 7);
        reg.observe(h, 15.0);
        reg.observe(h, 205.0); // overflow
        let snap = reg.snapshot();
        let json = snap.to_canonical_json();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.histograms[0].total, 2);
        assert_eq!(back.histograms[0].overflow, 1);
        assert_eq!(back.histograms[0].sum, 220.0);
    }

    #[test]
    fn canonical_json_is_deterministic() {
        let build = || {
            let mut reg = MetricsRegistry::new();
            let g = reg.gauge("x", "a gauge");
            reg.set(g, 1.25);
            reg.snapshot().to_canonical_json()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn prometheus_text_format_shape() {
        let mut reg = MetricsRegistry::new();
        let c0 = reg.counter("drops_total{node=\"0\"}", "drops");
        let c1 = reg.counter("drops_total{node=\"1\"}", "drops");
        let h = reg.histogram("occ", "occupancy", 0.0, 4.0, 2);
        reg.inc(c0, 1);
        reg.inc(c1, 2);
        reg.observe(h, 1.0);
        reg.observe(h, 3.0);
        let text = reg.snapshot().to_prometheus();
        // A labeled family is declared exactly once.
        assert_eq!(text.matches("# TYPE drops_total counter").count(), 1);
        assert!(text.contains("drops_total{node=\"0\"} 1"));
        assert!(text.contains("drops_total{node=\"1\"} 2"));
        // Histogram buckets are cumulative and end with +Inf.
        assert!(text.contains("occ_bucket{le=\"2\"} 1"));
        assert!(text.contains("occ_bucket{le=\"4\"} 2"));
        assert!(text.contains("occ_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("occ_sum 4"));
        assert!(text.contains("occ_count 2"));
    }

    #[test]
    fn percentile_of_empty_histogram_is_none() {
        let mut reg = MetricsRegistry::new();
        reg.histogram("lat", "latency", 0.0, 100.0, 10);
        let snap = reg.snapshot();
        assert_eq!(snap.histograms[0].percentile(0.5), None);
        assert_eq!(snap.histograms[0].p99(), None);
    }

    #[test]
    fn percentile_interpolates_within_a_single_bin() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("lat", "latency", 0.0, 100.0, 10);
        // Four observations, all landing in bin [10, 20).
        for _ in 0..4 {
            reg.observe(h, 15.0);
        }
        let s = &reg.snapshot().histograms[0];
        // Linear-in-bin: p50 is halfway through the bin, p100 at its end.
        assert!((s.p50().unwrap() - 15.0).abs() < 1e-9);
        assert!((s.percentile(1.0).unwrap() - 20.0).abs() < 1e-9);
        // Every quantile stays inside the occupied bin.
        let p90 = s.p90().unwrap();
        assert!((10.0..=20.0).contains(&p90));
    }

    #[test]
    fn percentile_saturates_at_range_end_for_overflow_mass() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("lat", "latency", 0.0, 100.0, 10);
        reg.observe(h, 50.0);
        for _ in 0..9 {
            reg.observe(h, 500.0); // overflow
        }
        let s = &reg.snapshot().histograms[0];
        // 90% of the mass is beyond the range: high quantiles clamp to hi.
        assert!((s.p99().unwrap() - 100.0).abs() < 1e-9);
        // Low quantiles still resolve inside the range.
        assert!(s.percentile(0.05).unwrap() < 100.0);
    }

    #[test]
    fn percentile_resolves_underflow_to_range_start() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("lat", "latency", 10.0, 20.0, 5);
        reg.observe(h, 0.0); // underflow
        reg.observe(h, 15.0);
        let s = &reg.snapshot().histograms[0];
        assert_eq!(s.percentile(0.25), Some(10.0));
    }

    #[test]
    fn percentile_extremes_anchor_to_the_data_range() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("lat", "latency", 0.0, 50.0, 5);
        for x in [5.0, 15.0, 25.0, 35.0, 45.0] {
            reg.observe(h, x);
        }
        let s = &reg.snapshot().histograms[0];
        // q = 0: no mass below the first occupied bin, so the infimum of
        // the data is the range start.
        assert_eq!(s.percentile(0.0), Some(0.0));
        // q = 1: all mass is inside the range; the supremum is the end of
        // the last occupied bin, not beyond it.
        assert!((s.percentile(1.0).unwrap() - 50.0).abs() < 1e-9);
        // And q = 0/1 on an *empty* histogram are still None, not a
        // made-up range endpoint.
        reg.histogram("lat2", "latency", 0.0, 50.0, 5);
        let empty = &reg.snapshot().histograms[1];
        assert_eq!(empty.percentile(0.0), None);
        assert_eq!(empty.percentile(1.0), None);
    }

    #[test]
    fn single_bin_histogram_percentiles_interpolate_linearly() {
        // The degenerate bins == 1 histogram: every in-range observation
        // lands in the one cell, and quantiles sweep it linearly.
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("lat", "latency", 0.0, 10.0, 1);
        for _ in 0..10 {
            reg.observe(h, 3.0);
        }
        let s = &reg.snapshot().histograms[0];
        assert_eq!(s.counts.len(), 1);
        assert_eq!(s.percentile(0.0), Some(0.0));
        assert!((s.p50().unwrap() - 5.0).abs() < 1e-9);
        assert!((s.percentile(1.0).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn percentile_rejects_out_of_range_quantiles() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("lat", "latency", 0.0, 10.0, 2);
        reg.observe(h, 1.0);
        let _ = reg.snapshot().histograms[0].percentile(1.5);
    }

    #[test]
    fn snapshot_deserializes_from_struct_shape() {
        // Guards the field names the CLI smoke test greps for.
        #[derive(Serialize, Deserialize)]
        struct Probe {
            gauges: Vec<GaugeSample>,
        }
        let mut reg = MetricsRegistry::new();
        let g = reg.gauge("tempriv_node_occupancy_mean{node=\"0\"}", "mean occupancy");
        reg.set(g, 14.7);
        let json = reg.snapshot().to_canonical_json();
        let p: Probe = serde_json::from_str(&json).unwrap();
        assert_eq!(p.gauges[0].name, "tempriv_node_occupancy_mean{node=\"0\"}");
    }
}
