//! Serve-side metrics: queue depth, cache hit-rate, per-tenant admission
//! counters, and latency histograms, exported as Prometheus text through
//! the repo's [`MetricsRegistry`].
//!
//! The registry wants `&mut self`; the server wraps [`ServeMetrics`] in a
//! `Mutex` and every handler takes it briefly. Per-tenant counters are
//! registered lazily the first time a tenant shows up, following the
//! registry's unquoted label convention (`name{tenant=t0}`).

use std::collections::HashMap;
use tempriv_telemetry::memprof::{self, MemSnapshot};
use tempriv_telemetry::registry::{CounterId, GaugeId, HistogramId, MetricsRegistry};

/// All serve metrics, pre-registered on one registry.
pub struct ServeMetrics {
    registry: MetricsRegistry,
    requests_total: CounterId,
    jobs_completed: CounterId,
    jobs_failed: CounterId,
    cache_hits: CounterId,
    cache_misses: CounterId,
    queue_depth: GaugeId,
    jobs_running: GaugeId,
    cache_hit_rate: GaugeId,
    request_latency: HistogramId,
    job_wall: HistogramId,
    queue_wait: HistogramId,
    mem_live_bytes: GaugeId,
    mem_peak_bytes: GaugeId,
    mem_allocs: GaugeId,
    mem_rss_peak: GaugeId,
    admitted: HashMap<String, CounterId>,
    rejected: HashMap<String, CounterId>,
}

impl ServeMetrics {
    /// Registers every serve metric on a fresh registry.
    #[must_use]
    pub fn new() -> Self {
        let mut registry = MetricsRegistry::new();
        let requests_total = registry.counter(
            "tempriv_serve_requests_total",
            "HTTP requests handled, any endpoint or status",
        );
        let jobs_completed = registry.counter(
            "tempriv_serve_jobs_completed_total",
            "jobs finished with a result",
        );
        let jobs_failed =
            registry.counter("tempriv_serve_jobs_failed_total", "jobs finished in error");
        let cache_hits = registry.counter(
            "tempriv_serve_cache_hits_total",
            "submissions answered from the result cache",
        );
        let cache_misses = registry.counter(
            "tempriv_serve_cache_misses_total",
            "submissions that required simulation",
        );
        let queue_depth = registry.gauge(
            "tempriv_serve_queue_depth",
            "cold jobs waiting for a worker",
        );
        let jobs_running = registry.gauge("tempriv_serve_jobs_running", "jobs executing right now");
        let cache_hit_rate = registry.gauge(
            "tempriv_serve_cache_hit_rate",
            "hits / (hits + misses) since start",
        );
        let request_latency = registry.histogram(
            "tempriv_serve_request_ms",
            "request handling latency in milliseconds",
            0.0,
            500.0,
            100,
        );
        let job_wall = registry.histogram(
            "tempriv_serve_job_wall_ms",
            "job wall-clock time in milliseconds",
            0.0,
            20_000.0,
            200,
        );
        let queue_wait = registry.histogram(
            "tempriv_serve_queue_wait_ms",
            "cold-job queue wait in milliseconds: admission accept to worker pickup",
            0.0,
            10_000.0,
            100,
        );
        let mem_live_bytes = registry.gauge(
            "tempriv_mem_live_bytes",
            "live heap bytes per the counting allocator",
        );
        let mem_peak_bytes = registry.gauge(
            "tempriv_mem_peak_bytes",
            "peak live heap bytes since the counting allocator was enabled",
        );
        let mem_allocs = registry.gauge(
            "tempriv_mem_allocs_total",
            "heap allocations since the counting allocator was enabled",
        );
        let mem_rss_peak = registry.gauge(
            "tempriv_mem_rss_peak_bytes",
            "peak resident set size (VmHWM) of the server process",
        );
        ServeMetrics {
            registry,
            requests_total,
            jobs_completed,
            jobs_failed,
            cache_hits,
            cache_misses,
            queue_depth,
            jobs_running,
            cache_hit_rate,
            request_latency,
            job_wall,
            queue_wait,
            mem_live_bytes,
            mem_peak_bytes,
            mem_allocs,
            mem_rss_peak,
            admitted: HashMap::new(),
            rejected: HashMap::new(),
        }
    }

    /// Records one cold job's queue wait (admission accept to worker
    /// pickup).
    pub fn observe_queue_wait(&mut self, wait_ms: f64) {
        self.registry.observe(self.queue_wait, wait_ms);
    }

    /// Counts one handled request and its latency.
    pub fn observe_request(&mut self, latency_ms: f64) {
        self.registry.inc(self.requests_total, 1);
        self.registry.observe(self.request_latency, latency_ms);
    }

    /// Counts one admitted cold job for `tenant`.
    pub fn admit(&mut self, tenant: &str) {
        let id = lazy_counter(
            &mut self.registry,
            &mut self.admitted,
            "tempriv_serve_admitted_total",
            "cold jobs admitted",
            tenant,
        );
        self.registry.inc(id, 1);
    }

    /// Counts one rejected submission for `tenant`.
    pub fn reject(&mut self, tenant: &str) {
        let id = lazy_counter(
            &mut self.registry,
            &mut self.rejected,
            "tempriv_serve_rejected_total",
            "submissions rejected by admission control",
            tenant,
        );
        self.registry.inc(id, 1);
    }

    /// Counts a warm (cache) or cold (simulated) submission.
    pub fn cache_lookup(&mut self, hit: bool) {
        let id = if hit {
            self.cache_hits
        } else {
            self.cache_misses
        };
        self.registry.inc(id, 1);
        let hits = self.registry.counter_value(self.cache_hits) as f64;
        let total = hits + self.registry.counter_value(self.cache_misses) as f64;
        self.registry.set(self.cache_hit_rate, hits / total);
    }

    /// Counts one finished job and its wall time.
    pub fn job_finished(&mut self, ok: bool, wall_ms: f64) {
        let id = if ok {
            self.jobs_completed
        } else {
            self.jobs_failed
        };
        self.registry.inc(id, 1);
        self.registry.observe(self.job_wall, wall_ms);
    }

    /// Updates the queue-depth and running gauges.
    pub fn set_load(&mut self, queued: usize, running: usize) {
        self.registry.set(self.queue_depth, queued as f64);
        self.registry.set(self.jobs_running, running as f64);
    }

    /// Writes the process memory gauges from a counting-allocator
    /// snapshot and the kernel's peak-RSS reading (`None` off-Linux
    /// leaves the RSS gauge at its last value).
    #[allow(clippy::cast_precision_loss)]
    pub fn set_mem(&mut self, snap: &MemSnapshot, peak_rss: Option<u64>) {
        self.registry
            .set(self.mem_live_bytes, snap.live_bytes as f64);
        self.registry
            .set(self.mem_peak_bytes, snap.peak_live_bytes as f64);
        self.registry.set(self.mem_allocs, snap.allocs as f64);
        if let Some(rss) = peak_rss {
            self.registry.set(self.mem_rss_peak, rss as f64);
        }
    }

    /// Refreshes the memory gauges from the live allocator and kernel
    /// state — what the `/metrics` handler calls on every scrape.
    pub fn refresh_mem(&mut self) {
        self.set_mem(&memprof::snapshot(), memprof::peak_rss_bytes());
    }

    /// Renders every metric as Prometheus exposition text.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        self.registry.snapshot().to_prometheus()
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

fn lazy_counter(
    registry: &mut MetricsRegistry,
    cache: &mut HashMap<String, CounterId>,
    family: &str,
    help: &str,
    tenant: &str,
) -> CounterId {
    if let Some(id) = cache.get(tenant) {
        return *id;
    }
    let id = registry.counter(format!("{family}{{tenant={tenant}}}"), help);
    cache.insert(tenant.to_string(), id);
    id
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_tracks_lookups() {
        let hit_rate = |m: &ServeMetrics| {
            m.registry
                .snapshot()
                .gauges
                .into_iter()
                .find(|g| g.name == "tempriv_serve_cache_hit_rate")
                .expect("hit-rate gauge registered")
                .value
        };
        let mut m = ServeMetrics::new();
        assert_eq!(hit_rate(&m), 0.0);
        m.cache_lookup(false);
        m.cache_lookup(true);
        m.cache_lookup(true);
        assert!((hit_rate(&m) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn per_tenant_counters_appear_in_prometheus_text() {
        let mut m = ServeMetrics::new();
        m.admit("noisy");
        m.admit("noisy");
        m.reject("noisy");
        m.admit("quiet");
        let text = m.to_prometheus();
        assert!(text.contains("tempriv_serve_admitted_total{tenant=noisy} 2"));
        assert!(text.contains("tempriv_serve_rejected_total{tenant=noisy} 1"));
        assert!(text.contains("tempriv_serve_admitted_total{tenant=quiet} 1"));
    }

    #[test]
    fn mem_gauges_export_from_snapshot() {
        let mut m = ServeMetrics::new();
        let snap = MemSnapshot {
            allocs: 42,
            deallocs: 40,
            reallocs: 1,
            alloc_bytes: 4096,
            live_bytes: 512,
            peak_live_bytes: 2048,
        };
        m.set_mem(&snap, Some(1 << 20));
        let text = m.to_prometheus();
        assert!(text.contains("tempriv_mem_live_bytes 512"));
        assert!(text.contains("tempriv_mem_peak_bytes 2048"));
        assert!(text.contains("tempriv_mem_allocs_total 42"));
        assert!(text.contains("tempriv_mem_rss_peak_bytes 1048576"));
        // Off-Linux scrapes keep the last RSS reading.
        m.set_mem(&snap, None);
        assert!(m
            .to_prometheus()
            .contains("tempriv_mem_rss_peak_bytes 1048576"));
    }

    #[test]
    fn request_and_job_metrics_export() {
        let mut m = ServeMetrics::new();
        m.observe_request(2.5);
        m.job_finished(true, 40.0);
        m.job_finished(false, 10.0);
        m.set_load(3, 1);
        m.observe_queue_wait(120.0);
        let text = m.to_prometheus();
        assert!(text.contains("tempriv_serve_requests_total 1"));
        assert!(text.contains("tempriv_serve_jobs_completed_total 1"));
        assert!(text.contains("tempriv_serve_jobs_failed_total 1"));
        assert!(text.contains("tempriv_serve_queue_depth 3"));
        assert!(text.contains("tempriv_serve_queue_wait_ms_count 1"));
    }
}
