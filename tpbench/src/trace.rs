//! In-memory spans the benchmark records around its calls into each
//! layer, and the per-layer self-time table derived from them.
//!
//! A span has a layer (the crate it times), a name, a start, an end, a
//! parent, and a trace id shared by every span of one pass or request.
//! Spans stay in memory until the run ends. A span's self time is its
//! duration minus the part of it that its children cover. A disabled
//! tracer records nothing and reads no clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::value::Value;
use tempriv_runtime::manifest::JobStatus;
use tempriv_runtime::observer::{CountingObserver, RunObserver};

/// Where a new span hangs: its trace and parent span (0 = root).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ctx {
    trace: u64,
    span: u64,
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    id: u64,
    parent: u64,
    trace: u64,
    layer: &'static str,
    name: &'static str,
    start: Duration,
    end: Duration,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `on = false` makes every call a plain function call.
    #[must_use]
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` as the root span of a new trace.
    pub fn root<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce(Ctx) -> T) -> T {
        let trace = self.next.fetch_add(1, Ordering::Relaxed);
        self.child(Ctx { trace, span: 0 }, layer, name, f)
    }

    /// Runs `f` as a child span of `parent`.
    pub fn child<T>(
        &self,
        parent: Ctx,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(Ctx) -> T,
    ) -> T {
        if !self.on {
            return f(parent);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(Ctx {
            trace: parent.trace,
            span: id,
        });
        self.push(id, parent, layer, name, start, Instant::now());
        out
    }

    /// Records a span measured elsewhere (a client-side request phase, a
    /// runtime job reported through the observer); returns its context.
    pub fn record(
        &self,
        parent: Ctx,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> Ctx {
        if !self.on {
            return parent;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(id, parent, layer, name, start, end);
        Ctx {
            trace: parent.trace,
            span: id,
        }
    }

    /// Starts a new trace without timing a root span: for a request whose
    /// root span is recorded once its end is known.
    #[must_use]
    pub fn new_trace(&self) -> Ctx {
        Ctx {
            trace: self.next.fetch_add(1, Ordering::Relaxed),
            span: 0,
        }
    }

    fn push(
        &self,
        id: u64,
        parent: Ctx,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent: parent.span,
            trace: parent.trace,
            layer,
            name,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
        };
        self.spans.lock().expect("span store lock").push(span);
    }

    /// Every recorded span, in recording order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store lock").clone()
    }

    /// Durations in seconds of every span with this name.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span store lock")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect()
    }
}

/// One row of the self-time table.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfRow {
    /// Layer (crate) the span timed.
    pub layer: &'static str,
    /// Span name.
    pub name: &'static str,
    /// Spans with this name.
    pub calls: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time (duration minus child coverage), seconds.
    pub self_s: f64,
}

/// Self time per (layer, span name), sorted by layer then name.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<SelfRow> {
    let mut children: BTreeMap<u64, Vec<(Duration, Duration)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut rows: BTreeMap<(&'static str, &'static str), SelfRow> = BTreeMap::new();
    for s in spans {
        let total = (s.end - s.start).as_secs_f64();
        let covered = children
            .get_mut(&s.id)
            .map_or(0.0, |kids| covered_secs(kids, s.start, s.end));
        let row = rows.entry((s.layer, s.name)).or_insert(SelfRow {
            layer: s.layer,
            name: s.name,
            calls: 0,
            total_s: 0.0,
            self_s: 0.0,
        });
        row.calls += 1;
        row.total_s += total;
        row.self_s += (total - covered).max(0.0);
    }
    rows.into_values().collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_secs(intervals: &mut [(Duration, Duration)], lo: Duration, hi: Duration) -> f64 {
    intervals.sort();
    let mut covered = Duration::ZERO;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered.as_secs_f64()
}

/// Self seconds summed per layer.
#[must_use]
pub fn layer_self_times(rows: &[SelfRow]) -> Vec<(&'static str, f64)> {
    let mut per: BTreeMap<&'static str, f64> = BTreeMap::new();
    for row in rows {
        *per.entry(row.layer).or_default() += row.self_s;
    }
    per.into_iter().collect()
}

/// Per-layer self seconds as a JSON array of `{layer, self_s}`.
#[must_use]
pub fn layer_json(rows: &[SelfRow]) -> Value {
    let layers = layer_self_times(rows).into_iter().map(|(layer, secs)| {
        crate::obj([
            ("layer", Value::Str(layer.into())),
            ("self_s", crate::num(secs)),
        ])
    });
    Value::Seq(layers.collect())
}

/// Renders the span table and the per-layer self-time summary.
#[must_use]
pub fn render_table(rows: &[SelfRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:<28} {:>7} {:>12} {:>12}",
        "layer", "span", "calls", "total_ms", "self_ms"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<18} {:<28} {:>7} {:>12.3} {:>12.3}",
            r.layer,
            r.name,
            r.calls,
            r.total_s * 1e3,
            r.self_s * 1e3
        );
    }
    let layers = layer_self_times(rows);
    let all: f64 = layers.iter().map(|(_, s)| s).sum();
    let _ = writeln!(out, "\n{:<18} {:>12} {:>8}", "layer", "self_ms", "share");
    for (layer, secs) in layers {
        let share = if all > 0.0 { 100.0 * secs / all } else { 0.0 };
        let _ = writeln!(out, "{layer:<18} {:>12.3} {share:>7.1}%", secs * 1e3);
    }
    out
}

/// Spans as JSON lines: id, parent, trace, layer, name, start/end in µs
/// from the run's start.
#[must_use]
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let line = crate::obj([
            ("id", Value::UInt(s.id)),
            ("parent", Value::UInt(s.parent)),
            ("trace", Value::UInt(s.trace)),
            ("layer", Value::Str(s.layer.into())),
            ("name", Value::Str(s.name.into())),
            ("start_us", Value::UInt(s.start.as_micros() as u64)),
            ("end_us", Value::UInt(s.end.as_micros() as u64)),
        ]);
        out.push_str(&crate::to_json(&line));
        out.push('\n');
    }
    out
}

/// Runtime observer that counts computed and cached jobs (through the
/// runtime's own [`CountingObserver`]) and, while tracing, records each
/// computed job as a `runtime.job` span under the current sweep span.
pub struct JobSpans {
    tracer: Arc<Tracer>,
    counts: CountingObserver,
    parent: Mutex<Option<Ctx>>,
    started: Mutex<BTreeMap<usize, Instant>>,
}

impl JobSpans {
    /// An observer feeding `tracer`.
    #[must_use]
    pub fn new(tracer: Arc<Tracer>) -> JobSpans {
        JobSpans {
            tracer,
            counts: CountingObserver::new(),
            parent: Mutex::new(None),
            started: Mutex::new(BTreeMap::new()),
        }
    }

    /// Sets the span that jobs reported from now on hang under.
    pub fn set_parent(&self, parent: Option<Ctx>) {
        *self.parent.lock().expect("observer lock") = parent;
    }

    /// Jobs whose function ran.
    #[must_use]
    pub fn computed(&self) -> usize {
        self.counts.computed()
    }

    /// Jobs served from the cache.
    #[must_use]
    pub fn cached(&self) -> usize {
        self.counts.cached()
    }
}

impl RunObserver for JobSpans {
    fn job_started(&self, index: usize) {
        self.counts.job_started(index);
        if self.tracer.on() {
            self.started
                .lock()
                .expect("observer lock")
                .insert(index, Instant::now());
        }
    }

    fn job_finished(&self, index: usize, status: JobStatus, wall: Duration) {
        self.counts.job_finished(index, status, wall);
        if !self.tracer.on() {
            return;
        }
        let end = Instant::now();
        let start = self
            .started
            .lock()
            .expect("observer lock")
            .remove(&index)
            .unwrap_or(end - wall);
        if let Some(parent) = *self.parent.lock().expect("observer lock") {
            let name = if status == JobStatus::Computed {
                "runtime.job"
            } else {
                "runtime.cache_hit"
            };
            self.tracer
                .record(parent, "tempriv-runtime", name, start, end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_coverage() {
        let tracer = Tracer::new(true);
        tracer.root("a", "outer", |ctx| {
            tracer.child(ctx, "b", "inner", |_| {
                std::thread::sleep(Duration::from_millis(20));
            });
            std::thread::sleep(Duration::from_millis(10));
        });
        let rows = self_times(&tracer.spans());
        let outer = rows.iter().find(|r| r.name == "outer").unwrap();
        let inner = rows.iter().find(|r| r.name == "inner").unwrap();
        assert!(inner.self_s >= 0.019);
        assert!(outer.total_s >= 0.029);
        assert!(outer.self_s < outer.total_s - 0.018);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let v = tracer.root("a", "x", |ctx| tracer.child(ctx, "b", "y", |_| 7));
        assert_eq!(v, 7);
        assert!(tracer.spans().is_empty());
    }
}
