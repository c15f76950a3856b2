//! Wall-clock spans for timing pipeline stages, and the cross-layer
//! span tracer.
//!
//! Spans measure host time (build, simulate, score, …), not simulated
//! time; they are profiling metadata and are deliberately excluded from
//! anything that must be deterministic (cache keys, result digests,
//! byte-identical output checks).
//!
//! The cross-layer tracer adds two pieces on top of the simple
//! [`SpanSet`]:
//!
//! * [`TraceCtx`] — a `(trace id, span id)` pair derived with
//!   `splitmix64` chains, so ids are deterministic functions of the
//!   request/job identity and runs remain reproducible;
//! * [`SpanRecord`] — one named wall-time interval stamped with its
//!   trace lineage and originating layer (`serve`, `queue`, `job`,
//!   `scenario`).
//!
//! [`chrome_span_events`] renders records as Chrome `trace_event`
//! objects so they merge with flight-recorder and phase-profile events
//! onto one Perfetto timeline (see [`wrap_chrome_events`]).

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;
use tempriv_sim::rng::splitmix64;

/// A named collection of wall-time measurements.
///
/// # Examples
///
/// ```
/// use tempriv_telemetry::SpanSet;
///
/// let mut spans = SpanSet::default();
/// let answer = spans.time("simulate", || 6 * 7);
/// assert_eq!(answer, 42);
/// assert_eq!(spans.spans().len(), 1);
/// assert_eq!(spans.spans()[0].0, "simulate");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct SpanSet {
    spans: Vec<(String, f64)>,
}

impl SpanSet {
    /// Runs `f`, recording its wall time under `name`.
    pub fn time<R>(&mut self, name: impl Into<String>, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = f();
        self.record(name, started.elapsed().as_secs_f64());
        out
    }

    /// Records an externally measured duration (seconds) under `name`.
    pub fn record(&mut self, name: impl Into<String>, seconds: f64) {
        self.spans.push((name.into(), seconds));
    }

    /// The recorded `(name, seconds)` pairs, in recording order.
    #[must_use]
    pub fn spans(&self) -> &[(String, f64)] {
        &self.spans
    }

    /// Total seconds across all spans.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.spans.iter().map(|(_, s)| s).sum()
    }
}

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslashes, and control characters).
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A trace identity: which end-to-end trace a span belongs to and the
/// span's own id (used as the parent id when deriving children).
///
/// Ids are `splitmix64` chains over the originating request/job
/// identity, so the same submission always produces the same ids —
/// tracing never introduces nondeterminism into ids, only wall-clock
/// timestamps are nondeterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceCtx {
    /// The end-to-end trace id, shared by every span in the trace.
    pub trace_id: u64,
    /// This context's own span id (children record it as `parent_id`).
    pub span_id: u64,
}

impl TraceCtx {
    /// Derives a root context from a seed and a textual tag (e.g. a
    /// serve job key or an experiment name).
    #[must_use]
    pub fn root(seed: u64, tag: &str) -> TraceCtx {
        let mut h = splitmix64(seed ^ 0x7465_6d70_7269_7673);
        for b in tag.bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        TraceCtx {
            trace_id: splitmix64(h),
            span_id: splitmix64(h ^ 0x9e37_79b9_7f4a_7c15),
        }
    }

    /// Derives the `index`-th child context: same trace, new span id.
    #[must_use]
    pub fn child(&self, index: u64) -> TraceCtx {
        TraceCtx {
            trace_id: self.trace_id,
            span_id: splitmix64(self.span_id ^ splitmix64(index.wrapping_add(1))),
        }
    }
}

/// One named wall-time interval with its trace lineage.
///
/// Times are microseconds relative to an epoch chosen by the producer
/// (the telemetry sink's construction instant for job spans, the server
/// start for serve spans); exporters re-base when merging timelines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// The end-to-end trace id.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// The parent span's id (0 = root).
    pub parent_id: u64,
    /// Human-readable span name (escaped on export).
    pub name: String,
    /// Originating layer: `serve`, `queue`, `job`, or `scenario`.
    pub layer: String,
    /// Start, microseconds since the producer's epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// Chrome `pid` under which cross-layer wall-clock spans are exported.
pub const SPAN_PID: u64 = 1000;

/// Chrome `pid` under which engine phase bands are exported.
pub const PHASE_PID: u64 = 1001;

/// Stable thread id for a span layer within [`SPAN_PID`].
#[must_use]
pub fn layer_tid(layer: &str) -> u64 {
    match layer {
        "serve" => 0,
        "queue" => 1,
        "job" => 2,
        "scenario" => 3,
        _ => 4,
    }
}

/// Renders spans as Chrome `trace_event` objects (metadata naming the
/// process and each layer's thread, then one `"X"` complete event per
/// span). `offset_us` shifts every timestamp, letting callers re-base a
/// producer-relative timeline onto a shared one; spans that would start
/// before zero are clamped.
#[must_use]
pub fn chrome_span_events(spans: &[SpanRecord], offset_us: i64) -> Vec<String> {
    let mut parts = Vec::new();
    if spans.is_empty() {
        return parts;
    }
    parts.push(format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{SPAN_PID},\"tid\":0,\
         \"args\":{{\"name\":\"wall-clock spans\"}}}}"
    ));
    let layers: BTreeSet<&str> = spans.iter().map(|s| s.layer.as_str()).collect();
    for layer in layers {
        parts.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{SPAN_PID},\"tid\":{},\
             \"args\":{{\"name\":\"{}\"}}}}",
            layer_tid(layer),
            json_escape(layer)
        ));
    }
    for span in spans {
        let ts = (span.start_us as i64 + offset_us).max(0);
        parts.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{},\
             \"pid\":{SPAN_PID},\"tid\":{},\"args\":{{\"trace_id\":\"{:#018x}\",\
             \"span_id\":\"{:#018x}\",\"parent_id\":\"{:#018x}\"}}}}",
            json_escape(&span.name),
            span.dur_us,
            layer_tid(&span.layer),
            span.trace_id,
            span.span_id,
            span.parent_id
        ));
    }
    parts
}

/// Wraps pre-rendered Chrome events into the `{"traceEvents": [...]}`
/// object form Perfetto loads — the merge point for span events, phase
/// bands, and flight-recorder events.
#[must_use]
pub fn wrap_chrome_events(events: &[String]) -> String {
    format!("{{\"traceEvents\":[{}]}}\n", events.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_in_order() {
        let mut spans = SpanSet::default();
        spans.record("build", 0.5);
        spans.record("simulate", 1.5);
        assert_eq!(spans.spans().len(), 2);
        assert_eq!(spans.spans()[1].0, "simulate");
        assert!((spans.total_seconds() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn time_returns_the_closure_result() {
        let mut spans = SpanSet::default();
        let got = spans.time("work", || "done");
        assert_eq!(got, "done");
        assert!(spans.spans()[0].1 >= 0.0);
    }

    #[test]
    fn span_set_round_trips_through_json() {
        let mut spans = SpanSet::default();
        spans.record("a", 0.25);
        let json = serde_json::to_string(&spans).unwrap();
        let back: SpanSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spans);
    }

    #[test]
    fn json_escape_handles_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn trace_ctx_is_deterministic_and_tag_sensitive() {
        let a = TraceCtx::root(7, "job-key");
        let b = TraceCtx::root(7, "job-key");
        assert_eq!(a, b);
        let c = TraceCtx::root(7, "other-key");
        assert_ne!(a.trace_id, c.trace_id);
        let child0 = a.child(0);
        let child1 = a.child(1);
        assert_eq!(child0.trace_id, a.trace_id, "children share the trace");
        assert_ne!(child0.span_id, child1.span_id);
        assert_ne!(child0.span_id, a.span_id);
    }

    fn rec(i: u64) -> SpanRecord {
        SpanRecord {
            trace_id: 1,
            span_id: 10 + i,
            parent_id: 1,
            name: format!("span {i}"),
            layer: "job".to_string(),
            start_us: i * 100,
            dur_us: 50,
        }
    }

    #[test]
    fn chrome_span_events_escape_names_and_carry_trace_ids() {
        let mut span = rec(0);
        span.name = "evil \"name\"\nwith\\controls".to_string();
        let events = chrome_span_events(&[span], 0);
        let doc = wrap_chrome_events(&events);
        assert!(doc.contains("evil \\\"name\\\"\\nwith\\\\controls"));
        assert!(doc.contains("\"trace_id\":\"0x0000000000000001\""));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn chrome_span_events_rebase_and_clamp() {
        let span = rec(1); // starts at 100us
        let shifted = chrome_span_events(std::slice::from_ref(&span), 500);
        assert!(shifted.iter().any(|e| e.contains("\"ts\":600")));
        let clamped = chrome_span_events(&[span], -500);
        assert!(clamped.iter().any(|e| e.contains("\"ts\":0")));
    }

    #[test]
    fn empty_span_list_produces_no_metadata() {
        assert!(chrome_span_events(&[], 0).is_empty());
    }
}
