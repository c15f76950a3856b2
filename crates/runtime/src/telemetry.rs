//! Per-job telemetry collection for instrumented runs.
//!
//! The runtime stays generic over what jobs compute, so telemetry flows
//! through it as opaque JSON blobs: a job that instruments its work
//! attaches one blob to its slot in the [`TelemetrySink`], and the
//! runner journals the blob into that job's manifest record. Cache-served
//! jobs do no work, so they attach nothing — telemetry describes what
//! actually ran, never what a previous run measured.
//!
//! The sink never participates in cache keys or result digests, so
//! enabling telemetry cannot change experiment outputs.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A slot-per-job mailbox for telemetry blobs, shared between the
/// runtime and job closures.
///
/// Thread-safe: jobs run on pool workers, each writing only its own
/// slot. The telemetry slots hold the per-node metrics family (the
/// recording probe's occupancy series and theory checks), gated by
/// [`TelemetrySink::node_metrics`], on by default. Next to them the
/// sink keeps five parallel blob families: *trace* slots for
/// flight-recorder blobs (with the ring capacity the run's recorders
/// should use, [`TelemetrySink::trace_capacity`], 0 = tracing off),
/// *privacy* slots for streaming privacy-observatory series (with the
/// snapshot interval [`TelemetrySink::privacy_interval`], 0 =
/// observatory off),
/// *span* slots for cross-layer span/profile blobs (with the phase
/// switch batch [`TelemetrySink::span_batch`], 0 = span tracing off),
/// *audit* slots for determinism-audit digest blobs (with the
/// checkpoint window [`TelemetrySink::digest_window`], 0 = audit off),
/// and *mem* slots for allocation-ledger blobs (gated by
/// [`TelemetrySink::mem_profile`], off by default).
///
/// A serve job records the audit family always; privacy, spans and
/// flight only when its spec asks; per-node metrics never — no serve
/// endpoint reads that blob, and it is the largest one a job makes.
///
/// For span tracing the sink also carries a root trace context — two
/// raw ids set by the layer that minted the trace (e.g. the HTTP
/// server) — and an epoch instant fixed at construction, which job
/// spans use as their time zero. Both survive [`TelemetrySink::reset`]
/// so per-run reslotting cannot race a caller that configured the trace
/// before submitting work.
#[derive(Debug)]
pub struct TelemetrySink {
    slots: Mutex<Vec<Option<String>>>,
    trace_slots: Mutex<Vec<Option<String>>>,
    trace_capacity: AtomicUsize,
    privacy_slots: Mutex<Vec<Option<String>>>,
    privacy_interval: AtomicUsize,
    span_slots: Mutex<Vec<Option<String>>>,
    span_batch: AtomicUsize,
    audit_slots: Mutex<Vec<Option<String>>>,
    digest_window: AtomicUsize,
    mem_slots: Mutex<Vec<Option<String>>>,
    mem_profile: AtomicUsize,
    node_metrics: AtomicBool,
    root_trace_id: AtomicU64,
    root_span_id: AtomicU64,
    epoch: Instant,
}

impl Default for TelemetrySink {
    fn default() -> Self {
        TelemetrySink::new()
    }
}

impl TelemetrySink {
    /// An empty sink; [`TelemetrySink::reset`] sizes it per run.
    #[must_use]
    pub fn new() -> Self {
        TelemetrySink {
            slots: Mutex::new(Vec::new()),
            trace_slots: Mutex::new(Vec::new()),
            trace_capacity: AtomicUsize::new(0),
            privacy_slots: Mutex::new(Vec::new()),
            privacy_interval: AtomicUsize::new(0),
            span_slots: Mutex::new(Vec::new()),
            span_batch: AtomicUsize::new(0),
            audit_slots: Mutex::new(Vec::new()),
            digest_window: AtomicUsize::new(0),
            mem_slots: Mutex::new(Vec::new()),
            mem_profile: AtomicUsize::new(0),
            node_metrics: AtomicBool::new(true),
            root_trace_id: AtomicU64::new(0),
            root_span_id: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Clears the sink and resizes it to `jobs` empty slots. Called by
    /// the runtime at the start of each run.
    pub fn reset(&self, jobs: usize) {
        let mut slots = self.slots.lock().expect("telemetry sink lock");
        slots.clear();
        slots.resize(jobs, None);
        drop(slots);
        let mut traces = self.trace_slots.lock().expect("trace sink lock");
        traces.clear();
        traces.resize(jobs, None);
        drop(traces);
        let mut privacy = self.privacy_slots.lock().expect("privacy sink lock");
        privacy.clear();
        privacy.resize(jobs, None);
        drop(privacy);
        let mut spans = self.span_slots.lock().expect("span sink lock");
        spans.clear();
        spans.resize(jobs, None);
        drop(spans);
        let mut audits = self.audit_slots.lock().expect("audit sink lock");
        audits.clear();
        audits.resize(jobs, None);
        drop(audits);
        let mut mems = self.mem_slots.lock().expect("mem sink lock");
        mems.clear();
        mems.resize(jobs, None);
    }

    /// Sets the flight-recorder ring capacity jobs should trace with.
    /// Zero (the default) disables tracing.
    pub fn set_trace_capacity(&self, capacity: usize) {
        self.trace_capacity.store(capacity, Ordering::Relaxed);
    }

    /// The flight-recorder ring capacity for this run (0 = tracing off).
    #[must_use]
    pub fn trace_capacity(&self) -> usize {
        self.trace_capacity.load(Ordering::Relaxed)
    }

    /// Turns the per-node metrics family on or off for this run. On (the
    /// default) means jobs run the recording probe, build the theory
    /// report and attach a telemetry blob; off means they attach none.
    pub fn set_node_metrics(&self, on: bool) {
        self.node_metrics.store(on, Ordering::Relaxed);
    }

    /// Whether jobs should record per-node metrics this run.
    #[must_use]
    pub fn node_metrics(&self) -> bool {
        self.node_metrics.load(Ordering::Relaxed)
    }

    /// Attaches job `index`'s telemetry blob (JSON). Silently ignored if
    /// the sink was not sized for `index` — a job can always attach
    /// without caring whether telemetry collection is active this run.
    pub fn attach(&self, index: usize, json: impl Into<String>) {
        let mut slots = self.slots.lock().expect("telemetry sink lock");
        if let Some(slot) = slots.get_mut(index) {
            *slot = Some(json.into());
        }
    }

    /// A copy of job `index`'s blob, if one was attached.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<String> {
        let slots = self.slots.lock().expect("telemetry sink lock");
        slots.get(index).and_then(Clone::clone)
    }

    /// Number of slots (jobs) the sink is currently sized for.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.lock().expect("telemetry sink lock").len()
    }

    /// `true` when the sink has no slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All blobs in job order (one entry per slot), draining the sink.
    #[must_use]
    pub fn take_all(&self) -> Vec<Option<String>> {
        let mut slots = self.slots.lock().expect("telemetry sink lock");
        std::mem::take(&mut *slots)
    }

    /// Attaches job `index`'s flight-recorder trace blob (JSON). Like
    /// [`TelemetrySink::attach`], silently ignored when out of range.
    pub fn attach_trace(&self, index: usize, json: impl Into<String>) {
        let mut traces = self.trace_slots.lock().expect("trace sink lock");
        if let Some(slot) = traces.get_mut(index) {
            *slot = Some(json.into());
        }
    }

    /// A copy of job `index`'s trace blob, if one was attached.
    #[must_use]
    pub fn get_trace(&self, index: usize) -> Option<String> {
        let traces = self.trace_slots.lock().expect("trace sink lock");
        traces.get(index).and_then(Clone::clone)
    }

    /// All trace blobs in job order, draining the trace slots.
    #[must_use]
    pub fn take_all_traces(&self) -> Vec<Option<String>> {
        let mut traces = self.trace_slots.lock().expect("trace sink lock");
        std::mem::take(&mut *traces)
    }

    /// Sets the delivery interval between streaming-privacy snapshots.
    /// Zero (the default) disables the privacy observatory.
    pub fn set_privacy_interval(&self, interval: usize) {
        self.privacy_interval.store(interval, Ordering::Relaxed);
    }

    /// The privacy snapshot interval for this run (0 = observatory off).
    #[must_use]
    pub fn privacy_interval(&self) -> usize {
        self.privacy_interval.load(Ordering::Relaxed)
    }

    /// Attaches job `index`'s privacy-series blob (JSON). Like
    /// [`TelemetrySink::attach`], silently ignored when out of range.
    pub fn attach_privacy(&self, index: usize, json: impl Into<String>) {
        let mut privacy = self.privacy_slots.lock().expect("privacy sink lock");
        if let Some(slot) = privacy.get_mut(index) {
            *slot = Some(json.into());
        }
    }

    /// A copy of job `index`'s privacy blob, if one was attached.
    #[must_use]
    pub fn get_privacy(&self, index: usize) -> Option<String> {
        let privacy = self.privacy_slots.lock().expect("privacy sink lock");
        privacy.get(index).and_then(Clone::clone)
    }

    /// All privacy blobs in job order, draining the privacy slots.
    #[must_use]
    pub fn take_all_privacy(&self) -> Vec<Option<String>> {
        let mut privacy = self.privacy_slots.lock().expect("privacy sink lock");
        std::mem::take(&mut *privacy)
    }

    /// Sets the phase-switch batch span-tracing jobs should profile
    /// with. Zero (the default) disables span tracing and profiling.
    pub fn set_span_batch(&self, batch: usize) {
        self.span_batch.store(batch, Ordering::Relaxed);
    }

    /// The phase-switch batch for this run (0 = span tracing off).
    #[must_use]
    pub fn span_batch(&self) -> usize {
        self.span_batch.load(Ordering::Relaxed)
    }

    /// Sets the root trace context (raw trace id + root span id) for
    /// this sink's spans. Survives [`TelemetrySink::reset`]; a zero
    /// trace id means "no root context".
    pub fn set_root_ctx(&self, trace_id: u64, span_id: u64) {
        self.root_trace_id.store(trace_id, Ordering::Relaxed);
        self.root_span_id.store(span_id, Ordering::Relaxed);
    }

    /// The root `(trace id, span id)` pair, if one was set.
    #[must_use]
    pub fn root_ctx(&self) -> Option<(u64, u64)> {
        let trace_id = self.root_trace_id.load(Ordering::Relaxed);
        if trace_id == 0 {
            return None;
        }
        Some((trace_id, self.root_span_id.load(Ordering::Relaxed)))
    }

    /// The instant job spans measure from (fixed at construction, so
    /// every job attached to this sink shares one time zero).
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Attaches job `index`'s span/profile blob (JSON). Like
    /// [`TelemetrySink::attach`], silently ignored when out of range.
    pub fn attach_spans(&self, index: usize, json: impl Into<String>) {
        let mut spans = self.span_slots.lock().expect("span sink lock");
        if let Some(slot) = spans.get_mut(index) {
            *slot = Some(json.into());
        }
    }

    /// A copy of job `index`'s span blob, if one was attached.
    #[must_use]
    pub fn get_spans(&self, index: usize) -> Option<String> {
        let spans = self.span_slots.lock().expect("span sink lock");
        spans.get(index).and_then(Clone::clone)
    }

    /// All span blobs in job order, draining the span slots.
    #[must_use]
    pub fn take_all_spans(&self) -> Vec<Option<String>> {
        let mut spans = self.span_slots.lock().expect("span sink lock");
        std::mem::take(&mut *spans)
    }

    /// Sets the checkpoint window (events per digest window) audit-probe
    /// jobs should digest with. Zero (the default) disables auditing.
    pub fn set_digest_window(&self, window: usize) {
        self.digest_window.store(window, Ordering::Relaxed);
    }

    /// The audit checkpoint window for this run (0 = auditing off).
    #[must_use]
    pub fn digest_window(&self) -> usize {
        self.digest_window.load(Ordering::Relaxed)
    }

    /// Attaches job `index`'s audit-digest blob (JSON). Like
    /// [`TelemetrySink::attach`], silently ignored when out of range.
    pub fn attach_audit(&self, index: usize, json: impl Into<String>) {
        let mut audits = self.audit_slots.lock().expect("audit sink lock");
        if let Some(slot) = audits.get_mut(index) {
            *slot = Some(json.into());
        }
    }

    /// A copy of job `index`'s audit blob, if one was attached.
    #[must_use]
    pub fn get_audit(&self, index: usize) -> Option<String> {
        let audits = self.audit_slots.lock().expect("audit sink lock");
        audits.get(index).and_then(Clone::clone)
    }

    /// All audit blobs in job order, draining the audit slots.
    #[must_use]
    pub fn take_all_audit(&self) -> Vec<Option<String>> {
        let mut audits = self.audit_slots.lock().expect("audit sink lock");
        std::mem::take(&mut *audits)
    }

    /// Turns per-job allocation-ledger collection on or off for this
    /// run. Off (the default) means jobs neither enable the counting
    /// allocator nor attach mem blobs.
    pub fn set_mem_profile(&self, on: bool) {
        self.mem_profile.store(usize::from(on), Ordering::Relaxed);
    }

    /// Whether jobs should collect allocation ledgers this run.
    #[must_use]
    pub fn mem_profile(&self) -> bool {
        self.mem_profile.load(Ordering::Relaxed) != 0
    }

    /// Attaches job `index`'s allocation-ledger blob (JSON). Like
    /// [`TelemetrySink::attach`], silently ignored when out of range.
    pub fn attach_mem(&self, index: usize, json: impl Into<String>) {
        let mut mems = self.mem_slots.lock().expect("mem sink lock");
        if let Some(slot) = mems.get_mut(index) {
            *slot = Some(json.into());
        }
    }

    /// A copy of job `index`'s mem blob, if one was attached.
    #[must_use]
    pub fn get_mem(&self, index: usize) -> Option<String> {
        let mems = self.mem_slots.lock().expect("mem sink lock");
        mems.get(index).and_then(Clone::clone)
    }

    /// All mem blobs in job order, draining the mem slots.
    #[must_use]
    pub fn take_all_mem(&self) -> Vec<Option<String>> {
        let mut mems = self.mem_slots.lock().expect("mem sink lock");
        std::mem::take(&mut *mems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attach_and_take_in_job_order() {
        let sink = TelemetrySink::new();
        sink.reset(3);
        sink.attach(2, "{\"c\":1}");
        sink.attach(0, "{\"a\":1}");
        assert_eq!(sink.get(0).as_deref(), Some("{\"a\":1}"));
        assert_eq!(sink.get(1), None);
        let all = sink.take_all();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].as_deref(), Some("{\"a\":1}"));
        assert_eq!(all[1], None);
        assert_eq!(all[2].as_deref(), Some("{\"c\":1}"));
        assert!(sink.is_empty(), "take_all drains");
    }

    #[test]
    fn attach_out_of_range_is_ignored() {
        let sink = TelemetrySink::new();
        sink.reset(1);
        sink.attach(5, "{}");
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.get(5), None);
    }

    #[test]
    fn reset_clears_previous_run() {
        let sink = TelemetrySink::new();
        sink.reset(2);
        sink.attach(0, "old");
        sink.reset(2);
        assert_eq!(sink.get(0), None);
    }

    #[test]
    fn trace_slots_mirror_telemetry_slots() {
        let sink = TelemetrySink::new();
        sink.reset(2);
        sink.attach_trace(1, "{\"events\":[]}");
        assert_eq!(sink.get_trace(0), None);
        assert_eq!(sink.get_trace(1).as_deref(), Some("{\"events\":[]}"));
        sink.attach_trace(7, "{}"); // out of range: ignored
        let all = sink.take_all_traces();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].as_deref(), Some("{\"events\":[]}"));
        sink.reset(1);
        assert_eq!(sink.get_trace(1), None, "reset clears trace slots");
    }

    #[test]
    fn trace_capacity_defaults_to_off() {
        let sink = TelemetrySink::new();
        assert_eq!(sink.trace_capacity(), 0);
        sink.set_trace_capacity(4096);
        assert_eq!(sink.trace_capacity(), 4096);
    }

    #[test]
    fn privacy_slots_mirror_telemetry_slots() {
        let sink = TelemetrySink::new();
        sink.reset(2);
        sink.attach_privacy(1, "{\"points\":[]}");
        assert_eq!(sink.get_privacy(0), None);
        assert_eq!(sink.get_privacy(1).as_deref(), Some("{\"points\":[]}"));
        sink.attach_privacy(7, "{}"); // out of range: ignored
        let all = sink.take_all_privacy();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].as_deref(), Some("{\"points\":[]}"));
        sink.reset(1);
        assert_eq!(sink.get_privacy(1), None, "reset clears privacy slots");
    }

    #[test]
    fn privacy_interval_defaults_to_off() {
        let sink = TelemetrySink::new();
        assert_eq!(sink.privacy_interval(), 0);
        sink.set_privacy_interval(100);
        assert_eq!(sink.privacy_interval(), 100);
    }

    #[test]
    fn span_slots_mirror_telemetry_slots() {
        let sink = TelemetrySink::new();
        sink.reset(2);
        sink.attach_spans(1, "{\"spans\":[]}");
        assert_eq!(sink.get_spans(0), None);
        assert_eq!(sink.get_spans(1).as_deref(), Some("{\"spans\":[]}"));
        sink.attach_spans(7, "{}"); // out of range: ignored
        let all = sink.take_all_spans();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].as_deref(), Some("{\"spans\":[]}"));
        sink.reset(1);
        assert_eq!(sink.get_spans(1), None, "reset clears span slots");
    }

    #[test]
    fn span_batch_defaults_to_off() {
        let sink = TelemetrySink::new();
        assert_eq!(sink.span_batch(), 0);
        sink.set_span_batch(64);
        assert_eq!(sink.span_batch(), 64);
    }

    #[test]
    fn audit_slots_mirror_telemetry_slots() {
        let sink = TelemetrySink::new();
        sink.reset(2);
        sink.attach_audit(1, "{\"root\":\"00\"}");
        assert_eq!(sink.get_audit(0), None);
        assert_eq!(sink.get_audit(1).as_deref(), Some("{\"root\":\"00\"}"));
        sink.attach_audit(7, "{}"); // out of range: ignored
        let all = sink.take_all_audit();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].as_deref(), Some("{\"root\":\"00\"}"));
        sink.reset(1);
        assert_eq!(sink.get_audit(1), None, "reset clears audit slots");
    }

    #[test]
    fn digest_window_defaults_to_off() {
        let sink = TelemetrySink::new();
        assert_eq!(sink.digest_window(), 0);
        sink.set_digest_window(4096);
        assert_eq!(sink.digest_window(), 4096);
    }

    #[test]
    fn mem_slots_mirror_telemetry_slots() {
        let sink = TelemetrySink::new();
        sink.reset(2);
        sink.attach_mem(1, "{\"slots\":[]}");
        assert_eq!(sink.get_mem(0), None);
        assert_eq!(sink.get_mem(1).as_deref(), Some("{\"slots\":[]}"));
        sink.attach_mem(7, "{}"); // out of range: ignored
        let all = sink.take_all_mem();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].as_deref(), Some("{\"slots\":[]}"));
        sink.reset(1);
        assert_eq!(sink.get_mem(1), None, "reset clears mem slots");
    }

    #[test]
    fn mem_profile_defaults_to_off() {
        let sink = TelemetrySink::new();
        assert!(!sink.mem_profile());
        sink.set_mem_profile(true);
        assert!(sink.mem_profile());
        sink.set_mem_profile(false);
        assert!(!sink.mem_profile());
    }

    #[test]
    fn node_metrics_defaults_to_on() {
        let sink = TelemetrySink::new();
        assert!(sink.node_metrics());
        sink.set_node_metrics(false);
        assert!(!sink.node_metrics());
        sink.reset(2);
        assert!(!sink.node_metrics(), "the gate survives reset");
        sink.set_node_metrics(true);
        assert!(sink.node_metrics());
    }

    #[test]
    fn root_ctx_survives_reset() {
        let sink = TelemetrySink::new();
        assert_eq!(sink.root_ctx(), None);
        sink.set_root_ctx(0xabc, 0xdef);
        sink.reset(3);
        assert_eq!(sink.root_ctx(), Some((0xabc, 0xdef)));
        let early = sink.epoch();
        assert!(sink.epoch() == early, "epoch is fixed at construction");
    }
}
