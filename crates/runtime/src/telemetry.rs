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

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One per-job blob family. Each family has one slot per job in the
/// [`TelemetrySink`], one setting there, and one blob key in the job's
/// manifest record, named by [`BlobKind::name`].
///
/// | kind | blob | setting (0 = off) |
/// |---|---|---|
/// | `Telemetry` | per-node metrics: occupancy series, theory checks | on/off, **on by default** |
/// | `Trace` | flight-recorder packet lifecycles | ring capacity |
/// | `Privacy` | streaming privacy-observatory series | snapshot interval |
/// | `Spans` | cross-layer spans and phase profiles | phase-switch batch |
/// | `Audit` | determinism-audit digests | checkpoint window |
/// | `Mem` | allocation ledgers | on/off |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlobKind {
    /// Per-node metrics (recording probe plus theory report).
    Telemetry,
    /// Flight-recorder traces.
    Trace,
    /// Streaming privacy series.
    Privacy,
    /// Span/profile records.
    Spans,
    /// Determinism-audit digests.
    Audit,
    /// Allocation ledgers.
    Mem,
}

impl BlobKind {
    /// Every family, in manifest key order.
    pub const ALL: [BlobKind; 6] = [
        BlobKind::Telemetry,
        BlobKind::Trace,
        BlobKind::Privacy,
        BlobKind::Spans,
        BlobKind::Audit,
        BlobKind::Mem,
    ];

    /// The family's key in a manifest [`JobRecord`](crate::JobRecord).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            BlobKind::Telemetry => "telemetry",
            BlobKind::Trace => "trace",
            BlobKind::Privacy => "privacy",
            BlobKind::Spans => "spans",
            BlobKind::Audit => "audit",
            BlobKind::Mem => "mem",
        }
    }
}

/// A slot-per-job mailbox for telemetry blobs, shared between the
/// runtime and job closures.
///
/// Thread-safe: jobs run on pool workers, each writing only its own
/// slot. The sink keeps one slot table per [`BlobKind`] and one setting
/// per kind, which tells jobs whether (and how) to record that family:
/// 0 means off. Only [`BlobKind::Telemetry`] defaults to on (1), so
/// per-node metrics are recorded unless a caller switches them off.
///
/// A serve job records the audit family always; privacy, spans and
/// flight only when its spec asks; per-node metrics never — no serve
/// endpoint reads that blob, and it is the largest one a job makes.
///
/// For span tracing the sink also carries a root trace context — two
/// raw ids set by the layer that minted the trace (e.g. the HTTP
/// server) — and an epoch instant fixed at construction, which job
/// spans use as their time zero. Both, like the settings, survive
/// [`TelemetrySink::reset`] so per-run reslotting cannot race a caller
/// that configured the sink before submitting work.
#[derive(Debug)]
pub struct TelemetrySink {
    slots: Mutex<[Vec<Option<String>>; 6]>,
    settings: [AtomicUsize; 6],
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
    /// An empty sink with every family off but per-node metrics;
    /// [`TelemetrySink::reset`] sizes it per run.
    #[must_use]
    pub fn new() -> Self {
        TelemetrySink {
            slots: Mutex::default(),
            settings: BlobKind::ALL
                .map(|kind| AtomicUsize::new(usize::from(kind == BlobKind::Telemetry))),
            root_trace_id: AtomicU64::new(0),
            root_span_id: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Clears every family and resizes it to `jobs` empty slots. Called
    /// by the runtime at the start of each run.
    pub fn reset(&self, jobs: usize) {
        for slots in self.slots.lock().expect("telemetry sink lock").iter_mut() {
            slots.clear();
            slots.resize(jobs, None);
        }
    }

    /// Sets `kind`'s setting for jobs to read: the flight-recorder ring
    /// capacity, privacy snapshot interval, phase-switch batch or audit
    /// checkpoint window, or 1 to switch the on/off families (per-node
    /// metrics, allocation ledgers) on. Zero switches the family off.
    pub fn set(&self, kind: BlobKind, value: usize) {
        self.settings[kind as usize].store(value, Ordering::Relaxed);
    }

    /// `kind`'s setting for this run (0 = off).
    #[must_use]
    pub fn setting(&self, kind: BlobKind) -> usize {
        self.settings[kind as usize].load(Ordering::Relaxed)
    }

    /// Attaches job `index`'s `kind` blob (JSON). Silently ignored if
    /// the sink was not sized for `index` — a job can always attach
    /// without caring whether telemetry collection is active this run.
    pub fn attach(&self, kind: BlobKind, index: usize, json: impl Into<String>) {
        let mut slots = self.slots.lock().expect("telemetry sink lock");
        if let Some(slot) = slots[kind as usize].get_mut(index) {
            *slot = Some(json.into());
        }
    }

    /// A copy of job `index`'s `kind` blob, if one was attached.
    #[must_use]
    pub fn get(&self, kind: BlobKind, index: usize) -> Option<String> {
        let slots = self.slots.lock().expect("telemetry sink lock");
        slots[kind as usize].get(index).and_then(Clone::clone)
    }

    /// All `kind` blobs in job order (one entry per slot), draining that
    /// family's slots.
    #[must_use]
    pub fn take_all(&self, kind: BlobKind) -> Vec<Option<String>> {
        let mut slots = self.slots.lock().expect("telemetry sink lock");
        std::mem::take(&mut slots[kind as usize])
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attach_and_take_in_job_order() {
        let sink = TelemetrySink::new();
        sink.reset(3);
        sink.attach(BlobKind::Telemetry, 2, "{\"c\":1}");
        sink.attach(BlobKind::Telemetry, 0, "{\"a\":1}");
        assert_eq!(
            sink.get(BlobKind::Telemetry, 0).as_deref(),
            Some("{\"a\":1}")
        );
        assert_eq!(sink.get(BlobKind::Telemetry, 1), None);
        let all = sink.take_all(BlobKind::Telemetry);
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].as_deref(), Some("{\"a\":1}"));
        assert_eq!(all[1], None);
        assert_eq!(all[2].as_deref(), Some("{\"c\":1}"));
        assert!(
            sink.take_all(BlobKind::Telemetry).is_empty(),
            "take_all drains"
        );
    }

    #[test]
    fn attach_out_of_range_is_ignored() {
        let sink = TelemetrySink::new();
        sink.reset(1);
        sink.attach(BlobKind::Telemetry, 5, "{}");
        assert_eq!(sink.get(BlobKind::Telemetry, 5), None);
        assert_eq!(sink.take_all(BlobKind::Telemetry).len(), 1);
    }

    #[test]
    fn reset_clears_previous_run() {
        let sink = TelemetrySink::new();
        sink.reset(2);
        sink.attach(BlobKind::Telemetry, 0, "old");
        sink.reset(2);
        assert_eq!(sink.get(BlobKind::Telemetry, 0), None);
    }

    #[test]
    fn every_kind_has_its_own_slots() {
        let sink = TelemetrySink::new();
        sink.reset(2);
        for kind in BlobKind::ALL {
            sink.attach(kind, 1, kind.name());
            sink.attach(kind, 7, "{}"); // out of range: ignored
        }
        for kind in BlobKind::ALL {
            assert_eq!(sink.get(kind, 0), None);
            assert_eq!(sink.get(kind, 1).as_deref(), Some(kind.name()));
        }
        // Draining one family leaves the others in place.
        let trace = sink.take_all(BlobKind::Trace);
        assert_eq!(trace, vec![None, Some("trace".to_string())]);
        assert_eq!(sink.get(BlobKind::Trace, 1), None);
        assert_eq!(sink.get(BlobKind::Mem, 1).as_deref(), Some("mem"));
        sink.reset(2);
        for kind in BlobKind::ALL {
            assert_eq!(sink.get(kind, 1), None, "reset clears {}", kind.name());
        }
    }

    #[test]
    fn only_node_metrics_default_on_and_settings_survive_reset() {
        let sink = TelemetrySink::new();
        for kind in BlobKind::ALL {
            let default = usize::from(kind == BlobKind::Telemetry);
            assert_eq!(sink.setting(kind), default, "{}", kind.name());
        }
        for (value, kind) in (10..).zip(BlobKind::ALL) {
            sink.set(kind, value);
        }
        sink.reset(2);
        for (value, kind) in (10..).zip(BlobKind::ALL) {
            assert_eq!(sink.setting(kind), value, "{} is independent", kind.name());
        }
        sink.set(BlobKind::Telemetry, 0);
        assert_eq!(sink.setting(BlobKind::Telemetry), 0);
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
