//! Observability for the temporal-privacy stack.
//!
//! The paper's queueing analysis (§4) predicts exactly what a healthy run
//! looks like: M/M/∞ node occupancy is Poisson(ρ = λ/μ), finite buffers
//! drop at the Erlang loss rate `E(ρ, k)`, and RCAD converts those drops
//! into preemptions. This crate makes those quantities observable:
//!
//! * [`registry`] — a dependency-free metrics registry (counters, gauges,
//!   fixed-bin histograms) with cheap index handles and snapshot export to
//!   canonical JSON and the Prometheus text exposition format;
//! * [`probe`] — the [`SimProbe`] trait, whose one method
//!   [`SimProbe::on_event`] receives every [`ProbeEvent`] the simulation
//!   driver reports (packet lifecycle boundaries, occupancy changes, mix
//!   flushes, and the run-end high-water marks and engine accounting), a
//!   zero-overhead [`NullProbe`] default, and a [`RecordingProbe`] that
//!   accumulates per-node occupancy dwell statistics, decimated
//!   occupancy time series, arrival/preemption/drop/flush counts, buffer
//!   high-water marks and delivery latency moments;
//! * [`flight`] — a [`FlightRecorder`] ring buffer of per-packet
//!   lifecycle [`PacketEvent`]s with lineage reconstruction, latency
//!   spectra, and export to JSONL and Chrome `trace_event` JSON;
//! * [`privacy`] — the streaming privacy observatory: a [`PrivacyProbe`]
//!   estimating per-flow `I(X; Z)` and adversary MSE online, with
//!   journaled convergence snapshots and per-flow privacy gauges;
//! * [`profiler`] — the engine self-profiler: a [`PhaseProfiler`]
//!   attributing wall-time to kernel [`tempriv_sim::profile::Phase`]s
//!   with coarse batched timers (~1 clock read per 64 phase switches);
//! * [`theory`] — [`TheoryCheck`] comparisons of measured telemetry
//!   against the `crates/queueing` predictions, with configurable
//!   tolerances, collected into a [`TheoryReport`];
//! * [`span`] — wall-clock spans for timing pipeline stages, plus the
//!   cross-layer span tracer ([`TraceCtx`], [`SpanRecord`])
//!   whose Chrome-trace export merges with the flight recorder's;
//! * [`memprof`] — the memory observatory: a counting
//!   [`CountingAlloc`] global-allocator wrapper with thread-local
//!   [`MemScopeTimer`] attribution to kernel phases,
//!   serializable [`MemBreakdown`] ledgers, and peak-RSS gauges;
//! * [`audit`] — the determinism observatory: a [`DigestProbe`] folding
//!   the packet events into windowed checkpoint digests and a
//!   Merkle-style run root, [`audit::diff`] naming the first divergent
//!   window between two runs, and the canonical [`audit::digest`]
//!   content-identity primitives shared by the runtime cache, serve
//!   keys, and outcome fingerprints.
//!
//! # Determinism contract
//!
//! Probes observe; they never act. A probe must not consume RNG draws,
//! schedule or cancel events, or otherwise perturb the simulation.
//! [`RecordingProbe`] honors this by construction (it only accumulates),
//! and the driver-side integration is verified by byte-identical-output
//! tests with probes on vs. off.

#![warn(missing_docs)]

pub mod audit;
pub mod flight;
pub mod memprof;
pub mod privacy;
pub mod probe;
pub mod profiler;
pub mod registry;
pub mod span;
pub mod theory;

pub use audit::{
    diff, first_divergent_event, fold_root, CapturedEvent, DiffReport, DigestProbe, Divergence,
    EventDivergence, RunDigest, WindowCapture, WindowDigest, DEFAULT_DIGEST_WINDOW,
};
pub use memprof::{
    CountingAlloc, MemBreakdown, MemScopeTimer, MemSnapshot, SlotMem, ThreadMemSnapshot,
};

pub use flight::{
    FlightEvent, FlightLog, FlightRecorder, FlowAoi, HopResidence, LatencySpectra, LineageOutcome,
    PacketEvent, PacketEventKind, PacketLineage, DEFAULT_FLIGHT_CAPACITY,
};
pub use privacy::{
    BtqParams, FlowPrivacyConfig, FlowPrivacySummary, PrivacyPoint, PrivacyProbe, PrivacySeries,
    DEFAULT_PRIVACY_SERIES_CAPACITY,
};
pub use probe::{NodeTelemetry, NullProbe, ProbeEvent, RecordingProbe, SimProbe, SimTelemetry};
pub use profiler::{PhaseBreakdown, PhaseProfiler, PhaseStat, DEFAULT_PHASE_BATCH};
pub use registry::{
    CounterId, GaugeId, HistogramId, HistogramSample, MetricsRegistry, TelemetrySnapshot,
};
pub use span::{
    chrome_span_events, json_escape, wrap_chrome_events, SpanRecord, SpanSet, TraceCtx,
};
pub use theory::{TheoryCheck, TheoryReport, TheoryTolerance};
