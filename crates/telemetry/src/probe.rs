//! Simulation probes.
//!
//! The simulation driver calls [`SimProbe`] at event boundaries; probes
//! observe and accumulate but never act, so an instrumented run schedules
//! exactly the same events and consumes exactly the same RNG draws as an
//! uninstrumented one. [`NullProbe`] is the zero-overhead default;
//! [`RecordingProbe`] records per-node occupancy dwell statistics, a
//! decimated occupancy time series, preemption/drop/flush counters,
//! buffer high-water marks, delivery latency moments, and a bounded
//! [`Trace`] of recent probe events.

use serde::{Deserialize, Serialize};
use tempriv_sim::stats::{OnlineStats, StateDwell};
use tempriv_sim::time::SimTime;
use tempriv_sim::trace::Trace;

use crate::flight::PacketEvent;

/// Observer hooks called by the simulation driver at event boundaries.
///
/// Every method has a no-op default, so a probe implements only what it
/// needs. `node` and `flow` are dense indices assigned by the driver.
///
/// # Determinism contract
///
/// Implementations must not consume RNG draws, mutate simulation state,
/// or block; the driver guarantees hook order is a pure function of the
/// event sequence.
pub trait SimProbe {
    /// `false` only for probes whose every hook is a no-op, such as
    /// [`NullProbe`]. The driver then skips each hook call, and the
    /// profiler phase switch around it, at compile time.
    const ACTIVE: bool = true;

    /// `true` if hooks on this value can observe anything. Defaults to
    /// [`SimProbe::ACTIVE`]; an empty `Option` probe reports `false`.
    fn is_active(&self) -> bool {
        Self::ACTIVE
    }

    /// A node's buffer occupancy changed to `depth` at time `now`.
    fn on_occupancy(&mut self, node: usize, now: SimTime, depth: u64) {
        let _ = (node, now, depth);
    }

    /// RCAD preempted a buffered packet at `node`.
    fn on_preemption(&mut self, node: usize, now: SimTime) {
        let _ = (node, now);
    }

    /// A finite buffer dropped an arriving packet at `node`.
    fn on_drop(&mut self, node: usize, now: SimTime) {
        let _ = (node, now);
    }

    /// A threshold mix flushed `batch` packets from `node`.
    fn on_flush(&mut self, node: usize, now: SimTime, batch: u64) {
        let _ = (node, now, batch);
    }

    /// A packet arrived at a buffering node (before admission control).
    fn on_arrival(&mut self, node: usize, now: SimTime) {
        let _ = (node, now);
    }

    /// A packet from `flow` reached the sink with end-to-end `latency`.
    fn on_delivery(&mut self, flow: usize, now: SimTime, latency: f64) {
        let _ = (flow, now, latency);
    }

    /// Final buffer high-water mark for `node`, reported once at run end.
    fn on_high_water(&mut self, node: usize, high_water: u64) {
        let _ = (node, high_water);
    }

    /// A packet crossed a lifecycle boundary (created, enqueued,
    /// preempted, departed, dropped, or arrived at the sink). Fired for
    /// every packet on every hop, so implementations should be cheap; the
    /// [`crate::flight::FlightRecorder`] retains these in a bounded ring.
    fn on_packet(&mut self, now: SimTime, event: PacketEvent) {
        let _ = (now, event);
    }

    /// Engine accounting reported once at run end: total events the
    /// engine delivered and the peak size of the future-event set.
    /// Deterministic — both are pure functions of the event sequence.
    fn on_engine_stats(&mut self, events: u64, peak_fes: u64) {
        let _ = (events, peak_fes);
    }

    /// Future-event-queue accounting reported once at run end: the final
    /// physical heap footprint (live entries plus uncollected
    /// cancellation tombstones) and the number of tombstone compaction
    /// passes. Deterministic — both are pure functions of the
    /// push/cancel history.
    fn on_queue_stats(&mut self, footprint: u64, compactions: u64) {
        let _ = (footprint, compactions);
    }

    /// The run ended at `end` (stop reason already resolved).
    fn on_run_end(&mut self, end: SimTime) {
        let _ = end;
    }
}

/// The do-nothing probe: every hook is the no-op default, so the
/// instrumentation cost of an unprobed run is a single predictable branch
/// per event.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullProbe;

impl SimProbe for NullProbe {
    const ACTIVE: bool = false;
}

/// A mutable reference to a probe is itself a probe, so long-lived
/// probes can be lent to a run (e.g. inside a pair) without moving
/// ownership.
impl<P: SimProbe + ?Sized> SimProbe for &mut P {
    const ACTIVE: bool = P::ACTIVE;

    fn is_active(&self) -> bool {
        (**self).is_active()
    }

    fn on_occupancy(&mut self, node: usize, now: SimTime, depth: u64) {
        (**self).on_occupancy(node, now, depth);
    }

    fn on_preemption(&mut self, node: usize, now: SimTime) {
        (**self).on_preemption(node, now);
    }

    fn on_drop(&mut self, node: usize, now: SimTime) {
        (**self).on_drop(node, now);
    }

    fn on_flush(&mut self, node: usize, now: SimTime, batch: u64) {
        (**self).on_flush(node, now, batch);
    }

    fn on_arrival(&mut self, node: usize, now: SimTime) {
        (**self).on_arrival(node, now);
    }

    fn on_delivery(&mut self, flow: usize, now: SimTime, latency: f64) {
        (**self).on_delivery(flow, now, latency);
    }

    fn on_high_water(&mut self, node: usize, high_water: u64) {
        (**self).on_high_water(node, high_water);
    }

    fn on_packet(&mut self, now: SimTime, event: PacketEvent) {
        (**self).on_packet(now, event);
    }

    fn on_engine_stats(&mut self, events: u64, peak_fes: u64) {
        (**self).on_engine_stats(events, peak_fes);
    }

    fn on_queue_stats(&mut self, footprint: u64, compactions: u64) {
        (**self).on_queue_stats(footprint, compactions);
    }

    fn on_run_end(&mut self, end: SimTime) {
        (**self).on_run_end(end);
    }
}

/// Fan-out: a pair of probes is itself a probe, with every hook forwarded
/// to both members in order. Lets a run collect aggregate metrics and a
/// packet-level flight recording in one pass, e.g.
/// `(RecordingProbe::new(n), FlightRecorder::new())`.
impl<A: SimProbe, B: SimProbe> SimProbe for (A, B) {
    const ACTIVE: bool = A::ACTIVE || B::ACTIVE;

    fn is_active(&self) -> bool {
        self.0.is_active() || self.1.is_active()
    }

    fn on_occupancy(&mut self, node: usize, now: SimTime, depth: u64) {
        self.0.on_occupancy(node, now, depth);
        self.1.on_occupancy(node, now, depth);
    }

    fn on_preemption(&mut self, node: usize, now: SimTime) {
        self.0.on_preemption(node, now);
        self.1.on_preemption(node, now);
    }

    fn on_drop(&mut self, node: usize, now: SimTime) {
        self.0.on_drop(node, now);
        self.1.on_drop(node, now);
    }

    fn on_flush(&mut self, node: usize, now: SimTime, batch: u64) {
        self.0.on_flush(node, now, batch);
        self.1.on_flush(node, now, batch);
    }

    fn on_arrival(&mut self, node: usize, now: SimTime) {
        self.0.on_arrival(node, now);
        self.1.on_arrival(node, now);
    }

    fn on_delivery(&mut self, flow: usize, now: SimTime, latency: f64) {
        self.0.on_delivery(flow, now, latency);
        self.1.on_delivery(flow, now, latency);
    }

    fn on_high_water(&mut self, node: usize, high_water: u64) {
        self.0.on_high_water(node, high_water);
        self.1.on_high_water(node, high_water);
    }

    fn on_packet(&mut self, now: SimTime, event: PacketEvent) {
        self.0.on_packet(now, event);
        self.1.on_packet(now, event);
    }

    fn on_engine_stats(&mut self, events: u64, peak_fes: u64) {
        self.0.on_engine_stats(events, peak_fes);
        self.1.on_engine_stats(events, peak_fes);
    }

    fn on_queue_stats(&mut self, footprint: u64, compactions: u64) {
        self.0.on_queue_stats(footprint, compactions);
        self.1.on_queue_stats(footprint, compactions);
    }

    fn on_run_end(&mut self, end: SimTime) {
        self.0.on_run_end(end);
        self.1.on_run_end(end);
    }
}

/// An optional probe: `Some(p)` forwards every hook to `p`, `None` is a
/// [`NullProbe`] at the cost of one predictable branch per hook. Lets a
/// caller stack a run-time-chosen set of observers into one statically
/// typed probe instead of matching over every on/off combination.
impl<P: SimProbe> SimProbe for Option<P> {
    const ACTIVE: bool = P::ACTIVE;

    fn is_active(&self) -> bool {
        self.as_ref().is_some_and(P::is_active)
    }

    fn on_occupancy(&mut self, node: usize, now: SimTime, depth: u64) {
        if let Some(p) = self {
            p.on_occupancy(node, now, depth);
        }
    }

    fn on_preemption(&mut self, node: usize, now: SimTime) {
        if let Some(p) = self {
            p.on_preemption(node, now);
        }
    }

    fn on_drop(&mut self, node: usize, now: SimTime) {
        if let Some(p) = self {
            p.on_drop(node, now);
        }
    }

    fn on_flush(&mut self, node: usize, now: SimTime, batch: u64) {
        if let Some(p) = self {
            p.on_flush(node, now, batch);
        }
    }

    fn on_arrival(&mut self, node: usize, now: SimTime) {
        if let Some(p) = self {
            p.on_arrival(node, now);
        }
    }

    fn on_delivery(&mut self, flow: usize, now: SimTime, latency: f64) {
        if let Some(p) = self {
            p.on_delivery(flow, now, latency);
        }
    }

    fn on_high_water(&mut self, node: usize, high_water: u64) {
        if let Some(p) = self {
            p.on_high_water(node, high_water);
        }
    }

    fn on_packet(&mut self, now: SimTime, event: PacketEvent) {
        if let Some(p) = self {
            p.on_packet(now, event);
        }
    }

    fn on_engine_stats(&mut self, events: u64, peak_fes: u64) {
        if let Some(p) = self {
            p.on_engine_stats(events, peak_fes);
        }
    }

    fn on_queue_stats(&mut self, footprint: u64, compactions: u64) {
        if let Some(p) = self {
            p.on_queue_stats(footprint, compactions);
        }
    }

    fn on_run_end(&mut self, end: SimTime) {
        if let Some(p) = self {
            p.on_run_end(end);
        }
    }
}

/// One event retained in the [`RecordingProbe`]'s bounded trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeEvent {
    /// Occupancy at `node` changed to `depth`.
    Occupancy {
        /// Node index.
        node: usize,
        /// New buffer depth.
        depth: u64,
    },
    /// RCAD preemption at `node`.
    Preemption {
        /// Node index.
        node: usize,
    },
    /// Buffer drop at `node`.
    Drop {
        /// Node index.
        node: usize,
    },
    /// Mix flush of `batch` packets at `node`.
    Flush {
        /// Node index.
        node: usize,
        /// Packets flushed together.
        batch: u64,
    },
    /// Delivery of a packet from `flow`.
    Delivery {
        /// Flow index.
        flow: usize,
    },
}

/// A deterministic, bounded occupancy time series.
///
/// Keeps at most `cap` points. Every `stride`-th sample is kept; when the
/// buffer fills, every other retained point is discarded and the stride
/// doubles. The decimation depends only on the sample sequence, never on
/// wall-clock or randomness, so instrumented reruns produce identical
/// series.
#[derive(Debug, Clone)]
struct DecimatingSeries {
    cap: usize,
    stride: u64,
    seen: u64,
    points: Vec<(f64, u64)>,
}

impl DecimatingSeries {
    fn new(cap: usize) -> Self {
        DecimatingSeries {
            cap: cap.max(2),
            stride: 1,
            seen: 0,
            points: Vec::new(),
        }
    }

    fn push(&mut self, now: SimTime, value: u64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.points.len() >= self.cap {
                let kept: Vec<_> = self.points.iter().copied().step_by(2).collect();
                self.points = kept;
                self.stride *= 2;
            }
            self.points.push((now.as_units(), value));
        }
        self.seen += 1;
    }
}

/// Per-node accumulation state inside a [`RecordingProbe`].
#[derive(Debug, Clone)]
struct NodeState {
    dwell: StateDwell,
    series: DecimatingSeries,
    arrivals: u64,
    preemptions: u64,
    drops: u64,
    flushes: u64,
    flushed_packets: u64,
    high_water: u64,
    peak: u64,
}

impl NodeState {
    fn new(series_cap: usize) -> Self {
        NodeState {
            dwell: StateDwell::new(SimTime::from_ticks(0), 0),
            series: DecimatingSeries::new(series_cap),
            arrivals: 0,
            preemptions: 0,
            drops: 0,
            flushes: 0,
            flushed_packets: 0,
            high_water: 0,
            peak: 0,
        }
    }
}

/// A [`SimProbe`] that records everything the telemetry export needs.
///
/// Create one per run with [`RecordingProbe::new`], hand it to the
/// driver, then call [`RecordingProbe::finish`] to extract the
/// serializable [`SimTelemetry`]. Reuse across runs via
/// [`RecordingProbe::reset`], which also clears the bounded event trace.
#[derive(Debug)]
pub struct RecordingProbe {
    nodes: Vec<NodeState>,
    latency: OnlineStats,
    deliveries: u64,
    trace: Trace<ProbeEvent>,
    end: Option<SimTime>,
    engine_events: u64,
    peak_fes: u64,
    queue_footprint: u64,
    queue_compactions: u64,
}

/// Default capacity of the per-run bounded event trace.
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

/// Default cap on retained occupancy time-series points per node.
pub const DEFAULT_SERIES_CAPACITY: usize = 256;

impl RecordingProbe {
    /// A probe for a simulation with `n_nodes` nodes, using the default
    /// trace and series capacities.
    #[must_use]
    pub fn new(n_nodes: usize) -> Self {
        Self::with_capacities(n_nodes, DEFAULT_TRACE_CAPACITY, DEFAULT_SERIES_CAPACITY)
    }

    /// A probe with explicit trace and per-node series capacities.
    ///
    /// # Panics
    ///
    /// Panics if `trace_cap == 0`.
    #[must_use]
    pub fn with_capacities(n_nodes: usize, trace_cap: usize, series_cap: usize) -> Self {
        RecordingProbe {
            nodes: (0..n_nodes).map(|_| NodeState::new(series_cap)).collect(),
            latency: OnlineStats::new(),
            deliveries: 0,
            trace: Trace::with_capacity(trace_cap),
            end: None,
            engine_events: 0,
            peak_fes: 0,
            queue_footprint: 0,
            queue_compactions: 0,
        }
    }

    /// Clears all accumulated state (including the event trace, via
    /// [`Trace::clear`]) so the probe can instrument another run.
    pub fn reset(&mut self) {
        let series_cap = self
            .nodes
            .first()
            .map_or(DEFAULT_SERIES_CAPACITY, |n| n.series.cap);
        for node in &mut self.nodes {
            *node = NodeState::new(series_cap);
        }
        self.latency = OnlineStats::new();
        self.deliveries = 0;
        self.trace.clear();
        self.end = None;
        self.engine_events = 0;
        self.peak_fes = 0;
        self.queue_footprint = 0;
        self.queue_compactions = 0;
    }

    /// The bounded trace of recent probe events.
    #[must_use]
    pub fn trace(&self) -> &Trace<ProbeEvent> {
        &self.trace
    }

    /// The end time reported through [`SimProbe::on_run_end`], if any.
    #[must_use]
    pub fn end_time(&self) -> Option<SimTime> {
        self.end
    }

    /// Extracts the accumulated state into a serializable summary.
    ///
    /// `end` is the simulation end time; occupancy dwell means and PMFs
    /// are integrated up to it. Use [`RecordingProbe::end_time`] for the
    /// value reported through [`SimProbe::on_run_end`].
    #[must_use]
    pub fn finish(&self, end: SimTime) -> SimTelemetry {
        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let occupancy_pmf = n.dwell.pmf(end);
                NodeTelemetry {
                    node: i,
                    mean_occupancy: StateDwell::pmf_mean(&occupancy_pmf),
                    peak_occupancy: n.peak,
                    high_water: n.high_water,
                    occupancy_pmf,
                    occupancy_series: n.series.points.clone(),
                    arrivals: n.arrivals,
                    preemptions: n.preemptions,
                    drops: n.drops,
                    flushes: n.flushes,
                    flushed_packets: n.flushed_packets,
                }
            })
            .collect();
        SimTelemetry {
            end_time: end.as_units(),
            deliveries: self.deliveries,
            mean_latency: self.latency.mean(),
            max_latency: self.latency.max().unwrap_or(0.0),
            nodes,
            trace_len: self.trace.len() as u64,
            trace_evicted: self.trace.dropped(),
            engine_events: self.engine_events,
            peak_fes: self.peak_fes,
            queue_footprint: self.queue_footprint,
            queue_compactions: self.queue_compactions,
        }
    }
}

impl SimProbe for RecordingProbe {
    fn on_occupancy(&mut self, node: usize, now: SimTime, depth: u64) {
        let n = &mut self.nodes[node];
        n.dwell.transition(now, depth);
        n.series.push(now, depth);
        n.peak = n.peak.max(depth);
        self.trace
            .record(now, ProbeEvent::Occupancy { node, depth });
    }

    fn on_preemption(&mut self, node: usize, now: SimTime) {
        self.nodes[node].preemptions += 1;
        self.trace.record(now, ProbeEvent::Preemption { node });
    }

    fn on_drop(&mut self, node: usize, now: SimTime) {
        self.nodes[node].drops += 1;
        self.trace.record(now, ProbeEvent::Drop { node });
    }

    fn on_flush(&mut self, node: usize, now: SimTime, batch: u64) {
        let n = &mut self.nodes[node];
        n.flushes += 1;
        n.flushed_packets += batch;
        self.trace.record(now, ProbeEvent::Flush { node, batch });
    }

    fn on_arrival(&mut self, node: usize, now: SimTime) {
        let _ = now;
        self.nodes[node].arrivals += 1;
    }

    fn on_delivery(&mut self, flow: usize, now: SimTime, latency: f64) {
        self.deliveries += 1;
        self.latency.record(latency);
        self.trace.record(now, ProbeEvent::Delivery { flow });
    }

    fn on_high_water(&mut self, node: usize, high_water: u64) {
        self.nodes[node].high_water = high_water;
    }

    fn on_engine_stats(&mut self, events: u64, peak_fes: u64) {
        self.engine_events = events;
        self.peak_fes = peak_fes;
    }

    fn on_queue_stats(&mut self, footprint: u64, compactions: u64) {
        self.queue_footprint = footprint;
        self.queue_compactions = compactions;
    }

    fn on_run_end(&mut self, end: SimTime) {
        self.end = Some(end);
    }
}

/// Serializable per-node telemetry extracted from a [`RecordingProbe`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeTelemetry {
    /// Node index in the driver's dense node order.
    pub node: usize,
    /// Time-weighted mean buffer occupancy over the run.
    pub mean_occupancy: f64,
    /// Largest occupancy observed at an event boundary.
    pub peak_occupancy: u64,
    /// Buffer high-water mark reported by the buffer itself.
    pub high_water: u64,
    /// Time-weighted occupancy distribution: `(depth, fraction of time)`.
    pub occupancy_pmf: Vec<(u64, f64)>,
    /// Decimated occupancy time series: `(time, depth)` points.
    pub occupancy_series: Vec<(f64, u64)>,
    /// Packets that arrived at this node's buffer (before admission).
    pub arrivals: u64,
    /// RCAD preemptions performed here.
    pub preemptions: u64,
    /// Packets dropped by a full finite buffer here.
    pub drops: u64,
    /// Threshold-mix flush events here.
    pub flushes: u64,
    /// Total packets released by flush events here.
    pub flushed_packets: u64,
}

impl NodeTelemetry {
    /// Fraction of arrivals preempted (0 when nothing arrived).
    #[must_use]
    pub fn preemption_fraction(&self) -> f64 {
        fraction(self.preemptions, self.arrivals)
    }

    /// Fraction of arrivals dropped (0 when nothing arrived).
    #[must_use]
    pub fn drop_fraction(&self) -> f64 {
        fraction(self.drops, self.arrivals)
    }
}

fn fraction(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Serializable whole-run telemetry extracted from a [`RecordingProbe`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimTelemetry {
    /// Simulation end time in time units.
    pub end_time: f64,
    /// Packets delivered to the sink.
    pub deliveries: u64,
    /// Mean end-to-end delivery latency.
    pub mean_latency: f64,
    /// Maximum end-to-end delivery latency.
    pub max_latency: f64,
    /// Per-node telemetry, in the driver's dense node order.
    pub nodes: Vec<NodeTelemetry>,
    /// Probe-trace records retained at run end.
    pub trace_len: u64,
    /// Probe-trace records evicted by the bounded trace (the
    /// previously-unreadable [`Trace::dropped`] count).
    pub trace_evicted: u64,
    /// Total events the engine delivered (0 for blobs recorded before the
    /// counter existed).
    #[serde(default)]
    pub engine_events: u64,
    /// Peak size of the engine's future-event set (0 for older blobs).
    #[serde(default)]
    pub peak_fes: u64,
    /// Final physical footprint of the future-event heap, including
    /// uncollected cancellation tombstones (0 for older blobs).
    #[serde(default)]
    pub queue_footprint: u64,
    /// Tombstone compaction passes the future-event queue performed
    /// (0 for older blobs).
    #[serde(default)]
    pub queue_compactions: u64,
}

impl SimTelemetry {
    /// Sum of preemptions across nodes.
    #[must_use]
    pub fn total_preemptions(&self) -> u64 {
        self.nodes.iter().map(|n| n.preemptions).sum()
    }

    /// Sum of drops across nodes.
    #[must_use]
    pub fn total_drops(&self) -> u64 {
        self.nodes.iter().map(|n| n.drops).sum()
    }

    /// Sum of flush events across nodes.
    #[must_use]
    pub fn total_flushes(&self) -> u64 {
        self.nodes.iter().map(|n| n.flushes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(u: f64) -> SimTime {
        SimTime::from_units(u)
    }

    #[test]
    fn null_probe_is_inert() {
        let mut p = NullProbe;
        p.on_occupancy(0, t(1.0), 3);
        p.on_drop(0, t(2.0));
        p.on_run_end(t(3.0));
    }

    #[test]
    fn recording_probe_accumulates_dwell_mean() {
        let mut p = RecordingProbe::new(1);
        // Depth 0 on [0,10), 2 on [10,20), 1 on [20,40): mean = (0+20+20)/40.
        p.on_occupancy(0, t(10.0), 2);
        p.on_occupancy(0, t(20.0), 1);
        let telem = p.finish(t(40.0));
        assert!((telem.nodes[0].mean_occupancy - 1.0).abs() < 1e-9);
        assert_eq!(telem.nodes[0].peak_occupancy, 2);
        let pmf = &telem.nodes[0].occupancy_pmf;
        let p1 = pmf.iter().find(|(k, _)| *k == 1).unwrap().1;
        assert!((p1 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn counters_and_fractions() {
        let mut p = RecordingProbe::new(2);
        for _ in 0..10 {
            p.on_arrival(1, t(1.0));
        }
        p.on_preemption(1, t(2.0));
        p.on_preemption(1, t(3.0));
        p.on_drop(1, t(4.0));
        p.on_flush(1, t(5.0), 4);
        p.on_delivery(0, t(6.0), 12.5);
        p.on_high_water(1, 7);
        let telem = p.finish(t(10.0));
        let n = &telem.nodes[1];
        assert_eq!(n.arrivals, 10);
        assert_eq!(n.preemptions, 2);
        assert_eq!(n.drops, 1);
        assert_eq!(n.flushes, 1);
        assert_eq!(n.flushed_packets, 4);
        assert_eq!(n.high_water, 7);
        assert!((n.preemption_fraction() - 0.2).abs() < 1e-12);
        assert!((n.drop_fraction() - 0.1).abs() < 1e-12);
        assert_eq!(telem.deliveries, 1);
        assert!((telem.mean_latency - 12.5).abs() < 1e-12);
        assert_eq!(telem.total_preemptions(), 2);
    }

    #[test]
    fn series_decimation_is_bounded_and_deterministic() {
        let run = || {
            let mut s = DecimatingSeries::new(8);
            for i in 0..1000u64 {
                s.push(t(i as f64), i);
            }
            s.points.clone()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.len() <= 9, "series stays bounded, got {}", a.len());
        // Points remain in time order.
        for w in a.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn reset_clears_everything_including_trace() {
        let mut p = RecordingProbe::with_capacities(1, 2, 16);
        for i in 0..5 {
            p.on_occupancy(0, t(i as f64 + 1.0), i);
        }
        assert!(p.trace().dropped() > 0);
        p.reset();
        assert_eq!(p.trace().len(), 0);
        assert_eq!(p.trace().dropped(), 0, "Trace::clear resets eviction count");
        let telem = p.finish(t(1.0));
        assert_eq!(telem.nodes[0].peak_occupancy, 0);
        assert_eq!(telem.trace_evicted, 0);
    }

    #[test]
    fn telemetry_round_trips_through_json() {
        let mut p = RecordingProbe::new(1);
        p.on_arrival(0, t(0.5));
        p.on_occupancy(0, t(1.0), 1);
        p.on_delivery(0, t(2.0), 1.5);
        let telem = p.finish(t(4.0));
        let json = serde_json::to_string(&telem).unwrap();
        let back: SimTelemetry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, telem);
    }
}
