//! Simulation probes.
//!
//! The simulation driver reports every observable step of a run to
//! [`SimProbe::on_event`] as one [`ProbeEvent`]: a packet lifecycle
//! boundary, a buffer occupancy change, a mix flush, and at run end the
//! per-node high-water marks and the engine accounting. Events are plain
//! data, so a stacked probe forwards one method and a recorded event
//! stream can be replayed. Probes observe and accumulate but never act,
//! so an instrumented run schedules exactly the same events and consumes
//! exactly the same RNG draws as an uninstrumented one. [`NullProbe`] is
//! the zero-overhead default; [`RecordingProbe`] records per-node
//! occupancy dwell statistics, a decimated occupancy time series,
//! preemption/drop/flush counters, buffer high-water marks and delivery
//! latency moments.

use serde::{Deserialize, Serialize};
use tempriv_sim::stats::{OnlineStats, StateDwell};
use tempriv_sim::time::SimTime;

use crate::flight::PacketEvent;

/// One step of a run, as the simulation driver reports it to a
/// [`SimProbe`]. `node` indices are the driver's dense node order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeEvent {
    /// A packet crossed a lifecycle boundary (created, enqueued,
    /// preempted, departed, dropped, or arrived at the sink). Sent for
    /// every packet on every hop, so probes should handle it cheaply.
    Packet(PacketEvent),
    /// A node's buffer occupancy changed to `depth`.
    Occupancy {
        /// Node index.
        node: usize,
        /// New buffer depth.
        depth: u64,
    },
    /// A threshold mix flushed `batch` packets from `node`.
    Flush {
        /// Node index.
        node: usize,
        /// Packets flushed together.
        batch: u64,
    },
    /// A node's final buffer high-water mark, sent once per field node at
    /// run end (0 for nodes no packet reached).
    HighWater {
        /// Node index.
        node: usize,
        /// Most packets the buffer ever held.
        high_water: u64,
    },
    /// The run ended; sent once, last. Deterministic engine accounting:
    /// every field is a pure function of the event sequence.
    RunEnd {
        /// Total events the engine delivered.
        events: u64,
        /// Peak size of the future-event set.
        peak_fes: u64,
        /// Final physical future-event heap footprint (live entries plus
        /// uncollected cancellation tombstones).
        queue_footprint: u64,
        /// Tombstone compaction passes the future-event queue performed.
        queue_compactions: u64,
    },
}

/// The observer the simulation driver reports each [`ProbeEvent`] to,
/// stamped with the simulation time it happened at (the end time for
/// the run-end reports).
///
/// # Determinism contract
///
/// Implementations must not consume RNG draws, mutate simulation state,
/// or block; the driver guarantees event order is a pure function of the
/// run.
///
/// # Cost
///
/// Each of the driver's report sites builds an event of one known kind.
/// An `on_event` inlined there (`#[inline(always)]`, with rare heavy
/// work in an out-of-line method) lets the compiler drop every arm the
/// probe does not read; an out-of-line `on_event` is a call per event,
/// and for the forwarding impls below, a call per event per member.
pub trait SimProbe {
    /// `false` only for probes that ignore every event, such as
    /// [`NullProbe`]. The driver then skips each report, and the
    /// profiler phase switch around it, at compile time.
    const ACTIVE: bool = true;

    /// `true` if this value can observe anything. Defaults to
    /// [`SimProbe::ACTIVE`]; an empty `Option` probe reports `false`.
    fn is_active(&self) -> bool {
        Self::ACTIVE
    }

    /// Observes `event`, which happened at `now`.
    fn on_event(&mut self, now: SimTime, event: ProbeEvent);
}

/// The do-nothing probe: it ignores every event, so the instrumentation
/// cost of an unprobed run is nothing at all.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullProbe;

impl SimProbe for NullProbe {
    const ACTIVE: bool = false;

    fn on_event(&mut self, _now: SimTime, _event: ProbeEvent) {}
}

/// A mutable reference to a probe is itself a probe, so long-lived
/// probes can be lent to a run (e.g. inside a pair) without moving
/// ownership.
impl<P: SimProbe + ?Sized> SimProbe for &mut P {
    const ACTIVE: bool = P::ACTIVE;

    fn is_active(&self) -> bool {
        (**self).is_active()
    }

    #[inline(always)]
    fn on_event(&mut self, now: SimTime, event: ProbeEvent) {
        (**self).on_event(now, event);
    }
}

/// Fan-out: a pair of probes is itself a probe, with every event sent to
/// both members in order. Lets a run collect aggregate metrics and a
/// packet-level flight recording in one pass, e.g.
/// `(RecordingProbe::new(n), FlightRecorder::new())`.
impl<A: SimProbe, B: SimProbe> SimProbe for (A, B) {
    const ACTIVE: bool = A::ACTIVE || B::ACTIVE;

    fn is_active(&self) -> bool {
        self.0.is_active() || self.1.is_active()
    }

    #[inline(always)]
    fn on_event(&mut self, now: SimTime, event: ProbeEvent) {
        self.0.on_event(now, event);
        self.1.on_event(now, event);
    }
}

/// An optional probe: `Some(p)` forwards every event to `p`, `None` is a
/// [`NullProbe`] at the cost of one predictable branch per event. Lets a
/// caller stack a run-time-chosen set of observers into one statically
/// typed probe instead of matching over every on/off combination.
impl<P: SimProbe> SimProbe for Option<P> {
    const ACTIVE: bool = P::ACTIVE;

    fn is_active(&self) -> bool {
        self.as_ref().is_some_and(P::is_active)
    }

    #[inline(always)]
    fn on_event(&mut self, now: SimTime, event: ProbeEvent) {
        if let Some(p) = self {
            p.on_event(now, event);
        }
    }
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
/// serializable [`SimTelemetry`].
#[derive(Debug)]
pub struct RecordingProbe {
    nodes: Vec<NodeState>,
    latency: OnlineStats,
    deliveries: u64,
    traced: u64,
    engine_events: u64,
    peak_fes: u64,
    queue_footprint: u64,
    queue_compactions: u64,
}

/// Capacity of the probe trace [`SimTelemetry::trace_len`] counts.
const TRACE_CAPACITY: u64 = 256;

/// Default cap on retained occupancy time-series points per node.
pub const DEFAULT_SERIES_CAPACITY: usize = 256;

impl RecordingProbe {
    /// A probe for a simulation with `n_nodes` nodes.
    #[must_use]
    pub fn new(n_nodes: usize) -> Self {
        RecordingProbe {
            nodes: (0..n_nodes)
                .map(|_| NodeState::new(DEFAULT_SERIES_CAPACITY))
                .collect(),
            latency: OnlineStats::new(),
            deliveries: 0,
            traced: 0,
            engine_events: 0,
            peak_fes: 0,
            queue_footprint: 0,
            queue_compactions: 0,
        }
    }

    /// Extracts the accumulated state into a serializable summary.
    ///
    /// `end` is the simulation end time; occupancy dwell means and PMFs
    /// are integrated up to it.
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
        let trace_len = self.traced.min(TRACE_CAPACITY);
        SimTelemetry {
            end_time: end.as_units(),
            deliveries: self.deliveries,
            mean_latency: self.latency.mean(),
            max_latency: self.latency.max().unwrap_or(0.0),
            nodes,
            trace_len,
            trace_evicted: self.traced - trace_len,
            engine_events: self.engine_events,
            peak_fes: self.peak_fes,
            queue_footprint: self.queue_footprint,
            queue_compactions: self.queue_compactions,
        }
    }
}

impl SimProbe for RecordingProbe {
    #[inline(always)]
    fn on_event(&mut self, now: SimTime, event: ProbeEvent) {
        match event {
            // The most frequent packet events carry nothing kept here.
            ProbeEvent::Packet(PacketEvent::Created { .. } | PacketEvent::Departed { .. }) => {}
            // A buffering node admits each arrival or drops it, so the
            // two together count its arrivals.
            ProbeEvent::Packet(PacketEvent::Enqueued { node, .. }) => {
                self.nodes[node].arrivals += 1;
            }
            ProbeEvent::Packet(PacketEvent::Dropped { node, .. }) => {
                let n = &mut self.nodes[node];
                n.arrivals += 1;
                n.drops += 1;
                self.traced += 1;
            }
            ProbeEvent::Packet(PacketEvent::Preempted { node, .. }) => {
                self.nodes[node].preemptions += 1;
                self.traced += 1;
            }
            ProbeEvent::Packet(PacketEvent::ArrivedAtSink { created_at, .. }) => {
                self.deliveries += 1;
                self.latency.record((now - created_at).as_units());
                self.traced += 1;
            }
            ProbeEvent::Occupancy { node, depth } => {
                let n = &mut self.nodes[node];
                n.dwell.transition(now, depth);
                n.series.push(now, depth);
                n.peak = n.peak.max(depth);
                self.traced += 1;
            }
            ProbeEvent::Flush { node, batch } => {
                let n = &mut self.nodes[node];
                n.flushes += 1;
                n.flushed_packets += batch;
                self.traced += 1;
            }
            ProbeEvent::HighWater { node, high_water } => {
                self.nodes[node].high_water = high_water;
            }
            ProbeEvent::RunEnd {
                events,
                peak_fes,
                queue_footprint,
                queue_compactions,
            } => {
                self.engine_events = events;
                self.peak_fes = peak_fes;
                self.queue_footprint = queue_footprint;
                self.queue_compactions = queue_compactions;
            }
        }
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
    /// Probe-trace records retained at run end: the occupancy,
    /// preemption, drop, flush and delivery events, up to the trace's
    /// capacity of 256.
    pub trace_len: u64,
    /// Probe-trace records beyond the trace's capacity.
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

    fn occupancy(p: &mut RecordingProbe, at: f64, node: usize, depth: u64) {
        p.on_event(t(at), ProbeEvent::Occupancy { node, depth });
    }

    fn packet(p: &mut RecordingProbe, at: f64, event: PacketEvent) {
        p.on_event(t(at), ProbeEvent::Packet(event));
    }

    fn enqueued(p: &mut RecordingProbe, id: u64, node: usize) {
        let event = PacketEvent::Enqueued {
            packet: id,
            flow: 0,
            node,
        };
        packet(p, 1.0, event);
    }

    #[test]
    fn recording_probe_accumulates_dwell_mean() {
        let mut p = RecordingProbe::new(1);
        // Depth 0 on [0,10), 2 on [10,20), 1 on [20,40): mean = (0+20+20)/40.
        occupancy(&mut p, 10.0, 0, 2);
        occupancy(&mut p, 20.0, 0, 1);
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
        let (flow, node) = (0, 1);
        for id in 0..9 {
            enqueued(&mut p, id, node);
        }
        for (at, id) in [(2.0, 0), (3.0, 1)] {
            packet(
                &mut p,
                at,
                PacketEvent::Preempted {
                    packet: id,
                    flow,
                    node,
                    victim_policy: "oldest",
                },
            );
        }
        packet(
            &mut p,
            4.0,
            PacketEvent::Dropped {
                packet: 9,
                flow,
                node,
            },
        );
        p.on_event(t(5.0), ProbeEvent::Flush { node, batch: 4 });
        packet(
            &mut p,
            6.0,
            PacketEvent::ArrivedAtSink {
                packet: 0,
                flow,
                node: 0,
                created_at: t(1.0),
            },
        );
        p.on_event(
            t(10.0),
            ProbeEvent::HighWater {
                node,
                high_water: 7,
            },
        );
        let telem = p.finish(t(10.0));
        let n = &telem.nodes[1];
        assert_eq!(n.arrivals, 10, "nine admitted plus one dropped");
        assert_eq!(n.preemptions, 2);
        assert_eq!(n.drops, 1);
        assert_eq!(n.flushes, 1);
        assert_eq!(n.flushed_packets, 4);
        assert_eq!(n.high_water, 7);
        assert!((n.preemption_fraction() - 0.2).abs() < 1e-12);
        assert!((n.drop_fraction() - 0.1).abs() < 1e-12);
        assert_eq!(telem.deliveries, 1);
        assert!((telem.mean_latency - 5.0).abs() < 1e-12);
        assert_eq!(telem.total_preemptions(), 2);
        assert_eq!(telem.trace_len, 5, "preemptions, drop, flush, delivery");
    }

    #[test]
    fn trace_counts_cap_at_the_trace_capacity() {
        let mut p = RecordingProbe::new(1);
        for i in 0..300u64 {
            occupancy(&mut p, i as f64 + 1.0, 0, i % 3);
        }
        let telem = p.finish(t(400.0));
        assert_eq!(telem.trace_len, 256);
        assert_eq!(telem.trace_evicted, 44);
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
    fn telemetry_round_trips_through_json() {
        let mut p = RecordingProbe::new(1);
        enqueued(&mut p, 0, 0);
        occupancy(&mut p, 1.0, 0, 1);
        packet(
            &mut p,
            2.0,
            PacketEvent::ArrivedAtSink {
                packet: 0,
                flow: 0,
                node: 0,
                created_at: t(0.5),
            },
        );
        let telem = p.finish(t(4.0));
        let json = serde_json::to_string(&telem).unwrap();
        let back: SimTelemetry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, telem);
    }
}
