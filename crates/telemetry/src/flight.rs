//! Per-packet flight recording: lifecycle events, lineage reconstruction,
//! and export to JSONL and the Chrome `trace_event` format.
//!
//! The simulation driver reports a [`PacketEvent`] at every packet
//! lifecycle boundary, as a [`ProbeEvent::Packet`]. The
//! [`FlightRecorder`] retains those events in a bounded ring buffer
//! (overwrite-oldest, like [`Trace`], with the eviction count surfaced as
//! [`FlightLog::evicted`]); [`FlightRecorder::finish`] freezes the ring
//! into a serializable [`FlightLog`], from which per-packet
//! [`PacketLineage`]s — creation→arrival span, per-hop residence times,
//! preemption counts — are reconstructed. Lineages feed the per-hop and
//! end-to-end latency spectra ([`FlightLog::latency_spectra`]) and the
//! Exp(μ) residence [`crate::TheoryCheck`].
//!
//! Like every probe, the recorder observes and never acts: attaching one
//! changes no event ordering and consumes no RNG draws.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};
use tempriv_sim::time::SimTime;
use tempriv_sim::trace::Trace;

use crate::probe::{ProbeEvent, SimProbe};
use crate::registry::HistogramSample;
use crate::span::{json_escape, wrap_chrome_events};

/// One packet lifecycle boundary, emitted by the simulation driver.
///
/// Identifiers are the driver's dense raw indices (`packet` is the
/// sequential packet id, `flow` and `node` dense indices), keeping this
/// crate independent of the network-layer id types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketEvent {
    /// A source created the packet.
    Created {
        /// Sequential packet id.
        packet: u64,
        /// Flow index.
        flow: usize,
        /// Source node index.
        node: usize,
    },
    /// A delaying node (or threshold mix) buffered the packet.
    Enqueued {
        /// Sequential packet id.
        packet: u64,
        /// Flow index.
        flow: usize,
        /// Buffering node index.
        node: usize,
    },
    /// RCAD evicted the packet from a full buffer; it is transmitted
    /// immediately (a `Departed` event follows at the same instant).
    Preempted {
        /// Sequential packet id.
        packet: u64,
        /// Flow index.
        flow: usize,
        /// Preempting node index.
        node: usize,
        /// The victim-selection rule in force, e.g. `shortest_remaining`.
        victim_policy: &'static str,
    },
    /// The node transmitted the packet toward the next hop.
    Departed {
        /// Sequential packet id.
        packet: u64,
        /// Flow index.
        flow: usize,
        /// Transmitting node index.
        node: usize,
    },
    /// A full drop-tail buffer discarded the packet (terminal).
    Dropped {
        /// Sequential packet id.
        packet: u64,
        /// Flow index.
        flow: usize,
        /// Dropping node index.
        node: usize,
    },
    /// The packet reached the sink (terminal).
    ArrivedAtSink {
        /// Sequential packet id.
        packet: u64,
        /// Flow index.
        flow: usize,
        /// Sink node index.
        node: usize,
        /// When the source created the packet. A probe takes the
        /// end-to-end latency as `(now - created_at).as_units()`, the
        /// driver's own arithmetic.
        created_at: SimTime,
    },
}

impl PacketEvent {
    /// The packet id the event concerns.
    #[must_use]
    pub const fn packet(&self) -> u64 {
        match *self {
            PacketEvent::Created { packet, .. }
            | PacketEvent::Enqueued { packet, .. }
            | PacketEvent::Preempted { packet, .. }
            | PacketEvent::Departed { packet, .. }
            | PacketEvent::Dropped { packet, .. }
            | PacketEvent::ArrivedAtSink { packet, .. } => packet,
        }
    }

    /// The flow index the packet belongs to.
    #[must_use]
    pub const fn flow(&self) -> usize {
        match *self {
            PacketEvent::Created { flow, .. }
            | PacketEvent::Enqueued { flow, .. }
            | PacketEvent::Preempted { flow, .. }
            | PacketEvent::Departed { flow, .. }
            | PacketEvent::Dropped { flow, .. }
            | PacketEvent::ArrivedAtSink { flow, .. } => flow,
        }
    }

    /// The node index where the event happened.
    #[must_use]
    pub const fn node(&self) -> usize {
        match *self {
            PacketEvent::Created { node, .. }
            | PacketEvent::Enqueued { node, .. }
            | PacketEvent::Preempted { node, .. }
            | PacketEvent::Departed { node, .. }
            | PacketEvent::Dropped { node, .. }
            | PacketEvent::ArrivedAtSink { node, .. } => node,
        }
    }

    /// The event kind, without its payload.
    #[must_use]
    pub const fn kind(&self) -> PacketEventKind {
        match self {
            PacketEvent::Created { .. } => PacketEventKind::Created,
            PacketEvent::Enqueued { .. } => PacketEventKind::Enqueued,
            PacketEvent::Preempted { .. } => PacketEventKind::Preempted,
            PacketEvent::Departed { .. } => PacketEventKind::Departed,
            PacketEvent::Dropped { .. } => PacketEventKind::Dropped,
            PacketEvent::ArrivedAtSink { .. } => PacketEventKind::ArrivedAtSink,
        }
    }
}

/// The kind of a [`PacketEvent`], as stored in a [`FlightEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PacketEventKind {
    /// Source creation.
    Created,
    /// Buffered at a delaying node or mix.
    Enqueued,
    /// RCAD preemption (followed by an immediate departure).
    Preempted,
    /// Transmission toward the next hop.
    Departed,
    /// Discarded by a full drop-tail buffer.
    Dropped,
    /// Delivery at the sink.
    ArrivedAtSink,
}

impl PacketEventKind {
    /// Stable snake_case name used in the JSONL and Chrome exports.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            PacketEventKind::Created => "created",
            PacketEventKind::Enqueued => "enqueued",
            PacketEventKind::Preempted => "preempted",
            PacketEventKind::Departed => "departed",
            PacketEventKind::Dropped => "dropped",
            PacketEventKind::ArrivedAtSink => "arrived_at_sink",
        }
    }
}

/// One retained event in a [`FlightLog`]: a [`PacketEvent`] stamped with
/// its simulation time, in a serializable shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Event time in simulation time units.
    pub t: f64,
    /// What happened.
    pub kind: PacketEventKind,
    /// Sequential packet id.
    pub packet: u64,
    /// Flow index.
    pub flow: usize,
    /// Node index.
    pub node: usize,
    /// Victim-selection rule, for `Preempted` events only.
    pub victim_policy: Option<String>,
}

/// Default ring-buffer capacity of a [`FlightRecorder`] — enough for a
/// full four-flow Figure-1 run at the paper's packet counts.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1 << 18;

/// A [`SimProbe`] that retains [`PacketEvent`]s in a bounded ring buffer.
///
/// When the ring is full the oldest event is overwritten and the eviction
/// counter advances (surfaced as [`FlightLog::evicted`], the same
/// semantics as [`Trace::dropped`]). Recording is O(1) per event and
/// allocation-free after the ring fills, which keeps tracing overhead
/// within the <10% budget the perf-baseline harness enforces.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Trace<PacketEvent>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    /// A recorder with the default ring capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_FLIGHT_CAPACITY)
    }

    /// A recorder retaining at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            ring: Trace::with_capacity(capacity),
        }
    }

    /// Events currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when nothing has been recorded (or everything was cleared).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events overwritten because the ring was full.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.ring.dropped()
    }

    /// Clears the ring (and eviction count) for reuse across runs.
    pub fn reset(&mut self) {
        self.ring.clear();
    }

    /// Freezes the ring into a serializable [`FlightLog`]; `end` is the
    /// simulation end time.
    #[must_use]
    pub fn finish(&self, end: SimTime) -> FlightLog {
        let events = self
            .ring
            .iter()
            .map(|&(t, ev)| FlightEvent {
                t: t.as_units(),
                kind: ev.kind(),
                packet: ev.packet(),
                flow: ev.flow(),
                node: ev.node(),
                victim_policy: match ev {
                    PacketEvent::Preempted { victim_policy, .. } => Some(victim_policy.to_string()),
                    _ => None,
                },
            })
            .collect();
        FlightLog {
            end_time: end.as_units(),
            capacity: self.ring.capacity() as u64,
            evicted: self.ring.dropped(),
            events,
        }
    }
}

impl SimProbe for FlightRecorder {
    #[inline(always)]
    fn on_event(&mut self, now: SimTime, event: ProbeEvent) {
        if let ProbeEvent::Packet(event) = event {
            self.ring.record(now, event);
        }
    }
}

/// A frozen flight recording: the retained events plus ring metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightLog {
    /// Simulation end time in time units.
    pub end_time: f64,
    /// Ring capacity the recording ran with.
    pub capacity: u64,
    /// Events overwritten by the ring (oldest first); lineages of packets
    /// whose early events were evicted reconstruct partially.
    pub evicted: u64,
    /// Retained events in time order.
    pub events: Vec<FlightEvent>,
}

/// One hop's buffering interval in a [`PacketLineage`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HopResidence {
    /// The buffering node.
    pub node: usize,
    /// When the packet was enqueued (`None` for pass-through departures
    /// at non-delaying nodes, which never buffer).
    pub enqueued_at: Option<f64>,
    /// When the packet departed (`None` while still buffered at run end).
    pub departed_at: Option<f64>,
    /// `true` when an RCAD preemption cut this residence short.
    pub preempted: bool,
}

impl HopResidence {
    /// Buffering time at this hop, when both endpoints were recorded.
    #[must_use]
    pub fn residence(&self) -> Option<f64> {
        match (self.enqueued_at, self.departed_at) {
            (Some(enq), Some(dep)) => Some(dep - enq),
            _ => None,
        }
    }
}

/// Terminal state of a packet as far as the recording shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LineageOutcome {
    /// Reached the sink.
    Delivered,
    /// Discarded by a full drop-tail buffer.
    Dropped,
    /// No terminal event recorded: still buffered at run end, lost on the
    /// radio, or its tail was evicted from the ring.
    InFlight,
}

/// A packet's reconstructed life: creation→arrival span, per-hop
/// residence intervals, and preemption count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PacketLineage {
    /// Sequential packet id.
    pub packet: u64,
    /// Flow index.
    pub flow: usize,
    /// Creation time (`None` when the event was evicted from the ring).
    pub created_at: Option<f64>,
    /// Sink arrival time, if delivered within the recording.
    pub arrived_at: Option<f64>,
    /// RCAD preemptions suffered along the path.
    pub preemptions: u32,
    /// Buffering intervals, in hop order.
    pub hops: Vec<HopResidence>,
    /// Terminal state as recorded.
    pub outcome: LineageOutcome,
}

impl PacketLineage {
    /// End-to-end creation→arrival span, when both ends were recorded.
    #[must_use]
    pub fn span(&self) -> Option<f64> {
        match (self.created_at, self.arrived_at) {
            (Some(c), Some(a)) => Some(a - c),
            _ => None,
        }
    }
}

/// Per-hop and end-to-end latency spectra derived from lineages, as
/// fixed-bin histogram samples (quantiles via
/// [`HistogramSample::percentile`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySpectra {
    /// Residence times of completed, non-preempted buffering hops.
    pub per_hop: HistogramSample,
    /// Creation→arrival spans of delivered packets.
    pub end_to_end: HistogramSample,
}

/// Bins `samples` into a [`HistogramSample`] over `[0, max)` so quantile
/// queries via [`HistogramSample::percentile`] work on it.
fn spectrum(name: &str, help: &str, samples: &[f64], bins: usize) -> HistogramSample {
    let max = samples.iter().copied().fold(0.0f64, f64::max);
    // Nudge the top edge so the maximum sample lands inside the range.
    let hi = if max > 0.0 { max * (1.0 + 1e-9) } else { 1.0 };
    let width = hi / bins as f64;
    let mut counts = vec![0u64; bins];
    let mut sum = 0.0;
    for &x in samples {
        let i = ((x / width) as usize).min(bins - 1);
        counts[i] += 1;
        sum += x;
    }
    HistogramSample {
        name: name.to_string(),
        help: help.to_string(),
        lo: 0.0,
        width,
        counts,
        underflow: 0,
        overflow: 0,
        total: samples.len() as u64,
        sum,
    }
}

impl FlightLog {
    /// Reconstructs per-packet lineages from the retained events, in
    /// packet-id order. Packets whose early events were evicted from the
    /// ring reconstruct partially (e.g. `created_at: None`).
    #[must_use]
    pub fn lineages(&self) -> Vec<PacketLineage> {
        let mut by_packet: BTreeMap<u64, PacketLineage> = BTreeMap::new();
        for ev in &self.events {
            let lineage = by_packet.entry(ev.packet).or_insert_with(|| PacketLineage {
                packet: ev.packet,
                flow: ev.flow,
                created_at: None,
                arrived_at: None,
                preemptions: 0,
                hops: Vec::new(),
                outcome: LineageOutcome::InFlight,
            });
            match ev.kind {
                PacketEventKind::Created => lineage.created_at = Some(ev.t),
                PacketEventKind::Enqueued => lineage.hops.push(HopResidence {
                    node: ev.node,
                    enqueued_at: Some(ev.t),
                    departed_at: None,
                    preempted: false,
                }),
                PacketEventKind::Preempted => {
                    lineage.preemptions += 1;
                    if let Some(hop) = lineage
                        .hops
                        .iter_mut()
                        .rev()
                        .find(|h| h.node == ev.node && h.departed_at.is_none())
                    {
                        hop.preempted = true;
                    }
                }
                PacketEventKind::Departed => {
                    match lineage
                        .hops
                        .iter_mut()
                        .rev()
                        .find(|h| h.node == ev.node && h.departed_at.is_none())
                    {
                        Some(hop) => hop.departed_at = Some(ev.t),
                        // Pass-through at a non-delaying node: no matching
                        // Enqueued was ever emitted.
                        None => lineage.hops.push(HopResidence {
                            node: ev.node,
                            enqueued_at: None,
                            departed_at: Some(ev.t),
                            preempted: false,
                        }),
                    }
                }
                PacketEventKind::Dropped => lineage.outcome = LineageOutcome::Dropped,
                PacketEventKind::ArrivedAtSink => {
                    lineage.arrived_at = Some(ev.t);
                    lineage.outcome = LineageOutcome::Delivered;
                }
            }
        }
        by_packet.into_values().collect()
    }

    /// `(node, residence)` samples of completed, non-preempted buffering
    /// hops — the empirical per-hop delay distribution the §4 tandem
    /// analysis predicts to be Exp(μ).
    #[must_use]
    pub fn residence_samples(&self) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        for lineage in self.lineages() {
            for hop in &lineage.hops {
                if hop.preempted {
                    continue;
                }
                if let Some(r) = hop.residence() {
                    out.push((hop.node, r));
                }
            }
        }
        out
    }

    /// Completed non-preempted residence samples grouped by node, for
    /// per-node Exp(μ) theory checks.
    #[must_use]
    pub fn residence_by_node(&self) -> BTreeMap<usize, Vec<f64>> {
        let mut out: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (node, r) in self.residence_samples() {
            out.entry(node).or_default().push(r);
        }
        out
    }

    /// `(flow, span)` samples of delivered packets with a recorded
    /// creation — the end-to-end latency distribution per flow.
    #[must_use]
    pub fn end_to_end_samples(&self) -> Vec<(usize, f64)> {
        self.lineages()
            .iter()
            .filter_map(|l| l.span().map(|s| (l.flow, s)))
            .collect()
    }

    /// Per-hop and end-to-end latency spectra as fixed-bin histograms
    /// (`bins` bins each, range `[0, max sample)`).
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`.
    #[must_use]
    pub fn latency_spectra(&self, bins: usize) -> LatencySpectra {
        assert!(bins > 0, "latency spectra need at least one bin");
        let hop: Vec<f64> = self.residence_samples().iter().map(|&(_, r)| r).collect();
        let e2e: Vec<f64> = self.end_to_end_samples().iter().map(|&(_, s)| s).collect();
        LatencySpectra {
            per_hop: spectrum(
                "tempriv_trace_hop_residence",
                "per-hop buffering residence times",
                &hop,
                bins,
            ),
            end_to_end: spectrum(
                "tempriv_trace_end_to_end_latency",
                "creation to sink-arrival spans",
                &e2e,
                bins,
            ),
        }
    }

    /// Retains only events matching every given filter (`None` = match
    /// all). Ring metadata is kept so eviction remains visible.
    #[must_use]
    pub fn filtered(
        &self,
        flow: Option<usize>,
        node: Option<usize>,
        packet: Option<u64>,
    ) -> FlightLog {
        FlightLog {
            end_time: self.end_time,
            capacity: self.capacity,
            evicted: self.evicted,
            events: self
                .events
                .iter()
                .filter(|e| flow.is_none_or(|f| e.flow == f))
                .filter(|e| node.is_none_or(|n| e.node == n))
                .filter(|e| packet.is_none_or(|p| e.packet == p))
                .cloned()
                .collect(),
        }
    }

    /// One JSON object per line, one line per retained event — grep- and
    /// `jq`-friendly. Keys: `t`, `kind`, `packet`, `flow`, `node`, plus
    /// `victim_policy` on preemptions.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let _ = write!(
                out,
                "{{\"t\":{},\"kind\":\"{}\",\"packet\":{},\"flow\":{},\"node\":{}",
                e.t,
                e.kind.as_str(),
                e.packet,
                e.flow,
                e.node
            );
            if let Some(vp) = &e.victim_policy {
                let _ = write!(out, ",\"victim_policy\":\"{}\"", json_escape(vp));
            }
            out.push_str("}\n");
        }
        out
    }

    /// Chrome `trace_event` JSON (the `{"traceEvents": [...]}` object
    /// form), loadable in `chrome://tracing` and Perfetto.
    ///
    /// Mapping: flows become processes (`pid`), nodes become threads
    /// (`tid`); each completed hop residence is a complete (`"X"`) event
    /// spanning enqueue→departure; creations, preemptions, drops, and
    /// sink arrivals are instant (`"i"`) events. One simulation time unit
    /// is rendered as one microsecond.
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        wrap_chrome_events(&self.chrome_trace_events())
    }

    /// The individual Chrome `trace_event` objects of
    /// [`FlightLog::to_chrome_trace`], unwrapped — callers merge them
    /// with span and phase events into one timeline before wrapping with
    /// [`wrap_chrome_events`].
    #[must_use]
    pub fn chrome_trace_events(&self) -> Vec<String> {
        let mut parts: Vec<String> = Vec::new();
        let mut pids: BTreeSet<usize> = BTreeSet::new();
        let mut threads: BTreeSet<(usize, usize)> = BTreeSet::new();
        for e in &self.events {
            pids.insert(e.flow);
            threads.insert((e.flow, e.node));
        }
        for pid in &pids {
            parts.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"flow {pid}\"}}}}"
            ));
        }
        for (pid, tid) in &threads {
            parts.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"node {tid}\"}}}}"
            ));
        }
        for lineage in self.lineages() {
            for hop in &lineage.hops {
                if let (Some(enq), Some(r)) = (hop.enqueued_at, hop.residence()) {
                    parts.push(format!(
                        "{{\"name\":\"buffered\",\"cat\":\"residence\",\"ph\":\"X\",\
                         \"ts\":{enq},\"dur\":{r},\"pid\":{},\"tid\":{},\
                         \"args\":{{\"packet\":{},\"preempted\":{}}}}}",
                        lineage.flow, hop.node, lineage.packet, hop.preempted
                    ));
                }
            }
        }
        for e in &self.events {
            let instant = matches!(
                e.kind,
                PacketEventKind::Created
                    | PacketEventKind::Preempted
                    | PacketEventKind::Dropped
                    | PacketEventKind::ArrivedAtSink
            );
            if instant {
                let policy = e.victim_policy.as_deref().map_or(String::new(), |vp| {
                    format!(",\"victim_policy\":\"{}\"", json_escape(vp))
                });
                parts.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"lifecycle\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{},\"pid\":{},\"tid\":{},\"args\":{{\"packet\":{}{policy}}}}}",
                    e.kind.as_str(),
                    e.t,
                    e.flow,
                    e.node,
                    e.packet
                ));
            }
        }
        parts
    }

    /// Per-flow Age-of-Information statistics from delivered packets.
    ///
    /// AoI is the classic sawtooth: right after a delivery at `a_i` of a
    /// packet created at `c_i`, the sink's information age resets to
    /// `a_i − c_i` and then grows linearly until the next delivery (or
    /// run end). The mean is the exact trapezoid integral of the
    /// sawtooth over the window from each flow's first delivery to
    /// [`FlightLog::end_time`], divided by the window; the peak is the
    /// largest age reached. Flows with no complete creation→arrival
    /// lineage produce no entry.
    #[must_use]
    pub fn aoi_by_flow(&self) -> Vec<FlowAoi> {
        let mut by_flow: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
        for lineage in self.lineages() {
            if let (Some(c), Some(a)) = (lineage.created_at, lineage.arrived_at) {
                by_flow.entry(lineage.flow).or_default().push((a, c));
            }
        }
        let mut out = Vec::new();
        for (flow, mut deliveries) in by_flow {
            deliveries.sort_by(|x, y| x.partial_cmp(y).expect("finite event times"));
            let last_arrival = deliveries.last().expect("non-empty").0;
            let end = self.end_time.max(last_arrival);
            let mut integral = 0.0;
            let mut window = 0.0;
            let mut peak = 0.0f64;
            for (i, &(a, c)) in deliveries.iter().enumerate() {
                let next = deliveries.get(i + 1).map_or(end, |d| d.0);
                let lo = a - c;
                let hi = next - c;
                integral += (lo + hi) / 2.0 * (next - a);
                window += next - a;
                peak = peak.max(lo).max(hi);
            }
            let mean = if window > 0.0 {
                integral / window
            } else {
                // Single delivery exactly at run end: the age observed.
                peak
            };
            out.push(FlowAoi {
                flow,
                mean,
                peak,
                deliveries: deliveries.len() as u64,
            });
        }
        out
    }
}

/// Per-flow Age-of-Information summary (see [`FlightLog::aoi_by_flow`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowAoi {
    /// Flow index.
    pub flow: usize,
    /// Time-averaged information age over the observation window.
    pub mean: f64,
    /// Largest information age reached.
    pub peak: f64,
    /// Delivered packets contributing to the sawtooth.
    pub deliveries: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(u: f64) -> SimTime {
        SimTime::from_units(u)
    }

    fn ev(rec: &mut FlightRecorder, at: f64, event: PacketEvent) {
        rec.on_event(t(at), ProbeEvent::Packet(event));
    }

    /// Packet 0, flow 0: created at node 1, buffered there, delivered at
    /// node 9. Packet 1 is dropped at node 2.
    fn demo_log() -> FlightLog {
        let mut rec = FlightRecorder::with_capacity(64);
        ev(
            &mut rec,
            0.0,
            PacketEvent::Created {
                packet: 0,
                flow: 0,
                node: 1,
            },
        );
        ev(
            &mut rec,
            0.0,
            PacketEvent::Enqueued {
                packet: 0,
                flow: 0,
                node: 1,
            },
        );
        ev(
            &mut rec,
            12.5,
            PacketEvent::Departed {
                packet: 0,
                flow: 0,
                node: 1,
            },
        );
        ev(
            &mut rec,
            13.5,
            PacketEvent::Enqueued {
                packet: 0,
                flow: 0,
                node: 2,
            },
        );
        ev(
            &mut rec,
            40.0,
            PacketEvent::Departed {
                packet: 0,
                flow: 0,
                node: 2,
            },
        );
        ev(
            &mut rec,
            41.0,
            PacketEvent::ArrivedAtSink {
                packet: 0,
                flow: 0,
                node: 9,
                created_at: t(0.0),
            },
        );
        ev(
            &mut rec,
            5.0,
            PacketEvent::Created {
                packet: 1,
                flow: 1,
                node: 3,
            },
        );
        ev(
            &mut rec,
            6.0,
            PacketEvent::Dropped {
                packet: 1,
                flow: 1,
                node: 2,
            },
        );
        rec.finish(t(50.0))
    }

    #[test]
    fn lineages_reconstruct_span_hops_and_outcomes() {
        let log = demo_log();
        let lineages = log.lineages();
        assert_eq!(lineages.len(), 2);
        let p0 = &lineages[0];
        assert_eq!(p0.outcome, LineageOutcome::Delivered);
        assert_eq!(p0.span(), Some(41.0));
        assert_eq!(p0.hops.len(), 2);
        assert_eq!(p0.hops[0].residence(), Some(12.5));
        assert_eq!(p0.hops[1].residence(), Some(26.5));
        assert_eq!(p0.preemptions, 0);
        let p1 = &lineages[1];
        assert_eq!(p1.outcome, LineageOutcome::Dropped);
        assert_eq!(p1.span(), None);
    }

    #[test]
    fn preemption_marks_the_open_hop_and_counts() {
        let mut rec = FlightRecorder::with_capacity(16);
        ev(
            &mut rec,
            0.0,
            PacketEvent::Created {
                packet: 7,
                flow: 2,
                node: 4,
            },
        );
        ev(
            &mut rec,
            1.0,
            PacketEvent::Enqueued {
                packet: 7,
                flow: 2,
                node: 4,
            },
        );
        ev(
            &mut rec,
            3.0,
            PacketEvent::Preempted {
                packet: 7,
                flow: 2,
                node: 4,
                victim_policy: "shortest_remaining",
            },
        );
        ev(
            &mut rec,
            3.0,
            PacketEvent::Departed {
                packet: 7,
                flow: 2,
                node: 4,
            },
        );
        let log = rec.finish(t(10.0));
        let lineage = &log.lineages()[0];
        assert_eq!(lineage.preemptions, 1);
        assert!(lineage.hops[0].preempted);
        assert_eq!(lineage.hops[0].residence(), Some(2.0));
        // Preempted hops are excluded from the residence spectrum.
        assert!(log.residence_samples().is_empty());
        assert_eq!(
            log.events[2].victim_policy.as_deref(),
            Some("shortest_remaining")
        );
    }

    #[test]
    fn pass_through_departure_becomes_a_zero_info_hop() {
        let mut rec = FlightRecorder::with_capacity(16);
        ev(
            &mut rec,
            2.0,
            PacketEvent::Departed {
                packet: 0,
                flow: 0,
                node: 6,
            },
        );
        let log = rec.finish(t(10.0));
        let lineage = &log.lineages()[0];
        assert_eq!(lineage.hops.len(), 1);
        assert_eq!(lineage.hops[0].enqueued_at, None);
        assert_eq!(lineage.hops[0].residence(), None);
        assert_eq!(lineage.outcome, LineageOutcome::InFlight);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_evictions() {
        let mut rec = FlightRecorder::with_capacity(2);
        for i in 0..5 {
            ev(
                &mut rec,
                i as f64,
                PacketEvent::Created {
                    packet: i,
                    flow: 0,
                    node: 0,
                },
            );
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.evicted(), 3);
        let log = rec.finish(t(5.0));
        assert_eq!(log.evicted, 3);
        assert_eq!(log.capacity, 2);
        // Oldest events are gone; the newest survive.
        assert_eq!(log.events[0].packet, 3);
        assert_eq!(log.events[1].packet, 4);
        rec.reset();
        assert!(rec.is_empty());
        assert_eq!(rec.evicted(), 0);
    }

    #[test]
    fn spectra_quantiles_come_from_the_percentile_helper() {
        let log = demo_log();
        let spectra = log.latency_spectra(40);
        assert_eq!(spectra.per_hop.total, 2);
        assert_eq!(spectra.end_to_end.total, 1);
        let p50 = spectra.per_hop.p50().unwrap();
        assert!(p50 > 12.0 && p50 < 27.0, "hop p50 {p50}");
        let e2e = spectra.end_to_end.p99().unwrap();
        assert!((e2e - 41.0).abs() < 1.1, "e2e p99 {e2e}");
    }

    #[test]
    fn filters_are_conjunctive() {
        let log = demo_log();
        assert_eq!(log.filtered(Some(1), None, None).events.len(), 2);
        assert_eq!(log.filtered(None, Some(2), None).events.len(), 3);
        assert_eq!(log.filtered(None, Some(2), Some(1)).events.len(), 1);
        assert_eq!(log.filtered(Some(0), Some(2), Some(1)).events.len(), 0);
    }

    #[test]
    fn jsonl_has_one_parsable_object_per_event() {
        let log = demo_log();
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), log.events.len());
        assert!(lines[0].contains("\"kind\":\"created\""));
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let log = demo_log();
        let chrome = log.to_chrome_trace();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        // Two completed hops -> two X events; metadata names both flows.
        assert_eq!(chrome.matches("\"ph\":\"X\"").count(), 2);
        assert!(chrome.contains("\"name\":\"flow 0\""));
        assert!(chrome.contains("\"name\":\"flow 1\""));
        assert!(chrome.contains("\"ph\":\"i\""));
        // Balanced braces — the cheap well-formedness proxy without a
        // JSON parser in the test.
        assert_eq!(chrome.matches('{').count(), chrome.matches('}').count());
    }

    #[test]
    fn flight_log_round_trips_through_json() {
        let log = demo_log();
        let json = serde_json::to_string(&log).unwrap();
        let back: FlightLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn exports_escape_victim_policy_strings() {
        let mut log = demo_log();
        log.events.push(FlightEvent {
            t: 45.0,
            kind: PacketEventKind::Preempted,
            packet: 0,
            flow: 0,
            node: 2,
            victim_policy: Some("evil\"policy\\name".to_string()),
        });
        let jsonl = log.to_jsonl();
        assert!(jsonl.contains("evil\\\"policy\\\\name"));
        let chrome = log.to_chrome_trace();
        assert!(chrome.contains("evil\\\"policy\\\\name"));
        assert_eq!(chrome.matches('{').count(), chrome.matches('}').count());
    }

    #[test]
    fn aoi_follows_the_sawtooth() {
        let mut rec = FlightRecorder::with_capacity(32);
        for (packet, created, arrived) in [(0u64, 0.0, 10.0), (1u64, 5.0, 20.0)] {
            ev(
                &mut rec,
                created,
                PacketEvent::Created {
                    packet,
                    flow: 0,
                    node: 1,
                },
            );
            ev(
                &mut rec,
                arrived,
                PacketEvent::ArrivedAtSink {
                    packet,
                    flow: 0,
                    node: 9,
                    created_at: t(created),
                },
            );
        }
        let log = rec.finish(t(30.0));
        let aoi = log.aoi_by_flow();
        assert_eq!(aoi.len(), 1);
        let flow0 = &aoi[0];
        assert_eq!(flow0.flow, 0);
        assert_eq!(flow0.deliveries, 2);
        // Sawtooth: [10,20] ages 10→20, [20,30] ages 15→25.
        assert!((flow0.mean - 17.5).abs() < 1e-9, "mean {}", flow0.mean);
        assert!((flow0.peak - 25.0).abs() < 1e-9, "peak {}", flow0.peak);
    }

    #[test]
    fn aoi_skips_flows_without_deliveries() {
        let log = demo_log();
        let aoi = log.aoi_by_flow();
        // Flow 1's only packet was dropped: no AoI entry.
        assert_eq!(aoi.len(), 1);
        assert_eq!(aoi[0].flow, 0);
        // Flow 0: one delivery (created 0, arrived 41), window [41, 50].
        assert!((aoi[0].mean - 45.5).abs() < 1e-9, "mean {}", aoi[0].mean);
        assert!((aoi[0].peak - 50.0).abs() < 1e-9);
    }
}
