//! The streaming privacy observatory: a [`SimProbe`] that watches the
//! paper's central metric — temporal leakage `I(X; Z)` — accumulate live.
//!
//! [`PrivacyProbe`] feeds every sink delivery into the O(1)-per-sample
//! estimators of [`tempriv_infotheory::streaming`]: a per-flow
//! [`StreamingMi`] over (creation, arrival) pairs and a per-flow
//! [`StreamingMse`] tracking the error of the paper's baseline adversary
//! (`x̂ = z − offset`, the constant-offset estimator of §2.1/§5.1). At a
//! configurable delivery interval it freezes [`FlowPrivacySummary`]
//! snapshots into a bounded, decimated time series, so a finished run
//! yields replayable convergence curves. `TelemetryExport::collect` in
//! `tempriv-core` turns the final summaries into
//! `tempriv_privacy_*{flow="i"}` gauges.
//!
//! Like every probe it only observes: it consumes no RNG draws and
//! mutates no simulation state, so outcomes are byte-identical with the
//! probe on or off. Non-finite samples are counted and skipped rather
//! than panicking (see [`PrivacySeries::rejected`]).

use crate::flight::PacketEvent;
use crate::probe::{ProbeEvent, SimProbe};
use serde::{Deserialize, Serialize};
use tempriv_infotheory::bounds::btq_stream_bound_nats;
use tempriv_infotheory::streaming::{StreamingMi, StreamingMse};
use tempriv_sim::time::SimTime;

/// The traffic/delay parameters behind the eq. 4 bits-through-queues
/// envelope for one flow, when they are known (stochastic workloads with
/// advertised delay means). Trace-driven schedules have no rate, so the
/// probe degrades to MI-only gauges.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BtqParams {
    /// Per-hop delay rate μ (1 / mean buffering delay).
    pub mu: f64,
    /// Packet creation rate λ of the flow's source.
    pub lambda: f64,
}

/// Per-flow configuration handed to [`PrivacyProbe::new`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowPrivacyConfig {
    /// The baseline adversary's constant creation-time offset for this
    /// flow: `x̂ = z − offset` (hops·τ plus the advertised path delay
    /// mean, per §2.1).
    pub adversary_offset: f64,
    /// Parameters of the eq. 4 envelope, or `None` when unknown.
    pub btq: Option<BtqParams>,
}

/// One flow's privacy state at a snapshot instant.
///
/// Fields that can be undefined early in a run (or for configs without a
/// known envelope) are `Option`s rather than NaN so the summary survives
/// a JSON round trip.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowPrivacySummary {
    /// Flow index (the simulator's source ordering).
    pub flow: usize,
    /// Packets from this flow delivered so far.
    pub packets: u64,
    /// Streaming plug-in estimate of `I(X; Z)` in nats.
    pub mi_nats: f64,
    /// The baseline adversary's running mean square error.
    pub mse: Option<f64>,
    /// The MI lower bound implied by that MSE via Guo–Shamai–Verdú.
    pub mi_from_mse_nats: Option<f64>,
    /// Mean per-packet eq. 4 upper bound,
    /// `btq_stream_bound_nats(n, μ, λ) / n`.
    pub btq_mean_bound_nats: Option<f64>,
    /// Privacy margin: analytic bound − empirical MI (negative means the
    /// stream leaks more than the envelope the operator tuned for).
    pub margin_nats: Option<f64>,
}

/// One instant of the journaled convergence series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrivacyPoint {
    /// Total deliveries (all flows) when the snapshot was taken.
    pub deliveries: u64,
    /// Simulation time of the snapshot.
    pub time: f64,
    /// Per-flow summaries at that instant.
    pub flows: Vec<FlowPrivacySummary>,
}

/// Everything the probe learned over a run, frozen for journaling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrivacySeries {
    /// Deliveries between snapshots (the `--privacy-interval` setting).
    pub interval: u64,
    /// Simulation end time.
    pub end_time: f64,
    /// Total deliveries across all flows.
    pub deliveries: u64,
    /// Finite-buffer drops observed.
    pub drops: u64,
    /// RCAD preemptions observed.
    pub preemptions: u64,
    /// Non-finite samples skipped by the estimators (should be zero; a
    /// positive value flags a simulator bug without killing the run).
    pub rejected: u64,
    /// Decimated convergence series, oldest first; the final snapshot
    /// (taken at run end) is always the last element.
    pub points: Vec<PrivacyPoint>,
    /// Final per-flow summaries — same data as `points.last()`, kept
    /// separately so consumers need not care about decimation.
    pub summary: Vec<FlowPrivacySummary>,
}

/// Default number of retained snapshots; older points are decimated with
/// a doubling stride, exactly like the occupancy series in
/// [`crate::probe::RecordingProbe`].
pub const DEFAULT_PRIVACY_SERIES_CAPACITY: usize = 256;

struct FlowState {
    config: FlowPrivacyConfig,
    mi: StreamingMi,
    mse: StreamingMse,
    packets: u64,
}

/// The streaming privacy probe (see the [module docs](self)).
///
/// Composes with other probes through the `(A, B)` pair impl; all hooks
/// are O(1) amortized, so it is safe to leave enabled on large sweeps
/// (the bench baseline budget is ≤10% overhead, like the flight
/// recorder).
pub struct PrivacyProbe {
    flows: Vec<FlowState>,
    interval: u64,
    cap: usize,
    stride: u64,
    snapshots_seen: u64,
    deliveries: u64,
    drops: u64,
    preemptions: u64,
    last_time: f64,
    points: Vec<PrivacyPoint>,
}

impl PrivacyProbe {
    /// A probe for `flows.len()` flows, snapshotting every `interval`
    /// deliveries (`interval == 0` keeps only the final summary) with
    /// [`DEFAULT_STREAMING_BINS`](tempriv_infotheory::streaming::DEFAULT_STREAMING_BINS)-sized
    /// histograms.
    #[must_use]
    pub fn new(flows: Vec<FlowPrivacyConfig>, interval: u64) -> Self {
        Self::with_bins(
            flows,
            interval,
            tempriv_infotheory::streaming::DEFAULT_STREAMING_BINS,
        )
    }

    /// As [`PrivacyProbe::new`] with an explicit per-axis histogram bin
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `bins < 2` (configuration error; data never panics).
    #[must_use]
    pub fn with_bins(flows: Vec<FlowPrivacyConfig>, interval: u64, bins: usize) -> Self {
        PrivacyProbe {
            flows: flows
                .into_iter()
                .map(|config| FlowState {
                    config,
                    mi: StreamingMi::new(bins),
                    mse: StreamingMse::new(),
                    packets: 0,
                })
                .collect(),
            interval,
            cap: DEFAULT_PRIVACY_SERIES_CAPACITY.max(2),
            stride: 1,
            snapshots_seen: 0,
            deliveries: 0,
            drops: 0,
            preemptions: 0,
            last_time: 0.0,
            points: Vec::new(),
        }
    }

    /// Flows being tracked.
    #[must_use]
    pub fn num_flows(&self) -> usize {
        self.flows.len()
    }

    /// Total deliveries seen so far (all flows).
    #[must_use]
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Drops seen so far.
    #[must_use]
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Current per-flow summaries — the live view a watcher renders.
    #[must_use]
    pub fn summary(&self) -> Vec<FlowPrivacySummary> {
        self.flows
            .iter()
            .enumerate()
            .map(|(flow, state)| {
                let mi_nats = state.mi.mi_nats();
                let mse = state.mse.mse();
                let btq_mean_bound_nats = state.config.btq.and_then(|b| {
                    if state.packets == 0 {
                        None
                    } else {
                        Some(
                            btq_stream_bound_nats(state.packets, b.mu, b.lambda)
                                / state.packets as f64,
                        )
                    }
                });
                FlowPrivacySummary {
                    flow,
                    packets: state.packets,
                    mi_nats,
                    mse,
                    mi_from_mse_nats: state.mse.mi_lower_bound_nats(),
                    btq_mean_bound_nats,
                    margin_nats: btq_mean_bound_nats.map(|b| b - mi_nats),
                }
            })
            .collect()
    }

    /// Direct access to one flow's streaming MI estimator (tests compare
    /// it against the batch estimator on the same run).
    #[must_use]
    pub fn flow_mi(&self, flow: usize) -> &StreamingMi {
        &self.flows[flow].mi
    }

    fn snapshot(&mut self, time: f64) {
        // Same doubling-stride decimation as `DecimatingSeries`: keep
        // every `stride`-th snapshot; on overflow drop every other
        // retained point and double the stride.
        if !self.snapshots_seen.is_multiple_of(self.stride) {
            self.snapshots_seen += 1;
            return;
        }
        self.snapshots_seen += 1;
        if self.points.len() == self.cap {
            let mut keep = 0;
            self.points.retain(|_| {
                keep += 1;
                (keep - 1) % 2 == 0
            });
            self.stride *= 2;
        }
        self.points.push(PrivacyPoint {
            deliveries: self.deliveries,
            time,
            flows: self.summary(),
        });
    }

    /// Folds one sink delivery with end-to-end `latency` into the
    /// estimators. The creation time is `z - latency`, the driver's
    /// latency arithmetic; `created_at.as_units()` can differ from it in
    /// the last bit.
    fn deliver(&mut self, flow: usize, now: SimTime, latency: f64) {
        let z = now.as_units();
        let x = z - latency;
        self.last_time = z;
        if let Some(state) = self.flows.get_mut(flow) {
            state.mi.push(x, z);
            state.mse.push(x, z - state.config.adversary_offset);
            state.packets += 1;
        }
        self.deliveries += 1;
        if self.interval > 0 && self.deliveries.is_multiple_of(self.interval) {
            self.snapshot(z);
        }
    }

    /// Freezes the run into a journalable [`PrivacySeries`], appending a
    /// final snapshot at `end`.
    #[must_use]
    pub fn finish(mut self, end: SimTime) -> PrivacySeries {
        let time = end.as_units().max(self.last_time);
        self.points.push(PrivacyPoint {
            deliveries: self.deliveries,
            time,
            flows: self.summary(),
        });
        let rejected = self
            .flows
            .iter()
            .map(|f| f.mi.rejected() + f.mse.rejected())
            .sum();
        PrivacySeries {
            interval: self.interval,
            end_time: time,
            deliveries: self.deliveries,
            drops: self.drops,
            preemptions: self.preemptions,
            rejected,
            points: std::mem::take(&mut self.points),
            summary: self.summary(),
        }
    }
}

impl SimProbe for PrivacyProbe {
    // Inlined so that the many events this probe ignores cost nothing
    // at the driver's report sites.
    #[inline(always)]
    fn on_event(&mut self, now: SimTime, event: ProbeEvent) {
        let ProbeEvent::Packet(event) = event else {
            return;
        };
        match event {
            PacketEvent::Preempted { .. } => {
                self.preemptions += 1;
                self.last_time = now.as_units();
            }
            PacketEvent::Dropped { .. } => {
                self.drops += 1;
                self.last_time = now.as_units();
            }
            PacketEvent::ArrivedAtSink {
                flow, created_at, ..
            } => self.deliver(flow, now, (now - created_at).as_units()),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_with(flows: usize, interval: u64) -> PrivacyProbe {
        let configs = (0..flows)
            .map(|_| FlowPrivacyConfig {
                adversary_offset: 10.0,
                btq: Some(BtqParams {
                    mu: 1.0 / 30.0,
                    lambda: 0.5,
                }),
            })
            .collect();
        PrivacyProbe::new(configs, interval)
    }

    /// Sends a sink arrival of a packet of `flow` created at `created`
    /// and delivered `latency` later.
    fn deliver(probe: &mut PrivacyProbe, flow: usize, created: f64, latency: f64) {
        let event = PacketEvent::ArrivedAtSink {
            packet: 0,
            flow,
            node: 0,
            created_at: SimTime::from_units(created),
        };
        probe.on_event(
            SimTime::from_units(created + latency),
            ProbeEvent::Packet(event),
        );
    }

    fn drive(probe: &mut PrivacyProbe, deliveries: u64) {
        for i in 0..deliveries {
            deliver(
                probe,
                (i % 2) as usize,
                i as f64 * 2.0,
                10.0 + (i % 7) as f64,
            );
        }
    }

    #[test]
    fn summaries_track_per_flow_deliveries_and_bounds() {
        let mut probe = probe_with(2, 0);
        drive(&mut probe, 100);
        let summary = probe.summary();
        assert_eq!(summary.len(), 2);
        for s in &summary {
            assert_eq!(s.packets, 50);
            assert!(s.mi_nats >= 0.0);
            let bound = s.btq_mean_bound_nats.unwrap();
            assert!(bound > 0.0);
            assert!((s.margin_nats.unwrap() - (bound - s.mi_nats)).abs() < 1e-12);
            assert!(s.mse.unwrap() > 0.0, "offset 10 vs true delays 10..=16");
        }
    }

    #[test]
    fn snapshots_fire_on_the_interval_and_finish_appends_the_end() {
        let mut probe = probe_with(1, 25);
        for i in 0..100u64 {
            deliver(&mut probe, 0, i as f64, 5.0);
        }
        let series = probe.finish(SimTime::from_units(1_000.0));
        // 4 interval snapshots plus the final one.
        assert_eq!(series.points.len(), 5);
        assert_eq!(series.points[0].deliveries, 25);
        assert_eq!(series.points.last().unwrap().deliveries, 100);
        assert_eq!(series.end_time, 1_000.0);
        assert_eq!(series.summary, series.points.last().unwrap().flows);
        assert_eq!(series.rejected, 0);
    }

    #[test]
    fn series_is_bounded_by_decimation() {
        let mut probe = probe_with(1, 1);
        probe.cap = 4;
        for i in 0..1_000u64 {
            deliver(&mut probe, 0, i as f64, 0.5);
        }
        assert!(probe.points.len() <= 4);
        let strides: Vec<u64> = probe.points.iter().map(|p| p.deliveries).collect();
        assert!(strides.windows(2).all(|w| w[0] < w[1]), "{strides:?}");
    }

    #[test]
    fn unknown_flows_and_missing_envelopes_degrade_gracefully() {
        let mut probe = PrivacyProbe::new(
            vec![FlowPrivacyConfig {
                adversary_offset: 0.0,
                btq: None,
            }],
            0,
        );
        // Flow index beyond the config list: counted, not panicking.
        deliver(&mut probe, 7, 0.5, 0.5);
        deliver(&mut probe, 0, 1.5, 0.5);
        assert_eq!(probe.deliveries(), 2);
        let series = probe.finish(SimTime::from_units(2.0));
        assert_eq!(series.summary[0].packets, 1);
        assert_eq!(series.summary[0].btq_mean_bound_nats, None);
        assert_eq!(series.summary[0].margin_nats, None);
    }

    #[test]
    fn series_round_trips_through_json() {
        let mut probe = probe_with(2, 10);
        drive(&mut probe, 40);
        let dropped = PacketEvent::Dropped {
            packet: 1,
            flow: 0,
            node: 3,
        };
        let preempted = PacketEvent::Preempted {
            packet: 2,
            flow: 1,
            node: 2,
            victim_policy: "oldest",
        };
        probe.on_event(SimTime::from_units(90.0), ProbeEvent::Packet(dropped));
        probe.on_event(SimTime::from_units(91.0), ProbeEvent::Packet(preempted));
        let series = probe.finish(SimTime::from_units(100.0));
        let json = serde_json::to_string(&series).unwrap();
        let back: PrivacySeries = serde_json::from_str(&json).unwrap();
        assert_eq!(back, series);
        assert_eq!(back.drops, 1);
        assert_eq!(back.preemptions, 1);
    }
}
