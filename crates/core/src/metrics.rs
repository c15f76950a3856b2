//! Simulation outcomes and privacy metrics.
//!
//! The paper's two headline measurements (§5.1): the adversary's **mean
//! square error** in estimating packet creation times (privacy — higher
//! is better) and the **average end-to-end delivery latency** (overhead —
//! lower is better). [`SimOutcome`] carries everything a run produced;
//! [`evaluate_adversary`] scores any [`Adversary`] against the truth log.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};
use tempriv_net::ids::{FlowId, NodeId, PacketId};
use tempriv_sim::stats::{Histogram, MseAccumulator, OnlineStats, StateDwell};
use tempriv_sim::time::SimTime;

use crate::adversary::{Adversary, AdversaryKnowledge, Observation, OracleAdversary};

/// Ground truth for one packet (the legitimate receiver's decrypted view).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TruthRecord {
    /// The packet.
    pub packet: PacketId,
    /// Its flow.
    pub flow: FlowId,
    /// When the source created it — the secret being protected.
    pub created_at: SimTime,
}

/// Per-flow delivery results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowOutcome {
    /// The flow.
    pub flow: FlowId,
    /// Its source node.
    pub source: NodeId,
    /// Its hop count to the sink.
    pub hops: u32,
    /// Packets created at the source.
    pub created: u64,
    /// Packets that reached the sink.
    pub delivered: u64,
    /// End-to-end latency statistics (time units).
    pub latency: OnlineStats,
    /// Latency distribution (fixed-bin histogram; range set on the
    /// simulation builder, default `[0, 2000)` in 400 bins).
    pub latency_histogram: Histogram,
}

impl FlowOutcome {
    /// Delivery ratio in `[0, 1]`.
    #[must_use]
    pub fn delivery_ratio(&self) -> f64 {
        if self.created == 0 {
            0.0
        } else {
            self.delivered as f64 / self.created as f64
        }
    }

    /// Approximate latency quantile from the histogram (`None` until a
    /// packet is delivered).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        self.latency_histogram.quantile(q)
    }

    /// Median latency (`None` until a packet is delivered).
    #[must_use]
    pub fn latency_p50(&self) -> Option<f64> {
        self.latency_quantile(0.5)
    }

    /// 95th-percentile latency — the figure a delay-*tolerant* (but not
    /// delay-insensitive, §2) application actually cares about.
    #[must_use]
    pub fn latency_p95(&self) -> Option<f64> {
        self.latency_quantile(0.95)
    }
}

/// Per-node buffering behaviour over the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeReport {
    /// The node.
    pub node: NodeId,
    /// Time-weighted mean buffer occupancy.
    pub mean_occupancy: f64,
    /// Peak buffer occupancy.
    pub peak_occupancy: u64,
    /// Time-weighted occupancy PMF: `(packets buffered, fraction of the
    /// run spent in that state)` — comparable to the Poisson(ρ) law of §4.
    pub occupancy_pmf: Vec<(u64, f64)>,
    /// RCAD preemptions performed.
    pub preemptions: u64,
    /// Packets dropped because the buffer was full (drop-tail only).
    pub drops: u64,
    /// Batch flushes performed (threshold mixes only).
    pub flushes: u64,
    /// Packets still buffered when the run ended (threshold mixes whose
    /// final batch never filled).
    pub stranded: u64,
    /// Packets this node transmitted.
    pub transmissions: u64,
    /// Packets this node received off the radio.
    pub receptions: u64,
}

impl NodeReport {
    /// The report of a node no packet reached in a run that ended at
    /// `end_time`: every counter 0 and, if the run took any time, the
    /// whole run spent empty.
    #[must_use]
    pub fn idle(node: NodeId, end_time: SimTime) -> NodeReport {
        let occupancy_pmf = if end_time > SimTime::ZERO {
            vec![(0, 1.0)]
        } else {
            Vec::new()
        };
        NodeReport {
            node,
            // The bits a fresh node record reports, -0.0 for an empty PMF.
            mean_occupancy: StateDwell::pmf_mean(&occupancy_pmf),
            peak_occupancy: 0,
            occupancy_pmf,
            preemptions: 0,
            drops: 0,
            flushes: 0,
            stranded: 0,
            transmissions: 0,
            receptions: 0,
        }
    }
}

/// Everything one simulation run produced.
///
/// Equality compares simulation content only: the allocation gauges
/// (`allocs`, `alloc_bytes`) are instrumentation readings that vary
/// with which probes happen to be attached, so — like wall-clock time —
/// they are excluded from both [`PartialEq`] and
/// [`digest`](SimOutcome::digest).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimOutcome {
    /// When the last event fired.
    pub end_time: SimTime,
    /// Per-flow delivery results, indexed by [`FlowId`].
    pub flows: Vec<FlowOutcome>,
    /// The adversary-visible arrival log, in arrival order.
    pub observations: Vec<Observation>,
    /// Ground truth, indexed by `PacketId` (dense: ids are assigned
    /// sequentially from 0).
    pub truth: Vec<TruthRecord>,
    /// Buffer behaviour of each node a packet reached (was created at
    /// or received by), in ascending [`NodeId`] order. Every other field
    /// node reports [`NodeReport::idle`]; read through
    /// [`node`](SimOutcome::node) and
    /// [`field_reports`](SimOutcome::field_reports).
    pub reached: Vec<NodeReport>,
    /// Nodes in the field, reached or not. Defaults to 0 when
    /// deserializing older outcomes.
    #[serde(default)]
    pub field_nodes: u32,
    /// Packets lost on the radio (lossy-link experiments only).
    pub link_losses: u64,
    /// Total RNG draws consumed across every stream of the run. Probes
    /// observe without sampling, so this count must be identical with any
    /// probe attached — the determinism tests assert exactly that.
    /// Defaults to 0 when deserializing outcomes recorded before the
    /// counter existed.
    #[serde(default)]
    pub rng_draws: u64,
    /// Total events the engine delivered over the run. A pure function of
    /// the schedule, so it is identical across probed/unprobed runs.
    /// Defaults to 0 when deserializing older outcomes.
    #[serde(default)]
    pub events: u64,
    /// High-water mark of the future-event set (pending, non-cancelled
    /// events). Defaults to 0 when deserializing older outcomes.
    #[serde(default)]
    pub peak_fes: u64,
    /// Heap allocations made on the driver thread during the run, as
    /// counted by `tempriv_telemetry::memprof` — 0 unless a counting
    /// allocator is installed and enabled. Excluded from equality and
    /// digests: attached probes allocate, simulation content does not
    /// change. Defaults to 0 when deserializing older outcomes.
    #[serde(default)]
    pub allocs: u64,
    /// Bytes requested by those allocations. Excluded from equality and
    /// digests, like [`allocs`](SimOutcome::allocs). Defaults to 0 when
    /// deserializing older outcomes.
    #[serde(default)]
    pub alloc_bytes: u64,
    /// Per-shard execution statistics when the run used the sharded
    /// engine; empty for serial runs. Describes how the work was
    /// partitioned, not what the simulation computed, so it is excluded
    /// from equality and digests (a sharded run that reproduces a serial
    /// trajectory digests identically). Defaults to empty when
    /// deserializing older outcomes.
    #[serde(default)]
    pub shards: Vec<ShardStats>,
}

/// How one shard of a sharded run behaved (see [`SimOutcome::shards`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Shard index.
    pub shard: u32,
    /// Nodes assigned to this shard.
    pub nodes: u64,
    /// Events this shard's private engine delivered.
    pub events: u64,
    /// Cross-shard packet handoffs this shard emitted.
    pub handoffs_out: u64,
    /// High-water mark of this shard's private future-event set.
    pub peak_fes: u64,
}

impl PartialEq for SimOutcome {
    fn eq(&self, other: &Self) -> bool {
        // Everything except the allocation gauges, which measure the
        // instrumentation rather than the simulation.
        self.end_time == other.end_time
            && self.flows == other.flows
            && self.observations == other.observations
            && self.truth == other.truth
            && self.reached == other.reached
            && self.field_nodes == other.field_nodes
            && self.link_losses == other.link_losses
            && self.rng_draws == other.rng_draws
            && self.events == other.events
            && self.peak_fes == other.peak_fes
    }
}

impl SimOutcome {
    /// Creation time of a packet, from the truth log.
    ///
    /// # Panics
    ///
    /// Panics if the packet id is unknown.
    #[must_use]
    pub fn creation_time(&self, packet: PacketId) -> SimTime {
        let rec = &self.truth[packet.0 as usize];
        debug_assert_eq!(rec.packet, packet);
        rec.created_at
    }

    /// Total packets delivered across all flows.
    #[must_use]
    pub fn total_delivered(&self) -> u64 {
        self.flows.iter().map(|f| f.delivered).sum()
    }

    /// Mean end-to-end latency across all delivered packets.
    #[must_use]
    pub fn overall_mean_latency(&self) -> f64 {
        let mut all = OnlineStats::new();
        for f in &self.flows {
            all.merge(&f.latency);
        }
        all.mean()
    }

    /// Node `id`'s report: the stored one if a packet reached it, else
    /// [`NodeReport::idle`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a field node.
    #[must_use]
    pub fn node(&self, id: NodeId) -> Cow<'_, NodeReport> {
        assert!(
            id.0 < self.field_nodes,
            "node {} is outside the {}-node field",
            id.0,
            self.field_nodes
        );
        match self.reached.binary_search_by_key(&id, |n| n.node) {
            Ok(i) => Cow::Borrowed(&self.reached[i]),
            Err(_) => Cow::Owned(NodeReport::idle(id, self.end_time)),
        }
    }

    /// All `field_nodes` reports in id order, idle ones included.
    pub fn field_reports(&self) -> impl Iterator<Item = Cow<'_, NodeReport>> {
        self.field_slots().map(|(id, stored)| {
            stored.map_or_else(
                || Cow::Owned(NodeReport::idle(id, self.end_time)),
                Cow::Borrowed,
            )
        })
    }

    /// Every field node in id order with its stored report, `None` for
    /// an idle node.
    fn field_slots(&self) -> impl Iterator<Item = (NodeId, Option<&NodeReport>)> {
        let mut stored = self.reached.iter().peekable();
        (0..self.field_nodes).map(move |i| (NodeId(i), stored.next_if(|n| n.node.0 == i)))
    }

    // Idle nodes count zero in every total below, so the totals sum the
    // stored reports only.

    /// Total RCAD preemptions across all nodes.
    #[must_use]
    pub fn total_preemptions(&self) -> u64 {
        self.reached.iter().map(|n| n.preemptions).sum()
    }

    /// Total full-buffer drops across all nodes.
    #[must_use]
    pub fn total_drops(&self) -> u64 {
        self.reached.iter().map(|n| n.drops).sum()
    }

    /// Total packets stranded in unfinished mix batches at run end.
    #[must_use]
    pub fn total_stranded(&self) -> u64 {
        self.reached.iter().map(|n| n.stranded).sum()
    }

    /// Total mix batch flushes across all nodes.
    #[must_use]
    pub fn total_flushes(&self) -> u64 {
        self.reached.iter().map(|n| n.flushes).sum()
    }

    /// Total radio energy spent across the network under `model`.
    /// Artificial buffering delays cost nothing here — the asymmetry
    /// that makes the paper's mechanism affordable on motes.
    #[must_use]
    pub fn total_energy(&self, model: &tempriv_net::energy::EnergyModel) -> f64 {
        model.total_energy(self.reached.iter().map(|n| (n.transmissions, n.receptions)))
    }

    /// Radio energy per delivered packet under `model` (infinite if
    /// nothing was delivered).
    #[must_use]
    pub fn energy_per_delivered(&self, model: &tempriv_net::energy::EnergyModel) -> f64 {
        model.energy_per_delivered(
            self.reached.iter().map(|n| (n.transmissions, n.receptions)),
            self.total_delivered(),
        )
    }

    /// Heap allocations per delivered packet — the figure ROADMAP
    /// item 2 (zero-alloc data plane) drives toward zero. Infinite if
    /// nothing was delivered; 0 unless a counting allocator was active
    /// during the run.
    #[must_use]
    pub fn allocs_per_delivered(&self) -> f64 {
        let delivered = self.total_delivered();
        if delivered == 0 {
            if self.allocs == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.allocs as f64 / delivered as f64
        }
    }

    /// The calibration oracle for this run (per-flow realized mean
    /// latencies); see [`OracleAdversary`].
    #[must_use]
    pub fn oracle(&self) -> OracleAdversary {
        OracleAdversary::new(self.flows.iter().map(|f| f.latency.mean()).collect())
    }

    /// A 64-bit FNV-1a fingerprint of the run (observations, truth, and
    /// per-node counters): two runs are byte-identical iff their digests
    /// match, giving CI a one-number regression check on simulator
    /// determinism.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut hasher = tempriv_telemetry::audit::digest::Fnv64::new();
        let mut eat = |bytes: &[u8]| hasher.update(bytes);
        eat(&self.end_time.ticks().to_le_bytes());
        for obs in &self.observations {
            eat(&obs.arrival.ticks().to_le_bytes());
            eat(&obs.origin.0.to_le_bytes());
            eat(&obs.hop_count.to_le_bytes());
            eat(&obs.packet.0.to_le_bytes());
        }
        for rec in &self.truth {
            eat(&rec.created_at.ticks().to_le_bytes());
            eat(&rec.flow.0.to_le_bytes());
        }
        // Idle nodes hash as zeros, so the bytes do not depend on which
        // nodes were stored.
        for (_, stored) in self.field_slots() {
            let (preemptions, drops, transmissions) =
                stored.map_or((0u64, 0, 0), |n| (n.preemptions, n.drops, n.transmissions));
            eat(&preemptions.to_le_bytes());
            eat(&drops.to_le_bytes());
            eat(&transmissions.to_le_bytes());
        }
        eat(&self.link_losses.to_le_bytes());
        hasher.finish()
    }

    /// Fraction of adjacent sink arrivals of `flow` that are out of
    /// application order — how thoroughly independent per-hop delays
    /// scramble the sequence (§3.2: the adversary only ever sees the
    /// *sorted* process `Z̃`, and this measures how much sorting hides).
    ///
    /// Returns 0 for flows with fewer than two observations.
    #[must_use]
    pub fn reordering_fraction(&self, flow: FlowId) -> f64 {
        let seq: Vec<u64> = self
            .observations
            .iter()
            .filter(|o| o.flow == flow)
            .map(|o| self.truth[o.packet.0 as usize].packet.0)
            .collect();
        if seq.len() < 2 {
            return 0.0;
        }
        let inversions = seq.windows(2).filter(|w| w[0] > w[1]).count();
        inversions as f64 / (seq.len() - 1) as f64
    }

    /// Paired (creation, arrival) samples for a flow, for empirical
    /// mutual-information estimation.
    #[must_use]
    pub fn creation_arrival_pairs(&self, flow: FlowId) -> (Vec<f64>, Vec<f64>) {
        let mut xs = Vec::new();
        let mut zs = Vec::new();
        for obs in &self.observations {
            if obs.flow == flow {
                xs.push(self.creation_time(obs.packet).as_units());
                zs.push(obs.arrival.as_units());
            }
        }
        (xs, zs)
    }
}

/// An adversary's scored performance on one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdversaryReport {
    /// The adversary's name.
    pub adversary: String,
    /// MSE per flow, indexed by [`FlowId`].
    pub per_flow: Vec<MseAccumulator>,
    /// MSE across every observation.
    pub overall: MseAccumulator,
}

impl AdversaryReport {
    /// The paper's headline number: MSE for one flow (S1 in the figures).
    ///
    /// # Panics
    ///
    /// Panics if the flow is unknown.
    #[must_use]
    pub fn mse(&self, flow: FlowId) -> f64 {
        self.per_flow[flow.index()].mse()
    }
}

/// Runs `adversary` over the observation log and scores it against truth.
///
/// # Panics
///
/// Panics if the adversary returns the wrong number of estimates.
#[must_use]
pub fn evaluate_adversary(
    outcome: &SimOutcome,
    adversary: &dyn Adversary,
    knowledge: &AdversaryKnowledge,
) -> AdversaryReport {
    let estimates = adversary.estimate_creation_times(&outcome.observations, knowledge);
    assert_eq!(
        estimates.len(),
        outcome.observations.len(),
        "adversary must estimate every observation"
    );
    let mut per_flow = vec![MseAccumulator::new(); outcome.flows.len()];
    let mut overall = MseAccumulator::new();
    for (obs, est) in outcome.observations.iter().zip(&estimates) {
        let truth = outcome.creation_time(obs.packet).as_units();
        let err = est - truth;
        per_flow[obs.flow.index()].record_error(err);
        overall.record_error(err);
    }
    AdversaryReport {
        adversary: adversary.name().to_string(),
        per_flow,
        overall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::BaselineAdversary;

    fn outcome_with_one_flow() -> SimOutcome {
        let truth = vec![
            TruthRecord {
                packet: PacketId(0),
                flow: FlowId(0),
                created_at: SimTime::from_units(10.0),
            },
            TruthRecord {
                packet: PacketId(1),
                flow: FlowId(0),
                created_at: SimTime::from_units(20.0),
            },
        ];
        let observations = vec![
            Observation {
                arrival: SimTime::from_units(100.0),
                origin: NodeId(5),
                hop_count: 2,
                flow: FlowId(0),
                packet: PacketId(0),
            },
            Observation {
                arrival: SimTime::from_units(130.0),
                origin: NodeId(5),
                hop_count: 2,
                flow: FlowId(0),
                packet: PacketId(1),
            },
        ];
        let mut latency = OnlineStats::new();
        let mut latency_histogram = Histogram::new(0.0, 2_000.0, 400);
        for l in [90.0, 110.0] {
            latency.record(l);
            latency_histogram.record(l);
        }
        SimOutcome {
            end_time: SimTime::from_units(130.0),
            flows: vec![FlowOutcome {
                flow: FlowId(0),
                source: NodeId(5),
                hops: 2,
                created: 2,
                delivered: 2,
                latency,
                latency_histogram,
            }],
            observations,
            truth,
            reached: vec![],
            field_nodes: 0,
            link_losses: 0,
            rng_draws: 0,
            events: 0,
            peak_fes: 0,
            allocs: 0,
            alloc_bytes: 0,
            shards: Vec::new(),
        }
    }

    fn knowledge() -> AdversaryKnowledge {
        AdversaryKnowledge {
            tau: 1.0,
            delay_mean: 40.0,
            buffer_slots: Some(10),
            flow_hops: vec![2],
            converging_flows: vec![FlowId(0)],
            flow_paths: vec![vec![NodeId(5), NodeId(3)]],
            path_delay_means: vec![80.0],
        }
    }

    #[test]
    fn evaluate_baseline_mse() {
        let outcome = outcome_with_one_flow();
        let report = evaluate_adversary(&outcome, &BaselineAdversary, &knowledge());
        // Estimates: 100 - 2*41 = 18 (truth 10, err 8); 130 - 82 = 48
        // (truth 20, err 28). MSE = (64 + 784)/2 = 424.
        assert!((report.mse(FlowId(0)) - 424.0).abs() < 1e-9);
        assert_eq!(report.overall.count(), 2);
        assert_eq!(report.adversary, "baseline");
    }

    #[test]
    fn oracle_mse_equals_latency_variance() {
        let outcome = outcome_with_one_flow();
        let oracle = outcome.oracle();
        let report = evaluate_adversary(&outcome, &oracle, &knowledge());
        // Latencies 90 and 110, mean 100: errors are ±10 => MSE 100.
        assert!((report.mse(FlowId(0)) - 100.0).abs() < 1e-9);
        // And that is exactly the latency population variance.
        assert!(
            (report.mse(FlowId(0)) - outcome.flows[0].latency.population_variance()).abs() < 1e-9
        );
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        let a = outcome_with_one_flow();
        let b = outcome_with_one_flow();
        assert_eq!(a.digest(), b.digest());
        let mut c = outcome_with_one_flow();
        c.link_losses = 1;
        assert_ne!(a.digest(), c.digest());
        let mut d = outcome_with_one_flow();
        d.observations.swap(0, 1);
        assert_ne!(a.digest(), d.digest());
    }

    #[test]
    fn allocation_gauges_are_outside_equality_and_digest() {
        let a = outcome_with_one_flow();
        let mut b = outcome_with_one_flow();
        b.allocs = 12345;
        b.alloc_bytes = 67890;
        assert_eq!(a, b, "alloc gauges must not affect equality");
        assert_eq!(a.digest(), b.digest(), "alloc gauges must not be hashed");
        assert!((b.allocs_per_delivered() - 12345.0 / 2.0).abs() < 1e-9);
        assert_eq!(a.allocs_per_delivered(), 0.0);
        let mut empty = outcome_with_one_flow();
        empty.flows[0].delivered = 0;
        empty.allocs = 1;
        assert!(empty.allocs_per_delivered().is_infinite());
    }

    #[test]
    fn latency_series_and_steady_state() {
        let outcome = outcome_with_one_flow();
        let (xs, zs) = outcome.creation_arrival_pairs(FlowId(0));
        let latencies: Vec<f64> = zs.iter().zip(&xs).map(|(z, x)| z - x).collect();
        assert_eq!(latencies, vec![90.0, 110.0]);
    }

    #[test]
    fn reordering_fraction_counts_inversions() {
        let mut outcome = outcome_with_one_flow();
        // In creation order: packets 0 then 1 -> no inversions.
        assert_eq!(outcome.reordering_fraction(FlowId(0)), 0.0);
        // Swap arrival order: one adjacent inversion out of one pair.
        outcome.observations.swap(0, 1);
        assert_eq!(outcome.reordering_fraction(FlowId(0)), 1.0);
    }

    #[test]
    fn outcome_accessors() {
        let outcome = outcome_with_one_flow();
        assert_eq!(
            outcome.creation_time(PacketId(1)),
            SimTime::from_units(20.0)
        );
        assert_eq!(outcome.total_delivered(), 2);
        assert!((outcome.overall_mean_latency() - 100.0).abs() < 1e-9);
        assert_eq!(outcome.total_preemptions(), 0);
        assert_eq!(outcome.flows[0].delivery_ratio(), 1.0);
        let (xs, zs) = outcome.creation_arrival_pairs(FlowId(0));
        assert_eq!(xs, vec![10.0, 20.0]);
        assert_eq!(zs, vec![100.0, 130.0]);
    }
}
