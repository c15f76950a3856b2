//! Adversary models (paper §2.1 and §5.4).
//!
//! The adversary sits at the sink, reads cleartext headers and arrival
//! times, and — being deployment-aware per Kerckhoff's principle — knows
//! the topology, the routing hop counts, the per-hop transmission delay τ,
//! the advertised delay distribution, and the buffer sizes. It never sees
//! payloads, so [`Observation`] deliberately carries only the
//! adversary-visible fields plus a scoring handle.
//!
//! * [`BaselineAdversary`] (§2.1, §5.1): estimates
//!   `x̂ = z − h·τ − h·E[Y]`, trusting the advertised delay distribution
//!   and ignoring preemption.
//! * [`AdaptiveAdversary`] (§5.4): measures per-flow arrival rates at the
//!   sink, evaluates the Erlang loss probability of the aggregate, and —
//!   when preemption must dominate (loss above a threshold, 0.1 in the
//!   paper) — switches the per-hop delay estimate to `k/λ̂_i`.
//! * [`RouteAwareAdversary`] (extension): applies the saturation analysis
//!   per node on the known routing tree — the strongest header-only
//!   attack shipped here.
//! * [`WindowedAdaptiveAdversary`] (extension): an *online* adaptive
//!   model estimating rates in a sliding window, able to track bursty
//!   on/off sources.
//! * [`OracleAdversary`]: a calibration upper bound that knows each flow's
//!   *realized* mean latency (the best constant-offset estimator; its MSE
//!   equals the latency variance).

use serde::{Deserialize, Serialize};
use tempriv_net::ids::{FlowId, NodeId, PacketId};
use tempriv_queueing::erlang::erlang_b;
use tempriv_sim::time::{SimDuration, SimTime};

/// What the eavesdropper sees when one packet reaches the sink.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Arrival instant `z` at the sink.
    pub arrival: SimTime,
    /// Cleartext routing origin — identifies the flow to a
    /// deployment-aware adversary.
    pub origin: NodeId,
    /// Cleartext hop count `h` accumulated on the path.
    pub hop_count: u32,
    /// The flow, as the adversary reconstructs it from `origin` and its
    /// deployment knowledge.
    pub flow: FlowId,
    /// Scoring handle joining the observation to the simulator's truth
    /// log. **Not adversary-visible**: estimators must not use it.
    pub packet: PacketId,
}

/// Everything the deployment-aware adversary knows a priori.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdversaryKnowledge {
    /// Per-hop transmission delay τ.
    pub tau: f64,
    /// Advertised mean buffering delay per node, `E[Y] = 1/μ`
    /// (0 when the network adds no delay).
    pub delay_mean: f64,
    /// Buffer slots per node, if finite.
    pub buffer_slots: Option<usize>,
    /// Hop count of each flow, indexed by [`FlowId`].
    pub flow_hops: Vec<u32>,
    /// Flows whose routes converge at least one hop before the sink (the
    /// aggregate whose Erlang loss the adaptive adversary evaluates).
    pub converging_flows: Vec<FlowId>,
    /// The delaying nodes on each flow's route (source first, sink
    /// excluded), indexed by [`FlowId`]. Deployment awareness (§2) gives
    /// the adversary the full routing topology.
    pub flow_paths: Vec<Vec<NodeId>>,
    /// Expected *total* artificial delay along each flow's path, indexed
    /// by [`FlowId`]. By Kerckhoff's principle the adversary knows the
    /// advertised per-node delay distributions, so for per-node plans
    /// this is the exact path sum (for a shared plan it equals
    /// `hops · delay_mean`).
    pub path_delay_means: Vec<f64>,
}

impl AdversaryKnowledge {
    /// Hop count of `flow`.
    ///
    /// # Panics
    ///
    /// Panics if the flow is unknown.
    #[must_use]
    pub fn hops(&self, flow: FlowId) -> u32 {
        self.flow_hops[flow.index()]
    }

    /// Number of flows.
    #[must_use]
    pub fn num_flows(&self) -> usize {
        self.flow_hops.len()
    }

    /// Expected artificial path delay for `flow`, falling back to
    /// `hops · delay_mean` if the per-flow table is missing an entry.
    #[must_use]
    pub fn path_delay_mean(&self, flow: FlowId) -> f64 {
        self.path_delay_means
            .get(flow.index())
            .copied()
            .unwrap_or_else(|| f64::from(self.hops(flow)) * self.delay_mean)
    }
}

/// An estimator of packet creation times from sink observations.
///
/// Implementations receive the full (time-ordered) observation sequence at
/// once, mirroring an offline traffic analyst; online adversaries can be
/// expressed by ignoring future entries.
pub trait Adversary {
    /// Short human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Estimates the creation time (in time units) of every observation.
    fn estimate_creation_times(
        &self,
        observations: &[Observation],
        knowledge: &AdversaryKnowledge,
    ) -> Vec<f64>;
}

/// The paper's baseline adversary: `x̂ = z − h·τ − E[Σ Y]`, where the
/// expected total buffering delay along the flow's path comes from the
/// advertised per-node distributions (for the paper's shared plan this is
/// exactly `h·(τ + 1/μ)`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BaselineAdversary;

impl Adversary for BaselineAdversary {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn estimate_creation_times(
        &self,
        observations: &[Observation],
        knowledge: &AdversaryKnowledge,
    ) -> Vec<f64> {
        observations
            .iter()
            .map(|obs| {
                let h = knowledge.hops(obs.flow) as f64;
                obs.arrival.as_units() - h * knowledge.tau - knowledge.path_delay_mean(obs.flow)
            })
            .collect()
    }
}

/// The paper's adaptive adversary (§5.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveAdversary {
    /// Erlang-loss probability above which the adversary assumes
    /// preemption dominates (the paper uses 0.1).
    pub threshold: f64,
}

impl AdaptiveAdversary {
    /// Creates an adaptive adversary with the given switching threshold.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not in `(0, 1)`.
    #[must_use]
    pub fn new(threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold < 1.0,
            "threshold must be in (0, 1), got {threshold}"
        );
        AdaptiveAdversary { threshold }
    }

    /// The paper's configuration: threshold 0.1.
    #[must_use]
    pub fn paper_default() -> Self {
        AdaptiveAdversary::new(0.1)
    }

    /// Per-flow arrival rate estimates from the observation sequence:
    /// the number of arrivals between the 10th and 90th percentile
    /// arrival instants, divided by that span. Restricting to the central
    /// window discards the warm-up and drain transients of a finite
    /// observation (which would otherwise bias the rate low — the
    /// steady-state sink arrival rate equals the creation rate λ).
    /// `None` for flows whose central window is degenerate.
    #[must_use]
    pub fn estimate_flow_rates(observations: &[Observation], num_flows: usize) -> Vec<Option<f64>> {
        let mut arrivals: Vec<Vec<SimTime>> = vec![Vec::new(); num_flows];
        for obs in observations {
            if let Some(per_flow) = arrivals.get_mut(obs.flow.index()) {
                per_flow.push(obs.arrival);
            }
        }
        arrivals
            .into_iter()
            .map(|mut times| {
                if times.len() < 2 {
                    return None;
                }
                times.sort_unstable();
                let m = times.len();
                let lo = (m - 1) / 10;
                let hi = (m - 1) * 9 / 10;
                if hi <= lo {
                    return None;
                }
                let span = (times[hi] - times[lo]).as_units();
                (span > 0.0).then(|| (hi - lo) as f64 / span)
            })
            .collect()
    }
}

impl Adversary for AdaptiveAdversary {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn estimate_creation_times(
        &self,
        observations: &[Observation],
        knowledge: &AdversaryKnowledge,
    ) -> Vec<f64> {
        // With no artificial delay advertised, or unlimited buffers, the
        // adaptive refinement has nothing to adapt to.
        let (Some(k), true) = (knowledge.buffer_slots, knowledge.delay_mean > 0.0) else {
            return BaselineAdversary.estimate_creation_times(observations, knowledge);
        };
        let rates = Self::estimate_flow_rates(observations, knowledge.num_flows());
        // Aggregate rate of the converging flows (paper: λ_tot from n
        // sources converging at least one hop prior to the sink).
        let lambda_tot: f64 = knowledge
            .converging_flows
            .iter()
            .filter_map(|f| rates.get(f.index()).copied().flatten())
            .sum();
        let mu = 1.0 / knowledge.delay_mean;
        let preemption_dominates =
            lambda_tot > 0.0 && erlang_b(lambda_tot / mu, k as u32) > self.threshold;
        observations
            .iter()
            .map(|obs| {
                let h = knowledge.hops(obs.flow) as f64;
                let per_hop_delay = if preemption_dominates {
                    match rates.get(obs.flow.index()).copied().flatten() {
                        // Saturated buffers: each hop holds ~k packets of
                        // this... of the flow mix; the paper's estimate for
                        // flow i is k/λ_i.
                        Some(lambda_i) if lambda_i > 0.0 => {
                            // Preemption can only shorten delays, so the
                            // estimate is capped by the advertised mean.
                            (k as f64 / lambda_i).min(knowledge.delay_mean)
                        }
                        _ => knowledge.delay_mean,
                    }
                } else {
                    knowledge.delay_mean
                };
                obs.arrival.as_units() - h * (knowledge.tau + per_hop_delay)
            })
            .collect()
    }
}

/// Online variant of the adaptive adversary: instead of one whole-trace
/// rate per flow, it estimates each flow's rate from the arrivals inside
/// a sliding time window ending at the current observation — so it can
/// track *bursty* traffic ([`tempriv_net::traffic::TrafficModel::OnOff`]
/// sources), switching regimes per packet as bursts start and end. The
/// per-observation estimate is otherwise the §5.4 rule with the same
/// Erlang-loss switch and advertised-mean cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowedAdaptiveAdversary {
    /// Sliding window length (time units).
    pub window: f64,
    /// Erlang-loss switching threshold (0.1 in the paper).
    pub threshold: f64,
}

impl WindowedAdaptiveAdversary {
    /// Creates a windowed adversary.
    ///
    /// # Panics
    ///
    /// Panics if `window` is non-positive/not finite or `threshold` is
    /// not in `(0, 1)`.
    #[must_use]
    pub fn new(window: f64, threshold: f64) -> Self {
        assert!(
            window.is_finite() && window > 0.0,
            "window must be positive, got {window}"
        );
        assert!(
            threshold > 0.0 && threshold < 1.0,
            "threshold must be in (0, 1), got {threshold}"
        );
        WindowedAdaptiveAdversary { window, threshold }
    }
}

impl Adversary for WindowedAdaptiveAdversary {
    fn name(&self) -> &'static str {
        "windowed-adaptive"
    }

    fn estimate_creation_times(
        &self,
        observations: &[Observation],
        knowledge: &AdversaryKnowledge,
    ) -> Vec<f64> {
        let (Some(k), true) = (knowledge.buffer_slots, knowledge.delay_mean > 0.0) else {
            return BaselineAdversary.estimate_creation_times(observations, knowledge);
        };
        let num_flows = knowledge.num_flows();
        // Per-flow arrival times in arrival order, plus each observation's
        // index within its flow, for O(1) sliding-window lookups.
        let mut per_flow: Vec<Vec<SimTime>> = vec![Vec::new(); num_flows];
        let mut index_in_flow = Vec::with_capacity(observations.len());
        for obs in observations {
            let i = obs.flow.index();
            index_in_flow.push(per_flow.get(i).map_or(0, Vec::len));
            if let Some(list) = per_flow.get_mut(i) {
                list.push(obs.arrival);
            }
        }
        let mu = 1.0 / knowledge.delay_mean;
        let window = SimDuration::from_units(self.window);
        observations
            .iter()
            .zip(&index_in_flow)
            .map(|(obs, &idx)| {
                let h = knowledge.hops(obs.flow) as f64;
                let per_hop = match per_flow.get(obs.flow.index()) {
                    Some(arrivals) if idx > 0 => {
                        let cutoff =
                            SimTime::from_ticks(obs.arrival.ticks().saturating_sub(window.ticks()));
                        // Count this flow's arrivals in (cutoff, arrival].
                        let start = arrivals[..=idx].partition_point(|&t| t <= cutoff);
                        let count = idx + 1 - start;
                        let span = (obs.arrival - arrivals[start]).as_units();
                        if count >= 2 && span > 0.0 {
                            let lambda_i = (count - 1) as f64 / span;
                            // All converging flows burst together in the
                            // evaluation; scale the aggregate accordingly.
                            let lambda_tot =
                                lambda_i * knowledge.converging_flows.len().max(1) as f64;
                            if erlang_b(lambda_tot / mu, k as u32) > self.threshold {
                                (k as f64 / lambda_i).min(knowledge.delay_mean)
                            } else {
                                knowledge.delay_mean
                            }
                        } else {
                            knowledge.delay_mean
                        }
                    }
                    _ => knowledge.delay_mean,
                };
                obs.arrival.as_units() - h * (knowledge.tau + per_hop)
            })
            .collect()
    }
}

/// Calibration adversary: knows each flow's realized mean end-to-end
/// latency (e.g. from a long prior observation of the very same network)
/// and subtracts it. No real adversary can do better with a constant
/// per-flow offset, so this bounds the achievable MSE from below by the
/// latency variance.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleAdversary {
    mean_latency_per_flow: Vec<f64>,
}

impl OracleAdversary {
    /// Creates the oracle from realized per-flow mean latencies.
    #[must_use]
    pub fn new(mean_latency_per_flow: Vec<f64>) -> Self {
        OracleAdversary {
            mean_latency_per_flow,
        }
    }
}

/// Deployment-aware extension of the adaptive adversary: instead of one
/// per-flow saturation estimate, it applies the paper's single-node
/// analysis (§5.4: a saturated k-slot buffer cycles in `k/λ` time) to
/// *every node on the route individually*, using its knowledge of the
/// routing tree to aggregate the estimated flow rates each node carries:
///
/// ```text
/// x̂ = z − h·τ − Σ_{v ∈ path} min(1/μ, k/λ̂_v),   λ̂_v = Σ_{flows i through v} λ̂_i
/// ```
///
/// This is strictly stronger than [`AdaptiveAdversary`] on converging
/// topologies (it knows trunk nodes cycle faster) and is the strongest
/// header-only attack shipped here; the [`OracleAdversary`] bounds what
/// any constant-offset estimator could add beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteAwareAdversary {
    /// Erlang-loss threshold above which a node is treated as saturated
    /// (as in the paper's adaptive model; 0.1 in the evaluation).
    pub threshold: f64,
}

impl RouteAwareAdversary {
    /// Creates a route-aware adversary with the given saturation
    /// threshold.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not in `(0, 1)`.
    #[must_use]
    pub fn new(threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold < 1.0,
            "threshold must be in (0, 1), got {threshold}"
        );
        RouteAwareAdversary { threshold }
    }

    /// The evaluation configuration: threshold 0.1.
    #[must_use]
    pub fn paper_default() -> Self {
        RouteAwareAdversary::new(0.1)
    }
}

impl Adversary for RouteAwareAdversary {
    fn name(&self) -> &'static str {
        "route-aware"
    }

    fn estimate_creation_times(
        &self,
        observations: &[Observation],
        knowledge: &AdversaryKnowledge,
    ) -> Vec<f64> {
        let (Some(k), true) = (knowledge.buffer_slots, knowledge.delay_mean > 0.0) else {
            return BaselineAdversary.estimate_creation_times(observations, knowledge);
        };
        let rates = AdaptiveAdversary::estimate_flow_rates(observations, knowledge.num_flows());
        // Aggregate estimated rate through every node named in any path.
        let mut node_rates: std::collections::HashMap<NodeId, f64> =
            std::collections::HashMap::new();
        for (i, path) in knowledge.flow_paths.iter().enumerate() {
            let Some(rate) = rates.get(i).copied().flatten() else {
                continue;
            };
            for &node in path {
                *node_rates.entry(node).or_insert(0.0) += rate;
            }
        }
        let mu = 1.0 / knowledge.delay_mean;
        // Per-node expected delay: advertised mean unless the node's
        // Erlang loss says preemption dominates, then k/lambda_v.
        let node_delay = |node: NodeId| -> f64 {
            match node_rates.get(&node) {
                Some(&lambda_v) if lambda_v > 0.0 => {
                    if erlang_b(lambda_v / mu, k as u32) > self.threshold {
                        (k as f64 / lambda_v).min(knowledge.delay_mean)
                    } else {
                        knowledge.delay_mean
                    }
                }
                _ => knowledge.delay_mean,
            }
        };
        // Precompute each flow's expected path delay once.
        let path_delays: Vec<f64> = knowledge
            .flow_paths
            .iter()
            .map(|path| path.iter().map(|&v| node_delay(v)).sum())
            .collect();
        observations
            .iter()
            .map(|obs| {
                let h = knowledge.hops(obs.flow) as f64;
                let buffering = path_delays
                    .get(obs.flow.index())
                    .copied()
                    .unwrap_or(h * knowledge.delay_mean);
                obs.arrival.as_units() - h * knowledge.tau - buffering
            })
            .collect()
    }
}

impl Adversary for OracleAdversary {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn estimate_creation_times(
        &self,
        observations: &[Observation],
        _knowledge: &AdversaryKnowledge,
    ) -> Vec<f64> {
        observations
            .iter()
            .map(|obs| {
                let offset = self
                    .mean_latency_per_flow
                    .get(obs.flow.index())
                    .copied()
                    .unwrap_or(0.0);
                obs.arrival.as_units() - offset
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(arrival: f64, flow: u32, hops: u32, packet: u64) -> Observation {
        Observation {
            arrival: SimTime::from_units(arrival),
            origin: NodeId(flow + 100),
            hop_count: hops,
            flow: FlowId(flow),
            packet: PacketId(packet),
        }
    }

    fn knowledge(delay_mean: f64, slots: Option<usize>) -> AdversaryKnowledge {
        // Two flows sharing a trunk of 8 delaying nodes (ids 1..=8).
        let trunk: Vec<NodeId> = (1..=8).rev().map(NodeId).collect();
        let path = |private: u32, base: u32| -> Vec<NodeId> {
            let mut p: Vec<NodeId> = (0..private).map(|i| NodeId(base + i)).collect();
            p.extend(trunk.iter().copied());
            p
        };
        AdversaryKnowledge {
            tau: 1.0,
            delay_mean,
            buffer_slots: slots,
            flow_hops: vec![15, 22],
            converging_flows: vec![FlowId(0), FlowId(1)],
            flow_paths: vec![path(7, 100), path(14, 200)],
            path_delay_means: vec![15.0 * delay_mean, 22.0 * delay_mean],
        }
    }

    #[test]
    fn baseline_subtracts_expected_path_delay() {
        let k = knowledge(30.0, Some(10));
        let observations = vec![obs(500.0, 0, 15, 1)];
        let est = BaselineAdversary.estimate_creation_times(&observations, &k);
        // 500 - 15*(1 + 30) = 35.
        assert!((est[0] - 35.0).abs() < 1e-9);
    }

    #[test]
    fn baseline_no_delay_network() {
        let k = knowledge(0.0, None);
        let observations = vec![obs(20.0, 0, 15, 1)];
        let est = BaselineAdversary.estimate_creation_times(&observations, &k);
        assert!((est[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn rate_estimation_counts_gaps() {
        // 11 arrivals over 20 units => rate 0.5.
        let observations: Vec<Observation> =
            (0..11).map(|i| obs(i as f64 * 2.0, 0, 15, i)).collect();
        let rates = AdaptiveAdversary::estimate_flow_rates(&observations, 2);
        assert!((rates[0].unwrap() - 0.5).abs() < 1e-9);
        assert_eq!(rates[1], None);
    }

    #[test]
    fn adaptive_switches_at_high_rate() {
        // Both flows arriving every 2 units => lambda_tot = 1.0,
        // rho = 30 >> k = 10 => loss far above 0.1 => rate-based estimate.
        let mut observations = Vec::new();
        for i in 0..200 {
            observations.push(obs(i as f64 * 2.0, 0, 15, i * 2));
            observations.push(obs(i as f64 * 2.0 + 1.0, 1, 22, i * 2 + 1));
        }
        observations.sort_by_key(|o| o.arrival);
        let k = knowledge(30.0, Some(10));
        let adaptive = AdaptiveAdversary::paper_default();
        let est = adaptive.estimate_creation_times(&observations, &k);
        let base = BaselineAdversary.estimate_creation_times(&observations, &k);
        // Rate-based per-hop delay: k/lambda_0 = 10/0.5 = 20 < 30, so the
        // adaptive estimate is strictly later than the baseline's.
        assert!(est[0] > base[0]);
        let expected = observations[0].arrival.as_units() - 15.0 * (1.0 + 20.0);
        assert!(
            (est[0] - expected).abs() < 0.5,
            "est {} vs {expected}",
            est[0]
        );
    }

    #[test]
    fn adaptive_keeps_baseline_at_low_rate() {
        // Arrivals every 40 units per flow => lambda_tot = 0.05,
        // rho = 1.5, loss(1.5, 10) ~ 1e-5 << 0.1.
        let mut observations = Vec::new();
        for i in 0..50 {
            observations.push(obs(i as f64 * 40.0, 0, 15, i * 2));
            observations.push(obs(i as f64 * 40.0 + 7.0, 1, 22, i * 2 + 1));
        }
        let k = knowledge(30.0, Some(10));
        let adaptive = AdaptiveAdversary::paper_default();
        let est = adaptive.estimate_creation_times(&observations, &k);
        let base = BaselineAdversary.estimate_creation_times(&observations, &k);
        for (a, b) in est.iter().zip(&base) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn adaptive_degrades_to_baseline_without_buffers() {
        let observations = vec![obs(500.0, 0, 15, 1)];
        let k = knowledge(30.0, None);
        let est = AdaptiveAdversary::paper_default().estimate_creation_times(&observations, &k);
        let base = BaselineAdversary.estimate_creation_times(&observations, &k);
        assert_eq!(est, base);
    }

    #[test]
    fn adaptive_caps_estimate_at_advertised_mean() {
        // Very slow observed rate with preemption triggered via the other
        // flow would give k/lambda > 1/mu; the cap keeps it at 1/mu.
        let mut observations = Vec::new();
        // Flow 0: rapid (drives aggregate over threshold).
        for i in 0..400 {
            observations.push(obs(i as f64 * 0.5, 0, 15, i));
        }
        // Flow 1: sparse.
        observations.push(obs(10.0, 1, 22, 1000));
        observations.push(obs(210.0, 1, 22, 1001));
        observations.sort_by_key(|o| o.arrival);
        let k = knowledge(30.0, Some(10));
        let est = AdaptiveAdversary::paper_default().estimate_creation_times(&observations, &k);
        let base = BaselineAdversary.estimate_creation_times(&observations, &k);
        // Flow 1's k/lambda = 10/0.005 = 2000 >> 30: capped to baseline.
        let idx = observations
            .iter()
            .position(|o| o.flow == FlowId(1))
            .unwrap();
        assert!((est[idx] - base[idx]).abs() < 1e-9);
    }

    #[test]
    fn oracle_subtracts_realized_latency() {
        let oracle = OracleAdversary::new(vec![180.0]);
        let k = knowledge(30.0, Some(10));
        let est = oracle.estimate_creation_times(&[obs(500.0, 0, 15, 1)], &k);
        assert!((est[0] - 320.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn bad_threshold_rejected() {
        let _ = AdaptiveAdversary::new(1.5);
    }

    #[test]
    fn windowed_adversary_tracks_rate_changes() {
        // Burst of arrivals every 2 units, then silence, then another
        // burst: inside bursts the windowed adversary switches to the
        // rate-based estimate; the lone packet long after reverts.
        let mut observations = Vec::new();
        let mut id = 0;
        for burst_start in [0.0, 5_000.0] {
            for i in 0..60 {
                observations.push(obs(burst_start + i as f64 * 2.0, 0, 15, id));
                id += 1;
            }
        }
        observations.push(obs(20_000.0, 0, 15, id));
        let k = knowledge(30.0, Some(10));
        let windowed = WindowedAdaptiveAdversary::new(100.0, 0.1);
        let est = windowed.estimate_creation_times(&observations, &k);
        let base = BaselineAdversary.estimate_creation_times(&observations, &k);
        // Deep inside the first burst: rate-based (k/0.5 = 20 < 30).
        let inside = 30;
        let expected = observations[inside].arrival.as_units() - 15.0 * (1.0 + 20.0);
        assert!(
            (est[inside] - expected).abs() < 5.0,
            "est {} vs {expected}",
            est[inside]
        );
        // The straggler after 15k units of silence: baseline.
        let last = observations.len() - 1;
        assert!((est[last] - base[last]).abs() < 1e-9);
    }

    #[test]
    fn windowed_adversary_baseline_without_buffers() {
        let observations = vec![obs(500.0, 0, 15, 1)];
        let k = knowledge(30.0, None);
        let est =
            WindowedAdaptiveAdversary::new(100.0, 0.1).estimate_creation_times(&observations, &k);
        let base = BaselineAdversary.estimate_creation_times(&observations, &k);
        assert_eq!(est, base);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn windowed_rejects_bad_window() {
        let _ = WindowedAdaptiveAdversary::new(0.0, 0.1);
    }

    #[test]
    fn route_aware_uses_per_node_saturation() {
        // Both flows arrive every 2 units: private nodes carry 0.5,
        // trunk nodes carry 1.0. With 1/mu = 30 and k = 10, every node
        // saturates: private delay -> 20, trunk delay -> 10.
        let mut observations = Vec::new();
        for i in 0..400 {
            observations.push(obs(i as f64 * 2.0, 0, 15, i * 2));
            observations.push(obs(i as f64 * 2.0 + 1.0, 1, 22, i * 2 + 1));
        }
        observations.sort_by_key(|o| o.arrival);
        let k = knowledge(30.0, Some(10));
        let est = RouteAwareAdversary::paper_default().estimate_creation_times(&observations, &k);
        // Flow 0: 15 tau + 7 private * 20 + 8 trunk * 10 = 235 subtracted.
        let expected = observations[0].arrival.as_units() - 15.0 - 140.0 - 80.0;
        assert!(
            (est[0] - expected).abs() < 2.0,
            "est {} vs {expected}",
            est[0]
        );
    }

    #[test]
    fn route_aware_matches_baseline_at_low_rate() {
        let mut observations = Vec::new();
        for i in 0..60 {
            observations.push(obs(i as f64 * 80.0, 0, 15, i * 2));
            observations.push(obs(i as f64 * 80.0 + 11.0, 1, 22, i * 2 + 1));
        }
        let k = knowledge(30.0, Some(10));
        let est = RouteAwareAdversary::paper_default().estimate_creation_times(&observations, &k);
        let base = BaselineAdversary.estimate_creation_times(&observations, &k);
        for (a, b) in est.iter().zip(&base) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn route_aware_degrades_to_baseline_without_buffers() {
        let observations = vec![obs(500.0, 0, 15, 1)];
        let k = knowledge(30.0, None);
        let est = RouteAwareAdversary::paper_default().estimate_creation_times(&observations, &k);
        let base = BaselineAdversary.estimate_creation_times(&observations, &k);
        assert_eq!(est, base);
    }
}
