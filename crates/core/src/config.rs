//! Serializable experiment configurations.
//!
//! [`ExperimentConfig`] is the on-disk description of one simulation run:
//! layout, workload, privacy mechanism, and seed. The benchmark harness
//! and the CLI-style binaries build [`NetworkSimulation`]s from these, so
//! every number in EXPERIMENTS.md is regenerable from a small JSON value.

use serde::{Deserialize, Serialize};
use tempriv_net::convergecast::Convergecast;
use tempriv_net::ids::NodeId;
use tempriv_net::link::LinkModel;
use tempriv_net::routing::RoutingTree;
use tempriv_net::topology::Topology;
use tempriv_net::traffic::TrafficModel;
use tempriv_sim::time::{SimDuration, TICKS_PER_UNIT};

use crate::buffer::BufferPolicy;
use crate::delay::{DelayPlan, DelayStrategy};
use crate::sim_driver::{BuildError, NetworkSimulation};

/// Longest delay one node can draw, in means of its strategy: an
/// exponential draw is `-mean·ln(1 − u)` with `1 − u ≥ 2⁻⁵³`, so at most
/// `53·ln 2 ≈ 36.7` means; uniform and constant draws stay within two.
const DELAY_TAIL_FACTOR: f64 = 37.0;

/// Which deployment to simulate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum LayoutSpec {
    /// The paper's Figure 1 evaluation layout (flows of 15/22/9/11 hops,
    /// 8-hop shared trunk).
    PaperFigure1,
    /// A custom convergecast layout.
    Convergecast {
        /// Hops shared by every flow directly before the sink.
        trunk_hops: u32,
        /// Total hop count per flow.
        flow_hops: Vec<u32>,
    },
    /// A single line: one source, `hops` hops from the sink.
    Line {
        /// Source-to-sink hop count.
        hops: u32,
    },
    /// A `width × height` grid with BFS routing to `sink` and the given
    /// source nodes.
    Grid {
        /// Grid width.
        width: u32,
        /// Grid height.
        height: u32,
        /// The sink node id (`y·width + x`).
        sink: u32,
        /// Source node ids.
        sources: Vec<u32>,
    },
}

impl LayoutSpec {
    /// Materializes the routing tree and source list.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutBuildError`] if the spec is internally inconsistent
    /// (bad hop counts, unknown grid nodes, ...).
    pub fn build(&self) -> Result<(RoutingTree, Vec<NodeId>), LayoutBuildError> {
        match self {
            LayoutSpec::PaperFigure1 => {
                let layout = Convergecast::paper_figure1();
                Ok((layout.routing().clone(), layout.sources().to_vec()))
            }
            LayoutSpec::Convergecast {
                trunk_hops,
                flow_hops,
            } => {
                let layout = Convergecast::builder()
                    .trunk_hops(*trunk_hops)
                    .flows(flow_hops.iter().copied())
                    .build()
                    .map_err(|e| LayoutBuildError(e.to_string()))?;
                Ok((layout.routing().clone(), layout.sources().to_vec()))
            }
            LayoutSpec::Line { hops } => {
                if *hops == 0 {
                    return Err(LayoutBuildError(
                        "a line layout needs at least one hop".into(),
                    ));
                }
                let topo = Topology::line(*hops as usize + 1);
                let routing = RoutingTree::shortest_path(&topo, NodeId(0))
                    .map_err(|e| LayoutBuildError(e.to_string()))?;
                Ok((routing, vec![NodeId(*hops)]))
            }
            LayoutSpec::Grid {
                width,
                height,
                sink,
                sources,
            } => {
                let topo = Topology::grid(*width as usize, *height as usize);
                let routing = RoutingTree::shortest_path(&topo, NodeId(*sink))
                    .map_err(|e| LayoutBuildError(e.to_string()))?;
                if sources.is_empty() {
                    return Err(LayoutBuildError("grid layout needs sources".into()));
                }
                Ok((routing, sources.iter().map(|&s| NodeId(s)).collect()))
            }
        }
    }
}

/// Errors from [`LayoutSpec::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutBuildError(String);

impl core::fmt::Display for LayoutBuildError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid layout: {}", self.0)
    }
}

impl std::error::Error for LayoutBuildError {}

/// One fully described experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// The deployment.
    pub layout: LayoutSpec,
    /// Per-source traffic.
    pub traffic: TrafficModel,
    /// Packets each source creates.
    pub packets_per_source: u32,
    /// The delay plan.
    pub delay: DelayPlan,
    /// The buffer policy.
    pub buffer: BufferPolicy,
    /// Per-hop transmission delay τ.
    pub link_delay: f64,
    /// Per-transmission loss probability.
    pub link_loss: f64,
    /// Uniform MAC jitter width added per hop (0 = the paper's constant-τ
    /// abstraction).
    #[serde(default)]
    pub link_jitter: f64,
    /// Master RNG seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The paper's §5.2 defaults: Figure 1 layout, periodic traffic at
    /// inter-arrival 2, 1000 packets per source, exponential delay mean
    /// 30, RCAD with 10 slots, τ = 1, lossless links.
    #[must_use]
    pub fn paper_default() -> Self {
        ExperimentConfig {
            layout: LayoutSpec::PaperFigure1,
            traffic: TrafficModel::periodic(2.0),
            packets_per_source: 1000,
            delay: DelayPlan::shared_exponential(30.0),
            buffer: BufferPolicy::paper_rcad(),
            link_delay: 1.0,
            link_loss: 0.0,
            link_jitter: 0.0,
            seed: 0,
        }
    }

    /// Builds the runnable simulation.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the layout, the link settings, the delay
    /// plan, the traffic model or the simulation parameters are invalid,
    /// or if the creation schedule plus the longest route's link time and
    /// worst-case delays overflow the simulation clock.
    pub fn build(&self) -> Result<NetworkSimulation, ConfigError> {
        let (routing, sources) = self.layout.build()?;
        // A span the simulation clock can hold: finite, non-negative, and
        // at most u64::MAX ticks.
        let in_clock_range =
            |units: f64| units >= 0.0 && units * TICKS_PER_UNIT as f64 <= u64::MAX as f64;
        let bad = |field: &str, expected: &str, value: f64| {
            ConfigError::Link(format!("{field} must be {expected}, got {value:?}"))
        };
        const TIME: &str = "a non-negative time the simulation clock can hold";
        if !in_clock_range(self.link_delay) {
            return Err(bad("link_delay", TIME, self.link_delay));
        }
        if !(0.0..1.0).contains(&self.link_loss) {
            return Err(bad("link_loss", "in [0, 1)", self.link_loss));
        }
        if !in_clock_range(self.link_jitter) {
            return Err(bad("link_jitter", TIME, self.link_jitter));
        }
        // The longest route must also fit: each hop adds up to one
        // delay plus one jitter to a packet's clock.
        let max_hops = sources
            .iter()
            .filter_map(|&src| routing.hops(src))
            .max()
            .unwrap_or(0);
        let per_hop = self.link_delay + self.link_jitter;
        if !in_clock_range(per_hop * f64::from(max_hops)) {
            return Err(ConfigError::Link(format!(
                "link_delay + link_jitter ({per_hop:?}) over the longest route \
                 ({max_hops} hops) overflows the simulation clock"
            )));
        }
        let strategies = match &self.delay {
            DelayPlan::Shared(strategy) => std::slice::from_ref(strategy).iter().chain(None),
            DelayPlan::PerNode {
                strategies,
                fallback,
            } => strategies.iter().chain(Some(fallback)),
        };
        // A plan read from JSON has had no range check yet.
        let invalid = |strategy: &&DelayStrategy| match **strategy {
            DelayStrategy::None => false,
            DelayStrategy::Exponential { mean } | DelayStrategy::Uniform { mean } => {
                !(mean.is_finite() && mean > 0.0)
            }
            DelayStrategy::Constant { delay } => !(delay.is_finite() && delay >= 0.0),
        };
        if let Some(bad) = strategies.clone().find(invalid) {
            return Err(ConfigError::Delay(format!(
                "{bad:?} needs a positive finite mean (a constant delay: non-negative)"
            )));
        }
        let max_mean = strategies.map(DelayStrategy::mean).fold(0.0, f64::max);
        if !in_clock_range((per_hop + DELAY_TAIL_FACTOR * max_mean) * f64::from(max_hops)) {
            return Err(ConfigError::Delay(format!(
                "the largest delay mean ({max_mean:?}) times {DELAY_TAIL_FACTOR}, plus the \
                 link time, over the longest route ({max_hops} hops) overflows the \
                 simulation clock"
            )));
        }
        // Every gap must be positive and finite (what the `TrafficModel`
        // constructors assert), and the last packet, created at most
        // `packets_per_source` of the model's largest gaps after the
        // start, must still cross the longest route on the clock.
        let positive = |x: f64| x.is_finite() && x > 0.0;
        let max_gap = match self.traffic {
            TrafficModel::Periodic { interval } => positive(interval).then_some(interval),
            TrafficModel::PeriodicJitter { interval, jitter } => (positive(interval)
                && (0.0..1.0).contains(&jitter))
            .then_some(interval * (1.0 + jitter)),
            // An exponential gap, like an exponential delay, stays within
            // DELAY_TAIL_FACTOR means.
            TrafficModel::Poisson { rate } => positive(rate).then_some(DELAY_TAIL_FACTOR / rate),
            TrafficModel::OnOff {
                interval,
                burst,
                off,
            } => (positive(interval) && burst > 0 && positive(off)).then_some(interval.max(off)),
            // A model without a known largest gap cannot be bounded.
            _ => None,
        };
        let Some(max_gap) = max_gap else {
            return Err(ConfigError::Traffic(format!(
                "{:?} needs positive finite gaps, a jitter in [0, 1) and bursts of at \
                 least one packet",
                self.traffic
            )));
        };
        let route = (per_hop + DELAY_TAIL_FACTOR * max_mean) * f64::from(max_hops);
        if !in_clock_range(f64::from(self.packets_per_source) * max_gap + route) {
            return Err(ConfigError::Traffic(format!(
                "{} packets per source at gaps up to {max_gap:?}, plus the longest route \
                 ({max_hops} hops), overflow the simulation clock",
                self.packets_per_source
            )));
        }
        let link = LinkModel::constant(SimDuration::from_units(self.link_delay))
            .with_loss(self.link_loss)
            .with_jitter(self.link_jitter);
        let sim = NetworkSimulation::builder(routing, sources)
            .traffic(self.traffic)
            .packets_per_source(self.packets_per_source)
            .delay_plan(self.delay.clone())
            .buffer_policy(self.buffer)
            .link(link)
            .seed(self.seed)
            .build()?;
        Ok(sim)
    }
}

/// Errors from [`ExperimentConfig::build`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The layout spec failed to materialize.
    Layout(LayoutBuildError),
    /// A `link_*` setting is out of range; says which and why.
    Link(String),
    /// A delay strategy is out of range, or the plan's worst-case delays
    /// cannot fit on the clock; says which.
    Delay(String),
    /// The traffic model is out of range, or its creation schedule plus
    /// the longest route cannot fit on the clock; says which.
    Traffic(String),
    /// The simulation parameters failed validation.
    Simulation(BuildError),
}

impl From<LayoutBuildError> for ConfigError {
    fn from(e: LayoutBuildError) -> Self {
        ConfigError::Layout(e)
    }
}

impl From<BuildError> for ConfigError {
    fn from(e: BuildError) -> Self {
        ConfigError::Simulation(e)
    }
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::Layout(e) => write!(f, "{e}"),
            ConfigError::Link(reason) => write!(f, "invalid link: {reason}"),
            ConfigError::Delay(reason) => write!(f, "invalid delay plan: {reason}"),
            ConfigError::Traffic(reason) => write!(f, "invalid traffic: {reason}"),
            ConfigError::Simulation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;
    use tempriv_net::ids::FlowId;

    #[test]
    fn paper_default_builds_and_matches_paper_numbers() {
        let cfg = ExperimentConfig::paper_default();
        let sim = cfg.build().unwrap();
        let k = sim.adversary_knowledge();
        assert_eq!(k.flow_hops, vec![15, 22, 9, 11]);
        assert_eq!(k.buffer_slots, Some(10));
        assert_eq!(k.delay_mean, 30.0);
    }

    #[test]
    fn config_json_round_trip() {
        let cfg = ExperimentConfig::paper_default();
        let json = serde_json::to_string_pretty(&cfg).unwrap();
        let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn line_layout_builds() {
        let (routing, sources) = LayoutSpec::Line { hops: 15 }.build().unwrap();
        assert_eq!(routing.hops(sources[0]), Some(15));
    }

    #[test]
    fn grid_layout_builds() {
        let (routing, sources) = LayoutSpec::Grid {
            width: 5,
            height: 5,
            sink: 0,
            sources: vec![24, 20],
        }
        .build()
        .unwrap();
        assert_eq!(routing.hops(sources[0]), Some(8));
        assert_eq!(routing.hops(sources[1]), Some(4));
    }

    #[test]
    fn custom_convergecast_builds() {
        let (routing, sources) = LayoutSpec::Convergecast {
            trunk_hops: 3,
            flow_hops: vec![5, 7],
        }
        .build()
        .unwrap();
        assert_eq!(sources.len(), 2);
        assert_eq!(routing.hops(sources[1]), Some(7));
    }

    #[test]
    fn invalid_specs_error() {
        assert!(LayoutSpec::Line { hops: 0 }.build().is_err());
        assert!(LayoutSpec::Convergecast {
            trunk_hops: 9,
            flow_hops: vec![5],
        }
        .build()
        .is_err());
        assert!(LayoutSpec::Grid {
            width: 2,
            height: 2,
            sink: 0,
            sources: vec![],
        }
        .build()
        .is_err());
        let mut cfg = ExperimentConfig::paper_default();
        cfg.packets_per_source = 0;
        assert!(matches!(cfg.build(), Err(ConfigError::Simulation(_))));
    }

    #[test]
    fn every_traffic_model_bounds_its_creation_schedule() {
        let build = |traffic| {
            let mut cfg = ExperimentConfig::paper_default();
            cfg.traffic = traffic;
            cfg.packets_per_source = 20;
            cfg.build().map(|_| ())
        };
        let on_off = |interval, burst, off| TrafficModel::OnOff {
            interval,
            burst,
            off,
        };
        for fits in [
            TrafficModel::periodic(1e11),
            TrafficModel::periodic_jitter(1e10, 0.5),
            TrafficModel::poisson(1e-9),
            on_off(2.0, 4, 1e11),
        ] {
            assert_eq!(build(fits), Ok(()), "{fits:?}");
        }
        // Too long a schedule, or parameters no sampler can draw.
        for rejected in [
            TrafficModel::periodic(1e13),
            TrafficModel::periodic_jitter(5e11, 0.9),
            TrafficModel::poisson(1e-11),
            on_off(1e13, 4, 2.0),
            TrafficModel::Periodic { interval: -2.0 },
            TrafficModel::PeriodicJitter {
                interval: 2.0,
                jitter: 1.5,
            },
            TrafficModel::Poisson { rate: 0.0 },
            on_off(2.0, 0, 2.0),
        ] {
            assert!(
                matches!(build(rejected), Err(ConfigError::Traffic(_))),
                "{rejected:?}"
            );
        }
    }

    #[test]
    fn built_simulation_runs() {
        let mut cfg = ExperimentConfig::paper_default();
        cfg.packets_per_source = 50;
        let out = cfg.build().unwrap().run();
        assert_eq!(out.total_delivered(), 200);
        assert_eq!(out.flows[FlowId(0).index()].hops, 15);
    }
}
