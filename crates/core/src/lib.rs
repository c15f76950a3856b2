//! # tempriv-core — temporal privacy for delay-tolerant sensor networks
//!
//! The primary contribution of *Temporal Privacy in Wireless Sensor
//! Networks* (ICDCS 2007), reproduced in full:
//!
//! * [`delay`] — per-node random-delay strategies ([`delay::DelayPlan`]),
//! * [`buffer`] — finite buffers with drop-tail and **RCAD**
//!   (Rate-Controlled Adaptive Delaying): preempt the buffered packet with
//!   the shortest remaining delay instead of dropping (§5),
//! * [`adversary`] — the deployment-aware baseline (§2.1) and adaptive
//!   (§5.4) creation-time estimators, plus a calibration oracle,
//! * [`metrics`] — MSE privacy scoring and latency/occupancy reports,
//! * [`sim_driver`] — the deterministic event-driven network simulation
//!   tying it all together,
//! * [`config`] — serializable experiment descriptions,
//! * [`report`] — one-call [`report::PrivacyAssessment`] dashboards,
//! * [`replication`] — multi-seed replication with confidence intervals,
//! * [`experiment`] — the parameter sweeps behind every figure,
//! * [`adaptive_mu`] — the §4 rate-controlled per-node delay assignment,
//! * [`decomposition`] — the §3.3 delay-budget decomposition across paths.
//!
//! # Examples
//!
//! Reproduce the paper's headline comparison at the highest traffic rate:
//!
//! ```
//! use tempriv_core::adversary::BaselineAdversary;
//! use tempriv_core::config::ExperimentConfig;
//! use tempriv_core::metrics::evaluate_adversary;
//! use tempriv_net::ids::FlowId;
//!
//! let mut cfg = ExperimentConfig::paper_default();
//! cfg.packets_per_source = 200; // keep the doctest quick
//! let sim = cfg.build()?;
//! let outcome = sim.run();
//! let report = evaluate_adversary(&outcome, &BaselineAdversary, &sim.adversary_knowledge());
//! // RCAD preemptions make the adversary's estimate badly wrong:
//! assert!(report.mse(FlowId(0)) > 1_000.0);
//! # Ok::<(), tempriv_core::config::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod adaptive_mu;
pub mod adversary;
pub mod buffer;
pub mod config;
pub mod decomposition;
pub mod delay;
pub mod experiment;
pub mod metrics;
mod node_table;
pub mod replication;
pub mod report;
pub mod sharded;
pub mod sim_driver;
pub mod store;
pub mod telemetry;

pub use adversary::{
    AdaptiveAdversary, Adversary, AdversaryKnowledge, BaselineAdversary, Observation,
    OracleAdversary, RouteAwareAdversary, WindowedAdaptiveAdversary,
};
pub use buffer::{BufferPolicy, VictimPolicy};
pub use config::{ConfigError, ExperimentConfig, LayoutSpec};
pub use delay::{DelayPlan, DelayStrategy};
pub use metrics::{
    evaluate_adversary, AdversaryReport, FlowOutcome, NodeReport, ShardStats, SimOutcome,
};
pub use replication::{replicate, replication_seed, ReplicatedMetric};
pub use report::{FlowAssessment, PrivacyAssessment};
pub use sharded::ShardPlan;
pub use sim_driver::{BuildError, NetworkSimulation, NetworkSimulationBuilder, Workload};
