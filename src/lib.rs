//! # temporal-privacy — facade crate
//!
//! A faithful, from-scratch Rust reproduction of *Temporal Privacy in
//! Wireless Sensor Networks* (Kamat, Xu, Trappe, Zhang — ICDCS 2007).
//!
//! Temporal privacy asks: can an eavesdropper at the data sink infer
//! **when** a sensor reading was created from **when** its packet
//! arrives? The paper's answer is to buffer packets for random
//! (exponential) delays at every hop, formalizes the leakage as the
//! mutual information `I(X; X + Y)`, analyzes the buffer cost with
//! M/M/∞ / M/M/k/k queueing, and proposes **RCAD** — preempt the packet
//! with the shortest remaining delay when a buffer fills, instead of
//! dropping.
//!
//! This crate re-exports the six member crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `tempriv-core` | RCAD, delay plans, adversaries, the network simulation |
//! | [`net`] | `tempriv-net` | packets, topologies, routing, traffic, mobility |
//! | [`queueing`] | `tempriv-queueing` | Erlang loss and its inverses, M/M/∞, Poisson, goodness-of-fit |
//! | [`infotheory`] | `tempriv-infotheory` | entropies, mutual information, leakage bounds |
//! | [`sim`] | `tempriv-sim` | the deterministic discrete-event kernel |
//! | [`runtime`] | `tempriv-runtime` | the worker pool, result cache and run manifests sweeps run on |
//!
//! # Quick start
//!
//! ```
//! use temporal_privacy::core::{evaluate_adversary, BaselineAdversary, ExperimentConfig};
//! use temporal_privacy::net::FlowId;
//!
//! // The paper's evaluation network, scaled down for a doctest.
//! let mut cfg = ExperimentConfig::paper_default();
//! cfg.packets_per_source = 200;
//! let sim = cfg.build()?;
//! let outcome = sim.run();
//! let report = evaluate_adversary(&outcome, &BaselineAdversary, &sim.adversary_knowledge());
//! println!(
//!     "adversary MSE on flow S1: {:.0} time-units^2 at mean latency {:.0}",
//!     report.mse(FlowId(0)),
//!     outcome.flows[0].latency.mean(),
//! );
//! # Ok::<(), temporal_privacy::core::ConfigError>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `DESIGN.md` /
//! `EXPERIMENTS.md` for the experiment index and measured results.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub use tempriv_core as core;
pub use tempriv_infotheory as infotheory;
pub use tempriv_net as net;
pub use tempriv_queueing as queueing;
pub use tempriv_runtime as runtime;
pub use tempriv_sim as sim;
