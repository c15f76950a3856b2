//! # tempriv-queueing — queueing analysis for temporal privacy
//!
//! Analytic companions to the simulator, implementing §4 of *Temporal
//! Privacy in Wireless Sensor Networks* (ICDCS 2007):
//!
//! * [`erlang`] — the Erlang loss formula `E(ρ, k)` (paper eq. 5) with
//!   numerically stable evaluation and the inverse solvers behind RCAD's
//!   *rate-controlled* tuning,
//! * [`mm_inf`] — the M/M/∞ buffering model (occupancy is Poisson(ρ)),
//! * [`poisson`] — the Poisson distribution, and the total-variation
//!   distance that scores simulated occupancy against it,
//! * [`goodness`] — Kolmogorov–Smirnov and CV² checks used to validate
//!   Burke's theorem on simulated departures,
//! * [`math`] — log-gamma and bisection.
//!
//! # Examples
//!
//! The trade-off at the heart of the paper — privacy wants small μ, buffers
//! want small ρ = λ/μ:
//!
//! ```
//! use tempriv_queueing::erlang::erlang_b;
//! use tempriv_queueing::mm_inf::MmInf;
//!
//! // Paper defaults: inter-arrival 2, mean delay 30, Mica-2 buffer of 10.
//! let station = MmInf::new(0.5, 1.0 / 30.0);
//! assert_eq!(station.mean_occupancy(), 15.0); // needs 15 slots on average
//! let drop = erlang_b(station.utilization(), 10);
//! assert!(drop > 0.3); // ...so a 10-slot buffer drops or preempts often
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod erlang;
pub mod goodness;
pub mod math;
pub mod mm_inf;
pub mod poisson;

pub use erlang::{erlang_b, min_servers_for_loss, service_rate_for_loss, MAX_SLOTS};
pub use goodness::{cv_squared, ks_critical_5pct, ks_exponential, ks_statistic};
pub use mm_inf::MmInf;
pub use poisson::Poisson;
