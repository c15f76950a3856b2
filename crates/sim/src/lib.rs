//! # tempriv-sim — deterministic discrete-event simulation kernel
//!
//! The simulation substrate for the reproduction of *Temporal Privacy in
//! Wireless Sensor Networks* (ICDCS 2007). The paper evaluates its RCAD
//! buffering scheme with a detailed event-driven simulator; this crate
//! provides that simulator's kernel:
//!
//! * [`time`] — fixed-point [`time::SimTime`] (exact ordering, bit-for-bit
//!   reproducible runs),
//! * [`queue`] — a cancellable future-event set (RCAD preemption cancels
//!   pending delay timers),
//! * [`engine`] — the event loop with horizons, budgets, and a borrowing
//!   [`engine::Scheduler`] handed to handlers,
//! * [`rng`] — a master-seeded [`rng::RngFactory`] deriving independent
//!   per-component streams,
//! * [`stats`] — single-pass measurement accumulators (Welford, MSE,
//!   time-weighted occupancy PMFs, histograms),
//! * [`trace`] — bounded debugging traces.
//!
//! # Examples
//!
//! A minimal M/M/∞-style station: Poisson arrivals, exponential holding, and
//! a time-weighted occupancy measurement (the setup of the paper's §4):
//!
//! ```
//! use tempriv_sim::engine::Engine;
//! use tempriv_sim::rng::RngFactory;
//! use tempriv_sim::stats::StateDwell;
//! use tempriv_sim::time::{SimDuration, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Arrive, Depart }
//!
//! let factory = RngFactory::new(1);
//! let mut arrivals = factory.stream(0);
//! let mut services = factory.stream(1);
//! let mut engine = Engine::new();
//! engine.horizon(SimTime::from_units(10_000.0));
//! engine.schedule_at(SimTime::ZERO, Ev::Arrive).unwrap();
//!
//! let (lambda, mu) = (1.0, 0.5);
//! let mut in_system = 0;
//! let mut occupancy = StateDwell::new(SimTime::ZERO, 0);
//! engine.run(|sched, ev| match ev {
//!     Ev::Arrive => {
//!         in_system += 1;
//!         occupancy.transition(sched.now(), in_system);
//!         let next = SimDuration::from_units(arrivals.sample_exp(1.0 / lambda));
//!         sched.schedule_in(next, Ev::Arrive);
//!         let hold = SimDuration::from_units(services.sample_exp(1.0 / mu));
//!         sched.schedule_in(hold, Ev::Depart);
//!     }
//!     Ev::Depart => {
//!         in_system -= 1;
//!         occupancy.transition(sched.now(), in_system);
//!     }
//! });
//! // E[N] = lambda / mu = 2 for M/M/inf.
//! let avg = occupancy.mean(engine.now());
//! assert!((avg - 2.0).abs() < 0.2, "measured {avg}");
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod engine;
pub mod error;
pub mod profile;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use engine::{Engine, Scheduler, StopReason};
pub use error::{SimError, SimResult};
pub use profile::{NoopPhaseTimer, Phase, PhaseTimer, PHASE_COUNT};
pub use queue::{EventId, EventQueue};
pub use rng::{RngFactory, SimRng};
pub use time::{SimDuration, SimTime};
