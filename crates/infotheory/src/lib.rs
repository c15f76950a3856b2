//! # tempriv-infotheory — the information-theoretic formulation
//!
//! Implements §3 of *Temporal Privacy in Wireless Sensor Networks*
//! (ICDCS 2007). Temporal privacy is the (lack of) mutual information
//! between packet creation times `X` and observed arrival times
//! `Z = X + Y`, where `Y` is the artificial buffering delay:
//!
//! * [`distributions`] — creation/delay laws with closed-form differential
//!   entropies (exponential is max-entropy among non-negative laws at a
//!   fixed mean, the paper's argument for exponential delays),
//! * [`mutual_information`] — numeric `I(X; Z) = h(X + Y) − h(Y)` (eq. 1)
//!   and the entropy-power-inequality lower bound (eq. 2),
//! * [`bounds`] — the bits-through-queues stream bounds (eq. 4),
//! * [`estimators`] — histogram entropy/MI estimators for simulator output
//!   and the MSE↔mutual-information bridge behind the paper's privacy
//!   metric,
//! * [`streaming`] — online (O(1)-per-sample) mean/variance, MI, and
//!   adversary-MSE estimators for the live privacy observatory,
//! * [`grid`] — grid densities and convolution,
//! * [`special`] — log-gamma and digamma.
//!
//! # Examples
//!
//! The designer's trade-off in one picture: longer mean delays leak less,
//! and the leakage obeys the bits-through-queues bound.
//!
//! ```
//! use tempriv_infotheory::bounds::btq_packet_bound_nats;
//! use tempriv_infotheory::distributions::{ErlangDist, Exponential};
//! use tempriv_infotheory::mutual_information::mi_additive_nats;
//!
//! let lambda = 0.5;           // packet creations per time unit
//! let mu = 1.0 / 30.0;        // delay rate: mean delay 30 units
//! let x1 = ErlangDist::new(1, lambda); // first packet's creation law
//! let y = Exponential::new(mu);
//! let leak = mi_additive_nats(&x1, &y, 4_000);
//! assert!(leak <= btq_packet_bound_nats(1, mu, lambda) + 5e-3);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bounds;
pub mod distributions;
pub mod estimators;
pub mod grid;
pub mod mutual_information;
pub mod special;
pub mod streaming;

pub use bounds::{btq_packet_bound_nats, btq_stream_bound_nats};
pub use distributions::{ContinuousDist, Degenerate, ErlangDist, Exponential, Gaussian, Uniform};
pub use estimators::{
    entropy_from_samples_nats, mi_from_samples_nats, mi_lower_bound_from_mse_nats,
    mse_lower_bound_from_mi, EstimateError,
};
pub use grid::GridDensity;
pub use mutual_information::{epi_lower_bound_nats, gaussian_channel_mi_nats, mi_additive_nats};
pub use streaming::{StreamingMi, StreamingMse, Welford, DEFAULT_STREAMING_BINS};
