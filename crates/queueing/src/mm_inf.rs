//! The M/M/∞ buffering model (paper §4).
//!
//! A node that delays every arriving packet by an independent exponential
//! time (mean 1/μ) behaves as an M/M/∞ queue: each packet gets its own
//! "variable-delay server". For Poisson input at rate λ the stationary
//! number of buffered packets is Poisson(ρ) with ρ = λ/μ, so the expected
//! buffer occupancy is exactly ρ — the quantitative heart of the paper's
//! privacy/buffer trade-off.

use serde::{Deserialize, Serialize};

use crate::poisson::Poisson;

/// An M/M/∞ station: Poisson arrivals at `lambda`, i.i.d. exponential
/// holding times with rate `mu` (mean delay `1/mu`).
///
/// # Examples
///
/// ```
/// use tempriv_queueing::mm_inf::MmInf;
///
/// // Paper defaults: per-flow lambda = 1/2, per-hop mean delay 30.
/// let station = MmInf::new(0.5, 1.0 / 30.0);
/// assert_eq!(station.utilization(), 15.0);
/// assert_eq!(station.mean_occupancy(), 15.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MmInf {
    lambda: f64,
    mu: f64,
}

impl MmInf {
    /// Creates a station with arrival rate `lambda` and service rate `mu`.
    ///
    /// # Panics
    ///
    /// Panics if either rate is non-positive or not finite.
    #[must_use]
    pub fn new(lambda: f64, mu: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "arrival rate must be positive, got {lambda}"
        );
        assert!(
            mu.is_finite() && mu > 0.0,
            "service rate must be positive, got {mu}"
        );
        MmInf { lambda, mu }
    }

    /// Utilization factor `ρ = λ/μ`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.lambda / self.mu
    }

    /// Expected number of buffered packets, `N̄ = ρ` (paper §4).
    #[must_use]
    pub fn mean_occupancy(&self) -> f64 {
        self.utilization()
    }

    /// Stationary occupancy distribution: Poisson(ρ).
    #[must_use]
    pub fn occupancy(&self) -> Poisson {
        Poisson::new(self.utilization())
    }

    /// Probability that more than `k` packets are buffered — how often a
    /// finite buffer of size `k` *would* overflow if it were enforced.
    #[must_use]
    pub fn overflow_probability(&self, k: u64) -> f64 {
        1.0 - self.occupancy().cdf(k)
    }

    /// Buffer size needed to hold the stationary backlog with probability
    /// at least `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `(0, 1)`.
    #[must_use]
    pub fn buffer_for_confidence(&self, q: f64) -> u64 {
        self.occupancy().quantile(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters_utilization() {
        // 1/lambda = 2, 1/mu = 30 => rho = 15.
        let m = MmInf::new(0.5, 1.0 / 30.0);
        assert!((m.utilization() - 15.0).abs() < 1e-12);
        assert_eq!(m.mean_occupancy(), m.utilization());
    }

    #[test]
    fn occupancy_pmf_matches_formula() {
        let m = MmInf::new(2.0, 1.0);
        let rho: f64 = 2.0;
        for k in 0..10u64 {
            let manual = rho.powi(k as i32) * (-rho).exp()
                / (1..=k).map(|i| i as f64).product::<f64>().max(1.0);
            assert!((m.occupancy().pmf(k) - manual).abs() < 1e-12, "k = {k}");
        }
    }

    #[test]
    fn overflow_probability_decreases_with_buffer() {
        let m = MmInf::new(1.0, 0.1); // rho = 10
        let mut prev = 1.0;
        for k in 0..40 {
            let p = m.overflow_probability(k);
            assert!(p <= prev);
            prev = p;
        }
        assert!(m.overflow_probability(100) < 1e-12);
    }

    #[test]
    fn buffer_sizing_hits_confidence() {
        let m = MmInf::new(0.5, 1.0 / 30.0); // rho = 15
        let k = m.buffer_for_confidence(0.99);
        assert!(m.occupancy().cdf(k) >= 0.99);
        assert!(m.occupancy().cdf(k - 1) < 0.99);
        // With the Mica-2's ~10 slots, a rho = 15 load overflows almost
        // always — the paper's motivation for RCAD.
        assert!(m.overflow_probability(10) > 0.8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mu_rejected() {
        let _ = MmInf::new(1.0, 0.0);
    }
}
