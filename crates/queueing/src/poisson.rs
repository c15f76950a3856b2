//! The Poisson distribution.
//!
//! The M/M/∞ occupancy law of §4 is a Poisson distribution in `ρ`. (The
//! other Poisson property §4 uses, superposition of merging flows, is the
//! per-node flow count `RoutingTree::flows_per_node` in `tempriv-net`.)

use serde::{Deserialize, Serialize};

use crate::math::ln_factorial;

/// A Poisson distribution with mean `rho`.
///
/// # Examples
///
/// ```
/// use tempriv_queueing::poisson::Poisson;
///
/// let p = Poisson::new(2.0);
/// assert!((p.pmf(0) - (-2.0f64).exp()).abs() < 1e-12);
/// assert!((p.cdf(1) - 3.0 * (-2.0f64).exp()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Poisson {
    rho: f64,
}

impl Poisson {
    /// Creates a Poisson distribution with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `rho` is negative or not finite.
    #[must_use]
    pub fn new(rho: f64) -> Self {
        assert!(
            rho.is_finite() && rho >= 0.0,
            "Poisson mean must be non-negative and finite, got {rho}"
        );
        Poisson { rho }
    }

    /// `P(N = k)`, evaluated in log space for numerical stability.
    #[must_use]
    pub fn pmf(&self, k: u64) -> f64 {
        if self.rho == 0.0 {
            return if k == 0 { 1.0 } else { 0.0 };
        }
        (k as f64 * self.rho.ln() - self.rho - ln_factorial(k)).exp()
    }

    /// `P(N ≤ k)` by direct summation of the PMF.
    #[must_use]
    pub fn cdf(&self, k: u64) -> f64 {
        (0..=k).map(|i| self.pmf(i)).sum::<f64>().min(1.0)
    }

    /// Smallest `k` such that `P(N ≤ k) ≥ q` — e.g. the buffer size needed
    /// to hold the M/M/∞ backlog with probability `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `(0, 1)`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        assert!(
            q > 0.0 && q < 1.0,
            "quantile level must be in (0,1), got {q}"
        );
        let mut cum = 0.0;
        let mut k = 0u64;
        loop {
            cum += self.pmf(k);
            if cum >= q {
                return k;
            }
            k += 1;
            assert!(
                k < 100_000_000,
                "quantile summation failed to converge (rho = {})",
                self.rho
            );
        }
    }
}

/// Total-variation distance between an empirical PMF and a Poisson(ρ) —
/// used by the validation experiments to score how closely simulated buffer
/// occupancy matches the §4 law.
///
/// `empirical` is a list of `(state, probability)` pairs; any residual
/// Poisson mass beyond the listed states counts toward the distance.
#[must_use]
pub fn total_variation_vs_poisson(empirical: &[(u64, f64)], rho: f64) -> f64 {
    let p = Poisson::new(rho);
    let mut tv = 0.0;
    let mut poisson_mass_covered = 0.0;
    for &(k, prob) in empirical {
        let pk = p.pmf(k);
        tv += (prob - pk).abs();
        poisson_mass_covered += pk;
    }
    tv += 1.0 - poisson_mass_covered.min(1.0);
    tv / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmf_sums_to_one() {
        let p = Poisson::new(7.5);
        let total: f64 = (0..200).map(|k| p.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pmf_known_values() {
        let p = Poisson::new(1.0);
        let e = std::f64::consts::E;
        assert!((p.pmf(0) - 1.0 / e).abs() < 1e-12);
        assert!((p.pmf(1) - 1.0 / e).abs() < 1e-12);
        assert!((p.pmf(2) - 0.5 / e).abs() < 1e-12);
    }

    #[test]
    fn degenerate_at_zero() {
        let p = Poisson::new(0.0);
        assert_eq!(p.pmf(0), 1.0);
        assert_eq!(p.pmf(3), 0.0);
        assert_eq!(p.cdf(0), 1.0);
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let p = Poisson::new(4.0);
        let mut prev = 0.0;
        for k in 0..30 {
            let c = p.cdf(k);
            assert!(c >= prev && c <= 1.0);
            prev = c;
        }
        assert!((p.cdf(100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_is_inverse_of_cdf() {
        let p = Poisson::new(15.0);
        for &q in &[0.1, 0.5, 0.9, 0.999] {
            let k = p.quantile(q);
            assert!(p.cdf(k) >= q);
            if k > 0 {
                assert!(p.cdf(k - 1) < q);
            }
        }
    }

    #[test]
    fn quantile_mean_relation() {
        // Median of Poisson is within ~1 of the mean for large rho.
        let p = Poisson::new(100.0);
        let median = p.quantile(0.5) as f64;
        assert!((median - 100.0).abs() <= 2.0);
    }

    #[test]
    fn tv_distance_zero_for_exact_pmf() {
        let p = Poisson::new(3.0);
        let empirical: Vec<(u64, f64)> = (0..100).map(|k| (k, p.pmf(k))).collect();
        assert!(total_variation_vs_poisson(&empirical, 3.0) < 1e-10);
    }

    #[test]
    fn tv_distance_large_for_wrong_rho() {
        let p = Poisson::new(1.0);
        let empirical: Vec<(u64, f64)> = (0..100).map(|k| (k, p.pmf(k))).collect();
        assert!(total_variation_vs_poisson(&empirical, 20.0) > 0.9);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rate_rejected() {
        let _ = Poisson::new(-0.5);
    }
}
