//! Mutual information of the additive-delay channel (paper §3.1).
//!
//! The adversary observes `Z = X + Y`: creation time plus buffering delay.
//! The information leaked about `X` is
//!
//! ```text
//! I(X; Z) = h(Z) − h(Z | X) = h(X + Y) − h(Y)        (paper eq. 1)
//! ```
//!
//! and the designer's problem is `min_{f_Y} I(X; Z)` (paper eq. "min").
//! This module evaluates `I(X; Z)` numerically for arbitrary creation and
//! delay laws, and provides the entropy-power-inequality lower bound
//! (paper eq. 2) showing the leakage can never be driven to zero by any
//! finite-latency delay distribution.

use crate::distributions::ContinuousDist;
use crate::grid::GridDensity;

/// Numeric evaluation of `I(X; Z) = h(X + Y) − h(Y)` in nats.
///
/// Both laws are discretized on a shared grid of roughly `points` samples
/// covering all but `1e−9` of each distribution's mass, convolved, and
/// integrated. Accuracy is limited by the grid (≈1e-3 nats at the default
/// resolution used in the tests).
///
/// # Panics
///
/// Panics if `points < 16`.
///
/// # Examples
///
/// ```
/// use tempriv_infotheory::distributions::Exponential;
/// use tempriv_infotheory::mutual_information::mi_additive_nats;
///
/// // Heavier delay (larger mean Y) leaks less about X.
/// let x = Exponential::with_mean(2.0);
/// let light = mi_additive_nats(&x, &Exponential::with_mean(5.0), 4_000);
/// let heavy = mi_additive_nats(&x, &Exponential::with_mean(50.0), 4_000);
/// assert!(heavy < light);
/// ```
#[must_use]
pub fn mi_additive_nats<X, Y>(fx: &X, fy: &Y, points: usize) -> f64
where
    X: ContinuousDist + ?Sized,
    Y: ContinuousDist + ?Sized,
{
    assert!(points >= 16, "need at least 16 grid points, got {points}");
    const EPS: f64 = 1e-9;
    let hi_x = fx.support_hint(EPS);
    let hi_y = fy.support_hint(EPS);
    // One shared step so the grids convolve; each grid gets enough points
    // to cover its own support at that step.
    let step = hi_x.max(hi_y) / points as f64;
    let nx = ((hi_x / step).ceil() as usize).max(2) + 1;
    let ny = ((hi_y / step).ceil() as usize).max(2) + 1;
    let gx = GridDensity::from_dist(fx, step * (nx - 1) as f64, nx);
    let gy = GridDensity::from_dist(fy, step * (ny - 1) as f64, ny);
    let gz = gx.convolve(&gy);
    gz.entropy_nats() - gy.entropy_nats()
}

/// Entropy-power-inequality lower bound on the leakage (paper eq. 2):
///
/// ```text
/// I(X; Z) ≥ ½·ln(e^{2h(X)} + e^{2h(Y)}) − h(Y)   (nats)
/// ```
///
/// Evaluated stably in log space so extreme entropies cannot overflow.
#[must_use]
pub fn epi_lower_bound_nats(h_x: f64, h_y: f64) -> f64 {
    // ln(e^{2hx} + e^{2hy}) = 2*max + ln(1 + e^{2(min - max)}).
    let (a, b) = (2.0 * h_x, 2.0 * h_y);
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    let log_sum = hi + (1.0 + (lo - hi).exp()).ln();
    0.5 * log_sum - h_y
}

/// Exact leakage of the Gaussian additive channel,
/// `I = ½·ln(1 + Var X / Var Y)` — used to validate the numeric path.
#[must_use]
pub fn gaussian_channel_mi_nats(var_x: f64, var_y: f64) -> f64 {
    assert!(var_x > 0.0 && var_y > 0.0, "variances must be positive");
    0.5 * (1.0 + var_x / var_y).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::{ContinuousDist, Exponential, Gaussian, Uniform};

    #[test]
    fn gaussian_numeric_matches_closed_form() {
        let x = Gaussian::new(50.0, 3.0);
        let y = Gaussian::new(50.0, 4.0);
        let numeric = mi_additive_nats(&x, &y, 6_000);
        let exact = gaussian_channel_mi_nats(9.0, 16.0);
        assert!(
            (numeric - exact).abs() < 5e-3,
            "numeric {numeric} vs exact {exact}"
        );
    }

    #[test]
    fn epi_bound_is_tight_for_gaussians() {
        // The EPI holds with equality for Gaussian X and Y.
        let x = Gaussian::new(0.0, 3.0);
        let y = Gaussian::new(0.0, 4.0);
        let bound = epi_lower_bound_nats(x.entropy_nats(), y.entropy_nats());
        let exact = gaussian_channel_mi_nats(9.0, 16.0);
        assert!((bound - exact).abs() < 1e-12);
    }

    #[test]
    fn epi_bound_below_numeric_for_exponentials() {
        let x = Exponential::with_mean(2.0);
        let y = Exponential::with_mean(30.0);
        let bound = epi_lower_bound_nats(x.entropy_nats(), y.entropy_nats());
        let numeric = mi_additive_nats(&x, &y, 6_000);
        assert!(
            bound <= numeric + 1e-3,
            "EPI bound {bound} exceeds numeric MI {numeric}"
        );
        assert!(numeric > 0.0);
    }

    #[test]
    fn leakage_decreases_with_delay_mean() {
        let x = Exponential::with_mean(2.0);
        let mut prev = f64::INFINITY;
        for mean_y in [2.0, 8.0, 32.0, 128.0] {
            let mi = mi_additive_nats(&x, &Exponential::with_mean(mean_y), 4_000);
            assert!(
                mi < prev,
                "MI not decreasing at mean {mean_y}: {mi} vs {prev}"
            );
            assert!(mi >= -1e-6);
            prev = mi;
        }
    }

    #[test]
    fn exponential_delay_beats_uniform_and_it_shows_in_mi() {
        // At equal delay *mean*, the max-entropy exponential leaks less
        // than a uniform delay for an exponential source — the paper's
        // argument for choosing exponential delays.
        let x = Exponential::with_mean(2.0);
        let mi_exp = mi_additive_nats(&x, &Exponential::with_mean(30.0), 6_000);
        let mi_uni = mi_additive_nats(&x, &Uniform::with_mean(30.0), 6_000);
        assert!(
            mi_exp < mi_uni,
            "exponential {mi_exp} should leak less than uniform {mi_uni}"
        );
    }

    #[test]
    fn symmetric_channel_leaks_half_its_entropy_budget() {
        // X and Y i.i.d. => I(X;Z) is strictly positive and below h(Z).
        let x = Exponential::with_mean(10.0);
        let mi = mi_additive_nats(&x, &x, 4_000);
        assert!(mi > 0.2 && mi < 1.0, "MI {mi}");
    }
}
