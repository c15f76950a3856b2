//! The Erlang loss formula and its inverses (paper §4, eq. 5).
//!
//! For an M/M/k/k station with offered load `ρ = λ/μ`, the probability that
//! an arriving packet finds all `k` buffer slots full is
//!
//! ```text
//! E(ρ, k) = (ρᵏ/k!) / Σ_{i=0..k} ρⁱ/i!
//! ```
//!
//! The paper uses this in two places: (1) RCAD's *rate-controlled* design —
//! pick μ per node so that the drop/preemption probability stays at a target
//! α as traffic aggregates toward the sink; (2) the *adaptive adversary*,
//! which compares `E(λ̂_tot/μ, k)` against a threshold (0.1 in the paper) to
//! decide whether preemption dominates the observed delays.

use crate::math::bisect;

/// Largest buffer the inverse solvers search. Each evaluation of
/// [`erlang_b`] is `O(k)`, so this cap bounds the cost of every solve; a
/// target that needs more slots is reported as unreachable.
pub const MAX_SLOTS: u32 = 1_000_000;

/// Largest offered load [`service_rate_for_loss`] brackets before it
/// reports the target unreachable.
const MAX_OFFERED_LOAD: f64 = 1e12;

/// Erlang loss (Erlang-B) probability `E(ρ, k)`.
///
/// Evaluated with the standard numerically stable recurrence
/// `B₀ = 1; B_j = ρ·B_{j−1} / (j + ρ·B_{j−1})`, which never forms large
/// factorials and is monotone-stable for any `ρ ≥ 0`.
///
/// # Panics
///
/// Panics if `rho` is negative or not finite.
///
/// # Examples
///
/// ```
/// use tempriv_queueing::erlang::erlang_b;
///
/// // Classic telephony value: E(2, 5) ≈ 0.0367.
/// assert!((erlang_b(2.0, 5) - 0.036697).abs() < 1e-5);
/// // No servers: every arrival is lost.
/// assert_eq!(erlang_b(2.0, 0), 1.0);
/// ```
#[must_use]
pub fn erlang_b(rho: f64, k: u32) -> f64 {
    assert!(
        rho.is_finite() && rho >= 0.0,
        "offered load must be non-negative and finite, got {rho}"
    );
    if rho == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    let mut b = 1.0f64;
    for j in 1..=k {
        b = rho * b / (j as f64 + rho * b);
    }
    b
}

/// Smallest `k` such that `E(ρ, k) ≤ alpha`, or `None` if even
/// [`MAX_SLOTS`] slots lose more than `alpha`.
///
/// # Panics
///
/// Panics if `alpha` is not in `(0, 1]`.
///
/// # Examples
///
/// ```
/// use tempriv_queueing::erlang::{erlang_b, min_servers_for_loss};
///
/// let k = min_servers_for_loss(10.0, 0.01).unwrap();
/// assert!(erlang_b(10.0, k) <= 0.01);
/// assert!(k == 0 || erlang_b(10.0, k - 1) > 0.01);
/// // Ten million erlangs need more slots than the solver searches.
/// assert_eq!(min_servers_for_loss(1e7, 0.01), None);
/// ```
#[must_use]
pub fn min_servers_for_loss(rho: f64, alpha: f64) -> Option<u32> {
    assert!(
        alpha > 0.0 && alpha <= 1.0,
        "target loss must be in (0, 1], got {alpha}"
    );
    let mut k = 0u32;
    // The recurrence form below reuses B_{k-1} rather than recomputing
    // from scratch.
    let mut b = 1.0f64;
    while b > alpha {
        if k == MAX_SLOTS {
            return None;
        }
        k += 1;
        b = rho * b / (k as f64 + rho * b);
    }
    Some(k)
}

/// The offered load `ρ*` at which `E(ρ*, k) = alpha` — the inverse of the
/// loss formula in its first argument (which is strictly increasing in ρ)
/// — or `None` if `ρ*` exceeds [`MAX_OFFERED_LOAD`].
///
/// # Panics
///
/// Panics if `k == 0` (loss is identically 1) or `alpha` is not in (0, 1).
fn offered_load_for_loss(k: u32, alpha: f64) -> Option<f64> {
    assert!(k > 0, "a station with no buffer slots always drops");
    assert!(
        alpha > 0.0 && alpha < 1.0,
        "target loss must be in (0, 1), got {alpha}"
    );
    // Bracket: E(0, k) = 0 < alpha; grow hi until E(hi, k) > alpha.
    let mut hi = 1.0f64;
    while erlang_b(hi, k) < alpha {
        hi *= 2.0;
        if hi >= MAX_OFFERED_LOAD {
            return None;
        }
    }
    let rho = bisect(|rho| erlang_b(rho, k) - alpha, 0.0, hi, 200)
        .expect("erlang_b is monotone; bracket is valid");
    Some(rho)
}

/// Chooses the service rate μ (i.e. the reciprocal mean buffering delay)
/// that holds the drop probability of an M/M/k/k buffer at `alpha` for
/// incoming traffic rate `lambda` — the paper's rate-controlled tuning rule
/// ("as we approach the sink and λ increases, we must decrease the average
/// delay time 1/μ to maintain E(ρ,k) at a target packet drop rate α").
/// Returns `None` if `k` slots reach `alpha` only at an offered load of
/// 10¹² or more (an `alpha` within ~`k/10¹²` of 1).
///
/// # Panics
///
/// Panics if `lambda <= 0`, `k == 0`, or `alpha` not in (0, 1).
///
/// # Examples
///
/// ```
/// use tempriv_queueing::erlang::{erlang_b, service_rate_for_loss};
///
/// let mu = service_rate_for_loss(0.5, 10, 0.1).unwrap();
/// assert!((erlang_b(0.5 / mu, 10) - 0.1).abs() < 1e-9);
/// // Ten slots lose 1e-13 of the traffic only at loads near 1e14.
/// assert_eq!(service_rate_for_loss(1.0, 10, 1.0 - 1e-13), None);
/// ```
#[must_use]
pub fn service_rate_for_loss(lambda: f64, k: u32, alpha: f64) -> Option<f64> {
    assert!(
        lambda.is_finite() && lambda > 0.0,
        "arrival rate must be positive, got {lambda}"
    );
    offered_load_for_loss(k, alpha).map(|rho| lambda / rho)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::ln_factorial;

    /// Direct (unstable) evaluation of the loss formula for cross-checking.
    fn erlang_b_direct(rho: f64, k: u32) -> f64 {
        let ln_num = k as f64 * rho.ln() - ln_factorial(k as u64);
        let denom: f64 = (0..=k)
            .map(|i| (i as f64 * rho.ln() - ln_factorial(i as u64) - ln_num).exp())
            .sum();
        1.0 / denom
    }

    #[test]
    fn matches_direct_formula() {
        for &(rho, k) in &[(0.5, 1u32), (2.0, 5), (10.0, 10), (15.0, 10), (30.0, 10)] {
            let fast = erlang_b(rho, k);
            let direct = erlang_b_direct(rho, k);
            assert!(
                (fast - direct).abs() < 1e-10,
                "E({rho},{k}): {fast} vs {direct}"
            );
        }
    }

    #[test]
    fn known_telephony_values() {
        // Tabulated Erlang-B values.
        assert!((erlang_b(1.0, 1) - 0.5).abs() < 1e-12);
        assert!((erlang_b(2.0, 2) - 0.4).abs() < 1e-12);
        assert!((erlang_b(3.0, 3) - 0.346).abs() < 5e-4);
    }

    #[test]
    fn zero_load_never_blocks() {
        assert_eq!(erlang_b(0.0, 10), 0.0);
        assert_eq!(erlang_b(0.0, 0), 1.0);
    }

    #[test]
    fn monotone_increasing_in_rho() {
        let mut prev = 0.0;
        for i in 1..50 {
            let b = erlang_b(i as f64 * 0.5, 10);
            assert!(b > prev);
            prev = b;
        }
    }

    #[test]
    fn monotone_decreasing_in_k() {
        let mut prev = 1.0;
        for k in 1..30 {
            let b = erlang_b(8.0, k);
            assert!(b < prev, "E(8,{k}) = {b} !< {prev}");
            prev = b;
        }
    }

    #[test]
    fn heavy_traffic_limit() {
        // As rho -> inf with fixed k, E -> 1 - k/rho + o(1/rho).
        let b = erlang_b(1e6, 10);
        assert!((b - (1.0 - 10.0 / 1e6)).abs() < 1e-9);
    }

    #[test]
    fn min_servers_inverse_of_loss() {
        for &rho in &[0.5, 2.0, 10.0, 40.0] {
            for &alpha in &[0.2, 0.05, 0.01] {
                let k = min_servers_for_loss(rho, alpha).unwrap();
                assert!(erlang_b(rho, k) <= alpha);
                if k > 0 {
                    assert!(erlang_b(rho, k - 1) > alpha);
                }
            }
        }
    }

    #[test]
    fn offered_load_inverts_loss() {
        for &k in &[1u32, 5, 10, 50] {
            for &alpha in &[0.01, 0.1, 0.5] {
                let rho = offered_load_for_loss(k, alpha).unwrap();
                assert!(
                    (erlang_b(rho, k) - alpha).abs() < 1e-9,
                    "k={k} alpha={alpha} rho={rho}"
                );
            }
        }
    }

    #[test]
    fn service_rate_scales_linearly_with_lambda() {
        let mu1 = service_rate_for_loss(0.5, 10, 0.1).unwrap();
        let mu2 = service_rate_for_loss(1.0, 10, 0.1).unwrap();
        assert!((mu2 / mu1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn paper_adaptive_threshold_scenario() {
        // Paper §5.4: aggregate traffic of 4 flows, k = 10, 1/mu = 30.
        // At 1/lambda = 2 per flow, lambda_tot = 2.0 => rho = 60: loss is
        // far above the 0.1 threshold (adversary switches strategy).
        assert!(erlang_b(2.0 * 30.0, 10) > 0.1);
        // At 1/lambda = 20 per flow, lambda_tot = 0.2 => rho = 6: loss is
        // below the threshold (adversary keeps the h/mu estimate).
        assert!(erlang_b(0.2 * 30.0, 10) < 0.1);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_load_rejected() {
        let _ = erlang_b(-1.0, 3);
    }

    #[test]
    #[should_panic(expected = "no buffer slots")]
    fn zero_k_inverse_rejected() {
        let _ = offered_load_for_loss(0, 0.1);
    }
}
