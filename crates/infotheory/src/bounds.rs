//! The bits-through-queues leakage bounds (paper §3.2, eq. 4).
//!
//! For a Poisson source of rate λ (so the j-th creation time `X_j` is
//! j-stage Erlangian) delayed by an independent exponential of rate μ,
//! Theorem 3(d) of Anantharam & Verdú's *Bits Through Queues* gives
//!
//! ```text
//! I(X_j; Z_j) ≤ ln(1 + jμ/λ)
//! ```
//!
//! and summing over a stream of `n` packets (paper eq. 4):
//!
//! ```text
//! I(Xⁿ; Zⁿ) ≤ Σ_{j=1..n} ln(1 + jμ/λ).
//! ```
//!
//! The data-processing inequality on `Xⁿ → Zⁿ → Z̃ⁿ` (the adversary only
//! sees *sorted* arrivals, §3.2) pinches the sorted-observation leakage by
//! the same bound: `0 ≤ I(Xⁿ; Z̃ⁿ) ≤ I(Xⁿ; Zⁿ)`. The designer's knob is
//! μ/λ: a mean delay `1/μ` large relative to the inter-arrival time `1/λ`
//! drives every term toward zero.

/// Per-packet leakage bound `ln(1 + jμ/λ)` in nats for the j-th packet.
///
/// # Panics
///
/// Panics if `j == 0` or the rates are non-positive or not finite.
///
/// # Examples
///
/// ```
/// use tempriv_infotheory::bounds::btq_packet_bound_nats;
///
/// // Slower delays (smaller mu) leak less.
/// let fast = btq_packet_bound_nats(1, 1.0 / 3.0, 0.5);
/// let slow = btq_packet_bound_nats(1, 1.0 / 30.0, 0.5);
/// assert!(slow < fast);
/// ```
#[must_use]
pub fn btq_packet_bound_nats(j: u64, mu: f64, lambda: f64) -> f64 {
    assert!(j > 0, "packets are indexed from 1");
    check_rates(mu, lambda);
    (1.0 + j as f64 * mu / lambda).ln()
}

/// Cumulative stream bound `Σ_{j=1..n} ln(1 + jμ/λ)` in nats (eq. 4).
///
/// # Panics
///
/// Panics if `n == 0` or the rates are non-positive or not finite.
#[must_use]
pub fn btq_stream_bound_nats(n: u64, mu: f64, lambda: f64) -> f64 {
    assert!(n > 0, "need at least one packet");
    check_rates(mu, lambda);
    (1..=n).map(|j| (1.0 + j as f64 * mu / lambda).ln()).sum()
}

fn check_rates(mu: f64, lambda: f64) {
    assert!(
        mu.is_finite() && mu > 0.0,
        "delay rate must be positive, got {mu}"
    );
    assert!(
        lambda.is_finite() && lambda > 0.0,
        "source rate must be positive, got {lambda}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::{ErlangDist, Exponential};
    use crate::mutual_information::mi_additive_nats;

    #[test]
    fn bound_grows_with_packet_index() {
        let mut prev = 0.0;
        for j in 1..20 {
            let b = btq_packet_bound_nats(j, 1.0 / 30.0, 0.5);
            assert!(b > prev);
            prev = b;
        }
    }

    #[test]
    fn stream_bound_is_sum_of_packet_bounds() {
        let (mu, lambda) = (0.1, 0.5);
        let direct: f64 = (1..=10).map(|j| btq_packet_bound_nats(j, mu, lambda)).sum();
        assert!((btq_stream_bound_nats(10, mu, lambda) - direct).abs() < 1e-12);
    }

    #[test]
    fn paper_tuning_direction() {
        // Paper: "by tuning mu to be small relative to lambda ... we can
        // control the amount of information the adversary learns".
        let lambda = 0.5;
        let leak_30 = btq_stream_bound_nats(1000, 1.0 / 30.0, lambda);
        let leak_300 = btq_stream_bound_nats(1000, 1.0 / 300.0, lambda);
        assert!(leak_300 < leak_30);
    }

    #[test]
    fn numeric_mi_respects_the_bound() {
        // I(X_j; Z_j) for X_j ~ Erlang(j, lambda), Y ~ Exp(mu) must sit
        // below ln(1 + j mu / lambda).
        let lambda = 0.5;
        let mu = 1.0 / 30.0;
        for j in [1u32, 3, 8] {
            let x = ErlangDist::new(j, lambda);
            let y = Exponential::new(mu);
            let mi = mi_additive_nats(&x, &y, 4_000);
            let bound = btq_packet_bound_nats(j as u64, mu, lambda);
            assert!(mi <= bound + 5e-3, "j = {j}: MI {mi} exceeds bound {bound}");
        }
    }

    #[test]
    #[should_panic(expected = "indexed from 1")]
    fn zero_packet_index_rejected() {
        let _ = btq_packet_bound_nats(0, 0.1, 0.5);
    }
}
