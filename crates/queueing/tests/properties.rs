//! Property-based tests for the queueing formulas.

use proptest::prelude::*;
use tempriv_queueing::erlang::{erlang_b, min_servers_for_loss, service_rate_for_loss};
use tempriv_queueing::poisson::Poisson;

proptest! {
    /// Erlang loss is a probability, increasing in load and decreasing in
    /// servers, for any parameters.
    #[test]
    fn erlang_b_is_probability_and_monotone(rho in 0.0f64..500.0, k in 0u32..200) {
        let b = erlang_b(rho, k);
        prop_assert!((0.0..=1.0).contains(&b));
        let b_more_load = erlang_b(rho + 1.0, k);
        prop_assert!(b_more_load >= b - 1e-12);
        let b_more_servers = erlang_b(rho, k + 1);
        prop_assert!(b_more_servers <= b + 1e-12);
    }

    /// The loss recurrence satisfies its defining identity
    /// `B_k = rho*B_{k-1} / (k + rho*B_{k-1})`.
    #[test]
    fn erlang_b_recurrence_identity(rho in 0.01f64..100.0, k in 1u32..100) {
        let prev = erlang_b(rho, k - 1);
        let expected = rho * prev / (k as f64 + rho * prev);
        prop_assert!((erlang_b(rho, k) - expected).abs() < 1e-12);
    }

    /// The inverse solver actually inverts.
    #[test]
    fn inverse_solvers_round_trip(k in 1u32..60, alpha in 0.001f64..0.9) {
        let lambda = 0.25;
        let mu = service_rate_for_loss(lambda, k, alpha).unwrap();
        prop_assert!((erlang_b(lambda / mu, k) - alpha).abs() < 1e-7);
    }

    /// min_servers_for_loss returns the *minimal* satisfying k.
    #[test]
    fn min_servers_is_minimal(rho in 0.1f64..80.0, alpha in 0.001f64..0.5) {
        let k = min_servers_for_loss(rho, alpha).unwrap();
        prop_assert!(erlang_b(rho, k) <= alpha);
        if k > 0 {
            prop_assert!(erlang_b(rho, k - 1) > alpha);
        }
    }

    /// Poisson CDF is the running sum of the PMF and the quantile inverts it.
    #[test]
    fn poisson_cdf_quantile_consistent(rho in 0.01f64..200.0, q in 0.01f64..0.99) {
        let p = Poisson::new(rho);
        let k = p.quantile(q);
        prop_assert!(p.cdf(k) >= q);
        if k > 0 {
            prop_assert!(p.cdf(k - 1) < q);
        }
    }
}
