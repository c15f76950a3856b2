//! Rate-controlled per-node delay assignment (paper §4).
//!
//! "For an incoming traffic rate λ, we may use the Erlang Loss formula to
//! appropriately select μ so as to have a target packet drop rate α …
//! as we approach the sink and the traffic rate λ increases, we must
//! decrease the average delay time 1/μ in order to maintain E(ρ,k) at a
//! target packet drop rate α."
//!
//! [`rate_controlled_plan`] turns that rule into a concrete
//! [`DelayPlan`]: each node on any flow's route gets the exponential mean
//! that pins its Erlang loss (≈ preemption probability under RCAD) at α
//! given the traffic aggregated through it.

use tempriv_net::ids::NodeId;
use tempriv_net::routing::RoutingTree;
use tempriv_queueing::erlang::service_rate_for_loss;

use crate::delay::{DelayPlan, DelayStrategy};

/// Builds the per-node rate-controlled delay plan.
///
/// Each node carrying `m` flows sees aggregate Poisson-superposed traffic
/// `m·per_flow_rate`; its exponential delay mean becomes
/// `1/service_rate_for_loss(λ_node, k, α)`. Nodes carrying no traffic
/// (and the sink) fall back to no delay.
///
/// # Panics
///
/// Panics if `per_flow_rate` is non-positive or not finite, `k == 0`,
/// `alpha` is not in (0, 1), or `alpha` is so close to 1 that `k` slots
/// reach it at no offered load [`service_rate_for_loss`] searches.
#[must_use]
pub fn rate_controlled_plan(
    routing: &RoutingTree,
    sources: &[NodeId],
    per_flow_rate: f64,
    k: u32,
    alpha: f64,
) -> DelayPlan {
    assert!(
        per_flow_rate.is_finite() && per_flow_rate > 0.0,
        "per-flow rate must be positive, got {per_flow_rate}"
    );
    let counts = routing.flows_per_node(sources);
    let strategies: Vec<DelayStrategy> = counts
        .iter()
        .enumerate()
        .map(|(idx, &m)| {
            if m == 0 || NodeId(idx as u32) == routing.sink() {
                DelayStrategy::None
            } else {
                let lambda = f64::from(m) * per_flow_rate;
                let mu = service_rate_for_loss(lambda, k, alpha)
                    .expect("loss target reachable with k slots");
                DelayStrategy::exponential(1.0 / mu)
            }
        })
        .collect();
    DelayPlan::PerNode {
        strategies,
        fallback: DelayStrategy::None,
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use tempriv_net::convergecast::Convergecast;
    use tempriv_queueing::erlang::erlang_b;

    #[test]
    fn counts_match_convergecast_structure() {
        let layout = Convergecast::paper_figure1();
        let counts = layout.routing().flows_per_node(layout.sources());
        // Sink and trunk carry all four flows.
        assert_eq!(counts[0], 4);
        for i in 1..=8 {
            assert_eq!(counts[i], 4, "trunk node {i}");
        }
        // Sources carry exactly one.
        for &src in layout.sources() {
            assert_eq!(counts[src.index()], 1);
        }
    }

    #[test]
    fn plan_pins_loss_at_alpha_everywhere() {
        let layout = Convergecast::paper_figure1();
        let (k, alpha, rate) = (10u32, 0.05, 0.5);
        let plan = rate_controlled_plan(layout.routing(), layout.sources(), rate, k, alpha);
        let counts = layout.routing().flows_per_node(layout.sources());
        for idx in 0..layout.len() {
            let strategy = plan.for_node(NodeId(idx as u32));
            if counts[idx] == 0 || idx == 0 {
                assert!(strategy.is_none());
            } else {
                let lambda = f64::from(counts[idx]) * rate;
                let rho = lambda * strategy.mean();
                assert!(
                    (erlang_b(rho, k) - alpha).abs() < 1e-8,
                    "node {idx}: loss {}",
                    erlang_b(rho, k)
                );
            }
        }
    }

    #[test]
    fn trunk_delays_are_shorter_than_private_delays() {
        let layout = Convergecast::paper_figure1();
        let plan = rate_controlled_plan(layout.routing(), layout.sources(), 0.5, 10, 0.05);
        let trunk_mean = plan.for_node(NodeId(1)).mean();
        let source_mean = plan.for_node(layout.sources()[0]).mean();
        // 4x the traffic => 1/4 the delay budget.
        assert!((source_mean / trunk_mean - 4.0).abs() < 1e-6);
    }

    #[test]
    fn plan_total_latency_varies_by_flow_sharing() {
        let layout = Convergecast::paper_figure1();
        let plan = rate_controlled_plan(layout.routing(), layout.sources(), 0.5, 10, 0.05);
        // Expected artificial delay along S1's path (exclude the sink).
        let path = layout.routing().path(layout.sources()[0]);
        let total = plan.path_mean_delay(&path[..path.len() - 1]);
        // 7 private hops at the single-flow mean + 8 trunk hops at 1/4 it.
        let single = plan.for_node(layout.sources()[0]).mean();
        let expected = 7.0 * single + 8.0 * single / 4.0;
        assert!(
            (total - expected).abs() < 1e-6,
            "total {total} vs {expected}"
        );
    }
}
