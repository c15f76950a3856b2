//! Delay decomposition across the routing path (paper §3.3).
//!
//! The end-to-end delay process `Y_j = Y_{0j} + Y_{1j} + ⋯ + Y_{N−1,j}`
//! can be split across the path's nodes in any proportion: all at the
//! source (the two-party case of §3.1), evenly (the §5 evaluation), or —
//! as §3.3 suggests, since "traffic loads in sensor networks accumulate
//! near network sinks" — weighted so that nodes *further from the sink*
//! carry more of the delay budget.
//!
//! With exponential per-node delays the split changes nothing about the
//! mean latency but everything about the *variance* (privacy) and the
//! *buffer load profile*: concentrating a budget `B` at one node yields
//! delay variance `B²`, while spreading it over `h` nodes yields `h·(B/h)²
//! = B²/h` — a factor-h privacy loss in exchange for a factor-h reduction
//! in the hottest buffer. The E2 experiment quantifies this trade-off.

use serde::{Deserialize, Serialize};
use tempriv_net::ids::NodeId;
use tempriv_net::routing::RoutingTree;

use crate::delay::{DelayPlan, DelayStrategy};

/// How a flow's delay budget is spread across its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum DecompositionShape {
    /// Equal mean delay at every node — the paper's §5 evaluation setup.
    Uniform,
    /// The entire budget at the source node (§3.1's two-party network).
    AtSource,
    /// Mean delay proportional to the node's hop distance from the sink —
    /// §3.3's suggestion: more delay where traffic has not yet aggregated.
    FarFromSink,
    /// Mean delay inversely proportional to hop distance from the sink
    /// (the contrarian control: concentrate delay where traffic is
    /// heaviest).
    NearSink,
}

impl DecompositionShape {
    /// Relative weight of a delaying node at hop-distance `depth` ≥ 1
    /// from the sink.
    #[must_use]
    pub fn weight(self, depth: u32) -> f64 {
        debug_assert!(depth >= 1, "the sink does not delay");
        match self {
            DecompositionShape::Uniform => 1.0,
            // AtSource is handled structurally in `decomposed_plan`.
            DecompositionShape::AtSource => 0.0,
            DecompositionShape::FarFromSink => f64::from(depth),
            DecompositionShape::NearSink => 1.0 / f64::from(depth),
        }
    }
}

/// Builds a per-node exponential [`DelayPlan`] that spreads a delay
/// budget along every flow's path according to `shape`.
///
/// The budget is enforced exactly for the *reference flow* (flow 0): the
/// expected artificial delay along its path equals `flow_budget`. Other
/// flows, sharing trunk nodes, receive totals proportional to their own
/// path weights. For [`DecompositionShape::AtSource`] every flow's source
/// gets its entire budget, so the budget is exact for all flows.
///
/// # Panics
///
/// Panics if `sources` is empty, `flow_budget` is non-positive or not
/// finite, or a source is not covered by `routing`.
#[must_use]
pub fn decomposed_plan(
    routing: &RoutingTree,
    sources: &[NodeId],
    flow_budget: f64,
    shape: DecompositionShape,
) -> DelayPlan {
    assert!(!sources.is_empty(), "need at least one flow");
    assert!(
        flow_budget.is_finite() && flow_budget > 0.0,
        "delay budget must be positive, got {flow_budget}"
    );
    let mut strategies = vec![DelayStrategy::None; routing.len()];
    if shape == DecompositionShape::AtSource {
        for &src in sources {
            assert!(
                routing.hops(src).is_some(),
                "source {src} is not covered by the routing tree"
            );
            strategies[src.index()] = DelayStrategy::exponential(flow_budget);
        }
        return DelayPlan::PerNode {
            strategies,
            fallback: DelayStrategy::None,
        };
    }
    // Scale chosen so the reference flow's path sums to the budget.
    let reference_path = routing.path(sources[0]);
    let reference_weight: f64 = reference_path[..reference_path.len() - 1]
        .iter()
        .map(|&v| shape.weight(routing.hops(v).expect("path node")))
        .sum();
    assert!(
        reference_weight > 0.0,
        "reference flow has no delaying nodes"
    );
    let scale = flow_budget / reference_weight;
    for &src in sources {
        let path = routing.path(src);
        for &v in &path[..path.len() - 1] {
            let depth = routing.hops(v).expect("path node");
            let mean = scale * shape.weight(depth);
            if mean > 0.0 {
                strategies[v.index()] = DelayStrategy::exponential(mean);
            }
        }
    }
    DelayPlan::PerNode {
        strategies,
        fallback: DelayStrategy::None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempriv_net::convergecast::Convergecast;
    use tempriv_net::ids::FlowId;

    fn layout() -> Convergecast {
        Convergecast::paper_figure1()
    }

    /// Analytic delay variance of the reference flow under a plan (sum of
    /// per-node exponential variances along its path).
    fn reference_delay_variance(
        routing: &RoutingTree,
        sources: &[NodeId],
        plan: &DelayPlan,
    ) -> f64 {
        let path = routing.path(sources[0]);
        path[..path.len() - 1]
            .iter()
            .map(|&v| plan.for_node(v).variance())
            .sum()
    }

    fn budget_of(plan: &DelayPlan, layout: &Convergecast, flow: FlowId) -> f64 {
        let path = layout.routing().path(layout.sources()[flow.index()]);
        plan.path_mean_delay(&path[..path.len() - 1])
    }

    #[test]
    fn uniform_decomposition_matches_shared_plan() {
        let l = layout();
        let plan = decomposed_plan(l.routing(), l.sources(), 450.0, DecompositionShape::Uniform);
        // Reference flow (S1, 15 hops): 450/15 = 30 per node.
        let path = l.routing().path(l.sources()[0]);
        for &v in &path[..path.len() - 1] {
            assert!((plan.for_node(v).mean() - 30.0).abs() < 1e-9);
        }
        assert!((budget_of(&plan, &l, FlowId(0)) - 450.0).abs() < 1e-9);
    }

    #[test]
    fn at_source_gives_every_flow_its_full_budget() {
        let l = layout();
        let plan = decomposed_plan(
            l.routing(),
            l.sources(),
            450.0,
            DecompositionShape::AtSource,
        );
        for i in 0..l.num_flows() {
            let flow = FlowId(i as u32);
            assert!((budget_of(&plan, &l, flow) - 450.0).abs() < 1e-9);
            assert!((plan.for_node(l.sources()[flow.index()]).mean() - 450.0).abs() < 1e-9);
        }
        // Forwarders do not delay.
        assert!(plan.for_node(tempriv_net::ids::NodeId(1)).is_none());
    }

    #[test]
    fn far_from_sink_is_monotone_in_depth() {
        let l = layout();
        let plan = decomposed_plan(
            l.routing(),
            l.sources(),
            450.0,
            DecompositionShape::FarFromSink,
        );
        let path = l.routing().path(l.sources()[0]);
        let means: Vec<f64> = path[..path.len() - 1]
            .iter()
            .map(|&v| plan.for_node(v).mean())
            .collect();
        // Path runs source (depth 15) -> ... -> depth 1: means decrease.
        for w in means.windows(2) {
            assert!(w[0] > w[1]);
        }
        assert!((budget_of(&plan, &l, FlowId(0)) - 450.0).abs() < 1e-9);
    }

    #[test]
    fn near_sink_is_reversed() {
        let l = layout();
        let plan = decomposed_plan(
            l.routing(),
            l.sources(),
            450.0,
            DecompositionShape::NearSink,
        );
        let path = l.routing().path(l.sources()[0]);
        let means: Vec<f64> = path[..path.len() - 1]
            .iter()
            .map(|&v| plan.for_node(v).mean())
            .collect();
        for w in means.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!((budget_of(&plan, &l, FlowId(0)) - 450.0).abs() < 1e-9);
    }

    #[test]
    fn variance_ordering_concentration_wins() {
        // At equal mean budget: Var(AtSource) = B^2 > Var(FarFromSink) >
        // Var(Uniform) = B^2/h for exponential node delays.
        let l = layout();
        let b = 450.0;
        let var = |shape| {
            let plan = decomposed_plan(l.routing(), l.sources(), b, shape);
            reference_delay_variance(l.routing(), l.sources(), &plan)
        };
        let at_source = var(DecompositionShape::AtSource);
        let far = var(DecompositionShape::FarFromSink);
        let uniform = var(DecompositionShape::Uniform);
        assert!((at_source - b * b).abs() < 1e-6);
        assert!((uniform - b * b / 15.0).abs() < 1e-6);
        assert!(
            at_source > far && far > uniform,
            "{at_source} > {far} > {uniform}"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_budget_rejected() {
        let l = layout();
        let _ = decomposed_plan(l.routing(), l.sources(), 0.0, DecompositionShape::Uniform);
    }
}
