//! Delay strategies — the privacy mechanism.
//!
//! Each node on the source–sink path buffers every packet for a random
//! time before forwarding it (paper §2, §3.3). The delay distribution is
//! the designer's main knob: the paper argues for exponential delays
//! (maximal entropy per unit of mean latency) and the ablation benches
//! compare the alternatives provided here.

use serde::{Deserialize, Serialize};
use tempriv_net::ids::NodeId;
use tempriv_sim::rng::SimRng;
use tempriv_sim::time::SimDuration;

/// A per-node packet delay distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum DelayStrategy {
    /// Forward immediately — the paper's baseline case 1.
    None,
    /// Exponential delay with the given mean — the paper's choice
    /// (1/μ = 30 in the evaluation).
    Exponential {
        /// Mean delay `1/μ`.
        mean: f64,
    },
    /// Uniform delay on `[0, 2·mean]` (same mean, lower entropy).
    Uniform {
        /// Mean delay.
        mean: f64,
    },
    /// Constant delay (same mean, zero entropy — adds latency, hides
    /// nothing; kept for the ablation).
    Constant {
        /// The fixed delay.
        delay: f64,
    },
}

impl DelayStrategy {
    /// Exponential delay with mean `mean`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is non-positive or not finite.
    #[must_use]
    pub fn exponential(mean: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "delay mean must be positive, got {mean}"
        );
        DelayStrategy::Exponential { mean }
    }

    /// Mean of the delay distribution (what a deployment-aware adversary
    /// knows by Kerckhoff's principle).
    #[must_use]
    pub fn mean(&self) -> f64 {
        match *self {
            DelayStrategy::None => 0.0,
            DelayStrategy::Exponential { mean } | DelayStrategy::Uniform { mean } => mean,
            DelayStrategy::Constant { delay } => delay,
        }
    }

    /// Variance of the delay distribution.
    #[must_use]
    pub fn variance(&self) -> f64 {
        match *self {
            DelayStrategy::None | DelayStrategy::Constant { .. } => 0.0,
            DelayStrategy::Exponential { mean } => mean * mean,
            DelayStrategy::Uniform { mean } => (2.0 * mean) * (2.0 * mean) / 12.0,
        }
    }

    /// `true` if this strategy never buffers.
    #[must_use]
    pub fn is_none(&self) -> bool {
        matches!(self, DelayStrategy::None)
    }

    /// Samples one buffering delay.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match *self {
            DelayStrategy::None => SimDuration::ZERO,
            DelayStrategy::Exponential { mean } => SimDuration::from_units(rng.sample_exp(mean)),
            DelayStrategy::Uniform { mean } => {
                SimDuration::from_units(rng.sample_uniform(0.0, 2.0 * mean))
            }
            DelayStrategy::Constant { delay } => SimDuration::from_units(delay),
        }
    }
}

/// Assignment of delay strategies to nodes (§3.3: the delay process can be
/// decomposed non-uniformly across the path).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DelayPlan {
    /// Every node uses the same strategy — the paper's evaluation setup.
    Shared(DelayStrategy),
    /// Per-node strategies, indexed by node id (e.g. the rate-controlled
    /// assignment of §4). Nodes beyond the vector use the fallback.
    PerNode {
        /// Per-node strategies, indexed by [`NodeId`].
        strategies: Vec<DelayStrategy>,
        /// Strategy for nodes not covered by `strategies`.
        fallback: DelayStrategy,
    },
}

impl DelayPlan {
    /// A plan where every node delays exponentially with mean `mean`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is non-positive or not finite.
    #[must_use]
    pub fn shared_exponential(mean: f64) -> Self {
        DelayPlan::Shared(DelayStrategy::exponential(mean))
    }

    /// A plan with no artificial delay anywhere.
    #[must_use]
    pub const fn no_delay() -> Self {
        DelayPlan::Shared(DelayStrategy::None)
    }

    /// The strategy node `node` uses.
    #[must_use]
    pub fn for_node(&self, node: NodeId) -> DelayStrategy {
        match self {
            DelayPlan::Shared(s) => *s,
            DelayPlan::PerNode {
                strategies,
                fallback,
            } => strategies.get(node.index()).copied().unwrap_or(*fallback),
        }
    }

    /// Expected artificial delay along a path of delaying nodes.
    #[must_use]
    pub fn path_mean_delay<'a, I: IntoIterator<Item = &'a NodeId>>(&self, path: I) -> f64 {
        path.into_iter().map(|&n| self.for_node(n).mean()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempriv_sim::rng::RngFactory;

    fn rng() -> SimRng {
        RngFactory::new(1).stream(7)
    }

    #[test]
    fn exponential_sample_mean() {
        let s = DelayStrategy::exponential(30.0);
        let mut r = rng();
        let n = 50_000;
        let total: f64 = (0..n).map(|_| s.sample(&mut r).as_units()).sum();
        assert!((total / n as f64 - 30.0).abs() < 0.5);
        assert_eq!(s.mean(), 30.0);
        assert_eq!(s.variance(), 900.0);
    }

    #[test]
    fn uniform_sample_band_and_mean() {
        let s = DelayStrategy::Uniform { mean: 30.0 };
        let mut r = rng();
        let mut total = 0.0;
        for _ in 0..50_000 {
            let d = s.sample(&mut r).as_units();
            assert!((0.0..60.0).contains(&d));
            total += d;
        }
        assert!((total / 50_000.0 - 30.0).abs() < 0.3);
        assert!((s.variance() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn constant_and_none_are_degenerate() {
        let mut r = rng();
        assert_eq!(
            DelayStrategy::Constant { delay: 5.0 }.sample(&mut r),
            SimDuration::from_units(5.0)
        );
        assert_eq!(DelayStrategy::None.sample(&mut r), SimDuration::ZERO);
        assert!(DelayStrategy::None.is_none());
        assert_eq!(DelayStrategy::None.mean(), 0.0);
        assert_eq!(DelayStrategy::Constant { delay: 5.0 }.variance(), 0.0);
    }

    #[test]
    fn shared_plan_is_uniform_across_nodes() {
        let plan = DelayPlan::shared_exponential(30.0);
        assert_eq!(plan.for_node(NodeId(0)).mean(), 30.0);
        assert_eq!(plan.for_node(NodeId(999)).mean(), 30.0);
        assert!(!plan.for_node(NodeId(3)).is_none());
        assert!(DelayPlan::no_delay().for_node(NodeId(3)).is_none());
    }

    #[test]
    fn per_node_plan_with_fallback() {
        let plan = DelayPlan::PerNode {
            strategies: vec![
                DelayStrategy::None,
                DelayStrategy::exponential(10.0),
                DelayStrategy::exponential(20.0),
            ],
            fallback: DelayStrategy::exponential(5.0),
        };
        assert_eq!(plan.for_node(NodeId(1)).mean(), 10.0);
        assert_eq!(plan.for_node(NodeId(7)).mean(), 5.0);
        let path = [NodeId(1), NodeId(2), NodeId(7)];
        assert!((plan.path_mean_delay(path.iter()) - 35.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_mean_rejected() {
        let _ = DelayStrategy::exponential(-1.0);
    }
}
