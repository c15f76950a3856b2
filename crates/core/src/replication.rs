//! Multi-seed replication and confidence intervals.
//!
//! The paper reports single simulation runs; a production study replicates
//! each configuration across independent seeds and reports means with
//! confidence intervals. [`replicate`] runs any per-seed measurement on a
//! bounded worker pool; [`ReplicatedMetric`] summarizes the results.

use serde::{Deserialize, Serialize};
use tempriv_runtime::WorkerPool;
use tempriv_sim::rng::splitmix64;
use tempriv_sim::stats::mean_ci95;

/// Derives the seed for replication `i` of a study keyed by `base_seed`.
///
/// This is the `i`-th output of a splitmix64 stream seeded at
/// `base_seed` — i.e. `splitmix64(base_seed + (i + 1) · golden)` where
/// `golden` is the splitmix64 increment. Earlier versions used
/// `base_seed + i`, which made the seed sets of adjacent studies overlap
/// almost entirely (base 100 and base 101 share all but one seed) and fed
/// correlated low-entropy seeds straight into the generators. The hash
/// gives every `(base_seed, i)` pair a well-mixed, effectively disjoint
/// seed while staying fully reproducible.
#[must_use]
pub fn replication_seed(base_seed: u64, i: u32) -> u64 {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    splitmix64(base_seed.wrapping_add(u64::from(i).wrapping_add(1).wrapping_mul(GOLDEN)))
}

/// Runs `measure(seed)` for `replications` derived seeds on `pool`,
/// preserving replication order. Seeds come from [`replication_seed`],
/// so reruns are reproducible and independent of the worker count.
///
/// # Panics
///
/// Panics if `replications == 0` or a worker panics.
#[must_use]
pub fn replicate<T, F>(pool: &WorkerPool, base_seed: u64, replications: u32, measure: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    assert!(replications > 0, "need at least one replication");
    pool.map_indexed(replications as usize, |i| {
        measure(replication_seed(base_seed, i as u32))
    })
}

/// A replicated scalar measurement: mean, 95% half-width, and extremes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplicatedMetric {
    /// Sample mean across seeds.
    pub mean: f64,
    /// 95% confidence half-width (normal approximation).
    pub ci95: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Number of replications.
    pub n: u32,
}

impl ReplicatedMetric {
    /// Summarizes per-seed values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains NaN.
    #[must_use]
    pub fn from_values(values: &[f64]) -> Self {
        let (mean, ci95) = mean_ci95(values);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        ReplicatedMetric {
            mean,
            ci95,
            min,
            max,
            n: values.len() as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::BaselineAdversary;
    use crate::config::ExperimentConfig;
    use crate::metrics::evaluate_adversary;
    use tempriv_net::ids::FlowId;

    #[test]
    fn replicate_is_ordered_and_reproducible() {
        let a = replicate(&WorkerPool::new(), 100, 4, |seed| seed ^ 1);
        let expected: Vec<u64> = (0..4).map(|i| replication_seed(100, i) ^ 1).collect();
        assert_eq!(a, expected);
        let b = replicate(&WorkerPool::new(), 100, 4, |seed| seed ^ 1);
        assert_eq!(a, b);
        // And the result is independent of the worker count.
        let serial = replicate(&WorkerPool::with_workers(1), 100, 4, |seed| seed ^ 1);
        assert_eq!(a, serial);
    }

    #[test]
    fn replication_seeds_are_well_mixed() {
        // Adjacent bases must not share seeds (the old `base + i` scheme
        // overlapped almost entirely), and seeds within a study differ.
        let study_a: Vec<u64> = (0..8).map(|i| replication_seed(100, i)).collect();
        let study_b: Vec<u64> = (0..8).map(|i| replication_seed(101, i)).collect();
        for (i, a) in study_a.iter().enumerate() {
            assert!(!study_b.contains(a), "seed {i} shared across bases");
            assert!(!study_a[..i].contains(a), "seed {i} repeated in study");
        }
    }

    #[test]
    fn replicated_metric_summary() {
        let m = ReplicatedMetric::from_values(&[1.0, 2.0, 3.0]);
        assert_eq!(m.mean, 2.0);
        assert_eq!(m.min, 1.0);
        assert_eq!(m.max, 3.0);
        assert_eq!(m.n, 3);
    }

    #[test]
    fn replicated_mse_is_stable_across_seeds() {
        // Five seeds of the paper setup at 1/lambda = 2: the MSE spread
        // should be modest (the mechanism, not the seed, drives it).
        let values = replicate(&WorkerPool::new(), 5000, 5, |seed| {
            let mut cfg = ExperimentConfig::paper_default();
            cfg.packets_per_source = 400;
            cfg.seed = seed;
            let sim = cfg.build().unwrap();
            let outcome = sim.run();
            evaluate_adversary(&outcome, &BaselineAdversary, &sim.adversary_knowledge())
                .mse(FlowId(0))
        });
        let m = ReplicatedMetric::from_values(&values);
        assert!(m.mean > 20_000.0, "mean {}", m.mean);
        assert!(m.ci95 < 0.35 * m.mean, "ci {} vs mean {}", m.ci95, m.mean);
        assert!(m.min > 0.5 * m.mean && m.max < 1.6 * m.mean);
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_replications_rejected() {
        let _ = replicate(&WorkerPool::new(), 0, 0, |s| s);
    }
}
