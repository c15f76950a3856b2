//! Analytic-validation experiments (DESIGN.md V1–V4).
//!
//! The paper's §3 and §4 make quantitative claims that the simulator must
//! reproduce before the headline figures mean anything. Each function here
//! runs one such cross-check and returns plain rows for the benches, the
//! `figures` binary, and the integration tests.

use serde::{Deserialize, Serialize};
use tempriv_core::buffer::BufferPolicy;
use tempriv_core::config::{ExperimentConfig, LayoutSpec};
use tempriv_core::delay::DelayPlan;
use tempriv_infotheory::bounds::btq_packet_bound_nats;
use tempriv_infotheory::estimators::mi_from_samples_nats;
use tempriv_net::ids::NodeId;
use tempriv_net::traffic::TrafficModel;
use tempriv_queueing::erlang::erlang_b;
use tempriv_queueing::goodness::{cv_squared, ks_exponential};
use tempriv_queueing::poisson::total_variation_vs_poisson;
use tempriv_sim::rng::RngFactory;

/// One row of the V1 experiment: bits-through-queues bound vs empirical
/// mutual information for the j-th packet of a Poisson source.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BtqRow {
    /// Packet index j.
    pub j: u64,
    /// The analytic bound `ln(1 + jμ/λ)` in nats.
    pub bound_nats: f64,
    /// Histogram-estimated `Î(X_j; Z_j)` in nats.
    pub empirical_nats: f64,
}

/// V1: Monte-Carlo check that empirical `I(X_j; Z_j)` sits below the
/// bits-through-queues bound (paper eq. 4 terms).
///
/// Samples `trials` independent (creation, arrival) pairs per packet
/// index: `X_j` is the j-th arrival of a Poisson(λ) process and
/// `Z_j = X_j + Exp(1/μ)`.
#[must_use]
pub fn btq_bound_experiment(
    lambda: f64,
    mu: f64,
    packet_indices: &[u64],
    trials: usize,
    seed: u64,
) -> Vec<BtqRow> {
    let factory = RngFactory::new(seed);
    packet_indices
        .iter()
        .map(|&j| {
            let mut rng = factory.stream(j);
            let mut xs = Vec::with_capacity(trials);
            let mut zs = Vec::with_capacity(trials);
            for _ in 0..trials {
                let mut x = 0.0;
                for _ in 0..j {
                    x += rng.sample_exp(1.0 / lambda);
                }
                let y = rng.sample_exp(1.0 / mu);
                xs.push(x);
                zs.push(x + y);
            }
            BtqRow {
                j,
                bound_nats: btq_packet_bound_nats(j, mu, lambda),
                empirical_nats: mi_from_samples_nats(&xs, &zs, 24)
                    .expect("synthetic pairs are finite and plentiful"),
            }
        })
        .collect()
}

/// Result of the V2 experiment: simulated M/M/∞ occupancy vs Poisson(ρ).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OccupancyCheck {
    /// The theoretical utilization ρ = λ/μ.
    pub rho: f64,
    /// Time-weighted mean occupancy measured at the buffering node.
    pub measured_mean: f64,
    /// Total-variation distance between the measured PMF and Poisson(ρ).
    pub tv_distance: f64,
}

/// V2: runs a Poisson source through one exponentially-delaying node with
/// unlimited buffers and compares the occupancy law against Poisson(ρ).
#[must_use]
pub fn mm_inf_occupancy_experiment(
    lambda: f64,
    delay_mean: f64,
    packets: u32,
    seed: u64,
) -> OccupancyCheck {
    let cfg = ExperimentConfig {
        layout: LayoutSpec::Line { hops: 1 },
        traffic: TrafficModel::poisson(lambda),
        packets_per_source: packets,
        delay: DelayPlan::shared_exponential(delay_mean),
        buffer: BufferPolicy::Unlimited,
        link_delay: 1.0,
        link_loss: 0.0,
        link_jitter: 0.0,
        seed,
    };
    let outcome = cfg.build().expect("valid config").run();
    // Node 1 is the single buffering node (node 0 is the sink).
    let node = outcome.node(NodeId(1));
    OccupancyCheck {
        rho: lambda * delay_mean,
        measured_mean: node.mean_occupancy,
        tv_distance: total_variation_vs_poisson(&node.occupancy_pmf, lambda * delay_mean),
    }
}

/// One row of the V3 experiment: drop-tail loss vs the Erlang formula.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ErlangCheckRow {
    /// Offered load ρ = λ/μ.
    pub rho: f64,
    /// Analytic `E(ρ, k)`.
    pub analytic: f64,
    /// Measured drop fraction at the buffering node.
    pub measured: f64,
}

/// V3: a Poisson source into one k-slot drop-tail buffer; the measured
/// drop fraction should track `E(ρ, k)` (paper eq. 5).
#[must_use]
pub fn erlang_loss_experiment(
    rhos: &[f64],
    k: usize,
    delay_mean: f64,
    packets: u32,
    seed: u64,
) -> Vec<ErlangCheckRow> {
    rhos.iter()
        .map(|&rho| {
            let lambda = rho / delay_mean;
            let cfg = ExperimentConfig {
                layout: LayoutSpec::Line { hops: 1 },
                traffic: TrafficModel::poisson(lambda),
                packets_per_source: packets,
                delay: DelayPlan::shared_exponential(delay_mean),
                buffer: BufferPolicy::DropTail { capacity: k },
                link_delay: 1.0,
                link_loss: 0.0,
                link_jitter: 0.0,
                seed: seed ^ rho.to_bits(),
            };
            let outcome = cfg.build().expect("valid config").run();
            let measured = outcome.total_drops() as f64 / outcome.flows[0].created as f64;
            ErlangCheckRow {
                rho,
                analytic: erlang_b(rho, k as u32),
                measured,
            }
        })
        .collect()
}

/// Result of the V4 experiment: is the departure process of an M/M/∞
/// stage still Poisson (Burke's theorem)?
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurkeCheck {
    /// Squared coefficient of variation of the departure gaps (1 for a
    /// Poisson process).
    pub cv_squared: f64,
    /// KS statistic of the gaps against Exp(λ).
    pub ks_statistic: f64,
    /// 5% critical value for the sample size.
    pub ks_critical: f64,
    /// Number of departure gaps measured.
    pub samples: usize,
}

/// V4: departure inter-arrival times of a single M/M/∞ stage fed by
/// Poisson(λ). Arrivals at the sink, shifted by the constant link delay,
/// are exactly the stage's departures. The middle of the run (steady
/// state) should be exponential at rate λ.
#[must_use]
pub fn burke_experiment(lambda: f64, delay_mean: f64, packets: u32, seed: u64) -> BurkeCheck {
    let cfg = ExperimentConfig {
        layout: LayoutSpec::Line { hops: 1 },
        traffic: TrafficModel::poisson(lambda),
        packets_per_source: packets,
        delay: DelayPlan::shared_exponential(delay_mean),
        buffer: BufferPolicy::Unlimited,
        link_delay: 1.0,
        link_loss: 0.0,
        link_jitter: 0.0,
        seed,
    };
    let outcome = cfg.build().expect("valid config").run();
    let arrivals: Vec<f64> = outcome
        .observations
        .iter()
        .map(|o| o.arrival.as_units())
        .collect();
    // Trim warm-up and drain (the station starts empty and ends draining).
    let lo = arrivals.len() / 5;
    let hi = arrivals.len() * 4 / 5;
    let gaps: Vec<f64> = arrivals[lo..hi].windows(2).map(|w| w[1] - w[0]).collect();
    BurkeCheck {
        cv_squared: cv_squared(&gaps),
        ks_statistic: ks_exponential(&gaps, lambda),
        ks_critical: tempriv_queueing::goodness::ks_critical_5pct(gaps.len()),
        samples: gaps.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v1_bound_holds_for_every_index() {
        let rows = btq_bound_experiment(0.5, 1.0 / 30.0, &[1, 4, 16], 20_000, 7);
        for row in &rows {
            assert!(
                row.empirical_nats <= row.bound_nats + 0.05,
                "j = {}: empirical {} vs bound {}",
                row.j,
                row.empirical_nats,
                row.bound_nats
            );
            assert!(row.empirical_nats >= 0.0);
        }
        // The bound grows with j.
        assert!(rows[2].bound_nats > rows[0].bound_nats);
    }

    #[test]
    fn v2_occupancy_matches_poisson() {
        let check = mm_inf_occupancy_experiment(0.5, 10.0, 40_000, 11);
        assert!((check.measured_mean - check.rho).abs() < 0.25, "{check:?}");
        assert!(check.tv_distance < 0.05, "{check:?}");
    }

    #[test]
    fn v3_drop_rate_tracks_erlang() {
        let rows = erlang_loss_experiment(&[2.0, 8.0, 20.0], 10, 10.0, 30_000, 13);
        for row in &rows {
            assert!(
                (row.measured - row.analytic).abs() < 0.02,
                "rho {}: measured {} vs analytic {}",
                row.rho,
                row.measured,
                row.analytic
            );
        }
    }

    #[test]
    fn v4_departures_look_poisson() {
        let check = burke_experiment(0.5, 10.0, 40_000, 17);
        assert!((check.cv_squared - 1.0).abs() < 0.1, "{check:?}");
        assert!(check.ks_statistic < 2.5 * check.ks_critical, "{check:?}");
    }
}
