//! Simulator-vs-theory cross checks (DESIGN.md V2–V4): the event-driven
//! simulator must reproduce the §4 queueing laws before the privacy
//! results mean anything.

use temporal_privacy::core::{BufferPolicy, DelayPlan, ExperimentConfig, LayoutSpec};
use temporal_privacy::net::ids::NodeId;
use temporal_privacy::net::TrafficModel;
use temporal_privacy::queueing::erlang::erlang_b;
use temporal_privacy::queueing::goodness::{cv_squared, ks_critical_5pct, ks_exponential};
use temporal_privacy::queueing::poisson::total_variation_vs_poisson;

fn one_hop_config(
    traffic: TrafficModel,
    delay_mean: f64,
    buffer: BufferPolicy,
    packets: u32,
    seed: u64,
) -> ExperimentConfig {
    ExperimentConfig {
        layout: LayoutSpec::Line { hops: 1 },
        traffic,
        packets_per_source: packets,
        delay: DelayPlan::shared_exponential(delay_mean),
        buffer,
        link_delay: 1.0,
        link_loss: 0.0,
        link_jitter: 0.0,
        seed,
    }
}

#[test]
fn mm_inf_occupancy_is_poisson() {
    // lambda = 0.5, 1/mu = 20 => rho = 10.
    let cfg = one_hop_config(
        TrafficModel::poisson(0.5),
        20.0,
        BufferPolicy::Unlimited,
        30_000,
        41,
    );
    let outcome = cfg.build().unwrap().run();
    let node = outcome.node(NodeId(1));
    assert!(
        (node.mean_occupancy - 10.0).abs() < 0.4,
        "mean {}",
        node.mean_occupancy
    );
    let tv = total_variation_vs_poisson(&node.occupancy_pmf, 10.0);
    assert!(tv < 0.06, "TV distance {tv}");
}

#[test]
fn mm_inf_mean_scales_with_rho() {
    for &(lambda, mean, rho) in &[(0.2f64, 10.0f64, 2.0f64), (0.5, 30.0, 15.0)] {
        let cfg = one_hop_config(
            TrafficModel::poisson(lambda),
            mean,
            BufferPolicy::Unlimited,
            30_000,
            43,
        );
        let outcome = cfg.build().unwrap().run();
        let measured = outcome.node(NodeId(1)).mean_occupancy;
        assert!(
            (measured - rho).abs() < 0.05 * rho + 0.3,
            "rho {rho}: measured {measured}"
        );
    }
}

#[test]
fn drop_tail_loss_matches_erlang_formula() {
    for &rho in &[2.0, 8.0, 15.0] {
        let lambda = rho / 10.0;
        let cfg = one_hop_config(
            TrafficModel::poisson(lambda),
            10.0,
            BufferPolicy::DropTail { capacity: 10 },
            25_000,
            47,
        );
        let outcome = cfg.build().unwrap().run();
        let measured = outcome.total_drops() as f64 / outcome.flows[0].created as f64;
        let analytic = erlang_b(rho, 10);
        assert!(
            (measured - analytic).abs() < 0.02,
            "rho {rho}: measured {measured} vs Erlang {analytic}"
        );
    }
}

#[test]
fn burke_departures_are_poisson() {
    // Departures of an M/M/inf stage observed at the sink (shifted by
    // the constant link delay) must be Poisson at the arrival rate.
    let cfg = one_hop_config(
        TrafficModel::poisson(0.5),
        10.0,
        BufferPolicy::Unlimited,
        30_000,
        53,
    );
    let outcome = cfg.build().unwrap().run();
    let arrivals: Vec<f64> = outcome
        .observations
        .iter()
        .map(|o| o.arrival.as_units())
        .collect();
    let lo = arrivals.len() / 5;
    let hi = arrivals.len() * 4 / 5;
    let gaps: Vec<f64> = arrivals[lo..hi].windows(2).map(|w| w[1] - w[0]).collect();
    let cv2 = cv_squared(&gaps);
    assert!((cv2 - 1.0).abs() < 0.1, "CV^2 {cv2}");
    let d = ks_exponential(&gaps, 0.5);
    assert!(
        d < 2.5 * ks_critical_5pct(gaps.len()),
        "KS {d} vs critical {}",
        ks_critical_5pct(gaps.len())
    );
}

#[test]
fn periodic_source_is_not_poisson_but_becomes_smoother_after_delays() {
    // The paper notes realistic sensor traffic is periodic; after a stage
    // of heavy exponential buffering, departures look far more Poisson
    // (Kleinrock-style independence). CV^2: 0 at the source, near 1 after.
    let cfg = one_hop_config(
        TrafficModel::periodic(2.0),
        30.0,
        BufferPolicy::Unlimited,
        20_000,
        59,
    );
    let outcome = cfg.build().unwrap().run();
    let arrivals: Vec<f64> = outcome
        .observations
        .iter()
        .map(|o| o.arrival.as_units())
        .collect();
    let lo = arrivals.len() / 5;
    let hi = arrivals.len() * 4 / 5;
    let gaps: Vec<f64> = arrivals[lo..hi].windows(2).map(|w| w[1] - w[0]).collect();
    let cv2 = cv_squared(&gaps);
    assert!(cv2 > 0.7, "CV^2 after buffering {cv2}");
}
