//! Integration of the §4 rate-controlled delay assignment with the full
//! simulator: does pinning the Erlang loss per node actually equalize
//! preemption pressure in a running network?

use temporal_privacy::core::adaptive_mu::rate_controlled_plan;
use temporal_privacy::core::{BufferPolicy, DelayPlan, NetworkSimulation};
use temporal_privacy::net::convergecast::Convergecast;
use temporal_privacy::net::TrafficModel;

fn run(plan: DelayPlan, inv_lambda: f64) -> temporal_privacy::core::SimOutcome {
    let layout = Convergecast::paper_figure1();
    NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
        .traffic(TrafficModel::periodic(inv_lambda))
        .packets_per_source(1500)
        .delay_plan(plan)
        .buffer_policy(BufferPolicy::paper_rcad())
        .seed(81)
        .build()
        .unwrap()
        .run()
}

#[test]
fn rate_controlled_plan_equalizes_preemption_pressure() {
    let layout = Convergecast::paper_figure1();
    let inv_lambda = 4.0;
    let counts = layout.routing().flows_per_node(layout.sources());

    let uniform = run(DelayPlan::shared_exponential(30.0), inv_lambda);
    let controlled = run(
        rate_controlled_plan(
            layout.routing(),
            layout.sources(),
            1.0 / inv_lambda,
            10,
            0.05,
        ),
        inv_lambda,
    );

    // Per-node preemption fraction = preemptions / packets handled.
    let rates = |out: &temporal_privacy::core::SimOutcome| -> Vec<f64> {
        out.field_reports()
            .zip(&counts)
            .filter(|(_, &c)| c > 0)
            .map(|(n, &c)| n.preemptions as f64 / (1500.0 * f64::from(c)))
            .collect()
    };
    let spread = |v: &[f64]| {
        let max = v.iter().copied().fold(0.0f64, f64::max);
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        max - min
    };
    let uniform_rates = rates(&uniform);
    let controlled_rates = rates(&controlled);
    // Under the uniform plan, trunk nodes preempt far more than leaves;
    // the rate-controlled plan compresses that spread substantially.
    assert!(
        spread(&controlled_rates) < 0.5 * spread(&uniform_rates),
        "controlled spread {} vs uniform spread {}",
        spread(&controlled_rates),
        spread(&uniform_rates)
    );
    // And overall preemption volume drops (alpha = 0.05 target).
    assert!(controlled.total_preemptions() < uniform.total_preemptions() / 2);
}

#[test]
fn rate_controlled_latency_reflects_sharing_structure() {
    let layout = Convergecast::paper_figure1();
    let inv_lambda = 8.0;
    let plan = rate_controlled_plan(
        layout.routing(),
        layout.sources(),
        1.0 / inv_lambda,
        10,
        0.05,
    );
    let out = run(plan.clone(), inv_lambda);
    for flow in &out.flows {
        // Expected latency = h*tau + expected plan delay along the path,
        // within a few percent (little preemption at alpha = 0.05).
        let path = layout.routing().path(flow.source);
        let expected = f64::from(flow.hops) + plan.path_mean_delay(&path[..path.len() - 1]);
        let measured = flow.latency.mean();
        assert!(
            (measured - expected).abs() / expected < 0.1,
            "flow {}: measured {measured} vs expected {expected}",
            flow.flow
        );
    }
}

#[test]
fn tighter_loss_targets_cost_more_latency() {
    let layout = Convergecast::paper_figure1();
    let inv_lambda = 4.0;
    let loose = rate_controlled_plan(layout.routing(), layout.sources(), 0.25, 10, 0.2);
    let tight = rate_controlled_plan(layout.routing(), layout.sources(), 0.25, 10, 0.01);
    let out_loose = run(loose, inv_lambda);
    let out_tight = run(tight, inv_lambda);
    // A tighter loss target means shorter delays (smaller rho), hence
    // lower latency but also less privacy headroom.
    assert!(out_tight.overall_mean_latency() < out_loose.overall_mean_latency());
    assert!(out_tight.total_preemptions() < out_loose.total_preemptions());
}
