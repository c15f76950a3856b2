//! Rate-controlled delay tuning (§4's "powerful observation").
//!
//! Traffic aggregates toward the sink, so a uniform 1/μ = 30 saturates
//! trunk buffers far harder than leaf buffers. The Erlang loss formula
//! can be inverted per node to hold every buffer at a target
//! drop/preemption probability α. This example walks the Figure-1
//! network, prints the per-node assignment, and compares the resulting
//! network against the uniform plan.
//!
//! ```text
//! cargo run --release --example erlang_tuning
//! ```

use temporal_privacy::core::adaptive_mu::rate_controlled_plan;
use temporal_privacy::core::{
    evaluate_adversary, BaselineAdversary, BufferPolicy, DelayPlan, NetworkSimulation,
};
use temporal_privacy::net::convergecast::Convergecast;
use temporal_privacy::net::{FlowId, NodeId, TrafficModel};
use temporal_privacy::queueing::erlang::erlang_b;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let layout = Convergecast::paper_figure1();
    let inv_lambda = 4.0;
    let (k, alpha) = (10u32, 0.05);
    let per_flow_rate = 1.0 / inv_lambda;

    // The §4 design rule, node by node.
    let plan = rate_controlled_plan(layout.routing(), layout.sources(), per_flow_rate, k, alpha);
    let counts = layout.routing().flows_per_node(layout.sources());

    println!("Per-node assignment for target loss alpha = {alpha} (1/lambda = {inv_lambda}):\n");
    println!(
        "{:<22} {:>6} {:>10} {:>12} {:>12}",
        "node class", "flows", "lambda", "1/mu", "E(rho,k)"
    );
    let mut seen = std::collections::BTreeSet::new();
    for (idx, &m) in counts.iter().enumerate().skip(1) {
        if idx >= layout.len() || m == 0 || !seen.insert(m) {
            continue; // one representative per traffic class
        }
        let strategy = plan.for_node(NodeId(idx as u32));
        let lambda = f64::from(m) * per_flow_rate;
        let loss = erlang_b(lambda * strategy.mean(), k);
        let class = match m {
            4 => "trunk (all flows)",
            1 => "private chain",
            _ => "partial merge",
        };
        println!(
            "{class:<22} {m:>6} {lambda:>10.3} {:>12.2} {loss:>12.4}",
            strategy.mean()
        );
    }

    // Head-to-head: uniform 30 vs rate-controlled, same buffers.
    println!(
        "\n{:<26} {:>12} {:>12} {:>13}",
        "plan", "MSE (S1)", "latency (S1)", "preemptions"
    );
    for (label, plan) in [
        ("uniform 1/mu = 30", DelayPlan::shared_exponential(30.0)),
        ("rate-controlled", plan),
    ] {
        let sim = NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
            .traffic(TrafficModel::periodic(inv_lambda))
            .packets_per_source(1000)
            .delay_plan(plan)
            .buffer_policy(BufferPolicy::paper_rcad())
            .seed(11)
            .build()?;
        let outcome = sim.run();
        let report = evaluate_adversary(&outcome, &BaselineAdversary, &sim.adversary_knowledge());
        println!(
            "{label:<26} {:>12.1} {:>12.1} {:>13}",
            report.mse(FlowId(0)),
            outcome.flows[0].latency.mean(),
            outcome.total_preemptions(),
        );
    }

    println!(
        "\nReading: the rate-controlled plan shortens delays exactly where \
         traffic\naggregates, holding every buffer at the same loss target \
         instead of letting\ntrunk nodes preempt constantly."
    );
    Ok(())
}
