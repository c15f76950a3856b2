//! Generalization beyond the paper's evaluation topology: the privacy
//! mechanism and its invariants must hold on arbitrary deployments
//! (random geometric fields, grids), not just the calibrated
//! convergecast layout.

use temporal_privacy::core::{
    evaluate_adversary, BaselineAdversary, BufferPolicy, DelayPlan, NetworkSimulation,
};
use temporal_privacy::net::geometric::GeometricDeployment;
use temporal_privacy::net::routing::RoutingTree;
use temporal_privacy::net::{FlowId, NodeId, TrafficModel};
use temporal_privacy::sim::rng::RngFactory;

/// A connected random field with the sink at the corner and the three
/// deepest nodes as sources.
fn random_field(seed: u64) -> (RoutingTree, Vec<NodeId>) {
    let spec = GeometricDeployment::new(12.0, 12.0, 80, 2.8);
    let mut rng = RngFactory::new(seed).stream(0);
    let (topo, _) = spec
        .sample_connected(&mut rng, 50)
        .expect("dense field connects");
    let routing = RoutingTree::shortest_path(&topo, NodeId(0)).expect("connected");
    let mut by_depth: Vec<NodeId> = topo.nodes().filter(|&n| n != NodeId(0)).collect();
    by_depth.sort_by_key(|&n| std::cmp::Reverse(routing.hops(n).unwrap()));
    (routing.clone(), by_depth[..3].to_vec())
}

#[test]
fn privacy_ordering_holds_on_random_fields() {
    let (routing, sources) = random_field(1);
    let run = |delay: DelayPlan, buffer: BufferPolicy| {
        let sim = NetworkSimulation::builder(routing.clone(), sources.clone())
            .traffic(TrafficModel::periodic(2.0))
            .packets_per_source(500)
            .delay_plan(delay)
            .buffer_policy(buffer)
            .seed(5)
            .build()
            .unwrap();
        let out = sim.run();
        let k = sim.adversary_knowledge();
        let mse = evaluate_adversary(&out, &BaselineAdversary, &k).mse(FlowId(0));
        (mse, out)
    };
    let (mse_none, _) = run(DelayPlan::no_delay(), BufferPolicy::Unlimited);
    let (mse_unlimited, _) = run(DelayPlan::shared_exponential(30.0), BufferPolicy::Unlimited);
    let (mse_rcad, out_rcad) = run(
        DelayPlan::shared_exponential(30.0),
        BufferPolicy::paper_rcad(),
    );
    assert!(mse_none < 1e-9);
    assert!(mse_unlimited > 1_000.0);
    assert!(
        mse_rcad > mse_unlimited,
        "rcad {mse_rcad} vs unlimited {mse_unlimited}"
    );
    assert!(out_rcad.total_preemptions() > 0);
    for f in &out_rcad.flows {
        assert_eq!(f.delivery_ratio(), 1.0);
    }
}

#[test]
fn reordering_grows_with_delay_randomness() {
    let (routing, sources) = random_field(2);
    let run = |delay: DelayPlan| {
        let sim = NetworkSimulation::builder(routing.clone(), sources.clone())
            .traffic(TrafficModel::periodic(4.0))
            .packets_per_source(400)
            .delay_plan(delay)
            .buffer_policy(BufferPolicy::Unlimited)
            .seed(9)
            .build()
            .unwrap();
        sim.run()
    };
    let ordered = run(DelayPlan::no_delay());
    let scrambled = run(DelayPlan::shared_exponential(30.0));
    for &flow in &[FlowId(0), FlowId(1), FlowId(2)] {
        assert_eq!(ordered.reordering_fraction(flow), 0.0, "{flow}");
        assert!(
            scrambled.reordering_fraction(flow) > 0.3,
            "{flow}: {}",
            scrambled.reordering_fraction(flow)
        );
    }
}

#[test]
fn deeper_sources_get_more_protection() {
    // MSE of the mean-correcting adversary on unlimited buffers scales
    // with hop count (Var = h * 900): verify across heterogeneous flows
    // of a random field.
    let (routing, sources) = random_field(3);
    let sim = NetworkSimulation::builder(routing.clone(), sources.clone())
        .traffic(TrafficModel::periodic(6.0))
        .packets_per_source(1500)
        .delay_plan(DelayPlan::shared_exponential(30.0))
        .buffer_policy(BufferPolicy::Unlimited)
        .seed(13)
        .build()
        .unwrap();
    let out = sim.run();
    let k = sim.adversary_knowledge();
    let report = evaluate_adversary(&out, &BaselineAdversary, &k);
    for flow in &out.flows {
        let expected = f64::from(flow.hops) * 900.0;
        let measured = report.mse(flow.flow);
        assert!(
            (measured - expected).abs() / expected < 0.25,
            "flow {} (h={}): measured {measured} vs expected {expected}",
            flow.flow,
            flow.hops
        );
    }
}

#[test]
fn grid_deployment_with_multiple_sinks_of_traffic() {
    // A 9x9 grid, sink at the center, four corner sources: the BFS tree
    // splits traffic across four disjoint quadrant paths, so preemption
    // stays near each source's own path.
    let topo = temporal_privacy::net::topology::Topology::grid(9, 9);
    let center = NodeId(40); // (4, 4)
    let routing = RoutingTree::shortest_path(&topo, center).unwrap();
    let corners = vec![NodeId(0), NodeId(8), NodeId(72), NodeId(80)];
    let sim = NetworkSimulation::builder(routing, corners)
        .traffic(TrafficModel::periodic(2.0))
        .packets_per_source(400)
        .buffer_policy(BufferPolicy::paper_rcad())
        .seed(17)
        .build()
        .unwrap();
    let out = sim.run();
    assert_eq!(out.total_delivered(), 1600);
    for f in &out.flows {
        assert_eq!(f.hops, 8, "corner-to-center on a 9x9 grid");
    }
}
