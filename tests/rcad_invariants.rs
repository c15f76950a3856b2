//! Cross-crate invariants of the RCAD mechanism: conservation, capacity,
//! determinism, and threat-model enforcement.

use temporal_privacy::core::{
    BufferPolicy, DelayPlan, ExperimentConfig, LayoutSpec, NetworkSimulation, VictimPolicy,
};
use temporal_privacy::net::convergecast::Convergecast;
use temporal_privacy::net::{LinkModel, TrafficModel};
use temporal_privacy::sim::time::SimDuration;

fn paper_sim(inv_lambda: f64, packets: u32, buffer: BufferPolicy, seed: u64) -> NetworkSimulation {
    let layout = Convergecast::paper_figure1();
    NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
        .traffic(TrafficModel::periodic(inv_lambda))
        .packets_per_source(packets)
        .delay_plan(DelayPlan::shared_exponential(30.0))
        .buffer_policy(buffer)
        .seed(seed)
        .build()
        .expect("valid simulation")
}

#[test]
fn rcad_conserves_every_packet() {
    for &inv_lambda in &[2.0, 6.0, 20.0] {
        let out = paper_sim(inv_lambda, 400, BufferPolicy::paper_rcad(), 61).run();
        for flow in &out.flows {
            assert_eq!(flow.created, 400);
            assert_eq!(
                flow.delivered, 400,
                "flow {} at 1/lambda {inv_lambda}",
                flow.flow
            );
        }
        assert_eq!(out.total_drops(), 0);
        assert_eq!(out.link_losses, 0);
        assert_eq!(out.observations.len(), 1600);
        assert_eq!(out.truth.len(), 1600);
    }
}

#[test]
fn drop_tail_conserves_as_delivered_plus_dropped() {
    let out = paper_sim(2.0, 400, BufferPolicy::DropTail { capacity: 10 }, 63).run();
    let created: u64 = out.flows.iter().map(|f| f.created).sum();
    assert_eq!(out.total_delivered() + out.total_drops(), created);
    assert!(out.total_drops() > 0, "rho = 15 must overflow 10 slots");
}

#[test]
fn occupancy_never_exceeds_capacity() {
    for victim in [
        VictimPolicy::ShortestRemaining,
        VictimPolicy::LongestRemaining,
        VictimPolicy::Random,
        VictimPolicy::Oldest,
    ] {
        let out = paper_sim(
            2.0,
            300,
            BufferPolicy::Rcad {
                capacity: 10,
                victim,
            },
            65,
        )
        .run();
        for node in out.field_reports() {
            assert!(
                node.peak_occupancy <= 10,
                "{victim:?}: node {} peaked at {}",
                node.node,
                node.peak_occupancy
            );
            for &(state, _) in &node.occupancy_pmf {
                assert!(state <= 10);
            }
        }
    }
}

#[test]
fn preemptions_increase_with_traffic_rate() {
    let fast = paper_sim(2.0, 400, BufferPolicy::paper_rcad(), 67).run();
    let slow = paper_sim(20.0, 400, BufferPolicy::paper_rcad(), 67).run();
    assert!(
        fast.total_preemptions() > 5 * slow.total_preemptions().max(1),
        "fast {} vs slow {}",
        fast.total_preemptions(),
        slow.total_preemptions()
    );
}

#[test]
fn victim_policy_changes_departure_pattern_deterministically() {
    let short = paper_sim(
        2.0,
        300,
        BufferPolicy::Rcad {
            capacity: 10,
            victim: VictimPolicy::ShortestRemaining,
        },
        69,
    )
    .run();
    let long = paper_sim(
        2.0,
        300,
        BufferPolicy::Rcad {
            capacity: 10,
            victim: VictimPolicy::LongestRemaining,
        },
        69,
    )
    .run();
    assert_ne!(short.observations, long.observations);
    // Preempting the longest-remaining packet truncates more of each
    // delay, so mean latency drops below the shortest-remaining rule's.
    assert!(long.overall_mean_latency() < short.overall_mean_latency());
}

#[test]
fn end_to_end_determinism_across_full_stack() {
    let a = paper_sim(4.0, 500, BufferPolicy::paper_rcad(), 71).run();
    let b = paper_sim(4.0, 500, BufferPolicy::paper_rcad(), 71).run();
    assert_eq!(a, b);
    assert_eq!(a.digest(), b.digest());
    let c = paper_sim(4.0, 500, BufferPolicy::paper_rcad(), 72).run();
    assert_ne!(a.digest(), c.digest());
}

#[test]
fn lossy_links_account_for_every_packet() {
    let layout = Convergecast::paper_figure1();
    let sim = NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
        .traffic(TrafficModel::periodic(4.0))
        .packets_per_source(300)
        .link(LinkModel::constant(SimDuration::from_units(1.0)).with_loss(0.02))
        .buffer_policy(BufferPolicy::paper_rcad())
        .seed(73)
        .build()
        .unwrap();
    let out = sim.run();
    let created: u64 = out.flows.iter().map(|f| f.created).sum();
    assert_eq!(out.total_delivered() + out.link_losses, created);
    assert!(out.link_losses > 0);
}

#[test]
fn hop_counts_in_observations_match_deployment() {
    let out = paper_sim(6.0, 100, BufferPolicy::paper_rcad(), 75).run();
    let expected = [15u32, 22, 9, 11];
    for obs in &out.observations {
        assert_eq!(obs.hop_count, expected[obs.flow.index()]);
    }
}

#[test]
fn config_json_round_trip_reproduces_runs() {
    let cfg = ExperimentConfig {
        layout: LayoutSpec::PaperFigure1,
        traffic: TrafficModel::periodic(4.0),
        packets_per_source: 200,
        delay: DelayPlan::shared_exponential(30.0),
        buffer: BufferPolicy::paper_rcad(),
        link_delay: 1.0,
        link_loss: 0.0,
        link_jitter: 0.0,
        seed: 99,
    };
    let json = serde_json::to_string(&cfg).unwrap();
    let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back, cfg);
    let a = cfg.build().unwrap().run();
    let b = back.build().unwrap().run();
    assert_eq!(a, b);
    // Outcomes themselves serialize (checkpointing / offline analysis).
    let dump = serde_json::to_string(&a).unwrap();
    assert!(dump.len() > 1000);
}
