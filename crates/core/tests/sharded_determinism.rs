//! Cross-worker-count determinism for the sharded parallel engine.
//!
//! The conservative time-window runner must be a pure performance knob:
//! for a fixed shard cut, the worker count can never change the
//! simulation. This suite runs every buffer/victim configuration on a
//! four-subtree star convergecast (so the cut is non-trivial and real
//! cross-shard handoffs flow) under workers ∈ {1, 2, 4, 8} and demands
//! byte-identical outcome digests plus equal RNG draw counts.
//!
//! For every configuration that draws no global-stream randomness
//! mid-run (deterministic victims over lossless links — all the paper's
//! configurations), the sharded digest must also equal the serial
//! engine's digest. `rcad_random` victims draw from shard-indexed
//! substreams, so it is deterministic across worker counts but keyed by
//! the shard count; its serial comparison is intentionally skipped.

use tempriv_core::buffer::{BufferPolicy, VictimPolicy};
use tempriv_core::delay::DelayPlan;
use tempriv_core::sim_driver::NetworkSimulation;
use tempriv_net::convergecast::Convergecast;
use tempriv_net::traffic::TrafficModel;

const SHARDS: u32 = 4;
const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Four disjoint chains into the sink: four sink-subtrees, so the
/// four-way cut yields one subtree per shard and every delivery crosses
/// a shard boundary.
fn star_sim(buffer: BufferPolicy) -> NetworkSimulation {
    let layout = Convergecast::builder()
        .trunk_hops(0)
        .flows([15, 22, 9, 11])
        .build()
        .expect("star layout is valid");
    NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
        .traffic(TrafficModel::periodic(2.0))
        .packets_per_source(150)
        .delay_plan(DelayPlan::shared_exponential(30.0))
        .buffer_policy(buffer)
        .seed(2007)
        .build()
        .expect("star config is valid")
}

fn all_configs() -> [(&'static str, BufferPolicy, bool); 7] {
    let rcad = |victim| BufferPolicy::Rcad {
        capacity: 10,
        victim,
    };
    // (label, policy, serial digest must match too)
    [
        ("unlimited", BufferPolicy::Unlimited, true),
        ("drop_tail", BufferPolicy::DropTail { capacity: 10 }, true),
        (
            "threshold_mix",
            BufferPolicy::ThresholdMix { threshold: 10 },
            true,
        ),
        (
            "rcad_shortest_remaining",
            rcad(VictimPolicy::ShortestRemaining),
            true,
        ),
        (
            "rcad_longest_remaining",
            rcad(VictimPolicy::LongestRemaining),
            true,
        ),
        ("rcad_random", rcad(VictimPolicy::Random), false),
        ("rcad_oldest", rcad(VictimPolicy::Oldest), true),
    ]
}

#[test]
fn worker_count_is_invisible_for_every_config() {
    for (label, buffer, matches_serial) in all_configs() {
        let sim = star_sim(buffer);
        let serial = sim.run();
        let reference = sim.run_sharded(SHARDS, WORKERS[0]);
        assert!(
            reference.shards.iter().map(|s| s.handoffs_out).sum::<u64>() > 0,
            "{label}: the star cut must produce cross-shard handoffs"
        );
        if matches_serial {
            assert_eq!(
                serial.digest(),
                reference.digest(),
                "{label}: sharded run must reproduce the serial digest"
            );
            assert_eq!(
                serial.rng_draws, reference.rng_draws,
                "{label}: sharded run must reproduce the serial draw count"
            );
        } else {
            // Shard-substream victims pick different victims than the
            // serial stream (different preemption cascades, so even
            // event totals may differ) — but conservation must hold in
            // both engines over the same created population.
            let created =
                |o: &tempriv_core::SimOutcome| o.flows.iter().map(|f| f.created).sum::<u64>();
            assert_eq!(
                created(&serial),
                created(&reference),
                "{label}: created totals"
            );
            for (name, o) in [("serial", &serial), ("sharded", &reference)] {
                assert_eq!(
                    o.total_delivered() + o.total_drops() + o.total_stranded(),
                    created(o),
                    "{label}/{name}: delivered + dropped + stranded = created"
                );
            }
        }
        for workers in &WORKERS[1..] {
            let run = sim.run_sharded(SHARDS, *workers);
            assert_eq!(
                reference.digest(),
                run.digest(),
                "{label}: digest changed between 1 and {workers} workers"
            );
            assert_eq!(
                reference.rng_draws, run.rng_draws,
                "{label}: RNG draw count changed between 1 and {workers} workers"
            );
            assert_eq!(
                reference, run,
                "{label}: full outcome changed between 1 and {workers} workers"
            );
        }
    }
}

#[test]
fn shard_stats_account_for_every_event_and_node() {
    let sim = star_sim(BufferPolicy::paper_rcad());
    let out = sim.run_sharded(SHARDS, 2);
    assert_eq!(out.shards.len(), SHARDS as usize);
    let shard_events: u64 = out.shards.iter().map(|s| s.events).sum();
    assert_eq!(shard_events, out.events, "per-shard events sum to total");
    let shard_nodes: u64 = out.shards.iter().map(|s| s.nodes).sum();
    assert_eq!(
        shard_nodes,
        u64::from(out.field_nodes),
        "every node has a home shard"
    );
    assert_eq!(
        out.peak_fes,
        out.shards.iter().map(|s| s.peak_fes).sum::<u64>(),
        "peak FES aggregates across shards"
    );
}
