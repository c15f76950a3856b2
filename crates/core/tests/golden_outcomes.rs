//! Golden fingerprints of whole simulation outcomes on a sparse field.
//!
//! `SimOutcome::digest` skips the occupancy PMFs, mean occupancies,
//! flushes, stranded packets, receptions and the per-flow latency
//! tables, and `results/LEDGER.json` covers only Figure-1 layouts, where
//! every node carries traffic. These fingerprints hash all of it on a
//! 2k-node geometric field where one node in a hundred sources traffic,
//! so most nodes never see a packet: any change in how the driver keeps
//! or reports node state, reached or not, shows up as a different hash.
//!
//! The constants were recorded on the whole-field per-node driver state
//! (nine node-indexed vectors), before the engine moved to a first-touch
//! node table.

use tempriv_core::buffer::{BufferPolicy, VictimPolicy};
use tempriv_core::delay::{DelayPlan, DelayStrategy};
use tempriv_core::metrics::SimOutcome;
use tempriv_core::sim_driver::{NetworkSimulation, NetworkSimulationBuilder};
use tempriv_core::telemetry::privacy_probe_for;
use tempriv_net::convergecast::Convergecast;
use tempriv_net::geometric::GeometricDeployment;
use tempriv_net::ids::NodeId;
use tempriv_net::link::LinkModel;
use tempriv_net::routing::RoutingTree;
use tempriv_net::traffic::TrafficModel;
use tempriv_sim::rng::RngFactory;
use tempriv_sim::time::SimTime;
use tempriv_telemetry::{DigestProbe, FlightRecorder, ProbeEvent, RecordingProbe, SimProbe};

/// The scale bench's geometry seed and stream.
const SEED: u64 = 4242;
const STREAM: u64 = 0x5CA1E;
const NODES: usize = 2_000;
/// Every this-many-th node sources a flow.
const SOURCE_STRIDE: usize = 100;

/// FNV-1a, fed little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.eat(&x.to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn opt_f64(&mut self, x: Option<f64>) {
        match x {
            Some(x) => {
                self.u64(1);
                self.f64(x);
            }
            None => self.u64(0),
        }
    }
}

/// Records the high-water marks the driver reports at run end.
#[derive(Default)]
struct HighWater(Vec<(usize, u64)>);

impl SimProbe for HighWater {
    fn on_event(&mut self, _now: SimTime, event: ProbeEvent) {
        if let ProbeEvent::HighWater { node, high_water } = event {
            self.0.push((node, high_water));
        }
    }
}

/// Every `NodeReport` and `FlowOutcome` field (histogram bins included),
/// the outcome digest, RNG draws, events, peak FES, shard stats and the
/// probe's high-water values.
fn fingerprint(out: &SimOutcome, high_water: &[(usize, u64)]) -> u64 {
    let mut h = Fnv::new();
    h.u64(out.digest());
    h.u64(out.end_time.ticks());
    h.u64(out.rng_draws);
    h.u64(out.events);
    h.u64(out.peak_fes);
    h.u64(out.link_losses);
    h.u64(u64::from(out.field_nodes));
    for n in out.field_reports() {
        h.u64(u64::from(n.node.0));
        h.f64(n.mean_occupancy);
        h.u64(n.peak_occupancy);
        h.u64(n.occupancy_pmf.len() as u64);
        for &(k, p) in &n.occupancy_pmf {
            h.u64(k);
            h.f64(p);
        }
        for c in [
            n.preemptions,
            n.drops,
            n.flushes,
            n.stranded,
            n.transmissions,
            n.receptions,
        ] {
            h.u64(c);
        }
    }
    for f in &out.flows {
        h.u64(u64::from(f.flow.0));
        h.u64(u64::from(f.source.0));
        h.u64(u64::from(f.hops));
        h.u64(f.created);
        h.u64(f.delivered);
        h.u64(f.latency.count());
        h.f64(f.latency.mean());
        h.f64(f.latency.population_variance());
        h.opt_f64(f.latency.min());
        h.opt_f64(f.latency.max());
        let hist = &f.latency_histogram;
        h.u64(hist.bins() as u64);
        h.f64(hist.bin_width());
        h.f64(hist.bin_center(0));
        for i in 0..hist.bins() {
            h.u64(hist.bin_count(i));
        }
        h.u64(hist.underflow());
        h.u64(hist.overflow());
        h.u64(hist.total());
    }
    for s in &out.shards {
        for x in [
            u64::from(s.shard),
            s.nodes,
            s.events,
            s.handoffs_out,
            s.peak_fes,
        ] {
            h.u64(x);
        }
    }
    h.u64(high_water.len() as u64);
    for &(node, hw) in high_water {
        h.u64(node as u64);
        h.u64(hw);
    }
    h.0
}

/// The 2k-node field of the scale bench's geometry, routed to node 0,
/// with every 100th node a source.
fn field() -> NetworkSimulationBuilder {
    let side = (NODES as f64).sqrt().max(3.0);
    let deploy = GeometricDeployment::new(side, side, NODES, 2.0);
    let mut rng = RngFactory::new(SEED).stream(STREAM);
    let (topo, _) = deploy
        .sample_connected(&mut rng, 64)
        .expect("the pinned geometry connects");
    let routing = RoutingTree::shortest_path(&topo, NodeId(0)).expect("a connected field routes");
    let sources = (1..NODES)
        .step_by(SOURCE_STRIDE)
        .map(|i| NodeId(i as u32))
        .collect();
    NetworkSimulation::builder(routing, sources)
        .traffic(TrafficModel::periodic(2.0))
        .packets_per_source(50)
        .delay_plan(DelayPlan::shared_exponential(30.0))
        .buffer_policy(BufferPolicy::paper_rcad())
        .seed(7)
}

fn build(b: NetworkSimulationBuilder) -> NetworkSimulation {
    b.build().expect("the field config is valid")
}

/// A probed serial run, checked against the plain one, fingerprinted.
fn serial(sim: &NetworkSimulation) -> u64 {
    let mut probe = HighWater::default();
    let out = sim.run_probed(&mut probe);
    assert_eq!(out, sim.run(), "the probe must not perturb the run");
    assert_eq!(probe.0.len(), NODES, "one high-water report per node");
    fingerprint(&out, &probe.0)
}

/// A mix of no-delay, exponential, uniform and constant nodes, with the
/// upper half of the field on the fallback.
fn per_node_plan() -> DelayPlan {
    let strategies = (0..NODES / 2)
        .map(|i| match i % 4 {
            0 => DelayStrategy::None,
            1 => DelayStrategy::exponential(30.0),
            2 => DelayStrategy::Uniform { mean: 20.0 },
            _ => DelayStrategy::Constant { delay: 10.0 },
        })
        .collect();
    DelayPlan::PerNode {
        strategies,
        fallback: DelayStrategy::exponential(15.0),
    }
}

#[test]
fn most_of_the_field_is_never_reached() {
    let out = build(field()).run();
    let reached = out.reached.len();
    assert!(
        reached * 5 < NODES,
        "{reached} of {NODES} nodes reached: the field must stay sparse"
    );
}

#[test]
fn rcad_serial_is_pinned() {
    assert_eq!(serial(&build(field())), 0x6897_0a5f_b5d6_acf2);
}

#[test]
fn rcad_trunk_cut_two_shards_is_pinned() {
    let out = build(field()).run_sharded(2, 1);
    assert_eq!(fingerprint(&out, &[]), 0x20f0_0cc8_4962_1574);
}

#[test]
fn rcad_balanced_two_shards_is_pinned() {
    let sim = build(field());
    let one = sim.run_sharded_balanced(2, 1);
    let two = sim.run_sharded_balanced(2, 2);
    assert_eq!(fingerprint(&one, &[]), 0xe238_1a67_1565_f871);
    assert_eq!(fingerprint(&two, &[]), 0xe238_1a67_1565_f871);
}

#[test]
fn drop_tail_serial_is_pinned() {
    let sim = build(field().buffer_policy(BufferPolicy::DropTail { capacity: 10 }));
    assert_eq!(serial(&sim), 0xb5f0_4971_53d0_dc55);
}

#[test]
fn threshold_mix_serial_is_pinned() {
    let sim = build(field().buffer_policy(BufferPolicy::ThresholdMix { threshold: 8 }));
    assert_eq!(serial(&sim), 0x76c6_430f_c585_59c4);
}

#[test]
fn per_node_delay_plan_serial_is_pinned() {
    let sim = build(field().delay_plan(per_node_plan()));
    assert_eq!(serial(&sim), 0x5ac2_d455_0800_b6fd);
}

// Periodic traffic draws nothing from the traffic streams, so the pins
// above leave the creation schedule's random draws uncovered. These two
// models draw every gap: Poisson from an exponential, jittered periodic
// from a uniform offset. They were recorded while the serial run still
// drew each gap lazily in event order and the sharded runner presampled
// the same draws up front, so they pin that the two creation paths agree.

#[test]
fn poisson_serial_is_pinned() {
    let sim = build(field().traffic(TrafficModel::poisson(0.5)));
    assert_eq!(serial(&sim), 0x674c_995a_2896_c819);
}

#[test]
fn poisson_trunk_cut_two_shards_is_pinned() {
    let out = build(field().traffic(TrafficModel::poisson(0.5))).run_sharded(2, 1);
    assert_eq!(fingerprint(&out, &[]), 0x8cdb_ee8a_0382_1434);
}

#[test]
fn jittered_periodic_serial_is_pinned() {
    let sim = build(field().traffic(TrafficModel::periodic_jitter(2.0, 0.5)));
    assert_eq!(serial(&sim), 0x739c_5799_9cc7_ea99);
}

#[test]
fn jittered_periodic_trunk_cut_two_shards_is_pinned() {
    let out = build(field().traffic(TrafficModel::periodic_jitter(2.0, 0.5))).run_sharded(2, 1);
    assert_eq!(fingerprint(&out, &[]), 0xbe45_8230_80d7_3064);
}

// Observatory pins. The field pins above cover the outcome; these cover
// what every probe records of the same run. One stacked run per config
// feeds the metrics probe, the digest, the flight recorder, the privacy
// probe and a high-water recorder at once, on the Figure-1 layout.
// DropTail exercises drops, the mix exercises flushes, RCAD-Random
// exercises preemption with random victims.

/// The Figure-1 layout with 300 packets per source, seed 77 and Exp(30)
/// delays under `policy`.
fn figure1(policy: BufferPolicy) -> NetworkSimulationBuilder {
    let layout = Convergecast::paper_figure1();
    NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
        .packets_per_source(300)
        .delay_plan(DelayPlan::shared_exponential(30.0))
        .buffer_policy(policy)
        .seed(77)
}

fn json_hash<T: serde::Serialize>(value: &T) -> u64 {
    let mut h = Fnv::new();
    h.eat(
        serde_json::to_string(value)
            .expect("observatory outputs serialize")
            .as_bytes(),
    );
    h.0
}

/// One stacked probed run: `[outcome, telemetry, digest, flight log,
/// privacy series, high-water list]` hashes.
fn observatories(sim: &NetworkSimulation) -> [u64; 6] {
    let mut probe = (
        (
            (
                RecordingProbe::new(sim.routing().len()),
                DigestProbe::new(64),
            ),
            FlightRecorder::with_capacity(1 << 10),
        ),
        (privacy_probe_for(sim, 25), HighWater::default()),
    );
    let out = sim.run_probed(&mut probe);
    assert_eq!(out, sim.run(), "the probes must not perturb the run");
    let (((metrics, digest), flight), (privacy, high_water)) = probe;
    let end = out.end_time;
    let mut h = Fnv::new();
    h.u64(high_water.0.len() as u64);
    for &(node, hw) in &high_water.0 {
        h.u64(node as u64);
        h.u64(hw);
    }
    [
        fingerprint(&out, &[]),
        json_hash(&metrics.finish(end)),
        json_hash(&digest.finish()),
        json_hash(&flight.finish(end)),
        json_hash(&privacy.finish(end)),
        h.0,
    ]
}

#[test]
fn rcad_observatories_are_pinned() {
    let sim = build(figure1(BufferPolicy::paper_rcad()));
    assert_eq!(
        observatories(&sim),
        [
            0x0c5b_3359_9489_2bd5,
            0x9aed_ce09_8cd6_24bb,
            0x94f5_9a82_4f7d_e286,
            0x94df_3b4a_0297_4d43,
            0x46b6_210e_d9fc_534f,
            0xf23c_1e5e_6d0c_7dec,
        ]
    );
}

#[test]
fn rcad_random_lossy_poisson_observatories_are_pinned() {
    let sim = build(
        figure1(BufferPolicy::Rcad {
            capacity: 4,
            victim: VictimPolicy::Random,
        })
        .traffic(TrafficModel::poisson(0.5))
        .link(LinkModel::paper_default().with_loss(0.05)),
    );
    assert_eq!(
        observatories(&sim),
        [
            0x6c46_33b1_3bc3_1a8e,
            0xe9e5_3c3c_6d12_f7eb,
            0xbe13_691b_f563_e418,
            0x0fe0_e1c9_b863_d124,
            0xbb28_0dd7_13ff_f45e,
            0x0b48_9cfd_0307_44a2,
        ]
    );
}

#[test]
fn drop_tail_observatories_are_pinned() {
    let sim = build(figure1(BufferPolicy::DropTail { capacity: 3 }));
    assert_eq!(
        observatories(&sim),
        [
            0x4038_ebbf_e8ac_766b,
            0xb21d_5f6b_206e_75d0,
            0xfb64_3077_7295_18f6,
            0x4744_473c_04e6_a7b2,
            0x143e_2702_4625_3235,
            0x808a_878d_ff8e_a8a4,
        ]
    );
}

#[test]
fn threshold_mix_observatories_are_pinned() {
    let sim = build(figure1(BufferPolicy::ThresholdMix { threshold: 3 }));
    assert_eq!(
        observatories(&sim),
        [
            0x355e_645b_9384_f87e,
            0x3137_1476_275a_95ec,
            0x9f79_6d46_b12c_f80d,
            0x7393_36bd_919e_de07,
            0x8f00_0f29_aa03_2d5e,
            0x2ae8_28f3_6421_8745,
        ]
    );
}

#[test]
fn unlimited_lossy_poisson_observatories_are_pinned() {
    let sim = build(
        figure1(BufferPolicy::Unlimited)
            .traffic(TrafficModel::poisson(0.3))
            .link(LinkModel::paper_default().with_loss(0.02)),
    );
    assert_eq!(
        observatories(&sim),
        [
            0xf3fe_41e3_6a91_532c,
            0xe63b_5248_db18_5e9c,
            0x09dd_5e1f_07d4_d509,
            0x1ca5_3773_5adf_1c90,
            0xdfd9_d0c0_eeac_2cdb,
            0x90ae_9afe_8013_08b6,
        ]
    );
}
