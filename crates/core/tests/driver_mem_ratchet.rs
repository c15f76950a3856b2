//! Peak-heap ratchet for the simulation driver on a sparse field.
//!
//! On a geometric field where one node in a hundred sources traffic,
//! most nodes never see a packet. Engine state for a node (its buffer,
//! occupancy dwell, delay RNG substream and counters) must then cost
//! nothing beyond a table slot until a packet reaches it, and a shard
//! must not carry state for nodes of other shards. The ratchet bounds
//! the peak live heap of one run, outcome assembly included, per field
//! node, for a serial run and for a two-shard balanced run.
//!
//! Measured on the 10k-node field below, where 1,241 nodes see a
//! packet (peak live bytes per field node). The outcome alone keeps
//! 88 B per field node: 100 latency histograms and the 1,241 reached
//! nodes' reports. With a report for every field node it kept 179 B.
//!
//! | run                          | whole-field node vectors | first-touch table | sparse outcome |
//! |------------------------------|-------------------------:|------------------:|---------------:|
//! | serial `run()`               |                      581 |               319 |            229 |
//! | `run_sharded_balanced(2, 1)` |                      873 |               340 |            250 |
//!
//! The ratchet counts through the real allocator, so this test binary
//! installs it; without it every reading would be zero and the ceilings
//! would pass vacuously (guarded by the first assertion).

use tempriv_core::buffer::BufferPolicy;
use tempriv_core::delay::DelayPlan;
use tempriv_core::metrics::SimOutcome;
use tempriv_core::sim_driver::NetworkSimulation;
use tempriv_net::geometric::GeometricDeployment;
use tempriv_net::ids::NodeId;
use tempriv_net::routing::RoutingTree;
use tempriv_net::traffic::TrafficModel;
use tempriv_sim::rng::RngFactory;
use tempriv_telemetry::memprof;

#[global_allocator]
static ALLOC: tempriv_telemetry::CountingAlloc = tempriv_telemetry::CountingAlloc;

// The counting gate and the peak mark are process-global, so the tests
// must not interleave.
static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

const NODES: usize = 10_000;
/// Every this-many-th node sources a flow.
const SOURCE_STRIDE: usize = 100;
/// Peak live heap allowed per field node for a serial run.
const SERIAL_CEILING: u64 = 260;
/// Peak live heap allowed per field node for a two-shard balanced run.
const SHARDED_CEILING: u64 = 285;

/// The scale bench's geometry (seed 4242, stream 0x5CA1E) under paper
/// RCAD, every 100th node a source.
fn field() -> NetworkSimulation {
    let side = (NODES as f64).sqrt().max(3.0);
    let deploy = GeometricDeployment::new(side, side, NODES, 2.0);
    let mut rng = RngFactory::new(4242).stream(0x5CA1E);
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
        .packets_per_source(20)
        .delay_plan(DelayPlan::shared_exponential(30.0))
        .buffer_policy(BufferPolicy::paper_rcad())
        .seed(7)
        .build()
        .expect("the field config is valid")
}

/// Peak live heap of `run` above the level it started at and the live
/// heap its outcome keeps, both per field node, and the outcome.
fn peak_per_node(run: impl FnOnce() -> SimOutcome) -> (u64, u64, SimOutcome) {
    let base = memprof::snapshot().live_bytes;
    memprof::reset_peak();
    let out = run();
    let after = memprof::snapshot();
    let peak = after.peak_live_bytes.saturating_sub(base);
    let kept = after.live_bytes.saturating_sub(base);
    (peak / NODES as u64, kept / NODES as u64, out)
}

fn measure(what: &str, ceiling: u64, run: impl Fn(&NetworkSimulation) -> SimOutcome) {
    let _gate = GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    assert!(
        memprof::installed(),
        "the counting allocator must be installed"
    );
    memprof::set_enabled(true);
    let sim = field();
    let (per_node, outcome_per_node, out) = peak_per_node(|| run(&sim));
    memprof::set_enabled(false);
    let reached = out.reached.len();
    eprintln!("driver ratchet: {what}: {per_node} B peak live heap per node, the outcome keeps {outcome_per_node} B, {reached} of {NODES} nodes reached");
    assert!(
        reached * 100 <= NODES * 15,
        "{reached} of {NODES} nodes reached: the field must stay sparse"
    );
    assert!(per_node > 0, "the run must allocate something");
    assert!(
        per_node <= ceiling,
        "{what}: {per_node} B of peak live heap per field node (ceiling {ceiling} B)"
    );
}

#[test]
fn serial_run_heap_follows_reached_nodes() {
    measure("serial run", SERIAL_CEILING, NetworkSimulation::run);
}

#[test]
fn sharded_run_heap_follows_reached_nodes() {
    measure("balanced 2-shard run", SHARDED_CEILING, |sim| {
        sim.run_sharded_balanced(2, 1)
    });
}
