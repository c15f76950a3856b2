//! First-touch engine state per node.
//!
//! Buffering, occupancy and delay sampling happen only at nodes on a
//! source's route to the sink (paper §4), and on a large sparse field
//! most nodes never see a packet. The driver therefore keeps each node's
//! engine state in one dense [`NodeState`] record, created the first
//! time a packet touches the node; `slot_of` maps node ids to records. A
//! new record is exactly the state every node starts a run in, and its
//! delay RNG substream is a pure function of the seed and the node id,
//! so draw sequences never depend on which node was touched first.
//!
//! A shard of a sharded run only ever touches its own nodes, so its
//! table follows the nodes that shard reaches, not the whole field.

use core::ops::{Index, IndexMut};

use tempriv_net::ids::NodeId;
use tempriv_sim::rng::{RngFactory, SimRng};
use tempriv_sim::stats::StateDwell;
use tempriv_sim::time::SimTime;

use crate::delay::DelayStrategy;
use crate::metrics::NodeReport;
use crate::sim_driver::{streams, NetworkSimulation};
use crate::store::StoreBuffer;

/// `slot_of` entry of a node no packet has touched yet.
const UNTOUCHED: u32 = u32::MAX;

/// One node's engine state: its buffer, occupancy dwell, delay stream
/// and strategy, and its event counters.
#[derive(Debug)]
pub(crate) struct NodeState {
    pub(crate) buffer: StoreBuffer,
    pub(crate) occupancy: StateDwell,
    pub(crate) rng: SimRng,
    pub(crate) strategy: DelayStrategy,
    pub(crate) preemptions: u64,
    pub(crate) drops: u64,
    pub(crate) flushes: u64,
    pub(crate) tx: u64,
    pub(crate) rx: u64,
}

impl NodeState {
    /// The state `node` starts a run in.
    fn new(sim: &NetworkSimulation, factory: &RngFactory, node: NodeId) -> NodeState {
        NodeState {
            buffer: StoreBuffer::for_policy(&sim.buffer_policy),
            occupancy: StateDwell::new(SimTime::ZERO, 0),
            rng: factory.substream(streams::DELAY, u64::from(node.0)),
            strategy: sim.delay_plan.for_node(node),
            preemptions: 0,
            drops: 0,
            flushes: 0,
            tx: 0,
            rx: 0,
        }
    }

    /// The node's report with its occupancy closed at `end_time`.
    fn report(&self, node: NodeId, end_time: SimTime) -> NodeReport {
        let occupancy_pmf = self.occupancy.pmf(end_time);
        NodeReport {
            node,
            mean_occupancy: StateDwell::pmf_mean(&occupancy_pmf),
            peak_occupancy: occupancy_pmf.iter().map(|&(k, _)| k).max().unwrap_or(0),
            occupancy_pmf,
            preemptions: self.preemptions,
            drops: self.drops,
            flushes: self.flushes,
            stranded: self.buffer.len() as u64,
            transmissions: self.tx,
            receptions: self.rx,
        }
    }
}

/// The node records one driver has touched, indexed densely in touch
/// order.
#[derive(Debug)]
pub(crate) struct NodeTable {
    slot_of: Vec<u32>,
    states: Vec<NodeState>,
    factory: RngFactory,
}

impl NodeTable {
    /// An empty table over `sim`'s field.
    pub(crate) fn new(sim: &NetworkSimulation) -> NodeTable {
        NodeTable {
            slot_of: vec![UNTOUCHED; sim.routing.len()],
            states: Vec::new(),
            factory: RngFactory::new(sim.seed),
        }
    }

    /// The dense index of `node`'s record, created on first touch.
    #[inline]
    pub(crate) fn touch(&mut self, sim: &NetworkSimulation, node: NodeId) -> usize {
        match self.slot_of[node.index()] {
            UNTOUCHED => self.create(sim, node),
            slot => slot as usize,
        }
    }

    #[cold]
    #[inline(never)]
    fn create(&mut self, sim: &NetworkSimulation, node: NodeId) -> usize {
        let slot = self.states.len();
        self.slot_of[node.index()] = slot as u32;
        self.states.push(NodeState::new(sim, &self.factory, node));
        slot
    }

    /// Node `node`'s record, if a packet touched it.
    pub(crate) fn get(&self, node: usize) -> Option<&NodeState> {
        match self.slot_of[node] {
            UNTOUCHED => None,
            slot => Some(&self.states[slot as usize]),
        }
    }

    /// Draws taken from every touched node's delay stream (untouched
    /// streams have drawn nothing).
    pub(crate) fn rng_draws(&self) -> u64 {
        self.states.iter().map(|s| s.rng.draws()).sum()
    }
}

impl Index<usize> for NodeTable {
    type Output = NodeState;

    #[inline]
    fn index(&self, slot: usize) -> &NodeState {
        &self.states[slot]
    }
}

impl IndexMut<usize> for NodeTable {
    #[inline]
    fn index_mut(&mut self, slot: usize) -> &mut NodeState {
        &mut self.states[slot]
    }
}

/// The reports, at `end_time`, of the nodes a packet reached, in id
/// order. `state_of(i)` is node `i`'s record in whichever table owns it;
/// a node without one is idle and stores no report.
pub(crate) fn node_reports<'s>(
    sim: &NetworkSimulation,
    end_time: SimTime,
    state_of: impl Fn(usize) -> Option<&'s NodeState>,
) -> Vec<NodeReport> {
    (0..sim.routing.len())
        .filter_map(|i| state_of(i).map(|state| state.report(NodeId(i as u32), end_time)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempriv_net::routing::RoutingTree;
    use tempriv_net::topology::Topology;

    /// A node that was touched but never buffered reports exactly what
    /// `NodeReport::idle` derives for an unreached one, float bits
    /// included, so storing it or not changes no reader.
    #[test]
    fn fresh_state_reports_the_idle_report() {
        let topo = Topology::line(4);
        let routing = RoutingTree::shortest_path(&topo, NodeId(0)).unwrap();
        let sim = NetworkSimulation::builder(routing, vec![NodeId(3)])
            .build()
            .unwrap();
        let factory = RngFactory::new(sim.seed);
        for end_time in [SimTime::ZERO, SimTime::from_units(12.5)] {
            for node in [NodeId(1), NodeId(2)] {
                let fresh = NodeState::new(&sim, &factory, node).report(node, end_time);
                let idle = NodeReport::idle(node, end_time);
                assert_eq!(fresh, idle, "end_time {end_time:?}");
                assert_eq!(
                    fresh.mean_occupancy.to_bits(),
                    idle.mean_occupancy.to_bits()
                );
            }
        }
    }
}
