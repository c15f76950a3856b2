//! Convergecast routing trees.
//!
//! Sensor deployments route every packet hop-by-hop toward a single sink
//! along a routing tree (the paper's §4 network model). We build the tree
//! as the BFS shortest-path forest rooted at the sink, matching min-hop
//! routing protocols like TinyOS MultiHop.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::ids::NodeId;
use crate::topology::Topology;

/// A routing tree: every node's next hop toward the sink.
///
/// # Examples
///
/// ```
/// use tempriv_net::routing::RoutingTree;
/// use tempriv_net::topology::Topology;
/// use tempriv_net::ids::NodeId;
///
/// let grid = Topology::grid(3, 3);
/// let tree = RoutingTree::shortest_path(&grid, NodeId(0)).unwrap();
/// // Opposite corner of a 3x3 grid is 4 hops from the sink.
/// assert_eq!(tree.hops(NodeId(8)), Some(4));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingTree {
    sink: NodeId,
    next_hop: Vec<Option<NodeId>>,
    hops: Vec<Option<u32>>,
}

impl RoutingTree {
    /// Builds the min-hop routing tree toward `sink` by breadth-first
    /// search. Ties are broken by ascending neighbour id (the order of
    /// [`Topology::neighbors`]), so the tree is a pure function of the
    /// edge set.
    ///
    /// # Errors
    ///
    /// Returns [`RoutingError::SinkOutOfRange`] if `sink` is not a node of
    /// `topology`, or [`RoutingError::Unreachable`] listing nodes with no
    /// path to the sink.
    pub fn shortest_path(topology: &Topology, sink: NodeId) -> Result<Self, RoutingError> {
        let n = topology.len();
        if sink.index() >= n {
            return Err(RoutingError::SinkOutOfRange { sink });
        }
        let mut next_hop: Vec<Option<NodeId>> = vec![None; n];
        let mut hops: Vec<Option<u32>> = vec![None; n];
        hops[sink.index()] = Some(0);
        let mut queue = VecDeque::from([sink]);
        while let Some(at) = queue.pop_front() {
            let d = hops[at.index()].expect("dequeued nodes have depths");
            for &nb in topology.neighbors(at) {
                if hops[nb.index()].is_none() {
                    hops[nb.index()] = Some(d + 1);
                    next_hop[nb.index()] = Some(at);
                    queue.push_back(nb);
                }
            }
        }
        let unreachable: Vec<NodeId> = topology
            .nodes()
            .filter(|node| hops[node.index()].is_none())
            .collect();
        if !unreachable.is_empty() {
            return Err(RoutingError::Unreachable { nodes: unreachable });
        }
        Ok(RoutingTree {
            sink,
            next_hop,
            hops,
        })
    }

    /// Builds a routing tree directly from explicit parent pointers
    /// (`None` exactly for the sink). Used by synthetic layouts that do
    /// not go through a [`Topology`].
    ///
    /// # Errors
    ///
    /// Returns [`RoutingError::Malformed`] if the pointers do not form a
    /// tree rooted at `sink` (cycles, wrong root, dangling parents).
    pub fn from_parents(sink: NodeId, parents: Vec<Option<NodeId>>) -> Result<Self, RoutingError> {
        let n = parents.len();
        if sink.index() >= n || parents[sink.index()].is_some() {
            return Err(RoutingError::Malformed {
                reason: "sink must exist and have no parent".into(),
            });
        }
        let mut hops: Vec<Option<u32>> = vec![None; n];
        hops[sink.index()] = Some(0);
        for start in 0..n {
            if hops[start].is_some() {
                continue;
            }
            // Walk to a node of known depth, then backfill.
            let mut path = Vec::new();
            let mut at = start;
            while hops[at].is_none() {
                path.push(at);
                let Some(parent) = parents[at] else {
                    return Err(RoutingError::Malformed {
                        reason: format!("node n{at} has no parent and is not the sink"),
                    });
                };
                if parent.index() >= n {
                    return Err(RoutingError::Malformed {
                        reason: format!("node n{at} points to nonexistent parent {parent}"),
                    });
                }
                at = parent.index();
                if path.contains(&at) {
                    return Err(RoutingError::Malformed {
                        reason: format!("cycle through node n{at}"),
                    });
                }
            }
            let mut d = hops[at].expect("loop exit condition");
            for &node in path.iter().rev() {
                d += 1;
                hops[node] = Some(d);
            }
        }
        Ok(RoutingTree {
            sink,
            next_hop: parents,
            hops,
        })
    }

    /// The sink all routes converge on.
    #[must_use]
    pub const fn sink(&self) -> NodeId {
        self.sink
    }

    /// Number of nodes covered by the tree.
    #[must_use]
    pub fn len(&self) -> usize {
        self.next_hop.len()
    }

    /// `true` if the tree covers no nodes (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.next_hop.is_empty()
    }

    /// Next hop of `node` toward the sink (`None` for the sink itself).
    #[must_use]
    pub fn next_hop(&self, node: NodeId) -> Option<NodeId> {
        self.next_hop.get(node.index()).copied().flatten()
    }

    /// Hop count from `node` to the sink (`Some(0)` for the sink).
    #[must_use]
    pub fn hops(&self, node: NodeId) -> Option<u32> {
        self.hops.get(node.index()).copied().flatten()
    }

    /// Full path from `node` to the sink, inclusive of both endpoints.
    #[must_use]
    pub fn path(&self, node: NodeId) -> Vec<NodeId> {
        let mut path = vec![node];
        let mut at = node;
        while let Some(next) = self.next_hop(at) {
            path.push(next);
            at = next;
        }
        path
    }

    /// Number of flows routed through every node, indexed by node, when
    /// each of `sources` sends one flow to the sink (the sink included).
    /// Times a per-flow rate, this is the Poisson-superposed arrival rate
    /// λ of each station in the paper's §4 load model.
    #[must_use]
    pub fn flows_per_node(&self, sources: &[NodeId]) -> Vec<u32> {
        let mut counts = vec![0u32; self.len()];
        for &src in sources {
            for node in self.path(src) {
                counts[node.index()] += 1;
            }
        }
        counts
    }
}

/// Errors from routing-tree construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RoutingError {
    /// The requested sink id is not a node of the topology.
    SinkOutOfRange {
        /// The offending sink id.
        sink: NodeId,
    },
    /// Some nodes cannot reach the sink.
    Unreachable {
        /// The disconnected nodes.
        nodes: Vec<NodeId>,
    },
    /// Explicit parent pointers do not form a tree.
    Malformed {
        /// Human-readable cause.
        reason: String,
    },
}

impl core::fmt::Display for RoutingError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RoutingError::SinkOutOfRange { sink } => {
                write!(f, "sink {sink} is not a node of the topology")
            }
            RoutingError::Unreachable { nodes } => {
                write!(f, "{} node(s) cannot reach the sink", nodes.len())
            }
            RoutingError::Malformed { reason } => {
                write!(f, "parent pointers do not form a routing tree: {reason}")
            }
        }
    }
}

impl std::error::Error for RoutingError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_routes_everything_to_sink() {
        let t = Topology::line(5);
        let tree = RoutingTree::shortest_path(&t, NodeId(0)).unwrap();
        assert_eq!(tree.sink(), NodeId(0));
        assert_eq!(tree.hops(NodeId(4)), Some(4));
        assert_eq!(tree.hops(NodeId(0)), Some(0));
        assert_eq!(tree.next_hop(NodeId(3)), Some(NodeId(2)));
        assert_eq!(tree.next_hop(NodeId(0)), None);
        assert_eq!(
            tree.path(NodeId(3)),
            vec![NodeId(3), NodeId(2), NodeId(1), NodeId(0)]
        );
    }

    #[test]
    fn grid_hop_counts_are_manhattan() {
        let t = Topology::grid(5, 5);
        let tree = RoutingTree::shortest_path(&t, NodeId(0)).unwrap();
        for y in 0..5u32 {
            for x in 0..5u32 {
                let id = NodeId(y * 5 + x);
                assert_eq!(tree.hops(id), Some(x + y), "node {id}");
            }
        }
    }

    #[test]
    fn paths_shrink_hop_by_hop() {
        let t = Topology::grid(6, 4);
        let tree = RoutingTree::shortest_path(&t, NodeId(23)).unwrap();
        for node in t.nodes() {
            let path = tree.path(node);
            assert_eq!(path.len() as u32, tree.hops(node).unwrap() + 1);
            for w in path.windows(2) {
                assert_eq!(tree.hops(w[0]).unwrap(), tree.hops(w[1]).unwrap() + 1);
            }
            assert_eq!(*path.last().unwrap(), NodeId(23));
        }
    }

    #[test]
    fn unreachable_nodes_reported() {
        let t = Topology::from_edges(4, [(NodeId(0), NodeId(1))]);
        let err = RoutingTree::shortest_path(&t, NodeId(0)).unwrap_err();
        match err {
            RoutingError::Unreachable { nodes } => {
                assert_eq!(nodes, vec![NodeId(2), NodeId(3)]);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn sink_out_of_range_reported() {
        let t = Topology::line(3);
        let err = RoutingTree::shortest_path(&t, NodeId(9)).unwrap_err();
        assert!(matches!(err, RoutingError::SinkOutOfRange { .. }));
    }

    #[test]
    fn from_parents_builds_depths() {
        // 0 <- 1 <- 2, 0 <- 3
        let tree = RoutingTree::from_parents(
            NodeId(0),
            vec![None, Some(NodeId(0)), Some(NodeId(1)), Some(NodeId(0))],
        )
        .unwrap();
        assert_eq!(tree.hops(NodeId(2)), Some(2));
        assert_eq!(tree.hops(NodeId(3)), Some(1));
        assert_eq!(tree.next_hop(NodeId(2)), Some(NodeId(1)));
        assert_eq!(tree.next_hop(NodeId(3)), Some(NodeId(0)));
    }

    #[test]
    fn from_parents_rejects_cycles() {
        let err =
            RoutingTree::from_parents(NodeId(0), vec![None, Some(NodeId(2)), Some(NodeId(1))])
                .unwrap_err();
        assert!(matches!(err, RoutingError::Malformed { .. }));
    }

    #[test]
    fn from_parents_rejects_parentless_non_sink() {
        let err = RoutingTree::from_parents(NodeId(0), vec![None, None]).unwrap_err();
        assert!(matches!(err, RoutingError::Malformed { .. }));
    }

    #[test]
    fn bfs_tie_break_is_deterministic() {
        let t = Topology::grid(3, 3);
        let a = RoutingTree::shortest_path(&t, NodeId(4)).unwrap();
        let b = RoutingTree::shortest_path(&t, NodeId(4)).unwrap();
        assert_eq!(a, b);
    }
}
