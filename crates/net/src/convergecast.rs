//! Synthetic convergecast layouts — the paper's Figure 1 topology.
//!
//! The evaluation topology has four source nodes whose routes (hop counts
//! 15, 22, 9 and 11) snake across a field and *merge* before reaching the
//! sink. What drives every result is (a) each flow's hop count and (b)
//! where flows start sharing nodes — shared nodes see the superposed
//! traffic of all flows through them, which is where RCAD preemption
//! concentrates. [`Convergecast`] builds exactly that structure: a shared
//! trunk of configurable length into the sink, plus a private chain per
//! flow.

use serde::{Deserialize, Serialize};

use crate::ids::{FlowId, NodeId};
use crate::routing::{RoutingError, RoutingTree};

/// Builder for [`Convergecast`] layouts.
#[derive(Debug, Clone, Default)]
pub struct ConvergecastBuilder {
    trunk_hops: u32,
    flow_hops: Vec<u32>,
}

impl ConvergecastBuilder {
    /// Starts an empty builder (no trunk, no flows).
    #[must_use]
    pub fn new() -> Self {
        ConvergecastBuilder::default()
    }

    /// Sets the number of hops every flow shares on its way into the sink.
    #[must_use]
    pub fn trunk_hops(mut self, hops: u32) -> Self {
        self.trunk_hops = hops;
        self
    }

    /// Adds a flow with the given total hop count (source to sink).
    #[must_use]
    pub fn flow(mut self, hops: u32) -> Self {
        self.flow_hops.push(hops);
        self
    }

    /// Adds several flows at once.
    #[must_use]
    pub fn flows<I: IntoIterator<Item = u32>>(mut self, hops: I) -> Self {
        self.flow_hops.extend(hops);
        self
    }

    /// Builds the layout.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] if no flows were added or some flow's hop
    /// count does not exceed the trunk length (each flow needs at least
    /// its source node outside the trunk).
    pub fn build(self) -> Result<Convergecast, LayoutError> {
        if self.flow_hops.is_empty() {
            return Err(LayoutError::NoFlows);
        }
        for (i, &h) in self.flow_hops.iter().enumerate() {
            if h <= self.trunk_hops {
                return Err(LayoutError::FlowShorterThanTrunk {
                    flow: FlowId(i as u32),
                    hops: h,
                    trunk: self.trunk_hops,
                });
            }
        }
        // Node 0 is the sink; nodes 1..=T the trunk (node i's parent is
        // i−1); each flow then appends its private chain + source.
        let mut parents: Vec<Option<NodeId>> = vec![None];
        for i in 1..=self.trunk_hops {
            parents.push(Some(NodeId(i - 1)));
        }
        let trunk_top = NodeId(self.trunk_hops);
        let mut sources = Vec::with_capacity(self.flow_hops.len());
        for &h in &self.flow_hops {
            let private = h - self.trunk_hops; // chain length incl. source
            let mut at = trunk_top;
            for _ in 0..private {
                let id = NodeId(parents.len() as u32);
                parents.push(Some(at));
                at = id;
            }
            sources.push(at);
        }
        let routing =
            RoutingTree::from_parents(NodeId(0), parents).expect("construction yields a tree");
        Ok(Convergecast {
            routing,
            sources,
            trunk_hops: self.trunk_hops,
            flow_hops: self.flow_hops,
        })
    }
}

/// A convergecast deployment: per-flow private chains joined by a shared
/// trunk into the sink.
///
/// # Examples
///
/// ```
/// use tempriv_net::convergecast::Convergecast;
/// use tempriv_net::ids::FlowId;
///
/// let layout = Convergecast::paper_figure1();
/// assert_eq!(layout.num_flows(), 4);
/// assert_eq!(layout.hop_count(FlowId(0)), 15); // flow S1
/// assert_eq!(layout.hop_count(FlowId(1)), 22); // flow S2
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Convergecast {
    routing: RoutingTree,
    sources: Vec<NodeId>,
    trunk_hops: u32,
    flow_hops: Vec<u32>,
}

impl Convergecast {
    /// Starts a builder.
    #[must_use]
    pub fn builder() -> ConvergecastBuilder {
        ConvergecastBuilder::new()
    }

    /// The paper's Figure 1 evaluation layout: four flows with hop counts
    /// 15, 22, 9 and 11 sharing an 8-hop trunk into the sink
    /// (calibrated so RCAD's latency reduction at the highest traffic rate
    /// matches the paper's reported ~2.5x).
    #[must_use]
    pub fn paper_figure1() -> Self {
        Convergecast::builder()
            .trunk_hops(8)
            .flows([15, 22, 9, 11])
            .build()
            .expect("paper layout is valid")
    }

    /// The routing tree of the deployment.
    #[must_use]
    pub const fn routing(&self) -> &RoutingTree {
        &self.routing
    }

    /// Source node of each flow, indexed by [`FlowId`].
    #[must_use]
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// Total hop count of `flow` (source to sink).
    ///
    /// # Panics
    ///
    /// Panics if `flow` is out of range.
    #[must_use]
    pub fn hop_count(&self, flow: FlowId) -> u32 {
        self.flow_hops[flow.index()]
    }

    /// Number of flows.
    #[must_use]
    pub fn num_flows(&self) -> usize {
        self.sources.len()
    }

    /// Number of nodes, including the sink.
    #[must_use]
    pub fn len(&self) -> usize {
        self.routing.len()
    }

    /// `true` if the layout has no nodes (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.routing.is_empty()
    }

    /// Hops shared by all flows directly before the sink.
    #[must_use]
    pub const fn trunk_hops(&self) -> u32 {
        self.trunk_hops
    }
}

/// Errors from convergecast layout construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum LayoutError {
    /// The builder was given no flows.
    NoFlows,
    /// A flow's hop count does not exceed the trunk length.
    FlowShorterThanTrunk {
        /// The offending flow.
        flow: FlowId,
        /// Its requested hop count.
        hops: u32,
        /// The configured trunk length.
        trunk: u32,
    },
}

impl core::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LayoutError::NoFlows => write!(f, "a convergecast layout needs at least one flow"),
            LayoutError::FlowShorterThanTrunk { flow, hops, trunk } => write!(
                f,
                "flow {flow} has {hops} hops but the shared trunk is {trunk} hops; \
                 flows must be strictly longer than the trunk"
            ),
        }
    }
}

impl std::error::Error for LayoutError {}

impl From<RoutingError> for LayoutError {
    fn from(_: RoutingError) -> Self {
        // Construction guarantees a valid tree; this impl exists only so
        // `?` composes if the invariant is ever relaxed.
        LayoutError::NoFlows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_layout_hop_counts() {
        let c = Convergecast::paper_figure1();
        let expect = [15u32, 22, 9, 11];
        for (i, &h) in expect.iter().enumerate() {
            let flow = FlowId(i as u32);
            assert_eq!(c.hop_count(flow), h);
            assert_eq!(c.routing().hops(c.sources()[flow.index()]), Some(h));
        }
        // Node count: sink + trunk(8) + private chains (7 + 14 + 1 + 3).
        assert_eq!(c.len(), 1 + 8 + 7 + 14 + 1 + 3);
    }

    #[test]
    fn all_flows_share_the_trunk() {
        let c = Convergecast::paper_figure1();
        let flows = c.routing().flows_per_node(c.sources());
        // Every trunk node (n1..=n8) carries all four flows.
        assert_eq!(flows[1..=8], [4; 8]);
        // Each source carries exactly its own flow.
        for &src in c.sources() {
            assert_eq!(flows[src.index()], 1);
        }
    }

    #[test]
    fn zero_trunk_gives_disjoint_paths() {
        let c = Convergecast::builder()
            .trunk_hops(0)
            .flows([3, 4])
            .build()
            .unwrap();
        assert_eq!(c.trunk_hops(), 0);
        let p0 = c.routing().path(c.sources()[0]);
        let p1 = c.routing().path(c.sources()[1]);
        let shared: Vec<_> = p0.iter().filter(|n| p1.contains(n)).collect();
        assert_eq!(shared, vec![&NodeId(0)]); // only the sink
    }

    #[test]
    fn paths_step_through_private_then_trunk() {
        let c = Convergecast::builder()
            .trunk_hops(2)
            .flows([5])
            .build()
            .unwrap();
        let path = c.routing().path(c.sources()[0]);
        assert_eq!(path.len(), 6); // source + 2 private + 2 trunk + sink
        assert_eq!(*path.last().unwrap(), NodeId(0));
        // Last two before the sink are trunk nodes 1 and 2.
        assert_eq!(path[path.len() - 2], NodeId(1));
        assert_eq!(path[path.len() - 3], NodeId(2));
    }

    #[test]
    fn builder_rejects_short_flows() {
        let err = Convergecast::builder()
            .trunk_hops(8)
            .flows([6])
            .build()
            .unwrap_err();
        assert!(matches!(err, LayoutError::FlowShorterThanTrunk { .. }));
        assert!(err.to_string().contains("trunk"));
    }

    #[test]
    fn builder_rejects_empty() {
        let err = Convergecast::builder().build().unwrap_err();
        assert_eq!(err, LayoutError::NoFlows);
    }

    #[test]
    fn single_flow_is_a_line() {
        let c = Convergecast::builder()
            .trunk_hops(0)
            .flow(15)
            .build()
            .unwrap();
        assert_eq!(c.len(), 16);
        assert_eq!(c.routing().hops(c.sources()[0]), Some(15));
    }
}
