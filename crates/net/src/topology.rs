//! Deployment topologies.
//!
//! A [`Topology`] is an undirected connectivity graph over sensor nodes,
//! optionally with planar positions (used by the mobility model and by
//! grid deployments like the paper's Figure 1 field).

use serde::{Deserialize, Serialize};

use crate::ids::NodeId;

/// An undirected sensor connectivity graph, stored as compressed sparse
/// rows (CSR).
///
/// Node `i`'s neighbours are `neighbors[offsets[i]..offsets[i + 1]]`, in
/// ascending id order. Every constructor fills the two flat arrays once;
/// there is no per-node `Vec` and no incremental edge insertion. The
/// ascending order is what makes BFS tie-breaks, and so routing trees,
/// a pure function of the edge set.
///
/// # Examples
///
/// ```
/// use tempriv_net::topology::Topology;
/// use tempriv_net::ids::NodeId;
///
/// let line = Topology::line(4);
/// assert_eq!(line.len(), 4);
/// assert_eq!(line.neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
///
/// let star = Topology::from_edges(4, [(NodeId(3), NodeId(0)), (NodeId(0), NodeId(1))]);
/// assert_eq!(star.neighbors(NodeId(0)), &[NodeId(1), NodeId(3)]);
/// assert!(!star.is_connected());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    /// `n + 1` row starts into `neighbors`; `offsets[n]` is its length.
    offsets: Vec<u32>,
    /// Every adjacency list, concatenated in node order.
    neighbors: Vec<NodeId>,
    positions: Option<Vec<(f64, f64)>>,
}

impl Topology {
    /// A topology over `n` nodes with the given undirected edges, in any
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, an edge is a self-loop, an endpoint is out of
    /// range, or an edge appears twice (in either direction).
    #[must_use]
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        assert!(n > 0, "a topology needs at least one node");
        let edges: Vec<(NodeId, NodeId)> = edges.into_iter().collect();
        let mut offsets = vec![0u32; n + 1];
        for &(a, b) in &edges {
            assert!(a != b, "self-loops are not allowed ({a})");
            assert!(
                a.index() < n && b.index() < n,
                "edge endpoints out of range: {a}, {b}"
            );
            offsets[a.index() + 1] += 1;
            offsets[b.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut neighbors = vec![NodeId(0); offsets[n] as usize];
        for &(a, b) in &edges {
            for (from, to) in [(a, b), (b, a)] {
                neighbors[cursor[from.index()] as usize] = to;
                cursor[from.index()] += 1;
            }
        }
        for i in 0..n {
            let row = &mut neighbors[offsets[i] as usize..offsets[i + 1] as usize];
            row.sort_unstable();
            if let Some(pair) = row.windows(2).find(|w| w[0] == w[1]) {
                panic!("duplicate edge n{i} — {}", pair[0]);
            }
        }
        Topology::from_csr(offsets, neighbors, None)
    }

    /// Wraps already-built CSR arrays. Callers guarantee symmetric,
    /// ascending, loop-free rows; debug builds check the shape.
    pub(crate) fn from_csr(
        offsets: Vec<u32>,
        neighbors: Vec<NodeId>,
        positions: Option<Vec<(f64, f64)>>,
    ) -> Self {
        debug_assert!(offsets.len() > 1, "a topology needs at least one node");
        debug_assert_eq!(offsets.last().map(|&o| o as usize), Some(neighbors.len()));
        let topo = Topology {
            offsets,
            neighbors,
            positions,
        };
        debug_assert!(topo.nodes().all(|i| {
            let row = topo.neighbors(i);
            row.windows(2).all(|w| w[0] < w[1]) && row.iter().all(|&j| j != i)
        }));
        topo
    }

    /// A path topology `0 — 1 — ⋯ — (n−1)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn line(n: usize) -> Self {
        assert!(n > 0, "a topology needs at least one node");
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(2 * (n - 1));
        offsets.push(0);
        for i in 0..n as u32 {
            if i > 0 {
                neighbors.push(NodeId(i - 1));
            }
            if (i as usize) + 1 < n {
                neighbors.push(NodeId(i + 1));
            }
            offsets.push(neighbors.len() as u32);
        }
        let positions = (0..n).map(|i| (i as f64, 0.0)).collect();
        Topology::from_csr(offsets, neighbors, Some(positions))
    }

    /// A `width × height` 4-connected grid (the paper's Figure 1 field is
    /// such a grid with the sink at a corner). Node `(x, y)` has id
    /// `y·width + x` and position `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn grid(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be positive");
        let edges = (width - 1) * height + width * (height - 1);
        let mut offsets = Vec::with_capacity(width * height + 1);
        let mut neighbors = Vec::with_capacity(2 * edges);
        offsets.push(0);
        let id = |x: usize, y: usize| NodeId((y * width + x) as u32);
        for y in 0..height {
            for x in 0..width {
                // Up, left, right, down: ascending ids.
                if y > 0 {
                    neighbors.push(id(x, y - 1));
                }
                if x > 0 {
                    neighbors.push(id(x - 1, y));
                }
                if x + 1 < width {
                    neighbors.push(id(x + 1, y));
                }
                if y + 1 < height {
                    neighbors.push(id(x, y + 1));
                }
                offsets.push(neighbors.len() as u32);
            }
        }
        let positions = (0..width * height)
            .map(|i| ((i % width) as f64, (i / width) as f64))
            .collect();
        Topology::from_csr(offsets, neighbors, Some(positions))
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` if the topology has no nodes (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of undirected edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Neighbors of `node`, in ascending id order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        &self.neighbors[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Planar position of `node`, if the topology carries positions.
    #[must_use]
    pub fn position(&self, node: NodeId) -> Option<(f64, f64)> {
        self.positions
            .as_ref()
            .and_then(|p| p.get(node.index()))
            .copied()
    }

    /// Attaches planar positions (one per node).
    ///
    /// # Panics
    ///
    /// Panics if the slice length does not match the node count.
    pub fn set_positions(&mut self, positions: Vec<(f64, f64)>) {
        assert_eq!(
            positions.len(),
            self.len(),
            "one position per node required"
        );
        self.positions = Some(positions);
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len() as u32).map(NodeId)
    }

    /// `true` if every node can reach every other node.
    ///
    /// A field of more than one node with an isolated node (an empty row)
    /// is rejected by one sequential pass over `offsets`, before any
    /// search: that is the usual way a sampled field near the
    /// connectivity threshold fails. Otherwise a depth-first search from
    /// node 0 must reach all `n` nodes.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        let n = self.len();
        if n > 1 && self.offsets.windows(2).any(|w| w[0] == w[1]) {
            return false;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(at) = stack.pop() {
            let row = self.offsets[at] as usize..self.offsets[at + 1] as usize;
            for nb in &self.neighbors[row] {
                if !seen[nb.index()] {
                    seen[nb.index()] = true;
                    count += 1;
                    stack.push(nb.index());
                }
            }
        }
        count == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_topology_shape() {
        let t = Topology::line(5);
        assert_eq!(t.len(), 5);
        assert_eq!(t.edge_count(), 4);
        assert_eq!(t.neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(t.neighbors(NodeId(2)), &[NodeId(1), NodeId(3)]);
        assert!(t.is_connected());
        assert_eq!(t.position(NodeId(3)), Some((3.0, 0.0)));
    }

    #[test]
    fn grid_topology_shape() {
        let t = Topology::grid(4, 3);
        assert_eq!(t.len(), 12);
        // Edges: horizontal 3*3=9, vertical 4*2=8.
        assert_eq!(t.edge_count(), 17);
        assert!(t.is_connected());
        // Interior node has 4 neighbors.
        assert_eq!(t.neighbors(NodeId(5)).len(), 4);
        // Corner has 2.
        assert_eq!(t.neighbors(NodeId(0)).len(), 2);
        assert_eq!(t.position(NodeId(6)), Some((2.0, 1.0)));
    }

    #[test]
    fn disconnected_graph_detected() {
        let t = Topology::from_edges(4, [(NodeId(0), NodeId(1)), (NodeId(2), NodeId(3))]);
        assert!(!t.is_connected());
    }

    /// Plain DFS from node 0 over the public rows, with no early-out.
    fn reference_connected(t: &Topology) -> bool {
        let mut seen = vec![false; t.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        while let Some(at) = stack.pop() {
            for &nb in t.neighbors(at) {
                if !std::mem::replace(&mut seen[nb.index()], true) {
                    stack.push(nb);
                }
            }
        }
        seen.iter().all(|&s| s)
    }

    #[test]
    fn is_connected_matches_reference_dfs() {
        let e = |a: u32, b: u32| (NodeId(a), NodeId(b));
        let cases = [
            ("one node", Topology::from_edges(1, []), true),
            ("two isolated nodes", Topology::from_edges(2, []), false),
            (
                "isolated sink",
                Topology::from_edges(4, [e(1, 2), e(2, 3)]),
                false,
            ),
            (
                "isolated non-sink",
                Topology::from_edges(4, [e(0, 1), e(1, 3)]),
                false,
            ),
            (
                "two components, no isolated node",
                Topology::from_edges(5, [e(0, 1), e(1, 2), e(3, 4)]),
                false,
            ),
            (
                "connected",
                Topology::from_edges(5, [e(0, 3), e(3, 1), e(1, 4), e(4, 2)]),
                true,
            ),
        ];
        for (name, t, want) in cases {
            assert_eq!(reference_connected(&t), want, "{name}: reference");
            assert_eq!(t.is_connected(), want, "{name}");
        }
    }

    #[test]
    fn nodes_iterator_covers_all() {
        let t = Topology::grid(2, 2);
        let ids: Vec<NodeId> = t.nodes().collect();
        assert_eq!(ids, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edge_rejected() {
        let _ = Topology::from_edges(2, [(NodeId(0), NodeId(1)), (NodeId(1), NodeId(0))]);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let _ = Topology::from_edges(2, [(NodeId(1), NodeId(1))]);
    }

    #[test]
    #[should_panic(expected = "one position per node")]
    fn wrong_position_count_rejected() {
        let mut t = Topology::from_edges(3, []);
        t.set_positions(vec![(0.0, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_rejected() {
        let _ = Topology::from_edges(2, [(NodeId(0), NodeId(2))]);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_topology_rejected() {
        let _ = Topology::from_edges(0, []);
    }

    #[test]
    fn from_edges_sorts_each_row() {
        let t = Topology::from_edges(
            4,
            [
                (NodeId(2), NodeId(0)),
                (NodeId(3), NodeId(1)),
                (NodeId(0), NodeId(1)),
                (NodeId(0), NodeId(3)),
            ],
        );
        assert_eq!(t.edge_count(), 4);
        assert_eq!(t.neighbors(NodeId(0)), &[NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(t.neighbors(NodeId(1)), &[NodeId(0), NodeId(3)]);
        assert_eq!(t.neighbors(NodeId(2)), &[NodeId(0)]);
        assert!(t.is_connected());
    }

    #[test]
    fn direct_builds_equal_their_edge_lists() {
        // line and grid fill their rows directly; they must equal the
        // sorted build of the same edges, positions aside.
        let n = 7;
        let mut line = Topology::line(n);
        line.positions = None;
        let path = (1..n as u32).map(|i| (NodeId(i), NodeId(i - 1)));
        assert_eq!(line, Topology::from_edges(n, path));

        let (w, h) = (5, 3);
        let mut grid = Topology::grid(w, h);
        grid.positions = None;
        let id = |x: usize, y: usize| NodeId((y * w + x) as u32);
        let mut edges = Vec::new();
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    edges.push((id(x + 1, y), id(x, y)));
                }
                if y + 1 < h {
                    edges.push((id(x, y), id(x, y + 1)));
                }
            }
        }
        edges.reverse();
        assert_eq!(grid, Topology::from_edges(w * h, edges));
    }
}
