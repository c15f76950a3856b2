//! Random geometric (unit-disk) deployments.
//!
//! Real sensor fields are not grids: nodes land where they are dropped
//! and can talk to every neighbor within radio range. A random geometric
//! graph — uniform positions on a rectangle, edges between nodes closer
//! than `range` — is the standard abstraction, and the paper's Figure 1
//! field is visually one. Used by examples and generalization tests; the
//! headline experiments keep the calibrated convergecast layout.

use tempriv_sim::rng::SimRng;

use crate::ids::NodeId;
use crate::topology::Topology;

/// Parameters of a random geometric deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeometricDeployment {
    /// Field width.
    pub width: f64,
    /// Field height.
    pub height: f64,
    /// Number of sensors.
    pub nodes: usize,
    /// Radio range (edge iff distance ≤ range).
    pub range: f64,
}

impl GeometricDeployment {
    /// Creates a deployment spec.
    ///
    /// # Panics
    ///
    /// Panics if a dimension or the range is non-positive/not finite, or
    /// `nodes == 0`.
    #[must_use]
    pub fn new(width: f64, height: f64, nodes: usize, range: f64) -> Self {
        for (name, v) in [("width", width), ("height", height), ("range", range)] {
            assert!(v.is_finite() && v > 0.0, "{name} must be positive, got {v}");
        }
        assert!(nodes > 0, "need at least one node");
        GeometricDeployment {
            width,
            height,
            nodes,
            range,
        }
    }

    /// Samples a topology. Node 0 is pinned to the field corner (0, 0) —
    /// the conventional sink placement — and the rest land uniformly.
    ///
    /// The CSR adjacency is built directly, with no per-node or per-cell
    /// `Vec`. Nodes are counting-sorted into grid cells of side `range`
    /// (one `start` offsets array and one `members` array). Two scans then
    /// walk the nodes cell by cell and test the 3×3 block of cells around
    /// each: the first counts every row, so `offsets` is exact and
    /// `neighbors` is allocated once at its final size; the second writes
    /// each row in place and sorts it. This is `O(n · density)` instead of
    /// `O(n²)`, so million-node fields sample in seconds. The result is
    /// byte-identical to the all-pairs scan: the same position draws and
    /// the same ascending neighbour rows.
    ///
    /// The result may be disconnected (routing will report unreachable
    /// nodes); see [`GeometricDeployment::sample_connected`].
    #[must_use]
    pub fn sample(&self, rng: &mut SimRng) -> Topology {
        let positions = self.sample_positions(rng);
        let grid = CellGrid::new(self, &positions);
        let mut offsets = vec![0u32; self.nodes + 1];
        grid.scan(|i, near| offsets[i + 1] = near.len() as u32);
        for i in 0..self.nodes {
            offsets[i + 1] = offsets[i]
                .checked_add(offsets[i + 1])
                .expect("fewer than 2³² adjacencies");
        }
        let mut neighbors = vec![NodeId(0); offsets[self.nodes] as usize];
        grid.scan(|i, near| {
            let row = &mut neighbors[offsets[i] as usize..offsets[i + 1] as usize];
            for (slot, &j) in row.iter_mut().zip(near) {
                *slot = NodeId(j);
            }
            // `near` comes in cell order, not id order.
            row.sort_unstable();
        });
        Topology::from_csr(offsets, neighbors, Some(positions))
    }

    /// Draws the node positions: sink pinned at the corner, the rest
    /// uniform. Two draws per non-sink node, in node order.
    fn sample_positions(&self, rng: &mut SimRng) -> Vec<(f64, f64)> {
        let mut positions = Vec::with_capacity(self.nodes);
        positions.push((0.0, 0.0));
        for _ in 1..self.nodes {
            positions.push((
                rng.sample_uniform(0.0, self.width),
                rng.sample_uniform(0.0, self.height),
            ));
        }
        positions
    }

    /// The all-pairs reference sampler the grid version must match
    /// byte-for-byte; kept as the oracle for the equivalence test.
    #[cfg(test)]
    fn sample_all_pairs(&self, rng: &mut SimRng) -> Topology {
        let positions = self.sample_positions(rng);
        let mut edges = Vec::new();
        for i in 0..self.nodes {
            for j in (i + 1)..self.nodes {
                let (xi, yi) = positions[i];
                let (xj, yj) = positions[j];
                let d2 = (xi - xj).powi(2) + (yi - yj).powi(2);
                if d2 <= self.range * self.range {
                    edges.push((NodeId(i as u32), NodeId(j as u32)));
                }
            }
        }
        let mut topo = Topology::from_edges(self.nodes, edges);
        topo.set_positions(positions);
        topo
    }

    /// Samples until a connected topology appears, up to `attempts`
    /// resamples. Returns the topology and the 1-based attempt that
    /// produced it.
    ///
    /// # Errors
    ///
    /// Returns the number of attempts made if none were connected (raise
    /// the density or range).
    pub fn sample_connected(
        &self,
        rng: &mut SimRng,
        attempts: usize,
    ) -> Result<(Topology, usize), usize> {
        (1..=attempts)
            .map(|attempt| (self.sample(rng), attempt))
            .find(|(topo, _)| topo.is_connected())
            .ok_or(attempts)
    }
}

/// Nodes counting-sorted into square cells of side `range`: cell `c`
/// holds `members[start[c]..start[c + 1]]`, ascending by id. Each member
/// carries its position, so scanning a block of cells reads contiguous
/// memory.
struct CellGrid {
    nx: usize,
    ny: usize,
    range: f64,
    start: Vec<u32>,
    members: Vec<(u32, f64, f64)>,
}

impl CellGrid {
    fn new(spec: &GeometricDeployment, positions: &[(f64, f64)]) -> Self {
        let nx = ((spec.width / spec.range).ceil() as usize).max(1);
        let ny = ((spec.height / spec.range).ceil() as usize).max(1);
        let mut grid = CellGrid {
            nx,
            ny,
            range: spec.range,
            start: vec![0; nx * ny + 1],
            members: vec![(0, 0.0, 0.0); positions.len()],
        };
        for &p in positions {
            let (cx, cy) = grid.cell(p);
            grid.start[cy * nx + cx + 1] += 1;
        }
        for c in 0..nx * ny {
            grid.start[c + 1] += grid.start[c];
        }
        let mut cursor = grid.start[..nx * ny].to_vec();
        for (i, &(x, y)) in positions.iter().enumerate() {
            // Placing in id order keeps every cell ascending.
            let (cx, cy) = grid.cell((x, y));
            let slot = &mut cursor[cy * nx + cx];
            grid.members[*slot as usize] = (i as u32, x, y);
            *slot += 1;
        }
        grid
    }

    /// The cell `(cx, cy)` holding position `(x, y)`.
    fn cell(&self, (x, y): (f64, f64)) -> (usize, usize) {
        let cx = ((x / self.range) as usize).min(self.nx - 1);
        let cy = ((y / self.range) as usize).min(self.ny - 1);
        (cx, cy)
    }

    /// Calls `visit(i, near)` for every node `i`, cell by cell, where
    /// `near` lists every node `j ≠ i` within range of `i`. Only the 3×3
    /// block of cells around `i` can hold one, and consecutive nodes
    /// share their block.
    fn scan(&self, mut visit: impl FnMut(usize, &[u32])) {
        let r2 = self.range * self.range;
        let mut near: Vec<u32> = Vec::new();
        for cy in 0..self.ny {
            let rows = cy.saturating_sub(1)..=(cy + 1).min(self.ny - 1);
            for cx in 0..self.nx {
                let (x0, x1) = (cx.saturating_sub(1), (cx + 1).min(self.nx - 1));
                // A block row's cells are adjacent, so their members are
                // one slice.
                let blocks = rows.clone().map(|dy| {
                    &self.members[self.start[dy * self.nx + x0] as usize
                        ..self.start[dy * self.nx + x1 + 1] as usize]
                });
                near.resize(blocks.clone().map(<[_]>::len).sum(), 0);
                let c = cy * self.nx + cx;
                for &(i, xi, yi) in
                    &self.members[self.start[c] as usize..self.start[c + 1] as usize]
                {
                    // Branch-free: write every candidate, keep the hits.
                    let mut hits = 0;
                    for &(j, xj, yj) in blocks.clone().flatten() {
                        near[hits] = j;
                        hits += usize::from(j != i && (xi - xj).powi(2) + (yi - yj).powi(2) <= r2);
                    }
                    visit(i as usize, &near[..hits]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempriv_sim::rng::RngFactory;

    fn rng() -> SimRng {
        RngFactory::new(2024).stream(0)
    }

    #[test]
    fn sample_respects_node_count_and_positions() {
        let spec = GeometricDeployment::new(10.0, 10.0, 40, 3.0);
        let topo = spec.sample(&mut rng());
        assert_eq!(topo.len(), 40);
        assert_eq!(topo.position(NodeId(0)), Some((0.0, 0.0)));
        for node in topo.nodes() {
            let (x, y) = topo.position(node).unwrap();
            assert!((0.0..=10.0).contains(&x) && (0.0..=10.0).contains(&y));
        }
    }

    #[test]
    fn edges_respect_range() {
        let spec = GeometricDeployment::new(10.0, 10.0, 30, 2.5);
        let topo = spec.sample(&mut rng());
        for a in topo.nodes() {
            let (xa, ya) = topo.position(a).unwrap();
            for &b in topo.neighbors(a) {
                let (xb, yb) = topo.position(b).unwrap();
                let d = ((xa - xb).powi(2) + (ya - yb).powi(2)).sqrt();
                assert!(d <= 2.5 + 1e-9, "edge {a}-{b} spans {d}");
            }
        }
    }

    #[test]
    fn dense_fields_connect() {
        let spec = GeometricDeployment::new(8.0, 8.0, 60, 3.0);
        let (topo, _) = spec
            .sample_connected(&mut rng(), 20)
            .expect("dense field should connect quickly");
        assert!(topo.is_connected());
    }

    #[test]
    fn sparse_fields_report_failure() {
        let spec = GeometricDeployment::new(100.0, 100.0, 10, 1.0);
        let err = spec.sample_connected(&mut rng(), 5).unwrap_err();
        assert_eq!(err, 5);
    }

    #[test]
    fn sampling_is_deterministic_per_stream() {
        let spec = GeometricDeployment::new(10.0, 10.0, 25, 3.0);
        let a = spec.sample(&mut RngFactory::new(5).stream(1));
        let b = spec.sample(&mut RngFactory::new(5).stream(1));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = GeometricDeployment::new(1.0, 1.0, 0, 1.0);
    }

    #[test]
    fn grid_sampler_matches_all_pairs_reference() {
        // A single node, range > side (one cell), a 40×5 strip, a sparse
        // field that never connects, and two ordinary fields; each over
        // several seeds.
        let specs = [
            GeometricDeployment::new(5.0, 5.0, 1, 1.0),
            GeometricDeployment::new(3.0, 3.0, 50, 4.0),
            GeometricDeployment::new(40.0, 5.0, 300, 1.5),
            GeometricDeployment::new(100.0, 100.0, 60, 3.0),
            GeometricDeployment::new(10.0, 10.0, 200, 2.0),
            GeometricDeployment::new(22.3, 22.3, 500, 2.0),
        ];
        let mut disconnected = 0;
        for (k, spec) in specs.iter().enumerate() {
            for seed in [99, 7, 4242] {
                let stream = || RngFactory::new(seed).stream(k as u64);
                let grid = spec.sample(&mut stream());
                let naive = spec.sample_all_pairs(&mut stream());
                assert_eq!(grid, naive, "spec {k}, seed {seed}: grid sampler diverged");
                disconnected += usize::from(!grid.is_connected());
            }
        }
        assert!(disconnected >= 3, "the sparse field must stay disconnected");
    }
}
