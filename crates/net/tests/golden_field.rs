//! Golden fingerprints of sampled geometric fields.
//!
//! The constants were recorded from the `Vec<Vec<NodeId>>` adjacency
//! sampler, before the topology moved to compressed sparse rows. Any
//! change to the sampler, the position draws or the neighbour order
//! shows up here as a different attempt count or hash.

use tempriv_net::geometric::GeometricDeployment;
use tempriv_net::topology::Topology;
use tempriv_sim::rng::RngFactory;

/// The scale bench's geometry seed and stream.
const SEED: u64 = 4242;
const STREAM: u64 = 0x5CA1E;

/// FNV-1a over every node's degree, neighbour ids and position bits.
fn fingerprint(topo: &Topology) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for node in topo.nodes() {
        let nbrs = topo.neighbors(node);
        eat(&(nbrs.len() as u32).to_le_bytes());
        for nb in nbrs {
            eat(&nb.0.to_le_bytes());
        }
        let (x, y) = topo.position(node).expect("sampled fields carry positions");
        eat(&x.to_bits().to_le_bytes());
        eat(&y.to_bits().to_le_bytes());
    }
    h
}

/// The scale bench's constant-density field: side √n, range 2.
fn field(nodes: usize) -> (Topology, usize) {
    let side = (nodes as f64).sqrt().max(3.0);
    let deploy = GeometricDeployment::new(side, side, nodes, 2.0);
    let mut rng = RngFactory::new(SEED).stream(STREAM);
    deploy
        .sample_connected(&mut rng, 64)
        .expect("the pinned geometry connects")
}

#[test]
fn two_thousand_node_field_is_pinned() {
    let (topo, attempts) = field(2_000);
    assert_eq!(attempts, 2);
    assert_eq!(topo.edge_count(), 12_025);
    assert_eq!(fingerprint(&topo), 0x9f32_001d_bce8_6fac);
}

#[test]
fn ten_thousand_node_field_is_pinned() {
    let (topo, attempts) = field(10_000);
    assert_eq!(attempts, 1);
    assert_eq!(topo.edge_count(), 61_667);
    assert_eq!(fingerprint(&topo), 0x5998_6d4e_8ed7_2373);
}
