//! Property-based tests for the network substrate.

use proptest::prelude::*;
use tempriv_net::convergecast::Convergecast;
use tempriv_net::ids::{FlowId, NodeId};
use tempriv_net::routing::RoutingTree;
use tempriv_net::topology::Topology;
use tempriv_net::traffic::TrafficModel;
use tempriv_sim::rng::RngFactory;
use tempriv_sim::time::SimTime;

proptest! {
    /// BFS routing on any grid yields Manhattan hop counts and paths that
    /// shrink by exactly one hop per step.
    #[test]
    fn grid_routing_is_min_hop(w in 1usize..10, h in 1usize..10, sx in 0usize..10, sy in 0usize..10) {
        let sx = sx.min(w - 1);
        let sy = sy.min(h - 1);
        let topo = Topology::grid(w, h);
        let sink = NodeId((sy * w + sx) as u32);
        let tree = RoutingTree::shortest_path(&topo, sink).unwrap();
        for y in 0..h {
            for x in 0..w {
                let node = NodeId((y * w + x) as u32);
                let manhattan = (x.abs_diff(sx) + y.abs_diff(sy)) as u32;
                prop_assert_eq!(tree.hops(node), Some(manhattan));
                let path = tree.path(node);
                prop_assert_eq!(path.len() as u32, manhattan + 1);
                for pair in path.windows(2) {
                    prop_assert_eq!(
                        tree.hops(pair[0]).unwrap(),
                        tree.hops(pair[1]).unwrap() + 1
                    );
                }
            }
        }
    }

    /// Convergecast layouts honor every requested hop count and share
    /// exactly the trunk.
    #[test]
    fn convergecast_respects_spec(
        trunk in 0u32..12,
        extra in prop::collection::vec(1u32..20, 1..6),
    ) {
        let flows: Vec<u32> = extra.iter().map(|e| trunk + e).collect();
        let layout = Convergecast::builder()
            .trunk_hops(trunk)
            .flows(flows.iter().copied())
            .build()
            .unwrap();
        for (i, &h) in flows.iter().enumerate() {
            let flow = FlowId(i as u32);
            prop_assert_eq!(layout.hop_count(flow), h);
            prop_assert_eq!(layout.routing().hops(layout.sources()[flow.index()]), Some(h));
        }
        // Every trunk node carries all flows.
        let counts = layout.routing().flows_per_node(layout.sources());
        for &c in &counts[1..=trunk as usize] {
            prop_assert_eq!(c as usize, flows.len());
        }
        // Node count: sink + trunk + sum of private chains.
        let expected = 1 + trunk + flows.iter().map(|&h| h - trunk).sum::<u32>();
        prop_assert_eq!(layout.len() as u32, expected);
    }

    /// In any random routing tree, per-node flow counts are
    /// non-decreasing along every source-to-sink path (traffic only
    /// accumulates) and the sink carries every flow.
    #[test]
    fn tree_aggregation_monotone_along_paths(
        parent_choices in prop::collection::vec(any::<usize>(), 0..40),
        source_choices in prop::collection::vec(any::<usize>(), 0..12),
    ) {
        // Node i > 0 hangs off some earlier node, so the pointers always
        // form a tree rooted at the sink n0.
        let parents: Vec<Option<NodeId>> = std::iter::once(None)
            .chain(
                parent_choices
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| Some(NodeId((c % (i + 1)) as u32))),
            )
            .collect();
        let n = parents.len();
        let tree = RoutingTree::from_parents(NodeId(0), parents).unwrap();
        let sources: Vec<NodeId> = source_choices
            .iter()
            .map(|&c| NodeId((c % n) as u32))
            .collect();
        let counts = tree.flows_per_node(&sources);
        prop_assert_eq!(counts.len(), n);
        for &src in &sources {
            let path = tree.path(src);
            prop_assert!(counts[src.index()] >= 1);
            for hop in path.windows(2) {
                prop_assert!(counts[hop[1].index()] >= counts[hop[0].index()]);
            }
        }
        prop_assert_eq!(counts[tree.sink().index()] as usize, sources.len());
    }

    /// Every traffic model produces positive gaps with the right mean.
    #[test]
    fn traffic_gaps_positive_with_correct_mean(interval in 0.1f64..50.0, seed in any::<u64>()) {
        let models = [
            TrafficModel::periodic(interval),
            TrafficModel::periodic_jitter(interval, 0.3),
            TrafficModel::poisson(1.0 / interval),
        ];
        for model in models {
            let mut rng = RngFactory::new(seed).stream(0);
            let n = 2_000;
            let mut total = 0.0;
            for _ in 0..n {
                let gap = model.next_interarrival(&mut rng).as_units();
                prop_assert!(gap >= 0.0);
                total += gap;
            }
            let mean = total / n as f64;
            prop_assert!(
                (mean - interval).abs() < 0.1 * interval,
                "{model:?}: mean {mean} vs {interval}"
            );
        }
    }

    /// Schedules are sorted and strictly positive-length for periodic
    /// and Poisson models.
    #[test]
    fn schedules_are_ordered(interval in 0.1f64..20.0, count in 1usize..200, seed in any::<u64>()) {
        let model = TrafficModel::poisson(1.0 / interval);
        let mut rng = RngFactory::new(seed).stream(1);
        let times = model.schedule(SimTime::ZERO, count, &mut rng);
        prop_assert_eq!(times.len(), count);
        for w in times.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        prop_assert!(times[0] > SimTime::ZERO);
    }

    /// Random connected topologies route everything: add a spanning path
    /// plus arbitrary chords, then check every node reaches the sink.
    #[test]
    fn chorded_path_topologies_fully_route(
        n in 2usize..40,
        chords in prop::collection::vec((0usize..40, 0usize..40), 0..30),
    ) {
        let mut edges: Vec<(NodeId, NodeId)> =
            (1..n as u32).map(|i| (NodeId(i - 1), NodeId(i))).collect();
        for &(a, b) in &chords {
            let a = a % n;
            let b = b % n;
            let (lo, hi) = (a.min(b) as u32, a.max(b) as u32);
            // Skip self-loops, line edges and duplicate chords.
            if hi - lo > 1 && !edges.contains(&(NodeId(lo), NodeId(hi))) {
                edges.push((NodeId(lo), NodeId(hi)));
            }
        }
        let topo = Topology::from_edges(n, edges);
        let tree = RoutingTree::shortest_path(&topo, NodeId(0)).unwrap();
        for node in topo.nodes() {
            let hops = tree.hops(node).unwrap();
            prop_assert!(hops as usize <= n);
            prop_assert_eq!(tree.path(node).len() as u32, hops + 1);
        }
    }
}
