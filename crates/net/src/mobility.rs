//! Mobile-asset model for habitat-monitoring workloads.
//!
//! The paper motivates temporal privacy with asset tracking: an animal
//! moves through a sensed field, nearby sensors report it, and an
//! adversary correlating report *times* with sensor *positions* can
//! reconstruct the trajectory. This module provides the synthetic
//! equivalent: a random-waypoint asset over a planar field plus the
//! detection events it triggers in a positioned [`Topology`].

use serde::{Deserialize, Serialize};
use tempriv_sim::rng::SimRng;
use tempriv_sim::time::SimTime;

use crate::ids::NodeId;
use crate::topology::Topology;

/// A random-waypoint mobility model on the rectangle `[0,w] × [0,h]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RandomWaypoint {
    width: f64,
    height: f64,
    speed: f64,
}

impl RandomWaypoint {
    /// Creates a model over a `width × height` field with the given
    /// constant movement speed (distance per time unit).
    ///
    /// # Panics
    ///
    /// Panics if any argument is non-positive or not finite.
    #[must_use]
    pub fn new(width: f64, height: f64, speed: f64) -> Self {
        for (name, v) in [("width", width), ("height", height), ("speed", speed)] {
            assert!(v.is_finite() && v > 0.0, "{name} must be positive, got {v}");
        }
        RandomWaypoint {
            width,
            height,
            speed,
        }
    }

    /// Generates a trajectory sampled every `sample_interval` time units
    /// for `samples` steps, starting at the field center at time 0.
    ///
    /// # Panics
    ///
    /// Panics if `sample_interval` is non-positive or `samples == 0`.
    #[must_use]
    pub fn trajectory(
        &self,
        samples: usize,
        sample_interval: f64,
        rng: &mut SimRng,
    ) -> Vec<TrackPoint> {
        assert!(samples > 0, "need at least one sample");
        assert!(
            sample_interval.is_finite() && sample_interval > 0.0,
            "sample interval must be positive, got {sample_interval}"
        );
        let mut pos = (self.width / 2.0, self.height / 2.0);
        let mut goal = self.random_point(rng);
        let mut out = Vec::with_capacity(samples);
        for i in 0..samples {
            let t = SimTime::from_units(i as f64 * sample_interval);
            out.push(TrackPoint {
                time: t,
                x: pos.0,
                y: pos.1,
            });
            // Advance toward the goal; pick a new goal on arrival.
            let mut travel = self.speed * sample_interval;
            while travel > 0.0 {
                let (dx, dy) = (goal.0 - pos.0, goal.1 - pos.1);
                let dist = (dx * dx + dy * dy).sqrt();
                if dist <= travel {
                    pos = goal;
                    travel -= dist;
                    goal = self.random_point(rng);
                } else {
                    pos = (pos.0 + dx / dist * travel, pos.1 + dy / dist * travel);
                    travel = 0.0;
                }
            }
        }
        out
    }

    fn random_point(&self, rng: &mut SimRng) -> (f64, f64) {
        (
            rng.sample_uniform(0.0, self.width),
            rng.sample_uniform(0.0, self.height),
        )
    }
}

/// One sampled position on an asset's track.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrackPoint {
    /// Sample instant.
    pub time: SimTime,
    /// X coordinate.
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
}

/// A sensing event: `node` observed the asset at `time`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Detection {
    /// The detecting sensor.
    pub node: NodeId,
    /// When the observation (packet creation) happened.
    pub time: SimTime,
}

/// Maps an asset track to detection events: at each track sample, the
/// nearest positioned sensor within `sensing_range` fires (at most one
/// detection per sample, modelling local leader election among the
/// sensors that hear the same animal).
///
/// # Panics
///
/// Panics if the topology has no positions or `sensing_range` is
/// non-positive or not finite.
#[must_use]
pub fn detections(topology: &Topology, track: &[TrackPoint], sensing_range: f64) -> Vec<Detection> {
    assert!(
        sensing_range.is_finite() && sensing_range > 0.0,
        "sensing range must be positive, got {sensing_range}"
    );
    let mut out = Vec::new();
    for point in track {
        let mut best: Option<(NodeId, f64)> = None;
        for node in topology.nodes() {
            let Some((nx, ny)) = topology.position(node) else {
                panic!("detections requires a positioned topology");
            };
            let d2 = (nx - point.x).powi(2) + (ny - point.y).powi(2);
            if d2 <= sensing_range * sensing_range && best.is_none_or(|(_, bd2)| d2 < bd2) {
                best = Some((node, d2));
            }
        }
        if let Some((node, _)) = best {
            out.push(Detection {
                node,
                time: point.time,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempriv_sim::rng::RngFactory;

    #[test]
    fn trajectory_stays_in_field() {
        let model = RandomWaypoint::new(10.0, 8.0, 1.5);
        let mut rng = RngFactory::new(3).stream(0);
        let track = model.trajectory(500, 1.0, &mut rng);
        assert_eq!(track.len(), 500);
        for p in &track {
            assert!((0.0..=10.0).contains(&p.x), "x = {}", p.x);
            assert!((0.0..=8.0).contains(&p.y), "y = {}", p.y);
        }
    }

    #[test]
    fn trajectory_respects_speed() {
        let model = RandomWaypoint::new(100.0, 100.0, 2.0);
        let mut rng = RngFactory::new(4).stream(0);
        let track = model.trajectory(200, 0.5, &mut rng);
        for w in track.windows(2) {
            let d = ((w[1].x - w[0].x).powi(2) + (w[1].y - w[0].y).powi(2)).sqrt();
            assert!(d <= 2.0 * 0.5 + 1e-9, "moved {d} in half a unit");
        }
    }

    #[test]
    fn trajectory_is_deterministic_per_seed() {
        let model = RandomWaypoint::new(10.0, 10.0, 1.0);
        let a = model.trajectory(50, 1.0, &mut RngFactory::new(5).stream(0));
        let b = model.trajectory(50, 1.0, &mut RngFactory::new(5).stream(0));
        assert_eq!(a, b);
    }

    #[test]
    fn detections_pick_nearest_in_range() {
        let topo = Topology::grid(3, 3); // positions (0..2, 0..2)
        let track = vec![
            TrackPoint {
                time: SimTime::from_units(0.0),
                x: 0.1,
                y: 0.1,
            },
            TrackPoint {
                time: SimTime::from_units(1.0),
                x: 1.9,
                y: 1.9,
            },
            TrackPoint {
                time: SimTime::from_units(2.0),
                x: -50.0,
                y: -50.0, // out of everyone's range
            },
        ];
        let dets = detections(&topo, &track, 1.0);
        assert_eq!(dets.len(), 2);
        assert_eq!(dets[0].node, NodeId(0)); // (0,0)
        assert_eq!(dets[1].node, NodeId(8)); // (2,2)
    }

    #[test]
    fn moving_asset_triggers_multiple_sensors() {
        let topo = Topology::grid(6, 6);
        let model = RandomWaypoint::new(5.0, 5.0, 1.0);
        let mut rng = RngFactory::new(6).stream(0);
        let track = model.trajectory(300, 1.0, &mut rng);
        let dets = detections(&topo, &track, 1.0);
        let distinct: std::collections::HashSet<NodeId> = dets.iter().map(|d| d.node).collect();
        assert!(
            distinct.len() > 5,
            "asset should cross several cells, saw {}",
            distinct.len()
        );
    }

    #[test]
    #[should_panic(expected = "positioned topology")]
    fn unpositioned_topology_rejected() {
        let topo = Topology::from_edges(2, []);
        let track = vec![TrackPoint {
            time: SimTime::ZERO,
            x: 0.0,
            y: 0.0,
        }];
        let _ = detections(&topo, &track, 1.0);
    }
}
