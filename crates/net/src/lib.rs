//! # tempriv-net — wireless sensor network substrate
//!
//! The network model of *Temporal Privacy in Wireless Sensor Networks*
//! (ICDCS 2007), built from scratch:
//!
//! * [`topology`] — deployment graphs (line, grid, explicit),
//! * [`geometric`] — random unit-disk deployments,
//! * [`routing`] — min-hop convergecast routing trees (BFS) and the
//!   flows through each node that set its §4 load,
//! * [`convergecast`] — the paper's Figure 1 evaluation layout: flows with
//!   hop counts 15/22/9/11 merging on a shared trunk into the sink,
//! * [`traffic`] — periodic (the §5 evaluation workload), jittered, and
//!   Poisson (the §3–§4 analysis workload) sources,
//! * [`link`] — the constant-delay PHY/MAC abstraction (τ = 1),
//! * [`energy`] — per-packet radio energy costs (Mica-2-like),
//! * [`mobility`] — random-waypoint assets and the detections they trigger
//!   (the habitat-monitoring motivating scenario),
//! * [`ids`] — identifier newtypes.
//!
//! # Examples
//!
//! ```
//! use tempriv_net::convergecast::Convergecast;
//! use tempriv_net::traffic::TrafficModel;
//!
//! let layout = Convergecast::paper_figure1();
//! let s1 = layout.sources()[0];
//! assert_eq!(layout.routing().hops(s1), Some(15));
//!
//! let workload = TrafficModel::periodic(2.0); // the paper's fastest rate
//! assert_eq!(workload.mean_rate(), 0.5);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod convergecast;
pub mod energy;
pub mod geometric;
pub mod ids;
pub mod link;
pub mod mobility;
pub mod routing;
pub mod topology;
pub mod traffic;

pub use convergecast::{Convergecast, ConvergecastBuilder, LayoutError};
pub use energy::EnergyModel;
pub use geometric::GeometricDeployment;
pub use ids::{FlowId, NodeId, PacketId};
pub use link::LinkModel;
pub use routing::{RoutingError, RoutingTree};
pub use topology::Topology;
pub use traffic::TrafficModel;
