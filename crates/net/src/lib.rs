//! # ffc-net — network model for FFC traffic engineering
//!
//! Substrate crate for the FFC (SIGCOMM'14) reproduction: topologies of
//! switches and directed capacitated links, ingress→egress flows with
//! priorities, tunnels with `(p, q)` link-switch disjoint layout, graph
//! algorithms (Dijkstra, reachability), and fault scenarios.
//!
//! ```
//! use ffc_net::prelude::*;
//!
//! let mut topo = Topology::new();
//! let a = topo.add_node("a");
//! let b = topo.add_node("b");
//! let c = topo.add_node("c");
//! topo.add_bidi(a, b, 10.0);
//! topo.add_bidi(b, c, 10.0);
//! topo.add_bidi(a, c, 10.0);
//!
//! let mut tm = TrafficMatrix::new();
//! tm.add_flow(a, c, 5.0, Priority::High);
//!
//! let tunnels = layout_tunnels(&topo, &tm, &LayoutConfig::default());
//! assert_eq!(tunnels.tunnels(FlowId(0)).len(), 2); // direct + via b
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod failure;
pub mod flow;
pub mod graph;
pub mod layout;
pub mod topology;
pub mod tunnel;

pub use failure::FaultScenario;
pub use flow::{Flow, FlowId, Priority, TrafficMatrix};
pub use graph::Path;
pub use layout::{layout_flow_tunnels, layout_tunnels, LayoutConfig};
pub use topology::{Link, LinkId, NodeId, Topology};
pub use tunnel::{disjointness, residual_tunnel_bound, Disjointness, Tunnel, TunnelTable};

/// Convenient glob import of the main types.
pub mod prelude {
    pub use crate::failure::FaultScenario;
    pub use crate::flow::{Flow, FlowId, Priority, TrafficMatrix};
    pub use crate::graph::Path;
    pub use crate::layout::{layout_flow_tunnels, layout_tunnels, LayoutConfig};
    pub use crate::topology::{Link, LinkId, NodeId, Topology};
    pub use crate::tunnel::{
        disjointness, residual_tunnel_bound, Disjointness, Tunnel, TunnelTable,
    };
}
