//! # ffc-topo — synthetic topologies and workloads for the FFC
//! reproduction
//!
//! The paper evaluates on proprietary networks (L-Net, a commercial WAN;
//! S-Net, B4's site map) and a hardware testbed. This crate builds
//! statistically matching substitutes (see DESIGN.md §2):
//!
//! * [`mod@lnet`] — seeded generator for L-Net-like WANs (50 sites / 100
//!   switches / ~1000 links at full scale; a smaller default keeps the
//!   from-scratch LP solver's runtimes sane).
//! * [`mod@snet`] — B4's 12-site topology per the paper's §8.1 recipe.
//! * [`mod@testbed`] — the §7 8-site, 1 Gbps testbed with geo delays and the
//!   exact Figure 10 traffic spreads.
//! * [`toy`] — Figures 2–5 scenarios.
//! * [`traffic`] — gravity-model demand traces with priority splits.
//! * [`calibrate`] — the "99% of demand satisfied" utilization
//!   calibration defining traffic scale 1.
//! * [`mod@reference`] — public research topologies (Abilene) for
//!   experiments beyond the paper's networks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod lnet;
pub mod reference;
pub mod rng;
pub mod sites;
pub mod snet;
pub mod testbed;
pub mod toy;
pub mod traffic;

pub use calibrate::{calibrate_scale, satisfied_fraction};
pub use lnet::{lnet, LNetConfig};
pub use reference::abilene;
pub use sites::SiteNetwork;
pub use snet::snet;
pub use testbed::{testbed, Testbed, TestbedExperiment};
pub use traffic::{
    gravity_matrices, gravity_trace, gravity_trace_single_priority, TrafficConfig, TrafficTrace,
};
