//! # ffc-sim — fault-injection simulator for FFC traffic engineering
//!
//! Simulates the paper's data-driven evaluation (§7–§8): TE intervals,
//! switch update latencies and failures ([`switch_model`]), Poisson
//! link/switch failures ([`faults`]), blackhole + congestion loss with
//! priority queueing ([`loss`]), the end-to-end interval loop
//! ([`runner`]), multi-step update execution ([`update_exec`]), and the
//! testbed event timelines of Figure 11 ([`events`]).
//!
//! ```
//! use ffc_sim::{FaultModel, Protection, SimConfig, Simulator, SwitchModel};
//! use ffc_net::prelude::*;
//!
//! // A triangle carrying one flow, simulated for two intervals.
//! let mut topo = Topology::new();
//! let (a, b, c) = (topo.add_node("a"), topo.add_node("b"), topo.add_node("c"));
//! topo.add_bidi(a, c, 10.0);
//! topo.add_bidi(a, b, 10.0);
//! topo.add_bidi(b, c, 10.0);
//! let mut tm = TrafficMatrix::new();
//! tm.add_flow(a, c, 6.0, Priority::High);
//! let tunnels = layout_tunnels(&topo, &tm, &LayoutConfig::default());
//!
//! let mut cfg = SimConfig::new(SwitchModel::Optimistic, Protection::None);
//! cfg.fault_model = FaultModel::none();
//! let report = Simulator::new(&topo, &tunnels, cfg).run(&[tm.clone(), tm.clone()]);
//! assert!(report.totals.total_lost() < 1e-9); // no faults, no loss
//! assert!(report.totals.total_delivered() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod faults;
pub mod loss;
pub mod metrics;
pub mod runner;
pub mod switch_model;
pub mod update_exec;

pub use faults::{FaultModel, FaultProcess, IntervalFaults};
pub use metrics::{percentile, percentile_sorted, sort_samples, Cdf, RunTotals};
pub use runner::{
    DrivenInterval, DrivenSim, IntervalRecord, Protection, SimConfig, SimReport, Simulator,
};
pub use switch_model::{SwitchModel, UpdateOutcome};
pub use update_exec::{simulate_update, update_time_samples, UpdateExecConfig};
