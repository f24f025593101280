//! # ffc-core — Forward Fault Correction traffic engineering
//!
//! Reproduction of **"Traffic Engineering with Forward Fault
//! Correction"** (Liu, Kandula, Mahajan, Zhang, Gelernter — SIGCOMM
//! 2014). FFC computes TE configurations that stay congestion-free under
//! any combination of up to `k` faults — without any controller
//! reaction.
//!
//! ## Map from paper to modules
//!
//! | paper | module |
//! |---|---|
//! | §4.1 basic TE (Eqns 1–4) | [`te`] |
//! | §4.2 control-plane FFC (Eqns 5–8, 13–14) | [`control_ffc`] |
//! | §4.3 data-plane FFC (Eqns 9, 15) + Lemma 1 | [`data_ffc`], [`rescale`] |
//! | §4.4 bounded M-sum + sorting networks (Algs 1–2) | [`bounded_msum`], [`sorting_network`] |
//! | §4.5 combined protection | [`combined`] |
//! | §5.1 traffic priorities | [`priority`] |
//! | §5.2 congestion-free updates | [`update`] |
//! | §4.2/§8.2 enumeration strawman | [`enumerate`] |
//! | §3.3 capacity-planning use case (extension, ours) | [`capacity_planning`] |
//!
//! ## Quick start
//!
//! ```
//! use ffc_core::{solve_ffc, FfcConfig, TeConfig, TeProblem};
//! use ffc_net::prelude::*;
//!
//! // A triangle with one flow and two disjoint tunnels.
//! let mut topo = Topology::new();
//! let a = topo.add_node("a");
//! let b = topo.add_node("b");
//! let c = topo.add_node("c");
//! topo.add_bidi(a, c, 10.0);
//! topo.add_bidi(a, b, 10.0);
//! topo.add_bidi(b, c, 10.0);
//! let mut tm = TrafficMatrix::new();
//! tm.add_flow(a, c, 8.0, Priority::High);
//! let tunnels = layout_tunnels(&topo, &tm, &LayoutConfig::default());
//!
//! let old = TeConfig::zero(&tunnels);
//! let cfg = solve_ffc(
//!     TeProblem::new(&topo, &tm, &tunnels),
//!     &old,
//!     &FfcConfig::new(0, 1, 0), // survive any single link failure
//! ).unwrap();
//! assert!(cfg.throughput() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod bounded_msum;
pub mod capacity_planning;
pub mod combined;
pub mod control_ffc;
pub mod data_ffc;
pub mod enumerate;
pub mod incremental;
pub mod priority;
pub mod rescale;
pub mod sorting_network;
pub mod te;
pub mod update;
pub mod verify;

pub use batch::{
    par_map, solve_ffc_batch, solve_ffc_scenarios, solve_te_batch, BatchOutcome, FfcJob,
};
pub use bounded_msum::MsumEncoding;
pub use capacity_planning::{plan_capacities, CapacityPlan, PlanObjective};
pub use combined::{
    build_ffc_model, build_ffc_model_tracked, solve_ffc, solve_ffc_with_faults,
    unprotected_links_from_loads, zero_dead_tunnels, FfcConfig, FfcLayout,
};
pub use control_ffc::{apply_control_ffc, BetaSupport, ControlFfc, ControlFfcLayout};
pub use data_ffc::{apply_data_ffc, mice_flags, standing_mice, DataFfc, DataFfcLayout};
pub use incremental::{CacheStats, FfcModelCache, RebuildReason, RetargetOutcome};
pub use priority::{
    solve_priority_ffc, solve_priority_ffc_with_faults, PriorityFfcConfig, PrioritySolution,
};
pub use rescale::{rescaled_link_loads, rescaled_link_loads_mixed, RescaledLoads};
pub use te::{solve_te, TeConfig, TeModelBuilder, TeProblem};
pub use update::{
    chain_excess, chain_ruled_out, max_transition_violation, plan_update, plan_update_auto,
    UpdateConfig, UpdatePlan, UpdateStats,
};
pub use verify::{audit_te_model, certify_config};
