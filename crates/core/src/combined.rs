//! Combined FFC (§4.5): simultaneous protection against control-plane
//! faults (`kc`), link failures (`ke`) and switch failures (`kv`), plus
//! the top-level convenience entry points used by the simulator and the
//! examples.

use std::collections::HashSet;

use ffc_lp::LpError;
use ffc_net::LinkId;

use crate::bounded_msum::MsumEncoding;
use crate::control_ffc::{apply_control_ffc, BetaSupport, ControlFfc, ControlFfcLayout};
use crate::data_ffc::{apply_data_ffc, mice_flags, DataFfc, DataFfcLayout};
use crate::te::{TeConfig, TeModelBuilder, TeProblem};

/// A full FFC protection level `(kc, ke, kv)` with encoding options.
#[derive(Debug, Clone)]
pub struct FfcConfig {
    /// Switch-configuration failures to tolerate.
    pub kc: usize,
    /// Link failures to tolerate.
    pub ke: usize,
    /// Switch (hardware) failures to tolerate.
    pub kv: usize,
    /// Bounded M-sum encoding for both fault classes.
    pub encoding: MsumEncoding,
    /// Mice-flow optimization (§6): the share of total demand the
    /// pinned equal-split flows may collectively carry — what
    /// [`mice_flags`] picks a set by and
    /// [`standing_mice`](crate::data_ffc::standing_mice) keeps one by.
    /// `0.0` disables the optimization.
    pub mice_fraction: f64,
    /// Links exempted from control-plane protection (§4.5's escape hatch
    /// for links congested by an over-protection-level data-plane fault).
    pub unprotected_links: HashSet<LinkId>,
}

impl FfcConfig {
    /// Protection `(kc, ke, kv)` with default encoding and thresholds.
    pub fn new(kc: usize, ke: usize, kv: usize) -> Self {
        FfcConfig {
            kc,
            ke,
            kv,
            encoding: MsumEncoding::SortingNetwork,
            mice_fraction: 0.01,
            unprotected_links: HashSet::new(),
        }
    }

    /// The paper's recommended single-priority setting, `(2, 1, 0)`
    /// (§8.2).
    pub fn recommended() -> Self {
        Self::new(2, 1, 0)
    }

    /// No protection at all — plain TE.
    pub fn none() -> Self {
        Self::new(0, 0, 0)
    }

    /// Uses a specific encoding.
    pub fn with_encoding(mut self, encoding: MsumEncoding) -> Self {
        self.encoding = encoding;
        self
    }

    /// Disables the mice-flow optimization.
    pub fn exact(mut self) -> Self {
        self.mice_fraction = 0.0;
        self
    }

    /// Whether this config requests any protection.
    pub fn is_protective(&self) -> bool {
        self.kc > 0 || self.ke > 0 || self.kv > 0
    }
}

/// Where the FFC constraint generators put their input-dependent pieces
/// — everything the delta-LP cache ([`crate::incremental`]) needs to
/// patch a standing model instead of rebuilding it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FfcLayout {
    /// Data-plane branch taken per flow (empty when `ke == kv == 0`).
    pub data: DataFfcLayout,
    /// Control-plane stale rows (empty when `kc == 0`).
    pub control: ControlFfcLayout,
}

/// Builds the TE model with both FFC families applied (not yet solved),
/// for callers that want to add further constraints or pin bounds
/// (fault scenarios, pinned rates, …). A one-shot build: the §6 mice
/// set is the greedy one for `problem.tm`, and the β support is §6's
/// support of `old` ([`BetaSupport::OldWeights`]).
pub fn build_ffc_model<'a>(
    problem: TeProblem<'a>,
    old: &TeConfig,
    cfg: &FfcConfig,
) -> TeModelBuilder<'a> {
    let mice = mice_flags(problem.tm, cfg.mice_fraction);
    build_ffc_model_tracked(problem, old, cfg, &mice, BetaSupport::OldWeights).0
}

/// [`build_ffc_model`] with the §6 mice set (one flag per flow;
/// `cfg.mice_fraction` is not read) and the β support as inputs, plus
/// the [`FfcLayout`] recording where the patchable pieces landed. The
/// standing model ([`crate::FfcModelCache`]) builds
/// [`BetaSupport::AllTunnels`].
pub fn build_ffc_model_tracked<'a>(
    problem: TeProblem<'a>,
    old: &TeConfig,
    cfg: &FfcConfig,
    mice: &[bool],
    support: BetaSupport,
) -> (TeModelBuilder<'a>, FfcLayout) {
    let mut builder = TeModelBuilder::new(problem);
    let mut layout = FfcLayout::default();
    if cfg.ke > 0 || cfg.kv > 0 {
        let data = DataFfc {
            ke: cfg.ke,
            kv: cfg.kv,
            encoding: cfg.encoding,
        };
        layout.data = apply_data_ffc(&mut builder, &data, mice);
    }
    if cfg.kc > 0 {
        let control = ControlFfc {
            kc: cfg.kc,
            old,
            encoding: cfg.encoding,
            support,
            unprotected_links: cfg.unprotected_links.clone(),
        };
        layout.control = apply_control_ffc(&mut builder, &control);
    }
    (builder, layout)
}

/// Solves FFC-TE for the given protection level.
///
/// `old` is the currently installed configuration (ignored when
/// `cfg.kc == 0`; pass [`TeConfig::zero`] for a fresh network).
pub fn solve_ffc(
    problem: TeProblem<'_>,
    old: &TeConfig,
    cfg: &FfcConfig,
) -> Result<TeConfig, LpError> {
    build_ffc_model(problem, old, cfg).solve()
}

/// The §4.5 escape hatch, computed from observed state: links whose
/// current load exceeds capacity get `kc = 0` (excluded from
/// control-plane protection), because after an over-protection-level
/// data-plane fault there may be *no* way to move traffic off them
/// while staying robust to further control faults — the fix itself must
/// be allowed through unprotected.
pub fn unprotected_links_from_loads(
    topo: &ffc_net::Topology,
    load: &[f64],
) -> HashSet<ffc_net::LinkId> {
    topo.links()
        .filter(|&e| load[e.index()] > topo.capacity(e) * (1.0 + 1e-9))
        .collect()
}

/// Pins the allocation of every tunnel killed by `scenario` to zero —
/// how the controller routes *around* currently-failed elements when it
/// recomputes (the simulator's mid-interval reactions and
/// interval-boundary solves under active faults).
pub fn zero_dead_tunnels(
    builder: &mut crate::te::TeModelBuilder<'_>,
    scenario: &ffc_net::FaultScenario,
) {
    if scenario.data_plane_clean() {
        return;
    }
    let topo = builder.problem.topo;
    for (f, ti, tunnel) in builder.problem.tunnels.iter_all() {
        if scenario.kills_tunnel(topo, tunnel) {
            builder.model.set_bounds(builder.a[f.index()][ti], 0.0, 0.0);
        }
    }
}

/// [`solve_ffc`] on the residual topology: tunnels killed by `scenario`
/// are pinned to zero before solving.
pub fn solve_ffc_with_faults(
    problem: TeProblem<'_>,
    old: &TeConfig,
    cfg: &FfcConfig,
    scenario: &ffc_net::FaultScenario,
) -> Result<TeConfig, LpError> {
    let mut builder = build_ffc_model(problem, old, cfg);
    zero_dead_tunnels(&mut builder, scenario);
    builder.solve()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rescale::rescaled_link_loads_mixed;
    use ffc_net::failure::{config_combinations_up_to, link_combinations_up_to};
    use ffc_net::prelude::*;

    /// A 5-node ring with chords — enough diversity for combined FFC.
    fn ring() -> (Topology, TrafficMatrix, TunnelTable, TeConfig) {
        let mut t = Topology::new();
        let ns = t.add_nodes(5, "r");
        for i in 0..5 {
            t.add_bidi(ns[i], ns[(i + 1) % 5], 10.0);
        }
        t.add_bidi(ns[0], ns[2], 10.0);
        t.add_bidi(ns[1], ns[3], 10.0);
        let mut tm = TrafficMatrix::new();
        tm.add_flow(ns[0], ns[3], 6.0, Priority::High);
        tm.add_flow(ns[1], ns[4], 6.0, Priority::High);
        tm.add_flow(ns[2], ns[0], 6.0, Priority::High);
        let tunnels = layout_tunnels(
            &t,
            &tm,
            &LayoutConfig {
                tunnels_per_flow: 3,
                p: 1,
                q: 3,
                reuse_penalty: 0.5,
            },
        );
        // An "old" configuration from plain TE.
        let old = crate::te::solve_te(crate::te::TeProblem::new(&t, &tm, &tunnels)).unwrap();
        (t, tm, tunnels, old)
    }

    /// A combined (kc=1, ke=1) solution survives every ≤1-link-failure
    /// scenario *and* every ≤1-stale-switch scenario (the two families
    /// the conjunction of constraints directly guarantees, §4.5).
    #[test]
    fn combined_protection_covers_both_families() {
        let (topo, tm, tunnels, old) = ring();
        let cfg = FfcConfig::new(1, 1, 0).exact();
        let new = solve_ffc(TeProblem::new(&topo, &tm, &tunnels), &old, &cfg).unwrap();
        assert!(new.throughput() > 0.0);

        let all_links: Vec<LinkId> = topo.links().collect();
        let all_nodes: Vec<NodeId> = topo.nodes().collect();
        let mut scenarios = link_combinations_up_to(&all_links, 1);
        scenarios.extend(config_combinations_up_to(&all_nodes, 1));
        for scenario in scenarios {
            let loads =
                rescaled_link_loads_mixed(&topo, &tm, &tunnels, &new, Some(&old), &scenario);
            for e in topo.links() {
                if scenario.link_dead(&topo, e) {
                    continue;
                }
                assert!(
                    loads.load[e.index()] <= topo.capacity(e) + 1e-5,
                    "scenario links={:?} config={:?} overloads {e}: {}",
                    scenario.failed_links,
                    scenario.config_failures,
                    loads.load[e.index()]
                );
            }
        }
    }

    #[test]
    fn protection_ordering_costs_throughput() {
        let (topo, tm, tunnels, old) = ring();
        let p = TeProblem::new(&topo, &tm, &tunnels);
        let t_none = solve_ffc(p, &old, &FfcConfig::none()).unwrap().throughput();
        let t_ctrl = solve_ffc(p, &old, &FfcConfig::new(2, 0, 0))
            .unwrap()
            .throughput();
        let t_both = solve_ffc(p, &old, &FfcConfig::new(2, 1, 0))
            .unwrap()
            .throughput();
        assert!(t_none >= t_ctrl - 1e-6);
        assert!(t_ctrl >= t_both - 1e-6);
    }

    /// §4.5: when a big fault leaves links overloaded, FFC with full
    /// control protection can be infeasible; dropping protection on the
    /// overloaded links (computed by `unprotected_links_from_loads`)
    /// restores feasibility so the fix can be pushed.
    #[test]
    fn escape_hatch_restores_feasibility() {
        // One ingress-disjoint pair of flows into a shared sink; the
        // "old" state overloads the shared link by construction.
        let mut topo = Topology::new();
        let ns = topo.add_nodes(4, "s");
        topo.add_link(ns[0], ns[2], 10.0);
        topo.add_link(ns[1], ns[2], 10.0);
        topo.add_link(ns[2], ns[3], 10.0); // shared, will be overloaded
        topo.add_link(ns[0], ns[3], 10.0);
        topo.add_link(ns[1], ns[3], 10.0);
        let mut tm = TrafficMatrix::new();
        tm.add_flow(ns[0], ns[3], 10.0, Priority::High);
        tm.add_flow(ns[1], ns[3], 10.0, Priority::High);
        let mk = |hops: &[NodeId]| {
            let links = hops
                .windows(2)
                .map(|w| topo.find_link(w[0], w[1]).unwrap())
                .collect();
            Tunnel::from_path(&topo, ffc_net::Path { links })
        };
        let mut tt = TunnelTable::new(2);
        tt.push(ffc_net::FlowId(0), mk(&[ns[0], ns[2], ns[3]]));
        tt.push(ffc_net::FlowId(0), mk(&[ns[0], ns[3]]));
        tt.push(ffc_net::FlowId(1), mk(&[ns[1], ns[2], ns[3]]));
        tt.push(ffc_net::FlowId(1), mk(&[ns[1], ns[3]]));
        // Old state: both flows fully on the shared link (14 units on a
        // 10 link — as if a fault just rescaled them there) with rates
        // pinned at 7 each.
        let old = crate::te::TeConfig {
            rate: vec![7.0, 7.0],
            alloc: vec![vec![7.0, 0.0], vec![7.0, 0.0]],
        };
        let loads = old.link_traffic(&topo, &tt);
        let hatch = unprotected_links_from_loads(&topo, &loads);
        let shared = topo.find_link(ns[2], ns[3]).unwrap();
        assert!(hatch.contains(&shared), "shared link should be flagged");
        assert_eq!(hatch.len(), 1);

        // With kc=2 and rates pinned, moving traffic off the shared
        // link requires updating both ingresses: infeasible...
        let problem = TeProblem::new(&topo, &tm, &tt);
        let mut b1 = build_ffc_model(problem, &old, &FfcConfig::new(2, 0, 0));
        for i in 0..2 {
            b1.model.set_bounds(b1.b[i], 7.0, 7.0);
        }
        assert!(
            b1.solve().is_err(),
            "fully-protected move should be infeasible"
        );

        // ...but feasible once the overloaded link is unprotected.
        let mut cfg = FfcConfig::new(2, 0, 0);
        cfg.unprotected_links = hatch;
        let mut b2 = build_ffc_model(problem, &old, &cfg);
        for i in 0..2 {
            b2.model.set_bounds(b2.b[i], 7.0, 7.0);
        }
        let fixed = b2.solve().expect("escape hatch restores feasibility");
        assert!((fixed.throughput() - 14.0).abs() < 1e-6);
    }

    #[test]
    fn none_config_equals_plain_te() {
        let (topo, tm, tunnels, old) = ring();
        let p = TeProblem::new(&topo, &tm, &tunnels);
        let plain = crate::te::solve_te(p).unwrap().throughput();
        let ffc = solve_ffc(p, &old, &FfcConfig::none()).unwrap().throughput();
        assert!((plain - ffc).abs() < 1e-6);
        assert!(!FfcConfig::none().is_protective());
        assert!(FfcConfig::recommended().is_protective());
    }
}
