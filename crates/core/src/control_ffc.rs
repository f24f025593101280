//! Control-plane FFC — paper §4.2 and §4.4.1 (Eqns 5–8, 13–14).
//!
//! Guarantee: no link is overloaded as long as at most `kc` ingress
//! switches fail to apply the new configuration and keep splitting
//! traffic by their *old* weights (rate limiters are assumed updated; see
//! [`crate::rate_limiter`] for limiter faults).
//!
//! For a faulted ingress `v`, the traffic it can put on link `e` is at
//! most `β_{v,e} = Σ_{f,t} β_{f,t}·L[t,e]·S[t,v]` with
//! `β_{f,t} = max(w'_{f,t}·b_f, a_{f,t})` (Eqn 8). The exponential
//! family Eqn 5 is rewritten (Eqn 13) as:
//!
//! ```text
//! ∀e, λ ∈ Λ_kc:  Σ_v λ_v·(β_{v,e} − a_{v,e}) ≤ c_e − Σ_v a_{v,e}
//! ```
//!
//! whose left side is maximized by the `kc` largest gaps — a bounded
//! M-sum problem (Eqn 14) solved by any [`MsumEncoding`].
//!
//! Implementation notes (paper §6): ingresses whose *old* weights put no
//! traffic on a link contribute a zero gap (`β_{f,t} = a_{f,t}` exactly
//! when `w'_{f,t} = 0`) and are skipped — this is exact, not an
//! approximation. A configurable threshold additionally skips ingresses
//! with negligible old weight.

//!
//! # Example
//! ```
//! use ffc_core::{apply_control_ffc, ControlFfc, TeConfig, TeModelBuilder, TeProblem};
//! use ffc_net::prelude::*;
//!
//! // Triangle; one flow with a direct and a via tunnel.
//! let mut topo = Topology::new();
//! let (a, b, c) = (topo.add_node("a"), topo.add_node("b"), topo.add_node("c"));
//! topo.add_bidi(a, c, 10.0);
//! topo.add_bidi(a, b, 10.0);
//! topo.add_bidi(b, c, 10.0);
//! let mut tm = TrafficMatrix::new();
//! tm.add_flow(a, c, 8.0, Priority::High);
//! let tunnels = layout_tunnels(&topo, &tm, &LayoutConfig::default());
//!
//! // Currently installed: everything on the via path.
//! let old = TeConfig { rate: vec![8.0], alloc: vec![vec![0.0, 8.0]] };
//!
//! let mut builder = TeModelBuilder::new(TeProblem::new(&topo, &tm, &tunnels));
//! apply_control_ffc(&mut builder, &ControlFfc::new(1, &old));
//! let cfg = builder.solve().unwrap();
//! // Even if switch `a` keeps its old weights, no link overloads.
//! assert!(cfg.throughput() > 0.0);
//! ```
use std::collections::HashSet;

use ffc_lp::{Cmp, ConId, LinExpr};
use ffc_net::LinkId;

use crate::bounded_msum::{constrain_any_m_sum_le, MsumEncoding};
use crate::te::{TeConfig, TeModelBuilder};

/// Parameters for control-plane FFC.
#[derive(Debug, Clone)]
pub struct ControlFfc<'a> {
    /// Number of simultaneous switch-configuration failures to tolerate.
    pub kc: usize,
    /// The currently installed configuration (`{b'_f}, {a'_{f,t}}`).
    pub old: &'a TeConfig,
    /// Bounded M-sum encoding to use.
    pub encoding: MsumEncoding,
    /// Old splitting weights below this threshold are treated as zero
    /// (§6's "little traffic load" optimization). Set to `0.0` for the
    /// exact formulation.
    pub weight_threshold: f64,
    /// Links given `kc = 0` — the paper's escape hatch (§4.5) for links
    /// already overloaded by a large data-plane fault, whose traffic must
    /// be movable without control-plane protection.
    pub unprotected_links: HashSet<LinkId>,
}

impl<'a> ControlFfc<'a> {
    /// Control FFC with defaults: given `kc` and old config, sorting
    /// network encoding, tiny threshold, no unprotected links.
    pub fn new(kc: usize, old: &'a TeConfig) -> Self {
        ControlFfc {
            kc,
            old,
            encoding: MsumEncoding::SortingNetwork,
            weight_threshold: 1e-9,
            unprotected_links: HashSet::new(),
        }
    }
}

/// Where control-plane FFC put its input-dependent pieces, for the
/// delta-LP cache (see [`crate::incremental`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ControlFfcLayout {
    /// The `w'_{f,t}·b_f − β_{f,t} ≤ 0` stale-weight rows, one per
    /// `(flow, tunnel)` with old weight above the threshold. The old
    /// weight appears solely as the coefficient of `b_f` in this row, so
    /// an old-config change with the *same support pattern* is a pure
    /// coefficient patch.
    pub stale_rows: Vec<(usize, usize, ConId)>,
}

impl ControlFfcLayout {
    /// The `(flow, tunnel)` β-support pattern, for comparing against a
    /// fresh old configuration.
    pub fn support(&self) -> Vec<(usize, usize)> {
        self.stale_rows.iter().map(|&(f, t, _)| (f, t)).collect()
    }
}

/// The β-variable support pattern a given old configuration would
/// produce: every `(flow, tunnel)` whose old splitting weight exceeds
/// `weight_threshold`, in emission order.
pub fn beta_support(old: &TeConfig, weight_threshold: f64) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (fi, w) in old.all_weights().iter().enumerate() {
        for (ti, &w_old) in w.iter().enumerate() {
            if w_old > weight_threshold {
                out.push((fi, ti));
            }
        }
    }
    out
}

/// Adds control-plane FFC constraints to a TE model under construction,
/// returning where the patchable pieces landed (for the incremental
/// cache).
///
/// # Panics
/// Panics if the old configuration's shape does not match the builder's
/// tunnel table.
pub fn apply_control_ffc(
    builder: &mut TeModelBuilder<'_>,
    ffc: &ControlFfc<'_>,
) -> ControlFfcLayout {
    if ffc.kc == 0 {
        return ControlFfcLayout::default();
    }
    let tunnels = builder.problem.tunnels;
    let topo = builder.problem.topo;
    assert_eq!(
        ffc.old.alloc.len(),
        tunnels.num_flows(),
        "old config does not match tunnel table"
    );

    let old_weights = ffc.old.all_weights();

    // β_{f,t} variables, lazily created only where w'_{f,t} > threshold
    // (otherwise β = a exactly and the gap is zero).
    let mut layout = ControlFfcLayout::default();
    let mut beta: Vec<Vec<Option<ffc_lp::VarId>>> = (0..tunnels.num_flows())
        .map(|f| vec![None; builder.a[f].len()])
        .collect();
    for f in builder.problem.tm.ids() {
        let fi = f.index();
        assert_eq!(
            old_weights[fi].len(),
            builder.a[fi].len(),
            "old config tunnel count mismatch for flow {f}"
        );
        for (ti, &w_old) in old_weights[fi].iter().enumerate() {
            if w_old <= ffc.weight_threshold {
                continue;
            }
            let bv = builder
                .model
                .add_var(0.0, f64::INFINITY, format!("beta_{f}_{ti}"));
            // β ≥ w'·b_f (Eqn 8, stale-weights term).
            let stale = builder.model.add_con(
                LinExpr::term(builder.b[fi], w_old) - LinExpr::from(bv),
                Cmp::Le,
                0.0,
            );
            layout.stale_rows.push((fi, ti, stale));
            // β ≥ a_{f,t} (fresh-config term).
            builder.model.add_con(
                LinExpr::from(builder.a[fi][ti]) - LinExpr::from(bv),
                Cmp::Le,
                0.0,
            );
            beta[fi][ti] = Some(bv);
        }
    }

    // Per link: bounded M-sum over per-ingress gaps β_{v,e} − a_{v,e}.
    for e in topo.links() {
        if ffc.unprotected_links.contains(&e) {
            continue;
        }
        // Group the link's tunnels by ingress and build the gap exprs.
        let mut gap_by_ingress: std::collections::BTreeMap<usize, LinExpr> =
            std::collections::BTreeMap::new();
        for &(f, ti) in &builder.link_tunnels[e.index()] {
            let fi = f.index();
            if let Some(bv) = beta[fi][ti] {
                let ingress = tunnels.tunnels(f)[ti].src().index();
                let gap = gap_by_ingress.entry(ingress).or_default();
                // β_{f,t} − a_{f,t} (non-negative by construction).
                gap.add_term(bv, 1.0);
                gap.add_term(builder.a[fi][ti], -1.0);
            }
        }
        if gap_by_ingress.is_empty() {
            continue;
        }
        let gaps: Vec<LinExpr> = gap_by_ingress.into_values().collect();
        // Budget: c_e − Σ_v a_{v,e}.
        let budget = LinExpr::constant(builder.problem.capacity(e)) - builder.link_load_expr(e);
        constrain_any_m_sum_le(&mut builder.model, gaps, ffc.kc, budget, ffc.encoding);
    }
    layout
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::te::{solve_te, TeProblem};
    use ffc_lp::LpError;
    use ffc_net::prelude::*;

    /// The paper's Figure 3/5 topology: {s2, s3} -> s1 -> s4 detour links
    /// plus direct links {s2, s3} -> s4 and s1 -> s4, all capacity 10.
    fn fig3_topology() -> (Topology, Vec<NodeId>) {
        let mut t = Topology::new();
        let ns = t.add_nodes(4, "s"); // s0 = paper's s1, s1 = s2, s2 = s3, s3 = s4
        t.add_link(ns[1], ns[0], 10.0); // s2 -> s1
        t.add_link(ns[2], ns[0], 10.0); // s3 -> s1
        t.add_link(ns[1], ns[3], 10.0); // s2 -> s4
        t.add_link(ns[2], ns[3], 10.0); // s3 -> s4
        t.add_link(ns[0], ns[3], 10.0); // s1 -> s4
        (t, ns)
    }

    /// The paper's Figure 3(a)→(b) / Figure 5 scenario.
    ///
    /// Old configuration (Fig 3(a)): flows s2→s4 and s3→s4 each send
    /// 7 units directly and 3 units via s1 (crossing link s1-s4). The
    /// update moves that detour traffic onto the direct links to make
    /// room for a new flow s1→s4. §3.1's quantitative claims: the new
    /// flow can safely get 10 units with kc=0 (Fig 3(b)), 7 with kc=1
    /// (Fig 5(b)) and 4 with kc=2 (Fig 5(a)).
    struct Fig3 {
        topo: Topology,
        tm: TrafficMatrix,
        tunnels: TunnelTable,
        old: TeConfig,
    }

    fn fig3_scenario() -> Fig3 {
        let (topo, ns) = fig3_topology();
        let mut tm = TrafficMatrix::new();
        // Flow 0: s2 -> s4, demand 10.
        tm.add_flow(ns[1], ns[3], 10.0, Priority::High);
        // Flow 1: s3 -> s4, demand 10.
        tm.add_flow(ns[2], ns[3], 10.0, Priority::High);
        // Flow 2: s1 -> s4 (the new flow), demand 10.
        tm.add_flow(ns[0], ns[3], 10.0, Priority::High);

        let mk = |hops: &[NodeId]| {
            let links = hops
                .windows(2)
                .map(|w| topo.find_link(w[0], w[1]).unwrap())
                .collect();
            Tunnel::from_path(&topo, ffc_net::Path { links })
        };
        let mut tunnels = TunnelTable::new(3);
        // s2->s4: direct + via s1.
        tunnels.push(FlowId(0), mk(&[ns[1], ns[3]]));
        tunnels.push(FlowId(0), mk(&[ns[1], ns[0], ns[3]]));
        // s3->s4: direct + via s1.
        tunnels.push(FlowId(1), mk(&[ns[2], ns[3]]));
        tunnels.push(FlowId(1), mk(&[ns[2], ns[0], ns[3]]));
        // s1->s4: direct only.
        tunnels.push(FlowId(2), mk(&[ns[0], ns[3]]));

        // Old configuration (Fig 3(a)): 7 direct + 3 via s1; flow 2 zero.
        let old = TeConfig {
            rate: vec![10.0, 10.0, 0.0],
            alloc: vec![vec![7.0, 3.0], vec![7.0, 3.0], vec![0.0]],
        };
        Fig3 {
            topo,
            tm,
            tunnels,
            old,
        }
    }

    fn solve_with_kc(s: &Fig3, kc: usize, encoding: MsumEncoding) -> TeConfig {
        let problem = TeProblem::new(&s.topo, &s.tm, &s.tunnels);
        let mut builder = crate::te::TeModelBuilder::new(problem);
        let mut ffc = ControlFfc::new(kc, &s.old);
        ffc.encoding = encoding;
        apply_control_ffc(&mut builder, &ffc);
        builder.solve().expect("feasible")
    }

    /// Without FFC the new flow gets its full 10 units (Fig 3(b)).
    #[test]
    fn kc0_grants_full_new_flow() {
        let s = fig3_scenario();
        let cfg = solve_te(TeProblem::new(&s.topo, &s.tm, &s.tunnels)).unwrap();
        assert!((cfg.rate[2] - 10.0).abs() < 1e-5, "rate {}", cfg.rate[2]);
    }

    /// §3.1: with kc=1 the new flow can safely send 7 units (Fig 5(b)).
    #[test]
    fn kc1_grants_seven() {
        let s = fig3_scenario();
        for enc in [MsumEncoding::SortingNetwork, MsumEncoding::Enumeration] {
            let cfg = solve_with_kc(&s, 1, enc);
            assert!(
                (cfg.rate[2] - 7.0).abs() < 1e-4,
                "{enc:?}: new flow got {}",
                cfg.rate[2]
            );
            // Total throughput: flows 0/1 shrink to 7 each... they keep
            // their demand satisfied? They shrink allocation to 7 but
            // keep b_f = 7? In the paper they shrink to 7 to make room.
        }
    }

    /// §3.1: with kc=2 the new flow can safely send only 4 (Fig 5(a)).
    #[test]
    fn kc2_grants_four() {
        let s = fig3_scenario();
        for enc in [MsumEncoding::SortingNetwork, MsumEncoding::Enumeration] {
            let cfg = solve_with_kc(&s, 2, enc);
            assert!(
                (cfg.rate[2] - 4.0).abs() < 1e-4,
                "{enc:?}: new flow got {}",
                cfg.rate[2]
            );
        }
    }

    /// The FFC solution must survive *every* ≤kc-fault combination:
    /// simulate stale switches and check no link exceeds capacity.
    #[test]
    fn kc_solution_robust_under_all_single_faults() {
        let s = fig3_scenario();
        let cfg = solve_with_kc(&s, 1, MsumEncoding::SortingNetwork);
        let old_w = s.old.all_weights();
        let new_w = cfg.all_weights();
        for stale in 0..s.topo.num_nodes() {
            // Per-link traffic with ingress `stale` using old weights.
            let mut load = vec![0.0; s.topo.num_links()];
            for (f, _flow) in s.tm.iter() {
                let fi = f.index();
                let w = if s.tm.flow(f).src.index() == stale {
                    &old_w[fi]
                } else {
                    &new_w[fi]
                };
                for (ti, tun) in s.tunnels.tunnels(f).iter().enumerate() {
                    let traffic = cfg.rate[fi] * w[ti];
                    for &l in &tun.links {
                        load[l.index()] += traffic;
                    }
                }
            }
            for e in s.topo.links() {
                assert!(
                    load[e.index()] <= s.topo.capacity(e) + 1e-5,
                    "stale s{stale} overloads {e}: {}",
                    load[e.index()]
                );
            }
        }
    }

    /// kc larger than the number of ingresses still solves (degenerate
    /// full-sum constraints).
    #[test]
    fn kc_larger_than_ingress_count() {
        let s = fig3_scenario();
        let cfg = solve_with_kc(&s, 10, MsumEncoding::SortingNetwork);
        // Equivalent to kc=2 here (only two stale ingresses matter).
        assert!((cfg.rate[2] - 4.0).abs() < 1e-4, "got {}", cfg.rate[2]);
    }

    /// Unprotected links (the §4.5 escape hatch) drop their constraints.
    #[test]
    fn unprotected_links_are_skipped() {
        let s = fig3_scenario();
        let problem = TeProblem::new(&s.topo, &s.tm, &s.tunnels);
        let mut builder = crate::te::TeModelBuilder::new(problem);
        let mut ffc = ControlFfc::new(2, &s.old);
        // Unprotect every link: FFC becomes a no-op.
        ffc.unprotected_links = s.topo.links().collect();
        apply_control_ffc(&mut builder, &ffc);
        let cfg = builder.solve().unwrap();
        assert!((cfg.rate[2] - 10.0).abs() < 1e-5);
    }

    /// A fresh network (old config all zero) imposes no FFC penalty.
    #[test]
    fn zero_old_config_is_free() {
        let s = fig3_scenario();
        let zero = TeConfig::zero(&s.tunnels);
        let problem = TeProblem::new(&s.topo, &s.tm, &s.tunnels);
        let mut builder = crate::te::TeModelBuilder::new(problem);
        let ffc = ControlFfc::new(3, &zero);
        apply_control_ffc(&mut builder, &ffc);
        let cfg = builder.solve().unwrap();
        assert!((cfg.rate[2] - 10.0).abs() < 1e-5);
    }

    /// Mismatched old-config shape panics loudly.
    #[test]
    #[should_panic(expected = "old config")]
    fn shape_mismatch_panics() {
        let s = fig3_scenario();
        let bad = TeConfig {
            rate: vec![0.0],
            alloc: vec![vec![0.0]],
        };
        let problem = TeProblem::new(&s.topo, &s.tm, &s.tunnels);
        let mut builder = crate::te::TeModelBuilder::new(problem);
        let ffc = ControlFfc::new(1, &bad);
        apply_control_ffc(&mut builder, &ffc);
    }

    /// The throughput ordering kc=0 ≥ kc=1 ≥ kc=2 holds.
    #[test]
    fn overhead_monotone_in_kc() {
        let s = fig3_scenario();
        let t0 = solve_te(TeProblem::new(&s.topo, &s.tm, &s.tunnels))
            .unwrap()
            .throughput();
        let t1 = solve_with_kc(&s, 1, MsumEncoding::SortingNetwork).throughput();
        let t2 = solve_with_kc(&s, 2, MsumEncoding::SortingNetwork).throughput();
        assert!(t0 >= t1 - 1e-6 && t1 >= t2 - 1e-6, "{t0} {t1} {t2}");
    }

    /// Infeasibility is surfaced as an error, not a bogus solution.
    /// §3.1: updating to the full 10-unit new flow *while keeping the
    /// existing flows whole* cannot be robust to s2/s3 going stale.
    #[test]
    fn infeasible_when_rates_pinned() {
        let s = fig3_scenario();
        let problem = TeProblem::new(&s.topo, &s.tm, &s.tunnels);
        let mut builder = crate::te::TeModelBuilder::new(problem);
        // Pin every flow to its full demand (shutting down the existing
        // flows would otherwise make the update trivially safe).
        for i in 0..3 {
            builder.model.set_bounds(builder.b[i], 10.0, 10.0);
        }
        let ffc = ControlFfc::new(2, &s.old);
        apply_control_ffc(&mut builder, &ffc);
        assert_eq!(builder.solve().unwrap_err(), LpError::Infeasible);
    }
}
