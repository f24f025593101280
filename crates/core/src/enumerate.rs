//! Exact FFC by explicit fault-scenario enumeration — the formulation the
//! paper calls intractable (§4.2/§4.3: `Σ_j (n choose j)` cases; §8.2
//! reports >12 h solve times on L-Net).
//!
//! On small networks it *is* solvable, which makes it the ground truth
//! for validating the sorting-network transformation:
//!
//! * Control plane: enumeration and the bounded M-sum transformation are
//!   **equivalent** (§4.4.1), so objectives must match exactly.
//! * Data plane: Eqn 15 is a safe **under**-approximation of Eqn 9 — the
//!   enumeration optimum is an upper bound on the Eqn-15 optimum, with
//!   equality for link failures over link-disjoint tunnels.

use ffc_lp::{Cmp, LinExpr};
use ffc_net::failure::{config_combinations_up_to, FaultScenario};
use ffc_net::{LinkId, NodeId};

use crate::te::{TeConfig, TeModelBuilder};

/// Adds exact control-plane FFC constraints: one capacity constraint per
/// link per `λ ∈ Λ_kc` (Eqn 5).
pub fn apply_control_ffc_enumerated(builder: &mut TeModelBuilder<'_>, kc: usize, old: &TeConfig) {
    if kc == 0 {
        return;
    }
    let tunnels = builder.problem.tunnels;
    let topo = builder.problem.topo;
    let old_weights = old.all_weights();

    // β_{f,t} variables wherever the old weight is nonzero (as in the
    // compact formulation; exact, see control_ffc.rs).
    let mut beta: Vec<Vec<Option<ffc_lp::VarId>>> = (0..tunnels.num_flows())
        .map(|f| vec![None; builder.a[f].len()])
        .collect();
    for f in builder.problem.tm.ids() {
        let fi = f.index();
        for (ti, &w_old) in old_weights[fi].iter().enumerate() {
            if w_old <= 1e-12 {
                continue;
            }
            let bv = builder
                .model
                .add_var(0.0, f64::INFINITY, format!("betaE_{f}_{ti}"));
            builder.model.add_con(
                LinExpr::term(builder.b[fi], w_old) - LinExpr::from(bv),
                Cmp::Le,
                0.0,
            );
            builder.model.add_con(
                LinExpr::from(builder.a[fi][ti]) - LinExpr::from(bv),
                Cmp::Le,
                0.0,
            );
            beta[fi][ti] = Some(bv);
        }
    }

    // Only ingresses that can actually have a nonzero gap matter.
    let ingresses: Vec<NodeId> = {
        let mut seen = vec![false; topo.num_nodes()];
        for (f, ti, t) in tunnels.iter_all() {
            if beta[f.index()][ti].is_some() {
                seen[t.src().index()] = true;
            }
        }
        (0..topo.num_nodes())
            .filter(|&i| seen[i])
            .map(NodeId)
            .collect()
    };

    for scenario in config_combinations_up_to(&ingresses, kc) {
        for e in topo.links() {
            if builder.link_tunnels[e.index()].is_empty() {
                continue;
            }
            // Σ_v [λ_v β_{v,e} + (1−λ_v) a_{v,e}] ≤ c_e.
            let mut lhs = LinExpr::zero();
            let mut any_beta = false;
            for &(f, ti) in &builder.link_tunnels[e.index()] {
                let fi = f.index();
                let src = tunnels.tunnels(f)[ti].src();
                let stale = scenario.config_failures.contains(&src);
                match (stale, beta[fi][ti]) {
                    (true, Some(bv)) => {
                        lhs.add_term(bv, 1.0);
                        any_beta = true;
                    }
                    // Stale but no old traffic on this tunnel: the
                    // stale switch sends nothing here (old weight 0).
                    (true, None) => {}
                    (false, _) => {
                        lhs.add_term(builder.a[fi][ti], 1.0);
                    }
                }
            }
            if !any_beta {
                // Plain Eqn 2 already covers this case.
                continue;
            }
            builder
                .model
                .add_con(lhs, Cmp::Le, builder.problem.capacity(e));
        }
    }
}

/// Adds exact data-plane FFC constraints: one covering constraint per
/// flow per `(µ, η) ∈ U_{ke,kv}` (Eqn 9), enumerated over link and
/// switch failures.
pub fn apply_data_ffc_enumerated(builder: &mut TeModelBuilder<'_>, ke: usize, kv: usize) {
    if ke == 0 && kv == 0 {
        return;
    }
    let topo = builder.problem.topo;
    let tunnels = builder.problem.tunnels;
    let all_links: Vec<LinkId> = topo.links().collect();
    let all_nodes: Vec<NodeId> = topo.nodes().collect();

    let link_scenarios = ffc_net::failure::link_combinations_up_to(&all_links, ke);
    let switch_scenarios: Vec<FaultScenario> = {
        // Combinations of up to kv switches.
        let mut out = vec![FaultScenario::none()];
        if kv > 0 {
            for n in 1..=kv.min(all_nodes.len()) {
                out.extend(
                    ffc_net::failure::config_combinations_up_to(&all_nodes, n)
                        .into_iter()
                        .filter(|s| s.num_config_faults() == n)
                        .map(|s| FaultScenario::switches(s.config_failures.iter().copied())),
                );
            }
        }
        out
    };

    for f in builder.problem.tm.ids() {
        let fi = f.index();
        let ts = tunnels.tunnels(f);
        if ts.is_empty() {
            continue;
        }
        let flow = builder.problem.tm.flow(f);
        for ls in &link_scenarios {
            for ss in &switch_scenarios {
                let mut scenario = ls.clone();
                scenario.failed_switches = ss.failed_switches.clone();
                // Scenarios killing an endpoint zero the flow by Eqn 9's
                // side rule only if *all* tunnels die; endpoint failures
                // are excluded from the guarantee (§4.3).
                if scenario.failed_switches.contains(&flow.src)
                    || scenario.failed_switches.contains(&flow.dst)
                {
                    continue;
                }
                let residual = scenario.residual_tunnels(topo, ts);
                if residual.len() == ts.len() {
                    continue; // Eqn 3 already covers the no-loss case.
                }
                let mut lhs = LinExpr::zero();
                for &ti in &residual {
                    lhs.add_term(builder.a[fi][ti], 1.0);
                }
                lhs.add_term(builder.b[fi], -1.0);
                builder.model.add_con(lhs, Cmp::Ge, 0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounded_msum::MsumEncoding;
    use crate::control_ffc::{apply_control_ffc, ControlFfc};
    use crate::data_ffc::{apply_data_ffc, mice_flags, DataFfc};
    use crate::te::{TeModelBuilder, TeProblem};
    use ffc_net::prelude::*;

    fn ring() -> (Topology, TrafficMatrix, TunnelTable, TeConfig) {
        let mut t = Topology::new();
        let ns = t.add_nodes(5, "r");
        for i in 0..5 {
            t.add_bidi(ns[i], ns[(i + 1) % 5], 10.0);
        }
        t.add_bidi(ns[0], ns[2], 10.0);
        let mut tm = TrafficMatrix::new();
        tm.add_flow(ns[0], ns[3], 9.0, Priority::High);
        tm.add_flow(ns[1], ns[4], 9.0, Priority::High);
        tm.add_flow(ns[2], ns[0], 9.0, Priority::High);
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
        let old = crate::te::solve_te(TeProblem::new(&t, &tm, &tunnels)).unwrap();
        (t, tm, tunnels, old)
    }

    /// §4.4.1: the control-plane transformation preserves equivalence —
    /// sorting-network and enumerated optima must match.
    #[test]
    fn control_enumeration_matches_sorting_network() {
        let (topo, tm, tunnels, old) = ring();
        for kc in 1..=2 {
            let mut b1 = TeModelBuilder::new(TeProblem::new(&topo, &tm, &tunnels));
            let mut ffc = ControlFfc::new(kc, &old);
            ffc.encoding = MsumEncoding::SortingNetwork;
            ffc.weight_threshold = 1e-12;
            apply_control_ffc(&mut b1, &ffc);
            let t_sn = b1.solve().unwrap().throughput();

            let mut b2 = TeModelBuilder::new(TeProblem::new(&topo, &tm, &tunnels));
            apply_control_ffc_enumerated(&mut b2, kc, &old);
            let t_enum = b2.solve().unwrap().throughput();

            assert!(
                (t_sn - t_enum).abs() < 1e-5,
                "kc={kc}: sorting network {t_sn} vs enumeration {t_enum}"
            );
        }
    }

    /// Eqn 15 under-approximates Eqn 9: the compact data-plane optimum
    /// never exceeds the enumerated optimum, and matches it for
    /// link-disjoint tunnels under link failures.
    #[test]
    fn data_enumeration_bounds_compact() {
        let (topo, tm, tunnels, _) = ring();
        for ke in 1..=2 {
            let mut b1 = TeModelBuilder::new(TeProblem::new(&topo, &tm, &tunnels));
            apply_data_ffc(&mut b1, &DataFfc::new(ke, 0), &mice_flags(&tm, 0.0));
            let t_compact = b1.solve().unwrap().throughput();

            let mut b2 = TeModelBuilder::new(TeProblem::new(&topo, &tm, &tunnels));
            apply_data_ffc_enumerated(&mut b2, ke, 0);
            let t_enum = b2.solve().unwrap().throughput();

            assert!(
                t_compact <= t_enum + 1e-5,
                "ke={ke}: compact {t_compact} exceeds enumeration {t_enum}"
            );
            // (1,3)-disjoint layout means p=1: link failures are the
            // equivalent special case.
            let all_p1 = tm.ids().all(|f| tunnels.disjointness(f).p <= 1);
            if all_p1 {
                assert!(
                    (t_compact - t_enum).abs() < 1e-5,
                    "ke={ke}: expected equality, compact {t_compact} vs {t_enum}"
                );
            }
        }
    }

    /// The enumerated solution is robust by construction: verify against
    /// brute-force rescaling.
    #[test]
    fn enumerated_data_solution_robust() {
        let (topo, tm, tunnels, _) = ring();
        let mut b = TeModelBuilder::new(TeProblem::new(&topo, &tm, &tunnels));
        apply_data_ffc_enumerated(&mut b, 1, 0);
        let cfg = b.solve().unwrap();
        let all_links: Vec<LinkId> = topo.links().collect();
        for sc in ffc_net::failure::link_combinations_up_to(&all_links, 1) {
            let loads = crate::rescale::rescaled_link_loads(&topo, &tm, &tunnels, &cfg, &sc);
            for e in topo.links() {
                if sc.link_dead(&topo, e) {
                    continue;
                }
                assert!(loads.load[e.index()] <= topo.capacity(e) + 1e-5);
            }
        }
    }

    /// Switch-failure enumeration (kv=1) on a flow with a transit-free
    /// tunnel is *looser* than Eqn 15 (the §4.4.1 imprecision).
    #[test]
    fn switch_enumeration_looser_than_tau() {
        // Two tunnels: direct (no transit) and via a middle switch.
        let mut t = Topology::new();
        let ns = t.add_nodes(3, "s");
        t.add_link(ns[0], ns[2], 10.0);
        // Skinny via path: only 5 units of backup capacity.
        t.add_link(ns[0], ns[1], 5.0);
        t.add_link(ns[1], ns[2], 5.0);
        let mut tm = TrafficMatrix::new();
        tm.add_flow(ns[0], ns[2], 10.0, Priority::High);
        let mk = |hops: &[NodeId]| {
            let links = hops
                .windows(2)
                .map(|w| t.find_link(w[0], w[1]).unwrap())
                .collect();
            Tunnel::from_path(&t, ffc_net::Path { links })
        };
        let mut tt = TunnelTable::new(1);
        tt.push(FlowId(0), mk(&[ns[0], ns[2]]));
        tt.push(FlowId(0), mk(&[ns[0], ns[1], ns[2]]));

        let mut b1 = TeModelBuilder::new(TeProblem::new(&t, &tm, &tt));
        apply_data_ffc(&mut b1, &DataFfc::new(0, 1), &mice_flags(&tm, 0.0));
        let t_compact = b1.solve().unwrap().throughput();

        let mut b2 = TeModelBuilder::new(TeProblem::new(&t, &tm, &tt));
        apply_data_ffc_enumerated(&mut b2, 0, 1);
        let t_enum = b2.solve().unwrap().throughput();

        // Enumeration (exact Eqn 9): only the via tunnel can die to a
        // single switch failure, so just the direct allocation must
        // cover b -> b = 10. Compact Eqn 15 (τ = 1): *both* allocations
        // must cover b, and the skinny via path caps it at 5.
        assert!((t_enum - 10.0).abs() < 1e-5, "enum {t_enum}");
        assert!((t_compact - 5.0).abs() < 1e-5, "compact {t_compact}");
    }
}
