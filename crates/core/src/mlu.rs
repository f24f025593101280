//! TE without flow rate control (§5.4): ISP-style networks where the
//! offered demand must be carried and the objective is to minimize the
//! maximum link utilization (MLU).
//!
//! ```text
//! min  Θ(u)                        (here Θ = identity)
//! s.t. ∀e: u ≥ Σ_v a_{v,e} / c_e
//!      ∀f: Σ_t a_{f,t} ≥ d_f      (the demand must be routed)
//! ```
//!
//! `u` may exceed 1 (oversubscribed links). Control-plane FFC changes
//! the objective to `Θ(u) + σ·Θ(u_f)` where `u_f` bounds the MLU under
//! any `λ ∈ Λ_kc`; data-plane FFC constraints (Eqn 15 with `b_f = d_f`)
//! carry over unchanged.

use ffc_lp::{Cmp, LinExpr, LpError, Sense};
use ffc_net::{Topology, TrafficMatrix, TunnelTable};

use crate::bounded_msum::constrain_any_m_sum_le;
use crate::combined::FfcConfig;
use crate::data_ffc::{apply_data_ffc, mice_flags, DataFfc};
use crate::te::{TeConfig, TeModelBuilder, TeProblem};

/// Result of an MLU computation.
#[derive(Debug, Clone)]
pub struct MluSolution {
    /// The routing (rates here equal demands).
    pub config: TeConfig,
    /// Normal-case maximum link utilization `u`.
    pub mlu: f64,
    /// Fault-case MLU bound `u_f` (equals `mlu` when `kc = 0`).
    pub fault_mlu: f64,
}

/// Solves min-MLU TE, optionally with FFC.
///
/// * `sigma` weights the fault-case MLU in the objective (`σ > 0`;
///   ignored when `ffc.kc == 0`).
/// * `old` is the installed configuration for control-plane FFC.
pub fn solve_min_mlu(
    topo: &Topology,
    tm: &TrafficMatrix,
    tunnels: &TunnelTable,
    old: &TeConfig,
    ffc: &FfcConfig,
    sigma: f64,
) -> Result<MluSolution, LpError> {
    let problem = TeProblem::new(topo, tm, tunnels);

    // The MLU formulation replaces Eqn 2's hard capacity rows with
    // u-scaled rows (links may run over capacity, u > 1), so the model
    // is assembled here rather than via `TeModelBuilder::new`. Rates are
    // pinned to demands: no rate control. Flows without tunnels stay at
    // zero — their demand is unroutable and excluded.
    let mut model = ffc_lp::Model::new();
    let b: Vec<ffc_lp::VarId> = tm
        .iter()
        .map(|(id, f)| {
            let pinned = if tunnels.tunnels(id).is_empty() {
                0.0
            } else {
                f.demand
            };
            model.add_var(pinned, pinned, format!("b_{id}"))
        })
        .collect();
    let a: Vec<Vec<ffc_lp::VarId>> = tm
        .ids()
        .map(|f| {
            (0..tunnels.tunnels(f).len())
                .map(|t| model.add_var(0.0, f64::INFINITY, format!("a_{f}_{t}")))
                .collect()
        })
        .collect();
    let u = model.add_var(0.0, f64::INFINITY, "mlu");
    let uf = model.add_var(0.0, f64::INFINITY, "fault_mlu");

    let mut link_tunnels: Vec<Vec<(ffc_net::FlowId, usize)>> = vec![Vec::new(); topo.num_links()];
    for (f, ti, tunnel) in tunnels.iter_all() {
        for &l in &tunnel.links {
            link_tunnels[l.index()].push((f, ti));
        }
    }

    // u ≥ load_e / c_e.
    for e in topo.links() {
        if link_tunnels[e.index()].is_empty() {
            continue;
        }
        let mut load = LinExpr::zero();
        for &(f, ti) in &link_tunnels[e.index()] {
            load.add_term(a[f.index()][ti], 1.0);
        }
        let row = load - LinExpr::term(u, topo.capacity(e));
        model.add_con(row, Cmp::Le, 0.0);
    }
    // Demand coverage.
    for f in tm.ids() {
        let mut cover = LinExpr::zero();
        for &v in &a[f.index()] {
            cover.add_term(v, 1.0);
        }
        cover.add_term(b[f.index()], -1.0);
        model.add_con(cover, Cmp::Ge, 0.0);
    }

    // Wrap in a builder shell so the FFC generators can attach to it.
    let mut builder = TeModelBuilder {
        model,
        b,
        a,
        link_tunnels,
        problem,
    };

    // Data-plane FFC (Eqn 15, rates pinned to demand).
    if ffc.ke > 0 || ffc.kv > 0 {
        let data = DataFfc {
            ke: ffc.ke,
            kv: ffc.kv,
            encoding: ffc.encoding,
        };
        // Mice pinning (a = b/τ) conflicts with pinned b when
        // capacity is scarce; use the exact form here.
        apply_data_ffc(&mut builder, &data, &mice_flags(problem.tm, 0.0));
    }

    // Control-plane FFC on the fault MLU: u_f·c_e ≥ Σ_v a_{v,e} + (kc
    // largest gaps). Reuse the β construction from control_ffc by
    // inlining it here against `uf`.
    if ffc.kc > 0 {
        let old_weights = old.all_weights();
        let mut beta: Vec<Vec<Option<ffc_lp::VarId>>> = (0..tunnels.num_flows())
            .map(|f| vec![None; builder.a[f].len()])
            .collect();
        for f in tm.ids() {
            let fi = f.index();
            for (ti, &w_old) in old_weights[fi].iter().enumerate() {
                if w_old <= 1e-9 {
                    continue;
                }
                let bv = builder
                    .model
                    .add_var(0.0, f64::INFINITY, format!("beta_{f}_{ti}"));
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
        for e in topo.links() {
            let mut gap_by_ingress: std::collections::BTreeMap<usize, LinExpr> =
                std::collections::BTreeMap::new();
            let mut load = LinExpr::zero();
            for &(f, ti) in &builder.link_tunnels[e.index()] {
                let fi = f.index();
                load.add_term(builder.a[fi][ti], 1.0);
                if let Some(bv) = beta[fi][ti] {
                    let ingress = tunnels.tunnels(f)[ti].src().index();
                    let gap = gap_by_ingress.entry(ingress).or_default();
                    gap.add_term(bv, 1.0);
                    gap.add_term(builder.a[fi][ti], -1.0);
                }
            }
            if gap_by_ingress.is_empty() {
                continue;
            }
            let gaps: Vec<LinExpr> = gap_by_ingress.into_values().collect();
            let budget = LinExpr::term(uf, topo.capacity(e)) - load;
            constrain_any_m_sum_le(&mut builder.model, gaps, ffc.kc, budget, ffc.encoding);
        }
    } else {
        // uf tracks u when unused so reporting stays meaningful.
        builder
            .model
            .add_con(LinExpr::from(uf) - LinExpr::from(u), Cmp::Eq, 0.0);
    }

    // Objective: Θ(u) + σ·Θ(u_f), Θ = identity.
    let sigma_eff = if ffc.kc > 0 { sigma } else { 0.0 };
    let obj = LinExpr::from(u) + LinExpr::term(uf, sigma_eff);
    builder.model.set_objective(obj, Sense::Minimize);

    let sol = builder.model.solve()?;
    let mlu = sol.value(u);
    let fault_mlu = sol.value(uf).max(mlu);
    Ok(MluSolution {
        config: builder.extract(&sol),
        mlu,
        fault_mlu,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffc_net::prelude::*;

    fn setup() -> (Topology, TrafficMatrix, TunnelTable) {
        let mut t = Topology::new();
        let ns = t.add_nodes(3, "s");
        t.add_link(ns[0], ns[2], 10.0);
        t.add_link(ns[0], ns[1], 10.0);
        t.add_link(ns[1], ns[2], 10.0);
        let mut tm = TrafficMatrix::new();
        tm.add_flow(ns[0], ns[2], 12.0, Priority::High);
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
        (t, tm, tt)
    }

    #[test]
    fn balances_to_minimize_mlu() {
        let (topo, tm, tt) = setup();
        let old = TeConfig::zero(&tt);
        let sol = solve_min_mlu(&topo, &tm, &tt, &old, &FfcConfig::none(), 1.0).unwrap();
        // 12 units over two 10-capacity paths: best split 6/6, MLU 0.6.
        assert!((sol.mlu - 0.6).abs() < 1e-5, "mlu {}", sol.mlu);
        assert!((sol.config.rate[0] - 12.0).abs() < 1e-9);
        assert!((sol.fault_mlu - sol.mlu).abs() < 1e-9);
    }

    #[test]
    fn mlu_can_exceed_one() {
        let (topo, tm, tt) = setup();
        let mut tm2 = tm.clone();
        tm2.set_demand(FlowId(0), 30.0);
        let old = TeConfig::zero(&tt);
        let sol = solve_min_mlu(&topo, &tm2, &tt, &old, &FfcConfig::none(), 1.0).unwrap();
        // 30 over 20 capacity: MLU 1.5.
        assert!((sol.mlu - 1.5).abs() < 1e-5, "mlu {}", sol.mlu);
    }

    #[test]
    fn data_ffc_forces_backup_headroom() {
        let (topo, tm, tt) = setup();
        let old = TeConfig::zero(&tt);
        let sol = solve_min_mlu(&topo, &tm, &tt, &old, &FfcConfig::new(0, 1, 0), 1.0).unwrap();
        // τ=1: each tunnel alone must cover d=12 -> per-tunnel alloc 12
        // on 10-capacity links -> MLU 1.2.
        assert!((sol.mlu - 1.2).abs() < 1e-4, "mlu {}", sol.mlu);
    }

    #[test]
    fn control_ffc_bounds_fault_mlu() {
        let (topo, tm, tt) = setup();
        // Old config: everything on the via path.
        let old = TeConfig {
            rate: vec![12.0],
            alloc: vec![vec![0.0, 12.0]],
        };
        let none = solve_min_mlu(&topo, &tm, &tt, &old, &FfcConfig::none(), 1.0).unwrap();
        let prot = solve_min_mlu(&topo, &tm, &tt, &old, &FfcConfig::new(1, 0, 0), 1.0).unwrap();
        // A stale s0 sends all 12 on the via path: fault MLU ≥ 1.2
        // regardless; the protected objective must report it.
        assert!(prot.fault_mlu >= 1.2 - 1e-5, "fault mlu {}", prot.fault_mlu);
        // Normal-case MLU should not be much worse than unprotected.
        assert!(
            prot.mlu <= none.mlu + 0.61,
            "mlu {} vs {}",
            prot.mlu,
            none.mlu
        );
    }
}
