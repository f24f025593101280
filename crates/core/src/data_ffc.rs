//! Data-plane FFC — paper §4.3 and §4.4.1 (Eqns 9, 15).
//!
//! Guarantee: after up to `ke` link failures and `kv` switch failures
//! (and the ingress switches' proportional rescaling), no link is
//! overloaded. Per Lemma 1, it suffices that every flow's residual
//! tunnels can hold its granted rate:
//!
//! ```text
//! ∀f, (µ,η) ∈ U_{ke,kv}:  Σ_{t ∈ T_f^{µ,η}} a_{f,t} ≥ b_f     (9)
//! ```
//!
//! With `(p_f, q_f)` link-switch disjoint tunnels, any such fault leaves
//! at least `τ_f = |T_f| − ke·p_f − kv·q_f` tunnels, so Eqn 9 is implied
//! by one bounded M-sum constraint per flow (Eqn 15):
//!
//! ```text
//! ∀f: Σ_{j=1..τ_f} (j-th smallest a_{f,t}) ≥ b_f
//! ```
//!
//! This transformation is safe but not equivalent in general (it also
//! protects *any* fault combination killing ≤ `|T_f| − τ_f` tunnels —
//! the paper exploits exactly this to get switch protection "for free",
//! §4.4.1); it *is* equivalent for link failures with link-disjoint
//! tunnels and switch failures with switch-disjoint tunnels.
//!
//! The §6 *mice-flow* optimization is included: flows collectively
//! carrying less than a threshold share of traffic skip the sorting
//! network and instead pin `a_{f,t} = b_f / τ_f`, which satisfies Eqn 15
//! by construction. *Which* flows are pinned is an input of the build
//! ([`apply_data_ffc`]'s `mice`), not something it derives: a one-shot
//! solve passes the greedy set [`mice_flags`] picks from its traffic
//! matrix, while a caller with a history keeps a set standing for as
//! long as §6's own criterion holds ([`standing_mice`]) — the paper asks
//! that the pinned flows stay under the share, not that the set be
//! re-derived from every noisy demand sample.
//!
//! # Example
//! ```
//! use ffc_core::{apply_data_ffc, mice_flags, DataFfc, TeModelBuilder, TeProblem};
//! use ffc_net::prelude::*;
//!
//! let mut topo = Topology::new();
//! let (a, b, c) = (topo.add_node("a"), topo.add_node("b"), topo.add_node("c"));
//! topo.add_bidi(a, c, 10.0);
//! topo.add_bidi(a, b, 10.0);
//! topo.add_bidi(b, c, 10.0);
//! let mut tm = TrafficMatrix::new();
//! tm.add_flow(a, c, 8.0, Priority::High);
//! let tunnels = layout_tunnels(&topo, &tm, &LayoutConfig::default());
//!
//! let mut builder = TeModelBuilder::new(TeProblem::new(&topo, &tm, &tunnels));
//! // Survive 1 link failure; pin the flows under 1 % of demand (none here).
//! apply_data_ffc(&mut builder, &DataFfc::new(1, 0), &mice_flags(&tm, 0.01));
//! let cfg = builder.solve().unwrap();
//! // With two disjoint tunnels and τ = 1, each alone covers the rate.
//! for (f, _) in tm.iter() {
//!     for &alloc in &cfg.alloc[f.index()] {
//!         assert!(alloc >= cfg.rate[f.index()] - 1e-6);
//!     }
//! }
//! ```
use std::ops::Range;

use ffc_lp::{BasisStatuses, Cmp, ColStatus, LinExpr, Model, VarId};
use ffc_net::tunnel::residual_tunnel_bound;
use ffc_net::{FlowId, TrafficMatrix, TunnelTable};

use crate::bounded_msum::{constrain_any_m_sum_ge, MsumEncoding};
use crate::te::TeModelBuilder;

/// Parameters for data-plane FFC.
#[derive(Debug, Clone)]
pub struct DataFfc {
    /// Link failures to tolerate (`k_e`).
    pub ke: usize,
    /// Switch failures to tolerate (`k_v`).
    pub kv: usize,
    /// Bounded M-sum encoding.
    pub encoding: MsumEncoding,
}

impl DataFfc {
    /// Data-plane FFC with the paper's default sorting-network encoding.
    pub fn new(ke: usize, kv: usize) -> Self {
        DataFfc {
            ke,
            kv,
            encoding: MsumEncoding::SortingNetwork,
        }
    }
}

/// Which structural branch data-plane FFC took per flow, and where it
/// put it — the facts the delta-LP cache (see [`crate::incremental`])
/// compares its next inputs against to decide whether a patch is sound
/// or the constraint shape changed, and what a basis needs to follow a
/// mice-set change ([`DataFfcLayout::carry_basis`]). Every vector is
/// indexed by flow; all are empty when data-plane FFC was inactive
/// (`ke == kv == 0`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DataFfcLayout {
    /// The §6 mice set the model was built with (pinned equal-split
    /// rows), as handed to [`apply_data_ffc`].
    pub mice: Vec<bool>,
    /// The residual-tunnel bound `τ_f` per flow (0 both for flows whose
    /// tunnels can all die and for flows with no tunnels at all).
    pub tau: Vec<usize>,
    /// The model variables each flow's block added (its M-sum network's
    /// comparators; empty for a pinned mouse). The blocks follow each
    /// other in flow order, and they are the only part of the build the
    /// mice set shapes.
    pub vars: Vec<Range<usize>>,
    /// The constraints each flow's block added (its pin rows or its
    /// M-sum rows), in flow order like `vars`.
    pub cons: Vec<Range<usize>>,
}

impl DataFfcLayout {
    /// Whether flow `fi`'s granted rate was pinned to zero (`τ_f = 0`
    /// with at least one tunnel), so its demand bound must *not* be
    /// patched on a demand tick.
    pub fn rate_pinned(&self, fi: usize, num_tunnels: usize) -> bool {
        !self.tau.is_empty() && self.tau[fi] == 0 && num_tunnels > 0
    }

    /// The layout the same build records with the mice set `mice`
    /// instead: a flow whose flag is unchanged keeps its block's size,
    /// a flipped flow takes the other branch's, and the blocks start
    /// where this layout's do.
    fn with_mice(
        &self,
        mice: &[bool],
        tunnels: &TunnelTable,
        encoding: MsumEncoding,
    ) -> DataFfcLayout {
        let mut var = self.vars.first().map_or(0, |r| r.start);
        let mut con = self.cons.first().map_or(0, |r| r.start);
        let mut other = DataFfcLayout {
            mice: mice.to_vec(),
            tau: self.tau.clone(),
            ..DataFfcLayout::default()
        };
        let blocks = self.vars.iter().zip(&self.cons).zip(&self.tau);
        let flags = self.mice.iter().zip(mice);
        for (fi, (((vars, cons), &tau), (&was, &mouse))) in blocks.zip(flags).enumerate() {
            let (nv, nc) = if mouse == was {
                (vars.len(), cons.len())
            } else {
                let num_tunnels = tunnels.tunnels(FlowId(fi)).len();
                block_size(num_tunnels, tau, mouse, encoding)
            };
            other.vars.push(var..var + nv);
            other.cons.push(con..con + nc);
            var += nv;
            con += nc;
        }
        other
    }

    /// Carries `hint`, a basis of the model built from the same inputs
    /// with the mice set `from`, onto `model`, the one built with
    /// `self.mice` (`tunnels` and `encoding` are the build's). The rest
    /// of the two builds is identical, only shifted, so every column and
    /// row outside the flipped flows' blocks keeps its status; the new
    /// blocks' rows take their slacks and their columns go nonbasic at a
    /// bound. [`Model::complete_basis`] then settles the result to a
    /// nonsingular start. `None` when `hint` does not have the size of
    /// the `from` model; with `from == self.mice`, the identity up to
    /// that completion.
    pub fn carry_basis(
        &self,
        model: &Model,
        tunnels: &TunnelTable,
        encoding: MsumEncoding,
        from: &[bool],
        hint: &BasisStatuses,
    ) -> Option<BasisStatuses> {
        if from.len() != self.mice.len() {
            return None;
        }
        let old = self.with_mice(from, tunnels, encoding);
        let span = |blocks: &[Range<usize>]| {
            let start = blocks.first().map_or(0, |r| r.start);
            start..blocks.last().map_or(start, |r| r.end)
        };
        // Index `j` of the new model in the old one: the same before the
        // blocks, shifted after them, moved with an unflipped block, and
        // nowhere inside a flipped one.
        let origin = |j: usize, new: &[Range<usize>], old: &[Range<usize>]| -> Option<usize> {
            let (new_span, old_span) = (span(new), span(old));
            if j < new_span.start {
                return Some(j);
            }
            if j >= new_span.end {
                return Some(j - new_span.end + old_span.end);
            }
            let fi = new.partition_point(|r| r.end <= j);
            let (new, old) = (new.get(fi)?, old.get(fi)?);
            (self.mice.get(fi)? == from.get(fi)?).then(|| old.start + (j - new.start))
        };
        let n_cons = model.num_cons();
        let old_vars = model.num_vars() - span(&self.vars).len() + span(&old.vars).len();
        let old_cons = n_cons - span(&self.cons).len() + span(&old.cons).len();
        if hint.0.len() != old_vars + old_cons {
            return None;
        }
        let was = |j: Option<usize>| j.and_then(|j| hint.0.get(j).copied());
        let vars = model.var_ids().map(|v| {
            was(origin(v.index(), &self.vars, &old.vars)).unwrap_or_else(|| {
                match model.var_bounds(v) {
                    (l, _) if l.is_finite() => ColStatus::Lower,
                    (_, u) if u.is_finite() => ColStatus::Upper,
                    _ => ColStatus::Free,
                }
            })
        });
        let slacks = (0..n_cons).map(|i| {
            let i = origin(i, &self.cons, &old.cons).map(|i| old_vars + i);
            was(i).unwrap_or(ColStatus::Basic)
        });
        model.complete_basis(&BasisStatuses(vars.chain(slacks).collect()))
    }
}

/// The variables and constraints [`apply_data_ffc`] adds for one flow
/// with `num_tunnels` tunnels, residual bound `tau` and mice flag
/// `mouse`, counted on a scratch model.
fn block_size(
    num_tunnels: usize,
    tau: usize,
    mouse: bool,
    encoding: MsumEncoding,
) -> (usize, usize) {
    let mut scratch = Model::new();
    let a: Vec<VarId> = (0..num_tunnels)
        .map(|_| scratch.add_var_unnamed(0.0, f64::INFINITY))
        .collect();
    let b = scratch.add_var_unnamed(0.0, f64::INFINITY);
    let (vars, cons) = (scratch.num_vars(), scratch.num_cons());
    add_flow_block(&mut scratch, &a, b, tau, mouse, encoding);
    (scratch.num_vars() - vars, scratch.num_cons() - cons)
}

/// The greedy §6 mice-flow set of a traffic matrix: flows are sorted by
/// demand and the smallest ones, collectively carrying less than
/// `mice_fraction` of total demand, are flagged (`0.0` flags none — the
/// exact formulation for every flow). The only chooser of a mice set:
/// one-shot builds use it as is, [`standing_mice`] decides when a caller
/// with a history takes a new one.
pub fn mice_flags(tm: &TrafficMatrix, mice_fraction: f64) -> Vec<bool> {
    let mut mice = vec![false; tm.len()];
    if mice_fraction > 0.0 {
        let total = tm.total_demand();
        let mut order: Vec<_> = tm.iter().map(|(id, f)| (id, f.demand)).collect();
        order.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut acc = 0.0;
        for (id, demand) in order {
            acc += demand;
            if acc < mice_fraction * total {
                mice[id.index()] = true;
            } else {
                break;
            }
        }
    }
    mice
}

/// The mice set a caller with a history builds with: `prev` for as long
/// as it is still a §6 mice set of `tm`, the greedy [`mice_flags`] set
/// otherwise (no history, another flow count, or a condition broken).
/// `prev` stands while **(a)** its flows together carry less than
/// `mice_fraction` of total demand — the paper's criterion — and
/// **(b)** the greedy set has no more members, so a standing set never
/// pins fewer flows than a fresh one would. Under per-flow demand noise
/// the greedy set's *identity* flips whenever two near-equal small flows
/// trade places; the set standing through that is what keeps the
/// controller's model (and its chained basis) from being rebuilt for a
/// change that moved no constraint's meaning.
pub fn standing_mice(prev: Option<&[bool]>, tm: &TrafficMatrix, mice_fraction: f64) -> Vec<bool> {
    let greedy = mice_flags(tm, mice_fraction);
    let Some(prev) = prev.filter(|p| p.len() == tm.len()) else {
        return greedy;
    };
    let members = |flags: &[bool]| flags.iter().filter(|&&m| m).count();
    let share: f64 = tm
        .iter()
        .zip(prev)
        .filter(|(_, &mouse)| mouse)
        .map(|((_, flow), _)| flow.demand)
        .sum();
    if share < mice_fraction * tm.total_demand() && members(&greedy) <= members(prev) {
        prev.to_vec()
    } else {
        greedy
    }
}

/// The residual-tunnel bound `τ_f` per flow for a protection level
/// (0 for flows without tunnels). Purely structural: depends on the
/// tunnel layout and `(ke, kv)`, never on demands.
pub fn tau_per_flow(
    tm: &TrafficMatrix,
    tunnels: &ffc_net::TunnelTable,
    ke: usize,
    kv: usize,
) -> Vec<usize> {
    tm.ids()
        .map(|f| {
            let ts = tunnels.tunnels(f);
            if ts.is_empty() {
                0
            } else {
                let d = ffc_net::tunnel::disjointness(ts);
                residual_tunnel_bound(ts.len(), d, ke, kv)
            }
        })
        .collect()
}

/// Adds data-plane FFC constraints to a TE model under construction,
/// returning which branch each flow took (for the incremental cache).
/// `mice` flags, per flow, the §6 set to pin — [`mice_flags`] of the
/// builder's traffic matrix for a one-shot build.
///
/// # Panics
/// If `mice` is not one flag per flow.
pub fn apply_data_ffc(
    builder: &mut TeModelBuilder<'_>,
    ffc: &DataFfc,
    mice: &[bool],
) -> DataFfcLayout {
    if ffc.ke == 0 && ffc.kv == 0 {
        return DataFfcLayout::default();
    }
    let tm = builder.problem.tm;
    let tunnels = builder.problem.tunnels;
    assert_eq!(mice.len(), tm.len(), "one mice flag per flow");
    let tau = tau_per_flow(tm, tunnels, ffc.ke, ffc.kv);
    let mut layout = DataFfcLayout {
        mice: mice.to_vec(),
        tau,
        vars: Vec::with_capacity(tm.len()),
        cons: Vec::with_capacity(tm.len()),
    };
    let flows = builder.a.iter().zip(&builder.b).zip(&layout.tau).zip(mice);
    for (((a, &b), &tau), &mouse) in flows {
        let model = &mut builder.model;
        let (vars, cons) = (model.num_vars(), model.num_cons());
        add_flow_block(model, a, b, tau, mouse, ffc.encoding);
        layout.vars.push(vars..model.num_vars());
        layout.cons.push(cons..model.num_cons());
    }
    layout
}

/// Adds one flow's data-plane FFC block: the flow's tunnel allocations
/// `a`, its rate `b`, its residual bound `tau`, and whether it is a §6
/// mouse.
fn add_flow_block(
    model: &mut Model,
    a: &[VarId],
    b: VarId,
    tau: usize,
    mouse: bool,
    encoding: MsumEncoding,
) {
    if a.is_empty() {
        // No tunnels at all: basic TE already forces b_f = 0.
        return;
    }
    if tau == 0 {
        // Some in-scope fault can kill every tunnel: the flow must not
        // be granted anything (paper §4.3).
        model.set_bounds(b, 0.0, 0.0);
        return;
    }
    if tau >= a.len() {
        // No tunnel can be lost within the protection level; Eqn 3
        // already covers the full sum.
        return;
    }
    if mouse {
        // §6: pin a_{f,t} = b_f / τ_f.
        for &at in a {
            let expr = LinExpr::term(at, tau as f64) - LinExpr::from(b);
            model.add_con(expr, Cmp::Eq, 0.0);
        }
        return;
    }
    let exprs: Vec<LinExpr> = a.iter().map(|&v| LinExpr::from(v)).collect();
    constrain_any_m_sum_ge(model, exprs, tau, LinExpr::from(b), encoding);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rescale::rescaled_link_loads;
    use crate::te::{solve_te, TeModelBuilder, TeProblem};
    use ffc_net::failure::link_combinations_up_to;
    use ffc_net::prelude::*;

    /// The paper's Figure 2/4 topology: s1, s2, s3 feeding s4 with
    /// detour links between sources; all capacities 10.
    ///
    /// Figure 2: flows s2→s4 and s3→s4. Each flow has tunnels: direct,
    /// and via s1. Link s2-s4 failure forces s2's rescaling onto
    /// s2-s1-s4, which congests s1-s4 unless FFC spread traffic as in
    /// Figure 4(a).
    fn fig2() -> (Topology, TrafficMatrix, TunnelTable) {
        let mut t = Topology::new();
        let ns = t.add_nodes(4, "s"); // 0=s1, 1=s2, 2=s3, 3=s4
        t.add_link(ns[1], ns[0], 20.0); // s2 -> s1
        t.add_link(ns[2], ns[0], 20.0); // s3 -> s1
        t.add_link(ns[1], ns[3], 10.0); // s2 -> s4
        t.add_link(ns[2], ns[3], 10.0); // s3 -> s4
        t.add_link(ns[0], ns[3], 10.0); // s1 -> s4
        let mut tm = TrafficMatrix::new();
        tm.add_flow(ns[1], ns[3], 8.0, Priority::High); // s2 -> s4
        tm.add_flow(ns[2], ns[3], 8.0, Priority::High); // s3 -> s4
        let mk = |topo: &Topology, hops: &[NodeId]| {
            let links = hops
                .windows(2)
                .map(|w| topo.find_link(w[0], w[1]).unwrap())
                .collect();
            Tunnel::from_path(topo, ffc_net::Path { links })
        };
        let mut tt = TunnelTable::new(2);
        tt.push(FlowId(0), mk(&t, &[ns[1], ns[3]]));
        tt.push(FlowId(0), mk(&t, &[ns[1], ns[0], ns[3]]));
        tt.push(FlowId(1), mk(&t, &[ns[2], ns[3]]));
        tt.push(FlowId(1), mk(&t, &[ns[2], ns[0], ns[3]]));
        (t, tm, tt)
    }

    fn solve_data_ffc(
        topo: &Topology,
        tm: &TrafficMatrix,
        tt: &TunnelTable,
        ffc: &DataFfc,
    ) -> crate::te::TeConfig {
        let mut builder = TeModelBuilder::new(TeProblem::new(topo, tm, tt));
        apply_data_ffc(&mut builder, ffc, &mice_flags(tm, 0.0));
        builder.solve().expect("feasible")
    }

    /// Exhaustive check: for every ≤ke-link-failure scenario, rescaled
    /// loads stay within capacity (Lemma 1 realized).
    fn assert_robust_to_link_failures(
        topo: &Topology,
        tm: &TrafficMatrix,
        tt: &TunnelTable,
        cfg: &crate::te::TeConfig,
        ke: usize,
    ) {
        let all_links: Vec<LinkId> = topo.links().collect();
        for scenario in link_combinations_up_to(&all_links, ke) {
            let loads = rescaled_link_loads(topo, tm, tt, cfg, &scenario);
            for e in topo.links() {
                if scenario.link_dead(topo, e) {
                    continue;
                }
                assert!(
                    loads.load[e.index()] <= topo.capacity(e) + 1e-5,
                    "scenario {:?} overloads {e}: {} > {}",
                    scenario.failed_links,
                    loads.load[e.index()],
                    topo.capacity(e)
                );
            }
        }
    }

    #[test]
    fn without_ffc_rescaling_congests() {
        let (topo, tm, tt) = fig2();
        let cfg = solve_te(TeProblem::new(&topo, &tm, &tt)).unwrap();
        assert!((cfg.throughput() - 16.0).abs() < 1e-5);
        // Fail link s2->s4 and rescale: some placements congest s1->s4.
        // (The plain TE is free to pick a congesting or non-congesting
        // split; we only check FFC's guarantee below, and here just that
        // total traffic moved exceeds the remaining direct capacity in
        // the worst placement: 16 demand vs 10+10... not asserted.)
    }

    #[test]
    fn ffc_k1_survives_any_single_link_failure() {
        let (topo, tm, tt) = fig2();
        let ffc = DataFfc::new(1, 0);
        let cfg = solve_data_ffc(&topo, &tm, &tt, &ffc);
        assert_robust_to_link_failures(&topo, &tm, &tt, &cfg, 1);
        // With two disjoint tunnels and τ = 1, Eqn 15 forces *both*
        // allocations ≥ b_f (either tunnel may be the survivor), so the
        // shared backup link s1-s4 caps b0 + b1 at 10. That is also the
        // true optimum: failing s2-s4 moves all of b0 onto s1-s4, which
        // already carries flow 1's via-allocation.
        assert!(
            (cfg.throughput() - 10.0).abs() < 1e-4,
            "throughput {}",
            cfg.throughput()
        );
    }

    #[test]
    fn ffc_never_beats_plain_te() {
        let (topo, tm, tt) = fig2();
        let base = solve_te(TeProblem::new(&topo, &tm, &tt))
            .unwrap()
            .throughput();
        for ke in 0..3 {
            let ffc = DataFfc::new(ke, 0);
            let cfg = solve_data_ffc(&topo, &tm, &tt, &ffc);
            assert!(cfg.throughput() <= base + 1e-6);
        }
    }

    #[test]
    fn tau_zero_zeroes_flow() {
        let (topo, tm, tt) = fig2();
        // ke=2 with p=1 and 2 tunnels -> tau = 0: flows must be zeroed.
        let ffc = DataFfc::new(2, 0);
        let cfg = solve_data_ffc(&topo, &tm, &tt, &ffc);
        assert!(cfg.throughput().abs() < 1e-9);
    }

    #[test]
    fn switch_protection_via_kv() {
        let (topo, tm, tt) = fig2();
        // Both flows' tunnels share only transit switch s1 (q=1).
        // kv=1 -> tau = 2 - 1 = 1 per flow.
        let ffc = DataFfc::new(0, 1);
        let cfg = solve_data_ffc(&topo, &tm, &tt, &ffc);
        // q = 1 (only transit switch s1, used once per flow), so
        // τ = 2 − 1 = 1 and Eqn 15 requires both allocations ≥ b_f.
        // This is *conservative* here: the only killable tunnel is the
        // via-s1 one, so the true requirement (Eqn 9) would be just
        // a_direct ≥ b_f and allow throughput 16. Eqn 15's extra
        // protection ("any single tunnel may die") caps it at 10 —
        // the imprecision the paper discusses in §4.4.1.
        assert!(
            (cfg.throughput() - 10.0).abs() < 1e-4,
            "{}",
            cfg.throughput()
        );
        // The direct-tunnel allocation covers the rate.
        for f in 0..2 {
            assert!(cfg.alloc[f][0] >= cfg.rate[f] - 1e-6);
        }
    }

    #[test]
    fn mice_flows_get_equal_split() {
        let (topo, _, _) = fig2();
        let ns: Vec<NodeId> = topo.nodes().collect();
        let mut tm = TrafficMatrix::new();
        // Demands chosen so both flows fit fully even with FFC backup
        // reservations (no tie for the optimizer to break against the
        // mouse): elephant 9 + mouse 0.05 on a 10-capacity backup link.
        tm.add_flow(ns[1], ns[3], 9.0, Priority::High);
        tm.add_flow(ns[2], ns[3], 0.05, Priority::High); // a mouse
        let mk = |hops: &[NodeId]| {
            let links = hops
                .windows(2)
                .map(|w| topo.find_link(w[0], w[1]).unwrap())
                .collect();
            Tunnel::from_path(&topo, ffc_net::Path { links })
        };
        let mut tt = TunnelTable::new(2);
        tt.push(FlowId(0), mk(&[ns[1], ns[3]]));
        tt.push(FlowId(0), mk(&[ns[1], ns[0], ns[3]]));
        tt.push(FlowId(1), mk(&[ns[2], ns[3]]));
        tt.push(FlowId(1), mk(&[ns[2], ns[0], ns[3]]));
        let mice = mice_flags(&tm, 0.01);
        assert_eq!(mice, [false, true]);
        let mut builder = TeModelBuilder::new(TeProblem::new(&topo, &tm, &tt));
        apply_data_ffc(&mut builder, &DataFfc::new(1, 0), &mice);
        let cfg = builder.solve().unwrap();
        // Mouse flow (τ=1): a_{f,t} = b_f for each tunnel.
        let b = cfg.rate[1];
        assert!(b > 0.0);
        for &a in &cfg.alloc[1] {
            assert!((a - b).abs() < 1e-6, "a={a} b={b}");
        }
        // And the mouse's config survives any single link failure too.
        assert_robust_to_link_failures(&topo, &tm, &tt, &cfg, 1);
    }

    /// A traffic matrix with the given per-flow demands.
    fn tm_of(demands: &[f64]) -> TrafficMatrix {
        let mut tm = TrafficMatrix::new();
        for (i, &d) in demands.iter().enumerate() {
            tm.add_flow(NodeId(i), NodeId(i + 1), d, Priority::High);
        }
        tm
    }

    /// The one rule that keeps or replaces a mice set, case by case.
    #[test]
    fn standing_mice_keeps_a_set_while_it_is_one() {
        // Σ = 200, share 1 % = 2.0: the greedy set is the two smallest.
        let tm = tm_of(&[0.5, 0.9, 0.95, 97.65, 100.0]);
        let greedy = mice_flags(&tm, 0.01);
        assert_eq!(greedy, [true, true, false, false, false]);

        // No history: the greedy set.
        assert_eq!(standing_mice(None, &tm, 0.01), greedy);

        // Identity swap: flows 1 and 2 trade places under noise. The
        // greedy set moves, the standing pair still qualifies: it stays.
        let swapped = tm_of(&[0.5, 0.96, 0.9, 97.64, 100.0]);
        assert_eq!(
            mice_flags(&swapped, 0.01),
            [true, false, true, false, false]
        );
        assert_eq!(standing_mice(Some(&greedy), &swapped, 0.01), greedy);

        // (a) broken: a pinned flow grows past the share.
        let grown = tm_of(&[0.5, 3.0, 0.95, 95.55, 100.0]);
        let after = standing_mice(Some(&greedy), &grown, 0.01);
        assert_eq!(after, mice_flags(&grown, 0.01));
        assert_eq!(after, [true, false, true, false, false]);

        // (b) broken: the greedy set gains a member (the input of
        // `incremental::tests::mice_set_flip_rebuilds`).
        let ring = tm_of(&[0.01, 6.0, 6.0]);
        assert_eq!(
            standing_mice(Some(&[false; 3]), &ring, 0.05),
            [true, false, false]
        );

        // fraction = 0: nothing is ever a mouse, whatever stood.
        assert_eq!(standing_mice(Some(&greedy), &tm, 0.0), [false; 5]);
        assert_eq!(standing_mice(None, &tm, 0.0), [false; 5]);

        // Another flow count: the history is not about this matrix.
        assert_eq!(standing_mice(Some(&greedy[..4]), &tm, 0.01), greedy);
        assert_eq!(standing_mice(Some(&[true; 6]), &tm, 0.01), greedy);
    }

    #[test]
    fn encodings_agree_on_fig2() {
        let (topo, tm, tt) = fig2();
        let mut objs = Vec::new();
        for enc in [MsumEncoding::SortingNetwork, MsumEncoding::Enumeration] {
            let ffc = DataFfc {
                ke: 1,
                kv: 0,
                encoding: enc,
            };
            objs.push(solve_data_ffc(&topo, &tm, &tt, &ffc).throughput());
        }
        assert!((objs[0] - objs[1]).abs() < 1e-5, "{objs:?}");
    }
}
