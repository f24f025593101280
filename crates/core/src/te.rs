//! The basic (non-FFC) traffic-engineering LP — paper §4.1, Eqns 1–4.
//!
//! Input: graph `G`, flows with demands `d_f`, tunnels `T_f`, capacities
//! `c_e`. Output: granted bandwidth `b_f` per flow and per-tunnel
//! allocations `a_{f,t}`:
//!
//! ```text
//! max  Σ_f b_f                                        (1)
//! s.t. ∀e: Σ_{f,t} a_{f,t}·L[t,e] ≤ c_e               (2)
//!      ∀f: Σ_t a_{f,t} ≥ b_f                          (3)
//!      ∀f,t: 0 ≤ b_f ≤ d_f, 0 ≤ a_{f,t}               (4)
//! ```
//!
//! [`TeModelBuilder`] assembles this LP and exposes its variables so the
//! FFC modules can graft their constraints on top before solving.

use ffc_lp::{Cmp, LinExpr, LpError, Model, Sense, VarId};
use ffc_net::{FlowId, LinkId, Topology, TrafficMatrix, TunnelTable};

/// A TE configuration: granted rates and per-tunnel allocations.
///
/// This doubles as the "old configuration" input to control-plane FFC
/// (the `{b'_f}, {a'_{f,t}}` of paper §4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct TeConfig {
    /// Granted bandwidth `b_f` per flow.
    pub rate: Vec<f64>,
    /// Allocation `a_{f,t}` per flow per tunnel (shape mirrors the
    /// [`TunnelTable`]).
    pub alloc: Vec<Vec<f64>>,
}

impl TeConfig {
    /// An all-zero configuration matching a tunnel table's shape.
    pub fn zero(tunnels: &TunnelTable) -> TeConfig {
        TeConfig {
            rate: vec![0.0; tunnels.num_flows()],
            alloc: (0..tunnels.num_flows())
                .map(|f| vec![0.0; tunnels.tunnels(FlowId(f)).len()])
                .collect(),
        }
    }

    /// Total granted throughput `Σ_f b_f`.
    pub fn throughput(&self) -> f64 {
        self.rate.iter().sum()
    }

    /// Traffic-splitting weights `w_{f,t} = a_{f,t} / Σ_t a_{f,t}` for
    /// one flow (paper §4.1). All-zero allocations give all-zero weights.
    pub fn weights(&self, f: FlowId) -> Vec<f64> {
        let a = &self.alloc[f.index()];
        let sum: f64 = a.iter().sum();
        if sum <= 0.0 {
            vec![0.0; a.len()]
        } else {
            a.iter().map(|&x| x / sum).collect()
        }
    }

    /// All splitting weights.
    pub fn all_weights(&self) -> Vec<Vec<f64>> {
        (0..self.alloc.len())
            .map(|f| self.weights(FlowId(f)))
            .collect()
    }

    /// The *allocated* load each link would carry if every flow filled
    /// its allocation (`Σ_{f,t} a_{f,t}·L[t,e]`) — the quantity bounded
    /// by Eqn 2.
    pub fn link_alloc(&self, topo: &Topology, tunnels: &TunnelTable) -> Vec<f64> {
        let mut load = vec![0.0; topo.num_links()];
        for (f, ti, tunnel) in tunnels.iter_all() {
            let a = self.alloc[f.index()][ti];
            if a > 0.0 {
                for &l in &tunnel.links {
                    load[l.index()] += a;
                }
            }
        }
        load
    }

    /// The *actual* traffic each link carries when every flow sends
    /// `b_f` split by its weights (`Σ_{f,t} b_f·w_{f,t}·L[t,e]`), with no
    /// faults.
    pub fn link_traffic(&self, topo: &Topology, tunnels: &TunnelTable) -> Vec<f64> {
        let mut load = vec![0.0; topo.num_links()];
        for fi in 0..self.alloc.len() {
            let f = FlowId(fi);
            let w = self.weights(f);
            let rate = self.rate[fi];
            if rate <= 0.0 {
                continue;
            }
            for (ti, tunnel) in tunnels.tunnels(f).iter().enumerate() {
                let traffic = rate * w[ti];
                if traffic > 0.0 {
                    for &l in &tunnel.links {
                        load[l.index()] += traffic;
                    }
                }
            }
        }
        load
    }
}

/// The immutable inputs of one TE computation.
#[derive(Debug, Clone, Copy)]
pub struct TeProblem<'a> {
    /// The network graph.
    pub topo: &'a Topology,
    /// Flows and demands for this interval.
    pub tm: &'a TrafficMatrix,
    /// Pre-established tunnels per flow.
    pub tunnels: &'a TunnelTable,
    /// Per-link capacity already consumed (e.g. by higher-priority
    /// traffic in the cascading multi-priority computation, §5.1).
    /// `None` means the full link capacities are available.
    pub reserved: Option<&'a [f64]>,
}

impl<'a> TeProblem<'a> {
    /// A problem using full link capacities.
    pub fn new(topo: &'a Topology, tm: &'a TrafficMatrix, tunnels: &'a TunnelTable) -> Self {
        TeProblem {
            topo,
            tm,
            tunnels,
            reserved: None,
        }
    }

    /// Residual capacity of a link after reservations.
    pub fn capacity(&self, e: LinkId) -> f64 {
        let c = self.topo.capacity(e);
        match self.reserved {
            Some(r) => (c - r[e.index()]).max(0.0),
            None => c,
        }
    }
}

/// The basic TE LP under construction, with handles to its variables so
/// FFC constraint generators can extend it.
pub struct TeModelBuilder<'a> {
    /// The wrapped LP model. FFC modules add their variables and
    /// constraints directly.
    pub model: Model,
    /// `b_f` variables, indexed by flow.
    pub b: Vec<VarId>,
    /// `a_{f,t}` variables, indexed by flow then tunnel position.
    pub a: Vec<Vec<VarId>>,
    /// For each link: the `(flow, tunnel_index)` pairs traversing it.
    pub link_tunnels: Vec<Vec<(FlowId, usize)>>,
    /// The problem being solved.
    pub problem: TeProblem<'a>,
}

impl<'a> TeModelBuilder<'a> {
    /// Builds the basic TE LP (Eqns 1–4).
    pub fn new(problem: TeProblem<'a>) -> Self {
        let tm = problem.tm;
        let tunnels = problem.tunnels;
        let topo = problem.topo;
        assert_eq!(
            tunnels.num_flows(),
            tm.len(),
            "tunnel table does not match traffic matrix"
        );
        let mut model = Model::new();

        // Variables (Eqn 4 bounds).
        let b: Vec<VarId> = tm
            .iter()
            .map(|(id, f)| model.add_var(0.0, f.demand.max(0.0), format!("b_{id}")))
            .collect();
        let a: Vec<Vec<VarId>> = tm
            .ids()
            .map(|f| {
                (0..tunnels.tunnels(f).len())
                    .map(|t| model.add_var(0.0, f64::INFINITY, format!("a_{f}_{t}")))
                    .collect()
            })
            .collect();

        // Link incidence.
        let mut link_tunnels: Vec<Vec<(FlowId, usize)>> = vec![Vec::new(); topo.num_links()];
        for (f, ti, tunnel) in tunnels.iter_all() {
            for &l in &tunnel.links {
                link_tunnels[l.index()].push((f, ti));
            }
        }

        // Eqn 2: link capacity.
        for e in topo.links() {
            if link_tunnels[e.index()].is_empty() {
                continue;
            }
            let mut expr = LinExpr::zero();
            for &(f, ti) in &link_tunnels[e.index()] {
                expr.add_term(a[f.index()][ti], 1.0);
            }
            model.add_con_named(expr, Cmp::Le, problem.capacity(e), format!("cap_{e}"));
        }

        // Eqn 3: tunnel allocations cover the granted rate.
        for f in tm.ids() {
            let mut expr = LinExpr::zero();
            for &v in &a[f.index()] {
                expr.add_term(v, 1.0);
            }
            expr.add_term(b[f.index()], -1.0);
            model.add_con_named(expr, Cmp::Ge, 0.0, format!("cover_{f}"));
        }

        // Eqn 1: maximize throughput (callers may override).
        let obj = LinExpr::sum(b.iter().copied());
        model.set_objective(obj, Sense::Maximize);

        TeModelBuilder {
            model,
            b,
            a,
            link_tunnels,
            problem,
        }
    }

    /// The capacity expression `Σ a_{f,t}` over tunnels crossing `e`
    /// (left-hand side of Eqn 2).
    pub fn link_load_expr(&self, e: LinkId) -> LinExpr {
        let mut expr = LinExpr::zero();
        for &(f, ti) in &self.link_tunnels[e.index()] {
            expr.add_term(self.a[f.index()][ti], 1.0);
        }
        expr
    }

    /// Solves the model cold with default options and extracts the TE
    /// configuration.
    pub fn solve(&self) -> Result<TeConfig, LpError> {
        Ok(self.solve_with(&Default::default(), None)?.0)
    }

    /// Solves with explicit simplex options, cold or from a warm-start
    /// basis (see [`ffc_lp::Model::solve_with`]), returning the
    /// configuration together with the raw LP solution (solver
    /// statistics, basis) for callers that chain or report them.
    pub fn solve_with(
        &self,
        opts: &ffc_lp::SimplexOptions,
        warm: Option<&ffc_lp::BasisStatuses>,
    ) -> Result<(TeConfig, ffc_lp::Solution), LpError> {
        let sol = self.model.solve_with(opts, warm)?;
        crate::verify::debug_certify_lp(self, &sol, "TeModelBuilder::solve_with");
        Ok((self.extract(&sol), sol))
    }

    /// Extracts a configuration from an LP solution.
    pub fn extract(&self, sol: &ffc_lp::Solution) -> TeConfig {
        extract_config(&self.b, &self.a, sol)
    }
}

/// Reads the granted rates `b_f` and tunnel allocations `a_{f,t}` out of
/// a solution of the model those variables belong to, clamping solver
/// noise below zero.
pub(crate) fn extract_config(b: &[VarId], a: &[Vec<VarId>], sol: &ffc_lp::Solution) -> TeConfig {
    TeConfig {
        rate: b.iter().map(|&v| sol.value(v).max(0.0)).collect(),
        alloc: a
            .iter()
            .map(|row| row.iter().map(|&v| sol.value(v).max(0.0)).collect())
            .collect(),
    }
}

/// Solves the plain (non-FFC) max-throughput TE problem.
pub fn solve_te(problem: TeProblem<'_>) -> Result<TeConfig, LpError> {
    TeModelBuilder::new(problem).solve()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffc_net::prelude::*;

    /// Paper Figure 2(a): s1,s2,s3 -> s4 style 4-node topology.
    fn four_node() -> (Topology, Vec<NodeId>) {
        let mut t = Topology::new();
        let ns = t.add_nodes(4, "s");
        // Links (directed pairs) with capacity 10.
        t.add_bidi(ns[0], ns[3], 10.0); // s1-s4
        t.add_bidi(ns[1], ns[3], 10.0); // s2-s4
        t.add_bidi(ns[2], ns[3], 10.0); // s3-s4
        t.add_bidi(ns[1], ns[0], 10.0); // s2-s1
        t.add_bidi(ns[2], ns[0], 10.0); // s3-s1
        (t, ns)
    }

    fn build_tunnels(topo: &Topology, tm: &TrafficMatrix) -> TunnelTable {
        layout_tunnels(
            topo,
            tm,
            &LayoutConfig {
                tunnels_per_flow: 3,
                p: 1,
                q: 3,
                reuse_penalty: 0.5,
            },
        )
    }

    #[test]
    fn saturates_single_flow() {
        let (topo, ns) = four_node();
        let mut tm = TrafficMatrix::new();
        tm.add_flow(ns[1], ns[3], 25.0, Priority::High);
        let tunnels = build_tunnels(&topo, &tm);
        let cfg = solve_te(TeProblem::new(&topo, &tm, &tunnels)).unwrap();
        // s2 can reach s4 direct (10) + via s1 (10): 20 total.
        assert!(
            (cfg.throughput() - 20.0).abs() < 1e-5,
            "got {}",
            cfg.throughput()
        );
    }

    #[test]
    fn respects_demand_cap() {
        let (topo, ns) = four_node();
        let mut tm = TrafficMatrix::new();
        tm.add_flow(ns[1], ns[3], 5.0, Priority::High);
        let tunnels = build_tunnels(&topo, &tm);
        let cfg = solve_te(TeProblem::new(&topo, &tm, &tunnels)).unwrap();
        assert!((cfg.throughput() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn no_link_overloaded() {
        let (topo, ns) = four_node();
        let mut tm = TrafficMatrix::new();
        tm.add_flow(ns[1], ns[3], 100.0, Priority::High);
        tm.add_flow(ns[2], ns[3], 100.0, Priority::High);
        tm.add_flow(ns[0], ns[3], 100.0, Priority::High);
        let tunnels = build_tunnels(&topo, &tm);
        let cfg = solve_te(TeProblem::new(&topo, &tm, &tunnels)).unwrap();
        let load = cfg.link_alloc(&topo, &tunnels);
        for e in topo.links() {
            assert!(
                load[e.index()] <= topo.capacity(e) + 1e-6,
                "link {e} overloaded: {}",
                load[e.index()]
            );
        }
    }

    #[test]
    fn reserved_capacity_shrinks_throughput() {
        let (topo, ns) = four_node();
        let mut tm = TrafficMatrix::new();
        tm.add_flow(ns[1], ns[3], 25.0, Priority::High);
        let tunnels = build_tunnels(&topo, &tm);
        let reserved = vec![5.0; topo.num_links()];
        let problem = TeProblem {
            topo: &topo,
            tm: &tm,
            tunnels: &tunnels,
            reserved: Some(&reserved),
        };
        let cfg = solve_te(problem).unwrap();
        // Each path loses 5 units: direct 5 + via-s1 5 = 10.
        assert!(cfg.throughput() <= 10.0 + 1e-6, "got {}", cfg.throughput());
    }

    #[test]
    fn weights_normalize() {
        let cfg = TeConfig {
            rate: vec![4.0],
            alloc: vec![vec![3.0, 1.0]],
        };
        let w = cfg.weights(FlowId(0));
        assert!((w[0] - 0.75).abs() < 1e-12);
        assert!((w[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_alloc_zero_weights() {
        let cfg = TeConfig {
            rate: vec![0.0],
            alloc: vec![vec![0.0, 0.0]],
        };
        assert_eq!(cfg.weights(FlowId(0)), vec![0.0, 0.0]);
    }

    #[test]
    fn link_traffic_uses_rates_not_allocs() {
        let (topo, ns) = four_node();
        let mut tm = TrafficMatrix::new();
        tm.add_flow(ns[1], ns[3], 4.0, Priority::High);
        let tunnels = build_tunnels(&topo, &tm);
        let nt = tunnels.tunnels(FlowId(0)).len();
        // Allocate twice the rate: traffic should still total the rate.
        let cfg = TeConfig {
            rate: vec![4.0],
            alloc: vec![vec![8.0 / nt as f64; nt]],
        };
        let traffic = cfg.link_traffic(&topo, &tunnels);
        // Sum of traffic leaving s2 equals the rate.
        let out: f64 = topo
            .out_links(ns[1])
            .iter()
            .map(|l| traffic[l.index()])
            .sum();
        assert!((out - 4.0).abs() < 1e-9, "out {out}");
    }

    #[test]
    fn flow_without_tunnels_gets_zero() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let c = topo.add_node("c");
        topo.add_bidi(a, b, 10.0);
        // c is isolated.
        let mut tm = TrafficMatrix::new();
        tm.add_flow(a, b, 5.0, Priority::High);
        tm.add_flow(a, c, 5.0, Priority::High);
        let tunnels = build_tunnels(&topo, &tm);
        let cfg = solve_te(TeProblem::new(&topo, &tm, &tunnels)).unwrap();
        assert!((cfg.rate[0] - 5.0).abs() < 1e-6);
        // No tunnels: Eqn 3 reads 0 >= b_f.
        assert!(cfg.rate[1].abs() < 1e-9);
    }
}
