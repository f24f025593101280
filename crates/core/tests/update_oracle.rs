//! Differential oracle for the §5.2 update planner.
//!
//! `full_plan_update` below is the formulation `ffc_core::plan_update`
//! shipped before it learned to decide one-step plans by arithmetic and
//! to build the chain LP without its constant rows: every `z ≥ a` pair
//! as two rows (endpoints included), an `M` per tunnel per step from
//! step 1 on, the step-1 M-sum family, named variables and the constant
//! "churn" objective. It is kept here, and only here, as the reference
//! the lean planner is compared against, on
//!
//! * fuzzed transitions between **un-halved** TE optima on small rings
//!   whose demand exceeds capacity — both endpoints saturate links, so
//!   one-step, multi-step and infeasible cases all occur (the sibling
//!   `proptest_update.rs` halves both endpoints and never leaves the
//!   trivially feasible region), and
//! * pinned S-Net and L-Net transitions between two `ke = 1` FFC
//!   optima a demand drift apart — the shape the controller plans every
//!   interval — at utilisations on both sides of each verdict.

use ffc_core::bounded_msum::constrain_any_m_sum_le;
use ffc_core::{
    max_transition_violation, plan_update, solve_ffc, solve_te, FfcConfig, TeConfig, TeProblem,
    UpdateConfig, UpdatePlan, UpdateStats,
};
use ffc_lp::{Cmp, LinExpr, LpError, Model, Sense, VarId};
use ffc_net::prelude::*;
use ffc_topo::{
    calibrate_scale, gravity_trace, lnet, snet, LNetConfig, SiteNetwork, TrafficConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The full §5.2 formulation (reference).
#[allow(clippy::needless_range_loop)] // (step, flow, tunnel) index grids
fn full_plan_update(
    topo: &Topology,
    tm: &TrafficMatrix,
    tunnels: &TunnelTable,
    from: &TeConfig,
    to: &TeConfig,
    cfg: &UpdateConfig,
) -> Result<Vec<TeConfig>, LpError> {
    assert!(cfg.num_steps >= 1, "need at least one step");
    let m = cfg.num_steps;
    let nf = tm.len();
    assert_eq!(from.alloc.len(), nf);
    assert_eq!(to.alloc.len(), nf);

    // Rate schedule: b^i_f, i = 0..=m (constants).
    let rate_at = |i: usize, f: usize| -> f64 {
        let t = i as f64 / m as f64;
        from.rate[f] * (1.0 - t) + to.rate[f] * t
    };

    let mut model = Model::new();
    // a[i][f][t] for i in 1..m (step m is the fixed target, step 0 the
    // fixed source).
    let mut a: Vec<Vec<Vec<VarId>>> = Vec::new();
    for i in 1..m {
        let step: Vec<Vec<VarId>> = tm
            .ids()
            .map(|f| {
                (0..tunnels.tunnels(f).len())
                    .map(|t| model.add_var(0.0, f64::INFINITY, format!("a{i}_{f}_{t}")))
                    .collect()
            })
            .collect();
        a = {
            let mut v = a;
            v.push(step);
            v
        };
    }

    // Allocation expression for (step, flow, tunnel): constant at the
    // endpoints, variable inside.
    let alloc_expr = |i: usize, f: usize, t: usize| -> LinExpr {
        if i == 0 {
            LinExpr::constant(from.alloc[f][t])
        } else if i == m {
            LinExpr::constant(to.alloc[f][t])
        } else {
            LinExpr::from(a[i - 1][f][t])
        }
    };

    // Per intermediate step: allocations sum to the step's rate.
    for (i, step) in a.iter().enumerate() {
        let idx = i + 1;
        for f in 0..nf {
            let mut sum = LinExpr::zero();
            for &v in &step[f] {
                sum.add_term(v, 1.0);
            }
            model.add_con(sum, Cmp::Eq, rate_at(idx, f));
        }
    }

    // Transition-max variables z^i_{f,t} ≥ a^{i-1}, a^i; cumulative-max
    // variables M^i_{f,t} ≥ M^{i-1}, z^i (only needed with kc > 0).
    // Incidence map.
    let mut link_tunnels: Vec<Vec<(usize, usize)>> = vec![Vec::new(); topo.num_links()];
    for (f, ti, tunnel) in tunnels.iter_all() {
        for &l in &tunnel.links {
            link_tunnels[l.index()].push((f.index(), ti));
        }
    }

    let mut prev_m: Vec<Vec<Option<LinExpr>>> = (0..nf)
        .map(|f| {
            (0..tunnels.tunnels(ffc_net::FlowId(f)).len())
                .map(|t| Some(LinExpr::constant(from.alloc[f][t])))
                .collect()
        })
        .collect();

    for i in 1..=m {
        // z^i per (f,t).
        let mut z: Vec<Vec<LinExpr>> = Vec::with_capacity(nf);
        let mut m_now: Vec<Vec<Option<LinExpr>>> = Vec::with_capacity(nf);
        for f in 0..nf {
            let nt = tunnels.tunnels(ffc_net::FlowId(f)).len();
            let mut zf = Vec::with_capacity(nt);
            let mut mf = Vec::with_capacity(nt);
            for t in 0..nt {
                let zv = model.add_var(0.0, f64::INFINITY, format!("z{i}_{f}_{t}"));
                model.add_con(alloc_expr(i - 1, f, t) - LinExpr::from(zv), Cmp::Le, 0.0);
                model.add_con(alloc_expr(i, f, t) - LinExpr::from(zv), Cmp::Le, 0.0);
                zf.push(LinExpr::from(zv));
                if cfg.kc > 0 {
                    let mv = model.add_var(0.0, f64::INFINITY, format!("M{i}_{f}_{t}"));
                    let prev = prev_m[f][t].take().expect("prev M present");
                    model.add_con(prev - LinExpr::from(mv), Cmp::Le, 0.0);
                    model.add_con(zf[t].clone() - LinExpr::from(mv), Cmp::Le, 0.0);
                    mf.push(Some(LinExpr::from(mv)));
                } else {
                    mf.push(None);
                }
            }
            z.push(zf);
            m_now.push(mf);
        }

        // Per link: Eqn 16 (and the FFC family).
        for e in topo.links() {
            let pairs = &link_tunnels[e.index()];
            if pairs.is_empty() {
                continue;
            }
            let mut zsum = LinExpr::zero();
            for &(f, t) in pairs {
                zsum += z[f][t].clone();
            }
            model.add_con(zsum.clone(), Cmp::Le, topo.capacity(e));

            if cfg.kc > 0 {
                // Group gaps M − z by ingress.
                let mut gap_by_ingress: std::collections::BTreeMap<usize, LinExpr> =
                    std::collections::BTreeMap::new();
                for &(f, t) in pairs {
                    let src = tunnels.tunnels(ffc_net::FlowId(f))[t].src().index();
                    let gap = gap_by_ingress.entry(src).or_default();
                    *gap += m_now[f][t].clone().expect("kc>0 has M") - z[f][t].clone();
                }
                let gaps: Vec<LinExpr> = gap_by_ingress.into_values().collect();
                let budget = LinExpr::constant(topo.capacity(e)) - zsum;
                constrain_any_m_sum_le(&mut model, gaps, cfg.kc, budget, cfg.encoding);
            }
        }

        prev_m = m_now;
    }

    // Objective: minimize total intermediate allocation churn (keeps the
    // plan tame); feasibility is what matters.
    let mut obj = LinExpr::zero();
    for step in &a {
        for row in step {
            for &v in row {
                obj.add_term(v, 1.0);
            }
        }
    }
    model.set_objective(obj, Sense::Minimize);

    let sol = model.solve()?;
    let mut steps = Vec::with_capacity(m);
    for i in 1..m {
        let step = &a[i - 1];
        steps.push(TeConfig {
            rate: (0..nf).map(|f| rate_at(i, f)).collect(),
            alloc: step
                .iter()
                .map(|row| row.iter().map(|&v| sol.value(v).max(0.0)).collect())
                .collect(),
        });
    }
    steps.push(to.clone());
    Ok(steps)
}

/// Worst absolute excess of `Σ_v max(a, b)` over capacity on any link.
fn worst_excess(topo: &Topology, tunnels: &TunnelTable, a: &TeConfig, b: &TeConfig) -> f64 {
    let mut load = vec![0.0; topo.num_links()];
    for (f, ti, tunnel) in tunnels.iter_all() {
        let hi = a.alloc[f.index()][ti].max(b.alloc[f.index()][ti]);
        for &l in &tunnel.links {
            load[l.index()] += hi;
        }
    }
    topo.links()
        .map(|e| load[e.index()] - topo.capacity(e))
        .fold(f64::NEG_INFINITY, f64::max)
}

/// One `from → to` transition over a fixed network.
struct Case {
    topo: Topology,
    tm: TrafficMatrix,
    tunnels: TunnelTable,
    from: TeConfig,
    to: TeConfig,
}

impl Case {
    fn lean(&self, m: usize, kc: usize) -> Result<UpdatePlan, LpError> {
        let cfg = UpdateConfig::ffc(m, kc);
        plan_update(
            &self.topo,
            &self.tm,
            &self.tunnels,
            &self.from,
            &self.to,
            &cfg,
        )
    }

    fn full(&self, m: usize, kc: usize) -> Result<Vec<TeConfig>, LpError> {
        let cfg = UpdateConfig::ffc(m, kc);
        full_plan_update(
            &self.topo,
            &self.tm,
            &self.tunnels,
            &self.from,
            &self.to,
            &cfg,
        )
    }

    /// (i) One step, `kc ∈ {0, 1, 2}`: whatever the LP admits the closed
    /// form admits, and what the closed form admits without using its
    /// tolerance the LP admits. Returns the closed form's verdict.
    fn check_one_step(&self) -> bool {
        let excess = worst_excess(&self.topo, &self.tunnels, &self.from, &self.to);
        for kc in 0..=2 {
            let (lean, full) = (self.lean(1, kc), self.full(1, kc));
            assert_eq!(lean.is_ok(), excess <= 1e-6, "kc={kc}: excess {excess:e}");
            if full.is_ok() {
                assert!(
                    lean.is_ok(),
                    "kc={kc}: LP admits, closed form refuses {excess:e}"
                );
            }
            if excess <= 0.0 {
                assert!(
                    full.is_ok(),
                    "kc={kc}: closed form admits {excess:e}, LP refuses"
                );
            }
            if let Ok(plan) = lean {
                assert_eq!(plan.steps, vec![self.to.clone()]);
                assert_eq!(plan.stats, UpdateStats::default(), "one step needs no LP");
            }
        }
        excess <= 1e-6
    }

    /// (ii) `m ≥ 2`: the lean model's verdict is the full model's (when
    /// `oracle` is set) and a lean chain keeps every promise of §5.2.
    /// Returns the lean verdict.
    fn check_chain(&self, m: usize, kc: usize, oracle: bool) -> bool {
        let lean = self.lean(m, kc);
        if oracle {
            let full = self.full(m, kc);
            assert_eq!(lean.is_ok(), full.is_ok(), "m={m} kc={kc}: verdicts differ");
        }
        let Ok(plan) = lean else {
            return false;
        };
        assert_eq!(plan.num_steps(), m);
        assert_eq!(
            plan.steps.last(),
            Some(&self.to),
            "the chain ends on the target"
        );
        assert_eq!(plan.stats.lp_solves, 1);
        let viol = max_transition_violation(&self.topo, &self.tunnels, &self.from, &plan);
        assert!(
            viol <= 1e-6,
            "m={m} kc={kc}: a transition overloads a link by {viol:e}"
        );
        // Intermediate steps carry exactly the scheduled rate.
        for (i, step) in plan.steps.iter().enumerate().take(m - 1) {
            let t = (i + 1) as f64 / m as f64;
            for (f, row) in step.alloc.iter().enumerate() {
                let rate = self.from.rate[f] * (1.0 - t) + self.to.rate[f] * t;
                assert_eq!(step.rate[f], rate, "step {} flow {f}", i + 1);
                let sum: f64 = row.iter().sum();
                assert!((sum - rate).abs() <= 1e-6 * (1.0 + rate), "{sum} vs {rate}");
            }
        }
        if kc == 1 {
            self.check_any_one_ingress_stuck(&plan);
        }
        true
    }

    /// The kc = 1 promise, exhaustively: with every tunnel of one ingress
    /// switch stuck at any config `j ≤ i` while everything else is
    /// anywhere inside transition `i`, no link is overloaded.
    fn check_any_one_ingress_stuck(&self, plan: &UpdatePlan) {
        let mut chain = vec![&self.from];
        chain.extend(plan.steps.iter());
        let mut ingresses: Vec<NodeId> = self.tunnels.iter_all().map(|(_, _, t)| t.src()).collect();
        ingresses.sort();
        ingresses.dedup();
        for &stuck in &ingresses {
            for i in 1..chain.len() {
                for j in 0..=i {
                    let mut load = vec![0.0; self.topo.num_links()];
                    for (f, ti, tunnel) in self.tunnels.iter_all() {
                        let at = |c: &TeConfig| c.alloc[f.index()][ti];
                        let a = if tunnel.src() == stuck {
                            at(chain[j])
                        } else {
                            at(chain[i - 1]).max(at(chain[i]))
                        };
                        for &l in &tunnel.links {
                            load[l.index()] += a;
                        }
                    }
                    for e in self.topo.links() {
                        let cap = self.topo.capacity(e);
                        assert!(
                            load[e.index()] <= cap * (1.0 + 1e-6),
                            "{stuck:?} stuck at {j} during step {i}: {e} carries {} of {cap}",
                            load[e.index()]
                        );
                    }
                }
            }
        }
    }
}

/// A ring with one chord (the sibling proptest's shape) whose demand
/// exceeds what it can carry, before and after a correlated surge that
/// also zeroes some flows: both TE optima saturate links.
fn saturated_ring(rng: &mut StdRng) -> Case {
    let nodes = rng.gen_range(4..7usize);
    let mut topo = Topology::new();
    let ns = topo.add_nodes(nodes, "n");
    let caps: Vec<f64> = (0..4).map(|_| rng.gen_range(10.0..30.0)).collect();
    for i in 0..nodes {
        topo.add_bidi(ns[i], ns[(i + 1) % nodes], caps[i % 4]);
    }
    topo.add_bidi(ns[0], ns[2], caps[3]);
    let surge = rng.gen_range(0.5..1.6);
    let zero_stride = rng.gen_range(0..4usize);
    let (mut tm_from, mut tm_to) = (TrafficMatrix::new(), TrafficMatrix::new());
    for fi in 0..rng.gen_range(2..6usize) {
        let s = rng.gen_range(0..nodes);
        let d = (s + rng.gen_range(1..nodes)) % nodes;
        let demand = rng.gen_range(4.0..24.0);
        tm_from.add_flow(ns[s], ns[d], demand, Priority::High);
        let zeroed = zero_stride > 0 && fi % zero_stride == 0;
        let target = if zeroed { 0.0 } else { demand * surge };
        tm_to.add_flow(ns[s], ns[d], target, Priority::High);
    }
    let layout = LayoutConfig {
        tunnels_per_flow: 3,
        p: 2,
        q: 3,
        reuse_penalty: 0.5,
    };
    let tunnels = layout_tunnels(&topo, &tm_from, &layout);
    let from = solve_te(TeProblem::new(&topo, &tm_from, &tunnels)).expect("from TE");
    let to = solve_te(TeProblem::new(&topo, &tm_to, &tunnels)).expect("to TE");
    Case {
        topo,
        tm: tm_to,
        tunnels,
        from,
        to,
    }
}

#[test]
fn fuzzed_saturated_transitions_match_the_oracle() {
    let mut rng = StdRng::seed_from_u64(52);
    // [one step admitted, chain found after a refused step, no chain at all]
    let mut seen = [0usize; 3];
    for _ in 0..256 {
        let case = saturated_ring(&mut rng);
        let one_step = case.check_one_step();
        let mut chains = 0;
        for m in 2..=3 {
            for kc in 0..=1 {
                chains += case.check_chain(m, kc, true) as usize;
            }
        }
        let kind = if one_step {
            0
        } else if chains > 0 {
            1
        } else {
            2
        };
        seen[kind] += 1;
    }
    assert!(seen.iter().all(|&n| n >= 16), "one-sided fuzz: {seen:?}");
}

/// A pinned evaluation instance as `ffc_bench` / the repo's benchmark
/// build it (gravity matrix at 5 % of capacity, (1,3)-disjoint tunnels,
/// demand calibrated so plain TE carries 99 %), with two `ke = 1` FFC
/// optima 2 % of demand apart — the second solved from the first, as the
/// controller does. At full size every link the optima saturate is
/// saturated on both sides, so nothing short of the atomic install
/// works; [`Case::at_utilisation`] walks the pair back from there.
fn pinned(net: SiteNetwork, traffic_seed: u64, tunnels_per_flow: usize) -> Case {
    let traffic = TrafficConfig {
        mean_total: net.topo.total_capacity() * 0.05,
        priority_split: (1.0, 0.0),
        seed: traffic_seed,
        ..TrafficConfig::default()
    };
    let tm = gravity_trace(&net, &traffic, 1).intervals.swap_remove(0);
    let layout = LayoutConfig {
        tunnels_per_flow,
        ..LayoutConfig::default()
    };
    let tunnels = layout_tunnels(&net.topo, &tm, &layout);
    let tm = tm.scale(calibrate_scale(&net.topo, &tm, &tunnels, 0.99));
    let ffc = FfcConfig::new(0, 1, 0);
    let solve = |tm: &TrafficMatrix, old: &TeConfig| {
        solve_ffc(TeProblem::new(&net.topo, tm, &tunnels), old, &ffc).expect("FFC TE")
    };
    let from = solve(&tm, &TeConfig::zero(&tunnels));
    let tm = tm.scale(0.98);
    let to = solve(&tm, &from);
    Case {
        topo: net.topo,
        tm,
        tunnels,
        from,
        to,
    }
}

/// S-Net at 4 tunnels per flow (the benchmark's `snet_storm` layout).
fn snet_pinned() -> Case {
    pinned(snet(), 44, 4)
}

/// The paper-layout L-Net (the benchmark's `lnet_drift` instance).
fn lnet_pinned() -> Case {
    let net = lnet(&LNetConfig {
        seed: 42,
        ..LNetConfig::default()
    });
    pinned(net, 43, 6)
}

impl Case {
    /// Both endpoints scaled to `u` of their rates and allocations.
    fn at_utilisation(&self, u: f64) -> Case {
        let scaled = |c: &TeConfig| TeConfig {
            rate: c.rate.iter().map(|r| r * u).collect(),
            alloc: (c.alloc.iter())
                .map(|row| row.iter().map(|a| a * u).collect())
                .collect(),
        };
        Case {
            topo: self.topo.clone(),
            tm: self.tm.clone(),
            tunnels: self.tunnels.clone(),
            from: scaled(&self.from),
            to: scaled(&self.to),
        }
    }
}

#[test]
fn pinned_snet_transitions_match_the_oracle() {
    let base = snet_pinned();
    // (utilisation, one step, m=2 kc=0, m=3 kc=0, m=2 kc=1)
    for (u, one, two, three, two_ffc) in [
        (0.80, true, true, true, true),
        (0.85, false, true, true, true),
        (0.90, false, true, true, false),
        (1.00, false, false, false, false),
    ] {
        let case = base.at_utilisation(u);
        assert_eq!(case.check_one_step(), one, "u={u}");
        assert_eq!(case.check_chain(2, 0, true), two, "u={u}");
        assert_eq!(case.check_chain(3, 0, true), three, "u={u}");
        // Lean chain only; the ignored test below holds it to the oracle.
        assert_eq!(case.check_chain(2, 1, false), two_ffc, "u={u}");
    }
}

#[test]
fn pinned_lnet_transitions_match_the_oracle() {
    let base = lnet_pinned();
    // (utilisation, one step, m=2 kc=0, m=3 kc=0)
    for (u, one, two, three) in [
        (0.65, true, true, true),
        (0.70, false, true, true),
        (1.00, false, false, false),
    ] {
        let case = base.at_utilisation(u);
        assert_eq!(case.check_one_step(), one, "u={u}");
        assert_eq!(case.check_chain(2, 0, true), two, "u={u}");
        assert_eq!(case.check_chain(3, 0, true), three, "u={u}");
    }
}

/// The kc = 1 chain LPs of the pinned instances against the oracle. The
/// full formulation takes 1.5–10 s for each of these in a release build,
/// so tier-1 leaves them out and CI's release job runs them
/// (`--include-ignored`).
#[test]
#[ignore = "slow: the full kc = 1 formulation on S-Net and L-Net"]
fn pinned_ffc_chains_match_the_oracle() {
    let snet = snet_pinned();
    for (u, m, verdict) in [(0.85, 2, true), (0.90, 2, false), (0.85, 3, true)] {
        let found = snet.at_utilisation(u).check_chain(m, 1, true);
        assert_eq!(found, verdict, "S-Net u={u} m={m}");
    }
    let lnet = lnet_pinned();
    for (u, verdict) in [(0.70, true), (0.75, false)] {
        let found = lnet.at_utilisation(u).check_chain(2, 1, true);
        assert_eq!(found, verdict, "L-Net u={u}");
    }
}
