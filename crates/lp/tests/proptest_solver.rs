//! Property tests: the sparse revised simplex must agree with the
//! independent dense tableau oracle on randomly generated LPs, and all
//! reported solutions must actually satisfy the constraints they claim to.

use ffc_lp::dense::solve_dense;
use ffc_lp::{Cmp, LinExpr, LpError, Model, Pricing, Sense, SimplexOptions};
use proptest::prelude::*;

/// One constraint: sparse terms, a comparison selector, and a rhs.
type RawCon = (Vec<(usize, f64)>, u8, f64);

/// A randomly generated LP instance description.
#[derive(Debug, Clone)]
struct RandomLp {
    nvars: usize,
    bounds: Vec<(f64, f64)>,
    cons: Vec<RawCon>,
    obj: Vec<f64>,
    maximize: bool,
}

fn lp_strategy(max_vars: usize, max_cons: usize) -> impl Strategy<Value = RandomLp> {
    (2..=max_vars).prop_flat_map(move |nvars| {
        let bounds = prop::collection::vec(
            (0..3u8, -5.0..5.0f64, 0.1..8.0f64).prop_map(|(kind, lo, span)| match kind {
                0 => (lo, lo + span),                   // box
                1 => (0.0, f64::INFINITY),              // nonneg
                _ => (lo.min(0.0), lo.min(0.0) + span), // box crossing zero-ish
            }),
            nvars,
        );
        let coeff = -3.0..3.0f64;
        let term = (0..nvars, coeff);
        let con = (
            prop::collection::vec(term, 1..=nvars.min(4)),
            0..3u8,
            -6.0..10.0f64,
        );
        let cons = prop::collection::vec(con, 1..=max_cons);
        let obj = prop::collection::vec(-4.0..4.0f64, nvars);
        (bounds, cons, obj, any::<bool>()).prop_map(move |(bounds, cons, obj, maximize)| RandomLp {
            nvars,
            bounds,
            cons,
            obj,
            maximize,
        })
    })
}

fn build(lp: &RandomLp) -> Model {
    debug_assert_eq!(lp.nvars, lp.bounds.len());
    let mut m = Model::new();
    let vars: Vec<_> = lp
        .bounds
        .iter()
        .enumerate()
        .map(|(i, &(lo, hi))| m.add_var(lo, hi, format!("x{i}")))
        .collect();
    for (terms, cmp, rhs) in &lp.cons {
        let mut e = LinExpr::zero();
        for &(vi, c) in terms {
            e.add_term(vars[vi], c);
        }
        let cmp = match cmp % 3 {
            0 => Cmp::Le,
            1 => Cmp::Ge,
            _ => Cmp::Eq,
        };
        m.add_con(e, cmp, *rhs);
    }
    let mut obj = LinExpr::zero();
    for (i, &c) in lp.obj.iter().enumerate() {
        obj.add_term(vars[i], c);
    }
    m.set_objective(
        obj,
        if lp.maximize {
            Sense::Maximize
        } else {
            Sense::Minimize
        },
    );
    m
}

/// Verifies that a claimed solution satisfies every bound.
fn assert_feasible(m: &Model, values: &[f64], tol: f64) {
    for (i, v) in m.var_ids().enumerate() {
        let (lo, hi) = m.var_bounds(v);
        assert!(
            values[i] >= lo - tol && values[i] <= hi + tol,
            "var {i} = {} out of [{lo}, {hi}]",
            values[i]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Both solvers agree on feasibility/unboundedness classification and,
    /// when optimal, on the objective value.
    #[test]
    fn sparse_matches_dense_oracle(lp in lp_strategy(5, 6)) {
        let m = build(&lp);
        let sparse = m.solve();
        let dense = solve_dense(&m);
        match (&sparse, &dense) {
            (Ok(a), Ok(b)) => {
                prop_assert!(
                    (a.objective - b.objective).abs() <= 1e-5 * (1.0 + b.objective.abs()),
                    "objective mismatch: sparse {} vs dense {}",
                    a.objective,
                    b.objective
                );
            }
            (Err(LpError::Infeasible), Err(LpError::Infeasible)) => {}
            (Err(LpError::Unbounded), Err(LpError::Unbounded)) => {}
            other => prop_assert!(false, "solver disagreement: {:?}", other),
        }
    }

    /// Any optimal solution reported by the sparse solver satisfies all
    /// constraints and bounds.
    #[test]
    fn sparse_solutions_are_feasible(lp in lp_strategy(6, 8)) {
        let m = build(&lp);
        if let Ok(sol) = m.solve() {
            let tol = 1e-6;
            assert_feasible(&m, &sol.values, tol);
            // Re-evaluate each constraint.
            for (terms, cmp, rhs) in &lp.cons {
                let lhs: f64 = terms
                    .iter()
                    .map(|&(vi, c)| c * sol.values[vi])
                    .sum();
                match cmp % 3 {
                    0 => prop_assert!(lhs <= rhs + tol, "violated <=: {lhs} vs {rhs}"),
                    1 => prop_assert!(lhs >= rhs - tol, "violated >=: {lhs} vs {rhs}"),
                    _ => prop_assert!((lhs - rhs).abs() <= tol, "violated =: {lhs} vs {rhs}"),
                }
            }
        }
    }

    /// Warm-starting from a previous basis — after perturbing every
    /// bound — always lands on the same optimum as a cold solve.
    #[test]
    fn warm_start_matches_cold(lp in lp_strategy(5, 6), grow in 0.5..1.5f64) {
        let m = build(&lp);
        let Ok(first) = m.solve() else { return Ok(()) };
        // Perturb: scale every finite upper bound.
        let mut m2 = build(&lp);
        for v in m2.var_ids().collect::<Vec<_>>() {
            let (lo, hi) = m2.var_bounds(v);
            if hi.is_finite() {
                m2.set_bounds(v, lo, lo.max(hi * grow));
            }
        }
        let cold = m2.solve();
        let warm = m2.solve_with(&ffc_lp::SimplexOptions::default(), Some(&first.basis));
        match (cold, warm) {
            (Ok(a), Ok(b)) => prop_assert!(
                (a.objective - b.objective).abs() <= 1e-5 * (1.0 + a.objective.abs()),
                "cold {} vs warm {}", a.objective, b.objective
            ),
            (Err(a), Err(b)) => prop_assert_eq!(
                std::mem::discriminant(&a), std::mem::discriminant(&b)
            ),
            other => prop_assert!(false, "warm/cold disagreement: {:?}", other),
        }
    }

    /// Every pricing rule (Dantzig, devex, partial devex) reaches the
    /// same optimum — compared against each other and against the dense
    /// tableau oracle — or agrees on infeasibility/unboundedness.
    #[test]
    fn pricing_rules_match_dantzig_and_dense(lp in lp_strategy(6, 8)) {
        let m = build(&lp);
        let solve = |pricing: Pricing| {
            m.solve_with(&SimplexOptions { pricing, ..SimplexOptions::default() }, None)
        };
        let dantzig = solve(Pricing::Dantzig);
        let dense = solve_dense(&m);
        for rule in [
            Pricing::Devex,
            Pricing::PartialDevex { candidates: 0 },
            Pricing::PartialDevex { candidates: 2 },
        ] {
            let got = solve(rule);
            match (&dantzig, &got) {
                (Ok(a), Ok(b)) => {
                    prop_assert!(
                        (a.objective - b.objective).abs() <= 1e-5 * (1.0 + a.objective.abs()),
                        "{rule:?} found {} but Dantzig found {}",
                        b.objective,
                        a.objective
                    );
                    if let Ok(d) = &dense {
                        prop_assert!(
                            (d.objective - b.objective).abs()
                                <= 1e-5 * (1.0 + d.objective.abs()),
                            "{rule:?} found {} but dense oracle found {}",
                            b.objective,
                            d.objective
                        );
                    }
                }
                (Err(a), Err(b)) => prop_assert_eq!(
                    std::mem::discriminant(a), std::mem::discriminant(b),
                    "{:?} classified differently than Dantzig", rule
                ),
                other => prop_assert!(false, "{rule:?} disagreement: {other:?}"),
            }
        }
    }

    /// The reported objective matches the objective recomputed from the
    /// returned variable values.
    #[test]
    fn objective_consistent_with_values(lp in lp_strategy(5, 6)) {
        let m = build(&lp);
        if let Ok(sol) = m.solve() {
            let recomputed: f64 = lp
                .obj
                .iter()
                .enumerate()
                .map(|(i, &c)| c * sol.values[i])
                .sum();
            prop_assert!(
                (recomputed - sol.objective).abs() <= 1e-6 * (1.0 + sol.objective.abs()),
                "objective {} != recomputed {recomputed}",
                sol.objective
            );
        }
    }
}
