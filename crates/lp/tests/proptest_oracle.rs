//! Differential LP oracle: the dense tableau solver and the sparse
//! simplex, cold (primal crash + phase 1) and warm (the dual from a
//! nearby LP's optimal basis), must classify every random LP
//! identically (optimal / infeasible / unbounded) and agree on the
//! objective when optimal; the sparse simplex on a per-solve lowering
//! and on a standing form must agree bit for bit. A warm solve whose
//! hint was used never runs phase 1.
//!
//! Five instance families stress different corners:
//! * fully boxed LPs (every wrong-sign reduced cost of a warm start has
//!   a bound to flip to, so the dual starts on the true costs),
//! * mixed-bound LPs with one-sided and near-free variables (can be
//!   unbounded; a warm start may need shifted costs and must still
//!   agree),
//! * larger LPs with boxes at or below zero, nonnegative rays and fixed
//!   columns (`lb == ub`, which stay columns of the solved model),
//! * small-integer degenerate LPs (tied ratios, duplicated rows, zero
//!   right-hand sides — the classic cycling traps),
//! * one-sided LPs re-solved warm after a coefficient change (the hint
//!   can price a ray column at a sign no bound flip fixes).

use ffc_lp::dense::solve_dense;
use ffc_lp::{
    BasisStatuses, Cmp, ColStatus, IncrementalModel, LinExpr, LpError, Model, Sense,
    SimplexOptions, Solution,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

type RawCon = (Vec<(usize, f64)>, u8, f64);

#[derive(Debug, Clone)]
struct RandomLp {
    nvars: usize,
    bounds: Vec<(f64, f64)>,
    cons: Vec<RawCon>,
    obj: Vec<f64>,
    maximize: bool,
}

/// Every variable boxed on both sides: the dual simplex can always
/// feasibilize a loaded basis by bound flips.
fn boxed_lp(max_vars: usize, max_cons: usize) -> impl Strategy<Value = RandomLp> {
    (2..=max_vars).prop_flat_map(move |nvars| {
        let bounds = prop::collection::vec(
            (-5.0..5.0f64, 0.1..8.0f64).prop_map(|(lo, span)| (lo, lo + span)),
            nvars,
        );
        let term = (0..nvars, -3.0..3.0f64);
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

/// Mixed bounds: boxes, one-sided rays, and wide near-free boxes. These
/// can be unbounded, and a warm dual start often has to shift the costs
/// of rays no bound flip fixes — the answer must not change.
fn mixed_lp(max_vars: usize, max_cons: usize) -> impl Strategy<Value = RandomLp> {
    (2..=max_vars).prop_flat_map(move |nvars| {
        let bounds = prop::collection::vec(
            (0..4u8, -5.0..5.0f64, 0.1..8.0f64).prop_map(|(kind, lo, span)| match kind {
                0 => (lo, lo + span),      // box
                1 => (0.0, f64::INFINITY), // nonnegative ray
                2 => (lo, f64::INFINITY),  // shifted ray
                _ => (-50.0, 50.0),        // wide (near-free) box
            }),
            nvars,
        );
        let term = (0..nvars, -3.0..3.0f64);
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

/// Boxes, nonnegative rays, fixed columns and boxes ending at or below
/// zero, on up to six variables and eight rows: larger than the other
/// families, and often needing phase 1 from the slack basis.
fn crossing_lp(max_vars: usize, max_cons: usize) -> impl Strategy<Value = RandomLp> {
    (2..=max_vars).prop_flat_map(move |nvars| {
        let bounds = prop::collection::vec(
            (0..4u8, -5.0..5.0f64, 0.1..8.0f64).prop_map(|(kind, lo, span)| match kind {
                0 => (lo, lo + span),                   // box
                1 => (0.0, f64::INFINITY),              // nonnegative ray
                2 => (lo, lo),                          // fixed
                _ => (lo.min(0.0), lo.min(0.0) + span), // box from at or below zero
            }),
            nvars,
        );
        let term = (0..nvars, -3.0..3.0f64);
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

/// Every column one-sided — a nonnegative ray, a shifted ray, or a ray
/// bounded above only — apart from the odd box. A basis that prices a
/// ray column at the wrong sign has no bound to flip it to. Each ray's
/// cost points away from its open end and every row holds at one point
/// inside the bounds, so each instance has an optimum for a warm
/// re-solve to start from.
fn one_sided_lp(max_vars: usize, max_cons: usize) -> impl Strategy<Value = RandomLp> {
    (2..=max_vars).prop_flat_map(move |nvars| {
        // (bounds, cost, a point inside the bounds)
        let column =
            (0..4u8, -5.0..5.0f64, 0.1..8.0f64, 0.1..4.0f64).prop_map(|(kind, lo, span, cost)| {
                match kind {
                    0 => ((lo, lo + span), cost - 2.0, lo + span / 2.0), // box
                    1 => ((0.0, f64::INFINITY), cost, span),             // nonnegative ray
                    2 => ((lo, f64::INFINITY), cost, lo + span),         // shifted ray
                    _ => ((f64::NEG_INFINITY, lo), -cost, lo - span),    // ray bounded above
                }
            });
        let columns = prop::collection::vec(column, nvars);
        let term = (0..nvars, -3.0..3.0f64);
        // The last entry is the row's slack at the point.
        let con = (
            prop::collection::vec(term, 1..=nvars.min(4)),
            0..3u8,
            0.0..4.0f64,
        );
        let cons = prop::collection::vec(con, 1..=max_cons);
        (columns, cons, any::<bool>()).prop_map(move |(columns, cons, maximize)| {
            let sign = if maximize { -1.0 } else { 1.0 };
            let cons = cons
                .into_iter()
                .map(|(terms, cmp, slack)| {
                    let at: f64 = terms.iter().map(|&(j, c)| c * columns[j].2).sum();
                    let rhs = match cmp % 3 {
                        0 => at + slack,
                        1 => at - slack,
                        _ => at,
                    };
                    (terms, cmp, rhs)
                })
                .collect();
            RandomLp {
                nvars,
                bounds: columns.iter().map(|&(b, _, _)| b).collect(),
                cons,
                obj: columns.iter().map(|&(_, c, _)| sign * c).collect(),
                maximize,
            }
        })
    })
}

/// Small-integer data with zero-heavy right-hand sides: highly
/// degenerate instances with tied ratio tests in both primal and dual.
fn degenerate_lp(max_vars: usize, max_cons: usize) -> impl Strategy<Value = RandomLp> {
    (2..=max_vars).prop_flat_map(move |nvars| {
        let bounds = prop::collection::vec((0..3u8).prop_map(|k| (0.0, k as f64 + 1.0)), nvars);
        let term = (0..nvars, (-2..=2i8).prop_map(f64::from));
        let con = (
            prop::collection::vec(term, 1..=nvars.min(4)),
            0..3u8,
            (0..4u8).prop_map(|r| if r == 0 { 0.0 } else { f64::from(r) - 1.0 }),
        );
        let cons = prop::collection::vec(con, 1..=max_cons);
        let obj = prop::collection::vec((-2..=2i8).prop_map(f64::from), nvars);
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

/// `lp` with every box shrunk toward its lower bound to `shrink` of its
/// width: its optimum's basis is a warm start near `lp`'s, which cuts
/// off the old optimum often enough to force real dual pivots.
fn shrunk(lp: &RandomLp, shrink: f64) -> Model {
    let mut m = build(lp);
    for v in m.var_ids().collect::<Vec<_>>() {
        let (lo, hi) = m.var_bounds(v);
        if lo.is_finite() && hi.is_finite() {
            m.set_bounds(v, lo, lo + (hi - lo) * shrink);
        }
    }
    m
}

/// A used hint starts the dual: it never runs phase 1.
fn used_hint_skips_phase1(label: &str, r: &Result<Solution, LpError>) -> Result<(), TestCaseError> {
    if let Ok(s) = r {
        prop_assert!(
            !s.stats.hint_used || s.stats.phase1_iterations == 0,
            "{label}: {:?}",
            s.stats
        );
    }
    Ok(())
}

/// Statuses must match; objectives must match when optimal.
fn agree(
    label: &str,
    a: &Result<Solution, LpError>,
    b: &Result<Solution, LpError>,
) -> Result<(), TestCaseError> {
    match (a, b) {
        (Ok(x), Ok(y)) => prop_assert!(
            (x.objective - y.objective).abs() <= 1e-5 * (1.0 + x.objective.abs()),
            "{label}: objective {} vs {}",
            x.objective,
            y.objective
        ),
        (Err(LpError::Infeasible), Err(LpError::Infeasible)) => {}
        (Err(LpError::Unbounded), Err(LpError::Unbounded)) => {}
        other => prop_assert!(false, "{label}: disagreement {other:?}"),
    }
    Ok(())
}

/// One engine regardless of wrapper: solving the standing lowered form
/// and lowering the model per solve must walk the same pivots to the
/// same bits.
fn wrappers_agree(
    label: &str,
    m: &Model,
    opts: &SimplexOptions,
    warm: Option<&BasisStatuses>,
) -> Result<(), TestCaseError> {
    let standing = IncrementalModel::new(m.clone()).expect("generated LPs validate");
    match (m.solve_with(opts, warm), standing.solve_with(opts, warm)) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(a.objective.to_bits(), b.objective.to_bits(), "{}", label);
            let bits = |s: &Solution| s.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&a), bits(&b), "{}", label);
            prop_assert_eq!(&a.basis, &b.basis, "{}", label);
            prop_assert_eq!(a.stats.iterations(), b.stats.iterations(), "{}", label);
            prop_assert_eq!(
                a.stats.dual_iterations,
                b.stats.dual_iterations,
                "{}",
                label
            );
            prop_assert_eq!(
                a.stats.refactorizations,
                b.stats.refactorizations,
                "{}",
                label
            );
        }
        (Err(a), Err(b)) => prop_assert_eq!(a, b, "{}", label),
        other => prop_assert!(false, "{label}: disagreement {other:?}"),
    }
    Ok(())
}

/// The cold leg, then the warm leg: `lp` re-solved from the optimal
/// basis of its copy [`shrunk`] to `shrink`.
fn differential(lp: &RandomLp, shrink: f64) -> Result<(), TestCaseError> {
    let m = build(lp);
    let opts = SimplexOptions::default();
    let dense = solve_dense(&m);
    agree("cold vs dense", &m.solve(), &dense)?;
    wrappers_agree("cold, model vs standing form", &m, &opts, None)?;
    let Ok(first) = shrunk(lp, shrink).solve() else {
        return Ok(());
    };
    let warm = m.solve_with(&opts, Some(&first.basis));
    agree("warm vs dense", &warm, &dense)?;
    used_hint_skips_phase1("warm", &warm)?;
    wrappers_agree(
        "warm, model vs standing form",
        &m,
        &opts,
        Some(&first.basis),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Fully boxed LPs: dense, cold and warm must agree. The warm
    /// dual starts on the true costs here.
    #[test]
    fn boxed_lps_agree_across_solvers(lp in boxed_lp(5, 6), shrink in 0.2..1.0f64) {
        differential(&lp, shrink)?;
    }

    /// Mixed/one-sided bounds, including unbounded instances.
    #[test]
    fn mixed_lps_agree_across_solvers(lp in mixed_lp(5, 6), shrink in 0.2..1.0f64) {
        differential(&lp, shrink)?;
    }

    /// Larger LPs with bounds below zero and fixed columns: cold and
    /// warm agree with the dense oracle as well.
    #[test]
    fn crossing_lps_agree_across_solvers(lp in crossing_lp(6, 8), shrink in 0.2..1.0f64) {
        differential(&lp, shrink)?;
    }

    /// Degenerate small-integer LPs with zero rhs and duplicate-prone
    /// rows; both ratio tests hit ties and must still terminate on the
    /// same answer.
    #[test]
    fn degenerate_lps_agree_across_solvers(lp in degenerate_lp(5, 7), shrink in 0.2..1.0f64) {
        if let Err(e) = differential(&lp, shrink) {
            eprintln!("failing LP: {lp:?}");
            return Err(e);
        }
    }

    /// A warm restart after a bound perturbation must land on the same
    /// optimum as a cold solve of the perturbed model. This is the
    /// scenario-sweep pattern: the warm basis is primal-infeasible but
    /// dual-feasible, so the solve re-enters through dual iterations.
    #[test]
    fn warm_auto_matches_cold_after_bound_change(lp in boxed_lp(5, 6), shrink in 0.2..1.0f64) {
        let m = build(&lp);
        let Ok(first) = m.solve() else { return Ok(()) };
        let m2 = shrunk(&lp, shrink);
        let opts = SimplexOptions::default();
        let warm = m2.solve_with(&opts, Some(&first.basis));
        agree("warm vs cold", &warm, &m2.solve())?;
        used_hint_skips_phase1("warm", &warm)?;
        wrappers_agree("cold, model vs standing form", &m, &opts, None)?;
        wrappers_agree("warm, model vs standing form", &m2, &opts, Some(&first.basis))?;
    }

    /// A warm restart after one coefficient changes, on one-sided
    /// columns: the old basis can turn primal- *and* dual-infeasible,
    /// with a wrong-sign ray no bound flip fixes. The dual then starts
    /// on shifted costs and must still land on the cold answer —
    /// optimal, infeasible or unbounded.
    #[test]
    fn warm_auto_matches_cold_after_coefficient_change(
        lp in one_sided_lp(5, 6),
        pick in 0..64usize,
        coeff in -3.0..3.0f64,
    ) {
        let Ok(first) = build(&lp).solve() else { return Ok(()) };
        // A coefficient of a basic column moves both the basic values
        // and the duals; fall back to any term when none is basic.
        let all: Vec<(usize, usize)> = lp
            .cons
            .iter()
            .enumerate()
            .flat_map(|(i, (t, _, _))| (0..t.len()).map(move |k| (i, k)))
            .collect();
        let basic: Vec<(usize, usize)> = all
            .iter()
            .copied()
            .filter(|&(i, k)| first.basis.0[lp.cons[i].0[k].0] == ColStatus::Basic)
            .collect();
        let terms = if basic.is_empty() { all } else { basic };
        let (i, k) = terms[pick % terms.len()];
        let mut lp2 = lp.clone();
        lp2.cons[i].0[k].1 = coeff;
        let m2 = build(&lp2);
        let opts = SimplexOptions::default();
        let warm = m2.solve_with(&opts, Some(&first.basis));
        agree("warm vs cold", &warm, &m2.solve())?;
        used_hint_skips_phase1("warm", &warm)?;
        wrappers_agree("warm, model vs standing form", &m2, &opts, Some(&first.basis))?;
    }
}
