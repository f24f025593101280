//! Differential LP oracle: three independent solve paths — the dense
//! tableau solver, the sparse *primal* simplex, and the sparse *dual*
//! simplex — must classify every random LP identically (optimal /
//! infeasible / unbounded) and agree on the objective when optimal.
//!
//! Three instance families stress different corners:
//! * fully boxed LPs (the dual starts directly from a dual-feasibilized
//!   slack/crash basis — no primal fallback),
//! * mixed-bound LPs with one-sided and near-free variables (can be
//!   unbounded; the dual may fall back to primal and must still agree),
//! * small-integer degenerate LPs (tied ratios, duplicated rows, zero
//!   right-hand sides — the classic cycling traps).

use ffc_lp::dense::solve_dense;
use ffc_lp::{
    Algorithm, BasisStatuses, Cmp, IncrementalModel, LinExpr, LpError, Model, Sense,
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
/// feasibilize a cold basis by bound flips, so `Algorithm::Dual` runs
/// real dual iterations rather than falling back.
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
/// can be unbounded, and the dual path often has to reject the start
/// basis and fall back to primal — the answer must not change.
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

fn solve_algo(m: &Model, algorithm: Algorithm) -> Result<Solution, LpError> {
    // Presolve off so the simplex (primal or dual) sees the whole model
    // rather than a reduced one the presolver may have already decided.
    m.solve_with(
        &SimplexOptions {
            algorithm,
            presolve: false,
            ..SimplexOptions::default()
        },
        None,
    )
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

/// One engine regardless of wrapper: with presolve off, solving the
/// standing lowered form and lowering the model per solve must walk the
/// same pivots to the same bits.
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

fn differential(lp: &RandomLp) -> Result<(), TestCaseError> {
    let m = build(lp);
    let dense = solve_dense(&m);
    let primal = solve_algo(&m, Algorithm::Primal);
    let dual = solve_algo(&m, Algorithm::Dual);
    agree("primal vs dense", &primal, &dense)?;
    agree("dual vs dense", &dual, &dense)?;
    agree("dual vs primal", &dual, &primal)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Fully boxed LPs: dense, primal, and dual must agree. The dual
    /// never needs a primal fallback here.
    #[test]
    fn boxed_lps_agree_across_solvers(lp in boxed_lp(5, 6)) {
        differential(&lp)?;
    }

    /// Mixed/one-sided bounds, including unbounded instances.
    #[test]
    fn mixed_lps_agree_across_solvers(lp in mixed_lp(5, 6)) {
        differential(&lp)?;
    }

    /// Degenerate small-integer LPs with zero rhs and duplicate-prone
    /// rows; both ratio tests hit ties and must still terminate on the
    /// same answer.
    #[test]
    fn degenerate_lps_agree_across_solvers(lp in degenerate_lp(5, 7)) {
        if let Err(e) = differential(&lp) {
            eprintln!("failing LP: {lp:?}");
            return Err(e);
        }
    }

    /// Warm `Auto` restart after a bound perturbation must land on the
    /// same optimum as a cold solve of the perturbed model. This is the
    /// scenario-sweep pattern: the warm basis is primal-infeasible but
    /// dual-feasible, so `Auto` re-enters through dual iterations.
    #[test]
    fn warm_auto_matches_cold_after_bound_change(lp in boxed_lp(5, 6), shrink in 0.2..1.0f64) {
        let m = build(&lp);
        let Ok(first) = solve_algo(&m, Algorithm::Primal) else { return Ok(()) };
        let mut m2 = build(&lp);
        for v in m2.var_ids().collect::<Vec<_>>() {
            let (lo, hi) = m2.var_bounds(v);
            if hi.is_finite() {
                // Shrink toward the lower bound: cuts off the old
                // optimum often enough to force real dual pivots.
                m2.set_bounds(v, lo, lo + (hi - lo) * shrink);
            }
        }
        let cold = solve_algo(&m2, Algorithm::Primal);
        let auto = SimplexOptions { algorithm: Algorithm::Auto, presolve: false, ..SimplexOptions::default() };
        let warm = m2.solve_with(&auto, Some(&first.basis));
        agree("warm auto vs cold", &warm, &cold)?;
        wrappers_agree("cold, model vs standing form", &m, &auto, None)?;
        wrappers_agree("warm, model vs standing form", &m2, &auto, Some(&first.basis))?;
    }
}
