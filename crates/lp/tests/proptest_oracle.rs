//! Differential LP oracle: the dense tableau solver and the sparse
//! simplex, cold (primal crash + phase 1) and warm (the dual from a
//! nearby LP's optimal basis), must classify every random LP
//! identically (optimal / infeasible / unbounded) and agree on the
//! objective when optimal; the sparse simplex on a per-solve lowering
//! and on a standing form must agree bit for bit. A warm solve whose
//! hint was used never runs phase 1. A basis completed from a proposal
//! with too many, too few or dependent basic columns
//! (`Model::complete_basis`) must have one independent basic column per
//! row and warm-start to the same answer.
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

#[path = "support/dense.rs"]
mod dense;

use dense::solve_dense;
use ffc_lp::lu::LuFactors;
use ffc_lp::sparse::CscMatrix;
use ffc_lp::standard::StdForm;
use ffc_lp::{
    BasisStatuses, Cmp, ColStatus, IncrementalModel, LinExpr, LpError, Model, Sense,
    SimplexOptions, Solution,
};
use proptest::prelude::*;
use proptest::test_runner::{run, CaseOutcome, TestCaseError};

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
    let mut standing = IncrementalModel::new(m.clone()).expect("generated LPs validate");
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

/// `lp` with the point of its optimum `opt` cut off through one of the
/// columns `opt` holds basic — the `pick`-th, modulo their number, of
/// the structural columns and the inequality rows' slacks: a column's
/// upper bound, or a row's right-hand side, moves past the optimum's
/// value by `cut` of `1 + |value|`. Re-solved from `opt`'s basis, that
/// column starts out of bounds: a primal infeasible, dual feasible start
/// the dual simplex has to repair, or prove infeasible. `lp` itself
/// when every basic column is an equality row's slack.
fn cut_off(lp: &RandomLp, opt: &Solution, pick: usize, cut: f64) -> RandomLp {
    let basic = |j: usize| opt.basis.0[j] == ColStatus::Basic;
    let columns: Vec<usize> = (0..lp.nvars)
        .filter(|&j| basic(j))
        .chain(
            (0..lp.cons.len())
                .filter(|&i| lp.cons[i].1 % 3 != 2 && basic(lp.nvars + i))
                .map(|i| lp.nvars + i),
        )
        .collect();
    let mut tight = lp.clone();
    let Some(&j) = columns.get(pick % columns.len().max(1)) else {
        return tight;
    };
    if j < lp.nvars {
        let v = opt.values[j];
        let (lo, hi) = &mut tight.bounds[j];
        *hi = v - (1.0 + v.abs()) * cut;
        *lo = lo.min(*hi);
    } else {
        let (terms, cmp, rhs) = &mut tight.cons[j - lp.nvars];
        let act: f64 = terms.iter().map(|&(k, c)| c * opt.values[k]).sum();
        let pad = (1.0 + act.abs()) * cut;
        *rhs = if *cmp % 3 == 0 { act - pad } else { act + pad };
    }
    tight
}

/// How the warm leg of [`differential`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WarmLeg {
    /// `lp` has no optimum: there is no basis to start from.
    Skipped,
    /// Optimal after at least one dual iteration.
    Dual,
    /// Infeasible: the cut left no feasible point, and the dual said so.
    Infeasible,
    /// Any other end (optimal with no dual iteration, unbounded).
    Other,
}

/// The cold leg, then the warm leg: `lp` with its optimum cut off
/// ([`cut_off`]) and re-solved from the optimal basis.
fn differential(lp: &RandomLp, pick: usize, cut: f64) -> Result<WarmLeg, TestCaseError> {
    let m = build(lp);
    let opts = SimplexOptions::default();
    let cold = m.solve();
    agree("cold vs dense", &cold, &solve_dense(&m))?;
    wrappers_agree("cold, model vs standing form", &m, &opts, None)?;
    let Ok(first) = cold else {
        return Ok(WarmLeg::Skipped);
    };
    let m = build(&cut_off(lp, &first, pick, cut));
    let warm = m.solve_with(&opts, Some(&first.basis));
    agree("warm vs dense", &warm, &solve_dense(&m))?;
    used_hint_skips_phase1("warm", &warm)?;
    wrappers_agree(
        "warm, model vs standing form",
        &m,
        &opts,
        Some(&first.basis),
    )?;
    Ok(match &warm {
        Ok(s) if s.stats.dual_iterations > 0 => WarmLeg::Dual,
        Err(LpError::Infeasible) => WarmLeg::Infeasible,
        _ => WarmLeg::Other,
    })
}

/// The warm legs are there to exercise the dual simplex. Over 256 cases
/// of each family, at least 90 % of the warm legs end in the dual — a
/// dual iteration before the optimum, or its infeasibility verdict — and
/// at least 30 % take a dual iteration.
#[test]
fn warm_legs_work_in_the_dual() {
    fn tally<S: Strategy<Value = RandomLp>>(name: &str, lps: S, legs: &mut Vec<WarmLeg>) {
        run(&ProptestConfig::with_cases(256), name, |rng| {
            let (Some(lp), Some(pick), Some(cut)) = (
                lps.generate(rng),
                (0..8usize).generate(rng),
                (0.001..0.05f64).generate(rng),
            ) else {
                return CaseOutcome::Reject;
            };
            match differential(&lp, pick, cut) {
                Ok(leg) => {
                    legs.push(leg);
                    CaseOutcome::Pass
                }
                Err(e) => CaseOutcome::Fail(e.message),
            }
        });
    }
    let mut legs = Vec::new();
    tally("boxed legs", boxed_lp(5, 6), &mut legs);
    tally("mixed legs", mixed_lp(5, 6), &mut legs);
    tally("crossing legs", crossing_lp(6, 8), &mut legs);
    tally("degenerate legs", degenerate_lp(5, 7), &mut legs);
    let count = |kind| legs.iter().filter(|&&l| l == kind).count();
    let warm = legs.len() - count(WarmLeg::Skipped);
    let (dual, infeasible) = (count(WarmLeg::Dual), count(WarmLeg::Infeasible));
    eprintln!("{warm} warm legs: {dual} dual, {infeasible} infeasible");
    assert!(10 * (dual + infeasible) >= 9 * warm, "{legs:?}");
    assert!(10 * dual >= 3 * warm, "{dual} of {warm}");
}

/// What [`complete_proposal`] was handed: the proposed basic set's size
/// against the row count, or, at the row count, whether it factorizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Proposal {
    OverFull,
    UnderFull,
    Singular,
    Nonsingular,
}

/// The basis matrix of `statuses`' basic columns, or `None` unless
/// there is one per row.
fn basis_matrix(m: &Model, statuses: &BasisStatuses) -> Option<CscMatrix> {
    let std = StdForm::from_model(m);
    let columns: Vec<Vec<(usize, f64)>> = (0..std.n)
        .filter(|&j| statuses.0[j] == ColStatus::Basic)
        .map(|j| std.a.col(j).collect())
        .collect();
    (columns.len() == std.m).then(|| CscMatrix::from_columns(std.m, &columns))
}

/// Completes a proposal made from `lp`'s optimal basis by toggling the
/// columns `flips` marks (basic to nonbasic and back, cycling `flips`
/// over the columns): the result has one independent basic column per
/// row, and a warm solve from it agrees with the dense oracle. Completing
/// the optimal basis itself changes nothing.
fn complete_proposal(lp: &RandomLp, flips: &[bool]) -> Result<Option<Proposal>, TestCaseError> {
    let m = build(lp);
    let Ok(opt) = m.solve() else {
        return Ok(None);
    };
    // An optimal basis that kept an artificial basic reports one
    // column per row short: that one is an under-full proposal itself.
    let unchanged = m.complete_basis(&opt.basis);
    if basis_matrix(&m, &opt.basis).is_some() {
        prop_assert_eq!(unchanged.as_ref(), Some(&opt.basis));
    }
    let proposed = BasisStatuses(
        opt.basis
            .0
            .iter()
            .zip(flips.iter().cycle())
            .map(|(&s, &flip)| match (s, flip) {
                (_, false) => s,
                (ColStatus::Basic, true) => ColStatus::Lower,
                (_, true) => ColStatus::Basic,
            })
            .collect(),
    );
    let basics = proposed
        .0
        .iter()
        .filter(|&&s| s == ColStatus::Basic)
        .count();
    let kind = match basics.cmp(&m.num_cons()) {
        std::cmp::Ordering::Greater => Proposal::OverFull,
        std::cmp::Ordering::Less => Proposal::UnderFull,
        std::cmp::Ordering::Equal => {
            match basis_matrix(&m, &proposed).map(|b| LuFactors::factorize(&b)) {
                Some(Ok(_)) => Proposal::Nonsingular,
                _ => Proposal::Singular,
            }
        }
    };
    let done = m.complete_basis(&proposed);
    let Some(done) = done else {
        return Err(TestCaseError::fail(
            "one status per column, yet no completion",
        ));
    };
    let b = basis_matrix(&m, &done);
    prop_assert!(b.is_some(), "{:?}: not one basic column per row", kind);
    prop_assert!(
        b.map(|b| LuFactors::factorize(&b).is_ok()) == Some(true),
        "{:?}: singular",
        kind
    );
    let warm = m.solve_with(&SimplexOptions::default(), Some(&done));
    agree("completed warm vs dense", &warm, &solve_dense(&m))?;
    used_hint_skips_phase1("completed warm", &warm)?;
    Ok(Some(kind))
}

/// The completion sees every kind of proposal: over 256 cases of each
/// family, proposals with too many, too few, and exactly enough but
/// dependent basic columns all occur.
#[test]
fn completion_sees_every_kind_of_proposal() {
    fn tally<S: Strategy<Value = RandomLp>>(name: &str, lps: S, kinds: &mut Vec<Proposal>) {
        run(&ProptestConfig::with_cases(256), name, |rng| {
            let (Some(lp), Some(flips)) = (
                lps.generate(rng),
                prop::collection::vec(any::<bool>(), 1..6).generate(rng),
            ) else {
                return CaseOutcome::Reject;
            };
            match complete_proposal(&lp, &flips) {
                Ok(kind) => {
                    kinds.extend(kind);
                    CaseOutcome::Pass
                }
                Err(e) => CaseOutcome::Fail(e.message),
            }
        });
    }
    let mut kinds = Vec::new();
    tally("boxed proposals", boxed_lp(5, 6), &mut kinds);
    tally("mixed proposals", mixed_lp(5, 6), &mut kinds);
    tally("crossing proposals", crossing_lp(6, 8), &mut kinds);
    tally("degenerate proposals", degenerate_lp(5, 7), &mut kinds);
    for kind in [
        Proposal::OverFull,
        Proposal::UnderFull,
        Proposal::Singular,
        Proposal::Nonsingular,
    ] {
        let n = kinds.iter().filter(|&&k| k == kind).count();
        eprintln!("{kind:?}: {n}");
        assert!(n > 0, "no {kind:?} proposal in {} completions", kinds.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Fully boxed LPs: dense, cold and warm must agree. The warm
    /// dual starts on the true costs here.
    #[test]
    fn boxed_lps_agree_across_solvers(lp in boxed_lp(5, 6), pick in 0..8usize, cut in 0.001..0.05f64) {
        differential(&lp, pick, cut)?;
    }

    /// Mixed/one-sided bounds, including unbounded instances.
    #[test]
    fn mixed_lps_agree_across_solvers(lp in mixed_lp(5, 6), pick in 0..8usize, cut in 0.001..0.05f64) {
        differential(&lp, pick, cut)?;
    }

    /// Larger LPs with bounds below zero and fixed columns: cold and
    /// warm agree with the dense oracle as well.
    #[test]
    fn crossing_lps_agree_across_solvers(lp in crossing_lp(6, 8), pick in 0..8usize, cut in 0.001..0.05f64) {
        differential(&lp, pick, cut)?;
    }

    /// Degenerate small-integer LPs with zero rhs and duplicate-prone
    /// rows; both ratio tests hit ties and must still terminate on the
    /// same answer.
    #[test]
    fn degenerate_lps_agree_across_solvers(
        lp in degenerate_lp(5, 7),
        pick in 0..8usize,
        cut in 0.001..0.05f64,
    ) {
        if let Err(e) = differential(&lp, pick, cut) {
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
