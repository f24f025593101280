//! The kept passes of a warm solve against the two-pass path they
//! replaced: the primal pass taking the reduced costs (and duals) the
//! dual start computed on the true costs, and the bound restoration
//! solving the right-hand side the hint load accumulated at the true
//! bounds. Every solve runs twice — as it is, and under the `TWO_PASS`
//! oracle, which prices and accumulates afresh — and the two must agree
//! to the bit: values, duals, statuses, objective and every
//! [`SolveStats`] count.

use std::cell::Cell;
use std::time::Duration;

use super::*;
use crate::expr::{LinExpr, VarId};
use crate::incremental::IncrementalModel;
use crate::model::{Cmp, Model, Sense};

/// Kept pricings and kept right-hand sides this thread has used.
fn kept_counts() -> [usize; 2] {
    [KEPT_PRICES.with(Cell::get), KEPT_RHS.with(Cell::get)]
}

/// Both outcomes are the same to the bit; only the time splits may
/// differ.
fn assert_same_solve(
    kept: &Result<Solution, LpError>,
    two: &Result<Solution, LpError>,
    what: &str,
) {
    let (kept, two) = match (kept, two) {
        (Ok(kept), Ok(two)) => (kept, two),
        (Err(kept), Err(two)) => return assert_eq!(kept, two, "{what}"),
        _ => panic!("{what}: {kept:?} vs {two:?}"),
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(kept.objective.to_bits(), two.objective.to_bits(), "{what}");
    assert_eq!(bits(&kept.values), bits(&two.values), "{what}");
    assert_eq!(bits(&kept.duals), bits(&two.duals), "{what}");
    assert_eq!(kept.basis, two.basis, "{what}");
    assert_eq!(kept.iterations, two.iterations, "{what}");
    let untimed = |s: &SolveStats| SolveStats {
        solve_time: Duration::ZERO,
        factor_time: Duration::ZERO,
        ftran_time: Duration::ZERO,
        btran_time: Duration::ZERO,
        price_time: Duration::ZERO,
        ..*s
    };
    assert_eq!(untimed(&kept.stats), untimed(&two.stats), "{what}");
}

/// Runs `solve` as it is, then under the two-pass oracle, asserts the
/// two agree and returns the first with the `[pricings, right-hand
/// sides]` it kept.
fn against_two_pass(
    what: &str,
    mut solve: impl FnMut() -> Result<Solution, LpError>,
) -> (Result<Solution, LpError>, [usize; 2]) {
    let before = kept_counts();
    let kept = solve();
    let after = kept_counts();
    TWO_PASS.with(|c| c.set(true));
    let two = solve();
    TWO_PASS.with(|c| c.set(false));
    assert_eq!(kept_counts(), after, "{what}: the oracle keeps nothing");
    assert_same_solve(&kept, &two, what);
    (kept, [after[0] - before[0], after[1] - before[1]])
}

/// A protected TE LP of the paper's shape (§4, data-plane FFC at
/// `k_e = 1`): per flow a granted rate `b_f ∈ [0, d_f]` and one
/// allocation `a_ft ∈ [0, d_f]` per tunnel, each tunnel a few random
/// links; `Σ a ≤ c_e` on every link; the tunnels of a flow carry `b_f`,
/// and so do those that avoid any one link they use. Maximizes the
/// granted rate less a small cost per unit allocated. Returns the model
/// and each flow's rate variable and demand.
fn ffc_lp(links: usize, flows: usize, tunnels: usize, seed: u64) -> (Model, Vec<VarId>, Vec<f64>) {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    let mut m = Model::new();
    let mut on_link: Vec<LinExpr> = vec![LinExpr::default(); links];
    let mut objective = LinExpr::default();
    let (mut rates, mut demands) = (Vec::new(), Vec::new());
    for f in 0..flows {
        let demand = 0.5 + 2.5 * next();
        let rate = m.add_var(0.0, demand, format!("b{f}"));
        objective += LinExpr::from(rate);
        let mut paths: Vec<(VarId, Vec<usize>)> = Vec::new();
        for t in 0..tunnels {
            let a = m.add_var(0.0, demand, format!("a{f}_{t}"));
            objective += LinExpr::term(a, -1e-3);
            let mut path: Vec<usize> = Vec::new();
            while path.len() < 2 + (next() * 3.0) as usize {
                let e = (next() * links as f64) as usize % links;
                if !path.contains(&e) {
                    path.push(e);
                    on_link[e] += LinExpr::from(a);
                }
            }
            paths.push((a, path));
        }
        let carried = paths.iter().fold(LinExpr::default(), |s, (a, _)| s + *a);
        m.add_con(carried - rate, Cmp::Ge, 0.0);
        let mut used: Vec<usize> = paths.iter().flat_map(|(_, p)| p.iter().copied()).collect();
        used.sort_unstable();
        used.dedup();
        for e in used {
            let survivors = paths
                .iter()
                .filter(|(_, p)| !p.contains(&e))
                .fold(LinExpr::default(), |s, (a, _)| s + *a);
            m.add_con(survivors - rate, Cmp::Ge, 0.0);
        }
        rates.push(rate);
        demands.push(demand);
    }
    for row in on_link {
        m.add_con(row, Cmp::Le, 5.0 + 10.0 * next());
    }
    m.set_objective(objective, Sense::Maximize);
    (m, rates, demands)
}

/// A standing FFC LP re-solved after demand patches, kept and two-pass
/// side by side: mostly small moves (the old basis stays optimal, a
/// zero-iteration solve) and every fourth step a large one (the dual
/// pivots). Each re-solve starts from the previous one's basis and the
/// factorization it held.
fn patched_ffc_resolves(links: usize, flows: usize, tunnels: usize, steps: usize) {
    let (model, rates, demands) = ffc_lp(links, flows, tunnels, 0x5eed_ffc0 + links as u64);
    let opts = SimplexOptions::default();
    let standing = |m: Model| match IncrementalModel::new(m) {
        Ok(inc) => inc,
        Err(e) => panic!("the generated LP is valid: {e}"),
    };
    let (mut kept, mut two) = (standing(model.clone()), standing(model));
    let mut hint: Option<BasisStatuses> = None;
    let (mut zero, mut pivoted, mut used) = (0, 0, [0, 0]);
    for step in 0..steps {
        for (k, (&rate, &demand)) in rates.iter().zip(&demands).enumerate() {
            let scale = match (step % 4, (k + step) % 3) {
                (_, 1 | 2) => continue,
                (3, _) => 0.2,
                _ => 1.0 - 1e-4 * (1 + step) as f64,
            };
            kept.set_var_bounds(rate, 0.0, demand * scale);
            two.set_var_bounds(rate, 0.0, demand * scale);
        }
        let what = format!("{links} links, step {step}");
        let (sol, counts) = against_two_pass(&what, || {
            let inc = if TWO_PASS.with(Cell::get) {
                &mut two
            } else {
                &mut kept
            };
            inc.solve_with(&opts, hint.as_ref())
        });
        let sol = match sol {
            Ok(sol) => sol,
            Err(e) => panic!("{what}: {e}"),
        };
        match (hint.is_some(), sol.iterations) {
            (false, _) => assert_eq!(counts, [0, 0], "{what}: a cold solve keeps nothing"),
            (true, 0) => {
                assert_eq!(counts, [1, 1], "{what}: a zero-iteration solve keeps both");
                zero += 1;
            }
            (true, _) => {
                assert_eq!(counts[1], 0, "{what}: a solve that pivots re-accumulates");
                pivoted += 1;
            }
        }
        used = [used[0] + counts[0], used[1] + counts[1]];
        hint = Some(sol.basis);
    }
    assert!(
        zero >= steps / 2 && pivoted >= 1,
        "{zero} zero-iteration, {pivoted} pivoting re-solves"
    );
    assert!(used[0] >= zero && used[1] == zero, "kept {used:?}");
}

#[test]
fn patched_ffc_resolves_match_the_two_pass_path() {
    patched_ffc_resolves(24, 12, 3, 12);
}

/// The same at L-Net's link and tunnel counts (352 links, 128 flows ×
/// 6 tunnels).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "L-Net-sized: runs in release (--include-ignored)"
)]
fn patched_ffc_resolves_match_the_two_pass_path_at_l_net_size() {
    patched_ffc_resolves(352, 128, 6, 8);
}

/// A hint the true costs refuse runs the dual on shifted costs: nothing
/// it priced there is kept, and the primal pass prices afresh — also
/// when the dual has nothing to repair and the primal pass is the one
/// that pivots, on the true costs.
#[test]
fn a_shifted_cost_start_keeps_no_pricing() {
    let hint = super::tests::coefficient_model(3.0, 1.0)
        .solve()
        .unwrap()
        .basis;
    for g in [1.0, 5.0] {
        let m = super::tests::coefficient_model(1.25, g);
        let (sol, counts) = against_two_pass("shifted", || {
            m.solve_with(&SimplexOptions::default(), Some(&hint))
        });
        assert_eq!(counts, [0, 0], "shifted costs are not the primal pass's");
        if let Ok(sol) = sol {
            assert!(sol.stats.hint_used && sol.stats.dual_iterations > 0);
        }
    }
    // `max x` leaves `y` at zero with no upper bound to flip to; under
    // `max x + 2y` it prices wrong, but the basis stays primal feasible.
    let build = |cy: f64| {
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        m.add_con(LinExpr::from(x) + y, Cmp::Le, 4.0);
        m.set_objective(LinExpr::from(x) + LinExpr::term(y, cy), Sense::Maximize);
        m
    };
    let hint = build(0.0).solve().unwrap().basis;
    let m = build(2.0);
    let (sol, counts) = against_two_pass("shifted, primal pivots", || {
        m.solve_with(&SimplexOptions::default(), Some(&hint))
    });
    let sol = sol.unwrap();
    assert_eq!(sol.objective, 8.0);
    assert!(sol.stats.hint_used && sol.stats.dual_iterations == 0 && sol.iterations > 0);
    assert_eq!(counts, [0, 0], "the primal pass prices afresh, and pivots");
}

/// Bound flips at the dual start move the nonbasic values the load
/// accumulated at, but no reduced cost: the pricing is kept and the
/// right-hand side accumulated again. Here the flips alone make the
/// hint optimal.
#[test]
fn a_start_that_flips_bounds_keeps_its_pricing_only() {
    let build = |cx: f64| {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0, "x");
        let y = m.add_var(0.0, 2.0, "y");
        m.add_con(LinExpr::from(x) + y, Cmp::Le, 10.0);
        m.add_con(LinExpr::from(x) - y, Cmp::Le, 5.0);
        m.set_objective(LinExpr::term(x, cx) + y, Sense::Maximize);
        m
    };
    let hint = build(-1.0).solve().unwrap().basis;
    assert_eq!(&hint.0[..2], &[ColStatus::Lower, ColStatus::Upper]);
    let m = build(1.0);
    let (sol, counts) = against_two_pass("flips", || {
        m.solve_with(&SimplexOptions::default(), Some(&hint))
    });
    let sol = sol.unwrap();
    assert_eq!((sol.iterations, sol.stats.dual_bound_flips), (0, 1));
    assert_eq!(counts, [1, 0]);
}

/// The same on a protected TE LP, where the flipped allocations
/// overload links and the dual pivots: neither pass is kept.
#[test]
fn a_start_that_flips_bounds_and_pivots_keeps_nothing() {
    let (model, _, _) = ffc_lp(24, 12, 3, 0xf11b);
    let hint = model.solve().unwrap().basis;
    let mut std = StdForm::from_model(&model);
    // Make three nonbasic allocations at zero worth their full range:
    // the hinted basis prices them at the wrong sign, and they are
    // boxed.
    let mut flipped = 0;
    for (j, status) in hint.0.iter().enumerate().take(std.n_struct) {
        if *status == ColStatus::Lower && std.ub[j].is_finite() && flipped < 3 {
            std.obj[j] = -50.0;
            flipped += 1;
        }
    }
    assert_eq!(flipped, 3);
    let (sol, counts) = against_two_pass("flips and pivots", || {
        solve(&std, &SimplexOptions::default(), Some(&hint), &mut None)
    });
    let sol = sol.unwrap();
    assert!(
        sol.stats.dual_bound_flips >= 3 && sol.iterations > 0,
        "{:?}",
        sol.stats
    );
    assert_eq!(counts, [0, 0]);
}

/// The retry ladder's exact rung expands no bound: there is no second
/// right-hand side to keep, but the pricing still is.
#[test]
fn the_exact_rung_keeps_its_pricing_only() {
    let (model, _, _) = ffc_lp(24, 12, 3, 0xe4ac7);
    let std = StdForm::from_model(&model);
    let opts = SimplexOptions::default();
    let hint = solve(&std, &opts, None, &mut None).unwrap().basis;
    let (sol, counts) = against_two_pass("exact", || {
        solve_once(&std, &opts, Some(&hint), &mut None, true)
    });
    assert_eq!(sol.unwrap().iterations, 0);
    assert_eq!(counts, [1, 0]);
}

/// A hint that does not fit — the wrong shape, or a singular basis —
/// is a cold solve, which keeps nothing.
#[test]
fn a_hint_that_does_not_fit_keeps_nothing() {
    let (model, _, _) = ffc_lp(24, 12, 3, 0xbad);
    let std = StdForm::from_model(&model);
    let opts = SimplexOptions::default();
    let wrong_shape = BasisStatuses(vec![ColStatus::Basic; std.n + 1]);
    let (parallel, singular) = super::tests::parallel_rows();
    for (what, m, hint) in [
        ("wrong shape", &model, wrong_shape),
        ("singular", &parallel, singular),
    ] {
        let (sol, counts) = against_two_pass(what, || m.solve_with(&opts, Some(&hint)));
        assert!(!sol.unwrap().stats.hint_used, "{what}");
        assert_eq!(counts, [0, 0], "{what}");
    }
}
