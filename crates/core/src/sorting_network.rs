//! Sorting-network encoding of the largest/smallest-M values of a set of
//! LP expressions — paper §4.4.2, Algorithms 1 and 2, Figure 8.
//!
//! A sorting network's compare–swap sequence is *data-independent*, which
//! lets each comparator be encoded as linear constraints. Because FFC
//! only needs the largest (or smallest) `M` values, a partial
//! bubble-sort network with `O(N·M)` comparators suffices: stage `j`
//! bubbles the `j`-th extreme value out of the remaining array.
//!
//! Each compare–swap over inputs `x`, `x*` introduces **3 variables**
//! (`xmax`, `xmin`, `z ≈ |x − x*|`) and **4 constraints** — exactly the
//! multiplicative factors the paper quotes (§4.4.3):
//!
//! ```text
//! z ≥ x − x*        z ≥ x* − x
//! 2·xmax = x + x* + z
//! 2·xmin = x + x* − z
//! ```
//!
//! `z` over-approximates `|x − x*|` (the LP may set it larger), which can
//! only *raise* `xmax` and *lower* `xmin`. Both directions make the FFC
//! constraints they feed into tighter, never looser — so feasible
//! solutions remain congestion-free, and at the optimum the relaxation is
//! tight wherever it binds (see `DESIGN.md` §3).

use ffc_lp::{Cmp, LinExpr, Model};

/// One compare–swap: returns `(max_expr, min_expr)` as fresh variables
/// tied to `x` and `y` by the four comparator constraints.
pub fn compare_swap(model: &mut Model, x: &LinExpr, y: &LinExpr) -> (LinExpr, LinExpr) {
    let xmax = model.add_var(f64::NEG_INFINITY, f64::INFINITY, "cs_max");
    let xmin = model.add_var(f64::NEG_INFINITY, f64::INFINITY, "cs_min");
    let z = model.add_var(0.0, f64::INFINITY, "cs_z");
    // z >= x - y  and  z >= y - x.
    model.add_con(x.clone() - y.clone() - z, Cmp::Le, 0.0);
    model.add_con(y.clone() - x.clone() - z, Cmp::Le, 0.0);
    // 2*xmax = x + y + z ; 2*xmin = x + y - z.
    model.add_con(
        LinExpr::term(xmax, 2.0) - x.clone() - y.clone() - z,
        Cmp::Eq,
        0.0,
    );
    model.add_con(
        LinExpr::term(xmin, 2.0) - x.clone() - y.clone() + LinExpr::from(z),
        Cmp::Eq,
        0.0,
    );
    (LinExpr::from(xmax), LinExpr::from(xmin))
}

/// Algorithm 2 (`BubbleMax`): one bubble pass extracting the maximum.
///
/// Consumes the array and returns `(max_expr, remaining_array)`.
fn bubble_max(model: &mut Model, mut xs: Vec<LinExpr>) -> (LinExpr, Vec<LinExpr>) {
    let mut best = xs.pop().expect("bubble_max needs a nonempty array");
    let mut rest = Vec::with_capacity(xs.len());
    while let Some(x) = xs.pop() {
        let (hi, lo) = compare_swap(model, &best, &x);
        best = hi;
        rest.push(lo);
    }
    (best, rest)
}

/// The min-side dual of [`bubble_max`].
fn bubble_min(model: &mut Model, mut xs: Vec<LinExpr>) -> (LinExpr, Vec<LinExpr>) {
    let mut best = xs.pop().expect("bubble_min needs a nonempty array");
    let mut rest = Vec::with_capacity(xs.len());
    while let Some(x) = xs.pop() {
        let (hi, lo) = compare_swap(model, &best, &x);
        best = lo;
        rest.push(hi);
    }
    (best, rest)
}

/// Algorithm 1 (`LargestValues`): expressions for (upper bounds on) the
/// `m` largest of `exprs`, in decreasing order.
///
/// `m` is clamped to `exprs.len()`. Returns an empty vector for empty
/// input.
pub fn largest_values(model: &mut Model, exprs: Vec<LinExpr>, m: usize) -> Vec<LinExpr> {
    let m = m.min(exprs.len());
    let mut xs = exprs;
    let mut out = Vec::with_capacity(m);
    for _ in 0..m {
        if xs.is_empty() {
            break;
        }
        let (top, rest) = bubble_max(model, xs);
        out.push(top);
        xs = rest;
    }
    out
}

/// Expressions for (lower bounds on) the `m` smallest of `exprs`, in
/// increasing order.
pub fn smallest_values(model: &mut Model, exprs: Vec<LinExpr>, m: usize) -> Vec<LinExpr> {
    let m = m.min(exprs.len());
    let mut xs = exprs;
    let mut out = Vec::with_capacity(m);
    for _ in 0..m {
        if xs.is_empty() {
            break;
        }
        let (bottom, rest) = bubble_min(model, xs);
        out.push(bottom);
        xs = rest;
    }
    out
}

/// Sum of (upper bounds on) the `m` largest values — the left-hand side
/// of the bounded M-sum constraint Eqn 12/14.
pub fn sum_largest(model: &mut Model, exprs: Vec<LinExpr>, m: usize) -> LinExpr {
    largest_values(model, exprs, m)
        .into_iter()
        .fold(LinExpr::zero(), |acc, e| acc + e)
}

/// Sum of (lower bounds on) the `m` smallest values — the left-hand side
/// of Eqn 15.
pub fn sum_smallest(model: &mut Model, exprs: Vec<LinExpr>, m: usize) -> LinExpr {
    smallest_values(model, exprs, m)
        .into_iter()
        .fold(LinExpr::zero(), |acc, e| acc + e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffc_lp::{Sense, Solution};

    /// Fixes a list of constants as LP variables and returns their exprs.
    fn constants(model: &mut Model, vals: &[f64]) -> Vec<LinExpr> {
        vals.iter()
            .map(|&v| LinExpr::from(model.add_var(v, v, "c")))
            .collect()
    }

    /// Solves minimizing `target` and returns the solution.
    fn minimize(model: &mut Model, target: &LinExpr) -> Solution {
        model.set_objective(target.clone(), Sense::Minimize);
        model.solve().expect("solvable")
    }

    #[test]
    fn compare_swap_orders_two_values() {
        let mut m = Model::new();
        let cs = constants(&mut m, &[3.0, 7.0]);
        let (hi, lo) = compare_swap(&mut m, &cs[0], &cs[1]);
        // Minimizing hi - lo drives z to |x - y| exactly.
        let sol = minimize(&mut m, &(hi.clone() - lo.clone()));
        assert!((sol.eval(&hi) - 7.0).abs() < 1e-6);
        assert!((sol.eval(&lo) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn largest_values_of_constants() {
        let mut m = Model::new();
        let cs = constants(&mut m, &[5.0, 9.0, 1.0, 7.0]);
        let tops = largest_values(&mut m, cs, 2);
        let total = tops[0].clone() + tops[1].clone();
        let sol = minimize(&mut m, &total);
        // The *sum* is tight at the optimum: 9 + 7. (The individual
        // outputs may trade against each other across alternate optima:
        // inflating a comparator's z raises the max output exactly as
        // much as it lowers a rest entry.)
        assert!(
            (sol.eval(&total) - 16.0).abs() < 1e-6,
            "{}",
            sol.eval(&total)
        );
        // Output 1 always dominates the true maximum.
        assert!(sol.eval(&tops[0]) >= 9.0 - 1e-6);
        // And consequently output 2 cannot exceed the complement.
        assert!(sol.eval(&tops[1]) <= 7.0 + 1e-6);
    }

    #[test]
    fn smallest_values_of_constants() {
        let mut m = Model::new();
        let cs = constants(&mut m, &[5.0, 9.0, 1.0, 7.0, 2.0]);
        let bottoms = smallest_values(&mut m, cs, 3);
        let total = bottoms.iter().fold(LinExpr::zero(), |a, b| a + b.clone());
        // Maximizing the smallest-sum drives it up to the true value.
        m.set_objective(total.clone(), Sense::Maximize);
        let sol = m.solve().unwrap();
        // 1 + 2 + 5 = 8.
        assert!(
            (sol.eval(&total) - 8.0).abs() < 1e-6,
            "{}",
            sol.eval(&total)
        );
    }

    #[test]
    fn largest_m_clamped_to_n() {
        let mut m = Model::new();
        let cs = constants(&mut m, &[4.0, 2.0]);
        let tops = largest_values(&mut m, cs, 10);
        assert_eq!(tops.len(), 2);
        let total = tops[0].clone() + tops[1].clone();
        let sol = minimize(&mut m, &total);
        assert!((sol.eval(&total) - 6.0).abs() < 1e-6);
    }

    #[test]
    fn empty_input() {
        let mut m = Model::new();
        assert!(largest_values(&mut m, vec![], 3).is_empty());
        assert!(smallest_values(&mut m, vec![], 3).is_empty());
        assert_eq!(m.num_vars(), 0);
    }

    #[test]
    fn single_element_passthrough() {
        let mut m = Model::new();
        let cs = constants(&mut m, &[42.0]);
        let tops = largest_values(&mut m, cs, 1);
        assert_eq!(tops.len(), 1);
        // No comparator should be created for a single element.
        assert_eq!(m.num_cons(), 0);
    }

    #[test]
    fn comparator_counts_match_paper_factors() {
        // N inputs, M=k stages: stage j has (N-j) comparators, each with
        // 3 vars and 4 constraints.
        let n = 6;
        let k = 2;
        let mut m = Model::new();
        let cs = constants(&mut m, &vec![1.0; n]);
        let base_vars = m.num_vars();
        let base_cons = m.num_cons();
        let _ = largest_values(&mut m, cs, k);
        let comparators = (n - 1) + (n - 2);
        assert_eq!(m.num_vars() - base_vars, 3 * comparators);
        assert_eq!(m.num_cons() - base_cons, 4 * comparators);
    }

    #[test]
    fn bound_on_largest_sum_constrains_variables() {
        // Free variables x_i in [0, 10]; constrain sum of 2 largest <= 8;
        // maximize sum of all three. Optimum: two at 4, one at 4 (any
        // split with top-2 <= 8): total maximized = 8 + third <= min(top2
        // values)... With symmetric optimum all equal to 4: total 12.
        let mut m = Model::new();
        let xs: Vec<_> = (0..3)
            .map(|i| m.add_var(0.0, 10.0, format!("x{i}")))
            .collect();
        let exprs: Vec<LinExpr> = xs.iter().map(|&v| LinExpr::from(v)).collect();
        let top2 = sum_largest(&mut m, exprs, 2);
        m.add_con(top2, Cmp::Le, 8.0);
        m.set_objective(LinExpr::sum(xs.iter().copied()), Sense::Maximize);
        let sol = m.solve().unwrap();
        // Any two of the three must sum <= 8 -> all pairwise sums <= 8.
        for i in 0..3 {
            for j in i + 1..3 {
                let s = sol.value(xs[i]) + sol.value(xs[j]);
                assert!(s <= 8.0 + 1e-6, "pair ({i},{j}) sums to {s}");
            }
        }
        // And the optimum should reach 12 (all at 4).
        assert!(
            (sol.objective - 12.0).abs() < 1e-5,
            "objective {}",
            sol.objective
        );
    }

    #[test]
    fn bound_on_smallest_sum_supports_variables() {
        // x_i in [0, 10], sum of 2 smallest >= 6, minimize total.
        // Optimum: all three... two smallest sum >= 6 -> best is x =
        // [3, 3, 3] (any pair sums 6), total 9.
        let mut m = Model::new();
        let xs: Vec<_> = (0..3)
            .map(|i| m.add_var(0.0, 10.0, format!("x{i}")))
            .collect();
        let exprs: Vec<LinExpr> = xs.iter().map(|&v| LinExpr::from(v)).collect();
        let bottom2 = sum_smallest(&mut m, exprs, 2);
        m.add_con(bottom2, Cmp::Ge, 6.0);
        m.set_objective(LinExpr::sum(xs.iter().copied()), Sense::Minimize);
        let sol = m.solve().unwrap();
        for i in 0..3 {
            for j in i + 1..3 {
                let s = sol.value(xs[i]) + sol.value(xs[j]);
                assert!(s >= 6.0 - 1e-6, "pair ({i},{j}) sums to {s}");
            }
        }
        assert!(
            (sol.objective - 9.0).abs() < 1e-5,
            "objective {}",
            sol.objective
        );
    }
}
