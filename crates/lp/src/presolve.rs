//! Presolve: problem reductions applied before the simplex.
//!
//! Two safe, high-yield reductions:
//!
//! 1. **Fixed-variable elimination** — a variable with `lb == ub` is a
//!    constant; substitute it into every constraint and the objective.
//!    FFC workloads produce many of these (dead tunnels pinned to zero,
//!    `τ = 0` flows).
//! 2. **Empty-constraint elimination** — rows with no variables left
//!    are checked against their right-hand side: trivially true rows
//!    vanish; trivially false rows prove infeasibility before any
//!    simplex work.
//!
//! [`presolve`] returns the reduced model plus a [`VarMap`] that
//! [`postsolve`] uses to expand a reduced solution back to the original
//! variable space.
//!
//! Warm starts bypass presolve: basis statuses are positional, and the
//! reduction would change the column space between solves.

use crate::expr::LinExpr;
use crate::model::{LpError, Model, Sense};

/// Where each original variable went.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VarMap {
    /// Kept, at this index in the reduced model.
    Kept(usize),
    /// Eliminated as a constant.
    Fixed(f64),
}

/// Outcome of presolving.
#[derive(Debug, Clone)]
pub struct Presolved {
    /// The reduced model.
    pub model: Model,
    /// Disposition of each original variable.
    pub map: Vec<VarMap>,
    /// Original variable count (for postsolve assertions).
    pub original_vars: usize,
}

/// Applies the reductions. Returns `Err(Infeasible)` when an empty row
/// contradicts its right-hand side.
pub fn presolve(model: &Model) -> Result<Presolved, LpError> {
    let n = model.num_vars();
    // Pass 1: classify variables.
    let mut map = Vec::with_capacity(n);
    let mut reduced = Model::new();
    for v in model.var_ids() {
        let (lb, ub) = model.var_bounds(v);
        if lb == ub {
            map.push(VarMap::Fixed(lb));
        } else {
            let idx = reduced.num_vars();
            // Names are dropped in the reduced model (debug dumps of the
            // original remain available to callers).
            reduced.add_var_unnamed(lb, ub);
            map.push(VarMap::Kept(idx));
        }
    }

    // Helper: rewrite an expression into the reduced space.
    let rewrite = |expr: &LinExpr| -> LinExpr {
        let mut out = LinExpr::constant(expr.constant_part());
        for (v, c) in expr.terms() {
            match map[v.index()] {
                VarMap::Kept(idx) => {
                    out.add_term(crate::expr::VarId(idx), c);
                }
                VarMap::Fixed(val) => {
                    out.add_constant(c * val);
                }
            }
        }
        out
    };

    // Pass 2: constraints.
    let tol = 1e-9;
    for c in &model.cons {
        let mut e = rewrite(&c.expr);
        e.compress();
        if e.is_empty() {
            // Constant row: check and drop.
            let lhs = e.constant_part();
            let ok = match c.cmp {
                crate::model::Cmp::Le => lhs <= c.rhs + tol,
                crate::model::Cmp::Ge => lhs >= c.rhs - tol,
                crate::model::Cmp::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return Err(LpError::Infeasible);
            }
            continue;
        }
        reduced.add_con(e, c.cmp, c.rhs);
    }

    // Objective.
    let obj = rewrite(&model.objective);
    reduced.set_objective(obj, model.sense);

    Ok(Presolved {
        model: reduced,
        map,
        original_vars: n,
    })
}

/// Expands a reduced-space value vector back to the original variables.
pub fn postsolve(pre: &Presolved, reduced_values: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(pre.original_vars);
    for m in &pre.map {
        out.push(match *m {
            VarMap::Kept(idx) => reduced_values[idx],
            VarMap::Fixed(v) => v,
        });
    }
    out
}

impl Presolved {
    /// How many variables were eliminated.
    pub fn eliminated(&self) -> usize {
        self.map
            .iter()
            .filter(|m| matches!(m, VarMap::Fixed(_)))
            .count()
    }
}

/// The objective contribution already decided by fixed variables plus
/// the reduced solve's objective equals the original objective, for any
/// `Sense` — kept as a function for the tests.
pub fn check_objective_consistency(
    original: &Model,
    pre: &Presolved,
    full_values: &[f64],
    reported: f64,
) -> bool {
    let direct = original.objective.eval(full_values);
    let _ = pre;
    let _ = matches!(original.sense, Sense::Maximize | Sense::Minimize);
    (direct - reported).abs() <= 1e-6 * (1.0 + reported.abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, Model, Sense};

    #[test]
    fn fixed_vars_are_substituted() {
        let mut m = Model::new();
        let x = m.add_var(3.0, 3.0, "x"); // fixed
        let y = m.add_var(0.0, 10.0, "y");
        m.add_con(LinExpr::from(x) + y, Cmp::Le, 8.0);
        m.set_objective(LinExpr::from(x) + y, Sense::Maximize);
        let pre = presolve(&m).unwrap();
        assert_eq!(pre.eliminated(), 1);
        assert_eq!(pre.model.num_vars(), 1);
        // Reduced constraint is y <= 5.
        let sol = pre.model.solve().unwrap();
        assert!((sol.objective - 8.0).abs() < 1e-6); // 3 (fixed) + 5
        let full = postsolve(&pre, &sol.values);
        assert_eq!(full, vec![3.0, 5.0]);
        assert!(check_objective_consistency(&m, &pre, &full, 8.0));
    }

    #[test]
    fn contradictory_fixed_row_is_infeasible() {
        let mut m = Model::new();
        let x = m.add_var(3.0, 3.0, "x");
        m.add_con(LinExpr::from(x), Cmp::Ge, 5.0);
        assert_eq!(presolve(&m).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn satisfied_fixed_row_is_dropped() {
        let mut m = Model::new();
        let x = m.add_var(3.0, 3.0, "x");
        let y = m.add_nonneg("y");
        m.add_con(LinExpr::from(x), Cmp::Le, 5.0); // 3 <= 5: drop
        m.add_con(LinExpr::from(y), Cmp::Le, 2.0);
        let pre = presolve(&m).unwrap();
        assert_eq!(pre.model.num_cons(), 1);
    }

    #[test]
    fn cancelling_terms_make_constant_rows() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 5.0, "x");
        // x - x <= -1 is infeasible after compression.
        let e = LinExpr::from(x) - LinExpr::from(x);
        m.add_con(e, Cmp::Le, -1.0);
        assert_eq!(presolve(&m).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn no_op_on_general_models() {
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        let y = m.add_var(0.0, 4.0, "y");
        m.add_con(LinExpr::from(x) + y, Cmp::Le, 6.0);
        m.set_objective(LinExpr::from(x) + y, Sense::Maximize);
        let pre = presolve(&m).unwrap();
        assert_eq!(pre.eliminated(), 0);
        assert_eq!(pre.model.num_cons(), 1);
    }
}
