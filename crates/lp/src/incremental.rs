//! Delta-LP: in-place patching of a standing model.
//!
//! Re-solve workloads (the per-interval FFC controller loop)
//! solve long runs of models that differ only in right-hand sides,
//! variable bounds and a handful of coefficients. Rebuilding the
//! [`Model`] and re-lowering it to [`StdForm`] every time costs
//! O(model); an [`IncrementalModel`] pays that cost **once** and then
//! applies each change to both representations in O(changes):
//!
//! * [`IncrementalModel::set_rhs`] — patch a constraint's right-hand
//!   side (demand/capacity rows).
//! * [`IncrementalModel::set_var_bounds`] — patch a variable's bounds
//!   (demand upper bounds, pinning dead tunnels to `[0, 0]`).
//! * [`IncrementalModel::set_coeff`] — patch one existing coefficient
//!   (stale-ingress weights). Only values already
//!   in the sparsity pattern may change — inserting or zeroing an entry
//!   would diverge from what a fresh build produces, so both are
//!   rejected as [`PatchError`]s.
//!
//! Every change is recorded in a journal of [`PatchOp`]s; [`mark`] /
//! [`revert_to`](IncrementalModel::revert_to) give O(changes) undo.
//!
//! Solving: [`IncrementalModel::solve_with`] hands the standing lowered
//! form to the same simplex entry [`Model::solve_with`] ends in,
//! skipping the per-solve lowering entirely. Presolve never runs here
//! (the standing form must keep its column space, exactly like warm
//! starts), so a patched solve is bit-identical to rebuilding the same
//! model and solving it with `presolve: false`.
//!
//! Correctness contract: after any sequence of patches, the standing
//! `Model` and `StdForm` are **bit-identical** to what a fresh build
//! with the same data would produce — [`diff_models`] checks the model
//! half exactly, and the FFC layer runs it under debug assertions on
//! every patched solve.
//!
//! [`mark`]: IncrementalModel::mark

// audit:allow-file(float-eq): comparisons here are exact structural
// checks (is the patched model bit-identical to a fresh build, is a
// patched coefficient exactly zero), not approximate value tests.

use std::fmt;

use crate::expr::VarId;
use crate::model::{BasisStatuses, ConId, LpError, Model, Solution};
use crate::simplex::{self, SimplexOptions};
use crate::standard::StdForm;

/// Why a coefficient patch was rejected (the standing model is left
/// unchanged in every case).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatchError {
    /// The targeted `(constraint, variable)` position holds no stored
    /// coefficient: inserting one would change the sparsity pattern,
    /// which a patch must never do — rebuild instead.
    AbsentCoefficient {
        /// Constraint index of the missing entry.
        con: usize,
        /// Variable index of the missing entry.
        var: usize,
    },
    /// The new value is exactly zero. A fresh build drops exact zeros
    /// from the pattern, so patching one in would leave the standing
    /// form structurally different from a rebuild — rebuild instead.
    ZeroCoefficient {
        /// Constraint index of the targeted entry.
        con: usize,
        /// Variable index of the targeted entry.
        var: usize,
    },
}

impl fmt::Display for PatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatchError::AbsentCoefficient { con, var } => {
                write!(f, "no stored coefficient at (con {con}, var x{var})")
            }
            PatchError::ZeroCoefficient { con, var } => {
                write!(f, "cannot patch (con {con}, var x{var}) to exact zero")
            }
        }
    }
}

impl std::error::Error for PatchError {}

/// One applied change, as recorded in the journal (old value first, so
/// the op carries everything needed to undo it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PatchOp {
    /// A right-hand-side change on one constraint.
    Rhs {
        /// The patched constraint.
        con: ConId,
        /// Value before the patch.
        old: f64,
        /// Value after the patch.
        new: f64,
    },
    /// A bounds change on one variable.
    VarBounds {
        /// The patched variable.
        var: VarId,
        /// `(lb, ub)` before the patch.
        old: (f64, f64),
        /// `(lb, ub)` after the patch.
        new: (f64, f64),
    },
    /// A single-coefficient change in one constraint row.
    Coeff {
        /// The patched constraint.
        con: ConId,
        /// The patched column.
        var: VarId,
        /// Coefficient before the patch.
        old: f64,
        /// Coefficient after the patch.
        new: f64,
    },
}

/// A standing model plus its lowered standard form, kept in lockstep
/// under in-place patches. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct IncrementalModel {
    model: Model,
    std: StdForm,
    journal: Vec<PatchOp>,
}

impl IncrementalModel {
    /// Takes ownership of a built model and lowers it once. Fails only
    /// on models that would fail [`Model::validate`].
    pub fn new(model: Model) -> Result<Self, LpError> {
        model.validate()?;
        let std = StdForm::from_model(&model);
        Ok(IncrementalModel {
            model,
            std,
            journal: Vec::new(),
        })
    }

    /// Read access to the standing model (for extraction, auditing and
    /// differential checks).
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The applied-change journal since construction (or the last
    /// [`clear_journal`](IncrementalModel::clear_journal)).
    pub fn journal(&self) -> &[PatchOp] {
        &self.journal
    }

    /// Forgets the journal (the patches stay applied). Call after a
    /// change set has been committed so long-lived caches do not
    /// accumulate history.
    pub fn clear_journal(&mut self) {
        self.journal.clear();
    }

    /// A position in the journal, for [`revert_to`](Self::revert_to).
    pub fn mark(&self) -> usize {
        self.journal.len()
    }

    /// Undoes every patch applied after `mark`, newest first.
    pub fn revert_to(&mut self, mark: usize) {
        while self.journal.len() > mark {
            // Journal entries are only pushed by the apply_* methods
            // below, so popping here cannot underflow past `mark`.
            let Some(op) = self.journal.pop() else { break };
            match op {
                PatchOp::Rhs { con, old, .. } => self.apply_rhs(con, old),
                PatchOp::VarBounds { var, old, .. } => self.apply_bounds(var, old.0, old.1),
                PatchOp::Coeff { con, var, old, .. } => {
                    // The entry existed when the patch was applied and
                    // `old` was its (nonzero) stored value, so the
                    // reverse patch cannot fail.
                    let _ = self.apply_coeff(con, var, old);
                }
            }
        }
    }

    /// Patches the right-hand side of constraint `con` in both the
    /// model and the standing lowered form.
    pub fn set_rhs(&mut self, con: ConId, rhs: f64) {
        let old = self.model.cons[con.index()].rhs;
        if old == rhs {
            return;
        }
        self.apply_rhs(con, rhs);
        self.journal.push(PatchOp::Rhs { con, old, new: rhs });
    }

    /// Patches the bounds of variable `var` in both representations.
    /// Invalid bounds (NaN, `lb > ub`) are caught by the validation the
    /// solve entry points run, exactly like [`Model::set_bounds`].
    pub fn set_var_bounds(&mut self, var: VarId, lb: f64, ub: f64) {
        let old = self.model.var_bounds(var);
        if old == (lb, ub) {
            return;
        }
        self.apply_bounds(var, lb, ub);
        self.journal.push(PatchOp::VarBounds {
            var,
            old,
            new: (lb, ub),
        });
    }

    /// Patches one stored coefficient of constraint `con`. The entry
    /// must already exist and the new value must be nonzero (see
    /// [`PatchError`]); on rejection nothing changes.
    pub fn set_coeff(&mut self, con: ConId, var: VarId, coeff: f64) -> Result<(), PatchError> {
        let old = self.apply_coeff(con, var, coeff)?;
        if old != coeff {
            self.journal.push(PatchOp::Coeff {
                con,
                var,
                old,
                new: coeff,
            });
        }
        Ok(())
    }

    /// Solves the standing form, cold or from a warm-start basis:
    /// [`Model::solve_with`] on the standing model with presolve off,
    /// minus the lowering.
    pub fn solve_with(
        &self,
        opts: &SimplexOptions,
        warm: Option<&BasisStatuses>,
    ) -> Result<Solution, LpError> {
        self.model.validate()?;
        simplex::solve(&self.std, opts, warm)
    }

    fn apply_rhs(&mut self, con: ConId, rhs: f64) {
        self.model.cons[con.index()].rhs = rhs;
        self.std.b[con.index()] = rhs;
    }

    fn apply_bounds(&mut self, var: VarId, lb: f64, ub: f64) {
        let d = &mut self.model.vars[var.index()];
        d.lb = lb;
        d.ub = ub;
        // Structural columns precede slacks in the lowered form, at the
        // same indices.
        self.std.lb[var.index()] = lb;
        self.std.ub[var.index()] = ub;
    }

    /// Applies a coefficient patch to both representations, returning
    /// the previous value.
    fn apply_coeff(&mut self, con: ConId, var: VarId, coeff: f64) -> Result<f64, PatchError> {
        if coeff == 0.0 {
            return Err(PatchError::ZeroCoefficient {
                con: con.index(),
                var: var.index(),
            });
        }
        let expr = &mut self.model.cons[con.index()].expr;
        // Stored rows are compressed (sorted by variable, unique), so
        // the entry is binary-searchable.
        let Ok(pos) = expr.terms.binary_search_by_key(&var, |&(v, _)| v) else {
            return Err(PatchError::AbsentCoefficient {
                con: con.index(),
                var: var.index(),
            });
        };
        let old = expr.terms[pos].1;
        expr.terms[pos].1 = coeff;
        let patched = self.std.a.set_entry(con.index(), var.index(), coeff);
        debug_assert!(
            patched,
            "standing StdForm missing entry (con {}, var {}) present in the model",
            con.index(),
            var.index()
        );
        Ok(old)
    }
}

/// Exact structural comparison of two models: variables (bounds, names),
/// constraints (sense, right-hand side, name, every stored term),
/// objective and optimization direction. Returns a description of the
/// first difference, or `None` when the models are bit-identical. This
/// is the differential oracle the FFC layer runs under debug assertions
/// to prove a patched model equals a fresh build.
pub fn diff_models(a: &Model, b: &Model) -> Option<String> {
    if a.vars.len() != b.vars.len() {
        return Some(format!("var count {} vs {}", a.vars.len(), b.vars.len()));
    }
    for (i, (va, vb)) in a.vars.iter().zip(&b.vars).enumerate() {
        if va.lb != vb.lb || va.ub != vb.ub {
            return Some(format!(
                "var x{i} bounds [{}, {}] vs [{}, {}]",
                va.lb, va.ub, vb.lb, vb.ub
            ));
        }
        if va.name != vb.name {
            return Some(format!("var x{i} name {:?} vs {:?}", va.name, vb.name));
        }
    }
    if a.cons.len() != b.cons.len() {
        return Some(format!("con count {} vs {}", a.cons.len(), b.cons.len()));
    }
    for (i, (ca, cb)) in a.cons.iter().zip(&b.cons).enumerate() {
        if ca.cmp != cb.cmp {
            return Some(format!("con {i} sense {} vs {}", ca.cmp, cb.cmp));
        }
        if ca.rhs != cb.rhs {
            return Some(format!("con {i} rhs {} vs {}", ca.rhs, cb.rhs));
        }
        if ca.name != cb.name {
            return Some(format!("con {i} name {:?} vs {:?}", ca.name, cb.name));
        }
        if ca.expr != cb.expr {
            return Some(format!("con {i} row `{}` vs `{}`", ca.expr, cb.expr));
        }
    }
    if a.objective != b.objective {
        return Some(format!("objective `{}` vs `{}`", a.objective, b.objective));
    }
    if a.sense != b.sense {
        return Some(format!("sense {:?} vs {:?}", a.sense, b.sense));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::{Cmp, Sense};

    /// The classic 2-variable LP: max 3x + 5y, x ≤ xcap, 2y ≤ 12,
    /// wx·x + 2y ≤ 18.
    fn build(xcap: f64, wx: f64) -> (Model, VarId, VarId, ConId, ConId) {
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        let c0 = m.add_con(LinExpr::from(x), Cmp::Le, xcap);
        m.add_con(LinExpr::term(y, 2.0), Cmp::Le, 12.0);
        let c2 = m.add_con(LinExpr::term(x, wx) + LinExpr::term(y, 2.0), Cmp::Le, 18.0);
        m.set_objective(
            LinExpr::term(x, 3.0) + LinExpr::term(y, 5.0),
            Sense::Maximize,
        );
        (m, x, y, c0, c2)
    }

    #[test]
    fn patched_solves_match_fresh_builds() {
        let (base, x, _y, c0, c2) = build(4.0, 3.0);
        let mut inc = IncrementalModel::new(base).unwrap();

        // rhs patch.
        inc.set_rhs(c0, 2.0);
        let (fresh, ..) = build(2.0, 3.0);
        assert_eq!(diff_models(inc.model(), &fresh), None);
        let a = inc.solve_with(&SimplexOptions::default(), None).unwrap();
        let b = fresh.solve().unwrap();
        assert!((a.objective - b.objective).abs() < 1e-9);

        // coefficient patch on top.
        inc.set_coeff(c2, x, 1.5).unwrap();
        let (fresh, ..) = build(2.0, 1.5);
        assert_eq!(diff_models(inc.model(), &fresh), None);
        let a = inc.solve_with(&SimplexOptions::default(), None).unwrap();
        let b = fresh.solve().unwrap();
        assert!((a.objective - b.objective).abs() < 1e-9);

        // bounds patch: pin x like a dead tunnel.
        inc.set_var_bounds(x, 0.0, 0.0);
        let a = inc.solve_with(&SimplexOptions::default(), None).unwrap();
        assert!((a.objective - 30.0).abs() < 1e-6, "{}", a.objective);
    }

    #[test]
    fn warm_patched_solve_matches_cold() {
        let (base, _x, _y, c0, _c2) = build(4.0, 3.0);
        let mut inc = IncrementalModel::new(base).unwrap();
        let cold = inc.solve_with(&SimplexOptions::default(), None).unwrap();
        inc.set_rhs(c0, 3.0);
        let warm = inc
            .solve_with(&SimplexOptions::default(), Some(&cold.basis))
            .unwrap();
        let (fresh, ..) = build(3.0, 3.0);
        let exact = fresh.solve().unwrap();
        assert!(
            (warm.objective - exact.objective).abs() < 1e-6,
            "warm {} vs fresh {}",
            warm.objective,
            exact.objective
        );
    }

    #[test]
    fn journal_records_and_reverts() {
        let (base, x, _y, c0, c2) = build(4.0, 3.0);
        let reference = {
            let (m, ..) = build(4.0, 3.0);
            m
        };
        let mut inc = IncrementalModel::new(base).unwrap();
        let mark = inc.mark();
        inc.set_rhs(c0, 9.0);
        inc.set_var_bounds(x, 1.0, 2.0);
        inc.set_coeff(c2, x, 7.0).unwrap();
        assert_eq!(inc.journal().len(), 3);
        assert!(diff_models(inc.model(), &reference).is_some());
        inc.revert_to(mark);
        assert_eq!(inc.journal().len(), 0);
        assert_eq!(diff_models(inc.model(), &reference), None);
        // And the lowered form reverted with it: solve gives the
        // original optimum.
        let s = inc.solve_with(&SimplexOptions::default(), None).unwrap();
        assert!((s.objective - 36.0).abs() < 1e-6, "{}", s.objective);
    }

    #[test]
    fn no_op_patches_stay_out_of_the_journal() {
        let (base, x, _y, c0, c2) = build(4.0, 3.0);
        let mut inc = IncrementalModel::new(base).unwrap();
        inc.set_rhs(c0, 4.0);
        inc.set_var_bounds(x, 0.0, f64::INFINITY);
        inc.set_coeff(c2, x, 3.0).unwrap();
        assert!(inc.journal().is_empty());
    }

    #[test]
    fn pattern_violations_are_rejected() {
        let (base, _x, y, c0, _c2) = build(4.0, 3.0);
        let mut inc = IncrementalModel::new(base).unwrap();
        // y has no entry in c0.
        assert_eq!(
            inc.set_coeff(c0, y, 1.0),
            Err(PatchError::AbsentCoefficient { con: 0, var: 1 })
        );
        // Exact zero would change the pattern vs a rebuild.
        let x = VarId::from_index(0);
        assert_eq!(
            inc.set_coeff(c0, x, 0.0),
            Err(PatchError::ZeroCoefficient { con: 0, var: 0 })
        );
        // Neither rejection touched the model.
        let (reference, ..) = build(4.0, 3.0);
        assert_eq!(diff_models(inc.model(), &reference), None);
    }

    #[test]
    fn diff_models_reports_each_dimension() {
        let (a, ..) = build(4.0, 3.0);
        let (mut b, ..) = build(4.0, 3.0);
        assert_eq!(diff_models(&a, &b), None);
        b.set_bounds(VarId::from_index(0), 0.0, 5.0);
        assert!(diff_models(&a, &b).unwrap().contains("bounds"));
        let (mut b, ..) = build(4.0, 3.0);
        b.cons[2].rhs = 19.0;
        assert!(diff_models(&a, &b).unwrap().contains("rhs"));
        let (mut b, ..) = build(4.0, 3.0);
        b.set_objective(LinExpr::from(VarId::from_index(0)), Sense::Minimize);
        assert!(diff_models(&a, &b).unwrap().contains("objective"));
    }

    #[test]
    fn invalid_patched_bounds_fail_at_solve_time() {
        let (base, x, ..) = build(4.0, 3.0);
        let mut inc = IncrementalModel::new(base).unwrap();
        inc.set_var_bounds(x, 2.0, 1.0);
        assert!(matches!(
            inc.solve_with(&SimplexOptions::default(), None),
            Err(LpError::InvalidBounds { .. })
        ));
    }
}
