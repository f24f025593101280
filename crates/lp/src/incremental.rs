//! Delta-LP: in-place patching of a standing model.
//!
//! Re-solve workloads (the per-interval FFC controller loop)
//! solve long runs of models that differ only in variable bounds and a
//! handful of coefficients. Rebuilding the
//! [`Model`] and re-lowering it to [`StdForm`] every time costs
//! O(model); an [`IncrementalModel`] pays that cost **once** and then
//! applies each change to both representations in O(changes):
//!
//! * [`IncrementalModel::set_var_bounds`] — patch a variable's bounds
//!   (demand upper bounds, pinning dead tunnels to `[0, 0]`).
//! * [`IncrementalModel::set_coeff`] — patch one existing coefficient
//!   (stale-ingress weights). Only values already
//!   in the sparsity pattern may change — inserting or zeroing an entry
//!   would diverge from what a fresh build produces, so both are
//!   rejected as [`PatchError`]s. The exception is a slot the builder
//!   asked to keep ([`LinExpr::kept_term`](crate::LinExpr::kept_term)):
//!   a fresh build stores it at `0.0` too, so it patches to zero and
//!   back like any other value.
//!
//! A patch is applied and forgotten: the standing model keeps no
//! history, and a caller that cannot finish a change set rebuilds.
//!
//! Solving: [`IncrementalModel::solve_with`] hands the standing lowered
//! form to the same simplex entry [`Model::solve_with`] ends in,
//! skipping the per-solve lowering entirely, so a patched solve is
//! bit-identical to rebuilding the same model and solving it with
//! [`Model::solve_with`]. The standing form also keeps the LU of the
//! basis a solve last left factorized, which the next solve takes
//! instead of factorizing when it starts from exactly that basis
//! matrix — bound patches never touch `B`, and a coefficient
//! patch on one of its columns drops it — at no change to any result.
//!
//! Correctness contract: after any sequence of patches, the standing
//! `Model` and `StdForm` are **bit-identical** to what a fresh build
//! with the same data would produce — [`diff_models`] checks the model
//! half exactly, and the FFC layer runs it under debug assertions on
//! every patched solve.

// audit:allow-file(float-eq): comparisons here are exact structural
// checks (is the patched model bit-identical to a fresh build, is a
// patched coefficient exactly zero), not approximate value tests.

use std::fmt;

use crate::expr::VarId;
use crate::model::{BasisStatuses, ConId, LpError, Model, Solution};
use crate::simplex::{self, HeldLu, SimplexOptions};
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
    /// The new value is exactly zero in an ordinary slot. A fresh build
    /// drops such zeros from the pattern, so patching one in would leave
    /// the standing form structurally different from a rebuild — rebuild
    /// instead. A kept slot takes `0.0`.
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

/// A standing model plus its lowered standard form, kept in lockstep
/// under in-place patches. See the [module docs](self).
#[derive(Debug)]
pub struct IncrementalModel {
    model: Model,
    std: StdForm,
    /// `LU(B)` of the basis the last solve left factorized, for the next
    /// solve to take.
    held: Option<HeldLu>,
    /// A patch wrote a value [`Model::validate`] rejects (a NaN bound,
    /// `lb > ub`, a NaN coefficient) and no solve has validated the
    /// model since. The model was valid when built, and patches are
    /// its only writers, so a clear flag skips the walk.
    unvalidated: bool,
}

/// A clone starts without a held factorization: its first solve
/// factorizes afresh, with the same result.
impl Clone for IncrementalModel {
    fn clone(&self) -> Self {
        IncrementalModel {
            model: self.model.clone(),
            std: self.std.clone(),
            held: None,
            unvalidated: self.unvalidated,
        }
    }
}

/// The empty standing model: no variables, no constraints (valid by
/// construction, so no validation to fail).
impl Default for IncrementalModel {
    fn default() -> Self {
        let model = Model::new();
        IncrementalModel {
            std: StdForm::from_model(&model),
            model,
            held: None,
            unvalidated: false,
        }
    }
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
            held: None,
            unvalidated: false,
        })
    }

    /// Read access to the standing model (for extraction, auditing and
    /// differential checks).
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Patches the bounds of variable `var` in both representations.
    /// Invalid bounds (NaN, `lb > ub`) are caught by the validation the
    /// next solve runs, exactly like [`Model::set_bounds`].
    pub fn set_var_bounds(&mut self, var: VarId, lb: f64, ub: f64) {
        if self.model.var_bounds(var) != (lb, ub) {
            self.apply_bounds(var, lb, ub);
            self.unvalidated |= lb.is_nan() || ub.is_nan() || lb > ub;
        }
    }

    /// Patches one stored coefficient of constraint `con`. The entry
    /// must already exist, and the new value must be nonzero unless the
    /// slot is kept (see [`PatchError`]); on rejection nothing changes.
    /// A NaN is caught by the validation the next solve runs.
    pub fn set_coeff(&mut self, con: ConId, var: VarId, coeff: f64) -> Result<(), PatchError> {
        let old = self.apply_coeff(con, var, coeff)?;
        self.unvalidated |= coeff.is_nan();
        // The held LU factorizes B's old coefficients.
        let held = self.held.as_ref();
        if old != coeff && held.is_some_and(|h| h.uses_column(var.index())) {
            self.held = None;
        }
        Ok(())
    }

    /// Solves the standing form, cold or from a warm-start basis:
    /// [`Model::solve_with`] on the standing model, minus the lowering
    /// — and, when the start basis is exactly the one the previous
    /// solve left factorized, minus its factorization
    /// ([`SolveStats::factor_reused`](crate::SolveStats::factor_reused)).
    /// The result is bit-identical either way. Only after a patch wrote
    /// a value validation rejects does the solve validate the whole
    /// model first, returning the error [`Model::solve_with`] would.
    pub fn solve_with(
        &mut self,
        opts: &SimplexOptions,
        warm: Option<&BasisStatuses>,
    ) -> Result<Solution, LpError> {
        if self.unvalidated {
            self.model.validate()?;
            self.unvalidated = false;
        }
        simplex::solve(&self.std, opts, warm, &mut self.held)
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

    /// Writes a coefficient patch into both representations, returning
    /// the previous value.
    fn apply_coeff(&mut self, con: ConId, var: VarId, coeff: f64) -> Result<f64, PatchError> {
        let expr = &mut self.model.cons[con.index()].expr;
        // Stored rows are compressed (sorted by variable, unique), so
        // the entry is binary-searchable.
        let Ok(pos) = expr.terms.binary_search_by_key(&var, |&(v, _)| v) else {
            return Err(PatchError::AbsentCoefficient {
                con: con.index(),
                var: var.index(),
            });
        };
        if coeff == 0.0 && !expr.is_kept(var) {
            return Err(PatchError::ZeroCoefficient {
                con: con.index(),
                var: var.index(),
            });
        }
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
/// constraints (sense, right-hand side, name, kept slots, every stored
/// term),
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
        if ca.expr.kept != cb.expr.kept {
            let (ka, kb) = (&ca.expr.kept, &cb.expr.kept);
            return Some(format!("con {i} kept slots {ka:?} vs {kb:?}"));
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
    use crate::model::{Cmp, Sense, SolveStats};
    use std::time::Duration;

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
        let (base, x, _y, _c0, c2) = build(4.0, 3.0);
        let mut inc = IncrementalModel::new(base).unwrap();

        // bounds patch: cap x below its row c0.
        inc.set_var_bounds(x, 0.0, 2.0);
        let (mut fresh, ..) = build(4.0, 3.0);
        fresh.set_bounds(x, 0.0, 2.0);
        assert_eq!(diff_models(inc.model(), &fresh), None);
        let a = inc.solve_with(&SimplexOptions::default(), None).unwrap();
        let b = fresh.solve().unwrap();
        assert!((a.objective - b.objective).abs() < 1e-9);

        // coefficient patch on top.
        inc.set_coeff(c2, x, 1.5).unwrap();
        let (mut fresh, ..) = build(4.0, 1.5);
        fresh.set_bounds(x, 0.0, 2.0);
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
        let (base, x, ..) = build(4.0, 3.0);
        let mut inc = IncrementalModel::new(base).unwrap();
        let cold = inc.solve_with(&SimplexOptions::default(), None).unwrap();
        inc.set_var_bounds(x, 0.0, 3.0);
        let warm = inc
            .solve_with(&SimplexOptions::default(), Some(&cold.basis))
            .unwrap();
        let (mut fresh, ..) = build(4.0, 3.0);
        fresh.set_bounds(x, 0.0, 3.0);
        let exact = fresh.solve().unwrap();
        assert!(
            (warm.objective - exact.objective).abs() < 1e-6,
            "warm {} vs fresh {}",
            warm.objective,
            exact.objective
        );
    }

    #[test]
    fn same_value_patch_on_a_basic_column_keeps_the_held_factorization() {
        let (base, x, _y, _c0, c2) = build(4.0, 3.0);
        let mut inc = IncrementalModel::new(base).unwrap();
        let hint = primed(&mut inc);
        assert_eq!(hint.0[x.index()], crate::model::ColStatus::Basic);
        inc.set_coeff(c2, x, 3.0).unwrap();
        let opts = SimplexOptions::default();
        let again = inc.solve_with(&opts, Some(&hint)).unwrap();
        assert!(again.stats.factor_reused, "B's column x did not change");
        let (fresh, ..) = build(4.0, 3.0);
        let fresh = IncrementalModel::new(fresh)
            .unwrap()
            .solve_with(&opts, Some(&hint));
        assert_bit_identical(&again, &fresh.unwrap());
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

    /// The classic LP with `x`'s slot in `c2` kept at weight `wx`, so
    /// a zero weight still stores the entry.
    fn build_kept(wx: f64) -> (Model, VarId, ConId) {
        let (mut m, x, y, _c0, _c2) = build(4.0, 3.0);
        m.cons.pop();
        let c2 = m.add_con(
            LinExpr::kept_term(x, wx) + LinExpr::term(y, 2.0),
            Cmp::Le,
            18.0,
        );
        (m, x, c2)
    }

    /// A kept slot is stored at `0.0` by a fresh build and its lowering,
    /// patches to `0.0` and back, and is what `diff_models` compares.
    #[test]
    fn kept_zero_slot_patches_to_zero_and_back() {
        let (zero, x, c2) = build_kept(0.0);
        let row: Vec<_> = zero.con_view(c2).expr.terms().collect();
        assert_eq!(row, vec![(x, 0.0), (VarId::from_index(1), 2.0)]);
        let lowered = StdForm::from_model(&zero);
        assert_eq!(lowered.a.value_at(c2.index(), x.index()), Some(0.0));
        assert_eq!(lowered.rows.row(c2.index()).count(), 3, "x, y, slack");

        let (base, ..) = build_kept(3.0);
        let mut inc = IncrementalModel::new(base).unwrap();
        inc.set_coeff(c2, x, 0.0).unwrap();
        assert_eq!(diff_models(inc.model(), &zero), None);
        assert_eq!(inc.std.a.value_at(c2.index(), x.index()), Some(0.0));
        let opts = SimplexOptions::default();
        let patched = inc.solve_with(&opts, None).unwrap();
        let mut fresh = IncrementalModel::new(zero.clone()).unwrap();
        assert_bit_identical(&patched, &fresh.solve_with(&opts, None).unwrap());

        inc.set_coeff(c2, x, 1.5).unwrap();
        assert_eq!(diff_models(inc.model(), &build_kept(1.5).0), None);
        inc.set_coeff(c2, x, 3.0).unwrap();
        assert_eq!(diff_models(inc.model(), &build_kept(3.0).0), None);
        assert_eq!(inc.std.a.value_at(c2.index(), x.index()), Some(3.0));

        // The kept mark itself is part of the row: the same values in an
        // ordinary slot are another model.
        let (plain, ..) = build(4.0, 3.0);
        assert!(diff_models(inc.model(), &plain).unwrap().contains("kept"));
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

    /// Two solves agree to the bit: objective, values, duals, basis and
    /// every counter. Only the time splits and `factor_reused` may differ.
    fn assert_bit_identical(a: &Solution, b: &Solution) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        assert_eq!(bits(&a.values), bits(&b.values));
        assert_eq!(bits(&a.duals), bits(&b.duals));
        assert_eq!(a.basis, b.basis);
        let untimed = |s: &SolveStats| SolveStats {
            factor_reused: false,
            solve_time: Duration::ZERO,
            factor_time: Duration::ZERO,
            ftran_time: Duration::ZERO,
            btran_time: Duration::ZERO,
            price_time: Duration::ZERO,
            ..*s
        };
        assert_eq!(untimed(&a.stats), untimed(&b.stats));
    }

    /// A standing model whose last solve left `LU(B)` of its optimal
    /// basis held: a cold solve, then a zero-iteration re-solve from
    /// its basis. Returns that basis.
    fn primed(inc: &mut IncrementalModel) -> BasisStatuses {
        let opts = SimplexOptions::default();
        let cold = inc.solve_with(&opts, None).unwrap();
        let again = inc.solve_with(&opts, Some(&cold.basis)).unwrap();
        assert_eq!(again.iterations, 0);
        assert!(again.stats.hint_used && !again.stats.factor_reused);
        again.basis
    }

    #[test]
    fn bound_patch_resolve_reuses_the_held_factorization() {
        let (base, x, _y, _c0, _c2) = build(4.0, 3.0);
        let mut inc = IncrementalModel::new(base).unwrap();
        let hint = primed(&mut inc);
        // x is basic at 2 in the optimum; capping it at 1.5 leaves B
        // untouched but primal infeasible, so the re-solve pivots.
        inc.set_var_bounds(x, 0.0, 1.5);
        let opts = SimplexOptions::default();
        let reused = inc.solve_with(&opts, Some(&hint)).unwrap();
        assert!(reused.stats.factor_reused);
        assert!(reused.stats.dual_iterations > 0);
        let (mut fresh, ..) = build(4.0, 3.0);
        fresh.set_bounds(x, 0.0, 1.5);
        let mut fresh = IncrementalModel::new(fresh).unwrap();
        let cold_slot = fresh.solve_with(&opts, Some(&hint)).unwrap();
        assert!(!cold_slot.stats.factor_reused);
        assert_bit_identical(&reused, &cold_slot);
    }

    #[test]
    fn coefficient_patch_on_a_basic_column_drops_the_held_factorization() {
        let (base, x, _y, _c0, c2) = build(4.0, 3.0);
        let mut inc = IncrementalModel::new(base).unwrap();
        let hint = primed(&mut inc);
        inc.set_coeff(c2, x, 2.5).unwrap();
        let opts = SimplexOptions::default();
        let patched = inc.solve_with(&opts, Some(&hint)).unwrap();
        assert!(!patched.stats.factor_reused, "B's column x changed");
        let (fresh, ..) = build(4.0, 2.5);
        let fresh = IncrementalModel::new(fresh)
            .unwrap()
            .solve_with(&opts, Some(&hint));
        assert_bit_identical(&patched, &fresh.unwrap());
    }

    #[test]
    fn coefficient_patch_on_a_nonbasic_column_keeps_the_held_factorization() {
        // The classic LP plus z, which prices out (reduced cost 1 − zc
        // against the dual 1 of row c2) and rests at its lower bound.
        let model = |zc: f64| {
            let (mut m, x, y, _c0, c2) = build(4.0, 3.0);
            let z = m.add_nonneg("z");
            m.cons[c2.index()].expr += LinExpr::term(z, zc);
            m.set_objective(
                LinExpr::term(x, 3.0) + LinExpr::term(y, 5.0) + z,
                Sense::Maximize,
            );
            (m, z, c2)
        };
        let (base, z, c2) = model(2.0);
        let mut inc = IncrementalModel::new(base).unwrap();
        let hint = primed(&mut inc);
        assert_eq!(hint.0[z.index()], crate::model::ColStatus::Lower);
        inc.set_coeff(c2, z, 3.0).unwrap();
        let opts = SimplexOptions::default();
        let patched = inc.solve_with(&opts, Some(&hint)).unwrap();
        assert!(patched.stats.factor_reused, "z is not one of B's columns");
        let fresh = IncrementalModel::new(model(3.0).0)
            .unwrap()
            .solve_with(&opts, Some(&hint))
            .unwrap();
        assert!(!fresh.stats.factor_reused);
        assert_bit_identical(&patched, &fresh);
    }

    #[test]
    fn a_clone_starts_without_the_held_factorization() {
        let (base, ..) = build(4.0, 3.0);
        let mut inc = IncrementalModel::new(base).unwrap();
        let hint = primed(&mut inc);
        let opts = SimplexOptions::default();
        let copy = inc.clone().solve_with(&opts, Some(&hint)).unwrap();
        let own = inc.solve_with(&opts, Some(&hint)).unwrap();
        assert!(own.stats.factor_reused && !copy.stats.factor_reused);
        assert_bit_identical(&own, &copy);
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

    #[test]
    fn a_nan_coefficient_patch_fails_at_solve_time() {
        let (base, x, _y, _c0, c2) = build(4.0, 3.0);
        let mut inc = IncrementalModel::new(base).unwrap();
        inc.set_coeff(c2, x, f64::NAN).unwrap();
        let opts = SimplexOptions::default();
        for _ in 0..2 {
            let err = inc.solve_with(&opts, None).unwrap_err();
            assert_eq!(err, LpError::NotANumber, "and again: it stays invalid");
        }
        assert_eq!(inc.model().solve().unwrap_err(), LpError::NotANumber);
    }

    #[test]
    fn an_invalid_bound_patched_back_before_the_solve_succeeds() {
        let (base, x, ..) = build(4.0, 3.0);
        let mut inc = IncrementalModel::new(base).unwrap();
        inc.set_var_bounds(x, 2.0, 1.0);
        inc.set_var_bounds(x, f64::NAN, 1.0);
        inc.set_var_bounds(x, 0.0, 2.0);
        let opts = SimplexOptions::default();
        let patched = inc.solve_with(&opts, None).unwrap();
        let (mut fresh, ..) = build(4.0, 3.0);
        fresh.set_bounds(x, 0.0, 2.0);
        let fresh = IncrementalModel::new(fresh)
            .unwrap()
            .solve_with(&opts, None);
        assert_bit_identical(&patched, &fresh.unwrap());
    }

    #[test]
    fn a_clone_carries_an_unvalidated_patch() {
        let (base, x, ..) = build(4.0, 3.0);
        let mut inc = IncrementalModel::new(base).unwrap();
        inc.set_var_bounds(x, 2.0, 1.0);
        let opts = SimplexOptions::default();
        let err = inc.clone().solve_with(&opts, None).unwrap_err();
        assert_eq!(
            err,
            LpError::InvalidBounds {
                var: 0,
                lb: 2.0,
                ub: 1.0
            }
        );
        assert_eq!(inc.solve_with(&opts, None).unwrap_err(), err);
    }
}
