//! Lowering a [`Model`] to computational standard form.
//!
//! The simplex engine works on `A·x = b` with per-variable bounds
//! `l ≤ x ≤ u`. Every model constraint gets one slack column:
//!
//! * `expr ≤ rhs` → `expr + s = rhs`, `s ∈ [0, +∞)`
//! * `expr ≥ rhs` → `expr + s = rhs`, `s ∈ (−∞, 0]`
//! * `expr = rhs` → `expr + s = rhs`, `s ∈ [0, 0]` (fixed)
//!
//! Objectives are normalized to *minimization*; the original sense is
//! restored when reporting.
//!
//! Beside the column-major `A` the form keeps a `RowIndex` over it:
//! per row, the columns with an entry there. The simplex engine reads it
//! to touch only the columns a changed row reaches.

use crate::model::{Cmp, Model, Sense};
use crate::sparse::CscMatrix;

/// A model lowered to `min cᵀx s.t. A·x = b, l ≤ x ≤ u`.
#[derive(Debug, Clone)]
pub struct StdForm {
    /// Number of rows (constraints).
    pub m: usize,
    /// Number of columns (structural variables + slacks).
    pub n: usize,
    /// Number of structural (user) variables; slacks follow.
    pub n_struct: usize,
    /// The constraint matrix, `m × n`.
    pub a: CscMatrix,
    /// Right-hand sides.
    pub b: Vec<f64>,
    /// Lower bounds per column.
    pub lb: Vec<f64>,
    /// Upper bounds per column.
    pub ub: Vec<f64>,
    /// Minimization objective coefficients per column.
    pub obj: Vec<f64>,
    /// Constant to add to the computed minimum (from the objective's
    /// constant part), still in minimization convention.
    pub obj_offset: f64,
    /// Whether the original model maximized (flip sign when reporting).
    pub maximize: bool,
    /// The by-row index of `a`'s pattern. Patching a stored value in
    /// place ([`CscMatrix::set_entry`]) keeps it valid; replacing `a`'s
    /// pattern does not.
    pub(crate) rows: RowIndex,
}

/// A by-row view of a [`CscMatrix`]'s pattern that holds no values: for
/// each row, the column of every stored entry in that row, ascending. A
/// coefficient patch writes the one value array, and a reader looks the
/// value up in its column ([`CscMatrix::value_at`]). Four bytes per
/// entry: the view adds a sixth to the matrix's own storage.
#[derive(Debug, Clone, Default)]
pub(crate) struct RowIndex {
    /// Row start offsets into `cols`; length `nrows + 1`.
    starts: Vec<usize>,
    /// The column of each stored entry, row by row.
    cols: Vec<u32>,
}

impl RowIndex {
    /// Indexes every stored entry of `a` by row (explicit zeros too).
    pub(crate) fn of(a: &CscMatrix) -> RowIndex {
        let mut starts = vec![0usize; a.nrows + 1];
        for &r in &a.rowidx {
            if let Some(count) = starts.get_mut(r + 1) {
                *count += 1;
            }
        }
        let mut total = 0;
        for s in starts.iter_mut() {
            total += *s;
            *s = total;
        }
        // Filled in column order, so every row lists its columns
        // ascending.
        let mut next = starts.clone();
        let mut cols = vec![0u32; a.nnz()];
        let col_of_entry = a.colptr.windows(2).enumerate().flat_map(|(j, w)| {
            let len = match *w {
                [lo, hi] => hi - lo,
                _ => 0,
            };
            std::iter::repeat_n(j, len)
        });
        for (&r, j) in a.rowidx.iter().zip(col_of_entry) {
            if let Some(at) = next.get_mut(r) {
                if let Some(c) = cols.get_mut(*at) {
                    *c = j as u32;
                }
                *at += 1;
            }
        }
        RowIndex { starts, cols }
    }

    /// The column of every entry in row `i`, ascending.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let lo = self.starts.get(i).copied().unwrap_or(0);
        let hi = self.starts.get(i + 1).copied().unwrap_or(lo);
        self.cols
            .get(lo..hi)
            .unwrap_or_default()
            .iter()
            .map(|&j| j as usize)
    }
}

impl StdForm {
    /// Lowers a validated model.
    pub fn from_model(model: &Model) -> StdForm {
        let n_struct = model.vars.len();
        let m = model.cons.len();
        let n = n_struct + m;

        let mut lb = Vec::with_capacity(n);
        let mut ub = Vec::with_capacity(n);
        for v in &model.vars {
            lb.push(v.lb);
            ub.push(v.ub);
        }

        // Assemble structural columns from constraint rows.
        let mut columns: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut b = Vec::with_capacity(m);
        for (i, con) in model.cons.iter().enumerate() {
            let expr = con.expr.compressed();
            for (var, coeff) in expr.terms() {
                columns[var.index()].push((i, coeff));
            }
            b.push(con.rhs);
            // Slack column.
            let s = n_struct + i;
            columns[s].push((i, 1.0));
            let (slb, sub) = match con.cmp {
                Cmp::Le => (0.0, f64::INFINITY),
                Cmp::Ge => (f64::NEG_INFINITY, 0.0),
                Cmp::Eq => (0.0, 0.0),
            };
            lb.push(slb);
            ub.push(sub);
        }

        let maximize = model.sense == Sense::Maximize;
        let mut obj = vec![0.0; n];
        let objective = model.objective.compressed();
        for (var, coeff) in objective.terms() {
            obj[var.index()] += if maximize { -coeff } else { coeff };
        }
        let obj_offset = if maximize {
            -objective.constant_part()
        } else {
            objective.constant_part()
        };

        let a = CscMatrix::from_columns(m, &columns);
        StdForm {
            m,
            n,
            n_struct,
            rows: RowIndex::of(&a),
            a,
            b,
            lb,
            ub,
            obj,
            obj_offset,
            maximize,
        }
    }

    /// Converts a minimization objective value back to the model's sense.
    pub fn report_objective(&self, min_value: f64) -> f64 {
        let v = min_value + self.obj_offset;
        if self.maximize {
            -v
        } else {
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::{Cmp, Model, Sense};

    #[test]
    fn slack_bounds_by_sense() {
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        m.add_con(LinExpr::from(x), Cmp::Le, 1.0);
        m.add_con(LinExpr::from(x), Cmp::Ge, 0.5);
        m.add_con(LinExpr::from(x), Cmp::Eq, 0.7);
        let s = StdForm::from_model(&m);
        assert_eq!(s.n, 4);
        assert_eq!(s.n_struct, 1);
        assert_eq!((s.lb[1], s.ub[1]), (0.0, f64::INFINITY));
        assert_eq!((s.lb[2], s.ub[2]), (f64::NEG_INFINITY, 0.0));
        assert_eq!((s.lb[3], s.ub[3]), (0.0, 0.0));
    }

    #[test]
    fn maximize_negates_objective() {
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        m.set_objective(LinExpr::term(x, 3.0) + 1.0, Sense::Maximize);
        let s = StdForm::from_model(&m);
        assert_eq!(s.obj[0], -3.0);
        assert_eq!(s.obj_offset, -1.0);
        // min value -6 (x=2) -> reported max = 6 + 1.
        assert_eq!(s.report_objective(-6.0), 7.0);
    }

    #[test]
    fn duplicate_terms_are_merged_in_matrix() {
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        let e = LinExpr::term(x, 1.0) + LinExpr::term(x, 2.0);
        m.add_con(e, Cmp::Le, 5.0);
        let s = StdForm::from_model(&m);
        let col: Vec<_> = s.a.col(0).collect();
        assert_eq!(col, vec![(0, 3.0)]);
    }

    #[test]
    fn row_index_lists_every_entry_by_row() {
        // Rows: 0 = [x0, x2], 1 = [x1, x2 with an explicit zero], plus
        // the slacks.
        let a = CscMatrix::from_columns(
            2,
            &[vec![(0, 1.0)], vec![(1, 2.0)], vec![(1, 0.0), (0, 3.0)]],
        );
        let rows = RowIndex::of(&a);
        let row = |i| -> Vec<(usize, Option<f64>)> {
            rows.row(i).map(|j| (j, a.value_at(i, j))).collect()
        };
        assert_eq!(row(0), vec![(0, Some(1.0)), (2, Some(3.0))]);
        assert_eq!(row(1), vec![(1, Some(2.0)), (2, Some(0.0))]);
        assert_eq!(a.value_at(1, 0), None);
        assert!(rows.row(2).next().is_none());
    }
}
