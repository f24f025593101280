//! Basis factorization management for the revised simplex:
//! an [`LuFactors`] factorization plus a product-form-of-the-inverse
//! (PFI) eta file that absorbs pivots between refactorizations.
//!
//! After `k` pivots the basis is `B_k = B_0 · E_1 · … · E_k`, where each
//! `E_j` is an identity matrix whose column `p_j` was replaced by the
//! FTRAN'd entering column `w_j = B_{j-1}⁻¹ A_q`. Solves apply the eta
//! transformations around the LU solves:
//!
//! * FTRAN: `x = E_k⁻¹ … E_1⁻¹ (U⁻¹ L⁻¹ P v)` — etas chronologically.
//! * BTRAN: transform the cost vector through etas in *reverse* order,
//!   then LU-BTRAN.

// audit:allow-file(float-eq): exact-zero comparisons here are
// structural sparsity guards (skip entries that are identically zero),
// not approximate value checks.

use crate::lu::{LuFactors, Singular};
use crate::sparse::{CscMatrix, ScatterVec};

/// One eta transformation: identity with column `pos` replaced by `col`.
#[derive(Debug, Clone)]
struct Eta {
    /// Basis position of the pivot.
    pos: usize,
    /// Nonzero entries of the replaced column, excluding the pivot entry.
    entries: Vec<(usize, f64)>,
    /// The pivot entry `w[pos]`.
    pivot: f64,
}

/// A factorized simplex basis with incremental pivot updates.
#[derive(Debug)]
pub struct Basis {
    m: usize,
    lu: LuFactors,
    etas: Vec<Eta>,
    /// Scratch buffers reused across solves.
    scratch: Vec<f64>,
    /// Scratch workspace for the sparse solves.
    sp_scratch: ScatterVec,
    /// Reusable pair buffer handing sparse vectors to the LU solves.
    pairs: Vec<(usize, f64)>,
}

/// How many etas to accumulate before callers should refactorize.
pub const REFACTOR_INTERVAL: usize = 50;

impl Basis {
    /// Factorizes the basis matrix given by its columns.
    ///
    /// `columns[i]` is the sparse column (in constraint-row coordinates)
    /// of the variable basic at position `i`.
    pub fn factorize(m: usize, columns: &[Vec<(usize, f64)>]) -> Result<Self, Singular> {
        assert_eq!(columns.len(), m);
        let mat = CscMatrix::from_columns(m, columns);
        let lu = LuFactors::factorize(&mat)?;
        Ok(Self {
            m,
            lu,
            etas: Vec::new(),
            scratch: vec![0.0; m],
            sp_scratch: ScatterVec::new(m),
            pairs: Vec::new(),
        })
    }

    /// Dimension of the basis.
    pub fn dim(&self) -> usize {
        self.m
    }

    /// Whether the caller should refactorize (eta file grew long).
    pub fn should_refactorize(&self) -> bool {
        self.etas.len() >= REFACTOR_INTERVAL
    }

    /// FTRAN: solves `B·w = v` where `v` is in constraint-row
    /// coordinates; the result (written into `out`) is indexed by basis
    /// position.
    pub fn ftran(&mut self, v: &[f64], out: &mut [f64]) {
        debug_assert_eq!(v.len(), self.m);
        self.lu.ftran(v, out);
        for eta in &self.etas {
            let xp = out[eta.pos] / eta.pivot;
            if xp != 0.0 {
                for &(i, w) in &eta.entries {
                    out[i] -= w * xp;
                }
            }
            out[eta.pos] = xp;
        }
    }

    /// BTRAN: solves `Bᵀ·y = c` where `c` is indexed by basis position;
    /// the result (written into `out`) is in constraint-row coordinates.
    ///
    /// `c` is consumed as scratch.
    pub fn btran(&mut self, c: &mut [f64], out: &mut [f64]) {
        debug_assert_eq!(c.len(), self.m);
        for eta in self.etas.iter().rev() {
            let mut acc = c[eta.pos];
            for &(i, w) in &eta.entries {
                acc -= w * c[i];
            }
            c[eta.pos] = acc / eta.pivot;
        }
        self.lu.btran(c, out);
    }

    /// Sparse-RHS FTRAN: like [`Basis::ftran`] but with `v` given as
    /// `(row, value)` pairs and the result delivered as a [`ScatterVec`],
    /// so the cost scales with the nonzeros actually touched. Used for
    /// the entering column, whose `B⁻¹A_q` is typically very sparse.
    pub fn ftran_sparse(&mut self, rhs: &[(usize, f64)], out: &mut ScatterVec) {
        self.lu.ftran_sparse(rhs, out);
        for eta in &self.etas {
            let num = out.get(eta.pos);
            if num == 0.0 {
                continue;
            }
            let xp = num / eta.pivot;
            for &(i, w) in &eta.entries {
                out.add(i, -w * xp);
            }
            out.set(eta.pos, xp);
        }
    }

    /// Sparse-RHS BTRAN: like [`Basis::btran`] but with `c` given as
    /// `(basis_position, value)` pairs and a [`ScatterVec`] result. Used
    /// for the devex pivot row `ρ = B⁻ᵀe_pos`, whose RHS is a single
    /// unit vector.
    pub fn btran_sparse(&mut self, rhs: &[(usize, f64)], out: &mut ScatterVec) {
        let c = &mut self.sp_scratch;
        c.clear();
        for &(i, v) in rhs {
            if v != 0.0 {
                c.add(i, v);
            }
        }
        for eta in self.etas.iter().rev() {
            let mut acc = c.get(eta.pos);
            let mut touched = acc != 0.0;
            for &(i, w) in &eta.entries {
                let ci = c.get(i);
                if ci != 0.0 {
                    acc -= w * ci;
                    touched = true;
                }
            }
            if touched {
                c.set(eta.pos, acc / eta.pivot);
            }
        }
        self.pairs.clear();
        for &i in c.pattern() {
            let v = c.get(i);
            if v != 0.0 {
                self.pairs.push((i, v));
            }
        }
        self.lu.btran_sparse(&self.pairs, out);
    }

    /// Records a pivot like [`Basis::push_eta`], reading the FTRAN'd
    /// entering column from a [`ScatterVec`].
    pub fn push_eta_sparse(&mut self, pos: usize, w: &ScatterVec) -> Result<(), Singular> {
        let pivot = w.get(pos);
        if pivot.abs() < 1e-10 {
            return Err(Singular { column: pos });
        }
        let drop_tol = 1e-12 * pivot.abs().max(1.0);
        let entries: Vec<(usize, f64)> = w
            .pattern()
            .iter()
            .filter_map(|&i| {
                if i == pos {
                    return None;
                }
                let v = w.get(i);
                (v.abs() > drop_tol).then_some((i, v))
            })
            .collect();
        self.etas.push(Eta {
            pos,
            entries,
            pivot,
        });
        Ok(())
    }

    /// Records a pivot: the variable basic at position `pos` is replaced
    /// by a column whose FTRAN'd form is `w` (dense, basis-position
    /// indexed). Returns an error if the pivot element is too small.
    pub fn push_eta(&mut self, pos: usize, w: &[f64]) -> Result<(), Singular> {
        let pivot = w[pos];
        if pivot.abs() < 1e-10 {
            return Err(Singular { column: pos });
        }
        // Drop numerically negligible entries: they are solve dirt and
        // would otherwise densify the eta file.
        let drop_tol = 1e-12 * pivot.abs().max(1.0);
        let entries: Vec<(usize, f64)> = w
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i != pos && v.abs() > drop_tol)
            .map(|(i, &v)| (i, v))
            .collect();
        self.etas.push(Eta {
            pos,
            entries,
            pivot,
        });
        Ok(())
    }

    /// Borrows the internal scratch buffer (length `m`).
    pub fn scratch(&mut self) -> &mut Vec<f64> {
        &mut self.scratch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the dense product B = B0 * E1 * ... by simulating pivots and
    /// checks FTRAN/BTRAN against dense linear algebra.
    #[test]
    fn eta_updates_match_dense_inverse() {
        let m = 3;
        // B0 = identity-ish sparse matrix.
        let cols = vec![
            vec![(0, 2.0)],
            vec![(1, 1.0), (0, 0.5)],
            vec![(2, 4.0), (1, -1.0)],
        ];
        let mut basis = Basis::factorize(m, &cols).unwrap();

        // Dense copy of B for reference.
        let mut b = vec![vec![0.0; m]; m];
        for (j, col) in cols.iter().enumerate() {
            for &(i, v) in col {
                b[i][j] = v;
            }
        }

        // Pivot: replace basis position 1 with a new column a.
        let a = [1.0, 3.0, 1.0];
        let mut w = vec![0.0; m];
        basis.ftran(&a, &mut w);
        basis.push_eta(1, &w).unwrap();
        for (i, row) in b.iter_mut().enumerate() {
            row[1] = a[i];
        }

        // FTRAN check: B * x = v.
        let v = [5.0, -1.0, 2.0];
        let mut x = vec![0.0; m];
        basis.ftran(&v, &mut x);
        for (i, row) in b.iter().enumerate() {
            let dot: f64 = (0..m).map(|j| row[j] * x[j]).sum();
            assert!(
                (dot - v[i]).abs() < 1e-9,
                "ftran row {i}: {dot} vs {}",
                v[i]
            );
        }

        // BTRAN check: Bᵀ y = c.
        let c = [1.0, 2.0, 3.0];
        let mut cwork = c.to_vec();
        let mut y = vec![0.0; m];
        basis.btran(&mut cwork, &mut y);
        for j in 0..m {
            let dot: f64 = (0..m).map(|i| b[i][j] * y[i]).sum();
            assert!(
                (dot - c[j]).abs() < 1e-9,
                "btran col {j}: {dot} vs {}",
                c[j]
            );
        }
    }

    #[test]
    fn sparse_solves_match_dense_through_etas() {
        let m = 3;
        let cols = vec![
            vec![(0, 2.0)],
            vec![(1, 1.0), (0, 0.5)],
            vec![(2, 4.0), (1, -1.0)],
        ];
        let mut basis = Basis::factorize(m, &cols).unwrap();
        // Two pivots recorded via the sparse path.
        for (pos, col) in [
            (1usize, vec![(0, 1.0), (1, 3.0), (2, 1.0)]),
            (0, vec![(0, 2.0), (2, -1.0)]),
        ] {
            let mut w_sp = ScatterVec::new(m);
            basis.ftran_sparse(&col, &mut w_sp);
            let mut w = vec![0.0; m];
            let dense_col = {
                let mut v = vec![0.0; m];
                for &(i, x) in &col {
                    v[i] = x;
                }
                v
            };
            basis.ftran(&dense_col, &mut w);
            for (i, &wi) in w.iter().enumerate() {
                assert!((wi - w_sp.get(i)).abs() < 1e-9, "ftran mismatch at {i}");
            }
            basis.push_eta_sparse(pos, &w_sp).unwrap();
        }
        // FTRAN with the eta file in play.
        let v = [5.0, -1.0, 2.0];
        let mut dense = vec![0.0; m];
        basis.ftran(&v, &mut dense);
        let mut sp = ScatterVec::new(m);
        basis.ftran_sparse(&[(0, 5.0), (1, -1.0), (2, 2.0)], &mut sp);
        for (i, &d) in dense.iter().enumerate() {
            assert!((d - sp.get(i)).abs() < 1e-9, "eta ftran mismatch at {i}");
        }
        // BTRAN of a unit vector (the devex use case).
        let mut c = vec![0.0, 1.0, 0.0];
        let mut dense_y = vec![0.0; m];
        basis.btran(&mut c, &mut dense_y);
        let mut sp_y = ScatterVec::new(m);
        basis.btran_sparse(&[(1, 1.0)], &mut sp_y);
        for (i, &d) in dense_y.iter().enumerate() {
            assert!((d - sp_y.get(i)).abs() < 1e-9, "eta btran mismatch at {i}");
        }
    }

    #[test]
    fn push_eta_sparse_rejects_tiny_pivot() {
        let cols = vec![vec![(0, 1.0)], vec![(1, 1.0)]];
        let mut basis = Basis::factorize(2, &cols).unwrap();
        let mut w = ScatterVec::new(2);
        w.set(1, 1e-14);
        assert!(basis.push_eta_sparse(1, &w).is_err());
    }

    #[test]
    fn push_eta_rejects_tiny_pivot() {
        let cols = vec![vec![(0, 1.0)], vec![(1, 1.0)]];
        let mut basis = Basis::factorize(2, &cols).unwrap();
        let w = vec![0.0, 1e-14];
        assert!(basis.push_eta(1, &w).is_err());
    }

    #[test]
    fn should_refactorize_after_interval() {
        let cols = vec![vec![(0, 1.0)], vec![(1, 1.0)]];
        let mut basis = Basis::factorize(2, &cols).unwrap();
        assert!(!basis.should_refactorize());
        for _ in 0..REFACTOR_INTERVAL {
            basis.push_eta(0, &[1.0, 0.0]).unwrap();
        }
        assert!(basis.should_refactorize());
    }
}
