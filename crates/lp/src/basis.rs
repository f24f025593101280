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

use crate::lu::{independent_columns, LuFactors, Singular};
use crate::model::{BasisStatuses, ColStatus};
use crate::sparse::{CscMatrix, ScatterVec};
use crate::standard::StdForm;

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
    /// Per basis position, bit `k` set when eta `k` reads or writes it
    /// (its pivot position or one of its entries): which etas a nonzero
    /// there can reach. Etas past the 64th are in no mask, and a sparse
    /// BTRAN through them scans every eta. Empty until the first eta.
    readers: Vec<u64>,
    /// Scratch workspace for the sparse solves.
    sp_scratch: ScatterVec,
    /// Reusable pair buffer handing sparse vectors to the LU solves.
    pairs: Vec<(usize, f64)>,
}

/// How many etas to accumulate before callers should refactorize.
pub const REFACTOR_INTERVAL: usize = 50;

impl Basis {
    /// Factorizes the basis matrix `b`, whose column `i` (in
    /// constraint-row coordinates) is that of the variable basic at
    /// position `i`.
    pub fn factorize(b: &CscMatrix) -> Result<Self, Singular> {
        Ok(Self::from_lu(LuFactors::factorize(b)?))
    }

    /// A basis over an existing factorization of its matrix, with an
    /// empty eta file.
    pub fn from_lu(lu: LuFactors) -> Self {
        let m = lu.dim();
        Self {
            m,
            lu,
            etas: Vec::new(),
            readers: Vec::new(),
            sp_scratch: ScatterVec::new(m),
            pairs: Vec::new(),
        }
    }

    /// The factorization of the current basis matrix, when no pivot has
    /// been recorded since it was computed (after one, the LU factorizes
    /// an older basis and only the etas bridge the difference).
    pub fn into_lu(self) -> Option<LuFactors> {
        self.etas.is_empty().then_some(self.lu)
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
    ///
    /// The etas are applied newest first, and one changes `c` only when
    /// a position it reads holds a nonzero. Such a nonzero is either in
    /// the right-hand side or written by a newer eta, so the walk visits
    /// just the etas whose bits the `readers` masks of those positions
    /// set, in the same order and with the same sums as a scan of every
    /// eta.
    pub fn btran_sparse(&mut self, rhs: &[(usize, f64)], out: &mut ScatterVec) {
        let mut pending = self.load_sparse_rhs(rhs);
        let c = &mut self.sp_scratch;
        if self.etas.len() > u64::BITS as usize {
            for eta in self.etas.iter().rev() {
                apply_eta_transposed(eta, c);
            }
        } else {
            while pending != 0 {
                let k = (u64::BITS - 1 - pending.leading_zeros()) as usize;
                let older = (1u64 << k) - 1;
                pending &= older;
                let Some(eta) = self.etas.get(k) else { break };
                if apply_eta_transposed(eta, c) {
                    pending |= self.readers.get(eta.pos).copied().unwrap_or(0) & older;
                }
            }
        }
        self.lu_btran_scratch(out);
    }

    /// Loads a sparse BTRAN's right-hand side into the scratch vector;
    /// returns the etas its nonzeros reach.
    fn load_sparse_rhs(&mut self, rhs: &[(usize, f64)]) -> u64 {
        let c = &mut self.sp_scratch;
        c.clear();
        let mut reached = 0u64;
        for &(i, v) in rhs {
            if v != 0.0 {
                c.add(i, v);
                reached |= self.readers.get(i).copied().unwrap_or(0);
            }
        }
        reached
    }

    /// Finishes a sparse BTRAN: the LU solve of the scratch vector's
    /// nonzeros.
    fn lu_btran_scratch(&mut self, out: &mut ScatterVec) {
        self.pairs.clear();
        let c = &self.sp_scratch;
        for &i in c.pattern() {
            let v = c.get(i);
            if v != 0.0 {
                self.pairs.push((i, v));
            }
        }
        self.lu.btran_sparse(&self.pairs, out);
    }

    /// Records a pivot: the variable basic at position `pos` is replaced
    /// by a column whose FTRAN'd form is `w` (basis-position indexed).
    /// Returns an error if the pivot element is too small.
    pub fn push_eta_sparse(&mut self, pos: usize, w: &ScatterVec) -> Result<(), Singular> {
        let pivot = w.get(pos);
        if pivot.abs() < 1e-10 {
            return Err(Singular { column: pos });
        }
        // Drop numerically negligible entries: they are solve dirt and
        // would otherwise densify the eta file.
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
        if let Some(bit) = 1u64.checked_shl(self.etas.len() as u32) {
            self.readers.resize(self.m, 0);
            for i in entries.iter().map(|&(i, _)| i).chain([pos]) {
                if let Some(readers) = self.readers.get_mut(i) {
                    *readers |= bit;
                }
            }
        }
        self.etas.push(Eta {
            pos,
            entries,
            pivot,
        });
        Ok(())
    }
}

/// Applies `eta`'s transposed inverse to `c` in place — `c[pos] =
/// (c[pos] − Σ wᵢ·cᵢ) / pivot` over the nonzero `cᵢ` — when one of the
/// positions it reads holds a nonzero; returns whether it did.
#[inline]
fn apply_eta_transposed(eta: &Eta, c: &mut ScatterVec) -> bool {
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
    touched
}

/// Completes `proposed`, one status per column of `std`, to a start
/// basis: exactly `m` basic columns, linearly independent. Of the
/// proposed basic columns it keeps the independent set
/// [`independent_columns`] finds, and a column it drops goes nonbasic
/// at its nearest finite bound (free at zero when it has none), as a
/// hint load places a status its bounds no longer allow. Every row no
/// kept column pivots on gets its slack. Nonbasic statuses are kept as
/// proposed. `None` when `proposed` has the wrong length.
pub(crate) fn complete(std: &StdForm, proposed: &BasisStatuses) -> Option<BasisStatuses> {
    if proposed.0.len() != std.n {
        return None;
    }
    let basic = |j: &usize| proposed.0.get(*j) == Some(&ColStatus::Basic);
    let columns: Vec<Vec<(usize, f64)>> = (0..std.n)
        .filter(basic)
        .map(|j| std.a.col(j).collect())
        .collect();
    let (kept, covered) = independent_columns(&CscMatrix::from_columns(std.m, &columns));
    let mut keep = vec![false; columns.len()];
    for k in kept {
        if let Some(flag) = keep.get_mut(k) {
            *flag = true;
        }
    }
    // The basic columns in order, each with its flag.
    let mut keep = keep.into_iter();
    let mut out = proposed.clone();
    for (status, (&l, &u)) in out.0.iter_mut().zip(std.lb.iter().zip(&std.ub)) {
        if *status == ColStatus::Basic && !keep.next().unwrap_or(true) {
            *status = if l.is_finite() {
                ColStatus::Lower
            } else if u.is_finite() {
                ColStatus::Upper
            } else {
                ColStatus::Free
            };
        }
    }
    let slacks = out.0.iter_mut().skip(std.n_struct);
    for (status, covered) in slacks.zip(covered) {
        if !covered {
            *status = ColStatus::Basic;
        }
    }
    Some(out)
}

/// The eta walk the reader masks replaced, kept as their bit-identity
/// oracle.
#[cfg(test)]
impl Basis {
    /// [`Basis::btran_sparse`] scanning every eta, newest first.
    fn btran_sparse_unmasked(&mut self, rhs: &[(usize, f64)], out: &mut ScatterVec) {
        self.load_sparse_rhs(rhs);
        for eta in self.etas.iter().rev() {
            apply_eta_transposed(eta, &mut self.sp_scratch);
        }
        self.lu_btran_scratch(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `w` as a scatter vector with every position in its pattern.
    fn scatter(w: &[f64]) -> ScatterVec {
        let mut s = ScatterVec::new(w.len());
        for (i, &v) in w.iter().enumerate() {
            s.set(i, v);
        }
        s
    }

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
        let mut basis = Basis::factorize(&CscMatrix::from_columns(m, &cols)).unwrap();

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
        basis.push_eta_sparse(1, &scatter(&w)).unwrap();
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
        let mut basis = Basis::factorize(&CscMatrix::from_columns(m, &cols)).unwrap();
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
    fn sparse_solves_through_etas_match_heap_reference_bitwise() {
        // A 60-row basis with fill, six pivots recorded as etas, then
        // solves from one entry to dense: the sweeps and the heap order
        // must agree to the bit, pattern order included, at every step.
        let m = 60;
        let mut state = 0x5eed_1234u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let row = move |x: f64| (x.abs() * m as f64) as usize % m;
        let cols: Vec<Vec<(usize, f64)>> = (0..m)
            .map(|j| {
                let mut col = vec![(j, 4.0 + next().abs())];
                for _ in 0..2 {
                    let r = row(next());
                    if r != j {
                        col.push((r, next()));
                    }
                }
                col
            })
            .collect();
        let mut sweep = Basis::factorize(&CscMatrix::from_columns(m, &cols)).unwrap();
        let mut heap = Basis::factorize(&CscMatrix::from_columns(m, &cols)).unwrap();
        heap.lu.use_heap_reference();
        let bits = |v: &ScatterVec| {
            v.pattern()
                .iter()
                .map(|&i| (i, v.get(i).to_bits()))
                .collect::<Vec<_>>()
        };
        let (mut a, mut b) = (ScatterVec::new(m), ScatterVec::new(m));
        for step in 0..6 {
            // Entering column: a few random entries; leaving position:
            // its largest FTRAN'd entry, so the pivot is sound.
            let entering: Vec<(usize, f64)> = (0..3).map(|_| (row(next()), 1.0 + next())).collect();
            sweep.ftran_sparse(&entering, &mut a);
            heap.ftran_sparse(&entering, &mut b);
            assert_eq!(bits(&a), bits(&b), "entering ftran, step {step}");
            let pos = a
                .pattern()
                .iter()
                .copied()
                .max_by(|&i, &k| a.get(i).abs().total_cmp(&a.get(k).abs()))
                .unwrap();
            sweep.push_eta_sparse(pos, &a).unwrap();
            heap.push_eta_sparse(pos, &b).unwrap();
            for nnz in [1, 5, m / 2, m] {
                let rhs: Vec<(usize, f64)> = (0..nnz).map(|_| (row(next()), next())).collect();
                sweep.ftran_sparse(&rhs, &mut a);
                heap.ftran_sparse(&rhs, &mut b);
                assert_eq!(bits(&a), bits(&b), "ftran, step {step}, {nnz} entries");
                sweep.btran_sparse(&rhs, &mut a);
                heap.btran_sparse(&rhs, &mut b);
                assert_eq!(bits(&a), bits(&b), "btran, step {step}, {nnz} entries");
            }
        }
    }

    #[test]
    fn memoized_btran_through_etas_matches_a_full_solve_bitwise() {
        // The heap-reference test's shapes: a 60-row basis with fill and
        // six pivots recorded as etas. One basis keeps its BTRAN memo
        // across every call; the other forgets it before each, so it
        // solves in full. Cost vectors change in no, one, a few and all
        // positions between calls.
        let m = 60;
        let mut state = 0x5eed_1234u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let row = move |x: f64| (x.abs() * m as f64) as usize % m;
        let cols: Vec<Vec<(usize, f64)>> = (0..m)
            .map(|j| {
                let mut col = vec![(j, 4.0 + next().abs())];
                for _ in 0..2 {
                    let r = row(next());
                    if r != j {
                        col.push((r, next()));
                    }
                }
                col
            })
            .collect();
        let mut memo = Basis::factorize(&CscMatrix::from_columns(m, &cols)).unwrap();
        let mut full = Basis::factorize(&CscMatrix::from_columns(m, &cols)).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut cost: Vec<f64> = (0..m).map(|_| next()).collect();
        let mut w = ScatterVec::new(m);
        for step in 0..6 {
            let entering: Vec<(usize, f64)> = (0..3).map(|_| (row(next()), 1.0 + next())).collect();
            memo.ftran_sparse(&entering, &mut w);
            let pos = w
                .pattern()
                .iter()
                .copied()
                .max_by(|&i, &k| w.get(i).abs().total_cmp(&w.get(k).abs()))
                .unwrap();
            memo.push_eta_sparse(pos, &w).unwrap();
            full.push_eta_sparse(pos, &w).unwrap();
            for changes in [0, 1, 4, m] {
                for k in 0..changes {
                    let i = if changes == m { k } else { row(next()) };
                    cost[i] = next();
                }
                let (mut c, mut got) = (cost.clone(), vec![0.0; m]);
                memo.btran(&mut c, &mut got);
                full.lu.forget_btran_memo();
                let (mut c, mut want) = (cost.clone(), vec![0.0; m]);
                full.btran(&mut c, &mut want);
                assert_eq!(bits(&got), bits(&want), "step {step}, {changes} changes");
            }
        }
    }

    /// `v`'s pattern, in order, with each value's bits.
    fn pattern_bits(v: &ScatterVec) -> Vec<(usize, u64)> {
        v.pattern()
            .iter()
            .map(|&i| (i, v.get(i).to_bits()))
            .collect()
    }

    #[test]
    fn an_eta_reached_only_through_a_newer_etas_write_is_applied() {
        // Eta 0 pivots on position 0 and reads position 1; eta 1 pivots
        // on position 1 and reads position 2. A right-hand side at 2
        // reaches eta 1 directly and eta 0 only through eta 1's write.
        let m = 4;
        let cols: Vec<Vec<(usize, f64)>> = (0..m).map(|j| vec![(j, 1.0)]).collect();
        let mut basis = Basis::factorize(&CscMatrix::from_columns(m, &cols)).unwrap();
        basis
            .push_eta_sparse(0, &scatter(&[2.0, 0.5, 0.0, 0.0]))
            .unwrap();
        basis
            .push_eta_sparse(1, &scatter(&[0.0, 3.0, 0.25, 0.0]))
            .unwrap();
        let (mut got, mut want) = (ScatterVec::new(m), ScatterVec::new(m));
        for rhs in [
            vec![(2, 1.0)],
            vec![(3, 1.0)],
            vec![(0, 1.0)],
            vec![(2, 1.0), (2, -1.0)],
        ] {
            basis.btran_sparse(&rhs, &mut got);
            basis.btran_sparse_unmasked(&rhs, &mut want);
            assert_eq!(pattern_bits(&got), pattern_bits(&want), "rhs {rhs:?}");
        }
        basis.btran_sparse(&[(2, 1.0)], &mut got);
        // y₂ = 1, y₁ = −0.25·1/3, y₀ = −0.5·y₁/2: both etas applied.
        assert_eq!(got.get(1), -0.25 / 3.0);
        assert_eq!(got.get(0), -0.5 * (-0.25 / 3.0) / 2.0);
        assert_eq!(got.get(3), 0.0);
    }

    #[test]
    fn masked_eta_walk_matches_the_full_scan_bitwise() {
        // A 60-row basis with fill and 70 pivots recorded as etas — past
        // the masks' 64, where the walk scans every eta again — and
        // sparse BTRANs of one entry to dense after each.
        let m = 60;
        let mut state = 0x3a5c_77e1u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let row = move |x: f64| (x.abs() * m as f64) as usize % m;
        let cols: Vec<Vec<(usize, f64)>> = (0..m)
            .map(|j| {
                let mut col = vec![(j, 4.0 + next().abs())];
                let r = row(next());
                if r != j {
                    col.push((r, next()));
                }
                col
            })
            .collect();
        let mut basis = Basis::factorize(&CscMatrix::from_columns(m, &cols)).unwrap();
        let (mut w, mut got, mut want) =
            (ScatterVec::new(m), ScatterVec::new(m), ScatterVec::new(m));
        let mut skipped = 0;
        for step in 0..70 {
            let entering: Vec<(usize, f64)> = (0..2).map(|_| (row(next()), 1.0 + next())).collect();
            basis.ftran_sparse(&entering, &mut w);
            let pos = w
                .pattern()
                .iter()
                .copied()
                .max_by(|&i, &k| w.get(i).abs().total_cmp(&w.get(k).abs()))
                .unwrap();
            basis.push_eta_sparse(pos, &w).unwrap();
            for nnz in [1, 1, 2, 5, m] {
                let rhs: Vec<(usize, f64)> = (0..nnz).map(|_| (row(next()), next())).collect();
                basis.btran_sparse(&rhs, &mut got);
                basis.btran_sparse_unmasked(&rhs, &mut want);
                assert_eq!(
                    pattern_bits(&got),
                    pattern_bits(&want),
                    "step {step}, {nnz} entries"
                );
                if nnz == 1 {
                    let reached = basis.load_sparse_rhs(&rhs);
                    skipped += basis.etas.len().min(64) - reached.count_ones() as usize;
                }
            }
        }
        assert!(
            skipped > 0,
            "some eta lies outside every unit right-hand side's reach"
        );
    }

    #[test]
    fn into_lu_only_without_etas() {
        let cols = vec![vec![(0, 1.0)], vec![(1, 1.0)]];
        let basis = Basis::factorize(&CscMatrix::from_columns(2, &cols)).unwrap();
        let lu = basis.into_lu().expect("no pivot recorded");
        let mut basis = Basis::from_lu(lu);
        basis.push_eta_sparse(0, &scatter(&[2.0, 0.0])).unwrap();
        assert!(basis.into_lu().is_none(), "the LU no longer factorizes B");
    }

    #[test]
    fn push_eta_sparse_rejects_tiny_pivot() {
        let cols = vec![vec![(0, 1.0)], vec![(1, 1.0)]];
        let mut basis = Basis::factorize(&CscMatrix::from_columns(2, &cols)).unwrap();
        let mut w = ScatterVec::new(2);
        w.set(1, 1e-14);
        assert!(basis.push_eta_sparse(1, &w).is_err());
    }

    #[test]
    fn push_eta_rejects_tiny_pivot() {
        let cols = vec![vec![(0, 1.0)], vec![(1, 1.0)]];
        let mut basis = Basis::factorize(&CscMatrix::from_columns(2, &cols)).unwrap();
        let w = scatter(&[0.0, 1e-14]);
        assert!(basis.push_eta_sparse(1, &w).is_err());
    }

    #[test]
    fn should_refactorize_after_interval() {
        let cols = vec![vec![(0, 1.0)], vec![(1, 1.0)]];
        let mut basis = Basis::factorize(&CscMatrix::from_columns(2, &cols)).unwrap();
        assert!(!basis.should_refactorize());
        for _ in 0..REFACTOR_INTERVAL {
            basis.push_eta_sparse(0, &scatter(&[1.0, 0.0])).unwrap();
        }
        assert!(basis.should_refactorize());
    }
}
