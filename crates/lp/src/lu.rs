//! Sparse LU factorization of simplex basis matrices.
//!
//! Implements a left-looking ("GPLU", Gilbert–Peierls) factorization with
//! partial pivoting: for each column we perform a sparse triangular solve
//! against the partially built `L`, whose nonzero pattern is discovered by
//! a depth-first search, then choose the largest-magnitude eligible entry
//! as pivot.
//!
//! The factorization produces `P·B = L·U` where `P` is a row permutation,
//! `L` unit lower triangular and `U` upper triangular (both stored in
//! *permuted* row coordinates after a final remap). Solves:
//!
//! * [`LuFactors::ftran`] — `B·w = v`, i.e. `w = U⁻¹ L⁻¹ P v`
//! * [`LuFactors::btran`] — `Bᵀ·y = c`, i.e. `y = Pᵀ L⁻ᵀ U⁻ᵀ c`

// audit:allow-file(float-eq): exact-zero comparisons here are
// structural sparsity guards (skip entries that are identically zero),
// not approximate value checks.

use crate::sparse::{CscMatrix, ScatterVec};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Error raised when the basis matrix is (numerically) singular.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Singular {
    /// Column at which no acceptable pivot was found.
    pub column: usize,
}

impl std::fmt::Display for Singular {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "basis is singular at column {}", self.column)
    }
}

impl std::error::Error for Singular {}

/// The result of factorizing a basis matrix.
#[derive(Debug, Clone)]
pub struct LuFactors {
    m: usize,
    /// Unit lower triangular factor (strict lower part only; the unit
    /// diagonal is implicit), permuted row space.
    l: CscMatrix,
    /// Upper triangular factor, permuted row space; `u_diag[j]` holds the
    /// diagonal, `u` the strictly-upper entries.
    u: CscMatrix,
    u_diag: Vec<f64>,
    /// `pinv[original_row] = permuted_position`.
    pinv: Vec<usize>,
    /// Column preorder: factorization column `k` is input column
    /// `q[k]` (sparsest-first, which markedly reduces fill on simplex
    /// bases dominated by slack columns).
    q: Vec<usize>,
    /// Scratch for the solve permutations.
    tmp: Vec<f64>,
    /// Lazily built transposes/permutation inverses for the sparse-RHS
    /// solves (only paid for when a sparse solve is requested).
    aux: Option<SparseAux>,
    /// Scratch workspace for the sparse solves (permuted coordinates).
    tmp_sp: ScatterVec,
    /// Reusable heaps ordering the sparse triangular eliminations.
    heap_asc: BinaryHeap<Reverse<usize>>,
    heap_desc: BinaryHeap<usize>,
}

/// Row-access views and inverse permutations needed by
/// [`LuFactors::btran_sparse`]: `lt.col(j)` / `ut.col(j)` hold row `j` of
/// `L` / `U`, `qinv` inverts the column preorder and `rowof` inverts the
/// row permutation.
#[derive(Debug, Clone)]
struct SparseAux {
    lt: CscMatrix,
    ut: CscMatrix,
    qinv: Vec<usize>,
    rowof: Vec<usize>,
}

/// Absolute pivot magnitude below which a column is declared singular.
const PIVOT_TOL: f64 = 1e-10;

/// Threshold-pivoting factor: candidates within this factor of the
/// largest magnitude are eligible for the sparsity tie-break.
const THRESHOLD: f64 = 0.1;

impl LuFactors {
    /// Factorizes the `m × m` matrix `b` given in CSC form.
    pub fn factorize(b: &CscMatrix) -> Result<LuFactors, Singular> {
        assert_eq!(b.nrows, b.ncols, "basis must be square");
        let m = b.nrows;

        // Column preorder: sparsest columns first. Simplex bases are
        // mostly slack (singleton) columns; eliminating them first keeps
        // the active submatrix — and therefore fill-in — small.
        let mut q: Vec<usize> = (0..m).collect();
        q.sort_by_key(|&j| b.col_nnz(j));

        // Row occupancy counts of the input matrix: the Markowitz-style
        // tie-break below prefers pivots in sparse rows, which keeps U's
        // rows (and the DFS reach of later columns) short.
        let mut row_count = vec![0usize; m];
        for &r in &b.rowidx {
            row_count[r] += 1;
        }

        // Growing triplet storage for L (strict lower, original row ids
        // during factorization) and U (permuted row ids).
        let mut l_cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut u_cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut u_diag = vec![0.0; m];

        const NONE: usize = usize::MAX;
        let mut pinv = vec![NONE; m];

        // Dense workspace with stamps for the sparse solve.
        let mut x = vec![0.0; m];
        let mut mark = vec![0u64; m];
        let mut stamp = 0u64;
        // DFS stacks.
        let mut node_stack: Vec<(usize, usize)> = Vec::new(); // (node, child cursor)
        let mut topo: Vec<usize> = Vec::new();

        for k in 0..m {
            let bk = q[k];
            stamp += 1;
            topo.clear();

            // --- Symbolic: nonzero pattern of x = L \ b[:, q[k]] via DFS. ---
            for (r, _) in b.col(bk) {
                if mark[r] == stamp {
                    continue;
                }
                // Iterative DFS from r through columns of L already built.
                node_stack.push((r, 0));
                mark[r] = stamp;
                while let Some(&(node, cursor)) = node_stack.last() {
                    let col = pinv[node];
                    let mut descended = false;
                    if col != NONE {
                        let children = &l_cols[col];
                        let mut cur = cursor;
                        while cur < children.len() {
                            let child = children[cur].0;
                            cur += 1;
                            if mark[child] != stamp {
                                mark[child] = stamp;
                                if let Some(top) = node_stack.last_mut() {
                                    top.1 = cur;
                                }
                                node_stack.push((child, 0));
                                descended = true;
                                break;
                            }
                        }
                    }
                    if !descended {
                        node_stack.pop();
                        topo.push(node);
                    }
                }
            }
            // `topo` is a postorder; reverse gives topological order.
            topo.reverse();

            // --- Numeric: scatter b[:, k] then eliminate in topo order. ---
            for i in topo.iter() {
                x[*i] = 0.0;
            }
            for (r, v) in b.col(bk) {
                x[r] = v;
            }
            for &node in &topo {
                let col = pinv[node];
                if col == NONE {
                    continue;
                }
                let xj = x[node];
                if xj == 0.0 {
                    continue;
                }
                for &(r, v) in &l_cols[col] {
                    x[r] -= v * xj;
                }
            }

            // --- Pivot selection: threshold partial pivoting with a
            // Markowitz-style sparsity tie-break — among rows whose
            // magnitude is within a factor of the maximum, prefer the
            // one lying in the sparsest row of B. ---
            let mut best = 0.0f64;
            for &i in &topo {
                if pinv[i] == NONE {
                    let t = x[i].abs();
                    if t > best {
                        best = t;
                    }
                }
            }
            if best <= PIVOT_TOL {
                return Err(Singular { column: k });
            }
            let mut ipiv = NONE;
            let mut best_count = usize::MAX;
            for &i in &topo {
                if pinv[i] == NONE && x[i].abs() >= THRESHOLD * best && row_count[i] < best_count {
                    best_count = row_count[i];
                    ipiv = i;
                }
            }
            debug_assert!(ipiv != NONE);
            let pivot = x[ipiv];
            pinv[ipiv] = k;
            u_diag[k] = pivot;

            // --- Store U column k (already-pivotal rows) and L column k. ---
            let mut ucol = Vec::new();
            let mut lcol = Vec::new();
            for &i in &topo {
                let v = x[i];
                if v == 0.0 || i == ipiv {
                    continue;
                }
                if pinv[i] != NONE && pinv[i] < k {
                    ucol.push((pinv[i], v));
                } else if pinv[i] == NONE {
                    lcol.push((i, v / pivot));
                }
            }
            u_cols.push(ucol);
            l_cols.push(lcol);
        }

        // Remap L's row indices into permuted coordinates.
        for col in &mut l_cols {
            for e in col.iter_mut() {
                e.0 = pinv[e.0];
            }
            col.sort_unstable_by_key(|&(r, _)| r);
        }
        for col in &mut u_cols {
            col.sort_unstable_by_key(|&(r, _)| r);
        }

        Ok(LuFactors {
            m,
            l: CscMatrix::from_columns(m, &l_cols),
            u: CscMatrix::from_columns(m, &u_cols),
            u_diag,
            pinv,
            q,
            tmp: vec![0.0; m],
            aux: None,
            tmp_sp: ScatterVec::new(m),
            heap_asc: BinaryHeap::new(),
            heap_desc: BinaryHeap::new(),
        })
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.m
    }

    /// Solves `B·w = v`. `v` is given in original row coordinates; the
    /// result (overwriting `work`) is indexed by basis position.
    pub fn ftran(&mut self, v: &[f64], work: &mut [f64]) {
        debug_assert_eq!(v.len(), self.m);
        debug_assert_eq!(work.len(), self.m);
        let t = &mut self.tmp;
        // t = P v
        for i in 0..self.m {
            t[self.pinv[i]] = v[i];
        }
        // Forward solve L z = t (unit diagonal, strict lower stored).
        for j in 0..self.m {
            let xj = t[j];
            if xj != 0.0 {
                for (r, val) in self.l.col(j) {
                    t[r] -= val * xj;
                }
            }
        }
        // Back solve U u = z.
        for j in (0..self.m).rev() {
            let xj = t[j] / self.u_diag[j];
            t[j] = xj;
            if xj != 0.0 {
                for (r, val) in self.u.col(j) {
                    t[r] -= val * xj;
                }
            }
        }
        // Undo the column preorder: w[q[k]] = u[k].
        for k in 0..self.m {
            work[self.q[k]] = t[k];
        }
    }

    /// Solves `Bᵀ·y = c`. `c` is indexed by basis position; the result
    /// (written into `out`) is in original row coordinates.
    pub fn btran(&mut self, c: &mut [f64], out: &mut [f64]) {
        debug_assert_eq!(c.len(), self.m);
        debug_assert_eq!(out.len(), self.m);
        // Apply the column preorder: c'[k] = c[q[k]].
        let t = &mut self.tmp;
        for k in 0..self.m {
            t[k] = c[self.q[k]];
        }
        c.copy_from_slice(t);
        // Solve Uᵀ z = c (forward, dot-product form).
        for j in 0..self.m {
            let mut acc = c[j];
            for (r, val) in self.u.col(j) {
                acc -= val * c[r];
            }
            c[j] = acc / self.u_diag[j];
        }
        // Solve Lᵀ y' = z (backward, dot-product form; unit diagonal).
        for j in (0..self.m).rev() {
            let mut acc = c[j];
            for (r, val) in self.l.col(j) {
                acc -= val * c[r];
            }
            c[j] = acc;
        }
        // y = Pᵀ y': out[original_row] = y'[pinv[row]].
        for i in 0..self.m {
            out[i] = c[self.pinv[i]];
        }
    }

    /// Sparse-RHS FTRAN: solves `B·w = v` for `v` given as `(row, value)`
    /// pairs in original row coordinates, writing the (sparse) result
    /// into `out` indexed by basis position.
    ///
    /// The triangular solves touch only the reachable pattern: indices
    /// are processed in elimination order via a heap, so the cost scales
    /// with the solution's nonzeros rather than with `m`. Entering
    /// simplex columns have a handful of nonzeros, making this far
    /// cheaper than the dense [`LuFactors::ftran`] on large bases.
    pub fn ftran_sparse(&mut self, rhs: &[(usize, f64)], out: &mut ScatterVec) {
        debug_assert_eq!(out.len(), self.m);
        let t = &mut self.tmp_sp;
        t.clear();
        for &(i, v) in rhs {
            if v != 0.0 {
                t.add(self.pinv[i], v);
            }
        }
        // Forward solve L z = P v, ascending (fill lands at rows > j).
        self.heap_asc.clear();
        for &k in t.pattern() {
            self.heap_asc.push(Reverse(k));
        }
        while let Some(Reverse(j)) = self.heap_asc.pop() {
            while self.heap_asc.peek() == Some(&Reverse(j)) {
                self.heap_asc.pop();
            }
            let xj = t.get(j);
            if xj == 0.0 {
                continue;
            }
            for (r, val) in self.l.col(j) {
                let fresh = !t.contains(r);
                t.add(r, -val * xj);
                if fresh {
                    self.heap_asc.push(Reverse(r));
                }
            }
        }
        // Back solve U x = z, descending (fill lands at rows < j).
        self.heap_desc.clear();
        for &k in t.pattern() {
            self.heap_desc.push(k);
        }
        while let Some(j) = self.heap_desc.pop() {
            while self.heap_desc.peek() == Some(&j) {
                self.heap_desc.pop();
            }
            let tj = t.get(j);
            if tj == 0.0 {
                continue;
            }
            let xj = tj / self.u_diag[j];
            t.set(j, xj);
            for (r, val) in self.u.col(j) {
                let fresh = !t.contains(r);
                t.add(r, -val * xj);
                if fresh {
                    self.heap_desc.push(r);
                }
            }
        }
        // Undo the column preorder: out[q[k]] = t[k].
        out.clear();
        for &k in t.pattern() {
            let v = t.get(k);
            if v != 0.0 {
                out.set(self.q[k], v);
            }
        }
    }

    /// Sparse-RHS BTRAN: solves `Bᵀ·y = c` for `c` given as
    /// `(basis_position, value)` pairs, writing the (sparse) result into
    /// `out` in original row coordinates.
    ///
    /// The transposed solves need row access to `L`/`U`; the transposes
    /// are built lazily on the first sparse BTRAN after a factorization
    /// (an `O(nnz)` pass, negligible next to the factorization itself).
    pub fn btran_sparse(&mut self, rhs: &[(usize, f64)], out: &mut ScatterVec) {
        debug_assert_eq!(out.len(), self.m);
        self.ensure_aux();
        let Some(aux) = self.aux.as_ref() else {
            out.clear();
            return;
        };
        let t = &mut self.tmp_sp;
        t.clear();
        for &(j, v) in rhs {
            if v != 0.0 {
                t.add(aux.qinv[j], v);
            }
        }
        // Solve Uᵀ z = c', ascending: Uᵀ is lower triangular and
        // ut.col(j) holds row j of U (the entries U[j, r], r > j).
        self.heap_asc.clear();
        for &k in t.pattern() {
            self.heap_asc.push(Reverse(k));
        }
        while let Some(Reverse(j)) = self.heap_asc.pop() {
            while self.heap_asc.peek() == Some(&Reverse(j)) {
                self.heap_asc.pop();
            }
            let tj = t.get(j);
            if tj == 0.0 {
                continue;
            }
            let zj = tj / self.u_diag[j];
            t.set(j, zj);
            for (r, val) in aux.ut.col(j) {
                let fresh = !t.contains(r);
                t.add(r, -val * zj);
                if fresh {
                    self.heap_asc.push(Reverse(r));
                }
            }
        }
        // Solve Lᵀ y' = z, descending: Lᵀ is unit upper triangular and
        // lt.col(j) holds row j of L (the entries L[j, r], r < j).
        self.heap_desc.clear();
        for &k in t.pattern() {
            self.heap_desc.push(k);
        }
        while let Some(j) = self.heap_desc.pop() {
            while self.heap_desc.peek() == Some(&j) {
                self.heap_desc.pop();
            }
            let yj = t.get(j);
            if yj == 0.0 {
                continue;
            }
            for (r, val) in aux.lt.col(j) {
                let fresh = !t.contains(r);
                t.add(r, -val * yj);
                if fresh {
                    self.heap_desc.push(r);
                }
            }
        }
        // y = Pᵀ y': out[rowof[k]] = y'[k].
        out.clear();
        for &k in t.pattern() {
            let v = t.get(k);
            if v != 0.0 {
                out.set(aux.rowof[k], v);
            }
        }
    }

    /// Builds the transposed factors and inverse permutations used by
    /// [`LuFactors::btran_sparse`], once per factorization.
    fn ensure_aux(&mut self) {
        if self.aux.is_some() {
            return;
        }
        let mut qinv = vec![0usize; self.m];
        for (k, &j) in self.q.iter().enumerate() {
            qinv[j] = k;
        }
        let mut rowof = vec![0usize; self.m];
        for (i, &k) in self.pinv.iter().enumerate() {
            rowof[k] = i;
        }
        self.aux = Some(SparseAux {
            lt: self.l.transpose(),
            ut: self.u.transpose(),
            qinv,
            rowof,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_to_csc(a: &[&[f64]]) -> CscMatrix {
        let m = a.len();
        let cols: Vec<Vec<(usize, f64)>> = (0..m)
            .map(|j| {
                (0..m)
                    .filter_map(|i| {
                        let v = a[i][j];
                        (v != 0.0).then_some((i, v))
                    })
                    .collect()
            })
            .collect();
        CscMatrix::from_columns(m, &cols)
    }

    fn check_ftran(a: &[&[f64]], v: &[f64]) {
        let m = a.len();
        let b = dense_to_csc(a);
        let mut lu = LuFactors::factorize(&b).expect("nonsingular");
        let rhs = v.to_vec();
        let mut w = vec![0.0; m];
        lu.ftran(&rhs, &mut w);
        // Check B w == v.
        let bw = b.mul_dense(&w);
        for i in 0..m {
            assert!(
                (bw[i] - v[i]).abs() < 1e-9,
                "ftran residual at {i}: {} vs {}",
                bw[i],
                v[i]
            );
        }
    }

    fn check_btran(a: &[&[f64]], c: &[f64]) {
        let m = a.len();
        let b = dense_to_csc(a);
        let mut lu = LuFactors::factorize(&b).expect("nonsingular");
        let mut rhs = c.to_vec();
        let mut y = vec![0.0; m];
        lu.btran(&mut rhs, &mut y);
        // Check Bᵀ y == c, i.e. for each column j: dot(B[:,j], y) == c[j].
        for j in 0..m {
            let dot: f64 = (0..m).map(|i| a[i][j] * y[i]).sum();
            assert!(
                (dot - c[j]).abs() < 1e-9,
                "btran residual at {j}: {dot} vs {}",
                c[j]
            );
        }
    }

    #[test]
    fn identity_solves() {
        let a: &[&[f64]] = &[&[1.0, 0.0], &[0.0, 1.0]];
        check_ftran(a, &[3.0, -4.0]);
        check_btran(a, &[3.0, -4.0]);
    }

    #[test]
    fn permutation_matrix() {
        let a: &[&[f64]] = &[&[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0], &[1.0, 0.0, 0.0]];
        check_ftran(a, &[1.0, 2.0, 3.0]);
        check_btran(a, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn dense_3x3() {
        let a: &[&[f64]] = &[&[2.0, 1.0, 1.0], &[4.0, -6.0, 0.0], &[-2.0, 7.0, 2.0]];
        check_ftran(a, &[5.0, -2.0, 9.0]);
        check_btran(a, &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn requires_pivoting() {
        // Zero on the diagonal forces row swaps.
        let a: &[&[f64]] = &[&[0.0, 2.0], &[3.0, 1.0]];
        check_ftran(a, &[4.0, 5.0]);
        check_btran(a, &[4.0, 5.0]);
    }

    #[test]
    fn singular_detected() {
        let a: &[&[f64]] = &[&[1.0, 2.0], &[2.0, 4.0]];
        let b = dense_to_csc(a);
        assert!(LuFactors::factorize(&b).is_err());
    }

    #[test]
    fn structurally_singular_detected() {
        let a: &[&[f64]] = &[&[1.0, 0.0], &[0.0, 0.0]];
        let b = dense_to_csc(a);
        // (The reported column index is in preordered space; only the
        // fact of singularity is contractual.)
        assert!(LuFactors::factorize(&b).is_err());
    }

    fn check_sparse_matches_dense(a: &[&[f64]], rhs: &[(usize, f64)]) {
        let m = a.len();
        let b = dense_to_csc(a);
        let mut lu = LuFactors::factorize(&b).expect("nonsingular");
        let mut dense_in = vec![0.0; m];
        for &(i, v) in rhs {
            dense_in[i] += v;
        }
        // FTRAN.
        let mut w = vec![0.0; m];
        lu.ftran(&dense_in, &mut w);
        let mut w_sp = ScatterVec::new(m);
        lu.ftran_sparse(rhs, &mut w_sp);
        for (i, &wi) in w.iter().enumerate() {
            assert!(
                (wi - w_sp.get(i)).abs() < 1e-9,
                "ftran_sparse[{i}]: {} vs dense {wi}",
                w_sp.get(i),
            );
        }
        // BTRAN.
        let mut c = dense_in.clone();
        let mut y = vec![0.0; m];
        lu.btran(&mut c, &mut y);
        let mut y_sp = ScatterVec::new(m);
        lu.btran_sparse(rhs, &mut y_sp);
        for (i, &yi) in y.iter().enumerate() {
            assert!(
                (yi - y_sp.get(i)).abs() < 1e-9,
                "btran_sparse[{i}]: {} vs dense {yi}",
                y_sp.get(i),
            );
        }
    }

    #[test]
    fn sparse_solves_match_dense() {
        let a: &[&[f64]] = &[
            &[2.0, 1.0, 0.0, 0.0],
            &[4.0, -6.0, 0.0, 1.0],
            &[-2.0, 7.0, 2.0, 0.0],
            &[0.0, 0.0, 1.0, 3.0],
        ];
        check_sparse_matches_dense(a, &[(2, 5.0)]);
        check_sparse_matches_dense(a, &[(0, 1.0), (3, -2.0)]);
        check_sparse_matches_dense(a, &[(1, 0.5), (2, 1.0), (0, -1.0), (3, 2.0)]);
    }

    #[test]
    fn sparse_solves_random_matrices() {
        let mut state = 0xfeed_beefu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for trial in 0..20 {
            let m = 4 + (trial % 6);
            let mut rows: Vec<Vec<f64>> = (0..m)
                .map(|_| {
                    (0..m)
                        .map(|_| {
                            let v = next();
                            if v.abs() < 0.5 {
                                0.0
                            } else {
                                v
                            }
                        })
                        .collect()
                })
                .collect();
            for (i, row) in rows.iter_mut().enumerate() {
                row[i] = 5.0 + next().abs();
            }
            let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            // One- and two-nonzero right-hand sides, like simplex RHS.
            let i1 = (next().abs() * m as f64) as usize % m;
            let i2 = (next().abs() * m as f64) as usize % m;
            check_sparse_matches_dense(&refs, &[(i1, 1.0)]);
            if i1 != i2 {
                check_sparse_matches_dense(&refs, &[(i1, next() * 3.0), (i2, next() * 3.0)]);
            }
        }
    }

    #[test]
    fn sparse_solve_empty_rhs() {
        let a: &[&[f64]] = &[&[1.0, 0.0], &[0.0, 1.0]];
        let b = dense_to_csc(a);
        let mut lu = LuFactors::factorize(&b).unwrap();
        let mut out = ScatterVec::new(2);
        lu.ftran_sparse(&[], &mut out);
        assert!(out.pattern().is_empty());
        lu.btran_sparse(&[], &mut out);
        assert!(out.pattern().is_empty());
    }

    #[test]
    fn random_matrices_roundtrip() {
        // Small deterministic pseudo-random matrices.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for trial in 0..20 {
            let m = 3 + (trial % 5);
            let mut rows: Vec<Vec<f64>> = (0..m)
                .map(|_| {
                    (0..m)
                        .map(|_| {
                            let v = next();
                            if v.abs() < 0.3 {
                                0.0
                            } else {
                                v
                            }
                        })
                        .collect()
                })
                .collect();
            // Make it strongly diagonally dominant to guarantee nonsingular.
            for (i, row) in rows.iter_mut().enumerate() {
                row[i] = 5.0 + next().abs();
            }
            let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            let v: Vec<f64> = (0..m).map(|_| next() * 10.0).collect();
            check_ftran(&refs, &v);
            check_btran(&refs, &v);
        }
    }
}
