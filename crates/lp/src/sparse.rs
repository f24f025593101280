//! Compressed sparse column (CSC) matrices and sparse-vector helpers used
//! by the simplex engine and the LU factorization.

// audit:allow-file(float-eq): exact-zero comparisons here are
// structural sparsity guards (skip entries that are identically zero),
// not approximate value checks.

/// A matrix stored in compressed-sparse-column form.
///
/// Entries within one column need not be sorted by row, but their order
/// is not free: [`crate::lu::LuFactors::factorize`] walks a column of `B`
/// in stored order, which fixes its DFS order, hence the elimination
/// order and the bits of the factors. The constructors in this crate
/// produce sorted, duplicate-free columns, and [`CscMatrix::set_entry`] and
/// [`CscMatrix::value_at`] rely on the sorting.
#[derive(Debug, Clone, Default)]
pub struct CscMatrix {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Column start offsets into `rowidx`/`values`; length `ncols + 1`.
    pub colptr: Vec<usize>,
    /// Row index of each stored entry.
    pub rowidx: Vec<usize>,
    /// Value of each stored entry.
    pub values: Vec<f64>,
}

impl CscMatrix {
    /// Creates an empty `nrows × ncols` matrix with no stored entries.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            colptr: vec![0; ncols + 1],
            rowidx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds a CSC matrix from per-column `(row, value)` lists.
    ///
    /// Duplicate rows within a column are summed; zeros are kept (callers
    /// filter if desired).
    pub fn from_columns(nrows: usize, columns: &[Vec<(usize, f64)>]) -> Self {
        let ncols = columns.len();
        let mut colptr = Vec::with_capacity(ncols + 1);
        let mut rowidx = Vec::new();
        let mut values = Vec::new();
        colptr.push(0);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for col in columns {
            scratch.clear();
            scratch.extend_from_slice(col);
            scratch.sort_unstable_by_key(|&(r, _)| r);
            let mut i = 0;
            while i < scratch.len() {
                let r = scratch[i].0;
                debug_assert!(r < nrows, "row index {r} out of bounds {nrows}");
                let mut v = scratch[i].1;
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == r {
                    v += scratch[j].1;
                    j += 1;
                }
                rowidx.push(r);
                values.push(v);
                i = j;
            }
            colptr.push(rowidx.len());
        }
        Self {
            nrows,
            ncols,
            colptr,
            rowidx,
            values,
        }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.rowidx.len()
    }

    /// Overwrites the stored entry at `(row, col)` with `val`, returning
    /// `false` (and changing nothing) when that position is not in the
    /// sparsity pattern. Requires the column to be sorted by row, which
    /// [`CscMatrix::from_columns`] guarantees. This is the delta-LP
    /// primitive: patching a coefficient in place instead of rebuilding
    /// the matrix.
    pub fn set_entry(&mut self, row: usize, col: usize, val: f64) -> bool {
        let lo = self.colptr[col];
        let hi = self.colptr[col + 1];
        match self.rowidx[lo..hi].binary_search(&row) {
            Ok(pos) => {
                self.values[lo + pos] = val;
                true
            }
            Err(_) => false,
        }
    }

    /// The value stored at `(row, col)`, `None` outside the pattern.
    /// Like [`CscMatrix::set_entry`], needs the column sorted by row.
    #[inline]
    pub fn value_at(&self, row: usize, col: usize) -> Option<f64> {
        let lo = *self.colptr.get(col)?;
        let hi = *self.colptr.get(col + 1)?;
        let k = self.rowidx.get(lo..hi)?.binary_search(&row).ok()?;
        self.values.get(lo + k).copied()
    }

    /// Iterates over `(row, value)` entries of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.colptr[j];
        let hi = self.colptr[j + 1];
        self.rowidx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Number of entries stored in column `j`.
    #[inline]
    pub fn col_nnz(&self, j: usize) -> usize {
        self.colptr[j + 1] - self.colptr[j]
    }

    /// Computes `y += alpha * A[:, j]` into a dense vector.
    #[inline]
    pub fn axpy_col(&self, j: usize, alpha: f64, y: &mut [f64]) {
        for (r, v) in self.col(j) {
            y[r] += alpha * v;
        }
    }

    /// Computes the dot product of column `j` with a dense vector.
    #[inline]
    pub fn dot_col(&self, j: usize, x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (r, v) in self.col(j) {
            acc += v * x[r];
        }
        acc
    }

    /// Dense `A * x` (for testing / small matrices).
    pub fn mul_dense(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols);
        let mut y = vec![0.0; self.nrows];
        for (j, &xj) in x.iter().enumerate() {
            if xj != 0.0 {
                self.axpy_col(j, xj, &mut y);
            }
        }
        y
    }

    /// Returns the transpose as a new CSC matrix (i.e., CSR of `self`).
    pub fn transpose(&self) -> CscMatrix {
        let mut counts = vec![0usize; self.nrows + 1];
        for &r in &self.rowidx {
            counts[r + 1] += 1;
        }
        for i in 1..=self.nrows {
            counts[i] += counts[i - 1];
        }
        let colptr = counts.clone();
        let mut next = counts;
        let mut rowidx = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        for j in 0..self.ncols {
            for (r, v) in self.col(j) {
                let p = next[r];
                rowidx[p] = j;
                values[p] = v;
                next[r] += 1;
            }
        }
        CscMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            colptr,
            rowidx,
            values,
        }
    }
}

/// A growable sparse vector workspace with O(1) clearing via stamps.
///
/// A general building block for sparse kernels: `values` holds a dense
/// scatter of the current vector, `pattern` the indices of its nonzero
/// entries. (The LU factorization uses its own specialised DFS-ordered
/// variant of the same stamping idea.)
#[derive(Debug, Clone)]
pub struct ScatterVec {
    values: Vec<f64>,
    stamp: Vec<u64>,
    current: u64,
    pattern: Vec<usize>,
}

impl ScatterVec {
    /// Creates a scatter workspace of dimension `n`.
    pub fn new(n: usize) -> Self {
        Self {
            values: vec![0.0; n],
            stamp: vec![0; n],
            current: 1,
            pattern: Vec::new(),
        }
    }

    /// Dimension of the workspace.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the workspace has zero dimension.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Clears all entries in O(1).
    pub fn clear(&mut self) {
        self.current += 1;
        self.pattern.clear();
    }

    /// Whether index `i` is currently in the pattern.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.stamp[i] == self.current
    }

    /// Current value at `i` (0.0 if not in pattern).
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        if self.contains(i) {
            self.values[i]
        } else {
            0.0
        }
    }

    /// Adds `v` to entry `i`, inserting it into the pattern if absent.
    #[inline]
    pub fn add(&mut self, i: usize, v: f64) {
        if self.contains(i) {
            self.values[i] += v;
        } else {
            self.stamp[i] = self.current;
            self.values[i] = v;
            self.pattern.push(i);
        }
    }

    /// Sets entry `i` to `v`, inserting it into the pattern if absent.
    #[inline]
    pub fn set(&mut self, i: usize, v: f64) {
        if !self.contains(i) {
            self.stamp[i] = self.current;
            self.pattern.push(i);
        }
        self.values[i] = v;
    }

    /// The indices currently in the pattern (unordered).
    pub fn pattern(&self) -> &[usize] {
        &self.pattern
    }

    /// Drains the pattern into `(index, value)` pairs and clears.
    pub fn drain(&mut self) -> Vec<(usize, f64)> {
        let out: Vec<(usize, f64)> = self.pattern.iter().map(|&i| (i, self.values[i])).collect();
        self.clear();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_columns_sums_duplicates() {
        let a = CscMatrix::from_columns(3, &[vec![(0, 1.0), (0, 2.0), (2, 1.0)], vec![]]);
        assert_eq!(a.nnz(), 2);
        let col0: Vec<_> = a.col(0).collect();
        assert_eq!(col0, vec![(0, 3.0), (2, 1.0)]);
        assert_eq!(a.col_nnz(1), 0);
    }

    #[test]
    fn set_entry_patches_in_place() {
        let mut a = CscMatrix::from_columns(3, &[vec![(0, 1.0), (2, 5.0)], vec![(1, -2.0)]]);
        assert!(a.set_entry(2, 0, 7.5));
        assert!(a.set_entry(1, 1, 0.5));
        // Absent positions are rejected without changing the pattern.
        assert!(!a.set_entry(1, 0, 9.0));
        assert_eq!(a.nnz(), 3);
        let col0: Vec<_> = a.col(0).collect();
        assert_eq!(col0, vec![(0, 1.0), (2, 7.5)]);
        let col1: Vec<_> = a.col(1).collect();
        assert_eq!(col1, vec![(1, 0.5)]);
    }

    #[test]
    fn mul_dense_matches_manual() {
        // [1 0; 2 3]
        let a = CscMatrix::from_columns(2, &[vec![(0, 1.0), (1, 2.0)], vec![(1, 3.0)]]);
        let y = a.mul_dense(&[2.0, 1.0]);
        assert_eq!(y, vec![2.0, 7.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = CscMatrix::from_columns(
            3,
            &[
                vec![(0, 1.0), (2, 5.0)],
                vec![(1, -2.0)],
                vec![(0, 4.0), (1, 3.0)],
            ],
        );
        let t = a.transpose();
        assert_eq!(t.nrows, 3);
        assert_eq!(t.ncols, 3);
        let tt = t.transpose();
        assert_eq!(tt.colptr, a.colptr);
        assert_eq!(tt.rowidx, a.rowidx);
        assert_eq!(tt.values, a.values);
    }

    #[test]
    fn transpose_entry_check() {
        let a = CscMatrix::from_columns(2, &[vec![(1, 7.0)], vec![(0, 9.0)]]);
        let t = a.transpose();
        let col0: Vec<_> = t.col(0).collect();
        assert_eq!(col0, vec![(1, 9.0)]);
        let col1: Vec<_> = t.col(1).collect();
        assert_eq!(col1, vec![(0, 7.0)]);
    }

    #[test]
    fn scatter_vec_add_set_clear() {
        let mut s = ScatterVec::new(4);
        s.add(1, 2.0);
        s.add(1, 3.0);
        s.set(3, 7.0);
        assert_eq!(s.get(1), 5.0);
        assert_eq!(s.get(3), 7.0);
        assert_eq!(s.get(0), 0.0);
        assert_eq!(s.pattern().len(), 2);
        s.clear();
        assert_eq!(s.get(1), 0.0);
        assert!(s.pattern().is_empty());
    }

    #[test]
    fn scatter_drain_returns_entries() {
        let mut s = ScatterVec::new(3);
        s.set(2, 1.5);
        s.set(0, -4.0);
        let mut entries = s.drain();
        entries.sort_by_key(|&(i, _)| i);
        assert_eq!(entries, vec![(0, -4.0), (2, 1.5)]);
        assert!(s.pattern().is_empty());
    }
}
