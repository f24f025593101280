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
//!
//! A factorization remembers its last dense BTRAN (from its second call
//! on): the next one recomputes only the positions whose input changed
//! or that read a changed position, and returns the same bits a full
//! solve would.

// audit:allow-file(float-eq): exact-zero comparisons here are
// structural sparsity guards (skip entries that are identically zero),
// not approximate value checks.

use crate::sparse::{CscMatrix, ScatterVec};

/// Error raised when the basis matrix is (numerically) singular.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Singular {
    /// Input column (basis position) for which no acceptable pivot was
    /// found.
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
    /// The last dense BTRAN's stage vectors, kept from the second dense
    /// BTRAN of this factorization on (most factorizations see one).
    btran_memo: Option<Box<BtranMemo>>,
    /// Whether a dense BTRAN has run on this factorization.
    btran_seen: bool,
    /// Routes the sparse solves through the heap-ordered reference the
    /// sweeps must match bit for bit.
    #[cfg(test)]
    heap_reference: bool,
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

/// The stages of one dense BTRAN, `c' = Q c`, `Uᵀz = c'`, `Lᵀy' = z`,
/// `y = Pᵀy'`, as the last call left them. Each entry is a pure function
/// of the entries it reads, so a later call recomputes an entry only
/// when one of those changed.
#[derive(Debug, Clone)]
struct BtranMemo {
    /// `c'`: the input in factorization column order.
    input: Vec<f64>,
    /// `z`: the `Uᵀ` solve.
    z: Vec<f64>,
    /// `y'`: the `Lᵀ` solve, in permuted row coordinates.
    w: Vec<f64>,
    /// `y`: the output, in original row coordinates.
    out: Vec<f64>,
    /// Positions still to recompute in the current stage (all `false`
    /// between calls).
    pending: Vec<bool>,
    /// Positions whose `z` changed in the current call.
    moved: Vec<usize>,
}

/// Absolute pivot magnitude below which a column is declared singular.
const PIVOT_TOL: f64 = 1e-10;

/// Threshold-pivoting factor: candidates within this factor of the
/// largest magnitude are eligible for the sparsity tie-break.
const THRESHOLD: f64 = 0.1;

/// Column preorder: sparsest columns first. Simplex bases are mostly
/// slack (singleton) columns; eliminating them first keeps the active
/// submatrix — and therefore fill-in — small.
fn sparsest_first(b: &CscMatrix) -> Vec<usize> {
    let mut q: Vec<usize> = (0..b.ncols).collect();
    q.sort_by_key(|&j| b.col_nnz(j));
    q
}

const NONE: usize = usize::MAX;

/// The left-looking elimination of [`LuFactors::factorize`], one column
/// at a time: `L` and `U` grow by a column per eliminated column of `b`.
/// [`independent_columns`] runs the same elimination over a matrix of
/// any width and passes over the columns it finds dependent.
struct Elimination {
    /// Strict lower factor, original row ids until the caller remaps.
    l: CscMatrix,
    /// Upper factor, permuted row ids.
    u: CscMatrix,
    u_diag: Vec<f64>,
    /// `pinv[row]` = the elimination step that pivoted on `row`.
    pinv: Vec<usize>,
    /// The eliminated columns of `b`, in elimination order.
    q: Vec<usize>,
    /// Row occupancy counts of `b`: the Markowitz-style tie-break
    /// prefers pivots in sparse rows, which keeps U's rows (and the DFS
    /// reach of later columns) short.
    row_count: Vec<usize>,
    /// Dense workspace with stamps for the sparse solve.
    x: Vec<f64>,
    mark: Vec<u64>,
    stamp: u64,
    /// DFS stacks: (node, child cursor), and the postorder.
    node_stack: Vec<(usize, usize)>,
    topo: Vec<usize>,
}

impl Elimination {
    fn new(b: &CscMatrix) -> Elimination {
        let m = b.nrows;
        let mut row_count = vec![0usize; m];
        for &r in &b.rowidx {
            if let Some(count) = row_count.get_mut(r) {
                *count += 1;
            }
        }
        // L and U are appended column by column, each into one CSC
        // triple; `colptr` keeps the room `zeros` gave it and starts
        // over from its first entry.
        let mut l = CscMatrix::zeros(m, m);
        let mut u = CscMatrix::zeros(m, m);
        l.colptr.truncate(1);
        u.colptr.truncate(1);
        Elimination {
            l,
            u,
            u_diag: vec![0.0; m],
            pinv: vec![NONE; m],
            q: Vec::with_capacity(m),
            row_count,
            x: vec![0.0; m],
            mark: vec![0u64; m],
            stamp: 0,
            node_stack: Vec::new(),
            topo: Vec::new(),
        }
    }

    /// Eliminates column `bk` of `b` as the next step. Returns `false`,
    /// with the factors untouched, when no row left unpivoted holds an
    /// entry above [`PIVOT_TOL`]: the column depends on those already
    /// eliminated.
    fn eliminate(&mut self, b: &CscMatrix, bk: usize) -> bool {
        let Elimination {
            l,
            u,
            u_diag,
            pinv,
            q,
            row_count,
            x,
            mark,
            stamp,
            node_stack,
            topo,
        } = self;
        let k = q.len();
        *stamp += 1;
        let stamp = *stamp;
        topo.clear();

        // --- Symbolic: nonzero pattern of x = L \ b[:, bk] via DFS. ---
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
                    let children = &l.rowidx[l.colptr[col]..l.colptr[col + 1]];
                    let mut cur = cursor;
                    while cur < children.len() {
                        let child = children[cur];
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

        // --- Numeric: scatter b[:, bk] then eliminate in topo order. ---
        for i in topo.iter() {
            x[*i] = 0.0;
        }
        for (r, v) in b.col(bk) {
            x[r] = v;
        }
        for &node in topo.iter() {
            let col = pinv[node];
            if col == NONE {
                continue;
            }
            let xj = x[node];
            if xj == 0.0 {
                continue;
            }
            for (r, v) in l.col(col) {
                x[r] -= v * xj;
            }
        }

        // --- Pivot selection: threshold partial pivoting with a
        // Markowitz-style sparsity tie-break — among rows whose
        // magnitude is within a factor of the maximum, prefer the one
        // lying in the sparsest row of B. ---
        let mut best = 0.0f64;
        for &i in topo.iter() {
            if pinv[i] == NONE {
                let t = x[i].abs();
                if t > best {
                    best = t;
                }
            }
        }
        if best <= PIVOT_TOL {
            return false;
        }
        let mut ipiv = NONE;
        let mut best_count = usize::MAX;
        for &i in topo.iter() {
            if pinv[i] == NONE && x[i].abs() >= THRESHOLD * best && row_count[i] < best_count {
                best_count = row_count[i];
                ipiv = i;
            }
        }
        debug_assert!(ipiv != NONE);
        let pivot = x[ipiv];
        pinv[ipiv] = k;
        u_diag[k] = pivot;
        q.push(bk);

        // --- Append U column k (already-pivotal rows) and L column k. ---
        for &i in topo.iter() {
            let v = x[i];
            if v == 0.0 || i == ipiv {
                continue;
            }
            if pinv[i] != NONE && pinv[i] < k {
                u.rowidx.push(pinv[i]);
                u.values.push(v);
            } else if pinv[i] == NONE {
                l.rowidx.push(i);
                l.values.push(v / pivot);
            }
        }
        u.colptr.push(u.rowidx.len());
        l.colptr.push(l.rowidx.len());
        true
    }
}

/// A largest set of linearly independent columns of the `m × k` matrix
/// `b`, for any `k`, and the rows they leave uncovered. The columns are
/// taken sparsest first and eliminated exactly as
/// [`LuFactors::factorize`] eliminates a basis — same preorder, same
/// pivot rule — except that a column with no pivot left is passed over
/// instead of failing the whole matrix. Returns the kept columns in
/// elimination order and, per row, whether a kept column pivoted on it.
/// Appending the unit columns of the uncovered rows to the kept ones
/// gives a nonsingular `m × m` matrix: in pivot order, followed by the
/// uncovered rows, its `L` factor is unit lower triangular.
pub fn independent_columns(b: &CscMatrix) -> (Vec<usize>, Vec<bool>) {
    let mut elim = Elimination::new(b);
    for bk in sparsest_first(b) {
        if elim.q.len() == b.nrows {
            break;
        }
        elim.eliminate(b, bk);
    }
    let covered = elim.pinv.iter().map(|&k| k != NONE).collect();
    (elim.q, covered)
}

impl LuFactors {
    /// Factorizes the `m × m` matrix `b` given in CSC form.
    ///
    /// The order of the entries within each column of `b` is part of the
    /// input: it fixes the DFS order below, hence the elimination order
    /// and the bits of the factors. Every caller in this crate passes
    /// columns sorted by row.
    pub fn factorize(b: &CscMatrix) -> Result<LuFactors, Singular> {
        assert_eq!(b.nrows, b.ncols, "basis must be square");
        let m = b.nrows;
        let mut elim = Elimination::new(b);
        for bk in sparsest_first(b) {
            if !elim.eliminate(b, bk) {
                return Err(Singular { column: bk });
            }
        }
        let Elimination {
            mut l,
            mut u,
            u_diag,
            pinv,
            q,
            ..
        } = elim;

        // Remap L's row indices into permuted coordinates, then order
        // every column of both factors by row.
        for r in l.rowidx.iter_mut() {
            if let Some(&p) = pinv.get(*r) {
                *r = p;
            }
        }
        let mut pairs = Vec::new();
        for f in [&mut l, &mut u] {
            sort_columns_by_row(f, &mut pairs);
            f.rowidx.shrink_to_fit();
            f.values.shrink_to_fit();
        }

        Ok(LuFactors {
            m,
            l,
            u,
            u_diag,
            pinv,
            q,
            tmp: vec![0.0; m],
            aux: None,
            tmp_sp: ScatterVec::new(m),
            btran_memo: None,
            btran_seen: false,
            #[cfg(test)]
            heap_reference: false,
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

    /// Solves `Bᵀ·y = c`. `c` is indexed by basis position and consumed
    /// as scratch; the result (written into `out`) is in original row
    /// coordinates.
    ///
    /// From the second call on a factorization, the solve is memoized:
    /// only the entries of `z = U⁻ᵀc'` and `y' = L⁻ᵀz` whose inputs
    /// changed since the previous call are recomputed (see
    /// `btran_memoized`). The bits are those of the full
    /// solve either way.
    pub fn btran(&mut self, c: &mut [f64], out: &mut [f64]) {
        debug_assert_eq!(c.len(), self.m);
        debug_assert_eq!(out.len(), self.m);
        if self.btran_seen {
            return self.btran_memoized(c, out);
        }
        self.btran_seen = true;
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

    /// The memoized dense BTRAN. The call that creates the memo solves
    /// in full into it. Later calls mark the positions whose permuted
    /// input changed bit-wise; the `Uᵀ` stage then walks ascending from
    /// the lowest mark, recomputing each marked `z_j` with the full
    /// solve's dot product (same terms, same order) and, when its bits
    /// moved, marking the later positions that read it — row `j` of `U`,
    /// `aux.ut.col(j)`. The `Lᵀ` stage walks descending from the highest
    /// moved `z` the same way through `aux.lt`. An entry not recomputed
    /// reads only unchanged entries, so it keeps the value the full
    /// solve gives it.
    fn btran_memoized(&mut self, c: &[f64], out: &mut [f64]) {
        let m = self.m;
        let fresh = self.btran_memo.is_none();
        if !fresh {
            self.ensure_aux();
        }
        let memo = self.btran_memo.get_or_insert_with(|| {
            Box::new(BtranMemo {
                input: vec![0.0; m],
                z: vec![0.0; m],
                w: vec![0.0; m],
                out: vec![0.0; m],
                pending: vec![true; m],
                moved: Vec::new(),
            })
        });
        // A fresh memo has every position pending: nothing to propagate.
        let aux = if fresh { None } else { self.aux.as_ref() };
        let BtranMemo {
            input,
            z,
            w,
            out: memo_out,
            pending,
            moved,
        } = memo.as_mut();
        let mark = |pending: &mut Vec<bool>, r: usize| {
            if let Some(flag) = pending.get_mut(r) {
                *flag = true;
            }
        };
        // c'[k] = c[q[k]], marking the positions that changed.
        let mut lo = if fresh { 0 } else { m };
        for (k, ((slot, &qk), flag)) in input
            .iter_mut()
            .zip(&self.q)
            .zip(pending.iter_mut())
            .enumerate()
        {
            let v = c.get(qk).copied().unwrap_or(0.0);
            if v.to_bits() != slot.to_bits() {
                *slot = v;
                *flag = true;
                lo = lo.min(k);
            }
        }
        // Uᵀ z = c', ascending: z_j reads z_r for r < j (column j of U).
        moved.clear();
        for j in lo..m {
            let Some(flag) = pending.get_mut(j).filter(|f| **f) else {
                continue;
            };
            *flag = false;
            let mut acc = input.get(j).copied().unwrap_or(0.0);
            for (r, val) in self.u.col(j) {
                acc -= val * z.get(r).copied().unwrap_or(0.0);
            }
            let zj = acc / self.u_diag.get(j).copied().unwrap_or(1.0);
            match z.get_mut(j) {
                Some(slot) if slot.to_bits() != zj.to_bits() => *slot = zj,
                _ => continue,
            }
            moved.push(j);
            if let Some(aux) = aux {
                aux.ut.col(j).for_each(|(r, _)| mark(pending, r));
            }
        }
        // Lᵀ y' = z, descending: y'_j reads y'_r for r > j (column j of
        // L) and z_j.
        let hi = if fresh {
            pending.iter_mut().for_each(|f| *f = true);
            m
        } else {
            moved.iter().for_each(|&j| mark(pending, j));
            moved.last().map_or(0, |&j| j + 1)
        };
        for j in (0..hi).rev() {
            let Some(flag) = pending.get_mut(j).filter(|f| **f) else {
                continue;
            };
            *flag = false;
            let mut acc = z.get(j).copied().unwrap_or(0.0);
            for (r, val) in self.l.col(j) {
                acc -= val * w.get(r).copied().unwrap_or(0.0);
            }
            match w.get_mut(j) {
                Some(slot) if slot.to_bits() != acc.to_bits() => *slot = acc,
                _ => continue,
            }
            // y = Pᵀ y': y[rowof[j]] = y'_j.
            if let Some(aux) = aux {
                if let Some(o) = aux.rowof.get(j).and_then(|&i| memo_out.get_mut(i)) {
                    *o = acc;
                }
                aux.lt.col(j).for_each(|(r, _)| mark(pending, r));
            }
        }
        if fresh {
            // y[i] = y'[pinv[i]].
            for (o, &k) in memo_out.iter_mut().zip(&self.pinv) {
                *o = w.get(k).copied().unwrap_or(0.0);
            }
        }
        out.copy_from_slice(memo_out);
    }

    /// Sparse-RHS FTRAN: solves `B·w = v` for `v` given as `(row, value)`
    /// pairs in original row coordinates, writing the (sparse) result
    /// into `out` indexed by basis position.
    ///
    /// Each triangular solve is a `sweep` over the positions between
    /// the lowest and highest one touched, so no `O(m)` pass over the
    /// whole factor is paid when the result stays local. Entering
    /// simplex columns have a handful of nonzeros, making this far
    /// cheaper than the dense [`LuFactors::ftran`] on large bases.
    pub fn ftran_sparse(&mut self, rhs: &[(usize, f64)], out: &mut ScatterVec) {
        debug_assert_eq!(out.len(), self.m);
        #[cfg(test)]
        if self.heap_reference {
            return self.ftran_sparse_heap(rhs, out);
        }
        let t = &mut self.tmp_sp;
        t.clear();
        for &(i, v) in rhs {
            if v != 0.0 {
                t.add(self.pinv[i], v);
            }
        }
        // Forward solve L z = P v, ascending (fill lands at rows > j).
        sweep(t, &self.l, Order::Ascending, |_, x| x);
        // Back solve U x = z, descending (fill lands at rows < j).
        let u_diag = &self.u_diag;
        sweep(t, &self.u, Order::Descending, |j, x| x / u_diag[j]);
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
        #[cfg(test)]
        if self.heap_reference {
            return self.btran_sparse_heap(rhs, out);
        }
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
        let u_diag = &self.u_diag;
        sweep(t, &aux.ut, Order::Ascending, |j, x| x / u_diag[j]);
        // Solve Lᵀ y' = z, descending: Lᵀ is unit upper triangular and
        // lt.col(j) holds row j of L (the entries L[j, r], r < j).
        sweep(t, &aux.lt, Order::Descending, |_, x| x);
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

/// Orders the entries of every column of `f` by row, in place. No
/// column holds a row twice, so this is the one order every sort gives,
/// the order `CscMatrix::from_columns` gives. `pairs` is a reused
/// workspace.
fn sort_columns_by_row(f: &mut CscMatrix, pairs: &mut Vec<(usize, f64)>) {
    let (mut rows, mut vals) = (f.rowidx.as_mut_slice(), f.values.as_mut_slice());
    for w in f.colptr.windows(2) {
        let &[lo, hi] = w else { continue };
        let (col_rows, rest) = std::mem::take(&mut rows).split_at_mut(hi - lo);
        rows = rest;
        let (col_vals, rest) = std::mem::take(&mut vals).split_at_mut(hi - lo);
        vals = rest;
        if !col_rows.is_sorted() {
            pairs.clear();
            pairs.extend(col_rows.iter().copied().zip(col_vals.iter().copied()));
            pairs.sort_unstable_by_key(|&(r, _)| r);
            for ((r, v), &(pr, pv)) in col_rows
                .iter_mut()
                .zip(col_vals.iter_mut())
                .zip(pairs.iter())
            {
                *r = pr;
                *v = pv;
            }
        }
        debug_assert!(
            col_rows.is_sorted_by(|a, b| a < b),
            "a column holds a row twice"
        );
    }
}

/// Direction of a [`sweep`].
#[derive(Clone, Copy)]
enum Order {
    /// Lowest touched position first; fill lands above the position
    /// being eliminated (`L`, `Uᵀ`).
    Ascending,
    /// Highest touched position first; fill lands below (`U`, `Lᵀ`).
    Descending,
}

/// One sparse triangular solve in place on `t`: every touched position
/// `j` with a nonzero value, in `order`, becomes `x_j = divide(j, t_j)`
/// (by the diagonal entry, or by nothing for a unit diagonal)
/// and subtracts `x_j · cols.col(j)` from the positions it reaches.
///
/// The sweep walks the positions between the lowest and the highest one
/// touched so far (the far end moves as fill lands beyond it) and skips
/// untouched and zero entries. Triangularity puts all fill ahead of the
/// sweep, so each position is final when reached and is visited once:
/// the same positions, in the same order, with the same additions as a
/// heap popping the touched positions one by one — and fill joins `t`'s
/// pattern in the same first-touch order, which the eta file and every
/// later solve inherit. Only the ordering cost differs: one pass over
/// the touched range instead of a `log` per touched entry, which is the
/// cheaper of the two once results stop being hypersparse (Hall and
/// McKinnon, "Hyper-sparsity in the revised simplex method", 2005).
fn sweep(t: &mut ScatterVec, cols: &CscMatrix, order: Order, divide: impl Fn(usize, f64) -> f64) {
    let Some(&first) = t.pattern().first() else {
        return;
    };
    let (mut lo, mut hi) = t
        .pattern()
        .iter()
        .fold((first, first), |(lo, hi), &k| (lo.min(k), hi.max(k)));
    let mut eliminate = |j: usize, lo: &mut usize, hi: &mut usize| {
        // Untouched positions read as zero.
        let tj = t.get(j);
        if tj == 0.0 {
            return;
        }
        let xj = divide(j, tj);
        t.set(j, xj);
        for (r, val) in cols.col(j) {
            t.add(r, -val * xj);
            *lo = (*lo).min(r);
            *hi = (*hi).max(r);
        }
    };
    match order {
        Order::Ascending => {
            let mut j = lo;
            while j <= hi {
                eliminate(j, &mut lo, &mut hi);
                j += 1;
            }
        }
        Order::Descending => {
            let mut j = hi + 1;
            while j > lo {
                j -= 1;
                eliminate(j, &mut lo, &mut hi);
            }
        }
    }
}

/// The kernels the fast ones replaced, kept as their bit-identity
/// oracles: the per-column factorization, and the heap-ordered sparse
/// solves, where a min-heap (`L`, `Uᵀ`) or max-heap (`U`, `Lᵀ`) pops
/// each touched position once, in elimination order.
#[cfg(test)]
impl LuFactors {
    /// The per-column factorization the flat one replaced, kept as its
    /// bit-identity oracle: each column of `L` and `U` grows in its own
    /// `Vec`, and `CscMatrix::from_columns` packs them at the end.
    pub(crate) fn factorize_per_column(b: &CscMatrix) -> Result<LuFactors, Singular> {
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
                return Err(Singular { column: bk });
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
            btran_memo: None,
            btran_seen: false,
            heap_reference: false,
        })
    }

    /// Makes the sparse solves of this factorization run the heap
    /// reference, so a [`crate::basis::Basis`] over it can be compared
    /// with one over the sweeps.
    pub(crate) fn use_heap_reference(&mut self) {
        self.heap_reference = true;
    }

    /// Makes the next dense BTRAN a full solve, as on a fresh
    /// factorization: the reference the memoized solves must match.
    pub(crate) fn forget_btran_memo(&mut self) {
        self.btran_memo = None;
        self.btran_seen = false;
    }

    fn ftran_sparse_heap(&mut self, rhs: &[(usize, f64)], out: &mut ScatterVec) {
        let t = &mut self.tmp_sp;
        t.clear();
        for &(i, v) in rhs {
            if v != 0.0 {
                t.add(self.pinv[i], v);
            }
        }
        heap_solve(t, &self.l, Order::Ascending, |_, x| x);
        let u_diag = &self.u_diag;
        heap_solve(t, &self.u, Order::Descending, |j, x| x / u_diag[j]);
        out.clear();
        for &k in t.pattern() {
            let v = t.get(k);
            if v != 0.0 {
                out.set(self.q[k], v);
            }
        }
    }

    fn btran_sparse_heap(&mut self, rhs: &[(usize, f64)], out: &mut ScatterVec) {
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
        let u_diag = &self.u_diag;
        heap_solve(t, &aux.ut, Order::Ascending, |j, x| x / u_diag[j]);
        heap_solve(t, &aux.lt, Order::Descending, |_, x| x);
        out.clear();
        for &k in t.pattern() {
            let v = t.get(k);
            if v != 0.0 {
                out.set(aux.rowof[k], v);
            }
        }
    }
}

/// [`sweep`]'s reference: the touched positions ordered by a heap.
#[cfg(test)]
fn heap_solve(
    t: &mut ScatterVec,
    cols: &CscMatrix,
    order: Order,
    divide: impl Fn(usize, f64) -> f64,
) {
    use std::collections::BinaryHeap;
    // Keys are ordered so that the heap's maximum is the next position
    // to eliminate.
    let key = |j: usize| match order {
        Order::Ascending => usize::MAX - j,
        Order::Descending => j,
    };
    let mut heap: BinaryHeap<usize> = t.pattern().iter().map(|&k| key(k)).collect();
    while let Some(top) = heap.pop() {
        while heap.peek() == Some(&top) {
            heap.pop();
        }
        let j = key(top);
        let tj = t.get(j);
        if tj == 0.0 {
            continue;
        }
        let xj = divide(j, tj);
        t.set(j, xj);
        for (r, val) in cols.col(j) {
            let fresh = !t.contains(r);
            t.add(r, -val * xj);
            if fresh {
                heap.push(key(r));
            }
        }
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
        // The empty column 1 is eliminated first (sparsest-first
        // preorder); the error still names it by its position.
        assert_eq!(
            LuFactors::factorize(&b).unwrap_err(),
            Singular { column: 1 }
        );
    }

    #[test]
    fn singular_column_is_the_basis_position() {
        // Column 2 = 2 · column 1. The preorder eliminates the two
        // singletons first (1 at step 0, 2 at step 1) and the dense
        // column 0 last, so the step that finds no pivot, 1, is not the
        // position of the dependent column, 2.
        let a: &[&[f64]] = &[&[1.0, 1.0, 2.0], &[1.0, 0.0, 0.0], &[1.0, 0.0, 0.0]];
        let b = dense_to_csc(a);
        assert_eq!(
            LuFactors::factorize(&b).unwrap_err(),
            Singular { column: 2 }
        );
    }

    /// The sweeps against the heap-ordered reference on one RHS, used
    /// as an FTRAN and as a BTRAN right-hand side: every value equal to
    /// the bit, and the result and workspace patterns in the same order.
    fn assert_sweeps_match_heap(lu: &LuFactors, rhs: &[(usize, f64)]) {
        let m = lu.dim();
        let mut sweep = lu.clone();
        let mut heap = lu.clone();
        heap.use_heap_reference();
        let bits = |v: &ScatterVec| {
            v.pattern()
                .iter()
                .map(|&i| (i, v.get(i).to_bits()))
                .collect::<Vec<_>>()
        };
        let (mut a, mut b) = (ScatterVec::new(m), ScatterVec::new(m));
        sweep.ftran_sparse(rhs, &mut a);
        heap.ftran_sparse(rhs, &mut b);
        assert_eq!(bits(&a), bits(&b), "ftran_sparse, rhs {rhs:?}");
        assert_eq!(bits(&sweep.tmp_sp), bits(&heap.tmp_sp), "ftran fill order");
        sweep.btran_sparse(rhs, &mut a);
        heap.btran_sparse(rhs, &mut b);
        assert_eq!(bits(&a), bits(&b), "btran_sparse, rhs {rhs:?}");
        assert_eq!(bits(&sweep.tmp_sp), bits(&heap.tmp_sp), "btran fill order");
    }

    fn check_sparse_matches_dense(a: &[&[f64]], rhs: &[(usize, f64)]) {
        let m = a.len();
        let b = dense_to_csc(a);
        let mut lu = LuFactors::factorize(&b).expect("nonsingular");
        assert_sweeps_match_heap(&lu, rhs);
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
        // Sparse bases up to a few hundred rows with fill in both
        // factors, each solved for right-hand sides from one entry to
        // dense: the sweeps must reproduce the heap order exactly.
        for (trial, m) in [12usize, 40, 97, 180, 320].into_iter().enumerate() {
            let cols: Vec<Vec<(usize, f64)>> = (0..m)
                .map(|j| {
                    // Column-diagonally dominant, hence nonsingular.
                    let mut col = vec![(j, 5.0 + next().abs())];
                    for _ in 0..1 + trial % 3 {
                        let r = (next().abs() * m as f64) as usize % m;
                        if r != j {
                            col.push((r, next()));
                        }
                    }
                    col
                })
                .collect();
            let lu = LuFactors::factorize(&CscMatrix::from_columns(m, &cols)).expect("nonsingular");
            for nnz in [1, 2, m / 8, m / 2, m] {
                let rhs: Vec<(usize, f64)> = (0..nnz)
                    .map(|_| ((next().abs() * m as f64) as usize % m, next() * 3.0))
                    .collect();
                assert_sweeps_match_heap(&lu, &rhs);
            }
            let dense: Vec<(usize, f64)> = (0..m).map(|i| (i, next())).collect();
            assert_sweeps_match_heap(&lu, &dense);
        }
    }

    /// Random column-diagonally dominant (hence nonsingular) sparse
    /// bases with fill in both factors, as in
    /// `sparse_solves_random_matrices`.
    fn random_sparse_basis(m: usize, extra: usize, next: &mut impl FnMut() -> f64) -> CscMatrix {
        let cols: Vec<Vec<(usize, f64)>> = (0..m)
            .map(|j| {
                let mut col = vec![(j, 5.0 + next().abs())];
                for _ in 0..extra {
                    let r = (next().abs() * m as f64) as usize % m;
                    if r != j {
                        col.push((r, next()));
                    }
                }
                col
            })
            .collect();
        CscMatrix::from_columns(m, &cols)
    }

    /// The flat factorization against the per-column reference on one
    /// input: the same `L` and `U` patterns in the same order with the
    /// same bits, the same `u_diag`, `pinv` and `q`, or the same
    /// `Singular` column. Returns whether `b` factorized.
    fn assert_flat_matches_per_column(b: &CscMatrix) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        match (LuFactors::factorize(b), LuFactors::factorize_per_column(b)) {
            (Ok(got), Ok(want)) => {
                for (name, g, w) in [("L", &got.l, &want.l), ("U", &got.u, &want.u)] {
                    assert_eq!((g.nrows, g.ncols), (w.nrows, w.ncols), "{name} shape");
                    assert_eq!(g.colptr, w.colptr, "{name} column pointers");
                    assert_eq!(g.rowidx, w.rowidx, "{name} row order");
                    assert_eq!(bits(&g.values), bits(&w.values), "{name} values");
                }
                assert_eq!(bits(&got.u_diag), bits(&want.u_diag), "u_diag");
                assert_eq!(got.pinv, want.pinv, "pinv");
                assert_eq!(got.q, want.q, "q");
                true
            }
            (Err(got), Err(want)) => {
                assert_eq!(got, want, "singular column");
                false
            }
            (got, want) => panic!(
                "flat {:?} vs per-column {:?}",
                got.map(|_| ()),
                want.map(|_| ())
            ),
        }
    }

    /// A CSC matrix from columns given as they are: unsorted rows and
    /// stored zeros kept, which `CscMatrix::from_columns` would not.
    fn csc_as_given(m: usize, cols: &[Vec<(usize, f64)>]) -> CscMatrix {
        let mut b = CscMatrix::zeros(m, m);
        b.colptr.truncate(1);
        for col in cols {
            for &(r, v) in col {
                b.rowidx.push(r);
                b.values.push(v);
            }
            b.colptr.push(b.rowidx.len());
        }
        b
    }

    /// Random columns of a basis with fill in both factors: every third
    /// one a unit slack, the others a diagonal entry scaled by `diag`
    /// (small values leave the pivot to the threshold rule) and up to
    /// `extra` off-diagonal entries, about one in ten an explicitly
    /// stored zero, in shuffled row order.
    fn random_basis_columns(
        m: usize,
        extra: usize,
        diag: f64,
        next: &mut impl FnMut() -> f64,
    ) -> Vec<Vec<(usize, f64)>> {
        let pick = |n: usize, next: &mut dyn FnMut() -> f64| (next().abs() * n as f64) as usize % n;
        (0..m)
            .map(|j| {
                let mut col = vec![(j, diag * (1.0 + next().abs()))];
                if j % 3 != 0 {
                    for _ in 0..extra {
                        let r = pick(m, next);
                        if col.iter().all(|&(s, _)| s != r) {
                            let v = next();
                            col.push((r, if v.abs() < 0.1 { 0.0 } else { v }));
                        }
                    }
                }
                for i in (1..col.len()).rev() {
                    col.swap(i, pick(i + 1, next));
                }
                col
            })
            .collect()
    }

    #[test]
    fn flat_factorization_matches_the_per_column_reference_bitwise() {
        let mut state = 0x5eed_f1a7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let (mut factorized, mut singular) = (0, 0);
        let mut tally = |ok: bool| {
            if ok {
                factorized += 1;
            } else {
                singular += 1;
            }
        };
        for m in [1usize, 2, 5, 12, 40, 97, 180, 320] {
            // Sorted, duplicate-free columns: what the simplex passes.
            for extra in [1, 2, 3] {
                tally(assert_flat_matches_per_column(&random_sparse_basis(
                    m, extra, &mut next,
                )));
            }
            for extra in [1, 3, 5] {
                for diag in [5.0, 0.05] {
                    let mut cols = random_basis_columns(m, extra, diag, &mut next);
                    tally(assert_flat_matches_per_column(&csc_as_given(m, &cols)));
                    if m < 2 {
                        continue;
                    }
                    // Singular variants: a column made a multiple of
                    // another, then one holding only a stored zero.
                    let (a, c) = (m / 3, m - 1);
                    cols[c] = cols[a].iter().map(|&(r, v)| (r, -2.0 * v)).collect();
                    tally(assert_flat_matches_per_column(&csc_as_given(m, &cols)));
                    cols[a] = vec![(a, 0.0)];
                    tally(assert_flat_matches_per_column(&csc_as_given(m, &cols)));
                }
            }
        }
        assert!(
            factorized >= 40 && singular >= 40,
            "{factorized} factorized, {singular} singular"
        );
    }

    /// The same oracle on a basis of L-Net's size and shape (m = 8 000,
    /// 37 % unit columns, ≈ 26 000 nonzeros, near-triangular columns).
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "L-Net-sized: runs in release (--include-ignored)"
    )]
    fn flat_factorization_matches_the_reference_at_l_net_size() {
        let mut state = 0x1e7_d21f7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let m = 8_000;
        // A fixed row relabelling, so that near-triangular is not
        // already in elimination order.
        let row = |i: usize| i * 7_919 % m;
        let cols: Vec<Vec<(usize, f64)>> = (0..m)
            .map(|j| {
                if next().abs() < 0.37 {
                    return vec![(row(j), if next() < 0.0 { -1.0 } else { 1.0 })];
                }
                let mut col = vec![(row(j), 0.5 + next().abs())];
                for _ in 0..3 + j % 2 {
                    let step = 1 + (next().abs() * 30.0) as usize;
                    let i = if next().abs() < 0.02 {
                        j + m - step
                    } else {
                        j + step
                    } % m;
                    if col.iter().all(|&(s, _)| s != row(i)) {
                        col.push((row(i), next()));
                    }
                }
                col.sort_unstable_by_key(|&(r, _)| r);
                col
            })
            .collect();
        let b = CscMatrix::from_columns(m, &cols);
        assert!((24_000..28_000).contains(&b.nnz()), "nnz(B) = {}", b.nnz());
        assert!(assert_flat_matches_per_column(&b), "nonsingular");
    }

    #[test]
    fn memoized_btran_matches_a_full_solve_bitwise() {
        let mut state = 0xb7a2_0c11u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (trial, m) in [12usize, 40, 97, 180, 320].into_iter().enumerate() {
            let mut lu = LuFactors::factorize(&random_sparse_basis(m, 1 + trial % 3, &mut next))
                .expect("nonsingular");
            let mut c: Vec<f64> = (0..m).map(|_| next()).collect();
            // Right-hand sides changing in no, one, a few and all
            // positions, signed zeros among the new values.
            for step in 0..16 {
                let changes = [0, 1, 1 + m / 20, m][step % 4];
                for k in 0..changes {
                    let i = if changes == m {
                        k
                    } else {
                        (next().abs() * m as f64) as usize % m
                    };
                    let v = next();
                    c[i] = if v > 0.7 {
                        -0.0
                    } else if v < -0.7 {
                        0.0
                    } else {
                        v * 3.0
                    };
                }
                let mut full = lu.clone();
                full.forget_btran_memo();
                let (mut scratch, mut want) = (c.clone(), vec![0.0; m]);
                full.btran(&mut scratch, &mut want);
                let (mut scratch, mut got) = (c.clone(), vec![7.0; m]);
                lu.btran(&mut scratch, &mut got);
                assert_eq!(bits(&got), bits(&want), "m {m}, step {step}");
            }
            assert!(lu.btran_memo.is_some(), "memo kept from the second call on");
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
