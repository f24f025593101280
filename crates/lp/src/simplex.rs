//! Bounded-variable two-phase revised simplex.
//!
//! The engine operates on the standard form produced by
//! [`crate::standard::StdForm`]: `min cᵀx, A·x = b, l ≤ x ≤ u`, where the
//! columns are structural variables followed by one slack per row.
//!
//! * **Start basis**: cold, a triangular crash then slacks. Rows whose
//!   slack value would violate the slack's bounds receive an
//!   *artificial* column (`±eᵢ`, bounds `[0, ∞)`); phase 1 minimizes the
//!   sum of artificials. Warm, the hint's basis, from which the dual
//!   simplex runs with no phase 1 (see `solve`).
//! * **Pricing**: devex over every column ([`crate::pricing`]),
//!   switching to Bland's rule after `DEGEN_SWITCH` (2 000) consecutive
//!   degenerate pivots to guarantee termination. The reduced costs the
//!   scan reads are kept across a phase's iterations and refreshed only
//!   for columns with an entry in a row whose dual moved.
//! * **Pivot row**: `α = ρᵀA` for the devex update and the dual ratio
//!   test, accumulated over `ρ`'s rows when `ρ` is hypersparse and over
//!   the columns otherwise (`PivotRow`).
//! * **Ratio test**: bounded-variable, including bound flips of the
//!   entering variable (no basis change).
//! * **Factorization**: sparse LU ([`crate::lu`]) with product-form eta
//!   updates ([`crate::basis`]), refactorizing periodically and
//!   recomputing basic values from scratch to contain drift. The
//!   per-iteration solves (entering column FTRAN, devex pivot-row BTRAN)
//!   use the sparse-RHS paths; only the per-refactorization value
//!   recomputation and the cost-vector BTRAN stay dense.
//! * **Held factorization**: a solve that ends with no pivot since its
//!   last factorization hands `LU(B)` back as a `HeldLu`; a later
//!   solve of the same standing form whose start basis is exactly that
//!   column list skips the factorization (see `solve`).

// audit:allow-file(float-eq): exact-zero comparisons here are
// structural sparsity guards (skip entries that are identically zero),
// not approximate value checks.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use crate::basis::Basis;
use crate::lu::{LuFactors, Singular};
use crate::model::{BasisStatuses, ColStatus, LimitKind, LpError, Solution, SolveStats};
use crate::pricing::Pricer;
use crate::sparse::{CscMatrix, ScatterVec};
use crate::standard::StdForm;

#[cfg(test)]
thread_local! {
    /// Bases this thread factorized afresh, start and refactorization
    /// alike (a held factorization taken instead does not count): how
    /// the tests see that a singular hint is factorized once.
    static FRESH_FACTORIZATIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Set by the tests' two-pass oracle: the primal pass prices every
    /// column afresh and the bound restoration re-accumulates its
    /// right-hand side, as they did before either was kept.
    static TWO_PASS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Primal passes that took the reduced costs `dual_feasibilize`
    /// kept, and bound restorations that solved the kept right-hand
    /// side: how the tests see that the kept path ran.
    static KEPT_PRICES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    static KEPT_RHS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Whether a solve keeps what it computed once for a second use: the
/// true-cost reduced costs of the dual start and the true-bound
/// right-hand side of the hint load. Always, but under the tests'
/// two-pass oracle.
#[inline]
fn keeps_passes() -> bool {
    #[cfg(test)]
    let keeps = !TWO_PASS.with(std::cell::Cell::get);
    #[cfg(not(test))]
    let keeps = true;
    keeps
}

/// Counts one use of a kept pass (tests only).
#[inline]
#[allow(unused_variables)]
fn note_kept(rhs: bool) {
    #[cfg(test)]
    {
        let counter = if rhs { &KEPT_RHS } else { &KEPT_PRICES };
        counter.with(|c| c.set(c.get() + 1));
    }
}

/// Tunable parameters for the simplex engine.
#[derive(Debug, Clone, Default)]
pub struct SimplexOptions {
    /// Hard cap on total simplex iterations (both phases). `0` means
    /// "choose automatically from the problem size". Overruns surface
    /// as the recoverable [`LpError::LimitExceeded`].
    pub max_iters: usize,
    /// Fault-injection hook: report a singular basis refactorization
    /// once the solve reaches iteration N (`0` disables). Exists so the
    /// chaos harness can exercise the `NumericalFailure` recovery paths
    /// on demand; never set in production configs.
    pub inject_singular_after: usize,
    /// Fault-injection hook: **panic** once the solve reaches iteration
    /// N (`0` disables). Unlike the singular injection — a recoverable
    /// error the retry ladders absorb — a panic escapes the solver
    /// entirely, so batch drivers must contain it with their
    /// `catch_unwind` worker isolation. Chaos-harness only; never set
    /// in production configs.
    pub inject_panic_after: usize,
}

/// Primal feasibility tolerance.
pub const FEAS_TOL: f64 = 1e-7;

/// Dual (reduced-cost) optimality tolerance.
pub(crate) const OPT_TOL: f64 = 1e-7;

/// Minimum magnitude for a ratio-test pivot element.
pub(crate) const PIVOT_TOL: f64 = 1e-8;

/// Consecutive degenerate pivots before switching to Bland's rule.
pub(crate) const DEGEN_SWITCH: usize = 2000;

/// Consecutive degenerate pivots on the *real* objective (phase 2 or the
/// dual loop — never phase 1) before a one-shot mid-solve bound
/// expansion breaks the plateau. A Harris-style bounded escalation:
/// fires at most once per solve, at a magnitude far below the
/// feasibility tolerance, and the post-solve restoration snaps
/// everything back onto the true bounds. Well below [`DEGEN_SWITCH`], so
/// the cheap geometric fix gets a chance before the slow anti-cycling
/// rule.
const DEGEN_EXPAND: usize = 256;

/// `LU(B)` of one basis matrix `B`, kept between solves of one standing
/// form: the factorization together with `B`'s column list, in basis
/// position order, and a sorted copy of it to look columns up in.
/// `LU(B)` is a pure function of that list (and of the columns'
/// coefficients), so a later start basis with exactly the same list may
/// take it instead of factorizing — the result is the one a fresh
/// factorization would give, bit for bit. The owner must drop it when a
/// coefficient of one of its columns changes.
#[derive(Debug)]
pub(crate) struct HeldLu {
    columns: Vec<usize>,
    sorted: Vec<usize>,
    lu: LuFactors,
}

impl HeldLu {
    fn new(columns: Vec<usize>, lu: LuFactors) -> HeldLu {
        let mut sorted = columns.clone();
        sorted.sort_unstable();
        HeldLu {
            columns,
            sorted,
            lu,
        }
    }

    /// Whether column `j` of the standard form is one of `B`'s.
    pub(crate) fn uses_column(&self, j: usize) -> bool {
        self.sorted.binary_search(&j).is_ok()
    }
}

/// Status of a column in the current basis partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VStat {
    /// Basic at the given basis position.
    Basic(usize),
    /// Nonbasic at its lower bound.
    AtLower,
    /// Nonbasic at its upper bound.
    AtUpper,
    /// Nonbasic free variable, resting at zero.
    FreeZero,
}

/// Internal solver state over an extended column set
/// (structural + slack + artificial columns).
struct Engine<'a> {
    std: &'a StdForm,
    opts: SimplexOptions,
    /// Artificial columns: `(row, sign)`; column index = `std.n + k`.
    arts: Vec<(usize, f64)>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    stat: Vec<VStat>,
    /// Basis position -> column index.
    basis: Vec<usize>,
    /// Value of every column (basic and nonbasic).
    xval: Vec<f64>,
    factors: Option<Basis>,
    /// A factorization handed in by the caller, until the first
    /// factorization of the solve either takes it (same column list) or
    /// drops it.
    held: Option<HeldLu>,
    iterations: usize,
    /// Whether Bland's anti-cycling rule is currently active.
    bland: bool,
    degen_run: usize,
    /// The plateau expansion's trigger: [`DEGEN_EXPAND`], or `0` (never)
    /// on the retry ladder's exact rung.
    expand_after: usize,
    /// Whether the working bounds currently differ from `std`'s (from a
    /// construction-time perturbation, a mid-solve plateau expansion, or
    /// both) — gates the post-solve restoration.
    expanded: bool,
    /// Whether the one-shot mid-solve plateau expansion already fired.
    mid_expanded: bool,
    /// Whether the current optimization loop runs the real objective
    /// (phase 2 / dual) — the only place the plateau expansion may
    /// trigger; phase 1's artificial objective must stay exact.
    expand_armed: bool,
    /// Pricing state: the devex reference weights.
    pricer: Pricer,
    /// Performance counters reported on the solution.
    stats: SolveStats,
    /// Solve start, used to stamp `solve_time` on budget overruns.
    start: Instant,
    // Scratch buffers.
    w: Vec<f64>,
    y: Vec<f64>,
    rhs: Vec<f64>,
    cb: Vec<f64>,
    /// FTRAN'd entering column `B⁻¹A_q` (sparse).
    w_sp: ScatterVec,
    /// Devex pivot row `ρ = B⁻ᵀe_pos` (sparse).
    rho_sp: ScatterVec,
    /// `α = ρᵀA` over the columns the current loop wants.
    prow: PivotRow,
    /// Primal pricing: `d_j = c_j − A_jᵀy` of every nonbasic structural
    /// and slack column, for `y = y_priced` (see [`Self::price_columns`]).
    d: Vec<f64>,
    y_priced: Vec<f64>,
    /// Rows whose dual changed bit-wise since the last pricing.
    changed_rows: Vec<usize>,
    /// Columns to reprice on the next pass, and their membership flags.
    reprice: Vec<usize>,
    repricing: Vec<bool>,
    /// The [`Self::progress`] at which [`Self::dual_feasibilize`] left
    /// `y`, `d` and `y_priced` priced on the true costs: the next primal
    /// pass takes them as its first BTRAN and pricing if nothing has
    /// moved since.
    primed_at: Option<[usize; 3]>,
    /// `b − A_N x_N` at the true bounds, accumulated by the hint load
    /// beside the expanded right-hand side, and the [`Self::progress`]
    /// it was taken at: [`Self::restore_perturbed_bounds`] solves it
    /// instead of accumulating its own while that has not moved.
    true_rhs: Vec<f64>,
    true_rhs_at: Option<[usize; 3]>,
    /// Pricings that refreshed only the columns of changed rows.
    #[cfg(test)]
    partial_pricings: usize,
    /// Gathered entries of the entering column.
    col_buf: Vec<(usize, f64)>,
}

/// The pivot row `α_j = ρᵀA_j` over the extended columns (structural,
/// slack, artificial): [`PivotRow::load`] prepares it for one `ρ`, and
/// [`PivotRow::entries`] lists `(j, α_j)` for every column a caller
/// keeps with `α_j ≠ 0`, in no particular order.
///
/// Two ways to the same bits. While `ρ` has at most `m/10` nonzeros
/// (Hall and McKinnon's hypersparsity switch) the row is accumulated
/// over `ρ`'s rows, ascending, through the standard form's row index:
/// each `α_j` then adds the products `a_rj·ρ_r` in the order the column
/// lists them, skipping only the rows where `ρ_r = 0`, whose products
/// are `±0` and leave a nonzero sum as it is (a zero sum, whatever its
/// sign, is dropped either way). Otherwise each kept column is dotted
/// with `ρ` in full as it is listed.
#[derive(Debug, Default)]
struct PivotRow {
    /// Whether the loaded row was accumulated over `ρ`'s rows.
    row_wise: bool,
    /// Row-wise sums over the extended columns (allocated on the first
    /// row-wise load).
    acc: Option<ScatterVec>,
    /// `ρ`'s pattern, ascending.
    rows: Vec<usize>,
}

impl PivotRow {
    /// Prepares the row for `rho`, accumulating it when `rho` is
    /// hypersparse.
    fn load(&mut self, std: &StdForm, arts: &[(usize, f64)], rho: &ScatterVec) {
        self.row_wise = rho.pattern().len() <= std.m / 10;
        if !self.row_wise {
            return;
        }
        let ncols = std.n + arts.len();
        let acc = match &mut self.acc {
            Some(acc) if acc.len() >= ncols => acc,
            slot => slot.insert(ScatterVec::new(ncols)),
        };
        acc.clear();
        self.rows.clear();
        self.rows.extend_from_slice(rho.pattern());
        self.rows.sort_unstable();
        for &r in &self.rows {
            let x = rho.get(r);
            for j in std.rows.row(r) {
                acc.add(j, std.a.value_at(r, j).unwrap_or(0.0) * x);
            }
        }
        for (j, &(r, sign)) in (std.n..).zip(arts) {
            if rho.contains(r) {
                acc.add(j, sign * rho.get(r));
            }
        }
    }

    /// `(j, α_j)` of the loaded row for every column `keep` accepts with
    /// `α_j ≠ 0`: read off the row-wise sums, or computed column by
    /// column. `std`, `arts` and `rho` must be the ones loaded.
    fn entries<'s>(
        &'s self,
        std: &'s StdForm,
        arts: &'s [(usize, f64)],
        rho: &'s ScatterVec,
        keep: impl Fn(usize) -> bool + 's,
    ) -> impl Iterator<Item = (usize, f64)> + 's {
        let acc = self.acc.as_ref().filter(|_| self.row_wise);
        let none: &[usize] = &[];
        let (touched, every) = match acc {
            Some(acc) => (acc.pattern(), 0..0),
            None => (none, 0..std.n + arts.len()),
        };
        let alpha = move |j: usize| match (acc, j.checked_sub(std.n)) {
            (Some(acc), _) => acc.get(j),
            (None, None) => dot_sparse(std.a.col(j), rho),
            (None, Some(k)) => dot_sparse(arts.get(k).copied().into_iter(), rho),
        };
        touched
            .iter()
            .copied()
            .chain(every)
            .filter(move |&j| keep(j))
            .map(move |j| (j, alpha(j)))
            .filter(|&(_, a)| a != 0.0)
    }
}

/// `Σ v·x_r` over a column's `(r, v)` entries, in their order, from `+0`.
#[inline]
fn dot_sparse(col: impl Iterator<Item = (usize, f64)>, x: &ScatterVec) -> f64 {
    col.fold(0.0, |acc, (r, v)| acc + v * x.get(r))
}

/// Applies `f(row, value)` over sparse column `j` of the extended column
/// set (structural/slack columns of `a`, then artificial columns).
#[inline]
fn col_apply(
    a: &CscMatrix,
    arts: &[(usize, f64)],
    n: usize,
    j: usize,
    mut f: impl FnMut(usize, f64),
) {
    if j < n {
        for (r, v) in a.col(j) {
            f(r, v);
        }
    } else {
        let (r, s) = arts[j - n];
        f(r, s);
    }
}

/// A dual ratio-test candidate: a nonbasic column `j`, its pivot-row
/// entry `alpha` and its dual ratio. Ordered so that the max-heap
/// [`BinaryHeap`] pops the smallest ratio first (by `total_cmp`, so
/// `-0.0` before `+0.0`), the lower column among equal ratios: a strict
/// total order over distinct columns.
#[derive(Debug, Clone, Copy)]
struct RatioCand {
    j: usize,
    alpha: f64,
    ratio: f64,
}

impl Ord for RatioCand {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .ratio
            .total_cmp(&self.ratio)
            .then(other.j.cmp(&self.j))
    }
}

impl PartialOrd for RatioCand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for RatioCand {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for RatioCand {}

/// The bound-flipping walk of the dual ratio test: visits `cands` in
/// ascending (ratio, column) order, asks `flip` of each but the last,
/// and stops at the first it refuses. `walked` receives the visited
/// prefix, the flipped candidates followed by the entering one.
///
/// The candidates come off a binary heap, heapified in O(k) and popped
/// in O(log k) each: the walk reads one or two of them on average, so
/// ordering only the visited prefix beats sorting all k. The order is
/// strict, so that prefix is the sorted list's. `cands` is left empty
/// with its allocation.
fn ratio_walk(
    cands: &mut Vec<RatioCand>,
    walked: &mut Vec<RatioCand>,
    mut flip: impl FnMut(&RatioCand) -> bool,
) {
    let mut heap = BinaryHeap::from(std::mem::take(cands));
    walked.clear();
    while let Some(c) = heap.pop() {
        walked.push(c);
        if heap.is_empty() || !flip(&c) {
            break;
        }
    }
    *cands = heap.into_vec();
    cands.clear();
}

/// Outcome of one phase.
enum PhaseEnd {
    Optimal,
    Unbounded,
}

/// Outcome of the dual simplex loop.
enum DualEnd {
    /// Every basic variable is within bounds: the basis is primal
    /// feasible while still dual feasible, i.e. optimal (up to the
    /// primal cleanup pass certifying it).
    Feasible,
    /// Some violated row admits no entering column: the dual is
    /// unbounded, so the primal LP is infeasible.
    Infeasible,
}

impl<'a> Engine<'a> {
    fn new(std: &'a StdForm, opts: &SimplexOptions) -> Self {
        let mut opts = opts.clone();
        if opts.max_iters == 0 {
            opts.max_iters = 20_000 + 40 * (std.m + std.n);
        }
        let m = std.m;
        let start = Instant::now();
        Engine {
            std,
            opts,
            start,
            arts: Vec::new(),
            lb: std.lb.clone(),
            ub: std.ub.clone(),
            stat: Vec::with_capacity(std.n),
            basis: Vec::with_capacity(m),
            xval: Vec::with_capacity(std.n),
            factors: None,
            held: None,
            iterations: 0,
            bland: false,
            degen_run: 0,
            expand_after: DEGEN_EXPAND,
            expanded: false,
            mid_expanded: false,
            expand_armed: false,
            pricer: Pricer::default(),
            stats: SolveStats::default(),
            w: vec![0.0; m],
            y: vec![0.0; m],
            rhs: vec![0.0; m],
            cb: vec![0.0; m],
            w_sp: ScatterVec::new(m),
            rho_sp: ScatterVec::new(m),
            prow: PivotRow::default(),
            d: Vec::new(),
            y_priced: Vec::new(),
            changed_rows: Vec::new(),
            reprice: Vec::new(),
            repricing: Vec::new(),
            primed_at: None,
            true_rhs: Vec::new(),
            true_rhs_at: None,
            #[cfg(test)]
            partial_pricings: 0,
            col_buf: Vec::new(),
        }
    }

    #[inline]
    fn ncols(&self) -> usize {
        self.std.n + self.arts.len()
    }

    #[inline]
    fn is_artificial(&self, j: usize) -> bool {
        j >= self.std.n
    }

    /// Builds the recoverable budget-overrun error, snapshotting the
    /// counters accumulated so far (same bookkeeping `finish_solve`
    /// performs at the end of a successful solve).
    fn limit_error(&self, limit: LimitKind) -> LpError {
        let mut stats = self.stats;
        stats.phase2_iterations = self.iterations - stats.phase1_iterations;
        stats.full_pricing_passes = self.pricer.full_passes;
        stats.solve_time = self.start.elapsed();
        LpError::LimitExceeded {
            limit,
            stats: Box::new(stats),
        }
    }

    /// Per-iteration budget check shared by the primal and dual loops.
    #[inline]
    fn check_budgets(&self) -> Result<(), LpError> {
        if self.opts.inject_singular_after != 0
            && self.iterations >= self.opts.inject_singular_after
        {
            return Err(LpError::NumericalFailure(
                "injected singular refactorization".into(),
            ));
        }
        if self.opts.inject_panic_after != 0 && self.iterations >= self.opts.inject_panic_after {
            panic!(
                "injected solver panic at iteration {} (chaos harness)",
                self.iterations
            );
        }
        if self.iterations > self.opts.max_iters {
            return Err(self.limit_error(LimitKind::Iterations));
        }
        Ok(())
    }

    /// Dot of column `j` with a dense row-space vector.
    #[inline]
    fn col_dot(&self, j: usize, x: &[f64]) -> f64 {
        if j < self.std.n {
            self.std.a.dot_col(j, x)
        } else {
            let (r, s) = self.arts[j - self.std.n];
            s * x[r]
        }
    }

    /// Sets up the cold start basis.
    ///
    /// Three stages:
    /// 1. a **triangular crash**: free structural columns are greedily
    ///    matched to equality rows (classic singleton elimination). A
    ///    free basic variable can hold any value, so every matched
    ///    equality row starts feasible without an artificial. This
    ///    matters enormously for FFC models, whose sorting-network
    ///    comparators contribute thousands of equality rows whose
    ///    defined variables (`xmax`, `xmin`) are free.
    /// 2. slacks for every other row;
    /// 3. artificials where a basic slack's starting value violates its
    ///    bounds.
    fn crash_basis(&mut self) -> Result<(), LpError> {
        self.crash_basis_core()?;
        // --- Stage 3: artificials for slack-basic rows out of bounds. ---
        self.patch_infeasible_basic_slacks();
        Ok(())
    }

    /// Stages 1–2 of [`Self::crash_basis`]: basic slacks may still sit
    /// outside their bounds.
    fn crash_basis_core(&mut self) -> Result<(), LpError> {
        let std = self.std;
        // Nonbasic placement for structural variables (at the possibly
        // perturbed bounds).
        for j in 0..std.n_struct {
            let (l, u) = (self.lb[j], self.ub[j]);
            let (st, v) = if l.is_finite() {
                (VStat::AtLower, l)
            } else if u.is_finite() {
                (VStat::AtUpper, u)
            } else {
                (VStat::FreeZero, 0.0)
            };
            self.stat.push(st);
            self.xval.push(v);
        }

        // --- Stage 1: triangular matching of free columns to equality
        // rows (slack bounds pinned, lb == ub). ---
        let is_eq_row: Vec<bool> = (0..std.m)
            .map(|i| {
                let s = std.n_struct + i;
                self.lb[s] == self.ub[s]
            })
            .collect();
        // assigned_col[row] and the matching loop state.
        let mut assigned_col: Vec<Option<usize>> = vec![None; std.m];
        {
            let free_cols: Vec<usize> = (0..std.n_struct)
                .filter(|&j| matches!(self.stat[j], VStat::FreeZero))
                .collect();
            // count[j] = j's remaining eligible equality rows.
            let mut count: std::collections::HashMap<usize, usize> =
                std::collections::HashMap::new();
            let mut row_cols: Vec<Vec<usize>> = vec![Vec::new(); std.m];
            for &j in &free_cols {
                let mut c = 0;
                for (r, v) in std.a.col(j) {
                    if is_eq_row[r] && v != 0.0 {
                        c += 1;
                        row_cols[r].push(j);
                    }
                }
                if c > 0 {
                    count.insert(j, c);
                }
            }
            let mut row_open: Vec<bool> = is_eq_row.clone();
            let mut col_used: Vec<bool> = vec![false; std.n_struct];
            let mut queue: Vec<usize> = count
                .iter()
                .filter(|&(_, &c)| c == 1)
                .map(|(&j, _)| j)
                .collect();
            while let Some(j) = queue.pop() {
                if col_used[j] || count.get(&j).copied().unwrap_or(0) != 1 {
                    continue;
                }
                // j's single open equality row.
                let Some(r) = std
                    .a
                    .col(j)
                    .find(|&(r, v)| row_open[r] && v != 0.0)
                    .map(|(r, _)| r)
                else {
                    continue;
                };
                assigned_col[r] = Some(j);
                col_used[j] = true;
                row_open[r] = false;
                // Update counts of the other columns touching r.
                for &j2 in &row_cols[r] {
                    if j2 != j && !col_used[j2] {
                        if let Some(c) = count.get_mut(&j2) {
                            *c = c.saturating_sub(1);
                            if *c == 1 {
                                queue.push(j2);
                            }
                        }
                    }
                }
            }
        }

        // --- Stage 2: tentative basis = matched columns + slacks. ---
        for (i, a) in assigned_col.iter().enumerate() {
            match a {
                Some(j) => {
                    self.basis.push(*j);
                    self.stat[*j] = VStat::Basic(i);
                    // Slack of this row rests nonbasic at its pinned bound.
                }
                None => self.basis.push(std.n_struct + i),
            }
        }
        // Slack statuses.
        for i in 0..std.m {
            let s = std.n_struct + i;
            if self.basis[i] == s {
                self.stat.push(VStat::Basic(i));
                self.xval.push(0.0); // placeholder; set below
            } else {
                // Nonbasic slack at its (pinned) bound.
                self.stat.push(VStat::AtLower);
                self.xval.push(self.lb[s]);
            }
        }

        // Compute tentative basic values. If the matched basis turns out
        // singular, fall back to the plain all-slack crash.
        #[allow(clippy::needless_range_loop)] // parallel arrays by row index
        if self.compute_tentative_values().is_err() {
            for i in 0..std.m {
                let s = std.n_struct + i;
                if let Some(j) = assigned_col[i] {
                    self.stat[j] = VStat::FreeZero;
                    self.xval[j] = 0.0;
                }
                self.basis[i] = s;
                self.stat[s] = VStat::Basic(i);
            }
            self.factors = None;
            self.compute_tentative_values()
                .map_err(|e| LpError::NumericalFailure(format!("slack basis singular: {e}")))?;
        }
        Ok(())
    }

    /// Replaces every *basic slack* whose tentative value violates its
    /// bounds with an artificial on the same row. An artificial `±e_r`
    /// has the same sparsity as the slack it replaces, so the swap only
    /// changes that row's balance and every other basic value stays
    /// valid. Drops the tentative factorization (the basis changed).
    fn patch_infeasible_basic_slacks(&mut self) {
        let std = self.std;
        // (position, row, residual) of each violating basic slack.
        let mut pending_arts: Vec<(usize, usize, f64)> = Vec::new();
        for (pos, &c) in self.basis.iter().enumerate() {
            if c < std.n_struct || c >= std.n {
                continue; // structural or artificial
            }
            let row = c - std.n_struct;
            let (l, u) = (self.lb[c], self.ub[c]);
            let v = self.xval[c];
            if v >= l - FEAS_TOL && v <= u + FEAS_TOL {
                continue;
            }
            let clamped = v.clamp(l, u);
            debug_assert!(clamped.is_finite(), "slack has at least one finite bound");
            self.stat[c] = if clamped == l {
                VStat::AtLower
            } else {
                VStat::AtUpper
            };
            self.xval[c] = clamped;
            pending_arts.push((pos, row, v - clamped));
        }
        for (pos, row, resid) in pending_arts {
            let sign = if resid >= 0.0 { 1.0 } else { -1.0 };
            let art_col = std.n + self.arts.len();
            self.arts.push((row, sign));
            self.lb.push(0.0);
            self.ub.push(f64::INFINITY);
            self.stat.push(VStat::Basic(pos));
            self.xval.push(resid.abs());
            self.basis[pos] = art_col;
            debug_assert_eq!(self.stat.len() - 1, art_col);
        }
        self.factors = None;
    }

    /// Installs the hinted statuses and factorizes. Returns `false`
    /// (engine pristine) on a shape mismatch or singular basis. Basic
    /// values may land outside their bounds: that primal infeasibility
    /// of a dual-feasible basis is exactly what the dual consumes.
    fn load_hint_basis(&mut self, hint: &BasisStatuses) -> bool {
        let std = self.std;
        if hint.0.len() != std.n {
            return false;
        }
        let mut basics: Vec<usize> = Vec::with_capacity(std.m);
        for (j, &h) in hint.0.iter().enumerate() {
            let (l, u) = (self.lb[j], self.ub[j]);
            let (st, v) = match h {
                ColStatus::Basic => (VStat::Basic(0), 0.0), // value set later
                ColStatus::Lower if l.is_finite() => (VStat::AtLower, l),
                ColStatus::Upper if u.is_finite() => (VStat::AtUpper, u),
                ColStatus::Free if !l.is_finite() && !u.is_finite() => (VStat::FreeZero, 0.0),
                // Status no longer matches the bounds: nearest valid.
                _ => {
                    if l.is_finite() {
                        (VStat::AtLower, l)
                    } else if u.is_finite() {
                        (VStat::AtUpper, u)
                    } else {
                        (VStat::FreeZero, 0.0)
                    }
                }
            };
            if matches!(st, VStat::Basic(_)) {
                basics.push(j);
            }
            self.stat.push(st);
            self.xval.push(v);
        }
        // Resize the basic set to exactly m columns.
        while basics.len() > std.m {
            let Some(j) = basics.pop() else { break };
            let (l, u) = (self.lb[j], self.ub[j]);
            let (st, v) = if l.is_finite() {
                (VStat::AtLower, l)
            } else if u.is_finite() {
                (VStat::AtUpper, u)
            } else {
                (VStat::FreeZero, 0.0)
            };
            self.stat[j] = st;
            self.xval[j] = v;
        }
        if basics.len() < std.m {
            for i in 0..std.m {
                if basics.len() == std.m {
                    break;
                }
                let s = std.n_struct + i;
                if !matches!(self.stat[s], VStat::Basic(_)) {
                    self.stat[s] = VStat::Basic(0);
                    basics.push(s);
                }
            }
            if basics.len() < std.m {
                self.reset_state();
                return false;
            }
        }
        for (pos, &j) in basics.iter().enumerate() {
            self.stat[j] = VStat::Basic(pos);
        }
        self.basis = basics;
        if self.compute_tentative_values().is_err() {
            self.reset_state();
            return false;
        }
        true
    }

    /// The factorization this solve leaves for the next one: `LU(B)` of
    /// the final basis, when no pivot has been recorded since it was
    /// computed and `B` has no artificial column (no start basis does).
    fn into_held(self) -> Option<HeldLu> {
        if self.basis.iter().any(|&j| self.is_artificial(j)) {
            return None;
        }
        let lu = self.factors?.into_lu()?;
        Some(HeldLu::new(self.basis, lu))
    }

    /// Clears all crash/warm state so another start can be attempted.
    fn reset_state(&mut self) {
        self.stat.clear();
        self.xval.clear();
        self.basis.clear();
        self.arts.clear();
        self.lb.truncate(self.std.n);
        self.ub.truncate(self.std.n);
        self.factors = None;
        self.primed_at = None;
        self.true_rhs_at = None;
    }

    /// Forgets a hint that did not fit, with the bound expansion that
    /// came with it: the engine is left as a cold start finds it.
    fn drop_hint(&mut self) {
        self.reset_state();
        self.lb.copy_from_slice(&self.std.lb);
        self.ub.copy_from_slice(&self.std.ub);
        self.expanded = false;
        self.stats.factor_reused = false;
    }

    /// Factorizes the current basis (`self.basis`). With `reuse`, a held
    /// factorization of exactly this column list is taken instead; any
    /// other held factorization is dropped before a fresh one is built,
    /// so two never coexist.
    fn factorize_basis(&mut self, reuse: bool) -> Result<Basis, Singular> {
        let t = Instant::now();
        let factors = match self.held.take() {
            Some(held) if reuse && held.columns == self.basis => {
                self.stats.factor_reused = true;
                Ok(Basis::from_lu(held.lu))
            }
            _ => {
                #[cfg(test)]
                FRESH_FACTORIZATIONS.with(|c| c.set(c.get() + 1));
                Basis::factorize(&self.basis_matrix())
            }
        };
        self.stats.factor_time += t.elapsed();
        factors
    }

    /// `B` in CSC form: the standard form's column slices and the
    /// artificials' unit columns, in basis order. The standard form's
    /// columns are sorted by row and hold no row twice, so this is the
    /// matrix `CscMatrix::from_columns` would build from them, entry for
    /// entry; their order fixes the factorization's bits.
    fn basis_matrix(&self) -> CscMatrix {
        let (a, arts, n, m) = (&self.std.a, &self.arts, self.std.n, self.std.m);
        let width = |j: usize| if j < n { a.col_nnz(j) } else { 1 };
        let nnz = self.basis.iter().map(|&j| width(j)).sum();
        let mut b = CscMatrix {
            nrows: m,
            ncols: self.basis.len(),
            colptr: Vec::with_capacity(self.basis.len() + 1),
            rowidx: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        };
        b.colptr.push(0);
        for &j in &self.basis {
            debug_assert!(
                j >= n || a.col(j).map(|(r, _)| r).is_sorted_by(|r, s| r < s),
                "column {j} of the standard form is unsorted or repeats a row"
            );
            col_apply(a, arts, n, j, |r, v| {
                b.rowidx.push(r);
                b.values.push(v);
            });
            b.colptr.push(b.rowidx.len());
        }
        b
    }

    /// Factorizes the start basis and fills basic values; used by the
    /// crash to validate the triangular matching and by the hint load.
    /// The one factorization that may reuse a held one.
    ///
    /// Over expanded bounds (a warm start) the same pass over `A_N` also
    /// accumulates the right-hand side at the true bounds — each nonbasic
    /// column at the true bound its status names — into `true_rhs`, term
    /// for term as [`Self::restore_perturbed_bounds`] would.
    fn compute_tentative_values(&mut self) -> Result<(), Singular> {
        let mut factors = self.factorize_basis(true)?;
        let std = self.std;
        let keep_true = self.expanded && keeps_passes();
        self.rhs.copy_from_slice(&std.b);
        self.true_rhs.clear();
        if keep_true {
            self.true_rhs.extend_from_slice(&std.b);
        }
        let ncols = self.ncols();
        let (rhs, true_rhs) = (&mut self.rhs, &mut self.true_rhs);
        for j in 0..ncols {
            let v = self.xval[j];
            let t = match self.stat[j] {
                VStat::Basic(_) => continue,
                _ if !keep_true => 0.0,
                VStat::AtLower if j < std.n => std.lb[j],
                VStat::AtUpper if j < std.n => std.ub[j],
                _ => v,
            };
            let (a, arts) = (&std.a, &self.arts);
            match (v != 0.0, t != 0.0) {
                (false, false) => {}
                (true, false) => col_apply(a, arts, std.n, j, |r, aij| rhs[r] -= aij * v),
                (false, true) => col_apply(a, arts, std.n, j, |r, aij| true_rhs[r] -= aij * t),
                (true, true) => col_apply(a, arts, std.n, j, |r, aij| {
                    rhs[r] -= aij * v;
                    true_rhs[r] -= aij * t;
                }),
            }
        }
        let rhs = std::mem::take(&mut self.rhs);
        self.solve_basic_values(&mut factors, &rhs);
        self.rhs = rhs;
        self.factors = Some(factors);
        self.true_rhs_at = keep_true.then(|| self.progress());
        Ok(())
    }

    /// What has moved the basis, its factorization or a nonbasic value
    /// so far: iterations (every pivot and primal bound flip), bound
    /// flips (the dual's too) and refactorizations.
    fn progress(&self) -> [usize; 3] {
        [
            self.iterations,
            self.stats.bound_flips,
            self.stats.refactorizations,
        ]
    }

    /// Sets every basic value from `B x_B = rhs` through `factors`,
    /// the factorization of the current basis.
    fn solve_basic_values(&mut self, factors: &mut Basis, rhs: &[f64]) {
        timed(&mut self.stats.ftran_time, || {
            factors.ftran(rhs, &mut self.w)
        });
        for (&j, &w) in self.basis.iter().zip(&self.w) {
            if let Some(x) = self.xval.get_mut(j) {
                *x = w;
            }
        }
    }

    /// (Re)factorizes the basis and recomputes basic values from scratch.
    fn refactorize(&mut self) -> Result<(), LpError> {
        self.stats.refactorizations += 1;
        let factors = self
            .factorize_basis(false)
            .map_err(|e| LpError::NumericalFailure(format!("refactorization failed: {e}")))?;
        self.factors = Some(factors);
        self.recompute_basic_values();
        Ok(())
    }

    /// Recomputes basic values `B x_B = b − A_N x_N` with the current
    /// factors (which must be valid). Used after refactorization and
    /// after batches of nonbasic bound flips.
    fn recompute_basic_values(&mut self) {
        self.rhs.copy_from_slice(&self.std.b);
        let ncols = self.ncols();
        let (a, arts, n) = (&self.std.a, &self.arts, self.std.n);
        for j in 0..ncols {
            if matches!(self.stat[j], VStat::Basic(_)) {
                continue;
            }
            let v = self.xval[j];
            if v != 0.0 {
                let rhs = &mut self.rhs;
                col_apply(a, arts, n, j, |r, aij| rhs[r] -= aij * v);
            }
        }
        // Work around split borrows: rhs is read, w written.
        let rhs = std::mem::take(&mut self.rhs);
        // audit:allow(no-unwrap): every caller (re)factorizes immediately
        // beforehand; returning silently would leave stale basic values.
        let mut factors = self.factors.take().expect("factorized");
        self.solve_basic_values(&mut factors, &rhs);
        self.factors = Some(factors);
        self.rhs = rhs;
    }

    /// Runs one phase to optimality with the given minimization costs.
    fn optimize(&mut self, cost: &[f64], allow_unbounded: bool) -> Result<PhaseEnd, LpError> {
        let m = self.std.m;
        self.bland = false;
        self.degen_run = 0;
        let ncols = self.ncols();
        self.pricer.reset(ncols);
        // The first pass BTRANs and prices every column, unless the
        // dual start did both on these costs and nothing has moved since.
        let mut primed = self.primed_at.take() == Some(self.progress());
        let mut fresh = !primed;
        if primed {
            note_kept(false);
        }
        loop {
            if self
                .factors
                .as_ref()
                .map(|f| f.should_refactorize())
                .unwrap_or(true)
            {
                self.refactorize()?;
                primed = false;
            }

            // BTRAN: y = B⁻ᵀ c_B.
            if !std::mem::take(&mut primed) {
                for i in 0..m {
                    self.cb[i] = cost.get(self.basis[i]).copied().unwrap_or(0.0);
                }
                let mut cb = std::mem::take(&mut self.cb);
                let Some(factors) = self.factors.as_mut() else {
                    return Err(LpError::NumericalFailure(
                        "internal: basis not factorized".into(),
                    ));
                };
                timed(&mut self.stats.btran_time, || {
                    factors.btran(&mut cb, &mut self.y)
                });
                self.cb = cb;
            }

            // Pricing: the pricer is temporarily moved out so the
            // eligibility closure can borrow the engine.
            let priced = Instant::now();
            self.price_columns(cost, fresh);
            fresh = false;
            let entering = {
                let mut pricer = std::mem::take(&mut self.pricer);
                let bland = self.bland;
                let got = pricer.select(ncols, bland, |j| self.eligible(j));
                self.pricer = pricer;
                got
            };
            self.stats.price_time += priced.elapsed();
            let Some((q, dir)) = entering else {
                return Ok(PhaseEnd::Optimal);
            };

            // Sparse FTRAN of the entering column: w_sp = B⁻¹ A_q.
            self.col_buf.clear();
            {
                let (a, arts, n) = (&self.std.a, &self.arts, self.std.n);
                let buf = &mut self.col_buf;
                col_apply(a, arts, n, q, |r, v| buf.push((r, v)));
            }
            {
                let Some(factors) = self.factors.as_mut() else {
                    return Err(LpError::NumericalFailure(
                        "internal: basis not factorized".into(),
                    ));
                };
                timed(&mut self.stats.ftran_time, || {
                    factors.ftran_sparse(&self.col_buf, &mut self.w_sp)
                });
            }

            // Ratio test.
            let step = self.ratio_test(q, dir);
            match step {
                Step::Unbounded => {
                    if allow_unbounded {
                        return Ok(PhaseEnd::Unbounded);
                    }
                    return Err(LpError::NumericalFailure(
                        "phase-1 objective unbounded below (inconsistent state)".into(),
                    ));
                }
                Step::BoundFlip { t } => {
                    self.stats.bound_flips += 1;
                    self.apply_step(q, dir, t);
                    self.stat[q] = match self.stat[q] {
                        VStat::AtLower => VStat::AtUpper,
                        VStat::AtUpper => VStat::AtLower,
                        other => other,
                    };
                    self.note_progress(t);
                }
                Step::Pivot { t, pos } => {
                    let leaving = self.basis[pos];
                    self.update_pricing(q, pos, leaving);
                    // Record the eta before mutating values; on a bad
                    // pivot, force a refactorization and retry.
                    let Some(factors) = self.factors.as_mut() else {
                        return Err(LpError::NumericalFailure(
                            "internal: basis not factorized".into(),
                        ));
                    };
                    let push = factors.push_eta_sparse(pos, &self.w_sp);
                    if push.is_err() {
                        self.refactorize()?;
                        continue;
                    }
                    self.apply_step(q, dir, t);
                    // Snap the leaving variable exactly onto its bound.
                    let delta_r = -dir * self.w_sp.get(pos);
                    let (ll, lu) = (self.lb[leaving], self.ub[leaving]);
                    let (new_stat, snapped) = if delta_r < 0.0 {
                        (VStat::AtLower, ll)
                    } else {
                        (VStat::AtUpper, lu)
                    };
                    self.stat[leaving] = new_stat;
                    self.xval[leaving] = snapped;
                    self.basis[pos] = q;
                    self.stat[q] = VStat::Basic(pos);
                    self.queue_reprice(leaving);
                    self.note_progress(t);
                }
            }

            self.iterations += 1;
            self.check_budgets()?;
        }
    }

    /// Checks dual feasibility of the current (factorized) basis for
    /// `cost`, flipping box-bounded nonbasic columns whose reduced cost
    /// has the wrong sign for their bound onto the other bound. Returns
    /// `false` — without modifying any basis state — when some wrong-sign
    /// column has no opposite finite bound to flip to, i.e. the basis
    /// cannot be made dual-feasible by bound flips alone.
    ///
    /// With `true_costs` (`cost` is the objective the primal pass will
    /// optimize) the pass first leaves every nonbasic structural and
    /// slack column's `d_j` in `d`, fixed ones included and `NaN` for a
    /// basic one, as [`Self::price_columns`] computes them, and an
    /// accepted basis keeps them, with `y`, as that pass's first BTRAN
    /// and pricing (bound flips move no `d_j`).
    fn dual_feasibilize(&mut self, cost: &[f64], true_costs: bool) -> bool {
        let m = self.std.m;
        self.primed_at = None;
        for i in 0..m {
            self.cb[i] = cost.get(self.basis[i]).copied().unwrap_or(0.0);
        }
        {
            let mut cb = std::mem::take(&mut self.cb);
            let Some(factors) = self.factors.as_mut() else {
                self.cb = cb;
                return false;
            };
            timed(&mut self.stats.btran_time, || {
                factors.btran(&mut cb, &mut self.y)
            });
            self.cb = cb;
        }
        let priced = Instant::now();
        let keep = true_costs && keeps_passes();
        let std = self.std;
        if keep {
            let (stat, y) = (&self.stat, &self.y);
            self.d.clear();
            self.d
                .extend(stat.iter().take(std.n).enumerate().map(|(j, st)| match st {
                    VStat::Basic(_) => f64::NAN,
                    _ => cost.get(j).copied().unwrap_or(0.0) - std.a.dot_col(j, y),
                }));
        }
        // Mild wrong-sign reduced costs are tolerated: the dual ratio
        // test clamps their (negative) ratios to zero, so they resolve
        // as degenerate steps rather than lost dual feasibility.
        let tol = OPT_TOL * 10.0;
        let mut flips: Vec<usize> = Vec::new();
        let mut refused = false;
        for j in 0..self.ncols() {
            let st = self.stat[j];
            if matches!(st, VStat::Basic(_)) || self.lb[j] == self.ub[j] {
                continue;
            }
            let d = match self.d.get(j) {
                Some(&d) if keep => d,
                _ => cost.get(j).copied().unwrap_or(0.0) - self.col_dot(j, &self.y),
            };
            let flippable = match st {
                VStat::AtLower if d < -tol => self.ub[j].is_finite(),
                VStat::AtUpper if d > tol => self.lb[j].is_finite(),
                VStat::FreeZero if d.abs() > tol => false,
                _ => continue,
            };
            if !flippable {
                refused = true;
                break;
            }
            flips.push(j);
        }
        self.stats.price_time += priced.elapsed();
        if refused {
            return false;
        }
        if !flips.is_empty() {
            for &j in &flips {
                let (st, v) = match self.stat[j] {
                    VStat::AtLower => (VStat::AtUpper, self.ub[j]),
                    _ => (VStat::AtLower, self.lb[j]),
                };
                self.stat[j] = st;
                self.xval[j] = v;
            }
            self.stats.bound_flips += flips.len();
            self.stats.dual_bound_flips += flips.len();
            self.recompute_basic_values();
        }
        if keep {
            self.y_priced.clear();
            self.y_priced.extend_from_slice(&self.y);
            self.repricing.resize(self.std.n, false);
            self.primed_at = Some(self.progress());
        }
        true
    }

    /// The cost-shifting dual phase 1 (Koberstein 2005, as in HiGHS):
    /// `cost` with the cost of every nonbasic column whose reduced cost
    /// has a sign no bound flip fixes — at a lower bound with no upper
    /// one, at an upper bound with no lower one, or free — moved by
    /// minus that reduced cost, so the column prices out at zero. Only
    /// nonbasic costs move, so `y = B⁻ᵀc_B` and every other reduced cost
    /// stay as they are. Reads `self.y` as a refused
    /// [`Self::dual_feasibilize`] leaves it, with the same tolerance.
    fn shift_costs(&mut self, cost: &[f64]) -> Vec<f64> {
        let priced = Instant::now();
        let tol = OPT_TOL * 10.0;
        let bounds = self.lb.iter().zip(&self.ub);
        let shifted = cost
            .iter()
            .zip(&self.stat)
            .zip(bounds)
            .enumerate()
            .map(|(j, ((&c, &st), (&l, &u)))| {
                if l == u {
                    return c;
                }
                let d = c - self.col_dot(j, &self.y);
                let unfixable = match st {
                    VStat::AtLower => d < -tol && !u.is_finite(),
                    VStat::AtUpper => d > tol && !l.is_finite(),
                    VStat::FreeZero => d.abs() > tol,
                    VStat::Basic(_) => false,
                };
                if unfixable {
                    c - d
                } else {
                    c
                }
            })
            .collect();
        self.stats.price_time += priced.elapsed();
        shifted
    }

    /// Dual simplex loop: from a dual-feasible basis, drives out primal
    /// infeasibility while keeping reduced-cost signs valid. Row pricing
    /// is dual devex (violation² over a reference weight); the ratio
    /// test is bound-flipping (long-step): box-bounded blockers whose
    /// full flip leaves the leaving variable still out of bounds are
    /// flipped in bulk instead of pivoted on.
    fn optimize_dual(&mut self, cost: &[f64]) -> Result<DualEnd, LpError> {
        let m = self.std.m;
        self.bland = false;
        self.degen_run = 0;
        // The dual loop always optimizes the real objective: plateau
        // expansion may fire from here on.
        self.expand_armed = true;
        // Dual devex reference weights, one per basis *position*.
        let mut dw = vec![1.0f64; m];
        // This iteration's ratio-test candidates, and the prefix of them
        // the bound-flipping walk visited.
        let mut cands: Vec<RatioCand> = Vec::new();
        let mut walked: Vec<RatioCand> = Vec::new();
        let mut retried = false;
        // Whether `self.y` currently holds B⁻ᵀc_B for the current basis.
        // The duals are maintained incrementally across pivots (the
        // `y' = y + θρ` price update below) and recomputed from scratch
        // only after (re)factorizations — the dense BTRAN per iteration
        // they replace was the dominant cost of iteration-light warm
        // re-solves on 10³⁺-row bases.
        let mut y_valid = false;
        loop {
            if self
                .factors
                .as_ref()
                .map(|f| f.should_refactorize())
                .unwrap_or(true)
            {
                self.refactorize()?;
                y_valid = false;
            }

            // Leaving row: the (devex-weighted) worst bound violation;
            // lowest violated row index under Bland anti-cycling.
            let mut leave: Option<(usize, f64, f64)> = None; // (pos, viol, score)
            for (pos, &w) in dw.iter().enumerate().take(m) {
                let j = self.basis[pos];
                let v = self.xval[j];
                let viol = if v < self.lb[j] - FEAS_TOL {
                    v - self.lb[j]
                } else if v > self.ub[j] + FEAS_TOL {
                    v - self.ub[j]
                } else {
                    continue;
                };
                if self.bland {
                    leave = Some((pos, viol, 0.0));
                    break;
                }
                let score = viol * viol / w.max(1e-12);
                if leave.map(|(_, _, s)| score > s).unwrap_or(true) {
                    leave = Some((pos, viol, score));
                }
            }
            let Some((r, viol, _)) = leave else {
                return Ok(DualEnd::Feasible);
            };
            let leaving = self.basis[r];
            // σ = +1: leaves at its upper bound (row value must drop);
            // σ = −1: leaves at its lower bound.
            let sigma = if viol > 0.0 { 1.0 } else { -1.0 };

            // y = B⁻ᵀc_B for reduced costs (recomputed only when a
            // refactorization invalidated it); ρ = B⁻ᵀe_r for the pivot
            // row, every iteration.
            if !y_valid {
                for i in 0..m {
                    self.cb[i] = cost.get(self.basis[i]).copied().unwrap_or(0.0);
                }
                let mut cb = std::mem::take(&mut self.cb);
                let Some(factors) = self.factors.as_mut() else {
                    return Err(LpError::NumericalFailure(
                        "internal: basis not factorized".into(),
                    ));
                };
                timed(&mut self.stats.btran_time, || {
                    factors.btran(&mut cb, &mut self.y)
                });
                self.cb = cb;
                y_valid = true;
            }
            {
                let Some(factors) = self.factors.as_mut() else {
                    return Err(LpError::NumericalFailure(
                        "internal: basis not factorized".into(),
                    ));
                };
                timed(&mut self.stats.btran_time, || {
                    factors.btran_sparse(&[(r, 1.0)], &mut self.rho_sp)
                });
            }

            // Entering candidates: nonbasic columns whose pivot-row
            // entry lets the leaving variable move toward its bound
            // without that column's own reduced cost crossing zero the
            // wrong way (a_j = σ·α_j must oppose the column's bound).
            // Only columns the pivot row reaches can qualify.
            let priced = Instant::now();
            self.prow.load(self.std, &self.arts, &self.rho_sp);
            let (stat, lb, ub, n) = (&self.stat, &self.lb, &self.ub, self.std.n);
            let keep = |j: usize| j < n && !matches!(stat[j], VStat::Basic(_)) && lb[j] != ub[j];
            cands.clear();
            for (j, alpha) in self.prow.entries(self.std, &self.arts, &self.rho_sp, keep) {
                let st = self.stat[j];
                let a = sigma * alpha;
                let eligible = match st {
                    VStat::AtLower => a > PIVOT_TOL,
                    VStat::AtUpper => a < -PIVOT_TOL,
                    VStat::FreeZero => alpha.abs() > PIVOT_TOL,
                    VStat::Basic(_) => unreachable!(),
                };
                if !eligible {
                    continue;
                }
                let d = cost.get(j).copied().unwrap_or(0.0) - self.col_dot(j, &self.y);
                let ratio = (d / a).max(0.0);
                cands.push(RatioCand { j, alpha, ratio });
            }
            self.stats.price_time += priced.elapsed();

            // Bound-flipping walk in ratio order: flipping a boxed
            // blocker moves the leaving row by span·|α| — as long as
            // that leaves it out of bounds, flip and keep walking; the
            // first candidate that must enter pivots. (Disabled under
            // Bland: plain smallest-ratio, lowest-index entering.)
            let mut delta = viol.abs();
            let (stat, lb, ub, bland) = (&self.stat, &self.lb, &self.ub, self.bland);
            ratio_walk(&mut cands, &mut walked, |c| {
                let span = ub[c.j] - lb[c.j];
                let can_flip = !bland
                    && span.is_finite()
                    && matches!(stat[c.j], VStat::AtLower | VStat::AtUpper)
                    && delta - span * c.alpha.abs() > FEAS_TOL;
                if can_flip {
                    delta -= span * c.alpha.abs();
                }
                can_flip
            });
            let Some((&entering, flipped)) = walked.split_last() else {
                // A violated row no entering column can repair: the dual
                // is unbounded, i.e. the primal is infeasible.
                return Ok(DualEnd::Infeasible);
            };
            let nflips = flipped.len();
            if nflips > 0 {
                // All flipped columns update the basics via one FTRAN of
                // the combined flip column Σ Δx_j·A_j.
                self.rhs.iter_mut().for_each(|v| *v = 0.0);
                for &RatioCand { j, .. } in flipped {
                    let (st, target) = match self.stat[j] {
                        VStat::AtLower => (VStat::AtUpper, self.ub[j]),
                        VStat::AtUpper => (VStat::AtLower, self.lb[j]),
                        _ => unreachable!("only boxed bounded columns are flipped"),
                    };
                    let dx = target - self.xval[j];
                    self.stat[j] = st;
                    self.xval[j] = target;
                    let (a, arts, n, rhs) = (&self.std.a, &self.arts, self.std.n, &mut self.rhs);
                    col_apply(a, arts, n, j, |row, aij| rhs[row] += aij * dx);
                }
                {
                    let rhs = std::mem::take(&mut self.rhs);
                    let Some(factors) = self.factors.as_mut() else {
                        return Err(LpError::NumericalFailure(
                            "internal: basis not factorized".into(),
                        ));
                    };
                    timed(&mut self.stats.ftran_time, || {
                        factors.ftran(&rhs, &mut self.w)
                    });
                    self.rhs = rhs;
                }
                for i in 0..m {
                    let bj = self.basis[i];
                    self.xval[bj] -= self.w[i];
                }
                self.stats.bound_flips += nflips;
                self.stats.dual_bound_flips += nflips;
            }
            let RatioCand {
                j: q,
                ratio: t_dual,
                ..
            } = entering;

            // FTRAN the entering column; the pivot element must agree
            // with the BTRAN'd row entry — a tiny value means stale
            // factors, so refactorize and retry the iteration once.
            self.col_buf.clear();
            {
                let (a, arts, n) = (&self.std.a, &self.arts, self.std.n);
                let buf = &mut self.col_buf;
                col_apply(a, arts, n, q, |row, v| buf.push((row, v)));
            }
            {
                let Some(factors) = self.factors.as_mut() else {
                    return Err(LpError::NumericalFailure(
                        "internal: basis not factorized".into(),
                    ));
                };
                timed(&mut self.stats.ftran_time, || {
                    factors.ftran_sparse(&self.col_buf, &mut self.w_sp)
                });
            }
            let alpha_r = self.w_sp.get(r);
            if alpha_r.abs() <= PIVOT_TOL {
                if retried {
                    return Err(LpError::NumericalFailure(
                        "dual pivot vanished after refactorization".into(),
                    ));
                }
                retried = true;
                self.refactorize()?;
                y_valid = false;
                continue;
            }
            retried = false;

            // Price update: y' = y + θρ with θ = d_q/α_r zeroes the
            // entering column's reduced cost — the standard dual-simplex
            // dual update. Computed *before* the basis mutates so d_q
            // still refers to the outgoing basis; applied to the sparse
            // pivot-row pattern only.
            let theta = {
                let d_q = cost.get(q).copied().unwrap_or(0.0) - self.col_dot(q, &self.y);
                d_q / alpha_r
            };

            // Dual devex update of the row weights from the pivot column.
            let wr = dw[r].max(1.0);
            let inv2 = 1.0 / (alpha_r * alpha_r);
            for &i in self.w_sp.pattern() {
                if i == r {
                    continue;
                }
                let wi = self.w_sp.get(i);
                if wi != 0.0 {
                    let cand = wi * wi * inv2 * wr;
                    if cand > dw[i] {
                        dw[i] = cand;
                    }
                }
            }
            dw[r] = (wr * inv2).max(1.0);
            if dw[r] > 1e8 {
                for g in dw.iter_mut() {
                    *g = 1.0;
                }
            }

            let Some(factors) = self.factors.as_mut() else {
                return Err(LpError::NumericalFailure(
                    "internal: basis not factorized".into(),
                ));
            };
            let push = factors.push_eta_sparse(r, &self.w_sp);
            if push.is_err() {
                self.refactorize()?;
                y_valid = false;
                continue;
            }

            // Primal step: drive the leaving variable exactly onto its
            // violated bound; the other basics move along −Δq·B⁻¹A_q.
            let target = if sigma > 0.0 {
                self.ub[leaving]
            } else {
                self.lb[leaving]
            };
            let dq = (self.xval[leaving] - target) / alpha_r;
            for idx in 0..self.w_sp.pattern().len() {
                let i = self.w_sp.pattern()[idx];
                let wi = self.w_sp.get(i);
                if wi != 0.0 {
                    let bj = self.basis[i];
                    self.xval[bj] -= dq * wi;
                }
            }
            self.xval[q] += dq;
            self.xval[leaving] = target;
            self.stat[leaving] = if sigma > 0.0 {
                VStat::AtUpper
            } else {
                VStat::AtLower
            };
            self.stat[q] = VStat::Basic(r);
            self.basis[r] = q;
            // `rho_sp` still holds ρ = B⁻ᵀe_r of the outgoing basis
            // (nothing after the BTRAN overwrites it), which is exactly
            // the direction the duals move in.
            if theta != 0.0 {
                for &i in self.rho_sp.pattern() {
                    let ri = self.rho_sp.get(i);
                    if ri != 0.0 {
                        self.y[i] += theta * ri;
                    }
                }
            }

            self.iterations += 1;
            self.stats.dual_iterations += 1;
            // A zero dual-objective step is the dual's degenerate pivot;
            // long runs engage the same Bland switch as the primal loop.
            if t_dual <= OPT_TOL {
                self.stats.degenerate_pivots += 1;
                self.degen_run += 1;
                if self.degen_run > DEGEN_SWITCH {
                    self.bland = true;
                }
                self.maybe_expand_on_plateau();
            } else {
                self.degen_run = 0;
                self.bland = false;
            }
            self.check_budgets()?;
        }
    }

    /// Devex weight update after choosing entering column `q` and
    /// leaving basis position `pos`. The pivot row `ρ = B⁻ᵀe_pos` is
    /// obtained with one *sparse* BTRAN (the RHS is a unit vector), its
    /// nonbasic entries `α = ρᵀA` by [`PivotRow`], and the update itself
    /// lives in [`Pricer::update_weights`].
    fn update_pricing(&mut self, q: usize, pos: usize, leaving: usize) {
        let alpha_q = self.w_sp.get(pos);
        // Devex weights are a pricing heuristic: with no factors there is
        // nothing sound to update, so skip rather than guess.
        let Some(factors) = self.factors.as_mut() else {
            return;
        };
        timed(&mut self.stats.btran_time, || {
            factors.btran_sparse(&[(pos, 1.0)], &mut self.rho_sp)
        });
        let priced = Instant::now();
        self.prow.load(self.std, &self.arts, &self.rho_sp);
        let stat = &self.stat;
        let touched = self.prow.entries(self.std, &self.arts, &self.rho_sp, |j| {
            !matches!(stat.get(j), Some(VStat::Basic(_)))
        });
        self.pricer.update_weights(q, leaving, alpha_q, touched);
        self.stats.price_time += priced.elapsed();
    }

    /// Refreshes `self.d` for the duals BTRAN just left in `self.y`.
    /// A phase's first pass (`fresh`) prices every nonbasic structural
    /// and slack column; later passes reprice only the columns with an
    /// entry in a row whose dual changed bit-wise since the last pass —
    /// the other columns' dot products read the same values — and the
    /// columns that left the basis since, unless more than `m/10` rows
    /// changed, when pricing everything is the cheaper walk. Every `d_j`
    /// is computed as `c_j − A_jᵀy` in column order, as a full pass
    /// would. A basic column's `d_j` is never read.
    fn price_columns(&mut self, cost: &[f64], fresh: bool) {
        let std = self.std;
        let y = &self.y;
        let reduced = |j: usize| cost.get(j).copied().unwrap_or(0.0) - std.a.dot_col(j, y);
        let stat = &self.stat;
        let nonbasic = |j: usize| !matches!(stat.get(j), Some(VStat::Basic(_)));
        self.changed_rows.clear();
        let full = fresh || self.y_priced.len() != y.len() || {
            self.changed_rows.extend(
                y.iter()
                    .zip(&self.y_priced)
                    .enumerate()
                    .filter(|(_, (now, then))| now.to_bits() != then.to_bits())
                    .map(|(i, _)| i)
                    .take(std.m / 10 + 1),
            );
            self.changed_rows.len() > std.m / 10
        };
        if full {
            self.d.clear();
            self.d
                .extend((0..std.n).map(|j| if nonbasic(j) { reduced(j) } else { f64::NAN }));
            self.repricing.resize(std.n, false);
        } else {
            for j in self.changed_rows.iter().flat_map(|&r| std.rows.row(r)) {
                if let Some(flag) = self.repricing.get_mut(j).filter(|f| !**f) {
                    *flag = true;
                    self.reprice.push(j);
                }
            }
        }
        while let Some(j) = self.reprice.pop() {
            if let (Some(dj), Some(flag)) = (self.d.get_mut(j), self.repricing.get_mut(j)) {
                if !full {
                    *dj = reduced(j);
                }
                *flag = false;
            }
        }
        #[cfg(test)]
        {
            self.partial_pricings += usize::from(!full);
        }
        self.y_priced.clear();
        self.y_priced.extend_from_slice(y);
        // Like the KKT hook: with debug assertions (and in this crate's
        // tests) every kept reduced cost must equal a fresh one.
        #[cfg(any(test, debug_assertions))]
        {
            let stale = (0..std.n)
                .filter(|&j| nonbasic(j))
                .find(|&j| self.d.get(j).map(|dj| dj.to_bits()) != Some(reduced(j).to_bits()));
            assert!(stale.is_none(), "stale reduced cost of column {stale:?}");
        }
    }

    /// Makes the next [`Self::price_columns`] pass recompute `d_j`
    /// (column `j` left the basis, whose reduced costs are not kept).
    fn queue_reprice(&mut self, j: usize) {
        if let Some(flag) = self.repricing.get_mut(j).filter(|f| !**f) {
            *flag = true;
            self.reprice.push(j);
        }
    }

    /// Pricing eligibility of column `j` from its current reduced cost:
    /// `Some((d_j, dir))` when it may enter moving in `dir`, `None`
    /// otherwise.
    #[inline]
    fn eligible(&self, j: usize) -> Option<(f64, f64)> {
        let st = *self.stat.get(j)?;
        // Basic, fixed and artificial columns never (re-)enter.
        if matches!(st, VStat::Basic(_))
            || self.lb.get(j) == self.ub.get(j)
            || self.is_artificial(j)
        {
            return None;
        }
        let d = *self.d.get(j)?;
        match st {
            VStat::AtLower => (d < -OPT_TOL).then_some((d, 1.0)),
            VStat::AtUpper => (d > OPT_TOL).then_some((d, -1.0)),
            VStat::FreeZero => {
                if d < -OPT_TOL {
                    Some((d, 1.0))
                } else if d > OPT_TOL {
                    Some((d, -1.0))
                } else {
                    None
                }
            }
            VStat::Basic(_) => None,
        }
    }

    /// Tracks degenerate-pivot runs and toggles Bland's rule.
    fn note_progress(&mut self, t: f64) {
        if t <= FEAS_TOL {
            self.stats.degenerate_pivots += 1;
            self.degen_run += 1;
            if self.degen_run > DEGEN_SWITCH {
                self.bland = true;
            }
            self.maybe_expand_on_plateau();
        } else {
            self.degen_run = 0;
            self.bland = false;
        }
    }

    /// Bounded-variable ratio test for entering column `q` moving in
    /// direction `dir`, with `self.w_sp` holding `B⁻¹ A_q` (sparse).
    fn ratio_test(&self, q: usize, dir: f64) -> Step {
        // Entering variable's own range.
        let own_span = self.ub[q] - self.lb[q]; // may be +inf

        if self.bland {
            // Plain exact ratio test with lowest-index tie-breaking
            // (termination guarantee while anti-cycling).
            let mut t_min = f64::INFINITY;
            let mut blocking: Option<usize> = None;
            for &i in self.w_sp.pattern() {
                let wi = self.w_sp.get(i);
                if wi.abs() <= PIVOT_TOL {
                    continue;
                }
                let bj = self.basis[i];
                let delta = -dir * wi;
                let bound = if delta < 0.0 {
                    self.lb[bj]
                } else {
                    self.ub[bj]
                };
                if !bound.is_finite() {
                    continue;
                }
                let ti = ((bound - self.xval[bj]) / delta).max(0.0);
                let better = ti < t_min - 1e-12
                    || (ti < t_min + 1e-12
                        && blocking.map(|b| self.basis[b] > bj).unwrap_or(false));
                if better {
                    t_min = ti.min(t_min);
                    blocking = Some(i);
                }
            }
            if own_span.is_finite() && own_span <= t_min {
                return Step::BoundFlip { t: own_span };
            }
            return match blocking {
                Some(pos) => Step::Pivot { t: t_min, pos },
                None => Step::Unbounded,
            };
        }

        // Harris two-pass ratio test: pass 1 finds the maximum step
        // permitted when every bound is relaxed by the feasibility
        // tolerance; pass 2 picks the largest pivot among rows whose
        // exact ratio is within that relaxed step. Larger pivots mean
        // better numerics and far fewer degenerate stalls.
        let mut t_relaxed = f64::INFINITY;
        for &i in self.w_sp.pattern() {
            let wi = self.w_sp.get(i);
            if wi.abs() <= PIVOT_TOL {
                continue;
            }
            let bj = self.basis[i];
            let delta = -dir * wi;
            let bound = if delta < 0.0 {
                self.lb[bj]
            } else {
                self.ub[bj]
            };
            if !bound.is_finite() {
                continue;
            }
            let ti = ((bound - self.xval[bj]) / delta + FEAS_TOL / delta.abs()).max(0.0);
            if ti < t_relaxed {
                t_relaxed = ti;
            }
        }
        if own_span.is_finite() && own_span <= t_relaxed {
            return Step::BoundFlip { t: own_span };
        }
        if !t_relaxed.is_finite() {
            return Step::Unbounded;
        }
        // Pass 2.
        let mut blocking: Option<usize> = None;
        let mut block_piv = 0.0f64;
        let mut t_exact = f64::INFINITY;
        for &i in self.w_sp.pattern() {
            let wi = self.w_sp.get(i);
            if wi.abs() <= PIVOT_TOL {
                continue;
            }
            let bj = self.basis[i];
            let delta = -dir * wi;
            let bound = if delta < 0.0 {
                self.lb[bj]
            } else {
                self.ub[bj]
            };
            if !bound.is_finite() {
                continue;
            }
            let ti = ((bound - self.xval[bj]) / delta).max(0.0);
            if ti <= t_relaxed && wi.abs() > block_piv {
                block_piv = wi.abs();
                blocking = Some(i);
                t_exact = ti;
            }
        }
        match blocking {
            Some(pos) => Step::Pivot { t: t_exact, pos },
            None => Step::Unbounded,
        }
    }

    /// Moves the entering variable by `t` along `dir` and updates all
    /// basic values via the sparse `self.w_sp`.
    fn apply_step(&mut self, q: usize, dir: f64, t: f64) {
        if t != 0.0 {
            self.xval[q] += dir * t;
            for idx in 0..self.w_sp.pattern().len() {
                let i = self.w_sp.pattern()[idx];
                let wi = self.w_sp.get(i);
                if wi != 0.0 {
                    let bj = self.basis[i];
                    self.xval[bj] -= dir * t * wi;
                }
            }
        }
    }

    /// Sum of artificial values (phase-1 objective).
    fn infeasibility(&self) -> f64 {
        (self.std.n..self.ncols()).map(|j| self.xval[j]).sum()
    }

    /// Anti-degeneracy bound expansion (EXPAND-flavoured): relaxes every
    /// finite structural/slack bound outward by a distinct tiny multiple
    /// of `magnitude` so basic variables do not pile up at exactly
    /// coinciding bounds (the root cause of degenerate ratio-test ties).
    /// The deterministic LCG keeps solves reproducible. Artificial
    /// columns (`j >= std.n`) are never expanded.
    fn expand_bounds(&mut self, magnitude: f64) {
        let mut state = 0x853c_49e6_748f_ea9bu64;
        let mut unit = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            0.25 + 0.75 * ((state >> 33) as f64 / (1u64 << 31) as f64)
        };
        for j in 0..self.std.n {
            if self.lb[j].is_finite() {
                self.lb[j] -= magnitude * (1.0 + self.lb[j].abs()) * unit();
            }
            if self.ub[j].is_finite() {
                self.ub[j] += magnitude * (1.0 + self.ub[j].abs()) * unit();
            }
        }
        self.expanded = true;
    }

    /// Mid-solve anti-degeneracy escalation: after `expand_after`
    /// ([`DEGEN_EXPAND`]) consecutive degenerate pivots on the real
    /// objective, expands the bounds one notch beyond any
    /// construction-time perturbation, snaps nonbasic columns onto the
    /// moved bounds and recomputes basic values through the current
    /// factors. Bounded: fires at most once per solve, at a magnitude
    /// still far below the feasibility tolerance, and the post-solve
    /// restoration (gated on `expanded`) undoes it. Only armed while
    /// optimizing the real objective — phase 1's artificial objective
    /// decides feasibility and must stay exact.
    fn maybe_expand_on_plateau(&mut self) {
        if !self.expand_armed
            || self.mid_expanded
            || self.expand_after == 0
            || self.degen_run < self.expand_after
            || self.factors.is_none()
        {
            return;
        }
        self.expand_bounds((DEFAULT_WARM_PERTURB * 8.0).min(FEAS_TOL * 0.125));
        for j in 0..self.std.n {
            match self.stat[j] {
                VStat::AtLower => self.xval[j] = self.lb[j],
                VStat::AtUpper => self.xval[j] = self.ub[j],
                _ => {}
            }
        }
        self.recompute_basic_values();
        self.mid_expanded = true;
        self.degen_run = 0;
        self.bland = false;
        self.stats.degen_expansions += 1;
    }

    /// Undoes the anti-degeneracy bound expansion after phase 2: every
    /// structural/slack column gets its original bounds back, nonbasic
    /// columns resting on a perturbed bound snap onto the true one, and
    /// basic values are recomputed through the (valid) factorization.
    /// Returns the worst bound violation among basic variables — zero
    /// means the perturbed optimum was already feasible for the true
    /// bounds and no cleanup is needed. (Artificial columns are frozen
    /// at `[0, 0]` after phase 1 and are never perturbed.)
    ///
    /// When no status, nonbasic value or factorization has moved since
    /// the hint load, the right-hand side it accumulated at the true
    /// bounds is this one, term for term: it is solved instead.
    fn restore_perturbed_bounds(&mut self) -> f64 {
        let n = self.std.n;
        self.lb[..n].copy_from_slice(&self.std.lb);
        self.ub[..n].copy_from_slice(&self.std.ub);
        for j in 0..n {
            match self.stat[j] {
                VStat::AtLower => self.xval[j] = self.lb[j],
                VStat::AtUpper => self.xval[j] = self.ub[j],
                _ => {}
            }
        }
        let kept = self.true_rhs_at.take() == Some(self.progress());
        match self.factors.take() {
            Some(mut factors) if kept => {
                note_kept(true);
                let rhs = std::mem::take(&mut self.true_rhs);
                self.solve_basic_values(&mut factors, &rhs);
                self.true_rhs = rhs;
                self.factors = Some(factors);
            }
            factors => {
                self.factors = factors;
                self.recompute_basic_values();
            }
        }
        let mut viol = 0.0f64;
        for &j in &self.basis {
            let v = self.xval[j];
            if v < self.lb[j] {
                viol = viol.max(self.lb[j] - v);
            }
            if v > self.ub[j] {
                viol = viol.max(v - self.ub[j]);
            }
        }
        viol
    }
}

/// Runs `f`, adding its wall time to `acc` — one of the
/// [`SolveStats`] time splits.
#[inline]
fn timed<R>(acc: &mut Duration, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed();
    out
}

/// What the ratio test decided.
enum Step {
    /// The entering variable travels to its opposite bound first.
    BoundFlip { t: f64 },
    /// The basic variable at `pos` blocks at step length `t`.
    Pivot { t: f64, pos: usize },
    /// Nothing blocks: the LP is unbounded in this direction.
    Unbounded,
}

/// Bound-perturbation magnitude of every **warm** solve's first attempt
/// whose hint loads: every finite bound is relaxed outward by a
/// deterministic pseudo-random amount of this relative magnitude (a hint
/// that does not fit takes the expansion back with it). Warm restarts land
/// on the previous optimal vertex, where the FFC models' many coinciding
/// bounds produce long degenerate phase-2 plateaus; a tiny deterministic
/// expansion breaks the ties. The value is far below the feasibility
/// tolerance so an already-optimal warm basis still finishes in zero
/// iterations and the post-solve restoration of the expanded bounds is a
/// no-op in the common case.
pub const DEFAULT_WARM_PERTURB: f64 = 1e-9;

/// The one way to run the simplex: every `solve_with` in the workspace
/// ([`Model::solve_with`], [`crate::IncrementalModel::solve_with`] and
/// the FFC wrappers above them) lowers to a [`StdForm`] and ends here,
/// so every solve's basis and duals index the model it was given.
///
/// `warm: Some(basis)` that loads changes three things against a cold
/// solve: the basis seeds the start, the dual simplex runs from it
/// instead of the primal crash + phase 1, and the bounds are expanded by
/// [`DEFAULT_WARM_PERTURB`] before the first attempt. A cold solve
/// expands nothing up front, and a hint that does not fit (wrong shape,
/// singular, or no dual start) changes nothing: the solve is the cold
/// one, bit for bit.
///
/// Numerical breakdowns climb a three-rung ladder before surfacing as
/// [`LpError::NumericalFailure`]: the solve **as given**; then once
/// **exact**, with the perturbation and plateau expansion disabled (the
/// expansion trades a little conditioning for fewer degenerate pivots;
/// on the rare model where that trade goes wrong the exact solve is the
/// fallback); then, for a warm solve, once **cold** — a hint whose basis
/// refactorizes singular must cost a slower solve, never an error.
///
/// `held` carries a factorization between solves of one standing form
/// (callers without one pass `&mut None`). The solve moves it in, and
/// the first factorization of the start basis takes it when its column
/// list is exactly the held one, or drops it before factorizing afresh;
/// no later refactorization looks at it. A successful solve whose last
/// factorization saw no pivot after it moves `LU(B)` of its final basis
/// back out — so the re-solve after a zero-iteration solve, from that
/// solve's basis, factorizes nothing. Every pivot is the one an empty
/// `held` gives: only [`SolveStats::factor_reused`] and the time splits
/// can tell the difference.
pub(crate) fn solve(
    std: &StdForm,
    opts: &SimplexOptions,
    warm: Option<&BasisStatuses>,
    held: &mut Option<HeldLu>,
) -> Result<Solution, LpError> {
    let mut result = solve_once(std, opts, warm, held, false);
    if matches!(result, Err(LpError::NumericalFailure(_))) {
        result = solve_once(std, opts, warm, held, true);
    }
    if warm.is_some() && matches!(result, Err(LpError::NumericalFailure(_))) {
        return solve(std, opts, None, held);
    }
    result
}

/// One simplex run (no retry ladder), passing the held factorization
/// in and the one the run leaves back out. `exact` is the ladder's
/// second rung: no up-front perturbation and no plateau expansion.
/// Otherwise a warm run expands the bounds by [`DEFAULT_WARM_PERTURB`]
/// before it loads the hint, and takes the expansion back if the hint
/// does not fit.
fn solve_once(
    std: &StdForm,
    opts: &SimplexOptions,
    hint: Option<&BasisStatuses>,
    held: &mut Option<HeldLu>,
    exact: bool,
) -> Result<Solution, LpError> {
    let mut eng = Engine::new(std, opts);
    if exact {
        eng.expand_after = 0;
    } else if hint.is_some() {
        eng.expand_bounds(DEFAULT_WARM_PERTURB);
    }
    eng.held = held.take();
    let sol = solve_std_once(&mut eng, hint)?;
    *held = eng.into_held();
    Ok(sol)
}

/// One simplex run over a lowered standard form.
///
/// A hint's fate is decided by one load. A hint that loads starts the
/// dual simplex — on the true costs when bound flips make its basis dual
/// feasible, on shifted costs otherwise — and phase 1 never runs. A hint
/// that does not fit is dropped with the bound expansion it came with,
/// and the run is the one `hint = None` gives: the crash basis, phase 1
/// and phase 2.
fn solve_std_once(eng: &mut Engine<'_>, hint: Option<&BasisStatuses>) -> Result<Solution, LpError> {
    let std = eng.std;
    let cost2 = std.obj.clone();
    if let Some(h) = hint {
        if eng.load_hint_basis(h) {
            // A loaded hint the true costs refuse keeps its basis: the
            // dual runs on shifted costs instead (see `shift_costs`). Its
            // `Infeasible` verdict reads no cost, and `finish_solve`'s
            // primal pass optimizes, and reports duals for, the true costs.
            let shifted;
            let dual_cost = if eng.dual_feasibilize(&cost2, true) {
                Some(&cost2[..])
            } else {
                shifted = eng.shift_costs(&cost2);
                eng.dual_feasibilize(&shifted, false)
                    .then_some(&shifted[..])
            };
            if let Some(cost) = dual_cost {
                eng.stats.hint_used = true;
                return match eng.optimize_dual(cost)? {
                    DualEnd::Feasible => finish_solve(eng, &cost2),
                    DualEnd::Infeasible => Err(LpError::Infeasible),
                };
            }
            // `shift_costs` prices every column no flip fixes at zero, so
            // only rounding can refuse the shifted start. Such a hint is
            // one that does not fit: it costs exactly a cold solve, like
            // a singular one, rather than a second warm start.
        }
        eng.drop_hint();
    }

    eng.crash_basis()?;
    // Phase 1: drive artificials to zero.
    if !eng.arts.is_empty() {
        let mut cost1 = vec![0.0; eng.ncols()];
        for c in cost1.iter_mut().skip(std.n) {
            *c = 1.0;
        }
        match eng.optimize(&cost1, false)? {
            PhaseEnd::Optimal => {}
            PhaseEnd::Unbounded => {
                return Err(LpError::NumericalFailure("phase 1 unbounded".into()))
            }
        }
        if eng.infeasibility() > 1e-6 {
            return Err(LpError::Infeasible);
        }
        // Freeze artificials at zero for phase 2.
        for j in std.n..eng.ncols() {
            eng.lb[j] = 0.0;
            eng.ub[j] = 0.0;
            if !matches!(eng.stat[j], VStat::Basic(_)) {
                eng.xval[j] = 0.0;
            }
        }
    }
    eng.stats.phase1_iterations = eng.iterations;
    finish_solve(eng, &cost2)
}

/// Tail of a solve: phase 2 on the real objective, perturbed bound
/// restoration, stats stamping and the solution report.
fn finish_solve(eng: &mut Engine<'_>, cost2: &[f64]) -> Result<Solution, LpError> {
    let std = eng.std;
    // Phase 2: optimize the real objective. After the dual loop this is
    // a cleanup pass that certifies optimality — normally 0 iterations,
    // and with phase 1 never run all of the dual path's iterations count
    // as phase 2.
    eng.expand_armed = true;
    match eng.optimize(cost2, true)? {
        PhaseEnd::Optimal => {}
        PhaseEnd::Unbounded => return Err(LpError::Unbounded),
    }

    // Post-solve restoration of expanded bounds (from a construction
    // perturbation, a mid-solve plateau expansion, or both). A solution
    // optimal for the expanded bounds is usually feasible for the true
    // ones once nonbasics snap back (the expansion is far below
    // feas_tol); when it is not, the snapped basis is still
    // dual-feasible — the costs never moved — so the dual simplex
    // repairs it. Should a plateau expansion fire *during* the repair
    // itself, the residual bound violation is at most feas_tol/8 —
    // invisible at solver tolerances.
    if eng.expanded {
        let viol = eng.restore_perturbed_bounds();
        if viol > FEAS_TOL {
            if !eng.dual_feasibilize(cost2, true) {
                return Err(LpError::NumericalFailure(
                    "bound restoration lost dual feasibility".into(),
                ));
            }
            match eng.optimize_dual(cost2)? {
                DualEnd::Feasible => {}
                DualEnd::Infeasible => return Err(LpError::Infeasible),
            }
            match eng.optimize(cost2, true)? {
                PhaseEnd::Optimal => {}
                PhaseEnd::Unbounded => return Err(LpError::Unbounded),
            }
        }
    }
    eng.stats.phase2_iterations = eng.iterations - eng.stats.phase1_iterations;
    eng.stats.full_pricing_passes = eng.pricer.full_passes;
    eng.stats.solve_time = eng.start.elapsed();

    // Report, including the basis for warm-starting future solves.
    let min_val: f64 = (0..std.n).map(|j| std.obj[j] * eng.xval[j]).sum();
    let values: Vec<f64> = eng.xval[..std.n_struct].to_vec();
    let statuses = (0..std.n)
        .map(|j| match eng.stat[j] {
            VStat::Basic(_) => ColStatus::Basic,
            VStat::AtLower => ColStatus::Lower,
            VStat::AtUpper => ColStatus::Upper,
            VStat::FreeZero => ColStatus::Free,
        })
        .collect();
    // Duals: the optimality check that ended phase 2 left
    // `eng.y = B⁻ᵀ c_B` for the final basis and the phase-2 costs.
    // Internally everything is a minimization; flip back to the
    // model's original sense.
    let duals: Vec<f64> = eng
        .y
        .iter()
        .map(|&yi| if std.maximize { -yi } else { yi })
        .collect();
    Ok(Solution {
        objective: std.report_objective(min_val),
        values,
        iterations: eng.iterations,
        basis: BasisStatuses(statuses),
        stats: eng.stats,
        duals,
    })
}

/// The column-at-a-time dot products the pivot row replaced, kept as
/// its bit-identity oracle.
#[cfg(test)]
impl Engine<'_> {
    /// Dot of column `j` with a sparse row-space vector.
    fn col_dot_sp(&self, j: usize, x: &ScatterVec) -> f64 {
        let mut acc = 0.0;
        col_apply(&self.std.a, &self.arts, self.std.n, j, |r, v| {
            acc += v * x.get(r)
        });
        acc
    }
}

#[cfg(test)]
mod kept_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{LinExpr, VarId};
    use crate::model::{Cmp, Model, Sense};

    #[test]
    fn repricing_by_changed_rows_keeps_every_reduced_cost_fresh() {
        // 120 rows, 240 columns of three entries each: far enough from
        // the all-slack start that many iterations change the duals of
        // a few rows, fewer than m/10. `price_columns` checks every kept
        // reduced cost against a fresh one on each pass in this crate's
        // tests.
        let mut state = 0x9e37_79b9u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let m = 120;
        let mut model = Model::new();
        let mut rows: Vec<LinExpr> = vec![LinExpr::default(); m];
        let mut objective = LinExpr::default();
        for _ in 0..240 {
            let x = model.add_var(0.0, 10.0, "");
            for _ in 0..3 {
                let r = (next() * m as f64) as usize % m;
                rows[r] += LinExpr::term(x, 0.5 + next());
            }
            objective += LinExpr::term(x, 1.0 + next());
        }
        for row in rows {
            model.add_con(row, Cmp::Le, 5.0 + 10.0 * next());
        }
        model.set_objective(objective, Sense::Maximize);
        let std = StdForm::from_model(&model);
        let mut eng = Engine::new(&std, &SimplexOptions::default());
        let sol = solve_std_once(&mut eng, None).unwrap();
        assert!(sol.iterations > 50, "{} iterations", sol.iterations);
        assert!(
            eng.partial_pricings > 10,
            "{} partial pricings",
            eng.partial_pricings
        );
        let reference = crate::dense::solve_dense(&model).unwrap();
        almost(sol.objective, reference.objective);
    }

    #[test]
    fn a_column_leaving_the_basis_is_repriced_while_the_duals_stand_still() {
        let model = classic_model();
        let std = StdForm::from_model(&model);
        let mut eng = Engine::new(&std, &SimplexOptions::default());
        eng.crash_basis().unwrap();
        let cost = std.obj.clone();
        eng.y.iter_mut().for_each(|y| *y = 0.5);
        eng.price_columns(&cost, true);
        let leaving = eng.basis[0];
        assert!(eng.d[leaving].is_nan(), "basic columns are not priced");
        // It leaves and no dual moves, so no changed row reaches it.
        eng.stat[leaving] = VStat::AtLower;
        eng.queue_reprice(leaving);
        eng.price_columns(&cost, false);
        let fresh = cost[leaving] - std.a.dot_col(leaving, &eng.y);
        assert_eq!(eng.d[leaving].to_bits(), fresh.to_bits());
    }

    #[test]
    fn pivot_row_matches_column_dots_on_both_sides_of_the_switch() {
        // 40 rows; every column has an entry in each of rows 0..4 (so
        // sums over ρ's rows have several terms, whose order shows in
        // the bits) plus a scattered one. Some entries are explicitly
        // stored zeros, and three rows carry artificial columns.
        let mut state = 0x0dd_ba11u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let m = 40;
        let mut model = Model::new();
        let vars: Vec<VarId> = (0..60).map(|k| model.add_nonneg(format!("x{k}"))).collect();
        let mut rows: Vec<LinExpr> = vec![LinExpr::default(); m];
        for (k, &v) in vars.iter().enumerate() {
            for row in rows.iter_mut().take(4) {
                *row += LinExpr::term(v, next() * 3.0);
            }
            rows[4 + (k * 7) % (m - 4)] += LinExpr::term(v, next());
        }
        for row in rows {
            model.add_con(row, Cmp::Le, 1.0);
        }
        let mut std = StdForm::from_model(&model);
        for (r, j) in [(0, 3), (2, 3), (1, 17), (3, 40), (0, 59)] {
            assert!(std.a.set_entry(r, j, 0.0));
        }
        let arts = vec![(1, 1.0), (3, -1.0), (22, 1.0)];
        let mut eng = Engine::new(&std, &SimplexOptions::default());
        eng.arts = arts.clone();
        let ncols = std.n + arts.len();
        let keep = |j: usize| j % 5 != 2;
        let mut prow = PivotRow::default();
        // ρ with 1..=m/10 nonzeros goes row-wise, more goes column-wise.
        for nnz in [1, 2, 4, 5, 12, m] {
            let mut rho = ScatterVec::new(m);
            // Rows 3, 2, 1, 0 first, then scattered ones, inserted
            // unordered: the row-wise pass must sort them.
            for k in (0..nnz).rev() {
                let r = if k < 4 { 3 - k } else { 4 + (k * 13) % (m - 4) };
                rho.set(r, next() * 2.0);
            }
            prow.load(&std, &arts, &rho);
            let mut got = vec![None; ncols];
            for (j, alpha) in prow.entries(&std, &arts, &rho, keep) {
                assert!(got[j].replace(alpha).is_none(), "column {j} listed twice");
            }
            for (j, got) in got.iter().enumerate() {
                let want = eng.col_dot_sp(j, &rho);
                let want = (keep(j) && want != 0.0).then_some(want.to_bits());
                assert_eq!(got.map(f64::to_bits), want, "ρ nnz {nnz}, column {j}");
            }
        }
    }

    fn almost(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn trivial_bound_only() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 4.0, "x");
        m.set_objective(LinExpr::from(x), Sense::Maximize);
        let s = m.solve().unwrap();
        almost(s.objective, 4.0);
        almost(s.value(x), 4.0);
    }

    #[test]
    fn classic_2d_lp() {
        // max 3x + 5y, x<=4, 2y<=12, 3x+2y<=18 -> x=2,y=6,obj=36.
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        m.add_con(LinExpr::from(x), Cmp::Le, 4.0);
        m.add_con(LinExpr::term(y, 2.0), Cmp::Le, 12.0);
        m.add_con(LinExpr::term(x, 3.0) + LinExpr::term(y, 2.0), Cmp::Le, 18.0);
        m.set_objective(
            LinExpr::term(x, 3.0) + LinExpr::term(y, 5.0),
            Sense::Maximize,
        );
        let s = m.solve().unwrap();
        almost(s.objective, 36.0);
        almost(s.value(x), 2.0);
        almost(s.value(y), 6.0);
    }

    #[test]
    fn equality_constraint_needs_phase1() {
        // min x + y, x + y = 5, x <= 3 -> obj 5.
        let mut m = Model::new();
        let x = m.add_var(0.0, 3.0, "x");
        let y = m.add_nonneg("y");
        m.add_con(LinExpr::from(x) + y, Cmp::Eq, 5.0);
        m.set_objective(LinExpr::from(x) + y, Sense::Minimize);
        let s = m.solve().unwrap();
        almost(s.objective, 5.0);
        almost(s.value(x) + s.value(y), 5.0);
    }

    #[test]
    fn ge_constraint_needs_phase1() {
        // min 2x + y, x + y >= 4, x,y >= 0 -> y=4, obj=4.
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        m.add_con(LinExpr::from(x) + y, Cmp::Ge, 4.0);
        m.set_objective(LinExpr::term(x, 2.0) + y, Sense::Minimize);
        let s = m.solve().unwrap();
        almost(s.objective, 4.0);
        almost(s.value(y), 4.0);
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0, "x");
        m.add_con(LinExpr::from(x), Cmp::Ge, 2.0);
        assert_eq!(m.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        m.set_objective(LinExpr::from(x), Sense::Maximize);
        assert_eq!(m.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn free_variable_optimum() {
        // min x^2-like: min y s.t. y >= x - 2, y >= -x, x free.
        // Optimum at x=1, y=-1.
        let mut m = Model::new();
        let x = m.add_free("x");
        let y = m.add_free("y");
        m.add_con(LinExpr::from(y) - x, Cmp::Ge, -2.0);
        m.add_con(LinExpr::from(y) + x, Cmp::Ge, 0.0);
        m.set_objective(LinExpr::from(y), Sense::Minimize);
        let s = m.solve().unwrap();
        almost(s.objective, -1.0);
        almost(s.value(x), 1.0);
    }

    #[test]
    fn upper_bounded_variables_flip() {
        // max x + y with x,y in [1, 2], x + y <= 3.5.
        let mut m = Model::new();
        let x = m.add_var(1.0, 2.0, "x");
        let y = m.add_var(1.0, 2.0, "y");
        m.add_con(LinExpr::from(x) + y, Cmp::Le, 3.5);
        m.set_objective(LinExpr::from(x) + y, Sense::Maximize);
        let s = m.solve().unwrap();
        almost(s.objective, 3.5);
    }

    #[test]
    fn negative_rhs_le() {
        // x <= -1 with x in [-5, 5]; max x -> -1.
        let mut m = Model::new();
        let x = m.add_var(-5.0, 5.0, "x");
        m.add_con(LinExpr::from(x), Cmp::Le, -1.0);
        m.set_objective(LinExpr::from(x), Sense::Maximize);
        let s = m.solve().unwrap();
        almost(s.objective, -1.0);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Multiple redundant constraints through the same vertex.
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        for _ in 0..10 {
            m.add_con(LinExpr::from(x) + y, Cmp::Le, 1.0);
            m.add_con(LinExpr::term(x, 2.0) + LinExpr::term(y, 2.0), Cmp::Le, 2.0);
        }
        m.set_objective(LinExpr::from(x) + LinExpr::term(y, 0.5), Sense::Maximize);
        let s = m.solve().unwrap();
        almost(s.objective, 1.0);
    }

    #[test]
    fn no_constraints_bounded() {
        let mut m = Model::new();
        let x = m.add_var(-3.0, 7.0, "x");
        m.set_objective(LinExpr::term(x, -2.0), Sense::Minimize);
        let s = m.solve().unwrap();
        almost(s.objective, -14.0);
        almost(s.value(x), 7.0);
    }

    #[test]
    fn fixed_variable_respected() {
        let mut m = Model::new();
        let x = m.add_var(2.0, 2.0, "x");
        let y = m.add_nonneg("y");
        m.add_con(LinExpr::from(x) + y, Cmp::Le, 5.0);
        m.set_objective(LinExpr::from(y), Sense::Maximize);
        let s = m.solve().unwrap();
        almost(s.objective, 3.0);
        almost(s.value(x), 2.0);
    }

    /// A vertex where several constraints coincide: from the origin the
    /// first pivot on `x` is blocked at step 0 by two slacks at once, so
    /// the solve is guaranteed at least one degenerate pivot.
    fn stalled_lp() -> (Model, VarId, VarId) {
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        m.add_con(LinExpr::from(x) - LinExpr::from(y), Cmp::Le, 0.0);
        m.add_con(LinExpr::from(x) - LinExpr::term(y, 2.0), Cmp::Le, 0.0);
        m.add_con(LinExpr::from(x) + y, Cmp::Le, 1.0);
        m.set_objective(LinExpr::from(x), Sense::Maximize);
        (m, x, y)
    }

    /// A cold solve whose plateau expansion fires after `expand_after`
    /// consecutive degenerate pivots (`0`: never).
    fn solve_expanding_after(m: &Model, expand_after: usize) -> Solution {
        let std = StdForm::from_model(m);
        let mut eng = Engine::new(&std, &SimplexOptions::default());
        eng.expand_after = expand_after;
        solve_std_once(&mut eng, None).unwrap()
    }

    #[test]
    fn plateau_expansion_fires_and_preserves_optimum() {
        let (m, x, _) = stalled_lp();
        let exact = solve_expanding_after(&m, 0);
        assert_eq!(exact.stats.degen_expansions, 0);
        let s = solve_expanding_after(&m, 1);
        assert!(s.stats.degenerate_pivots >= 1);
        assert_eq!(s.stats.degen_expansions, 1, "one-shot expansion fires");
        assert!((s.objective - 0.5).abs() < 1e-6, "{}", s.objective);
        assert!((s.objective - exact.objective).abs() < 1e-6);
        // Restoration snapped back onto the true bounds.
        assert!(s.value(x) >= -1e-9, "{}", s.value(x));
    }

    #[test]
    fn iteration_count_reported() {
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        m.add_con(LinExpr::from(x), Cmp::Le, 1.0);
        m.set_objective(LinExpr::from(x), Sense::Maximize);
        let s = m.solve().unwrap();
        assert!(s.iterations >= 1);
    }

    #[test]
    fn triangular_crash_handles_equality_chains() {
        // A chain of comparator-like definitions: free vars defined by
        // equalities feeding each other — the structure the crash is
        // built for. With the crash, phase 1 has nothing to do.
        let mut m = Model::new();
        let x = m.add_var(0.0, 4.0, "x");
        let y = m.add_var(0.0, 6.0, "y");
        let mut prev = LinExpr::from(x) + LinExpr::from(y);
        let mut last = None;
        for i in 0..20 {
            let v = m.add_free(format!("chain{i}"));
            // 2v = prev + 1.
            m.add_con(LinExpr::term(v, 2.0) - prev.clone(), Cmp::Eq, 1.0);
            prev = LinExpr::from(v);
            last = Some(v);
        }
        // Bound the end of the chain.
        let v = last.unwrap();
        m.add_con(LinExpr::from(v), Cmp::Le, 3.0);
        m.set_objective(LinExpr::from(x) + LinExpr::from(y), Sense::Maximize);
        let s = m.solve().unwrap();
        // chain_i = (x+y)/2^i + (1 - 2^{-i}); as i -> 20, v ≈ 1 + (x+y)/2^20
        // <= 3 is slack: optimum x=4, y=6.
        assert!((s.objective - 10.0).abs() < 1e-5, "{}", s.objective);
    }

    /// Beale's classic cycling example: Dantzig pricing with exact
    /// arithmetic cycles forever on this LP; the engine must terminate
    /// at the optimum (-1/20) regardless.
    #[test]
    fn beale_cycling_example_terminates() {
        let mut m = Model::new();
        let x4 = m.add_nonneg("x4");
        let x5 = m.add_nonneg("x5");
        let x6 = m.add_nonneg("x6");
        let x7 = m.add_nonneg("x7");
        m.add_con(
            LinExpr::term(x4, 0.25)
                + LinExpr::term(x5, -60.0)
                + LinExpr::term(x6, -1.0 / 25.0)
                + LinExpr::term(x7, 9.0),
            Cmp::Le,
            0.0,
        );
        m.add_con(
            LinExpr::term(x4, 0.5)
                + LinExpr::term(x5, -90.0)
                + LinExpr::term(x6, -1.0 / 50.0)
                + LinExpr::term(x7, 3.0),
            Cmp::Le,
            0.0,
        );
        m.add_con(LinExpr::from(x6), Cmp::Le, 1.0);
        m.set_objective(
            LinExpr::term(x4, -0.75)
                + LinExpr::term(x5, 150.0)
                + LinExpr::term(x6, -1.0 / 50.0)
                + LinExpr::term(x7, 6.0),
            Sense::Minimize,
        );
        let s = m.solve().unwrap();
        almost(s.objective, -1.0 / 20.0);
    }

    #[test]
    fn warm_start_identical_model_is_instant() {
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        m.add_con(LinExpr::from(x), Cmp::Le, 4.0);
        m.add_con(LinExpr::term(y, 2.0), Cmp::Le, 12.0);
        m.add_con(LinExpr::term(x, 3.0) + LinExpr::term(y, 2.0), Cmp::Le, 18.0);
        m.set_objective(
            LinExpr::term(x, 3.0) + LinExpr::term(y, 5.0),
            Sense::Maximize,
        );
        let cold = m.solve().unwrap();
        let warm = m
            .solve_with(&SimplexOptions::default(), Some(&cold.basis))
            .unwrap();
        almost(warm.objective, cold.objective);
        // Re-solving from the optimal basis needs no pivots at all.
        assert_eq!(
            warm.iterations, 0,
            "warm took {} iterations",
            warm.iterations
        );
        assert!(warm.stats.hint_used && !cold.stats.hint_used);
    }

    #[test]
    fn warm_start_after_bound_change_is_correct() {
        let build = |cap: f64| {
            let mut m = Model::new();
            let x = m.add_nonneg("x");
            let y = m.add_nonneg("y");
            m.add_con(LinExpr::from(x), Cmp::Le, cap);
            m.add_con(LinExpr::term(y, 2.0), Cmp::Le, 12.0);
            m.add_con(LinExpr::term(x, 3.0) + LinExpr::term(y, 2.0), Cmp::Le, 18.0);
            m.set_objective(
                LinExpr::term(x, 3.0) + LinExpr::term(y, 5.0),
                Sense::Maximize,
            );
            m
        };
        let cold = build(4.0).solve().unwrap();
        // Loosen the first capacity: warm solve must track the new
        // optimum (x = 2 is interior now; answer still 36 since row 3
        // binds, then grows when it relaxes... here just compare).
        let m2 = build(10.0);
        let warm = m2
            .solve_with(&SimplexOptions::default(), Some(&cold.basis))
            .unwrap();
        let fresh = m2.solve().unwrap();
        almost(warm.objective, fresh.objective);
        // The old vertex stays optimal: no pivots, no plateau expansion.
        assert_eq!(warm.stats.iterations(), 0);
        assert_eq!(warm.stats.degen_expansions, 0);
    }

    /// An LP whose ratio test ties: a bound expansion breaks the tie the
    /// other way and costs two more pivots than the exact solve.
    fn tie_lp() -> Model {
        let mut m = Model::new();
        let x = m.add_var(0.0, 2.0, "x");
        let y = m.add_nonneg("y");
        let z = m.add_var(0.0, 2.0, "z");
        m.add_con(LinExpr::from(z) - x, Cmp::Le, 1.0);
        m.add_con(LinExpr::term(z, 2.0) - y, Cmp::Le, 1.0);
        m.add_con(
            LinExpr::term(z, 2.0) - LinExpr::term(x, 2.0) - y,
            Cmp::Le,
            1.0,
        );
        m.add_con(LinExpr::term(z, 2.0) - LinExpr::term(y, 2.0), Cmp::Le, 1.0);
        m.set_objective(LinExpr::term(z, 3.0) - x - y, Sense::Maximize);
        m
    }

    /// [`solve`] owns the perturbation: the as-given attempt of a hinted
    /// solve expands the bounds by [`DEFAULT_WARM_PERTURB`], the exact
    /// rung expands nothing. On this LP the expansion breaks a ratio-test
    /// tie the other way, so the pivot count tells the two apart.
    #[test]
    fn warm_solve_defaults_the_perturbation() {
        let m = tie_lp();
        // The all-slack start, as a hint.
        let mut statuses = vec![ColStatus::Lower; 3];
        statuses.extend([ColStatus::Basic; 4]);
        let hint = BasisStatuses(statuses);
        let opts = SimplexOptions::default();
        let std = StdForm::from_model(&m);
        let rung = |exact: bool| solve_once(&std, &opts, Some(&hint), &mut None, exact).unwrap();
        let (warm, exact) = (rung(false), rung(true));
        let solved = m.solve_with(&opts, Some(&hint)).unwrap();
        assert_eq!(warm.stats.iterations(), 4);
        assert_eq!(solved.stats.iterations(), 4);
        assert_eq!(solved.basis, warm.basis);
        assert_eq!(exact.stats.iterations(), 2);
        almost(warm.objective, exact.objective);
    }

    /// The solve a hint that does not fit gives, against `hint = None`'s
    /// under the same options: the same objective, values and duals bit
    /// for bit, the same statuses and the same iteration counts — and no
    /// claim that the hint seeded anything.
    fn assert_falls_back_cold(m: &Model, hint: &BasisStatuses) {
        let opts = SimplexOptions::default();
        let cold = m.solve_with(&opts, None).unwrap();
        let fell = m.solve_with(&opts, Some(hint)).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(fell.objective.to_bits(), cold.objective.to_bits());
        assert_eq!(bits(&fell.values), bits(&cold.values));
        assert_eq!(bits(&fell.duals), bits(&cold.duals));
        assert_eq!(fell.basis, cold.basis);
        let counts = |s: &SolveStats| (s.phase1_iterations, s.phase2_iterations, s.dual_iterations);
        assert_eq!(counts(&fell.stats), counts(&cold.stats));
        assert!(
            !fell.stats.hint_used,
            "a hint that does not fit seeds nothing"
        );
    }

    #[test]
    fn warm_start_with_wrong_shape_falls_back() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 5.0, "x");
        m.set_objective(LinExpr::from(x), Sense::Maximize);
        let hint = crate::model::BasisStatuses(vec![crate::model::ColStatus::Basic; 17]);
        let s = m
            .solve_with(&SimplexOptions::default(), Some(&hint))
            .unwrap();
        almost(s.objective, 5.0);
        assert_falls_back_cold(&m, &hint);
        // Where the warm perturbation would change the pivots, the
        // fallback still runs on the model's own bounds.
        assert_falls_back_cold(&tie_lp(), &BasisStatuses(vec![ColStatus::Basic; 6]));
    }

    /// Two parallel rows, and a hint with both structurals basic: a
    /// singular basis.
    pub(super) fn parallel_rows() -> (Model, BasisStatuses) {
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        m.add_con(LinExpr::from(x) + y, Cmp::Le, 4.0);
        m.add_con(LinExpr::term(x, 2.0) + LinExpr::term(y, 2.0), Cmp::Le, 10.0);
        m.set_objective(LinExpr::from(x) + y, Sense::Maximize);
        let hint = BasisStatuses(vec![
            ColStatus::Basic,
            ColStatus::Basic,
            ColStatus::Lower,
            ColStatus::Lower,
        ]);
        (m, hint)
    }

    #[test]
    fn singular_hint_falls_back_and_says_so() {
        let (m, hint) = parallel_rows();
        let s = m
            .solve_with(&SimplexOptions::default(), Some(&hint))
            .unwrap();
        almost(s.objective, 4.0);
        assert_falls_back_cold(&m, &hint);
    }

    /// The hint's fate is decided by one load: a singular hint costs one
    /// failed factorization on top of the cold solve's.
    #[test]
    fn singular_hint_is_factorized_once() {
        let (m, hint) = parallel_rows();
        let factorizations = |hint: Option<&BasisStatuses>| {
            FRESH_FACTORIZATIONS.with(|c| c.set(0));
            m.solve_with(&SimplexOptions::default(), hint).unwrap();
            FRESH_FACTORIZATIONS.with(std::cell::Cell::get)
        };
        let cold = factorizations(None);
        assert_eq!(factorizations(Some(&hint)), cold + 1);
    }

    #[test]
    fn warm_start_infeasible_structural_falls_back() {
        // Optimal basis has x basic at 6; shrink x's bound below that:
        // the warm basis is primal-infeasible on a structural variable
        // and must be rejected in favour of a cold start.
        let build = |xub: f64| {
            let mut m = Model::new();
            let x = m.add_var(0.0, xub, "x");
            let y = m.add_nonneg("y");
            m.add_con(LinExpr::from(x) + y, Cmp::Ge, 2.0);
            m.set_objective(LinExpr::from(x) + LinExpr::term(y, 2.0), Sense::Minimize);
            m
        };
        let cold = build(10.0).solve().unwrap();
        let m2 = build(1.0);
        let warm = m2
            .solve_with(&SimplexOptions::default(), Some(&cold.basis))
            .unwrap();
        let fresh = m2.solve().unwrap();
        almost(warm.objective, fresh.objective);
    }

    /// Builds the classic 2-variable LP used by several tests.
    fn classic_model() -> Model {
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        m.add_con(LinExpr::from(x), Cmp::Le, 4.0);
        m.add_con(LinExpr::term(y, 2.0), Cmp::Le, 12.0);
        m.add_con(LinExpr::term(x, 3.0) + LinExpr::term(y, 2.0), Cmp::Le, 18.0);
        m.set_objective(
            LinExpr::term(x, 3.0) + LinExpr::term(y, 5.0),
            Sense::Maximize,
        );
        m
    }

    #[test]
    fn solve_stats_populated() {
        let m = classic_model();
        let s = m.solve().unwrap();
        assert_eq!(s.stats.iterations(), s.iterations);
        assert!(s.stats.refactorizations >= 1);
        assert!(s.stats.full_pricing_passes >= 1);
        assert!(s.stats.solve_time > std::time::Duration::ZERO);
    }

    #[test]
    fn warm_auto_restarts_in_dual_after_bound_shrink() {
        // Shrinking a basic variable's bound leaves the old optimal
        // basis primal-infeasible but dual-feasible: the warm solve must
        // re-enter via dual iterations, with no phase 1 at all.
        let build = |xub: f64| {
            let mut m = Model::new();
            let x = m.add_var(0.0, xub, "x");
            let y = m.add_var(0.0, 100.0, "y");
            m.add_con(LinExpr::from(x) + y, Cmp::Ge, 2.0);
            m.add_con(LinExpr::from(x) + LinExpr::term(y, 2.0), Cmp::Le, 30.0);
            m.set_objective(LinExpr::from(x) + LinExpr::term(y, 2.0), Sense::Minimize);
            m
        };
        let cold = build(10.0).solve().unwrap();
        let m2 = build(1.0);
        let warm = m2
            .solve_with(&SimplexOptions::default(), Some(&cold.basis))
            .unwrap();
        let fresh = m2.solve().unwrap();
        almost(warm.objective, fresh.objective);
        assert_eq!(
            warm.stats.phase1_iterations, 0,
            "dual restart must not run phase 1: {:?}",
            warm.stats
        );
        assert!(warm.stats.hint_used);
    }

    /// `max x + 2y` over `x + y ≤ 4`, `x + t·y ≤ 6` and `x + y ≥ g`. At
    /// `t = 3`, `g = 1` the optimum is the vertex `(3, 1)` of the first
    /// two rows, with both structurals basic.
    pub(super) fn coefficient_model(t: f64, g: f64) -> Model {
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        m.add_con(LinExpr::from(x) + y, Cmp::Le, 4.0);
        m.add_con(LinExpr::from(x) + LinExpr::term(y, t), Cmp::Le, 6.0);
        m.add_con(LinExpr::from(x) + y, Cmp::Ge, g);
        m.set_objective(LinExpr::from(x) + LinExpr::term(y, 2.0), Sense::Maximize);
        m
    }

    /// At `t = 1.25` the old basis puts `x` at −4 and prices the first
    /// row's slack (bounds `[0, ∞)`, nothing to flip to) at the wrong
    /// sign: no bound flip makes the hint dual-feasible. The solve keeps
    /// it anyway — the dual runs on shifted costs, the primal pass on
    /// the true ones — and lands on the cold optimum, `(0, 4)`.
    #[test]
    fn warm_dual_start_shifts_costs_the_hint_prices_wrong() {
        let hint = coefficient_model(3.0, 1.0).solve().unwrap().basis;
        assert_eq!(&hint.0[..2], &[ColStatus::Basic, ColStatus::Basic]);
        let m = coefficient_model(1.25, 1.0);
        let cold = m.solve().unwrap();
        let warm = m
            .solve_with(&SimplexOptions::default(), Some(&hint))
            .unwrap();
        almost(warm.objective, cold.objective);
        almost(warm.objective, 8.0);
        assert!(warm.stats.hint_used, "{:?}", warm.stats);
        assert!(warm.stats.dual_iterations > 0, "{:?}", warm.stats);
        assert_eq!(warm.stats.phase1_iterations, 0, "{:?}", warm.stats);
        // The duals are the true costs' at the optimum: only the first
        // row binds, at price 2.
        almost(warm.duals[0], 2.0);
        almost(warm.duals[1], 0.0);
    }

    /// The same shifted start on a model with no feasible point
    /// (`x + y ≥ 5` against `x + y ≤ 4`): the dual's verdict reads no
    /// cost, so it is the cold primal's.
    #[test]
    fn warm_shifted_dual_start_detects_infeasible() {
        let hint = coefficient_model(3.0, 1.0).solve().unwrap().basis;
        let m = coefficient_model(1.25, 5.0);
        assert_eq!(m.solve().unwrap_err(), LpError::Infeasible);
        assert_eq!(
            m.solve_with(&SimplexOptions::default(), Some(&hint))
                .unwrap_err(),
            LpError::Infeasible
        );
    }

    #[test]
    fn transport_like_equalities() {
        // Balanced transportation problem, 2 sources x 2 sinks.
        // supply [3, 4], demand [5, 2]; costs [[1, 4], [2, 1]].
        let mut m = Model::new();
        let x00 = m.add_nonneg("x00");
        let x01 = m.add_nonneg("x01");
        let x10 = m.add_nonneg("x10");
        let x11 = m.add_nonneg("x11");
        m.add_con(LinExpr::from(x00) + x01, Cmp::Eq, 3.0);
        m.add_con(LinExpr::from(x10) + x11, Cmp::Eq, 4.0);
        m.add_con(LinExpr::from(x00) + x10, Cmp::Eq, 5.0);
        m.add_con(LinExpr::from(x01) + x11, Cmp::Eq, 2.0);
        m.set_objective(
            LinExpr::term(x00, 1.0)
                + LinExpr::term(x01, 4.0)
                + LinExpr::term(x10, 2.0)
                + LinExpr::term(x11, 1.0),
            Sense::Minimize,
        );
        let s = m.solve().unwrap();
        // Optimal: x00=3, x10=2, x11=2 -> 3 + 4 + 2 = 9.
        almost(s.objective, 9.0);
    }

    /// A model that needs several iterations (used by the limit tests).
    fn multi_iteration_model() -> Model {
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        m.add_con(LinExpr::from(x), Cmp::Le, 4.0);
        m.add_con(LinExpr::term(y, 2.0), Cmp::Le, 12.0);
        m.add_con(LinExpr::term(x, 3.0) + LinExpr::term(y, 2.0), Cmp::Le, 18.0);
        m.set_objective(
            LinExpr::term(x, 3.0) + LinExpr::term(y, 5.0),
            Sense::Maximize,
        );
        m
    }

    #[test]
    fn iteration_limit_is_recoverable_with_partial_stats() {
        let m = multi_iteration_model();
        let opts = SimplexOptions {
            max_iters: 1,
            ..SimplexOptions::default()
        };
        match m.solve_with(&opts, None) {
            Err(LpError::LimitExceeded { limit, stats }) => {
                assert_eq!(limit, crate::LimitKind::Iterations);
                assert!(stats.iterations() >= 1, "partial counters: {stats:?}");
            }
            other => panic!("expected LimitExceeded, got {other:?}"),
        }
        // The same model solves fine with the default budget.
        assert!(m.solve().is_ok());
    }

    #[test]
    fn limit_exceeded_is_flagged_recoverable() {
        let m = multi_iteration_model();
        let opts = SimplexOptions {
            max_iters: 1,
            ..SimplexOptions::default()
        };
        let err = m.solve_with(&opts, None).unwrap_err();
        assert!(err.is_limit());
        assert!(!LpError::Infeasible.is_limit());
    }

    #[test]
    fn injected_singular_refactorization_fails_numerically() {
        let m = multi_iteration_model();
        let opts = SimplexOptions {
            inject_singular_after: 1,
            ..SimplexOptions::default()
        };
        match m.solve_with(&opts, None) {
            Err(LpError::NumericalFailure(msg)) => {
                assert!(msg.contains("injected"), "unexpected message: {msg}");
            }
            other => panic!("expected injected NumericalFailure, got {other:?}"),
        }
    }

    /// The walk the heap replaced: every candidate sorted by (ratio by
    /// `total_cmp`, column), then walked by index.
    fn sorted_walk(
        cands: &[RatioCand],
        mut flip: impl FnMut(&RatioCand) -> bool,
    ) -> Vec<RatioCand> {
        let mut sorted = cands.to_vec();
        sorted.sort_unstable_by(|x, z| x.ratio.total_cmp(&z.ratio).then(x.j.cmp(&z.j)));
        let mut q_idx = sorted.len().saturating_sub(1);
        for (idx, c) in sorted.iter().enumerate() {
            if idx + 1 == sorted.len() || !flip(c) {
                q_idx = idx;
                break;
            }
        }
        sorted.truncate(q_idx + 1);
        sorted
    }

    #[test]
    fn heap_ratio_walk_visits_the_sorted_prefix_bitwise() {
        let mut state = 0x0d0a_11e5u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let key = |v: &[RatioCand]| {
            v.iter()
                .map(|c| (c.j, c.alpha.to_bits(), c.ratio.to_bits()))
                .collect::<Vec<_>>()
        };
        let (mut cands, mut walked) = (Vec::new(), Vec::new());
        let mut long_budget_walks = 0;
        for trial in 0..400 {
            let k = 1 + trial % 61;
            // Distinct columns in shuffled order; ratios drawn from a
            // few values, both zeros among them, so most of them tie.
            let mut cols: Vec<usize> = (0..3 * k).collect();
            for i in (1..cols.len()).rev() {
                cols.swap(i, (next().abs() * (i + 1) as f64) as usize % (i + 1));
            }
            let list: Vec<RatioCand> = cols[..k]
                .iter()
                .map(|&j| {
                    let ratio = match (next().abs() * 6.0) as usize {
                        0 => 0.0,
                        1 => -0.0,
                        2 => 0.5,
                        3 => 1.0,
                        _ => next().abs() * 2.0,
                    };
                    RatioCand {
                        j,
                        alpha: next() * 4.0,
                        ratio,
                    }
                })
                .collect();
            // Spans per column, some unbounded, and a leaving row's
            // excess to spend as the dual loop does.
            let span: Vec<f64> = (0..3 * k)
                .map(|_| {
                    if next() < -0.6 {
                        f64::INFINITY
                    } else {
                        next().abs()
                    }
                })
                .collect();
            let excess = next().abs() * k as f64;
            let span = &span;
            let flip = |rule: &'static str| {
                let mut delta = excess;
                move |c: &RatioCand| match rule {
                    "budget" => {
                        let step = span[c.j] * c.alpha.abs();
                        let can_flip = step.is_finite() && delta - step > FEAS_TOL;
                        if can_flip {
                            delta -= step;
                        }
                        can_flip
                    }
                    "never flip" => false,
                    _ => true,
                }
            };
            for rule in ["budget", "flip all but the last", "never flip"] {
                cands.clear();
                cands.extend_from_slice(&list);
                ratio_walk(&mut cands, &mut walked, flip(rule));
                let want = sorted_walk(&list, flip(rule));
                assert_eq!(key(&walked), key(&want), "trial {trial}, {rule}");
                assert!(cands.is_empty() && cands.capacity() >= k, "allocation kept");
                if rule == "budget" && walked.len() > 2 {
                    long_budget_walks += 1;
                }
            }
            let mut all = Vec::new();
            ratio_walk(&mut list.clone(), &mut all, |_| true);
            assert_eq!(
                all.len(),
                k,
                "a walk flipping all but the last visits every candidate"
            );
        }
        assert!(
            long_budget_walks > 50,
            "{long_budget_walks} budget walks flipped twice"
        );
    }
}
