//! Bounded-variable two-phase revised simplex.
//!
//! The engine operates on the standard form produced by
//! [`crate::standard::StdForm`]: `min cᵀx, A·x = b, l ≤ x ≤ u`, where the
//! columns are structural variables followed by one slack per row.
//!
//! * **Start basis**: all slacks. Rows whose slack value would violate the
//!   slack's bounds receive an *artificial* column (`±eᵢ`, bounds
//!   `[0, ∞)`); phase 1 minimizes the sum of artificials.
//! * **Pricing**: selectable via [`SimplexOptions::pricing`] — Dantzig,
//!   devex (default), or devex over a bounded candidate list
//!   ([`crate::pricing`]). All rules switch to Bland's rule after a long
//!   run of degenerate pivots to guarantee termination.
//! * **Ratio test**: bounded-variable, including bound flips of the
//!   entering variable (no basis change).
//! * **Factorization**: sparse LU ([`crate::lu`]) with product-form eta
//!   updates ([`crate::basis`]), refactorizing periodically and
//!   recomputing basic values from scratch to contain drift. The
//!   per-iteration solves (entering column FTRAN, devex pivot-row BTRAN)
//!   use the sparse-RHS paths; only the per-refactorization value
//!   recomputation and the cost-vector BTRAN stay dense.

// audit:allow-file(float-eq): exact-zero comparisons here are
// structural sparsity guards (skip entries that are identically zero),
// not approximate value checks.

use crate::basis::Basis;
use crate::model::{BasisStatuses, ColStatus, LimitKind, LpError, Solution, SolveStats};
use crate::pricing::{Pricer, Pricing};
use crate::sparse::ScatterVec;
use crate::standard::StdForm;

/// Which simplex variant drives a solve (see [`SimplexOptions::algorithm`]).
///
/// The dual simplex targets the re-solve workload: after a bound change
/// (a fault scenario pinning tunnel variables, a protection-level change)
/// the old optimal basis stays **dual**-feasible — the objective did not
/// move — while primal feasibility is lost. The dual restarts from that
/// basis directly instead of re-running primal phase 1 + a degenerate
/// phase-2 walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// Bounded-variable two-phase primal simplex.
    Primal,
    /// Dual simplex. Falls back to the primal when no dual-feasible
    /// start basis can be constructed (see [`SimplexOptions::algorithm`]).
    Dual,
    /// Dual for warm starts whose basis is (or can be flipped to be)
    /// dual-feasible; primal otherwise. Cold solves always run primal.
    #[default]
    Auto,
}

/// Tunable parameters for the simplex engine.
#[derive(Debug, Clone)]
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
    /// Primal feasibility tolerance.
    pub feas_tol: f64,
    /// Dual (reduced-cost) optimality tolerance.
    pub opt_tol: f64,
    /// Minimum magnitude for a ratio-test pivot element.
    pub pivot_tol: f64,
    /// Consecutive degenerate pivots before switching to Bland's rule.
    pub degen_switch: usize,
    /// Consecutive degenerate pivots on the *real* objective (phase 2 or
    /// the dual loop — never phase 1) before a one-shot mid-solve bound
    /// expansion breaks the plateau (`0` disables). A Harris-style
    /// bounded escalation: fires at most once per solve, at a magnitude
    /// far below the feasibility tolerance, and the post-solve
    /// restoration snaps everything back onto the true bounds. Should be
    /// well below [`degen_switch`](Self::degen_switch) so the cheap
    /// geometric fix gets a chance before the slow anti-cycling rule.
    pub degen_expand: usize,
    /// Whether [`crate::presolve`] runs before the simplex (cold starts
    /// only; warm starts always skip it to keep column spaces aligned).
    pub presolve: bool,
    /// Anti-degeneracy bound expansion: every finite bound is relaxed
    /// outward by a deterministic pseudo-random amount of this relative
    /// magnitude (0 disables). The reported solution can violate
    /// original bounds by at most this much — keep it at or below the
    /// feasibility tolerance you can stand.
    pub perturb: f64,
    /// Pricing rule choosing the entering column (see [`Pricing`]).
    pub pricing: Pricing,
    /// Simplex variant selection (see [`Algorithm`]). The default,
    /// [`Algorithm::Auto`], only changes warm-hinted solves.
    pub algorithm: Algorithm,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        Self {
            max_iters: 0,
            inject_singular_after: 0,
            inject_panic_after: 0,
            feas_tol: 1e-7,
            opt_tol: 1e-7,
            pivot_tol: 1e-8,
            degen_switch: 2000,
            degen_expand: 256,
            presolve: true,
            perturb: 0.0,
            pricing: Pricing::default(),
            algorithm: Algorithm::default(),
        }
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
    iterations: usize,
    /// Whether Bland's anti-cycling rule is currently active.
    bland: bool,
    degen_run: usize,
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
    /// Pricing state: rule, reference weights, candidate list.
    pricer: Pricer,
    /// Performance counters reported on the solution.
    stats: SolveStats,
    /// Solve start, used to stamp `solve_time` on budget overruns.
    start: std::time::Instant,
    // Scratch buffers.
    w: Vec<f64>,
    y: Vec<f64>,
    rhs: Vec<f64>,
    cb: Vec<f64>,
    /// FTRAN'd entering column `B⁻¹A_q` (sparse).
    w_sp: ScatterVec,
    /// Devex pivot row `ρ = B⁻ᵀe_pos` (sparse).
    rho_sp: ScatterVec,
    /// Gathered entries of the entering column.
    col_buf: Vec<(usize, f64)>,
}

/// Applies `f(row, value)` over sparse column `j` of the extended column
/// set (structural/slack columns of `a`, then artificial columns).
#[inline]
fn col_apply(
    a: &crate::sparse::CscMatrix,
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
        let pricing = opts.pricing;
        let start = std::time::Instant::now();
        let mut eng = Engine {
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
            iterations: 0,
            bland: false,
            degen_run: 0,
            expanded: false,
            mid_expanded: false,
            expand_armed: false,
            pricer: Pricer::new(pricing),
            stats: SolveStats::default(),
            w: vec![0.0; m],
            y: vec![0.0; m],
            rhs: vec![0.0; m],
            cb: vec![0.0; m],
            w_sp: ScatterVec::new(m),
            rho_sp: ScatterVec::new(m),
            col_buf: Vec::new(),
        };
        if eng.opts.perturb > 0.0 {
            eng.expand_bounds(eng.opts.perturb);
        }
        eng
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

    /// Iterates the sparse column `j` (structural/slack or artificial).
    #[inline]
    fn for_col(&self, j: usize, f: impl FnMut(usize, f64)) {
        col_apply(&self.std.a, &self.arts, self.std.n, j, f);
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

    /// Sets up the initial basis.
    ///
    /// Two stages:
    /// 1. a **triangular crash**: free structural columns are greedily
    ///    matched to equality rows (classic singleton elimination). A
    ///    free basic variable can hold any value, so every matched
    ///    equality row starts feasible without an artificial. This
    ///    matters enormously for FFC models, whose sorting-network
    ///    comparators contribute thousands of equality rows whose
    ///    defined variables (`xmax`, `xmin`) are free.
    /// 2. slacks for every other row, with artificials where the
    ///    starting value violates the slack's bounds.
    fn crash_basis(&mut self) -> Result<(), LpError> {
        self.crash_basis_core()?;
        // --- Stage 3: artificials for slack-basic rows out of bounds. ---
        self.patch_infeasible_basic_slacks();
        Ok(())
    }

    /// Stages 1–2 of [`Self::crash_basis`] without the artificial
    /// patching: basic slacks may sit outside their bounds. This is the
    /// cold start for the dual simplex, which consumes exactly that
    /// primal infeasibility (and needs no artificials, since the slack
    /// basis prices out dual-feasibly after bound flips on box-bounded
    /// columns).
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
            if v >= l - self.opts.feas_tol && v <= u + self.opts.feas_tol {
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

    /// Attempts a warm start from exported basis statuses. Returns
    /// `false` (leaving the engine pristine) when the hint does not fit:
    /// wrong shape or a singular basis. Structural basic variables that
    /// land outside their (possibly changed) bounds are *repaired*: they
    /// are demoted to the nearest bound and replaced with spare slacks,
    /// whose own violations the artificial patching below absorbs. This
    /// is what makes warm-starting across fault scenarios effective —
    /// pinning a handful of tunnel variables to zero no longer discards
    /// the whole basis.
    fn warm_basis(&mut self, hint: &BasisStatuses) -> bool {
        if !self.load_hint_basis(hint) {
            return false;
        }
        self.repair_warm_basis()
    }

    /// Installs the hinted statuses and factorizes, without any primal
    /// repair. Returns `false` (engine pristine) on a shape mismatch or
    /// singular basis. The dual start uses this directly: the repair in
    /// [`Self::repair_warm_basis`] would destroy exactly the
    /// primal-infeasible-but-dual-feasible state the dual consumes.
    fn load_hint_basis(&mut self, hint: &BasisStatuses) -> bool {
        let std = self.std;
        if hint.0.len() != std.n {
            return false;
        }
        let mut basics: Vec<usize> = Vec::new();
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

    /// Primal repair of a loaded warm basis (assumes
    /// [`Self::load_hint_basis`] succeeded: values computed, factors
    /// valid).
    ///
    /// Demote-and-refill rounds: structural basics landing outside
    /// their (possibly changed) bounds go nonbasic at the nearest
    /// bound, and a spare slack takes over each vacated position.
    /// The replacement slack for position `pos` must keep the basis
    /// nonsingular, which holds iff `(B⁻¹)[pos][r]` is nonzero for
    /// the slack's row `r` — exactly the nonzero pattern of the
    /// BTRAN'd unit vector `B⁻ᵀ e_pos`, so candidates are read off a
    /// single sparse solve and applied as an eta update. Refilled
    /// slacks' own bound violations are absorbed by artificials via
    /// `patch_infeasible_basic_slacks`, which phase 1 repairs.
    fn repair_warm_basis(&mut self) -> bool {
        let std = self.std;
        let tol = self.opts.feas_tol * 10.0;
        for round in 0..3 {
            if round > 0 && self.compute_tentative_values().is_err() {
                self.reset_state();
                return false;
            }
            let violating: Vec<usize> = self
                .basis
                .iter()
                .enumerate()
                .filter(|&(_, &j)| {
                    j < std.n_struct
                        && (self.xval[j] < self.lb[j] - tol || self.xval[j] > self.ub[j] + tol)
                })
                .map(|(pos, _)| pos)
                .collect();
            if violating.is_empty() {
                self.patch_infeasible_basic_slacks();
                return true;
            }
            for pos in violating {
                let j = self.basis[pos];
                let (l, u) = (self.lb[j], self.ub[j]);
                let v = self.xval[j];
                let (st, x) = if !l.is_finite() && !u.is_finite() {
                    (VStat::FreeZero, 0.0)
                } else if !u.is_finite() || (l.is_finite() && (v - l).abs() <= (v - u).abs()) {
                    (VStat::AtLower, l)
                } else {
                    (VStat::AtUpper, u)
                };
                // Pick the nonbasic slack with the largest pivot
                // magnitude in row `pos` of B⁻¹.
                let Some(factors) = self.factors.as_mut() else {
                    self.reset_state();
                    return false;
                };
                factors.btran_sparse(&[(pos, 1.0)], &mut self.rho_sp);
                let mut best: Option<(usize, f64)> = None;
                for &r in self.rho_sp.pattern() {
                    let s = std.n_struct + r;
                    if !matches!(self.stat[s], VStat::Basic(_)) {
                        let mag = self.rho_sp.get(r).abs();
                        if mag > best.map_or(1e-8, |(_, b)| b) {
                            best = Some((s, mag));
                        }
                    }
                }
                let Some((s, _)) = best else {
                    self.reset_state();
                    return false;
                };
                self.col_buf.clear();
                let (a, arts, n, col_buf) =
                    (&self.std.a, &self.arts, self.std.n, &mut self.col_buf);
                col_apply(a, arts, n, s, |r, aij| col_buf.push((r, aij)));
                let Some(factors) = self.factors.as_mut() else {
                    self.reset_state();
                    return false;
                };
                factors.ftran_sparse(&self.col_buf, &mut self.w_sp);
                if factors.push_eta_sparse(pos, &self.w_sp).is_err() {
                    self.reset_state();
                    return false;
                }
                self.stat[j] = st;
                self.xval[j] = x;
                self.stat[s] = VStat::Basic(pos);
                self.basis[pos] = s;
            }
        }
        // Still violating after the repair budget: start cold instead.
        self.reset_state();
        false
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
    }

    /// Factorizes the current basis and fills basic values; used by the
    /// crash to validate the triangular matching.
    fn compute_tentative_values(&mut self) -> Result<(), crate::lu::Singular> {
        let m = self.std.m;
        let mut cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        for &j in &self.basis {
            let mut col = Vec::new();
            self.for_col(j, |r, v| col.push((r, v)));
            cols.push(col);
        }
        let mut factors = Basis::factorize(m, &cols)?;
        self.rhs.copy_from_slice(&self.std.b);
        let (a, arts, n) = (&self.std.a, &self.arts, self.std.n);
        for j in 0..self.ncols() {
            if matches!(self.stat[j], VStat::Basic(_)) {
                continue;
            }
            let v = self.xval[j];
            if v != 0.0 {
                let rhs = &mut self.rhs;
                col_apply(a, arts, n, j, |r, aij| rhs[r] -= aij * v);
            }
        }
        factors.ftran(&self.rhs, &mut self.w);
        for i in 0..m {
            self.xval[self.basis[i]] = self.w[i];
        }
        self.factors = Some(factors);
        Ok(())
    }

    /// (Re)factorizes the basis and recomputes basic values from scratch.
    fn refactorize(&mut self) -> Result<(), LpError> {
        self.stats.refactorizations += 1;
        let m = self.std.m;
        let mut cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        for &j in &self.basis {
            let mut col = Vec::new();
            self.for_col(j, |r, v| col.push((r, v)));
            cols.push(col);
        }
        let factors = Basis::factorize(m, &cols)
            .map_err(|e| LpError::NumericalFailure(format!("refactorization failed: {e}")))?;
        self.factors = Some(factors);
        self.recompute_basic_values();
        Ok(())
    }

    /// Recomputes basic values `B x_B = b − A_N x_N` with the current
    /// factors (which must be valid). Used after refactorization and
    /// after batches of nonbasic bound flips.
    fn recompute_basic_values(&mut self) {
        let m = self.std.m;
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
        let factors = self.factors.as_mut().expect("factorized");
        factors.ftran(&rhs, &mut self.w);
        self.rhs = rhs;
        for i in 0..m {
            self.xval[self.basis[i]] = self.w[i];
        }
    }

    /// Runs one phase to optimality with the given minimization costs.
    fn optimize(&mut self, cost: &[f64], allow_unbounded: bool) -> Result<PhaseEnd, LpError> {
        let m = self.std.m;
        self.bland = false;
        self.degen_run = 0;
        let ncols = self.ncols();
        self.pricer.reset(ncols);
        loop {
            if self
                .factors
                .as_ref()
                .map(|f| f.should_refactorize())
                .unwrap_or(true)
            {
                self.refactorize()?;
            }

            // BTRAN: y = B⁻ᵀ c_B.
            for i in 0..m {
                self.cb[i] = cost.get(self.basis[i]).copied().unwrap_or(0.0);
            }
            {
                let mut cb = std::mem::take(&mut self.cb);
                let Some(factors) = self.factors.as_mut() else {
                    return Err(LpError::NumericalFailure(
                        "internal: basis not factorized".into(),
                    ));
                };
                factors.btran(&mut cb, &mut self.y);
                self.cb = cb;
            }

            // Pricing: the pricer is temporarily moved out so the
            // reduced-cost closure can borrow the engine.
            let entering = {
                let mut pricer = std::mem::take(&mut self.pricer);
                let bland = self.bland;
                let got = pricer.select(ncols, bland, |j| self.reduced_cost(j, cost));
                self.pricer = pricer;
                got
            };
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
                factors.ftran_sparse(&self.col_buf, &mut self.w_sp);
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
    /// `false` — without modifying any state — when some wrong-sign
    /// column has no opposite finite bound to flip to, i.e. the basis
    /// cannot be made dual-feasible by bound flips alone.
    fn dual_feasibilize(&mut self, cost: &[f64]) -> bool {
        let m = self.std.m;
        for i in 0..m {
            self.cb[i] = cost.get(self.basis[i]).copied().unwrap_or(0.0);
        }
        {
            let mut cb = std::mem::take(&mut self.cb);
            let Some(factors) = self.factors.as_mut() else {
                self.cb = cb;
                return false;
            };
            factors.btran(&mut cb, &mut self.y);
            self.cb = cb;
        }
        // Mild wrong-sign reduced costs are tolerated: the dual ratio
        // test clamps their (negative) ratios to zero, so they resolve
        // as degenerate steps rather than lost dual feasibility.
        let tol = self.opts.opt_tol * 10.0;
        let mut flips: Vec<usize> = Vec::new();
        for j in 0..self.ncols() {
            let st = self.stat[j];
            if matches!(st, VStat::Basic(_)) || self.lb[j] == self.ub[j] {
                continue;
            }
            let d = cost.get(j).copied().unwrap_or(0.0) - self.col_dot(j, &self.y);
            match st {
                VStat::AtLower if d < -tol => {
                    if self.ub[j].is_finite() {
                        flips.push(j);
                    } else {
                        return false;
                    }
                }
                VStat::AtUpper if d > tol => {
                    if self.lb[j].is_finite() {
                        flips.push(j);
                    } else {
                        return false;
                    }
                }
                VStat::FreeZero if d.abs() > tol => return false,
                _ => {}
            }
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
        true
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
        let ncols = self.ncols();
        let ftol = self.opts.feas_tol;
        let ptol = self.opts.pivot_tol;
        let dtol = self.opts.opt_tol;
        // Dual devex reference weights, one per basis *position*.
        let mut dw = vec![1.0f64; m];
        // (column, pivot-row entry α_j, dual ratio) per iteration.
        let mut cands: Vec<(usize, f64, f64)> = Vec::new();
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
                let viol = if v < self.lb[j] - ftol {
                    v - self.lb[j]
                } else if v > self.ub[j] + ftol {
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
                factors.btran(&mut cb, &mut self.y);
                self.cb = cb;
                y_valid = true;
            }
            {
                let Some(factors) = self.factors.as_mut() else {
                    return Err(LpError::NumericalFailure(
                        "internal: basis not factorized".into(),
                    ));
                };
                factors.btran_sparse(&[(r, 1.0)], &mut self.rho_sp);
            }

            // Entering candidates: nonbasic columns whose pivot-row
            // entry lets the leaving variable move toward its bound
            // without that column's own reduced cost crossing zero the
            // wrong way (a_j = σ·α_j must oppose the column's bound).
            cands.clear();
            for j in 0..ncols {
                let st = self.stat[j];
                if matches!(st, VStat::Basic(_))
                    || self.lb[j] == self.ub[j]
                    || self.is_artificial(j)
                {
                    continue;
                }
                let alpha = self.col_dot_sp(j, &self.rho_sp);
                let a = sigma * alpha;
                let eligible = match st {
                    VStat::AtLower => a > ptol,
                    VStat::AtUpper => a < -ptol,
                    VStat::FreeZero => alpha.abs() > ptol,
                    VStat::Basic(_) => unreachable!(),
                };
                if !eligible {
                    continue;
                }
                let d = cost.get(j).copied().unwrap_or(0.0) - self.col_dot(j, &self.y);
                let ratio = (d / a).max(0.0);
                cands.push((j, alpha, ratio));
            }
            if cands.is_empty() {
                // A violated row no entering column can repair: the dual
                // is unbounded, i.e. the primal is infeasible.
                return Ok(DualEnd::Infeasible);
            }
            cands.sort_unstable_by(|x, z| x.2.total_cmp(&z.2).then(x.0.cmp(&z.0)));

            // Bound-flipping walk in ratio order: flipping a boxed
            // blocker moves the leaving row by span·|α| — as long as
            // that leaves it out of bounds, flip and keep walking; the
            // first candidate that must enter pivots. (Disabled under
            // Bland: plain smallest-ratio, lowest-index entering.)
            let mut delta = viol.abs();
            let mut q_idx = cands.len() - 1;
            for (idx, &(j, alpha, _)) in cands.iter().enumerate() {
                let span = self.ub[j] - self.lb[j];
                let can_flip = !self.bland
                    && span.is_finite()
                    && idx + 1 < cands.len()
                    && matches!(self.stat[j], VStat::AtLower | VStat::AtUpper)
                    && delta - span * alpha.abs() > ftol;
                if can_flip {
                    delta -= span * alpha.abs();
                } else {
                    q_idx = idx;
                    break;
                }
            }
            let nflips = q_idx;
            if nflips > 0 {
                // All flipped columns update the basics via one FTRAN of
                // the combined flip column Σ Δx_j·A_j.
                self.rhs.iter_mut().for_each(|v| *v = 0.0);
                for &(j, _, _) in &cands[..nflips] {
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
                    factors.ftran(&rhs, &mut self.w);
                    self.rhs = rhs;
                }
                for i in 0..m {
                    let bj = self.basis[i];
                    self.xval[bj] -= self.w[i];
                }
                self.stats.bound_flips += nflips;
                self.stats.dual_bound_flips += nflips;
            }
            let (q, _, t_dual) = cands[q_idx];

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
                factors.ftran_sparse(&self.col_buf, &mut self.w_sp);
            }
            let alpha_r = self.w_sp.get(r);
            if alpha_r.abs() <= ptol {
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
            if t_dual <= dtol {
                self.stats.degenerate_pivots += 1;
                self.degen_run += 1;
                if self.degen_run > self.opts.degen_switch {
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
    /// obtained with one *sparse* BTRAN (the RHS is a unit vector), and
    /// the update itself lives in [`Pricer::update_weights`] — which
    /// restricts the pass to the candidate list under partial pricing
    /// and skips everything for Dantzig (no BTRAN at all).
    fn update_pricing(&mut self, q: usize, pos: usize, leaving: usize) {
        if !self.pricer.needs_weights() {
            return;
        }
        let alpha_q = self.w_sp.get(pos);
        // Devex weights are a pricing heuristic: with no factors there is
        // nothing sound to update, so skip rather than guess.
        let Some(factors) = self.factors.as_mut() else {
            return;
        };
        factors.btran_sparse(&[(pos, 1.0)], &mut self.rho_sp);
        let mut pricer = std::mem::take(&mut self.pricer);
        pricer.update_weights(q, leaving, alpha_q, |j| {
            if matches!(self.stat[j], VStat::Basic(_)) {
                return None;
            }
            let alpha_j = self.col_dot_sp(j, &self.rho_sp);
            (alpha_j != 0.0).then_some(alpha_j)
        });
        self.pricer = pricer;
    }

    /// Reduced cost eligibility for pricing: `Some((d_j, dir))` when
    /// column `j` may enter moving in `dir`, `None` otherwise.
    #[inline]
    fn reduced_cost(&self, j: usize, cost: &[f64]) -> Option<(f64, f64)> {
        let st = self.stat[j];
        if matches!(st, VStat::Basic(_)) {
            return None;
        }
        // Fixed variables and artificials never (re-)enter.
        if self.lb[j] == self.ub[j] || self.is_artificial(j) {
            return None;
        }
        let tol = self.opts.opt_tol;
        let cj = cost.get(j).copied().unwrap_or(0.0);
        let d = cj - self.col_dot(j, &self.y);
        match st {
            VStat::AtLower => (d < -tol).then_some((d, 1.0)),
            VStat::AtUpper => (d > tol).then_some((d, -1.0)),
            VStat::FreeZero => {
                if d < -tol {
                    Some((d, 1.0))
                } else if d > tol {
                    Some((d, -1.0))
                } else {
                    None
                }
            }
            VStat::Basic(_) => unreachable!(),
        }
    }

    /// Dot of column `j` with a sparse row-space vector.
    #[inline]
    fn col_dot_sp(&self, j: usize, x: &ScatterVec) -> f64 {
        let mut acc = 0.0;
        self.for_col(j, |r, v| acc += v * x.get(r));
        acc
    }

    /// Tracks degenerate-pivot runs and toggles Bland's rule.
    fn note_progress(&mut self, t: f64) {
        if t <= self.opts.feas_tol {
            self.stats.degenerate_pivots += 1;
            self.degen_run += 1;
            if self.degen_run > self.opts.degen_switch {
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
        let ptol = self.opts.pivot_tol;
        let ftol = self.opts.feas_tol;
        // Entering variable's own range.
        let own_span = self.ub[q] - self.lb[q]; // may be +inf

        if self.bland {
            // Plain exact ratio test with lowest-index tie-breaking
            // (termination guarantee while anti-cycling).
            let mut t_min = f64::INFINITY;
            let mut blocking: Option<usize> = None;
            for &i in self.w_sp.pattern() {
                let wi = self.w_sp.get(i);
                if wi.abs() <= ptol {
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
            if wi.abs() <= ptol {
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
            let ti = ((bound - self.xval[bj]) / delta + ftol / delta.abs()).max(0.0);
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
            if wi.abs() <= ptol {
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

    /// Mid-solve anti-degeneracy escalation: after
    /// [`SimplexOptions::degen_expand`] consecutive degenerate pivots on
    /// the real objective, expands the bounds one notch beyond any
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
            || self.opts.degen_expand == 0
            || self.degen_run < self.opts.degen_expand
            || self.factors.is_none()
        {
            return;
        }
        let base = if self.opts.perturb > 0.0 {
            self.opts.perturb
        } else {
            DEFAULT_WARM_PERTURB
        };
        self.expand_bounds((base * 8.0).min(self.opts.feas_tol * 0.125));
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
    fn restore_perturbed_bounds(&mut self) -> f64 {
        for j in 0..self.std.n {
            self.lb[j] = self.std.lb[j];
            self.ub[j] = self.std.ub[j];
            match self.stat[j] {
                VStat::AtLower => self.xval[j] = self.lb[j],
                VStat::AtUpper => self.xval[j] = self.ub[j],
                _ => {}
            }
        }
        self.recompute_basic_values();
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

/// What the ratio test decided.
enum Step {
    /// The entering variable travels to its opposite bound first.
    BoundFlip { t: f64 },
    /// The basic variable at `pos` blocks at step length `t`.
    Pivot { t: f64, pos: usize },
    /// Nothing blocks: the LP is unbounded in this direction.
    Unbounded,
}

/// Default bound-perturbation magnitude applied to **warm** re-solves
/// (see [`SimplexOptions::perturb`]). Warm restarts land on the previous
/// optimal vertex, where the FFC models' many coinciding bounds produce
/// long degenerate phase-2 plateaus; a tiny deterministic expansion
/// breaks the ties. The value is far below the feasibility tolerance so
/// an already-optimal warm basis still finishes in zero iterations and
/// the post-solve restoration of the expanded bounds is a no-op in the
/// common case.
pub const DEFAULT_WARM_PERTURB: f64 = 1e-9;

/// The one way to run the simplex: every `solve_with` in the workspace
/// ([`Model::solve_with`], [`crate::IncrementalModel::solve_with`] and
/// the FFC wrappers above them) lowers to a [`StdForm`] and ends here.
/// Presolve is a [`Model`]-level rewrite and has already run — cold
/// `Model` solves only — or been skipped by the time this is called.
///
/// `warm: Some(basis)` changes three things against a cold solve: the
/// basis seeds the start (falling back to the crash basis when it does
/// not fit), [`Algorithm::Auto`] attempts the dual simplex first, and a
/// `perturb` left at its unset default becomes
/// [`DEFAULT_WARM_PERTURB`] (pass a negative `perturb` to force it off;
/// the engine only perturbs when the value is strictly positive).
///
/// Numerical breakdowns climb a three-rung ladder before surfacing as
/// [`LpError::NumericalFailure`]: the solve **as given**; then once
/// **exact**, with the perturbation and plateau expansion disabled (the
/// expansion trades a little conditioning for fewer degenerate pivots;
/// on the rare model where that trade goes wrong the exact solve is the
/// fallback); then, for a warm solve, once **cold** — a hint whose basis
/// refactorizes singular must cost a slower solve, never an error.
pub(crate) fn solve(
    std: &StdForm,
    opts: &SimplexOptions,
    warm: Option<&BasisStatuses>,
) -> Result<Solution, LpError> {
    let mut as_given = opts.clone();
    // audit:allow(float-eq): 0.0 is the documented "unset" sentinel.
    if warm.is_some() && as_given.perturb == 0.0 {
        as_given.perturb = DEFAULT_WARM_PERTURB;
    }
    let mut result = solve_std_once(std, &as_given, warm);
    if matches!(result, Err(LpError::NumericalFailure(_)))
        && (as_given.perturb > 0.0 || as_given.degen_expand > 0)
    {
        let mut exact = as_given;
        exact.perturb = 0.0;
        exact.degen_expand = 0;
        result = solve_std_once(std, &exact, warm);
    }
    if warm.is_some() && matches!(result, Err(LpError::NumericalFailure(_))) {
        return solve(std, opts, None);
    }
    result
}

/// One simplex run over a lowered standard form (no retry ladder).
fn solve_std_once(
    std: &StdForm,
    opts: &SimplexOptions,
    hint: Option<&BasisStatuses>,
) -> Result<Solution, LpError> {
    let t0 = std::time::Instant::now();
    let mut eng = Engine::new(std, opts);
    let cost2 = std.obj.clone();

    // Dual attempt: explicitly requested, or `Auto` with a warm hint —
    // the bound-perturbation re-solve the dual is built for. Any failure
    // to construct a dual-feasible start falls through to the primal.
    let try_dual = match eng.opts.algorithm {
        Algorithm::Primal => false,
        Algorithm::Dual => true,
        Algorithm::Auto => hint.is_some(),
    };
    let mut dual_done = false;
    if try_dual {
        let loaded = match hint {
            Some(h) => eng.load_hint_basis(h),
            None => eng.crash_basis_core().is_ok(),
        };
        if loaded {
            if eng.dual_feasibilize(&cost2) {
                eng.stats.hint_used = hint.is_some();
                match eng.optimize_dual(&cost2)? {
                    DualEnd::Feasible => dual_done = true,
                    DualEnd::Infeasible => return Err(LpError::Infeasible),
                }
            } else {
                eng.reset_state();
            }
        }
    }

    if !dual_done {
        let warm = hint.map(|h| eng.warm_basis(h)).unwrap_or(false);
        eng.stats.hint_used = warm;
        if !warm {
            eng.crash_basis()?;
        }

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
    }
    // On the dual path phase 1 never runs: its iterations (and the
    // primal cleanup below) all count as phase 2.

    finish_solve(eng, std, &cost2, t0)
}

/// Tail of a solve: phase 2 on the real objective, perturbed bound
/// restoration, stats stamping and the solution report.
fn finish_solve(
    mut eng: Engine<'_>,
    std: &StdForm,
    cost2: &[f64],
    t0: std::time::Instant,
) -> Result<Solution, LpError> {
    // Phase 2: optimize the real objective. After the dual loop this is
    // a cleanup pass that certifies optimality — normally 0 iterations.
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
    // repairs it. The primal algorithm has no such repair path: surface
    // a numerical failure and let [`solve`] rerun exactly, keeping
    // `Primal` solves free of dual iterations. Should a plateau
    // expansion fire *during* the repair itself, the residual bound
    // violation is at most feas_tol/8 — invisible at solver tolerances.
    if eng.expanded {
        let viol = eng.restore_perturbed_bounds();
        if viol > eng.opts.feas_tol {
            if matches!(eng.opts.algorithm, Algorithm::Primal) {
                return Err(LpError::NumericalFailure(
                    "perturbed optimum infeasible after bound restoration".into(),
                ));
            }
            if !eng.dual_feasibilize(cost2) {
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
    eng.stats.solve_time = t0.elapsed();

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{LinExpr, VarId};
    use crate::model::{Cmp, Model, Sense};

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

    #[test]
    fn perturbation_option_preserves_optimum() {
        // max 3x + 5y with the classic constraints; the bound-expansion
        // anti-degeneracy option must not change the answer beyond its
        // advertised tolerance.
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
        let opts = SimplexOptions {
            perturb: 1e-7,
            ..SimplexOptions::default()
        };
        let s = m.solve_with(&opts, None).unwrap();
        assert!((s.objective - 36.0).abs() < 1e-4, "{}", s.objective);
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

    #[test]
    fn plateau_expansion_fires_and_preserves_optimum() {
        let (m, x, _) = stalled_lp();
        let exact = m
            .solve_with(
                &SimplexOptions {
                    degen_expand: 0,
                    presolve: false,
                    ..SimplexOptions::default()
                },
                None,
            )
            .unwrap();
        let s = m
            .solve_with(
                &SimplexOptions {
                    degen_expand: 1,
                    presolve: false,
                    ..SimplexOptions::default()
                },
                None,
            )
            .unwrap();
        assert!(s.stats.degenerate_pivots >= 1);
        assert_eq!(s.stats.degen_expansions, 1, "one-shot expansion fires");
        assert!((s.objective - 0.5).abs() < 1e-6, "{}", s.objective);
        assert!((s.objective - exact.objective).abs() < 1e-6);
        // Restoration snapped back onto the true bounds.
        assert!(s.value(x) >= -1e-9, "{}", s.value(x));
    }

    #[test]
    fn plateau_expansion_disabled_by_zero() {
        let (m, _, _) = stalled_lp();
        let s = m
            .solve_with(
                &SimplexOptions {
                    degen_expand: 0,
                    presolve: false,
                    ..SimplexOptions::default()
                },
                None,
            )
            .unwrap();
        assert_eq!(s.stats.degen_expansions, 0);
        assert!((s.objective - 0.5).abs() < 1e-6, "{}", s.objective);
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

    /// [`solve`] owns the warm default: a hinted solve with `perturb`
    /// unset runs at [`DEFAULT_WARM_PERTURB`]. On this LP the expansion
    /// breaks a ratio-test tie the other way, so the pivot count tells
    /// it apart from the same solve with the perturbation forced off.
    #[test]
    fn warm_solve_defaults_the_perturbation() {
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
        // The all-slack start, as a hint.
        let mut statuses = vec![ColStatus::Lower; 3];
        statuses.extend([ColStatus::Basic; 4]);
        let hint = BasisStatuses(statuses);
        let warm = |perturb: f64| {
            let opts = SimplexOptions {
                perturb,
                ..SimplexOptions::default()
            };
            m.solve_with(&opts, Some(&hint)).unwrap()
        };
        let (unset, explicit, off) = (warm(0.0), warm(DEFAULT_WARM_PERTURB), warm(-1.0));
        assert_eq!(unset.stats.iterations(), 4);
        assert_eq!(explicit.stats.iterations(), 4);
        assert_eq!(unset.basis, explicit.basis);
        assert_eq!(off.stats.iterations(), 2);
        almost(unset.objective, off.objective);
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
        assert!(!s.stats.hint_used, "a hint that does not fit seeds nothing");
    }

    /// Two parallel rows with both structurals hinted basic: the hinted
    /// basis is singular, the start falls back to the crash basis, and
    /// the stats say the hint seeded nothing.
    #[test]
    fn singular_hint_falls_back_and_says_so() {
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
        let s = m
            .solve_with(&SimplexOptions::default(), Some(&hint))
            .unwrap();
        almost(s.objective, 4.0);
        assert!(!s.stats.hint_used);
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
    fn all_pricing_rules_agree() {
        let m = classic_model();
        for pricing in [
            crate::pricing::Pricing::Dantzig,
            crate::pricing::Pricing::Devex,
            crate::pricing::Pricing::PartialDevex { candidates: 0 },
            crate::pricing::Pricing::PartialDevex { candidates: 2 },
        ] {
            let opts = SimplexOptions {
                pricing,
                ..SimplexOptions::default()
            };
            let s = m
                .solve_with(&opts, None)
                .unwrap_or_else(|e| panic!("{pricing:?}: {e}"));
            assert!(
                (s.objective - 36.0).abs() < 1e-6,
                "{pricing:?}: {}",
                s.objective
            );
        }
    }

    #[test]
    fn pricing_rules_agree_on_transport() {
        let build = || {
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
            m
        };
        for pricing in [
            crate::pricing::Pricing::Dantzig,
            crate::pricing::Pricing::PartialDevex { candidates: 2 },
        ] {
            let opts = SimplexOptions {
                pricing,
                ..SimplexOptions::default()
            };
            let s = build().solve_with(&opts, None).unwrap();
            almost(s.objective, 9.0);
        }
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
    fn partial_pricing_makes_fewer_full_passes() {
        // A larger LP where the candidate list actually amortizes: many
        // parallel capacitated variables sharing one coupling row.
        let mut m = Model::new();
        let n = 60;
        let mut total = LinExpr::default();
        let mut obj = LinExpr::default();
        for i in 0..n {
            let v = m.add_var(0.0, 1.0, format!("v{i}"));
            m.add_con(LinExpr::from(v), Cmp::Le, 0.9);
            total += LinExpr::from(v);
            obj += LinExpr::term(v, 1.0 + (i % 7) as f64 * 0.1);
        }
        m.add_con(total, Cmp::Le, n as f64 * 0.6);
        m.set_objective(obj, Sense::Maximize);

        let full = m
            .solve_with(
                &SimplexOptions {
                    pricing: crate::pricing::Pricing::Devex,
                    ..SimplexOptions::default()
                },
                None,
            )
            .unwrap();
        let partial = m
            .solve_with(
                &SimplexOptions {
                    pricing: crate::pricing::Pricing::PartialDevex { candidates: 8 },
                    ..SimplexOptions::default()
                },
                None,
            )
            .unwrap();
        almost(full.objective, partial.objective);
        assert!(
            partial.stats.full_pricing_passes < full.stats.full_pricing_passes,
            "partial {} vs full {}",
            partial.stats.full_pricing_passes,
            full.stats.full_pricing_passes
        );
    }

    #[test]
    fn cold_dual_solves_boxed_lp() {
        // All-boxed columns: the slack basis is always dual-feasible
        // after bound flips, so an explicit Dual request runs the dual
        // loop end to end (no primal fallback).
        let mut m = Model::new();
        let x = m.add_var(0.0, 4.0, "x");
        let y = m.add_var(0.0, 6.0, "y");
        m.add_con(LinExpr::term(x, 3.0) + LinExpr::term(y, 2.0), Cmp::Le, 18.0);
        m.add_con(LinExpr::from(x) + y, Cmp::Ge, 3.0);
        m.set_objective(
            LinExpr::term(x, 3.0) + LinExpr::term(y, 5.0),
            Sense::Maximize,
        );
        let opts = SimplexOptions {
            algorithm: Algorithm::Dual,
            presolve: false,
            ..SimplexOptions::default()
        };
        let s = m.solve_with(&opts, None).unwrap();
        almost(s.objective, 36.0);
        assert!(
            s.stats.dual_iterations > 0,
            "dual never iterated: {:?}",
            s.stats
        );
        assert_eq!(s.stats.phase1_iterations, 0, "dual path must skip phase 1");
    }

    #[test]
    fn cold_dual_detects_infeasible_boxed() {
        // x + y = 10 with x, y ∈ [0, 2]: every entering candidate is
        // exhausted by bound flips and the violated row stays violated.
        let mut m = Model::new();
        let x = m.add_var(0.0, 2.0, "x");
        let y = m.add_var(0.0, 2.0, "y");
        m.add_con(LinExpr::from(x) + y, Cmp::Eq, 10.0);
        m.set_objective(LinExpr::from(x), Sense::Maximize);
        let opts = SimplexOptions {
            algorithm: Algorithm::Dual,
            presolve: false,
            ..SimplexOptions::default()
        };
        assert_eq!(m.solve_with(&opts, None).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn dual_falls_back_without_dual_feasible_start() {
        // max x: the slack basis prices x out dual-infeasibly and x has
        // no upper bound to flip to, so Dual must fall back to the
        // primal and still solve correctly.
        let mut m = Model::new();
        let x = m.add_nonneg("x");
        m.add_con(LinExpr::from(x), Cmp::Le, 5.0);
        m.set_objective(LinExpr::from(x), Sense::Maximize);
        let opts = SimplexOptions {
            algorithm: Algorithm::Dual,
            presolve: false,
            ..SimplexOptions::default()
        };
        let s = m.solve_with(&opts, None).unwrap();
        almost(s.objective, 5.0);
        assert_eq!(s.stats.dual_iterations, 0);
    }

    #[test]
    fn warm_auto_restarts_in_dual_after_bound_shrink() {
        // Shrinking a basic variable's bound leaves the old optimal
        // basis primal-infeasible but dual-feasible: Auto must re-enter
        // via dual iterations, with no phase 1 at all.
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

    #[test]
    fn warm_primal_algorithm_ignores_dual() {
        let m = classic_model();
        let cold = m.solve().unwrap();
        let opts = SimplexOptions {
            algorithm: Algorithm::Primal,
            ..SimplexOptions::default()
        };
        let warm = m.solve_with(&opts, Some(&cold.basis)).unwrap();
        almost(warm.objective, cold.objective);
        assert_eq!(warm.stats.dual_iterations, 0);
        assert_eq!(warm.stats.dual_bound_flips, 0);
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
            presolve: false,
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
            presolve: false,
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
            presolve: false,
            ..SimplexOptions::default()
        };
        match m.solve_with(&opts, None) {
            Err(LpError::NumericalFailure(msg)) => {
                assert!(msg.contains("injected"), "unexpected message: {msg}");
            }
            other => panic!("expected injected NumericalFailure, got {other:?}"),
        }
    }
}
