//! Pricing rules for the revised simplex: which nonbasic column enters.
//!
//! Three rules are offered (see [`Pricing`]):
//!
//! * **Dantzig** — most negative reduced cost. Cheapest per scan (no
//!   weight maintenance at all, so the per-pivot weight-update BTRAN is
//!   skipped entirely), but often takes many more iterations on
//!   ill-scaled problems.
//! * **Devex** — the Forrest–Goldfarb reference-framework approximation
//!   of steepest edge. Columns are scored `d_j² / γ_j`, where the weight
//!   `γ_j` approximates `‖B⁻¹A_j‖²` relative to a reference framework.
//!   After a pivot on entering column `q` and tableau pivot row value
//!   `α_q`, every nonbasic weight is updated
//!   `γ_j ← max(γ_j, (α_j/α_q)²·γ_q)` and the weights are reset to 1
//!   when `γ_q` outgrows `10⁸` (fresh reference framework).
//! * **PartialDevex** — devex scored over a bounded *candidate list*.
//!   Each iteration prices only the listed columns; when none of them
//!   remains eligible, one full pass over all columns both re-verifies
//!   optimality and rebuilds the list from the highest-scoring eligible
//!   columns. Optimality is therefore only ever declared after a clean
//!   full scan, so the rule is exact — it merely amortizes full pricing
//!   passes over many cheap partial ones. Weight updates touch only the
//!   candidate list; off-list weights go stale but devex's `max` update
//!   self-corrects once a column re-enters the list.
//!
//! All rules defer to Bland's first-eligible-index scan while the engine
//! has anti-cycling mode engaged (see `SimplexOptions::degen_switch`).

/// Candidate-list size heuristic for [`Pricing::PartialDevex`] with
/// `candidates == 0`: `4·√n` clamped to `[32, 1024]`. Small lists make
/// partial passes cheap but force frequent full rebuilds; the square
/// root balances the two on the sweep sizes this workspace solves
/// (hundreds to tens of thousands of columns).
fn auto_candidates(ncols: usize) -> usize {
    ((ncols as f64).sqrt() as usize * 4).clamp(32, 1024)
}

/// Column count (structurals + slacks, as the engine prices them) below
/// which [`Pricing::PartialDevex`] with automatic sizing
/// (`candidates == 0`) disables the candidate list and prices like full
/// devex. On small and dense-ish LPs the list's staler devex picks cost
/// more iterations than the cheap partial passes save, while a full
/// pass is cheap anyway. Calibrated on two measurements (1-core host,
/// release): the 1000×3000 random LP (4 000 engine columns) slows down
/// ~2.3× with the list on, while the full-scale L-Net TE model (a
/// 2255×8123 LP, ~10 400 columns) speeds up ~1.7–2.4× (last recorded
/// run: 1 341 → 551 ms) — so the threshold sits between them. An explicit nonzero
/// `candidates` always keeps partial pricing on.
pub const AUTO_PARTIAL_MIN_COLS: usize = 6000;

/// Simplex pricing rule, selected via `SimplexOptions::pricing`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pricing {
    /// Most negative reduced cost; no reference weights.
    Dantzig,
    /// Devex reference-framework weights, full scan per iteration.
    #[default]
    Devex,
    /// Devex over a bounded candidate list, rebuilt by a full pass when
    /// exhausted. `candidates == 0` sizes the list automatically.
    PartialDevex {
        /// Candidate-list capacity (`0` = automatic from column count).
        candidates: usize,
    },
}

/// Weight value above which the devex reference framework is reset.
const WEIGHT_RESET: f64 = 1e8;

/// Pivot-row magnitude below which the weight update is skipped.
const ALPHA_TOL: f64 = 1e-12;

/// Pricing state owned by the simplex engine: reference weights and the
/// candidate list, plus counters for `SolveStats`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Pricer {
    rule: Pricing,
    /// Devex reference weights `γ_j`, one per extended column.
    weights: Vec<f64>,
    /// Candidate list (PartialDevex only), kept sorted by descending
    /// score at rebuild time.
    candidates: Vec<usize>,
    cand_cap: usize,
    /// Whether the candidate list is in use this phase. `false` for a
    /// [`Pricing::PartialDevex`] rule auto-disabled on a small column
    /// count (behaves as full devex).
    partial_active: bool,
    /// Full passes over all columns (every pass for Dantzig/Devex; only
    /// rebuild/optimality passes for PartialDevex).
    pub(crate) full_passes: usize,
}

impl Pricer {
    pub(crate) fn new(rule: Pricing) -> Self {
        Pricer {
            rule,
            ..Pricer::default()
        }
    }

    /// Re-initializes for a phase over `ncols` extended columns.
    pub(crate) fn reset(&mut self, ncols: usize) {
        match self.rule {
            Pricing::Dantzig => self.weights.clear(),
            Pricing::Devex | Pricing::PartialDevex { .. } => {
                self.weights.clear();
                self.weights.resize(ncols, 1.0);
            }
        }
        self.candidates.clear();
        self.cand_cap = match self.rule {
            Pricing::PartialDevex { candidates: 0 } if ncols < AUTO_PARTIAL_MIN_COLS => 0,
            Pricing::PartialDevex { candidates: 0 } => auto_candidates(ncols),
            Pricing::PartialDevex { candidates } => candidates,
            _ => 0,
        };
        self.partial_active =
            matches!(self.rule, Pricing::PartialDevex { .. }) && self.cand_cap > 0;
    }

    /// Whether the engine must maintain weights (i.e. compute the pivot
    /// row `α` after each basis change). `false` for Dantzig.
    pub(crate) fn needs_weights(&self) -> bool {
        !matches!(self.rule, Pricing::Dantzig)
    }

    #[inline]
    fn score(&self, j: usize, d: f64) -> f64 {
        match self.rule {
            Pricing::Dantzig => d.abs(),
            _ => d * d / self.weights[j].max(1e-12),
        }
    }

    /// Chooses the entering column. `reduced(j)` returns `(d_j, dir)`
    /// when column `j` is eligible to enter (reduced cost beyond the
    /// optimality tolerance in the improving direction), `None`
    /// otherwise. Returns `None` only after a full scan found no
    /// eligible column — i.e. the basis is optimal.
    pub(crate) fn select<F>(
        &mut self,
        ncols: usize,
        bland: bool,
        mut reduced: F,
    ) -> Option<(usize, f64)>
    where
        F: FnMut(usize) -> Option<(f64, f64)>,
    {
        if bland {
            // Bland's rule: first eligible index, ignoring scores.
            self.full_passes += 1;
            return (0..ncols).find_map(|j| reduced(j).map(|(_, dir)| (j, dir)));
        }
        if self.partial_active {
            // Partial pass over the candidate list.
            let mut best: Option<(usize, f64, f64)> = None;
            for idx in 0..self.candidates.len() {
                let j = self.candidates[idx];
                if let Some((d, dir)) = reduced(j) {
                    let s = self.score(j, d);
                    if best.map(|(_, _, bs)| s > bs).unwrap_or(true) {
                        best = Some((j, dir, s));
                    }
                }
            }
            if let Some((j, dir, _)) = best {
                return Some((j, dir));
            }
            // List exhausted: full pass doubles as the optimality check
            // and the list rebuild.
            self.full_passes += 1;
            let mut scored: Vec<(usize, f64, f64)> = Vec::new();
            for j in 0..ncols {
                if let Some((d, dir)) = reduced(j) {
                    scored.push((j, dir, self.score(j, d)));
                }
            }
            if scored.is_empty() {
                return None; // clean full scan: optimal
            }
            scored.sort_unstable_by(|a, b| b.2.total_cmp(&a.2));
            scored.truncate(self.cand_cap.max(1));
            self.candidates.clear();
            self.candidates.extend(scored.iter().map(|&(j, _, _)| j));
            let (j, dir, _) = scored[0];
            return Some((j, dir));
        }
        // Dantzig / full devex: one full pass.
        self.full_passes += 1;
        let mut best: Option<(usize, f64, f64)> = None;
        for j in 0..ncols {
            if let Some((d, dir)) = reduced(j) {
                let s = self.score(j, d);
                if best.map(|(_, _, bs)| s > bs).unwrap_or(true) {
                    best = Some((j, dir, s));
                }
            }
        }
        best.map(|(j, dir, _)| (j, dir))
    }

    /// Devex weight update after a pivot: entering column `q`, leaving
    /// column `leaving`, pivot-row value `alpha_q = (B⁻¹A_q)_pos`.
    /// `alpha(j)` yields the pivot-row entry `α_j = (ρᵀA_j)` for column
    /// `j` (engine computes `ρ = B⁻ᵀe_pos` once, sparsely).
    /// No-op for Dantzig; PartialDevex restricts the update to the
    /// candidate list.
    pub(crate) fn update_weights<F>(&mut self, q: usize, leaving: usize, alpha_q: f64, mut alpha: F)
    where
        F: FnMut(usize) -> Option<f64>,
    {
        if !self.needs_weights() {
            return;
        }
        let gamma_q = self.weights[q].max(1.0);
        if gamma_q > WEIGHT_RESET {
            // Fresh reference framework.
            for g in self.weights.iter_mut() {
                *g = 1.0;
            }
            return;
        }
        if alpha_q.abs() < ALPHA_TOL {
            return;
        }
        let scale = gamma_q / (alpha_q * alpha_q);
        if self.partial_active {
            for idx in 0..self.candidates.len() {
                let j = self.candidates[idx];
                if j == q {
                    continue;
                }
                if let Some(alpha_j) = alpha(j) {
                    let cand = alpha_j * alpha_j * scale;
                    if cand > self.weights[j] {
                        self.weights[j] = cand;
                    }
                }
            }
        } else {
            for j in 0..self.weights.len() {
                if j == q {
                    continue;
                }
                if let Some(alpha_j) = alpha(j) {
                    let cand = alpha_j * alpha_j * scale;
                    if cand > self.weights[j] {
                        self.weights[j] = cand;
                    }
                }
            }
        }
        self.weights[leaving] = scale.max(1.0);
        self.weights[q] = 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Eligibility table driving `select` in the tests: `Some((d, dir))`
    /// per column.
    fn table(
        pricer: &mut Pricer,
        ncols: usize,
        elig: &[Option<(f64, f64)>],
    ) -> Option<(usize, f64)> {
        pricer.select(ncols, false, |j| elig[j])
    }

    #[test]
    fn dantzig_picks_most_negative() {
        let mut p = Pricer::new(Pricing::Dantzig);
        p.reset(3);
        let got = table(
            &mut p,
            3,
            &[Some((-1.0, 1.0)), Some((-5.0, 1.0)), Some((-2.0, 1.0))],
        );
        assert_eq!(got, Some((1, 1.0)));
        assert_eq!(p.full_passes, 1);
    }

    #[test]
    fn devex_weights_divide_scores() {
        let mut p = Pricer::new(Pricing::Devex);
        p.reset(2);
        // Column 0 has the larger |d| but a huge weight.
        p.weights[0] = 100.0;
        let got = table(&mut p, 2, &[Some((-3.0, 1.0)), Some((-1.0, 1.0))]);
        assert_eq!(got, Some((1, 1.0))); // 9/100 < 1/1
    }

    #[test]
    fn partial_reuses_candidates_until_exhausted() {
        let mut p = Pricer::new(Pricing::PartialDevex { candidates: 2 });
        p.reset(4);
        // First call: full pass, builds list [best two].
        let elig = [
            Some((-1.0, 1.0)),
            Some((-4.0, 1.0)),
            Some((-3.0, 1.0)),
            Some((-2.0, 1.0)),
        ];
        assert_eq!(table(&mut p, 4, &elig), Some((1, 1.0)));
        assert_eq!(p.full_passes, 1);
        assert_eq!(p.candidates, vec![1, 2]);
        // Second call: partial pass over list only — column 3 is better
        // globally but not listed.
        let elig2 = [
            Some((-9.0, 1.0)),
            None,
            Some((-1.0, 1.0)),
            Some((-8.0, 1.0)),
        ];
        assert_eq!(table(&mut p, 4, &elig2), Some((2, 1.0)));
        assert_eq!(
            p.full_passes, 1,
            "no full pass while the list has an eligible column"
        );
        // Exhaust the list: full rebuild finds column 0.
        let elig3 = [Some((-9.0, 1.0)), None, None, None];
        assert_eq!(table(&mut p, 4, &elig3), Some((0, 1.0)));
        assert_eq!(p.full_passes, 2);
    }

    #[test]
    fn optimality_needs_clean_full_scan() {
        let mut p = Pricer::new(Pricing::PartialDevex { candidates: 2 });
        p.reset(3);
        assert_eq!(table(&mut p, 3, &[None, None, None]), None);
        assert_eq!(p.full_passes, 1);
    }

    #[test]
    fn bland_takes_first_eligible() {
        let mut p = Pricer::new(Pricing::Devex);
        p.reset(3);
        let got = p.select(3, true, |j| {
            [None, Some((-1.0, 1.0)), Some((-100.0, 1.0))][j]
        });
        assert_eq!(got, Some((1, 1.0)));
    }

    #[test]
    fn weight_update_applies_max_rule_and_reset() {
        let mut p = Pricer::new(Pricing::Devex);
        p.reset(3);
        // q=0 leaves weights of others bumped by (α_j/α_q)²γ_q.
        p.update_weights(0, 2, 2.0, |j| [None, Some(4.0), None][j]);
        assert!((p.weights[1] - 4.0).abs() < 1e-12); // (4/2)² * 1
        assert_eq!(p.weights[0], 1.0);
        assert!((p.weights[2] - 1.0).abs() < 1e-12); // leaving: max(γq/αq², 1)
                                                     // Blown-up reference weight triggers a reset.
        p.weights[0] = 1e9;
        p.update_weights(0, 1, 1.0, |_| Some(7.0));
        assert!(p.weights.iter().all(|&g| g == 1.0));
    }

    #[test]
    fn dantzig_update_is_noop() {
        let mut p = Pricer::new(Pricing::Dantzig);
        p.reset(2);
        assert!(!p.needs_weights());
        p.update_weights(0, 1, 1.0, |_| Some(100.0));
        assert!(p.weights.is_empty());
    }

    #[test]
    fn auto_partial_disables_below_column_threshold() {
        let elig = |j: usize| (j < 3).then(|| (-((j + 1) as f64), 1.0));
        // Automatic sizing on a small column count: the list is off and
        // every select is a full devex pass.
        let mut p = Pricer::new(Pricing::PartialDevex { candidates: 0 });
        p.reset(AUTO_PARTIAL_MIN_COLS - 1);
        assert!(p.select(4, false, elig).is_some());
        assert!(p.select(4, false, elig).is_some());
        assert_eq!(p.full_passes, 2, "candidate list must be disabled");
        // At the threshold the list engages: the second select prices
        // only the candidates built by the first full pass.
        let mut p = Pricer::new(Pricing::PartialDevex { candidates: 0 });
        p.reset(AUTO_PARTIAL_MIN_COLS);
        assert!(p.select(4, false, elig).is_some());
        assert!(p.select(4, false, elig).is_some());
        assert_eq!(p.full_passes, 1, "candidate list must be active");
    }

    #[test]
    fn explicit_candidates_stay_partial_below_threshold() {
        let elig = |j: usize| (j < 3).then(|| (-((j + 1) as f64), 1.0));
        let mut p = Pricer::new(Pricing::PartialDevex { candidates: 2 });
        p.reset(4);
        assert!(p.select(4, false, elig).is_some());
        assert!(p.select(4, false, elig).is_some());
        assert_eq!(
            p.full_passes, 1,
            "explicit list size is never auto-disabled"
        );
    }

    #[test]
    fn auto_candidate_size_clamped() {
        assert_eq!(auto_candidates(10), 32);
        assert_eq!(auto_candidates(10_000), 400);
        assert_eq!(auto_candidates(10_000_000), 1024);
    }
}
