//! Pricing for the revised simplex: which nonbasic column enters.
//!
//! One rule, **devex** — the Forrest–Goldfarb reference-framework
//! approximation of steepest edge. Columns are scored `d_j² / γ_j`, where
//! the weight `γ_j` approximates `‖B⁻¹A_j‖²` relative to a reference
//! framework. After a pivot on entering column `q` and tableau pivot row
//! value `α_q`, every nonbasic weight is updated
//! `γ_j ← max(γ_j, (α_j/α_q)²·γ_q)` and the weights are reset to 1 when
//! `γ_q` outgrows `10⁸` (fresh reference framework). Only a column the
//! pivot row reaches (`α_j ≠ 0`) can move, so the engine hands over just
//! those. Every selection is a full scan over all columns, so optimality
//! is declared only after a clean full scan; the engine keeps the
//! reduced costs the scan reads up to date between scans.
//!
//! The rule defers to Bland's first-eligible-index scan while the engine
//! has anti-cycling mode engaged (`DEGEN_SWITCH` consecutive degenerate
//! pivots, see [`crate::simplex`]).

/// Weight value above which the devex reference framework is reset.
const WEIGHT_RESET: f64 = 1e8;

/// Pivot-row magnitude below which the weight update is skipped.
const ALPHA_TOL: f64 = 1e-12;

/// Pricing state owned by the simplex engine: the devex reference
/// weights, plus a counter for `SolveStats`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Pricer {
    /// Devex reference weights `γ_j`, one per extended column.
    weights: Vec<f64>,
    /// Full passes over all columns.
    pub(crate) full_passes: usize,
}

impl Pricer {
    /// Re-initializes for a phase over `ncols` extended columns.
    pub(crate) fn reset(&mut self, ncols: usize) {
        self.weights.clear();
        self.weights.resize(ncols, 1.0);
    }

    #[inline]
    fn score(&self, j: usize, d: f64) -> f64 {
        d * d / self.weights[j].max(1e-12)
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
        self.full_passes += 1;
        if bland {
            // Bland's rule: first eligible index, ignoring scores.
            return (0..ncols).find_map(|j| reduced(j).map(|(_, dir)| (j, dir)));
        }
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
    /// `touched` holds `(j, α_j)`, `α_j = ρᵀA_j ≠ 0`, for the nonbasic
    /// columns the pivot row reaches (every other nonbasic column has
    /// `α_j = 0`, which leaves its weight as it is).
    pub(crate) fn update_weights(
        &mut self,
        q: usize,
        leaving: usize,
        alpha_q: f64,
        touched: impl IntoIterator<Item = (usize, f64)>,
    ) {
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
        for (j, alpha_j) in touched {
            if j == q {
                continue;
            }
            if let Some(g) = self.weights.get_mut(j) {
                let cand = alpha_j * alpha_j * scale;
                if cand > *g {
                    *g = cand;
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
    fn devex_weights_divide_scores() {
        let mut p = Pricer::default();
        p.reset(2);
        // Column 0 has the larger |d| but a huge weight.
        p.weights[0] = 100.0;
        let got = table(&mut p, 2, &[Some((-3.0, 1.0)), Some((-1.0, 1.0))]);
        assert_eq!(got, Some((1, 1.0))); // 9/100 < 1/1
    }

    #[test]
    fn optimality_needs_clean_full_scan() {
        let mut p = Pricer::default();
        p.reset(3);
        assert_eq!(table(&mut p, 3, &[None, None, None]), None);
        assert_eq!(p.full_passes, 1);
    }

    #[test]
    fn bland_takes_first_eligible() {
        let mut p = Pricer::default();
        p.reset(3);
        let got = p.select(3, true, |j| {
            [None, Some((-1.0, 1.0)), Some((-100.0, 1.0))][j]
        });
        assert_eq!(got, Some((1, 1.0)));
    }

    #[test]
    fn weight_update_applies_max_rule_and_reset() {
        let mut p = Pricer::default();
        p.reset(3);
        // q=0 leaves weights of others bumped by (α_j/α_q)²γ_q.
        p.update_weights(0, 2, 2.0, [(1, 4.0)]);
        assert!((p.weights[1] - 4.0).abs() < 1e-12); // (4/2)² * 1
        assert_eq!(p.weights[0], 1.0);
        assert!((p.weights[2] - 1.0).abs() < 1e-12); // leaving: max(γq/αq², 1)
                                                     // Blown-up reference weight triggers a reset.
        p.weights[0] = 1e9;
        p.update_weights(0, 1, 1.0, [(1, 7.0), (2, 7.0)]);
        assert!(p.weights.iter().all(|&g| g == 1.0));
    }
}
