//! The "bounded M-sum" problem (paper §4.4.1) and its LP encodings.
//!
//! *Given N expressions, the sum of any M of them must stay ≤ (or ≥) a
//! bound.* Naively this is `Σᵢ₌₁..M (N choose i)` constraints; all of
//! them collapse into a single constraint on the M largest (smallest)
//! values (Eqn 12).
//!
//! Two interchangeable encodings are provided:
//!
//! * [`MsumEncoding::SortingNetwork`] — the paper's contribution
//!   (§4.4.2): a partial bubble sorting network, `O(N·M)` comparators.
//!   The only one that scales to production sizes.
//! * [`MsumEncoding::Enumeration`] — the intractable strawman the paper
//!   measures in §8.2 (Table 2): one constraint per fault combination.
//!   Only usable for small N; it is also the ground truth the sorting
//!   network is tested against.

use ffc_lp::{Cmp, LinExpr, Model};

use crate::sorting_network::{sum_largest, sum_smallest};

/// Which LP encoding to use for bounded M-sum constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MsumEncoding {
    /// Partial bubble sorting network (the paper's method).
    #[default]
    SortingNetwork,
    /// Explicit enumeration of all `(N choose M)` combinations.
    Enumeration,
}

/// Adds constraints enforcing: **the sum of any `m` of `terms` is ≤
/// `budget`** (both sides may contain variables). A no-op for empty
/// terms or `m == 0`.
///
/// For [`MsumEncoding::Enumeration`], `terms` must be provably
/// non-negative (true for all FFC uses: they are `β − a ≥ 0` gaps), so
/// that only maximum-cardinality subsets need enumerating.
pub fn constrain_any_m_sum_le(
    model: &mut Model,
    terms: Vec<LinExpr>,
    m: usize,
    budget: LinExpr,
    encoding: MsumEncoding,
) {
    if terms.is_empty() || m == 0 {
        return;
    }
    if terms.len() <= m {
        // Degenerate: the single full-sum constraint dominates.
        let total = terms.into_iter().fold(LinExpr::zero(), |a, e| a + e);
        model.add_con(total - budget, Cmp::Le, 0.0);
        return;
    }
    match encoding {
        MsumEncoding::SortingNetwork => {
            let top = sum_largest(model, terms, m);
            model.add_con(top - budget, Cmp::Le, 0.0);
        }
        MsumEncoding::Enumeration => {
            for combo in combinations(terms.len(), m) {
                let total = combo
                    .iter()
                    .map(|&i| terms[i].clone())
                    .fold(LinExpr::zero(), |a, e| a + e);
                model.add_con(total - budget.clone(), Cmp::Le, 0.0);
            }
        }
    }
}

/// Adds constraints enforcing: **the sum of any `m` of `terms` is ≥
/// `floor`** — equivalently, the sum of the `m` smallest is ≥ `floor`.
pub fn constrain_any_m_sum_ge(
    model: &mut Model,
    terms: Vec<LinExpr>,
    m: usize,
    floor: LinExpr,
    encoding: MsumEncoding,
) {
    if m == 0 {
        return;
    }
    if terms.len() <= m {
        let total = terms.into_iter().fold(LinExpr::zero(), |a, e| a + e);
        model.add_con(total - floor, Cmp::Ge, 0.0);
        return;
    }
    match encoding {
        MsumEncoding::SortingNetwork => {
            let bottom = sum_smallest(model, terms, m);
            model.add_con(bottom - floor, Cmp::Ge, 0.0);
        }
        MsumEncoding::Enumeration => {
            for combo in combinations(terms.len(), m) {
                let total = combo
                    .iter()
                    .map(|&i| terms[i].clone())
                    .fold(LinExpr::zero(), |a, e| a + e);
                model.add_con(total - floor.clone(), Cmp::Ge, 0.0);
            }
        }
    }
}

/// All `k`-subsets of `0..n` in lexicographic order.
pub fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    if k > n {
        return out;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        out.push(idx.clone());
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + n - k {
                idx[i] += 1;
                for j in i + 1..k {
                    idx[j] = idx[j - 1] + 1;
                }
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffc_lp::Sense;

    const ENCODINGS: [MsumEncoding; 2] = [MsumEncoding::SortingNetwork, MsumEncoding::Enumeration];

    #[test]
    fn combinations_basic() {
        assert_eq!(combinations(4, 2).len(), 6);
        assert_eq!(combinations(3, 0), vec![Vec::<usize>::new()]);
        assert_eq!(combinations(2, 3).len(), 0);
        assert_eq!(combinations(3, 3), vec![vec![0, 1, 2]]);
    }

    /// max Σx with any-2-sum ≤ 8 should reach 12 under every encoding.
    #[test]
    fn le_encodings_agree() {
        for enc in ENCODINGS {
            let mut m = Model::new();
            let xs: Vec<_> = (0..3)
                .map(|i| m.add_var(0.0, 10.0, format!("x{i}")))
                .collect();
            let exprs: Vec<LinExpr> = xs.iter().map(|&v| LinExpr::from(v)).collect();
            constrain_any_m_sum_le(&mut m, exprs, 2, LinExpr::constant(8.0), enc);
            m.set_objective(LinExpr::sum(xs.iter().copied()), Sense::Maximize);
            let sol = m.solve().unwrap();
            assert!(
                (sol.objective - 12.0).abs() < 1e-5,
                "{enc:?}: objective {}",
                sol.objective
            );
            for i in 0..3 {
                for j in i + 1..3 {
                    assert!(sol.value(xs[i]) + sol.value(xs[j]) <= 8.0 + 1e-6, "{enc:?}");
                }
            }
        }
    }

    /// min Σx with any-2-sum ≥ 6 should reach 9 under every encoding.
    #[test]
    fn ge_encodings_agree() {
        for enc in ENCODINGS {
            let mut m = Model::new();
            let xs: Vec<_> = (0..3)
                .map(|i| m.add_var(0.0, 10.0, format!("x{i}")))
                .collect();
            let exprs: Vec<LinExpr> = xs.iter().map(|&v| LinExpr::from(v)).collect();
            constrain_any_m_sum_ge(&mut m, exprs, 2, LinExpr::constant(6.0), enc);
            m.set_objective(LinExpr::sum(xs.iter().copied()), Sense::Minimize);
            let sol = m.solve().unwrap();
            assert!(
                (sol.objective - 9.0).abs() < 1e-5,
                "{enc:?}: objective {}",
                sol.objective
            );
        }
    }

    /// With m >= N the constraint degrades to a plain sum bound.
    #[test]
    fn m_at_least_n_is_full_sum() {
        for enc in ENCODINGS {
            let mut m = Model::new();
            let xs: Vec<_> = (0..2)
                .map(|i| m.add_var(0.0, 10.0, format!("x{i}")))
                .collect();
            let exprs: Vec<LinExpr> = xs.iter().map(|&v| LinExpr::from(v)).collect();
            constrain_any_m_sum_le(&mut m, exprs, 5, LinExpr::constant(7.0), enc);
            m.set_objective(LinExpr::sum(xs.iter().copied()), Sense::Maximize);
            let sol = m.solve().unwrap();
            assert!((sol.objective - 7.0).abs() < 1e-6, "{enc:?}");
        }
    }

    /// Variable budgets (right-hand sides with variables) work.
    #[test]
    fn variable_budget() {
        for enc in ENCODINGS {
            let mut m = Model::new();
            let xs: Vec<_> = (0..3)
                .map(|i| m.add_var(0.0, 10.0, format!("x{i}")))
                .collect();
            let cap = m.add_var(0.0, 5.0, "cap");
            let exprs: Vec<LinExpr> = xs.iter().map(|&v| LinExpr::from(v)).collect();
            constrain_any_m_sum_le(&mut m, exprs, 1, LinExpr::from(cap), enc);
            // max Σx - anything pushes cap to 5, so each x ≤ 5.
            m.set_objective(LinExpr::sum(xs.iter().copied()), Sense::Maximize);
            let sol = m.solve().unwrap();
            assert!(
                (sol.objective - 15.0).abs() < 1e-5,
                "{enc:?}: {}",
                sol.objective
            );
        }
    }

    /// m == 0 or empty terms are no-ops.
    #[test]
    fn degenerate_inputs_noop() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0, "x");
        constrain_any_m_sum_le(
            &mut m,
            vec![],
            2,
            LinExpr::constant(0.0),
            MsumEncoding::Enumeration,
        );
        constrain_any_m_sum_le(
            &mut m,
            vec![LinExpr::from(x)],
            0,
            LinExpr::constant(0.0),
            MsumEncoding::SortingNetwork,
        );
        assert_eq!(m.num_cons(), 0);
    }

    /// Randomized agreement: both encodings give the same optimum on
    /// small random instances.
    #[test]
    fn randomized_encoding_agreement() {
        let mut state = 0xfeedbeefu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 1000) as f64 / 100.0
        };
        for trial in 0..15 {
            let n = 2 + trial % 4;
            let k = 1 + trial % 3;
            let ubs: Vec<f64> = (0..n).map(|_| 1.0 + next()).collect();
            let bound = 1.0 + next();
            let mut objs = Vec::new();
            for enc in ENCODINGS {
                let mut m = Model::new();
                let xs: Vec<_> = ubs
                    .iter()
                    .enumerate()
                    .map(|(i, &u)| m.add_var(0.0, u, format!("x{i}")))
                    .collect();
                let exprs: Vec<LinExpr> = xs.iter().map(|&v| LinExpr::from(v)).collect();
                constrain_any_m_sum_le(&mut m, exprs, k, LinExpr::constant(bound), enc);
                m.set_objective(LinExpr::sum(xs.iter().copied()), Sense::Maximize);
                objs.push(m.solve().unwrap().objective);
            }
            assert!((objs[0] - objs[1]).abs() < 1e-5, "trial {trial}: {objs:?}");
        }
    }
}
