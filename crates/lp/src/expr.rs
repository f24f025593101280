//! Linear expressions over model variables.
//!
//! A [`LinExpr`] is a sparse linear combination of variables plus a
//! constant: `c0 + Σ cᵢ·xᵢ`. Expressions are the currency of the modeling
//! API: objectives and constraint left-hand sides are both `LinExpr`s.
//!
//! Expressions support the natural operators (`+`, `-`, `*` by a scalar)
//! and can be built incrementally with [`LinExpr::add_term`]. Duplicate
//! variable mentions are allowed and are merged lazily by
//! [`LinExpr::compress`] (the solver compresses before use).

// audit:allow-file(float-eq): exact-zero comparisons here are
// structural sparsity guards (skip entries that are identically zero),
// not approximate value checks.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// Identifier of a decision variable within a [`crate::Model`].
///
/// `VarId`s are dense indices handed out by [`crate::Model::add_var`]; they
/// are only meaningful for the model that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// The dense index of this variable inside its model.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuilds a `VarId` from a dense index, for external tooling
    /// (the `ffc-audit` model auditor) that iterates columns by index.
    /// The index is not validated against any particular model.
    #[inline]
    pub fn from_index(i: usize) -> VarId {
        VarId(i)
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A sparse affine expression `constant + Σ coeff·var`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinExpr {
    /// `(variable, coefficient)` terms, possibly with duplicates.
    pub(crate) terms: Vec<(VarId, f64)>,
    /// Additive constant.
    pub(crate) constant: f64,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        Self::default()
    }

    /// An expression that is just a constant.
    pub fn constant(c: f64) -> Self {
        Self {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// An expression consisting of a single `coeff·var` term.
    pub fn term(var: VarId, coeff: f64) -> Self {
        Self {
            terms: vec![(var, coeff)],
            constant: 0.0,
        }
    }

    /// Builds `Σ vars[i]` with unit coefficients.
    pub fn sum<I: IntoIterator<Item = VarId>>(vars: I) -> Self {
        Self {
            terms: vars.into_iter().map(|v| (v, 1.0)).collect(),
            constant: 0.0,
        }
    }

    /// Adds `coeff·var` to the expression in place.
    pub fn add_term(&mut self, var: VarId, coeff: f64) -> &mut Self {
        if coeff != 0.0 {
            self.terms.push((var, coeff));
        }
        self
    }

    /// Adds a constant to the expression in place.
    pub fn add_constant(&mut self, c: f64) -> &mut Self {
        self.constant += c;
        self
    }

    /// The additive constant of the expression.
    pub fn constant_part(&self) -> f64 {
        self.constant
    }

    /// Iterates over the (possibly duplicated) terms of this expression.
    pub fn terms(&self) -> impl Iterator<Item = (VarId, f64)> + '_ {
        self.terms.iter().copied()
    }

    /// Number of stored terms (before duplicate merging).
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the expression has no variable terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Merges duplicate variables and drops (near-)zero coefficients.
    ///
    /// The result is sorted by variable index, which downstream sparse
    /// assembly relies on.
    pub fn compress(&mut self) {
        if self.terms.is_empty() {
            return;
        }
        self.terms.sort_unstable_by_key(|&(v, _)| v);
        let mut out: Vec<(VarId, f64)> = Vec::with_capacity(self.terms.len());
        for &(v, c) in &self.terms {
            match out.last_mut() {
                Some(last) if last.0 == v => last.1 += c,
                _ => out.push((v, c)),
            }
        }
        out.retain(|&(_, c)| c != 0.0);
        self.terms = out;
    }

    /// Returns a compressed copy (see [`LinExpr::compress`]).
    pub fn compressed(&self) -> Self {
        let mut e = self.clone();
        e.compress();
        e
    }

    /// Evaluates the expression against a dense assignment of variable
    /// values (indexed by [`VarId::index`]).
    pub fn eval(&self, values: &[f64]) -> f64 {
        let mut acc = self.constant;
        for &(v, c) in &self.terms {
            acc += c * values[v.0];
        }
        acc
    }

    /// Multiplies the expression by a scalar in place.
    pub fn scale(&mut self, s: f64) {
        for t in &mut self.terms {
            t.1 *= s;
        }
        self.constant *= s;
    }
}

impl From<VarId> for LinExpr {
    fn from(v: VarId) -> Self {
        LinExpr::term(v, 1.0)
    }
}

impl From<f64> for LinExpr {
    fn from(c: f64) -> Self {
        LinExpr::constant(c)
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
        self
    }
}

impl Add<VarId> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: VarId) -> LinExpr {
        self.add_term(rhs, 1.0);
        self
    }
}

impl Add<f64> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: f64) -> LinExpr {
        self.constant += rhs;
        self
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: LinExpr) -> LinExpr {
        self.terms
            .extend(rhs.terms.into_iter().map(|(v, c)| (v, -c)));
        self.constant -= rhs.constant;
        self
    }
}

impl Sub<VarId> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: VarId) -> LinExpr {
        self.add_term(rhs, -1.0);
        self
    }
}

impl Sub<f64> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: f64) -> LinExpr {
        self.constant -= rhs;
        self
    }
}

impl SubAssign for LinExpr {
    fn sub_assign(&mut self, rhs: LinExpr) {
        self.terms
            .extend(rhs.terms.into_iter().map(|(v, c)| (v, -c)));
        self.constant -= rhs.constant;
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, s: f64) -> LinExpr {
        self.scale(s);
        self
    }
}

impl Mul<LinExpr> for f64 {
    type Output = LinExpr;
    fn mul(self, mut e: LinExpr) -> LinExpr {
        e.scale(self);
        e
    }
}

impl Mul<VarId> for f64 {
    type Output = LinExpr;
    fn mul(self, v: VarId) -> LinExpr {
        LinExpr::term(v, self)
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> LinExpr {
        self.scale(-1.0);
        self
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for &(v, c) in &self.terms {
            if first {
                write!(f, "{c}*{v}")?;
                first = false;
            } else if c < 0.0 {
                write!(f, " - {}*{v}", -c)?;
            } else {
                write!(f, " + {c}*{v}")?;
            }
        }
        if self.constant != 0.0 || first {
            if first {
                write!(f, "{}", self.constant)?;
            } else if self.constant < 0.0 {
                write!(f, " - {}", -self.constant)?;
            } else {
                write!(f, " + {}", self.constant)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> VarId {
        VarId(i)
    }

    #[test]
    fn zero_is_empty() {
        let e = LinExpr::zero();
        assert!(e.is_empty());
        assert_eq!(e.constant_part(), 0.0);
    }

    #[test]
    fn add_and_compress_merges_duplicates() {
        let e = LinExpr::term(v(0), 1.0) + LinExpr::term(v(0), 2.0) + LinExpr::term(v(1), -1.0);
        let e = e.compressed();
        assert_eq!(e.len(), 2);
        assert_eq!(e.terms[0], (v(0), 3.0));
        assert_eq!(e.terms[1], (v(1), -1.0));
    }

    #[test]
    fn compress_drops_cancelled_terms() {
        let e = (LinExpr::term(v(3), 2.0) - LinExpr::term(v(3), 2.0)).compressed();
        assert!(e.is_empty());
    }

    #[test]
    fn eval_includes_constant() {
        let e = LinExpr::term(v(0), 2.0) + LinExpr::term(v(1), 3.0) + 5.0;
        assert_eq!(e.eval(&[1.0, 2.0]), 2.0 + 6.0 + 5.0);
    }

    #[test]
    fn scalar_multiplication_scales_constant() {
        let e = (LinExpr::term(v(0), 2.0) + 1.0) * 3.0;
        assert_eq!(e.constant_part(), 3.0);
        assert_eq!(e.terms[0].1, 6.0);
    }

    #[test]
    fn negation() {
        let e = -(LinExpr::term(v(0), 2.0) + 1.0);
        assert_eq!(e.constant_part(), -1.0);
        assert_eq!(e.terms[0].1, -2.0);
    }

    #[test]
    fn sum_builder() {
        let e = LinExpr::sum([v(0), v(1), v(2)]);
        assert_eq!(e.len(), 3);
        assert!(e.terms().all(|(_, c)| c == 1.0));
    }

    #[test]
    fn display_formats_signs() {
        let e = LinExpr::term(v(0), 1.0) - LinExpr::term(v(1), 2.0) + 3.0;
        assert_eq!(format!("{e}"), "1*x0 - 2*x1 + 3");
    }
}
