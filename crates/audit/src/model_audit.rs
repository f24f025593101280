//! Static auditing of [`ffc_lp::Model`] instances before they are
//! solved.
//!
//! Two layers of checks:
//!
//! * **Generic LP hygiene** — every coefficient, bound, and right-hand
//!   side finite; `lb ≤ ub` on every column; no empty rows (a row whose
//!   terms cancelled to nothing still asserts `0 ⋈ rhs`, which is either
//!   vacuous or infeasible — both indicate a builder bug); no duplicate
//!   rows; no orphan columns (in no row and not in the objective);
//!   duplicate `(row, col)` entries merged deterministically (terms
//!   strictly sorted by column, enforced here, guaranteed by
//!   `Model::add_con`'s merge-by-sum compression).
//! * **FFC structural invariants**, recognized by the workspace's
//!   naming conventions — `cs_max`/`cs_min`/`cs_z` sorting-network
//!   comparator triples wired exactly as Algs 1–2 emit them (4 rows per
//!   comparator: two `±(x − y) − z ≤ 0` guards and two defining
//!   equalities `2·out − x − y ∓ z = 0`, whose inputs `x`, `y` may be
//!   single columns or expressions such as control FFC's per-ingress
//!   gaps `Σ(β − a)`), comparator/aux-variable counts
//!   matching the `O(kn)` bubble-pass formula, `cap_*` capacity rows
//!   (all +1 coefficients, `≤`, nonnegative rhs) and `cover_*`
//!   flow-coverage rows netting to zero at the rhs (`Σ a − b ≥ 0`).

// audit:allow-file(float-eq): comparator coefficients are exact
// integer constants (±1, 2) emitted by the model builder, so the
// structural checks here compare them exactly on purpose.

use ffc_lp::{Cmp, ConView, Model};

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The model is structurally wrong; solving it is meaningless.
    Error,
    /// Suspicious but not necessarily wrong (e.g. an orphan column).
    Warning,
}

/// One audit finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Severity of the finding.
    pub severity: Severity,
    /// Short machine-readable category (e.g. `nonfinite-coeff`).
    pub category: &'static str,
    /// Human-readable detail naming the offending row/column.
    pub detail: String,
}

/// Audit knobs.
#[derive(Debug, Clone, Default)]
pub struct AuditConfig {
    /// Expected number of sorting-network comparators, when the caller
    /// knows it (e.g. computed per flow/link from the bubble formula via
    /// [`expected_bubble_comparators`]). `None` skips the count check.
    pub expected_comparators: Option<usize>,
    /// Treat orphan columns as errors instead of warnings.
    pub strict_orphans: bool,
}
/// The result of auditing one model.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// All findings, errors first.
    pub findings: Vec<Finding>,
    /// Rows inspected.
    pub rows: usize,
    /// Columns inspected.
    pub cols: usize,
    /// Sorting-network comparators recognized (`cs_z` count).
    pub comparators: usize,
}

impl AuditReport {
    /// Whether the model passed (no error-severity findings).
    pub fn ok(&self) -> bool {
        !self.findings.iter().any(|f| f.severity == Severity::Error)
    }

    /// Error-severity findings only.
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
    }
}

/// Number of compare-swap elements a bubble network needs to surface the
/// `m` largest (or smallest) of `n` inputs: `Σ_{j=0..m-1} (n−1−j)` —
/// the `O(kn)` count of paper Algorithms 1–2, restated here
/// independently of `ffc-core`'s builder.
pub fn expected_bubble_comparators(n: usize, m: usize) -> usize {
    (0..m.min(n)).map(|j| n.saturating_sub(1 + j)).sum()
}

/// Audits `model`, returning every finding (empty report = clean).
pub fn audit_model(model: &Model, cfg: &AuditConfig) -> AuditReport {
    let mut rep = AuditReport::default();
    let ncols = model.num_vars();
    let nrows = model.num_cons();
    rep.rows = nrows;
    rep.cols = ncols;

    let mut findings: Vec<Finding> = Vec::new();
    fn err(findings: &mut Vec<Finding>, category: &'static str, detail: String) {
        findings.push(Finding {
            severity: Severity::Error,
            category,
            detail,
        });
    }

    // --- Column bounds. ---
    let mut col_in_row = vec![0usize; ncols];
    for j in 0..ncols {
        let (lb, ub) = model.var_bounds(ffc_lp::VarId::from_index(j));
        let name = || {
            model
                .var_name(ffc_lp::VarId::from_index(j))
                .unwrap_or("<unnamed>")
                .to_string()
        };
        if lb.is_nan() || ub.is_nan() {
            err(
                &mut findings,
                "nan-bound",
                format!("column {j} ({}) has a NaN bound", name()),
            );
        } else if lb > ub {
            err(
                &mut findings,
                "inverted-bounds",
                format!("column {j} ({}): lb {lb} > ub {ub}", name()),
            );
        }
    }

    // --- Rows. ---
    // Normalized row signatures for duplicate detection.
    let mut seen_rows: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    for (i, con) in model.con_views().enumerate() {
        let rname = con.name.unwrap_or("<unnamed>");
        if !con.rhs.is_finite() {
            err(
                &mut findings,
                "nonfinite-rhs",
                format!("row {i} ({rname}): rhs {} is not finite", con.rhs),
            );
        }
        let terms: Vec<(usize, f64)> = con.expr.terms().map(|(v, c)| (v.index(), c)).collect();
        if terms.is_empty() {
            err(
                &mut findings,
                "empty-row",
                format!("row {i} ({rname}) has no terms (cancelled or never populated)"),
            );
        }
        let mut prev: Option<usize> = None;
        for &(v, c) in &terms {
            if !c.is_finite() {
                err(
                    &mut findings,
                    "nonfinite-coeff",
                    format!("row {i} ({rname}): coefficient {c} on column {v}"),
                );
            }
            if v >= ncols {
                err(
                    &mut findings,
                    "column-out-of-range",
                    format!("row {i} ({rname}) references column {v} of {ncols}"),
                );
            } else {
                col_in_row[v] += 1;
            }
            match prev {
                // Strictly ascending column order is what add_con's
                // deterministic merge-by-sum guarantees; equal indices
                // would mean an unmerged duplicate (row, col) entry.
                Some(p) if v == p => err(
                    &mut findings,
                    "duplicate-entry",
                    format!("row {i} ({rname}): duplicate entry for column {v}"),
                ),
                Some(p) if v < p => err(
                    &mut findings,
                    "unsorted-row",
                    format!("row {i} ({rname}): columns not sorted ({v} after {p})"),
                ),
                _ => {}
            }
            prev = Some(v);
        }
        // Duplicate-row detection over a normalized signature.
        let mut sig = String::with_capacity(terms.len() * 12);
        for &(v, c) in &terms {
            sig.push_str(&format!("{v}:{c:e};"));
        }
        sig.push_str(&format!("{:?}:{:e}", con.cmp, con.rhs));
        if let Some(&first) = seen_rows.get(&sig) {
            findings.push(Finding {
                severity: Severity::Warning,
                category: "duplicate-row",
                detail: format!("row {i} ({rname}) duplicates row {first}"),
            });
        } else {
            seen_rows.insert(sig, i);
        }
    }

    // --- Orphan columns: in no row and carrying no objective weight.
    // Columns pinned by equal bounds (e.g. dead tunnels zeroed to
    // (0, 0)) are deliberate and skipped. ---
    let (obj, _) = model.objective();
    let mut in_obj = vec![false; ncols];
    for (v, c) in obj.terms() {
        if v.index() < ncols && c != 0.0 {
            in_obj[v.index()] = true;
        }
    }
    for j in 0..ncols {
        if col_in_row[j] == 0 && !in_obj[j] {
            let (lb, ub) = model.var_bounds(ffc_lp::VarId::from_index(j));
            if lb == ub {
                continue;
            }
            findings.push(Finding {
                severity: if cfg.strict_orphans {
                    Severity::Error
                } else {
                    Severity::Warning
                },
                category: "orphan-column",
                detail: format!(
                    "column {j} ({}) appears in no row and has no objective weight",
                    model
                        .var_name(ffc_lp::VarId::from_index(j))
                        .unwrap_or("<unnamed>")
                ),
            });
        }
    }

    // --- FFC structural checks (by naming convention). ---
    ffc_structure(model, cfg, &mut findings, &mut rep);

    findings.sort_by_key(|f| match f.severity {
        Severity::Error => 0,
        Severity::Warning => 1,
    });
    rep.findings = findings;
    rep
}

/// FFC-specific structural invariants, recognized via the workspace's
/// variable/row naming conventions. Models without FFC structure (no
/// `cs_*`/`cap_*`/`cover_*` names) pass trivially.
fn ffc_structure(
    model: &Model,
    cfg: &AuditConfig,
    findings: &mut Vec<Finding>,
    rep: &mut AuditReport,
) {
    let ncols = model.num_vars();
    let mut err = |category: &'static str, detail: String| {
        findings.push(Finding {
            severity: Severity::Error,
            category,
            detail,
        });
    };

    // Classify columns by name once.
    let mut n_max = 0usize;
    let mut n_min = 0usize;
    let mut is_z = vec![false; ncols];
    let mut n_z = 0usize;
    for (j, z) in is_z.iter_mut().enumerate() {
        match model.var_name(ffc_lp::VarId::from_index(j)) {
            Some("cs_max") => n_max += 1,
            Some("cs_min") => n_min += 1,
            Some("cs_z") => {
                *z = true;
                n_z += 1;
            }
            _ => {}
        }
    }
    rep.comparators = n_z;

    // One (max, min, z) triple per comparator.
    if n_max != n_z || n_min != n_z {
        err(
            "comparator-triple",
            format!("sorting network: {n_max} cs_max / {n_min} cs_min / {n_z} cs_z (must match)"),
        );
    }
    if let Some(expected) = cfg.expected_comparators {
        if n_z != expected {
            err(
                "comparator-count",
                format!(
                    "sorting network: {n_z} comparators, bubble formula expects {expected} \
                     (Algs 1-2: sum of (n-1-j) over output passes)"
                ),
            );
        }
    }

    // Each comparator's slack `z` is fresh — it must appear in exactly
    // the comparator's own 4 rows: two Le guards (|x−y| ≤ z) and the
    // two defining equalities `2·out − x − y ∓ z = 0`. The inputs `x`,
    // `y` may be expressions (control FFC compares per-ingress gaps
    // Σ(β − a)), so the rows are read against each other: see
    // `comparator_shape`. Checking them pins the monotone wiring of the
    // bubble outputs.
    let mut z_rows: Vec<ZRows> = vec![ZRows::default(); ncols];
    for (i, con) in model.con_views().enumerate() {
        let mut z_cols: Vec<usize> = Vec::new();
        for (v, _) in con.expr.terms() {
            if v.index() < ncols && is_z[v.index()] {
                z_cols.push(v.index());
            }
        }
        let [z] = z_cols[..] else {
            if z_cols.len() > 1 {
                err(
                    "comparator-shared-slack",
                    format!("row {i} references {} distinct cs_z columns", z_cols.len()),
                );
            }
            continue;
        };
        match con.cmp {
            Cmp::Le => z_rows[z].le.push(i),
            Cmp::Eq => z_rows[z].eq.push(i),
            Cmp::Ge => z_rows[z].other += 1,
        }
    }
    let rows: Vec<ConView<'_>> = model.con_views().collect();
    let is_out: Vec<bool> = (0..ncols)
        .map(|j| {
            matches!(
                model.var_name(ffc_lp::VarId::from_index(j)),
                Some("cs_max" | "cs_min")
            )
        })
        .collect();
    for (j, zr) in z_rows.iter().enumerate() {
        if !is_z[j] {
            continue;
        }
        let (le, eq, other) = (zr.le.len(), zr.eq.len(), zr.other);
        let (&[g1, g2], &[e1, e2], 0) = (&zr.le[..], &zr.eq[..], other) else {
            err(
                "comparator-wiring",
                format!(
                    "cs_z column {j}: wired into {le} Le / {eq} Eq / {other} other rows \
                     (each comparator must contribute exactly 2 Le guards + 2 equalities)"
                ),
            );
            continue;
        };
        let row = |i: usize| &rows[i];
        if let Err((category, why)) =
            comparator_shape(j, [row(e1), row(e2)], [row(g1), row(g2)], &is_out)
        {
            err(
                category,
                format!("cs_z column {j} (rows {e1}, {e2}, {g1}, {g2}): {why}"),
            );
        }
    }

    // Capacity rows: all +1 coefficients, Le, nonnegative rhs.
    // Coverage rows: Σ a − b with rhs exactly 0 (the flow-conservation
    // "net to zero" invariant), Ge.
    for (i, con) in model.con_views().enumerate() {
        let Some(name) = con.name else { continue };
        if name.starts_with("cap_") {
            if con.cmp != Cmp::Le || con.rhs < 0.0 {
                err(
                    "capacity-row-shape",
                    format!("row {i} ({name}): capacity rows must be `≤ rhs` with rhs ≥ 0"),
                );
            }
            if con.expr.terms().any(|(_, c)| c != 1.0) {
                err(
                    "capacity-row-shape",
                    format!("row {i} ({name}): capacity rows carry unit tunnel coefficients"),
                );
            }
        } else if name.starts_with("cover_") {
            let mut pos = 0usize;
            let mut neg = 0usize;
            let mut bad = false;
            for (_, c) in con.expr.terms() {
                if c == 1.0 {
                    pos += 1;
                } else if c == -1.0 {
                    neg += 1;
                } else {
                    bad = true;
                }
            }
            if con.cmp != Cmp::Ge || con.rhs != 0.0 || neg != 1 || pos == 0 || bad {
                err(
                    "coverage-row-shape",
                    format!(
                        "row {i} ({name}): coverage rows must be `Σ a - b ≥ 0` \
                         (got {pos} unit, {neg} negative-unit terms, rhs {})",
                        con.rhs
                    ),
                );
            }
        }
    }
}

/// The rows one comparator slack `z` appears in, by sense.
#[derive(Debug, Clone, Default)]
struct ZRows {
    le: Vec<usize>,
    eq: Vec<usize>,
    other: usize,
}

/// A row's terms other than `z` and (in an equality) the output, by
/// column: the row's input part.
type InputPart = Vec<(usize, f64)>;

/// Splits a comparator row around its slack `z`: `z`'s coefficient, the
/// output columns at +2 (when `outputs`), and the input part.
fn split_row(
    con: &ConView<'_>,
    z: usize,
    is_out: &[bool],
    outputs: bool,
) -> (f64, usize, InputPart) {
    let mut zc = 0.0;
    let mut n_out = 0;
    let mut input = Vec::new();
    for (v, c) in con.expr.terms() {
        let j = v.index();
        if j == z {
            zc = c;
        } else if outputs && c == 2.0 && is_out.get(j).copied().unwrap_or(false) {
            n_out += 1;
        } else {
            input.push((j, c));
        }
    }
    (zc, n_out, input)
}

/// The shape of one sorting-network comparator with slack `z`, inputs
/// `x` and `y` single columns or expressions:
///
/// * both equalities are `2·out − x − y ∓ z = 0`: rhs 0, one output
///   (`cs_max`/`cs_min`) at +2, `z` at −1 in one and +1 in the other,
///   and the same nonempty input part `−(x + y)`;
/// * both guards are `±(x − y) − z ≤ 0`: rhs 0, `z` at −1, input parts
///   that negate each other, over exactly the equalities' input
///   columns, each at the magnitude it has there (it belongs to `x` or
///   to `y`) and with both inputs present (some column at the
///   equalities' sign, some at the opposite one).
///
/// Returns the finding's category and detail on a mismatch.
fn comparator_shape(
    z: usize,
    eqs: [&ConView<'_>; 2],
    guards: [&ConView<'_>; 2],
    is_out: &[bool],
) -> Result<(), (&'static str, String)> {
    let equality = |why: &str| Err(("comparator-equality-shape", why.to_string()));
    let [(z1, o1, s1), (z2, o2, s2)] = eqs.map(|e| split_row(e, z, is_out, true));
    if eqs.iter().any(|e| e.rhs != 0.0) {
        return equality("comparator equality must be 2*out - x - y -/+ z = 0 (rhs not 0)");
    }
    if o1 != 1 || o2 != 1 {
        return equality("comparator equality must carry one cs_max/cs_min output at +2");
    }
    let mut zs = [z1, z2];
    zs.sort_by(f64::total_cmp);
    if zs != [-1.0, 1.0] {
        return equality("comparator equalities must carry z at -1 and at +1");
    }
    if s1 != s2 || s1.is_empty() {
        return equality("comparator equalities must carry the same input part -(x + y)");
    }

    let guard = |why: &str| Err(("comparator-guard-shape", why.to_string()));
    let [(zg1, _, d1), (zg2, _, d2)] = guards.map(|g| split_row(g, z, is_out, false));
    if guards.iter().any(|g| g.rhs != 0.0) || zg1 != -1.0 || zg2 != -1.0 {
        return guard("comparator guard must be +/-(x - y) - z <= 0");
    }
    let negated: InputPart = d1.iter().map(|&(j, c)| (j, -c)).collect();
    if d2 != negated {
        return guard("comparator guards must carry x - y and y - x");
    }
    let same_columns = d1.len() == s1.len()
        && d1
            .iter()
            .zip(&s1)
            .all(|(&(dj, dc), &(sj, sc))| dj == sj && dc.abs() == sc.abs());
    let x_side = d1.iter().zip(&s1).any(|(&(_, dc), &(_, sc))| dc == -sc);
    let y_side = d1.iter().zip(&s1).any(|(&(_, dc), &(_, sc))| dc == sc);
    if !same_columns || !x_side || !y_side {
        return guard("comparator guards' x - y does not match the equalities' input part");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffc_lp::{Cmp, LinExpr, Model, Sense};

    #[test]
    fn clean_model_passes() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 4.0, "x");
        let y = m.add_nonneg("y");
        m.add_con(LinExpr::from(x) + y, Cmp::Le, 6.0);
        m.set_objective(
            LinExpr::term(x, 3.0) + LinExpr::term(y, 5.0),
            Sense::Maximize,
        );
        let rep = audit_model(&m, &AuditConfig::default());
        assert!(rep.ok(), "{:?}", rep.findings);
        assert!(rep.findings.is_empty());
    }

    #[test]
    fn inverted_bounds_and_nonfinite_coeffs_are_errors() {
        let mut m = Model::new();
        let x = m.add_var(2.0, 1.0, "x"); // inverted
        m.add_con(LinExpr::term(x, f64::INFINITY), Cmp::Le, 1.0);
        let rep = audit_model(&m, &AuditConfig::default());
        assert!(!rep.ok());
        let cats: Vec<_> = rep.errors().map(|f| f.category).collect();
        assert!(cats.contains(&"inverted-bounds"), "{cats:?}");
        assert!(cats.contains(&"nonfinite-coeff"), "{cats:?}");
    }

    #[test]
    fn cancelled_row_is_an_empty_row_error() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0, "x");
        // 2x − 2x cancels to an empty row.
        m.add_con(LinExpr::term(x, 2.0) + LinExpr::term(x, -2.0), Cmp::Le, 1.0);
        m.set_objective(LinExpr::from(x), Sense::Maximize);
        let rep = audit_model(&m, &AuditConfig::default());
        assert!(rep.errors().any(|f| f.category == "empty-row"));
    }

    #[test]
    fn duplicate_rows_and_orphans_are_warnings() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0, "x");
        let _orphan = m.add_var(0.0, 1.0, "unused");
        m.add_con(LinExpr::from(x), Cmp::Le, 1.0);
        m.add_con(LinExpr::from(x), Cmp::Le, 1.0);
        m.set_objective(LinExpr::from(x), Sense::Maximize);
        let rep = audit_model(&m, &AuditConfig::default());
        assert!(rep.ok()); // warnings only
        let cats: Vec<_> = rep.findings.iter().map(|f| f.category).collect();
        assert!(cats.contains(&"duplicate-row"), "{cats:?}");
        assert!(cats.contains(&"orphan-column"), "{cats:?}");
    }

    #[test]
    fn bubble_formula_matches_paper_counts() {
        // N inputs, m outputs: sum_{j<m} (N-1-j).
        assert_eq!(expected_bubble_comparators(4, 1), 3);
        assert_eq!(expected_bubble_comparators(4, 2), 3 + 2);
        assert_eq!(expected_bubble_comparators(4, 4), 3 + 2 + 1);
        assert_eq!(expected_bubble_comparators(1, 1), 0);
        assert_eq!(expected_bubble_comparators(0, 3), 0);
    }

    /// A hand-built comparator with the exact Algs 1–2 wiring passes;
    /// corrupting one equality coefficient fails.
    #[test]
    fn comparator_wiring_is_checked() {
        let build = |corrupt: bool| {
            let mut m = Model::new();
            let x = m.add_var(0.0, 1.0, "x");
            let y = m.add_var(0.0, 1.0, "y");
            let xmax = m.add_free("cs_max");
            let xmin = m.add_free("cs_min");
            let z = m.add_nonneg("cs_z");
            let d = LinExpr::from(x) - LinExpr::from(y);
            m.add_con(d.clone() - LinExpr::from(z), Cmp::Le, 0.0);
            m.add_con(
                LinExpr::from(y) - LinExpr::from(x) - LinExpr::from(z),
                Cmp::Le,
                0.0,
            );
            let two = if corrupt { 3.0 } else { 2.0 };
            m.add_con(
                LinExpr::term(xmax, two) - LinExpr::from(x) - LinExpr::from(y) - LinExpr::from(z),
                Cmp::Eq,
                0.0,
            );
            m.add_con(
                LinExpr::term(xmin, 2.0) - LinExpr::from(x) - LinExpr::from(y) + LinExpr::from(z),
                Cmp::Eq,
                0.0,
            );
            m.set_objective(LinExpr::from(xmax), Sense::Maximize);
            m
        };
        let good = audit_model(&build(false), &AuditConfig::default());
        assert!(good.ok(), "{:?}", good.findings);
        assert_eq!(good.comparators, 1);
        let bad = audit_model(&build(true), &AuditConfig::default());
        assert!(bad
            .errors()
            .any(|f| f.category == "comparator-equality-shape"));
    }

    /// Control FFC compares per-ingress gap expressions `Σ(β − a)`: a
    /// comparator over two-term inputs passes, and corrupting one
    /// equality's input part, or one guard's, fails.
    #[test]
    fn expression_comparators_are_checked() {
        #[derive(Clone, Copy, PartialEq)]
        enum Corrupt {
            Nothing,
            Equality,
            Guard,
        }
        let build = |corrupt: Corrupt| {
            let mut m = Model::new();
            let (b1, a1) = (m.add_nonneg("beta_1"), m.add_nonneg("a_1"));
            let (b2, a2) = (m.add_nonneg("beta_2"), m.add_nonneg("a_2"));
            let x = LinExpr::from(b1) - LinExpr::from(a1);
            let y = LinExpr::from(b2) - LinExpr::from(a2);
            let xmax = m.add_free("cs_max");
            let xmin = m.add_free("cs_min");
            let z = m.add_nonneg("cs_z");
            let guard_y = if corrupt == Corrupt::Guard {
                LinExpr::from(b2) - LinExpr::term(a2, 2.0)
            } else {
                y.clone()
            };
            m.add_con(x.clone() - guard_y - z, Cmp::Le, 0.0);
            m.add_con(y.clone() - x.clone() - z, Cmp::Le, 0.0);
            m.add_con(
                LinExpr::term(xmax, 2.0) - x.clone() - y.clone() - z,
                Cmp::Eq,
                0.0,
            );
            let min_x = if corrupt == Corrupt::Equality {
                LinExpr::from(b1)
            } else {
                x
            };
            m.add_con(
                LinExpr::term(xmin, 2.0) - min_x - y + LinExpr::from(z),
                Cmp::Eq,
                0.0,
            );
            m.set_objective(LinExpr::from(xmax) + xmin, Sense::Maximize);
            m
        };
        let good = audit_model(&build(Corrupt::Nothing), &AuditConfig::default());
        assert!(good.ok(), "{:?}", good.findings);
        assert_eq!(good.comparators, 1);
        for (corrupt, category) in [
            (Corrupt::Equality, "comparator-equality-shape"),
            (Corrupt::Guard, "comparator-guard-shape"),
        ] {
            let bad = audit_model(&build(corrupt), &AuditConfig::default());
            let cats: Vec<_> = bad.errors().map(|f| f.category).collect();
            assert_eq!(cats, [category]);
        }
    }

    #[test]
    fn comparator_count_check_uses_expected() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0, "x");
        m.set_objective(LinExpr::from(x), Sense::Maximize);
        let cfg = AuditConfig {
            expected_comparators: Some(2),
            ..AuditConfig::default()
        };
        let rep = audit_model(&m, &cfg);
        assert!(rep.errors().any(|f| f.category == "comparator-count"));
    }
}
