//! Independent solution certifier (tentpole pass 2).
//!
//! Re-derives FFC's congestion-free guarantee for a *solved*
//! configuration by direct arithmetic over the tunnel layout: the
//! proportional rescaling an OpenFlow group table performs around dead
//! tunnels, the stale-ingress semantics of paper §4.2, and the
//! per-scenario link loads of §4.3 — with **no simplex code anywhere on
//! this path**. The rescaling arithmetic here is an intentional
//! re-implementation of `ffc-core::rescale` (same semantics, written
//! independently), so a bug in the solver or in core's rescaling cannot
//! certify itself.
//!
//! [`certify`] runs the static checks, then tries to prove the
//! configuration by the paper's Lemma 1 (`crate::lemma`: per-flow
//! residual cover, per-link capacity, per-ingress stale gaps) without
//! enumerating a scenario. What the proof does not accept falls back to
//! one enumeration walk, scenario by scenario, which stays the one
//! authority for rejections. [`certify_enumerated`] runs that walk
//! whatever the proof would say; it is what the tests hold the proof to.
//!
//! The result is a machine-readable [`Certificate`]: accepted/rejected,
//! how the verdict was reached ([`CertMethod`]), how many fault
//! scenarios were checked, whether the check was exhaustive or
//! budget-capped, and the worst relative oversubscription observed (an
//! upper bound when the lemma decided).
//!
//! The module also provides [`verify_lp_solution`], a generic check of
//! a primal vector against an [`ffc_lp::Model`]: variable bounds and
//! per-row feasibility residuals, again without touching the solver.

use std::collections::BTreeSet;

use ffc_lp::{Cmp, Model};
use ffc_net::{FaultScenario, LinkId, NodeId, Topology, TrafficMatrix, Tunnel, TunnelTable};

/// Absolute feasibility tolerance (rates and loads are in capacity
/// units, typically O(1)–O(100)).
pub const ABS_TOL: f64 = 1e-5;
/// Relative feasibility tolerance (scales with capacity / demand).
pub const REL_TOL: f64 = 1e-6;

/// Default cap on the number of fault scenarios enumerated before the
/// certificate is marked non-exhaustive.
pub const DEFAULT_SCENARIO_BUDGET: usize = 200_000;

/// A group bucket whose residual weights sum to at most this forwards
/// nothing.
pub(crate) const ZERO_WEIGHT: f64 = 1e-12;

/// Combined `x ≤ bound` test under [`ABS_TOL`] + [`REL_TOL`].
#[inline]
pub(crate) fn within(x: f64, bound: f64) -> bool {
    x <= bound + ABS_TOL + REL_TOL * bound.abs()
}

/// Protection level `(kc, ke, kv)` the certificate is issued against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Protection {
    /// Control-plane faults (stale ingress switches).
    pub kc: usize,
    /// Link failures.
    pub ke: usize,
    /// Switch failures.
    pub kv: usize,
}

impl Protection {
    /// No protection: only the fault-free scenario is checked.
    pub fn none() -> Self {
        Self::default()
    }

    /// Protection against `kc` control, `ke` link, `kv` switch faults.
    pub fn new(kc: usize, ke: usize, kv: usize) -> Self {
        Self { kc, ke, kv }
    }
}

/// Everything the certifier needs, expressed over primitive slices so
/// that `ffc-audit` does not depend on `ffc-core` (core depends on the
/// auditor, not the other way round).
pub struct CertInput<'a> {
    /// Network topology.
    pub topo: &'a Topology,
    /// Traffic matrix the configuration was computed for.
    pub tm: &'a TrafficMatrix,
    /// Tunnel layout, indexed by flow.
    pub tunnels: &'a TunnelTable,
    /// Granted rate `b_f` per flow.
    pub rate: &'a [f64],
    /// Tunnel allocations `a_{f,t}` per flow (also the splitting
    /// weights).
    pub alloc: &'a [Vec<f64>],
    /// Previous configuration's allocations, used as the splitting
    /// weights of stale ingresses when `kc > 0`. `None` skips
    /// control-plane scenarios (certificate is then non-exhaustive if
    /// `kc > 0`).
    pub old_alloc: Option<&'a [Vec<f64>]>,
    /// Protection level to certify against.
    pub protection: Protection,
    /// Links exempt from the congestion-free check (the §4.5 escape
    /// hatch).
    pub unprotected_links: &'a [LinkId],
    /// Scenario enumeration budget.
    pub max_scenarios: usize,
}

impl<'a> CertInput<'a> {
    /// An input with no old configuration, no unprotected links, and
    /// the default scenario budget.
    pub fn new(
        topo: &'a Topology,
        tm: &'a TrafficMatrix,
        tunnels: &'a TunnelTable,
        rate: &'a [f64],
        alloc: &'a [Vec<f64>],
        protection: Protection,
    ) -> Self {
        Self {
            topo,
            tm,
            tunnels,
            rate,
            alloc,
            old_alloc: None,
            protection,
            unprotected_links: &[],
            max_scenarios: DEFAULT_SCENARIO_BUDGET,
        }
    }
}

/// Certificate verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertStatus {
    /// Every check passed over every enumerated scenario.
    Certified,
    /// At least one check failed; see [`Certificate::violations`].
    Rejected,
}

/// How a certificate's verdict was reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertMethod {
    /// Proved by the paper's Lemma 1 over the configuration, the
    /// topology and the tunnel paths; no scenario was enumerated.
    Lemma,
    /// Scenario by scenario (up to the budget), or refused by the
    /// static checks before any scenario ran.
    Enumeration,
}

impl CertMethod {
    /// Short single-token name, as in [`Certificate::to_json`].
    pub fn as_str(self) -> &'static str {
        match self {
            CertMethod::Lemma => "lemma",
            CertMethod::Enumeration => "enumeration",
        }
    }
}

/// Machine-readable certification result.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// Verdict.
    pub status: CertStatus,
    /// How the verdict was reached. Only an accepted certificate can
    /// say [`CertMethod::Lemma`].
    pub method: CertMethod,
    /// Number of fault scenarios whose link loads were recomputed.
    pub scenarios_checked: usize,
    /// Whether every scenario within the protection level was checked
    /// (`false` when the budget capped enumeration, or when `kc > 0`
    /// control scenarios were skipped for lack of an old
    /// configuration).
    pub exhaustive: bool,
    /// Worst observed `load / capacity` over live, protected links
    /// across all scenarios (1.0 = exactly full). Under
    /// [`CertMethod::Lemma`] it is the proof's bound, which is at least
    /// what enumeration would observe.
    pub max_oversubscription: f64,
    /// Total number of individual check failures.
    pub num_violations: usize,
    /// First few failures, human-readable (capped at
    /// [`Certificate::MAX_RECORDED`]).
    pub violations: Vec<String>,
}

impl Certificate {
    /// Max violation strings retained on the certificate.
    pub const MAX_RECORDED: usize = 16;

    /// Whether the configuration was certified.
    pub fn ok(&self) -> bool {
        self.status == CertStatus::Certified
    }

    /// Short single-token status, for telemetry columns.
    pub fn status_str(&self) -> &'static str {
        match self.status {
            CertStatus::Certified => {
                if self.exhaustive {
                    "certified"
                } else {
                    "certified-sampled"
                }
            }
            CertStatus::Rejected => "rejected",
        }
    }

    /// Serializes the certificate as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str("{\"status\":\"");
        s.push_str(self.status_str());
        s.push_str("\",\"method\":\"");
        s.push_str(self.method.as_str());
        s.push_str("\",\"scenarios_checked\":");
        s.push_str(&self.scenarios_checked.to_string());
        s.push_str(",\"exhaustive\":");
        s.push_str(if self.exhaustive { "true" } else { "false" });
        s.push_str(",\"max_oversubscription\":");
        s.push_str(&format!("{:.6}", self.max_oversubscription));
        s.push_str(",\"num_violations\":");
        s.push_str(&self.num_violations.to_string());
        s.push_str(",\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&crate::analysis::json_str(v));
        }
        s.push_str("]}");
        s
    }

    pub(crate) fn record(&mut self, msg: String) {
        self.num_violations += 1;
        if self.violations.len() < Self::MAX_RECORDED {
            self.violations.push(msg);
        }
        self.status = CertStatus::Rejected;
    }
}

/// Verifies a primal vector against an LP model: variable bounds and
/// per-row residuals, by direct evaluation. Returns the violations
/// found (empty = primal-feasible within tolerance).
pub fn verify_lp_solution(model: &Model, values: &[f64]) -> Vec<String> {
    let mut out = Vec::new();
    if values.len() != model.num_vars() {
        out.push(format!(
            "solution has {} values but model has {} variables",
            values.len(),
            model.num_vars()
        ));
        return out;
    }
    for (j, &x) in values.iter().enumerate() {
        let v = ffc_lp::VarId::from_index(j);
        let (lb, ub) = model.var_bounds(v);
        if !x.is_finite() {
            out.push(format!("x{j} = {x} is not finite"));
        } else if !within(lb, x) || !within(x, ub) {
            out.push(format!("x{j} = {x} outside bounds [{lb}, {ub}]"));
        }
    }
    for (i, con) in model.con_views().enumerate() {
        let lhs = con.expr.eval(values);
        let name = con.name.unwrap_or("");
        let bad = match con.cmp {
            Cmp::Le => !within(lhs, con.rhs),
            Cmp::Ge => !within(con.rhs, lhs),
            Cmp::Eq => (lhs - con.rhs).abs() > ABS_TOL + REL_TOL * con.rhs.abs().max(lhs.abs()),
        };
        if bad {
            out.push(format!(
                "row {i} '{name}': lhs {lhs:.8} vs rhs {:.8} ({:?})",
                con.rhs, con.cmp
            ));
        }
    }
    out
}

/// Verdict of [`verify_lp_certificate`]: how much of the solver's
/// optimality claim could be re-derived independently.
#[derive(Debug, Clone, PartialEq)]
pub enum LpCertificate {
    /// Primal feasible *and* the solver's duals pass the KKT checks
    /// (dual feasibility, complementary slackness, stationarity):
    /// certified optimal, with the primal−dual objective gap.
    Optimal {
        /// `|primal objective − dual objective|`.
        gap: f64,
    },
    /// Primal feasible, but optimality could not be certified — duals
    /// missing (e.g. the dense cross-check solver) or a KKT condition
    /// failed. The certificate is demoted, not rejected.
    FeasibleOnly {
        /// Why the optimality claim was demoted.
        reason: String,
    },
    /// The primal vector violates bounds or rows.
    Infeasible {
        /// The violations, from [`verify_lp_solution`].
        violations: Vec<String>,
    },
}

impl LpCertificate {
    /// Whether the solution is at least feasible.
    pub fn is_feasible(&self) -> bool {
        !matches!(self, LpCertificate::Infeasible { .. })
    }

    /// Whether optimality was certified.
    pub fn is_optimal(&self) -> bool {
        matches!(self, LpCertificate::Optimal { .. })
    }
}

/// Checks a solved model against the full KKT conditions using the
/// duals the simplex engine reported — still with no simplex code on
/// the verification path (plain dot products over the model rows).
///
/// * **Primal feasibility** — bounds and row residuals
///   ([`verify_lp_solution`]); failure rejects outright.
/// * **Dual feasibility** — row dual signs match the row sense and the
///   objective sense (for a maximization, a `<=` row has `y >= 0`).
/// * **Complementary slackness** — a row with a significantly nonzero
///   dual must be binding.
/// * **Stationarity** — reduced costs `d_j = c_j − Σ_i y_i a_ij`
///   vanish for interior variables and have the optimal sign at
///   bounds; the primal−dual objective gap is reported.
///
/// Any dual-side failure demotes the certificate to
/// [`LpCertificate::FeasibleOnly`] with the first offending condition
/// as the reason — a wrong dual does not un-prove feasibility.
pub fn verify_lp_certificate(model: &Model, sol: &ffc_lp::Solution) -> LpCertificate {
    let violations = verify_lp_solution(model, &sol.values);
    if !violations.is_empty() {
        return LpCertificate::Infeasible { violations };
    }
    let m = model.num_cons();
    if sol.duals.is_empty() {
        return LpCertificate::FeasibleOnly {
            reason: "no duals reported by the solving path".to_string(),
        };
    }
    if sol.duals.len() != m {
        return LpCertificate::FeasibleOnly {
            reason: format!("{} duals for {} rows", sol.duals.len(), m),
        };
    }
    let (obj, sense) = model.objective();
    let maximize = matches!(sense, ffc_lp::Sense::Maximize);

    // Reduced costs d = c − Aᵀy, and the dual objective Σ yᵢ·rhsᵢ
    // (net of any constant folded into a row's expression).
    let n = model.num_vars();
    let mut d = vec![0.0; n];
    for (v, c) in obj.terms() {
        d[v.index()] += c;
    }
    let mut dual_obj = 0.0;
    for (i, con) in model.con_views().enumerate() {
        let y = sol.duals[i];
        if !y.is_finite() {
            return LpCertificate::FeasibleOnly {
                reason: format!("dual y{i} = {y} is not finite"),
            };
        }
        // Dual feasibility: sign vs row sense.
        let sign_ok = match (con.cmp, maximize) {
            (Cmp::Eq, _) => true,
            (Cmp::Le, true) | (Cmp::Ge, false) => y >= -ABS_TOL,
            (Cmp::Le, false) | (Cmp::Ge, true) => y <= ABS_TOL,
        };
        if !sign_ok {
            return LpCertificate::FeasibleOnly {
                reason: format!(
                    "dual infeasibility: row {i} ({:?}) has dual {y:.3e} of the wrong sign",
                    con.cmp
                ),
            };
        }
        // Complementary slackness: nonzero dual ⇒ binding row.
        let lhs = con.expr.eval(&sol.values);
        let slack = (lhs - con.rhs).abs();
        if y.abs() > ABS_TOL && slack > ABS_TOL + REL_TOL * con.rhs.abs().max(lhs.abs()) {
            return LpCertificate::FeasibleOnly {
                reason: format!(
                    "complementary slackness: row {i} has dual {y:.3e} but slack {slack:.3e}"
                ),
            };
        }
        for (v, a) in con.expr.terms() {
            d[v.index()] -= y * a;
        }
        dual_obj += y * (con.rhs - con.expr.constant_part());
    }

    // Stationarity: reduced-cost signs at the primal point, plus the
    // bound multipliers' contribution to the dual objective.
    for (j, dj) in d.iter().enumerate() {
        let x = sol.values[j];
        let (lb, ub) = model.var_bounds(ffc_lp::VarId::from_index(j));
        let at_lb = lb.is_finite() && x - lb <= ABS_TOL + REL_TOL * lb.abs();
        let at_ub = ub.is_finite() && ub - x <= ABS_TOL + REL_TOL * ub.abs();
        let tol = ABS_TOL * 10.0 + REL_TOL * dj.abs();
        if dj.abs() <= tol {
            continue; // zero reduced cost is always stationary
        }
        // Nonzero reduced cost: the variable must rest on the bound
        // that the sign pins it to.
        let pushed_to_lb = if maximize { *dj < 0.0 } else { *dj > 0.0 };
        let pinned_ok = if pushed_to_lb { at_lb } else { at_ub };
        if !pinned_ok {
            return LpCertificate::FeasibleOnly {
                reason: format!(
                    "stationarity: x{j} = {x:.6} has reduced cost {dj:.3e} but is not at its {}",
                    if pushed_to_lb {
                        "lower bound"
                    } else {
                        "upper bound"
                    }
                ),
            };
        }
        dual_obj += dj * if pushed_to_lb { lb } else { ub };
    }

    let primal_obj = obj.eval(&sol.values);
    let gap = (primal_obj - (dual_obj + obj.constant_part())).abs();
    if gap > ABS_TOL * 100.0 + REL_TOL * 100.0 * primal_obj.abs() {
        return LpCertificate::FeasibleOnly {
            reason: format!("duality gap {gap:.3e} (primal {primal_obj:.6}, dual {dual_obj:.6})"),
        };
    }
    LpCertificate::Optimal { gap }
}

/// Independent rescaling: splits `rate` over the tunnels that survive
/// `scenario` proportionally to `weights`, accumulating per-link loads.
///
/// Mirrors the data-plane semantics of `ffc-core::rescale`
/// (re-implemented here on purpose): group buckets whose residual
/// weights sum to (numerically) zero forward nothing, and the caller
/// never sees traffic invented on links the constraints did not cover.
/// The static phase has checked that `rate`, `alloc` and `old_alloc`
/// match the traffic matrix and the tunnel layout in shape.
#[allow(clippy::too_many_arguments)]
fn add_rescaled_loads(
    topo: &Topology,
    tunnels: &TunnelTable,
    tm: &TrafficMatrix,
    rate: &[f64],
    alloc: &[Vec<f64>],
    old_alloc: Option<&[Vec<f64>]>,
    scenario: &FaultScenario,
    load: &mut [f64],
) {
    debug_assert_eq!(load.len(), topo.num_links());
    load.fill(0.0);
    let stale_alloc = old_alloc.unwrap_or(alloc);
    for (((f, flow), &r), (fresh, stale)) in tm.iter().zip(rate).zip(alloc.iter().zip(stale_alloc))
    {
        if r <= 0.0 {
            continue;
        }
        if scenario.failed_switches.contains(&flow.src)
            || scenario.failed_switches.contains(&flow.dst)
        {
            continue; // blackholed at the source; no load anywhere
        }
        let weights = if scenario.config_failures.contains(&flow.src) {
            stale
        } else {
            fresh
        };
        let residual: Vec<(&Tunnel, f64)> = tunnels
            .tunnels(f)
            .iter()
            .zip(weights)
            .filter(|(t, _)| !scenario.kills_tunnel(topo, t))
            .map(|(t, &w)| (t, w))
            .collect();
        if residual.is_empty() {
            continue;
        }
        let total: f64 = residual.iter().map(|&(_, w)| w).sum();
        if total <= ZERO_WEIGHT {
            continue; // zero-weight buckets forward nothing
        }
        for &(tunnel, w) in &residual {
            let traffic = r * w / total;
            if traffic > 0.0 {
                for &l in &tunnel.links {
                    debug_assert!(l.index() < load.len(), "{l} is not a link of topo");
                    // audit:allow(panic-reachable/index): `load` holds one
                    // entry per link of `topo`, and a tunnel's links are
                    // links of `topo`.
                    load[l.index()] += traffic;
                }
            }
        }
    }
}

/// Walks every `n`-choose-`≤k` index combination (including the empty
/// one) in deterministic lexicographic order, calling `f` for each.
/// Stops early (returning `false`) when `f` returns `false`.
fn for_each_combo_up_to(n: usize, k: usize, mut f: impl FnMut(&[usize]) -> bool) -> bool {
    for size in 0..=k.min(n) {
        let mut idx: Vec<usize> = (0..size).collect();
        loop {
            if !f(&idx) {
                return false;
            }
            // Advance to the next combination of `size` out of `n`: the
            // last index below its maximum (`i + n - size` at position
            // `i`) moves up by one, and the ones after it follow it.
            let Some(i) = idx.iter().zip(n - size..n).rposition(|(&x, max)| x != max) else {
                break;
            };
            let next = idx.get(i).map_or(0, |&x| x + 1);
            for (x, v) in idx.iter_mut().skip(i).zip(next..) {
                *x = v;
            }
        }
    }
    true
}

/// Certifies a solved configuration against its protection level.
///
/// Checks, in order:
///
/// 1. **Shape + finiteness** — `rate`/`alloc` dimensions match the
///    traffic matrix and tunnel layout, every value finite.
/// 2. **Variable bounds** — `0 ≤ b_f ≤ d_f`, `a_{f,t} ≥ 0`.
/// 3. **Coverage** — `b_f ≤ Σ_t a_{f,t}` (fault-free delivery).
/// 4. **Congestion-freedom** — for the fault-free scenario, every
///    joint combination of `≤ ke` link + `≤ kv` switch failures, and
///    every combination of `≤ kc` stale ingresses (when an old
///    configuration is supplied), the rescaled link loads stay within
///    capacity on all live, protected links.
///
/// Phase 4 first tries the proof by Lemma 1: per flow, the smallest
/// residual allocation any ≤`ke` link × ≤`kv` switch failure leaves
/// bounds how far rescaling stretches it, and per link the stretched
/// allocations plus, at `kc > 0`, the `kc` largest stale-ingress gaps
/// must fit capacity. A configuration it proves is
/// [`CertMethod::Lemma`], `certified` and exhaustive with no scenario
/// checked.
///
/// Everything else — a static-phase violation, `kc > 0` without an old
/// configuration, any bound over capacity — gets
/// [`certify_enumerated`]'s certificate, field for field: scenario
/// enumeration is deterministic and stops at
/// [`CertInput::max_scenarios`] (the `exhaustive` flag records whether
/// the full protected set was covered).
pub fn certify(input: &CertInput<'_>) -> Certificate {
    let mut cert = match static_phase(input) {
        Ok(cert) => cert,
        Err(cert) => return cert,
    };
    if cert.ok() {
        if let Some(bound) = crate::lemma::prove(input) {
            cert.method = CertMethod::Lemma;
            cert.max_oversubscription = bound;
            return cert;
        }
    }
    scenario_phase(input, &mut cert);
    cert
}

/// [`certify`]'s fall-back alone: the static checks and then scenario
/// enumeration, whatever the lemma would say.
pub fn certify_enumerated(input: &CertInput<'_>) -> Certificate {
    let mut cert = match static_phase(input) {
        Ok(cert) => cert,
        Err(cert) => return cert,
    };
    scenario_phase(input, &mut cert);
    cert
}

/// Shape, finiteness, bound, and coverage checks (phases 1–3).
/// `Err` means the input is malformed and scenario evaluation must not
/// run; `Ok` carries the certificate to extend with scenario verdicts.
fn static_phase(input: &CertInput<'_>) -> Result<Certificate, Certificate> {
    let mut cert = Certificate {
        status: CertStatus::Certified,
        method: CertMethod::Enumeration,
        scenarios_checked: 0,
        exhaustive: true,
        max_oversubscription: 0.0,
        num_violations: 0,
        violations: Vec::new(),
    };
    let tm = input.tm;
    let nf = tm.len();

    // 1. Shape + finiteness. A malformed input cannot be evaluated
    // further, so bail out immediately.
    if input.rate.len() != nf || input.alloc.len() != nf {
        cert.record(format!(
            "shape: {} rates / {} allocs for {} flows",
            input.rate.len(),
            input.alloc.len(),
            nf
        ));
        return Err(cert);
    }
    if let Some(old) = input.old_alloc {
        if old.len() != nf {
            cert.record(format!(
                "shape: old config has {} allocs for {nf} flows",
                old.len()
            ));
            return Err(cert);
        }
    }
    let mut malformed = false;
    for (f, flow) in tm.iter() {
        let fi = f.index();
        let nt = input.tunnels.tunnels(f).len();
        if input.alloc[fi].len() != nt {
            cert.record(format!(
                "shape: flow {f} has {} allocations for {nt} tunnels",
                input.alloc[fi].len()
            ));
            malformed = true;
            continue;
        }
        if let Some(old) = input.old_alloc {
            if old[fi].len() != nt {
                cert.record(format!(
                    "shape: flow {f} has {} old allocations for {nt} tunnels",
                    old[fi].len()
                ));
                malformed = true;
                continue;
            }
            // A NaN weight makes every stale-ingress load NaN, and NaN
            // compares as "within capacity".
            if old[fi].iter().any(|a| !a.is_finite()) {
                cert.record(format!("flow {f}: non-finite old allocation"));
                malformed = true;
                continue;
            }
        }
        let b = input.rate[fi];
        if !b.is_finite() || input.alloc[fi].iter().any(|a| !a.is_finite()) {
            cert.record(format!("flow {f}: non-finite rate or allocation"));
            malformed = true;
            continue;
        }
        // 2. Variable bounds.
        if b < -ABS_TOL || !within(b, flow.demand) {
            cert.record(format!(
                "flow {f}: rate {b:.6} outside [0, demand {:.6}]",
                flow.demand
            ));
        }
        for (t, &a) in input.alloc[fi].iter().enumerate() {
            if a < -ABS_TOL {
                cert.record(format!("flow {f} tunnel {t}: allocation {a:.6} < 0"));
            }
        }
        // 3. Fault-free coverage b_f ≤ Σ_t a_{f,t}.
        let total: f64 = input.alloc[fi].iter().sum();
        if !within(b, total) {
            cert.record(format!(
                "flow {f}: rate {b:.6} exceeds total allocation {total:.6}"
            ));
        }
    }
    if malformed {
        return Err(cert);
    }
    Ok(cert)
}

/// Congestion-freedom (phase 4), scenario by scenario: the fault-free
/// case, every joint ≤`ke` link × ≤`kv` switch failure, then every
/// ≤`kc` stale-ingress set, in lexicographic order until the budget.
fn scenario_phase(input: &CertInput<'_>, cert: &mut Certificate) {
    let topo = input.topo;
    let tm = input.tm;
    let unprotected: BTreeSet<LinkId> = input.unprotected_links.iter().copied().collect();
    let sources: Vec<NodeId> = {
        let set: BTreeSet<NodeId> = tm.iter().map(|(_, fl)| fl.src).collect();
        set.into_iter().collect()
    };
    let mut load = vec![0.0; topo.num_links()];

    let check_scenario = |sc: &FaultScenario, cert: &mut Certificate, load: &mut [f64]| -> bool {
        if cert.scenarios_checked >= input.max_scenarios {
            cert.exhaustive = false;
            return false;
        }
        cert.scenarios_checked += 1;
        add_rescaled_loads(
            topo,
            input.tunnels,
            tm,
            input.rate,
            input.alloc,
            input.old_alloc,
            sc,
            load,
        );
        for (e, &l) in topo.links().zip(load.iter()) {
            if sc.link_dead(topo, e) || unprotected.contains(&e) {
                continue;
            }
            let cap = topo.capacity(e);
            if cap > 0.0 {
                cert.max_oversubscription = cert.max_oversubscription.max(l / cap);
            }
            if !within(l, cap) {
                cert.record(format!(
                    "scenario links={:?} switches={:?} stale={:?}: {e} carries {l:.6}/{cap:.6}",
                    sc.failed_links, sc.failed_switches, sc.config_failures
                ));
            }
        }
        true
    };

    // Joint data-plane scenarios: ≤ke links × ≤kv switches (the empty
    // combination is the fault-free case). Link and node ids are their
    // indices.
    for_each_combo_up_to(topo.num_links(), input.protection.ke, |lc| {
        for_each_combo_up_to(topo.num_nodes(), input.protection.kv, |vc| {
            let mut sc = FaultScenario::none();
            for &i in lc {
                sc.fail_link(LinkId(i));
            }
            for &i in vc {
                sc.fail_switch(NodeId(i));
            }
            check_scenario(&sc, cert, &mut load)
        })
    });

    // Control-plane scenarios: 1..=kc stale ingresses splitting the new
    // rate by the old weights (§4.2). Needs the old configuration.
    if input.protection.kc > 0 {
        match input.old_alloc {
            Some(_) => {
                for_each_combo_up_to(sources.len(), input.protection.kc, |cc| {
                    if cc.is_empty() {
                        return true; // fault-free case already covered
                    }
                    let stale = cc.iter().filter_map(|&i| sources.get(i).copied());
                    check_scenario(&FaultScenario::config(stale), cert, &mut load)
                });
            }
            None => {
                // No previous configuration (e.g. first controller
                // interval): control scenarios are vacuous but the
                // certificate must say it did not check them.
                cert.exhaustive = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffc_net::prelude::*;

    /// Figure-2-style triangle: one flow s0→s2, a direct tunnel and a
    /// 2-hop tunnel, capacities 10.
    fn fig2() -> (Topology, TrafficMatrix, TunnelTable) {
        let mut t = Topology::new();
        let ns = t.add_nodes(3, "s");
        t.add_link(ns[0], ns[2], 10.0); // e0 direct
        t.add_link(ns[0], ns[1], 10.0); // e1
        t.add_link(ns[1], ns[2], 10.0); // e2
        let mut tm = TrafficMatrix::new();
        tm.add_flow(ns[0], ns[2], 8.0, Priority::High);
        let mk = |hops: &[NodeId]| {
            let links = hops
                .windows(2)
                .map(|w| t.find_link(w[0], w[1]).unwrap())
                .collect();
            Tunnel::from_path(&t, ffc_net::Path { links })
        };
        let mut tt = TunnelTable::new(1);
        tt.push(FlowId(0), mk(&[ns[0], ns[2]]));
        tt.push(FlowId(0), mk(&[ns[0], ns[1], ns[2]]));
        (t, tm, tt)
    }

    #[test]
    fn good_unprotected_config_certifies() {
        let (t, tm, tt) = fig2();
        let rate = [8.0];
        let alloc = [vec![6.0, 2.0]];
        let cert = certify_enumerated(&CertInput::new(
            &t,
            &tm,
            &tt,
            &rate,
            &alloc,
            Protection::none(),
        ));
        assert!(cert.ok(), "{:?}", cert.violations);
        assert_eq!(cert.scenarios_checked, 1);
        assert!(cert.exhaustive);
        assert!((cert.max_oversubscription - 0.6).abs() < 1e-9);
    }

    #[test]
    fn ke1_protection_requires_fallback_headroom() {
        let (t, tm, tt) = fig2();
        // Full rate down the direct tunnel: fine fault-free, but if e0
        // dies all 8 units rescale onto the 2-hop tunnel — still within
        // the 10-capacity links, so this certifies under ke=1.
        let rate = [8.0];
        let alloc = [vec![8.0, 0.0]];
        let cert = certify(&CertInput::new(
            &t,
            &tm,
            &tt,
            &rate,
            &alloc,
            Protection::new(0, 1, 0),
        ));
        // e0 dead -> residual weights (0) sum to zero -> nothing sent.
        assert!(cert.ok(), "{:?}", cert.violations);

        // Now oversubscribe: rate 12 with cover from both tunnels; when
        // e0 dies, all 12 units land on the 10-capacity via links.
        let mut tm2 = tm.clone();
        tm2.set_demand(FlowId(0), 12.0);
        let rate = [12.0];
        let alloc = [vec![6.0, 6.0]];
        let cert = certify(&CertInput::new(
            &t,
            &tm2,
            &tt,
            &rate,
            &alloc,
            Protection::new(0, 1, 0),
        ));
        assert!(!cert.ok());
        assert!(cert.max_oversubscription > 1.19);
        assert!(cert.violations.iter().any(|v| v.contains("carries")));
    }

    #[test]
    fn corrupted_solved_config_fails_certification() {
        // Satellite 3 fixture: a hand-corrupted "solved" config — the
        // rate was bumped above both the demand and the allocation
        // cover after the fact (simulating a solver/serialization bug).
        let (t, tm, tt) = fig2();
        let rate = [9.5]; // demand is 8
        let alloc = [vec![6.0, 2.0]];
        let cert = certify(&CertInput::new(
            &t,
            &tm,
            &tt,
            &rate,
            &alloc,
            Protection::none(),
        ));
        assert!(!cert.ok());
        assert_eq!(cert.num_violations, 2); // demand bound + coverage
        assert!(cert.violations[0].contains("demand"));
        assert!(cert.violations[1].contains("exceeds total allocation"));
    }

    #[test]
    fn nan_and_shape_errors_reject() {
        let (t, tm, tt) = fig2();
        let cert = certify(&CertInput::new(
            &t,
            &tm,
            &tt,
            &[f64::NAN],
            &[vec![1.0, 1.0]],
            Protection::none(),
        ));
        assert!(!cert.ok());
        let cert = certify(&CertInput::new(
            &t,
            &tm,
            &tt,
            &[1.0],
            &[vec![1.0]], // 1 alloc for 2 tunnels
            Protection::none(),
        ));
        assert!(!cert.ok());
        assert!(cert.violations[0].contains("shape"));
    }

    #[test]
    fn non_finite_old_allocation_is_rejected_by_both_walks() {
        // New config all direct (11 units), old config all via: a stale
        // ingress overloads the 10-capacity via path. Written as NaN
        // the same old weights used to certify.
        let (t, mut tm, tt) = fig2();
        tm.set_demand(FlowId(0), 11.0);
        let rate = [11.0];
        let alloc = [vec![11.0, 0.0]];
        for bad in [f64::NAN, f64::INFINITY] {
            let old = [vec![0.0, bad]];
            let mut input = CertInput::new(&t, &tm, &tt, &rate, &alloc, Protection::new(1, 0, 0));
            input.old_alloc = Some(&old);
            for cert in [certify(&input), certify_enumerated(&input)] {
                assert_eq!(cert.status, CertStatus::Rejected);
                assert_eq!(
                    cert.scenarios_checked, 0,
                    "malformed input is not evaluated"
                );
                assert!(cert.violations[0].contains("non-finite old allocation"));
            }
        }
    }

    #[test]
    fn stale_ingress_scenarios_use_old_weights() {
        let (t, tm, tt) = fig2();
        // New config: all direct. Old config: all via. A stale ingress
        // sends the NEW rate 8 through the OLD weights — both fit under
        // capacity 10, so kc=1 certifies.
        let rate = [8.0];
        let alloc = [vec![8.0, 0.0]];
        let old = [vec![0.0, 8.0]];
        let mut input = CertInput::new(&t, &tm, &tt, &rate, &alloc, Protection::new(1, 0, 0));
        input.old_alloc = Some(&old);
        assert!(certify(&input).ok());
        let cert = certify_enumerated(&input);
        assert!(cert.ok(), "{:?}", cert.violations);
        assert_eq!(cert.scenarios_checked, 2); // none + {stale s0}
        assert!(cert.exhaustive);

        // Crank the new rate past what the old via-path can carry: the
        // stale scenario must now fail even though fault-free is fine.
        let mut tm2 = tm.clone();
        tm2.set_demand(FlowId(0), 11.0);
        let rate = [11.0];
        let alloc = [vec![11.0, 0.0]];
        let mut input = CertInput::new(&t, &tm2, &tt, &rate, &alloc, Protection::new(1, 0, 0));
        input.old_alloc = Some(&old);
        let cert = certify(&input);
        assert!(!cert.ok());
        assert!(cert.violations[0].contains("stale"));
    }

    #[test]
    fn kc_without_old_config_is_not_exhaustive() {
        let (t, tm, tt) = fig2();
        let rate = [8.0];
        let alloc = [vec![6.0, 2.0]];
        let cert = certify(&CertInput::new(
            &t,
            &tm,
            &tt,
            &rate,
            &alloc,
            Protection::new(1, 0, 0),
        ));
        assert!(cert.ok());
        assert!(!cert.exhaustive);
        assert_eq!(cert.status_str(), "certified-sampled");
        // The proof needs the old weights, so enumeration decided: the
        // fault-free scenario, and no stale one.
        assert_eq!(cert.method, CertMethod::Enumeration);
        assert_eq!(cert.scenarios_checked, 1);
    }

    #[test]
    fn switch_failure_scenarios_and_unprotected_links() {
        let (t, tm, tt) = fig2();
        // kv=1: s1 dying kills the via tunnel; 8 units rescale onto the
        // direct link. Fine. But cap the direct link lower via a fresh
        // topology to force a violation, then exempt it.
        let (rate, alloc) = ([8.0], [vec![4.0, 4.0]]);
        let input = CertInput::new(&t, &tm, &tt, &rate, &alloc, Protection::new(0, 0, 1));
        assert!(certify(&input).ok());
        let cert = certify_enumerated(&input);
        assert!(cert.ok(), "{:?}", cert.violations);
        // 1 (none) + 3 switch singletons.
        assert_eq!(cert.scenarios_checked, 4);

        let mut t2 = Topology::new();
        let ns = t2.add_nodes(3, "s");
        t2.add_link(ns[0], ns[2], 5.0); // direct, too small for 8
        t2.add_link(ns[0], ns[1], 10.0);
        t2.add_link(ns[1], ns[2], 10.0);
        let mk = |hops: &[NodeId]| {
            let links = hops
                .windows(2)
                .map(|w| t2.find_link(w[0], w[1]).unwrap())
                .collect();
            Tunnel::from_path(&t2, ffc_net::Path { links })
        };
        let mut tt2 = TunnelTable::new(1);
        tt2.push(FlowId(0), mk(&[ns[0], ns[2]]));
        tt2.push(FlowId(0), mk(&[ns[0], ns[1], ns[2]]));
        let rate = [8.0];
        let alloc = [vec![4.0, 4.0]];
        let cert = certify(&CertInput::new(
            &t2,
            &tm,
            &tt2,
            &rate,
            &alloc,
            Protection::new(0, 0, 1),
        ));
        assert!(!cert.ok()); // s1 dead -> 8 units on the 5-cap direct
        let mut input = CertInput::new(&t2, &tm, &tt2, &rate, &alloc, Protection::new(0, 0, 1));
        let hatch = [LinkId(0)];
        input.unprotected_links = &hatch;
        assert!(certify(&input).ok());
    }

    #[test]
    fn scenario_budget_caps_enumeration() {
        let (t, tm, tt) = fig2();
        let rate = [8.0];
        let alloc = [vec![6.0, 2.0]];
        let mut input = CertInput::new(&t, &tm, &tt, &rate, &alloc, Protection::new(0, 1, 0));
        input.max_scenarios = 2; // 1 + 3 links would need 4
        let cert = certify_enumerated(&input);
        assert_eq!(cert.scenarios_checked, 2);
        assert!(!cert.exhaustive);
    }

    /// `fig2` with the direct link at `direct` and both via links at
    /// `via` capacity, and the one flow's demand raised to `demand`.
    fn triangle(direct: f64, via: f64, demand: f64) -> (Topology, TrafficMatrix, TunnelTable) {
        let (mut t, mut tm, tt) = fig2();
        t.set_capacity(LinkId(0), direct);
        t.set_capacity(LinkId(1), via);
        t.set_capacity(LinkId(2), via);
        tm.set_demand(FlowId(0), demand);
        (t, tm, tt)
    }

    /// `certify` decided `input` by the lemma, and the enumerating
    /// reference agrees that it is congestion-free.
    fn assert_proved(input: &CertInput<'_>) {
        let cert = certify(input);
        assert_eq!(cert.method, CertMethod::Lemma, "{}", cert.to_json());
        assert_eq!(cert.status_str(), "certified");
        assert_eq!(cert.scenarios_checked, 0);
        let reference = certify_enumerated(input);
        assert!(reference.ok(), "{:?}", reference.violations);
        assert!(cert.max_oversubscription >= reference.max_oversubscription);
    }

    /// `certify` fell back to enumeration and returned its certificate.
    fn assert_enumerated(input: &CertInput<'_>) -> Certificate {
        let cert = certify(input);
        assert_eq!(cert.method, CertMethod::Enumeration);
        assert_eq!(cert.to_json(), certify_enumerated(input).to_json());
        cert
    }

    #[test]
    fn lemma_accepts_a_residual_short_by_lp_slack() {
        // Either tunnel alone must carry the full rate at ke = 1; the
        // via tunnel's cover falls short by an LP's feasibility slack,
        // so losing the direct link stretches it by 1 + 1e-9.
        let (t, tm, tt) = triangle(10.0, 10.0, 10.0);
        let rate = [10.0];
        let alloc = [vec![10.0, 10.0 * (1.0 - 1e-9)]];
        assert_proved(&CertInput::new(
            &t,
            &tm,
            &tt,
            &rate,
            &alloc,
            Protection::new(0, 1, 0),
        ));
    }

    #[test]
    fn lemma_refuses_a_rescale_blow_up_that_enumeration_rejects() {
        // The via tunnel holds a sliver: losing the direct link
        // stretches it 8e6-fold and puts all 8 units on 5-unit links.
        let (t, tm, tt) = triangle(10.0, 5.0, 8.0);
        let rate = [8.0];
        let alloc = [vec![8.0, 1e-6]];
        let input = CertInput::new(&t, &tm, &tt, &rate, &alloc, Protection::new(0, 1, 0));
        let cert = assert_enumerated(&input);
        assert_eq!(cert.status, CertStatus::Rejected);
        assert!(cert.violations[0].contains("carries 8.000000/5.000000"));

        // At or below the zero-weight threshold the bucket forwards
        // nothing at all, so the proof skips that residual.
        let alloc = [vec![8.0, 1e-13]];
        assert_proved(&CertInput::new(
            &t,
            &tm,
            &tt,
            &rate,
            &alloc,
            Protection::new(0, 1, 0),
        ));
    }

    #[test]
    fn lemma_clamps_a_negative_allocation_to_zero() {
        // Flow 0 puts the direct link just past the tolerance edge;
        // flow 1 holds −1e-7 on it, inside the static tolerance. The
        // rescaling drops negative traffic, so the −1e-7 must not pull
        // the bound back under the edge.
        let edge = 10.0 + ABS_TOL + REL_TOL * 10.0;
        let (t, mut tm, one) = fig2();
        tm.set_demand(FlowId(0), 11.0);
        tm.add_flow(NodeId(0), NodeId(2), 1.0, Priority::High);
        let mut tt = TunnelTable::new(2);
        for f in [FlowId(0), FlowId(1)] {
            for tunnel in one.tunnels(FlowId(0)) {
                tt.push(f, tunnel.clone());
            }
        }
        let rate = [edge + 5e-8, 1.0];
        let alloc = [vec![edge + 5e-8, 0.0], vec![-1e-7, 1.0 + 1e-7]];
        let cert = assert_enumerated(&CertInput::new(
            &t,
            &tm,
            &tt,
            &rate,
            &alloc,
            Protection::none(),
        ));
        assert_eq!(cert.status, CertStatus::Rejected);
    }

    #[test]
    fn unprotected_link_is_exempt_from_the_proof() {
        let (t, tm, tt) = triangle(5.0, 10.0, 8.0);
        let rate = [8.0];
        let alloc = [vec![8.0, 0.0]];
        let mut input = CertInput::new(&t, &tm, &tt, &rate, &alloc, Protection::none());
        assert!(!assert_enumerated(&input).ok());
        let hatch = [LinkId(0)];
        input.unprotected_links = &hatch;
        assert_proved(&input);
    }

    #[test]
    fn stale_gaps_are_summed_per_link_up_to_kc() {
        // Two ingresses, each moving 6 units from its direct link onto
        // the shared 10-unit link m→d when it goes stale: one stale
        // ingress fits, two overload it.
        let mut t = Topology::new();
        let [a, b, m, d] = [0, 1, 2, 3].map(|_| t.add_node("s"));
        for (x, y) in [(a, d), (b, d), (a, m), (b, m), (m, d)] {
            t.add_link(x, y, 10.0);
        }
        let mut tm = TrafficMatrix::new();
        let mut tt = TunnelTable::new(2);
        for (fi, src) in [a, b].into_iter().enumerate() {
            tm.add_flow(src, d, 6.0, Priority::High);
            for hops in [&[src, d][..], &[src, m, d][..]] {
                let links = hops
                    .windows(2)
                    .map(|w| t.find_link(w[0], w[1]).unwrap())
                    .collect();
                tt.push(FlowId(fi), Tunnel::from_path(&t, ffc_net::Path { links }));
            }
        }
        let rate = [6.0, 6.0];
        let alloc = [vec![6.0, 0.0], vec![6.0, 0.0]];
        let old = [vec![0.0, 6.0], vec![0.0, 6.0]];
        let mut input = CertInput::new(&t, &tm, &tt, &rate, &alloc, Protection::new(1, 0, 0));
        input.old_alloc = Some(&old);
        assert_proved(&input);

        input.protection = Protection::new(2, 0, 0);
        let cert = assert_enumerated(&input);
        assert_eq!(cert.status, CertStatus::Rejected);
        assert!(
            cert.violations[0].contains("stale"),
            "{:?}",
            cert.violations
        );
    }

    #[test]
    fn rounding_allowance_keeps_the_proof_inside_the_tolerance() {
        // Fault-free, one tunnel, load `edge − slack` on a 10-unit link:
        // the proof accepts only with its rounding allowance
        // (ROUNDING × 10 = 1e-8) to spare, enumeration decides the rest.
        let edge = 10.0 + ABS_TOL + REL_TOL * 10.0;
        let (t, tm, tt) = triangle(10.0, 10.0, 11.0);
        let run = |load: f64| {
            let (rate, alloc) = ([load], [vec![load, 0.0]]);
            let input = CertInput::new(&t, &tm, &tt, &rate, &alloc, Protection::none());
            (certify(&input), certify_enumerated(&input).ok())
        };
        let (cert, reference) = run(edge - 5e-8);
        assert_eq!(cert.method, CertMethod::Lemma);
        assert!(reference);
        let (cert, reference) = run(edge - 5e-9);
        assert_eq!((cert.method, cert.ok()), (CertMethod::Enumeration, true));
        assert!(reference);
        let (cert, reference) = run(edge + 5e-9);
        assert_eq!((cert.method, cert.ok()), (CertMethod::Enumeration, false));
        assert!(!reference);
    }

    #[test]
    fn proof_is_exhaustive_past_the_scenario_budget() {
        // Either tunnel alone covers the rate, so the proof holds at
        // ke = 1 whatever the budget; enumeration stops at it.
        let (t, tm, tt) = fig2();
        let rate = [8.0];
        let alloc = [vec![8.0, 8.0]];
        let mut input = CertInput::new(&t, &tm, &tt, &rate, &alloc, Protection::new(0, 1, 0));
        input.max_scenarios = 2;
        assert_proved(&input);
        assert_eq!(certify_enumerated(&input).status_str(), "certified-sampled");
    }

    #[test]
    fn verify_lp_solution_reports_residuals_and_bounds() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 5.0, "x");
        let y = m.add_var(0.0, 5.0, "y");
        m.add_con(ffc_lp::LinExpr::from(x) + y, Cmp::Le, 6.0);
        m.add_con(ffc_lp::LinExpr::from(x) - y, Cmp::Eq, 1.0);
        assert!(verify_lp_solution(&m, &[3.5, 2.5]).is_empty());
        let bad = verify_lp_solution(&m, &[6.0, 2.0]);
        assert_eq!(bad.len(), 3); // x>ub, sum row, eq row
        assert!(bad[0].contains("outside bounds"));
        let wrong_len = verify_lp_solution(&m, &[1.0]);
        assert_eq!(wrong_len.len(), 1);
    }

    #[test]
    fn known_infeasible_model_has_no_certifiable_solution() {
        // Satellite 3 fixture: x ∈ [0, 1] with the contradictory row
        // x ≥ 2. The solver must refuse it, and any claimed "solution"
        // fails the independent re-check — there is no value a buggy
        // solver could return that the certifier would accept.
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0, "x");
        m.add_con(ffc_lp::LinExpr::from(x), Cmp::Ge, 2.0);
        m.set_objective(ffc_lp::LinExpr::from(x), ffc_lp::Sense::Minimize);
        assert!(matches!(m.solve(), Err(ffc_lp::LpError::Infeasible)));
        for claimed in [0.0, 1.0, 2.0] {
            assert!(
                !verify_lp_solution(&m, &[claimed]).is_empty(),
                "claimed x = {claimed} must fail re-verification"
            );
        }
    }

    #[test]
    fn degenerate_optimal_model_certifies() {
        // Satellite 3 fixture: a degenerate optimum — maximize x + y on
        // x + y ≤ 4 with the redundant rows x ≤ 4 and y ≤ 4. Every
        // point on the x + y = 4 face is optimal and several bases
        // describe each vertex; whichever one the simplex lands on, the
        // independent re-check accepts it.
        let mut m = Model::new();
        let x = m.add_var(0.0, 4.0, "x");
        let y = m.add_var(0.0, 4.0, "y");
        m.add_con(ffc_lp::LinExpr::from(x) + y, Cmp::Le, 4.0);
        m.add_con(ffc_lp::LinExpr::from(x), Cmp::Le, 4.0);
        m.add_con(ffc_lp::LinExpr::from(y), Cmp::Le, 4.0);
        m.set_objective(ffc_lp::LinExpr::from(x) + y, ffc_lp::Sense::Maximize);
        let sol = m.solve().unwrap();
        assert!((sol.objective - 4.0).abs() < 1e-9);
        assert!(
            verify_lp_solution(&m, &sol.values).is_empty(),
            "degenerate optimum must re-verify: {:?}",
            verify_lp_solution(&m, &sol.values)
        );
        // The static auditor is also happy with the model itself.
        let report =
            crate::model_audit::audit_model(&m, &crate::model_audit::AuditConfig::default());
        assert!(report.ok(), "{:?}", report.findings);
    }

    #[test]
    fn dual_certificate_accepts_true_optimum() {
        // max x + 2y  s.t.  x + y <= 12, x,y ∈ [0,10]: optimum at
        // (2, 10), objective 22, row dual 1 (one more unit of the
        // shared capacity is worth exactly 1).
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0, "x");
        let y = m.add_var(0.0, 10.0, "y");
        m.add_con(ffc_lp::LinExpr::from(x) + y, Cmp::Le, 12.0);
        m.set_objective(
            ffc_lp::LinExpr::from(x) + 2.0 * ffc_lp::LinExpr::from(y),
            ffc_lp::Sense::Maximize,
        );
        let sol = m.solve().unwrap();
        assert!((sol.objective - 22.0).abs() < 1e-9);
        assert_eq!(sol.duals.len(), 1);
        assert!((sol.duals[0] - 1.0).abs() < 1e-9, "{:?}", sol.duals);
        let cert = verify_lp_certificate(&m, &sol);
        assert!(cert.is_optimal(), "{cert:?}");
    }

    #[test]
    fn cold_solve_with_fixed_column_certifies_and_chains() {
        // A fixed column and a row it alone satisfies: the cold solve
        // answers for the model it was given — a status per column and
        // row, a dual per row — so KKT certifies it and its basis seeds
        // the re-solve.
        let mut m = Model::new();
        let x = m.add_var(3.0, 3.0, "x");
        let y = m.add_var(0.0, 10.0, "y");
        m.add_con(ffc_lp::LinExpr::from(x), Cmp::Le, 5.0);
        m.add_con(ffc_lp::LinExpr::from(x) + y, Cmp::Le, 8.0);
        m.set_objective(ffc_lp::LinExpr::from(x) + y, ffc_lp::Sense::Maximize);
        let sol = m.solve().unwrap();
        assert_eq!(sol.basis.0.len(), 4);
        assert_eq!(sol.duals.len(), 2);
        let cert = verify_lp_certificate(&m, &sol);
        assert!(cert.is_optimal(), "{cert:?}");
        let again = m
            .solve_with(&ffc_lp::SimplexOptions::default(), Some(&sol.basis))
            .unwrap();
        assert!(again.stats.hint_used);
        assert_eq!(again.iterations, 0);
    }

    #[test]
    fn dual_certificate_demotes_on_corrupted_duals() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0, "x");
        let y = m.add_var(0.0, 10.0, "y");
        m.add_con(ffc_lp::LinExpr::from(x) + y, Cmp::Le, 12.0);
        m.set_objective(
            ffc_lp::LinExpr::from(x) + 2.0 * ffc_lp::LinExpr::from(y),
            ffc_lp::Sense::Maximize,
        );
        let mut sol = m.solve().unwrap();

        // Wrong sign: a maximization `<=` row must have y >= 0.
        sol.duals[0] = -1.0;
        match verify_lp_certificate(&m, &sol) {
            LpCertificate::FeasibleOnly { reason } => {
                assert!(reason.contains("dual infeasibility"), "{reason}")
            }
            other => panic!("expected demotion, got {other:?}"),
        }

        // Right sign but wrong magnitude: stationarity or the duality
        // gap must catch it (feasibility is untouched either way).
        sol.duals[0] = 5.0;
        let cert = verify_lp_certificate(&m, &sol);
        assert!(cert.is_feasible());
        assert!(!cert.is_optimal(), "{cert:?}");

        // Missing duals (e.g. the dense cross-check path) demote with
        // a reason, never reject.
        sol.duals.clear();
        match verify_lp_certificate(&m, &sol) {
            LpCertificate::FeasibleOnly { reason } => {
                assert!(reason.contains("no duals"), "{reason}")
            }
            other => panic!("expected demotion, got {other:?}"),
        }
    }

    #[test]
    fn dual_certificate_handles_eq_rows_and_minimize() {
        // min 3x + y  s.t.  x + y = 4, x - y >= -2, x,y ∈ [0, 10]:
        // optimum at (1, 3), objective 6.
        let mut m = Model::new();
        let x = m.add_var(0.0, 10.0, "x");
        let y = m.add_var(0.0, 10.0, "y");
        m.add_con(ffc_lp::LinExpr::from(x) + y, Cmp::Eq, 4.0);
        m.add_con(ffc_lp::LinExpr::from(x) - y, Cmp::Ge, -2.0);
        m.set_objective(
            3.0 * ffc_lp::LinExpr::from(x) + ffc_lp::LinExpr::from(y),
            ffc_lp::Sense::Minimize,
        );
        let sol = m.solve().unwrap();
        assert!((sol.objective - 6.0).abs() < 1e-9);
        let cert = verify_lp_certificate(&m, &sol);
        assert!(cert.is_optimal(), "{cert:?}");
    }

    #[test]
    fn dual_certificate_on_degenerate_optimum() {
        // The degenerate model from `degenerate_optimal_model_certifies`:
        // whichever basis the solver lands on, its duals must pass KKT.
        let mut m = Model::new();
        let x = m.add_var(0.0, 4.0, "x");
        let y = m.add_var(0.0, 4.0, "y");
        m.add_con(ffc_lp::LinExpr::from(x) + y, Cmp::Le, 4.0);
        m.add_con(ffc_lp::LinExpr::from(x), Cmp::Le, 4.0);
        m.add_con(ffc_lp::LinExpr::from(y), Cmp::Le, 4.0);
        m.set_objective(ffc_lp::LinExpr::from(x) + y, ffc_lp::Sense::Maximize);
        let sol = m.solve().unwrap();
        let cert = verify_lp_certificate(&m, &sol);
        assert!(cert.is_optimal(), "{cert:?}");
    }

    #[test]
    fn certificate_json_is_well_formed() {
        let (t, tm, tt) = fig2();
        let cert = certify(&CertInput::new(
            &t,
            &tm,
            &tt,
            &[9.5],
            &[vec![6.0, 2.0]],
            Protection::none(),
        ));
        let j = cert.to_json();
        assert!(j.starts_with("{\"status\":\"rejected\",\"method\":\"enumeration\""));
        assert!(j.contains("\"violations\":["));
        assert!(j.ends_with("]}"));
    }
}
