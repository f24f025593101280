//! Bridge to the `ffc-audit` verification layer.
//!
//! `ffc-audit` deliberately depends only on `ffc-lp` + `ffc-net` (so it
//! can never be contaminated by solver or rescaling code from this
//! crate); this module adapts core's [`TeConfig`]/[`FfcConfig`] types
//! onto the auditor's primitive-slice interfaces:
//!
//! * [`certify_config`] — independent post-solve certification of a
//!   configuration against its protection level.
//! * [`audit_te_model`] — pre-solve static audit of a built TE/FFC
//!   model (LP hygiene + FFC structural invariants).
//! * [`certify_lp`] — KKT optimality cross-check of a raw LP solution
//!   (dual feasibility + complementary slackness of the solver's duals),
//!   demoted to a feasibility-only certificate with a reason when the
//!   duals do not check out.
//! * `debug_certify` — the debug-assertions hook the batch solvers
//!   call on every successful solve, so the whole tier-1 suite runs
//!   under certification.

use ffc_audit::{
    certify, AuditConfig, AuditReport, CertInput, Certificate, LpCertificate, Protection,
};
use ffc_net::{LinkId, Topology, TrafficMatrix, TunnelTable};

use crate::combined::FfcConfig;
use crate::te::{TeConfig, TeModelBuilder};

/// Certifies `cfg` against the protection level of `ffc` by
/// solver-independent arithmetic (see [`ffc_audit::certify()`]).
///
/// `old` supplies the stale-ingress splitting weights for control-plane
/// scenarios; pass `None` on a fresh network (the certificate is then
/// non-exhaustive when `ffc.kc > 0`).
pub fn certify_config(
    topo: &Topology,
    tm: &TrafficMatrix,
    tunnels: &TunnelTable,
    cfg: &TeConfig,
    old: Option<&TeConfig>,
    ffc: &FfcConfig,
) -> Certificate {
    let mut unprotected: Vec<LinkId> = ffc.unprotected_links.iter().copied().collect();
    unprotected.sort_unstable();
    let mut input = CertInput::new(
        topo,
        tm,
        tunnels,
        &cfg.rate,
        &cfg.alloc,
        Protection::new(ffc.kc, ffc.ke, ffc.kv),
    );
    input.old_alloc = old.map(|o| &o.alloc[..]);
    input.unprotected_links = &unprotected;
    certify(&input)
}

/// Statically audits a built TE/FFC model before it is solved: generic
/// LP hygiene plus the FFC structural invariants recognized through the
/// workspace naming conventions.
pub fn audit_te_model(builder: &TeModelBuilder<'_>) -> AuditReport {
    ffc_audit::audit_model(&builder.model, &AuditConfig::default())
}

/// KKT optimality cross-check of a raw LP solution against the model it
/// came from: primal feasibility, dual feasibility (sign conditions per
/// row sense), complementary slackness, and a duality-gap bound (see
/// [`ffc_audit::certify::verify_lp_certificate`]).
///
/// The result is a graded certificate: [`LpCertificate::Optimal`] when
/// the solver's duals prove optimality, demoted to
/// [`LpCertificate::FeasibleOnly`] with a human-readable reason when
/// they do not (e.g. the dense fallback path reports no duals), and
/// [`LpCertificate::Infeasible`] when the primal itself fails.
pub fn certify_lp(builder: &TeModelBuilder<'_>, sol: &ffc_lp::Solution) -> LpCertificate {
    ffc_audit::verify_lp_certificate(&builder.model, sol)
}

/// Debug-assertions LP-certificate hook: every raw solution the TE
/// builder returns is KKT-checked in debug builds. Primal infeasibility
/// is a solver bug and asserts; demotion to feasibility-only is
/// tolerated (some solving paths legitimately report no duals).
#[allow(unused_variables)]
pub(crate) fn debug_certify_lp(
    builder: &TeModelBuilder<'_>,
    sol: &ffc_lp::Solution,
    context: &str,
) {
    #[cfg(debug_assertions)]
    {
        let cert = certify_lp(builder, sol);
        debug_assert!(
            cert.is_feasible(),
            "{context}: solver returned a primal-infeasible LP solution: {cert:?}"
        );
    }
}

/// Debug-assertions certification hook for the batch solvers: every
/// configuration a batch returns is re-verified by the independent
/// certifier, so the tier-1 suite (which runs with debug assertions on)
/// exercises certification on every solve. Release builds compile this
/// to nothing.
#[allow(unused_variables)]
pub(crate) fn debug_certify(
    topo: &Topology,
    tm: &TrafficMatrix,
    tunnels: &TunnelTable,
    cfg: &TeConfig,
    old: Option<&TeConfig>,
    ffc: &FfcConfig,
    context: &str,
) {
    #[cfg(debug_assertions)]
    {
        let cert = certify_config(topo, tm, tunnels, cfg, old, ffc);
        debug_assert!(
            cert.ok(),
            "{context}: solver returned an uncertifiable configuration: {}",
            cert.to_json()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combined::solve_ffc;
    use crate::te::TeProblem;
    use ffc_net::prelude::*;

    fn ring() -> (Topology, TrafficMatrix, TunnelTable) {
        let mut t = Topology::new();
        let ns = t.add_nodes(5, "r");
        for i in 0..5 {
            t.add_bidi(ns[i], ns[(i + 1) % 5], 10.0);
        }
        t.add_bidi(ns[0], ns[2], 10.0);
        t.add_bidi(ns[1], ns[3], 10.0);
        let mut tm = TrafficMatrix::new();
        tm.add_flow(ns[0], ns[3], 6.0, Priority::High);
        tm.add_flow(ns[1], ns[4], 6.0, Priority::High);
        let tunnels = layout_tunnels(
            &t,
            &tm,
            &LayoutConfig {
                tunnels_per_flow: 3,
                p: 1,
                q: 3,
                reuse_penalty: 0.5,
            },
        );
        (t, tm, tunnels)
    }

    /// End-to-end: an FFC solve certifies by Lemma 1; hand-corrupting the
    /// solved rates afterwards makes certification fail.
    #[test]
    fn solved_config_certifies_and_corruption_is_caught() {
        let (topo, tm, tunnels) = ring();
        let old = TeConfig::zero(&tunnels);
        let ffc = FfcConfig::new(1, 1, 0).exact();
        let cfg = solve_ffc(TeProblem::new(&topo, &tm, &tunnels), &old, &ffc).unwrap();
        let cert = certify_config(&topo, &tm, &tunnels, &cfg, Some(&old), &ffc);
        assert!(cert.ok(), "{}", cert.to_json());
        assert!(cert.exhaustive);
        // An FFC solution is proved by Lemma 1, with no scenario enumerated.
        assert_eq!(cert.method, ffc_audit::CertMethod::Lemma);

        // The protection level reaches the certifier: both flows mostly on
        // their first tunnel, which is fine fault-free, but losing link 1
        // moves flow 1 onto link 12 beside flow 0's 5 units (11 > 10).
        let mut lopsided = cfg.clone();
        lopsided.rate = vec![6.0, 6.0];
        lopsided.alloc = vec![vec![5.0, 1.0, 0.0], vec![5.0, 1.0]];
        let none = FfcConfig::new(0, 0, 0).exact();
        let cert = certify_config(&topo, &tm, &tunnels, &lopsided, Some(&old), &none);
        assert!(cert.ok(), "{}", cert.to_json());
        let cert = certify_config(&topo, &tm, &tunnels, &lopsided, Some(&old), &ffc);
        assert!(!cert.ok(), "{}", cert.to_json());
        assert_eq!(cert.method, ffc_audit::CertMethod::Enumeration);

        let mut corrupted = cfg.clone();
        corrupted.rate[0] += 5.0; // breaks coverage + demand bound
        let cert = certify_config(&topo, &tm, &tunnels, &corrupted, Some(&old), &ffc);
        assert!(!cert.ok());
    }

    /// The simplex path's duals prove optimality of a real FFC solve
    /// through the KKT cross-check, and corrupting them demotes the
    /// certificate to feasibility-only (never to a false "optimal").
    #[test]
    fn lp_dual_certificate_on_ffc_solve() {
        let (topo, tm, tunnels) = ring();
        let old = TeConfig::zero(&tunnels);
        let ffc = FfcConfig::new(1, 1, 0).exact();
        let builder =
            crate::combined::build_ffc_model(TeProblem::new(&topo, &tm, &tunnels), &old, &ffc);
        let (_, sol) = builder.solve_with(&Default::default(), None).unwrap();
        assert!(!sol.duals.is_empty());
        let cert = certify_lp(&builder, &sol);
        assert!(cert.is_optimal(), "{cert:?}");

        // Corrupted duals: still primal-feasible, no longer provably optimal.
        let mut bad = sol.clone();
        for y in &mut bad.duals {
            *y += 3.0;
        }
        let cert = certify_lp(&builder, &bad);
        assert!(cert.is_feasible() && !cert.is_optimal(), "{cert:?}");
        if let LpCertificate::FeasibleOnly { reason } = &cert {
            assert!(!reason.is_empty());
        } else {
            panic!("expected FeasibleOnly, got {cert:?}");
        }
    }

    /// The model auditor accepts every model the FFC builder emits.
    #[test]
    fn built_ffc_models_audit_clean() {
        let (topo, tm, tunnels) = ring();
        let old = TeConfig::zero(&tunnels);
        for ffc in [
            FfcConfig::none(),
            FfcConfig::new(0, 1, 0).exact(),
            FfcConfig::new(2, 1, 0).exact(),
        ] {
            let builder =
                crate::combined::build_ffc_model(TeProblem::new(&topo, &tm, &tunnels), &old, &ffc);
            let report = audit_te_model(&builder);
            assert!(
                report.errors().next().is_none(),
                "ffc {:?}: {:?}",
                (ffc.kc, ffc.ke, ffc.kv),
                report.findings
            );
        }
    }
}
