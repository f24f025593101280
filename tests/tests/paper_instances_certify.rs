//! Differential oracle on the paper's own instances. The certifier the
//! controller gates rollouts on (`ffc_audit::certify`) must decide the
//! FFC solutions of the built-in S-Net and of the §7 testbed by the
//! paper's Lemma 1 — a silent fall-back to enumeration fails here — and
//! the enumeration it falls back to (`certify_batched`, batched SoA
//! kernels) must equal its scalar reference (`certify_scalar`) field for
//! field on them. A copy of each with one flow inflated must fall back,
//! and there the gate's certificate must equal the scalar reference bit
//! for bit, so the violation path (the rejected-block re-scan and the
//! recorded strings) runs too.
//!
//! `crates/audit/tests/proptest_kernels.rs` covers the input space on
//! ≤6-node rings; this pins the same contract at the sizes the system
//! actually certifies, which is what the second CI pass under a
//! kernel-routing switch used to stand in for.

use ffc_audit::certify::{
    certify, certify_batched, certify_scalar, kernel_workers, CertInput, CertMethod, Certificate,
    Protection,
};
use ffc_core::{solve_ffc, solve_te, FfcConfig, TeConfig, TeProblem};
use ffc_net::prelude::*;

fn assert_same(got: &Certificate, want: &Certificate, what: &str) {
    assert_eq!(got.status, want.status, "{what}: status");
    assert_eq!(
        got.scenarios_checked, want.scenarios_checked,
        "{what}: scenarios_checked"
    );
    assert_eq!(got.exhaustive, want.exhaustive, "{what}: exhaustive");
    assert_eq!(
        got.num_violations, want.num_violations,
        "{what}: num_violations"
    );
    assert_eq!(got.violations, want.violations, "{what}: violations");
    assert_eq!(
        got.max_oversubscription.to_bits(),
        want.max_oversubscription.to_bits(),
        "{what}: max_oversubscription {} vs {}",
        got.max_oversubscription,
        want.max_oversubscription
    );
    assert_eq!(got.to_json(), want.to_json(), "{what}: json");
}

/// Solves FFC at `(kc, ke, kv)` against a plain-TE old configuration,
/// requires `certify` to prove the solution by Lemma 1 and to fall back
/// on an inflated copy, and holds enumeration to `certify_scalar` on
/// both. Returns the number of scenarios enumeration walked on the
/// solution.
fn differential(
    name: &str,
    topo: &Topology,
    tm: &TrafficMatrix,
    tunnels: &TunnelTable,
    (kc, ke, kv): (usize, usize, usize),
) -> usize {
    let what = format!("{name} ({kc},{ke},{kv})");
    let problem = TeProblem::new(topo, tm, tunnels);
    let old = if kc > 0 {
        solve_te(problem).expect("old TE solves")
    } else {
        TeConfig::zero(tunnels)
    };
    let cfg = solve_ffc(problem, &old, &FfcConfig::new(kc, ke, kv)).expect("FFC solves");
    assert!(cfg.throughput() > 0.0, "{what}: nothing granted");

    let run = |tm: &TrafficMatrix, cfg: &TeConfig, what: &str| {
        let mut input = CertInput::new(
            topo,
            tm,
            tunnels,
            &cfg.rate,
            &cfg.alloc,
            Protection::new(kc, ke, kv),
        );
        input.old_alloc = (kc > 0).then_some(&old.alloc[..]);
        let enumerated = certify_batched(&input, kernel_workers());
        assert_same(&enumerated, &certify_scalar(&input), what);
        (certify(&input), enumerated)
    };

    let (gated, solved) = run(tm, &cfg, &what);
    assert_eq!(
        gated.method,
        CertMethod::Lemma,
        "{what}: {}",
        gated.to_json()
    );
    assert_eq!(gated.status_str(), "certified", "{what}");
    assert_eq!(gated.scenarios_checked, 0, "{what}");
    assert!(solved.ok(), "{what}: {:?}", solved.violations);
    assert!(solved.exhaustive, "{what}: budget-capped");
    assert!(
        gated.max_oversubscription >= solved.max_oversubscription,
        "{what}: bound {} under the enumerated {}",
        gated.max_oversubscription,
        solved.max_oversubscription
    );

    // Inflate the largest flow eightfold (demand, rate and allocations
    // together, so only the congestion checks can object).
    let (big, _) = cfg
        .rate
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .expect("at least one flow");
    let mut tm_bad = tm.clone();
    let mut bad = cfg.clone();
    tm_bad.set_demand(FlowId(big), tm.flow(FlowId(big)).demand * 8.0);
    bad.rate[big] *= 8.0;
    bad.alloc[big].iter_mut().for_each(|a| *a *= 8.0);
    let (gated, rejected) = run(&tm_bad, &bad, &format!("{what}, inflated"));
    assert_eq!(gated.method, CertMethod::Enumeration, "{what}, inflated");
    assert_same(&gated, &rejected, &format!("{what}, inflated gate"));
    assert!(!rejected.ok(), "{what}: inflated config certified");
    assert!(
        rejected.violations.iter().all(|v| v.contains("carries")),
        "{what}: {:?}",
        rejected.violations
    );
    solved.scenarios_checked
}

#[test]
fn certify_equals_scalar_reference_on_snet_and_testbed() {
    // The built-in S-Net instance, as `ffc chaos` / `ffc audit model`
    // build it.
    let net = ffc_topo::snet();
    let tm = ffc_topo::gravity_trace_single_priority(&net, &ffc_topo::TrafficConfig::default(), 1)
        .intervals
        .remove(0);
    let tunnels = layout_tunnels(&net.topo, &tm, &LayoutConfig::default());
    let links = net.topo.num_links();
    let sources = tm
        .iter()
        .map(|(_, f)| f.src)
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    assert_eq!(
        differential("S-Net", &net.topo, &tm, &tunnels, (1, 1, 0)),
        1 + links + sources
    );
    assert_eq!(
        differential("S-Net", &net.topo, &tm, &tunnels, (0, 2, 0)),
        1 + links + links * (links - 1) / 2
    );

    // The §7 testbed with its two experiment flows.
    let tb = ffc_topo::testbed();
    let ex = tb.experiment();
    differential("testbed", &tb.topo, &ex.tm, &ex.tunnels, (1, 1, 1));
}
