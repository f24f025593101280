//! Oracles on the paper's own instances. The certifier the controller
//! gates rollouts on (`ffc_audit::certify`) must decide the FFC
//! solutions of the built-in S-Net and of the §7 testbed by the paper's
//! Lemma 1 — a silent fall-back to enumeration fails here — with a
//! bound no smaller than what its enumeration walk
//! (`certify_enumerated`) observes. A copy of each with one flow
//! inflated must fall back, and there the gate's certificate must equal
//! the walk's bit for bit, so the violation path (the recorded strings)
//! runs too.
//!
//! Independently of the LP solver, ten configurations (each flow's
//! demand split over its tunnels equally or in a 1 : 2 : … ramp, some
//! with the largest flow inflated) have their certificates pinned in
//! `paper_instances_certify.golden`: the JSON and the bit pattern of
//! `max_oversubscription`, byte for byte. Six of them are rejected, so
//! the pin holds the enumeration walk's output on real topologies, not
//! just its agreement with itself.
//!
//! `crates/audit/tests/proptest_lemma.rs` covers the input space on
//! ≤6-node rings; this pins the same contract at the sizes the system
//! actually certifies.

use ffc_audit::certify::{
    certify, certify_enumerated, CertInput, CertMethod, Certificate, Protection,
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
/// on an inflated copy, and holds it to `certify_enumerated` on both.
/// Returns the number of scenarios enumeration walked on the
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

    let run = |tm: &TrafficMatrix, rate: &[f64], alloc: &[Vec<f64>]| {
        let mut input = CertInput::new(topo, tm, tunnels, rate, alloc, Protection::new(kc, ke, kv));
        input.old_alloc = (kc > 0).then_some(&old.alloc[..]);
        (certify(&input), certify_enumerated(&input))
    };

    let (gated, solved) = run(tm, &cfg.rate, &cfg.alloc);
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

    let (tm_bad, rate_bad, alloc_bad) = inflate(tm, &cfg.rate, &cfg.alloc);
    let (gated, rejected) = run(&tm_bad, &rate_bad, &alloc_bad);
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

/// Each flow's rate set to its demand and split over its `n` tunnels:
/// equally, or, with `ramp`, in proportion 1 : 2 : … : `n`.
fn split(tm: &TrafficMatrix, tunnels: &TunnelTable, ramp: bool) -> (Vec<f64>, Vec<Vec<f64>>) {
    let rate = tm.iter().map(|(_, flow)| flow.demand).collect();
    let alloc = tm
        .iter()
        .map(|(f, flow)| {
            let n = tunnels.tunnels(f).len();
            if ramp {
                let parts = (n * (n + 1) / 2) as f64;
                (1..=n).map(|k| flow.demand * k as f64 / parts).collect()
            } else {
                vec![flow.demand / n as f64; n]
            }
        })
        .collect();
    (rate, alloc)
}

/// `tm`, `rate` and `alloc` with the largest flow's demand, rate and
/// allocations multiplied by eight together, so only the congestion
/// checks can object.
fn inflate(
    tm: &TrafficMatrix,
    rate: &[f64],
    alloc: &[Vec<f64>],
) -> (TrafficMatrix, Vec<f64>, Vec<Vec<f64>>) {
    let (big, _) = rate
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .expect("at least one flow");
    let mut tm = tm.clone();
    let (mut rate, mut alloc) = (rate.to_vec(), alloc.to_vec());
    tm.set_demand(FlowId(big), tm.flow(FlowId(big)).demand * 8.0);
    rate[big] *= 8.0;
    alloc[big].iter_mut().for_each(|a| *a *= 8.0);
    (tm, rate, alloc)
}

/// Certifies `rate`/`alloc` at `protection`, the configuration serving
/// as its own old configuration, and compares the result with the line
/// named `name` in the golden file.
fn assert_pinned(
    name: &str,
    (topo, tm, tunnels): (&Topology, &TrafficMatrix, &TunnelTable),
    (rate, alloc): (&[f64], &[Vec<f64>]),
    protection: Protection,
) {
    let mut input = CertInput::new(topo, tm, tunnels, rate, alloc, protection);
    input.old_alloc = Some(alloc);
    let cert = certify(&input);
    let got = format!(
        "{name} {:#018x} {}",
        cert.max_oversubscription.to_bits(),
        cert.to_json()
    );
    let want = include_str!("paper_instances_certify.golden")
        .lines()
        .find(|line| line.split(' ').next() == Some(name))
        .unwrap_or_else(|| panic!("{name}: no golden line"));
    assert_eq!(got, want, "{name}");
}

#[test]
fn certify_matches_pinned_certificates_on_solver_free_splits() {
    let net = ffc_topo::snet();
    let tm = ffc_topo::gravity_trace_single_priority(&net, &ffc_topo::TrafficConfig::default(), 1)
        .intervals
        .remove(0);
    let tunnels = layout_tunnels(&net.topo, &tm, &LayoutConfig::default());
    let tb = ffc_topo::testbed();
    let ex = tb.experiment();
    for (tag, ramp) in [("", false), ("-ramp", true)] {
        let (rate, alloc) = split(&tm, &tunnels, ramp);
        let snet = (&net.topo, &tm, &tunnels);
        let at = Protection::new(0, 1, 0);
        assert_pinned(&format!("snet-010{tag}"), snet, (&rate, &alloc), at);
        let at = Protection::new(1, 1, 0);
        assert_pinned(&format!("snet-110{tag}"), snet, (&rate, &alloc), at);
        let (tm_big, rate_big, alloc_big) = inflate(&tm, &rate, &alloc);
        let snet_big = (&net.topo, &tm_big, &tunnels);
        let name = format!("snet-110{tag}-inflated");
        assert_pinned(&name, snet_big, (&rate_big, &alloc_big), at);

        let (rate, alloc) = split(&ex.tm, &ex.tunnels, ramp);
        let testbed = (&tb.topo, &ex.tm, &ex.tunnels);
        let at = Protection::new(1, 1, 1);
        assert_pinned(&format!("testbed-111{tag}"), testbed, (&rate, &alloc), at);
        let (tm_big, rate_big, alloc_big) = inflate(&ex.tm, &rate, &alloc);
        let testbed_big = (&tb.topo, &tm_big, &ex.tunnels);
        let name = format!("testbed-111{tag}-inflated");
        assert_pinned(&name, testbed_big, (&rate_big, &alloc_big), at);
    }
}
