//! Integration tests pinning the paper's *quantitative* claims that are
//! exactly reproducible (toy figures, testbed outcome, encoding
//! equivalences, comparator counts).

use ffc_core::rescale::rescaled_link_loads;
use ffc_core::{solve_ffc, FfcConfig, MsumEncoding, TeProblem};
use ffc_net::{FaultScenario, NodeId};
use ffc_topo::{testbed, toy};

/// §3.1 / Figures 3 & 5: the new flow gets 10 / 7 / 4 units at
/// kc = 0 / 1 / 2, under every bounded-M-sum encoding.
#[test]
fn fig3_fig5_quantities_all_encodings() {
    let s = toy::fig3_scenario();
    let old = s.old.clone().expect("config");
    for enc in [MsumEncoding::SortingNetwork, MsumEncoding::Enumeration] {
        for (kc, expect) in [(0usize, 10.0), (1, 7.0), (2, 4.0)] {
            let cfg = solve_ffc(
                TeProblem::new(&s.topo, &s.tm, &s.tunnels),
                &old,
                &FfcConfig::new(kc, 0, 0).with_encoding(enc),
            )
            .expect("solvable");
            assert!(
                (cfg.rate[toy::FIG3_NEW_FLOW.index()] - expect).abs() < 1e-4,
                "{enc:?} kc={kc}: {}",
                cfg.rate[toy::FIG3_NEW_FLOW.index()]
            );
        }
    }
}

/// §7 / Figures 10–11: the FFC spread survives the s6-s7 failure; the
/// non-FFC spread puts exactly 1.5 Gbps on the 1 Gbps link s3-s5.
#[test]
fn testbed_outcome() {
    let tb = testbed();
    let ex = tb.experiment();
    let l67 = tb.topo.find_link(tb.s(6), tb.s(7)).expect("s6-s7");
    let sc = FaultScenario::links([l67]);
    let ffc = rescaled_link_loads(&tb.topo, &ex.tm, &ex.tunnels, &ex.ffc, &sc);
    assert!(ffc.max_oversubscription_ratio(&tb.topo) < 1e-9);
    let non = rescaled_link_loads(&tb.topo, &ex.tm, &ex.tunnels, &ex.non_ffc, &sc);
    let l35 = tb.topo.find_link(tb.s(3), tb.s(5)).expect("s3-s5");
    assert!((non.load[l35.index()] - 1.5).abs() < 1e-9);
}

/// The FFC spread of Figure 10 tolerates *every* single link failure,
/// not just s6-s7 (that is what "FFC with k=1" means).
#[test]
fn testbed_ffc_spread_survives_any_single_failure() {
    let tb = testbed();
    let ex = tb.experiment();
    for sc in ffc_net::failure::link_combinations_up_to(&tb.topo.links().collect::<Vec<_>>(), 1) {
        let loads = rescaled_link_loads(&tb.topo, &ex.tm, &ex.tunnels, &ex.ffc, &sc);
        for e in tb.topo.links() {
            if sc.link_dead(&tb.topo, e) {
                continue;
            }
            assert!(
                loads.load[e.index()] <= tb.topo.capacity(e) + 1e-9,
                "{:?} overloads {e}",
                sc.failed_links
            );
        }
    }
}

/// §2.1 / Figure 2: rescaling after the s2-s4 failure pushes link s1-s4
/// to (at least) its capacity under the old distribution.
#[test]
fn fig2_rescaling_pressure() {
    let s = toy::fig2_scenario();
    let old = s.old.clone().expect("config");
    let l24 = s.topo.find_link(NodeId(1), NodeId(3)).expect("s2-s4");
    let loads = rescaled_link_loads(
        &s.topo,
        &s.tm,
        &s.tunnels,
        &old,
        &FaultScenario::links([l24]),
    );
    let l14 = s.topo.find_link(NodeId(0), NodeId(3)).expect("s1-s4");
    assert!(loads.load[l14.index()] >= s.topo.capacity(l14) - 1e-9);
}

/// §4.4.3: the sorting-network encoding introduces exactly 3 variables
/// and 4 constraints per comparator, and a k-stage partial bubble
/// network over n inputs has `Σ_{j=1..k} (n-j)` comparators.
#[test]
fn comparator_budget_matches_paper() {
    use ffc_lp::{LinExpr, Model};
    for n in [4usize, 7, 12] {
        for k in [1usize, 2, 3] {
            let mut m = Model::new();
            let exprs: Vec<LinExpr> = (0..n)
                .map(|i| LinExpr::from(m.add_var(0.0, 1.0, format!("x{i}"))))
                .collect();
            let v0 = m.num_vars();
            let c0 = m.num_cons();
            let _ = ffc_core::sorting_network::largest_values(&mut m, exprs, k);
            let comparators: usize = (1..=k.min(n)).map(|j| n - j).sum();
            assert_eq!(m.num_vars() - v0, 3 * comparators, "n={n} k={k}");
            assert_eq!(m.num_cons() - c0, 4 * comparators, "n={n} k={k}");
        }
    }
}
