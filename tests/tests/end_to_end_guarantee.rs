//! Cross-crate integration: the FFC guarantee holds on generated
//! topologies end to end — generator (`ffc-topo`) → tunnel layout
//! (`ffc-net`) → FFC LP (`ffc-core`/`ffc-lp`) → brute-force fault
//! validation (`ffc-core::rescale`).

use ffc_core::rescale::{rescaled_link_loads, rescaled_link_loads_mixed};
use ffc_core::{solve_ffc, solve_ffc_scenarios, solve_te, FfcConfig, TeConfig, TeProblem};
use ffc_lp::SimplexOptions;
use ffc_net::failure::{config_combinations_up_to, link_combinations_up_to};
use ffc_net::prelude::*;
use ffc_topo::{gravity_trace_single_priority, lnet, LNetConfig, TrafficConfig};

fn instance(sites: usize, seed: u64) -> (Topology, TrafficMatrix, TunnelTable) {
    let net = lnet(&LNetConfig {
        sites,
        seed,
        ..LNetConfig::default()
    });
    let trace = gravity_trace_single_priority(
        &net,
        &TrafficConfig {
            mean_total: net.topo.total_capacity() * 0.06,
            seed: seed + 1,
            ..TrafficConfig::default()
        },
        1,
    );
    let tm = trace.intervals.into_iter().next().expect("one interval");
    let tunnels = layout_tunnels(
        &net.topo,
        &tm,
        &LayoutConfig {
            tunnels_per_flow: 4,
            p: 1,
            q: 3,
            reuse_penalty: 0.4,
        },
    );
    (net.topo, tm, tunnels)
}

/// Data-plane FFC (ke=1): every single link failure, after rescaling,
/// leaves every surviving link within capacity — on several seeds.
#[test]
fn data_ffc_guarantee_on_generated_networks() {
    for seed in [1u64, 7, 23] {
        let (topo, tm, tunnels) = instance(6, seed);
        let cfg = solve_ffc(
            TeProblem::new(&topo, &tm, &tunnels),
            &TeConfig::zero(&tunnels),
            &FfcConfig::new(0, 1, 0).exact(),
        )
        .expect("FFC solvable");
        assert!(cfg.throughput() > 0.0);
        let links: Vec<LinkId> = topo.links().collect();
        for sc in link_combinations_up_to(&links, 1) {
            let loads = rescaled_link_loads(&topo, &tm, &tunnels, &cfg, &sc);
            for e in topo.links() {
                if sc.link_dead(&topo, e) {
                    continue;
                }
                assert!(
                    loads.load[e.index()] <= topo.capacity(e) + 1e-5,
                    "seed {seed}: {:?} overloads {e} at {}",
                    sc.failed_links,
                    loads.load[e.index()]
                );
            }
        }
    }
}

/// Control-plane FFC (kc=2): any ≤2 stale ingresses leave every link
/// within capacity, against a realistic previous configuration.
#[test]
fn control_ffc_guarantee_on_generated_networks() {
    let (topo, tm, tunnels) = instance(6, 11);
    let old = solve_te(TeProblem::new(&topo, &tm, &tunnels)).expect("old TE");
    // Perturb demands (the next interval's matrix).
    let tm2 = tm.scale(0.9);
    let cfg = solve_ffc(
        TeProblem::new(&topo, &tm2, &tunnels),
        &old,
        &FfcConfig::new(2, 0, 0),
    )
    .expect("control FFC solvable");
    let nodes: Vec<NodeId> = topo.nodes().collect();
    for sc in config_combinations_up_to(&nodes, 2) {
        let loads = rescaled_link_loads_mixed(&topo, &tm2, &tunnels, &cfg, &old, &sc);
        for e in topo.links() {
            assert!(
                loads.load[e.index()] <= topo.capacity(e) + 1e-5,
                "stale {:?} overloads {e} at {} > {}",
                sc.config_failures,
                loads.load[e.index()],
                topo.capacity(e)
            );
        }
    }
}

/// The warm scenario sweep (dual-simplex restart path) preserves the
/// FFC guarantee end to end: every re-optimized configuration from
/// [`solve_ffc_scenarios`] must survive every
/// residual single-link failure *on top of* its scenario's dead links —
/// after proportional ingress rescaling, no surviving link exceeds
/// capacity.
#[test]
fn reoptimized_scenario_chain_stays_congestion_free() {
    let (topo, tm, tunnels) = instance(6, 5);
    let links: Vec<LinkId> = topo.links().collect();
    let scenarios = link_combinations_up_to(&links, 1);
    let outcomes = solve_ffc_scenarios(
        TeProblem::new(&topo, &tm, &tunnels),
        &TeConfig::zero(&tunnels),
        &FfcConfig::new(0, 1, 0).exact(),
        &scenarios,
        &SimplexOptions::default(),
    )
    .expect("scenario sweep solvable");

    let mut dual_iterations = 0;
    for (sc, outcome) in scenarios.iter().zip(outcomes) {
        let outcome = outcome.expect("scenario re-solve succeeds");
        dual_iterations += outcome.stats.dual_iterations;
        assert!(outcome.config.throughput() >= 0.0);
        // The re-optimized model pins the scenario's dead tunnels and
        // keeps exact ke=1 protection, so the new configuration must
        // tolerate any one further link failure.
        for extra in link_combinations_up_to(&links, 1) {
            let union = FaultScenario::links(
                sc.failed_links
                    .iter()
                    .chain(extra.failed_links.iter())
                    .copied(),
            );
            let loads = rescaled_link_loads(&topo, &tm, &tunnels, &outcome.config, &union);
            for e in topo.links() {
                if union.link_dead(&topo, e) {
                    continue;
                }
                assert!(
                    loads.load[e.index()] <= topo.capacity(e) + 1e-5,
                    "scenario {:?} + residual {:?} overloads {e} at {} > {}",
                    sc.failed_links,
                    extra.failed_links,
                    loads.load[e.index()],
                    topo.capacity(e)
                );
            }
        }
    }
    assert!(
        dual_iterations > 0,
        "warm sweep never entered dual iterations"
    );
}

/// Plain TE on the same instances is *not* robust: some single link
/// failure congests some link (this is the paper's Figure 1 premise).
#[test]
fn plain_te_is_not_robust() {
    let mut violated = false;
    for seed in [1u64, 7, 23] {
        let (topo, tm, tunnels) = instance(6, seed);
        // Push demand to the edge so the contrast is visible.
        let tm = tm.scale(2.0);
        let cfg = solve_te(TeProblem::new(&topo, &tm, &tunnels)).expect("TE");
        let links: Vec<LinkId> = topo.links().collect();
        for sc in link_combinations_up_to(&links, 1) {
            let loads = rescaled_link_loads(&topo, &tm, &tunnels, &cfg, &sc);
            if loads.max_oversubscription_ratio(&topo) > 0.01 {
                violated = true;
            }
        }
    }
    assert!(
        violated,
        "plain TE never congested — instances too idle to be meaningful"
    );
}

/// FFC throughput overhead is monotone in each protection dimension.
#[test]
fn overhead_monotonicity() {
    let (topo, tm, tunnels) = instance(6, 3);
    let old = solve_te(TeProblem::new(&topo, &tm, &tunnels)).expect("TE");
    let t = |kc: usize, ke: usize| {
        solve_ffc(
            TeProblem::new(&topo, &tm, &tunnels),
            &old,
            &FfcConfig::new(kc, ke, 0),
        )
        .expect("FFC")
        .throughput()
    };
    let base = t(0, 0);
    assert!(base >= t(1, 0) - 1e-6);
    assert!(t(1, 0) >= t(2, 0) - 1e-6);
    assert!(base >= t(0, 1) - 1e-6);
    assert!(t(0, 1) >= t(0, 2) - 1e-6);
    assert!(t(1, 1) <= t(1, 0) + 1e-6);
    assert!(t(1, 1) <= t(0, 1) + 1e-6);
}
