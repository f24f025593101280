//! Property tests across crates: on randomized small networks, FFC
//! solutions survive their advertised fault class; encodings agree; the
//! sorting network matches enumeration for control-plane FFC.

use ffc_core::rescale::{rescaled_link_loads, rescaled_link_loads_mixed};
use ffc_core::{solve_ffc, solve_te, FfcConfig, MsumEncoding, TeConfig, TeProblem};
use ffc_net::failure::{config_combinations_up_to, link_combinations_up_to};
use ffc_net::prelude::*;
use proptest::prelude::*;

/// A random 2-connected-ish topology: ring + chords, random capacities.
#[derive(Debug, Clone)]
struct RandomNet {
    nodes: usize,
    chords: Vec<(usize, usize)>,
    caps: Vec<f64>,
    demands: Vec<(usize, usize, f64)>,
}

fn net_strategy() -> impl Strategy<Value = RandomNet> {
    (4usize..8).prop_flat_map(|nodes| {
        let chord = (0..nodes, 0..nodes).prop_filter("distinct", |(a, b)| a != b);
        let chords = prop::collection::vec(chord, 1..4);
        let caps = prop::collection::vec(5.0..20.0f64, nodes + 4);
        let demand = (0..nodes, 0..nodes, 1.0..12.0f64).prop_filter("distinct", |(a, b, _)| a != b);
        let demands = prop::collection::vec(demand, 1..5);
        (chords, caps, demands).prop_map(move |(chords, caps, demands)| RandomNet {
            nodes,
            chords,
            caps,
            demands,
        })
    })
}

fn build(net: &RandomNet) -> (Topology, TrafficMatrix, TunnelTable) {
    let mut topo = Topology::new();
    let ns = topo.add_nodes(net.nodes, "n");
    let mut cap_iter = net.caps.iter().cycle();
    for i in 0..net.nodes {
        topo.add_bidi(
            ns[i],
            ns[(i + 1) % net.nodes],
            *cap_iter.next().expect("cycle"),
        );
    }
    for &(a, b) in &net.chords {
        if topo.find_link(ns[a], ns[b]).is_none() {
            topo.add_bidi(ns[a], ns[b], *cap_iter.next().expect("cycle"));
        }
    }
    let mut tm = TrafficMatrix::new();
    for &(a, b, d) in &net.demands {
        tm.add_flow(ns[a], ns[b], d, Priority::High);
    }
    let tunnels = layout_tunnels(
        &topo,
        &tm,
        &LayoutConfig {
            tunnels_per_flow: 3,
            p: 1,
            q: 3,
            reuse_penalty: 0.4,
        },
    );
    (topo, tm, tunnels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Data-plane FFC (ke=1) never congests after any single link
    /// failure, on randomized networks and demands.
    #[test]
    fn data_ffc_survives_single_link_failures(net in net_strategy()) {
        let (topo, tm, tunnels) = build(&net);
        let cfg = solve_ffc(
            TeProblem::new(&topo, &tm, &tunnels),
            &TeConfig::zero(&tunnels),
            &FfcConfig::new(0, 1, 0).exact(),
        ).expect("data FFC always feasible (b=0 fallback exists)");
        let links: Vec<LinkId> = topo.links().collect();
        for sc in link_combinations_up_to(&links, 1) {
            let loads = rescaled_link_loads(&topo, &tm, &tunnels, &cfg, &sc);
            for e in topo.links() {
                if sc.link_dead(&topo, e) { continue; }
                prop_assert!(
                    loads.load[e.index()] <= topo.capacity(e) + 1e-5,
                    "{:?} overloads {e}: {}",
                    sc.failed_links, loads.load[e.index()]
                );
            }
        }
    }

    /// Control-plane FFC (kc=1) never congests with any single stale
    /// ingress, against a random plain-TE old configuration.
    #[test]
    fn control_ffc_survives_single_stale_switch(net in net_strategy()) {
        let (topo, tm, tunnels) = build(&net);
        let old = solve_te(TeProblem::new(&topo, &tm, &tunnels)).expect("TE");
        let tm2 = tm.scale(0.8);
        let cfg = solve_ffc(
            TeProblem::new(&topo, &tm2, &tunnels),
            &old,
            &FfcConfig::new(1, 0, 0),
        ).expect("control FFC feasible");
        let nodes: Vec<NodeId> = topo.nodes().collect();
        for sc in config_combinations_up_to(&nodes, 1) {
            let loads = rescaled_link_loads_mixed(&topo, &tm2, &tunnels, &cfg, &old, &sc);
            for e in topo.links() {
                prop_assert!(
                    loads.load[e.index()] <= topo.capacity(e) + 1e-5,
                    "stale {:?} overloads {e}",
                    sc.config_failures
                );
            }
        }
    }

    /// Both bounded-M-sum encodings produce the same optimum for
    /// control-plane FFC (§4.4.1 equivalence).
    #[test]
    fn encodings_agree_on_random_instances(net in net_strategy()) {
        let (topo, tm, tunnels) = build(&net);
        let old = solve_te(TeProblem::new(&topo, &tm, &tunnels)).expect("TE");
        let mut objs = Vec::new();
        for enc in [MsumEncoding::SortingNetwork, MsumEncoding::Enumeration] {
            let cfg = solve_ffc(
                TeProblem::new(&topo, &tm, &tunnels),
                &old,
                &FfcConfig::new(1, 0, 0).with_encoding(enc),
            ).expect("feasible");
            objs.push(cfg.throughput());
        }
        prop_assert!((objs[0] - objs[1]).abs() < 1e-4 * (1.0 + objs[1].abs()), "{objs:?}");
    }

    /// FFC never grants more than plain TE (protection is never free
    /// throughput), and the granted rates always fit the allocations.
    #[test]
    fn ffc_solutions_internally_consistent(net in net_strategy()) {
        let (topo, tm, tunnels) = build(&net);
        let plain = solve_te(TeProblem::new(&topo, &tm, &tunnels)).expect("TE");
        let cfg = solve_ffc(
            TeProblem::new(&topo, &tm, &tunnels),
            &TeConfig::zero(&tunnels),
            &FfcConfig::new(0, 1, 0).exact(),
        ).expect("FFC");
        prop_assert!(cfg.throughput() <= plain.throughput() + 1e-6);
        for (f, _) in tm.iter() {
            let total: f64 = cfg.alloc[f.index()].iter().sum();
            prop_assert!(total >= cfg.rate[f.index()] - 1e-6);
        }
        // Allocations fit capacities.
        let alloc = cfg.link_alloc(&topo, &tunnels);
        for e in topo.links() {
            prop_assert!(alloc[e.index()] <= topo.capacity(e) + 1e-6);
        }
    }
}
