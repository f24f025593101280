//! The §2.1 rescaling walk split by traffic class must add up to the
//! priority-blind walk: on random rings with mixed priorities, dead
//! links, dead switches and stale ingresses (which split by an old
//! configuration's weights), each link's per-priority loads sum to its
//! priority-blind load within 1e-12, and the per-flow `sent` and the
//! blackholed rate agree. With one priority only, the class holding the
//! traffic is the priority-blind walk bit for bit.

use ffc_core::rescale::{class_link_loads, rescaled_link_loads_mixed, ClassLoads};
use ffc_core::TeConfig;
use ffc_net::prelude::*;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Inst {
    nodes: usize,
    chords: Vec<(usize, usize)>,
    /// `(src, dst, demand, priority)` per flow.
    flows: Vec<(usize, usize, f64, usize)>,
    /// Per-tunnel allocation seeds of the new and the old configuration
    /// (cycled; values below 1.0 become 0, an idle tunnel).
    new_alloc: Vec<f64>,
    old_alloc: Vec<f64>,
    /// Granted rate as a fraction of demand (values below 0.1 become 0).
    rate_frac: Vec<f64>,
    dead_links: Vec<usize>,
    dead_switch: Option<usize>,
    stale: Vec<usize>,
}

fn inst_strategy() -> impl Strategy<Value = Inst> {
    (4usize..8).prop_flat_map(|nodes| {
        let chord = (0..nodes, 0..nodes).prop_filter("distinct", |(a, b)| a != b);
        let flow = (0..nodes, 0..nodes, 1.0..12.0f64, 0..3usize)
            .prop_filter("distinct", |(a, b, _, _)| a != b);
        (
            (
                prop::collection::vec(chord, 0..3),
                prop::collection::vec(flow, 1..7),
            ),
            (
                prop::collection::vec(0.0..5.0f64, 1..12),
                prop::collection::vec(0.0..5.0f64, 1..12),
                prop::collection::vec(0.0..1.0f64, 1..7),
            ),
            (
                prop::collection::vec(0..2 * nodes, 0..3),
                prop::collection::vec(0..nodes, 0..2),
                prop::collection::vec(0..nodes, 0..3),
            ),
        )
            .prop_map(
                move |(
                    (chords, flows),
                    (new_alloc, old_alloc, rate_frac),
                    (dead_links, dead_switch, stale),
                )| Inst {
                    nodes,
                    chords,
                    flows,
                    new_alloc,
                    old_alloc,
                    rate_frac,
                    dead_links,
                    dead_switch: dead_switch.first().copied(),
                    stale,
                },
            )
    })
}

/// A config over `tunnels` from cycled allocation seeds.
fn config(tm: &TrafficMatrix, tunnels: &TunnelTable, alloc: &[f64], frac: &[f64]) -> TeConfig {
    let mut seeds = alloc.iter().cycle();
    let mut fracs = frac.iter().cycle();
    let mut cfg = TeConfig::zero(tunnels);
    for (f, flow) in tm.iter() {
        let x = *fracs.next().expect("cycle");
        cfg.rate[f.index()] = if x < 0.1 { 0.0 } else { flow.demand * x };
        for a in cfg.alloc[f.index()].iter_mut() {
            let s = *seeds.next().expect("cycle");
            *a = if s < 1.0 { 0.0 } else { s };
        }
    }
    cfg
}

type Built = (
    Topology,
    TrafficMatrix,
    TunnelTable,
    TeConfig,
    TeConfig,
    FaultScenario,
);

fn build(inst: &Inst, one_priority: bool) -> Built {
    let mut topo = Topology::new();
    let ns = topo.add_nodes(inst.nodes, "n");
    for i in 0..inst.nodes {
        topo.add_bidi(ns[i], ns[(i + 1) % inst.nodes], 10.0);
    }
    for &(a, b) in &inst.chords {
        if topo.find_link(ns[a], ns[b]).is_none() {
            topo.add_bidi(ns[a], ns[b], 10.0);
        }
    }
    let mut tm = TrafficMatrix::new();
    for &(a, b, d, p) in &inst.flows {
        let p = if one_priority { 1 } else { p };
        tm.add_flow(ns[a], ns[b], d, Priority::ALL[p]);
    }
    let tunnels = layout_tunnels(
        &topo,
        &tm,
        &LayoutConfig {
            tunnels_per_flow: 3,
            ..LayoutConfig::default()
        },
    );
    let cfg = config(&tm, &tunnels, &inst.new_alloc, &inst.rate_frac);
    let old = config(&tm, &tunnels, &inst.old_alloc, &inst.rate_frac);
    let links: Vec<LinkId> = topo.links().collect();
    let mut sc = FaultScenario::none();
    for &l in &inst.dead_links {
        sc.fail_link(links[l % links.len()]);
    }
    if let Some(v) = inst.dead_switch {
        sc.fail_switch(ns[v]);
    }
    for &v in &inst.stale {
        sc.fail_config(ns[v]);
    }
    (topo, tm, tunnels, cfg, old, sc)
}

fn by_priority(built: &Built) -> ClassLoads<3> {
    let (topo, tm, tunnels, cfg, old, sc) = built;
    class_link_loads(topo, tm, tunnels, cfg, old, sc, |flow| {
        Priority::ALL
            .iter()
            .position(|&p| p == flow.priority)
            .expect("a priority")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn per_priority_loads_add_up_to_the_blind_loads(inst in inst_strategy()) {
        let built = build(&inst, false);
        let split = by_priority(&built);
        let (topo, tm, tunnels, cfg, old, sc) = &built;
        let blind = rescaled_link_loads_mixed(topo, tm, tunnels, cfg, old, sc);
        prop_assert_eq!(split.load.len(), blind.load.len());
        for (per, &all) in split.load.iter().zip(&blind.load) {
            let sum: f64 = per.iter().sum();
            prop_assert!((sum - all).abs() <= 1e-12, "{:?} vs {}", per, all);
        }
        prop_assert_eq!(&split.sent, &blind.sent);
        let black: f64 = split.blackholed.iter().sum();
        prop_assert!((black - blind.blackholed).abs() <= 1e-12);
    }

    #[test]
    fn one_priority_is_the_blind_walk_bit_for_bit(inst in inst_strategy()) {
        let built = build(&inst, true);
        let split = by_priority(&built);
        let (topo, tm, tunnels, cfg, old, sc) = &built;
        let blind = rescaled_link_loads_mixed(topo, tm, tunnels, cfg, old, sc);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let medium: Vec<f64> = split.load.iter().map(|l| l[1]).collect();
        prop_assert_eq!(bits(&medium), bits(&blind.load));
        prop_assert!(split.load.iter().all(|l| l[0] == 0.0 && l[2] == 0.0));
        prop_assert_eq!(bits(&split.sent), bits(&blind.sent));
        prop_assert_eq!(split.blackholed[1].to_bits(), blind.blackholed.to_bits());
        prop_assert_eq!(split.blackholed[0] + split.blackholed[2], 0.0);
    }
}
