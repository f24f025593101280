//! Property tests for the graph algorithms and tunnel layout: shortest
//! paths are optimal and well-formed, and the (p,q) layout never
//! violates its caps.

use ffc_net::graph::shortest_path_hops;
use ffc_net::prelude::*;
use proptest::prelude::*;

/// A random connected topology: ring + chords with random weights
/// encoded as capacities (we use capacity as the weight in tests).
#[derive(Debug, Clone)]
struct RandNet {
    n: usize,
    chords: Vec<(usize, usize)>,
    src: usize,
    dst: usize,
}

fn net_strategy() -> impl Strategy<Value = RandNet> {
    (4usize..10).prop_flat_map(|n| {
        let chord = (0..n, 0..n).prop_filter("distinct", |(a, b)| a != b);
        (prop::collection::vec(chord, 0..5), 0..n, 0..n)
            .prop_filter("distinct endpoints", |(_, s, d)| s != d)
            .prop_map(move |(chords, src, dst)| RandNet {
                n,
                chords,
                src,
                dst,
            })
    })
}

fn build(net: &RandNet) -> Topology {
    let mut topo = Topology::new();
    let ns = topo.add_nodes(net.n, "n");
    for i in 0..net.n {
        topo.add_bidi(ns[i], ns[(i + 1) % net.n], 1.0);
    }
    for &(a, b) in &net.chords {
        if topo.find_link(ns[a], ns[b]).is_none() {
            topo.add_bidi(ns[a], ns[b], 1.0);
        }
    }
    topo
}

/// Floyd–Warshall oracle for hop distances.
fn fw_hops(topo: &Topology) -> Vec<Vec<usize>> {
    let n = topo.num_nodes();
    const INF: usize = usize::MAX / 4;
    let mut d = vec![vec![INF; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0;
    }
    for e in topo.links() {
        let l = topo.link(e);
        d[l.src.index()][l.dst.index()] = 1;
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                d[i][j] = d[i][j].min(d[i][k] + d[k][j]);
            }
        }
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Dijkstra's hop distance matches a Floyd–Warshall oracle.
    #[test]
    fn dijkstra_matches_floyd_warshall(net in net_strategy()) {
        let topo = build(&net);
        let oracle = fw_hops(&topo);
        let p = shortest_path_hops(&topo, NodeId(net.src), NodeId(net.dst));
        let d = oracle[net.src][net.dst];
        match p {
            Some(path) => {
                prop_assert_eq!(path.len(), d);
                // Path is well-formed: consecutive links chain.
                let nodes = path.nodes(&topo);
                prop_assert_eq!(nodes[0], NodeId(net.src));
                prop_assert_eq!(*nodes.last().unwrap(), NodeId(net.dst));
                for w in path.links.windows(2) {
                    prop_assert_eq!(topo.link(w[0]).dst, topo.link(w[1]).src);
                }
            }
            None => prop_assert!(d >= usize::MAX / 4),
        }
    }

    /// The (p,q) layout never violates its caps, regardless of the
    /// requested tunnel count.
    #[test]
    fn layout_caps_hold(net in net_strategy(), tunnels in 1usize..7,
                        p in 1usize..3, q in 1usize..4) {
        let topo = build(&net);
        let cfg = LayoutConfig { tunnels_per_flow: tunnels, p, q, reuse_penalty: 0.4 };
        let ts = layout_flow_tunnels(&topo, NodeId(net.src), NodeId(net.dst), &cfg);
        prop_assert!(ts.len() <= tunnels);
        let d = disjointness(&ts);
        prop_assert!(d.p <= p, "p cap violated: {} > {p}", d.p);
        prop_assert!(d.q <= q, "q cap violated: {} > {q}", d.q);
        for t in &ts {
            prop_assert_eq!(t.src(), NodeId(net.src));
            prop_assert_eq!(t.dst(), NodeId(net.dst));
        }
    }

    /// residual_tunnel_bound is a true lower bound: for every ≤ke-link
    /// fault scenario, at least τ tunnels survive.
    #[test]
    fn tau_is_a_valid_lower_bound(net in net_strategy(), ke in 1usize..3) {
        let topo = build(&net);
        let cfg = LayoutConfig { tunnels_per_flow: 4, p: 1, q: 3, reuse_penalty: 0.4 };
        let ts = layout_flow_tunnels(&topo, NodeId(net.src), NodeId(net.dst), &cfg);
        if ts.is_empty() {
            return Ok(());
        }
        let d = disjointness(&ts);
        let tau = residual_tunnel_bound(ts.len(), d, ke, 0);
        let links: Vec<LinkId> = topo.links().collect();
        for sc in ffc_net::failure::link_combinations_up_to(&links, ke) {
            let residual = sc.residual_tunnels(&topo, &ts);
            prop_assert!(
                residual.len() >= tau,
                "{:?} leaves {} < τ = {tau}",
                sc.failed_links, residual.len()
            );
        }
    }
}
