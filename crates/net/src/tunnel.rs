//! Tunnels: pre-established forwarding paths for flows.
//!
//! Each flow is carried by a set of tunnels `T_f` (paper §2, Table 1).
//! The ingress switch splits the flow's traffic across tunnels according
//! to configured weights; when tunnels die, it *rescales* onto the
//! survivors proportionally (§2.1).
//!
//! This module also computes the `(p, q)` disjointness parameters of a
//! tunnel set (§4.3): `p_f` = the maximum number of the flow's tunnels
//! that traverse any single link; `q_f` = the maximum number that
//! traverse any single *intermediate* switch. (The common ingress/egress
//! are excluded — if they fail the flow has no traffic at all.)

use crate::graph::Path;
use crate::topology::{LinkId, NodeId, Topology};

/// A tunnel: a loop-free path from a flow's ingress to its egress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tunnel {
    /// The links of the tunnel, in order.
    pub links: Vec<LinkId>,
    /// The node sequence (cached; `links.len() + 1` entries).
    pub nodes: Vec<NodeId>,
}

impl Tunnel {
    /// Builds a tunnel from a path, caching the node sequence.
    ///
    /// # Panics
    /// Panics on an empty path or a path that revisits a node.
    pub fn from_path(topo: &Topology, path: Path) -> Tunnel {
        assert!(!path.is_empty(), "tunnel must have at least one link");
        let nodes = path.nodes(topo);
        let mut sorted = nodes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), nodes.len(), "tunnel path revisits a node");
        Tunnel {
            links: path.links,
            nodes,
        }
    }

    /// The ingress switch (paper: `S[t, v] = 1`).
    pub fn src(&self) -> NodeId {
        self.nodes[0]
    }

    /// The egress switch.
    pub fn dst(&self) -> NodeId {
        *self.nodes.last().expect("nonempty")
    }

    /// Whether the tunnel traverses link `e` (paper: `L[t, e] = 1`).
    pub fn uses_link(&self, e: LinkId) -> bool {
        self.links.contains(&e)
    }

    /// Whether the tunnel traverses node `v` (endpoints included).
    pub fn uses_node(&self, v: NodeId) -> bool {
        self.nodes.contains(&v)
    }

    /// Intermediate (transit) switches: all nodes except the endpoints.
    pub fn transit_nodes(&self) -> &[NodeId] {
        &self.nodes[1..self.nodes.len() - 1]
    }

    /// Number of hops.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Tunnels are never empty; provided for clippy symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// The `(p, q)` link/switch disjointness of a flow's tunnel set (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disjointness {
    /// Max tunnels of the flow sharing any one link.
    pub p: usize,
    /// Max tunnels of the flow sharing any one intermediate switch.
    pub q: usize,
}

/// Computes `(p, q)` for a set of tunnels belonging to one flow.
///
/// With no tunnels, returns `(0, 0)`. `q` counts only intermediate
/// switches; the shared ingress/egress are excluded.
pub fn disjointness(tunnels: &[Tunnel]) -> Disjointness {
    use std::collections::HashMap;
    let mut link_count: HashMap<LinkId, usize> = HashMap::new();
    let mut node_count: HashMap<NodeId, usize> = HashMap::new();
    for t in tunnels {
        for &l in &t.links {
            *link_count.entry(l).or_default() += 1;
        }
        for &v in t.transit_nodes() {
            *node_count.entry(v).or_default() += 1;
        }
    }
    Disjointness {
        p: link_count.values().copied().max().unwrap_or(0),
        q: node_count.values().copied().max().unwrap_or(0),
    }
}

/// The residual-tunnel lower bound `τ_f = |T_f| − k_e·p_f − k_v·q_f`
/// (paper §4.4.1), clamped at zero.
pub fn residual_tunnel_bound(num_tunnels: usize, d: Disjointness, ke: usize, kv: usize) -> usize {
    // Saturating: `ke` / `kv` can come straight from a trace file.
    num_tunnels.saturating_sub(
        ke.saturating_mul(d.p)
            .saturating_add(kv.saturating_mul(d.q)),
    )
}

/// All tunnels of all flows: `tunnels_of[f]` is flow `f`'s tunnel list,
/// indexed by [`crate::flow::FlowId`].
#[derive(Debug, Clone, Default)]
pub struct TunnelTable {
    per_flow: Vec<Vec<Tunnel>>,
}

impl TunnelTable {
    /// Creates a table with an empty tunnel list per flow.
    pub fn new(num_flows: usize) -> Self {
        Self {
            per_flow: vec![Vec::new(); num_flows],
        }
    }

    /// Builds a table directly from per-flow tunnel lists.
    pub fn from_lists(per_flow: Vec<Vec<Tunnel>>) -> Self {
        Self { per_flow }
    }

    /// Number of flows covered.
    pub fn num_flows(&self) -> usize {
        self.per_flow.len()
    }

    /// Tunnels of flow `f`.
    #[inline]
    pub fn tunnels(&self, f: crate::flow::FlowId) -> &[Tunnel] {
        &self.per_flow[f.index()]
    }

    /// Adds a tunnel to flow `f`.
    pub fn push(&mut self, f: crate::flow::FlowId, t: Tunnel) {
        self.per_flow[f.index()].push(t);
    }

    /// Iterates `(flow, tunnel_index, tunnel)` over all tunnels.
    pub fn iter_all(&self) -> impl Iterator<Item = (crate::flow::FlowId, usize, &Tunnel)> {
        self.per_flow.iter().enumerate().flat_map(|(fi, ts)| {
            ts.iter()
                .enumerate()
                .map(move |(ti, t)| (crate::flow::FlowId(fi), ti, t))
        })
    }

    /// Total number of tunnels.
    pub fn total_tunnels(&self) -> usize {
        self.per_flow.iter().map(Vec::len).sum()
    }

    /// The `(p, q)` disjointness of flow `f`'s tunnels.
    pub fn disjointness(&self, f: crate::flow::FlowId) -> Disjointness {
        disjointness(self.tunnels(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Path;

    /// Line topology a-b-c-d plus shortcut links for multi-tunnel tests.
    fn topo() -> (Topology, Vec<NodeId>) {
        let mut t = Topology::new();
        let ns = t.add_nodes(4, "n");
        for i in 0..3 {
            t.add_bidi(ns[i], ns[i + 1], 10.0);
        }
        t.add_bidi(ns[0], ns[2], 10.0);
        t.add_bidi(ns[1], ns[3], 10.0);
        (t, ns)
    }

    fn mk_tunnel(t: &Topology, hops: &[NodeId]) -> Tunnel {
        let links = hops
            .windows(2)
            .map(|w| t.find_link(w[0], w[1]).expect("link exists"))
            .collect();
        Tunnel::from_path(t, Path { links })
    }

    #[test]
    fn tunnel_endpoints_and_membership() {
        let (t, ns) = topo();
        let tun = mk_tunnel(&t, &[ns[0], ns[1], ns[2]]);
        assert_eq!(tun.src(), ns[0]);
        assert_eq!(tun.dst(), ns[2]);
        assert!(tun.uses_node(ns[1]));
        assert_eq!(tun.transit_nodes(), &[ns[1]]);
        assert_eq!(tun.len(), 2);
        let l01 = t.find_link(ns[0], ns[1]).unwrap();
        assert!(tun.uses_link(l01));
    }

    #[test]
    #[should_panic(expected = "revisits")]
    fn rejects_loops() {
        let (t, ns) = topo();
        // a -> b -> a is a loop.
        mk_tunnel(&t, &[ns[0], ns[1], ns[0]]);
    }

    #[test]
    fn disjointness_link_and_switch() {
        let (t, ns) = topo();
        // Two tunnels sharing link n0-n1 and transit node n1.
        let t1 = mk_tunnel(&t, &[ns[0], ns[1], ns[2]]);
        let t2 = mk_tunnel(&t, &[ns[0], ns[1], ns[3], ns[2]]);
        let d = disjointness(&[t1, t2]);
        assert_eq!(d.p, 2); // n0-n1 shared
        assert_eq!(d.q, 2); // n1 shared
    }

    #[test]
    fn disjoint_tunnels_have_p1_q1() {
        let (t, ns) = topo();
        let t1 = mk_tunnel(&t, &[ns[0], ns[1], ns[3]]);
        let t2 = mk_tunnel(&t, &[ns[0], ns[2], ns[3]]);
        let d = disjointness(&[t1, t2]);
        assert_eq!((d.p, d.q), (1, 1));
    }

    #[test]
    fn endpoints_do_not_count_toward_q() {
        let (t, ns) = topo();
        let t1 = mk_tunnel(&t, &[ns[0], ns[2]]);
        let t2 = mk_tunnel(&t, &[ns[0], ns[1], ns[2]]);
        let d = disjointness(&[t1, t2]);
        // Shared endpoints n0 and n2 do not make q = 2.
        assert_eq!(d.q, 1);
        assert_eq!(d.p, 1);
    }

    #[test]
    fn residual_bound_formula() {
        let d = Disjointness { p: 1, q: 3 };
        // |T|=6, ke=1, kv=0 -> 5; ke=0, kv=1 -> 3; ke=3,kv=0 -> 3.
        assert_eq!(residual_tunnel_bound(6, d, 1, 0), 5);
        assert_eq!(residual_tunnel_bound(6, d, 0, 1), 3);
        assert_eq!(residual_tunnel_bound(6, d, 3, 0), 3);
        // Saturating at zero.
        assert_eq!(residual_tunnel_bound(2, d, 0, 1), 0);
    }

    #[test]
    fn table_roundtrip() {
        let (t, ns) = topo();
        let mut table = TunnelTable::new(2);
        let f0 = crate::flow::FlowId(0);
        table.push(f0, mk_tunnel(&t, &[ns[0], ns[1]]));
        table.push(f0, mk_tunnel(&t, &[ns[0], ns[2], ns[1]]));
        assert_eq!(table.tunnels(f0).len(), 2);
        assert_eq!(table.total_tunnels(), 2);
        assert_eq!(table.iter_all().count(), 2);
        assert_eq!(table.disjointness(f0).p, 1);
    }
}
