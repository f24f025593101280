//! Graph algorithms over [`Topology`]: Dijkstra shortest paths with
//! custom link weights and element filters, plus reachability.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::topology::{LinkId, NodeId, Topology};

/// A directed path represented as a sequence of links.
///
/// Invariant: consecutive links chain (`links[i].dst == links[i+1].src`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// The links of the path, in order.
    pub links: Vec<LinkId>,
}

impl Path {
    /// The node sequence of the path (length `links.len() + 1`).
    pub fn nodes(&self, topo: &Topology) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.links.len() + 1);
        if let Some(&first) = self.links.first() {
            out.push(topo.link(first).src);
        }
        for &l in &self.links {
            out.push(topo.link(l).dst);
        }
        out
    }

    /// Number of hops.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the path is empty.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }
}

/// Min-heap entry for Dijkstra.
#[derive(Debug, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; distances are finite and non-NaN.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra's shortest path from `src` to `dst`.
///
/// * `weight(link)` must return a positive weight, or `f64::INFINITY` to
///   exclude the link.
/// * `node_ok(node)` can exclude intermediate nodes (it is not consulted
///   for `src`/`dst`).
///
/// Returns `None` when `dst` is unreachable.
pub fn shortest_path(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    mut weight: impl FnMut(LinkId) -> f64,
    mut node_ok: impl FnMut(NodeId) -> bool,
) -> Option<Path> {
    let n = topo.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<LinkId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[src.0] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: src.0,
    });

    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        if u == dst.0 {
            break;
        }
        for &lid in topo.out_links(NodeId(u)) {
            let link = topo.link(lid);
            let v = link.dst;
            if v != dst && v != src && !node_ok(v) {
                continue;
            }
            let w = weight(lid);
            if !w.is_finite() {
                continue;
            }
            debug_assert!(w > 0.0, "link weights must be positive");
            let nd = d + w;
            if nd < dist[v.0] {
                dist[v.0] = nd;
                prev[v.0] = Some(lid);
                heap.push(HeapEntry {
                    dist: nd,
                    node: v.0,
                });
            }
        }
    }

    if !dist[dst.0].is_finite() {
        return None;
    }
    // Reconstruct.
    let mut links = Vec::new();
    let mut cur = dst;
    while cur != src {
        let lid = prev[cur.0].expect("prev chain broken");
        links.push(lid);
        cur = topo.link(lid).src;
    }
    links.reverse();
    Some(Path { links })
}

/// Hop-count shortest path (all links weight 1).
pub fn shortest_path_hops(topo: &Topology, src: NodeId, dst: NodeId) -> Option<Path> {
    shortest_path(topo, src, dst, |_| 1.0, |_| true)
}

/// Nodes reachable from `src` (including `src`), ignoring links for which
/// `link_ok` returns false.
pub fn reachable(
    topo: &Topology,
    src: NodeId,
    mut link_ok: impl FnMut(LinkId) -> bool,
) -> Vec<bool> {
    let mut seen = vec![false; topo.num_nodes()];
    let mut stack = vec![src];
    seen[src.0] = true;
    while let Some(u) = stack.pop() {
        for &lid in topo.out_links(u) {
            if !link_ok(lid) {
                continue;
            }
            let v = topo.link(lid).dst;
            if !seen[v.0] {
                seen[v.0] = true;
                stack.push(v);
            }
        }
    }
    seen
}

/// Whether every node can reach every other node.
pub fn strongly_connected(topo: &Topology) -> bool {
    if topo.num_nodes() == 0 {
        return true;
    }
    topo.nodes()
        .all(|v| reachable(topo, v, |_| true).iter().all(|&b| b))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a 4-node diamond: a -> {b, c} -> d, plus a direct a -> d.
    fn diamond() -> (Topology, Vec<NodeId>, Vec<LinkId>) {
        let mut t = Topology::new();
        let ns = t.add_nodes(4, "n");
        let (a, b, c, d) = (ns[0], ns[1], ns[2], ns[3]);
        let l0 = t.add_link(a, b, 1.0);
        let l1 = t.add_link(b, d, 1.0);
        let l2 = t.add_link(a, c, 1.0);
        let l3 = t.add_link(c, d, 1.0);
        let l4 = t.add_link(a, d, 1.0);
        (t, ns, vec![l0, l1, l2, l3, l4])
    }

    #[test]
    fn direct_path_wins_on_hops() {
        let (t, ns, ls) = diamond();
        let p = shortest_path_hops(&t, ns[0], ns[3]).unwrap();
        assert_eq!(p.links, vec![ls[4]]);
        assert_eq!(p.nodes(&t), vec![ns[0], ns[3]]);
    }

    #[test]
    fn weights_steer_path() {
        let (t, ns, ls) = diamond();
        // Make the direct link expensive.
        let p = shortest_path(
            &t,
            ns[0],
            ns[3],
            |l| if l == ls[4] { 10.0 } else { 1.0 },
            |_| true,
        )
        .unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn excluded_node_is_avoided() {
        let (t, ns, ls) = diamond();
        // Ban b and make direct link infinite: must go through c.
        let p = shortest_path(
            &t,
            ns[0],
            ns[3],
            |l| if l == ls[4] { f64::INFINITY } else { 1.0 },
            |v| v != ns[1],
        )
        .unwrap();
        assert_eq!(p.links, vec![ls[2], ls[3]]);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        assert!(shortest_path_hops(&t, a, b).is_none());
    }

    #[test]
    fn reachable_respects_link_filter() {
        let (t, ns, ls) = diamond();
        let seen = reachable(&t, ns[0], |l| l != ls[4] && l != ls[0] && l != ls[2]);
        assert!(seen[ns[0].0]);
        assert!(!seen[ns[3].0]);
    }

    #[test]
    fn strongly_connected_detects_one_way() {
        let (t, _, _) = diamond();
        assert!(!strongly_connected(&t)); // diamond is one-directional

        let mut t2 = Topology::new();
        let a = t2.add_node("a");
        let b = t2.add_node("b");
        t2.add_bidi(a, b, 1.0);
        assert!(strongly_connected(&t2));
    }
}
