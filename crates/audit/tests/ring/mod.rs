//! The random ring instances the certifier's proof is held to
//! enumeration on (`proptest_lemma.rs`): a 4–6 node ring with chords, a
//! surged / zeroed / ingress-permuted traffic matrix, a (p,q) tunnel
//! layout, and rate, allocation and old-allocation vectors that may be
//! out of bounds.

use ffc_net::prelude::*;
use proptest::prelude::*;

/// Raw material for one randomized certification instance.
#[derive(Debug, Clone)]
pub struct Inst {
    /// Ring size (4..=6 nodes).
    pub nodes: usize,
    /// Chord toggles (taken modulo the node count).
    pub chords: Vec<bool>,
    /// Capacity pool, cycled over links.
    pub caps: Vec<f64>,
    /// `(src, dst offset, demand)` per flow; dst lands on a different
    /// node than src by construction.
    pub flows: Vec<(usize, usize, f64)>,
    /// Correlated surge factor applied to *all* demands (models a
    /// traffic-matrix-wide burst).
    pub surge: f64,
    /// Zero out every flow whose index hits this stride (0 = none).
    pub zero_stride: usize,
    /// Rotate flow sources by this offset (permuted ingress
    /// assignment) — stresses the stale-ingress source enumeration.
    pub ingress_rot: usize,
    /// Fraction of demand granted as rate, per flow (may exceed 1 to
    /// exercise rejection paths).
    pub rate_frac: Vec<f64>,
    /// Weight pool for the new allocation (slightly negative values
    /// exercise the bound-violation paths).
    pub alloc_pool: Vec<f64>,
    /// Weight pool for the old allocation, when present.
    pub old_pool: Option<Vec<f64>>,
    /// Protection level `(kc, ke, kv)`.
    pub kc: usize,
    pub ke: usize,
    pub kv: usize,
    /// Small scenario budget (exercises truncation) or effectively
    /// unlimited.
    pub capped: bool,
    pub budget: usize,
    /// Exempt the first link from the congestion check.
    pub unprotect_first: bool,
}

/// Draws one [`Inst`].
pub fn inst_strategy() -> impl Strategy<Value = Inst> {
    (
        (
            4..7usize,
            prop::collection::vec(any::<bool>(), 3),
            prop::collection::vec(4.0..20.0f64, 4),
            prop::collection::vec((0..6usize, 0..5usize, 1.0..9.0f64), 2..5),
        ),
        (
            0.3..2.5f64,
            0..4usize,
            0..4usize,
            prop::collection::vec(0.0..1.25f64, 5),
        ),
        (
            prop::collection::vec(-0.2..6.0f64, 8),
            prop::collection::vec(0.0..6.0f64, 8),
            any::<bool>(),
        ),
        (
            (0..3usize, 0..3usize, 0..2usize),
            any::<bool>(),
            1..40usize,
            any::<bool>(),
        ),
    )
        .prop_map(
            |(
                (nodes, chords, caps, flows),
                (surge, zero_stride, ingress_rot, rate_frac),
                (alloc_pool, old_pool, has_old),
                ((kc, ke, kv), capped, budget, unprotect_first),
            )| Inst {
                nodes,
                chords,
                caps,
                flows,
                surge,
                zero_stride,
                ingress_rot,
                rate_frac,
                alloc_pool,
                old_pool: has_old.then_some(old_pool),
                kc,
                ke,
                kv,
                capped,
                budget,
                unprotect_first,
            },
        )
}

/// Materialized instance: ring-plus-chords topology, surged / zeroed /
/// ingress-permuted traffic matrix, tunnel layout, and the (possibly
/// out-of-bounds) rate/alloc vectors.
pub type Built = (
    Topology,
    TrafficMatrix,
    TunnelTable,
    Vec<f64>,
    Vec<Vec<f64>>,
    Option<Vec<Vec<f64>>>,
);

pub fn build(inst: &Inst) -> Built {
    let mut t = Topology::new();
    let ns = t.add_nodes(inst.nodes, "n");
    for i in 0..inst.nodes {
        t.add_bidi(
            ns[i],
            ns[(i + 1) % inst.nodes],
            inst.caps[i % inst.caps.len()],
        );
    }
    for (c, &on) in inst.chords.iter().enumerate() {
        let a = c % inst.nodes;
        let b = (c + 2) % inst.nodes;
        if on && a != b && t.find_link(ns[a], ns[b]).is_none() {
            t.add_bidi(ns[a], ns[b], inst.caps[(c + 1) % inst.caps.len()]);
        }
    }
    let mut tm = TrafficMatrix::new();
    for (fi, &(src, doff, demand)) in inst.flows.iter().enumerate() {
        let s = (src + inst.ingress_rot) % inst.nodes;
        let d = (s + 1 + doff % (inst.nodes - 1)) % inst.nodes;
        let demand = if inst.zero_stride > 0 && fi % inst.zero_stride == 0 {
            0.0
        } else {
            demand * inst.surge
        };
        tm.add_flow(ns[s], ns[d], demand, Priority::High);
    }
    let tunnels = layout_tunnels(
        &t,
        &tm,
        &LayoutConfig {
            tunnels_per_flow: 3,
            p: 2,
            q: 3,
            reuse_penalty: 0.5,
        },
    );
    let mut rate = Vec::new();
    let mut alloc = Vec::new();
    let mut old = inst.old_pool.as_ref().map(|_| Vec::new());
    let mut k = 0usize;
    for (f, flow) in tm.iter() {
        let fi = f.index();
        rate.push(flow.demand * inst.rate_frac[fi % inst.rate_frac.len()]);
        let nt = tunnels.tunnels(f).len();
        let mut a = Vec::with_capacity(nt);
        let mut o = Vec::with_capacity(nt);
        for _ in 0..nt {
            a.push(inst.alloc_pool[k % inst.alloc_pool.len()]);
            if let Some(pool) = &inst.old_pool {
                o.push(pool[(k + 3) % pool.len()]);
            }
            k += 1;
        }
        alloc.push(a);
        if let Some(old) = &mut old {
            old.push(o);
        }
    }
    (t, tm, tunnels, rate, alloc, old)
}
