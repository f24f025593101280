//! The proof phase of [`crate::certify::certify`]: paper Lemma 1,
//! checked by arithmetic over the configuration, the topology and the
//! tunnel paths before any fault scenario is enumerated.
//!
//! * **(a)+(b) data plane.** Proportional rescaling multiplies every
//!   surviving tunnel of flow `f` by `b_f / Σ_{residual} a`. Over the
//!   flow's own ≤`ke` links × ≤`kv` interior switches (kill masks over
//!   its ≤ 64 tunnels) the smallest residual sum bounds that factor by
//!   `s_f = max(1, b_f / min residual)`, in every scenario at once. So
//!   `Σ_f s_f · Σ_{t∋e} max(a_t, 0)` bounds link `e`'s load under every
//!   data-plane scenario; when every flow's residual covers its rate,
//!   `s_f = 1` and the check is the paper's capacity row.
//! * **(c) control plane, exact.** A stale ingress splits its flows'
//!   new rates by the old weights. Flows partition by ingress, so a set
//!   of stale ingresses adds one gap per member to the fault-free load,
//!   and the worst ≤`kc` set on a link is its fresh load plus its `kc`
//!   largest positive per-ingress gaps.
//!
//! The phase only ever accepts. A configuration it cannot prove falls
//! back to enumeration, which stays the one authority for rejections.
//! Every sum here is a reordering of the sums enumeration computes, so
//! each bound carries a [`ROUNDING`] allowance before it is held to
//! capacity: a proof implies that the enumerated loads pass the same
//! tolerance test too.

use ffc_net::{NodeId, Tunnel};

use crate::certify::{within, CertInput, Protection, ZERO_WEIGHT};

/// Relative allowance added to every bound before it is held to
/// capacity. A bound and the load enumeration would compute are sums
/// of the same non-negative terms in different orders (the control
/// plane's gaps cancel, so there the allowance scales with the sum of
/// the magnitudes); each differs from the exact value by at most
/// `n · ε` relative for `n` terms, far below `1e-9` for any link
/// carrying fewer than a million tunnels.
pub(crate) const ROUNDING: f64 = 1e-9;

/// Tunnels per flow the kill masks cover (one `u64` bit each).
const MAX_TUNNELS: usize = 64;

/// Kill sets per flow before the proof gives up. They are deduplicated
/// after every round, so a round starts from at most `2^tunnels` of
/// them; the cap only bounds a pathological layout.
const MAX_KILL_MASKS: usize = 1 << 16;

/// Proves `input` congestion-free at its protection level without
/// enumerating a scenario. Returns an upper bound on the worst
/// `load / capacity` enumeration would observe over protected links
/// (the bounds with their rounding allowance), or `None` when the proof
/// does not go through — including `kc > 0` without an old
/// configuration, which enumeration reports as `certified-sampled`.
///
/// The caller has already run the static phase clean: shapes match and
/// every value is finite.
pub(crate) fn prove(input: &CertInput<'_>) -> Option<f64> {
    let old = match (input.protection.kc, input.old_alloc) {
        (0, _) => None,
        (_, Some(old)) => Some(old),
        (_, None) => return None,
    };
    let topo = input.topo;
    let data = data_plane_bound(input)?;
    let control = match old {
        Some(old) => control_plane_worst(input, old),
        None => vec![(0.0, 0.0); topo.num_links()],
    };
    let mut protected = vec![true; topo.num_links()];
    for l in input.unprotected_links {
        if let Some(p) = protected.get_mut(l.index()) {
            *p = false;
        }
    }

    let mut worst = 0.0f64;
    let links = topo.links().zip(&protected).zip(data.iter().zip(&control));
    for ((e, &guarded), (&bound, &(stale, magnitude))) in links {
        if !guarded {
            continue;
        }
        let cap = topo.capacity(e);
        let load = (bound + ROUNDING * bound).max(stale + ROUNDING * magnitude);
        if !within(load, cap) {
            return None;
        }
        if cap > 0.0 {
            worst = worst.max(load / cap);
        }
    }
    Some(worst)
}

/// (a)+(b): per link, `Σ_f s_f · Σ_{t∋e} max(a_t, 0)`. The rescaling
/// drops negative traffic, so a negative allocation (within the static
/// phase's tolerance) adds nothing. `None` when a flow has more
/// tunnels than a kill mask holds, or more kill sets than
/// [`MAX_KILL_MASKS`].
fn data_plane_bound(input: &CertInput<'_>) -> Option<Vec<f64>> {
    let topo = input.topo;
    let mut kill = KillMasks {
        by_link: vec![0; topo.num_links()],
        by_switch: vec![0; topo.num_nodes()],
        links: Vec::new(),
        switches: Vec::new(),
        kills: Vec::new(),
    };
    let mut bound = vec![0.0; topo.num_links()];
    let flows = input.tm.iter().zip(input.rate).zip(input.alloc);
    for (((f, flow), &rate), alloc) in flows {
        if rate <= 0.0 {
            continue;
        }
        let tunnels = input.tunnels.tunnels(f);
        kill.build(tunnels, [flow.src, flow.dst], input.protection)?;
        let scale = kill.rescale_bound(alloc, rate);
        for (t, &a) in tunnels.iter().zip(alloc) {
            let x = scale * a.max(0.0);
            for l in &t.links {
                if let Some(b) = bound.get_mut(l.index()) {
                    *b += x;
                }
            }
        }
    }
    Some(bound)
}

/// One flow's kill masks — bit `t` set when tunnel `t` dies — with the
/// scratch that builds them, reused from flow to flow.
struct KillMasks {
    /// Per link: the tunnels of the current flow that use it (zeroed
    /// again once read).
    by_link: Vec<u64>,
    /// Per switch: the tunnels of the current flow that pass through it
    /// (zeroed again once read).
    by_switch: Vec<u64>,
    /// The masks of the flow's links (deduplicated by [`widen`]).
    links: Vec<u64>,
    /// The masks of the flow's interior switches (likewise).
    switches: Vec<u64>,
    /// Every tunnel set ≤`ke` links × ≤`kv` switches can kill.
    kills: Vec<u64>,
}

impl KillMasks {
    /// Fills `kills` for a flow with `tunnels` between `endpoints`. A
    /// failure at either endpoint silences the flow, so only interior
    /// switches count. `None` when the flow has more than 64 tunnels, or
    /// more than [`MAX_KILL_MASKS`] kill sets.
    fn build(
        &mut self,
        tunnels: &[Tunnel],
        endpoints: [NodeId; 2],
        protection: Protection,
    ) -> Option<()> {
        if tunnels.len() > MAX_TUNNELS {
            return None;
        }
        for (bit, t) in tunnels.iter().enumerate() {
            let m = 1u64 << bit;
            for l in &t.links {
                if let Some(x) = self.by_link.get_mut(l.index()) {
                    *x |= m;
                }
            }
            for v in t.nodes.iter().filter(|v| !endpoints.contains(v)) {
                if let Some(x) = self.by_switch.get_mut(v.index()) {
                    *x |= m;
                }
            }
        }
        self.links.clear();
        self.switches.clear();
        for t in tunnels {
            for l in &t.links {
                if let Some(x) = self.by_link.get_mut(l.index()) {
                    self.links.push(std::mem::take(x));
                }
            }
            for v in &t.nodes {
                if let Some(x) = self.by_switch.get_mut(v.index()) {
                    self.switches.push(std::mem::take(x));
                }
            }
        }
        self.kills.clear();
        self.kills.push(0);
        widen(&mut self.kills, &mut self.links, protection.ke)?;
        widen(&mut self.kills, &mut self.switches, protection.kv)
    }

    /// `s_f`: the largest factor by which the rescaling stretches the
    /// flow's allocations over its kill sets, floored at 1. A residual
    /// set whose weights sum to (numerically) zero forwards nothing, so
    /// it does not bound the factor; a flow that never forwards gets 0.
    ///
    /// Each residual sum is the certifier's own — surviving weights
    /// added in tunnel order — so enumeration divides by one of exactly
    /// these values and never by less than their minimum.
    fn rescale_bound(&self, alloc: &[f64], rate: f64) -> f64 {
        let min_residual = self
            .kills
            .iter()
            .filter_map(|&m| {
                let total: f64 = alloc
                    .iter()
                    .enumerate()
                    .filter(|&(t, _)| m >> t & 1 == 0)
                    .map(|(_, &a)| a)
                    .sum();
                (total > ZERO_WEIGHT).then_some(total)
            })
            .fold(f64::INFINITY, f64::min);
        if min_residual.is_finite() {
            (rate / min_residual).max(1.0)
        } else {
            0.0
        }
    }
}

/// Grows `kills` to every union of a member with up to `k` of `masks`,
/// deduplicating both after every round. `None` when a round would
/// grow the set past [`MAX_KILL_MASKS`]; it is refused before anything
/// is allocated.
fn widen(kills: &mut Vec<u64>, masks: &mut Vec<u64>, k: usize) -> Option<()> {
    masks.sort_unstable();
    masks.dedup();
    for _ in 0..k {
        let before = kills.len();
        if before.saturating_mul(masks.len() + 1) > MAX_KILL_MASKS {
            return None;
        }
        for i in 0..before {
            let Some(&m) = kills.get(i) else { break };
            kills.extend(masks.iter().map(|&x| m | x));
        }
        kills.sort_unstable();
        kills.dedup();
    }
    Some(())
}

/// Per-tunnel traffic of `rate` split by `weights` with every tunnel
/// alive, by the certifier's rule: nothing when the weights sum to
/// (numerically) zero, and only positive shares.
fn split(rate: f64, weights: &[f64]) -> impl Iterator<Item = f64> + '_ {
    let total: f64 = weights.iter().sum();
    weights.iter().map(move |&w| {
        let x = if total > ZERO_WEIGHT {
            rate * w / total
        } else {
            0.0
        };
        if x > 0.0 {
            x
        } else {
            0.0
        }
    })
}

/// (c): per link, `(worst, magnitude)` — the worst load over every set
/// of ≤`kc` stale ingresses, and the sum of the fresh and stale loads
/// the rounding allowance scales with.
fn control_plane_worst(input: &CertInput<'_>, old: &[Vec<f64>]) -> Vec<(f64, f64)> {
    let topo = input.topo;
    // One slot per ingress switch, in switch order.
    let mut slot: Vec<Option<usize>> = vec![None; topo.num_nodes()];
    for (_, flow) in input.tm.iter() {
        if let Some(s) = slot.get_mut(flow.src.index()) {
            *s = Some(0);
        }
    }
    let mut ingresses = 0;
    for s in slot.iter_mut().flatten() {
        *s = ingresses;
        ingresses += 1;
    }
    let n = topo.num_links();
    let mut fresh = vec![0.0; n];
    let mut stale = vec![0.0; n];
    // gaps[e * ingresses + i]: what ingress i going stale adds to link e.
    let mut gaps = vec![0.0; n * ingresses];

    let flows = input
        .tm
        .iter()
        .zip(input.rate)
        .zip(input.alloc.iter().zip(old));
    for (((f, flow), &rate), (alloc, old)) in flows {
        let Some(&Some(i)) = slot.get(flow.src.index()) else {
            continue;
        };
        if rate <= 0.0 {
            continue;
        }
        let shares = split(rate, alloc).zip(split(rate, old));
        for (t, (new, was)) in input.tunnels.tunnels(f).iter().zip(shares) {
            for l in &t.links {
                let e = l.index();
                if let Some(x) = fresh.get_mut(e) {
                    *x += new;
                }
                if let Some(x) = stale.get_mut(e) {
                    *x += was;
                }
                if let Some(g) = gaps.get_mut(e * ingresses + i) {
                    *g += was - new;
                }
            }
        }
    }

    let kc = input.protection.kc;
    fresh
        .iter()
        .zip(&stale)
        .enumerate()
        .map(|(e, (&fresh, &stale))| {
            let row = gaps.get_mut(e * ingresses..(e + 1) * ingresses);
            let worst = fresh + row.map_or(0.0, |row| largest_positive_sum(row, kc));
            (worst, fresh + stale)
        })
        .collect()
}

/// Sum of the `k` largest positive values of `row` (reorders `row`).
fn largest_positive_sum(row: &mut [f64], k: usize) -> f64 {
    if k < row.len() {
        row.select_nth_unstable_by(k, |a, b| b.total_cmp(a));
    }
    row.iter().take(k).filter(|&&g| g > 0.0).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffc_net::LinkId;

    /// The `n` smallest non-empty subsets of `width` tunnels, as masks.
    fn subsets(n: usize, width: u32) -> Vec<u64> {
        (1..1u64 << width).take(n).collect()
    }

    /// A (0,2,1) flow whose 6 tunnels share 40 links and 50 interior
    /// switches in as many different combinations. It has at most 64
    /// distinct kill sets; kept with their repeats, the link round alone
    /// would hand the switch round 1 681 of them, and 85 731 after it —
    /// past [`MAX_KILL_MASKS`].
    #[test]
    fn shared_masks_stay_within_the_distinct_kill_sets() {
        let (links, switches) = (subsets(40, 6), subsets(50, 6));
        let endpoints = [NodeId(0), NodeId(1)];
        let tunnels: Vec<Tunnel> = (0..6)
            .map(|t| {
                let on = |masks: &[u64]| -> Vec<usize> {
                    let mine = masks.iter().enumerate().filter(|&(_, m)| m >> t & 1 == 1);
                    mine.map(|(i, _)| i).collect()
                };
                let interior = on(&switches).into_iter().map(|v| NodeId(v + 2));
                Tunnel {
                    links: on(&links).into_iter().map(LinkId).collect(),
                    nodes: [endpoints[0]]
                        .into_iter()
                        .chain(interior)
                        .chain([endpoints[1]])
                        .collect(),
                }
            })
            .collect();
        let mut kill = KillMasks {
            by_link: vec![0; links.len()],
            by_switch: vec![0; switches.len() + 2],
            links: Vec::new(),
            switches: Vec::new(),
            kills: Vec::new(),
        };
        let built = kill.build(&tunnels, endpoints, Protection::new(0, 2, 1));
        assert_eq!(built, Some(()));
        assert!(kill.kills.len() <= 64, "{}", kill.kills.len());
        // Every single tunnel and the empty set are among them.
        assert!(kill.kills.contains(&0));
        assert!((0..6).all(|t| kill.kills.contains(&(1 << t))));
    }

    /// A round that would outgrow the cap is refused before it extends.
    #[test]
    fn widen_refuses_before_allocating_past_the_cap() {
        let mut kills: Vec<u64> = (0..1 << 10).collect();
        let mut masks: Vec<u64> = (0..64).map(|b| 1 << b).collect();
        assert_eq!(widen(&mut kills, &mut masks, 1), None);
        assert_eq!(kills.len(), 1 << 10);
    }

    #[test]
    fn largest_positive_sum_takes_the_k_largest_gains() {
        let row = [0.5, -2.0, 3.0, 1.0, -0.1];
        let sum = |k| largest_positive_sum(&mut row.clone(), k);
        assert_eq!(sum(0), 0.0);
        assert_eq!(sum(1), 3.0);
        assert_eq!(sum(2), 4.0);
        assert_eq!(sum(5), 4.5);
        assert_eq!(sum(9), 4.5);
        assert_eq!(largest_positive_sum(&mut [-1.0], 1), 0.0);
        assert_eq!(largest_positive_sum(&mut [], 1), 0.0);
    }
}
