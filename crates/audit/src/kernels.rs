//! Batched SoA scenario kernels: the congestion-freedom phase of
//! [`crate::certify::certify`].
//!
//! The scalar reference in [`crate::certify::certify_scalar`] walks
//! fault scenarios one at a time, and each scenario walk re-probes
//! `BTreeSet`s per link and allocates a residual-tunnel `Vec` per flow.
//! This module restructures that sweep into structure-of-arrays blocks:
//!
//! * a `ScenarioSet` replays the certifier's deterministic scenario
//!   enumeration into bitset words — raw failed-link mask, *effective*
//!   dead-link mask (failed links ∪ links incident to a failed switch),
//!   failed-switch mask and stale-ingress mask — laid out
//!   scenario-major so a block of `BLOCK_LANES` scenarios is a handful
//!   of contiguous words;
//! * a `BatchEvaluator` precompiles the tunnel layout (per-tunnel link
//!   lists, per-flow endpoints and the raw allocations the certifier
//!   splits by) once, then evaluates the proportional-rescaling
//!   arithmetic of paper §2.1/§4.2/§4.3 over whole lanes of scenarios
//!   with bit tests instead of set probes;
//! * blocks fan out across OS threads (`std::thread::scope` — the
//!   workspace vendors no rayon) and merge deterministically in block
//!   order, so the verdict is independent of `workers`.
//!
//! The certifier is the only consumer: everything here is crate-private
//! and computes link loads, nothing else.
//!
//! **Bit-identity contract.** The lane arithmetic reproduces the scalar
//! reference's floating-point results *bitwise*, not just within
//! tolerance: masked weight sums only ever add `±0.0` to a non-negative
//! accumulator (a no-op on the bit pattern), per-tunnel traffic is
//! computed as the same `(rate * weight) / total` expression in the
//! same tunnel order, and link loads accumulate in the same flow-major
//! order. The differential oracles in `tests/` hold the two paths to
//! verdict-for-verdict equality, including the recorded violation
//! strings and the bit pattern of `max_oversubscription`.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

use ffc_net::{FaultScenario, LinkId, NodeId, Topology, TrafficMatrix, TunnelTable};

use crate::certify::{for_each_combo_up_to, within, CertInput, Certificate, Protection};

/// Scenarios evaluated per SoA block. One cache-friendly lane stripe of
/// `f64` loads per link; also the unit of thread fan-out.
const BLOCK_LANES: usize = 64;

#[inline]
fn words_for(bits: usize) -> usize {
    bits.div_ceil(64).max(1)
}

/// A packed batch of fault scenarios: per-scenario bitset lanes over
/// links and switches, scenario-major.
///
/// Built by [`ScenarioSet::enumerate_protection`], which replays the
/// certifier's deterministic ≤ke link × ≤kv switch × ≤kc stale-ingress
/// enumeration under a scenario budget.
struct ScenarioSet {
    num_links: usize,
    num_nodes: usize,
    /// Words per scenario in the link-indexed masks.
    lw: usize,
    /// Words per scenario in the node-indexed masks.
    nw: usize,
    len: usize,
    /// Raw failed links (`µ_e`), `[s * lw + w]`.
    failed_links: Vec<u64>,
    /// Effective dead links: failed, or incident to a failed switch.
    dead_links: Vec<u64>,
    /// Failed switches (`η_v`), `[s * nw + w]`.
    failed_switches: Vec<u64>,
    /// Stale-ingress switches (`λ_v`), `[s * nw + w]`.
    stale: Vec<u64>,
    truncated: bool,
}

impl ScenarioSet {
    fn empty(topo: &Topology) -> Self {
        ScenarioSet {
            num_links: topo.num_links(),
            num_nodes: topo.num_nodes(),
            lw: words_for(topo.num_links()),
            nw: words_for(topo.num_nodes()),
            len: 0,
            failed_links: Vec::new(),
            dead_links: Vec::new(),
            failed_switches: Vec::new(),
            stale: Vec::new(),
            truncated: false,
        }
    }

    /// Per-node masks of incident links, used to derive the effective
    /// dead-link mask when a switch fails.
    fn incident_masks(topo: &Topology) -> Vec<Vec<u64>> {
        let lw = words_for(topo.num_links());
        let mut masks = vec![vec![0u64; lw]; topo.num_nodes()];
        for e in topo.links() {
            let link = topo.link(e);
            let (w, b) = (e.index() / 64, e.index() % 64);
            masks[link.src.index()][w] |= 1 << b;
            masks[link.dst.index()][w] |= 1 << b;
        }
        masks
    }

    fn push_raw(
        &mut self,
        failed_links: &[u64],
        failed_switches: &[u64],
        stale: &[u64],
        incident: &[Vec<u64>],
    ) {
        self.failed_links.extend_from_slice(failed_links);
        self.failed_switches.extend_from_slice(failed_switches);
        self.stale.extend_from_slice(stale);
        let base = self.dead_links.len();
        self.dead_links.extend_from_slice(failed_links);
        for (v, inc) in incident.iter().enumerate().take(self.num_nodes) {
            let (w, b) = (v / 64, v % 64);
            if failed_switches[w] >> b & 1 == 1 {
                for (dst, m) in self.dead_links[base..].iter_mut().zip(inc) {
                    *dst |= *m;
                }
            }
        }
        self.len += 1;
    }

    /// Replays the certifier's deterministic scenario enumeration: every
    /// joint combination of ≤`ke` links × ≤`kv` switches (the empty
    /// combination is the fault-free case), then — when
    /// `include_control` — every non-empty combination of ≤`kc` stale
    /// ingresses drawn from `sources`. Enumeration stops at `budget`
    /// scenarios; `truncated` records whether anything was left out.
    fn enumerate_protection(
        topo: &Topology,
        sources: &[NodeId],
        protection: Protection,
        include_control: bool,
        budget: usize,
    ) -> Self {
        let mut set = Self::empty(topo);
        let incident = Self::incident_masks(topo);
        let links: Vec<LinkId> = topo.links().collect();
        let switches: Vec<NodeId> = topo.nodes().collect();
        let (lw, nw) = (set.lw, set.nw);
        let mut fl = vec![0u64; lw];
        let mut fs = vec![0u64; nw];
        let st = vec![0u64; nw];

        for_each_combo_up_to(links.len(), protection.ke, |lc| {
            fl.iter_mut().for_each(|w| *w = 0);
            for &i in lc {
                let e = links[i].index();
                fl[e / 64] |= 1 << (e % 64);
            }
            for_each_combo_up_to(switches.len(), protection.kv, |vc| {
                if set.len >= budget {
                    set.truncated = true;
                    return false;
                }
                fs.iter_mut().for_each(|w| *w = 0);
                for &i in vc {
                    let v = switches[i].index();
                    fs[v / 64] |= 1 << (v % 64);
                }
                set.push_raw(&fl, &fs, &st, &incident);
                true
            })
        });

        if include_control && protection.kc > 0 && !set.truncated {
            let fl = vec![0u64; lw];
            let fs = vec![0u64; nw];
            let mut st = vec![0u64; nw];
            for_each_combo_up_to(sources.len(), protection.kc, |cc| {
                if cc.is_empty() {
                    return true; // fault-free case already covered
                }
                if set.len >= budget {
                    set.truncated = true;
                    return false;
                }
                st.iter_mut().for_each(|w| *w = 0);
                for &i in cc {
                    let v = sources[i].index();
                    st[v / 64] |= 1 << (v % 64);
                }
                set.push_raw(&fl, &fs, &st, &incident);
                true
            });
        }
        set
    }

    /// Whether link `e` is dead (failed or incident to a failed switch)
    /// in scenario `s` — the batched equivalent of
    /// [`FaultScenario::link_dead`].
    #[inline]
    fn link_dead(&self, s: usize, e: LinkId) -> bool {
        self.dead_links[s * self.lw + e.index() / 64] >> (e.index() % 64) & 1 == 1
    }

    /// Reconstructs scenario `s` as a [`FaultScenario`] (cold path:
    /// violation messages, tests).
    fn scenario(&self, s: usize) -> FaultScenario {
        let mut sc = FaultScenario::none();
        for e in 0..self.num_links {
            if self.failed_links[s * self.lw + e / 64] >> (e % 64) & 1 == 1 {
                sc.fail_link(LinkId(e));
            }
        }
        for v in 0..self.num_nodes {
            if self.failed_switches[s * self.nw + v / 64] >> (v % 64) & 1 == 1 {
                sc.fail_switch(NodeId(v));
            }
            if self.stale[s * self.nw + v / 64] >> (v % 64) & 1 == 1 {
                sc.fail_config(NodeId(v));
            }
        }
        sc
    }
}

/// One tunnel, precompiled for lane evaluation.
struct TunnelLane {
    /// Splitting weight under the current configuration.
    w_new: f64,
    /// Splitting weight a stale ingress applies (old configuration, or
    /// the current one when no old configuration was supplied —
    /// mirroring the scalar certifier's fallback).
    w_old: f64,
    /// Link indices, in path order. The tunnel is dead in a lane iff
    /// any of these links is dead there — equivalent to
    /// [`FaultScenario::kills_tunnel`] because every tunnel node is an
    /// endpoint of a tunnel link.
    links: Vec<u32>,
}

/// One flow, precompiled for lane evaluation.
struct FlowLane {
    rate: f64,
    src: u32,
    dst: u32,
    tunnels: Vec<TunnelLane>,
}

/// Precompiled rescaling evaluator: turns a [`ScenarioSet`] block into
/// per-lane link loads.
struct BatchEvaluator {
    flows: Vec<FlowLane>,
    num_links: usize,
    num_nodes: usize,
}

/// Lane-major output of one evaluated block: `load[e * lanes + lane]`
/// is the load on link `e` in scenario `start + lane`.
struct BlockResult {
    /// Lanes evaluated in this block (≤ [`BLOCK_LANES`]).
    lanes: usize,
    /// Per-link loads, `[link * lanes + lane]`.
    load: Vec<f64>,
    /// Scratch: lane mask of scenarios where link `e` is dead — the
    /// block's dead-link words, transposed once so tunnel survival is a
    /// handful of word ORs instead of a per-lane probe.
    dead_lanes: Vec<u64>,
    /// Scratch: lane mask of scenarios where switch `v` failed.
    sw_lanes: Vec<u64>,
    /// Scratch: lane mask of scenarios where switch `v` is stale.
    stale_lanes: Vec<u64>,
}

impl BatchEvaluator {
    /// Precompiles the tunnel layout and splitting weights.
    ///
    /// `alloc` / `old_alloc` are the certifier's raw allocations per
    /// flow and tunnel — they double as the splitting weights, exactly
    /// as in the scalar reference. Shapes must already be validated
    /// (the certifier's static pass).
    fn new(
        topo: &Topology,
        tm: &TrafficMatrix,
        tunnels: &TunnelTable,
        rate: &[f64],
        alloc: &[Vec<f64>],
        old_alloc: Option<&[Vec<f64>]>,
    ) -> Self {
        let mut flows = Vec::with_capacity(tm.len());
        for (f, flow) in tm.iter() {
            let fi = f.index();
            let ts = tunnels.tunnels(f);
            let lanes = ts
                .iter()
                .enumerate()
                .map(|(t, tun)| TunnelLane {
                    w_new: alloc[fi][t],
                    w_old: old_alloc.map_or(alloc[fi][t], |old| old[fi][t]),
                    links: tun.links.iter().map(|l| l.index() as u32).collect(),
                })
                .collect();
            flows.push(FlowLane {
                rate: rate[fi],
                src: flow.src.index() as u32,
                dst: flow.dst.index() as u32,
                tunnels: lanes,
            });
        }
        BatchEvaluator {
            flows,
            num_links: topo.num_links(),
            num_nodes: topo.num_nodes(),
        }
    }

    /// Allocates a reusable output buffer sized for full blocks.
    fn block_buffer(&self) -> BlockResult {
        BlockResult {
            lanes: 0,
            load: vec![0.0; self.num_links * BLOCK_LANES],
            dead_lanes: vec![0; self.num_links],
            sw_lanes: vec![0; self.num_nodes],
            stale_lanes: vec![0; self.num_nodes],
        }
    }

    /// Evaluates scenarios `start .. start + lanes` (one block) into
    /// `out`, where `lanes = min(BLOCK_LANES, set.len - start)`.
    ///
    /// The arithmetic is the scalar reference's, lane-parallel: per
    /// flow, select old-vs-new weights by the stale bit, sum surviving
    /// weights in tunnel order, split `rate * w / total` across
    /// survivors, and accumulate positive traffic onto the tunnel's
    /// links.
    ///
    /// The block's fault words are transposed once into per-link and
    /// per-node *lane masks*, so tunnel survival over all lanes is a
    /// handful of word ORs and the weight sums are branch-free masked
    /// adds (`+= w * mask` only ever adds `±0.0` to a non-negative
    /// accumulator — a bitwise no-op, preserving the scalar results).
    fn eval_block(&self, set: &ScenarioSet, start: usize, out: &mut BlockResult) {
        let lanes = BLOCK_LANES.min(set.len - start);
        assert!(lanes > 0, "empty block");
        out.lanes = lanes;
        out.load[..self.num_links * lanes]
            .iter_mut()
            .for_each(|x| *x = 0.0);
        let full: u64 = if lanes == 64 { !0 } else { (1u64 << lanes) - 1 };

        // Transpose the block: scenario-major fault words into per-link
        // dead-lane masks and per-node failed/stale lane masks. Fault
        // words are sparse (a handful of set bits per scenario), so this
        // is a cheap bit scatter done once per block.
        out.dead_lanes.iter_mut().for_each(|x| *x = 0);
        out.sw_lanes.iter_mut().for_each(|x| *x = 0);
        out.stale_lanes.iter_mut().for_each(|x| *x = 0);
        for lane in 0..lanes {
            let s = start + lane;
            let bit = 1u64 << lane;
            for (wi, &w) in set.dead_links[s * set.lw..(s + 1) * set.lw]
                .iter()
                .enumerate()
            {
                let mut w = w;
                while w != 0 {
                    out.dead_lanes[wi * 64 + w.trailing_zeros() as usize] |= bit;
                    w &= w - 1;
                }
            }
            for (wi, &w) in set.failed_switches[s * set.nw..(s + 1) * set.nw]
                .iter()
                .enumerate()
            {
                let mut w = w;
                while w != 0 {
                    out.sw_lanes[wi * 64 + w.trailing_zeros() as usize] |= bit;
                    w &= w - 1;
                }
            }
            for (wi, &w) in set.stale[s * set.nw..(s + 1) * set.nw].iter().enumerate() {
                let mut w = w;
                while w != 0 {
                    out.stale_lanes[wi * 64 + w.trailing_zeros() as usize] |= bit;
                    w &= w - 1;
                }
            }
        }

        // Per-lane scratch, reused across flows.
        let mut total = [0.0f64; BLOCK_LANES];
        let mut tr = [0.0f64; BLOCK_LANES];
        let mut alive: Vec<u64> = Vec::new(); // per tunnel: lane bitmask

        for fl in &self.flows {
            let r = fl.rate;
            if r <= 0.0 {
                continue;
            }
            // Lane bitmasks: endpoint death, staleness.
            let ep_dead = (out.sw_lanes[fl.src as usize] | out.sw_lanes[fl.dst as usize]) & full;
            let stale_bits = out.stale_lanes[fl.src as usize] & full;
            // Pass 1: tunnel survival and residual weight totals.
            alive.clear();
            total[..lanes].iter_mut().for_each(|x| *x = 0.0);
            for t in &fl.tunnels {
                let mut dead = 0u64;
                for &l in &t.links {
                    dead |= out.dead_lanes[l as usize];
                }
                let bits = full & !dead;
                alive.push(bits);
                if bits == 0 {
                    continue;
                }
                if stale_bits == 0 {
                    let w = t.w_new;
                    for (lane, tot) in total[..lanes].iter_mut().enumerate() {
                        *tot += w * ((bits >> lane) & 1) as f64;
                    }
                } else {
                    for (lane, tot) in total[..lanes].iter_mut().enumerate() {
                        let w = if stale_bits >> lane & 1 == 1 {
                            t.w_old
                        } else {
                            t.w_new
                        };
                        *tot += w * ((bits >> lane) & 1) as f64;
                    }
                }
            }
            // Pass 2: split and accumulate. A lane is active when the
            // ingress/egress are up, the tunnel survives, and the
            // residual weights are not numerically zero. Links take only
            // *positive* traffic (the scalar path's `traffic > 0.0`
            // guard), so loads stay non-negative and the `+0.0` an
            // inactive or clamped lane contributes is a bitwise no-op:
            // accumulating whole rows keeps every lane bit-identical to
            // the scalar skip.
            for (t, &bits) in fl.tunnels.iter().zip(&alive) {
                let bits = bits & !ep_dead;
                if bits == 0 {
                    continue;
                }
                for (lane, slot) in tr[..lanes].iter_mut().enumerate() {
                    let tot = total[lane];
                    let on = (bits >> lane) & 1 == 1 && tot > 1e-12;
                    let w = if stale_bits >> lane & 1 == 1 {
                        t.w_old
                    } else {
                        t.w_new
                    };
                    let traffic = if on { r * w / tot } else { 0.0 };
                    *slot = if traffic > 0.0 { traffic } else { 0.0 };
                }
                for &l in &t.links {
                    let row = &mut out.load[l as usize * lanes..l as usize * lanes + lanes];
                    for (x, &t) in row.iter_mut().zip(&tr[..lanes]) {
                        *x += t;
                    }
                }
            }
        }
    }
}

/// Runs `f` over block indices `0..nblocks` on up to `workers` scoped
/// threads, returning results in block order. With `workers <= 1` (or a
/// single block) this degrades to a serial loop; outputs are identical
/// either way because blocks are merged by index.
fn par_blocks<R, F>(nblocks: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers.max(1).min(nblocks.max(1));
    if workers <= 1 || nblocks <= 1 {
        return (0..nblocks).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..nblocks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| {
                let mut got: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= nblocks {
                        return got;
                    }
                    got.push((i, f(i)));
                }
            }));
        }
        for h in handles {
            for (i, r) in h.join().expect("kernel worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("block not evaluated"))
        .collect()
}

/// Verdict of one evaluated block, pre-merge.
struct BlockVerdict {
    max_over: f64,
    /// `(scenario index, link, load, capacity)` in scalar check order.
    violations: Vec<(usize, LinkId, f64, f64)>,
}

/// The batched congestion-freedom phase of [`crate::certify::certify`]:
/// enumerates the protected scenario set, evaluates it block-wise on
/// `workers` threads, and folds verdicts into `cert` in the scalar
/// phase's deterministic order.
pub(crate) fn batched_scenario_phase(
    input: &CertInput<'_>,
    cert: &mut Certificate,
    workers: usize,
) {
    let topo = input.topo;
    let sources: Vec<NodeId> = {
        let set: BTreeSet<NodeId> = input.tm.iter().map(|(_, fl)| fl.src).collect();
        set.into_iter().collect()
    };
    let include_control = input.protection.kc > 0 && input.old_alloc.is_some();
    let set = ScenarioSet::enumerate_protection(
        topo,
        &sources,
        input.protection,
        include_control,
        input.max_scenarios,
    );
    cert.scenarios_checked = set.len;
    if set.truncated || (input.protection.kc > 0 && input.old_alloc.is_none()) {
        cert.exhaustive = false;
    }
    if set.len == 0 {
        return;
    }

    let eval = BatchEvaluator::new(
        topo,
        input.tm,
        input.tunnels,
        input.rate,
        input.alloc,
        input.old_alloc,
    );
    let unprotected: Vec<bool> = {
        let mut v = vec![false; topo.num_links()];
        for &l in input.unprotected_links {
            v[l.index()] = true;
        }
        v
    };
    let caps: Vec<f64> = topo.links().map(|e| topo.capacity(e)).collect();

    let nblocks = set.len.div_ceil(BLOCK_LANES);
    let verdicts = par_blocks(nblocks, workers, |b| {
        let start = b * BLOCK_LANES;
        let mut out = eval.block_buffer();
        eval.eval_block(&set, start, &mut out);
        let mut v = BlockVerdict {
            max_over: 0.0,
            violations: Vec::new(),
        };
        // Fast path: fold each link's contiguous lane row to its
        // maximum. Division by a positive capacity is monotone, so
        // `max(load) / cap` is bitwise the maximum of the per-lane
        // ratios; a dead link carries exactly +0.0 and cannot raise
        // either the maximum or a violation, so the scalar path's
        // dead-link skip needs no replay here.
        let mut violated = false;
        for (ei, (&cap, &unprot)) in caps.iter().zip(&unprotected).enumerate() {
            if unprot {
                continue;
            }
            let mut m = 0.0f64;
            for &l in &out.load[ei * out.lanes..(ei + 1) * out.lanes] {
                m = m.max(l);
            }
            if cap > 0.0 {
                v.max_over = v.max_over.max(m / cap);
            }
            if !within(m, cap) {
                violated = true;
            }
        }
        if violated {
            // Slow path (a rejected block): re-scan in the scalar
            // record order — scenario-major, link-minor.
            for lane in 0..out.lanes {
                let s = start + lane;
                for (ei, (&cap, &unprot)) in caps.iter().zip(&unprotected).enumerate() {
                    if unprot || set.link_dead(s, LinkId(ei)) {
                        continue;
                    }
                    let l = out.load[ei * out.lanes + lane];
                    if !within(l, cap) {
                        v.violations.push((s, LinkId(ei), l, cap));
                    }
                }
            }
        }
        v
    });

    // Deterministic merge in block order = scalar scenario order.
    for v in verdicts {
        cert.max_oversubscription = cert.max_oversubscription.max(v.max_over);
        for (s, e, l, cap) in v.violations {
            let sc = set.scenario(s);
            cert.record(format!(
                "scenario links={:?} switches={:?} stale={:?}: {e} carries {l:.6}/{cap:.6}",
                sc.failed_links, sc.failed_switches, sc.config_failures
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffc_net::prelude::*;

    fn diamond() -> (Topology, TrafficMatrix, TunnelTable) {
        let mut t = Topology::new();
        let ns = t.add_nodes(4, "s");
        t.add_link(ns[0], ns[1], 10.0); // e0
        t.add_link(ns[1], ns[3], 10.0); // e1
        t.add_link(ns[0], ns[2], 10.0); // e2
        t.add_link(ns[2], ns[3], 10.0); // e3
        let mut tm = TrafficMatrix::new();
        tm.add_flow(ns[0], ns[3], 8.0, Priority::High);
        let mk = |hops: &[NodeId]| {
            let links = hops
                .windows(2)
                .map(|w| t.find_link(w[0], w[1]).unwrap())
                .collect();
            Tunnel::from_path(&t, ffc_net::Path { links })
        };
        let mut tt = TunnelTable::new(1);
        tt.push(FlowId(0), mk(&[ns[0], ns[1], ns[3]]));
        tt.push(FlowId(0), mk(&[ns[0], ns[2], ns[3]]));
        (t, tm, tt)
    }

    /// Packs explicit scenarios in slice order.
    fn pack(topo: &Topology, scenarios: &[FaultScenario]) -> ScenarioSet {
        let mut set = ScenarioSet::empty(topo);
        let incident = ScenarioSet::incident_masks(topo);
        let (lw, nw) = (set.lw, set.nw);
        for sc in scenarios {
            let mut fl = vec![0u64; lw];
            let mut fs = vec![0u64; nw];
            let mut st = vec![0u64; nw];
            for &l in &sc.failed_links {
                fl[l.index() / 64] |= 1 << (l.index() % 64);
            }
            for &v in &sc.failed_switches {
                fs[v.index() / 64] |= 1 << (v.index() % 64);
            }
            for &v in &sc.config_failures {
                st[v.index() / 64] |= 1 << (v.index() % 64);
            }
            set.push_raw(&fl, &fs, &st, &incident);
        }
        set
    }

    #[test]
    fn pack_roundtrips_scenarios() {
        let (t, _, _) = diamond();
        let scenarios = vec![
            FaultScenario::none(),
            FaultScenario::links([LinkId(0), LinkId(3)]),
            FaultScenario::switches([NodeId(1)]),
            FaultScenario::config([NodeId(0)]),
        ];
        let set = pack(&t, &scenarios);
        assert_eq!(set.len, 4);
        for (i, sc) in scenarios.iter().enumerate() {
            assert_eq!(&set.scenario(i), sc, "scenario {i}");
            for e in t.links() {
                assert_eq!(set.link_dead(i, e), sc.link_dead(&t, e), "link {e} sc {i}");
            }
        }
    }

    #[test]
    fn switch_failure_deadens_incident_links() {
        let (t, _, _) = diamond();
        let set = pack(&t, &[FaultScenario::switches([NodeId(1)])]);
        // e0 (s0→s1) and e1 (s1→s3) are incident to s1.
        assert!(set.link_dead(0, LinkId(0)));
        assert!(set.link_dead(0, LinkId(1)));
        assert!(!set.link_dead(0, LinkId(2)));
        assert!(!set.link_dead(0, LinkId(3)));
    }

    #[test]
    fn enumeration_matches_scalar_order_and_budget() {
        let (t, tm, _) = diamond();
        let sources: Vec<NodeId> = {
            let s: std::collections::BTreeSet<NodeId> = tm.iter().map(|(_, fl)| fl.src).collect();
            s.into_iter().collect()
        };
        // ke=1, kv=1 over 4 links / 4 nodes: (1 + 4 links) × (1 + 4
        // switches) = 25 joint scenarios.
        let p = Protection::new(0, 1, 1);
        let set = ScenarioSet::enumerate_protection(&t, &sources, p, false, usize::MAX);
        assert_eq!(set.len, 25);
        assert!(!set.truncated);
        // First scenario is fault-free; second fails the first switch.
        assert_eq!(set.scenario(0), FaultScenario::none());
        assert_eq!(
            set.scenario(1),
            *FaultScenario::none().fail_switch(NodeId(0))
        );
        // Budget truncation mirrors the scalar certifier: stop *before*
        // evaluating the scenario that would exceed the budget.
        let capped = ScenarioSet::enumerate_protection(&t, &sources, p, false, 7);
        assert_eq!(capped.len, 7);
        assert!(capped.truncated);
        // Control scenarios: 1 source, kc=1 → one extra stale scenario.
        let pc = Protection::new(1, 0, 0);
        let with_ctl = ScenarioSet::enumerate_protection(&t, &sources, pc, true, usize::MAX);
        assert_eq!(with_ctl.len, 2);
        assert_eq!(with_ctl.scenario(1), FaultScenario::config([NodeId(0)]));
    }

    #[test]
    #[allow(clippy::identity_op, clippy::erasing_op)] // spell out link*lanes+lane indexing
    fn eval_block_matches_scalar_rescaling() {
        let (t, tm, tt) = diamond();
        let rate = [8.0];
        let alloc = [vec![5.0, 3.0]];
        let scenarios = vec![
            FaultScenario::none(),
            FaultScenario::links([LinkId(0)]),
            FaultScenario::switches([NodeId(3)]), // egress dead
            FaultScenario::links([LinkId(0), LinkId(2)]), // all tunnels dead
        ];
        let set = pack(&t, &scenarios);
        let eval = BatchEvaluator::new(&t, &tm, &tt, &rate, &alloc, None);
        let mut out = eval.block_buffer();
        eval.eval_block(&set, 0, &mut out);
        assert_eq!(out.lanes, 4);
        // Lane 0: fault-free split 5/3.
        assert_eq!(out.load[0 * 4 + 0], 5.0);
        assert_eq!(out.load[2 * 4 + 0], 3.0);
        // Lane 1: e0 dead, everything rescales onto the via-s2 tunnel.
        assert_eq!(out.load[0 * 4 + 1], 0.0);
        assert_eq!(out.load[2 * 4 + 1], 8.0);
        // Lane 2: egress dead; lane 3: both tunnels dead (empty
        // residual set) — no load anywhere.
        for e in 0..4 {
            assert_eq!(out.load[e * 4 + 2], 0.0);
            assert_eq!(out.load[e * 4 + 3], 0.0);
        }
    }

    #[test]
    fn stale_lane_uses_old_weights() {
        let (t, tm, tt) = diamond();
        let rate = [8.0];
        let alloc = [vec![8.0, 0.0]];
        let old = [vec![0.0, 8.0]];
        let set = pack(&t, &[FaultScenario::config([NodeId(0)])]);
        let eval = BatchEvaluator::new(&t, &tm, &tt, &rate, &alloc, Some(&old));
        let mut out = eval.block_buffer();
        eval.eval_block(&set, 0, &mut out);
        // Stale ingress splits the NEW rate by the OLD weights: all 8
        // units take the s2 path.
        assert_eq!(out.load[0], 0.0); // e0, lane 0 (lanes == 1)
        assert_eq!(out.load[2], 8.0); // e2
    }

    #[test]
    fn par_blocks_is_order_deterministic() {
        let serial = par_blocks(9, 1, |i| i * i);
        let parallel = par_blocks(9, 4, |i| i * i);
        assert_eq!(serial, parallel);
        assert_eq!(serial, (0..9).map(|i| i * i).collect::<Vec<_>>());
        assert!(par_blocks(0, 4, |i| i).is_empty());
    }
}
