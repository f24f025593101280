//! Loss accounting (§8.1 "Metrics"): blackhole losses (traffic sent
//! into dead tunnels before ingresses rescale) and congestion losses
//! (link oversubscription × duration), optionally split by priority
//! with priority queueing (lower priorities dropped first, §8.4).

use ffc_core::rescale::{rescale_split, RescaledLoads};
use ffc_core::te::TeConfig;
use ffc_net::{FaultScenario, Priority, Topology, TrafficMatrix, TunnelTable};

/// Per-priority volumes (indexed like [`Priority::ALL`]).
pub type PerPriority = [f64; 3];

/// Index of a priority in [`Priority::ALL`].
pub fn pidx(p: Priority) -> usize {
    match p {
        Priority::High => 0,
        Priority::Medium => 1,
        Priority::Low => 2,
    }
}

/// Per-link loads broken down by priority.
#[derive(Debug, Clone)]
pub struct PriorityLoads {
    /// `load[e][p]` = traffic of priority `p` arriving at link `e`.
    pub load: Vec<PerPriority>,
    /// Traffic each flow injects.
    pub sent: Vec<f64>,
    /// Blackholed rate per priority (flows with no residual tunnels).
    pub blackholed: PerPriority,
}

/// Computes per-link, per-priority loads under a fault scenario,
/// mirroring [`ffc_core::rescale::rescaled_link_loads_mixed`].
pub fn priority_link_loads(
    topo: &Topology,
    tm: &TrafficMatrix,
    tunnels: &TunnelTable,
    cfg: &TeConfig,
    old: Option<&TeConfig>,
    scenario: &FaultScenario,
) -> PriorityLoads {
    let mut load = vec![[0.0; 3]; topo.num_links()];
    let mut sent = vec![0.0; tm.len()];
    let mut blackholed = [0.0; 3];

    for (f, flow) in tm.iter() {
        let fi = f.index();
        let rate = cfg.rate[fi];
        if rate <= 0.0 {
            continue;
        }
        let p = pidx(flow.priority);
        if scenario.failed_switches.contains(&flow.src)
            || scenario.failed_switches.contains(&flow.dst)
        {
            blackholed[p] += rate;
            continue;
        }
        let ts = tunnels.tunnels(f);
        let weights = if scenario.config_failures.contains(&flow.src) {
            old.expect("config failures need an old config").weights(f)
        } else {
            cfg.weights(f)
        };
        let residual = scenario.residual_tunnels(topo, ts);
        if residual.is_empty() {
            blackholed[p] += rate;
            continue;
        }
        let split = rescale_split(&weights, &residual, rate);
        sent[fi] = split.iter().sum();
        // Shortfall against the granted rate is dropped at the ingress
        // (e.g. a stale switch with no forwarding entries for the flow).
        blackholed[p] += rate - sent[fi];
        for (ti, &traffic) in split.iter().enumerate() {
            if traffic > 0.0 {
                for &l in &ts[ti].links {
                    load[l.index()][p] += traffic;
                }
            }
        }
    }
    PriorityLoads {
        load,
        sent,
        blackholed,
    }
}

impl PriorityLoads {
    /// Total load per link.
    pub fn total(&self, e: usize) -> f64 {
        self.load[e].iter().sum()
    }

    /// Per-priority *drop rates* under priority queueing: each link
    /// serves High first, then Medium, then Low; the overflow is
    /// dropped. Returns drop rate (traffic volume per unit time) per
    /// priority, summed over links.
    pub fn congestion_drops(&self, topo: &Topology) -> PerPriority {
        let mut drops = [0.0; 3];
        for e in topo.links() {
            let cap = topo.capacity(e);
            let l = &self.load[e.index()];
            let mut remaining = cap;
            for p in 0..3 {
                let served = l[p].min(remaining);
                drops[p] += l[p] - served;
                remaining -= served;
            }
        }
        drops
    }

    /// Aggregate (priority-blind) loads.
    pub fn collapse(&self) -> RescaledLoads {
        RescaledLoads {
            load: self.load.iter().map(|l| l.iter().sum()).collect(),
            sent: self.sent.clone(),
            blackholed: self.blackholed.iter().sum(),
        }
    }
}

/// Per-priority congestion loss volume for a segment.
pub fn priority_congestion_loss(
    topo: &Topology,
    loads: &PriorityLoads,
    duration: f64,
) -> PerPriority {
    let d = loads.congestion_drops(topo);
    [d[0] * duration, d[1] * duration, d[2] * duration]
}

/// The traffic rate a configuration currently sends into tunnels that
/// `scenario` kills (the rate blackholed until ingresses rescale).
pub fn rate_on_dead_tunnels(
    topo: &Topology,
    tm: &TrafficMatrix,
    tunnels: &TunnelTable,
    cfg: &TeConfig,
    scenario: &FaultScenario,
) -> f64 {
    let mut dead = 0.0;
    for (f, _) in tm.iter() {
        let fi = f.index();
        let rate = cfg.rate[fi];
        if rate <= 0.0 {
            continue;
        }
        let w = cfg.weights(f);
        for (ti, t) in tunnels.tunnels(f).iter().enumerate() {
            if scenario.kills_tunnel(topo, t) {
                dead += rate * w[ti];
            }
        }
    }
    dead
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffc_net::prelude::*;

    fn setup() -> (Topology, TrafficMatrix, TunnelTable, TeConfig) {
        let mut t = Topology::new();
        let ns = t.add_nodes(3, "s");
        t.add_link(ns[0], ns[2], 10.0);
        t.add_link(ns[1], ns[2], 10.0);
        let mut tm = TrafficMatrix::new();
        tm.add_flow(ns[0], ns[2], 8.0, Priority::High);
        tm.add_flow(ns[1], ns[2], 8.0, Priority::Low);
        let mk = |a: NodeId, b: NodeId| {
            Tunnel::from_path(
                &t,
                ffc_net::Path {
                    links: vec![t.find_link(a, b).unwrap()],
                },
            )
        };
        let mut tt = TunnelTable::new(2);
        tt.push(FlowId(0), mk(ns[0], ns[2]));
        tt.push(FlowId(1), mk(ns[1], ns[2]));
        let cfg = TeConfig {
            rate: vec![8.0, 8.0],
            alloc: vec![vec![8.0], vec![8.0]],
        };
        (t, tm, tt, cfg)
    }

    #[test]
    fn per_priority_loads_split() {
        let (t, tm, tt, cfg) = setup();
        let loads = priority_link_loads(&t, &tm, &tt, &cfg, None, &FaultScenario::none());
        assert_eq!(loads.load[0][pidx(Priority::High)], 8.0);
        assert_eq!(loads.load[0][pidx(Priority::Low)], 0.0);
        assert_eq!(loads.load[1][pidx(Priority::Low)], 8.0);
        assert_eq!(loads.blackholed, [0.0; 3]);
    }

    #[test]
    fn priority_queueing_drops_low_first() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        t.add_link(a, b, 10.0);
        let mut tm = TrafficMatrix::new();
        tm.add_flow(a, b, 7.0, Priority::High);
        tm.add_flow(a, b, 6.0, Priority::Low);
        let mk = || {
            Tunnel::from_path(
                &t,
                ffc_net::Path {
                    links: vec![LinkId(0)],
                },
            )
        };
        let mut tt = TunnelTable::new(2);
        tt.push(FlowId(0), mk());
        tt.push(FlowId(1), mk());
        let cfg = TeConfig {
            rate: vec![7.0, 6.0],
            alloc: vec![vec![7.0], vec![6.0]],
        };
        let loads = priority_link_loads(&t, &tm, &tt, &cfg, None, &FaultScenario::none());
        let drops = loads.congestion_drops(&t);
        // 13 offered on 10: high fully served, low loses 3.
        assert_eq!(drops[pidx(Priority::High)], 0.0);
        assert_eq!(drops[pidx(Priority::Low)], 3.0);
        // High overload alone also drops high.
        let cfg2 = TeConfig {
            rate: vec![12.0, 0.0],
            alloc: vec![vec![12.0], vec![0.0]],
        };
        let loads2 = priority_link_loads(&t, &tm, &tt, &cfg2, None, &FaultScenario::none());
        let drops2 = loads2.congestion_drops(&t);
        assert_eq!(drops2[pidx(Priority::High)], 2.0);
    }

    #[test]
    fn dead_tunnel_rate() {
        let (t, tm, tt, cfg) = setup();
        let sc = FaultScenario::links([LinkId(0)]);
        let dead = rate_on_dead_tunnels(&t, &tm, &tt, &cfg, &sc);
        assert_eq!(dead, 8.0);
    }

    #[test]
    fn collapse_matches_totals() {
        let (t, tm, tt, cfg) = setup();
        let loads = priority_link_loads(&t, &tm, &tt, &cfg, None, &FaultScenario::none());
        let flat = loads.collapse();
        for e in t.links() {
            assert!((flat.load[e.index()] - loads.total(e.index())).abs() < 1e-12);
        }
    }
}
