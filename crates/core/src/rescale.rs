//! Proportional rescaling after data-plane faults, and post-fault link
//! loads under combined data/control-plane fault scenarios (paper §2.1).
//!
//! When tunnels die, the ingress switch re-splits the flow's traffic over
//! the *residual* tunnels in proportion to the configured weights: with
//! weights `(0.5, 0.3, 0.2)` and tunnel 3 dead, the survivors carry
//! `(0.5/0.8, 0.3/0.8, 0)`. OpenFlow group tables implement this.
//!
//! Control-plane faults are modeled per §4.2: a switch whose
//! configuration update failed keeps its *old* splitting weights, while
//! rate limiters (end hosts) are assumed updated — so a stale ingress
//! sends the *new* rate through the *old* weights. (Stale rate limiters
//! are modeled separately; see [`crate::rate_limiter`].)

use ffc_net::{FaultScenario, Topology, TrafficMatrix, TunnelTable};

use crate::te::TeConfig;

/// Per-link loads and per-flow delivery after a fault scenario.
#[derive(Debug, Clone)]
pub struct RescaledLoads {
    /// Traffic arriving at each link (dead links carry 0).
    pub load: Vec<f64>,
    /// Traffic each flow manages to inject (0 if all tunnels died or an
    /// endpoint failed).
    pub sent: Vec<f64>,
    /// Traffic that is blackholed because a flow lost every tunnel
    /// (`Σ_f rate_f − sent_f`).
    pub blackholed: f64,
}

impl RescaledLoads {
    /// Oversubscription of a link: traffic above capacity, `≥ 0`.
    pub fn oversubscription(&self, topo: &Topology) -> Vec<f64> {
        topo.links()
            .map(|e| (self.load[e.index()] - topo.capacity(e)).max(0.0))
            .collect()
    }

    /// The maximum relative oversubscription across links, as a fraction
    /// of capacity (the metric of the paper's Figure 1).
    pub fn max_oversubscription_ratio(&self, topo: &Topology) -> f64 {
        topo.links()
            .map(|e| (self.load[e.index()] - topo.capacity(e)).max(0.0) / topo.capacity(e))
            .fold(0.0, f64::max)
    }
}

/// Splits `rate` over the residual tunnels proportionally to `weights`.
///
/// Returns per-tunnel traffic (0 for dead tunnels). If every residual
/// weight is (numerically) zero the switch has **no forwarding share**
/// for the surviving tunnels — OpenFlow group buckets with weight 0
/// receive no traffic — so nothing is sent (the caller accounts the
/// shortfall as blackholed). An even-split fallback here would invent
/// traffic on links the FFC constraints never promised to cover.
pub fn rescale_split(weights: &[f64], residual: &[usize], rate: f64) -> Vec<f64> {
    let mut out = vec![0.0; weights.len()];
    if residual.is_empty() || rate <= 0.0 {
        return out;
    }
    let total: f64 = residual.iter().map(|&i| weights[i]).sum();
    if total > 1e-12 {
        for &i in residual {
            out[i] = rate * weights[i] / total;
        }
    }
    out
}

/// Computes per-link loads after `scenario`, with every ingress applying
/// the *new* configuration `cfg` (stale switches per the scenario's
/// `config_failures` use `old` weights instead) and rescaling around
/// data-plane faults.
///
/// `old` is required only when the scenario contains config failures;
/// pass `None` otherwise.
pub fn rescaled_link_loads_mixed(
    topo: &Topology,
    tm: &TrafficMatrix,
    tunnels: &TunnelTable,
    cfg: &TeConfig,
    old: Option<&TeConfig>,
    scenario: &FaultScenario,
) -> RescaledLoads {
    let mut load = vec![0.0; topo.num_links()];
    let mut sent = vec![0.0; tm.len()];
    let mut blackholed = 0.0;

    for (f, flow) in tm.iter() {
        let fi = f.index();
        let rate = cfg.rate[fi];
        if rate <= 0.0 {
            continue;
        }
        // Endpoint death kills the flow at the source.
        if scenario.failed_switches.contains(&flow.src)
            || scenario.failed_switches.contains(&flow.dst)
        {
            blackholed += rate;
            continue;
        }
        let ts = tunnels.tunnels(f);
        let weights = if scenario.config_failures.contains(&flow.src) {
            let old = old.expect("scenario has config failures but no old config given");
            old.weights(f)
        } else {
            cfg.weights(f)
        };
        let residual = scenario.residual_tunnels(topo, ts);
        if residual.is_empty() {
            blackholed += rate;
            continue;
        }
        let split = rescale_split(&weights, &residual, rate);
        sent[fi] = split.iter().sum();
        // A stale/degenerate weight vector may deliver less than the
        // granted rate; the shortfall is dropped at the ingress.
        blackholed += rate - sent[fi];
        for (ti, &traffic) in split.iter().enumerate() {
            if traffic > 0.0 {
                for &l in &ts[ti].links {
                    load[l.index()] += traffic;
                }
            }
        }
    }
    RescaledLoads {
        load,
        sent,
        blackholed,
    }
}

/// [`rescaled_link_loads_mixed`] for data-plane-only scenarios.
pub fn rescaled_link_loads(
    topo: &Topology,
    tm: &TrafficMatrix,
    tunnels: &TunnelTable,
    cfg: &TeConfig,
    scenario: &FaultScenario,
) -> RescaledLoads {
    debug_assert!(scenario.config_failures.is_empty());
    rescaled_link_loads_mixed(topo, tm, tunnels, cfg, None, scenario)
}

/// Convenience: loads when a given set of ingresses is stale (control
/// faults only, no data-plane faults).
pub fn stale_link_loads(
    topo: &Topology,
    tm: &TrafficMatrix,
    tunnels: &TunnelTable,
    cfg: &TeConfig,
    old: &TeConfig,
    stale: &[ffc_net::NodeId],
) -> RescaledLoads {
    let scenario = FaultScenario::config(stale.iter().copied());
    rescaled_link_loads_mixed(topo, tm, tunnels, cfg, Some(old), &scenario)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffc_net::prelude::*;

    #[test]
    fn rescale_split_proportions() {
        // The paper's §2.1 example: weights (0.5, 0.3, 0.2), tunnel 2
        // dies -> (0.5/0.8, 0.3/0.8, 0).
        let split = rescale_split(&[0.5, 0.3, 0.2], &[0, 1], 8.0);
        assert!((split[0] - 5.0).abs() < 1e-9);
        assert!((split[1] - 3.0).abs() < 1e-9);
        assert_eq!(split[2], 0.0);
    }

    #[test]
    fn rescale_split_zero_residual_weights_sends_nothing() {
        // The surviving tunnels have zero configured weight: group
        // buckets with weight 0 forward nothing.
        let split = rescale_split(&[0.0, 0.0, 0.5], &[0, 1], 4.0);
        assert_eq!(split, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn rescale_split_empty_residual() {
        let split = rescale_split(&[0.5, 0.5], &[], 4.0);
        assert_eq!(split, vec![0.0, 0.0]);
    }

    fn fig2_like() -> (Topology, TrafficMatrix, TunnelTable, TeConfig) {
        let mut t = Topology::new();
        let ns = t.add_nodes(3, "s");
        t.add_link(ns[0], ns[2], 10.0); // direct
        t.add_link(ns[0], ns[1], 10.0);
        t.add_link(ns[1], ns[2], 10.0); // via
        let mut tm = TrafficMatrix::new();
        tm.add_flow(ns[0], ns[2], 8.0, Priority::High);
        let mk = |hops: &[NodeId]| {
            let links = hops
                .windows(2)
                .map(|w| t.find_link(w[0], w[1]).unwrap())
                .collect();
            Tunnel::from_path(&t, ffc_net::Path { links })
        };
        let mut tt = TunnelTable::new(1);
        tt.push(FlowId(0), mk(&[ns[0], ns[2]]));
        tt.push(FlowId(0), mk(&[ns[0], ns[1], ns[2]]));
        let cfg = TeConfig {
            rate: vec![8.0],
            alloc: vec![vec![6.0, 2.0]],
        };
        (t, tm, tt, cfg)
    }

    #[test]
    fn no_fault_loads_match_weights() {
        let (t, tm, tt, cfg) = fig2_like();
        let loads = rescaled_link_loads(&t, &tm, &tt, &cfg, &FaultScenario::none());
        assert!((loads.load[0] - 6.0).abs() < 1e-9);
        assert!((loads.load[1] - 2.0).abs() < 1e-9);
        assert!((loads.load[2] - 2.0).abs() < 1e-9);
        assert_eq!(loads.blackholed, 0.0);
        assert!((loads.sent[0] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn link_failure_moves_traffic() {
        let (t, tm, tt, cfg) = fig2_like();
        let scenario = FaultScenario::links([LinkId(0)]);
        let loads = rescaled_link_loads(&t, &tm, &tt, &cfg, &scenario);
        assert_eq!(loads.load[0], 0.0);
        assert!((loads.load[1] - 8.0).abs() < 1e-9);
        assert!((loads.load[2] - 8.0).abs() < 1e-9);
        assert_eq!(loads.blackholed, 0.0);
    }

    #[test]
    fn all_tunnels_dead_blackholes() {
        let (t, tm, tt, cfg) = fig2_like();
        let scenario = FaultScenario::links([LinkId(0), LinkId(2)]);
        let loads = rescaled_link_loads(&t, &tm, &tt, &cfg, &scenario);
        assert!((loads.blackholed - 8.0).abs() < 1e-9);
        assert_eq!(loads.sent[0], 0.0);
    }

    #[test]
    fn endpoint_switch_failure_blackholes() {
        let (t, tm, tt, cfg) = fig2_like();
        let dst = NodeId(2);
        let scenario = FaultScenario::switches([dst]);
        let loads = rescaled_link_loads(&t, &tm, &tt, &cfg, &scenario);
        assert!((loads.blackholed - 8.0).abs() < 1e-9);
    }

    #[test]
    fn stale_ingress_uses_old_weights() {
        let (t, tm, tt, cfg) = fig2_like();
        let old = TeConfig {
            rate: vec![8.0],
            alloc: vec![vec![0.0, 8.0]],
        }; // all via
        let loads = stale_link_loads(&t, &tm, &tt, &cfg, &old, &[NodeId(0)]);
        // Stale s0 splits the NEW rate 8 by OLD weights (0, 1).
        assert_eq!(loads.load[0], 0.0);
        assert!((loads.load[1] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn oversubscription_metrics() {
        let (t, tm, tt, _) = fig2_like();
        // Force 15 units over the 10-capacity direct link.
        let cfg = TeConfig {
            rate: vec![15.0],
            alloc: vec![vec![15.0, 0.0]],
        };
        let loads = rescaled_link_loads(&t, &tm, &tt, &cfg, &FaultScenario::none());
        let over = loads.oversubscription(&t);
        assert!((over[0] - 5.0).abs() < 1e-9);
        assert!((loads.max_oversubscription_ratio(&t) - 0.5).abs() < 1e-9);
    }
}
