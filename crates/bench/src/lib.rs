//! Shared experiment scaffolding for the reproduction harness: the two
//! evaluation networks (L-Net and S-Net, §8.1) with calibrated traffic
//! traces and `(1,3)`-disjoint tunnel layouts, reused by the `repro`
//! binary and the release-only regression test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ffc_net::{layout_tunnels, LayoutConfig, TunnelTable};
use ffc_topo::{
    calibrate_scale, gravity_trace, lnet, snet, LNetConfig, SiteNetwork, TrafficConfig,
    TrafficTrace,
};

/// A ready-to-run evaluation instance.
pub struct Instance {
    /// Display name ("L-Net" / "S-Net").
    pub name: &'static str,
    /// The network.
    pub net: SiteNetwork,
    /// The traffic trace at **traffic scale 1** (calibrated so plain TE
    /// satisfies 99% of demand in the first interval, §8.1).
    pub trace: TrafficTrace,
    /// The `(1,3)`-disjoint, 6-tunnels-per-flow layout (§8.1).
    pub tunnels: TunnelTable,
}

impl Instance {
    /// The trace at one of the paper's traffic scales (0.5 / 1 / 2).
    pub fn trace_at(&self, scale: f64) -> TrafficTrace {
        self.trace.scale(scale)
    }
}

/// The paper's tunnel layout: six (1,3) link-switch disjoint tunnels.
pub fn paper_layout() -> LayoutConfig {
    LayoutConfig {
        tunnels_per_flow: 6,
        p: 1,
        q: 3,
        reuse_penalty: 0.4,
    }
}

fn build_instance(
    name: &'static str,
    net: SiteNetwork,
    seed: u64,
    intervals: usize,
    priority_split: (f64, f64),
) -> Instance {
    let cfg = TrafficConfig {
        mean_total: net.topo.total_capacity() * 0.05,
        priority_split,
        seed,
        ..TrafficConfig::default()
    };
    let trace = gravity_trace(&net, &cfg, intervals);
    let tunnels = layout_tunnels(&net.topo, &trace.intervals[0], &paper_layout());
    // Calibrate so 99% of interval-0 demand is satisfiable ("scale 1").
    let s = calibrate_scale(&net.topo, &trace.intervals[0], &tunnels, 0.99);
    let trace = trace.scale(s);
    Instance {
        name,
        net,
        trace,
        tunnels,
    }
}

/// The (scaled-down, see `ffc_topo::lnet`) L-Net instance with a
/// single-priority trace.
pub fn lnet_instance(seed: u64, intervals: usize) -> Instance {
    build_instance(
        "L-Net",
        lnet(&LNetConfig {
            seed,
            ..LNetConfig::default()
        }),
        seed.wrapping_add(1),
        intervals,
        (1.0, 0.0),
    )
}

/// The S-Net (B4) instance with a single-priority trace.
pub fn snet_instance(seed: u64, intervals: usize) -> Instance {
    build_instance("S-Net", snet(), seed.wrapping_add(2), intervals, (1.0, 0.0))
}

/// L-Net with the three-priority split of §8.4 (10% high / 30% medium /
/// 60% low).
pub fn lnet_multi_priority(seed: u64, intervals: usize) -> Instance {
    build_instance(
        "L-Net",
        lnet(&LNetConfig {
            seed,
            ..LNetConfig::default()
        }),
        seed.wrapping_add(3),
        intervals,
        (0.1, 0.3),
    )
}

/// S-Net with the three-priority split.
pub fn snet_multi_priority(seed: u64, intervals: usize) -> Instance {
    build_instance("S-Net", snet(), seed.wrapping_add(4), intervals, (0.1, 0.3))
}

/// Full-scale L-Net (50 sites / 100 switches / ~1000 links) for solver
/// benchmarking (Table 2's large case).
pub fn lnet_full_instance(seed: u64, intervals: usize) -> Instance {
    build_instance(
        "L-Net(full)",
        lnet(&LNetConfig {
            seed,
            ..LNetConfig::full()
        }),
        seed.wrapping_add(5),
        intervals,
        (1.0, 0.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffc_core::{solve_te, TeProblem};

    #[test]
    fn instances_are_calibrated() {
        for inst in [lnet_instance(42, 2), snet_instance(42, 2)] {
            let tm = &inst.trace.intervals[0];
            let cfg = solve_te(TeProblem::new(&inst.net.topo, tm, &inst.tunnels)).unwrap();
            let frac = cfg.throughput() / tm.total_demand();
            assert!(
                frac > 0.97 && frac <= 1.0 + 1e-9,
                "{}: satisfaction {frac}",
                inst.name
            );
        }
    }

    #[test]
    fn layout_is_1_3_disjoint() {
        let inst = snet_instance(42, 1);
        for f in inst.trace.intervals[0].ids() {
            let d = inst.tunnels.disjointness(f);
            assert!(d.p <= 1, "flow {f} has p={}", d.p);
            assert!(d.q <= 3, "flow {f} has q={}", d.q);
        }
    }

    #[test]
    fn multi_priority_split_present() {
        use ffc_net::Priority;
        let inst = lnet_multi_priority(42, 1);
        let tm = &inst.trace.intervals[0];
        assert!(tm.demand_of(Priority::High) > 0.0);
        assert!(tm.demand_of(Priority::Medium) > 0.0);
        assert!(tm.demand_of(Priority::Low) > tm.demand_of(Priority::High));
    }
}
