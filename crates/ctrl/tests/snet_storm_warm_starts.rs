//! Regression guard for warm fault re-solves, on the real input: the
//! S-Net paper instance with 4 tunnels per flow at protection (0,1,0),
//! ±5 % demand jitter from seed 1, and one physical link (both
//! directions) down every 4th interval and back up 2 intervals later —
//! the repo benchmark's `snet_storm`, 29 intervals.
//!
//! 4 of its 28 warm re-solves — the repair intervals 3, 7, 11 and 23 —
//! start from a basis that prices a released tunnel column (now
//! `[0, ∞)`) at a sign no bound flip fixes. While such a start went to
//! the primal repair, and the repair gave up after three rounds, two of
//! them crash-started at 3 711 and 3 875 iterations: 12 299 iterations
//! over the run. The dual now starts those on shifted costs and keeps
//! the hint, so every warm solve is a dual start and the run takes
//! 4 598.

use ffc_core::{CacheStats, FfcConfig};
use ffc_ctrl::{
    generate_poisson_events, Controller, ControllerConfig, Event, IntervalSink, IntervalTelemetry,
    PlanOutcome, SolvePath, TimedEvent,
};
use ffc_net::{layout_tunnels, LayoutConfig, LinkId};
use ffc_sim::{FaultModel, SwitchModel};
use ffc_topo::{calibrate_scale, gravity_trace, snet, TrafficConfig};

const INTERVALS: usize = 29;
const SEED: u64 = 1;
/// The instance seed the benchmark builds every workload from, plus
/// `snet_storm`'s offset.
const TRAFFIC_SEED: u64 = 44;
const TUNNELS: usize = 4;
const PERIOD: usize = 4;
const REPAIR: usize = 2;
const JITTER: f64 = 0.05;

/// What the plan stage reported per interval, and the records.
#[derive(Default)]
struct Seen {
    plans: Vec<PlanOutcome>,
    records: Vec<IntervalTelemetry>,
}

impl IntervalSink for Seen {
    fn record(&mut self, telemetry: &IntervalTelemetry, _link_util: &[f64]) {
        self.records.push(telemetry.clone());
    }

    fn planned(&mut self, outcome: &PlanOutcome, _model: CacheStats) {
        self.plans.push(outcome.clone());
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "29 S-Net fault re-solves take minutes unoptimized; run with --release"
)]
fn snet_storm_fault_resolves_keep_their_hint() {
    // The paper instance (§8.1): a single-priority gravity matrix at 5 %
    // of capacity, calibrated so plain TE satisfies 99 % of it.
    let net = snet();
    let traffic = TrafficConfig {
        mean_total: net.topo.total_capacity() * 0.05,
        priority_split: (1.0, 0.0),
        seed: TRAFFIC_SEED,
        ..TrafficConfig::default()
    };
    let tm = gravity_trace(&net, &traffic, 1).intervals.swap_remove(0);
    let layout = LayoutConfig {
        tunnels_per_flow: TUNNELS,
        ..LayoutConfig::default()
    };
    let tunnels = layout_tunnels(&net.topo, &tm, &layout);
    let tm = tm.scale(calibrate_scale(&net.topo, &tm, &tunnels, 0.99));
    let topo = net.topo;

    let mut cfg = ControllerConfig::new(FfcConfig::new(0, 1, 0), SwitchModel::Realistic);
    cfg.seed = SEED;
    let mut events = generate_poisson_events(
        &topo,
        &FaultModel::none(),
        SEED,
        INTERVALS,
        cfg.interval_secs,
        JITTER,
    );
    // The storm: the physical links in index order, one every PERIOD
    // intervals from interval 1, each repaired REPAIR intervals later.
    let physical: Vec<[LinkId; 2]> = topo
        .links()
        .filter(|&l| topo.link(l).src < topo.link(l).dst)
        .filter_map(|l| Some([l, topo.find_link(topo.link(l).dst, topo.link(l).src)?]))
        .collect();
    for (pair, down) in physical.iter().zip((1..INTERVALS - REPAIR).step_by(PERIOD)) {
        for &l in pair {
            events.push(TimedEvent {
                interval: down,
                event: Event::LinkDown(l),
            });
            events.push(TimedEvent {
                interval: down + REPAIR,
                event: Event::LinkUp(l),
            });
        }
    }
    events.sort_by_key(|te| te.interval);

    let mut seen = Seen::default();
    let report = Controller::new(&topo, &tunnels, cfg).run_with_sink(
        &tm,
        &events,
        INTERVALS,
        false,
        Some(&mut seen),
    );
    assert_eq!(report.telemetry.len(), INTERVALS);
    assert_eq!(seen.plans.len(), INTERVALS);

    // Every hinted solve seeds its start with the hint and restarts
    // in the dual simplex; only the first interval is cold.
    for (i, outcome) in seen.plans.iter().enumerate() {
        if outcome.path == SolvePath::Cold {
            assert_eq!(i, 0, "interval {i} solved cold");
            continue;
        }
        let stats = outcome.stats.expect("every interval solved");
        assert!(stats.hint_used, "interval {i} crash-started: {stats:?}");
        assert_eq!(outcome.path, SolvePath::WarmDual, "interval {i}: {stats:?}");
        assert_eq!(stats.phase1_iterations, 0, "interval {i}: {stats:?}");
    }
    let iterations: usize = seen.records.iter().map(|t| t.iterations).sum();
    assert!(iterations < 6_000, "{iterations} simplex iterations");

    // No interval fails the way the benchmark counts a failure, and
    // every installed config is certified.
    for t in &seen.records {
        assert!(!t.rolled_back && !t.degraded, "interval {}", t.interval);
        assert!(
            !matches!(t.path, SolvePath::Infeasible | SolvePath::LimitExceeded),
            "interval {}: {:?}",
            t.interval,
            t.path
        );
        assert_eq!(t.certificate, "certified", "interval {}", t.interval);
    }
}
