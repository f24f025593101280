//! Regression guard for the planner's standing §6 mice set, on the real
//! input: the committed S-Net day campaign, intervals 90–186 (the
//! flash crowd and the link flap, the window the repo's benchmark runs)
//! under per-flow demand noise seed 1, driven through `Controller` at
//! (1,1,0).
//!
//! The mice set there is 2 of 86 flows, and the second- and
//! third-smallest flows trade places under the noise in 40 of the 96
//! intervals. While the build re-derived the greedy set from every
//! demand sample, each swap was a `MiceSetChanged` rebuild that also
//! orphaned the chained basis: 43 rebuilds and 50 521 simplex iterations
//! over the window. With the set standing while it qualifies, and every
//! tunnel in the standing model's β support (so a tunnel the installed
//! config starts or stops using is a coefficient patch: interval 1 off
//! the zero config, the link flap's 258 → 256 → 258 used tunnels), two
//! rebuilds are left: the initial build, and — once, at interval 79 — a
//! standing pair whose share really did grow past 1 % of the falling
//! evening demand (0.8512 against 0.8503), replaced by another pair.
//!
//! The two pairs' blocks are the same size, so the old basis has the
//! rebuilt model's column count but sits on the wrong columns: loaded
//! as it is, it factorizes singular and the solve goes cold (≈ 690
//! iterations). The planner instead carries it across by block — every
//! column and row outside the four flipped flows' blocks keeps its
//! status, the new blocks start slack-basic — and completes it to a
//! nonsingular start, so interval 79 restarts from its hint in ≈ 30
//! dual iterations. Interval 0 is the one cold solve: 731 iterations
//! over the window, every interval after the first off its hint.
use ffc_core::{CacheStats, FfcConfig, RebuildReason};
use ffc_ctrl::{
    Controller, ControllerConfig, IntervalSink, IntervalTelemetry, PlanOutcome, SolvePath,
};
use ffc_fleet::{build_topology, build_workload, demand_events, FleetEvent, FleetSpec};
use ffc_net::{layout_tunnels, LayoutConfig};
use ffc_sim::SwitchModel;

const SPEC: &str = include_str!("../../../examples/data/snet-day.fleet.toml");
const FIRST: usize = 90;
const INTERVALS: usize = 96;
const NOISE_SEED: u64 = 1;

/// What the plan stage reported per interval, and the records.
#[derive(Default)]
struct Seen {
    plans: Vec<(PlanOutcome, CacheStats)>,
    records: Vec<IntervalTelemetry>,
}

impl IntervalSink for Seen {
    fn record(&mut self, telemetry: &IntervalTelemetry, _link_util: &[f64]) {
        self.records.push(telemetry.clone());
    }

    fn planned(&mut self, outcome: &PlanOutcome, model: CacheStats) {
        self.plans.push((outcome.clone(), model));
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "96 S-Net (1,1,0) intervals take minutes unoptimized; run with --release"
)]
fn snet_day_window_keeps_its_mice_set_and_its_basis() {
    // The window of the campaign, as the benchmark's `snet_day` cuts it:
    // site populations from the committed seed, noise from `NOISE_SEED`.
    let mut spec = FleetSpec::parse(SPEC).expect("committed spec");
    let net = build_topology(&spec);
    spec.sites = build_workload(&spec, &net).expect("workload").sites;
    spec.events.retain(|ev| match *ev {
        FleetEvent::FlashCrowd { .. } => true,
        FleetEvent::LinkDown { at, .. }
        | FleetEvent::LinkUp { at, .. }
        | FleetEvent::SwitchDown { at, .. }
        | FleetEvent::SwitchUp { at, .. } => at < FIRST + INTERVALS,
    });
    spec.intervals = FIRST + INTERVALS;
    spec.seed = NOISE_SEED;
    let wl = build_workload(&spec, &net).expect("workload");
    let mut events = demand_events(&spec, &wl, &net).expect("events");
    events.retain(|te| te.interval >= FIRST);
    for te in &mut events {
        te.interval -= FIRST;
    }
    let layout = LayoutConfig {
        tunnels_per_flow: spec.tunnels_per_flow,
        ..LayoutConfig::default()
    };
    let tunnels = layout_tunnels(&net.topo, &wl.base_tm, &layout);
    assert_eq!(spec.protection, (1, 1, 0));
    let mut cfg = ControllerConfig::new(FfcConfig::new(1, 1, 0), SwitchModel::Realistic);
    cfg.seed = NOISE_SEED;
    cfg.interval_secs = spec.interval_secs;

    let mut seen = Seen::default();
    let report = Controller::new(&net.topo, &tunnels, cfg).run_with_sink(
        &wl.base_tm,
        &events,
        INTERVALS,
        false,
        Some(&mut seen),
    );
    assert_eq!(report.telemetry.len(), INTERVALS);
    assert_eq!(seen.plans.len(), INTERVALS);

    // The tally, by reason.
    let (_, tally) = seen.plans.last().expect("intervals ran");
    assert_eq!(tally.rebuilds_for(RebuildReason::Initial), 1, "{tally:?}");
    assert_eq!(
        tally.rebuilds_for(RebuildReason::MiceSetChanged),
        1,
        "{tally:?}"
    );
    assert_eq!(tally.rebuilds, 2, "{tally:?}");
    assert_eq!(tally.patches, INTERVALS as u64 - 2, "{tally:?}");
    let rebuilt = seen.records.iter().filter(|t| !t.model_patched).count();
    assert_eq!(rebuilt as u64, tally.rebuilds, "the column agrees");

    // Every interval certified, nothing rolled back or degraded.
    for t in &seen.records {
        assert_eq!(t.certificate, "certified", "interval {}", t.interval);
        assert!(!t.rolled_back && !t.degraded, "interval {}", t.interval);
    }

    // Every interval after the first keeps the chained basis: a patched
    // one starts from its hint, and the mice-set change at interval 79
    // rebuilds the model and carries the hint onto it. Interval 0 is the
    // one cold start of the window.
    for ((outcome, _), t) in seen.plans.iter().zip(&seen.records) {
        let stats = outcome.stats.expect("every round solved");
        if t.interval == 0 {
            assert_eq!(t.path, SolvePath::Cold, "interval 0");
        } else {
            assert!(stats.hint_used, "interval {}", t.interval);
            assert_ne!(t.path, SolvePath::Cold, "interval {}", t.interval);
        }
        if !outcome.patched && t.interval > 0 {
            assert_eq!(t.interval, 79, "the one mice-set change moved");
        }
    }
    let iterations: usize = seen.records.iter().map(|t| t.iterations).sum();
    assert!(iterations < 1_000, "{iterations} simplex iterations");
}
