//! Incremental re-solves must be invisible in the telemetry: a
//! controller run with the standing-model cache on and the same run
//! with it off (rebuild every interval) must produce bit-identical
//! fingerprints — same solve paths, same iteration counts, same
//! configs, same loss accounting. Both arms build with the planner's
//! standing §6 mice set, so the parity covers a campaign whose two
//! smallest flows swap. Under debug assertions every patched model is
//! additionally compared coefficient-for-coefficient against a fresh
//! build inside the cache itself.

use ffc_core::FfcConfig;
use ffc_ctrl::{Controller, ControllerConfig, Event, SolvePath, TimedEvent};
use ffc_net::prelude::*;
use ffc_sim::SwitchModel;

mod common;

const INTERVALS: usize = 5;

fn demand_and_fault_events(used_link: ffc_net::LinkId) -> Vec<TimedEvent> {
    // Demand ticks every interval (bound patches), one fault that
    // arrives and heals (pin/unpin patches).
    let factors = [1.0, 1.05, 0.93, 1.02, 0.97];
    let mut events: Vec<TimedEvent> = factors
        .iter()
        .enumerate()
        .map(|(interval, &f)| TimedEvent {
            interval,
            event: Event::DemandScale(f),
        })
        .collect();
    events.push(TimedEvent {
        interval: 1,
        event: Event::LinkDown(used_link),
    });
    events.push(TimedEvent {
        interval: 3,
        event: Event::LinkUp(used_link),
    });
    events
}

#[test]
fn snet_fingerprints_match_with_incremental_on_and_off() {
    let inst = ffc_bench::snet_instance(42, 1);
    let topo = &inst.net.topo;
    let tm = &inst.trace.intervals[0];

    // Fail a link the base optimum actually uses, so the fault-drift
    // patches are not vacuous.
    let base =
        ffc_core::solve_te(ffc_core::TeProblem::new(topo, tm, &inst.tunnels)).expect("base TE");
    let traffic = base.link_traffic(topo, &inst.tunnels);
    let used_link = topo
        .links()
        .find(|&l| traffic[l.index()] > 1e-6)
        .expect("loaded link");
    let events = demand_and_fault_events(used_link);

    let mut on_cfg = ControllerConfig::new(FfcConfig::new(0, 1, 0), SwitchModel::Optimistic);
    on_cfg.seed = 7;
    assert!(on_cfg.incremental, "incremental must default to on");
    let mut off_cfg = on_cfg.clone();
    off_cfg.incremental = false;

    let on =
        Controller::new(topo, &inst.tunnels, on_cfg.clone()).run(tm, &events, INTERVALS, false);
    let off =
        Controller::new(topo, &inst.tunnels, off_cfg.clone()).run(tm, &events, INTERVALS, false);

    // 1. Bit-identical fingerprints: paths, iteration counts, configs,
    //    rollouts, and loss accounting all agree.
    assert_eq!(
        on.fingerprint(),
        off.fingerprint(),
        "incremental mode changed the telemetry fingerprint"
    );
    assert_eq!(
        on.totals.total_delivered().to_bits(),
        off.totals.total_delivered().to_bits()
    );

    // 2. The incremental run really patched: every interval after the
    //    initial build reuses the standing model (the structure never
    //    changes in this run), while the rebuild-mode run never does.
    assert!(!on.telemetry[0].model_patched, "nothing to patch yet");
    for t in &on.telemetry[1..] {
        assert!(
            t.model_patched,
            "interval {} rebuilt: {:?}",
            t.interval, t.path
        );
    }
    assert!(off.telemetry.iter().all(|t| !t.model_patched));
    // …and the patched intervals still ride the warm-basis chain.
    assert!(on.telemetry[1..]
        .iter()
        .any(|t| matches!(t.path, SolvePath::WarmDual | SolvePath::WarmPrimal)));

    // 3. Cross-mode replay: a trace recorded with the cache on replays
    //    with the cache off to the same fingerprint (the flag is
    //    deliberately absent from the trace header).
    let replayed =
        Controller::new(topo, &inst.tunnels, off_cfg).run(tm, &on.recorded_events, INTERVALS, true);
    assert_eq!(on.fingerprint(), replayed.fingerprint());
}

#[test]
fn control_ffc_run_matches_with_incremental_on_and_off() {
    // kc > 0 exercises the stale-row coefficient patches (the installed
    // config advances every interval) and the β-support rebuild rule.
    let mut topo = Topology::new();
    let (a, b, c, d) = (
        topo.add_node("a"),
        topo.add_node("b"),
        topo.add_node("c"),
        topo.add_node("d"),
    );
    topo.add_bidi(a, b, 10.0);
    topo.add_bidi(b, d, 10.0);
    topo.add_bidi(a, c, 10.0);
    topo.add_bidi(c, d, 10.0);
    let mut tm = TrafficMatrix::new();
    tm.add_flow(a, d, 8.0, Priority::High);
    let tunnels = layout_tunnels(
        &topo,
        &tm,
        &LayoutConfig {
            tunnels_per_flow: 2,
            ..LayoutConfig::default()
        },
    );
    let events: Vec<TimedEvent> = [1.0, 0.9, 1.1, 0.95]
        .iter()
        .enumerate()
        .map(|(interval, &f)| TimedEvent {
            interval,
            event: Event::DemandScale(f),
        })
        .collect();

    let on_cfg = ControllerConfig::new(FfcConfig::new(1, 1, 0), SwitchModel::Optimistic);
    let mut off_cfg = on_cfg.clone();
    off_cfg.incremental = false;

    let on = Controller::new(&topo, &tunnels, on_cfg).run(&tm, &events, 4, false);
    let off = Controller::new(&topo, &tunnels, off_cfg).run(&tm, &events, 4, false);
    assert_eq!(on.fingerprint(), off.fingerprint());
}

/// Two small flows trade places mid-run: the standing mice set is what
/// both arms build with, so the cache-on run keeps patching through the
/// swap and the rebuild-every-interval run solves the same LPs.
#[test]
fn mice_swap_run_matches_with_incremental_on_and_off() {
    let (topo, tm, tunnels, events) = common::mice_swap();
    let on_cfg = ControllerConfig::new(FfcConfig::new(0, 1, 0), SwitchModel::Realistic);
    let mut off_cfg = on_cfg.clone();
    off_cfg.incremental = false;

    let on = Controller::new(&topo, &tunnels, on_cfg).run(&tm, &events, 6, false);
    let off = Controller::new(&topo, &tunnels, off_cfg).run(&tm, &events, 6, false);
    assert_eq!(on.fingerprint(), off.fingerprint());
    for t in &on.telemetry[1..] {
        assert!(t.model_patched, "interval {} rebuilt", t.interval);
        assert_eq!(
            t.iterations, 0,
            "interval {}: off the chained basis",
            t.interval
        );
    }
}
