//! Kill–resume convergence: a controller crashed at an interval
//! boundary, mid-rollout-stage, or facing a corrupted checkpoint must
//! resume from durable state and converge to the *bit-identical*
//! replay fingerprint of an uninterrupted run, with exactly-once
//! rollout semantics (no acked stage is ever re-pushed).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use ffc_core::FfcConfig;
use ffc_ctrl::{
    config_digest, recover_latest, ChaosHooks, Checkpointer, Controller, ControllerConfig,
    ControllerReport, Event, TimedEvent,
};
use ffc_net::prelude::*;
use ffc_sim::SwitchModel;

mod common;
use common::SWAP_AT;

/// One campaign the kill–resume harness below runs: an instance, its
/// controller configuration and the input events.
struct Case {
    topo: Topology,
    tm: TrafficMatrix,
    tunnels: TunnelTable,
    cfg: ControllerConfig,
    events: Vec<TimedEvent>,
}

/// Demand churn plus a fault on the diamond at (0,1,0).
fn churn() -> Case {
    let (topo, tm, tunnels) = diamond();
    Case {
        topo,
        tm,
        tunnels,
        cfg: base_cfg(),
        events: churn_events(),
    }
}

/// [`common::mice_swap`] at (0,1,0): a planner that forgot the standing
/// mice set across a crash would re-derive the greedy one and diverge.
fn mice_swap() -> Case {
    let (topo, tm, tunnels, events) = common::mice_swap();
    Case {
        topo,
        tm,
        tunnels,
        cfg: base_cfg(),
        events,
    }
}

fn diamond() -> (Topology, TrafficMatrix, TunnelTable) {
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
    (topo, tm, tunnels)
}

fn base_cfg() -> ControllerConfig {
    ControllerConfig::new(FfcConfig::new(0, 1, 0), SwitchModel::Realistic)
}

/// Demand churn plus a fault: every interval re-solves and rolls out.
fn churn_events() -> Vec<TimedEvent> {
    vec![
        TimedEvent {
            interval: 1,
            event: Event::DemandScale(0.7),
        },
        TimedEvent {
            interval: 2,
            event: Event::LinkDown(LinkId(0)),
        },
        TimedEvent {
            interval: 3,
            event: Event::DemandScale(1.0),
        },
        TimedEvent {
            interval: 4,
            event: Event::LinkUp(LinkId(0)),
        },
    ]
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ffc-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const INTERVALS: usize = 6;

/// The ground truth: the same run, never interrupted, no checkpointing.
fn uninterrupted(case: &Case) -> ControllerReport {
    let mut ctrl = Controller::new(&case.topo, &case.tunnels, case.cfg.clone());
    ctrl.run(&case.tm, &case.events, INTERVALS, false)
}

/// Runs with checkpointing and the given chaos crash hooks armed,
/// expecting a panic; returns the panic message.
fn run_until_crash(case: &Case, dir: &Path, hooks: ChaosHooks) -> String {
    let Case {
        topo, tm, tunnels, ..
    } = case;
    let mut cfg = case.cfg.clone();
    cfg.chaos = hooks;
    let digest = config_digest(&cfg, topo, tunnels, tm);
    let mut ck = Checkpointer::create(dir, digest).expect("checkpointer");
    let mut ctrl = Controller::new(topo, tunnels, cfg);
    let events = &case.events;
    let panic = catch_unwind(AssertUnwindSafe(|| {
        ctrl.run_with_recovery(tm, events, INTERVALS, false, None, Some(&mut ck), None)
    }))
    .expect_err("the armed crash point must fire");
    assert!(
        ck.error().is_none(),
        "checkpointing failed: {:?}",
        ck.error()
    );
    panic
        .downcast_ref::<String>()
        .cloned()
        .expect("chaos crashes carry string payloads")
}

/// Recovers the newest valid checkpoint and finishes the run (fresh
/// process: new controller, crash hooks disarmed). Returns the report
/// and the recovery notes.
fn resume(case: &Case, dir: &Path) -> (ControllerReport, Vec<String>) {
    let Case {
        topo, tm, tunnels, ..
    } = case;
    let cfg = case.cfg.clone();
    let digest = config_digest(&cfg, topo, tunnels, tm);
    let rec = recover_latest(dir, digest).expect("recover");
    let got = rec.checkpoint.expect("a valid checkpoint must exist");
    let mut ck = Checkpointer::create(dir, digest).expect("checkpointer");
    let mut ctrl = Controller::new(topo, tunnels, cfg);
    let report = ctrl.run_with_recovery(
        tm,
        &case.events,
        INTERVALS,
        false,
        None,
        Some(&mut ck),
        Some(got.state),
    );
    (report, rec.notes)
}

/// No `(interval, switch, step)` ack appears twice — the recorded
/// stream is the ground truth for what was pushed to the switches.
fn assert_exactly_once(report: &ControllerReport) {
    let mut seen = std::collections::BTreeSet::new();
    for te in &report.recorded_events {
        if let Event::UpdateAck { switch, step, .. } = te.event {
            assert!(
                seen.insert((te.interval, switch, step)),
                "stage double-pushed: interval {} switch {:?} step {}",
                te.interval,
                switch,
                step
            );
        }
    }
}

#[test]
fn crash_at_interval_boundary_resumes_to_identical_fingerprint() {
    let dir = scratch_dir("boundary");
    let case = churn();
    let full = uninterrupted(&case);
    let msg = run_until_crash(
        &case,
        &dir,
        ChaosHooks {
            crash_at_interval: Some(2),
            ..ChaosHooks::default()
        },
    );
    assert!(msg.contains("interval boundary 2"), "{msg}");

    let (resumed, notes) = resume(&case, &dir);
    assert!(notes.is_empty(), "clean files, no fallback: {notes:?}");
    assert_eq!(
        resumed.prior_fingerprints.len(),
        3,
        "intervals 0..=2 restored"
    );
    assert_eq!(
        resumed.telemetry.len(),
        INTERVALS - 3,
        "intervals 3.. re-run live"
    );
    assert_eq!(
        resumed.fingerprint(),
        full.fingerprint(),
        "resumed run must converge bit-identically"
    );
    assert_eq!(
        resumed.recorded_events, full.recorded_events,
        "identical sampling stream across the crash"
    );
    assert_eq!(
        resumed.totals.total_delivered().to_bits(),
        full.totals.total_delivered().to_bits()
    );
    assert_exactly_once(&resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_mid_rollout_stage_completes_exactly_once() {
    let dir = scratch_dir("midstage");
    let case = churn();
    let full = uninterrupted(&case);
    // Interval 1 re-solves (demand drop) so its rollout has stages;
    // crash right after the first stage's checkpoint hits the write.
    let msg = run_until_crash(
        &case,
        &dir,
        ChaosHooks {
            crash_mid_rollout: Some((1, 1)),
            ..ChaosHooks::default()
        },
    );
    assert!(msg.contains("mid-rollout interval 1 stage 1"), "{msg}");

    let (resumed, notes) = resume(&case, &dir);
    assert!(notes.is_empty(), "{notes:?}");
    assert_eq!(resumed.prior_fingerprints.len(), 1, "interval 0 restored");
    assert_eq!(
        resumed.fingerprint(),
        full.fingerprint(),
        "mid-rollout resume must converge bit-identically"
    );
    assert_eq!(resumed.recorded_events, full.recorded_events);
    assert_exactly_once(&resumed);
    // The half-pushed interval's telemetry is re-derived, not lost.
    assert_eq!(resumed.telemetry.first().map(|t| t.interval), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_newest_checkpoint_falls_back_and_still_converges() {
    let dir = scratch_dir("corrupt");
    let case = churn();
    let full = uninterrupted(&case);
    let msg = run_until_crash(
        &case,
        &dir,
        ChaosHooks {
            crash_at_interval: Some(3),
            ..ChaosHooks::default()
        },
    );
    assert!(msg.contains("interval boundary 3"), "{msg}");

    // Corrupt the newest checkpoint file: recovery must fall back to
    // the previous valid one (interval 2's boundary) and note it.
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ffck"))
        .collect();
    files.sort();
    let newest = files.last().expect("checkpoints exist");
    let mut bytes = std::fs::read(newest).expect("read");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(newest, &bytes).expect("write");

    let (resumed, notes) = resume(&case, &dir);
    assert_eq!(notes.len(), 1, "one skipped-file note: {notes:?}");
    assert!(notes[0].contains("checksum mismatch"), "{}", notes[0]);
    assert_eq!(
        resumed.prior_fingerprints.len(),
        3,
        "fell back to the interval-2 boundary checkpoint"
    );
    assert_eq!(
        resumed.fingerprint(),
        full.fingerprint(),
        "fallback resume must still converge bit-identically"
    );
    assert_eq!(resumed.recorded_events, full.recorded_events);
    assert_exactly_once(&resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_under_a_different_configuration_is_refused() {
    let dir = scratch_dir("refuse");
    let case = churn();
    let _ = run_until_crash(
        &case,
        &dir,
        ChaosHooks {
            crash_at_interval: Some(1),
            ..ChaosHooks::default()
        },
    );
    let (topo, tm, tunnels) = diamond();
    let mut other = base_cfg();
    other.seed = 4242;
    let digest = config_digest(&other, &topo, &tunnels, &tm);
    let err = recover_latest(&dir, digest).expect_err("digest mismatch is a hard error");
    assert!(err.contains("different run"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replayed_trace_of_a_resumed_run_reproduces_the_fingerprint() {
    // The recorded stream a resumed run emits is itself a valid trace:
    // replaying it end-to-end reproduces the converged fingerprint.
    let dir = scratch_dir("replay");
    let case = churn();
    let full = uninterrupted(&case);
    let _ = run_until_crash(
        &case,
        &dir,
        ChaosHooks {
            crash_mid_rollout: Some((2, 1)),
            ..ChaosHooks::default()
        },
    );
    let (resumed, _) = resume(&case, &dir);
    assert_eq!(resumed.fingerprint(), full.fingerprint());

    let (topo, tm, tunnels) = diamond();
    let mut ctrl = Controller::new(&topo, &tunnels, base_cfg());
    let replayed = ctrl.run(&tm, &resumed.recorded_events, INTERVALS, true);
    assert_eq!(replayed.fingerprint(), full.fingerprint());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The standing mice set is planner state a checkpoint must carry: crash
/// right after the interval whose events swap the two smallest flows
/// (and mid-rollout of the next), and the resumed run must keep the set
/// the uninterrupted run kept.
#[test]
fn crash_after_a_mice_swap_resumes_with_the_standing_set() {
    let case = mice_swap();
    // The swap is one: the greedy set moves from {0} to {1}.
    let mut swapped = case.tm.clone();
    for te in case.events.iter().filter(|te| te.interval <= SWAP_AT) {
        if let Event::DemandSet { flow, demand } = te.event {
            swapped.set_demand(FlowId(flow), demand);
        }
    }
    let fraction = case.cfg.ffc.mice_fraction;
    assert_eq!(
        ffc_core::mice_flags(&case.tm, fraction),
        [true, false, false]
    );
    assert_eq!(
        ffc_core::mice_flags(&swapped, fraction),
        [false, true, false]
    );

    let full = uninterrupted(&case);
    for (tag, hooks) in [
        (
            "swap-boundary",
            ChaosHooks {
                crash_at_interval: Some(SWAP_AT),
                ..ChaosHooks::default()
            },
        ),
        (
            "swap-midstage",
            ChaosHooks {
                crash_mid_rollout: Some((SWAP_AT + 1, 1)),
                ..ChaosHooks::default()
            },
        ),
    ] {
        let dir = scratch_dir(tag);
        let msg = run_until_crash(&case, &dir, hooks);
        assert!(msg.contains("chaos-crash"), "{tag}: {msg}");
        let (resumed, notes) = resume(&case, &dir);
        assert!(notes.is_empty(), "{tag}: {notes:?}");
        assert_eq!(resumed.prior_fingerprints.len(), SWAP_AT + 1, "{tag}");
        assert_eq!(resumed.fingerprint(), full.fingerprint(), "{tag}");
        assert_eq!(resumed.recorded_events, full.recorded_events, "{tag}");
        assert_exactly_once(&resumed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
