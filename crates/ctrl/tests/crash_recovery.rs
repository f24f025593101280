//! Kill–resume convergence: a controller crashed at an interval
//! boundary, mid-rollout-stage, between the history log's append and
//! the checkpoint's rename, between a checkpoint file's rewrite and its
//! rename, or facing a corrupted checkpoint or a torn log must resume
//! from durable state and converge to the
//! *bit-identical* replay fingerprint of an uninterrupted run, with
//! exactly-once rollout semantics (no acked stage is ever re-pushed).
//! The last test holds the checkpoint files to their size contract:
//! constant at boundaries, whatever the run has accumulated.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use ffc_core::{CacheStats, FfcConfig};
use ffc_ctrl::checkpoint::{decode_checkpoint, encode_history, CHECKPOINT_KEEP, HISTORY_LOG};
use ffc_ctrl::{
    config_digest, recover_latest, ChaosHooks, Checkpointer, Controller, ControllerConfig,
    ControllerReport, Event, IntervalSink, IntervalTelemetry, PlanOutcome, SolvePath, TimedEvent,
};
use ffc_net::prelude::*;
use ffc_sim::SwitchModel;

mod common;
use common::{FLIP_AT, SWAP_AT};

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

fn log_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join(HISTORY_LOG)).expect("log").len()
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

    // The older checkpoint's history is a shorter prefix of the same
    // log: interval 3's entries lie past it and are not read.
    let digest = config_digest(&case.cfg, &case.topo, &case.tunnels, &case.tm);
    let older = recover_latest(&dir, digest).expect("recover");
    let older = older.checkpoint.expect("the older checkpoint").state;
    assert_eq!(older.fingerprints.len(), 3);
    let prefix = encode_history(&older, digest).len() as u64;
    assert!(prefix < log_len(&dir), "the log runs past the prefix");

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

/// A kill after the last checkpoint before the standing mice set is
/// replaced: the resumed planner rebuilds its model for the new set from
/// scratch, with no standing model of the old one, and must carry the
/// checkpointed hint onto it exactly as the uninterrupted run does.
#[test]
fn crash_before_a_mice_set_change_carries_the_hint_identically() {
    let case = mice_swap();
    let full = uninterrupted(&case);
    let flip = &full.telemetry[FLIP_AT];
    assert!(!flip.model_patched, "the standing set is replaced");
    assert!(
        matches!(flip.path, SolvePath::WarmDual | SolvePath::WarmPrimal),
        "the carried hint seeds the start: {:?}",
        flip.path
    );

    let dir = scratch_dir("flip-boundary");
    let hooks = ChaosHooks {
        crash_at_interval: Some(FLIP_AT - 1),
        ..ChaosHooks::default()
    };
    let msg = run_until_crash(&case, &dir, hooks);
    assert!(msg.contains("chaos-crash"), "{msg}");
    let (resumed, notes) = resume(&case, &dir);
    assert!(notes.is_empty(), "{notes:?}");
    assert_eq!(resumed.prior_fingerprints.len(), FLIP_AT);
    assert_converged(&resumed, &full);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Asserts that `resumed` is the uninterrupted run, bit for bit.
fn assert_converged(resumed: &ControllerReport, full: &ControllerReport) {
    assert_eq!(resumed.fingerprint(), full.fingerprint());
    assert_eq!(resumed.recorded_events, full.recorded_events);
    for (a, b) in [
        (&resumed.totals.delivered, &full.totals.delivered),
        (
            &resumed.totals.lost_congestion,
            &full.totals.lost_congestion,
        ),
        (&resumed.totals.lost_blackhole, &full.totals.lost_blackhole),
    ] {
        assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
    }
    assert_exactly_once(resumed);
}

/// The window the log opens: interval k + 1's entries are appended and
/// the process dies before the checkpoint that refers to them is
/// renamed into place. The tail is past every checkpoint's reference;
/// the resume starts from checkpoint k and its first write cuts it off.
#[test]
fn crash_between_the_log_append_and_the_rename_resumes_from_the_checkpoint_before() {
    const K: usize = 2;
    let case = churn();
    let full = uninterrupted(&case);
    let crash_after = |interval, tag| {
        let dir = scratch_dir(tag);
        let hooks = ChaosHooks {
            crash_at_interval: Some(interval),
            ..ChaosHooks::default()
        };
        run_until_crash(&case, &dir, hooks);
        dir
    };
    // The same run killed one boundary later logged the same bytes and
    // then interval k + 1's: the tail to orphan.
    let (dir, later) = (crash_after(K, "orphan"), crash_after(K + 1, "orphan-next"));
    let log = std::fs::read(dir.join(HISTORY_LOG)).expect("log");
    let longer = std::fs::read(later.join(HISTORY_LOG)).expect("log");
    assert!(longer.len() > log.len() && longer.starts_with(&log));
    std::fs::write(dir.join(HISTORY_LOG), &longer).expect("append the orphan tail");

    let (resumed, notes) = resume(&case, &dir);
    assert!(notes.is_empty(), "an orphan tail is no damage: {notes:?}");
    assert_eq!(resumed.prior_fingerprints.len(), K + 1, "from checkpoint k");
    assert_converged(&resumed, &full);

    // The tail is gone, not spliced under what the resumed run logged:
    // the finished directory holds the uninterrupted run's history and
    // not a byte more, and interval k + 1's entries once.
    let digest = config_digest(&case.cfg, &case.topo, &case.tunnels, &case.tm);
    let end = recover_latest(&dir, digest).expect("recover");
    let end = end.checkpoint.expect("the final checkpoint").state;
    assert_eq!(end.fingerprints.join("\n") + "\n", full.fingerprint());
    assert_eq!(end.recorded, full.recorded_events);
    assert_eq!(log_len(&dir), encode_history(&end, digest).len() as u64);
    let _ = (
        std::fs::remove_dir_all(&dir),
        std::fs::remove_dir_all(&later),
    );
}

/// The window a rewrite opens: the next checkpoint's entries are in
/// the log and its image is in the oldest file, which still carries
/// the oldest name — the process died before the rename. Recovery finds
/// the newest name valid first and never reaches the stale one; the
/// resume is the uninterrupted run, and its first write removes the
/// stale file by name.
#[test]
fn crash_between_the_rewrite_and_the_rename_resumes_from_the_newest_name() {
    const K: usize = 2;
    let case = churn();
    let full = uninterrupted(&case);
    let digest = config_digest(&case.cfg, &case.topo, &case.tunnels, &case.tm);
    let crash_after = |interval, tag| {
        let dir = scratch_dir(tag);
        let hooks = ChaosHooks {
            crash_at_interval: Some(interval),
            ..ChaosHooks::default()
        };
        run_until_crash(&case, &dir, hooks);
        dir
    };
    let (dir, later) = (
        crash_after(K, "unrenamed"),
        crash_after(K + 1, "unrenamed-next"),
    );
    let seqs = |dir: &Path| -> Vec<u64> {
        let snap = snapshot_of(&dir_listing(dir));
        snap.checkpoints.iter().map(|&(seq, _)| seq).collect()
    };
    let names = seqs(&dir);
    assert_eq!(names.len(), CHECKPOINT_KEEP + 1, "a full window: {names:?}");
    let (oldest, newest) = (names[0], names[CHECKPOINT_KEEP]);

    // The same run killed one boundary later wrote the next checkpoint:
    // its image, over the oldest file, and the log up to its entries.
    let name = |seq: u64| format!("ckpt-{seq:08}.ffck");
    let next = std::fs::read(later.join(name(newest + 1))).expect("the next checkpoint");
    let longer = std::fs::read(later.join(HISTORY_LOG)).expect("log");
    let state = decode_checkpoint(&next, "next", digest, &longer).expect("decode");
    let logged = encode_history(&state, digest).len();
    assert!(
        logged > log_len(&dir) as usize,
        "it logged entries past the newest name's"
    );
    std::fs::write(dir.join(HISTORY_LOG), &longer[..logged]).expect("append its entries");
    std::fs::write(dir.join(name(oldest)), &next).expect("rewrite the oldest");

    let (resumed, notes) = resume(&case, &dir);
    assert!(
        notes.is_empty(),
        "the stale file is never reached: {notes:?}"
    );
    assert_eq!(
        resumed.prior_fingerprints.len(),
        K + 1,
        "from the newest name"
    );
    assert_converged(&resumed, &full);
    let end = seqs(&dir);
    assert!(!end.contains(&oldest), "{end:?}");
    assert_eq!(end.len(), CHECKPOINT_KEEP + 1, "{end:?}");
    let _ = (
        std::fs::remove_dir_all(&dir),
        std::fs::remove_dir_all(&later),
    );
}

/// One copy of the history instead of one per checkpoint: damage inside
/// the oldest surviving checkpoint's prefix loses every one at once.
/// Every note names the log, the run restarts from interval 0 — its
/// first write starts the log afresh — and still converges.
#[test]
fn a_log_torn_inside_every_prefix_restarts_from_interval_0_and_converges() {
    let dir = scratch_dir("torn-log");
    let case = churn();
    let full = uninterrupted(&case);
    let hooks = ChaosHooks {
        crash_at_interval: Some(3),
        ..ChaosHooks::default()
    };
    run_until_crash(&case, &dir, hooks);
    // Byte 20 is inside the first input event: every prefix holds it.
    let mut log = std::fs::read(dir.join(HISTORY_LOG)).expect("log");
    log[20] ^= 0xff;
    std::fs::write(dir.join(HISTORY_LOG), &log).expect("write");

    let Case {
        topo, tm, tunnels, ..
    } = &case;
    let digest = config_digest(&case.cfg, topo, tunnels, tm);
    let rec = recover_latest(&dir, digest).expect("recover");
    assert!(rec.checkpoint.is_none(), "no prefix is whole");
    assert_eq!(rec.notes.len(), CHECKPOINT_KEEP + 1, "{:?}", rec.notes);
    assert!(
        rec.notes.iter().all(|n| n.contains("history.ffhl: ")),
        "{:?}",
        rec.notes
    );

    let mut ck = Checkpointer::create(&dir, digest).expect("checkpointer");
    let mut ctrl = Controller::new(topo, tunnels, case.cfg.clone());
    let events = &case.events;
    let rerun = ctrl.run_with_recovery(tm, events, INTERVALS, false, None, Some(&mut ck), None);
    assert!(ck.error().is_none(), "{:?}", ck.error());
    assert!(rerun.prior_fingerprints.is_empty(), "from interval 0");
    assert_converged(&rerun, &full);
    let end = recover_latest(&dir, digest).expect("recover");
    assert!(end.notes.is_empty(), "{:?}", end.notes);
    assert_eq!(
        end.checkpoint.expect("final").state.recorded,
        full.recorded_events
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a run's checkpoint directory held at one instant.
#[derive(Debug)]
struct DirSnapshot {
    /// `(sequence number, bytes)` of each `ckpt-*.ffck`, ascending.
    checkpoints: Vec<(u64, u64)>,
    log_bytes: u64,
}

/// `(file name, bytes)` of everything in `dir`.
fn dir_listing(dir: &Path) -> Vec<(String, u64)> {
    let entries = std::fs::read_dir(dir).into_iter().flatten().flatten();
    let sized =
        entries.filter_map(|e| Some((e.file_name().into_string().ok()?, e.metadata().ok()?.len())));
    sized.collect()
}

fn snapshot_of(listing: &[(String, u64)]) -> DirSnapshot {
    let seq_of = |name: &str| {
        name.strip_prefix("ckpt-")?
            .strip_suffix(".ffck")?
            .parse()
            .ok()
    };
    let mut checkpoints: Vec<(u64, u64)> = listing
        .iter()
        .filter_map(|(name, bytes)| Some((seq_of(name)?, *bytes)))
        .collect();
    checkpoints.sort_unstable();
    let log = listing.iter().find(|(name, _)| name == HISTORY_LOG);
    DirSnapshot {
        checkpoints,
        log_bytes: log.map_or(0, |&(_, bytes)| bytes),
    }
}

/// Lists the directory after every plan stage: the newest checkpoint
/// is then the boundary of the interval before, the ones under it that
/// interval's mid-rollout checkpoints. (It runs inside the controller
/// loop, so it only lists; the test reads the listings afterwards.)
struct DirWatcher<'a> {
    dir: &'a Path,
    seen: Vec<Vec<(String, u64)>>,
}

impl IntervalSink for DirWatcher<'_> {
    fn record(&mut self, _: &IntervalTelemetry, _: &[f64]) {}

    fn planned(&mut self, _: &PlanOutcome, _: CacheStats) {
        self.seen.push(dir_listing(self.dir));
    }
}

/// Bytes of a varint.
fn varint_len(v: usize) -> u64 {
    (1 + v.checked_ilog2().unwrap_or(0) / 7) as u64
}

/// Bytes of one log entry or inline event: `[tag] | varint length | line`.
fn framed(line: &str, tag: u64) -> u64 {
    tag + varint_len(line.len()) + line.len() as u64
}

/// Checkpoint size is a function of the instance, not of the run so
/// far: every boundary checkpoint is the size of the first to within
/// the varint widths of its counters, every mid-rollout one larger by
/// exactly its in-flight record, the log grows each interval by exactly
/// the frames of that interval's fingerprint line and outcomes, and the
/// bytes written are linear in the interval count.
#[test]
fn checkpoint_size_does_not_grow_with_the_run() {
    const N: usize = 48;
    let dir = scratch_dir("size");
    let (topo, tm, tunnels) = diamond();
    let cfg = base_cfg();
    // Churn: every interval re-solves and rolls out.
    let events: Vec<TimedEvent> = (1..N)
        .map(|interval| TimedEvent {
            interval,
            event: Event::DemandScale(0.6 + 0.01 * (interval % 7) as f64),
        })
        .collect();
    let digest = config_digest(&cfg, &topo, &tunnels, &tm);
    let mut ck = Checkpointer::create(&dir, digest).expect("checkpointer");
    let mut watch = DirWatcher {
        dir: &dir,
        seen: Vec::new(),
    };
    let mut ctrl = Controller::new(&topo, &tunnels, cfg);
    let sink: &mut dyn IntervalSink = &mut watch;
    let report = ctrl.run_with_recovery(&tm, &events, N, false, Some(sink), Some(&mut ck), None);
    assert!(ck.error().is_none(), "{:?}", ck.error());
    watch.seen.push(dir_listing(&dir));
    // Nothing but checkpoints and the log, at every stage.
    let mut names = watch.seen.iter().flatten().map(|(name, _)| name);
    let stray = names.find(|&n| n != HISTORY_LOG && !n.starts_with("ckpt-"));
    assert_eq!(stray, None);
    // seen[i] is the directory after the boundary of interval i - 1.
    let seen: Vec<DirSnapshot> = watch.seen.iter().map(|l| snapshot_of(l)).collect();
    assert_eq!(seen.len(), N + 1);

    let outcomes = |interval: usize| {
        let sampled = report.recorded_events.iter().skip(events.len());
        sampled.filter(move |te| te.interval == interval)
    };
    let newest = |snap: &DirSnapshot| snap.checkpoints.last().map(|&(_, bytes)| bytes);
    let first = newest(&seen[1]).expect("the first boundary checkpoint");
    let mut mid_rollout = 0;
    for (interval, pair) in seen.windows(2).enumerate() {
        let (before, after) = (&pair[0], &pair[1]);
        assert!(after.checkpoints.len() <= CHECKPOINT_KEEP + 1, "{after:?}");
        // Counters that widen over a run: the interval index, three
        // config versions, two history counts and the log length.
        let size = newest(after).expect("a boundary checkpoint");
        assert!(
            size.abs_diff(first) <= 8,
            "boundary {interval}: {size} vs {first}"
        );

        // What the interval added to the log, and nothing else.
        let line = report.telemetry[interval].fingerprint();
        let logged = outcomes(interval).map(|te| framed(&te.to_line(), 1));
        let mut grown = framed(&line, 1) + logged.sum::<u64>();
        if interval == 0 {
            // The first write: the header and the run's input events.
            let inputs = events.iter().map(|te| framed(&te.to_line(), 1));
            grown += 16 + inputs.sum::<u64>();
        }
        assert_eq!(
            after.log_bytes - before.log_bytes,
            grown,
            "interval {interval}"
        );

        // Its mid-rollout checkpoints: the boundary before plus the
        // in-flight record (three counters, the RNG state, the outcome
        // log inline).
        let Some(boundary) = newest(before) else {
            continue;
        };
        let inline = outcomes(interval).map(|te| framed(&te.to_line(), 0));
        let record = 3 + 32 + varint_len(outcomes(interval).count()) + inline.sum::<u64>();
        for &(seq, size) in after.checkpoints.iter().rev().skip(1) {
            if before.checkpoints.iter().all(|&(s, _)| s != seq) {
                assert_eq!(size, boundary + record, "interval {interval} seq {seq}");
                mid_rollout += 1;
            }
        }
    }
    assert!(
        mid_rollout >= N - 1,
        "every churn interval rolls out in stages"
    );

    // Linear: each write is a checkpoint no larger than the largest
    // seen, plus the log, which is the sum of the per-interval growth.
    let log = log_len(&dir);
    let largest = seen.iter().flat_map(|s| &s.checkpoints).map(|c| c.1).max();
    let largest = largest.expect("checkpoints");
    assert!(ck.writes() >= 2 * N as u64 - 1, "{}", ck.writes());
    assert!(ck.bytes_written() >= log + ck.writes() * (first - 8));
    assert!(ck.bytes_written() <= log + ck.writes() * largest);
    let _ = std::fs::remove_dir_all(&dir);
}
