//! Crash-point injection campaigns.
//!
//! Extends the harness beyond in-run adversity: each campaign arms a
//! seeded crash point, lets the checkpointing controller die there,
//! then resumes from the durable checkpoint directory in a "fresh
//! process" (new controller, hooks disarmed) and checks the resumed
//! run against an uninterrupted ground-truth run of the same seed:
//!
//! * the replay fingerprint must converge **bit-identically**,
//! * the recorded outcome stream must match the uninterrupted run
//!   exactly (same sampling stream across the crash),
//! * no `(interval, switch, step)` ack may appear twice — an acked
//!   rollout stage is never re-pushed (exactly-once semantics),
//! * for the file-damage points, recovery must skip the damaged
//!   newest checkpoint with a note and fall back to the previous one;
//!   for the log-damage points, to the newest checkpoint whose prefix
//!   of the history log is still whole — or, when none is, restart
//!   from interval 0 and converge all the same.
//!
//! Campaigns cycle six crash flavours ([`CrashPoint`]), with the
//! crash interval derived from the campaign seed, so a fixed master
//! seed exercises kills at interval boundaries, mid-rollout-stage,
//! and against corrupted and torn checkpoint files and history logs.
//! Everything is deterministic; the suite summary is safe to diff
//! across runs.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use ffc_core::panic_message;
use ffc_ctrl::checkpoint::HISTORY_LOG;
use ffc_ctrl::{
    config_digest, recover_latest, ChaosHooks, Checkpointer, Controller, ControllerConfig,
    ControllerReport, Event,
};

use crate::checker::{compare_fingerprints, Violation};
use crate::injector::generate_campaign;
use crate::{ChaosConfig, ChaosInputs};

/// Where the controller is killed, and what is done to the checkpoint
/// directory before resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Die right after the boundary checkpoint of this interval lands.
    IntervalBoundary(usize),
    /// Die inside this interval's rollout, right after the first
    /// stage's checkpoint hits disk.
    MidRolloutStage(usize),
    /// Boundary crash, then a byte of the newest checkpoint is flipped
    /// — recovery must fall back to the previous valid file.
    CorruptNewest(usize),
    /// Boundary crash, then the newest checkpoint is truncated mid-file
    /// (a torn write) — recovery must fall back likewise.
    TruncateNewest(usize),
    /// Boundary crash, then the history log loses its last byte: the
    /// newest checkpoint's prefix is torn, the one before it is whole.
    TruncateLog(usize),
    /// Boundary crash, then a byte in the middle of the history log is
    /// flipped: every checkpoint whose prefix reaches it is lost —
    /// usually all of them, and the run starts over.
    CorruptLog(usize),
}

impl CrashPoint {
    /// Deterministic crash point for campaign `index`: cycles the six
    /// flavours, with the crash interval derived from the campaign
    /// seed (always ≥ 1 so there is state worth restoring).
    pub fn for_campaign(seed: u64, index: usize, intervals: usize) -> CrashPoint {
        let span = intervals.saturating_sub(2).max(1) as u64;
        let k = 1 + (seed % span) as usize;
        match index % 6 {
            0 => CrashPoint::IntervalBoundary(k),
            1 => CrashPoint::MidRolloutStage(k),
            2 => CrashPoint::CorruptNewest(k),
            3 => CrashPoint::TruncateNewest(k),
            4 => CrashPoint::TruncateLog(k),
            _ => CrashPoint::CorruptLog(k),
        }
    }

    /// The crash interval.
    pub fn interval(&self) -> usize {
        match *self {
            CrashPoint::IntervalBoundary(k)
            | CrashPoint::MidRolloutStage(k)
            | CrashPoint::CorruptNewest(k)
            | CrashPoint::TruncateNewest(k)
            | CrashPoint::TruncateLog(k)
            | CrashPoint::CorruptLog(k) => k,
        }
    }

    /// Stable label for summaries.
    pub fn label(&self) -> String {
        match *self {
            CrashPoint::IntervalBoundary(k) => format!("boundary@{k}"),
            CrashPoint::MidRolloutStage(k) => format!("mid-rollout@{k}"),
            CrashPoint::CorruptNewest(k) => format!("corrupt-newest@{k}"),
            CrashPoint::TruncateNewest(k) => format!("truncate-newest@{k}"),
            CrashPoint::TruncateLog(k) => format!("truncate-log@{k}"),
            CrashPoint::CorruptLog(k) => format!("corrupt-log@{k}"),
        }
    }
}

/// What one crash campaign observed.
#[derive(Debug, Clone)]
pub struct CrashCampaignOutcome {
    /// Campaign index.
    pub index: usize,
    /// Derived seed (ground truth and armed run both use it).
    pub seed: u64,
    /// The armed crash point.
    pub point: CrashPoint,
    /// Whether the crash point actually fired (a mid-rollout point is
    /// a no-op on an interval whose rollout had no stages; the run
    /// then simply completes and is checked as-is).
    pub fired: bool,
    /// Whether recovery skipped at least one file (expected for the
    /// four damage points, a violation of none elsewhere).
    pub fell_back: bool,
    /// Intervals restored from the checkpoint rather than re-run.
    pub restored_intervals: usize,
    /// Invariant violations (empty on a healthy build).
    pub violations: Vec<Violation>,
}

/// Aggregate of a crash-injection suite.
#[derive(Debug, Clone)]
pub struct CrashSuiteReport {
    /// Per-campaign outcomes, in index order.
    pub campaigns: Vec<CrashCampaignOutcome>,
}

impl CrashSuiteReport {
    /// Total violations across campaigns.
    pub fn total_violations(&self) -> usize {
        self.campaigns.iter().map(|c| c.violations.len()).sum()
    }

    /// Campaigns whose crash point actually fired.
    pub fn fired(&self) -> usize {
        self.campaigns.iter().filter(|c| c.fired).count()
    }

    /// Deterministic one-line-per-campaign summary (safe to diff
    /// across runs for bit-reproducibility checks).
    pub fn summary(&self) -> String {
        let mut s = String::new();
        for c in &self.campaigns {
            s.push_str(&format!(
                "crash {:3} seed {:20} point {:18} fired {} restored {} fallback {} violations {}\n",
                c.index,
                c.seed,
                c.point.label(),
                c.fired as u8,
                c.restored_intervals,
                c.fell_back as u8,
                c.violations.len()
            ));
            for v in &c.violations {
                s.push_str(&format!("  VIOLATION: {v}\n"));
            }
        }
        s.push_str(&format!(
            "{} crash campaigns: {} violation(s), {} crash(es) fired\n",
            self.campaigns.len(),
            self.total_violations(),
            self.fired()
        ));
        s
    }
}

/// Catches panics from a controller run; `Err` carries the message.
pub(crate) fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| panic_message(p.as_ref()))
}

/// Checkpoint files in `dir`, oldest first.
fn checkpoint_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ffck"))
        .collect();
    files.sort();
    files
}

/// Damages the newest checkpoint or the history log: a flipped interior
/// byte (corruption) or a cut tail (torn write) — 40 % of a checkpoint,
/// the last byte of the log.
fn damage(dir: &Path, point: CrashPoint) -> Result<(), String> {
    let path = match point {
        CrashPoint::TruncateLog(_) | CrashPoint::CorruptLog(_) => dir.join(HISTORY_LOG),
        _ => checkpoint_files(dir)
            .pop()
            .ok_or_else(|| "no checkpoint file to damage".to_string())?,
    };
    let mut bytes = fs::read(&path).map_err(|e| format!("{}: read: {e}", path.display()))?;
    let len = bytes.len();
    match point {
        CrashPoint::TruncateNewest(_) => bytes.truncate(len * 3 / 5),
        CrashPoint::TruncateLog(_) => bytes.truncate(len.saturating_sub(1)),
        _ => {
            if let Some(b) = bytes.get_mut(len / 2) {
                *b ^= 0xff;
            }
        }
    }
    fs::write(&path, &bytes).map_err(|e| format!("{}: write: {e}", path.display()))
}

/// No `(interval, switch, step)` ack may appear twice in the recorded
/// stream — the stream is the ground truth for what reached switches.
fn check_exactly_once(report: &ControllerReport, violations: &mut Vec<Violation>) {
    let mut seen = std::collections::BTreeSet::new();
    for te in &report.recorded_events {
        if let Event::UpdateAck { switch, step, .. } = te.event {
            if !seen.insert((te.interval, switch, step)) {
                violations.push(Violation::StageReplayed {
                    interval: te.interval,
                    detail: format!("switch {switch:?} step {step}"),
                });
            }
        }
    }
}

/// Runs one crash campaign in `scratch/crash-<index>`: ground truth,
/// armed (crashing) run, optional file damage, resume, convergence
/// checks. The scratch subdirectory is removed afterwards.
pub fn run_crash_campaign(
    inputs: &ChaosInputs<'_>,
    cfg: &ChaosConfig,
    index: usize,
    scratch: &Path,
) -> CrashCampaignOutcome {
    // Reuse the injector's seeded event streams, but none of its
    // solver sabotage: crash campaigns isolate the kill/resume axis.
    let plan = generate_campaign(inputs.topo, &cfg.ffc, cfg.master_seed, index, cfg.intervals);
    let point = CrashPoint::for_campaign(plan.seed, index, cfg.intervals);
    let mut base = ControllerConfig::new(cfg.ffc.clone(), cfg.switch_model);
    base.seed = plan.seed;

    let mut out = CrashCampaignOutcome {
        index,
        seed: plan.seed,
        point,
        fired: false,
        fell_back: false,
        restored_intervals: 0,
        violations: Vec::new(),
    };

    // Ground truth: the same seed and events, never interrupted.
    let full = match guarded(|| {
        let mut ctrl = Controller::new(inputs.topo, inputs.tunnels, base.clone());
        ctrl.run(inputs.tm, &plan.events, cfg.intervals, false)
    }) {
        Ok(r) => r,
        Err(msg) => {
            out.violations.push(Violation::Panic(msg));
            return out;
        }
    };

    let dir = scratch.join(format!("crash-{index}"));
    let _ = fs::remove_dir_all(&dir);
    let digest = config_digest(&base, inputs.topo, inputs.tunnels, inputs.tm);

    // Armed run: checkpointing on, seeded crash point armed.
    let mut armed = base.clone();
    armed.chaos = match point {
        CrashPoint::MidRolloutStage(k) => ChaosHooks {
            crash_mid_rollout: Some((k, 1)),
            ..ChaosHooks::default()
        },
        _ => ChaosHooks {
            crash_at_interval: Some(point.interval()),
            ..ChaosHooks::default()
        },
    };
    let mut ck = match Checkpointer::create(&dir, digest) {
        Ok(c) => c,
        Err(e) => {
            out.violations.push(Violation::ResumeFailed(e));
            return out;
        }
    };
    let events = plan.events.clone();
    let crashed = guarded(|| {
        let mut ctrl = Controller::new(inputs.topo, inputs.tunnels, armed.clone());
        ctrl.run_with_recovery(
            inputs.tm,
            &events,
            cfg.intervals,
            false,
            None,
            Some(&mut ck),
            None,
        )
    });
    drop(ck);
    match crashed {
        Ok(completed) => {
            // The armed point never fired (no rollout stage on that
            // interval): the run completed and must still match.
            if let Some(v) = compare_fingerprints(&full.fingerprint(), &completed.fingerprint()) {
                out.violations.push(v);
            }
            let _ = fs::remove_dir_all(&dir);
            return out;
        }
        Err(msg) if msg.starts_with("chaos-crash:") => out.fired = true,
        Err(msg) => {
            out.violations.push(Violation::Panic(msg));
            let _ = fs::remove_dir_all(&dir);
            return out;
        }
    }

    // Post-mortem file damage for the corruption points.
    let damaged = !matches!(
        point,
        CrashPoint::IntervalBoundary(_) | CrashPoint::MidRolloutStage(_)
    );
    if damaged {
        if let Err(e) = damage(&dir, point) {
            out.violations.push(Violation::ResumeFailed(e));
            let _ = fs::remove_dir_all(&dir);
            return out;
        }
    }

    // Resume in a "fresh process": new controller, hooks disarmed.
    let rec = match recover_latest(&dir, digest) {
        Ok(r) => r,
        Err(e) => {
            out.violations.push(Violation::ResumeFailed(e));
            let _ = fs::remove_dir_all(&dir);
            return out;
        }
    };
    out.fell_back = !rec.notes.is_empty();
    if damaged && rec.notes.is_empty() {
        out.violations.push(Violation::ResumeFailed(
            "damaged file was not skipped with a recovery note".to_string(),
        ));
    }
    let state = match rec.checkpoint {
        Some(c) => {
            out.restored_intervals = c.state.next_interval;
            Some(c.state)
        }
        // One log under every checkpoint: damage inside the oldest
        // prefix leaves none, and the run starts over.
        None if matches!(point, CrashPoint::CorruptLog(_)) => None,
        None => {
            out.violations.push(Violation::ResumeFailed(
                "no valid checkpoint survived the crash".to_string(),
            ));
            None
        }
    };
    let mut ck = match Checkpointer::create(&dir, digest) {
        Ok(c) => c,
        Err(e) => {
            out.violations.push(Violation::ResumeFailed(e));
            let _ = fs::remove_dir_all(&dir);
            return out;
        }
    };
    let resumed = guarded(|| {
        let mut ctrl = Controller::new(inputs.topo, inputs.tunnels, base.clone());
        ctrl.run_with_recovery(
            inputs.tm,
            &plan.events,
            cfg.intervals,
            false,
            None,
            Some(&mut ck),
            state,
        )
    });
    drop(ck);
    let resumed = match resumed {
        Ok(r) => r,
        Err(msg) => {
            out.violations
                .push(Violation::Panic(format!("during resume: {msg}")));
            let _ = fs::remove_dir_all(&dir);
            return out;
        }
    };

    // Convergence: bit-identical fingerprint, identical outcome
    // stream, every stage pushed exactly once.
    if let Some(v) = compare_fingerprints(&full.fingerprint(), &resumed.fingerprint()) {
        out.violations.push(v);
    }
    if resumed.recorded_events != full.recorded_events {
        out.violations.push(Violation::ResumeFailed(
            "recorded outcome stream diverged from the uninterrupted run".to_string(),
        ));
    }
    check_exactly_once(&resumed, &mut out.violations);

    let _ = fs::remove_dir_all(&dir);
    out
}

/// Runs `cfg.campaigns` crash campaigns in index order under
/// `scratch` (created if needed, per-campaign subdirectories removed
/// as they finish).
pub fn run_crash_suite(
    inputs: &ChaosInputs<'_>,
    cfg: &ChaosConfig,
    scratch: &Path,
) -> CrashSuiteReport {
    let _ = fs::create_dir_all(scratch);
    // Every campaign panics on purpose; mute the default hook's
    // backtrace spew for the duration (restored before returning).
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let campaigns = (0..cfg.campaigns)
        .map(|i| run_crash_campaign(inputs, cfg, i, scratch))
        .collect();
    std::panic::set_hook(hook);
    CrashSuiteReport { campaigns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffc_core::FfcConfig;
    use ffc_net::prelude::*;

    fn theta() -> (Topology, TrafficMatrix, TunnelTable) {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let c = topo.add_node("c");
        let t = topo.add_node("t");
        let b = topo.add_node("b");
        let d = topo.add_node("d");
        topo.add_bidi(a, t, 10.0);
        topo.add_bidi(a, b, 10.0);
        topo.add_bidi(c, t, 10.0);
        topo.add_bidi(c, b, 10.0);
        topo.add_bidi(t, d, 10.0);
        topo.add_bidi(b, d, 10.0);
        let mut tm = TrafficMatrix::new();
        tm.add_flow(a, d, 8.0, Priority::High);
        tm.add_flow(c, d, 8.0, Priority::High);
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

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ffc-crash-suite-{tag}-{}", std::process::id()))
    }

    #[test]
    fn crash_suite_converges_on_a_healthy_build() {
        let (topo, tm, tunnels) = theta();
        let ins = ChaosInputs {
            topo: &topo,
            tunnels: &tunnels,
            tm: &tm,
            topo_text: "",
            traffic_text: "",
        };
        let mut cfg = ChaosConfig::new(7);
        cfg.campaigns = 14;
        cfg.intervals = 4;
        cfg.ffc = FfcConfig::new(1, 1, 0);
        let dir = scratch("healthy");
        let report = run_crash_suite(&ins, &cfg, &dir);
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(
            report.total_violations(),
            0,
            "healthy build must survive every crash point:\n{}",
            report.summary()
        );
        // All six flavours appear and most points actually fire.
        assert!(report.fired() >= 3, "{}", report.summary());
        assert!(
            report
                .campaigns
                .iter()
                .any(|c| matches!(c.point, CrashPoint::MidRolloutStage(_)) && c.fired),
            "at least one mid-rollout crash should fire:\n{}",
            report.summary()
        );
        assert!(
            report
                .campaigns
                .iter()
                .filter(|c| c.fired && !matches!(c.point, CrashPoint::CorruptLog(_)))
                .all(|c| c.restored_intervals > 0),
            "fired crashes must restore state, not restart from scratch:\n{}",
            report.summary()
        );
        assert!(
            report
                .campaigns
                .iter()
                .filter(|c| {
                    let clean = matches!(
                        c.point,
                        CrashPoint::IntervalBoundary(_) | CrashPoint::MidRolloutStage(_)
                    );
                    !clean && c.fired
                })
                .all(|c| c.fell_back),
            "damaged checkpoints must be skipped via fallback:\n{}",
            report.summary()
        );
    }

    #[test]
    fn crash_suite_is_deterministic() {
        let (topo, tm, tunnels) = theta();
        let ins = ChaosInputs {
            topo: &topo,
            tunnels: &tunnels,
            tm: &tm,
            topo_text: "",
            traffic_text: "",
        };
        let mut cfg = ChaosConfig::new(11);
        cfg.campaigns = 4;
        cfg.intervals = 3;
        let da = scratch("det-a");
        let db = scratch("det-b");
        let a = run_crash_suite(&ins, &cfg, &da);
        let b = run_crash_suite(&ins, &cfg, &db);
        let _ = fs::remove_dir_all(&da);
        let _ = fs::remove_dir_all(&db);
        assert_eq!(a.summary(), b.summary());
    }
}
