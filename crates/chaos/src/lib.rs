//! # ffc-chaos — deterministic fault-injection harness
//!
//! Drives the [`ffc_ctrl`] controller loop through seeded adversarial
//! campaigns and checks the paper's operational invariants after every
//! interval. Everything is a pure function of `(master_seed, campaign
//! index)` — a failing campaign is reproducible from its seed alone,
//! and the harness's own output is bit-stable across runs.
//!
//! One campaign:
//!
//! ```text
//! plan   = generate_campaign(seed)          // storms, bursts, solver chaos
//! live   = Controller::run(plan.events)     // samples rollout outcomes
//! replay = Controller::run(live.recorded)   // must reproduce live bit-for-bit
//! chaos  = Controller::run(perturb(live.recorded))
//!          //  dropped/duplicated/reordered acks, flipped timeouts,
//!          //  whole-interval control-channel loss
//! check(live), check(chaos), fingerprints(live == replay)
//! ```
//!
//! Violations ([`Violation`]) are invariant breaks — congestion within
//! the protection level, rollback landing anywhere but last-known-good,
//! version bookkeeping drift, fingerprint divergence, or a panic.
//! Overloads *beyond* the protection level are expected and counted
//! separately ([`CheckOutcome::observed_overloads`]); regression
//! fixtures assert the detector fires on them (`--expect-violation`).
//!
//! Failing campaigns are shrunk ([`shrink_events`]) to minimal
//! replayable [`EventTrace`]s worth committing as regression files.
//!
//! The [`crash`] module runs kill–resume campaigns against the
//! checkpointing controller: each campaign crashes at a seeded crash
//! point (interval boundary, mid-rollout-stage, or with the newest
//! checkpoint or the history log corrupted/truncated), resumes via
//! [`ffc_ctrl`]'s
//! recovery path, and verifies the resumed run converges to the
//! uninterrupted run's fingerprint with no rollout stage pushed twice
//! ([`Violation::StageReplayed`], [`Violation::ResumeFailed`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod crash;
pub mod injector;
pub mod shrink;

use ffc_core::FfcConfig;
use ffc_ctrl::{
    ChaosHooks, Controller, ControllerConfig, ControllerReport, EventTrace, TimedEvent,
};
use ffc_net::{Topology, TrafficMatrix, TunnelTable};
use ffc_sim::SwitchModel;

pub use checker::{check_run, compare_fingerprints, CheckOutcome, Violation};
pub use crash::{
    run_crash_campaign, run_crash_suite, CrashCampaignOutcome, CrashPoint, CrashSuiteReport,
};
pub use injector::{
    campaign_seed, generate_campaign, generate_campaign_shaped, perturb_outcomes, CampaignKind,
    CampaignPlan, PerturbPlan, ShapingInputs, SolverChaosPlan,
};
pub use shrink::shrink_events;

/// Harness parameters.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed; campaign `i` runs under
    /// [`campaign_seed`]`(master_seed, i)`.
    pub master_seed: u64,
    /// Number of campaigns.
    pub campaigns: usize,
    /// TE intervals per campaign.
    pub intervals: usize,
    /// Requested protection level.
    pub ffc: FfcConfig,
    /// Switch latency/failure model for live runs.
    pub switch_model: SwitchModel,
    /// Tunnels per flow (recorded in emitted trace headers).
    pub tunnels_per_flow: usize,
    /// Shrink failing traces (each shrink step costs one replay).
    pub shrink: bool,
    /// Emit a shrunk over-`k` overload trace from the first campaign
    /// that observes one (the `--expect-violation` regression fixture).
    pub emit_overload_trace: bool,
    /// Fuzz demand with the fleet's reusable shapes (diurnal ramps,
    /// flash crowds, per-source skew) on top of the base scale/burst
    /// stream. Off by default: the plain stream is what the committed
    /// fixture traces were generated from.
    pub shape_demand: bool,
    /// Mean per-link utilization (e.g. read from a telemetry store via
    /// `ffc_fleet::TelemetryStore::link_heat`) that re-aims fault
    /// storms at the hottest links — coverage-guided chaos.
    pub link_heat: Option<Vec<f64>>,
}

impl ChaosConfig {
    /// Defaults: 25 campaigns × 4 intervals at protection `(1, 1, 0)`.
    pub fn new(master_seed: u64) -> Self {
        ChaosConfig {
            master_seed,
            campaigns: 25,
            intervals: 4,
            ffc: FfcConfig::new(1, 1, 0),
            switch_model: SwitchModel::Realistic,
            tunnels_per_flow: 3,
            shrink: true,
            emit_overload_trace: false,
            shape_demand: false,
            link_heat: None,
        }
    }
}

/// The workload a harness run drives: parsed topology/tunnels/traffic
/// plus their opaque text forms (embedded into emitted traces so they
/// are self-contained).
pub struct ChaosInputs<'a> {
    /// Switch-level topology.
    pub topo: &'a Topology,
    /// Tunnel layout.
    pub tunnels: &'a TunnelTable,
    /// Base traffic matrix.
    pub tm: &'a TrafficMatrix,
    /// Topology in the CLI text format.
    pub topo_text: &'a str,
    /// Traffic in the CLI text format.
    pub traffic_text: &'a str,
}

/// What one campaign produced.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign index.
    pub index: usize,
    /// Derived seed (reproduces the campaign alone).
    pub seed: u64,
    /// Adversity flavour.
    pub kind: CampaignKind,
    /// Invariant violations (empty on a healthy build).
    pub violations: Vec<Violation>,
    /// Intervals with any overload in the adversarial replay (expected
    /// for over-`k` campaigns).
    pub observed_overloads: usize,
    /// Shrunk replayable trace reproducing the first violation.
    pub failure_trace: Option<String>,
    /// Shrunk replayable trace demonstrating an over-`k` overload.
    pub overload_trace: Option<String>,
}

/// Aggregate of a harness run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Per-campaign results, in index order.
    pub campaigns: Vec<CampaignReport>,
}

impl ChaosReport {
    /// Total invariant violations across campaigns.
    pub fn total_violations(&self) -> usize {
        self.campaigns.iter().map(|c| c.violations.len()).sum()
    }

    /// Campaigns that observed at least one (gated-out) overload.
    pub fn campaigns_with_overloads(&self) -> usize {
        self.campaigns
            .iter()
            .filter(|c| c.observed_overloads > 0)
            .count()
    }

    /// Deterministic one-line-per-campaign summary (safe to diff across
    /// runs for bit-reproducibility checks).
    pub fn summary(&self) -> String {
        let mut s = String::new();
        for c in &self.campaigns {
            s.push_str(&format!(
                "campaign {:3} seed {:20} kind {:12} violations {} overload-intervals {}\n",
                c.index,
                c.seed,
                c.kind.as_str(),
                c.violations.len(),
                c.observed_overloads
            ));
            for v in &c.violations {
                s.push_str(&format!("  VIOLATION: {v}\n"));
            }
        }
        s.push_str(&format!(
            "{} campaigns: {} violation(s), {} campaign(s) with over-k overloads\n",
            self.campaigns.len(),
            self.total_violations(),
            self.campaigns_with_overloads()
        ));
        s
    }
}

/// Builds the controller configuration a campaign runs under (solver
/// chaos knobs threaded into the simplex options and chaos hooks).
fn controller_config(cfg: &ChaosConfig, plan: &CampaignPlan) -> ControllerConfig {
    let mut c = ControllerConfig::new(cfg.ffc.clone(), cfg.switch_model);
    c.seed = plan.seed;
    if let Some(n) = plan.solver.max_iters {
        c.opts.max_iters = n;
    }
    if let Some(n) = plan.solver.inject_singular_after {
        c.opts.inject_singular_after = n;
    }
    c.chaos = ChaosHooks {
        poison_hint_intervals: plan.solver.poison_hint_intervals.clone(),
        ..ChaosHooks::default()
    };
    c
}

/// Runs the controller over `events`, catching panics. `Err` carries
/// the panic message.
fn guarded_run(
    inputs: &ChaosInputs<'_>,
    cfg: &ControllerConfig,
    events: &[TimedEvent],
    intervals: usize,
    replay: bool,
) -> Result<ControllerReport, String> {
    crash::guarded(|| {
        let mut ctrl = Controller::new(inputs.topo, inputs.tunnels, cfg.clone());
        ctrl.run(inputs.tm, events, intervals, replay)
    })
}

/// Runs one campaign: live, determinism replay, adversarial replay,
/// invariant checks, and (on failure) shrinking.
pub fn run_campaign(inputs: &ChaosInputs<'_>, cfg: &ChaosConfig, index: usize) -> CampaignReport {
    let shaping = ShapingInputs {
        tm: cfg.shape_demand.then_some(inputs.tm),
        link_heat: cfg.link_heat.as_deref(),
    };
    let plan = generate_campaign_shaped(
        inputs.topo,
        &cfg.ffc,
        cfg.master_seed,
        index,
        cfg.intervals,
        &shaping,
    );
    let ctrl_cfg = controller_config(cfg, &plan);
    let mut report = CampaignReport {
        index,
        seed: plan.seed,
        kind: plan.kind,
        violations: Vec::new(),
        observed_overloads: 0,
        failure_trace: None,
        overload_trace: None,
    };

    // 1. Live run.
    let live = match guarded_run(inputs, &ctrl_cfg, &plan.events, cfg.intervals, false) {
        Ok(r) => r,
        Err(msg) => {
            report.violations.push(Violation::Panic(msg));
            return report;
        }
    };
    report
        .violations
        .extend(check_run(&plan.events, &live).violations);

    // 2. Replay of the recorded trace must reproduce the fingerprint.
    match guarded_run(
        inputs,
        &ctrl_cfg,
        &live.recorded_events,
        cfg.intervals,
        true,
    ) {
        Ok(replayed) => {
            if let Some(v) = compare_fingerprints(&live.fingerprint(), &replayed.fingerprint()) {
                report.violations.push(v);
            }
        }
        Err(msg) => report.violations.push(Violation::Panic(msg)),
    }

    // 3. Adversarial replay: perturbed ack stream.
    let perturbed = perturb_outcomes(&live.recorded_events, &plan.perturb, plan.seed);
    let chaos_check = match guarded_run(inputs, &ctrl_cfg, &perturbed, cfg.intervals, true) {
        Ok(r) => check_run(&perturbed, &r),
        Err(msg) => {
            report.violations.push(Violation::Panic(msg));
            CheckOutcome::default()
        }
    };
    report.observed_overloads = chaos_check.observed_overloads;
    report.violations.extend(chaos_check.violations);

    // 4. Shrink failing (or overload-demonstrating) traces to minimal
    //    replayable regression files.
    let header = ctrl_cfg.to_header(cfg.intervals, cfg.tunnels_per_flow);
    let make_trace = |events: Vec<TimedEvent>| EventTrace {
        header: header.clone(),
        topo_text: inputs.topo_text.to_string(),
        traffic_text: inputs.traffic_text.to_string(),
        events,
    };
    let has_gated_violation = |events: &[TimedEvent]| {
        guarded_run(inputs, &ctrl_cfg, events, cfg.intervals, true)
            .map(|r| !check_run(events, &r).violations.is_empty())
            .unwrap_or(true) // a panicking shrunk trace still reproduces a bug
    };
    let gated_failure = report.violations.iter().any(|v| {
        !matches!(
            v,
            Violation::FingerprintMismatch { .. } | Violation::NonDeterministic
        )
    });
    if gated_failure && has_gated_violation(&perturbed) {
        let events = if cfg.shrink {
            shrink_events(perturbed.clone(), has_gated_violation)
        } else {
            perturbed.clone()
        };
        report.failure_trace = Some(make_trace(events).to_text());
    }
    if cfg.emit_overload_trace && chaos_check.observed_overloads > 0 {
        let observes_overload = |events: &[TimedEvent]| {
            guarded_run(inputs, &ctrl_cfg, events, cfg.intervals, true)
                .map(|r| check_run(events, &r).observed_overloads > 0)
                .unwrap_or(false)
        };
        let events = if cfg.shrink {
            shrink_events(perturbed, observes_overload)
        } else {
            perturbed
        };
        report.overload_trace = Some(make_trace(events).to_text());
    }
    report
}

/// Runs the whole harness: `cfg.campaigns` campaigns in index order,
/// handing each to `on_campaign` as it finishes.
pub fn run_chaos(
    inputs: &ChaosInputs<'_>,
    cfg: &ChaosConfig,
    mut on_campaign: impl FnMut(&CampaignReport),
) -> ChaosReport {
    let campaigns = (0..cfg.campaigns)
        .map(|i| {
            let c = run_campaign(inputs, cfg, i);
            on_campaign(&c);
            c
        })
        .collect();
    ChaosReport { campaigns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffc_net::prelude::*;

    /// A "theta" topology: two flows (a→d, c→d) sharing the two middle
    /// links t→d and b→d — a re-route under a link failure forces the
    /// flows to swap paths, so a stale ingress collides with the fresh
    /// one and overloads a middle link. The classic over-`k` scenario.
    fn theta() -> (Topology, TrafficMatrix, TunnelTable, String, String) {
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
        let topo_text = "node a\nnode c\nnode t\nnode b\nnode d\n\
                         bidi a t 10\nbidi a b 10\nbidi c t 10\nbidi c b 10\n\
                         bidi t d 10\nbidi b d 10\n"
            .to_string();
        let traffic_text = "flow a d 8 high\nflow c d 8 high\n".to_string();
        (topo, tm, tunnels, topo_text, traffic_text)
    }

    fn inputs<'a>(
        topo: &'a Topology,
        tunnels: &'a TunnelTable,
        tm: &'a TrafficMatrix,
        topo_text: &'a str,
        traffic_text: &'a str,
    ) -> ChaosInputs<'a> {
        ChaosInputs {
            topo,
            tunnels,
            tm,
            topo_text,
            traffic_text,
        }
    }

    #[test]
    fn harness_is_deterministic() {
        let (topo, tm, tunnels, tt, dt) = theta();
        let ins = inputs(&topo, &tunnels, &tm, &tt, &dt);
        let mut cfg = ChaosConfig::new(5);
        cfg.campaigns = 4;
        cfg.intervals = 3;
        let a = run_chaos(&ins, &cfg, |_| {});
        let b = run_chaos(&ins, &cfg, |_| {});
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn within_k_campaigns_are_violation_free() {
        let (topo, tm, tunnels, tt, dt) = theta();
        let ins = inputs(&topo, &tunnels, &tm, &tt, &dt);
        let mut cfg = ChaosConfig::new(1);
        cfg.campaigns = 12;
        cfg.intervals = 3;
        let report = run_chaos(&ins, &cfg, |_| {});
        assert_eq!(
            report.total_violations(),
            0,
            "healthy build must pass every campaign:\n{}",
            report.summary()
        );
    }

    #[test]
    fn solver_chaos_campaigns_survive_and_reproduce() {
        let (topo, tm, tunnels, tt, dt) = theta();
        let ins = inputs(&topo, &tunnels, &tm, &tt, &dt);
        let mut cfg = ChaosConfig::new(2);
        cfg.campaigns = 24;
        cfg.intervals = 3;
        let report = run_chaos(&ins, &cfg, |_| {});
        assert_eq!(report.total_violations(), 0, "{}", report.summary());
        assert!(
            report
                .campaigns
                .iter()
                .any(|c| c.kind == CampaignKind::SolverChaos),
            "24 campaigns should include solver chaos"
        );
    }

    #[test]
    fn sabotaged_solves_never_yield_accepted_uncertified_configs() {
        // Arm every solver-sabotage knob at once: the chained warm
        // hint is poisoned before every re-solve AND the factorization
        // is deterministically corrupted mid-solve. Whatever the
        // solver manages to return, every interval that accepts a new
        // configuration must carry a passing certificate from the
        // independent verifier — sabotage may cost solves (rollbacks,
        // degraded protection), never certification integrity.
        let (topo, tm, tunnels, _tt, _dt) = theta();
        for singular_after in [0usize, 1, 5, 20] {
            let mut cfg = ControllerConfig::new(FfcConfig::new(1, 1, 0), SwitchModel::Optimistic);
            cfg.chaos = ChaosHooks {
                poison_hint_intervals: (0..4).collect(),
                ..ChaosHooks::default()
            };
            cfg.opts.inject_singular_after = singular_after;
            let mut ctrl = ffc_ctrl::Controller::new(&topo, &tunnels, cfg);
            let report = ctrl.run(&tm, &[], 4, false);
            for t in &report.telemetry {
                if !t.rolled_back {
                    assert!(
                        t.certificate != "rejected",
                        "sabotage (inject_singular_after = {singular_after}) produced an \
                         accepted-but-rejected config at interval {}",
                        t.interval
                    );
                }
            }
            let out = check_run(&[], &report);
            assert!(
                !out.violations
                    .iter()
                    .any(|v| matches!(v, Violation::Uncertified { .. })),
                "inject_singular_after = {singular_after}: {:?}",
                out.violations
            );
        }
    }

    #[test]
    fn over_k_ack_loss_trips_the_ungated_detector() {
        // Protection kc = 0: a single stale ingress is already beyond
        // the control-plane protection, so path-swapping re-routes can
        // overload a middle link — the detector must observe it (and
        // must NOT report it as a gated violation).
        let (topo, tm, tunnels, tt, dt) = theta();
        let ins = inputs(&topo, &tunnels, &tm, &tt, &dt);
        let mut tripped = false;
        for seed in 0..24 {
            let mut cfg = ChaosConfig::new(seed);
            cfg.campaigns = 8;
            cfg.intervals = 3;
            cfg.ffc = FfcConfig::new(0, 1, 0);
            cfg.emit_overload_trace = true;
            let report = run_chaos(&ins, &cfg, |_| {});
            assert_eq!(report.total_violations(), 0, "{}", report.summary());
            if report.campaigns_with_overloads() > 0 {
                tripped = true;
                // The emitted trace must itself replay to an overload.
                let c = report
                    .campaigns
                    .iter()
                    .find(|c| c.overload_trace.is_some())
                    .unwrap();
                let trace = EventTrace::parse(c.overload_trace.as_ref().unwrap()).unwrap();
                assert!(!trace.events.is_empty());
                break;
            }
        }
        assert!(tripped, "no seed in 0..24 observed an over-k overload");
    }
}
