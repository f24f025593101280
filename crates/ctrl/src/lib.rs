//! # ffc-ctrl — online TE controller loop
//!
//! The operational half the paper assumes but the offline solvers don't
//! model (§2, §5.2): a controller that, every TE interval, ingests
//! events (demand updates, faults, operator changes), re-optimizes the
//! FFC model **warm** from the previous interval's basis, rolls the new
//! configuration out congestion-free against the switch model, and
//! drives the data plane — here `ffc-sim`'s step-wise
//! [`DrivenSim`], which the controller owns rather
//! than the other way around.
//!
//! ```text
//!  events ─▶ Controller::run ─┬─ planner  (warm FFC re-solve, ladder)
//!                             ├─ executor (§5.5 staged rollout)
//!                             ├─ state    (versioned configs + basis)
//!                             ├─ DrivenSim (loss accounting)
//!                             └─ telemetry (JSONL) + recorded trace
//! ```
//!
//! Live runs record the rollout outcomes they sample; replaying the
//! recorded trace ([`replay::EventTrace`]) consumes them instead and
//! reproduces the run's telemetry fingerprints bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod durable;
pub mod event;
pub mod executor;
pub mod planner;
pub mod replay;
pub mod state;
pub mod supervisor;
pub mod telemetry;

use std::time::Duration;

use ffc_core::{FfcConfig, TeConfig, TeProblem};
use ffc_lp::{Algorithm, SimplexOptions};
use ffc_net::{FaultScenario, FlowId, LinkId, NodeId, Topology, TrafficMatrix, TunnelTable};
use ffc_sim::{DrivenSim, RunTotals, SwitchModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub use checkpoint::{
    config_digest, recover_latest, CheckpointState, Checkpointer, InflightRollout,
    RecoveredCheckpoint, Recovery,
};
pub use event::{Event, TimedEvent};
pub use executor::{ExecutorConfig, OutcomeSource, RolloutReport, StageEvent};
pub use planner::{PlanOutcome, Planner, PlannerConfig, PlannerSnapshot, SolvePath};
pub use replay::{generate_poisson_events, EventTrace, TraceHeader};
pub use state::{ConfigStore, HintShape, StoreSnapshot, VersionedConfig};
pub use supervisor::{run_supervised, Supervised, SupervisedOutcome, SupervisorConfig};
pub use telemetry::{IntervalTelemetry, TELEMETRY_SCHEMA_VERSION};

/// Fault-injection hooks the chaos harness threads into a run. All
/// hooks are deterministic functions of the configuration, so a replay
/// configured with the same hooks reproduces the run bit-for-bit.
/// `Default` (no hooks) is production behaviour.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosHooks {
    /// Intervals whose chained warm-basis hint is deterministically
    /// scrambled before the re-solve ([`ConfigStore::poison_hint`]):
    /// the solver must repair or cold-restart, never crash or return a
    /// wrong optimum.
    pub poison_hint_intervals: Vec<usize>,
    /// Simulated crash (panic) right after the boundary checkpoint of
    /// this interval is written — the "killed between intervals" crash
    /// point. The harness catches the panic, resumes from the
    /// checkpoint directory, and asserts fingerprint convergence; it
    /// disarms the hook for the resumed run.
    pub crash_at_interval: Option<usize>,
    /// Simulated crash after the mid-rollout checkpoint of
    /// `(interval, stage)` is written — the "killed with a half-pushed
    /// update" crash point. Fires only when a checkpointer is attached
    /// (stage checkpoints exist only then).
    pub crash_mid_rollout: Option<(usize, usize)>,
}

impl ChaosHooks {
    /// Whether any hook is armed.
    pub fn is_active(&self) -> bool {
        *self != ChaosHooks::default()
    }
}

/// Controller parameters (the union of planner + executor knobs).
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Requested protection level.
    pub ffc: FfcConfig,
    /// TE interval length in seconds.
    pub interval_secs: f64,
    /// Planner solve deadline.
    pub solve_deadline: Duration,
    /// Rescale-only recovery probe period (intervals).
    pub recovery_probe: usize,
    /// Rollout step budget.
    pub max_update_steps: usize,
    /// Rule changes per switch per rollout step.
    pub rules_per_update: usize,
    /// Switch latency/failure model.
    pub switch_model: SwitchModel,
    /// RNG seed for live-run sampling.
    pub seed: u64,
    /// Backoff before re-issuing a timed-out switch update.
    pub retry_timeout_secs: f64,
    /// Bounded update retries per broken switch per rollout.
    pub max_retries: usize,
    /// Simplex options (`Auto` routes warm bases through the dual path).
    pub opts: SimplexOptions,
    /// Patch the planner's standing FFC model across intervals instead
    /// of rebuilding it every round (default: on). Deliberately *not*
    /// part of the trace header: a patched model is bit-identical to a
    /// fresh build, so traces recorded either way replay under either
    /// setting with identical fingerprints.
    pub incremental: bool,
    /// Fault-injection hooks (default: none). Only the chaos harness
    /// sets these.
    pub chaos: ChaosHooks,
}

impl ControllerConfig {
    /// Defaults matching the paper's operating point.
    pub fn new(ffc: FfcConfig, switch_model: SwitchModel) -> Self {
        ControllerConfig {
            ffc,
            interval_secs: 300.0,
            solve_deadline: Duration::from_secs(30),
            recovery_probe: 3,
            max_update_steps: 3,
            rules_per_update: 35,
            switch_model,
            seed: 42,
            retry_timeout_secs: 10.0,
            max_retries: 2,
            opts: SimplexOptions {
                algorithm: Algorithm::Auto,
                ..SimplexOptions::default()
            },
            incremental: true,
            chaos: ChaosHooks::default(),
        }
    }

    /// The configuration a trace header describes.
    pub fn from_header(h: &replay::TraceHeader) -> Self {
        let mut cfg = ControllerConfig::new(FfcConfig::new(h.kc, h.ke, h.kv), h.switch_model);
        cfg.interval_secs = h.interval_secs;
        cfg.solve_deadline = Duration::from_millis(h.solve_deadline_ms);
        cfg.max_update_steps = h.max_update_steps;
        cfg.seed = h.seed;
        cfg
    }

    /// The header describing this configuration (for trace recording).
    pub fn to_header(&self, intervals: usize, tunnels_per_flow: usize) -> replay::TraceHeader {
        replay::TraceHeader {
            intervals,
            interval_secs: self.interval_secs,
            kc: self.ffc.kc,
            ke: self.ffc.ke,
            kv: self.ffc.kv,
            tunnels_per_flow,
            switch_model: self.switch_model,
            seed: self.seed,
            max_update_steps: self.max_update_steps,
            solve_deadline_ms: self.solve_deadline.as_millis() as u64,
        }
    }
}

/// What a controller run produced.
#[derive(Debug, Clone)]
pub struct ControllerReport {
    /// One record per interval.
    pub telemetry: Vec<IntervalTelemetry>,
    /// Aggregate delivery/loss volumes.
    pub totals: RunTotals,
    /// The input events plus, on live runs, the recorded rollout
    /// outcomes — replayable via [`Controller::run`] with `replay`.
    pub recorded_events: Vec<TimedEvent>,
    /// Fingerprint lines of intervals completed *before* a resume
    /// (restored from the checkpoint; empty on uninterrupted runs).
    /// [`ControllerReport::fingerprint`] emits them first, which is
    /// what makes a resumed run's fingerprint bit-identical to the
    /// uninterrupted run's.
    pub prior_fingerprints: Vec<String>,
}

impl ControllerReport {
    /// The deterministic fingerprint of the whole run (one line per
    /// interval, see [`IntervalTelemetry::fingerprint`]), including
    /// pre-resume intervals on resumed runs.
    pub fn fingerprint(&self) -> String {
        let mut s = String::new();
        for line in &self.prior_fingerprints {
            s.push_str(line);
            s.push('\n');
        }
        for t in &self.telemetry {
            s.push_str(&t.fingerprint());
            s.push('\n');
        }
        s
    }
}

/// Per-interval observer a run streams into (e.g. `ffc-fleet`'s
/// telemetry store). Called once per interval, after the interval's
/// telemetry record is final, with the steady-state per-link
/// *utilization* (load / capacity, indexed by `LinkId::index()`).
///
/// Sinks are observability only: a run with a sink is bit-identical to
/// a run without one.
pub trait IntervalSink {
    /// Records one interval.
    fn record(&mut self, telemetry: &IntervalTelemetry, link_util: &[f64]);
}

/// The online controller: owns the planner, executor, config store, and
/// the driven data-plane simulator.
pub struct Controller<'a> {
    topo: &'a Topology,
    tunnels: &'a TunnelTable,
    cfg: ControllerConfig,
}

impl<'a> Controller<'a> {
    /// A controller over a fixed topology and tunnel layout.
    pub fn new(topo: &'a Topology, tunnels: &'a TunnelTable, cfg: ControllerConfig) -> Self {
        Controller { topo, tunnels, cfg }
    }

    /// Runs `intervals` TE intervals over the event stream.
    ///
    /// With `replay = false` the rollout samples switch behaviour from
    /// the seeded RNG and the returned `recorded_events` include the
    /// sampled outcomes. With `replay = true` the outcomes are taken
    /// from `events` instead (they must have been recorded by a live
    /// run) and the telemetry fingerprint reproduces the live run's.
    pub fn run(
        &mut self,
        base_tm: &TrafficMatrix,
        events: &[TimedEvent],
        intervals: usize,
        replay: bool,
    ) -> ControllerReport {
        self.run_with_sink(base_tm, events, intervals, replay, None)
    }

    /// [`Controller::run`] with an optional per-interval observer.
    ///
    /// The sink sees each interval's finished telemetry record plus the
    /// data plane's steady-state link utilization; it cannot influence
    /// the run, so telemetry fingerprints are identical with and
    /// without one.
    pub fn run_with_sink(
        &mut self,
        base_tm: &TrafficMatrix,
        events: &[TimedEvent],
        intervals: usize,
        replay: bool,
        sink: Option<&mut dyn IntervalSink>,
    ) -> ControllerReport {
        self.run_with_recovery(base_tm, events, intervals, replay, sink, None, None)
    }

    /// The digest guarding this controller's checkpoints: resuming
    /// under a different configuration, topology, tunnel layout, or
    /// base traffic matrix is refused ([`checkpoint::recover_latest`]).
    pub fn checkpoint_digest(&self, base_tm: &TrafficMatrix) -> u64 {
        checkpoint::config_digest(&self.cfg, self.topo, self.tunnels, base_tm)
    }

    /// [`Controller::run_with_sink`] with durable crash recovery.
    ///
    /// With `ckpt` attached, the run writes an atomic checksummed
    /// checkpoint at every interval boundary and at every
    /// rollout-stage boundary. With `resume`, the run continues from a
    /// recovered checkpoint instead of interval 0: loop state is
    /// restored bit-exactly, an in-flight rollout is completed from
    /// its durable outcome log (acked stages are consumed, never
    /// re-pushed — exactly-once), and the report's
    /// [`fingerprint`](ControllerReport::fingerprint) converges to the
    /// uninterrupted run's, bit for bit.
    ///
    /// A sink only observes intervals this process runs itself;
    /// pre-crash intervals were already observed by the crashed
    /// process.
    #[allow(clippy::too_many_arguments)]
    pub fn run_with_recovery(
        &mut self,
        base_tm: &TrafficMatrix,
        events: &[TimedEvent],
        intervals: usize,
        replay: bool,
        mut sink: Option<&mut dyn IntervalSink>,
        mut ckpt: Option<&mut Checkpointer>,
        resume: Option<CheckpointState>,
    ) -> ControllerReport {
        let mut planner = Planner::new(PlannerConfig {
            ffc: self.cfg.ffc.clone(),
            solve_deadline: self.cfg.solve_deadline,
            recovery_probe: self.cfg.recovery_probe,
            opts: self.cfg.opts.clone(),
            incremental: self.cfg.incremental,
        });
        let mut store = ConfigStore::new(TeConfig::zero(self.tunnels));
        let mut sim = DrivenSim::new(self.topo, self.tunnels);
        sim.interval_secs = self.cfg.interval_secs;
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);

        let mut tm = base_tm.clone();
        let mut telemetry = Vec::new();
        let mut totals = RunTotals::default();
        let mut recorded: Vec<TimedEvent> = events
            .iter()
            .filter(|te| !replay || !te.event.is_recorded_outcome())
            .cloned()
            .collect();
        if replay {
            // Keep the recorded outcomes for the report too: a replay's
            // recording is the trace it replayed.
            recorded = events.to_vec();
        }

        // Restore every loop local from the checkpoint. The restored
        // state is exactly what the crashed run held at its last
        // boundary, so the re-run of each remaining interval —
        // event application, warm re-solve, rollout, accounting — is
        // bit-identical to what the uninterrupted run did.
        let mut start_interval = 0usize;
        let mut prior_fingerprints: Vec<String> = Vec::new();
        let mut inflight: Option<InflightRollout> = None;
        if let Some(st) = resume {
            start_interval = st.next_interval;
            for (i, &d) in st.demands.iter().enumerate() {
                if i < tm.len() {
                    tm.set_demand(FlowId(i), d);
                }
            }
            store = ConfigStore::from_snapshot(st.store);
            planner.restore(&st.planner);
            let mut scenario = FaultScenario::none();
            scenario.failed_links = st.failed_links.iter().map(|&i| LinkId(i)).collect();
            scenario.failed_switches = st.failed_switches.iter().map(|&i| NodeId(i)).collect();
            let installed = (st.next_interval > 0).then(|| store.installed().clone());
            sim.restore_boundary(scenario, installed);
            rng = StdRng::from_state(st.rng);
            totals.delivered = st.totals[0];
            totals.lost_congestion = st.totals[1];
            totals.lost_blackhole = st.totals[2];
            prior_fingerprints = st.fingerprints;
            recorded = st.recorded;
            inflight = st.inflight;
        }
        // Fingerprint lines of every completed interval (pre-resume
        // included) — the boundary part of each checkpoint.
        let mut fp_lines = prior_fingerprints.clone();
        // The state at the last interval boundary; a mid-rollout
        // checkpoint is this plus the in-flight record.
        let mut last_boundary: Option<CheckpointState> = ckpt.as_ref().map(|_| {
            boundary_state(
                start_interval,
                &tm,
                &store,
                &planner,
                &sim,
                &rng,
                &totals,
                &fp_lines,
                &recorded,
            )
        });

        for interval in start_interval..intervals {
            // 1. Apply this interval's input events.
            let mut events_applied = 0usize;
            for te in events.iter().filter(|te| te.interval == interval) {
                if te.event.is_recorded_outcome() {
                    continue;
                }
                events_applied += 1;
                // Out-of-range indices and non-finite rates are dropped
                // rather than panicking: a controller fed a corrupted or
                // adversarial event stream must degrade, not die.
                match te.event {
                    Event::DemandScale(f) if f.is_finite() && f >= 0.0 => tm = base_tm.scale(f),
                    Event::DemandScale(_) => events_applied -= 1,
                    Event::DemandSet { flow, demand } => {
                        if flow < tm.len() && demand.is_finite() && demand >= 0.0 {
                            tm.set_demand(ffc_net::FlowId(flow), demand)
                        } else {
                            events_applied -= 1;
                        }
                    }
                    Event::LinkDown(l) if l.index() < self.topo.num_links() => sim.fail_link(l),
                    Event::LinkUp(l) if l.index() < self.topo.num_links() => sim.repair_link(l),
                    Event::LinkDown(_) | Event::LinkUp(_) => events_applied -= 1,
                    Event::SwitchDown(v) if v.index() < self.topo.num_nodes() => sim.fail_switch(v),
                    Event::SwitchUp(v) if v.index() < self.topo.num_nodes() => sim.repair_switch(v),
                    Event::SwitchDown(_) | Event::SwitchUp(_) => events_applied -= 1,
                    Event::SetProtection { kc, ke, kv } => {
                        planner.set_protection(kc, ke, kv, &mut store)
                    }
                    // Recorded outcomes were filtered out above; if one
                    // slips through (hand-built stream), ignore it.
                    Event::UpdateAck { .. } | Event::UpdateTimeout { .. } => events_applied -= 1,
                }
            }

            // 1b. Chaos hooks (no-ops unless armed by the harness).
            if self.cfg.chaos.poison_hint_intervals.contains(&interval) {
                store.poison_hint();
            }

            // 2. Re-solve (or degrade) for the new demands + faults.
            let old = store.installed().clone();
            let problem = TeProblem::new(self.topo, &tm, self.tunnels);
            let outcome = planner.plan(problem, &old, sim.scenario(), &mut store);
            let mut rolled_back = outcome.path == SolvePath::Infeasible;
            // Certification gate: a freshly planned configuration is
            // rolled out only if the independent certifier (ffc-audit)
            // accepts it at the protection level the planner actually
            // solved with. A rejected configuration is refused and the
            // interval falls back to the last-known-good config, same
            // as an infeasible solve.
            let mut certificate = "n/a";
            let target = match &outcome.target {
                Some(t) => {
                    let mut ffc = self.cfg.ffc.clone();
                    ffc.kc = outcome.protection.0;
                    ffc.ke = outcome.protection.1;
                    ffc.kv = outcome.protection.2;
                    let cert =
                        ffc_core::certify_config(self.topo, &tm, self.tunnels, t, Some(&old), &ffc);
                    certificate = cert.status_str();
                    if cert.ok() {
                        store.stage(t.clone());
                        t.clone()
                    } else {
                        rolled_back = true;
                        store.rollback().clone()
                    }
                }
                None if rolled_back => store.rollback().clone(),
                // Rescale-only: hold the installed config; ingress
                // rescaling (inside the sim's load model) absorbs faults.
                None => old.clone(),
            };

            // 3. Roll the target out across the flow ingresses.
            let ingresses = flow_ingresses(&tm);
            let exec_cfg = ExecutorConfig {
                max_steps: self.cfg.max_update_steps,
                kc: outcome.protection.0,
                rules_per_step: self.cfg.rules_per_update,
                switch_model: self.cfg.switch_model,
                cap_secs: self.cfg.interval_secs,
                retry_timeout_secs: self.cfg.retry_timeout_secs,
                max_retries: self.cfg.max_retries,
            };
            // A crash left this interval's rollout in flight: re-plan
            // deterministically (done above — same boundary state, same
            // solve) and consume the durable outcome log instead of
            // sampling. Stages the crashed run already pushed complete
            // from the log — never re-pushed — and the remainder
            // finishes exactly as it would have.
            let resumed_inflight = inflight.take().filter(|f| f.interval == interval);
            let rng_before = rng.state();
            let hook_rng_after = resumed_inflight
                .as_ref()
                .map_or(rng_before, |f| f.rng_after);
            let crash_mid = self.cfg.chaos.crash_mid_rollout;
            let (reached, rollout) = {
                let mut hook_storage;
                let stage_hook: Option<&mut dyn FnMut(StageEvent<'_>)> =
                    match (ckpt.as_deref_mut(), last_boundary.as_ref()) {
                        (Some(ck), Some(bound)) => {
                            hook_storage = |ev: StageEvent<'_>| {
                                let mut st = bound.clone();
                                st.inflight = Some(InflightRollout {
                                    interval,
                                    stage_reached: ev.completed_steps,
                                    steps_planned: ev.steps_planned,
                                    rng_after: ev.rng_state.unwrap_or(hook_rng_after),
                                    outcomes: ev.outcomes.to_vec(),
                                });
                                ck.write(&st);
                                if crash_mid == Some((interval, ev.completed_steps)) {
                                    panic!(
                                        "chaos-crash: mid-rollout interval {interval} stage {}",
                                        ev.completed_steps
                                    );
                                }
                            };
                            Some(&mut hook_storage)
                        }
                        _ => None,
                    };
                let source = if let Some(f) = &resumed_inflight {
                    OutcomeSource::Recorded(&f.outcomes)
                } else if replay {
                    OutcomeSource::Recorded(events)
                } else {
                    OutcomeSource::Sample(&mut rng)
                };
                executor::rollout_staged(
                    self.topo,
                    &tm,
                    self.tunnels,
                    &old,
                    &target,
                    &ingresses,
                    &exec_cfg,
                    interval,
                    source,
                    stage_hook,
                )
            };
            if !replay {
                if let Some(f) = &resumed_inflight {
                    // Re-verification of the half-pushed stage: the
                    // schedule recomputed from the durable log must
                    // reach at least the stage the crashed run acked.
                    // With a checksummed checkpoint and the config
                    // digest guard this cannot diverge short of a bug;
                    // failing loud beats silently double-pushing.
                    assert!(
                        rollout.steps_planned == f.steps_planned
                            && rollout.steps_completed >= f.stage_reached,
                        "resume diverged from the checkpointed rollout of interval {interval}: \
                         planned {} vs {}, completed {} vs acked stage {}",
                        rollout.steps_planned,
                        f.steps_planned,
                        rollout.steps_completed,
                        f.stage_reached,
                    );
                    recorded.extend(f.outcomes.iter().cloned());
                    // Continue later intervals from the post-sampling
                    // RNG state — the crashed run's stream, bit-exact.
                    rng = StdRng::from_state(f.rng_after);
                } else {
                    recorded.extend(rollout.recorded.iter().cloned());
                }
            }
            let full = rollout.completed && rollout.congestion_free_plan && !rolled_back;
            store.commit(reached.clone(), full);

            // 4. Advance the data plane and account the interval.
            let rec = sim.advance(&tm, &reached, &rollout.stale);
            for p in 0..3 {
                totals.delivered[p] += rec.delivered[p];
                totals.lost_congestion[p] += rec.lost_congestion[p];
                totals.lost_blackhole[p] += rec.lost_blackhole[p];
            }
            let stats = outcome.stats.as_ref();
            let record = IntervalTelemetry {
                interval,
                events_applied,
                protection: outcome.protection,
                path: outcome.path,
                degraded: outcome.degraded,
                rolled_back,
                certificate,
                iterations: stats.map_or(0, |s| s.iterations()),
                dual_iterations: stats.map_or(0, |s| s.dual_iterations),
                dual_bound_flips: stats.map_or(0, |s| s.dual_bound_flips),
                solve_ms: outcome.wall.as_secs_f64() * 1e3,
                model_patched: outcome.patched,
                config_version: store.installed_version(),
                rollout_steps_planned: rollout.steps_planned,
                rollout_steps_completed: rollout.steps_completed,
                congestion_free_plan: rollout.congestion_free_plan,
                stale_switches: rollout.stale.len(),
                update_retries: rollout.retries,
                last_good_version: store.last_good_version(),
                rollout_secs: rollout.rollout_secs,
                overloaded_links: rec.overloaded_links,
                max_oversubscription: rec.max_oversubscription,
                delivered: rec.delivered.iter().sum(),
                lost_congestion: rec.lost_congestion.iter().sum(),
                lost_blackhole: rec.lost_blackhole.iter().sum(),
            };
            if let Some(sink) = sink.as_deref_mut() {
                let util: Vec<f64> = self
                    .topo
                    .links()
                    .map(|e| {
                        let cap = self.topo.capacity(e);
                        if cap > 0.0 {
                            rec.link_load[e.index()] / cap
                        } else {
                            0.0
                        }
                    })
                    .collect();
                sink.record(&record, &util);
            }
            if ckpt.is_some() {
                fp_lines.push(record.fingerprint());
            }
            telemetry.push(record);
            if let Some(ck) = ckpt.as_deref_mut() {
                let st = boundary_state(
                    interval + 1,
                    &tm,
                    &store,
                    &planner,
                    &sim,
                    &rng,
                    &totals,
                    &fp_lines,
                    &recorded,
                );
                ck.write(&st);
                last_boundary = Some(st);
            }
            if self.cfg.chaos.crash_at_interval == Some(interval) {
                panic!("chaos-crash: interval boundary {interval}");
            }
        }

        ControllerReport {
            telemetry,
            totals,
            recorded_events: recorded,
            prior_fingerprints,
        }
    }
}

/// The complete controller state at an interval boundary, as a
/// checkpoint (no in-flight rollout).
#[allow(clippy::too_many_arguments)]
fn boundary_state(
    next_interval: usize,
    tm: &TrafficMatrix,
    store: &ConfigStore,
    planner: &Planner,
    sim: &DrivenSim<'_>,
    rng: &StdRng,
    totals: &RunTotals,
    fingerprints: &[String],
    recorded: &[TimedEvent],
) -> CheckpointState {
    CheckpointState {
        next_interval,
        demands: tm.iter().map(|(_, f)| f.demand).collect(),
        store: store.snapshot(),
        planner: planner.snapshot(),
        failed_links: sim
            .scenario()
            .failed_links
            .iter()
            .map(|l| l.index())
            .collect(),
        failed_switches: sim
            .scenario()
            .failed_switches
            .iter()
            .map(|v| v.index())
            .collect(),
        rng: rng.state(),
        totals: [
            totals.delivered,
            totals.lost_congestion,
            totals.lost_blackhole,
        ],
        fingerprints: fingerprints.to_vec(),
        recorded: recorded.to_vec(),
        inflight: None,
    }
}

/// The distinct flow sources — the switches a rollout must update.
fn flow_ingresses(tm: &TrafficMatrix) -> Vec<NodeId> {
    let mut s: Vec<NodeId> = tm.iter().map(|(_, f)| f.src).collect();
    s.sort_unstable();
    s.dedup();
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffc_net::prelude::*;

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

    #[test]
    fn faultless_run_delivers_everything() {
        let (topo, tm, tunnels) = diamond();
        let cfg = ControllerConfig::new(FfcConfig::new(0, 1, 0), SwitchModel::Optimistic);
        let mut ctrl = Controller::new(&topo, &tunnels, cfg);
        let report = ctrl.run(&tm, &[], 4, false);
        assert_eq!(report.telemetry.len(), 4);
        assert!(report.totals.total_lost() < 1e-9, "{:?}", report.totals);
        assert!(report.totals.total_delivered() > 0.0);
        // First interval cold, later intervals warm (identical demands
        // re-solve in zero iterations off the chained basis).
        assert_eq!(report.telemetry[0].path, SolvePath::Cold);
        for t in &report.telemetry[1..] {
            assert!(
                matches!(t.path, SolvePath::WarmDual | SolvePath::WarmPrimal),
                "interval {}: {:?}",
                t.interval,
                t.path
            );
        }
    }

    #[test]
    fn replay_reproduces_fingerprint() {
        let (topo, tm, tunnels) = diamond();
        let cfg = ControllerConfig::new(FfcConfig::new(0, 1, 0), SwitchModel::Realistic);
        let events = vec![
            TimedEvent {
                interval: 1,
                event: Event::DemandScale(0.9),
            },
            TimedEvent {
                interval: 2,
                event: Event::LinkDown(LinkId(0)),
            },
            TimedEvent {
                interval: 3,
                event: Event::LinkUp(LinkId(0)),
            },
        ];
        let mut ctrl = Controller::new(&topo, &tunnels, cfg.clone());
        let live = ctrl.run(&tm, &events, 4, false);
        let mut ctrl2 = Controller::new(&topo, &tunnels, cfg);
        let replayed = ctrl2.run(&tm, &live.recorded_events, 4, true);
        assert_eq!(live.fingerprint(), replayed.fingerprint());
        assert!((live.totals.total_delivered() - replayed.totals.total_delivered()).abs() < 1e-12);
    }

    /// The interval count comes from a trace header: nothing may be
    /// sized from it before the loop has run that far. With the crash
    /// hook armed at interval 0 the run must get there, not die in an
    /// allocation of `usize::MAX` records.
    #[test]
    fn an_absurd_interval_count_is_not_preallocated() {
        let (topo, tm, tunnels) = diamond();
        let mut cfg = ControllerConfig::new(FfcConfig::new(0, 1, 0), SwitchModel::Optimistic);
        cfg.chaos.crash_at_interval = Some(0);
        let mut ctrl = Controller::new(&topo, &tunnels, cfg);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctrl.run_with_recovery(&tm, &[], usize::MAX, false, None, None, None)
        }))
        .expect_err("the armed crash point must fire");
        assert_eq!(
            panic.downcast_ref::<String>().map(String::as_str),
            Some("chaos-crash: interval boundary 0")
        );
    }

    #[test]
    fn fault_within_protection_causes_no_congestion_loss() {
        let (topo, tm, tunnels) = diamond();
        let cfg = ControllerConfig::new(FfcConfig::new(0, 1, 0), SwitchModel::Optimistic);
        // One directed link down at interval 1 — within ke = 1.
        let events = vec![TimedEvent {
            interval: 1,
            event: Event::LinkDown(LinkId(0)),
        }];
        let mut ctrl = Controller::new(&topo, &tunnels, cfg);
        let report = ctrl.run(&tm, &events, 3, false);
        let congestion: f64 = report.totals.lost_congestion.iter().sum();
        assert!(congestion < 1e-9, "congestion {congestion}");
    }
}
