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

use ffc_core::{CacheStats, FfcConfig, TeConfig, TeProblem};
use ffc_lp::{Algorithm, SimplexOptions};
use ffc_net::{FaultScenario, FlowId, LinkId, NodeId, Topology, TrafficMatrix, TunnelTable};
use ffc_sim::{DrivenInterval, DrivenSim, RunTotals, SwitchModel};
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

    /// The rollout policy for an interval planned at `kc`.
    fn executor(&self, kc: usize) -> ExecutorConfig {
        ExecutorConfig {
            max_steps: self.max_update_steps,
            kc,
            rules_per_step: self.rules_per_update,
            switch_model: self.switch_model,
            cap_secs: self.interval_secs,
            retry_timeout_secs: self.retry_timeout_secs,
            max_retries: self.max_retries,
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

    /// What the plan stage did, before the interval's
    /// [`record`](IntervalSink::record): the planner's outcome with the
    /// raw solver statistics ([`ffc_lp::SolveStats::hint_used`] among
    /// them) and the standing model's running tally
    /// ([`Planner::cache_stats`]) — what the telemetry record, whose
    /// field set is the fingerprint's, does not carry.
    fn planned(&mut self, _outcome: &PlanOutcome, _model: CacheStats) {}
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
        ckpt: Option<&mut Checkpointer>,
        resume: Option<CheckpointState>,
    ) -> ControllerReport {
        let mut st = LoopState::new(self, base_tm, events, replay);
        let start = resume.map_or(0, |ck| st.restore(ck));
        let prior = st.fp_lines.len();
        let mut durable = ckpt.map(|ck| Durable {
            last: st.checkpoint(start),
            ck,
        });
        let mut telemetry = Vec::new();
        for interval in start..intervals {
            let events_applied = st.apply_events(interval);
            let outcome = st.plan(interval);
            if let Some(sink) = sink.as_deref_mut() {
                sink.planned(&outcome, st.planner.cache_stats());
            }
            let gate = st.certify(&outcome);
            let (reached, rollout) = st.roll_out(
                interval,
                &gate.target,
                outcome.protection.0,
                durable.as_mut(),
            );
            let rec = st.commit_and_advance(reached, &rollout, gate.rolled_back);
            let record =
                st.telemetry_record(interval, events_applied, &outcome, &gate, &rollout, &rec);
            if let Some(sink) = sink.as_deref_mut() {
                sink.record(&record, &link_utilization(self.topo, &rec));
            }
            st.close_interval(interval, &record, durable.as_mut());
            telemetry.push(record);
        }
        st.fp_lines.truncate(prior);
        ControllerReport {
            telemetry,
            totals: st.totals,
            recorded_events: st.recorded,
            prior_fingerprints: st.fp_lines,
        }
    }
}

/// The run's constant inputs and everything the loop carries from one
/// interval to the next, stepped by the stage functions in the order
/// [`Controller::run_with_recovery`] calls them. Only `checkpoint` and
/// `restore` map it to and from a [`CheckpointState`].
struct LoopState<'a> {
    ctrl: &'a Controller<'a>,
    base_tm: &'a TrafficMatrix,
    events: &'a [TimedEvent],
    replay: bool,
    tm: TrafficMatrix,
    store: ConfigStore,
    planner: Planner,
    sim: DrivenSim<'a>,
    rng: StdRng,
    totals: RunTotals,
    /// Fingerprint line of every completed interval, pre-resume ones
    /// included; grows only while a checkpointer is attached.
    fp_lines: Vec<String>,
    /// The input events plus, on live runs, the outcomes sampled so far.
    recorded: Vec<TimedEvent>,
    /// A rollout the recovered checkpoint caught in flight.
    inflight: Option<InflightRollout>,
}

/// A run's checkpointer and the state it last made durable (a
/// mid-rollout checkpoint is the last boundary plus the in-flight record).
struct Durable<'c> {
    ck: &'c mut Checkpointer,
    last: CheckpointState,
}

impl Durable<'_> {
    /// Writes `last` with the run's two histories lent to it: moved in
    /// for the write and back out, never copied, so a checkpoint costs
    /// what the interval added and not what the run has accumulated.
    fn write(&mut self, fp_lines: &mut Vec<String>, recorded: &mut Vec<TimedEvent>) {
        let mut lend = |last: &mut CheckpointState| {
            std::mem::swap(&mut last.fingerprints, fp_lines);
            std::mem::swap(&mut last.recorded, recorded);
        };
        lend(&mut self.last);
        self.ck.write(&self.last);
        lend(&mut self.last);
    }
}

/// What the certification gate decided for one interval.
struct Gate {
    target: TeConfig,
    certificate: &'static str,
    rolled_back: bool,
}

impl<'a> LoopState<'a> {
    /// The state before interval 0.
    fn new(
        ctrl: &'a Controller<'a>,
        base_tm: &'a TrafficMatrix,
        events: &'a [TimedEvent],
        replay: bool,
    ) -> Self {
        let cfg = &ctrl.cfg;
        let mut sim = DrivenSim::new(ctrl.topo, ctrl.tunnels);
        sim.interval_secs = cfg.interval_secs;
        LoopState {
            ctrl,
            base_tm,
            events,
            replay,
            tm: base_tm.clone(),
            store: ConfigStore::new(TeConfig::zero(ctrl.tunnels)),
            planner: Planner::new(PlannerConfig {
                ffc: cfg.ffc.clone(),
                solve_deadline: cfg.solve_deadline,
                recovery_probe: cfg.recovery_probe,
                opts: cfg.opts.clone(),
                incremental: cfg.incremental,
            }),
            sim,
            rng: StdRng::seed_from_u64(cfg.seed),
            totals: RunTotals::default(),
            fp_lines: Vec::new(),
            // A replay's recording is the trace it replayed, outcomes
            // included; a live run appends the outcomes it samples.
            recorded: events.to_vec(),
            inflight: None,
        }
    }

    /// Overwrites the state with a recovered checkpoint and returns the
    /// interval to continue from: exactly what the crashed run held, so
    /// each remaining interval re-runs bit-identical to an
    /// uninterrupted run.
    fn restore(&mut self, ck: CheckpointState) -> usize {
        let CheckpointState {
            next_interval,
            demands,
            store,
            planner,
            failed_links,
            failed_switches,
            rng,
            totals: [delivered, lost_congestion, lost_blackhole],
            fingerprints,
            recorded,
            inflight,
        } = ck;
        for (i, &d) in demands.iter().enumerate().take(self.tm.len()) {
            self.tm.set_demand(FlowId(i), d);
        }
        self.store = ConfigStore::from_snapshot(store);
        self.planner.restore(&planner);
        let mut scenario = FaultScenario::none();
        scenario.failed_links = failed_links.into_iter().map(LinkId).collect();
        scenario.failed_switches = failed_switches.into_iter().map(NodeId).collect();
        let installed = (next_interval > 0).then(|| self.store.installed().clone());
        self.sim.restore_boundary(scenario, installed);
        self.rng = StdRng::from_state(rng);
        self.totals = RunTotals {
            delivered,
            lost_congestion,
            lost_blackhole,
        };
        self.fp_lines = fingerprints;
        self.recorded = recorded;
        self.inflight = inflight;
        next_interval
    }

    /// The state as a checkpoint to resume from at `next_interval`, less
    /// the two histories: [`Durable::write`] lends them to it.
    fn checkpoint(&self, next_interval: usize) -> CheckpointState {
        let scenario = self.sim.scenario();
        CheckpointState {
            next_interval,
            demands: self.tm.iter().map(|(_, f)| f.demand).collect(),
            store: self.store.snapshot(),
            planner: self.planner.snapshot(),
            failed_links: scenario.failed_links.iter().map(|l| l.index()).collect(),
            failed_switches: scenario.failed_switches.iter().map(|v| v.index()).collect(),
            rng: self.rng.state(),
            totals: [
                self.totals.delivered,
                self.totals.lost_congestion,
                self.totals.lost_blackhole,
            ],
            fingerprints: Vec::new(),
            recorded: Vec::new(),
            inflight: self.inflight.clone(),
        }
    }

    /// Stage 1: applies the interval's input events; counts those applied.
    fn apply_events(&mut self, interval: usize) -> usize {
        let events = self.events;
        let mut applied = 0;
        for te in events.iter().filter(|te| te.interval == interval) {
            applied += usize::from(self.apply_event(&te.event));
        }
        applied
    }

    /// Applies one input event, or returns `false` with the state
    /// untouched: out-of-range indices and non-finite rates are dropped
    /// rather than panicking (a controller fed a corrupted or
    /// adversarial event stream must degrade, not die), and recorded
    /// outcomes are the rollout's input, not the loop's.
    fn apply_event(&mut self, event: &Event) -> bool {
        let topo = self.ctrl.topo;
        match *event {
            Event::DemandScale(f) if f.is_finite() && f >= 0.0 => self.tm = self.base_tm.scale(f),
            Event::DemandSet { flow, demand }
                if flow < self.tm.len() && demand.is_finite() && demand >= 0.0 =>
            {
                self.tm.set_demand(FlowId(flow), demand)
            }
            Event::LinkDown(l) if l.index() < topo.num_links() => self.sim.fail_link(l),
            Event::LinkUp(l) if l.index() < topo.num_links() => self.sim.repair_link(l),
            Event::SwitchDown(v) if v.index() < topo.num_nodes() => self.sim.fail_switch(v),
            Event::SwitchUp(v) if v.index() < topo.num_nodes() => self.sim.repair_switch(v),
            Event::SetProtection { kc, ke, kv } => {
                self.planner.set_protection(kc, ke, kv, &mut self.store)
            }
            _ => return false,
        }
        true
    }

    /// Stage 2: re-solves (or degrades) for the new demands and faults,
    /// after the hint-poisoning chaos hook. The installed config the
    /// plan starts from stays installed until stage 5 commits.
    fn plan(&mut self, interval: usize) -> PlanOutcome {
        let ctrl = self.ctrl;
        if ctrl.cfg.chaos.poison_hint_intervals.contains(&interval) {
            self.store.poison_hint();
        }
        let old = self.store.installed().clone();
        let problem = TeProblem::new(ctrl.topo, &self.tm, ctrl.tunnels);
        self.planner
            .plan(problem, &old, self.sim.scenario(), &mut self.store)
    }

    /// Stage 3, the certification gate: a freshly planned configuration
    /// is staged for rollout only if the independent certifier
    /// (ffc-audit) accepts it at the protection level the planner
    /// actually solved with. A rejected configuration is refused and the
    /// interval falls back to the last-known-good config, same as an
    /// infeasible solve.
    fn certify(&mut self, outcome: &PlanOutcome) -> Gate {
        let (ctrl, old) = (self.ctrl, self.store.installed());
        let mut certificate = "n/a";
        let mut rolled_back = outcome.path == SolvePath::Infeasible;
        let mut accepted = None;
        if let Some(t) = &outcome.target {
            let mut ffc = ctrl.cfg.ffc.clone();
            (ffc.kc, ffc.ke, ffc.kv) = outcome.protection;
            let cert =
                ffc_core::certify_config(ctrl.topo, &self.tm, ctrl.tunnels, t, Some(old), &ffc);
            certificate = cert.status_str();
            rolled_back |= !cert.ok();
            accepted = cert.ok().then(|| {
                self.store.stage(t.clone());
                t.clone()
            });
        }
        let target = match accepted {
            Some(t) => t,
            None if rolled_back => self.store.rollback().clone(),
            // Rescale-only: hold the installed config; ingress
            // rescaling (inside the sim's load model) absorbs faults.
            None => self.store.installed().clone(),
        };
        Gate {
            target,
            certificate,
            rolled_back,
        }
    }

    /// Stage 4: rolls `target` out across the flow ingresses; returns
    /// the configuration the network reached. With `durable`, every
    /// fully issued step is checkpointed (and is a chaos crash point).
    /// If a crash left this interval's rollout in flight, the plan was
    /// re-derived from the same boundary state and the durable outcome
    /// log is consumed instead of sampling: stages the crashed run
    /// pushed complete from the log, never re-pushed, and the remainder
    /// finishes exactly as it would have.
    fn roll_out(
        &mut self,
        interval: usize,
        target: &TeConfig,
        kc: usize,
        durable: Option<&mut Durable<'_>>,
    ) -> (TeConfig, RolloutReport) {
        let ctrl = self.ctrl;
        let resumed = self.inflight.take().filter(|f| f.interval == interval);
        let rng_after = resumed.as_ref().map_or(self.rng.state(), |f| f.rng_after);
        let (fp_lines, recorded) = (&mut self.fp_lines, &mut self.recorded);
        let mut stage_hook = durable.map(|d| {
            move |ev: StageEvent<'_>| {
                d.last.inflight = Some(InflightRollout {
                    interval,
                    stage_reached: ev.completed_steps,
                    steps_planned: ev.steps_planned,
                    rng_after: ev.rng_state.unwrap_or(rng_after),
                    outcomes: ev.outcomes.to_vec(),
                });
                d.write(fp_lines, recorded);
                if ctrl.cfg.chaos.crash_mid_rollout == Some((interval, ev.completed_steps)) {
                    panic!(
                        "chaos-crash: mid-rollout interval {interval} stage {}",
                        ev.completed_steps
                    );
                }
            }
        });
        let source = match &resumed {
            Some(f) => OutcomeSource::Recorded(&f.outcomes),
            None if self.replay => OutcomeSource::Recorded(self.events),
            None => OutcomeSource::Sample(&mut self.rng),
        };
        let (reached, rollout) = executor::rollout_staged(
            ctrl.topo,
            &self.tm,
            ctrl.tunnels,
            self.store.installed(),
            target,
            &flow_ingresses(&self.tm),
            &ctrl.cfg.executor(kc),
            interval,
            source,
            stage_hook
                .as_mut()
                .map(|h| h as &mut dyn FnMut(StageEvent<'_>)),
        );
        if !self.replay {
            match resumed {
                Some(f) => self.reconcile_resumed(interval, f, &rollout),
                None => self.recorded.extend(rollout.recorded.iter().cloned()),
            }
        }
        (reached, rollout)
    }

    /// Re-verification of a half-pushed rollout: the schedule
    /// recomputed from the durable log must reach at least the stage
    /// the crashed run acked. With a checksummed checkpoint and the
    /// config digest guard this cannot diverge short of a bug; failing
    /// loud beats silently double-pushing. Later intervals continue
    /// from the post-sampling RNG state — the crashed run's stream,
    /// bit-exact.
    fn reconcile_resumed(&mut self, interval: usize, f: InflightRollout, rollout: &RolloutReport) {
        assert!(
            rollout.steps_planned == f.steps_planned && rollout.steps_completed >= f.stage_reached,
            "resume diverged from the checkpointed rollout of interval {interval}: \
             planned {} vs {}, completed {} vs acked stage {}",
            rollout.steps_planned,
            f.steps_planned,
            rollout.steps_completed,
            f.stage_reached,
        );
        self.recorded.extend(f.outcomes);
        self.rng = StdRng::from_state(f.rng_after);
    }

    /// Stage 5: commits what the rollout reached, advances the data
    /// plane over the interval and accounts its volumes.
    fn commit_and_advance(
        &mut self,
        reached: TeConfig,
        rollout: &RolloutReport,
        rolled_back: bool,
    ) -> DrivenInterval {
        let full = rollout.completed && rollout.congestion_free_plan && !rolled_back;
        self.store.commit(reached.clone(), full);
        let rec = self.sim.advance(&self.tm, &reached, &rollout.stale);
        self.totals
            .add(&rec.delivered, &rec.lost_congestion, &rec.lost_blackhole);
        rec
    }

    /// Stage 6: the interval's telemetry record.
    fn telemetry_record(
        &self,
        interval: usize,
        events_applied: usize,
        outcome: &PlanOutcome,
        gate: &Gate,
        rollout: &RolloutReport,
        rec: &DrivenInterval,
    ) -> IntervalTelemetry {
        let stats = outcome.stats.as_ref();
        IntervalTelemetry {
            interval,
            events_applied,
            protection: outcome.protection,
            path: outcome.path,
            degraded: outcome.degraded,
            rolled_back: gate.rolled_back,
            certificate: gate.certificate,
            iterations: stats.map_or(0, |s| s.iterations()),
            dual_iterations: stats.map_or(0, |s| s.dual_iterations),
            dual_bound_flips: stats.map_or(0, |s| s.dual_bound_flips),
            solve_ms: outcome.wall.as_secs_f64() * 1e3,
            model_patched: outcome.patched,
            config_version: self.store.installed_version(),
            rollout_steps_planned: rollout.steps_planned,
            rollout_steps_completed: rollout.steps_completed,
            congestion_free_plan: rollout.congestion_free_plan,
            stale_switches: rollout.stale.len(),
            update_retries: rollout.retries,
            last_good_version: self.store.last_good_version(),
            rollout_secs: rollout.rollout_secs,
            overloaded_links: rec.overloaded_links,
            max_oversubscription: rec.max_oversubscription,
            delivered: rec.delivered.iter().sum(),
            lost_congestion: rec.lost_congestion.iter().sum(),
            lost_blackhole: rec.lost_blackhole.iter().sum(),
        }
    }

    /// Stage 8, after the sink: makes the boundary after `interval`
    /// durable; then the "killed between intervals" chaos crash point.
    fn close_interval(
        &mut self,
        interval: usize,
        record: &IntervalTelemetry,
        durable: Option<&mut Durable<'_>>,
    ) {
        if let Some(d) = durable {
            self.fp_lines.push(record.fingerprint());
            d.last = self.checkpoint(interval + 1);
            d.write(&mut self.fp_lines, &mut self.recorded);
        }
        if self.ctrl.cfg.chaos.crash_at_interval == Some(interval) {
            panic!("chaos-crash: interval boundary {interval}");
        }
    }
}

/// Steady-state utilization (load / capacity) of every link, in
/// `LinkId` order — what an [`IntervalSink`] is handed.
fn link_utilization(topo: &Topology, rec: &DrivenInterval) -> Vec<f64> {
    topo.links()
        .zip(&rec.link_load)
        .map(|(e, load)| {
            let cap = topo.capacity(e);
            if cap > 0.0 {
                load / cap
            } else {
                0.0
            }
        })
        .collect()
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

    /// Stage 1 alone: a malformed event leaves the state untouched and
    /// counts 0, a valid one counts 1, other intervals' events wait.
    #[test]
    fn apply_events_counts_what_took_effect_and_drops_the_rest() {
        let (topo, tm, tunnels) = diamond();
        let cfg = ControllerConfig::new(FfcConfig::new(0, 1, 0), SwitchModel::Optimistic);
        let ctrl = Controller::new(&topo, &tunnels, cfg);
        let at = |interval, event| TimedEvent { interval, event };
        let (past_links, past_nodes) = (LinkId(topo.num_links()), NodeId(topo.num_nodes()));
        let ack = Event::UpdateAck {
            switch: NodeId(0),
            step: 0,
            delay: 0.1,
        };
        for bad in [
            Event::DemandScale(f64::NAN),
            Event::DemandScale(f64::INFINITY),
            Event::DemandScale(-1.0),
            Event::DemandSet {
                flow: tm.len(),
                demand: 1.0,
            },
            Event::DemandSet {
                flow: 0,
                demand: f64::NAN,
            },
            Event::DemandSet {
                flow: 0,
                demand: -1.0,
            },
            Event::LinkDown(past_links),
            Event::LinkUp(past_links),
            Event::SwitchDown(past_nodes),
            Event::SwitchUp(past_nodes),
            ack,
        ] {
            let events = [at(0, bad.clone())];
            let mut st = LoopState::new(&ctrl, &tm, &events, false);
            let before = st.checkpoint(0);
            assert_eq!(st.apply_events(0), 0, "{bad:?}");
            assert_eq!(st.checkpoint(0), before, "{bad:?}");
        }

        let events = [
            at(0, Event::DemandScale(0.5)),
            at(
                0,
                Event::DemandSet {
                    flow: 0,
                    demand: 3.0,
                },
            ),
            at(0, Event::LinkDown(LinkId(0))),
            at(0, Event::SwitchDown(NodeId(1))),
            at(
                0,
                Event::SetProtection {
                    kc: 0,
                    ke: 0,
                    kv: 0,
                },
            ),
            at(1, Event::LinkUp(LinkId(0))),
        ];
        let mut st = LoopState::new(&ctrl, &tm, &events, false);
        assert_eq!(st.apply_events(0), 5);
        let after = st.checkpoint(0);
        assert_eq!(after.demands, [3.0]);
        assert_eq!(after.failed_links, [0]);
        assert_eq!(after.failed_switches, [1]);
        assert_eq!(after.planner.requested, (0, 0, 0));
        assert_eq!(st.apply_events(1), 1);
        assert!(st.checkpoint(1).failed_links.is_empty());
    }

    /// Stages 1–6 of one interval, as the driver sequences them (no
    /// sink, no checkpointer).
    fn step(st: &mut LoopState<'_>, interval: usize) -> IntervalTelemetry {
        let events_applied = st.apply_events(interval);
        let outcome = st.plan(interval);
        let gate = st.certify(&outcome);
        let (reached, rollout) = st.roll_out(interval, &gate.target, outcome.protection.0, None);
        let rec = st.commit_and_advance(reached, &rollout, gate.rolled_back);
        st.telemetry_record(interval, events_applied, &outcome, &gate, &rollout, &rec)
    }

    /// `checkpoint` with the histories a write lends it.
    fn lent_checkpoint(st: &LoopState<'_>, next_interval: usize) -> CheckpointState {
        CheckpointState {
            fingerprints: st.fp_lines.clone(),
            recorded: st.recorded.clone(),
            ..st.checkpoint(next_interval)
        }
    }

    /// `checkpoint` → `restore` into a fresh state → `checkpoint` is the
    /// identity, on a mid-run state with a fault active, a degraded
    /// planner, a chained basis hint, sampled outcomes, and — as a
    /// mid-rollout checkpoint carries — a pending in-flight rollout.
    #[test]
    fn checkpoint_restore_round_trip_is_the_identity() {
        let (topo, tm, tunnels) = diamond();
        let mut cfg = ControllerConfig::new(FfcConfig::new(0, 1, 0), SwitchModel::Realistic);
        // Every solve overruns a zero deadline: (0,1,0) → (0,0,0) →
        // rescale-only in two intervals, the second solve's basis chained.
        cfg.solve_deadline = Duration::ZERO;
        let ctrl = Controller::new(&topo, &tunnels, cfg);
        let events = [
            TimedEvent {
                interval: 0,
                event: Event::DemandSet {
                    flow: 0,
                    demand: 6.0,
                },
            },
            TimedEvent {
                interval: 1,
                event: Event::LinkDown(LinkId(0)),
            },
        ];
        let mut st = LoopState::new(&ctrl, &tm, &events, false);
        for interval in 0..2 {
            let record = step(&mut st, interval);
            st.fp_lines.push(record.fingerprint());
        }
        let mut ck = lent_checkpoint(&st, 2);
        assert_eq!(ck.fingerprints.len(), 2);
        assert!(ck.planner.rescale_only && ck.store.hint.is_some());
        assert_eq!((&ck.failed_links[..], ck.demands[0]), (&[0][..], 6.0));
        assert!(ck.recorded.len() > events.len() && ck.totals[0][0] > 0.0);
        ck.inflight = Some(InflightRollout {
            interval: 2,
            stage_reached: 1,
            steps_planned: 2,
            rng_after: [1, 2, 3, 4],
            outcomes: ck.recorded[events.len()..].to_vec(),
        });

        let mut fresh = LoopState::new(&ctrl, &tm, &events, false);
        assert_eq!(fresh.restore(ck.clone()), 2);
        assert_eq!(lent_checkpoint(&fresh, 2), ck);
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
