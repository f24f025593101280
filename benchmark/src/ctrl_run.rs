//! The two ways a controller workload is executed.
//!
//! [`run_production`] is the path an operator runs
//! (`Controller::run_with_recovery`, as `ffc ctrl run --store --ckpt-dir`
//! wires it), timestamped from outside by wrapping the interval sink. All
//! end-to-end numbers come from it.
//!
//! On both paths the host is sampled between intervals
//! ([`crate::hostref`]), outside every timestamp, and each interval comes
//! with the slowdown measured around it.
//!
//! [`run_mirror`] is the traced run: the same loop body written out with
//! the public calls the controller makes, one span per call. It exists
//! because the program records no spans of its own yet (ROADMAP item 2);
//! when it does, this function is deleted. Until then every run checks
//! that the mirror's fingerprint equals the production run's, so a change
//! to the controller loop breaks the benchmark instead of skewing it.

use std::path::Path;
use std::time::Instant;

use ffc_core::{certify_config, plan_update_auto, TeConfig, TeProblem};
use ffc_ctrl::checkpoint::encode_checkpoint;
use ffc_ctrl::executor::{rollout_staged, ExecutorConfig, OutcomeSource, StageEvent};
use ffc_ctrl::{
    config_digest, CheckpointState, ConfigStore, Controller, ControllerReport, Event,
    InflightRollout, IntervalSink, IntervalTelemetry, Planner, PlannerConfig, SolvePath,
    TimedEvent,
};
use ffc_fleet::{StoreRecord, StoreWriter};
use ffc_net::{FlowId, NodeId, TrafficMatrix};
use ffc_sim::{DrivenSim, RunTotals};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::hostref::HostRef;
use crate::inputs::{CtrlInputs, Durable};
use crate::store_run::append_span;
use crate::trace::Trace;

/// What one execution of a controller workload produced.
pub struct CtrlRun {
    /// The controller's report.
    pub report: ControllerReport,
    /// Raw latency of each interval, ms: sink call to sink call (the
    /// first from the start of the loop), host samples excluded.
    pub interval_ms: Vec<f64>,
    /// Host slowdown around each interval.
    pub slowdown: Vec<f64>,
    /// Every record the store sink was handed.
    pub records: Vec<StoreRecord>,
    /// Checkpoints written (0 without a checkpointer).
    pub checkpoints: usize,
    /// First latched checkpoint or store error.
    pub durable_error: Option<String>,
}

/// The store writer as the run's sink, with a timestamp and a copy of
/// the record taken at every call.
struct Stamped<'a> {
    inner: &'a mut StoreWriter,
    host: &'a mut HostRef,
    last: Instant,
    interval_ms: Vec<f64>,
    slowdown: Vec<f64>,
    records: Vec<StoreRecord>,
}

impl IntervalSink for Stamped<'_> {
    fn record(&mut self, telemetry: &IntervalTelemetry, link_util: &[f64]) {
        let secs = self.last.elapsed().as_secs_f64();
        self.interval_ms.push(secs * 1e3);
        self.slowdown.push(self.host.around(secs));
        // The sink's own cost belongs to the next interval.
        self.last = Instant::now();
        self.inner.record(telemetry, link_util);
        self.records.push(StoreRecord {
            telemetry: telemetry.clone(),
            link_util: link_util.to_vec(),
        });
    }
}

/// Checkpoints a run wrote into `dir`: sequence numbers are dense from
/// zero and all but the newest few files are pruned, so the count is the
/// highest sequence number plus one.
fn checkpoints_written(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(|e| {
            let name = e.ok()?.file_name();
            let seq = name
                .to_str()?
                .strip_prefix("ckpt-")?
                .strip_suffix(".ffck")?;
            seq.parse::<usize>().ok()
        })
        .max()
        .map_or(0, |seq| seq + 1)
}

/// Runs the workload on the production path.
pub fn run_production(
    inp: &CtrlInputs,
    durable: Durable,
    host: &mut HostRef,
) -> Result<CtrlRun, String> {
    let Durable {
        mut writer,
        mut ckpt,
        ckpt_dir,
        ..
    } = durable;
    let mut ctrl = Controller::new(&inp.topo, &inp.tunnels, inp.cfg.clone());
    host.mark();
    let mut sink = Stamped {
        inner: &mut writer,
        host,
        last: Instant::now(),
        interval_ms: Vec::with_capacity(inp.intervals),
        slowdown: Vec::with_capacity(inp.intervals),
        records: Vec::with_capacity(inp.intervals),
    };
    let report = ctrl.run_with_recovery(
        &inp.base_tm,
        &inp.events,
        inp.intervals,
        false,
        Some(&mut sink),
        ckpt.as_mut(),
        None,
    );
    let Stamped {
        interval_ms,
        slowdown,
        records,
        ..
    } = sink;
    let durable_error = ckpt
        .as_ref()
        .and_then(|c| c.error())
        .or(writer.error())
        .map(String::from);
    writer.finish()?;
    Ok(CtrlRun {
        report,
        interval_ms,
        slowdown,
        records,
        checkpoints: checkpoints_written(&ckpt_dir),
        durable_error,
    })
}

/// Counts taken at the layer boundaries of the traced run. All of them
/// repeat exactly for a given workload, seed and interval count.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    /// Input events the loop applied.
    pub events_applied: usize,
    /// Simplex iterations of the planner's solves (both phases + dual).
    pub iterations: usize,
    /// … of which phase 1.
    pub phase1_iterations: usize,
    /// … of which dual simplex.
    pub dual_iterations: usize,
    /// Dual bound flips.
    pub dual_bound_flips: usize,
    /// Degenerate pivots.
    pub degenerate_pivots: usize,
    /// Basis refactorizations.
    pub refactorizations: usize,
    /// Full pricing passes.
    pub pricing_passes: usize,
    /// Σ `SolveStats::solve_time`, ms, host-normalised.
    pub solve_ms: f64,
    /// Σ `PlanOutcome::wall`, ms (model build or patch + solve),
    /// host-normalised.
    pub plan_wall_ms: f64,
    /// Planner rounds per solve path: cold, warm dual, warm primal,
    /// infeasible, limit exceeded, rescale-only.
    pub paths: [usize; 6],
    /// Intervals planned below the requested protection.
    pub degraded_intervals: usize,
    /// Rounds that patched the standing model.
    pub patches: usize,
    /// Rounds that built it.
    pub rebuilds: usize,
    /// Fault scenarios the certifier evaluated.
    pub scenarios_checked: usize,
    /// Configurations the certifier refused.
    pub rejections: usize,
    /// Update-chain steps planned.
    pub steps_planned: usize,
    /// Rollouts that found no congestion-free chain.
    pub atomic_fallbacks: usize,
    /// Update retries issued.
    pub retries: usize,
    /// Switches left stale.
    pub stale_switches: usize,
    /// Checkpoints written.
    pub ckpt_writes: usize,
    /// Bytes of all checkpoints written.
    pub ckpt_bytes: usize,
    /// Bytes of the last checkpoint (they grow with the interval index).
    pub ckpt_bytes_last: usize,
}

/// The controller state at an interval boundary, as
/// `ffc_ctrl`'s private `boundary_state` assembles it.
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
    let scenario = sim.scenario();
    CheckpointState {
        next_interval,
        demands: tm.iter().map(|(_, f)| f.demand).collect(),
        store: store.snapshot(),
        planner: planner.snapshot(),
        failed_links: scenario.failed_links.iter().map(|l| l.index()).collect(),
        failed_switches: scenario.failed_switches.iter().map(|v| v.index()).collect(),
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

/// Runs the workload as the traced mirror of the controller loop (live
/// run from interval 0: no replay, no resume, no chaos hooks).
pub fn run_mirror(
    inp: &CtrlInputs,
    durable: Durable,
    tr: &mut Trace,
    host: &mut HostRef,
) -> Result<(CtrlRun, Counters), String> {
    let Durable {
        mut writer,
        mut ckpt,
        ckpt_dir,
        ..
    } = durable;
    let (topo, tunnels, cfg) = (&inp.topo, &inp.tunnels, &inp.cfg);
    let digest = config_digest(cfg, topo, tunnels, &inp.base_tm);
    let mut c = Counters::default();

    let mut planner = Planner::new(PlannerConfig {
        ffc: cfg.ffc.clone(),
        solve_deadline: cfg.solve_deadline,
        recovery_probe: cfg.recovery_probe,
        opts: cfg.opts.clone(),
        incremental: cfg.incremental,
    });
    let mut store = ConfigStore::new(TeConfig::zero(tunnels));
    let mut sim = DrivenSim::new(topo, tunnels);
    sim.interval_secs = cfg.interval_secs;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut tm = inp.base_tm.clone();
    let mut telemetry = Vec::with_capacity(inp.intervals);
    let mut totals = RunTotals::default();
    let mut recorded: Vec<TimedEvent> = inp.events.clone();
    let mut fp_lines: Vec<String> = Vec::new();
    let mut interval_ms = Vec::with_capacity(inp.intervals);
    let mut slowdown = Vec::with_capacity(inp.intervals);
    let mut records = Vec::with_capacity(inp.intervals);

    host.mark();
    let mut last_boundary = ckpt.as_ref().map(|_| {
        boundary_state(
            0, &tm, &store, &planner, &sim, &rng, &totals, &fp_lines, &recorded,
        )
    });

    for interval in 0..inp.intervals {
        let first_span = tr.spans.len();
        let iv = tr.open("interval", None, interval);

        // 1. Apply this interval's input events.
        let span = tr.open("ctrl.apply_events", Some(iv), interval);
        let mut events_applied = 0usize;
        for te in inp.events.iter().filter(|te| te.interval == interval) {
            events_applied += 1;
            match te.event {
                Event::DemandScale(f) if f.is_finite() && f >= 0.0 => tm = inp.base_tm.scale(f),
                Event::DemandSet { flow, demand }
                    if flow < tm.len() && demand.is_finite() && demand >= 0.0 =>
                {
                    tm.set_demand(FlowId(flow), demand)
                }
                Event::LinkDown(l) if l.index() < topo.num_links() => sim.fail_link(l),
                Event::LinkUp(l) if l.index() < topo.num_links() => sim.repair_link(l),
                Event::SwitchDown(v) if v.index() < topo.num_nodes() => sim.fail_switch(v),
                Event::SwitchUp(v) if v.index() < topo.num_nodes() => sim.repair_switch(v),
                Event::SetProtection { kc, ke, kv } => {
                    planner.set_protection(kc, ke, kv, &mut store)
                }
                _ => events_applied -= 1,
            }
        }
        tr.close(span);
        c.events_applied += events_applied;

        // 2. Re-solve (or degrade) for the new demands + faults.
        let old = store.installed().clone();
        let outcome = tr.span("ctrl.planner.plan", Some(iv), interval, || {
            let problem = TeProblem::new(topo, &tm, tunnels);
            planner.plan(problem, &old, sim.scenario(), &mut store)
        });
        let plan_wall_ms = outcome.wall.as_secs_f64() * 1e3;
        let mut solve_ms = 0.0;
        c.paths[match outcome.path {
            SolvePath::Cold => 0,
            SolvePath::WarmDual => 1,
            SolvePath::WarmPrimal => 2,
            SolvePath::Infeasible => 3,
            SolvePath::LimitExceeded => 4,
            SolvePath::RescaleOnly => 5,
        }] += 1;
        c.degraded_intervals += usize::from(outcome.degraded);
        if let Some(s) = &outcome.stats {
            c.iterations += s.iterations();
            c.phase1_iterations += s.phase1_iterations;
            c.dual_iterations += s.dual_iterations;
            c.dual_bound_flips += s.dual_bound_flips;
            c.degenerate_pivots += s.degenerate_pivots;
            c.refactorizations += s.refactorizations;
            c.pricing_passes += s.full_pricing_passes;
            solve_ms = s.solve_time.as_secs_f64() * 1e3;
        }
        if outcome.path != SolvePath::RescaleOnly {
            if outcome.patched {
                c.patches += 1;
            } else {
                c.rebuilds += 1;
            }
        }

        // Certification gate.
        let mut rolled_back = outcome.path == SolvePath::Infeasible;
        let mut certificate = "n/a";
        let target = match &outcome.target {
            Some(t) => {
                let mut ffc = cfg.ffc.clone();
                (ffc.kc, ffc.ke, ffc.kv) = outcome.protection;
                let cert = tr.span("audit.certify", Some(iv), interval, || {
                    certify_config(topo, &tm, tunnels, t, Some(&old), &ffc)
                });
                c.scenarios_checked += cert.scenarios_checked;
                certificate = cert.status_str();
                if cert.ok() {
                    store.stage(t.clone());
                    t.clone()
                } else {
                    c.rejections += 1;
                    rolled_back = true;
                    store.rollback().clone()
                }
            }
            None if rolled_back => store.rollback().clone(),
            None => old.clone(),
        };

        // 3. Roll the target out across the flow ingresses.
        let mut ingresses: Vec<NodeId> = tm.iter().map(|(_, f)| f.src).collect();
        ingresses.sort_unstable();
        ingresses.dedup();
        let exec_cfg = ExecutorConfig {
            max_steps: cfg.max_update_steps,
            kc: outcome.protection.0,
            rules_per_step: cfg.rules_per_update,
            switch_model: cfg.switch_model,
            cap_secs: cfg.interval_secs,
            retry_timeout_secs: cfg.retry_timeout_secs,
            max_retries: cfg.max_retries,
        };
        // Update planning runs inside `rollout_staged`; it is a pure
        // function of these arguments, so a shadow call times it.
        if old != target && !ingresses.is_empty() {
            tr.shadow("core.update.plan", Some(iv), interval, || {
                std::hint::black_box(plan_update_auto(
                    topo,
                    &tm,
                    tunnels,
                    &old,
                    &target,
                    exec_cfg.max_steps,
                    exec_cfg.kc,
                ))
                .is_ok()
            });
        }
        let rng_before = rng.state();
        let ro = tr.open("ctrl.executor.rollout", Some(iv), interval);
        let (reached, rollout) = {
            let mut hook_storage;
            let stage_hook: Option<&mut dyn FnMut(StageEvent<'_>)> =
                match (ckpt.as_mut(), last_boundary.as_ref()) {
                    (Some(ck), Some(bound)) => {
                        let (tr, c) = (&mut *tr, &mut c);
                        hook_storage = move |ev: StageEvent<'_>| {
                            let mut st = bound.clone();
                            st.inflight = Some(InflightRollout {
                                interval,
                                stage_reached: ev.completed_steps,
                                steps_planned: ev.steps_planned,
                                rng_after: ev.rng_state.unwrap_or(rng_before),
                                outcomes: ev.outcomes.to_vec(),
                            });
                            write_checkpoint(ck, &st, digest, tr, c, ro, interval);
                        };
                        Some(&mut hook_storage)
                    }
                    _ => None,
                };
            rollout_staged(
                topo,
                &tm,
                tunnels,
                &old,
                &target,
                &ingresses,
                &exec_cfg,
                interval,
                OutcomeSource::Sample(&mut rng),
                stage_hook,
            )
        };
        tr.close(ro);
        recorded.extend(rollout.recorded.iter().cloned());
        c.steps_planned += rollout.steps_planned;
        c.atomic_fallbacks += usize::from(!rollout.congestion_free_plan);
        c.retries += rollout.retries;
        c.stale_switches += rollout.stale.len();
        let full = rollout.completed && rollout.congestion_free_plan && !rolled_back;
        tr.span("ctrl.state.commit", Some(iv), interval, || {
            store.commit(reached.clone(), full)
        });

        // 4. Advance the data plane and account the interval.
        let rec = tr.span("sim.advance", Some(iv), interval, || {
            sim.advance(&tm, &reached, &rollout.stale)
        });
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
        let util: Vec<f64> = topo
            .links()
            .map(|e| {
                let cap = topo.capacity(e);
                if cap > 0.0 {
                    rec.link_load[e.index()] / cap
                } else {
                    0.0
                }
            })
            .collect();
        tr.span(append_span(&writer, interval), Some(iv), interval, || {
            writer.record(&record, &util)
        });
        records.push(StoreRecord {
            telemetry: record.clone(),
            link_util: util,
        });
        if ckpt.is_some() {
            fp_lines.push(record.fingerprint());
        }
        telemetry.push(record);
        if let Some(ck) = ckpt.as_mut() {
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
            write_checkpoint(ck, &st, digest, tr, &mut c, iv, interval);
            last_boundary = Some(st);
        }
        let raw_ms = tr.close(iv);
        let host_slowdown = host.around(raw_ms / 1e3);
        tr.settle(first_span, host_slowdown);
        c.plan_wall_ms += plan_wall_ms / host_slowdown;
        c.solve_ms += solve_ms / host_slowdown;
        interval_ms.push(raw_ms);
        slowdown.push(host_slowdown);
    }

    let durable_error = ckpt
        .as_ref()
        .and_then(|ck| ck.error())
        .or(writer.error())
        .map(String::from);
    let first_span = tr.spans.len();
    let t0 = Instant::now();
    tr.span("fleet.store.finish", None, inp.intervals, || {
        writer.finish()
    })?;
    tr.settle(first_span, host.around(t0.elapsed().as_secs_f64()));
    let report = ControllerReport {
        telemetry,
        totals,
        recorded_events: recorded,
        prior_fingerprints: Vec::new(),
    };
    Ok((
        CtrlRun {
            report,
            interval_ms,
            slowdown,
            records,
            checkpoints: checkpoints_written(&ckpt_dir),
            durable_error,
        },
        c,
    ))
}

/// One checkpoint write under a span, with a shadow encode for the
/// encode/write split and the byte counts.
fn write_checkpoint(
    ck: &mut ffc_ctrl::Checkpointer,
    st: &CheckpointState,
    digest: u64,
    tr: &mut Trace,
    c: &mut Counters,
    parent: usize,
    interval: usize,
) {
    tr.span("ctrl.checkpoint.write", Some(parent), interval, || {
        ck.write(st)
    });
    let bytes = tr.shadow("ctrl.checkpoint.encode", Some(parent), interval, || {
        encode_checkpoint(st, digest).len()
    });
    c.ckpt_writes += 1;
    c.ckpt_bytes += bytes;
    c.ckpt_bytes_last = bytes;
}
