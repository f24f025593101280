//! Staged rollout of a planned configuration against the switch model.
//!
//! The executor turns the planner's target into a congestion-free
//! multi-step plan (`ffc-core::update`, §5.2) and pushes it step by
//! step. Per §5.5 ordered updates the controller may issue step `i+1`
//! as soon as at most `kc` switches are still behind — the plan is safe
//! with up to `kc` switches stuck at *any* earlier configuration, so a
//! slow or failed switch does not stall the rollout (its traffic stays
//! within the `M^i = max_{j≤i} a^j` bound the plan budgeted).
//!
//! Per-switch behaviour mirrors `ffc-sim::update_exec`: one failure
//! draw per switch per rollout window (a broken switch stays broken),
//! sequential step application `c_s(i) = max(c_s(i−1), A_{i−1}) + d`,
//! and the controller advancing at the `(n−kc)`-th smallest completion
//! (the max when `kc = 0`). Completion is capped at the TE interval.
//!
//! In a **live** run the delays and failures are sampled from the
//! [`SwitchModel`] and recorded as [`Event::UpdateAck`] /
//! [`Event::UpdateTimeout`] events; a **replay** consumes exactly those
//! recorded outcomes instead of sampling, which is what makes replayed
//! telemetry bit-identical.

use ffc_core::{plan_update_auto, TeConfig};
use ffc_net::{NodeId, Topology, TrafficMatrix, TunnelTable};
use ffc_sim::SwitchModel;
use rand::rngs::StdRng;
use rand::Rng;

use crate::event::{Event, TimedEvent};

/// Rollout policy knobs.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Maximum plan steps to try (`plan_update_auto` uses the fewest
    /// that admit a congestion-free chain).
    pub max_steps: usize,
    /// Stale switches tolerated while advancing (§5.5); usually the
    /// protection level's `kc`.
    pub kc: usize,
    /// Rule changes per switch per step (drives update delays).
    pub rules_per_step: usize,
    /// Switch latency/failure behaviour.
    pub switch_model: SwitchModel,
    /// Wall-clock cap for the whole rollout (the TE interval).
    pub cap_secs: f64,
    /// Backoff before re-issuing a timed-out switch update (mirrors
    /// `ffc-sim::SimConfig::retry_timeout_secs`).
    pub retry_timeout_secs: f64,
    /// Bounded retries per broken switch per rollout; after the budget
    /// the switch stays stale for the rest of the interval.
    pub max_retries: usize,
}

impl ExecutorConfig {
    /// Defaults matching `ffc-sim::UpdateExecConfig` and the paper.
    pub fn new(switch_model: SwitchModel, kc: usize) -> Self {
        ExecutorConfig {
            max_steps: 3,
            kc,
            rules_per_step: 35,
            switch_model,
            cap_secs: 300.0,
            retry_timeout_secs: 10.0,
            max_retries: 2,
        }
    }
}

/// Where per-switch update outcomes come from.
pub enum OutcomeSource<'a> {
    /// Sample from the switch model (live run); outcomes get recorded.
    Sample(&'a mut StdRng),
    /// Consume outcomes recorded by a previous live run (replay).
    Recorded(&'a [TimedEvent]),
}

/// Snapshot handed to the stage hook after each fully issued rollout
/// step — everything a mid-rollout crash checkpoint needs. All switch
/// outcomes are sampled *before* the first step is issued (the RNG draw
/// order is a per-switch sequence), so by the first stage boundary the
/// interval's complete outcome log and the post-sampling RNG state
/// already exist; persisting them is what lets a resume consume the log
/// instead of re-pushing acked stages.
pub struct StageEvent<'a> {
    /// Steps fully issued so far (1-based count).
    pub completed_steps: usize,
    /// Steps in the congestion-free plan.
    pub steps_planned: usize,
    /// The interval's complete sampled outcome log (acks + timeouts).
    pub outcomes: &'a [TimedEvent],
    /// RNG state after outcome sampling (`None` on replays, which
    /// consume a recorded log and never touch the RNG).
    pub rng_state: Option<[u64; 4]>,
}

/// Backoff before re-issuing attempt `attempt` (1-based) to a wedged
/// switch: exponential in the attempt, stretched by up to 50% by a
/// jitter draw in `[0, 1)`. The jitter comes from the rollout's seeded
/// RNG, so it is deterministic per run yet decorrelates retry storms
/// across switches.
fn retry_backoff(base: f64, attempt: usize, jitter: f64) -> f64 {
    base * (1u64 << (attempt - 1).min(32)) as f64 * (1.0 + 0.5 * jitter)
}

/// What one rollout did.
#[derive(Debug, Clone)]
pub struct RolloutReport {
    /// Steps in the congestion-free plan (0 for a no-op rollout).
    pub steps_planned: usize,
    /// Steps fully issued before the interval cap.
    pub steps_completed: usize,
    /// Whether every planned step completed.
    pub completed: bool,
    /// Whether a congestion-free chain existed within `max_steps`
    /// (otherwise the target was installed atomically — a documented
    /// simplification, same as `ffc-sim::runner`).
    pub congestion_free_plan: bool,
    /// Switches whose update failed: they keep forwarding per the old
    /// configuration this interval.
    pub stale: Vec<NodeId>,
    /// Wall-clock the rollout took (capped at `cap_secs`).
    pub rollout_secs: f64,
    /// Update retries issued after ack timeouts (summed over switches).
    /// Live runs count them directly; replays re-derive the identical
    /// count from the recorded timeout/ack events.
    pub retries: usize,
    /// Outcome events sampled by a live rollout (empty on replay).
    pub recorded: Vec<TimedEvent>,
}

/// Rolls out `to` from `from` across the flow ingresses; returns the
/// configuration the network actually reached (the last fully issued
/// step) plus the report.
#[allow(clippy::too_many_arguments)]
pub fn rollout(
    topo: &Topology,
    tm: &TrafficMatrix,
    tunnels: &TunnelTable,
    from: &TeConfig,
    to: &TeConfig,
    ingresses: &[NodeId],
    cfg: &ExecutorConfig,
    interval: usize,
    source: OutcomeSource<'_>,
) -> (TeConfig, RolloutReport) {
    rollout_staged(
        topo, tm, tunnels, from, to, ingresses, cfg, interval, source, None,
    )
}

/// [`rollout`] with a stage hook: `stage_hook` fires after every fully
/// issued step with a [`StageEvent`], which is where the controller
/// writes its mid-rollout crash checkpoints.
#[allow(clippy::too_many_arguments)]
pub fn rollout_staged(
    topo: &Topology,
    tm: &TrafficMatrix,
    tunnels: &TunnelTable,
    from: &TeConfig,
    to: &TeConfig,
    ingresses: &[NodeId],
    cfg: &ExecutorConfig,
    interval: usize,
    source: OutcomeSource<'_>,
    mut stage_hook: Option<&mut dyn FnMut(StageEvent<'_>)>,
) -> (TeConfig, RolloutReport) {
    let mut report = RolloutReport {
        steps_planned: 0,
        steps_completed: 0,
        completed: true,
        congestion_free_plan: true,
        stale: Vec::new(),
        rollout_secs: 0.0,
        retries: 0,
        recorded: Vec::new(),
    };
    if from == to || ingresses.is_empty() {
        return (to.clone(), report);
    }

    let plan = match plan_update_auto(topo, tm, tunnels, from, to, cfg.max_steps, cfg.kc) {
        Ok(p) => p.steps,
        Err(_) => {
            // No congestion-free chain within the step budget: install
            // atomically (transient overload is the sim's to account).
            report.congestion_free_plan = false;
            vec![to.clone()]
        }
    };
    report.steps_planned = plan.len();

    // Per-switch outcomes for every (switch, step).
    let n = ingresses.len();
    let m = plan.len();
    // delay[s][i] = rule-install delay, or None when the switch is
    // broken from step i on.
    let mut delays: Vec<Vec<Option<f64>>> = vec![vec![None; m]; n];
    let live = matches!(source, OutcomeSource::Sample(_));
    // Post-sampling RNG state (live) and this interval's recorded
    // outcomes (replay), for the stage hook.
    let mut rng_state: Option<[u64; 4]> = None;
    let mut replay_outcomes: Vec<TimedEvent> = Vec::new();
    match source {
        OutcomeSource::Sample(rng) => {
            for (s, &sw) in ingresses.iter().enumerate() {
                // One failure draw per switch per rollout window.
                let broken = rng.gen::<f64>() < cfg.switch_model.config_failure_rate();
                if broken {
                    // The failing step is uniform over the plan: the
                    // switch wedges while applying one of them.
                    let at = rng.gen_range(0..m);
                    for d in delays[s].iter_mut().take(at) {
                        *d = Some(
                            cfg.switch_model
                                .sample_update_delay(rng, cfg.rules_per_step),
                        );
                    }
                    report.recorded.push(TimedEvent {
                        interval,
                        event: Event::UpdateTimeout {
                            switch: sw,
                            step: at,
                        },
                    });
                    // Bounded retry with exponential backoff: the wait
                    // before re-issuing starts at `retry_timeout_secs`
                    // and doubles per attempt, stretched by a seeded
                    // jitter draw so concurrent wedges don't re-issue
                    // in lockstep. A recovered switch resumes at `at`
                    // with the accumulated backoff folded into its
                    // recorded ack delay, which is how the penalty
                    // (jitter included) reaches the telemetry and the
                    // replay without extra events; the retry *count* is
                    // re-derived from the timeout/ack events.
                    let mut penalty = 0.0;
                    for attempt in 1..=cfg.max_retries {
                        report.retries += 1;
                        let jitter = rng.gen::<f64>();
                        penalty += retry_backoff(cfg.retry_timeout_secs, attempt, jitter);
                        let still_broken =
                            rng.gen::<f64>() < cfg.switch_model.config_failure_rate();
                        if !still_broken {
                            for (i, d) in delays[s].iter_mut().enumerate().skip(at) {
                                let base = cfg
                                    .switch_model
                                    .sample_update_delay(rng, cfg.rules_per_step);
                                *d = Some(if i == at { penalty + base } else { base });
                            }
                            break;
                        }
                        report.recorded.push(TimedEvent {
                            interval,
                            event: Event::UpdateTimeout {
                                switch: sw,
                                step: at,
                            },
                        });
                    }
                } else {
                    for d in delays[s].iter_mut() {
                        *d = Some(
                            cfg.switch_model
                                .sample_update_delay(rng, cfg.rules_per_step),
                        );
                    }
                }
            }
            // Record acks after all sampling so the RNG draw order stays
            // a simple per-switch sequence.
            for (s, &sw) in ingresses.iter().enumerate() {
                for (i, d) in delays[s].iter().enumerate() {
                    if let Some(delay) = *d {
                        report.recorded.push(TimedEvent {
                            interval,
                            event: Event::UpdateAck {
                                switch: sw,
                                step: i,
                                delay,
                            },
                        });
                    }
                }
            }
            rng_state = Some(rng.state());
        }
        OutcomeSource::Recorded(events) => {
            // Per-switch timeout bookkeeping, to re-derive the retry
            // count a live run accumulated: a switch with `c` timeouts
            // retried `c` times if it eventually acked the wedged step
            // (the last retry succeeded), `c - 1` times otherwise (the
            // first timeout was the original attempt, not a retry).
            let mut timeouts: Vec<(usize, usize)> = vec![(0, 0); n]; // (count, step)
            for te in events.iter().filter(|te| te.interval == interval) {
                match te.event {
                    Event::UpdateAck {
                        switch,
                        step,
                        delay,
                    } => {
                        if let Some(s) = ingresses.iter().position(|&v| v == switch) {
                            // Garbage-tolerant: a perturbed trace can
                            // carry out-of-range steps or bogus delays;
                            // ignore them rather than poisoning the
                            // completion-time arithmetic.
                            if step < m && delay.is_finite() && delay >= 0.0 {
                                delays[s][step] = Some(delay);
                            }
                        }
                    }
                    Event::UpdateTimeout { switch, step } => {
                        if let Some(s) = ingresses.iter().position(|&v| v == switch) {
                            timeouts[s].0 += 1;
                            timeouts[s].1 = step;
                        }
                    }
                    _ => {}
                }
            }
            for (s, &(count, step)) in timeouts.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                let recovered = step < m && delays[s][step].is_some();
                report.retries += if recovered { count } else { count - 1 };
            }
            if stage_hook.is_some() {
                replay_outcomes = events
                    .iter()
                    .filter(|te| te.interval == interval && te.event.is_recorded_outcome())
                    .cloned()
                    .collect();
            }
        }
    }

    // Issue steps: c_s(i) = max(c_s(i-1), issue) + d_{s,i}; advance at
    // the (n - kc)-th smallest completion (max when kc = 0).
    let mut c = vec![0.0f64; n];
    let mut issue = 0.0f64;
    let mut completed_steps = 0usize;
    #[allow(clippy::needless_range_loop)] // (switch, step) index grid
    for step in 0..m {
        for s in 0..n {
            c[s] = match delays[s][step] {
                Some(d) if c[s].is_finite() => c[s].max(issue) + d,
                _ => f64::INFINITY,
            };
        }
        let mut sorted = c.clone();
        // total_cmp: completion times can be +inf (broken switches) and
        // a panic on an exotic float would kill the whole interval.
        sorted.sort_by(|a, b| a.total_cmp(b));
        let advance_at = sorted[n.saturating_sub(cfg.kc.saturating_add(1)).min(n - 1)];
        if advance_at >= cfg.cap_secs {
            break;
        }
        issue = advance_at;
        completed_steps = step + 1;
        if let Some(hook) = stage_hook.as_deref_mut() {
            hook(StageEvent {
                completed_steps,
                steps_planned: m,
                outcomes: if live {
                    &report.recorded
                } else {
                    &replay_outcomes
                },
                rng_state,
            });
        }
    }
    report.steps_completed = completed_steps;
    report.completed = completed_steps == m;
    report.rollout_secs = issue.min(cfg.cap_secs);
    report.stale = ingresses
        .iter()
        .enumerate()
        .filter(|&(s, _)| {
            completed_steps > 0 && delays[s][..completed_steps].iter().any(|d| d.is_none())
        })
        .map(|(_, &sw)| sw)
        .collect();

    let reached = if completed_steps == 0 {
        from.clone()
    } else {
        plan[completed_steps - 1].clone()
    };
    (reached, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffc_net::prelude::*;
    use rand::SeedableRng;

    fn diamond() -> (Topology, TrafficMatrix, TunnelTable, Vec<NodeId>) {
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
        (topo, tm, tunnels, vec![a])
    }

    fn solve(topo: &Topology, tm: &TrafficMatrix, tunnels: &TunnelTable) -> TeConfig {
        ffc_core::solve_te(ffc_core::TeProblem::new(topo, tm, tunnels)).expect("TE")
    }

    #[test]
    fn noop_rollout_is_free() {
        let (topo, tm, tunnels, ing) = diamond();
        let cfg = ExecutorConfig::new(SwitchModel::Optimistic, 0);
        let to = solve(&topo, &tm, &tunnels);
        let mut rng = StdRng::seed_from_u64(1);
        let (reached, rep) = rollout(
            &topo,
            &tm,
            &tunnels,
            &to,
            &to,
            &ing,
            &cfg,
            0,
            OutcomeSource::Sample(&mut rng),
        );
        assert_eq!(reached, to);
        assert_eq!(rep.steps_planned, 0);
        assert!(rep.completed && rep.recorded.is_empty());
    }

    #[test]
    fn optimistic_rollout_completes_and_records_acks() {
        let (topo, tm, tunnels, ing) = diamond();
        let from = TeConfig::zero(&tunnels);
        let to = solve(&topo, &tm, &tunnels);
        let cfg = ExecutorConfig::new(SwitchModel::Optimistic, 0);
        let mut rng = StdRng::seed_from_u64(2);
        let (reached, rep) = rollout(
            &topo,
            &tm,
            &tunnels,
            &from,
            &to,
            &ing,
            &cfg,
            3,
            OutcomeSource::Sample(&mut rng),
        );
        assert_eq!(reached, to);
        assert!(rep.completed);
        assert!(rep.congestion_free_plan);
        assert!(rep.stale.is_empty());
        assert!(rep.rollout_secs > 0.0);
        // One ack per ingress per step, all at this interval.
        assert_eq!(rep.recorded.len(), ing.len() * rep.steps_planned);
        assert!(rep
            .recorded
            .iter()
            .all(|e| e.interval == 3 && matches!(e.event, Event::UpdateAck { .. })));
    }

    #[test]
    fn replaying_recorded_outcomes_reproduces_the_rollout() {
        let (topo, tm, tunnels, ing) = diamond();
        let from = TeConfig::zero(&tunnels);
        let to = solve(&topo, &tm, &tunnels);
        let cfg = ExecutorConfig::new(SwitchModel::Realistic, 1);
        let mut rng = StdRng::seed_from_u64(3);
        let (reached, live) = rollout(
            &topo,
            &tm,
            &tunnels,
            &from,
            &to,
            &ing,
            &cfg,
            0,
            OutcomeSource::Sample(&mut rng),
        );
        let (replayed, rep) = rollout(
            &topo,
            &tm,
            &tunnels,
            &from,
            &to,
            &ing,
            &cfg,
            0,
            OutcomeSource::Recorded(&live.recorded),
        );
        assert_eq!(reached, replayed);
        assert_eq!(live.steps_completed, rep.steps_completed);
        assert_eq!(live.stale, rep.stale);
        assert_eq!(live.rollout_secs.to_bits(), rep.rollout_secs.to_bits());
    }

    #[test]
    fn broken_switch_goes_stale_but_ffc_advances() {
        let (topo, tm, tunnels, _) = diamond();
        let from = TeConfig::zero(&tunnels);
        let to = solve(&topo, &tm, &tunnels);
        // Two "ingresses" (only `a` really originates traffic; the
        // second stands in for another participating switch).
        let ing = vec![NodeId(0), NodeId(3)];
        let cfg = ExecutorConfig::new(SwitchModel::Optimistic, 1);
        // Hand-written outcomes: switch 3 times out at step 0, switch 0
        // acks everything promptly.
        let mut events = vec![TimedEvent {
            interval: 0,
            event: Event::UpdateTimeout {
                switch: NodeId(3),
                step: 0,
            },
        }];
        for step in 0..cfg.max_steps {
            events.push(TimedEvent {
                interval: 0,
                event: Event::UpdateAck {
                    switch: NodeId(0),
                    step,
                    delay: 0.01,
                },
            });
        }
        let (reached, rep) = rollout(
            &topo,
            &tm,
            &tunnels,
            &from,
            &to,
            &ing,
            &cfg,
            0,
            OutcomeSource::Recorded(&events),
        );
        // kc = 1 tolerates the broken switch: rollout completes.
        assert_eq!(reached, to);
        assert!(rep.completed);
        assert_eq!(rep.stale, vec![NodeId(3)]);

        // With kc = 0 the same outcomes stall at step 0.
        let cfg0 = ExecutorConfig::new(SwitchModel::Optimistic, 0);
        let (reached0, rep0) = rollout(
            &topo,
            &tm,
            &tunnels,
            &from,
            &to,
            &ing,
            &cfg0,
            0,
            OutcomeSource::Recorded(&events),
        );
        assert_eq!(reached0, from);
        assert_eq!(rep0.steps_completed, 0);
        assert!(!rep0.completed);
    }

    #[test]
    fn replay_derives_retry_counts_from_recorded_outcomes() {
        let (topo, tm, tunnels, _) = diamond();
        let from = TeConfig::zero(&tunnels);
        let to = solve(&topo, &tm, &tunnels);
        let ing = vec![NodeId(0), NodeId(3)];
        let cfg = ExecutorConfig::new(SwitchModel::Optimistic, 1);

        // Switch 3: wedged at step 0, two timeouts, then recovered (its
        // step-0 ack carries the backoff penalty) -> 2 retries.
        let mut events = vec![
            TimedEvent {
                interval: 0,
                event: Event::UpdateTimeout {
                    switch: NodeId(3),
                    step: 0,
                },
            },
            TimedEvent {
                interval: 0,
                event: Event::UpdateTimeout {
                    switch: NodeId(3),
                    step: 0,
                },
            },
        ];
        for step in 0..cfg.max_steps {
            for sw in [NodeId(0), NodeId(3)] {
                events.push(TimedEvent {
                    interval: 0,
                    event: Event::UpdateAck {
                        switch: sw,
                        step,
                        delay: if sw == NodeId(3) && step == 0 {
                            2.0 * cfg.retry_timeout_secs + 0.01
                        } else {
                            0.01
                        },
                    },
                });
            }
        }
        let (_, rep) = rollout(
            &topo,
            &tm,
            &tunnels,
            &from,
            &to,
            &ing,
            &cfg,
            0,
            OutcomeSource::Recorded(&events),
        );
        assert_eq!(rep.retries, 2, "recovered switch: retries == timeouts");
        assert!(rep.stale.is_empty(), "a recovered switch is not stale");

        // Terminal wedge: 3 timeouts, no step-0 ack -> 2 retries (the
        // first timeout was the original attempt).
        let events: Vec<TimedEvent> = (0..3)
            .map(|_| TimedEvent {
                interval: 0,
                event: Event::UpdateTimeout {
                    switch: NodeId(3),
                    step: 0,
                },
            })
            .chain((0..cfg.max_steps).map(|step| TimedEvent {
                interval: 0,
                event: Event::UpdateAck {
                    switch: NodeId(0),
                    step,
                    delay: 0.01,
                },
            }))
            .collect();
        let (_, rep) = rollout(
            &topo,
            &tm,
            &tunnels,
            &from,
            &to,
            &ing,
            &cfg,
            0,
            OutcomeSource::Recorded(&events),
        );
        assert_eq!(rep.retries, 2, "terminal wedge: retries == timeouts - 1");
        assert_eq!(rep.stale, vec![NodeId(3)]);
    }

    #[test]
    fn live_and_replay_agree_on_retries_across_seeds() {
        let (topo, tm, tunnels, ing) = diamond();
        let from = TeConfig::zero(&tunnels);
        let to = solve(&topo, &tm, &tunnels);
        let cfg = ExecutorConfig::new(SwitchModel::Realistic, 1);
        let mut saw_retry = false;
        for seed in 0..400 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (reached, live) = rollout(
                &topo,
                &tm,
                &tunnels,
                &from,
                &to,
                &ing,
                &cfg,
                0,
                OutcomeSource::Sample(&mut rng),
            );
            let (replayed, rep) = rollout(
                &topo,
                &tm,
                &tunnels,
                &from,
                &to,
                &ing,
                &cfg,
                0,
                OutcomeSource::Recorded(&live.recorded),
            );
            assert_eq!(reached, replayed, "seed {seed}");
            assert_eq!(live.retries, rep.retries, "seed {seed}");
            assert_eq!(live.stale, rep.stale, "seed {seed}");
            assert_eq!(
                live.rollout_secs.to_bits(),
                rep.rollout_secs.to_bits(),
                "seed {seed}"
            );
            saw_retry |= live.retries > 0;
        }
        assert!(saw_retry, "400 seeds at 1% failure should hit a retry");
    }

    #[test]
    fn retry_backoff_is_exponential_with_bounded_jitter() {
        let base = 10.0;
        // Zero jitter: pure doubling.
        assert!((retry_backoff(base, 1, 0.0) - 10.0).abs() < 1e-12);
        assert!((retry_backoff(base, 2, 0.0) - 20.0).abs() < 1e-12);
        assert!((retry_backoff(base, 3, 0.0) - 40.0).abs() < 1e-12);
        // Jitter stretches by at most 50%.
        for attempt in 1..=4 {
            let lo = retry_backoff(base, attempt, 0.0);
            let hi = retry_backoff(base, attempt, 0.999_999);
            assert!(hi < lo * 1.5 + 1e-9, "attempt {attempt}");
            assert!(hi > lo, "attempt {attempt}");
        }
        // Huge attempt numbers saturate instead of overflowing the
        // shift.
        assert!(retry_backoff(base, 64, 0.5).is_finite());
    }

    #[test]
    fn recovered_ack_delay_carries_the_exponential_backoff() {
        let (topo, tm, tunnels, ing) = diamond();
        let from = TeConfig::zero(&tunnels);
        let to = solve(&topo, &tm, &tunnels);
        let cfg = ExecutorConfig::new(SwitchModel::Realistic, 1);
        // Scan seeds for a live run whose switch wedged once and then
        // recovered: its wedged-step ack must carry at least the first
        // backoff (base), and a double-timeout recovery at least
        // base + 2*base.
        let mut checked = 0;
        for seed in 0..2000u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (_, live) = rollout(
                &topo,
                &tm,
                &tunnels,
                &from,
                &to,
                &ing,
                &cfg,
                0,
                OutcomeSource::Sample(&mut rng),
            );
            let timeouts: Vec<(NodeId, usize)> = live
                .recorded
                .iter()
                .filter_map(|te| match te.event {
                    Event::UpdateTimeout { switch, step } => Some((switch, step)),
                    _ => None,
                })
                .collect();
            if timeouts.is_empty() {
                continue;
            }
            for &(sw, at) in &timeouts {
                let n_to = timeouts.iter().filter(|&&(s, _)| s == sw).count();
                let ack = live.recorded.iter().find_map(|te| match te.event {
                    Event::UpdateAck {
                        switch,
                        step,
                        delay,
                    } if switch == sw && step == at => Some(delay),
                    _ => None,
                });
                if let Some(delay) = ack {
                    // Recovered after n_to timeouts: penalty is the sum
                    // of the first n_to exponential backoffs, jitter
                    // excluded as the lower bound.
                    let min_penalty: f64 = (1..=n_to)
                        .map(|a| retry_backoff(cfg.retry_timeout_secs, a, 0.0))
                        .sum();
                    assert!(
                        delay >= min_penalty,
                        "seed {seed}: delay {delay} < min penalty {min_penalty}"
                    );
                    checked += 1;
                }
            }
            if checked >= 3 {
                break;
            }
        }
        assert!(checked > 0, "no recovered wedge in 2000 seeds");
    }

    #[test]
    fn stage_hook_sees_full_outcome_log_and_rng_state() {
        let (topo, tm, tunnels, ing) = diamond();
        let from = TeConfig::zero(&tunnels);
        let to = solve(&topo, &tm, &tunnels);
        let cfg = ExecutorConfig::new(SwitchModel::Optimistic, 0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut stages: Vec<(usize, usize, usize, Option<[u64; 4]>)> = Vec::new();
        let mut hook = |ev: StageEvent<'_>| {
            stages.push((
                ev.completed_steps,
                ev.steps_planned,
                ev.outcomes.len(),
                ev.rng_state,
            ));
        };
        let (_, live) = rollout_staged(
            &topo,
            &tm,
            &tunnels,
            &from,
            &to,
            &ing,
            &cfg,
            0,
            OutcomeSource::Sample(&mut rng),
            Some(&mut hook),
        );
        assert!(live.completed);
        assert_eq!(stages.len(), live.steps_planned, "one hook call per step");
        for (i, &(done, planned, n_outcomes, rng_state)) in stages.iter().enumerate() {
            assert_eq!(done, i + 1);
            assert_eq!(planned, live.steps_planned);
            // The full log exists from the first stage boundary on.
            assert_eq!(n_outcomes, live.recorded.len());
            assert_eq!(rng_state, Some(rng.state()), "post-sampling state");
        }

        // Replaying with a hook: same stage cadence, outcomes drawn
        // from the recorded log, no RNG state.
        let mut replay_stages: Vec<(usize, usize, Option<[u64; 4]>)> = Vec::new();
        let mut rhook = |ev: StageEvent<'_>| {
            replay_stages.push((ev.completed_steps, ev.outcomes.len(), ev.rng_state));
        };
        let (_, rep) = rollout_staged(
            &topo,
            &tm,
            &tunnels,
            &from,
            &to,
            &ing,
            &cfg,
            0,
            OutcomeSource::Recorded(&live.recorded),
            Some(&mut rhook),
        );
        assert_eq!(rep.steps_completed, live.steps_completed);
        assert_eq!(replay_stages.len(), stages.len());
        for &(_, n_outcomes, rng_state) in &replay_stages {
            assert_eq!(n_outcomes, live.recorded.len());
            assert_eq!(rng_state, None);
        }
    }

    #[test]
    fn garbage_recorded_delays_are_ignored() {
        let (topo, tm, tunnels, ing) = diamond();
        let from = TeConfig::zero(&tunnels);
        let to = solve(&topo, &tm, &tunnels);
        let cfg = ExecutorConfig::new(SwitchModel::Optimistic, 0);
        let mut events = Vec::new();
        for step in 0..cfg.max_steps {
            events.push(TimedEvent {
                interval: 0,
                event: Event::UpdateAck {
                    switch: ing[0],
                    step,
                    delay: 0.01,
                },
            });
        }
        // Adversarial extras: NaN delay, negative delay, out-of-range
        // step, unknown switch. None may panic or change the outcome.
        for bad in [
            Event::UpdateAck {
                switch: ing[0],
                step: 0,
                delay: f64::NAN,
            },
            Event::UpdateAck {
                switch: ing[0],
                step: 1,
                delay: -5.0,
            },
            Event::UpdateAck {
                switch: ing[0],
                step: 99,
                delay: 0.5,
            },
            Event::UpdateAck {
                switch: NodeId(999),
                step: 0,
                delay: 0.5,
            },
        ] {
            events.push(TimedEvent {
                interval: 0,
                event: bad,
            });
        }
        let (reached, rep) = rollout(
            &topo,
            &tm,
            &tunnels,
            &from,
            &to,
            &ing,
            &cfg,
            0,
            OutcomeSource::Recorded(&events),
        );
        assert_eq!(reached, to);
        assert!(rep.completed);
    }
}
