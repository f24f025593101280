//! Seeded generation of adversarial campaigns and event-stream
//! perturbations.
//!
//! Everything here is a pure function of `(master_seed, campaign
//! index)`: the same inputs always produce the same campaign plan, the
//! same perturbed trace, and therefore the same harness verdict — a
//! failing campaign can be re-run from its seed alone.

use ffc_core::FfcConfig;
pub use ffc_fleet::splitmix64;
use ffc_fleet::{shape_demand_events, DemandShape};
use ffc_net::{LinkId, NodeId, Topology, TrafficMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ffc_ctrl::{Event, TimedEvent};

/// The seed campaign `index` runs under `master`: splitmix64
/// decorrelates campaign indices from the master seed, so two campaigns
/// of one run — or the same index under different master seeds — get
/// unrelated RNG streams.
pub fn campaign_seed(master: u64, index: usize) -> u64 {
    splitmix64(master ^ splitmix64(index as u64 + 1))
}

/// What flavour of adversity a campaign applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignKind {
    /// Fault storms stay within the configured `(kc, ke, kv)`: the
    /// gated congestion invariant must hold on every interval.
    WithinK,
    /// Storms deliberately exceed the protection level (and may drop a
    /// whole interval's acks): overload is *expected*, the harness only
    /// asserts the controller survives and its bookkeeping stays sound.
    OverK,
    /// Rare solver failures are forced: starved iteration budgets,
    /// injected singular refactorizations, poisoned warm-basis hints.
    SolverChaos,
}

impl CampaignKind {
    /// Short label for reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            CampaignKind::WithinK => "within-k",
            CampaignKind::OverK => "over-k",
            CampaignKind::SolverChaos => "solver-chaos",
        }
    }
}

/// Deterministic solver-failure knobs a campaign threads into the
/// controller's [`ffc_lp::SimplexOptions`] and
/// [`ffc_ctrl::ChaosHooks`]. All fire identically in live and replay
/// runs, so fingerprints still reproduce.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolverChaosPlan {
    /// Starve the simplex iteration budget (forces
    /// `LpError::LimitExceeded` on big-enough solves).
    pub max_iters: Option<usize>,
    /// Force a singular refactorization once a solve reaches this many
    /// iterations (forces `LpError::NumericalFailure`).
    pub inject_singular_after: Option<usize>,
    /// Intervals whose chained warm-basis hint is scrambled.
    pub poison_hint_intervals: Vec<usize>,
}

/// How the recorded rollout outcomes of a live run are perturbed before
/// the adversarial replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerturbPlan {
    /// Probability an ack/timeout is dropped (a dropped ack is an ack
    /// timeout from the replaying controller's point of view).
    pub drop_p: f64,
    /// Probability an ack is duplicated with a different delay (the
    /// executor must resolve duplicates deterministically).
    pub dup_p: f64,
    /// Probability an ack is flipped into a timeout for the same
    /// switch/step (mid-rollout switch failure).
    pub flip_p: f64,
    /// Probability two adjacent recorded outcomes swap places.
    pub reorder_p: f64,
    /// Drop *every* recorded outcome of this interval (total control
    /// channel loss during a fault storm).
    pub drop_all_interval: Option<usize>,
}

/// A fully described campaign: input events, solver chaos, and the
/// perturbation applied to the recorded outcomes.
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    /// Campaign index within the run.
    pub index: usize,
    /// The campaign's derived RNG seed (also the controller seed).
    pub seed: u64,
    /// Adversity flavour.
    pub kind: CampaignKind,
    /// Input events (demand changes, faults, repairs, protection
    /// changes) for the live run.
    pub events: Vec<TimedEvent>,
    /// Deterministic solver-failure injection.
    pub solver: SolverChaosPlan,
    /// Ack-stream perturbation for the adversarial replay.
    pub perturb: PerturbPlan,
    /// Demand shapes (diurnal ramps, flash crowds, per-source skew)
    /// compiled into `events`; empty unless the campaign was generated
    /// through [`generate_campaign_shaped`] with a base matrix.
    pub shapes: Vec<DemandShape>,
}

/// Generates campaign `index` of a run: seeded storms (correlated on a
/// pivot switch), bursty and stale demand, repairs, occasional operator
/// protection changes, and — per campaign kind — solver chaos or
/// over-`k` escalation.
pub fn generate_campaign(
    topo: &Topology,
    ffc: &FfcConfig,
    master_seed: u64,
    index: usize,
    intervals: usize,
) -> CampaignPlan {
    let seed = campaign_seed(master_seed, index);
    let mut rng = StdRng::seed_from_u64(seed);
    let kind = match rng.gen::<f64>() {
        x if x < 0.55 => CampaignKind::WithinK,
        x if x < 0.80 => CampaignKind::OverK,
        _ => CampaignKind::SolverChaos,
    };

    let mut events = Vec::new();

    // Demand stream: jittered scales with occasional bursts; a "stale"
    // interval emits nothing and the controller keeps the old demands.
    for interval in 0..intervals {
        let r = rng.gen::<f64>();
        if r < 0.15 {
            continue; // stale demand update
        }
        let factor = if r < 0.30 {
            1.4 + rng.gen::<f64>() * 0.8 // burst
        } else {
            0.9 + rng.gen::<f64>() * 0.2 // jitter
        };
        events.push(TimedEvent {
            interval,
            event: Event::DemandScale(factor),
        });
    }

    // Correlated fault storm around a pivot switch: its incident links
    // fail together, optionally with the switch itself.
    let storm_interval = if intervals > 1 {
        1 + rng.gen_range(0..intervals - 1)
    } else {
        0
    };
    let (link_faults, switch_faults) = match kind {
        CampaignKind::OverK => (ffc.ke + 1 + rng.gen_range(0..2usize), ffc.kv + 1),
        _ => (rng.gen_range(0..ffc.ke + 1), rng.gen_range(0..ffc.kv + 1)),
    };
    let pivot = ffc_net::NodeId(rng.gen_range(0..topo.num_nodes()));
    let mut incident: Vec<ffc_net::LinkId> = topo
        .out_links(pivot)
        .iter()
        .chain(topo.in_links(pivot))
        .copied()
        .collect();
    incident.sort_unstable_by_key(|l| l.index());
    let mut downed = Vec::new();
    for &l in incident.iter().take(link_faults) {
        events.push(TimedEvent {
            interval: storm_interval,
            event: Event::LinkDown(l),
        });
        downed.push(l);
    }
    let mut switch_downed = Vec::new();
    // Over-k switch storms only make sense when switch protection is in
    // play (or deliberately exceeded); keep them opt-in by probability
    // so most campaigns stress the link dimension.
    let switch_storm = switch_faults > 0 && (ffc.kv > 0 || rng.gen::<f64>() < 0.25);
    if switch_storm {
        for _ in 0..switch_faults {
            let v = ffc_net::NodeId(rng.gen_range(0..topo.num_nodes()));
            if !switch_downed.contains(&v) {
                events.push(TimedEvent {
                    interval: storm_interval,
                    event: Event::SwitchDown(v),
                });
                switch_downed.push(v);
            }
        }
    }
    // Repairs one or two intervals later, when the run is long enough.
    let repair_interval = storm_interval + 1 + rng.gen_range(0..2usize);
    if repair_interval < intervals {
        for &l in &downed {
            events.push(TimedEvent {
                interval: repair_interval,
                event: Event::LinkUp(l),
            });
        }
        for &v in &switch_downed {
            events.push(TimedEvent {
                interval: repair_interval,
                event: Event::SwitchUp(v),
            });
        }
    }

    // Occasional operator protection change (never above the configured
    // level, so within-k campaigns stay within k).
    if rng.gen::<f64>() < 0.15 && intervals > 2 {
        let interval = 1 + rng.gen_range(0..intervals - 1);
        events.push(TimedEvent {
            interval,
            event: Event::SetProtection {
                kc: rng.gen_range(0..ffc.kc + 1),
                ke: rng.gen_range(0..ffc.ke + 1),
                kv: rng.gen_range(0..ffc.kv + 1),
            },
        });
    }

    events.sort_by_key(|te| te.interval);

    let solver = if kind == CampaignKind::SolverChaos {
        // At least one knob fires; each is drawn independently.
        let mut plan = SolverChaosPlan {
            max_iters: rng.gen_bool(0.4).then(|| 20 + rng.gen_range(0..180usize)),
            inject_singular_after: rng.gen_bool(0.4).then(|| 20 + rng.gen_range(0..180usize)),
            poison_hint_intervals: Vec::new(),
        };
        if rng.gen_bool(0.5) || (plan.max_iters.is_none() && plan.inject_singular_after.is_none()) {
            let n = 1 + rng.gen_range(0..2usize.min(intervals));
            for _ in 0..n {
                let i = rng.gen_range(0..intervals);
                if !plan.poison_hint_intervals.contains(&i) {
                    plan.poison_hint_intervals.push(i);
                }
            }
            plan.poison_hint_intervals.sort_unstable();
        }
        plan
    } else {
        SolverChaosPlan::default()
    };

    let perturb = PerturbPlan {
        drop_p: 0.10,
        dup_p: 0.05,
        flip_p: 0.05,
        reorder_p: 0.05,
        drop_all_interval: (kind == CampaignKind::OverK && rng.gen_bool(0.5))
            .then_some(storm_interval),
    };

    CampaignPlan {
        index,
        seed,
        kind,
        events,
        solver,
        perturb,
        shapes: Vec::new(),
    }
}

/// Optional inputs that extend a campaign beyond what
/// [`generate_campaign`] draws from the topology alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShapingInputs<'a> {
    /// Base traffic matrix to fuzz with reusable fleet demand shapes
    /// (diurnal ramps, flash crowds, per-source skew). `None` leaves
    /// the demand stream exactly as [`generate_campaign`] drew it.
    pub tm: Option<&'a TrafficMatrix>,
    /// Mean per-link utilization, indexed like the topology's links
    /// (e.g. [`ffc_fleet::TelemetryStore::link_heat`] from an earlier
    /// campaign's store). When present, fault storms are re-aimed at
    /// the hottest part of the network instead of a uniformly drawn
    /// pivot — coverage-guided chaos.
    pub link_heat: Option<&'a [f64]>,
}

/// [`generate_campaign`] plus optional demand shaping and
/// utilization-guided storm targeting.
///
/// The base plan is produced by [`generate_campaign`] unchanged, and
/// both extensions draw from their own derived RNG streams, so with
/// empty [`ShapingInputs`] the result is bit-identical to the plain
/// generator — committed fixture traces and the CI chaos-smoke
/// run-diff depend on that.
pub fn generate_campaign_shaped(
    topo: &Topology,
    ffc: &FfcConfig,
    master_seed: u64,
    index: usize,
    intervals: usize,
    shaping: &ShapingInputs<'_>,
) -> CampaignPlan {
    let mut plan = generate_campaign(topo, ffc, master_seed, index, intervals);

    if let Some(tm) = shaping.tm {
        let mut rng = StdRng::seed_from_u64(splitmix64(plan.seed ^ 0x5AFE));
        let groups: Vec<usize> = tm.iter().map(|(_, f)| f.src.index()).collect();
        plan.shapes = draw_demand_shapes(&mut rng, &groups, intervals);
        // Appended after the base events and stably sorted, so within
        // an interval any base DemandScale applies first and the
        // per-flow shaped DemandSet wins for the flows it names.
        plan.events
            .extend(shape_demand_events(tm, &groups, &plan.shapes, intervals));
        plan.events.sort_by_key(|te| te.interval);
    }
    if let Some(heat) = shaping.link_heat {
        retarget_storm(topo, heat, &mut plan);
    }
    plan
}

/// Draws a campaign's demand-shape set: always a diurnal ramp, plus a
/// flash crowd and/or a per-source skew with moderate probability. All
/// multipliers stay within [`ffc_fleet::workload::combined_multiplier`]'s
/// clamp band, so shaped demand can stress but never zero out a flow.
fn draw_demand_shapes(rng: &mut StdRng, groups: &[usize], intervals: usize) -> Vec<DemandShape> {
    let mut shapes = vec![DemandShape::Diurnal {
        amplitude: 0.1 + rng.gen::<f64>() * 0.35,
        peak: rng.gen::<f64>() * intervals.max(1) as f64,
        period_intervals: intervals.max(2) as f64,
    }];
    let mut uniq: Vec<usize> = groups.to_vec();
    uniq.sort_unstable();
    uniq.dedup();
    if !uniq.is_empty() {
        if rng.gen_bool(0.6) {
            let duration = 1 + rng.gen_range(0..intervals.max(2) - 1);
            shapes.push(DemandShape::FlashCrowd {
                group: uniq[rng.gen_range(0..uniq.len())],
                start: rng.gen_range(0..intervals.max(1)),
                duration,
                magnitude: 1.5 + rng.gen::<f64>() * 2.0,
            });
        }
        if rng.gen_bool(0.5) {
            shapes.push(DemandShape::SiteSkew {
                group: uniq[rng.gen_range(0..uniq.len())],
                factor: 0.5 + rng.gen::<f64>() * 2.0,
            });
        }
    }
    shapes
}

/// Re-aims a plan's link-fault storm at the hottest switch: the pivot
/// becomes the node whose incident links carry the most observed
/// utilization, and its hottest links fail first (topping up from the
/// globally hottest links if the new pivot's degree is too small, so
/// the fault *count* — and thus the within-k/over-k contract — is
/// preserved). Repairs follow the retargeted links to the plan's
/// original repair interval. Switch faults are left untouched.
fn retarget_storm(topo: &Topology, heat: &[f64], plan: &mut CampaignPlan) {
    if heat.len() != topo.num_links() {
        return;
    }
    let downed: Vec<LinkId> = plan
        .events
        .iter()
        .filter_map(|te| match te.event {
            Event::LinkDown(l) => Some(l),
            _ => None,
        })
        .collect();
    let storm_interval = match plan
        .events
        .iter()
        .find(|te| matches!(te.event, Event::LinkDown(_)))
    {
        Some(te) => te.interval,
        None => return, // no link storm to retarget
    };
    let repair_interval = plan
        .events
        .iter()
        .find(|te| matches!(te.event, Event::LinkUp(_)))
        .map(|te| te.interval);

    let hotter = |a: LinkId, b: LinkId| {
        heat[b.index()]
            .total_cmp(&heat[a.index()])
            .then(a.index().cmp(&b.index()))
    };

    // Hottest switch by summed incident heat; ties break to the lowest
    // node index, keeping the retarget fully deterministic.
    let mut pivot = NodeId(0);
    let mut best = f64::NEG_INFINITY;
    for v in (0..topo.num_nodes()).map(NodeId) {
        let score: f64 = topo
            .out_links(v)
            .iter()
            .chain(topo.in_links(v))
            .map(|l| heat[l.index()])
            .sum();
        if score > best {
            best = score;
            pivot = v;
        }
    }
    let mut incident: Vec<LinkId> = topo
        .out_links(pivot)
        .iter()
        .chain(topo.in_links(pivot))
        .copied()
        .collect();
    incident.sort_unstable_by(|&a, &b| hotter(a, b));
    let mut targets: Vec<LinkId> = incident.into_iter().take(downed.len()).collect();
    if targets.len() < downed.len() {
        let mut rest: Vec<LinkId> = topo.links().filter(|l| !targets.contains(l)).collect();
        rest.sort_unstable_by(|&a, &b| hotter(a, b));
        targets.extend(rest.into_iter().take(downed.len() - targets.len()));
    }

    // The base plan only emits link up/down events for its storm, so
    // dropping them all and re-emitting against the new targets keeps
    // everything else (demand, switch faults, protection changes) as
    // drawn.
    plan.events
        .retain(|te| !matches!(te.event, Event::LinkDown(_) | Event::LinkUp(_)));
    for &l in &targets {
        plan.events.push(TimedEvent {
            interval: storm_interval,
            event: Event::LinkDown(l),
        });
    }
    if let Some(r) = repair_interval {
        for &l in &targets {
            plan.events.push(TimedEvent {
                interval: r,
                event: Event::LinkUp(l),
            });
        }
    }
    plan.events.sort_by_key(|te| te.interval);
}

/// Applies a [`PerturbPlan`] to a recorded event stream: input events
/// pass through untouched; recorded ack/timeout outcomes are dropped,
/// duplicated, flipped to timeouts, and locally reordered under the
/// campaign's RNG. Deterministic in `seed`.
pub fn perturb_outcomes(events: &[TimedEvent], plan: &PerturbPlan, seed: u64) -> Vec<TimedEvent> {
    let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ 0xACED));
    let mut out: Vec<TimedEvent> = Vec::with_capacity(events.len());
    for te in events {
        if !te.event.is_recorded_outcome() {
            out.push(te.clone());
            continue;
        }
        if plan.drop_all_interval == Some(te.interval) {
            continue;
        }
        if rng.gen::<f64>() < plan.drop_p {
            continue;
        }
        if let Event::UpdateAck {
            switch,
            step,
            delay,
        } = te.event
        {
            if rng.gen::<f64>() < plan.flip_p {
                out.push(TimedEvent {
                    interval: te.interval,
                    event: Event::UpdateTimeout { switch, step },
                });
                continue;
            }
            out.push(te.clone());
            if rng.gen::<f64>() < plan.dup_p {
                // A duplicate with a different delay: last write wins in
                // the executor, so this changes the rollout timing.
                out.push(TimedEvent {
                    interval: te.interval,
                    event: Event::UpdateAck {
                        switch,
                        step,
                        delay: delay * 1.5 + 0.001,
                    },
                });
            }
        } else {
            out.push(te.clone());
        }
    }
    // Local reordering of adjacent recorded outcomes.
    for i in 1..out.len() {
        if out[i].event.is_recorded_outcome()
            && out[i - 1].event.is_recorded_outcome()
            && out[i].interval == out[i - 1].interval
            && rng.gen::<f64>() < plan.reorder_p
        {
            out.swap(i - 1, i);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_topo() -> Topology {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        t.add_bidi(a, b, 10.0);
        t.add_bidi(b, c, 10.0);
        t.add_bidi(a, c, 10.0);
        t
    }

    #[test]
    fn campaigns_are_deterministic_in_seed_and_index() {
        let topo = toy_topo();
        let ffc = FfcConfig::new(1, 1, 0);
        let a = generate_campaign(&topo, &ffc, 7, 3, 4);
        let b = generate_campaign(&topo, &ffc, 7, 3, 4);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.events, b.events);
        assert_eq!(a.solver, b.solver);
        assert_eq!(a.perturb, b.perturb);
        // Different index ⇒ different stream.
        let c = generate_campaign(&topo, &ffc, 7, 4, 4);
        assert_ne!(a.seed, c.seed);
    }

    #[test]
    fn within_k_storms_respect_the_protection_level() {
        let topo = toy_topo();
        let ffc = FfcConfig::new(1, 1, 0);
        for idx in 0..64 {
            let plan = generate_campaign(&topo, &ffc, 11, idx, 4);
            if plan.kind == CampaignKind::OverK {
                continue;
            }
            let downs = plan
                .events
                .iter()
                .filter(|te| matches!(te.event, Event::LinkDown(_)))
                .count();
            assert!(downs <= ffc.ke, "campaign {idx} failed {downs} links");
        }
    }

    #[test]
    fn over_k_storms_exceed_the_protection_level() {
        let topo = toy_topo();
        let ffc = FfcConfig::new(1, 1, 0);
        let mut saw_over = false;
        for idx in 0..64 {
            let plan = generate_campaign(&topo, &ffc, 11, idx, 4);
            if plan.kind != CampaignKind::OverK {
                continue;
            }
            let downs = plan
                .events
                .iter()
                .filter(|te| matches!(te.event, Event::LinkDown(_)))
                .count();
            assert!(downs > ffc.ke, "over-k campaign {idx} failed only {downs}");
            saw_over = true;
        }
        assert!(saw_over, "64 campaigns should include an over-k one");
    }

    fn toy_tm() -> TrafficMatrix {
        let mut tm = TrafficMatrix::new();
        tm.add_flow(NodeId(0), NodeId(2), 4.0, ffc_net::Priority::High);
        tm.add_flow(NodeId(1), NodeId(2), 3.0, ffc_net::Priority::High);
        tm
    }

    #[test]
    fn empty_shaping_reproduces_the_plain_generator_bit_for_bit() {
        let topo = toy_topo();
        let ffc = FfcConfig::new(1, 1, 0);
        for idx in 0..16 {
            let plain = generate_campaign(&topo, &ffc, 7, idx, 4);
            let shaped =
                generate_campaign_shaped(&topo, &ffc, 7, idx, 4, &ShapingInputs::default());
            assert_eq!(plain.seed, shaped.seed);
            assert_eq!(plain.kind, shaped.kind);
            assert_eq!(plain.events, shaped.events);
            assert_eq!(plain.solver, shaped.solver);
            assert_eq!(plain.perturb, shaped.perturb);
            assert!(shaped.shapes.is_empty());
        }
    }

    #[test]
    fn shaped_demand_adds_bounded_per_flow_updates() {
        let topo = toy_topo();
        let ffc = FfcConfig::new(1, 1, 0);
        let tm = toy_tm();
        let shaping = ShapingInputs {
            tm: Some(&tm),
            link_heat: None,
        };
        let mut saw_set = false;
        for idx in 0..16 {
            let a = generate_campaign_shaped(&topo, &ffc, 7, idx, 6, &shaping);
            let b = generate_campaign_shaped(&topo, &ffc, 7, idx, 6, &shaping);
            assert_eq!(a.events, b.events, "shaped campaigns must be deterministic");
            assert_eq!(a.shapes, b.shapes);
            assert!(!a.shapes.is_empty(), "a diurnal ramp is always drawn");
            for te in &a.events {
                if let Event::DemandSet { flow, demand } = te.event {
                    saw_set = true;
                    let base = tm.flow(ffc_net::FlowId(flow)).demand;
                    assert!(
                        demand > 0.0 && demand <= base * 20.0,
                        "campaign {idx}: shaped demand {demand} out of band (base {base})"
                    );
                }
            }
            // The base fault storm is untouched by demand shaping.
            let plain = generate_campaign(&topo, &ffc, 7, idx, 6);
            let faults = |evs: &[TimedEvent]| {
                evs.iter()
                    .filter(|te| matches!(te.event, Event::LinkDown(_)))
                    .count()
            };
            assert_eq!(faults(&plain.events), faults(&a.events));
        }
        assert!(saw_set, "16 shaped campaigns should emit DemandSet events");
    }

    #[test]
    fn link_heat_retargets_storms_at_the_hottest_links() {
        let topo = toy_topo();
        let ffc = FfcConfig::new(1, 2, 0);
        // All the heat concentrates on node b's incident links.
        let hot = NodeId(1);
        let mut heat = vec![0.0; topo.num_links()];
        for l in topo.out_links(hot).iter().chain(topo.in_links(hot)) {
            heat[l.index()] = 0.95;
        }
        let shaping = ShapingInputs {
            tm: None,
            link_heat: Some(&heat),
        };
        let mut retargeted = false;
        for idx in 0..32 {
            let plain = generate_campaign(&topo, &ffc, 3, idx, 4);
            let shaped = generate_campaign_shaped(&topo, &ffc, 3, idx, 4, &shaping);
            let downs = |evs: &[TimedEvent]| -> Vec<LinkId> {
                evs.iter()
                    .filter_map(|te| match te.event {
                        Event::LinkDown(l) => Some(l),
                        _ => None,
                    })
                    .collect()
            };
            let (p, s) = (downs(&plain.events), downs(&shaped.events));
            // The fault count — and thus the within-k/over-k contract —
            // is preserved exactly.
            assert_eq!(p.len(), s.len(), "campaign {idx}");
            let incident_to_hot = |l: &LinkId| {
                topo.out_links(hot)
                    .iter()
                    .chain(topo.in_links(hot))
                    .any(|x| x == l)
            };
            // Up to the hot node's degree, every failed link is one of
            // its incident links.
            let degree = topo.out_links(hot).len() + topo.in_links(hot).len();
            for l in s.iter().take(degree) {
                assert!(incident_to_hot(l), "campaign {idx} failed cold link {l:?}");
            }
            if !s.is_empty() {
                retargeted = true;
                // Repairs follow the retargeted links.
                let ups: Vec<LinkId> = shaped
                    .events
                    .iter()
                    .filter_map(|te| match te.event {
                        Event::LinkUp(l) => Some(l),
                        _ => None,
                    })
                    .collect();
                if !ups.is_empty() {
                    let mut a = s.clone();
                    let mut b = ups.clone();
                    a.sort_unstable_by_key(|l| l.index());
                    b.sort_unstable_by_key(|l| l.index());
                    assert_eq!(a, b, "campaign {idx}");
                }
            }
        }
        assert!(retargeted, "32 campaigns should include a link storm");
    }

    #[test]
    fn perturbation_is_deterministic_and_leaves_inputs_alone() {
        let events = vec![
            TimedEvent {
                interval: 0,
                event: Event::DemandScale(1.1),
            },
            TimedEvent {
                interval: 0,
                event: Event::UpdateAck {
                    switch: ffc_net::NodeId(0),
                    step: 0,
                    delay: 0.01,
                },
            },
            TimedEvent {
                interval: 1,
                event: Event::UpdateAck {
                    switch: ffc_net::NodeId(0),
                    step: 0,
                    delay: 0.02,
                },
            },
        ];
        let plan = PerturbPlan {
            drop_p: 0.5,
            dup_p: 0.5,
            flip_p: 0.5,
            reorder_p: 0.5,
            drop_all_interval: Some(1),
        };
        let a = perturb_outcomes(&events, &plan, 9);
        let b = perturb_outcomes(&events, &plan, 9);
        assert_eq!(a, b);
        // The input event survives every perturbation…
        assert!(a.iter().any(|te| matches!(te.event, Event::DemandScale(_))));
        // …and the drop-all interval has no outcomes left.
        assert!(!a
            .iter()
            .any(|te| te.interval == 1 && te.event.is_recorded_outcome()));
    }
}
