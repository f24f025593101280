//! The TE-interval simulator behind the paper's data-driven evaluation
//! (§8): every 5-minute interval the controller recomputes TE (with or
//! without FFC), pushes it to switches (which may be slow or fail,
//! §2.3), and data-plane faults arrive per the fault process. Losses are
//! accounted per §8.1:
//!
//! * **blackhole** — traffic aimed at dead tunnels between a failure and
//!   the ingress rescaling (detection + notification + rescale delays);
//! * **congestion** — link oversubscription × duration, with priority
//!   queueing deciding which class's packets drop.
//!
//! Reaction policies (§8.1 "TE approaches"): without FFC the controller
//! reacts to every data-plane fault (recompute + update, paying switch
//! update delays — the slowest/failed switch prolongs congestion). With
//! FFC the controller reacts only at the *edge* of the protection level.
//!
//! Simplifications vs. a packet simulator (documented in DESIGN.md):
//! the ~50 ms blackhole window uses post-rescale loads for congestion
//! (over-counts ≤ 50 ms of a 300 s interval), and a reacting controller
//! installs its new configuration atomically once the slowest
//! participating switch has applied it.

use rand::rngs::StdRng;
use rand::SeedableRng;

use ffc_core::priority::solve_priority_ffc_with_faults;
use ffc_core::te::{TeConfig, TeModelBuilder, TeProblem};
use ffc_core::{zero_dead_tunnels, FfcConfig, PriorityFfcConfig};
use ffc_net::{FaultScenario, NodeId, Topology, TrafficMatrix, TunnelTable};

use crate::faults::{FaultModel, FaultProcess};
use crate::loss::{pidx, priority_congestion_loss, priority_link_loads, rate_on_dead_tunnels};
use crate::metrics::RunTotals;
use crate::switch_model::{SwitchModel, UpdateOutcome};

/// What protection the controller runs with.
#[derive(Debug, Clone)]
pub enum Protection {
    /// Plain TE, reactive only.
    None,
    /// Single-priority FFC at one protection level.
    Single(FfcConfig),
    /// Cascaded multi-priority FFC (§5.1 / §8.4).
    Multi(PriorityFfcConfig),
}

impl Protection {
    /// The paper's recommended single-priority setting (2,1,0).
    pub fn recommended() -> Self {
        Protection::Single(FfcConfig::recommended())
    }

    /// The strictest (ke, kv) edge used for reaction decisions.
    fn edge(&self) -> (usize, usize) {
        match self {
            Protection::None => (0, 0),
            Protection::Single(c) => (c.ke, c.kv),
            // Per-priority edges collapse to the medium class's (the
            // protected-but-reactive tier); high is designed to ride out
            // larger faults.
            Protection::Multi(c) => (c.medium.ke, c.medium.kv),
        }
    }
}

/// Simulator parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// TE interval length in seconds (paper: 300).
    pub interval_secs: f64,
    /// Switch update behaviour.
    pub switch_model: SwitchModel,
    /// Protection policy.
    pub protection: Protection,
    /// Data-plane fault process.
    pub fault_model: FaultModel,
    /// Link-failure detection delay (paper testbed: ~5 ms).
    pub detection_secs: f64,
    /// Failure notification to ingresses (propagation; ~50 ms WAN-wide).
    pub notify_secs: f64,
    /// Ingress rescale application (paper testbed: ~2 ms).
    pub rescale_secs: f64,
    /// Controller recompute time before a reactive update.
    pub controller_compute_secs: f64,
    /// Timeout after which a failed switch update is retried.
    pub retry_timeout_secs: f64,
    /// Rule changes per switch per update (paper: "commonly over 100").
    pub rules_per_update: usize,
    /// Whether unfinished demand carries into the next interval (§8.1).
    pub carry_over: bool,
    /// RNG seed.
    pub seed: u64,
}

impl SimConfig {
    /// Defaults per §7/§8 with the given model and protection.
    pub fn new(switch_model: SwitchModel, protection: Protection) -> Self {
        SimConfig {
            interval_secs: 300.0,
            switch_model,
            protection,
            fault_model: FaultModel::default(),
            detection_secs: 0.005,
            notify_secs: 0.050,
            rescale_secs: 0.002,
            controller_compute_secs: 0.3,
            retry_timeout_secs: 10.0,
            rules_per_update: 100,
            carry_over: true,
            seed: 42,
        }
    }
}

/// Per-interval record for debugging and CDF extraction.
#[derive(Debug, Clone, Default)]
pub struct IntervalRecord {
    /// Granted rate volume this interval (rate × seconds), per priority.
    pub delivered: [f64; 3],
    /// Congestion loss volume, per priority.
    pub lost_congestion: [f64; 3],
    /// Blackhole loss volume, per priority.
    pub lost_blackhole: [f64; 3],
    /// Peak relative link oversubscription observed.
    pub max_oversubscription: f64,
    /// New data-plane fault events.
    pub fault_events: usize,
    /// Whether the controller reacted mid-interval.
    pub reacted: bool,
}

/// Full simulation output.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Totals over all intervals.
    pub totals: RunTotals,
    /// Per-interval records.
    pub intervals: Vec<IntervalRecord>,
}

/// The simulator.
pub struct Simulator<'a> {
    topo: &'a Topology,
    tunnels: &'a TunnelTable,
    cfg: SimConfig,
    rng: StdRng,
    /// Separate stream for fault arrival so FFC and non-FFC arms see
    /// identical fault sequences under the same seed (paired runs).
    fault_rng: StdRng,
    faults: FaultProcess,
    installed: Option<TeConfig>,
    carryover: Vec<f64>,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator over a fixed topology and tunnel layout.
    pub fn new(topo: &'a Topology, tunnels: &'a TunnelTable, cfg: SimConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        let fault_rng = StdRng::seed_from_u64(cfg.seed ^ 0x9E37_79B9_7F4A_7C15);
        Simulator {
            topo,
            tunnels,
            cfg,
            rng,
            fault_rng,
            faults: FaultProcess::new(),
            installed: None,
            carryover: Vec::new(),
        }
    }

    /// Runs the simulation over a demand trace (one matrix per
    /// interval; all intervals must share the flow set).
    pub fn run(&mut self, trace: &[TrafficMatrix]) -> SimReport {
        let mut report = SimReport::default();
        for tm in trace {
            let rec = self.step(tm);
            report
                .totals
                .add(&rec.delivered, &rec.lost_congestion, &rec.lost_blackhole);
            report.intervals.push(rec);
        }
        report
    }

    /// Computes the controller's configuration for the interval.
    fn compute_config(
        &self,
        tm: &TrafficMatrix,
        old: &TeConfig,
        scenario: &FaultScenario,
    ) -> TeConfig {
        let problem = TeProblem::new(self.topo, tm, self.tunnels);
        match &self.cfg.protection {
            Protection::None => {
                let mut builder = TeModelBuilder::new(problem);
                zero_dead_tunnels(&mut builder, scenario);
                builder.solve().expect("plain TE is always feasible")
            }
            Protection::Single(ffc) => {
                let mut builder = ffc_core::build_ffc_model(problem, old, ffc);
                zero_dead_tunnels(&mut builder, scenario);
                match builder.solve() {
                    Ok(cfg) => cfg,
                    // FFC can be infeasible under heavy active faults
                    // (§4.5); fall back to unprotected TE, as the paper
                    // does for overloaded links.
                    Err(_) => {
                        let mut b = TeModelBuilder::new(problem);
                        zero_dead_tunnels(&mut b, scenario);
                        b.solve().expect("plain TE is always feasible")
                    }
                }
            }
            Protection::Multi(pcfg) => {
                match solve_priority_ffc_with_faults(
                    self.topo,
                    tm,
                    self.tunnels,
                    old,
                    pcfg,
                    Some(scenario),
                ) {
                    Ok(sol) => sol.merged,
                    Err(_) => {
                        let mut b = TeModelBuilder::new(problem);
                        zero_dead_tunnels(&mut b, scenario);
                        b.solve().expect("plain TE is always feasible")
                    }
                }
            }
        }
    }

    /// Whether FFC's reaction edge has been reached for the active
    /// faults.
    fn at_protection_edge(&self) -> bool {
        match &self.cfg.protection {
            Protection::None => true, // always reactive
            _ => {
                let (ke, kv) = self.cfg.protection.edge();
                self.faults.active_link_count() >= ke.max(1)
                    || (kv > 0 && self.faults.active_switch_count() >= kv)
                    || (kv == 0 && self.faults.active_switch_count() > 0)
            }
        }
    }

    /// Simulates one TE interval.
    #[allow(clippy::needless_range_loop)] // fixed-size priority arrays
    pub fn step(&mut self, tm_base: &TrafficMatrix) -> IntervalRecord {
        let interval = self.cfg.interval_secs;
        let mut rec = IntervalRecord::default();

        // Demand carry-over.
        let mut tm = tm_base.clone();
        if self.carryover.len() == tm.len() && self.cfg.carry_over {
            for (i, extra) in self.carryover.iter().enumerate() {
                let f = ffc_net::FlowId(i);
                let base = tm.flow(f).demand;
                // Cap runaway backlogs at 2x the instantaneous demand.
                tm.set_demand(f, base + extra.min(base * 2.0));
            }
        }

        let old = self
            .installed
            .clone()
            .unwrap_or_else(|| TeConfig::zero(self.tunnels));

        // Interval-boundary TE computation on the current topology.
        let active = self.faults.scenario();
        let target = self.compute_config(&tm, &old, &active);

        // Dissemination: sample per-ingress update outcomes. A switch
        // whose update *fails* keeps the old weights (it is "stale")
        // until a retry succeeds: each retry costs the detection timeout
        // plus a fresh attempt. Ordinary (successful) update delays are
        // not modeled as staleness — under the ordered-update discipline
        // (§5.5) the pre-update state is safe, and sub-interval mixing
        // is negligible at the 300 s scale; only *faults* (failed
        // updates) leave a switch behind while the network moves on.
        let ingresses: Vec<NodeId> = {
            let mut seen = vec![false; self.topo.num_nodes()];
            for (_, f) in tm.iter() {
                seen[f.src.index()] = true;
            }
            (0..self.topo.num_nodes())
                .filter(|&i| seen[i])
                .map(NodeId)
                .collect()
        };
        // (switch, time at which it becomes fresh; 0 = immediately).
        let mut fresh_at: Vec<(NodeId, f64)> = Vec::with_capacity(ingresses.len());
        for &v in &ingresses {
            let mut t = 0.0;
            loop {
                match self
                    .cfg
                    .switch_model
                    .sample_outcome(&mut self.rng, self.cfg.rules_per_update)
                {
                    UpdateOutcome::Applied(d) => {
                        // Only count the apply delay when recovering
                        // from a failure (see above).
                        if t > 0.0 {
                            t += d;
                        }
                        break;
                    }
                    UpdateOutcome::Failed => {
                        t += self.cfg.retry_timeout_secs;
                        if t >= interval {
                            t = f64::INFINITY;
                            break;
                        }
                    }
                }
            }
            fresh_at.push((v, t));
        }

        // Data-plane faults this interval.
        let fault_model = self.cfg.fault_model.clone();
        let new_faults = self
            .faults
            .step(&mut self.fault_rng, self.topo, &fault_model, interval);
        rec.fault_events = new_faults.new_links.len() + new_faults.new_switches.len();
        let rescale_lag = self.cfg.detection_secs + self.cfg.notify_secs + self.cfg.rescale_secs;

        // Blackhole windows for each new fault. The volume is attributed
        // to priorities proportionally to the per-priority share of the
        // dead traffic, approximated by the config's overall mix.
        for &(l, t) in &new_faults.new_links {
            let mut sc = FaultScenario::none();
            sc.fail_link(l);
            let window = rescale_lag.min(interval - t);
            charge_blackhole(
                self.topo,
                &tm,
                self.tunnels,
                &target,
                &sc,
                window,
                &mut rec.lost_blackhole,
            );
        }
        for &(v, t) in &new_faults.new_switches {
            let mut sc = FaultScenario::none();
            sc.fail_switch(v);
            let window = rescale_lag.min(interval - t);
            charge_blackhole(
                self.topo,
                &tm,
                self.tunnels,
                &target,
                &sc,
                window,
                &mut rec.lost_blackhole,
            );
        }

        // Reaction decision: non-FFC reacts to any new data-plane fault;
        // FFC reacts only at the protection edge.
        let first_fault_time = new_faults
            .new_links
            .iter()
            .map(|&(_, t)| t)
            .chain(new_faults.new_switches.iter().map(|&(_, t)| t))
            .fold(f64::INFINITY, f64::min);
        let wants_reaction = !new_faults.is_empty() && self.at_protection_edge();

        // Reaction completes when the slowest participating switch has
        // applied the fix (failed switches cap at interval end).
        let reaction_done = if wants_reaction {
            let start = first_fault_time + self.cfg.notify_secs + self.cfg.controller_compute_secs;
            let mut done = start;
            for _ in 0..ingresses.len() {
                let d = self
                    .cfg
                    .switch_model
                    .sample_outcome(&mut self.rng, self.cfg.rules_per_update)
                    .delay_or_inf();
                done = done.max(start + d);
            }
            rec.reacted = true;
            Some(done.min(interval))
        } else {
            None
        };

        // Build the segment timeline: switch freshness events, fault
        // times (+rescale), reaction completion.
        let mut breaks: Vec<f64> = vec![0.0, interval];
        for &(_, t) in &fresh_at {
            if t > 0.0 && t < interval {
                breaks.push(t);
            }
        }
        for &(_, t) in &new_faults.new_links {
            breaks.push(t);
            if t + rescale_lag < interval {
                breaks.push(t + rescale_lag);
            }
        }
        for &(_, t) in &new_faults.new_switches {
            breaks.push(t);
            if t + rescale_lag < interval {
                breaks.push(t + rescale_lag);
            }
        }
        if let Some(t) = reaction_done {
            breaks.push(t);
        }
        breaks.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        breaks.dedup_by(|a, b| (*a - *b).abs() < 1e-9);

        // The post-reaction configuration (computed lazily if a reaction
        // happens: plain/FFC TE on the failed topology).
        let post_reaction: Option<TeConfig> = reaction_done.map(|_| {
            let scenario = self.faults.scenario();
            self.compute_config(&tm, &target, &scenario)
        });

        // Walk segments and accumulate losses + delivery.
        let scenario_now = self.faults.scenario();
        for w in breaks.windows(2) {
            let (t0, t1) = (w[0], w[1]);
            let dur = t1 - t0;
            if dur <= 0.0 {
                continue;
            }
            let mid = 0.5 * (t0 + t1);

            // Active faults at `mid` that have finished rescaling.
            let mut sc = FaultScenario::none();
            for &l in &scenario_now.failed_links {
                let new_time = new_faults
                    .new_links
                    .iter()
                    .find(|&&(ll, _)| ll == l)
                    .map(|&(_, t)| t);
                match new_time {
                    Some(t) if mid < t + rescale_lag => {} // pre-rescale
                    _ => {
                        sc.fail_link(l);
                    }
                }
            }
            for &v in &scenario_now.failed_switches {
                let new_time = new_faults
                    .new_switches
                    .iter()
                    .find(|&&(vv, _)| vv == v)
                    .map(|&(_, t)| t);
                match new_time {
                    Some(t) if mid < t + rescale_lag => {}
                    _ => {
                        sc.fail_switch(v);
                    }
                }
            }
            // Stale ingresses at `mid`.
            for &(v, t) in &fresh_at {
                if mid < t {
                    sc.fail_config(v);
                }
            }

            // Which configuration is live?
            let (cfg_now, old_now) = match (reaction_done, &post_reaction) {
                (Some(t), Some(post)) if mid >= t => (post, &target),
                _ => (&target, &old),
            };

            let loads =
                priority_link_loads(self.topo, &tm, self.tunnels, cfg_now, Some(old_now), &sc);
            let drops = priority_congestion_loss(self.topo, &loads, dur);
            for p in 0..3 {
                rec.lost_congestion[p] += drops[p];
            }
            let flat = loads.collapse();
            rec.max_oversubscription = rec
                .max_oversubscription
                .max(flat.max_oversubscription_ratio(self.topo));
            // Delivery: what flows inject (drops are netted out below).
            for (f, flow) in tm.iter() {
                rec.delivered[pidx(flow.priority)] += flat.sent[f.index()] * dur;
            }
        }
        // Net in-network drops out of delivery.
        for p in 0..3 {
            rec.delivered[p] = (rec.delivered[p] - rec.lost_congestion[p]).max(0.0);
        }

        // Carry-over bookkeeping from granted rates.
        let final_cfg = post_reaction.as_ref().unwrap_or(&target);
        if self.cfg.carry_over {
            self.carryover = tm
                .iter()
                .map(|(id, f)| (f.demand - final_cfg.rate[id.index()]).max(0.0))
                .collect();
        }

        self.installed = Some(final_cfg.clone());
        rec
    }
}

/// Per-interval record produced by [`DrivenSim::advance`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DrivenInterval {
    /// Granted rate volume this interval (rate × seconds), per priority.
    pub delivered: [f64; 3],
    /// Congestion loss volume, per priority.
    pub lost_congestion: [f64; 3],
    /// Blackhole loss volume, per priority.
    pub lost_blackhole: [f64; 3],
    /// Peak relative link oversubscription observed.
    pub max_oversubscription: f64,
    /// Links whose post-rescale load exceeds capacity.
    pub overloaded_links: usize,
    /// Steady-state post-rescale load per directed link (indexed by
    /// `LinkId::index()`), as used for the congestion accounting above.
    /// Telemetry consumers turn this into utilization; empty only for
    /// the default value.
    pub link_load: Vec<f64>,
}

/// A step-wise driveable TE-interval simulator.
///
/// [`Simulator`] owns the whole loop: it recomputes TE, disseminates
/// configs, samples faults, and reacts — the controller is baked in.
/// `DrivenSim` inverts that: an *external* controller (`ffc-ctrl`) owns
/// the loop and drives the data plane one interval at a time —
/// injecting/repairing faults at interval boundaries, installing the
/// configuration it computed and rolled out, and reading back link
/// loads and the interval's loss accounting.
///
/// Loss model (same proxies as [`Simulator`], see DESIGN §5b):
///
/// * **blackhole** — traffic the *previously installed* configuration
///   aims at tunnels killed by a freshly injected fault, charged for
///   the detection + notification + rescale window;
/// * **congestion** — post-rescale link oversubscription × interval
///   length under the installed configuration, with stale ingresses
///   forwarding per the previous configuration (ordered updates, §5.5).
///
/// Unlike [`Simulator`], faults change only at interval boundaries
/// (events are the controller's input granularity) and demand
/// carry-over is not modeled — the controller's telemetry wants
/// per-interval quantities that don't bleed into each other.
pub struct DrivenSim<'a> {
    topo: &'a Topology,
    tunnels: &'a TunnelTable,
    /// TE interval length in seconds (paper: 300).
    pub interval_secs: f64,
    /// Detection + notification + ingress-rescale lag charged as the
    /// blackhole window for each new fault.
    pub rescale_lag_secs: f64,
    active: FaultScenario,
    /// Faults injected since the last `advance` (one scenario each, for
    /// blackhole attribution).
    fresh: Vec<FaultScenario>,
    installed: Option<TeConfig>,
}

impl<'a> DrivenSim<'a> {
    /// A driven simulator with the paper's interval and reaction lags.
    pub fn new(topo: &'a Topology, tunnels: &'a TunnelTable) -> Self {
        DrivenSim {
            topo,
            tunnels,
            interval_secs: 300.0,
            rescale_lag_secs: 0.005 + 0.050 + 0.002,
            active: FaultScenario::none(),
            fresh: Vec::new(),
            installed: None,
        }
    }

    /// The currently active data-plane faults.
    pub fn scenario(&self) -> &FaultScenario {
        &self.active
    }

    /// Restores the simulator to an interval boundary captured by a
    /// controller crash checkpoint: `active` is the fault set in force,
    /// `installed` the configuration the network runs. At a boundary
    /// the fresh-fault list is always empty (faults only arrive through
    /// events inside an interval and `advance` drains them), so no
    /// pending blackhole windows need restoring.
    pub fn restore_boundary(&mut self, active: FaultScenario, installed: Option<TeConfig>) {
        self.active = active;
        self.fresh.clear();
        self.installed = installed;
    }

    /// The configuration the network currently runs, if any.
    pub fn installed(&self) -> Option<&TeConfig> {
        self.installed.as_ref()
    }

    /// Fails a directed link (no-op when already failed). Physical cuts
    /// take both directions down — inject each direction separately.
    pub fn fail_link(&mut self, l: ffc_net::LinkId) {
        if !self.active.failed_links.contains(&l) {
            self.active.fail_link(l);
            let mut sc = FaultScenario::none();
            sc.fail_link(l);
            self.fresh.push(sc);
        }
    }

    /// Repairs a directed link.
    pub fn repair_link(&mut self, l: ffc_net::LinkId) {
        self.active.failed_links.remove(&l);
    }

    /// Fails a switch (no-op when already failed).
    pub fn fail_switch(&mut self, v: NodeId) {
        if !self.active.failed_switches.contains(&v) {
            self.active.fail_switch(v);
            let mut sc = FaultScenario::none();
            sc.fail_switch(v);
            self.fresh.push(sc);
        }
    }

    /// Repairs a switch.
    pub fn repair_switch(&mut self, v: NodeId) {
        self.active.failed_switches.remove(&v);
    }

    /// Post-rescale link loads of the installed configuration under the
    /// active faults (all zeros when nothing is installed yet).
    pub fn link_loads(&self, tm: &TrafficMatrix) -> Vec<f64> {
        match &self.installed {
            Some(cfg) => {
                priority_link_loads(self.topo, tm, self.tunnels, cfg, None, &self.active)
                    .collapse()
                    .load
            }
            None => vec![0.0; self.topo.num_links()],
        }
    }

    /// Advances one TE interval: `target` is the configuration the
    /// controller rolled out this interval (it becomes the installed
    /// config), `stale` the ingresses whose update failed — they keep
    /// forwarding per the previously installed configuration.
    pub fn advance(
        &mut self,
        tm: &TrafficMatrix,
        target: &TeConfig,
        stale: &[NodeId],
    ) -> DrivenInterval {
        let mut rec = DrivenInterval::default();
        let old = self
            .installed
            .clone()
            .unwrap_or_else(|| TeConfig::zero(self.tunnels));

        // Blackhole windows: traffic the previous config still aims at
        // freshly killed tunnels until its ingresses rescale.
        if self.installed.is_some() {
            let window = self.rescale_lag_secs.min(self.interval_secs);
            for fault in &self.fresh {
                charge_blackhole(
                    self.topo,
                    tm,
                    self.tunnels,
                    &old,
                    fault,
                    window,
                    &mut rec.lost_blackhole,
                );
            }
        }
        self.fresh.clear();

        // Steady state for the rest of the interval: target everywhere,
        // stale ingresses per the old configuration.
        let mut sc = self.active.clone();
        for &v in stale {
            sc.fail_config(v);
        }
        let loads = priority_link_loads(self.topo, tm, self.tunnels, target, Some(&old), &sc);
        rec.lost_congestion = priority_congestion_loss(self.topo, &loads, self.interval_secs);
        let flat = loads.collapse();
        rec.max_oversubscription = flat.max_oversubscription_ratio(self.topo);
        rec.overloaded_links = self
            .topo
            .links()
            .filter(|&e| flat.load[e.index()] > self.topo.capacity(e) * (1.0 + 1e-9))
            .count();
        for (f, flow) in tm.iter() {
            rec.delivered[pidx(flow.priority)] += flat.sent[f.index()] * self.interval_secs;
        }
        for p in 0..3 {
            rec.delivered[p] = (rec.delivered[p] - rec.lost_congestion[p]).max(0.0);
        }
        rec.link_load = flat.load;

        self.installed = Some(target.clone());
        rec
    }
}

/// Charges the blackhole window of one new fault: the traffic `cfg`
/// aims at tunnels the fault kills is lost for `window` seconds,
/// attributed to priorities by the config's granted-rate mix.
fn charge_blackhole(
    topo: &Topology,
    tm: &TrafficMatrix,
    tunnels: &TunnelTable,
    cfg: &TeConfig,
    fault: &FaultScenario,
    window: f64,
    out: &mut [f64; 3],
) {
    if window <= 0.0 {
        return;
    }
    let dead = rate_on_dead_tunnels(topo, tm, tunnels, cfg, fault);
    distribute_by_priority(tm, cfg, dead * window, out);
}

/// Distributes a loss volume over priorities in proportion to each
/// priority's share of the granted rates.
fn distribute_by_priority(tm: &TrafficMatrix, cfg: &TeConfig, volume: f64, out: &mut [f64; 3]) {
    if volume <= 0.0 {
        return;
    }
    let mut share = [0.0; 3];
    for (id, f) in tm.iter() {
        share[pidx(f.priority)] += cfg.rate[id.index()];
    }
    let total: f64 = share.iter().sum();
    if total <= 0.0 {
        return;
    }
    for p in 0..3 {
        out[p] += volume * share[p] / total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffc_net::prelude::*;
    use ffc_topo::{gravity_trace_single_priority, lnet, LNetConfig, TrafficConfig};

    fn tiny_setup() -> (Topology, TunnelTable, Vec<TrafficMatrix>) {
        let net = lnet(&LNetConfig {
            sites: 5,
            ..LNetConfig::default()
        });
        let trace = gravity_trace_single_priority(
            &net,
            &TrafficConfig {
                mean_total: 30.0,
                ..TrafficConfig::default()
            },
            3,
        );
        let tunnels = layout_tunnels(
            &net.topo,
            &trace.intervals[0],
            &LayoutConfig {
                tunnels_per_flow: 3,
                ..LayoutConfig::default()
            },
        );
        (net.topo, tunnels, trace.intervals)
    }

    #[test]
    fn faultless_run_loses_nothing() {
        let (topo, tunnels, trace) = tiny_setup();
        let mut cfg = SimConfig::new(SwitchModel::Optimistic, Protection::None);
        cfg.fault_model = FaultModel::none();
        let mut sim = Simulator::new(&topo, &tunnels, cfg);
        let report = sim.run(&trace);
        assert_eq!(report.intervals.len(), 3);
        assert!(
            report.totals.total_lost() < 1e-9,
            "lost {}",
            report.totals.total_lost()
        );
        assert!(report.totals.total_delivered() > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let (topo, tunnels, trace) = tiny_setup();
        let run = |seed| {
            let mut cfg = SimConfig::new(SwitchModel::Realistic, Protection::None);
            cfg.seed = seed;
            let mut sim = Simulator::new(&topo, &tunnels, cfg);
            let r = sim.run(&trace);
            (r.totals.total_delivered(), r.totals.total_lost())
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn faults_cause_loss_without_ffc() {
        // A capacity-tight network: faults force congestion or
        // blackhole measurable traffic.
        let net = lnet(&LNetConfig {
            sites: 5,
            link_capacity: 1.0,
            intra_capacity: 10.0,
            ..LNetConfig::default()
        });
        let trace_full = gravity_trace_single_priority(
            &net,
            &TrafficConfig {
                mean_total: 20.0,
                ..TrafficConfig::default()
            },
            5,
        );
        let tunnels = layout_tunnels(
            &net.topo,
            &trace_full.intervals[0],
            &LayoutConfig {
                tunnels_per_flow: 3,
                ..LayoutConfig::default()
            },
        );
        let topo = net.topo;
        let trace = trace_full.intervals;
        let mut cfg = SimConfig::new(SwitchModel::Realistic, Protection::None);
        cfg.fault_model = FaultModel {
            link_failures_per_interval: 3.0,
            switch_failures_per_interval: 0.0,
            mean_repair_intervals: 2.0,
        };
        cfg.seed = 3;
        let mut sim = Simulator::new(&topo, &tunnels, cfg);
        let report = sim.run(&trace);
        let events: usize = report.intervals.iter().map(|r| r.fault_events).sum();
        assert!(events > 0, "no faults injected");
        assert!(
            report.totals.total_lost() > 0.0,
            "no loss despite {events} faults"
        );
    }

    #[test]
    fn ffc_congests_less_than_plain() {
        let (topo, tunnels, trace) = tiny_setup();
        // Stress the network; the paired fault stream makes the arms
        // comparable. FFC cannot always beat plain on *blackhole* loss
        // (weights differ slightly), so compare congestion loss, the
        // quantity FFC guarantees.
        let trace: Vec<_> = trace.iter().map(|t| t.scale(2.5)).collect();
        let fm = FaultModel {
            link_failures_per_interval: 1.5,
            switch_failures_per_interval: 0.0,
            mean_repair_intervals: 2.0,
        };
        let run = |prot: Protection| {
            let mut cfg = SimConfig::new(SwitchModel::Realistic, prot);
            cfg.fault_model = fm.clone();
            cfg.seed = 11;
            let mut sim = Simulator::new(&topo, &tunnels, cfg);
            sim.run(&trace)
        };
        let plain = run(Protection::None);
        let ffc = run(Protection::Single(FfcConfig::new(0, 1, 0)));
        let pc: f64 = plain.totals.lost_congestion.iter().sum();
        let fc: f64 = ffc.totals.lost_congestion.iter().sum();
        assert!(fc <= pc + 1e-9, "ffc congestion {fc} vs plain {pc}");
        // And both arms saw the identical fault sequence.
        let pe: usize = plain.intervals.iter().map(|r| r.fault_events).sum();
        let fe: usize = ffc.intervals.iter().map(|r| r.fault_events).sum();
        assert_eq!(pe, fe, "fault streams diverged");
    }

    #[test]
    fn carryover_grows_demand_when_starved() {
        let (topo, tunnels, mut trace) = tiny_setup();
        // Blow demand far past capacity: carryover should saturate.
        trace = trace.iter().map(|t| t.scale(50.0)).collect();
        let mut cfg = SimConfig::new(SwitchModel::Optimistic, Protection::None);
        cfg.fault_model = FaultModel::none();
        let mut sim = Simulator::new(&topo, &tunnels, cfg);
        let _ = sim.run(&trace);
        assert!(sim.carryover.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn driven_faultless_advance_loses_nothing() {
        let (topo, tunnels, trace) = tiny_setup();
        let tm = &trace[0];
        let problem = TeProblem::new(&topo, tm, &tunnels);
        let cfg = TeModelBuilder::new(problem).solve().expect("TE");
        let mut sim = DrivenSim::new(&topo, &tunnels);
        assert!(sim.installed().is_none());
        assert!(sim.link_loads(tm).iter().all(|&l| l == 0.0));
        let rec = sim.advance(tm, &cfg, &[]);
        let lost: f64 = rec
            .lost_congestion
            .iter()
            .chain(rec.lost_blackhole.iter())
            .sum();
        assert!(lost < 1e-9, "faultless advance lost {lost}");
        assert!(rec.delivered.iter().sum::<f64>() > 0.0);
        assert_eq!(rec.overloaded_links, 0);
        assert!(sim.installed().is_some());
        assert!(sim.link_loads(tm).iter().any(|&l| l > 0.0));
    }

    #[test]
    fn driven_fresh_fault_charges_blackhole_once() {
        let (topo, tunnels, trace) = tiny_setup();
        let tm = &trace[0];
        let problem = TeProblem::new(&topo, tm, &tunnels);
        let cfg = TeModelBuilder::new(problem).solve().expect("TE");
        let mut sim = DrivenSim::new(&topo, &tunnels);
        sim.advance(tm, &cfg, &[]);
        // Pick a link the installed config actually uses.
        let traffic = cfg.link_traffic(&topo, &tunnels);
        let used = topo
            .links()
            .find(|&l| traffic[l.index()] > 1e-9)
            .expect("some loaded link");
        sim.fail_link(used);
        // Duplicate injections are idempotent: one blackhole charge.
        sim.fail_link(used);
        let rec = sim.advance(tm, &cfg, &[]);
        let bh: f64 = rec.lost_blackhole.iter().sum();
        assert!(bh > 0.0, "fresh fault on a used link must blackhole");
        let expected =
            rate_on_dead_tunnels(&topo, tm, &tunnels, &cfg, &FaultScenario::links([used]))
                * sim.rescale_lag_secs;
        assert!(
            (bh - expected).abs() < 1e-9,
            "blackhole {bh} vs one window {expected}"
        );
        // The fault is no longer fresh: advancing again charges nothing.
        let rec2 = sim.advance(tm, &cfg, &[]);
        assert!(rec2.lost_blackhole.iter().sum::<f64>() < 1e-9);
        // Repair restores the faultless scenario.
        sim.repair_link(used);
        assert!(sim.scenario().failed_links.is_empty());
    }

    #[test]
    fn driven_fault_before_install_does_not_blackhole() {
        let (topo, tunnels, trace) = tiny_setup();
        let tm = &trace[0];
        let problem = TeProblem::new(&topo, tm, &tunnels);
        let cfg = TeModelBuilder::new(problem).solve().expect("TE");
        let mut sim = DrivenSim::new(&topo, &tunnels);
        // Nothing installed yet: there is no traffic to blackhole.
        sim.fail_link(topo.links().next().unwrap());
        let rec = sim.advance(tm, &cfg, &[]);
        assert!(rec.lost_blackhole.iter().sum::<f64>() < 1e-9);
    }

    #[test]
    fn driven_stale_ingress_uses_old_config() {
        let (topo, tunnels, trace) = tiny_setup();
        let tm = &trace[0];
        let problem = TeProblem::new(&topo, tm, &tunnels);
        let cfg = TeModelBuilder::new(problem).solve().expect("TE");
        let mut sim = DrivenSim::new(&topo, &tunnels);
        sim.advance(tm, &cfg, &[]);
        // All ingresses stale with target == installed: same loads as a
        // clean advance (the old config IS the target).
        let sources: Vec<NodeId> = {
            let mut s: Vec<NodeId> = tm.iter().map(|(_, f)| f.src).collect();
            s.sort_unstable();
            s.dedup();
            s
        };
        let rec = sim.advance(tm, &cfg, &sources);
        assert!(rec.lost_congestion.iter().sum::<f64>() < 1e-9);
        assert!(rec.delivered.iter().sum::<f64>() > 0.0);
    }
}
