//! Structure-aware delta-LP cache for the FFC model.
//!
//! The controller re-solves the FFC LP every TE interval, but between
//! consecutive intervals almost nothing about the *model* changes: the
//! topology, tunnel layout and protection level are static for hours,
//! while demands tick, the installed (old) configuration advances, and
//! the live fault set drifts. [`FfcModelCache`] keeps one standing
//! [`IncrementalModel`] across solves and maps each input change onto
//! the smallest sound patch, using the [`FfcLayout`] recorded by
//! [`build_ffc_model_tracked`]:
//!
//! | input change | patch | why it is sound |
//! |---|---|---|
//! | demand tick | `b_f` upper bounds | demands appear only in Eqn 4's bounds |
//! | old config | `w'_{f,t}` coefficient per stale row, zero included | old weights appear only as the `b_f` coefficient in `w'·b − β ≤ 0`, and every pair has that row |
//! | fault-set drift | pin/unpin `a_{f,t}` bounds | `zero_dead_tunnels` is itself a bounds change |
//!
//! The standing model is built with [`BetaSupport::AllTunnels`]: every
//! `(flow, tunnel)` pair has its β column and stale row, and the row
//! keeps its `b_f` slot at `w' = 0`, so which tunnels the installed
//! config uses never changes the model's shape. (A one-shot build skips
//! the pairs §6 proves vacuous; the standing model pays for them once,
//! at its build, and then never rebuilds for them.)
//!
//! The §6 mice set is an *input* like the others, handed to
//! [`FfcModelCache::new`] and [`FfcModelCache::retarget`] by the caller:
//! the cache never derives it from the demands, so a demand tick alone
//! cannot change the constraint shape. Handing in a different set than
//! the standing model was built with does — that, `kc`/`ke`/`kv`/encoding
//! changes and capacity or tunnel changes fall off the patch ladder and
//! trigger a full in-place rebuild, reported as a [`RebuildReason`] and
//! tallied per reason in [`CacheStats`]. A mice-set rebuild keeps the
//! caller's basis: [`FfcModelCache::carry_hint`] maps the previous
//! model's basis onto the rebuilt one block by block.
//! Correctness is enforced differentially: under debug assertions every
//! *patched* model is compared coefficient-for-coefficient against one
//! freshly built from the same inputs, mice set included
//! ([`ffc_lp::incremental::diff_models`]).

// audit:allow-file(float-eq): comparisons here are exact structural
// equality checks between a patched model and what a fresh build would
// produce — approximate comparison would defeat their purpose.

use std::collections::BTreeSet;
use std::fmt;

use ffc_lp::incremental::IncrementalModel;
use ffc_lp::{BasisStatuses, LpError, Solution, VarId};
use ffc_net::{FaultScenario, TunnelTable};

use crate::bounded_msum::MsumEncoding;
use crate::combined::{build_ffc_model_tracked, zero_dead_tunnels, FfcConfig, FfcLayout};
use crate::control_ffc::BetaSupport;
use crate::te::{extract_config, TeConfig, TeProblem};

/// Why the cache could not patch and rebuilt the standing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildReason {
    /// First use — there was nothing to patch yet.
    Initial,
    /// Topology, tunnel layout, capacities, reservations, encoding,
    /// unprotected links or `ke`/`kv` changed.
    StructureChanged,
    /// The caller handed in another §6 mice set than the standing model
    /// was built with, changing which flows get pinned equal-split rows
    /// (the one rebuild a basis is carried across:
    /// [`FfcModelCache::carry_hint`]).
    MiceSetChanged,
    /// `kc` changed: it shapes the M-sum rows of every protected link
    /// (the comparator lattice, or the enumerated row set).
    ProtectionChanged,
    /// A coefficient patch was rejected (sparsity-pattern mismatch) —
    /// the conservative escape hatch; not expected in practice. The
    /// patch set is left half-applied, and the rebuild replaces it.
    PatchRejected,
}

impl RebuildReason {
    /// Every reason in declaration order: a reason's position here is
    /// its discriminant and its slot in
    /// [`CacheStats::rebuilds_by_reason`].
    pub const ALL: [RebuildReason; 5] = [
        RebuildReason::Initial,
        RebuildReason::StructureChanged,
        RebuildReason::MiceSetChanged,
        RebuildReason::ProtectionChanged,
        RebuildReason::PatchRejected,
    ];
}

impl fmt::Display for RebuildReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RebuildReason::Initial => "initial build",
            RebuildReason::StructureChanged => "structure changed",
            RebuildReason::MiceSetChanged => "mice set changed",
            RebuildReason::ProtectionChanged => "protection level changed",
            RebuildReason::PatchRejected => "patch rejected",
        };
        f.write_str(s)
    }
}

/// What one [`FfcModelCache::retarget`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetargetOutcome {
    /// The standing model was patched in place (possibly by no change
    /// at all).
    Patched,
    /// The standing model was rebuilt from scratch.
    Rebuilt(RebuildReason),
}

impl RetargetOutcome {
    /// Whether this retarget avoided a full rebuild.
    pub fn is_patch(&self) -> bool {
        matches!(self, RetargetOutcome::Patched)
    }
}

/// Running counters for observability (exported into controller
/// telemetry and the benchmark reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Retargets satisfied by in-place patches.
    pub patches: u64,
    /// Retargets that fell back to a full rebuild (including the
    /// initial build): the sum of `rebuilds_by_reason`.
    pub rebuilds: u64,
    /// `rebuilds` split by cause, in [`RebuildReason::ALL`] order.
    pub rebuilds_by_reason: [u64; RebuildReason::ALL.len()],
}

impl CacheStats {
    /// How many rebuilds `reason` caused.
    pub fn rebuilds_for(&self, reason: RebuildReason) -> u64 {
        let slot = self.rebuilds_by_reason.get(reason as usize);
        slot.copied().unwrap_or(0)
    }

    fn count_rebuild(&mut self, reason: RebuildReason) {
        self.rebuilds += 1;
        if let Some(n) = self.rebuilds_by_reason.get_mut(reason as usize) {
            *n += 1;
        }
    }
}

/// Everything that must be *identical* between the cached model's
/// inputs and the new inputs for any patch to be sound. `kc` is kept
/// beside it so a change reports its own [`RebuildReason`].
#[derive(Debug, Clone, PartialEq)]
struct StructureKey {
    n_flows: usize,
    tunnel_counts: Vec<usize>,
    /// FNV-1a over every tunnel's link ids, in table order.
    tunnel_hash: u64,
    /// Residual capacity per link (covers both raw capacities and
    /// reservations).
    capacities: Vec<f64>,
    ke: usize,
    kv: usize,
    encoding: MsumEncoding,
    unprotected: Vec<usize>,
}

impl StructureKey {
    fn of(problem: &TeProblem<'_>, cfg: &FfcConfig) -> StructureKey {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for (f, ti, tunnel) in problem.tunnels.iter_all() {
            mix(f.index() as u64);
            mix(ti as u64);
            for &l in &tunnel.links {
                mix(l.index() as u64 + 1);
            }
        }
        let mut unprotected: Vec<usize> = cfg.unprotected_links.iter().map(|e| e.index()).collect();
        unprotected.sort_unstable();
        StructureKey {
            n_flows: problem.tm.len(),
            tunnel_counts: problem
                .tm
                .ids()
                .map(|f| problem.tunnels.tunnels(f).len())
                .collect(),
            tunnel_hash: h,
            capacities: problem.topo.links().map(|e| problem.capacity(e)).collect(),
            ke: cfg.ke,
            kv: cfg.kv,
            encoding: cfg.encoding,
            unprotected,
        }
    }
}

/// A standing FFC model reused across solves — see the [module
/// docs](self) for the patch taxonomy.
///
/// It is built with every tunnel in the β support
/// ([`BetaSupport::AllTunnels`]), so an installed-config change is always
/// a coefficient patch of the stale rows, never a rebuild. Against a
/// one-shot build of the same inputs it carries the vacuous β columns
/// and rows §6 skips (a larger first build and cold solve); it solves to
/// the same optimum.
///
/// The cache owns no borrows of the problem inputs: each
/// [`retarget`](FfcModelCache::retarget) receives the current inputs
/// and decides for itself whether the standing model can be patched to
/// match them. `mice` is the §6 set to pin, one flag per flow, exactly
/// as [`build_ffc_model_tracked`] takes it (`cfg.mice_fraction` is not
/// read): [`mice_flags`](crate::data_ffc::mice_flags) for a caller
/// without a history, [`standing_mice`](crate::data_ffc::standing_mice)
/// for one that has.
#[derive(Debug, Clone)]
pub struct FfcModelCache {
    inc: IncrementalModel,
    b: Vec<VarId>,
    a: Vec<Vec<VarId>>,
    layout: FfcLayout,
    key: StructureKey,
    kc: usize,
    /// `(flow, tunnel)` pairs currently pinned to zero by the live
    /// fault scenario.
    pinned: BTreeSet<(usize, usize)>,
    stats: CacheStats,
}

impl FfcModelCache {
    /// Builds the initial standing model (counts as a rebuild in
    /// [`CacheStats`]).
    pub fn new(
        problem: TeProblem<'_>,
        old: &TeConfig,
        cfg: &FfcConfig,
        mice: &[bool],
        scenario: Option<&FaultScenario>,
    ) -> FfcModelCache {
        let mut cache = FfcModelCache {
            inc: IncrementalModel::default(),
            b: Vec::new(),
            a: Vec::new(),
            layout: FfcLayout::default(),
            key: StructureKey::of(&problem, cfg),
            kc: cfg.kc,
            pinned: BTreeSet::new(),
            stats: CacheStats::default(),
        };
        cache.rebuild(problem, old, cfg, mice, scenario, RebuildReason::Initial);
        cache
    }

    /// Observability counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Points the standing model at new inputs, patching in place when
    /// sound and rebuilding otherwise. After this returns, solving the
    /// cache is equivalent to building a fresh model from the same
    /// inputs (with [`zero_dead_tunnels`] applied for `scenario`) and
    /// solving that — checked exactly under debug assertions for every
    /// patched outcome.
    pub fn retarget(
        &mut self,
        problem: TeProblem<'_>,
        old: &TeConfig,
        cfg: &FfcConfig,
        mice: &[bool],
        scenario: Option<&FaultScenario>,
    ) -> RetargetOutcome {
        let outcome = match self.try_patch(problem, old, cfg, mice, scenario) {
            Ok(()) => {
                self.stats.patches += 1;
                RetargetOutcome::Patched
            }
            Err(reason) => {
                self.rebuild(problem, old, cfg, mice, scenario, reason);
                RetargetOutcome::Rebuilt(reason)
            }
        };
        #[cfg(debug_assertions)]
        if outcome.is_patch() {
            self.debug_check_against_fresh(problem, old, cfg, mice, scenario);
        }
        outcome
    }

    /// Attempts the patch ladder, or returns the reason a rebuild is
    /// required (a rejection part-way leaves the patches applied so far
    /// for the rebuild to discard).
    fn try_patch(
        &mut self,
        problem: TeProblem<'_>,
        old: &TeConfig,
        cfg: &FfcConfig,
        mice: &[bool],
        scenario: Option<&FaultScenario>,
    ) -> Result<(), RebuildReason> {
        let key = StructureKey::of(&problem, cfg);
        if key != self.key {
            return Err(RebuildReason::StructureChanged);
        }
        let data_active = cfg.ke > 0 || cfg.kv > 0;
        if data_active && mice != self.layout.data.mice {
            return Err(RebuildReason::MiceSetChanged);
        }
        if cfg.kc != self.kc {
            return Err(RebuildReason::ProtectionChanged);
        }
        self.apply_patches(problem, old, cfg, scenario)
    }

    /// Applies the full patch set for the new inputs. Eligibility was
    /// already established; a rejection part-way stops here.
    fn apply_patches(
        &mut self,
        problem: TeProblem<'_>,
        old: &TeConfig,
        cfg: &FfcConfig,
        scenario: Option<&FaultScenario>,
    ) -> Result<(), RebuildReason> {
        // Demand tick: b_f upper bounds, except τ = 0 flows whose rate
        // stays pinned at zero regardless of demand.
        for (fi, (_, flow)) in problem.tm.iter().enumerate() {
            if self.layout.data.rate_pinned(fi, self.a[fi].len()) {
                continue;
            }
            self.inc
                .set_var_bounds(self.b[fi], 0.0, flow.demand.max(0.0));
        }

        // Old-config tick: the w'_{f,t} coefficient in every stale row,
        // a kept slot that takes 0.0 for a tunnel the config leaves idle.
        if cfg.kc > 0 {
            let weights = old.all_weights();
            // Work on a copy of the row list to keep the borrow checker
            // happy; ConIds are stable across patches.
            let stale_rows = self.layout.control.stale_rows.clone();
            for (fi, ti, con) in stale_rows {
                let w_old = weights[fi][ti];
                if self.inc.set_coeff(con, self.b[fi], w_old).is_err() {
                    return Err(RebuildReason::PatchRejected);
                }
            }
        }

        // Fault-set drift: pin newly-dead tunnels, release revived ones.
        let fresh_pins = scenario_pins(&problem, scenario);
        for &(fi, ti) in self.pinned.difference(&fresh_pins) {
            self.inc.set_var_bounds(self.a[fi][ti], 0.0, f64::INFINITY);
        }
        for &(fi, ti) in &fresh_pins {
            self.inc.set_var_bounds(self.a[fi][ti], 0.0, 0.0);
        }
        self.pinned = fresh_pins;
        Ok(())
    }

    /// Discards the standing model and rebuilds it from the new inputs,
    /// tallying `reason`.
    fn rebuild(
        &mut self,
        problem: TeProblem<'_>,
        old: &TeConfig,
        cfg: &FfcConfig,
        mice: &[bool],
        scenario: Option<&FaultScenario>,
        reason: RebuildReason,
    ) {
        // Let the old standing model go before its successor is built,
        // so a rebuild holds one model at a time.
        self.inc = IncrementalModel::default();
        let (mut builder, layout) =
            build_ffc_model_tracked(problem, old, cfg, mice, BetaSupport::AllTunnels);
        if let Some(s) = scenario {
            zero_dead_tunnels(&mut builder, s);
        }
        self.b = builder.b.clone();
        self.a = builder.a.clone();
        self.layout = layout;
        self.key = StructureKey::of(&problem, cfg);
        self.kc = cfg.kc;
        self.pinned = scenario_pins(&problem, scenario);
        self.inc =
            IncrementalModel::new(builder.model).expect("freshly built FFC model always validates");
        self.stats.count_rebuild(reason);
    }

    /// Solves the standing form, cold or from a warm-start basis (see
    /// [`IncrementalModel::solve_with`]): the same LP, pivot for pivot,
    /// as [`crate::te::TeModelBuilder::solve_with`] on a fresh build.
    pub fn solve_with(
        &mut self,
        opts: &ffc_lp::SimplexOptions,
        warm: Option<&BasisStatuses>,
    ) -> Result<(TeConfig, Solution), LpError> {
        let sol = self.inc.solve_with(opts, warm)?;
        Ok((self.extract(&sol), sol))
    }

    /// Carries `hint`, a basis of the model these inputs build with the
    /// §6 set `from`, onto the standing model and its own mice set
    /// ([`DataFfcLayout::carry_basis`](crate::DataFfcLayout::carry_basis)):
    /// a mice-set change rebuilds the model, and this keeps the basis.
    pub fn carry_hint(
        &self,
        tunnels: &TunnelTable,
        from: &[bool],
        hint: &BasisStatuses,
    ) -> Option<BasisStatuses> {
        let model = self.inc.model();
        let data = &self.layout.data;
        data.carry_basis(model, tunnels, self.key.encoding, from, hint)
    }

    /// Extracts a TE configuration from a solution of the standing
    /// model.
    pub fn extract(&self, sol: &Solution) -> TeConfig {
        extract_config(&self.b, &self.a, sol)
    }

    /// The differential oracle: a patched model must be bit-identical
    /// to a fresh build from the same inputs.
    #[cfg(debug_assertions)]
    fn debug_check_against_fresh(
        &self,
        problem: TeProblem<'_>,
        old: &TeConfig,
        cfg: &FfcConfig,
        mice: &[bool],
        scenario: Option<&FaultScenario>,
    ) {
        let (mut fresh, _) =
            build_ffc_model_tracked(problem, old, cfg, mice, BetaSupport::AllTunnels);
        if let Some(s) = scenario {
            zero_dead_tunnels(&mut fresh, s);
        }
        if let Some(diff) = ffc_lp::incremental::diff_models(self.inc.model(), &fresh.model) {
            panic!("patched FFC model diverged from fresh build: {diff}");
        }
    }
}

/// The `(flow, tunnel)` pairs a scenario kills (empty for `None` or a
/// data-plane-clean scenario) — exactly the set [`zero_dead_tunnels`]
/// would pin.
fn scenario_pins(
    problem: &TeProblem<'_>,
    scenario: Option<&FaultScenario>,
) -> BTreeSet<(usize, usize)> {
    let mut pins = BTreeSet::new();
    let Some(s) = scenario else {
        return pins;
    };
    if s.data_plane_clean() {
        return pins;
    }
    for (f, ti, tunnel) in problem.tunnels.iter_all() {
        if s.kills_tunnel(problem.topo, tunnel) {
            pins.insert((f.index(), ti));
        }
    }
    pins
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combined::{build_ffc_model, solve_ffc};
    use crate::data_ffc::mice_flags;
    use ffc_net::prelude::*;

    /// No §6 mice: what every `.exact()` config below builds with.
    const NO_MICE: [bool; 3] = [false; 3];

    /// A 5-node ring with chords (same shape as combined.rs's tests).
    fn ring() -> (Topology, TrafficMatrix, TunnelTable, TeConfig) {
        let mut t = Topology::new();
        let ns = t.add_nodes(5, "r");
        for i in 0..5 {
            t.add_bidi(ns[i], ns[(i + 1) % 5], 10.0);
        }
        t.add_bidi(ns[0], ns[2], 10.0);
        t.add_bidi(ns[1], ns[3], 10.0);
        let mut tm = TrafficMatrix::new();
        tm.add_flow(ns[0], ns[3], 6.0, Priority::High);
        tm.add_flow(ns[1], ns[4], 6.0, Priority::High);
        tm.add_flow(ns[2], ns[0], 6.0, Priority::High);
        let tunnels = layout_tunnels(
            &t,
            &tm,
            &LayoutConfig {
                tunnels_per_flow: 3,
                p: 1,
                q: 3,
                reuse_penalty: 0.5,
            },
        );
        let old = crate::te::solve_te(TeProblem::new(&t, &tm, &tunnels)).unwrap();
        (t, tm, tunnels, old)
    }

    fn fresh_objective(
        topo: &Topology,
        tm: &TrafficMatrix,
        tunnels: &TunnelTable,
        old: &TeConfig,
        cfg: &FfcConfig,
    ) -> f64 {
        solve_ffc(TeProblem::new(topo, tm, tunnels), old, cfg)
            .unwrap()
            .throughput()
    }

    #[test]
    fn demand_tick_is_a_patch_and_matches_fresh() {
        let (topo, mut tm, tunnels, old) = ring();
        let cfg = FfcConfig::new(1, 1, 0).exact();
        let mut cache = FfcModelCache::new(
            TeProblem::new(&topo, &tm, &tunnels),
            &old,
            &cfg,
            &NO_MICE,
            None,
        );
        for round in 1..4 {
            let scale = 1.0 + 0.25 * round as f64;
            for f in tm.ids() {
                let d = 6.0 * scale;
                tm.set_demand(f, d);
            }
            let outcome = cache.retarget(
                TeProblem::new(&topo, &tm, &tunnels),
                &old,
                &cfg,
                &NO_MICE,
                None,
            );
            assert!(outcome.is_patch(), "round {round}: {outcome:?}");
            let (got, _) = cache.solve_with(&Default::default(), None).unwrap();
            let want = fresh_objective(&topo, &tm, &tunnels, &old, &cfg);
            assert!(
                (got.throughput() - want).abs() < 1e-6,
                "round {round}: {} vs {want}",
                got.throughput()
            );
        }
        assert_eq!(cache.stats().rebuilds, 1);
        assert_eq!(cache.stats().patches, 3);
    }

    #[test]
    fn old_config_tick_patches_stale_rows() {
        let (topo, tm, tunnels, old) = ring();
        let cfg = FfcConfig::new(2, 0, 0).exact();
        let problem = TeProblem::new(&topo, &tm, &tunnels);
        let mut cache = FfcModelCache::new(problem, &old, &cfg, &NO_MICE, None);
        // Advance the installed config without changing its support:
        // scale allocations (weights are scale-invariant per flow, but
        // shifting mass between tunnels changes the weights).
        let mut next = old.clone();
        for row in &mut next.alloc {
            for (i, a) in row.iter_mut().enumerate() {
                if *a > 0.0 {
                    *a += 0.3 * (i + 1) as f64;
                }
            }
        }
        let outcome = cache.retarget(problem, &next, &cfg, &NO_MICE, None);
        assert!(outcome.is_patch(), "{outcome:?}");
        let (got, _) = cache.solve_with(&Default::default(), None).unwrap();
        let want = fresh_objective(&topo, &tm, &tunnels, &next, &cfg);
        assert!((got.throughput() - want).abs() < 1e-6);
    }

    /// A tunnel the installed config stops using and then uses again
    /// is a coefficient patch both ways: its stale row keeps the `b_f`
    /// slot at 0.0, exactly as a fresh standing build stores it.
    #[test]
    fn idle_tunnel_round_trip_is_a_patch() {
        let (topo, tm, tunnels, old) = ring();
        let cfg = FfcConfig::new(1, 0, 0).exact();
        let problem = TeProblem::new(&topo, &tm, &tunnels);
        let mut cache = FfcModelCache::new(problem, &old, &cfg, &NO_MICE, None);
        let (ti, _) = old.alloc[0]
            .iter()
            .enumerate()
            .find(|(_, &a)| a > 0.0)
            .expect("flow 0 uses a tunnel");
        let mut idle = old.clone();
        idle.rate[0] -= idle.alloc[0][ti];
        idle.alloc[0][ti] = 0.0;
        for next in [&idle, &old] {
            let before = cache.inc.model().clone();
            let outcome = cache.retarget(problem, next, &cfg, &NO_MICE, None);
            assert!(outcome.is_patch(), "{outcome:?}");
            assert!(
                ffc_lp::incremental::diff_models(&before, cache.inc.model()).is_some(),
                "the retarget changed no coefficient"
            );
            let (fresh, _) =
                build_ffc_model_tracked(problem, next, &cfg, &NO_MICE, BetaSupport::AllTunnels);
            assert_eq!(
                ffc_lp::incremental::diff_models(cache.inc.model(), &fresh.model),
                None
            );
            let (got, _) = cache.solve_with(&Default::default(), None).unwrap();
            let want = fresh_objective(&topo, &tm, &tunnels, next, &cfg);
            assert!((got.throughput() - want).abs() < 1e-6);
        }
        assert_eq!((cache.stats().patches, cache.stats().rebuilds), (2, 1));
    }

    /// `kc` shapes every protected link's M-sum rows, so any change —
    /// between two positive levels or to/from zero — is a rebuild.
    #[test]
    fn kc_change_rebuilds() {
        let (topo, tm, tunnels, old) = ring();
        let problem = TeProblem::new(&topo, &tm, &tunnels);
        let kc = |k| FfcConfig::new(k, 0, 0).exact();
        let mut cache = FfcModelCache::new(problem, &old, &kc(1), &NO_MICE, None);
        for next in [2, 0] {
            let outcome = cache.retarget(problem, &old, &kc(next), &NO_MICE, None);
            assert_eq!(
                outcome,
                RetargetOutcome::Rebuilt(RebuildReason::ProtectionChanged),
                "kc -> {next}"
            );
        }
    }

    #[test]
    fn fault_drift_pins_and_releases_tunnels() {
        let (topo, tm, tunnels, old) = ring();
        let cfg = FfcConfig::new(0, 1, 0).exact();
        let problem = TeProblem::new(&topo, &tm, &tunnels);
        let mut cache = FfcModelCache::new(problem, &old, &cfg, &NO_MICE, None);
        let clean = cache.solve_with(&Default::default(), None).unwrap().0;

        let scenario = FaultScenario::links([topo.links().next().unwrap()]);
        let outcome = cache.retarget(problem, &old, &cfg, &NO_MICE, Some(&scenario));
        assert!(outcome.is_patch(), "{outcome:?}");
        let (faulted, _) = cache.solve_with(&Default::default(), None).unwrap();
        let mut fresh = build_ffc_model(problem, &old, &cfg);
        zero_dead_tunnels(&mut fresh, &scenario);
        let want = fresh.solve().unwrap().throughput();
        assert!((faulted.throughput() - want).abs() < 1e-6);

        // Recovery releases the pins and returns to the clean optimum.
        let outcome = cache.retarget(problem, &old, &cfg, &NO_MICE, None);
        assert!(outcome.is_patch(), "{outcome:?}");
        let (recovered, _) = cache.solve_with(&Default::default(), None).unwrap();
        assert!((recovered.throughput() - clean.throughput()).abs() < 1e-6);
    }

    #[test]
    fn capacity_change_rebuilds() {
        let (topo, tm, tunnels, old) = ring();
        let cfg = FfcConfig::new(1, 1, 0).exact();
        let mut cache = FfcModelCache::new(
            TeProblem::new(&topo, &tm, &tunnels),
            &old,
            &cfg,
            &NO_MICE,
            None,
        );
        let reserved = vec![1.0; topo.num_links()];
        let problem = TeProblem {
            topo: &topo,
            tm: &tm,
            tunnels: &tunnels,
            reserved: Some(&reserved),
        };
        let outcome = cache.retarget(problem, &old, &cfg, &NO_MICE, None);
        assert_eq!(
            outcome,
            RetargetOutcome::Rebuilt(RebuildReason::StructureChanged)
        );
        let (got, _) = cache.solve_with(&Default::default(), None).unwrap();
        let want = solve_ffc(problem, &old, &cfg).unwrap().throughput();
        assert!((got.throughput() - want).abs() < 1e-6);
    }

    /// The mice set is an input: the same set under moved demands is a
    /// patch, another set is a `MiceSetChanged` rebuild — and either way
    /// the standing model solves like a fresh build with the set the
    /// caller handed in.
    #[test]
    fn mice_set_flip_rebuilds() {
        let (topo, mut tm, tunnels, old) = ring();
        let mut cfg = FfcConfig::new(0, 1, 0);
        cfg.mice_fraction = 0.05;
        let problem = TeProblem::new(&topo, &tm, &tunnels);
        let none = mice_flags(&tm, cfg.mice_fraction);
        assert_eq!(none, NO_MICE, "three equal flows: no mouse");
        let mut cache = FfcModelCache::new(problem, &old, &cfg, &none, None);

        // Shrink flow 0 far below the 5% threshold. The greedy set now
        // flags it, but a caller that keeps handing in the old set gets
        // a patch…
        let f0 = tm.ids().next().unwrap();
        tm.set_demand(f0, 0.01);
        let problem = TeProblem::new(&topo, &tm, &tunnels);
        let outcome = cache.retarget(problem, &old, &cfg, &none, None);
        assert!(outcome.is_patch(), "{outcome:?}");

        // …and one that hands in the greedy set a rebuild that solves
        // like the one-shot build (which picks the greedy set itself).
        let greedy = mice_flags(&tm, cfg.mice_fraction);
        assert_eq!(greedy, [true, false, false]);
        let outcome = cache.retarget(problem, &old, &cfg, &greedy, None);
        assert_eq!(
            outcome,
            RetargetOutcome::Rebuilt(RebuildReason::MiceSetChanged)
        );
        let (got, _) = cache.solve_with(&Default::default(), None).unwrap();
        let want = fresh_objective(&topo, &tm, &tunnels, &old, &cfg);
        assert!((got.throughput() - want).abs() < 1e-6);

        // `cfg.mice_fraction` itself is not an input of the model.
        cfg.mice_fraction = 0.5;
        let outcome = cache.retarget(problem, &old, &cfg, &greedy, None);
        assert!(outcome.is_patch(), "{outcome:?}");
    }

    /// `rebuilds` is the sum of the per-reason tally, and each rebuild
    /// lands in the slot of the reason `retarget` reported.
    #[test]
    fn rebuilds_are_tallied_by_reason() {
        for (i, r) in RebuildReason::ALL.iter().enumerate() {
            assert_eq!(*r as usize, i, "{r}: ALL is in discriminant order");
        }
        let (topo, tm, tunnels, old) = ring();
        let problem = TeProblem::new(&topo, &tm, &tunnels);
        let kc = |k| FfcConfig::new(k, 1, 0).exact();
        let mut cache = FfcModelCache::new(problem, &old, &kc(1), &NO_MICE, None);
        cache.retarget(problem, &old, &kc(1), &NO_MICE, None);
        cache.retarget(problem, &old, &kc(1), &[true, false, false], None);
        cache.retarget(problem, &old, &kc(2), &[true, false, false], None);
        cache.retarget(problem, &old, &kc(1), &[true, false, false], None);
        let stats = cache.stats();
        assert_eq!((stats.patches, stats.rebuilds), (1, 4));
        assert_eq!(stats.rebuilds_by_reason.iter().sum::<u64>(), stats.rebuilds);
        assert_eq!(stats.rebuilds_for(RebuildReason::Initial), 1);
        assert_eq!(stats.rebuilds_for(RebuildReason::MiceSetChanged), 1);
        assert_eq!(stats.rebuilds_for(RebuildReason::ProtectionChanged), 2);
    }

    #[test]
    fn warm_patched_solve_matches_fresh() {
        let (topo, mut tm, tunnels, old) = ring();
        let cfg = FfcConfig::new(1, 1, 0).exact();
        let mut cache = FfcModelCache::new(
            TeProblem::new(&topo, &tm, &tunnels),
            &old,
            &cfg,
            &NO_MICE,
            None,
        );
        let (_, sol) = cache.solve_with(&Default::default(), None).unwrap();
        for f in tm.ids() {
            tm.set_demand(f, 7.5);
        }
        let outcome = cache.retarget(
            TeProblem::new(&topo, &tm, &tunnels),
            &old,
            &cfg,
            &NO_MICE,
            None,
        );
        assert!(outcome.is_patch());
        let (warm, _) = cache
            .solve_with(&Default::default(), Some(&sol.basis))
            .unwrap();
        let want = fresh_objective(&topo, &tm, &tunnels, &old, &cfg);
        assert!((warm.throughput() - want).abs() < 1e-6);
    }
}
