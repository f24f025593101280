//! Per-interval re-solve with warm-start reuse and graceful degradation.
//!
//! Every TE interval the planner points the FFC model at the current
//! demands and active faults and re-solves it. Because successive
//! models at a fixed protection level differ only in variable bounds
//! (demand upper bounds, dead tunnels pinned to zero), the previous
//! optimum's basis stays *dual feasible* and `Algorithm::Auto` restarts
//! the dual simplex from the chained hint instead of solving cold
//! (DESIGN §5a). Presolve is forced off on warm solves so the hint's
//! column space lines up.
//!
//! That only holds while the model keeps its *shape*, and the one
//! demand-dependent piece of the shape is the §6 mice set (which flows
//! get pinned equal-split rows instead of a sorting network). The
//! planner therefore owns a **standing** mice set: every solving round
//! refreshes it with [`ffc_core::standing_mice`] — kept while it is
//! still a §6 mice set of the new demands, replaced by the greedy set
//! when it is not — and hands it to the build as an input. Two small
//! flows trading places under demand noise no longer throw away the
//! standing model and the chained basis. The set is planner state like
//! the ladder position: [`PlannerSnapshot`] carries it, so a resumed
//! planner applies the same rule to the same set.
//!
//! Degradation ladder (ISSUE: "degrades k and falls back to
//! rescale-only when the solve deadline is exceeded"):
//!
//! 1. solve at the current protection level;
//! 2. every deadline overrun lowers the largest of `(kc, ke, kv)` by
//!    one for the *next* interval (the current solve's result is still
//!    used — it is correct, just late);
//! 3. once protection is exhausted and plain TE still overruns, the
//!    planner stops solving entirely: ingress rescaling of the
//!    installed config absorbs faults ("rescale-only"), with a probe
//!    solve every [`PlannerConfig::recovery_probe`] intervals to find
//!    its way back;
//! 4. an infeasible FFC model (heavy active faults, §4.5) yields no
//!    target at all — the controller rolls the interval back to the
//!    last-known-good config from the [`ConfigStore`].

use std::time::{Duration, Instant};

use ffc_core::{
    build_ffc_model_tracked, standing_mice, zero_dead_tunnels, CacheStats, FfcConfig,
    FfcModelCache, TeConfig, TeProblem,
};
use ffc_lp::{Algorithm, SimplexOptions, SolveStats};
use ffc_net::FaultScenario;

use crate::state::ConfigStore;

/// Which solve path produced (or skipped) an interval's target config.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolvePath {
    /// Warm basis restarted through dual simplex iterations.
    WarmDual,
    /// Warm basis accepted/repaired through the primal path (e.g. zero
    /// iterations because the old optimum is still optimal).
    WarmPrimal,
    /// Cold solve (no usable chained basis).
    Cold,
    /// Solve failed — infeasible (§4.5 heavy active faults) or
    /// numerical breakdown: no target, controller rolls back.
    Infeasible,
    /// The solve ran out of its iteration budget
    /// ([`ffc_lp::LpError::LimitExceeded`]). Recoverable: treated like
    /// a deadline overrun — protection degrades for the next interval
    /// and the installed config stays (no rollback).
    LimitExceeded,
    /// No solve attempted: rescale-only degradation.
    #[default]
    RescaleOnly,
}

impl SolvePath {
    /// Every path in declaration order. A path's position here is its
    /// stored code (telemetry segments) and [`SolvePath::as_str`] its
    /// stored label (JSONL): this array and that `match` are the whole
    /// label ↔ code map.
    pub const ALL: [SolvePath; 6] = [
        SolvePath::WarmDual,
        SolvePath::WarmPrimal,
        SolvePath::Cold,
        SolvePath::Infeasible,
        SolvePath::LimitExceeded,
        SolvePath::RescaleOnly,
    ];

    /// Short lowercase label for telemetry.
    pub const fn as_str(&self) -> &'static str {
        match self {
            SolvePath::WarmDual => "warm_dual",
            SolvePath::WarmPrimal => "warm_primal",
            SolvePath::Cold => "cold",
            SolvePath::Infeasible => "infeasible",
            SolvePath::LimitExceeded => "limit_exceeded",
            SolvePath::RescaleOnly => "rescale_only",
        }
    }
}

/// Planner policy knobs.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Requested protection level (the ladder never exceeds it).
    pub ffc: FfcConfig,
    /// Wall-clock budget per re-solve; overruns degrade protection.
    pub solve_deadline: Duration,
    /// In rescale-only mode, attempt a probe solve every this many
    /// intervals (≥ 1).
    pub recovery_probe: usize,
    /// Simplex options for every solve. `algorithm` defaults to
    /// [`Algorithm::Auto`] so dual-feasible warm bases take the dual
    /// path; `presolve` is forced off on warm solves regardless.
    pub opts: SimplexOptions,
    /// Keep a standing [`FfcModelCache`] across intervals and *patch*
    /// it (demand ticks, fault drift, installed-config advances)
    /// instead of rebuilding the LP every round (default: on). The
    /// patched model is bit-identical to a fresh build from the same
    /// inputs (the standing mice set among them) — checked under debug
    /// assertions — so the solve path, iteration counts, and telemetry
    /// fingerprints match the rebuild-every-interval mode.
    pub incremental: bool,
}

impl PlannerConfig {
    /// Defaults: 30 s deadline (a tenth of the paper's 300 s interval),
    /// probe every 3 intervals, `Auto` algorithm, incremental re-solves
    /// on.
    pub fn new(ffc: FfcConfig) -> Self {
        PlannerConfig {
            ffc,
            solve_deadline: Duration::from_secs(30),
            recovery_probe: 3,
            opts: SimplexOptions {
                algorithm: Algorithm::Auto,
                ..SimplexOptions::default()
            },
            incremental: true,
        }
    }
}

/// What one planning round produced.
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// The next target configuration (`None` for rescale-only rounds
    /// and infeasible solves).
    pub target: Option<TeConfig>,
    /// Raw solver statistics, when a solve ran.
    pub stats: Option<SolveStats>,
    /// Path taken.
    pub path: SolvePath,
    /// Protection level this round actually solved with.
    pub protection: (usize, usize, usize),
    /// Whether the ladder has degraded below the requested level.
    pub degraded: bool,
    /// Solve wall time (zero when no solve ran).
    pub wall: Duration,
    /// Whether this round *patched* the standing model instead of
    /// building one (always `false` with incremental re-solves off, on
    /// the first interval, and on rescale-only rounds).
    pub patched: bool,
}

/// The per-interval re-solver with its degradation state.
#[derive(Debug, Clone)]
pub struct Planner {
    cfg: PlannerConfig,
    /// Current, possibly degraded, protection level.
    current: FfcConfig,
    /// True once the ladder has bottomed out entirely.
    rescale_only: bool,
    intervals_since_probe: usize,
    /// The standing §6 mice set, one flag per flow: what the last
    /// solving round built with (`None` before the first).
    mice: Option<Vec<bool>>,
    /// The standing model reused across intervals (incremental mode).
    cache: Option<FfcModelCache>,
}

/// The planner's externalized state — what a crash checkpoint persists:
/// the ladder position and the standing mice set. The standing
/// [`FfcModelCache`] is deliberately *not* part of it: a patched model
/// is bit-identical to a fresh build from the same inputs (checked
/// under debug assertions), so a resumed planner rebuilds the cache on
/// its first solve — with the restored mice set — and the fingerprints
/// still match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannerSnapshot {
    /// Requested protection level (mutable at runtime via
    /// [`Planner::set_protection`]).
    pub requested: (usize, usize, usize),
    /// Current, possibly degraded, protection level.
    pub current: (usize, usize, usize),
    /// Whether the ladder has bottomed out entirely.
    pub rescale_only: bool,
    /// Intervals since the last rescale-only probe solve.
    pub intervals_since_probe: usize,
    /// The standing §6 mice set, one flag per flow (`None` before the
    /// first solve).
    pub mice: Option<Vec<bool>>,
}

impl Planner {
    /// A planner at the requested protection level.
    pub fn new(cfg: PlannerConfig) -> Self {
        let current = cfg.ffc.clone();
        Planner {
            cfg,
            current,
            rescale_only: false,
            intervals_since_probe: 0,
            mice: None,
            cache: None,
        }
    }

    /// Externalizes the planner state for a crash checkpoint.
    pub fn snapshot(&self) -> PlannerSnapshot {
        PlannerSnapshot {
            requested: (self.cfg.ffc.kc, self.cfg.ffc.ke, self.cfg.ffc.kv),
            current: (self.current.kc, self.current.ke, self.current.kv),
            rescale_only: self.rescale_only,
            intervals_since_probe: self.intervals_since_probe,
            mice: self.mice.clone(),
        }
    }

    /// Restores the state captured by [`Planner::snapshot`]. Of the
    /// [`FfcConfig`] only the `(kc, ke, kv)` triples travel through the
    /// snapshot; the rest (encoding, mice fraction, unprotected links)
    /// is immutable per run and comes from this planner's config. The
    /// standing model cache starts empty and is rebuilt on the first
    /// post-restore solve, from the restored mice set.
    pub fn restore(&mut self, s: &PlannerSnapshot) {
        self.cfg.ffc = FfcConfig {
            kc: s.requested.0,
            ke: s.requested.1,
            kv: s.requested.2,
            ..self.cfg.ffc.clone()
        };
        self.current = FfcConfig {
            kc: s.current.0,
            ke: s.current.1,
            kv: s.current.2,
            ..self.cfg.ffc.clone()
        };
        self.rescale_only = s.rescale_only;
        self.intervals_since_probe = s.intervals_since_probe;
        self.mice = s.mice.clone();
        self.cache = None;
    }

    /// The standing model's patch / rebuild tally, rebuilds split by
    /// [`ffc_core::RebuildReason`]. All zero while there is no standing
    /// model: before the first solve, after a failed one dropped it,
    /// and with [`PlannerConfig::incremental`] off.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// The protection level the next solve will use.
    pub fn protection(&self) -> &FfcConfig {
        &self.current
    }

    /// Whether the planner has degraded below the requested level.
    pub fn degraded(&self) -> bool {
        self.rescale_only
            || self.current.kc != self.cfg.ffc.kc
            || self.current.ke != self.cfg.ffc.ke
            || self.current.kv != self.cfg.ffc.kv
    }

    /// Operator protection change: resets the ladder and breaks the
    /// basis chain (the model shape changes).
    pub fn set_protection(&mut self, kc: usize, ke: usize, kv: usize, store: &mut ConfigStore) {
        self.cfg.ffc = FfcConfig {
            kc,
            ke,
            kv,
            ..self.cfg.ffc.clone()
        };
        self.current = self.cfg.ffc.clone();
        self.rescale_only = false;
        self.intervals_since_probe = 0;
        store.drop_hint();
    }

    /// Plans one interval: re-solves (or skips per the ladder) and
    /// chains the resulting basis into `store` for the next interval.
    pub fn plan(
        &mut self,
        problem: TeProblem<'_>,
        old: &TeConfig,
        scenario: &FaultScenario,
        store: &mut ConfigStore,
    ) -> PlanOutcome {
        let prot = (self.current.kc, self.current.ke, self.current.kv);
        if self.rescale_only {
            self.intervals_since_probe += 1;
            if self.intervals_since_probe < self.cfg.recovery_probe.max(1) {
                return PlanOutcome {
                    target: None,
                    stats: None,
                    path: SolvePath::RescaleOnly,
                    protection: prot,
                    degraded: true,
                    wall: Duration::ZERO,
                    patched: false,
                };
            }
            // Probe round: attempt a solve below.
            self.intervals_since_probe = 0;
        }

        let mut opts = self.cfg.opts.clone();
        opts.presolve = false;
        let shape = (
            self.current.kc,
            self.current.ke,
            self.current.kv,
            problem.tm.len(),
        );

        let t0 = Instant::now();
        // The §6 mice set both arms build with: the standing one while
        // it still is a mice set of these demands, the greedy one
        // otherwise (`standing_mice` is the whole rule).
        let mice = standing_mice(self.mice.as_deref(), problem.tm, self.current.mice_fraction);
        let mut patched = false;
        let hint = store.hint_for(shape);
        let warm = hint.is_some();
        let result = if self.cfg.incremental {
            // Standing model: patch it to the new inputs when sound
            // (demand ticks, installed-config advances, fault drift),
            // rebuild it in place otherwise. The patched model is
            // bit-identical to a fresh build, so everything downstream
            // (solve path, stats, fingerprints) is unchanged.
            let cache = match self.cache.as_mut() {
                Some(c) => {
                    patched = c
                        .retarget(problem, old, &self.current, &mice, Some(scenario))
                        .is_patch();
                    c
                }
                None => self.cache.insert(FfcModelCache::new(
                    problem,
                    old,
                    &self.current,
                    &mice,
                    Some(scenario),
                )),
            };
            cache.solve_with(&opts, hint)
        } else {
            let (mut builder, _) = build_ffc_model_tracked(problem, old, &self.current, &mice);
            zero_dead_tunnels(&mut builder, scenario);
            builder.solve_with(&opts, hint)
        };
        self.mice = Some(mice);
        let wall = t0.elapsed();

        match result {
            Ok((target, sol)) => {
                let path = if warm && sol.stats.dual_iterations + sol.stats.dual_bound_flips > 0 {
                    SolvePath::WarmDual
                } else if warm {
                    SolvePath::WarmPrimal
                } else {
                    SolvePath::Cold
                };
                store.set_hint(sol.basis.clone(), shape);
                let degraded = self.degraded();
                if wall > self.cfg.solve_deadline {
                    self.degrade(store);
                }
                PlanOutcome {
                    target: Some(target),
                    stats: Some(sol.stats),
                    path,
                    protection: prot,
                    degraded,
                    wall,
                    patched,
                }
            }
            Err(ffc_lp::LpError::LimitExceeded { stats, .. }) => {
                // Budget overrun: the model is not known to be bad, the
                // solver was just interrupted. Same treatment as a
                // deadline overrun — degrade protection for the next
                // interval, keep the installed config (no rollback),
                // and keep the chained hint: it described the previous
                // optimum and is still a valid warm start. The standing
                // model is equally fine — it matches the inputs.
                let degraded = self.degraded();
                self.degrade(store);
                PlanOutcome {
                    target: None,
                    stats: Some(*stats),
                    path: SolvePath::LimitExceeded,
                    protection: prot,
                    degraded,
                    wall,
                    patched,
                }
            }
            Err(_) => {
                // Infeasible (or numerically hopeless): no target. The
                // chained basis is suspect — drop it, and drop the
                // standing model too so the next interval rebuilds from
                // scratch (bottom of the fallback ladder).
                store.drop_hint();
                self.cache = None;
                PlanOutcome {
                    target: None,
                    stats: None,
                    path: SolvePath::Infeasible,
                    protection: prot,
                    degraded: self.degraded(),
                    wall,
                    patched,
                }
            }
        }
    }

    /// One rung down the ladder: lower the largest protection component
    /// (ties: kc, then ke, then kv); below plain TE, go rescale-only.
    fn degrade(&mut self, store: &mut ConfigStore) {
        let FfcConfig { kc, ke, kv, .. } = self.current;
        let max = kc.max(ke).max(kv);
        if max == 0 {
            self.rescale_only = true;
            self.intervals_since_probe = 0;
            return;
        }
        if kc == max {
            self.current.kc -= 1;
        } else if ke == max {
            self.current.ke -= 1;
        } else {
            self.current.kv -= 1;
        }
        // The model shape changes with k: break the basis chain.
        store.drop_hint();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffc_net::prelude::*;

    /// A 4-node diamond with two disjoint paths per flow.
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
    fn second_solve_takes_warm_path() {
        let (topo, mut tm, tunnels) = diamond();
        let mut store = ConfigStore::new(TeConfig::zero(&tunnels));
        let mut planner = Planner::new(PlannerConfig::new(FfcConfig::new(0, 1, 0)));
        let sc = FaultScenario::none();

        let p = TeProblem::new(&topo, &tm, &tunnels);
        let old = store.installed().clone();
        let o1 = planner.plan(p, &old, &sc, &mut store);
        assert_eq!(o1.path, SolvePath::Cold);
        let t1 = o1.target.expect("feasible");
        store.stage(t1.clone());
        store.commit(t1, true);

        // Demand change = bound change: the chained basis restarts warm.
        tm.set_demand(FlowId(0), 6.0);
        let p = TeProblem::new(&topo, &tm, &tunnels);
        let old = store.installed().clone();
        let o2 = planner.plan(p, &old, &sc, &mut store);
        assert!(
            matches!(o2.path, SolvePath::WarmDual | SolvePath::WarmPrimal),
            "expected warm path, got {:?}",
            o2.path
        );
        assert!(o2.target.is_some());
    }

    #[test]
    fn zero_deadline_degrades_to_rescale_only_and_probes() {
        let (topo, tm, tunnels) = diamond();
        let mut store = ConfigStore::new(TeConfig::zero(&tunnels));
        let mut cfg = PlannerConfig::new(FfcConfig::new(1, 1, 0));
        cfg.solve_deadline = Duration::ZERO; // every solve "overruns"
        cfg.recovery_probe = 2;
        let mut planner = Planner::new(cfg);
        let sc = FaultScenario::none();
        let old = TeConfig::zero(&tunnels);

        let mut ladder = Vec::new();
        for _ in 0..8 {
            let p = TeProblem::new(&topo, &tm, &tunnels);
            let o = planner.plan(p, &old, &sc, &mut store);
            ladder.push((o.protection, o.path));
        }
        // (1,1,0) → (0,1,0) → (0,0,0) → rescale-only with probes.
        assert_eq!(ladder[0].0, (1, 1, 0));
        assert_eq!(ladder[1].0, (0, 1, 0));
        assert_eq!(ladder[2].0, (0, 0, 0));
        assert_eq!(ladder[3].1, SolvePath::RescaleOnly);
        // Probe every 2nd round keeps trying to solve.
        assert!(
            ladder[4..]
                .iter()
                .any(|(_, p)| *p != SolvePath::RescaleOnly),
            "no probe solve observed: {ladder:?}"
        );
        assert!(planner.degraded());
    }

    #[test]
    fn starved_budget_degrades_instead_of_rolling_back() {
        let (topo, tm, tunnels) = diamond();
        let mut store = ConfigStore::new(TeConfig::zero(&tunnels));
        let old = TeConfig::zero(&tunnels);
        let sc = FaultScenario::none();

        // A starved iteration budget is a *recoverable* overrun: no
        // target this interval, partial stats reported, protection
        // degraded for the next round — but no rollback path.
        let mut cfg = PlannerConfig::new(FfcConfig::new(0, 1, 0));
        cfg.opts.max_iters = 1;
        let mut starved = Planner::new(cfg);
        let heavy = tm.scale(3.0);
        let p = TeProblem::new(&topo, &heavy, &tunnels);
        let o = starved.plan(p, &old, &sc, &mut store);
        assert_eq!(o.path, SolvePath::LimitExceeded);
        assert!(o.target.is_none());
        let stats = o.stats.expect("partial stats survive the overrun");
        assert!(stats.iterations() >= 1);
        // The overrun degraded protection for the next interval.
        assert!(starved.degraded());
        assert_eq!(starved.protection().ke, 0);
    }

    #[test]
    fn failed_solve_yields_no_target_and_drops_hint() {
        let (topo, tm, tunnels) = diamond();
        let mut store = ConfigStore::new(TeConfig::zero(&tunnels));
        let old = TeConfig::zero(&tunnels);
        let sc = FaultScenario::none();

        // Plant a chained basis with a healthy planner.
        let mut planner = Planner::new(PlannerConfig::new(FfcConfig::new(0, 1, 0)));
        let p = TeProblem::new(&topo, &tm, &tunnels);
        let o = planner.plan(p, &old, &sc, &mut store);
        assert_eq!(o.path, SolvePath::Cold);
        assert!(o.target.is_some());

        // The FFC formulations here always admit b = 0, so a clean
        // `Infeasible` cannot be produced by inputs alone — use the
        // chaos hook to force a singular refactorization instead, which
        // exercises the same hard-failure path. The demand change makes
        // the warm re-solve actually iterate (an already-optimal warm
        // basis would finish before the injected iteration).
        let mut cfg = PlannerConfig::new(FfcConfig::new(0, 1, 0));
        cfg.opts.inject_singular_after = 1;
        let mut broken = Planner::new(cfg);
        let heavy = tm.scale(3.0);
        let p = TeProblem::new(&topo, &heavy, &tunnels);
        let o = broken.plan(p, &old, &sc, &mut store);
        assert_eq!(o.path, SolvePath::Infeasible);
        assert!(o.target.is_none());

        // The failure dropped the chained hint: the next healthy solve
        // (same shape as the failed one) starts cold.
        let mut healthy = Planner::new(PlannerConfig::new(FfcConfig::new(0, 1, 0)));
        let p = TeProblem::new(&topo, &tm, &tunnels);
        let o = healthy.plan(p, &old, &sc, &mut store);
        assert_eq!(o.path, SolvePath::Cold);
        assert!(o.target.is_some());
    }

    #[test]
    fn operator_change_resets_ladder() {
        let (topo, tm, tunnels) = diamond();
        let mut store = ConfigStore::new(TeConfig::zero(&tunnels));
        let mut cfg = PlannerConfig::new(FfcConfig::new(1, 1, 0));
        cfg.solve_deadline = Duration::ZERO;
        let mut planner = Planner::new(cfg);
        let old = TeConfig::zero(&tunnels);
        let sc = FaultScenario::none();
        let p = TeProblem::new(&topo, &tm, &tunnels);
        let _ = planner.plan(p, &old, &sc, &mut store);
        assert!(planner.degraded());
        planner.set_protection(0, 2, 0, &mut store);
        assert!(!planner.degraded());
        assert_eq!(planner.protection().ke, 2);
    }
}
