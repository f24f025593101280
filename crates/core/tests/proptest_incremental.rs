//! Property-based differential oracle for the delta-LP cache: a
//! standing [`FfcModelCache`] driven through a random sequence of
//! demand ticks, installed-config edits, fault-set drift, and
//! protection/encoding changes must solve to the same objective as a
//! from-scratch build at every step — whether the step patched or
//! rebuilt. The §6 mice set is an input of both, and any set that meets
//! §6's criterion may be handed in, not only the greedy one. The fresh
//! build is the one-shot one, with §6's β support, so every step also
//! holds the standing model's every-tunnel support to the same optimum.
//! At a fixed `kc ≥ 1`, installed configs that zero and revive tunnels
//! must patch every time. Under debug
//! assertions (always on in tests) every patched
//! step is additionally compared coefficient-for-coefficient against a
//! fresh model inside the cache itself, so a passing run certifies both
//! the patch ladder and its invalidation rules. A basis carried across a
//! mice-set change must load on the rebuilt model and solve to its cold
//! optimum.

use ffc_core::{
    build_ffc_model_tracked, mice_flags, zero_dead_tunnels, BetaSupport, FfcConfig, FfcModelCache,
    MsumEncoding, TeConfig, TeProblem,
};
use ffc_lp::ColStatus;
use ffc_net::prelude::*;
use proptest::prelude::*;

/// One random retarget: new demands, an edit to the installed config,
/// a fault set, and a protection configuration.
#[derive(Debug, Clone)]
struct Step {
    /// Per-flow demands (3 flows).
    demands: Vec<f64>,
    /// Scale one tunnel allocation of the installed config (support-
    /// preserving when the entry was already positive).
    old_scale: f64,
    /// Zero one tunnel allocation instead (a tunnel the config leaves
    /// idle).
    old_zero: bool,
    /// Whether a fault is live this step.
    faulty: bool,
    /// Directed link index to fail (taken modulo the count).
    fault_link: usize,
    kc: usize,
    ke: usize,
    /// Use the enumeration encoding (an encoding flip must rebuild).
    enumerate: bool,
    /// Arm the §6 mice optimization (a different set than the standing
    /// model's must force a rebuild).
    mice: bool,
    /// Candidate mice set, one bit per flow: handed in when its flows
    /// carry less than the share, the greedy set otherwise.
    mice_mask: usize,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (
        (
            prop::collection::vec(0.5..12.0f64, 3),
            0.2..3.0f64,
            any::<bool>(),
            (any::<bool>(), 0..64usize),
        ),
        (
            0..3usize,
            0..3usize,
            any::<bool>(),
            (any::<bool>(), 0..8usize),
        ),
    )
        .prop_map(
            |(
                (demands, old_scale, old_zero, (faulty, fault_link)),
                (kc, ke, enumerate, (mice, mice_mask)),
            )| {
                Step {
                    demands,
                    old_scale,
                    old_zero,
                    faulty,
                    fault_link,
                    kc,
                    ke,
                    enumerate,
                    mice,
                    mice_mask,
                }
            },
        )
}

/// One installed-config edit at a fixed `kc ≥ 1`: a tunnel's
/// allocation goes to zero (`alloc == 0.0`) or to a positive value (a
/// tunnel revived, or a used one moved), demands tick along.
#[derive(Debug, Clone)]
struct Toggle {
    flow: usize,
    /// Tunnel index (taken modulo the flow's tunnel count).
    tunnel: usize,
    alloc: f64,
    demand_scale: f64,
}

fn toggle_strategy() -> impl Strategy<Value = Toggle> {
    (
        0..3usize,
        0..3usize,
        (any::<bool>(), 0.5..4.0f64),
        0.8..1.25f64,
    )
        .prop_map(|(flow, tunnel, (zero, alloc), demand_scale)| Toggle {
            flow,
            tunnel,
            alloc: if zero { 0.0 } else { alloc },
            demand_scale,
        })
}

/// The mice set a step hands in: its random candidate when that meets
/// §6's criterion (Σ demand under the share), the greedy set otherwise.
fn qualifying_mice(tm: &TrafficMatrix, fraction: f64, mask: usize) -> Vec<bool> {
    let candidate: Vec<bool> = (0..tm.len()).map(|fi| mask >> fi & 1 == 1).collect();
    let share: f64 = tm
        .iter()
        .zip(&candidate)
        .filter(|(_, &mouse)| mouse)
        .map(|((_, flow), _)| flow.demand)
        .sum();
    if share < fraction * tm.total_demand() {
        candidate
    } else {
        mice_flags(tm, fraction)
    }
}

/// A 5-node ring with chords — rich enough for multi-tunnel flows, small
/// enough for hundreds of LP solves per property run.
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
    let old = ffc_core::solve_te(TeProblem::new(&t, &tm, &tunnels)).unwrap();
    (t, tm, tunnels, old)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn randomly_retargeted_cache_matches_from_scratch_builds(
        steps in prop::collection::vec(step_strategy(), 1..6)
    ) {
        let (topo, mut tm, tunnels, base_old) = ring();
        let links: Vec<LinkId> = topo.links().collect();
        let problem = TeProblem::new(&topo, &tm, &tunnels);
        let mut old = base_old;
        let mut cache = FfcModelCache::new(
            problem,
            &old,
            &FfcConfig::new(1, 1, 0).exact(),
            &[false; 3],
            None,
        );

        for (i, step) in steps.iter().enumerate() {
            // Demand tick.
            for (fi, f) in tm.ids().collect::<Vec<_>>().into_iter().enumerate() {
                tm.set_demand(f, step.demands[fi]);
            }
            // Installed-config edit: scale or zero one tunnel allocation.
            let fi = i % old.alloc.len();
            let ti = i % old.alloc[fi].len().max(1);
            if step.old_zero {
                old.alloc[fi][ti] = 0.0;
            } else {
                old.alloc[fi][ti] *= step.old_scale;
            }
            // Fault drift.
            let scenario = step
                .faulty
                .then(|| FaultScenario::links([links[step.fault_link % links.len()]]));
            // Protection / encoding change.
            let mut cfg = FfcConfig::new(step.kc, step.ke, 0);
            if step.enumerate {
                cfg = cfg.with_encoding(MsumEncoding::Enumeration);
            }
            cfg.mice_fraction = if step.mice { 0.3 } else { 0.0 };
            let mice = qualifying_mice(&tm, cfg.mice_fraction, step.mice_mask);

            let problem = TeProblem::new(&topo, &tm, &tunnels);
            cache.retarget(problem, &old, &cfg, &mice, scenario.as_ref());
            let (got, _) = cache.solve_with(&Default::default(), None).unwrap();

            let (mut fresh, _) =
                build_ffc_model_tracked(problem, &old, &cfg, &mice, BetaSupport::OldWeights);
            if let Some(s) = &scenario {
                zero_dead_tunnels(&mut fresh, s);
            }
            let want = fresh.solve().unwrap().throughput();
            prop_assert!(
                (got.throughput() - want).abs() < 1e-6,
                "step {i} ({step:?}): cache {} vs fresh {want}",
                got.throughput()
            );
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.patches + stats.rebuilds, steps.len() as u64 + 1);
    }

    /// The standing model's shape does not depend on which tunnels the
    /// installed config uses: zeroing and reviving tunnels (whole flows
    /// included) is a coefficient patch at every step, and each patched
    /// model solves like the one-shot build of the same inputs.
    #[test]
    fn zeroing_and_reviving_tunnels_always_patches(
        kc in 1..3usize,
        ke in 0..2usize,
        toggles in prop::collection::vec(toggle_strategy(), 1..8)
    ) {
        let (topo, mut tm, tunnels, mut old) = ring();
        let cfg = FfcConfig::new(kc, ke, 0).exact();
        let mice = [false; 3];
        let problem = TeProblem::new(&topo, &tm, &tunnels);
        let mut cache = FfcModelCache::new(problem, &old, &cfg, &mice, None);

        for (i, t) in toggles.iter().enumerate() {
            let row = &mut old.alloc[t.flow];
            let ti = t.tunnel % row.len();
            row[ti] = t.alloc;
            old.rate[t.flow] = row.iter().sum();
            for f in tm.ids().collect::<Vec<_>>() {
                let d = tm.flow(f).demand * t.demand_scale;
                tm.set_demand(f, d);
            }

            let problem = TeProblem::new(&topo, &tm, &tunnels);
            let outcome = cache.retarget(problem, &old, &cfg, &mice, None);
            prop_assert!(outcome.is_patch(), "step {i} ({t:?}): {outcome:?}");
            let (got, _) = cache.solve_with(&Default::default(), None).unwrap();
            let (fresh, _) =
                build_ffc_model_tracked(problem, &old, &cfg, &mice, BetaSupport::OldWeights);
            let want = fresh.solve().unwrap().throughput();
            prop_assert!(
                (got.throughput() - want).abs() < 1e-6,
                "step {i} ({t:?}): cache {} vs fresh {want}",
                got.throughput()
            );
        }
        prop_assert_eq!(cache.stats().rebuilds, 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A mice-set change (flows dropped, added or swapped, up to all
    /// three) rebuilds the standing model; the basis of the old set's
    /// optimum, carried onto it, loads and solves to the optimum a cold
    /// solve of a fresh build reaches, after a demand tick too. Carried
    /// across an unchanged set, an optimal basis comes back as it was.
    #[test]
    fn a_carried_basis_survives_a_mice_set_change(
        from_mask in 0..8usize,
        to_mask in 0..8usize,
        kc in 0..2usize,
        enumerate in any::<bool>(),
        demands in prop::collection::vec(0.5..12.0f64, 3),
        tick in 0.8..1.25f64,
    ) {
        let (topo, mut tm, tunnels, old) = ring();
        let flags = |mask: usize| (0..3).map(|fi| mask >> fi & 1 == 1).collect::<Vec<bool>>();
        let (from, to) = (flags(from_mask), flags(to_mask));
        let mut cfg = FfcConfig::new(kc, 1, 0);
        if enumerate {
            cfg = cfg.with_encoding(MsumEncoding::Enumeration);
        }
        for (fi, f) in tm.ids().collect::<Vec<_>>().into_iter().enumerate() {
            tm.set_demand(f, demands[fi]);
        }
        let mut cache =
            FfcModelCache::new(TeProblem::new(&topo, &tm, &tunnels), &old, &cfg, &from, None);
        let (_, first) = cache.solve_with(&Default::default(), None).unwrap();
        let rows = first.duals.len();
        let basics = first.basis.0.iter().filter(|&&s| s == ColStatus::Basic).count();
        if basics == rows {
            prop_assert_eq!(cache.carry_hint(&tunnels, &from, &first.basis), Some(first.basis.clone()));
        }

        for f in tm.ids().collect::<Vec<_>>() {
            let d = tm.flow(f).demand * tick;
            tm.set_demand(f, d);
        }
        let problem = TeProblem::new(&topo, &tm, &tunnels);
        let outcome = cache.retarget(problem, &old, &cfg, &to, None);
        prop_assert_eq!(outcome.is_patch(), from == to, "{:?}", outcome);
        let carried = cache.carry_hint(&tunnels, &from, &first.basis);
        prop_assert!(carried.is_some(), "the old optimum has the old model's size");
        let (_, warm) = cache.solve_with(&Default::default(), carried.as_ref()).unwrap();
        prop_assert!(warm.stats.hint_used, "{:?} -> {:?}: the carried basis did not load", from, to);

        let (fresh, _) = build_ffc_model_tracked(problem, &old, &cfg, &to, BetaSupport::AllTunnels);
        let cold = fresh.model.solve().unwrap();
        prop_assert!(
            (warm.objective - cold.objective).abs() < 1e-6,
            "{:?} -> {:?}: warm {} vs cold {}",
            from,
            to,
            warm.objective,
            cold.objective
        );
    }
}
