//! Property-based differential oracle for the delta-LP cache: a
//! standing [`FfcModelCache`] driven through a random sequence of
//! demand ticks, installed-config edits, fault-set drift, and
//! protection/encoding changes must solve to the same objective as a
//! from-scratch build at every step — whether the step patched or
//! rebuilt. The §6 mice set is an input of both, and any set that meets
//! §6's criterion may be handed in, not only the greedy one. Under debug
//! assertions (always on in tests) every patched
//! step is additionally compared coefficient-for-coefficient against a
//! fresh model inside the cache itself, so a passing run certifies both
//! the patch ladder and its invalidation rules.

use ffc_core::{
    build_ffc_model_tracked, mice_flags, zero_dead_tunnels, FfcConfig, FfcModelCache, MsumEncoding,
    TeConfig, TeProblem,
};
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
    /// Zero one tunnel allocation instead (may change β-support).
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

            let (mut fresh, _) = build_ffc_model_tracked(problem, &old, &cfg, &mice);
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
}
