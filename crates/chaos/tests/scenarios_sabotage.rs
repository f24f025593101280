//! Chaos coverage for the batched scenario sweep driver
//! [`ffc_core::solve_ffc_scenarios`] under deterministically injected
//! solver sabotage — recoverable singular refactorizations *and*
//! outright panics (`inject_panic_after`) fired inside worker chunks.
//! The invariants:
//!
//! * **Per-scenario isolation**: one sabotaged solve yields its own
//!   `Err` (a `WorkerPanic` when the fault was a panic) while the rest
//!   of the chunk — and its warm-start chain — keeps going; nothing
//!   escapes the driver.
//! * **Certified outcomes only**: every `Ok` that survives a sabotaged
//!   campaign must still pass the independent `ffc-audit` certifier.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ffc_core::{solve_ffc_scenarios, FfcConfig, TeConfig, TeProblem};
use ffc_lp::{LpError, SimplexOptions};
use ffc_net::prelude::*;
use ffc_net::FaultScenario;

/// Same 5-node ring-with-chords shape as the batch chaos test:
/// multi-tunnel flows so scenario re-solves do real pivoting.
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

/// The empty scenario (never re-solved: must survive any sabotage of
/// the worker chunks) plus every single-link failure, one switch
/// failure, and one joint link+switch scenario.
fn scenario_list(t: &Topology) -> Vec<FaultScenario> {
    let links: Vec<LinkId> = t.links().collect();
    let nodes: Vec<NodeId> = t.nodes().collect();
    let mut out = vec![FaultScenario::none()];
    for &l in &links {
        out.push(FaultScenario::links([l]));
    }
    out.push(FaultScenario::switches([nodes[2]]));
    let mut joint = FaultScenario::switches([nodes[3]]);
    joint.fail_link(links[1]);
    out.push(joint);
    out
}

/// Certifies an `Ok` scenario outcome the way the driver's own debug
/// hook does: fault-free checks only (dead tunnels are pinned into the
/// model, so the scenario itself is already baked in).
fn assert_certified(
    t: &Topology,
    tm: &TrafficMatrix,
    tunnels: &TunnelTable,
    outcome: &ffc_core::BatchOutcome,
    ctx: &str,
) {
    let cert = ffc_core::certify_config(t, tm, tunnels, &outcome.config, None, &FfcConfig::none());
    assert!(
        cert.ok(),
        "{ctx}: uncertified outcome: {}",
        cert.status_str()
    );
}

/// Runs one clean sweep and reports `(base_iterations, max_scenario
/// iterations)` so sabotage campaigns can aim at a specific victim:
/// clean (data-plane-intact) scenarios return the base solve's stats
/// verbatim, everything else reports its own re-solve.
fn clean_profile(
    t: &Topology,
    tm: &TrafficMatrix,
    tunnels: &TunnelTable,
    old: &TeConfig,
    cfg: &FfcConfig,
    scenarios: &[FaultScenario],
    opts: &SimplexOptions,
) -> (usize, usize) {
    let outcomes = solve_ffc_scenarios(TeProblem::new(t, tm, tunnels), old, cfg, scenarios, opts)
        .expect("clean run must solve the base model");
    assert_eq!(outcomes.len(), scenarios.len());
    let mut base_iters = 0usize;
    let mut max_inner = 0usize;
    for (sc, outcome) in scenarios.iter().zip(&outcomes) {
        let o = outcome
            .as_ref()
            .expect("clean run must solve every scenario");
        assert_certified(t, tm, tunnels, o, "clean run");
        let iters = o.stats.iterations();
        if sc.data_plane_clean() {
            base_iters = iters;
        } else {
            max_inner = max_inner.max(iters);
        }
    }
    (base_iters, max_inner)
}

#[test]
fn injected_singular_bases_isolate_per_scenario_failures() {
    let (t, tm, tunnels, old) = ring();
    let cfg = FfcConfig::new(0, 1, 0);
    let scenarios = scenario_list(&t);
    let opts = SimplexOptions::default();
    let (base_iters, max_inner) = clean_profile(&t, &tm, &tunnels, &old, &cfg, &scenarios, &opts);
    assert!(base_iters > 0, "base solve did no work");

    // Injection at iteration 1 is guaranteed to fire: the base solve
    // dies before any worker chunk starts, and its failure must surface
    // as the outer Err (never a panic, never a partial result).
    let kill_base = SimplexOptions {
        inject_singular_after: 1,
        ..SimplexOptions::default()
    };
    let res = solve_ffc_scenarios(
        TeProblem::new(&t, &tm, &tunnels),
        &old,
        &cfg,
        &scenarios,
        &kill_base,
    );
    assert!(res.is_err(), "sabotaged base solve must surface as Err");

    // Above the base solve's iteration count only worker-chunk
    // re-solves can reach the injection point. A hit scenario either
    // errs in isolation or recovers through the solver's exact-rerun
    // retry ladder — in which case its outcome must still certify.
    // Either way nothing else in the sweep is disturbed.
    for inject_after in [base_iters + 1, max_inner.max(base_iters + 1)] {
        let sab = SimplexOptions {
            inject_singular_after: inject_after,
            ..SimplexOptions::default()
        };
        let outcomes = solve_ffc_scenarios(
            TeProblem::new(&t, &tm, &tunnels),
            &old,
            &cfg,
            &scenarios,
            &sab,
        )
        .expect("base solve is below the injection point");
        let mut oks = 0usize;
        for (sc, outcome) in scenarios.iter().zip(&outcomes) {
            match outcome {
                Ok(o) => {
                    oks += 1;
                    assert_certified(&t, &tm, &tunnels, o, "sabotaged run");
                }
                Err(e) => {
                    assert!(
                        !sc.data_plane_clean(),
                        "clean scenario must never fail: {e}"
                    );
                }
            }
        }
        assert!(oks > 0, "no scenario survived — isolation not witnessed");
    }
}

#[test]
fn injected_panics_are_contained_by_worker_isolation() {
    let (t, tm, tunnels, old) = ring();
    let cfg = FfcConfig::new(0, 1, 0);
    let scenarios = scenario_list(&t);
    let opts = SimplexOptions::default();
    let (base_iters, max_inner) = clean_profile(&t, &tm, &tunnels, &old, &cfg, &scenarios, &opts);

    if max_inner > base_iters {
        // The panic fires inside a worker chunk — guaranteed, since at
        // least one clean-run re-solve reaches base_iters + 1
        // iterations and panics (unlike the singular injection) cannot
        // be absorbed by the retry ladder. The per-scenario
        // catch_unwind must convert it to `WorkerPanic` and leave the
        // rest of the sweep intact.
        let sab = SimplexOptions {
            inject_panic_after: base_iters + 1,
            ..SimplexOptions::default()
        };
        let outcomes = solve_ffc_scenarios(
            TeProblem::new(&t, &tm, &tunnels),
            &old,
            &cfg,
            &scenarios,
            &sab,
        )
        .expect("base solve is below the injection point");
        let mut panics = 0usize;
        let mut oks = 0usize;
        for (sc, outcome) in scenarios.iter().zip(&outcomes) {
            match outcome {
                Ok(o) => {
                    oks += 1;
                    assert_certified(&t, &tm, &tunnels, o, "panic campaign");
                }
                Err(LpError::WorkerPanic(msg)) => {
                    assert!(!sc.data_plane_clean(), "clean scenario must never fail");
                    assert!(msg.contains("injected solver panic"), "payload lost: {msg}");
                    panics += 1;
                }
                Err(other) => panic!("expected WorkerPanic, got {other:?}"),
            }
        }
        assert!(
            panics > 0,
            "panic injection at {} never fired",
            base_iters + 1
        );
        assert!(oks > 0, "no scenario survived the panic campaign");
    } else {
        // The base solve is the first to reach the injection point; it
        // runs on the caller's stack, *outside* the worker isolation,
        // so the panic propagates — the documented contract.
        let sab = SimplexOptions {
            inject_panic_after: base_iters,
            ..SimplexOptions::default()
        };
        let res = catch_unwind(AssertUnwindSafe(|| {
            solve_ffc_scenarios(
                TeProblem::new(&t, &tm, &tunnels),
                &old,
                &cfg,
                &scenarios,
                &sab,
            )
        }));
        assert!(
            res.is_err(),
            "base-solve panic must propagate to the caller"
        );
    }
}
