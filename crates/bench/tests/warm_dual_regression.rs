//! Regression guard for the dual-simplex warm-restart path.
//!
//! Re-optimizing S-Net ke=1 fault scenarios from the base optimum's
//! basis must be strictly cheaper — in total simplex iterations — with
//! `Algorithm::Auto` (which restarts in dual iterations from the
//! dual-feasible warm basis) than with the warm primal path. On the
//! 5-scenario release sweep (1-core host) that is 38 122 vs 44 879
//! iterations; this test pins the ordering with a short 2-scenario
//! chain so it stays affordable.

use ffc_bench::{snet_instance, Instance};
use ffc_core::{solve_ffc_scenarios, FfcConfig, TeConfig, TeProblem};
use ffc_lp::{Algorithm, SimplexOptions};
use ffc_net::FaultScenario;

struct SweepResult {
    iterations: usize,
    dual_iterations: usize,
    throughputs: Vec<f64>,
}

fn sweep(inst: &Instance, scenarios: &[FaultScenario], algorithm: Algorithm) -> SweepResult {
    let tm = &inst.trace.intervals[0];
    let old = TeConfig::zero(&inst.tunnels);
    let cfg = FfcConfig::new(0, 1, 0);
    let opts = SimplexOptions {
        algorithm,
        ..SimplexOptions::default()
    };
    let outcomes = solve_ffc_scenarios(
        TeProblem::new(&inst.net.topo, tm, &inst.tunnels),
        &old,
        &cfg,
        scenarios,
        &opts,
    )
    .expect("scenario sweep solves");
    let mut res = SweepResult {
        iterations: 0,
        dual_iterations: 0,
        throughputs: Vec::new(),
    };
    for o in outcomes {
        let o = o.expect("scenario re-solve succeeds");
        res.iterations += o.stats.iterations();
        res.dual_iterations += o.stats.dual_iterations;
        res.throughputs.push(o.config.throughput());
    }
    res
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "S-Net ke=1 sweeps take minutes unoptimized; run with --release"
)]
fn warm_dual_restart_beats_primal_on_snet_ke1() {
    let inst = snet_instance(42, 1);
    let scenarios: Vec<FaultScenario> = inst
        .net
        .topo
        .links()
        .take(2)
        .map(|l| FaultScenario::links([l]))
        .collect();

    let primal = sweep(&inst, &scenarios, Algorithm::Primal);
    let auto = sweep(&inst, &scenarios, Algorithm::Auto);

    // Both algorithms must agree on every re-optimized optimum.
    for (i, (p, a)) in primal.throughputs.iter().zip(&auto.throughputs).enumerate() {
        assert!(
            (p - a).abs() <= 1e-5 * p.abs().max(1.0),
            "scenario {i}: primal throughput {p} vs auto {a}"
        );
    }

    // The dual restart must actually engage and must win. The margin on
    // the 5-scenario release sweep is ~15% (44 879 vs 38 122
    // iterations, 1-core host); a strict `<` keeps this
    // non-flaky while still catching a routing regression that sends
    // warm re-solves back through the primal path.
    assert_eq!(primal.dual_iterations, 0, "primal sweep ran dual pivots");
    assert!(
        auto.dual_iterations > 0,
        "auto sweep never entered dual iterations"
    );
    assert!(
        auto.iterations < primal.iterations,
        "warm dual restart did not beat primal: auto {} vs primal {} iterations",
        auto.iterations,
        primal.iterations
    );
}
