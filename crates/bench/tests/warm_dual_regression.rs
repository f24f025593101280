//! Regression guard for the dual-simplex warm-restart path.
//!
//! Re-optimizing S-Net ke=1 fault scenarios as a warm chain from the
//! base optimum's basis (which restarts in dual iterations from the
//! dual-feasible warm basis) must be strictly cheaper — in total
//! simplex iterations — than solving the same scenarios cold. On the
//! 2-scenario chain below that is 6 718 iterations warm against
//! 4 329 + 4 761 = 9 090 cold (2-core host).

use ffc_bench::{snet_instance, Instance};
use ffc_core::{
    build_ffc_model, solve_ffc_scenarios, zero_dead_tunnels, FfcConfig, TeConfig, TeProblem,
};
use ffc_lp::SimplexOptions;
use ffc_net::FaultScenario;

#[derive(Default)]
struct SweepResult {
    iterations: usize,
    dual_iterations: usize,
    throughputs: Vec<f64>,
}

fn problem(inst: &Instance) -> TeProblem<'_> {
    TeProblem::new(&inst.net.topo, &inst.trace.intervals[0], &inst.tunnels)
}

/// The warm chain: [`solve_ffc_scenarios`] re-solves each scenario from
/// the previous optimum's basis.
fn warm_chain(inst: &Instance, scenarios: &[FaultScenario], cfg: &FfcConfig) -> SweepResult {
    let old = TeConfig::zero(&inst.tunnels);
    let outcomes = solve_ffc_scenarios(
        problem(inst),
        &old,
        cfg,
        scenarios,
        &SimplexOptions::default(),
    )
    .expect("scenario sweep solves");
    let mut res = SweepResult::default();
    for o in outcomes {
        let o = o.expect("scenario re-solve succeeds");
        res.iterations += o.stats.iterations();
        res.dual_iterations += o.stats.dual_iterations;
        res.throughputs.push(o.config.throughput());
    }
    res
}

/// Each scenario's model solved on its own, with no hint.
fn cold_solves(inst: &Instance, scenarios: &[FaultScenario], cfg: &FfcConfig) -> SweepResult {
    let old = TeConfig::zero(&inst.tunnels);
    let mut res = SweepResult::default();
    for scenario in scenarios {
        let mut builder = build_ffc_model(problem(inst), &old, cfg);
        zero_dead_tunnels(&mut builder, scenario);
        let (config, sol) = builder
            .solve_with(&SimplexOptions::default(), None)
            .expect("cold scenario solve succeeds");
        res.iterations += sol.stats.iterations();
        res.throughputs.push(config.throughput());
    }
    res
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "S-Net ke=1 sweeps take minutes unoptimized; run with --release"
)]
fn warm_dual_chain_beats_cold_solves_on_snet_ke1() {
    let inst = snet_instance(42, 1);
    let scenarios: Vec<FaultScenario> = inst
        .net
        .topo
        .links()
        .take(2)
        .map(|l| FaultScenario::links([l]))
        .collect();
    let cfg = FfcConfig::new(0, 1, 0);

    let warm = warm_chain(&inst, &scenarios, &cfg);
    let cold = cold_solves(&inst, &scenarios, &cfg);

    // The chain must land on every scenario's own optimum.
    for (i, (c, w)) in cold.throughputs.iter().zip(&warm.throughputs).enumerate() {
        assert!(
            (c - w).abs() <= 1e-5 * c.abs().max(1.0),
            "scenario {i}: cold throughput {c} vs warm {w}"
        );
    }

    // The dual restart must actually engage and must win. The margin is
    // about a quarter (6 718 vs 9 090 iterations); a strict `<` keeps
    // this non-flaky while still catching a routing regression that
    // sends warm re-solves back through a cold start.
    assert!(
        warm.dual_iterations > 0,
        "the warm chain never entered dual iterations"
    );
    assert!(
        warm.iterations < cold.iterations,
        "warm dual chain did not beat cold solves: warm {} vs cold {} iterations",
        warm.iterations,
        cold.iterations
    );
}
