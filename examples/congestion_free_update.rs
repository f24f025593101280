//! Congestion-free multi-step updates (§5.2 / §8.5): plan a transition
//! between two TE configurations so every intermediate mix of switch
//! states stays within capacity, then simulate execution with slow and
//! failing switches — with and without FFC's kc-tolerance.
//!
//! ```text
//! cargo run --release -p ffc-examples --bin congestion_free_update
//! ```

use ffc_core::update::{max_transition_violation, plan_update, UpdateConfig, UpdatePlan};
use ffc_core::TeConfig;
use ffc_net::prelude::*;
use ffc_sim::update_exec::{update_time_samples, UpdateExecConfig};
use ffc_sim::{percentile, SwitchModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // Two parallel 10 Gbps paths carrying 16 Gbps; swap the flow's
    // placement from (10, 6) to (6, 10).
    let mut topo = Topology::new();
    let n = topo.add_nodes(4, "s");
    topo.add_link(n[0], n[1], 10.0);
    topo.add_link(n[1], n[3], 10.0);
    topo.add_link(n[0], n[2], 10.0);
    topo.add_link(n[2], n[3], 10.0);
    let mut tm = TrafficMatrix::new();
    tm.add_flow(n[0], n[3], 16.0, Priority::High);
    let mk = |hops: &[NodeId]| {
        let links = hops
            .windows(2)
            .map(|w| topo.find_link(w[0], w[1]).unwrap())
            .collect();
        Tunnel::from_path(&topo, ffc_net::Path { links })
    };
    let mut tunnels = TunnelTable::new(1);
    tunnels.push(FlowId(0), mk(&[n[0], n[1], n[3]]));
    tunnels.push(FlowId(0), mk(&[n[0], n[2], n[3]]));
    let from = TeConfig {
        rate: vec![16.0],
        alloc: vec![vec![10.0, 6.0]],
    };
    let to = TeConfig {
        rate: vec![16.0],
        alloc: vec![vec![6.0, 10.0]],
    };

    for steps in [1usize, 2, 3] {
        match plan_update(
            &topo,
            &tm,
            &tunnels,
            &from,
            &to,
            &UpdateConfig::plain(steps),
        ) {
            Ok(plan) => {
                let viol = max_transition_violation(&topo, &tunnels, &from, &plan);
                println!(
                    "plain plan, {steps} step(s), {}: worst transition overload = {viol:.3} Gbps {}",
                    source(&plan),
                    if viol <= 1e-9 {
                        "(congestion-free)"
                    } else {
                        ""
                    }
                );
                for (i, s) in plan.steps.iter().enumerate() {
                    println!("   step {}: alloc = {:?}", i + 1, s.alloc[0]);
                }
            }
            Err(e) => println!("plain plan, {steps} step(s): {e}"),
        }
    }

    // FFC plan: also safe if up to one switch gets stuck at ANY earlier
    // step (§5.2).
    let plan =
        plan_update(&topo, &tm, &tunnels, &from, &to, &UpdateConfig::ffc(3, 1)).expect("FFC plan");
    println!(
        "\nFFC plan (kc=1, 3 steps, {}): every config in the chain fits alone:",
        source(&plan)
    );
    for (i, s) in plan.steps.iter().enumerate() {
        println!("   step {}: alloc = {:?}", i + 1, s.alloc[0]);
    }

    // Execution: how long do multi-step updates take at fleet scale?
    println!("\nexecution over 50 switches, 3 steps (Realistic model, 1% failures):");
    for (label, kc) in [("non-FFC", 0usize), ("FFC kc=2", 2)] {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = UpdateExecConfig {
            kc,
            ..UpdateExecConfig::default()
        };
        let samples = update_time_samples(&mut rng, SwitchModel::Realistic, &cfg, 400);
        let stalled =
            samples.iter().filter(|&&t| t >= cfg.cap_secs).count() as f64 / samples.len() as f64;
        println!(
            "  {label:<9} median {:>6.1}s   p90 {:>6.1}s   unfinished at 300 s: {:>4.1}%",
            percentile(&samples, 0.5),
            percentile(&samples, 0.9),
            stalled * 100.0
        );
    }
}

/// How the planner found `plan`: a one-step plan and a chain built from
/// the endpoints' common floor need no LP.
fn source(plan: &UpdatePlan) -> &'static str {
    if plan.stats.direct_chains > 0 {
        "closed form"
    } else if plan.stats.lp_solves > 0 {
        "chain LP"
    } else {
        "one step"
    }
}
