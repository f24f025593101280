//! Reproduction harness: regenerates every table and figure of the
//! paper's evaluation. Each subcommand prints the rows/series the paper
//! reports (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md
//! for recorded paper-vs-measured results).
//!
//! ```text
//! repro <fig1a|fig1b|fig2|fig3|fig6|fig11|fig12|table2|fig13|fig14|fig15|fig16|all>
//!       [--seed N] [--intervals N] [--trials N] [--fast] [--quick] [--incremental]
//! ```
//!
//! `--quick` (or the `quick` subcommand) runs a smoke of a minute or
//! two: one Figure-3 check plus a warm scenario sweep on S-Net, for CI
//! to catch solver regressions without the full harness cost.
//! Adding `--incremental` extends the smoke with a delta-LP check: an
//! S-Net demand-tick workload solved by patching the standing FFC model
//! must match a from-scratch rebuild on every tick.

#![forbid(unsafe_code)]

use std::time::Instant;

use ffc_bench::{
    lnet_full_instance, lnet_instance, lnet_multi_priority, snet_instance, snet_multi_priority,
    Instance,
};
use ffc_core::enumerate::{apply_control_ffc_enumerated, apply_data_ffc_enumerated};
use ffc_core::priority::rates_by_priority;
use ffc_core::rescale::{rescaled_link_loads, stale_link_loads};
use ffc_core::te::TeModelBuilder;
use ffc_core::{
    solve_ffc, solve_ffc_batch, solve_te, solve_te_batch, FfcConfig, FfcJob, PriorityFfcConfig,
    TeConfig, TeProblem,
};
use ffc_lp::SimplexOptions;
use ffc_net::NodeId;
use ffc_sim::events::{ffc_timeline, non_ffc_timeline, TimelineConfig};
use ffc_sim::metrics::{percentile, Cdf};
use ffc_sim::runner::{Protection, SimConfig, Simulator};
use ffc_sim::update_exec::{update_time_samples, UpdateExecConfig};
use ffc_sim::{FaultModel, SwitchModel};
use ffc_topo::{testbed, toy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
struct Args {
    cmd: String,
    seed: u64,
    intervals: usize,
    trials: usize,
    fast: bool,
    full: bool,
    incremental: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        cmd: String::new(),
        seed: 42,
        intervals: 12,
        trials: 200,
        fast: false,
        full: false,
        incremental: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => args.seed = it.next().expect("--seed N").parse().expect("seed"),
            "--intervals" => {
                args.intervals = it
                    .next()
                    .expect("--intervals N")
                    .parse()
                    .expect("intervals")
            }
            "--trials" => args.trials = it.next().expect("--trials N").parse().expect("trials"),
            "--fast" => args.fast = true,
            "--full" => args.full = true,
            "--incremental" => args.incremental = true,
            "--quick" => args.cmd = "quick".into(),
            other if args.cmd.is_empty() => args.cmd = other.to_string(),
            other => panic!("unexpected argument {other}"),
        }
    }
    if args.fast {
        args.intervals = args.intervals.min(6);
        args.trials = args.trials.min(60);
    }
    if args.cmd.is_empty() {
        args.cmd = "all".into();
    }
    args
}

fn main() {
    let args = parse_args();
    let t0 = Instant::now();
    match args.cmd.as_str() {
        "fig1a" => fig1a(&args),
        "fig1b" => fig1b(&args),
        "fig2" => fig2(),
        "fig3" => fig3(),
        "fig6" => fig6(&args),
        "fig11" => fig11(&args),
        "fig12" => fig12(&args),
        "table2" => table2(&args),
        "fig13" => fig13(&args),
        "fig14" => fig14(&args),
        "fig15" => fig15(&args),
        "fig16" => fig16(&args),
        "quick" => quick(&args),
        "all" => {
            fig2();
            fig3();
            fig6(&args);
            fig11(&args);
            fig1a(&args);
            fig1b(&args);
            fig12(&args);
            table2(&args);
            fig13(&args);
            fig14(&args);
            fig15(&args);
            fig16(&args);
        }
        other => {
            eprintln!("unknown subcommand {other}");
            std::process::exit(2);
        }
    }
    eprintln!("[repro] total wall time {:?}", t0.elapsed());
}

fn print_cdf_quantiles(label: &str, samples: &[f64], unit: &str, scale: f64) {
    let qs = [0.25, 0.5, 0.75, 0.9, 0.95, 0.99];
    print!("  {label:<28}");
    for q in qs {
        print!(
            " p{:<2}={:>8.1}{unit}",
            (q * 100.0) as u32,
            percentile(samples, q) * scale
        );
    }
    println!();
}

// ---------------------------------------------------------------- Fig 1(a)

/// Figure 1(a): CDF of max link oversubscription under data-plane
/// faults, non-FFC TE on L-Net, 6 tunnels/flow, 5-min intervals.
fn fig1a(args: &Args) {
    println!("\n=== Figure 1(a): oversubscription under data-plane faults (L-Net, non-FFC) ===");
    let inst = lnet_instance(args.seed, args.intervals);
    let topo = &inst.net.topo;
    let mut rng = StdRng::seed_from_u64(args.seed);
    // One parallel batch of plain-TE solves, shared by all fault cases.
    let n = args.intervals.min(inst.trace.len());
    let problems: Vec<TeProblem> = inst.trace.intervals[..n]
        .iter()
        .map(|tm| TeProblem::new(topo, tm, &inst.tunnels))
        .collect();
    let configs: Vec<TeConfig> = solve_te_batch(&problems, &SimplexOptions::default())
        .into_iter()
        .map(|o| o.expect("TE").config)
        .collect();
    let cases: [(&str, usize, usize); 4] = [
        ("1 link", 1, 0),
        ("2 links", 2, 0),
        ("3 links", 3, 0),
        ("1 switch", 0, 1),
    ];
    for (label, nl, ns) in cases {
        let mut samples = Vec::new();
        for (i, cfg) in configs.iter().enumerate() {
            let tm = &inst.trace.intervals[i];
            for _ in 0..(args.trials / args.intervals).max(3) {
                let mut sc = ffc_net::FaultScenario::none();
                // Random link failures take both directions (physical cut).
                for _ in 0..nl {
                    let l = ffc_net::LinkId(rng.gen_range(0..topo.num_links()));
                    sc.fail_link(l);
                    let link = topo.link(l);
                    if let Some(r) = topo.find_link(link.dst, link.src) {
                        sc.fail_link(r);
                    }
                }
                for _ in 0..ns {
                    sc.fail_switch(NodeId(rng.gen_range(0..topo.num_nodes())));
                }
                let loads = rescaled_link_loads(topo, tm, &inst.tunnels, cfg, &sc);
                samples.push(loads.max_oversubscription_ratio(topo));
            }
        }
        print_cdf_quantiles(label, &samples, "%", 100.0);
    }
    println!("  (paper: with 1 link failure, oversubscription > 20% a quarter of the time)");
}

// ---------------------------------------------------------------- Fig 1(b)

/// Figure 1(b): CDF of oversubscription under control-plane faults.
fn fig1b(args: &Args) {
    println!("\n=== Figure 1(b): oversubscription under control-plane faults (L-Net, non-FFC) ===");
    let inst = lnet_instance(args.seed, args.intervals);
    let topo = &inst.net.topo;
    let mut rng = StdRng::seed_from_u64(args.seed + 1);
    // Successive interval pairs: old = TE(i-1), new = TE(i); stale
    // switches keep old weights while rate limiters move to new rates.
    // All intervals are independent, so solve them as one parallel batch.
    let problems: Vec<TeProblem> = inst
        .trace
        .intervals
        .iter()
        .map(|tm| TeProblem::new(topo, tm, &inst.tunnels))
        .collect();
    let configs: Vec<TeConfig> = solve_te_batch(&problems, &SimplexOptions::default())
        .into_iter()
        .map(|o| o.expect("TE").config)
        .collect();
    let ingresses: Vec<NodeId> = topo.nodes().collect();
    for faults in 1..=3usize {
        let mut samples = Vec::new();
        for i in 1..configs.len() {
            let tm = &inst.trace.intervals[i];
            for _ in 0..(args.trials / args.intervals).max(3) {
                let mut stale = Vec::new();
                while stale.len() < faults {
                    let v = ingresses[rng.gen_range(0..ingresses.len())];
                    if !stale.contains(&v) {
                        stale.push(v);
                    }
                }
                let loads = stale_link_loads(
                    topo,
                    tm,
                    &inst.tunnels,
                    &configs[i],
                    &configs[i - 1],
                    &stale,
                );
                samples.push(loads.max_oversubscription_ratio(topo));
            }
        }
        print_cdf_quantiles(&format!("{faults} fault(s)"), &samples, "%", 100.0);
    }
    println!("  (paper: a single fault gives ~10% oversubscription a tenth of the time)");
}

// ------------------------------------------------------------- Fig 2 / 4

/// Figures 2/4: the data-plane toy example.
fn fig2() {
    println!("\n=== Figures 2 & 4: data-plane fault example ===");
    let s = toy::fig2_scenario();
    let old = s.old.clone().expect("figure has a config");
    let l24 = s.topo.find_link(NodeId(1), NodeId(3)).expect("s2-s4");
    let loads = rescaled_link_loads(
        &s.topo,
        &s.tm,
        &s.tunnels,
        &old,
        &ffc_net::FaultScenario::links([l24]),
    );
    println!(
        "  Fig 2(b): after link s2-s4 fails, link s1-s4 carries {:.1}/10 units",
        loads.load[s.topo.find_link(NodeId(0), NodeId(3)).unwrap().index()]
    );
    let ffc = solve_ffc(
        TeProblem::new(&s.topo, &s.tm, &s.tunnels),
        &TeConfig::zero(&s.tunnels),
        &FfcConfig::new(0, 1, 0).exact(),
    )
    .expect("FFC");
    let worst = ffc_net::failure::link_combinations_up_to(&s.topo.links().collect::<Vec<_>>(), 1)
        .into_iter()
        .map(|sc| {
            rescaled_link_loads(&s.topo, &s.tm, &s.tunnels, &ffc, &sc)
                .max_oversubscription_ratio(&s.topo)
        })
        .fold(0.0, f64::max);
    println!(
        "  Fig 4(a): FFC (k=1) spread: throughput {:.1}, worst oversubscription over all single link failures = {:.4}",
        ffc.throughput(),
        worst
    );
}

// ------------------------------------------------------------- Fig 3 / 5

/// Figures 3/5: the control-plane toy example (10 / 7 / 4 units).
fn fig3() {
    println!("\n=== Figures 3 & 5: control-plane fault example ===");
    let s = toy::fig3_scenario();
    let old = s.old.clone().expect("figure has a config");
    for (kc, fig) in [(0usize, "3(b)"), (1, "5(b)"), (2, "5(a)")] {
        let cfg = solve_ffc(
            TeProblem::new(&s.topo, &s.tm, &s.tunnels),
            &old,
            &FfcConfig::new(kc, 0, 0),
        )
        .expect("FFC");
        println!(
            "  Fig {fig}: kc={kc} -> new flow s1->s4 granted {:.1} units (paper: {})",
            cfg.rate[toy::FIG3_NEW_FLOW.index()],
            [10, 7, 4][kc]
        );
    }
}

// ---------------------------------------------------------------- Fig 6

/// Figure 6: switch update latency model CDFs.
fn fig6(args: &Args) {
    println!("\n=== Figure 6: switch update latency models ===");
    let mut rng = StdRng::seed_from_u64(args.seed + 2);
    let n = 20_000;
    let rpc: Vec<f64> = (0..n)
        .map(|_| SwitchModel::Realistic.sample_rpc(&mut rng))
        .collect();
    let per_rule_real: Vec<f64> = (0..n)
        .map(|_| SwitchModel::Realistic.sample_per_rule(&mut rng))
        .collect();
    let per_rule_opt: Vec<f64> = (0..n)
        .map(|_| SwitchModel::Optimistic.sample_per_rule(&mut rng))
        .collect();
    println!("  Fig 6(a) (B4-like Realistic model):");
    print_cdf_quantiles("RPC delay", &rpc, "s", 1.0);
    print_cdf_quantiles("per-rule update", &per_rule_real, "ms", 1e3);
    println!("  Fig 6(b) (controlled-lab Optimistic model):");
    print_cdf_quantiles("per-rule update", &per_rule_opt, "ms", 1e3);
    println!("  (paper: Optimistic per-rule median 10 ms, worst > 200 ms)");
}

// ---------------------------------------------------------------- Fig 11

/// Figure 11: testbed event timelines after the s6-s7 link failure.
fn fig11(args: &Args) {
    println!("\n=== Figure 11: testbed reaction timelines (link s6-s7 fails) ===");
    let tb = testbed();
    let cfg = TimelineConfig::default();
    println!("Fig 11(a) — FFC:");
    let tl = ffc_timeline(&tb, &cfg);
    print!("{}", tl.render());
    println!(
        "  -> loss stops at {:.1} ms; no controller involvement",
        tl.loss_ends_at() * 1e3
    );

    // Non-FFC: best and bad draws over many samples.
    let mut rng = StdRng::seed_from_u64(args.seed + 3);
    let mut best: Option<ffc_sim::events::Timeline> = None;
    let mut worst: Option<ffc_sim::events::Timeline> = None;
    for _ in 0..args.trials {
        let t = non_ffc_timeline(&tb, &cfg, SwitchModel::Realistic, 10, &mut rng);
        if best
            .as_ref()
            .map(|b| t.loss_ends_at() < b.loss_ends_at())
            .unwrap_or(true)
        {
            best = Some(t.clone());
        }
        if worst
            .as_ref()
            .map(|w| t.loss_ends_at() > w.loss_ends_at())
            .unwrap_or(true)
        {
            worst = Some(t);
        }
    }
    let best = best.expect("trials > 0");
    let worst = worst.expect("trials > 0");
    println!("Fig 11(b) — non-FFC, best case:");
    print!("{}", best.render());
    println!("  -> congestion lasts {:.1} ms", best.loss_ends_at() * 1e3);
    println!("Fig 11(c) — non-FFC, bad case:");
    print!("{}", worst.render());
    println!("  -> congestion lasts {:.1} ms", worst.loss_ends_at() * 1e3);
}

// ---------------------------------------------------------------- Fig 12

/// CI smoke (`repro --quick`): one fast paper check plus the warm
/// scenario sweep the solver work targets — prints the chain's total
/// simplex iterations, dual ones apart, so a dual regression is visible
/// in the job log.
fn quick(args: &Args) {
    fig3();
    println!("\n=== quick: warm scenario sweep, S-Net ke=1, dual restarts ===");
    let inst = snet_instance(args.seed, 1);
    let topo = &inst.net.topo;
    let tm = &inst.trace.intervals[0];
    let problem = TeProblem::new(topo, tm, &inst.tunnels);
    let old = TeConfig::zero(&inst.tunnels);
    let cfg = FfcConfig::new(0, 1, 0);
    // 5 scenarios span several warm re-solves per worker chunk.
    let scenarios: Vec<ffc_net::FaultScenario> = topo
        .links()
        .take(5)
        .map(|l| ffc_net::FaultScenario::links([l]))
        .collect();
    let t = Instant::now();
    let outcomes =
        ffc_core::solve_ffc_scenarios(problem, &old, &cfg, &scenarios, &SimplexOptions::default())
            .expect("base FFC solve");
    let (mut iters, mut dual, mut flips) = (0usize, 0usize, 0usize);
    for o in &outcomes {
        let o = o.as_ref().expect("scenario solve");
        iters += o.stats.iterations();
        dual += o.stats.dual_iterations;
        flips += o.stats.dual_bound_flips;
    }
    println!(
        "  warm chain: {} re-solves, {iters} simplex iterations ({dual} dual, {flips} dual flips), {:.2?}",
        outcomes.len(),
        t.elapsed()
    );
    if args.incremental {
        quick_incremental(args);
    }
}

/// `--quick --incremental`: the delta-LP smoke. An S-Net demand-tick
/// workload is solved twice — patching the standing FFC model in place,
/// and rebuilding it from scratch each tick — and the objectives must
/// agree on every tick. Run in release this exercises the production
/// patch path; under `cargo test` the same invariant is checked
/// coefficient-for-coefficient by the debug differential oracle.
fn quick_incremental(args: &Args) {
    use ffc_core::{build_ffc_model, mice_flags, FfcModelCache};

    println!("\n=== quick: incremental patch vs full rebuild, S-Net ke=1 demand ticks ===");
    let inst = snet_instance(args.seed, 1);
    let topo = &inst.net.topo;
    let tm0 = &inst.trace.intervals[0];
    let tms: Vec<_> = [1.0, 1.03, 0.96, 1.02, 0.99]
        .iter()
        .map(|&f| tm0.scale(f))
        .collect();
    let old = TeConfig::zero(&inst.tunnels);
    let cfg = FfcConfig::new(0, 1, 0);
    let opts = SimplexOptions::default();

    let first = TeProblem::new(topo, &tms[0], &inst.tunnels);
    // One-shot style: the greedy mice set of each tick's own demands,
    // which uniform scaling never reorders.
    let mice = |tm| mice_flags(tm, cfg.mice_fraction);
    let mut cache = FfcModelCache::new(first, &old, &cfg, &mice(&tms[0]), None);
    let (_, base) = cache.solve_with(&opts, None).expect("base FFC (standing)");
    let mut basis = base.basis;
    let (mut patch_ms, mut full_ms) = (0.0f64, 0.0f64);
    for (i, tm) in tms[1..].iter().enumerate() {
        let t0 = Instant::now();
        let problem = TeProblem::new(topo, tm, &inst.tunnels);
        let outcome = cache.retarget(problem, &old, &cfg, &mice(tm), None);
        let (got, sol) = cache
            .solve_with(&opts, Some(&basis))
            .expect("patched warm solve");
        patch_ms += t0.elapsed().as_secs_f64() * 1e3;
        assert!(
            outcome.is_patch(),
            "tick {i}: demand tick must patch, got {outcome:?}"
        );

        let t0 = Instant::now();
        let builder = build_ffc_model(TeProblem::new(topo, tm, &inst.tunnels), &old, &cfg);
        let (fresh, _) = builder
            .solve_with(&opts, Some(&basis))
            .expect("rebuilt warm solve");
        full_ms += t0.elapsed().as_secs_f64() * 1e3;
        let want = fresh.throughput();
        assert!(
            (got.throughput() - want).abs() < 1e-6,
            "tick {i}: patched {} vs rebuilt {want}",
            got.throughput()
        );
        basis = sol.basis;
    }
    let stats = cache.stats();
    println!(
        "  {} ticks: {} patches / {} rebuild(s); patch+warm {patch_ms:.1} ms vs \
         rebuild+warm {full_ms:.1} ms total; objectives agree on every tick",
        tms.len() - 1,
        stats.patches,
        stats.rebuilds,
    );
}

/// Figure 12: throughput overhead of control- and data-plane FFC.
fn fig12(args: &Args) {
    println!("\n=== Figure 12: FFC throughput overhead (1 - ratio, %) ===");
    for inst in [
        lnet_instance(args.seed, args.intervals),
        snet_instance(args.seed, args.intervals),
    ] {
        let topo = &inst.net.topo;
        println!("--- {} ---", inst.name);
        for scale in [0.5, 1.0, 2.0] {
            let trace = inst.trace_at(scale);
            let opts = SimplexOptions::default();
            let problems: Vec<TeProblem> = trace
                .intervals
                .iter()
                .map(|tm| TeProblem::new(topo, tm, &inst.tunnels))
                .collect();
            // Plain TE per interval gives both the baseline and the old
            // configs for control FFC — one parallel batch.
            let plain: Vec<TeConfig> = solve_te_batch(&problems, &opts)
                .into_iter()
                .map(|o| o.expect("TE").config)
                .collect();
            // Control-plane FFC overheads (Fig 12 a/b): the whole
            // (kc, interval) grid fans out as a single batch.
            let zero = TeConfig::zero(&inst.tunnels);
            let mut jobs = Vec::new();
            for kc in 1..=3usize {
                for i in 1..trace.intervals.len() {
                    jobs.push(FfcJob {
                        problem: problems[i],
                        old: &plain[i - 1],
                        cfg: FfcConfig::new(kc, 0, 0),
                    });
                }
            }
            // Data-plane FFC overheads (Fig 12 c/d). (1,3)-disjoint
            // tunnels make ke=3 also cover kv=1 (§4.4.1).
            let data_cases = [
                ("ke=1", 1usize, 0usize),
                ("ke=2", 2, 0),
                ("ke=3", 3, 0),
                ("kv=1", 0, 1),
            ];
            for (_, ke, kv) in data_cases {
                for &problem in &problems {
                    jobs.push(FfcJob {
                        problem,
                        old: &zero,
                        cfg: FfcConfig::new(0, ke, kv),
                    });
                }
            }
            let mut outcomes = solve_ffc_batch(&jobs, &opts).into_iter();
            let per_interval = trace.intervals.len() - 1;
            for kc in 1..=3usize {
                let overheads: Vec<f64> = (1..=per_interval)
                    .map(|i| {
                        let ffc = outcomes.next().unwrap().expect("control FFC").config;
                        (1.0 - ffc.throughput() / plain[i].throughput().max(1e-9)) * 100.0
                    })
                    .collect();
                println!(
                    "  scale={scale:<4} control kc={kc}: p50={:>5.2}%  p90={:>5.2}%  p99={:>5.2}%",
                    percentile(&overheads, 0.5),
                    percentile(&overheads, 0.9),
                    percentile(&overheads, 0.99)
                );
            }
            for (label, _, _) in data_cases {
                let overheads: Vec<f64> = (0..trace.intervals.len())
                    .map(|i| {
                        let ffc = outcomes.next().unwrap().expect("data FFC").config;
                        (1.0 - ffc.throughput() / plain[i].throughput().max(1e-9)) * 100.0
                    })
                    .collect();
                println!(
                    "  scale={scale:<4} data {label}: p50={:>5.2}%  p90={:>5.2}%  p99={:>5.2}%",
                    percentile(&overheads, 0.5),
                    percentile(&overheads, 0.9),
                    percentile(&overheads, 0.99)
                );
            }
        }
    }
}

// ---------------------------------------------------------------- Table 2

/// Table 2: TE computation time.
fn table2(args: &Args) {
    println!("\n=== Table 2: TE computation time ===");
    let mut instances = vec![lnet_instance(args.seed, 2), snet_instance(args.seed, 2)];
    if args.full {
        // Paper-scale L-Net: a large LP; expect minutes per solve with
        // the from-scratch simplex.
        instances.push(lnet_full_instance(args.seed, 2));
    }
    for inst in &instances {
        let topo = &inst.net.topo;
        let tm = &inst.trace.intervals[1];
        let old = solve_te(TeProblem::new(
            topo,
            &inst.trace.intervals[0],
            &inst.tunnels,
        ))
        .expect("old TE");

        let time = |f: &dyn Fn()| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        };
        let t_plain = time(&|| {
            let _ = solve_te(TeProblem::new(topo, tm, &inst.tunnels)).expect("TE");
        });
        let t_210 = time(&|| {
            let _ = solve_ffc(
                TeProblem::new(topo, tm, &inst.tunnels),
                &old,
                &FfcConfig::new(2, 1, 0),
            )
            .expect("FFC(2,1,0)");
        });
        let t_330 = time(&|| {
            let _ = solve_ffc(
                TeProblem::new(topo, tm, &inst.tunnels),
                &old,
                &FfcConfig::new(3, 3, 0),
            )
            .expect("FFC(3,3,0)");
        });
        println!(
            "  {:<12} FFC(3,3,0)u(3,0,1): {:>7.2}s   FFC(2,1,0): {:>7.2}s   non-FFC: {:>7.3}s",
            inst.name, t_330, t_210, t_plain
        );
    }
    // The enumeration strawman, on a deliberately tiny instance, with
    // the combinatorial count for the real one (the paper reports >12 h).
    let inst = snet_instance(args.seed, 2);
    let topo = &inst.net.topo;
    let tm = &inst.trace.intervals[1];
    let old = solve_te(TeProblem::new(
        topo,
        &inst.trace.intervals[0],
        &inst.tunnels,
    ))
    .unwrap();
    let t0 = Instant::now();
    {
        let mut b = TeModelBuilder::new(TeProblem::new(topo, tm, &inst.tunnels));
        apply_control_ffc_enumerated(&mut b, 1, &old);
        apply_data_ffc_enumerated(&mut b, 1, 0);
        let _ = b.solve().expect("enumerated FFC");
    }
    println!(
        "  S-Net enumerated FFC(1,1,0): {:>7.2}s  (combination count grows as C(n,k); kc=3 on 100 switches is ~1.6e5 cases/link, matching the paper's >12 h)",
        t0.elapsed().as_secs_f64()
    );
}

// ---------------------------------------------------------------- Fig 13

/// Figure 13: end-to-end throughput and data-loss ratios, single
/// priority, FFC (2,1,0) vs non-FFC.
fn fig13(args: &Args) {
    println!("\n=== Figure 13: single-priority throughput & data-loss ratios (FFC/non-FFC, %) ===");
    for inst in [
        lnet_instance(args.seed, args.intervals),
        snet_instance(args.seed, args.intervals),
    ] {
        for model in [SwitchModel::Realistic, SwitchModel::Optimistic] {
            for scale in [0.5, 1.0, 2.0] {
                let trace = inst.trace_at(scale);
                let run = |prot: Protection| {
                    let mut cfg = SimConfig::new(model, prot);
                    cfg.seed = args.seed;
                    cfg.fault_model = FaultModel::default();
                    let mut sim = Simulator::new(&inst.net.topo, &inst.tunnels, cfg);
                    sim.run(&trace.intervals)
                };
                let base = run(Protection::None);
                let ffc = run(Protection::Single(FfcConfig::recommended()));
                println!(
                    "  {:<6} {:<10} scale={:<4} throughput={:>6.1}%  data-loss={:>8.2}%  (lost: ffc={:.3} vs base={:.3} Gb)",
                    inst.name,
                    format!("{model:?}"),
                    scale,
                    ffc.totals.throughput_ratio(&base.totals) * 100.0,
                    ffc.totals.loss_ratio(&base.totals) * 100.0,
                    ffc.totals.total_lost(),
                    base.totals.total_lost(),
                );
            }
        }
    }
    println!("  (paper: well-provisioned 0.5x -> loss ratio 5-10% [10-20x reduction];");
    println!("   well-utilized 1x -> throughput >90%, loss ratio 0.72-11.5%)");
}

// ---------------------------------------------------------------- Fig 14

/// Figure 14: multi-priority throughput/loss ratios and loss fractions.
#[allow(clippy::needless_range_loop)] // fixed-size priority arrays
fn fig14(args: &Args) {
    println!("\n=== Figure 14: multi-priority traffic (scale 1, Realistic) ===");
    let insts = [
        lnet_multi_priority(args.seed, args.intervals),
        snet_multi_priority(args.seed, args.intervals),
    ];
    for inst in insts {
        let trace = inst.trace_at(1.0);
        let run = |prot: Protection| {
            let mut cfg = SimConfig::new(SwitchModel::Realistic, prot);
            cfg.seed = args.seed;
            let mut sim = Simulator::new(&inst.net.topo, &inst.tunnels, cfg);
            sim.run(&trace.intervals)
        };
        let base = run(Protection::None);
        let pffc = PriorityFfcConfig::paper_defaults();
        let ffc = run(Protection::Multi(pffc));
        println!("--- {} ---", inst.name);
        let labels = ["high", "med", "low"];
        for p in 0..3 {
            println!(
                "  {:<5} throughput={:>6.1}%  data-loss={:>8.2}%",
                labels[p],
                ffc_sim::metrics::ratio(ffc.totals.delivered[p], base.totals.delivered[p]) * 100.0,
                ffc_sim::metrics::ratio(ffc.totals.lost_of(p), base.totals.lost_of(p)) * 100.0,
            );
        }
        println!(
            "  total throughput={:>6.1}%  data-loss={:>8.2}%",
            ffc.totals.throughput_ratio(&base.totals) * 100.0,
            ffc.totals.loss_ratio(&base.totals) * 100.0
        );
        // Fig 14(c): fraction of lost bytes per priority.
        for (name, r) in [("FFC", &ffc), ("non-FFC", &base)] {
            let tot = r.totals.total_lost().max(1e-12);
            println!(
                "  loss fractions [{name}]: high={:.3} med={:.3} low={:.3}",
                r.totals.lost_of(0) / tot,
                r.totals.lost_of(1) / tot,
                r.totals.lost_of(2) / tot
            );
        }
    }
    println!("  (paper: high-priority loss ~0 with FFC; total throughput ~100%)");
}

// ---------------------------------------------------------------- Fig 15

/// Figure 15: data-loss vs throughput trade-off as ke sweeps.
fn fig15(args: &Args) {
    println!("\n=== Figure 15: loss/throughput trade-off (link protection sweep, Realistic) ===");
    let inst = lnet_instance(args.seed, args.intervals);
    for scale in [0.5, 1.0, 2.0] {
        let trace = inst.trace_at(scale);
        let run = |prot: Protection| {
            let mut cfg = SimConfig::new(SwitchModel::Realistic, prot);
            cfg.seed = args.seed;
            let mut sim = Simulator::new(&inst.net.topo, &inst.tunnels, cfg);
            sim.run(&trace.intervals)
        };
        let base = run(Protection::None);
        print!(
            "  scale={scale:<4} (base lost {:.3} Gb)",
            base.totals.total_lost()
        );
        for ke in 0..=4usize {
            let r = if ke == 0 {
                (100.0, 100.0)
            } else {
                let ffc = run(Protection::Single(FfcConfig::new(0, ke, 0)));
                (
                    ffc.totals.throughput_ratio(&base.totals) * 100.0,
                    ffc.totals.loss_ratio(&base.totals) * 100.0,
                )
            };
            if r.1.is_finite() && r.1 < 1e6 {
                print!("  ke={ke}:({:.1}%,{:.2}%)", r.0, r.1);
            } else {
                print!("  ke={ke}:({:.1}%,n/a*)", r.0);
            }
        }
        println!();
    }
    println!("  (x = throughput ratio, y = data-loss ratio; paper: loss falls ~exponentially, throughput ~linearly;");
    println!("   * = the non-FFC baseline lost ~nothing at this scale, so the ratio is undefined)");
}

// ---------------------------------------------------------------- Fig 16

/// Figure 16: congestion-free multi-step update completion time.
fn fig16(args: &Args) {
    println!("\n=== Figure 16: congestion-free update completion time (s) ===");
    for model in [SwitchModel::Realistic, SwitchModel::Optimistic] {
        println!("--- {model:?} ---");
        for (label, kc) in [("non-FFC", 0usize), ("FFC kc=2", 2)] {
            let mut rng = StdRng::seed_from_u64(args.seed + 4);
            let cfg = UpdateExecConfig {
                kc,
                ..UpdateExecConfig::default()
            };
            let samples = update_time_samples(&mut rng, model, &cfg, args.trials.max(100));
            let cdf = Cdf::new(samples.clone());
            let stalled = samples.iter().filter(|&&t| t >= cfg.cap_secs).count() as f64
                / samples.len() as f64;
            print_cdf_quantiles(label, &samples, "s", 1.0);
            println!(
                "    median={:.2}s  stalled(>={:.0}s)={:.1}%",
                cdf.quantile(0.5),
                cfg.cap_secs,
                stalled * 100.0
            );
        }
    }
    println!(
        "  (paper: Realistic non-FFC ~40% unfinished at 300 s; Optimistic ~3x median speedup)"
    );
}

// Keep rates_by_priority linked for the priority sanity print used when
// debugging fig14 (public API exercised by the harness).
#[allow(dead_code)]
fn debug_priority_rates(inst: &Instance, cfg: &TeConfig) -> [f64; 3] {
    rates_by_priority(&inst.trace.intervals[0], cfg)
}
