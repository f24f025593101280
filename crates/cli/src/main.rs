//! `ffc` — forward-fault-corrected traffic engineering from the command
//! line.
//!
//! ```text
//! ffc solve --topo net.topo --traffic day.tm [--kc 2 --ke 1 --kv 0]
//!           [--old current.cfg] [--tunnels 6] [--out next.cfg]
//! ffc check --topo net.topo --traffic day.tm --config next.cfg --ke 1 [--kv 1]
//!           [--kc 1 --old current.cfg]
//! ffc info  --topo net.topo [--traffic day.tm]
//! ffc ctrl run --topo net.topo --traffic day.tm [--intervals 6] [--seed 42]
//!              [--jitter 0.05] [--switch-model realistic|optimistic]
//!              [--no-incremental] [--out run.trace] [--store DIR]
//! ffc ctrl replay run.trace
//! ffc chaos [--seed 1] [--campaigns 25] [--out-dir traces/]
//!           [--store DIR] [--shape-demand]
//! ffc chaos replay traces/campaign-3-overload.trace --expect-violation
//! ffc fleet run --spec week.fleet.toml --out store/
//! ffc report --store store/ [--top 10] [--html report.html]
//!            [--no-timing] [--fingerprint]
//! ffc audit lint [DIR]
//! ffc audit model [--topo net.topo --traffic day.tm] [--kc 1 --ke 1 --kv 0]
//! ```
//!
//! * `solve` computes an FFC-protected TE configuration (plain TE when
//!   all protection levels are 0) and prints/writes it.
//! * `check` *verifies* a configuration with the independent certifier
//!   the controller gates rollouts on ([`ffc_audit::certify()`]), run
//!   exhaustively: every joint ≤ke link × ≤kv switch failure (after
//!   proportional rescaling) and every ≤kc stale-switch combination
//!   must leave all live links within capacity.
//! * `info` prints topology/traffic statistics.
//! * `ctrl run` drives the online controller live over a Poisson
//!   fault/demand event stream, prints per-interval JSONL telemetry to
//!   stdout, and (with `--out`) writes a self-contained replayable trace.
//!   Incremental re-solves (patching the standing FFC model between
//!   intervals instead of rebuilding it) are on by default;
//!   `--no-incremental` rebuilds every interval. Either way the
//!   telemetry fingerprint is identical, so the flag is not recorded in
//!   traces and replays accept either setting.
//! * `ctrl replay` re-runs a recorded trace deterministically — the
//!   telemetry it prints is bit-identical to the live run's.
//! * `chaos` runs the seeded fault-injection harness (defaults to the
//!   built-in S-Net instance) and fails on any invariant violation;
//!   `chaos replay` re-checks a single emitted trace, with
//!   `--expect-violation` asserting the over-`k` overload detector
//!   fires on it. `--shape-demand` fuzzes demand with the fleet's
//!   reusable shapes; `--store DIR` reads per-link utilization from a
//!   telemetry store and aims fault storms at the hottest links.
//! * `fleet run` compiles a [`ffc_fleet::FleetSpec`] campaign file
//!   (site populations, diurnal/weekly cycles, flash crowds, faults)
//!   into an event stream, drives the controller over it, and seals a
//!   crash-recoverable telemetry store in `--out`. Deterministic: the
//!   same spec yields a bit-identical store fingerprint.
//! * `report` summarizes a telemetry store — top-N hottest links with
//!   utilization percentiles, protection-degradation episodes,
//!   certificate rejections and rollbacks, solver-time distributions —
//!   as text or (`--html`) a standalone HTML page.
//! * `audit lint` runs the workspace source linter (exit 1 on any
//!   violation); `audit model` statically audits the built FFC model
//!   for a workload (built-in S-Net by default) before any solve.
//!
//! File formats are documented in [`ffc_cli::formats`].

#![forbid(unsafe_code)]

use std::process::ExitCode;

use ffc_core::{build_ffc_model, FfcConfig, TeConfig, TeProblem};
use ffc_lp::{Algorithm, SimplexOptions};
use ffc_net::{layout_tunnels, LayoutConfig};

use ffc_cli::formats::{parse_config, parse_topology, parse_traffic, write_config};

struct Opts {
    cmd: String,
    /// Positional arguments after the command (`ctrl` takes a
    /// subcommand and `ctrl replay` a trace path).
    args: Vec<String>,
    topo: Option<String>,
    traffic: Option<String>,
    config: Option<String>,
    old: Option<String>,
    out: Option<String>,
    kc: usize,
    ke: usize,
    kv: usize,
    tunnels: usize,
    intervals: usize,
    seed: u64,
    campaigns: usize,
    out_dir: Option<String>,
    expect_violation: bool,
    jitter: f64,
    incremental: bool,
    switch_model: ffc_sim::SwitchModel,
    algorithm: Algorithm,
    verbose: bool,
    spec: Option<String>,
    store: Option<String>,
    top: usize,
    html: Option<String>,
    no_timing: bool,
    fingerprint: bool,
    shape_demand: bool,
    ckpt_dir: Option<String>,
    supervise: bool,
    max_restarts: usize,
    json: bool,
    baseline: Option<String>,
    write_baseline: Option<String>,
    check: bool,
    rewrite_all: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: ffc <solve|check|info> --topo FILE [--traffic FILE] [--config FILE]\n\
         \x20          [--old FILE] [--out FILE] [--kc N] [--ke N] [--kv N] [--tunnels N]\n\
         \x20          [--algorithm primal|dual|auto] [--verbose]\n\
         \x20      ffc ctrl run --topo FILE --traffic FILE [--intervals N] [--seed N]\n\
         \x20          [--jitter F] [--switch-model realistic|optimistic]\n\
         \x20          [--no-incremental] [--out TRACE] [--store DIR]\n\
         \x20          [--ckpt-dir DIR [--supervise] [--max-restarts N]]\n\
         \x20      ffc ctrl resume --ckpt-dir DIR\n\
         \x20      ffc ctrl replay TRACE\n\
         \x20      ffc chaos [--topo FILE --traffic FILE] [--seed N] [--campaigns N]\n\
         \x20          [--intervals N] [--kc N --ke N --kv N] [--tunnels N] [--out-dir DIR]\n\
         \x20          [--store DIR] [--shape-demand]\n\
         \x20      ffc chaos crash [--seed N] [--campaigns N] [--intervals N]\n\
         \x20      ffc chaos replay TRACE [--expect-violation]\n\
         \x20      ffc fleet run --spec FILE --out DIR\n\
         \x20      ffc report --store DIR [--top N] [--html FILE] [--no-timing]\n\
         \x20          [--fingerprint]\n\
         \x20      ffc audit lint [DIR]\n\
         \x20      ffc audit analyze [DIR] [--json] [--baseline FILE]\n\
         \x20          [--write-baseline FILE]\n\
         \x20      ffc audit fix [DIR] [--check] [--rewrite-all]\n\
         \x20      ffc audit model [--topo FILE --traffic FILE] [--kc N --ke N --kv N]\n\
         \x20          [--tunnels N]"
    );
    std::process::exit(2)
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        cmd: String::new(),
        args: Vec::new(),
        topo: None,
        traffic: None,
        config: None,
        old: None,
        out: None,
        kc: 0,
        ke: 0,
        kv: 0,
        tunnels: 6,
        intervals: 6,
        seed: 42,
        campaigns: 25,
        out_dir: None,
        expect_violation: false,
        jitter: 0.05,
        incremental: true,
        switch_model: ffc_sim::SwitchModel::Realistic,
        algorithm: Algorithm::default(),
        verbose: false,
        spec: None,
        store: None,
        top: 10,
        html: None,
        no_timing: false,
        fingerprint: false,
        shape_demand: false,
        ckpt_dir: None,
        supervise: false,
        max_restarts: 3,
        json: false,
        baseline: None,
        write_baseline: None,
        check: false,
        rewrite_all: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match a.as_str() {
            "--topo" => o.topo = Some(val("--topo")),
            "--traffic" => o.traffic = Some(val("--traffic")),
            "--config" => o.config = Some(val("--config")),
            "--old" => o.old = Some(val("--old")),
            "--out" => o.out = Some(val("--out")),
            "--kc" => o.kc = val("--kc").parse().unwrap_or_else(|_| usage()),
            "--ke" => o.ke = val("--ke").parse().unwrap_or_else(|_| usage()),
            "--kv" => o.kv = val("--kv").parse().unwrap_or_else(|_| usage()),
            "--tunnels" => o.tunnels = val("--tunnels").parse().unwrap_or_else(|_| usage()),
            "--intervals" => o.intervals = val("--intervals").parse().unwrap_or_else(|_| usage()),
            "--seed" => o.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--campaigns" => o.campaigns = val("--campaigns").parse().unwrap_or_else(|_| usage()),
            "--out-dir" => o.out_dir = Some(val("--out-dir")),
            "--expect-violation" => o.expect_violation = true,
            "--spec" => o.spec = Some(val("--spec")),
            "--store" => o.store = Some(val("--store")),
            "--top" => o.top = val("--top").parse().unwrap_or_else(|_| usage()),
            "--html" => o.html = Some(val("--html")),
            "--no-timing" => o.no_timing = true,
            "--fingerprint" => o.fingerprint = true,
            "--shape-demand" => o.shape_demand = true,
            "--ckpt-dir" => o.ckpt_dir = Some(val("--ckpt-dir")),
            "--supervise" => o.supervise = true,
            "--max-restarts" => {
                o.max_restarts = val("--max-restarts").parse().unwrap_or_else(|_| usage())
            }
            "--jitter" => o.jitter = val("--jitter").parse().unwrap_or_else(|_| usage()),
            "--json" => o.json = true,
            "--baseline" => o.baseline = Some(val("--baseline")),
            "--write-baseline" => o.write_baseline = Some(val("--write-baseline")),
            "--check" => o.check = true,
            "--rewrite-all" => o.rewrite_all = true,
            "--incremental" => o.incremental = true,
            "--no-incremental" => o.incremental = false,
            "--switch-model" => {
                o.switch_model = match val("--switch-model").as_str() {
                    "realistic" => ffc_sim::SwitchModel::Realistic,
                    "optimistic" => ffc_sim::SwitchModel::Optimistic,
                    other => {
                        eprintln!("unknown switch model '{other}' (realistic or optimistic)");
                        usage()
                    }
                }
            }
            "--algorithm" => {
                o.algorithm = match val("--algorithm").as_str() {
                    "primal" => Algorithm::Primal,
                    "dual" => Algorithm::Dual,
                    "auto" => Algorithm::Auto,
                    other => {
                        eprintln!("unknown algorithm '{other}' (primal, dual, or auto)");
                        usage()
                    }
                }
            }
            "-v" | "--verbose" => o.verbose = true,
            "-h" | "--help" => usage(),
            other if o.cmd.is_empty() => o.cmd = other.to_string(),
            other
                if (o.cmd == "ctrl"
                    || o.cmd == "chaos"
                    || o.cmd == "audit"
                    || o.cmd == "fleet")
                    && o.args.len() < 2 =>
            {
                o.args.push(other.to_string())
            }
            other => {
                eprintln!("unexpected argument '{other}'");
                usage()
            }
        }
    }
    if o.cmd.is_empty() {
        usage()
    }
    o
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1)
    })
}

fn main() -> ExitCode {
    let o = parse_opts();
    if o.cmd == "ctrl" {
        return run_ctrl(&o);
    }
    if o.cmd == "chaos" {
        return run_chaos_cmd(&o);
    }
    if o.cmd == "audit" {
        return run_audit(&o);
    }
    if o.cmd == "fleet" {
        return run_fleet_cmd(&o);
    }
    if o.cmd == "report" {
        return run_report_cmd(&o);
    }
    let topo_path = o.topo.clone().unwrap_or_else(|| {
        eprintln!("--topo is required");
        usage()
    });
    let topo = match parse_topology(&read(&topo_path)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{topo_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    match o.cmd.as_str() {
        "info" => {
            println!(
                "topology: {} switches, {} directed links, total capacity {:.1}",
                topo.num_nodes(),
                topo.num_links(),
                topo.total_capacity()
            );
            if let Some(tp) = &o.traffic {
                match parse_traffic(&read(tp), &topo) {
                    Ok(tm) => println!(
                        "traffic: {} flows, total demand {:.1} (high {:.1} / medium {:.1} / low {:.1})",
                        tm.len(),
                        tm.total_demand(),
                        tm.demand_of(ffc_net::Priority::High),
                        tm.demand_of(ffc_net::Priority::Medium),
                        tm.demand_of(ffc_net::Priority::Low),
                    ),
                    Err(e) => {
                        eprintln!("{tp}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        "solve" => {
            let tp = o.traffic.clone().unwrap_or_else(|| {
                eprintln!("solve needs --traffic");
                usage()
            });
            let tm = match parse_traffic(&read(&tp), &topo) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{tp}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let layout = LayoutConfig {
                tunnels_per_flow: o.tunnels,
                ..LayoutConfig::default()
            };
            let tunnels = layout_tunnels(&topo, &tm, &layout);
            // The old configuration (for control-plane FFC).
            let old = match &o.old {
                Some(p) => match parse_config(&read(p), &topo, tm.len()) {
                    // Note: the old config's tunnels are informational
                    // here; control FFC uses its rates/allocs mapped to
                    // the freshly laid-out tunnels, so shapes must match.
                    Ok((old_tunnels, old_cfg)) => {
                        if (0..tm.len()).any(|f| {
                            old_tunnels.tunnels(ffc_net::FlowId(f)).len()
                                != tunnels.tunnels(ffc_net::FlowId(f)).len()
                        }) {
                            eprintln!(
                                "--old tunnel shape differs from this layout; \
                                 re-run solve without --old or keep --tunnels consistent"
                            );
                            return ExitCode::FAILURE;
                        }
                        old_cfg
                    }
                    Err(e) => {
                        eprintln!("{p}: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                None => TeConfig::zero(&tunnels),
            };
            let ffc = FfcConfig::new(o.kc, o.ke, o.kv);
            let builder = build_ffc_model(TeProblem::new(&topo, &tm, &tunnels), &old, &ffc);
            let opts = SimplexOptions {
                algorithm: o.algorithm,
                ..SimplexOptions::default()
            };
            let (cfg, sol) = match builder.solve_with(&opts, None) {
                Ok(x) => x,
                Err(e) => {
                    eprintln!("solve failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if o.verbose {
                let s = &sol.stats;
                eprintln!(
                    "solver: {} iterations (phase1 {} / phase2 {} / dual {}), {} degenerate, \
                     {} bound flips ({} dual), {} refactorizations, {} full pricing passes, {:.1?}",
                    s.iterations(),
                    s.phase1_iterations,
                    s.phase2_iterations,
                    s.dual_iterations,
                    s.degenerate_pivots,
                    s.bound_flips,
                    s.dual_bound_flips,
                    s.refactorizations,
                    s.full_pricing_passes,
                    s.solve_time
                );
            }
            eprintln!(
                "granted {:.2} of {:.2} demanded ({} flows, protection kc={} ke={} kv={})",
                cfg.throughput(),
                tm.total_demand(),
                tm.len(),
                o.kc,
                o.ke,
                o.kv
            );
            let text = write_config(&topo, &tunnels, &cfg);
            match &o.out {
                Some(p) => {
                    if let Err(e) = std::fs::write(p, &text) {
                        eprintln!("cannot write {p}: {e}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!("wrote {p}");
                }
                None => print!("{text}"),
            }
            ExitCode::SUCCESS
        }
        "check" => {
            let tp = o.traffic.clone().unwrap_or_else(|| {
                eprintln!("check needs --traffic");
                usage()
            });
            let cp = o.config.clone().unwrap_or_else(|| {
                eprintln!("check needs --config");
                usage()
            });
            let tm = match parse_traffic(&read(&tp), &topo) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{tp}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let (tunnels, cfg) = match parse_config(&read(&cp), &topo, tm.len()) {
                Ok(x) => x,
                Err(e) => {
                    eprintln!("{cp}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let old = match &o.old {
                Some(p) => match parse_config(&read(p), &topo, tm.len()) {
                    Ok((_, c)) => Some(c),
                    Err(e) => {
                        eprintln!("{p}: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                None => None,
            };
            if o.kc > 0 && old.is_none() {
                eprintln!("checking kc > 0 needs --old (the stale configuration)");
                return ExitCode::FAILURE;
            }

            // The verdict is the certifier's — the same gate the
            // controller puts before every rollout — with the scenario
            // budget lifted so a pass always means every scenario.
            let mut input = ffc_audit::CertInput::new(
                &topo,
                &tm,
                &tunnels,
                &cfg.rate,
                &cfg.alloc,
                ffc_audit::Protection::new(o.kc, o.ke, o.kv),
            );
            input.old_alloc = old.as_ref().map(|c| &c.alloc[..]);
            input.max_scenarios = usize::MAX;
            let cert = ffc_audit::certify(&input);
            for v in &cert.violations {
                eprintln!("VIOLATION: {v}");
            }
            if cert.num_violations > cert.violations.len() {
                eprintln!(
                    "... and {} more",
                    cert.num_violations - cert.violations.len()
                );
            }
            if cert.ok() {
                println!(
                    "OK: {} fault scenarios checked (ke={} kc={} kv={}), no link overloads",
                    cert.scenarios_checked, o.ke, o.kc, o.kv
                );
                ExitCode::SUCCESS
            } else {
                println!(
                    "FAILED: {} violation(s) across {} scenarios; worst link at {:.1}% of capacity",
                    cert.num_violations,
                    cert.scenarios_checked,
                    cert.max_oversubscription * 100.0
                );
                ExitCode::FAILURE
            }
        }
        other => {
            eprintln!("unknown command '{other}'");
            usage()
        }
    }
}

/// `ffc ctrl run` / `ffc ctrl replay`: the online controller loop.
fn run_ctrl(o: &Opts) -> ExitCode {
    use ffc_ctrl::{generate_poisson_events, Controller, ControllerConfig, EventTrace};

    match o.args.first().map(String::as_str) {
        Some("run") => {
            let (topo_path, traffic_path) = match (&o.topo, &o.traffic) {
                (Some(t), Some(d)) => (t.clone(), d.clone()),
                _ => {
                    eprintln!("ctrl run needs --topo and --traffic");
                    usage()
                }
            };
            let topo_text = read(&topo_path);
            let traffic_text = read(&traffic_path);
            let topo = match parse_topology(&topo_text) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{topo_path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let tm = match parse_traffic(&traffic_text, &topo) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{traffic_path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let layout = LayoutConfig {
                tunnels_per_flow: o.tunnels,
                ..LayoutConfig::default()
            };
            let tunnels = layout_tunnels(&topo, &tm, &layout);
            let mut cfg = ControllerConfig::new(FfcConfig::new(o.kc, o.ke, o.kv), o.switch_model);
            cfg.seed = o.seed;
            cfg.incremental = o.incremental;
            let events = generate_poisson_events(
                &topo,
                &ffc_sim::FaultModel::default(),
                o.seed,
                o.intervals,
                cfg.interval_secs,
                o.jitter,
            );
            // A checkpoint directory is self-contained: the run's full
            // inputs land in run.trace before the first interval, so
            // `ffc ctrl resume --ckpt-dir DIR` needs nothing else.
            let digest = ffc_ctrl::config_digest(&cfg, &topo, &tunnels, &tm);
            if let Some(dir) = &o.ckpt_dir {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("cannot create {dir}: {e}");
                    return ExitCode::FAILURE;
                }
                let trace = EventTrace {
                    header: cfg.to_header(o.intervals, o.tunnels),
                    topo_text: topo_text.clone(),
                    traffic_text: traffic_text.clone(),
                    events: events.clone(),
                };
                let trace_path = format!("{dir}/run.trace");
                if let Err(e) = std::fs::write(&trace_path, trace.to_text()) {
                    eprintln!("cannot write {trace_path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            if o.supervise {
                let dir = match &o.ckpt_dir {
                    Some(d) => std::path::PathBuf::from(d),
                    None => {
                        eprintln!("--supervise needs --ckpt-dir (restarts resume from it)");
                        usage()
                    }
                };
                if o.store.is_some() {
                    eprintln!("--supervise cannot stream to --store (sink state would not survive a restart)");
                    usage()
                }
                let sup_cfg = ffc_ctrl::SupervisorConfig {
                    max_restarts: o.max_restarts,
                    ..ffc_ctrl::SupervisorConfig::default()
                };
                let sup = ffc_ctrl::run_supervised(&sup_cfg, |attempt| -> Result<_, String> {
                    let resume = if attempt == 0 {
                        None
                    } else {
                        let rec = ffc_ctrl::recover_latest(&dir, digest)?;
                        for n in &rec.notes {
                            eprintln!("checkpoint recovery: {n}");
                        }
                        rec.checkpoint.map(|c| c.state)
                    };
                    let mut ck = ffc_ctrl::Checkpointer::create(&dir, digest)?;
                    let mut ctrl = Controller::new(&topo, &tunnels, cfg.clone());
                    Ok(ctrl.run_with_recovery(
                        &tm,
                        &events,
                        o.intervals,
                        false,
                        None,
                        Some(&mut ck),
                        resume,
                    ))
                });
                for (i, c) in sup.crashes.iter().enumerate() {
                    eprintln!("supervisor: attempt {i} crashed: {c}");
                }
                if sup.restarts > 0 {
                    eprintln!("supervisor: completed after {} restart(s)", sup.restarts);
                }
                let report = match sup.into_result() {
                    Ok(Ok(r)) => r,
                    Ok(Err(e)) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                    Err(e) => {
                        eprintln!("supervisor: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                for t in &report.telemetry {
                    println!("{}", t.to_json());
                }
                print_ctrl_summary(&report);
                return ExitCode::SUCCESS;
            }
            let mut ctrl = Controller::new(&topo, &tunnels, cfg.clone());
            let mut store_writer = match &o.store {
                Some(dir) => {
                    match ffc_fleet::StoreWriter::create(
                        std::path::Path::new(dir),
                        ffc_fleet::link_names(&topo),
                    ) {
                        Ok(w) => Some(w),
                        Err(e) => {
                            eprintln!("{e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                None => None,
            };
            let mut ck = match &o.ckpt_dir {
                Some(dir) => {
                    match ffc_ctrl::Checkpointer::create(std::path::Path::new(dir), digest) {
                        Ok(c) => Some(c),
                        Err(e) => {
                            eprintln!("{e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                None => None,
            };
            let report = ctrl.run_with_recovery(
                &tm,
                &events,
                o.intervals,
                false,
                store_writer
                    .as_mut()
                    .map(|w| w as &mut dyn ffc_ctrl::IntervalSink),
                ck.as_mut(),
                None,
            );
            if let Some(e) = ck.as_ref().and_then(|c| c.error()) {
                eprintln!("checkpointing degraded (run continued): {e}");
            }
            for t in &report.telemetry {
                println!("{}", t.to_json());
            }
            print_ctrl_summary(&report);
            if let Some(w) = store_writer {
                match w.finish() {
                    Ok(segments) => eprintln!(
                        "sealed telemetry store in {} ({segments} segment(s))",
                        o.store.as_deref().unwrap_or(".")
                    ),
                    Err(e) => {
                        eprintln!("telemetry store: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            if let Some(p) = &o.out {
                let trace = EventTrace {
                    header: cfg.to_header(o.intervals, o.tunnels),
                    topo_text,
                    traffic_text,
                    events: report.recorded_events.clone(),
                };
                if let Err(e) = std::fs::write(p, trace.to_text()) {
                    eprintln!("cannot write {p}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote replayable trace to {p}");
            }
            ExitCode::SUCCESS
        }
        Some("resume") => {
            // Everything needed to finish the run lives in the
            // checkpoint directory: run.trace carries the inputs, the
            // newest valid ckpt-*.ffck carries the state.
            let dir = match o.ckpt_dir.clone().or_else(|| o.args.get(1).cloned()) {
                Some(d) => d,
                None => {
                    eprintln!("ctrl resume needs --ckpt-dir DIR");
                    usage()
                }
            };
            let trace_path = format!("{dir}/run.trace");
            let trace = match EventTrace::parse(&read(&trace_path)) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{trace_path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let topo = match parse_topology(&trace.topo_text) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{trace_path} [topo]: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let tm = match parse_traffic(&trace.traffic_text, &topo) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{trace_path} [traffic]: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let layout = LayoutConfig {
                tunnels_per_flow: trace.header.tunnels_per_flow,
                ..LayoutConfig::default()
            };
            let tunnels = layout_tunnels(&topo, &tm, &layout);
            let cfg = ControllerConfig::from_header(&trace.header);
            let digest = ffc_ctrl::config_digest(&cfg, &topo, &tunnels, &tm);
            let dir_path = std::path::Path::new(&dir);
            let rec = match ffc_ctrl::recover_latest(dir_path, digest) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            for n in &rec.notes {
                eprintln!("checkpoint recovery: {n}");
            }
            let resume_state = match rec.checkpoint {
                Some(c) => {
                    eprintln!(
                        "resuming from {} (next interval {})",
                        c.file, c.state.next_interval
                    );
                    Some(c.state)
                }
                None => {
                    eprintln!("no valid checkpoint in {dir}; starting from interval 0");
                    None
                }
            };
            let mut ck = match ffc_ctrl::Checkpointer::create(dir_path, digest) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut ctrl = Controller::new(&topo, &tunnels, cfg);
            let report = ctrl.run_with_recovery(
                &tm,
                &trace.events,
                trace.header.intervals,
                false,
                None,
                Some(&mut ck),
                resume_state,
            );
            if let Some(e) = ck.error() {
                eprintln!("checkpointing degraded (run continued): {e}");
            }
            for t in &report.telemetry {
                println!("{}", t.to_json());
            }
            print_ctrl_summary(&report);
            ExitCode::SUCCESS
        }
        Some("replay") => {
            let trace_path = match o.args.get(1) {
                Some(p) => p.clone(),
                None => {
                    eprintln!("ctrl replay needs a trace file");
                    usage()
                }
            };
            let trace = match EventTrace::parse(&read(&trace_path)) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{trace_path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let topo = match parse_topology(&trace.topo_text) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{trace_path} [topo]: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let tm = match parse_traffic(&trace.traffic_text, &topo) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{trace_path} [traffic]: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let layout = LayoutConfig {
                tunnels_per_flow: trace.header.tunnels_per_flow,
                ..LayoutConfig::default()
            };
            let tunnels = layout_tunnels(&topo, &tm, &layout);
            let cfg = ControllerConfig::from_header(&trace.header);
            let mut ctrl = Controller::new(&topo, &tunnels, cfg);
            let report = ctrl.run(&tm, &trace.events, trace.header.intervals, true);
            for t in &report.telemetry {
                println!("{}", t.to_json());
            }
            print_ctrl_summary(&report);
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown ctrl subcommand '{other}' (run, resume, or replay)");
            usage()
        }
        None => {
            eprintln!("ctrl needs a subcommand (run, resume, or replay)");
            usage()
        }
    }
}

/// `ffc chaos` / `ffc chaos replay`: the deterministic fault-injection
/// harness. Without `--topo/--traffic` it drives the built-in S-Net
/// topology with gravity-model traffic. Stdout is deterministic for a
/// fixed seed — CI diffs two runs to assert bit-reproducibility.
fn run_chaos_cmd(o: &Opts) -> ExitCode {
    use ffc_chaos::{check_run, run_chaos, ChaosConfig, ChaosInputs};
    use ffc_cli::formats::{write_topology, write_traffic};
    use ffc_ctrl::{Controller, ControllerConfig, EventTrace};

    if o.args.first().map(String::as_str) == Some("replay") {
        let trace_path = match o.args.get(1) {
            Some(p) => p.clone(),
            None => {
                eprintln!("chaos replay needs a trace file");
                usage()
            }
        };
        let trace = match EventTrace::parse(&read(&trace_path)) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{trace_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let topo = match parse_topology(&trace.topo_text) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{trace_path} [topo]: {e}");
                return ExitCode::FAILURE;
            }
        };
        let tm = match parse_traffic(&trace.traffic_text, &topo) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{trace_path} [traffic]: {e}");
                return ExitCode::FAILURE;
            }
        };
        let layout = LayoutConfig {
            tunnels_per_flow: trace.header.tunnels_per_flow,
            ..LayoutConfig::default()
        };
        let tunnels = layout_tunnels(&topo, &tm, &layout);
        let cfg = ControllerConfig::from_header(&trace.header);
        let mut ctrl = Controller::new(&topo, &tunnels, cfg);
        let report = ctrl.run(&tm, &trace.events, trace.header.intervals, true);
        let check = check_run(&trace.events, &report);
        for v in &check.violations {
            println!("VIOLATION: {v}");
        }
        println!(
            "{}: {} violation(s), {} interval(s) with over-k overloads",
            trace_path,
            check.violations.len(),
            check.observed_overloads
        );
        if !check.violations.is_empty() {
            return ExitCode::FAILURE;
        }
        if o.expect_violation && check.observed_overloads == 0 {
            eprintln!("expected the overload detector to fire, but it did not");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }
    let crash_mode = o.args.first().map(String::as_str) == Some("crash");
    if let Some(other) = o.args.first() {
        if !crash_mode {
            eprintln!(
                "unknown chaos subcommand '{other}' (crash, replay, or none to run campaigns)"
            );
            usage()
        }
    }

    // Workload: explicit files, or the built-in S-Net instance.
    let (topo, tm, topo_text, traffic_text) = match (&o.topo, &o.traffic) {
        (Some(tp), Some(dp)) => {
            let topo_text = read(tp);
            let traffic_text = read(dp);
            let topo = match parse_topology(&topo_text) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{tp}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let tm = match parse_traffic(&traffic_text, &topo) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{dp}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            (topo, tm, topo_text, traffic_text)
        }
        (None, None) => {
            let net = ffc_topo::snet();
            let tm = ffc_topo::gravity_trace_single_priority(
                &net,
                &ffc_topo::TrafficConfig::default(),
                1,
            )
            .intervals
            .remove(0);
            let topo_text = write_topology(&net.topo);
            let traffic_text = write_traffic(&tm, &net.topo);
            (net.topo, tm, topo_text, traffic_text)
        }
        _ => {
            eprintln!("chaos needs both --topo and --traffic (or neither for built-in S-Net)");
            usage()
        }
    };
    let layout = LayoutConfig {
        tunnels_per_flow: o.tunnels,
        ..LayoutConfig::default()
    };
    let tunnels = layout_tunnels(&topo, &tm, &layout);
    let mut cfg = ChaosConfig::new(o.seed);
    cfg.campaigns = o.campaigns;
    cfg.intervals = o.intervals;
    cfg.tunnels_per_flow = o.tunnels;
    cfg.switch_model = o.switch_model;
    if o.kc + o.ke + o.kv > 0 {
        cfg.ffc = FfcConfig::new(o.kc, o.ke, o.kv);
    }
    cfg.emit_overload_trace = o.out_dir.is_some();
    cfg.shape_demand = o.shape_demand;
    if let Some(dir) = &o.store {
        // Coverage-guided storms: aim faults at the links a previous
        // campaign's telemetry saw running hottest.
        let store = match ffc_fleet::TelemetryStore::open(std::path::Path::new(dir)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        let heat = store.link_heat();
        if heat.len() != topo.num_links() {
            eprintln!(
                "store {dir} records {} links but the topology has {} — \
                 it was captured on a different network",
                heat.len(),
                topo.num_links()
            );
            return ExitCode::FAILURE;
        }
        cfg.link_heat = Some(heat);
    }
    let inputs = ChaosInputs {
        topo: &topo,
        tunnels: &tunnels,
        tm: &tm,
        topo_text: &topo_text,
        traffic_text: &traffic_text,
    };
    if crash_mode {
        // Kill–resume campaigns: crash the checkpointing controller at
        // seeded points and prove the resumed run converges to the
        // uninterrupted run's fingerprint bit for bit.
        let scratch = std::env::temp_dir().join(format!("ffc-chaos-crash-{}", std::process::id()));
        let report = ffc_chaos::run_crash_suite(&inputs, &cfg, &scratch);
        let _ = std::fs::remove_dir_all(&scratch);
        print!("{}", report.summary());
        return if report.total_violations() > 0 {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    let report = run_chaos(&inputs, &cfg);
    print!("{}", report.summary());
    if let Some(dir) = &o.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
        for c in &report.campaigns {
            for (suffix, text) in [
                ("violation", &c.failure_trace),
                ("overload", &c.overload_trace),
            ] {
                if let Some(text) = text {
                    let path = format!("{dir}/campaign-{}-{suffix}.trace", c.index);
                    if let Err(e) = std::fs::write(&path, text) {
                        eprintln!("cannot write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!("wrote {path}");
                }
            }
        }
    }
    if report.total_violations() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `ffc audit lint|analyze|fix|model`: the static verification layer
/// from the command line.
///
/// * `lint` checks the source tree rooted at `DIR` (default: the current
///   directory) against the workspace hygiene rules — unwrap/expect in
///   solver/controller hot paths, float `==` against literals,
///   wall-clock or ambient randomness in replay-deterministic modules,
///   missing `#![forbid(unsafe_code)]`, `process::exit` and environment
///   reads outside entrypoints — on the analyzer's token stream, and
///   exits non-zero on any violation.
/// * `analyze` runs the interprocedural analyzer (determinism taint
///   into replay-critical sinks, panic reachability from hot-loop
///   roots) and prints findings with full call chains (`--json` for
///   machine output). With `--baseline FILE` it ratchets: findings not
///   in the baseline fail, and so do stale baseline entries.
///   `--write-baseline FILE` regenerates the baseline.
/// * `fix` applies the analyzer autofixes (hash→BTree rewrites in
///   deterministic modules, `unwrap`→`?` in `Result` fns, suppression
///   scaffolding elsewhere); `--check` plans without writing.
/// * `model` builds the FFC model for a workload (built-in S-Net with
///   gravity traffic unless `--topo/--traffic` are given) and runs the
///   static model auditor over it: LP hygiene plus the FFC structural
///   invariants. Exits non-zero on any error-severity finding.
fn run_audit(o: &Opts) -> ExitCode {
    use ffc_audit::{lint_workspace, LintConfig};

    match o.args.first().map(String::as_str) {
        Some("analyze") => run_audit_analyze(o),
        Some("fix") => run_audit_fix(o),
        Some("lint") => {
            let root = o.args.get(1).cloned().unwrap_or_else(|| ".".to_string());
            let report = match lint_workspace(&LintConfig {
                root: root.clone().into(),
            }) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("cannot lint {root}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for v in &report.violations {
                println!("{v}");
            }
            println!(
                "{} file(s) scanned, {} violation(s)",
                report.files_scanned,
                report.violations.len()
            );
            if report.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some("model") => {
            use ffc_cli::formats::{write_topology, write_traffic};
            let (topo, tm) = match (&o.topo, &o.traffic) {
                (Some(tp), Some(dp)) => {
                    let topo = match parse_topology(&read(tp)) {
                        Ok(t) => t,
                        Err(e) => {
                            eprintln!("{tp}: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    let tm = match parse_traffic(&read(dp), &topo) {
                        Ok(t) => t,
                        Err(e) => {
                            eprintln!("{dp}: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    (topo, tm)
                }
                (None, None) => {
                    let net = ffc_topo::snet();
                    let tm = ffc_topo::gravity_trace_single_priority(
                        &net,
                        &ffc_topo::TrafficConfig::default(),
                        1,
                    )
                    .intervals
                    .remove(0);
                    // Round-trip through the text formats so the audited
                    // model matches what file-driven runs would build.
                    let topo_text = write_topology(&net.topo);
                    let traffic_text = write_traffic(&tm, &net.topo);
                    let topo = parse_topology(&topo_text).expect("built-in S-Net must parse");
                    let tm =
                        parse_traffic(&traffic_text, &topo).expect("built-in traffic must parse");
                    (topo, tm)
                }
                _ => {
                    eprintln!(
                        "audit model needs both --topo and --traffic \
                         (or neither for built-in S-Net)"
                    );
                    usage()
                }
            };
            let layout = LayoutConfig {
                tunnels_per_flow: o.tunnels,
                ..LayoutConfig::default()
            };
            let tunnels = layout_tunnels(&topo, &tm, &layout);
            let ffc = if o.kc + o.ke + o.kv > 0 {
                FfcConfig::new(o.kc, o.ke, o.kv)
            } else {
                FfcConfig::new(1, 1, 0)
            };
            let old = TeConfig::zero(&tunnels);
            let builder = build_ffc_model(TeProblem::new(&topo, &tm, &tunnels), &old, &ffc);
            let report = ffc_core::audit_te_model(&builder);
            for f in &report.findings {
                println!(
                    "{} [{}] {}",
                    format!("{:?}", f.severity).to_lowercase(),
                    f.category,
                    f.detail
                );
            }
            let errors = report.errors().count();
            println!(
                "model: {} vars, {} rows; {} finding(s), {} error(s)",
                builder.model.num_vars(),
                builder.model.num_cons(),
                report.findings.len(),
                errors
            );
            if errors == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some(other) => {
            eprintln!("unknown audit subcommand '{other}' (lint, analyze, fix, or model)");
            usage()
        }
        None => {
            eprintln!("audit needs a subcommand (lint, analyze, fix, or model)");
            usage()
        }
    }
}

/// `ffc audit analyze [DIR] [--json] [--baseline FILE]
/// [--write-baseline FILE]`.
fn run_audit_analyze(o: &Opts) -> ExitCode {
    let root = o.args.get(1).cloned().unwrap_or_else(|| ".".to_string());
    let config = ffc_audit::AnalysisConfig::workspace_default();
    let report = match ffc_audit::analyze_path(std::path::Path::new(&root), &config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot analyze {root}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if o.json {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.to_text());
    }
    if let Some(path) = &o.write_baseline {
        if let Err(e) = std::fs::write(path, report.baseline_body()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path} ({} finding(s))", report.findings.len());
        return ExitCode::SUCCESS;
    }
    if let Some(path) = &o.baseline {
        let body = match std::fs::read_to_string(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let baseline = ffc_audit::analysis::parse_baseline(&body);
        let r = ffc_audit::analysis::ratchet(&report, &baseline);
        for k in &r.new {
            eprintln!("NEW (not in baseline): {k}");
        }
        for k in &r.stale {
            eprintln!("STALE (fixed; delete from baseline): {k}");
        }
        if !r.ok() {
            eprintln!(
                "ratchet failed: {} new, {} stale (baseline {path})",
                r.new.len(),
                r.stale.len()
            );
            return ExitCode::FAILURE;
        }
        eprintln!("ratchet ok: {} finding(s) match {path}", baseline.len());
    }
    ExitCode::SUCCESS
}

/// `ffc audit fix [DIR] [--check] [--rewrite-all]`.
fn run_audit_fix(o: &Opts) -> ExitCode {
    use ffc_audit::analysis::fixes;
    let root = o.args.get(1).cloned().unwrap_or_else(|| ".".to_string());
    let config = ffc_audit::AnalysisConfig::workspace_default();
    let opts = fixes::FixOptions {
        rewrite_hash_all: o.rewrite_all,
        deterministic_modules: ffc_audit::lint::DETERMINISTIC_MODULES
            .iter()
            .map(|s| s.to_string())
            .collect(),
    };
    let plan = match fixes::plan(std::path::Path::new(&root), &config, &opts) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot plan fixes for {root}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &plan.notes {
        println!("note: {note}");
    }
    for fix in &plan.fixes {
        for action in &fix.actions {
            println!("{}{action}", if o.check { "would fix: " } else { "fix: " });
        }
    }
    println!(
        "{} edit(s) across {} file(s){}",
        plan.edit_count(),
        plan.fixes.len(),
        if o.check { " (dry run)" } else { "" }
    );
    if o.check {
        return ExitCode::SUCCESS;
    }
    match fixes::apply(std::path::Path::new(&root), &plan) {
        Ok(n) => {
            println!("rewrote {n} file(s)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot apply fixes: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `ffc fleet run --spec FILE --out DIR`: compile a fleet campaign
/// spec into an event stream, drive the controller over it, and seal a
/// telemetry store. Prints a one-line summary (with the store
/// fingerprint) to stdout.
fn run_fleet_cmd(o: &Opts) -> ExitCode {
    match o.args.first().map(String::as_str) {
        Some("run") => {}
        Some(other) => {
            eprintln!("unknown fleet subcommand '{other}' (run)");
            usage()
        }
        None => {
            eprintln!("fleet needs a subcommand (run)");
            usage()
        }
    }
    let spec_path = o.spec.clone().unwrap_or_else(|| {
        eprintln!("fleet run needs --spec");
        usage()
    });
    let out_dir = o.out.clone().unwrap_or_else(|| {
        eprintln!("fleet run needs --out (the store directory)");
        usage()
    });
    let spec = match ffc_fleet::FleetSpec::parse(&read(&spec_path)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{spec_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match ffc_fleet::run_fleet(&spec, std::path::Path::new(&out_dir)) {
        Ok(s) => {
            println!(
                "fleet {}: {} intervals, {} flows, {} events, {} segment(s), \
                 delivered {:.1}, lost {:.1}, {} degraded interval(s)",
                spec.name,
                s.intervals,
                s.flows,
                s.events,
                s.segments,
                s.delivered,
                s.lost,
                s.degraded_intervals
            );
            println!("store fingerprint {}", s.fingerprint);
            eprintln!("sealed telemetry store in {out_dir}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fleet run failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `ffc report --store DIR`: summarize a telemetry store as text (and
/// optionally a standalone HTML page). `--fingerprint` prints only the
/// store's deterministic fingerprint, for CI bit-stability diffs.
fn run_report_cmd(o: &Opts) -> ExitCode {
    let dir = o.store.clone().unwrap_or_else(|| {
        eprintln!("report needs --store");
        usage()
    });
    let store = match ffc_fleet::TelemetryStore::open(std::path::Path::new(&dir)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if o.fingerprint {
        println!("{}", store.fingerprint());
        return ExitCode::SUCCESS;
    }
    let opts = ffc_fleet::ReportOptions {
        top_links: o.top,
        include_timing: !o.no_timing,
    };
    let report = ffc_fleet::build_report(&store, &opts);
    print!("{}", report.to_text(&opts));
    if let Some(p) = &o.html {
        if let Err(e) = std::fs::write(p, report.to_html(&opts)) {
            eprintln!("cannot write {p}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {p}");
    }
    ExitCode::SUCCESS
}

fn print_ctrl_summary(report: &ffc_ctrl::ControllerReport) {
    // Deterministic digest of the full replay fingerprint, on stdout
    // so CI can diff a resumed run against an uninterrupted one with a
    // single grep.
    println!(
        "fingerprint {:016x}",
        ffc_ctrl::durable::fnv64(report.fingerprint().as_bytes())
    );
    let warm = report
        .telemetry
        .iter()
        .filter(|t| {
            matches!(
                t.path,
                ffc_ctrl::SolvePath::WarmDual | ffc_ctrl::SolvePath::WarmPrimal
            )
        })
        .count();
    eprintln!(
        "{} intervals: delivered {:.1}, lost {:.1} (congestion {:.1} / blackhole {:.1}), \
         {} warm re-solves",
        report.telemetry.len(),
        report.totals.total_delivered(),
        report.totals.total_lost(),
        report.totals.lost_congestion.iter().sum::<f64>(),
        report.totals.lost_blackhole.iter().sum::<f64>(),
        warm
    );
}
