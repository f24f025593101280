//! `ffc` — forward-fault-corrected traffic engineering from the command
//! line. The synopsis is kept once, in [`USAGE`]; every usage error
//! prints it.
//!
//! * `solve` computes an FFC-protected TE configuration (plain TE when
//!   all protection levels are 0) and prints/writes it.
//! * `check` *verifies* a configuration with the independent certifier
//!   the controller gates rollouts on ([`ffc_audit::certify()`]), run
//!   exhaustively: every joint ≤ke link × ≤kv switch failure (after
//!   proportional rescaling) and every ≤kc stale-switch combination
//!   must leave all live links within capacity — proved by the paper's
//!   Lemma 1 when it applies, scenario by scenario otherwise.
//! * `info` prints topology/traffic statistics.
//! * `ctrl run` drives the online controller live over a Poisson
//!   fault/demand event stream, prints per-interval JSONL telemetry to
//!   stdout, and (with `--out`) writes a self-contained replayable trace.
//!   With `--ckpt-dir` every interval boundary and rollout stage lands
//!   in a checkpoint; `--supervise` restarts a crashed run from the
//!   newest one, at most `--max-restarts` times.
//! * `ctrl resume` finishes a run from its checkpoint directory alone.
//! * `ctrl replay` re-runs a recorded trace deterministically — the
//!   telemetry it prints is bit-identical to the live run's.
//! * `chaos` runs the seeded fault-injection harness (defaults to the
//!   built-in S-Net instance) and fails on any invariant violation;
//!   `chaos crash` runs its kill–resume campaigns; `chaos replay`
//!   re-checks a single emitted trace, with `--expect-violation`
//!   asserting the over-`k` overload detector fires on it.
//!   `--shape-demand` fuzzes demand with the fleet's reusable shapes;
//!   `--store DIR` reads per-link utilization from a telemetry store
//!   and aims fault storms at the hottest links.
//! * `fleet run` compiles a [`ffc_fleet::FleetSpec`] campaign file
//!   (site populations, diurnal/weekly cycles, flash crowds, faults)
//!   into an event stream, drives the controller over it, and seals a
//!   crash-recoverable telemetry store in `--out`. Deterministic: the
//!   same spec yields a bit-identical store fingerprint.
//! * `report` summarizes a telemetry store — top-N hottest links with
//!   utilization percentiles, protection-degradation episodes,
//!   certificate rejections and rollbacks, solver-time distributions —
//!   as text or (`--html`) a standalone HTML page.
//! * `digest` prints a telemetry store's decision digest — per interval
//!   the answers (verdict, degradation, rollback, atomic transition,
//!   delivered and lost volumes) and the solver work (path, iterations),
//!   with per-run totals; `digest diff` classifies a change's digest
//!   against its parent's as `bit-equal`, `equivalent` or `changed`
//!   (exit 1).
//! * `audit lint` runs the workspace source linter (exit 1 on any
//!   violation); `audit analyze` the interprocedural analyzer and its
//!   ratchet; `audit model` statically audits the built FFC model for
//!   a workload (built-in S-Net by default) before any solve.
//!
//! Every subcommand reads its own flags through [`args::Args`] before
//! it touches a file; failures travel as [`Fail`] and become an exit
//! code only in `main`.
//!
//! File formats are documented in [`ffc_cli::formats`].

#![forbid(unsafe_code)]

mod args;
mod audit;
mod chaos;
mod ctrl;
mod instance;

use std::path::Path;
use std::process::ExitCode;

use ffc_core::{build_ffc_model, FfcConfig, TeConfig, TeProblem};
use ffc_lp::SimplexOptions;
use ffc_net::{FlowId, Priority};

use ffc_cli::formats::{parse_config, write_config};

use args::Args;
use instance::Instance;

/// The synopsis: every subcommand and every flag it reads.
const USAGE: &str = "\
usage: ffc info  --topo FILE [--traffic FILE]
       ffc solve --topo FILE --traffic FILE [--kc N] [--ke N] [--kv N]
           [--old FILE] [--tunnels N] [--out FILE] [--verbose]
       ffc check --topo FILE --traffic FILE --config FILE [--kc N] [--ke N]
           [--kv N] [--old FILE]
       ffc ctrl run --topo FILE --traffic FILE [--kc N] [--ke N] [--kv N]
           [--tunnels N] [--intervals N] [--seed N] [--jitter F]
           [--switch-model realistic|optimistic] [--out TRACE] [--store DIR]
           [--ckpt-dir DIR [--supervise] [--max-restarts N]]
       ffc ctrl resume --ckpt-dir DIR
       ffc ctrl replay TRACE
       ffc chaos [crash] [--topo FILE --traffic FILE] [--seed N] [--campaigns N]
           [--intervals N] [--kc N --ke N --kv N] [--tunnels N]
           [--switch-model realistic|optimistic]
           without `crash` also: [--out-dir DIR] [--store DIR] [--shape-demand]
       ffc chaos replay TRACE [--expect-violation]
       ffc fleet run --spec FILE --out DIR
       ffc report --store DIR [--top N] [--html FILE] [--no-timing]
           [--fingerprint]
       ffc digest STORE
       ffc digest diff PARENT CHANGE
       ffc audit lint [DIR]
       ffc audit analyze [DIR] [--json] [--baseline FILE]
           [--write-baseline FILE]
       ffc audit model [--topo FILE --traffic FILE] [--kc N --ke N --kv N]
           [--tunnels N] [--old FILE]";

/// Why a subcommand stopped. `main` alone turns it into an exit code.
enum Fail {
    /// The command line is wrong: message and synopsis on stderr, exit 2.
    Usage(String),
    /// The run failed: message on stderr, exit 1.
    Run(String),
}

/// `?` on any displayable error is a run-time failure.
impl<E: std::fmt::Display> From<E> for Fail {
    fn from(e: E) -> Self {
        Fail::Run(e.to_string())
    }
}

/// `.map_err(ctx(path))`: says what failed in front of an error.
fn ctx<E: std::fmt::Display>(what: impl std::fmt::Display) -> impl FnOnce(E) -> Fail {
    move |e| Fail::Run(format!("{what}: {e}"))
}

type Done = Result<ExitCode, Fail>;

fn read_file(path: &str) -> Result<String, Fail> {
    std::fs::read_to_string(path).map_err(ctx(format_args!("cannot read {path}")))
}

fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), Fail> {
    std::fs::write(path, contents).map_err(ctx(format_args!("cannot write {path}")))
}

/// Exit status of a command whose stdout already carries the verdict.
fn verdict(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `[--kc N] [--ke N] [--kv N]`, all defaulting to 0.
fn protection(a: &mut Args) -> Result<(usize, usize, usize), Fail> {
    Ok((
        a.parsed("--kc", 0)?,
        a.parsed("--ke", 0)?,
        a.parsed("--kv", 0)?,
    ))
}

fn main() -> ExitCode {
    let (msg, code) = match dispatch(Args::new(std::env::args().skip(1))) {
        Ok(code) => return code,
        Err(Fail::Run(msg)) => (msg, ExitCode::FAILURE),
        Err(Fail::Usage(msg)) => (format!("{msg}\n{USAGE}"), ExitCode::from(2)),
    };
    eprintln!("{msg}");
    code
}

/// The command surface, one row per subcommand.
fn dispatch(mut a: Args) -> Done {
    let cmd = a.word().unwrap_or_default();
    let family = matches!(cmd.as_str(), "ctrl" | "chaos" | "fleet" | "audit");
    let sub = if family { a.word() } else { None }.unwrap_or_default();
    let name = format!("{cmd} {sub}").trim_end().to_string();
    let run: fn(Args) -> Done = match (cmd.as_str(), sub.as_str()) {
        ("info", _) => info,
        ("solve", _) => solve,
        ("check", _) => check,
        ("ctrl", "run") => ctrl::run_live,
        ("ctrl", "resume") => ctrl::resume,
        ("ctrl", "replay") => ctrl::replay,
        ("chaos", "") => chaos::campaigns,
        ("chaos", "crash") => chaos::crash,
        ("chaos", "replay") => chaos::replay,
        ("fleet", "run") => fleet_run,
        ("report", _) => report,
        ("digest", _) => digest,
        ("audit", "lint") => audit::lint,
        ("audit", "analyze") => audit::analyze,
        ("audit", "model") => audit::model,
        ("", _) => return a.usage("needs a command"),
        (_, "") if family => return a.usage(format_args!("{cmd} needs a subcommand")),
        _ => return a.usage(format_args!("has no command '{name}'")),
    };
    a.cmd = name;
    run(a)
}

/// `ffc info`: topology and (with `--traffic`) demand statistics.
fn info(mut a: Args) -> Done {
    let topo_path = a.required("--topo")?;
    let traffic_path = a.value("--traffic")?;
    a.finish()?;
    let Instance { topo, tm, .. } = Instance::from_files(&topo_path, traffic_path.as_deref(), 0)?;
    println!(
        "topology: {} switches, {} directed links, total capacity {:.1}",
        topo.num_nodes(),
        topo.num_links(),
        topo.total_capacity()
    );
    if traffic_path.is_some() {
        println!(
            "traffic: {} flows, total demand {:.1} (high {:.1} / medium {:.1} / low {:.1})",
            tm.len(),
            tm.total_demand(),
            tm.demand_of(Priority::High),
            tm.demand_of(Priority::Medium),
            tm.demand_of(Priority::Low),
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// `ffc solve`: one FFC solve, the configuration on stdout or in `--out`.
fn solve(mut a: Args) -> Done {
    let topo_path = a.required("--topo")?;
    let traffic_path = a.required("--traffic")?;
    let (kc, ke, kv) = protection(&mut a)?;
    let old_path = a.value("--old")?;
    let tunnels_per_flow = a.parsed("--tunnels", 6)?;
    let out = a.value("--out")?;
    let verbose = a.flag("--verbose") | a.flag("-v");
    a.finish()?;

    let inst = Instance::from_files(&topo_path, Some(&traffic_path), tunnels_per_flow)?;
    let old = old_config(old_path.as_ref(), &inst)?;
    let Instance {
        topo, tm, tunnels, ..
    } = &inst;
    let ffc = FfcConfig::new(kc, ke, kv);
    let builder = build_ffc_model(TeProblem::new(topo, tm, tunnels), &old, &ffc);
    let (cfg, sol) = builder
        .solve_with(&SimplexOptions::default(), None)
        .map_err(ctx("solve failed"))?;
    if verbose {
        let s = &sol.stats;
        eprintln!(
            "solver: {} iterations (phase1 {} / phase2 {} / dual {}), {} degenerate, \
             {} bound flips ({} dual), {} refactorizations, {} full pricing passes, {:.1?} \
             (factor {:.1?}, ftran {:.1?}, btran {:.1?}, pricing {:.1?}, the rest {:.1?})",
            s.iterations(),
            s.phase1_iterations,
            s.phase2_iterations,
            s.dual_iterations,
            s.degenerate_pivots,
            s.bound_flips,
            s.dual_bound_flips,
            s.refactorizations,
            s.full_pricing_passes,
            s.solve_time,
            s.factor_time,
            s.ftran_time,
            s.btran_time,
            s.price_time,
            s.solve_time
                .saturating_sub(s.factor_time + s.ftran_time + s.btran_time + s.price_time),
        );
    }
    eprintln!(
        "granted {:.2} of {:.2} demanded ({} flows, protection kc={kc} ke={ke} kv={kv})",
        cfg.throughput(),
        tm.total_demand(),
        tm.len(),
    );
    let text = write_config(topo, tunnels, &cfg);
    match &out {
        Some(p) => {
            write_file(p, &text)?;
            eprintln!("wrote {p}");
        }
        None => print!("{text}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// The installed configuration for control-plane FFC: the `--old FILE`
/// a previous `ffc solve` wrote, or the zero config without the flag.
fn old_config(path: Option<&String>, inst: &Instance) -> Result<TeConfig, Fail> {
    let Instance {
        topo, tm, tunnels, ..
    } = inst;
    let Some(p) = path else {
        return Ok(TeConfig::zero(tunnels));
    };
    // Note: the old config's tunnels are informational here; control
    // FFC uses its rates/allocs mapped to the freshly laid-out tunnels,
    // so shapes must match.
    let (old_tunnels, old_cfg) = parse_config(&read_file(p)?, topo, tm.len()).map_err(ctx(p))?;
    if (0..tm.len())
        .any(|f| old_tunnels.tunnels(FlowId(f)).len() != tunnels.tunnels(FlowId(f)).len())
    {
        return Err("--old tunnel shape differs from this layout; \
                    drop --old or keep --tunnels consistent"
            .into());
    }
    Ok(old_cfg)
}

/// `ffc check`: the certifier's verdict on a configuration file.
fn check(mut a: Args) -> Done {
    let topo_path = a.required("--topo")?;
    let traffic_path = a.required("--traffic")?;
    let config_path = a.required("--config")?;
    let (kc, ke, kv) = protection(&mut a)?;
    let old_path = a.value("--old")?;
    a.finish()?;

    // No layout: the configuration file carries its own tunnels.
    let Instance { topo, tm, .. } = Instance::from_files(&topo_path, Some(&traffic_path), 0)?;
    let config = |p: &String| parse_config(&read_file(p)?, &topo, tm.len()).map_err(ctx(p));
    let (tunnels, cfg) = config(&config_path)?;
    let old = old_path.as_ref().map(config).transpose()?;
    if kc > 0 && old.is_none() {
        return Err("checking kc > 0 needs --old (the stale configuration)".into());
    }

    // The verdict is the certifier's — the same gate the controller
    // puts before every rollout — with the scenario budget lifted so a
    // pass always means every scenario.
    let mut input = ffc_audit::CertInput::new(
        &topo,
        &tm,
        &tunnels,
        &cfg.rate,
        &cfg.alloc,
        ffc_audit::Protection::new(kc, ke, kv),
    );
    input.old_alloc = old.as_ref().map(|(_, c)| &c.alloc[..]);
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
    if cert.method == ffc_audit::CertMethod::Lemma {
        println!(
            "OK: proved by Lemma 1, no fault scenario enumerated (ke={ke} kc={kc} kv={kv}), \
             no link overloads"
        );
    } else if cert.ok() {
        println!(
            "OK: {} fault scenarios checked (ke={ke} kc={kc} kv={kv}), no link overloads",
            cert.scenarios_checked
        );
    } else {
        println!(
            "FAILED: {} violation(s) across {} scenarios; worst link at {:.1}% of capacity",
            cert.num_violations,
            cert.scenarios_checked,
            cert.max_oversubscription * 100.0
        );
    }
    Ok(verdict(cert.ok()))
}

/// `ffc fleet run --spec FILE --out DIR`: compile a fleet campaign
/// spec into an event stream, drive the controller over it, and seal a
/// telemetry store. Prints a one-line summary (with the store
/// fingerprint) to stdout.
fn fleet_run(mut a: Args) -> Done {
    let spec_path = a.required("--spec")?;
    let out_dir = a.required("--out")?;
    a.finish()?;
    let spec = ffc_fleet::FleetSpec::parse(&read_file(&spec_path)?).map_err(ctx(&spec_path))?;
    let s = ffc_fleet::run_fleet(&spec, Path::new(&out_dir)).map_err(ctx("fleet run failed"))?;
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
    Ok(ExitCode::SUCCESS)
}

/// `ffc report --store DIR`: summarize a telemetry store as text (and
/// optionally a standalone HTML page). `--fingerprint` prints only the
/// store's deterministic fingerprint, for CI bit-stability diffs.
fn report(mut a: Args) -> Done {
    let dir = a.required("--store")?;
    let opts = ffc_fleet::ReportOptions {
        top_links: a.parsed("--top", 10)?,
        include_timing: !a.flag("--no-timing"),
    };
    let html = a.value("--html")?;
    let fingerprint = a.flag("--fingerprint");
    a.finish()?;
    let store = ffc_fleet::TelemetryStore::open(Path::new(&dir))?;
    if fingerprint {
        println!("{}", store.fingerprint());
        return Ok(ExitCode::SUCCESS);
    }
    let report = ffc_fleet::build_report(&store, &opts);
    print!("{}", report.to_text(&opts));
    if let Some(p) = &html {
        write_file(p, report.to_html(&opts))?;
        eprintln!("wrote {p}");
    }
    Ok(ExitCode::SUCCESS)
}

/// `ffc digest STORE`: a store's decision digest on stdout. `ffc digest
/// diff PARENT CHANGE`: two digest files compared; the last line is the
/// class, and `changed` exits 1.
fn digest(mut a: Args) -> Done {
    let first = a.need_word("a store directory or 'diff'")?;
    if first != "diff" {
        a.finish()?;
        let store = ffc_fleet::TelemetryStore::open(Path::new(&first))?;
        print!("{}", ffc_fleet::Digest::of(store.records()).to_text());
        return Ok(ExitCode::SUCCESS);
    }
    a.cmd = "digest diff".into();
    let parent_path = a.need_word("a parent digest")?;
    let change_path = a.need_word("a change digest")?;
    a.finish()?;
    let read = |p: &String| ffc_fleet::Digest::parse(&read_file(p)?).map_err(ctx(p));
    let d = ffc_fleet::digest::diff(&read(&parent_path)?, &read(&change_path)?);
    print!("{}", d.to_text());
    Ok(verdict(d.class != ffc_fleet::Class::Changed))
}
