//! `ffc ctrl run | resume | replay`: the online controller loop.

use std::path::Path;
use std::process::ExitCode;

use ffc_core::FfcConfig;
use ffc_ctrl::{
    config_digest, generate_poisson_events, recover_latest, Checkpointer, Controller,
    ControllerConfig, ControllerReport, EventTrace, IntervalSink, SolvePath, SupervisorConfig,
    TimedEvent,
};
use ffc_sim::SwitchModel;

use crate::args::Args;
use crate::instance::{Instance, RunInputs};
use crate::{ctx, protection, write_file, Done, Fail};

/// `[--switch-model realistic|optimistic]`, for [`Args::choice`].
pub(crate) const SWITCH_MODELS: [(&str, SwitchModel); 2] = [
    ("realistic", SwitchModel::Realistic),
    ("optimistic", SwitchModel::Optimistic),
];

/// `ffc ctrl run`: a live run over a seeded Poisson event stream. (Not `run`:
/// the analyzer would bind `Model::solve_with`'s `run` closure to that name.)
pub(crate) fn run_live(mut a: Args) -> Done {
    let topo_path = a.required("--topo")?;
    let traffic_path = a.required("--traffic")?;
    let (kc, ke, kv) = protection(&mut a)?;
    let tunnels_per_flow = a.parsed("--tunnels", 6)?;
    let intervals = a.parsed("--intervals", 6)?;
    let switch_model = a.choice("--switch-model", &SWITCH_MODELS)?;
    let mut cfg = ControllerConfig::new(FfcConfig::new(kc, ke, kv), switch_model);
    cfg.seed = a.parsed("--seed", 42)?;
    let jitter = a.parsed("--jitter", 0.05)?;
    let (out, store) = (a.value("--out")?, a.value("--store")?);
    let ckpt_dir = a.value("--ckpt-dir")?;
    let supervise = a.flag("--supervise");
    let sup_cfg = SupervisorConfig {
        max_restarts: a.parsed("--max-restarts", 3)?,
        ..SupervisorConfig::default()
    };
    if supervise && ckpt_dir.is_none() {
        return a.usage("--supervise needs --ckpt-dir (restarts resume from it)");
    }
    if supervise && store.is_some() {
        return a.usage("--supervise cannot stream to --store (no sink survives a restart)");
    }
    a.finish()?;

    let inst = Instance::from_files(&topo_path, Some(&traffic_path), tunnels_per_flow)?;
    let run = RunInputs {
        events: generate_poisson_events(
            &inst.topo,
            &ffc_sim::FaultModel::default(),
            cfg.seed,
            intervals,
            cfg.interval_secs,
            jitter,
        ),
        inst,
        cfg,
        intervals,
    };
    let trace_text = |events: &[TimedEvent]| {
        let trace = EventTrace {
            header: run.cfg.to_header(intervals, tunnels_per_flow),
            topo_text: run.inst.topo_text.clone(),
            traffic_text: run.inst.traffic_text.clone(),
            events: events.to_vec(),
        };
        trace.to_text()
    };
    // A checkpoint directory is self-contained: the run's full inputs
    // land in run.trace before the first interval, so
    // `ffc ctrl resume --ckpt-dir DIR` needs nothing else.
    if let Some(dir) = &ckpt_dir {
        std::fs::create_dir_all(dir).map_err(ctx(format_args!("cannot create {dir}")))?;
        write_file(&format!("{dir}/run.trace"), trace_text(&run.events))?;
    }
    let ckpt_dir = ckpt_dir.as_deref().map(Path::new);
    let mut sink = match &store {
        Some(dir) => Some(ffc_fleet::StoreWriter::create(
            Path::new(dir),
            ffc_fleet::link_names(&run.inst.topo),
        )?),
        None => None,
    };
    let report = if supervise {
        let sup =
            ffc_ctrl::run_supervised(&sup_cfg, |attempt| pass(&run, ckpt_dir, attempt > 0, None));
        for (i, c) in sup.crashes.iter().enumerate() {
            eprintln!("supervisor: attempt {i} crashed: {c}");
        }
        if sup.restarts > 0 {
            eprintln!("supervisor: completed after {} restart(s)", sup.restarts);
        }
        sup.into_result().map_err(ctx("supervisor"))??
    } else {
        let sink = sink.as_mut().map(|w| w as &mut dyn IntervalSink);
        pass(&run, ckpt_dir, false, sink)?
    };

    // One tail for both branches, so `--out` holds under `--supervise`.
    let (report, durable) = report;
    emit(&report, durable);
    if let (Some(w), Some(dir)) = (sink, &store) {
        let segments = w.finish().map_err(ctx("telemetry store"))?;
        eprintln!("sealed telemetry store in {dir} ({segments} segment(s))");
    }
    if let Some(p) = &out {
        write_file(p, trace_text(&report.recorded_events))?;
        eprintln!("wrote replayable trace to {p}");
    }
    Ok(ExitCode::SUCCESS)
}

/// `ffc ctrl resume`: everything needed to finish the run lives in the
/// checkpoint directory — run.trace carries the inputs, the newest
/// valid ckpt-*.ffck carries the state.
pub(crate) fn resume(mut a: Args) -> Done {
    let dir = a.required("--ckpt-dir")?;
    a.finish()?;
    let run = Instance::from_trace(&format!("{dir}/run.trace"))?;
    let (report, durable) = pass(&run, Some(Path::new(&dir)), true, None)?;
    emit(&report, durable);
    Ok(ExitCode::SUCCESS)
}

/// What durability cost one pass: checkpoints written, and the bytes of
/// them and of the history log's appends together.
type DurableCost = Option<(u64, u64)>;

/// One live pass over `run`'s events, checkpointing into `ckpt_dir` if
/// there is one and, with `recover`, picking up from its newest valid
/// checkpoint: what `ctrl run`, each supervised attempt and
/// `ctrl resume` all do.
fn pass(
    run: &RunInputs,
    ckpt_dir: Option<&Path>,
    recover: bool,
    sink: Option<&mut dyn IntervalSink>,
) -> Result<(ControllerReport, DurableCost), String> {
    let RunInputs { inst, cfg, .. } = run;
    let digest = config_digest(cfg, &inst.topo, &inst.tunnels, &inst.tm);
    let mut state = None;
    if let (true, Some(dir)) = (recover, ckpt_dir) {
        let rec = recover_latest(dir, digest)?;
        for n in &rec.notes {
            eprintln!("checkpoint recovery: {n}");
        }
        match rec.checkpoint {
            Some(c) => {
                let next = c.state.next_interval;
                eprintln!(
                    "resuming from {} (next interval {next}), {} history entries read back from {}",
                    c.file,
                    c.state.fingerprints.len() + c.state.recorded.len(),
                    ffc_ctrl::checkpoint::HISTORY_LOG
                );
                state = Some(c.state);
            }
            None => eprintln!(
                "no valid checkpoint in {}; starting from interval 0",
                dir.display()
            ),
        }
    }
    let mut ck = ckpt_dir
        .map(|dir| Checkpointer::create(dir, digest))
        .transpose()?;
    let mut ctrl = Controller::new(&inst.topo, &inst.tunnels, cfg.clone());
    let report = ctrl.run_with_recovery(
        &inst.tm,
        &run.events,
        run.intervals,
        false,
        sink,
        ck.as_mut(),
        state,
    );
    if let Some(e) = ck.as_ref().and_then(|c| c.error()) {
        eprintln!("checkpointing degraded (run continued): {e}");
    }
    let durable = ck.as_ref().map(|c| (c.writes(), c.bytes_written()));
    Ok((report, durable))
}

/// `ffc ctrl replay TRACE`.
pub(crate) fn replay(mut a: Args) -> Done {
    let trace_path = a.need_word("a trace file")?;
    a.finish()?;
    emit(&replay_trace(&trace_path)?.1, None);
    Ok(ExitCode::SUCCESS)
}

/// Re-runs a recorded trace; returns its events with the report.
pub(crate) fn replay_trace(path: &str) -> Result<(Vec<TimedEvent>, ControllerReport), Fail> {
    let run = Instance::from_trace(path)?;
    let mut ctrl = Controller::new(&run.inst.topo, &run.inst.tunnels, run.cfg);
    let report = ctrl.run(&run.inst.tm, &run.events, run.intervals, true);
    Ok((run.events, report))
}

/// What every controller run ends with: the telemetry lines and the
/// fingerprint on stdout, the totals — and, with a checkpoint directory
/// attached, what durability cost — on stderr.
fn emit(report: &ControllerReport, durable: DurableCost) {
    for t in &report.telemetry {
        println!("{}", t.to_json());
    }
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
        .filter(|t| matches!(t.path, SolvePath::WarmDual | SolvePath::WarmPrimal))
        .count();
    // Solving rounds that built the LP instead of patching the standing
    // one (the first always does).
    let rebuilds = report
        .telemetry
        .iter()
        .filter(|t| t.path != SolvePath::RescaleOnly && !t.model_patched)
        .count();
    let durable = durable.map_or(String::new(), |(writes, bytes)| {
        format!(", {writes} checkpoints ({bytes} bytes)")
    });
    eprintln!(
        "{} intervals: delivered {:.1}, lost {:.1} (congestion {:.1} / blackhole {:.1}), \
         {} warm re-solves, {} model rebuilds{durable}",
        report.telemetry.len(),
        report.totals.total_delivered(),
        report.totals.total_lost(),
        report.totals.lost_congestion.iter().sum::<f64>(),
        report.totals.lost_blackhole.iter().sum::<f64>(),
        warm,
        rebuilds
    );
}
