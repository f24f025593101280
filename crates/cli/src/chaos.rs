//! `ffc chaos [crash | replay]`: the deterministic fault-injection
//! harness. Without `--topo/--traffic` it drives the built-in S-Net
//! topology with gravity-model traffic. Stdout is deterministic for a
//! fixed seed — CI diffs two runs to assert bit-reproducibility.

use std::path::Path;

use ffc_chaos::{check_run, run_chaos, run_crash_suite, ChaosConfig, ChaosInputs};
use ffc_core::FfcConfig;

use crate::args::Args;
use crate::instance::{workload_flags, Instance, Workload};
use crate::{ctx, protection, verdict, write_file, Done, Fail};

/// The flags campaigns of either kind read: the workload, the layout
/// width and the campaign shape.
fn campaign_flags(a: &mut Args) -> Result<(Workload, ChaosConfig), Fail> {
    let workload = workload_flags(a)?;
    let mut cfg = ChaosConfig::new(a.parsed("--seed", 42)?);
    cfg.campaigns = a.parsed("--campaigns", 25)?;
    cfg.intervals = a.parsed("--intervals", 6)?;
    cfg.tunnels_per_flow = a.parsed("--tunnels", 6)?;
    cfg.switch_model = a.choice("--switch-model", &crate::ctrl::SWITCH_MODELS)?;
    let (kc, ke, kv) = protection(a)?;
    if kc + ke + kv > 0 {
        cfg.ffc = FfcConfig::new(kc, ke, kv);
    }
    Ok((workload, cfg))
}

fn inputs(inst: &Instance) -> ChaosInputs<'_> {
    ChaosInputs {
        topo: &inst.topo,
        tunnels: &inst.tunnels,
        tm: &inst.tm,
        topo_text: &inst.topo_text,
        traffic_text: &inst.traffic_text,
    }
}

/// `ffc chaos`: seeded fault-storm campaigns with invariant checks after
/// every interval; `--out-dir` collects the shrunk traces of anything
/// that failed (and of the first over-`k` overload seen).
pub(crate) fn campaigns(mut a: Args) -> Done {
    let (workload, mut cfg) = campaign_flags(&mut a)?;
    let out_dir = a.value("--out-dir")?;
    let store = a.value("--store")?;
    cfg.shape_demand = a.flag("--shape-demand");
    cfg.emit_overload_trace = out_dir.is_some();
    a.finish()?;

    let inst = Instance::from_workload(&workload, cfg.tunnels_per_flow)?;
    if let Some(dir) = &store {
        // Coverage-guided storms: aim faults at the links a previous
        // campaign's telemetry saw running hottest.
        let heat = ffc_fleet::TelemetryStore::open(Path::new(dir))?.link_heat();
        if heat.len() != inst.topo.num_links() {
            return Err(format!(
                "store {dir} records {} links but the topology has {} — \
                 it was captured on a different network",
                heat.len(),
                inst.topo.num_links()
            )
            .into());
        }
        cfg.link_heat = Some(heat);
    }
    let report = run_chaos(&inputs(&inst), &cfg);
    print!("{}", report.summary());
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).map_err(ctx(format_args!("cannot create {dir}")))?;
        for c in &report.campaigns {
            for (suffix, text) in [
                ("violation", &c.failure_trace),
                ("overload", &c.overload_trace),
            ] {
                if let Some(text) = text {
                    let path = format!("{dir}/campaign-{}-{suffix}.trace", c.index);
                    write_file(&path, text)?;
                    eprintln!("wrote {path}");
                }
            }
        }
    }
    Ok(verdict(report.total_violations() == 0))
}

/// `ffc chaos crash`: kill–resume campaigns — crash the checkpointing
/// controller at seeded points and prove the resumed run converges to
/// the uninterrupted run's fingerprint bit for bit.
pub(crate) fn crash(mut a: Args) -> Done {
    let (workload, cfg) = campaign_flags(&mut a)?;
    a.finish()?;
    let inst = Instance::from_workload(&workload, cfg.tunnels_per_flow)?;
    let scratch = std::env::temp_dir().join(format!("ffc-chaos-crash-{}", std::process::id()));
    let report = run_crash_suite(&inputs(&inst), &cfg, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    print!("{}", report.summary());
    Ok(verdict(report.total_violations() == 0))
}

/// `ffc chaos replay TRACE`: re-checks one emitted trace;
/// `--expect-violation` also demands that the over-`k` overload
/// detector fires on it.
pub(crate) fn replay(mut a: Args) -> Done {
    let expect_violation = a.flag("--expect-violation");
    let trace_path = a.need_word("a trace file")?;
    a.finish()?;
    let (events, report) = crate::ctrl::replay_trace(&trace_path)?;
    let check = check_run(&events, &report);
    for v in &check.violations {
        println!("VIOLATION: {v}");
    }
    println!(
        "{}: {} violation(s), {} interval(s) with over-k overloads",
        trace_path,
        check.violations.len(),
        check.observed_overloads
    );
    if check.violations.is_empty() && expect_violation && check.observed_overloads == 0 {
        return Err("expected the overload detector to fire, but it did not".into());
    }
    Ok(verdict(check.violations.is_empty()))
}
