//! `ffc audit lint | analyze | model`: the static verification
//! layer from the command line.
//!
//! * `lint` checks the source tree rooted at `DIR` (default: the current
//!   directory) against the workspace hygiene rules — unwrap/expect in
//!   solver/controller hot paths, float `==` against literals,
//!   wall-clock or ambient randomness in replay-deterministic modules,
//!   missing `#![forbid(unsafe_code)]`, process exits and environment
//!   reads outside entrypoints — on the analyzer's token stream, and
//!   exits non-zero on any violation.
//! * `analyze` runs the interprocedural analyzer (determinism taint
//!   into replay-critical sinks, panic reachability from hot-loop
//!   roots) and prints findings with full call chains (`--json` for
//!   machine output). With `--baseline FILE` it ratchets: findings not
//!   in the baseline fail, and so do stale baseline entries.
//!   `--write-baseline FILE` regenerates the baseline.
//! * `model` builds the FFC model for a workload (built-in S-Net with
//!   gravity traffic unless `--topo/--traffic` are given) and runs the
//!   static model auditor over it: LP hygiene plus the FFC structural
//!   invariants. Exits non-zero on any error-severity finding.

use std::path::Path;
use std::process::ExitCode;

use ffc_audit::analysis;
use ffc_core::{build_ffc_model, FfcConfig, TeConfig, TeProblem};

use crate::args::Args;
use crate::instance::{workload_flags, Instance};
use crate::{ctx, protection, read_file, verdict, write_file, Done, Fail};

/// `[DIR]`, then nothing else.
fn root_and_finish(mut a: Args) -> Result<String, Fail> {
    let root = a.word().unwrap_or_else(|| ".".to_string());
    a.finish()?;
    Ok(root)
}

/// `ffc audit lint [DIR]`.
pub(crate) fn lint(a: Args) -> Done {
    let root = root_and_finish(a)?;
    let report = ffc_audit::lint_workspace(&ffc_audit::LintConfig::new(&root))
        .map_err(ctx(format_args!("cannot lint {root}")))?;
    for v in &report.violations {
        println!("{v}");
    }
    println!(
        "{} file(s) scanned, {} violation(s)",
        report.files_scanned,
        report.violations.len()
    );
    Ok(verdict(report.ok()))
}

/// `ffc audit analyze [DIR] [--json] [--baseline FILE]
/// [--write-baseline FILE]`.
pub(crate) fn analyze(mut a: Args) -> Done {
    let json = a.flag("--json");
    let baseline_path = a.value("--baseline")?;
    let write_baseline = a.value("--write-baseline")?;
    let root = root_and_finish(a)?;
    let config = ffc_audit::AnalysisConfig::workspace_default();
    let report = ffc_audit::analyze_path(Path::new(&root), &config)
        .map_err(ctx(format_args!("cannot analyze {root}")))?;
    let text = if json {
        report.to_json()
    } else {
        report.to_text()
    };
    print!("{text}");
    if let Some(path) = &write_baseline {
        write_file(path, report.baseline_body())?;
        eprintln!("wrote {path} ({} finding(s))", report.findings.len());
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(path) = &baseline_path {
        let baseline = analysis::parse_baseline(&read_file(path)?);
        let r = analysis::ratchet(&report, &baseline);
        for k in &r.new {
            eprintln!("NEW (not in baseline): {k}");
        }
        for k in &r.stale {
            eprintln!("STALE (fixed; delete from baseline): {k}");
        }
        if !r.ok() {
            let (new, stale) = (r.new.len(), r.stale.len());
            return Err(
                format!("ratchet failed: {new} new, {stale} stale (baseline {path})").into(),
            );
        }
        eprintln!("ratchet ok: {} finding(s) match {path}", baseline.len());
    }
    Ok(ExitCode::SUCCESS)
}

/// `ffc audit model [--topo FILE --traffic FILE] [--kc N --ke N --kv N]
/// [--tunnels N]`; protection defaults to `(1, 1, 0)`.
pub(crate) fn model(mut a: Args) -> Done {
    let workload = workload_flags(&mut a)?;
    let tunnels_per_flow = a.parsed("--tunnels", 6)?;
    let (kc, ke, kv) = match protection(&mut a)? {
        (0, 0, 0) => (1, 1, 0),
        k => k,
    };
    a.finish()?;
    let inst = Instance::from_workload(&workload, tunnels_per_flow)?;
    let old = TeConfig::zero(&inst.tunnels);
    let builder = build_ffc_model(
        TeProblem::new(&inst.topo, &inst.tm, &inst.tunnels),
        &old,
        &FfcConfig::new(kc, ke, kv),
    );
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
    Ok(verdict(errors == 0))
}
