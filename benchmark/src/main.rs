//! `ffc-benchmark run` — the command `BENCHMARK.json` names.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! ```
//!
//! With `--workload`, runs that workload in this process, prints every
//! metric by name with its unit, writes `benchmark/out/<run>.json`
//! (metrics + run envelope; a traced run also writes its span log), and
//! ends with the one-line JSON result the driver reads. Without it, runs
//! the four workloads in sequence, each in a fresh child process, so that
//! `peak_rss_mb` is per workload and nothing competes for the cores.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use ffc_benchmark::envelope;
use ffc_benchmark::run::{run, Outcome, RunArgs, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ffc-benchmark run [--workload {}] [--seed N] [--seconds S] [--trace 0|1] [--quick]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) != Some("run") {
        return usage();
    }
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut quick = false;
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str);
        let ok = match flag.as_str() {
            "--workload" => value().map(|v| workload = Some(v.to_string())).is_some(),
            "--seed" => value()
                .and_then(|v| v.parse().ok())
                .map(|v| seed = v)
                .is_some(),
            "--seconds" => value()
                .and_then(|v| v.parse().ok())
                .filter(|s: &f64| s.is_finite() && *s > 0.0)
                .map(|v| seconds = v)
                .is_some(),
            "--trace" => match value() {
                Some("0") => true,
                Some("1") => {
                    trace = true;
                    true
                }
                _ => false,
            },
            "--quick" => {
                quick = true;
                true
            }
            _ => false,
        };
        if !ok {
            eprintln!("bad argument `{flag}`");
            return usage();
        }
    }

    let Some(workload) = workload else {
        return run_all(&argv);
    };
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out_dir = bench_dir.join("out");
    let args = RunArgs {
        workload,
        seed,
        seconds,
        trace,
        quick,
        scratch: out_dir.join(format!("tmp-{}", std::process::id())),
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("{}: metric {} is not a number", args.workload, m.name);
        return ExitCode::FAILURE;
    }

    print_human(&args, &outcome);
    if let Err(e) = write_results(&args, &outcome, &out_dir, bench_dir) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}

/// The four workloads in sequence, one fresh child process each.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args(argv)
            .args(["--workload", w])
            .status();
        all_ok &= status.is_ok_and(|s| s.success());
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_human(args: &RunArgs, o: &Outcome) {
    println!(
        "{} seed {} ({}, closed loop, one client{})",
        args.workload,
        args.seed,
        if args.trace {
            "traced run: per-layer metrics"
        } else {
            "tracing off: end-to-end metrics"
        },
        if args.quick {
            "; quick: numbers not comparable"
        } else {
            ""
        }
    );
    for (k, v) in &o.facts {
        println!("  {k:<34} {v}");
    }
    for m in &o.metrics {
        let n = m.samples.map_or(String::new(), |n| format!("  (n = {n})"));
        println!("  {:<34} {:>16.6} {}{n}", m.name, m.value, m.unit);
    }
    println!(
        "  operations: {} attempted, {} failed; output checks: {}",
        o.attempted,
        o.failed,
        if o.correct { "passed" } else { "FAILED" }
    );
    for f in &o.check_failures {
        println!("  check failed: {f}");
    }
}

fn metrics_json(o: &Outcome) -> String {
    o.metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// The one-line result the driver reads.
fn result_line(o: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics_json(o)
    )
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Writes `<out>/<workload>-seed<N>-trace<0|1>.json` and, for a traced
/// run, `<out>/trace-<workload>.json`.
fn write_results(
    args: &RunArgs,
    o: &Outcome,
    out_dir: &Path,
    bench_dir: &Path,
) -> Result<(), String> {
    let write = |path: PathBuf, text: String| {
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let mut members = vec![
        format!("\"workload\": {}", json_string(&args.workload)),
        format!("\"seed\": {}", args.seed),
        format!("\"seconds\": {}", args.seconds),
        format!("\"traced\": {}", args.trace),
        format!("\"quick\": {}", args.quick),
    ];
    members.extend(
        o.facts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", json_string(v))),
    );
    members.extend(envelope::json_members(&bench_dir.join("..")));
    members.push(format!(
        "\"check_failures\": [{}]",
        o.check_failures
            .iter()
            .map(|f| json_string(f))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    members.push(format!("\"result\": {}", result_line(o)));
    let name = format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    write(
        out_dir.join(name),
        format!("{{\n  {}\n}}\n", members.join(",\n  ")),
    )?;
    if let Some(tr) = &o.trace {
        write(
            out_dir.join(format!("trace-{}.json", args.workload)),
            tr.to_json() + "\n",
        )?;
    }
    Ok(())
}
