//! `ffc check` is the controller's gate, driven through the real binary.
//!
//! The check used to be a hand-rolled walk that never read `--kv` and
//! counted the fault-free scenario once per scenario list it built; it
//! now prints the verdict of `ffc_audit::certify` at `--kc/--ke/--kv`.
//! The diamond fixture is the smallest instance that tells the two
//! apart: its one flow has to be split over both transit switches, so a
//! plain TE solution is fine fault-free and overloads the surviving path
//! as soon as either transit switch dies.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn data(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/data")
        .join(name)
}

fn ffc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ffc"))
        .args(args)
        .output()
        .expect("run ffc")
}

/// Solves `<name>.topo` / `<name>.tm` with `solve_flags` into a scratch
/// config and returns `(topo, traffic, config)` paths as strings.
fn solve(name: &str, solve_flags: &[&str]) -> (String, String, String) {
    let topo = data(&format!("{name}.topo")).display().to_string();
    let tm = data(&format!("{name}.tm")).display().to_string();
    let cfg = std::env::temp_dir()
        .join(format!(
            "ffc-check-gate-{}-{name}{}.cfg",
            std::process::id(),
            solve_flags.concat()
        ))
        .display()
        .to_string();
    let mut args = vec!["solve", "--topo", &topo, "--traffic", &tm, "--out", &cfg];
    args.extend_from_slice(solve_flags);
    let out = ffc(&args);
    assert!(out.status.success(), "solve failed: {out:?}");
    (topo, tm, cfg)
}

/// Runs `check` on `paths`; returns the exit code, the first line of
/// stdout (the verdict) and stderr.
fn check(paths: &(String, String, String), flags: &[&str]) -> (Option<i32>, String, String) {
    let (topo, tm, cfg) = paths;
    let mut args = vec!["check", "--topo", topo, "--traffic", tm, "--config", cfg];
    args.extend_from_slice(flags);
    let out = ffc(&args);
    let first = String::from_utf8_lossy(&out.stdout)
        .lines()
        .next()
        .unwrap_or("")
        .to_string();
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    (out.status.code(), first, stderr)
}

#[test]
fn check_evaluates_switch_failures_and_counts_each_scenario_once() {
    let paths = solve("diamond", &[]);

    // kv = 0: the fault-free scenario, once.
    let (code, line, _) = check(&paths, &[]);
    assert_eq!(code, Some(0), "{line}");
    assert!(line.starts_with("OK: 1 fault scenarios checked"), "{line}");

    // kv = 1: fault-free + 4 single-switch failures; losing either
    // transit switch puts all 15 units on one 10-unit path.
    let (code, line, _) = check(&paths, &["--kv", "1"]);
    assert_eq!(code, Some(1), "{line}");
    assert!(line.starts_with("FAILED: "), "{line}");
    assert!(line.contains("across 5 scenarios"), "{line}");

    let _ = std::fs::remove_file(&paths.2);
}

#[test]
fn check_accepts_the_quickstart_solution_and_still_needs_old_for_kc() {
    let paths = solve("small", &["--ke", "1"]);

    // 1 fault-free + 14 single-link failures.
    let (code, line, _) = check(&paths, &["--ke", "1"]);
    assert_eq!(code, Some(0), "{line}");
    assert!(line.starts_with("OK: 15 fault scenarios checked"), "{line}");

    let (code, line, _) = check(&paths, &["--kc", "1"]);
    assert_eq!(code, Some(1));
    assert_eq!(line, "", "the refusal goes to stderr, no verdict line");

    let _ = std::fs::remove_file(&paths.2);
}

/// The stale-ingress half of the gate reads the old allocation as
/// weights, so a `NaN` there turned every stale load into `NaN` — which
/// compares as "within capacity". Same file, same scenario count: the
/// numbers fail, and the `NaN`s are refused at their line instead of
/// certifying.
#[test]
fn check_refuses_a_nan_old_allocation_instead_of_certifying_it() {
    let paths = solve("small", &[]);
    let plain = std::fs::read_to_string(&paths.2).expect("read solved config");
    let rate_of = |flow: &str| {
        plain
            .lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
            .find(|t| t[0] == "rate" && t[1] == flow)
            .map(|t| t[2].to_string())
            .expect("rate line")
    };
    // The old configuration: every flow wholly on its second tunnel.
    let old_with = |second: &dyn Fn(&str) -> String| -> String {
        plain
            .lines()
            .map(|l| match l.split_whitespace().collect::<Vec<_>>()[..] {
                ["alloc", f, "1", _] => format!("alloc {f} 1 {}\n", second(f)),
                ["alloc", f, t, _] => format!("alloc {f} {t} 0\n"),
                _ => format!("{l}\n"),
            })
            .collect()
    };
    let old = format!("{}.old", paths.2);
    let flags = ["--kc", "2", "--old", &old];

    std::fs::write(&old, old_with(&rate_of)).expect("write old config");
    let (code, verdict, _) = check(&paths, &flags);
    assert_eq!(code, Some(1));
    assert!(
        verdict.starts_with("FAILED: 2 violation(s) across 11 scenarios; worst link at 110.0%"),
        "{verdict}"
    );

    let nan = old_with(&|_| "NaN".to_string());
    let line = 1 + nan
        .lines()
        .position(|l| l.ends_with("NaN"))
        .expect("a NaN line");
    std::fs::write(&old, nan).expect("write old config");
    let (code, verdict, stderr) = check(&paths, &flags);
    assert_eq!(code, Some(1));
    assert_eq!(verdict, "", "no verdict for a file that does not parse");
    assert!(
        stderr.contains(&format!("line {line}: allocation must be non-negative")),
        "{stderr}"
    );

    let _ = std::fs::remove_file(&paths.2);
    let _ = std::fs::remove_file(&old);
}
