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
        .join(format!("ffc-check-gate-{}-{name}.cfg", std::process::id()))
        .display()
        .to_string();
    let mut args = vec!["solve", "--topo", &topo, "--traffic", &tm, "--out", &cfg];
    args.extend_from_slice(solve_flags);
    let out = ffc(&args);
    assert!(out.status.success(), "solve failed: {out:?}");
    (topo, tm, cfg)
}

fn check(paths: &(String, String, String), flags: &[&str]) -> (Option<i32>, String) {
    let (topo, tm, cfg) = paths;
    let mut args = vec!["check", "--topo", topo, "--traffic", tm, "--config", cfg];
    args.extend_from_slice(flags);
    let out = ffc(&args);
    let first = String::from_utf8_lossy(&out.stdout)
        .lines()
        .next()
        .unwrap_or("")
        .to_string();
    (out.status.code(), first)
}

#[test]
fn check_evaluates_switch_failures_and_counts_each_scenario_once() {
    let paths = solve("diamond", &[]);

    // kv = 0: the fault-free scenario, once.
    let (code, line) = check(&paths, &[]);
    assert_eq!(code, Some(0), "{line}");
    assert!(line.starts_with("OK: 1 fault scenarios checked"), "{line}");

    // kv = 1: fault-free + 4 single-switch failures; losing either
    // transit switch puts all 15 units on one 10-unit path.
    let (code, line) = check(&paths, &["--kv", "1"]);
    assert_eq!(code, Some(1), "{line}");
    assert!(line.starts_with("FAILED: "), "{line}");
    assert!(line.contains("across 5 scenarios"), "{line}");

    let _ = std::fs::remove_file(&paths.2);
}

#[test]
fn check_accepts_the_quickstart_solution_and_still_needs_old_for_kc() {
    let paths = solve("small", &["--ke", "1"]);

    // 1 fault-free + 14 single-link failures.
    let (code, line) = check(&paths, &["--ke", "1"]);
    assert_eq!(code, Some(0), "{line}");
    assert!(line.starts_with("OK: 15 fault scenarios checked"), "{line}");

    let (code, line) = check(&paths, &["--kc", "1"]);
    assert_eq!(code, Some(1));
    assert_eq!(line, "", "the refusal goes to stderr, no verdict line");

    let _ = std::fs::remove_file(&paths.2);
}
