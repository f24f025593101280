//! The run envelope: facts about the host, the build and the source tree
//! that every result file carries beside its metrics, so a number can be
//! traced to what produced it. None of it is a metric.

use std::path::Path;
use std::process::Command;

/// First line of a command's output, or `unknown` when it cannot run
/// (the driver's checkout, for one, is not a git repository).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Lines of Rust under `dir`, recursively.
fn rust_lines(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                rust_lines(&path)
            } else if path.extension().is_some_and(|x| x == "rs") {
                std::fs::read_to_string(&path).map_or(0, |s| s.lines().count())
            } else {
                0
            }
        })
        .sum()
}

/// Lines of Rust per workspace crate (`crates/*`, all targets), sorted by
/// crate name — ROADMAP item 3 asks for the trend.
fn crate_lines(repo_root: &Path) -> Vec<(String, usize)> {
    let Ok(entries) = std::fs::read_dir(repo_root.join("crates")) else {
        return Vec::new();
    };
    let mut out: Vec<(String, usize)> = entries
        .filter_map(Result::ok)
        .filter(|e| e.path().is_dir())
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                rust_lines(&e.path()),
            )
        })
        .collect();
    out.sort();
    out
}

/// The envelope as `"key": value` JSON members (no braces), one per line.
pub fn json_members(repo_root: &Path) -> Vec<String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // What `ffc_audit::certify::kernel_workers` resolves to.
    let workers = std::env::var("FFC_KERNEL_WORKERS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&w| w > 0)
        .unwrap_or(cores);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let loc = crate_lines(repo_root)
        .iter()
        .map(|(name, lines)| format!("\"{name}\": {lines}"))
        .collect::<Vec<_>>()
        .join(", ");
    vec![
        format!("\"available_parallelism\": {cores}"),
        format!("\"kernel_workers\": {workers}"),
        format!("\"profile\": \"{profile}\""),
        format!("\"rustc\": \"{}\"", first_line("rustc", &["-V"])),
        format!(
            "\"git_rev\": \"{}\"",
            first_line("git", &["rev-parse", "HEAD"])
        ),
        format!("\"crate_lines\": {{{loc}}}"),
    ]
}
