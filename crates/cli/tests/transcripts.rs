//! Golden transcripts of the `ffc` binary: every subcommand on the small
//! committed fixtures, stdout and exit code pinned byte for byte.
//!
//! The goldens under `tests/transcripts/` were recorded with
//! `FFC_UPDATE_GOLDEN=1 cargo test -p ffc-cli --test transcripts`
//! against the binary of commit 0c42c4b, *before* its argument reader,
//! instance loader and error path were rewritten, and pass unchanged on
//! the rewrite — that is the refactor's proof of equivalence. The same
//! command re-records them after an intentional change of output.
//!
//! Each family runs its table top to bottom from the repository root
//! sharing one scratch directory, written `{tmp}` in the table; earlier
//! rows set up files for later ones. `"solve_ms"` is normalised exactly
//! as CI's `sed` does it. The second half pins what the rewrite changed
//! on purpose: a flag the subcommand does not read is a usage error
//! (exit 2) that names both, and every flag is validated before the
//! first file is touched.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SMALL: &str = "--topo examples/data/small.topo --traffic examples/data/small.tm";
const DIAMOND: &str = "--topo examples/data/diamond.topo --traffic examples/data/diamond.tm";
const THETA: &str = "--topo examples/data/theta.topo --traffic examples/data/theta.tm";
const RUN: &str = "--ke 1 --intervals 5 --seed 11";

/// What a row's stdout is held to.
enum Out {
    /// Equals `tests/transcripts/<name>.stdout`.
    Golden(&'static str),
    /// Equals a file committed elsewhere in the repository.
    Repo(&'static str),
    /// Nothing at all (what there is to say went to stderr or a file).
    Empty,
}
use Out::{Empty, Golden, Repo};

/// `(command line, exit code, stdout)`; `{small}`, `{diamond}`,
/// `{theta}` and `{run}` expand to the constants above.
type Table = &'static [(&'static str, i32, Out)];

#[rustfmt::skip]
const TE: Table = &[
    ("info {small}", 0, Golden("info")),
    ("info --topo examples/data/small.topo", 0, Golden("info-topo-only")),
    ("solve {small} --ke 1", 0, Golden("solve-ke1")),
    // `--out` takes what stdout would have carried.
    ("solve {small} --ke 1 --out {tmp}/next.cfg", 0, Empty),
    ("check {small} --config {tmp}/next.cfg --ke 1", 0, Golden("check-ok")),
    // kc > 0 without --old is refused on stderr, no verdict line.
    ("check {small} --config {tmp}/next.cfg --kc 1", 1, Empty),
    ("solve {diamond} --out {tmp}/diamond.cfg", 0, Empty),
    ("check {diamond} --config {tmp}/diamond.cfg --kv 1", 1, Golden("check-failed")),
];

#[rustfmt::skip]
const CTRL: Table = &[
    // CI diffs these two against each other; here both are held to one
    // golden.
    ("ctrl run {small} {run}", 0, Golden("ctrl-small")),
    ("ctrl replay examples/data/small.trace", 0, Golden("ctrl-small")),
    ("ctrl run {small} {run} --ckpt-dir {tmp}/ck", 0, Golden("ctrl-small")),
    // The run above finished, so resuming it has no interval left to
    // print — only the fingerprint line, unchanged.
    ("ctrl resume --ckpt-dir {tmp}/ck", 0, Golden("ctrl-resume")),
];

#[rustfmt::skip]
const CHAOS: Table = &[
    ("chaos {small} --campaigns 2 --intervals 3", 0, Golden("chaos-small")),
    ("chaos crash {small} --campaigns 2 --intervals 4", 0, Golden("chaos-crash-small")),
    ("chaos replay examples/data/overload.trace --expect-violation", 0, Golden("chaos-replay-overload")),
    // A trace with no over-k overload: the line is printed, then the
    // expectation fails on stderr.
    ("chaos replay examples/data/small.trace --expect-violation", 1, Golden("chaos-replay-small")),
];

#[rustfmt::skip]
const FLEET: Table = &[
    ("fleet run --spec examples/data/mini.fleet.toml --out {tmp}/store", 0, Golden("fleet-mini")),
    ("report --store {tmp}/store --no-timing", 0, Repo("examples/data/mini.fleet.report.txt")),
    ("report --store {tmp}/store --fingerprint", 0, Golden("report-fingerprint")),
];

#[rustfmt::skip]
const AUDIT: Table = &[
    ("audit model {theta} --kc 1 --ke 1", 0, Golden("audit-model-theta")),
    ("audit lint crates/audit/tests/fixtures/lint_holes", 1, Repo("crates/audit/tests/fixtures/lint_holes/expected.txt")),
    // The autofixer is gone: an unknown subcommand like any other.
    ("audit fix --check", 2, Empty),
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/transcripts/{name}.stdout"))
}

fn scratch(family: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ffc-transcripts-{}-{family}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `ffc <line>` from the repository root, so paths print as CI
/// prints them.
fn ffc(tmp: &Path, line: &str) -> Output {
    let line = line
        .replace("{small}", SMALL)
        .replace("{diamond}", DIAMOND)
        .replace("{theta}", THETA)
        .replace("{run}", RUN)
        .replace("{tmp}", &tmp.display().to_string());
    Command::new(env!("CARGO_BIN_EXE_ffc"))
        .current_dir(repo_root())
        .args(line.split_whitespace())
        .output()
        .expect("run ffc")
}

/// `sed 's/"solve_ms": [0-9.e-]*/"solve_ms": X/'`.
fn normalise(stdout: &[u8]) -> String {
    const KEY: &str = "\"solve_ms\": ";
    let text = String::from_utf8_lossy(stdout);
    let mut out = String::with_capacity(text.len());
    let mut rest = &text[..];
    while let Some(at) = rest.find(KEY) {
        out.push_str(&rest[..at + KEY.len()]);
        out.push('X');
        rest = rest[at + KEY.len()..]
            .trim_start_matches(|c: char| c.is_ascii_digit() || ".e-".contains(c));
    }
    out.push_str(rest);
    out
}

/// Runs a family's rows top to bottom in one scratch directory.
fn run_table(family: &str, rows: Table) {
    let tmp = scratch(family);
    for (line, code, expect) in rows {
        let out = ffc(&tmp, line);
        let stdout = normalise(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(*code), "ffc {line}\n{stderr}");
        let golden = match expect {
            Golden(name) => {
                // audit:allow(no-env-var): the re-record switch of a test helper
                if std::env::var("FFC_UPDATE_GOLDEN").is_ok() {
                    std::fs::write(golden_path(name), &stdout).expect("write golden");
                }
                golden_path(name)
            }
            Repo(path) => repo_root().join(path),
            Empty => {
                assert_eq!(stdout, "", "ffc {line} wrote to stdout");
                continue;
            }
        };
        let want = std::fs::read_to_string(&golden).expect("read golden");
        assert_eq!(stdout, want, "ffc {line} drifted from {}", golden.display());
    }
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn info_solve_check() {
    run_table("te", TE);
}

#[test]
fn ctrl_run_replay_resume() {
    run_table("ctrl", CTRL);
}

#[test]
fn chaos_campaigns_crash_replay() {
    run_table("chaos", CHAOS);
}

#[test]
fn fleet_run_and_report() {
    run_table("fleet", FLEET);
}

#[test]
fn audit_model_lint_fix_analyze() {
    run_table("audit", AUDIT);
    // The analyzer's findings move with the source tree, so they have no
    // golden; what is pinned is that two runs agree byte for byte.
    let tmp = scratch("analyze");
    let a = ffc(&tmp, "audit analyze --json");
    let b = ffc(&tmp, "audit analyze --json");
    assert_eq!(a.status.code(), Some(0));
    assert!(!a.stdout.is_empty());
    assert_eq!(a.stdout, b.stdout);
    let _ = std::fs::remove_dir_all(&tmp);
}

/// Files the binary writes are part of the contract too.
#[test]
fn written_files_match_stdout_and_the_committed_trace() {
    let tmp = scratch("files");
    let read = |p: PathBuf| std::fs::read_to_string(p).expect("read");
    let committed_trace = read(repo_root().join("examples/data/small.trace"));

    let out = ffc(&tmp, "solve {small} --ke 1 --out {tmp}/next.cfg");
    assert!(out.status.success());
    assert_eq!(read(tmp.join("next.cfg")), read(golden_path("solve-ke1")));

    let out = ffc(&tmp, "ctrl run {small} {run} --out {tmp}/run.trace");
    assert!(out.status.success());
    assert_eq!(read(tmp.join("run.trace")), committed_trace);

    // `--supervise` shares the post-run tail with the plain run: same
    // stdout, and `--out` is honoured (it used to be dropped silently).
    let out = ffc(
        &tmp,
        "ctrl run {small} {run} --ckpt-dir {tmp}/ck --supervise --out {tmp}/sup.trace",
    );
    assert!(out.status.success(), "{out:?}");
    assert_eq!(normalise(&out.stdout), read(golden_path("ctrl-small")));
    assert_eq!(read(tmp.join("sup.trace")), committed_trace);
    let _ = std::fs::remove_dir_all(&tmp);
}

/// What goes to stderr beside the goldens' stdout: with a checkpoint
/// directory attached the summary line ends with what durability cost,
/// and a resume says how much history it read back. And the history log
/// is the run's, not the directory's: a second run of the same
/// configuration over other events (the jitter is not in the digest)
/// into the same directory starts the log afresh, so a resume continues
/// the second run — not its checkpoint over the first run's entries.
#[test]
fn a_checkpoint_directory_reports_its_cost_and_belongs_to_its_last_run() {
    let tmp = scratch("ckpt-cost");
    let stderr = |out: &Output| String::from_utf8_lossy(&out.stderr).into_owned();
    let fingerprint = |out: &Output| {
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let line = stdout.lines().rfind(|l| l.starts_with("fingerprint "));
        line.expect("a fingerprint line").to_string()
    };

    let plain = ffc(&tmp, "ctrl run {small} {run}");
    assert!(
        !stderr(&plain).contains("checkpoints"),
        "{}",
        stderr(&plain)
    );

    let first = ffc(
        &tmp,
        "ctrl run {small} {run} --ckpt-dir {tmp}/ck --jitter 0.05",
    );
    assert!(first.status.success(), "{first:?}");
    let summary = stderr(&first);
    let summary = summary.lines().find(|l| l.starts_with("5 intervals: "));
    let cost = summary
        .and_then(|l| l.split_once(" model rebuilds, "))
        .unwrap_or_else(|| panic!("no durability cost in {:?}", stderr(&first)))
        .1;
    let (writes, bytes) = cost
        .split_once(" checkpoints (")
        .expect("N checkpoints (B bytes)");
    let bytes = bytes
        .strip_suffix(" bytes)")
        .expect("N checkpoints (B bytes)");
    let (writes, bytes): (u64, u64) = (writes.parse().expect("N"), bytes.parse().expect("B"));
    let log = std::fs::metadata(tmp.join("ck/history.ffhl")).expect("history.ffhl");
    assert!(writes > 5 && bytes > log.len(), "{cost}");

    let second = ffc(
        &tmp,
        "ctrl run {small} {run} --ckpt-dir {tmp}/ck --jitter 0.3",
    );
    assert!(second.status.success(), "{second:?}");
    assert_ne!(fingerprint(&first), fingerprint(&second));
    let resumed = ffc(&tmp, "ctrl resume --ckpt-dir {tmp}/ck");
    assert!(resumed.status.success(), "{resumed:?}");
    assert_eq!(fingerprint(&resumed), fingerprint(&second));
    let note = stderr(&resumed);
    assert!(
        note.contains("(next interval 5), ")
            && note.contains(" history entries read back from history.ffhl"),
        "{note}"
    );
    let _ = std::fs::remove_dir_all(&tmp);
}

/// A crash-shaped store whose WAL carries a non-finite utilization used
/// to panic `ffc report` (exit 101, `finite samples` in `percentile`):
/// the line is a recovery note and the report is rendered without it.
#[test]
fn report_survives_a_wal_line_with_nan_utilization() {
    let tmp = scratch("nan-wal");
    let live = ffc(
        &tmp,
        "ctrl run {small} --ke 1 --intervals 3 --seed 11 --store {tmp}/s",
    );
    assert!(live.status.success(), "{live:?}");
    let links = std::fs::read_to_string(tmp.join("s/links.txt")).expect("links.txt");
    let util = vec!["0.5"; links.lines().count() - 1].join(", ");
    let wal: String = String::from_utf8_lossy(&live.stdout)
        .lines()
        .take(2)
        .map(|l| format!("{}, \"util\": [NaN, {util}]}}\n", l.trim_end_matches('}')))
        .collect();
    let crash = tmp.join("crash");
    std::fs::create_dir_all(&crash).expect("mkdir");
    std::fs::write(crash.join("links.txt"), links).expect("links.txt");
    std::fs::write(crash.join("wal.jsonl"), wal).expect("wal.jsonl");

    let out = ffc(&tmp, "report --store {tmp}/crash");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let note = stdout.lines().find(|l| l.starts_with("recovery:"));
    let note = note.unwrap_or_else(|| panic!("no recovery line in\n{stdout}"));
    assert!(note.contains("wal.jsonl line 1:"), "{note}");
    let _ = std::fs::remove_dir_all(&tmp);
}

/// `(command line, exit code, substrings stderr must carry)`; stdout
/// stays empty.
#[rustfmt::skip]
const REFUSALS: &[(&str, i32, &[&str])] = &[
    // A flag the subcommand never reads names itself and the subcommand.
    ("info --topo examples/data/small.topo --out x", 2, &["--out", "info"]),
    ("info --topo x --kc 1", 2, &["--kc", "info"]),
    ("solve --topo a --traffic b --seed 1", 2, &["--seed", "solve"]),
    ("check --topo a --traffic b --config c --tunnels 3", 2, &["--tunnels", "check"]),
    ("ctrl replay examples/data/small.trace --seed 9", 2, &["--seed", "ctrl replay"]),
    ("ctrl replay --seed 9 examples/data/small.trace", 2, &["--seed", "ctrl replay"]),
    ("ctrl run --topo a --traffic b --expect-violation", 2, &["--expect-violation", "ctrl run"]),
    ("ctrl run --topo a --traffic b --no-incremental", 2, &["--no-incremental", "ctrl run"]),
    ("ctrl resume --ckpt-dir ck --intervals 3", 2, &["--intervals", "ctrl resume"]),
    ("chaos --json", 2, &["--json", "chaos"]),
    ("chaos replay examples/data/overload.trace --campaigns 2", 2, &["--campaigns", "chaos replay"]),
    ("chaos crash --out-dir d", 2, &["--out-dir", "chaos crash"]),
    ("fleet run --spec s --out o --kc 1", 2, &["--kc", "fleet run"]),
    ("report --store X --kc 1", 2, &["--kc", "report"]),
    ("audit lint --json", 2, &["--json", "audit lint"]),
    ("audit model --baseline b", 2, &["--baseline", "audit model"]),
    ("audit analyze --check", 2, &["--check", "audit analyze"]),
    ("info --topo a --topo b", 2, &["--topo", "info"]),
    ("info a --topo b", 2, &["'a'", "info"]),
    // Validation comes before the first file is touched: the bogus flag
    // wins over the unreadable topology.
    ("info --topo /nonexistent/x.topo --bogus", 2, &["--bogus"]),
    // Values: missing, not a number, not one of the choices.
    ("info --topo", 2, &["--topo needs a value"]),
    ("solve --topo a --traffic b --kc x", 2, &["--kc", "'x'"]),
    ("ctrl run --topo a --traffic b --switch-model fast", 2, &["--switch-model", "'fast'", "optimistic"]),
    // Required flags, words and combinations.
    ("solve --topo examples/data/small.topo", 2, &["solve needs --traffic"]),
    ("report", 2, &["report needs --store"]),
    ("ctrl replay", 2, &["ctrl replay needs a trace file"]),
    ("chaos --topo a", 2, &["chaos needs both --topo and --traffic"]),
    ("ctrl run --topo a --traffic b --supervise", 2, &["--supervise needs --ckpt-dir"]),
    ("", 2, &["ffc needs a command"]),
    ("--help", 2, &[]),
    ("solve --help", 2, &[]),
    ("frobnicate", 2, &["no command 'frobnicate'"]),
    ("ctrl", 2, &["ctrl needs a subcommand"]),
    ("ctrl frob", 2, &["no command 'ctrl frob'"]),
    ("audit frob", 2, &["no command 'audit frob'"]),
    ("fleet frob", 2, &["no command 'fleet frob'"]),
    ("chaos frob", 2, &["no command 'chaos frob'"]),
    // Run-time failures exit 1 and print no synopsis.
    ("info --topo /nonexistent/x.topo", 1, &["cannot read /nonexistent/x.topo"]),
    ("ctrl replay /nonexistent/x.trace", 1, &["cannot read /nonexistent/x.trace"]),
    ("ctrl resume --ckpt-dir /nonexistent", 1, &["cannot read /nonexistent/run.trace"]),
    ("report --store /nonexistent/store", 1, &[]),
    // A header value the controller cannot run on is refused where it
    // is read (it used to replay to `NaN` volumes and exit 0).
    ("ctrl replay {tmp}/nan.trace", 1, &["nan.trace: line 3: header `interval-secs`"]),
];

#[test]
fn refusals_name_what_was_wrong() {
    let tmp = scratch("refusals");
    let trace = std::fs::read_to_string(repo_root().join("examples/data/small.trace"))
        .expect("small.trace")
        .replace("interval-secs 300", "interval-secs NaN");
    std::fs::write(tmp.join("nan.trace"), trace).expect("nan.trace");
    for (line, code, needles) in REFUSALS {
        let out = ffc(&tmp, line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(*code), "ffc {line}\n{stderr}");
        assert!(out.stdout.is_empty(), "ffc {line} wrote to stdout");
        for n in *needles {
            assert!(stderr.contains(n), "ffc {line}: no '{n}' in\n{stderr}");
        }
        // The synopsis goes with usage errors and only with them.
        assert_eq!(
            stderr.contains("usage: ffc"),
            *code == 2,
            "ffc {line}\n{stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&tmp);
}

/// `--supervise` with `--store` is refused *before* the checkpoint
/// directory is created (it used to leave `ck/run.trace` behind).
#[test]
fn refused_run_leaves_no_files_behind() {
    let tmp = scratch("sideeffects");
    let out = ffc(
        &tmp,
        "ctrl run {small} --ckpt-dir {tmp}/ck --supervise --store {tmp}/s",
    );
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(!tmp.join("ck").exists());
    assert!(!tmp.join("s").exists());
    let _ = std::fs::remove_dir_all(&tmp);
}
