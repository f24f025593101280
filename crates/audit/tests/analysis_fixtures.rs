//! The analyzer against its committed bad fixtures: exact findings with
//! full source→sink call chains, deterministic JSON, and the
//! workspace self-analysis pinned to the committed baseline — plus the
//! `lint_holes` fixture, which pins the lint rules and the analyzer to
//! one reading of comments, literals, test scope and suppressions.
//!
//! The fixture mini-crates under `tests/fixtures/` carry their own
//! `Cargo.toml` + `[workspace]` table, so host-workspace discovery
//! skips them by membership construction — asserted here too.

use std::fs;
use std::path::{Path, PathBuf};

use ffc_audit::analysis::taint::FnMatcher;
use ffc_audit::analysis::{self, AnalysisConfig};
use ffc_audit::{lint_workspace, LintConfig};

fn fixture_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

fn s(v: &str) -> String {
    v.to_string()
}

/// `tainted_fp`: determinism taint (time + hash iteration) into the
/// `fingerprint` sink, plus a reachable unwrap.
fn tainted_fp_config() -> AnalysisConfig {
    AnalysisConfig {
        sinks: vec![(s("fp-sink"), FnMatcher::NameContains(s("fingerprint")))],
        roots: vec![(
            s("entry"),
            FnMatcher::QnamePrefix(s("tainted_fp::fingerprint")),
        )],
        max_depth: 64,
    }
}

/// `hot_unwrap`: panic reachability from the `Engine::run` hot loop.
fn hot_unwrap_config() -> AnalysisConfig {
    AnalysisConfig {
        sinks: vec![],
        roots: vec![(
            s("hot-loop"),
            FnMatcher::QnamePrefix(s("hot_unwrap::Engine::run")),
        )],
        max_depth: 64,
    }
}

/// `hash_serial`: hash-ordered serialization sink + unwrap in a
/// Result-returning fn.
fn hash_serial_config() -> AnalysisConfig {
    AnalysisConfig {
        sinks: vec![(s("serial"), FnMatcher::NameContains(s("serialize")))],
        roots: vec![(s("api"), FnMatcher::QnamePrefix(s("hash_serial::")))],
        max_depth: 64,
    }
}

#[test]
fn tainted_fp_reports_exact_findings_with_chains() {
    let report = analysis::analyze_path(&fixture_dir("tainted_fp"), &tainted_fp_config()).unwrap();
    assert_eq!(
        report.keys(),
        vec![
            s("panic-reachable|unwrap|tainted_fp::now_ms"),
            s("taint-determinism|hash-iter|tainted_fp::mix"),
            s("taint-determinism|time|tainted_fp::now_ms"),
        ],
        "full report: {}",
        report.to_text()
    );
    let time = &report.findings[2];
    assert_eq!(time.anchor, "tainted_fp::fingerprint");
    assert_eq!(
        time.chain,
        vec![s("tainted_fp::fingerprint"), s("tainted_fp::now_ms")],
        "source→sink chain must be complete"
    );
    let hash = &report.findings[1];
    assert_eq!(
        hash.chain,
        vec![s("tainted_fp::fingerprint"), s("tainted_fp::mix")]
    );
    assert!(hash.excerpt.contains("for (k, v) in &state"));
}

#[test]
fn hot_unwrap_reports_exact_findings_with_chains() {
    let report = analysis::analyze_path(&fixture_dir("hot_unwrap"), &hot_unwrap_config()).unwrap();
    assert_eq!(
        report.keys(),
        vec![
            s("panic-reachable|expect|hot_unwrap::scale"),
            s("panic-reachable|index|hot_unwrap::Engine::step"),
            s("panic-reachable|rem-nonliteral|hot_unwrap::Engine::step"),
        ],
        "full report: {}",
        report.to_text()
    );
    let expect = &report.findings[0];
    assert_eq!(expect.anchor_label, "hot-loop");
    assert_eq!(
        expect.chain,
        vec![
            s("hot_unwrap::Engine::run"),
            s("hot_unwrap::Engine::step"),
            s("hot_unwrap::scale"),
        ],
        "root→site chain must walk through the method call"
    );
}

#[test]
fn hash_serial_reports_exact_findings() {
    let report =
        analysis::analyze_path(&fixture_dir("hash_serial"), &hash_serial_config()).unwrap();
    assert_eq!(
        report.keys(),
        vec![
            s("panic-reachable|unwrap|hash_serial::parse_first"),
            s("taint-determinism|hash-iter|hash_serial::serialize"),
        ],
        "full report: {}",
        report.to_text()
    );
}

#[test]
fn fixture_json_is_byte_identical_across_runs() {
    for (name, config) in [
        ("tainted_fp", tainted_fp_config()),
        ("hot_unwrap", hot_unwrap_config()),
        ("hash_serial", hash_serial_config()),
    ] {
        let a = analysis::analyze_path(&fixture_dir(name), &config).unwrap();
        let b = analysis::analyze_path(&fixture_dir(name), &config).unwrap();
        assert_eq!(a.to_json(), b.to_json(), "{name}: JSON not deterministic");
    }
}

/// Every construct one of the two pre-merge engines misread (block
/// comment, multi-line / raw string, `"{"` / `"}"` in a test module,
/// `my_env::variable()`, two-line call and comparison, `cfg(all(test,
/// …))`, `cfg(not(test))`, marker text in a string, a comma-separated
/// marker block): the lint reports exactly the production sites, in
/// the bytes `ffc audit lint` prints, and the analyzer agrees with it
/// on what is test-only and what is suppressed.
#[test]
fn lint_holes_pins_both_engines_to_one_reading_of_the_source() {
    let dir = fixture_dir("lint_holes");
    let report = lint_workspace(&LintConfig::new(&dir)).unwrap();
    let got: Vec<(String, usize, &str)> = report
        .violations
        .iter()
        .map(|v| (v.file.display().to_string(), v.line, v.rule))
        .collect();
    let lib = "crates/lp/src/lib.rs";
    let want: Vec<(String, usize, &str)> = [
        (32, "no-unwrap"),        // `.unwrap` / `()` over two lines
        (38, "float-eq"),         // `a ==` / `1.5` over two lines
        (54, "no-unwrap"),        // `#[cfg(not(test))]` is production
        (59, "no-unwrap"),        // marker text in a string literal
        (100, "no-unwrap"),       // after the `"{"` / `"}"` test module …
        (104, "float-eq"),        // … every rule
        (108, "no-process-exit"), // … still sees code
    ]
    .into_iter()
    .map(|(line, rule)| (s(lib), line, rule))
    .collect();
    assert_eq!(got, want);

    // The committed transcript CI diffs the binary's stdout against.
    let mut stdout: String = report.violations.iter().map(|v| format!("{v}\n")).collect();
    stdout.push_str("1 file(s) scanned, 7 violation(s)\n");
    assert_eq!(
        stdout,
        fs::read_to_string(dir.join("expected.txt")).unwrap(),
        "expected.txt drifted from `ffc audit lint` on the fixture"
    );

    let config = AnalysisConfig {
        sinks: vec![],
        roots: vec![(s("hot"), FnMatcher::QnamePrefix(s("lint_holes::hot_loop")))],
        max_depth: 64,
    };
    let analysis = analysis::analyze_path(&dir, &config).unwrap();
    assert_eq!(
        analysis.keys(),
        vec![
            s("panic-reachable|unwrap|lint_holes::helper_a"),
            s("panic-reachable|unwrap|lint_holes::marker_in_string"),
            s("panic-reachable|unwrap|lint_holes::split_unwrap"),
        ],
        "`reviewed` carries the marker; full report: {}",
        analysis.to_text()
    );
}

#[test]
fn fixtures_are_invisible_to_host_workspace_analysis() {
    let model = analysis::build_model(&workspace_root()).unwrap();
    for krate in &model.crates {
        for file in &krate.files {
            assert!(
                !file.rel.contains("tests/fixtures/"),
                "fixture leaked into host analysis: {}::{}",
                krate.name,
                file.rel
            );
        }
    }
}

/// The committed workspace baseline is exactly the current self-analysis:
/// no new findings (ratchet would fail CI) and no stale entries (fixed
/// findings must be deleted from the baseline, keeping it honest).
#[test]
fn workspace_self_analysis_matches_committed_baseline() {
    let root = workspace_root();
    let report = analysis::analyze_path(&root, &AnalysisConfig::workspace_default()).unwrap();
    let body = fs::read_to_string(root.join("crates/audit/workspace.baseline"))
        .expect("crates/audit/workspace.baseline must be committed");
    let baseline = analysis::parse_baseline(&body);
    let res = analysis::ratchet(&report, &baseline);
    assert!(
        res.ok(),
        "workspace drifted from baseline.\nnew: {:#?}\nstale: {:#?}\n\
         regenerate with: cargo run -p ffc-cli --bin ffc -- audit analyze \
         --write-baseline crates/audit/workspace.baseline",
        res.new,
        res.stale
    );
}
