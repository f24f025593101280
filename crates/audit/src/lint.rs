//! Source lint engine (tentpole pass 3): hand-rolled line/token
//! scanning over the workspace sources, no `syn`, no registry deps.
//!
//! Rules:
//!
//! | rule | scope | what |
//! |---|---|---|
//! | `no-unwrap` | `crates/lp/src`, `crates/ctrl/src` (non-test) | no `unwrap()` / `expect()` on solver/controller hot paths |
//! | `float-eq` | workspace (non-test) | no `==` / `!=` against a float literal |
//! | `nondeterminism` | replay-deterministic modules | no `Instant::now` / `SystemTime` / `rand` |
//! | `forbid-unsafe` | every crate root | `#![forbid(unsafe_code)]` present |
//! | `no-process-exit` | workspace except `src/main.rs` / `src/bin/*.rs` | no `std::process::exit` / `abort` — library code must unwind so the supervisor and crash checkpoints see the failure |
//! | `no-env-var` | workspace except `src/main.rs` / `src/bin/*.rs` | no `std::env::var` / `var_os` / `vars` — a library's behaviour is a function of its arguments; only a process entrypoint may read its environment |
//!
//! Replay-deterministic modules are the ones whose behavior must be a
//! pure function of the recorded seed: `crates/ctrl/src/event.rs`,
//! `crates/ctrl/src/replay.rs`, and `crates/chaos/src/injector.rs`.
//!
//! Suppressions are explicit and carry a justification:
//!
//! ```text
//! // audit:allow(no-unwrap): every caller refactorizes first
//! ```
//!
//! on the offending line or a contiguous comment block immediately
//! above it, or `audit:allow-file(<rule>): reason` anywhere in a file
//! to exempt the whole file. Lines inside `#[cfg(test)]` blocks are
//! skipped (tracked by brace counting).

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Lint configuration.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Workspace root to scan.
    pub root: PathBuf,
}

impl LintConfig {
    /// Lints the workspace rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self { root: root.into() }
    }
}

/// One rule violation.
#[derive(Debug, Clone)]
pub struct LintViolation {
    /// Rule name (`no-unwrap`, `float-eq`, `nondeterminism`,
    /// `forbid-unsafe`, `no-process-exit`, `no-env-var`).
    pub rule: &'static str,
    /// File the violation is in, relative to the scanned root.
    pub file: PathBuf,
    /// 1-based line number (0 for file-level rules).
    pub line: usize,
    /// The offending line, trimmed.
    pub excerpt: String,
}

impl std::fmt::Display for LintViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.excerpt
        )
    }
}

/// Result of a workspace lint run.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All violations, in deterministic (path, line) order.
    pub violations: Vec<LintViolation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Whether the workspace is clean.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Replay-deterministic modules (relative to the root, `/`-separated):
/// files on the replay/fingerprint-critical path, where wall-clock and
/// ambient randomness are outright lint errors. The checkpoint codec
/// and the fleet telemetry store/report are included because their
/// byte output feeds committed goldens and store fingerprints.
pub const DETERMINISTIC_MODULES: &[&str] = &[
    "crates/ctrl/src/checkpoint.rs",
    "crates/ctrl/src/event.rs",
    "crates/ctrl/src/replay.rs",
    "crates/chaos/src/injector.rs",
    "crates/fleet/src/report.rs",
    "crates/fleet/src/store.rs",
];

/// Scope prefixes for the `no-unwrap` rule.
const NO_UNWRAP_SCOPES: &[&str] = &["crates/lp/src", "crates/ctrl/src"];

/// The patterns each rule scans for. Built at runtime from fragments
/// so this file does not flag itself.
struct Patterns {
    unwrap: Vec<String>,
    nondet: Vec<String>,
    forbid_unsafe: String,
    process_exit: Vec<String>,
    env_var: String,
}

impl Patterns {
    fn new() -> Self {
        Self {
            unwrap: vec![[".unw", "rap()"].concat(), [".exp", "ect("].concat()],
            nondet: vec![
                ["Instant::", "now"].concat(),
                ["System", "Time"].concat(),
                ["ra", "nd::"].concat(),
                ["use ra", "nd"].concat(),
            ],
            forbid_unsafe: ["#![forbid(", "unsafe_code)]"].concat(),
            process_exit: vec![
                ["process::", "exit("].concat(),
                ["process::", "abort("].concat(),
            ],
            // Prefix of `var(`, `var_os(`, `vars(` and `vars_os(`.
            env_var: ["env::", "var"].concat(),
        }
    }
}

/// Lints every first-party `.rs` file under `cfg.root`, returning
/// violations in deterministic order.
///
/// The file universe comes from workspace-member enumeration
/// ([`crate::analysis::symbols::workspace_rs_files`]): `target/` and
/// `vendor/*` never appear because they are not members (or are
/// excluded via `[workspace.metadata.audit]`), not because a
/// directory-name skip list happened to catch them. A root without a
/// manifest falls back to a plain recursive walk (nested packages and
/// dot-directories still excluded).
pub fn lint_workspace(cfg: &LintConfig) -> io::Result<LintReport> {
    let files = crate::analysis::symbols::workspace_rs_files(&cfg.root)?;

    let pats = Patterns::new();
    let mut report = LintReport::default();
    for path in &files {
        let rel = path.strip_prefix(&cfg.root).unwrap_or(path).to_path_buf();
        let text = fs::read_to_string(path)?;
        report.files_scanned += 1;
        lint_file(&rel, &text, &pats, &mut report.violations);
    }
    Ok(report)
}

/// Whether `rel` (root-relative) is a crate root that must carry
/// `#![forbid(unsafe_code)]`: a `src/lib.rs`, `src/main.rs`, or
/// `src/bin/*.rs` of a workspace member.
fn is_crate_root(rel: &str) -> bool {
    rel.ends_with("src/lib.rs") || rel.ends_with("src/main.rs") || {
        rel.contains("src/bin/") && rel.ends_with(".rs")
    }
}

/// Whether `rel` is a process entrypoint, where `std::process::exit`
/// is legitimate (everywhere else it would bypass unwinding, so the
/// supervisor would see a silent death and crash checkpoints would
/// skip their drop/flush paths) and where the environment may be read
/// (everywhere else an env read is a hidden argument no caller, test
/// or replay can see).
fn is_entrypoint(rel: &str) -> bool {
    rel.ends_with("src/main.rs") || (rel.contains("src/bin/") && rel.ends_with(".rs"))
}

fn in_scope(rel: &str, scopes: &[&str]) -> bool {
    scopes.iter().any(|s| rel.starts_with(s))
}

/// Extracts every `audit:allow-file(<rule>)` named anywhere in `text`.
fn file_allows(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let marker = ["audit:", "allow-file("].concat();
    for line in text.lines() {
        collect_marker_rules(line, &marker, &mut out);
    }
    out
}

/// Appends the rules named by `marker(rule)` occurrences in `line`.
fn collect_marker_rules(line: &str, marker: &str, out: &mut BTreeSet<String>) {
    let mut rest = line;
    while let Some(pos) = rest.find(marker) {
        rest = &rest[pos + marker.len()..];
        if let Some(end) = rest.find(')') {
            out.insert(rest[..end].trim().to_string());
        }
    }
}

/// Strips line comments and string/char literal *contents* from a
/// line, so patterns never match inside them. (Block comments and
/// multi-line strings are rare in this workspace and not handled.)
fn strip_comments_and_strings(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => break,
            '"' => {
                // Skip the string literal body (handling \" escapes).
                out.push('"');
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                out.push('"');
                continue;
            }
            '\'' if i + 2 < bytes.len() && (bytes[i + 2] == b'\'' || (bytes[i + 1] == b'\\')) => {
                // Char literal ('x' or '\n'); lifetimes don't match
                // this shape.
                while i < bytes.len() {
                    i += 1;
                    if i < bytes.len() && bytes[i] == b'\'' {
                        i += 1;
                        break;
                    }
                }
                continue;
            }
            _ => out.push(c),
        }
        i += 1;
    }
    out
}

/// Whether `code` (already comment/string-stripped) compares against a
/// float literal with `==` or `!=`.
fn has_float_literal_comparison(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        // Byte-wise matching: '='/'!' are ASCII, so slicing at `i` and
        // `i + 2` always lands on char boundaries.
        if matches!(bytes[i], b'=' | b'!')
            && bytes[i + 1] == b'='
            && (i == 0 || !matches!(bytes[i - 1], b'=' | b'!' | b'<' | b'>'))
            && bytes.get(i + 2) != Some(&b'=')
        {
            let left = code[..i].trim_end();
            let right = code[i + 2..].trim_start();
            if ends_with_float_literal(left) || starts_with_float_literal(right) {
                return true;
            }
        }
        i += 1;
    }
    false
}

fn is_float_token(tok: &str) -> bool {
    // 1.0, 0., 1e-9, 1.5e3, 2.0f64 — digits with a '.' or exponent.
    let tok = tok
        .trim_end_matches("f64")
        .trim_end_matches("f32")
        .trim_end_matches('_');
    if tok.is_empty() || !tok.bytes().next().is_some_and(|b| b.is_ascii_digit()) {
        return false;
    }
    let has_dot = tok.contains('.');
    let has_exp = tok[1..].contains(['e', 'E'])
        && tok
            .bytes()
            .all(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'-' | b'+' | b'_'));
    (has_dot || has_exp)
        && tok
            .bytes()
            .all(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'-' | b'+' | b'_'))
}

fn ends_with_float_literal(s: &str) -> bool {
    let start = s
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-' | '+')))
        .map(|p| p + 1)
        .unwrap_or(0);
    is_float_token(s[start..].trim_start_matches(['-', '+']))
}

fn starts_with_float_literal(s: &str) -> bool {
    let s = s.trim_start_matches(['-', '+']);
    let end = s
        .find(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-' | '+')))
        .unwrap_or(s.len());
    is_float_token(&s[..end])
}

fn lint_file(rel: &Path, text: &str, pats: &Patterns, out: &mut Vec<LintViolation>) {
    let rel_str = rel.to_string_lossy().replace('\\', "/");
    let allowed_file = file_allows(text);

    // forbid-unsafe: crate roots must carry the attribute.
    if is_crate_root(&rel_str)
        && !allowed_file.contains("forbid-unsafe")
        && !text.lines().any(|l| l.trim() == pats.forbid_unsafe)
    {
        out.push(LintViolation {
            rule: "forbid-unsafe",
            file: rel.to_path_buf(),
            line: 0,
            excerpt: format!("crate root missing {}", pats.forbid_unsafe),
        });
    }

    let check_unwrap = in_scope(&rel_str, NO_UNWRAP_SCOPES) && !allowed_file.contains("no-unwrap");
    let check_nondet = DETERMINISTIC_MODULES.contains(&rel_str.as_str())
        && !allowed_file.contains("nondeterminism");
    let check_float = !allowed_file.contains("float-eq");
    let library = !is_entrypoint(&rel_str);
    let check_exit = library && !allowed_file.contains("no-process-exit");
    let check_env = library && !allowed_file.contains("no-env-var");
    if !check_unwrap && !check_nondet && !check_float && !check_exit && !check_env {
        return;
    }

    let allow_marker = ["audit:", "allow("].concat();
    // Rules suppressed by a contiguous comment block directly above the
    // current line.
    let mut pending_allows: BTreeSet<String> = BTreeSet::new();
    // Depth tracking for `#[cfg(test)]`-gated blocks.
    let mut test_depth: i64 = 0;
    let mut in_test = false;
    let mut pending_test_attr = false;

    for (ln, raw) in text.lines().enumerate() {
        let lineno = ln + 1;
        let trimmed = raw.trim();

        // Track #[cfg(test)] { ... } regions by brace counting.
        if !in_test && (trimmed.starts_with("#[cfg(test)]") || trimmed.starts_with("#[test]")) {
            pending_test_attr = true;
        }
        let opens = raw.matches('{').count() as i64;
        let closes = raw.matches('}').count() as i64;
        if in_test {
            test_depth += opens - closes;
            if test_depth <= 0 {
                in_test = false;
            }
            continue;
        }
        if pending_test_attr && opens > 0 {
            in_test = true;
            pending_test_attr = false;
            test_depth = opens - closes;
            if test_depth <= 0 {
                in_test = false;
            }
            continue;
        }

        if trimmed.starts_with("//") {
            collect_marker_rules(trimmed, &allow_marker, &mut pending_allows);
            continue;
        }

        // Same-line markers also suppress.
        let mut line_allows = pending_allows.clone();
        collect_marker_rules(raw, &allow_marker, &mut line_allows);
        if !trimmed.is_empty() {
            pending_allows.clear();
        }

        let code = strip_comments_and_strings(raw);
        let mut push = |rule: &'static str| {
            out.push(LintViolation {
                rule,
                file: rel.to_path_buf(),
                line: lineno,
                excerpt: trimmed.to_string(),
            });
        };

        if check_unwrap
            && !line_allows.contains("no-unwrap")
            && pats.unwrap.iter().any(|p| code.contains(p.as_str()))
        {
            push("no-unwrap");
        }
        if check_nondet
            && !line_allows.contains("nondeterminism")
            && pats.nondet.iter().any(|p| code.contains(p.as_str()))
        {
            push("nondeterminism");
        }
        if check_float && !line_allows.contains("float-eq") && has_float_literal_comparison(&code) {
            push("float-eq");
        }
        if check_exit
            && !line_allows.contains("no-process-exit")
            && pats.process_exit.iter().any(|p| code.contains(p.as_str()))
        {
            push("no-process-exit");
        }
        if check_env && !line_allows.contains("no-env-var") && code.contains(pats.env_var.as_str())
        {
            push("no-env-var");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ffc-audit-lint-{}-{}", std::process::id(), tag));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("crates/lp/src")).unwrap();
        dir
    }

    fn lint_src(tag: &str, body: &str) -> LintReport {
        let dir = scratch_dir(tag);
        fs::write(dir.join("crates/lp/src/lib.rs"), body).unwrap();
        let report = lint_workspace(&LintConfig::new(&dir)).unwrap();
        let _ = fs::remove_dir_all(&dir);
        report
    }

    #[test]
    fn seeded_violations_are_caught() {
        let body = r#"
fn f(x: Option<u32>) -> u32 { x.unwrap() }
fn g(a: f64) -> bool { a == 0.5 }
"#;
        let report = lint_src("seeded", body);
        let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"no-unwrap"), "{:?}", report.violations);
        assert!(rules.contains(&"float-eq"), "{:?}", report.violations);
        assert!(rules.contains(&"forbid-unsafe"), "{:?}", report.violations);
    }

    #[test]
    fn clean_file_passes() {
        let body = "#![forbid(unsafe_code)]\nfn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n";
        let report = lint_src("clean", body);
        assert!(report.ok(), "{:?}", report.violations);
        assert_eq!(report.files_scanned, 1);
    }

    #[test]
    fn allow_markers_suppress() {
        let body = r#"#![forbid(unsafe_code)]
// audit:allow(no-unwrap): justified by the test
fn f(x: Option<u32>) -> u32 { x.unwrap() }
fn g(x: Option<u32>) -> u32 { x.unwrap() } // audit:allow(no-unwrap): inline
"#;
        let report = lint_src("allow", body);
        assert!(report.ok(), "{:?}", report.violations);
    }

    #[test]
    fn allow_file_suppresses_whole_file() {
        let body = r#"#![forbid(unsafe_code)]
// audit:allow-file(float-eq): sparsity guards
fn g(a: f64) -> bool { a == 0.0 }
fn h(a: f64) -> bool { 1.5 != a }
"#;
        let report = lint_src("allow-file", body);
        assert!(report.ok(), "{:?}", report.violations);
    }

    #[test]
    fn cfg_test_blocks_are_skipped() {
        let body = r#"#![forbid(unsafe_code)]
#[cfg(test)]
mod tests {
    fn f(x: Option<u32>) -> u32 { x.unwrap() }
    fn g(a: f64) -> bool { a == 0.5 }
}
"#;
        let report = lint_src("cfgtest", body);
        assert!(report.ok(), "{:?}", report.violations);
    }

    #[test]
    fn strings_and_comments_do_not_match() {
        let body = r#"#![forbid(unsafe_code)]
fn f() -> &'static str { ".unwrap() == 0.5" }
// a comment mentioning .unwrap() and 1.0 == x
"#;
        let report = lint_src("strings", body);
        assert!(report.ok(), "{:?}", report.violations);
    }

    #[test]
    fn nondeterminism_scope_is_module_scoped() {
        let dir = scratch_dir("nondet");
        fs::create_dir_all(dir.join("crates/ctrl/src")).unwrap();
        fs::create_dir_all(dir.join("crates/sim/src")).unwrap();
        let bad = "use std::time::Instant;\nfn f() { let _ = Instant::now(); }\n";
        fs::write(dir.join("crates/ctrl/src/event.rs"), bad).unwrap();
        // Same code outside the deterministic modules is fine.
        fs::write(dir.join("crates/sim/src/timing.rs"), bad).unwrap();
        let report = lint_workspace(&LintConfig::new(&dir)).unwrap();
        let _ = fs::remove_dir_all(&dir);
        let nondet: Vec<_> = report
            .violations
            .iter()
            .filter(|v| v.rule == "nondeterminism")
            .collect();
        assert_eq!(nondet.len(), 1, "{:?}", report.violations);
        assert!(nondet[0].file.ends_with("crates/ctrl/src/event.rs"));
    }

    #[test]
    fn float_comparison_detection_shapes() {
        assert!(has_float_literal_comparison("a == 0.5"));
        assert!(has_float_literal_comparison("0.0 == a"));
        assert!(has_float_literal_comparison("x != 1e-9"));
        assert!(has_float_literal_comparison("y == 2.0f64"));
        assert!(!has_float_literal_comparison("a == b"));
        assert!(!has_float_literal_comparison("n == 0"));
        assert!(!has_float_literal_comparison("n <= 0.5"));
        assert!(!has_float_literal_comparison("a >= 1.0 && b <= 2.0"));
        assert!(!has_float_literal_comparison("v0.5")); // not a comparison
    }

    #[test]
    fn process_exit_is_forbidden_outside_entrypoints() {
        let body = [
            "#![forbid(unsafe_code)]\nfn die() { std::process::",
            "exit(1); }\n",
        ]
        .concat();
        let report = lint_src("exit", &body);
        let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
        assert!(
            rules.contains(&"no-process-exit"),
            "{:?}",
            report.violations
        );

        let abort = [
            "#![forbid(unsafe_code)]\nfn die() { std::process::",
            "abort(); }\n",
        ]
        .concat();
        let report = lint_src("abort", &abort);
        let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
        assert!(
            rules.contains(&"no-process-exit"),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn process_exit_is_fine_in_entrypoints_and_process_id_never_matches() {
        let dir = scratch_dir("exit-ok");
        fs::create_dir_all(dir.join("crates/cli/src")).unwrap();
        fs::create_dir_all(dir.join("crates/bench/src/bin")).unwrap();
        let main = [
            "#![forbid(unsafe_code)]\nfn main() { std::process::",
            "exit(2); }\n",
        ]
        .concat();
        fs::write(dir.join("crates/cli/src/main.rs"), &main).unwrap();
        fs::write(dir.join("crates/bench/src/bin/repro.rs"), &main).unwrap();
        // process::id() is not an exit — library code may use it.
        fs::write(
            dir.join("crates/lp/src/lib.rs"),
            "#![forbid(unsafe_code)]\nfn f() -> u32 { std::process::id() }\n",
        )
        .unwrap();
        let report = lint_workspace(&LintConfig::new(&dir)).unwrap();
        let _ = fs::remove_dir_all(&dir);
        assert!(report.ok(), "{:?}", report.violations);
    }

    #[test]
    fn env_reads_are_forbidden_outside_entrypoints() {
        for read in ["var(\"FFC_X\")", "var_os(\"FFC_X\")"] {
            let body = [
                "#![forbid(unsafe_code)]\nfn knob() -> bool { std::env::",
                read,
                ".is_some() }\n",
            ]
            .concat();
            let report = lint_src("env", &body);
            let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
            assert_eq!(rules, ["no-env-var"], "{:?}", report.violations);
        }
    }

    #[test]
    fn env_reads_are_fine_in_entrypoints_and_temp_dir_never_matches() {
        let dir = scratch_dir("env-ok");
        fs::create_dir_all(dir.join("crates/cli/src")).unwrap();
        fs::create_dir_all(dir.join("crates/bench/src/bin")).unwrap();
        let main = [
            "#![forbid(unsafe_code)]\nfn main() { let _ = std::env::",
            "var(\"HOME\"); }\n",
        ]
        .concat();
        fs::write(dir.join("crates/cli/src/main.rs"), &main).unwrap();
        fs::write(dir.join("crates/bench/src/bin/repro.rs"), &main).unwrap();
        // temp_dir() / args() read no variable — library code may use them.
        fs::write(
            dir.join("crates/lp/src/lib.rs"),
            "#![forbid(unsafe_code)]\nfn f() -> usize { let _ = std::env::temp_dir(); std::env::args().count() }\n",
        )
        .unwrap();
        let report = lint_workspace(&LintConfig::new(&dir)).unwrap();
        let _ = fs::remove_dir_all(&dir);
        assert!(report.ok(), "{:?}", report.violations);
    }

    #[test]
    fn vendor_and_target_are_skipped_by_membership() {
        let dir = scratch_dir("skip");
        // Non-members never enter the file universe: `target/` is not
        // in `members`, and `vendor/*` is a member but excluded via
        // `[workspace.metadata.audit]`.
        fs::write(
            dir.join("Cargo.toml"),
            "[workspace]\nmembers = [\"crates/*\", \"vendor/*\"]\n\n\
             [workspace.metadata.audit]\nexclude = [\"vendor/*\"]\n",
        )
        .unwrap();
        fs::create_dir_all(dir.join("vendor/x/src")).unwrap();
        fs::create_dir_all(dir.join("target/debug")).unwrap();
        fs::write(
            dir.join("vendor/x/src/lib.rs"),
            "fn f(a: f64) -> bool { a == 0.5 }\n",
        )
        .unwrap();
        fs::write(
            dir.join("target/debug/generated.rs"),
            "fn g(a: f64) -> bool { a == 0.5 }\n",
        )
        .unwrap();
        fs::write(
            dir.join("crates/lp/Cargo.toml"),
            "[package]\nname = \"lp\"\n",
        )
        .unwrap();
        fs::write(
            dir.join("crates/lp/src/lib.rs"),
            "#![forbid(unsafe_code)]\n",
        )
        .unwrap();
        let report = lint_workspace(&LintConfig::new(&dir)).unwrap();
        let _ = fs::remove_dir_all(&dir);
        assert!(report.ok(), "{:?}", report.violations);
        assert_eq!(report.files_scanned, 1);
    }
}
