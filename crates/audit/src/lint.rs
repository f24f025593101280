//! Source lint rules (`ffc audit lint`): six zero-tolerance checks
//! over the workspace sources, each a match over the significant
//! tokens of one [`crate::analysis::parser::parse`] per file. There is
//! no second scanner under them: comments and string / char literals
//! are tokens that can never match, test scope and suppressions come
//! from the same [`FileAst`] the interprocedural analyzer reads, and a
//! pattern may span lines.
//!
//! | rule | scope | what |
//! |---|---|---|
//! | `no-unwrap` | `crates/lp/src`, `crates/ctrl/src` (non-test) | no `.unwrap()` / `.expect(…)` on solver/controller hot paths |
//! | `float-eq` | workspace (non-test) | no `==` / `!=` against a float literal |
//! | `nondeterminism` | replay-deterministic modules | no `Instant::now` / `SystemTime` / ambient `rand` entropy (`thread_rng`, `random`, `from_entropy`, `OsRng`) |
//! | `forbid-unsafe` | every crate root | `#![forbid(unsafe_code)]` present |
//! | `no-process-exit` | workspace except `src/main.rs` / `src/bin/*.rs` | no `process::exit` / `process::abort` — library code must unwind so the supervisor and crash checkpoints see the failure |
//! | `no-env-var` | workspace except `src/main.rs` / `src/bin/*.rs` | no `env::var` / `var_os` / `vars` / `vars_os` — a library's behaviour is a function of its arguments; only a process entrypoint may read its environment |
//!
//! Replay-deterministic modules ([`DETERMINISTIC_MODULES`]) are the
//! files whose behaviour must be a pure function of the recorded seed:
//! a generator built by `StdRng::seed_from_u64` is one, so only the
//! `rand` names that draw entropy from the process's surroundings are
//! sites. (The vendored stand-in has none of the four; the clause is
//! there for the day a real `rand` replaces it.)
//!
//! Findings are zero-tolerance (no baseline): an intended site carries
//! its justification in the source, in the one suppression grammar of
//! [`crate::analysis::parser`] —
//!
//! ```text
//! // audit:allow(no-unwrap): every caller refactorizes first
//! ```
//!
//! on the offending line or in the contiguous comment block directly
//! above it, or `audit:allow-file(<rule>): reason` anywhere in a file.
//! Items behind `#[test]` / `#[cfg(test)]` are skipped.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::analysis::lexer::{Code, TokKind};
use crate::analysis::parser::{parse, FileAst};
use crate::analysis::taint::ENV_READS;

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

/// The per-site rules, in the order violations on one line are
/// reported.
const SITE_RULES: [&str; 5] = [
    "no-unwrap",
    "nondeterminism",
    "float-eq",
    "no-process-exit",
    "no-env-var",
];

/// The crate-root attribute `forbid-unsafe` demands.
const FORBID_UNSAFE: [&str; 8] = ["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"];

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

    let mut report = LintReport::default();
    for path in &files {
        let rel = path.strip_prefix(&cfg.root).unwrap_or(path);
        let src = fs::read_to_string(path)?;
        report.files_scanned += 1;
        lint_file(rel, &src, &parse(&src, &[]), &mut report.violations);
    }
    Ok(report)
}

/// Whether `rel` is a process entrypoint — a `src/main.rs` or
/// `src/bin/*.rs` — where `std::process::exit` is legitimate
/// (everywhere else it would bypass unwinding, so the supervisor would
/// see a silent death and crash checkpoints would skip their
/// drop/flush paths) and where the environment may be read (everywhere
/// else an env read is a hidden argument no caller, test or replay can
/// see).
fn is_entrypoint(rel: &str) -> bool {
    rel.ends_with("src/main.rs") || (rel.contains("src/bin/") && rel.ends_with(".rs"))
}

/// Whether `rel` (root-relative) is a crate root that must carry
/// `#![forbid(unsafe_code)]`: a `src/lib.rs` or an entrypoint of a
/// workspace member.
fn is_crate_root(rel: &str) -> bool {
    rel.ends_with("src/lib.rs") || is_entrypoint(rel)
}

/// Whether the `Num` token `text` is a float literal: after its integer
/// digits comes a `.`, an exponent, or an `f32` / `f64` suffix (`1.0`,
/// `0.`, `1e-9`, `2f64` — not `10`, `0xE5`, `1usize`).
fn is_float_literal(text: &str) -> bool {
    let rest = text.trim_start_matches(|c: char| c.is_ascii_digit() || c == '_');
    rest.starts_with(['.', 'e', 'E']) || matches!(rest, "f32" | "f64")
}

/// The rule the significant token at `i` is a site of, if any.
fn site_rule(code: &Code, i: usize) -> Option<&'static str> {
    let float_at = |si: usize| code.kind(si) == TokKind::Num && is_float_literal(code.text(si));
    match code.text(i) {
        "unwrap" | "expect" if code.is_method_call(i) => Some("no-unwrap"),
        "Instant" if code.is_path(i, &["now"]) => Some("nondeterminism"),
        "SystemTime" => Some("nondeterminism"),
        "thread_rng" | "random" | "from_entropy" | "OsRng" if code.prev(i) != "." => {
            Some("nondeterminism")
        }
        "process" if code.is_path(i, &["exit", "abort"]) => Some("no-process-exit"),
        "env" if code.is_path(i, ENV_READS) => Some("no-env-var"),
        // `==` / `!=` (two adjacent puncts) with a float literal on
        // either side; a `Num` after a `.` is a tuple index, not a
        // literal.
        "=" | "!" if code.text(i + 1) == "=" && code.tok(i).end == code.tok(i + 1).start => {
            let right = if code.text(i + 2) == "-" {
                i + 3
            } else {
                i + 2
            };
            let left = i >= 1 && float_at(i - 1) && (i < 2 || code.text(i - 2) != ".");
            (left || float_at(right)).then_some("float-eq")
        }
        _ => None,
    }
}

fn lint_file(rel: &Path, src: &str, ast: &FileAst, out: &mut Vec<LintViolation>) {
    let rel_str = rel.to_string_lossy().replace('\\', "/");
    let code = Code::new(src, &ast.tokens, (0, ast.tokens.len()));

    if is_crate_root(&rel_str)
        && !ast.allowed(0, "forbid-unsafe")
        && !(0..code.len()).any(|i| (0..).zip(FORBID_UNSAFE).all(|(k, t)| code.text(i + k) == t))
    {
        out.push(LintViolation {
            rule: "forbid-unsafe",
            file: rel.to_path_buf(),
            line: 0,
            excerpt: format!("crate root missing {}", FORBID_UNSAFE.concat()),
        });
    }

    let library = !is_entrypoint(&rel_str);
    let in_scope = |rule: &str| match rule {
        "no-unwrap" => NO_UNWRAP_SCOPES.iter().any(|s| rel_str.starts_with(s)),
        "nondeterminism" => DETERMINISTIC_MODULES.contains(&rel_str.as_str()),
        "no-process-exit" | "no-env-var" => library,
        _ => true,
    };
    // (line, rank in SITE_RULES, token): one violation per line and
    // rule, however many sites the line holds.
    let mut hits: Vec<(u32, usize, usize)> = Vec::new();
    for i in 0..code.len() {
        let rank = site_rule(&code, i).and_then(|rule| SITE_RULES.iter().position(|r| *r == rule));
        let Some(rank) = rank else {
            continue;
        };
        let (rule, line) = (SITE_RULES[rank], code.tok(i).line);
        if in_scope(rule) && !ast.in_test(code.pos(i)) && !ast.allowed(line, rule) {
            hits.push((line, rank, i));
        }
    }
    hits.sort_unstable();
    hits.dedup_by_key(|h| (h.0, h.1));
    out.extend(hits.into_iter().map(|(line, rank, i)| LintViolation {
        rule: SITE_RULES[rank],
        file: rel.to_path_buf(),
        line: line as usize,
        excerpt: code.tok(i).excerpt(src).to_string(),
    }));
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
    fn seeded_generators_pass_and_ambient_entropy_fails() {
        let lint = |body: &str| {
            let dir = scratch_dir("rand");
            fs::create_dir_all(dir.join("crates/ctrl/src")).unwrap();
            fs::write(dir.join("crates/ctrl/src/replay.rs"), body).unwrap();
            let report = lint_workspace(&LintConfig::new(&dir)).unwrap();
            let _ = fs::remove_dir_all(&dir);
            report.violations
        };
        let seeded = "use rand::rngs::StdRng;\nuse rand::{Rng, SeedableRng};\n\
                      fn f(seed: u64) -> f64 { StdRng::seed_from_u64(seed).gen::<f64>() }\n";
        assert!(lint(seeded).is_empty(), "{:?}", lint(seeded));
        for ambient in [
            "fn f() -> f64 { rand::thread_rng().gen() }",
            "fn f() -> f64 { rand::random() }",
            "use rand::random;",
            "fn f() -> StdRng { StdRng::from_entropy() }",
            "fn f() -> u64 { rand::rngs::OsRng.next_u64() }",
        ] {
            let hits = lint(ambient);
            let rules: Vec<&str> = hits.iter().map(|v| v.rule).collect();
            assert_eq!(rules, ["nondeterminism"], "{ambient}: {hits:?}");
        }
        // A seeded generator's own `random` method is not ambient.
        assert!(lint("fn f(r: &mut StdRng) -> f64 { r.random() }").is_empty());
    }

    #[test]
    fn float_comparison_detection_shapes() {
        let flags = |snippet: &str| {
            let body = format!("#![forbid(unsafe_code)]\nfn f() {{ {snippet}; }}\n");
            let rules: Vec<&str> = lint_src("shapes", &body)
                .violations
                .iter()
                .map(|v| v.rule)
                .collect();
            assert!(rules.iter().all(|r| *r == "float-eq"), "{rules:?}");
            !rules.is_empty()
        };
        assert!(flags("a == 0.5"));
        assert!(flags("0.0 == a"));
        assert!(flags("x != 1e-9"));
        assert!(flags("y == 2.0f64"));
        assert!(!flags("a == b"));
        assert!(!flags("n == 0"));
        assert!(!flags("n <= 0.5"));
        assert!(!flags("a >= 1.0 && b <= 2.0"));
        assert!(!flags("v0.5")); // not a comparison
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
