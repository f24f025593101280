//! Autofixes (analysis pass 5): token-splice rewrites for the safe
//! subset of findings, suppression scaffolding for the rest.
//!
//! Three fix classes, in priority order per file:
//!
//! 1. **Ordered-iteration rewrite** — `HashMap`→`BTreeMap`,
//!    `HashSet`→`BTreeSet` for files with `hash-iter` findings, when
//!    the file is in the replay-deterministic module list (or the fix
//!    run targets a fixture tree). Applied only when the file uses the
//!    hash types through an order-safe API surface (constructors
//!    `new`/`default`/`from`/`from_iter`; no custom hashers) — else
//!    skipped with a note.
//! 2. **`unwrap` → `?`** — for `.unwrap()` sites inside fns whose
//!    return type mentions `Result`.
//! 3. **Suppression scaffolding** — everything else gets a
//!    `// audit:allow(rule/kind)` marker comment above the site,
//!    making the finding visible in the diff for human review while
//!    clearing it from the report.
//!
//! Because the tokenizer is lossless, splices touch only the spliced
//! bytes; the rest of the file is reproduced byte-for-byte.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;

use super::lexer::{Code, TokKind, Token};
use super::taint::allow_marker;
use super::{analyze_model, build_model, AnalysisConfig, Finding};

/// Options for a fix run.
#[derive(Debug, Default)]
pub struct FixOptions {
    /// Apply the hash→ordered rewrite in every file (fixture trees),
    /// not just the deterministic-module list.
    pub rewrite_hash_all: bool,
    /// Replay-deterministic files (paths relative to the analysis
    /// root) where hash→ordered rewrites are in scope.
    pub deterministic_modules: Vec<String>,
}

/// One planned file rewrite.
#[derive(Debug)]
pub struct FileFix {
    /// Path relative to the analysis root.
    pub file: String,
    /// Human-readable descriptions of the edits.
    pub actions: Vec<String>,
    /// The file contents after all edits.
    pub new_src: String,
}

/// A planned (not yet applied) fix run.
#[derive(Debug, Default)]
pub struct FixReport {
    /// Per-file rewrites, sorted by path.
    pub fixes: Vec<FileFix>,
    /// Findings that were deliberately not rewritten, with reasons.
    pub notes: Vec<String>,
}

impl FixReport {
    /// Total planned edits.
    pub fn edit_count(&self) -> usize {
        self.fixes.iter().map(|f| f.actions.len()).sum()
    }
}

/// Constructor names through which a hash container stays order-safe
/// to swap for its BTree sibling.
const SAFE_HASH_CTORS: &[&str] = &["new", "default", "from", "from_iter"];

/// Plans fixes for the analysis findings at `root`.
pub fn plan(root: &Path, config: &AnalysisConfig, opts: &FixOptions) -> io::Result<FixReport> {
    let model = build_model(root)?;
    let report = analyze_model(&model, config);

    // Findings grouped by file, preserving key order.
    let mut by_file: BTreeMap<&str, Vec<&Finding>> = BTreeMap::new();
    for f in &report.findings {
        by_file.entry(f.file.as_str()).or_default().push(f);
    }

    let mut out = FixReport::default();
    for (rel, findings) in by_file {
        let Some((ci, fi)) = locate(&model.crates, rel) else {
            continue;
        };
        let file = &model.crates[ci].files[fi];
        let src = &file.src;
        let toks = &file.ast.tokens;
        // (start, end, replacement, description); insertions use
        // start == end.
        let mut edits: Vec<(usize, usize, String, String)> = Vec::new();
        let mut handled: BTreeSet<String> = BTreeSet::new();

        // 1. Hash → ordered rewrite.
        let wants_hash = findings.iter().any(|f| f.kind == "hash-iter");
        let in_scope = opts.rewrite_hash_all || opts.deterministic_modules.iter().any(|m| m == rel);
        if wants_hash && in_scope {
            match hash_rewrite_safe(src, toks) {
                Ok(()) => {
                    for t in toks.iter() {
                        if t.kind != TokKind::Ident {
                            continue;
                        }
                        let replacement = match t.text(src) {
                            "HashMap" => "BTreeMap",
                            "HashSet" => "BTreeSet",
                            _ => continue,
                        };
                        edits.push((
                            t.start,
                            t.end,
                            replacement.to_string(),
                            format!("{}:{} {} -> {}", rel, t.line, t.text(src), replacement),
                        ));
                    }
                    for f in findings.iter().filter(|f| f.kind == "hash-iter") {
                        handled.insert(f.key());
                    }
                }
                Err(reason) => out
                    .notes
                    .push(format!("{rel}: hash rewrite skipped: {reason}")),
            }
        } else if wants_hash {
            out.notes.push(format!(
                "{rel}: hash rewrite out of scope (not a deterministic module); scaffolding marker"
            ));
        }

        // 2. unwrap -> ? in Result-returning fns named by findings.
        let unwrap_fns: BTreeSet<&str> = findings
            .iter()
            .filter(|f| f.kind == "unwrap")
            .map(|f| f.site_fn.as_str())
            .collect();
        for node in model.graph.fns.iter().filter(|n| {
            n.file == rel && unwrap_fns.contains(n.qname.as_str()) && n.ret.contains("Result")
        }) {
            let Some((start, end)) =
                model.crates[node.crate_idx].files[node.file_idx].ast.fns[node.fn_idx].body
            else {
                continue;
            };
            let spliced = splice_unwraps(src, toks, (start, end), rel, &mut edits);
            if spliced > 0 {
                for f in findings
                    .iter()
                    .filter(|f| f.kind == "unwrap" && f.site_fn == node.qname)
                {
                    handled.insert(f.key());
                }
            }
        }

        // 3. Suppression scaffolding for everything left. A finding is
        // deduped per fn, so the marker must cover *every* site of its
        // kind in that fn — not just the one reported line.
        let line_starts = line_start_offsets(src);
        let mut marker_lines: BTreeMap<u32, Vec<String>> = BTreeMap::new();
        for f in findings.iter().filter(|f| !handled.contains(&f.key())) {
            let label = format!("{}/{}", f.rule, f.kind);
            let mut lines: Vec<u32> = vec![f.line];
            let node = model
                .graph
                .fns
                .iter()
                .position(|n| n.qname == f.site_fn && n.file == rel);
            if let Some(node_idx) = node {
                let fn_sites = &model.sites[node_idx];
                let list = if f.rule == "panic-reachable" {
                    &fn_sites.panics
                } else {
                    &fn_sites.sources
                };
                lines.extend(list.iter().filter(|s| s.kind == f.kind).map(|s| s.line));
            }
            for line in lines {
                let labels = marker_lines.entry(line).or_default();
                if !labels.contains(&label) {
                    labels.push(label.clone());
                }
            }
        }
        for (line, labels) in marker_lines {
            let idx = line as usize - 1;
            let Some(&offset) = line_starts.get(idx) else {
                continue;
            };
            let body: &str = src.lines().nth(idx).unwrap_or("");
            let indent: String = body.chars().take_while(|c| c.is_whitespace()).collect();
            let comment = format!(
                "{indent}// {}({}): TODO(audit): justify or rewrite\n",
                allow_marker(),
                labels.join(", ")
            );
            edits.push((
                offset,
                offset,
                comment,
                format!("{rel}:{line} scaffold {}", labels.join(", ")),
            ));
        }

        if edits.is_empty() {
            continue;
        }
        // Apply back to front; insertions (start == end) sort after
        // zero-width overlap cannot occur between our edit classes.
        edits.sort_by_key(|e| std::cmp::Reverse((e.0, e.1)));
        let mut new_src = src.clone();
        let mut actions: Vec<String> = Vec::new();
        for (start, end, replacement, desc) in &edits {
            new_src.replace_range(*start..*end, replacement);
            actions.push(desc.clone());
        }
        actions.reverse(); // report in source order
        out.fixes.push(FileFix {
            file: rel.to_string(),
            actions,
            new_src,
        });
    }
    Ok(out)
}

/// Writes all planned fixes to disk. Returns the number of files
/// changed.
pub fn apply(root: &Path, report: &FixReport) -> io::Result<usize> {
    for fix in &report.fixes {
        fs::write(root.join(&fix.file), &fix.new_src)?;
    }
    Ok(report.fixes.len())
}

/// Whether swapping the file's hash containers for BTree siblings is
/// order-safe: constructors restricted to [`SAFE_HASH_CTORS`], no
/// custom-hasher API in sight.
fn hash_rewrite_safe(src: &str, toks: &[Token]) -> Result<(), String> {
    let code = Code::new(src, toks, (0, toks.len()));
    for i in 0..code.len() {
        let t = code.text(i);
        if matches!(
            t,
            "RandomState" | "with_hasher" | "with_capacity_and_hasher" | "raw_entry"
        ) {
            return Err(format!("uses `{t}`"));
        }
        if matches!(t, "HashMap" | "HashSet") && code.is_path(i, &[]) && i + 3 < code.len() {
            let ctor = code.text(i + 3);
            // `HashMap::<A, B>::new()` — skip the turbofish.
            if ctor != "<" && !SAFE_HASH_CTORS.contains(&ctor) {
                return Err(format!("constructor `{t}::{ctor}` is not order-safe"));
            }
        }
    }
    Ok(())
}

/// Splices every `.unwrap()` in the body token range into `?`.
fn splice_unwraps(
    src: &str,
    toks: &[Token],
    body: (usize, usize),
    rel: &str,
    edits: &mut Vec<(usize, usize, String, String)>,
) -> usize {
    let code = Code::new(src, toks, body);
    let mut n = 0usize;
    for i in 1..code.len() {
        if code.text(i) == "unwrap"
            && code.is_method_call(i)
            && code.text(i + 2) == ")"
            && (i < 2 || code.text(i - 2) != ".")
        {
            edits.push((
                code.tok(i - 1).start,
                code.tok(i + 2).end,
                "?".to_string(),
                format!("{rel}:{} .unwrap() -> ?", code.tok(i - 1).line),
            ));
            n += 1;
        }
    }
    n
}

/// Byte offset of each line start.
fn line_start_offsets(src: &str) -> Vec<usize> {
    let mut out = vec![0usize];
    for (i, b) in src.bytes().enumerate() {
        if b == b'\n' && i + 1 < src.len() {
            out.push(i + 1);
        }
    }
    out
}

/// Finds a parsed file by its root-relative path.
fn locate(crates: &[super::symbols::CrateSrc], rel: &str) -> Option<(usize, usize)> {
    for (ci, c) in crates.iter().enumerate() {
        if let Some(fi) = c.files.iter().position(|f| f.rel == rel) {
            return Some((ci, fi));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::super::{analyze_path, FnMatcher};
    use super::*;
    use std::path::PathBuf;

    fn test_config() -> AnalysisConfig {
        AnalysisConfig {
            sinks: vec![(
                "fingerprint".to_string(),
                FnMatcher::NameContains("fingerprint".to_string()),
            )],
            roots: vec![(
                "hot".to_string(),
                FnMatcher::NameContains("hot_loop".to_string()),
            )],
            max_depth: 64,
        }
    }

    fn scratch_package(tag: &str, lib_rs: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ffc-audit-fix-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("src")).unwrap();
        fs::write(
            dir.join("Cargo.toml"),
            "[package]\nname = \"scratch\"\nversion = \"0.0.0\"\nedition = \"2021\"\n",
        )
        .unwrap();
        fs::write(dir.join("src/lib.rs"), lib_rs).unwrap();
        dir
    }

    #[test]
    fn unwrap_in_result_fn_becomes_question_mark() {
        let dir = scratch_package(
            "unwrap",
            r#"
fn parse_one(s: &str) -> Result<u32, std::num::ParseIntError> {
    let v: u32 = s.parse().unwrap();
    Ok(v)
}
pub fn hot_loop(xs: &[&str]) -> Result<u32, std::num::ParseIntError> {
    let mut acc = 0;
    for x in xs {
        acc += parse_one(x)?;
    }
    Ok(acc)
}
"#,
        );
        let cfg = test_config();
        let plan = plan(&dir, &cfg, &FixOptions::default()).unwrap();
        assert_eq!(plan.fixes.len(), 1, "{plan:?}");
        assert!(plan.fixes[0].new_src.contains("s.parse()?;"));
        assert!(!plan.fixes[0].new_src.contains("unwrap"));
        apply(&dir, &plan).unwrap();
        let after = analyze_path(&dir, &cfg).unwrap();
        let _ = fs::remove_dir_all(&dir);
        assert!(after.findings.is_empty(), "{:?}", after.findings);
    }

    #[test]
    fn hash_iteration_rewrites_to_btree() {
        let dir = scratch_package(
            "hash",
            r#"
use std::collections::HashMap;
fn mix(m: &HashMap<u32, u32>) -> u64 {
    let mut acc = 0u64;
    let local: HashMap<u32, u32> = m.clone();
    for (k, v) in &local {
        acc ^= (*k as u64) << 1 ^ (*v as u64);
    }
    acc
}
pub fn fingerprint_state(m: &HashMap<u32, u32>) -> u64 {
    mix(m)
}
"#,
        );
        let cfg = test_config();
        let opts = FixOptions {
            rewrite_hash_all: true,
            deterministic_modules: Vec::new(),
        };
        let plan = plan(&dir, &cfg, &opts).unwrap();
        assert_eq!(plan.fixes.len(), 1, "{plan:?}");
        assert!(plan.fixes[0].new_src.contains("BTreeMap"));
        assert!(!plan.fixes[0].new_src.contains("HashMap"));
        apply(&dir, &plan).unwrap();
        let after = analyze_path(&dir, &cfg).unwrap();
        let _ = fs::remove_dir_all(&dir);
        assert!(after.findings.is_empty(), "{:?}", after.findings);
    }

    #[test]
    fn custom_hasher_blocks_rewrite_and_scaffolds() {
        let dir = scratch_package(
            "hasher",
            r#"
use std::collections::HashMap;
fn mix() -> u64 {
    let local: HashMap<u32, u32> = HashMap::with_capacity(8);
    let mut acc = 0u64;
    for (k, v) in &local {
        acc ^= (*k as u64) ^ (*v as u64);
    }
    acc
}
pub fn fingerprint_state() -> u64 {
    mix()
}
"#,
        );
        let cfg = test_config();
        let opts = FixOptions {
            rewrite_hash_all: true,
            deterministic_modules: Vec::new(),
        };
        let plan = plan(&dir, &cfg, &opts).unwrap();
        assert!(
            plan.notes.iter().any(|n| n.contains("not order-safe")),
            "{plan:?}"
        );
        assert!(plan.fixes[0].new_src.contains(allow_marker()));
        apply(&dir, &plan).unwrap();
        let after = analyze_path(&dir, &cfg).unwrap();
        let _ = fs::remove_dir_all(&dir);
        assert!(after.findings.is_empty(), "{:?}", after.findings);
    }

    #[test]
    fn time_source_gets_marker_scaffold() {
        let dir = scratch_package(
            "time",
            r#"
fn stamp() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}
pub fn fingerprint_state() -> u64 {
    stamp()
}
"#,
        );
        let cfg = test_config();
        let plan = plan(&dir, &cfg, &FixOptions::default()).unwrap();
        assert_eq!(plan.fixes.len(), 1, "{plan:?}");
        let marked = &plan.fixes[0].new_src;
        assert!(marked.contains(&format!("// {}(taint-determinism/time", allow_marker())));
        apply(&dir, &plan).unwrap();
        let after = analyze_path(&dir, &cfg).unwrap();
        let _ = fs::remove_dir_all(&dir);
        assert!(after.findings.is_empty(), "{:?}", after.findings);
    }

    #[test]
    fn fix_is_idempotent() {
        let dir = scratch_package(
            "idem",
            r#"
fn stamp() -> u64 { std::time::UNIX_EPOCH; 0 }
pub fn fingerprint_state() -> u64 { stamp() }
"#,
        );
        let cfg = test_config();
        let p1 = plan(&dir, &cfg, &FixOptions::default()).unwrap();
        apply(&dir, &p1).unwrap();
        let p2 = plan(&dir, &cfg, &FixOptions::default()).unwrap();
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(p1.fixes.len(), 1);
        assert_eq!(p2.fixes.len(), 0, "{p2:?}");
    }
}
