//! Workspace discovery: member crates and their parsed sources
//! (analysis pass 2; `callgraph` indexes their functions).
//!
//! Crates are enumerated **by construction** from the root
//! `Cargo.toml`'s `[workspace] members` list (globs expanded), never
//! by walking the filesystem and skipping directory names — so
//! `target/` is invisible because it is not a member, not because a
//! name filter happened to catch it. Vendored third-party stand-ins
//! are excluded the same declarative way, via
//! `[workspace.metadata.audit] exclude` globs in the root manifest.
//!
//! Member directories are walked for `.rs` files, skipping any
//! subdirectory that carries its own `Cargo.toml` (a nested package —
//! e.g. committed bad-fixture mini-crates under a member's `tests/`
//! tree — is analyzed on its own, never mixed into its host).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use super::parser::{parse, FileAst};

/// One discovered crate: package name plus its parsed sources.
#[derive(Debug)]
pub struct CrateSrc {
    /// Package name from `Cargo.toml` (directory name as fallback).
    pub name: String,
    /// Crate directory, relative to the analysis root.
    pub dir: PathBuf,
    /// Parsed files: (path relative to the analysis root, source, AST),
    /// sorted by path.
    pub files: Vec<SourceFile>,
}

/// One parsed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the analysis root, `/`-separated.
    pub rel: String,
    /// File contents.
    pub src: String,
    /// Extracted items.
    pub ast: FileAst,
}

/// Lists the first-party source roots of the workspace at `root`:
/// `(member dir, package name)` pairs from `[workspace] members` minus
/// `[workspace.metadata.audit] exclude`, sorted by path. A plain
/// package directory (no `[workspace]`) yields itself; a bare
/// directory with no manifest yields itself with its dir name.
pub fn workspace_members(root: &Path) -> io::Result<Vec<(PathBuf, String)>> {
    let manifest = root.join("Cargo.toml");
    let text = match fs::read_to_string(&manifest) {
        Ok(t) => t,
        Err(_) => {
            let name = dir_name(root);
            return Ok(vec![(root.to_path_buf(), name)]);
        }
    };
    let members = toml_string_array(&text, "workspace", "members");
    if members.is_empty() {
        let name = toml_package_name(&text).unwrap_or_else(|| dir_name(root));
        return Ok(vec![(root.to_path_buf(), name)]);
    }
    let excludes = toml_string_array(&text, "workspace.metadata.audit", "exclude");
    let mut out = Vec::new();
    for pattern in &members {
        for dir in expand_member_glob(root, pattern)? {
            let rel = dir
                .strip_prefix(root)
                .unwrap_or(&dir)
                .to_string_lossy()
                .replace('\\', "/");
            if excludes.iter().any(|e| glob_matches(e, &rel)) {
                continue;
            }
            let name = fs::read_to_string(dir.join("Cargo.toml"))
                .ok()
                .and_then(|t| toml_package_name(&t))
                .unwrap_or_else(|| dir_name(&dir));
            out.push((dir, name));
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

/// Every first-party `.rs` file of the workspace at `root`, sorted.
/// This is the file universe the lint rules scan: member directories
/// only (so `target/` never appears by construction), nested packages
/// excluded.
pub fn workspace_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for (dir, _) in workspace_members(root)? {
        collect_rs(&dir, true, &mut files)?;
    }
    files.sort();
    files.dedup();
    Ok(files)
}

/// Discovers and parses every first-party crate of the workspace (or
/// single package) at `root`.
pub fn discover(root: &Path) -> io::Result<Vec<CrateSrc>> {
    let mut crates = Vec::new();
    for (dir, name) in workspace_members(root)? {
        let mut paths = Vec::new();
        collect_rs(&dir, true, &mut paths)?;
        paths.sort();
        let mut files = Vec::new();
        for p in paths {
            let src = fs::read_to_string(&p)?;
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            let base_module = module_path_of(&rel);
            let ast = parse(&src, &base_module);
            files.push(SourceFile { rel, src, ast });
        }
        crates.push(CrateSrc { name, dir, files });
    }
    Ok(crates)
}

/// The module path a file's location implies: `src/lib.rs` → `[]`,
/// `src/store.rs` → `["store"]`, `src/analysis/lexer.rs` →
/// `["analysis", "lexer"]`, `tests/foo.rs` → `["foo"]` (integration
/// tests are their own crate roots, close enough for call resolution).
fn module_path_of(rel: &str) -> Vec<String> {
    let parts: Vec<&str> = rel.split('/').collect();
    let after_src = match parts.iter().rposition(|&p| p == "src") {
        Some(i) => &parts[i + 1..],
        None => match parts.len() {
            0 => return Vec::new(),
            n => &parts[n - 1..],
        },
    };
    let mut out: Vec<String> = after_src
        .iter()
        .map(|p| p.trim_end_matches(".rs").to_string())
        .collect();
    match out.last().map(|s| s.as_str()) {
        Some("lib") | Some("main") | Some("mod") => {
            out.pop();
        }
        _ => {}
    }
    out
}

fn dir_name(p: &Path) -> String {
    p.file_name()
        .map(|n| n.to_string_lossy().to_string())
        .unwrap_or_else(|| "crate".to_string())
}

/// Recursively collects `.rs` files. `is_root` marks the member's own
/// directory: below it, a subdirectory containing `Cargo.toml` is a
/// nested package and is skipped.
fn collect_rs(dir: &Path, is_root: bool, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !is_root && dir.join("Cargo.toml").exists() {
        return Ok(());
    }
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return Ok(()), // member dir listed but absent: skip
    };
    for entry in entries {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') {
            continue;
        }
        if path.is_dir() {
            collect_rs(&path, false, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Extracts `key = [ "...", ... ]` from a TOML `[section]` with a
/// line-oriented scan (no TOML dependency; handles the multi-line
/// array layout `cargo fmt` produces).
fn toml_string_array(text: &str, section: &str, key: &str) -> Vec<String> {
    let mut in_section = false;
    let mut collecting = false;
    let mut buf = String::new();
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with('[') {
            if collecting {
                break;
            }
            in_section = trimmed == format!("[{section}]");
            continue;
        }
        if collecting {
            buf.push_str(trimmed);
            if trimmed.contains(']') {
                break;
            }
            continue;
        }
        if in_section {
            if let Some(rest) = trimmed.strip_prefix(key) {
                let rest = rest.trim_start();
                if let Some(rhs) = rest.strip_prefix('=') {
                    buf.push_str(rhs.trim());
                    if !rhs.contains(']') {
                        collecting = true;
                        continue;
                    }
                    break;
                }
            }
        }
    }
    buf.split('"')
        .skip(1)
        .step_by(2)
        .map(|s| s.to_string())
        .collect()
}

/// Extracts `name = "..."` from the `[package]` section.
fn toml_package_name(text: &str) -> Option<String> {
    let mut in_package = false;
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with('[') {
            in_package = trimmed == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = trimmed.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rhs) = rest.strip_prefix('=') {
                    return rhs.split('"').nth(1).map(|s| s.to_string());
                }
            }
        }
    }
    None
}

/// Expands a member pattern: a trailing `/*` lists subdirectories,
/// anything else is a literal path.
fn expand_member_glob(root: &Path, pattern: &str) -> io::Result<Vec<PathBuf>> {
    match pattern.strip_suffix("/*") {
        Some(prefix) => {
            let base = root.join(prefix);
            let mut out = Vec::new();
            if let Ok(entries) = fs::read_dir(&base) {
                for entry in entries {
                    let entry = entry?;
                    if entry.path().is_dir() {
                        out.push(entry.path());
                    }
                }
            }
            out.sort();
            Ok(out)
        }
        None => Ok(vec![root.join(pattern)]),
    }
}

/// `vendor/*`-style glob match against a `/`-relative path.
fn glob_matches(pattern: &str, rel: &str) -> bool {
    match pattern.strip_suffix("/*") {
        Some(prefix) => rel.strip_prefix(prefix).is_some_and(|r| r.starts_with('/')),
        None => pattern == rel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toml_array_single_and_multi_line() {
        let single = "[workspace]\nmembers = [\"crates/*\", \"tests\"]\n";
        assert_eq!(
            toml_string_array(single, "workspace", "members"),
            vec!["crates/*", "tests"]
        );
        let multi = "[workspace]\nmembers = [\n  \"a\",\n  \"b/c\",\n]\nresolver = \"2\"\n";
        assert_eq!(
            toml_string_array(multi, "workspace", "members"),
            vec!["a", "b/c"]
        );
        let meta = "[workspace.metadata.audit]\nexclude = [\"vendor/*\"]\n";
        assert_eq!(
            toml_string_array(meta, "workspace.metadata.audit", "exclude"),
            vec!["vendor/*"]
        );
    }

    #[test]
    fn package_name_parses() {
        let t = "[package]\nname = \"ffc-audit\"\nversion = \"0.1.0\"\n";
        assert_eq!(toml_package_name(t), Some("ffc-audit".to_string()));
    }

    #[test]
    fn module_paths_from_file_locations() {
        assert!(module_path_of("crates/lp/src/lib.rs").is_empty());
        assert_eq!(module_path_of("crates/lp/src/simplex.rs"), vec!["simplex"]);
        assert_eq!(
            module_path_of("crates/audit/src/analysis/lexer.rs"),
            vec!["analysis", "lexer"]
        );
        assert_eq!(module_path_of("crates/audit/tests/foo.rs"), vec!["foo"]);
    }

    #[test]
    fn vendor_glob_excludes() {
        assert!(glob_matches("vendor/*", "vendor/rand"));
        assert!(!glob_matches("vendor/*", "vendored/rand"));
        assert!(!glob_matches("vendor/*", "vendor"));
        assert!(glob_matches("tests", "tests"));
    }

    #[test]
    fn workspace_discovery_skips_excluded_and_nested_packages() {
        let dir = std::env::temp_dir().join(format!("ffc-audit-sym-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("crates/a/src")).unwrap();
        fs::create_dir_all(dir.join("crates/a/tests/fixtures/bad/src")).unwrap();
        fs::create_dir_all(dir.join("vendor/x/src")).unwrap();
        fs::write(
            dir.join("Cargo.toml"),
            "[workspace]\nmembers = [\"crates/*\", \"vendor/*\"]\n\n\
             [workspace.metadata.audit]\nexclude = [\"vendor/*\"]\n",
        )
        .unwrap();
        fs::write(
            dir.join("crates/a/Cargo.toml"),
            "[package]\nname = \"crate-a\"\n",
        )
        .unwrap();
        fs::write(dir.join("crates/a/src/lib.rs"), "pub fn f() {}\n").unwrap();
        fs::write(
            dir.join("crates/a/tests/fixtures/bad/Cargo.toml"),
            "[package]\nname = \"bad\"\n",
        )
        .unwrap();
        fs::write(
            dir.join("crates/a/tests/fixtures/bad/src/lib.rs"),
            "pub fn seeded_violation() {}\n",
        )
        .unwrap();
        fs::write(dir.join("vendor/x/Cargo.toml"), "[package]\nname = \"x\"\n").unwrap();
        fs::write(dir.join("vendor/x/src/lib.rs"), "pub fn v() {}\n").unwrap();

        let crates = discover(&dir).unwrap();
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(crates.len(), 1);
        assert_eq!(crates[0].name, "crate-a");
        let rels: Vec<&str> = crates[0].files.iter().map(|f| f.rel.as_str()).collect();
        assert_eq!(rels, vec!["crates/a/src/lib.rs"]);
    }
}
