//! Workspace determinism & panic-safety analyzer.
//!
//! A dependency-free static analysis pipeline over the workspace's own
//! sources:
//!
//! 1. [`lexer`] — lossless tokenizer (every byte lands in exactly one
//!    token, so nothing is skipped and comment or string contents are
//!    never read as code);
//! 2. [`parser`] — item extractor: `fn` items with module path,
//!    impl type, return type and body range, the token ranges of
//!    test-gated items, and the `audit:allow` suppressions — the front
//!    end [`crate::lint`]'s rules run on too;
//! 3. [`symbols`] — workspace discovery by manifest membership (never
//!    by directory-name skip lists), each crate with its parsed sources;
//! 4. [`callgraph`] — workspace-wide call graph from call-shaped token
//!    sequences, resolved by a deterministic name heuristic;
//! 5. [`taint`] — the interprocedural passes: determinism taint
//!    (nondeterminism sources reaching replay-critical sinks, with the
//!    full call chain) and panic reachability from hot-loop roots.
//!
//! Everything is deterministic: files are discovered in sorted order,
//! findings sort by their structural key, and the JSON writer emits a
//! fixed field order — two runs over the same tree are byte-identical,
//! which CI checks.
//!
//! The committed baseline (`crates/audit/workspace.baseline`) is a
//! ratchet: `analyze --baseline` fails on findings not in the baseline
//! (regressions) *and* on baseline entries no longer found (stale
//! entries must be deleted, shrinking the file monotonically).

pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod symbols;
pub mod taint;

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use callgraph::CallGraph;
use symbols::CrateSrc;
use taint::{find_sites, run_passes, FnSites};
pub use taint::{AnalysisConfig, Finding, FnMatcher};

/// Everything the passes need, built once per analysis.
pub struct Model {
    /// Discovered crates with parsed sources.
    pub crates: Vec<CrateSrc>,
    /// The workspace call graph.
    pub graph: CallGraph,
    /// `sites[i]` = detected sites of `graph.fns[i]`.
    pub sites: Vec<FnSites>,
}

/// Result of one analysis run.
pub struct AnalysisReport {
    /// Findings sorted by key.
    pub findings: Vec<Finding>,
    /// Crates analyzed.
    pub crate_count: usize,
    /// Files parsed.
    pub file_count: usize,
    /// Functions in the call graph.
    pub fn_count: usize,
}

/// Parses the workspace (or single package) at `root` and builds the
/// call graph and per-fn site lists.
pub fn build_model(root: &Path) -> io::Result<Model> {
    let crates = symbols::discover(root)?;
    let graph = CallGraph::build(&crates);
    let hash_fields: BTreeSet<String> = crates
        .iter()
        .flat_map(|c| c.files.iter())
        .flat_map(|f| f.ast.hash_fields.iter().cloned())
        .collect();
    let sites: Vec<FnSites> = graph
        .fns
        .iter()
        .map(|f| {
            let file = &crates[f.crate_idx].files[f.file_idx];
            match file.ast.fns[f.fn_idx].body {
                Some(range) => find_sites(file, range, &hash_fields),
                None => FnSites::default(),
            }
        })
        .collect();
    Ok(Model {
        crates,
        graph,
        sites,
    })
}

/// Runs the full analysis at `root` under `config`.
pub fn analyze_path(root: &Path, config: &AnalysisConfig) -> io::Result<AnalysisReport> {
    let model = build_model(root)?;
    Ok(analyze_model(&model, config))
}

/// Runs the interprocedural passes over a prebuilt model.
pub fn analyze_model(model: &Model, config: &AnalysisConfig) -> AnalysisReport {
    let findings = run_passes(&model.graph, &model.sites, config);
    AnalysisReport {
        findings,
        crate_count: model.crates.len(),
        file_count: model.crates.iter().map(|c| c.files.len()).sum(),
        fn_count: model.graph.fns.len(),
    }
}

impl AnalysisReport {
    /// Sorted ratchet keys of all findings.
    pub fn keys(&self) -> Vec<String> {
        self.findings.iter().map(|f| f.key()).collect()
    }

    /// Deterministic JSON: fixed field order, sorted findings, `\n`
    /// line ends — byte-identical across runs on the same tree.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"crates\": {},", self.crate_count);
        let _ = writeln!(s, "  \"files\": {},", self.file_count);
        let _ = writeln!(s, "  \"fns\": {},", self.fn_count);
        s.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            s.push_str("    {");
            let _ = write!(s, "\"key\": {}, ", json_str(&f.key()));
            let _ = write!(s, "\"rule\": {}, ", json_str(f.rule));
            let _ = write!(s, "\"kind\": {}, ", json_str(f.kind));
            let _ = write!(s, "\"anchor_label\": {}, ", json_str(&f.anchor_label));
            let _ = write!(s, "\"anchor\": {}, ", json_str(&f.anchor));
            let _ = write!(s, "\"site_fn\": {}, ", json_str(&f.site_fn));
            let _ = write!(s, "\"file\": {}, ", json_str(&f.file));
            let _ = write!(s, "\"line\": {}, ", f.line);
            let _ = write!(s, "\"excerpt\": {}, ", json_str(&f.excerpt));
            s.push_str("\"chain\": [");
            for (j, link) in f.chain.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&json_str(link));
            }
            s.push_str("]}");
            if i + 1 < self.findings.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Human-readable report with full source→sink call chains.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "analyzed {} crates, {} files, {} fns: {} finding(s)",
            self.crate_count,
            self.file_count,
            self.fn_count,
            self.findings.len()
        );
        for f in &self.findings {
            let _ = writeln!(s, "\n[{}/{}] {}:{}", f.rule, f.kind, f.file, f.line);
            let _ = writeln!(s, "  anchor: {} ({})", f.anchor, f.anchor_label);
            let _ = writeln!(s, "  site:   {}", f.excerpt);
            let _ = writeln!(s, "  chain:  {}", f.chain.join(" -> "));
        }
        s
    }

    /// The baseline file body for this report: one key per line,
    /// sorted, with a short header.
    pub fn baseline_body(&self) -> String {
        let mut s = String::from(
            "# ffc audit analyze baseline — one `rule|kind|fn` key per line.\n\
             # Regenerate with: ffc audit analyze --write-baseline <this file>\n\
             # New findings fail CI; entries no longer found must be deleted.\n",
        );
        for k in self.keys() {
            s.push_str(&k);
            s.push('\n');
        }
        s
    }
}

/// JSON string escape: the one escaper of this crate.
pub(crate) fn json_str(v: &str) -> String {
    let mut s = String::with_capacity(v.len() + 2);
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\t' => s.push_str("\\t"),
            '\r' => s.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

/// Parses a baseline file body: ignores comments and blank lines.
pub fn parse_baseline(body: &str) -> BTreeSet<String> {
    body.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// Ratchet comparison against a baseline.
pub struct RatchetResult {
    /// Findings not in the baseline — regressions, fail.
    pub new: Vec<String>,
    /// Baseline entries no longer found — must be deleted, fail.
    pub stale: Vec<String>,
}

impl RatchetResult {
    /// Whether the ratchet passes.
    pub fn ok(&self) -> bool {
        self.new.is_empty() && self.stale.is_empty()
    }
}

/// Compares a report's keys against a baseline set.
pub fn ratchet(report: &AnalysisReport, baseline: &BTreeSet<String>) -> RatchetResult {
    let keys: BTreeSet<String> = report.keys().into_iter().collect();
    RatchetResult {
        new: keys.difference(baseline).cloned().collect(),
        stale: baseline.difference(&keys).cloned().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn baseline_round_trip_and_ratchet() {
        let report = AnalysisReport {
            findings: vec![],
            crate_count: 0,
            file_count: 0,
            fn_count: 0,
        };
        let base = parse_baseline(&report.baseline_body());
        assert!(base.is_empty());
        let mut with_entry = BTreeSet::new();
        with_entry.insert("panic-reachable|unwrap|x::f".to_string());
        let r = ratchet(&report, &with_entry);
        assert!(!r.ok());
        assert_eq!(r.stale, vec!["panic-reachable|unwrap|x::f"]);
        assert!(r.new.is_empty());
    }
}
