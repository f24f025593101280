//! Interprocedural passes (analysis pass 4): determinism taint and
//! panic reachability.
//!
//! **Determinism taint.** Nondeterminism *sources* are seeded inside
//! fn bodies — wall-clock reads (`Instant::now`, `SystemTime`),
//! `rand`, environment reads, `HashMap`/`HashSet` iteration (order
//! varies run to run), thread identity, and NaN-propagating float
//! comparisons (`partial_cmp`). Taint then flows *backwards up the
//! call graph*: a replay-critical **sink** (fingerprint computation,
//! checkpoint serialization, chaos campaign generation, telemetry
//! store writes) is flagged when any fn it transitively calls contains
//! a source. The full sink→…→source call chain is reported.
//!
//! **Panic reachability.** The same traversal from panic-sensitive
//! *roots* (the controller interval loop, the solver pivot loop, the
//! certifier's scenario enumeration) to fns containing
//! `unwrap`/`expect`, indexing, remainder-by-nonliteral, or explicit
//! panic macros.
//!
//! Findings are keyed `(rule, kind, containing fn)` — no line numbers
//! — so the committed baseline survives unrelated edits; chains and
//! line numbers ride along in the JSON report for humans.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use super::callgraph::CallGraph;
use super::lexer::{Code, TokKind};
use super::parser::KEYWORDS;
use super::symbols::SourceFile;

/// Matches functions by name shape; used for sink and root specs.
#[derive(Debug, Clone)]
pub enum FnMatcher {
    /// Simple name contains the substring.
    NameContains(String),
    /// Qualified name starts with the prefix.
    QnamePrefix(String),
    /// Qualified name starts with the prefix AND the simple name
    /// starts with one of the verbs.
    PrefixAndNameStarts(String, Vec<String>),
}

impl FnMatcher {
    fn matches(&self, qname: &str, name: &str) -> bool {
        match self {
            FnMatcher::NameContains(s) => name.contains(s.as_str()),
            FnMatcher::QnamePrefix(p) => qname.starts_with(p.as_str()),
            FnMatcher::PrefixAndNameStarts(p, verbs) => {
                qname.starts_with(p.as_str()) && verbs.iter().any(|v| name.starts_with(v.as_str()))
            }
        }
    }
}

/// Analyzer configuration: what counts as a sink, a root, and a
/// replay-deterministic module.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Determinism-taint sinks: `(label, matcher)`.
    pub sinks: Vec<(String, FnMatcher)>,
    /// Panic-reachability roots: `(label, matcher)`.
    pub roots: Vec<(String, FnMatcher)>,
    /// Call-chain depth cap.
    pub max_depth: usize,
}

impl AnalysisConfig {
    /// The workspace defaults: FFC's replay-critical sinks and
    /// hot-loop roots.
    pub fn workspace_default() -> Self {
        let s = |s: &str| s.to_string();
        AnalysisConfig {
            sinks: vec![
                (s("fingerprint"), FnMatcher::NameContains(s("fingerprint"))),
                (
                    s("checkpoint-serialization"),
                    FnMatcher::PrefixAndNameStarts(
                        s("ffc-ctrl::checkpoint::"),
                        vec![s("write"), s("encode"), s("save")],
                    ),
                ),
                (
                    s("campaign-generation"),
                    FnMatcher::QnamePrefix(s("ffc-chaos::injector::generate_campaign")),
                ),
                (
                    s("telemetry-store-write"),
                    FnMatcher::PrefixAndNameStarts(
                        s("ffc-fleet::store::"),
                        vec![
                            s("write"),
                            s("append"),
                            s("finish"),
                            s("graduate"),
                            s("flush"),
                        ],
                    ),
                ),
            ],
            roots: vec![
                (
                    s("controller-loop"),
                    FnMatcher::QnamePrefix(s("ffc-ctrl::Controller::run")),
                ),
                (
                    s("supervisor"),
                    FnMatcher::QnamePrefix(s("ffc-ctrl::supervisor::run_supervised")),
                ),
                (
                    s("solver-pivot-loop"),
                    FnMatcher::QnamePrefix(s("ffc-lp::simplex::Engine::optimize")),
                ),
                (
                    s("certifier-enumeration"),
                    FnMatcher::QnamePrefix(s("ffc-audit::certify::scenario_phase")),
                ),
            ],
            max_depth: 64,
        }
    }
}

/// One analyzer finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// `taint-determinism` or `panic-reachable`.
    pub rule: &'static str,
    /// Source kind (`time`, `rand`, `env`, `hash-iter`, `thread-id`,
    /// `float-partial-cmp`) or panic kind (`unwrap`, `expect`,
    /// `index`, `rem-nonliteral`, `panic-macro`).
    pub kind: &'static str,
    /// Label of the sink/root spec that anchored the traversal.
    pub anchor_label: String,
    /// Qualified name of the sink/root fn.
    pub anchor: String,
    /// Qualified name of the fn containing the site.
    pub site_fn: String,
    /// File of the site, relative to the analysis root.
    pub file: String,
    /// 1-based line of the site.
    pub line: u32,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// Full call chain, anchor first, site fn last.
    pub chain: Vec<String>,
}

impl Finding {
    /// Stable ratchet key: no line numbers, no chains — unrelated
    /// edits don't churn the baseline.
    pub fn key(&self) -> String {
        format!("{}|{}|{}", self.rule, self.kind, self.site_fn)
    }
}

/// A detected site inside one fn body.
#[derive(Debug, Clone)]
pub struct Site {
    /// Site classification (shared kind vocabulary with [`Finding`]).
    pub kind: &'static str,
    /// 1-based line.
    pub line: u32,
    /// Trimmed source line.
    pub excerpt: String,
}

/// All sites of one fn: determinism sources and panic points.
#[derive(Debug, Default, Clone)]
pub struct FnSites {
    /// Nondeterminism sources.
    pub sources: Vec<Site>,
    /// Panic points.
    pub panics: Vec<Site>,
}

/// Hash-iteration method names (order-nondeterministic on
/// `HashMap`/`HashSet`).
const HASH_ITER_METHODS: &[&str] = &[
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "iter",
    "iter_mut",
    "keys",
    "retain",
    "values",
    "values_mut",
];

/// `std::env` functions that read the process environment. Shared with
/// the `no-env-var` lint rule; `env::args` is a taint source on top of
/// these but no lint hit, `env::temp_dir` is neither.
pub(crate) const ENV_READS: &[&str] = &["var", "var_os", "vars", "vars_os"];

const TAINT_RULE: &str = "taint-determinism";
const PANIC_RULE: &str = "panic-reachable";

/// Scans one fn body for sources and panic sites. `hash_fields` is the
/// workspace-wide set of struct fields declared with hash-based types.
pub fn find_sites(
    file: &SourceFile,
    body: (usize, usize),
    hash_fields: &BTreeSet<String>,
) -> FnSites {
    let code = Code::new(&file.src, &file.ast.tokens, body);
    let text = |si: usize| code.text(si);
    let kind = |si: usize| code.kind(si);

    // Pass A: locals declared with hash-based types.
    let mut hash_locals: BTreeSet<&str> = BTreeSet::new();
    for i in 0..code.len() {
        if text(i) == "let" {
            let n = if text(i + 1) == "mut" { i + 2 } else { i + 1 };
            if kind(n) == TokKind::Ident && !KEYWORDS.contains(&text(n)) {
                let mut j = n + 1;
                while j < code.len() && text(j) != ";" && text(j) != "{" {
                    if matches!(text(j), "HashMap" | "HashSet") {
                        hash_locals.insert(text(n));
                        break;
                    }
                    j += 1;
                }
            }
        }
    }
    let hashed = |name: &str| hash_locals.contains(name) || hash_fields.contains(name);

    // Pass B: site patterns.
    let mut out = FnSites::default();
    let mut push = |rule: &'static str, kind: &'static str, si: usize| {
        let tok = code.tok(si);
        if file.ast.allowed(tok.line, &format!("{rule}/{kind}")) {
            return;
        }
        let list = if rule == PANIC_RULE {
            &mut out.panics
        } else {
            &mut out.sources
        };
        list.push(Site {
            kind,
            line: tok.line,
            excerpt: tok.excerpt(&file.src).to_string(),
        });
    };
    for i in 0..code.len() {
        match (kind(i), text(i)) {
            (TokKind::Ident, "Instant") if code.is_path(i, &["now"]) => push(TAINT_RULE, "time", i),
            (TokKind::Ident, "SystemTime" | "UNIX_EPOCH") => push(TAINT_RULE, "time", i),
            (TokKind::Ident, "rand") if code.is_path(i, &[]) => push(TAINT_RULE, "rand", i),
            (TokKind::Ident, "env") if code.is_path(i, ENV_READS) || code.is_path(i, &["args"]) => {
                push(TAINT_RULE, "env", i)
            }
            (TokKind::Ident, "thread") if code.is_path(i, &["current"]) => {
                push(TAINT_RULE, "thread-id", i)
            }
            (TokKind::Ident, "ThreadId") => push(TAINT_RULE, "thread-id", i),
            (TokKind::Ident, "partial_cmp") if code.is_method_call(i) => {
                push(TAINT_RULE, "float-partial-cmp", i)
            }
            // `h.iter()` / `self.field.keys()` on a hash-typed binding.
            (TokKind::Ident, m)
                if HASH_ITER_METHODS.contains(&m)
                    && code.is_method_call(i)
                    && i >= 2
                    && kind(i - 2) == TokKind::Ident
                    && hashed(text(i - 2)) =>
            {
                push(TAINT_RULE, "hash-iter", i)
            }
            // `for x in &h` / `for (k, v) in h`.
            (TokKind::Ident, "in") => {
                let mut j = i + 1;
                while matches!(text(j), "&" | "mut") {
                    j += 1;
                }
                if kind(j) == TokKind::Ident && hashed(text(j)) && text(j + 1) != "." {
                    push(TAINT_RULE, "hash-iter", j);
                }
            }
            // Panic sites.
            (TokKind::Ident, "unwrap" | "unwrap_err") if code.is_method_call(i) => {
                push(PANIC_RULE, "unwrap", i)
            }
            (TokKind::Ident, "expect" | "expect_err") if code.is_method_call(i) => {
                push(PANIC_RULE, "expect", i)
            }
            (TokKind::Ident, "panic" | "todo" | "unimplemented") if text(i + 1) == "!" => {
                push(PANIC_RULE, "panic-macro", i)
            }
            (TokKind::Punct, "[")
                if i >= 1
                    && (kind(i - 1) == TokKind::Ident && !KEYWORDS.contains(&code.prev(i))
                        || matches!(code.prev(i), ")" | "]")) =>
            {
                push(PANIC_RULE, "index", i)
            }
            (TokKind::Punct, "%")
                if i >= 1
                    && i + 1 < code.len()
                    && kind(i + 1) != TokKind::Num
                    && text(i + 1) != "="
                    && (matches!(kind(i - 1), TokKind::Ident | TokKind::Num)
                        || matches!(code.prev(i), ")" | "]")) =>
            {
                push(PANIC_RULE, "rem-nonliteral", i)
            }
            _ => {}
        }
    }
    out
}

/// Runs both interprocedural passes over the graph. `sites[i]` must
/// hold the precomputed sites of `graph.fns[i]`.
pub fn run_passes(graph: &CallGraph, sites: &[FnSites], config: &AnalysisConfig) -> Vec<Finding> {
    let mut findings: BTreeMap<String, Finding> = BTreeMap::new();
    let mut record = |f: Finding| {
        let key = f.key();
        match findings.get(&key) {
            Some(old) if old.chain.len() <= f.chain.len() => {}
            _ => {
                findings.insert(key, f);
            }
        }
    };

    for (anchors, rule, pick_panics) in [
        (&config.sinks, TAINT_RULE, false),
        (&config.roots, PANIC_RULE, true),
    ] {
        for (label, matcher) in anchors.iter() {
            for (ai, anchor) in graph.fns.iter().enumerate() {
                if anchor.is_test || !matcher.matches(&anchor.qname, &anchor.name) {
                    continue;
                }
                // BFS through callees; parent pointers rebuild chains.
                let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
                let mut depth: BTreeMap<usize, usize> = BTreeMap::new();
                let mut queue: VecDeque<usize> = VecDeque::new();
                depth.insert(ai, 0);
                queue.push_back(ai);
                while let Some(cur) = queue.pop_front() {
                    let d = depth[&cur];
                    let node = &graph.fns[cur];
                    let list = if pick_panics {
                        &sites[cur].panics
                    } else {
                        &sites[cur].sources
                    };
                    for site in list {
                        let mut chain = Vec::new();
                        let mut walk = cur;
                        chain.push(graph.fns[walk].qname.clone());
                        while let Some(&p) = parent.get(&walk) {
                            walk = p;
                            chain.push(graph.fns[walk].qname.clone());
                        }
                        chain.reverse();
                        record(Finding {
                            rule,
                            kind: site.kind,
                            anchor_label: label.clone(),
                            anchor: anchor.qname.clone(),
                            site_fn: node.qname.clone(),
                            file: node.file.clone(),
                            line: site.line,
                            excerpt: site.excerpt.clone(),
                            chain,
                        });
                    }
                    if d >= config.max_depth {
                        continue;
                    }
                    for &next in &graph.edges[cur] {
                        if graph.fns[next].is_test || depth.contains_key(&next) {
                            continue;
                        }
                        depth.insert(next, d + 1);
                        parent.insert(next, cur);
                        queue.push_back(next);
                    }
                }
            }
        }
    }
    let mut out: Vec<Finding> = findings.into_values().collect();
    out.sort_by_key(|a| a.key());
    out
}

#[cfg(test)]
mod tests {
    use super::super::symbols::{CrateSrc, SourceFile};
    use super::*;
    use std::path::PathBuf;

    fn analyze_src(src: &str, config: &AnalysisConfig) -> Vec<Finding> {
        let krate = CrateSrc {
            name: "demo".to_string(),
            dir: PathBuf::from("demo"),
            files: vec![SourceFile {
                rel: "demo/src/lib.rs".to_string(),
                src: src.to_string(),
                ast: super::super::parser::parse(src, &[]),
            }],
        };
        let crates = vec![krate];
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
        run_passes(&graph, &sites, config)
    }

    fn cfg_sink_fingerprint_root_hot() -> AnalysisConfig {
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

    #[test]
    fn transitive_taint_reaches_fingerprint_sink() {
        let findings = analyze_src(
            r#"
use std::collections::HashMap;
fn helper(m: &HashMap<u32, u32>) -> u64 {
    let mut acc = 0u64;
    let map: HashMap<u32, u32> = m.clone();
    for (k, v) in &map { acc += (*k as u64) ^ (*v as u64); }
    acc
}
fn middle(m: &HashMap<u32, u32>) -> u64 { helper(m) }
pub fn fingerprint_state(m: &HashMap<u32, u32>) -> u64 { middle(m) }
"#,
            &cfg_sink_fingerprint_root_hot(),
        );
        let taints: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == "taint-determinism" && f.kind == "hash-iter")
            .collect();
        assert_eq!(taints.len(), 1, "{findings:?}");
        assert_eq!(
            taints[0].chain,
            vec!["demo::fingerprint_state", "demo::middle", "demo::helper"]
        );
    }

    #[test]
    fn panic_reachability_reports_transitive_unwrap() {
        let findings = analyze_src(
            r#"
fn deep(x: Option<u32>) -> u32 { x.unwrap() }
fn mid(x: Option<u32>) -> u32 { deep(x) }
pub fn hot_loop(xs: &[Option<u32>]) -> u32 { xs.iter().map(|x| mid(*x)).sum() }
"#,
            &cfg_sink_fingerprint_root_hot(),
        );
        let unwraps: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == "panic-reachable" && f.kind == "unwrap")
            .collect();
        assert_eq!(unwraps.len(), 1, "{findings:?}");
        assert_eq!(unwraps[0].site_fn, "demo::deep");
        assert_eq!(
            unwraps[0].chain,
            vec!["demo::hot_loop", "demo::mid", "demo::deep"]
        );
    }

    #[test]
    fn clean_code_produces_no_findings() {
        let findings = analyze_src(
            r#"
use std::collections::BTreeMap;
fn helper(m: &BTreeMap<u32, u32>) -> u64 {
    m.iter().map(|(k, v)| (*k as u64) ^ (*v as u64)).sum()
}
pub fn fingerprint_state(m: &BTreeMap<u32, u32>) -> u64 { helper(m) }
pub fn hot_loop(xs: &[u32]) -> u32 { xs.iter().copied().map(|x| x.saturating_add(1)).sum() }
"#,
            &cfg_sink_fingerprint_root_hot(),
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn test_code_is_ignored() {
        let findings = analyze_src(
            r#"
pub fn fingerprint_state(x: u64) -> u64 { x }
#[cfg(test)]
mod tests {
    fn tainted_helper() -> u64 { std::time::SystemTime::now(); 0 }
    #[test]
    fn probe() { assert_eq!(super::fingerprint_state(tainted_helper()), 0); }
}
"#,
            &cfg_sink_fingerprint_root_hot(),
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn time_and_env_sources_seed() {
        let findings = analyze_src(
            r#"
fn clocked() -> u64 { let t = std::time::Instant::now(); t.elapsed().as_nanos() as u64 }
fn envy() -> bool { std::env::var("FFC_X").is_ok() }
pub fn fingerprint_all() -> u64 { clocked() + envy() as u64 }
"#,
            &cfg_sink_fingerprint_root_hot(),
        );
        let kinds: Vec<&str> = findings.iter().map(|f| f.kind).collect();
        assert!(kinds.contains(&"time"), "{findings:?}");
        assert!(kinds.contains(&"env"), "{findings:?}");
    }

    #[test]
    fn allow_marker_suppresses_site() {
        // The label must name the site's rule/kind; marker text in a
        // string literal is not a marker.
        for (above, muted) in [
            ("// audit:allow(panic-reachable/unwrap): reviewed", true),
            ("// audit:allow(panic-reachable/index): another kind", false),
            ("let _s = \"audit:allow(panic-reachable/unwrap)\";", false),
        ] {
            let src = format!(
                "fn deep(x: Option<u32>) -> u32 {{\n    {above}\n    x.unwrap()\n}}\n\
                 pub fn hot_loop(x: Option<u32>) -> u32 {{ deep(x) }}\n"
            );
            let findings = analyze_src(&src, &cfg_sink_fingerprint_root_hot());
            assert_eq!(findings.is_empty(), muted, "{above}: {findings:?}");
        }
    }

    #[test]
    fn index_and_rem_sites_reach_roots() {
        let findings = analyze_src(
            r#"
fn pick(v: &[u32], i: usize) -> u32 { v[i % v.len()] }
pub fn hot_loop(v: &[u32]) -> u32 { pick(v, 7) }
"#,
            &cfg_sink_fingerprint_root_hot(),
        );
        let kinds: Vec<&str> = findings
            .iter()
            .filter(|f| f.rule == "panic-reachable")
            .map(|f| f.kind)
            .collect();
        assert!(kinds.contains(&"index"), "{findings:?}");
        assert!(kinds.contains(&"rem-nonliteral"), "{findings:?}");
    }
}
