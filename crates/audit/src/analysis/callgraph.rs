//! Workspace-wide call graph (analysis pass 3).
//!
//! Nodes are the extracted [`FnDef`]s; edges come from call-shaped
//! token sequences inside fn bodies (`name(`, `path::name(`,
//! `.method(`), resolved against the workspace symbol tables by a
//! deterministic name heuristic:
//!
//! * `Type::name(...)` links to that type's impl fns when the type is
//!   defined in the workspace;
//! * `.method(...)` links to every workspace method of that name —
//!   except a deny list of ubiquitous std trait/collection method
//!   names whose edges would be pure noise;
//! * bare `name(...)` prefers same-module, then same-crate, then a
//!   unique workspace-wide match.
//!
//! The result over-approximates (a shared method name links to every
//! definition) — the right bias for the taint and panic-reachability
//! passes, whose misses would silently void the replay-determinism
//! guarantee; spurious findings are absorbed once into the committed
//! baseline and ratcheted from there.

use std::collections::{BTreeMap, BTreeSet};

use super::lexer::{Code, TokKind};
use super::parser::{FnDef, KEYWORDS};
use super::symbols::CrateSrc;

/// One call-shaped site inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Called name (last path segment / method name).
    pub name: String,
    /// Leading path segments (`ffc_core::batch` of
    /// `ffc_core::batch::solve(`), empty for bare and method calls.
    pub path: Vec<String>,
    /// Whether the site is `.name(` (method syntax).
    pub is_method: bool,
    /// 1-based source line.
    pub line: u32,
}

/// A function node in the graph.
#[derive(Debug)]
pub struct FnNode {
    /// Fully qualified name:
    /// `crate-name::module::path::[Type::]name`.
    pub qname: String,
    /// Package name.
    pub crate_name: String,
    /// File path relative to the analysis root.
    pub file: String,
    /// Index of the crate in the input slice.
    pub crate_idx: usize,
    /// Index of the file within its crate.
    pub file_idx: usize,
    /// Index of the fn within its file's AST.
    pub fn_idx: usize,
    /// Simple name.
    pub name: String,
    /// Impl/trait type, if a method.
    pub impl_type: Option<String>,
    /// Module path within the crate.
    pub module: Vec<String>,
    /// 1-based line of the definition.
    pub line: u32,
    /// Return type text.
    pub ret: String,
    /// Test-only item.
    pub is_test: bool,
    /// Call sites found in the body.
    pub calls: Vec<CallSite>,
}

/// The workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// All function nodes, in deterministic (crate, file, index) order.
    pub fns: Vec<FnNode>,
    /// `edges[i]` = sorted callee node indices of fn `i`.
    pub edges: Vec<Vec<usize>>,
}

/// Ubiquitous std method names: linking `.get(` to every workspace
/// `get` would connect everything to everything. Calls through these
/// names never create edges; panic/taint *sites* inside their
/// workspace definitions are still found via their callers' direct
/// edges or the definitions' own anchors.
const UBIQUITOUS_METHODS: &[&str] = &[
    "as_mut",
    "as_ref",
    "clone",
    "cmp",
    "contains",
    "default",
    "drop",
    "entry",
    "eq",
    "extend",
    "flush",
    "fmt",
    "from",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "keys",
    "len",
    "ne",
    "next",
    "partial_cmp",
    "pop",
    "push",
    "read",
    "remove",
    "to_string",
    "try_from",
    "try_into",
    "values",
    "write",
    "write_all",
    "write_fmt",
];

impl CallGraph {
    /// Builds the graph over the discovered crates.
    pub fn build(crates: &[CrateSrc]) -> CallGraph {
        // Collect nodes.
        let mut fns: Vec<FnNode> = Vec::new();
        for (ci, krate) in crates.iter().enumerate() {
            for (fi, file) in krate.files.iter().enumerate() {
                for (ki, def) in file.ast.fns.iter().enumerate() {
                    let calls = match def.body {
                        Some(range) => extract_calls(file, range),
                        None => Vec::new(),
                    };
                    fns.push(FnNode {
                        qname: qualified_name(&krate.name, def),
                        crate_name: krate.name.clone(),
                        file: file.rel.clone(),
                        crate_idx: ci,
                        file_idx: fi,
                        fn_idx: ki,
                        name: def.name.clone(),
                        impl_type: def.impl_type.clone(),
                        module: def.module.clone(),
                        line: def.line,
                        ret: def.ret.clone(),
                        is_test: def.is_test,
                        calls,
                    });
                }
            }
        }

        // Symbol tables over all nodes.
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut method_by_qual: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut method_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            match &f.impl_type {
                Some(t) => {
                    method_by_qual
                        .entry(format!("{}::{}", t, f.name))
                        .or_default()
                        .push(i);
                    method_by_name.entry(&f.name).or_default().push(i);
                }
                None => free_by_name.entry(&f.name).or_default().push(i),
            }
        }

        // Resolve call sites to edges.
        let mut edges: Vec<Vec<usize>> = Vec::with_capacity(fns.len());
        for f in &fns {
            let mut out: BTreeSet<usize> = BTreeSet::new();
            for call in &f.calls {
                resolve(
                    &fns,
                    f,
                    call,
                    &free_by_name,
                    &method_by_qual,
                    &method_by_name,
                    &mut out,
                );
            }
            edges.push(out.into_iter().collect());
        }
        CallGraph { fns, edges }
    }

    /// Node index by exact qualified name.
    pub fn find(&self, qname: &str) -> Option<usize> {
        self.fns.iter().position(|f| f.qname == qname)
    }
}

/// `crate-name::module::path::[Type::]name`.
pub fn qualified_name(crate_name: &str, def: &FnDef) -> String {
    let mut q = String::with_capacity(64);
    q.push_str(crate_name);
    for m in &def.module {
        q.push_str("::");
        q.push_str(m);
    }
    if let Some(t) = &def.impl_type {
        q.push_str("::");
        q.push_str(t);
    }
    q.push_str("::");
    q.push_str(&def.name);
    q
}

fn resolve(
    fns: &[FnNode],
    caller: &FnNode,
    call: &CallSite,
    free_by_name: &BTreeMap<&str, Vec<usize>>,
    method_by_qual: &BTreeMap<String, Vec<usize>>,
    method_by_name: &BTreeMap<&str, Vec<usize>>,
    out: &mut BTreeSet<usize>,
) {
    if call.is_method {
        if UBIQUITOUS_METHODS.contains(&call.name.as_str()) {
            return;
        }
        if let Some(cands) = method_by_name.get(call.name.as_str()) {
            out.extend(cands.iter().copied());
        }
        return;
    }
    if let Some(ty) = call.path.last() {
        // `Type::name(` — an uppercase last segment is a type path.
        if ty.chars().next().is_some_and(|c| c.is_uppercase()) {
            if let Some(cands) = method_by_qual.get(&format!("{}::{}", ty, call.name)) {
                out.extend(cands.iter().copied());
            }
            return;
        }
    }
    // Bare or module-path call: free functions by name. A module path
    // must be a suffix of the candidate's module path
    // (`other::helper(` matches `demo::other::helper`; `crate`,
    // `self`, and `super` segments match anything).
    let Some(cands) = free_by_name.get(call.name.as_str()) else {
        return;
    };
    let matching: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&i| {
            call.path
                .iter()
                .rev()
                .zip(fns[i].module.iter().rev().map(String::as_str).chain(
                    // Allow one extra leading segment for the crate name.
                    std::iter::once(fns[i].crate_name.as_str()),
                ))
                .all(|(a, b)| a == b || a == "crate" || a == "self" || a == "super")
        })
        .collect();
    // Nearest scope wins: same module, then same crate, then a unique
    // workspace-wide match (a shared free-fn name across crates is
    // ambiguous without import resolution — drop it rather than
    // connect everything).
    let same_module: Vec<usize> = matching
        .iter()
        .copied()
        .filter(|&i| fns[i].crate_idx == caller.crate_idx && fns[i].module == caller.module)
        .collect();
    if !same_module.is_empty() {
        out.extend(same_module);
        return;
    }
    let same_crate: Vec<usize> = matching
        .iter()
        .copied()
        .filter(|&i| fns[i].crate_idx == caller.crate_idx)
        .collect();
    if !same_crate.is_empty() {
        out.extend(same_crate);
        return;
    }
    if matching.len() == 1 {
        out.extend(matching);
    }
}

/// Extracts call-shaped sites from a fn body token range.
fn extract_calls(file: &super::symbols::SourceFile, body: (usize, usize)) -> Vec<CallSite> {
    let code = Code::new(&file.src, &file.ast.tokens, body);
    let text = |si: usize| code.text(si);

    let mut out = Vec::new();
    for i in 0..code.len() {
        if code.kind(i) != TokKind::Ident {
            continue;
        }
        let name = text(i);
        // Not a call: a keyword, a `name!(…)` macro invocation (the
        // panic-site scan reads the raw body separately), no `(`, or
        // the `fn name(` declaration itself.
        if KEYWORDS.contains(&name) || text(i + 1) != "(" || code.prev(i) == "fn" {
            continue;
        }
        let is_method = code.prev(i) == "." && (i < 2 || text(i - 2) != ".");
        let mut path = Vec::new();
        if !is_method {
            // Walk back through `seg ::` pairs.
            let mut j = i;
            while j >= 3
                && text(j - 1) == ":"
                && text(j - 2) == ":"
                && code.kind(j - 3) == TokKind::Ident
            {
                path.push(text(j - 3).to_string());
                j -= 3;
            }
            path.reverse();
        }
        out.push(CallSite {
            name: name.to_string(),
            path,
            is_method,
            line: code.tok(i).line,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::symbols::{CrateSrc, SourceFile};
    use super::*;
    use std::path::PathBuf;

    fn krate(name: &str, files: &[(&str, &str)]) -> CrateSrc {
        CrateSrc {
            name: name.to_string(),
            dir: PathBuf::from(name),
            files: files
                .iter()
                .map(|(rel, src)| SourceFile {
                    rel: rel.to_string(),
                    src: src.to_string(),
                    ast: super::super::parser::parse(src, &module_of(rel)),
                })
                .collect(),
        }
    }

    fn module_of(rel: &str) -> Vec<String> {
        let stem = rel.rsplit('/').next().unwrap().trim_end_matches(".rs");
        if stem == "lib" || stem == "main" {
            Vec::new()
        } else {
            vec![stem.to_string()]
        }
    }

    fn edge(g: &CallGraph, from: &str, to: &str) -> bool {
        let (Some(f), Some(t)) = (g.find(from), g.find(to)) else {
            return false;
        };
        g.edges[f].contains(&t)
    }

    #[test]
    fn bare_and_path_calls_link() {
        let g = CallGraph::build(&[krate(
            "demo",
            &[(
                "demo/src/lib.rs",
                r#"
fn leaf() {}
fn caller() { leaf(); other::helper(); }
mod other { pub fn helper() { super::leaf(); } }
"#,
            )],
        )]);
        assert!(edge(&g, "demo::caller", "demo::leaf"));
        assert!(edge(&g, "demo::caller", "demo::other::helper"));
        assert!(edge(&g, "demo::other::helper", "demo::leaf"));
    }

    #[test]
    fn type_paths_and_methods_link() {
        let g = CallGraph::build(&[krate(
            "demo",
            &[(
                "demo/src/lib.rs",
                r#"
struct Engine;
impl Engine {
    fn new() -> Engine { Engine }
    fn pivot(&self) {}
}
fn drive() { let e = Engine::new(); e.pivot(); }
"#,
            )],
        )]);
        assert!(edge(&g, "demo::drive", "demo::Engine::new"));
        assert!(edge(&g, "demo::drive", "demo::Engine::pivot"));
    }

    #[test]
    fn ubiquitous_method_names_do_not_link() {
        let g = CallGraph::build(&[krate(
            "demo",
            &[(
                "demo/src/lib.rs",
                r#"
struct S;
impl S { fn len(&self) -> usize { 0 } }
fn user(v: Vec<u8>) -> usize { v.len() }
"#,
            )],
        )]);
        assert!(!edge(&g, "demo::user", "demo::S::len"));
    }

    #[test]
    fn macros_are_not_call_edges() {
        let g = CallGraph::build(&[krate(
            "demo",
            &[(
                "demo/src/lib.rs",
                r#"
fn vec_probe() { let v = vec![1]; println!("{v:?}"); }
fn vec() {}
"#,
            )],
        )]);
        assert!(!edge(&g, "demo::vec_probe", "demo::vec"));
    }

    #[test]
    fn cross_crate_unique_free_fn_links() {
        let g = CallGraph::build(&[
            krate("a", &[("a/src/lib.rs", "pub fn unique_helper() {}")]),
            krate(
                "b",
                &[("b/src/lib.rs", "pub fn caller() { unique_helper(); }")],
            ),
        ]);
        assert!(edge(&g, "b::caller", "a::unique_helper"));
    }
}
