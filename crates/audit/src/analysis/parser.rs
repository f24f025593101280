//! Item extractor (analysis pass 1): walks the lossless token stream
//! and recovers the shape every source check needs — `fn` items with
//! their module path, surrounding `impl`/`trait` type, return type
//! text and body token range; struct fields declared with
//! `HashMap`/`HashSet` types (the determinism pass flags iteration over
//! them); the token ranges of test-gated items; and the reviewed
//! suppressions written in comments. The lint rules and the
//! interprocedural passes both read test scope and suppressions from
//! here, so neither can disagree with the other about what is
//! production code or what a human has signed off.
//!
//! This is *not* a Rust parser. It is a brace-matching scope tracker
//! with just enough signature parsing to be right on idiomatic code;
//! pathological macro bodies may confuse it, which costs precision
//! (a spurious or missed call edge), never soundness of the committed
//! baseline (findings are keyed structurally and diffed
//! deterministically).
//!
//! # Suppressions
//!
//! One grammar, read from comment tokens only (marker text inside a
//! string literal is data, not a suppression):
//!
//! ```text
//! // audit:allow(<label>[, <label>…]): reason
//! // audit:allow-file(<label>[, <label>…]): reason
//! ```
//!
//! The first form covers a site on the comment's own line or directly
//! below the contiguous comment block it sits in; the second covers
//! the whole file from anywhere in it. A label is a lint rule name
//! (`no-unwrap`) or an analyzer `rule/kind` pair
//! (`panic-reachable/index`).

use std::collections::{BTreeMap, BTreeSet};

use super::lexer::{tokenize, Code, TokKind, Token};

/// The suppression marker; `-file(` or `(` follows it.
pub(crate) const ALLOW_MARKER: &str = "audit:allow";

/// One extracted function item.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Simple name (`solve_with`).
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any (`Engine`).
    pub impl_type: Option<String>,
    /// Module path within the crate (file path modules + inline mods).
    pub module: Vec<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Return type text (tokens after `->`, single-space joined; empty
    /// for `()` returns).
    pub ret: String,
    /// Token index range of the body including both braces, when the
    /// item has one (`None` for trait method declarations).
    pub body: Option<(usize, usize)>,
    /// Whether the `fn` keyword lies in one of
    /// [`FileAst::test_ranges`].
    pub is_test: bool,
}

/// Parse result for one file.
#[derive(Debug)]
pub struct FileAst {
    /// The lossless token stream.
    pub tokens: Vec<Token>,
    /// Extracted function items, in source order.
    pub fns: Vec<FnDef>,
    /// Names of struct fields whose declared type mentions
    /// `HashMap`/`HashSet`.
    pub hash_fields: BTreeSet<String>,
    test_ranges: Vec<(usize, usize)>,
    allows: Allows,
}

impl FileAst {
    /// Token index ranges (end exclusive; sorted, disjoint, outermost
    /// only) of the items compiled only under `cfg(test)`: any item —
    /// `mod`, `fn`, `impl`, `const`, `static`, `use`, … — behind
    /// `#[test]` or a `#[cfg(…)]` that needs `test`, from the
    /// attribute's `#` through the item's closing `}` or `;`.
    pub fn test_ranges(&self) -> &[(usize, usize)] {
        &self.test_ranges
    }

    /// Whether token `tok` lies in a test-gated item.
    pub(crate) fn in_test(&self, tok: usize) -> bool {
        covers(&self.test_ranges, tok)
    }

    /// Whether a reviewed suppression for `label` covers a site on
    /// `line`: a file-wide one, one on the line itself, or one in the
    /// contiguous comment block directly above it.
    pub(crate) fn allowed(&self, line: u32, label: &str) -> bool {
        let named = |labels: &Vec<String>| labels.iter().any(|l| l == label);
        named(&self.allows.file) || self.allows.by_line.get(&line).is_some_and(named)
    }
}

fn covers(ranges: &[(usize, usize)], tok: usize) -> bool {
    ranges.iter().any(|&(s, e)| s <= tok && tok < e)
}

/// The reviewed suppressions of one file.
#[derive(Debug, Default)]
struct Allows {
    /// Labels exempted file-wide.
    file: Vec<String>,
    /// Labels by the code line they cover.
    by_line: BTreeMap<u32, Vec<String>>,
}

/// The suppression parser: reads every marker out of the comment
/// tokens of one file and resolves it to the line it covers.
fn scan_allows(src: &str, tokens: &[Token]) -> Allows {
    let mut out = Allows::default();
    // Labels of the comment block being read, waiting for the code
    // line below it; and the line the last code token ended on.
    let mut block: Vec<String> = Vec::new();
    let mut code_line = 0u32;
    for t in tokens {
        let text = t.text(src);
        let newlines = text.matches('\n').count() as u32;
        match t.kind {
            // A blank line ends the block: its markers cover nothing.
            TokKind::Ws if newlines > 1 => block.clear(),
            TokKind::Ws => {}
            TokKind::LineComment | TokKind::BlockComment => {
                let mut rest = text;
                while let Some(at) = rest.find(ALLOW_MARKER) {
                    rest = &rest[at + ALLOW_MARKER.len()..];
                    let (file_wide, args) = match rest.strip_prefix("-file(") {
                        Some(args) => (true, args),
                        None => (false, rest.strip_prefix('(').unwrap_or("")),
                    };
                    let Some(close) = args.find(')') else {
                        continue;
                    };
                    let labels = args[..close].split(',').map(|l| l.trim().to_string());
                    if file_wide {
                        out.file.extend(labels);
                    } else if t.line == code_line {
                        // Trailing comment: covers its own line only.
                        out.by_line.entry(t.line).or_default().extend(labels);
                    } else {
                        block.extend(labels);
                    }
                }
            }
            _ => {
                if !block.is_empty() {
                    out.by_line.entry(t.line).or_default().append(&mut block);
                }
                code_line = t.line + newlines;
            }
        }
    }
    out
}

/// Keywords that are never call targets or type names.
pub(crate) const KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern",
    "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true", "type",
    "unsafe", "use", "where", "while",
];

/// What the next `{` opens.
#[derive(Debug, Clone)]
enum Pending {
    Mod(String),
    Impl(String),
    Trait(String),
}

#[derive(Debug, Clone)]
enum Scope {
    Mod(String),
    Impl(String),
    Trait(String),
    Fn(usize, usize), // fn index, opening token index
    Block,
}

/// The test-scope predicate: whether the attribute whose body (the
/// tokens between `#[` and `]`) is `code[a..b]` compiles its item only
/// under `cfg(test)`. `#[test]` does; so does a `#[cfg(…)]` whose
/// expression names `test` outside every `not(…)` — `test`,
/// `all(test, …)`, `any(test, …)` — while `not(test)` is production.
fn gates_test(code: &Code, a: usize, b: usize) -> bool {
    if code.text(a) != "cfg" {
        return b == a + 1 && code.text(a) == "test";
    }
    let mut k = a + 1;
    while k < b {
        match code.text(k) {
            "test" => return true,
            "not" => k = matching_close(code, k + 1, b),
            _ => {}
        }
        k += 1;
    }
    false
}

/// Index of the bracket closing the one at `open`, capped at `end`.
fn matching_close(code: &Code, open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    for k in open..end {
        match code.text(k) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth <= 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    end
}

/// Token index one past the item that starts at significant index
/// `from` (just after its gating attribute): through the first `;` or
/// closed `{…}` at bracket depth zero, never beyond the block the
/// attribute itself sits in, `usize::MAX` when the file ends first.
fn item_end(code: &Code, from: usize) -> usize {
    let mut depth = 0i32;
    for k in from..code.len() {
        match code.text(k) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                // Depth zero closes the item's own `{…}`; below zero
                // the enclosing block or list ends, the item with it.
                if depth < 0 || (depth == 0 && code.text(k) == "}") {
                    return code.pos(k) + usize::from(depth == 0);
                }
            }
            ";" if depth == 0 => return code.pos(k) + 1,
            _ => {}
        }
    }
    usize::MAX
}

/// Parses `src`, attributing items to `base_module` (the module path
/// implied by the file's location, e.g. `["store"]` for
/// `src/store.rs`).
pub fn parse(src: &str, base_module: &[String]) -> FileAst {
    let tokens = tokenize(src);
    let code = Code::new(src, &tokens, (0, tokens.len()));
    let text = |si: usize| code.text(si);
    let kind = |si: usize| code.kind(si);

    let mut fns: Vec<FnDef> = Vec::new();
    let mut hash_fields: BTreeSet<String> = BTreeSet::new();
    let mut test_ranges: Vec<(usize, usize)> = Vec::new();
    let mut stack: Vec<Scope> = Vec::new();
    let mut pending: Option<Pending> = None;

    let module_of = |stack: &[Scope]| -> Vec<String> {
        let mut m: Vec<String> = base_module.to_vec();
        for s in stack {
            if let Scope::Mod(name) = s {
                m.push(name.clone());
            }
        }
        m
    };
    let impl_of = |stack: &[Scope]| -> Option<String> {
        stack.iter().rev().find_map(|s| match s {
            Scope::Impl(t) | Scope::Trait(t) => Some(t.clone()),
            _ => None,
        })
    };

    let mut i = 0usize;
    while i < code.len() {
        let t = text(i);
        match (kind(i), t) {
            // Attribute: `#[...]` — scan to the matching `]`.
            (TokKind::Punct, "#") if text(i + 1) == "[" => {
                let close = matching_close(&code, i + 1, code.len());
                let start = code.pos(i);
                if !covers(&test_ranges, start) && gates_test(&code, i + 2, close) {
                    let end = item_end(&code, close + 1).min(tokens.len());
                    test_ranges.push((start, end));
                }
                i = close + 1;
                continue;
            }
            (TokKind::Ident, "mod") if kind(i + 1) == TokKind::Ident => {
                if text(i + 2) == "{" {
                    pending = Some(Pending::Mod(text(i + 1).to_string()));
                }
                i += 2;
                continue;
            }
            (TokKind::Ident, "impl") => {
                let (ty, next) = scan_impl_type(&code, i);
                pending = Some(Pending::Impl(ty));
                i = next;
                continue;
            }
            (TokKind::Ident, "trait") if kind(i + 1) == TokKind::Ident => {
                pending = Some(Pending::Trait(text(i + 1).to_string()));
                i += 2;
                continue;
            }
            (TokKind::Ident, "fn") if kind(i + 1) == TokKind::Ident => {
                let at = code.pos(i);
                let (ret, body_open) = scan_fn_signature(&code, i + 2);
                let idx = fns.len();
                fns.push(FnDef {
                    name: text(i + 1).to_string(),
                    impl_type: impl_of(&stack),
                    module: module_of(&stack),
                    line: tokens[at].line,
                    ret,
                    body: None,
                    is_test: covers(&test_ranges, at),
                });
                match body_open {
                    Some(open_si) => {
                        stack.push(Scope::Fn(idx, code.pos(open_si)));
                        i = open_si + 1;
                    }
                    None => {
                        // Declaration only (`;`): resume after it.
                        i += 2;
                    }
                }
                continue;
            }
            (TokKind::Ident, "struct") if kind(i + 1) == TokKind::Ident => {
                // Record named-struct fields typed HashMap/HashSet.
                let mut j = i + 2;
                // Skip generics.
                let mut angle = 0i32;
                while j < code.len() {
                    match text(j) {
                        "<" => angle += 1,
                        ">" => angle -= 1,
                        "{" | "(" | ";" if angle <= 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                i = if text(j) == "{" {
                    scan_struct_fields(&code, j, &mut hash_fields)
                } else {
                    j
                };
                continue;
            }
            (TokKind::Punct, "{") => {
                stack.push(match pending.take() {
                    Some(Pending::Mod(n)) => Scope::Mod(n),
                    Some(Pending::Impl(t)) => Scope::Impl(t),
                    Some(Pending::Trait(t)) => Scope::Trait(t),
                    None => Scope::Block,
                });
                i += 1;
                continue;
            }
            (TokKind::Punct, "}") => {
                if let Some(Scope::Fn(idx, open_tok)) = stack.pop() {
                    fns[idx].body = Some((open_tok, code.pos(i) + 1));
                }
                i += 1;
                continue;
            }
            _ => {
                i += 1;
            }
        }
    }
    let allows = scan_allows(src, &tokens);
    FileAst {
        tokens,
        fns,
        hash_fields,
        test_ranges,
        allows,
    }
}

/// From the token after `impl`, finds the implemented type name and the
/// significant-index to resume at (the `{` or just past a `;`).
///
/// `impl<T> Trait for Type<T>` → `Type`; `impl Type` → `Type`.
fn scan_impl_type(code: &Code, impl_si: usize) -> (String, usize) {
    let mut angle = 0i32;
    let mut saw_for = false;
    let mut first: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut j = impl_si + 1;
    while j < code.len() {
        let t = code.text(j);
        match t {
            "<" => angle += 1,
            ">" => angle = (angle - 1).max(0),
            "{" | ";" if angle == 0 => break,
            "for" if angle == 0 => saw_for = true,
            _ if angle == 0 && code.kind(j) == TokKind::Ident && !KEYWORDS.contains(&t) => {
                if saw_for {
                    // Keep the *last* path segment: `fmt::Display
                    // for path::Type` → `Type`.
                    after_for = Some(t.to_string());
                } else if first.is_none() || (code.prev(j) == ":" && code.prev(j - 1) == ":") {
                    // A `::`-continued ident replaces the previous
                    // segment as the type name.
                    first = Some(t.to_string());
                }
            }
            _ => {}
        }
        j += 1;
    }
    let ty = after_for.or(first).unwrap_or_else(|| "?".to_string());
    (ty, j)
}

/// From the significant index just past the fn name, scans the
/// signature: returns the return-type text and the index of the body
/// `{` (None for a `;` declaration).
fn scan_fn_signature(code: &Code, mut j: usize) -> (String, Option<usize>) {
    let text = |si: usize| code.text(si);
    // Optional generics.
    if text(j) == "<" {
        let mut angle = 0i32;
        while j < code.len() {
            match text(j) {
                "<" => angle += 1,
                ">" => {
                    angle -= 1;
                    if angle == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    // Parameter list.
    if text(j) == "(" {
        j = matching_close(code, j, code.len()) + 1;
    }
    // Return type: `-> tokens` until `{`, `;`, or `where`.
    let mut ret = String::new();
    let mut saw_arrow = false;
    let mut angle = 0i32;
    while j < code.len() {
        let t = text(j);
        match t {
            "<" => angle += 1,
            ">" if angle > 0 => angle -= 1,
            _ => {}
        }
        if angle == 0 {
            match t {
                "{" => return (ret.trim().to_string(), Some(j)),
                ";" => return (ret.trim().to_string(), None),
                "where" => {
                    saw_arrow = false; // stop collecting
                    j += 1;
                    continue;
                }
                "-" if text(j + 1) == ">" && !saw_arrow && ret.is_empty() => {
                    saw_arrow = true;
                    j += 2;
                    continue;
                }
                _ => {}
            }
        }
        if saw_arrow {
            if !ret.is_empty() {
                ret.push(' ');
            }
            ret.push_str(t);
        }
        j += 1;
    }
    (ret.trim().to_string(), None)
}

/// Scans a named-struct body starting at its `{`, recording fields
/// whose type text mentions `HashMap`/`HashSet`. Returns the
/// significant index just past the closing `}`.
fn scan_struct_fields(code: &Code, open_si: usize, hash_fields: &mut BTreeSet<String>) -> usize {
    let mut depth = 0i32;
    let mut j = open_si;
    let mut field: Option<String> = None;
    let mut ty = String::new();
    let mut in_ty = false;
    while j < code.len() {
        let t = code.text(j);
        match t {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    flush_field(&mut field, &mut ty, &mut in_ty, hash_fields);
                    return j + 1;
                }
            }
            _ => {}
        }
        if depth == 1 {
            match t {
                ":" if field.is_some() && !in_ty => in_ty = true,
                "," => flush_field(&mut field, &mut ty, &mut in_ty, hash_fields),
                _ if in_ty => {
                    ty.push_str(t);
                }
                _ if code.kind(j) == TokKind::Ident && !KEYWORDS.contains(&t) => {
                    field = Some(t.to_string());
                }
                _ => {}
            }
        } else if in_ty {
            ty.push_str(t);
        }
        j += 1;
    }
    flush_field(&mut field, &mut ty, &mut in_ty, hash_fields);
    j
}

fn flush_field(
    field: &mut Option<String>,
    ty: &mut String,
    in_ty: &mut bool,
    hash_fields: &mut BTreeSet<String>,
) {
    if let Some(name) = field.take() {
        if ty.contains("HashMap") || ty.contains("HashSet") {
            hash_fields.insert(name);
        }
    }
    ty.clear();
    *in_ty = false;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(ast: &FileAst) -> Vec<String> {
        ast.fns
            .iter()
            .map(|f| match &f.impl_type {
                Some(t) => format!("{}::{}", t, f.name),
                None => f.name.clone(),
            })
            .collect()
    }

    #[test]
    fn extracts_free_and_impl_fns() {
        let src = r#"
pub fn free(a: u32) -> u32 { a + 1 }
struct Engine { y: Vec<f64> }
impl Engine {
    fn optimize(&mut self) -> Result<(), String> { Ok(()) }
    pub fn pivot(&self) {}
}
impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }
}
"#;
        let ast = parse(src, &[]);
        assert_eq!(
            names(&ast),
            vec!["free", "Engine::optimize", "Engine::pivot", "Engine::fmt"]
        );
        assert_eq!(ast.fns[1].ret, "Result < ( ) , String >");
        assert!(ast.fns[0].body.is_some());
    }

    #[test]
    fn modules_nest_and_cfg_test_marks() {
        let src = r#"
mod inner {
    pub fn helper() {}
}
#[cfg(test)]
mod tests {
    fn probe() {}
    #[test]
    fn case() {}
}
#[test]
fn top_case() {}
"#;
        let ast = parse(src, &["file".to_string()]);
        let f = &ast.fns[0];
        assert_eq!(f.module, vec!["file", "inner"]);
        assert!(!f.is_test);
        assert!(ast.fns[1].is_test, "fn inside #[cfg(test)] mod");
        assert!(ast.fns[2].is_test);
        assert!(ast.fns[3].is_test, "#[test] fn at top level");
    }

    #[test]
    fn test_scope_evaluates_the_cfg_and_covers_any_item_kind() {
        let src = r#"
#[cfg(test)]
use std::fmt;
fn after_use() {}
#[cfg(all(test, feature = "x"))]
impl Foo { fn probe() {} }
#[cfg(any(test, fuzzing))]
const N: [u8; 2] = [1, 2];
fn after_const() {}
#[cfg(not(test))]
fn production() {}
#[cfg_attr(test, allow(dead_code))]
fn attr_only() {}
#[cfg(feature = "test")]
fn feature_named_test() {}
"#;
        let ast = parse(src, &[]);
        let is_test: Vec<(&str, bool)> = ast
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_test))
            .collect();
        assert_eq!(
            is_test,
            vec![
                ("after_use", false),
                ("probe", true),
                ("after_const", false),
                ("production", false),
                ("attr_only", false),
                ("feature_named_test", false),
            ]
        );
        let covered: Vec<String> = ast
            .test_ranges()
            .iter()
            .map(|&(s, e)| ast.tokens[s..e].iter().map(|t| t.text(src)).collect())
            .collect();
        assert_eq!(
            covered,
            vec![
                "#[cfg(test)]\nuse std::fmt;",
                "#[cfg(all(test, feature = \"x\"))]\nimpl Foo { fn probe() {} }",
                "#[cfg(any(test, fuzzing))]\nconst N: [u8; 2] = [1, 2];",
            ]
        );
    }

    #[test]
    fn suppressions_are_read_from_comments_and_resolved_to_lines() {
        let src = "\
// audit:allow(a, b/c): reason
// that runs on
let x = 1; // audit:allow(d): inline
let s = \"audit:allow(e): a string\";

// audit:allow(f): cut off by the blank line below

let y = 2;
/* audit:allow-file(g, h): from anywhere */
";
        let ast = parse(src, &[]);
        for (line, label, want) in [
            (3, "a", true),
            (3, "b/c", true),
            (3, "d", true),
            (4, "a", false), // a block covers the first code line only
            (4, "d", false),
            (4, "e", false),
            (8, "f", false),
            (8, "g", true),
            (0, "h", true),
        ] {
            assert_eq!(ast.allowed(line, label), want, "line {line} label {label}");
        }
    }

    #[test]
    fn hash_typed_struct_fields_are_recorded() {
        let src = r#"
pub struct Store {
    index: HashMap<String, u64>,
    names: Vec<String>,
    seen: std::collections::HashSet<u32>,
}
struct Clean { a: BTreeMap<u8, u8> }
"#;
        let ast = parse(src, &[]);
        let fields: Vec<&str> = ast.hash_fields.iter().map(|s| s.as_str()).collect();
        assert_eq!(fields, vec!["index", "seen"]);
    }

    #[test]
    fn trait_decls_without_bodies_are_kept() {
        let src = r#"
pub trait Sink {
    fn accept(&mut self, x: u32) -> bool;
    fn flush(&mut self) {}
}
"#;
        let ast = parse(src, &[]);
        assert_eq!(names(&ast), vec!["Sink::accept", "Sink::flush"]);
        assert!(ast.fns[0].body.is_none());
        assert!(ast.fns[1].body.is_some());
    }

    #[test]
    fn where_clauses_and_generics_do_not_derail() {
        let src = r#"
fn generic<T: Clone, F>(x: T, f: F) -> Vec<T>
where
    F: Fn(&T) -> bool,
{
    vec![x]
}
fn after() {}
"#;
        let ast = parse(src, &[]);
        assert_eq!(names(&ast), vec!["generic", "after"]);
        assert_eq!(ast.fns[0].ret, "Vec < T >");
    }
}
