//! Item extractor (analysis pass 1): walks the lossless token stream
//! and recovers the shape the interprocedural passes need — `fn` items
//! with their module path, surrounding `impl`/`trait` type, return
//! type text, body token range, and `#[cfg(test)]` status — plus
//! struct fields declared with `HashMap`/`HashSet` types (the
//! determinism pass flags iteration over them).
//!
//! This is *not* a Rust parser. It is a brace-matching scope tracker
//! with just enough signature parsing to be right on idiomatic code;
//! pathological macro bodies may confuse it, which costs precision
//! (a spurious or missed call edge), never soundness of the committed
//! baseline (findings are keyed structurally and diffed
//! deterministically).

use std::collections::BTreeSet;

use super::lexer::{tokenize, TokKind, Token};

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
    /// Whether the item is test-only (`#[test]`, `#[cfg(test)]`, or
    /// inside a module so marked).
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
    Mod(String, bool),
    Impl(String),
    Trait(String),
}

#[derive(Debug, Clone)]
enum Scope {
    Mod(String, bool),
    Impl(String),
    Trait(String),
    Fn(usize, usize), // fn index, opening token index
    Block,
}

/// Parses `src`, attributing items to `base_module` (the module path
/// implied by the file's location, e.g. `["store"]` for
/// `src/store.rs`).
pub fn parse(src: &str, base_module: &[String]) -> FileAst {
    let tokens = tokenize(src);
    // Indices of significant tokens (no whitespace, no comments).
    let sig: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| {
            !matches!(
                t.kind,
                TokKind::Ws | TokKind::LineComment | TokKind::BlockComment
            )
        })
        .map(|(i, _)| i)
        .collect();
    let text = |si: usize| -> &str { tokens[sig[si]].text(src) };
    let kind = |si: usize| -> TokKind { tokens[sig[si]].kind };

    let mut fns: Vec<FnDef> = Vec::new();
    let mut hash_fields: BTreeSet<String> = BTreeSet::new();
    let mut stack: Vec<Scope> = Vec::new();
    let mut pending: Option<Pending> = None;
    let mut pending_test = false;

    let in_test = |stack: &[Scope], pending_test: bool| -> bool {
        pending_test
            || stack.iter().any(|s| match s {
                Scope::Mod(_, t) => *t,
                _ => false,
            })
    };
    let module_of = |stack: &[Scope]| -> Vec<String> {
        let mut m: Vec<String> = base_module.to_vec();
        for s in stack {
            if let Scope::Mod(name, _) = s {
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
    while i < sig.len() {
        let t = text(i);
        match (kind(i), t) {
            // Attribute: `#[...]` — scan to the matching `]`.
            (TokKind::Punct, "#") if i + 1 < sig.len() && text(i + 1) == "[" => {
                let mut depth = 0i32;
                let mut j = i + 1;
                let mut attr = String::new();
                while j < sig.len() {
                    match text(j) {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        s => {
                            attr.push_str(s);
                            attr.push(' ');
                        }
                    }
                    j += 1;
                }
                // `#[test]`, `#[cfg(test)]`, `#[cfg(any(test, ...))]`
                // all contain the bare word `test`.
                if attr.split_whitespace().any(|w| w == "test") {
                    pending_test = true;
                }
                i = j + 1;
                continue;
            }
            (TokKind::Ident, "mod") if i + 1 < sig.len() && kind(i + 1) == TokKind::Ident => {
                let name = text(i + 1).to_string();
                if i + 2 < sig.len() && text(i + 2) == "{" {
                    pending = Some(Pending::Mod(name, in_test(&stack, pending_test)));
                }
                pending_test = false;
                i += 2;
                continue;
            }
            (TokKind::Ident, "impl") => {
                let (ty, next) = scan_impl_type(&sig, &tokens, src, i);
                pending = Some(Pending::Impl(ty));
                pending_test = false;
                i = next;
                continue;
            }
            (TokKind::Ident, "trait") if i + 1 < sig.len() && kind(i + 1) == TokKind::Ident => {
                pending = Some(Pending::Trait(text(i + 1).to_string()));
                pending_test = false;
                i += 2;
                continue;
            }
            (TokKind::Ident, "fn") if i + 1 < sig.len() && kind(i + 1) == TokKind::Ident => {
                let name = text(i + 1).to_string();
                let line = tokens[sig[i]].line;
                let (ret, body_open) = scan_fn_signature(&sig, &tokens, src, i + 2);
                let def = FnDef {
                    name,
                    impl_type: impl_of(&stack),
                    module: module_of(&stack),
                    line,
                    ret,
                    body: None,
                    is_test: in_test(&stack, pending_test),
                };
                pending_test = false;
                let idx = fns.len();
                fns.push(def);
                match body_open {
                    Some(open_si) => {
                        stack.push(Scope::Fn(idx, sig[open_si]));
                        i = open_si + 1;
                    }
                    None => {
                        // Declaration only (`;`): resume after it.
                        i += 2;
                    }
                }
                continue;
            }
            (TokKind::Ident, "struct") if i + 1 < sig.len() && kind(i + 1) == TokKind::Ident => {
                // Record named-struct fields typed HashMap/HashSet.
                let mut j = i + 2;
                // Skip generics.
                let mut angle = 0i32;
                while j < sig.len() {
                    match text(j) {
                        "<" => angle += 1,
                        ">" => angle -= 1,
                        "{" | "(" | ";" if angle <= 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if j < sig.len() && text(j) == "{" {
                    i = scan_struct_fields(&sig, &tokens, src, j, &mut hash_fields);
                    pending_test = false;
                    continue;
                }
                pending_test = false;
                i = j;
                continue;
            }
            (TokKind::Punct, "{") => {
                stack.push(match pending.take() {
                    Some(Pending::Mod(n, t)) => Scope::Mod(n, t),
                    Some(Pending::Impl(t)) => Scope::Impl(t),
                    Some(Pending::Trait(t)) => Scope::Trait(t),
                    None => Scope::Block,
                });
                i += 1;
                continue;
            }
            (TokKind::Punct, "}") => {
                if let Some(Scope::Fn(idx, open_tok)) = stack.pop() {
                    fns[idx].body = Some((open_tok, sig[i] + 1));
                }
                i += 1;
                continue;
            }
            _ => {
                i += 1;
            }
        }
    }
    FileAst {
        tokens,
        fns,
        hash_fields,
    }
}

/// From the token after `impl`, finds the implemented type name and the
/// significant-index to resume at (the `{` or just past a `;`).
///
/// `impl<T> Trait for Type<T>` → `Type`; `impl Type` → `Type`.
fn scan_impl_type(sig: &[usize], tokens: &[Token], src: &str, impl_si: usize) -> (String, usize) {
    let text = |si: usize| -> &str { tokens[sig[si]].text(src) };
    let mut angle = 0i32;
    let mut saw_for = false;
    let mut first: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut j = impl_si + 1;
    while j < sig.len() {
        let t = text(j);
        match t {
            "<" => angle += 1,
            ">" => angle = (angle - 1).max(0),
            "{" | ";" if angle == 0 => break,
            "for" if angle == 0 => saw_for = true,
            _ if angle == 0 && tokens[sig[j]].kind == TokKind::Ident && !KEYWORDS.contains(&t) => {
                if saw_for {
                    // Keep the *last* path segment: `fmt::Display
                    // for path::Type` → `Type`.
                    after_for = Some(t.to_string());
                } else if first.is_none() || is_path_continuation(sig, tokens, src, j) {
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

/// Whether the ident at `si` is preceded by `::` (so it replaces the
/// previous segment as the type name).
fn is_path_continuation(sig: &[usize], tokens: &[Token], src: &str, si: usize) -> bool {
    si >= 2 && tokens[sig[si - 1]].text(src) == ":" && tokens[sig[si - 2]].text(src) == ":"
}

/// From the significant index just past the fn name, scans the
/// signature: returns the return-type text and the index of the body
/// `{` (None for a `;` declaration).
fn scan_fn_signature(
    sig: &[usize],
    tokens: &[Token],
    src: &str,
    mut j: usize,
) -> (String, Option<usize>) {
    let text = |si: usize| -> &str { tokens[sig[si]].text(src) };
    // Optional generics.
    if j < sig.len() && text(j) == "<" {
        let mut angle = 0i32;
        while j < sig.len() {
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
    if j < sig.len() && text(j) == "(" {
        let mut paren = 0i32;
        while j < sig.len() {
            match text(j) {
                "(" => paren += 1,
                ")" => {
                    paren -= 1;
                    if paren == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    // Return type: `-> tokens` until `{`, `;`, or `where`.
    let mut ret = String::new();
    let mut saw_arrow = false;
    let mut angle = 0i32;
    while j < sig.len() {
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
                "-" if j + 1 < sig.len() && text(j + 1) == ">" && !saw_arrow && ret.is_empty() => {
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
fn scan_struct_fields(
    sig: &[usize],
    tokens: &[Token],
    src: &str,
    open_si: usize,
    hash_fields: &mut BTreeSet<String>,
) -> usize {
    let text = |si: usize| -> &str { tokens[sig[si]].text(src) };
    let mut depth = 0i32;
    let mut j = open_si;
    let mut field: Option<String> = None;
    let mut ty = String::new();
    let mut in_ty = false;
    while j < sig.len() {
        let t = text(j);
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
                _ if tokens[sig[j]].kind == TokKind::Ident && !KEYWORDS.contains(&t) => {
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
