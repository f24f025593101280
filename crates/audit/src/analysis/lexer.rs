//! Hand-rolled Rust tokenizer (analysis pass 0).
//!
//! Dependency-free — no `syn`, no `proc-macro2`. The token stream is
//! *lossless*: every input byte lands in exactly one token, so
//! concatenating [`Token`] texts reconstructs the source byte for byte
//! (property-tested against the whole workspace). That guarantee is
//! what the rules rest on: no byte is skipped, and comment or string
//! contents are never read as code.
//!
//! The grammar is the subset of Rust lexing the analyzer needs to be
//! *safe*: comments (line, nested block), string-ish literals (plain,
//! raw, byte, C), char literals vs lifetimes, identifiers (including
//! `r#raw`), numbers (decimal, hex/octal/binary, floats with
//! exponents), and single-character punctuation. Multi-character
//! operators are left as adjacent punct tokens; the parser peeks.

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Whitespace run (spaces, tabs, newlines).
    Ws,
    /// `// ...` to end of line (newline excluded).
    LineComment,
    /// `/* ... */`, nesting honored.
    BlockComment,
    /// String literal: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`,
    /// `c"…"`.
    Str,
    /// Char or byte-char literal: `'x'`, `'\n'`, `b'x'`.
    Char,
    /// Lifetime: `'a`, `'static`, `'_`.
    Lifetime,
    /// Identifier or keyword (including `r#ident`).
    Ident,
    /// Numeric literal (integer or float, any base, with suffix).
    Num,
    /// Any other single character.
    Punct,
}

/// One token: classification plus its byte span and 1-based start line.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokKind,
    /// Byte offset of the first byte, inclusive.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// The token's text within `src` (the string it was lexed from).
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }

    /// The source line the token starts on, trimmed: the excerpt a
    /// finding at this token carries.
    pub(crate) fn excerpt<'a>(&self, src: &'a str) -> &'a str {
        let from = src[..self.start].rfind('\n').map_or(0, |p| p + 1);
        let to = src[self.start..]
            .find('\n')
            .map_or(src.len(), |p| self.start + p);
        src[from..to].trim()
    }
}

/// The significant tokens (no whitespace, no comments) of a token
/// range: the one view every pass and every lint rule pattern-matches
/// through. Comments are not in it and a literal's text carries its
/// quotes, so neither can ever spell an identifier or an operator.
pub(crate) struct Code<'a> {
    src: &'a str,
    toks: &'a [Token],
    sig: Vec<usize>,
}

impl<'a> Code<'a> {
    /// The significant tokens among `toks[start..end]`.
    pub(crate) fn new(src: &'a str, toks: &'a [Token], (start, end): (usize, usize)) -> Self {
        let sig = (start..end.min(toks.len()))
            .filter(|&i| {
                !matches!(
                    toks[i].kind,
                    TokKind::Ws | TokKind::LineComment | TokKind::BlockComment
                )
            })
            .collect();
        Code { src, toks, sig }
    }

    /// Number of significant tokens.
    pub(crate) fn len(&self) -> usize {
        self.sig.len()
    }

    /// Index of significant token `si` in the full token stream.
    pub(crate) fn pos(&self, si: usize) -> usize {
        self.sig[si]
    }

    /// Significant token `si`.
    pub(crate) fn tok(&self, si: usize) -> &'a Token {
        &self.toks[self.sig[si]]
    }

    /// Text of significant token `si`; empty past the end, so a pattern
    /// may look ahead without a bounds check.
    pub(crate) fn text(&self, si: usize) -> &'a str {
        self.sig
            .get(si)
            .map_or("", |&i| self.toks[i].text(self.src))
    }

    /// Text of the significant token before `si`; empty at the start.
    pub(crate) fn prev(&self, si: usize) -> &'a str {
        si.checked_sub(1).map_or("", |p| self.text(p))
    }

    /// Kind of significant token `si` (`Ws`, never significant, past
    /// the end).
    pub(crate) fn kind(&self, si: usize) -> TokKind {
        self.sig.get(si).map_or(TokKind::Ws, |&i| self.toks[i].kind)
    }

    /// Whether the token at `si` heads a path `<si> :: <tail>` with
    /// `tail` one of `tails` (any continuation when `tails` is empty).
    pub(crate) fn is_path(&self, si: usize, tails: &[&str]) -> bool {
        self.text(si + 1) == ":"
            && self.text(si + 2) == ":"
            && (tails.is_empty() || tails.contains(&self.text(si + 3)))
    }

    /// Whether the token at `si` is called as a method: `. <si> (`.
    pub(crate) fn is_method_call(&self, si: usize) -> bool {
        self.prev(si) == "." && self.text(si + 1) == "("
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Tokenizes `src` losslessly. Never fails: unterminated literals are
/// closed at end of input, unknown bytes become [`TokKind::Punct`].
pub fn tokenize(src: &str) -> Vec<Token> {
    Lexer {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        out: Vec::with_capacity(src.len() / 4 + 16),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    out: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Token> {
        while self.pos < self.bytes.len() {
            let start = self.pos;
            let line = self.line;
            let kind = self.next_kind();
            debug_assert!(self.pos > start, "lexer must always make progress");
            self.out.push(Token {
                kind,
                start,
                end: self.pos,
                line,
            });
        }
        self.out
    }

    fn peek(&self, off: usize) -> Option<u8> {
        self.bytes.get(self.pos + off).copied()
    }

    /// Advances one byte, tracking newlines.
    fn bump(&mut self) {
        if self.bytes[self.pos] == b'\n' {
            self.line += 1;
        }
        self.pos += 1;
    }

    /// Advances over one full UTF-8 character.
    fn bump_char(&mut self) {
        let c = self.src[self.pos..].chars().next().unwrap_or('\0');
        if c == '\n' {
            self.line += 1;
        }
        self.pos += c.len_utf8().max(1);
    }

    fn cur_char(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn next_kind(&mut self) -> TokKind {
        let c = self.cur_char().unwrap_or('\0');
        if c.is_whitespace() {
            while self.cur_char().is_some_and(|c| c.is_whitespace()) {
                self.bump_char();
            }
            return TokKind::Ws;
        }
        if c == '/' {
            match self.peek(1) {
                Some(b'/') => {
                    while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                        self.bump_char();
                    }
                    return TokKind::LineComment;
                }
                Some(b'*') => {
                    self.bump();
                    self.bump();
                    let mut depth = 1usize;
                    while self.pos < self.bytes.len() && depth > 0 {
                        if self.peek(0) == Some(b'/') && self.peek(1) == Some(b'*') {
                            depth += 1;
                            self.bump();
                            self.bump();
                        } else if self.peek(0) == Some(b'*') && self.peek(1) == Some(b'/') {
                            depth -= 1;
                            self.bump();
                            self.bump();
                        } else {
                            self.bump_char();
                        }
                    }
                    return TokKind::BlockComment;
                }
                _ => {}
            }
        }
        // Raw / byte / C string prefixes. Checked before generic idents
        // so `r#"…"#`, `br"…"`, `b'…'`, `c"…"` classify as literals.
        if is_ident_start(c) {
            if let Some(kind) = self.try_prefixed_literal() {
                return kind;
            }
            while self.cur_char().is_some_and(is_ident_continue) {
                self.bump_char();
            }
            return TokKind::Ident;
        }
        if c == '"' {
            self.scan_plain_string();
            return TokKind::Str;
        }
        if c == '\'' {
            return self.scan_quote();
        }
        if c.is_ascii_digit() {
            self.scan_number();
            return TokKind::Num;
        }
        self.bump_char();
        TokKind::Punct
    }

    /// `r"…"`, `r#…#`, `b"…"`, `br#"…"#`, `c"…"`, `b'…'`, or `r#ident`.
    /// Returns `None` when the prefix turns out to be a plain ident.
    fn try_prefixed_literal(&mut self) -> Option<TokKind> {
        let rest = &self.src[self.pos..];
        let (prefix_len, raw) = if rest.starts_with("br") || rest.starts_with("cr") {
            (2, true)
        } else if rest.starts_with('r') {
            (1, true)
        } else if rest.starts_with('b') || rest.starts_with('c') {
            (1, false)
        } else {
            return None;
        };
        let after = &rest[prefix_len..];
        if raw {
            // Count `#`s, then require `"`. `r#ident` (no quote) is a
            // raw identifier, handled by the ident path.
            let hashes = after.bytes().take_while(|&b| b == b'#').count();
            if after.as_bytes().get(hashes) == Some(&b'"') {
                for _ in 0..prefix_len + hashes + 1 {
                    self.bump();
                }
                let closer: String = std::iter::once('"')
                    .chain(std::iter::repeat_n('#', hashes))
                    .collect();
                while self.pos < self.bytes.len() {
                    if self.src[self.pos..].starts_with(closer.as_str()) {
                        for _ in 0..closer.len() {
                            self.bump();
                        }
                        return Some(TokKind::Str);
                    }
                    self.bump_char();
                }
                return Some(TokKind::Str); // unterminated: close at EOF
            }
            if hashes > 0 && prefix_len == 1 {
                // `r#ident`: raw identifier.
                for _ in 0..1 + hashes {
                    self.bump();
                }
                while self.cur_char().is_some_and(is_ident_continue) {
                    self.bump_char();
                }
                return Some(TokKind::Ident);
            }
            return None;
        }
        match after.bytes().next() {
            Some(b'"') => {
                self.bump(); // prefix
                self.scan_plain_string();
                Some(TokKind::Str)
            }
            Some(b'\'') => {
                self.bump(); // prefix
                self.scan_char_body();
                Some(TokKind::Char)
            }
            _ => None,
        }
    }

    /// Scans `"…"` with `\` escapes, starting at the opening quote.
    fn scan_plain_string(&mut self) {
        self.bump(); // opening "
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'\\' => {
                    self.bump();
                    if self.pos < self.bytes.len() {
                        self.bump_char();
                    }
                }
                b'"' => {
                    self.bump();
                    return;
                }
                _ => self.bump_char(),
            }
        }
    }

    /// `'` ahead: char literal or lifetime.
    fn scan_quote(&mut self) -> TokKind {
        // Lifetime: 'ident not followed by a closing quote ('a, 'static,
        // '_). Char: anything else ('x', '\n', '\u{1F600}', '🦀').
        let rest = &self.src[self.pos + 1..];
        let mut chars = rest.chars();
        match chars.next() {
            Some(c) if is_ident_start(c) => {
                // Find the end of the ident run; a `'` right after makes
                // it a char literal like 'a'.
                let run: usize = rest
                    .chars()
                    .take_while(|&c| is_ident_continue(c))
                    .map(|c| c.len_utf8())
                    .sum();
                if rest[run..].starts_with('\'') {
                    self.scan_char_body();
                    TokKind::Char
                } else {
                    self.bump(); // '
                    for _ in 0..rest[..run].chars().count() {
                        self.bump_char();
                    }
                    TokKind::Lifetime
                }
            }
            _ => {
                self.scan_char_body();
                TokKind::Char
            }
        }
    }

    /// Scans `'…'` starting at the opening quote.
    fn scan_char_body(&mut self) {
        self.bump(); // opening '
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'\\' => {
                    self.bump();
                    if self.pos < self.bytes.len() {
                        self.bump_char();
                    }
                }
                b'\'' => {
                    self.bump();
                    return;
                }
                _ => self.bump_char(),
            }
        }
    }

    /// Numeric literal: `10`, `1_000`, `0xFF`, `0b01`, `1.5`, `1.`,
    /// `1e-9`, `2.0f64`, `10usize`. Stops before `..` (ranges) and
    /// `.method()` calls.
    fn scan_number(&mut self) {
        let hexish = self.peek(0) == Some(b'0')
            && matches!(
                self.peek(1),
                Some(b'x') | Some(b'X') | Some(b'o') | Some(b'b')
            );
        while let Some(b) = self.peek(0) {
            let c = b as char;
            if c.is_ascii_alphanumeric() || c == '_' {
                // Decimal exponent may be signed: 1e-9, 1E+3.
                let exp = !hexish && matches!(c, 'e' | 'E');
                self.bump();
                if exp && matches!(self.peek(0), Some(b'+') | Some(b'-')) {
                    // Only a sign followed by a digit belongs to the
                    // literal (`1e-9`), not `1e - 9` arithmetic.
                    if self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                        self.bump();
                    }
                }
            } else if c == '.' {
                // `1..3` is a range; `1.max()` is a method call; `1.5`
                // and a trailing `1.` belong to the literal.
                match self.peek(1) {
                    Some(b'.') => return,
                    Some(b) if is_ident_start(b as char) => return,
                    _ => self.bump(),
                }
            } else {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) {
        let toks = tokenize(src);
        let rebuilt: String = toks.iter().map(|t| t.text(src)).collect();
        assert_eq!(rebuilt, src, "lossless round-trip failed");
    }

    fn kinds(src: &str) -> Vec<TokKind> {
        tokenize(src)
            .into_iter()
            .filter(|t| t.kind != TokKind::Ws)
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn roundtrips_basic_shapes() {
        for src in [
            "fn main() { println!(\"hi {}\", 1.0); }",
            "let r = a / b; // comment with \"quotes\" and 'q'\n",
            "/* nested /* block */ still comment */ fn f() {}",
            "let s = r#\"raw \" string\"#; let b = b\"bytes\"; let c = 'x';",
            "let lt: &'static str = \"s\"; struct F<'a>(&'a u8);",
            "let x = 0xFF_u32 + 1e-9 - 2.0f64 * 1.; let r = 1..=3;",
            "let esc = '\\''; let s = \"back\\\\slash \\\" q\";",
            "let raw_id = r#type; let emoji = \"🦀\"; let ch = '🦀';",
            "",
            "unterminated \"string",
        ] {
            roundtrip(src);
        }
    }

    #[test]
    fn classifies_lifetimes_vs_chars() {
        assert_eq!(kinds("'a"), vec![TokKind::Lifetime]);
        assert_eq!(kinds("'a'"), vec![TokKind::Char]);
        assert_eq!(
            kinds("<'a, 'static>"),
            vec![
                TokKind::Punct,
                TokKind::Lifetime,
                TokKind::Punct,
                TokKind::Lifetime,
                TokKind::Punct
            ]
        );
        assert_eq!(kinds("'\\n'"), vec![TokKind::Char]);
    }

    #[test]
    fn numbers_stop_before_ranges_and_methods() {
        let toks: Vec<TokKind> = kinds("1..3");
        assert_eq!(
            toks,
            vec![TokKind::Num, TokKind::Punct, TokKind::Punct, TokKind::Num]
        );
        let toks = kinds("1.max(2)");
        assert_eq!(toks[0], TokKind::Num);
        assert_eq!(toks[1], TokKind::Punct); // the dot
        assert_eq!(toks[2], TokKind::Ident);
    }

    #[test]
    fn line_numbers_advance() {
        let toks = tokenize("a\nb\n  c");
        let idents: Vec<(String, u32)> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| (t.text("a\nb\n  c").to_string(), t.line))
            .collect();
        assert_eq!(
            idents,
            vec![
                ("a".to_string(), 1),
                ("b".to_string(), 2),
                ("c".to_string(), 3)
            ]
        );
    }

    #[test]
    fn comments_and_strings_isolate_content() {
        let src = "// has .unwrap() inside\nlet s = \".expect(\"; /* 1.0 == x */";
        let toks = tokenize(src);
        let comment_count = toks
            .iter()
            .filter(|t| matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .count();
        assert_eq!(comment_count, 2);
        assert!(toks.iter().any(|t| t.kind == TokKind::Str));
        roundtrip(src);
    }
}
