//! Rust tokenizer with precise spans.
//!
//! This is the foundation of the AST engine: unlike the legacy xtask scanner
//! (which blanks comments/strings in place and pattern-matches lines), this
//! lexer produces a real token stream where every token carries its 1-based
//! `(line, col)`. Line numbers are computed from the source bytes directly,
//! so no blanking step can ever drift them — the class of bug the legacy
//! scanner had with `\`-continued string literals.
//!
//! Coverage (everything this workspace's sources contain):
//! * identifiers, raw identifiers (`r#type`), keywords (kept as identifiers),
//! * lifetimes vs char literals (`'a` vs `'a'`, `'\n'`, `'('`),
//! * string literals with escapes, raw strings `r"…"`/`r#"…"#` (any hash
//!   count), byte/C-string prefixes (`b"…"`, `br#"…"#`, `c"…"`, `cr"…"`),
//! * nested block comments, line comments (collected for the waiver index),
//! * numbers (int/float, radix prefixes, suffixes),
//! * punctuation, with `::`, `->`, `=>`, `..=`, `..`, `&&`, `||` fused.
//!
//! Prefix detection is identifier-atomic: the lexer consumes a full
//! identifier first and only then decides whether it prefixes a literal, so
//! an identifier that merely *ends* in `r` or `b` can never be mistaken for
//! a raw-string opener.

/// Delimiter kind for [`TokKind::Open`] / [`TokKind::Close`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delim {
    /// `(` / `)`
    Paren,
    /// `[` / `]`
    Bracket,
    /// `{` / `}`
    Brace,
}

/// Lexical class of a [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (raw identifiers keep their `r#` prefix).
    Ident,
    /// Lifetime or loop label, e.g. `'a` (without the quote in `text`).
    Lifetime,
    /// Integer literal (any radix, with suffix).
    Int,
    /// Float literal.
    Float,
    /// String literal of any flavor (plain/raw/byte/C); `text` is the
    /// *content* only, so code matchers never see quote noise.
    Str,
    /// Char or byte literal; `text` is the content.
    Char,
    /// A punctuation token (possibly fused, e.g. `::`).
    Punct,
    /// Opening delimiter.
    Open(Delim),
    /// Closing delimiter.
    Close(Delim),
}

/// One lexed token with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// Lexical class.
    pub kind: TokKind,
    /// Token text (see [`TokKind`] for literal conventions).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column (in characters).
    pub col: u32,
}

impl Token {
    /// True if this token is the identifier `s`.
    #[must_use]
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True if this token is the punctuation `s`.
    #[must_use]
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// A comment, retained for the waiver index (`// xtask: allow(rule) — why`).
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (equal to `line` for `//` comments).
    pub end_line: u32,
    /// Full comment text including the `//` / `/*` marker.
    pub text: String,
}

/// Output of [`lex`]: the token stream plus the retained comments.
#[derive(Debug, Default)]
pub struct LexOut {
    /// All code tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

struct Cursor {
    chars: Vec<char>,
    i: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_cont(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenizes `src`. Malformed input never panics: unterminated literals and
/// comments simply run to end of file, and unknown characters become
/// single-character [`TokKind::Punct`] tokens. Lint passes degrade
/// gracefully on files the parser cannot fully make sense of.
#[must_use]
pub fn lex(src: &str) -> LexOut {
    let mut cur = Cursor { chars: src.chars().collect(), i: 0, line: 1, col: 1 };
    let mut out = LexOut::default();

    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        match c {
            c if c.is_whitespace() => {
                let _ = cur.bump();
            }
            '/' if cur.peek(1) == Some('/') => lex_line_comment(&mut cur, &mut out, line),
            '/' if cur.peek(1) == Some('*') => lex_block_comment(&mut cur, &mut out, line),
            c if is_ident_start(c) => lex_ident_or_prefixed(&mut cur, &mut out, line, col),
            c if c.is_ascii_digit() => lex_number(&mut cur, &mut out, line, col),
            '"' => {
                let text = lex_string(&mut cur);
                out.tokens.push(Token { kind: TokKind::Str, text, line, col });
            }
            '\'' => lex_quote(&mut cur, &mut out, line, col),
            '(' | '[' | '{' | ')' | ']' | '}' => {
                let kind = match c {
                    '(' => TokKind::Open(Delim::Paren),
                    '[' => TokKind::Open(Delim::Bracket),
                    '{' => TokKind::Open(Delim::Brace),
                    ')' => TokKind::Close(Delim::Paren),
                    ']' => TokKind::Close(Delim::Bracket),
                    _ => TokKind::Close(Delim::Brace),
                };
                let _ = cur.bump();
                out.tokens.push(Token { kind, text: c.to_string(), line, col });
            }
            _ => lex_punct(&mut cur, &mut out, line, col),
        }
    }
    out
}

fn lex_line_comment(cur: &mut Cursor, out: &mut LexOut, line: u32) {
    let mut text = String::new();
    while let Some(c) = cur.peek(0) {
        if c == '\n' {
            break;
        }
        text.push(c);
        let _ = cur.bump();
    }
    out.comments.push(Comment { line, end_line: line, text });
}

/// Nested block comments: depth-tracked, `*/` takes precedence over `/*` at
/// the same position exactly as in rustc's scanner.
fn lex_block_comment(cur: &mut Cursor, out: &mut LexOut, line: u32) {
    let mut text = String::new();
    let mut depth = 0u32;
    loop {
        match (cur.peek(0), cur.peek(1)) {
            (Some('/'), Some('*')) => {
                depth += 1;
                text.push_str("/*");
                let _ = cur.bump();
                let _ = cur.bump();
            }
            (Some('*'), Some('/')) => {
                depth -= 1;
                text.push_str("*/");
                let _ = cur.bump();
                let _ = cur.bump();
                if depth == 0 {
                    break;
                }
            }
            (Some(c), _) => {
                text.push(c);
                let _ = cur.bump();
            }
            (None, _) => break, // unterminated: runs to EOF
        }
    }
    out.comments.push(Comment { line, end_line: cur.line, text });
}

/// Consumes an identifier and decides whether it prefixes a literal
/// (`r"…"`, `r#"…"#`, `b"…"`, `br"…"`, `c"…"`, `cr#"…"#`, `b'x'`, `r#ident`).
fn lex_ident_or_prefixed(cur: &mut Cursor, out: &mut LexOut, line: u32, col: u32) {
    let mut ident = String::new();
    while let Some(c) = cur.peek(0) {
        if is_ident_cont(c) {
            ident.push(c);
            let _ = cur.bump();
        } else {
            break;
        }
    }

    let raw_capable = matches!(ident.as_str(), "r" | "br" | "cr");
    let plain_str_prefix = matches!(ident.as_str(), "b" | "c");
    match cur.peek(0) {
        // Raw string r"…" / r#"…"# (any hash count), possibly byte/C.
        Some('"' | '#') if raw_capable => {
            let mut hashes = 0usize;
            while cur.peek(hashes) == Some('#') {
                hashes += 1;
            }
            if cur.peek(hashes) == Some('"') {
                for _ in 0..=hashes {
                    let _ = cur.bump(); // hashes + opening quote
                }
                let text = lex_raw_string_body(cur, hashes);
                out.tokens.push(Token { kind: TokKind::Str, text, line, col });
                return;
            }
            // `r#ident` raw identifier (hashes == 1, no quote).
            if ident == "r" && hashes == 1 {
                let _ = cur.bump(); // '#'
                ident.push('#');
                while let Some(c) = cur.peek(0) {
                    if is_ident_cont(c) {
                        ident.push(c);
                        let _ = cur.bump();
                    } else {
                        break;
                    }
                }
            }
            out.tokens.push(Token { kind: TokKind::Ident, text: ident, line, col });
        }
        // Byte/C string b"…" / c"…".
        Some('"') if plain_str_prefix => {
            let text = lex_string(cur);
            out.tokens.push(Token { kind: TokKind::Str, text, line, col });
        }
        // Byte char b'x'.
        Some('\'') if ident == "b" => {
            let _ = cur.bump(); // opening quote
            let text = lex_char_body(cur);
            out.tokens.push(Token { kind: TokKind::Char, text, line, col });
        }
        _ => out.tokens.push(Token { kind: TokKind::Ident, text: ident, line, col }),
    }
}

/// Consumes a `"…"` literal (cursor on the opening quote) and returns its
/// content. Escapes are skipped pair-wise; because the cursor tracks lines
/// itself, a `\`-continued string can never desynchronize line numbers.
fn lex_string(cur: &mut Cursor) -> String {
    let _ = cur.bump(); // opening quote
    let mut text = String::new();
    while let Some(c) = cur.bump() {
        match c {
            '"' => break,
            '\\' => {
                let _ = cur.bump(); // escaped char (incl. newline continuation)
            }
            _ => text.push(c),
        }
    }
    text
}

/// Consumes a raw-string body after the opening quote; `hashes` is the
/// opener's `#` count and the body ends only at `"` followed by that many.
fn lex_raw_string_body(cur: &mut Cursor, hashes: usize) -> String {
    let mut text = String::new();
    while let Some(c) = cur.peek(0) {
        if c == '"' {
            let mut seen = 0usize;
            while seen < hashes && cur.peek(1 + seen) == Some('#') {
                seen += 1;
            }
            if seen == hashes {
                for _ in 0..=hashes {
                    let _ = cur.bump(); // quote + closing hashes
                }
                return text;
            }
        }
        text.push(c);
        let _ = cur.bump();
    }
    text // unterminated: runs to EOF
}

/// Consumes a char-literal body after the opening quote.
fn lex_char_body(cur: &mut Cursor) -> String {
    let mut text = String::new();
    while let Some(c) = cur.bump() {
        match c {
            '\'' => break,
            '\\' => {
                if let Some(e) = cur.bump() {
                    text.push(e);
                }
            }
            _ => text.push(c),
        }
    }
    text
}

/// `'` disambiguation: char literal vs lifetime/label.
fn lex_quote(cur: &mut Cursor, out: &mut LexOut, line: u32, col: u32) {
    let one = cur.peek(1);
    let two = cur.peek(2);
    let is_char = match one {
        Some('\\') => true,
        Some(c) if is_ident_cont(c) => two == Some('\''),
        Some(_) => true, // '(' , '-' , … : punctuation chars are char literals
        None => true,
    };
    let _ = cur.bump(); // quote
    if is_char {
        let text = lex_char_body(cur);
        out.tokens.push(Token { kind: TokKind::Char, text, line, col });
    } else {
        let mut text = String::new();
        while let Some(c) = cur.peek(0) {
            if is_ident_cont(c) {
                text.push(c);
                let _ = cur.bump();
            } else {
                break;
            }
        }
        out.tokens.push(Token { kind: TokKind::Lifetime, text, line, col });
    }
}

fn lex_number(cur: &mut Cursor, out: &mut LexOut, line: u32, col: u32) {
    let mut text = String::new();
    let mut float = false;
    while let Some(c) = cur.peek(0) {
        if c.is_alphanumeric() || c == '_' {
            text.push(c);
            let _ = cur.bump();
        } else if c == '.' && !float && cur.peek(1).is_some_and(|d| d.is_ascii_digit()) {
            // `1.5` consumes the dot; `0..n` leaves it for the range punct.
            float = true;
            text.push(c);
            let _ = cur.bump();
        } else {
            break;
        }
    }
    let kind = if float { TokKind::Float } else { TokKind::Int };
    out.tokens.push(Token { kind, text, line, col });
}

/// Multi-character operators that matter to pass matchers are fused into one
/// token; everything else is a single-character punct.
const FUSED: &[&str] = &["::", "->", "=>", "..=", "..", "&&", "||"];

fn lex_punct(cur: &mut Cursor, out: &mut LexOut, line: u32, col: u32) {
    for f in FUSED {
        let fc: Vec<char> = f.chars().collect();
        if (0..fc.len()).all(|k| cur.peek(k) == Some(fc[k])) {
            for _ in 0..fc.len() {
                let _ = cur.bump();
            }
            out.tokens.push(Token { kind: TokKind::Punct, text: (*f).to_string(), line, col });
            return;
        }
    }
    #[expect(clippy::expect_used, reason = "peek(0) was Some in the caller's dispatch arm")]
    let c = cur.bump().expect("caller peeked");
    out.tokens.push(Token { kind: TokKind::Punct, text: c.to_string(), line, col });
}

/// Builds the matching-delimiter table: `pair[i]` is the index of the token
/// matching the opening/closing delimiter at `i`, or `usize::MAX` for
/// non-delimiters and unbalanced delimiters.
#[must_use]
pub fn match_delims(tokens: &[Token]) -> Vec<usize> {
    let mut pair = vec![usize::MAX; tokens.len()];
    let mut stack: Vec<(usize, Delim)> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        match t.kind {
            TokKind::Open(d) => stack.push((i, d)),
            TokKind::Close(d) => {
                // Pop to the innermost matching open; tolerate imbalance.
                if let Some(pos) = stack.iter().rposition(|&(_, od)| od == d) {
                    let (open, _) = stack[pos];
                    stack.truncate(pos);
                    pair[open] = i;
                    pair[i] = open;
                }
            }
            _ => {}
        }
    }
    pair
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text).collect()
    }

    #[test]
    fn strings_and_comments_never_yield_idents() {
        let src = r##"let x = "SeqCst"; // SeqCst
            /* SeqCst /* nested SeqCst */ still */ let y = r#"SeqCst"#;"##;
        assert!(!idents(src).iter().any(|s| s == "SeqCst"));
    }

    #[test]
    fn code_tokens_survive() {
        let toks = lex("a.store(true, Ordering::SeqCst);").tokens;
        assert!(toks.iter().any(|t| t.is_ident("SeqCst")));
        assert!(toks.iter().any(|t| t.is_punct("::")));
    }

    #[test]
    fn escaped_newline_keeps_line_numbers() {
        // The legacy scanner replaced the `\`-continued newline with a space,
        // drifting every later line; the token cursor cannot drift.
        let src = "let s = \"a\\\n   b\";\nlet x = SeqCst;\n";
        let toks = lex(src).tokens;
        let seq = toks.iter().find(|t| t.is_ident("SeqCst")).expect("found");
        assert_eq!(seq.line, 3);
    }

    #[test]
    fn identifier_ending_in_r_is_not_a_raw_string() {
        // `for"x"` never occurs in real Rust, but an ident-atomic lexer must
        // not treat the trailing `r` as a raw-string opener either way.
        let toks = lex("var \"x\" for").tokens;
        assert!(toks.iter().any(|t| t.is_ident("var")));
        assert!(toks.iter().any(|t| t.is_ident("for")));
        assert!(toks.iter().any(|t| t.kind == TokKind::Str && t.text == "x"));
    }

    #[test]
    fn raw_strings_all_hash_counts_and_prefixes() {
        for src in ["r\"a\"", "r#\"a\"#", "r##\"a\"#inner\"##", "b\"a\"", "br#\"a\"#", "cr\"a\""] {
            let toks = lex(src).tokens;
            assert_eq!(toks.len(), 1, "{src}: {toks:?}");
            assert_eq!(toks[0].kind, TokKind::Str, "{src}");
        }
        assert_eq!(lex("r##\"a\"#inner\"##").tokens[0].text, "a\"#inner");
    }

    #[test]
    fn raw_identifiers_keep_prefix() {
        let toks = lex("let r#type = r#match;").tokens;
        assert!(toks.iter().any(|t| t.is_ident("r#type")));
        assert!(toks.iter().any(|t| t.is_ident("r#match")));
    }

    #[test]
    fn lifetimes_vs_chars() {
        let toks = lex("fn f<'a>(x: &'a u8) { let c = 'a'; let n = '\\n'; let p = '('; }").tokens;
        let lifes = toks.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let chars = toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(lifes, 2);
        assert_eq!(chars, 3);
    }

    #[test]
    fn nested_block_comment_depth() {
        let out = lex("/* a /* b */ c */ let z = 2;");
        assert_eq!(out.comments.len(), 1);
        let toks = out.tokens;
        assert!(toks.iter().any(|t| t.is_ident("z")));
        assert!(!toks.iter().any(|t| t.is_ident("a") || t.is_ident("c")));
    }

    #[test]
    fn numbers_and_ranges() {
        let toks = lex("for i in 0..n { let f = 1.5; let h = 0xFF_u32; }").tokens;
        assert!(toks.iter().any(|t| t.kind == TokKind::Float && t.text == "1.5"));
        assert!(toks.iter().any(|t| t.kind == TokKind::Int && t.text == "0xFF_u32"));
        assert!(toks.iter().any(|t| t.is_punct("..")));
    }

    #[test]
    fn delimiter_matching() {
        let toks = lex("f(a[b], {c})").tokens;
        let pair = match_delims(&toks);
        let open = toks.iter().position(|t| t.kind == TokKind::Open(Delim::Paren)).expect("open");
        assert_eq!(pair[open], toks.len() - 1);
        assert_eq!(pair[pair[open]], open);
    }

    #[test]
    fn spans_are_one_based_and_accurate() {
        let toks = lex("ab\n  cd").tokens;
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }
}
