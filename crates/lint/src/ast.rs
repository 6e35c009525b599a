//! Item-level AST over the token stream.
//!
//! The parser recognizes exactly the structure the semantic passes need:
//! functions (name, visibility, return-type tokens, body range), modules
//! (with `#[cfg(test)]` awareness), `impl`/`trait` blocks (recursed for
//! their methods) and structs (for their test ranges). Everything else is
//! skipped with balanced-delimiter jumps, so an unrecognized construct can
//! never desynchronize the parse — passes degrade gracefully instead of
//! erroring.
//!
//! Test code is identified *semantically*: any item carrying `#[test]` or a
//! `#[cfg(…)]` attribute that enables `test` (but not `not(test)`) marks its
//! whole token range, and ranges nest through `mod`/`impl` recursion. This
//! replaces the legacy scanner's line-oriented `#[cfg(test)]` brace walk.

use crate::lex::{Delim, TokKind, Token};

/// A parsed function item.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Function name.
    pub name: String,
    /// True for `pub` functions (any visibility qualifier).
    pub is_pub: bool,
    /// Token range (exclusive end) of the return type, if any.
    pub ret: Option<(usize, usize)>,
    /// Token range (exclusive end) of the body, excluding the braces.
    pub body: Option<(usize, usize)>,
    /// True when the function is test-only (`#[test]`, `#[cfg(test)]`, or
    /// inside a test module).
    pub is_test: bool,
}

/// Item-level parse of one file.
#[derive(Debug, Default)]
pub struct Ast {
    /// All functions, including methods in `impl`/`trait` blocks.
    pub fns: Vec<FnInfo>,
    /// Token ranges (exclusive end) covered by test-only items.
    pub test_ranges: Vec<(usize, usize)>,
}

impl Ast {
    /// True when token index `i` lies inside a test-only item.
    #[must_use]
    pub fn in_test(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|&(lo, hi)| lo <= i && i < hi)
    }
}

/// Context shared by the recursive item walk.
struct Parser<'a> {
    toks: &'a [Token],
    pair: &'a [usize],
    out: Ast,
}

/// Parses the items of a file given its tokens and delimiter table.
#[must_use]
pub fn parse(toks: &[Token], pair: &[usize]) -> Ast {
    let mut p = Parser { toks, pair, out: Ast::default() };
    p.items(0, toks.len(), false);
    p.out
}

/// True when an attribute token range enables test compilation: `#[test]`,
/// `#[cfg(test)]`, `#[cfg(all(test, …))]` — but not `#[cfg(not(test))]`.
fn attr_is_test(toks: &[Token], lo: usize, hi: usize) -> bool {
    for i in lo..hi {
        if toks[i].is_ident("test") {
            // Reject `not(test)`: look back for `not (`.
            let negated = i >= 2
                && toks[i - 1].kind == TokKind::Open(Delim::Paren)
                && toks[i - 2].is_ident("not");
            if !negated {
                return true;
            }
        }
    }
    false
}

impl Parser<'_> {
    /// Jumps over one balanced token: past a delimiter group, or one token.
    fn skip(&self, i: usize) -> usize {
        if let TokKind::Open(_) = self.toks[i].kind {
            if self.pair[i] != usize::MAX {
                return self.pair[i] + 1;
            }
        }
        i + 1
    }

    /// Advances to the first token at the current nesting level for which
    /// `stop` holds, returning its index (or `hi`).
    fn seek(&self, mut i: usize, hi: usize, stop: impl Fn(&Token) -> bool) -> usize {
        while i < hi {
            if stop(&self.toks[i]) {
                return i;
            }
            i = self.skip(i);
        }
        hi
    }

    /// Parses the item sequence in `[lo, hi)`.
    fn items(&mut self, mut i: usize, hi: usize, in_test: bool) {
        while i < hi {
            let item_start = i;
            // Attributes: `#[…]` (outer) and `#![…]` (inner).
            let mut is_test_item = false;
            while i < hi && self.toks[i].is_punct("#") {
                let mut j = i + 1;
                if j < hi && self.toks[j].is_punct("!") {
                    j += 1;
                }
                if j < hi && self.toks[j].kind == TokKind::Open(Delim::Bracket) {
                    let close = self.pair[j];
                    if close == usize::MAX {
                        break;
                    }
                    is_test_item |= attr_is_test(self.toks, j + 1, close);
                    i = close + 1;
                } else {
                    i += 1;
                }
            }
            // Visibility / qualifiers.
            while i < hi {
                let t = &self.toks[i];
                if t.is_ident("pub") {
                    i += 1;
                    if i < hi && self.toks[i].kind == TokKind::Open(Delim::Paren) {
                        i = self.skip(i);
                    }
                } else if t.is_ident("const")
                    || t.is_ident("unsafe")
                    || t.is_ident("async")
                    || t.is_ident("default")
                {
                    // `const` may start `const NAME: … = …;` rather than
                    // qualify an fn; the keyword dispatch below still works
                    // because a const item's next token is an ident that is
                    // not a recognized item keyword, hitting the skip arm.
                    if t.is_ident("const")
                        && i + 1 < hi
                        && !self.toks[i + 1].is_ident("fn")
                        && !self.toks[i + 1].is_ident("unsafe")
                        && !self.toks[i + 1].is_ident("extern")
                    {
                        break; // `const NAME: …` item
                    }
                    i += 1;
                } else if t.is_ident("extern") {
                    i += 1;
                    if i < hi && self.toks[i].kind == TokKind::Str {
                        i += 1; // ABI string
                    }
                } else {
                    break;
                }
            }
            if i >= hi {
                break;
            }
            let was_pub = (item_start..i).any(|k| self.toks[k].is_ident("pub"));
            let t = &self.toks[i];

            if t.is_ident("fn") {
                i = self.parse_fn(i, hi, was_pub, in_test || is_test_item, item_start);
            } else if t.is_ident("mod") || t.is_ident("impl") || t.is_ident("trait") {
                i = self.parse_braced_recurse(
                    i,
                    hi,
                    in_test || is_test_item,
                    is_test_item,
                    item_start,
                );
            } else if t.is_ident("struct") {
                i = self.parse_struct(i, hi, is_test_item, item_start);
            } else {
                // use / static / const / enum / macro_rules! / stray tokens:
                // advance one balanced token.
                let next = self.skip(i);
                if is_test_item {
                    // e.g. `#[cfg(test)] use …;` — mark through the `;`.
                    let end = self.seek(next, hi, |t| t.is_punct(";"));
                    self.out.test_ranges.push((item_start, (end + 1).min(hi)));
                    i = (end + 1).min(hi);
                } else {
                    i = next;
                }
            }
        }
    }

    /// `fn name …(…) [-> Ret] { body }` or `;` (trait method signature).
    fn parse_fn(
        &mut self,
        kw: usize,
        hi: usize,
        is_pub: bool,
        is_test: bool,
        item_start: usize,
    ) -> usize {
        let name = self
            .toks
            .get(kw + 1)
            .filter(|t| t.kind == TokKind::Ident)
            .map_or_else(String::new, |t| t.text.clone());
        // Find the return arrow and the body brace at this nesting level.
        let mut i = kw + 2;
        let mut ret: Option<(usize, usize)> = None;
        let mut body: Option<(usize, usize)> = None;
        let mut arrow: Option<usize> = None;
        let mut seen_where = false;
        while i < hi {
            let t = &self.toks[i];
            if t.is_punct("->") && arrow.is_none() && !seen_where {
                arrow = Some(i + 1);
                i += 1;
            } else if t.is_punct(";") {
                if let Some(a) = arrow {
                    ret = Some((a, i));
                }
                i += 1;
                break;
            } else if t.kind == TokKind::Open(Delim::Brace) {
                if let Some(a) = arrow {
                    ret = Some((a, i));
                }
                let close = self.pair[i];
                if close == usize::MAX {
                    i += 1;
                    break;
                }
                body = Some((i + 1, close));
                i = close + 1;
                break;
            } else if t.is_ident("where") {
                // Return type, if any, ended here; later `Fn() -> T` bounds
                // must not latch a bogus arrow.
                seen_where = true;
                if let Some(a) = arrow {
                    ret = Some((a, i));
                    arrow = None;
                }
                i += 1;
            } else {
                i = self.skip(i);
            }
        }
        let end = i;
        if is_test {
            self.out.test_ranges.push((item_start, end));
        }
        self.out.fns.push(FnInfo { name, is_pub, ret, body, is_test });
        end
    }

    /// `mod`/`impl`/`trait` with a braced body of further items.
    fn parse_braced_recurse(
        &mut self,
        kw: usize,
        hi: usize,
        in_test: bool,
        mark_test: bool,
        item_start: usize,
    ) -> usize {
        let mut i = kw + 1;
        while i < hi {
            let t = &self.toks[i];
            if t.is_punct(";") {
                return i + 1; // `mod name;`
            }
            if t.kind == TokKind::Open(Delim::Brace) {
                let close = self.pair[i];
                if close == usize::MAX {
                    return i + 1;
                }
                if mark_test {
                    self.out.test_ranges.push((item_start, close + 1));
                }
                self.items(i + 1, close, in_test);
                return close + 1;
            }
            i = self.skip(i);
        }
        hi
    }

    /// `struct Name<…> { … }`, `struct Name(…);` or `struct Name;`: skipped
    /// whole, its range marked when the struct is test-only.
    fn parse_struct(&mut self, kw: usize, hi: usize, mark_test: bool, item_start: usize) -> usize {
        let at =
            self.seek(kw + 1, hi, |t| t.is_punct(";") || t.kind == TokKind::Open(Delim::Brace));
        let end = if at < hi { self.skip(at) } else { hi };
        if mark_test {
            self.out.test_ranges.push((item_start, end));
        }
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::{lex, match_delims};

    fn parse_src(src: &str) -> (Vec<Token>, Ast) {
        let out = lex(src);
        let pair = match_delims(&out.tokens);
        let ast = parse(&out.tokens, &pair);
        (out.tokens, ast)
    }

    #[test]
    fn finds_fns_with_bodies_and_returns() {
        let (toks, ast) =
            parse_src("pub fn a(x: u8) -> Result<u32, CommError> { x + 1 }\nfn b() {}\n");
        assert_eq!(ast.fns.len(), 2);
        let a = &ast.fns[0];
        assert!(a.is_pub);
        assert_eq!(a.name, "a");
        let (lo, hi) = a.ret.expect("ret");
        assert!((lo..hi).any(|i| toks[i].is_ident("CommError")));
        assert!(a.body.is_some());
        assert!(!ast.fns[1].is_pub);
    }

    #[test]
    fn impl_methods_are_found() {
        let (_, ast) = parse_src("impl Foo { pub fn m(&self) -> u8 { 0 } fn p(&self) {} }");
        let names: Vec<_> = ast.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["m", "p"]);
    }

    #[test]
    fn cfg_test_mod_marks_ranges() {
        let (toks, ast) = parse_src(
            "fn lib() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\nfn tail() {}\n",
        );
        let unwrap_at = toks.iter().position(|t| t.is_ident("unwrap")).expect("pos");
        let tail_at = toks.iter().rposition(|t| t.is_ident("tail")).expect("pos");
        assert!(ast.in_test(unwrap_at));
        assert!(!ast.in_test(tail_at));
        assert!(ast.fns.iter().find(|f| f.name == "t").expect("t").is_test);
    }

    #[test]
    fn test_attr_fn_and_not_test_cfg() {
        let (toks, ast) = parse_src(
            "#[test]\nfn t() { a.unwrap(); }\n#[cfg(not(test))]\nfn lib() { b.unwrap(); }\n",
        );
        let a = toks.iter().position(|t| t.is_ident("a")).expect("a");
        let b = toks.iter().position(|t| t.is_ident("b")).expect("b");
        assert!(ast.in_test(a));
        assert!(!ast.in_test(b), "cfg(not(test)) must not be a test range");
    }

    #[test]
    fn where_clause_does_not_eat_return_type() {
        let (toks, ast) = parse_src("fn f<T>(x: T) -> Vec<T> where T: Clone { vec![x] }");
        let (lo, hi) = ast.fns[0].ret.expect("ret");
        let text: Vec<_> = (lo..hi).map(|i| toks[i].text.as_str()).collect();
        assert!(text.contains(&"Vec"));
        assert!(!text.contains(&"Clone"));
    }
}
