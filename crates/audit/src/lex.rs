//! A dependency-free Rust lexer for the lint engine.
//!
//! Text lines with comments and strings blanked out are good enough for
//! identifier rules, but blind to token structure and unable to support
//! graph rules (call edges need real identifiers). This module
//! tokenizes Rust source well enough for static analysis:
//!
//! * nested block comments (`/* /* */ */`), line and doc comments
//! * cooked strings with escapes (multi-line), raw strings `r#"..."#`
//!   with any number of hashes, byte strings `b"..."`/`br#"..."#`
//! * char literals vs lifetimes (`'x'`, `'\u{1F600}'` vs `'a`),
//!   byte chars `b'x'`, raw identifiers `r#match`
//! * integer and float literals with suffixes (`1_000u64`, `1.5e-3f64`)
//!   — and crucially *not* treating `0..5` or `1.max(2)` as floats
//! * `#[cfg(test)]` region tracking at the token level, so test-only
//!   code (where `unwrap` and friends are idiomatic) can be excluded
//!
//! It is deliberately not a parser: rules key on identifier patterns and
//! small token sequences that are unambiguous at this level.

/// What kind of token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (raw identifiers `r#x` yield `x`).
    Ident,
    /// A lifetime (`'a`), without the quote.
    Lifetime,
    /// String literal of any flavor (cooked, raw, byte, raw byte).
    Str,
    /// Char literal (`'x'`) or byte char (`b'x'`).
    Char,
    /// Integer literal (with optional suffix).
    Int,
    /// Float literal (has `.`, exponent, or an `f32`/`f64` suffix).
    Float,
    /// One punctuation character (`::` is two `Punct(':')` tokens).
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// The token kind.
    pub kind: TokKind,
    /// Token text. For `Str`/`Char` this is the *content-free* marker
    /// (`""` / `''`) — rules never need literal contents, and dropping
    /// them keeps "HashMap" inside a string from ever matching a rule.
    /// For `Punct` it is the single character; for `Ident`/`Int`/`Float`
    /// the exact source text (raw-ident prefix stripped).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// Inside a `#[cfg(test)]` item (filled by [`mark_cfg_test`]).
    pub cfg_test: bool,
}

/// Tokenize `src`. Unterminated literals and stray characters never
/// panic; the lexer always makes progress and produces best-effort
/// tokens, which is the right trade for a linter.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: u32,
    out: Vec<Tok>,
}

impl Lexer {
    fn run(mut self) -> Vec<Tok> {
        while self.i < self.chars.len() {
            let c = self.chars[self.i];
            match c {
                '\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                c if c.is_whitespace() => self.i += 1,
                '/' if self.peek(1) == Some('/') => self.skip_line_comment(),
                '/' if self.peek(1) == Some('*') => self.skip_block_comment(),
                '"' => self.cooked_string(),
                '\'' => self.char_or_lifetime(),
                c if c.is_ascii_digit() => self.number(),
                c if is_ident_start(c) => self.ident_or_prefixed(),
                c => {
                    self.push(TokKind::Punct, c.to_string());
                    self.i += 1;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn push(&mut self, kind: TokKind, text: String) {
        self.out.push(Tok {
            kind,
            text,
            line: self.line,
            cfg_test: false,
        });
    }

    fn bump_line(&mut self, c: char) {
        if c == '\n' {
            self.line += 1;
        }
    }

    fn skip_line_comment(&mut self) {
        while self.i < self.chars.len() && self.chars[self.i] != '\n' {
            self.i += 1;
        }
    }

    /// Nested block comments: `/* a /* b */ c */` is ONE comment, not
    /// one that ends at the first `*/`.
    fn skip_block_comment(&mut self) {
        self.i += 2;
        let mut depth = 1usize;
        while self.i < self.chars.len() && depth > 0 {
            if self.chars[self.i] == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.i += 2;
            } else if self.chars[self.i] == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                self.i += 2;
            } else {
                self.bump_line(self.chars[self.i]);
                self.i += 1;
            }
        }
    }

    /// Cooked string starting at `"`. Handles escapes and newlines.
    fn cooked_string(&mut self) {
        let line = self.line;
        self.i += 1;
        while self.i < self.chars.len() {
            match self.chars[self.i] {
                '\\' => {
                    // The escaped char may be a newline (line
                    // continuation) — keep the line counter honest.
                    if let Some(c) = self.peek(1) {
                        self.bump_line(c);
                    }
                    self.i += 2;
                }
                '"' => {
                    self.i += 1;
                    break;
                }
                c => {
                    self.bump_line(c);
                    self.i += 1;
                }
            }
        }
        self.out.push(Tok {
            kind: TokKind::Str,
            text: "\"\"".to_string(),
            line,
            cfg_test: false,
        });
    }

    /// Raw string body after the prefix: `i` points at the first `#` or
    /// the opening `"`. No escapes; closes on `"` followed by `hashes`
    /// `#`s.
    fn raw_string(&mut self) {
        let line = self.line;
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.i += 1;
        }
        debug_assert_eq!(self.peek(0), Some('"'));
        self.i += 1; // opening quote
        while self.i < self.chars.len() {
            if self.chars[self.i] == '"' {
                let mut ok = true;
                for k in 0..hashes {
                    if self.peek(1 + k) != Some('#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    self.i += 1 + hashes;
                    break;
                }
            }
            self.bump_line(self.chars[self.i]);
            self.i += 1;
        }
        self.out.push(Tok {
            kind: TokKind::Str,
            text: "\"\"".to_string(),
            line,
            cfg_test: false,
        });
    }

    /// `'` — either a char literal or a lifetime. Rust's rule: if the
    /// quote is followed by an escape, or by one char and a closing
    /// quote, it is a char literal; otherwise it starts a lifetime.
    fn char_or_lifetime(&mut self) {
        match self.peek(1) {
            Some('\\') => {
                // Escape: the char after the backslash is consumed
                // blind — it may itself be `\` (`'\\'`) or `'` (`'\''`)
                // and must not restart escape handling — then scan to
                // the closing quote.
                self.i += 3;
                while self.i < self.chars.len() {
                    match self.chars[self.i] {
                        '\\' => self.i += 2,
                        '\'' => {
                            self.i += 1;
                            break;
                        }
                        _ => self.i += 1,
                    }
                }
                self.push(TokKind::Char, "''".to_string());
            }
            Some(c) if self.peek(2) == Some('\'') => {
                let _ = c;
                self.i += 3;
                self.push(TokKind::Char, "''".to_string());
            }
            Some(c) if is_ident_start(c) => {
                // Lifetime: 'ident
                self.i += 1;
                let start = self.i;
                while self.i < self.chars.len() && is_ident_continue(self.chars[self.i]) {
                    self.i += 1;
                }
                let text: String = self.chars[start..self.i].iter().collect();
                self.push(TokKind::Lifetime, text);
            }
            _ => {
                // Stray quote; emit as punct and move on.
                self.push(TokKind::Punct, "'".to_string());
                self.i += 1;
            }
        }
    }

    /// Number literal. Consumes digits/underscores, a hex/oct/bin body
    /// after `0x`/`0o`/`0b`, a fractional part only when `.` is followed
    /// by a digit (so `0..5` and `1.max(2)` stay three tokens), an
    /// exponent, and any alphanumeric suffix.
    fn number(&mut self) {
        let start = self.i;
        let mut is_float = false;
        let radix_body = self.peek(0) == Some('0')
            && matches!(self.peek(1), Some('x') | Some('o') | Some('b') | Some('X'));
        if radix_body {
            self.i += 2;
            while self
                .peek(0)
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
            {
                self.i += 1;
            }
        } else {
            while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                self.i += 1;
            }
            if self.peek(0) == Some('.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
                is_float = true;
                self.i += 1;
                while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                    self.i += 1;
                }
            }
            if matches!(self.peek(0), Some('e') | Some('E'))
                && (self.peek(1).is_some_and(|c| c.is_ascii_digit())
                    || (matches!(self.peek(1), Some('+') | Some('-'))
                        && self.peek(2).is_some_and(|c| c.is_ascii_digit())))
            {
                is_float = true;
                self.i += 1;
                if matches!(self.peek(0), Some('+') | Some('-')) {
                    self.i += 1;
                }
                while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                    self.i += 1;
                }
            }
            // Suffix (u64, f32, usize, ...). An f32/f64 suffix makes the
            // literal a float even without `.`/exponent.
            let suffix_start = self.i;
            while self.peek(0).is_some_and(is_ident_continue) {
                self.i += 1;
            }
            let suffix: String = self.chars[suffix_start..self.i].iter().collect();
            if suffix == "f32" || suffix == "f64" {
                is_float = true;
            }
        }
        let text: String = self.chars[start..self.i].iter().collect();
        let kind = if is_float {
            TokKind::Float
        } else {
            TokKind::Int
        };
        self.push(kind, text);
    }

    /// Identifier — unless it is actually the prefix of a string (`r"`,
    /// `r#"`, `b"`, `br"`, `br#"`), a byte char (`b'x'`), or a raw
    /// identifier (`r#match`).
    fn ident_or_prefixed(&mut self) {
        let c = self.chars[self.i];
        // Raw string: r" or r#...#"
        if c == 'r' || c == 'b' {
            if let Some(skip) = self.string_prefix_len(c) {
                self.i += skip;
                self.raw_string();
                return;
            }
            if c == 'b' && self.peek(1) == Some('"') {
                self.i += 1;
                self.cooked_string();
                return;
            }
            if c == 'b' && self.peek(1) == Some('\'') {
                // Byte char b'x' (or b'\n').
                self.i += 1;
                self.char_or_lifetime();
                if let Some(last) = self.out.last_mut() {
                    last.kind = TokKind::Char;
                }
                return;
            }
            if c == 'r' && self.peek(1) == Some('#') && self.peek(2).is_some_and(is_ident_start) {
                // Raw identifier r#match — emit the bare identifier.
                self.i += 2;
                let start = self.i;
                while self.i < self.chars.len() && is_ident_continue(self.chars[self.i]) {
                    self.i += 1;
                }
                let text: String = self.chars[start..self.i].iter().collect();
                self.push(TokKind::Ident, text);
                return;
            }
        }
        let start = self.i;
        while self.i < self.chars.len() && is_ident_continue(self.chars[self.i]) {
            self.i += 1;
        }
        let text: String = self.chars[start..self.i].iter().collect();
        self.push(TokKind::Ident, text);
    }

    /// If the identifier starting at `self.i` (known to begin with `r`
    /// or `b`) is a raw-string prefix, return how many chars to skip to
    /// land on the first `#` or the opening quote.
    fn string_prefix_len(&self, c: char) -> Option<usize> {
        let raw_at = |at: usize| -> bool {
            // `#`* `"` starting at offset `at`.
            let mut k = at;
            while self.peek(k) == Some('#') {
                k += 1;
            }
            self.peek(k) == Some('"')
        };
        match c {
            'r' if self.peek(1) == Some('"') => Some(1),
            'r' if self.peek(1) == Some('#') && raw_at(1) => Some(1),
            'b' if self.peek(1) == Some('r')
                && (self.peek(2) == Some('"') || (self.peek(2) == Some('#') && raw_at(2))) =>
            {
                Some(2)
            }
            _ => None,
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Mark tokens that live inside `#[cfg(test)]` items (and the attribute
/// itself). The scan is structural: an attribute `#[...]` whose bracket
/// group contains both `cfg` and `test` starts a skip; the skipped
/// region is the next item — through its balanced `{...}` body, or to a
/// terminating `;` for braceless items. Stacked attributes between the
/// cfg and the item are included.
pub fn mark_cfg_test(toks: &mut [Tok]) {
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokKind::Punct
            && toks[i].text == "#"
            && toks.get(i + 1).is_some_and(|t| t.text == "[")
        {
            // Collect the attribute group.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut saw_cfg = false;
            let mut saw_test = false;
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    "cfg" if toks[j].kind == TokKind::Ident => saw_cfg = true,
                    "test" if toks[j].kind == TokKind::Ident => saw_test = true,
                    _ => {}
                }
                j += 1;
            }
            if saw_cfg && saw_test {
                // Mark from the `#` through the end of the item.
                let end = item_end(toks, j);
                for t in toks.iter_mut().take(end).skip(i) {
                    t.cfg_test = true;
                }
                i = end;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
}

/// Index one past the end of the item starting at `start` (which may
/// open with more attributes). The item ends at its balanced `{...}`
/// body or at a top-level `;` before any brace.
fn item_end(toks: &[Tok], mut start: usize) -> usize {
    // Skip stacked attributes.
    while start < toks.len()
        && toks[start].text == "#"
        && toks.get(start + 1).is_some_and(|t| t.text == "[")
    {
        let mut depth = 1usize;
        start += 2;
        while start < toks.len() && depth > 0 {
            match toks[start].text.as_str() {
                "[" => depth += 1,
                "]" => depth -= 1,
                _ => {}
            }
            start += 1;
        }
    }
    let mut k = start;
    let mut brace = 0usize;
    let mut entered = false;
    while k < toks.len() {
        match toks[k].text.as_str() {
            "{" if toks[k].kind == TokKind::Punct => {
                brace += 1;
                entered = true;
            }
            "}" if toks[k].kind == TokKind::Punct => {
                brace = brace.saturating_sub(1);
                if entered && brace == 0 {
                    return k + 1;
                }
            }
            ";" if !entered && brace == 0 => return k + 1,
            _ => {}
        }
        k += 1;
    }
    toks.len()
}

/// Lex and mark in one call; most callers want this.
pub fn lex_marked(src: &str) -> Vec<Tok> {
    let mut t = lex(src);
    mark_cfg_test(&mut t);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn escaped_char_literals_close_at_their_own_quote() {
        // '\\' — the escaped char is itself a backslash; found by the
        // stripper/lexer differential test swallowing half of this file.
        assert_eq!(
            idents(r"let c = '\\'; let after = 1;"),
            vec!["let", "c", "let", "after"]
        );
        assert_eq!(
            idents(r"let c = '\''; let after = 1;"),
            vec!["let", "c", "let", "after"]
        );
        assert_eq!(
            idents(r"let c = '\u{1F600}'; let after = 1;"),
            vec!["let", "c", "let", "after"]
        );
    }

    #[test]
    fn raw_strings_hide_contents() {
        assert_eq!(idents(r####"let x = r#"HashMap"#;"####), vec!["let", "x"]);
        assert_eq!(idents(r####"let x = r##"a "# b"##;"####), vec!["let", "x"]);
        assert_eq!(
            idents("let x = r\"\\\"; let y = 1;"),
            vec!["let", "x", "let", "y"]
        );
    }

    #[test]
    fn nested_block_comments() {
        assert_eq!(idents("a /* x /* HashMap */ y */ b"), vec!["a", "b"],);
    }

    #[test]
    fn lifetimes_vs_chars() {
        let toks = lex("fn f<'a>(x: &'a str, c: char) { let y = 'z'; let n = '\\n'; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let chars = toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(chars, 2);
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        assert_eq!(
            idents("let x = b\"HashMap\"; let y = b'x';"),
            vec!["let", "x", "let", "y"]
        );
        assert_eq!(idents("let x = br#\"HashMap\"#;"), vec!["let", "x"]);
    }

    #[test]
    fn raw_identifiers() {
        assert_eq!(idents("let r#match = 1;"), vec!["let", "match"]);
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        let toks = lex("for i in 0..5 { let x = 1.max(2); let f = 1.5e3f64; }");
        let floats: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Float).collect();
        assert_eq!(floats.len(), 1);
        assert_eq!(floats[0].text, "1.5e3f64");
        assert!(idents("let x = 1.max(2);").contains(&"max".to_string()));
    }

    #[test]
    fn float_suffix_without_dot_is_float() {
        let toks = lex("let x = 1f64;");
        assert!(toks.iter().any(|t| t.kind == TokKind::Float));
    }

    #[test]
    fn lines_are_tracked_through_multiline_constructs() {
        let src = "/* a\nb */\nlet x = \"s\ns\";\nlet y = 1;";
        let toks = lex(src);
        let y = toks.iter().find(|t| t.text == "y").unwrap();
        assert_eq!(y.line, 5);
        let x = toks.iter().find(|t| t.text == "x").unwrap();
        assert_eq!(x.line, 3);
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src = "fn live() { a.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn t() { b.unwrap(); }\n}\nfn live2() {}\n";
        let toks = lex_marked(src);
        let unwraps: Vec<_> = toks.iter().filter(|t| t.text == "unwrap").collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!unwraps[0].cfg_test);
        assert!(unwraps[1].cfg_test);
        let live2 = toks.iter().find(|t| t.text == "live2").unwrap();
        assert!(!live2.cfg_test);
    }

    #[test]
    fn cfg_test_braceless_item() {
        let toks = lex_marked("#[cfg(test)]\nuse foo::bar;\nfn live() {}\n");
        let bar = toks.iter().find(|t| t.text == "bar").unwrap();
        assert!(bar.cfg_test);
        let live = toks.iter().find(|t| t.text == "live").unwrap();
        assert!(!live.cfg_test);
    }

    #[test]
    fn cfg_not_test_attribute_is_not_marked() {
        let toks = lex_marked("#[cfg(feature = \"x\")]\nfn f() { g(); }\n");
        assert!(toks.iter().all(|t| !t.cfg_test));
    }
}
