//! The line stripper: the lexer's independent witness.
//!
//! A second, deliberately different answer to "what is code vs.
//! string/comment content": it works line by line on text, carrying a
//! comment depth and a raw-string hash count across lines, where
//! `audit::lex` tokenizes the whole file. `lexer_differential.rs` proves
//! the two agree on the identifier stream of every line in the tree and
//! `lexer_props.rs` on fuzzed interleavings, so a bug in either
//! stripping strategy surfaces as a diff instead of a silent false
//! negative. Nothing outside those two tests calls it.
//!
//! It began as the text pass of the first determinism linter, which had
//! two stripping bugs the lexer does not: raw strings (`r#"..."#`) were
//! lexed as an identifier plus a cooked string (so a `"` or `\` inside
//! leaked contents into the "code" channel), and nested block comments
//! ended at the *first* `*/`. Both are fixed here; the stripper
//! canonicalizes every string flavor to `""` and every char literal to
//! `''`.

/// Removes comments and the contents of string/char literals from
/// source lines, carrying state across lines.
#[derive(Debug, Default)]
pub struct Stripper {
    state: StripState,
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum StripState {
    #[default]
    Normal,
    /// Inside a block comment at this nesting depth.
    BlockComment(u32),
    /// Inside a multi-line cooked string.
    Str,
    /// Inside a multi-line raw string closed by `"` + this many `#`s.
    RawStr(u32),
}

impl Stripper {
    /// Strip one line, updating the carried state.
    pub fn strip_line(&mut self, line: &str) -> String {
        let chars: Vec<char> = line.chars().collect();
        let mut out = String::with_capacity(line.len());
        let mut i = 0;
        while i < chars.len() {
            match self.state {
                StripState::BlockComment(depth) => {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        self.state = StripState::BlockComment(depth + 1);
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        self.state = if depth == 1 {
                            StripState::Normal
                        } else {
                            StripState::BlockComment(depth - 1)
                        };
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                StripState::Str => match chars[i] {
                    '\\' => i += 2,
                    '"' => {
                        self.state = StripState::Normal;
                        i += 1;
                    }
                    _ => i += 1,
                },
                StripState::RawStr(hashes) => {
                    if chars[i] == '"'
                        && (0..hashes as usize).all(|k| chars.get(i + 1 + k) == Some(&'#'))
                    {
                        self.state = StripState::Normal;
                        i += 1 + hashes as usize;
                    } else {
                        i += 1;
                    }
                }
                StripState::Normal => {
                    let c = chars[i];
                    match c {
                        '/' if chars.get(i + 1) == Some(&'/') => break, // line comment
                        '/' if chars.get(i + 1) == Some(&'*') => {
                            self.state = StripState::BlockComment(1);
                            i += 2;
                        }
                        '"' => {
                            out.push_str("\"\"");
                            self.state = StripState::Str;
                            i += 1;
                            while i < chars.len() && self.state == StripState::Str {
                                match chars[i] {
                                    '\\' => i += 2,
                                    '"' => {
                                        self.state = StripState::Normal;
                                        i += 1;
                                    }
                                    _ => i += 1,
                                }
                            }
                        }
                        '\'' => i += self.char_or_lifetime(&chars, i, &mut out),
                        c if c.is_alphabetic() || c == '_' => {
                            i += self.ident_or_literal_prefix(&chars, i, &mut out);
                        }
                        c => {
                            out.push(c);
                            i += 1;
                        }
                    }
                }
            }
        }
        out
    }

    /// Handle `'` at `chars[i]`: emit `''` for char literals, the
    /// lifetime text otherwise. Returns chars consumed.
    fn char_or_lifetime(&mut self, chars: &[char], i: usize, out: &mut String) -> usize {
        match chars.get(i + 1) {
            Some('\\') => {
                // Escaped char: the char after the backslash is
                // consumed blind — it may itself be `\` (`'\\'`) or `'`
                // (`'\''`) — then scan to the closing quote.
                let mut k = i + 3;
                while k < chars.len() {
                    match chars[k] {
                        '\\' => k += 2,
                        '\'' => {
                            k += 1;
                            break;
                        }
                        _ => k += 1,
                    }
                }
                out.push_str("''");
                k - i
            }
            Some(_) if chars.get(i + 2) == Some(&'\'') => {
                out.push_str("''");
                3
            }
            Some(c) if c.is_alphabetic() || *c == '_' => {
                // Lifetime: keep the text (it is code, not data).
                out.push('\'');
                let mut k = i + 1;
                while k < chars.len() && (chars[k].is_alphanumeric() || chars[k] == '_') {
                    out.push(chars[k]);
                    k += 1;
                }
                k - i
            }
            _ => {
                out.push('\'');
                1
            }
        }
    }

    /// Handle an identifier at `chars[i]` — which may turn out to be
    /// the prefix of a raw/byte string (`r"`, `r#"`, `b"`, `br#"`), a
    /// byte char (`b'x'`) or a raw identifier (`r#match`). Returns
    /// chars consumed.
    fn ident_or_literal_prefix(&mut self, chars: &[char], i: usize, out: &mut String) -> usize {
        let mut k = i;
        while k < chars.len() && (chars[k].is_alphanumeric() || chars[k] == '_') {
            k += 1;
        }
        let ident: String = chars[i..k].iter().collect();
        let hashes_then_quote = |at: usize| -> Option<u32> {
            let mut h = 0usize;
            while chars.get(at + h) == Some(&'#') {
                h += 1;
            }
            (chars.get(at + h) == Some(&'"')).then_some(h as u32)
        };
        match ident.as_str() {
            "r" | "br" if chars.get(k) == Some(&'#') || chars.get(k) == Some(&'"') => {
                if ident == "r"
                    && chars.get(k) == Some(&'#')
                    && chars
                        .get(k + 1)
                        .is_some_and(|c| c.is_alphabetic() || *c == '_')
                {
                    // Raw identifier r#match: emit the bare identifier.
                    let mut m = k + 1;
                    while m < chars.len() && (chars[m].is_alphanumeric() || chars[m] == '_') {
                        out.push(chars[m]);
                        m += 1;
                    }
                    return m - i;
                }
                if let Some(h) = hashes_then_quote(k) {
                    // Raw string: consume `#`* `"`, then scan for close.
                    out.push_str("\"\"");
                    self.state = StripState::RawStr(h);
                    let mut m = k + h as usize + 1;
                    while m < chars.len() {
                        if chars[m] == '"'
                            && (0..h as usize).all(|x| chars.get(m + 1 + x) == Some(&'#'))
                        {
                            self.state = StripState::Normal;
                            m += 1 + h as usize;
                            return m - i;
                        }
                        m += 1;
                    }
                    return m - i;
                }
                out.push_str(&ident);
                k - i
            }
            "b" if chars.get(k) == Some(&'"') => {
                // Byte string: strip like a cooked string.
                out.push_str("\"\"");
                self.state = StripState::Str;
                let mut m = k + 1;
                while m < chars.len() && self.state == StripState::Str {
                    match chars[m] {
                        '\\' => m += 2,
                        '"' => {
                            self.state = StripState::Normal;
                            m += 1;
                        }
                        _ => m += 1,
                    }
                }
                m - i
            }
            "b" if chars.get(k) == Some(&'\'') => {
                // Byte char b'x'.
                let consumed = self.char_or_lifetime(chars, k, out);
                k + consumed - i
            }
            _ => {
                out.push_str(&ident);
                k - i
            }
        }
    }
}

/// Strip a whole file to canonicalized code-only lines (string contents
/// replaced by `""`, char literals by `''`, comments removed), one
/// output line per input line.
pub fn strip_text(text: &str) -> Vec<String> {
    let mut stripper = Stripper::default();
    text.lines().map(|l| stripper.strip_line(l)).collect()
}

/// Identifier words in stripped text: maximal `[A-Za-z0-9_]` runs that
/// start like an identifier, excluding lifetimes (`'a` — char literals
/// are canonicalized to `''`, so a surviving quote prefix means a
/// lifetime, which the lexer types separately). The channel both tests
/// compare against the lexer's `TokKind::Ident` tokens.
pub fn stripped_idents(text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if chars[i].is_ascii_alphanumeric() || chars[i] == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let starts_ident = !chars[start].is_ascii_digit();
            let lifetime = start > 0 && chars[start - 1] == '\'';
            if starts_ident && !lifetime {
                out.push(chars[start..i].iter().collect());
            }
        } else {
            i += 1;
        }
    }
    out
}
