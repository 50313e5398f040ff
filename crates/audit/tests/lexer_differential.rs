//! Differential test: the line stripper (`stripper/mod.rs`) and the
//! token lexer are two independent implementations of "what is code vs.
//! string/comment content", and they must agree on every file in the
//! tree.
//!
//! Agreement is checked on the identifier channel — the one
//! `lint_gate`'s token checks consume. For each line of each source file, the
//! identifier words surviving `strip_text` must equal the
//! `TokKind::Ident` tokens the lexer places on that line. A raw string
//! the stripper leaks (its historical bug) or a comment the lexer
//! mis-nests shows up as a one-line diff with both renderings.

mod stripper;

use audit::inventory;
use audit::lex::{self, TokKind};
use stripper::{strip_text, stripped_idents};

#[test]
fn stripper_and_lexer_agree_on_every_file() {
    let root = inventory::repo_root();
    let mut checked = 0usize;
    for file in inventory::source_files(&root).expect("walk") {
        let rel = inventory::rel_path(&root, &file);
        let text = std::fs::read_to_string(&file).expect("read");

        let stripped = strip_text(&text);
        let mut per_line: Vec<Vec<String>> = vec![Vec::new(); stripped.len()];
        for t in lex::lex(&text) {
            if t.kind == TokKind::Ident {
                let idx = t.line as usize - 1;
                assert!(
                    idx < per_line.len(),
                    "{rel}: lexer places a token on line {} of {}",
                    t.line,
                    per_line.len()
                );
                per_line[idx].push(t.text);
            }
        }

        for (i, line) in stripped.iter().enumerate() {
            let legacy = stripped_idents(line);
            assert_eq!(
                legacy,
                per_line[i],
                "{rel}:{}: stripper and lexer disagree\n  stripped: {line:?}",
                i + 1
            );
        }
        checked += 1;
    }
    assert!(checked > 50, "sanity: walked only {checked} files");
}

#[test]
fn raw_strings_are_fully_stripped() {
    // The historical bug: `r#"..."#` was lexed as ident + cooked
    // string, so a `"` inside leaked contents into the code channel.
    let stripped =
        strip_text("let x = r#\"say \"HashMap\" loudly\"#;\nlet y = r\"\\\"; let z: u32 = 0;\n");
    assert_eq!(stripped, ["let x = \"\";", "let y = \"\"; let z: u32 = 0;"]);
}

#[test]
fn multiline_raw_string_carries_across_lines() {
    let stripped = strip_text("let x = r#\"line one\nHashMap line two\"#;\nlet done = 1;\n");
    assert_eq!(stripped, ["let x = \"\"", ";", "let done = 1;"]);
}

#[test]
fn nested_block_comments_strip_to_the_outer_close() {
    let stripped = strip_text("/* outer /* inner */ still comment: HashMap */ let a = 1;");
    assert_eq!(stripped, [" let a = 1;"]);
    let stripped = strip_text("/* a /* b\n*/ c */ code");
    assert_eq!(stripped, ["", " code"]);
}

#[test]
fn escaped_char_literals_close_at_their_own_quote() {
    // '\\' — the escaped char is itself a backslash; found by this
    // differential (both implementations shared the bug of re-treating
    // it as an escape opener).
    let stripped = strip_text(r"let c = '\\'; let after = 1;");
    assert_eq!(stripped, ["let c = ''; let after = 1;"]);
    let stripped = strip_text(r"let c = '\''; let after = 1;");
    assert_eq!(stripped, ["let c = ''; let after = 1;"]);
}

#[test]
fn byte_strings_and_raw_idents_canonicalize() {
    let stripped = strip_text("let a = b\"HashMap\"; let b = b'x'; let r#match = 1;");
    assert_eq!(stripped, ["let a = \"\"; let b = ''; let match = 1;"]);
}

#[test]
fn lifetimes_are_not_char_literals() {
    // A lifetime's `'` must not swallow the rest of the line.
    let stripped = strip_text("fn f<'a>(x: &'a str) -> HashMap<u32, u32> {}");
    assert_eq!(stripped, ["fn f<'a>(x: &'a str) -> HashMap<u32, u32> {}"]);
}
