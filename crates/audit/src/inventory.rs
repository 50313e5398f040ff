//! The code-line inventory of DESIGN.md §2, generated.
//!
//! *Code lines* are a module's `src/` lines that are not blank, not
//! comment-only and not inside a `#[cfg(test)]` item (as the lexer marks
//! them) — the number a reader has to hold, not the number `wc -l`
//! prints. `cargo run -p audit -- inventory` prints the block that sits
//! between the `inventory` markers in DESIGN.md; `tests/lint_gate.rs`
//! fails when the two differ, so the table cannot go stale.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::lex;
use crate::rules::{rel_path, source_files};

/// The line before the generated block in DESIGN.md.
pub const BEGIN: &str = "<!-- inventory:begin (generated: cargo run -p audit -- inventory) -->";
/// The line after it.
pub const END: &str = "<!-- inventory:end -->";

/// Code lines of one source file's text.
pub fn code_lines(text: &str) -> usize {
    // 1-based lines a `#[cfg(test)]` item spans (attribute through its
    // last token), and lines where a shipped token starts.
    let toks = lex::lex_marked(text);
    let lines = text.lines().count();
    let mut test = vec![false; lines + 2];
    let mut shipped = vec![false; lines + 2];
    for pair in toks.windows(2) {
        if pair[0].cfg_test && pair[1].cfg_test {
            test[pair[0].line as usize..=pair[1].line as usize].fill(true);
        }
    }
    for t in toks.iter().filter(|t| !t.cfg_test) {
        shipped[t.line as usize] = true;
    }
    text.lines()
        .enumerate()
        .filter(|&(i, line)| {
            let line = line.trim_start();
            !line.is_empty() && !line.starts_with("//") && (shipped[i + 1] || !test[i + 1])
        })
        .count()
}

/// The generated block: one row per crate under `crates/`, one per file
/// of `xt3` (where every layer below meets), and the total.
pub fn render(root: &Path) -> io::Result<String> {
    let mut crates: BTreeMap<String, usize> = BTreeMap::new();
    let mut xt3_files = Vec::new();
    for file in source_files(root)? {
        let rel = rel_path(root, &file);
        let Some((name, inner)) = rel
            .strip_prefix("crates/")
            .and_then(|rest| rest.split_once("/src/"))
        else {
            continue;
        };
        let lines = code_lines(&fs::read_to_string(&file)?);
        *crates.entry(name.to_string()).or_default() += lines;
        if name == "xt3" {
            xt3_files.push((inner.trim_end_matches(".rs").to_string(), lines));
        }
    }
    let mut out = String::from("| module | code lines |\n|---|---:|\n");
    for (name, lines) in &crates {
        let _ = writeln!(out, "| `{name}` | {} |", lines);
        for (file, lines) in xt3_files.iter().filter(|_| name == "xt3") {
            let _ = writeln!(out, "| · `xt3::{file}` | {} |", lines);
        }
    }
    let total: usize = crates.values().sum();
    let _ = writeln!(out, "| **`crates/*/src`** | **{}** |", total);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_lines_skip_blanks_comments_and_test_items() {
        let text = "//! doc\nuse x;\n\n    // note\nfn f() {} // trailing\n#[cfg(test)]\nmod tests {\n    fn h() {}\n}\n";
        assert_eq!(code_lines(text), 2);
        assert_eq!(code_lines(""), 0);
    }

    #[test]
    fn shipped_code_after_a_test_only_item_counts() {
        // The shape of `sim::queue`: a test-only item first, then shipped
        // code, a test-only statement inside it, and a multi-line string
        // whose inner lines are code like any other.
        let text = "use x;\n\
                    #[cfg(test)]\n\
                    thread_local! {\n    static OPS: u64 = 0;\n}\n\
                    \n\
                    fn live() {\n    #[cfg(test)]\n    count(1);\n    let s = \"one\ntwo\nthree\";\n}\n\
                    #[cfg(test)]\nmod tests {\n    fn t() { let s = \"a\nb\"; }\n}\n";
        // use x; fn live() {; let s = "one; two; three"; }
        assert_eq!(code_lines(text), 6);
    }
}
