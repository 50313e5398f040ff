//! The code-line inventory of DESIGN.md §2, generated.
//!
//! *Code lines* are what is left of a module's `src/` after cutting each
//! file at its first `#[cfg(test)]` and dropping blank and comment-only
//! lines — the number a reader has to hold, not the number `wc -l`
//! prints. `cargo run -p audit -- inventory` prints the block that sits
//! between the `inventory` markers in DESIGN.md; `tests/lint_gate.rs`
//! fails when the two differ, so the table cannot go stale.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::lint::{rel_path, source_files};

/// The line before the generated block in DESIGN.md.
pub const BEGIN: &str = "<!-- inventory:begin (generated: cargo run -p audit -- inventory) -->";
/// The line after it.
pub const END: &str = "<!-- inventory:end -->";

/// Code lines of one source file's text.
pub fn code_lines(text: &str) -> usize {
    text.lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .map(str::trim_start)
        .filter(|line| !line.is_empty() && !line.starts_with("//"))
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
    fn code_lines_stop_at_the_test_module_and_skip_blanks_and_comments() {
        let text = "//! doc\nuse x;\n\n    // note\nfn f() {} // trailing\n    #[cfg(test)]\nfn g() {}\n#[cfg(test)]\nmod tests {\n    fn h() {}\n}\n";
        assert_eq!(code_lines(text), 4);
        assert_eq!(code_lines(""), 0);
    }
}
