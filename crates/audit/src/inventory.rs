//! The generated blocks of the docs: DESIGN.md §2's code-line
//! inventory and README's figures.
//!
//! *Code lines* are a module's `src/` lines that are not blank, not
//! comment-only and not inside a `#[cfg(test)]` item (as the lexer marks
//! them) — the number a reader has to hold, not the number `wc -l`
//! prints. The *figures* are the committed `BENCH_*.json` numbers a
//! reader quotes: the heap rows, what observation costs, host events per
//! second. `cargo run -p audit -- inventory` prints every block between
//! its marker lines; `tests/lint_gate.rs` fails when a doc's block
//! differs, and when a rendered figure is typed anywhere else, so a
//! number is written by hand only in the BENCH file it comes from.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use xt3_telemetry::{parse_json, JsonValue};

use crate::lex;

/// The line before the code-line block in DESIGN.md.
pub const BEGIN: &str = "<!-- inventory:begin (generated: cargo run -p audit -- inventory) -->";
/// The line after it.
pub const END: &str = "<!-- inventory:end -->";
/// The line before the figures block in README.md.
pub const FIGURES_BEGIN: &str =
    "<!-- figures:begin (generated: cargo run -p audit -- inventory) -->";
/// The line after it.
pub const FIGURES_END: &str = "<!-- figures:end -->";

/// The repository root, resolved from this crate's manifest directory.
/// Works both under `cargo run -p audit` and inside `#[test]`s.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs` file under `crates/`, `src/` and `tests/`, minus `target`
/// and `vendor` (offline stand-ins for external crates, not our code),
/// sorted.
pub fn source_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            if !path.ends_with("target") && !path.ends_with("vendor") {
                walk(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `file` relative to `root`, with forward slashes.
pub fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

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

/// Every generated block between its marker lines, as `audit inventory`
/// prints it.
pub fn render_all(root: &Path) -> io::Result<String> {
    let read = |name| fs::read_to_string(root.join(name));
    let bench = [
        read("BENCH_mem.json")?,
        read("BENCH_core.json")?,
        read("BENCH_parallel.json")?,
    ];
    let (figures, _) = figures(&bench[0], &bench[1], &bench[2]).map_err(io::Error::other)?;
    let code = render(root)?;
    Ok(format!(
        "{BEGIN}\n{code}{END}\n{FIGURES_BEGIN}\n{figures}{FIGURES_END}\n"
    ))
}

/// The figures block from the texts of `BENCH_mem.json`,
/// `BENCH_core.json` and `BENCH_parallel.json`, and every measured
/// integer it shows (the machine sizes are inputs, not figures).
pub fn figures(mem: &str, core: &str, par: &str) -> Result<(String, Vec<u64>), String> {
    let (mem, core, par) = (parse_json(mem)?, parse_json(core)?, parse_json(par)?);
    let mut shown = Vec::new();
    let mut n = |row: &JsonValue, key: &str| {
        let v = row.get(key)?.as_u64()?;
        shown.push(v);
        Ok::<_, String>(grouped(v))
    };
    let x = |row: &JsonValue, key: &str| Ok::<_, String>(format!("{:.3}", row.get(key)?.as_f64()?));
    let mut out = String::from(
        "| `BENCH_mem.json`, one round | built B | peak B | built / peak B a node | `Node` B | heap blocks a node |\n\
         |---|---:|---:|---:|---:|---:|\n",
    );
    for row in mem.get("sizes")?.as_array()? {
        let dims: Vec<String> = (row.get("dims")?.as_array()?.iter())
            .map(|d| d.as_u64().map(|d| d.to_string()))
            .collect::<Result<_, _>>()?;
        out += &format!(
            "| {} ({} nodes) | {} | {} | {} / {} | {} | {} |\n",
            dims.join("×"),
            grouped(row.get("nodes")?.as_u64()?),
            n(row, "built_bytes")?,
            n(row, "peak_bytes")?,
            n(row, "built_bytes_per_node")?,
            n(row, "peak_bytes_per_node")?,
            n(row, "node_bytes")?,
            n(row, "live_blocks_per_node")?,
        );
    }
    let obs = mem.get("observed")?;
    let serial = (par.get("sweep")?.as_array()?.iter())
        .find(|r| r.get("config").and_then(JsonValue::as_str) == Ok("serial"))
        .ok_or("BENCH_parallel.json has no serial row")?;
    let mut rows = vec![
        ("all-to-all peak B, sinks on", n(obs, "peak_bytes")?),
        ("the same, sinks off", n(obs, "unobserved_peak_bytes")?),
        ("B a stored span", x(obs, "bytes_per_span")?),
        ("B a causal record", x(obs, "bytes_per_record")?),
        ("B a series bucket", x(obs, "bytes_per_nonzero_bucket")?),
        ("`sink_overhead`", x(&core, "sink_overhead")?),
        ("NetPIPE, events/s", n(&core, "aggregate_events_per_sec")?),
    ];
    for s in core.get("scenarios")?.as_array()? {
        let name = s.get("name")?.as_str()?;
        if name.starts_with("deep/") {
            rows.push((name, n(s, "events_per_sec")?));
        }
    }
    rows.push(("full machine, serial", n(serial, "events_per_sec")?));
    rows.push(("best parallel speedup", x(&par, "best_parallel_speedup")?));
    out += "\n| figure | B, ratio or events/s |\n|---|---:|\n";
    for (label, value) in rows {
        out += &format!("| {label} | {value} |\n");
    }
    Ok((out, shown))
}

/// `v` with thousands separators: 65943087 → "65,943,087".
fn grouped(v: u64) -> String {
    match v {
        0..1000 => v.to_string(),
        _ => format!("{},{:03}", grouped(v / 1000), v % 1000),
    }
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

    const MEM: &str = r#"{"sizes": [{"dims": [2, 2, 2], "nodes": 8, "built_bytes": 1000,
        "peak_bytes": 2000, "built_bytes_per_node": 125, "peak_bytes_per_node": 250,
        "node_bytes": 824, "live_blocks_per_node": 26}],
        "observed": {"peak_bytes": 5000000.0, "unobserved_peak_bytes": 1500000.0,
        "bytes_per_span": 24.0, "bytes_per_record": 32.0, "bytes_per_nonzero_bucket": 69.5}}"#;
    const CORE: &str = r#"{"cores": 2, "aggregate_events_per_sec": 8000000, "sink_overhead": 1.5,
        "scenarios": [{"name": "netpipe/put", "events_per_sec": 7000000},
        {"name": "deep/torus", "events_per_sec": 3000000}]}"#;
    const PAR: &str = r#"{"best_parallel_speedup": 1.9,
        "sweep": [{"config": "par-2", "events_per_sec": 9000000},
        {"config": "serial", "events_per_sec": 4000000}]}"#;

    #[test]
    fn the_figures_block_follows_the_bench_files() {
        let (block, shown) = figures(MEM, CORE, PAR).expect("the fixture renders");
        assert!(block.contains("| 2×2×2 (8 nodes) | 1,000 | 2,000 | 125 / 250 | 824 | 26 |"));
        assert!(block.contains("| deep/torus | 3,000,000 |"), "{block}");
        assert!(block.contains("| full machine, serial | 4,000,000 |"));
        assert!(
            !block.contains("7,000,000"),
            "only the deep scenarios are figures"
        );
        assert!(!block.contains("9,000,000"), "only the serial sweep row is");
        assert!(
            !shown.contains(&8),
            "a machine size is an input, not a figure"
        );
        assert!(shown.contains(&5_000_000) && shown.contains(&1_500_000));
        // One edited BENCH value moves the block, so lint_gate fails until
        // `audit inventory`'s output replaces it.
        let edited = MEM.replace("5000000.0", "5000001.0");
        let (after, _) = figures(&edited, CORE, PAR).expect("the edit renders");
        assert_ne!(block, after);
        assert!(after.contains("| 5,000,001 |"));
        assert!(figures(&MEM.replace("\"observed\"", "\"obs\""), CORE, PAR).is_err());
    }

    #[test]
    fn grouped_puts_a_separator_every_three_digits() {
        assert_eq!(grouped(0), "0");
        assert_eq!(grouped(999), "999");
        assert_eq!(grouped(1_000), "1,000");
        assert_eq!(grouped(1_000_001), "1,000,001");
        assert_eq!(grouped(65_943_087), "65,943,087");
    }
}
