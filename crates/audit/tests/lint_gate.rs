//! The tree-shape checks of the audit, as tests: the clippy configuration
//! that holds the determinism rules stays in place (DESIGN §11), the one
//! rule clippy has no lint for holds on lexed tokens, and the file sizes,
//! the fabric seam and the generated doc blocks hold.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use audit::inventory;
use audit::lex::{self, Tok, TokKind};

/// The tokens of `text` outside `#[cfg(test)]` items.
fn shipped(text: &str) -> Vec<Tok> {
    let toks = lex::lex_marked(text);
    toks.into_iter().filter(|t| !t.cfg_test).collect()
}

/// `atomic-ordering`: no `Ordering::Relaxed` outside test code. The
/// races it permits reorder effects the replay checker cannot see (it
/// compares event streams, not memory orders), and clippy has no lint
/// for it.
#[test]
fn no_shipped_token_is_a_relaxed_ordering() {
    let root = inventory::repo_root();
    let files = inventory::source_files(&root).expect("walk");
    assert!(files.len() > 50, "sanity: the walker visits the tree");
    let mut hits = Vec::new();
    for file in files {
        let toks = shipped(&fs::read_to_string(&file).expect("read source"));
        for w in toks.windows(4) {
            let texts: Vec<&str> = w.iter().map(|t| t.text.as_str()).collect();
            if w[0].kind == TokKind::Ident && texts == ["Ordering", ":", ":", "Relaxed"] {
                hits.push(format!(
                    "{}:{}",
                    inventory::rel_path(&root, &file),
                    w[0].line
                ));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "Ordering::Relaxed; use Acquire/Release/SeqCst:\n{}",
        hits.join("\n")
    );
}

/// `float-nondet` in `sim`'s digest-feeding modules: clippy's
/// `float_arithmetic` denies their float operations, and this holds the
/// rest — no `f32`/`f64` and no float literal. (A crate-wide type ban, as
/// `firmware` and `portals` have, would hit `sim`'s sanctioned float
/// boundaries: `time`, `cursor`, `rng`, `faults`, `stats`.)
#[test]
fn sim_digest_feeding_modules_hold_no_float_token() {
    const DIGEST_FEEDING: [&str; 4] = [
        "crates/sim/src/digest.rs",
        "crates/sim/src/engine.rs",
        "crates/sim/src/queue.rs",
        "crates/sim/src/causal.rs",
    ];
    let root = inventory::repo_root();
    let mut hits = Vec::new();
    for rel in DIGEST_FEEDING {
        let text = fs::read_to_string(root.join(rel)).expect("read source");
        for t in shipped(&text) {
            let float_type = t.kind == TokKind::Ident && (t.text == "f32" || t.text == "f64");
            if float_type || t.kind == TokKind::Float {
                hits.push(format!("{rel}:{}: {}", t.line, t.text));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "digest-feeding state stays integer-only:\n{}",
        hits.join("\n")
    );
}

/// The `(array or "", line)` pairs of a `clippy.toml`: each setting line
/// and each array entry with the array it sits in; comments and blank
/// lines dropped.
fn clippy_lines(text: &str) -> BTreeSet<(String, String)> {
    let mut array = String::new();
    let mut lines = BTreeSet::new();
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(key) = line.strip_suffix("= [") {
            array = key.trim().to_string();
        } else if line == "]" {
            array.clear();
        } else {
            lines.insert((array.clone(), line.to_string()));
        }
    }
    lines
}

/// Clippy reads the nearest `clippy.toml` and does not merge it with the
/// root's: a crate's own file must repeat every root setting and every
/// `disallowed-types`/`disallowed-methods` entry, in the same array, or
/// the workspace bans silently stop in that crate.
#[test]
fn every_crate_clippy_toml_repeats_the_root_one() {
    let root = inventory::repo_root();
    let base =
        clippy_lines(&fs::read_to_string(root.join("clippy.toml")).expect("root clippy.toml"));
    assert!(base.len() > 10, "sanity: the root file parses");
    let mut crates = Vec::new();
    for entry in fs::read_dir(root.join("crates")).expect("crates/") {
        let path = entry.expect("entry").path().join("clippy.toml");
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        let own = clippy_lines(&text);
        let missing: Vec<_> = base.difference(&own).collect();
        let rel = inventory::rel_path(&root, &path);
        assert!(missing.is_empty(), "{rel} lacks the root's {missing:?}");
        crates.push(rel);
    }
    crates.sort();
    assert_eq!(
        crates,
        ["crates/firmware/clippy.toml", "crates/portals/clippy.toml"],
        "DESIGN §11 names each crate that adds to the root file"
    );
}

/// The clippy lints a module's inner `#![deny(...)]` attributes name
/// (each opens a line, as rustfmt leaves it).
fn denied(text: &str) -> BTreeSet<String> {
    let mut lints = BTreeSet::new();
    for attr in format!("\n{text}").split("\n#![deny(").skip(1) {
        let list = attr.split_once(")]").map_or("", |(list, _)| list);
        for lint in list
            .split(',')
            .filter_map(|l| l.trim().strip_prefix("clippy::"))
        {
            lints.insert(lint.to_string());
        }
    }
    lints
}

/// The `(module file, lint)` pairs DESIGN §11's scope table lists: one
/// row per module, its file first, its denied lints in the last cell.
fn scope_table(design: &str) -> BTreeSet<(String, String)> {
    let section = design
        .split_once("\n## 11.")
        .and_then(|(_, rest)| rest.split_once("\n## ").map(|(s, _)| s))
        .expect("DESIGN.md has a §11");
    let mut pairs = BTreeSet::new();
    for row in section.lines().filter(|l| l.starts_with("| `crates/")) {
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let file = cells[1].split('`').nth(1).expect("a file in backticks");
        let lints = cells[cells.len() - 2].split('`').skip(1).step_by(2);
        for lint in lints {
            pairs.insert((file.to_string(), lint.to_string()));
        }
    }
    pairs
}

/// The module-level half of DESIGN §11: every module in its scope table
/// carries a `#![deny(clippy::…)]` for each lint the row names, and no
/// module denies a clippy lint the table does not list. The floor is the
/// table's size: a scope may grow (raise it), never shrink.
#[test]
fn every_scoped_module_carries_its_deny() {
    const DENIED_FLOOR: usize = 64;
    let root = inventory::repo_root();
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let table = scope_table(&design);
    let mut tree = BTreeSet::new();
    for file in inventory::source_files(&root).expect("walk") {
        let rel = inventory::rel_path(&root, &file);
        for lint in denied(&fs::read_to_string(&file).expect("read source")) {
            tree.insert((rel.clone(), lint));
        }
    }
    let missing: Vec<_> = table.difference(&tree).collect();
    assert!(missing.is_empty(), "a module lost its deny: {missing:?}");
    let unlisted: Vec<_> = tree.difference(&table).collect();
    assert!(
        unlisted.is_empty(),
        "DESIGN §11 does not list: {unlisted:?}"
    );
    assert!(
        table.len() >= DENIED_FLOOR,
        "DESIGN §11 lists {} (module, lint) pairs, under the floor of {DENIED_FLOOR}",
        table.len()
    );
}

/// ROADMAP item 4, held in place: `xt3::machine` is a module per job, so
/// no file of the crate may grow back past 800 lines, and the fabric
/// seam — how a send reaches the fabric, `NetMode` — stays spelled out in
/// exactly one of them.
#[test]
fn xt3_files_stay_small_and_the_fabric_seam_stays_in_one() {
    let root = inventory::repo_root();
    let mut seam_files = Vec::new();
    let mut seen = 0;
    for file in inventory::source_files(&root).expect("walk") {
        let rel = inventory::rel_path(&root, &file);
        if !rel.starts_with("crates/xt3/src/") {
            continue;
        }
        seen += 1;
        let text = fs::read_to_string(&file).expect("read source");
        let lines = text.lines().count();
        assert!(lines <= 800, "{rel} has {lines} lines (limit 800)");
        if text.contains("NetMode::") {
            seam_files.push(rel);
        }
    }
    assert!(seen > 10, "sanity: the walker must visit xt3 (saw {seen})");
    assert_eq!(
        seam_files,
        ["crates/xt3/src/machine/net.rs"],
        "`NetMode::` belongs to the fabric seam alone"
    );
}

/// ROADMAP item 5's ratchet: the code lines of `crates/*/src` — the
/// total of `audit inventory`'s table — may not grow past this ceiling
/// unseen. A change that shrinks the code lowers it to the new count; one
/// that must grow it raises it here and says in CHANGES.md which lines
/// and why.
const CODE_LINE_CEILING: usize = 21_453;

#[test]
fn crate_code_lines_stay_under_the_ratchet() {
    let root = inventory::repo_root();
    let mut total = 0;
    for file in inventory::source_files(&root).expect("walk") {
        let rel = inventory::rel_path(&root, &file);
        let in_src = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split_once("/src/"));
        if in_src.is_some() {
            total += inventory::code_lines(&fs::read_to_string(&file).expect("read source"));
        }
    }
    assert!(
        total <= CODE_LINE_CEILING,
        "crates/*/src has {total} code lines, over the ratchet's {CODE_LINE_CEILING}: cut as \
         many, or raise the ceiling and say in CHANGES.md which lines and why"
    );
}

/// The lines strictly between `begin` and `end` in `doc`.
fn block<'a>(doc: &'a str, begin: &str, end: &str) -> Option<&'a str> {
    let (_, rest) = doc.split_once(&format!("{begin}\n"))?;
    Some(rest.split_once(end)?.0)
}

/// The figures block and its numbers, rendered from the committed BENCH
/// files.
fn bench_figures(root: &Path) -> (String, Vec<u64>) {
    let read = |name: &str| fs::read_to_string(root.join(name)).expect("read a BENCH file");
    let (mem, core, par) = (
        read("BENCH_mem.json"),
        read("BENCH_core.json"),
        read("BENCH_parallel.json"),
    );
    inventory::figures(&mem, &core, &par).expect("the BENCH files render")
}

/// DESIGN.md §2's code-line table is the generated one: the block between
/// the `inventory` markers must be what `cargo run -p audit -- inventory`
/// prints for this tree.
#[test]
fn design_inventory_block_is_current() {
    let root = inventory::repo_root();
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let block = block(&design, inventory::BEGIN, inventory::END)
        .expect("DESIGN.md carries the inventory markers");
    let current = inventory::render(&root).expect("walk");
    assert!(
        block == current,
        "DESIGN.md §2's inventory is stale; replace the block between the markers with the \
         inventory block `cargo run -p audit -- inventory` prints:\n{current}"
    );
}

/// README's figures are the committed BENCH files': the block between
/// the `figures` markers must be what `cargo run -p audit -- inventory`
/// renders from them, so regenerating a BENCH file fails this test until
/// the block is pasted in.
#[test]
fn readme_figures_block_is_current() {
    let root = inventory::repo_root();
    let readme = fs::read_to_string(root.join("README.md")).expect("read README.md");
    let block = block(&readme, inventory::FIGURES_BEGIN, inventory::FIGURES_END)
        .expect("README.md carries the figures markers");
    let (current, _) = bench_figures(&root);
    assert!(
        block == current,
        "README's figures block is stale; replace the block between the markers with the \
         figures block `cargo run -p audit -- inventory` prints:\n{current}"
    );
}

/// A figure the block renders is written nowhere else by hand: no number
/// of 1,000 or more among them appears, with or without thousands
/// separators, in README, EXPERIMENTS, the verify skill or DESIGN outside
/// a generated block. CHANGES.md (a log), ROADMAP.md (a dated snapshot)
/// and DESIGN §8's history tables are exempt.
#[test]
fn rendered_figures_are_not_copied_by_hand() {
    let root = inventory::repo_root();
    let (_, shown) = bench_figures(&root);
    let figures: BTreeSet<String> = shown
        .iter()
        .filter(|&&v| v >= 1_000)
        .map(u64::to_string)
        .collect();
    assert!(figures.len() > 10, "sanity: the block renders figures");
    let mut copies = Vec::new();
    for doc in [
        "README.md",
        "EXPERIMENTS.md",
        "DESIGN.md",
        ".claude/skills/verify/SKILL.md",
    ] {
        let text = fs::read_to_string(root.join(doc)).expect("read a doc");
        let mut generated = false;
        let mut history = false;
        for (i, line) in text.lines().enumerate() {
            if line.starts_with("## ") {
                history = doc == "DESIGN.md" && line.starts_with("## 8.");
            }
            if line.starts_with("<!--") && line.contains(":begin") {
                generated = true;
            }
            if !generated && !history {
                let numbers = line.split(|c: char| !c.is_ascii_digit() && c != ',');
                for token in numbers.map(|t| t.trim_matches(',')) {
                    if figures.contains(&token.replace(',', "")) {
                        copies.push(format!("{doc}:{}: {token}", i + 1));
                    }
                }
            }
            if line.contains(":end -->") {
                generated = false;
            }
        }
    }
    assert!(
        copies.is_empty(),
        "figures typed by hand; point at README's figures block instead:\n{}",
        copies.join("\n")
    );
}
