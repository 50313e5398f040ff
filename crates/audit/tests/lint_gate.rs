//! The lint half of the audit, as tests: the shipped tree must be clean
//! under the token-graph engine, the engine's escape hatches must keep
//! their shrink-only semantics, and the tree-shape checks that ride on
//! the same walker (file sizes, the fabric seam, the inventory) hold.
//! That the engine actually catches seeded violations is the fixture
//! corpus's job (`rule_fixtures.rs`).

use std::fs;
use std::path::PathBuf;

use audit::inventory;
use audit::rules::{self, AllowStatus, RuleId};

/// A scratch repo-shaped directory, cleaned up on drop.
struct ScratchRepo {
    root: PathBuf,
}

impl ScratchRepo {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("audit-lint-{}-{}", tag, std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("scratch root");
        ScratchRepo { root }
    }

    fn write(&self, rel: &str, text: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(path, text).expect("write");
    }
}

impl Drop for ScratchRepo {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn shipped_tree_is_clean_under_the_engine() {
    let report = rules::run(&rules::repo_root()).expect("engine run");
    assert!(
        report.is_clean(),
        "the 8-rule engine must pass on the shipped tree:\n{}",
        report.render()
    );
    assert!(
        report.files_scanned > 50,
        "sanity: the engine must actually visit the tree (saw {})",
        report.files_scanned
    );
}

/// ROADMAP item 4, held in place: `xt3::machine` is a module per job, so
/// no file of the crate may grow back past 800 lines, and the fabric
/// seam — how a send reaches the fabric, `NetMode` — stays spelled out in
/// exactly one of them.
#[test]
fn xt3_files_stay_small_and_the_fabric_seam_stays_in_one() {
    let root = rules::repo_root();
    let mut seam_files = Vec::new();
    let mut seen = 0;
    for file in rules::source_files(&root).expect("walk") {
        let rel = rules::rel_path(&root, &file);
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

/// DESIGN.md §2's code-line table is the generated one: the block between
/// the `inventory` markers must be what `cargo run -p audit -- inventory`
/// prints for this tree.
#[test]
fn design_inventory_block_is_current() {
    let root = rules::repo_root();
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let block = design
        .split_once(&format!("{}\n", inventory::BEGIN))
        .and_then(|(_, rest)| rest.split_once(inventory::END))
        .map(|(block, _)| block)
        .expect("DESIGN.md carries the inventory markers");
    let current = inventory::render(&root).expect("walk");
    assert!(
        block == current,
        "DESIGN.md §2's inventory is stale; replace the block between the markers with the \
         output of `cargo run -p audit -- inventory`:\n{current}"
    );
}

#[test]
fn engine_allowlist_suppresses_and_goes_stale() {
    // The allowlist is shrink-only: a matching entry suppresses (but
    // still reports) the finding, and an entry matching nothing is an
    // error.
    let repo = ScratchRepo::new("engine-allow");
    repo.write(
        "crates/sim/src/time.rs",
        "pub fn f(x: u64) -> u32 { x as u32 }\n",
    );
    repo.write("crates/portals/src/clean.rs", "pub fn f() {}\n");

    let allow = vec![
        rules::AllowEntry {
            rule: RuleId::CastTruncation,
            path: "crates/sim/src/time.rs".to_string(),
        },
        rules::AllowEntry {
            rule: RuleId::CastTruncation,
            path: "crates/portals/src/clean.rs".to_string(),
        },
    ];
    let report = rules::run_with_allowlist(&repo.root, &allow).expect("engine run");
    assert_eq!(report.violations().count(), 0, "{}", report.render());
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == RuleId::CastTruncation && f.allow == AllowStatus::Listed));
    assert_eq!(report.stale_allowlist.len(), 1);
    assert!(report.stale_allowlist[0].contains("clean.rs"));
    assert!(!report.is_clean(), "stale entries are errors");
}

#[test]
fn allowlist_parses_entries_and_skips_comments() {
    let entries = rules::parse_allowlist(
        "# comment\n\nnondet-collection crates/sim/src/x.rs\n  panic-reachable crates/mpi/src/y.rs  \nbogus-rule z.rs\nwall-clock\n",
    );
    assert_eq!(
        entries,
        [
            rules::AllowEntry {
                rule: RuleId::NondetCollection,
                path: "crates/sim/src/x.rs".to_string(),
            },
            rules::AllowEntry {
                rule: RuleId::PanicReachable,
                path: "crates/mpi/src/y.rs".to_string(),
            },
        ]
    );
}

#[test]
fn vendor_target_and_fixtures_are_never_scanned() {
    // A wall-clock read fires in any scanned file but the stopwatch, so
    // each of these would be a violation if the walker entered it.
    let repo = ScratchRepo::new("engine-walk");
    let clock = "pub fn f() { let _ = std::time::Instant::now(); }\n";
    for rel in [
        "vendor/proptest/src/lib.rs",
        "crates/bench/vendor/shim.rs",
        "crates/bench/target/debug/build/out.rs",
        "crates/audit/tests/fixtures/wall-clock/pos.rs",
        "tests/vendor/x.rs",
    ] {
        repo.write(rel, clock);
    }
    repo.write("crates/bench/src/lib.rs", "pub fn f() {}\n");
    let report = rules::run_with_allowlist(&repo.root, &[]).expect("engine run");
    assert_eq!(report.files_scanned, 1, "{}", report.render());
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn engine_inline_marker_must_name_the_right_rule() {
    let repo = ScratchRepo::new("engine-marker");
    repo.write(
        "crates/sim/src/engine.rs",
        "pub fn a(x: f64) -> f64 { x } // audit:allow(float-nondet): host-only scale factor\n\
         pub fn b(x: f64) -> f64 { x } // audit:allow(cast-truncation): wrong rule name\n",
    );
    let report = rules::run_with_allowlist(&repo.root, &[]).expect("engine run");
    let live: Vec<u32> = report.violations().map(|f| f.line).collect();
    assert_eq!(live, vec![2, 2], "{}", report.render());
    assert!(report
        .findings
        .iter()
        .any(|f| f.line == 1 && f.allow == AllowStatus::Inline));
}

#[test]
fn engine_json_names_every_finding() {
    let repo = ScratchRepo::new("engine-json");
    repo.write(
        "crates/sim/src/bad.rs",
        "use std::collections::HashMap; // audit:allow(nondet-collection): seeded\nuse std::sync::Mutex;\n",
    );
    let report = rules::run_with_allowlist(&repo.root, &[]).expect("engine run");
    let json = report.render_json();
    assert!(json.contains("\"schema\": \"audit-lint/1\""));
    assert!(json.contains("\"rule\": \"nondet-collection\""));
    assert!(json.contains("\"allow_status\": \"inline-allow\""));
    assert!(json.contains("\"rule\": \"shared-mutable\""));
    assert!(json.contains("\"allow_status\": \"active\""));
    assert!(json.contains("\"clean\": false"));
}

#[test]
fn crate_deps_table_matches_the_manifests() {
    // The graph rule constrains call edges along CRATE_DEPS; if the table
    // drifts from the real manifests it silently over- or under-links.
    let root = rules::repo_root();
    for (krate, deps) in rules::CRATE_DEPS {
        let manifest = fs::read_to_string(root.join(format!("crates/{krate}/Cargo.toml")))
            .unwrap_or_else(|e| panic!("crates/{krate}/Cargo.toml: {e}"));
        // Only [dependencies] counts: dev-dependencies are test-only and
        // test tokens never enter the graph.
        let dep_section: Vec<&str> = manifest
            .lines()
            .skip_while(|l| l.trim() != "[dependencies]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .collect();
        for (other, _) in rules::CRATE_DEPS {
            if other == krate {
                continue;
            }
            // Workspace member package names are xt3-<dir> (sim is
            // xt3-sim, xt3 itself is xt3-node).
            let pkg = match *other {
                "xt3" => "xt3-node".to_string(),
                o => format!("xt3-{o}"),
            };
            let declared = dep_section.iter().any(|l| {
                let l = l.trim_start();
                l.starts_with(&format!("{pkg}.workspace")) || l.starts_with(&format!("{pkg} ="))
            });
            let listed = deps.contains(other);
            assert_eq!(
                declared, listed,
                "CRATE_DEPS drift: {krate} -> {other} (manifest says {declared}, table says {listed})"
            );
        }
    }
}
