//! The lint half of the audit, as tests: the shipped tree must be clean
//! under both the legacy text pass and the token-graph engine, and both
//! must actually catch seeded violations (so a silent scanner
//! regression can't fake a clean tree).

use std::fs;
use std::path::PathBuf;

use audit::inventory;
use audit::lint::{self, AllowEntry, Rule};
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
fn shipped_tree_is_clean() {
    let report = lint::run(&lint::repo_root()).expect("lint run");
    assert!(
        report.is_clean(),
        "determinism lint must pass on the shipped tree:\n{}",
        report.render()
    );
    assert!(
        report.files_scanned > 50,
        "sanity: the scanner must actually visit the tree (saw {})",
        report.files_scanned
    );
}

#[test]
fn shipped_tree_is_clean_under_the_engine() {
    let report = rules::run(&lint::repo_root()).expect("engine run");
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
    let root = lint::repo_root();
    let mut seam_files = Vec::new();
    let mut seen = 0;
    for file in lint::source_files(&root).expect("walk") {
        let rel = lint::rel_path(&root, &file);
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
    let root = lint::repo_root();
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
    // The 8-rule engine keeps the legacy shrink-only allowlist
    // semantics: a matching entry suppresses (but still reports) the
    // finding, and an entry matching nothing is an error.
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
    let root = lint::repo_root();
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

#[test]
fn seeded_hashmap_violation_is_caught() {
    let repo = ScratchRepo::new("hashmap");
    repo.write(
        "crates/sim/src/bad.rs",
        "use std::collections::HashMap;\npub fn f() -> HashMap<u32, u32> { HashMap::new() }\n",
    );
    let report = lint::run(&repo.root).expect("lint run");
    assert_eq!(report.violations.len(), 2);
    assert!(report
        .violations
        .iter()
        .all(|v| v.rule == Rule::NondetCollection));
    assert_eq!(report.violations[0].path, "crates/sim/src/bad.rs");
    assert_eq!(report.violations[0].line, 1);
}

#[test]
fn seeded_wall_clock_violation_is_caught() {
    let repo = ScratchRepo::new("wallclock");
    repo.write(
        "crates/xt3/src/bad.rs",
        "pub fn f() -> std::time::Instant { std::time::Instant::now() }\n",
    );
    let report = lint::run(&repo.root).expect("lint run");
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violations[0].rule, Rule::WallClock);
}

#[test]
fn seeded_firmware_unwrap_is_caught_outside_tests_only() {
    let repo = ScratchRepo::new("panic");
    repo.write(
        "crates/firmware/src/control.rs",
        "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
         #[cfg(test)]\nmod tests {\n    fn g(x: Option<u32>) -> u32 { x.unwrap() }\n}\n",
    );
    let report = lint::run(&repo.root).expect("lint run");
    assert_eq!(report.violations.len(), 1, "{}", report.render());
    assert_eq!(report.violations[0].rule, Rule::PanicPath);
    assert_eq!(report.violations[0].line, 1);
}

#[test]
fn allowlist_suppresses_and_goes_stale() {
    let repo = ScratchRepo::new("allow");
    repo.write("crates/mpi/src/debt.rs", "use std::collections::HashSet;\n");
    repo.write("crates/portals/src/clean.rs", "pub fn f() {}\n");

    let allow = vec![
        // Covers the real violation — suppressed.
        AllowEntry {
            rule: Rule::NondetCollection,
            path: "crates/mpi/src/debt.rs".to_string(),
        },
        // Covers nothing — must be reported stale so the file shrinks.
        AllowEntry {
            rule: Rule::NondetCollection,
            path: "crates/portals/src/clean.rs".to_string(),
        },
    ];
    let report = lint::run_with_allowlist(&repo.root, &allow).expect("lint run");
    assert!(report.violations.is_empty(), "{}", report.render());
    assert_eq!(report.stale_allowlist.len(), 1);
    assert!(report.stale_allowlist[0].contains("clean.rs"));
    assert!(!report.is_clean(), "stale entries are errors");
}

#[test]
fn inline_marker_must_name_the_right_rule() {
    let repo = ScratchRepo::new("marker");
    repo.write(
        "crates/nal/src/x.rs",
        "use std::collections::HashMap; // audit:allow(nondet-collection): FFI mirror of host table\n\
         use std::collections::HashSet; // audit:allow(wall-clock): wrong rule name\n",
    );
    let report = lint::run(&repo.root).expect("lint run");
    assert_eq!(report.violations.len(), 1, "{}", report.render());
    assert_eq!(report.violations[0].line, 2);
}
