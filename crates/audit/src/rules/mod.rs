//! The lint rules framework: rule registry, scoping, engine driver,
//! allowlist/inline-marker handling, and machine-readable output.
//!
//! Eight rules guard the property the whole reproduction rests on —
//! that a run is a pure function of (config, seed):
//!
//! | rule               | scope                                  | catches |
//! |--------------------|----------------------------------------|---------|
//! | `nondet-collection`| sim-facing crates                      | `HashMap`/`HashSet` (iteration order is host-seeded) |
//! | `wall-clock`       | everywhere but `bench/src/stopwatch.rs`| `Instant::now`, `SystemTime`, `thread_rng` |
//! | `panic-path`       | firmware handler modules               | `.unwrap()` / `.expect(` |
//! | `shared-mutable`   | sim-facing crates, minus `sim::par`    | `static mut`, `Mutex`/`RwLock`, `thread::spawn`, `Arc<..Cell..>` |
//! | `atomic-ordering`  | everywhere                             | `Ordering::Relaxed` |
//! | `panic-reachable`  | graph: reachable from handler fns      | `unwrap`/`expect`/`panic!`-family/indexing |
//! | `float-nondet`     | digest-feeding modules (+ libm methods | `f32`/`f64` tokens; transcendental methods |
//! |                    | in all sim-facing crates)              | whose results are platform-dependent |
//! | `cast-truncation`  | `SimTime`/sequence-number modules      | bare narrowing `as` casts |
//!
//! The first three match on real tokens, so an identifier inside a
//! string or comment never fires them. The other five exist for the
//! parallel-DES era: threads, atomics and shared
//! state are about to enter crates where only `crates/bench` touches
//! them today, and these rules fence where that is allowed to happen
//! (an explicit `sim::par` boundary module) and on what terms (no
//! `Relaxed` atomics, no panic paths reachable from firmware handlers,
//! no floats or silent truncation in digest-feeding state).
//!
//! Escape hatches, in order of preference: fix the code; an inline
//! `// audit:allow(<rule>): <reason>` marker reviewed at the use site;
//! an entry in `crates/audit/allowlist.txt` for pre-existing debt only,
//! where stale entries are errors so the file can only shrink.

pub mod reach;
pub mod tokens;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use xt3_telemetry::quote_json;

use crate::lex::{self, Tok};

/// Identifies one of the eight lint rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// `HashMap`/`HashSet` in a simulation-facing crate.
    NondetCollection,
    /// `Instant::now` / `SystemTime` / `thread_rng` outside the stopwatch.
    WallClock,
    /// `.unwrap()` / `.expect(` directly in firmware handler modules.
    PanicPath,
    /// Shared mutable state primitives outside the `sim::par` boundary.
    SharedMutable,
    /// `Ordering::Relaxed` anywhere.
    AtomicOrdering,
    /// Panic site transitively reachable from a firmware handler.
    PanicReachable,
    /// Float arithmetic in digest-feeding sim state, or libm methods in
    /// sim-facing crates.
    FloatNondet,
    /// Bare narrowing `as` cast in SimTime/sequence-number math.
    CastTruncation,
}

/// All rules, in reporting order.
pub const ALL_RULES: &[RuleId] = &[
    RuleId::NondetCollection,
    RuleId::WallClock,
    RuleId::PanicPath,
    RuleId::SharedMutable,
    RuleId::AtomicOrdering,
    RuleId::PanicReachable,
    RuleId::FloatNondet,
    RuleId::CastTruncation,
];

impl RuleId {
    /// Stable rule name used in allowlist entries, inline markers, and
    /// JSON output.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::NondetCollection => "nondet-collection",
            RuleId::WallClock => "wall-clock",
            RuleId::PanicPath => "panic-path",
            RuleId::SharedMutable => "shared-mutable",
            RuleId::AtomicOrdering => "atomic-ordering",
            RuleId::PanicReachable => "panic-reachable",
            RuleId::FloatNondet => "float-nondet",
            RuleId::CastTruncation => "cast-truncation",
        }
    }

    /// Parse a rule name.
    pub fn from_name(s: &str) -> Option<RuleId> {
        ALL_RULES.iter().copied().find(|r| r.name() == s)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a finding stands with respect to the escape hatches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllowStatus {
    /// A live violation.
    Active,
    /// Suppressed by an inline `audit:allow(rule)` marker on its line.
    Inline,
    /// Suppressed by an `allowlist.txt` entry (pre-existing debt).
    Listed,
}

impl AllowStatus {
    /// Stable string for JSON output.
    pub fn name(self) -> &'static str {
        match self {
            AllowStatus::Active => "active",
            AllowStatus::Inline => "inline-allow",
            AllowStatus::Listed => "allowlist",
        }
    }
}

/// One rule hit at one source line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Path relative to the repository root (forward slashes).
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Extra context (e.g. the call chain for `panic-reachable`).
    pub note: Option<String>,
    /// Whether (and how) the finding is suppressed.
    pub allow: AllowStatus,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.snippet
        )?;
        if let Some(n) = &self.note {
            write!(f, " ({n})")?;
        }
        Ok(())
    }
}

/// One parsed allowlist entry: suppress `rule` for every line of `path`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// The suppressed rule.
    pub rule: RuleId,
    /// Repo-relative path (forward slashes).
    pub path: String,
}

/// Parse allowlist text: `#` comments and blank lines ignored; each
/// entry is `<rule> <path>`. Unknown rule names are ignored rather than
/// errors so a rolled-back rule doesn't brick the build.
pub fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    let mut entries = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(rule), Some(path)) = (parts.next(), parts.next()) else {
            continue;
        };
        if let Some(rule) = RuleId::from_name(rule) {
            entries.push(AllowEntry {
                rule,
                path: path.to_string(),
            });
        }
    }
    entries
}

/// One loaded source file, lexed and `#[cfg(test)]`-marked.
pub struct SourceFile {
    /// Repo-relative path with forward slashes.
    pub rel: String,
    /// Raw line text (for snippets and inline-marker detection).
    pub lines: Vec<String>,
    /// Marked token stream.
    pub toks: Vec<Tok>,
}

impl SourceFile {
    /// The trimmed raw text of 1-based `line` (empty if out of range).
    pub fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// Does the raw line carry an `audit:allow(<rule>)` marker?
    pub fn inline_allow(&self, line: u32, rule: RuleId) -> bool {
        self.lines
            .get(line as usize - 1)
            .is_some_and(|l| l.contains(&format!("audit:allow({})", rule.name())))
    }
}

/// The outcome of an engine run.
#[derive(Default)]
pub struct EngineReport {
    /// Every finding, including suppressed ones (JSON consumers see the
    /// full picture; the allow-status field says which are live).
    pub findings: Vec<Finding>,
    /// Allowlist entries that matched nothing — the debt was paid, so
    /// the entry must be deleted (the allowlist may only shrink).
    pub stale_allowlist: Vec<String>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl EngineReport {
    /// Live (unsuppressed) violations.
    pub fn violations(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.allow == AllowStatus::Active)
    }

    /// No live violations and no stale allowlist entries?
    pub fn is_clean(&self) -> bool {
        self.violations().next().is_none() && self.stale_allowlist.is_empty()
    }

    /// Human-readable summary (one line per live finding; the format is
    /// matched by the CI problem matcher — keep them in sync).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for v in self.violations() {
            let _ = writeln!(out, "violation: {v}");
        }
        for s in &self.stale_allowlist {
            let _ = writeln!(
                out,
                "stale allowlist entry (fix shipped; delete the line): {s}"
            );
        }
        let _ = writeln!(
            out,
            "{} file(s) scanned, {} rule(s), {} violation(s), {} suppressed, {} stale allowlist entries",
            self.files_scanned,
            ALL_RULES.len(),
            self.violations().count(),
            self.findings.len() - self.violations().count(),
            self.stale_allowlist.len()
        );
        out
    }

    /// Machine-readable JSON: one finding object per violation
    /// (including suppressed ones, with their allow-status), plus stale
    /// entries and summary counts. Hand-rolled, on the workspace's one
    /// string escaper.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"audit-lint/1\",\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"rule\": \"{}\", ", f.rule.name()));
            out.push_str(&format!("\"file\": {}, ", quote_json(&f.path)));
            out.push_str(&format!("\"line\": {}, ", f.line));
            out.push_str(&format!("\"snippet\": {}, ", quote_json(&f.snippet)));
            if let Some(n) = &f.note {
                out.push_str(&format!("\"note\": {}, ", quote_json(n)));
            }
            out.push_str(&format!("\"allow_status\": \"{}\"}}", f.allow.name()));
        }
        out.push_str("\n  ],\n  \"stale_allowlist\": [");
        for (i, s) in self.stale_allowlist.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&quote_json(s));
        }
        out.push_str(&format!(
            "],\n  \"files_scanned\": {},\n  \"violations\": {},\n  \"clean\": {}\n}}\n",
            self.files_scanned,
            self.violations().count(),
            self.is_clean()
        ));
        out
    }
}

// ---------------------------------------------------------------------
// Scoping: which rules look at which files.
// ---------------------------------------------------------------------

/// Crates whose `src/` trees are simulation-facing: everything that runs
/// inside (or builds state for) the deterministic event loop.
pub const SIM_FACING_CRATES: &[&str] = &[
    "sim", "seastar", "firmware", "portals", "nal", "topology", "xt3", "mpi",
];

/// The files the `wall-clock` rule does not apply to, by name: the bench
/// harness's stopwatch is the one place host time may be read (it flows
/// into throughput reports, never back into a simulation).
pub const WALL_CLOCK_EXEMPT: &[&str] = &["crates/bench/src/stopwatch.rs"];

/// Firmware modules that run inside event handlers and therefore must
/// never panic: `panic-path`'s scope and `panic-reachable`'s roots.
pub const FIRMWARE_HANDLER_MODULES: &[&str] = &[
    "crates/firmware/src/control.rs",
    "crates/firmware/src/gbn.rs",
    "crates/firmware/src/mailbox.rs",
];

/// Modules whose state feeds the streaming event digest or machine
/// fingerprint. Float arithmetic here couples the digest to the
/// platform's float environment; these stay integer-only. `time.rs`,
/// `faults.rs`, `rng.rs`, `stats.rs` and `cursor.rs` are the sanctioned
/// float boundaries (unit conversion, probability config, reporting).
pub const DIGEST_FEEDING_MODULES: &[&str] = &[
    "crates/sim/src/digest.rs",
    "crates/sim/src/engine.rs",
    "crates/sim/src/queue.rs",
    "crates/sim/src/trace.rs",
    "crates/sim/src/label.rs",
    "crates/sim/src/causal.rs",
];

/// Crate prefixes that are digest-feeding in their entirety: everything
/// the firmware and Portals layers compute lands in traced state.
pub const DIGEST_FEEDING_PREFIXES: &[&str] = &["crates/firmware/src/", "crates/portals/src/"];

/// Reporting modules exempt from the libm-method check (`sqrt` in
/// `std_dev` etc. — outputs never feed a digest).
pub const REPORTING_MODULES: &[&str] = &["crates/sim/src/stats.rs"];

/// Modules doing `SimTime` / sequence-number arithmetic, where a bare
/// narrowing `as` cast silently wraps instead of surfacing overflow.
pub const CAST_SCOPED_MODULES: &[&str] = &[
    "crates/sim/src/time.rs",
    "crates/sim/src/queue.rs",
    "crates/sim/src/digest.rs",
    "crates/firmware/src/gbn.rs",
    "crates/firmware/src/source.rs",
];

/// The one place shared-state primitives will be allowed when parallel
/// DES lands: an explicit boundary module. Nothing else in sim-facing
/// crates may hold a lock, spawn a thread, or share interior
/// mutability.
pub const PAR_BOUNDARY_PREFIXES: &[&str] = &["crates/sim/src/par.rs", "crates/sim/src/par/"];

/// The workspace's crate dependency edges among sim-facing crates
/// (crate dir → crate dirs it depends on). Call-graph edges may only
/// point *along* dependency edges: a name-keyed call in `firmware`
/// can never resolve into `xt3`, because firmware does not depend on
/// it. `tests/lint_gate.rs` asserts this table matches the real
/// `Cargo.toml` manifests so it cannot silently drift.
pub const CRATE_DEPS: &[(&str, &[&str])] = &[
    ("sim", &[]),
    ("seastar", &["sim"]),
    ("portals", &["sim"]),
    ("topology", &["sim"]),
    ("firmware", &["sim", "seastar", "portals"]),
    ("nal", &["sim", "seastar", "portals"]),
    (
        "xt3",
        &["sim", "topology", "seastar", "firmware", "portals", "nal"],
    ),
    ("mpi", &["sim", "portals", "xt3"]),
];

/// The crate directory of a repo-relative path (`crates/<c>/src/..`).
pub fn crate_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    let (krate, tail) = rest.split_once('/')?;
    tail.starts_with("src/").then_some(krate)
}

/// May code in `from_path` call a function defined in `to_path`?
/// True within one crate and along the (transitive) dependency
/// closure; conservatively true when either crate is unknown.
pub fn may_call(from_path: &str, to_path: &str) -> bool {
    let (Some(from), Some(to)) = (crate_of(from_path), crate_of(to_path)) else {
        return true;
    };
    if from == to {
        return true;
    }
    // Transitive closure over CRATE_DEPS, iteratively.
    let mut seen: Vec<&str> = vec![from];
    let mut stack = vec![from];
    while let Some(c) = stack.pop() {
        if let Some((_, deps)) = CRATE_DEPS.iter().find(|(k, _)| *k == c) {
            for d in *deps {
                if *d == to {
                    return true;
                }
                if !seen.contains(d) {
                    seen.push(d);
                    stack.push(d);
                }
            }
        }
    }
    false
}

/// Is `path` inside a sim-facing crate's `src/` tree?
pub fn is_sim_facing(path: &str) -> bool {
    SIM_FACING_CRATES
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/src/")))
}

/// Is `path` part of the `sim::par` boundary module?
pub fn is_par_boundary(path: &str) -> bool {
    PAR_BOUNDARY_PREFIXES.iter().any(|p| path.starts_with(p))
}

/// Is `path` digest-feeding (strict no-float scope)?
pub fn is_digest_feeding(path: &str) -> bool {
    DIGEST_FEEDING_MODULES.contains(&path)
        || DIGEST_FEEDING_PREFIXES.iter().any(|p| path.starts_with(p))
}

// ---------------------------------------------------------------------
// Engine driver.
// ---------------------------------------------------------------------

/// Run the full engine against the repository rooted at `root`,
/// applying `crates/audit/allowlist.txt` (missing file = empty).
pub fn run(root: &Path) -> io::Result<EngineReport> {
    let allowlist_path = root.join("crates/audit/allowlist.txt");
    let allowlist = match fs::read_to_string(&allowlist_path) {
        Ok(s) => parse_allowlist(&s),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    run_with_allowlist(root, &allowlist)
}

/// As [`run`], with an explicit allowlist (tests use this to exercise
/// stale-entry semantics without touching the real file).
pub fn run_with_allowlist(root: &Path, allowlist: &[AllowEntry]) -> io::Result<EngineReport> {
    let mut files = Vec::new();
    for file in source_files(root)? {
        let text = fs::read_to_string(&file)?;
        files.push(SourceFile {
            rel: rel_path(root, &file),
            lines: text.lines().map(str::to_string).collect(),
            toks: lex::lex_marked(&text),
        });
    }
    Ok(run_on_files(&files, allowlist))
}

/// All `.rs` files the lints scan: everything under `crates/`, `src/` and
/// `tests/`, minus `target`, `vendor` (offline stand-ins for external
/// crates — not our code) and `fixtures` directories, sorted.
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
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `fixtures` holds deliberate rule-bait for the fixture
            // corpus tests; it is scanned by those tests at synthetic
            // paths, never as part of the real tree.
            if name == "target" || name == ".git" || name == "vendor" || name == "fixtures" {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
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

/// The repository root, resolved from this crate's manifest directory.
/// Works both under `cargo run -p audit` and inside `#[test]`s.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Core engine: token rules per file, then the graph rule, then the
/// escape hatches. Separated from I/O so fixtures can drive it with
/// in-memory files.
pub fn run_on_files(files: &[SourceFile], allowlist: &[AllowEntry]) -> EngineReport {
    let mut report = EngineReport {
        files_scanned: files.len(),
        ..Default::default()
    };
    for f in files {
        tokens::scan(f, &mut report.findings);
    }
    reach::scan(files, &mut report.findings);

    // Escape hatches: inline markers first (use-site, reviewed), then
    // the allowlist (pre-existing debt), tracking which entries earned
    // their keep.
    let mut used = vec![false; allowlist.len()];
    for f in &mut report.findings {
        let src = files.iter().find(|s| s.rel == f.path);
        if src.is_some_and(|s| s.inline_allow(f.line, f.rule)) {
            f.allow = AllowStatus::Inline;
            continue;
        }
        for (i, e) in allowlist.iter().enumerate() {
            if e.rule == f.rule && e.path == f.path {
                used[i] = true;
                f.allow = AllowStatus::Listed;
            }
        }
    }
    for (i, e) in allowlist.iter().enumerate() {
        if !used[i] {
            report
                .stale_allowlist
                .push(format!("{} {}", e.rule.name(), e.path));
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    report
}
