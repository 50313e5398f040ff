//! Repo-specific determinism lints.
//!
//! Three rules guard the property the whole reproduction rests on — that
//! a simulation run is a pure function of its configuration and seed:
//!
//! * `nondet-collection` — no `HashMap`/`HashSet` in simulation-facing
//!   crates. `std` hash maps randomize their iteration order per process
//!   (SipHash keyed from the OS), so any model state iterated out of one
//!   silently couples event order to the host. Use `BTreeMap`/`BTreeSet`.
//! * `wall-clock` — no `Instant::now`, `SystemTime` or `thread_rng`
//!   anywhere except the bench harness's stopwatch
//!   ([`WALL_CLOCK_EXEMPT`]; host-side throughput reporting). Simulated
//!   time comes from `SimTime`; randomness from the seeded `SimRng`.
//! * `panic-path` — no `.unwrap()`/`.expect(` in the firmware event
//!   handler modules (`control.rs`, `gbn.rs`, `mailbox.rs`). A malformed
//!   command must surface as a typed `FwError` the machine can turn into
//!   a node fault, not abort the whole simulation.
//!
//! This module is the *legacy text-level pass* (comments, strings and
//! `#[cfg(test)]` modules stripped line by line). The shipped linter is
//! the token-based engine in [`crate::rules`], which re-implements
//! these three rules on real tokens and adds five concurrency-safety
//! rules for the parallel-DES era. The text pass is kept (and its
//! historical raw-string and nested-block-comment stripping bugs fixed)
//! as an independent implementation: `tests/lexer_differential.rs`
//! proves it agrees with the lexer on every file in the tree, so a bug
//! in either stripping strategy surfaces as a diff instead of a silent
//! false negative. The file walker and allowlist live here and are
//! shared with the engine.
//!
//! Escape hatches, in order of preference:
//!
//! 1. Fix the code (always possible for new code).
//! 2. An inline marker on the offending line:
//!    `// audit:allow(<rule>): <reason>` — visible at the use site,
//!    reviewed with the code around it.
//! 3. An entry in `crates/audit/allowlist.txt` — for pre-existing debt
//!    only. Entries that no longer match a violation are **errors**
//!    (`stale`), so the file can only shrink, never grow.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The three lint rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `HashMap`/`HashSet` in a simulation-facing crate.
    NondetCollection,
    /// `Instant::now` / `SystemTime` / `thread_rng` outside the stopwatch.
    WallClock,
    /// `.unwrap()` / `.expect(` in firmware event-handler modules.
    PanicPath,
}

impl Rule {
    /// Stable rule name used in allowlist entries and inline markers.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NondetCollection => "nondet-collection",
            Rule::WallClock => "wall-clock",
            Rule::PanicPath => "panic-path",
        }
    }

    /// Parse a rule name (allowlist entries).
    pub fn from_name(s: &str) -> Option<Rule> {
        match s {
            "nondet-collection" => Some(Rule::NondetCollection),
            "wall-clock" => Some(Rule::WallClock),
            "panic-path" => Some(Rule::PanicPath),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule hit at one source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// Path relative to the repository root (forward slashes).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.snippet
        )
    }
}

/// The outcome of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Violations not covered by the allowlist or an inline marker.
    pub violations: Vec<Violation>,
    /// Allowlist entries that matched nothing — the debt was paid, so the
    /// entry must be deleted. Stale entries are errors by design: the
    /// allowlist may only shrink.
    pub stale_allowlist: Vec<String>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// No violations and no stale allowlist entries?
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.stale_allowlist.is_empty()
    }

    /// Human-readable summary (one line per finding).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for v in &self.violations {
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
            "{} file(s) scanned, {} violation(s), {} stale allowlist entries",
            self.files_scanned,
            self.violations.len(),
            self.stale_allowlist.len()
        );
        out
    }
}

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
/// never panic (relative to the repo root).
pub const FIRMWARE_HANDLER_MODULES: &[&str] = &[
    "crates/firmware/src/control.rs",
    "crates/firmware/src/gbn.rs",
    "crates/firmware/src/mailbox.rs",
];

/// Run all lints against the repository rooted at `root`, applying the
/// allowlist at `crates/audit/allowlist.txt` (missing file = empty).
pub fn run(root: &Path) -> io::Result<LintReport> {
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
pub fn run_with_allowlist(root: &Path, allowlist: &[AllowEntry]) -> io::Result<LintReport> {
    let mut report = LintReport::default();
    let mut raw = Vec::new();

    for file in source_files(root)? {
        let rel = rel_path(root, &file);
        let rules = rules_for(&rel);
        if rules.is_empty() {
            continue;
        }
        report.files_scanned += 1;
        let text = fs::read_to_string(&file)?;
        scan_file(&rel, &text, &rules, &mut raw);
    }

    // Partition raw hits through the allowlist, tracking which entries
    // were actually needed.
    let mut used = vec![false; allowlist.len()];
    for v in raw {
        let mut allowed = false;
        for (i, e) in allowlist.iter().enumerate() {
            if e.rule == v.rule && e.path == v.path {
                used[i] = true;
                allowed = true;
            }
        }
        if !allowed {
            report.violations.push(v);
        }
    }
    for (i, e) in allowlist.iter().enumerate() {
        if !used[i] {
            report
                .stale_allowlist
                .push(format!("{} {}", e.rule.name(), e.path));
        }
    }
    Ok(report)
}

/// One parsed allowlist entry: suppress `rule` for every line of `path`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// The suppressed rule.
    pub rule: Rule,
    /// Repo-relative path (forward slashes).
    pub path: String,
}

/// Parse the allowlist text: `#` comments and blank lines ignored; each
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
        if let Some(rule) = Rule::from_name(rule) {
            entries.push(AllowEntry {
                rule,
                path: path.to_string(),
            });
        }
    }
    entries
}

/// Which rules apply to the file at repo-relative `path`?
fn rules_for(path: &str) -> Vec<Rule> {
    let mut rules = Vec::new();
    if !path.ends_with(".rs") {
        return rules;
    }
    // vendor/ holds offline stand-ins for external crates — not our code.
    if path.starts_with("vendor/") || path.starts_with("target/") {
        return rules;
    }

    let sim_facing = SIM_FACING_CRATES
        .iter()
        .any(|c| path.starts_with(&format!("crates/{c}/src/")));
    if sim_facing {
        rules.push(Rule::NondetCollection);
    }

    if !WALL_CLOCK_EXEMPT.contains(&path) {
        rules.push(Rule::WallClock);
    }

    if FIRMWARE_HANDLER_MODULES.contains(&path) {
        rules.push(Rule::PanicPath);
    }
    rules
}

/// Scan one file's text for the given rules, appending hits to `out`.
/// Lines inside `#[cfg(test)]` modules, comments and string literals are
/// ignored; a line carrying `audit:allow(<rule>)` is exempt from that
/// rule.
fn scan_file(rel: &str, text: &str, rules: &[Rule], out: &mut Vec<Violation>) {
    let mut stripper = Stripper::default();
    let mut skip = TestModSkipper::default();
    for (idx, raw_line) in text.lines().enumerate() {
        // The inline marker lives in a comment, so look for it on the raw
        // line before stripping.
        let allow = |rule: Rule| raw_line.contains(&format!("audit:allow({})", rule.name()));
        let code = stripper.strip_line(raw_line);
        if skip.feed(&code) {
            continue;
        }
        for &rule in rules {
            if allow(rule) {
                continue;
            }
            let hit = match rule {
                Rule::NondetCollection => code.contains("HashMap") || code.contains("HashSet"),
                Rule::WallClock => {
                    code.contains("Instant::now")
                        || code.contains("SystemTime")
                        || code.contains("thread_rng")
                }
                Rule::PanicPath => code.contains(".unwrap()") || code.contains(".expect("),
            };
            if hit {
                out.push(Violation {
                    rule,
                    path: rel.to_string(),
                    line: idx + 1,
                    snippet: raw_line.trim().to_string(),
                });
            }
        }
    }
}

/// Removes comments and the contents of string/char literals from
/// source lines, carrying state across lines.
///
/// Historically this pass had two stripping bugs the lexer
/// ([`crate::lex`]) does not: raw strings (`r#"..."#`) were lexed as an
/// identifier plus a cooked string (so a `"` or `\` inside leaked
/// contents into the "code" channel), and nested block comments ended
/// at the *first* `*/`. Both are fixed here — the stripper now carries
/// a comment depth and raw-string hash count across lines, and
/// canonicalizes every string flavor to `""` and every char literal to
/// `''` — and `tests/lexer_differential.rs` proves the two passes agree
/// on every file in the tree.
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
/// replaced by `""`, char literals by `''`, comments removed). This is
/// the legacy text pass's view of the file; the differential test
/// compares it line-by-line against the lexer's.
pub fn strip_text(text: &str) -> Vec<String> {
    let mut stripper = Stripper::default();
    text.lines().map(|l| stripper.strip_line(l)).collect()
}

/// Tracks `#[cfg(test)] mod ... { ... }` regions via brace counting so
/// test-only code (where `unwrap` and friends are idiomatic) is skipped.
#[derive(Debug, Default)]
struct TestModSkipper {
    /// Saw `#[cfg(test)]`, waiting for the item's opening brace.
    pending: bool,
    /// Brace depth inside the skipped region (0 = not skipping).
    depth: usize,
    /// Entered the region (so depth returning to 0 ends it).
    active: bool,
}

impl TestModSkipper {
    /// Feed one stripped line; returns true if the line is inside (or
    /// opens) a `#[cfg(test)]` region.
    fn feed(&mut self, code: &str) -> bool {
        if self.active {
            self.apply_braces(code);
            if self.depth == 0 {
                self.active = false;
            }
            return true;
        }
        if self.pending {
            // Attribute seen; the item follows (possibly after more
            // attributes). Once a brace opens, the skipped region starts.
            if code.contains('{') {
                self.apply_braces(code);
                self.pending = false;
                if self.depth > 0 {
                    self.active = true;
                } // else the item opened and closed on one line
                return true;
            }
            // A lone `;` ends a braceless item (e.g. `#[cfg(test)] use ..;`).
            if code.contains(';') {
                self.pending = false;
            }
            return true;
        }
        if code.contains("#[cfg(test)]") {
            self.pending = true;
            // Handle `#[cfg(test)] mod t { .. }` on one line.
            if let Some(at) = code.find("#[cfg(test)]") {
                let rest = &code[at..];
                if rest.contains('{') {
                    self.apply_braces(rest);
                    self.pending = false;
                    if self.depth > 0 {
                        self.active = true;
                    }
                }
            }
            return true;
        }
        false
    }

    fn apply_braces(&mut self, code: &str) {
        for c in code.chars() {
            match c {
                '{' => self.depth += 1,
                '}' => self.depth = self.depth.saturating_sub(1),
                _ => {}
            }
        }
    }
}

/// All `.rs` files under the trees the lints care about.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_str(rel: &str, text: &str, rules: &[Rule]) -> Vec<Violation> {
        let mut out = Vec::new();
        scan_file(rel, text, rules, &mut out);
        out
    }

    #[test]
    fn flags_hashmap_in_code() {
        let v = scan_str(
            "crates/sim/src/x.rs",
            "use std::collections::HashMap;\nlet m: HashMap<u32, u32> = HashMap::new();\n",
            &[Rule::NondetCollection],
        );
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn comments_and_strings_do_not_count() {
        let v = scan_str(
            "crates/sim/src/x.rs",
            "// HashMap is banned\nlet s = \"HashMap\";\n/* HashSet\nHashMap */\n",
            &[Rule::NondetCollection],
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn inline_marker_exempts_one_rule_on_one_line() {
        let text = "let t = Instant::now(); // audit:allow(wall-clock): host report\nlet u = Instant::now();\n";
        let v = scan_str("crates/bench/src/lib.rs", text, &[Rule::WallClock]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn cfg_test_modules_are_skipped() {
        let text = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); }\n}\nfn h(y: Option<u32>) { y.unwrap(); }\n";
        let v = scan_str("crates/firmware/src/control.rs", text, &[Rule::PanicPath]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 6);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        // A lifetime's `'` must not swallow the rest of the line.
        let v = scan_str(
            "crates/sim/src/x.rs",
            "fn f<'a>(x: &'a str) -> HashMap<u32, u32> {}\n",
            &[Rule::NondetCollection],
        );
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn rules_for_scopes_correctly() {
        assert!(rules_for("crates/sim/src/engine.rs").contains(&Rule::NondetCollection));
        assert!(!rules_for("crates/bench/src/lib.rs").contains(&Rule::NondetCollection));
        assert!(rules_for("crates/bench/src/lib.rs").contains(&Rule::WallClock));
        assert!(rules_for("crates/bench/src/bin/xt3-bench.rs").contains(&Rule::WallClock));
        assert!(rules_for("crates/bench/src/bin/mem_footprint.rs").contains(&Rule::WallClock));
        assert!(!rules_for("crates/bench/src/stopwatch.rs").contains(&Rule::WallClock));
        assert!(rules_for("crates/firmware/src/gbn.rs").contains(&Rule::PanicPath));
        assert!(!rules_for("crates/firmware/src/pool.rs").contains(&Rule::PanicPath));
        assert!(rules_for("vendor/proptest/src/lib.rs").is_empty());
    }

    #[test]
    fn raw_strings_are_fully_stripped() {
        // The historical bug: `r#"..."#` was lexed as ident + cooked
        // string, so a `"` inside leaked contents into the code channel.
        let v = scan_str(
            "crates/sim/src/x.rs",
            "let x = r#\"say \"HashMap\" loudly\"#;\nlet y = r\"\\\"; let z: u32 = 0;\n",
            &[Rule::NondetCollection],
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn multiline_raw_string_carries_across_lines() {
        let stripped = strip_text("let x = r#\"line one\nHashMap line two\"#;\nlet done = 1;\n");
        assert_eq!(stripped[0], "let x = \"\"");
        assert_eq!(stripped[1], ";");
        assert_eq!(stripped[2], "let done = 1;");
    }

    #[test]
    fn nested_block_comments_strip_to_the_outer_close() {
        let v = scan_str(
            "crates/sim/src/x.rs",
            "/* outer /* inner */ still comment: HashMap */ let a = 1;\n",
            &[Rule::NondetCollection],
        );
        assert!(v.is_empty(), "{v:?}");
        let stripped = strip_text("/* a /* b */ c */ code");
        assert_eq!(stripped[0].trim(), "code");
    }

    #[test]
    fn escaped_char_literals_close_at_their_own_quote() {
        // '\\' — the escaped char is itself a backslash; found by the
        // stripper/lexer differential test (both implementations shared
        // the bug of re-treating it as an escape opener).
        let stripped = strip_text(r"let c = '\\'; let after = 1;");
        assert_eq!(stripped[0], "let c = ''; let after = 1;");
        let stripped = strip_text(r"let c = '\''; let after = 1;");
        assert_eq!(stripped[0], "let c = ''; let after = 1;");
    }

    #[test]
    fn byte_strings_and_raw_idents_canonicalize() {
        let stripped = strip_text("let a = b\"HashMap\"; let b = b'x'; let r#match = 1;");
        assert_eq!(stripped[0], "let a = \"\"; let b = ''; let match = 1;");
    }

    #[test]
    fn allowlist_parses_entries_and_skips_comments() {
        let entries = parse_allowlist(
            "# comment\n\nnondet-collection crates/sim/src/x.rs\nwall-clock crates/mpi/src/y.rs\nbogus-rule z.rs\n",
        );
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].rule, Rule::NondetCollection);
        assert_eq!(entries[0].path, "crates/sim/src/x.rs");
    }
}
