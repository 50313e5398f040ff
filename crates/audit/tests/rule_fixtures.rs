//! The fixture corpus: every rule ships a true positive (must fire), a
//! near-miss (must stay silent), and an inline-allow suppression (must
//! be suppressed, not active).
//!
//! Fixture sources live under `tests/fixtures/<rule>/` — the shared
//! file walker skips `fixtures` directories, so the true positives
//! never leak into the shipped-tree lint. The harness maps each file to
//! a synthetic repo-relative path inside the rule's scope and drives
//! the engine in memory via [`audit::rules::run_on_files`].

use audit::lex;
use audit::rules::{self, AllowStatus, RuleId, SourceFile};

/// One rule's corpus: fixture sources plus where in the synthetic repo
/// each lands.
struct Case {
    rule: RuleId,
    /// Synthetic repo-relative path for `pos` and `allowed`.
    target: &'static str,
    /// Synthetic path for `near` — usually `target`, but some
    /// near-misses exercise the scope boundary itself (e.g. floats in
    /// the reporting module).
    near_target: &'static str,
    pos: &'static str,
    near: &'static str,
    allowed: &'static str,
    /// Extra (path, source) files every scenario needs — e.g. the
    /// handler-module driver that makes a fixture fn reachable.
    extra: &'static [(&'static str, &'static str)],
}

/// Handler-module driver for the `panic-reachable` corpus: the root the
/// graph walk starts from, calling into the fixture file.
const REACH_DRIVER: &str =
    "pub fn drive(deposits: &[u32]) -> u32 {\n    fixture_entry(deposits, 0)\n}\n";

const CASES: &[Case] = &[
    Case {
        rule: RuleId::NondetCollection,
        target: "crates/sim/src/fixture.rs",
        near_target: "crates/sim/src/fixture.rs",
        pos: include_str!("fixtures/nondet-collection/pos.rs"),
        near: include_str!("fixtures/nondet-collection/near.rs"),
        allowed: include_str!("fixtures/nondet-collection/allowed.rs"),
        extra: &[],
    },
    Case {
        rule: RuleId::WallClock,
        target: "crates/sim/src/fixture.rs",
        near_target: "crates/sim/src/fixture.rs",
        pos: include_str!("fixtures/wall-clock/pos.rs"),
        near: include_str!("fixtures/wall-clock/near.rs"),
        allowed: include_str!("fixtures/wall-clock/allowed.rs"),
        extra: &[],
    },
    Case {
        rule: RuleId::PanicPath,
        target: "crates/firmware/src/control.rs",
        near_target: "crates/firmware/src/control.rs",
        pos: include_str!("fixtures/panic-path/pos.rs"),
        near: include_str!("fixtures/panic-path/near.rs"),
        allowed: include_str!("fixtures/panic-path/allowed.rs"),
        extra: &[],
    },
    Case {
        rule: RuleId::SharedMutable,
        target: "crates/sim/src/fixture.rs",
        near_target: "crates/sim/src/fixture.rs",
        pos: include_str!("fixtures/shared-mutable/pos.rs"),
        near: include_str!("fixtures/shared-mutable/near.rs"),
        allowed: include_str!("fixtures/shared-mutable/allowed.rs"),
        extra: &[],
    },
    Case {
        // A non-sim-facing path on purpose: the rule scopes everywhere.
        rule: RuleId::AtomicOrdering,
        target: "crates/bench/src/lib.rs",
        near_target: "crates/bench/src/lib.rs",
        pos: include_str!("fixtures/atomic-ordering/pos.rs"),
        near: include_str!("fixtures/atomic-ordering/near.rs"),
        allowed: include_str!("fixtures/atomic-ordering/allowed.rs"),
        extra: &[],
    },
    Case {
        rule: RuleId::PanicReachable,
        target: "crates/firmware/src/helpers.rs",
        near_target: "crates/firmware/src/helpers.rs",
        pos: include_str!("fixtures/panic-reachable/pos.rs"),
        near: include_str!("fixtures/panic-reachable/near.rs"),
        allowed: include_str!("fixtures/panic-reachable/allowed.rs"),
        extra: &[("crates/firmware/src/control.rs", REACH_DRIVER)],
    },
    Case {
        // Positive in a digest-feeding module; the near-miss sits in the
        // reporting module, where floats and libm stay legal.
        rule: RuleId::FloatNondet,
        target: "crates/sim/src/engine.rs",
        near_target: "crates/sim/src/stats.rs",
        pos: include_str!("fixtures/float-nondet/pos.rs"),
        near: include_str!("fixtures/float-nondet/near.rs"),
        allowed: include_str!("fixtures/float-nondet/allowed.rs"),
        extra: &[],
    },
    Case {
        rule: RuleId::CastTruncation,
        target: "crates/sim/src/time.rs",
        near_target: "crates/sim/src/time.rs",
        pos: include_str!("fixtures/cast-truncation/pos.rs"),
        near: include_str!("fixtures/cast-truncation/near.rs"),
        allowed: include_str!("fixtures/cast-truncation/allowed.rs"),
        extra: &[],
    },
];

fn source(rel: &str, text: &str) -> SourceFile {
    SourceFile {
        rel: rel.to_string(),
        lines: text.lines().map(str::to_string).collect(),
        toks: lex::lex_marked(text),
    }
}

fn run(case: &Case, target: &str, fixture: &str) -> rules::EngineReport {
    let mut files = vec![source(target, fixture)];
    for (rel, text) in case.extra {
        files.push(source(rel, text));
    }
    rules::run_on_files(&files, &[])
}

#[test]
fn corpus_covers_every_rule() {
    let covered: Vec<RuleId> = CASES.iter().map(|c| c.rule).collect();
    assert_eq!(
        covered,
        rules::ALL_RULES.to_vec(),
        "one corpus entry per rule, in registry order"
    );
}

#[test]
fn true_positives_fire_their_rule() {
    for case in CASES {
        let report = run(case, case.target, case.pos);
        let hits: Vec<String> = report.violations().map(|f| f.to_string()).collect();
        assert!(
            report
                .violations()
                .any(|f| f.rule == case.rule && f.path == case.target),
            "{} positive did not fire at {}: {hits:?}",
            case.rule.name(),
            case.target
        );
        assert!(
            report.violations().all(|f| f.rule == case.rule),
            "{} positive is not single-rule-pure: {hits:?}",
            case.rule.name()
        );
    }
}

#[test]
fn near_misses_stay_silent() {
    for case in CASES {
        let report = run(case, case.near_target, case.near);
        let hits: Vec<String> = report.violations().map(|f| f.to_string()).collect();
        assert!(
            hits.is_empty(),
            "{} near-miss fired: {hits:?}",
            case.rule.name()
        );
    }
}

#[test]
fn inline_allow_suppresses_without_hiding() {
    for case in CASES {
        let report = run(case, case.target, case.allowed);
        let hits: Vec<String> = report.violations().map(|f| f.to_string()).collect();
        assert!(
            hits.is_empty(),
            "{} marker did not suppress: {hits:?}",
            case.rule.name()
        );
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.rule == case.rule && f.allow == AllowStatus::Inline),
            "{} suppressed finding must still be reported (allow_status=inline-allow)",
            case.rule.name()
        );
        assert!(report.is_clean());
    }
}

/// Which rules fire on `text` placed at `rel`.
fn rules_at(rel: &str, text: &str) -> Vec<RuleId> {
    let report = rules::run_on_files(&[source(rel, text)], &[]);
    report.violations().map(|f| f.rule).collect()
}

#[test]
fn the_path_scopes_the_three_line_rules() {
    let map = include_str!("fixtures/nondet-collection/pos.rs");
    assert!(rules_at("crates/sim/src/engine.rs", map).contains(&RuleId::NondetCollection));
    assert!(rules_at("crates/bench/src/lib.rs", map).is_empty());

    let clock = include_str!("fixtures/wall-clock/pos.rs");
    for rel in [
        "crates/bench/src/lib.rs",
        "crates/bench/src/bin/xt3-bench.rs",
        "crates/bench/src/bin/mem_footprint.rs",
    ] {
        assert_eq!(rules_at(rel, clock), [RuleId::WallClock], "{rel}");
    }
    assert!(rules_at("crates/bench/src/stopwatch.rs", clock).is_empty());

    let unwrap = include_str!("fixtures/panic-path/pos.rs");
    assert_eq!(
        rules_at("crates/firmware/src/gbn.rs", unwrap),
        [RuleId::PanicPath]
    );
    assert!(rules_at("crates/firmware/src/pool.rs", unwrap).is_empty());
}

#[test]
fn reachable_positive_reports_the_call_chain() {
    let case = CASES
        .iter()
        .find(|c| c.rule == RuleId::PanicReachable)
        .expect("corpus has the graph rule");
    let report = run(case, case.target, case.pos);
    let finding = report
        .violations()
        .find(|f| f.rule == RuleId::PanicReachable)
        .expect("positive fires");
    let note = finding.note.as_deref().unwrap_or("");
    assert!(
        note.contains("drive") && note.contains("fixture_entry"),
        "note must name the handler-to-panic chain, got: {note}"
    );
}
