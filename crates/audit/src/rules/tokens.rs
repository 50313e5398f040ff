//! Token-pattern rules: everything except the graph-transitive
//! `panic-reachable` (see [`super::reach`]).
//!
//! All patterns operate on the lexed, `#[cfg(test)]`-marked token
//! stream. Test-region tokens never fire a rule (test code may unwrap,
//! bench against wall-clock baselines, etc. — it does not feed digests)
//! and string/comment contents do not exist at this level at all, so an
//! identifier quoted or mentioned in a comment never fires a rule.

use crate::lex::{Tok, TokKind};

use super::{
    is_digest_feeding, is_par_boundary, is_sim_facing, AllowStatus, Finding, RuleId, SourceFile,
    CAST_SCOPED_MODULES, FIRMWARE_HANDLER_MODULES, REPORTING_MODULES, WALL_CLOCK_EXEMPT,
};

/// Transcendental / power methods whose results go through libm and are
/// therefore not bit-identical across platforms and libc versions.
/// Basic IEEE-754 arithmetic (`+ - * /`, `ceil`, `floor`, `round`,
/// `abs`, comparisons) is exactly specified and stays legal.
const LIBM_METHODS: &[&str] = &[
    "log2", "log10", "ln", "ln_1p", "log", "exp", "exp2", "exp_m1", "powf", "sqrt", "cbrt",
    "hypot", "sin", "cos", "tan", "asin", "acos", "atan", "atan2", "sinh", "cosh", "tanh", "asinh",
    "acosh", "atanh",
];

/// Narrowing integer cast targets. `u64`/`i64`/`u128` are widening from
/// the types used in SimTime/sequence math; `usize` is
/// platform-dependent but only used for container indexing.
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Run every token rule that applies to `file`, appending findings.
pub fn scan(file: &SourceFile, out: &mut Vec<Finding>) {
    let path = file.rel.as_str();
    let sim_facing = is_sim_facing(path);
    let wall_clock = !WALL_CLOCK_EXEMPT.contains(&path);
    let panic_path = FIRMWARE_HANDLER_MODULES.contains(&path);
    let shared_mutable = sim_facing && !is_par_boundary(path);
    let digest_feeding = is_digest_feeding(path);
    let libm_scope = sim_facing && !REPORTING_MODULES.contains(&path);
    let cast_scoped = CAST_SCOPED_MODULES.contains(&path);

    let toks: Vec<&Tok> = file.toks.iter().filter(|t| !t.cfg_test).collect();
    let push = |out: &mut Vec<Finding>, rule: RuleId, t: &Tok, note: Option<String>| {
        out.push(Finding {
            rule,
            path: path.to_string(),
            line: t.line,
            snippet: file.snippet(t.line),
            note,
            allow: AllowStatus::Active,
        });
    };

    for i in 0..toks.len() {
        let t = toks[i];
        let ident = |s: &str| t.kind == TokKind::Ident && t.text == s;

        if sim_facing && (ident("HashMap") || ident("HashSet")) {
            push(out, RuleId::NondetCollection, t, None);
        }

        if wall_clock {
            if ident("SystemTime") || ident("thread_rng") {
                push(out, RuleId::WallClock, t, None);
            }
            if ident("Instant") && seq(&toks, i + 1, &[":", ":", "now"]) {
                push(out, RuleId::WallClock, t, None);
            }
        }

        if panic_path
            && t.kind == TokKind::Punct
            && t.text == "."
            && (seq(&toks, i + 1, &["unwrap", "("]) || seq(&toks, i + 1, &["expect", "("]))
        {
            push(out, RuleId::PanicPath, toks[i + 1], None);
        }

        if shared_mutable {
            if ident("static") && next_is(&toks, i + 1, "mut") {
                push(out, RuleId::SharedMutable, t, Some("static mut".into()));
            }
            if ident("Mutex") || ident("RwLock") {
                push(
                    out,
                    RuleId::SharedMutable,
                    t,
                    Some(format!("{} outside sim::par", t.text)),
                );
            }
            if ident("thread") && seq(&toks, i + 1, &[":", ":", "spawn"]) {
                push(
                    out,
                    RuleId::SharedMutable,
                    t,
                    Some("thread::spawn outside sim::par".into()),
                );
            }
            if ident("Arc") && next_is(&toks, i + 1, "<") {
                if let Some(cell) = generic_contains_cell(&toks, i + 2) {
                    push(
                        out,
                        RuleId::SharedMutable,
                        t,
                        Some(format!("Arc sharing interior mutability ({cell})")),
                    );
                }
            }
        }

        if ident("Ordering") && seq(&toks, i + 1, &[":", ":", "Relaxed"]) {
            push(
                out,
                RuleId::AtomicOrdering,
                t,
                Some("use Acquire/Release/SeqCst; Relaxed races are invisible to replay".into()),
            );
        }

        if digest_feeding
            && ((t.kind == TokKind::Ident && (t.text == "f32" || t.text == "f64"))
                || t.kind == TokKind::Float)
        {
            push(
                out,
                RuleId::FloatNondet,
                t,
                Some("digest-feeding state must stay integer-only".into()),
            );
        }

        if libm_scope && t.kind == TokKind::Punct && t.text == "." {
            if let (Some(m), Some(p)) = (toks.get(i + 1), toks.get(i + 2)) {
                if m.kind == TokKind::Ident
                    && LIBM_METHODS.contains(&m.text.as_str())
                    && p.kind == TokKind::Punct
                    && p.text == "("
                {
                    push(
                        out,
                        RuleId::FloatNondet,
                        m,
                        Some(format!(
                            ".{}() goes through libm; results differ across platforms",
                            m.text
                        )),
                    );
                }
            }
        }

        if cast_scoped && ident("as") {
            if let Some(target) = toks.get(i + 1) {
                if target.kind == TokKind::Ident && NARROW_TARGETS.contains(&target.text.as_str()) {
                    push(
                        out,
                        RuleId::CastTruncation,
                        t,
                        Some(format!(
                            "`as {}` silently truncates; use try_into or a checked helper",
                            target.text
                        )),
                    );
                }
            }
        }
    }
}

/// Do the tokens starting at `at` match `texts` exactly?
fn seq(toks: &[&Tok], at: usize, texts: &[&str]) -> bool {
    texts
        .iter()
        .enumerate()
        .all(|(k, s)| toks.get(at + k).is_some_and(|t| t.text == *s))
}

fn next_is(toks: &[&Tok], at: usize, text: &str) -> bool {
    toks.get(at).is_some_and(|t| t.text == text)
}

/// After `Arc<` (with `at` at the first token inside the generics),
/// scan the balanced angle-bracket group for an interior-mutability
/// type; returns its name if found. Bounded to keep a mis-lexed `<`
/// from scanning the whole file.
fn generic_contains_cell(toks: &[&Tok], at: usize) -> Option<String> {
    let mut depth = 1i32;
    for t in toks.iter().skip(at).take(96) {
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "<") => depth += 1,
            (TokKind::Punct, ">") => {
                depth -= 1;
                if depth == 0 {
                    return None;
                }
            }
            (TokKind::Ident, name)
                if name == "Cell"
                    || name == "RefCell"
                    || name == "UnsafeCell"
                    || name == "OnceCell" =>
            {
                return Some(name.to_string());
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex_marked;
    use crate::rules::{run_on_files, SourceFile};

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile {
            rel: rel.to_string(),
            lines: src.lines().map(str::to_string).collect(),
            toks: lex_marked(src),
        }
    }

    fn active(rel: &str, src: &str) -> Vec<(RuleId, u32)> {
        let report = run_on_files(&[file(rel, src)], &[]);
        report.violations().map(|f| (f.rule, f.line)).collect()
    }

    #[test]
    fn hashmap_in_raw_string_is_not_flagged() {
        // The legacy text pass could leak raw-string contents into the
        // "code" channel; the lexer cannot.
        let v = active(
            "crates/sim/src/x.rs",
            "pub fn f() -> &'static str { r#\"HashMap in data\"# }\n",
        );
        assert!(v.is_empty(), "{v:?}");
        let v = active("crates/sim/src/x.rs", "use std::collections::HashMap;\n");
        assert_eq!(v, vec![(RuleId::NondetCollection, 1)]);
    }

    #[test]
    fn hashmap_like_identifier_is_not_flagged() {
        // Exact-identifier matching: the substring match of the text
        // pass would have fired on `HashMapShim`.
        let v = active("crates/sim/src/x.rs", "struct HashMapShim;\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn shared_mutable_patterns() {
        let v = active(
            "crates/xt3/src/x.rs",
            "static mut COUNTER: u32 = 0;\nuse std::sync::Mutex;\nfn f() { std::thread::spawn(|| {}); }\ntype S = std::sync::Arc<std::cell::RefCell<u32>>;\n",
        );
        let rules: Vec<_> = v.iter().map(|(r, _)| *r).collect();
        assert_eq!(rules, vec![RuleId::SharedMutable; 4], "{v:?}");
    }

    #[test]
    fn arc_of_plain_data_is_fine() {
        let v = active("crates/xt3/src/x.rs", "type S = std::sync::Arc<Vec<u8>>;\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn par_boundary_module_is_exempt_from_shared_mutable() {
        let v = active("crates/sim/src/par.rs", "use std::sync::Mutex;\n");
        assert!(v.is_empty(), "{v:?}");
        let v = active("crates/sim/src/par/queue.rs", "use std::sync::Mutex;\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn atomic_ordering_relaxed_is_flagged_everywhere() {
        let v = active(
            "crates/bench/src/lib.rs",
            "fn f(x: &std::sync::atomic::AtomicU64) { x.load(std::sync::atomic::Ordering::Relaxed); }\n",
        );
        assert_eq!(v, vec![(RuleId::AtomicOrdering, 1)]);
        // cmp::Ordering is a different enum; only Relaxed fires.
        let v = active(
            "crates/sim/src/x.rs",
            "fn g(a: u32, b: u32) -> std::cmp::Ordering { a.cmp(&b) }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn float_in_digest_feeding_module_is_flagged() {
        let v = active(
            "crates/sim/src/engine.rs",
            "fn f(x: f64) -> f64 { x * 0.5 }\n",
        );
        assert_eq!(v.len(), 3, "{v:?}"); // f64, f64, 0.5
        assert!(v.iter().all(|(r, _)| *r == RuleId::FloatNondet));
    }

    #[test]
    fn float_outside_digest_feeding_scope_is_fine_without_libm() {
        let v = active(
            "crates/xt3/src/host.rs",
            "pub fn utilization(busy: u64, total: u64) -> f64 { busy as f64 / total as f64 }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn libm_method_in_sim_facing_crate_is_flagged() {
        let v = active(
            "crates/mpi/src/x.rs",
            "fn f(n: u32) -> u32 { (n as f64).log2().ceil() as u32 }\n",
        );
        assert_eq!(v, vec![(RuleId::FloatNondet, 1)]);
        // ...but the reporting module keeps its sqrt.
        let v = active(
            "crates/sim/src/stats.rs",
            "fn sd(v: f64) -> f64 { v.sqrt() }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn narrowing_cast_in_scoped_module_is_flagged() {
        let v = active(
            "crates/sim/src/time.rs",
            "fn f(x: u64) -> u32 { x as u32 }\n",
        );
        assert_eq!(v, vec![(RuleId::CastTruncation, 1)]);
        let v = active(
            "crates/sim/src/time.rs",
            "fn f(x: u32) -> u64 { x as u64 }\n",
        );
        assert!(v.is_empty(), "widening is fine: {v:?}");
        let v = active("crates/xt3/src/x.rs", "fn f(x: u64) -> u32 { x as u32 }\n");
        assert!(v.is_empty(), "out of scope: {v:?}");
    }

    #[test]
    fn wall_clock_and_panic_path_token_patterns() {
        let v = active(
            "crates/firmware/src/control.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }\nfn g(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n",
        );
        // unwrap_or is a different identifier — the text pass agreed,
        // but only because of the `(` suffix; tokens make it exact.
        // panic-reachable also fires on handler-module scan? No: reach
        // skips unwrap/expect inside handler modules (panic-path owns
        // those); and this snippet has no reachable indexing.
        assert_eq!(v, vec![(RuleId::PanicPath, 1)], "{v:?}");
        let v = active(
            "crates/sim/src/x.rs",
            "fn f() { let _ = std::time::Instant::now(); }\n",
        );
        assert_eq!(v, vec![(RuleId::WallClock, 1)]);
        // The stopwatch is exempt by name; no other bench file is.
        let clock = "fn f() { let _ = std::time::Instant::now(); }\n";
        assert!(active("crates/bench/src/stopwatch.rs", clock).is_empty());
        let v = active("crates/bench/src/bin/mem_footprint.rs", clock);
        assert_eq!(v, vec![(RuleId::WallClock, 1)]);
    }
}
