//! `panic-reachable`: the graph-transitive panic rule.
//!
//! The line-local `panic-path` rule covers three firmware files. That
//! misses the actual invariant: *no function reachable from a firmware
//! event handler may panic*, wherever it lives — a `pool.rs` helper
//! that indexes out of bounds aborts the simulation just as surely as
//! an `unwrap` in `control.rs`. This rule walks the item graph from
//! every non-test function defined in the handler modules and flags,
//! in every reachable function:
//!
//! * `.unwrap(` / `.expect(` — except inside the handler modules
//!   themselves, where `panic-path` already owns the finding (no
//!   double-reporting)
//! * `panic!` / `unreachable!` / `todo!` / `unimplemented!`
//! * index expressions `x[i]` — use `.get()` and surface a typed
//!   `FwError` instead. Full-range slices `x[..]` cannot panic and are
//!   not flagged; `debug_assert!` is likewise legal (stripped in
//!   release, and fault campaigns run release).
//!
//! Call edges resolve by name to every known function (see
//! [`crate::graph`] for why overapproximation is the right polarity
//! for a linter); each finding carries the shortest handler→panic-site
//! call chain so the report is actionable.

use crate::graph::{call_sites, ItemGraph};
use crate::lex::TokKind;

use super::{is_sim_facing, AllowStatus, Finding, RuleId, SourceFile, FIRMWARE_HANDLER_MODULES};

/// Run the reachability rule over the whole file set.
pub fn scan(files: &[SourceFile], out: &mut Vec<Finding>) {
    // Graph scope: sim-facing crates (handlers only ever call into
    // these; bench/netpipe/telemetry drive the simulation from outside).
    let in_scope: Vec<&SourceFile> = files.iter().filter(|f| is_sim_facing(&f.rel)).collect();
    if in_scope.is_empty() {
        return;
    }
    let mut graph = ItemGraph::default();
    for f in &in_scope {
        graph.add_file(&f.rel, &f.toks);
    }
    let mut sites = Vec::new();
    for f in &in_scope {
        sites.extend(call_sites(&f.rel, &f.toks, &graph));
    }
    graph.link_calls_constrained(&sites, super::may_call);

    let roots: Vec<usize> = graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| FIRMWARE_HANDLER_MODULES.contains(&f.path.as_str()))
        .map(|(i, _)| i)
        .collect();
    if roots.is_empty() {
        return;
    }
    let reachable = graph.reachable(&roots);

    for (fi, f) in graph.fns.iter().enumerate() {
        if !reachable[fi] || f.body == (0, 0) {
            continue;
        }
        let src = in_scope
            .iter()
            .find(|s| s.rel == f.path)
            .expect("graph fn comes from a scanned file");
        let in_handler_module = FIRMWARE_HANDLER_MODULES.contains(&f.path.as_str());
        let chain = || {
            graph
                .path_to(&roots, fi)
                .map(|p| {
                    p.iter()
                        .map(|&i| graph.fns[i].qualified())
                        .collect::<Vec<_>>()
                        .join(" -> ")
                })
                .unwrap_or_else(|| f.qualified())
        };

        let body = &src.toks[f.body.0..f.body.1.min(src.toks.len())];
        for (k, t) in body.iter().enumerate() {
            if t.cfg_test {
                continue;
            }
            let next = body.get(k + 1);
            let next2 = body.get(k + 2);
            // .unwrap( / .expect(
            if !in_handler_module
                && t.kind == TokKind::Punct
                && t.text == "."
                && next.is_some_and(|n| {
                    n.kind == TokKind::Ident && (n.text == "unwrap" || n.text == "expect")
                })
                && next2.is_some_and(|n| n.text == "(")
            {
                let site = next.expect("checked above");
                out.push(Finding {
                    rule: RuleId::PanicReachable,
                    path: f.path.clone(),
                    line: site.line,
                    snippet: src.snippet(site.line),
                    note: Some(format!("reachable: {}", chain())),
                    allow: AllowStatus::Active,
                });
            }
            // panic!-family
            if t.kind == TokKind::Ident
                && matches!(
                    t.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                )
                && next.is_some_and(|n| n.kind == TokKind::Punct && n.text == "!")
            {
                out.push(Finding {
                    rule: RuleId::PanicReachable,
                    path: f.path.clone(),
                    line: t.line,
                    snippet: src.snippet(t.line),
                    note: Some(format!("reachable: {}", chain())),
                    allow: AllowStatus::Active,
                });
            }
            // Index expressions: `[` preceded by an expression-ending
            // token (identifier, `)`, `]`). Array literals, slice
            // patterns, attributes and types don't match that shape.
            if t.kind == TokKind::Punct && t.text == "[" && k > 0 {
                let prev = &body[k - 1];
                let expr_prev = (prev.kind == TokKind::Ident
                    && !matches!(prev.text.as_str(), "let" | "in" | "as" | "return" | "mut"))
                    || (prev.kind == TokKind::Punct && (prev.text == ")" || prev.text == "]"));
                if expr_prev && !is_full_range(body, k) {
                    out.push(Finding {
                        rule: RuleId::PanicReachable,
                        path: f.path.clone(),
                        line: t.line,
                        snippet: src.snippet(t.line),
                        note: Some(format!(
                            "indexing can panic; use .get() (reachable: {})",
                            chain()
                        )),
                        allow: AllowStatus::Active,
                    });
                }
            }
        }
    }
}

/// Is the bracket group opening at `open` exactly `[..]`? A full-range
/// slice re-borrows the whole container and cannot panic.
fn is_full_range(body: &[crate::lex::Tok], open: usize) -> bool {
    matches!(
        (body.get(open + 1), body.get(open + 2), body.get(open + 3)),
        (Some(a), Some(b), Some(c))
            if a.text == "." && b.text == "." && c.text == "]"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex_marked;
    use crate::rules::run_on_files;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile {
            rel: rel.to_string(),
            lines: src.lines().map(str::to_string).collect(),
            toks: lex_marked(src),
        }
    }

    #[test]
    fn transitive_unwrap_is_flagged_with_chain() {
        let files = [
            file(
                "crates/firmware/src/control.rs",
                "pub fn rx_header() { deep_helper(); }\n",
            ),
            file(
                "crates/firmware/src/pool.rs",
                "pub fn deep_helper() { inner(); }\nfn inner() { None::<u32>.unwrap(); }\n",
            ),
        ];
        let report = run_on_files(&files, &[]);
        let v: Vec<_> = report
            .violations()
            .filter(|f| f.rule == RuleId::PanicReachable)
            .collect();
        assert_eq!(v.len(), 1, "{:?}", report.findings);
        assert_eq!(v[0].path, "crates/firmware/src/pool.rs");
        assert!(v[0].note.as_deref().unwrap().contains("rx_header"));
    }

    #[test]
    fn unreachable_helper_is_not_flagged() {
        let files = [
            file("crates/firmware/src/control.rs", "pub fn rx_header() {}\n"),
            file(
                "crates/portals/src/x.rs",
                "pub fn island() { None::<u32>.unwrap(); }\n",
            ),
        ];
        let report = run_on_files(&files, &[]);
        assert!(
            report
                .violations()
                .all(|f| f.rule != RuleId::PanicReachable),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn indexing_is_flagged_but_full_range_is_not() {
        let files = [
            file(
                "crates/firmware/src/gbn.rs",
                "pub fn on_ack() { helper_ix(); }\n",
            ),
            file(
                "crates/firmware/src/pending.rs",
                "pub fn helper_ix() { let v = [1u32, 2]; let _ = v[1]; let _ = &v[..]; }\n",
            ),
        ];
        let report = run_on_files(&files, &[]);
        let v: Vec<_> = report
            .violations()
            .filter(|f| f.rule == RuleId::PanicReachable)
            .collect();
        assert_eq!(v.len(), 1, "{:?}", report.findings);
        assert!(v[0].note.as_deref().unwrap().contains("indexing"));
    }

    #[test]
    fn handler_module_unwrap_is_owned_by_panic_path_not_reach() {
        let files = [file(
            "crates/firmware/src/mailbox.rs",
            "pub fn poll(x: Option<u32>) -> u32 { x.unwrap() }\n",
        )];
        let report = run_on_files(&files, &[]);
        let rules: Vec<_> = report.violations().map(|f| f.rule).collect();
        assert_eq!(rules, vec![RuleId::PanicPath], "{:?}", report.findings);
    }

    #[test]
    fn panic_macro_in_reachable_helper_is_flagged() {
        let files = [
            file(
                "crates/firmware/src/control.rs",
                "pub fn handle() { validate(); }\n",
            ),
            file(
                "crates/seastar/src/x.rs",
                "pub fn validate() { panic!(\"bad\"); }\n",
            ),
        ];
        let report = run_on_files(&files, &[]);
        let v: Vec<_> = report
            .violations()
            .filter(|f| f.rule == RuleId::PanicReachable)
            .collect();
        assert_eq!(v.len(), 1, "{:?}", report.findings);
    }
}
