//! Item and call graph over the lexed token streams.
//!
//! The graph is built for reachability rules (today: `panic-reachable`).
//! It records every `fn` item outside `#[cfg(test)]` regions — with its
//! file, line, enclosing `impl` type and body token range — plus
//! *name-keyed* call edges: a call site `foo(...)` or
//! `x.foo(...)` produces an edge to **every** known function named
//! `foo`, while `Type::foo(...)` (and `Self::foo(...)`) narrows to the
//! matching `impl Type` blocks when any exist.
//!
//! That resolution is deliberately an overapproximation. Rust name
//! resolution needs types; a linter needs soundness in one direction
//! only: if a panic site is truly reachable from a handler, the graph
//! must contain a path to it. Edges to same-named functions that the
//! real program never calls can only add false positives, which the
//! fixture corpus keeps in check and `audit:allow` can silence with a
//! reviewed reason. Calls to names defined nowhere in the scanned set
//! (std, vendored crates) produce no edge — std calls that can panic
//! (`unwrap`, indexing) are matched as direct patterns by the rule
//! instead.

use crate::lex::{Tok, TokKind};

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Repo-relative path of the defining file.
    pub path: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl` type name, if any (`Firmware` for
    /// `impl Firmware { fn poll .. }`).
    pub impl_type: Option<String>,
    /// Token index range of the body within the file's token stream
    /// (empty for trait-method declarations without a body).
    pub body: (usize, usize),
}

impl FnItem {
    /// `Type::name` when inside an impl, else `name`.
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The per-tree item graph.
#[derive(Debug, Default)]
pub struct ItemGraph {
    /// Every non-test `fn` item, in file order.
    pub fns: Vec<FnItem>,
    /// Call edges as (caller index, callee index) into `fns`.
    pub calls: Vec<(usize, usize)>,
}

impl ItemGraph {
    /// Add one file's tokens to the graph. `toks` must be cfg-marked
    /// ([`crate::lex::lex_marked`]); test-region tokens are ignored.
    pub fn add_file(&mut self, path: &str, toks: &[Tok]) {
        collect_items(path, toks, self);
    }

    /// Resolve all call sites into edges. Call after every file has
    /// been added. An edge is only created when
    /// `may_call(caller_path, callee_path)` allows it — used to confine
    /// name-keyed resolution to the crate dependency direction, which
    /// removes whole families of spurious edges (a `.get(...)` in
    /// firmware can never be `xt3::AppCtx::get` if firmware does not
    /// depend on xt3).
    ///
    /// Qualified sites (`Type::name(`, including `Self::`) resolve only
    /// to functions in `impl Type` blocks. A qualifier that matches no
    /// scanned impl is a call into std or an external crate
    /// (`VecDeque::new()`), which cannot reach scanned code and produces
    /// no edge — falling back to name-only there would link every
    /// constructor to every other and bury reachability rules in false
    /// positives. Unqualified calls (`foo(..)`, `x.foo(..)`) keep the
    /// full name-keyed overapproximation.
    pub fn link_calls_constrained(
        &mut self,
        call_sites: &[CallSite],
        may_call: impl Fn(&str, &str) -> bool,
    ) {
        // name -> fn indices
        let mut by_name: std::collections::BTreeMap<&str, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (i, f) in self.fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(i);
        }
        for site in call_sites {
            let Some(targets) = by_name.get(site.name.as_str()) else {
                continue;
            };
            for &t in targets {
                if let Some(q) = &site.qual {
                    if self.fns[t].impl_type.as_deref() != Some(q.as_str()) {
                        continue;
                    }
                }
                if may_call(&self.fns[site.caller].path, &self.fns[t].path) {
                    self.calls.push((site.caller, t));
                }
            }
        }
        self.calls.sort_unstable();
        self.calls.dedup();
    }

    /// Indices of functions reachable from the given roots (inclusive).
    pub fn reachable(&self, roots: &[usize]) -> Vec<bool> {
        let mut seen = vec![false; self.fns.len()];
        let mut stack: Vec<usize> = roots.to_vec();
        for &r in roots {
            seen[r] = true;
        }
        // Adjacency: calls is sorted by caller.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.fns.len()];
        for &(a, b) in &self.calls {
            adj[a].push(b);
        }
        while let Some(n) = stack.pop() {
            for &m in &adj[n] {
                if !seen[m] {
                    seen[m] = true;
                    stack.push(m);
                }
            }
        }
        seen
    }

    /// A shortest call path (as fn indices) from any root to `target`,
    /// for diagnostics. Returns `None` if unreachable.
    pub fn path_to(&self, roots: &[usize], target: usize) -> Option<Vec<usize>> {
        let mut prev: Vec<Option<usize>> = vec![None; self.fns.len()];
        let mut seen = vec![false; self.fns.len()];
        let mut queue: std::collections::VecDeque<usize> = roots.iter().copied().collect();
        for &r in roots {
            seen[r] = true;
        }
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.fns.len()];
        for &(a, b) in &self.calls {
            adj[a].push(b);
        }
        while let Some(n) = queue.pop_front() {
            if n == target {
                let mut path = vec![n];
                let mut cur = n;
                while let Some(p) = prev[cur] {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            for &m in &adj[n] {
                if !seen[m] {
                    seen[m] = true;
                    prev[m] = Some(n);
                    queue.push_back(m);
                }
            }
        }
        None
    }
}

/// Keywords that look like call sites (`if (..)`, `while (..)`) and
/// must not become callee names.
const NON_CALLEES: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "fn", "in", "as", "let", "else", "move",
    "unsafe", "where", "impl", "dyn", "ref", "mut", "pub", "use", "mod", "struct", "enum", "trait",
    "type", "const", "static", "crate", "super", "self", "Self", "box", "await",
];

/// Scan one file's tokens: collect `fn` items (with impl context) into
/// `graph`.
fn collect_items(path: &str, toks: &[Tok], graph: &mut ItemGraph) {
    let live: Vec<(usize, &Tok)> = toks
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.cfg_test)
        .collect();

    // Pass 1: impl spans. `impl [<..>] Type [for Trait] { ... }` — we
    // record (body_range, type_name) so fns inside get qualified names.
    let mut impl_spans: Vec<((usize, usize), String)> = Vec::new();
    let mut k = 0;
    while k < live.len() {
        if live[k].1.kind == TokKind::Ident && live[k].1.text == "impl" {
            if let Some((body, ty)) = parse_impl_header(&live, k) {
                impl_spans.push((body, ty));
            }
        }
        k += 1;
    }

    // Pass 2: fn items.
    let mut k = 0;
    while k < live.len() {
        let (ti, t) = live[k];
        if t.kind == TokKind::Ident && t.text == "fn" {
            if let Some((name, name_at)) = ident_after(&live, k) {
                let body = fn_body_range(&live, name_at);
                let impl_type = impl_spans
                    .iter()
                    .filter(|((s, e), _)| *s <= ti && ti < *e)
                    .map(|(_, ty)| ty.clone())
                    .next_back();
                graph.fns.push(FnItem {
                    path: path.to_string(),
                    line: t.line,
                    name,
                    impl_type,
                    body,
                });
            }
        }
        k += 1;
    }
}

/// After `impl` at live-index `k`: skip generics, read the type name,
/// then find the `{`..`}` body span (in *token-stream* indices).
fn parse_impl_header(live: &[(usize, &Tok)], k: usize) -> Option<((usize, usize), String)> {
    let mut j = k + 1;
    // Skip generic params `<...>`.
    if live.get(j)?.1.text == "<" {
        let mut depth = 1;
        j += 1;
        while j < live.len() && depth > 0 {
            match live[j].1.text.as_str() {
                "<" => depth += 1,
                ">" => depth -= 1,
                _ => {}
            }
            j += 1;
        }
    }
    // Type path: idents separated by `::`; generics after the name are
    // skipped when hunting for the brace. For `impl Trait for Type`,
    // prefer the type after `for`.
    let mut ty = None;
    while j < live.len() {
        let t = live[j].1;
        match t.kind {
            TokKind::Ident if t.text == "for" => {
                ty = None; // the real self type follows
                j += 1;
            }
            TokKind::Ident if ty.is_none() && !NON_CALLEES.contains(&t.text.as_str()) => {
                ty = Some(t.text.clone());
                j += 1;
            }
            TokKind::Punct if t.text == "{" => break,
            TokKind::Punct if t.text == ";" => return None, // e.g. `impl Trait for Type;` — no body
            _ => j += 1,
        }
    }
    let ty = ty?;
    if j >= live.len() {
        return None;
    }
    // Brace-match from j.
    let start_ti = live[j].0;
    let mut depth = 0usize;
    while j < live.len() {
        match live[j].1.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(((start_ti, live[j].0 + 1), ty));
                }
            }
            _ => {}
        }
        j += 1;
    }
    Some(((start_ti, usize::MAX), ty))
}

/// The identifier right after live-index `k` (skipping nothing else).
fn ident_after(live: &[(usize, &Tok)], k: usize) -> Option<(String, usize)> {
    let t = live.get(k + 1)?;
    if t.1.kind == TokKind::Ident {
        Some((t.1.text.clone(), k + 1))
    } else {
        None
    }
}

/// Token-stream index range of the `fn` body: from the first `{` after
/// the signature (balancing nothing before it except generic/where
/// clauses, which contain no bare `{`) to its matching `}`. Returns an
/// empty range for bodyless declarations (`fn f();`).
fn fn_body_range(live: &[(usize, &Tok)], name_at: usize) -> (usize, usize) {
    let mut j = name_at + 1;
    let mut depth = 0usize;
    // Find `{` at angle/paren depth 0 before a `;`.
    while j < live.len() {
        let t = live[j].1;
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "{" if depth == 0 => break,
                ";" if depth == 0 => return (0, 0),
                _ => {}
            }
        }
        j += 1;
    }
    if j >= live.len() {
        return (0, 0);
    }
    let start_ti = live[j].0;
    let mut brace = 0usize;
    while j < live.len() {
        match live[j].1.text.as_str() {
            "{" => brace += 1,
            "}" => {
                brace -= 1;
                if brace == 0 {
                    return (start_ti, live[j].0 + 1);
                }
            }
            _ => {}
        }
        j += 1;
    }
    (start_ti, usize::MAX)
}

/// One unresolved call site: the callee name, optionally qualified by
/// the type it was called through (`Effects::new(..)` / `Self::new(..)`
/// inside `impl Effects` both qualify as `Effects`).
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Index of the calling function in [`ItemGraph::fns`].
    pub caller: usize,
    /// Bare callee name.
    pub name: String,
    /// Qualifying type for `Type::name(` path calls, with `Self`
    /// resolved to the enclosing impl type. `None` for free calls and
    /// `.method(` calls.
    pub qual: Option<String>,
}

/// Extract call sites from one file's tokens. A call site is `ident (`
/// where the identifier is not a keyword and not a definition
/// (`fn ident(`); `.method(` and free calls resolve by name alone,
/// `Path::assoc(` calls carry their qualifier so resolution can prefer
/// the right impl block.
pub fn call_sites(path: &str, toks: &[Tok], graph: &ItemGraph) -> Vec<CallSite> {
    // Functions defined in this file, for innermost-enclosing lookup.
    let file_fns: Vec<(usize, &FnItem)> = graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.path == path && f.body != (0, 0))
        .collect();
    let mut sites = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.cfg_test || t.kind != TokKind::Ident {
            continue;
        }
        if NON_CALLEES.contains(&t.text.as_str()) {
            continue;
        }
        let Some(next) = toks.get(i + 1) else {
            continue;
        };
        if !(next.kind == TokKind::Punct && next.text == "(") {
            continue;
        }
        // `fn name(` is a definition, not a call.
        if i > 0 && toks[i - 1].kind == TokKind::Ident && toks[i - 1].text == "fn" {
            continue;
        }
        // Innermost enclosing fn body containing token i.
        let caller = file_fns
            .iter()
            .filter(|(_, f)| f.body.0 < i && i < f.body.1)
            .min_by_key(|(_, f)| f.body.1 - f.body.0);
        let Some((caller_idx, caller_fn)) = caller else {
            continue;
        };
        // Qualifier: `Type :: name (` — two tokens back must be `::`
        // preceded by an identifier starting with an uppercase letter
        // (type-like; lowercase paths are modules, where the name alone
        // is the right key).
        let mut qual = None;
        if i >= 3
            && toks[i - 1].text == ":"
            && toks[i - 2].text == ":"
            && toks[i - 3].kind == TokKind::Ident
        {
            let q = toks[i - 3].text.as_str();
            if q == "Self" {
                qual = caller_fn.impl_type.clone();
            } else if q.chars().next().is_some_and(char::is_uppercase) {
                qual = Some(q.to_string());
            }
        }
        sites.push(CallSite {
            caller: *caller_idx,
            name: t.text.clone(),
            qual,
        });
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex_marked;

    fn graph_of(files: &[(&str, &str)]) -> ItemGraph {
        let mut g = ItemGraph::default();
        let lexed: Vec<(String, Vec<Tok>)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), lex_marked(s)))
            .collect();
        for (p, t) in &lexed {
            g.add_file(p, t);
        }
        let mut sites = Vec::new();
        for (p, t) in &lexed {
            sites.extend(call_sites(p, t, &g));
        }
        g.link_calls_constrained(&sites, |_, _| true);
        g
    }

    #[test]
    fn fns_and_impl_context_are_collected() {
        let g = graph_of(&[(
            "a.rs",
            "pub struct S;\nimpl S {\n pub fn m(&self) {}\n}\nfn free() {}\n",
        )]);
        assert_eq!(g.fns.len(), 2);
        assert_eq!(g.fns[0].qualified(), "S::m");
        assert_eq!(g.fns[1].qualified(), "free");
    }

    #[test]
    fn call_edges_and_reachability() {
        let g = graph_of(&[(
            "a.rs",
            "fn a() { b(); }\nfn b() { helper.c(); }\nfn c() {}\nfn island() {}\n",
        )]);
        let root = g.fns.iter().position(|f| f.name == "a").unwrap();
        let seen = g.reachable(&[root]);
        let idx = |n: &str| g.fns.iter().position(|f| f.name == n).unwrap();
        assert!(seen[idx("b")]);
        assert!(seen[idx("c")], "method-call edge .c() must resolve by name");
        assert!(!seen[idx("island")]);
    }

    #[test]
    fn cfg_test_fns_are_invisible() {
        let g = graph_of(&[(
            "a.rs",
            "fn live() {}\n#[cfg(test)]\nmod t {\n fn test_only() { live(); }\n}\n",
        )]);
        assert_eq!(g.fns.len(), 1);
        assert_eq!(g.fns[0].name, "live");
    }

    #[test]
    fn path_to_reports_a_chain() {
        let g = graph_of(&[("a.rs", "fn a() { b(); }\nfn b() { c(); }\nfn c() {}\n")]);
        let idx = |n: &str| g.fns.iter().position(|f| f.name == n).unwrap();
        let p = g.path_to(&[idx("a")], idx("c")).unwrap();
        let names: Vec<_> = p.iter().map(|&i| g.fns[i].name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn qualified_calls_narrow_to_the_matching_impl() {
        let g = graph_of(&[
            (
                "a.rs",
                "pub struct A;\nimpl A {\n pub fn go(&self) { B::new(); }\n}\n",
            ),
            ("b.rs", "pub struct B;\nimpl B {\n pub fn new() {}\n}\n"),
            (
                "c.rs",
                "pub struct C;\nimpl C {\n pub fn new() { None::<u32>.unwrap(); }\n}\n",
            ),
        ]);
        let idx = |q: &str| g.fns.iter().position(|f| f.qualified() == q).unwrap();
        let seen = g.reachable(&[idx("A::go")]);
        assert!(seen[idx("B::new")]);
        assert!(!seen[idx("C::new")], "B::new() must not resolve to C::new");
    }

    #[test]
    fn qualified_call_to_external_type_produces_no_edge() {
        let g = graph_of(&[
            (
                "a.rs",
                "pub struct A;\nimpl A {\n pub fn go(&self) { let _q = VecDeque::new(); }\n}\n",
            ),
            ("c.rs", "pub struct C;\nimpl C {\n pub fn new() {}\n}\n"),
        ]);
        let idx = |q: &str| g.fns.iter().position(|f| f.qualified() == q).unwrap();
        let seen = g.reachable(&[idx("A::go")]);
        assert!(
            !seen[idx("C::new")],
            "std-qualified constructor must not link to scanned fns"
        );
    }

    #[test]
    fn self_calls_qualify_as_the_enclosing_impl_type() {
        let g = graph_of(&[
            (
                "a.rs",
                "pub struct A;\nimpl A {\n pub fn go() { Self::helper(); }\n fn helper() {}\n}\n",
            ),
            ("b.rs", "pub struct B;\nimpl B {\n pub fn helper() {}\n}\n"),
        ]);
        let idx = |q: &str| g.fns.iter().position(|f| f.qualified() == q).unwrap();
        let seen = g.reachable(&[idx("A::go")]);
        assert!(seen[idx("A::helper")]);
        assert!(!seen[idx("B::helper")]);
    }

    #[test]
    fn cross_file_calls_link() {
        let g = graph_of(&[
            ("a.rs", "fn handler() { shared_helper(); }\n"),
            ("b.rs", "pub fn shared_helper() { }\n"),
        ]);
        let idx = |n: &str| g.fns.iter().position(|f| f.name == n).unwrap();
        let seen = g.reachable(&[idx("handler")]);
        assert!(seen[idx("shared_helper")]);
    }
}
