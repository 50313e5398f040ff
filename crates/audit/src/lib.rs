#![warn(missing_docs)]
//! Determinism audit layer.
//!
//! Two parts, both runnable from CI (`cargo run -p audit -- lint|replay`)
//! and from the test suite (a third, [`inventory`], keeps every generated
//! doc block — DESIGN.md's code-line table, README's BENCH figures —
//! current):
//!
//! * [`rules`] — the static-analysis lint engine: a dependency-free
//!   Rust lexer ([`lex`]), an item/call graph ([`graph`]), and eight
//!   rules that keep nondeterminism and concurrency hazards out of the
//!   simulation at the source level (no host-seeded hash maps, no
//!   wall-clock reads, no panic paths reachable from firmware handlers,
//!   no shared mutable state outside the `sim::par` boundary, no
//!   `Ordering::Relaxed`, no floats in digest-feeding state, no silent
//!   narrowing casts in time/sequence math). Violations are suppressed
//!   only by an inline `audit:allow(rule): reason` marker or by
//!   `crates/audit/allowlist.txt`, which may only ever shrink.
//!   `cargo run -p audit -- lint --json` emits one finding object per
//!   violation for CI annotation.
//! * [`replay`] — a replay-divergence checker that builds every NetPIPE
//!   scenario and the tier-1 end-to-end configurations twice from
//!   identical state and steps the two engines in lockstep, comparing
//!   the streaming event digest after every dispatch. A determinism bug
//!   is reported as the first divergent event index.

pub mod graph;
pub mod inventory;
pub mod lex;
pub mod replay;
pub mod rules;

pub use replay::{Divergence, ReplayRun, Scenario};
pub use rules::{AllowStatus, EngineReport, Finding, RuleId};
