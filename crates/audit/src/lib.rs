#![warn(missing_docs)]
//! Determinism audit layer: what clippy cannot check.
//!
//! The source rules — no host-seeded hash maps, no wall-clock reads, no
//! panic paths in firmware, no threads or locks outside `sim::par`, no
//! floats or silent narrowing in digest-feeding state — are clippy's:
//! `clippy.toml` and module-level `#![deny(clippy::…)]` lines, mapped
//! rule by rule in DESIGN §11. This crate keeps the rest:
//!
//! * [`replay`] — a replay-divergence checker that builds every NetPIPE
//!   scenario and the tier-1 end-to-end configurations twice from
//!   identical state and steps the two engines in lockstep, comparing
//!   the streaming event digest after every dispatch. A determinism bug
//!   is reported as the first divergent event index.
//! * [`inventory`] — every generated doc block (DESIGN.md's code-line
//!   table, README's BENCH figures), over a dependency-free Rust lexer
//!   ([`lex`]) that marks `#[cfg(test)]` items. `tests/lint_gate.rs`
//!   holds the blocks current, the clippy configuration in place, and
//!   the one source rule clippy has no lint for.

pub mod inventory;
pub mod lex;
pub mod replay;
