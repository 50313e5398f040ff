//! Tier-1 guard for the telemetry registry's store.
//!
//! `cargo test -q` at the repo root builds only the root package, so the
//! `xt3-telemetry` crate's own `tests/registry_differential.rs` — the
//! name-table × per-node column store checked against the ordered maps it
//! replaced, iteration order and a shard-style node range included —
//! would run only under `--workspace`. Compiling the same file here puts
//! it in tier 1.

#[path = "../crates/telemetry/tests/registry_differential.rs"]
mod registry_differential;
