//! Tier-1 guard for the link-series store.
//!
//! `cargo test -q` at the repo root builds only the root package, so the
//! `xt3-telemetry` crate's own `tests/series_differential.rs` — the
//! chunked bucket store checked against the dense store it replaced over
//! a seeded 50,000-hop stream, clamp included — would run only under
//! `--workspace`. Compiling the same file here puts it in tier 1.

#[path = "../crates/telemetry/tests/series_differential.rs"]
mod series_differential;
