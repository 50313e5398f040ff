//! Tier-1 guard for the link-series store.
//!
//! `cargo test -q` at the repo root builds only the root package, so the
//! `xt3-telemetry` crate's own `tests/series_differential.rs` — the
//! sorted run of non-zero buckets checked against the dense store over a
//! seeded 50,000-hop stream, clamp included, and over writes placed
//! behind a link's tail — would run only under `--workspace`. Compiling
//! the same file here puts it in tier 1.

#[path = "../crates/telemetry/tests/series_differential.rs"]
mod series_differential;
