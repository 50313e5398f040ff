//! Tier-1 guard for the firmware's property suite.
//!
//! `cargo test -q` at the repo root builds only the root package, so the
//! `xt3-firmware` crate's own `tests/properties.rs` — the active-source
//! index checked against a map reference through doublings, releases,
//! shared home slots and pool exhaustion, plus the pool and go-back-n
//! invariants — would run only under `--workspace`. Compiling the same
//! file here puts it in tier 1.

#[path = "../crates/firmware/tests/properties.rs"]
mod properties;
