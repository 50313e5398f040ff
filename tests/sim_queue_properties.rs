//! Tier-1 guard for the simulation core's property suite.
//!
//! `cargo test -q` at the repo root builds only the root package, so the
//! `xt3-sim` crate's own `tests/properties.rs` — the event queue checked
//! against a sorted reference at depths that cross its near/far split,
//! tie storms, pushes into the past — would run only under
//! `--workspace`. Compiling the same file here puts it in tier 1.

#[path = "../crates/sim/tests/properties.rs"]
mod properties;
