//! Tier-1 guard for the causal log's stores.
//!
//! `cargo test -q` at the repo root builds only the root package, so the
//! `xt3-sim` crate's own `tests/causal_differential.rs` — the hashed
//! latest-record index and the per-node EQ lanes checked against the
//! ordered maps they replaced, under record caps of 0, 7 and none — would
//! run only under `--workspace`. Compiling the same file here puts it in
//! tier 1.

#[path = "../crates/sim/tests/causal_differential.rs"]
mod causal_differential;
