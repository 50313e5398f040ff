//! Tier-1 guard for the per-node rows.
//!
//! `cargo test -q` at the repo root builds only the root package, so the
//! member crates' own `tests/rows.rs` — `Slab`, `Pool`, `PendingRow` and
//! `TxFreeList` stepped against their models across every growth edge of
//! the row rule (`xt3_portals::slab::fit_by_use`), and the demand-sized
//! access control table at its edges, and the node array across
//! `Machine::split` and `merge` — would run only under
//! `--workspace`. Compiling the same files here puts them in tier 1.

#[path = "../crates/portals/tests/rows.rs"]
mod portals_rows;

#[path = "../crates/firmware/tests/rows.rs"]
mod firmware_rows;

#[path = "../crates/xt3/tests/rows.rs"]
mod host_rows;
