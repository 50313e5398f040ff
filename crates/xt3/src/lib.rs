#![warn(missing_docs)]
//! The XT3 node and machine model.
//!
//! This crate assembles everything below it into running nodes and drives
//! applications over the simulated platform:
//!
//! * [`host`] — the 2.0 GHz Opteron host CPU (one busy cursor; traps,
//!   interrupts, kernel Portals processing all serialize on it);
//! * [`wire`] — the wire message format carried by the `xt3-topology`
//!   fabric (Portals header + payload + go-back-n sequence);
//! * [`config`] — machine / node / process configuration (OS kind, bridge
//!   kind, generic vs. accelerated mode, exhaustion policy);
//! * [`app`] — the application interface: an [`app::App`] is an
//!   event-driven process issuing Portals calls through [`app::AppCtx`];
//! * [`machine`] — the [`machine::Machine`] simulation model: the message
//!   paths of paper §3–§4, one child module per job (its module doc maps
//!   them), with generic and accelerated completion each in one file;
//! * [`par`] — the same machine on the parallel window driver,
//!   bit-identical to a serial run;
//! * [`workloads`] — ready-made machines (Red Storm rounds, the torus
//!   traffic patterns).
//!
//! The timing of every step comes from `xt3_seastar::CostModel`; the
//! protocol logic comes from `xt3_portals` and `xt3_firmware`. This crate
//! only sequences them.

pub mod app;
pub mod config;
pub mod host;
pub mod machine;
pub mod node;
pub mod par;
pub mod wire;
pub mod workloads;

pub use app::{App, AppCtx, AppEvent};
pub use config::{ExhaustionPolicy, MachineConfig, NodeSpec, OsKind, ProcSpec};
pub use host::HostCpu;
pub use machine::{Ev, Machine};
pub use par::{run_parallel, ParRun};
pub use wire::{WireKind, WireMsg};
