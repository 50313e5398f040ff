//! The subcommands behind [`crate::cli::COMMANDS`], one file per group.

pub mod ablation;
pub mod campaign;
pub mod congestion;
pub mod fig;
pub mod latency;
pub mod perf_core;
pub mod perf_parallel;
pub mod perf_rma;
pub mod summary;
pub mod table;
pub mod telemetry;
