//! The repository's benchmark: three workloads run through the workspace
//! crates' public functions, timed end to end untraced and layer by layer
//! in a separate traced pass. See `BENCHMARK.json` at the repository root
//! for the workloads, metrics and bounds, and `src/main.rs` for the
//! command line.

pub mod drive;
pub mod metrics;
pub mod pass;
pub mod recorded;
pub mod spec;
pub mod trace;
