//! Shared harness of the `figures` binary, which regenerates every table
//! and figure of the paper's evaluation (Section VII) at laptop scale.
//!
//! * [`workloads`] — the paper's five workload pairings (network x
//!   dataset) at scaled width/resolution, with the paper's original
//!   parameters attached for reference;
//! * [`measure`](fn@measure) — run a [`TrainSession`] for a few instrumented
//!   iterations and collect the deterministic part of what the paper
//!   measures (per-category peak tensor bytes, caching-allocator
//!   statistics, the kernel log that a device model turns into modeled
//!   time and overall occupancy);
//! * [`fit`] — epoch-level training for the accuracy figures;
//! * [`report`] — uniform text + JSON output.
//!
//! Wall-clock time is not measured here: that is the job of the pinned
//! repository benchmark under `benchmark/`.
//!
//! [`TrainSession`]: skipper_core::TrainSession

pub mod harness;
pub mod measure;
pub mod report;
pub mod train;
pub mod workloads;

pub use harness::BenchRun;
pub use measure::{human_bytes, measure, DataSource, MeasureConfig, Measurement};
pub use report::Report;
pub use train::{evaluate, fit, FitResult};
pub use workloads::{Workload, WorkloadKind};
