//! `skipper-report`: where run artefacts go, and the cross-process trace
//! stitcher.
//!
//! * [`results_dir`] — the one definition of the `results/` directory
//!   that `figures` and `trace_stitch` write into;
//! * [`stitch`] — merge per-process obs JSONL streams into one
//!   Perfetto-loadable Chrome trace (the `trace_stitch` binary).
//!
//! How fast the code is, is judged elsewhere: by the pinned repository
//! benchmark under `benchmark/` and its `repeat.sh`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::PathBuf;

pub mod stitch;

/// `results/` under the working directory: run from the repository root,
/// the repository's own. No path is compiled in, so a binary built on one
/// machine never writes into the source tree it was built from.
pub fn results_dir() -> PathBuf {
    PathBuf::from("results")
}
