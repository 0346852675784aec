//! `skipper-report`: where run artefacts go, and the cross-process trace
//! stitcher.
//!
//! * [`results_dir`] — the one definition of the workspace `results/`
//!   directory that `figures`, the bench harness and `trace_stitch` write
//!   into;
//! * [`stitch`] — merge per-process obs JSONL streams into one
//!   Perfetto-loadable Chrome trace (the `trace_stitch` binary).
//!
//! How fast the code is, is judged elsewhere: by the pinned repository
//! benchmark under `benchmark/` and its `repeat.sh`.

use std::path::{Path, PathBuf};

pub mod stitch;

/// The workspace `results/` directory (`<repo>/results`), resolved from
/// this crate's position in the source tree.
pub fn results_dir() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .unwrap_or(manifest)
        .join("results")
}
