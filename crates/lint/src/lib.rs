//! `skipper-lint` — workspace-aware static analysis for the Skipper
//! reproduction.
//!
//! Clippy holds everything a token can show: the panic policy, `unsafe`
//! hygiene, the numeric core's ban on hash containers and wall clocks,
//! and stale expectations (`clippy.toml`, `[workspace.lints]` and the
//! `#![deny(...)]` attributes in the library crates). This crate holds
//! what only this repo knows: fixed-order float reductions on the sharded
//! gradient path (a reordered sum changes `s_t`, which changes the SST
//! percentile, which changes which timesteps get skipped), the
//! `metrics.toml` registry of observability names and env knobs, and the
//! static lock-order graph the runtime lock witness is checked against.
//! See [`rules`] for the rule catalog and DESIGN.md §10 for the narrative
//! version.
//!
//! The crate is dependency-free and exposes everything the binary does so
//! tests (and future tooling) can drive the engine in-process.

pub mod conc;
pub mod diag;
pub mod explain;
pub mod lexer;
pub mod manifest;
pub mod parser;
pub mod rules;

pub use conc::{Analysis, LockEdge};
pub use diag::{Diagnostic, RULE_IDS};
pub use manifest::Manifest;
pub use rules::{check_file, check_sources, extract_names, scope_for_path, ObsName, Scope};

use std::path::{Path, PathBuf};

/// Default manifest location relative to the workspace root.
pub const MANIFEST_PATH: &str = "crates/lint/metrics.toml";

/// Directories scanned below the workspace root: every crate's `src`
/// tree plus the root package's `src`. Crate `tests/` directories,
/// `vendor/`, `examples/` and `target/` are intentionally out of scope.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for entry in entries {
            collect_rs(&entry.join("src"), &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes (diagnostics are stable
/// across platforms and CI).
pub fn relative_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.to_string_lossy().replace('\\', "/")
}

/// Read every workspace source file as `(rel path, contents)` pairs —
/// the unit the interprocedural passes operate on.
pub fn read_workspace_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut sources = Vec::new();
    for file in workspace_files(root)? {
        let src = std::fs::read_to_string(&file)?;
        sources.push((relative_path(root, &file), src));
    }
    Ok(sources)
}

/// Lint every workspace file against `manifest`. The whole file set is
/// checked as one unit so the lock-order graph (C1) sees cross-crate
/// cycles. Returns all findings, waived ones included; I/O errors
/// surface as `Err`.
pub fn check_workspace(root: &Path, manifest: &Manifest) -> std::io::Result<Vec<Diagnostic>> {
    let mut diags = manifest_diagnostics(manifest);
    diags.extend(check_sources(&read_workspace_sources(root)?, manifest));
    Ok(diags)
}

/// Run only the concurrency engine over the workspace: the lock-order
/// graph the serve crate's lock-witness subset test checks against.
pub fn workspace_analysis(root: &Path) -> std::io::Result<Analysis> {
    Ok(rules::analyze_concurrency(&read_workspace_sources(root)?))
}

/// O1 findings against the manifest itself: every registered name must
/// carry a real description (an empty or placeholder one used to render
/// as a "TODO: describe" stub in `--dump-manifest` output and say
/// nothing to an operator reading `/metrics.json`).
pub fn manifest_diagnostics(manifest: &Manifest) -> Vec<Diagnostic> {
    manifest
        .undescribed()
        .into_iter()
        .map(|(section, name, line)| Diagnostic {
            file: MANIFEST_PATH.to_string(),
            line,
            col: 1,
            rule: "O1",
            message: format!("manifest entry \"{name}\" in [{section}] has no description"),
            hint: "write one line saying what the name measures and when it moves; \
                   an empty description documents nothing"
                .to_string(),
            waived: None,
        })
        .collect()
}

/// Extract every observability name in the workspace (non-test code),
/// deduplicated and sorted — the source of truth for `--dump-manifest`.
pub fn extract_workspace_names(root: &Path) -> std::io::Result<Vec<ObsName>> {
    let mut names = Vec::new();
    for file in workspace_files(root)? {
        let src = std::fs::read_to_string(&file)?;
        let rel = relative_path(root, &file);
        names.extend(extract_names(&rel, &src));
    }
    names.sort();
    names.dedup();
    Ok(names)
}
