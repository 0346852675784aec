//! `skipper-lint` CLI.
//!
//! ```text
//! cargo run -p skipper-lint                      # lint the workspace
//! cargo run -p skipper-lint -- --explain C1      # rule documentation
//! cargo run -p skipper-lint -- --self-test       # run over the seeded fixtures
//! cargo run -p skipper-lint -- --dump-manifest   # regenerate metrics.toml skeleton
//! ```
//!
//! Exit codes: 0 clean, 1 non-waived diagnostics (or self-test mismatch),
//! 2 usage / IO / manifest errors.

use skipper_lint::{
    check_file, explain::explain, extract_workspace_names, relative_path, workspace_files,
    Manifest, ObsName, RULE_IDS,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    manifest: Option<PathBuf>,
    mode: Mode,
}

enum Mode {
    Check,
    Explain(String),
    ListRules,
    SelfTest,
    DumpManifest,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("skipper-lint: {msg}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.mode {
        Mode::Explain(rule) => return run_explain(rule),
        Mode::ListRules => return run_list_rules(),
        Mode::SelfTest => run_self_test(&args),
        Mode::DumpManifest => run_dump_manifest(&args),
        Mode::Check => run_check(&args),
    };
    match result {
        Ok(code) => code,
        Err(err) => {
            eprintln!("skipper-lint: {err}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
usage: skipper-lint [--root DIR] [--manifest FILE]
                    [--explain RULE | --list-rules | --self-test | --dump-manifest]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        manifest: None,
        mode: Mode::Check,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => args.root = PathBuf::from(take(&mut it, "--root")?),
            "--manifest" => args.manifest = Some(PathBuf::from(take(&mut it, "--manifest")?)),
            "--explain" => args.mode = Mode::Explain(take(&mut it, "--explain")?),
            "--list-rules" => args.mode = Mode::ListRules,
            "--self-test" => args.mode = Mode::SelfTest,
            "--dump-manifest" => args.mode = Mode::DumpManifest,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    // When invoked via `cargo run -p skipper-lint` the CWD is already the
    // workspace root; when invoked from a crate dir, walk up to it.
    if args.root == Path::new(".") && !Path::new("crates").is_dir() {
        if let Some(root) = find_workspace_root() {
            args.root = root;
        }
    }
    Ok(args)
}

fn take(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("crates").is_dir() && dir.join("Cargo.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn run_explain(rule: &str) -> ExitCode {
    match explain(rule) {
        Some(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        None => {
            eprintln!(
                "skipper-lint: unknown rule {rule:?}; known rules: {}",
                RULE_IDS.join(", ")
            );
            ExitCode::from(2)
        }
    }
}

fn run_list_rules() -> ExitCode {
    for rule in RULE_IDS {
        let doc = explain(rule).unwrap_or_default();
        let headline = doc.lines().next().unwrap_or(rule);
        println!("{headline}");
    }
    ExitCode::SUCCESS
}

fn load_manifest(args: &Args) -> Result<Manifest, String> {
    let path = args
        .manifest
        .clone()
        .unwrap_or_else(|| args.root.join(skipper_lint::MANIFEST_PATH));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read manifest {}: {e}", path.display()))?;
    Manifest::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_check(args: &Args) -> Result<ExitCode, String> {
    let manifest = load_manifest(args)?;
    let diags = skipper_lint::check_workspace(&args.root, &manifest)
        .map_err(|e| format!("walking workspace: {e}"))?;
    let active: Vec<_> = diags.iter().filter(|d| d.waived.is_none()).collect();
    let waived = diags.len() - active.len();
    for d in &active {
        print!("{}", d.render_text());
    }
    let files = workspace_files(&args.root)
        .map(|f| f.len())
        .unwrap_or_default();
    println!(
        "skipper-lint: {} file(s), {} violation(s), {} waived site(s)",
        files,
        active.len(),
        waived
    );
    Ok(if active.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run the engine over `crates/lint/tests/fixtures/` and compare against
/// the `//~ ERROR <RULE…>` markers seeded in the fixture files.
fn run_self_test(args: &Args) -> Result<ExitCode, String> {
    let manifest = load_manifest(args)?;
    let dir = args.root.join("crates/lint/tests/fixtures");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    entries.sort();
    let mut failures = Vec::new();
    let mut checked = 0usize;
    for path in &entries {
        let src = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let rel = relative_path(&args.root, path);
        let mut expected: BTreeMap<(u32, String), usize> = BTreeMap::new();
        for (idx, line) in src.lines().enumerate() {
            if let Some(at) = line.find("//~ ERROR") {
                for rule in line[at + "//~ ERROR".len()..].split_whitespace() {
                    *expected
                        .entry((idx as u32 + 1, rule.to_string()))
                        .or_default() += 1;
                }
            }
        }
        let mut actual: BTreeMap<(u32, String), usize> = BTreeMap::new();
        for d in check_file(&rel, &src, &manifest) {
            if d.waived.is_none() {
                *actual.entry((d.line, d.rule.to_string())).or_default() += 1;
            }
        }
        checked += expected.values().sum::<usize>();
        for (key, want) in &expected {
            let got = actual.get(key).copied().unwrap_or_default();
            if got != *want {
                failures.push(format!(
                    "{rel}:{}: expected {want} {} diagnostic(s), got {got}",
                    key.0, key.1
                ));
            }
        }
        for (key, got) in &actual {
            if !expected.contains_key(key) {
                failures.push(format!(
                    "{rel}:{}: unexpected {} diagnostic ({got} site(s))",
                    key.0, key.1
                ));
            }
        }
    }
    if failures.is_empty() {
        println!(
            "skipper-lint self-test: {} fixture file(s), {} seeded diagnostic(s), all matched",
            entries.len(),
            checked
        );
        Ok(ExitCode::SUCCESS)
    } else {
        for f in &failures {
            eprintln!("self-test: {f}");
        }
        eprintln!("skipper-lint self-test: {} mismatch(es)", failures.len());
        Ok(ExitCode::FAILURE)
    }
}

/// Print a manifest skeleton regenerated from the code: every
/// observability name the workspace currently emits, with descriptions
/// carried over from the committed manifest when present.
fn run_dump_manifest(args: &Args) -> Result<ExitCode, String> {
    let old = load_manifest(args).unwrap_or_default();
    let names =
        extract_workspace_names(&args.root).map_err(|e| format!("walking workspace: {e}"))?;
    println!("# Regenerated by `skipper-lint --dump-manifest`; descriptions are");
    println!("# hand-maintained and survive regeneration when names persist.");
    for section in ["counters", "gauges", "histograms", "spans", "events", "env"] {
        println!("\n[{section}]");
        for name in names.iter().filter(|n: &&ObsName| n.section == section) {
            // New names get an empty description — which the next lint
            // run flags as an O1 violation, forcing a real sentence
            // instead of shipping a "TODO: describe" placeholder.
            let desc = old
                .sections
                .values()
                .find_map(|s| s.get(&name.name))
                .cloned()
                .unwrap_or_default();
            println!("\"{}\" = \"{}\"", name.name, desc.replace('"', "\\\""));
        }
    }
    Ok(ExitCode::SUCCESS)
}
