//! The six Skipper-specific rules and the check drivers.
//!
//! | id | category      | scope | invariant |
//! |----|---------------|-------|-----------|
//! | D2 | `float-order` | sharded gradient path | no free-form float reductions |
//! | O1 | `metric`      | everywhere | metric/span names must be declared in `metrics.toml` |
//! | O2 | `env`         | everywhere | `SKIPPER_*` env knobs must be declared in `metrics.toml` |
//! | C1 | `lock-order`  | everywhere | the global lock-order graph must be acyclic |
//! | C2 | `blocking`    | everywhere | no lock held across a blocking call, even through calls |
//! | W1 | `waiver`      | everywhere | every `lint:allow` must still waive a live finding |
//!
//! The panic policy, `unsafe` hygiene and the numeric core's ban on hash
//! containers and wall clocks are clippy's (DESIGN.md §10): `clippy.toml`,
//! `[workspace.lints]` and the `#![deny(...)]` attributes in each library
//! crate's `lib.rs` and core's numeric modules.
//!
//! D2, O1 and O2 are token-local and run per file; C1/C2 run on the
//! interprocedural engine in [`crate::conc`] (block parser, call graph,
//! lock summaries) and need the whole file set to see cross-crate cycles;
//! W1 runs last, over the waiver-usage bookkeeping the other rules left
//! behind.
//!
//! Waivers are **per-site**: a `// lint:allow(<rule-or-category>): <reason>`
//! line comment on the offending line or the line directly above it. The
//! reason is mandatory; blanket per-file waivers do not exist on purpose.
//! W1 closes the loop: a waiver whose rule no longer fires on its site is
//! itself a violation, so waivers cannot outlive the code they excused.
//!
//! Test code (`#[cfg(test)]` / `#[test]` items) is exempt from every rule.

use crate::conc::{self, Analysis, ConcFile};
use crate::diag::Diagnostic;
use crate::lexer::{lex, test_regions, Tok, TokKind};
use crate::manifest::Manifest;
use std::collections::{BTreeMap, BTreeSet};

/// Which rule families apply to one file.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scope {
    /// D2: fixed-order float accumulation.
    pub float_order: bool,
    /// O1/O2: observability name registries.
    pub observability: bool,
    /// C1/C2: lock-order and blocking-call discipline.
    pub concurrency: bool,
    /// W1: stale-waiver hygiene.
    pub waiver_hygiene: bool,
}

/// `crates/core/src` files that are part of the numeric core (D2), in
/// addition to all of `crates/autograd/src` and `crates/snn/src`.
pub const CORE_NUMERIC_FILES: [&str; 6] = [
    "engine.rs",
    "shard.rs",
    "checkpoint.rs",
    "sam.rs",
    "windowed.rs",
    "lbp.rs",
];

/// Compute the rule scope for a workspace-relative path (forward slashes).
pub fn scope_for_path(rel: &str) -> Scope {
    let numeric = rel.starts_with("crates/autograd/src/")
        || rel.starts_with("crates/snn/src/")
        || CORE_NUMERIC_FILES
            .iter()
            .any(|f| rel == format!("crates/core/src/{f}"));
    Scope {
        float_order: numeric,
        observability: true,
        concurrency: true,
        waiver_hygiene: true,
    }
}

/// Fixture files opt into scopes explicitly via a first-line header
/// comment: `// lint-fixture: scope=d2,o1,o2,c1,c2,w1` (or
/// `scope=all`). Honored only for paths containing `fixtures` so
/// production files can never scope themselves down.
fn fixture_scope(rel: &str, toks: &[Tok]) -> Option<Scope> {
    if !rel.contains("fixtures") {
        return None;
    }
    let header = toks
        .iter()
        .take_while(|t| t.is_comment())
        .find(|t| t.text.trim_start().starts_with("lint-fixture:"))?;
    let spec = header.text.trim_start();
    let spec = spec.strip_prefix("lint-fixture:")?.trim();
    let list = spec.strip_prefix("scope=")?;
    let mut scope = Scope::default();
    for part in list.split(',') {
        match part.trim() {
            "d2" => scope.float_order = true,
            "o1" | "o2" => scope.observability = true,
            "c1" | "c2" => scope.concurrency = true,
            "w1" => scope.waiver_hygiene = true,
            "all" => {
                scope = Scope {
                    float_order: true,
                    observability: true,
                    concurrency: true,
                    waiver_hygiene: true,
                }
            }
            _ => {}
        }
    }
    Some(scope)
}

/// An observability name extracted from source (for `--dump-manifest`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ObsName {
    /// Manifest section: `counters`, `gauges`, `histograms`, `spans`,
    /// `events` or `env`.
    pub section: &'static str,
    /// Normalized name (`family{label}` for labelled metrics).
    pub name: String,
}

/// Lint one file in isolation; `rel` must use forward slashes. The
/// concurrency pass sees only this file, so cross-file cycles need
/// [`check_sources`]. Returns all findings, including waived ones
/// (callers decide whether waived findings fail).
pub fn check_file(rel: &str, src: &str, manifest: &Manifest) -> Vec<Diagnostic> {
    check_sources(&[(rel.to_string(), src.to_string())], manifest)
}

/// Lint a file set as one unit: token rules per file, then the
/// interprocedural concurrency pass over all files together (C1 cycles
/// may span crates), then stale-waiver hygiene once every rule has had
/// its chance to use a waiver.
pub fn check_sources(files: &[(String, String)], manifest: &Manifest) -> Vec<Diagnostic> {
    let lexed: Vec<(&str, Vec<Tok>, Scope)> = files
        .iter()
        .map(|(rel, src)| {
            let toks = lex(src);
            let scope = fixture_scope(rel, &toks).unwrap_or_else(|| scope_for_path(rel));
            (rel.as_str(), toks, scope)
        })
        .collect();
    let mut ctxs: Vec<FileCtx> = lexed
        .iter()
        .map(|(rel, toks, _)| FileCtx::new(rel, toks))
        .collect();
    for (ctx, (_, _, scope)) in ctxs.iter_mut().zip(&lexed) {
        ctx.run(*scope, manifest, None);
    }
    let analysis = {
        let inputs: Vec<ConcFile> = ctxs
            .iter()
            .zip(&lexed)
            .map(|(ctx, (rel, toks, _))| ConcFile {
                rel,
                toks,
                test_ranges: &ctx.test_ranges,
            })
            .collect();
        conc::analyze(&inputs)
    };
    for f in &analysis.findings {
        if !lexed[f.file_idx].2.concurrency {
            continue;
        }
        let category = if f.rule == "C1" {
            "lock-order"
        } else {
            "blocking"
        };
        ctxs[f.file_idx].push_at(f.line, f.col, f.rule, category, f.message.clone(), &f.hint);
    }
    for (ctx, (_, _, scope)) in ctxs.iter_mut().zip(&lexed) {
        if scope.waiver_hygiene {
            ctx.rule_w1();
        }
    }
    let mut diags: Vec<Diagnostic> = ctxs.into_iter().flat_map(|c| c.diags).collect();
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    diags
}

/// Run only the concurrency engine over a file set and return the raw
/// analysis (lock-order graph + findings). This is what
/// the serve crate's lock-witness subset test consumes.
pub fn analyze_concurrency(files: &[(String, String)]) -> Analysis {
    type Lexed<'a> = (&'a str, Vec<Tok>, Vec<(usize, usize)>);
    let lexed: Vec<Lexed> = files
        .iter()
        .map(|(rel, src)| {
            let toks = lex(src);
            let ranges = test_regions(&toks);
            (rel.as_str(), toks, ranges)
        })
        .collect();
    let inputs: Vec<ConcFile> = lexed
        .iter()
        .map(|(rel, toks, test_ranges)| ConcFile {
            rel,
            toks,
            test_ranges,
        })
        .collect();
    conc::analyze(&inputs)
}

/// Extract every observability name from one file (non-test code only).
pub fn extract_names(rel: &str, src: &str) -> Vec<ObsName> {
    let toks = lex(src);
    let mut ctx = FileCtx::new(rel, &toks);
    let mut names = Vec::new();
    ctx.run(Scope::default(), &Manifest::default(), Some(&mut names));
    names
}

/// Waiver keys W1 understands: rule ids and category names. Anything
/// else inside `lint:allow(…)` is treated as prose (docs showing the
/// syntax with a `<placeholder>` key must not trip the rule).
const WAIVER_KEYS: [&str; 12] = [
    "d2",
    "o1",
    "o2",
    "c1",
    "c2",
    "w1",
    "float-order",
    "metric",
    "env",
    "lock-order",
    "blocking",
    "waiver",
];

/// Per-file state shared by the rules.
struct FileCtx<'a> {
    rel: &'a str,
    toks: &'a [Tok],
    /// Indices of non-comment tokens, in order.
    code: Vec<usize>,
    /// Token-index ranges covered by `#[cfg(test)]` / `#[test]`.
    test_ranges: Vec<(usize, usize)>,
    /// Comment text per starting line, for waiver lookup.
    comments: BTreeMap<u32, String>,
    /// `(comment line, key)` pairs of waivers that matched a finding —
    /// the ground truth W1 checks stale waivers against.
    used_waivers: BTreeSet<(u32, String)>,
    diags: Vec<Diagnostic>,
}

impl<'a> FileCtx<'a> {
    fn new(rel: &'a str, toks: &'a [Tok]) -> FileCtx<'a> {
        let code: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();
        let mut comments: BTreeMap<u32, String> = BTreeMap::new();
        for t in toks.iter().filter(|t| t.is_comment()) {
            let slot = comments.entry(t.line).or_default();
            slot.push(' ');
            slot.push_str(&t.text);
        }
        FileCtx {
            rel,
            toks,
            code,
            test_ranges: test_regions(toks),
            comments,
            used_waivers: BTreeSet::new(),
            diags: Vec::new(),
        }
    }

    fn in_test(&self, tok_idx: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|(s, e)| tok_idx >= *s && tok_idx <= *e)
    }

    /// Code token at code-position `p` (None past the end).
    fn ct(&self, p: usize) -> Option<&Tok> {
        self.code.get(p).map(|i| &self.toks[*i])
    }

    /// `// lint:allow(key): reason` on `line` or the line above; accepts
    /// the rule id or its category name as the key (case-insensitive).
    /// A match is recorded in `used_waivers` so W1 can flag the rest.
    fn waiver(&mut self, line: u32, rule: &str, category: &str) -> Option<String> {
        for l in [line, line.saturating_sub(1)] {
            let Some(text) = self.comments.get(&l).cloned() else {
                continue;
            };
            let mut rest = text.as_str();
            while let Some(at) = rest.find("lint:allow(") {
                rest = &rest[at + "lint:allow(".len()..];
                let Some(close) = rest.find(')') else { break };
                let key = rest[..close].trim().to_ascii_lowercase();
                let after = rest[close + 1..].trim_start();
                let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
                if (key == rule.to_ascii_lowercase() || key == category) && !reason.is_empty() {
                    // The reason runs to the end of the comment line.
                    self.used_waivers.insert((l, key));
                    return Some(reason.to_string());
                }
            }
        }
        None
    }

    fn push(&mut self, tok: &Tok, rule: &'static str, category: &str, message: String, hint: &str) {
        self.push_at(tok.line, tok.col, rule, category, message, hint);
    }

    fn push_at(
        &mut self,
        line: u32,
        col: u32,
        rule: &'static str,
        category: &str,
        message: String,
        hint: &str,
    ) {
        let waived = self.waiver(line, rule, category);
        self.diags.push(Diagnostic {
            file: self.rel.to_string(),
            line,
            col,
            rule,
            message,
            hint: hint.to_string(),
            waived,
        });
    }

    fn run(&mut self, scope: Scope, manifest: &Manifest, mut dump: Option<&mut Vec<ObsName>>) {
        let extracting = dump.is_some();
        for p in 0..self.code.len() {
            let idx = self.code[p];
            if self.in_test(idx) {
                continue;
            }
            let tok = &self.toks[idx];
            if scope.float_order && !extracting {
                self.rule_d2(p);
            }
            if scope.observability || extracting {
                self.rule_o1(p, manifest, dump.as_deref_mut());
                if tok.kind == TokKind::Str {
                    self.rule_o2(p, manifest, dump.as_deref_mut());
                }
            }
        }
    }

    // --- D2: float accumulation ------------------------------------------

    fn rule_d2(&mut self, p: usize) {
        let Some(tok) = self.ct(p).cloned() else {
            return;
        };
        if tok.kind != TokKind::Ident || !(p > 0 && self.ct(p - 1).is_some_and(|t| t.is_punct('.')))
        {
            return;
        }
        let hit = match tok.text.as_str() {
            "sum" | "product" => {
                // `.sum::<f32>()` / `.product::<f64>()`.
                self.ct(p + 1).is_some_and(|t| t.is_punct(':'))
                    && self.ct(p + 2).is_some_and(|t| t.is_punct(':'))
                    && self.ct(p + 3).is_some_and(|t| t.is_punct('<'))
                    && self
                        .ct(p + 4)
                        .is_some_and(|t| t.is_ident("f32") || t.is_ident("f64"))
            }
            "fold" => {
                // `.fold(0.0, …)` / `.fold(0f32, …)`: float seed.
                self.ct(p + 1).is_some_and(|t| t.is_punct('('))
                    && self.ct(p + 2).is_some_and(|t| {
                        t.kind == TokKind::Num
                            && (t.text.contains('.')
                                || t.text.contains("f32")
                                || t.text.contains("f64"))
                    })
            }
            _ => return,
        };
        if !hit {
            return;
        }
        self.push(
            &tok,
            "D2",
            "float-order",
            format!(
                ".{}() float accumulation on the sharded gradient path",
                tok.text
            ),
            "accumulation order is part of the determinism contract; route through the \
             fixed-order pairwise tree reduction (crates/core/src/shard.rs `tree_reduce`) \
             or waive with the ordering argument: `// lint:allow(float-order): <reason>`",
        );
    }

    // --- O1: metric / span name registry ----------------------------------

    fn rule_o1(&mut self, p: usize, manifest: &Manifest, dump: Option<&mut Vec<ObsName>>) {
        let Some(tok) = self.ct(p).cloned() else {
            return;
        };
        if tok.kind != TokKind::Ident {
            return;
        }
        // Skip definitions (`fn observe(...)`) — only call sites matter.
        if p > 0 && self.ct(p - 1).is_some_and(|t| t.is_ident("fn")) {
            return;
        }
        let (section, name, name_tok): (&'static str, String, Tok) = match tok.text.as_str() {
            "counter_add"
            | "gauge_set"
            | "observe"
            | "observe_with_exemplar"
            | "register_histogram" => {
                let section = match tok.text.as_str() {
                    "counter_add" => "counters",
                    "gauge_set" => "gauges",
                    _ => "histograms",
                };
                let Some((name, nt)) = self.first_literal_arg(p) else {
                    return;
                };
                (section, normalize_metric(&name), nt)
            }
            "labeled" => {
                let Some((family, nt)) = self.first_literal_arg(p) else {
                    return;
                };
                let label = self.second_literal_arg(p);
                let name = match label {
                    Some(l) => format!("{family}{{{l}}}"),
                    None => family,
                };
                ("labeled", name, nt)
            }
            "span" | "instant" => {
                if !self.ct(p + 1).is_some_and(|t| t.is_punct('!')) {
                    return;
                }
                let Some((name, nt)) = self.first_string_in_call(p + 2) else {
                    return;
                };
                let section = if tok.text == "span" {
                    "spans"
                } else {
                    "events"
                };
                (section, name, nt)
            }
            _ => return,
        };
        if let Some(dump) = dump {
            dump.push(ObsName {
                section: if section == "labeled" {
                    "gauges"
                } else {
                    section
                },
                name,
            });
            return;
        }
        let declared = if section == "labeled" {
            // A `labeled()` family may be a gauge or a histogram.
            manifest.declares_metric(&name)
        } else {
            manifest.declares(section, &name)
        };
        if declared {
            return;
        }
        let where_ = match section {
            "labeled" => "any metric section of".to_string(),
            s => format!("[{s}] in"),
        };
        self.push(
            &name_tok,
            "O1",
            "metric",
            format!("observability name \"{name}\" is not declared in {where_} crates/lint/metrics.toml"),
            "a typo'd or undocumented name silently forks the registry; declare it in the \
             manifest and DESIGN.md \u{a7}8.5, or fix the spelling",
        );
    }

    /// `ident(` with args starting `[&] "literal"` → the literal.
    fn first_literal_arg(&self, p: usize) -> Option<(String, Tok)> {
        if !self.ct(p + 1)?.is_punct('(') {
            return None;
        }
        let mut q = p + 2;
        if self.ct(q)?.is_punct('&') {
            q += 1;
        }
        let t = self.ct(q)?;
        if t.kind == TokKind::Str {
            Some((t.text.clone(), t.clone()))
        } else {
            None
        }
    }

    /// Second argument of `ident(a, b, …)` when it is `[&] "literal"`.
    fn second_literal_arg(&self, p: usize) -> Option<String> {
        if !self.ct(p + 1)?.is_punct('(') {
            return None;
        }
        let mut depth = 1usize;
        let mut q = p + 2;
        while depth > 0 {
            let t = self.ct(q)?;
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if t.is_punct(',') && depth == 1 {
                let mut r = q + 1;
                if self.ct(r)?.is_punct('&') {
                    r += 1;
                }
                let t = self.ct(r)?;
                return if t.kind == TokKind::Str {
                    Some(t.text.clone())
                } else {
                    None
                };
            }
            q += 1;
        }
        None
    }

    /// First string literal inside a call whose `(` is at code-pos `open`.
    fn first_string_in_call(&self, open: usize) -> Option<(String, Tok)> {
        if !self.ct(open)?.is_punct('(') {
            return None;
        }
        let mut depth = 1usize;
        let mut q = open + 1;
        while depth > 0 {
            let t = self.ct(q)?;
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
            } else if t.kind == TokKind::Str {
                return Some((t.text.clone(), t.clone()));
            }
            q += 1;
        }
        None
    }

    // --- O2: env knob registry --------------------------------------------

    fn rule_o2(&mut self, p: usize, manifest: &Manifest, dump: Option<&mut Vec<ObsName>>) {
        let Some(tok) = self.ct(p).cloned() else {
            return;
        };
        if !is_env_knob(&tok.text) {
            return;
        }
        if let Some(dump) = dump {
            dump.push(ObsName {
                section: "env",
                name: tok.text.clone(),
            });
            return;
        }
        if manifest.declares("env", &tok.text) {
            return;
        }
        self.push(
            &tok,
            "O2",
            "env",
            format!(
                "environment knob \"{}\" is not declared in [env] of crates/lint/metrics.toml",
                tok.text
            ),
            "an undeclared knob is usually a typo (SKIPPER_OBS_ADR-class) and always \
             undocumented; declare it in the manifest and the README knob table",
        );
    }

    // --- W1: stale waivers -------------------------------------------------

    /// Flag every `lint:allow(key)` with a *known* key that waived
    /// nothing. Runs after all other rules so `used_waivers` is complete.
    /// Keys that are not rule ids/categories are prose (docs quoting the
    /// syntax); `waiver`/`w1` keys are meta and never GC'd — flagging a
    /// waiver-of-a-waiver as stale in the same pass that makes it used
    /// would be order-dependent.
    fn rule_w1(&mut self) {
        let comment_toks: Vec<(usize, u32, u32, String)> = self
            .toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_comment())
            .map(|(i, t)| (i, t.line, t.col, t.text.clone()))
            .collect();
        for (idx, line, col, text) in comment_toks {
            if self.in_test(idx) {
                continue; // Rules don't fire in tests; their waivers are decor.
            }
            let mut rest = text.as_str();
            while let Some(at) = rest.find("lint:allow(") {
                rest = &rest[at + "lint:allow(".len()..];
                let Some(close) = rest.find(')') else { break };
                let key = rest[..close].trim().to_ascii_lowercase();
                rest = &rest[close + 1..];
                if !WAIVER_KEYS.contains(&key.as_str()) || key == "w1" || key == "waiver" {
                    continue;
                }
                if self.used_waivers.contains(&(line, key.clone())) {
                    continue;
                }
                self.push_at(
                    line,
                    col,
                    "W1",
                    "waiver",
                    format!(
                        "stale waiver: `lint:allow({key})` matches no finding on this line \
                         or the line below"
                    ),
                    "either the rule no longer fires here or the waiver lacks its mandatory \
                     `: <reason>`; delete the comment or repair the reason",
                );
            }
        }
    }
}

/// Full-literal match for `SKIPPER_[A-Z0-9_]+`.
fn is_env_knob(s: &str) -> bool {
    let Some(rest) = s.strip_prefix("SKIPPER_") else {
        return false;
    };
    !rest.is_empty()
        && rest
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// Normalize a literal metric key: `name{key=value}` → `name{key}`.
fn normalize_metric(name: &str) -> String {
    let Some(open) = name.find('{') else {
        return name.to_string();
    };
    let family = &name[..open];
    let inner = name[open..].trim_start_matches('{').trim_end_matches('}');
    let key = inner.split(',').next().unwrap_or("");
    let key = key.split('=').next().unwrap_or("").trim();
    format!("{family}{{{key}}}")
}
