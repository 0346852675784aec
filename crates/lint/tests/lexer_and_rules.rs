//! In-process tests of the lexer and rule engine: tricky token streams,
//! exact diagnostic positions, waiver semantics and manifest parsing.

use skipper_lint::lexer::{lex, test_regions, TokKind};
use skipper_lint::{check_file, Manifest};

/// A manifest with just enough declared names for the rule tests.
fn manifest() -> Manifest {
    Manifest::parse(
        r#"
[counters]
"skipper.steps_skipped" = "steps dropped"
[gauges]
"engine.queue_depth{worker}" = "per-worker backlog"
[spans]
"iteration" = "one train_batch"
[events]
"skip_decision" = "per-step decision"
[env]
"SKIPPER_WORKERS" = "pool size"
"#,
    )
    .expect("test manifest parses")
}

/// `check_file` against a path inside the numeric core, where every rule
/// is armed, returning non-waived `(line, rule)` pairs.
fn findings(src: &str) -> Vec<(u32, &'static str)> {
    let diags = check_file("crates/core/src/engine.rs", src, &manifest());
    diags
        .iter()
        .filter(|d| d.waived.is_none())
        .map(|d| (d.line, d.rule))
        .collect()
}

// --- lexer ---------------------------------------------------------------

#[test]
fn raw_strings_swallow_quotes_and_hashes() {
    let toks = lex(r####"let x = r##"quoted "#end"# text"## ;"####);
    let strs: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Str).collect();
    assert_eq!(strs.len(), 1);
    assert!(strs[0].text.contains(r##""#end"#"##));
}

#[test]
fn nested_block_comments_stay_comments() {
    let src = "a /* outer /* inner */ still outer */ b";
    let toks = lex(src);
    let idents: Vec<&str> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(idents, ["a", "b"]);
    assert_eq!(toks.iter().filter(|t| t.is_comment()).count(), 1);
}

#[test]
fn lifetimes_are_not_char_literals() {
    let toks = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
    assert_eq!(
        toks.iter().filter(|t| t.kind == TokKind::Lifetime).count(),
        2
    );
    assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 1);
}

#[test]
fn escaped_quote_chars_do_not_desync() {
    let toks = lex(r"let q = '\''; let s = 'x'; after");
    assert!(toks.iter().any(|t| t.is_ident("after")));
    assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 2);
}

#[test]
fn raw_identifiers_keep_their_prefix() {
    let toks = lex("let r#unsafe = 1; r#type");
    assert!(toks.iter().any(|t| t.is_ident("r#unsafe")));
    assert!(toks.iter().any(|t| t.is_ident("r#type")));
    assert!(!toks.iter().any(|t| t.is_ident("unsafe")));
}

#[test]
fn positions_are_one_based_lines_and_columns() {
    let toks = lex("ab\n  cd");
    let cd = toks.iter().find(|t| t.is_ident("cd")).unwrap();
    assert_eq!((cd.line, cd.col), (2, 3));
}

#[test]
fn cfg_test_module_region_covers_its_body() {
    let src = "fn a() {}\n#[cfg(test)]\nmod tests { fn b() { x.unwrap(); } }\nfn c() {}";
    let toks = lex(src);
    let regions = test_regions(&toks);
    assert_eq!(regions.len(), 1);
    let unwrap_idx = toks.iter().position(|t| t.is_ident("unwrap")).unwrap();
    let c_idx = toks.iter().position(|t| t.is_ident("c")).unwrap();
    let (s, e) = regions[0];
    assert!(unwrap_idx >= s && unwrap_idx <= e, "unwrap is inside");
    assert!(c_idx > e, "fn c is outside");
}

// --- rules: exact positions ----------------------------------------------

#[test]
fn string_embedded_unwrap_does_not_fire() {
    // Rule-shaped text inside string literals is data, not code.
    let src = "pub fn f() -> &'static str {\n    \"please .unwrap() or .sum::<f32>() me\"\n}\n";
    assert_eq!(findings(src), []);
    let raw = "pub fn f() -> String {\n    r#\"v.iter().sum::<f32>(); m.counter_add(\"x.undeclared\", 1)\"#.into()\n}\n";
    assert_eq!(findings(raw), []);
}

#[test]
fn commented_out_violations_do_not_fire() {
    let src = "// v.iter().sum::<f32>()\n/* m.counter_add(\"x.undeclared\", 1) */\npub fn f() {}\n";
    assert_eq!(findings(src), []);
}

#[test]
fn cfg_test_code_is_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n    fn f(v: &[f32]) -> f32 {\n        let _ = std::env::var(\"SKIPPER_BOGUS\");\n        v.iter().sum::<f32>()\n    }\n}\n";
    assert_eq!(findings(src), []);
}

#[test]
fn d2_fires_on_float_sums_only() {
    let src = "fn f(v: &[f32], n: &[usize]) -> f32 {\n    let a = v.iter().copied().sum::<f32>();\n    let b = n.iter().copied().sum::<usize>();\n    a + b as f32\n}\n";
    assert_eq!(findings(src), [(2, "D2")]);
}

#[test]
fn o1_checks_names_against_the_manifest() {
    let src = "fn f(m: &M) {\n    m.counter_add(\"skipper.steps_skipped\", 1);\n    m.counter_add(\"skipper.steps_skiped\", 1);\n}\n";
    assert_eq!(findings(src), [(3, "O1")]);
}

#[test]
fn o2_checks_whole_literal_knobs_only() {
    let src = "fn f() {\n    let _ = std::env::var(\"SKIPPER_WORKERS\");\n    let _ = std::env::var(\"SKIPPER_BOGUS\");\n    let _ = \"mentions SKIPPER_BOGUS inside prose\";\n}\n";
    assert_eq!(findings(src), [(3, "O2")]);
}

// --- waivers --------------------------------------------------------------

#[test]
fn waiver_with_reason_downgrades_the_finding() {
    let src = "fn f(v: &[f32]) -> f32 {\n    // lint:allow(float-order): shard-local fold in a fixed order\n    v.iter().sum::<f32>()\n}\n";
    let diags = check_file("crates/core/src/engine.rs", src, &manifest());
    assert_eq!(diags.len(), 1);
    assert_eq!(
        diags[0].waived.as_deref(),
        Some("shard-local fold in a fixed order")
    );
}

#[test]
fn waiver_without_reason_does_not_count() {
    // The finding stays active, and W1 flags the dead waiver itself.
    let src =
        "fn f(v: &[f32]) -> f32 {\n    // lint:allow(float-order)\n    v.iter().sum::<f32>()\n}\n";
    assert_eq!(findings(src), [(2, "W1"), (3, "D2")]);
}

#[test]
fn waiver_for_the_wrong_rule_does_not_count() {
    let src = "fn f(v: &[f32]) -> f32 {\n    // lint:allow(blocking): wrong category\n    v.iter().sum::<f32>()\n}\n";
    assert_eq!(findings(src), [(2, "W1"), (3, "D2")]);
}

#[test]
fn waiver_two_lines_away_does_not_count() {
    let src = "fn f(v: &[f32]) -> f32 {\n    // lint:allow(float-order): too far away\n\n    v.iter().sum::<f32>()\n}\n";
    assert_eq!(findings(src), [(2, "W1"), (4, "D2")]);
}

// --- scope ----------------------------------------------------------------

#[test]
fn scope_is_path_dependent() {
    let m = manifest();
    // D2 applies in the numeric core, not in the obs crate.
    let sum = "fn f(v: &[f32]) -> f32 { v.iter().sum::<f32>() }\n";
    assert_eq!(check_file("crates/core/src/engine.rs", sum, &m).len(), 1);
    assert_eq!(check_file("crates/snn/src/network.rs", sum, &m).len(), 1);
    assert_eq!(check_file("crates/core/src/runner.rs", sum, &m).len(), 0);
    assert_eq!(check_file("crates/obs/src/metrics.rs", sum, &m).len(), 0);
    // The registries apply everywhere: library, binary and root harness.
    let knob = "fn f() { let _ = std::env::var(\"SKIPPER_BOGUS\"); }\n";
    assert_eq!(check_file("crates/obs/src/lib.rs", knob, &m).len(), 1);
    assert_eq!(check_file("crates/obs/src/bin/demo.rs", knob, &m).len(), 1);
    assert_eq!(check_file("src/main.rs", knob, &m).len(), 1);
}

#[test]
fn production_files_cannot_scope_themselves_down() {
    let src = "// lint-fixture: scope=o2\nfn f(v: &[f32]) -> f32 { v.iter().sum::<f32>() }\n";
    // The header is honored only under a fixtures/ path.
    assert_eq!(
        check_file("crates/core/src/engine.rs", src, &manifest()).len(),
        1
    );
    assert_eq!(
        check_file("crates/lint/tests/fixtures/x.rs", src, &manifest()).len(),
        0
    );
}

// --- manifest -------------------------------------------------------------

#[test]
fn manifest_parses_sections_and_labeled_families() {
    let m = manifest();
    assert!(m.declares("counters", "skipper.steps_skipped"));
    assert!(m.declares("gauges", "engine.queue_depth{worker}"));
    assert!(m.declares_metric("engine.queue_depth{worker}"));
    assert!(!m.declares("counters", "nope"));
    assert!(m.declares("env", "SKIPPER_WORKERS"));
}

#[test]
fn manifest_rejects_malformed_lines() {
    assert!(Manifest::parse("[counters]\nno equals sign here\n").is_err());
}

#[test]
fn manifest_ignores_comments_and_blank_lines() {
    let m = Manifest::parse("# header\n\n[env]\n# inline section comment\n\"SKIPPER_X\" = \"y\"\n")
        .expect("parses");
    assert!(m.declares("env", "SKIPPER_X"));
}
