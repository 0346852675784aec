//! The `metrics.toml` reader against hostile and generated input: any text
//! parses to a manifest or to a `ManifestError` whose line is one of the
//! input's, never a panic; and a well-formed manifest, however it is
//! quoted, commented, indented or line-ended, reads back to exactly the
//! sections and entries it was written from.

use proptest::prelude::*;
use skipper_lint::manifest::Manifest;
use std::collections::BTreeMap;

/// What hostile text is built from: any character of a small mixed set,
/// or a token that steers the reader into its branches.
fn text_piece() -> impl Strategy<Value = String> {
    const CHARS: &[char] = &[
        'a', 'Z', '0', '.', '{', '}', ' ', '\t', '\r', 'é', '∞', '\0',
    ];
    const TOKENS: [&str; 12] = [
        "\n",
        "\r\n",
        "[",
        "]",
        "\"",
        "\\",
        "\\\"",
        "=",
        "#",
        "[counters]",
        "\"a.b\"",
        "name",
    ];
    prop_oneof![
        (0..CHARS.len()).prop_map(|i| CHARS[i].to_string()),
        (0..TOKENS.len()).prop_map(|i| TOKENS[i].to_string()),
    ]
}

const SECTIONS: [&str; 7] = [
    "counters",
    "gauges",
    "histograms",
    "spans",
    "events",
    "env",
    "x.y",
];
const BARE_CHARS: &[char] = &['a', 'q', 'Z', '0', '9', '_', '.', '-', '{', '}'];
const QUOTED_CHARS: &[char] = &[
    'a', 'Z', '1', ' ', '.', '{', '}', '[', ']', '=', '#', '"', '\\', 'é',
];

fn chars(set: &[char], picks: &[usize]) -> String {
    picks.iter().map(|&i| set[i]).collect()
}

/// `s` as a double-quoted string with `\"` and `\\` escaped.
fn quoted(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        if c == '"' || c == '\\' {
            out.push('\\');
        }
        out.push(c);
    }
    out.push('"');
    out
}

/// One entry: key characters, whether the key is quoted, description
/// characters, and how the line is dressed (indent, trailing comment, a
/// comment or blank line before it, CRLF).
type Entry = (Vec<usize>, u8, Vec<usize>, u8);

fn entry() -> impl Strategy<Value = Entry> {
    (
        prop::collection::vec(0..QUOTED_CHARS.len(), 1..10),
        0u8..2,
        prop::collection::vec(0..QUOTED_CHARS.len(), 0..16),
        0u8..16,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whatever text arrives, the reader answers with a manifest or a
    /// typed refusal that points at one of the text's lines.
    #[test]
    fn hostile_text_parses_to_a_typed_result(
        pieces in prop::collection::vec(text_piece(), 0..80),
    ) {
        let text = pieces.concat();
        if let Err(e) = Manifest::parse(&text) {
            let lines = text.lines().count() as u32;
            prop_assert!(
                (1..=lines).contains(&e.line),
                "line {} of {lines} in {text:?}: {}", e.line, e.message
            );
        }
    }

    /// A generated manifest reads back to its sections and entries, each
    /// entry at the line it was written on. Repeated sections merge and a
    /// repeated name keeps its last description, as the reader documents.
    #[test]
    fn well_formed_manifests_parse_back(
        sections in prop::collection::vec(
            (0..SECTIONS.len(), prop::collection::vec(entry(), 0..6)),
            0..6,
        ),
    ) {
        let mut text = String::from("# registry\n");
        let mut line = 1u32;
        let mut want: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
        let mut want_lines = BTreeMap::new();
        for (s, entries) in &sections {
            let section = SECTIONS[*s];
            text.push_str(&format!("[ {section} ]  # section\n"));
            line += 1;
            let map = want.entry(section.to_string()).or_default();
            for (key, quote, value, dress) in entries {
                let key = if *quote == 1 {
                    chars(QUOTED_CHARS, key)
                } else {
                    key.iter().map(|&i| BARE_CHARS[i % BARE_CHARS.len()]).collect()
                };
                let value = chars(QUOTED_CHARS, value);
                if dress & 1 == 1 {
                    text.push_str("   # a \"comment\" = [x]\n\n");
                    line += 2;
                }
                let indent = if dress & 2 == 2 { "\t  " } else { "" };
                let written_key = if *quote == 1 { quoted(&key) } else { key.clone() };
                let comment = if dress & 4 == 4 { " # trailing = \"#\"" } else { "" };
                let end = if dress & 8 == 8 { "\r\n" } else { "\n" };
                text.push_str(&format!("{indent}{written_key} = {}{comment}{end}", quoted(&value)));
                line += 1;
                want_lines.insert((section.to_string(), key.clone()), line);
                map.insert(key, value);
            }
        }
        let parsed = Manifest::parse(&text);
        let Ok(manifest) = parsed else {
            return Err(TestCaseError::Fail(format!("{parsed:?} on {text:?}")));
        };
        prop_assert_eq!(&manifest.sections, &want, "{:?}", text);
        prop_assert_eq!(&manifest.entry_lines, &want_lines, "{:?}", text);
    }
}
