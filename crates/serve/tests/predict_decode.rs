//! `PredictRequest::from_json` against its reference, the serde derive
//! behind `serde_json::from_str::<PredictRequest>`.
//!
//! The contract: on any UTF-8 body, either both decoders return `Ok` with
//! equal fields (`inputs` compared by bits) or both return `Err`; a body
//! that is not UTF-8 is an `Err`. Generated bodies start from a
//! `serde_json::to_string` rendering and are then perturbed: whitespace,
//! key order, unknown keys with nested values, duplicate keys, numbers in
//! other notations, and — marked destructive — truncation, corrupted
//! bytes, mistyped duplicates, malformed numbers or whitespace, and
//! unknown values nested past `serde_json::RECURSION_LIMIT`.

use proptest::prelude::*;
use proptest::TestRng;
use skipper_serve::PredictRequest;

/// Tenant characters: JSON escapes, a control character, non-ASCII.
const TENANT_CHARS: [char; 10] = ['a', 'Z', '"', '\\', '/', '\n', '\u{1}', 'é', '雪', '😀'];

/// Spike values plus the edge cases of the f32 ↔ f64 ↔ text round trip.
const VALUES: [f32; 11] = [
    0.0, 1.0, -0.0, 0.1, 1e-45, 3.4e38, 2.0, -3.0, 7.0, 1e10, -1e-7,
];

fn request() -> impl Strategy<Value = PredictRequest> {
    (
        prop::collection::vec(0..TENANT_CHARS.len(), 0..6),
        0usize..4,
        prop::collection::vec(0usize..4, 0..4),
        prop::collection::vec(0..VALUES.len(), 0..24),
        0u64..4,
    )
        .prop_map(
            |(chars, timesteps, shape, picks, deadline)| PredictRequest {
                tenant: chars.iter().map(|&i| TENANT_CHARS[i]).collect(),
                timesteps,
                shape,
                inputs: picks.iter().map(|&i| VALUES[i]).collect(),
                deadline_ms: (deadline > 0).then_some(deadline * 25),
            },
        )
}

fn pick<'a>(rng: &mut TestRng, items: &[&'a str]) -> &'a str {
    items[rng.below(items.len() as u64) as usize]
}

/// Usually nothing; sometimes a run of JSON whitespace.
fn ws(rng: &mut TestRng) -> String {
    if rng.below(3) > 0 {
        return String::new();
    }
    (0..1 + rng.below(3))
        .map(|_| pick(rng, &[" ", "\t", "\n", "\r", "\x0c"]))
        .collect()
}

/// `v` in a notation chosen at random; every notation gives back `v`'s
/// bits through either decoder.
fn number_text(rng: &mut TestRng, v: f32) -> String {
    let wide = v as f64;
    match rng.below(4) {
        0 => format!("{wide:e}"),
        1 => format!("{wide:E}"),
        // `-0` reads as the integer 0, which is +0.0: only non-negative
        // zero and other integral values may take the integer form.
        2 if v.fract() == 0.0 && v.abs() < 1e15 && !(v == 0.0 && v.is_sign_negative()) => {
            format!("{}", wide as i64)
        }
        _ => serde_json::to_string(&v).unwrap(),
    }
}

/// A well-formed JSON value of any type, nested up to `depth` levels
/// (plus one bracket run), for unknown keys and mistyped duplicates. A
/// quarter of the bracket runs are long enough that the body's nesting
/// straddles `serde_json::RECURSION_LIMIT`.
fn any_value(rng: &mut TestRng, depth: u32) -> String {
    match rng.below(if depth == 0 { 5 } else { 7 }) {
        0 => pick(rng, &["null", "true", "false"]).to_string(),
        1 => pick(rng, &["0", "-12", "3.5e-3", "1E+2", "18446744073709551615"]).to_string(),
        2 => serde_json::to_string(&pick(rng, &["", "x", "\u{0}\"\\", "ü雪"])).unwrap(),
        3 => {
            let n = match rng.below(4) {
                0 => serde_json::RECURSION_LIMIT - 5 + rng.below(6) as usize,
                _ => 1 + rng.below(48) as usize,
            };
            format!("{}{}", "[".repeat(n), "]".repeat(n))
        }
        4 => format!("{{{}}}", ws(rng)),
        5 => {
            let items: Vec<String> = (0..rng.below(4))
                .map(|_| format!("{}{}{}", ws(rng), any_value(rng, depth - 1), ws(rng)))
                .collect();
            format!("[{}]", items.join(","))
        }
        _ => {
            let members: Vec<String> = (0..rng.below(4))
                .map(|i| format!("\"k{i}\":{}{}", ws(rng), any_value(rng, depth - 1)))
                .collect();
            format!("{{{}}}", members.join(","))
        }
    }
}

/// A value that is well-formed JSON but not a valid field of any kind.
fn mistyped(rng: &mut TestRng) -> String {
    pick(
        rng,
        &[
            "\"x\"",
            "null",
            "true",
            "[1,\"a\"]",
            "{}",
            "-1",
            "1.5",
            "[[0]]",
        ],
    )
    .to_string()
}

/// The deepest nesting of arrays and objects in `body`, outside strings.
fn nesting(body: &[u8]) -> usize {
    let (mut depth, mut deepest, mut in_string, mut escaped) = (0usize, 0, false, false);
    for &b in body {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'[' | b'{' => {
                depth += 1;
                deepest = deepest.max(depth);
            }
            b']' | b'}' => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    deepest
}

/// One member `"key":value` with optional whitespace around the colon.
fn member(rng: &mut TestRng, key: &str, value: &str) -> String {
    format!("{}{key}{}:{}{value}", ws(rng), ws(rng), ws(rng))
}

/// Render `req` as a perturbed body. Returns the body and whether a
/// destructive edit was made; without one, the body must decode to
/// exactly `req`.
fn perturbed(req: &PredictRequest, rng: &mut TestRng) -> (Vec<u8>, bool) {
    let mut destructive = false;
    let array = |rng: &mut TestRng, items: Vec<String>| {
        let items: Vec<String> = items
            .into_iter()
            .map(|t| format!("{}{t}{}", ws(rng), ws(rng)))
            .collect();
        format!("[{}]", items.join(","))
    };
    let tenant_key = pick(rng, &["\"tenant\"", "\"ten\\u0061nt\""]);
    let mut numbers = Vec::new();
    for &v in &req.inputs {
        let text = number_text(rng, v);
        // `serde_json::to_string(&3.4e38f32)` is an integer past u64,
        // which no decoder reads back.
        destructive |= serde_json::from_str::<f32>(&text).map(f32::to_bits) != Ok(v.to_bits());
        numbers.push(text);
    }
    let mut members = vec![
        (
            tenant_key.to_string(),
            serde_json::to_string(&req.tenant).unwrap(),
        ),
        (
            "\"timesteps\"".to_string(),
            match rng.below(3) {
                0 => format!("{}.0", req.timesteps),
                1 => format!("{}e0", req.timesteps),
                _ => req.timesteps.to_string(),
            },
        ),
        (
            "\"shape\"".to_string(),
            array(rng, req.shape.iter().map(usize::to_string).collect()),
        ),
        ("\"inputs\"".to_string(), array(rng, numbers)),
    ];
    match (req.deadline_ms, rng.below(2)) {
        (Some(d), _) => members.push(("\"deadline_ms\"".to_string(), d.to_string())),
        (None, 0) => members.push(("\"deadline_ms\"".to_string(), "null".to_string())),
        (None, _) => {}
    }
    // Key order is free.
    for i in (1..members.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        members.swap(i, j);
    }
    // Unknown keys and duplicates placed before the key they repeat are
    // ignored.
    for _ in 0..rng.below(3) {
        let at = rng.below(members.len() as u64 + 1) as usize;
        let key = pick(
            rng,
            &["\"pad\"", "\"Tenant\"", "\"\\u00e9\"", "\"inputs \""],
        );
        members.insert(at, (key.to_string(), any_value(rng, 3)));
    }
    if rng.below(3) == 0 {
        let dup = rng.below(members.len() as u64) as usize;
        let key = members[dup].0.clone();
        members.insert(dup, (key, any_value(rng, 2)));
    }
    // Destructive: a mistyped duplicate after the original, a malformed
    // number, or whitespace JSON does not allow.
    match rng.below(12) {
        0 => {
            let dup = rng.below(members.len() as u64) as usize;
            let key = members[dup].0.clone();
            members.insert(dup + 1, (key, mistyped(rng)));
            destructive = true;
        }
        1 => {
            let bad = pick(
                rng,
                &[
                    "1.0.0",
                    "1e",
                    "-",
                    "--1",
                    "1-2",
                    "01",
                    "1.",
                    "99999999999999999999",
                    "+1",
                    ".5",
                    "nul",
                    "tru",
                ],
            );
            members.push(("\"inputs\"".to_string(), format!("[0,{bad}]")));
            destructive = true;
        }
        2 => {
            members.push(("\"pad\"".to_string(), "\x0b1".to_string()));
            destructive = true;
        }
        _ => {}
    }
    let rendered: Vec<String> = members.iter().map(|(k, v)| member(rng, k, v)).collect();
    let mut body = format!(
        "{}{{{}{}}}{}",
        ws(rng),
        rendered.join(","),
        ws(rng),
        ws(rng)
    )
    .into_bytes();
    destructive |= nesting(&body) > serde_json::RECURSION_LIMIT;
    match rng.below(8) {
        0 => {
            body.truncate(rng.below(body.len() as u64) as usize);
            destructive = true;
        }
        1 => {
            let at = rng.below(body.len() as u64) as usize;
            let bytes = b"\"\\,:[]{}0-.e nx\xc3\xff";
            body[at] = bytes[rng.below(bytes.len() as u64) as usize];
            destructive = true;
        }
        _ => {}
    }
    (body, destructive)
}

/// Whether two decodes agree: both `Err`, or both `Ok` with equal fields
/// and bit-equal inputs.
fn same<E, F>(a: &Result<PredictRequest, E>, b: &Result<PredictRequest, F>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            a.tenant == b.tenant
                && a.timesteps == b.timesteps
                && a.shape == b.shape
                && a.deadline_ms == b.deadline_ms
                && a.inputs.len() == b.inputs.len()
                && a.inputs
                    .iter()
                    .zip(&b.inputs)
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        }
        (Err(_), Err(_)) => true,
        _ => false,
    }
}

/// Assert the contract on one body.
fn check(body: &[u8]) -> Result<PredictRequest, String> {
    let ours = PredictRequest::from_json(body);
    match std::str::from_utf8(body) {
        Ok(text) => {
            let reference = serde_json::from_str::<PredictRequest>(text);
            assert!(
                same(&ours, &reference),
                "decoders disagree on {text:?}:\n  from_json: {ours:?}\n  serde:     {reference:?}"
            );
        }
        Err(_) => assert!(ours.is_err(), "non-UTF-8 body decoded: {body:?}"),
    }
    ours
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    fn from_json_agrees_with_the_serde_derive(req in request(), seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let _ = check(serde_json::to_string(&req).unwrap().as_bytes());
        let (body, destructive) = perturbed(&req, &mut rng);
        let ours = check(&body);
        if !destructive {
            prop_assert!(
                same(&ours, &Ok::<_, ()>(req.clone())),
                "a value-preserving edit changed the decode of {:?}: {ours:?}",
                String::from_utf8_lossy(&body)
            );
        }
    }
}

#[test]
fn edge_cases_decode_like_the_derive() {
    let body = |inputs: &str, rest: &str| {
        format!(r#"{{"tenant":"t","timesteps":1,"shape":[1],"inputs":[{inputs}]{rest}}}"#)
    };
    let inputs = |text: &str| check(body(text, "").as_bytes()).map(|r| r.inputs[0].to_bits());
    // Every value keeps its bits, whatever the notation.
    assert_eq!(inputs("-0.0"), Ok((-0.0f32).to_bits()));
    assert_eq!(inputs("-0e0"), Ok((-0.0f32).to_bits()));
    assert_eq!(inputs("-0"), Ok(0), "an integer -0 is +0.0");
    assert_eq!(inputs("1e-45"), Ok(1));
    assert_eq!(inputs("3.4e38"), Ok(3.4e38f32.to_bits()));
    assert_eq!(inputs("0.1"), Ok(0.1f32.to_bits()));
    assert_eq!(inputs("16777217"), Ok(16777216f32.to_bits()));
    assert_eq!(inputs("1E+0"), Ok(1f32.to_bits()));
    assert_eq!(
        inputs("01"),
        Ok(1f32.to_bits()),
        "the vendored parser allows it"
    );
    // What `serde_json::to_string` writes for 3.4e38 is an integer past
    // u64, which neither decoder reads.
    let wide = serde_json::to_string(&3.4e38f32).unwrap();
    assert!(inputs(&wide).is_err());
    for bad in [
        "1.0.0",
        "1e",
        "-",
        "1-2",
        "+1",
        ".5",
        "99999999999999999999",
        "null",
    ] {
        assert!(inputs(bad).is_err(), "{bad}");
    }

    // Keys: escapes, duplicates (the last wins, even over a mistyped one),
    // unknown keys, `deadline_ms` absent, null or integral.
    let ok = |text: &str| check(text.as_bytes()).unwrap();
    let dup = ok(
        r#"{"timesteps":"x","ten\u0061nt":"a","timesteps":2,"shape":[1],"inputs":[],"tenant":"b","deadline_ms":3.0,"x":[{"y":[]}]}"#,
    );
    assert_eq!(
        (dup.tenant.as_str(), dup.timesteps, dup.deadline_ms),
        ("b", 2, Some(3))
    );
    assert_eq!(ok(&body("1", r#","deadline_ms":null"#)).deadline_ms, None);
    assert_eq!(ok(&body("1", "")).deadline_ms, None);
    assert_eq!(
        ok(r#" {"tenant":"\u+041\/","timesteps":1e0,"shape":[2.0],"inputs":[]} "#).tenant,
        "A/"
    );

    let mut bad: Vec<String> = [
        "",
        "{}",
        "[]",
        "null",
        r#"{"tenant":"\ud800","timesteps":1,"shape":[1],"inputs":[1]}"#,
        r#"{"tenant":"\q","timesteps":1,"shape":[1],"inputs":[1]}"#,
        r#"{"tenant":"t","timesteps":-1,"shape":[1],"inputs":[1]}"#,
        r#"{"tenant":"t","timesteps":1,"shape":[1,-2],"inputs":[1]}"#,
        r#"{"tenant":"t","timesteps":1,"shape":[1],"inputs":[1,null]}"#,
        r#"{"tenant":"t","timesteps":1,"shape":[1]}"#,
    ]
    .map(String::from)
    .into();
    for rest in [
        r#","deadline_ms":-1"#,
        r#","deadline_ms":"5""#,
        r#","timesteps":"2""#,
        ",",
        r#","x":[1}"#,
        r#","x":{"a"}"#,
        r#","x":{1:2}"#,
        "}",
        "\u{b}",
    ] {
        bad.push(body("1", rest));
    }
    for text in &bad {
        assert!(check(text.as_bytes()).is_err(), "{text:?}");
    }
    // Not UTF-8: rejected even inside a string nothing reads.
    let with_unread = |bytes: &[u8]| {
        let head = br#"{"tenant":"t","timesteps":1,"shape":[1],"inputs":[1],"x":""#;
        [&head[..], bytes, b"\"}"].concat()
    };
    assert!(check(&with_unread("é".as_bytes())).is_ok());
    assert!(check(&with_unread(b"\xc3")).is_err());
}

/// `levels` containers around `innermost`: arrays, objects, or both
/// alternating.
fn nest(levels: usize, kinds: &[&str], innermost: &str) -> String {
    let open: String = (0..levels).map(|i| kinds[i % kinds.len()]).collect();
    let close: String = (0..levels)
        .rev()
        .map(|i| {
            if kinds[i % kinds.len()] == "[" {
                "]"
            } else {
                "}"
            }
        })
        .collect();
    format!("{open}{innermost}{close}")
}

/// Both decoders accept a body whose arrays and objects nest exactly
/// `serde_json::RECURSION_LIMIT` deep, counting the body object, and refuse
/// one level more, wherever the nesting sits and whether or not its
/// innermost container is empty.
#[test]
fn both_decoders_cap_nesting_at_the_recursion_limit() {
    let limit = serde_json::RECURSION_LIMIT;
    let rest = r#""timesteps":1,"shape":[1]"#;
    // Bodies whose deepest container sits `inner` levels inside the body
    // object; the first three are valid requests.
    let bodies = |inner: usize| {
        let unknown =
            |value: String| format!(r#"{{"tenant":"t",{rest},"inputs":[1],"x":{value}}}"#);
        [
            unknown(nest(inner, &["["], "")),
            unknown(nest(inner, &["{\"k\":"], "0")),
            unknown(nest(inner, &["[", "{\"k\":"], "null")),
            // A mistyped field is skipped as deep as an unknown value.
            format!(
                r#"{{"tenant":{},{rest},"inputs":[1]}}"#,
                nest(inner, &["["], "")
            ),
            // An element of `inputs` sits one level inside the array.
            format!(
                r#"{{"tenant":"t",{rest},"inputs":[{}]}}"#,
                nest(inner - 1, &["["], "1")
            ),
        ]
    };
    for (i, body) in bodies(limit - 1).iter().enumerate() {
        assert_eq!(check(body.as_bytes()).is_ok(), i < 3, "{body:.80}");
        assert!(
            serde_json::from_str::<serde_json::Value>(body).is_ok(),
            "{body:.80}"
        );
    }
    for body in bodies(limit) {
        assert!(check(body.as_bytes()).is_err(), "{body:.80}");
        assert!(
            serde_json::from_str::<serde_json::Value>(&body).is_err(),
            "{body:.80}"
        );
    }
}

/// A body nested far deeper than any call stack allows is refused on a
/// thread with a small stack: skipping a value takes no recursion.
#[test]
fn deep_nesting_costs_no_stack() {
    std::thread::Builder::new()
        .stack_size(128 * 1024)
        .spawn(|| {
            let depth = 1 << 20;
            let open = "[{\"k\":".repeat(depth / 2);
            let close = "}]".repeat(depth / 2);
            let body = format!(
                r#"{{"x":{open}0{close},"tenant":"t","timesteps":1,"shape":[1],"inputs":[1]}}"#
            );
            assert!(PredictRequest::from_json(body.as_bytes()).is_err());
            let unclosed = format!(r#"{{"tenant":"t","x":{}"#, "[".repeat(depth));
            assert!(PredictRequest::from_json(unclosed.as_bytes()).is_err());
        })
        .unwrap()
        .join()
        .unwrap();
}

/// `inputs` arrays of spike values mixed with the texts beside the fast
/// path (`-0.0`, `1.00`, `1.0e0`, `0.01`) and with whitespace. Each body is
/// also cut at every byte inside the array, and closed again after the
/// cut, so every element is seen ending at the end of the body and
/// before a `]` it did not have.
#[test]
fn spike_runs_decode_like_the_derive_wherever_they_are_cut() {
    let mut rng = TestRng::new(47);
    let values = [
        "0.0", "1.0", "0.0", "1.0", "0.0", "1.0", "-0.0", "1.00", "1.0e0", "0.01",
    ];
    let head = r#"{"tenant":"t","timesteps":1,"shape":[1],"inputs":"#;
    for _ in 0..40 {
        let run: Vec<String> = (0..1 + rng.below(40))
            .map(|_| {
                let value = pick(&mut rng, &values);
                format!("{}{value}{}", ws(&mut rng), ws(&mut rng))
            })
            .collect();
        let whole = format!("{head}[{}]}}", run.join(","));
        let decoded = check(whole.as_bytes()).unwrap();
        assert_eq!(decoded.inputs.len(), run.len());
        for cut in head.len()..whole.len() - 1 {
            assert!(check(&whole.as_bytes()[..cut]).is_err(), "{cut}");
            let _ = check(format!("{}]}}", &whole[..cut]).as_bytes());
        }
    }
}
