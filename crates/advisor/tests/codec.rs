//! Differential test of the JSON codec on the advisor's wire and file types.
//!
//! `serde_json::from_str` reads typed values straight from the parser's tokens and falls
//! back to the reference path — `parse_value` then `Deserialize::deserialize` — when that
//! fails.  For generated `AdviceRequest` lines, `RegimeCatalog` documents and `MultiPack`
//! documents, valid and corrupted, this asserts that
//!
//! * `from_str` returns exactly the reference result: equal values, equal error strings;
//! * the stream alone accepts exactly what the reference accepts, with equal values —
//!   the fallback runs for failing input only;
//! * every canonical line and document is accepted by the stream itself, so a fallback
//!   silently serving all traffic fails the test.
//!
//! Request lines also run as `AdviceRequest<Cow<str>>`, the storage the serving path
//! reads: it must agree with the owned `AdviceRequest` value for value and error for
//! error, and on canonical lines borrow both names from the line.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Value};
use std::borrow::Cow;
use std::fmt::Debug;
use std::sync::OnceLock;
use tcp_advisor::{
    generate_multi_requests, requests_to_ndjson, AdviceRequest, MultiPack, PackBuilder,
};
use tcp_calibrate::RegimeCatalog;

/// Runs `text` through `from_str`, the reference path and the stream alone; returns
/// whether the stream accepted it.
fn differential<'a, T: Deserialize<'a> + PartialEq + Debug>(text: &'a str) -> bool {
    let reference = serde_json::parse_value(text)
        .and_then(|value| T::deserialize(&value))
        .map_err(|e| e.to_string());
    let served = serde_json::from_str::<T>(text).map_err(|e| e.to_string());
    assert!(
        served == reference,
        "from_str disagrees with the reference on {}:\n  from_str:  {served:?}\n  reference: {reference:?}",
        clip(text)
    );
    // The stream accepts exactly what the reference accepts, with equal values: the
    // fallback runs for failing input only.
    let streamed = serde_json::from_str_streaming::<T>(text);
    match (&streamed, &reference) {
        (Ok(streamed), Ok(expected)) => {
            assert!(streamed == expected, "values differ on {}", clip(text))
        }
        (Err(_), Err(_)) => {}
        _ => panic!(
            "the stream gives {:?} but the reference {reference:?} on {}",
            streamed
                .as_ref()
                .map(|_| "a value")
                .map_err(|e| e.to_string()),
            clip(text)
        ),
    }
    streamed.is_ok()
}

/// [`differential`] for a request line in both storages, which must read equal values
/// (the borrowed one copied out) and equal error strings; returns whether the stream
/// accepted it.
fn request_differential(text: &str) -> bool {
    let owned = differential::<AdviceRequest>(text);
    let borrowed = differential::<AdviceRequest<Cow<str>>>(text);
    assert_eq!(owned, borrowed, "the storages disagree on {}", clip(text));
    let expected = serde_json::from_str::<AdviceRequest>(text).map_err(|e| e.to_string());
    let read = serde_json::from_str::<AdviceRequest<Cow<str>>>(text)
        .map(to_owned)
        .map_err(|e| e.to_string());
    assert_eq!(
        read,
        expected,
        "the storages read differently on {}",
        clip(text)
    );
    owned
}

/// The owned request with the same fields as `request`.
fn to_owned(request: AdviceRequest<Cow<str>>) -> AdviceRequest {
    AdviceRequest {
        kind: request.kind,
        id: request.id,
        regime: request.regime.map(Cow::into_owned),
        cell: request.cell.map(Cow::into_owned),
        vm_age: request.vm_age,
        job_len: request.job_len,
        overhead_minutes: request.overhead_minutes,
    }
}

fn clip(text: &str) -> String {
    let end = (0..=text.len().min(160))
        .rev()
        .find(|&i| text.is_char_boundary(i))
        .unwrap_or(0);
    format!(
        "{:?}{}",
        &text[..end],
        if end < text.len() { "…" } else { "" }
    )
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// The shipped example catalog.
fn catalog() -> &'static RegimeCatalog {
    static CATALOG: OnceLock<RegimeCatalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/calibrate/catalog.json"
        );
        RegimeCatalog::from_json(&std::fs::read_to_string(path).unwrap())
            .expect("shipped example catalog")
    })
}

/// A coarse pack set over [`catalog`]: the pooled pack plus one pack per cell.
fn multi() -> &'static MultiPack {
    static MULTI: OnceLock<MultiPack> = OnceLock::new();
    MULTI.get_or_init(|| {
        let builder = PackBuilder {
            age_points: 49,
            checkpoint_age_points: 2,
            checkpoint_job_points: 3,
            max_checkpoint_job_hours: 4.0,
            ..PackBuilder::default()
        };
        builder
            .build_from_catalog(catalog(), &[5.0], 60.0, 0)
            .unwrap()
    })
}

/// `value` with every sequence cut to at most `len` elements: the same shape in a
/// document small enough to corrupt many times over.
fn shrunk(mut value: Value, len: usize) -> Value {
    visit(&mut value, &mut |v| {
        if let Value::Seq(items) = v {
            items.truncate(len);
        }
    });
    value
}

/// Calls `f` on `value` and every value nested in it (parents first).
fn visit(value: &mut Value, f: &mut impl FnMut(&mut Value)) {
    f(value);
    match value {
        Value::Seq(items) => items.iter_mut().for_each(|v| visit(v, f)),
        Value::Map(entries) => entries.iter_mut().for_each(|(_, v)| visit(v, f)),
        _ => {}
    }
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

const KINDS: [&str; 4] = [
    "should-reuse",
    "checkpoint-plan",
    "expected-cost-makespan",
    "best-policy",
];

/// Number spellings the parser must treat alike on both paths: huge, negative, odd
/// or malformed.
const ODD_NUMBERS: [&str; 20] = [
    "1e400",
    "-1e400",
    "18446744073709551615",
    "18446744073709551616",
    "9223372036854775808",
    "-9223372036854775809",
    "-0",
    "-0.0",
    "1.",
    "-.5",
    "01",
    "1e",
    "-",
    "1.2.3",
    "1-2",
    "1E+2",
    "+1",
    "0x10",
    "NaN",
    "Infinity",
];

const JUNK: [&str; 16] = [
    "{", "}", "[", "]", ",", ":", "\"", "\\", "x", "0", "-", ".", "e", "null", " ", "é",
];

fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
    items[rng.gen_range(0..items.len())]
}

/// A float field's value: canonical, integral, exponent, negative, null or odd.
fn number_text(rng: &mut StdRng) -> String {
    match rng.gen_range(0..8) {
        0 => format!("{}", rng.gen_range(0u64..48)),
        1 => format!("{:?}", rng.gen_range(0.0..48.0)),
        2 => format!("{:e}", rng.gen_range(0.01..48.0)),
        3 => format!("{:.3}", rng.gen_range(0.0..48.0)),
        4 => "null".to_string(),
        5 => format!("-{:?}", rng.gen_range(0.0..4.0)),
        6 => pick(rng, &ODD_NUMBERS).to_string(),
        _ => format!("{:?}", rng.gen_range(0.5..24.0)),
    }
}

/// A JSON string literal for `plain`, with some characters spelled as escapes.
fn string_text(rng: &mut StdRng, plain: &str) -> String {
    let mut out = String::from("\"");
    for c in plain.chars() {
        match (c, rng.gen_range(0..10)) {
            ('"', _) => out.push_str("\\\""),
            ('\\', _) => out.push_str("\\\\"),
            ('/', 0) => out.push_str("\\/"),
            (c, 1) if c.is_ascii() => out.push_str(&format!("\\u{:04x}", c as u32)),
            (c, 2) if c.is_ascii() => out.push_str(&format!("\\u{:04X}", c as u32)),
            (c, _) => out.push(c),
        }
    }
    out.push('"');
    out
}

fn ws(rng: &mut StdRng) -> &'static str {
    ["", "", "", " ", "  ", "\t", "\r\n "][rng.gen_range(0..7)]
}

/// One request line: any kind, optional fields present, absent or null, keys in any
/// order, sometimes with a duplicate or an unknown key.
fn request_line(rng: &mut StdRng) -> String {
    let mut entries: Vec<(String, String)> = Vec::new();
    if rng.gen_bool(0.97) {
        let kind = pick(rng, &KINDS);
        entries.push(("kind".into(), string_text(rng, kind)));
    }
    if rng.gen_bool(0.7) {
        let id = match rng.gen_range(0..5) {
            0 => "null".to_string(),
            1 => u64::MAX.to_string(),
            2 => format!("{}", rng.gen_range(0u64..u64::MAX)),
            3 => pick(rng, &ODD_NUMBERS).to_string(),
            _ => format!("{}", rng.gen_range(0u64..1000)),
        };
        entries.push(("id".into(), id));
    }
    if rng.gen_bool(0.5) {
        let regime = pick(
            rng,
            &["pooled", "gcp-day-busy", "no-such", "a\"b\\c/d", "é"],
        );
        entries.push(("regime".into(), string_text(rng, regime)));
    }
    if rng.gen_bool(0.5) {
        let cells: Vec<&str> = multi().cells.iter().map(|c| c.cell.as_str()).collect();
        let cell = if rng.gen_bool(0.8) {
            let cell = pick(rng, &cells);
            string_text(rng, cell)
        } else {
            "null".to_string()
        };
        entries.push(("cell".into(), cell));
    }
    for field in ["vm_age", "job_len", "overhead_minutes"] {
        if rng.gen_bool(0.6) {
            entries.push((field.into(), number_text(rng)));
        }
    }
    for i in (1..entries.len()).rev() {
        entries.swap(i, rng.gen_range(0..i + 1));
    }
    if !entries.is_empty() && rng.gen_bool(0.15) {
        let (key, _) = entries[rng.gen_range(0..entries.len())].clone();
        let value = ["1", "\"x\"", "null", "[1,{\"a\":2}]", "2.5"][rng.gen_range(0..5)];
        entries.push((key, value.to_string()));
    }
    if rng.gen_bool(0.05) {
        entries.push(("colour".into(), "\"blue\"".into()));
    }
    let body: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("{}\"{k}\"{}:{}{v}{}", ws(rng), ws(rng), ws(rng), ws(rng)))
        .collect();
    format!("{}{{{}}}{}", ws(rng), body.join(","), ws(rng))
}

/// Rewrites a valid document tree: keys shuffled in some maps, integral floats
/// written as integers, duplicate keys (the first occurrence wins), and now and then
/// an unknown key or a scalar of the wrong type.  Returns whether the document is
/// still valid, i.e. got neither of the last two.
fn rewrite(rng: &mut StdRng, value: &mut Value) -> bool {
    let mut valid = true;
    visit(value, &mut |v| match v {
        Value::Map(entries) if !entries.is_empty() => {
            if rng.gen_bool(0.3) {
                for i in (1..entries.len()).rev() {
                    entries.swap(i, rng.gen_range(0..i + 1));
                }
            }
            if rng.gen_bool(0.02) {
                let (key, _) = entries[rng.gen_range(0..entries.len())].clone();
                entries.push((key, Value::Str("duplicate".into())));
            }
            if rng.gen_bool(0.005) {
                entries.push(("unknown_key".into(), Value::Null));
                valid = false;
            }
        }
        Value::Float(x) if x.fract() == 0.0 && x.abs() < 1e15 && rng.gen_bool(0.5) => {
            *v = Value::Int(*x as i64);
        }
        Value::Float(_) | Value::Int(_) | Value::Str(_) if rng.gen_bool(0.002) => {
            *v = [Value::Null, Value::Bool(true), Value::Str("x".into())][rng.gen_range(0..3)]
                .clone();
            valid = false;
        }
        _ => {}
    });
    valid
}

/// Every corruption of `text` the test applies: truncation at the given byte offsets,
/// junk inserted at random places, and a deeply nested value in front.
fn corruptions(rng: &mut StdRng, text: &str, cuts: impl Iterator<Item = usize>) -> Vec<String> {
    let mut out: Vec<String> = cuts
        .filter(|&i| text.is_char_boundary(i))
        .map(|i| text[..i].to_string())
        .collect();
    for _ in 0..8 {
        let mut at = rng.gen_range(0..text.len() + 1);
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        out.push(format!(
            "{}{}{}",
            &text[..at],
            pick(rng, &JUNK),
            &text[at..]
        ));
    }
    if let Some(body) = text.trim_start().strip_prefix('{') {
        for depth in [127, 128, 129, 1000] {
            out.push(format!(
                "{{\"kind\":{}1{},{body}",
                "[".repeat(depth),
                "]".repeat(depth)
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn request_lines_agree_on_both_paths(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let line = request_line(&mut rng);
        request_differential(&line);
        let len = line.len();
        for bad in corruptions(&mut rng, &line, 0..len) {
            request_differential(&bad);
        }
        // Odd numbers in every numeric position.
        let odd = pick(&mut rng, &ODD_NUMBERS);
        for field in ["id", "vm_age", "job_len", "overhead_minutes"] {
            request_differential(&format!(
                "{{\"kind\":\"should-reuse\",\"{field}\":{odd},\"regime\":\"pooled\"}}"
            ));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn catalog_documents_agree_on_both_paths(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut doc = shrunk(serde_json::parse_value(&catalog().to_json().unwrap()).unwrap(), 4);
        let valid = rewrite(&mut rng, &mut doc);
        let text = if rng.gen_bool(0.5) {
            serde_json::to_string(&doc).unwrap()
        } else {
            serde_json::to_string_pretty(&doc).unwrap()
        };
        prop_assert!(differential::<RegimeCatalog>(&text) || !valid);
        let cuts: Vec<usize> = (0..24).map(|_| rng.gen_range(0..text.len())).collect();
        for bad in corruptions(&mut rng, &text, cuts.into_iter()) {
            differential::<RegimeCatalog>(&bad);
        }
    }

    #[test]
    fn pack_set_documents_agree_on_both_paths(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut doc = shrunk(serde_json::parse_value(&multi().to_json().unwrap()).unwrap(), 4);
        let valid = rewrite(&mut rng, &mut doc);
        let text = serde_json::to_string(&doc).unwrap();
        prop_assert!(differential::<MultiPack>(&text) || !valid);
        let cuts: Vec<usize> = (0..24).map(|_| rng.gen_range(0..text.len())).collect();
        for bad in corruptions(&mut rng, &text, cuts.into_iter()) {
            differential::<MultiPack>(&bad);
        }
    }
}

#[test]
fn canonical_request_lines_stream() {
    let requests = generate_multi_requests(multi(), 2000, 7);
    let ndjson = requests_to_ndjson(&requests);
    for (line, request) in ndjson.lines().zip(&requests) {
        assert!(
            request_differential(line),
            "canonical line fell back: {line}"
        );
        assert_eq!(
            &serde_json::from_str::<AdviceRequest>(line).unwrap(),
            request
        );
        // The names hold no escapes, so the stream lends them straight from the line.
        let borrowed = serde_json::from_str_streaming::<AdviceRequest<Cow<str>>>(line).unwrap();
        for name in [&borrowed.regime, &borrowed.cell].into_iter().flatten() {
            assert!(
                matches!(name, Cow::Borrowed(_)),
                "{name:?} was copied: {line}"
            );
        }
    }
}

#[test]
fn canonical_documents_stream() {
    let catalog_json = catalog().to_json().unwrap();
    assert!(differential::<RegimeCatalog>(&catalog_json));
    assert!(differential::<RegimeCatalog>(
        &serde_json::to_string_pretty(catalog()).unwrap()
    ));
    assert_eq!(&RegimeCatalog::from_json(&catalog_json).unwrap(), catalog());
    let multi_json = multi().to_json().unwrap();
    assert!(differential::<MultiPack>(&multi_json));
    assert_eq!(
        &serde_json::from_str::<MultiPack>(&multi_json).unwrap(),
        multi()
    );
}

#[test]
fn small_catalog_agrees_when_cut_at_every_byte() {
    let doc = shrunk(
        serde_json::parse_value(&catalog().to_json().unwrap()).unwrap(),
        1,
    );
    let text = serde_json::to_string(&doc).unwrap();
    assert!(
        differential::<RegimeCatalog>(&text),
        "the shrunk catalog streams"
    );
    for cut in 0..text.len() {
        if text.is_char_boundary(cut) {
            assert!(!differential::<RegimeCatalog>(&text[..cut]));
        }
    }
}
