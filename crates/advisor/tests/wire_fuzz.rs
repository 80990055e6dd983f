//! Wire fuzzing: `Session::process` over mutated request lines — random Unicode
//! spliced in, truncations and cuts, CRLF endings, odd numbers (`1e400`, `-0`,
//! `18446744073709551616`), deep nesting and pure noise.  Whatever arrives, the
//! session answers one JSON object line per non-blank line, with the same bytes
//! at 1 and 3 threads.  No generated line starts with `!` (control lines).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;
use tcp_advisor::{
    generate_requests, requests_to_ndjson, AdvisorHandle, ModelPack, MultiAdvisor, PackBuilder,
    Session,
};
use tcp_scenarios::SweepSpec;

/// A small single-regime pack and a 200-line corpus over it.
fn fixture() -> &'static (ModelPack, Vec<String>) {
    static FIXTURE: OnceLock<(ModelPack, Vec<String>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let spec = SweepSpec::from_toml(
            "[sweep]\nname = \"fuzz\"\n\n[[regime]]\nname = \"exp8\"\nkind = \"exponential\"\n\
             mean_hours = 8.0\n\n[workload]\ndp_step_minutes = 30.0\n",
        )
        .unwrap();
        let builder = PackBuilder {
            age_points: 121,
            checkpoint_age_points: 3,
            checkpoint_job_points: 4,
            max_checkpoint_job_hours: 4.0,
            ..Default::default()
        };
        let pack = builder.build_from_spec(&spec).unwrap();
        let corpus = requests_to_ndjson(&generate_requests(&pack, 200, 7));
        (pack, corpus.lines().map(str::to_string).collect())
    })
}

/// JSON structure, escapes, control characters, multi-byte UTF-8, a BOM and
/// Unicode whitespace.
const PALETTE: &str = "\"\\{}[]:,-.e09 \t\r\0\u{7f}é€\u{1D11E}\u{FEFF}\u{2028}\u{3000}u";

/// Literals that stress the float and integer parsers.
const ODD_NUMBERS: &str = "1e400 -1e400 1e-400 -0 -0.0 18446744073709551616 \
                           -9223372036854775809 0x10 1. .5 NaN";

fn noise(rng: &mut StdRng, len: usize) -> String {
    let palette: Vec<char> = PALETTE.chars().collect();
    (0..len)
        .map(|_| palette[rng.gen_range(0..palette.len())])
        .collect()
}

/// A random char boundary of `line`.
fn boundary(line: &str, rng: &mut StdRng) -> usize {
    let mut at = rng.gen_range(0..line.len() + 1);
    while !line.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// One mutated line derived from `line`.
fn mutate(line: &str, rng: &mut StdRng) -> String {
    let at = boundary(line, rng);
    let out = match rng.gen_range(0..8) {
        0 => line.to_string(),
        1 => line[..at].to_string(),
        2 => format!("{}{}{}", &line[..at], noise(rng, 3), &line[at..]),
        3 => format!("{line}\r"),
        4 => {
            // The first number after a `:` becomes an odd literal.
            let start = line.find(':').map_or(0, |colon| colon + 1);
            let end = line[start..]
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .map_or(line.len(), |n| start + n);
            let odd: Vec<&str> = ODD_NUMBERS.split_whitespace().collect();
            let odd = odd[rng.gen_range(0..odd.len())];
            format!("{}{odd}{}", &line[..start], &line[end..])
        }
        5 => {
            let depth = rng.gen_range(1..3000);
            if rng.gen_range(0..2) == 0 {
                format!("{}1{}", "[".repeat(depth), "]".repeat(depth))
            } else {
                format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth))
            }
        }
        6 => {
            let len = rng.gen_range(0..40);
            noise(rng, len)
        }
        _ => format!("{}{}", &line[..at], &line[(at + 9).min(line.len())..]),
    };
    if out.trim().starts_with('!') {
        format!("x{out}")
    } else {
        out
    }
}

fn serve(lines: &[&str], threads: usize) -> String {
    let handle = AdvisorHandle::new(MultiAdvisor::from_pack(fixture().0.clone()).unwrap());
    let mut out = String::new();
    Session::new(&handle, threads).process(lines, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_mutated_line_gets_one_json_object_line(
        seed in 0u64..u64::MAX,
        start in 0usize..160,
        count in 1usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mutated: Vec<String> = fixture().1[start..start + count]
            .iter()
            .map(|line| mutate(line, &mut rng))
            .collect();
        let lines: Vec<&str> = mutated.iter().map(String::as_str).collect();
        let out = serve(&lines, 1);
        let answered = lines.iter().filter(|l| !l.trim().is_empty()).count();
        prop_assert_eq!(out.lines().count(), answered);
        for line in out.lines() {
            let value = serde_json::parse_value(line);
            prop_assert!(value.is_ok_and(|v| v.as_map().is_some()), "not a JSON object: {}", line);
        }
        prop_assert_eq!(serve(&lines, 3), out);
    }
}
