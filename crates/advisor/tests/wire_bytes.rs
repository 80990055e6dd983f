//! Byte identity of the serving codec's fast paths against their reference paths.
//!
//! * Compact output of every wire type, printed through the derived impls'
//!   pre-rendered field keys, equals the re-rendering of its parsed `Value` tree,
//!   whose keys go through the escaping `key` path (pretty output too).
//! * `respond_into`, appending into a shared buffer, writes exactly what
//!   `respond_line` returns, on the committed golden corpus and on a mix with ~1%
//!   malformed lines.
//! * A line whose `regime` or `cell` is spelled with JSON escapes, which the parser
//!   cannot lend from the line, is answered exactly like its plain twin.
//! * A `Session` writes the same bytes for 1, 2 and 3 threads on request runs whose
//!   lengths are not multiples of the per-thread chunk.
//! * One answer of each request kind keeps the bytes recorded for it, on the served
//!   path and through `serde_json::to_string`.
//! * A `Session` over the per-cell pack set reproduces
//!   `serve/tests/golden/cells-responses.ndjson`: cell-routed and pooled answers, plus
//!   the unknown-cell, unknown-regime and single-pack routing errors.

use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::OnceLock;
use tcp_advisor::{
    generate_multi_requests, requests_to_ndjson, respond_into, respond_line, AdviceRequest,
    AdvisorHandle, AdvisorStats, ControlLine, ErrorLine, MultiAdvisor, MultiPack, PackBuilder,
    RequestKind, Session, StatsLine,
};
use tcp_calibrate::{Calibrator, RegimeCatalog};
use tcp_scenarios::SweepSpec;

/// A small calibrated catalog and the per-cell pack set built from it.
fn cells() -> &'static (RegimeCatalog, MultiPack) {
    static CELLS: OnceLock<(RegimeCatalog, MultiPack)> = OnceLock::new();
    CELLS.get_or_init(|| {
        let records = tcp_trace::TraceGenerator::new(11)
            .generate_study(600, 90)
            .unwrap();
        let catalog = Calibrator::new("wire-test")
            .calibrate(&records, "synthetic", 0)
            .unwrap();
        let multi = PackBuilder {
            age_points: 121,
            checkpoint_age_points: 3,
            checkpoint_job_points: 4,
            max_checkpoint_job_hours: 4.0,
            ..PackBuilder::default()
        }
        .build_from_catalog(&catalog, &[5.0], 30.0, 0)
        .unwrap();
        (catalog, multi)
    })
}

fn router() -> MultiAdvisor {
    MultiAdvisor::from_multi(cells().1.clone()).unwrap()
}

/// The pack `advise build examples/advisor/advisor_pack.toml` writes, which the
/// golden responses were captured against.
fn smoke_advisor() -> MultiAdvisor {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let spec_text =
        std::fs::read_to_string(root.join("examples/advisor/advisor_pack.toml")).unwrap();
    let spec = SweepSpec::from_toml(&spec_text).unwrap();
    MultiAdvisor::from_pack(PackBuilder::default().build_from_spec(&spec).unwrap()).unwrap()
}

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../serve/tests/golden")
        .join(name);
    std::fs::read_to_string(path).unwrap()
}

/// The standard request mix over the pooled pack and every cell, with ~1% of the
/// lines malformed: truncated, an unknown regime, an unknown cell, a negative job.
fn mixed_lines(count: usize, seed: u64) -> Vec<String> {
    let requests = generate_multi_requests(&cells().1, count, seed);
    requests
        .iter()
        .enumerate()
        .map(|(i, request)| {
            let mut bad = request.clone();
            match (i * 7919 + seed as usize) % 400 {
                0 => {
                    let line = serde_json::to_string(request).unwrap();
                    return line[..line.len() / 2].to_string();
                }
                1 => bad.regime = Some("no-such-regime".to_string()),
                2 => bad.cell = Some("no-such-vm/no-such-zone/day".to_string()),
                3 => bad.job_len = Some(-1.5),
                _ => {}
            }
            serde_json::to_string(&bad).unwrap()
        })
        .collect()
}

/// Compact (and pretty) output equals the re-rendering of the parsed tree.
fn assert_tree_identical<T: Serialize>(value: &T) {
    let compact = serde_json::to_string(value).unwrap();
    let tree = serde_json::parse_value(&compact).unwrap();
    assert_eq!(serde_json::to_string(&tree).unwrap(), compact);
    let pretty = serde_json::to_string_pretty(value).unwrap();
    assert_eq!(serde_json::to_string_pretty(&tree).unwrap(), pretty);
}

#[test]
fn compact_output_of_every_wire_type_equals_its_tree_rerendering() {
    let advisor = router();
    let mut kinds = Vec::new();
    let mut routed_to_a_cell = false;
    for request in generate_multi_requests(&cells().1, 400, 5) {
        let response = advisor.advise(&request).unwrap();
        routed_to_a_cell |= response.cell.is_some();
        if !kinds.contains(&response.kind) {
            kinds.push(response.kind);
        }
        assert_tree_identical(&response);
    }
    assert_eq!(kinds.len(), 4, "every request kind answered: {kinds:?}");
    assert!(routed_to_a_cell);
    for kind in [
        RequestKind::ShouldReuse,
        RequestKind::CheckpointPlan,
        RequestKind::ExpectedCostMakespan,
        RequestKind::BestPolicy,
    ] {
        assert!(kinds.contains(&kind), "{kind} answered");
    }
    assert_tree_identical(&ErrorLine {
        error: "parse error: \"quoted\"\tand \\ escaped\n".to_string(),
        id: Some(u64::MAX),
    });
    assert_tree_identical(&ErrorLine {
        error: String::new(),
        id: None,
    });
    assert_tree_identical(&ControlLine {
        control: "reload".to_string(),
        pack: "wire-test".to_string(),
        cells: 40,
    });
    // A live `!stats` line: nested counters and sorted family maps.
    let handle = AdvisorHandle::new(router());
    let mut session = Session::new(&handle, 1);
    let mut out = String::new();
    let request = mixed_lines(1, 1).remove(0);
    session.process(&[&request, "!stats"], &mut out);
    let stats_line = out.lines().nth(1).unwrap();
    let stats: StatsLine = serde_json::from_str(stats_line).unwrap();
    assert_eq!(serde_json::to_string(&stats).unwrap(), stats_line);
    assert_tree_identical(&stats);
    let (catalog, multi) = cells();
    assert_tree_identical(catalog);
    assert_tree_identical(multi);
}

#[test]
fn respond_into_writes_what_respond_line_returns() {
    let golden_advisor = smoke_advisor();
    let golden_requests = golden("serve-requests.ndjson");
    let golden_responses = golden("serve-responses.ndjson");
    let mixed_advisor = router();
    let mixed = mixed_lines(2_000, 3);
    for (advisor, lines, expected) in [
        (
            &golden_advisor,
            golden_requests
                .lines()
                .map(str::to_string)
                .collect::<Vec<_>>(),
            Some(&golden_responses),
        ),
        (&mixed_advisor, mixed, None),
    ] {
        let mut shared = String::from("earlier output\n");
        let mut reference = shared.clone();
        let mut errors = 0;
        for line in &lines {
            let alone = respond_line(advisor, line);
            errors += usize::from(alone.starts_with("{\"error\""));
            respond_into(advisor, line, &mut shared);
            shared.push('\n');
            reference.push_str(&alone);
            reference.push('\n');
        }
        assert_eq!(shared, reference);
        assert!(errors > 0, "the corpus holds malformed lines");
        if let Some(expected) = expected {
            assert_eq!(&shared["earlier output\n".len()..], expected.as_str());
        }
    }
}

/// One request of each kind from `advise gen --pack <smoke pack> --count 10000`, with
/// the answer line `advise serve` wrote for it before struct fields were printed with
/// one copy each (a `None` field as one `,"name":null`).
const SMOKE_ANSWERS: [(&str, &str); 4] = [
    (
        r#"{"kind":"should-reuse","id":1,"regime":"gcp-day-busy","cell":null,"vm_age":5.952322028373231,"job_len":6.984311237961818,"overhead_minutes":null}"#,
        r#"{"kind":"should-reuse","id":1,"regime":"gcp-day-busy","cell":null,"decision":"reuse","vm_phase":"stable","reuse_makespan_hours":6.99243519867889,"fresh_makespan_hours":7.430983076268057,"expected_makespan_hours":null,"failure_probability":null,"survival_probability":null,"expected_cost_usd":null,"on_demand_cost_usd":null,"checkpoint_cost_minutes":null,"intervals_hours":null,"checkpoint_count":null,"scheduling":null,"checkpointing":null,"card":null}"#,
    ),
    (
        r#"{"kind":"checkpoint-plan","id":0,"regime":"memoryless-8h","cell":null,"vm_age":13.260120805379813,"job_len":9.535024326724724,"overhead_minutes":5.0}"#,
        r#"{"kind":"checkpoint-plan","id":0,"regime":"memoryless-8h","cell":null,"decision":null,"vm_phase":null,"reuse_makespan_hours":null,"fresh_makespan_hours":null,"expected_makespan_hours":8.24433945169785,"failure_probability":null,"survival_probability":null,"expected_cost_usd":null,"on_demand_cost_usd":null,"checkpoint_cost_minutes":5.0,"intervals_hours":[0.75,1.0,6.25],"checkpoint_count":3,"scheduling":null,"checkpointing":null,"card":null}"#,
    ),
    (
        r#"{"kind":"expected-cost-makespan","id":3,"regime":"memoryless-8h","cell":null,"vm_age":22.944585131249916,"job_len":1.282647343165679,"overhead_minutes":null}"#,
        r#"{"kind":"expected-cost-makespan","id":3,"regime":"memoryless-8h","cell":null,"decision":null,"vm_phase":null,"reuse_makespan_hours":null,"fresh_makespan_hours":null,"expected_makespan_hours":11.458543772318063,"failure_probability":1.0,"survival_probability":0.4296954457934585,"expected_cost_usd":1.2980238385281901,"on_demand_cost_usd":0.7269019023188537,"checkpoint_cost_minutes":null,"intervals_hours":null,"checkpoint_count":null,"scheduling":null,"checkpointing":null,"card":null}"#,
    ),
    (
        r#"{"kind":"best-policy","id":6,"regime":"memoryless-8h","cell":null,"vm_age":null,"job_len":null,"overhead_minutes":null}"#,
        r#"{"kind":"best-policy","id":6,"regime":"memoryless-8h","cell":null,"decision":null,"vm_phase":null,"reuse_makespan_hours":null,"fresh_makespan_hours":null,"expected_makespan_hours":null,"failure_probability":null,"survival_probability":null,"expected_cost_usd":null,"on_demand_cost_usd":null,"checkpoint_cost_minutes":null,"intervals_hours":null,"checkpoint_count":null,"scheduling":"model-driven","checkpointing":"model-driven","card":{"reference_job_len_hours":6.0,"scheduling":[{"name":"model-driven","score":0.1849940283796314},{"name":"memoryless","score":0.30197443129708973}],"checkpointing":[{"name":"model-driven","score":6.3487733282339285},{"name":"none","score":6.442191931039439},{"name":"young-daly","score":6.633759963508431}],"recommended_scheduling":"model-driven","recommended_checkpointing":"model-driven"}}"#,
    ),
];

#[test]
fn one_answer_of_each_kind_keeps_its_recorded_bytes() {
    let advisor = smoke_advisor();
    let mut kinds = Vec::new();
    for (request, answer) in SMOKE_ANSWERS {
        assert_eq!(respond_line(&advisor, request), answer);
        let request: AdviceRequest = serde_json::from_str(request).unwrap();
        let response = advisor.advise(&request).unwrap();
        assert_eq!(serde_json::to_string(&response).unwrap(), answer);
        assert_tree_identical(&response);
        kinds.push(response.kind);
    }
    assert_eq!(
        kinds,
        [
            RequestKind::ShouldReuse,
            RequestKind::CheckpointPlan,
            RequestKind::ExpectedCostMakespan,
            RequestKind::BestPolicy
        ]
    );
}

/// `line` with the values of its `regime` and `cell` keys spelled with escapes: every
/// `/` as `\/` and a leading ASCII letter as `\u00XX`.
fn escape_names(line: &str) -> String {
    let mut out = line.to_string();
    for key in [r#""regime":""#, r#""cell":""#] {
        let Some(start) = out.find(key).map(|at| at + key.len()) else {
            continue;
        };
        let Some(len) = out[start..].find('"') else {
            continue;
        };
        let mut escaped = String::new();
        for (i, c) in out[start..start + len].chars().enumerate() {
            match c {
                '/' => escaped.push_str(r"\/"),
                c if i == 0 && c.is_ascii_alphabetic() => {
                    escaped.push_str(&format!(r"\u{:04x}", c as u32))
                }
                c => escaped.push(c),
            }
        }
        out.replace_range(start..start + len, &escaped);
    }
    out
}

#[test]
fn escaped_names_are_answered_like_their_plain_twins() {
    let advisor = router();
    let mut escaped = 0;
    for line in mixed_lines(1_000, 13) {
        let twin = escape_names(&line);
        if twin == line {
            continue;
        }
        escaped += 1;
        assert_eq!(
            respond_line(&advisor, &twin),
            respond_line(&advisor, &line),
            "{twin}"
        );
    }
    assert!(escaped > 900, "{escaped} lines had escaped names");
    // Both escapes the issue names, in both fields, on a routed request.
    let cell = &cells().1.cells[0].cell;
    let plain = format!(r#"{{"kind":"best-policy","cell":"{cell}","regime":"{cell}","id":1}}"#);
    let twin = escape_names(&plain);
    assert!(twin.contains(r"\/") && twin.contains(r"\u00"), "{twin}");
    let answer = respond_line(&advisor, &plain);
    assert!(answer.contains(&format!(r#""cell":"{cell}""#)), "{answer}");
    assert_eq!(respond_line(&advisor, &twin), answer);
}

#[test]
fn session_bytes_do_not_depend_on_the_thread_count() {
    // Runs of 101, 10, 1 and 0 requests between control lines, with blank lines
    // inside the runs: 101 splits into chunks of 51 + 50 on 2 threads and
    // 34 + 34 + 33 on 3.
    let lines = mixed_lines(112, 9);
    let mut input = String::new();
    for (i, line) in lines.iter().enumerate() {
        if [101, 111].contains(&i) {
            input.push_str("!no-such-control\n");
        }
        if i % 17 == 3 {
            input.push_str("  \n");
        }
        input.push_str(line);
        input.push('\n');
    }
    input.push_str("!no-such-control\n!no-such-control\n");
    let reference = {
        let advisor = router();
        let mut out = String::new();
        for line in input.lines().filter(|l| !l.trim().is_empty()) {
            if line.starts_with('!') {
                out.push_str(r#"{"error":"unknown control line `!no-such-control` (expected `!reload <path>`, `!stats`, `!metrics`, `!metrics prom`, `!trace`, `!health`, or `!profile`)","id":null}"#);
            } else {
                out.push_str(&respond_line(&advisor, line));
            }
            out.push('\n');
        }
        out
    };
    let input_lines: Vec<&str> = input.lines().collect();
    for threads in [1, 2, 3] {
        let handle = AdvisorHandle::new(router());
        let mut session = Session::new(&handle, threads);
        let mut out = String::new();
        session.process(&input_lines, &mut out);
        assert_eq!(out, reference, "{threads} threads");
        // Sliced across calls, as the TCP front end feeds it, the bytes hold too.
        let mut sliced = String::new();
        for chunk in input_lines.chunks(13) {
            session.process(chunk, &mut sliced);
        }
        assert_eq!(sliced, reference, "{threads} threads, sliced");
    }
}

/// Serves `input` through a fresh session over `advisor`, returning the output and the
/// session's counters.
fn serve_fresh(advisor: MultiAdvisor, input: &str) -> (String, AdvisorStats) {
    let handle = AdvisorHandle::new(advisor);
    let mut session = Session::new(&handle, 1);
    let lines: Vec<&str> = input.lines().collect();
    let mut out = String::new();
    session.process(&lines, &mut out);
    (out, session.stats())
}

#[test]
fn cell_routed_session_reproduces_the_golden_responses() {
    let multi = &cells().1;
    let cell = &multi.cells[0].cell;
    let mut input = requests_to_ndjson(&generate_multi_requests(multi, 300, 20));
    for line in [
        r#"{"kind":"best-policy","cell":"n1-highcpu-99/mars-east1-z/day","id":9001}"#.to_string(),
        format!(r#"{{"kind":"best-policy","cell":"{cell}","regime":"no-such-regime","id":9002}}"#),
        format!(
            r#"{{"kind":"should-reuse","cell":"{cell}","regime":"{cell}","vm_age":5.0,"job_len":2.0,"id":9003}}"#
        ),
        r#"{"kind":"expected-cost-makespan","regime":"pooled","vm_age":3.0,"job_len":2.0,"id":9004}"#
            .to_string(),
        format!(r#"{{"kind":"best-policy","regime":"{cell}","id":9005}}"#),
    ] {
        input.push_str(&line);
        input.push('\n');
    }
    let (mut actual, stats) = serve_fresh(router(), &input);
    // The session counted exactly the lines answered without an error, per kind.
    let mut answered = AdvisorStats::default();
    for line in actual.lines().filter(|l| !l.starts_with(r#"{"error""#)) {
        let response = serde_json::parse_value(line).unwrap();
        *match RequestKind::deserialize(response.get("kind").unwrap()).unwrap() {
            RequestKind::ShouldReuse => &mut answered.should_reuse,
            RequestKind::CheckpointPlan => &mut answered.checkpoint_plan,
            RequestKind::ExpectedCostMakespan => &mut answered.expected_cost_makespan,
            RequestKind::BestPolicy => &mut answered.best_policy,
        } += 1;
    }
    assert_eq!(stats, answered);
    assert_eq!(answered.total(), 300 + 2);
    // A single-pack router has no cells to route to.
    let single = format!(r#"{{"kind":"best-policy","cell":"{cell}","id":9006}}"#);
    actual.push_str(&serve_fresh(smoke_advisor(), &single).0);
    let expected = golden("cells-responses.ndjson");
    assert_eq!(actual.lines().count(), 306);
    for (n, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "response line {} differs", n + 1);
    }
    assert_eq!(actual, expected);
}
