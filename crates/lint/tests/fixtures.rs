//! End-to-end engine tests over the committed fixture tree.
//!
//! `fixtures/ws` seeds true positives for every rule family plus the negatives
//! (test modules, `fn main`, the sanctioned unsafe site, display-spec templates,
//! `pub` items reached only through a format string or `examples/`) and the
//! suppression shapes.  The reports are compared byte-for-byte
//! against the committed goldens, so any change to a matcher, the sort order, or
//! the JSON layout shows up as a diff in review.

use std::path::{Path, PathBuf};
use tcp_lint::{collect_files, run, Baseline, LintConfig};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn fixture_config(root: &Path) -> LintConfig {
    let text = std::fs::read_to_string(root.join("lint.toml")).unwrap();
    LintConfig::from_toml(&text).unwrap()
}

fn fixture_report() -> tcp_lint::RunReport {
    let root = fixture_root();
    let config = fixture_config(&root);
    let files = collect_files(&root, &config).unwrap();
    run(&root, &config, &files, &Baseline::default()).unwrap()
}

#[test]
fn golden_json_report_matches_byte_for_byte() {
    let report = fixture_report();
    assert_eq!(
        tcp_lint::report::to_json(&report),
        include_str!("fixtures/expected.json")
    );
}

#[test]
fn golden_text_report_matches_byte_for_byte() {
    let report = fixture_report();
    assert_eq!(
        tcp_lint::report::to_text(&report),
        include_str!("fixtures/expected.txt")
    );
}

#[test]
fn report_is_independent_of_scan_order() {
    let root = fixture_root();
    let config = fixture_config(&root);
    let mut files = collect_files(&root, &config).unwrap();
    let forward = run(&root, &config, &files, &Baseline::default()).unwrap();
    files.reverse();
    let reversed = run(&root, &config, &files, &Baseline::default()).unwrap();
    assert_eq!(
        tcp_lint::report::to_json(&forward),
        tcp_lint::report::to_json(&reversed)
    );
    // And a second identical run produces identical bytes (no wall-clock data).
    files.reverse();
    let again = run(&root, &config, &files, &Baseline::default()).unwrap();
    assert_eq!(
        tcp_lint::report::to_json(&forward),
        tcp_lint::report::to_json(&again)
    );
}

#[test]
fn every_rule_family_has_a_true_positive() {
    let report = fixture_report();
    for rule in [
        "determinism",
        "panic-policy",
        "unsafe-audit",
        "json-stability",
        "ordering-audit",
        "process-exit",
        "dead-api",
        "suppression",
    ] {
        assert!(
            report.findings.iter().any(|f| f.rule == rule),
            "fixture tree has no `{rule}` finding"
        );
    }
}

#[test]
fn negatives_stay_silent() {
    let report = fixture_report();
    // The sanctioned unsafe site and the ordering-audit-excluded shard file are
    // clean; test modules and `fn main` bodies are exempt by region.
    for clean in ["src/alloc.rs", "src/obs.rs"] {
        assert!(
            report.findings.iter().all(|f| f.path != clean),
            "expected no findings in `{clean}`"
        );
    }
    // `fn main` may call process::exit; only the helper (line 4) is flagged.
    assert_eq!(
        report
            .findings
            .iter()
            .filter(|f| f.path == "src/exit.rs")
            .map(|f| f.line)
            .collect::<Vec<_>>(),
        vec![4]
    );
}

#[test]
fn suppression_semantics() {
    let report = fixture_report();
    // Exactly two reasoned suppressions are honored (det.rs `suppressed_ok` and
    // the api crate's `kept_for_tests`).
    assert_eq!(report.suppressed, 2);
    // The empty-reason suppression is audited AND the finding it tried to cover
    // survives on the next line.
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == "suppression" && f.path == "src/result/det.rs" && f.line == 25));
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == "determinism" && f.path == "src/result/det.rs" && f.line == 26));
    // The unknown-rule suppression is audited.
    assert!(report
        .findings
        .iter()
        .any(|f| { f.rule == "suppression" && f.message.contains("unknown rule `no-such-rule`") }));
}

#[test]
fn dead_api_flags_exactly_the_unreferenced_pub_items() {
    let report = fixture_report();
    let flagged: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == "dead-api")
        .map(|f| f.snippet.as_str())
        .collect();
    // A re-export is not a reference and a test module is not a caller; a format
    // string's `{FORMAT_ONLY}`, an `examples/` call and a live call all are, and
    // `pub(crate)` is left to rustc.  A method counts only `.name(` calls and
    // `::name` paths, so the field `rate` does not keep `Meter::rate` alive.
    assert_eq!(
        flagged,
        [
            "fn reexported_only",
            "fn never_called",
            "fn test_only",
            "fn rate"
        ]
    );
}

#[test]
fn baseline_absorbs_the_captured_set_and_flags_new_findings() {
    let root = fixture_root();
    let config = fixture_config(&root);
    let files = collect_files(&root, &config).unwrap();
    let first = run(&root, &config, &files, &Baseline::default()).unwrap();
    assert!(!first.findings.is_empty());

    let baseline = Baseline::capture(&first.findings);
    let second = run(&root, &config, &files, &baseline).unwrap();
    assert!(second.findings.is_empty(), "{:?}", second.findings);
    assert_eq!(second.baselined, first.findings.len());

    // Round-tripping the baseline through its JSON form changes nothing.
    let reloaded = Baseline::from_json(&baseline.to_json()).unwrap();
    let third = run(&root, &config, &files, &reloaded).unwrap();
    assert!(third.findings.is_empty());

    // Dropping one fingerprint makes exactly that finding reappear.
    let mut partial = baseline.clone();
    partial.findings.retain(|e| e.rule != "ordering-audit");
    let fourth = run(&root, &config, &files, &partial).unwrap();
    assert_eq!(fourth.findings.len(), 1);
    assert_eq!(fourth.findings[0].rule, "ordering-audit");
}

#[test]
fn cli_exit_codes_follow_the_shared_convention() {
    let lint = env!("CARGO_BIN_EXE_lint");
    let root = fixture_root();

    // Findings survive → 1.
    let dirty = std::process::Command::new(lint)
        .args(["check", "--root"])
        .arg(&root)
        .output()
        .unwrap();
    assert_eq!(dirty.status.code(), Some(1));

    // Everything baselined → 0 (write the baseline into a scratch dir).
    let scratch = std::env::temp_dir().join("tcp-lint-fixture-baseline.json");
    let write = std::process::Command::new(lint)
        .args(["check", "--root"])
        .arg(&root)
        .arg("--write-baseline")
        .arg(&scratch)
        .output()
        .unwrap();
    assert_eq!(write.status.code(), Some(0));
    let clean = std::process::Command::new(lint)
        .args(["check", "--root"])
        .arg(&root)
        .arg("--baseline")
        .arg(&scratch)
        .output()
        .unwrap();
    assert_eq!(clean.status.code(), Some(0));
    let _ = std::fs::remove_file(&scratch);

    // Usage errors → 2.
    let usage = std::process::Command::new(lint)
        .arg("frobnicate")
        .output()
        .unwrap();
    assert_eq!(usage.status.code(), Some(2));
}
