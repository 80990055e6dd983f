//! Byte-level goldens for the JSON codec, captured with the `Value`-tree codec the
//! streaming one replaced.
//!
//! * `golden/serve-responses.ndjson` — `advise serve` over `examples/serve/requests.ndjson`
//!   plus malformed lines: a truncated line, an unknown regime and cell, a negative
//!   `job_len`, trailing characters, an unknown kind, wrong value types, an unknown key,
//!   a duplicate key, a bad escape, a non-object line, a negative id and an overflowing
//!   float.  Error lines — parse errors with their byte offsets included — are pinned
//!   as tightly as answers.
//! * `golden/sweep-small.json` — the pretty-printed report of a four-scenario sweep.

use std::path::{Path, PathBuf};
use std::process::Command;

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn advise(args: &[&str]) {
    let output = Command::new(env!("CARGO_BIN_EXE_advise"))
        .args(args)
        .output()
        .expect("run advise");
    assert!(
        output.status.success(),
        "advise {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn advise_serve_reproduces_the_golden_responses() {
    let dir = std::env::temp_dir().join("tcp_serve_golden_test");
    std::fs::create_dir_all(&dir).unwrap();
    let pack = dir.join("pack.json");
    let answers = dir.join("answers.ndjson");
    let spec =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/advisor/advisor_pack.toml");
    advise(&[
        "build",
        spec.to_str().unwrap(),
        "--out",
        pack.to_str().unwrap(),
    ]);
    let requests = golden("serve-requests.ndjson");
    for threads in ["1", "3"] {
        advise(&[
            "serve",
            "--pack",
            pack.to_str().unwrap(),
            "--input",
            requests.to_str().unwrap(),
            "--threads",
            threads,
            "--output",
            answers.to_str().unwrap(),
        ]);
        let expected = std::fs::read_to_string(golden("serve-responses.ndjson")).unwrap();
        let actual = std::fs::read_to_string(&answers).unwrap();
        assert_eq!(
            actual.lines().count(),
            std::fs::read_to_string(&requests).unwrap().lines().count(),
            "one response line per request line"
        );
        for (n, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
            assert_eq!(a, e, "response line {} differs ({threads} threads)", n + 1);
        }
        assert_eq!(actual, expected, "{threads} threads");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_report_reproduces_the_golden_pretty_json() {
    let spec_text = std::fs::read_to_string(golden("sweep-small.toml")).unwrap();
    let spec = tcp_scenarios::SweepSpec::from_toml(&spec_text).unwrap();
    let report = tcp_scenarios::run_sweep(&spec, 1).unwrap();
    let expected = std::fs::read_to_string(golden("sweep-small.json")).unwrap();
    assert_eq!(report.to_json().unwrap(), expected);
}
