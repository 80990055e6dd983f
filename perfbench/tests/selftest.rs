//! Benchmark self-test: short runs of every workload, twice.
//!
//! Asserts that every run is correct with zero failed operations, that the exact
//! metrics (`allocs_per_op` of the single-threaded in-process workloads) and every
//! digest repeat exactly between the two runs, that a traced run writes its trace
//! files, and that a corrupted expected digest is reported as failed operations.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

struct Run {
    exit_ok: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    digests: BTreeMap<String, String>,
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("perfbench-selftest")
        .join(name);
    std::fs::create_dir_all(&dir).expect("temporary directory");
    dir
}

fn run(workload: &str, trace: bool, extra: &[&str]) -> Run {
    let out_dir = temp_dir(&format!("{workload}-out"));
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&out_dir)
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "{workload}: no output; stderr:\n{}",
            String::from_utf8_lossy(&output.stderr)
        )
    });
    let mut digests = BTreeMap::new();
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("digest ") {
            let (key, value) = rest.split_once(' ').expect("digest line");
            digests.insert(key.to_string(), value.to_string());
        }
    }
    let result = serde_json::parse_value(last).expect("result line is JSON");
    let metrics = result
        .get("metrics")
        .and_then(|m| m.as_map())
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(|v| v.as_f64())
                .expect("metric value");
            (name.clone(), value)
        })
        .collect();
    let count = |key: &str| result.get(key).and_then(|v| v.as_u64()).expect(key);
    Run {
        exit_ok: output.status.success(),
        correct: result
            .get("correct")
            .and_then(|v| v.as_bool())
            .expect("correct"),
        attempted: count("attempted"),
        failed: count("failed"),
        metrics,
        digests,
    }
}

fn twice(workload: &str, exact_allocs: bool) {
    let a = run(workload, false, &[]);
    let b = run(workload, false, &[]);
    for r in [&a, &b] {
        assert!(r.exit_ok && r.correct, "{workload}: run not correct");
        assert_eq!(r.failed, 0, "{workload}: failed operations");
        assert!(r.attempted > 0);
        for name in [
            "setup_s",
            "throughput_per_s",
            "latency_p50_ms",
            "latency_p99_ms",
            "allocs_per_op",
            "alloc_bytes_per_op",
            "peak_mem_mb",
        ] {
            let value = r.metrics.get(name).copied();
            assert!(
                value.is_some_and(|v| v > 0.0),
                "{workload}: {name} = {value:?}"
            );
        }
    }
    assert!(!a.digests.is_empty());
    assert_eq!(
        a.digests, b.digests,
        "{workload}: digests differ between runs"
    );
    if exact_allocs {
        assert_eq!(
            a.metrics["allocs_per_op"], b.metrics["allocs_per_op"],
            "{workload}: allocs_per_op differs between runs"
        );
    }
}

#[test]
fn serve_cells_repeats() {
    twice("serve-cells", true);
}

#[test]
fn refresh_repeats() {
    twice("refresh", false);
}

#[test]
fn sweep_repeats() {
    twice("sweep", true);
}

#[test]
fn traced_run_writes_trace_files() {
    let r = run("serve-cells", true, &[]);
    assert!(r.exit_ok && r.correct);
    assert_eq!(r.failed, 0);
    for name in [
        "wire.parse_ns",
        "advisor.advise_allocs",
        "tcp.bytes_out",
        "host.ref_ops_per_s",
    ] {
        assert!(r.metrics[name] > 0.0, "{name}");
    }
    let dir = temp_dir("serve-cells-out");
    for file in [
        "serve-cells-seed7.trace.json",
        "serve-cells-seed7.layers.json",
    ] {
        let text = std::fs::read_to_string(dir.join(file)).expect("trace file written");
        serde_json::parse_value(&text).unwrap_or_else(|e| panic!("{file} is not JSON: {e}"));
    }
}

#[test]
fn corrupted_digest_counts_failed_operations() {
    let builtin = include_str!("../expected-digests.txt");
    let corrupted: String = builtin
        .lines()
        .map(|line| match line.strip_prefix("sweep.report ") {
            Some(_) => "sweep.report 0000000000000000".to_string(),
            None => line.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n");
    let path = temp_dir("corrupted").join("expected-digests.txt");
    std::fs::write(&path, corrupted).expect("write corrupted digests");
    let r = run(
        "sweep",
        false,
        &["--expected", path.to_str().expect("utf-8 path")],
    );
    assert!(!r.exit_ok, "a digest mismatch must fail the run");
    assert!(!r.correct);
    // The golden probe is the pinned grid: 18 scenarios × 5 trials.
    assert_eq!(r.failed, 90);
}
