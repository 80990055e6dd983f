//! Integration tests for the scenario-sweep engine: grid expansion against the shipped
//! spec, thread-count determinism of full sweeps, and golden-file serialization.

use tcp_batch::RunReport;
use tcp_scenarios::report::{ScenarioMetrics, ScenarioResult};
use tcp_scenarios::{expand, run_sweep, SweepReport, SweepSpec};

/// A small but non-trivial sweep: 2 regimes x 2 scheduling x 2 checkpointing.
fn small_spec() -> SweepSpec {
    SweepSpec::from_toml(
        r#"
[sweep]
name = "integration"
trials = 3
base_seed = 99

[[regime]]
name = "gcp-day"
kind = "catalog"

[[regime]]
name = "exp6"
kind = "exponential"
mean_hours = 6.0

[workload]
application = ["shapes"]
jobs = [10]

[cluster]
size = [4]

[policy]
scheduling = ["model-driven", "memoryless"]
checkpointing = ["none", "young-daly"]
"#,
    )
    .unwrap()
}

#[test]
fn sweep_is_byte_identical_across_thread_counts() {
    let spec = small_spec();
    let sequential = run_sweep(&spec, 1).unwrap();
    let parallel = run_sweep(&spec, 8).unwrap();
    assert_eq!(sequential, parallel, "structural equality");
    assert_eq!(
        sequential.to_json().unwrap(),
        parallel.to_json().unwrap(),
        "JSON must be byte-identical"
    );
    assert_eq!(
        sequential.to_csv(),
        parallel.to_csv(),
        "CSV must be byte-identical"
    );
}

#[test]
fn sharded_sweep_merges_byte_identically() {
    let spec = small_spec();
    let grid = expand(&spec).unwrap();
    let full = run_sweep(&spec, 0).unwrap();

    let shards: Vec<SweepReport> = (0..3)
        .map(|i| tcp_scenarios::run_sweep_shard(&spec, &grid, i, 3, 2).unwrap())
        .collect();
    assert_eq!(
        shards.iter().map(|s| s.scenarios.len()).sum::<usize>(),
        full.scenarios.len()
    );

    // Merge order must not matter; exercise a permuted order.
    let permuted = vec![shards[2].clone(), shards[0].clone(), shards[1].clone()];
    let merged = SweepReport::merge(&permuted).unwrap();
    assert_eq!(merged, full, "structural equality");
    assert_eq!(
        merged.to_json().unwrap(),
        full.to_json().unwrap(),
        "merged JSON must be byte-identical to the unsharded run"
    );
    assert_eq!(merged.to_csv(), full.to_csv());

    // A shard report also survives its own JSON round trip into a merge.
    let rehydrated: Vec<SweepReport> = shards
        .iter()
        .map(|s| serde_json::from_str(&s.to_json().unwrap()).unwrap())
        .collect();
    let merged2 = SweepReport::merge(&rehydrated).unwrap();
    assert_eq!(merged2.to_json().unwrap(), full.to_json().unwrap());
}

#[test]
fn merge_rejects_incomplete_or_foreign_shards() {
    let spec = small_spec();
    let grid = expand(&spec).unwrap();
    let shard0 = tcp_scenarios::run_sweep_shard(&spec, &grid, 0, 2, 1).unwrap();
    let shard1 = tcp_scenarios::run_sweep_shard(&spec, &grid, 1, 2, 1).unwrap();

    assert!(SweepReport::merge(&[]).is_err(), "empty merge");
    assert!(
        SweepReport::merge(std::slice::from_ref(&shard0)).is_err(),
        "missing shard"
    );
    assert!(
        SweepReport::merge(&[shard0.clone(), shard0.clone()]).is_err(),
        "duplicate shard"
    );

    let mut foreign = shard1.clone();
    foreign.base_seed += 1;
    assert!(
        SweepReport::merge(&[shard0, foreign]).is_err(),
        "mismatched base seed"
    );
}

#[test]
fn sweep_rankings_cover_every_regime_and_policy() {
    let report = run_sweep(&small_spec(), 0).unwrap();
    assert_eq!(report.scenario_count, 8);
    assert_eq!(report.rankings.len(), 2);
    for ranking in &report.rankings {
        assert_eq!(ranking.policies.len(), 4);
        assert_eq!(ranking.best().unwrap().rank, 1);
        assert_eq!(ranking.best().unwrap().cost_over_best_percent, 0.0);
        // Ranks ascend with cost.
        for pair in ranking.policies.windows(2) {
            assert!(pair[0].mean_cost_per_job <= pair[1].mean_cost_per_job);
            assert_eq!(pair[1].rank, pair[0].rank + 1);
        }
    }
}

#[test]
fn shipped_paper_figures_spec_expands_as_promised() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/scenarios/paper_figures.toml");
    let spec = SweepSpec::from_path(&path).unwrap();
    let grid = expand(&spec).unwrap();
    // The acceptance bar for the shipped grid: at least 3 varying axes and 12 scenarios.
    assert!(
        grid.varying_axes() >= 3,
        "varying axes = {}",
        grid.varying_axes()
    );
    assert!(grid.len() >= 12, "scenarios = {}", grid.len());
    assert_eq!(grid.len(), 18);
    assert_eq!(grid.regimes.len(), 3);
}

/// Builds a fully deterministic report from hand-written trial data (no simulation), so
/// the golden files only change when the serialization format changes.
fn golden_report() -> SweepReport {
    let spec = SweepSpec::from_toml(
        r#"
[sweep]
name = "golden"
trials = 2
base_seed = 7

[[regime]]
name = "alpha"
kind = "catalog"

[workload]
application = ["nanoconfinement"]
jobs = [4]

[policy]
scheduling = ["model-driven", "memoryless"]
"#,
    )
    .unwrap();
    let grid = expand(&spec).unwrap();
    assert_eq!(grid.len(), 2);
    let trial = |cost: f64, makespan: f64, preemptions: usize| RunReport {
        jobs: 4,
        makespan_hours: makespan,
        ideal_makespan_hours: 0.25,
        preemptions,
        job_restarts: preemptions,
        vms_launched: 4 + preemptions,
        total_cost: cost,
        total_work_hours: 0.9375,
        vm_hours: makespan * 4.0,
    };
    let results = vec![
        ScenarioResult {
            scenario: grid.scenarios[0].meta.clone(),
            trials: 2,
            metrics: ScenarioMetrics::from_reports(&[
                trial(0.125, 0.25, 0),
                trial(0.25, 0.3125, 1),
            ]),
        },
        ScenarioResult {
            scenario: grid.scenarios[1].meta.clone(),
            trials: 2,
            metrics: ScenarioMetrics::from_reports(&[
                trial(0.5, 0.375, 2),
                trial(0.375, 0.4375, 1),
            ]),
        },
    ];
    SweepReport::new(&spec, &grid, results)
}

/// With `GOLDEN_UPDATE=1`, rewrites the golden file instead of comparing.
fn check_golden(rendered: &str, expected: &str, relative_path: &str) {
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests")
            .join(relative_path);
        std::fs::write(&path, rendered).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        return;
    }
    assert_eq!(
        rendered.trim(),
        expected.trim(),
        "report format drifted from tests/{relative_path}; run with GOLDEN_UPDATE=1 to regenerate"
    );
}

#[test]
fn golden_json_serialization() {
    let json = golden_report().to_json().unwrap();
    check_golden(
        &json,
        include_str!("golden/golden.json"),
        "golden/golden.json",
    );
    // And it round-trips.
    let parsed: SweepReport = serde_json::from_str(&json).unwrap();
    assert_eq!(parsed, golden_report());
}

#[test]
fn golden_csv_serialization() {
    check_golden(
        &golden_report().to_csv(),
        include_str!("golden/golden.csv"),
        "golden/golden.csv",
    );
}

#[test]
fn text_rendering_mentions_every_regime() {
    let text = golden_report().render_text();
    assert!(text.contains("sweep `golden`"));
    assert!(text.contains("regime `alpha`"));
    assert!(text.contains("model-driven"));
    assert!(text.contains("memoryless"));
}

#[test]
fn heartbeat_that_fits_no_duration_is_a_usage_error() {
    // `1e300` is positive but fits no `Duration`: a usage error, not a panic on the
    // heartbeat thread.  Arguments are checked before the spec is read.
    for bad in ["1e300", "inf", "0"] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args(["spec.toml", "--dry-run", "--heartbeat", bad])
            .output()
            .expect("run sweep");
        assert_eq!(output.status.code(), Some(2), "--heartbeat {bad}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("--heartbeat must be a positive"),
            "{stderr}"
        );
    }
}
