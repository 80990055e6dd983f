//! The parallel sweep runner.
//!
//! Takes an expanded grid and fans `scenario × trial` tasks out over the cloudsim
//! work-stealing driver ([`tcp_cloudsim::run_tasks`]).  The flattened task space means
//! small grids with many trials and large grids with few trials both saturate the worker
//! pool — no per-scenario barrier ever serialises the sweep.
//!
//! Determinism: every task's provider RNG stream is derived from
//! `(base_seed, scenario id, trial)` with a SplitMix64 mixer, job bags are derived only
//! from the workload axes (so competing policies face byte-identical bags), and trial
//! results are reduced sequentially in task order — the resulting [`SweepReport`] is
//! bit-identical for every `--threads` value.
//!
//! Progress is published to the process-global [`tcp_obs`] registry as the sweep runs:
//! `sweep.trials.scheduled` advances by the task count up front,
//! `sweep.trials.completed` advances as workers finish trials, and each trial's wall
//! time lands in the `sweep.trial.latency` histogram — which is what the `sweep`
//! binary's `--heartbeat` flag reads to print live progress.  The metrics never touch
//! the report: its bytes stay identical with metrics enabled, disabled, or scraped
//! mid-run.

use crate::grid::{expand, ExpandedGrid, Scenario};
use crate::report::{ScenarioMetrics, ScenarioResult, SweepReport};
use crate::spec::{Regime, RegimeSpec, SweepSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use tcp_batch::{BatchService, PreparedBag, RunReport};
use tcp_cloudsim::run_tasks;
use tcp_core::{fit_bathtub_model, LifetimeModel};
use tcp_dists::ConstrainedBathtub;
use tcp_numerics::{NumericsError, Result};
use tcp_workloads::profiles::profile_by_name;
use tcp_workloads::BagOfJobs;

/// Default number of lifetimes sampled when fitting a per-regime model.
pub const DEFAULT_FIT_SAMPLES: usize = 600;

/// SplitMix64 finalizer: decorrelates structured seed inputs into full 64-bit streams.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic provider seed for one `(base_seed, scenario, trial)` cell.  The
/// trial index fills the low 20 bits, so cells stay distinct only for trials below
/// [`MAX_TRIALS`](crate::spec::MAX_TRIALS), the cap `SweepSpec::validate` enforces.
pub fn trial_seed(base_seed: u64, scenario_id: usize, trial: usize) -> u64 {
    mix(base_seed ^ mix((scenario_id as u64) << 20 | trial as u64))
}

/// The deterministic bag seed for one workload point: shared by every scenario with the
/// same application and bag size so policies compete on identical work.
pub fn bag_seed(base_seed: u64, application: &str, jobs: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ base_seed;
    for b in application.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    mix(h ^ (jobs as u64))
}

/// Builds the policy model for one regime according to the sweep's `model` setting
/// (`paper-representative` uses the Section 3.2.2 parameters, `fitted` samples the
/// regime's ground truth and refits, `calibrated` serves the cell's goodness-of-fit
/// *winner* — bathtub, Weibull, exponential, phased or the empirical fallback — through
/// the model-generic [`LifetimeModel`] surface).  Public so other subsystems — the
/// advisor's pack builder in particular — derive byte-identical models from the same
/// spec.
pub fn regime_model(
    spec: &SweepSpec,
    regime: &RegimeSpec,
    regime_index: usize,
) -> Result<Arc<dyn LifetimeModel>> {
    match spec.sweep.model.as_deref() {
        None | Some("paper-representative") => {
            Ok(Arc::new(ConstrainedBathtub::paper_representative()))
        }
        Some("calibrated") => {
            // Non-calibrated regimes keep the documented default, the paper's
            // representative parameters; calibrated regimes drive their policies from
            // the cell's own winner family.
            match regime.calibrated_model()? {
                Some(model) => Ok(model),
                None => Ok(Arc::new(ConstrainedBathtub::paper_representative())),
            }
        }
        Some("fitted") => {
            let samples = spec.sweep.fit_samples.unwrap_or(DEFAULT_FIT_SAMPLES);
            if samples < 50 {
                return Err(NumericsError::invalid(
                    "sweep.fit_samples must be at least 50",
                ));
            }
            let truth = regime.representative_distribution()?;
            let mut rng =
                StdRng::seed_from_u64(mix(spec.base_seed() ^ 0xF17 ^ regime_index as u64));
            let lifetimes = truth.sample_n(&mut rng, samples);
            Ok(Arc::new(fit_bathtub_model(&lifetimes, 24.0)?.model))
        }
        Some(other) => Err(NumericsError::invalid(format!(
            "unknown sweep.model `{other}`"
        ))),
    }
}

/// Everything one scenario needs at run time.
struct PreparedScenario {
    scenario: Scenario,
    service: BatchService,
    regime: Regime,
    bag: PreparedBag,
}

fn prepare(
    spec: &SweepSpec,
    grid: &ExpandedGrid,
    keep: &dyn Fn(usize) -> bool,
) -> Result<Vec<PreparedScenario>> {
    // Regimes and models are built once per regime, not once per scenario.
    let mut regimes = Vec::with_capacity(grid.regimes.len());
    for (i, regime_spec) in grid.regimes.iter().enumerate() {
        regimes.push(Regime {
            name: regime_spec.name.clone(),
            template: regime_spec.build_template()?,
            model: regime_model(spec, regime_spec, i)?,
        });
    }

    let mut prepared = Vec::with_capacity(grid.scenarios.len());
    for scenario in grid.scenarios.iter().filter(|s| keep(s.meta.id)) {
        let regime = regimes[scenario.regime_index].clone();
        let service = BatchService::new(scenario.config, regime.model.clone()).map_err(|e| {
            NumericsError::invalid(format!("scenario `{}`: {e}", scenario.meta.label))
        })?;
        let profile =
            profile_by_name(&scenario.meta.application).expect("validated during grid expansion");
        let bag = service.prepare_bag(BagOfJobs::homogeneous(
            format!("{}-x{}", profile.name, scenario.meta.jobs),
            profile.name,
            scenario.meta.jobs,
            profile.runtime_hours,
            profile.total_vcpus(),
            grid.runtime_jitter,
            bag_seed(
                spec.base_seed(),
                &scenario.meta.application,
                scenario.meta.jobs,
            ),
        )?);
        prepared.push(PreparedScenario {
            scenario: scenario.clone(),
            service,
            regime,
            bag,
        });
    }
    Ok(prepared)
}

/// Runs the full sweep described by `spec` on `threads` worker threads (`0` = all CPUs).
///
/// Returns a [`SweepReport`] whose contents are bit-identical for every thread count.
pub fn run_sweep(spec: &SweepSpec, threads: usize) -> Result<SweepReport> {
    let grid = expand(spec)?;
    run_sweep_on_grid(spec, &grid, threads)
}

/// Runs a sweep over an already expanded grid (lets callers inspect or subset the grid
/// before spending compute).
pub fn run_sweep_on_grid(
    spec: &SweepSpec,
    grid: &ExpandedGrid,
    threads: usize,
) -> Result<SweepReport> {
    run_sweep_filtered(spec, grid, &|_| true, threads)
}

/// Runs one shard of a sweep: the scenarios whose id satisfies
/// `id % shard_count == shard_index`.
///
/// Striding by id (rather than splitting contiguous ranges) balances load across shards
/// even when one regime or policy is much slower than the others.  Because every trial's
/// RNG stream is derived from `(base_seed, scenario id, trial)` and the full grid is
/// expanded before filtering, a shard's per-scenario results are byte-identical to the
/// same scenarios in an unsharded run — which is what lets
/// [`SweepReport::merge`](crate::report::SweepReport::merge) reassemble the exact
/// unsharded report.
pub fn run_sweep_shard(
    spec: &SweepSpec,
    grid: &ExpandedGrid,
    shard_index: usize,
    shard_count: usize,
    threads: usize,
) -> Result<SweepReport> {
    if shard_count == 0 {
        return Err(NumericsError::invalid("shard count must be at least 1"));
    }
    if shard_index >= shard_count {
        return Err(NumericsError::invalid(format!(
            "shard index {shard_index} out of range for {shard_count} shards"
        )));
    }
    run_sweep_filtered(spec, grid, &|id| id % shard_count == shard_index, threads)
}

fn run_sweep_filtered(
    spec: &SweepSpec,
    grid: &ExpandedGrid,
    keep: &dyn Fn(usize) -> bool,
    threads: usize,
) -> Result<SweepReport> {
    if grid.is_empty() {
        return Err(NumericsError::invalid(
            "the sweep grid is empty (an axis has no values)",
        ));
    }
    let trials = spec.trials();
    let base_seed = spec.base_seed();
    let prepared = prepare(spec, grid, keep)?;

    // Flatten scenario × trial into one task space and let workers steal across it.
    let task_count = prepared.len() * trials;
    tcp_obs::counter("sweep.trials.scheduled").add(task_count as u64);
    let completed = tcp_obs::counter("sweep.trials.completed");
    let outcomes: Vec<Result<RunReport>> = run_tasks(task_count, threads, |task| {
        let _trial_span = tcp_obs::time!("sweep.trial.latency");
        let scenario_index = task / trials;
        let trial = task % trials;
        // One trace per trial (seeded by the flattened task index — deterministic
        // for a given grid), alongside the histogram feeding `--heartbeat`.  The
        // arg records which scenario the trial belongs to.
        let _trial_trace = tcp_obs::root_span!("sweep.trial", task as u64, scenario_index as u64);
        let p = &prepared[scenario_index];
        let outcome = p.service.run_bag_with(
            &p.bag,
            &p.regime.template,
            trial_seed(base_seed, p.scenario.meta.id, trial),
        );
        completed.incr();
        outcome
    });

    // Sequential, task-ordered reduction: deterministic regardless of thread count.
    let mut results = Vec::with_capacity(prepared.len());
    for (scenario_index, p) in prepared.iter().enumerate() {
        let mut reports = Vec::with_capacity(trials);
        for trial in 0..trials {
            match &outcomes[scenario_index * trials + trial] {
                Ok(report) => reports.push(*report),
                Err(e) => {
                    return Err(NumericsError::invalid(format!(
                        "scenario `{}` trial {trial}: {e}",
                        p.scenario.meta.label
                    )))
                }
            }
        }
        results.push(ScenarioResult {
            scenario: p.scenario.meta.clone(),
            trials,
            metrics: ScenarioMetrics::from_reports(&reports),
        });
    }

    Ok(SweepReport::new(spec, grid, results))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(extra: &str) -> SweepSpec {
        SweepSpec::from_toml(&format!(
            r#"
[sweep]
name = "tiny"
trials = 2
base_seed = 11

[workload]
application = ["shapes"]
jobs = [6]

[cluster]
size = [4]
{extra}
"#
        ))
        .unwrap()
    }

    #[test]
    fn seeds_are_decorrelated_and_deterministic() {
        assert_eq!(trial_seed(1, 2, 3), trial_seed(1, 2, 3));
        assert_ne!(trial_seed(1, 2, 3), trial_seed(1, 2, 4));
        assert_ne!(trial_seed(1, 2, 3), trial_seed(1, 3, 3));
        assert_ne!(trial_seed(1, 2, 3), trial_seed(2, 2, 3));
        assert_eq!(bag_seed(7, "shapes", 10), bag_seed(7, "shapes", 10));
        assert_ne!(bag_seed(7, "shapes", 10), bag_seed(7, "lulesh", 10));
        assert_ne!(bag_seed(7, "shapes", 10), bag_seed(7, "shapes", 11));
    }

    #[test]
    fn sweep_runs_and_aggregates() {
        let report = run_sweep(&tiny_spec(""), 2).unwrap();
        assert_eq!(report.scenarios.len(), 1);
        let s = &report.scenarios[0];
        assert_eq!(s.trials, 2);
        assert!(s.metrics.total_cost.mean > 0.0);
        assert!(s.metrics.makespan_hours.mean > 0.0);
        assert!(s.metrics.utilisation.mean > 0.0);
    }

    #[test]
    fn sweep_progress_lands_in_the_registry() {
        let scheduled = tcp_obs::counter("sweep.trials.scheduled");
        let completed = tcp_obs::counter("sweep.trials.completed");
        let trial_count = |name: &str| {
            tcp_obs::Registry::global()
                .histogram_snapshot(name)
                .map(|s| s.count)
                .unwrap_or(0)
        };
        let (s0, c0) = (scheduled.get(), completed.get());
        let latency0 = trial_count("sweep.trial.latency");
        // 1 scenario × 2 trials; counters are process-global and other tests sweep
        // concurrently, so assert this run's minimum contribution.
        run_sweep(&tiny_spec(""), 2).unwrap();
        assert!(scheduled.get() >= s0 + 2);
        assert!(completed.get() >= c0 + 2);
        assert!(trial_count("sweep.trial.latency") >= latency0 + 2);
    }

    #[test]
    fn policies_share_identical_bags() {
        let spec = tiny_spec("\n[policy]\nscheduling = [\"model-driven\", \"memoryless\"]\n");
        let grid = expand(&spec).unwrap();
        let prepared = prepare(&spec, &grid, &|_| true).unwrap();
        assert_eq!(prepared.len(), 2);
        assert_eq!(prepared[0].bag, prepared[1].bag);
    }

    #[test]
    fn shard_arguments_are_validated() {
        let spec = tiny_spec("");
        let grid = expand(&spec).unwrap();
        assert!(run_sweep_shard(&spec, &grid, 0, 0, 1).is_err());
        assert!(run_sweep_shard(&spec, &grid, 3, 3, 1).is_err());
    }

    #[test]
    fn shards_partition_the_grid() {
        let spec = tiny_spec("\n[policy]\nscheduling = [\"model-driven\", \"memoryless\"]\n");
        let grid = expand(&spec).unwrap();
        let a = run_sweep_shard(&spec, &grid, 0, 2, 1).unwrap();
        let b = run_sweep_shard(&spec, &grid, 1, 2, 1).unwrap();
        assert_eq!(a.scenarios.len(), 1);
        assert_eq!(b.scenarios.len(), 1);
        assert_eq!(a.scenarios[0].scenario.id, 0);
        assert_eq!(b.scenarios[0].scenario.id, 1);
        // Shard results match the same scenarios of the unsharded run exactly.
        let full = run_sweep(&spec, 1).unwrap();
        assert_eq!(full.scenarios[0], a.scenarios[0]);
        assert_eq!(full.scenarios[1], b.scenarios[0]);
    }

    #[test]
    fn calibrated_sweep_runs_one_scenario_per_cell() {
        // Build a catalog, then sweep it with `kind = "calibrated"` and the catalog's
        // own per-cell bathtub fits as the policy models.
        let dir = std::env::temp_dir().join("tcp_scenarios_runner_calibrated");
        std::fs::create_dir_all(&dir).unwrap();
        let catalog_path = dir.join("catalog.json");
        let records = tcp_trace::TraceGenerator::new(7)
            .generate_study(500, 80)
            .unwrap();
        let catalog = tcp_calibrate::Calibrator::new("runner-test")
            .calibrate(&records, "synthetic", 0)
            .unwrap();
        std::fs::write(&catalog_path, catalog.to_json().unwrap()).unwrap();

        let spec = SweepSpec::from_toml(&format!(
            r#"
[sweep]
name = "calibrated"
trials = 1
base_seed = 5
model = "calibrated"

[[regime]]
name = "cal"
kind = "calibrated"
catalog = "{}"
cells = ["n1-highcpu-16/us-east1-b/day", "n1-highcpu-2/us-west1-a/night"]

[workload]
application = ["shapes"]
jobs = [4]

[cluster]
size = [2]
"#,
            catalog_path.display()
        ))
        .unwrap();
        let report = run_sweep(&spec, 2).unwrap();
        assert_eq!(report.scenarios.len(), 2);
        assert_eq!(
            report.scenarios[0].scenario.regime,
            "cal/n1-highcpu-16/us-east1-b/day"
        );
        assert_eq!(
            report.scenarios[1].scenario.regime,
            "cal/n1-highcpu-2/us-west1-a/night"
        );
        for s in &report.scenarios {
            assert!(s.metrics.makespan_hours.mean > 0.0);
        }
    }

    #[test]
    fn fitted_model_mode_runs() {
        let mut spec = tiny_spec("");
        spec.sweep.model = Some("fitted".to_string());
        spec.sweep.fit_samples = Some(300);
        let report = run_sweep(&spec, 0).unwrap();
        assert_eq!(report.scenarios.len(), 1);
    }
}
