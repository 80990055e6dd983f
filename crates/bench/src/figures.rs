//! Data-series generators for every figure in the paper's evaluation.
//!
//! Each function returns a small table (headers + rows) so the binary can print CSV and
//! the integration tests can assert the qualitative shape (who wins, where crossovers lie)
//! without touching stdout.

use tcp_batch::{BatchService, ServiceConfig};
use tcp_core::analysis::{running_time_analysis, RunningTimeAnalysis};
use tcp_core::{fit_bathtub_model, fit_model_comparison, LifetimeModel, ModelComparison};
use tcp_dists::ConstrainedBathtub;
use tcp_numerics::Result;
use tcp_policy::checkpoint::simulate::simulate_checkpointed_job;
use tcp_policy::{
    average_failure_probability, job_failure_probability, CheckpointConfig, DpCheckpointPolicy,
    MemorylessScheduler, ModelDrivenScheduler, YoungDalyPolicy,
};
use tcp_trace::{stats, ConfigKey, TimeOfDay, TraceGenerator, VmType, WorkloadKind, Zone};
use tcp_workloads::profiles::PAPER_APPLICATIONS;

/// A simple tabular result: column names plus rows of numbers, with a label per row group.
#[derive(Debug, Clone)]
pub struct FigureData {
    /// Identifier, e.g. "fig4b".
    pub id: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of values (same arity as `columns`).
    pub rows: Vec<Vec<f64>>,
    /// Optional per-row string label (series name), same length as `rows` when present.
    pub labels: Vec<String>,
}

impl FigureData {
    fn new(id: &str, columns: &[&str]) -> Self {
        FigureData {
            id: id.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            labels: Vec::new(),
        }
    }

    fn push(&mut self, label: impl Into<String>, row: Vec<f64>) {
        debug_assert_eq!(row.len(), self.columns.len());
        self.labels.push(label.into());
        self.rows.push(row);
    }

    /// Renders the table as CSV (label column first).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.id));
        out.push_str("series,");
        out.push_str(&self.columns.join(","));
        out.push('\n');
        for (label, row) in self.labels.iter().zip(&self.rows) {
            out.push_str(label);
            for v in row {
                out.push_str(&format!(",{v:.6}"));
            }
            out.push('\n');
        }
        out
    }
}

/// The default number of synthetic lifetimes used for the "empirical" studies.
pub const STUDY_SAMPLES: usize = 800;

/// Figure 1: empirical CDF of the Figure 1 configuration plus every fitted family.
pub fn figure1(seed: u64, grid_points: usize) -> Result<(FigureData, ModelComparison)> {
    let mut gen = TraceGenerator::new(seed);
    let records = gen.generate_for(ConfigKey::figure1(), STUDY_SAMPLES)?;
    let lifetimes: Vec<f64> = records.iter().map(|r| r.lifetime_hours).collect();
    let cmp = fit_model_comparison(&lifetimes, 24.0)?;
    let (ts, series) = cmp.cdf_series(grid_points);
    let mut fig = FigureData::new("fig1", &["time_hours", "cdf"]);
    for (label, values) in &series {
        for (t, v) in ts.iter().zip(values) {
            fig.push(label.clone(), vec![*t, *v]);
        }
    }
    Ok((fig, cmp))
}

/// Figures 2a–2c: empirical CDFs grouped by VM type, diurnal/workload cell, and zone.
pub fn figure2(seed: u64, per_cell: usize, grid_points: usize) -> Result<[FigureData; 3]> {
    let mut gen = TraceGenerator::new(seed);
    let grid = |lifetimes: &[f64]| -> Result<Vec<(f64, f64)>> {
        let ecdf = tcp_numerics::stats::Ecdf::new(lifetimes)?;
        let (xs, ys) = ecdf.on_grid(0.0, 24.0, grid_points)?;
        Ok(xs.into_iter().zip(ys).collect())
    };

    // Each panel builds its group index once; the per-group queries below then touch
    // only the matching cells instead of re-scanning the whole record list per group.

    // 2a: VM types in us-central1-c
    let index = stats::GroupIndex::build(&gen.generate_vm_type_sweep(Zone::UsCentral1C, per_cell)?);
    let mut fig2a = FigureData::new("fig2a", &["time_hours", "cdf"]);
    for vm_type in VmType::all() {
        let lifetimes = index.matching(Some(vm_type), None, None, None);
        for (t, v) in grid(&lifetimes)? {
            fig2a.push(vm_type.to_string(), vec![t, v]);
        }
    }

    // 2b: day/night × idle/non-idle for n1-highcpu-16
    let index = stats::GroupIndex::build(&gen.generate_diurnal_sweep(
        VmType::N1HighCpu16,
        Zone::UsEast1B,
        per_cell,
    )?);
    let mut fig2b = FigureData::new("fig2b", &["time_hours", "cdf"]);
    for (label, tod, wk) in [
        ("Idle", None, Some(WorkloadKind::Idle)),
        ("Non-Idle", None, Some(WorkloadKind::NonIdle)),
        ("Night", Some(TimeOfDay::Night), None),
        ("Day", Some(TimeOfDay::Day), None),
    ] {
        let lifetimes = index.matching(None, None, tod, wk);
        for (t, v) in grid(&lifetimes)? {
            fig2b.push(label, vec![t, v]);
        }
    }

    // 2c: zones for n1-highcpu-16
    let index = stats::GroupIndex::build(&gen.generate_zone_sweep(VmType::N1HighCpu16, per_cell)?);
    let mut fig2c = FigureData::new("fig2c", &["time_hours", "cdf"]);
    for zone in Zone::all() {
        let lifetimes = index.matching(None, Some(zone), None, None);
        for (t, v) in grid(&lifetimes)? {
            fig2c.push(zone.to_string(), vec![t, v]);
        }
    }
    Ok([fig2a, fig2b, fig2c])
}

/// Fits the model used by the policy figures (from a fresh synthetic study).
pub fn fitted_model(seed: u64) -> Result<ConstrainedBathtub> {
    let mut gen = TraceGenerator::new(seed);
    let records = gen.generate_for(ConfigKey::figure1(), STUDY_SAMPLES)?;
    let lifetimes: Vec<f64> = records.iter().map(|r| r.lifetime_hours).collect();
    Ok(fit_bathtub_model(&lifetimes, 24.0)?.model)
}

/// Figure 4a/4b: wasted computation and expected increase in running time vs job length.
pub fn figure4(
    model: &ConstrainedBathtub,
    steps: usize,
) -> Result<(FigureData, FigureData, RunningTimeAnalysis)> {
    let analysis = running_time_analysis(model, model.horizon(), steps)?;
    let mut fig4a = FigureData::new("fig4a", &["job_length_hours", "wasted_hours"]);
    let mut fig4b = FigureData::new("fig4b", &["job_length_hours", "expected_increase_hours"]);
    for p in &analysis.points {
        fig4a.push("Bathtub", vec![p.job_len, p.bathtub_wasted]);
        fig4a.push("Uniform", vec![p.job_len, p.uniform_wasted]);
        fig4b.push("Bathtub", vec![p.job_len, p.bathtub_increase]);
        fig4b.push("Uniform", vec![p.job_len, p.uniform_increase]);
    }
    Ok((fig4a, fig4b, analysis))
}

/// Figure 5: failure probability of a 6-hour job vs its start time, both policies.
pub fn figure5(model: &ConstrainedBathtub, job_len: f64, steps: usize) -> FigureData {
    let ours = ModelDrivenScheduler::new(*model);
    let memoryless = MemorylessScheduler;
    let mut fig = FigureData::new("fig5", &["start_time_hours", "failure_probability"]);
    for i in 0..steps {
        let start = i as f64 * model.horizon() / steps as f64;
        fig.push(
            "Memoryless Policy",
            vec![
                start,
                job_failure_probability(&memoryless, model, start, job_len),
            ],
        );
        fig.push(
            "Our Policy",
            vec![start, job_failure_probability(&ours, model, start, job_len)],
        );
    }
    fig
}

/// Figure 6: average failure probability vs job length, both policies.
pub fn figure6(model: &ConstrainedBathtub, steps: usize) -> Result<FigureData> {
    let ours = ModelDrivenScheduler::new(*model);
    let memoryless = MemorylessScheduler;
    let mut fig = FigureData::new("fig6", &["job_length_hours", "failure_probability"]);
    for i in 1..=steps {
        let job_len = i as f64 * model.horizon() / steps as f64;
        fig.push(
            "Memoryless Policy",
            vec![
                job_len,
                average_failure_probability(&memoryless, model, job_len, 96)?,
            ],
        );
        fig.push(
            "Our Policy",
            vec![
                job_len,
                average_failure_probability(&ours, model, job_len, 96)?,
            ],
        );
    }
    Ok(fig)
}

/// Figure 7: best-fit vs deliberately suboptimal bathtub model vs memoryless.
pub fn figure7(
    truth: &ConstrainedBathtub,
    suboptimal: &ConstrainedBathtub,
    steps: usize,
) -> Result<FigureData> {
    let best = ModelDrivenScheduler::new(*truth);
    let misfit = ModelDrivenScheduler::new(*suboptimal);
    let memoryless = MemorylessScheduler;
    let mut fig = FigureData::new("fig7", &["job_length_hours", "failure_probability"]);
    for i in 1..=steps {
        let job_len = i as f64 * truth.horizon() / steps as f64;
        fig.push(
            "Memoryless Policy",
            vec![
                job_len,
                average_failure_probability(&memoryless, truth, job_len, 96)?,
            ],
        );
        fig.push(
            "Best-fit Bathtub Model",
            vec![
                job_len,
                average_failure_probability(&best, truth, job_len, 96)?,
            ],
        );
        fig.push(
            "Suboptimal Bathtub Model",
            vec![
                job_len,
                average_failure_probability(&misfit, truth, job_len, 96)?,
            ],
        );
    }
    Ok(fig)
}

/// Section 4.3 example: the non-uniform checkpoint schedule of a 5-hour job at VM age 0.
pub fn checkpoint_schedule_example(model: &ConstrainedBathtub) -> Result<FigureData> {
    let policy = DpCheckpointPolicy::new(*model, CheckpointConfig::paper_defaults())?;
    let schedule = policy.schedule(5.0, 0.0)?;
    let mut fig = FigureData::new("ckpt_schedule", &["interval_index", "interval_minutes"]);
    for (i, interval) in schedule.intervals_hours.iter().enumerate() {
        fig.push("Our Policy", vec![i as f64, interval * 60.0]);
    }
    Ok(fig)
}

/// Figure 8a: % increase in running time vs job start time (4-hour job), DP vs Young–Daly.
pub fn figure8a(model: &ConstrainedBathtub, trials: usize) -> Result<FigureData> {
    let dp = DpCheckpointPolicy::new(*model, CheckpointConfig::paper_defaults())?;
    let yd = YoungDalyPolicy::paper_baseline();
    let mut fig = FigureData::new("fig8a", &["start_time_hours", "percent_increase"]);
    let mut rng = rand::rngs::StdRng::seed_from_u64(808);
    use rand::SeedableRng;
    for start in [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0] {
        let ours = simulate_checkpointed_job(&dp, model, 4.0, start, trials, &mut rng)?;
        let baseline = simulate_checkpointed_job(&yd, model, 4.0, start, trials, &mut rng)?;
        fig.push(
            "Our Policy",
            vec![start, 100.0 * ours.mean_overhead_fraction],
        );
        fig.push(
            "Young-Daly",
            vec![start, 100.0 * baseline.mean_overhead_fraction],
        );
    }
    Ok(fig)
}

/// Figure 8b: % increase in running time vs job length (start at VM age 0).
pub fn figure8b(model: &ConstrainedBathtub, trials: usize) -> Result<FigureData> {
    let dp = DpCheckpointPolicy::new(*model, CheckpointConfig::paper_defaults())?;
    let yd = YoungDalyPolicy::paper_baseline();
    let mut fig = FigureData::new("fig8b", &["job_length_hours", "percent_increase"]);
    let mut rng = rand::rngs::StdRng::seed_from_u64(809);
    use rand::SeedableRng;
    for job_len in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0] {
        let ours = simulate_checkpointed_job(&dp, model, job_len, 0.0, trials, &mut rng)?;
        let baseline = simulate_checkpointed_job(&yd, model, job_len, 0.0, trials, &mut rng)?;
        fig.push(
            "Our Policy",
            vec![job_len, 100.0 * ours.mean_overhead_fraction],
        );
        fig.push(
            "Young-Daly",
            vec![job_len, 100.0 * baseline.mean_overhead_fraction],
        );
    }
    Ok(fig)
}

/// Figure 9a: cost per job of the service on preemptible VMs vs on-demand, per application.
pub fn figure9a(
    model: &ConstrainedBathtub,
    jobs_per_bag: usize,
    cluster_size: usize,
) -> Result<FigureData> {
    let mut fig = FigureData::new("fig9a", &["cost_per_job_usd", "cost_ratio"]);
    for (i, profile) in PAPER_APPLICATIONS.iter().enumerate() {
        let bag = profile.bag(jobs_per_bag, 90 + i as u64)?;
        let ours = BatchService::new(
            ServiceConfig {
                cluster_size,
                ..ServiceConfig::paper_cost_experiment(100 + i as u64)
            },
            std::sync::Arc::new(*model),
        )?
        .run_bag(&bag)?;
        let on_demand = BatchService::new(
            ServiceConfig {
                cluster_size,
                ..ServiceConfig::on_demand_comparator(100 + i as u64)
            },
            std::sync::Arc::new(*model),
        )?
        .run_bag(&bag)?;
        fig.push(
            format!("{} (Our Service)", profile.name),
            vec![
                ours.cost_per_job(),
                on_demand.cost_per_job() / ours.cost_per_job(),
            ],
        );
        fig.push(
            format!("{} (On-demand)", profile.name),
            vec![on_demand.cost_per_job(), 1.0],
        );
    }
    Ok(fig)
}

/// Figure 9b: % increase in running time vs number of preemptions observed (repeated runs).
pub fn figure9b(
    model: &ConstrainedBathtub,
    jobs_per_bag: usize,
    cluster_size: usize,
    repetitions: usize,
) -> Result<FigureData> {
    let profile = &PAPER_APPLICATIONS[0]; // nanoconfinement, as in the paper
    let mut fig = FigureData::new("fig9b", &["preemptions", "percent_increase"]);
    for rep in 0..repetitions {
        let bag = profile.bag(jobs_per_bag, 500 + rep as u64)?;
        let report = BatchService::new(
            ServiceConfig {
                cluster_size,
                ..ServiceConfig::paper_cost_experiment(600 + rep as u64)
            },
            std::sync::Arc::new(*model),
        )?
        .run_bag(&bag)?;
        fig.push(
            "Our Service",
            vec![
                report.preemptions as f64,
                report.percent_increase_in_running_time(),
            ],
        );
    }
    Ok(fig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_series_and_ranking() {
        let (fig, cmp) = figure1(1, 20).unwrap();
        assert_eq!(fig.columns, vec!["time_hours", "cdf"]);
        assert!(fig.rows.len() >= 6 * 20);
        assert_eq!(cmp.families[0].label, "Our Model");
        assert!(fig.to_csv().contains("fig1"));
    }

    #[test]
    fn figure4_crossover_present() {
        let model = ConstrainedBathtub::paper_representative();
        let (_a, b, analysis) = figure4(&model, 48).unwrap();
        assert!(analysis.crossover_job_len.is_some());
        assert!(b.rows.len() == 2 * 48);
    }

    #[test]
    fn figure5_and_6_policy_gap() {
        let model = ConstrainedBathtub::paper_representative();
        let fig5 = figure5(&model, 6.0, 24);
        assert_eq!(fig5.rows.len(), 48);
        let fig6 = figure6(&model, 12).unwrap();
        // our policy never exceeds memoryless at any job length
        for pair in fig6.rows.chunks(2) {
            let memoryless = pair[0][1];
            let ours = pair[1][1];
            assert!(ours <= memoryless + 1e-9);
        }
    }

    #[test]
    fn checkpoint_example_has_increasing_intervals() {
        let model = ConstrainedBathtub::paper_representative();
        let fig = checkpoint_schedule_example(&model).unwrap();
        assert!(fig.rows.len() >= 3);
        let first = fig.rows.first().unwrap()[1];
        let last = fig.rows.last().unwrap()[1];
        assert!(last > first);
    }

    #[test]
    fn figure9a_shows_cost_advantage() {
        let model = ConstrainedBathtub::paper_representative();
        let fig = figure9a(&model, 30, 8).unwrap();
        // every "Our Service" row must report a cost ratio comfortably above 1
        for (label, row) in fig.labels.iter().zip(&fig.rows) {
            if label.contains("Our Service") {
                assert!(row[1] > 2.0, "{label}: ratio = {}", row[1]);
            }
        }
    }
}
