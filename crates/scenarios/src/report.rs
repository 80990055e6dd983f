//! Sweep reports: per-scenario summaries, policy rankings, and serialization.
//!
//! A [`SweepReport`] aggregates every scenario's Monte-Carlo trials into per-metric
//! [`MonteCarloSummary`] statistics (Welford reduction), then derives the comparisons the
//! paper's evaluation is about: the best policy per preemption regime and each policy's
//! cost/makespan delta against that winner.  Reports serialize to JSON (structured) and
//! CSV (one row per scenario), and render as a human-readable text summary.

use crate::grid::{ExpandedGrid, ScenarioMeta};
use crate::spec::SweepSpec;
use serde::{Deserialize, Serialize};
use tcp_batch::RunReport;
use tcp_cloudsim::MonteCarloSummary;
use tcp_numerics::stats::Welford;
use tcp_numerics::{NumericsError, Result};

/// Summarises a slice of per-trial values.
fn summarize(values: &[f64]) -> MonteCarloSummary {
    let mut welford = Welford::new();
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &v in values {
        welford.add(v);
        min = min.min(v);
        max = max.max(v);
    }
    MonteCarloSummary {
        trials: welford.count() as usize,
        mean: welford.mean(),
        std_dev: welford.std_dev(),
        std_error: welford.std_error(),
        min,
        max,
    }
}

/// Per-scenario metric summaries over the Monte-Carlo trials.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioMetrics {
    /// Cost per job, USD.
    pub cost_per_job: MonteCarloSummary,
    /// Total cost of the bag, USD.
    pub total_cost: MonteCarloSummary,
    /// Wall-clock makespan, hours.
    pub makespan_hours: MonteCarloSummary,
    /// Percent increase of the makespan over the preemption-free ideal.
    pub percent_increase_in_running_time: MonteCarloSummary,
    /// Preemptions that interrupted running jobs.
    pub preemptions: MonteCarloSummary,
    /// Job restarts.
    pub job_restarts: MonteCarloSummary,
    /// VMs launched.
    pub vms_launched: MonteCarloSummary,
    /// Useful work divided by billed VM hours.
    pub utilisation: MonteCarloSummary,
}

impl ScenarioMetrics {
    /// Aggregates the trial reports of one scenario.
    pub fn from_reports(reports: &[RunReport]) -> Self {
        let collect =
            |f: &dyn Fn(&RunReport) -> f64| -> Vec<f64> { reports.iter().map(f).collect() };
        ScenarioMetrics {
            cost_per_job: summarize(&collect(&|r| r.cost_per_job())),
            total_cost: summarize(&collect(&|r| r.total_cost)),
            makespan_hours: summarize(&collect(&|r| r.makespan_hours)),
            percent_increase_in_running_time: summarize(&collect(&|r| {
                r.percent_increase_in_running_time()
            })),
            preemptions: summarize(&collect(&|r| r.preemptions as f64)),
            job_restarts: summarize(&collect(&|r| r.job_restarts as f64)),
            vms_launched: summarize(&collect(&|r| r.vms_launched as f64)),
            utilisation: summarize(&collect(&|r| r.utilisation())),
        }
    }
}

/// One scenario's aggregated result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// The scenario identity.
    pub scenario: ScenarioMeta,
    /// Trials aggregated.
    pub trials: usize,
    /// Metric summaries.
    pub metrics: ScenarioMetrics,
}

/// One policy's standing within a regime (averaged over every non-policy axis).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedPolicy {
    /// 1-based rank within the regime (1 = cheapest).
    pub rank: usize,
    /// Scheduling mode.
    pub scheduling: String,
    /// Checkpointing mode.
    pub checkpointing: String,
    /// Mean cost per job across the regime's scenarios with this policy.
    pub mean_cost_per_job: f64,
    /// Mean percent increase in running time.
    pub mean_percent_increase: f64,
    /// Mean preemptions per run.
    pub mean_preemptions: f64,
    /// Cost premium over the regime's best policy, percent (0 for the winner).
    pub cost_over_best_percent: f64,
}

/// Best-to-worst policy table for one preemption regime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegimeRanking {
    /// Regime name.
    pub regime: String,
    /// Policies ranked by mean cost per job (ascending).
    pub policies: Vec<RankedPolicy>,
}

/// Cardinality of one sweep axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AxisCardinality {
    /// Axis name (expansion order).
    pub axis: String,
    /// Number of values on the axis.
    pub values: usize,
}

/// The full result of one sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Sweep name (from the spec).
    pub name: String,
    /// Base seed the streams were derived from.
    pub base_seed: u64,
    /// Trials per scenario.
    pub trials: usize,
    /// Axis cardinalities, in expansion order.
    pub axes: Vec<AxisCardinality>,
    /// Number of scenarios in the grid.
    pub scenario_count: usize,
    /// Per-scenario results, in grid order.
    pub scenarios: Vec<ScenarioResult>,
    /// Best-policy-per-regime tables (policy axes averaged over all other axes).
    pub rankings: Vec<RegimeRanking>,
}

impl SweepReport {
    /// Assembles a report from per-scenario results.
    pub fn new(spec: &SweepSpec, grid: &ExpandedGrid, scenarios: Vec<ScenarioResult>) -> Self {
        let regime_names: Vec<String> = grid.regimes.iter().map(|r| r.name.clone()).collect();
        let rankings = rank_policies(&scenarios, &regime_names);
        SweepReport {
            name: spec.sweep.name.clone(),
            base_seed: spec.base_seed(),
            trials: spec.trials(),
            axes: grid
                .axis_lengths
                .iter()
                .map(|&(axis, values)| AxisCardinality {
                    axis: axis.to_string(),
                    values,
                })
                .collect(),
            scenario_count: scenarios.len(),
            scenarios,
            rankings,
        }
    }

    /// Merges shard reports (from [`run_sweep_shard`](crate::runner::run_sweep_shard))
    /// back into the full sweep report.
    ///
    /// Validates that every shard came from the same sweep (name, base seed, trials,
    /// axes), that the union of their scenarios covers the whole grid exactly once, then
    /// reassembles the scenarios in grid order and recomputes the regime rankings.  The
    /// result is byte-identical to the report an unsharded run would have produced,
    /// because per-scenario results only depend on `(base_seed, scenario id, trial)`.
    pub fn merge(shards: &[SweepReport]) -> Result<SweepReport> {
        let first = shards
            .first()
            .ok_or_else(|| NumericsError::invalid("nothing to merge: no shard reports given"))?;
        for shard in &shards[1..] {
            if shard.name != first.name
                || shard.base_seed != first.base_seed
                || shard.trials != first.trials
                || shard.axes != first.axes
            {
                return Err(NumericsError::invalid(format!(
                    "shard `{}` (seed {}) does not belong to sweep `{}` (seed {})",
                    shard.name, shard.base_seed, first.name, first.base_seed
                )));
            }
        }
        let expected: usize = first.axes.iter().map(|a| a.values).product();
        let mut scenarios: Vec<ScenarioResult> = shards
            .iter()
            .flat_map(|s| s.scenarios.iter().cloned())
            .collect();
        scenarios.sort_by_key(|s| s.scenario.id);
        for (i, s) in scenarios.iter().enumerate() {
            if s.scenario.id != i {
                return Err(NumericsError::invalid(format!(
                    "merged shards do not cover the grid: expected scenario id {i}, found {} \
                     ({} of {expected} scenarios present)",
                    s.scenario.id,
                    scenarios.len()
                )));
            }
        }
        if scenarios.len() != expected {
            return Err(NumericsError::invalid(format!(
                "merged shards cover {} of {expected} scenarios",
                scenarios.len()
            )));
        }
        // Regime order: first appearance in grid order.  The regime axis varies slowest,
        // so this reproduces the spec's regime order exactly.
        let mut regime_names: Vec<String> = Vec::new();
        for s in &scenarios {
            if !regime_names.contains(&s.scenario.regime) {
                regime_names.push(s.scenario.regime.clone());
            }
        }
        let rankings = rank_policies(&scenarios, &regime_names);
        Ok(SweepReport {
            name: first.name.clone(),
            base_seed: first.base_seed,
            trials: first.trials,
            axes: first.axes.clone(),
            scenario_count: scenarios.len(),
            scenarios,
            rankings,
        })
    }

    /// Structured JSON rendering (pretty-printed, byte-deterministic).
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self).map_err(|e| NumericsError::invalid(e.to_string()))
    }

    /// CSV rendering: a header plus one row per scenario.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "id,label,regime,application,jobs,checkpoint_cost_minutes,cluster_size,vm_type,zone,\
             hot_spare_hours,billing,scheduling,checkpointing,trials,\
             cost_per_job_mean,cost_per_job_stderr,total_cost_mean,makespan_hours_mean,\
             makespan_hours_stderr,percent_increase_mean,preemptions_mean,job_restarts_mean,\
             vms_launched_mean,utilisation_mean\n",
        );
        for s in &self.scenarios {
            let m = &s.scenario;
            let x = &s.metrics;
            out.push_str(&format!(
                "{},{},{},{},{},{:?},{},{},{},{:?},{},{},{},{},{:?},{:?},{:?},{:?},{:?},{:?},{:?},{:?},{:?},{:?}\n",
                m.id,
                csv_escape(&m.label),
                csv_escape(&m.regime),
                csv_escape(&m.application),
                m.jobs,
                m.checkpoint_cost_minutes,
                m.cluster_size,
                m.vm_type,
                m.zone,
                m.hot_spare_hours,
                if m.use_preemptible { "preemptible" } else { "on-demand" },
                m.scheduling,
                m.checkpointing,
                s.trials,
                x.cost_per_job.mean,
                x.cost_per_job.std_error,
                x.total_cost.mean,
                x.makespan_hours.mean,
                x.makespan_hours.std_error,
                x.percent_increase_in_running_time.mean,
                x.preemptions.mean,
                x.job_restarts.mean,
                x.vms_launched.mean,
                x.utilisation.mean,
            ));
        }
        out
    }

    /// Human-readable text summary: headline numbers plus the per-regime ranking tables.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "sweep `{}`: {} scenarios x {} trials (base seed {})\n",
            self.name, self.scenario_count, self.trials, self.base_seed
        ));
        let axes: Vec<String> = self
            .axes
            .iter()
            .filter(|a| a.values > 1)
            .map(|a| format!("{} x{}", a.axis, a.values))
            .collect();
        if !axes.is_empty() {
            out.push_str(&format!("varying axes: {}\n", axes.join(", ")));
        }
        for ranking in &self.rankings {
            out.push_str(&format!(
                "\nregime `{}` — policies by mean cost/job:\n",
                ranking.regime
            ));
            out.push_str(&format!(
                "  {:<4} {:<14} {:<14} {:>10} {:>12} {:>12} {:>12}\n",
                "rank", "scheduling", "checkpointing", "$/job", "vs best", "+runtime", "preempts"
            ));
            for p in &ranking.policies {
                out.push_str(&format!(
                    "  {:<4} {:<14} {:<14} {:>10.4} {:>11.1}% {:>11.1}% {:>12.2}\n",
                    p.rank,
                    p.scheduling,
                    p.checkpointing,
                    p.mean_cost_per_job,
                    p.cost_over_best_percent,
                    p.mean_percent_increase,
                    p.mean_preemptions,
                ));
            }
        }
        out
    }
}

fn csv_escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Groups scenario results by `(regime, scheduling, checkpointing)`, averages each
/// group's means over the remaining axes, and ranks policies within each regime by cost.
fn rank_policies(scenarios: &[ScenarioResult], regime_names: &[String]) -> Vec<RegimeRanking> {
    let mut rankings = Vec::new();
    for regime_name in regime_names {
        // Policy combinations in first-appearance (grid) order.
        let mut combos: Vec<(String, String)> = Vec::new();
        for s in scenarios
            .iter()
            .filter(|s| &s.scenario.regime == regime_name)
        {
            let combo = (
                s.scenario.scheduling.clone(),
                s.scenario.checkpointing.clone(),
            );
            if !combos.contains(&combo) {
                combos.push(combo);
            }
        }
        let mut policies: Vec<RankedPolicy> = combos
            .into_iter()
            .map(|(scheduling, checkpointing)| {
                let group: Vec<&ScenarioResult> = scenarios
                    .iter()
                    .filter(|s| {
                        &s.scenario.regime == regime_name
                            && s.scenario.scheduling == scheduling
                            && s.scenario.checkpointing == checkpointing
                    })
                    .collect();
                let avg = |f: &dyn Fn(&ScenarioMetrics) -> f64| -> f64 {
                    group.iter().map(|s| f(&s.metrics)).sum::<f64>() / group.len().max(1) as f64
                };
                RankedPolicy {
                    rank: 0,
                    scheduling,
                    checkpointing,
                    mean_cost_per_job: avg(&|m| m.cost_per_job.mean),
                    mean_percent_increase: avg(&|m| m.percent_increase_in_running_time.mean),
                    mean_preemptions: avg(&|m| m.preemptions.mean),
                    cost_over_best_percent: 0.0,
                }
            })
            .collect();
        policies.sort_by(|a, b| {
            a.mean_cost_per_job
                .partial_cmp(&b.mean_cost_per_job)
                .expect("costs are finite")
                .then_with(|| a.scheduling.cmp(&b.scheduling))
                .then_with(|| a.checkpointing.cmp(&b.checkpointing))
        });
        let best = policies.first().map(|p| p.mean_cost_per_job).unwrap_or(0.0);
        for (i, p) in policies.iter_mut().enumerate() {
            p.rank = i + 1;
            p.cost_over_best_percent = if best > 0.0 {
                100.0 * (p.mean_cost_per_job - best) / best
            } else {
                0.0
            };
        }
        rankings.push(RegimeRanking {
            regime: regime_name.clone(),
            policies,
        });
    }
    rankings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cost: f64) -> RunReport {
        RunReport {
            jobs: 10,
            makespan_hours: 1.0,
            ideal_makespan_hours: 0.9,
            preemptions: 2,
            job_restarts: 2,
            vms_launched: 5,
            total_cost: cost,
            total_work_hours: 4.0,
            vm_hours: 5.0,
        }
    }

    #[test]
    fn metrics_aggregate_trials() {
        let m = ScenarioMetrics::from_reports(&[report(10.0), report(20.0)]);
        assert_eq!(m.total_cost.trials, 2);
        assert!((m.total_cost.mean - 15.0).abs() < 1e-12);
        assert_eq!(m.total_cost.min, 10.0);
        assert_eq!(m.total_cost.max, 20.0);
        assert!(m.total_cost.std_error > 0.0);
        assert!((m.cost_per_job.mean - 1.5).abs() < 1e-12);
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("q\"x"), "\"q\"\"x\"");
    }
}
