//! Monte-Carlo evaluation of checkpointed execution under preemptions.
//!
//! The Figure 8 comparisons need the *actual* expected increase in running time of a
//! checkpointed job — including checkpoint overhead, lost work, and restarts on fresh VMs —
//! under a given preemption process.  This module replays many executions of a job against
//! lifetimes sampled from the model and reports summary statistics.  It is the empirical
//! cross-check for the DP's analytic value function, and the engine behind Figures 8a/8b.

use super::dp::DpCheckpointPolicy;
use super::young_daly::YoungDalyPolicy;
use rand::Rng;
use serde::{Deserialize, Serialize};
use tcp_dists::LifetimeDistribution;
use tcp_numerics::stats::Welford;
use tcp_numerics::{NumericsError, Result};

/// A policy that can plan checkpoint intervals for a piece of remaining work.
///
/// Both the DP policy and the Young–Daly baseline implement this, so the simulator can
/// replay either one.  `plan_into` is re-invoked after every failure with the remaining
/// work and the (fresh) VM age, mirroring how the paper's service recomputes schedules on
/// restart.
pub trait CheckpointPlanner: Send + Sync {
    /// Plans the work intervals (hours) between checkpoints for `remaining` hours of work
    /// starting at VM age `vm_age`, replacing the contents of `out`.  Only `out`'s
    /// allocation is reused, so callers that plan repeatedly need not allocate.
    fn plan_into(&self, remaining: f64, vm_age: f64, out: &mut Vec<f64>) -> Result<()>;

    /// Cost of writing one checkpoint, hours.
    fn checkpoint_cost(&self) -> f64;

    /// Policy name for reports.
    fn name(&self) -> &'static str;
}

impl CheckpointPlanner for DpCheckpointPolicy {
    fn plan_into(&self, remaining: f64, vm_age: f64, out: &mut Vec<f64>) -> Result<()> {
        *out = self
            .schedule_into(remaining, vm_age, std::mem::take(out))?
            .intervals_hours;
        Ok(())
    }

    fn checkpoint_cost(&self) -> f64 {
        self.config().checkpoint_cost_hours
    }

    fn name(&self) -> &'static str {
        "model-driven-dp"
    }
}

impl CheckpointPlanner for YoungDalyPolicy {
    fn plan_into(&self, remaining: f64, vm_age: f64, out: &mut Vec<f64>) -> Result<()> {
        *out = self
            .schedule_into(remaining, vm_age, std::mem::take(out))?
            .intervals_hours;
        Ok(())
    }

    fn checkpoint_cost(&self) -> f64 {
        self.checkpoint_cost_hours
    }

    fn name(&self) -> &'static str {
        "young-daly"
    }
}

/// A planner that never checkpoints — the no-fault-tolerance baseline of Section 6.1.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCheckpointPlanner;

impl CheckpointPlanner for NoCheckpointPlanner {
    fn plan_into(&self, remaining: f64, _vm_age: f64, out: &mut Vec<f64>) -> Result<()> {
        if !(remaining > 0.0) {
            return Err(NumericsError::invalid("remaining work must be positive"));
        }
        out.clear();
        out.push(remaining);
        Ok(())
    }

    fn checkpoint_cost(&self) -> f64 {
        0.0
    }

    fn name(&self) -> &'static str {
        "no-checkpointing"
    }
}

/// Aggregate statistics over many simulated executions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointExecutionStats {
    /// Number of Monte-Carlo trials.
    pub trials: usize,
    /// Mean makespan (hours), including all overheads.
    pub mean_makespan: f64,
    /// Standard error of the mean makespan.
    pub makespan_std_error: f64,
    /// Mean fractional increase in running time over the bare job length.
    pub mean_overhead_fraction: f64,
    /// Mean number of preemptions suffered per execution.
    pub mean_preemptions: f64,
    /// Fraction of trials that hit the retry cap without finishing (should be zero).
    pub unfinished_fraction: f64,
}

/// Simulation knobs.
#[derive(Debug, Clone, Copy)]
pub struct SimulationOptions {
    /// Number of Monte-Carlo trials.
    pub trials: usize,
    /// Time to acquire a replacement VM after a preemption, hours.
    pub restart_overhead_hours: f64,
    /// Maximum number of preemptions tolerated per trial before giving up.
    pub max_preemptions_per_trial: usize,
}

impl Default for SimulationOptions {
    fn default() -> Self {
        SimulationOptions {
            trials: 400,
            restart_overhead_hours: 1.0 / 60.0,
            max_preemptions_per_trial: 200,
        }
    }
}

/// Samples the remaining lifetime of a VM of age `vm_age` (conditional on being alive now).
fn sample_remaining_lifetime<R: Rng + ?Sized>(
    dist: &dyn LifetimeDistribution,
    vm_age: f64,
    rng: &mut R,
) -> f64 {
    let f_age = dist.cdf(vm_age);
    if f_age >= 1.0 - 1e-12 {
        return 0.0;
    }
    let u: f64 = rng.gen::<f64>();
    let target = f_age + u * (1.0 - f_age);
    (dist.quantile(target) - vm_age).max(0.0)
}

/// Simulates checkpointed execution of a job of `job_len` hours, started at VM age
/// `start_age`, under preemption process `dist`, using `planner` to choose intervals.
pub fn simulate_checkpointed_job<R: Rng + ?Sized>(
    planner: &dyn CheckpointPlanner,
    dist: &dyn LifetimeDistribution,
    job_len: f64,
    start_age: f64,
    options: &SimulationOptions,
    rng: &mut R,
) -> Result<CheckpointExecutionStats> {
    if !(job_len > 0.0) || !job_len.is_finite() {
        return Err(NumericsError::invalid("job length must be positive"));
    }
    if options.trials == 0 {
        return Err(NumericsError::invalid("need at least one trial"));
    }
    let delta = planner.checkpoint_cost();
    let mut makespans = Welford::new();
    let mut overheads = Welford::new();
    let mut preemptions_acc = Welford::new();
    let mut unfinished = 0usize;
    let mut intervals = Vec::new();

    for _ in 0..options.trials {
        let mut elapsed = 0.0f64;
        let mut remaining = job_len;
        let mut vm_age = start_age;
        let mut vm_time_left = sample_remaining_lifetime(dist, vm_age, rng);
        let mut preemptions = 0usize;
        let mut finished = false;

        'job: while preemptions <= options.max_preemptions_per_trial {
            planner.plan_into(remaining, vm_age, &mut intervals)?;
            let mut completed_any = false;
            for &work in intervals.iter() {
                // the final segment of the whole job does not need a trailing checkpoint
                let is_last_overall = remaining - work <= 1e-9;
                let segment = if is_last_overall { work } else { work + delta };
                if segment <= vm_time_left {
                    vm_time_left -= segment;
                    vm_age += segment;
                    elapsed += segment;
                    remaining -= work;
                    completed_any = true;
                    if remaining <= 1e-9 {
                        finished = true;
                        break 'job;
                    }
                } else {
                    // preempted partway through this segment: lose the un-checkpointed work
                    elapsed += vm_time_left;
                    elapsed += options.restart_overhead_hours;
                    preemptions += 1;
                    vm_age = 0.0;
                    vm_time_left = sample_remaining_lifetime(dist, 0.0, rng);
                    continue 'job;
                }
            }
            if !completed_any && remaining > 1e-9 {
                // planner returned an empty plan (cannot happen for valid planners); guard
                // against an infinite loop
                break;
            }
        }

        if !finished {
            unfinished += 1;
            continue;
        }
        makespans.add(elapsed);
        overheads.add((elapsed - job_len) / job_len);
        preemptions_acc.add(preemptions as f64);
    }

    if makespans.count() == 0 {
        return Err(NumericsError::DidNotConverge {
            what: "checkpointed execution simulation".into(),
            iterations: options.trials,
            residual: f64::INFINITY,
        });
    }

    Ok(CheckpointExecutionStats {
        trials: options.trials,
        mean_makespan: makespans.mean(),
        makespan_std_error: makespans.std_error(),
        mean_overhead_fraction: overheads.mean(),
        mean_preemptions: preemptions_acc.mean(),
        unfinished_fraction: unfinished as f64 / options.trials as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::dp::CheckpointConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tcp_core::BathtubModel;

    fn model() -> BathtubModel {
        BathtubModel::paper_representative()
    }

    fn options(trials: usize) -> SimulationOptions {
        SimulationOptions {
            trials,
            ..SimulationOptions::default()
        }
    }

    #[test]
    fn dp_policy_beats_young_daly_overhead() {
        // Figure 8b: the model-driven policy keeps overhead well below the Young–Daly
        // baseline parameterised with the pessimistic 1-hour MTTF.
        let m = model();
        let dp = DpCheckpointPolicy::new(m, CheckpointConfig::coarse()).unwrap();
        let yd = YoungDalyPolicy::paper_baseline();
        let mut rng = StdRng::seed_from_u64(404);
        let job = 4.0;
        let ours =
            simulate_checkpointed_job(&dp, m.dist(), job, 8.0, &options(300), &mut rng).unwrap();
        let baseline =
            simulate_checkpointed_job(&yd, m.dist(), job, 8.0, &options(300), &mut rng).unwrap();
        assert!(
            ours.mean_overhead_fraction < baseline.mean_overhead_fraction,
            "ours {} vs young-daly {}",
            ours.mean_overhead_fraction,
            baseline.mean_overhead_fraction
        );
        // Young–Daly with MTTF = 1 h checkpoints every ~11 minutes: ≥ 6–8 % pure
        // checkpointing overhead even when no preemption happens, vs ≤ 5 % for the DP
        // policy in the stable phase (the paper's Figure 8a gap).
        assert!(
            baseline.mean_overhead_fraction > 0.06,
            "baseline should be expensive"
        );
        assert!(
            ours.mean_overhead_fraction < 0.5 * baseline.mean_overhead_fraction,
            "ours = {} baseline = {}",
            ours.mean_overhead_fraction,
            baseline.mean_overhead_fraction
        );
        assert!(
            ours.mean_overhead_fraction < 0.06,
            "ours = {}",
            ours.mean_overhead_fraction
        );
        assert_eq!(ours.unfinished_fraction, 0.0);
    }

    #[test]
    fn no_checkpoint_planner_suffers_recomputation() {
        let m = model();
        let none = NoCheckpointPlanner;
        let dp = DpCheckpointPolicy::new(m, CheckpointConfig::coarse()).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        // start on a fresh VM where the early failure rate makes checkpointing valuable
        let bare =
            simulate_checkpointed_job(&none, m.dist(), 6.0, 0.0, &options(300), &mut rng).unwrap();
        let planned =
            simulate_checkpointed_job(&dp, m.dist(), 6.0, 0.0, &options(300), &mut rng).unwrap();
        assert!(
            planned.mean_makespan < bare.mean_makespan,
            "planned {} vs bare {}",
            planned.mean_makespan,
            bare.mean_makespan
        );
        assert!(bare.mean_preemptions > 0.2);
    }

    #[test]
    fn simulation_statistics_are_sane() {
        let m = model();
        let yd = YoungDalyPolicy::paper_baseline();
        let mut rng = StdRng::seed_from_u64(9);
        // Start inside the early high-hazard phase so some of the 200 trials are
        // guaranteed to see a preemption (at age 5 the stable phase is so quiet that a
        // 2 h job can finish untouched in every trial, making the std error zero).
        let stats =
            simulate_checkpointed_job(&yd, m.dist(), 4.0, 0.5, &options(200), &mut rng).unwrap();
        assert_eq!(stats.trials, 200);
        assert!(stats.mean_makespan >= 4.0);
        assert!(stats.makespan_std_error > 0.0);
        assert!(stats.mean_overhead_fraction >= 0.0);
        assert!(stats.mean_preemptions >= 0.0);
    }

    #[test]
    fn argument_validation() {
        let m = model();
        let yd = YoungDalyPolicy::paper_baseline();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(
            simulate_checkpointed_job(&yd, m.dist(), 0.0, 0.0, &options(10), &mut rng).is_err()
        );
        assert!(simulate_checkpointed_job(&yd, m.dist(), 1.0, 0.0, &options(0), &mut rng).is_err());
        assert!(NoCheckpointPlanner
            .plan_into(0.0, 0.0, &mut Vec::new())
            .is_err());
    }

    #[test]
    fn planner_trait_metadata() {
        let m = model();
        let dp = DpCheckpointPolicy::new(m, CheckpointConfig::coarse()).unwrap();
        assert_eq!(dp.name(), "model-driven-dp");
        assert_eq!(YoungDalyPolicy::paper_baseline().name(), "young-daly");
        assert_eq!(NoCheckpointPlanner.name(), "no-checkpointing");
        assert_eq!(NoCheckpointPlanner.checkpoint_cost(), 0.0);
        assert!(dp.checkpoint_cost() > 0.0);
    }

    #[test]
    fn conditional_lifetime_sampling_respects_age() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(3);
        // A VM that has survived to age 10 can live at most 14 more hours.
        for _ in 0..100 {
            let remaining = sample_remaining_lifetime(m.dist(), 10.0, &mut rng);
            assert!((0.0..=14.0 + 1e-9).contains(&remaining));
        }
        // A VM at the horizon has no remaining lifetime.
        assert_eq!(sample_remaining_lifetime(m.dist(), 24.0, &mut rng), 0.0);
    }
}
