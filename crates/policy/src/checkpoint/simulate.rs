//! Monte-Carlo evaluation of checkpointed execution under preemptions.
//!
//! The Figure 8 comparisons need the *actual* expected increase in running time of a
//! checkpointed job — including checkpoint overhead, lost work, and restarts on fresh VMs —
//! under a given preemption process.  This module replays many executions of a job against
//! lifetimes sampled from the model and reports summary statistics.  It is the empirical
//! cross-check for the DP's analytic value function, and the engine behind Figures 8a/8b.
//! Each attempt replays one [`PlannedRun`] against the VM's remaining lifetime, by the
//! rule the batch controller also follows.

use super::dp::{CheckpointConfig, DpCheckpointPolicy};
use super::young_daly::YoungDalyPolicy;
use super::PlannedRun;
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

/// Preemptions a trial may suffer before it is given up as unfinished.
const MAX_PREEMPTIONS_PER_TRIAL: usize = 200;

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

/// Simulates `trials` checkpointed executions of a job of `job_len` hours, started at VM
/// age `start_age`, under preemption process `dist`, using `planner` to choose intervals.
/// An attempt finishes the job if its run is done within the VM's lifetime; otherwise the
/// job keeps the run's checkpointed progress and restarts on a fresh VM after the DP's
/// restart overhead.
pub fn simulate_checkpointed_job<R: Rng + ?Sized>(
    planner: &dyn CheckpointPlanner,
    dist: &dyn LifetimeDistribution,
    job_len: f64,
    start_age: f64,
    trials: usize,
    rng: &mut R,
) -> Result<CheckpointExecutionStats> {
    if !(job_len > 0.0) || !job_len.is_finite() {
        return Err(NumericsError::invalid("job length must be positive"));
    }
    if trials == 0 {
        return Err(NumericsError::invalid("need at least one trial"));
    }
    let checkpoint_cost = planner.checkpoint_cost();
    let restart_overhead_hours = CheckpointConfig::RESTART_OVERHEAD_MINUTES / 60.0;
    let mut makespans = Welford::new();
    let mut overheads = Welford::new();
    let mut preemptions_acc = Welford::new();
    let mut unfinished = 0usize;
    let mut intervals = Vec::new();

    for _ in 0..trials {
        let mut elapsed = 0.0f64;
        let mut remaining = job_len;
        let mut vm_age = start_age;
        let mut vm_time_left = sample_remaining_lifetime(dist, vm_age, rng);
        let mut preemptions = 0usize;
        let makespan = loop {
            if preemptions > MAX_PREEMPTIONS_PER_TRIAL {
                break None;
            }
            planner.plan_into(remaining, vm_age, &mut intervals)?;
            let run = PlannedRun {
                intervals: &intervals,
                checkpoint_cost,
            };
            if run.is_done_at(vm_time_left) {
                break Some(elapsed + run.duration());
            }
            // preempted mid-run: keep the checkpointed work, restart on a fresh VM
            remaining -= run.progress_at(vm_time_left);
            elapsed += vm_time_left;
            elapsed += restart_overhead_hours;
            preemptions += 1;
            vm_age = 0.0;
            vm_time_left = sample_remaining_lifetime(dist, 0.0, rng);
        };
        let Some(makespan) = makespan else {
            unfinished += 1;
            continue;
        };
        makespans.add(makespan);
        overheads.add((makespan - job_len) / job_len);
        preemptions_acc.add(preemptions as f64);
    }

    if makespans.count() == 0 {
        return Err(NumericsError::DidNotConverge {
            what: "checkpointed execution simulation".into(),
            iterations: trials,
            residual: f64::INFINITY,
        });
    }

    Ok(CheckpointExecutionStats {
        trials,
        mean_makespan: makespans.mean(),
        makespan_std_error: makespans.std_error(),
        mean_overhead_fraction: overheads.mean(),
        mean_preemptions: preemptions_acc.mean(),
        unfinished_fraction: unfinished as f64 / trials as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tcp_dists::ConstrainedBathtub;

    fn model() -> ConstrainedBathtub {
        ConstrainedBathtub::paper_representative()
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
        let ours = simulate_checkpointed_job(&dp, &m, job, 8.0, 300, &mut rng).unwrap();
        let baseline = simulate_checkpointed_job(&yd, &m, job, 8.0, 300, &mut rng).unwrap();
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
        let bare = simulate_checkpointed_job(&none, &m, 6.0, 0.0, 300, &mut rng).unwrap();
        let planned = simulate_checkpointed_job(&dp, &m, 6.0, 0.0, 300, &mut rng).unwrap();
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
        let stats = simulate_checkpointed_job(&yd, &m, 4.0, 0.5, 200, &mut rng).unwrap();
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
        assert!(simulate_checkpointed_job(&yd, &m, 0.0, 0.0, 10, &mut rng).is_err());
        assert!(simulate_checkpointed_job(&yd, &m, 1.0, 0.0, 0, &mut rng).is_err());
        assert!(NoCheckpointPlanner
            .plan_into(0.0, 0.0, &mut Vec::new())
            .is_err());
    }

    #[test]
    fn planner_trait_metadata() {
        let m = model();
        let dp = DpCheckpointPolicy::new(m, CheckpointConfig::coarse()).unwrap();
        assert_eq!(NoCheckpointPlanner.checkpoint_cost(), 0.0);
        assert!(dp.checkpoint_cost() > 0.0);
    }

    /// The segment walk `simulate_checkpointed_job` made before [`PlannedRun`], kept as
    /// the oracle of the rule: one attempt of `intervals` at `delta` per checkpoint, for
    /// `remaining` hours of work, on a VM with `vm_time_left` hours to live.  Returns the
    /// hours the attempt took if it finished the job, and the work it did.
    fn reference_attempt(
        intervals: &[f64],
        delta: f64,
        mut remaining: f64,
        mut vm_time_left: f64,
    ) -> (Option<f64>, f64) {
        let start = remaining;
        let mut elapsed = 0.0;
        for &work in intervals {
            // the final segment of the whole job does not need a trailing checkpoint
            let is_last_overall = remaining - work <= 1e-9;
            let segment = if is_last_overall { work } else { work + delta };
            if segment > vm_time_left {
                break;
            }
            vm_time_left -= segment;
            elapsed += segment;
            remaining -= work;
            if remaining <= 1e-9 {
                return (Some(elapsed), start - remaining);
            }
        }
        (None, start - remaining)
    }

    #[test]
    fn planned_run_matches_the_former_segment_walk() {
        let m = model();
        let dps = [
            CheckpointConfig::paper_defaults(),
            CheckpointConfig::coarse(),
        ]
        .map(|config| DpCheckpointPolicy::new(m, config).unwrap());
        let mut rng = StdRng::seed_from_u64(22);
        let mut intervals = Vec::new();
        let mut ends = Vec::new();
        for case in 0..300 {
            // DP plans for whole steps of work, off by a few ulps so the plan's sum and
            // the remaining work differ in the last bits, and Young–Daly plans for any
            // amount of work.
            let young_daly;
            let (planner, remaining): (&dyn CheckpointPlanner, f64) = if case % 3 < 2 {
                let dp = &dps[case % 2];
                let steps = rng.gen_range(1..120usize) as f64;
                let whole = steps * dp.config().step_hours;
                let ulps = rng.gen_range(0..9u64);
                (dp, f64::from_bits(whole.to_bits() + ulps - 4))
            } else {
                young_daly =
                    YoungDalyPolicy::new(rng.gen_range(0.3..4.0), rng.gen_range(0.003..0.05))
                        .unwrap();
                (&young_daly, rng.gen_range(0.01..10.0))
            };
            let start_age = rng.gen_range(0.0..23.9);
            planner
                .plan_into(remaining, start_age, &mut intervals)
                .unwrap();
            let delta = planner.checkpoint_cost();
            let run = PlannedRun {
                intervals: &intervals,
                checkpoint_cost: delta,
            };
            let whole: f64 = intervals.iter().sum();
            let duration = run.duration();
            assert_eq!(run.progress_at(duration), whole, "case {case}");
            assert!(run.progress_at(duration - 1e-9) < whole, "case {case}");
            assert!(!run.is_done_at(duration - 1e-9) && run.is_done_at(duration));

            // Past the end both rules finish, in the same time.
            let (took, done) = reference_attempt(&intervals, delta, remaining, duration + 1.0);
            assert!((took.expect("the plan covers the work") - duration).abs() < 1e-9);
            assert!((done - whole).abs() < 1e-9);

            ends.clear();
            let mut t = 0.0;
            for (k, &work) in intervals.iter().enumerate() {
                let start = t;
                t += work;
                if k + 1 < intervals.len() {
                    t += delta;
                }
                ends.push(t);
                // Away from every segment end the two rules agree exactly.
                let inside = start + rng.gen_range(0.01..0.99) * (t - start);
                let (took, done) = reference_attempt(&intervals, delta, remaining, inside);
                assert!(took.is_none() && !run.is_done_at(inside), "case {case}");
                assert!((run.progress_at(inside) - done).abs() < 1e-9, "case {case}");
                // Within the tolerance of a segment's end the run counts the segment
                // done, where the former walk, which had no tolerance, may not.
                for end in [t - 1e-13, t, t + 1e-13] {
                    let kept = whole - intervals[k + 1..].iter().sum::<f64>();
                    let progress = run.progress_at(end);
                    assert!((progress - kept).abs() < 1e-9, "case {case}");
                    let (_, done) = reference_attempt(&intervals, delta, remaining, end);
                    assert!(
                        (progress - done).abs() < 1e-9 || (progress - done - work).abs() < 1e-9,
                        "case {case}: segment {k} kept {progress} vs {done}"
                    );
                }
            }
            assert_eq!(ends.last().copied(), Some(t));
            assert!((t - duration).abs() < 1e-12);
        }
    }

    /// A VM lifetime of exactly `self.0` hours.
    struct Fixed(f64);

    impl LifetimeDistribution for Fixed {
        fn name(&self) -> &'static str {
            "fixed"
        }

        fn cdf(&self, t: f64) -> f64 {
            if t >= self.0 {
                1.0
            } else {
                0.0
            }
        }

        fn quantile(&self, _u: f64) -> f64 {
            self.0
        }
    }

    #[test]
    fn a_preemption_at_the_run_end_finishes_the_job() {
        let yd = YoungDalyPolicy::paper_baseline();
        let planners: [&dyn CheckpointPlanner; 2] = [&yd, &NoCheckpointPlanner];
        let mut rng = StdRng::seed_from_u64(5);
        let mut intervals = Vec::new();
        for planner in planners {
            planner.plan_into(2.0, 0.0, &mut intervals).unwrap();
            let end = PlannedRun {
                intervals: &intervals,
                checkpoint_cost: planner.checkpoint_cost(),
            }
            .duration();
            for lifetime in [end, end - 1e-13] {
                let stats =
                    simulate_checkpointed_job(planner, &Fixed(lifetime), 2.0, 0.0, 3, &mut rng)
                        .unwrap();
                assert_eq!(stats.mean_preemptions, 0.0);
                assert_eq!(stats.mean_makespan, end);
                assert_eq!(stats.unfinished_fraction, 0.0);
            }
        }
    }

    #[test]
    fn conditional_lifetime_sampling_respects_age() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(3);
        // A VM that has survived to age 10 can live at most 14 more hours.
        for _ in 0..100 {
            let remaining = sample_remaining_lifetime(&m, 10.0, &mut rng);
            assert!((0.0..=14.0 + 1e-9).contains(&remaining));
        }
        // A VM at the horizon has no remaining lifetime.
        assert_eq!(sample_remaining_lifetime(&m, 24.0, &mut rng), 0.0);
    }
}
