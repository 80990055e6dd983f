//! The Young–Daly periodic checkpointing baseline.
//!
//! Classical fault-tolerance systems (and all prior transient-computing work the paper
//! compares against) assume memoryless failures and checkpoint at the fixed period
//! `τ = √(2 δ · MTTF)`.  For constrained preemptions this is doubly wrong: the MTTF
//! estimated from the early failure rate is pessimistic (≈ 1 hour), leading to very
//! frequent checkpoints and ~25 % running-time overhead (Figure 8), and the uniform period
//! ignores the deadline spike.

use super::dp::CheckpointSchedule;
use serde::{Deserialize, Serialize};
use tcp_core::LifetimeModel;
use tcp_numerics::{NumericsError, Result};

/// The Young–Daly periodic checkpointing policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct YoungDalyPolicy {
    /// Mean time to failure assumed by the policy, hours.
    pub mttf_hours: f64,
    /// Cost of one checkpoint, hours.
    pub checkpoint_cost_hours: f64,
}

impl YoungDalyPolicy {
    /// Creates a Young–Daly policy from an assumed MTTF and checkpoint cost.
    pub fn new(mttf_hours: f64, checkpoint_cost_hours: f64) -> Result<Self> {
        if !(mttf_hours > 0.0) || !mttf_hours.is_finite() {
            return Err(NumericsError::invalid("MTTF must be positive"));
        }
        if !(checkpoint_cost_hours > 0.0) || !checkpoint_cost_hours.is_finite() {
            return Err(NumericsError::invalid("checkpoint cost must be positive"));
        }
        Ok(YoungDalyPolicy {
            mttf_hours,
            checkpoint_cost_hours,
        })
    }

    /// The configuration the paper evaluates: MTTF taken from the *initial* failure rate of
    /// the VM (≈ 1 hour) with 1-minute checkpoints.
    pub fn paper_baseline() -> Self {
        YoungDalyPolicy {
            mttf_hours: 1.0,
            checkpoint_cost_hours: 1.0 / 60.0,
        }
    }

    /// Derives the MTTF from a fitted model's initial failure rate, which is how the
    /// paper parameterises the baseline ("we use the initial failure rate of the VM to
    /// determine the MTTF").  Generic over the lifetime model: only the first-hour CDF
    /// is consulted.
    pub fn from_initial_failure_rate(
        model: &dyn LifetimeModel,
        checkpoint_cost_hours: f64,
    ) -> Result<Self> {
        // initial rate ≈ hazard averaged over the first hour
        let horizon = model.horizon();
        let window = (1.0f64).min(horizon);
        let p_first = model.cdf(window);
        let rate = if p_first > 0.0 && p_first < 1.0 {
            -(1.0 - p_first).ln() / window
        } else {
            1.0
        };
        YoungDalyPolicy::new(1.0 / rate.max(1e-6), checkpoint_cost_hours)
    }

    /// The Young–Daly checkpoint interval `τ = √(2 δ MTTF)`, hours.
    pub fn interval_hours(&self) -> f64 {
        (2.0 * self.checkpoint_cost_hours * self.mttf_hours).sqrt()
    }

    /// Builds the (uniform) checkpoint schedule for a job of length `job_len` hours.
    ///
    /// The expected-makespan field uses the classical first-order approximation
    /// `T · (1 + δ/τ + τ/(2·MTTF))`, which is what systems using Young–Daly plan around.
    pub fn schedule(&self, job_len: f64, start_age: f64) -> Result<CheckpointSchedule> {
        self.schedule_into(job_len, start_age, Vec::new())
    }

    /// [`YoungDalyPolicy::schedule`], building the intervals in `intervals` (cleared
    /// first) so a caller that plans repeatedly can hand the same allocation back in.
    pub(crate) fn schedule_into(
        &self,
        job_len: f64,
        start_age: f64,
        mut intervals: Vec<f64>,
    ) -> Result<CheckpointSchedule> {
        if !(job_len > 0.0) || !job_len.is_finite() {
            return Err(NumericsError::invalid("job length must be positive"));
        }
        let tau = self.interval_hours();
        intervals.clear();
        let mut remaining = job_len;
        while remaining > tau {
            intervals.push(tau);
            remaining -= tau;
        }
        if remaining > 1e-12 {
            intervals.push(remaining);
        }
        let overhead_fraction = self.checkpoint_cost_hours / tau + tau / (2.0 * self.mttf_hours);
        Ok(CheckpointSchedule {
            intervals_hours: intervals,
            expected_makespan: job_len * (1.0 + overhead_fraction),
            job_len,
            start_age,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_dists::{ConstrainedBathtub, LifetimeDistribution};

    #[test]
    fn construction_validation() {
        assert!(YoungDalyPolicy::new(0.0, 0.1).is_err());
        assert!(YoungDalyPolicy::new(1.0, 0.0).is_err());
        assert!(YoungDalyPolicy::new(f64::NAN, 0.1).is_err());
    }

    #[test]
    fn interval_formula() {
        let p = YoungDalyPolicy::new(1.0, 1.0 / 60.0).unwrap();
        // τ = sqrt(2 * (1/60) * 1) ≈ 0.1826 h ≈ 11 minutes
        assert!((p.interval_hours() - (2.0 / 60.0f64).sqrt()).abs() < 1e-12);
        assert!(p.interval_hours() * 60.0 > 10.0 && p.interval_hours() * 60.0 < 12.0);
    }

    #[test]
    fn paper_baseline_checkpoints_very_frequently() {
        // With MTTF = 1 h and δ = 1 min the baseline checkpoints every ~11 minutes, which
        // is what drives its ~25 % overhead in Figure 8.
        let p = YoungDalyPolicy::paper_baseline();
        let sched = p.schedule(4.0, 0.0).unwrap();
        assert!(
            sched.intervals_hours.len() >= 20,
            "count = {}",
            sched.intervals_hours.len()
        );
        let overhead = sched.expected_overhead_fraction();
        assert!(overhead > 0.15, "overhead = {overhead}");
    }

    #[test]
    fn schedule_sums_to_job_length_and_is_uniform() {
        let p = YoungDalyPolicy::new(2.0, 0.02).unwrap();
        let sched = p.schedule(3.0, 0.0).unwrap();
        let total: f64 = sched.intervals_hours.iter().sum();
        assert!((total - 3.0).abs() < 1e-9);
        // all intervals equal except possibly the last
        let tau = p.interval_hours();
        for &i in &sched.intervals_hours[..sched.intervals_hours.len() - 1] {
            assert!((i - tau).abs() < 1e-12);
        }
        assert!(p.schedule(0.0, 0.0).is_err());
    }

    #[test]
    fn plan_into_a_dirty_buffer_matches_a_fresh_schedule() {
        use crate::CheckpointPlanner;
        let p = YoungDalyPolicy::new(1.7, 0.02).unwrap();
        let mut out = vec![f64::NAN; 300];
        for job_len in [2.75, 0.1, 9.5, 0.6, 4.0, 1.0] {
            for age in [0.0, 0.3, 3.0, 12.5, 23.9] {
                p.plan_into(job_len, age, &mut out).unwrap();
                let fresh = p.schedule(job_len, age).unwrap().intervals_hours;
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(&fresh), "job {job_len} h at age {age} h");
                out.resize(out.len() + 7, -1.0);
            }
        }
    }

    #[test]
    fn mttf_from_initial_failure_rate() {
        let model = ConstrainedBathtub::paper_representative();
        let p = YoungDalyPolicy::from_initial_failure_rate(&model, 1.0 / 60.0).unwrap();
        // With A=0.45, τ1=1 the first-hour failure probability is ≈ 0.285, so the inferred
        // MTTF is a few hours at most — far below the true expected lifetime.
        assert!(
            p.mttf_hours > 0.5 && p.mttf_hours < 5.0,
            "mttf = {}",
            p.mttf_hours
        );
        assert!(p.mttf_hours < model.mean());
    }

    #[test]
    fn larger_mttf_means_longer_intervals() {
        let short = YoungDalyPolicy::new(1.0, 0.02).unwrap();
        let long = YoungDalyPolicy::new(16.0, 0.02).unwrap();
        assert!(long.interval_hours() > short.interval_hours());
        assert!((long.interval_hours() / short.interval_hours() - 4.0).abs() < 1e-9);
    }
}
