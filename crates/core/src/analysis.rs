//! Impact of constrained preemptions on job running time (Sections 4.1 and 6.1).
//!
//! For a job of uninterrupted length `T` running on a VM whose time-to-preemption follows
//! distribution `F`:
//!
//! * **Expected wasted work given one preemption** (Equation 5):
//!   `E[W1(T)] = (1/F(T)) ∫_0^T t f(t) dt`
//! * **Expected makespan** (Equation 7):
//!   `E[T_total] = T + ∫_0^T t f(t) dt`
//! * **Age-dependent expected makespan** (Equation 8), for a job starting at VM age `s`:
//!   `E[T_s] = T + ∫_s^{s+T} t f(t) dt` — a constrained-lifetime quantity, so it lives on
//!   the model as [`LifetimeModel::makespan_from_age`](crate::LifetimeModel::makespan_from_age).
//!
//! For the uniform strawman over `[0, L]` the same quantities reduce to `T/2` and
//! `T²/(2L)` (= `T²/48` for the 24-hour horizon), which is the comparison of Figure 4.

use serde::{Deserialize, Serialize};
use tcp_dists::{LifetimeDistribution, UniformLifetime};
use tcp_numerics::{NumericsError, Result};

/// Expected wasted work `E[W1(T)]` assuming exactly one preemption occurs during the job
/// (Equation 5).  Returns 0 when the failure probability within `T` is negligible.
pub fn expected_wasted_work(dist: &dyn LifetimeDistribution, job_len: f64) -> f64 {
    let job_len = job_len.max(0.0);
    let f_t = dist.cdf(job_len);
    if f_t <= 1e-12 {
        return 0.0;
    }
    dist.partial_expectation(0.0, job_len) / f_t
}

/// Expected increase in running time due to preemptions, `P(fail)·E[W1(T)] = ∫_0^T t f(t) dt`
/// (the second term of Equation 7).
pub fn expected_increase_in_running_time(dist: &dyn LifetimeDistribution, job_len: f64) -> f64 {
    dist.partial_expectation(0.0, job_len.max(0.0))
}

/// Expected total running time (makespan) of a job of length `T` starting on a fresh VM
/// (Equation 7), under the paper's single-preemption approximation.
pub fn expected_makespan(dist: &dyn LifetimeDistribution, job_len: f64) -> f64 {
    job_len + expected_increase_in_running_time(dist, job_len)
}

/// Expected wasted work under uniformly distributed preemptions: `T/2` (Section 6.1).
pub fn uniform_expected_wasted_work(job_len: f64) -> f64 {
    0.5 * job_len.max(0.0)
}

/// Expected increase in running time under uniform preemptions over `[0, horizon]`:
/// `T²/(2·horizon)` — `J²/48` for the 24-hour constraint (Section 6.1).
pub fn uniform_expected_increase(job_len: f64, horizon: f64) -> f64 {
    let t = job_len.max(0.0).min(horizon);
    t * t / (2.0 * horizon)
}

/// One row of the Figure 4 sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunningTimePoint {
    /// Job length in hours.
    pub job_len: f64,
    /// Expected wasted work under the bathtub model given one preemption (Figure 4a).
    pub bathtub_wasted: f64,
    /// Expected wasted work under uniform preemptions (`J/2`).
    pub uniform_wasted: f64,
    /// Expected increase in running time under the bathtub model (Figure 4b).
    pub bathtub_increase: f64,
    /// Expected increase in running time under uniform preemptions (`J²/48`).
    pub uniform_increase: f64,
}

/// The Figure 4 sweep over job lengths, plus derived quantities (crossover point).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunningTimeAnalysis {
    /// Sweep rows ordered by job length.
    pub points: Vec<RunningTimePoint>,
    /// The job length at which the bathtub expected increase falls below the uniform one
    /// (the "crossover" discussed in Section 6.1, ≈ 5 hours in the paper), if any.
    pub crossover_job_len: Option<f64>,
    /// The maximum ratio `uniform_increase / bathtub_increase` over the sweep — the
    /// "up to N× lower wasted computation" headline (the paper reports 1–40×).
    pub max_uniform_to_bathtub_ratio: f64,
}

/// Runs the Figure 4 sweep: job lengths `0..=horizon` in `steps` increments.
pub fn running_time_analysis(
    dist: &dyn LifetimeDistribution,
    horizon: f64,
    steps: usize,
) -> Result<RunningTimeAnalysis> {
    if steps < 2 {
        return Err(NumericsError::invalid(
            "running_time_analysis requires at least 2 steps",
        ));
    }
    if !(horizon > 0.0) {
        return Err(NumericsError::invalid("horizon must be positive"));
    }
    let mut points = Vec::with_capacity(steps);
    let mut max_ratio: f64 = 0.0;
    let mut crossover = None;
    let mut prev_sign: Option<bool> = None;
    for i in 0..steps {
        // avoid the degenerate zero-length job at i = 0 by starting slightly above zero
        let job_len = (i as f64 + 0.5) * horizon / steps as f64;
        let bathtub_wasted = expected_wasted_work(dist, job_len);
        let uniform_wasted = uniform_expected_wasted_work(job_len);
        let bathtub_increase = expected_increase_in_running_time(dist, job_len);
        let uniform_increase = uniform_expected_increase(job_len, horizon);
        if bathtub_increase > 1e-9 {
            max_ratio = max_ratio.max(uniform_increase / bathtub_increase);
        }
        let bathtub_better = bathtub_increase < uniform_increase;
        if let Some(prev) = prev_sign {
            if !prev && bathtub_better && crossover.is_none() {
                crossover = Some(job_len);
            }
        }
        prev_sign = Some(bathtub_better);
        points.push(RunningTimePoint {
            job_len,
            bathtub_wasted,
            uniform_wasted,
            bathtub_increase,
            uniform_increase,
        });
    }
    Ok(RunningTimeAnalysis {
        points,
        crossover_job_len: crossover,
        max_uniform_to_bathtub_ratio: max_ratio,
    })
}

/// Convenience: the uniform distribution the paper compares against (horizon = 24 h).
pub fn uniform_strawman(horizon: f64) -> Result<UniformLifetime> {
    UniformLifetime::new(horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LifetimeModel;
    use tcp_dists::ConstrainedBathtub;

    fn model() -> ConstrainedBathtub {
        ConstrainedBathtub::paper_representative()
    }

    #[test]
    fn uniform_closed_forms() {
        assert_eq!(uniform_expected_wasted_work(10.0), 5.0);
        assert!((uniform_expected_increase(10.0, 24.0) - 100.0 / 48.0).abs() < 1e-12);
        assert_eq!(uniform_expected_wasted_work(-1.0), 0.0);
        // the uniform distribution object gives the same answers
        let u = uniform_strawman(24.0).unwrap();
        let j = 10.0;
        assert!((expected_wasted_work(&u, j) - 5.0).abs() < 1e-9);
        assert!((expected_increase_in_running_time(&u, j) - 100.0 / 48.0).abs() < 1e-9);
    }

    #[test]
    fn wasted_work_zero_for_zero_length_jobs() {
        let m = model();
        assert_eq!(expected_wasted_work(&m, 0.0), 0.0);
        assert_eq!(expected_increase_in_running_time(&m, 0.0), 0.0);
        assert_eq!(expected_makespan(&m, 0.0), 0.0);
    }

    #[test]
    fn wasted_work_less_than_job_length() {
        let m = model();
        for j in [1.0, 4.0, 8.0, 16.0, 23.0] {
            let w = expected_wasted_work(&m, j);
            assert!(w > 0.0 && w < j, "j = {j}, w = {w}");
        }
    }

    #[test]
    fn makespan_monotone_in_job_length() {
        let m = model();
        let mut prev = 0.0;
        for i in 1..=24 {
            let e = expected_makespan(&m, i as f64);
            assert!(e > prev);
            prev = e;
        }
    }

    #[test]
    fn figure4b_crossover_and_benefit() {
        // Figure 4b: short jobs do slightly worse under bathtub preemptions, long jobs do
        // much better; the crossover is around 5 hours and the advantage grows large.
        let m = model();
        let analysis = running_time_analysis(&m, 24.0, 96).unwrap();
        let crossover = analysis.crossover_job_len.expect("crossover should exist");
        assert!(
            crossover > 1.0 && crossover < 10.0,
            "crossover = {crossover}"
        );
        assert!(
            analysis.max_uniform_to_bathtub_ratio > 2.0,
            "max ratio = {}",
            analysis.max_uniform_to_bathtub_ratio
        );

        // for a 10-hour job the uniform increase (≈ 2h) must exceed the bathtub increase
        let p10 = analysis
            .points
            .iter()
            .min_by(|a, b| {
                (a.job_len - 10.0)
                    .abs()
                    .partial_cmp(&(b.job_len - 10.0).abs())
                    .unwrap()
            })
            .unwrap();
        assert!(p10.uniform_increase > p10.bathtub_increase);
        // short jobs: bathtub slightly worse (high early failure rate)
        let p1 = analysis
            .points
            .iter()
            .min_by(|a, b| {
                (a.job_len - 1.0)
                    .abs()
                    .partial_cmp(&(b.job_len - 1.0).abs())
                    .unwrap()
            })
            .unwrap();
        assert!(p1.bathtub_increase >= p1.uniform_increase);
    }

    #[test]
    fn age_dependent_makespan_reflects_bathtub() {
        let m = model();
        let job = 6.0;
        // Starting in the stable middle phase is cheaper than starting fresh.
        let fresh = m.makespan_from_age(0.0, job);
        let stable = m.makespan_from_age(8.0, job);
        assert!(stable < fresh, "stable {stable} fresh {fresh}");
        // Starting right before the deadline is the worst.
        let near_deadline = m.makespan_from_age(20.0, job);
        assert!(near_deadline > stable);
        // Equation 8 reduces to Equation 7 at age 0.
        assert!((fresh - expected_makespan(&m, job)).abs() < 1e-9);
    }

    #[test]
    fn analysis_argument_validation() {
        let m = model();
        assert!(running_time_analysis(&m, 24.0, 1).is_err());
        assert!(running_time_analysis(&m, 0.0, 10).is_err());
    }

    #[test]
    fn wasted_hours_match_figure4a_shape() {
        // Figure 4a: bathtub wasted work stays well below J/2 for long jobs because most
        // preemptions happen early.
        let m = model();
        let j = 20.0;
        let bathtub = expected_wasted_work(&m, j);
        let uniform = uniform_expected_wasted_work(j);
        assert!(
            bathtub < 0.6 * uniform,
            "bathtub {bathtub} uniform {uniform}"
        );
    }
}
