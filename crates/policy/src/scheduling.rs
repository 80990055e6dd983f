//! The job-scheduling / VM-reuse policy (Section 4.2).
//!
//! When a job of length `T` is ready to start and an existing VM of age `s` is available,
//! the application can either reuse the VM or relinquish it and launch a fresh one.  The
//! model-driven policy compares the expected makespans (Equation 8):
//!
//! ```text
//! reuse  iff  E[T_s] ≤ E[T_0]
//! ```
//!
//! The memoryless baseline (what spot-instance systems such as SpotOn effectively do)
//! always reuses the running VM because, under a memoryless preemption model, VM age
//! carries no information.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tcp_core::LifetimeModel;
use tcp_dists::ConstrainedBathtub;
use tcp_numerics::{NumericsError, Result};

/// The decision produced by a scheduler for a ready job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulingDecision {
    /// Run the job on the existing VM.
    ReuseExisting,
    /// Relinquish the existing VM and run the job on a freshly launched VM.
    LaunchFresh,
}

/// Common interface of the schedulers compared in Figures 5–7.
pub trait SchedulerPolicy: Send + Sync {
    /// Decides where a job of length `job_len` (hours) should run, given the age (hours)
    /// of the currently available VM.
    fn decide(&self, vm_age: f64, job_len: f64) -> SchedulingDecision;
}

/// The paper's model-driven scheduler, generic over the lifetime model: the reuse rule
/// `E[T_s] <= E[T_0]` only needs Equation 8, which every [`LifetimeModel`] carries.
#[derive(Clone)]
pub struct ModelDrivenScheduler {
    model: Arc<dyn LifetimeModel>,
}

impl std::fmt::Debug for ModelDrivenScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelDrivenScheduler")
            .field("family", &self.model.family())
            .finish()
    }
}

impl ModelDrivenScheduler {
    /// Creates a scheduler driven by a fitted bathtub model (the closed-form fast path).
    pub fn new(model: ConstrainedBathtub) -> Self {
        Self::from_model(Arc::new(model))
    }

    /// Creates a scheduler driven by *any* lifetime model — the winner-family path.
    pub fn from_model(model: Arc<dyn LifetimeModel>) -> Self {
        ModelDrivenScheduler { model }
    }

    /// Expected makespan of a job of length `job_len` starting at VM age `vm_age`
    /// (Equation 8).  A VM at (or past) the 24 h deadline cannot run anything, so its
    /// makespan is infinite — the policy will always prefer a fresh VM over it.
    pub fn expected_makespan(&self, vm_age: f64, job_len: f64) -> f64 {
        if vm_age >= self.model.horizon() {
            return f64::INFINITY;
        }
        self.model.makespan_from_age(vm_age, job_len)
    }

    /// The oldest VM age at which the policy still chooses to reuse the VM for a job of
    /// length `job_len` (the threshold discussed at the end of Section 4.2).  Returns the
    /// horizon if reuse is always preferred.
    // lint:allow(dead-api) no caller outside scheduling::tests::reuse_threshold_reflects_deadline; delete with it
    pub fn reuse_threshold_age(&self, job_len: f64) -> f64 {
        let horizon = self.model.horizon();
        let fresh = self.expected_makespan(0.0, job_len);
        // The makespan difference is not monotone near zero (the early phase makes young
        // VMs unattractive too); the threshold of interest is the age beyond which reuse
        // stops being preferable, so scan from the horizon backwards.
        let steps = 480;
        for i in (0..=steps).rev() {
            let age = i as f64 * horizon / steps as f64;
            if self.expected_makespan(age, job_len) <= fresh {
                return age;
            }
        }
        0.0
    }
}

impl SchedulerPolicy for ModelDrivenScheduler {
    fn decide(&self, vm_age: f64, job_len: f64) -> SchedulingDecision {
        let reuse_cost = self.expected_makespan(vm_age, job_len);
        let fresh_cost = self.expected_makespan(0.0, job_len);
        if reuse_cost <= fresh_cost {
            SchedulingDecision::ReuseExisting
        } else {
            SchedulingDecision::LaunchFresh
        }
    }
}

/// The memoryless baseline: always reuse the running VM (VM age is ignored).
#[derive(Debug, Clone, Copy, Default)]
pub struct MemorylessScheduler;

impl SchedulerPolicy for MemorylessScheduler {
    fn decide(&self, _vm_age: f64, _job_len: f64) -> SchedulingDecision {
        SchedulingDecision::ReuseExisting
    }
}

/// Probability that a job of length `job_len` fails (is interrupted by a preemption before
/// completing) when scheduled by `policy` at a moment when the available VM has age
/// `vm_age`, evaluated under the *true* preemption model `truth`.
///
/// This is the quantity plotted in Figure 5 (vs `vm_age`, for a 6-hour job) and, averaged
/// over start times, in Figures 6 and 7.  Separating the decision model (inside `policy`)
/// from the evaluation model (`truth`) is what enables the Figure 7 sensitivity study.
pub fn job_failure_probability(
    policy: &dyn SchedulerPolicy,
    truth: &dyn LifetimeModel,
    vm_age: f64,
    job_len: f64,
) -> f64 {
    match policy.decide(vm_age, job_len) {
        SchedulingDecision::ReuseExisting => truth.conditional_failure_probability(vm_age, job_len),
        SchedulingDecision::LaunchFresh => truth.conditional_failure_probability(0.0, job_len),
    }
}

/// Average job failure probability over job start times (VM ages) distributed uniformly on
/// `[0, horizon]` — the y-axis of Figure 6.
pub fn average_failure_probability(
    policy: &dyn SchedulerPolicy,
    truth: &dyn LifetimeModel,
    job_len: f64,
    start_time_steps: usize,
) -> Result<f64> {
    if start_time_steps < 2 {
        return Err(NumericsError::invalid("need at least 2 start-time steps"));
    }
    let horizon = truth.horizon();
    let mut acc = 0.0;
    for i in 0..start_time_steps {
        let age = (i as f64 + 0.5) * horizon / start_time_steps as f64;
        acc += job_failure_probability(policy, truth, age, job_len);
    }
    Ok(acc / start_time_steps as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ConstrainedBathtub {
        ConstrainedBathtub::paper_representative()
    }

    #[test]
    fn model_driven_prefers_stable_vms() {
        let sched = ModelDrivenScheduler::new(model());
        // Reuse a VM in the stable middle of its life.
        assert_eq!(sched.decide(8.0, 6.0), SchedulingDecision::ReuseExisting);
        // Do not reuse a VM about to hit the 24 h deadline for a 6 h job.
        assert_eq!(sched.decide(21.0, 6.0), SchedulingDecision::LaunchFresh);
    }

    #[test]
    fn memoryless_always_reuses() {
        let sched = MemorylessScheduler;
        for age in [0.0, 5.0, 20.0, 23.9] {
            assert_eq!(sched.decide(age, 6.0), SchedulingDecision::ReuseExisting);
        }
    }

    #[test]
    fn reuse_threshold_reflects_deadline() {
        let sched = ModelDrivenScheduler::new(model());
        // For a 6-hour job the paper expects the switch to fresh VMs around 24 − 6 = 18 h.
        let threshold = sched.reuse_threshold_age(6.0);
        assert!(
            threshold > 14.0 && threshold < 20.5,
            "threshold = {threshold}"
        );
        // Longer jobs must switch earlier.
        let t_long = sched.reuse_threshold_age(10.0);
        assert!(
            t_long < threshold,
            "t_long = {t_long}, threshold = {threshold}"
        );
    }

    #[test]
    fn figure5_failure_probability_shape() {
        // Figure 5: 6-hour job.  Memoryless policy: failure probability is bathtub shaped
        // in the start time and hits 1.0 after 18 h.  Model-driven policy: capped at the
        // fresh-VM failure probability (≈ 0.4–0.5) for late start times.
        let truth = model();
        let ours = ModelDrivenScheduler::new(truth);
        let memoryless = MemorylessScheduler;
        let job = 6.0;

        let fresh_failure = truth.conditional_failure_probability(0.0, job);
        assert!(
            fresh_failure > 0.3 && fresh_failure < 0.6,
            "fresh = {fresh_failure}"
        );

        // late start: memoryless fails with certainty, ours falls back to the fresh VM rate
        let late_memoryless = job_failure_probability(&memoryless, &truth, 20.0, job);
        let late_ours = job_failure_probability(&ours, &truth, 20.0, job);
        assert!((late_memoryless - 1.0).abs() < 1e-9);
        assert!((late_ours - fresh_failure).abs() < 1e-9);

        // mid-life start: both policies reuse and enjoy the stable phase
        let mid_ours = job_failure_probability(&ours, &truth, 10.0, job);
        let mid_memoryless = job_failure_probability(&memoryless, &truth, 10.0, job);
        assert!((mid_ours - mid_memoryless).abs() < 1e-9);
        assert!(mid_ours < 0.2, "mid = {mid_ours}");
    }

    #[test]
    fn figure6_average_failure_probability_halved() {
        // Figure 6: averaged over start times, the model-driven policy roughly halves the
        // failure probability for mid-length jobs.
        let truth = model();
        let ours = ModelDrivenScheduler::new(truth);
        let memoryless = MemorylessScheduler;
        for job_len in [4.0, 6.0, 8.0, 10.0] {
            let p_ours = average_failure_probability(&ours, &truth, job_len, 96).unwrap();
            let p_memoryless =
                average_failure_probability(&memoryless, &truth, job_len, 96).unwrap();
            assert!(
                p_ours < p_memoryless,
                "job {job_len}: ours {p_ours} vs memoryless {p_memoryless}"
            );
            assert!(
                p_ours < 0.75 * p_memoryless,
                "job {job_len}: expected a substantial reduction, got {p_ours} vs {p_memoryless}"
            );
        }
    }

    #[test]
    fn figure7_suboptimal_model_changes_little() {
        // Figure 7: driving the policy with a mis-fitted bathtub model barely hurts,
        // because any bathtub-shaped model leads to the same reuse-vs-fresh decisions.
        let truth = model();
        // "suboptimal" model: parameters for a noticeably more aggressive VM type
        let suboptimal = ConstrainedBathtub::from_parts(0.49, 0.55, 0.9, 23.2).unwrap();
        let best = ModelDrivenScheduler::new(truth);
        let misfit = ModelDrivenScheduler::new(suboptimal);
        let memoryless = MemorylessScheduler;
        for job_len in [6.0, 8.0] {
            let p_best = average_failure_probability(&best, &truth, job_len, 96).unwrap();
            let p_misfit = average_failure_probability(&misfit, &truth, job_len, 96).unwrap();
            let p_memoryless =
                average_failure_probability(&memoryless, &truth, job_len, 96).unwrap();
            // suboptimal model stays close to the best-fit model ...
            assert!(
                (p_misfit - p_best).abs() < 0.05,
                "job {job_len}: best {p_best} misfit {p_misfit}"
            );
            // ... and still beats memoryless clearly
            assert!(
                p_misfit < p_memoryless - 0.05,
                "job {job_len}: misfit {p_misfit} memoryless {p_memoryless}"
            );
        }
    }

    #[test]
    fn expected_makespan_accessor_consistent_with_core() {
        let sched = ModelDrivenScheduler::new(model());
        // Equation 8: E[T_s] = T + ∫_s^{s+T} t f(t) dt.
        let direct = 5.0 + tcp_dists::LifetimeDistribution::partial_expectation(&model(), 3.0, 8.0);
        assert!((sched.expected_makespan(3.0, 5.0) - direct).abs() < 1e-12);
        assert_eq!(sched.model.horizon(), 24.0);
        assert_eq!(sched.model.family(), "bathtub");
    }

    #[test]
    fn average_failure_probability_validation() {
        let truth = model();
        let ours = ModelDrivenScheduler::new(truth);
        assert!(average_failure_probability(&ours, &truth, 6.0, 1).is_err());
    }

    /// `LifetimeModel::makespan_from_age`'s trait default, which tabulated models used
    /// before `tcp_core::AgeCurves`: `T + (W(b) − W(a)).max(0)`.
    fn reference_makespan(m: &dyn LifetimeModel, vm_age: f64, job_len: f64) -> f64 {
        let s = vm_age.max(0.0);
        job_len + m.partial_expectation(s, s + job_len.max(0.0))
    }

    /// `LifetimeModel::conditional_failure_probability`'s former trait default.
    fn reference_failure_probability(m: &dyn LifetimeModel, start: f64, job_len: f64) -> f64 {
        if start + job_len >= m.horizon() {
            return 1.0;
        }
        let alive = m.survival(start);
        if alive <= 1e-12 {
            return 1.0;
        }
        ((alive - m.survival(start + job_len)) / alive).clamp(0.0, 1.0)
    }

    #[test]
    fn tabulated_models_keep_the_reference_failures_and_decisions() {
        use tcp_core::TabulatedLifetime;
        use tcp_dists::{
            EmpiricalLifetime, Exponential, LifetimeDistribution, PhasedHazard, Weibull,
        };
        let horizon = 24.0;
        let points = tcp_core::lifetime::DEFAULT_TABLE_POINTS;
        let samples: Vec<f64> = (1..=40)
            .map(|i| horizon * (i as f64 / 41.0).powf(1.5))
            .collect();
        let families: Vec<(&str, Arc<dyn LifetimeDistribution>)> = vec![
            (
                "exponential",
                Arc::new(Exponential::new(1.0 / 8.0).unwrap()),
            ),
            ("weibull", Arc::new(Weibull::new(0.1, 1.5).unwrap())),
            ("phased", Arc::new(PhasedHazard::representative())),
            (
                "empirical",
                Arc::new(EmpiricalLifetime::new(&samples, Some(horizon)).unwrap()),
            ),
        ];
        let mut models: Vec<Arc<dyn LifetimeModel>> = families
            .iter()
            .map(|(family, dist)| -> Arc<dyn LifetimeModel> {
                Arc::new(
                    TabulatedLifetime::from_distribution(*family, dist.as_ref(), horizon, points)
                        .unwrap(),
                )
            })
            .collect();
        models.push(Arc::new(
            TabulatedLifetime::from_mixture(
                &[(0.3, families[0].1.clone()), (0.7, families[2].1.clone())],
                horizon,
                points,
            )
            .unwrap(),
        ));
        for model in models {
            let sched = ModelDrivenScheduler::from_model(model.clone());
            let expected = |age: f64, job: f64| {
                if age >= horizon {
                    f64::INFINITY
                } else {
                    reference_makespan(model.as_ref(), age, job)
                }
            };
            for i in 0..96 {
                let age = i as f64 * 0.25;
                for j in 0..16 {
                    let job = 0.5 * (j + 1) as f64;
                    let got = model.conditional_failure_probability(age, job);
                    let want = reference_failure_probability(model.as_ref(), age, job);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{}: failure at age {age} job {job}: {got} vs {want}",
                        model.family()
                    );
                    let want = if expected(age, job) <= expected(0.0, job) {
                        SchedulingDecision::ReuseExisting
                    } else {
                        SchedulingDecision::LaunchFresh
                    };
                    assert_eq!(
                        sched.decide(age, job),
                        want,
                        "{}: decision at age {age} job {job}",
                        model.family()
                    );
                }
            }
        }
    }

    #[test]
    fn failure_probability_bounds() {
        let truth = model();
        let ours = ModelDrivenScheduler::new(truth);
        let memoryless = MemorylessScheduler;
        for age_step in 0..24 {
            for len_step in 1..12 {
                let age = age_step as f64;
                let len = len_step as f64;
                for policy in [&ours as &dyn SchedulerPolicy, &memoryless] {
                    let p = job_failure_probability(policy, &truth, age, len);
                    assert!((0.0..=1.0).contains(&p), "p = {p}");
                }
            }
        }
    }
}
