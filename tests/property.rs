//! Property-based tests of the core invariants, using proptest.

use constrained_preemption::dists::{
    ConstrainedBathtub, Exponential, GompertzMakeham, LifetimeDistribution, UniformLifetime,
    Weibull,
};
use constrained_preemption::model::analysis::{expected_makespan, expected_wasted_work};
use constrained_preemption::policy::{
    CheckpointConfig, DpCheckpointPolicy, ModelDrivenScheduler, SchedulerPolicy,
};
use proptest::prelude::*;

fn check_cdf_invariants(dist: &dyn LifetimeDistribution) {
    let hi = dist.upper_bound();
    let mut prev = 0.0;
    for i in 0..=100 {
        let t = i as f64 * hi / 100.0;
        let f = dist.cdf(t);
        prop_assert_simple(f.is_finite());
        prop_assert_simple((-1e-9..=1.0 + 1e-9).contains(&f));
        prop_assert_simple(f + 1e-9 >= prev);
        prop_assert_simple(dist.pdf(t) >= 0.0);
        prev = f;
    }
}

/// proptest's `prop_assert!` only works inside proptest closures; this helper panics with a
/// plain assert so it can be shared by the per-distribution check.
fn prop_assert_simple(cond: bool) {
    assert!(cond);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exponential_cdf_invariants(rate in 0.01f64..5.0) {
        let d = Exponential::new(rate).unwrap();
        check_cdf_invariants(&d);
        // quantile inverts cdf
        for &u in &[0.1, 0.5, 0.9] {
            let t = d.quantile(u);
            prop_assert!((d.cdf(t) - u).abs() < 1e-6);
        }
    }

    #[test]
    fn weibull_cdf_invariants(rate in 0.01f64..2.0, shape in 0.3f64..5.0) {
        let d = Weibull::new(rate, shape).unwrap();
        check_cdf_invariants(&d);
    }

    #[test]
    fn gompertz_makeham_cdf_invariants(lambda in 0.0f64..1.0, alpha in 1e-6f64..0.5, beta in 0.01f64..2.0) {
        let d = GompertzMakeham::new(lambda, alpha, beta).unwrap();
        check_cdf_invariants(&d);
    }

    #[test]
    fn bathtub_cdf_invariants(a in 0.2f64..0.9, tau1 in 0.2f64..4.0, tau2 in 0.2f64..2.0, b in 20.0f64..26.0) {
        let d = ConstrainedBathtub::from_parts(a, tau1, tau2, b).unwrap();
        check_cdf_invariants(&d);
        // the temporal constraint is always respected
        prop_assert!((d.cdf(24.0) - 1.0).abs() < 1e-9);
        prop_assert!(d.mean() > 0.0 && d.mean() <= 24.0 + 1e-9);
    }

    #[test]
    fn wasted_work_bounded_by_job_length(a in 0.3f64..0.6, tau1 in 0.5f64..2.0, job in 0.5f64..23.0) {
        let d = ConstrainedBathtub::from_parts(a, tau1, 0.8, 24.0).unwrap();
        let w = expected_wasted_work(&d, job);
        prop_assert!(w >= 0.0 && w <= job + 1e-9);
        let makespan = expected_makespan(&d, job);
        prop_assert!(makespan >= job);
        prop_assert!(makespan <= 2.0 * job + 24.0);
    }

    #[test]
    fn uniform_wasted_work_is_half_job(job in 0.1f64..24.0) {
        let u = UniformLifetime::new(24.0).unwrap();
        let w = expected_wasted_work(&u, job);
        prop_assert!((w - job / 2.0).abs() < 1e-6);
    }

    #[test]
    fn scheduler_decisions_are_consistent(age in 0.0f64..23.9, job in 0.5f64..12.0) {
        // the decision must agree with the explicit makespan comparison it is defined by
        let model = ConstrainedBathtub::paper_representative();
        let sched = ModelDrivenScheduler::new(model);
        let decision = sched.decide(age, job);
        let reuse_cost = sched.expected_makespan(age, job);
        let fresh_cost = sched.expected_makespan(0.0, job);
        match decision {
            constrained_preemption::policy::SchedulingDecision::ReuseExisting => prop_assert!(reuse_cost <= fresh_cost + 1e-9),
            constrained_preemption::policy::SchedulingDecision::LaunchFresh => prop_assert!(reuse_cost > fresh_cost - 1e-9),
        }
    }

    #[test]
    fn checkpoint_schedules_cover_the_job(job in 0.5f64..6.0, start in 0.0f64..20.0) {
        let model = ConstrainedBathtub::paper_representative();
        let policy = DpCheckpointPolicy::new(model, CheckpointConfig::coarse()).unwrap();
        let schedule = policy.schedule(job, start).unwrap();
        let total: f64 = schedule.intervals_hours.iter().sum();
        prop_assert!((total - schedule.job_len).abs() < 1e-6);
        prop_assert!(schedule.intervals_hours.iter().all(|&i| i > 0.0));
        prop_assert!(schedule.expected_makespan >= schedule.job_len - 1e-9);
    }
}
