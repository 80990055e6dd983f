//! Property tests for the model-generic lifetime API: the generic-hazard DP must
//! reproduce the bathtub closed-form DP within tolerance across the whole grid
//! (deadline crossing included), and the DP value function must be monotone in the
//! checkpoint cost for every lifetime family.

use constrained_preemption::dists::ConstrainedBathtub;
use constrained_preemption::model::{LifetimeModel, TabulatedLifetime};
use constrained_preemption::policy::{CheckpointConfig, DpCheckpointPolicy};
use proptest::prelude::*;
use std::sync::Arc;

/// The acceptance tolerance of the redesign: tabulated-vs-closed-form agreement.
const DP_TOLERANCE: f64 = 5e-3;

fn coarse(cost_minutes: f64) -> CheckpointConfig {
    CheckpointConfig {
        checkpoint_cost_hours: cost_minutes / 60.0,
        step_hours: 0.25,
        restart_overhead_hours: 1.0 / 60.0,
    }
}

/// One lifetime model per family, horizon 24 h, tabulated where the family needs it.
fn family_models() -> Vec<Arc<dyn LifetimeModel>> {
    use constrained_preemption::dists::{EmpiricalLifetime, Exponential, PhasedHazard, Weibull};
    vec![
        Arc::new(ConstrainedBathtub::paper_representative()),
        Arc::new(
            TabulatedLifetime::from_distribution(
                "exponential",
                &Exponential::new(1.0 / 8.0).unwrap(),
                24.0,
                361,
            )
            .unwrap(),
        ),
        Arc::new(
            TabulatedLifetime::from_distribution(
                "weibull",
                &Weibull::new(0.1, 1.5).unwrap(),
                24.0,
                361,
            )
            .unwrap(),
        ),
        Arc::new(
            TabulatedLifetime::from_distribution(
                "phased",
                &PhasedHazard::representative(),
                24.0,
                361,
            )
            .unwrap(),
        ),
        Arc::new(
            TabulatedLifetime::from_distribution(
                "empirical",
                &EmpiricalLifetime::new(
                    &[0.3, 0.9, 1.8, 2.6, 4.0, 6.5, 9.0, 13.0, 18.0, 22.5, 24.0],
                    Some(24.0),
                )
                .unwrap(),
                24.0,
                361,
            )
            .unwrap(),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The generic-hazard DP (bathtub tabulated by quadrature, the exact path every
    // non-bathtub winner takes) reproduces the closed-form DP within 5e-3 across the
    // grid — including start ages whose planning windows cross the 24 h deadline.
    #[test]
    fn generic_dp_matches_bathtub_closed_form(
        a in 0.35f64..0.55,
        tau1 in 0.6f64..1.6,
        job in 1.0f64..6.0,
        age in 0.0f64..23.0,
    ) {
        let model = ConstrainedBathtub::from_parts(a, tau1, 0.8, 24.0).unwrap();
        let closed = DpCheckpointPolicy::new(model, coarse(1.0)).unwrap();
        let tabulated = TabulatedLifetime::from_distribution(
            "bathtub",
            &model,
            model.horizon(),
            1441,
        )
        .unwrap();
        let generic = DpCheckpointPolicy::from_model(Arc::new(tabulated), coarse(1.0)).unwrap();
        let v_closed = closed.expected_makespan(job, age).unwrap();
        let v_generic = generic.expected_makespan(job, age).unwrap();
        prop_assert!(
            (v_closed - v_generic).abs() <= DP_TOLERANCE * v_closed.max(1.0),
            "a={a} tau1={tau1} job={job} age={age}: closed {v_closed} generic {v_generic}"
        );
        // The deadline-crossing corner explicitly: starting late enough that the job
        // cannot fit before the horizon.
        let late_age = (24.0 - 0.5 * job).min(23.5);
        let v_closed = closed.expected_makespan(job, late_age).unwrap();
        let v_generic = generic.expected_makespan(job, late_age).unwrap();
        prop_assert!(
            (v_closed - v_generic).abs() <= DP_TOLERANCE * v_closed.max(1.0),
            "deadline crossing at age {late_age}: closed {v_closed} generic {v_generic}"
        );
    }

    // A more expensive checkpoint can never shrink the optimal expected makespan —
    // for the bathtub closed form and for every tabulated family alike.
    #[test]
    fn dp_value_monotone_in_checkpoint_cost_for_every_family(
        low in 0.25f64..4.0,
        factor in 1.0f64..8.0,
        job in 1.0f64..6.0,
        age in 0.0f64..20.0,
    ) {
        let high = low * factor;
        for model in family_models() {
            let family = model.family().to_string();
            let cheap = DpCheckpointPolicy::from_model(model.clone(), coarse(low)).unwrap();
            let dear = DpCheckpointPolicy::from_model(model.clone(), coarse(high)).unwrap();
            let v_cheap = cheap.expected_makespan(job, age).unwrap();
            let v_dear = dear.expected_makespan(job, age).unwrap();
            prop_assert!(
                v_dear >= v_cheap - 1e-9,
                "{family}: cost {low}->{high} min, job {job} age {age}: {v_cheap} -> {v_dear}"
            );
            // The DP quantises the job to 15-minute steps, so the planned job may sit
            // up to half a step below the requested length.
            prop_assert!(
                v_cheap >= job - 0.126,
                "{family}: makespan {v_cheap} below quantised job length {job}"
            );
        }
    }
}
