//! Integration and property tests for the advisor: table answers must match direct
//! `tcp_core::LifetimeModel` / `tcp_policy` evaluation within interpolation tolerance, tables
//! must be monotone where the math says they must be, and the serving path must be
//! byte-deterministic across thread counts.

use proptest::prelude::*;
use std::sync::OnceLock;
use tcp_advisor::{
    generate_requests, requests_to_ndjson, serve_session, AdviceRequest, AdvisorHandle, Decision,
    ModelPack, MultiAdvisor, PackBuilder,
};
use tcp_core::LifetimeModel;
use tcp_dists::{ConstrainedBathtub, LifetimeDistribution};
use tcp_policy::{CheckpointConfig, DpCheckpointPolicy};
use tcp_scenarios::SweepSpec;

/// The reference model behind the `paper` regime of the test pack.
fn model() -> ConstrainedBathtub {
    ConstrainedBathtub::paper_representative()
}

fn test_spec() -> SweepSpec {
    SweepSpec::from_toml(
        r#"
[sweep]
name = "advisor-test"
base_seed = 2020

[[regime]]
name = "paper"
kind = "bathtub"
a = 0.45
tau1 = 1.0
tau2 = 0.8

[[regime]]
name = "exp8"
kind = "exponential"
mean_hours = 8.0

[workload]
checkpoint_cost_minutes = [1.0]
dp_step_minutes = 15.0
"#,
    )
    .unwrap()
}

fn pack() -> &'static ModelPack {
    static PACK: OnceLock<ModelPack> = OnceLock::new();
    PACK.get_or_init(|| {
        PackBuilder {
            max_checkpoint_job_hours: 6.0,
            ..PackBuilder::default()
        }
        .build_from_spec(&test_spec())
        .unwrap()
    })
}

/// One-minute age knots make the 1-D interpolation error tiny; the curvature of
/// `t·f(t)` bounds it near 1e-3 hours for the makespan and well below that for
/// probabilities.
const TOLERANCE: f64 = 5e-3;

fn advisor() -> MultiAdvisor {
    MultiAdvisor::from_pack(pack().clone()).unwrap()
}

/// `advisor`'s answers to `requests`, as served NDJSON.
fn served(advisor: MultiAdvisor, requests: &[AdviceRequest]) -> String {
    let input = requests_to_ndjson(requests);
    serve_session(&AdvisorHandle::new(advisor), &input, 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn makespan_table_matches_equation8(age in 0.0f64..23.99, job in 0.1f64..14.0) {
        // The whole live-VM domain, *including* the deadline-crossing region
        // `age + job >= 24`: the first-moment decomposition handles the kink
        // analytically.  (Ages at or past the horizon get no makespan at all — see
        // `past_horizon_vms_get_no_makespan_or_cost`.)
        let a = advisor();
        let response = a
            .advise(&AdviceRequest::expected_cost_makespan("paper", age, job))
            .unwrap();
        let tabled = response.expected_makespan_hours.unwrap();
        let direct = model().makespan_from_age(age, job);
        prop_assert!(
            (tabled - direct).abs() < TOLERANCE,
            "age {age} job {job}: tabled {tabled} direct {direct}"
        );
    }

    #[test]
    fn failure_table_matches_direct_probability(age in 0.0f64..24.0, job in 0.1f64..14.0) {
        let a = advisor();
        let response = a
            .advise(&AdviceRequest::expected_cost_makespan("paper", age, job))
            .unwrap();
        let tabled = response.failure_probability.unwrap();
        let direct = model().conditional_failure_probability(age, job);
        prop_assert!(
            (tabled - direct).abs() < TOLERANCE,
            "age {age} job {job}: tabled {tabled} direct {direct}"
        );
        prop_assert!((0.0..=1.0).contains(&tabled));
    }

    #[test]
    fn survival_table_matches_and_is_monotone_in_age(age1 in 0.0f64..24.0, age2 in 0.0f64..24.0) {
        let a = advisor();
        let survival_at = |age: f64| {
            a.advise(&AdviceRequest::expected_cost_makespan("paper", age, 1.0))
                .unwrap()
                .survival_probability
                .unwrap()
        };
        let s1 = survival_at(age1);
        prop_assert!((s1 - model().survival(age1)).abs() < TOLERANCE, "age {age1}: {s1}");
        // Survival must not increase with age.
        let (young, old) = if age1 <= age2 { (age1, age2) } else { (age2, age1) };
        prop_assert!(
            survival_at(young) >= survival_at(old) - 1e-9,
            "S({young}) < S({old})"
        );
    }

    #[test]
    fn makespan_table_is_monotone_in_job_length(age in 0.0f64..23.0, job1 in 0.1f64..12.0, job2 in 0.1f64..12.0) {
        // E[T_s] = T + ∫ is strictly increasing in T; linear interpolation over a
        // monotone grid must preserve (weak) monotonicity.
        let a = advisor();
        let makespan_at = |job: f64| {
            a.advise(&AdviceRequest::expected_cost_makespan("paper", age, job))
                .unwrap()
                .expected_makespan_hours
                .unwrap()
        };
        let (short, long) = if job1 <= job2 { (job1, job2) } else { (job2, job1) };
        prop_assert!(
            makespan_at(short) <= makespan_at(long) + 1e-9,
            "E[T] decreased from job {short} to {long} at age {age}"
        );
    }

    #[test]
    fn failure_probability_is_monotone_in_job_length(age in 0.0f64..23.0, job1 in 0.1f64..12.0, job2 in 0.1f64..12.0) {
        let a = advisor();
        let failure_at = |job: f64| {
            a.advise(&AdviceRequest::expected_cost_makespan("paper", age, job))
                .unwrap()
                .failure_probability
                .unwrap()
        };
        let (short, long) = if job1 <= job2 { (job1, job2) } else { (job2, job1) };
        prop_assert!(failure_at(short) <= failure_at(long) + 1e-9);
    }

    #[test]
    fn reuse_decisions_match_the_direct_policy_away_from_ties(age in 0.0f64..23.9, job in 0.5f64..10.0) {
        let a = advisor();
        let response = a
            .advise(&AdviceRequest::should_reuse("paper", age, job))
            .unwrap();
        let dist = model();
        let fresh = dist.makespan_from_age(0.0, job);
        let reuse = dist.makespan_from_age(age, job);
        // Near the decision boundary interpolation may legitimately flip the choice;
        // away from it (margin > table tolerance) the decisions must agree.
        if (reuse - fresh).abs() > 2.0 * TOLERANCE {
            let expected = if reuse <= fresh {
                Decision::Reuse
            } else {
                Decision::LaunchFresh
            };
            prop_assert!(
                response.decision.unwrap() == expected,
                "age {age} job {job}: reuse {reuse} fresh {fresh}"
            );
        }
    }
}

#[test]
fn checkpoint_tables_are_exact_at_grid_points() {
    // At grid points no interpolation happens, so the pack must reproduce a freshly
    // solved DP exactly.
    let regime = &pack().regimes[0];
    let cell = &regime.checkpoint_cells[0];
    let config = CheckpointConfig {
        checkpoint_cost_hours: cell.checkpoint_cost_minutes / 60.0,
        step_hours: cell.dp_step_minutes / 60.0,
        restart_overhead_hours: cell.restart_overhead_minutes / 60.0,
    };
    let policy =
        DpCheckpointPolicy::new(regime.model.expect("bathtub reference fit").dist, config).unwrap();
    for (i, &age) in cell.ages.iter().enumerate() {
        for (j, &job) in cell.job_lens.iter().enumerate() {
            let tabled = cell.expected_makespan[i * cell.job_lens.len() + j];
            let direct = policy.expected_makespan(job, age).unwrap();
            assert!(
                (tabled - direct).abs() < 1e-9,
                "age {age} job {job}: tabled {tabled} direct {direct}"
            );
        }
    }
    // The stored fresh-VM schedules match direct planning too.
    for (j, schedule) in cell.schedules.iter().enumerate() {
        let direct = policy.schedule(cell.job_lens[j], 0.0).unwrap();
        assert_eq!(schedule.intervals_hours, direct.intervals_hours);
    }
}

#[test]
fn checkpoint_plan_interpolates_between_grid_points() {
    let a = advisor();
    let regime = &pack().regimes[0];
    let cell = &regime.checkpoint_cells[0];
    let config = CheckpointConfig {
        checkpoint_cost_hours: cell.checkpoint_cost_minutes / 60.0,
        step_hours: cell.dp_step_minutes / 60.0,
        restart_overhead_hours: cell.restart_overhead_minutes / 60.0,
    };
    let policy =
        DpCheckpointPolicy::new(regime.model.expect("bathtub reference fit").dist, config).unwrap();
    for &(job, age) in &[(2.2, 0.0), (3.7, 5.0), (5.1, 10.0)] {
        let response = a
            .advise(&AdviceRequest::checkpoint_plan("paper", age, job))
            .unwrap();
        let tabled = response.expected_makespan_hours.unwrap();
        let direct = policy.expected_makespan(job, age).unwrap();
        // The DP value function is piecewise-flat in job length (step quantisation), so
        // the tolerance is a couple of DP steps, not the fine-table tolerance.
        assert!(
            (tabled - direct).abs() < 3.0 * config.step_hours,
            "job {job} age {age}: tabled {tabled} direct {direct}"
        );
        assert!(response.checkpoint_count.unwrap() >= 1);
    }
}

#[test]
fn past_horizon_vms_get_no_makespan_or_cost() {
    // A VM at or past the reclamation deadline cannot run anything: both the reuse
    // path and the cost path must refuse to invent a finite makespan for it.
    let a = advisor();
    let r = a
        .advise(&AdviceRequest::expected_cost_makespan("paper", 25.0, 4.0))
        .unwrap();
    assert_eq!(r.expected_makespan_hours, None);
    assert_eq!(r.expected_cost_usd, None);
    assert_eq!(r.failure_probability, Some(1.0));
    assert_eq!(r.survival_probability, Some(0.0));
    // The on-demand comparator is still meaningful (a fresh on-demand VM runs the job).
    assert!(r.on_demand_cost_usd.unwrap() > 0.0);
}

#[test]
fn pack_round_trips_through_json_with_identical_answers() {
    let original = advisor();
    let rehydrated = MultiAdvisor::from_json(&pack().to_json().unwrap()).unwrap();
    let requests = generate_requests(pack(), 400, 99);
    assert_eq!(served(original, &requests), served(rehydrated, &requests));
}

#[test]
fn shipped_v2_example_pack_round_trips() {
    // `examples/advisor/pack_v2.json` is a format-2 pack (built from
    // `advisor_pack.toml` by the pre-redesign schema: bathtub-driven DP, no
    // `dp_family`).  The loader must upgrade it, record `dp_family = "bathtub"`, and
    // round-trip it through the current format with identical answers.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/advisor/pack_v2.json"
    );
    let json = std::fs::read_to_string(path).expect("shipped v2 example pack");
    assert!(json.contains("\"format_version\":2"));
    assert!(!json.contains("dp_family"));
    let upgraded = ModelPack::from_json(&json).unwrap();
    assert_eq!(upgraded.name, "advisor-smoke");
    for regime in &upgraded.regimes {
        assert_eq!(regime.dp_family, "bathtub");
        assert!(regime.model.is_some(), "v2 packs always carried the fit");
    }
    // Round trip at the current version.
    let rewritten = upgraded.to_json().unwrap();
    assert!(rewritten.contains("\"dp_family\":\"bathtub\""));
    let reloaded = ModelPack::from_json(&rewritten).unwrap();
    assert_eq!(reloaded, upgraded);
    // The upgraded pack serves: same answers before and after the round trip.
    let requests = generate_requests(&upgraded, 200, 17);
    let a = MultiAdvisor::from_pack(upgraded).unwrap();
    let b = MultiAdvisor::from_pack(reloaded).unwrap();
    assert_eq!(served(a, &requests), served(b, &requests));
}

#[test]
fn serving_10k_requests_is_thread_invariant() {
    let handle = AdvisorHandle::new(advisor());
    let requests = generate_requests(pack(), 10_000, 2020);
    let input = requests_to_ndjson(&requests);
    let one = serve_session(&handle, &input, 1);
    let four = serve_session(&handle, &input, 4);
    assert_eq!(one, four, "NDJSON output must be byte-identical");
    assert_eq!(one.lines().count(), 10_000);
}
