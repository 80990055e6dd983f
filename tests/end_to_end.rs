//! Integration tests spanning the whole pipeline: synthetic trace -> model fit -> policies
//! -> batch service, checking the paper's headline qualitative results.

use constrained_preemption::batch::{BatchService, ServiceConfig};
use constrained_preemption::calibrate::{Calibrator, CellKey, TodSlot};
use constrained_preemption::dists::{ConstrainedBathtub, LifetimeDistribution};
use constrained_preemption::model::analysis::running_time_analysis;
use constrained_preemption::model::fit_model_comparison;
use constrained_preemption::policy::checkpoint::simulate::simulate_checkpointed_job;
use constrained_preemption::policy::{
    average_failure_probability, CheckpointConfig, DpCheckpointPolicy, MemorylessScheduler,
    ModelDrivenScheduler, YoungDalyPolicy,
};
use constrained_preemption::trace::{ConfigKey, TraceGenerator};
use constrained_preemption::workloads::profiles::PAPER_APPLICATIONS;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fitted_model() -> ConstrainedBathtub {
    let mut generator = TraceGenerator::new(77);
    let records = generator.generate_for(ConfigKey::figure1(), 600).unwrap();
    let lifetimes: Vec<f64> = records.iter().map(|r| r.lifetime_hours).collect();
    constrained_preemption::model::fit_bathtub_model(&lifetimes, 24.0)
        .unwrap()
        .model
}

#[test]
fn figure1_bathtub_model_fits_best_end_to_end() {
    let mut generator = TraceGenerator::new(1);
    let records = generator.generate_for(ConfigKey::figure1(), 700).unwrap();
    let lifetimes: Vec<f64> = records.iter().map(|r| r.lifetime_hours).collect();
    let cmp = fit_model_comparison(&lifetimes, 24.0).unwrap();
    assert_eq!(cmp.families[0].label, "Our Model");
    assert!(cmp.bathtub.r_squared > 0.97);
}

#[test]
fn registry_built_from_full_study_serves_policies() {
    let mut generator = TraceGenerator::new(5);
    let records = generator.generate_study(870, 120).unwrap();
    let catalog = Calibrator::new("paper-study")
        .calibrate(&records, "paper-sized study (seed 5)", 2)
        .unwrap();
    assert!(!catalog.cells.is_empty());
    let figure1 = ConfigKey::figure1();
    let cell = CellKey {
        vm_type: figure1.vm_type,
        zone: figure1.zone,
        time_of_day: TodSlot::Named(figure1.time_of_day),
    };
    let model = catalog
        .find(&cell.to_string())
        .and_then(|fit| fit.bathtub_model())
        .expect("the Figure 1 cell has a bathtub fit");
    // the fitted model's expected lifetime should be well inside the 24 h constraint
    let lifetime = model.mean();
    assert!(
        lifetime > 4.0 && lifetime < 20.0,
        "expected lifetime = {lifetime}"
    );
}

#[test]
fn figure4_crossover_and_benefit_from_fitted_model() {
    let model = fitted_model();
    let analysis = running_time_analysis(&model, 24.0, 96).unwrap();
    let crossover = analysis.crossover_job_len.expect("crossover exists");
    assert!(
        crossover > 1.0 && crossover < 12.0,
        "crossover at {crossover} h"
    );
    assert!(analysis.max_uniform_to_bathtub_ratio > 2.0);
}

#[test]
fn figure6_scheduling_policy_roughly_halves_failures() {
    let model = fitted_model();
    let ours = ModelDrivenScheduler::new(model);
    let memoryless = MemorylessScheduler;
    let p_ours = average_failure_probability(&ours, &model, 6.0, 96).unwrap();
    let p_memoryless = average_failure_probability(&memoryless, &model, 6.0, 96).unwrap();
    assert!(
        p_ours < 0.8 * p_memoryless,
        "ours {p_ours} vs memoryless {p_memoryless}"
    );
}

#[test]
fn figure8_checkpointing_policy_beats_young_daly_with_fitted_model() {
    let model = fitted_model();
    let dp = DpCheckpointPolicy::new(model, CheckpointConfig::coarse()).unwrap();
    let yd = YoungDalyPolicy::from_initial_failure_rate(&model, 1.0 / 60.0).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let ours = simulate_checkpointed_job(&dp, &model, 4.0, 6.0, 200, &mut rng).unwrap();
    let baseline = simulate_checkpointed_job(&yd, &model, 4.0, 6.0, 200, &mut rng).unwrap();
    assert!(
        ours.mean_overhead_fraction < baseline.mean_overhead_fraction,
        "ours {} vs young-daly {}",
        ours.mean_overhead_fraction,
        baseline.mean_overhead_fraction
    );
}

#[test]
fn figure9_service_cost_advantage_with_fitted_model() {
    let model = fitted_model();
    let profile = &PAPER_APPLICATIONS[0];
    let bag = profile.bag(50, 9).unwrap();
    let ours = BatchService::new(
        ServiceConfig {
            cluster_size: 8,
            ..ServiceConfig::paper_cost_experiment(21)
        },
        std::sync::Arc::new(model),
    )
    .unwrap()
    .run_bag(&bag)
    .unwrap();
    let on_demand = BatchService::new(
        ServiceConfig {
            cluster_size: 8,
            ..ServiceConfig::on_demand_comparator(21)
        },
        std::sync::Arc::new(model),
    )
    .unwrap()
    .run_bag(&bag)
    .unwrap();
    assert_eq!(ours.jobs, 50);
    assert_eq!(on_demand.jobs, 50);
    let ratio = on_demand.cost_per_job() / ours.cost_per_job();
    assert!(ratio > 3.0, "cost ratio = {ratio}");
}
