//! End-to-end cost experiment: run a bag of scientific jobs through the batch service on
//! preemptible VMs and compare the cost per job against conventional on-demand VMs
//! (Section 6.3 / Figure 9a).
//!
//! Run with: `cargo run --release --example batch_service`

use constrained_preemption::batch::{BatchService, ServiceConfig};
use constrained_preemption::dists::ConstrainedBathtub;
use constrained_preemption::workloads::profiles::PAPER_APPLICATIONS;

fn main() {
    let model = ConstrainedBathtub::paper_representative();
    let cluster_size = 16;
    let jobs_per_bag = 100;

    println!(
        "cost per job, preemptible (our service) vs on-demand, {jobs_per_bag} jobs per bag:\n"
    );
    println!(
        "  application        ours       on-demand   savings   preemptions   runtime increase"
    );
    for (i, profile) in PAPER_APPLICATIONS.iter().enumerate() {
        let bag = profile.bag(jobs_per_bag, 40 + i as u64).expect("bag");

        let ours = BatchService::new(
            ServiceConfig {
                cluster_size,
                ..ServiceConfig::paper_cost_experiment(10 + i as u64)
            },
            std::sync::Arc::new(model),
        )
        .expect("service")
        .run_bag(&bag)
        .expect("run");

        let on_demand = BatchService::new(
            ServiceConfig {
                cluster_size,
                ..ServiceConfig::on_demand_comparator(10 + i as u64)
            },
            std::sync::Arc::new(model),
        )
        .expect("service")
        .run_bag(&bag)
        .expect("run");

        println!(
            "  {:<16} ${:<9.3} ${:<10.3} {:>5.1}x   {:>8}      {:>6.1}%",
            profile.name,
            ours.cost_per_job(),
            on_demand.cost_per_job(),
            on_demand.cost_per_job() / ours.cost_per_job(),
            ours.preemptions,
            ours.percent_increase_in_running_time(),
        );
    }
}
