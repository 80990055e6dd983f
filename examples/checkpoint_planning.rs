//! Checkpoint planning: compute the model-driven (non-uniform) checkpoint schedule for a
//! job and compare its expected overhead against the Young–Daly periodic baseline
//! (Section 4.3 / Figure 8).
//!
//! Run with: `cargo run --release --example checkpoint_planning`

use constrained_preemption::dists::ConstrainedBathtub;
use constrained_preemption::policy::checkpoint::simulate::simulate_checkpointed_job;
use constrained_preemption::policy::{CheckpointConfig, DpCheckpointPolicy, YoungDalyPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let model = ConstrainedBathtub::paper_representative();
    let policy =
        DpCheckpointPolicy::new(model, CheckpointConfig::paper_defaults()).expect("policy");

    // The paper's running example: a 5-hour job launched on a fresh VM.
    let schedule = policy.schedule(5.0, 0.0).expect("schedule");
    println!("model-driven checkpoint schedule for a 5 h job on a fresh VM:");
    for (i, interval) in schedule.intervals_hours.iter().enumerate() {
        println!(
            "  segment {}: {:.0} minutes of work",
            i + 1,
            interval * 60.0
        );
    }
    println!(
        "  expected makespan: {:.2} h ({:.1}% overhead)",
        schedule.expected_makespan,
        100.0 * schedule.expected_overhead_fraction()
    );

    // Compare simulated overhead against Young–Daly for a 4-hour job at various VM ages.
    let young_daly = YoungDalyPolicy::paper_baseline();
    let mut rng = StdRng::seed_from_u64(7);
    println!("\nsimulated % increase in running time for a 4 h job (Figure 8a):");
    println!("  start age    our policy    young-daly");
    for start in [0.0, 4.0, 8.0, 12.0] {
        let ours =
            simulate_checkpointed_job(&policy, &model, 4.0, start, 300, &mut rng).expect("sim");
        let yd =
            simulate_checkpointed_job(&young_daly, &model, 4.0, start, 300, &mut rng).expect("sim");
        println!(
            "  {:>6.1} h   {:>8.1}%     {:>8.1}%",
            start,
            100.0 * ours.mean_overhead_fraction,
            100.0 * yd.mean_overhead_fraction
        );
    }
}
