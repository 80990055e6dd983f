//! Quickstart: generate a synthetic preemption study, fit the constrained-bathtub model,
//! and compare it against the classical failure distributions (the Figure 1 pipeline).
//!
//! Run with: `cargo run --release --example quickstart`

use constrained_preemption::dists::{ConstrainedBathtub, LifetimeDistribution};
use constrained_preemption::model::{fit_model_comparison, LifetimeModel};
use constrained_preemption::trace::{ConfigKey, TraceGenerator};

fn main() {
    // 1. "Measure" preemptions: 800 n1-highcpu-16 VMs in us-east1-b (synthetic stand-in
    //    for the paper's two-month empirical study).
    let mut generator = TraceGenerator::new(2020);
    let records = generator
        .generate_for(ConfigKey::figure1(), 800)
        .expect("trace generation");
    let lifetimes: Vec<f64> = records.iter().map(|r| r.lifetime_hours).collect();
    println!("collected {} preemption events", lifetimes.len());

    // 2. Fit every candidate distribution to the empirical CDF.
    let comparison = fit_model_comparison(&lifetimes, 24.0).expect("model fitting");
    println!("\nFigure 1 goodness of fit (higher R² is better):");
    for family in &comparison.families {
        println!(
            "  {:<22} R² = {:.4}   RMSE = {:.4}",
            family.label, family.r_squared, family.rmse
        );
    }

    // 3. Inspect the fitted bathtub model.
    let model: ConstrainedBathtub = comparison.bathtub.model;
    let p = model.params();
    println!("\nfitted constrained-bathtub parameters (Equation 1):");
    println!(
        "  A = {:.3}, tau1 = {:.3} h, tau2 = {:.3} h, b = {:.2} h",
        p.a, p.tau1, p.tau2, p.b
    );
    println!(
        "  expected VM lifetime: {:.2} h (vs 24 h maximum)",
        model.mean()
    );
    let (early_end, deadline_start) = model.phase_boundaries();
    println!("  phases: early failures until ~{early_end:.1} h, deadline spike from ~{deadline_start:.1} h");
}
