//! Regenerates the paper's figures as CSV blocks on stdout.
//!
//! Usage:
//!
//! ```text
//! figures [all|fig1|fig2|fig4|fig5|fig6|fig7|ckpt|fig8|fig9|params]
//! ```

use std::process::ExitCode;
use tcp_bench::figures;
use tcp_dists::{ConstrainedBathtub, LifetimeDistribution};

fn print_fig(fig: &figures::FigureData) {
    println!("{}", fig.to_csv());
}

fn run(which: &str) -> Result<(), String> {
    let run_all = which == "all";
    let model = figures::fitted_model(2020).map_err(|e| format!("model fit: {e}"))?;

    if run_all || which == "params" {
        let p = model.params();
        println!("# fitted model parameters (Section 3.2.2)");
        println!("A,tau1,tau2,b,horizon,expected_lifetime_hours");
        println!(
            "{:.4},{:.4},{:.4},{:.4},{:.1},{:.3}\n",
            p.a,
            p.tau1,
            p.tau2,
            p.b,
            p.horizon,
            model.mean()
        );
    }
    if run_all || which == "fig1" {
        let (fig, cmp) = figures::figure1(2020, 60).map_err(|e| format!("fig1: {e}"))?;
        print_fig(&fig);
        println!("# fig1 goodness of fit");
        println!("family,r_squared,rmse");
        for f in &cmp.families {
            println!("{},{:.5},{:.5}", f.label, f.r_squared, f.rmse);
        }
        println!();
    }
    if run_all || which == "fig2" {
        for fig in figures::figure2(2021, 300, 60).map_err(|e| format!("fig2: {e}"))? {
            print_fig(&fig);
        }
    }
    if run_all || which == "fig4" {
        let (a, b, analysis) = figures::figure4(&model, 48).map_err(|e| format!("fig4: {e}"))?;
        print_fig(&a);
        print_fig(&b);
        println!("# fig4 derived");
        println!(
            "crossover_job_len_hours,max_uniform_to_bathtub_ratio\n{:.3},{:.2}\n",
            analysis.crossover_job_len.unwrap_or(f64::NAN),
            analysis.max_uniform_to_bathtub_ratio
        );
    }
    if run_all || which == "fig5" {
        print_fig(&figures::figure5(&model, 6.0, 48));
    }
    if run_all || which == "fig6" {
        print_fig(&figures::figure6(&model, 24).map_err(|e| format!("fig6: {e}"))?);
    }
    if run_all || which == "fig7" {
        let suboptimal = ConstrainedBathtub::from_parts(0.49, 0.55, 0.9, 23.2)
            .map_err(|e| format!("suboptimal model: {e}"))?;
        print_fig(&figures::figure7(&model, &suboptimal, 24).map_err(|e| format!("fig7: {e}"))?);
    }
    if run_all || which == "ckpt" {
        print_fig(&figures::checkpoint_schedule_example(&model).map_err(|e| format!("ckpt: {e}"))?);
    }
    if run_all || which == "fig8" {
        print_fig(&figures::figure8a(&model, 200).map_err(|e| format!("fig8a: {e}"))?);
        print_fig(&figures::figure8b(&model, 200).map_err(|e| format!("fig8b: {e}"))?);
    }
    if run_all || which == "fig9" {
        print_fig(&figures::figure9a(&model, 100, 32).map_err(|e| format!("fig9a: {e}"))?);
        print_fig(&figures::figure9b(&model, 100, 32, 10).map_err(|e| format!("fig9b: {e}"))?);
    }
    Ok(())
}

const SELECTORS: [&str; 11] = [
    "all", "params", "fig1", "fig2", "fig4", "fig5", "fig6", "fig7", "ckpt", "fig8", "fig9",
];

fn main() -> ExitCode {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    if !SELECTORS.contains(&which.as_str()) {
        return tcp_obs::cli::usage_error(format_args!(
            "unknown figure `{which}`\n\nusage: figures [{}]",
            SELECTORS.join("|")
        ));
    }
    tcp_obs::cli::exit_outcome(run(&which))
}
