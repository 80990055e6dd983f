//! `trace` — generate and summarise synthetic preemption datasets.
//!
//! ```text
//! trace gen [--out records.csv] [--seed S] [--total N] [--figure1-min M | --per-cell K
//!            | --showcase K] [--launch-hours]
//! trace stats <records.csv> [--by vm-type|zone|time-of-day|workload]
//! ```
//!
//! `gen` draws a synthetic measurement campaign from the ground-truth catalog (the
//! stand-in for the paper's 870-VM study) and writes it as a CSV; `--per-cell K` draws a
//! balanced study with exactly `K` records in every configuration cell instead of the
//! paper's uneven layout.  `stats` prints per-group summaries using the one-pass
//! [`GroupIndex`].

use std::path::PathBuf;
use std::process::ExitCode;
use tcp_obs::cli::{next_value, parse};
use tcp_trace::stats::{GroupBy, GroupIndex};
use tcp_trace::{
    load_records_csv, save_records_csv, ConfigKey, DatasetSummary, PreemptionRecord, TraceGenerator,
};

const USAGE: &str = "usage: trace <command> [options]

commands:
  gen                      generate a synthetic preemption dataset
      --out FILE             CSV output path (default records.csv)
      --seed S               generator seed (default 2020)
      --total N              total records, paper-style uneven layout (default 870)
      --figure1-min M        minimum records in the Figure 1 cell (default 120)
      --per-cell K           balanced layout instead: K records in every cell
      --showcase K           family-showcase layout: one cell per ground-truth family
                             (exponential/weibull/phased/bathtub) with K records each,
                             plus a 5-record runt cell (empirical fallback)
      --launch-hours         record a local launch hour per VM (enables
                             `calibrate fit --tod-hours`)

  stats <records.csv>      summarise a dataset
      --by DIM               group by vm-type, zone, time-of-day or workload
                             (default: overall summary plus per-vm-type means)";

fn cmd_gen(argv: &[String]) -> Result<(), String> {
    let mut out = PathBuf::from("records.csv");
    let mut seed = 2020u64;
    let mut total = 870usize;
    let mut figure1_min = 120usize;
    let mut per_cell: Option<usize> = None;
    let mut showcase: Option<usize> = None;
    let mut launch_hours = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = PathBuf::from(next_value(&mut it, arg)?),
            "--seed" => seed = parse(next_value(&mut it, arg)?, arg)?,
            "--total" => total = parse(next_value(&mut it, arg)?, arg)?,
            "--figure1-min" => figure1_min = parse(next_value(&mut it, arg)?, arg)?,
            "--per-cell" => per_cell = Some(parse(next_value(&mut it, arg)?, arg)?),
            "--showcase" => showcase = Some(parse(next_value(&mut it, arg)?, arg)?),
            "--launch-hours" => launch_hours = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if per_cell.is_some() && showcase.is_some() {
        return Err("--per-cell and --showcase are mutually exclusive".to_string());
    }
    let mut generator = TraceGenerator::new(seed).with_launch_hours(launch_hours);
    let records: Vec<PreemptionRecord> = match (per_cell, showcase) {
        (Some(k), None) => {
            if k == 0 {
                return Err("--per-cell must be positive".to_string());
            }
            let mut records = Vec::new();
            for key in ConfigKey::all() {
                records.extend(generator.generate_for(key, k).map_err(|e| e.to_string())?);
            }
            records
        }
        (None, Some(k)) => generator
            .generate_family_showcase(k)
            .map_err(|e| e.to_string())?,
        _ => generator
            .generate_study(total, figure1_min)
            .map_err(|e| e.to_string())?,
    };
    save_records_csv(&out, &records).map_err(|e| e.to_string())?;
    println!(
        "generated {} records (seed {seed}) -> {}",
        records.len(),
        out.display()
    );
    Ok(())
}

fn cmd_stats(argv: &[String]) -> Result<(), String> {
    let mut csv_path: Option<PathBuf> = None;
    let mut by: Option<GroupBy> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--by" => {
                by = Some(match next_value(&mut it, arg)?.as_str() {
                    "vm-type" => GroupBy::VmType,
                    "zone" => GroupBy::Zone,
                    "time-of-day" => GroupBy::TimeOfDay,
                    "workload" => GroupBy::Workload,
                    other => {
                        return Err(format!(
                            "invalid --by value `{other}` \
                             (expected vm-type, zone, time-of-day or workload)"
                        ))
                    }
                })
            }
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            other => {
                if csv_path.is_some() {
                    return Err(format!("unexpected extra argument `{other}`"));
                }
                csv_path = Some(PathBuf::from(other));
            }
        }
    }
    let csv_path = csv_path.ok_or("stats needs a records CSV")?;
    let records = load_records_csv(&csv_path).map_err(|e| e.to_string())?;
    match by {
        Some(by) => {
            let index = GroupIndex::build(&records);
            println!(
                "{:<16} {:>7} {:>10} {:>10} {:>10}",
                "group", "records", "mean (h)", "median", "max"
            );
            for (label, lifetimes) in index.group(by) {
                let n = lifetimes.len() as f64;
                let mean = lifetimes.iter().sum::<f64>() / n;
                let median = lifetimes[lifetimes.len() / 2];
                let max = *lifetimes.last().expect("non-empty group");
                println!(
                    "{:<16} {:>7} {:>10.3} {:>10.3} {:>10.3}",
                    label,
                    lifetimes.len(),
                    mean,
                    median,
                    max
                );
            }
        }
        None => {
            let summary = DatasetSummary::compute(&records).map_err(|e| e.to_string())?;
            println!(
                "{} records: mean lifetime {:.3} h (median {:.3}), {:.1}% preempted before \
                 the deadline, {:.1}% within 3 h",
                summary.count,
                summary.lifetime.mean,
                summary.lifetime.median,
                100.0 * summary.preempted_before_deadline_fraction,
                100.0 * summary.early_phase_fraction,
            );
            for (vm, mean) in &summary.mean_lifetime_by_vm_type {
                println!("  {vm:<16} mean {mean:.3} h");
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("gen") => cmd_gen(&argv[1..]),
        Some("stats") => cmd_stats(&argv[1..]),
        Some("--help" | "-h") | None => return tcp_obs::cli::usage_error(USAGE),
        Some(other) => {
            return tcp_obs::cli::usage_error(format_args!("unknown command `{other}`\n\n{USAGE}"))
        }
    };
    tcp_obs::cli::exit_outcome(outcome)
}
