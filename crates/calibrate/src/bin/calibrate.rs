//! `calibrate` — fit, inspect and compare trace-calibrated regime catalogs.
//!
//! ```text
//! calibrate fit <records.csv> [--out catalog.json] [--name N] [--threads T]
//!               [--min-records K] [--ks-threshold X]
//! calibrate inspect <catalog.json> [--cell KEY]
//! calibrate compare <a.json> <b.json>
//! ```
//!
//! `fit` partitions the CSV into `(vm-type, zone, time-of-day)` cells and fits every
//! candidate family per cell, emitting a catalog that is byte-identical for every
//! `--threads` value.  `--threads` sets the fit's threads only: parsing a large CSV and
//! encoding a large catalog split their work over the available CPUs regardless.
//! `inspect` prints the per-cell selection table (or one cell's full candidate scores).
//! `compare` diffs two catalogs cell by cell.

use std::path::PathBuf;
use std::process::ExitCode;
use tcp_calibrate::{Calibrator, FitOptions, RegimeCatalog};
use tcp_obs::cli::{next_value, parse};

/// Counting allocator so `fit --profile-file` attributes allocations to the
/// pipeline's span sites; counting stays off (one relaxed load per alloc)
/// unless that flag arms it.
#[global_allocator]
static ALLOC: tcp_obs::profile::CountingAlloc = tcp_obs::profile::CountingAlloc::new();

const USAGE: &str = "usage: calibrate <command> [options]

commands:
  fit <records.csv>        calibrate a preemption CSV into a regime catalog
      --out FILE             catalog output path (default catalog.json)
      --name N               catalog name (default: the CSV file stem)
      --threads T            threads of the per-cell fit (default 0 = all CPUs); reading
                             the CSV and writing the catalog use every available CPU
      --min-records K        cells below K records keep the empirical fallback (default 15)
      --ks-threshold X       parametric winners above this K-S keep the fallback (default 0.15)
      --tod-hours N          launch-hour cells of N hours (divides 24) instead of the
                             day/night split; needs a CSV with a launch_hour column
      --profile-file FILE    continuously profile the fit (97 Hz wall sampler +
                             allocation counting) and dump FILE.folded / .svg / .json

  inspect <catalog.json>   print the per-cell selection table
      --cell KEY             print one cell's full candidate scores instead
                             (vm-type/zone/time-of-day, or `pooled`)

  compare <a.json> <b.json>  diff two catalogs cell by cell, with a two-sample
                             Kolmogorov-Smirnov drift test per shared cell
      --alpha A              K-S significance level for the drift threshold (default 0.05)
      --ks-threshold X       fixed drift threshold overriding the alpha-derived one
      --fail-on-drift        exit non-zero when any shared cell drifts";

fn positional(slot: &mut Option<PathBuf>, value: &str) -> Result<(), String> {
    if slot.is_some() {
        return Err(format!("unexpected extra argument `{value}`"));
    }
    *slot = Some(PathBuf::from(value));
    Ok(())
}

fn cmd_fit(argv: &[String]) -> Result<(), String> {
    let mut csv_path: Option<PathBuf> = None;
    let mut out = PathBuf::from("catalog.json");
    let mut name: Option<String> = None;
    let mut threads = 0usize;
    let mut options = FitOptions::default();
    let mut profile_file: Option<PathBuf> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = PathBuf::from(next_value(&mut it, arg)?),
            "--name" => name = Some(next_value(&mut it, arg)?.clone()),
            "--threads" => threads = parse(next_value(&mut it, arg)?, arg)?,
            "--min-records" => options.min_records = parse(next_value(&mut it, arg)?, arg)?,
            "--ks-threshold" => options.ks_threshold = parse(next_value(&mut it, arg)?, arg)?,
            "--tod-hours" => options.tod_hours = Some(parse(next_value(&mut it, arg)?, arg)?),
            "--profile-file" => profile_file = Some(PathBuf::from(next_value(&mut it, arg)?)),
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            other => positional(&mut csv_path, other)?,
        }
    }
    let csv_path = csv_path.ok_or("fit needs a records CSV")?;
    if profile_file.is_some() {
        tcp_obs::profile::set_counting(true);
        tcp_obs::profile::arm(97);
    }
    let name = name.unwrap_or_else(|| {
        csv_path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "catalog".to_string())
    });
    let calibrator = Calibrator { name, options };
    let started = std::time::Instant::now();
    let catalog = calibrator
        .calibrate_csv(&csv_path, threads)
        .map_err(|e| e.to_string())?;
    let bytes = catalog.save(&out).map_err(|e| e.to_string())?;
    let parametric = catalog
        .cells
        .iter()
        .filter(|c| c.model.family != "empirical")
        .count();
    println!(
        "calibrated `{}`: {} records -> {} cells ({} parametric, {} empirical), \
         pooled winner {}, {} bytes, {:.2}s -> {}",
        catalog.name,
        catalog.total_records,
        catalog.cells.len(),
        parametric,
        catalog.cells.len() - parametric,
        catalog.pooled.model.family,
        bytes,
        started.elapsed().as_secs_f64(),
        out.display()
    );
    // The stdout line above is the human report; this is the same summary as one
    // structured stderr event line for log scrapers (stdout stays untouched).
    tcp_obs::event!(
        info,
        "calibrate.fit.done",
        catalog = catalog.name.clone(),
        records = catalog.total_records,
        cells = catalog.cells.len(),
        parametric = parametric,
        pooled_winner = catalog.pooled.model.family.clone(),
        elapsed_secs = started.elapsed().as_secs_f64(),
    );
    if let Some(path) = &profile_file {
        tcp_obs::profile::disarm();
        let written = tcp_obs::profile::dump_to(path)
            .map_err(|e| format!("cannot write profile {}: {e}", path.display()))?;
        println!(
            "profiled fit -> {} files at {}.*",
            written.len(),
            path.with_extension("").display()
        );
    }
    Ok(())
}

fn load(path: &std::path::Path) -> Result<RegimeCatalog, String> {
    RegimeCatalog::load(path).map_err(|e| e.to_string())
}

fn print_cell_detail(fit: &tcp_calibrate::CellFit) {
    println!(
        "cell {}: {} records ({} deadline survivals), mean lifetime {:.3} h",
        fit.cell, fit.records, fit.deadline_survivals, fit.mean_lifetime_hours
    );
    println!("selection: {}", fit.selection);
    // lint:allow(json-stability) human-readable cell detail on stdout, not wire JSON
    println!("model: {} params {:?}", fit.model.family, fit.model.params);
    if fit.candidates.is_empty() {
        println!("candidates: none (cell too small for parametric fits)");
        return;
    }
    println!(
        "{:<14} {:>8} {:>12} {:>12} {:>8} {:>8}",
        "family", "K-S", "log-lik", "AIC", "r2", "rmse"
    );
    for c in &fit.candidates {
        println!(
            "{:<14} {:>8.4} {:>12.2} {:>12.2} {:>8.4} {:>8.4}",
            c.family, c.ks_statistic, c.log_likelihood, c.aic, c.r_squared, c.rmse
        );
    }
}

fn cmd_inspect(argv: &[String]) -> Result<(), String> {
    let mut catalog_path: Option<PathBuf> = None;
    let mut cell: Option<String> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cell" => cell = Some(next_value(&mut it, arg)?.clone()),
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            other => positional(&mut catalog_path, other)?,
        }
    }
    let catalog = load(&catalog_path.ok_or("inspect needs a catalog file")?)?;
    match cell {
        Some(cell) => {
            let fit = catalog
                .find(&cell)
                .ok_or_else(|| format!("catalog has no cell `{cell}`"))?;
            print_cell_detail(fit);
        }
        None => {
            println!(
                "catalog `{}` from {}: {} records, horizon {} h",
                catalog.name, catalog.source, catalog.total_records, catalog.horizon_hours
            );
            println!(
                "{:<36} {:>7} {:>10} {:>12} {:>8}",
                "cell", "records", "mean (h)", "model", "K-S"
            );
            for fit in std::iter::once(&catalog.pooled).chain(&catalog.cells) {
                let ks = fit
                    .candidates
                    .iter()
                    .find(|c| c.family == fit.model.family)
                    .map(|c| format!("{:.4}", c.ks_statistic))
                    .unwrap_or_else(|| "-".to_string());
                println!(
                    "{:<36} {:>7} {:>10.3} {:>12} {:>8}",
                    fit.cell, fit.records, fit.mean_lifetime_hours, fit.model.family, ks
                );
            }
        }
    }
    Ok(())
}

fn cmd_compare(argv: &[String]) -> Result<(), String> {
    let mut a_path: Option<PathBuf> = None;
    let mut b_path: Option<PathBuf> = None;
    let mut options = tcp_calibrate::DriftOptions::default();
    let mut fail_on_drift = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--alpha" => options.alpha = parse(next_value(&mut it, arg)?, arg)?,
            "--ks-threshold" => {
                options.fixed_threshold = Some(parse(next_value(&mut it, arg)?, arg)?)
            }
            "--fail-on-drift" => fail_on_drift = true,
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            other => {
                if a_path.is_none() {
                    a_path = Some(PathBuf::from(other));
                } else {
                    positional(&mut b_path, other)?;
                }
            }
        }
    }
    let a = load(&a_path.ok_or("compare needs two catalog files")?)?;
    let b = load(&b_path.ok_or("compare needs two catalog files")?)?;
    println!(
        "comparing `{}` ({} records) with `{}` ({} records)",
        a.name, a.total_records, b.name, b.total_records
    );
    let drift = tcp_calibrate::drift_report(&a, &b, &options).map_err(|e| e.to_string())?;
    let mut differing = 0usize;
    for fit_a in std::iter::once(&a.pooled).chain(&a.cells) {
        match b.find(&fit_a.cell) {
            None => {
                differing += 1;
                println!("  {}: only in `{}`", fit_a.cell, a.name);
            }
            Some(fit_b) => {
                let mean_delta = fit_b.mean_lifetime_hours - fit_a.mean_lifetime_hours;
                if fit_a.model.family != fit_b.model.family {
                    differing += 1;
                    println!(
                        "  {}: winner {} -> {} (mean lifetime {:+.3} h)",
                        fit_a.cell, fit_a.model.family, fit_b.model.family, mean_delta
                    );
                } else if mean_delta.abs() > 0.5 {
                    differing += 1;
                    println!(
                        "  {}: same winner {}, mean lifetime {:+.3} h",
                        fit_a.cell, fit_a.model.family, mean_delta
                    );
                }
            }
        }
    }
    for fit_b in &b.cells {
        if a.find(&fit_b.cell).is_none() {
            differing += 1;
            println!("  {}: only in `{}`", fit_b.cell, b.name);
        }
    }
    if differing == 0 {
        println!("  catalogs agree on every cell");
    } else {
        println!("  {differing} cell(s) differ");
    }
    println!(
        "drift (two-sample K-S, {}):",
        match options.fixed_threshold {
            Some(t) => format!("fixed threshold {t:.4}"),
            None => format!("alpha {:.3}", options.alpha),
        }
    );
    let mut drifted = 0usize;
    for cell in &drift {
        if cell.drifted {
            drifted += 1;
            // Drifted cells also go out as structured warn events: they are the
            // actionable signal (recalibrate this cell), and the warn level lands
            // them in the event log's recent-errors ring.
            tcp_obs::event!(
                warn,
                "calibrate.drift",
                cell = cell.cell.clone(),
                ks_statistic = cell.ks_statistic,
                threshold = cell.threshold,
                records_a = cell.records_a,
                records_b = cell.records_b,
            );
        }
        println!(
            "  {:<36} D {:.4} vs {:.4} ({} vs {} records): {}",
            cell.cell,
            cell.ks_statistic,
            cell.threshold,
            cell.records_a,
            cell.records_b,
            if cell.drifted { "DRIFT" } else { "pass" }
        );
    }
    println!("  {} of {} shared cell(s) drifted", drifted, drift.len());
    if fail_on_drift && drifted > 0 {
        return Err(format!("{drifted} cell(s) drifted"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("fit") => cmd_fit(&argv[1..]),
        Some("inspect") => cmd_inspect(&argv[1..]),
        Some("compare") => cmd_compare(&argv[1..]),
        Some("--help" | "-h") | None => return tcp_obs::cli::usage_error(USAGE),
        Some(other) => {
            return tcp_obs::cli::usage_error(format_args!("unknown command `{other}`\n\n{USAGE}"))
        }
    };
    tcp_obs::cli::exit_outcome(outcome)
}
