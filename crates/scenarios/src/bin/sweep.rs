//! `sweep` — run a declarative scenario sweep from the command line.
//!
//! ```text
//! sweep <spec.toml|spec.json> [--threads N] [--out-dir DIR] [--shard I/N] [--dry-run]
//!       [--quiet] [--heartbeat SECS]
//! sweep merge <shard.json>... [--out-dir DIR] [--quiet]
//! ```
//!
//! Loads the spec, expands the grid, runs every `scenario × trial` in parallel, prints a
//! human-readable summary, and writes `<name>.json` and `<name>.csv` reports into the
//! output directory.  Results are bit-identical for every `--threads` value.
//!
//! With `--shard I/N` only the scenarios with `id % N == I` run, and the report is
//! written as `<name>.shard-I-of-N.json`; `sweep merge` reassembles shard reports into
//! the exact bytes the unsharded run would have produced.
//!
//! `--heartbeat SECS` prints live progress to stderr while the sweep runs — trials
//! completed out of scheduled, the completion rate over the last interval, and the
//! median trial wall time, read from the runner's `sweep.trials.*` registry
//! counters.  `--heartbeat-json` emits each heartbeat as a structured
//! `sweep.heartbeat` event line (one sorted-key JSON object via
//! [`tcp_obs::event!`]) instead of prose, for log scrapers.  Heartbeats go to
//! stderr only; stdout and the report files are byte-identical with or without
//! either flag.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tcp_scenarios::{expand, run_sweep_on_grid, run_sweep_shard, SweepReport, SweepSpec};

const USAGE: &str = "usage: sweep <spec.toml|spec.json> [options]
       sweep merge <shard.json>... [options]

options:
  --threads N    worker threads (default 0 = all CPUs)
  --out-dir DIR  directory for the JSON/CSV reports (default sweep-results)
  --shard I/N    run only scenarios with id % N == I (merge shards with `sweep merge`)
  --dry-run      expand and list the scenario grid without running it
  --quiet        suppress the per-regime summary tables
  --heartbeat S  print trial progress to stderr every S seconds while running
  --heartbeat-json  emit heartbeats as structured JSON event lines instead of prose
  --profile-file FILE  continuously profile the sweep (97 Hz wall sampler +
                 allocation counting) and dump FILE.folded / .svg / .json
  --help         show this message";

/// Counting allocator so `--profile-file` attributes allocations to trial span
/// sites; counting stays off (one relaxed load per alloc) unless that flag
/// arms it.
#[global_allocator]
static ALLOC: tcp_obs::profile::CountingAlloc = tcp_obs::profile::CountingAlloc::new();

struct Args {
    spec_path: PathBuf,
    threads: usize,
    out_dir: PathBuf,
    shard: Option<(usize, usize)>,
    dry_run: bool,
    quiet: bool,
    heartbeat: Option<Duration>,
    heartbeat_json: bool,
    profile_file: Option<PathBuf>,
}

/// Prints live sweep progress to stderr until dropped: trials completed out of this
/// run's scheduled total, plus the median trial wall time, read from the global
/// metrics registry the runner publishes into.
struct Heartbeat {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    fn start(interval: Duration, total: u64, json: bool) -> Heartbeat {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let completed = tcp_obs::counter("sweep.trials.completed");
            let base = completed.get();
            let mut prev_done = 0u64;
            let mut prev_at = Instant::now();
            loop {
                // Sleep in short slices so drop() never blocks a full interval.
                let deadline = Instant::now() + interval;
                while Instant::now() < deadline {
                    // lint:allow(ordering-audit) stop flag polled in a sleep loop; staleness only delays exit by one slice
                    if flag.load(Ordering::Relaxed) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
                let done = completed.get().saturating_sub(base);
                // Completion rate over this interval, not the whole run: the
                // operator watches it to spot a stalling sweep.
                let trials_per_sec = tcp_obs::rate_per_sec(
                    done.saturating_sub(prev_done),
                    prev_at.elapsed().as_secs_f64(),
                );
                prev_done = done;
                prev_at = Instant::now();
                let pct = 100.0 * done as f64 / total.max(1) as f64;
                let p50_ms = tcp_obs::Registry::global()
                    .histogram_snapshot("sweep.trial.latency")
                    .map(|s| s.quantile(0.5) / 1e6)
                    .unwrap_or(0.0);
                if json {
                    tcp_obs::event!(
                        info,
                        "sweep.heartbeat",
                        done = done,
                        total = total,
                        pct = pct,
                        trials_per_sec = trials_per_sec,
                        p50_trial_ms = p50_ms,
                    );
                } else {
                    eprintln!(
                        "heartbeat: {done}/{total} trials ({pct:.1}%), \
                         {trials_per_sec:.1} trials/s, p50 trial {p50_ms:.1} ms"
                    );
                }
            }
        });
        Heartbeat {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        // lint:allow(ordering-audit) stop flag; the matching load tolerates one stale slice
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

struct MergeArgs {
    shard_paths: Vec<PathBuf>,
    out_dir: PathBuf,
    quiet: bool,
}

fn parse_shard(v: &str) -> Result<(usize, usize), String> {
    let err = || format!("invalid --shard value `{v}` (expected I/N, e.g. 0/4)");
    let (i, n) = v.split_once('/').ok_or_else(err)?;
    let i: usize = i.trim().parse().map_err(|_| err())?;
    let n: usize = n.trim().parse().map_err(|_| err())?;
    if n == 0 || i >= n {
        return Err(err());
    }
    Ok((i, n))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut spec_path: Option<PathBuf> = None;
    let mut threads = 0usize;
    let mut out_dir = PathBuf::from("sweep-results");
    let mut shard = None;
    let mut dry_run = false;
    let mut quiet = false;
    let mut heartbeat = None;
    let mut heartbeat_json = false;
    let mut profile_file = None;

    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                threads = v
                    .parse()
                    .map_err(|_| format!("invalid --threads value `{v}`"))?;
            }
            "--out-dir" => {
                out_dir = PathBuf::from(it.next().ok_or("--out-dir needs a value")?);
            }
            "--shard" => {
                shard = Some(parse_shard(it.next().ok_or("--shard needs a value")?)?);
            }
            "--dry-run" => dry_run = true,
            "--quiet" => quiet = true,
            "--heartbeat" => {
                let v = it.next().ok_or("--heartbeat needs a value (seconds)")?;
                let secs: f64 = v
                    .parse()
                    .map_err(|_| format!("invalid --heartbeat value `{v}`"))?;
                heartbeat = Some(tcp_obs::cli::positive_secs("--heartbeat", secs)?);
            }
            "--heartbeat-json" => heartbeat_json = true,
            "--profile-file" => {
                profile_file = Some(PathBuf::from(
                    it.next().ok_or("--profile-file needs a value")?,
                ));
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`\n\n{USAGE}"))
            }
            other => {
                if spec_path.is_some() {
                    return Err(format!("unexpected extra argument `{other}`\n\n{USAGE}"));
                }
                spec_path = Some(PathBuf::from(other));
            }
        }
    }
    let spec_path = spec_path.ok_or_else(|| format!("missing spec file\n\n{USAGE}"))?;
    Ok(Args {
        spec_path,
        threads,
        out_dir,
        shard,
        dry_run,
        quiet,
        heartbeat,
        heartbeat_json,
        profile_file,
    })
}

fn parse_merge_args(argv: &[String]) -> Result<MergeArgs, String> {
    let mut shard_paths = Vec::new();
    let mut out_dir = PathBuf::from("sweep-results");
    let mut quiet = false;

    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--out-dir" => {
                out_dir = PathBuf::from(it.next().ok_or("--out-dir needs a value")?);
            }
            "--quiet" => quiet = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`\n\n{USAGE}"))
            }
            other => shard_paths.push(PathBuf::from(other)),
        }
    }
    if shard_paths.is_empty() {
        return Err(format!("merge needs at least one shard report\n\n{USAGE}"));
    }
    Ok(MergeArgs {
        shard_paths,
        out_dir,
        quiet,
    })
}

fn write_reports(report: &SweepReport, out_dir: &PathBuf, quiet: bool) -> Result<(), String> {
    if !quiet {
        print!("{}", report.render_text());
    }
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let json_path = out_dir.join(format!("{}.json", report.name));
    let csv_path = out_dir.join(format!("{}.csv", report.name));
    std::fs::write(&json_path, report.to_json().map_err(|e| e.to_string())?)
        .map_err(|e| format!("cannot write {}: {e}", json_path.display()))?;
    std::fs::write(&csv_path, report.to_csv())
        .map_err(|e| format!("cannot write {}: {e}", csv_path.display()))?;
    println!("\nwrote {} and {}", json_path.display(), csv_path.display());
    Ok(())
}

/// Stops the sampler and dumps the collapsed/SVG/JSON profile triple next to
/// `path` (shared by the sharded and whole-grid paths).
fn dump_profile(path: &std::path::Path) -> Result<(), String> {
    tcp_obs::profile::disarm();
    let written = tcp_obs::profile::dump_to(path)
        .map_err(|e| format!("cannot write profile {}: {e}", path.display()))?;
    println!(
        "profiled sweep -> {} files at {}.*",
        written.len(),
        path.with_extension("").display()
    );
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let spec = SweepSpec::from_path(&args.spec_path).map_err(|e| e.to_string())?;
    let grid = expand(&spec).map_err(|e| e.to_string())?;

    println!(
        "sweep `{}`: {} scenarios ({} varying axes), {} trials each",
        spec.sweep.name,
        grid.len(),
        grid.varying_axes(),
        spec.trials()
    );
    if args.dry_run {
        for s in &grid.scenarios {
            println!("  [{:>4}] {}", s.meta.id, s.meta.label);
        }
        return Ok(());
    }
    if args.profile_file.is_some() {
        tcp_obs::profile::set_counting(true);
        tcp_obs::profile::arm(97);
    }

    if let Some((index, count)) = args.shard {
        let shard_scenarios = grid
            .scenarios
            .iter()
            .filter(|s| s.meta.id % count == index)
            .count();
        let _heartbeat = args.heartbeat.map(|secs| {
            Heartbeat::start(
                secs,
                (shard_scenarios * spec.trials()) as u64,
                args.heartbeat_json,
            )
        });
        let report =
            run_sweep_shard(&spec, &grid, index, count, args.threads).map_err(|e| e.to_string())?;
        println!(
            "shard {index}/{count}: ran {} of {} scenarios",
            report.scenarios.len(),
            grid.len()
        );
        std::fs::create_dir_all(&args.out_dir)
            .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
        let path = args
            .out_dir
            .join(format!("{}.shard-{index}-of-{count}.json", spec.sweep.name));
        std::fs::write(&path, report.to_json().map_err(|e| e.to_string())?)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {} (merge shards with `sweep merge`)", path.display());
        if let Some(profile) = &args.profile_file {
            dump_profile(profile)?;
        }
        return Ok(());
    }

    let heartbeat = args.heartbeat.map(|secs| {
        Heartbeat::start(
            secs,
            (grid.len() * spec.trials()) as u64,
            args.heartbeat_json,
        )
    });
    let report = run_sweep_on_grid(&spec, &grid, args.threads).map_err(|e| e.to_string())?;
    drop(heartbeat);
    write_reports(&report, &args.out_dir, args.quiet)?;
    if let Some(profile) = &args.profile_file {
        dump_profile(profile)?;
    }
    Ok(())
}

fn run_merge(args: &MergeArgs) -> Result<(), String> {
    let mut shards = Vec::with_capacity(args.shard_paths.len());
    for path in &args.shard_paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let report: SweepReport = serde_json::from_str(&text)
            .map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
        shards.push(report);
    }
    let merged = SweepReport::merge(&shards).map_err(|e| e.to_string())?;
    println!(
        "merged {} shards into sweep `{}` ({} scenarios)",
        shards.len(),
        merged.name,
        merged.scenario_count
    );
    write_reports(&merged, &args.out_dir, args.quiet)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().map(String::as_str) == Some("merge") {
        match parse_merge_args(&argv[1..]) {
            Ok(args) => run_merge(&args),
            Err(msg) => return tcp_obs::cli::usage_error(msg),
        }
    } else {
        match parse_args(&argv) {
            Ok(args) => run(&args),
            Err(msg) => return tcp_obs::cli::usage_error(msg),
        }
    };
    tcp_obs::cli::exit_outcome(outcome)
}
