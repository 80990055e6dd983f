//! `perfbench` — the repository's benchmark.
//!
//! One binary runs three named workloads against the repository's crates, from the
//! outside: every number is taken by timing calls into each crate's public API.
//!
//! ```text
//! perfbench --workload <serve-cells|refresh|sweep> --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.  With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the per-layer
//! ones (and the traced run also writes a Chrome trace-event file and a per-layer
//! summary under `--out-dir`).  Any output mismatch makes the run exit non-zero.
//! See `README.md` beside this crate for the workloads, metrics and method.

#![forbid(unsafe_code)]

mod check;
mod host;
mod metrics;
mod refresh;
mod serve;
mod spans;
mod sweep;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

// Allocation counting for `allocs_per_op`, `alloc_bytes_per_op` and `peak_mem_mb`.
#[global_allocator]
static ALLOC: tcp_obs::profile::CountingAlloc = tcp_obs::profile::CountingAlloc::new();

const USAGE: &str = "usage: perfbench --workload <serve-cells|refresh|sweep> \
--seed N --seconds S --trace 0|1 [--expected FILE] [--out-dir DIR]";

/// Everything a workload needs from the command line.
pub struct Ctx {
    /// Workload seed: the only source of the generated inputs.
    pub seed: u64,
    /// How long the timed part of the run measures.
    pub budget: Duration,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Expected digests of the fixed-seed golden outputs.
    pub expected: check::Expected,
}

struct Args {
    workload: String,
    ctx: Ctx,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut expected_path: Option<PathBuf> = None;
    let mut out_dir = PathBuf::from(".perfbench-out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                })
            }
            "--expected" => expected_path = Some(PathBuf::from(value()?)),
            "--out-dir" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let expected = match &expected_path {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            check::Expected::parse(&text)?
        }
        None => check::Expected::builtin()?,
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        ctx: Ctx {
            seed: seed.ok_or("--seed is required")?,
            budget: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
            trace: trace.ok_or("--trace is required")?,
            expected,
        },
        out_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    tcp_obs::profile::set_counting(true);
    let ctx = &args.ctx;
    let outcome = match args.workload.as_str() {
        "serve-cells" => serve::run_cells(ctx),
        "refresh" => refresh::run(ctx),
        "sweep" => sweep::run(ctx),
        other => {
            eprintln!("perfbench: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for (key, digest) in &outcome.checks.digests {
        println!("digest {key} {digest}");
    }
    if let Some(tracer) = &outcome.tracer {
        let stem = format!("{}-seed{}", args.workload, ctx.seed);
        match spans::write_files(tracer, &outcome.layers, &args.out_dir, &stem) {
            Ok(paths) => {
                for path in paths {
                    eprintln!("perfbench: wrote {}", path.display());
                }
            }
            Err(e) => {
                eprintln!("perfbench: cannot write trace files: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let shown = if ctx.trace {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    let line = match metrics::result_line(&outcome.checks, shown, ctx.trace) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "perfbench: {} seed {}: attempted {} failed {}",
        args.workload, ctx.seed, outcome.checks.attempted, outcome.checks.failed
    );
    println!("{line}");
    if outcome.checks.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
