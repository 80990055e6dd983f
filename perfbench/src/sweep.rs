//! The `sweep` workload: the paper-figures scenario grid (3 regimes × 2 scheduling
//! × 3 checkpointing policies) at 200 trials per scenario, run by `run_sweep` on
//! one thread.  One operation is one trial.

use crate::check::{digest, Checks};
use crate::host::HostClock;
use crate::metrics::{self, finish_traced, median, Allocs, Outcome, Round, Rounds, Values};
use crate::spans::Tracer;
use crate::Ctx;
use std::time::Instant;
use tcp_scenarios::{expand, run_sweep, run_sweep_shard, SweepReport, SweepSpec};

/// Monte-Carlo trials per scenario.
const TRIALS: usize = 200;
/// Set-up repetitions (`setup_s` is their median).
const SETUP_REPS: usize = 25;
/// Set-ups per repetition: one takes about 0.1 ms, too short to time alone against
/// host noise, so a repetition times this many back to back and divides.
const SETUPS_PER_REP: usize = 20;
/// Fewest timed rounds of an untraced run.
const MIN_ROUNDS: usize = 20;

const SPEC: &str = include_str!("../inputs/paper_figures.toml");

/// The checkpointing policies of the grid, with the span and metric of each.
const CHECKPOINTING: [(&str, &str, &str); 3] = [
    ("none", "sweep.scenario.none", "sweep.scenario_ms.none"),
    (
        "model-driven",
        "sweep.scenario.model-driven",
        "sweep.scenario_ms.model-driven",
    ),
    (
        "young-daly",
        "sweep.scenario.young-daly",
        "sweep.scenario_ms.young-daly",
    ),
];

fn load_spec(trials: Option<usize>, seed: Option<u64>) -> Result<SweepSpec, String> {
    let mut spec = SweepSpec::from_toml(SPEC).map_err(|e| e.to_string())?;
    if trials.is_some() {
        spec.sweep.trials = trials;
    }
    if seed.is_some() {
        spec.sweep.base_seed = seed;
    }
    Ok(spec)
}

fn to_json(report: &SweepReport) -> Result<String, String> {
    report.to_json().map_err(|e| e.to_string())
}

/// Runs the `sweep` workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut clock = HostClock::start();
    let mut setups = Vec::new();
    let mut expand_s = Vec::new();
    let mut spec_grid = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let mut expand_raw = 0.0;
        for _ in 0..SETUPS_PER_REP {
            let spec = load_spec(Some(TRIALS), Some(ctx.seed))?;
            let t = Instant::now();
            let grid = expand(&spec).map_err(|e| e.to_string())?;
            expand_raw += t.elapsed().as_secs_f64();
            spec_grid = Some((spec, grid));
        }
        let raw = started.elapsed().as_secs_f64();
        let factor = clock.factor() / SETUPS_PER_REP as f64;
        setups.push(raw * factor);
        expand_s.push(expand_raw * factor);
    }
    let (spec, grid) = spec_grid.ok_or("no set-up ran")?;
    let mut e2e = Values::new();
    let mut layers = Values::new();
    e2e.insert("setup_s", median(&setups));
    layers.insert("scenarios.expand_s", median(&expand_s));
    let trials_per_round = (grid.scenarios.len() * TRIALS) as u64;

    // Golden probe: the spec exactly as pinned (its own trials and base seed).
    let mut checks = Checks::default();
    let golden_spec = load_spec(None, None)?;
    let golden = run_sweep(&golden_spec, 1).map_err(|e| e.to_string())?;
    checks.golden(
        &ctx.expected,
        "sweep.report",
        to_json(&golden)?.as_bytes(),
        (golden.scenario_count * golden.trials) as u64,
    );

    // The first sweep is the warm-up and the reference the timed rounds must repeat.
    let reference = to_json(&run_sweep(&spec, 1).map_err(|e| e.to_string())?)?;
    checks.record("sweep.run-report", digest(reference.as_bytes()));
    let failed = |report: &SweepReport| -> Result<u64, String> {
        let complete = report.scenarios.len() == grid.scenarios.len()
            && report.scenarios.iter().all(|s| s.trials == TRIALS);
        Ok(if complete && to_json(report)? == reference {
            0
        } else {
            trials_per_round
        })
    };

    let budget = if ctx.trace {
        ctx.budget / 2
    } else {
        ctx.budget
    };
    let mut first_allocs = None;
    let untraced = Rounds::run(budget, MIN_ROUNDS, &mut clock, &mut checks, |_| {
        let before = Allocs::now();
        let started = Instant::now();
        let report = run_sweep(&spec, 1).map_err(|e| e.to_string())?;
        let seconds = started.elapsed().as_secs_f64();
        first_allocs.get_or_insert(Allocs::since(before));
        Ok(Round {
            ops: trials_per_round,
            attempted: trials_per_round,
            samples: vec![seconds],
            failed: failed(&report)?,
        })
    })?;
    let allocs = first_allocs.unwrap_or_default();
    untraced.report(&mut e2e);
    e2e.insert(
        "allocs_per_op",
        allocs.calls as f64 / trials_per_round as f64,
    );
    e2e.insert(
        "alloc_bytes_per_op",
        allocs.bytes as f64 / trials_per_round as f64,
    );
    e2e.insert("peak_mem_mb", metrics::peak_mem_mb());
    eprintln!("perfbench: {}; {}", untraced.describe(), clock.describe());
    if !ctx.trace {
        return Ok(Outcome {
            checks,
            e2e,
            layers,
            tracer: None,
        });
    }

    // Traced rounds: one shard per scenario, so each scenario is its own span; the
    // merged shards must equal the unsharded report.
    let mut tracer = Tracer::new();
    let count = grid.scenarios.len();
    let traced = Rounds::run(budget, 1, &mut clock, &mut checks, |n| {
        tracer.enter("sweep.round", n as u64);
        let started = Instant::now();
        let mut shards = Vec::with_capacity(count);
        for (index, scenario) in grid.scenarios.iter().enumerate() {
            let span = CHECKPOINTING
                .iter()
                .find(|(policy, _, _)| *policy == scenario.meta.checkpointing)
                .map_or("sweep.scenario.other", |(_, span, _)| *span);
            let shard = tracer.span(span, index as u64, || {
                run_sweep_shard(&spec, &grid, index, count, 1)
            });
            shards.push(shard.map_err(|e| e.to_string())?);
        }
        let merged = tracer.span("sweep.merge", n as u64, || SweepReport::merge(&shards));
        let seconds = started.elapsed().as_secs_f64();
        let merged = merged.map_err(|e| e.to_string())?;
        let json = tracer.span("sweep.report_encode", n as u64, || to_json(&merged))?;
        tracer.exit();
        Ok(Round {
            ops: trials_per_round,
            attempted: trials_per_round,
            samples: vec![seconds],
            failed: if json == reference {
                0
            } else {
                trials_per_round
            },
        })
    })?;
    let factor = median(&traced.factors);
    for (_, span, metric) in CHECKPOINTING {
        let t = tracer.total(span);
        layers.insert(
            metric,
            t.total_ns as f64 / 1e6 * factor / t.count.max(1) as f64,
        );
    }
    let encode = tracer.total("sweep.report_encode");
    layers.insert(
        "sweep.report_encode_s",
        encode.total_ns as f64 / 1e9 * factor / encode.count.max(1) as f64,
    );
    finish_traced(&mut layers, &clock, &untraced, &traced);
    Ok(Outcome {
        checks,
        e2e,
        layers,
        tracer: Some(tracer),
    })
}
