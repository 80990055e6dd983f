//! `advise` — build, serve and network-serve preemption-advisory model packs.
//!
//! ```text
//! advise build <spec.toml|spec.json> --out pack.json [resolution knobs]
//! advise build --per-cell --catalog catalog.json --out multi.json [knobs]
//! advise gen   --pack pack.json --count N [--seed S] [--out requests.ndjson]
//! advise serve --pack pack.json --input requests.ndjson [--output FILE] [--threads N]
//! advise listen --pack pack.json [--addr HOST:PORT] [--workers N] [--max-inflight M]
//! advise connect --addr HOST:PORT [--input FILE] [--send LINE]... [--output FILE]
//! advise top   --addr HOST:PORT [--interval S] [--once]
//! ```
//!
//! `build` precomputes the tables offline — from a sweep spec (single pack) or, with
//! `--per-cell`, from a `calibrate fit` regime catalog; `serve` answers an NDJSON
//! request stream from a file with byte-identical output for every `--threads` value;
//! `listen` serves the same protocol over TCP through a fixed worker pool with a
//! bounded in-flight budget (overloads get typed 503-style lines, `!reload <path>`
//! hot-swaps packs, `!stats` / `!metrics` / `!trace` / `!health` / `!profile`
//! answer health probes, `!shutdown` drains and exits, `--metrics-file` writes a
//! periodic Prometheus text exposition, `--trace-file` dumps the flight recorder as
//! Chrome trace JSON, `--profile-file` arms the continuous profiler and dumps
//! collapsed stacks + a flamegraph SVG + JSON at drain, and `--slo` arms the
//! rolling-window SLO evaluator with `--alert-log` appending firing/resolved
//! transitions as JSON lines); `connect` is the matching one-connection client;
//! `top` is a live terminal dashboard polling `!metrics` / `!health` / `!profile`
//! (`--once` for a single machine-readable snapshot); `gen` emits a
//! deterministic load.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The counting allocator (off by default: one relaxed load per allocator
/// call) backs `listen --profile-file`'s allocation attribution.
#[global_allocator]
static ALLOC: tcp_obs::profile::CountingAlloc = tcp_obs::profile::CountingAlloc::new();
use std::time::Instant;
use tcp_advisor::{
    generate_multi_requests, generate_requests, requests_to_ndjson, AdvisorHandle, ModelPack,
    MultiAdvisor, MultiPack, PackBuilder, Session,
};
use tcp_calibrate::RegimeCatalog;
use tcp_obs::cli::{next_value, parse};
use tcp_obs::Periodic;
use tcp_policy::CheckpointConfig;
use tcp_scenarios::SweepSpec;
use tcp_serve::{run_client, run_top, ServeOptions, Server, TopOptions};

const USAGE: &str = "usage: advise <command> [options]

commands:
  build <spec.toml|spec.json>  precompute a model pack from a sweep spec
      --out FILE                 pack output path (default pack.json)
      --age-points N             age-grid resolution (default 1441, one knot per minute)
      --checkpoint-age-points N  DP age-grid resolution (default 9)
      --checkpoint-job-points N  DP job-grid resolution (default 10)
      --max-checkpoint-job H     largest DP job length, hours (default 8)
      --per-cell                 build a per-cell multi-pack from a regime catalog
      --catalog FILE             `calibrate fit` catalog (required with --per-cell)
      --checkpoint-cost M        checkpoint cost axis, minutes (repeatable; default 1)
      --dp-step M                DP step, minutes (default 5)
      --threads T                worker threads for --per-cell builds (default 0)

  gen                          generate a deterministic NDJSON request load
      --pack FILE                model pack (required)
      --count N                  number of requests (default 10000)
      --seed S                   generator seed (default 2020)
      --cells                    spread requests over a multi-pack's cells (each
                                 request carries the `cell` routing field), so the
                                 load exercises every cell's winner-family tables
      --out FILE                 output path (default stdout)

  serve                        answer an NDJSON request stream from a file
      --pack FILE                model pack (required)
      --input FILE               NDJSON requests (required)
      --output FILE              NDJSON responses (default stdout)
      --threads N                worker threads (default 0 = all CPUs)

  listen                       serve the NDJSON protocol over TCP
      --pack FILE                model pack (required)
      --addr HOST:PORT           bind address (default 127.0.0.1:0 = free port)
      --workers N                connection worker pool size (default 4)
      --max-inflight M           in-flight request budget; beyond it requests get
                                 typed 503-style overload lines (default 4096)
      --max-batch K              largest per-connection batch (default 256)
      --max-pending P            most connections waiting for a worker (default 1024)
      --port-file FILE           write the bound address here once listening
                                 (atomically, via rename; a stale one is removed
                                 at startup, before anything can fail)
      --metrics-file FILE        write a Prometheus text exposition here periodically
                                 (atomically, via rename; final write after drain;
                                 exits 1 if the first write fails, later failures
                                 log a `serve.metrics.write_failed` warning)
      --metrics-interval S       seconds between exposition writes (default 5)
      --no-metrics               disable latency recording (histograms/span timers;
                                 counters keep serving `!stats`)
      --trace-file FILE          write a Chrome trace-event JSON dump of the flight
                                 recorder here at shutdown (atomically, via rename;
                                 a failed write logs `serve.trace.dump_failed`);
                                 load it in chrome://tracing or Perfetto
      --trace-sample R           deterministic trace sampling rate as `1/N` or `N`
                                 (0 = off; default 1 = every request when
                                 --trace-file is given, else 0)
      --trace-slow-us T          force-retain any request slower than T microseconds
                                 with its full span subtree, regardless of sampling
                                 (default 0 = off)
      --slo FILE                 arm the rolling-window SLO evaluator with the
                                 declarative rules in FILE (TOML or JSON; see
                                 examples/serve/slo.toml).  !health then reports the
                                 verdict and per-rule burn-rate states
      --alert-log FILE           append each alert transition (firing/resolved) as
                                 one sorted-key JSON line (requires --slo)
      --profile-file FILE        arm the continuous profiler (wall-clock span-stack
                                 sampler + allocation counting) and, at drain, dump
                                 FILE's basename with .folded (collapsed stacks),
                                 .svg (standalone flamegraph) and .json extensions,
                                 each atomically via rename
      --profile-hz N             wall-clock sampling rate while armed (default 97,
                                 clamped to 1..=10000; requires --profile-file)

  connect                      send request/control lines over one TCP connection
      --addr HOST:PORT           server address (required)
      --input FILE               NDJSON document to send (optional)
      --send LINE                extra line to send after --input (repeatable)
      --output FILE              response output path (default stdout)

  top                          live terminal dashboard for a running server:
                               polls !metrics prom + !health + !profile and renders
                               windowed qps/p50/p99/shed%/verdict/alerts plus a
                               hot-sites wall-profile panel (plain ANSI)
      --addr HOST:PORT           server address (required)
      --interval S               seconds between polls = the rate/quantile window
                                 (default 2)
      --once                     take two samples one interval apart, print one
                                 machine-readable JSON snapshot line, exit";

fn load_advisor(pack_path: &Option<PathBuf>) -> Result<MultiAdvisor, String> {
    let path = pack_path.as_ref().ok_or("--pack is required")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    MultiAdvisor::from_json(&text).map_err(|e| e.to_string())
}

fn cmd_build(argv: &[String]) -> Result<(), String> {
    let mut spec_path: Option<PathBuf> = None;
    let mut catalog_path: Option<PathBuf> = None;
    let mut per_cell = false;
    let mut out = PathBuf::from("pack.json");
    let mut builder = PackBuilder::default();
    let mut checkpoint_costs: Vec<f64> = Vec::new();
    let mut dp_step_minutes = CheckpointConfig::DEFAULT_DP_STEP_MINUTES;
    let mut threads = 0usize;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = PathBuf::from(next_value(&mut it, "--out")?),
            "--age-points" => builder.age_points = parse(next_value(&mut it, arg)?, arg)?,
            "--checkpoint-age-points" => {
                builder.checkpoint_age_points = parse(next_value(&mut it, arg)?, arg)?
            }
            "--checkpoint-job-points" => {
                builder.checkpoint_job_points = parse(next_value(&mut it, arg)?, arg)?
            }
            "--max-checkpoint-job" => {
                builder.max_checkpoint_job_hours = parse(next_value(&mut it, arg)?, arg)?
            }
            "--per-cell" => per_cell = true,
            "--catalog" => catalog_path = Some(PathBuf::from(next_value(&mut it, arg)?)),
            "--checkpoint-cost" => checkpoint_costs.push(parse(next_value(&mut it, arg)?, arg)?),
            "--dp-step" => dp_step_minutes = parse(next_value(&mut it, arg)?, arg)?,
            "--threads" => threads = parse(next_value(&mut it, arg)?, arg)?,
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            other => {
                if spec_path.is_some() {
                    return Err(format!("unexpected extra argument `{other}`"));
                }
                spec_path = Some(PathBuf::from(other));
            }
        }
    }
    let started = Instant::now();
    if per_cell {
        let catalog_path = catalog_path.ok_or("--per-cell needs --catalog <catalog.json>")?;
        if spec_path.is_some() {
            return Err("--per-cell builds from a catalog, not a sweep spec".to_string());
        }
        let catalog = RegimeCatalog::load(&catalog_path).map_err(|e| e.to_string())?;
        if checkpoint_costs.is_empty() {
            checkpoint_costs.push(CheckpointConfig::DEFAULT_CHECKPOINT_COST_MINUTES);
        }
        let multi = builder
            .build_from_catalog(&catalog, &checkpoint_costs, dp_step_minutes, threads)
            .map_err(|e| e.to_string())?;
        let json = multi.to_json().map_err(|e| e.to_string())?;
        std::fs::write(&out, &json).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        println!(
            "built multi-pack `{}`: pooled ({}) + {} cell packs, {} bytes, {:.2}s -> {}",
            multi.name,
            multi.pooled.regimes[0].served_family,
            multi.cells.len(),
            json.len(),
            started.elapsed().as_secs_f64(),
            out.display()
        );
        return Ok(());
    }
    if catalog_path.is_some() {
        return Err("--catalog requires --per-cell".to_string());
    }
    let spec_path = spec_path.ok_or("build needs a sweep spec file")?;
    let spec = SweepSpec::from_path(&spec_path).map_err(|e| e.to_string())?;
    let pack = builder.build_from_spec(&spec).map_err(|e| e.to_string())?;
    let json = pack.to_json().map_err(|e| e.to_string())?;
    std::fs::write(&out, &json).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "built pack `{}`: {} regimes, {} bytes, {:.2}s -> {}",
        pack.name,
        pack.regimes.len(),
        json.len(),
        started.elapsed().as_secs_f64(),
        out.display()
    );
    Ok(())
}

struct IoArgs {
    pack: Option<PathBuf>,
    input: Option<PathBuf>,
    output: Option<PathBuf>,
    count: usize,
    threads: usize,
    seed: u64,
    cells: bool,
}

fn parse_io_args(argv: &[String]) -> Result<IoArgs, String> {
    let mut args = IoArgs {
        pack: None,
        input: None,
        output: None,
        count: 10_000,
        threads: 0,
        seed: 2020,
        cells: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--pack" => args.pack = Some(PathBuf::from(next_value(&mut it, arg)?)),
            "--input" => args.input = Some(PathBuf::from(next_value(&mut it, arg)?)),
            "--output" | "--out" => args.output = Some(PathBuf::from(next_value(&mut it, arg)?)),
            "--count" => args.count = parse(next_value(&mut it, arg)?, arg)?,
            "--threads" => args.threads = parse(next_value(&mut it, arg)?, arg)?,
            "--seed" => args.seed = parse(next_value(&mut it, arg)?, arg)?,
            "--cells" => args.cells = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(args)
}

fn write_or_print(output: &Option<PathBuf>, text: &str) -> Result<(), String> {
    match output {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
        }
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

fn cmd_gen(argv: &[String]) -> Result<(), String> {
    let args = parse_io_args(argv)?;
    // Multi-packs generate against their pooled pack by default (cell routing is
    // opt-in per request via the `cell` field); `--cells` spreads the load over every
    // routable cell pack instead.  Only pack metadata is needed here, so no
    // interpolation engines are built.
    let path = args.pack.as_ref().ok_or("--pack is required")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let requests = match MultiPack::from_json(&text) {
        Ok(multi) if args.cells => generate_multi_requests(&multi, args.count, args.seed),
        Ok(multi) => generate_requests(&multi.pooled, args.count, args.seed),
        Err(_) if args.cells => {
            return Err("--cells needs a per-cell multi-pack (advise build --per-cell)".into())
        }
        Err(_) => {
            let pack = ModelPack::from_json(&text).map_err(|e| e.to_string())?;
            generate_requests(&pack, args.count, args.seed)
        }
    };
    write_or_print(&args.output, &requests_to_ndjson(&requests))
}

fn cmd_serve(argv: &[String]) -> Result<(), String> {
    let args = parse_io_args(argv)?;
    let handle = AdvisorHandle::new(load_advisor(&args.pack)?);
    let input_path = args.input.as_ref().ok_or("--input is required")?;
    let input = std::fs::read_to_string(input_path)
        .map_err(|e| format!("cannot read {}: {e}", input_path.display()))?;
    let lines: Vec<&str> = input.lines().collect();
    let mut output = String::new();
    let mut session = Session::new(&handle, args.threads);
    // The logged q/s times the answering alone, not splitting the input into lines.
    let started = Instant::now();
    session.process(&lines, &mut output);
    let elapsed = started.elapsed().as_secs_f64();
    // Stats are aggregated across every advisor that served part of the stream —
    // reading only the final advisor would drop counts from before a `!reload`.
    let stats = session.stats();
    write_or_print(&args.output, &output)?;
    tcp_obs::event!(
        info,
        "serve.batch.done",
        queries = stats.total(),
        elapsed_secs = elapsed,
        qps = tcp_obs::rate_per_sec(stats.total(), elapsed),
        should_reuse = stats.should_reuse,
        checkpoint_plan = stats.checkpoint_plan,
        expected_cost_makespan = stats.expected_cost_makespan,
        best_policy = stats.best_policy,
    );
    Ok(())
}

/// Writes `text` to `path` atomically: to the sibling `path.with_extension(tmp_ext)`
/// first, then renamed over `path`, so a reader never sees a half-written file.
fn write_atomic(path: &Path, tmp_ext: &str, text: &str) -> std::io::Result<()> {
    let tmp = path.with_extension(tmp_ext);
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// Writes the global registry as a Prometheus text exposition to `path`.
fn write_exposition(path: &Path) -> std::io::Result<()> {
    let text = tcp_obs::Registry::global().snapshot().to_prometheus();
    write_atomic(path, "prom.tmp", &text)
}

/// Logs a failed write of `path` as one `warn` event named `site`.
fn warn_if_failed(site: &str, path: &Path, written: std::io::Result<()>) {
    if let Err(e) = written {
        tcp_obs::event!(
            warn,
            site,
            path = path.display().to_string(),
            error = e.to_string(),
        );
    }
}

/// Parses `--trace-sample`, accepting both `1/N` (the documented reading) and a bare
/// `N`; `0` (or `1/0`) disables sampling.
fn parse_sample(value: &str, flag: &str) -> Result<u64, String> {
    match value.split_once('/') {
        Some(("1", denom)) => parse(denom.trim(), flag),
        Some(_) => Err(format!(
            "invalid {flag} value `{value}` (expected `1/N` or `N`)"
        )),
        None => parse(value.trim(), flag),
    }
}

fn cmd_listen(argv: &[String]) -> Result<(), String> {
    let mut pack: Option<PathBuf> = None;
    let mut port_file: Option<PathBuf> = None;
    let mut metrics_file: Option<PathBuf> = None;
    let mut metrics_interval = 5.0f64;
    let mut trace_file: Option<PathBuf> = None;
    let mut trace_sample: Option<u64> = None;
    let mut trace_slow_us = 0u64;
    let mut slo_file: Option<PathBuf> = None;
    let mut alert_log: Option<PathBuf> = None;
    let mut profile_file: Option<PathBuf> = None;
    let mut profile_hz: Option<u64> = None;
    let mut options = ServeOptions::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--pack" => pack = Some(PathBuf::from(next_value(&mut it, arg)?)),
            "--addr" => options.addr = next_value(&mut it, arg)?.clone(),
            "--workers" => options.workers = parse(next_value(&mut it, arg)?, arg)?,
            "--max-inflight" => options.max_inflight = parse(next_value(&mut it, arg)?, arg)?,
            "--max-batch" => options.max_batch = parse(next_value(&mut it, arg)?, arg)?,
            "--max-pending" => options.max_pending = parse(next_value(&mut it, arg)?, arg)?,
            "--port-file" => port_file = Some(PathBuf::from(next_value(&mut it, arg)?)),
            "--metrics-file" => metrics_file = Some(PathBuf::from(next_value(&mut it, arg)?)),
            "--metrics-interval" => metrics_interval = parse(next_value(&mut it, arg)?, arg)?,
            "--no-metrics" => tcp_obs::set_enabled(false),
            "--trace-file" => trace_file = Some(PathBuf::from(next_value(&mut it, arg)?)),
            "--trace-sample" => trace_sample = Some(parse_sample(next_value(&mut it, arg)?, arg)?),
            "--trace-slow-us" => trace_slow_us = parse(next_value(&mut it, arg)?, arg)?,
            "--slo" => slo_file = Some(PathBuf::from(next_value(&mut it, arg)?)),
            "--alert-log" => alert_log = Some(PathBuf::from(next_value(&mut it, arg)?)),
            "--profile-file" => profile_file = Some(PathBuf::from(next_value(&mut it, arg)?)),
            "--profile-hz" => profile_hz = Some(parse(next_value(&mut it, arg)?, arg)?),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    // A port file left by an earlier run names a dead address: remove it before
    // anything else can fail, so a readiness loop only ever reads this run's.
    if let Some(path) = &port_file {
        let _ = std::fs::remove_file(path);
    }
    let metrics_interval = tcp_obs::cli::positive_secs("--metrics-interval", metrics_interval)?;
    if alert_log.is_some() && slo_file.is_none() {
        return Err("--alert-log requires --slo".to_string());
    }
    if profile_hz.is_some() && profile_file.is_none() {
        return Err("--profile-hz requires --profile-file".to_string());
    }
    // Parse the SLO spec before binding the socket: a bad rule file should fail
    // fast, not after the server is reachable.
    let slo_spec = slo_file
        .as_ref()
        .map(|path| tcp_obs::health::SloSpec::load(path))
        .transpose()?;
    // Tracing defaults to sample-everything when a trace file is requested, and to
    // fully off otherwise; `--trace-sample 0` forces it off either way (the trace
    // file then holds an empty-but-valid dump, unless the slow log retains spans).
    let sample_every = trace_sample.unwrap_or(u64::from(trace_file.is_some()));
    tcp_obs::trace::configure(sample_every, trace_slow_us.saturating_mul(1_000));
    // Arm the continuous profiler before the worker pool spawns so the very first
    // request's span stack is mirrored; counting allocation rides along since this
    // binary installs the counting global allocator.
    if profile_file.is_some() {
        tcp_obs::profile::set_counting(true);
        tcp_obs::profile::arm(profile_hz.unwrap_or(97));
    }
    let advisor = load_advisor(&pack)?;
    let pack_name = advisor.name().to_string();
    let cells = advisor.cell_count();
    let server = Server::start(advisor, options.clone())?;
    let addr = server.local_addr();
    tcp_obs::event!(
        info,
        "serve.listening",
        addr = addr.to_string(),
        pack = pack_name,
        cells = cells,
        workers = options.workers,
        max_inflight = options.max_inflight,
        protocol =
            "ndjson (+ !reload / !stats / !metrics / !trace / !health / !profile / !shutdown)",
    );
    // The evaluator reads registry snapshots on its own thread (like the exposition
    // writer below); dropping the handle after the drain stops and joins it.
    let _evaluator = slo_spec.map(|spec| tcp_obs::health::spawn_evaluator(spec, alert_log.clone()));
    // The first exposition is written before the port file, so a metrics path that
    // cannot be written fails the run before a readiness loop sees the address.
    if let Some(path) = &metrics_file {
        write_exposition(path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    if let Some(path) = &port_file {
        write_atomic(path, "port.tmp", &format!("{addr}\n"))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    // The exposition writer is strictly out-of-band: it reads registry snapshots on
    // its own thread and never touches the serving path, so response bytes are
    // unaffected by whether (or how often) it runs.
    let metrics_writer = metrics_file.clone().map(|path| {
        Periodic::spawn("advise-metrics", metrics_interval, move || {
            warn_if_failed("serve.metrics.write_failed", &path, write_exposition(&path))
        })
    });
    let report = server.join();
    drop(metrics_writer);
    if let Some(path) = &metrics_file {
        // One final write after the drain so the file holds the complete totals.
        warn_if_failed("serve.metrics.write_failed", path, write_exposition(path));
    }
    if let Some(path) = &trace_file {
        // Written once, after the drain: the flight recorder keeps the most recent
        // retained spans at bounded memory, so this is a dump, not an append log.
        let text = tcp_obs::trace::chrome_trace_json(&tcp_obs::trace::recent_spans());
        warn_if_failed(
            "serve.trace.dump_failed",
            path,
            write_atomic(path, "trace.tmp", &text),
        );
    }
    if let Some(path) = &profile_file {
        // Disarm first (stops and joins the sampler thread), then dump everything
        // accumulated: basename.folded / .svg / .json, each via tmp + rename.
        tcp_obs::profile::disarm();
        match tcp_obs::profile::dump_to(path) {
            Ok(written) => tcp_obs::event!(
                info,
                "serve.profile.dumped",
                files = written.len(),
                base = path.with_extension("").display().to_string(),
            ),
            Err(e) => tcp_obs::event!(
                warn,
                "serve.profile.dump_failed",
                path = path.display().to_string(),
                error = e.to_string(),
            ),
        }
    }
    tcp_obs::event!(
        info,
        "serve.drained",
        connections = report.connections,
        requests = report.requests,
        overload_responses = report.overload_responses,
        refused_connections = report.refused_connections,
    );
    Ok(())
}

fn cmd_connect(argv: &[String]) -> Result<(), String> {
    let mut addr: Option<String> = None;
    let mut input: Option<PathBuf> = None;
    let mut output: Option<PathBuf> = None;
    let mut sends: Vec<String> = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = Some(next_value(&mut it, arg)?.clone()),
            "--input" => input = Some(PathBuf::from(next_value(&mut it, arg)?)),
            "--output" | "--out" => output = Some(PathBuf::from(next_value(&mut it, arg)?)),
            "--send" => sends.push(next_value(&mut it, arg)?.clone()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let addr = addr.ok_or("--addr is required")?;
    let mut document = match &input {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?,
        None => String::new(),
    };
    for line in &sends {
        if !document.is_empty() && !document.ends_with('\n') {
            document.push('\n');
        }
        document.push_str(line);
        document.push('\n');
    }
    if document.is_empty() {
        return Err("nothing to send: give --input and/or --send".to_string());
    }
    let response = run_client(&addr, &document).map_err(|e| e.to_string())?;
    write_or_print(&output, &response)
}

fn cmd_top(argv: &[String]) -> Result<(), String> {
    let mut options = TopOptions::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => options.addr = next_value(&mut it, arg)?.clone(),
            "--interval" => options.interval_secs = parse(next_value(&mut it, arg)?, arg)?,
            "--once" => options.once = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if options.addr.is_empty() {
        return Err("--addr is required".to_string());
    }
    tcp_obs::cli::positive_secs("--interval", options.interval_secs)?;
    run_top(&options)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("build") => cmd_build(&argv[1..]),
        Some("gen") => cmd_gen(&argv[1..]),
        Some("serve") => cmd_serve(&argv[1..]),
        Some("listen") => cmd_listen(&argv[1..]),
        Some("connect") => cmd_connect(&argv[1..]),
        Some("top") => cmd_top(&argv[1..]),
        Some("--help" | "-h") | None => return tcp_obs::cli::usage_error(USAGE),
        Some(other) => {
            return tcp_obs::cli::usage_error(format_args!("unknown command `{other}`\n\n{USAGE}"))
        }
    };
    tcp_obs::cli::exit_outcome(outcome)
}
