//! The serving workload, `serve-cells`: in-process `Session::process` on one thread
//! over the 41-pack per-cell pack set, in a closed loop over 256-line request
//! batches drawn from a corpus of the standard request mix plus ~1% malformed
//! lines.  Every response line is checked against an in-process reference.
//!
//! The traced run also sends the same batches over one loopback connection to a
//! `tcp-serve` server (one worker, single-threaded batches) to measure the socket
//! layer.  Loopback is not an end-to-end workload: on a shared 2-vCPU host its
//! p99 moves by 25–90% between identical sets of runs.

use crate::check::{Checks, Digest, Mix, GOLDEN_SEED};
use crate::host::HostClock;
use crate::metrics::{self, finish_traced, median, Allocs, Outcome, Round, Rounds, Values};
use crate::spans::Tracer;
use crate::Ctx;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use tcp_advisor::{
    generate_multi_requests, respond_line, AdviceRequest, AdvisorHandle, MultiAdvisor, PackBuilder,
    RequestKind, Session,
};
use tcp_calibrate::RegimeCatalog;
use tcp_serve::{ServeOptions, Server};

/// Request lines per batch (one closed-loop round trip).
const BATCH: usize = 256;
/// Batches in the corpus the loop cycles through.
const CORPUS_BATCHES: usize = 256;
/// Batches in the golden probe.
const GOLDEN_BATCHES: usize = 16;
/// Batches between two host-kernel readings.
const ROUND_BATCHES: usize = 32;
/// Fewest rounds an untraced run times: 1,024 batches, so p99 has ≥ 10 samples
/// beyond it and the first full corpus pass (the allocation window) completes.
const MIN_ROUNDS: usize = 32;
/// Malformed lines per thousand corpus lines.
const MALFORMED_PER_MILLE: u64 = 10;
/// Set-up repetitions (`setup_s` is their median).
const SETUP_REPS: usize = 3;

const CATALOG_JSON: &str = include_str!("../inputs/catalog.json");

/// The reduced-resolution builder of the per-cell pack set (about 557 KB for the
/// 40-cell catalog); also used by the refresh workload.
pub fn cell_pack_builder() -> PackBuilder {
    PackBuilder {
        age_points: 241,
        checkpoint_age_points: 4,
        checkpoint_job_points: 5,
        max_checkpoint_job_hours: 4.0,
        ..PackBuilder::default()
    }
}

/// Checkpoint costs (minutes) and DP step (minutes) of the per-cell pack set.
pub const CELL_PACK_COSTS: &[f64] = &[1.0];
pub const CELL_PACK_DP_STEP: f64 = 15.0;

fn encode(request: &AdviceRequest) -> Result<String, String> {
    serde_json::to_string(request).map_err(|e| format!("cannot encode request: {e}"))
}

/// Renders `requests` as corpus lines, replacing ~1% with ordinary malformed lines:
/// truncated JSON, an unknown regime, an unknown cell, or a negative `job_len`.
fn corpus(requests: &[AdviceRequest], seed: u64) -> Result<Vec<String>, String> {
    let mut mix = Mix::new(seed);
    let mut lines = Vec::with_capacity(requests.len());
    for request in requests {
        if mix.below(1000) >= MALFORMED_PER_MILLE {
            lines.push(encode(request)?);
            continue;
        }
        let mut bad = request.clone();
        match mix.below(4) {
            0 => {
                let line = encode(request)?;
                let cut = 1 + mix.below(line.len() as u64 - 1) as usize;
                lines.push(line[..cut].to_string());
                continue;
            }
            1 => bad.regime = Some("no-such-regime".to_string()),
            2 => bad.cell = Some("no-such-vm/no-such-zone/day".to_string()),
            _ => bad.job_len = Some(-0.5 - mix.below(40) as f64 / 4.0),
        }
        lines.push(encode(&bad)?);
    }
    Ok(lines)
}

/// Number of lines of `expected` that are missing from `actual` or differ (both
/// newline-terminated documents).
fn mismatches(actual: &str, expected: &str) -> u64 {
    if actual == expected {
        return 0;
    }
    let mut got = actual.lines();
    expected
        .lines()
        .filter(|want| got.next() != Some(*want))
        .count() as u64
}

fn batch_lines<'a>(lines: &'a [&'a str], index: usize) -> &'a [&'a str] {
    &lines[index * BATCH..(index + 1) * BATCH]
}

/// Answers `lines` through a session in `BATCH`-line calls.
fn session_output(session: &mut Session<'_>, lines: &[&str]) -> String {
    let mut out = String::new();
    for chunk in lines.chunks(BATCH) {
        session.process(chunk, &mut out);
    }
    out
}

/// Runs round `n` through `batch`, which runs corpus batch `b` and returns its raw
/// seconds and failed lines: first one untimed batch, which refills the caches the
/// host kernel just evicted (timed, it was a third of the p99 tail), then
/// `ROUND_BATCHES` timed ones.  The allocations of the first corpus pass are added
/// to `pass_allocs`.
fn batch_round(
    n: usize,
    pass_allocs: &mut Allocs,
    mut batch: impl FnMut(usize) -> Result<(f64, u64), String>,
) -> Result<Round, String> {
    let per_round = ROUND_BATCHES + 1;
    let mut samples = Vec::with_capacity(ROUND_BATCHES);
    let mut failed = 0;
    for (k, index) in (n * per_round..(n + 1) * per_round).enumerate() {
        let before = Allocs::now();
        let (seconds, batch_failed) = batch(index % CORPUS_BATCHES)?;
        if index < CORPUS_BATCHES {
            pass_allocs.add(Allocs::since(before));
        }
        if k > 0 {
            samples.push(seconds);
        }
        failed += batch_failed;
    }
    Ok(Round {
        ops: (ROUND_BATCHES * BATCH) as u64,
        attempted: (per_round * BATCH) as u64,
        samples,
        failed,
    })
}

/// Span names of `MultiAdvisor::advise` per request kind.
fn advise_span(kind: RequestKind) -> &'static str {
    match kind {
        RequestKind::ShouldReuse => "advisor.advise.should-reuse",
        RequestKind::CheckpointPlan => "advisor.advise.checkpoint-plan",
        RequestKind::ExpectedCostMakespan => "advisor.advise.expected-cost-makespan",
        RequestKind::BestPolicy => "advisor.advise.best-policy",
    }
}

const ADVISE_KINDS: [(&str, &str); 4] = [
    (
        "advisor.advise.should-reuse",
        "advisor.advise_ns.should-reuse",
    ),
    (
        "advisor.advise.checkpoint-plan",
        "advisor.advise_ns.checkpoint-plan",
    ),
    (
        "advisor.advise.expected-cost-makespan",
        "advisor.advise_ns.expected-cost-makespan",
    ),
    (
        "advisor.advise.best-policy",
        "advisor.advise_ns.best-policy",
    ),
];

/// Traces one batch line by line: `respond_line` as a whole (`serve.respond`), then
/// the same line through its parts — parse, advise, encode — under `serve.request`.
/// Returns the bytes of the encoded responses.
fn trace_lines(
    tracer: &mut Tracer,
    advisor: &MultiAdvisor,
    lines: &[&str],
    first_id: u64,
) -> usize {
    let mut bytes = 0;
    for (offset, line) in lines.iter().enumerate() {
        let id = first_id + offset as u64;
        tracer.span("serve.respond", id, || respond_line(advisor, line));
        tracer.enter("serve.request", id);
        let parsed = tracer.span("wire.parse", id, || {
            serde_json::from_str::<AdviceRequest>(line)
        });
        if let Ok(request) = parsed {
            let answer = tracer.span(advise_span(request.kind), id, || advisor.advise(&request));
            if let Ok(response) = answer {
                let text = tracer.span("wire.encode", id, || serde_json::to_string(&response));
                bytes += text.map_or(0, |t| t.len());
            }
        }
        tracer.exit();
    }
    bytes
}

/// Per-layer serving metrics from a traced run.  `factor` is the traced rounds'
/// median host adjustment, `untraced_s_per_op` the untraced run's per-request time
/// and `response_bytes` what `trace_lines` encoded.
fn serve_layers(
    tracer: &Tracer,
    response_bytes: usize,
    factor: f64,
    untraced_s_per_op: f64,
    layers: &mut Values,
) {
    let per_line = |ns: u64, count: u64| ns as f64 * factor / count.max(1) as f64;
    let lines = tracer.total("serve.respond").count;
    let parse = tracer.total("wire.parse");
    let encode = tracer.total("wire.encode");
    let respond = tracer.total("serve.respond");
    let session = tracer.total("serve.session");
    let mut advise_ns = 0u64;
    let mut advise_count = 0u64;
    let mut advise_allocs = 0u64;
    for (span, metric) in ADVISE_KINDS {
        let t = tracer.total(span);
        layers.insert(metric, per_line(t.total_ns, t.count));
        advise_ns += t.total_ns;
        advise_count += t.count;
        advise_allocs += t.allocs.calls;
    }
    layers.insert("wire.parse_ns", per_line(parse.total_ns, parse.count));
    layers.insert(
        "wire.parse_allocs",
        parse.allocs.calls as f64 / parse.count.max(1) as f64,
    );
    layers.insert("wire.encode_ns", per_line(encode.total_ns, encode.count));
    layers.insert(
        "wire.encode_allocs",
        encode.allocs.calls as f64 / encode.count.max(1) as f64,
    );
    layers.insert(
        "wire.response_bytes",
        response_bytes as f64 / encode.count.max(1) as f64,
    );
    layers.insert(
        "advisor.advise_allocs",
        advise_allocs as f64 / advise_count.max(1) as f64,
    );
    layers.insert("serve.respond_ns", per_line(respond.total_ns, lines));
    let glue = respond.total_ns as f64 - (parse.total_ns + advise_ns + encode.total_ns) as f64;
    layers.insert("serve.glue_ns", glue * factor / lines.max(1) as f64);
    let session_self = session.total_ns as f64 - respond.total_ns as f64;
    layers.insert(
        "serve.session_ns",
        session_self * factor / lines.max(1) as f64,
    );
    // parse + advise + encode + glue + session add up to the session's time.
    let session_ns = per_line(session.total_ns, lines);
    layers.insert(
        "serve.attributed_pct",
        session_ns / (untraced_s_per_op * 1e9) * 100.0,
    );
}

/// A closed-loop loopback client: writes one window of request lines, then reads
/// until every response line of the window has arrived.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(server: &Server) -> Result<Client, String> {
        let stream =
            TcpStream::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let timeout = Some(Duration::from_secs(20));
        stream
            .set_read_timeout(timeout)
            .and_then(|()| stream.set_write_timeout(timeout))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| format!("socket options: {e}"))?;
        Ok(Client {
            stream,
            buf: vec![0u8; 1 << 16],
        })
    }

    fn round_trip(
        &mut self,
        window: &[u8],
        lines: usize,
        reply: &mut Vec<u8>,
    ) -> Result<(), String> {
        reply.clear();
        self.stream
            .write_all(window)
            .map_err(|e| format!("send: {e}"))?;
        let mut seen = 0usize;
        while seen < lines {
            let n = self
                .stream
                .read(&mut self.buf)
                .map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err(format!("server closed after {seen} of {lines} lines"));
            }
            seen += self.buf[..n].iter().filter(|&&b| b == b'\n').count();
            reply.extend_from_slice(&self.buf[..n]);
        }
        Ok(())
    }
}

/// Failed lines of a loopback reply against the expected in-process bytes.
fn reply_failures(reply: &[u8], expected: &str) -> u64 {
    match std::str::from_utf8(reply) {
        Ok(text) => mismatches(text, expected),
        Err(_) => expected.lines().count() as u64,
    }
}

fn window_bytes(lines: &[&str]) -> Vec<u8> {
    let mut doc = lines.join("\n");
    doc.push('\n');
    doc.into_bytes()
}

/// Runs the `serve-cells` workload.
pub fn run_cells(ctx: &Ctx) -> Result<Outcome, String> {
    let mut clock = HostClock::start();
    let mut setups = Vec::new();
    let (mut build_s, mut encode_s, mut load_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let started = Instant::now();
        let catalog = RegimeCatalog::from_json(CATALOG_JSON).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let multi = cell_pack_builder()
            .build_from_catalog(&catalog, CELL_PACK_COSTS, CELL_PACK_DP_STEP, 1)
            .map_err(|e| e.to_string())?;
        let build = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let json = multi.to_json().map_err(|e| e.to_string())?;
        let encode = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let advisor = MultiAdvisor::from_json(&json).map_err(|e| e.to_string())?;
        let load = t.elapsed().as_secs_f64();
        let requests = generate_multi_requests(&multi, CORPUS_BATCHES * BATCH, ctx.seed);
        let lines = corpus(&requests, ctx.seed)?;
        let raw = started.elapsed().as_secs_f64();
        let factor = clock.factor();
        setups.push(raw * factor);
        build_s.push(build * factor);
        encode_s.push(encode * factor);
        load_s.push(load * factor);
        built = Some((multi, json, advisor, lines));
    }
    let (multi, json, advisor, corpus_lines) = built.ok_or("no set-up ran")?;
    let mut e2e = Values::new();
    let mut layers = Values::new();
    e2e.insert("setup_s", median(&setups));
    layers.insert("pack.build_s", median(&build_s));
    layers.insert("pack.encode_s", median(&encode_s));
    layers.insert("pack.load_s", median(&load_s));
    layers.insert("pack.bytes", json.len() as f64);

    let handle = AdvisorHandle::new(advisor);
    let advisor = handle.current();
    let lines: Vec<&str> = corpus_lines.iter().map(String::as_str).collect();
    // Reference: every line answered on its own by `respond_line`.
    let expected: Vec<String> = (0..CORPUS_BATCHES)
        .map(|b| {
            batch_lines(&lines, b)
                .iter()
                .map(|line| respond_line(&advisor, line) + "\n")
                .collect()
        })
        .collect();

    let mut checks = Checks::default();
    checks.golden(&ctx.expected, "serve-cells.pack", json.as_bytes(), 1);
    let golden_requests = generate_multi_requests(&multi, GOLDEN_BATCHES * BATCH, GOLDEN_SEED);
    let golden_lines = corpus(&golden_requests, GOLDEN_SEED)?;
    let golden_refs: Vec<&str> = golden_lines.iter().map(String::as_str).collect();
    let mut session = Session::new(&handle, 1);
    let golden_out = session_output(&mut session, &golden_refs);
    checks.golden(
        &ctx.expected,
        "serve-cells.responses",
        golden_out.as_bytes(),
        golden_refs.len() as u64,
    );
    drop(multi);

    // Warm-up pass: fills caches and finishes lazy set-up before any timing.
    let mut out = String::new();
    let mut warm = Digest::new();
    for b in 0..CORPUS_BATCHES {
        out.clear();
        session.process(batch_lines(&lines, b), &mut out);
        warm.update(out.as_bytes());
    }
    checks.record("serve-cells.run-responses", warm.hex());

    let budget = if ctx.trace {
        ctx.budget / 2
    } else {
        ctx.budget
    };
    let mut pass_allocs = Allocs::default();
    let untraced = Rounds::run(budget, MIN_ROUNDS, &mut clock, &mut checks, |n| {
        batch_round(n, &mut pass_allocs, |b| {
            out.clear();
            let started = Instant::now();
            session.process(batch_lines(&lines, b), &mut out);
            let seconds = started.elapsed().as_secs_f64();
            Ok((seconds, mismatches(&out, &expected[b])))
        })
    })?;
    untraced.report(&mut e2e);
    let ops = (CORPUS_BATCHES * BATCH) as f64;
    e2e.insert("allocs_per_op", pass_allocs.calls as f64 / ops);
    e2e.insert("alloc_bytes_per_op", pass_allocs.bytes as f64 / ops);
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

    // Traced half: per batch, the session call, then every line through
    // `respond_line` and through its parts.
    let mut tracer = Tracer::new();
    let mut response_bytes = 0usize;
    let traced = Rounds::run(budget, 1, &mut clock, &mut checks, |n| {
        batch_round(n, &mut Allocs::default(), |b| {
            let batch = batch_lines(&lines, b);
            tracer.enter("serve.batch", b as u64);
            out.clear();
            tracer.enter("serve.session", b as u64);
            session.process(batch, &mut out);
            let seconds = tracer.exit() as f64 / 1e9;
            response_bytes += trace_lines(&mut tracer, &advisor, batch, (b * BATCH) as u64);
            tracer.exit();
            Ok((seconds, mismatches(&out, &expected[b])))
        })
    })?;
    serve_layers(
        &tracer,
        response_bytes,
        median(&traced.factors),
        untraced.seconds_per_op(),
        &mut layers,
    );

    // Loopback leg, kept apart so it does not disturb the rounds above: one corpus
    // pass over one connection to a server on the same pack, each window then
    // answered in process too.  The bytes must equal the in-process reference.
    let server = Server::start(
        MultiAdvisor::from_json(&json).map_err(|e| e.to_string())?,
        ServeOptions {
            workers: 1,
            batch_threads: 1,
            max_inflight: usize::MAX / 2,
            ..ServeOptions::default()
        },
    )?;
    let mut client = Client::connect(&server)?;
    let mut reply = Vec::new();
    let (mut bytes_in, mut bytes_out, mut failed) = (0usize, 0usize, 0u64);
    clock.factor();
    for (b, want) in expected.iter().enumerate() {
        let window = window_bytes(batch_lines(&lines, b));
        tracer.enter("tcp.window", b as u64);
        client.round_trip(&window, BATCH, &mut reply)?;
        tracer.exit();
        out.clear();
        tracer.enter("tcp.session", b as u64);
        session.process(batch_lines(&lines, b), &mut out);
        tracer.exit();
        bytes_in += window.len();
        bytes_out += reply.len();
        failed += reply_failures(&reply, want);
    }
    let factor = clock.factor();
    checks.ops((CORPUS_BATCHES * BATCH) as u64, failed);
    // Close the connection, drain, and join every server thread.
    drop(client);
    server.shutdown();
    server.join();
    let io_ns =
        tracer.total("tcp.window").total_ns as f64 - tracer.total("tcp.session").total_ns as f64;
    layers.insert("tcp.io_ns", io_ns * factor / ops);
    layers.insert("tcp.bytes_in", bytes_in as f64 / ops);
    layers.insert("tcp.bytes_out", bytes_out as f64 / ops);
    let error_lines = expected
        .iter()
        .flat_map(|batch| batch.lines())
        .filter(|line| line.starts_with("{\"error\""))
        .count();
    layers.insert("serve.error_lines", error_lines as f64);
    finish_traced(&mut layers, &clock, &untraced, &traced);
    Ok(Outcome {
        checks,
        e2e,
        layers,
        tracer: Some(tracer),
    })
}
