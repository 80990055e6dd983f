//! NDJSON serving: request streams in, response streams out.
//!
//! Each input line is one [`AdviceRequest`] in JSON; each output line is either the
//! matching [`crate::AdviceResponse`] or an `{"error": ..., "id": ...}` line.  Lines are parsed,
//! answered, and serialized inside the worker tasks and emitted in input order, so the
//! byte output is identical for every thread count — a malformed line never stalls or
//! reorders the stream.
//!
//! Control lines start with `!`.  `!reload <path>` swaps the served pack (single or
//! multi) through the [`AdvisorHandle`]'s `Arc` swap: lines before the control line are
//! answered by the old pack, lines after it by the new one, and any batch already
//! holding a snapshot keeps answering from it unaffected.  The control line itself
//! produces one `{"control": "reload", ...}` (or `{"error": ...}`) line in place.
//! `!stats` emits the sharded query counters as a one-line JSON health report with
//! deterministically sorted keys, `!metrics` dumps the process-global
//! [`tcp_obs::Registry`] (latency histograms included) as one line of sorted-key JSON,
//! and `!health` reports the SLO evaluator's verdict (Healthy/Degraded/Unhealthy),
//! per-rule states, pack version/age, uptime, and the recent warn/error event ring.
//!
//! The line-level state machine lives in [`Session`], which is front-end agnostic: the
//! file/stdin path below feeds it a whole document at once, while the TCP server in
//! `tcp-serve` feeds it whatever slice of lines has arrived on the socket.  Both produce
//! byte-identical output for the same line sequence because a [`Session`] only depends
//! on the lines themselves and the packs they load.

use crate::engine::{AdviceRequest, AdvisorStats};
use crate::pack::{ModelPack, MultiPack};
use crate::router::{AdvisorHandle, MultiAdvisor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::Arc;
use tcp_cloudsim::{resolve_threads, run_tasks};

/// The error line emitted for requests that could not be answered.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorLine {
    /// What went wrong (parse error or advisor error).
    pub error: String,
    /// Correlation id of the failing request, when it could be parsed.
    pub id: Option<u64>,
}

/// The acknowledgement line emitted for a successful `!reload`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlLine {
    /// The control verb (`reload`).
    pub control: String,
    /// Name of the pack (set) now being served.
    pub pack: String,
    /// Number of routable cell packs now loaded.
    pub cells: usize,
}

/// The health line emitted for a `!stats` control line: the sharded query counters,
/// aggregated and rendered as JSON.
///
/// Fields are declared in alphabetical order on purpose: derived serialization emits
/// fields in declaration order (and nested maps are `BTreeMap`s), so the `!stats`
/// line's JSON keys are deterministically sorted at every nesting level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsLine {
    /// Number of routable cell packs currently loaded.
    pub cells: usize,
    /// The control verb (`stats`).
    pub control: String,
    /// Counters of the pack currently being served — under TCP, the server-wide
    /// figure since the reload (every connection shares the pack).
    pub current: AdvisorStats,
    /// Queries per *DP table* family (`dp_family` of the answering regime), same
    /// scope as `served_families`; equals it for packs built at format v3, and pins
    /// `bathtub` for upgraded v2 packs.
    pub dp_families: std::collections::BTreeMap<String, u64>,
    /// Name of the pack (set) currently being served.
    pub pack: String,
    /// Seconds since the served pack was swapped in (from the
    /// `advisor.pack.loaded_at_secs` gauge stamped at load/reload time) — the
    /// staleness figure `age`-kind SLO rules alert on.
    pub pack_age_secs: f64,
    /// Pack format version of the served pack.
    pub pack_format_version: u32,
    /// Counters summed over every pack this session has served from — the figure that
    /// survives a `!reload` (which swaps the live counters).  Pack counters are shared
    /// by every session serving the same packs, so under a multi-connection server
    /// this equals the session's own counts only for the sole connection; otherwise it
    /// covers all traffic on the packs this session touched.
    pub served: AdvisorStats,
    /// Queries per *served curve* family (`served_family` of the answering regime)
    /// for the pack currently being served — like `current`, the server-wide figure
    /// since the last reload, so a fresh health-probe connection sees real traffic.
    /// This is the histogram that shows which models a pack is actually serving.
    pub served_families: std::collections::BTreeMap<String, u64>,
    /// Seconds since the process's observability epoch — the same monotonic
    /// clock `!health` reports, so the two probes agree on process age.
    pub uptime_secs: f64,
}

/// Seconds since the served pack was stamped into the `advisor.pack.loaded_at_secs`
/// gauge (see `AdvisorHandle::new`/`reload`); clamped non-negative.
fn pack_age_secs() -> f64 {
    let loaded_at = tcp_obs::gauge("advisor.pack.loaded_at_secs").get();
    (tcp_obs::log::now_monotonic_secs() - loaded_at).max(0.0)
}

/// Serializes one NDJSON reply line (or, for hand-assembled control lines, one JSON
/// fragment: a string, or a float, which prints as `{:?}` would, or `null` when not
/// finite) for the serving front ends' own lines.  Request answers go through
/// [`respond_into`].
pub fn render_line<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    serde_json::append(value, &mut out);
    out
}

/// Answers one NDJSON request line, appending the response (or error) line to `out`
/// without a trailing newline — the one request renderer of every serving front end
/// (this module and `tcp-serve`'s TCP server).  The request's names borrow from `line`
/// and the answer's from `advisor`, so an answered line allocates nothing.
pub fn respond_into(advisor: &MultiAdvisor, line: &str, out: &mut String) {
    let mut emit_error = |error: String, id: Option<u64>| {
        serde_json::append(&ErrorLine { error, id }, out);
    };
    let parsed = {
        let _span = tcp_obs::span!("serve.parse");
        serde_json::from_str::<AdviceRequest<Cow<'_, str>>>(line)
    };
    match parsed {
        Err(e) => emit_error(format!("parse error: {e}"), None),
        Ok(request) => match advisor.advise(&request) {
            Ok(response) => {
                let _span = tcp_obs::span!("serve.encode");
                serde_json::append(&response, out);
            }
            Err(e) => emit_error(e.to_string(), request.id),
        },
    }
}

/// [`respond_into`] a fresh, exact-size string.
pub fn respond_line(advisor: &MultiAdvisor, line: &str) -> String {
    // A line-sized buffer, as `serde_json::to_string` uses: an answer is ~0.5 KiB.
    let mut out = String::with_capacity(1024);
    respond_into(advisor, line, &mut out);
    out.shrink_to_fit();
    out
}

/// Appends `render(i, buf)` for `i` in `0..count` to `out`, in order, over `threads`
/// workers (`0` = all CPUs).  The indices are cut into one contiguous chunk per
/// worker, each rendered into a buffer of its own and appended in chunk order; one
/// worker renders its single chunk straight into `out`.  So the bytes never depend on
/// the thread count, and no line is ever a `String` of its own.
fn render_chunks(
    count: usize,
    threads: usize,
    out: &mut String,
    render: impl Fn(usize, &mut String) + Sync,
) {
    if count == 0 {
        return;
    }
    let size = count.div_ceil(resolve_threads(threads, count));
    let render_chunk = |chunk: usize, buf: &mut String| {
        for i in chunk * size..((chunk + 1) * size).min(count) {
            render(i, buf);
        }
    };
    let chunks = count.div_ceil(size);
    if chunks == 1 {
        render_chunk(0, out);
        return;
    }
    for buf in run_tasks(chunks, chunks, |chunk| {
        let mut buf = String::new();
        render_chunk(chunk, &mut buf);
        buf
    }) {
        out.push_str(&buf);
    }
}

/// The front-end-agnostic serving state machine: lines in, lines out.
///
/// A session wraps an [`AdvisorHandle`] and answers any mix of request lines and `!`
/// control lines, preserving input order.  Request runs are answered in parallel over
/// `threads` workers (`0` = all CPUs) by a snapshot of the current advisor; `!reload`
/// swaps the pack between runs; `!stats` reports the sharded counters; `!metrics`
/// dumps the process-global metric registry (`!metrics prom` as a Prometheus text
/// exposition); `!trace` returns the flight recorder's recent spans; `!health`
/// reports the SLO verdict, pack age/version, and recent errors.  The output for
/// a given line sequence does not depend on how the lines are sliced across
/// [`Session::process`] calls, which is what makes the file front end
/// ([`serve_session`]) and the TCP front end (`tcp-serve`) byte-identical.
pub struct Session<'a> {
    handle: &'a AdvisorHandle,
    threads: usize,
    /// Every advisor that answered part of this session, for reload-surviving stats.
    used: Vec<Arc<MultiAdvisor>>,
    /// Request lines answered so far: the per-request trace-sampling seed.  Purely
    /// observational — responses never depend on it.
    requests_seen: u64,
    /// Indices (into the lines of the current [`Session::process`] call) of the
    /// request run not answered yet; kept to reuse its allocation.
    segment: Vec<usize>,
}

impl<'a> Session<'a> {
    /// Creates a session serving from `handle` with `threads` batch workers.
    pub fn new(handle: &'a AdvisorHandle, threads: usize) -> Self {
        Session {
            handle,
            threads,
            used: Vec::new(),
            requests_seen: 0,
            segment: Vec::new(),
        }
    }

    /// Processes a slice of lines, appending one newline-terminated output line per
    /// non-blank input line to `out`.  Blank lines are skipped.
    pub fn process(&mut self, lines: &[&str], out: &mut String) {
        for (i, line) in lines.iter().enumerate() {
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if trimmed.starts_with('!') {
                self.flush(lines, out);
                out.push_str(&self.control(trimmed));
                out.push('\n');
            } else {
                self.segment.push(i);
            }
        }
        self.flush(lines, out);
    }

    /// Answers the pending run of request lines (`lines[i]` for `i` in the segment)
    /// in parallel, preserving order.
    fn flush(&mut self, lines: &[&str], out: &mut String) {
        if self.segment.is_empty() {
            return;
        }
        let advisor = self.snapshot();
        // Each request line gets a trace root seeded by its session-wide ordinal:
        // deterministic sampling, and the root opens *inside* the rendering worker so
        // nesting works on whichever thread executes the chunk.  With one worker
        // under an enclosing connection trace, the root nests as a child span
        // instead.  Inert (one atomic load) when tracing is off.
        let base_ordinal = self.requests_seen;
        self.requests_seen += self.segment.len() as u64;
        let segment = &self.segment;
        render_chunks(segment.len(), self.threads, out, |i, buf| {
            let ordinal = base_ordinal + i as u64;
            let _root = tcp_obs::root_span!("serve.request", ordinal, ordinal);
            respond_into(&advisor, lines[segment[i]], buf);
            buf.push('\n');
        });
        self.segment.clear();
    }

    /// Snapshots the current advisor, remembering it for [`Session::stats`].
    fn snapshot(&mut self) -> Arc<MultiAdvisor> {
        let advisor = self.handle.current();
        if !self.used.iter().any(|u| Arc::ptr_eq(u, &advisor)) {
            self.used.push(advisor.clone());
        }
        advisor
    }

    /// Handles one `!` control line (leading `!` included), returning the response line
    /// without its trailing newline.
    pub fn control(&mut self, line: &str) -> String {
        // Strip exactly one `!`: a doubled prefix (`!!reload …`) is a malformed
        // control line that must get the typed unknown-control error, not execute.
        let trimmed = line.trim();
        let control = trimmed.strip_prefix('!').unwrap_or(trimmed);
        let emit_error = |error: String| render_line(&ErrorLine { error, id: None });
        match control.split_once(char::is_whitespace) {
            Some(("reload", path)) => {
                match self
                    .handle
                    .reload_from_path(std::path::Path::new(path.trim()))
                {
                    Ok(advisor) => {
                        // Reloads are rare enough that the registry lookup (a short
                        // mutex) is fine here, unlike the per-query hot path.
                        tcp_obs::counter("advisor.reload.success").incr();
                        render_line(&ControlLine {
                            control: "reload".to_string(),
                            pack: advisor.name().to_string(),
                            cells: advisor.cell_count(),
                        })
                    }
                    Err(e) => {
                        tcp_obs::counter("advisor.reload.failed").incr();
                        emit_error(format!("reload failed (previous pack kept): {e}"))
                    }
                }
            }
            None if control == "stats" => {
                let advisor = self.handle.current();
                // Family histograms answer "what is this pack serving?", so they take
                // the live pack's (server-wide) scope, like `current` — a session that
                // has answered nothing itself still reports real traffic.
                let families = advisor.family_stats();
                render_line(&StatsLine {
                    cells: advisor.cell_count(),
                    control: "stats".to_string(),
                    current: advisor.stats(),
                    dp_families: families.dp,
                    pack: advisor.name().to_string(),
                    pack_age_secs: pack_age_secs(),
                    pack_format_version: advisor.format_version(),
                    served: self.stats(),
                    served_families: families.served,
                    uptime_secs: tcp_obs::log::now_monotonic_secs(),
                })
            }
            Some(("metrics", arg)) if arg.trim() == "prom" => Self::metrics_prometheus_line(),
            None if control == "metrics" => Self::metrics_line(),
            None if control == "trace" => Self::trace_line(),
            None if control == "health" => self.health_line(),
            None if control == "profile" => Self::profile_line(),
            _ => emit_error(format!(
                "unknown control line `!{control}` (expected `!reload <path>`, `!stats`, \
                 `!metrics`, `!metrics prom`, `!trace`, `!health`, or `!profile`)"
            )),
        }
    }

    /// The one-line JSON answer to a `!metrics` control line: the process-global
    /// [`tcp_obs::Registry`] snapshot (counters, gauges, and latency histograms with
    /// pre-computed p50/p90/p99/max) nested under a `"metrics"` key.  Keys are
    /// deterministically sorted at both levels (`"control"` < `"metrics"`, and the
    /// registry snapshot iterates a `BTreeMap`).  Unlike `!stats`, the scope is the
    /// whole process across reloads — the two surfaces share the same `tcp-obs`
    /// recording machinery, so their counts agree where their scopes overlap.
    pub fn metrics_line() -> String {
        format!(
            "{{\"control\":\"metrics\",\"metrics\":{}}}",
            tcp_obs::Registry::global().snapshot().to_json_line()
        )
    }

    /// The one-line JSON answer to `!metrics prom`: the same process-global registry
    /// snapshot rendered as a Prometheus text exposition (format 0.0.4) and carried
    /// as an escaped string under `"text"`, so scrapers can poll over the socket
    /// without the `--metrics-file` sidecar.  Keys are sorted
    /// (`"control"` < `"encoding"` < `"text"`); unescaping `text` yields the exact
    /// bytes `--metrics-file` would have written.
    pub fn metrics_prometheus_line() -> String {
        format!(
            "{{\"control\":\"metrics\",\"encoding\":\"prometheus-0.0.4\",\"text\":{}}}",
            render_line(&tcp_obs::Registry::global().snapshot().to_prometheus())
        )
    }

    /// The one-line JSON answer to a `!trace` control line: the flight recorder's
    /// recent contents as `{"control":"trace","spans":[…]}` — each span a flat
    /// sorted-key object with its site name resolved ([`tcp_obs::trace::spans_json`]).
    /// The recorder is a bounded sliding window per thread, so the reply is bounded
    /// too, and probing copies rather than drains: repeated `!trace` lines and a
    /// later `--trace-file` export see the same records.
    pub fn trace_line() -> String {
        format!(
            "{{\"control\":\"trace\",\"spans\":{}}}",
            tcp_obs::trace::spans_json(&tcp_obs::trace::recent_spans())
        )
    }

    /// The one-line JSON answer to a `!health` control line:
    /// `{"control":"health","health":{...}}` with the health object's keys sorted
    /// (`"pack"` < `"recent_errors"` < `"rules"` < `"uptime_secs"` < `"verdict"`).
    ///
    /// The verdict and per-rule states come from the most recent
    /// [`tcp_obs::health::HealthReport`] published by the SLO evaluator
    /// (`advise listen --slo`); with no evaluator armed the verdict is `"healthy"`
    /// with an empty rule list.  `pack` carries the served pack's name, cell
    /// count, format version, and age in seconds (from the gauges stamped at swap
    /// time); `recent_errors` is the event log's bounded ring of recent
    /// warn/error records; `uptime_secs` is time since the process's
    /// observability epoch.
    pub fn health_line(&self) -> String {
        let advisor = self.handle.current();
        let report = tcp_obs::health::current();
        let (verdict, rules) = match &report {
            Some(r) => (r.verdict.as_str(), r.rules_json()),
            None => ("healthy", "[]".to_string()),
        };
        let recent: Vec<String> = tcp_obs::log::recent_errors()
            .iter()
            .map(|e| e.to_json_line())
            .collect();
        format!(
            "{{\"control\":\"health\",\"health\":{{\"pack\":{{\"age_secs\":{},\
             \"cells\":{},\"format_version\":{},\"name\":{}}},\"recent_errors\":[{}],\
             \"rules\":{},\"uptime_secs\":{},\"verdict\":\"{}\"}}}}",
            render_line(&pack_age_secs()),
            advisor.cell_count(),
            advisor.format_version(),
            render_line(advisor.name()),
            recent.join(","),
            rules,
            render_line(&tcp_obs::log::now_monotonic_secs()),
            verdict,
        )
    }

    /// The one-line JSON answer to a `!profile` control line:
    /// `{"control":"profile","profile":{...}}` with the profile object's keys
    /// sorted at every level ([`tcp_obs::profile::profile_json`]): `"alloc"`
    /// (allocation totals plus per-site attribution from the counting
    /// allocator, when the serving binary installed one) and `"wall"` (the
    /// continuous sampler's collapsed stacks keyed by `;`-joined site paths,
    /// plus tick/sample/torn counters).  With the profiler never armed the
    /// wall object is empty but the line still answers — probes need no
    /// capability negotiation.
    pub fn profile_line() -> String {
        format!(
            "{{\"control\":\"profile\",\"profile\":{}}}",
            tcp_obs::profile::profile_json(&tcp_obs::profile::snapshot())
        )
    }

    /// Query counters aggregated across *every* advisor that served part of this
    /// session — a `!reload` swaps the advisor (and with it the live counters), so
    /// reading only the final advisor's stats would drop everything answered before
    /// the swap.  Pack counters are shared across sessions serving the same packs,
    /// so with concurrent sessions this includes their traffic too.
    pub fn stats(&self) -> AdvisorStats {
        let mut stats = AdvisorStats::default();
        for advisor in &self.used {
            stats.merge(&advisor.stats());
        }
        stats
    }
}

/// Serves an NDJSON stream with `!reload <path>` / `!stats` control-line support.
///
/// The stream is processed in segments: each run of request lines is answered in
/// parallel by a snapshot of the current advisor, and each control line swaps the
/// served pack before the next segment starts.  Output order matches input order, and
/// for a fixed set of pack files the bytes are identical for every thread count.
// lint:allow(dead-api) tcp-serve tests (loopback, health, trace, profile, metrics) serve through it
pub fn serve_session(handle: &AdvisorHandle, input: &str, threads: usize) -> String {
    let lines: Vec<&str> = input.lines().collect();
    let mut out = String::new();
    Session::new(handle, threads).process(&lines, &mut out);
    out
}

/// One draw of the standard request mix against `regime`: 40 % reuse decisions, 25 %
/// cost estimates, 25 % checkpoint plans and 10 % best-policy lookups, with ages
/// across the whole horizon and job lengths up to half the horizon.  Shared by the
/// single-pack and multi-pack load generators so their workloads stay comparable.
fn mixed_request(rng: &mut StdRng, regime: &crate::pack::RegimePack, id: u64) -> AdviceRequest {
    let horizon = regime.horizon_hours;
    let vm_age = rng.gen_range(0.0..horizon);
    let job_len = rng.gen_range(0.1..0.5 * horizon);
    let roll: f64 = rng.gen();
    let mut request = if roll < 0.40 {
        AdviceRequest::should_reuse(regime.name.clone(), vm_age, job_len)
    } else if roll < 0.65 {
        AdviceRequest::expected_cost_makespan(regime.name.clone(), vm_age, job_len)
    } else if roll < 0.90 {
        let mut req = AdviceRequest::checkpoint_plan(regime.name.clone(), vm_age, job_len);
        let cells = &regime.checkpoint_cells;
        req.overhead_minutes = Some(cells[rng.gen_range(0..cells.len())].checkpoint_cost_minutes);
        req
    } else {
        AdviceRequest::best_policy(regime.name.clone())
    };
    request.id = Some(id);
    request
}

/// Deterministically generates a mixed request workload against `pack` — the load
/// generator behind `advise gen` and the throughput benchmarks (see `mixed_request`
/// for the mix), spread across every regime in the pack.
pub fn generate_requests(pack: &ModelPack, count: usize, seed: u64) -> Vec<AdviceRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut requests = Vec::with_capacity(count);
    for i in 0..count {
        let regime = &pack.regimes[rng.gen_range(0..pack.regimes.len())];
        requests.push(mixed_request(&mut rng, regime, i as u64));
    }
    requests
}

/// Deterministically generates a mixed workload against a per-cell pack set: the same
/// request mix as [`generate_requests`], spread across the pooled pack *and* every
/// routable cell pack (requests carry the `cell` field the router dispatches on), so
/// serving it exercises each cell's own winner-family tables — including the
/// generic-hazard DP of non-bathtub cells.
pub fn generate_multi_requests(multi: &MultiPack, count: usize, seed: u64) -> Vec<AdviceRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut requests = Vec::with_capacity(count);
    for i in 0..count {
        // Target 0 is the pooled pack; 1.. are the cell packs in routing order.
        let target = rng.gen_range(0..multi.cells.len() + 1);
        let (cell_name, pack) = match target {
            0 => (None, &multi.pooled),
            t => {
                let entry = &multi.cells[t - 1];
                (Some(entry.cell.clone()), &entry.pack)
            }
        };
        // lint:allow(panic-policy) load-generator helper, not a request path: packs are validated non-empty before generation
        let mut request = mixed_request(&mut rng, &pack.regimes[0], i as u64);
        request.cell = cell_name;
        requests.push(request);
    }
    requests
}

/// Renders requests as an NDJSON document (newline-terminated).
pub fn requests_to_ndjson(requests: &[AdviceRequest]) -> String {
    let mut out = String::new();
    for request in requests {
        // lint:allow(panic-policy) load-generator helper, not a request path: requests it just built always serialize
        out.push_str(&serde_json::to_string(request).expect("requests serialize"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::tests::{tiny_builder, tiny_spec};
    use crate::engine::RequestKind;

    fn advisor() -> MultiAdvisor {
        MultiAdvisor::from_pack(tiny_builder().build_from_spec(&tiny_spec()).unwrap()).unwrap()
    }

    fn pack() -> ModelPack {
        tiny_builder().build_from_spec(&tiny_spec()).unwrap()
    }

    #[test]
    fn serves_requests_and_reports_errors_in_place() {
        let a = advisor();
        let input = r#"
{"kind": "should-reuse", "regime": "gcp-day", "vm_age": 8.0, "job_len": 6.0, "id": 1}
{"kind": "should-reuse", "vm_age": -3.0, "job_len": 6.0, "id": 2}
not json at all
{"kind": "best-policy", "regime": "exp8", "id": 4}
"#;
        let out = serve_session(&AdvisorHandle::new(a), input, 1);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"id\":1"), "{}", lines[0]);
        assert!(lines[0].contains("\"decision\":\"reuse\""), "{}", lines[0]);
        assert!(
            lines[1].contains("error") && lines[1].contains("vm_age"),
            "{}",
            lines[1]
        );
        assert!(lines[2].contains("parse error"), "{}", lines[2]);
        assert!(lines[3].contains("best-policy"), "{}", lines[3]);
    }

    #[test]
    fn deeply_nested_line_is_a_parse_error_and_serving_goes_on() {
        let a = advisor();
        // 200k `[` once overflowed the recursive parser's stack and aborted the process.
        assert_eq!(
            respond_line(&a, &"[".repeat(200_000)),
            r#"{"error":"parse error: nesting deeper than 128 levels at byte 128","id":null}"#
        );
        let next = respond_line(&a, r#"{"kind": "best-policy", "regime": "exp8", "id": 5}"#);
        assert!(
            next.starts_with(r#"{"kind":"best-policy","id":5,"#),
            "{next}"
        );
    }

    #[test]
    fn output_is_byte_identical_for_any_thread_count() {
        let handle = AdvisorHandle::new(advisor());
        let requests = generate_requests(&pack(), 500, 7);
        let input = requests_to_ndjson(&requests);
        let one = serve_session(&handle, &input, 1);
        let four = serve_session(&handle, &input, 4);
        let eight = serve_session(&handle, &input, 8);
        assert_eq!(one, four);
        assert_eq!(one, eight);
        assert_eq!(one.lines().count(), 500);
    }

    #[test]
    fn generator_is_deterministic_and_covers_every_kind() {
        let pack = pack();
        let r1 = generate_requests(&pack, 300, 11);
        let r2 = generate_requests(&pack, 300, 11);
        assert_eq!(r1, r2);
        let r3 = generate_requests(&pack, 300, 12);
        assert_ne!(r1, r3);
        for kind in [
            RequestKind::ShouldReuse,
            RequestKind::CheckpointPlan,
            RequestKind::ExpectedCostMakespan,
            RequestKind::BestPolicy,
        ] {
            assert!(r1.iter().any(|r| r.kind == kind), "mix is missing {kind}");
        }
        // Every generated request is answerable.
        let a = advisor();
        for request in &r1 {
            a.advise(request).unwrap();
        }
    }

    #[test]
    fn request_round_trips_through_ndjson() {
        let requests = generate_requests(&pack(), 20, 3);
        let text = requests_to_ndjson(&requests);
        for (line, original) in text.lines().zip(&requests) {
            let parsed: AdviceRequest = serde_json::from_str(line).unwrap();
            assert_eq!(&parsed, original);
        }
    }

    #[test]
    fn reload_control_line_swaps_the_pack_mid_stream() {
        // Two packs on disk with different regime names.
        let dir = std::env::temp_dir().join("tcp_advisor_serve_reload_test");
        std::fs::create_dir_all(&dir).unwrap();
        let pack_b_path = dir.join("pack-b.json");
        let spec_b = tcp_scenarios::SweepSpec::from_toml(
            r#"
[sweep]
name = "pack-b"

[[regime]]
name = "exp6"
kind = "exponential"
mean_hours = 6.0

[workload]
dp_step_minutes = 30.0
"#,
        )
        .unwrap();
        let pack_b = tiny_builder().build_from_spec(&spec_b).unwrap();
        std::fs::write(&pack_b_path, pack_b.to_json().unwrap()).unwrap();

        let handle = AdvisorHandle::new(advisor());
        let input = format!(
            "{}\n!reload {}\n{}\n{}\n",
            r#"{"kind": "best-policy", "regime": "gcp-day", "id": 1}"#,
            pack_b_path.display(),
            r#"{"kind": "best-policy", "regime": "exp6", "id": 2}"#,
            r#"{"kind": "best-policy", "regime": "gcp-day", "id": 3}"#,
        );
        let out = serve_session(&handle, &input, 2);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        // Before the reload the old pack answers; its regimes exist.
        assert!(lines[0].contains("\"regime\":\"gcp-day\""), "{}", lines[0]);
        // The control line acknowledges the swap.
        assert!(
            lines[1].contains("\"control\":\"reload\"") && lines[1].contains("pack-b"),
            "{}",
            lines[1]
        );
        // After the reload the new pack answers, and the old regime is gone.
        assert!(lines[2].contains("\"regime\":\"exp6\""), "{}", lines[2]);
        assert!(
            lines[3].contains("error") && lines[3].contains("gcp-day"),
            "{}",
            lines[3]
        );
    }

    #[test]
    fn failed_reload_keeps_serving_the_old_pack() {
        let handle = AdvisorHandle::new(advisor());
        let input = "\
!reload /nonexistent/pack.json
{\"kind\": \"best-policy\", \"regime\": \"gcp-day\", \"id\": 1}
!bogus control
!!stats
";
        let out = serve_session(&handle, input, 1);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(
            lines[0].contains("reload failed") && lines[0].contains("previous pack kept"),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains("\"regime\":\"gcp-day\""), "{}", lines[1]);
        assert!(lines[2].contains("unknown control"), "{}", lines[2]);
        // A doubled `!` is malformed, never an executed control.
        assert!(lines[3].contains("unknown control"), "{}", lines[3]);
    }

    #[test]
    fn session_stats_survive_a_reload() {
        let dir = std::env::temp_dir().join("tcp_advisor_serve_stats_test");
        std::fs::create_dir_all(&dir).unwrap();
        let pack_path = dir.join("pack.json");
        std::fs::write(&pack_path, pack().to_json().unwrap()).unwrap();

        let handle = AdvisorHandle::new(advisor());
        let query = r#"{"kind": "best-policy", "regime": "gcp-day"}"#;
        let input = format!(
            "{query}\n{query}\n!reload {}\n{query}\n",
            pack_path.display()
        );
        let lines: Vec<&str> = input.lines().collect();
        let mut session = Session::new(&handle, 1);
        let mut out = String::new();
        session.process(&lines, &mut out);
        let stats = session.stats();
        assert_eq!(out.lines().count(), 4);
        // Two queries before the swap, one after: all three must be counted even
        // though the swap replaced the advisor (and its live counters) mid-stream.
        assert_eq!(stats.best_policy, 3);
        assert_eq!(stats.total(), 3);
        // The final advisor alone only saw the post-reload query.
        assert_eq!(handle.current().stats().total(), 1);
    }

    #[test]
    fn stats_control_line_reports_the_sharded_counters() {
        let handle = AdvisorHandle::new(advisor());
        let query = r#"{"kind": "best-policy", "regime": "gcp-day"}"#;
        let input = format!("{query}\n{query}\n!stats\n{query}\n!stats\n");
        let out = serve_session(&handle, &input, 1);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
        let first: StatsLine = serde_json::from_str(lines[2]).unwrap();
        assert_eq!(first.control, "stats");
        assert_eq!(first.pack, "tiny-pack");
        assert_eq!(first.cells, 0);
        assert_eq!(first.served.best_policy, 2);
        assert_eq!(first.current.best_policy, 2);
        let second: StatsLine = serde_json::from_str(lines[4]).unwrap();
        assert_eq!(second.served.best_policy, 3);
        assert_eq!(second.served.total(), 3);
        // The per-family histograms ride along: the tiny pack serves bathtub curves
        // and bathtub DP tables, so all three queries land there.
        assert_eq!(second.served_families.get("bathtub"), Some(&3));
        assert_eq!(second.dp_families.get("bathtub"), Some(&3));
    }

    #[test]
    fn metrics_control_line_reports_the_global_registry() {
        let handle = AdvisorHandle::new(advisor());
        let query = r#"{"kind": "best-policy", "regime": "gcp-day"}"#;
        let input = format!("{query}\n!metrics\n");
        let out = serve_session(&handle, &input, 1);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        // The metrics line is valid one-line JSON with the control/metrics envelope.
        let value = serde_json::parse_value(lines[1]).unwrap();
        assert_eq!(
            value.get("control").and_then(|v| v.as_str()),
            Some("metrics")
        );
        let metrics = value.get("metrics").expect("metrics object");
        // The advisor registered its latency histograms at load time; the query above
        // recorded into best_policy (count >= 1 — the registry is process-global, so
        // other tests in this binary may have recorded too).
        let best = metrics
            .get("advisor.latency.best_policy")
            .expect("latency family present");
        assert!(best.get("count").and_then(|v| v.as_u64()).unwrap() >= 1);
        for key in ["p50", "p90", "p99", "p999", "max", "mean", "sum"] {
            assert!(best.get(key).is_some(), "missing {key}");
        }
        // Top-level metric keys are sorted.
        let keys: Vec<&str> = metrics
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn metrics_prom_control_line_carries_the_text_exposition() {
        let handle = AdvisorHandle::new(advisor());
        let query = r#"{"kind": "best-policy", "regime": "gcp-day"}"#;
        let input = format!("{query}\n!metrics prom\n");
        let out = serve_session(&handle, &input, 1);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "one response line per input line");
        let value = serde_json::parse_value(lines[1]).unwrap();
        assert_eq!(
            value.get("control").and_then(|v| v.as_str()),
            Some("metrics")
        );
        assert_eq!(
            value.get("encoding").and_then(|v| v.as_str()),
            Some("prometheus-0.0.4")
        );
        // Unescaping `text` yields real multi-line Prometheus exposition with the
        // advisor's latency families.
        let text = value.get("text").and_then(|v| v.as_str()).unwrap();
        assert!(text.contains("# TYPE advisor_latency_best_policy histogram"));
        assert!(text.contains("advisor_latency_best_policy_bucket{le=\"+Inf\"}"));
        assert!(text.contains("advisor_latency_best_policy_count"));
        assert!(text.lines().count() > 3, "text must be a full exposition");
    }

    #[test]
    fn trace_control_line_returns_recent_ring_contents() {
        let handle = AdvisorHandle::new(advisor());
        // Without configuration the recorder is off: still a valid, empty-or-not
        // envelope (the ring is process-global, so other tests may have committed).
        let out = serve_session(&handle, "!trace\n", 1);
        let value = serde_json::parse_value(out.lines().next().unwrap()).unwrap();
        assert_eq!(value.get("control").and_then(|v| v.as_str()), Some("trace"));
        assert!(value.get("spans").is_some(), "spans array present");
    }

    #[test]
    fn health_control_line_tracks_the_published_report() {
        // One test owns the process-global published report end-to-end (parallel
        // tests in this binary must not touch it): no report → healthy with empty
        // rules; a published degraded report → degraded with the rule states; and
        // clearing restores the default.
        tcp_obs::health::clear_current();
        let handle = AdvisorHandle::new(advisor());
        let out = serve_session(&handle, "!health\n", 1);
        let value = serde_json::parse_value(out.lines().next().unwrap()).unwrap();
        assert_eq!(
            value.get("control").and_then(|v| v.as_str()),
            Some("health")
        );
        let health = value.get("health").expect("health object");
        assert_eq!(
            health.get("verdict").and_then(|v| v.as_str()),
            Some("healthy")
        );
        assert_eq!(
            health.get("rules").and_then(|v| v.as_seq()).unwrap().len(),
            0
        );
        assert!(health
            .get("recent_errors")
            .and_then(|v| v.as_seq())
            .is_some());
        assert!(health.get("uptime_secs").and_then(|v| v.as_f64()).unwrap() >= 0.0);
        let pack = health.get("pack").expect("pack object");
        assert_eq!(pack.get("name").and_then(|v| v.as_str()), Some("tiny-pack"));
        assert_eq!(pack.get("cells").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(
            pack.get("format_version").and_then(|v| v.as_u64()),
            Some(crate::pack::PACK_FORMAT_VERSION as u64)
        );
        assert!(pack.get("age_secs").and_then(|v| v.as_f64()).unwrap() >= 0.0);
        // Health object keys are sorted.
        let keys: Vec<&str> = health
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "health keys must be sorted");

        // A published firing report flips the verdict and carries rule states.
        tcp_obs::health::publish(tcp_obs::health::HealthReport {
            verdict: tcp_obs::health::Verdict::Degraded,
            t_secs: 1.0,
            rules: vec![tcp_obs::health::RuleReport {
                name: "shed-ratio".to_string(),
                severity: tcp_obs::health::Severity::Warn,
                firing: true,
                short_value: 0.5,
                long_value: 0.4,
                threshold: 0.1,
            }],
        });
        let out = serve_session(&handle, "!health\n", 1);
        let value = serde_json::parse_value(out.lines().next().unwrap()).unwrap();
        let health = value.get("health").unwrap();
        assert_eq!(
            health.get("verdict").and_then(|v| v.as_str()),
            Some("degraded")
        );
        let rules = health.get("rules").and_then(|v| v.as_seq()).unwrap();
        assert_eq!(rules.len(), 1);
        assert_eq!(
            rules[0].get("name").and_then(|v| v.as_str()),
            Some("shed-ratio")
        );
        assert_eq!(rules[0].get("firing").and_then(|v| v.as_bool()), Some(true));
        tcp_obs::health::clear_current();
    }

    #[test]
    fn stats_line_reports_pack_age_and_version() {
        let handle = AdvisorHandle::new(advisor());
        let out = serve_session(&handle, "!stats\n", 1);
        let stats: StatsLine = serde_json::from_str(out.lines().next().unwrap()).unwrap();
        assert!(stats.pack_age_secs >= 0.0);
        // A fresh handle stamped the gauge moments ago.
        assert!(stats.pack_age_secs < 60.0, "{}", stats.pack_age_secs);
        assert_eq!(stats.pack_format_version, crate::pack::PACK_FORMAT_VERSION);
    }

    #[test]
    fn stats_line_keys_are_sorted() {
        let handle = AdvisorHandle::new(advisor());
        let out = serve_session(&handle, "!stats\n", 1);
        let line = out.lines().next().unwrap();
        let value = serde_json::parse_value(line).unwrap();
        let keys: Vec<&str> = value
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        // The whole top-level schema, in order: `crates/serve/src/lib.rs`
        // documents exactly these keys.
        assert_eq!(
            keys,
            [
                "cells",
                "control",
                "current",
                "dp_families",
                "pack",
                "pack_age_secs",
                "pack_format_version",
                "served",
                "served_families",
                "uptime_secs",
            ],
            "top-level !stats keys must be the documented schema, sorted"
        );
        for stats_key in ["current", "served"] {
            let nested: Vec<&str> = value
                .get(stats_key)
                .unwrap()
                .as_map()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let mut nested_sorted = nested.clone();
            nested_sorted.sort_unstable();
            assert_eq!(nested, nested_sorted, "{stats_key} keys must be sorted");
        }
    }

    #[test]
    fn stats_uptime_agrees_with_health_epoch() {
        let handle = AdvisorHandle::new(advisor());
        let out = serve_session(&handle, "!stats\n!health\n", 1);
        let lines: Vec<&str> = out.lines().collect();
        let stats: StatsLine = serde_json::from_str(lines[0]).unwrap();
        assert!(stats.uptime_secs >= 0.0);
        let health = serde_json::parse_value(lines[1]).unwrap();
        let health_uptime = health
            .get("health")
            .and_then(|h| h.get("uptime_secs"))
            .and_then(|v| v.as_f64())
            .unwrap();
        // Same shared monotonic epoch: the later probe reads a larger-or-equal
        // offset, and the two can only differ by the time between the probes.
        assert!(health_uptime >= stats.uptime_secs);
        assert!(health_uptime - stats.uptime_secs < 60.0);
    }

    #[test]
    fn profile_control_line_reports_wall_and_alloc_with_sorted_keys() {
        let handle = AdvisorHandle::new(advisor());
        let out = serve_session(&handle, "!profile\n", 1);
        let line = out.lines().next().unwrap();
        let value = serde_json::parse_value(line).unwrap();
        assert_eq!(
            value.get("control").and_then(|v| v.as_str()),
            Some("profile")
        );
        let profile = value.get("profile").unwrap();
        for (outer, inner) in [("alloc", "allocs"), ("wall", "ticks")] {
            assert!(
                profile
                    .get(outer)
                    .and_then(|o| o.get(inner))
                    .and_then(|v| v.as_u64())
                    .is_some(),
                "missing {outer}.{inner} in {line}"
            );
        }
        let keys: Vec<&str> = profile
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "!profile keys must be sorted");
    }

    #[test]
    fn multi_request_generator_spreads_over_cells_deterministically() {
        let multi = crate::router::tests::multi_pack(0);
        let requests = generate_multi_requests(&multi, 400, 7);
        assert_eq!(requests, generate_multi_requests(&multi, 400, 7));
        // The load touches the pooled pack and at least one real cell.
        assert!(requests.iter().any(|r| r.cell.is_none()));
        assert!(requests.iter().any(|r| r.cell.is_some()));
        // Every generated request is answerable by the router, and serving them is
        // byte-identical across thread counts (the determinism smoke's contract).
        let handle = AdvisorHandle::new(MultiAdvisor::from_multi(multi).unwrap());
        let input = requests_to_ndjson(&requests);
        let one = serve_session(&handle, &input, 1);
        let four = serve_session(&handle, &input, 4);
        assert_eq!(one, four);
        assert!(!one.contains("\"error\""), "all requests answerable");
        // Per-family counters cover more than one family (per-cell winners differ).
        assert!(handle.current().family_stats().served.len() > 1);
    }

    #[test]
    fn session_output_does_not_depend_on_how_lines_are_sliced() {
        // The TCP front end feeds a Session whatever slice of lines arrived on the
        // socket; the bytes must match the file front end, which feeds everything at
        // once.
        let requests = generate_requests(&pack(), 120, 23);
        let input = requests_to_ndjson(&requests);
        let lines: Vec<&str> = input.lines().collect();
        let whole = serve_session(&AdvisorHandle::new(advisor()), &input, 2);
        let handle = AdvisorHandle::new(advisor());
        let mut session = Session::new(&handle, 2);
        let mut sliced = String::new();
        for chunk in lines.chunks(7) {
            session.process(chunk, &mut sliced);
        }
        assert_eq!(whole, sliced);
        assert_eq!(session.stats().total(), 120);
    }
}
