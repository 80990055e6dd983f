//! `tcp-serve` — the advisor's concurrent network front end.
//!
//! PR 2 made the paper's model tables queryable and PR 3 calibrated them from traces,
//! but the `advise` binary still read NDJSON from files: no real client could reach the
//! advisor.  This crate puts the query engine behind a socket, keeping the protocol and
//! the bytes identical to batch mode:
//!
//! * [`server`] — a long-lived `std::net::TcpListener` accept loop dispatching
//!   connections to a fixed worker pool.  Each connection speaks the NDJSON advisory
//!   protocol through the same [`tcp_advisor::Session`] engine as `advise serve`, so a
//!   request stream produces byte-identical responses over the wire and from a file.
//!   Malformed lines get typed error responses (never a dropped connection), a bounded
//!   in-flight request budget sheds load with typed 503-style [`OverloadLine`]s (never
//!   a silent drop), `!reload` hot-swaps packs without a restart, `!stats` / `!metrics`
//!   answer health probes, and `!shutdown` drains in-flight requests before exit;
//! * [`client`] — a minimal loopback client (one connection, concurrent writer/reader)
//!   used by the `advise connect` CLI, the tests and CI smoke.
//!
//! The `advise` binary lives here (it needs both the advisor and the server): the
//! offline commands (`build` / `gen` / `serve`) are unchanged, and `listen` /
//! `connect` add the network path.  `advise listen --metrics-file
//! <path> [--metrics-interval <s>]` additionally writes the process-global
//! [`tcp_obs::Registry`] as a Prometheus text exposition on a timer (atomic
//! write-then-rename; one final write after the drain), and `--trace-file <path>
//! [--trace-sample 1/N] [--trace-slow-us T]` arms the [`tcp_obs::trace`] flight
//! recorder and dumps it as Chrome trace-event JSON at shutdown (same atomic
//! discipline; load the file in `chrome://tracing` or Perfetto).
//! `--slo <file> [--alert-log <path>]` arms the [`tcp_obs::health`] rolling-window
//! SLO evaluator: declarative burn-rate rules are checked against registry
//! snapshots on a tick, `!health` reports the verdict and per-rule states, and
//! alert transitions append to the alert log as JSON lines.  [`mod@top`] (`advise
//! top`) is the matching live terminal dashboard: it polls `!metrics prom` +
//! `!health` and renders windowed qps/p50/p99/shed%/alerts (`--once` emits one
//! machine-readable JSON snapshot instead).
//!
//! ```text
//! pack.json ──advise listen──▶ 127.0.0.1:PORT ◀──advise connect── requests.ndjson
//!                 │ workers × connections, shared Arc'd pack,
//!                 │ bounded in-flight budget, !reload/!stats/!metrics/!trace/!shutdown
//!                 ├──[--metrics-file]──▶ metrics.prom (Prometheus text exposition)
//!                 └──[--trace-file]───▶ trace.json (Chrome trace events, at drain)
//! ```
//!
//! # Control-line schemas
//!
//! `!stats` answers with one JSON object per probe ([`tcp_advisor::StatsLine`]); keys
//! are deterministically sorted at every level (struct fields are declared
//! alphabetically, nested maps are `BTreeMap`s):
//!
//! ```json
//! {"cells": 0,
//!  "control": "stats",
//!  "current":  {"best_policy": 2, "checkpoint_plan": 0, "expected_cost_makespan": 0, "should_reuse": 0},
//!  "dp_families": {"bathtub": 2},
//!  "pack": "tiny-pack",
//!  "pack_age_secs": 12.5,
//!  "pack_format_version": 3,
//!  "served":   {"best_policy": 2, "checkpoint_plan": 0, "expected_cost_makespan": 0, "should_reuse": 0},
//!  "served_families": {"bathtub": 2},
//!  "uptime_secs": 42.0}
//! ```
//!
//! * `cells` — routable cell packs currently loaded (`0` for a single pack);
//! * `current` — query counters of the pack currently being served (server-wide since
//!   the last `!reload`);
//! * `pack_age_secs` — seconds since the served pack was loaded or reloaded;
//! * `pack_format_version` — the served pack's format version;
//! * `served` — counters summed over every pack this *session* (connection) has
//!   served from, surviving reloads;
//! * `served_families` / `dp_families` — queries per model family of the answering
//!   regime's served curves / DP tables (non-zero entries only, sorted);
//! * `uptime_secs` — seconds since the process's observability epoch, the clock
//!   `!health` reports too.
//!
//! The two clock fields make every document that contains a `!stats` line answer
//! differently from run to run, in file mode (`advise serve`) as over TCP; every
//! other answer byte is deterministic.
//!
//! `!metrics` answers with `{"control":"metrics","metrics":{...}}` where `metrics` is
//! the process-global registry snapshot: counters as integers, gauges as numbers, and
//! histograms as `{"count","sum","mean","p50","p90","p99","p999","max"}` objects
//! (latency in nanoseconds), again with sorted keys.  Scope is the whole process
//! across reloads and connections — `!stats` is the pack/session view, `!metrics`
//! the fleet view.
//!
//! `!metrics prom` answers with the same registry rendered as Prometheus text
//! exposition format 0.0.4, wrapped in one JSON line so the one-response-per-line
//! protocol holds (the multi-line exposition is JSON-escaped under `text`):
//!
//! ```json
//! {"control":"metrics","encoding":"prometheus-0.0.4","text":"# TYPE ... counter\n..."}
//! ```
//!
//! Unescape `text` to recover exactly the bytes a `--metrics-file` scrape would
//! read: `# TYPE` headers, counter/gauge samples, and cumulative histogram
//! `_bucket{le=...}` / `_sum` / `_count` series per family.
//!
//! `!trace` answers with `{"control":"trace","spans":[...]}` — the flight recorder's
//! currently retained spans (most recent per thread lane, bounded), each span a
//! sorted-key object `{"arg","dur_ns","lane","parent","site","slow","span",
//! "start_ns","trace"}`.  Arm the recorder with `--trace-sample` / `--trace-slow-us`
//! (or `--trace-file`, which implies sampling everything); unarmed servers answer
//! with an empty `spans` array.
//!
//! `!health` answers with `{"control":"health","health":{...}}` — the health
//! object carries (sorted keys) `pack` (`{"age_secs","cells","format_version",
//! "name"}`), `recent_errors` (the event log's bounded warn/error ring, each
//! record a sorted-key object), `rules` (per-SLO-rule
//! `{"firing","long_value","name","severity","short_value","threshold"}`),
//! `uptime_secs`, and `verdict` (`"healthy"` / `"degraded"` / `"unhealthy"`).
//! Without `--slo` the verdict is `"healthy"` with an empty rule list, so health
//! probes work against any server.
//!
//! Responses for *request* lines are never affected by metrics, tracing, the SLO
//! evaluator, or event logging: instrumentation is strictly out-of-band, so served
//! bytes stay identical across `--threads`, `--workers`, metrics-enabled/disabled,
//! traced/untraced, and SLO-armed/unarmed runs.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod client;
mod connection;
pub mod server;
pub mod top;

pub use client::run_client;
pub use server::{OverloadLine, ServeOptions, Server, ServerReport, ShutdownLine, MAX_LINE_BYTES};
pub use top::{run_top, TopOptions};
