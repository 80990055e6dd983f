//! `tcp-obs`: a zero-dependency observability core for the workspace.
//!
//! The ROADMAP's north star is a production serving system, and a serving system is
//! blind without metrics.  This crate provides the minimal but complete core the
//! rest of the workspace instruments against:
//!
//! - **[`Counter`]** — monotone event counts, sharded across cache-line-padded cells
//!   (the same trick the advisor's query stats already used) so hot-path increments
//!   never contend.
//! - **[`Gauge`]** — last-write-wins instantaneous values (queue depth, in-flight
//!   requests, drift statistics) stored as `f64` bits in one atomic.
//! - **[`Histogram`]** — log-bucketed latency histograms: exact below 16, eight
//!   linear sub-buckets per power-of-two octave above, bounding quantile estimates
//!   (p50/p90/p99) to ≤ 6.25 % relative error while recording stays a handful of
//!   relaxed atomic adds.
//! - **[`Registry`]** — a named, process-global home for all of the above; snapshots
//!   iterate names in sorted order so every export is deterministic.
//! - **[`SpanTimer`]** and the [`time!`] macro — RAII span timing into a histogram,
//!   with a per-call-site cached handle so steady-state cost is one `Instant::now`
//!   pair and one histogram record.
//! - **Exposition** — [`RegistrySnapshot::to_json_line`] (one line of sorted-key
//!   JSON for log pipelines) and [`RegistrySnapshot::to_prometheus`] (text
//!   exposition format 0.0.4 for scraping).
//! - **[`trace`]** — request-scoped structured tracing: one RAII span guard on
//!   an implicit thread-local stack ([`span!`] / [`root_span!`]), a per-thread
//!   flight-recorder ring buffer, deterministic `1/N` trace sampling, a
//!   slow-request log, and Chrome trace-event / per-site summary exporters.
//!   [`trace::RING_CAPACITY`] bounds both a ring and a trace, and a lapped
//!   trace loses leaves before parents.  Aggregates say how the fleet is doing;
//!   traces say where one request's time went.
//! - **[`log`]** — a leveled structured event log ([`event!`]): one-line sorted-key
//!   JSON records with per-site token-bucket rate limiting and a bounded ring of
//!   recent warn/error events (surfaced by the serve layer's `!health` line).
//! - **[`health`]** — the consumption layer over the registry: a rolling-window
//!   SLO engine evaluating declarative burn-rate rules (short + long windows)
//!   against snapshot deltas, producing typed firing/resolved [`health::Alert`]s
//!   and a published [`health::HealthReport`] verdict.
//! - **[`profile`]** — continuous profiling: a wall-clock sampler folding every
//!   thread's mirrored span stack into collapsed stacks ([`profile::arm`]), an
//!   allocation profiler ([`profile::CountingAlloc`]) attributing allocs/bytes
//!   to the innermost span site, and exporters — inferno-style collapsed text,
//!   a self-rendered standalone flamegraph SVG, and the `!profile` JSON.
//! - **[`Periodic`]** — the one background loop: a named thread running a tick
//!   every period until dropped.  The SLO evaluator, the profiler's sampler, the
//!   `advise listen --metrics-file` writer and the `sweep --heartbeat` printer
//!   all run on it.
//!
//! # Determinism contract
//!
//! Instrumentation must never change what a run *produces*, only what it *reports*.
//! Metrics therefore live strictly outside result streams: the serve layer answers
//! `!metrics` control lines in place and writes exposition files out-of-band, and
//! nothing in this crate feeds back into scheduling or policy decisions.  Latency
//! recording (histograms and span timers) can additionally be disabled process-wide
//! with [`set_enabled`]`(false)` — counters and gauges stay live because
//! user-facing surfaces (the advisor's `!stats`) are built on them.
//!
//! # Example
//!
//! ```
//! use tcp_obs as obs;
//!
//! let served = obs::counter("example.requests.served");
//! served.incr();
//!
//! {
//!     let _span = obs::time!("example.handler");
//!     // ... work being timed ...
//! }
//!
//! let snapshot = obs::Registry::global().snapshot();
//! let json = snapshot.to_json_line();       // {"example.handler":{...},...}
//! let prom = snapshot.to_prometheus();      // # TYPE example_handler histogram ...
//! assert!(json.contains("\"example.requests.served\":1"));
//! assert!(prom.contains("example_requests_served 1"));
//! ```
#![deny(missing_docs)]
// `deny`, not `forbid`: the one sanctioned exception is the `GlobalAlloc`
// delegation in [`profile`], which carries its own scoped `allow` + SAFETY note.
#![deny(unsafe_code)]

pub mod cli;
mod export;
pub mod health;
mod hist;
mod lane;
pub mod log;
mod pad;
mod periodic;
pub mod profile;
mod registry;
pub mod trace;

pub use export::{RegistrySnapshot, SnapshotValue};
pub use hist::{Histogram, HistogramSnapshot, BUCKETS};
pub use periodic::Periodic;
pub use registry::{Counter, Gauge, Registry};

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// A count delta over an elapsed wall-clock interval as an events-per-second rate
/// (0 when the interval is non-positive or degenerate).
///
/// This is *the* windowed-rate definition for the workspace: `advise top` qps,
/// the sweep heartbeat's trials-per-second, and the SLO engine's `rate` signals
/// all divide the same way, so their numbers agree on the same window.
pub fn rate_per_sec(count_delta: u64, elapsed_secs: f64) -> f64 {
    if elapsed_secs.is_finite() && elapsed_secs > 0.0 {
        count_delta as f64 / elapsed_secs
    } else {
        0.0
    }
}

/// Whether latency instrumentation (histograms, span timers) records.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enables or disables latency recording.
///
/// Only histograms and span timers are gated: counters and gauges keep recording
/// because user-facing surfaces (`!stats`) depend on them.  Intended for startup
/// configuration (`advise listen --no-metrics`) and for tests that compare
/// metrics-on vs metrics-off behaviour.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether latency recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Shorthand for [`Registry::global`]`.counter(name)`.
pub fn counter(name: &str) -> &'static Counter {
    Registry::global().counter(name)
}

/// Shorthand for [`Registry::global`]`.gauge(name)`.
pub fn gauge(name: &str) -> &'static Gauge {
    Registry::global().gauge(name)
}

/// Shorthand for [`Registry::global`]`.histogram(name)`.
pub fn histogram(name: &str) -> &'static Histogram {
    Registry::global().histogram(name)
}

/// An RAII span timer: started against a histogram, records elapsed nanoseconds on
/// drop (unless recording is disabled).
///
/// Most call sites use the [`time!`] macro, which also caches the registry lookup.
#[must_use = "a span timer measures until dropped; binding it to `_` drops immediately"]
pub struct SpanTimer {
    histogram: Option<&'static Histogram>,
    started: Instant,
}

impl SpanTimer {
    /// Starts timing into `histogram`.
    pub fn start(histogram: &'static Histogram) -> Self {
        SpanTimer {
            histogram: Some(histogram),
            started: Instant::now(),
        }
    }

    /// A timer that records nowhere (used when recording is disabled, so disabled
    /// spans skip even the histogram lookup).
    pub fn disabled() -> Self {
        SpanTimer {
            histogram: None,
            started: Instant::now(),
        }
    }

    /// Elapsed time so far.
    pub fn elapsed(&self) -> std::time::Duration {
        self.started.elapsed()
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some(histogram) = self.histogram {
            histogram.record_duration(self.started.elapsed());
        }
    }
}

/// Times a span into a global histogram: `let _span = obs::time!("advisor.query");`.
///
/// The histogram handle is resolved once per call site (cached in a `OnceLock`), so
/// the steady-state cost is an `Instant::now` pair plus one histogram record.  When
/// recording is disabled ([`set_enabled`]`(false)`), returns a no-op timer without
/// touching the registry.
#[macro_export]
macro_rules! time {
    ($name:expr) => {{
        if $crate::enabled() {
            static SITE: ::std::sync::OnceLock<&'static $crate::Histogram> =
                ::std::sync::OnceLock::new();
            $crate::SpanTimer::start(SITE.get_or_init(|| $crate::histogram($name)))
        } else {
            $crate::SpanTimer::disabled()
        }
    }};
}

/// Opens a trace span nested in the current thread's active trace:
/// `let _span = obs::span!("advisor.route");` (optionally with a `u64` payload,
/// `obs::span!("serve.batch.flush", batch_len)`).
///
/// The site id is interned once per call site (cached in a `OnceLock`).  When
/// neither tracing nor the profiler is on the cost is one relaxed atomic load;
/// when no trace is active on this thread the span is inert (but still feeds
/// the profiler's stack mirror while armed).  See [`trace::Span::enter`].
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span!($name, 0u64)
    };
    ($name:expr, $arg:expr) => {{
        if $crate::trace::instrumented() {
            static SITE: ::std::sync::OnceLock<u32> = ::std::sync::OnceLock::new();
            $crate::trace::Span::enter(
                *SITE.get_or_init(|| $crate::trace::site_id($name)),
                $arg as u64,
            )
        } else {
            $crate::trace::Span::inert()
        }
    }};
}

/// Opens a request-scoped trace root, deterministically sampled by `seed`:
/// `let _root = obs::root_span!("serve.request", ordinal);` (optionally with a
/// `u64` payload as the third argument).
///
/// If the thread already has an active trace the root nests as a child span, so
/// per-request roots compose with an enclosing per-connection root.  At drop the
/// trace commits to the flight recorder if sampled — or, regardless of sampling,
/// if the root reached the configured slow threshold.  The guard is the same
/// [`trace::Span`] type [`span!`] returns; see [`trace::Span::root`].
#[macro_export]
macro_rules! root_span {
    ($name:expr, $seed:expr) => {
        $crate::root_span!($name, $seed, 0u64)
    };
    ($name:expr, $seed:expr, $arg:expr) => {{
        if $crate::trace::instrumented() {
            static SITE: ::std::sync::OnceLock<u32> = ::std::sync::OnceLock::new();
            $crate::trace::Span::root(
                *SITE.get_or_init(|| $crate::trace::site_id($name)),
                $seed as u64,
                $arg as u64,
            )
        } else {
            $crate::trace::Span::inert()
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_timer_records_on_drop() {
        let r = Registry::new();
        let h = r.histogram("span.drop");
        {
            let _span = SpanTimer::start(h);
            std::hint::black_box(0u64);
        }
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn time_macro_uses_the_global_registry() {
        {
            let _span = time!("obs.test.time_macro");
        }
        let snap = Registry::global()
            .histogram_snapshot("obs.test.time_macro")
            .expect("histogram registered by the macro");
        assert!(snap.count >= 1);
    }
}
