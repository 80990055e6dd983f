//! Structured tracing: request-scoped spans, a flight-recorder ring buffer, and
//! Chrome-trace/summary exporters.
//!
//! Aggregate metrics (the rest of this crate) answer "how is the fleet doing?";
//! tracing answers "where did *this* request's time go?".  The design is layered on
//! the registry idioms — zero dependencies, lock-free writers, deterministic
//! exports — and obeys the same contract: tracing never changes what a run
//! produces, only what it reports.
//!
//! # Model
//!
//! * A **span** is one timed region of one request: a site name (interned to a
//!   `u32` id), a start offset and duration in monotonic nanoseconds since the
//!   process trace epoch, a small `u64` argument, and its position in a tree
//!   (`trace_id`, `span_id`, `parent_id`).
//! * Spans nest through an implicit thread-local stack: [`RootSpan`] opens a
//!   request-scoped trace, [`Span`] guards opened underneath it become children of
//!   whatever is innermost, and everything is RAII — no context threading by hand.
//!   (See the [`crate::root_span!`] and [`crate::span!`] macros.)
//! * Completed traces are committed to the **flight recorder**: per-thread
//!   fixed-capacity ring buffers ([`RING_CAPACITY`] records each) that the owning
//!   thread writes without locks and any thread snapshots via [`recent_spans`].
//!   Memory is bounded; old records are overwritten, never reallocated.
//! * **Sampling** is deterministic: a request is traced iff
//!   `mix64(seed) % sample_every == 0`, where `seed` is a caller-supplied request
//!   ordinal — no wall-clock, no RNG, so a given corpus samples the same requests
//!   on every run and byte-determinism of anything derived from inputs survives.
//! * The **slow-request log**: when a slow threshold is configured, every root is
//!   provisionally traced and any root whose duration reaches the threshold is
//!   committed with its full subtree — even if sampling would have skipped it —
//!   and flagged [`FLAG_SLOW`].
//!
//! # Determinism and cost
//!
//! Tracing is disabled until [`configure`] turns it on; a disabled [`Span`]
//! creation is one relaxed atomic load.  Active spans cost two `Instant::now`
//! calls plus a thread-local vector push.  Nothing here feeds back into
//! scheduling, and exporters iterate sorted data, so exports are deterministic
//! given the same records.

use crate::lane::{Lanes, LocalLane, SeqLock};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Records each per-thread ring buffer holds before overwriting the oldest.
pub const RING_CAPACITY: usize = 4096;

/// Hard cap on spans buffered inside one in-flight trace (runaway-recursion guard):
/// spans opened beyond this are dropped and counted in `trace.spans.truncated`.
pub const MAX_SPANS_PER_TRACE: usize = 8192;

/// Flag bit set on a root span that was force-retained by the slow-request log.
pub const FLAG_SLOW: u16 = 1;

const WORDS: usize = 8;

/// `1/N` sampling rate: trace a root iff `mix64(seed) % N == 0` (`0` = never).
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(0);
/// Slow-request threshold in nanoseconds (`0` = no slow log).
static SLOW_NS: AtomicU64 = AtomicU64::new(0);
/// Fast-path gate bitmask ([`GATE_TRACE`] | [`GATE_PROFILE`]): the disabled
/// span path is still one relaxed load covering both consumers.
static GATES: AtomicU64 = AtomicU64::new(0);
/// Process-global span id allocator (0 is reserved for "no parent").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Gate bit: tracing is configured (sampling or the slow log is on).
const GATE_TRACE: u64 = 1;
/// Gate bit: the wall-clock profiler is armed and wants stack mirrors kept.
const GATE_PROFILE: u64 = 2;

#[inline]
fn gates() -> u64 {
    GATES.load(Ordering::Relaxed)
}

/// Configures tracing process-wide.
///
/// `sample_every` is the `1/N` sampling rate (`0` disables sampling);
/// `slow_threshold_ns` force-retains any root at least that slow (`0` disables the
/// slow log).  Tracing is active iff either is non-zero.  Also pins the trace
/// epoch, so spans recorded after configuration have non-negative offsets.
pub fn configure(sample_every: u64, slow_threshold_ns: u64) {
    epoch();
    SAMPLE_EVERY.store(sample_every, Ordering::Relaxed);
    SLOW_NS.store(slow_threshold_ns, Ordering::Relaxed);
    let on = sample_every > 0 || slow_threshold_ns > 0;
    if on {
        GATES.fetch_or(GATE_TRACE, Ordering::Relaxed);
    } else {
        GATES.fetch_and(!GATE_TRACE, Ordering::Relaxed);
    }
}

/// Opens or closes the profiler gate bit (called by [`crate::profile::arm`] /
/// [`crate::profile::disarm`]); orthogonal to [`configure`].
pub(crate) fn set_profile_gate(on: bool) {
    if on {
        epoch();
        GATES.fetch_or(GATE_PROFILE, Ordering::Relaxed);
    } else {
        GATES.fetch_and(!GATE_PROFILE, Ordering::Relaxed);
    }
}

/// The configured `1/N` sampling rate (`0` = sampling off).
pub fn sample_every() -> u64 {
    SAMPLE_EVERY.load(Ordering::Relaxed)
}

/// The configured slow-request threshold in nanoseconds (`0` = slow log off).
pub fn slow_threshold_ns() -> u64 {
    SLOW_NS.load(Ordering::Relaxed)
}

/// Whether tracing is configured on (the disabled-span fast path: one relaxed load).
#[inline]
pub fn tracing_configured() -> bool {
    gates() & GATE_TRACE != 0
}

/// Whether *any* span consumer is live — tracing configured or the profiler
/// armed.  This is the gate the [`crate::span!`] / [`crate::root_span!`]
/// macros check: still one relaxed load on the all-off fast path.
#[inline]
pub fn instrumented() -> bool {
    gates() != 0
}

/// SplitMix64 finalizer: the deterministic sampling hash.
///
/// Bijective over `u64`, so distinct seeds (request ordinals) never collide, and
/// well mixed, so `mix64(seed) % N` samples uniformly even for sequential seeds.
pub fn mix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether the root with sampling seed `seed` is selected at the current rate.
pub fn sampled(seed: u64) -> bool {
    let every = sample_every();
    every > 0 && mix64(seed).is_multiple_of(every)
}

/// The process trace epoch: all span offsets are nanoseconds since this instant.
/// Shared with the event log and the health evaluator so every observability
/// timestamp in the process measures from the same zero.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub(crate) fn since_epoch_ns(at: Instant) -> u64 {
    at.checked_duration_since(epoch())
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Site interning
// ---------------------------------------------------------------------------

struct SiteTable {
    by_name: BTreeMap<String, u32>,
    names: Vec<String>,
}

static SITES: Mutex<SiteTable> = Mutex::new(SiteTable {
    by_name: BTreeMap::new(),
    names: Vec::new(),
});

/// Interns `name` (a dotted site path like `"serve.request"`) to a stable `u32` id.
///
/// Call sites cache the id (the [`crate::span!`] macro does this in a `OnceLock`),
/// so the short mutex here is paid once per site, not per span.
pub fn site_id(name: &str) -> u32 {
    let mut table = SITES.lock().expect("trace site table poisoned");
    if let Some(&id) = table.by_name.get(name) {
        return id;
    }
    let id = table.names.len() as u32;
    table.names.push(name.to_string());
    table.by_name.insert(name.to_string(), id);
    id
}

/// The name interned under `id` (`"?"` if the id was never issued).
pub fn site_name(id: u32) -> String {
    let table = SITES.lock().expect("trace site table poisoned");
    table
        .names
        .get(id as usize)
        .cloned()
        .unwrap_or_else(|| "?".to_string())
}

// ---------------------------------------------------------------------------
// Records and the flight-recorder ring
// ---------------------------------------------------------------------------

/// One completed span, as stored in (and drained from) the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace (request) this span belongs to; deterministic for a given seed.
    pub trace_id: u64,
    /// This span's process-unique id.
    pub span_id: u64,
    /// The enclosing span's id (`0` for a trace root).
    pub parent_id: u64,
    /// Interned site id (resolve with [`site_name`]).
    pub site: u32,
    /// Flight-recorder lane (the committing thread's ring index).
    pub lane: u16,
    /// Flag bits ([`FLAG_SLOW`]).
    pub flags: u16,
    /// Start offset in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Small caller-supplied payload (batch size, request ordinal, …).
    pub arg: u64,
}

/// One thread's flight-recorder lane: a fixed ring of seqlock-guarded slots.  Only
/// the owning thread writes; any thread may snapshot.  A slot holds one record in
/// words 0–6 and its ring position in word 7, so a snapshot drops a slot that a
/// concurrent write tore or that the writer has since lapped.
struct Ring {
    lane: u16,
    slots: Box<[SeqLock<WORDS>]>,
    head: AtomicU64,
}

/// The word-7 position of a slot that holds no record.
const EMPTY_SLOT: u64 = u64::MAX;

impl Ring {
    fn new(lane: u16) -> Ring {
        Ring {
            lane,
            slots: (0..RING_CAPACITY).map(|_| SeqLock::new()).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Appends one record (owning thread only).
    fn push(&self, r: &SpanRecord) {
        let seq = self.head.load(Ordering::Relaxed);
        self.slots[seq as usize % RING_CAPACITY].write(|w| {
            w[0].store(r.trace_id, Ordering::Relaxed);
            w[1].store(r.span_id, Ordering::Relaxed);
            w[2].store(r.parent_id, Ordering::Relaxed);
            w[3].store(
                r.site as u64 | ((r.lane as u64) << 32) | ((r.flags as u64) << 48),
                Ordering::Relaxed,
            );
            w[4].store(r.start_ns, Ordering::Relaxed);
            w[5].store(r.dur_ns, Ordering::Relaxed);
            w[6].store(r.arg, Ordering::Relaxed);
            w[7].store(seq, Ordering::Relaxed);
        });
        self.head.store(seq + 1, Ordering::Release);
    }

    /// Copies the ring's current contents (oldest first), skipping torn slots.
    fn collect(&self, out: &mut Vec<SpanRecord>) {
        let head = self.head.load(Ordering::Acquire);
        let n = head.min(RING_CAPACITY as u64);
        for seq in head - n..head {
            let copied = self.slots[seq as usize % RING_CAPACITY].read(|w| {
                let packed = w[3].load(Ordering::Relaxed);
                let record = SpanRecord {
                    trace_id: w[0].load(Ordering::Relaxed),
                    span_id: w[1].load(Ordering::Relaxed),
                    parent_id: w[2].load(Ordering::Relaxed),
                    site: packed as u32,
                    lane: (packed >> 32) as u16,
                    flags: (packed >> 48) as u16,
                    start_ns: w[4].load(Ordering::Relaxed),
                    dur_ns: w[5].load(Ordering::Relaxed),
                    arg: w[6].load(Ordering::Relaxed),
                };
                (w[7].load(Ordering::Relaxed), record)
            });
            if let Some((position, record)) = copied {
                if position == seq {
                    out.push(record);
                }
            }
        }
    }

    fn clear(&self) {
        for slot in self.slots.iter() {
            slot.write(|w| w[7].store(EMPTY_SLOT, Ordering::Relaxed));
        }
        self.head.store(0, Ordering::Release);
    }
}

static RECORDERS: Lanes<Ring> = Lanes::new();

thread_local! {
    static THREAD_RING: LocalLane<Ring> = const { RefCell::new(None) };
}

/// Snapshots the flight recorder: every lane's current contents, merged and sorted
/// by `(start_ns, span_id)` so the view is deterministic for a given set of records.
///
/// This is a copy, not a drain — records stay in their rings until overwritten, so
/// repeated probes (the `!trace` control line) see a sliding window of recent
/// activity without stealing it from a later exporter.
pub fn recent_spans() -> Vec<SpanRecord> {
    let mut out = Vec::new();
    for ring in RECORDERS.snapshot() {
        ring.collect(&mut out);
    }
    out.sort_by_key(|r| (r.start_ns, r.span_id));
    out
}

/// Empties every lane of the flight recorder.
///
/// Writers racing this keep working (their next commit simply lands in the cleared
/// ring); intended for tests and benchmarks that need a known-empty recorder.
pub fn clear() {
    for ring in RECORDERS.snapshot() {
        ring.clear();
    }
}

// ---------------------------------------------------------------------------
// Active traces: the thread-local span stack
// ---------------------------------------------------------------------------

struct ActiveTrace {
    trace_id: u64,
    is_sampled: bool,
    /// Indices into `spans` of the currently open ancestors, innermost last.
    stack: Vec<usize>,
    /// Every span of this trace, committed or discarded wholesale at root exit.
    spans: Vec<SpanRecord>,
    truncated: u64,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

struct TraceCounters {
    roots_sampled: &'static crate::Counter,
    roots_slow: &'static crate::Counter,
    roots_discarded: &'static crate::Counter,
    spans_committed: &'static crate::Counter,
    spans_truncated: &'static crate::Counter,
}

fn trace_counters() -> &'static TraceCounters {
    static COUNTERS: OnceLock<TraceCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| TraceCounters {
        roots_sampled: crate::counter("trace.roots.sampled"),
        roots_slow: crate::counter("trace.roots.slow_retained"),
        roots_discarded: crate::counter("trace.roots.discarded"),
        spans_committed: crate::counter("trace.spans.committed"),
        spans_truncated: crate::counter("trace.spans.truncated"),
    })
}

/// An RAII guard for a span nested inside the current thread's active trace.
///
/// Created by [`Span::enter`] (usually via the [`crate::span!`] macro).  Inert —
/// a no-op shell — when tracing is off or no trace is active on this thread, so
/// instrumented code needs no conditionals.
#[must_use = "a span measures until dropped; binding it to `_` drops immediately"]
pub struct Span {
    /// Index into the active trace's span buffer, or `usize::MAX` when inert.
    index: usize,
    started: Option<Instant>,
    /// Whether this guard pushed the profiler's stack mirror and owes a pop.
    mirror_pushed: bool,
}

impl Span {
    /// A span that records nothing.
    pub fn inert() -> Span {
        // No clock read: the inert guard must cost nothing beyond its construction.
        Span {
            index: usize::MAX,
            started: None,
            mirror_pushed: false,
        }
    }

    /// Opens a child of the innermost open span on this thread, carrying `arg`.
    ///
    /// Inert when neither tracing nor the profiler is on.  When only the
    /// profiler is armed the guard records no trace span but still maintains
    /// the thread's stack mirror, so wall-clock samples see the full stack.
    #[inline]
    pub fn enter(site: u32, arg: u64) -> Span {
        let gates = gates();
        if gates == 0 {
            return Span::inert();
        }
        let mirror_pushed = gates & GATE_PROFILE != 0 && crate::profile::push_site(site);
        if gates & GATE_TRACE == 0 {
            return Span {
                index: usize::MAX,
                started: None,
                mirror_pushed,
            };
        }
        ACTIVE.with(|cell| {
            let mut active = cell.borrow_mut();
            let Some(trace) = active.as_mut() else {
                return Span {
                    index: usize::MAX,
                    started: None,
                    mirror_pushed,
                };
            };
            let mut span = Span::open_in(trace, site, arg);
            span.mirror_pushed = mirror_pushed;
            span
        })
    }

    fn open_in(trace: &mut ActiveTrace, site: u32, arg: u64) -> Span {
        if trace.spans.len() >= MAX_SPANS_PER_TRACE {
            trace.truncated += 1;
            return Span::inert();
        }
        let started = Instant::now();
        let parent_id = trace
            .stack
            .last()
            .map(|&i| trace.spans[i].span_id)
            .unwrap_or(0);
        let index = trace.spans.len();
        trace.spans.push(SpanRecord {
            trace_id: trace.trace_id,
            span_id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
            parent_id,
            site,
            lane: 0,
            flags: 0,
            start_ns: since_epoch_ns(started),
            dur_ns: 0,
            arg,
        });
        trace.stack.push(index);
        Span {
            index,
            started: Some(started),
            mirror_pushed: false,
        }
    }

    fn close_in(trace: &mut ActiveTrace, index: usize, started: Instant) {
        trace.spans[index].dur_ns = started.elapsed().as_nanos() as u64;
        // Guards drop in LIFO order, so the top of the stack is this span; tolerate
        // out-of-order drops (mem::forget'd siblings) by searching from the top.
        if let Some(pos) = trace.stack.iter().rposition(|&i| i == index) {
            trace.stack.remove(pos);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.index != usize::MAX {
            if let Some(started) = self.started {
                ACTIVE.with(|cell| {
                    if let Some(trace) = cell.borrow_mut().as_mut() {
                        Span::close_in(trace, self.index, started);
                    }
                });
            }
        }
        if self.mirror_pushed {
            crate::profile::pop_site();
        }
    }
}

enum RootState {
    Inert,
    /// A root opened while a trace was already active nests as a plain child; the
    /// guard is held only for its drop.
    Nested {
        _child: Span,
    },
    Root {
        started: Instant,
    },
}

/// An RAII guard opening (and at drop, committing or discarding) one
/// request-scoped trace on the current thread.
///
/// Created by [`RootSpan::enter`] (usually via the [`crate::root_span!`] macro).
/// The trace is committed to the flight recorder if its seed was sampled, or —
/// whatever the sampling decision — if the root ran at least the configured slow
/// threshold (the slow-request log).  Otherwise every buffered span is discarded:
/// unsampled requests leave nothing behind but one counter increment.
#[must_use = "a root span measures until dropped; binding it to `_` drops immediately"]
pub struct RootSpan {
    state: RootState,
    /// Whether this guard pushed the profiler's stack mirror and owes a pop.
    mirror_pushed: bool,
}

impl RootSpan {
    /// A root that records nothing.
    pub fn inert() -> RootSpan {
        RootSpan {
            state: RootState::Inert,
            mirror_pushed: false,
        }
    }

    /// Opens a trace root at `site` for the request identified by `seed`.
    ///
    /// `seed` drives deterministic sampling (see [`sampled`]); `arg` is stored on
    /// the root record.  If this thread already has an active trace the "root"
    /// nests as an ordinary child span, which lets per-request roots compose with
    /// an enclosing per-connection root when batches run inline.  When the
    /// profiler is armed the guard also maintains the thread's stack mirror,
    /// independent of the sampling decision.
    #[inline]
    pub fn enter(site: u32, seed: u64, arg: u64) -> RootSpan {
        let gates = gates();
        if gates == 0 {
            return RootSpan::inert();
        }
        let mirror_pushed = gates & GATE_PROFILE != 0 && crate::profile::push_site(site);
        if gates & GATE_TRACE == 0 {
            return RootSpan {
                state: RootState::Inert,
                mirror_pushed,
            };
        }
        ACTIVE.with(|cell| {
            let mut active = cell.borrow_mut();
            if let Some(trace) = active.as_mut() {
                return RootSpan {
                    state: RootState::Nested {
                        _child: Span::open_in(trace, site, arg),
                    },
                    mirror_pushed,
                };
            }
            let is_sampled = sampled(seed);
            if !is_sampled && slow_threshold_ns() == 0 {
                return RootSpan {
                    state: RootState::Inert,
                    mirror_pushed,
                };
            }
            let started = Instant::now();
            let mut trace = ActiveTrace {
                trace_id: mix64(seed) | 1,
                is_sampled,
                stack: Vec::with_capacity(8),
                spans: Vec::with_capacity(8),
                truncated: 0,
            };
            trace.spans.push(SpanRecord {
                trace_id: trace.trace_id,
                span_id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
                parent_id: 0,
                site,
                lane: 0,
                flags: 0,
                start_ns: since_epoch_ns(started),
                dur_ns: 0,
                arg,
            });
            trace.stack.push(0);
            *active = Some(trace);
            RootSpan {
                state: RootState::Root { started },
                mirror_pushed,
            }
        })
    }
}

impl Drop for RootSpan {
    fn drop(&mut self) {
        // The Nested state's child guard drops here (a no-op for the mirror:
        // its flag is false — the root-level push below covers the site).
        let state = std::mem::replace(&mut self.state, RootState::Inert);
        if let RootState::Root { started } = state {
            Self::commit(started);
        }
        if self.mirror_pushed {
            crate::profile::pop_site();
        }
    }
}

impl RootSpan {
    fn commit(started: Instant) {
        let Some(mut trace) = ACTIVE.with(|cell| cell.borrow_mut().take()) else {
            return;
        };
        let dur_ns = started.elapsed().as_nanos() as u64;
        trace.spans[0].dur_ns = dur_ns;
        let slow_ns = slow_threshold_ns();
        let is_slow = slow_ns > 0 && dur_ns >= slow_ns;
        let counters = trace_counters();
        if !trace.is_sampled && !is_slow {
            counters.roots_discarded.incr();
            return;
        }
        if is_slow {
            trace.spans[0].flags |= FLAG_SLOW;
            counters.roots_slow.incr();
        }
        if trace.is_sampled {
            counters.roots_sampled.incr();
        }
        counters.spans_committed.add(trace.spans.len() as u64);
        if trace.truncated > 0 {
            counters.spans_truncated.add(trace.truncated);
        }
        let make = |lane: usize| Ring::new(lane as u16);
        RECORDERS.with_local(&THREAD_RING, make, |ring| {
            for record in &mut trace.spans {
                record.lane = ring.lane;
                ring.push(record);
            }
        });
    }
}

/// Records an already-measured wait as a child of the current span: a span that
/// began at `started` and ends now, without having held a guard open.
///
/// This is how cross-thread waits land in a trace — e.g. the serve layer stamps a
/// connection at enqueue time on the accept thread and records the queue wait here
/// once a worker picks it up.  No-op when the thread has no active trace.
pub fn complete_span(site: u32, started: Instant, arg: u64) {
    if !tracing_configured() {
        return;
    }
    ACTIVE.with(|cell| {
        let mut active = cell.borrow_mut();
        let Some(trace) = active.as_mut() else {
            return;
        };
        if trace.spans.len() >= MAX_SPANS_PER_TRACE {
            trace.truncated += 1;
            return;
        }
        let parent_id = trace
            .stack
            .last()
            .map(|&i| trace.spans[i].span_id)
            .unwrap_or(0);
        trace.spans.push(SpanRecord {
            trace_id: trace.trace_id,
            span_id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
            parent_id,
            site,
            lane: 0,
            flags: 0,
            start_ns: since_epoch_ns(started),
            dur_ns: started.elapsed().as_nanos() as u64,
            arg,
        });
    });
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

fn push_us(ns: u64, out: &mut String) {
    // Chrome trace timestamps are microseconds; keep nanosecond precision as a
    // fixed three-decimal fraction (deterministic, no float formatting drift).
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

/// Renders records as Chrome trace-event JSON: an object with a `traceEvents`
/// array of complete (`"ph":"X"`) events, loadable in `chrome://tracing` and
/// Perfetto, plus an embedded `summary` object ([`summary_json`]) that both
/// viewers ignore.
///
/// Events carry `pid` 1, `tid` = flight-recorder lane, microsecond `ts`/`dur`
/// with nanosecond fractions, and an `args` object holding the trace/span/parent
/// ids, the caller payload, and the slow-retention flag.
pub fn chrome_trace_json(records: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(64 + 160 * records.len());
    out.push_str("{\"displayTimeUnit\":\"ms\",\"summary\":");
    out.push_str(&summary_json(records));
    out.push_str(",\"traceEvents\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"args\":{{\"arg\":{},\"parent\":{},\"slow\":{},\"span\":{},\"trace\":{}}},\
             \"cat\":\"tcp\",\"dur\":",
            r.arg,
            r.parent_id,
            (r.flags & FLAG_SLOW) != 0,
            r.span_id,
            r.trace_id,
        );
        push_us(r.dur_ns, &mut out);
        out.push_str(",\"name\":");
        serde_json::append(&site_name(r.site), &mut out);
        let _ = write!(out, ",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":", r.lane);
        push_us(r.start_ns, &mut out);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Per-site totals of a record set, as one line of sorted-key JSON:
/// `{"<site>":{"count":…,"self_ns":…,"total_ns":…},…}`.
///
/// `total_ns` sums span durations; `self_ns` subtracts each span's direct
/// children, so a site's self time is where its wall clock actually went.
pub fn summary_json(records: &[SpanRecord]) -> String {
    let mut index_of: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        index_of.insert(r.span_id, i);
    }
    let mut self_ns: Vec<u64> = records.iter().map(|r| r.dur_ns).collect();
    for r in records {
        if r.parent_id == 0 {
            continue;
        }
        if let Some(&p) = index_of.get(&r.parent_id) {
            self_ns[p] = self_ns[p].saturating_sub(r.dur_ns);
        }
    }
    let mut sites: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        let entry = sites.entry(site_name(r.site)).or_insert((0, 0, 0));
        entry.0 += 1;
        entry.1 += self_ns[i];
        entry.2 += r.dur_ns;
    }
    let mut out = String::with_capacity(32 + 64 * sites.len());
    out.push('{');
    for (i, (site, (count, self_total, total))) in sites.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        serde_json::append(site, &mut out);
        let _ = write!(
            out,
            ":{{\"count\":{count},\"self_ns\":{self_total},\"total_ns\":{total}}}"
        );
    }
    out.push('}');
    out
}

/// Renders records as a JSON array of flat span objects (sorted keys), the shape
/// the `!trace` control line embeds: site names resolved, ids and nanosecond
/// offsets verbatim.
pub fn spans_json(records: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(16 + 128 * records.len());
    out.push('[');
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"arg\":{},\"dur_ns\":{},\"lane\":{},\"parent\":{},\"site\":",
            r.arg, r.dur_ns, r.lane, r.parent_id
        );
        serde_json::append(&site_name(r.site), &mut out);
        let _ = write!(
            out,
            ",\"slow\":{},\"span\":{},\"start_ns\":{},\"trace\":{}}}",
            (r.flags & FLAG_SLOW) != 0,
            r.span_id,
            r.start_ns,
            r.trace_id
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Serializes tests that mutate the process-global trace configuration.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn concurrent_snapshots_never_return_a_torn_record() {
        // Every field of record `n` derives from `n`, so a record assembled from two
        // different writes is detectable.
        fn record(n: u64) -> SpanRecord {
            SpanRecord {
                trace_id: n,
                span_id: n.wrapping_mul(3),
                parent_id: !n,
                site: n as u32,
                lane: 1,
                flags: (n % 2) as u16,
                start_ns: n.wrapping_mul(7),
                dur_ns: n ^ 0x5555,
                arg: n.wrapping_add(11),
            }
        }
        // The writer laps the ring at least twice, and keeps writing until the
        // reader has checked enough snapshots.
        const SNAPSHOTS: usize = 200;
        let min_writes = 2 * RING_CAPACITY as u64;
        let ring = Arc::new(Ring::new(1));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let (ring, stop) = (Arc::clone(&ring), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut n = 0;
                while n < min_writes || !stop.load(Ordering::Acquire) {
                    ring.push(&record(n));
                    n += 1;
                }
                n
            })
        };
        let mut snapshots = 0;
        let mut out = Vec::new();
        while snapshots < SNAPSHOTS {
            out.clear();
            ring.collect(&mut out);
            for r in &out {
                assert_eq!(*r, record(r.trace_id), "torn record");
            }
            if !out.is_empty() {
                snapshots += 1;
            }
        }
        stop.store(true, Ordering::Release);
        let writes = writer.join().unwrap();
        out.clear();
        ring.collect(&mut out);
        assert_eq!(out.len(), RING_CAPACITY);
        assert_eq!(out[0], record(writes - RING_CAPACITY as u64));
    }

    #[test]
    fn unconfigured_spans_are_inert() {
        let _gate = lock();
        configure(0, 0);
        clear();
        {
            let _root = RootSpan::enter(site_id("test.inert.root"), 7, 0);
            let _child = Span::enter(site_id("test.inert.child"), 0);
        }
        assert!(!recent_spans()
            .iter()
            .any(|r| site_name(r.site).starts_with("test.inert")));
    }

    #[test]
    fn sampling_is_deterministic_and_one_in_n() {
        let _gate = lock();
        configure(4, 0);
        let picked: Vec<u64> = (0..4096).filter(|&s| sampled(s)).collect();
        let again: Vec<u64> = (0..4096).filter(|&s| sampled(s)).collect();
        assert_eq!(
            picked, again,
            "sampling must be a pure function of the seed"
        );
        // ~1/4 of seeds selected, within a loose tolerance.
        assert!((700..=1400).contains(&picked.len()), "{}", picked.len());
        configure(0, 0);
    }

    #[test]
    fn nesting_parent_links_and_summary_self_time() {
        let _gate = lock();
        configure(1, 0);
        clear();
        let root_site = site_id("test.nest.root");
        let child_site = site_id("test.nest.child");
        {
            let _root = RootSpan::enter(root_site, 42, 9);
            let _a = Span::enter(child_site, 1);
            drop(_a);
            let _b = Span::enter(child_site, 2);
        }
        let records: Vec<SpanRecord> = recent_spans()
            .into_iter()
            .filter(|r| r.site == root_site || r.site == child_site)
            .collect();
        assert_eq!(records.len(), 3);
        let root = records.iter().find(|r| r.site == root_site).unwrap();
        assert_eq!(root.parent_id, 0);
        assert_eq!(root.arg, 9);
        for child in records.iter().filter(|r| r.site == child_site) {
            assert_eq!(child.parent_id, root.span_id);
            assert_eq!(child.trace_id, root.trace_id);
            assert!(child.dur_ns <= root.dur_ns);
        }
        let summary = summary_json(&records);
        assert!(summary.contains("\"test.nest.root\":{\"count\":1"));
        assert!(summary.contains("\"test.nest.child\":{\"count\":2"));
        configure(0, 0);
    }

    #[test]
    fn unsampled_roots_leave_nothing_unless_slow() {
        let _gate = lock();
        // Sampling off, slow log armed at an unreachable threshold: provisional
        // traces are buffered but discarded.
        configure(0, u64::MAX);
        clear();
        let site = site_id("test.slowgate.fast");
        {
            let _root = RootSpan::enter(site, 3, 0);
            let _child = Span::enter(site_id("test.slowgate.fast.child"), 0);
        }
        assert!(!recent_spans().iter().any(|r| r.site == site));

        // Threshold of 1 ns: everything is slow, everything is retained + flagged.
        configure(0, 1);
        let slow_site = site_id("test.slowgate.slow");
        {
            let _root = RootSpan::enter(slow_site, 3, 0);
            std::hint::black_box((0..64).sum::<u64>());
        }
        let retained: Vec<SpanRecord> = recent_spans()
            .into_iter()
            .filter(|r| r.site == slow_site)
            .collect();
        assert_eq!(retained.len(), 1);
        assert_eq!(retained[0].flags & FLAG_SLOW, FLAG_SLOW);
        configure(0, 0);
    }

    #[test]
    fn ring_is_bounded_and_keeps_the_most_recent() {
        let _gate = lock();
        configure(1, 0);
        clear();
        let site = site_id("test.ring.bound");
        for i in 0..(RING_CAPACITY as u64 + 64) {
            let _root = RootSpan::enter(site, i, i);
        }
        let mine: Vec<SpanRecord> = recent_spans()
            .into_iter()
            .filter(|r| r.site == site)
            .collect();
        assert!(mine.len() <= RING_CAPACITY);
        // The newest roots survive; the oldest were overwritten.
        assert!(mine.iter().any(|r| r.arg == RING_CAPACITY as u64 + 63));
        configure(0, 0);
    }

    #[test]
    fn chrome_export_shape() {
        let _gate = lock();
        let site = site_id("test.chrome.site");
        let records = [SpanRecord {
            trace_id: 11,
            span_id: 21,
            parent_id: 0,
            site,
            lane: 2,
            flags: FLAG_SLOW,
            start_ns: 1_500,
            dur_ns: 2_001,
            arg: 5,
        }];
        let json = chrome_trace_json(&records);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"summary\":{"));
        assert!(json.contains("\"traceEvents\":[{\"args\":{\"arg\":5,\"parent\":0,\"slow\":true,\"span\":21,\"trace\":11}"));
        assert!(json.contains("\"cat\":\"tcp\""));
        assert!(json.contains("\"dur\":2.001"));
        assert!(json.contains("\"name\":\"test.chrome.site\""));
        assert!(json.contains("\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":1.500"));
        let spans = spans_json(&records);
        assert!(spans.contains("\"site\":\"test.chrome.site\""));
        assert!(spans.contains("\"slow\":true"));
    }

    #[test]
    fn profiler_gate_mirrors_spans_without_tracing() {
        let _gate = lock();
        configure(0, 0);
        clear();
        set_profile_gate(true);
        let root_site = site_id("test.mirrorgate.root");
        let child_site = site_id("test.mirrorgate.child");
        {
            let _root = RootSpan::enter(root_site, 9, 0);
            let _child = Span::enter(child_site, 0);
            crate::profile::tick();
        }
        set_profile_gate(false);
        // No trace records (tracing is off) …
        assert!(!recent_spans()
            .iter()
            .any(|r| r.site == root_site || r.site == child_site));
        // … but the wall profiler saw the stack, outermost first.
        let snap = crate::profile::snapshot();
        let (path, _) = snap
            .stacks
            .iter()
            .find(|(path, _)| path.contains(&"test.mirrorgate.child".to_string()))
            .expect("profiler sampled the span stack");
        let root_pos = path
            .iter()
            .position(|f| f == "test.mirrorgate.root")
            .expect("root frame mirrored");
        let child_pos = path
            .iter()
            .position(|f| f == "test.mirrorgate.child")
            .unwrap();
        assert!(root_pos < child_pos);
    }

    #[test]
    fn complete_span_attaches_to_the_active_trace() {
        let _gate = lock();
        configure(1, 0);
        clear();
        let root_site = site_id("test.complete.root");
        let wait_site = site_id("test.complete.wait");
        {
            let _root = RootSpan::enter(root_site, 5, 0);
            complete_span(wait_site, Instant::now(), 77);
        }
        let records = recent_spans();
        let root = records.iter().find(|r| r.site == root_site).unwrap();
        let wait = records.iter().find(|r| r.site == wait_site).unwrap();
        assert_eq!(wait.parent_id, root.span_id);
        assert_eq!(wait.arg, 77);
        configure(0, 0);
    }
}
