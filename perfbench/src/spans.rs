//! The traced run's span recorder.
//!
//! Spans are opened and closed by the benchmark's own code around each public call
//! it makes into the repository.  Each carries a name, start, end, parent and a
//! batch/request id, and is kept in memory (the first [`EVENT_CAP`] in full, all of
//! them in per-name totals).  At exit the spans are written as Chrome trace-event
//! JSON beside a per-layer summary.  A span's self time is its duration minus the
//! time its child spans cover.

use crate::metrics::{Allocs, Values};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Spans kept in full for the trace file; later spans only feed the totals.
const EVENT_CAP: usize = 100_000;

/// One recorded span.
struct Event {
    name: &'static str,
    id: u64,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// An open span.
struct Open {
    name: &'static str,
    start: Instant,
    allocs: Allocs,
    child_ns: u64,
    event: Option<usize>,
}

/// Per-name span totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    /// Spans closed.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus child spans), ns.
    pub self_ns: u64,
    /// Allocations made inside the spans (children included).
    pub allocs: Allocs,
}

/// The in-memory span recorder of one (single-threaded) traced run.
pub struct Tracer {
    epoch: Instant,
    stack: Vec<Open>,
    events: Vec<Event>,
    totals: BTreeMap<&'static str, Total>,
}

impl Tracer {
    /// An empty recorder whose timestamps count from now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            stack: Vec::new(),
            events: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Opens a span named `name` for batch/request `id`, nested in the open one.
    pub fn enter(&mut self, name: &'static str, id: u64) {
        let parent = self.stack.last().and_then(|open| open.event);
        let event = (self.events.len() < EVENT_CAP).then(|| {
            self.events.push(Event {
                name,
                id,
                start_ns: 0,
                end_ns: 0,
                parent,
            });
            self.events.len() - 1
        });
        let allocs = Allocs::now();
        let start = Instant::now();
        if let Some(i) = event {
            self.events[i].start_ns = self.ns_since_epoch(start);
        }
        self.stack.push(Open {
            name,
            start,
            allocs,
            child_ns: 0,
            event,
        });
    }

    /// Closes the innermost open span, returning its duration in ns.
    pub fn exit(&mut self) -> u64 {
        let end = Instant::now();
        let allocs = Allocs::now();
        let Some(open) = self.stack.pop() else {
            return 0;
        };
        let duration = end.duration_since(open.start).as_nanos() as u64;
        if let Some(i) = open.event {
            self.events[i].end_ns = self.ns_since_epoch(end);
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += duration;
        }
        let total = self.totals.entry(open.name).or_default();
        total.count += 1;
        total.total_ns += duration;
        total.self_ns += duration.saturating_sub(open.child_ns);
        total.allocs.calls += allocs.calls - open.allocs.calls;
        total.allocs.bytes += allocs.bytes - open.allocs.bytes;
        duration
    }

    /// Runs `f` inside a span, returning its result.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, id);
        let result = f();
        self.exit();
        result
    }

    /// Totals of the spans named `name` (zero when none closed).
    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    fn ns_since_epoch(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Chrome trace-event JSON (complete `X` events, microsecond timestamps).
    fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = e.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"id\":{},\"parent\":{parent}}}}}",
                e.name,
                e.start_ns as f64 / 1e3,
                e.end_ns.saturating_sub(e.start_ns) as f64 / 1e3,
                e.id
            ));
        }
        out.push_str("\n]}\n");
        out
    }

    /// Per-name totals as JSON lines of a summary object.
    fn totals_json(&self) -> String {
        let rows: Vec<String> = self
            .totals
            .iter()
            .map(|(name, t)| {
                format!(
                    "    \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}, \
                     \"allocs\": {}, \"alloc_bytes\": {}}}",
                    t.count, t.total_ns, t.self_ns, t.allocs.calls, t.allocs.bytes
                )
            })
            .collect();
        rows.join(",\n")
    }
}

/// Writes `<stem>.trace.json` (Chrome trace events) and `<stem>.layers.json` (the
/// per-layer metrics plus per-span totals) into `dir`.
pub fn write_files(
    tracer: &Tracer,
    layers: &Values,
    dir: &Path,
    stem: &str,
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let trace_path = dir.join(format!("{stem}.trace.json"));
    std::fs::write(&trace_path, tracer.chrome_json())?;
    let metrics: Vec<String> = layers
        .iter()
        .map(|(name, value)| format!("    \"{name}\": {value}"))
        .collect();
    let summary = format!(
        "{{\n  \"metrics\": {{\n{}\n  }},\n  \"spans\": {{\n{}\n  }}\n}}\n",
        metrics.join(",\n"),
        tracer.totals_json()
    );
    let summary_path = dir.join(format!("{stem}.layers.json"));
    std::fs::write(&summary_path, summary)?;
    Ok(vec![trace_path, summary_path])
}
