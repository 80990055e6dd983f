//! The metric registry: named counters, gauges, and histograms with a global instance.
//!
//! Metrics are registered once by name and live for the life of the process
//! (`&'static` handles, leaked on first registration).  Registration takes a short
//! mutex; recording afterwards is lock-free.  Names are free-form dotted paths
//! (`"serve.requests.served"`); the exposition layer maps them to output formats.

use crate::export::{RegistrySnapshot, SnapshotValue};
use crate::hist::{Histogram, HistogramSnapshot};
use crate::pad::{thread_shard, PaddedU64, SHARDS};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A monotone event counter, sharded across cache-line-padded cells.
///
/// Unlike [`Histogram`] recording, counter increments are **not** gated by the crate
/// enable flag: counters back user-facing surfaces such as the advisor's `!stats`
/// line, which must keep working even when latency instrumentation is switched off.
#[derive(Debug, Default)]
pub struct Counter {
    shards: [PaddedU64; SHARDS],
}

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Counter {
            shards: [
                PaddedU64::new(),
                PaddedU64::new(),
                PaddedU64::new(),
                PaddedU64::new(),
                PaddedU64::new(),
                PaddedU64::new(),
                PaddedU64::new(),
                PaddedU64::new(),
            ],
        }
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[thread_shard()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Sum of all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A last-write-wins instantaneous value (queue depth, in-flight requests, K-S
/// statistics).  Stored as `f64` bits in one atomic; `add`/`sub` are
/// compare-and-swap loops, cheap at gauge update rates.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    /// A gauge reading zero.
    pub const fn new() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Reads the gauge.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: f64) {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Subtracts `delta`.
    pub fn sub(&self, delta: f64) {
        self.add(-delta);
    }
}

/// What a name is registered as; re-registering under a different kind panics.
enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

/// A named collection of metrics.
///
/// Most code uses the process-global registry via [`Registry::global`] (or the
/// crate-level [`crate::counter`]/[`crate::gauge`]/[`crate::histogram`] shorthands);
/// separate instances exist for tests and for delta-scoped measurement.
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

/// The process-global registry behind [`Registry::global`].
static GLOBAL: Registry = Registry::new();

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry.
    pub const fn new() -> Self {
        Registry {
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    /// The process-global registry.
    pub fn global() -> &'static Registry {
        &GLOBAL
    }

    /// Returns the counter registered under `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a gauge or histogram.
    pub fn counter(&self, name: &str) -> &'static Counter {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Box::leak(Box::new(Counter::new()))))
        {
            Metric::Counter(c) => c,
            _ => panic!("metric `{name}` is already registered with a different type"),
        }
    }

    /// Returns the gauge registered under `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a counter or histogram.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Box::leak(Box::new(Gauge::new()))))
        {
            Metric::Gauge(g) => g,
            _ => panic!("metric `{name}` is already registered with a different type"),
        }
    }

    /// Returns the histogram registered under `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a counter or gauge.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Box::leak(Box::new(Histogram::new()))))
        {
            Metric::Histogram(h) => h,
            _ => panic!("metric `{name}` is already registered with a different type"),
        }
    }

    /// A point-in-time snapshot of every registered metric, keyed by name (sorted:
    /// the map is a `BTreeMap`, so every export walks names deterministically).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let metrics = self.metrics.lock().unwrap();
        let mut values = BTreeMap::new();
        for (name, metric) in metrics.iter() {
            let value = match metric {
                Metric::Counter(c) => SnapshotValue::Counter(c.get()),
                Metric::Gauge(g) => SnapshotValue::Gauge(g.get()),
                Metric::Histogram(h) => SnapshotValue::Histogram(h.snapshot()),
            };
            values.insert(name.clone(), value);
        }
        RegistrySnapshot { values }
    }

    /// Snapshot of one histogram by name, if registered.
    pub fn histogram_snapshot(&self, name: &str) -> Option<HistogramSnapshot> {
        let metrics = self.metrics.lock().unwrap();
        match metrics.get(name) {
            Some(Metric::Histogram(h)) => Some(h.snapshot()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_round_trips_and_resets() {
        let c = Counter::new();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn counter_sums_across_threads() {
        let c = std::sync::Arc::new(Counter::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = std::sync::Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn gauge_add_sub_set() {
        let g = Gauge::new();
        g.set(3.5);
        g.add(1.0);
        g.sub(0.5);
        assert!((g.get() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn registry_returns_the_same_handle() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.incr();
        assert_eq!(b.get(), 1);
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn registry_rejects_kind_collisions() {
        let r = Registry::new();
        r.counter("clash");
        r.gauge("clash");
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let r = Registry::new();
        r.counter("b.two").add(2);
        r.counter("a.one").add(1);
        r.gauge("c.three").set(3.0);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.values.keys().map(String::as_str).collect();
        assert_eq!(names, ["a.one", "b.two", "c.three"]);
    }
}
