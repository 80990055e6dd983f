//! Log-bucketed latency histograms.
//!
//! A [`Histogram`] records non-negative integer samples (by convention nanoseconds when
//! fed by [`crate::SpanTimer`]) into log-linear buckets: values below 16 land in exact
//! unit buckets, and every power-of-two octave above that is split into 8 linear
//! sub-buckets.  A bucket's relative width is therefore at most 1/8, which bounds the
//! relative error of any bucket-midpoint quantile estimate by 1/16 (6.25 %) — tight
//! enough to read p50/p90/p99 latencies off a dashboard, cheap enough to record on a
//! nanosecond-scale hot path.
//!
//! Recording is lock-free and scatters across cache-line-padded shards (the same
//! pattern as the advisor's query counters) so concurrent writers on different cores
//! never contend on one line; [`Histogram::snapshot`] folds the shards into an owned
//! [`HistogramSnapshot`] that does the quantile math offline.

use crate::pad::{thread_shard, SHARDS};
use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per power-of-two octave (8 ⇒ ≤ 1/8 relative bucket width).
const SUBS: usize = 8;
/// Exact unit buckets for values below `2 * SUBS`.
const EXACT: usize = 2 * SUBS;
/// Total bucket count: 16 exact buckets + 8 sub-buckets for each octave `[2^4, 2^64)`.
pub const BUCKETS: usize = EXACT + (64 - 4) * SUBS;

/// Maps a sample to its bucket index.
#[inline]
fn bucket_index(value: u64) -> usize {
    if value < EXACT as u64 {
        value as usize
    } else {
        // `value >= 16` ⇒ the top bit is at position `e >= 4`; the next three bits
        // select the linear sub-bucket inside the octave.
        let e = 63 - value.leading_zeros() as usize;
        let sub = ((value >> (e - 3)) & (SUBS as u64 - 1)) as usize;
        EXACT + (e - 4) * SUBS + sub
    }
}

/// The `[lower, upper)` value range of a bucket.
fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < EXACT {
        (index as u64, index as u64 + 1)
    } else {
        let e = 4 + (index - EXACT) / SUBS;
        let sub = ((index - EXACT) % SUBS) as u64;
        let width = 1u64 << (e - 3);
        let lower = (SUBS as u64 + sub) << (e - 3);
        (lower, lower.saturating_add(width))
    }
}

/// The representative value reported for samples in a bucket (exact below 16, the
/// bucket midpoint above).
fn bucket_value(index: usize) -> u64 {
    let (lower, upper) = bucket_bounds(index);
    if index < EXACT {
        lower
    } else {
        lower + (upper - lower) / 2
    }
}

/// One recording shard.  `align(64)` keeps distinct shards off a shared cache line;
/// the bucket array is a separate heap allocation per shard, so two threads on
/// different shards never write the same line even for adjacent buckets.
#[repr(align(64))]
struct Shard {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// A concurrent log-bucketed histogram.
///
/// Values are `u64` samples; [`crate::SpanTimer`] records elapsed nanoseconds.  All
/// recording is relaxed-atomic and shard-scattered; reads ([`Histogram::snapshot`])
/// fold the shards.
pub struct Histogram {
    shards: Box<[Shard]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            shards: (0..SHARDS).map(|_| Shard::new()).collect(),
        }
    }

    /// Records one sample.  Gated by [`crate::enabled`]: a metrics-disabled process
    /// records nothing, so instrumentation can be switched off without code changes.
    #[inline]
    pub fn record(&self, value: u64) {
        if !crate::enabled() {
            return;
        }
        let shard = &self.shards[thread_shard()];
        shard.count.fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(value, Ordering::Relaxed);
        shard.max.fetch_max(value, Ordering::Relaxed);
        shard.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] as whole nanoseconds (saturating).
    #[inline]
    pub fn record_duration(&self, elapsed: std::time::Duration) {
        self.record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Folds every shard into an owned, immutable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = vec![0u64; BUCKETS];
        let mut count = 0u64;
        let mut sum = 0u64;
        let mut max = 0u64;
        for shard in self.shards.iter() {
            count += shard.count.load(Ordering::Relaxed);
            sum += shard.sum.load(Ordering::Relaxed);
            max = max.max(shard.max.load(Ordering::Relaxed));
            for (total, bucket) in buckets.iter_mut().zip(shard.buckets.iter()) {
                *total += bucket.load(Ordering::Relaxed);
            }
        }
        HistogramSnapshot {
            count,
            sum,
            max,
            buckets,
        }
    }
}

/// An immutable point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample seen (exact, not bucketed).
    pub max: u64,
    buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// An empty snapshot (useful as a delta/merge seed).
    pub fn empty() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            max: 0,
            buckets: vec![0; BUCKETS],
        }
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) from the bucket counts.
    ///
    /// The estimate is the representative value of the bucket holding the
    /// nearest-rank sample: exact for samples below 16, within 6.25 % relative error
    /// above (the bucket midpoint of a ≤ 1/8-wide bucket).  `q = 1` returns the exact
    /// tracked maximum.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q >= 1.0 {
            return self.max as f64;
        }
        let q = q.max(0.0);
        // Nearest-rank definition: the smallest rank r with r >= ceil(q * count).
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                // The max is exact; never report a midpoint above it.
                return (bucket_value(index).min(self.max)) as f64;
            }
        }
        self.max as f64
    }

    /// Adds another snapshot's samples into this one (bucket-wise).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// The samples recorded between `earlier` and `self` (counters are monotone, so a
    /// bucket-wise saturating difference is exact when `earlier` was taken first on
    /// the same histogram).
    ///
    /// The tracked maximum is cumulative, so the interval's true max is not
    /// recoverable exactly; the delta's `max` is the tighter of the later
    /// snapshot's max and the upper bound of the highest non-empty *delta* bucket
    /// (0 for an empty delta).  Without that clamp a per-run delta would report
    /// `max` — and `quantile(1.0)`, which returns it — from all prior history:
    /// exactly the cross-window contamination the SLO engine's windowed
    /// percentiles must not have.
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let count = self.count.saturating_sub(earlier.count);
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .zip(&earlier.buckets)
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        let max = if count == 0 {
            0
        } else {
            let bound = buckets
                .iter()
                .rposition(|&n| n > 0)
                .map(|i| {
                    let (lo, hi) = bucket_bounds(i);
                    if hi == u64::MAX {
                        u64::MAX
                    } else {
                        (hi - 1).max(lo)
                    }
                })
                .unwrap_or(self.max);
            self.max.min(bound)
        };
        HistogramSnapshot {
            count,
            sum: self.sum.saturating_sub(earlier.sum),
            max,
            buckets,
        }
    }

    /// The recording rate between `earlier` and `self`, in samples per second over
    /// `elapsed_secs` (0 for a degenerate interval).  Thin wrapper over
    /// [`crate::rate_per_sec`] so every windowed-rate consumer (`advise top`,
    /// `sweep --heartbeat`, the SLO engine) shares one definition.
    pub fn rate_per_sec(&self, earlier: &HistogramSnapshot, elapsed_secs: f64) -> f64 {
        crate::rate_per_sec(self.count.saturating_sub(earlier.count), elapsed_secs)
    }

    /// Non-empty buckets as `(upper_bound, cumulative_count)` pairs, the shape the
    /// Prometheus text exposition's `_bucket{le="..."}` series needs.  The trailing
    /// `+Inf` bucket is implied by [`HistogramSnapshot::count`].
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cumulative = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                cumulative += n;
                out.push((bucket_bounds(index).1, cumulative));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 16);
        assert_eq!(s.sum, (0..16).sum::<u64>());
        assert_eq!(s.max, 15);
        assert_eq!(s.quantile(0.0), 0.0);
        assert_eq!(s.quantile(1.0), 15.0);
        // Every recorded small value is recoverable exactly.
        for v in 0..16u64 {
            let q = (v + 1) as f64 / 16.0;
            assert_eq!(s.quantile(q), v as f64, "q={q}");
        }
    }

    #[test]
    fn bucket_index_and_bounds_are_consistent() {
        for v in [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1_000,
            123_456,
            u32::MAX as u64,
            1 << 40,
            (1 << 63) + 12345,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "index {i} out of range for {v}");
            let (lo, hi) = bucket_bounds(i);
            assert!(
                lo <= v && (v < hi || hi == u64::MAX),
                "{v} not in [{lo},{hi})"
            );
            // Relative bucket width is at most 1/8 above the exact range.
            if v >= 16 {
                assert!((hi - lo) as f64 / lo as f64 <= 1.0 / 8.0 + 1e-12);
            }
        }
    }

    #[test]
    fn bucket_indices_are_monotone_in_value() {
        let mut values: Vec<u64> = (0..63)
            .flat_map(|e| [0u64, 1, 3].map(|off| (1u64 << e) + off))
            .collect();
        values.sort_unstable();
        let mut prev = 0usize;
        for v in values {
            let i = bucket_index(v);
            assert!(i >= prev, "index regressed at {v}");
            prev = i;
        }
    }

    #[test]
    fn quantiles_are_within_the_relative_error_bound() {
        let h = Histogram::new();
        // A deterministic spread over five orders of magnitude.
        let mut values: Vec<u64> = (1..=4000u64).map(|i| i * i * 7 + 13).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let s = h.snapshot();
        assert_eq!(s.count, values.len() as u64);
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let target = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[target - 1] as f64;
            let estimate = s.quantile(q);
            let rel = (estimate - exact).abs() / exact;
            assert!(
                rel <= 1.0 / 16.0 + 1e-12,
                "q={q}: {estimate} vs {exact} ({rel})"
            );
        }
        assert_eq!(s.quantile(1.0), *values.last().unwrap() as f64);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads = 8;
        let per_thread = 5_000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let h = std::sync::Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        h.record(t * 1_000 + i);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, threads * per_thread);
        let expected_sum: u64 = (0..threads)
            .map(|t| (0..per_thread).map(|i| t * 1_000 + i).sum::<u64>())
            .sum();
        assert_eq!(s.sum, expected_sum);
        assert_eq!(s.max, (threads - 1) * 1_000 + per_thread - 1);
    }

    #[test]
    fn merge_and_delta_are_inverse() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 0..1000u64 {
            a.record(v * 3);
            b.record(v * 5 + 1);
        }
        let sa = a.snapshot();
        let sb = b.snapshot();
        let mut merged = sa.clone();
        merged.merge(&sb);
        assert_eq!(merged.count, 2000);
        assert_eq!(merged.sum, sa.sum + sb.sum);
        let back = merged.delta_since(&sb);
        assert_eq!(back.count, sa.count);
        assert_eq!(back.sum, sa.sum);
        assert_eq!(back.quantile(0.5), sa.quantile(0.5));
    }

    #[test]
    fn delta_quantiles_are_not_contaminated_by_prior_history() {
        // Regression for per-window percentile reports: run 1 records a huge
        // outlier, run 2 records only small samples.  Run 2's delta snapshot
        // must not surface run 1's max through `max` or `quantile(1.0)` — that was
        // exactly how earlier iterations bled into later per-run percentiles.
        let h = Histogram::new();
        h.record(50_000_000); // run 1: a 50 ms outlier
        let baseline = h.snapshot();
        for _ in 0..100 {
            h.record(1_000); // run 2: 1 µs samples only
        }
        let delta = h.snapshot().delta_since(&baseline);
        assert_eq!(delta.count, 100);
        assert!(
            delta.max <= 1_000 + 1_000 / 8,
            "delta max {} leaked the prior run's outlier",
            delta.max
        );
        assert!(delta.quantile(1.0) <= 1_000.0 * (1.0 + 1.0 / 8.0));
        for q in [0.5, 0.9, 0.99, 0.999] {
            let estimate = delta.quantile(q);
            assert!(
                (estimate - 1_000.0).abs() / 1_000.0 <= 1.0 / 16.0 + 1e-12,
                "q={q}: {estimate}"
            );
        }
        // An empty delta reports a zero max, not history's.
        let empty = h.snapshot().delta_since(&h.snapshot());
        assert_eq!(empty.count, 0);
        assert_eq!(empty.max, 0);
        assert_eq!(empty.quantile(1.0), 0.0);
    }

    #[test]
    fn cumulative_buckets_cover_every_sample() {
        let h = Histogram::new();
        for v in [1u64, 1, 20, 20, 20, 5_000] {
            h.record(v);
        }
        let s = h.snapshot();
        let cumulative = s.cumulative_buckets();
        assert_eq!(cumulative.last().unwrap().1, 6);
        // Upper bounds are strictly increasing.
        assert!(cumulative.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
